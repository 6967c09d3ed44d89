#include "pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string_view>
#include <vector>

#include "analysis/recount.hpp"
#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "dvq/dvq_cycle.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "dvq/yield.hpp"
#include "io/export.hpp"
#include "io/json.hpp"
#include "io/parse.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"
#include "sched/compressed_schedule.hpp"
#include "sched/sfq_scheduler.hpp"

namespace perfbench {

using namespace pfair;

namespace {

using Clock = std::chrono::steady_clock;
using prof::Phase;

// Which library sub-phases become which child metrics, per span.
const char* sfq_child(Phase p) {
  switch (p) {
    case Phase::kConstruction:
      return "sched.construction";
    case Phase::kKeyPrecompute:
      return "sched.key_precompute";
    case Phase::kReadyHeap:
      return "sched.ready_heap";
    case Phase::kCalendarWalk:
      return "sched.calendar_walk";
    default:
      return nullptr;
  }
}

const char* dvq_child(Phase p) {
  switch (p) {
    case Phase::kConstruction:
    case Phase::kKeyPrecompute:
      return "dvq.construction";
    case Phase::kDvqEvents:
      return "dvq.events";
    default:
      return nullptr;
  }
}

const char* sfq_cycle_child(Phase p) {
  return p == Phase::kFingerprint ? "cycle.fingerprint" : sfq_child(p);
}

const char* dvq_cycle_child(Phase p) {
  return p == Phase::kFingerprint ? "cycle.fingerprint" : dvq_child(p);
}

struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool cond, const std::string& what) {
  if (!cond) throw GateFailure(what);
}

std::uint64_t mix(std::uint64_t h, std::int64_t v) {
  h ^= static_cast<std::uint64_t>(v);
  return h * 0x100000001b3ULL;  // FNV-1a step over whole words
}

std::uint64_t digest(const SlotSchedule& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::int64_t k = 0; k < s.num_tasks(); ++k) {
    for (std::int64_t q = 0; q < s.num_subtasks(k); ++q) {
      const SlotPlacement p = s.placement(
          {static_cast<std::int32_t>(k), static_cast<std::int32_t>(q)});
      h = mix(mix(h, p.slot), p.proc);
    }
  }
  return h;
}

std::uint64_t digest(const DvqSchedule& s) {
  std::uint64_t h = 0x84222325cbf29ce4ULL;
  for (std::int64_t k = 0; k < s.num_tasks(); ++k) {
    for (std::int64_t q = 0; q < s.num_subtasks(k); ++q) {
      const DvqPlacement& p = s.placement(
          {static_cast<std::int32_t>(k), static_cast<std::int32_t>(q)});
      h = mix(mix(mix(mix(h, p.placed), p.start.raw_ticks()),
                  p.cost.raw_ticks()),
              p.proc);
    }
  }
  return h;
}

std::int64_t count_placed(const DvqSchedule& s) {
  std::int64_t n = 0;
  for (std::int64_t k = 0; k < s.num_tasks(); ++k) {
    for (std::int64_t q = 0; q < s.num_subtasks(k); ++q) {
      n += s.placement({static_cast<std::int32_t>(k),
                        static_cast<std::int32_t>(q)})
               .placed;
    }
  }
  return n;
}

// Swaps the first and last placements of the first task whose first and
// last windows are disjoint, so both land outside their windows.
SlotSchedule swap_across_windows(const TaskSystem& sys,
                                 const SlotSchedule& s) {
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const auto n = static_cast<std::int32_t>(sys.task(k).num_subtasks());
    if (n < 2) continue;
    const SubtaskRef a{k, 0};
    const SubtaskRef b{k, n - 1};
    if (sys.subtask(b).release < sys.subtask(a).deadline) continue;
    SlotSchedule out(sys);
    for (std::int32_t t = 0; t < sys.num_tasks(); ++t) {
      for (std::int32_t q = 0; q < sys.task(t).num_subtasks(); ++q) {
        const SubtaskRef ref{t, q};
        const SubtaskRef src = ref == a ? b : ref == b ? a : ref;
        const SlotPlacement p = s.placement(src);
        if (p.scheduled()) out.place(ref, p.slot, p.proc);
      }
    }
    return out;
  }
  throw std::logic_error("no task with disjoint first/last windows");
}

// Starts T_0's first subtask one quantum after its deadline, so it
// completes later than the one-quantum allowance permits.
DvqSchedule shift_past_allowance(const TaskSystem& sys, const DvqSchedule& s) {
  const SubtaskRef victim{0, 0};
  DvqSchedule out(sys);
  for (std::int32_t t = 0; t < sys.num_tasks(); ++t) {
    for (std::int32_t q = 0; q < sys.task(t).num_subtasks(); ++q) {
      const SubtaskRef ref{t, q};
      const DvqPlacement& p = s.placement(ref);
      if (!p.placed) continue;
      const Time start =
          ref == victim ? Time::slots(sys.subtask(ref).deadline) + kQuantum
                        : p.start;
      out.place(ref, start, p.cost, p.proc);
    }
  }
  return out;
}

void gate_sfq(const TaskSystem& sys, const SlotSchedule& sched,
              const QualityCounters* qual, MetricsRegistry* reg, Tracer* tr) {
  ValidityReport rep;
  TardinessSummary tard;
  {
    Span s(tr, "analysis.validity");
    rep = check_slot_schedule(sys, sched);
  }
  {
    Span s(tr, "analysis.tardiness");
    tard = measure_tardiness(sys, sched);
    if (reg != nullptr) record_tardiness_metrics(sys, sched, *reg);
  }
  require(rep.valid(), "sfq schedule invalid: " + rep.str(2));
  require(tard.none_late(),
          "sfq PD2 tardiness: " + std::to_string(tard.late_subtasks) +
              " late, " + std::to_string(tard.unscheduled) + " unscheduled");
  if (qual != nullptr) {
    bool match = false;
    {
      Span s(tr, "analysis.recount");
      match = sched.complete() && recount_quality(sys, sched) == *qual;
    }
    require(match, "sfq quality counters differ from the recount");
  }
}

void gate_dvq(const TaskSystem& sys, const DvqSchedule& sched,
              const QualityCounters* qual, MetricsRegistry* reg, Tracer* tr) {
  ValidityReport rep;
  TardinessSummary tard;
  {
    Span s(tr, "analysis.validity");
    rep = check_dvq_schedule(sys, sched, kQuantum);
  }
  {
    Span s(tr, "analysis.tardiness");
    tard = measure_tardiness(sys, sched);
    if (reg != nullptr) record_tardiness_metrics(sys, sched, *reg);
  }
  require(rep.valid(),
          "dvq schedule invalid (one-quantum allowance): " + rep.str(2));
  require(tard.max_ticks <= kTicksPerSlot && tard.unscheduled == 0,
          "dvq tardiness above one quantum: " +
              std::to_string(tard.max_quanta()) + " quanta, " +
              std::to_string(tard.unscheduled) + " unscheduled");
  if (qual != nullptr) {
    bool match = false;
    {
      Span s(tr, "analysis.recount");
      match = sched.complete() && recount_quality(sys, sched) == *qual;
    }
    require(match, "dvq quality counters differ from the recount");
  }
}

BernoulliYield bern_half(std::uint64_t seed) {  // pfairsim --yield=bern:1/2
  return BernoulliYield(seed, 1, 2, Time::ticks(kTicksPerSlot / 4),
                        kQuantum - kTick);
}

FixedYield fixed_three_quarters() {  // pfairsim --yield=fixed:3/4
  return FixedYield(kQuantum - Time::slots_frac(0, 3, 4));
}

// pfairsim's --trace/--metrics/--audit plumbing: auditor first, then the
// JSONL stream, folded into one tee; the auditor publishes into `reg`.
struct Sinks {
  Sinks(const TaskSystem& sys, std::ostream& os)
      : jsonl(os), auditor(sys), tee(&auditor, &jsonl) {
    auditor.attach_metrics(reg);
  }
  MetricsRegistry reg;
  JsonlSink jsonl;
  InvariantAuditor auditor;
  TeeSink tee;
};

// An in-memory byte sink that grows in fixed 1 MiB chunks, so the
// memory a trace holds tracks its size (a string doubles its capacity,
// and peak RSS jumps with it).
class ChunkBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::size_t size() const {
    return chunks_.empty() ? 0
                           : (chunks_.size() - 1) * kChunk +
                                 static_cast<std::size_t>(pptr() - pbase());
  }

  /// Occurrences of `needle`, including those across chunk boundaries.
  [[nodiscard]] std::int64_t count(std::string_view needle) const {
    std::int64_t n = 0;
    const auto count_in = [&](std::string_view v) {
      for (auto pos = v.find(needle); pos != std::string_view::npos;
           pos = v.find(needle, pos + needle.size())) {
        ++n;
      }
    };
    const std::size_t edge = needle.size() - 1;
    std::string_view prev;
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      const std::string_view cur(
          chunks_[i].get(),
          i + 1 < chunks_.size() ? kChunk
                                 : static_cast<std::size_t>(pptr() - pbase()));
      count_in(cur);
      if (!prev.empty()) {  // matches straddling the boundary
        count_in(std::string(prev.substr(prev.size() - edge)) +
                 std::string(cur.substr(0, std::min(edge, cur.size()))));
      }
      prev = cur;
    }
    return n;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    chunks_.emplace_back(new char[kChunk]);
    char* b = chunks_.back().get();
    setp(b, b + kChunk);
    *b = traits_type::to_char_type(ch);
    pbump(1);
    return ch;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::vector<std::unique_ptr<char[]>> chunks_;
};

struct TraceBuffer {
  ChunkBuf buf;
  std::ostream os{&buf};
};

// What outlives the timed pipeline for the untimed bookkeeping after it.
struct Live {
  std::optional<TaskSystem> sys;
  std::optional<SlotSchedule> sfq;
  std::optional<DvqSchedule> dvq;
  std::optional<DvqCycleSchedule> dvq_cyc;
  TraceBuffer sfq_trace;
  TraceBuffer dvq_trace;
};

void parse_and_build(const Request& req, Live& live, RequestStats& st,
                     Tracer* tr) {
  ParsedSystem parsed;
  {
    Span s(tr, "io.parse");
    parsed = parse_task_string(req.text);
  }
  {
    Span s(tr, "tasks.build");
    live.sys.emplace(parsed.build());
  }
  st.parse_bytes = static_cast<std::int64_t>(req.text.size());
  st.subtasks = live.sys->total_subtasks();
}

void finish_observed(Sinks& sinks, const TraceBuffer& trace,
                     const QualityCounters& qual, RequestStats& st,
                     Tracer* tr) {
  {
    Span s(tr, "obs.metrics_export");
    publish_quality(qual, sinks.reg);
    const std::string json = metrics_to_json(sinks.reg.snapshot(), 2);
    require(!json.empty(), "empty metrics export");
  }
  st.trace_events += static_cast<std::int64_t>(sinks.jsonl.lines());
  st.trace_bytes += static_cast<std::int64_t>(trace.buf.size());
  st.audit_findings += sinks.auditor.total_findings();
  require(sinks.auditor.clean(),
          "audit: " + std::to_string(sinks.auditor.total_findings()) +
              " finding(s)");
}

void run_sfq_live(Live& live, RequestStats& st, Tracer* tr,
                  Corruption corrupt, bool observed) {
  const TaskSystem& sys = *live.sys;
  QualityCounters qual;
  std::optional<Sinks> sinks;
  if (observed) {
    Span s(tr, "obs.sinks");
    sinks.emplace(sys, live.sfq_trace.os);
  }
  SfqOptions so;
  so.quality = &qual;
  if (sinks) {
    so.trace = &sinks->tee;
    so.metrics = &sinks->reg;
  }
  {
    Span s(tr, "sched.simulate", sfq_child);
    live.sfq.emplace(schedule_sfq(sys, so));
  }
  st.sched_placements += live.sfq->placed_count();
  if (corrupt == Corruption::kSwap) {
    live.sfq.emplace(swap_across_windows(sys, *live.sfq));
  }
  gate_sfq(sys, *live.sfq, &qual, sinks ? &sinks->reg : nullptr, tr);
  if (sinks) {
    {
      Span s(tr, "io.export");
      std::ostringstream csv;
      export_slot_schedule(sys, *live.sfq).write(csv);
      st.export_bytes += static_cast<std::int64_t>(csv.view().size());
    }
    finish_observed(*sinks, live.sfq_trace, qual, st, tr);
  }
  st.placements += sys.total_subtasks();
}

void run_dvq_live(const Request& req, Live& live, RequestStats& st,
                  Tracer* tr, Corruption corrupt, bool observed) {
  const TaskSystem& sys = *live.sys;
  QualityCounters qual;
  std::optional<Sinks> sinks;
  if (observed) {
    Span s(tr, "obs.sinks");
    sinks.emplace(sys, live.dvq_trace.os);
  }
  const BernoulliYield yields = bern_half(req.yield_seed);
  DvqOptions dopts;
  dopts.quality = &qual;
  if (sinks) {
    dopts.trace = &sinks->tee;
    dopts.metrics = &sinks->reg;
  }
  {
    Span s(tr, "dvq.simulate", dvq_child);
    live.dvq.emplace(schedule_dvq(sys, yields, dopts));
  }
  st.dvq_placements += sys.total_subtasks();
  if (corrupt == Corruption::kShift) {
    live.dvq.emplace(shift_past_allowance(sys, *live.dvq));
  }
  gate_dvq(sys, *live.dvq, &qual, sinks ? &sinks->reg : nullptr, tr);
  if (sinks) {
    {
      Span s(tr, "io.export");
      std::ostringstream csv;
      export_dvq_schedule(sys, *live.dvq).write(csv);
      st.export_bytes += static_cast<std::int64_t>(csv.view().size());
    }
    finish_observed(*sinks, live.dvq_trace, qual, st, tr);
  }
  st.placements += sys.total_subtasks();
}

void note_cycle(const CycleStats& cs, RequestStats& st) {
  ++st.cyclic_runs;
  st.cyclic_engaged += cs.engaged;
  st.slots_skipped += cs.slots_skipped;
  st.sim_slots += cs.sim_slots;
}

// pfairsim --fast-forward: compressed run, materialized, then analysed;
// no quality counters (they need a live run).
void run_steady_ff(Live& live, RequestStats& st, Tracer* tr,
                   Corruption corrupt) {
  const TaskSystem& sys = *live.sys;
  {
    std::optional<CycleSchedule> cyc;
    {
      Span s(tr, "cycle.detect", sfq_cycle_child);
      cyc.emplace(schedule_sfq_cyclic(sys, SfqOptions{}));
    }
    note_cycle(cyc->stats(), st);
    st.sched_placements += cyc->stored().placed_count();
    Span s(tr, "cycle.materialize");
    live.sfq.emplace(cyc->materialize(cyc->horizon()));
  }
  if (corrupt == Corruption::kSwap) {
    live.sfq.emplace(swap_across_windows(sys, *live.sfq));
  }
  gate_sfq(sys, *live.sfq, nullptr, nullptr, tr);

  const FixedYield yields = fixed_three_quarters();
  {
    Span s(tr, "cycle.detect", dvq_cycle_child);
    live.dvq_cyc.emplace(schedule_dvq_cyclic(sys, yields, DvqOptions{}));
  }
  note_cycle(live.dvq_cyc->stats(), st);
  {
    Span s(tr, "cycle.materialize");
    live.dvq.emplace(live.dvq_cyc->materialize(
        live.dvq_cyc->makespan().raw_ticks() / kTicksPerSlot + 1));
  }
  if (corrupt == Corruption::kShift) {
    live.dvq.emplace(shift_past_allowance(sys, *live.dvq));
  }
  gate_dvq(sys, *live.dvq, nullptr, nullptr, tr);
  st.placements += 2 * sys.total_subtasks();
}

// The same system without sinks, as pfairsim runs it without flags.
double plain_simulate_ns(const Request& req, const TaskSystem& sys) {
  QualityCounters q1;
  SfqOptions so;
  so.quality = &q1;
  const auto t0 = Clock::now();
  { const SlotSchedule s = schedule_sfq(sys, so); }
  const auto t1 = Clock::now();
  QualityCounters q2;
  DvqOptions dopts;
  dopts.quality = &q2;
  const BernoulliYield yields = bern_half(req.yield_seed);
  const auto t2 = Clock::now();
  { const DvqSchedule s = schedule_dvq(sys, yields, dopts); }
  const auto t3 = Clock::now();
  return std::chrono::duration<double, std::nano>((t1 - t0) + (t3 - t2))
      .count();
}

}  // namespace

RequestStats run_request(Workload w, const Request& req, Tracer* tracer,
                         Corruption corrupt, bool want_digest) {
  RequestStats st;
  const auto t0 = Clock::now();
  Clock::time_point pipeline_end;
  Clock::time_point bookkeeping_end;
  {
    Live live;
    try {
      parse_and_build(req, live, st, tracer);
      switch (w) {
        case Workload::kSfqPlain:
          run_sfq_live(live, st, tracer, corrupt, false);
          break;
        case Workload::kDvqDesync:
          run_dvq_live(req, live, st, tracer, corrupt, false);
          break;
        case Workload::kObserved:
          run_sfq_live(live, st, tracer, corrupt, true);
          run_dvq_live(req, live, st, tracer, corrupt, true);
          break;
        case Workload::kSteadyFf:
          run_steady_ff(live, st, tracer, corrupt);
          break;
      }
    } catch (const std::exception& e) {
      st.ok = false;
      st.error = e.what();
    }
    pipeline_end = Clock::now();

    // Bookkeeping, kept out of the timed wall.
    if (st.ok && want_digest) {
      std::uint64_t h = 0;
      if (live.sfq) h ^= digest(*live.sfq);
      if (live.dvq) h ^= digest(*live.dvq) * 0x9e3779b97f4a7c15ULL;
      st.digest = h;
    }
    if (st.ok && tracer != nullptr) {
      if (live.dvq_cyc) {
        st.dvq_placements += count_placed(live.dvq_cyc->stored());
      }
      if (w == Workload::kObserved) {
        static constexpr std::string_view kCompare = R"({"k": "compare")";
        st.compare_events = live.sfq_trace.buf.count(kCompare) +
                            live.dvq_trace.buf.count(kCompare);
        st.plain_simulate_ns = plain_simulate_ns(req, *live.sys);
      }
    }
    bookkeeping_end = Clock::now();
  }
  st.wall_ns = std::chrono::duration<double, std::nano>(
                   (pipeline_end - t0) + (Clock::now() - bookkeeping_end))
                   .count();
  return st;
}

std::string check_fast_forward_exact(const Request& req) {
  const TaskSystem sys = parse_task_string(req.text).build();
  const CycleSchedule cyc = schedule_sfq_cyclic(sys, SfqOptions{});
  SfqOptions full;
  full.cycle_detect = false;
  if (digest(cyc.materialize(cyc.horizon())) !=
      digest(schedule_sfq(sys, full))) {
    return "sfq fast-forward schedule differs from the full run";
  }
  const FixedYield yields = fixed_three_quarters();
  const DvqCycleSchedule dc = schedule_dvq_cyclic(sys, yields, DvqOptions{});
  DvqOptions dfull;
  dfull.cycle_detect = false;
  if (digest(dc.materialize(dc.makespan().raw_ticks() / kTicksPerSlot + 1)) !=
      digest(schedule_dvq(sys, yields, dfull))) {
    return "dvq fast-forward schedule differs from the full run";
  }
  return "";
}

}  // namespace perfbench
