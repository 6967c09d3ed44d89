// Tests for the observability layer: trace sinks, metrics, and the
// guarantee that instrumentation never changes a schedule.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "core/thread_pool.hpp"
#include "dvq/decision_sink.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/paper_figures.hpp"

namespace pfair {
namespace {

TraceEvent make_event(std::int64_t detail) {
  TraceEvent e;
  e.kind = TraceEventKind::kReadySet;
  e.at = Time::slots(detail);
  e.detail = detail;
  return e;
}

TEST(RingBufferSink, KeepsNewestAndCountsDrops) {
  RingBufferSink sink(4);
  for (std::int64_t i = 0; i < 10; ++i) sink.on_event(make_event(i));
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const std::vector<TraceEvent> got = sink.snapshot();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].detail, static_cast<std::int64_t>(6 + i));
  }
}

TEST(RingBufferSink, PartialFill) {
  RingBufferSink sink(8);
  for (std::int64_t i = 0; i < 3; ++i) sink.on_event(make_event(i));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
  const std::vector<TraceEvent> got = sink.snapshot();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.front().detail, 0);
  EXPECT_EQ(got.back().detail, 2);
}

TEST(JsonlSink, OneParsableObjectPerLine) {
  std::ostringstream os;
  JsonlSink sink(os);
  const TaskSystem sys = fig6_system();
  SfqOptions opts;
  opts.trace = &sink;
  (void)schedule_sfq(sys, opts);
  EXPECT_GT(sink.lines(), 0u);

  std::istringstream in(os.str());
  std::string line;
  std::uint64_t n = 0;
  std::uint64_t places = 0;
  while (std::getline(in, line)) {
    ++n;
    const JsonValue v = parse_json(line);
    ASSERT_TRUE(v.is(JsonValue::Kind::kObject)) << line;
    ASSERT_NE(v.find("k"), nullptr) << line;
    ASSERT_NE(v.find("t"), nullptr) << line;
    if (v.at("k").string == "place") ++places;
  }
  EXPECT_EQ(n, sink.lines());
  // Every subtask of the feasible Fig. 6 system is placed exactly once.
  EXPECT_EQ(places, static_cast<std::uint64_t>(sys.total_subtasks()));
}

TEST(JsonlSink, DvqPlaceEventsMatchPlacements) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 8));
  std::ostringstream os;
  JsonlSink sink(os);
  DvqOptions opts;
  opts.trace = &sink;
  const DvqSchedule sched = schedule_dvq(sc.system, *sc.yields, opts);

  std::int64_t placed = 0;
  for (std::int32_t k = 0; k < sc.system.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sc.system.task(k).num_subtasks(); ++s) {
      if (sched.placement(SubtaskRef{k, s}).placed) ++placed;
    }
  }
  std::istringstream in(os.str());
  std::string line;
  std::int64_t places = 0;
  while (std::getline(in, line)) {
    if (parse_json(line).at("k").string == "place") ++places;
  }
  EXPECT_EQ(places, placed);
}

TEST(Metrics, CounterSumsStripesAcrossThreads) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.count");
  constexpr std::int64_t kN = 20000;
  global_pool().parallel_for(
      0, kN, [&](std::int64_t) { c.add(); }, 64);
  EXPECT_EQ(c.value(), kN);
  EXPECT_EQ(reg.snapshot().counter_or("test.count"), kN);
}

TEST(Metrics, HistogramShape) {
  Histogram h;
  h.add(0);
  h.add(1);
  h.add(5);
  h.add(1024);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1030);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1024);
  EXPECT_EQ(h.bucket(0), 1);   // x <= 0
  EXPECT_EQ(h.bucket(1), 1);   // 1
  EXPECT_EQ(h.bucket(3), 1);   // 4..7
  EXPECT_EQ(h.bucket(11), 1);  // 1024..2047
}

TEST(Metrics, HistogramEdgeCases) {
  Histogram h;
  h.add(0);
  h.add(-5);  // negatives share bucket 0 with zero
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 0);

  // Powers of two land in the bucket of their bit-width: 2^(b-1) is the
  // smallest value in bucket b.
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  EXPECT_EQ(h.bucket(1), 1);  // {1}
  EXPECT_EQ(h.bucket(2), 2);  // {2, 3}
  EXPECT_EQ(h.bucket(3), 1);  // {4}

  // INT64_MAX has bit-width 63 and must not overflow the bucket array.
  h.add(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.bucket(63), 1);
  EXPECT_EQ(h.max(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.count(), 7);
}

TEST(Metrics, HistogramConcurrentAddsSumExactly) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("conc");
  constexpr std::int64_t kN = 20000;
  global_pool().parallel_for(
      0, kN, [&](std::int64_t i) { h.add(i % 7); }, 64);
  EXPECT_EQ(h.count(), kN);
  std::int64_t expected_sum = 0;
  for (std::int64_t i = 0; i < kN; ++i) expected_sum += i % 7;
  EXPECT_EQ(h.sum(), expected_sum);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 6);
  // Bucket totals across all stripes reconcile with the count.
  std::int64_t bucketed = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) bucketed += h.bucket(b);
  EXPECT_EQ(bucketed, kN);
}

TEST(Metrics, RegistryHandlesAreStableAndSnapshotSerializes) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  EXPECT_EQ(&a, &reg.counter("a"));
  a.add(3);
  reg.gauge("g").set(7);
  reg.histogram("h").add(42);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 3);
  EXPECT_EQ(snap.gauges.at("g"), 7);
  EXPECT_EQ(snap.histograms.at("h").count, 1);

  const JsonValue v = parse_json(metrics_to_json(snap, 2));
  EXPECT_EQ(v.at("counters").at("a").integer, 3);
  EXPECT_EQ(v.at("gauges").at("g").integer, 7);
  EXPECT_EQ(v.at("histograms").at("h").at("count").integer, 1);
}

TEST(Metrics, ScopeTimerRecordsOneSample) {
  MetricsRegistry reg;
  {
    ScopeTimer t(reg, "timed.ns");
  }
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.histograms.at("timed.ns").count, 1);
  EXPECT_GE(snap.histograms.at("timed.ns").min, 0);
}

TEST(Probe, DisabledProbeIsInert) {
  SchedProbe probe;
  EXPECT_FALSE(probe.enabled());
  // None of these may touch memory or crash without a sink/registry.
  probe.begin_decision(TraceEventKind::kSlotBegin, Time::slots(0));
  probe.place(Time::slots(0), SubtaskRef{0, 0}, 0, 0);
  probe.end_decision();
}

TEST(SfqSimulator, TracingDoesNotChangeTheSchedule) {
  const TaskSystem sys = fig6_system();
  const SlotSchedule plain = schedule_sfq(sys);

  RingBufferSink sink(1 << 16);
  MetricsRegistry reg;
  SfqOptions opts;
  opts.trace = &sink;
  opts.metrics = &reg;
  const SlotSchedule traced = schedule_sfq(sys, opts);

  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      EXPECT_EQ(plain.placement(ref).slot, traced.placement(ref).slot);
      EXPECT_EQ(plain.placement(ref).proc, traced.placement(ref).proc);
    }
  }
  EXPECT_GT(sink.total(), 0u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_GT(snap.counter_or(sched_metrics::kInvocations), 0);
  EXPECT_EQ(snap.counter_or(sched_metrics::kPlacements),
            sys.total_subtasks());
}

TEST(DvqSimulator, TracingDoesNotChangeTheSchedule) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 8));
  const DvqSchedule plain = schedule_dvq(sc.system, *sc.yields);

  RingBufferSink sink(1 << 16);
  MetricsRegistry reg;
  DvqOptions opts;
  opts.trace = &sink;
  opts.metrics = &reg;
  const DvqSchedule traced = schedule_dvq(sc.system, *sc.yields, opts);

  for (std::int32_t k = 0; k < sc.system.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sc.system.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const DvqPlacement& a = plain.placement(ref);
      const DvqPlacement& b = traced.placement(ref);
      EXPECT_EQ(a.placed, b.placed);
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.cost, b.cost);
      EXPECT_EQ(a.proc, b.proc);
    }
  }
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_GT(snap.counter_or(sched_metrics::kInvocations), 0);
  EXPECT_GT(snap.counter_or(sched_metrics::kMigrations), 0);
}

// DvqDecisionSink must produce the identical decision log in
// own-storage mode, alone or teed alongside another sink.
TEST(DvqSimulator, DecisionSinkOwnStorageMatchesScheduleBound) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 8));

  DvqSchedule bound_sched(sc.system);
  DvqDecisionSink bound(bound_sched);
  DvqOptions legacy;
  legacy.trace = &bound;
  const DvqSchedule base = schedule_dvq(sc.system, *sc.yields, legacy);
  ASSERT_FALSE(bound_sched.decisions().empty());

  DvqDecisionSink own;
  RingBufferSink ring(1 << 16);
  TeeSink tee(&own, &ring);
  DvqOptions both;
  both.trace = &tee;
  const DvqSchedule mixed = schedule_dvq(sc.system, *sc.yields, both);
  EXPECT_GT(ring.total(), 0u);
  for (std::int32_t k = 0; k < sc.system.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sc.system.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      EXPECT_EQ(base.placement(ref).start, mixed.placement(ref).start);
    }
  }

  ASSERT_EQ(bound_sched.decisions().size(), own.decisions().size());
  for (std::size_t i = 0; i < own.decisions().size(); ++i) {
    const DvqDecision& x = bound_sched.decisions()[i];
    const DvqDecision& y = own.decisions()[i];
    EXPECT_EQ(x.at, y.at);
    EXPECT_EQ(x.free_procs, y.free_procs);
    EXPECT_EQ(x.started, y.started);
    EXPECT_EQ(x.left_ready, y.left_ready);
  }
}

TEST(TraceEventJson, RoundTripsThroughTheParser) {
  TraceEvent e;
  e.kind = TraceEventKind::kPlace;
  e.proc = 1;
  e.at = Time::slots(3);
  e.subject = SubtaskRef{2, 4};
  e.detail = 7;
  const JsonValue v = parse_json(trace_event_json(e));
  EXPECT_EQ(v.at("k").string, "place");
  EXPECT_EQ(v.at("proc").integer, 1);
  EXPECT_EQ(v.at("task").integer, 2);
  EXPECT_EQ(v.at("seq").integer, 4);
  EXPECT_EQ(v.at("d").integer, 7);
}

TraceEvent golden_event(TraceEventKind kind, std::int64_t ticks,
                        SubtaskRef subject = {}, SubtaskRef other = {},
                        int proc = -1, std::int32_t aux = 0,
                        std::int64_t detail = 0) {
  TraceEvent e;
  e.kind = kind;
  e.at = Time::ticks(ticks);
  e.subject = subject;
  e.other = other;
  e.proc = proc;
  e.aux = aux;
  e.detail = detail;
  return e;
}

// The JSONL wire format, byte for byte: pfairtrace, capture bundles and
// every committed trace file depend on it.
TEST(TraceEventJson, GoldenBytesForEveryKind) {
  using K = TraceEventKind;
  const std::pair<TraceEvent, const char*> cases[] = {
      {golden_event(K::kSlotBegin, 0), R"({"k": "slot_begin", "t": 0})"},
      {golden_event(K::kEventBegin, 1536),
       R"({"k": "event_begin", "t": 1536})"},
      {golden_event(K::kReadySet, 7, {}, {}, -1, 0, 12),
       R"({"k": "ready_set", "t": 7, "d": 12})"},
      {golden_event(K::kCompare, 5, {2, 4}, {0, 1}, -1,
                    static_cast<std::int32_t>(TieRule::kBBit)),
       R"({"k": "compare", "t": 5, "task": 2, "seq": 4, "vs_task": 0, )"
       R"("vs_seq": 1, "rule": "bbit"})"},
      {golden_event(K::kPlace, 1048576, {1, 0}, {}, 0, 0, 1024),
       R"({"k": "place", "t": 1048576, "task": 1, "seq": 0, "proc": 0, )"
       R"("d": 1024})"},
      {golden_event(K::kPreempt, 9, {3, 11}, {}, 3),
       R"({"k": "preempt", "t": 9, "task": 3, "seq": 11, "proc": 3})"},
      {golden_event(K::kMigrate, 10, {0, 2}, {}, 2, 1),
       R"({"k": "migrate", "t": 10, "task": 0, "seq": 2, "proc": 2, )"
       R"("aux": 1})"},
      {golden_event(K::kProcFree, 11, {}, {}, 1),
       R"({"k": "proc_free", "t": 11, "proc": 1})"},
      {golden_event(K::kProcIdle, 12, {}, {}, -1, 1, 2),
       R"({"k": "proc_idle", "t": 12, "aux": 1, "d": 2})"},
      {golden_event(K::kDeadlineHit, 13, {4, 5}),
       R"({"k": "deadline_hit", "t": 13, "task": 4, "seq": 5})"},
      {golden_event(K::kDeadlineMiss, 14, {4, 6}, {}, -1, 0, 256),
       R"({"k": "deadline_miss", "t": 14, "task": 4, "seq": 6, "d": 256})"},
      {golden_event(K::kAuditFinding, 15, {6, 7}, {}, -1, 3, -5),
       R"({"k": "audit_finding", "t": 15, "task": 6, "seq": 7, "aux": 3, )"
       R"("d": -5})"},
  };
  for (const auto& [e, want] : cases) {
    EXPECT_EQ(trace_event_json(e), want) << to_string(e.kind);
  }
}

TEST(TraceEventJson, GoldenBytesForEveryTieRule) {
  const std::pair<TieRule, const char*> rules[] = {
      {TieRule::kDeadline, "deadline"},
      {TieRule::kBBit, "bbit"},
      {TieRule::kGroupDeadline, "group_deadline"},
      {TieRule::kWeight, "weight"},
      {TieRule::kTie, "tie"},
  };
  for (const auto& [rule, name] : rules) {
    const TraceEvent e =
        golden_event(TraceEventKind::kCompare, 3, {1, 2}, {3, 4}, -1,
                     static_cast<std::int32_t>(rule));
    EXPECT_EQ(trace_event_json(e),
              std::string(R"({"k": "compare", "t": 3, "task": 1, "seq": 2, )"
                          R"("vs_task": 3, "vs_seq": 4, "rule": ")") +
                  name + "\"}");
  }
  // An out-of-range rule index still serializes (as "?").
  EXPECT_EQ(trace_event_json(
                golden_event(TraceEventKind::kCompare, 0, {}, {}, -1, 5)),
            R"({"k": "compare", "t": 0, "rule": "?"})");
}

TEST(TraceEventJson, GoldenBytesForEdgeFields) {
  using K = TraceEventKind;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<TraceEvent, const char*> cases[] = {
      // A half-valid ref is invalid: neither field is written.
      {golden_event(K::kPlace, 1, {0, -1}, {-1, 3}, 0),
       R"({"k": "place", "t": 1, "proc": 0})"},
      {golden_event(K::kPlace, 1, {-1, -1}, {}, -1),
       R"({"k": "place", "t": 1})"},
      {golden_event(K::kCompare, 2, {5, 0}, {0, -1}),
       R"({"k": "compare", "t": 2, "task": 5, "seq": 0, "rule": "deadline"})"},
      {golden_event(K::kMigrate, 3, {}, {}, 7, -2),
       R"({"k": "migrate", "t": 3, "proc": 7, "aux": -2})"},
      {golden_event(K::kAuditFinding, 4, {}, {}, -1,
                    std::numeric_limits<std::int32_t>::min(), -1),
       R"({"k": "audit_finding", "t": 4, "aux": -2147483648, "d": -1})"},
      {golden_event(K::kReadySet, -1048576, {}, {}, -1, 0, kMin),
       R"({"k": "ready_set", "t": -1048576, "d": -9223372036854775808})"},
      {golden_event(K::kReadySet, kMax, {2147483647, 2147483647},
                    {2147483647, 0}, 2147483647, 2147483647, kMax),
       R"({"k": "ready_set", "t": 9223372036854775807, "task": 2147483647, )"
       R"("seq": 2147483647, "vs_task": 2147483647, "vs_seq": 0, )"
       R"("proc": 2147483647, "aux": 2147483647, )"
       R"("d": 9223372036854775807})"},
  };
  for (const auto& [e, want] : cases) {
    EXPECT_EQ(trace_event_json(e), want) << to_string(e.kind);
  }
}

// Records every event, for comparing a JSONL stream
// against the serialization of the same event sequence.
class RecordingSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& e) override { events.push_back(e); }
  std::vector<TraceEvent> events;
};

std::string joined_lines(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) out += trace_event_json(e) + '\n';
  return out;
}

TEST(JsonlSink, SfqStreamIsTheJoinedEventLines) {
  std::ostringstream os;
  JsonlSink jsonl(os);
  RecordingSink rec;
  TeeSink tee(&rec, &jsonl);
  SfqOptions opts;
  opts.trace = &tee;
  (void)schedule_sfq(fig6_system(), opts);
  ASSERT_GT(rec.events.size(), 0u);
  EXPECT_EQ(jsonl.lines(), rec.events.size());
  EXPECT_EQ(os.str(), joined_lines(rec.events));
}

TEST(JsonlSink, DvqStreamIsTheJoinedEventLines) {
  const FigureScenario sc = fig2_scenario(Time::ticks(kTicksPerSlot / 8));
  std::ostringstream os;
  JsonlSink jsonl(os);
  RecordingSink rec;
  TeeSink tee(&rec, &jsonl);
  DvqOptions opts;
  opts.trace = &tee;
  (void)schedule_dvq(sc.system, *sc.yields, opts);
  ASSERT_GT(rec.events.size(), 0u);
  EXPECT_EQ(jsonl.lines(), rec.events.size());
  EXPECT_EQ(os.str(), joined_lines(rec.events));
}

}  // namespace
}  // namespace pfair
