// Linear-time schedule analysis against its comparison-sort oracles.
//
// check_slot_schedule / check_dvq_schedule / recount_quality order
// placements with stable radix passes (core/radix_sort.hpp).  The
// oracles below are the earlier std::map / std::sort implementations,
// kept here as the ground truth: on random systems under SFQ and DVQ,
// clean and deliberately corrupted, both must produce the identical
// ValidityReport (kinds, refs, detail strings, order) and identical
// QualityCounters.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/recount.hpp"
#include "analysis/validity.hpp"
#include "core/assert.hpp"
#include "core/radix_sort.hpp"
#include "core/rng.hpp"
#include "dvq/dvq_cycle.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "dvq/yield.hpp"
#include "sched/compressed_schedule.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

// ------------------------------------------------------------- oracles

namespace oracle {

void add(ValidityReport& rep, Violation::Kind kind, SubtaskRef ref,
         const std::string& detail) {
  rep.violations.push_back(Violation{kind, ref, detail});
}

template <class Sched>
ValidityReport check_slot(const TaskSystem& sys, const Sched& sched,
                          std::int64_t tardiness_allowance) {
  ValidityReport rep;
  std::map<std::int64_t, std::int64_t> slot_load;

  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    std::int64_t prev_slot = -1;
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const Subtask& sub = task.subtask(s);
      const SlotPlacement p = sched.placement(ref);
      if (!p.scheduled()) {
        add(rep, Violation::Kind::kUnscheduled, ref,
            "never placed (horizon reached?)");
        continue;
      }
      ++slot_load[p.slot];
      if (p.slot < sub.eligible) {
        std::ostringstream os;
        os << "slot " << p.slot << " < e = " << sub.eligible;
        add(rep, Violation::Kind::kBeforeEligible, ref, os.str());
      }
      if (p.slot + 1 > sub.deadline + tardiness_allowance) {
        std::ostringstream os;
        os << "completes at " << p.slot + 1 << " > d = " << sub.deadline
           << " + allowance " << tardiness_allowance;
        add(rep, Violation::Kind::kDeadlineMiss, ref, os.str());
      }
      if (s > 0 && p.slot <= prev_slot) {
        std::ostringstream os;
        if (p.slot == prev_slot) {
          os << "shares slot " << p.slot << " with its predecessor";
          add(rep, Violation::Kind::kIntraTaskParallel, ref, os.str());
        } else {
          os << "slot " << p.slot << " precedes predecessor slot "
             << prev_slot;
          add(rep, Violation::Kind::kPrecedence, ref, os.str());
        }
      }
      prev_slot = p.slot;
    }
  }

  for (const auto& [slot, load] : slot_load) {
    if (load > sys.processors()) {
      std::ostringstream os;
      os << "slot " << slot << " holds " << load << " subtasks on "
         << sys.processors() << " processors";
      add(rep, Violation::Kind::kOverloadedSlot, SubtaskRef{}, os.str());
    }
  }
  return rep;
}

template <class Sched>
ValidityReport check_dvq(const TaskSystem& sys, const Sched& sched,
                         Time tardiness_allowance) {
  ValidityReport rep;
  struct Busy {
    Time start, end;
    SubtaskRef ref;
  };
  std::vector<std::vector<Busy>> per_proc(
      static_cast<std::size_t>(sys.processors()));

  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    Time prev_completion;
    bool has_prev = false;
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      const Subtask& sub = task.subtask(s);
      const DvqPlacement p = sched.placement(ref);
      if (!p.placed) {
        add(rep, Violation::Kind::kUnscheduled, ref,
            "never placed (horizon reached?)");
        continue;
      }
      if (p.start < Time::slots(sub.eligible)) {
        std::ostringstream os;
        os << "starts at " << p.start << " < e = " << sub.eligible;
        add(rep, Violation::Kind::kBeforeEligible, ref, os.str());
      }
      if (p.completion() > Time::slots(sub.deadline) + tardiness_allowance) {
        std::ostringstream os;
        os << "completes at " << p.completion() << " > d = " << sub.deadline
           << " + allowance " << tardiness_allowance;
        add(rep, Violation::Kind::kDeadlineMiss, ref, os.str());
      }
      if (has_prev && p.start < prev_completion) {
        std::ostringstream os;
        os << "starts at " << p.start << " before predecessor completes at "
           << prev_completion;
        add(rep, Violation::Kind::kIntraTaskParallel, ref, os.str());
      }
      prev_completion = p.completion();
      has_prev = true;
      if (p.proc >= 0 &&
          static_cast<std::size_t>(p.proc) < per_proc.size()) {
        per_proc[static_cast<std::size_t>(p.proc)].push_back(
            Busy{p.start, p.completion(), ref});
      }
    }
  }

  for (auto& lane : per_proc) {
    std::sort(lane.begin(), lane.end(),
              [](const Busy& a, const Busy& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < lane.size(); ++i) {
      if (lane[i].start < lane[i - 1].end) {
        std::ostringstream os;
        os << "overlaps " << lane[i - 1].ref << " on processor (starts "
           << lane[i].start << " before " << lane[i - 1].end << ")";
        add(rep, Violation::Kind::kOverloadedSlot, lane[i].ref, os.str());
      }
    }
  }
  return rep;
}

struct ProcCell {
  int proc;
  std::int64_t at;
  std::int32_t task;
};

void count_switches(std::vector<ProcCell>& cells, QualityCounters& q) {
  std::sort(cells.begin(), cells.end(),
            [](const ProcCell& a, const ProcCell& b) {
              return a.proc != b.proc ? a.proc < b.proc : a.at < b.at;
            });
  for (std::size_t i = 1; i < cells.size(); ++i) {
    if (cells[i].proc != cells[i - 1].proc) continue;
    if (cells[i].task == cells[i - 1].task) continue;
    ++q.context_switches;
    ++q.per_proc_switches[static_cast<std::size_t>(cells[i].proc)];
  }
}

QualityCounters recount(const TaskSystem& sys, const SlotSchedule& sched) {
  PFAIR_REQUIRE(sched.complete(), "incomplete");
  QualityCounters q;
  const std::int64_t procs = sys.processors();
  q.resize_procs(static_cast<std::size_t>(procs));
  q.decision_points = sched.horizon();
  std::int64_t placed_total = 0;
  std::vector<ProcCell> cells;
  for (std::int64_t k = 0; k < sched.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int64_t s = 0; s < sched.num_subtasks(k); ++s) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(s)};
      const SlotPlacement pl = sched.placement(ref);
      ++placed_total;
      cells.push_back(
          ProcCell{pl.proc, pl.slot, static_cast<std::int32_t>(k)});
      if (s == 0) continue;
      const SlotPlacement prev =
          sched.placement(SubtaskRef{ref.task, ref.seq - 1});
      if (prev.proc != pl.proc) ++q.migrations;
      if (pl.slot > prev.slot + 1 && task.eligible_at(s) <= prev.slot + 1) {
        ++q.preemptions;
      }
    }
  }
  q.idle_slots = q.decision_points * procs - placed_total;
  count_switches(cells, q);
  return q;
}

QualityCounters recount(const TaskSystem& sys, const DvqSchedule& sched) {
  PFAIR_REQUIRE(sched.complete(), "incomplete");
  QualityCounters q;
  const std::int64_t procs = sys.processors();
  q.resize_procs(static_cast<std::size_t>(procs));
  std::vector<std::int64_t> readies;
  std::vector<std::int64_t> starts;
  std::vector<std::int64_t> ends;
  std::vector<ProcCell> cells;
  for (std::int64_t k = 0; k < sched.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    std::int64_t prev_end = 0;
    for (std::int64_t s = 0; s < sched.num_subtasks(k); ++s) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(s)};
      const DvqPlacement& pl = sched.placement(ref);
      const std::int64_t elig =
          Time::slots(task.eligible_at(s)).raw_ticks();
      const std::int64_t start = pl.start.raw_ticks();
      readies.push_back(s == 0 ? elig : std::max(elig, prev_end));
      starts.push_back(start);
      ends.push_back(pl.completion().raw_ticks());
      cells.push_back(
          ProcCell{pl.proc, start, static_cast<std::int32_t>(k)});
      if (s > 0) {
        if (sched.placement(SubtaskRef{ref.task, ref.seq - 1}).proc !=
            pl.proc) {
          ++q.migrations;
        }
        if (start > prev_end && elig <= prev_end) ++q.preemptions;
      }
      prev_end = pl.completion().raw_ticks();
    }
  }
  count_switches(cells, q);
  if (starts.empty()) return q;

  const std::int64_t t_last =
      *std::max_element(starts.begin(), starts.end());
  std::vector<std::int64_t> instants;
  instants.reserve(readies.size() + ends.size());
  instants.insert(instants.end(), readies.begin(), readies.end());
  for (const std::int64_t e : ends) {
    if (e <= t_last) instants.push_back(e);
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());

  std::sort(readies.begin(), readies.end());
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());

  std::size_t i_start_lt = 0;
  std::size_t i_start_le = 0;
  std::size_t i_end_le = 0;
  for (const std::int64_t t : instants) {
    while (i_start_lt < starts.size() && starts[i_start_lt] < t) {
      ++i_start_lt;
    }
    while (i_start_le < starts.size() && starts[i_start_le] <= t) {
      ++i_start_le;
    }
    while (i_end_le < ends.size() && ends[i_end_le] <= t) ++i_end_le;

    ++q.decision_points;
    const std::int64_t busy = static_cast<std::int64_t>(i_start_lt) -
                              static_cast<std::int64_t>(i_end_le);
    const std::int64_t free0 = procs - busy;
    if (free0 <= 0) continue;
    const std::int64_t placed = static_cast<std::int64_t>(i_start_le) -
                                static_cast<std::int64_t>(i_start_lt);
    if (placed < free0) q.idle_slots += free0 - placed;
  }
  return q;
}

}  // namespace oracle

// ----------------------------------------------------------- radix sort

using Sizes = std::initializer_list<std::size_t>;

struct Item {
  std::int64_t key;
  std::int64_t order;  // input position, to observe stability
};

// Radix-sorts `keys` and compares against std::stable_sort.
void expect_matches_stable_sort(const std::vector<std::int64_t>& keys) {
  std::vector<Item> items;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    items.push_back(Item{keys[i], static_cast<std::int64_t>(i)});
  }
  std::vector<Item> want = items;
  std::stable_sort(want.begin(), want.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });
  std::vector<Item> scratch;
  radix_sort(std::span(items), scratch, [](const Item& x) { return x.key; });
  ASSERT_EQ(items.size(), want.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].key, want[i].key) << "n=" << keys.size() << " i=" << i;
    ASSERT_EQ(items[i].order, want[i].order)
        << "n=" << keys.size() << " i=" << i;
  }
}

std::vector<std::int64_t> random_keys(std::size_t n, std::int64_t lo,
                                      std::int64_t span, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> keys(n);
  for (auto& k : keys) {
    k = lo + static_cast<std::int64_t>(rng.next_u64() %
                                       static_cast<std::uint64_t>(span));
  }
  return keys;
}

TEST(RadixSort, SizesAroundTheInsertionCutoff) {
  for (const std::size_t n : Sizes{0, 1, 2, 63, 64, 65, 1000, 5000}) {
    expect_matches_stable_sort(random_keys(n, -50, 100, 11 + n));
    expect_matches_stable_sort(random_keys(n, 0, std::int64_t{1} << 40, n));
  }
}

TEST(RadixSort, StableOnHeavyDuplicates) {
  for (const std::size_t n : Sizes{40, 300, 4096}) {
    expect_matches_stable_sort(random_keys(n, 7, 3, 5 + n));
  }
}

TEST(RadixSort, NegativeKeys) {
  for (const std::size_t n : Sizes{50, 500}) {
    expect_matches_stable_sort(
        random_keys(n, -(std::int64_t{1} << 35), std::int64_t{1} << 34, n));
  }
}

TEST(RadixSort, FullInt64Span) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::size_t n : Sizes{5, 64, 700}) {
    Rng rng(n);
    std::vector<std::int64_t> keys(n);
    for (auto& k : keys) k = static_cast<std::int64_t>(rng.next_u64());
    keys[0] = kMax;
    keys[n / 2] = kMin;
    keys[n - 1] = kMin;
    keys[1] = 0;
    keys[2] = -1;
    expect_matches_stable_sort(keys);
  }
}

TEST(RadixSort, AllKeysEqual) {
  for (const std::size_t n : Sizes{0, 1, 63, 64, 65, 1000}) {
    expect_matches_stable_sort(std::vector<std::int64_t>(n, -42));
  }
}

TEST(RadixSort, AlreadySortedAndReverseSorted) {
  for (const std::size_t n : Sizes{1, 63, 64, 65, 3000}) {
    std::vector<std::int64_t> up(n);
    for (std::size_t i = 0; i < n; ++i) {
      up[i] = static_cast<std::int64_t>(i) * 1'048'576 - 77;
    }
    expect_matches_stable_sort(up);
    std::vector<std::int64_t> down(up.rbegin(), up.rend());
    expect_matches_stable_sort(down);
  }
}

TEST(RadixSort, ScratchIsReusedAcrossSortsOfDifferentSizes) {
  std::vector<std::int64_t> scratch;
  const auto id = [](std::int64_t x) { return x; };
  std::vector<std::int64_t> big = random_keys(2000, 0, 1 << 20, 3);
  radix_sort(std::span(big), scratch, id);
  EXPECT_TRUE(std::is_sorted(big.begin(), big.end()));
  std::vector<std::int64_t> small = random_keys(100, -9, 1 << 30, 4);
  radix_sort(std::span(small), scratch, id);
  EXPECT_TRUE(std::is_sorted(small.begin(), small.end()));
  EXPECT_EQ(scratch.size(), 2000u);
}

// ------------------------------------------------------- differential

// Random systems in the style of ab_equivalence_test, with long horizons
// on half the seeds so per-slot runs and per-processor lanes exceed the
// radix insertion cutoff.
TaskSystem make_system(int seed) {
  GeneratorConfig cfg;
  cfg.processors = 2 + seed % 5;
  cfg.target_util = Rational(cfg.processors) - Rational(1, 2 + seed % 3);
  cfg.weights = static_cast<WeightClass>(seed % 4);
  cfg.horizon = seed % 2 == 0 ? 12 + (seed % 4) * 8 : 160 + 40 * (seed % 3);
  cfg.seed = 4000 + static_cast<std::uint64_t>(seed);
  TaskSystem sys = generate_periodic(cfg);
  const auto s = static_cast<std::uint64_t>(seed);
  switch (seed % 3) {
    case 1:
      sys = add_is_jitter(sys, 3, 1, 3, s);
      break;
    case 2:
      sys = drop_subtasks(sys, 1, 8, s);
      break;
    default:
      break;
  }
  return sys;
}

struct SlotRec {
  SubtaskRef ref;
  std::int64_t slot;
  int proc;
};

struct DvqRec {
  SubtaskRef ref;
  Time start, cost;
  int proc;
};

std::vector<SlotRec> slot_records(const TaskSystem& sys,
                                  const SlotSchedule& s) {
  std::vector<SlotRec> out;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t q = 0; q < sys.task(k).num_subtasks(); ++q) {
      const SlotPlacement p = s.placement(SubtaskRef{k, q});
      if (p.scheduled()) {
        out.push_back(SlotRec{SubtaskRef{k, q}, p.slot, p.proc});
      }
    }
  }
  return out;
}

std::vector<DvqRec> dvq_records(const TaskSystem& sys, const DvqSchedule& s) {
  std::vector<DvqRec> out;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t q = 0; q < sys.task(k).num_subtasks(); ++q) {
      const DvqPlacement& p = s.placement(SubtaskRef{k, q});
      if (p.placed) {
        out.push_back(DvqRec{SubtaskRef{k, q}, p.start, p.cost, p.proc});
      }
    }
  }
  return out;
}

SlotSchedule build_slot(const TaskSystem& sys,
                        const std::vector<SlotRec>& recs) {
  SlotSchedule out(sys);
  for (const SlotRec& r : recs) out.place(r.ref, r.slot, r.proc);
  return out;
}

DvqSchedule build_dvq(const TaskSystem& sys, const std::vector<DvqRec>& recs) {
  DvqSchedule out(sys);
  for (const DvqRec& r : recs) out.place(r.ref, r.start, r.cost, r.proc);
  return out;
}

enum class Corruption {
  kNone,
  kSwapAcrossWindows,  // first and last subtask trade placements
  kShiftPastAllowance, // one subtask completes one past d + allowance
  kShareProcessor,     // two subtasks on one processor in one slot
  kOverloadSlot,       // more than M subtasks in one slot
  kBadProcessor,       // a placement on processor M (SFQ only)
  kUnplaced,           // one subtask left out
};

constexpr Corruption kAllCorruptions[] = {
    Corruption::kNone,          Corruption::kSwapAcrossWindows,
    Corruption::kShiftPastAllowance,
    Corruption::kShareProcessor, Corruption::kOverloadSlot,
    Corruption::kBadProcessor,  Corruption::kUnplaced};

std::string name(Corruption c) {
  switch (c) {
    case Corruption::kNone: return "clean";
    case Corruption::kSwapAcrossWindows: return "swap";
    case Corruption::kShiftPastAllowance: return "shift";
    case Corruption::kShareProcessor: return "share-proc";
    case Corruption::kOverloadSlot: return "overload";
    case Corruption::kBadProcessor: return "bad-proc";
    case Corruption::kUnplaced: return "unplaced";
  }
  return "?";
}

// Indices of the first placement of `want` distinct tasks, taken from
// positions spread evenly over `recs`.
template <class Rec>
std::vector<std::size_t> distinct_tasks(const std::vector<Rec>& recs,
                                        std::size_t want) {
  std::vector<std::size_t> out;
  std::vector<std::int32_t> seen;
  for (std::size_t i = 0; i < recs.size() && out.size() < want;
       i += 1 + recs.size() / (4 * want + 1)) {
    if (std::find(seen.begin(), seen.end(), recs[i].ref.task) != seen.end()) {
      continue;
    }
    seen.push_back(recs[i].ref.task);
    out.push_back(i);
  }
  return out;
}

void corrupt(const TaskSystem& sys, std::vector<SlotRec>& recs, Corruption c,
             std::int64_t allowance) {
  if (recs.size() < 2) return;
  const int m = sys.processors();
  switch (c) {
    case Corruption::kNone:
      break;
    case Corruption::kSwapAcrossWindows:
      std::swap(recs.front().slot, recs.back().slot);
      std::swap(recs.front().proc, recs.back().proc);
      break;
    case Corruption::kShiftPastAllowance: {
      SlotRec& r = recs[recs.size() / 2];
      r.slot = sys.subtask(r.ref).deadline + allowance;
      break;
    }
    case Corruption::kShareProcessor: {
      const auto idx = distinct_tasks(recs, 2);
      if (idx.size() == 2) {
        recs[idx[1]].slot = recs[idx[0]].slot;
        recs[idx[1]].proc = recs[idx[0]].proc;
      }
      break;
    }
    case Corruption::kOverloadSlot: {
      const auto idx = distinct_tasks(recs, static_cast<std::size_t>(m) + 1);
      for (std::size_t j = 1; j < idx.size(); ++j) {
        recs[idx[j]].slot = recs[idx[0]].slot;
        recs[idx[j]].proc = static_cast<int>(j) % m;
      }
      break;
    }
    case Corruption::kBadProcessor:
      recs[recs.size() / 3].proc = m;
      break;
    case Corruption::kUnplaced:
      recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(recs.size() / 4));
      break;
  }
}

void corrupt(const TaskSystem& sys, std::vector<DvqRec>& recs, Corruption c,
             Time allowance) {
  if (recs.size() < 2) return;
  const int m = sys.processors();
  switch (c) {
    case Corruption::kNone:
    case Corruption::kBadProcessor:  // DvqSchedule::place rejects it
      break;
    case Corruption::kSwapAcrossWindows:
      std::swap(recs.front().start, recs.back().start);
      std::swap(recs.front().proc, recs.back().proc);
      break;
    case Corruption::kShiftPastAllowance: {
      DvqRec& r = recs[recs.size() / 2];
      r.start = Time::slots(sys.subtask(r.ref).deadline) + allowance -
                r.cost + kTick;
      break;
    }
    case Corruption::kShareProcessor: {
      // Starts one tick into the other's quantum: an overlap with
      // distinct start instants.
      const auto idx = distinct_tasks(recs, 2);
      if (idx.size() == 2) {
        recs[idx[1]].start = recs[idx[0]].start + kTick;
        recs[idx[1]].proc = recs[idx[0]].proc;
      }
      break;
    }
    case Corruption::kOverloadSlot: {
      const auto idx = distinct_tasks(recs, static_cast<std::size_t>(m) + 1);
      for (std::size_t j = 1; j < idx.size(); ++j) {
        recs[idx[j]].start =
            recs[idx[0]].start + Time::ticks(static_cast<std::int64_t>(j));
        recs[idx[j]].proc = static_cast<int>(j) % m;
      }
      break;
    }
    case Corruption::kUnplaced:
      recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(recs.size() / 4));
      break;
  }
}

// Switch counting orders placements by (processor, time); two placements
// sharing both make the oracle's std::sort order unspecified.
template <class Rec, class TimeOf>
bool has_proc_time_tie(const std::vector<Rec>& recs, TimeOf time_of) {
  std::vector<std::pair<int, std::int64_t>> keys;
  for (const Rec& r : recs) keys.emplace_back(r.proc, time_of(r));
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) != keys.end();
}

void expect_same_report(const ValidityReport& want, const ValidityReport& got,
                        const std::string& tag) {
  ASSERT_EQ(got.violations.size(), want.violations.size()) << tag;
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    const Violation& w = want.violations[i];
    const Violation& g = got.violations[i];
    EXPECT_EQ(g.kind, w.kind) << tag << " #" << i;
    EXPECT_EQ(g.ref, w.ref) << tag << " #" << i;
    EXPECT_EQ(g.detail, w.detail) << tag << " #" << i;
  }
}

void expect_same_counters(const QualityCounters& want,
                          const QualityCounters& got, bool switches,
                          const std::string& tag) {
  EXPECT_EQ(got.preemptions, want.preemptions) << tag;
  EXPECT_EQ(got.migrations, want.migrations) << tag;
  EXPECT_EQ(got.idle_slots, want.idle_slots) << tag;
  EXPECT_EQ(got.decision_points, want.decision_points) << tag;
  if (switches) {
    EXPECT_EQ(got.context_switches, want.context_switches) << tag;
    EXPECT_EQ(got.per_proc_switches, want.per_proc_switches) << tag;
  }
}

constexpr int kSeeds = 40;

// Every violation kind the corruptions are meant to provoke, so a
// corruption that silently stops biting fails the test.
void expect_kinds_seen(const std::vector<bool>& seen, bool with_precedence,
                       const std::string& model) {
  using K = Violation::Kind;
  for (const K k : {K::kUnscheduled, K::kBeforeEligible, K::kDeadlineMiss,
                    K::kIntraTaskParallel, K::kOverloadedSlot}) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(k)])
        << model << ": no " << to_string(k) << " violation provoked";
  }
  if (with_precedence) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(K::kPrecedence)]) << model;
  }
}

void note_kinds(const ValidityReport& rep, std::vector<bool>& seen) {
  for (const Violation& v : rep.violations) {
    seen[static_cast<std::size_t>(v.kind)] = true;
  }
}

TEST(LinearAnalysis, SfqMatchesOraclesCleanAndCorrupted) {
  std::vector<bool> kinds(8, false);
  int switch_compares = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const TaskSystem sys = make_system(seed);
    SfqOptions opts;
    opts.policy = seed % 2 == 0 ? Policy::kPd2 : Policy::kEpdf;
    const SlotSchedule base = schedule_sfq(sys, opts);
    for (const Corruption c : kAllCorruptions) {
      for (const std::int64_t allowance : {0, 1}) {
        const std::string tag = "seed " + std::to_string(seed) + " " +
                                name(c) + " allowance " +
                                std::to_string(allowance);
        std::vector<SlotRec> recs = slot_records(sys, base);
        corrupt(sys, recs, c, allowance);
        const SlotSchedule sched = build_slot(sys, recs);
        const ValidityReport want = oracle::check_slot(sys, sched, allowance);
        expect_same_report(want,
                           check_slot_schedule(sys, sched, allowance), tag);
        note_kinds(want, kinds);
        if (c == Corruption::kNone) {
          EXPECT_TRUE(want.valid()) << tag << ": " << want.str();
        }

        if (!sched.complete()) {
          EXPECT_THROW((void)recount_quality(sys, sched), ContractViolation);
        } else if (c == Corruption::kBadProcessor) {
          EXPECT_THROW((void)recount_quality(sys, sched), ContractViolation)
              << tag;
        } else {
          const bool tie = has_proc_time_tie(
              recs, [](const SlotRec& r) { return r.slot; });
          expect_same_counters(oracle::recount(sys, sched),
                               recount_quality(sys, sched), !tie, tag);
          switch_compares += tie ? 0 : 1;
        }
      }
    }
  }
  expect_kinds_seen(kinds, true, "sfq");
  EXPECT_GT(switch_compares, kSeeds * 4);
}

TEST(LinearAnalysis, DvqMatchesOraclesCleanAndCorrupted) {
  std::vector<bool> kinds(8, false);
  int switch_compares = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const TaskSystem sys = make_system(seed);
    const BernoulliYield yields(static_cast<std::uint64_t>(seed) * 7919 + 3,
                                1, 2, kTick, kQuantum - kTick);
    DvqOptions opts;
    opts.policy = seed % 2 == 0 ? Policy::kPd2 : Policy::kEpdf;
    const DvqSchedule base = schedule_dvq(sys, yields, opts);
    for (const Corruption c : kAllCorruptions) {
      for (const Time allowance : {Time(), kQuantum}) {
        const std::string tag = "seed " + std::to_string(seed) + " " +
                                name(c) + " allowance " +
                                std::to_string(allowance.raw_ticks());
        std::vector<DvqRec> recs = dvq_records(sys, base);
        corrupt(sys, recs, c, allowance);
        const DvqSchedule sched = build_dvq(sys, recs);
        const ValidityReport want = oracle::check_dvq(sys, sched, allowance);
        expect_same_report(want, check_dvq_schedule(sys, sched, allowance),
                           tag);
        note_kinds(want, kinds);
        if (c == Corruption::kNone && allowance == kQuantum) {
          EXPECT_TRUE(want.valid()) << tag << ": " << want.str();
        }

        if (!sched.complete()) {
          EXPECT_THROW((void)recount_quality(sys, sched), ContractViolation);
        } else {
          const bool tie = has_proc_time_tie(
              recs, [](const DvqRec& r) { return r.start.raw_ticks(); });
          expect_same_counters(oracle::recount(sys, sched),
                               recount_quality(sys, sched), !tie, tag);
          switch_compares += tie ? 0 : 1;
        }
      }
    }
  }
  expect_kinds_seen(kinds, false, "dvq");
  EXPECT_GT(switch_compares, kSeeds * 6);
}

// Slots reaching ~2^40, far more slots than subtasks: the SFQ slot-load
// tally must not depend on the horizon.
TEST(LinearAnalysis, SparseSlotsMatchOracles) {
  constexpr std::int64_t kPeriod = std::int64_t{1} << 31;
  constexpr std::int32_t kJobs = 200;
  std::vector<Task> tasks;
  for (int k = 0; k < 6; ++k) {
    tasks.push_back(Task::periodic("T" + std::to_string(k),
                                   Weight(1, kPeriod), kJobs * kPeriod));
  }
  const TaskSystem sys(std::move(tasks), 2);
  SlotSchedule base(sys);
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t i = 0; i < kJobs; ++i) {
      base.place(SubtaskRef{k, i}, i * kPeriod + k, k % 2);
    }
  }
  ASSERT_GT(base.horizon(), sys.total_subtasks());
  std::vector<bool> kinds(8, false);
  for (const Corruption c : kAllCorruptions) {
    const std::string tag = "sparse " + name(c);
    std::vector<SlotRec> recs = slot_records(sys, base);
    corrupt(sys, recs, c, 0);
    const SlotSchedule sched = build_slot(sys, recs);
    const ValidityReport want = oracle::check_slot(sys, sched, 0);
    expect_same_report(want, check_slot_schedule(sys, sched), tag);
    note_kinds(want, kinds);
    if (sched.complete() && c != Corruption::kBadProcessor &&
        !has_proc_time_tie(recs, [](const SlotRec& r) { return r.slot; })) {
      expect_same_counters(oracle::recount(sys, sched),
                           recount_quality(sys, sched), true, tag);
    }
  }
  // Windows 2^31 slots wide leave no corruption here able to make a
  // subtask share a slot with its predecessor; overloads are the point.
  using K = Violation::Kind;
  EXPECT_TRUE(kinds[static_cast<std::size_t>(K::kOverloadedSlot)]);
  EXPECT_TRUE(kinds[static_cast<std::size_t>(K::kDeadlineMiss)]);
}

// Cycle-compressed schedules: the overloads that resolve placements on
// demand must report exactly what the oracle reports on the
// materialized schedule, engaged or not, complete or truncated.
TaskSystem make_periodic_system(int seed) {
  GeneratorConfig cfg;
  cfg.processors = 1 + seed % 4;
  cfg.target_util = Rational(cfg.processors) - Rational(seed % 2, 3);
  cfg.weights = static_cast<WeightClass>(seed % 4);
  cfg.horizon = 960;
  cfg.seed = 7000 + static_cast<std::uint64_t>(seed);
  return generate_periodic(cfg);
}

TEST(LinearAnalysis, CycleOverloadsMatchMaterializedOracles) {
  int engaged = 0;
  for (int seed = 0; seed < 16; ++seed) {
    const TaskSystem sys = make_periodic_system(seed);
    for (const std::int64_t limit : {std::int64_t{0}, std::int64_t{700}}) {
      const std::string tag =
          "seed " + std::to_string(seed) + " limit " + std::to_string(limit);
      SfqOptions sopts;
      sopts.horizon_limit = limit;
      const CycleSchedule sc = schedule_sfq_cyclic(sys, sopts);
      engaged += sc.stats().engaged ? 1 : 0;
      const SlotSchedule smat = sc.materialize(4 * 960);
      expect_same_report(oracle::check_slot(sys, smat, 0),
                         check_slot_schedule(sys, sc), tag + " sfq");
      if (smat.complete()) {
        expect_same_counters(oracle::recount(sys, smat),
                             recount_quality(sys, smat), true, tag + " sfq");
      }

      const FixedYield y(kQuantum - Time::slots_frac(0, 3, 4));
      DvqOptions dopts;
      dopts.horizon_limit = limit;
      const DvqCycleSchedule dc = schedule_dvq_cyclic(sys, y, dopts);
      engaged += dc.stats().engaged ? 1 : 0;
      const DvqSchedule dmat = dc.materialize(4 * 960);
      expect_same_report(oracle::check_dvq(sys, dmat, kQuantum),
                         check_dvq_schedule(sys, dc, kQuantum), tag + " dvq");
      if (dmat.complete()) {
        expect_same_counters(oracle::recount(sys, dmat),
                             recount_quality(sys, dmat), true, tag + " dvq");
      }
    }
  }
  EXPECT_GT(engaged, 16);
}

}  // namespace
}  // namespace pfair
