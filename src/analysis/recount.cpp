#include "analysis/recount.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/assert.hpp"
#include "core/radix_sort.hpp"
#include "core/time.hpp"

namespace pfair {

namespace {

// One placement for switch counting: 16 B, so the cell array and its
// radix scratch stay at 32 B per subtask.
struct ProcCell {
  std::int64_t at;
  std::int32_t proc;
  std::int32_t task;
};

// Context switches from placements alone: walk the placements in time
// order with each processor's last occupant; every change of occupant
// is one switch (idle gaps do not reset the previous occupant).  This
// counts the same adjacent pairs as sorting by (processor, time).
// Takes `cells` by value (moved in): its buffer is freed on return.
void count_switches(std::vector<ProcCell> cells, QualityCounters& q) {
  std::vector<ProcCell> scratch;
  radix_sort(std::span(cells), scratch,
             [](const ProcCell& c) { return c.at; });
  const std::size_t procs = q.per_proc_switches.size();
  std::vector<std::int32_t> last(procs, -1);
  for (const ProcCell& c : cells) {
    PFAIR_REQUIRE(c.proc >= 0 && static_cast<std::size_t>(c.proc) < procs,
                  "quality recount: placement on processor " << c.proc
                      << " outside 0.." << procs - 1);
    const auto p = static_cast<std::size_t>(c.proc);
    if (last[p] >= 0 && last[p] != c.task) {
      ++q.context_switches;
      ++q.per_proc_switches[p];
    }
    last[p] = c.task;
  }
}

}  // namespace

QualityCounters recount_quality(const TaskSystem& sys,
                                const SlotSchedule& sched) {
  PFAIR_REQUIRE(sched.complete(), "quality recount requires a complete "
                                  "schedule");
  QualityCounters q;
  const std::int64_t procs = sys.processors();
  q.resize_procs(static_cast<std::size_t>(procs));
  // The simulator steps one decision per slot and stops the step after
  // the last placement.
  q.decision_points = sched.horizon();
  std::int64_t placed_total = 0;
  std::vector<ProcCell> cells;
  cells.reserve(static_cast<std::size_t>(sys.total_subtasks()));
  for (std::int64_t k = 0; k < sched.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    SlotPlacement prev;
    for (std::int64_t s = 0; s < sched.num_subtasks(k); ++s) {
      const SubtaskRef ref{static_cast<std::int32_t>(k),
                           static_cast<std::int32_t>(s)};
      const SlotPlacement pl = sched.placement(ref);
      ++placed_total;
      cells.push_back(
          ProcCell{pl.slot, pl.proc, static_cast<std::int32_t>(k)});
      if (s > 0) {
        if (prev.proc != pl.proc) ++q.migrations;
        // The task ran at prev.slot, its next subtask was ready at
        // prev.slot + 1 (eligible, predecessor done) but did not run
        // there: one preemption, charged at that slot.  Later waiting
        // slots are not re-charged — the incremental path only considers
        // the previous slot's occupants.
        if (pl.slot > prev.slot + 1 &&
            task.eligible_at(s) <= prev.slot + 1) {
          ++q.preemptions;
        }
      }
      prev = pl;
    }
  }
  q.idle_slots = q.decision_points * procs - placed_total;
  count_switches(std::move(cells), q);
  return q;
}

QualityCounters recount_quality(const TaskSystem& sys,
                                const DvqSchedule& sched) {
  PFAIR_REQUIRE(sched.complete(), "quality recount requires a complete "
                                  "schedule");
  QualityCounters q;
  const std::int64_t procs = sys.processors();
  q.resize_procs(static_cast<std::size_t>(procs));

  // Gather (readiness, start, end) per subtask in ticks, reproducing the
  // simulator's readiness rule: max of the slot-aligned eligibility and
  // the predecessor's completion.  Migrations and preemptions fall out
  // of the per-task scan directly: a preemption is a subtask that was
  // ready the instant its predecessor completed (eligibility already
  // passed) yet starts strictly later.
  const auto total = static_cast<std::size_t>(sys.total_subtasks());
  std::vector<std::int64_t> readies;
  std::vector<std::int64_t> starts;
  std::vector<std::int64_t> ends;
  std::vector<ProcCell> cells;
  readies.reserve(total);
  starts.reserve(total);
  ends.reserve(total);
  cells.reserve(total);
  for (std::int64_t k = 0; k < sched.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    std::int64_t prev_end = 0;
    int prev_proc = -1;
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
      cells.push_back(ProcCell{start, pl.proc, static_cast<std::int32_t>(k)});
      if (s > 0) {
        if (prev_proc != pl.proc) ++q.migrations;
        if (start > prev_end && elig <= prev_end) ++q.preemptions;
      }
      prev_end = pl.completion().raw_ticks();
      prev_proc = pl.proc;
    }
  }
  count_switches(std::move(cells), q);
  if (starts.empty()) return q;

  std::vector<std::int64_t> scratch;
  for (std::vector<std::int64_t>* v : {&readies, &starts, &ends}) {
    radix_sort(std::span(*v), scratch, [](std::int64_t x) { return x; });
  }

  // Decision instants: every readiness instant, plus every completion at
  // or before the last start (the simulator stops once all work is
  // placed, so later completions are never stepped) — a linear merge of
  // the sorted readies and ends, duplicates collapsed.
  //
  // One sweep, three monotone cursors, for decision points and idle
  // capacity.  At each instant t (before that instant's dispatch):
  // busy = started strictly before t and not yet completed; placed =
  // the batch dispatched exactly at t.  Every free processor the batch
  // leaves unfilled idles for this decision instant.
  const std::int64_t t_last = starts.back();
  std::size_t i_ready = 0;     // merge cursor over readies
  std::size_t i_end = 0;       // merge cursor over ends <= t_last
  std::size_t i_start_lt = 0;  // start < t
  std::size_t i_start_le = 0;  // start <= t
  std::size_t i_end_le = 0;    // completion <= t
  for (;;) {
    const bool has_ready = i_ready < readies.size();
    const bool has_end = i_end < ends.size() && ends[i_end] <= t_last;
    if (!has_ready && !has_end) break;
    const std::int64_t t =
        has_ready && (!has_end || readies[i_ready] <= ends[i_end])
            ? readies[i_ready]
            : ends[i_end];
    while (i_ready < readies.size() && readies[i_ready] == t) ++i_ready;
    while (i_end < ends.size() && ends[i_end] == t) ++i_end;

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
    if (free0 <= 0) continue;  // readiness event with every CPU busy
    const std::int64_t placed = static_cast<std::int64_t>(i_start_le) -
                                static_cast<std::int64_t>(i_start_lt);
    if (placed < free0) q.idle_slots += free0 - placed;
  }
  return q;
}

}  // namespace pfair
