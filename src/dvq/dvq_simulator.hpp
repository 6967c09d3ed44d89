// Stepwise DVQ simulation — the event-granularity counterpart of
// SfqSimulator.  One `step()` processes the next event instant: it
// retires completions, computes the new ready set, and hands every free
// processor to the highest-priority ready subtask (work-conserving,
// Sec. 3).  `schedule_dvq` is implemented on top of this class, keeping
// the batch and incremental paths behaviourally identical.
//
// Per-event cost is O(changes), not O(tasks): the old bag of bare
// timestamps (one duplicate push per processor completion and per
// readiness advance) is replaced by two exact queues — completions
// keyed (time, processor) and pending readiness keyed (time, subtask),
// each unique by construction — plus a free-processor min-heap and a
// ready heap ordered by packed 64-bit priority keys (see
// sched/packed_key.hpp).  A decision touches only the processors that
// completed, the subtasks that became ready, and the winners it places.
// Schedules are bit-identical to the retained naive reference
// (`schedule_dvq_reference`).
//
// There is one decision body.  With a probe (trace sink or metrics) or
// quality counters attached, it additionally reports each processor it
// retires, and after dispatch the instant's outcome at O(placements)
// cost: ready-heap size, placements, the boundary between the last
// placement and the heap's best waiting entry, preemptions and idle
// capacity.  Attaching observers never changes which code places
// subtasks.
//
// The staggered model (dvq/staggered.hpp) runs on the same engine: with
// `staggered` set, processor k's quantum boundaries sit at n + k/M
// slots, a processor is free only at its own boundaries (a quantum that
// ends early leaves it waiting for the next one), and one left idle at
// a boundary waits for the next.
#pragma once

#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "dvq/dvq_schedule.hpp"
#include "dvq/yield.hpp"
#include "obs/probe.hpp"
#include "sched/packed_key.hpp"
#include "sched/priority.hpp"
#include "sched/ready_queue.hpp"

namespace pfair {

struct DvqOptions;       // dvq/dvq_scheduler.hpp
struct QualityCounters;  // obs/quality.hpp

/// Incremental event-driven DVQ scheduler.  The task system and yield
/// model must outlive the simulator.
class DvqSimulator {
 public:
  /// With `arena`, the working state (key tables, ready heap, event
  /// queues, per-task/per-processor records) is bump-allocated there
  /// (the arena must be fresh or reset and outlive the simulator).
  /// `staggered`: processor k decides only at n + floor(k * 2^20 / M)
  /// ticks, n = 0, 1, 2, ... (see the header note).
  DvqSimulator(const TaskSystem& sys, const YieldModel& yields,
               Policy policy = Policy::kPd2, Arena* arena = nullptr,
               bool staggered = false);

  /// True once every subtask has been placed (no events can remain that
  /// would place more work).
  [[nodiscard]] bool done() const { return remaining_ == 0; }
  /// The instant of the most recently processed event (Time() initially).
  [[nodiscard]] Time now() const { return now_; }
  /// Whether any event is pending (false also implies nothing more can
  /// be scheduled — on a complete run, after done()).
  [[nodiscard]] bool has_events() const {
    return !completions_.empty() || !pending_.empty();
  }

  /// Processes the next event instant; returns the subtasks started
  /// there (possibly none — e.g. a completion with nothing ready).
  std::vector<SubtaskRef> step();

  /// Runs until done() or the event queue drains or `time_limit` is
  /// reached (events at or beyond the limit are not processed).
  void run_until(Time time_limit);

  /// Processors currently idle (valid between steps; a staggered
  /// processor waiting for its next boundary is not idle).
  [[nodiscard]] std::vector<int> idle_processors() const;

  /// The system being scheduled.
  [[nodiscard]] const TaskSystem& system() const { return *sys_; }
  /// Raw per-task / per-processor state, for cycle fingerprints
  /// (dvq/dvq_cycle.hpp).
  [[nodiscard]] std::int64_t head_of(std::int64_t task) const {
    return head_[static_cast<std::size_t>(task)];
  }
  [[nodiscard]] Time ready_time_of(std::int64_t task) const {
    return ready_at_[static_cast<std::size_t>(task)];
  }
  [[nodiscard]] bool proc_busy(std::int64_t proc) const {
    return procs_[static_cast<std::size_t>(proc)].busy;
  }
  [[nodiscard]] Time proc_busy_until(std::int64_t proc) const {
    return procs_[static_cast<std::size_t>(proc)].busy_until;
  }
  /// True iff built for the staggered model.
  [[nodiscard]] bool staggered() const { return min_hold_ > Time(); }

  /// Fast-forwards `cycles` repetitions of a steady-state cycle of
  /// `cycle_slots` slots detected at slot boundary `boundary_slot` (all
  /// events < boundary processed, none at or after), in which task k
  /// starts exactly `cycle_allocs[k]` subtasks.  Counters and event
  /// times jump by the cycle length; the pending/ready partition is
  /// rebuilt relative to the shifted boundary.  Callers
  /// (dvq/dvq_cycle.cpp) must have proved the recurrence via
  /// fingerprints.  Requires an unobserved, non-staggered simulator.
  void warp(std::int64_t cycles, std::int64_t cycle_slots,
            const std::vector<std::int64_t>& cycle_allocs,
            std::int64_t boundary_slot);

  [[nodiscard]] const DvqSchedule& schedule() const { return sched_; }
  [[nodiscard]] DvqSchedule take_schedule() && { return std::move(sched_); }

  /// Installs a structured trace sink (not owned; null uninstalls).  A
  /// traced run places every subtask identically.  To collect a
  /// per-instant decision log, install a DvqDecisionSink (see
  /// dvq/decision_sink.hpp).  The sink's first decision reports every
  /// processor already free as kProcFree; later ones report each
  /// processor as it retires.
  void set_trace_sink(TraceSink* sink) {
    probe_.set_sink(sink);
    announce_free_ = true;
  }
  /// Accumulates sched.* metrics (see obs/probe.hpp) into `reg`, which
  /// must outlive the simulator; they land there at the end of every
  /// step() / run_until() call.
  void attach_metrics(MetricsRegistry& reg) { probe_.attach_metrics(reg); }
  /// Accumulates scheduler-quality counters (obs/quality.hpp) into `q`
  /// incrementally, one O(changes) update per event, from the same
  /// outcome report the probe reads — placements are unaffected.  Must be attached before the first
  /// step; `q` must outlive the simulator.  analysis/recount.hpp
  /// recomputes the same numbers offline.
  void set_quality(QualityCounters* q);

 private:
  /// The earliest unprocessed event instant; requires has_events().
  [[nodiscard]] Time next_event_time() const;

  // One event instant's decisions appended into `started` (not cleared;
  // reused as a scratch buffer by run_until).
  void step_into(std::vector<SubtaskRef>& started);
  // The O(changes) event body: retires completions, drains readiness,
  // dispatches.  kTraced reports each retired processor as it goes.
  template <bool kTraced>
  void step_fast(std::vector<SubtaskRef>& started, Time t);
  // Reports one instant's outcome to the probe and the quality
  // counters: `free0` is the free-processor count before dispatch,
  // `started[base..)` the placements made at `t` (already committed).
  void note_decision(Time t, std::size_t free0,
                     const std::vector<SubtaskRef>& started,
                     std::size_t base);
  // Staggered model: re-arms every processor left idle at its boundary
  // `t` for its next one.
  void park_idle(Time t);

  // Bookkeeping for one placement at instant `t`: records the
  // placement, books the processor's release, and enqueues the
  // successor's readiness.
  void commit_placement(const SubtaskRef& ref, Time t, int proc);

  const TaskSystem* sys_;
  const YieldModel* yields_;
  PriorityOrder order_;
  PackedKeys keys_;
  ReadyQueue ready_q_;
  SchedProbe probe_;
  DvqSchedule sched_;

  struct Proc {
    bool busy = false;  // not free (staggered: includes waiting)
    Time busy_until;    // when it is free again
  };
  ArenaVector<Proc> procs_;
  ArenaVector<std::int64_t> head_;
  ArenaVector<Time> ready_at_;

  // Exact event queues (min-heaps via std::push_heap/pop_heap): one
  // completion per busy processor, one pending entry per task awaiting
  // its head's readiness instant — no duplicate timestamps anywhere.
  struct Completion {
    Time at;
    std::int32_t proc;
  };
  struct Pending {
    Time at;
    SubtaskRef ref;
  };
  ArenaVector<Completion> completions_;
  ArenaVector<Pending> pending_;
  ArenaVector<std::int32_t> free_procs_;  // min-heap of idle processors

  std::vector<SubtaskRef> scratch_started_;
  Time now_;
  std::int64_t remaining_;
  // Shortest time a placement holds its processor: zero (DVQ, free at
  // completion) or one quantum (staggered, free at the next boundary).
  Time min_hold_;
  // The installed sink has not yet been told which processors are free.
  bool announce_free_ = false;

  // Quality accounting (null = off): the task each processor last ran.
  QualityCounters* quality_ = nullptr;
  std::vector<std::int32_t> proc_task_;
};

}  // namespace pfair
