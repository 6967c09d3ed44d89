// Offline recount of the scheduler-quality counters (obs/quality.hpp)
// from a finished schedule — an O(schedule) oracle for the incremental
// accounting both simulators perform per decision.
//
// The recount derives every number from the placements alone (plus the
// task system's eligibility times), replaying the decision-instant
// structure the simulator walked: slot boundaries for SFQ, the distinct
// readiness/completion instants for DVQ.  By construction it is
// path-independent, so
//   incremental (fast path) == incremental (instrumented path) == recount
// is asserted in tests/prof_test.cpp across policies and workloads, and
// `pfairsim --profile` re-verifies it on every run.
//
// Both overloads require a *complete* schedule (every subtask placed) —
// a truncated run's counters depend on where the horizon cut it — with
// every placement on one of the system's processors.
//
// Cost is linear in the number of subtasks: placements are ordered by
// stable radix passes (core/radix_sort.hpp), the DVQ decision instants
// are a linear merge of the sorted readiness and completion instants,
// and memory is O(subtasks + M), independent of how far the schedule
// reaches in time.
#pragma once

#include "dvq/dvq_schedule.hpp"
#include "obs/quality.hpp"
#include "sched/schedule.hpp"

namespace pfair {

/// Recounts quality for an SFQ (slot-synchronous) schedule:
/// decision_points = horizon (one decision per slot), idle =
/// horizon x M - placements, preemptions from consecutive-placement
/// gaps with a ready successor, switches from per-processor placement
/// order.
[[nodiscard]] QualityCounters recount_quality(const TaskSystem& sys,
                                              const SlotSchedule& sched);

/// Recounts quality for a DVQ (event-driven) schedule by sweeping the
/// distinct decision instants — every subtask-readiness instant plus
/// every completion instant up to the last start.
[[nodiscard]] QualityCounters recount_quality(const TaskSystem& sys,
                                              const DvqSchedule& sched);

}  // namespace pfair
