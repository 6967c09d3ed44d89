#include "analysis/tardiness.hpp"

#include <algorithm>

#include "dvq/dvq_cycle.hpp"
#include "sched/compressed_schedule.hpp"

namespace pfair {

std::int64_t subtask_tardiness(const TaskSystem& sys,
                               const SlotSchedule& sched,
                               const SubtaskRef& ref) {
  const Subtask& sub = sys.subtask(ref);
  const std::int64_t completion = sched.completion_slot(ref);
  return std::max<std::int64_t>(0, completion - sub.deadline);
}

std::int64_t subtask_tardiness_ticks(const TaskSystem& sys,
                                     const DvqSchedule& sched,
                                     const SubtaskRef& ref) {
  const Subtask& sub = sys.subtask(ref);
  const DvqPlacement& p = sched.placement(ref);
  PFAIR_REQUIRE(p.placed, "subtask " << ref << " not scheduled");
  const Time late = p.completion() - Time::slots(sub.deadline);
  return std::max<std::int64_t>(0, late.raw_ticks());
}

namespace {

template <class Sched, class TardFn, class PlacedFn>
TardinessSummary measure(const TaskSystem& sys, const Sched& sched,
                         TardFn tard_ticks, PlacedFn placed) {
  TardinessSummary sum;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      ++sum.total_subtasks;
      if (!placed(sched, ref)) {
        ++sum.unscheduled;
        continue;
      }
      const std::int64_t t = tard_ticks(sys, sched, ref);
      if (t > 0) {
        ++sum.late_subtasks;
        sum.total_ticks += t;
        if (t > sum.max_ticks) {
          sum.max_ticks = t;
          sum.worst = ref;
        }
      }
    }
  }
  return sum;
}

}  // namespace

TardinessSummary measure_tardiness(const TaskSystem& sys,
                                   const SlotSchedule& sched) {
  return measure(
      sys, sched,
      [](const TaskSystem& y, const SlotSchedule& c, const SubtaskRef& r) {
        return subtask_tardiness(y, c, r) * kTicksPerSlot;
      },
      [](const SlotSchedule& c, const SubtaskRef& r) {
        return c.placement(r).scheduled();
      });
}

TardinessSummary measure_tardiness(const TaskSystem& sys,
                                   const DvqSchedule& sched) {
  return measure(
      sys, sched,
      [](const TaskSystem& y, const DvqSchedule& c, const SubtaskRef& r) {
        return subtask_tardiness_ticks(y, c, r);
      },
      [](const DvqSchedule& c, const SubtaskRef& r) {
        return c.placement(r).placed;
      });
}

namespace {

template <class Sched, class TardFn, class PlacedFn>
std::vector<std::int64_t> values(const TaskSystem& sys, const Sched& sched,
                                 TardFn tard_ticks, PlacedFn placed) {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(sys.total_subtasks()));
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      if (!placed(sched, ref)) continue;
      out.push_back(tard_ticks(sys, sched, ref));
    }
  }
  return out;
}

}  // namespace

std::vector<std::int64_t> tardiness_values_ticks(const TaskSystem& sys,
                                                 const SlotSchedule& sched) {
  return values(
      sys, sched,
      [](const TaskSystem& y, const SlotSchedule& c, const SubtaskRef& r) {
        return subtask_tardiness(y, c, r) * kTicksPerSlot;
      },
      [](const SlotSchedule& c, const SubtaskRef& r) {
        return c.placement(r).scheduled();
      });
}

std::vector<std::int64_t> tardiness_values_ticks(const TaskSystem& sys,
                                                 const DvqSchedule& sched) {
  return values(
      sys, sched,
      [](const TaskSystem& y, const DvqSchedule& c, const SubtaskRef& r) {
        return subtask_tardiness_ticks(y, c, r);
      },
      [](const DvqSchedule& c, const SubtaskRef& r) {
        return c.placement(r).placed;
      });
}

namespace {

template <class Sched, class TardFn, class PlacedFn>
void record_metrics(const TaskSystem& sys, const Sched& sched,
                    MetricsRegistry& reg, TardFn tard_ticks,
                    PlacedFn placed) {
  std::int64_t max_ticks = 0, unscheduled = 0;
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    const Task& task = sys.task(k);
    HistogramTally per_task;
    for (std::int32_t s = 0; s < task.num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      if (!placed(sched, ref)) {
        ++unscheduled;
        continue;
      }
      const std::int64_t t = tard_ticks(sys, sched, ref);
      per_task.add(t);
      max_ticks = std::max(max_ticks, t);
    }
    reg.histogram("task." + task.name() + ".tardiness_ticks")
        .merge_from(per_task);
  }
  reg.gauge("sched.tardiness_max_ticks").set_max(max_ticks);
  reg.gauge("sched.unscheduled_subtasks").set(unscheduled);
}

}  // namespace

void record_tardiness_metrics(const TaskSystem& sys,
                              const SlotSchedule& sched,
                              MetricsRegistry& reg) {
  record_metrics(
      sys, sched, reg,
      [](const TaskSystem& y, const SlotSchedule& c, const SubtaskRef& r) {
        return subtask_tardiness(y, c, r) * kTicksPerSlot;
      },
      [](const SlotSchedule& c, const SubtaskRef& r) {
        return c.placement(r).scheduled();
      });
}

void record_tardiness_metrics(const TaskSystem& sys,
                              const DvqSchedule& sched,
                              MetricsRegistry& reg) {
  record_metrics(
      sys, sched, reg,
      [](const TaskSystem& y, const DvqSchedule& c, const SubtaskRef& r) {
        return subtask_tardiness_ticks(y, c, r);
      },
      [](const DvqSchedule& c, const SubtaskRef& r) {
        return c.placement(r).placed;
      });
}

std::int64_t subtask_tardiness(const TaskSystem& sys,
                               const CycleSchedule& sched,
                               const SubtaskRef& ref) {
  const Subtask& sub = sys.subtask(ref);
  const std::int64_t completion = sched.completion_slot(ref);
  return std::max<std::int64_t>(0, completion - sub.deadline);
}

std::int64_t subtask_tardiness_ticks(const TaskSystem& sys,
                                     const DvqCycleSchedule& sched,
                                     const SubtaskRef& ref) {
  const Subtask& sub = sys.subtask(ref);
  const DvqPlacement p = sched.placement(ref);
  PFAIR_REQUIRE(p.placed, "subtask " << ref << " not scheduled");
  const Time late = p.completion() - Time::slots(sub.deadline);
  return std::max<std::int64_t>(0, late.raw_ticks());
}

TardinessSummary measure_tardiness(const TaskSystem& sys,
                                   const CycleSchedule& sched) {
  return measure(
      sys, sched,
      [](const TaskSystem& y, const CycleSchedule& c, const SubtaskRef& r) {
        return subtask_tardiness(y, c, r) * kTicksPerSlot;
      },
      [](const CycleSchedule& c, const SubtaskRef& r) {
        return c.placement(r).scheduled();
      });
}

TardinessSummary measure_tardiness(const TaskSystem& sys,
                                   const DvqCycleSchedule& sched) {
  return measure(
      sys, sched,
      [](const TaskSystem& y, const DvqCycleSchedule& c,
         const SubtaskRef& r) { return subtask_tardiness_ticks(y, c, r); },
      [](const DvqCycleSchedule& c, const SubtaskRef& r) {
        return c.placement(r).placed;
      });
}

std::vector<std::int64_t> tardiness_values_ticks(const TaskSystem& sys,
                                                 const CycleSchedule& sched) {
  return values(
      sys, sched,
      [](const TaskSystem& y, const CycleSchedule& c, const SubtaskRef& r) {
        return subtask_tardiness(y, c, r) * kTicksPerSlot;
      },
      [](const CycleSchedule& c, const SubtaskRef& r) {
        return c.placement(r).scheduled();
      });
}

std::vector<std::int64_t> tardiness_values_ticks(
    const TaskSystem& sys, const DvqCycleSchedule& sched) {
  return values(
      sys, sched,
      [](const TaskSystem& y, const DvqCycleSchedule& c,
         const SubtaskRef& r) { return subtask_tardiness_ticks(y, c, r); },
      [](const DvqCycleSchedule& c, const SubtaskRef& r) {
        return c.placement(r).placed;
      });
}

}  // namespace pfair
