// Tests for switching/migration accounting.
#include <gtest/gtest.h>

#include "analysis/switching.hpp"
#include "dvq/dvq_scheduler.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

// ------------------------------------------------------------- switching

TEST(Switching, HandBuiltSlotSchedule) {
  // Task A (1/1) on alternating processors; task B (absent).
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(4, 4), 4).with_early_release());
  const TaskSystem sys(std::move(tasks), 2);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  sched.place(SubtaskRef{0, 1}, 1, 1);  // migration
  sched.place(SubtaskRef{0, 2}, 2, 1);
  sched.place(SubtaskRef{0, 3}, 4, 0);  // migration + job break (gap)
  const SwitchingStats st = measure_switching(sys, sched);
  EXPECT_EQ(st.subtasks, 4);
  EXPECT_EQ(st.migrations, 2);
  EXPECT_EQ(st.job_breaks, 1);
  // Each processor only ever ran task A: no context switches.
  EXPECT_EQ(st.context_switches, 0);
}

TEST(Switching, ContextSwitchesCountOccupantChanges) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(1, 2), 4));
  tasks.push_back(Task::periodic("B", Weight(1, 2), 4));
  const TaskSystem sys(std::move(tasks), 1);
  SlotSchedule sched(sys);
  sched.place(SubtaskRef{0, 0}, 0, 0);
  sched.place(SubtaskRef{1, 0}, 1, 0);  // A -> B
  sched.place(SubtaskRef{0, 1}, 2, 0);  // B -> A
  sched.place(SubtaskRef{1, 1}, 3, 0);  // A -> B
  const SwitchingStats st = measure_switching(sys, sched);
  EXPECT_EQ(st.context_switches, 3);
  EXPECT_EQ(st.migrations, 0);
}

TEST(Switching, DvqBackToBackIsNoBreak) {
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("A", Weight(2, 2), 2).with_early_release());
  const TaskSystem sys(std::move(tasks), 1);
  const FixedYield yields(Time::ticks(kTicksPerSlot / 2));
  const DvqSchedule dvq = schedule_dvq(sys, yields);
  const SwitchingStats st = measure_switching(sys, dvq);
  EXPECT_EQ(st.migrations, 0);
  EXPECT_EQ(st.job_breaks, 0);  // T_2 starts the instant T_1 yields
}

TEST(Switching, DvqReducesJobBreaksVsSfq) {
  // With early release and early yields, DVQ runs a job's subtasks
  // back-to-back where SFQ must wait for the next boundary.
  GeneratorConfig cfg;
  cfg.processors = 2;
  cfg.target_util = Rational(2);
  cfg.weights = WeightClass::kHeavy;
  cfg.horizon = 20;
  cfg.seed = 12;
  const TaskSystem sys = generate_periodic(cfg).with_early_release();
  const FixedYield yields(Time::ticks(kTicksPerSlot / 2));
  const SwitchingStats sfq = measure_switching(sys, schedule_sfq(sys));
  const SwitchingStats dvq =
      measure_switching(sys, schedule_dvq(sys, yields));
  EXPECT_EQ(sfq.subtasks, dvq.subtasks);
  EXPECT_LE(dvq.job_breaks, sfq.job_breaks);
}

}  // namespace
}  // namespace pfair
