// Tests for the staggered quantum model (Holman & Anderson), a fixed-
// quantum special case of the DVQ model — Theorem 3 applies to it too.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/tardiness.hpp"
#include "analysis/validity.hpp"
#include "dvq/decision_sink.hpp"
#include "dvq/staggered.hpp"
#include "obs/audit.hpp"
#include "sched/sfq_scheduler.hpp"
#include "workload/generator.hpp"

namespace pfair {
namespace {

// The staggered model's original stand-alone loop, kept here as the
// ground truth for schedule_staggered (which runs on the DVQ engine).
// It walks every processor boundary in time order and rescans all tasks
// at each one: O(slots x M x n), obviously correct.
DvqSchedule staggered_oracle(const TaskSystem& sys, const YieldModel& yields,
                             Policy policy, std::int64_t horizon_limit) {
  const std::int64_t slot_limit =
      horizon_limit > 0 ? horizon_limit : default_horizon(sys);
  const PriorityOrder order(sys, policy);
  DvqSchedule sched(sys);

  const auto n_tasks = static_cast<std::size_t>(sys.num_tasks());
  const auto n_procs = static_cast<std::size_t>(sys.processors());
  std::vector<std::int64_t> head(n_tasks, 0);
  std::vector<Time> pred_completion(n_tasks);
  std::vector<Time> offset(n_procs);
  for (std::size_t k = 0; k < n_procs; ++k) {
    offset[k] = Time::ticks(static_cast<std::int64_t>(k) * kTicksPerSlot /
                            static_cast<std::int64_t>(n_procs));
  }
  std::int64_t remaining = sys.total_subtasks();

  // Slot n, processors 0..M-1: offsets are nondecreasing in k, so this
  // is chronological.  At each boundary the owning processor is idle
  // (its previous quantum has ended) and picks the single
  // highest-priority ready subtask.
  for (std::int64_t n = 0; n < slot_limit && remaining > 0; ++n) {
    for (std::size_t k = 0; k < n_procs && remaining > 0; ++k) {
      const Time t = Time::slots(n) + offset[k];
      SubtaskRef best;
      for (std::size_t j = 0; j < n_tasks; ++j) {
        const Task& task = sys.task(static_cast<std::int64_t>(j));
        const std::int64_t h = head[j];
        if (h >= task.num_subtasks()) continue;
        if (Time::slots(task.subtask(h).eligible) > t) continue;
        if (h > 0 && pred_completion[j] > t) continue;
        const SubtaskRef ref{static_cast<std::int32_t>(j),
                             static_cast<std::int32_t>(h)};
        if (!best.valid() || order.higher(ref, best)) best = ref;
      }
      if (!best.valid()) continue;
      const Time c = yields.checked_cost(sys, best);
      sched.place(best, t, c, static_cast<int>(k));
      const auto j = static_cast<std::size_t>(best.task);
      ++head[j];
      pred_completion[j] = t + c;
      --remaining;
    }
  }
  return sched;
}

TEST(Staggered, SingleProcessorEqualsSfq) {
  // With M = 1 the stagger offset is 0 and every quantum starts on a slot
  // boundary — the schedule must coincide with SFQ's.
  GeneratorConfig cfg;
  cfg.processors = 1;
  cfg.target_util = Rational(1);
  cfg.horizon = 16;
  cfg.seed = 2;
  const TaskSystem sys = generate_periodic(cfg);
  const FullQuantumYield yields;
  const DvqSchedule stag = schedule_staggered(sys, yields);
  const SlotSchedule sfq = schedule_sfq(sys);
  ASSERT_TRUE(stag.complete());
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const SubtaskRef ref{k, s};
      EXPECT_EQ(stag.placement(ref).start,
                Time::slots(sfq.placement(ref).slot));
    }
  }
}

TEST(Staggered, StartsLieOnTheStaggeredGrid) {
  GeneratorConfig cfg;
  cfg.processors = 4;
  cfg.target_util = Rational(4);
  cfg.horizon = 16;
  cfg.seed = 3;
  const TaskSystem sys = generate_periodic(cfg);
  const FullQuantumYield yields;
  const DvqSchedule sched = schedule_staggered(sys, yields);
  ASSERT_TRUE(sched.complete());
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const DvqPlacement& p = sched.placement(SubtaskRef{k, s});
      const std::int64_t offset =
          p.start.raw_ticks() -
          p.start.slot_floor() * kTicksPerSlot;
      EXPECT_EQ(offset, static_cast<std::int64_t>(p.proc) * kTicksPerSlot / 4)
          << "proc " << p.proc;
    }
  }
}

TEST(Staggered, NoSimultaneousDecisions) {
  // The staggered model's purpose: decision instants never coincide
  // across processors (for M not dividing into equal co-incident
  // offsets), spreading bus traffic.
  GeneratorConfig cfg;
  cfg.processors = 4;
  cfg.target_util = Rational(4);
  cfg.horizon = 12;
  cfg.seed = 4;
  const TaskSystem sys = generate_periodic(cfg);
  const FullQuantumYield yields;
  DvqDecisionSink decisions;
  DvqOptions opts;
  opts.trace = &decisions;
  const DvqSchedule sched = schedule_staggered(sys, yields, opts);
  ASSERT_FALSE(decisions.decisions().empty());
  std::map<std::int64_t, int> per_instant;
  for (const DvqDecision& d : decisions.decisions()) {
    // Exactly the processor whose boundary this is was free.
    ASSERT_EQ(d.free_procs.size(), 1u) << "at " << d.at;
    EXPECT_EQ(d.at.raw_ticks() % kTicksPerSlot,
              d.free_procs[0] * kTicksPerSlot / 4);
    ++per_instant[d.at.raw_ticks()];
  }
  for (const auto& [at, n] : per_instant) {
    EXPECT_EQ(n, 1) << "simultaneous decisions at tick " << at;
  }
}

TEST(Staggered, TardinessWithinOneQuantum) {
  // Staggering is a DVQ special case, so Theorem 3's bound applies; with
  // full quanta the stagger itself is the only source of lateness.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 4;
    cfg.target_util = Rational(4);
    cfg.horizon = 20;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const FullQuantumYield yields;
    const DvqSchedule sched = schedule_staggered(sys, yields);
    ASSERT_TRUE(sched.complete()) << "seed " << seed;
    const TardinessSummary sum = measure_tardiness(sys, sched);
    EXPECT_LT(sum.max_ticks, kTicksPerSlot)
        << "seed " << seed << "\n" << sys.summary();
    EXPECT_TRUE(check_dvq_schedule(sys, sched, kQuantum).valid());
  }
}

TEST(Staggered, EarlyYieldsIdleUntilOwnBoundary) {
  // Staggering alone is not work-conserving: a yielded remainder is lost.
  std::vector<Task> tasks;
  tasks.push_back(Task::periodic("T", Weight(2, 2), 2).with_early_release());
  const TaskSystem sys(std::move(tasks), 2);
  const FixedYield yields(Time::ticks(kTicksPerSlot / 2));
  const DvqSchedule sched = schedule_staggered(sys, yields);
  ASSERT_TRUE(sched.complete());
  const DvqPlacement& p0 = sched.placement(SubtaskRef{0, 0});
  const DvqPlacement& p1 = sched.placement(SubtaskRef{0, 1});
  // T_1 on processor 0 at t=0 yields at 0.5; T_2 (eligible at 0) can only
  // start at the next grid point after 0.5 on either processor — 0.5 is
  // exactly processor 1's boundary, so T_2 starts there, not at 0.5001.
  EXPECT_EQ(p0.start, Time::slots(0));
  EXPECT_TRUE(p1.start == Time::slots_frac(0, 1, 2) ||
              p1.start == Time::slots(1))
      << p1.start.str();
}

// schedule_staggered runs on the DVQ engine with per-processor boundary
// offsets; it must reproduce the stand-alone loop exactly — start, cost
// and processor of every subtask — across policies, yield models,
// machine sizes and truncated horizons.
TEST(Staggered, MatchesStandAloneLoop) {
  constexpr int kMachines[] = {1, 2, 7, 16};
  constexpr Policy kPolicies[] = {Policy::kPd2, Policy::kPd, Policy::kEpdf};
  int compared = 0;
  for (int seed = 0; seed < 40; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = kMachines[seed % 4];
    cfg.target_util = seed % 3 == 0
                          ? Rational(cfg.processors)
                          : Rational(cfg.processors) - Rational(1, 3);
    cfg.weights = static_cast<WeightClass>(seed % 4);
    cfg.horizon = 10 + seed % 5 * 3;
    cfg.seed = 500 + static_cast<std::uint64_t>(seed);
    TaskSystem sys = generate_periodic(cfg);
    const auto s = static_cast<std::uint64_t>(seed);
    if (seed % 5 == 1) sys = add_is_jitter(sys, 2, 1, 3, s);
    if (seed % 5 == 2) sys = drop_subtasks(sys, 1, 6, s);
    if (seed % 5 == 3) sys = advance_eligibility(sys, 2, 1, 4, s);

    const FullQuantumYield full;
    const FixedYield three_quarters(kQuantum - Time::slots_frac(0, 3, 4));
    const BernoulliYield bern(s * 31 + 7, 1, 2,
                              Time::ticks(kTicksPerSlot / 4),
                              kQuantum - kTick);
    const YieldModel* models[] = {&full, &three_quarters, &bern};
    const char* model_names[] = {"full", "fixed:3/4", "bern:1/2"};
    for (const Policy policy : kPolicies) {
      for (int y = 0; y < 3; ++y) {
        for (const std::int64_t limit :
             {std::int64_t{0}, default_horizon(sys) / 2}) {
          const DvqSchedule want =
              staggered_oracle(sys, *models[y], policy, limit);
          DvqOptions opts;
          opts.policy = policy;
          opts.horizon_limit = limit;
          const DvqSchedule got = schedule_staggered(sys, *models[y], opts);
          const std::string tag = "seed " + std::to_string(seed) + " M=" +
                                  std::to_string(cfg.processors) + " " +
                                  to_string(policy) + " " + model_names[y] +
                                  " limit " + std::to_string(limit);
          for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
            for (std::int32_t q = 0; q < sys.task(k).num_subtasks(); ++q) {
              const SubtaskRef ref{k, q};
              const DvqPlacement& a = want.placement(ref);
              const DvqPlacement& b = got.placement(ref);
              ASSERT_EQ(a.placed, b.placed) << tag << " " << ref;
              ASSERT_EQ(a.start, b.start) << tag << " " << ref;
              ASSERT_EQ(a.cost, b.cost) << tag << " " << ref;
              ASSERT_EQ(a.proc, b.proc) << tag << " " << ref;
            }
          }
          ASSERT_EQ(want.makespan(), got.makespan()) << tag;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 40 * 3 * 3 * 2);
}

// Staggered runs are observable like any DVQ run: the auditor infers the
// DVQ model from the event stream and applies the one-quantum allowance.
TEST(Staggered, AuditsCleanUnderEarlyYields) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GeneratorConfig cfg;
    cfg.processors = 3;
    cfg.target_util = Rational(3);
    cfg.horizon = 18;
    cfg.seed = seed;
    const TaskSystem sys = generate_periodic(cfg);
    const BernoulliYield yields(seed, 1, 2, Time::ticks(kTicksPerSlot / 4),
                                kQuantum - kTick);
    InvariantAuditor auditor(sys);
    DvqOptions opts;
    opts.trace = &auditor;
    const DvqSchedule sched = schedule_staggered(sys, yields, opts);
    ASSERT_TRUE(sched.complete()) << "seed " << seed;
    EXPECT_STREQ(auditor.model(), "dvq");
    EXPECT_TRUE(auditor.clean()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pfair
