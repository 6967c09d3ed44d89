// Horizon-independent memory of the post-run analyses.
//
// check_slot_schedule, check_dvq_schedule and both recount_quality
// overloads order placements with radix passes over O(subtasks) arrays;
// nothing they allocate may scale with how far the schedule reaches in
// time.  This test builds complete, valid schedules whose slots reach
// about 2^40, replaces global operator new with a byte-counting version,
// and pins the bytes each analysis allocates to c * subtasks + O(M).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "analysis/recount.hpp"
#include "analysis/validity.hpp"
#include "dvq/dvq_schedule.hpp"
#include "sched/schedule.hpp"
#include "tasks/task.hpp"
#include "tasks/task_system.hpp"
#include "tasks/weight.hpp"

namespace {
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, n) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

// Replacements are per-binary: this file gets its own test executable.
void* operator new(std::size_t n) { return counted_alloc(n, sizeof(void*)); }
void* operator new[](std::size_t n) { return counted_alloc(n, sizeof(void*)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pfair {
namespace {

constexpr int kProcs = 4;
constexpr std::int64_t kTasks = 16;
constexpr std::int64_t kJobs = 512;  // subtasks per task
// Per-subtask budget: the largest analysis (the DVQ recount) keeps three
// tick arrays, the 16-byte switch cells and their radix scratch, and one
// tick scratch — 64 bytes a subtask allocated in total.
constexpr std::uint64_t kBytesPerSubtask = 64;
constexpr std::uint64_t kBytesPerProc = 256;
constexpr std::uint64_t kSlack = 16 * 1024;

// kTasks tasks of weight 1/period, kJobs subtasks each.  Subtask i of
// task k runs in slot i * period + k on processor k % kProcs: inside its
// window, one subtask per slot, so the schedule is valid and complete.
TaskSystem make_system(std::int64_t period) {
  std::vector<Task> tasks;
  for (std::int64_t k = 0; k < kTasks; ++k) {
    tasks.push_back(Task::periodic("T" + std::to_string(k), Weight(1, period),
                                   kJobs * period));
  }
  return TaskSystem(std::move(tasks), kProcs);
}

SlotSchedule slot_schedule(const TaskSystem& sys, std::int64_t period) {
  SlotSchedule s(sys);
  for (std::int32_t k = 0; k < kTasks; ++k) {
    for (std::int32_t i = 0; i < kJobs; ++i) {
      s.place(SubtaskRef{k, i}, i * period + k, k % kProcs);
    }
  }
  return s;
}

DvqSchedule dvq_schedule(const TaskSystem& sys, std::int64_t period) {
  DvqSchedule s(sys);
  const Time cost = Time::slots_frac(0, 3, 4);
  for (std::int32_t k = 0; k < kTasks; ++k) {
    for (std::int32_t i = 0; i < kJobs; ++i) {
      s.place(SubtaskRef{k, i}, Time::slots(i * period + k), cost,
              k % kProcs);
    }
  }
  return s;
}

struct Cost {
  std::uint64_t slot_validity, slot_recount, dvq_validity, dvq_recount;
};

template <class F>
std::uint64_t bytes_of(F&& f) {
  const std::uint64_t before = g_bytes.load();
  f();
  return g_bytes.load() - before;
}

Cost measure(std::int64_t period) {
  const TaskSystem sys = make_system(period);
  const SlotSchedule ss = slot_schedule(sys, period);
  const DvqSchedule ds = dvq_schedule(sys, period);
  EXPECT_TRUE(ss.complete());
  EXPECT_TRUE(ds.complete());
  EXPECT_GE(ss.horizon(), (kJobs - 1) * period);
  Cost c{};
  c.slot_validity = bytes_of([&] {
    const ValidityReport rep = check_slot_schedule(sys, ss);
    EXPECT_TRUE(rep.valid()) << rep.str();
  });
  c.slot_recount = bytes_of([&] {
    const QualityCounters q = recount_quality(sys, ss);
    EXPECT_EQ(q.decision_points, ss.horizon());
  });
  c.dvq_validity = bytes_of([&] {
    const ValidityReport rep = check_dvq_schedule(sys, ds);
    EXPECT_TRUE(rep.valid()) << rep.str();
  });
  c.dvq_recount = bytes_of([&] {
    const QualityCounters q = recount_quality(sys, ds);
    EXPECT_GT(q.decision_points, 0);
  });
  return c;
}

TEST(AnalysisMemory, BoundedBySubtasksNotHorizon) {
  constexpr std::uint64_t kSubtasks = kTasks * kJobs;
  constexpr std::uint64_t kBudget =
      kBytesPerSubtask * kSubtasks + kBytesPerProc * kProcs + kSlack;
  // Slots reach ~2^40 (ticks ~2^60 in the DVQ schedule).
  const Cost huge = measure(std::int64_t{1} << 31);
  EXPECT_LE(huge.slot_validity, kBudget);
  EXPECT_LE(huge.slot_recount, kBudget);
  EXPECT_LE(huge.dvq_validity, kBudget);
  EXPECT_LE(huge.dvq_recount, kBudget);

  // The same placement pattern over a ~2^13-slot horizon costs the same,
  // except the SFQ slot-load tally, which counts per slot while the
  // horizon is within the subtask count — and stays inside the budget.
  const Cost small = measure(16);
  EXPECT_LE(small.slot_validity, kBudget);
  EXPECT_EQ(huge.slot_recount, small.slot_recount);
  EXPECT_EQ(huge.dvq_validity, small.dvq_validity);
  EXPECT_EQ(huge.dvq_recount, small.dvq_recount);
}

}  // namespace
}  // namespace pfair
