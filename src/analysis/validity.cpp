#include "analysis/validity.hpp"

#include <span>
#include <sstream>
#include <vector>

#include "core/radix_sort.hpp"
#include "dvq/dvq_cycle.hpp"
#include "sched/compressed_schedule.hpp"

namespace pfair {

const char* to_string(Violation::Kind k) {
  switch (k) {
    case Violation::Kind::kUnscheduled:
      return "unscheduled";
    case Violation::Kind::kBeforeEligible:
      return "before-eligible";
    case Violation::Kind::kDeadlineMiss:
      return "deadline-miss";
    case Violation::Kind::kIntraTaskParallel:
      return "intra-task-parallelism";
    case Violation::Kind::kOverloadedSlot:
      return "overloaded-slot";
    case Violation::Kind::kPrecedence:
      return "precedence";
    case Violation::Kind::kLagBound:
      return "lag-bound";
  }
  return "?";
}

std::string ValidityReport::str(std::size_t max_items) const {
  if (valid()) return "valid";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (std::size_t i = 0; i < violations.size() && i < max_items; ++i) {
    const Violation& v = violations[i];
    os << "\n  [" << to_string(v.kind) << "] " << v.ref << ": " << v.detail;
  }
  if (violations.size() > max_items) os << "\n  ...";
  return os.str();
}

namespace {

void add(ValidityReport& rep, Violation::Kind kind, SubtaskRef ref,
         const std::string& detail) {
  rep.violations.push_back(Violation{kind, ref, detail});
}

// Both checkers read schedules only through placement() — templating
// over the schedule type lets cycle-compressed schedules run the
// identical checks with synthesized placements resolved on demand.
template <class Sched>
ValidityReport check_slot_impl(const TaskSystem& sys, const Sched& sched,
                               std::int64_t tardiness_allowance) {
  ValidityReport rep;
  // Per-slot load: the placed slots are radix-sorted, equal slots forming
  // runs whose lengths are the loads — so memory stays O(subtasks) however
  // far the slots reach.
  std::vector<std::int64_t> slots;
  slots.reserve(static_cast<std::size_t>(sys.total_subtasks()));

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
      slots.push_back(p.slot);
      if (p.slot < sub.eligible) {
        std::ostringstream os;
        os << "slot " << p.slot << " < e = " << sub.eligible;
        add(rep, Violation::Kind::kBeforeEligible, ref, os.str());
      }
      // Completion in the SFQ model is slot + 1.
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

  std::vector<std::int64_t> scratch;
  radix_sort(std::span(slots), scratch, [](std::int64_t x) { return x; });
  for (std::size_t i = 0; i < slots.size();) {
    std::size_t j = i + 1;
    while (j < slots.size() && slots[j] == slots[i]) ++j;
    const auto n = static_cast<std::int64_t>(j - i);
    if (n > sys.processors()) {
      std::ostringstream os;
      os << "slot " << slots[i] << " holds " << n << " subtasks on "
         << sys.processors() << " processors";
      add(rep, Violation::Kind::kOverloadedSlot, SubtaskRef{}, os.str());
    }
    i = j;
  }
  return rep;
}

template <class Sched>
ValidityReport check_dvq_impl(const TaskSystem& sys, const Sched& sched,
                              Time tardiness_allowance) {
  ValidityReport rep;

  // Per-processor occupancy for overlap checking: one counting pass
  // sizes each processor's lane, and all lanes share one exactly-sized
  // flat array (lane p is [lane_at[p], lane_at[p + 1])).
  struct Busy {
    Time start, end;
    SubtaskRef ref;
  };
  const auto procs = static_cast<std::size_t>(sys.processors());
  const auto on_proc = [procs](const DvqPlacement& p) {
    return p.placed && p.proc >= 0 &&
           static_cast<std::size_t>(p.proc) < procs;
  };
  std::vector<std::size_t> lane_at(procs + 1, 0);
  for (std::int32_t k = 0; k < sys.num_tasks(); ++k) {
    for (std::int32_t s = 0; s < sys.task(k).num_subtasks(); ++s) {
      const DvqPlacement p = sched.placement(SubtaskRef{k, s});
      if (on_proc(p)) ++lane_at[static_cast<std::size_t>(p.proc) + 1];
    }
  }
  for (std::size_t i = 1; i <= procs; ++i) lane_at[i] += lane_at[i - 1];
  std::vector<Busy> busy(lane_at[procs]);
  std::vector<std::size_t> fill(lane_at.begin(), lane_at.end() - 1);

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
        // Overlapping execution of one task = illegal parallelism; a
        // non-overlapping but out-of-order start cannot happen with
        // sequence-ordered placements, so report as parallelism.
        add(rep, Violation::Kind::kIntraTaskParallel, ref, os.str());
      }
      prev_completion = p.completion();
      has_prev = true;
      if (on_proc(p)) {
        busy[fill[static_cast<std::size_t>(p.proc)]++] =
            Busy{p.start, p.completion(), ref};
      }
    }
  }

  // No two allocations may overlap on one processor ("overloaded"
  // here means a processor double-booked at some instant).
  std::vector<Busy> scratch;
  for (std::size_t p = 0; p < procs; ++p) {
    const std::span<Busy> lane(busy.data() + lane_at[p],
                               busy.data() + lane_at[p + 1]);
    radix_sort(lane, scratch,
               [](const Busy& b) { return b.start.raw_ticks(); });
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

}  // namespace

ValidityReport check_slot_schedule(const TaskSystem& sys,
                                   const SlotSchedule& sched,
                                   std::int64_t tardiness_allowance) {
  return check_slot_impl(sys, sched, tardiness_allowance);
}

ValidityReport check_slot_schedule(const TaskSystem& sys,
                                   const CycleSchedule& sched,
                                   std::int64_t tardiness_allowance) {
  return check_slot_impl(sys, sched, tardiness_allowance);
}

ValidityReport check_dvq_schedule(const TaskSystem& sys,
                                  const DvqSchedule& sched,
                                  Time tardiness_allowance) {
  return check_dvq_impl(sys, sched, tardiness_allowance);
}

ValidityReport check_dvq_schedule(const TaskSystem& sys,
                                  const DvqCycleSchedule& sched,
                                  Time tardiness_allowance) {
  return check_dvq_impl(sys, sched, tardiness_allowance);
}

}  // namespace pfair
