#include "obs/probe.hpp"

namespace pfair {

void SchedProbe::attach_metrics(MetricsRegistry& reg) {
  publish();         // owed to the previous registry, if any
  tally_ = Tally{};  // counted before any registry was attached
  reg_ = &reg;
  invocations_ = &reg.counter(sched_metrics::kInvocations);
  placements_ = &reg.counter(sched_metrics::kPlacements);
  preemptions_ = &reg.counter(sched_metrics::kPreemptions);
  migrations_ = &reg.counter(sched_metrics::kMigrations);
  idle_quanta_ = &reg.counter(sched_metrics::kIdleQuanta);
  deadline_misses_ = &reg.counter(sched_metrics::kDeadlineMisses);
  ready_size_ = &reg.histogram(sched_metrics::kReadySetSize);
  tardiness_ = &reg.histogram(sched_metrics::kTardinessTicks);
}

void SchedProbe::publish() {
  if (reg_ == nullptr) return;
  invocations_->add(tally_.invocations);
  placements_->add(tally_.placements);
  preemptions_->add(tally_.preemptions);
  migrations_->add(tally_.migrations);
  idle_quanta_->add(tally_.idle_quanta);
  deadline_misses_->add(tally_.deadline_misses);
  ready_size_->merge_from(tally_.ready_size);
  tardiness_->merge_from(tally_.tardiness);
  tally_ = Tally{};
}

}  // namespace pfair
