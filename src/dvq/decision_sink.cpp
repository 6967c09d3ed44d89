#include "dvq/decision_sink.hpp"

#include <algorithm>

namespace pfair {

void DvqDecisionSink::on_event(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kEventBegin:
      flush();
      cur_.at = e.at;
      break;
    case TraceEventKind::kProcFree: {
      const auto it = std::lower_bound(free_.begin(), free_.end(), e.proc);
      if (it == free_.end() || *it != e.proc) free_.insert(it, e.proc);
      break;
    }
    case TraceEventKind::kReadySet:
      cur_.free_procs = free_;
      break;
    case TraceEventKind::kPlace: {
      cur_.started.push_back(e.subject);
      const auto it = std::lower_bound(free_.begin(), free_.end(), e.proc);
      if (it != free_.end() && *it == e.proc) free_.erase(it);
      break;
    }
    case TraceEventKind::kCompare:
      cur_.left_ready = e.other;
      break;
    case TraceEventKind::kProcIdle:
      if (e.aux != 0) free_.clear();
      break;
    default:
      break;  // deadline/migration/preemption events carry no decision state
  }
}

void DvqDecisionSink::flush() {
  if (!cur_.started.empty()) {
    if (sched_ != nullptr) {
      sched_->log_decision(std::move(cur_));
    } else {
      own_.push_back(std::move(cur_));
    }
  }
  cur_ = DvqDecision{};
}

}  // namespace pfair
