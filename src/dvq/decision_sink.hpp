// Reconstructs the classic per-instant `DvqDecision` log from the
// structured trace-event stream.
//
// Install a DvqDecisionSink as the trace sink (or behind a TeeSink).
// One decision spans the events between two kEventBegin boundaries; it
// is committed on flush() (end of the simulator step) and only if at
// least one subtask started.  The sink tracks the free-processor set
// itself: kProcFree adds a processor, kPlace takes it, and a staggered
// kProcIdle (aux = 1) parks every idle one until its next boundary.  A
// decision's free_procs is that set when the ready set is reported, and
// its left_ready is the boundary event's unplaced side.
//
// Two storage modes: appended into an external `DvqSchedule` (read back
// via `DvqSchedule::decisions()`), or — with the default constructor —
// into the sink's own log, read back via `decisions()`.
#pragma once

#include <vector>

#include "dvq/dvq_schedule.hpp"
#include "obs/trace.hpp"

namespace pfair {

class DvqDecisionSink final : public TraceSink {
 public:
  /// Owns its decision log; read it back via decisions().
  DvqDecisionSink() = default;
  /// Appends into `sched` (which must outlive the sink) via
  /// `DvqSchedule::log_decision`.
  explicit DvqDecisionSink(DvqSchedule& sched) : sched_(&sched) {}

  void on_event(const TraceEvent& e) override;
  void flush() override;

  /// The decisions committed so far (own-storage mode only; empty when
  /// bound to an external schedule).
  [[nodiscard]] const std::vector<DvqDecision>& decisions() const {
    return own_;
  }

 private:
  DvqSchedule* sched_ = nullptr;
  std::vector<DvqDecision> own_;
  DvqDecision cur_;
  std::vector<int> free_;  // free processors, ascending
};

}  // namespace pfair
