// Structured scheduler trace events — the decision-level record the
// paper's arguments (and the overhead accounting of Nelissen et al.)
// are made of: slot/event boundaries, ready sets, the priority rule that
// separated placed from unplaced work, placements, preemptions,
// migrations and deadline results.
//
// Events are emitted by the simulators into an installed `TraceSink`,
// from the same O(changes) decision body that runs untraced, so a trace
// describes what the production heap did; with no sink installed that
// body skips all trace work (a single predictable branch).  Two sinks ship with the library: a bounded
// in-memory ring buffer (keeps the newest events, counts drops) and a
// streaming JSONL sink (one JSON object per line).  `TeeSink` fans one
// event stream out to two sinks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "tasks/subtask.hpp"

namespace pfair {

class MetricsRegistry;
class Counter;

/// What happened at one instant of a simulated run.
enum class TraceEventKind : std::uint8_t {
  kSlotBegin,     ///< SFQ slot boundary reached (detail = slot index)
  kEventBegin,    ///< DVQ event instant reached
  kReadySet,      ///< ready heap size after readiness drain (detail)
  kCompare,       ///< decision boundary: subject, the last subtask placed,
                  ///< beat other, the best one left unplaced (aux = rule)
  kPlace,         ///< subject placed on proc (detail = cost/slot)
  kPreempt,       ///< subject lost the processor it held (see probe.hpp)
  kMigrate,       ///< subject placed on proc != predecessor's (aux = from)
  kProcFree,      ///< proc retired its quantum at this DVQ instant
  kProcIdle,      ///< capacity left idle after a decision (detail = count;
                  ///< aux = 1: staggered processors that wait for their
                  ///< next own boundary rather than stay free)
  kDeadlineHit,   ///< subject completed by its deadline
  kDeadlineMiss,  ///< subject missed (detail = tardiness in ticks)
  kAuditFinding,  ///< invariant violation (aux = Violation::Kind, detail =
                  ///< finding payload; see obs/audit.hpp)
};

[[nodiscard]] const char* to_string(TraceEventKind k);

/// Which priority rule decided a comparison (see PriorityOrder::compare).
enum class TieRule : std::uint8_t {
  kDeadline,       ///< rule 1: earlier pseudo-deadline
  kBBit,           ///< rule 2: b-bit (PD/PD2) or PF bit string
  kGroupDeadline,  ///< rule 3: later group deadline (PD/PD2)
  kWeight,         ///< PD refinement: heavier weight
  kTie,            ///< genuine tie under the policy (resolved by id)
};

[[nodiscard]] const char* to_string(TieRule r);

/// Metric names published by trace sinks.
namespace obs_metrics {
/// Events overwritten by a full RingBufferSink (truncated trace).
inline constexpr const char* kTraceDropped = "trace.ring_dropped";
}  // namespace obs_metrics

/// One compact, POD trace record.  Fields not meaningful for a given
/// kind keep their defaults.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSlotBegin;
  std::int32_t aux = 0;          ///< rule index / source processor
  int proc = -1;                 ///< processor involved, if any
  Time at;                       ///< instant of the event
  SubtaskRef subject;            ///< primary subtask, if any
  SubtaskRef other;              ///< comparison loser, if any
  std::int64_t detail = 0;       ///< kind-specific payload (see enum)
};

/// Receiver of trace events.  Implementations must tolerate events from
/// a single simulator thread; distinct simulators may use distinct
/// sinks concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
  /// Called at the end of every simulator step (and at end of run) so
  /// sinks that group events per decision can commit.  Default no-op.
  virtual void flush() {}
};

/// Bounded in-memory sink: keeps the `capacity` newest events and
/// counts how many older ones were overwritten.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);
  /// Same, with the drop count additionally published as the
  /// obs_metrics::kTraceDropped counter in `reg` (which must outlive the
  /// sink) so truncated traces are visible in metrics output.
  RingBufferSink(std::size_t capacity, MetricsRegistry& reg);

  void on_event(const TraceEvent& e) override;

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Events overwritten because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Total events ever received.
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> buf_;
  std::uint64_t total_ = 0;  // head_ = total_ % capacity
  Counter* drops_ = nullptr;
};

/// Streaming sink: one JSON object per event, one per line (JSONL).
/// Each line is formatted into a stack buffer and handed to the stream
/// in a single write.  The sink never flushes the stream: lines sit in
/// its buffer until it fills or its owner flushes it, and the owner
/// checks the stream state for write errors.  The stream must outlive
/// the sink.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(&os) {}

  void on_event(const TraceEvent& e) override;

  [[nodiscard]] std::uint64_t lines() const { return lines_; }

 private:
  std::ostream* os_;
  std::uint64_t lines_ = 0;
};

/// Fans events out to two sinks (either may be null).
class TeeSink final : public TraceSink {
 public:
  TeeSink(TraceSink* a, TraceSink* b) : a_(a), b_(b) {}

  void on_event(const TraceEvent& e) override {
    if (a_ != nullptr) a_->on_event(e);
    if (b_ != nullptr) b_->on_event(e);
  }
  void flush() override {
    if (a_ != nullptr) a_->flush();
    if (b_ != nullptr) b_->flush();
  }

 private:
  TraceSink* a_;
  TraceSink* b_;
};

/// Serializes one event as a single-line JSON object (no newline).
[[nodiscard]] std::string trace_event_json(const TraceEvent& e);

}  // namespace pfair
