// SchedProbe — the single instrumentation point the simulators carry.
//
// A probe bundles an optional TraceSink with optional pre-resolved
// metric handles.  Hooks are inline; `enabled()` lets the simulators
// skip reporting a decision's outcome altogether in one test.  Every
// hook is fed from the one O(changes) decision body — ready-set sizes
// come from the ready heap, the decision boundary from its best
// unplaced entry — so metrics and traces describe the production path.  Metrics are tallied in plain
// per-probe integers (no atomic read-modify-write per event) and folded
// into the registry by publish(), which the simulators call at the end
// of every step()/run_until(); registry names are resolved once, when
// metrics are attached.
//
// Preemption, as both simulators (and the quality counters of
// obs/quality.hpp) count it: SFQ — a task placed in the previous slot,
// still ready, and not placed in this one; DVQ — a subtask that starts
// strictly after its predecessor completed although it was already
// eligible at that completion.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pfair {

/// Metric names used by `SchedProbe::attach_metrics`.
namespace sched_metrics {
inline constexpr const char* kInvocations = "sched.invocations";
inline constexpr const char* kPlacements = "sched.placements";
inline constexpr const char* kPreemptions = "sched.preemptions";
inline constexpr const char* kMigrations = "sched.migrations";
inline constexpr const char* kIdleQuanta = "sched.idle_quanta";
inline constexpr const char* kDeadlineMisses = "sched.deadline_misses";
inline constexpr const char* kReadySetSize = "sched.ready_set_size";
inline constexpr const char* kTardinessTicks = "sched.tardiness_ticks";
}  // namespace sched_metrics

class SchedProbe {
 public:
  SchedProbe() = default;

  /// Installs `sink` (null uninstalls).
  void set_sink(TraceSink* sink) { sink_ = sink; }
  /// Resolves the sched.* metric names in `reg` (stable handles).
  void attach_metrics(MetricsRegistry& reg);
  /// Adds the metrics tallied since the last publish to the registry.
  void publish();

  [[nodiscard]] bool tracing() const { return sink_ != nullptr; }
  [[nodiscard]] bool metering() const { return reg_ != nullptr; }
  /// True iff any hook would do work — hot loops branch on this once.
  [[nodiscard]] bool enabled() const { return tracing() || metering(); }

  /// One scheduler invocation (slot boundary / event instant).
  void begin_decision(TraceEventKind kind, Time at, std::int64_t detail = 0) {
    ++tally_.invocations;
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = kind;
      e.at = at;
      e.detail = detail;
      emit(e);
    }
  }
  /// Commits the decision in grouping sinks (see TraceSink::flush).
  void end_decision() {
    if (sink_ != nullptr) sink_->flush();
  }

  void ready_set(Time at, std::int64_t n) {
    if (reg_ != nullptr) tally_.ready_size.add(n);
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kReadySet;
      e.at = at;
      e.detail = n;
      emit(e);
    }
  }

  /// The decision boundary (trace-only): `winner`, the last subtask
  /// placed, beat `loser`, the best one left unplaced, by `rule`.
  void compare_outcome(Time at, const SubtaskRef& winner,
                       const SubtaskRef& loser, TieRule rule) {
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kCompare;
      e.aux = static_cast<std::int32_t>(rule);
      e.at = at;
      e.subject = winner;
      e.other = loser;
      emit(e);
    }
  }

  /// `detail`: slot index (SFQ) or cost in ticks (DVQ).
  void place(Time at, const SubtaskRef& ref, int proc,
             std::int64_t detail) {
    ++tally_.placements;
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kPlace;
      e.proc = proc;
      e.at = at;
      e.subject = ref;
      e.detail = detail;
      emit(e);
    }
  }

  void migrate(Time at, const SubtaskRef& ref, int from, int to) {
    ++tally_.migrations;
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kMigrate;
      e.aux = from;
      e.proc = to;
      e.at = at;
      e.subject = ref;
      emit(e);
    }
  }

  void preempt(Time at, const SubtaskRef& ref) {
    ++tally_.preemptions;
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kPreempt;
      e.at = at;
      e.subject = ref;
      emit(e);
    }
  }

  /// A processor retiring its quantum at a DVQ instant (trace-only).
  void proc_free(Time at, int proc) {
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kProcFree;
      e.proc = proc;
      e.at = at;
      emit(e);
    }
  }

  /// `count` processors left without work after a decision;
  /// `until_boundary`: they wait for their next own quantum boundary
  /// (staggered model) instead of staying free.
  void idle(Time at, std::int64_t count, bool until_boundary = false) {
    tally_.idle_quanta += count;
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kProcIdle;
      e.aux = until_boundary ? 1 : 0;
      e.at = at;
      e.detail = count;
      emit(e);
    }
  }

  /// Deadline outcome of a completed subtask.
  void deadline(Time at, const SubtaskRef& ref,
                std::int64_t tardiness_ticks) {
    if (reg_ != nullptr) tally_.tardiness.add(tardiness_ticks);
    if (tardiness_ticks > 0) ++tally_.deadline_misses;
    if (sink_ != nullptr) {
      TraceEvent e;
      e.kind = tardiness_ticks > 0 ? TraceEventKind::kDeadlineMiss
                                   : TraceEventKind::kDeadlineHit;
      e.at = at;
      e.subject = ref;
      e.detail = tardiness_ticks;
      emit(e);
    }
  }

 private:
  void emit(const TraceEvent& e) { sink_->on_event(e); }

  // Counts since the last publish.  Counters tick even with no registry
  // attached (a plain increment is cheaper than a branch); attaching one
  // drops what was counted before.
  struct Tally {
    std::int64_t invocations = 0;
    std::int64_t placements = 0;
    std::int64_t preemptions = 0;
    std::int64_t migrations = 0;
    std::int64_t idle_quanta = 0;
    std::int64_t deadline_misses = 0;
    HistogramTally ready_size;
    HistogramTally tardiness;
  };

  TraceSink* sink_ = nullptr;
  MetricsRegistry* reg_ = nullptr;
  Tally tally_;
  Counter* invocations_ = nullptr;
  Counter* placements_ = nullptr;
  Counter* preemptions_ = nullptr;
  Counter* migrations_ = nullptr;
  Counter* idle_quanta_ = nullptr;
  Counter* deadline_misses_ = nullptr;
  Histogram* ready_size_ = nullptr;
  Histogram* tardiness_ = nullptr;
};

}  // namespace pfair
