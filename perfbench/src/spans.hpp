// The benchmark's own tracing: one span around each public call a
// request makes, with the program's prof::Profiler attached underneath
// for the library's sub-phases (ready heap, calendar walk, DVQ events,
// fingerprints, ...).  Spans are kept in memory and written as JSONL
// when the run ends.
//
// A span's self time is its duration minus the sub-phases it hands to
// named child metrics; sub-phases without a name stay in the parent.
// With no tracer a span does nothing at all: no clock read, no
// profiler, so untraced runs time the bare pipeline.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/prof.hpp"

namespace perfbench {

/// Maps a library sub-phase seen under a span to a child metric name,
/// or nullptr to leave its time in the parent.
using ChildMap = const char* (*)(pfair::prof::Phase);

struct SpanRecord {
  const char* name = "";
  std::int64_t request = -1;
  std::int32_t parent = -1;  ///< index into Tracer::spans(); -1 = request
  std::int64_t start_ns = 0;  ///< since the tracer's epoch; -1 for sub-phases
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  Tracer();

  void begin_request(std::int64_t id);
  /// Closes the request; `wall_ns` is its timed host time.
  void end_request(double wall_ns);

  /// Self time per metric name of the current (or last) request.
  [[nodiscard]] const std::map<std::string, double>& request_self_ns() const {
    return self_ns_;
  }
  /// Total duration of the spans named `name` in the current request.
  [[nodiscard]] double request_total_ns(const std::string& name) const;

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Writes every span and request as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  friend class Span;
  [[nodiscard]] std::int64_t now_ns() const;
  void close(const char* name, std::int64_t start_ns, std::int64_t end_ns,
             const pfair::prof::ProfileSnapshot& snap, ChildMap map);

  struct RequestRecord {
    std::int64_t id = 0;
    double wall_ns = 0;
  };

  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<RequestRecord> requests_;
  std::int64_t request_ = -1;
  std::map<std::string, double> self_ns_;
  std::map<std::string, double> total_ns_;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* t, const char* name, ChildMap map = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  ChildMap map_;
  std::int64_t start_ns_ = 0;
  std::optional<pfair::prof::Profiler> profiler_;
  std::optional<pfair::prof::ProfScope> scope_;
};

}  // namespace perfbench
