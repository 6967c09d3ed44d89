#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace prof = pfair::prof;

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  // Calibrate the profiler's clock now, not inside the first span.
  (void)prof::ns_per_tick();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::begin_request(std::int64_t id) {
  request_ = id;
  self_ns_.clear();
  total_ns_.clear();
}

void Tracer::end_request(double wall_ns) {
  requests_.push_back({request_, wall_ns});
}

double Tracer::request_total_ns(const std::string& name) const {
  const auto it = total_ns_.find(name);
  return it == total_ns_.end() ? 0.0 : it->second;
}

void Tracer::close(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, const prof::ProfileSnapshot& snap,
                   ChildMap map) {
  const auto parent = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, request_, -1, start_ns, end_ns, 0});
  double children_ns = 0;
  if (map != nullptr) {
    for (const prof::ProfileSnapshot::PhaseEntry& ph : snap.phases) {
      const char* child = map(ph.phase);
      if (child == nullptr) continue;
      children_ns += ph.self_ns;
      self_ns_[child] += ph.self_ns;
      spans_.push_back({child, request_, parent, -1, -1,
                        static_cast<std::int64_t>(ph.self_ns)});
    }
  }
  const double self = static_cast<double>(end_ns - start_ns) - children_ns;
  spans_[static_cast<std::size_t>(parent)].self_ns =
      static_cast<std::int64_t>(self);
  self_ns_[name] += self;
  total_ns_[name] += static_cast<double>(end_ns - start_ns);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  for (const RequestRecord& r : requests_) {
    f << R"({"type": "request", "request": )" << r.id
      << R"(, "wall_ns": )" << static_cast<std::int64_t>(r.wall_ns) << "}\n";
  }
  for (const SpanRecord& s : spans_) {
    f << R"({"type": ")" << (s.parent < 0 ? "span" : "phase")
      << R"(", "name": ")" << s.name << R"(", "request": )" << s.request
      << R"(, "parent": )" << s.parent << R"(, "start_ns": )" << s.start_ns
      << R"(, "end_ns": )" << s.end_ns << R"(, "self_ns": )" << s.self_ns
      << "}\n";
  }
  if (!f) throw std::runtime_error("short write to " + path);
}

Span::Span(Tracer* t, const char* name, ChildMap map)
    : tracer_(t), name_(name), map_(map) {
  if (tracer_ == nullptr) return;
  profiler_.emplace(0);
  scope_.emplace(&*profiler_);
  start_ns_ = tracer_->now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->now_ns();
  scope_.reset();
  tracer_->close(name_, start_ns_, end, profiler_->snapshot(), map_);
}

}  // namespace perfbench
