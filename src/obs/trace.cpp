#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <ostream>
#include <string_view>

#include "core/assert.hpp"
#include "obs/metrics.hpp"

namespace pfair {

namespace {

// Wire names, indexed by enum value.  string_view literals stay
// NUL-terminated, so to_string() hands out their data().
constexpr std::string_view kKindNames[] = {
    "slot_begin", "event_begin", "ready_set",    "compare",
    "place",      "preempt",     "migrate",      "proc_free",
    "proc_idle",  "deadline_hit", "deadline_miss", "audit_finding",
};
constexpr std::string_view kRuleNames[] = {
    "deadline", "bbit", "group_deadline", "weight", "tie",
};
static_assert(std::size(kKindNames) ==
              static_cast<std::size_t>(TraceEventKind::kAuditFinding) + 1);
static_assert(std::size(kRuleNames) ==
              static_cast<std::size_t>(TieRule::kTie) + 1);

template <std::size_t N>
std::string_view name_of(const std::string_view (&names)[N],
                         std::size_t i) {
  return i < N ? names[i] : std::string_view("?");
}

std::string_view kind_name(TraceEventKind k) {
  return name_of(kKindNames, static_cast<std::size_t>(k));
}

std::string_view rule_name(TieRule r) {
  return name_of(kRuleNames, static_cast<std::size_t>(r));
}

// The longest line trace_event_json can produce: every optional field
// present, every integer at its widest, the longest names.  The line
// buffer holds it plus the JSONL newline.
constexpr std::size_t kMaxIntChars = 20;  // "-9223372036854775808"
constexpr std::size_t kMaxLine =
    std::string_view(R"({"k": ")").size() + 13 +  // "audit_finding"
    std::string_view(R"(", "t": )").size() + kMaxIntChars +
    std::string_view(R"(, "task": )").size() + kMaxIntChars +
    std::string_view(R"(, "seq": )").size() + kMaxIntChars +
    std::string_view(R"(, "vs_task": )").size() + kMaxIntChars +
    std::string_view(R"(, "vs_seq": )").size() + kMaxIntChars +
    std::string_view(R"(, "proc": )").size() + kMaxIntChars +
    std::max(std::string_view(R"(, "rule": "")").size() + 14,  // "group_deadline"
             std::string_view(R"(, "aux": )").size() + kMaxIntChars) +
    std::string_view(R"(, "d": )").size() + kMaxIntChars + 1;  // '}'
using LineBuf = std::array<char, kMaxLine + 1>;

// Literals go in with a fixed-length memcpy (the size is a compile-time
// constant), integers with to_chars; nothing allocates.
template <std::size_t N>
char* put(char* out, const char (&lit)[N]) {
  std::memcpy(out, lit, N - 1);
  return out + N - 1;
}

char* put(char* out, std::string_view s) {
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

char* put_int(char* out, std::int64_t v) {
  return std::to_chars(out, out + kMaxIntChars, v).ptr;
}

/// Writes `e` as one JSON object into `buf`; returns the end of the text.
char* format_event(const TraceEvent& e, LineBuf& buf) {
  char* out = put(buf.data(), R"({"k": ")");
  out = put(out, kind_name(e.kind));
  out = put(out, R"(", "t": )");
  out = put_int(out, e.at.raw_ticks());
  if (e.subject.valid()) {
    out = put_int(put(out, R"(, "task": )"), e.subject.task);
    out = put_int(put(out, R"(, "seq": )"), e.subject.seq);
  }
  if (e.other.valid()) {
    out = put_int(put(out, R"(, "vs_task": )"), e.other.task);
    out = put_int(put(out, R"(, "vs_seq": )"), e.other.seq);
  }
  if (e.proc >= 0) out = put_int(put(out, R"(, "proc": )"), e.proc);
  if (e.kind == TraceEventKind::kCompare) {
    out = put(put(out, R"(, "rule": ")"),
              rule_name(static_cast<TieRule>(e.aux)));
    *out++ = '"';
  } else if (e.aux != 0) {
    out = put_int(put(out, R"(, "aux": )"), e.aux);
  }
  if (e.detail != 0) out = put_int(put(out, R"(, "d": )"), e.detail);
  *out++ = '}';
  return out;
}

}  // namespace

const char* to_string(TraceEventKind k) { return kind_name(k).data(); }

const char* to_string(TieRule r) { return rule_name(r).data(); }

RingBufferSink::RingBufferSink(std::size_t capacity) : buf_(capacity) {
  PFAIR_REQUIRE(capacity > 0, "ring buffer capacity must be positive");
}

RingBufferSink::RingBufferSink(std::size_t capacity, MetricsRegistry& reg)
    : RingBufferSink(capacity) {
  drops_ = &reg.counter(obs_metrics::kTraceDropped);
}

void RingBufferSink::on_event(const TraceEvent& e) {
  if (total_ >= buf_.size() && drops_ != nullptr) drops_->add();
  buf_[static_cast<std::size_t>(total_ % buf_.size())] = e;
  ++total_;
}

std::size_t RingBufferSink::size() const {
  return total_ < buf_.size() ? static_cast<std::size_t>(total_)
                              : buf_.size();
}

std::uint64_t RingBufferSink::dropped() const {
  return total_ < buf_.size() ? 0 : total_ - buf_.size();
}

std::vector<TraceEvent> RingBufferSink::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = total_ - n;
  for (std::uint64_t i = first; i < total_; ++i) {
    out.push_back(buf_[static_cast<std::size_t>(i % buf_.size())]);
  }
  return out;
}

std::string trace_event_json(const TraceEvent& e) {
  LineBuf buf;
  return {buf.data(), format_event(e, buf)};
}

void JsonlSink::on_event(const TraceEvent& e) {
  LineBuf buf;
  char* end = format_event(e, buf);
  *end++ = '\n';
  os_->write(buf.data(), end - buf.data());
  ++lines_;
}

}  // namespace pfair
