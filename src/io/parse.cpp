#include "io/parse.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <numeric>
#include <sstream>

namespace pfair {

namespace {

/// Strips a trailing comment and surrounding whitespace.
std::string clean(std::string line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

std::int64_t parse_int(const std::string& tok, int lineno,
                       const char* what) {
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(tok, &pos);
  } catch (...) {
    pos = 0;
  }
  PFAIR_REQUIRE(pos == tok.size() && !tok.empty(),
                "line " << lineno << ": bad " << what << " '" << tok << "'");
  return v;
}

Weight parse_weight(const std::string& tok, int lineno) {
  const auto slash = tok.find('/');
  PFAIR_REQUIRE(slash != std::string::npos,
                "line " << lineno << ": weight must be e/p, got '" << tok
                        << "'");
  const std::int64_t e = parse_int(tok.substr(0, slash), lineno, "weight");
  const std::int64_t p = parse_int(tok.substr(slash + 1), lineno, "weight");
  PFAIR_REQUIRE(e >= 1 && p >= e,
                "line " << lineno << ": weight " << tok
                        << " outside (0, 1]");
  return Weight(e, p);
}

}  // namespace

ParsedSystem parse_task_file(std::istream& in) {
  // Every subtask must be indexable by SubtaskRef::seq (int32); counts
  // are checked in 128 bits before anything is materialized.
  constexpr std::int64_t kMaxSubtasks =
      std::numeric_limits<std::int32_t>::max();
  ParsedSystem out;
  bool saw_processors = false;
  int horizon_line = 0;
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = clean(raw);
    if (line.empty()) continue;
    std::istringstream toks(line);
    std::string kw;
    toks >> kw;
    if (kw == "processors") {
      std::string v;
      toks >> v;
      const std::int64_t m = parse_int(v, lineno, "processor count");
      PFAIR_REQUIRE(m >= 1 && m <= 1024,
                    "line " << lineno << ": processor count " << m);
      out.processors = static_cast<int>(m);
      saw_processors = true;
    } else if (kw == "horizon") {
      std::string v;
      toks >> v;
      out.horizon = parse_int(v, lineno, "horizon");
      PFAIR_REQUIRE(out.horizon >= 1,
                    "line " << lineno << ": horizon must be >= 1");
      horizon_line = lineno;
    } else if (kw == "task") {
      ParsedTask t;
      std::string wtok;
      toks >> t.name >> wtok;
      PFAIR_REQUIRE(!t.name.empty() && !wtok.empty(),
                    "line " << lineno << ": task needs a name and weight");
      t.weight = parse_weight(wtok, lineno);
      std::string opt;
      while (toks >> opt) {
        const auto eq = opt.find('=');
        PFAIR_REQUIRE(eq != std::string::npos,
                      "line " << lineno << ": bad option '" << opt << "'");
        const std::string key = opt.substr(0, eq);
        PFAIR_REQUIRE(key == "phase" || key == "jobs",
                      "line " << lineno << ": unknown option '" << key
                              << "'");
        const std::int64_t val =
            parse_int(opt.substr(eq + 1), lineno, key.c_str());
        if (key == "phase") {
          PFAIR_REQUIRE(val >= 0, "line " << lineno << ": phase >= 0");
          t.phase = val;
        } else {
          PFAIR_REQUIRE(val >= 1, "line " << lineno << ": jobs >= 1");
          PFAIR_REQUIRE(
              static_cast<__int128>(val) * t.weight.e <= kMaxSubtasks,
              "line " << lineno << ": jobs=" << val << " gives task '"
                      << t.name << "' more than " << kMaxSubtasks
                      << " subtasks");
          t.jobs = val;
        }
      }
      out.tasks.push_back(std::move(t));
    } else {
      PFAIR_REQUIRE(false,
                    "line " << lineno << ": unknown keyword '" << kw << "'");
    }
  }
  PFAIR_REQUIRE(saw_processors, "missing 'processors' line");
  PFAIR_REQUIRE(!out.tasks.empty(), "no tasks defined");
  for (const ParsedTask& t : out.tasks) {
    if (t.jobs > 0 || out.horizon <= t.phase) continue;
    // Subtasks released in [phase, horizon): ceil((H - phase) * e / p).
    const __int128 count =
        (static_cast<__int128>(out.horizon - t.phase) * t.weight.e +
         t.weight.p - 1) /
        t.weight.p;
    PFAIR_REQUIRE(count <= kMaxSubtasks,
                  "line " << horizon_line << ": horizon " << out.horizon
                          << " gives task '" << t.name << "' more than "
                          << kMaxSubtasks << " subtasks");
  }
  return out;
}

ParsedSystem parse_task_string(const std::string& text) {
  std::istringstream is(text);
  return parse_task_file(is);
}

std::int64_t ParsedSystem::effective_horizon() const {
  if (horizon > 0) return horizon;
  // Two hyperperiods past the latest phase, capped to keep runs sane.
  std::int64_t h = 1;
  std::int64_t max_phase = 0;
  for (const ParsedTask& t : tasks) {
    h = std::lcm(h, t.weight.p);
    max_phase = std::max(max_phase, t.phase);
    if (h > 4096) break;
  }
  return std::min<std::int64_t>(max_phase + 2 * h, 4096);
}

TaskSystem ParsedSystem::build() const {
  const std::int64_t h = effective_horizon();
  std::vector<Task> out;
  out.reserve(tasks.size());
  for (const ParsedTask& t : tasks) {
    if (t.jobs > 0) {
      std::vector<Task::SubtaskSpec> subs;
      const std::int64_t n = t.jobs * t.weight.e;
      for (std::int64_t i = 1; i <= n; ++i) {
        subs.push_back(Task::SubtaskSpec{i, t.phase, -1});
      }
      out.push_back(Task::gis(t.name, t.weight, subs));
    } else {
      out.push_back(Task::periodic_phased(t.name, t.weight, t.phase,
                                          std::max(h, t.phase)));
    }
  }
  return TaskSystem(std::move(out), processors);
}

}  // namespace pfair
