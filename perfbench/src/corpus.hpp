// Seeded task-file corpora for the end-to-end benchmark.
//
// Every request is task-file text (the format of src/io/parse.hpp), so
// the benchmark feeds the program exactly what a `pfairsim` user would.
// The text is generated here, by the benchmark's own RNG, so a change
// to the library's generators can never change the inputs.  Periods
// come from the divisor-of-240 set of workload/generator (the filler
// task's period divides 240 too), which keeps every hyperperiod <= 240
// and all window arithmetic small.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kSfqPlain, kDvqDesync, kObserved, kSteadyFf };

[[nodiscard]] std::optional<Workload> workload_from_string(std::string_view s);
[[nodiscard]] const char* to_string(Workload w);

/// One request: a task system as text, plus the seed of the Bernoulli
/// yield model its DVQ run draws early completions from.
struct Request {
  std::string text;
  std::uint64_t yield_seed = 0;

  friend bool operator==(const Request&, const Request&) = default;
};
using Corpus = std::vector<Request>;

/// The workload's corpus for `seed`.  Same seed, same bytes.
[[nodiscard]] Corpus make_corpus(Workload w, std::uint64_t seed);

}  // namespace perfbench
