#include "corpus.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::optional<Workload> workload_from_string(std::string_view s) {
  if (s == "sfq_plain") return Workload::kSfqPlain;
  if (s == "dvq_desync") return Workload::kDvqDesync;
  if (s == "observed") return Workload::kObserved;
  if (s == "steady_ff") return Workload::kSteadyFf;
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kSfqPlain:
      return "sfq_plain";
    case Workload::kDvqDesync:
      return "dvq_desync";
    case Workload::kObserved:
      return "observed";
    case Workload::kSteadyFf:
      return "steady_ff";
  }
  return "?";
}

namespace {

constexpr std::int64_t kBase = 240;
constexpr std::array<std::int64_t, 10> kPeriods = {4,  5,  6,  8,  10,
                                                   12, 15, 16, 20, 24};
constexpr std::int64_t kMaxProcessors = 1024;  // io/parse.cpp's limit

/// splitmix64: small, fast, and fixed here so the corpus never depends
/// on the library's own RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }
  bool per_mille(int p) { return uniform(0, 999) < p; }

 private:
  std::uint64_t s_;
};

/// How one system of a corpus is drawn.  Task count, M and horizon are
/// fixed per shape, so every seed asks for the same amount of work; only
/// the weights, phases and job counts are drawn.
struct Shape {
  std::int64_t tasks = 2;
  std::int64_t processors = 1;  ///< M; the weights sum to exactly M
  int heavy_per_mille = 0;      ///< share of tasks with weight in [1/2, 1)
  std::int64_t light_min_period = 4;
  bool light_multi = false;  ///< light e in [1, (p-1)/2]; else e = 1
  int phased_per_mille = 0;
  int finite_per_mille = 0;
  std::int64_t horizon = 0;
};

struct DrawnTask {
  std::int64_t e = 1;
  std::int64_t p = 1;
  std::int64_t phase = 0;
  std::int64_t jobs = 0;  // 0: recur through the horizon
};

DrawnTask draw_weight(const Shape& sh, Rng& rng) {
  DrawnTask t;
  if (rng.per_mille(sh.heavy_per_mille)) {
    t.p = kPeriods[static_cast<std::size_t>(rng.uniform(0, 9))];
    t.e = rng.uniform((t.p + 1) / 2, t.p - 1);
  } else {
    const auto first = static_cast<std::int64_t>(
        std::lower_bound(kPeriods.begin(), kPeriods.end(),
                         sh.light_min_period) -
        kPeriods.begin());
    t.p = kPeriods[static_cast<std::size_t>(rng.uniform(first, 9))];
    t.e = sh.light_multi
              ? rng.uniform(1, std::max<std::int64_t>(1, (t.p - 1) / 2))
              : 1;
  }
  return t;
}

std::int64_t units(const DrawnTask& t) { return t.e * (kBase / t.p); }

std::string draw_system(const Shape& sh, Rng& rng) {
  if (sh.processors > kMaxProcessors) {
    throw std::logic_error("corpus shape exceeds io/parse.cpp's M limit");
  }
  // Fully loaded: draw tasks-1 weights, redraw single tasks until their
  // sum lies strictly between M-1 and M, then one filler task of weight
  // < 1 makes it exactly M.  Shapes pick M near tasks x the mean weight,
  // so few redraws are needed.
  std::vector<DrawnTask> tasks;
  std::int64_t sum = 0;  // in 1/kBase
  for (std::int64_t i = 0; i + 1 < sh.tasks; ++i) {
    tasks.push_back(draw_weight(sh, rng));
    sum += units(tasks.back());
  }
  const std::int64_t hi = sh.processors * kBase;
  const std::int64_t lo = hi - kBase;
  for (int redraws = 0; sum <= lo || sum >= hi; ++redraws) {
    if (redraws == 1000000) {
      throw std::logic_error("corpus shape: weights cannot sum to M");
    }
    const DrawnTask t = draw_weight(sh, rng);
    DrawnTask& old = tasks[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(tasks.size()) - 1))];
    const std::int64_t delta = units(t) - units(old);
    if (sum <= lo ? delta > 0 : delta < 0) {
      sum += delta;
      old = t;
    }
  }
  const std::int64_t filler = hi - sum;
  const std::int64_t g = std::gcd(filler, kBase);
  tasks.push_back(DrawnTask{filler / g, kBase / g, 0, 0});

  const std::int64_t horizon = sh.horizon;
  // Phases and finite job counts leave the weights (and so M) alone.
  for (DrawnTask& t : tasks) {
    if (rng.per_mille(sh.phased_per_mille)) {
      t.phase = rng.uniform(1, std::max<std::int64_t>(1, horizon / 8));
    }
    if (rng.per_mille(sh.finite_per_mille)) {
      const std::int64_t full = std::max<std::int64_t>(1, horizon / t.p);
      t.jobs = rng.uniform((full + 1) / 2, full);
    }
  }

  std::ostringstream os;
  os << "processors " << sh.processors << "\nhorizon " << horizon << "\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const DrawnTask& t = tasks[i];
    os << "task T" << i << ' ' << t.e << '/' << t.p;
    if (t.phase > 0) os << " phase=" << t.phase;
    if (t.jobs > 0) os << " jobs=" << t.jobs;
    os << '\n';
  }
  return os.str();
}

/// Three systems of each shape, so a corpus pass averages over draws
/// and the median request falls inside the middle shape.
std::vector<Shape> triple(std::initializer_list<Shape> shapes) {
  std::vector<Shape> out;
  for (const Shape& s : shapes) out.insert(out.end(), 3, s);
  return out;
}

/// A sfq_plain shape with ~`placements` placements on `m` processors.
Shape plain_shape(std::int64_t n, std::int64_t m, int heavy,
                  std::int64_t light_min_period, bool light_multi,
                  std::int64_t placements) {
  return {n, m, heavy, light_min_period, light_multi, 50, 50, placements / m};
}

std::vector<Shape> shapes_for(Workload w) {
  switch (w) {
    case Workload::kSfqPlain:
    case Workload::kDvqDesync: {
      // ~1e5 placements each, 256 .. 16384 tasks; lighter mixes on the
      // big systems, where M would otherwise pass 1024.
      const std::int64_t kPlacements = 100000;
      return triple({
          plain_shape(256, 94, 250, 4, true, kPlacements),
          plain_shape(1024, 153, 60, 4, false, kPlacements),
          plain_shape(2048, 270, 30, 4, false, kPlacements),
          plain_shape(4096, 348, 15, 8, false, kPlacements),
          plain_shape(16384, 895, 5, 16, false, kPlacements),
      });
    }
    case Workload::kObserved: {
      // ~100 tasks on M = 8..16, synchronous and periodic so the auditor
      // also checks lag; ~5e3 placements per model, ~1e4 per request.
      const std::int64_t kPlacements = 5000;
      const auto shape = [&](std::int64_t n, std::int64_t m) {
        return Shape{n, m, 30, 4, false, 0, 0, kPlacements / m};
      };
      return triple({shape(60, 8), shape(90, 12), shape(120, 16)});
    }
    case Workload::kSteadyFf: {
      // Small synchronous periodic systems over 100 x 240 slots: every
      // hyperperiod divides 240, so that is >= 100 hyperperiods.
      const auto shape = [](std::int64_t n, std::int64_t m) {
        return Shape{n, m, 250, 4, true, 0, 0, 100 * kBase};
      };
      return triple({shape(16, 6), shape(22, 8), shape(33, 12)});
    }
  }
  return {};
}

}  // namespace

Corpus make_corpus(Workload w, std::uint64_t seed) {
  // dvq_desync shares sfq_plain's corpus: same systems, other model.
  const Workload base = w == Workload::kDvqDesync ? Workload::kSfqPlain : w;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(base));
  Corpus out;
  for (const Shape& sh : shapes_for(base)) {
    Request r;
    r.text = draw_system(sh, rng);
    r.yield_seed = rng.next();
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace perfbench
