// perfbench_e2e — end-to-end benchmark of the pfairsim pipeline.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--corrupt none|swap|shift]
//
// One thread, closed loop: a request is one task system taken from text
// to a checked result, and the next starts when it finishes.  The run
// sets up (corpus + one warm-up pass, three times, median reported),
// then replays whole corpus passes until S seconds have elapsed, then
// runs its self-tests untimed.  The last stdout line is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  With --trace 1 each
// system runs untraced and then traced, so the tracing overhead is
// measured on the same requests; the spans land in DIR as JSONL.
//
// --corrupt damages every timed request's schedule before the gate, to
// show the gate failing them (the run then reports correct=false).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "pipeline.hpp"
#include "spans.hpp"
#include "tasks/window_table.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRounds = 3;
constexpr double kMinAttributed = 0.95;

struct Options {
  Workload workload = Workload::kSfqPlain;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  Corruption corrupt = Corruption::kNone;
};

[[noreturn]] void usage(const std::string& err) {
  std::cerr << "perfbench_e2e: " << err
            << "\nusage: perfbench_e2e --workload "
               "sfq_plain|dvq_desync|observed|steady_ff --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] "
               "[--corrupt none|swap|shift]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    try {
      if (key == "--workload") {
        const auto w = workload_from_string(v);
        if (!w) usage("unknown workload '" + v + "'");
        o.workload = *w;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(v);
      } else if (key == "--seconds") {
        o.seconds = std::stod(v);
        if (!(o.seconds > 0)) usage("--seconds must be > 0");
      } else if (key == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (key == "--out-dir") {
        o.out_dir = v;
      } else if (key == "--corrupt") {
        if (v == "none") {
          o.corrupt = Corruption::kNone;
        } else if (v == "swap") {
          o.corrupt = Corruption::kSwap;
        } else if (v == "shift") {
          o.corrupt = Corruption::kShift;
        } else {
          usage("unknown corruption '" + v + "'");
        }
      } else {
        usage("unknown option '" + key + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + key);
    }
  }
  if (!have_workload) usage("no --workload");
  return o;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// "tasks N, processors M, horizon H, B bytes" of a task file.
std::string describe(const Request& r) {
  std::istringstream in(r.text);
  std::string line;
  std::string m;
  std::string h;
  std::int64_t tasks = 0;
  while (std::getline(in, line)) {
    if (line.rfind("processors ", 0) == 0) m = line.substr(11);
    if (line.rfind("horizon ", 0) == 0) h = line.substr(8);
    if (line.rfind("task ", 0) == 0) ++tasks;
  }
  return "tasks " + std::to_string(tasks) + ", processors " + m +
         ", horizon " + h + ", " + std::to_string(r.text.size()) + " bytes";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Counters of every traced request, for the per-layer metrics.
struct TracedRequest {
  std::map<std::string, double> self_ns;
  double simulate_total_ns = 0;  // sched.simulate + dvq.simulate spans
  RequestStats st;
};

double self_of(const TracedRequest& r, const std::string& name) {
  const auto it = r.self_ns.find(name);
  return it == r.self_ns.end() ? 0.0 : it->second;
}

double layer_self(const TracedRequest& r, const std::string& layer) {
  double s = 0;
  for (const auto& [name, ns] : r.self_ns) {
    if (name.compare(0, layer.size() + 1, layer + ".") == 0) s += ns;
  }
  return s;
}

template <class F>
double median_over(const std::vector<TracedRequest>& rs, F f) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const TracedRequest& r : rs) v.push_back(f(r));
  return median(v);
}

template <class F>
double sum_over(const std::vector<TracedRequest>& rs, F f) {
  double s = 0;
  for (const TracedRequest& r : rs) s += f(r);
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> per_layer_metrics(const std::vector<TracedRequest>& rs,
                                      double untraced_p50_ns,
                                      double traced_p50_ns) {
  const auto ms = [&](const std::string& name) {
    return median_over(rs, [&](const TracedRequest& r) {
      return self_of(r, name) / 1e6;
    });
  };
  const auto med = [&](auto field) {
    return median_over(rs, [&](const TracedRequest& r) {
      return static_cast<double>(field(r.st));
    });
  };
  const auto total = [&](auto field) {
    return sum_over(rs, [&](const TracedRequest& r) {
      return static_cast<double>(field(r.st));
    });
  };
  const double wall = sum_over(rs, [](const TracedRequest& r) {
    return r.st.wall_ns;
  });
  const double attributed = sum_over(rs, [](const TracedRequest& r) {
    double s = 0;
    for (const auto& kv : r.self_ns) s += kv.second;
    return s;
  });
  const double plain_sim = total([](const RequestStats& s) {
    return s.plain_simulate_ns;
  });
  const double instrumented_sim = sum_over(rs, [](const TracedRequest& r) {
    return r.st.plain_simulate_ns > 0 ? r.simulate_total_ns : 0.0;
  });
  const auto ns_per = [&](const std::string& layer, auto field) {
    return median_over(rs, [&](const TracedRequest& r) {
      return ratio(layer_self(r, layer),
                   static_cast<double>(field(r.st)));
    });
  };

  return {
      {"io.parse.ms", ms("io.parse"), "ms"},
      {"io.parse.bytes", med([](auto& s) { return s.parse_bytes; }), "bytes"},
      {"tasks.build.ms", ms("tasks.build"), "ms"},
      {"tasks.subtasks", med([](auto& s) { return s.subtasks; }), "count"},
      {"sched.simulate.ms", ms("sched.simulate"), "ms"},
      {"sched.placements", med([](auto& s) { return s.sched_placements; }),
       "count"},
      {"sched.ns_per_placement",
       ns_per("sched", [](auto& s) { return s.sched_placements; }), "ns"},
      {"sched.ready_heap.ms", ms("sched.ready_heap"), "ms"},
      {"sched.calendar_walk.ms", ms("sched.calendar_walk"), "ms"},
      {"sched.key_precompute.ms", ms("sched.key_precompute"), "ms"},
      {"sched.construction.ms", ms("sched.construction"), "ms"},
      {"dvq.simulate.ms", ms("dvq.simulate"), "ms"},
      {"dvq.placements", med([](auto& s) { return s.dvq_placements; }),
       "count"},
      {"dvq.ns_per_placement",
       ns_per("dvq", [](auto& s) { return s.dvq_placements; }), "ns"},
      {"dvq.events.ms", ms("dvq.events"), "ms"},
      {"dvq.construction.ms", ms("dvq.construction"), "ms"},
      {"cycle.detect.ms", ms("cycle.detect"), "ms"},
      {"cycle.materialize.ms", ms("cycle.materialize"), "ms"},
      {"cycle.fingerprint.ms", ms("cycle.fingerprint"), "ms"},
      {"cycle.engaged_ratio",
       ratio(total([](auto& s) { return s.cyclic_engaged; }),
             total([](auto& s) { return s.cyclic_runs; })),
       "ratio"},
      {"cycle.slots_skipped", med([](auto& s) { return s.slots_skipped; }),
       "count"},
      {"cycle.sim_slots", med([](auto& s) { return s.sim_slots; }), "count"},
      {"analysis.validity.ms", ms("analysis.validity"), "ms"},
      {"analysis.tardiness.ms", ms("analysis.tardiness"), "ms"},
      {"analysis.recount.ms", ms("analysis.recount"), "ms"},
      {"analysis.share",
       ratio(sum_over(rs,
                      [](const TracedRequest& r) {
                        return layer_self(r, "analysis");
                      }),
             wall),
       "ratio"},
      {"obs.simulate_overhead", ratio(instrumented_sim, plain_sim), "ratio"},
      {"obs.trace_events", med([](auto& s) { return s.trace_events; }),
       "count"},
      {"obs.compare_share",
       ratio(total([](auto& s) { return s.compare_events; }),
             total([](auto& s) { return s.trace_events; })),
       "ratio"},
      {"obs.trace_bytes", med([](auto& s) { return s.trace_bytes; }), "bytes"},
      {"obs.metrics_export.ms", ms("obs.metrics_export"), "ms"},
      {"obs.audit_findings", total([](auto& s) { return s.audit_findings; }),
       "count"},
      {"io.export.ms", ms("io.export"), "ms"},
      {"io.export.bytes", med([](auto& s) { return s.export_bytes; }),
       "bytes"},
      {"trace.overhead", ratio(traced_p50_ns, untraced_p50_ns), "ratio"},
      {"trace.attributed", ratio(attributed, wall), "ratio"},
  };
}

void print_layer_shares(const std::vector<TracedRequest>& rs) {
  const double wall = sum_over(rs, [](const TracedRequest& r) {
    return r.st.wall_ns;
  });
  std::vector<std::pair<double, std::string>> shares;
  for (const char* layer :
       {"io", "tasks", "sched", "dvq", "cycle", "analysis", "obs"}) {
    const double s = sum_over(rs, [&](const TracedRequest& r) {
      return layer_self(r, layer);
    });
    shares.emplace_back(ratio(s, wall), layer);
  }
  std::sort(shares.rbegin(), shares.rend());
  std::cout << "layer shares of traced request time:";
  for (const auto& [share, layer] : shares) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s %.1f%%", layer.c_str(), 100 * share);
    std::cout << buf;
  }
  std::cout << "\n";
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_error;

  void add(const RequestStats& st) {
    ++attempted;
    if (st.ok) return;
    ++failed;
    if (first_error.empty()) first_error = st.error;
  }
};

/// Untimed checks after the timed runs; returns the failures.
std::vector<std::string> self_tests(const Options& o, const Corpus& corpus) {
  std::vector<std::string> bad;
  // The gate must be able to fail: damaged schedules must not pass.
  std::vector<Corruption> damage;
  if (o.workload != Workload::kDvqDesync) damage.push_back(Corruption::kSwap);
  if (o.workload != Workload::kSfqPlain) damage.push_back(Corruption::kShift);
  for (const Corruption c : damage) {
    const RequestStats st = run_request(o.workload, corpus.front(), nullptr, c);
    if (st.ok) {
      bad.push_back(std::string("gate accepted a ") +
                    (c == Corruption::kSwap ? "swapped SFQ" : "shifted DVQ") +
                    " schedule");
    }
  }
  // Another seed must give other inputs.
  if (make_corpus(o.workload, o.seed + 1) == corpus) {
    bad.push_back("seed+1 produced the same corpus");
  }
  // Fast-forward must be exact on every steady_ff system.
  if (o.workload == Workload::kSteadyFf) {
    for (const Request& r : corpus) {
      const std::string err = check_fast_forward_exact(r);
      if (!err.empty()) bad.push_back(err);
    }
  }
  return bad;
}

int run(const Options& o, Clock::time_point process_start) {
  std::cout << "perfbench workload=" << to_string(o.workload)
            << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << (o.trace ? 1 : 0) << "\n";
  std::optional<Tracer> tracer;
  if (o.trace) tracer.emplace();
  Tally tally;
  std::vector<std::string> problems;

  // Set-up: corpus generation plus one warm-up pass (which fills the
  // window-table cache), repeated from a cold cache; the median counts.
  // The first round also carries process start-up.  Each round
  // regenerates the corpus from the seed, so the rounds double as the
  // determinism check: same bytes, same schedule digests.
  std::vector<double> setup_s;
  Corpus corpus;
  std::vector<std::uint64_t> digests;
  for (int round = 0; round < kSetupRounds; ++round) {
    const Clock::time_point start = round == 0 ? process_start : Clock::now();
    pfair::WindowTableCache::global().clear();
    Corpus fresh = make_corpus(o.workload, o.seed);
    std::vector<std::uint64_t> fresh_digests;
    for (const Request& r : fresh) {
      const RequestStats st =
          run_request(o.workload, r, nullptr, Corruption::kNone, true);
      tally.add(st);
      fresh_digests.push_back(st.digest);
    }
    setup_s.push_back(seconds_since(start));
    if (round > 0) {
      if (fresh != corpus) {
        problems.push_back("same seed produced another corpus");
      }
      if (fresh_digests != digests) {
        problems.push_back("same corpus produced other schedules");
      }
    }
    corpus = std::move(fresh);
    digests = std::move(fresh_digests);
  }

  // Timed: whole corpus passes until the time is up, so every run sees
  // the same mix of systems.
  std::vector<double> walls_ns;
  std::vector<std::vector<double>> system_walls_ns(corpus.size());
  std::vector<double> pass_max_ns;
  std::vector<double> pass_placements_per_s;
  std::vector<double> traced_walls_ns;
  std::vector<TracedRequest> traced;
  std::int64_t request_id = 0;
  const Clock::time_point timed_start = Clock::now();
  do {
    pass_max_ns.push_back(0);
    double placements = 0;
    double placement_ns = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Request& r = corpus[i];
      const RequestStats st = run_request(o.workload, r, nullptr, o.corrupt);
      tally.add(st);
      walls_ns.push_back(st.wall_ns);
      pass_max_ns.back() = std::max(pass_max_ns.back(), st.wall_ns);
      system_walls_ns[i].push_back(st.wall_ns);
      placements += static_cast<double>(st.placements);
      placement_ns += st.wall_ns;
      if (!tracer) continue;
      tracer->begin_request(request_id++);
      TracedRequest tr;
      tr.st = run_request(o.workload, r, &*tracer, o.corrupt);
      tracer->end_request(tr.st.wall_ns);
      tally.add(tr.st);
      tr.self_ns = tracer->request_self_ns();
      tr.simulate_total_ns = tracer->request_total_ns("sched.simulate") +
                             tracer->request_total_ns("dvq.simulate");
      traced_walls_ns.push_back(tr.st.wall_ns);
      traced.push_back(std::move(tr));
    }
    pass_placements_per_s.push_back(ratio(placements, placement_ns / 1e9));
  } while (seconds_since(timed_start) < o.seconds);
  const double timed_s = seconds_since(timed_start);

  for (const std::string& p : self_tests(o, corpus)) problems.push_back(p);

  // Report.
  const double p50_ns = median(walls_ns);
  // The tail is the median over passes of each pass's slowest request.
  // With n requests per pass and steady timings that is about the
  // 0.5^(1/n) percentile of all requests (p93 for n = 9, p95 for
  // n = 15), but a load burst on a shared host inflates only the passes
  // it hits, so the median over passes stays put where a plain p95 would
  // not.  Throughput is the median over passes for the same reason.
  const double tail_ns = median(pass_max_ns);
  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"run_ms.p50", p50_ns / 1e6, "ms"},
        {"run_ms.tail", tail_ns / 1e6, "ms"},
        {"placements_per_s", median(pass_placements_per_s), "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    metrics = per_layer_metrics(traced, p50_ns, median(traced_walls_ns));
    const auto attributed =
        std::find_if(metrics.begin(), metrics.end(), [](const Metric& m) {
          return m.name == "trace.attributed";
        });
    if (attributed->value < kMinAttributed) {
      problems.push_back("spans attribute only " + fmt(attributed->value) +
                         " of traced request time (< " +
                         fmt(kMinAttributed) + ")");
    }
  }

  std::cout << "requests: " << tally.attempted << " attempted ("
            << walls_ns.size() << " timed untraced, " << traced.size()
            << " traced, the rest warm-up) in " << fmt(timed_s)
            << " s timed; failed " << tally.failed << ", fail_ratio "
            << fmt(ratio(static_cast<double>(tally.failed),
                         static_cast<double>(tally.attempted)))
            << "\n";
  if (!tally.first_error.empty()) {
    std::cout << "first failure: " << tally.first_error << "\n";
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::cout << "system " << i << ": " << describe(corpus[i]) << ", p50 "
              << fmt(median(system_walls_ns[i]) / 1e6) << " ms\n";
  }
  std::cout << "run_ms.tail is the median of " << pass_max_ns.size()
            << " corpus passes' slowest request\n";
  std::cout << "setup_s rounds:";
  for (const double s : setup_s) std::cout << ' ' << fmt(s);
  std::cout << "\n";
  if (o.trace) print_layer_shares(traced);
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << fmt(m.value) << ' ' << m.unit
              << "\n";
  }
  for (const std::string& p : problems) std::cout << "FAILED: " << p << "\n";

  if (tracer) {
    std::filesystem::create_directories(o.out_dir);
    const std::string path = o.out_dir + "/spans-" + to_string(o.workload) +
                             "-seed" + std::to_string(o.seed) + ".jsonl";
    tracer->write_jsonl(path);
    std::cout << "spans: " << tracer->spans().size() << " -> " << path
              << "\n";
  }

  const bool correct = tally.failed == 0 && problems.empty();
  std::ostringstream js;
  js << R"({"correct": )" << (correct ? "true" : "false")
     << R"(, "attempted": )" << tally.attempted << R"(, "failed": )"
     << tally.failed << R"(, "metrics": {)";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << '"' << metrics[i].name << R"(": {"value": )"
       << fmt(metrics[i].value) << R"(, "unit": ")" << metrics[i].unit
       << R"("})";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  // glibc raises its mmap threshold after the first large free, so in a
  // long-lived process big buffers start coming from the heap and peak
  // RSS follows allocation history rather than live memory.  Pinning the
  // threshold at its start-up value keeps every request allocating as a
  // fresh `pfairsim` process does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options o = parse_args(argc, argv);
  try {
    return run(o, process_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 2;
  }
}
