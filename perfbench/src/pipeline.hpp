// One request of the end-to-end benchmark: task-file text to a checked
// result, through the library's public entry points in the order and
// with the options `pfairsim` uses (tools/pfairsim.cpp run()):
//
//   parse_task_string -> ParsedSystem::build -> schedule_sfq /
//   schedule_dvq / schedule_*_cyclic + materialize -> check_*_schedule
//   -> measure_tardiness -> recount_quality (-> sinks and exporters on
//   the `observed` workload).
//
// Every request passes the correctness gate or counts as failed:
//   * SFQ: valid schedule and zero PD2 tardiness (PD2 is optimal);
//   * DVQ: valid with the one-quantum allowance and tardiness <= one
//     quantum (Theorem 3);
//   * live runs: the incremental quality counters equal the recount;
//   * observed: the invariant auditor is clean.
#pragma once

#include <cstdint>
#include <string>

#include "corpus.hpp"
#include "spans.hpp"

namespace perfbench {

/// Deliberate damage applied to the schedules before the gate, so the
/// self-test can show that the gate fails.
enum class Corruption {
  kNone,
  kSwap,   ///< swap two SFQ placements of one task across its windows
  kShift,  ///< move one DVQ placement past the one-quantum allowance
};

/// What one request did.  Counts are per request.
struct RequestStats {
  bool ok = true;
  std::string error;        ///< first gate failure or exception
  double wall_ns = 0;       ///< timed host time (bookkeeping excluded)
  std::int64_t placements = 0;  ///< placements delivered (materialized)
  std::uint64_t digest = 0;     ///< schedule digest (when asked for)

  std::int64_t parse_bytes = 0;
  std::int64_t subtasks = 0;
  std::int64_t sched_placements = 0;  ///< placements the SFQ engine made
  std::int64_t dvq_placements = 0;    ///< placements the DVQ engine made
  std::int64_t cyclic_runs = 0;
  std::int64_t cyclic_engaged = 0;
  std::int64_t slots_skipped = 0;
  std::int64_t sim_slots = 0;  ///< as CycleStats reports it
  std::int64_t trace_events = 0;
  std::int64_t compare_events = 0;
  std::int64_t trace_bytes = 0;
  std::int64_t audit_findings = 0;
  std::int64_t export_bytes = 0;
  double plain_simulate_ns = 0;  ///< observed + traced: uninstrumented rerun
};

/// Runs one request.  With a tracer, spans are recorded and (on
/// `observed`) the same system is simulated again without sinks to
/// price the instrumentation; that rerun is outside `wall_ns`.
[[nodiscard]] RequestStats run_request(Workload w, const Request& req,
                                       Tracer* tracer,
                                       Corruption corrupt = Corruption::kNone,
                                       bool want_digest = false);

/// The steady_ff equivalence check: digest of the materialized
/// fast-forward schedules vs. a full `cycle_detect = false` run, per
/// model.  Returns an empty string when they agree.
[[nodiscard]] std::string check_fast_forward_exact(const Request& req);

}  // namespace perfbench
