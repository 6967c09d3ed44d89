#!/usr/bin/env python3
"""End-to-end benchmark of the pfairsim pipeline.

Builds perfbench_e2e from the sources of this checkout (perfbench/ plus
../src) and runs it:

    python3 perfbench/run.py --workload sfq_plain --seed 1 --seconds 25 --trace 0

Run it from the checkout root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build), span files to .bench_out.  The last line of
stdout is the result as one JSON object; see perfbench/README.md.
`--workload all` runs the four workloads one after another and ends
with a table of every metric instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sfq_plain", "dvq_desync", "observed", "steady_ff"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then brings perfbench_e2e up to date."""
    log = sys.stderr  # keep stdout for the result
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_e2e", "-j", jobs],
                   stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--corrupt", default="none",
                    choices=["none", "swap", "shift"],
                    help="damage every timed schedule (gate self-test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources (src/) next to perfbench/",
              file=sys.stderr)
        return 2
    build_root = (os.environ.get("CARGO_TARGET_DIR")
                  or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(os.path.join(os.path.abspath(build_root), "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if args.workload != "all":
        return run(binary, args.workload, args)[0]
    rc, rows = 0, []
    for w in WORKLOADS:
        code, result = run(binary, w, args, capture=True)
        rc = max(rc, code)
        for name, m in (result or {}).get("metrics", {}).items():
            rows.append(f"{w:11s} {name:24s} {m['value']:>16.6g} {m['unit']}")
    print("\n".join(rows))
    return rc


def run(binary, workload, args, capture=False):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--corrupt", args.corrupt]
    try:
        p = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2, None
    if not capture:
        return p.returncode, None
    print(p.stdout, end="")
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return p.returncode or 2, None


if __name__ == "__main__":
    sys.exit(main())
