#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload af-read --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library sources under src/) into
.bench_build, or $CARGO_TARGET_DIR when set; later runs only rebuild what
changed. The workload's report lines go to standard output, and the last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list; spans of the traced run are written to
<build dir>/traces/. Exits non-zero, without a result line, if the sources
or the build are missing, and with a result line but non-zero if any
correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("af-read", "af-write", "lockd", "sim-e1")
RUN_TIMEOUT_S = 175


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so the result stays the last stdout line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    exe = build_dir / "perfbench"
    if not exe.is_file():
        die(f"{exe} was not built")
    return exe


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    want = expected_metrics(args.trace)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    exe = build(build_dir)

    out_dir = build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out_dir / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(result_path)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{tag}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if not result_path.is_file():
        die(f"{args.workload} exited with {proc.returncode} and no result")

    result = json.loads(result_path.read_text())
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    correct = bool(result["correct"]) and proc.returncode == 0
    if got != want:
        print(f"perfbench: metrics/units differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}", file=sys.stderr)
        correct = False
    line = {"correct": correct,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {k: result["metrics"][k] for k in want
                        if k in result["metrics"]}}
    print(json.dumps(line, separators=(",", ":")))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
