#!/usr/bin/env python3
"""Build and run the longlook host-time benchmark.

    python3 perfbench/run.py --workload <web_grid|bulk_bdp|rpc_churn>
                             --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Builds the perfbench program and the
repository's src/ libraries from source into $CARGO_TARGET_DIR (default
.bench_build) with the repository's default optimised build type, then:

  --trace 0  measures set-up time (median of several process starts, from
             spawning the program to its first simulated event) and runs
             the untraced workload; reports the end-to-end metrics.
  --trace 1  runs the untraced and the traced workload; reports the
             per-layer metrics and checks the predictions in
             perfbench/predictions.json against them.

The program's own report goes to stdout line by line; the last line is one
JSON object with the keys correct, attempted, failed and metrics. Any
failed output check makes the exit code non-zero. Arguments after the four
above (for example --timeout-ms) are passed to the program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
PROGRAM_SLACK_S = 120  # beyond --seconds: warm-up, last pass, traced extras


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds; returns the path to the program."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no longlook sources under {ROOT / 'src'}; run from a checkout")
    out = build_dir()
    # The compiler's temporary files stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "perfbench_span_test", "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, env=env)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def setup_seconds(program, args):
    """Median host seconds from spawning the program to its first event."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as the program's clock
        res = subprocess.run(
            [str(program), "--workload", args.workload, "--seed",
             str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True, timeout=60)
        lines = res.stdout.split()
        if res.returncode != 0 or len(lines) != 2 or lines[0] != "FIRST_EVENT_NS":
            fail(f"setup probe failed (exit {res.returncode})", 1)
        samples.append((int(lines[1]) - t0) * 1e-9)
    return statistics.median(samples)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_predictions(workload, metrics):
    """Prints each recorded prediction for this workload as met or not."""
    preds = json.loads((HERE / "predictions.json").read_text())
    for p in preds["checks"]:
        if p["workload"] != workload:
            continue
        value = metrics[p["metric"]]["value"]
        if "over" in p:
            value = value / metrics[p["over"]]["value"]
        ok = p.get("min", float("-inf")) <= value <= p.get("max", float("inf"))
        print(f"prediction {p['id']}: {'met' if ok else 'MISMATCH'} "
              f"({value:.4g}; {p['claim']})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    program = build()
    setup_s = None if args.trace else setup_seconds(program, args)

    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.trace:
        cmd += ["--spans-out", str(build_dir() / f"spans_{args.workload}.jsonl")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + PROGRAM_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("the program did not finish in time", 1)
    result = None
    for line in res.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"the program printed no result (exit {res.returncode})", 1)

    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in metrics.items()}
    correct = result["correct"] and res.returncode == 0
    if got != want:
        print(f"FAIL reported metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}")
        correct = False
    print(f"sim_digest={result['sim_digest']}")
    if setup_s is not None:
        print(f"  {'setup_s':<32} {setup_s:16.6g} s")
    if args.trace and correct:
        check_predictions(args.workload, metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
