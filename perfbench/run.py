#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the `perfbench` crate (a package of its own, compiled against the
repository's crates by path) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the JSON result. Two more modes help
while changing the benchmark or the program:

    python3 perfbench/run.py --self-test
        a one-second run of every workload, untraced and traced, checking
        the result line of each;
    python3 perfbench/run.py --steady [--workloads a,b] [--runs 10] [--seconds s]
        repeats whole runs with seeds 1..runs and prints, per end-to-end
        metric, the median and the interquartile range as a share of the
        median, next to a third of the metric's bound in BENCHMARK.json.

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); the trained LeNet checkpoint is cached beside it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def target_dir():
    # A relative CARGO_TARGET_DIR is relative to the working directory, as
    # cargo reads it.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, result line, raw wall times)."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--cache-dir", os.path.join(target_dir(), "perfbench-cache"),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return done.returncode, None, {}
    result = json.loads(lines[-1])
    # The table above the result line shows raw wall time beside each
    # normalized time: "<name> <value> <unit> <raw>".
    raw = {
        parts[0]: float(parts[3])
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 4 and parts[0] in result["metrics"]
    }
    return 0, result, raw


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(binary):
    spec = load_spec()
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result, _ = run_once(binary, w["name"], 1, 1, trace, echo=False)
            problems = []
            if code != 0 or result is None:
                problems.append(f"exit code {code}")
            else:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("wrong result keys")
                if not result.get("correct"):
                    problems.append("correct is false")
                got = set(result.get("metrics", {}))
                if got != want[trace]:
                    problems.append(f"metrics differ: missing {sorted(want[trace] - got)}, "
                                    f"extra {sorted(got - want[trace])}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:<20} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def iqr_share(values):
    """Interquartile range as a share of the median."""
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def steady(binary, workloads, runs, seconds):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values, raws = {}, {}
        for seed in range(1, runs + 1):
            code, result, raw = run_once(binary, workload, seed, seconds, 0, echo=False)
            if code != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: failed run")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in raw.items():
                raws.setdefault(name, []).append(value)
        print(f"\n{workload}: {runs} runs of {seconds} s")
        print(f"{'metric':<20} {'median':>16} {'spread':>8} {'bound/3':>8} {'raw spread':>10}")
        for name, vs in values.items():
            spread = iqr_share(vs)
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- too noisy"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            raw = f"{iqr_share(raws[name]):>10.4f}" if name in raws else ""
            print(f"{name:<20} {statistics.median(vs):>16.4f} {spread:>8.4f} "
                  f"{bounds[name] / 3:>8.4f} {raw}{flag}")
    print(f"\nworst spread / bound: {worst:.3f} (steady below 0.333)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--workloads", help="comma-separated, for --steady (default: all)")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    if not (args.self_test or args.steady or args.workload):
        p.error("give --workload, --self-test or --steady")
    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.steady:
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in load_spec()["workloads"]]
        return steady(binary, names, args.runs, args.seconds)
    return run_once(binary, args.workload, args.seed, args.seconds, args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())
