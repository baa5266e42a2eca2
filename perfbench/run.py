#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench from source and runs it.

One workload, the command BENCHMARK.json names:

    python3 perfbench/run.py --workload paper_10k --seed 20220308 --seconds 30 --trace 0

prints the run's metrics for people, then one JSON line with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1. A
per-layer metric the workload does not exercise reads 0.

Every workload, end-to-end and traced, with a table of the results:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--runs K] [--record FILE]

--runs K repeats each workload's end-to-end run on K consecutive seeds and
reports each metric's median and quartile spread (the steadiness figure).
--record writes the collected results as a JSON baseline.

The helper tests (C++ and Python):

    python3 perfbench/run.py --test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root, RelWithDebInfo.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20220308


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures once, then brings `target` up to date; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "raptee.hpp")):
        fail(f"no RAPTEE sources under {ROOT}/src; nothing to build", 2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, target)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_describe():
    # Only this tree's own history: a checkout without .git must not make git
    # search the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def complete_metrics(result, wanted):
    """Checks the binary's metrics against BENCHMARK.json's list for this mode
    and adds the per-layer metrics a workload does not exercise, as 0.
    Returns the names that are wrong (unknown, missing or with the wrong
    unit); empty when the metrics match."""
    metrics = result["metrics"]
    problems = [f"unknown metric {name}" for name in metrics if name not in wanted]
    for name, spec in wanted.items():
        if name not in metrics:
            if spec.get("bound") is not None:
                problems.append(f"missing end-to-end metric {name}")
                continue
            metrics[name] = {"value": 0, "unit": spec["unit"]}
        elif metrics[name]["unit"] != spec["unit"]:
            problems.append(f"{name} has unit {metrics[name]['unit']}, not {spec['unit']}")
    result["metrics"] = {name: metrics[name] for name in wanted if name in metrics}
    return problems


def run_once(binary, bench, workload, seed, seconds, trace, describe, echo=True):
    """Runs one workload once; returns (exit code, completed result or None)."""
    args = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--describe", describe]
    if trace:
        args += ["--spans", os.path.join(build_dir(), f"spans-{workload}-{seed}.json")]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return (done.returncode or 1), None
    wanted = {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}
    problems = complete_metrics(result, wanted)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return (done.returncode or (1 if problems else 0)), result


def spread(values):
    """(median, (q3 - q1) / median) with Python's default quartile method."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def run_all(args):
    binary = build("perfbench")
    bench = load_benchmark()
    describe = git_describe()
    results = {"git_describe": describe, "seed": args.seed, "seconds": args.seconds,
               "workloads": {}}
    status = 0
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for k in range(args.runs):
            code, result = run_once(binary, bench, name, args.seed + k, args.seconds,
                                    False, describe, echo=False)
            status = status or code
            if result is None:
                fail(f"{name} seed {args.seed + k} printed no result")
            runs.append(result)
            print(f"{name} seed {args.seed + k}: " + ", ".join(
                f"{m} {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()),
                file=sys.stderr)
        code, traced = run_once(binary, bench, name, args.seed, args.seconds, True,
                                describe, echo=False)
        status = status or code
        if traced is None:
            fail(f"{name} traced run printed no result")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end_to_end = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median, rel = spread(values)
            end_to_end[m["name"]] = {"median": median, "spread": rel, "unit": m["unit"],
                                     "values": values}
        results["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 0.0,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    names = [w["name"] for w in bench["workloads"]]
    rows = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    rows += [("pollution_honest", "ratio"), ("failed_frac", "ratio")]
    print(f"{'metric':<22}{'unit':<7}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in rows:
        cells = []
        for n in names:
            r = results["workloads"][n]
            if metric in r["end_to_end"]:
                e = r["end_to_end"][metric]
                cell = f"{e['median']:.4g}" + (f" ±{e['spread']:.1%}" if args.runs > 1 else "")
            elif metric == "failed_frac":
                cell = f"{r['failed_frac']:.3g}"
            else:
                cell = f"{r['per_layer'][metric]:.4g}"
            cells.append(f"{cell:>16}")
        print(f"{metric:<22}{unit:<7}" + "".join(cells))
    out = os.path.join(build_dir(), "results.json")
    for path in [out] + ([args.record] if args.record else []):
        with open(path, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
    print(f"results: {out}")
    return status


def run_tests():
    binary = build("perfbench_tests")
    code = subprocess.run([binary]).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return code or py


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--record")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload, --all or --test is required")
    binary = build("perfbench")
    code, result = run_once(binary, load_benchmark(), args.workload, args.seed, args.seconds,
                            bool(args.trace), git_describe())
    if result is None:
        fail(f"{args.workload} printed no result")
    print(json.dumps(result, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
