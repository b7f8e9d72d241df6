#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, the form every tool uses:
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
prints the run's log and, as the last line of stdout, its result object.

Steadiness mode repeats one workload on consecutive seeds and prints the
median and quartiles of every metric (the data the bounds are set from):
  python3 perfbench/run.py --workload W --steady 10 [--seed 1] [--save runs.json]

Comparison of two saved steadiness sets (e.g. a parent and a change); it
refuses sets whose run configuration differs:
  python3 perfbench/run.py --compare parent.json change.json

The benchmark is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; build
output goes to stderr.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chaos_sweep", "elastic_train", "minidl_train", "sched_replay")
# Run-configuration keys that must match for two results to be compared; the
# git commit is recorded too but differs between the sides of a comparison.
CONFIG_KEYS = ("build_type", "lock_order_checks", "isa", "kernel_mode", "pool_threads")


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds elan_perfbench; returns the binary path."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DELAN_LOCK_ORDER_CHECKS=ON"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "elan_perfbench"])
    # The compiler's temporary files stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / "elan_perfbench"


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def run_captured(binary, args):
    """One run; returns (config, result) parsed from its output."""
    proc = subprocess.run([str(binary)] + args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("perfbench: run failed: " + " ".join(args))
    config = {}
    for line in lines:
        if line.startswith("config "):
            config = json.loads(line[len("config "):])
    config["git_commit"] = git_commit()
    return config, json.loads(lines[-1])


def summarize(runs):
    """Per-metric median and quartiles over a list of results."""
    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else float("nan")}
    return summary


def print_summary(summary):
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>11}")
    for name, s in summary.items():
        print(f"{name:36} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['spread']:11.4f}  {s['unit']}")


def same_config(a, b, keys=CONFIG_KEYS):
    return all(a.get(k) == b.get(k) for k in keys)


def steady(args):
    binary = build()
    configs, runs = [], []
    for i in range(args.steady):
        seed = args.seed + i
        config, result = run_captured(binary, bench_args(args.workload, seed, args.seconds,
                                                         args.trace))
        if configs and not same_config(configs[0], config, CONFIG_KEYS + ("git_commit",)):
            sys.exit("perfbench: run configuration changed mid-set; refusing to summarize")
        configs.append(config)
        runs.append(result)
        status = "ok" if result["correct"] and result["failed"] == 0 else "FAILED"
        print(f"seed {seed}: {status} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = summarize(runs)
    print(f"workload {args.workload}, {len(runs)} runs, trace={args.trace}, "
          f"config {json.dumps(configs[0])}")
    print_summary(summary)
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "config": configs[0],
             "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


def compare(paths):
    sets = [json.loads(Path(p).read_text()) for p in paths]
    a, b = sets
    if not same_config(a["config"], b["config"]):
        sys.exit("perfbench: refusing to compare runs with different configurations:\n"
                 f"  {json.dumps(a['config'])}\n  {json.dumps(b['config'])}")
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        sys.exit("perfbench: refusing to compare different workloads or trace modes")
    print(f"workload {a['workload']}: {paths[0]} ({a['config']['git_commit'][:12]}) -> "
          f"{paths[1]} ({b['config']['git_commit'][:12]})")
    print(f"{'metric':36} {'before':>14} {'after':>14} {'change':>9}  before spread")
    for name, s in a["summary"].items():
        after = b["summary"].get(name)
        if after is None:
            print(f"{name:36} missing from {paths[1]}")
            continue
        change = (after["median"] - s["median"]) / s["median"] if s["median"] else float("nan")
        print(f"{name:36} {s['median']:14.6g} {after['median']:14.6g} {change:+9.2%}  "
              f"{s['spread']:.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020,
                        help="workload seed (default 2020; 8191 is held out for claims)")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="repeat the workload on RUNS consecutive seeds and summarize")
    parser.add_argument("--save", metavar="FILE", help="steadiness mode: write the runs here")
    parser.add_argument("--compare", nargs=2, metavar="FILE",
                        help="compare two saved steadiness sets")
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        return steady(args)
    binary = build()
    sys.stdout.flush()
    return subprocess.run([str(binary)] + bench_args(args.workload, args.seed, args.seconds,
                                                     args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
