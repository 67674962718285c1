#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

    python3 hostbench/proof.py [--runs 10] [--seconds N] [--bin PATH] [--verbose] [workload ...]
    python3 hostbench/proof.py --plant [--runs 3] [workload ...]

For each workload it runs the command from BENCHMARK.json (or a prebuilt
binary given with --bin) once per seed, then prints, for every end-to-end
metric, the median and the spread: the distance between the first and
third quartile of the runs, as a share of the median, beside a third of
the metric's bound. It also checks that every run agrees on the simulated
metrics and the simulated digest, which depend on no host timing, and
prints the spread of the uncalibrated host figures for comparison. Run it
from the repository root. Exits non-zero if a spread exceeds a third of
its bound or a simulated figure differs between runs.

With --plant it checks instead that a real slowdown survives the host
speed calibration: it alternates runs with and without
--plant-kernel-repeats 1 (every kernel engine call runs twice inside its
timed span) on the same seeds, and prints for each host rate the ratio
of the medians, planted / unplanted, calibrated and raw. The kernel
rates should fall to about half; the legacy rates should hold.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Metrics measured in simulated cycles or counted from the scripts: equal
# on every run of a workload, whatever the seed.
SIMULATED = {
    "ok_ops_share",
    "kernel_ops_per_mcycle",
    "legacy_ops_per_mcycle",
    "kernel_op_cycles_p50",
    "kernel_op_cycles_p99",
    "legacy_op_cycles_p50",
    "legacy_op_cycles_p99",
}


# Host figures printed both calibrated and raw.
HOST = ["ops_per_s", "kernel_ops_per_s", "legacy_ops_per_s", "setup_s"]

VERBOSE = False


def run(cmd, workload, seed, seconds, extra=()):
    return subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", *extra],
        check=True, capture_output=True, text=True).stdout.splitlines()


def raw_figures(out):
    """The uncalibrated host figures on a run's `host speed ...
    uncalibrated:` line, and the host speed."""
    words = next(l for l in out if l.startswith("host speed")).split()
    raw = {k: float(words[words.index(k) + 1]) for k in HOST}
    raw["host.speed"] = float(words[2])
    return raw


def run_once(cmd, workload, seed, seconds):
    out = run(cmd, workload, seed, seconds)
    digest = next(l.split()[-1] for l in out if l.startswith("sim_digest:"))
    if VERBOSE:
        print(f"   seed {seed}: " + " | ".join(
            l for l in out if l.startswith("pass seconds")), flush=True)
    return json.loads(out[-1]), digest, raw_figures(out)


def host_figures(cmd, workload, seed, seconds, extra):
    """The calibrated and the uncalibrated host figures of one run."""
    out = run(cmd, workload, seed, seconds, extra)
    cal = {k: json.loads(out[-1])["metrics"][k]["value"] for k in HOST}
    return cal, raw_figures(out)


def spread(vals):
    """Distance between the first and third quartile, over the median."""
    q = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q[2] - q[0]) / med if med else float("inf")


def plant_check(cmd, names, runs, seconds, first_seed):
    for w in names:
        sides = {0: [], 1: []}
        for i in range(runs):
            # Alternate which side runs first.
            for p in ((0, 1) if i % 2 == 0 else (1, 0)):
                sides[p].append(host_figures(
                    cmd, w, first_seed + i, seconds,
                    ["--plant-kernel-repeats", str(p)]))
        print(f"== {w}: {runs} seeds, planted / unplanted, ratio of medians")
        for k in HOST:
            ratio = [statistics.median(r[j][k] for r in sides[1])
                     / statistics.median(r[j][k] for r in sides[0])
                     for j in (0, 1)]
            print(f"   {k:<18} calibrated {ratio[0]:.3f}  raw {ratio[1]:.3f}")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int,
                    help="seeds per workload (10; 3 with --plant)")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--bin")
    ap.add_argument("--verbose", action="store_true",
                    help="print each run's values and pass times")
    ap.add_argument("--plant", action="store_true",
                    help="check that a planted kernel slowdown survives calibration")
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    global VERBOSE
    VERBOSE = a.verbose
    cmd = [a.bin] if a.bin else bench["command"]
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    if a.plant:
        plant_check(cmd, names, a.runs or 3, a.seconds, a.first_seed)
        return
    a.runs = a.runs or 10
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in names:
        runs = [run_once(cmd, w, a.first_seed + i, a.seconds) for i in range(a.runs)]
        print(f"== {w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
        if any(not r["correct"] for r, _, _ in runs):
            print("   a run reported correct=false")
            ok = False
        digests = {d for _, d, _ in runs}
        if len(digests) != 1:
            print(f"   simulated digest differs between runs: {sorted(digests)}")
            ok = False
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r, _, _ in runs]
            if VERBOSE:
                print(f"   {name}: {' '.join(f'{v:.6g}' for v in vals)}")
            med = statistics.median(vals)
            s = spread(vals)
            flag = ""
            if name in SIMULATED and len(set(vals)) != 1:
                flag = "  SIMULATED VALUE DIFFERS"
                ok = False
            elif s > bound / 3:
                flag = "  WIDE"
                ok = False
            print(f"   {name:<24} median {med:>14.6g}  spread {s:7.4f}"
                  f"  (bound/3 {bound / 3:.4f}){flag}")
        # The same figures uncalibrated, named as in the traced run.
        for name in HOST + ["host.speed"]:
            vals = [raw[name] for _, _, raw in runs]
            label = name if name == "host.speed" else f"raw.{name}"
            print(f"   {label:<24} median {statistics.median(vals):>14.6g}"
                  f"  spread {spread(vals):7.4f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
