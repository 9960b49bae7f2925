#!/usr/bin/env python3
"""Steadiness report: run every workload on several seeds, twice over, and
compare each end-to-end metric's spread and the two sets' medians with the
metric's bound.

Run from the root of a checkout:

    python3 e2ebench/steadiness.py > e2ebench/STEADINESS.md   # 2 sets x 10 seeds
    python3 e2ebench/steadiness.py --workloads compound --runs 5 --sets 1

Each run is `e2ebench/run.py --workload W --seed S --seconds <run_seconds
from BENCHMARK.json> --trace 0` with seeds first_seed .. first_seed+runs-1;
set 2 repeats set 1's runs after all of set 1 has finished. For every
metric and set the report gives the median, the quartiles
(statistics.quantiles(values, n=4)), min and max, and the spread
(q3 - q1) / median next to the metric's bound: "steady" below a third of
the bound, "within bound" up to it, "TOO WIDE" above. It then compares the
sets: a metric "agrees" when set 2's median is not worse than set 1's by
more than the bound, and each seed must print the same structure
fingerprint in both sets. The exit code is 1 when a spread is too wide, a
median disagrees or a fingerprint differs.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    return result, wall, fingerprint


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    # sets[s][workload] = {"values": {metric: [...]}, "walls": [...], ...}
    sets = []
    for s in range(args.sets):
        results = {}
        for workload in args.workloads:
            entry = {"values": {}, "walls": [], "failed": [], "attempted": [],
                     "fingerprints": []}
            for seed in seeds:
                result, wall, fingerprint = run_once(workload, seed, seconds)
                entry["walls"].append(wall)
                entry["failed"].append(result["failed"])
                entry["attempted"].append(result["attempted"])
                entry["fingerprints"].append(fingerprint)
                for name, metric in result["metrics"].items():
                    entry["values"].setdefault(name, []).append(metric["value"])
                print(f"set {s + 1} {workload} seed {seed}: {wall:.1f} s wall",
                      file=sys.stderr)
            results[workload] = entry
        sets.append(results)

    steady = True
    report = ["# e2ebench steadiness report", "",
              f"Seeds {seeds[0]}..{seeds[-1]}, --seconds {seconds}, --trace 0, "
              f"one run per seed and set; {args.sets} set(s), run one after "
              f"the other. Spread = (q3 - q1) / median. README.md "
              f"(Steadiness) says why the runs are this long.", ""]
    for workload in args.workloads:
        report += [f"## {workload}", ""]
        for s, results in enumerate(sets):
            entry = results[workload]
            walls = entry["walls"]
            report += [
                f"### set {s + 1}", "",
                f"{min(entry['attempted'])}..{max(entry['attempted'])} "
                f"attempted per run, {min(entry['failed'])}.."
                f"{max(entry['failed'])} failed; wall per run "
                f"{min(walls):.1f}..{max(walls):.1f} s (median "
                f"{statistics.median(walls):.1f} s).", "",
                "| metric | unit | median | q1 | q3 | min | max | spread "
                "| bound | verdict |",
                "|---|---|---|---|---|---|---|---|---|---|"]
            for name, vals in entry["values"].items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                bound = specs[name]["bound"]
                if spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    steady = False
                report.append(
                    f"| {name} | {specs[name]['unit']} | {med:.4g} | "
                    f"{q1:.4g} | {q3:.4g} | {min(vals):.4g} | {max(vals):.4g} "
                    f"| {spread:.3f} | {bound} | {verdict} |")
            report.append("")
        if len(sets) == 2:
            first, second = sets[0][workload], sets[1][workload]
            report += ["### set 2 against set 1", "",
                       "| metric | median 1 | median 2 | worse by | bound "
                       "| verdict |", "|---|---|---|---|---|---|"]
            for name, vals in first["values"].items():
                m1 = statistics.median(vals)
                m2 = statistics.median(second["values"][name])
                worse = worse_by(m1, m2, specs[name]["better"])
                agrees = worse <= specs[name]["bound"]
                steady = steady and agrees
                report.append(
                    f"| {name} | {m1:.4g} | {m2:.4g} | {worse:+.3f} | "
                    f"{specs[name]['bound']} | "
                    f"{'agrees' if agrees else 'DISAGREES'} |")
            differing = [seed for seed, a, b in
                         zip(seeds, first["fingerprints"],
                             second["fingerprints"]) if a != b]
            steady = steady and not differing
            report += ["", "Structure fingerprints: " +
                       ("identical in both sets on every seed." if not differing
                        else f"DIFFER on seeds {differing}."), ""]
    print("\n".join(report))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
