#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares two of them.

  # Ten untraced runs of one workload, one seed each, of BENCHMARK.json's
  # run_seconds, appended to a file:
  python3 perfbench/compare.py collect --workload serve-jit \\
      --seeds 1-10 --out base.jsonl

  # Spread of one set: median, quartiles and IQR/median of each
  # end-to-end metric per workload, against the bound in BENCHMARK.json:
  python3 perfbench/compare.py spread base.jsonl

  # Two sets (parent, change): medians and quartiles, pair wins and a
  # verdict per workload and metric:
  python3 perfbench/compare.py compare base.jsonl head.jsonl

A set file holds one JSON object per line: {"workload", "seed", "result"},
where "result" is the benchmark's last output line.  Quartiles are those of
statistics.quantiles(values, n=4).  A workload whose change set has a run
with failed output checks (correct = false), or more failed operations in
total than the parent set, is regressed whatever its metrics say.  Otherwise
each metric gets a verdict:

  improved        the change wins at least 9 of 10 pairs and the medians
                  differ by more than the parent's own quartile distance;
  no worse        the change's median is not worse than the parent's by
                  more than the metric's bound;
  regressed       it is worse by more than the bound;
  unresolved      the parent's quartile distance is wider than the bound
                  and not every run of the change beats every parent run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_set(path):
    """Returns {workload: [metrics dict per run]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(args):
    bench = load_bench()
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"seed {seed}: run failed ({proc.returncode})",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "result": result}) + "\n")
            out.flush()
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            if not result["correct"]:
                print(f"seed {seed}: output checks failed; stopping",
                      file=sys.stderr)
                return 1
    return 0


def values_of(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def check_failures(runs):
    """(runs with correct = false, total failed operations) of a set."""
    return (sum(1 for r in runs if not r["correct"]),
            sum(r["failed"] for r in runs))


def spread(args):
    bench = load_bench()
    runs = load_set(args.set)
    worst = 0.0
    for workload, results in sorted(runs.items()):
        print(f"== {workload} ({len(results)} runs)")
        incorrect, failed = check_failures(results)
        if incorrect or failed:
            print(f"  output checks failed in {incorrect} runs "
                  f"({failed} failed operations)")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}  steady")
        for m in bench["end_to_end"]:
            vals = values_of(results, m["name"])
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / abs(med) if med else float("inf")
            steady = "yes" if rel < m["bound"] / 3 else (
                "within bound" if rel <= m["bound"] else "NO")
            if m["name"] != "setup_s":
                worst = max(worst, rel / m["bound"])
            print(f"  {m['name']:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{rel:>8.4f} {m['bound']:>6}  {steady}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if (h < b if lower else h > b))
    ties = sum(1 for b, h in pairs if h == b)
    worse = (hmed - bmed) / abs(bmed) if bmed else 0.0
    if not lower:
        worse = -worse
    base_spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
    all_better = all((h < b if lower else h > b) for b in base for h in head)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(hmed - bmed) > (bq3 - bq1) and worse < 0):
        text = "improved"
    elif base_spread > metric["bound"] and not all_better:
        text = "unresolved"
    elif worse <= metric["bound"]:
        text = "no worse"
    else:
        text = "regressed"
    return wins, ties, len(pairs), worse, text


def compare(args):
    bench = load_bench()
    base, head = load_set(args.base), load_set(args.head)
    status = 0
    for workload in sorted(set(base) | set(head)):
        if workload not in base or workload not in head:
            print(f"== {workload}: present in only one set")
            status = 1
            continue
        b_runs, h_runs = base[workload], head[workload]
        print(f"== {workload} (base {len(b_runs)} runs, head "
              f"{len(h_runs)} runs)")
        b_incorrect, b_failed = check_failures(b_runs)
        h_incorrect, h_failed = check_failures(h_runs)
        if b_incorrect:
            print(f"  base: output checks failed in {b_incorrect} runs")
        if h_incorrect or h_failed > b_failed:
            print(f"  head: output checks failed in {h_incorrect} runs, "
                  f"{h_failed} failed operations against {b_failed} in "
                  "base: regressed")
            status = 1
        print(f"  {'metric':<16} {'base median [q1, q3]':>34} "
              f"{'head median [q1, q3]':>34} {'wins':>7} {'worse':>8}  "
              "verdict")
        for m in bench["end_to_end"]:
            b = values_of(b_runs, m["name"])
            h = values_of(h_runs, m["name"])
            bq = quartiles(b)
            hq = quartiles(h)
            wins, ties, n, worse, text = verdict(m, b, h)
            if text == "regressed":
                status = 1
            print(f"  {m['name']:<16} "
                  f"{bq[1]:>11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]".ljust(53) +
                  f"{hq[1]:>11.5g} [{hq[0]:.5g}, {hq[2]:.5g}]".ljust(35) +
                  f"{wins:>3}/{n:<3} {100 * worse:>7.2f}%  {text}")
    return status


def main():
    parser = argparse.ArgumentParser(
        description="collect and compare benchmark runs")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run the benchmark over seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread", help="spread of one set of runs")
    p.add_argument("set")
    p = sub.add_parser("compare", help="compare two sets of runs")
    p.add_argument("base")
    p.add_argument("head")
    args = parser.parse_args()
    return {"collect": collect, "spread": spread,
            "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
