#!/usr/bin/env python3
"""The driver's acceptance check, run locally (standard library only).

Two sets of runs, seeds 1-10 per workload in each, at `run_seconds` from
BENCHMARK.json.  For every end-to-end metric: the spread of a set is the
distance between the first and third quartile of its ten values
(statistics.quantiles, n=4) as a share of their median, and the move is how
much worse the second set's median is than the first's.  A metric passes
when both spreads and the move stay within its bound from BENCHMARK.json;
setup_s's spread is printed but not gated.  Exit status is non-zero on any
gated miss or any failed operation.

usage: selfcheck.py <perfbench binary> [--strict] [--workloads a,b]
  --strict     gates every spread and move at 0.125 instead (ISSUE 12's
               acceptance criterion: half of the 0.25 bound)
  --workloads  re-measures only the named workloads
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
STRICT_GATE = 0.125


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    """Share of the first median by which the second median is worse."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def run_once(binary, workload, seed, seconds):
    started = time.monotonic()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        print(proc.stdout)
        sys.exit(f"{workload} seed {seed}: failed operations "
                 f"(exit {proc.returncode}, failed {result['failed']})")
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary")
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--workloads")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        named = args.workloads.split(",")
        unknown = [w for w in named if w not in workloads]
        if unknown:
            sys.exit(f"unknown workload(s) {', '.join(unknown)}; "
                     f"BENCHMARK.json has {', '.join(workloads)}")
        workloads = named

    # sets[s][workload][metric] -> the ten values; slowest[workload] -> s
    sets = []
    slowest = {w: 0.0 for w in workloads}
    for s in (1, 2):
        sets.append({})
        for w in workloads:
            per_metric = {m["name"]: [] for m in metrics}
            for seed in SEEDS:
                got, elapsed = run_once(args.binary, w, seed, seconds)
                slowest[w] = max(slowest[w], elapsed)
                for name in per_metric:
                    per_metric[name].append(got[name])
                print(f"# set {s} {w} seed {seed}: {elapsed:.1f} s  " +
                      "  ".join(f"{k}={v:.6g}" for k, v in got.items()),
                      flush=True)
            sets[-1][w] = per_metric

    print(f"\n# selfcheck {time.strftime('%Y-%m-%d %H:%M:%S')}: 2 sets x "
          f"{len(SEEDS)} seeds, {seconds} s runs, "
          f"gate = {STRICT_GATE if args.strict else 'bound'}")
    print("# slowest run, s: " +
          "  ".join(f"{w} {t:.1f}" for w, t in slowest.items()))
    print(f"{'workload':<15} {'metric':<13} {'bound':>5} {'median1':>12} "
          f"{'spread1':>8} {'median2':>12} {'spread2':>8} {'move':>8}  verdict")
    ok = True
    for w in workloads:
        for m in metrics:
            name = m["name"]
            gate = STRICT_GATE if args.strict else m["bound"]
            first, second = sets[0][w][name], sets[1][w][name]
            med1, med2 = statistics.median(first), statistics.median(second)
            sp1, sp2 = spread(first), spread(second)
            move = worsening(med1, med2, m["better"])
            good = move <= gate
            if name != "setup_s":
                good = good and sp1 <= gate and sp2 <= gate
            ok = ok and good
            print(f"{w:<15} {name:<13} {m['bound']:>5.2f} {med1:>12.6g} "
                  f"{sp1:>8.4f} {med2:>12.6g} {sp2:>8.4f} {move:>+8.4f}  "
                  + ("ok" if good else "MISS"))
    print("# selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
