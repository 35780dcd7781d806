#!/usr/bin/env python3
"""Steadiness check for the dimsim host-speed benchmark.

Run a workload N times, each with another seed, and summarise every metric:

    python3 perfbench/steady.py run --workload grid-churn --runs 10 --out a.json

prints each metric's median, quartiles and spread (the distance between the
first and third quartile, as statistics.quantiles(values, n=4) gives them, as
a share of the median) next to the bound BENCHMARK.json fixes for it.

Compare two sets of runs of the same workload (for example the parent
commit and a change, or two sets of the same code):

    python3 perfbench/steady.py compare a.json b.json

flags every end-to-end metric whose second median is worse than the first
by more than its bound, and every spread wider than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def one_run(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}, exit {proc.returncode})")
    return json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def cmd_run(args):
    spec, metrics = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for k in range(args.runs):
        r = one_run(args.workload, args.seed_start + k, seconds, args.trace, args.extra)
        results.append(r)
        print(f"seed {args.seed_start + k}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
    names = list(results[0]["metrics"])
    values = {n: [r["metrics"][n]["value"] for r in results] for n in names}
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.seed_start}.."
          f"{args.seed_start + args.runs - 1}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for n in names:
        med, q1, q3, spread = summarise(values[n])
        bound = metrics.get(n, {}).get("bound")
        flag = ""
        if bound is not None:
            worst = max(worst, spread / bound)
            flag = "  OVER BOUND" if spread > bound else ("  over 1/3" if spread > bound / 3 else "")
        print(f"{n:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    if not args.trace:
        print(f"largest spread / bound: {worst:.3f}")
    failed = sum(r["failed"] for r in results)
    print(f"failed operations over all runs: {failed}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seeds": [args.seed_start + k for k in range(args.runs)],
                       "results": results}, f, indent=1)
    return 0


def cmd_compare(args):
    _, metrics = load_spec()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    if sets[0]["workload"] != sets[1]["workload"]:
        raise SystemExit("the two sets are of different workloads")
    print(f"{sets[0]['workload']}: {args.first} vs {args.second}")
    bad = 0
    for n in sets[0]["results"][0]["metrics"]:
        spec = metrics.get(n)
        if spec is None or "bound" not in spec:
            continue
        a = [r["metrics"][n]["value"] for r in sets[0]["results"]]
        b = [r["metrics"][n]["value"] for r in sets[1]["results"]]
        ma, _, _, sa = summarise(a)
        mb, _, _, sb = summarise(b)
        change = (mb - ma) / abs(ma) if ma else 0.0
        worse = change if spec["better"] == "lower" else -change
        verdict = "ok"
        if worse > spec["bound"]:
            verdict = "WORSE BY MORE THAN THE BOUND"
        elif max(sa, sb) > spec["bound"]:
            verdict = "SPREAD OVER BOUND"
        bad += verdict != "ok"
        print(f"  {n:20} {ma:12.6g} -> {mb:12.6g} ({100 * change:+7.2f}%) spreads "
              f"{sa:.4f}/{sb:.4f} bound {spec['bound']}: {verdict}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one workload N times with consecutive seeds")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-start", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", help="write every result to this JSON file")
    r.add_argument("extra", nargs="*", help="further harness arguments, after --")
    c = sub.add_parser("compare", help="compare two sets written by run --out")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
