"""Repeated runs of the benchmark, summarised as medians and quartile spreads.

    python3 perfbench/repeat.py --runs 10 --out perfbench/BENCH_1.json
    python3 perfbench/repeat.py --workload paper-train --runs 5

Each run is ``run.py --workload W --seed s`` with seeds ``first-seed``,
``first-seed + 1``, ...  For every end-to-end metric the summary holds
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median``, next to the bound ``BENCHMARK.json`` fixes for
it; the exit code is 1 when a spread exceeds a third of its bound.
``--trace-runs N`` adds N traced runs of the main seed per workload and
checks that their counts agree exactly.  References are stored with
``run.py --record``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads as wl
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(l)["detail"] for l in lines
                   if l.startswith('{"detail"')), None)
    final = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not final.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    return {"final": final, "detail": detail}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=wl.MAIN_SEED)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace-runs", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    summary = {"run_seconds": args.seconds, "workloads": {}}
    steady = True
    for name in args.workload or list(wl.WORKLOADS):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [run(name, s, args.seconds, 0) for s in seeds]
        entry = {"seeds": seeds, "facts": runs[0]["detail"]["facts"],
                 "metrics": {}}
        print(f"{name}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for metric in bounds:
            values = [r["final"]["metrics"][metric]["value"] for r in runs]
            s = summarise(values)
            s.update(unit=units[metric], bound=bounds[metric])
            entry["metrics"][metric] = s
            note = ""
            if s["spread"] > bounds[metric] / 3:
                note = "  SPREAD ABOVE A THIRD OF THE BOUND"
                steady = False
            print(f"  {metric:<14} median {s['median']:.6g} {units[metric]}"
                  f"  spread {s['spread']:.2%} (bound {bounds[metric]:.0%})"
                  f"{note}")
        if args.trace_runs:
            traced = [run(name, wl.MAIN_SEED, args.seconds, 1)["final"]
                      for _ in range(args.trace_runs)]
            counts = [{m: t["metrics"][m]["value"] for m, u, _ in PER_LAYER
                       if u in ("count", "B") or m == "evaluation.encode_useful_frac"}
                      for t in traced]
            same = all(c == counts[0] for c in counts)
            entry["traced"] = {m: [t["metrics"][m]["value"] for t in traced]
                               for m, _, _ in PER_LAYER}
            entry["traced_counts_identical"] = same
            print(f"  {args.trace_runs} traced runs; counts identical: {same}")
            steady = steady and same
        summary["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
