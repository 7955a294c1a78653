"""Benchmark of the dove engine: three workloads, end to end and per layer.

    python3 perfbench/run.py                       # every workload, seed 1
    python3 perfbench/run.py --workload desk-train --seed 3
    python3 perfbench/run.py --workload paper-eval --trace 1

Run from the root of a source tree: the engine is imported from its
``src/``.  Each workload gets two fresh processes, with BLAS and OpenMP
pinned to one thread through their environment: one writes the
generated inputs (untimed), the other times set-ups, runs operations
until ``--seconds`` have passed (by default ``run_seconds`` from
``BENCHMARK.json``), checking every output, and times set-ups again.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a traced run.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every operation passed its
output check.  ``--record`` stores the first operation's output as the
reference for the seed (in ``perfbench/refs``).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import workloads as wl
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

# set for the benchmark's own processes only; no machine setting changes
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

RUN_LIMIT_S = 170.0   # a run must end within 180 s
PREPARE_LIMIT_S = 60.0


class RunError(RuntimeError):
    """A worker process failed or overran; the run has no result."""


def run_seconds() -> float:
    """The run length ``BENCHMARK.json`` fixes; None when it is absent."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return float(json.load(fh)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the engine's sources: names which code ran."""
    import hashlib
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "dove")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def worker(args: list[str], limit: float, capture: bool) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(limit, 1.0),
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              text=True)
    except subprocess.TimeoutExpired:
        raise RunError(f"{args[0]} exceeded {limit:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout if capture else ""


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: bool, deadline: float) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_DIR)
    common = ["--workload", name, "--seed", str(seed), "--work", work]
    try:
        worker(["prepare", *common],
               min(PREPARE_LIMIT_S, deadline - time.monotonic()), capture=False)
        extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
        if record:
            extra.append("--record")
        if trace:
            extra += ["--spans",
                      os.path.join(SPANS_DIR, f"spans-{name}-{seed}.jsonl")]
        out = worker(["measure", *common, *extra],
                     deadline - time.monotonic(), capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("measure printed no result")
    result = json.loads(lines[-1])
    result["facts"].update(thread_env=THREAD_ENV, commit=commit(),
                           source_sha256=source_digest(), seed=seed,
                           workload=name, seconds=seconds)
    return result


def contract(result: dict, trace: bool) -> dict:
    specs = PER_LAYER if trace else wl.END_TO_END
    metrics = result.get("metrics", {})
    attempted, failed = result["attempted"], result["failed"]
    missing = [n for n, _, _ in specs if n not in metrics]
    if missing:
        # a run without every metric cannot pass
        failed = max(failed, 1)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u, _ in specs if n in metrics},
    }


def describe(name: str, result: dict, final: dict, trace: bool):
    print(f"{name} seed={result['facts']['seed']}: {final['attempted']} "
          f"operations, {final['failed']} failed; outputs checked against "
          f"{result['checked_against']}")
    samples = result.get("samples", {})
    for metric, body in final["metrics"].items():
        n = f"  (n={samples[metric]})" if metric in samples else ""
        print(f"  {metric:<32} {body['value']:>14.6g} {body['unit']}{n}")
    for metric, value in result.get("named", {}).items():
        print(f"  = {metric:<30} {json.dumps(value)}")
    for line in result.get("errors", []):
        print(f"  FAILED {line.splitlines()[0]}")
    if trace and result.get("missing"):
        print(f"  missing from the engine: {', '.join(result['missing'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Benchmark of the dove engine",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                   help="one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=wl.MAIN_SEED)
    p.add_argument("--seconds", type=float, default=run_seconds())
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's outputs as its reference")
    args = p.parse_args(argv)
    if args.seconds is None:
        p.error("no --seconds, and BENCHMARK.json gives no run_seconds")
    if not os.path.isfile(os.path.join(ROOT, "src", "dove", "__init__.py")):
        print(f"no engine sources under {os.path.join(ROOT, 'src', 'dove')}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    finals = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.record, deadline)
        except RunError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        finals[name] = contract(result, bool(args.trace))
        describe(name, result, finals[name], bool(args.trace))
        print(json.dumps({"detail": result}, sort_keys=True))
    if args.workload:
        final = finals[args.workload]
    else:
        final = {"correct": all(f["correct"] for f in finals.values()),
                 "attempted": sum(f["attempted"] for f in finals.values()),
                 "failed": sum(f["failed"] for f in finals.values()),
                 "metrics": {n: f["metrics"] for n, f in finals.items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
