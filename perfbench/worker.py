"""One step of a benchmark run, in a process of its own.

``prepare`` writes a workload's generated inputs into a work directory.
``measure`` times set-up and operations on them and prints one JSON
line.  ``run.py`` starts both with BLAS pinned to one thread, and a
fresh ``measure`` process per run, so its peak memory belongs to that
run alone.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import workloads as wl
from tracing import Tracer, layer_report

HERE = os.path.dirname(os.path.abspath(__file__))


def blas_facts() -> dict:
    """BLAS library, version and live thread count, as far as NumPy tells."""
    import numpy as np
    facts = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                return facts
    return facts


def machine_facts() -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
    }


def check(w, output, first, ref) -> list[str]:
    problems = []
    if first is not None and output != first:
        problems.append("output differs from this run's first operation")
    if ref is not None:
        problems += wl.compare(output, ref["output"])
    return problems + wl.invariants(w, output)


def set_up_for(w, work: str, seconds: float, times: list[float]):
    """Set up back to back for ``seconds``, at least once; return the last."""
    stop = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        ctx = wl.setup(w, work)
        times.append(time.perf_counter() - started)
        if time.perf_counter() >= stop:
            return ctx


def measure(w, seed: int, work: str, seconds: float, trace: bool,
            record: bool, spans_path: str | None) -> dict:
    with open(os.path.join(work, "prepared.json"), encoding="utf-8") as fh:
        digest = json.load(fh)["corpus_digest"]
    ref = wl.load_reference(HERE, w, seed)
    run_problems = []
    if ref is not None and ref["corpus_digest"] != digest:
        run_problems.append("corpus digest differs from the stored reference")

    import dove.evaluation, dove.train  # noqa: F401  (imports stay untimed)
    setup_s = []
    ctx = set_up_for(w, work, 0.0 if trace else wl.SETUP_SLICE_S, setup_s)
    wl.finish_setup(w, ctx, seed, work)

    tracer = Tracer() if trace else None
    # seconds per unit of work (the epoch for training), untraced and traced
    op_s, unit_s, errors = [], {False: [], True: []}, []
    attempted = failed = 0
    first = None

    def operation(traced: bool, timed: bool):
        nonlocal attempted, failed, first
        attempted += 1
        if traced:
            tracer.install()
        try:
            with tracer.root("op") if traced else contextlib.nullcontext():
                output, seconds_op, intervals = wl.run_op(w, ctx, seed, work)
            if timed:
                op_s.append(seconds_op)
                unit_s[traced].extend(
                    intervals if w.kind == "train" else [seconds_op])
            problems = run_problems + check(w, output, first, ref)
            if first is None:
                first = output
                if record and not trace and not problems:
                    wl.record_reference(HERE, w, seed, digest, output)
        except Exception:  # an operation that raises counts as failed
            problems = [traceback.format_exc()]
        finally:
            if traced:
                tracer.uninstall()
        if problems:
            failed += 1
            errors.append(f"operation {attempted}: " + "; ".join(problems))
            print(errors[-1], file=sys.stderr)

    if not trace:
        started = time.perf_counter()
        while True:
            operation(traced=False, timed=True)
            if time.perf_counter() - started >= seconds:
                break
        set_up_for(w, work, wl.SETUP_SLICE_S, setup_s)
    else:
        # One warm-up operation is discarded; then untraced and traced
        # operations alternate, so that trace.overhead_frac compares warm
        # operations made under the same host conditions.
        operation(traced=False, timed=False)
        started = time.perf_counter()
        while True:
            operation(traced=False, timed=True)
            operation(traced=True, timed=True)
            if time.perf_counter() - started >= seconds:
                break
        tracer.install()
        stop = time.perf_counter() + wl.SETUP_SLICE_S
        while True:
            with tracer.root("setup"):
                wl.setup(w, work)
            if time.perf_counter() >= stop:
                break
        tracer.uninstall()

    result = {
        "attempted": attempted, "failed": failed, "errors": errors[:5],
        "corpus_digest": digest,
        "checked_against": "stored reference" if ref else "invariants only",
        "facts": machine_facts(),
    }
    if trace:
        per_layer = layer_report(tracer)
        untraced, traced = unit_s[False], unit_s[True]
        if untraced and traced:
            per_layer["trace.overhead_frac"] = \
                statistics.median(traced) / statistics.median(untraced) - 1.0
        result["metrics"] = per_layer
        result["samples"] = {"trace.overhead_frac":
                             f"{len(untraced)} untraced, {len(traced)} traced"}
        result["missing"] = tracer.missing
        if spans_path:
            write_spans(tracer, spans_path)
        return result

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = unit_s[False]
    if not units:
        return result
    result["metrics"] = {
        "setup_s": min(setup_s),
        "op_s": statistics.median(units),
        "pairs_per_s": ctx.pairs_per_op * len(op_s) / sum(op_s),
        "peak_rss_mb": peak_rss_mb,
    }
    result["samples"] = {"setup_s": len(setup_s), "op_s": len(units),
                         "pairs_per_s": len(op_s)}
    result["seconds"] = {"setup": setup_s, "ops": op_s, "units": units}
    # the same figures under the names of the workload's own unit of work
    named = {"failed_frac": failed / attempted}
    if w.kind == "train":
        named["epoch_s"] = result["metrics"]["op_s"]
        named["train_pairs_per_s"] = result["metrics"]["pairs_per_s"]
        t = wl.tail(units)
        named["epoch_s_tail"] = (None if t is None else
                                 {"value": t[0], "percentile": t[1],
                                  "n": len(units)})
    else:
        named["eval_s"] = result["metrics"]["op_s"]
    result["named"] = named
    return result


def write_spans(tracer: Tracer, path: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.layer, s.start, s.end, s.parent,
                                 s.run_id]) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("step", choices=("prepare", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, help="required by measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    w = wl.WORKLOADS[args.workload]
    if args.step == "prepare":
        facts = wl.prepare(w, args.seed, args.work)
        with open(os.path.join(args.work, "prepared.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(facts, fh)
        return 0
    if args.seconds is None:
        p.error("measure needs --seconds")
    result = measure(w, args.seed, args.work, args.seconds, bool(args.trace),
                     args.record, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
