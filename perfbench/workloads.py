"""The benchmark's workloads: inputs, one operation each, and output checks.

Every workload is a closed loop: one process runs one operation after
another.  Inputs are a pure function of the workload seed; they are made
with ``dove.synth`` (and, for eval, a freshly initialised checkpoint) in
untimed set-up, so the engine only ever sees generated files.

Why these three:

* ``desk-train`` -- the acceptance criterion 05 corpus and config.  Its
  steps build hundreds of tiny graphs, so time goes to per-op Python
  dispatch, graph bookkeeping, Adam and per-epoch validation, not BLAS.
* ``paper-train`` -- paper width (d=512, d_in=512, d_r=256, 10-20 token
  captions) at B=32.  Backward through the per-token GRU recurrences
  dominates the step; the call ends with a ~246 MB checkpoint write.
  One call takes about 25 s, longer than a 20 s run, so an untraced run
  holds exactly one call: pairs_per_s rests on that call and op_s on its
  three epoch intervals, and the rerun check (two calls of one process
  must agree bit for bit) fires only in traced runs, which make three.
* ``paper-eval`` -- one ``build_report`` over a d=512 checkpoint: no
  graph and no backward; caption encoding under ``no_grad`` dominates,
  and each caption is encoded about 2.5 times per report.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

# the workload seed a claim is tuned on, and the one kept back to confirm it
MAIN_SEED = 1
HELD_OUT_SEED = 7919

# (name, unit, better): reported by every untraced run
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("pairs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Set-ups run back to back for this long before the operations and again
# after them; setup_s is the fastest of them.  A shared host slows this
# process by up to 1.7x for seconds to minutes at a time, and that only
# ever adds time.  For the 1 ms training set-up the mean of one run moved
# by 40% between host periods and the median jumped between the fast and
# the slow speed, while the fastest set-up moved by 5%.
SETUP_SLICE_S = 2.0

# outputs are compared to the stored reference at this tolerance; reruns
# inside one run must agree bit for bit
REL_TOL = 1e-6
ABS_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train" or "eval"
    images: int
    synth: dict
    config: dict


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-train", kind="train", images=32,
        synth=dict(n_clusters=4, n_m=4, n_r=36, d_in=64, d_r=32,
                   caption_len_range=(4, 8), captions_per_image=5),
        config=dict(d=64, heads=2, batch_size=8, epochs=8, lr0=0.002,
                    decay_factor=0.7, decay_every=20, val_fraction=0.0)),
    Workload(
        name="paper-train", kind="train", images=40,
        synth=dict(n_clusters=4, n_m=4, n_r=36, d_in=512, d_r=256,
                   caption_len_range=(10, 20), captions_per_image=1),
        config=dict(d=512, heads=2, batch_size=32, epochs=4,
                    val_fraction=0.2)),
    Workload(
        name="paper-eval", kind="eval", images=24,
        synth=dict(n_clusters=4, n_m=4, n_r=36, d_in=512, d_r=256,
                   caption_len_range=(10, 20), captions_per_image=5),
        config=dict(d=512)),
)}


def train_config(w: Workload, seed: int):
    from dove.config import TrainConfig
    return TrainConfig(seed=seed, **w.config).validate()


# ------------------------------------------------------------ preparation

def prepare(w: Workload, seed: int, work: str) -> dict:
    """Write the corpus (and eval checkpoint) under ``work``; return digests."""
    from dove import synth
    data = os.path.join(work, "data")
    ds = synth.synth_dataset(seed, w.images, **w.synth)
    manifest = synth.write_dataset(ds, data)
    digest = hashlib.sha256()
    for name in sorted(manifest):
        digest.update(f"{name}\t{manifest[name]}\n".encode())
    if w.kind == "eval":
        from dove.model import Model
        from dove.optimizer import init_adam
        from dove.train import save_checkpoint
        cfg = train_config(w, seed)
        model = Model(cfg, ds.embedding)
        d_in, d_r = ds.msv.shape[2], ds.roi.shape[2]
        model.bind_feature_widths(d_in, d_r)
        values = {n: t.data for n, t in model.reg.tensors().items()}
        path = os.path.join(work, "checkpoint.bin")
        save_checkpoint(path, cfg, d_in, d_r, values, init_adam(model.reg))
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).hexdigest().encode())
        with open(os.path.join(work, "subset.txt"), "w") as fh:
            fh.writelines(f"{i}\n" for i in range(0, w.images, 2))
    return {"corpus_digest": digest.hexdigest()}


# ------------------------------------------------------ set-up and operations

@dataclass
class Context:
    ds: object
    model: object = None
    subset: list = None
    pairs_per_op: int = 0


def setup(w: Workload, work: str) -> Context:
    """What a user pays before the first operation (timed as setup_s)."""
    from dove import dataio, train
    ds = dataio.load_dataset(os.path.join(work, "data"))
    if w.kind == "train":
        return Context(ds)
    ckpt = train.load_checkpoint(os.path.join(work, "checkpoint.bin"))
    return Context(ds, model=train.model_from_checkpoint(ckpt, ds))


def finish_setup(w: Workload, ctx: Context, seed: int, work: str):
    """Untimed facts the operations need: pairs per op, the subset file."""
    from dove import batching, evaluation
    if w.kind == "train":
        cfg = train_config(w, seed)
        split = batching.split_dataset(ctx.ds, cfg.val_fraction, cfg.seed)
        per_epoch = sum(len(b) for b in batching.training_batches(
            ctx.ds, split.train_pairs, cfg.batch_size, cfg.seed, 0))
        ctx.pairs_per_op = per_epoch * cfg.epochs
    else:
        ctx.subset = evaluation.load_subset_file(os.path.join(work, "subset.txt"))
        ctx.pairs_per_op = len(ctx.ds.captions)


def run_op(w: Workload, ctx: Context, seed: int, work: str):
    """One operation; returns (output, seconds, per-epoch intervals)."""
    if w.kind == "train":
        from dove import train
        stamps = []
        cfg = train_config(w, seed)
        started = time.perf_counter()
        result = train.train(cfg, ctx.ds, os.path.join(work, "out"),
                             progress=lambda _: stamps.append(time.perf_counter()))
        seconds = time.perf_counter() - started
        output = {
            "epochs": [{"loss_total": float(e.loss_total),
                        "loss_final": float(e.loss_final),
                        "loss_global": float(e.loss_global),
                        "val_mr": float(e.val_mr)} for e in result.epochs],
            "best_epoch": result.best_epoch,
            "best_val_mr": float(result.best_val_mr),
        }
        return output, seconds, [b - a for a, b in zip(stamps, stamps[1:])]
    from dove import evaluation
    started = time.perf_counter()
    report = evaluation.build_report(
        ctx.model, ctx.ds, list(range(ctx.ds.n_images)), "all",
        [("half", ctx.subset)], with_distances=True)
    seconds = time.perf_counter() - started
    payload = json.loads(report.to_json())
    output = {k: payload[k] for k in
              ("n_images", "n_texts", "full", "subsets", "distances")}
    return output, seconds, []


# ---------------------------------------------------------------- checking

def compare(actual, expected, rel: float = REL_TOL, abs_: float = ABS_TOL,
            path: str = "") -> list[str]:
    """Every difference between two JSON-like values, as readable lines.

    Floats match within ``rel`` or ``abs_``; everything else must be equal.
    """
    where = path or "<root>"
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        out = [f"{where}: missing key {k!r}" for k in expected if k not in actual]
        out += [f"{where}: unexpected key {k!r}" for k in actual if k not in expected]
        for k in expected:
            if k in actual:
                out += compare(actual[k], expected[k], rel, abs_, f"{path}.{k}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}, got {actual!r}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, rel, abs_, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if actual != expected or type(actual) is not type(expected):
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def invariants(w: Workload, output: dict) -> list[str]:
    """Properties every correct output has, whatever the seed."""
    bad = []
    if w.kind == "train":
        lam = train_config(w, MAIN_SEED).lambda_g
        epochs = output["epochs"]
        if len(epochs) != w.config["epochs"]:
            bad.append(f"{len(epochs)} epochs, expected {w.config['epochs']}")
        for i, e in enumerate(epochs):
            if not all(_finite(v) and v >= 0 for v in e.values()):
                bad.append(f"epoch {i}: negative or non-finite value {e}")
            elif not 0 <= e["val_mr"] <= 100:
                bad.append(f"epoch {i}: val_mr {e['val_mr']} outside [0, 100]")
            if not math.isclose(e["loss_total"],
                                e["loss_final"] + lam * e["loss_global"],
                                rel_tol=1e-9, abs_tol=1e-9):
                bad.append(f"epoch {i}: loss_total is not final + "
                           f"lambda_g * global")
        if epochs and epochs[-1]["loss_total"] >= epochs[0]["loss_total"]:
            bad.append("training loss did not fall over the run")
        best = max(e["val_mr"] for e in epochs) if epochs else None
        if output["best_val_mr"] != best:
            bad.append(f"best_val_mr {output['best_val_mr']} is not the best "
                       f"epoch's val_mr {best}")
        return bad
    blocks = [("full", output["full"])] + [
        (f"subset[{s.get('source')}]", s) for s in output["subsets"]]
    for label, block in blocks:
        for d in ("i2t", "t2i"):
            r = [block[f"r{k}_{d}"] for k in (1, 5, 10)]
            if not all(_finite(v) and 0 <= v <= 100 for v in r) or r != sorted(r):
                bad.append(f"{label}: {d} recalls {r} not rising within [0, 100]")
        six = [block[f"r{k}_{d}"] for d in ("i2t", "t2i") for k in (1, 5, 10)]
        if not math.isclose(block["mr"], sum(six) / 6, rel_tol=1e-12,
                            abs_tol=1e-12):
            bad.append(f"{label}: mr is not the mean of the six recalls")
    if output["n_texts"] != output["n_images"] * w.synth["captions_per_image"]:
        bad.append(f"n_texts {output['n_texts']} does not match the corpus")
    (half,) = output["subsets"]
    if half["n_images"] != (w.images + 1) // 2:
        bad.append(f"subset has {half['n_images']} images")
    for key, stats in (output["distances"] or {}).items():
        if stats["n_pairs"] != output["n_texts"]:
            bad.append(f"distances {key}: {stats['n_pairs']} pairs")
        if not all(_finite(stats[s]) and 0 <= stats[s] <= 2
                   for s in ("mean", "median", "stddev")):
            bad.append(f"distances {key}: statistics outside [0, 2]: {stats}")
    if not output["distances"]:
        bad.append("report has no distance statistics")
    return bad


def reference_path(here: str, w: Workload) -> str:
    return os.path.join(here, "refs", f"{w.name}.json")


def load_reference(here: str, w: Workload, seed: int) -> dict | None:
    try:
        with open(reference_path(here, w), encoding="utf-8") as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None


def record_reference(here: str, w: Workload, seed: int, digest: str,
                     output: dict):
    path = reference_path(here, w)
    try:
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    refs[str(seed)] = {"corpus_digest": digest, "output": output}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------- statistics

def tail(values: list[float], beyond: int = 10):
    """(value, percentile) of the highest rank with ``beyond`` samples above it.

    None when there are not more than ``beyond`` samples.
    """
    n = len(values)
    if n <= beyond:
        return None
    return sorted(values)[n - beyond - 1], 100.0 * (n - beyond) / n
