"""Span tracing of the dove engine, installed from outside it.

The tracer replaces selected dove functions with timing wrappers.  A
function is wrapped under every name a dove module looks it up by: a
function imported with ``from .evaluation import similarity_matrix``
lives in both ``dove.evaluation`` and ``dove.train``, and both globals
are replaced.  Methods are wrapped on their class.  A listed function
that the engine no longer has is reported as missing.

Functions that are not listed (the autograd primitives, ``roam.pool``,
the parameter registry) run inside their caller's span, so their time
is part of the caller's self time.

Each call records a span ``(name, layer, start, end, parent, run_id)``
in memory; ``run_id`` is the index of the root span (one set-up or one
operation of the benchmark) the call belongs to.  Counts are made at
the same boundaries, after the span closes, so they add no time to it.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 for a root
    run_id: int      # index of the root span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=lambda k: spans[k].start):
            a, b = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


def graph_nodes(root) -> int:
    """Distinct tensors reachable from ``root`` through ``_parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# (module, qualified name, layer).  Layers are dove modules; roam and
# evaluation are split by the job their functions do.
TRACED = [
    *(("dove.dataio", f, "dataio") for f in (
        "load_dataset", "load_feature_bank", "read_bank_header",
        "load_vocab", "load_captions", "load_embedding_table")),
    *(("dove.batching", f, "batching") for f in (
        "split_dataset", "training_batches", "gather_batch")),
    *(("dove.visual_encoder", f, "visual_encoder") for f in (
        "register_visual_params", "msv_project", "roi_project")),
    *(("dove.roam", f, "roam.ifa") for f in (
        "register_ifa_params", "ifa_fuse", "fuse_visual")),
    *(("dove.roam", f, "roam.iga") for f in (
        "register_iga_params", "iga_transform_regions", "iga_transform_text",
        "iga_guide", "iga_guide_rows")),
    *(("dove.text_encoder", f, "text_encoder") for f in (
        "register_gru_params", "embed_tokens", "bigru")),
    *(("dove.gated_attention", f, "gated_attention") for f in (
        "register_ga_params", "register_dtga_params", "gated_self_attention",
        "dtga", "select_inputs", "word_features")),
    *(("dove.model", f, "model") for f in (
        "stack_rows", "Model.__init__", "Model.bind_feature_widths",
        "Model.encode_image", "Model.encode_caption", "Model.guided_text_rows",
        "Model.pair_text_embedding", "Model.score_matrices",
        "Model.batch_losses")),
    *(("dove.objective", f, "objective") for f in (
        "cosine", "cosine_matrix", "triplet_loss", "total_loss")),
    *(("dove.optimizer", f, "optimizer") for f in (
        "init_adam", "adam_step", "lr_at")),
    ("dove.autograd", "Tensor.backward", "autograd"),
    *(("dove.evaluation", f, "evaluation.similarity") for f in (
        "encode_images", "encode_captions", "similarity_matrix")),
    *(("dove.evaluation", f, "evaluation.recall") for f in (
        "recall_at_k", "recall_block", "mean_recall")),
    *(("dove.evaluation", f, "evaluation.distances") for f in (
        "embedding_distances", "euclidean")),
    ("dove.evaluation", "subset_eval", "evaluation.subset"),
    ("dove.train", "_val_mr", "train.validation"),
    ("dove.train", "save_checkpoint", "train.checkpoint_write"),
    ("dove.train", "load_checkpoint", "train.checkpoint_read"),
    ("dove.train", "model_from_checkpoint", "train.checkpoint_read"),
]

# calls whose arguments are counted (see Tracer._counted)
COUNTED_CALLS = {
    "dove.text_encoder.embed_tokens", "dove.roam.iga_guide_rows",
    "dove.roam.iga_guide", "dove.evaluation.encode_captions",
    "dove.autograd.Tensor.backward", "dove.train.save_checkpoint",
}



class _CountingFile:
    """File proxy that adds the bytes each read returns to a counter."""

    def __init__(self, fh, add):
        self._fh, self._add = fh, add

    def _seen(self, data):
        self._add(len(data.encode("utf-8")) if isinstance(data, str)
                  else len(data))
        return data

    def read(self, *args):
        return self._seen(self._fh.read(*args))

    def __iter__(self):
        for line in self._fh:
            yield self._seen(line)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run_id = -1
        self._kind = None
        self._encoded: dict[int, set] = defaultdict(set)
        self._undo: list = []

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def root(self, kind: str):
        """One benchmark step ("setup" or "op"); every call inside is its child."""
        self._run_id, self._kind = len(self.spans), kind
        self.counts[f"{kind}.roots"] += 1
        span = Span(kind, "bench", time.perf_counter(), 0.0, -1, self._run_id)
        self.spans.append(span)
        self._stack.append(self._run_id)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._run_id, self._kind = -1, None

    def count(self, key: str, amount: float):
        """Add to a count of the current root kind; outside a root, drop it."""
        if self._kind is not None:
            self.counts[f"{self._kind}.{key}"] += amount

    def _call(self, name, layer, fn, args, kwargs):
        if self._kind is None:  # outside any benchmark step: not traced
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, time.perf_counter(), 0.0, parent, self._run_id)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name in COUNTED_CALLS:
            # counting is tracer work: its own span keeps it out of the
            # caller's self time
            count_span = Span("count", "trace", time.perf_counter(), 0.0,
                              parent, self._run_id)
            self.spans.append(count_span)
            self._counted(name, args, kwargs)
            count_span.end = time.perf_counter()
        return result

    def _scope(self) -> int:
        """Innermost validation span, else the root: one parameter state."""
        for idx in reversed(self._stack):
            if self.spans[idx].layer == "train.validation":
                return idx
        return self._run_id

    def _counted(self, name, args, kwargs):
        def arg(i, key):
            return args[i] if len(args) > i else kwargs[key]

        if name == "dove.text_encoder.embed_tokens":
            self.count("text_encoder.tokens", len(arg(0, "token_ids")))
        elif name == "dove.roam.iga_guide_rows":
            self.count("roam.iga.pairs", arg(1, "f_g_rows").data.shape[0])
        elif name == "dove.roam.iga_guide":
            self.count("roam.iga.pairs", 1)
        elif name == "dove.evaluation.encode_captions":
            ids = list(arg(2, "caption_indices"))
            seen = self._encoded[self._scope()]
            fresh = set(ids) - seen
            seen.update(fresh)
            self.count("evaluation.captions_encoded", len(ids))
            self.count("evaluation.captions_distinct", len(fresh))
        elif name == "dove.autograd.Tensor.backward":
            self.count("autograd.steps", 1)
            self.count("autograd.nodes", graph_nodes(args[0]))
        elif name == "dove.train.save_checkpoint":
            self.count("train.checkpoint_bytes",
                       os.path.getsize(arg(0, "path")))

    # ------------------------------------------------------ installation

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, layer, fn, args, kwargs)
        return traced

    def install(self):
        """Wrap every TRACED function; record the ones that do not exist.

        A traced run installs and uninstalls once per traced operation.
        """
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "dove" or n.startswith("dove.")) and m is not None]
        for module_name, qualname, layer in TRACED:
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapped = self._wrap(original, f"{module_name}.{qualname}", layer)
            if owner_name:  # a method: one lookup site, the class
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        # dataio opens its files through the builtin, found via its globals
        dataio = sys.modules.get("dove.dataio")
        if dataio is None:
            self.missing.append("dove.dataio.open")
        else:
            add = lambda n: self.count("dataio.bytes_read", n)
            self._patch(dataio, "open",
                        lambda *a, **k: _CountingFile(open(*a, **k), add))

    def _patch(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, had, value in reversed(self._undo):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()


# (name, unit, better): the per-layer metrics of a traced run
PER_LAYER = [
    ("dataio.self_s", "s", "lower"),
    ("dataio.bytes_read", "B", "lower"),
    ("batching.self_s", "s", "lower"),
    ("visual_encoder.self_s", "s", "lower"),
    ("visual_encoder.calls", "count", "lower"),
    ("roam.ifa.self_s", "s", "lower"),
    ("roam.ifa.calls", "count", "lower"),
    ("text_encoder.self_s", "s", "lower"),
    ("text_encoder.calls", "count", "lower"),
    ("text_encoder.tokens", "count", "lower"),
    ("gated_attention.self_s", "s", "lower"),
    ("gated_attention.calls", "count", "lower"),
    ("model.self_s", "s", "lower"),
    ("roam.iga.self_s", "s", "lower"),
    ("roam.iga.pairs", "count", "lower"),
    ("objective.self_s", "s", "lower"),
    ("optimizer.self_s", "s", "lower"),
    ("optimizer.calls", "count", "lower"),
    ("autograd.backward_s", "s", "lower"),
    ("autograd.nodes_per_step", "count", "lower"),
    ("evaluation.similarity.self_s", "s", "lower"),
    ("evaluation.recall.self_s", "s", "lower"),
    ("evaluation.distances.self_s", "s", "lower"),
    ("evaluation.subset.self_s", "s", "lower"),
    ("evaluation.captions_encoded", "count", "lower"),
    ("evaluation.encode_useful_frac", "frac", "higher"),
    ("train.validation_s", "s", "lower"),
    ("train.checkpoint_write_s", "s", "lower"),
    ("train.checkpoint_bytes", "B", "lower"),
    ("train.checkpoint_read_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
]

ROOT_KINDS = ("setup", "op")


def layer_report(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for one set-up plus one operation.

    Spans and counts under set-up roots are divided by the number of
    set-ups, those under operation roots by the number of operations.
    ``<layer>.self_s`` sums self time over the layer's spans;
    ``<layer>.calls`` counts calls into the layer from another layer;
    the other ``_s`` figures are the full duration of those calls.
    ``trace.overhead_frac`` is left to the caller, which ran the
    untraced operations it is measured against.
    """
    spans = tracer.spans
    n_roots = {k: tracer.counts.get(f"{k}.roots", 0.0) for k in ROOT_KINDS}
    self_s = defaultdict(float)
    inner_s = defaultdict(float)
    calls = defaultdict(int)    # (layer, root kind): whole numbers, so the
                                # figures per root repeat exactly
    root_self = root_total = 0.0
    for s, own in zip(spans, self_times(spans)):
        w = 1.0 / n_roots[spans[s.run_id].name]
        if s.parent < 0:
            root_self += own * w
            root_total += (s.end - s.start) * w
            continue
        self_s[s.layer] += own * w
        if spans[s.parent].layer != s.layer:
            calls[s.layer, spans[s.run_id].name] += 1
            inner_s[s.layer] += (s.end - s.start) * w

    def count(key):
        return sum(tracer.counts.get(f"{k}.{key}", 0.0) / n
                   for k, n in n_roots.items() if n)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, measure = name.rpartition(".")
        if measure == "self_s":
            out[name] = self_s[layer]
        elif measure == "calls":
            out[name] = sum(calls[layer, k] / n
                            for k, n in n_roots.items() if n)
    out.update({
        "dataio.bytes_read": count("dataio.bytes_read"),
        "text_encoder.tokens": count("text_encoder.tokens"),
        "roam.iga.pairs": count("roam.iga.pairs"),
        "autograd.backward_s": inner_s["autograd"],
        "autograd.nodes_per_step": ratio(count("autograd.nodes"),
                                         count("autograd.steps")),
        "evaluation.captions_encoded": count("evaluation.captions_encoded"),
        "evaluation.encode_useful_frac": ratio(
            count("evaluation.captions_distinct"),
            count("evaluation.captions_encoded")),
        "train.validation_s": inner_s["train.validation"],
        "train.checkpoint_write_s": inner_s["train.checkpoint_write"],
        "train.checkpoint_bytes": count("train.checkpoint_bytes"),
        "train.checkpoint_read_s": inner_s["train.checkpoint_read"],
        "trace.unattributed_frac": ratio(root_self, root_total),
    })
    return out
