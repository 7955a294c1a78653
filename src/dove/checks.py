"""Finite-difference verification sweeps over primitives and modules.

Used by the `gradcheck` CLI command and the acceptance suite.  The micro
fixture is small enough that a full sweep finishes in seconds: d=8,
2 heads, 2 multiscale rows, 3 regions, 3-token captions, batch of 2.
"""
from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor, grad_check
from .batching import Batch
from .config import TrainConfig
from .model import Model
from .rng import RngStream, derive_seed

GRADCHECK_TOLERANCE = 1e-4

MICRO = dict(d=8, heads=2, n_m=2, n_r=3, n_c=3, batch=2, d_in=6, d_r=4,
             vocab=11)


def _rand(stream: RngStream, *shape: int) -> np.ndarray:
    return stream.uniform(int(np.prod(shape)), -1.0, 1.0).reshape(shape)


def primitive_gradcheck(seed: int = 0) -> float:
    """Max relative FD error across every differentiable primitive."""
    stream = RngStream(derive_seed(seed, "primitives"))
    worst = 0.0

    def check(params: dict[str, Tensor], make_out) -> None:
        # weight the op output by a fixed random constant so the FD probe
        # sees non-uniform upstream gradients
        nonlocal worst
        c = ag.constant(_rand(stream, *make_out().data.shape))
        loss_fn = lambda: ag.reduce_sum(ag.mul(make_out(), c))
        worst = max(worst, grad_check(loss_fn, params))

    a = Tensor(_rand(stream, 3, 4), requires_grad=True)
    b = Tensor(_rand(stream, 4, 2), requires_grad=True)
    check({"a": a, "b": b}, lambda: ag.matmul(a, b))
    check({"a": a}, lambda: ag.take_rows(a, [2, 0, 2]))

    x = Tensor(_rand(stream, 3, 4), requires_grad=True)
    y = Tensor(_rand(stream, 3, 4), requires_grad=True)
    check({"x": x, "y": y}, lambda: ag.add(x, y))
    check({"x": x, "y": y}, lambda: ag.mul(x, y))
    check({"x": x}, lambda: ag.mul(x, -1.7))
    check({"x": x}, lambda: ag.add(x, 0.3))
    check({"x": x, "y": y}, lambda: ag.concat(x, y, x))
    # x and y take gradients from the inner add and from mul: a buffer
    # that add gave to both would collect mul's gradients twice
    check({"x": x, "y": y}, lambda: ag.add(ag.add(x, y), ag.mul(x, y)))

    w = Tensor(_rand(stream, 4, 5), requires_grad=True)
    b5 = Tensor(_rand(stream, 5), requires_grad=True)
    check({"x": x, "w": w, "b": b5}, lambda: ag.affine(x, w, b5))

    maps = {name: Tensor(_rand(stream, *shape), requires_grad=True)
            for name, shape in zip(("w1", "b1", "w2", "b2"), [(4, 4), (4,)] * 2)}
    for tail in ("residual", "sigmoid"):
        check({"x": x, **maps}, lambda: ag.mlp(x, *maps.values(), tail))
    check({"x": x, "y": y}, lambda: ag.cosine_grid(x, y))
    check({"x": x}, lambda: ag.reduce_sum(x))

    # scores in (-0.1, 0.1) against a margin of 0.1: some hinge terms
    # are active and some are not
    grid = Tensor(0.1 * _rand(stream, 4, 4), requires_grad=True)
    check({"s": grid}, lambda: ag.triplet_hinge(grid, 0.1))

    # 4 steps, so every U gradient sums terms carried across steps
    gates = {f"x_{g}": Tensor(_rand(stream, 4, 3), requires_grad=True)
             for g in "zrh"}
    gates.update({f"u_{g}": Tensor(_rand(stream, 3, 3), requires_grad=True)
                  for g in "zrh"})
    for reverse in (False, True):
        check(gates, lambda: ag.gru_scan(*gates.values(), reverse=reverse,
                                         packing=ag.Packing([4])))

    # 2 images of 2 scale rows and 3 region rows, image-major
    f_m = Tensor(_rand(stream, 4, 3), requires_grad=True)
    f_r = Tensor(_rand(stream, 6, 3), requires_grad=True)
    check({"m": f_m, "r": f_r}, lambda: ag.cross_rows(f_m, f_r, 2))
    check({"r": f_r}, lambda: ag.mean_rows(f_r, 3))

    # 7 packed rows of 4, 2 and 1 tokens: attention masks padded keys
    packing = ag.Packing([4, 2, 1])
    rows = Tensor(_rand(stream, 7, 4), requires_grad=True)
    heads = [[Tensor(_rand(stream, *shape), requires_grad=True)
              for shape in [(4, 2), (2,)] * 3 + [(2, 2), (2,)]]
             for _ in range(2)]
    check({"x": rows, **{f"h{i}.{j}": t for i, h in enumerate(heads)
                         for j, t in enumerate(h)}},
          lambda: ag.gated_attention(rows, packing, heads))
    gates = {f"x_{g}": Tensor(_rand(stream, 7, 3), requires_grad=True)
             for g in "zrh"}
    gates.update({f"u_{g}": Tensor(_rand(stream, 3, 3), requires_grad=True)
                  for g in "zrh"})
    for reverse in (False, True):
        check(gates, lambda: ag.gru_scan(*gates.values(), reverse=reverse,
                                         packing=packing))

    # the final grid of 3 images against 2 captions, under both heads
    guide = {name: Tensor(_rand(stream, n, 4), requires_grad=True)
             for name, n in (("v_mr", 3), ("f_r", 3), ("f_g", 2))}
    for shapes in ([(4, 4), (4,)], [(4, 4), (4,)] * 2):
        head = [Tensor(_rand(stream, *shape), requires_grad=True)
                for shape in shapes]
        check({**guide, **{f"head{i}": t for i, t in enumerate(head)}},
              lambda: ag.guided_scores(*guide.values(), head))
    return worst


def micro_fixture(seed: int = 0) -> tuple[Model, Batch]:
    """A tiny but fully wired model and batch for end-to-end checks."""
    m = MICRO
    stream = RngStream(derive_seed(seed, "micro"))
    cfg = TrainConfig(d=m["d"], heads=m["heads"], batch_size=m["batch"],
                      seed=seed, epochs=1, val_fraction=0.0)
    table = _rand(stream, m["vocab"], 300) * 0.5
    model = Model(cfg, table)
    model.bind_feature_widths(m["d_in"], m["d_r"])
    msv = _rand(stream, m["batch"], m["n_m"], m["d_in"])
    roi = _rand(stream, m["batch"], m["n_r"], m["d_r"])
    captions = [[1 + int(u * (m["vocab"] - 1)) for u in stream.uniform(m["n_c"])]
                for _ in range(m["batch"])]
    batch = Batch(msv=msv, roi=roi, captions=captions,
                  image_ids=list(range(m["batch"])),
                  caption_ids=list(range(m["batch"])))
    return model, batch


MODULE_PREFIXES = {
    "visual-encoder": ("visual.",),
    "text-encoder": ("text.",),
    "gated-attention": ("dtga.",),
    "roam": ("ifa.", "iga."),
}


def module_gradcheck(seed: int = 0, max_coords: int = 24) -> dict[str, float]:
    """Per-module max FD error through the full training loss.

    GRU input matrices have 2400 coordinates each, so coordinates are
    deterministically sampled above ``max_coords`` per parameter.
    """
    model, batch = micro_fixture(seed)
    loss_fn = lambda: model.batch_losses(batch)[0]
    tensors = model.reg.tensors()
    report = {}
    for module, prefixes in MODULE_PREFIXES.items():
        subset = {n: t for n, t in tensors.items()
                  if any(n.startswith(p) for p in prefixes)}
        report[module] = grad_check(loss_fn, subset, max_coords=max_coords,
                                    seed=seed)
    report["objective-full"] = grad_check(loss_fn, tensors,
                                          max_coords=max(8, max_coords // 3),
                                          seed=seed)
    return report


def gradcheck_report(seed: int = 0, max_coords: int = 24) -> dict[str, float]:
    report = {"autograd-primitives": primitive_gradcheck(seed)}
    report.update(module_gradcheck(seed, max_coords))
    return report
