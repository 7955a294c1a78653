"""Region-oriented attention: visual fusion and visual-guided text.

Fusion relates each image's multiscale rows to its region rows.  The
rows of b images arrive image-major, (b·n_m, d) and (b·n_r, d), and per
image, with F_M and F_R its rows,

    F_M' = F_M W_m + b_m          F_R' = F_R W_r + b_r
    S    = sigmoid(F_M' F_R'^T)                       -- (n_m, n_r)
    rows = [S F_R' + F_M' ; S^T F_M' + F_R']          -- (n_m + n_r, d)
    F_MR = head(rows)

with S and rows made by one ``autograd.cross_rows`` node for all b.

Guidance (per image-text pair) gates a pooled text vector by its scalar
affinity with the pooled region vector:

    f_r = e_r W_r + b_r           f_g = e_g W_g + b_g
    gate = sigmoid(<f_r, f_g>)
    u = gate * f_g + f_g
    T_RG = head(u)                (nonlinear head keeps a residual +u)

``iga_scores`` scores every image against every caption by
cos(V_MR, T_RG) as one ``autograd.guided_scores`` node, which guides
each pair on its own; ``iga_pair_rows`` gives the T_RG rows of chosen
pairs from the same block math, with no graph.

Heads: "linear" is a single affine map; "nonlinear" is a two-layer map
with interior rectifier plus a residual connection.  Both cross products
inside fusion contract over an unordered row set.  They are plain
products: ``Model.encode_images`` hands fusion each image's rows in one
canonical order, which makes region- and scale-permutation invariance
exact at the bit level.
"""
from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .params import ParamRegistry, register_two_layer, two_layer


def _register(reg: ParamRegistry, prefix: str, inputs: tuple[str, str],
              d: int, head: str):
    for name in inputs:
        reg.matrix(f"{prefix}.w_{name}", d, d)
        reg.bias(f"{prefix}.b_{name}", d)
    if head == "linear":
        reg.matrix(f"{prefix}.head.w", d, d)
        reg.bias(f"{prefix}.head.b", d)
    else:
        register_two_layer(reg, f"{prefix}.head", d)


def register_ifa_params(reg: ParamRegistry, d: int, head: str):
    _register(reg, "ifa", ("m", "r"), d, head)


def register_iga_params(reg: ParamRegistry, d: int, head: str):
    _register(reg, "iga", ("r", "g"), d, head)


def _head(x: Tensor, reg: ParamRegistry, prefix: str, head: str) -> Tensor:
    if head == "linear":
        return ag.affine(x, reg[f"{prefix}.w"], reg[f"{prefix}.b"])
    return two_layer(x, reg, prefix, "residual")


def ifa_fuse(f_m: Tensor, f_r: Tensor, reg: ParamRegistry, images: int,
             head: str) -> Tensor:
    """Fused rows of ``images`` images, (images·(n_m + n_r), d)."""
    fm = ag.affine(f_m, reg["ifa.w_m"], reg["ifa.b_m"])
    fr = ag.affine(f_r, reg["ifa.w_r"], reg["ifa.b_r"])
    return _head(ag.cross_rows(fm, fr, images), reg, "ifa.head", head)


def fuse_visual(f_m: Tensor, f_r: Tensor, reg: ParamRegistry, images: int,
                head: str, disabled: bool) -> Tensor:
    """Fused rows, or each image's rows joined when fusion is off: its
    n_m multiscale rows, then its n_r region rows."""
    if not disabled:
        return ifa_fuse(f_m, f_r, reg, images, head)
    k, n = f_m.shape[0], f_m.shape[0] + f_r.shape[0]
    by_image = np.hstack([np.arange(k).reshape(images, -1),
                          np.arange(k, n).reshape(images, -1)])
    return ag.take_rows(ag.concat(f_m, f_r), by_image.reshape(-1))


def iga_transform_regions(e_r: Tensor, reg: ParamRegistry) -> Tensor:
    """(m, d) pooled region vectors -> their guidance projections."""
    return ag.affine(e_r, reg["iga.w_r"], reg["iga.b_r"])


def iga_transform_text(e_g: Tensor, reg: ParamRegistry) -> Tensor:
    return ag.affine(e_g, reg["iga.w_g"], reg["iga.b_g"])


def _guidance(v_r: Tensor, t_g: Tensor, reg: ParamRegistry, head: str):
    """(f_r, f_g, head parameters) in ``autograd.guided_scores``' order."""
    names = ("w", "b") if head == "linear" else ("w1", "b1", "w2", "b2")
    return (iga_transform_regions(v_r, reg), iga_transform_text(t_g, reg),
            [reg[f"iga.head.{n}"] for n in names])


def iga_scores(v_mr: Tensor, v_r: Tensor, t_g: Tensor, reg: ParamRegistry,
               head: str) -> Tensor:
    """(N, M) cos(V_MR_i, T_RG(i, j)) of N images' (N, d) fused and region
    codes against M captions' (M, d) T_G rows."""
    return ag.guided_scores(v_mr, *_guidance(v_r, t_g, reg, head))


def iga_pair_rows(v_r: Tensor, t_g: Tensor, reg: ParamRegistry,
                  head: str) -> np.ndarray:
    """T_RG of each row pair (v_r[k], t_g[k]), values only."""
    with ag.no_grad():
        return ag.guided_rows(*_guidance(v_r, t_g, reg, head))
