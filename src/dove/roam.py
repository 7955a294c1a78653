"""Region-oriented attention: visual fusion and visual-guided text.

Fusion relates each image's multiscale rows to its region rows, over a
batch of b images: F_M (b, n_m, d) and F_R (b, n_r, d), block by block:

    F_M' = F_M W_m + b_m          F_R' = F_R W_r + b_r
    S    = sigmoid(F_M' F_R'^T)                       -- (b, n_m, n_r)
    rows = [S F_R' + F_M' ; S^T F_M' + F_R']          -- (b, n_m + n_r, d)
    F_MR = head(rows)

Guidance (per image-text pair) gates a pooled text vector by its scalar
affinity with the pooled region vector:

    f_r = e_r W_r + b_r           f_g = e_g W_g + b_g
    gate = sigmoid(<f_r, f_g>)
    u = gate * f_g + f_g
    T_RG = head(u)                (nonlinear head keeps a residual +u)

Heads: "linear" is a single affine map; "nonlinear" is a two-layer map
with interior rectifier plus a residual connection.  Both cross products
inside fusion contract over an unordered row set.  They are plain
products: ``Model.encode_images`` hands fusion each image's rows in one
canonical order, which makes region- and scale-permutation invariance
exact at the bit level.
"""
from __future__ import annotations

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
    return ag.add(two_layer(x, reg, prefix), x)


def ifa_fuse(f_m: Tensor, f_r: Tensor, reg: ParamRegistry,
             head: str = "linear") -> Tensor:
    """Fused visual rows, shape (b, n_m + n_r, d)."""
    fm = ag.affine(f_m, reg["ifa.w_m"], reg["ifa.b_m"])
    fr = ag.affine(f_r, reg["ifa.w_r"], reg["ifa.b_r"])
    rel = ag.sigmoid(ag.matmul(fm, ag.transpose(fr)))
    region_to_scale = ag.add(ag.matmul(rel, fr), fm)
    scale_to_region = ag.add(ag.matmul(ag.transpose(rel), fm), fr)
    rows = ag.concat(region_to_scale, scale_to_region, axis=-2)
    return _head(rows, reg, "ifa.head", head)


def fuse_visual(f_m: Tensor, f_r: Tensor, reg: ParamRegistry,
                head: str = "linear", disabled: bool = False) -> Tensor:
    """Fused rows, or the plain row concatenation when fusion is off."""
    if disabled:
        return ag.concat(f_m, f_r, axis=-2)
    return ifa_fuse(f_m, f_r, reg, head)


def iga_transform_regions(e_r: Tensor, reg: ParamRegistry) -> Tensor:
    """(m, d) pooled region vectors -> their guidance projections."""
    return ag.affine(e_r, reg["iga.w_r"], reg["iga.b_r"])


def iga_transform_text(e_g: Tensor, reg: ParamRegistry) -> Tensor:
    return ag.affine(e_g, reg["iga.w_g"], reg["iga.b_g"])


def iga_guide_rows(f_r_row: Tensor, f_g_rows: Tensor, reg: ParamRegistry,
                   head: str = "nonlinear") -> Tensor:
    """Guided text embeddings of one image against many texts at once.

    ``f_r_row`` is the image's (1, d) guidance projection, ``f_g_rows``
    the (n, d) text projections.  Row j is T_RG for pair (image, text_j),
    and its gate reads only row j, so each pair is guided on its own.
    """
    if f_r_row.data.shape[0] != 1:
        raise ag.DimensionError(
            f"guidance takes one (1, d) region row, got {f_r_row.data.shape}")
    gates = ag.sigmoid(ag.matmul(f_g_rows, ag.transpose(f_r_row)))  # (n, 1)
    u = ag.mul(f_g_rows, ag.add(gates, 1.0))
    return _head(u, reg, "iga.head", head)
