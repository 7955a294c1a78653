"""Projections of ingested visual features into the shared width d.

Multiscale rows pass through a residual two-layer map (with an affine
adapter first when the bank width differs from d); region rows get a
single affine projection from their native width.  Both act row by
row, on the image-major rows of a whole chunk of images at once.
"""
from __future__ import annotations

from . import autograd as ag
from .autograd import Tensor
from .params import ParamRegistry, register_two_layer, two_layer


def register_visual_params(reg: ParamRegistry, d: int, d_in: int, d_r: int):
    if d_in != d:
        reg.matrix("visual.msv.adapter.w", d_in, d)
        reg.bias("visual.msv.adapter.b", d)
    register_two_layer(reg, "visual.msv.mlp", d)
    reg.matrix("visual.roi.w", d_r, d)
    reg.bias("visual.roi.b", d)


def msv_project(m_v: Tensor, reg: ParamRegistry) -> Tensor:
    """(rows, d_in) -> (rows, d): residual MLP over (adapted) multiscale
    rows."""
    x = m_v
    if "visual.msv.adapter.w" in reg:
        x = ag.affine(x, reg["visual.msv.adapter.w"], reg["visual.msv.adapter.b"])
    return two_layer(x, reg, "visual.msv.mlp", "residual")


def roi_project(r_v: Tensor, reg: ParamRegistry) -> Tensor:
    """(rows, d_r) -> (rows, d): affine lift of region rows."""
    return ag.affine(r_v, reg["visual.roi.w"], reg["visual.roi.b"])
