"""Named registry for every learned matrix and bias: name -> Tensor.

Biases start at zero.  A matrix's initial values are a pure function of
(seed, name): each draws a uniform Glorot sample from its own splitmix64
stream keyed by the parameter name, so the order in which modules
register parameters can never shift another entry's initialization.  A
registry restoring a checkpoint takes each value from the checkpoint at
registration and draws nothing.

``two_layer`` is the model's one two-layer map from registry entries, one
``autograd.mlp`` node: with a residual it is the nonlinear fusion head,
the multiscale projection and the text enhancer's decoder, with a
sigmoid the enhancer's probes.  The nonlinear guidance head registers
its entries through ``register_two_layer`` too, but
``autograd.guided_scores`` applies that map inside the grid node.
"""
from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .rng import RngStream, derive_seed


def init_values(name: str, shape: tuple[int, int], seed: int) -> np.ndarray:
    """A matrix's initial array, uniform in +-sqrt(6 / (fan_in + fan_out))."""
    a = float(np.sqrt(6.0 / sum(shape)))
    stream = RngStream(derive_seed(seed, "init", name))
    return stream.uniform(int(np.prod(shape)), -a, a).reshape(shape)


class ParamSetError(ValueError):
    """Given values whose names or shapes differ from the registered ones."""


class ParamRegistry:
    """Insertion-ordered mapping of parameter names to tensors.

    With ``values`` (name -> array), every registration copies its value
    from there instead of drawing an initial one; ``check_complete`` then
    rejects the values no registration took.
    """

    def __init__(self, seed: int, values: dict[str, np.ndarray] | None = None):
        self.seed = seed
        self._tensors: dict[str, Tensor] = {}
        self._given = None if values is None else dict(values)

    def register(self, name: str, shape: tuple[int, ...]) -> Tensor:
        """A matrix (rank 2) or a bias (rank 1) named ``name``."""
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        if self._given is not None:
            data = self._take(name, shape)
        elif len(shape) == 2:
            data = init_values(name, shape, self.seed)
        else:
            data = np.zeros(shape)
        t = self._tensors[name] = Tensor(data, requires_grad=True)
        return t

    def matrix(self, name: str, rows: int, cols: int) -> Tensor:
        return self.register(name, (rows, cols))

    def bias(self, name: str, width: int) -> Tensor:
        return self.register(name, (width,))

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def tensors(self) -> dict[str, Tensor]:
        return dict(self._tensors)

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    def _take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in self._given:
            raise ParamSetError(f"parameter set mismatch: missing {name!r}")
        arr = self._given.pop(name)
        if arr.shape != shape:
            raise ParamSetError(f"shape mismatch for {name}: {shape} vs {arr.shape}")
        return np.array(arr, dtype=np.float64)  # a copy: never alias the source

    def check_complete(self):
        """Reject given values that no registration took."""
        if self._given:
            raise ParamSetError(f"parameter set mismatch: extra {sorted(self._given)}")


def register_two_layer(reg: ParamRegistry, prefix: str, d: int):
    """The (d, d) maps and biases of ``two_layer``, in w1, b1, w2, b2 order."""
    reg.matrix(f"{prefix}.w1", d, d)
    reg.bias(f"{prefix}.b1", d)
    reg.matrix(f"{prefix}.w2", d, d)
    reg.bias(f"{prefix}.b2", d)


def two_layer(x: Tensor, reg: ParamRegistry, prefix: str, tail: str) -> Tensor:
    """``autograd.mlp`` with the entries ``prefix.w1`` .. ``prefix.b2``."""
    names = ("w1", "b1", "w2", "b2")
    return ag.mlp(x, *(reg[f"{prefix}.{n}"] for n in names), tail)
