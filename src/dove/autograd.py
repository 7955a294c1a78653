"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors hold rank 1..2 arrays.  Ops record a closure graph; ``backward()``
on a size-1 tensor accumulates gradients into every reachable tensor that
has ``requires_grad``, and frees the graph as it walks it.  ``grad_check``
is the verification oracle: every analytic rule is compared against
central finite differences.

``add`` and ``mul`` take two tensors of one shape, or a tensor and a
real number (a Python or NumPy scalar, not an ndarray): the number acts
as a shape-() constant, builds no ``Tensor`` and gets no gradient.  Any
other pair of operands raises ``DimensionError``; nothing broadcasts.

Images travel as image-major rows: b images of m rows each are one
(b·m, n) array, image 0's rows first.  Row-wise ops run on them as on
any matrix, ``mean_rows`` pools each image's run of m rows, and
``cross_rows`` relates each image's multiscale rows to its region rows
as one node.

Sequences of different lengths travel as packed rows: one (N, n) array
of their real rows only, time-major and longest sequence first, laid out
by a ``Packing``.  Row-wise ops run on packed rows as on any matrix, and
``gru_scan`` and ``gated_attention`` take them directly.  The
``Packing`` is the one description of that ragged layout: it pads rows
into a (b, T, n) batch and packs them back, takes the softmax over each
sequence's real keys, and holds the averaging matrix whose product with
the packed rows is each sequence's mean row.

``mlp`` (the one two-layer map, with a residual or a sigmoid tail) and
``cosine_grid`` are one node each.  ``unit_rows`` gives unit rows and
norms as plain values; it builds no graph and is not in ``__all__``.

``guided_scores`` is the model's final grid, cos(v_mr_i, T_RG(i, j))
for every image and caption, as one node: it guides the images a block
at a time and keeps only (N, M) arrays for its backward, which
recomputes each block.  ``guided_rows`` gives the T_RG rows of chosen
pairs from the same block arithmetic, as plain values.
``triplet_hinge`` is the ranking loss's (B, B) grid of hinge terms over
such a grid, as one node.

Ops sum in NumPy's own order.  Invariance to the order of an image's
rows is not made here: ``Model.encode_images`` puts those rows into one
canonical order before any op sees them.
"""
from __future__ import annotations

import contextlib
import math
import numbers

import numpy as np

__all__ = [
    "Tensor", "DimensionError", "DegenerateVectorError", "GraphConsumedError",
    "no_grad", "constant", "matmul", "take_rows", "add", "mul", "affine",
    "mlp", "mean_rows", "reduce_sum", "concat", "cosine_grid", "gru_scan",
    "gated_attention", "cross_rows", "guided_scores", "triplet_hinge",
    "grad_check",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateVectorError(ValueError):
    """A vector that must have nonzero length is numerically zero.

    ``row`` is the first such row of the operand.  ``image`` names the
    operand further where it is a grid of rows: ``guided_scores`` sets it
    to the image whose guided caption row ``row`` was near zero.
    """

    def __init__(self, row: int):
        super().__init__(f"row {row} has near-zero norm")
        self.row = row
        self.image = None


class GraphConsumedError(RuntimeError):
    """``backward()`` reached a node whose graph an earlier backward freed."""


def _consumed(g):
    raise GraphConsumedError(
        "backward() through a graph that an earlier backward() consumed")


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Rank 1..2 float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if not 1 <= arr.ndim <= 2:
            raise DimensionError(f"rank {arr.ndim} outside supported range 1..2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor constructed from non-finite data")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._bw = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError("item() requires a size-1 tensor")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad for every reachable leaf.

        The walk frees the graph as it goes: once a node has passed its
        gradient on, it drops that gradient, its closure and its parents,
        so the forward graph's memory is released during the walk.  The
        root keeps its gradient and leaves keep theirs.  Each rule gets a
        gradient that nothing else holds, because each rule gives every
        buffer to at most one tensor (see ``_acc``).  A later backward
        through a consumed node raises ``GraphConsumedError``.
        """
        if self.data.size != 1:
            raise DimensionError("backward() requires a size-1 tensor")
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        del visited  # the walk needs only the order
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._bw is None:  # a leaf
                continue
            bw, g, node._bw, node._parents = node._bw, node.grad, _consumed, ()
            if node is self:
                g = g.copy()  # the root keeps its own
            else:
                node.grad = None
            del node  # so an output nothing holds goes before bw allocates
            bw(g)


def constant(data) -> Tensor:
    """Tensor wrapping external data; never tracked by the graph."""
    return Tensor(data, requires_grad=False)


def _result(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._bw = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    else:
        out.requires_grad = False
        out._parents = ()
    return out


def _acc(t: Tensor, g: np.ndarray):
    """Store a first gradient ``g`` as ``t.grad``; add later ones into it.

    The one rule of gradient hand-off: a backward rule gives each buffer
    it makes or receives, or a part of one, to at most one tensor, which
    then owns it.  Only ``add`` can owe one buffer to two operands, and
    it copies.
    """
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


# ---------------------------------------------------------------- structure

def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for rank-2 operands."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul expects two rank-2 operands, got "
            f"{a.data.shape} x {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul extents differ: {a.data.shape} x {b.data.shape}")
    out = _result(a.data @ b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                _acc(a, g @ b.data.T)
            if b.requires_grad:
                _acc(b, a.data.T @ g)
        out._bw = bw
    return out


def take_rows(a: Tensor, index) -> Tensor:
    """Rows ``index`` of a rank-2 tensor, in that order: (len(index), n)."""
    index = np.asarray(index, dtype=np.intp)
    if a.data.ndim != 2 or index.ndim != 1:
        raise DimensionError("take_rows expects a rank-2 tensor and 1-D rows")
    if np.any((index < 0) | (index >= a.data.shape[0])):
        raise DimensionError(
            f"rows {index.tolist()} outside 0..{a.data.shape[0] - 1}")
    out = _result(a.data[index], (a,))
    if out.requires_grad:
        def bw(g):
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            _acc(a, full)
        out._bw = bw
    return out


def concat(*parts: Tensor) -> Tensor:
    """The rows of rank-2 parts of one width, stacked in order.

    One node for any number of parts: joining n parts copies each once,
    where chained pairwise joins copy O(n^2) rows.
    """
    shapes = [p.data.shape for p in parts]
    if (not parts or any(len(s) != 2 for s in shapes)
            or any(s[1] != shapes[0][1] for s in shapes)):
        raise DimensionError(f"concat expects rank-2 parts of one width, "
                             f"got {shapes}")
    out = _result(np.concatenate([p.data for p in parts]), parts)
    if out.requires_grad:
        ends = np.cumsum([s[0] for s in shapes])[:-1]
        def bw(g):
            for p, gp in zip(parts, np.split(g, ends)):
                if p.requires_grad:
                    _acc(p, gp)
        out._bw = bw
    return out


class Packing:
    """Where b sequences of ``lengths`` tokens lie in N packed rows.

    ``lengths`` must not increase: the longest sequence comes first.
    Packed rows are time-major: token 0 of every sequence, then token 1
    of every sequence longer than one token, and so on.  The sequences
    live at position t are therefore the leading ``sizes[t]`` ones, and
    their rows start at ``offsets[t]``.  ``index[j]`` is packed row j's
    place i * T + t in the (b, T) grid of a padded batch, T being
    ``lengths[0]``, so sequence i's rows are ``offsets[:lengths[i]] + i``.

    ``keys`` (b, T) is True at each sequence's real positions of that
    grid.  ``averaging`` (b, N) holds 1 / lengths[i] in row i at sequence
    i's packed rows and 0 elsewhere: its product with (N, n) packed rows
    is each sequence's mean row.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        if (lengths.ndim != 1 or lengths.size == 0 or lengths[-1] < 1
                or np.any(lengths[1:] > lengths[:-1])):
            raise DimensionError(f"packed lengths must be non-increasing "
                                 f"counts of at least 1, got {lengths.tolist()}")
        self.lengths = lengths
        live = np.arange(lengths[0])[:, None] < lengths  # (T, b)
        self.sizes = live.sum(axis=1)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        t, i = np.nonzero(live)
        self.index = i * lengths[0] + t
        self.keys = live.T
        self.averaging = np.zeros((lengths.size, t.size))
        self.averaging[i, np.arange(t.size)] = 1.0 / lengths[i]

    def padded(self, rows: np.ndarray) -> np.ndarray:
        """(N, n) packed rows as a (b, T, n) batch, zero past each end."""
        b, t = self.lengths.size, self.lengths[0]
        out = np.zeros((b * t, rows.shape[1]))
        out[self.index] = rows
        return out.reshape(b, t, rows.shape[1])

    def packed(self, batch: np.ndarray) -> np.ndarray:
        """The (N, n) real rows of a (b, T, n) batch."""
        return batch.reshape(-1, batch.shape[2])[self.index]

    def softmax(self, scores: np.ndarray) -> np.ndarray:
        """Row softmax of (b, m, T) scores over each sequence's real keys."""
        masked = np.where(self.keys[:, None, :], scores, -np.inf)
        e = np.exp(masked - masked.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)


# -------------------------------------------------------------- elementwise

def _operand(a: Tensor, b, name: str):
    """``b``'s values and the result's parents: a tensor ``b`` must have
    ``a``'s shape; a real number ``b`` is a shape-() constant, not a
    parent."""
    if isinstance(b, Tensor):
        if a.data.shape != b.data.shape:
            raise DimensionError(f"{name} expects operands of one shape, got "
                                 f"{a.data.shape} and {b.data.shape}")
        return b.data, (a, b)
    if isinstance(b, numbers.Real):
        return b, (a,)
    raise DimensionError(f"{name} takes a Tensor or a real number, "
                         f"got {type(b).__name__}")


def add(a: Tensor, b: Tensor | float) -> Tensor:
    b_data, parents = _operand(a, b, "add")
    out = _result(a.data + b_data, parents)
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                _acc(a, g)
            if len(parents) == 2 and b.requires_grad:
                _acc(b, g.copy() if a.requires_grad else g)  # one owner each
        out._bw = bw
    return out


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    b_data, parents = _operand(a, b, "mul")
    out = _result(a.data * b_data, parents)
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                _acc(a, g * b_data)
            if len(parents) == 2 and b.requires_grad:
                _acc(b, g * a.data)
        out._bw = bw
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, the fused workhorse behind every learned projection.

    Every row of the (m, k) ``x`` goes through one product, so ``w``'s
    gradient is one product too.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError("affine expects x:(m,k), w:(k,n), b:(n,)")
    k, n = w.data.shape
    if x.data.shape[1] != k or b.data.shape[0] != n:
        raise DimensionError(
            f"affine extents differ: {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    out = _result(x.data @ w.data + b.data[None, :], (x, w, b))
    if out.requires_grad:
        def bw(g):
            if w.requires_grad:
                _acc(w, x.data.T @ g)
            if b.requires_grad:
                _acc(b, g.sum(axis=0))
            if x.requires_grad:
                _acc(x, g @ w.data.T)
        out._bw = bw
    return out


# -------------------------------------------------------------- activations

def _sigmoid_values(d: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    e = np.exp(-np.abs(d))
    p = 1.0 + e
    return np.where(d >= 0, 1.0 / p, e / p)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        tail: str) -> Tensor:
    """relu(x W1 + b1) W2 + b2 over (m, d) rows, then a "residual" tail
    adds x or a "sigmoid" tail squashes it, as one graph node.

    The node keeps only the rectified layer H.  Its backward works in
    place: dY = G (or G y (1 - y)), dH = dY W2^T where H > 0, and
    dx = dH W1^T (+ G for the residual) in H's buffer."""
    if tail not in ("residual", "sigmoid"):
        raise ValueError(f"unknown mlp tail {tail!r}")
    d = x.data.shape[-1]
    shapes = [t.data.shape for t in (w1, b1, w2, b2)]
    if x.data.ndim != 2 or shapes != [(d, d), (d,)] * 2:
        raise DimensionError(f"mlp expects (m, {d}) rows and ({d}, {d}) maps")
    h = np.maximum(x.data @ w1.data + b1.data, 0.0)
    y = h @ w2.data + b2.data
    y = y + x.data if tail == "residual" else _sigmoid_values(y)
    out = _result(y, (x, w1, b1, w2, b2))
    if out.requires_grad:
        def bw(g):
            if tail == "sigmoid":
                g *= y
                g *= 1.0 - y
            grads = [(w2, h.T @ g), (b2, g.sum(axis=0))]
            dh = g @ w2.data.T
            dh *= h > 0.0
            grads += [(w1, x.data.T @ dh), (b1, dh.sum(axis=0))]
            if x.requires_grad:
                dx = np.matmul(dh, w1.data.T, out=h)  # H is spent
                if tail == "residual":
                    dx += g
                grads.append((x, dx))
            for t, grad in grads:
                if t.requires_grad:
                    _acc(t, grad)
        out._bw = bw
    return out


# ------------------------------------------------------------------ cosines

def _near_zero(norms: np.ndarray) -> np.ndarray:
    """Where ``norms`` are too small to divide by: the engine's one test
    for a near-zero vector."""
    return norms < 1e-12


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / |x|, |x|) of an array's rows, values only; a near-zero row
    raises ``DegenerateVectorError`` with its index."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    bad = _near_zero(norms[:, 0])
    if bad.any():
        raise DegenerateVectorError(int(np.argmax(bad)))
    return x / norms, norms


def cosine_grid(a: Tensor, b: Tensor) -> Tensor:
    """(m, n) cosines of the rows of a (m, d) and b (n, d), one node that
    keeps both sets of unit rows and norms.  A near-zero row raises
    ``DegenerateVectorError`` with its row, a's rows checked first."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise DimensionError(f"cosine_grid expects two (., d) operands, got "
                             f"{a.data.shape} and {b.data.shape}")
    (ua, na), (ub, nb) = unit_rows(a.data), unit_rows(b.data)
    ub_t = ub.T.copy()  # contiguous: a product's bits can depend on layout
    out = _result(ua @ ub_t, (a, b))
    if out.requires_grad:
        def bw(g):
            # through each x / |x|: (dU - <dU, U> U) / |x|, row by row
            for t, du, u, n in ((a, g @ ub_t.T, ua, na),
                                (b, (ua.T @ g).T, ub, nb)):
                if t.requires_grad:
                    _acc(t, (du - (du * u).sum(axis=1, keepdims=True) * u) / n)
        out._bw = bw
    return out


# ---------------------------------------------------------------- recurrence

def gru_scan(x_z: Tensor, x_r: Tensor, x_h: Tensor, u_z: Tensor, u_r: Tensor,
             u_h: Tensor, reverse: bool, packing: Packing) -> Tensor:
    """One GRU direction over packed input projections, as one graph node.

    The projections are (N, d) packed rows laid out by ``packing`` (see
    ``Packing``): a row of ``x_z``, ``x_r`` and ``x_h`` is one token's
    input-side pre-activation of each gate, and ``u_*`` are the (d, d)
    recurrent maps.  From h = 0, each step in scan order (end to
    start when ``reverse``) updates the k = ``sizes[t]`` sequences live at
    position t, the leading rows of h, at once:

        z = sigmoid(x_z[t] + h[:k] U_z)     r = sigmoid(x_r[t] + h[:k] U_r)
        c = tanh(x_h[t] + (r * h[:k]) U_h)  h[:k] <- h[:k] + z * (c - h[:k])

    where x_*[t] are position t's k packed rows.  In reverse a sequence
    becomes live at its own last token, with the h = 0 its row still
    holds.  Output row j is the h of the step that consumed packed row j.
    The backward pass is hand-written BPTT: one walk in reverse scan order
    over the same rows collects the pre-activation gradients, which are
    the gradients of ``x_*``, and then each U gradient is a single product
    over the N rows.
    """
    xs, us = (x_z, x_r, x_h), (u_z, u_r, u_h)
    shape = x_z.data.shape
    if (len(shape) != 2 or shape[0] == 0
            or any(x.data.shape != shape for x in xs)
            or any(u.data.shape != (shape[1], shape[1]) for u in us)):
        raise DimensionError(
            f"gru_scan expects three (N,d) projections and three (d,d) "
            f"maps; got {[t.data.shape for t in xs + us]}")
    n, d = shape
    if packing.index.size != n:
        raise DimensionError(
            f"gru_scan got {n} rows for a packing of {packing.index.size}")
    spans = [(lo, lo + k) for lo, k in zip(packing.offsets.tolist(),
                                          packing.sizes.tolist())]
    steps = spans[::-1] if reverse else spans
    out = _result(np.empty(shape), xs + us)
    hs = out.data
    keep = out.requires_grad
    if keep:  # per-row h_{t-1}, z, r and c
        h_prev, zs, rs, cs = (np.empty(shape) for _ in range(4))
    h = np.zeros((packing.sizes[0], d))
    for lo, hi in steps:
        live = h[:hi - lo]
        z = _sigmoid_values(x_z.data[lo:hi] + live @ u_z.data)
        r = _sigmoid_values(x_r.data[lo:hi] + live @ u_r.data)
        c = np.tanh(x_h.data[lo:hi] + (r * live) @ u_h.data)
        if keep:
            h_prev[lo:hi], zs[lo:hi], rs[lo:hi], cs[lo:hi] = live, z, r, c
        hs[lo:hi] = live + z * (c - live)
        live[...] = hs[lo:hi]
    if keep:
        def bw(g):
            # dh (the gradient reaching a step's output) enters
            #   dA_z = dh (c - h_prev) z (1 - z)    dA_h = dh z (1 - c^2)
            #   dA_r = (dA_h U_h^T) h_prev r (1 - r)
            # and passes to the sequence's step before as
            #   dh (1 - z) + dA_z U_z^T + dA_r U_r^T + (dA_h U_h^T) r
            k_z = (cs - h_prev) * zs * (1.0 - zs)
            k_h = zs * (1.0 - cs * cs)
            k_r = h_prev * rs * (1.0 - rs)
            carry = 1.0 - zs
            uz_t, ur_t, uh_t = u_z.data.T, u_r.data.T, u_h.data.T
            da_z, da_r, da_h = (np.empty(shape) for _ in range(3))
            dh = np.zeros_like(h)
            for lo, hi in reversed(steps):
                live = dh[:hi - lo]
                dk = live + g[lo:hi]
                da_z[lo:hi] = dk * k_z[lo:hi]
                da_h[lo:hi] = dk * k_h[lo:hi]
                dq = da_h[lo:hi] @ uh_t
                da_r[lo:hi] = dq * k_r[lo:hi]
                live[...] = (dk * carry[lo:hi] + da_z[lo:hi] @ uz_t
                             + da_r[lo:hi] @ ur_t + dq * rs[lo:hi])
            for x, da in zip(xs, (da_z, da_r, da_h)):
                if x.requires_grad:
                    _acc(x, da)
            for u, inp, da in ((u_z, h_prev, da_z), (u_r, h_prev, da_r),
                               (u_h, rs * h_prev, da_h)):
                if u.requires_grad:
                    _acc(u, inp.T @ da)
        out._bw = bw
    return out


# ----------------------------------------------------------------- attention

def gated_attention(x: Tensor, packing: Packing, heads: list) -> Tensor:
    """Gated multi-head self-attention over packed rows, as one graph node.

    ``x`` is (N, d) rows laid out by ``packing``; ``heads`` holds each
    head's (w_q, b_q, w_k, b_k, w_v, b_v, w_a, b_a).  Head i, within each
    sequence and with the softmax over its real keys, is

        q, k, v = x W_q + b_q, x W_k + b_k, x W_v + b_v
        g = sigmoid((q * k) W_a + b_a)
        out[:, i d_h:(i + 1) d_h] = softmax((g * q) (g * k)^T / sqrt(d_h)) v

    One product with the maps, joined inside the node, gives every q|k|v.
    The backward keeps that block, the gates and the probabilities P and
    recomputes the rest: dS = P (dP - rowsum(dP P)), the gate's product
    rule, then one product for the maps' gradient and one for the input's.
    """
    d_h = heads[0][0].data.shape[-1] if heads else 0
    want = [(x.data.shape[-1], d_h), (d_h,)] * 3 + [(d_h, d_h), (d_h,)]
    if (x.data.ndim != 2 or x.data.shape[0] != packing.index.size or not d_h
            or any([t.data.shape for t in h] != want for h in heads)):
        raise DimensionError(f"gated_attention expects ({packing.index.size}, "
                             f"d) rows and heads shaped {want}")
    maps, biases = ([t for h in heads for t in h[j:6:2]] for j in (0, 1))
    qkv = (x.data @ np.concatenate([w.data for w in maps], axis=1)
           + np.concatenate([b.data for b in biases])[None, :])
    cols = [slice(m * d_h, (m + 1) * d_h) for m in range(len(maps))]
    inv_sqrt = 1.0 / math.sqrt(d_h)
    out = _result(np.empty((x.data.shape[0], len(heads) * d_h)),
                  (x, *(t for h in heads for t in h)))
    saved = []  # each head's gate and probabilities
    for i, h in enumerate(heads):
        q, k, v = (qkv[:, c] for c in cols[3 * i:3 * i + 3])
        g = _sigmoid_values((q * k) @ h[6].data + h[7].data[None, :])
        p = packing.softmax(packing.padded(g * q)
                            @ _swap(packing.padded(g * k)) * inv_sqrt)
        out.data[:, cols[i]] = packing.packed(p @ packing.padded(v))
        saved.append((g, p))
    if out.requires_grad:
        def bw(dy):
            dqkv, grads = np.empty_like(qkv), []  # grads: (parameter, gradient)
            for i, (h, (g, p)) in enumerate(zip(heads, saved)):
                q, k, v = (qkv[:, c] for c in cols[3 * i:3 * i + 3])
                dout = packing.padded(dy[:, cols[i]])
                dp = dout @ _swap(packing.padded(v))
                ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p * inv_sqrt
                dgq = packing.packed(ds @ packing.padded(g * k))
                dgk = packing.packed(_swap(ds) @ packing.padded(g * q))
                da = (dgq * q + dgk * k) * g * (1.0 - g)
                dqk = da @ h[6].data.T
                dqkv[:, cols[3 * i]] = dgq * g + dqk * k
                dqkv[:, cols[3 * i + 1]] = dgk * g + dqk * q
                dqkv[:, cols[3 * i + 2]] = packing.packed(_swap(p) @ dout)
                grads += [(h[6], (q * k).T @ da), (h[7], da.sum(axis=0))]
            if x.requires_grad:
                w = np.concatenate([t.data for t in maps], axis=1)
                _acc(x, dqkv @ w.T)
            dw, db = x.data.T @ dqkv, dqkv.sum(axis=0)
            grads += zip(maps + biases, [dw[:, c] for c in cols]
                         + [db[c] for c in cols])
            for t, grad in grads:
                if t.requires_grad:
                    _acc(t, grad)
        out._bw = bw
    return out


# ------------------------------------------------------------------- fusion

def cross_rows(f_m: Tensor, f_r: Tensor, images: int) -> Tensor:
    """Each image's multiscale rows against its region rows, one node.

    ``f_m`` (images·n_m, d) and ``f_r`` (images·n_r, d) are image-major
    rows.  Per image, with F_M and F_R its rows, S = sigmoid(F_M F_R^T)
    and the output is its n_m + n_r rows [S F_R + F_M ; S^T F_M + F_R].
    The node keeps only S.  With G_m and G_r the upstream rows of the
    two halves, dP = (G_m F_R^T + F_M G_r^T) S (1 - S) and

        dF_M = G_m + S G_r + dP F_R        dF_R = G_r + S^T G_m + dP^T F_M
    """
    shapes = (f_m.data.shape, f_r.data.shape)
    if (images < 1 or any(len(s) != 2 or not s[0] or s[0] % images
                          for s in shapes) or shapes[0][1] != shapes[1][1]):
        raise DimensionError(f"cross_rows expects image-major rows of "
                             f"{images} images, got {shapes}")
    d, n_m = shapes[0][1], shapes[0][0] // images
    fm, fr = (t.data.reshape(images, -1, d) for t in (f_m, f_r))
    # contiguous transposes: a product's last bits can depend on its
    # operands' layout
    s = _sigmoid_values(fm @ _swap(fr).copy())
    rows = np.concatenate([fm, fr], axis=1)
    rows[:, :n_m] += s @ fr
    rows[:, n_m:] += _swap(s).copy() @ fm
    out = _result(rows.reshape(-1, d), (f_m, f_r))
    if out.requires_grad:
        def bw(g):
            g = g.reshape(images, -1, d)
            g_m, g_r = g[:, :n_m], g[:, n_m:]
            dp = (g_m @ _swap(fr) + fm @ _swap(g_r)) * (s * (1.0 - s))
            if f_m.requires_grad:
                _acc(f_m, (g_m + s @ g_r + dp @ fr).reshape(-1, d))
            if f_r.requires_grad:
                _acc(f_r, (g_r + _swap(s) @ g_m + _swap(dp) @ fm)
                     .reshape(-1, d))
        out._bw = bw
    return out


# ----------------------------------------------------------------- guidance

# elements (1 MB) of one block of guided_scores' (images, M, d) guided
# rows; a block holds at least one image
GUIDED_BLOCK = 1 << 17


def _guided_block(gates: np.ndarray, a: np.ndarray, f_g: np.ndarray,
                  head: list, hidden: bool = False) -> tuple:
    """(hidden, T_RG) of a block of images against M captions.

    ``gates`` (n, M) are the pairs' gates and ``a`` is f_g W1, so the
    head's first layer is (1 + gates) a.  ``head`` holds the head's
    arrays.  Both results are (n, M, d).  hidden is the nonlinear head's
    rectified layer when asked for, else None and its buffer takes the
    residual.
    """
    s = (1.0 + gates)[..., None]
    first = s * a
    first += head[1]
    if len(head) == 2:
        return None, first
    np.maximum(first, 0.0, out=first)
    n, m, d = first.shape
    t = (first.reshape(-1, d) @ head[2]).reshape(n, m, d)
    t += head[3]
    if hidden:
        t += s * f_g  # the residual (1 + g) f_g
        return first, t
    t += np.multiply(s, f_g, out=first)
    return None, t


def _check_guidance(f_r: Tensor, f_g: Tensor, head) -> list:
    """The head's arrays, once ``f_r``, ``f_g`` and ``head`` fit together."""
    d = f_g.data.shape[-1]
    want = [(d, d), (d,)] * (len(head) // 2)
    if (f_r.data.ndim != 2 or f_g.data.ndim != 2 or f_r.data.shape[1] != d
            or len(head) not in (2, 4) or [t.data.shape for t in head] != want):
        raise DimensionError(
            f"guidance expects (n, d) region rows, (M, d) text rows and a "
            f"head shaped {want}; got {f_r.data.shape}, {f_g.data.shape} and "
            f"{[t.data.shape for t in head]}")
    return [t.data for t in head]


def guided_rows(f_r: Tensor, f_g: Tensor, head) -> np.ndarray:
    """T_RG of each row pair (f_r[k], f_g[k]) as ``guided_scores`` computes
    it: values only, with no graph."""
    w = _check_guidance(f_r, f_g, head)
    if f_r.data.shape != f_g.data.shape:
        raise DimensionError(f"guided_rows pairs rows one to one, got "
                             f"{f_r.data.shape} and {f_g.data.shape}")
    gates = _sigmoid_values(np.einsum("kd,kd->k", f_r.data, f_g.data))
    return _guided_block(gates[None, :], f_g.data @ w[0], f_g.data, w)[1][0]


def guided_scores(v_mr: Tensor, f_r: Tensor, f_g: Tensor, head) -> Tensor:
    """The final grid S[i, j] = cos(v_mr_i, T_ij), as one graph node.

    ``v_mr`` and ``f_r`` are (N, d) rows of N images, ``f_g`` (M, d) rows
    of M captions, and ``head`` is (w, b) or (w1, b1, w2, b2).  Pair (i, j)
    is guided as

        g = sigmoid(<f_r_i, f_g_j>)        u = (1 + g) f_g_j
        T_ij = u W + b                     (linear head)
        T_ij = relu(u W1 + b1) W2 + b2 + u (nonlinear head)

    All N x M gates are one product, and so is A = f_g W1: a pair's first
    layer is then (1 + g) A_j.  The images go by in blocks of at most
    ``GUIDED_BLOCK`` guided elements, so no N x M x d array is ever held.
    The node keeps the (N, M) gates, norms |T| and scores, A and the unit
    rows of v_mr; the backward recomputes each block, and ends with one
    product each for W1's, f_g's and f_r's gradients.

    A near-zero v_mr row i raises ``DegenerateVectorError`` with ``row``
    i; a near-zero T_ij raises it with ``row`` j and ``image`` i.
    """
    w = _check_guidance(f_r, f_g, head)
    n, d = f_r.data.shape
    m = f_g.data.shape[0]
    if v_mr.data.shape != (n, d):
        raise DimensionError(f"guided_scores expects ({n}, {d}) image rows, "
                             f"got {v_mr.data.shape}")
    norms = np.sqrt(np.einsum("nd,nd->n", v_mr.data, v_mr.data))[:, None]
    bad = _near_zero(norms[:, 0])
    if bad.any():
        raise DegenerateVectorError(int(np.argmax(bad)))
    y = v_mr.data / norms
    gates = _sigmoid_values(f_r.data @ f_g.data.T)
    a = f_g.data @ w[0]
    step = max(1, GUIDED_BLOCK // max(1, m * d))
    blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    t_norms, scores = np.empty((n, m)), np.empty((n, m))
    for rows in blocks:
        t = _guided_block(gates[rows], a, f_g.data, w)[1]
        t_norms[rows] = np.sqrt(np.einsum("imd,imd->im", t, t))
        bad = _near_zero(t_norms[rows])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            exc = DegenerateVectorError(int(j))
            exc.image = rows.start + int(i)
            raise exc
        scores[rows] = np.einsum("imd,id->im", t, y[rows]) / t_norms[rows]
        del t
    out = _result(scores, (v_mr, f_r, f_g, *head))
    if out.requires_grad:
        def bw(ds):
            # With c = dS / |T|: dy_i = sum_j c_ij T_ij and
            # dT_ij = c_ij (y_i - S_ij T_ij / |T_ij|).  Z = (1 + g) A + b1
            # is the first layer, so 1 + g collects <dZ_ij, A_j>, plus
            # <dT_ij, f_g_j> through the nonlinear head's residual, and
            # A_j and f_g_j collect (1 + g_ij) dZ_ij and (1 + g_ij) dT_ij.
            c = ds / t_norms
            ratio = scores / t_norms
            dy, dscale = np.empty_like(y), np.zeros_like(scores)
            da, df_g = np.zeros_like(a), np.zeros_like(a)
            dw = [np.zeros_like(x) for x in w[1:]]  # b, or b1, w2, b2
            for rows in blocks:
                hidden, dt = _guided_block(gates[rows], a, f_g.data, w,
                                           hidden=True)
                scale = 1.0 + gates[rows]
                dy[rows] = np.einsum("im,imd->id", c[rows], dt)
                dt *= -ratio[rows][..., None]
                dt += y[rows][:, None, :]
                dt *= c[rows][..., None]
                flat = dt.reshape(-1, d)
                if hidden is None:
                    dz = dt
                else:
                    dw[1] += hidden.reshape(-1, d).T @ flat
                    dw[2] += flat.sum(axis=0)
                    dscale[rows] += np.einsum("imd,md->im", dt, f_g.data)
                    df_g += np.einsum("im,imd->md", scale, dt)
                    alive = hidden > 0.0
                    dz = hidden  # its buffer now takes dZ
                    np.matmul(flat, w[2].T, out=dz.reshape(-1, d))
                    dz *= alive
                    del alive
                dw[0] += dz.reshape(-1, d).sum(axis=0)
                dscale[rows] += np.einsum("imd,md->im", dz, a)
                da += np.einsum("im,imd->md", scale, dz)
                del hidden, dt, dz, flat
            dpre = dscale * gates * (1.0 - gates)
            grads = [(f_r, dpre @ f_g.data), (head[0], f_g.data.T @ da),
                     *zip(head[1:], dw)]
            if f_g.requires_grad:
                df_g += dpre.T @ f_r.data
                df_g += da @ w[0].T
                grads.append((f_g, df_g))
            if v_mr.requires_grad:
                grads.append((v_mr, (dy - np.einsum("nd,nd->n", dy, y)[:, None]
                                     * y) / norms))
            for t, grad in grads:
                if t.requires_grad:
                    _acc(t, grad)
        out._bw = bw
    return out


# ------------------------------------------------------------------ ranking

def triplet_hinge(s: Tensor, alpha: float) -> Tensor:
    """The (B, B) hinge grid of a score grid ``s``, as one graph node.

    Row i scores image i against every caption, and the diagonal holds
    the positives.  Entry (i, j), j != i, is

        [(S_ij - S_ii) + alpha]_+ + [(S_ij - S_jj) + alpha]_+

    and the diagonal is 0.  Margins come before the offset, so score
    grids written with short decimals hinge to exact short decimals too.
    The node keeps the two hinge arrays; with G_i and G_t the upstream
    gradient where each is active, dS = G_i + G_t off the diagonal and
    dS_ii = -(sum_j G_i[i, j] + sum_j G_t[j, i]).
    """
    if s.data.ndim != 2 or s.data.shape[0] != s.data.shape[1]:
        raise DimensionError(f"triplet_hinge expects a square grid, got "
                             f"{s.data.shape}")
    b = s.data.shape[0]
    if b < 2:
        raise DimensionError("triplet_hinge needs at least 2 pairs")
    off = 1.0 - np.eye(b)
    pos = np.diag(s.data)
    hinges = []
    for margins in (s.data - pos[:, None], s.data - pos[None, :]):
        margins += alpha
        margins *= off
        hinges.append(np.maximum(margins, 0.0, out=margins))
    by_image, by_text = hinges
    out = _result(by_image + by_text, (s,))
    if out.requires_grad:
        def bw(g):
            g_i, g_t = g * (by_image > 0.0), g * (by_text > 0.0)
            # +0 on the diagonal, where no term is active; subtracting
            # from it keeps +0 for a pair whose terms are all inactive
            ds = g_i + g_t
            ds[np.diag_indices(b)] -= g_i.sum(axis=1) + g_t.sum(axis=0)
            _acc(s, ds)
        out._bw = bw
    return out


# --------------------------------------------------------------- reductions

def mean_rows(x: Tensor, m: int) -> Tensor:
    """Mean of each run of ``m`` rows, (b·m, n) -> (b, n)."""
    if x.data.ndim != 2 or m < 1 or x.data.shape[0] % m or not x.data.size:
        raise DimensionError(f"mean_rows expects runs of {m} rows, got "
                             f"{x.data.shape}")
    n = x.data.shape[1]
    out = _result(x.data.reshape(-1, m, n).sum(axis=1) / m, (x,))
    if out.requires_grad:
        def bw(g):
            _acc(x, np.repeat(g / m, m, axis=0))
        out._bw = bw
    return out


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all entries, as a shape-(1,) tensor."""
    out = _result(np.array([x.data.sum()]), (x,))
    if out.requires_grad:
        def bw(g):
            _acc(x, np.full_like(x.data, g[0]))
        out._bw = bw
    return out


# ------------------------------------------------------------- verification

FD_STEP = 1e-5  # central-difference step of grad_check


def grad_check(loss_fn, params, max_coords: int | None = None, seed: int = 0):
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` maps () to a size-1 Tensor built from the tensors in
    ``params`` (a name -> Tensor mapping).  Relative error per coordinate
    is |a - f| / max(1, |a|, |f|).  When a parameter has more coordinates
    than ``max_coords``, a deterministic splitmix64 sample of coordinates
    is checked instead of all of them; ``max_coords`` below 1 would check
    none, and raises ``ValueError``.
    """
    from .rng import RngStream, derive_seed

    if max_coords is not None and max_coords < 1:
        raise ValueError(f"max_coords must be at least 1, got {max_coords}")

    for t in params.values():
        t.grad = None
    loss = loss_fn()
    if loss.data.size != 1:
        raise DimensionError("grad_check loss must be size-1")
    if not np.isfinite(loss.data[0]):
        raise ValueError("grad_check loss is non-finite")
    loss.backward()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            stream = RngStream(derive_seed(seed, "gradcheck", name))
            coords = np.unique(stream.integers(max_coords, n)).tolist()
        else:
            coords = range(n)
        ana = analytic[name].reshape(-1)
        for c in coords:
            orig = flat[c]
            with no_grad():
                flat[c] = orig + FD_STEP
                hi = loss_fn().item()
                flat[c] = orig - FD_STEP
                lo = loss_fn().item()
            flat[c] = orig
            fd = (hi - lo) / (2.0 * FD_STEP)
            err = abs(ana[c] - fd) / max(1.0, abs(ana[c]), abs(fd))
            if err > worst:
                worst = err
    return worst
