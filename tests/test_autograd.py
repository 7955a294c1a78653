"""Tensor primitives: frozen values, gradient rules, shape policing."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dove import autograd as ag
from dove.autograd import DegenerateVectorError, DimensionError, Tensor
from dove.checks import primitive_gradcheck
from dove.objective import triplet_loss


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


# ----------------------------------------------------------- frozen examples

def test_matmul_identity():
    out = ag.matmul(_param(np.eye(2)), _param([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_value():
    out = ag.matmul(_param([[1.0, 2.0]]), _param([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_hand_gradients():
    a = _param([[1.0, 2.0]])
    b = _param([[3.0], [4.0]])
    ag.reduce_sum(ag.matmul(a, b)).backward()
    assert np.allclose(a.grad, [[3.0, 4.0]], atol=1e-12)
    assert np.allclose(b.grad, [[1.0], [2.0]], atol=1e-12)


def _identity_mlp(x, tail, w2=None):
    """``mlp`` with identity maps (or ``w2`` second) and zero biases."""
    x = _param(x)
    eye, zero = _param(np.eye(x.shape[1])), _param(np.zeros(x.shape[1]))
    return ag.mlp(x, eye, zero, eye if w2 is None else _param(w2), zero, tail)


def test_activation_values():
    squashed = _identity_mlp([[0.0, math.log(3.0)]], "sigmoid").data
    assert squashed[0, 0] == 0.5
    assert abs(squashed[0, 1] - 0.75) < 1e-12
    # one GRU step from h = 0 is sigmoid(x_z) * tanh(x_h)
    zero, one = _param([[0.0]]), ag.Packing([1])
    assert ag.gru_scan(zero, zero, zero, zero, zero, zero, False,
                       one).data[0, 0] == 0.0
    half = ag.gru_scan(zero, zero, _param([[math.atanh(0.5)]]), zero, zero,
                       zero, False, one)
    assert abs(half.data[0, 0] - 0.25) < 1e-12
    # relu([-2, 3]) = [0, 3], plus the residual
    assert np.array_equal(_identity_mlp([[-2.0, 3.0]], "residual").data,
                          [[-2.0, 6.0]])


def _softmax(rows):
    """Softmax of each row over all of its keys: one sequence's scores."""
    rows = np.asarray(rows, dtype=np.float64)
    return ag.Packing([rows.shape[1]]).softmax(rows[None])[0]


def test_softmax_hand_values():
    row = _softmax([[0.0, math.log(3.0)]])
    assert np.allclose(row, [[0.25, 0.75]], atol=1e-12)
    uniform = _softmax([[7.0, 7.0, 7.0]])
    assert np.allclose(uniform, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_elementwise_values():
    assert np.array_equal(ag.add(_param([1.0, 2.0]), _param([3.0, 4.0])).data,
                          [4.0, 6.0])
    a = np.array([[0.5, -1.5], [2.0, 0.0]])
    assert np.array_equal(ag.mul(_param(a), _param(np.ones((2, 2)))).data, a)


def test_mean_rows_hand_values():
    out = ag.mean_rows(_param([[1.0, 3.0], [3.0, 5.0]]), 2)
    assert np.allclose(out.data, [[2.0, 4.0]], atol=1e-12)
    r = np.array([0.25, -1.0, 2.0])
    same = ag.mean_rows(_param(np.stack([r, r, r, r])), 4)
    assert np.allclose(same.data, [r], atol=1e-12)
    # two runs of two rows pool apart, and each gets its own gradient
    x = _param([[1.0, 3.0], [3.0, 5.0], [0.0, 2.0], [-2.0, 2.0]])
    out = ag.mean_rows(x, 2)
    assert np.array_equal(out.data, [[2.0, 4.0], [-1.0, 2.0]])
    ag.reduce_sum(ag.mul(out, ag.constant([[2.0, 4.0], [6.0, 8.0]]))).backward()
    assert np.array_equal(x.grad, [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]])


def test_mean_rows_takes_only_a_batch():
    # whole runs of m rows: rank 1, a short run, no run and no rows raise
    for shape, m in (((4,), 2), ((5, 3), 2), ((4, 3), 0), ((0, 3), 1)):
        with pytest.raises(DimensionError):
            ag.mean_rows(_param(np.ones(shape)), m)


def _gru_operands(n, d):
    rng = np.random.default_rng(n * 10 + d)
    return ([_param(rng.uniform(-1, 1, (n, d))) for _ in range(3)]
            + [_param(rng.uniform(-1, 1, (d, d))) for _ in range(3)])


def test_gru_scan_rejects_mismatched_shapes():
    good = _gru_operands(3, 2)
    three = ag.Packing([3])
    assert ag.gru_scan(*good, False, three).data.shape == (3, 2)
    bad_cases = [
        [good[0], _param(np.zeros((4, 2)))] + good[2:],   # projection length
        good[:2] + [_param(np.zeros((3, 3)))] + good[3:],  # projection width
        good[:4] + [_param(np.zeros((3, 2)))] + good[5:],  # non-square U
        good[:5] + [_param(np.zeros((3, 3)))],             # U of another width
        [_param(np.zeros(2))] * 3 + good[3:],             # rank-1 projections
        [_param(np.zeros((0, 2)))] * 3 + good[3:],        # no tokens
    ]
    for operands in bad_cases:
        with pytest.raises(DimensionError):
            ag.gru_scan(*operands, False, three)
    # a packing of more rows, or of fewer, than the projections hold
    for lengths in ([4], [2], [2, 2], [1, 1]):
        for reverse in (False, True):
            with pytest.raises(DimensionError, match="3 rows for a packing"):
                ag.gru_scan(*good, reverse, ag.Packing(lengths))


@pytest.mark.parametrize("op", [ag.add, ag.mul])
@pytest.mark.parametrize("a,b", [((3,), (3, 1)), ((3, 4), (4, 3)),
                                 ((3, 1), (1, 4)), ((3, 4), (3,)),
                                 ((4,), (3, 1)), ((3, 4), (4,)),
                                 ((3, 4), (3, 1))])
def test_broadcast_to_neither_operands_shape_raises(op, a, b):
    # the last two pairs would broadcast to the first operand's shape;
    # they raise as well, since tensor operands must have one shape
    for pair in ((a, b), (b, a)):
        with pytest.raises(DimensionError):
            op(*(_param(np.ones(shape)) for shape in pair))


NUMBERS = [pytest.param(-1.7, id="float"), pytest.param(np.float64(0.3), id="np")]
NUMBER_SHAPES = [(4,), (3, 4), (3, 1)]


@pytest.mark.parametrize("op,np_op", [(ag.add, np.add), (ag.mul, np.multiply)])
@pytest.mark.parametrize("c", NUMBERS)
@pytest.mark.parametrize("shape", NUMBER_SHAPES)
def test_number_operand_matches_numpy(op, np_op, c, shape):
    x = np.random.default_rng(9).uniform(-1, 1, shape)
    out = op(_param(x), c)
    assert out.data.shape == shape
    assert np.array_equal(out.data, np_op(x, c))


@pytest.mark.parametrize("c", NUMBERS)
@pytest.mark.parametrize("shape", NUMBER_SHAPES)
def test_number_operand_gets_no_gradient(c, shape):
    # the tensor's gradient is g * c for mul and g for add, what
    # the scalar ops they replace gave it; the number is not in the graph
    g = np.random.default_rng(10).uniform(-1, 1, shape)
    for op, expected in ((ag.mul, g * c), (ag.add, g)):
        x = _param(np.ones(shape))
        out = op(x, c)
        assert out._parents == (x,)
        ag.reduce_sum(ag.mul(out, ag.constant(g))).backward()
        assert np.array_equal(x.grad, expected)


@pytest.mark.parametrize("op", [ag.add, ag.mul])
@pytest.mark.parametrize("operand", [np.array(2.0), np.ones(4), "2", None],
                         ids=["0-d", "1-d", "str", "none"])
def test_operand_that_is_no_tensor_or_number_raises(op, operand):
    with pytest.raises(DimensionError):
        op(_param(np.ones(4)), operand)


def _hand_mlp(tail, w2):
    """x, the four maps and the summed output of a 2x2 ``mlp``, backward
    done.  H = relu([[0, -1], [2, 0]] + 1/2) = [[1/2, 0], [5/2, 1/2]]."""
    x, w1, b1 = (_param([[1.0, -1.0], [2.0, 0.0]]),
                 _param([[1.0, 0.0], [1.0, 1.0]]), _param([0.5, 0.5]))
    w2, b2 = _param(w2), _param([0.0, -1.0] if tail == "residual" else [0.0, 0.0])
    out = ag.mlp(x, w1, b1, w2, b2, tail)
    ag.reduce_sum(out).backward()
    return out.data, [t.grad for t in (x, w1, b1, w2, b2)]


def test_mlp_hand_values_and_gradients_under_the_residual():
    # dH = 1 W2^T = [3, -1] per row, masked to [[3, 0], [3, -1]]
    out, (dx, dw1, db1, dw2, db2) = _hand_mlp("residual",
                                              [[1.0, 2.0], [0.0, -1.0]])
    assert np.array_equal(out, [[1.5, -1.0], [4.5, 3.5]])
    assert np.array_equal(dw2, [[3.0, 3.0], [0.5, 0.5]])
    assert np.array_equal(db2, [2.0, 2.0])
    assert np.array_equal(dw1, [[9.0, -2.0], [-3.0, 0.0]])
    assert np.array_equal(db1, [6.0, -1.0])
    assert np.array_equal(dx, [[4.0, 4.0], [4.0, 3.0]])  # dH W1^T + 1


def test_mlp_hand_values_and_gradients_under_the_sigmoid():
    # pre-sigmoid [[0, 0], [ln 3, 0]], so y = [[1/2, 1/2], [3/4, 1/2]] and
    # dY = y (1 - y); dH = dY W2^T = [[0, ln 3 / 2], [0, 3 ln 3 / 8]],
    # masked to [[0, 0], [0, 3 ln 3 / 8]]
    ln3 = math.log(3.0)
    out, (dx, dw1, db1, dw2, db2) = _hand_mlp("sigmoid",
                                              [[0.0, 0.0], [2.0 * ln3, 0.0]])
    assert np.allclose(out, [[0.5, 0.5], [0.75, 0.5]], rtol=0.0, atol=1e-12)
    assert np.allclose(dw2, [[0.59375, 0.75], [0.09375, 0.125]], rtol=0.0,
                       atol=1e-12)
    assert np.allclose(db2, [0.4375, 0.5], rtol=0.0, atol=1e-12)
    dh = 0.375 * ln3
    assert np.allclose(dw1, [[0.0, 2.0 * dh], [0.0, 0.0]], rtol=0.0, atol=1e-12)
    assert np.allclose(db1, [0.0, dh], rtol=0.0, atol=1e-12)
    assert np.allclose(dx, [[0.0, 0.0], [0.0, dh]], rtol=0.0, atol=1e-12)


def test_mlp_rejects_an_unknown_tail():
    eye, zero = _param(np.eye(2)), _param(np.zeros(2))
    with pytest.raises(ValueError, match="tail"):
        ag.mlp(_param(np.ones((1, 2))), eye, zero, eye, zero, "relu")


def test_triplet_hinge_hand_gradient_in_two_nodes():
    # by image, only (0, 1) is active (0.3); by text, both off-diagonal
    # entries are (0.1 each).  Each active term adds 1 at its negative and
    # takes 1 from its positive
    s = _param([[0.5, 0.6], [0.4, 0.7]])
    loss = triplet_loss(s, alpha=0.2)
    assert loss.item() == 0.5
    nodes, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t._parents and id(t) not in nodes:
            nodes.add(id(t))
            stack.extend(t._parents)
    assert len(nodes) == 2  # triplet_hinge and reduce_sum
    loss.backward()
    assert np.array_equal(s.grad, [[-2.0, 2.0], [1.0, -1.0]])


def test_concat_rows_shapes():
    out = ag.concat(_param(np.zeros((4, 5))), _param(np.ones((3, 5))))
    assert out.data.shape == (7, 5)
    with pytest.raises(DimensionError):
        ag.concat(_param(np.zeros((2, 3))), _param(np.zeros((2, 4))))


@pytest.mark.parametrize("shapes", [[(2, 4), (5, 4), (1, 4)], [(3, 2)]])
def test_concat_matches_numpy_and_splits_the_gradient(shapes):
    rng = np.random.default_rng(9)
    parts = [_param(rng.uniform(-1, 1, s)) for s in shapes]
    out = ag.concat(*parts)
    assert np.array_equal(out.data, np.concatenate([p.data for p in parts]))
    g = rng.uniform(-1, 1, out.data.shape)
    ag.reduce_sum(ag.mul(out, ag.constant(g))).backward()
    ends = np.cumsum([s[0] for s in shapes])[:-1]
    for p, want in zip(parts, np.split(g, ends)):
        assert np.array_equal(p.grad, want)


@pytest.mark.parametrize("shapes", [
    [(2, 3), (3,)],                      # mixed ranks
    [(2,), (3,)],                        # rank 1
    [(2, 3), (2, 4)],                    # widths differ
    [],                                  # no parts
])
def test_concat_rejects_what_it_cannot_join(shapes):
    with pytest.raises(DimensionError):
        ag.concat(*(_param(np.ones(s)) for s in shapes))


# ------------------------------------------------------------ ragged layout

def test_packing_layout_of_three_sequences():
    # time-major rows: token 0 of all three, token 1 of the first two,
    # then tokens 2 and 3 of the first
    p = ag.Packing([4, 2, 1])
    assert p.sizes.tolist() == [3, 2, 1, 1]
    assert p.offsets.tolist() == [0, 3, 5, 6]
    assert p.index.tolist() == [0, 4, 8, 1, 5, 2, 3]
    assert np.array_equal(p.keys, [[True, True, True, True],
                                   [True, True, False, False],
                                   [True, False, False, False]])
    assert np.array_equal(p.averaging, [
        [0.25, 0.0, 0.0, 0.25, 0.0, 0.25, 0.25],
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])


def test_packing_layout_of_one_token():
    p = ag.Packing([1])
    assert p.sizes.tolist() == [1] and p.offsets.tolist() == [0]
    assert p.index.tolist() == [0]
    assert np.array_equal(p.keys, [[True]])
    assert np.array_equal(p.averaging, [[1.0]])


@pytest.mark.parametrize("lengths", [[1, 2], [0], []])
def test_packing_rejects_increasing_empty_or_no_sequences(lengths):
    with pytest.raises(DimensionError):
        ag.Packing(lengths)


def test_padded_pads_with_zeros_and_packed_inverts_it():
    p = ag.Packing([4, 2, 1])
    rows = np.random.default_rng(0).uniform(-1, 1, (7, 3))
    batch = p.padded(rows)
    assert batch.shape == (3, 4, 3)
    for i, n in enumerate(p.lengths):
        assert np.array_equal(batch[i, :n], rows[p.offsets[:n] + i])
        assert np.array_equal(batch[i, n:], np.zeros((4 - n, 3)))
    assert np.array_equal(p.packed(batch), rows)


def test_masked_softmax_is_a_softmax_over_the_real_keys():
    p = ag.Packing([4, 2, 1])
    scores = np.random.default_rng(1).uniform(-3, 3, (3, 5, 4))
    got = p.softmax(scores)
    for i, n in enumerate(p.lengths):
        assert np.all(got[i, :, n:] == 0.0)
        want = oracles.softmax_rows(scores[i, :, :n])
        assert np.allclose(got[i, :, :n], want, rtol=0.0, atol=1e-15)


# ------------------------------------------------------------- construction

def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Tensor(np.array([np.inf, 1.0]))
    for shape in ((2, 2, 2), (2, 2, 2, 2)):  # images travel as rows
        with pytest.raises(DimensionError):
            Tensor(np.zeros(shape))
    # rank-0 input is promoted to a one-element vector, not rejected
    assert Tensor(np.float64(3.0)).data.shape == (1,)


def test_cosine_grid_rejects_zero_row():
    rows, zero = _param([[1.0, 2.0], [3.0, 4.0]]), _param([[1.0, 2.0], [0.0, 0.0]])
    for a, b in ((zero, rows), (rows, zero)):
        with pytest.raises(DegenerateVectorError) as err:
            ag.cosine_grid(a, b)
        assert err.value.row == 1


# ------------------------------------------------------- gradient verification

def test_grad_check_closed_form_square():
    w = _param([3.0])

    def loss():
        return ag.mul(w, w)

    err = ag.grad_check(loss, {"w": w})
    assert err < 1e-8
    w.grad[:] = 0.0  # grad_check leaves its own analytic pass behind
    loss().backward()
    assert abs(w.grad[0] - 6.0) < 1e-9


def test_grad_check_constant_function():
    w = _param([2.0])
    c = ag.constant(np.array([5.0]))
    err = ag.grad_check(lambda: ag.mul(c, c), {"w": w})
    assert err < 1e-10


@pytest.mark.parametrize("max_coords", [0, -3])
def test_grad_check_that_would_check_nothing_raises(max_coords):
    w = _param([1.0, 2.0])
    with pytest.raises(ValueError, match="max_coords must be at least 1"):
        ag.grad_check(lambda: ag.reduce_sum(ag.mul(w, w)), {"w": w},
                      max_coords=max_coords)


def test_grad_check_rejects_nonfinite_loss():
    w = _param([1e308])
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        ag.grad_check(lambda: ag.mul(w, w), {"w": w})


def test_every_primitive_matches_finite_differences():
    # random inputs in [-1, 1], shapes at most 4x8, per-op sweep
    assert primitive_gradcheck(seed=0) < 1e-6
    assert primitive_gradcheck(seed=3) < 1e-6


# ------------------------------------------------------------ property tests

finite_rows = st.lists(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
             min_size=3, max_size=3),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(finite_rows)
def test_softmax_rows_sum_to_one(rows):
    out = _softmax(rows)
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(finite_rows, st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_softmax_rows_shift_invariance(rows, c):
    base = _softmax(rows)
    shifted = _softmax(np.asarray(rows) + c)
    assert np.allclose(base, shifted, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_mul_gradient_is_other_factor(seed):
    rng = np.random.default_rng(seed)
    a = _param(rng.uniform(-1, 1, (3, 4)))
    b = _param(rng.uniform(-1, 1, (3, 4)))
    ag.reduce_sum(ag.mul(a, b)).backward()
    assert np.allclose(a.grad, b.data, atol=1e-12)
    assert np.allclose(b.grad, a.data, atol=1e-12)


def test_bounded_ops_stay_finite():
    x = _param([[700.0, -700.0, 50.0]])
    # the sigmoid tail at +-700: the second map flips the middle column
    squashed = _identity_mlp([[700.0, 700.0, 50.0]], "sigmoid",
                             w2=np.diag([1.0, -1.0, 1.0]))
    assert np.all(np.isfinite(squashed.data))
    assert np.all(np.isfinite(_softmax(x.data)))
    proj = _param([[700.0, -700.0, 50.0], [-700.0, 700.0, -50.0]])
    u = _param(np.full((3, 3), 700.0))
    for reverse in (False, True):
        out = ag.gru_scan(proj, proj, proj, u, u, u, reverse, ag.Packing([2]))
        ag.reduce_sum(out).backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(u.grad)) and np.all(np.isfinite(proj.grad))


def test_second_backward_through_a_consumed_graph_raises():
    w = _param([2.0])
    y = ag.mul(w, w)
    loss = ag.reduce_sum(y)
    loss.backward()
    assert loss.grad[0] == 1.0 and w.grad[0] == 4.0
    assert y.grad is None and y._parents == ()  # freed by the walk
    with pytest.raises(ag.GraphConsumedError):
        loss.backward()
    with pytest.raises(ag.GraphConsumedError):  # a new root over a freed node
        ag.mul(y, 2.0).backward()
    assert w.grad[0] == 4.0


def test_gradients_accumulate_across_uses():
    w = _param([2.0])
    # w used twice: d(w*w + w*w)/dw = 4w = 8
    ag.add(ag.mul(w, w), ag.mul(w, w)).backward()
    assert abs(w.grad[0] - 8.0) < 1e-12


def test_add_gives_each_operand_a_buffer_of_its_own():
    # one buffer, one owner: a same-shaped second operand gets a copy, so
    # accumulating into one gradient leaves the other as it was
    rng = np.random.default_rng(11)
    x, y = (_param(rng.uniform(-1, 1, (3, 4))) for _ in range(2))
    g = rng.uniform(-1, 1, (3, 4))
    ag.reduce_sum(ag.mul(ag.add(x, y), ag.constant(g))).backward()
    assert np.array_equal(x.grad, g) and np.array_equal(y.grad, g)
    assert not np.shares_memory(x.grad, y.grad)
    x.grad += 1.0
    assert np.array_equal(y.grad, g)
    x.grad = None
    ag.reduce_sum(ag.mul(ag.add(x, x), ag.constant(g))).backward()
    assert np.array_equal(x.grad, 2.0 * g)
