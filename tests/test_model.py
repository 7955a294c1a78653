"""Model encoders: codes are (n, d) rows that do not depend on their batch."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dove import autograd as ag
from dove import gated_attention as ga
from dove.model import CHUNK, _canonical


FIELDS = ("v_m", "v_r", "v_mr")


def _random_images(seed, n, ds):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, (n,) + ds.msv.shape[1:]),
            rng.uniform(-1, 1, (n,) + ds.roi.shape[1:]))


def _weighted_codes(codes, weights):
    a, b, c = (ag.reduce_sum(ag.mul(getattr(codes, f), ag.constant(w)))
               for f, w in zip(FIELDS, weights))
    return ag.add(ag.add(a, b), c)


def test_stacked_image_codes_equal_one_at_a_time(tiny_model, tiny_dataset):
    # two chunks, with a graph.  Codes equal one-image graphs bit for bit.
    # Parameter gradients agree to 1e-12, not bit for bit: a chunk's
    # weight gradient is one product over all its images' rows, where
    # one-image graphs add one product per image.
    n = CHUNK + 8
    msv, roi = _random_images(3, n, tiny_dataset)
    weights = np.random.default_rng(4).uniform(-1, 1,
                                               (3, n, tiny_model.cfg.d))
    params = tiny_model.reg.tensors()

    tiny_model.reg.zero_grad()
    stacked = tiny_model.encode_images(msv, roi)
    _weighted_codes(stacked, weights).backward()
    batch_grads = {k: t.grad.copy() for k, t in params.items()
                   if t.grad is not None}
    assert {k.split(".")[0] for k in batch_grads} == {"visual", "ifa"}
    with ag.no_grad():
        views = tiny_model.encode_images(list(msv), list(roi))
    for field in FIELDS:
        rows = getattr(stacked, field).data
        assert rows.shape == (n, tiny_model.cfg.d)
        assert np.array_equal(getattr(views, field).data, rows)

    tiny_model.reg.zero_grad()
    for r in range(n):
        alone = tiny_model.encode_images(msv[r:r + 1], roi[r:r + 1])
        for field in FIELDS:
            assert np.array_equal(getattr(alone, field).data[0],
                                  getattr(stacked, field).data[r])
        _weighted_codes(alone, weights[:, r:r + 1]).backward()
    for k, t in params.items():
        if k in batch_grads:
            assert np.allclose(batch_grads[k], t.grad, rtol=1e-12,
                               atol=1e-12), k
        else:
            assert t.grad is None, k
    tiny_model.reg.zero_grad()
    with pytest.raises(ValueError):
        tiny_model.encode_images(msv[:2], roi[:1])


def test_images_with_unequal_row_counts_raise(tiny_model, tiny_dataset):
    # a chunk travels as image-major rows, so 3 + 5 region rows must not
    # be read as two images of 4
    msv, roi = _random_images(5, 2, tiny_dataset)
    regions = np.random.default_rng(6).uniform(-1, 1, (8, roi.shape[2]))
    with pytest.raises(ValueError):
        tiny_model.encode_images(list(msv), [regions[:3], regions[3:]])
    with pytest.raises(ValueError):
        tiny_model.encode_images([msv[0], msv[1, :-1]], list(roi))


def _graph_nodes(*roots):
    seen, stack = {id(r) for r in roots}, list(roots)
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_image_graph_size_does_not_grow_with_the_chunk(tiny_model,
                                                      tiny_dataset):
    # one chain of ops per chunk, whatever the number of images in it
    sizes = []
    for n in (4, 16):
        codes = tiny_model.encode_images(*_random_images(n, n, tiny_dataset))
        sizes.append(_graph_nodes(*(getattr(codes, f) for f in FIELDS)))
    assert sizes[0] == sizes[1]


def _ragged_captions(seed, n, vocab, longest):
    rng = np.random.default_rng(seed)
    return [[int(t) for t in rng.integers(0, vocab, k)]
            for k in rng.integers(1, longest + 1, n)]


def test_stacked_caption_codes_equal_one_at_a_time(tiny_model, tiny_dataset):
    # mixed lengths over two chunks, with a graph.  Codes and parameter
    # gradients agree with one-caption graphs to 1e-12, not bit for bit:
    # a chunk's recurrent products are (b, d) x (d, d), a lone caption's
    # (1, d) x (d, d), and the two round differently in the last bits.
    n = CHUNK + 8
    token_lists = _ragged_captions(0, n, tiny_dataset.embedding.shape[0], 12)
    weights = np.random.default_rng(1).uniform(-1, 1, (n, tiny_model.cfg.d))
    params = tiny_model.reg.tensors()

    tiny_model.reg.zero_grad()
    stacked = tiny_model.encode_captions(token_lists)
    ag.reduce_sum(ag.mul(stacked, ag.constant(weights))).backward()
    batch_grads = {k: t.grad.copy() for k, t in params.items()
                   if t.grad is not None}
    assert {k.split(".")[0] for k in batch_grads} == {"text", "dtga"}
    assert stacked.data.shape == (n, tiny_model.cfg.d)

    tiny_model.reg.zero_grad()
    for r, ids in enumerate(token_lists):
        alone = tiny_model.encode_captions([ids])
        assert np.allclose(alone.data[0], stacked.data[r], rtol=0, atol=1e-12)
        ag.reduce_sum(ag.mul(alone, ag.constant(weights[r:r + 1]))).backward()
    for k, t in params.items():
        if k in batch_grads:
            assert np.allclose(batch_grads[k], t.grad, rtol=1e-12,
                               atol=1e-12), k
        else:
            assert t.grad is None, k
    tiny_model.reg.zero_grad()


def test_text_path_computes_only_real_tokens(tiny_model, tiny_dataset,
                                            monkeypatch):
    # two chunks of ragged captions: every product on the text path, and
    # both recurrences, take exactly the chunk's real token rows
    n = CHUNK + 8
    token_lists = _ragged_captions(5, n, tiny_dataset.embedding.shape[0], 12)
    by_length = sorted(len(ids) for ids in token_lists)
    real = [sum(by_length[:CHUNK]), sum(by_length[CHUNK:])]
    products, scans = [], []
    affine, gru_scan = ag.affine, ag.gru_scan

    def counting_affine(x, w, b):
        products.append(x.data.shape[:-1])
        return affine(x, w, b)

    def counting_scan(x_z, *args, **kwargs):
        scans.append(x_z.data.shape)
        return gru_scan(x_z, *args, **kwargs)

    monkeypatch.setattr(ag, "affine", counting_affine)
    monkeypatch.setattr(ag, "gru_scan", counting_scan)
    tiny_model.encode_captions(token_lists)
    per_chunk = len(products) // 2
    assert per_chunk > 0
    assert products == [(real[0],)] * per_chunk + [(real[1],)] * per_chunk
    d = tiny_model.cfg.d
    assert scans == [(real[0], d)] * 2 + [(real[1], d)] * 2


def test_caption_code_is_the_mean_of_its_real_word_features(
        tiny_model, tiny_dataset, monkeypatch):
    # one chunk of distinct lengths, so the k-th longest caption is
    # sequence k of the packing, whose rows are offsets[:n] + k
    captured = []
    word_features = ga.word_features

    def capturing(*args, packing, **kwargs):
        f_g = word_features(*args, packing=packing, **kwargs)
        captured.append((f_g.data, packing))
        return f_g

    monkeypatch.setattr(ga, "word_features", capturing)
    lengths = [3, 7, 1, 5, 2]
    rng = np.random.default_rng(2)
    vocab = tiny_dataset.embedding.shape[0]
    t_g = tiny_model.encode_captions(
        [[int(t) for t in rng.integers(0, vocab, n)] for n in lengths]).data
    [(f_g, packing)] = captured
    longest_first = sorted(lengths, reverse=True)
    for j, n in enumerate(lengths):
        rows = f_g[packing.offsets[:n] + longest_first.index(n)]
        assert np.allclose(t_g[j], rows.mean(axis=0), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_canonical_order_sorts_rows_by_their_float64_bytes(dtype):
    # the reference order: Python's sort of each row's bytes; duplicate rows
    # and both zeros, whose bytes differ, are in every case
    rng = np.random.default_rng(8)
    for n in range(2, 40):
        rows = rng.choice([0.0, -0.0, 1.5, -2.25, 0.1, 3.0, -7e-3],
                          size=(n, int(rng.integers(1, 6)))).astype(dtype)
        rows[-1] = rows[0]
        rows[0, 0], rows[1, 0] = 0.0, -0.0
        wide = rows.astype(np.float64)
        want = wide[sorted(range(n), key=lambda i: wide[i].tobytes())]
        got = _canonical(rows)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_a_desk_batch_builds_at_most_45_op_nodes():
    # each two-layer map and each cosine grid is one node
    from dove.batching import Batch
    from dove.config import TrainConfig
    from dove.model import Model
    from dove.objective import cosine_matrix
    from dove.params import two_layer

    rng = np.random.default_rng(0)
    d, b = 64, 8
    model = Model(TrainConfig(d=d, heads=2, batch_size=b, seed=1),
                  rng.uniform(-1, 1, (40, 300)))
    model.bind_feature_widths(64, 32)
    batch = Batch(msv=rng.uniform(-1, 1, (b, 4, 64)),
                  roi=rng.uniform(-1, 1, (b, 36, 32)),
                  captions=_ragged_captions(2, b, 40, 8),
                  image_ids=list(range(b)), caption_ids=list(range(b)))
    loss = model.batch_losses(batch)[0]
    ops, seen, stack = 0, {id(loss)}, [loss]
    while stack:
        t = stack.pop()
        ops += bool(t._parents)
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert ops <= 45
    x = ag.Tensor(rng.uniform(-1, 1, (3, d)), requires_grad=True)
    for tail in ("residual", "sigmoid"):
        assert two_layer(x, model.reg, "dtga.decode", tail)._parents[0] is x
    assert cosine_matrix(x, x)._parents == (x, x)


@pytest.mark.parametrize("overrides", [
    {}, {"ifa_head": "nonlinear"}, {"no_iga": True}, {"no_dtga": True}],
    ids=["default", "nonlinear_ifa", "no_iga", "no_dtga"])
def test_backward_frees_the_graph_as_it_walks(overrides):
    # the backward must return the parameter gradients (2.1 MB here), so
    # the bound is on what it holds beyond them.  Freeing as it walks, it
    # holds 0.08 (default) to 0.19 (nonlinear IFA head) of the forward
    # graph; a backward that frees nothing holds 1.7 of it.  The
    # nonlinear IFA head under an ablation holds more than the bound
    from dove.batching import Batch
    from dove.config import TrainConfig
    from dove.model import Model

    rng = np.random.default_rng(0)
    d, b = 64, 8
    model = Model(TrainConfig(d=d, heads=2, batch_size=b, seed=1, **overrides),
                  rng.uniform(-1, 1, (40, 300)))
    model.bind_feature_widths(64, 32)
    batch = Batch(msv=rng.uniform(-1, 1, (b, 4, 64)),
                  roi=rng.uniform(-1, 1, (b, 36, 32)),
                  captions=_ragged_captions(2, b, 40, 8),
                  image_ids=list(range(b)), caption_ids=list(range(b)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = model.batch_losses(batch)[0]
        graph = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    params = sum(t.data.nbytes for t in model.reg.tensors().values())
    assert peak - params <= 0.2 * graph
    assert all(t.grad is not None for t in model.reg.tensors().values())


@pytest.mark.parametrize("ablation,ifa_head,iga_head", [
    *((None, ifa, iga) for ifa in ("linear", "nonlinear")
      for iga in ("linear", "nonlinear")),
    ("no_ifa", "linear", "nonlinear")])
def test_no_two_gradients_share_memory(monkeypatch, ablation, ifa_head,
                                       iga_head):
    # each backward rule gives a buffer to at most one tensor.  Checked as
    # the walk hands each first gradient on: it shares no memory with the
    # gradient of any other tensor that still holds one.  A buffer two
    # tensors held would take both their later sums, so after the walk no
    # two parameter gradients share memory either.
    from dove.batching import Batch
    from dove.config import TrainConfig
    from dove.model import Model

    rng = np.random.default_rng(2)
    b = 4
    cfg = TrainConfig(d=8, heads=2, batch_size=b, seed=3, ifa_head=ifa_head,
                      iga_head=iga_head, **({ablation: True} if ablation else {}))
    model = Model(cfg, rng.uniform(-1, 1, (20, 300)))
    model.bind_feature_widths(6, 4)
    batch = Batch(msv=rng.uniform(-1, 1, (b, 3, 6)),
                  roi=rng.uniform(-1, 1, (b, 5, 4)),
                  captions=_ragged_captions(3, b, 20, 6),
                  image_ids=list(range(b)), caption_ids=list(range(b)))
    holders, acc = [], ag._acc

    def checked_acc(t, g):
        if t.grad is None:
            assert not any(h.grad is not None and np.shares_memory(h.grad, g)
                           for h in holders)
            holders.append(t)
        acc(t, g)

    loss = model.batch_losses(batch)[0]
    monkeypatch.setattr(ag, "_acc", checked_acc)
    loss.backward()
    grads = [t.grad for t in model.reg.tensors().values()
             if t.grad is not None]
    assert len(grads) > 20
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, h) for h in grads[:i])


def test_final_grid_holds_one_guided_block_at_a_time():
    # 40 images x 400 captions at d=64: all T_RG blocks together take
    # N*M*d*8 bytes (8.2 MB); guided one image at a time, the grid's peak
    # stays far below that
    from dove.config import TrainConfig
    from dove.model import ImageCodes, Model

    n, m, d = 40, 400, 64
    model = Model(TrainConfig(d=d, heads=2, seed=5), np.zeros((2, 300)))
    model.bind_feature_widths(6, 4)
    rng = np.random.default_rng(0)
    images = ImageCodes(*(ag.constant(rng.uniform(-1, 1, (n, d)))
                          for _ in range(3)))
    t_g = ag.constant(rng.uniform(-1, 1, (m, d)))
    tracemalloc.start()
    try:
        with ag.no_grad():
            grid = model.final_scores(images, t_g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.data.shape == (n, m)
    assert peak < n * m * d * 8 / 2
