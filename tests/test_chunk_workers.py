"""Chunk workers: codes, gradients, reports and checkpoints are the same
bits at any worker count, and a failing chunk leaves no thread behind."""
from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from dove import model as model_module
from dove import text_encoder as te
from dove.autograd import DimensionError
from dove.batching import Batch
from dove.cli import main
from dove.config import TrainConfig
from dove.dataio import load_dataset
from dove.evaluation import build_report
from dove.model import CHUNK, PARALLEL_MIN_WIDTH, Model
from dove.synth import synth_dataset, write_dataset
from dove.text_encoder import TokenError

D = PARALLEL_MIN_WIDTH   # the narrowest width that runs workers
VOCAB = 40
LIMIT_S = 120.0


@pytest.fixture()
def workers(monkeypatch):
    """``workers.set(n)`` makes n CPUs usable; ``workers.pools`` lists the
    size of each pool the encoders open."""
    pools = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            pools.append(max_workers)

    monkeypatch.setattr(model_module, "ThreadPoolExecutor", CountedPool)
    return SimpleNamespace(pools=pools, set=lambda n: monkeypatch.setattr(
        model_module, "_usable_cpus", lambda: n))


def _bounded(fn):
    """``fn()`` on a thread that must end within ``LIMIT_S``: its result,
    or what it raised."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(LIMIT_S)
    assert not thread.is_alive(), f"encoding ran over {LIMIT_S} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _model(d=D, batch_size=2):
    model = Model(TrainConfig(d=d, heads=2, batch_size=batch_size, seed=1),
                  np.random.default_rng(0).uniform(-1, 1, (VOCAB, 300)))
    model.bind_feature_widths(8, 4)
    return model


def _captions(seed, n):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, VOCAB, int(rng.integers(2, 9))).tolist()
            for _ in range(n)]


def _images(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (n, 3, 8)), rng.uniform(-1, 1, (n, 4, 4))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """36 images and 72 captions: two image chunks, three caption chunks."""
    directory = tmp_path_factory.mktemp("workers_data")
    write_dataset(synth_dataset(seed=3, n_images=36, n_clusters=3, n_m=3,
                                n_r=4, d_in=8, d_r=4, caption_len_range=(3, 6),
                                captions_per_image=2), str(directory))
    return directory


def test_report_bytes_do_not_depend_on_the_worker_count(corpus_dir, workers):
    ds = load_dataset(str(corpus_dir))
    reports = []
    for cpus in (1, 2):
        workers.set(cpus)
        model = Model(TrainConfig(d=D, heads=2, batch_size=2, seed=1),
                      ds.embedding)
        model.bind_feature_widths(ds.msv.shape[2], ds.roi.shape[2])
        reports.append(build_report(model, ds, list(range(ds.n_images)),
                                    "all", [("half", list(range(18)))]
                                    ).to_json())
    assert reports[0] == reports[1]
    assert workers.pools and set(workers.pools) == {2}


def test_training_gradients_do_not_depend_on_the_worker_count(workers):
    b = 40
    msv, roi = _images(1, b)
    batch = Batch(msv=msv, roi=roi, captions=_captions(2, b),
                  image_ids=list(range(b)), caption_ids=list(range(b)))
    results = []
    for cpus in (1, 2):
        workers.set(cpus)
        model = _model(batch_size=b)
        losses = model.batch_losses(batch)
        losses[0].backward()
        results.append(([loss.data.tobytes() for loss in losses],
                         {name: t.grad.tobytes()
                          for name, t in model.reg.tensors().items()}))
    assert results[0] == results[1]
    assert set(workers.pools) == {2}


def test_checkpoint_bytes_do_not_depend_on_the_worker_count(tmp_path, capsys,
                                                            workers):
    # one B=40 batch an epoch: two caption chunks and two image chunks
    data = tmp_path / "data"
    assert main(["synth", "--seed", "4", "--images", "45", "--clusters", "3",
                 "--n-m", "3", "--n-r", "4", "--d-in", "8", "--d-r", "4",
                 "--len-min", "3", "--len-max", "6", "--captions-per-image",
                 "1", "--out", str(data)]) == 0
    runs = []
    for cpus in (1, 2):
        workers.set(cpus)
        out = tmp_path / f"run{cpus}"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--d", str(D), "--heads", "2", "--batch-size", "40",
                     "--epochs", "2", "--seed", "5", "--val-fraction",
                     "0.0"]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "RUN")
        runs.append((stdout, (out / "checkpoint.bin").read_bytes()))
    assert runs[0] == runs[1]
    assert set(workers.pools) == {2}


def test_narrow_models_run_their_chunks_in_the_calling_thread(workers):
    workers.set(8)
    _model(d=PARALLEL_MIN_WIDTH // 2).encode_captions(_captions(3, 3 * CHUNK))
    assert workers.pools == []


def test_many_workers_under_a_short_switch_interval_give_serial_codes(
        workers):
    n = 8 * CHUNK + 1   # nine chunks
    captions, (msv, roi) = _captions(4, n), _images(5, n)
    model = _model()

    def codes():
        images = model.encode_images(msv, roi)
        return ([getattr(images, f).data.tobytes()
                 for f in ("v_m", "v_r", "v_mr")],
                model.encode_captions(captions).data.tobytes())

    workers.set(1)
    serial = _bounded(codes)
    workers.set(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _bounded(codes)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert workers.pools == [8, 8]


def test_an_error_in_the_last_chunk_reaches_the_caller(workers):
    # chunks run shortest captions first, so the one longest caption is
    # in the last chunk
    captions = _captions(6, 3 * CHUNK)
    captions.append([VOCAB + 7] * 12)
    model = _model()
    workers.set(1)
    with pytest.raises(TokenError) as serial:
        _bounded(lambda: model.encode_captions(captions))
    before = set(threading.enumerate())
    workers.set(2)
    with pytest.raises(TokenError) as threaded:
        _bounded(lambda: model.encode_captions(captions))
    assert type(threaded.value) is TokenError
    assert str(threaded.value) == str(serial.value)
    assert workers.pools == [2]
    assert set(threading.enumerate()) <= before


def test_an_error_in_the_first_chunk_drops_the_chunks_not_started(
        workers, monkeypatch):
    # a one-token caption sorts into the first chunk; every other chunk
    # sleeps before it encodes, so two workers start only a few of the
    # sixteen before the error reaches the caller
    bad = [VOCAB + 7]
    captions = _captions(7, 16 * CHUNK - 1) + [bad]
    started = []
    embed = te.embed_captions

    def slow_embed(token_lists, table):
        started.append(bad in token_lists)
        if bad not in token_lists:
            time.sleep(0.05)
        return embed(token_lists, table)

    monkeypatch.setattr(te, "embed_captions", slow_embed)
    model = _model()
    before = set(threading.enumerate())
    workers.set(2)
    with pytest.raises(TokenError):
        _bounded(lambda: model.encode_captions(captions))
    assert any(started) and len(started) <= 4
    assert workers.pools == [2]
    assert set(threading.enumerate()) <= before


def test_no_inputs_still_raise_dimension_error():
    model = _model()
    with pytest.raises(DimensionError):
        model.encode_captions([])
    with pytest.raises(DimensionError):
        model.encode_images([], [])
