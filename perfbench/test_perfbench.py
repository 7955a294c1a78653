"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import sys

import pytest

import tracing
import workloads as wl
from tracing import Span, Tracer, graph_nodes, layer_report, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


# ------------------------------------------------------------ tail rule

def test_tail_needs_more_than_ten_samples():
    assert wl.tail([1.0] * 10) is None
    value, pct = wl.tail([float(i) for i in range(11)])
    assert value == 0.0
    assert pct == pytest.approx(100.0 / 11)


@pytest.mark.parametrize("n, rank, pct", [(20, 10, 50.0), (40, 30, 75.0),
                                           (100, 90, 90.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, rank, pct):
    values = [float((7 * i) % n) for i in range(n)]   # a shuffle of 0..n-1
    value, got = wl.tail(values)
    assert value == rank - 1
    assert sum(v > value for v in values) == 10
    assert got == pct


# ------------------------------------------------------------ self time

def span(start, end, parent, name="f", layer="x"):
    return Span(name, layer, start, end, parent, 0)


def test_self_time_nested_spans():
    spans = [span(0, 10, -1), span(1, 4, 0), span(2, 3, 1)]
    assert self_times(spans) == [7, 2, 1]


def test_self_time_sibling_spans():
    spans = [span(0, 10, -1), span(1, 3, 0), span(5, 8, 0)]
    assert self_times(spans) == [5, 2, 3]


def test_self_time_counts_overlap_and_overhang_once():
    # overlapping siblings cover their union; a child is clipped to its parent
    spans = [span(0, 10, -1), span(1, 4, 0), span(3, 6, 0), span(9, 12, 0)]
    assert self_times(spans)[0] == 10 - 5 - 1


def test_layer_report_counts_entries_and_divides_by_roots():
    t = Tracer()
    t.spans = [
        Span("setup", "bench", 0, 2, -1, 0),
        Span("load", "dataio", 0, 1, 0, 0),
        Span("op", "bench", 2, 10, -1, 2),
        Span("enc", "model", 2, 8, 2, 2),
        Span("bigru", "text_encoder", 3, 5, 3, 2),
        Span("scan", "text_encoder", 4, 5, 4, 2),
        Span("op", "bench", 10, 14, -1, 6),
        Span("enc", "model", 10, 13, 6, 6),
    ]
    t.counts.update({"setup.roots": 1, "op.roots": 2})
    out = layer_report(t)
    assert out["dataio.self_s"] == 1
    assert out["model.self_s"] == (4 + 3) / 2
    assert out["text_encoder.self_s"] == 2 / 2
    assert out["text_encoder.calls"] == 1 / 2   # the nested call is no entry
    assert out["trace.unattributed_frac"] == pytest.approx(
        (1 + (2 + 1) / 2) / (2 + 12 / 2))


@pytest.mark.parametrize("n", [3, 7, 10])
def test_calls_per_root_are_exact_for_any_number_of_roots(n):
    t = Tracer()
    for i in range(n):     # n set-ups, each with one call into each layer
        root = len(t.spans)
        t.spans.append(Span("setup", "bench", i, i + 1, -1, root))
        t.spans.append(Span("f", "visual_encoder", i, i + 0.5, root, root))
        t.spans.append(Span("g", "gated_attention", i + 0.5, i + 1, root, root))
    t.counts["setup.roots"] = n
    out = layer_report(t)
    assert out["visual_encoder.calls"] == 1.0
    assert out["gated_attention.calls"] == 1.0


# --------------------------------------------------------------- graph

class Node:
    def __init__(self, *parents):
        self._parents = parents


def test_graph_walk_counts_each_shared_node_once():
    a, b = Node(), Node()
    c = Node(a, b)
    d = Node(c, a)
    loss = Node(d, c, d)
    assert graph_nodes(loss) == 5
    assert graph_nodes(a) == 1


def test_graph_walk_on_engine_tensors():
    from dove import autograd as ag
    x = ag.Tensor([1.0, 2.0], requires_grad=True)
    k = ag.constant([3.0, 4.0])
    y = ag.add(x, k)
    loss = ag.reduce_sum(ag.mul(y, y))
    assert graph_nodes(loss) == 5    # loss, y*y, y, x, and the constant


# ----------------------------------------------------------- installation

def test_install_wraps_every_lookup_site_and_reports_missing(monkeypatch):
    from dove import evaluation, train
    original = evaluation.similarity_matrix
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + [
        ("dove.train", "removed_function", "train")])
    t = Tracer()
    t.install()
    try:
        assert evaluation.similarity_matrix is not original
        assert train.similarity_matrix is evaluation.similarity_matrix
        assert t.missing == ["dove.train.removed_function"]
    finally:
        t.uninstall()
    assert evaluation.similarity_matrix is original
    assert train.similarity_matrix is original
    assert "open" not in vars(__import__("dove.dataio").dataio)
    t.install()     # again, as the next traced operation does
    t.uninstall()
    assert t.missing == ["dove.train.removed_function"]
    assert evaluation.similarity_matrix is original


# ------------------------------------------------------------ comparator

def test_compare_accepts_equal_and_near_values():
    ref = {"a": [1.0, 2.0], "b": {"c": 3, "d": "x"}}
    assert wl.compare(json.loads(json.dumps(ref)), ref) == []
    assert wl.compare({"a": [1.0 + 1e-9, 2.0], "b": {"c": 3, "d": "x"}},
                      ref) == []


def test_compare_reports_each_difference_with_its_path():
    ref = {"a": [1.0, 2.0], "b": {"c": 3, "d": "x"}}
    got = {"a": [1.0, 2.1], "b": {"c": 3.0, "e": "x"}}
    out = wl.compare(got, ref)
    assert any(line.startswith(".a[1]:") for line in out)
    assert any("missing key 'd'" in line for line in out)
    assert any("unexpected key 'e'" in line for line in out)
    assert any(line.startswith(".b.c:") for line in out)   # 3.0 is not int 3
    assert len(out) == 4


def test_compare_structure_mismatches():
    assert wl.compare([1.0], [1.0, 2.0])
    assert wl.compare(1.0, {"a": 1.0})
    assert wl.compare(True, 1.0)
    assert wl.compare(0.0, 0.0) == []
    assert wl.compare(1e-12, 0.0) == []      # within the absolute tolerance


# ------------------------------------------------------ the declared file

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == wl.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == tracing.PER_LAYER
