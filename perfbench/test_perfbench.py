"""Tests for the benchmark's own parts: python3 -m pytest perfbench -q"""

import json
import os
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gwmixer  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from spans import Rebinder, Span, SpanRecorder, self_times  # noqa: E402


def test_tree_conllu_is_seeded_and_well_formed():
    text = inputs.tree_conllu(7, count=60)
    assert text == inputs.tree_conllu(7, count=60)
    assert text != inputs.tree_conllu(8, count=60)
    graphs = gwmixer.parse_conllu(text)
    assert len(graphs) == 60
    lo, hi = inputs.TREE_LENGTHS
    for g in graphs:
        assert lo <= g.n <= hi
        assert sorted(d for _, d in g.edges) == list(range(1, g.n))  # one head each, root 0
        assert all(0 < d - h <= inputs.HEAD_REACH for h, d in g.edges)


def test_infer_plan_is_seeded_and_balanced():
    plan = inputs.infer_plan(3)
    assert plan == inputs.infer_plan(3)
    assert plan != inputs.infer_plan(4)
    lengths = {n for n, _ in plan}
    assert len(lengths) == inputs.INFER_DISTINCT
    assert all(inputs.INFER_LENGTHS[0] <= n <= inputs.INFER_LENGTHS[1] for n in lengths)
    for n in lengths:
        for mode in inputs.INFER_MODES:
            assert plan.count((n, mode)) == inputs.INFER_REPEATS // len(inputs.INFER_MODES)
    a = inputs.request_tokens(3, 5, 100, 64)
    assert np.array_equal(a, inputs.request_tokens(3, 5, 100, 64))
    assert a.max() < 63


def _span(name, start, end, parent, op=0):
    return Span(name, start, end, parent, op)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("inner", 1.5, 2.5, 1),
        _span("b", 2.0, 4.0, 0),  # overlaps a: [1, 4] is covered once
        _span("c", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 1.0, 2.0, 1.0])


def test_layer_metrics_account_for_the_root():
    spans = [
        _span("train_loop", 0.0, 0.100, -1),
        _span("step", 0.010, 0.090, 0, 1),
        _span("model_forward", 0.010, 0.050, 1, 1),
        _span("layer_forward", 0.015, 0.025, 2, 1),
        _span("wavelet_mix", 0.016, 0.020, 3, 1),
        _span("layer_forward", 0.030, 0.045, 2, 1),
        _span("SpectrumCache.get_or_compute", 0.046, 0.049, 2, 1),
        _span("eigendecompose", 0.047, 0.048, 6, 1),
        _span("model_backward", 0.050, 0.080, 1, 1),
        _span("layer_backward", 0.055, 0.060, 8, 1),  # reverse order: layer 1
        _span("layer_backward", 0.060, 0.070, 8, 1),
    ]
    m = layers.layer_metrics(spans, {}, n_layers=2)
    assert m["filterbank.mix_fwd_ms"] == pytest.approx(4.0)
    assert m["blocks.layer0.fwd_ms"] == pytest.approx(6.0)
    assert m["blocks.layer1.fwd_ms"] == pytest.approx(15.0)
    assert m["blocks.layer1.bwd_ms"] == pytest.approx(5.0)
    assert m["blocks.layer0.bwd_ms"] == pytest.approx(10.0)
    assert m["blocks.model_fwd_ms"] == pytest.approx(12.0)
    assert m["training.loop_self_ms"] == pytest.approx(30.0)
    assert m["spectral.cache_hit_ratio"] == 0.0
    assert m["trace.wall_ms"] == pytest.approx(100.0)
    assert m["trace.accounted_ratio"] == pytest.approx(1.0)


def _bindings():
    """Every function binding in the gwmixer modules and on its classes."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "gwmixer" or name.startswith("gwmixer.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, attr, k)] = v
    return out


def test_wrappers_record_nested_spans_and_are_fully_restored():
    before = _bindings()
    rec = SpanRecorder()
    rebinder = Rebinder()
    try:
        layers.install(rec, rebinder)
        workload.StepClock(rec).install(rebinder)
        assert gwmixer.filterbank.wavelet_mix is not before[("gwmixer.filterbank", "wavelet_mix")]
        assert gwmixer.blocks.wavelet_mix is gwmixer.filterbank.wavelet_mix
        model = gwmixer.build_model(8, 2, 1, 2, 11, seed=0)
        graph = gwmixer.build_chain_graph(6)
        gwmixer.model_forward(model, graph, np.arange(6), gwmixer.MixMode.exact(),
                              gwmixer.SpectrumCache())
    finally:
        rebinder.restore()
    assert _bindings() == before
    names = [s.name for s in rec.spans]
    assert names[:2] == ["build_chain_graph", "model_forward"]
    assert "eigendecompose" in names and "filter_eval" in names
    by_name = {s.name: i for i, s in enumerate(rec.spans)}
    mix = rec.spans[by_name["wavelet_mix"]]
    assert rec.spans[mix.parent].name == "layer_forward"
    assert all(s.end >= s.start for s in rec.spans)


def test_failed_ops_counts_missing_and_rejected_operations():
    assert workload.failed_ops(10, 10, True) == 0
    assert workload.failed_ops(10, 7, True) == 3
    assert workload.failed_ops(10, 10, False) == 10


def test_end_to_end_times_each_operation_by_its_fastest_repetition():
    def rep(op_seconds, setup_s):
        return {"op_seconds": op_seconds, "op_tokens": [10] * len(op_seconds), "setup_s": setup_s,
                "peak_rss_mb": 50.0, "val_loss": None}

    reps = [rep([0.004, 0.001, 0.002, 0.010], 1.0), rep([0.002, 0.003, 0.002, 0.020], 3.0),
            rep([0.003, 0.002, 0.001, 0.030], 2.0)]
    metrics, samples = run.end_to_end(reps)
    assert samples == 4  # fastest per operation: 0.002, 0.001, 0.001, 0.010
    assert metrics["tokens_per_s"] == pytest.approx(40 / 0.014)
    assert metrics["step_p50_ms"] == pytest.approx(1.5)
    assert metrics["step_p90_ms"] == pytest.approx(0.3 * 2 + 0.7 * 10)
    assert metrics["setup_s"] == 2.0
    assert metrics["val_loss"] is None


def test_early_stopped_training_counts_as_failed(tmp_path):
    config = dict(d=8, k=2, layers=1, ffn_mult=2, vocab=16, task="copy", n=8,
                  steps=600, seed=0, lr=0.0, warmup=10, accum=1, patience=1)
    spec = {"config": config, "out_dir": str(tmp_path), "t0": time.perf_counter(),
            "deep_checks": False}
    out = workload.run_train(spec, gwmixer, None)
    assert len(out["op_seconds"]) == 500  # patience ran out at the step-500 validation
    assert out["attempted"] == 600 and out["failed"] == 600
    assert any("stopped after 500 of 600" in p for p in out["problems"])


def test_failed_requests_are_counted_and_good_ones_match_the_reference():
    def model_forward(model, graph, ids, mode, cache):
        if graph.n == 9:
            raise RuntimeError("boom")
        logits, tape = gwmixer.model_forward(model, graph, ids, mode, cache)
        return (logits * np.nan if graph.n == 10 else logits), tape

    gw = SimpleNamespace(**{k: getattr(gwmixer, k) for k in dir(gwmixer) if not k.startswith("_")})
    gw.model_forward = model_forward
    plan = [(8, "truncated:4"), (9, "truncated:4"), (10, "chebyshev:6"),
            (12, "chebyshev:3"), (12, "truncated:5"), (8, "truncated:4")]
    spec = {"model": dict(d=8, k=2, layers=2, ffn_mult=2, vocab=16), "seed": 1, "plan": plan,
            "t0": time.perf_counter(), "deep_checks": True}
    out = workload.run_infer(spec, gw, None)
    assert out["attempted"] == 6 and out["failed"] == 2
    assert len(out["problems"]) == 2, out["problems"]
    assert np.isfinite(out["val_loss"])


@pytest.mark.parametrize("mode", ["truncated:6", "chebyshev:16", "chebyshev:2"])
def test_reference_agrees_with_gwmixer(mode):
    model = gwmixer.build_model(8, 3, 2, 2, 16, seed=2)
    ids = inputs.request_tokens(0, 0, 40, 16)
    logits, _ = gwmixer.model_forward(model, gwmixer.build_chain_graph(40), ids,
                                      gwmixer.parse_mix_mode(mode), gwmixer.SpectrumCache())
    params = gwmixer.model_params(model)
    ref, allowed = reference.reference_logits(params, 2, 3, ids, mode, reference.chain_spectrum(40))
    assert reference.within(logits, ref, allowed)
    assert not reference.within(logits + 10 * allowed, ref, allowed)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
