"""Inference keeps no tape. batch_forward and model_forward record the
layer tapes only with return_tape=True; without it each layer's
intermediates are dropped before the next layer runs, and layer_forward
does its arithmetic in place in the arrays it made. Checked here: the
logits are the same bits either way, a tape still feeds model_backward,
the layer still computes the out-of-place formulas bit for bit, the mix
output it writes into is always its own, and a warm forward's peak heap
stays near the size of one layer's arrays."""

import tracemalloc

import numpy as np
import pytest

from gwmixer import (
    MixMode,
    SpectrumCache,
    TokenGraph,
    build_chain_graph,
    build_filter_bank,
    build_model,
    model_backward,
    model_forward,
    model_params,
    wavelet_mix,
    wavelet_mix_backward,
)
from gwmixer.blocks import FeedForward, WaveletLayer, batch_forward, layer_backward, layer_forward

MODES = [MixMode.exact(), MixMode.truncated(3), MixMode.chebyshev(8)]


def trees(count, seed=0):
    rng = np.random.default_rng(seed)
    return [TokenGraph(n, [(int(rng.integers(i)), i) for i in range(1, n)])
            for n in rng.integers(5, 12, size=count)]


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_logits_are_the_same_with_and_without_a_tape(mode):
    model = build_model(8, 2, 3, 2, 11, seed=1)
    g = trees(1, seed=2)[0]
    ids = np.arange(g.n) % 11
    cache = SpectrumCache()
    bare, none = model_forward(model, g, ids, mode, cache)
    taped, tape = model_forward(model, g, ids, mode, cache, return_tape=True)
    assert none is None
    assert np.array_equal(bare, taped)
    assert len(tape.layer_tapes) == 3


@pytest.mark.parametrize("mode", MODES[:2], ids=str)
def test_a_four_tree_batch_is_the_same_with_and_without_a_tape(mode):
    model = build_model(8, 2, 2, 2, 11, seed=3)
    graphs = trees(4, seed=4)
    ids = [np.arange(g.n) % 11 for g in graphs]
    cache = SpectrumCache()

    def gradients():
        logits, tape = batch_forward(model, graphs, ids, mode, cache, return_tape=True)
        return logits, model_backward(model, tape, np.sin(logits))

    taped, before = gradients()
    bare, none = batch_forward(model, graphs, ids, mode, cache)
    assert none is None
    assert np.array_equal(bare, taped)
    _, after = gradients()  # an inference pass in between changes nothing
    assert list(after) == list(model_params(model))
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_the_layer_computes_the_out_of_place_formulas_bit_for_bit():
    rng = np.random.default_rng(5)
    d = 4
    graph = trees(1, seed=6)[0]
    eig = SpectrumCache().operand([graph], MixMode.exact())
    layer = WaveletLayer(build_filter_bank(2, d, seed=1), FeedForward(
        rng.standard_normal((d, 3 * d)), rng.standard_normal(3 * d),
        rng.standard_normal((3 * d, d)), rng.standard_normal(d)))
    x = rng.standard_normal((graph.n, d))
    upstream = rng.standard_normal((graph.n, d))
    ffn = layer.ffn
    mode = MixMode.exact()

    y, tape = layer_forward(layer, eig, x, mode)
    r = x + wavelet_mix(layer.bank, eig, x, mode)
    pre = r @ ffn.w1 + ffn.b1
    assert np.array_equal(y, r + np.maximum(pre, 0.0) @ ffn.w2 + ffn.b2)
    assert np.array_equal(tape.h, np.maximum(pre, 0.0))

    grad_x, grads = layer_backward(layer, tape, upstream)
    d_pre = (upstream @ ffn.w2.T) * (pre > 0.0)
    d_r = upstream + d_pre @ ffn.w1.T
    _, mix_tape = wavelet_mix(layer.bank, eig, x, mode, return_tape=True)
    mix_x, mix_bank = wavelet_mix_backward(layer.bank, mix_tape, d_r)
    assert np.array_equal(grad_x, d_r + mix_x)
    assert np.array_equal(grads.ffn.w1, r.T @ d_pre)
    assert np.array_equal(grads.ffn.b1, d_pre.sum(axis=0))
    assert np.array_equal(grads.ffn.w2, np.maximum(pre, 0.0).T @ upstream)
    assert np.array_equal(grads.ffn.b2, upstream.sum(axis=0))
    assert np.array_equal(grads.bank.alpha, mix_bank.alpha)


def _owned(out, arrays):
    return not any(np.shares_memory(out, a) for a in arrays)


MIXES = [(MixMode.exact(), 1), (MixMode.exact(), 2), (MixMode.truncated(3), 1),
         (MixMode.truncated(3), 2), (MixMode.chebyshev(0), 1), (MixMode.chebyshev(1), 1),
         (MixMode.chebyshev(8), 1)]


@pytest.mark.parametrize("mode, graph_count", MIXES, ids=str)
def test_the_mix_output_is_never_the_input_or_a_cached_array(mode, graph_count):
    # layer_forward writes into the mix output
    graphs = trees(graph_count, seed=7)
    bank = build_filter_bank(2, 3, seed=2)
    cache = SpectrumCache()
    operand = cache.operand(graphs, mode)
    items = [cache.get_or_compute(g, mode) for g in graphs]
    x = np.random.default_rng(8).standard_normal((sum(g.n for g in graphs), 3))
    out = wavelet_mix(bank, operand, x, mode)
    cached = [x, bank.w1, bank.b1, bank.w2, bank.b2, bank.alpha]
    for s in items:
        cached += [s.matrix.data] if mode.kind == "chebyshev" else [s.u, s.lam]
    assert _owned(out, cached)
    first = out.copy()
    out += 1.0
    assert np.array_equal(wavelet_mix(bank, operand, x, mode), first)


# A warm forward over a 1024-node chain at d=32, K=4, 2 layers, ffn_mult 4
# peaked at 4.8 MB while it kept a tape and at 1.9 MB without one: the
# embedded input, one layer's r, hidden and output arrays, and the logits.
PEAK_BYTES = 2.5e6


@pytest.mark.parametrize("mode", [MixMode.truncated(16), MixMode.chebyshev(16)], ids=str)
def test_a_warm_forward_holds_one_layer_at_a_time(mode):
    model = build_model(32, 4, 2, 4, 64, seed=0)
    g = build_chain_graph(1024)
    ids = np.arange(1024) % 64
    cache = SpectrumCache()
    model_forward(model, g, ids, mode, cache)  # spectrum and chain graph cached
    tracemalloc.start()
    try:
        model_forward(model, g, ids, mode, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES, f"peak {peak / 1e6:.2f} MB"
