"""The Chebyshev kernel: one recurrence T_{p+1} = A2 T_p - T_{p-1} over
A2 = 2(L - I), the Laplacian's chebyshev_operator, built lazily once per
Laplacian and never by exact or truncated work. Checked here against a
dense three-term recurrence on L - I, for a stack of graphs mixed in one
pass over the A2 of their disjoint union (its operator is checked in
test_operand), and at the boundary of chebyshev_apply and
chebyshev_nodes."""

import threading

import numpy as np
import pytest

from gwmixer import (
    MixMode,
    SpectrumCache,
    TokenGraph,
    TrainConfig,
    build_chain_graph,
    build_model,
    chebyshev_apply,
    normalized_laplacian,
    train_loop,
)
from gwmixer.blocks import batch_forward, model_forward
from gwmixer.graphs import NormalizedLaplacian
from gwmixer.spectral import chebyshev_nodes, chebyshev_series

GRAPHS = {
    "chain": build_chain_graph(12),
    "tree": TokenGraph(15, [((i - 1) // 2, i) for i in range(1, 15)]),
    "isolated nodes": TokenGraph(9, [(0, 1), (1, 2), (4, 5), (5, 3), (3, 4)]),  # 6, 7, 8 alone
    "one node": build_chain_graph(1),
}


def dense_series(lap, w, x):
    """sum_p T_p(L - I) x * w[p] by the textbook recurrence on a dense L - I."""
    lt = lap.matrix.toarray() - np.eye(lap.n)
    terms = [x, lt @ x]
    while len(terms) < len(w):
        terms.append(2.0 * (lt @ terms[-1]) - terms[-2])
    return sum(t * wp for t, wp in zip(terms, w))


@pytest.mark.parametrize("order", [0, 1, 2, 16])
@pytest.mark.parametrize("name", GRAPHS)
def test_kernel_matches_a_dense_recurrence(name, order):
    lap = normalized_laplacian(GRAPHS[name])
    rng = np.random.default_rng(order)
    x = rng.standard_normal((lap.n, 3))
    w = rng.standard_normal((order + 1, 3))
    ref = dense_series(lap, w, x)
    assert np.max(np.abs(chebyshev_series(lap.chebyshev_operator, w, x) - ref)) < 1e-13
    coeffs = w[:, 0]
    ref = dense_series(lap, coeffs[:, None], x)
    assert np.max(np.abs(chebyshev_apply(lap, coeffs, x) - ref)) < 1e-13


@pytest.mark.parametrize("name", GRAPHS)
def test_operator_is_built_once_frozen_and_stores_no_zeros(name):
    # one node: L = [[0]], so A2 = [[-2]]
    lap = normalized_laplacian(GRAPHS[name])
    a2 = lap.chebyshev_operator
    assert lap.chebyshev_operator is a2
    assert np.array_equal(a2.toarray(), 2.0 * (lap.matrix.toarray() - np.eye(lap.n)))
    assert np.all(a2.data != 0.0)
    for arr in (a2.data, a2.indices, a2.indptr):
        assert not arr.flags.writeable


def test_exact_training_builds_no_operator(monkeypatch):
    built = []
    original = NormalizedLaplacian.chebyshev_operator

    def spy(lap):
        built.append(lap.n)
        return original.func(lap)

    monkeypatch.setattr(NormalizedLaplacian, "chebyshev_operator", property(spy))
    cfg = TrainConfig(d=8, k=2, layers=2, ffn_mult=2, vocab=16, task="copy", n=10, steps=3,
                      seed=0)
    model = build_model(cfg.d, cfg.k, cfg.layers, cfg.ffn_mult, cfg.vocab, seed=cfg.seed)
    assert len(train_loop(model, cfg).records) >= 1
    assert built == []
    # the spy does see a chebyshev forward's lookups of the operator, one per layer
    model_forward(model, build_chain_graph(10), np.arange(10), MixMode.chebyshev(4))
    assert built == [10] * cfg.layers


@pytest.mark.parametrize("order", [0, 1, 16])
def test_a_stacked_pass_equals_per_graph_passes(order):
    graphs = [GRAPHS["tree"], GRAPHS["chain"], GRAPHS["isolated nodes"]]
    model = build_model(8, 3, 2, 2, 13, seed=4)
    ids = [np.arange(g.n) * 5 % 13 for g in graphs]
    mode = MixMode.chebyshev(order)
    cache = SpectrumCache()
    stacked, _ = batch_forward(model, graphs, ids, mode, cache)
    parts = [model_forward(model, g, t, mode, cache)[0] for g, t in zip(graphs, ids)]
    assert np.max(np.abs(stacked - np.concatenate(parts))) < 1e-13


def test_threads_sharing_a_cache_see_one_operator_and_equal_logits():
    model = build_model(8, 2, 2, 2, 13, seed=5)
    g = GRAPHS["isolated nodes"]
    ids = np.arange(g.n) % 13
    cache = SpectrumCache()
    mode = MixMode.chebyshev(8)
    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        for _ in range(10):
            results.append(model_forward(model, g, ids, mode, cache)[0])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(results) == 80
    assert all(np.array_equal(r, results[0]) for r in results)
    lap, _ = cache.get_or_compute(g, mode)
    assert lap.chebyshev_operator is lap.chebyshev_operator


@pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]], [np.nan, 1.0], [np.inf], ["a"]],
                         ids=["empty", "2-D", "nan", "inf", "text"])
def test_apply_rejects_bad_coefficients(coeffs):
    lap = normalized_laplacian(build_chain_graph(4))
    with pytest.raises(ValueError, match="^chebyshev coefficients must be"):
        chebyshev_apply(lap, coeffs, np.ones((4, 2)))


def test_nodes_are_computed_once_per_order_and_frozen():
    nodes, fit = chebyshev_nodes(5)
    again = chebyshev_nodes(np.int64(5))
    assert again[0] is nodes and again[1] is fit
    assert not nodes.flags.writeable and not fit.flags.writeable
    assert fit.shape == (6, 6)


@pytest.mark.parametrize("order", [True, 2.5, "3"])
def test_memoised_nodes_still_reject_orders_that_are_not_integers(order):
    chebyshev_nodes(1)
    chebyshev_nodes(3)
    with pytest.raises(ValueError, match="^chebyshev order must be an integer >= 0"):
        chebyshev_nodes(order)
