"""The Chebyshev kernel: one recurrence T_{p+1} = A2 T_p - T_{p-1} over
A2 = 2(L - I), a ChebyshevOperator filled from the graphs' edges, built
once per cached graph and never by exact or truncated work. Checked here
against a dense three-term recurrence on L - I, for a stack of graphs
mixed in one pass over the A2 of their disjoint union (its operator is
checked in test_operand), and at the boundary of chebyshev_apply and
chebyshev_nodes."""

import sys
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
from gwmixer.spectral import ChebyshevOperator, chebyshev_nodes, chebyshev_series

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
    a2 = ChebyshevOperator.of([GRAPHS[name]]).matrix
    assert np.max(np.abs(chebyshev_series(a2, w, x) - ref)) < 1e-13
    coeffs = w[:, 0]
    ref = dense_series(lap, coeffs[:, None], x)
    assert np.max(np.abs(chebyshev_apply(lap, coeffs, x) - ref)) < 1e-13


def spy_on_the_builder(monkeypatch):
    """The node counts of every ChebyshevOperator built from now on."""
    built = []
    original = ChebyshevOperator.of.__func__

    def spy(cls, graphs):
        op = original(cls, graphs)
        built.append(op.n)
        return op

    monkeypatch.setattr(ChebyshevOperator, "of", classmethod(spy))
    return built


@pytest.mark.parametrize("name", GRAPHS)
def test_operator_is_built_once_frozen_and_stores_no_zeros(monkeypatch, name):
    # one node: L = [[0]], so A2 = [[-2]]
    g = GRAPHS[name]
    lap = normalized_laplacian(g)
    built = spy_on_the_builder(monkeypatch)
    cache = SpectrumCache()
    op = cache.get_or_compute(g, MixMode.chebyshev(4))
    assert cache.get_or_compute(g, MixMode.chebyshev(16)) is op
    assert built == [g.n]
    a2 = op.matrix
    assert np.array_equal(a2.toarray(), 2.0 * (lap.matrix.toarray() - np.eye(lap.n)))
    assert np.all(a2.data != 0.0)
    for arr in (a2.data, a2.indices, a2.indptr):
        assert not arr.flags.writeable


def test_exact_training_builds_no_operator(monkeypatch):
    built = spy_on_the_builder(monkeypatch)
    cfg = TrainConfig(d=8, k=2, layers=2, ffn_mult=2, vocab=16, task="copy", n=10, steps=3,
                      seed=0)
    model = build_model(cfg.d, cfg.k, cfg.layers, cfg.ffn_mult, cfg.vocab, seed=cfg.seed)
    assert len(train_loop(model, cfg).records) >= 1
    assert built == []
    # the spy does see a chebyshev forward's build, one for all its layers
    model_forward(model, build_chain_graph(10), np.arange(10), MixMode.chebyshev(4))
    assert built == [10]


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


def test_threads_sharing_a_cache_see_one_operator_and_equal_logits(monkeypatch):
    built = spy_on_the_builder(monkeypatch)
    model = build_model(8, 2, 2, 2, 13, seed=5)
    edges = GRAPHS["isolated nodes"].edges
    ids = np.arange(9) % 13
    mode = MixMode.chebyshev(8)
    want = model_forward(model, GRAPHS["isolated nodes"], ids, mode)[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so that lookups and inserts interleave
    try:
        for _ in range(20):  # a new graph object and cache each round, so the race recurs
            g, cache = TokenGraph(9, edges), SpectrumCache()
            built.clear()
            operators, logits = [], []
            barrier = threading.Barrier(8)

            def worker():
                barrier.wait()
                operators.append(cache.operand([g], mode))
                logits.append(model_forward(model, g, ids, mode, cache)[0])

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert built == [9] and len(operators) == 8
            assert all(op is cache.get_or_compute(g, mode) for op in operators)
            assert len(logits) == 8 and all(np.array_equal(y, want) for y in logits)
    finally:
        sys.setswitchinterval(interval)


def test_a_lone_graph_repeated_sees_one_operator_and_equal_logits(monkeypatch):
    built = spy_on_the_builder(monkeypatch)
    model = build_model(8, 2, 2, 2, 13, seed=6)
    g = build_chain_graph(257)
    ids = np.arange(g.n) % 13
    cache = SpectrumCache()
    mode = MixMode.chebyshev(16)
    first = model_forward(model, g, ids, mode, cache)[0]
    operand = cache.operand([g], mode)
    for _ in range(9):
        assert model_forward(model, g, ids, mode, cache)[0].tobytes() == first.tobytes()
        assert cache.operand([g], mode) is operand
    assert built == [g.n]


@pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]], [np.nan, 1.0], [np.inf], ["a"]],
                         ids=["empty", "2-D", "nan", "inf", "text"])
def test_apply_rejects_bad_coefficients(coeffs):
    lap = normalized_laplacian(build_chain_graph(4))
    with pytest.raises(ValueError, match="^chebyshev coefficients must be"):
        chebyshev_apply(lap, coeffs, np.ones((4, 2)))


@pytest.mark.parametrize("operand", ["graph", "operator", "matrix"])
def test_apply_takes_only_a_laplacian(operand):
    g = build_chain_graph(4)
    value = {"graph": g, "operator": ChebyshevOperator.of([g]),
             "matrix": normalized_laplacian(g).matrix}[operand]
    with pytest.raises(ValueError, match="^chebyshev_apply needs a NormalizedLaplacian, got "
                                         f"{type(value).__name__}$"):
        chebyshev_apply(value, [1.0, 0.5], np.ones((4, 2)))


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
