"""One operand per mix. SpectrumCache.operand is the one place that
decides what a mode mixes over: the cached EigenSystem or
ChebyshevOperator of a lone graph, and for several graphs the EigenStack
of their systems or the ChebyshevOperator of their disjoint union,
filled in one pass from their edges. wavelet_mix and layer_forward take
that one value and reject any other kind, and a mode that is not a
MixMode, before any product. wavelet_mix_backward is never given an operand:
it reads the one its forward's MixTape records, and rejects anything
but such a tape, a bank of the tape's shape and an upstream gradient
over the tape's rows before any product."""

import ast
import inspect
import os
import re

import numpy as np
import pytest
from scipy import sparse

import gwmixer.filterbank as filterbank_mod
import gwmixer.graphs as graphs_mod
import gwmixer.spectral as spectral_mod
from gwmixer import (
    FilterBank,
    MixMode,
    SpectrumCache,
    TaskSample,
    TokenGraph,
    build_chain_graph,
    build_feed_forward,
    build_filter_bank,
    build_model,
    evaluate,
    layer_forward,
    model_forward,
    normalized_laplacian,
    wavelet_mix,
    wavelet_mix_backward,
)
from gwmixer.blocks import WaveletLayer, batch_forward
from gwmixer.spectral import ChebyshevOperator, EigenStack, EigenSystem

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "gwmixer")
MODES = [MixMode.exact(), MixMode.truncated(3), MixMode.chebyshev(8)]
# what each mode mixes over, as its error names it and as the type of a
# several-graph operand
SYSTEMS = ("an EigenSystem or EigenStack", EigenStack)
MIXES_OVER = {"exact": SYSTEMS, "truncated:3": SYSTEMS,
              "chebyshev:8": ("a ChebyshevOperator", ChebyshevOperator)}


def union_graphs():
    """Six seed-1 trees, a graph with isolated nodes (6, 7, 8) and a
    300-node chain."""
    rng = np.random.default_rng(1)
    trees = [TokenGraph(int(n), [(int(rng.integers(i)), i) for i in range(1, int(n))])
             for n in rng.integers(2, 40, size=6)]
    return trees + [TokenGraph(9, [(0, 1), (1, 2), (4, 5), (5, 3), (3, 4)]),
                    build_chain_graph(300)]


# each call as (bank, operand, x, mode)
CALLS = {
    "wavelet_mix": wavelet_mix,
    "layer_forward": lambda bank, op, x, mode: layer_forward(
        WaveletLayer(bank, build_feed_forward(bank.d, 2, np.random.default_rng(0))), op, x, mode),
}
# every operand of the wrong kind for a mode: None or a Laplacian anywhere,
# a Chebyshev operator in exact or truncated mode, an eigensystem in
# chebyshev mode
WRONG = [(kind, mode) for kind in ("None", "NormalizedLaplacian") for mode in MODES] + [
    ("ChebyshevOperator", MODES[0]), ("ChebyshevOperator", MODES[1]),
    ("EigenSystem", MODES[2])]


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("kind, mode", WRONG, ids=lambda v: str(v))
def test_a_wrong_operand_raises_before_any_product(monkeypatch, call, kind, mode):
    g = build_chain_graph(6)
    cache = SpectrumCache()
    operand = {"None": None, "NormalizedLaplacian": normalized_laplacian(g),
               "EigenSystem": cache.get_or_compute(g),
               "ChebyshevOperator": cache.get_or_compute(g, MODES[2])}[kind]
    bank = build_filter_bank(2, 3, seed=0)
    x = np.ones((6, 3))
    started = []
    for name in ("_bank_eval", "chebyshev_series"):  # the first product of each path
        monkeypatch.setattr(filterbank_mod, name, lambda *a: started.append(a))
    what, got = MIXES_OVER[str(mode)][0], type(operand).__name__
    with pytest.raises(ValueError, match=f"^{mode} mode mixes over {what}, got {got}$"):
        CALLS[call](bank, operand, x, mode)
    assert started == []


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_a_lone_graph_gets_the_cached_object_itself(mode):
    g = build_chain_graph(7)
    cache = SpectrumCache()
    operand = cache.operand([g], mode)
    assert operand is cache.get_or_compute(g, mode)
    assert cache.operand((g,), mode) is operand


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_several_graphs_look_up_each_graph_once(monkeypatch, mode):
    # a stacked Chebyshev operand is filled from the edges: no lookup at all
    graphs = union_graphs()[:4]
    cache = SpectrumCache()
    looked_up = []
    original = SpectrumCache.get_or_compute
    monkeypatch.setattr(SpectrumCache, "get_or_compute",
                        lambda self, g, m: looked_up.append(g) or original(self, g, m))
    operand = cache.operand(iter(graphs), mode)
    assert looked_up == ([] if mode.kind == "chebyshev" else graphs)
    assert isinstance(operand, MIXES_OVER[str(mode)][1])
    assert operand.n == sum(g.n for g in graphs)


def test_no_graphs_is_a_value_error():
    with pytest.raises(ValueError, match="^an operand needs at least one graph$"):
        SpectrumCache().operand([], MixMode.exact())


def random_forest(seed):
    """Seeded trees, edges in random direction and order, with one-node
    trees among them."""
    rng = np.random.default_rng(seed)
    graphs = []
    for n in rng.integers(1, 30, size=int(rng.integers(2, 12))).tolist():
        edges = [(int(rng.integers(i)), i) for i in range(1, n)]
        edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
        graphs.append(TokenGraph(n, [edges[i] for i in rng.permutation(len(edges))]))
    return graphs


UNIONS = {
    "trees, isolated nodes and a chain": union_graphs,
    "one-node graphs": lambda: [TokenGraph(1), TokenGraph(1), TokenGraph(1)],
    "empty rows first and last": lambda: [TokenGraph(1), build_chain_graph(3),
                                          TokenGraph(5, [(2, 1), (1, 3)]), TokenGraph(1)],
    **{f"random forest {seed}": lambda seed=seed: random_forest(seed) for seed in range(4)},
}


def a2_reference(g):
    """2(L - I) by sparse arithmetic on g's Laplacian, as chebyshev_apply forms it."""
    return 2.0 * normalized_laplacian(g).matrix - 2.0 * sparse.eye_array(g.n, format="csr")


@pytest.mark.parametrize("graphs", UNIONS.values(), ids=UNIONS.keys())
def test_the_operator_is_the_block_diagonal_of_each_graphs_2_l_minus_i(monkeypatch, graphs):
    graphs = graphs()
    want = sparse.block_diag([a2_reference(g) for g in graphs], format="csr")
    monkeypatch.setattr(sparse, "block_diag", lambda *a, **k: pytest.fail("block_diag called"))
    op = SpectrumCache().operand(graphs, MixMode.chebyshev(4))
    assert isinstance(op, ChebyshevOperator) and op.n == sum(g.n for g in graphs)
    have = op.matrix
    assert have.format == "csr" and have.shape == want.shape
    assert have.indices.dtype == np.int32 and np.all(have.data != 0.0)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(have, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable


def test_a_stacked_chebyshev_operand_hashes_and_caches_nothing(monkeypatch):
    graphs = union_graphs()
    cache = SpectrumCache()
    cache.get_or_compute(graphs[0], MixMode.chebyshev(4))  # a warm graph is not read either
    calls = []
    for mod, name in ((graphs_mod, "content_hash"), (graphs_mod, "normalized_laplacian"),
                      (spectral_mod, "normalized_laplacian")):
        monkeypatch.setattr(mod, name, lambda *a, name=name: calls.append(name))
    monkeypatch.setattr(SpectrumCache, "get_or_compute", lambda *a: calls.append(a))
    for g in graphs:
        g.__dict__.pop("spectral_key", None)  # so a key lookup would hash again
    op = cache.operand(graphs, MixMode.chebyshev(16))
    assert calls == [] and len(cache) == 1
    assert op.n == sum(g.n for g in graphs)


def _entry_points():
    """Each entry point that takes a mix mode, as a call of (graph, mode),
    its graph a 5-node chain."""
    model = build_model(4, 2, 1, 2, 7, seed=0)
    bank = build_filter_bank(2, 3, seed=0)
    eig = SpectrumCache().operand([build_chain_graph(5)], MixMode.exact())
    ids = np.zeros(5, dtype=int)
    return {
        "model_forward": lambda g, mode: model_forward(model, g, ids, mode),
        "batch_forward": lambda g, mode: batch_forward(model, [g, g], [ids, ids], mode),
        "evaluate": lambda g, mode: evaluate(
            model, [TaskSample(g, ids, ids, np.ones(5, dtype=bool))], mode),
        "operand": lambda g, mode: SpectrumCache().operand([g], mode),
        "get_or_compute": lambda g, mode: SpectrumCache().get_or_compute(g, mode),
        "wavelet_mix": lambda g, mode: wavelet_mix(bank, eig, np.ones((5, 3)), mode),
    }


@pytest.mark.parametrize("mode", ["chebyshev:4", "exact", None], ids=repr)
@pytest.mark.parametrize("call", _entry_points())
def test_a_mode_that_is_not_a_mix_mode_is_a_value_error(monkeypatch, call, mode):
    call = _entry_points()[call]
    started = []
    for mod, name in ((spectral_mod, "eigendecompose"), (filterbank_mod, "_bank_eval"),
                      (filterbank_mod, "chebyshev_series")):
        monkeypatch.setattr(mod, name, lambda *a, **k: started.append(a))
    with pytest.raises(ValueError, match=f"^mix mode must be a MixMode, got {type(mode).__name__}$"):
        call(build_chain_graph(5), mode)
    assert started == []


NOT_GRAPHS = {"a Laplacian": lambda g: normalized_laplacian(g),
              "an operator": lambda g: ChebyshevOperator.of([g]),
              "edges": lambda g: g.edges}


@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("what", NOT_GRAPHS)
def test_an_operand_of_anything_but_token_graphs_is_a_value_error(what, count, mode):
    g = build_chain_graph(5)
    bad = NOT_GRAPHS[what](g)
    graphs = [g] * (count - 1) + [bad]
    with pytest.raises(ValueError, match="^an operand is built from TokenGraphs, got "
                                         f"{type(bad).__name__}$"):
        SpectrumCache().operand(graphs, mode)


@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("what", NOT_GRAPHS)
def test_a_lookup_of_anything_but_a_token_graph_is_a_value_error(monkeypatch, what, mode):
    bad = NOT_GRAPHS[what](build_chain_graph(5))
    calls = []
    for mod, name in ((graphs_mod, "content_hash"), (spectral_mod, "eigendecompose"),
                      (spectral_mod, "normalized_laplacian")):
        monkeypatch.setattr(mod, name, lambda *a, name=name, **k: calls.append(name))
    cache = SpectrumCache()
    with pytest.raises(ValueError, match="^a spectrum is looked up for a TokenGraph, got "
                                         f"{type(bad).__name__}$"):
        cache.get_or_compute(bad, mode)
    assert calls == [] and len(cache) == 0


@pytest.mark.parametrize("order", [0, 1, 16])
def test_mixing_over_the_union_is_mixing_each_graph_bit_for_bit(order):
    graphs = union_graphs()
    cache = SpectrumCache()
    mode = MixMode.chebyshev(order)
    bank = build_filter_bank(3, 4, seed=order)
    bank.alpha[...] = np.random.default_rng(order).uniform(-1.0, 1.0, bank.alpha.shape)
    x = np.random.default_rng(9).standard_normal((sum(g.n for g in graphs), 4))
    y = wavelet_mix(bank, cache.operand(graphs, mode), x, mode)
    rows = np.cumsum([0] + [g.n for g in graphs])
    for g, a, b in zip(graphs, rows[:-1], rows[1:]):
        assert np.array_equal(y[a:b], wavelet_mix(bank, cache.operand([g], mode), x[a:b], mode))


def test_the_backward_reads_only_its_tape():
    assert list(inspect.signature(wavelet_mix_backward).parameters) == ["bank", "tape", "upstream"]


NOT_A_TAPE = "^chebyshev mode is inference-only; no backward pass without the MixTape of an " \
    "exact or truncated mix, got "


def _misfit(alpha, upstream):
    return "^" + re.escape(f"tape mixed K=2 filters over (6, 3) signals; got alpha {alpha} "
                           f"and upstream {upstream}") + "$"


def _bank_of_width(h):
    """A K=2, d=3 bank whose filters are h wide."""
    w = np.ones((2, h))
    return FilterBank(w, w.copy(), w.copy(), np.ones(2), np.ones((2, 3)))


def _width_misfit(h):
    return "^" + re.escape(f"tape mixed K=2 filters of width H=16; got w1 (2, {h})") + "$"


# each case as (bank, tape, upstream) from the bank (K=2, d=3) and tape of a
# 6-node mix, and the message it raises
BAD_BACKWARDS = {
    "None": (lambda bank, tape: (bank, None, np.ones((6, 3))), NOT_A_TAPE + "NoneType$"),
    "EigenSystem": (lambda bank, tape: (bank, tape.operand, np.ones((6, 3))),
                    NOT_A_TAPE + "EigenSystem$"),
    "upstream-rows": (lambda bank, tape: (bank, tape, np.ones((5, 3))),
                      _misfit((2, 3), (5, 3))),
    "upstream-channels": (lambda bank, tape: (bank, tape, np.ones((6, 4))),
                          _misfit((2, 3), (6, 4))),
    "bank-K": (lambda bank, tape: (build_filter_bank(3, 3), tape, np.ones((6, 3))),
               _misfit((3, 3), (6, 3))),
    "bank-d": (lambda bank, tape: (build_filter_bank(2, 4), tape, np.ones((6, 4))),
               _misfit((2, 4), (6, 4))),
    "bank-H1": (lambda bank, tape: (_bank_of_width(1), tape, np.ones((6, 3))), _width_misfit(1)),
    "bank-H8": (lambda bank, tape: (_bank_of_width(8), tape, np.ones((6, 3))), _width_misfit(8)),
}


@pytest.mark.parametrize("mode", MODES[:2], ids=str)
@pytest.mark.parametrize("case", BAD_BACKWARDS)
def test_a_backward_given_anything_but_its_tape_raises_before_any_product(monkeypatch, mode,
                                                                          case):
    bank = build_filter_bank(2, 3, seed=0)
    _, tape = wavelet_mix(bank, SpectrumCache().operand([build_chain_graph(6)], mode),
                          np.ones((6, 3)), mode, return_tape=True)
    started = []
    for cls in (EigenSystem, EigenStack):  # the products of the backward
        for name in ("analysis", "synthesis"):
            monkeypatch.setattr(cls, name, lambda *a: started.append(a))
    args, message = BAD_BACKWARDS[case]
    with pytest.raises(ValueError, match=message):
        wavelet_mix_backward(*args(bank, tape))
    assert started == []


@pytest.mark.parametrize("module", ["filterbank.py", "blocks.py"])
def test_mixing_modules_import_nothing_from_scipy(module):
    # scipy comes in through graphs, first; importing it ahead of graphs slowed start-up
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert names and not [n for n in names if n.split(".")[0] == "scipy"]
