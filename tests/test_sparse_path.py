"""The sub-quadratic inference path: CSR Laplacian, Lanczos partial
spectra, closed-form paths, bipartite spectra from the SVD of the
half-size biadjacency block, the fused Chebyshev recurrence, the
mode-aware spectrum cache and warm-request behaviour, each checked
against a dense oracle."""

import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import gwmixer.graphs as graphs_mod
import gwmixer.spectral as spectral_mod
from gwmixer import (
    EigenSystem,
    MixMode,
    NormalizedLaplacian,
    NumericalError,
    SpectrumCache,
    TokenGraph,
    bench_scaling,
    build_chain_graph,
    build_filter_bank,
    build_model,
    chebyshev_apply,
    chebyshev_fit,
    content_hash,
    eigendecompose,
    filter_eval,
    model_forward,
    normalized_laplacian,
    parse_conllu,
    parse_mix_mode,
    symmetrize,
    wavelet_mix,
)
from gwmixer.graphs import CHAIN_MEMO_SIZE
from gwmixer.spectral import LANCZOS_MIN_N, ChebyshevOperator

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def dense_laplacian_reference(g: TokenGraph) -> np.ndarray:
    """The dense construction the CSR form replaced, kept as an oracle."""
    n = g.n
    deg = np.zeros(n)
    for s, _ in g.edges:
        deg[s] += 1.0
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    lap = np.zeros((n, n))
    edges = sorted(g.edges.tolist())
    if edges:
        src = np.array([e[0] for e in edges], dtype=np.intp)
        dst = np.array([e[1] for e in edges], dtype=np.intp)
        lap[src, dst] = -(dinv[src] * dinv[dst])
    lap[np.arange(n), np.arange(n)] = np.where(deg > 0, 1.0, 0.0)
    return lap


def random_tree(rng, n):
    return symmetrize(TokenGraph(n, [(int(rng.integers(i)), i) for i in range(1, n)]))


def relabelled_chain(rng, n):
    """A path over n nodes visited in a random order: the chain's spectrum,
    but not the path 0-1-...-(n-1), so no closed form."""
    order = rng.permutation(n)
    return symmetrize(TokenGraph(n, np.stack((order[:-1], order[1:]), axis=1)))


def spy_on(monkeypatch, *names):
    """Record, in call order, which of spectral's solver functions run."""
    calls = []
    for name in names:
        original = getattr(spectral_mod, name)

        def spy(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(spectral_mod, name, spy)
    return calls


@pytest.fixture
def lanczos_calls(monkeypatch):
    return spy_on(monkeypatch, "_lanczos")


class TestCsrLaplacian:
    GOLDEN = [
        TokenGraph(1),
        TokenGraph(2, ((0, 1), (1, 0))),
        TokenGraph(3, ((0, 1), (1, 0), (1, 2), (2, 1))),
        TokenGraph(3, ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))),
        TokenGraph(3, ((0, 1), (1, 0))),  # node 2 isolated
        TokenGraph(6, ((0, 1), (1, 0), (2, 3), (3, 2), (1, 4), (4, 1))),  # node 5 isolated
        TokenGraph(5, ((2, 0), (0, 2), (2, 1), (1, 2), (2, 3), (3, 2), (2, 4), (4, 2))),
    ]

    # sha256 digests of GOLDEN and of three parsed trees, computed when
    # edges were tuples read by a line-by-line parser; they must not change
    GOLDEN_HASHES = (
        "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
        "66c313335fc249aefd7420b063da1bbd123fa61351b9517955aa2623eba94038",
        "b530701aed53024a817de16ac9c35b5682c837eec1cfb79736dd6e0aa028a102",
        "f9434dd28907a505b21a2cdfc70228d6fe8594d92a8e532b0d990a42372d9b51",
        "9b768a7138e147b4158a6b26c2e04ee536af084a18f7b751a9439af1a7cc0765",
        "4426ae5ec4e67ecfe406052e7fa32aa1664dc812f9ced3d781d71ff1c5dfe588",
        "47e396803d34bd795a09a091d7270f0109359911aa0babdc3efa214bda4be623",
    )
    TREES = (
        "1\tthe\t_\t_\t_\t_\t2\tdep\t_\t_\n2\tcat\t_\t_\t_\t_\t3\tdep\t_\t_\n"
        "3\tsat\t_\t_\t_\t_\t0\tdep\t_\t_\n4\tdown\t_\t_\t_\t_\t3\tdep\t_\t_\n\n"
        "1-2\tdoesn't\t_\t_\t_\t_\t_\tdep\t_\t_\n1\tdoes\t_\t_\t_\t_\t0\tdep\t_\t_\n"
        "2\tn't\t_\t_\t_\t_\t1\tdep\t_\t_\n2.1\tx\t_\t_\t_\t_\t_\tdep\t_\t_\n"
        "3\tgo\t_\t_\t_\t_\t1\tdep\t_\t_\n\n"
        "1\t\u00e9t\u00e9\t_\t_\t_\t_\t0\tdep\t_\t_\n"
    )
    TREE_HASHES = (
        "a7320d3a592b453ecfc826f00a7489129fb2555e82f09c149c2492cc8efadfeb",
        "7c4cec7a82e1aa578a08e41043044a9bfed3839e107aef17f4bf292878784259",
        "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    )

    def test_content_hash_digests_are_pinned(self):
        assert tuple(content_hash(g) for g in self.GOLDEN) == self.GOLDEN_HASHES
        trees = parse_conllu(self.TREES)
        assert [g.n for g in trees] == [4, 3, 1]
        assert tuple(content_hash(g) for g in trees) == self.TREE_HASHES
        assert tuple(content_hash(symmetrize(g)) for g in trees) == self.TREE_HASHES

    @pytest.mark.parametrize("g", GOLDEN, ids=lambda g: f"n{g.n}e{len(g.edges)}")
    def test_dense_copy_bit_identical_to_dense_construction(self, g):
        lap = normalized_laplacian(g)
        assert lap.matrix.toarray().tobytes() == dense_laplacian_reference(g).tobytes()

    def test_random_graphs_bit_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            mask = np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.5), k=1)
            g = symmetrize(TokenGraph(n, [(int(i), int(j)) for i, j in np.argwhere(mask)]))
            lap = normalized_laplacian(g)
            assert lap.matrix.toarray().tobytes() == dense_laplacian_reference(g).tobytes()
            assert lap.matrix.has_sorted_indices

    def test_stores_only_the_nonzeros(self):
        lap = normalized_laplacian(symmetrize(build_chain_graph(1000)))
        assert lap.matrix.nnz == 1000 + 2 * 999

    def test_isolated_node_has_an_empty_row(self):
        lap = normalized_laplacian(TokenGraph(3, ((0, 1), (1, 0))))
        assert lap.matrix.indptr[3] == lap.matrix.indptr[2]


class TestMixModeValidation:
    @pytest.mark.parametrize("kind,param", [
        ("bogus", 3), ("exact", 5), ("exact", 0), ("truncated", None), ("truncated", 0),
        ("truncated", 2.0), ("truncated", True), ("chebyshev", None), ("chebyshev", -1),
        ("chebyshev", "8"),
    ])
    def test_rejected_at_construction(self, kind, param):
        with pytest.raises(ValueError):
            MixMode(kind, param)

    def test_unknown_kind_named(self):
        with pytest.raises(ValueError, match="bogus"):
            MixMode("bogus", 3)

    def test_numpy_integer_accepted_as_int(self):
        mode = MixMode.truncated(np.int64(4))
        assert mode == MixMode("truncated", 4)
        assert type(mode.param) is int
        assert str(MixMode.chebyshev(0)) == "chebyshev:0"

    def test_truncation_larger_than_graph_fails_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectral_mod, "eigendecompose", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(spectral_mod, "normalized_laplacian", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"m=9 .*n=8"):
            SpectrumCache().get_or_compute(build_chain_graph(8), MixMode.truncated(9))
        model = build_model(4, 2, 1, 2, 7, seed=0)
        with pytest.raises(ValueError, match=r"m=9 .*n=8"):
            model_forward(model, build_chain_graph(8), np.zeros(8, dtype=int),
                          parse_mix_mode("truncated:9"), SpectrumCache())
        assert calls == []

    @pytest.mark.parametrize("mode, n, pairs", [
        (MixMode.exact(), 1, 1), (MixMode.exact(), 40, 40), (MixMode.truncated(1), 1, 1),
        (MixMode.truncated(16), 16, 16), (MixMode.truncated(16), 300, 16),
        (MixMode.chebyshev(0), 5, None), (MixMode.chebyshev(16), 3, None),
    ])
    def test_pairs_a_mode_mixes_over(self, mode, n, pairs):
        assert mode.pairs(n) == pairs

    def test_pairs_above_the_graph_size_named(self):
        with pytest.raises(ValueError, match=r"^truncated:9 needs m <= n, got m=9 for a graph "
                                             r"of n=8 nodes$"):
            MixMode.truncated(9).pairs(8)


class TestPartialSpectrum:
    def test_partial_mixing_matches_dense_then_slice(self, lanczos_calls):
        rng = np.random.default_rng(5)
        relabel = np.random.default_rng(6)  # a stream apart, so rng draws the same trees
        graphs = [relabelled_chain(relabel, n) for n in (LANCZOS_MIN_N, 300, 777)]
        graphs += [random_tree(rng, int(rng.integers(LANCZOS_MIN_N, 400))) for _ in range(12)]
        checked = 0
        for i, g in enumerate(graphs):
            lap = normalized_laplacian(g)
            full = eigendecompose(lap)
            m = int(rng.integers(1, 25))
            if full.lam[m] - full.lam[m - 1] <= 1e-8:
                continue  # the m-mode subspace is not unique
            part = eigendecompose(lap, m=m)
            assert part.m == m
            assert np.max(np.abs(part.lam - full.lam[:m])) < 1e-12
            bank = build_filter_bank(3, 5, seed=i)
            bank.alpha[...] = rng.standard_normal(bank.alpha.shape)
            x = rng.standard_normal((g.n, 5))
            mode = MixMode.truncated(m)
            ref = wavelet_mix(bank, EigenSystem(full.u[:, :m], full.lam[:m]), x, mode)
            assert np.max(np.abs(wavelet_mix(bank, part, x, mode) - ref)) < 1e-10
            checked += 1
        assert checked >= 10
        assert len(lanczos_calls) == checked

    def test_missed_repeated_eigenvalue_raises_instead_of_answering_wrong(self, monkeypatch):
        # Small random trees often repeat an eigenvalue; single-vector
        # Lanczos can miss a copy, which the inertia count must catch.
        monkeypatch.setattr(spectral_mod, "LANCZOS_MIN_N", 0)
        raised = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(30, 120)), int(rng.integers(2, 25))
            lap = normalized_laplacian(random_tree(rng, n))
            try:
                part = eigendecompose(lap, m=m)
            except NumericalError as exc:
                assert "eigenvalues below" in str(exc)
                raised += 1
                continue
            assert np.max(np.abs(part.lam - eigendecompose(lap).lam[:m])) < 1e-9
        assert raised >= 1

    def test_deterministic_sorted_sign_fixed_read_only(self):
        lap = normalized_laplacian(symmetrize(build_chain_graph(400)))
        a = eigendecompose(lap, m=16)
        b = eigendecompose(lap, m=16)
        assert a.u.tobytes() == b.u.tobytes() and a.lam.tobytes() == b.lam.tobytes()
        assert np.all(np.diff(a.lam) >= 0.0) and 0.0 <= a.lam[0] < 1e-12
        lead = a.u[np.argmax(np.abs(a.u), axis=0), np.arange(16)]
        assert np.all(lead >= 0.0)
        assert np.allclose(a.u.T @ a.u, np.eye(16), atol=1e-12)
        with pytest.raises(ValueError):
            a.u[0, 0] = 1.0

    def test_near_full_and_small_requests_use_dense(self, lanczos_calls):
        big = normalized_laplacian(relabelled_chain(np.random.default_rng(0), LANCZOS_MIN_N))
        small = normalized_laplacian(symmetrize(build_chain_graph(40)))
        for lap, m in ((big, LANCZOS_MIN_N - 1), (big, LANCZOS_MIN_N), (small, 16)):
            eig = eigendecompose(lap, m=m)
            assert eig.m == m
        assert lanczos_calls == []

    @pytest.mark.parametrize("m", [0, 41])
    def test_m_out_of_range(self, m):
        with pytest.raises(ValueError, match={0: "m must be an integer >= 1, got 0",
                                              41: "m must be in"}[m]):
            eigendecompose(normalized_laplacian(symmetrize(build_chain_graph(40))), m=m)

    def test_residual_over_bound_raises_with_residual(self, monkeypatch):
        lap = normalized_laplacian(symmetrize(build_chain_graph(300)))
        monkeypatch.setattr(spectral_mod, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError) as exc:
            eigendecompose(lap, m=8)
        assert exc.value.residual is not None and exc.value.residual > 0.0

    def test_solver_failure_raises_numerical_error(self, monkeypatch):
        from scipy.sparse import linalg

        def fail(*args, **kwargs):
            raise linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(linalg, "eigsh", fail)
        lap = normalized_laplacian(relabelled_chain(np.random.default_rng(0), 300))
        with pytest.raises(NumericalError, match="Lanczos"):
            eigendecompose(lap, m=8)


class TestClosedFormPath:
    """Paths of n >= LANCZOS_MIN_N nodes take their eigenpairs in closed
    form; every other graph keeps the solver it had."""

    ORACLE_SIZES = tuple(range(1, 201)) + (223, 256, 311, 400, 457, 512, 601, 700, 777, 850,
                                           960, 1024)

    def test_matches_dense_eigh_sign_fixed_and_repeatable(self, monkeypatch):
        # with the size gate at 0 every chain of n >= 2 takes the closed form
        monkeypatch.setattr(spectral_mod, "LANCZOS_MIN_N", 0)
        calls = spy_on(monkeypatch, "_path_pairs", "_dense_eigh", "_lanczos", "_bipartite_pairs")
        rng = np.random.default_rng(12)
        bank = build_filter_bank(3, 4, seed=12)
        bank.alpha[...] = rng.standard_normal(bank.alpha.shape)
        for n in self.ORACLE_SIZES:
            lap = normalized_laplacian(build_chain_graph(n))
            ref_lam, ref_u = np.linalg.eigh(lap.matrix.toarray())
            x = rng.standard_normal((n, 4))
            m = min(n, 16)
            calls.clear()
            full, part = eigendecompose(lap), eigendecompose(lap, m=m)
            assert calls == (["_bipartite_pairs"] * 2 if n == 1 else ["_path_pairs"] * 2)
            assert np.max(np.abs(full.lam - ref_lam)) < 1e-13
            assert part.lam.tobytes() == full.lam[:m].tobytes()
            for eig, mode, ref in (
                (full, MixMode.exact(), EigenSystem(ref_u, ref_lam)),
                (part, MixMode.truncated(m), EigenSystem(ref_u[:, :m], ref_lam[:m])),
            ):
                out = wavelet_mix(bank, eig, x, mode)
                err = np.max(np.abs(out - wavelet_mix(bank, ref, x, mode)))
                assert err < 1e-12, (n, str(mode), err)
                lead = eig.u[np.argmax(np.abs(eig.u), axis=0), np.arange(eig.m)]
                assert np.all(lead >= 0.0)
            again = eigendecompose(lap)
            assert again.u.tobytes() == full.u.tobytes()
            assert again.lam.tobytes() == full.lam.tobytes()

    @pytest.mark.parametrize("n", [LANCZOS_MIN_N, 1000])
    def test_chain_calls_neither_lanczos_nor_dense_eigh(self, monkeypatch, n):
        calls = spy_on(monkeypatch, "_lanczos", "_dense_eigh", "_path_pairs", "_bipartite_pairs")
        lap = normalized_laplacian(build_chain_graph(n))
        for m in (None, 1, 16, n - 1, n):
            eig = eigendecompose(lap, m=m)
            assert eig.m == (n if m is None else m)
            assert not (eig.u.flags.writeable or eig.lam.flags.writeable)
        assert calls == ["_path_pairs"] * 5

    def test_closed_form_peak_stays_near_its_output(self):
        # the cosines are gathered a block of rows at a time, never through
        # an (n, m) index array beside the (n, m) output
        lap = normalized_laplacian(build_chain_graph(2048))
        tracemalloc.start()
        try:
            lam, u = spectral_mod._path_pairs(lap.matrix, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (u.nbytes + lam.nbytes)

    # (graph, m, the solver of its full spectrum): all but the odd cycle
    # are bipartite, so their full spectra come from the SVD solver
    NEAR_MISSES = {
        "relabelled chain": (relabelled_chain(np.random.default_rng(3), 300), 8,
                             "_bipartite_pairs"),
        "chain plus an edge": (TokenGraph(300, [(i, i + 1) for i in range(299)] + [(3, 10)]), 8,
                               "_bipartite_pairs"),
        "chain plus an odd-cycle edge": (
            TokenGraph(300, [(i, i + 1) for i in range(299)] + [(3, 11)]), 8, "_dense_eigh"),
        "trailing isolated node": (TokenGraph(301, [(i, i + 1) for i in range(299)]), 8,
                                   "_bipartite_pairs"),
        "two disjoint paths": (TokenGraph(300, [(i, i + 1) for i in range(299) if i != 120]), 8,
                               "_bipartite_pairs"),
        "n=1": (TokenGraph(1), 1, "_bipartite_pairs"),
        "n=2": (build_chain_graph(2), 1, "_bipartite_pairs"),
        "n=3": (build_chain_graph(3), 2, "_bipartite_pairs"),
    }

    @pytest.mark.parametrize("name", NEAR_MISSES)
    def test_near_misses_take_the_old_solver_and_match_dense_eigh(self, monkeypatch, name):
        g, m, solver = self.NEAR_MISSES[name]
        n = g.n
        calls = spy_on(monkeypatch, "_lanczos", "_dense_eigh", "_path_pairs", "_bipartite_pairs")
        lap = normalized_laplacian(g)
        ref_lam, ref_u = np.linalg.eigh(lap.matrix.toarray())
        full, part = eigendecompose(lap), eigendecompose(lap, m=m)
        big = n >= LANCZOS_MIN_N
        assert calls == [solver, "_lanczos" if big else solver]
        assert np.max(np.abs(full.lam - ref_lam)) < 1e-12
        assert np.max(np.abs(part.lam - ref_lam[:m])) < 1e-12
        rng = np.random.default_rng(n)
        bank = build_filter_bank(3, 4, seed=n)
        bank.alpha[...] = rng.standard_normal(bank.alpha.shape)
        x = rng.standard_normal((n, 4))
        mode = MixMode.truncated(m)
        ref = wavelet_mix(bank, EigenSystem(ref_u[:, :m], ref_lam[:m]), x, mode)
        assert np.max(np.abs(wavelet_mix(bank, part, x, mode) - ref)) < 1e-10

    def test_bench_reference_needs_no_dense_eigh(self, monkeypatch):
        calls = spy_on(monkeypatch, "_lanczos", "_dense_eigh", "_bipartite_pairs")
        records, _ = bench_scaling(sizes=(2048,), modes=("truncated:16", "chebyshev:16"),
                                   repeats=1)
        assert [r.mode for r in records] == ["truncated:16", "chebyshev:16"]
        assert calls == []


# Bipartite graphs below LANCZOS_MIN_N: the SVD solver against dense eigh


@st.composite
def forests(draw):
    """Each node's parent is drawn among the nodes placed before it in a
    random order, or is missing: a root, often an isolated node."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    edges = []
    for i, node in enumerate(order[1:], start=1):
        if draw(st.integers(0, 3)):
            edges.append((order[draw(st.integers(0, i - 1))], node))
    return TokenGraph(n, edges)


@st.composite
def stars(draw):
    """A centre joined to every leaf (lam = 1 repeated), plus isolated nodes."""
    leaves, isolated = draw(st.integers(1, 30)), draw(st.integers(0, 3))
    n = leaves + 1 + isolated
    order = draw(st.permutations(range(n)))
    return TokenGraph(n, [(order[0], order[i]) for i in range(1, leaves + 1)])


@st.composite
def even_cycles(draw):
    n = 2 * draw(st.integers(2, 20))
    order = draw(st.permutations(range(n)))
    return TokenGraph(n, [(order[i], order[(i + 1) % n]) for i in range(n)])


@st.composite
def complete_bipartite(draw):
    a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    order = draw(st.permutations(range(a + b)))
    return TokenGraph(a + b, [(order[i], order[a + j]) for i in range(a) for j in range(b)])


edgeless = st.integers(1, 10).map(TokenGraph)
bipartite_graphs = st.one_of(forests(), stars(), even_cycles(), complete_bipartite(), edgeless,
                             st.sampled_from([TokenGraph(1), build_chain_graph(2)]))


def lead_entries(eig):
    return eig.u[np.argmax(np.abs(eig.u), axis=0), np.arange(eig.m)]


@PROPERTY
@given(bipartite_graphs, st.integers(0, 2**32 - 1))
def test_bipartite_svd_matches_dense_eigh(g, seed):
    lap = normalized_laplacian(g)
    n = g.n
    ref_lam, ref_u = np.linalg.eigh(lap.matrix.toarray())
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on(mp, "_bipartite_pairs", "_dense_eigh")
        full = eigendecompose(lap)
    assert calls == ["_bipartite_pairs"]
    assert np.max(np.abs(full.lam - ref_lam)) < 1e-13
    rng = np.random.default_rng(seed)
    # truncate only where the m smoothest modes span a unique subspace
    cuts = [m for m in range(1, n + 1) if m == n or ref_lam[m] - ref_lam[m - 1] > 1e-8]
    m = cuts[int(rng.integers(len(cuts)))]
    part = eigendecompose(lap, m=m)
    assert np.max(np.abs(part.lam - ref_lam[:m])) < 1e-13
    bank = build_filter_bank(3, 4, seed=int(rng.integers(1000)))
    bank.alpha[...] = rng.standard_normal(bank.alpha.shape)
    x = rng.standard_normal((n, 4))
    for eig, mode, ref in (
        (full, MixMode.exact(), EigenSystem(ref_u, ref_lam)),
        (part, MixMode.truncated(m), EigenSystem(ref_u[:, :m], ref_lam[:m])),
    ):
        err = np.max(np.abs(wavelet_mix(bank, eig, x, mode) - wavelet_mix(bank, ref, x, mode)))
        assert err < 1e-12, (str(mode), err)
        assert np.all(lead_entries(eig) >= 0.0)
        assert not (eig.u.flags.writeable or eig.lam.flags.writeable)
        assert np.all(np.diff(eig.lam) >= 0.0)
    again = eigendecompose(lap)
    assert again.u.tobytes() == full.u.tobytes()
    assert again.lam.tobytes() == full.lam.tobytes()


def test_isolated_nodes_take_lam_zero_with_unit_vectors():
    # a 3-chain with isolated nodes 1 and 4 around it
    g = TokenGraph(5, ((0, 2), (2, 3)))
    eig = eigendecompose(normalized_laplacian(g))
    assert np.allclose(eig.lam, [0.0, 0.0, 0.0, 1.0, 2.0], atol=1e-15)
    for node in (1, 4):
        assert np.sum(eig.u[node] == 1.0) == 1 and np.sum(eig.u[node] != 0.0) == 1


ODD_CYCLES = {
    "triangle": TokenGraph(3, ((0, 1), (1, 2), (2, 0))),
    "5-cycle plus an isolated node": TokenGraph(6, [(i, (i + 1) % 5) for i in range(5)]),
    "path closed into a 9-cycle": TokenGraph(40, [(i, i + 1) for i in range(39)] + [(3, 11)]),
    "tree with one odd-cycle edge": TokenGraph(
        30, [((i - 1) // 2, i) for i in range(1, 30)] + [(3, 4)]),
}


@pytest.mark.parametrize("name", ODD_CYCLES)
def test_odd_cycles_never_reach_the_svd(monkeypatch, name):
    lap = normalized_laplacian(ODD_CYCLES[name])
    calls = spy_on(monkeypatch, "_bipartite_pairs", "_dense_eigh")
    full, part = eigendecompose(lap), eigendecompose(lap, m=2)
    assert calls == ["_dense_eigh", "_dense_eigh"]
    ref = np.linalg.eigvalsh(lap.matrix.toarray())
    assert np.max(np.abs(full.lam - ref)) < 1e-13
    assert np.max(np.abs(part.lam - ref[:2])) < 1e-13


def test_bipartite_pattern_without_unit_diagonal_takes_eigh(monkeypatch):
    # the SVD pairs hold for L = I - [[0, M], [M^T, 0]] only
    lap = normalized_laplacian(build_chain_graph(7))
    scaled = NormalizedLaplacian(sparse.csr_array(2.0 * lap.matrix.toarray()), lap.degrees)
    calls = spy_on(monkeypatch, "_bipartite_pairs", "_dense_eigh")
    eig = eigendecompose(scaled)
    assert calls == ["_dense_eigh"]
    assert np.max(np.abs(eig.lam - 2.0 * eigendecompose(lap).lam)) < 1e-13


def test_svd_failure_raises_numerical_error_and_runs_no_eigh(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    calls = spy_on(monkeypatch, "_bipartite_pairs", "_dense_eigh")
    with pytest.raises(NumericalError, match="SVD"):
        eigendecompose(normalized_laplacian(build_chain_graph(12)))
    assert calls == ["_bipartite_pairs"]


def test_dense_graph_with_an_odd_cycle_is_ruled_out_after_two_rows():
    # K_n's pattern: row 0 colours every other node, row 1 meets a
    # same-coloured neighbour. Rows 2.. name a node out of range, so
    # reading any of them would fail.
    n = 300
    lap = normalized_laplacian(TokenGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]))
    indices = lap.matrix.indices.copy()
    indices[lap.matrix.indptr[2]:] = n + 1
    pattern = SimpleNamespace(shape=lap.matrix.shape, indptr=lap.matrix.indptr, indices=indices)
    assert spectral_mod._two_colour(pattern) is None
    assert spectral_mod._two_colour(lap.matrix) is None


class CsrWithoutProducts(sparse.csr_array):
    def __matmul__(self, other):
        raise AssertionError("product with the sparse matrix")


@pytest.mark.parametrize("g, solver", [
    (TokenGraph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)]), "_dense_eigh"),
    (TokenGraph(12, [(i // 2, i) for i in range(1, 12)]), "_bipartite_pairs"),
])
def test_dense_solvers_check_their_residual_on_the_dense_copy(monkeypatch, g, solver):
    # a dense graph's CSR product costs O(n^3) at sparse speed; BLAS does it faster
    lap = normalized_laplacian(g)
    bare = NormalizedLaplacian(CsrWithoutProducts(lap.matrix), lap.degrees)
    calls = spy_on(monkeypatch, "_bipartite_pairs", "_dense_eigh")
    for m in (None, 3):
        eig = eigendecompose(bare, m=m)
        ref = np.linalg.eigvalsh(lap.matrix.toarray())[:m]
        assert np.max(np.abs(eig.lam - ref)) < 1e-13
    assert calls == [solver, solver]


def test_pairs_sorted_whatever_order_the_solver_returns(monkeypatch):
    # a 7-chain has 7 distinct eigenvalues, so the sorted system is unique
    lap = normalized_laplacian(build_chain_graph(7))
    ref = eigendecompose(lap)
    original = spectral_mod._bipartite_pairs

    def reversed_pairs(*args):
        lam, u = original(*args)
        return lam[::-1], u[:, ::-1]

    monkeypatch.setattr(spectral_mod, "_bipartite_pairs", reversed_pairs)
    for m in (None, 3):
        eig = eigendecompose(lap, m=m)
        assert eig.lam.tobytes() == ref.lam[:m].tobytes()
        assert eig.u.tobytes() == np.ascontiguousarray(ref.u[:, :m]).tobytes()


class TestFusedChebyshev:
    def test_equals_per_filter_chebyshev_apply_sum(self):
        rng = np.random.default_rng(2)
        for order in (0, 1, 2, 16, 30):
            g = random_tree(rng, 50)
            lap = normalized_laplacian(g)
            bank = build_filter_bank(4, 6, seed=order)
            bank.alpha[...] = rng.standard_normal(bank.alpha.shape)
            x = rng.standard_normal((50, 6))
            ref = np.zeros_like(x)
            for k, f in enumerate(bank.filters):
                filt, _ = chebyshev_fit(lambda lam, f=f: filter_eval(f, lam), order)
                ref += chebyshev_apply(lap, filt, x) * bank.alpha[k]
            out = wavelet_mix(bank, ChebyshevOperator.of([g]), x, MixMode.chebyshev(order))
            assert np.max(np.abs(out - ref)) < 1e-12


class TestModeAwareCache:
    def test_chebyshev_needs_no_spectrum(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "eigendecompose", lambda *a, **k: pytest.fail("solved"))
        cache = SpectrumCache()
        op = cache.get_or_compute(build_chain_graph(9), MixMode.chebyshev(4))
        assert isinstance(op, ChebyshevOperator) and op.n == 9

    def test_chebyshev_builds_no_laplacian(self, monkeypatch):
        calls = []
        original = spectral_mod.normalized_laplacian
        monkeypatch.setattr(spectral_mod, "normalized_laplacian",
                            lambda g: calls.append(g) or original(g))
        g = TokenGraph(9, [(i, (i - 1) // 2) for i in range(1, 9)])
        SpectrumCache().get_or_compute(g, MixMode.chebyshev(16))
        model = build_model(4, 2, 2, 2, 7, seed=0)
        model_forward(model, g, np.zeros(9, dtype=int), MixMode.chebyshev(16), SpectrumCache())
        assert calls == []
        SpectrumCache().get_or_compute(g, MixMode.truncated(4))  # a solve does build one
        assert calls == [g]

    def test_one_item_per_graph_and_pair_count(self, monkeypatch):
        calls = []
        original = spectral_mod.eigendecompose
        monkeypatch.setattr(spectral_mod, "eigendecompose",
                            lambda *a, **k: calls.append(k["m"]) or original(*a, **k))
        cache = SpectrumCache()
        g = build_chain_graph(200)
        op = cache.get_or_compute(g, MixMode.chebyshev(16))
        trunc = cache.get_or_compute(g, MixMode.truncated(16))
        full = cache.get_or_compute(g, MixMode.exact())
        assert isinstance(op, ChebyshevOperator) and len(cache) == 3
        assert trunc.m == 16 and full.m == 200
        assert cache.get_or_compute(g, MixMode.chebyshev(4)) is op  # one operator per graph
        assert cache.get_or_compute(g, MixMode.truncated(16)) is trunc
        assert cache.get_or_compute(g) is full
        assert cache.get_or_compute(g, MixMode.truncated(200)) is full  # one system per count
        assert calls == [16, 200] and len(cache) == 3

    @pytest.mark.parametrize("n", [12, 300])
    def test_truncated_logits_independent_of_cache_history(self, n):
        model = build_model(8, 2, 2, 2, 16, seed=3)
        ids = np.random.default_rng(n).integers(15, size=n)
        g = build_chain_graph(n)
        mode = MixMode.truncated(8)
        primed = SpectrumCache()
        model_forward(model, g, ids, MixMode.exact(), primed)
        a, _ = model_forward(model, g, ids, mode, primed)
        b, _ = model_forward(model, g, ids, mode, SpectrumCache())
        assert a.tobytes() == b.tobytes()


class TestInferenceCost:
    def test_chebyshev_forward_runs_no_eigendecomposition_and_no_dense_matrix(self, monkeypatch):
        calls = []
        original = spectral_mod.eigendecompose
        monkeypatch.setattr(spectral_mod, "eigendecompose",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        n = 4096
        model = build_model(8, 2, 2, 2, 16, seed=0)
        ids = np.arange(n) % 15
        g = TokenGraph(n, tuple((i, i + 1) for i in range(n - 1)))
        tracemalloc.start()
        try:
            logits, _ = model_forward(model, g, ids, MixMode.chebyshev(16), SpectrumCache())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < n * n * 8 / 8
        assert np.all(np.isfinite(logits))

    def test_warm_request_does_no_symmetrize_or_hash(self, monkeypatch):
        counts = {"symmetrize": 0, "content_hash": 0}
        for name in counts:
            original = getattr(graphs_mod, name)

            def spy(g, name=name, original=original):
                counts[name] += 1
                return original(g)

            monkeypatch.setattr(graphs_mod, name, spy)
        graphs_mod._chain_graph.cache_clear()  # the first request below is cold
        model = build_model(4, 2, 1, 2, 7, seed=0)
        cache = SpectrumCache()
        n = 257
        for mode in (MixMode.chebyshev(8), MixMode.truncated(4)):
            model_forward(model, build_chain_graph(n), np.zeros(n, dtype=int), mode, cache)
        cold = dict(counts)
        assert cold["content_hash"] == 1  # the key is computed once per graph object
        for mode in (MixMode.chebyshev(8), MixMode.truncated(4)):
            model_forward(model, build_chain_graph(n), np.zeros(n, dtype=int), mode, cache)
        assert counts == cold

    def test_new_tree_graph_never_symmetrized(self, monkeypatch):
        counts = {"symmetrize": 0, "content_hash": 0, "normalized_laplacian": 0}
        originals = {name: getattr(graphs_mod, name) for name in counts}
        for name, original in originals.items():
            def spy(g, name=name, original=original):
                counts[name] += 1
                return original(g)

            for mod in (graphs_mod, spectral_mod):  # every binding the lookup can reach
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, spy)
        tree = TokenGraph(9, [(i, (i - 1) // 2) for i in range(1, 9)])  # heads point to parents
        cache = SpectrumCache()
        eig = cache.get_or_compute(tree, MixMode.exact())
        cold = {"symmetrize": 0, "content_hash": 1, "normalized_laplacian": 1}
        assert counts == cold
        sym_lap = originals["normalized_laplacian"](originals["symmetrize"](tree))
        want = eigendecompose(sym_lap)
        assert eig.u.tobytes() == want.u.tobytes() and eig.lam.tobytes() == want.lam.tobytes()
        assert cache.get_or_compute(tree, MixMode.exact()) is eig
        assert counts == cold  # warm: none
        cache.get_or_compute(tree, MixMode.truncated(3))
        assert counts == {**cold, "normalized_laplacian": 2}  # a new item: solved afresh

    def test_chain_graphs_shared_and_memo_bounded(self):
        assert build_chain_graph(33) is build_chain_graph(33)
        assert graphs_mod._chain_graph.cache_info().maxsize == CHAIN_MEMO_SIZE


def test_chain_inference_leaves_lanczos_module_unloaded():
    code = ("import sys, numpy as np, gwmixer as gw\n"
            "model = gw.build_model(8, 2, 1, 2, 16, seed=0)\n"
            "g = gw.build_chain_graph(1536)\n"
            "for mode in ('truncated:16', 'exact'):\n"
            "    logits, _ = gw.model_forward(model, g, np.arange(1536) % 15,\n"
            "                                 gw.parse_mix_mode(mode), gw.SpectrumCache())\n"
            "    assert np.all(np.isfinite(logits))\n"
            "sys.exit(1 if 'scipy.sparse.linalg' in sys.modules else 0)")
    src = os.path.dirname(os.path.dirname(graphs_mod.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr or "chain inference loaded scipy.sparse.linalg"


def test_import_leaves_lanczos_module_unloaded():
    code = ("import sys, gwmixer; "
            "sys.exit(1 if 'scipy.sparse.linalg' in sys.modules else 0)")
    src = os.path.dirname(os.path.dirname(graphs_mod.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr or "import gwmixer loaded scipy.sparse.linalg"
