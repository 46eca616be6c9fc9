"""Eigendecomposition, spectral transforms, Chebyshev path, spectrum cache."""

import math
import re
import sys
import threading
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from gwmixer import (
    MixMode,
    NumericalError,
    SpectrumCache,
    TokenGraph,
    apply_filter_exact,
    build_chain_graph,
    chebyshev_apply,
    chebyshev_fit,
    content_hash,
    eigendecompose,
    gft,
    igft,
    normalized_laplacian,
    symmetrize,
)
import gwmixer.spectral as spectral_mod
from gwmixer.spectral import (
    SPECTRUM_CACHE_BYTES,
    ChebyshevOperator,
    EigenSystem,
    chebyshev_nodes,
    chebyshev_series,
)
from scipy import sparse

S2 = 1.0 / math.sqrt(2.0)


def chain_lap(n):
    return normalized_laplacian(symmetrize(build_chain_graph(n)))


def random_sym_graph(rng, n):
    m = int(rng.integers(1, max(2, n * (n - 1) // 2)))
    edges = set()
    for _ in range(m):
        s, d = rng.integers(n, size=2)
        if s != d:
            edges.add((int(s), int(d)))
    return symmetrize(TokenGraph(n, tuple(edges)))


class TestEigendecompose:
    def test_two_node_path_frozen(self):
        eig = eigendecompose(chain_lap(2))
        assert np.allclose(eig.lam, [0.0, 2.0], atol=1e-15)
        expected_u = np.array([[S2, S2], [S2, -S2]])
        assert np.allclose(eig.u, expected_u, atol=1e-15)

    def test_three_node_path_frozen_eigenvalues(self):
        eig = eigendecompose(chain_lap(3))
        assert np.allclose(eig.lam, [0.0, 1.0, 2.0], atol=1e-14)

    def test_triangle_frozen_eigenvalues(self):
        tri = symmetrize(TokenGraph(3, ((0, 1), (1, 2), (0, 2))))
        eig = eigendecompose(normalized_laplacian(tri))
        assert np.allclose(eig.lam, [0.0, 1.5, 1.5], atol=1e-14)

    def test_ascending_order_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_sym_graph(rng, int(rng.integers(2, 24)))
            eig = eigendecompose(normalized_laplacian(g))
            assert np.all(np.diff(eig.lam) >= 0.0)
            assert eig.lam[0] >= 0.0  # clamped round-off
            assert eig.lam[-1] <= 2.0 + 1e-9

    def test_orthonormal_columns(self):
        eig = eigendecompose(chain_lap(12))
        assert np.allclose(eig.u.T @ eig.u, np.eye(12), atol=1e-13)

    def test_reconstruction(self):
        lap = chain_lap(9)
        eig = eigendecompose(lap)
        rebuilt = eig.u @ np.diag(eig.lam) @ eig.u.T
        assert np.allclose(rebuilt, lap.matrix.toarray(), atol=1e-13)

    def test_sign_convention_largest_component_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_sym_graph(rng, int(rng.integers(2, 16)))
            eig = eigendecompose(normalized_laplacian(g))
            for j in range(eig.m):
                col = eig.u[:, j]
                assert col[np.argmax(np.abs(col))] >= 0.0

    def test_deterministic(self):
        a = eigendecompose(chain_lap(15))
        b = eigendecompose(chain_lap(15))
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.lam, b.lam)

    def test_outputs_read_only(self):
        eig = eigendecompose(chain_lap(4))
        with pytest.raises(ValueError):
            eig.u[0, 0] = 1.0
        with pytest.raises(ValueError):
            eig.lam[0] = 1.0

    def test_isolated_node_contributes_zero_eigenvalue(self):
        g = TokenGraph(3, ((0, 1), (1, 0)))
        eig = eigendecompose(normalized_laplacian(g))
        # pair component lambda = {0, 2}; isolated row adds another 0
        assert np.allclose(eig.lam, [0.0, 0.0, 2.0], atol=1e-14)

    def test_residual_tolerance_zero_raises(self, monkeypatch):
        lap = chain_lap(40)
        monkeypatch.setattr(spectral_mod, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError) as exc:
            eigendecompose(lap)
        assert exc.value.residual is not None
        assert exc.value.residual > 0.0

    def test_spectrum_invariant_under_orthogonal_similarity(self):
        from gwmixer import NormalizedLaplacian

        lap = chain_lap(10)
        q, _ = np.linalg.qr(np.random.default_rng(123).standard_normal((10, 10)))
        rotated = q.T @ lap.matrix.toarray() @ q
        rotated = sparse.csr_array(0.5 * (rotated + rotated.T))
        b = eigendecompose(NormalizedLaplacian(rotated, lap.degrees))
        assert np.allclose(eigendecompose(lap).lam, b.lam, atol=1e-12)

    def test_filtering_invariant_under_degenerate_basis(self):
        # The triangle has a two-fold degenerate eigenvalue; any orthonormal
        # basis of that eigenspace must give the same filter action.
        tri = symmetrize(TokenGraph(3, ((0, 1), (1, 2), (0, 2))))
        eig = eigendecompose(normalized_laplacian(tri))
        x = np.random.default_rng(0).standard_normal((3, 5))
        h = lambda lam: np.exp(-1.7 * lam)
        base = apply_filter_exact(eig, h, x)
        for seed in (1, 2, 99):
            rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((2, 2)))
            u = eig.u.copy()
            u[:, 1:] = eig.u[:, 1:] @ rot  # another basis of the lam = 1.5 eigenspace
            other = apply_filter_exact(EigenSystem(u, eig.lam), h, x)
            assert np.allclose(base, other, atol=1e-12)

    def test_rejects_non_symmetric_matrix(self):
        from gwmixer import NormalizedLaplacian

        bad = NormalizedLaplacian(sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]])), np.ones(2))
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose(bad)

    def test_rejects_non_finite_matrix(self):
        from gwmixer import NormalizedLaplacian

        bad = NormalizedLaplacian(sparse.csr_array(np.array([[np.nan, 0.0], [0.0, 0.0]])), np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            eigendecompose(bad)


def fix_signs_copying(u):
    """The sign rule as first written, on a copy: the lead entry is the
    first largest |u| of each column (argmax), made nonnegative."""
    idx = np.argmax(np.abs(u), axis=0)
    return u * np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)


class TestFixSigns:
    def test_in_place_flips_match_the_copying_rule_bit_for_bit(self):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(500):
            n, m = (int(v) for v in rng.integers(1, 12, size=2))
            # small integers: many columns whose extremes tie in magnitude,
            # many zeros, and -0.0 entries after negation
            cases.append(rng.integers(-3, 4, size=(n, m)) * rng.choice([1.0, -0.5]))
            cases.append(rng.standard_normal((n, m)))
        _, u = spectral_mod._path_pairs(chain_lap(300).matrix, 300)  # mirror-symmetric columns
        cases.append(u)
        for u in cases:
            got = u.copy()
            spectral_mod._fix_signs(got)
            assert got.tobytes() == fix_signs_copying(u).tobytes()


class TestPartialSystem:
    # below LANCZOS_MIN_N the m pairs are the dense solve's first m
    def test_keeps_smallest_eigenvalues(self):
        eig = eigendecompose(chain_lap(8))
        t = eigendecompose(chain_lap(8), m=3)
        assert t.m == 3 and t.n == 8
        assert np.array_equal(t.lam, eig.lam[:3])
        assert np.array_equal(t.u, eig.u[:, :3])

    def test_all_pairs_equal_full_system(self):
        eig = eigendecompose(chain_lap(6))
        t = eigendecompose(chain_lap(6), m=6)
        assert np.array_equal(t.u, eig.u) and np.array_equal(t.lam, eig.lam)

    def test_read_only(self):
        t = eigendecompose(chain_lap(6), m=4)
        assert t.u.flags.c_contiguous
        with pytest.raises(ValueError):
            t.u[0, 0] = 1.0
        with pytest.raises(ValueError):
            t.lam[0] = 1.0

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            eigendecompose(chain_lap(5), m=0)
        with pytest.raises(ValueError):
            eigendecompose(chain_lap(5), m=6)


class TestTransforms:
    def test_gft_igft_round_trip(self):
        eig = eigendecompose(chain_lap(10))
        x = np.random.default_rng(1).standard_normal((10, 4))
        assert np.allclose(igft(eig, gft(eig, x)), x, atol=1e-13)

    def test_gft_shapes(self):
        eig = eigendecompose(chain_lap(10), m=4)
        x = np.zeros((10, 3))
        assert gft(eig, x).shape == (4, 3)
        assert igft(eig, np.zeros((4, 3))).shape == (10, 3)

    def test_rejects_one_dimensional_signal(self):
        eig = eigendecompose(chain_lap(4))
        with pytest.raises(ValueError, match="shape"):
            gft(eig, np.zeros(4))

    def test_rejects_wrong_row_count(self):
        eig = eigendecompose(chain_lap(4))
        with pytest.raises(ValueError, match="shape"):
            gft(eig, np.zeros((5, 2)))

    def test_constant_filter_is_identity(self):
        eig = eigendecompose(chain_lap(7))
        x = np.random.default_rng(2).standard_normal((7, 3))
        y = apply_filter_exact(eig, lambda lam: np.ones_like(lam), x)
        assert np.allclose(y, x, atol=1e-13)

    def test_identity_response_reproduces_laplacian(self):
        lap = chain_lap(7)
        eig = eigendecompose(lap)
        x = np.random.default_rng(3).standard_normal((7, 3))
        y = apply_filter_exact(eig, lambda lam: lam, x)
        assert np.allclose(y, lap.matrix @ x, atol=1e-12)

    def test_heat_kernel_two_node_frozen(self):
        # exp(-L) on the 2-path applied to [1, 0]:
        # [(1 + e^-2)/2, (1 - e^-2)/2]
        eig = eigendecompose(chain_lap(2))
        x = np.array([[1.0], [0.0]])
        y = apply_filter_exact(eig, lambda lam: np.exp(-lam), x)
        e2 = math.exp(-2.0)
        assert np.allclose(y[:, 0], [(1 + e2) / 2, (1 - e2) / 2], atol=1e-15)

    def test_filter_returning_nan_rejected(self):
        eig = eigendecompose(chain_lap(3))
        with pytest.raises(ValueError, match="^filter output must be finite, got nan$"):
            apply_filter_exact(eig, lambda lam: np.full_like(lam, np.nan),
                               np.zeros((3, 1)))

    def test_filter_returning_wrong_shape_rejected(self):
        eig = eigendecompose(chain_lap(3))
        with pytest.raises(ValueError, match="shape"):
            apply_filter_exact(eig, lambda lam: np.zeros(5), np.zeros((3, 1)))

    def test_truncation_error_non_increasing_in_m(self):
        lap = chain_lap(12)
        eig = eigendecompose(lap)
        x = np.random.default_rng(4).standard_normal((12, 3))
        h = lambda lam: np.exp(-lam)
        exact = apply_filter_exact(eig, h, x)
        errs = []
        for m in range(1, 13):
            approx = apply_filter_exact(eigendecompose(lap, m=m), h, x)
            errs.append(np.linalg.norm(approx - exact))
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-12


class TestChebyshev:
    def test_constant_fit_exact(self):
        coeffs, err = chebyshev_fit(lambda lam: np.full_like(lam, 3.25), 6)
        assert err < 2e-14
        assert abs(coeffs[0] - 3.25) < 1e-14
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_linear_fit_exact(self):
        coeffs, err = chebyshev_fit(lambda lam: lam, 5)
        assert err < 5e-15
        # lam = T0 + T1 on [0, 2]
        assert abs(coeffs[0] - 1.0) < 1e-14
        assert abs(coeffs[1] - 1.0) < 1e-14

    def test_heat_kernel_error_tiny_at_order_20(self):
        _, err = chebyshev_fit(lambda lam: np.exp(-lam), 20)
        assert err < 1e-12

    def test_error_sweep_monotone_with_floor(self):
        errs = [chebyshev_fit(lambda lam: np.exp(-lam), p)[1]
                for p in (4, 8, 12, 16, 20, 24, 30)]
        floor = 1e-12
        for a, b in zip(errs, errs[1:]):
            assert b <= a or b < floor
        assert errs[0] > 1e-6  # order 4 is genuinely coarse
        assert errs[-1] < 1e-12

    def test_order_zero(self):
        filt, _ = chebyshev_fit(lambda lam: np.full_like(lam, 2.0), 0)
        assert filt.shape == (1,)  # order 0: one coefficient
        lap = chain_lap(4)
        x = np.eye(4)
        assert np.allclose(chebyshev_apply(lap, filt, x), 2.0 * x, atol=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_fit(lambda lam: lam, -1)

    @pytest.mark.parametrize("order", [2.5, True, np.float64(3.0), "3", None])
    def test_order_that_is_not_an_integer_rejected(self, order):
        with pytest.raises(ValueError, match=rf"^chebyshev order must be an integer >= 0, "
                                             rf"got {re.escape(repr(order))}$"):
            chebyshev_fit(np.exp, order)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["nodes", "grid", "both"])
    def test_non_finite_filter_values_rejected(self, bad, where):
        nodes = chebyshev_nodes(4)[0]

        def h(lam):  # called at the order's nodes, then on the 1000-point error grid
            on = "nodes" if np.array_equal(lam, nodes) else "grid"
            return np.full_like(lam, bad) if where in (on, "both") else np.exp(-lam)

        with pytest.raises(ValueError, match=f"^filter output must be finite, got {bad!r}$"):
            chebyshev_fit(h, 4)

    def test_apply_matches_exact_path(self):
        lap = chain_lap(16)
        eig = eigendecompose(lap)
        x = np.random.default_rng(5).standard_normal((16, 6))
        h = lambda lam: np.exp(-2.0 * lam) + 0.3 * lam
        filt, err = chebyshev_fit(h, 30)
        y_exact = apply_filter_exact(eig, h, x)
        y_cheb = chebyshev_apply(lap, filt, x)
        assert np.max(np.abs(y_cheb - y_exact)) < max(10 * err, 1e-12)

    def test_apply_linear_reproduces_laplacian(self):
        lap = chain_lap(9)
        filt, _ = chebyshev_fit(lambda lam: lam, 3)
        x = np.random.default_rng(6).standard_normal((9, 2))
        assert np.allclose(chebyshev_apply(lap, filt, x), lap.matrix @ x, atol=1e-13)

    def test_apply_with_isolated_node(self):
        g = TokenGraph(4, ((0, 1), (1, 0), (1, 2), (2, 1)))  # node 3 isolated
        lap = normalized_laplacian(g)
        eig = eigendecompose(lap)
        x = np.random.default_rng(7).standard_normal((4, 3))
        h = lambda lam: np.exp(-lam)
        filt, err = chebyshev_fit(h, 24)
        assert np.max(np.abs(chebyshev_apply(lap, filt, x)
                             - apply_filter_exact(eig, h, x))) < max(10 * err, 1e-12)

    def test_apply_rejects_bad_signal_shape(self):
        lap = chain_lap(4)
        filt, _ = chebyshev_fit(lambda lam: lam, 2)
        with pytest.raises(ValueError, match="shape"):
            chebyshev_apply(lap, filt, np.zeros((5, 1)))

    def test_matrix_free_matvec_matches_dense(self):
        g = TokenGraph(6, ((0, 1), (1, 0), (2, 3), (3, 2), (1, 4), (4, 1)))
        lap = normalized_laplacian(g)  # node 5 isolated
        x = np.random.default_rng(8).standard_normal((6, 4))
        w = np.array([[0.0], [1.0]])  # T_1(L - I) x
        fast = chebyshev_series(ChebyshevOperator.of([g]).matrix, w, x)
        dense = lap.matrix.toarray() @ x - x
        assert np.allclose(fast, dense, atol=1e-14)


class TestSpectrumCache:
    def test_miss_then_hit_returns_same_objects(self):
        cache = SpectrumCache()
        g = build_chain_graph(5)
        eig1 = cache.get_or_compute(g)
        eig2 = cache.get_or_compute(g)
        assert eig1 is eig2
        assert len(cache) == 1

    def test_symmetrization_shares_entries(self):
        cache = SpectrumCache()
        directed = build_chain_graph(4)
        eig1 = cache.get_or_compute(directed)
        eig2 = cache.get_or_compute(symmetrize(directed))
        assert eig1 is eig2
        assert len(cache) == 1

    @pytest.mark.parametrize("field", ["u", "lam"])
    def test_a_cached_system_cannot_be_rebound(self, field):
        cache = SpectrumCache()
        g = build_chain_graph(5)
        eig = cache.get_or_compute(g)
        before = eig.u.tobytes(), eig.lam.tobytes()
        with pytest.raises(FrozenInstanceError):
            setattr(eig, field, np.zeros_like(getattr(eig, field)))
        again = cache.get_or_compute(g)
        assert again is eig and (again.u.tobytes(), again.lam.tobytes()) == before

    def test_distinct_graphs_distinct_entries(self):
        cache = SpectrumCache()
        cache.get_or_compute(build_chain_graph(4))
        cache.get_or_compute(build_chain_graph(5))
        assert len(cache) == 2

    def test_clear(self):
        cache = SpectrumCache()
        cache.get_or_compute(build_chain_graph(3))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == (0, 1, 0, 0)  # the counters keep counting

    def test_concurrent_access_single_entry(self):
        cache = SpectrumCache()
        g = build_chain_graph(24)
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(20):
                results.append(cache.get_or_compute(g))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 1
        assert all(r is results[0] for r in results)

    def test_counters_match_an_oracle_over_a_scripted_sequence(self, monkeypatch):
        tree = TokenGraph(9, [(i, (i - 1) // 2) for i in range(1, 9)])
        chain = build_chain_graph(5)
        script = [(chain, MixMode.exact()), (chain, MixMode.truncated(5)),
                  (build_chain_graph(8), MixMode.exact()), (tree, MixMode.chebyshev(4)),
                  (symmetrize(chain), MixMode.exact()), (tree, MixMode.truncated(3)),
                  (build_chain_graph(12), MixMode.exact()), (chain, MixMode.exact()),
                  (tree, MixMode.chebyshev(16)), (chain, MixMode.exact()),
                  (tree, MixMode.truncated(3)), (TokenGraph(6), MixMode.chebyshev(2))]
        bound = 1500
        monkeypatch.setattr(spectral_mod, "SPECTRUM_CACHE_BYTES", bound)
        cache = SpectrumCache()
        held, seen = {}, {}  # oracle: key -> bytes, oldest first; key -> item while held
        hits = misses = evictions = 0
        for g, mode in script:
            m = mode.pairs(g.n)
            key = (content_hash(g), m)
            if m is None:  # A2 stores each undirected edge twice and each isolated node once
                pairs = {tuple(sorted(e)) for e in g.edges.tolist()}
                nnz = 2 * len(pairs) + g.n - len(np.unique(g.edges))
                size = 12 * nnz + 4 * (g.n + 1)  # float64 data, int32 indices and indptr
            else:
                size = 8 * (g.n + 1) * m  # u and lam
            item = cache.get_or_compute(g, mode)
            if key in held:
                hits += 1
                assert item is seen[key]
            else:
                misses += 1
                held[key], seen[key] = size, item
                while sum(held.values()) > bound and len(held) > 1:
                    del held[next(iter(held))]
                    evictions += 1
            assert cache.stats() == (hits, misses, evictions, sum(held.values()))
            assert len(cache) == len(held)
        assert (hits, misses, evictions) == (3, 9, 5)

    def test_an_item_larger_than_the_bound_is_kept_alone(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "SPECTRUM_CACHE_BYTES", 1000)
        cache = SpectrumCache()
        cache.get_or_compute(build_chain_graph(5))  # 240 bytes
        big = cache.get_or_compute(build_chain_graph(20))  # 3360 bytes
        assert len(cache) == 1 and cache.stats() == (0, 2, 1, 3360)
        assert cache.get_or_compute(build_chain_graph(20)) is big
        assert cache.stats() == (1, 2, 1, 3360)
        cache.get_or_compute(build_chain_graph(5))  # the newest, alone within the bound
        assert len(cache) == 1 and cache.stats() == (1, 3, 2, 240)

    @pytest.mark.parametrize("max_bytes", [SPECTRUM_CACHE_BYTES, 2000])
    def test_racing_threads_build_each_held_item_once_and_count_exactly(self, monkeypatch,
                                                                        max_bytes):
        # Misses, evictions and bytes are counted under the lock, so they
        # are exact; hits are counted without it and may undercount.
        built = []  # (n, m) in insertion order: the build runs under the lock
        original = spectral_mod.eigendecompose
        monkeypatch.setattr(spectral_mod, "eigendecompose",
                            lambda lap, m: built.append((lap.n, m)) or original(lap, m=m))
        lookups = [(build_chain_graph(n), mode) for n in range(6, 14)
                   for mode in (MixMode.exact(), MixMode.truncated(2))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so that lookups and inserts interleave
        try:
            for _ in range(5):  # a new cache each round, so the race recurs
                monkeypatch.setattr(spectral_mod, "SPECTRUM_CACHE_BYTES", max_bytes)
                cache, rounds = SpectrumCache(), 3
                built.clear()
                barrier = threading.Barrier(8)

                def worker():
                    barrier.wait()
                    for _ in range(rounds):
                        for g, mode in lookups:
                            cache.get_or_compute(g, mode)

                threads = [threading.Thread(target=worker) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                held = {}  # replay the builds: FIFO within the bound, newest kept
                evictions = 0
                for n, m in built:
                    assert (n, m) not in held  # built once while held
                    held[(n, m)] = 8 * (n + 1) * m
                    while sum(held.values()) > max_bytes and len(held) > 1:
                        del held[next(iter(held))]
                        evictions += 1
                hits, misses, evicted, nbytes = cache.stats()
                assert (misses, evicted, nbytes) == (len(built), evictions, sum(held.values()))
                assert len(cache) == len(held) and hits + misses <= 8 * rounds * len(lookups)
                if max_bytes == SPECTRUM_CACHE_BYTES:
                    assert sorted(built) == sorted({(g.n, mode.pairs(g.n)) for g, mode in lookups})
                else:
                    assert evicted > 0
        finally:
            sys.setswitchinterval(interval)
