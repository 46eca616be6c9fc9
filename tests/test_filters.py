"""Filters, filter banks, mixing modes, and the mixing operator."""

import math
import re
import warnings

import numpy as np
import pytest

from gwmixer import (
    FilterBank,
    MixMode,
    bank_responses,
    build_chain_graph,
    build_filter_bank,
    eigendecompose,
    filter_eval,
    filter_eval_grad,
    normalized_laplacian,
    parse_mix_mode,
    spectrum_csv,
    symmetrize,
    wavelet_mix,
    wavelet_mix_backward,
)
from gwmixer.filterbank import _expit, draw_filter_bank
from gwmixer.spectral import ChebyshevOperator

LN2 = math.log(2.0)


def chain_setup(n, d=4, k=3, seed=0):
    lap = normalized_laplacian(symmetrize(build_chain_graph(n)))
    eig = eigendecompose(lap)
    bank = build_filter_bank(k, d, seed=seed)
    x = np.random.default_rng(seed + 100).standard_normal((n, d))
    return lap, eig, bank, x


def chain_operator(n):
    """The Chebyshev operator of chain_setup's graph."""
    return ChebyshevOperator.of([build_chain_graph(n)])


def naive_mix(bank, eig, x):
    """Independent per-filter composition: sum_k U g_k(Lam) U^T X diag(a_k)."""
    out = np.zeros_like(x)
    for f, alpha in zip(bank.filters, bank.alpha):
        resp = filter_eval(f, eig.lam)
        out += (eig.u @ (resp[:, None] * (eig.u.T @ x))) * alpha[None, :]
    return out


def one_filter(w1, b1, w2, b2):
    """A one-filter bank of the given weights (w1, b1, w2 of shape (H,))."""
    return FilterBank(w1[None], b1[None], w2[None], np.array([b2]), np.ones((1, 1)))


def constant_one_filter(hidden=16):
    """Exact g(lambda) = 1: w2 = 0, b2 = ln(e - 1) makes softplus(b2) = 1."""
    return one_filter(
        w1=np.zeros(hidden),
        b1=np.zeros(hidden),
        w2=np.zeros(hidden),
        b2=math.log(math.e - 1.0),
    )


class TestFilterMlp:
    def test_zero_parameters_give_ln2(self):
        f = one_filter(np.zeros(16), np.zeros(16), np.zeros(16), 0.0)
        assert filter_eval(f, 0.7) == pytest.approx(LN2, abs=1e-15)

    def test_zero_parameter_output_bias_gradient_is_half(self):
        f = one_filter(np.zeros(16), np.zeros(16), np.zeros(16), 0.0)
        _, grads = filter_eval_grad(f, np.array([0.3, 1.1]))
        assert np.allclose(grads["b2"], 0.5, atol=1e-15)

    def test_init_shapes_and_bounds(self):
        rng = np.random.default_rng(0)
        f = draw_filter_bank(rng, 1, 1)
        assert f.w1.shape == (1, 16) and f.b1.shape == (1, 16)
        assert f.w2.shape == (1, 16) and f.b2.shape == (1,)
        assert np.max(np.abs(f.w1)) <= 1.0  # fan_in 1 -> U(-1, 1)
        assert np.max(np.abs(f.w2)) <= 1.0 / 4.0  # fan_in 16 -> U(-1/4, 1/4)

    def test_output_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = draw_filter_bank(rng, 1, 1)
            vals = filter_eval(f, np.linspace(0, 2, 50))
            assert np.all(vals > 0.0)  # softplus range

    def test_scalar_and_array_polymorphism(self):
        f = draw_filter_bank(np.random.default_rng(1), 1, 1)
        arr = filter_eval(f, np.array([0.5, 1.5]))
        assert arr.shape == (2,)
        assert filter_eval(f, 0.5) == pytest.approx(arr[0], abs=1e-15)

    def test_lambda_clamped_to_spectrum_range(self):
        f = draw_filter_bank(np.random.default_rng(2), 1, 1)
        assert filter_eval(f, -0.5) == pytest.approx(filter_eval(f, 0.0), abs=1e-15)
        assert filter_eval(f, 2.7) == pytest.approx(filter_eval(f, 2.0), abs=1e-15)

    def test_constant_one_construction(self):
        vals = filter_eval(constant_one_filter(), np.linspace(0, 2, 17))
        assert np.allclose(vals, 1.0, atol=1e-15)

    def test_eval_grad_matches_finite_differences(self):
        f = draw_filter_bank(np.random.default_rng(3), 1, 1)
        lam = np.array([0.1, 0.9, 1.8])
        _, grads = filter_eval_grad(f, lam)
        eps = 1e-6
        for name in ("w1", "b1", "w2", "b2"):
            p = getattr(f, name)
            flat = p.reshape(-1)
            g_flat = grads[name].reshape(len(lam), -1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = filter_eval(f, lam)
                flat[i] = orig - eps
                dn = filter_eval(f, lam)
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                assert np.allclose(g_flat[:, i], fd, atol=1e-7)

    @pytest.mark.parametrize("fn", [filter_eval, filter_eval_grad, bank_responses])
    @pytest.mark.parametrize("lam, named", [
        ("0.5", "<U3 of shape ()"),
        (None, "object of shape ()"),
        (True, "bool of shape ()"),
        (0.5 + 0j, "complex128 of shape ()"),
        (np.ones((1, 1)), "float64 of shape (1, 1)"),
        (np.ones((2, 3)), "float64 of shape (2, 3)"),
    ])
    def test_lambda_is_a_real_scalar_or_1d_array(self, fn, lam, named):
        f = draw_filter_bank(np.random.default_rng(4), 1, 1)
        assert np.array_equal(fn(f, np.arange(3))[0], fn(f, np.arange(3.0))[0])  # ints are real
        with pytest.raises(ValueError, match="^lambda must be a real scalar or 1-D array, got "
                                             + re.escape(named) + "$"):
            fn(f, lam)


class TestBank:
    def test_build_shapes(self):
        bank = build_filter_bank(4, 8, seed=0)
        assert bank.k == 4 and bank.d == 8
        assert bank.alpha.shape == (4, 8)
        assert len(bank.filters) == 4

    def test_alpha_initialized_uniform_mix(self):
        bank = build_filter_bank(4, 8, seed=0)
        assert np.allclose(bank.alpha, 0.25)

    def test_deterministic_per_seed(self):
        a = build_filter_bank(3, 4, seed=7)
        b = build_filter_bank(3, 4, seed=7)
        c = build_filter_bank(3, 4, seed=8)
        assert np.array_equal(a.filters[1].w1, b.filters[1].w1)
        assert not np.array_equal(a.filters[1].w1, c.filters[1].w1)

    def test_bank_responses_shape(self):
        bank = build_filter_bank(3, 4)
        lam = np.linspace(0, 2, 11)
        resp = bank_responses(bank, lam)
        assert resp.shape == (3, 11)
        assert np.allclose(resp[1], filter_eval(bank.filters[1], lam))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_filter_bank(0, 4)
        with pytest.raises(ValueError):
            build_filter_bank(2, 0)


class TestMixMode:
    def test_parse_exact(self):
        m = parse_mix_mode("exact")
        assert m == MixMode.exact()
        assert str(m) == "exact"

    def test_parse_truncated(self):
        m = parse_mix_mode("truncated:16")
        assert m == MixMode.truncated(16)
        assert m.param == 16
        assert str(m) == "truncated:16"

    def test_parse_chebyshev(self):
        m = parse_mix_mode("chebyshev:20")
        assert m == MixMode.chebyshev(20)
        assert str(m) == "chebyshev:20"

    def test_parse_rejects_garbage(self):
        for bad in ("", "exact:4", "truncated:0", "chebyshev:-1", "nearest:2", "exact:",
                    "truncated:", "chebyshev:", "truncated:+5", "truncated:1_6",
                    "truncated: 5", "truncated:5 ", "truncated:\u0665"):
            with pytest.raises(ValueError):
                parse_mix_mode(bad)

    def test_parse_error_names_the_parameter_text(self):
        with pytest.raises(ValueError, match="'x' in 'truncated:x'"):
            parse_mix_mode("truncated:x")


class TestWaveletMix:
    def test_matches_naive_composition(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 17))
            d = int(rng.integers(1, 9))
            k = int(rng.integers(1, 5))
            lap, eig, bank, _ = chain_setup(n, d, k, seed=trial)
            x = rng.standard_normal((n, d))
            fast = wavelet_mix(bank, eig, x, MixMode.exact())
            slow = naive_mix(bank, eig, x)
            scale = max(1.0, float(np.max(np.abs(slow))))
            assert np.max(np.abs(fast - slow)) < 1e-12 * scale

    def test_constant_one_bank_is_identity(self):
        n, d = 9, 5
        lap, eig, _, x = chain_setup(n, d)
        f = constant_one_filter()
        bank = FilterBank(f.w1, f.b1, f.w2, f.b2, np.ones((1, d)))
        y = wavelet_mix(bank, eig, x, MixMode.exact())
        assert np.allclose(y, x, atol=1e-13)

    def test_truncated_full_m_equals_exact(self):
        lap, eig, bank, x = chain_setup(10, 4, 3)
        full = wavelet_mix(bank, eig, x, MixMode.exact())
        trunc = wavelet_mix(bank, eigendecompose(lap, m=10), x, MixMode.truncated(10))
        assert np.array_equal(full, trunc) or np.allclose(full, trunc, atol=1e-14)

    def test_truncated_error_shrinks_with_m(self):
        lap, eig, bank, x = chain_setup(12, 4, 2)
        exact = wavelet_mix(bank, eig, x, MixMode.exact())
        errs = [np.linalg.norm(wavelet_mix(bank, eigendecompose(lap, m=m), x,
                                           MixMode.truncated(m)) - exact)
                for m in (2, 6, 10, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("mode, m", [
        (MixMode.exact(), 16), (MixMode.truncated(8), 16), (MixMode.truncated(16), None),
    ])
    def test_mode_rejects_a_system_of_other_size(self, mode, m):
        # an eigensystem is mixed over whole: never sliced, never partly used
        lap, _, bank, x = chain_setup(64, 4, 2)
        eig = eigendecompose(lap, m=m)
        with pytest.raises(ValueError, match=f"^{mode} mode .* m={eig.m} .* n=64 "):
            wavelet_mix(bank, eig, x, mode)

    def test_chebyshev_matches_exact(self):
        lap, eig, bank, x = chain_setup(16, 6, 3)
        exact = wavelet_mix(bank, eig, x, MixMode.exact())
        cheb = wavelet_mix(bank, chain_operator(16), x, MixMode.chebyshev(30))
        assert np.max(np.abs(cheb - exact)) < 1e-8

    def test_chebyshev_requires_an_operator(self):
        lap, eig, bank, x = chain_setup(6, 3, 2)
        with pytest.raises(ValueError):
            wavelet_mix(bank, eig, x, MixMode.chebyshev(8))

    def test_linearity_in_x(self):
        lap, eig, bank, _ = chain_setup(8, 4, 2)
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal((8, 4))
        x2 = rng.standard_normal((8, 4))
        lhs = wavelet_mix(bank, eig, 2.0 * x1 - 0.5 * x2, MixMode.exact())
        rhs = (2.0 * wavelet_mix(bank, eig, x1, MixMode.exact())
               - 0.5 * wavelet_mix(bank, eig, x2, MixMode.exact()))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_permutation_equivariance(self):
        from gwmixer import TokenGraph

        rng = np.random.default_rng(11)
        n, d = 9, 4
        base = symmetrize(build_chain_graph(n))
        perm = rng.permutation(n)
        pedges = tuple((int(perm[s]), int(perm[d_])) for s, d_ in base.edges)
        pgraph = TokenGraph(n, pedges)
        bank = build_filter_bank(3, d, seed=2)
        x = rng.standard_normal((n, d))
        y = wavelet_mix(bank, eigendecompose(normalized_laplacian(base)),
                        x, MixMode.exact())
        x_p = np.empty_like(x)
        x_p[perm] = x
        y_p = wavelet_mix(bank, eigendecompose(normalized_laplacian(pgraph)),
                          x_p, MixMode.exact())
        assert np.allclose(y_p[perm], y, atol=1e-10)

    def test_shape_validation(self):
        lap, eig, bank, x = chain_setup(6, 4, 2)
        with pytest.raises(ValueError):
            wavelet_mix(bank, eig, x[:, :3], MixMode.exact())  # d mismatch
        with pytest.raises(ValueError):
            wavelet_mix(bank, eig, x[:5], MixMode.exact())  # n mismatch


class TestMixBackward:
    def setup_method(self):
        self.lap, self.eig, self.bank, self.x = chain_setup(7, 4, 3, seed=12)
        self.upstream = np.random.default_rng(13).standard_normal((7, 4))

    def loss(self, bank, x):
        return float(np.sum(wavelet_mix(bank, self.eig, x, MixMode.exact())
                            * self.upstream))

    def backward(self, eig=None, mode=MixMode.exact()):
        eig = self.eig if eig is None else eig
        _, tape = wavelet_mix(self.bank, eig, self.x, mode, return_tape=True)
        return wavelet_mix_backward(self.bank, tape, self.upstream)

    def test_grad_x_matches_fd(self):
        grad_x, _ = self.backward()
        eps = 1e-6
        fd = np.zeros_like(self.x)
        for idx in np.ndindex(self.x.shape):
            xp = self.x.copy()
            xp[idx] += eps
            xm = self.x.copy()
            xm[idx] -= eps
            fd[idx] = (self.loss(self.bank, xp) - self.loss(self.bank, xm)) / (2 * eps)
        assert np.allclose(grad_x, fd, atol=1e-6)

    def test_grad_alpha_matches_fd(self):
        _, grads = self.backward()
        eps = 1e-6
        for idx in np.ndindex(self.bank.alpha.shape):
            orig = self.bank.alpha[idx]
            self.bank.alpha[idx] = orig + eps
            up = self.loss(self.bank, self.x)
            self.bank.alpha[idx] = orig - eps
            dn = self.loss(self.bank, self.x)
            self.bank.alpha[idx] = orig
            assert grads.alpha[idx] == pytest.approx((up - dn) / (2 * eps), abs=2e-5)

    def test_filter_grads_match_fd(self):
        _, grads = self.backward()
        eps = 1e-6
        for k, f in enumerate(self.bank.filters):
            for name in ("w1", "b1", "w2", "b2"):
                p = getattr(f, name).reshape(-1)
                g = getattr(grads.filters[k], name).reshape(-1)
                for i in range(p.size):
                    orig = p[i]
                    p[i] = orig + eps
                    up = self.loss(self.bank, self.x)
                    p[i] = orig - eps
                    dn = self.loss(self.bank, self.x)
                    p[i] = orig
                    assert g[i] == pytest.approx((up - dn) / (2 * eps), abs=3e-5)

    def test_truncated_mode_backward_consistent(self):
        mode = MixMode.truncated(4)
        eig = eigendecompose(self.lap, m=4)
        grad_x, _ = self.backward(eig, mode)
        eps = 1e-6
        idx = (1, 2)
        xp = self.x.copy()
        xp[idx] += eps
        xm = self.x.copy()
        xm[idx] -= eps
        up = float(np.sum(wavelet_mix(self.bank, eig, xp, mode) * self.upstream))
        dn = float(np.sum(wavelet_mix(self.bank, eig, xm, mode) * self.upstream))
        assert grad_x[idx] == pytest.approx((up - dn) / (2 * eps), abs=1e-6)

    def test_chebyshev_backward_rejected(self):
        _, tape = wavelet_mix(self.bank, chain_operator(7), self.x, MixMode.chebyshev(8),
                              return_tape=True)
        assert tape is None
        with pytest.raises(ValueError, match="^chebyshev mode is inference-only"):
            wavelet_mix_backward(self.bank, tape, self.upstream)


class TestSpectrumCsv:
    def test_header_and_row_count(self):
        bank = build_filter_bank(3, 4, seed=0)
        text = spectrum_csv(bank, samples=64)
        lines = text.strip("\n").split("\n")
        assert lines[0] == "lambda,g_1,g_2,g_3"
        assert len(lines) == 65

    def test_values_match_filter_eval(self):
        bank = build_filter_bank(2, 4, seed=1)
        lines = spectrum_csv(bank, samples=5).strip("\n").split("\n")
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == 0.0 and last[0] == 2.0
        assert first[1] == pytest.approx(float(filter_eval(bank.filters[0], 0.0)),
                                         abs=1e-15)
        assert last[2] == pytest.approx(float(filter_eval(bank.filters[1], 2.0)),
                                        abs=1e-15)


class TestExpit:
    def test_the_logistic_formula_with_exp_within_one_ulp(self):
        # _expit is 1 / (1 + exp(-y)); NumPy's exp may differ from the C
        # library's by one ulp, and the rest of the formula is the same
        rng = np.random.default_rng(5)
        y = np.concatenate([np.linspace(-700.0, 700.0, 4001), 6.0 * rng.standard_normal(4000),
                            [0.0, -0.0, 5e-324, 36.7, -36.7]])
        got = _expit(y)
        e = np.array([math.exp(-v) for v in y])
        ok = np.zeros(len(y), dtype=bool)
        for towards in (-np.inf, np.inf, e):
            ok |= got == 1.0 / (1.0 + np.nextafter(e, towards))
        assert ok.all(), y[~ok]

    def test_saturates_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expit(np.array([-1000.0, -745.2, 745.2, 1000.0]))
        assert got.tolist() == [0.0, 0.0, 1.0, 1.0]
