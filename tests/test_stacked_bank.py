"""Stacked filter banks and the flat Adam update, each against the
per-filter / per-tensor formulas they replace."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from gwmixer import (
    FilterBank,
    MixMode,
    SpectrumCache,
    adam_step,
    bank_responses,
    build_chain_graph,
    build_filter_bank,
    build_model,
    eigendecompose,
    filter_eval,
    filter_eval_grad,
    init_train_state,
    load_checkpoint,
    model_forward,
    model_from_params,
    model_params,
    normalized_laplacian,
    symmetrize,
    wavelet_mix,
    wavelet_mix_backward,
)
from gwmixer.blocks import (
    FeedForward,
    WaveletLayer,
    build_feed_forward,
    checkpoint_text,
    layer_backward,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
REL = 1e-12


def reference_eval_grad(f, lam):
    """One filter (a one-filter bank) at a time, as the per-filter code
    computed it: values (m,) and Jacobians w1/b1/w2 (m, H), b2 (m,)."""
    w1, b1, w2, b2 = f.w1[0], f.b1[0], f.w2[0], f.b2[0]
    lam = np.clip(np.atleast_1d(np.asarray(lam, dtype=np.float64)), 0.0, 2.0)
    t = np.tanh(np.outer(w1, lam) + b1[:, None])  # (H, m)
    y = w2 @ t + float(b2)
    s = expit(y)
    gb1 = s[:, None] * (w2[None, :] * (1.0 - t.T**2))
    return np.logaddexp(0.0, y), {"w1": gb1 * lam[:, None], "b1": gb1,
                                  "w2": s[:, None] * t.T, "b2": s}


def assert_rel_close(a, b, what):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape, what
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    assert float(np.max(np.abs(a - b), initial=0.0)) <= REL * scale, what


def random_lambdas(rng, m=13):
    """Spectral values including ones the filters clamp into [0, 2]."""
    return np.concatenate([rng.uniform(-0.5, 2.5, m), [-3.0, 0.0, 2.0, 7.5]])


class TestAgainstPerFilterReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_bank_responses(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        bank = build_filter_bank(k, 3, seed=seed)
        lam = random_lambdas(rng)
        ref = np.stack([reference_eval_grad(f, lam)[0] for f in bank.filters])
        assert_rel_close(bank_responses(bank, lam), ref, "array input")
        scalar = np.array([reference_eval_grad(f, 2.7)[0][0] for f in bank.filters])
        assert_rel_close(bank_responses(bank, 2.7), scalar, "scalar input")

    @pytest.mark.parametrize("seed", range(6))
    def test_single_filter_api(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 20))  # any width, not only the one draw_filter_bank draws
        f = FilterBank(rng.uniform(-1.0, 1.0, (1, h)), rng.uniform(-1.0, 1.0, (1, h)),
                       rng.uniform(-1.0, 1.0, (1, h)) / np.sqrt(h),
                       np.array([rng.uniform(-0.5, 0.5)]), np.ones((1, 1)))
        lam = random_lambdas(rng)
        ref_val, ref_jac = reference_eval_grad(f, lam)
        assert_rel_close(filter_eval(f, lam), ref_val, "filter_eval")
        val, jac = filter_eval_grad(f, lam)
        assert_rel_close(val, ref_val, "filter_eval_grad values")
        for name in ref_jac:
            assert_rel_close(jac[name], ref_jac[name], name)
        for x in (-1.0, 0.7, 2.0, 9.0):  # scalar input: scalar value, unbatched grads
            v, g = filter_eval_grad(f, x)
            rv, rj = reference_eval_grad(f, x)
            assert np.ndim(v) == 0 and np.ndim(filter_eval(f, x)) == 0
            assert_rel_close(v, rv[0], "scalar value")
            assert_rel_close(filter_eval(f, x), rv[0], "scalar filter_eval")
            for name in rj:
                assert_rel_close(g[name], rj[name][0], f"scalar {name}")

    def test_single_filter_gradient_memory_is_linear_in_lambda(self):
        # each lambda is a row of its own; an identity contraction over a bank
        # repeated M times would hold (M, M, H) floats, 128 MB at M = 1000
        f = build_filter_bank(1, 1, seed=0)
        lam = np.linspace(-0.5, 2.5, 1000)
        filter_eval_grad(f, lam)
        tracemalloc.start()
        try:
            filter_eval_grad(f, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * lam.size * f.w1.shape[1] * 8

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", [MixMode.exact(), MixMode.truncated(3)])
    def test_mix_backward(self, seed, mode):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        n, d = 7, 3
        eig = eigendecompose(normalized_laplacian(symmetrize(build_chain_graph(n))), m=mode.param)
        bank = build_filter_bank(k, d, seed=seed)
        bank.alpha[...] = rng.standard_normal((k, d))
        x = rng.standard_normal((n, d))
        up = rng.standard_normal((n, d))
        _, tape = wavelet_mix(bank, eig, x, mode, return_tape=True)
        _, grads = wavelet_mix_backward(bank, tape, up)

        u, lam = eig.u, eig.lam
        wresp = bank.alpha @ ((u.T @ x) * (u.T @ up)).T  # dLoss/dg_k(lam_i)
        for kk, f in enumerate(bank.filters):
            _, jac = reference_eval_grad(f, lam)
            for name in jac:
                assert_rel_close(getattr(grads, name)[kk], wresp[kk] @ jac[name], name)
                assert_rel_close(getattr(grads.filters[kk], name)[0], wresp[kk] @ jac[name], name)
        assert grads.w1.shape == (k, 16) and grads.b2.shape == (k,)


class TestTypedGradients:
    def test_each_gradient_has_its_parameters_type_and_shapes(self):
        model = build_model(d=4, k=3, layers=2, ffn_mult=2, vocab=7, seed=1)
        _, tape = model_forward(model, build_chain_graph(6), np.arange(6) % 7, MixMode.exact(),
                                return_tape=True)
        layer = model.layers[1]
        grad_x, grad_layer = layer_backward(layer, tape.layer_tapes[1], np.ones((6, 4)))
        assert grad_x.shape == (6, 4)
        assert isinstance(grad_layer, WaveletLayer)
        assert isinstance(grad_layer.bank, FilterBank) and isinstance(grad_layer.ffn, FeedForward)
        for name in ("w1", "b1", "w2", "b2", "alpha"):
            assert getattr(grad_layer.bank, name).shape == getattr(layer.bank, name).shape
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(grad_layer.ffn, name).shape == getattr(layer.ffn, name).shape


class TestStackedStorage:
    def test_filters_are_views_into_the_stack(self):
        bank = build_filter_bank(3, 2, seed=0)
        assert bank.w1.shape == bank.b1.shape == bank.w2.shape == (3, 16)
        assert bank.b2.shape == (3,)
        f = bank.filters[1]
        assert f.b2.shape == (1,) and np.shares_memory(f.b2, bank.b2)
        f.w1[0, 4] = 0.25
        f.b2[...] = -1.5
        assert bank.w1[1, 4] == 0.25 and bank.b2[1] == -1.5

    def test_filters_are_one_filter_banks(self):
        bank = build_filter_bank(2, 4, seed=0)
        assert isinstance(bank.filters, tuple) and isinstance(bank.filters[0], FilterBank)
        for kk, f in enumerate(bank.filters):
            assert f.k == 1 and f.d == 4 and np.shares_memory(f.alpha, bank.alpha)
            assert np.array_equal(bank_responses(f, np.linspace(0.0, 2.0, 5)),
                                  bank_responses(bank, np.linspace(0.0, 2.0, 5))[kk:kk + 1])

    @pytest.mark.parametrize("name, bad, message", [
        ("w1", np.ones((0, 16)), "w1 must have shape (K, H) with K >= 1, got (0, 16)"),
        ("w1", np.ones(16), "w1 must have shape (K, H) with K >= 1, got (16,)"),
        ("w1", [[1.0] * 16] * 2, "w1 must have shape (K, H) with K >= 1, got None"),
        ("b1", np.ones((2, 15)), "b1 must have shape (2, 16), got (2, 15)"),
        ("w2", np.ones((3, 16)), "w2 must have shape (2, 16), got (3, 16)"),
        ("b2", np.ones(3), "b2 must have shape (2,), got (3,)"),
        ("b2", np.ones((2, 1)), "b2 must have shape (2,), got (2, 1)"),
        ("alpha", np.ones(4), "alpha must have shape (2, d), got (4,)"),
        ("alpha", np.ones((3, 4)), "alpha must have shape (2, d), got (3, 4)"),
        ("alpha", np.ones((2, 3, 4)), "alpha must have shape (2, d), got (2, 3, 4)"),
    ])
    def test_inconsistent_shapes_rejected_naming_the_array(self, name, bad, message):
        bank = build_filter_bank(2, 4, seed=0)
        arrays = {f: getattr(bank, f) for f in ("w1", "b1", "w2", "b2", "alpha")}
        with pytest.raises(ValueError, match=f"^FilterBank {re.escape(message)}$"):
            FilterBank(**{**arrays, name: bad})

    @pytest.mark.parametrize("fn", [filter_eval, filter_eval_grad])
    def test_single_filter_functions_reject_a_bank(self, fn):
        with pytest.raises(ValueError, match=r"one-filter bank .* got K=2$"):
            fn(build_filter_bank(2, 4, seed=0), 0.5)

    def test_write_through_model_params_moves_the_output(self):
        model = build_model(d=4, k=2, layers=2, ffn_mult=2, vocab=7, seed=0)
        graph = build_chain_graph(6)
        ids = np.arange(6) % 7
        cache = SpectrumCache()
        before, _ = model_forward(model, graph, ids, MixMode.exact(), cache)
        params = model_params(model)
        for name in ("layers.1.bank.filters.1.w2", "layers.0.bank.filters.0.b2"):
            params[name] += 0.5
            after, _ = model_forward(model, graph, ids, MixMode.exact(), cache)
            assert not np.allclose(after, before), name
            before = after


def old_draw_order(d, k, layers, ffn_mult, vocab, seed, hidden=16):
    """Parameters drawn as the per-filter build did: embed, readout, then
    per layer each filter's w1, b1, w2 and scalar b2 in index order, alpha
    1/K, then the FFN."""
    rng = np.random.default_rng(seed)
    bd = 1.0 / np.sqrt(d)
    out = {"embed": rng.uniform(-bd, bd, (vocab, d)), "readout": rng.uniform(-bd, bd, (d, vocab))}
    b2 = 1.0 / np.sqrt(hidden)
    for i in range(layers):
        for kk in range(k):
            base = f"layers.{i}.bank.filters.{kk}"
            out[f"{base}.w1"] = rng.uniform(-1.0, 1.0, hidden)
            out[f"{base}.b1"] = rng.uniform(-1.0, 1.0, hidden)
            out[f"{base}.w2"] = rng.uniform(-b2, b2, hidden)
            out[f"{base}.b2"] = np.array(rng.uniform(-b2, b2))
        out[f"layers.{i}.bank.alpha"] = np.full((k, d), 1.0 / k)
        ffn = build_feed_forward(d, ffn_mult, rng)
        for name in ("w1", "b1", "w2", "b2"):
            out[f"layers.{i}.ffn.{name}"] = getattr(ffn, name)
    return out


def params_section(text):
    """The "params" object of checkpoint text, as bytes on disk."""
    return text.split('"params":', 1)[1].rsplit(',"version":', 1)[0]


class TestArtifacts:
    @pytest.mark.parametrize("dims", [(8, 2, 2, 4, 11, 0), (5, 4, 1, 2, 9, 3), (3, 1, 3, 1, 4, 7)])
    def test_seeded_build_matches_old_draw_order(self, dims):
        params = model_params(build_model(*dims))
        ref = old_draw_order(*dims)
        assert list(params) == list(ref)
        for name, arr in ref.items():
            assert params[name].shape == arr.shape, name
            assert np.array_equal(params[name], arr), name

    def test_checkpoint_written_by_per_filter_code_loads(self):
        # written by the per-filter implementation for this config, untrained,
        # as checkpoint version 1 (mode, cheb_order and trunc_m fields)
        path = os.path.join(DATA, "checkpoint_v1_seed11.json")
        config, params = load_checkpoint(path)
        assert config["mode"] == "exact"
        assert "cheb_order" not in config and "trunc_m" not in config
        model = model_from_params(config, params)
        with open(path, encoding="utf-8") as fh:
            v1_params = params_section(fh.read())
        assert params_section(checkpoint_text(config, model_params(model))) == v1_params
        fresh = build_model(config["d"], config["k"], config["layers"], config["ffn_mult"],
                            config["vocab"], seed=config["seed"])
        for name, arr in model_params(fresh).items():
            assert np.array_equal(params[name], arr), name
        assert params_section(checkpoint_text(config, model_params(fresh))) == v1_params


def per_tensor_adam(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-tensor update the flat one replaces."""
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


class TestFlatAdam:
    def test_bit_identical_to_per_tensor_update(self):
        model = build_model(d=16, k=4, layers=2, ffn_mult=4, vocab=32, seed=5)
        live = model_params(model)
        ref = {name: p.copy() for name, p in live.items()}
        m = {name: np.zeros_like(p) for name, p in ref.items()}
        v = {name: np.zeros_like(p) for name, p in ref.items()}
        state = init_train_state(live)
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            grads = {name: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)
                     for name, p in ref.items()}
            for name, g in grads.items():
                state.grads[name][...] = g
            adam_step(state, lr=1e-3 * t)
            per_tensor_adam(ref, grads, m, v, t, lr=1e-3 * t)
            for name in ref:
                assert np.array_equal(live[name], ref[name]), (t, name)
            assert not state.grad_buf.any()
        assert state.step == 5

    def test_grads_are_views_of_one_buffer(self):
        params = {"a": np.zeros((2, 3)), "b": np.zeros(()), "c": np.zeros(4)}
        state = init_train_state(params)
        assert state.grad_buf.shape == (11,)
        for name, p in params.items():
            assert state.grads[name].shape == p.shape
            assert np.shares_memory(state.grads[name], state.grad_buf)
        state.grads["b"][...] = 2.0
        assert state.grad_buf[6] == 2.0
