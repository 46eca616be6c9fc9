"""Layers, the full model, parameter naming, and checkpoint serialization."""

import json
from dataclasses import fields

import numpy as np
import pytest

from gwmixer import (
    MixMode,
    SpectrumCache,
    build_chain_graph,
    build_feed_forward,
    build_model,
    eigendecompose,
    layer_backward,
    layer_forward,
    load_checkpoint,
    model_backward,
    model_forward,
    model_from_params,
    model_params,
    normalized_laplacian,
    save_checkpoint,
    symmetrize,
    wavelet_mix,
)
from gwmixer.blocks import WaveletLayer, checkpoint_text
from gwmixer.filterbank import build_filter_bank
import gwmixer.serialize as serialize_mod
from gwmixer.serialize import dumps_canonical, fmt_float


def small_layer(n=6, d=4, k=2, seed=0):
    rng = np.random.default_rng(seed)
    lap = normalized_laplacian(symmetrize(build_chain_graph(n)))
    eig = eigendecompose(lap)
    layer = WaveletLayer(build_filter_bank(k, d, seed=seed),
                         build_feed_forward(d, 2, rng))
    x = rng.standard_normal((n, d))
    return lap, eig, layer, x


class TestFeedForward:
    def test_shapes(self):
        ffn = build_feed_forward(4, 3, np.random.default_rng(0))
        assert ffn.w1.shape == (4, 12)
        assert ffn.b1.shape == (12,)
        assert ffn.w2.shape == (12, 4)
        assert ffn.b2.shape == (4,)

    def test_init_bounds(self):
        ffn = build_feed_forward(16, 4, np.random.default_rng(1))
        assert np.max(np.abs(ffn.w1)) <= 0.25  # 1/sqrt(16)
        assert np.max(np.abs(ffn.w2)) <= 0.125  # 1/sqrt(64)


class TestLayer:
    def test_forward_formula(self):
        lap, eig, layer, x = small_layer()
        y, tape = layer_forward(layer, eig, x, MixMode.exact())
        m = wavelet_mix(layer.bank, eig, x, MixMode.exact())
        r = x + m
        expected = r + np.maximum(r @ layer.ffn.w1 + layer.ffn.b1, 0.0) @ layer.ffn.w2 + layer.ffn.b2
        assert np.allclose(y, expected, atol=1e-14)
        assert np.array_equal(tape.r, r)

    def test_two_residual_paths_present(self):
        # zeroing the FFN weights must leave y = x + mix(x)
        lap, eig, layer, x = small_layer()
        layer.ffn.w1[:] = 0.0
        layer.ffn.b1[:] = 0.0
        layer.ffn.w2[:] = 0.0
        layer.ffn.b2[:] = 0.0
        y, _ = layer_forward(layer, eig, x, MixMode.exact())
        assert np.allclose(y, x + wavelet_mix(layer.bank, eig, x, MixMode.exact()),
                           atol=1e-14)

    def test_backward_matches_fd(self):
        lap, eig, layer, x = small_layer()
        upstream = np.random.default_rng(5).standard_normal(x.shape)

        def loss(xv):
            y, _ = layer_forward(layer, eig, xv, MixMode.exact())
            return float(np.sum(y * upstream))

        _, tape = layer_forward(layer, eig, x, MixMode.exact())
        grad_x, _ = layer_backward(layer, tape, upstream)
        eps = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xp[idx] += eps
            xm = x.copy()
            xm[idx] -= eps
            fd[idx] = (loss(xp) - loss(xm)) / (2 * eps)
        assert np.allclose(grad_x, fd, atol=2e-6)

    def test_backward_ffn_grads_match_fd(self):
        lap, eig, layer, x = small_layer()
        upstream = np.random.default_rng(6).standard_normal(x.shape)
        _, tape = layer_forward(layer, eig, x, MixMode.exact())
        _, grads = layer_backward(layer, tape, upstream)
        eps = 1e-6
        for name in ("w1", "b1", "w2", "b2"):
            p = getattr(layer.ffn, name)
            flat = p.reshape(-1)
            g = getattr(grads.ffn, name).reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[i]
                flat[i] = orig + eps
                y, _ = layer_forward(layer, eig, x, MixMode.exact())
                up = float(np.sum(y * upstream))
                flat[i] = orig - eps
                y, _ = layer_forward(layer, eig, x, MixMode.exact())
                dn = float(np.sum(y * upstream))
                flat[i] = orig
                assert g[i] == pytest.approx((up - dn) / (2 * eps), abs=3e-6)


class TestBuildModel:
    def test_deterministic(self):
        a = build_model(4, 2, 2, 2, 11, seed=3)
        b = build_model(4, 2, 2, 2, 11, seed=3)
        for (na, pa), (nb, pb) in zip(model_params(a).items(),
                                      model_params(b).items()):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_seed_changes_parameters(self):
        a = build_model(4, 2, 1, 2, 11, seed=0)
        b = build_model(4, 2, 1, 2, 11, seed=1)
        assert not np.array_equal(a.embed, b.embed)

    def test_param_names(self):
        model = build_model(4, 2, 2, 2, 11, seed=0)
        names = set(model_params(model))
        expected = {"embed", "readout"}
        for i in range(2):
            for k in range(2):
                for t in ("w1", "b1", "w2", "b2"):
                    expected.add(f"layers.{i}.bank.filters.{k}.{t}")
            expected.add(f"layers.{i}.bank.alpha")
            for t in ("w1", "b1", "w2", "b2"):
                expected.add(f"layers.{i}.ffn.{t}")
        assert names == expected

    def test_params_are_live_views(self):
        model = build_model(4, 2, 1, 2, 11, seed=0)
        params = model_params(model)
        params["embed"][0, 0] = 123.0
        assert model.embed[0, 0] == 123.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_model(4, 2, 0, 2, 11)
        with pytest.raises(ValueError):
            build_model(4, 2, 1, 2, 1)

    @pytest.mark.parametrize("name", ["d", "k", "ffn_mult"])
    def test_zero_size_named_before_construction(self, name):
        args = dict(d=4, k=2, layers=1, ffn_mult=2, vocab=11)
        args[name] = 0
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got 0$"):
            build_model(**args)


class TestModelForward:
    def test_logits_shape(self):
        model = build_model(8, 2, 2, 2, 13, seed=0)
        g = build_chain_graph(5)
        ids = np.array([0, 3, 7, 12, 1])
        logits, tape = model_forward(model, g, ids, MixMode.exact(),
                                     cache=SpectrumCache(), return_tape=True)
        assert logits.shape == (5, 13)
        assert len(tape.layer_tapes) == 2

    def test_rejects_bad_ids(self):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        g = build_chain_graph(3)
        cache = SpectrumCache()
        with pytest.raises(ValueError, match="vocabulary"):
            model_forward(model, g, [0, 1, 7], MixMode.exact(), cache=cache)
        with pytest.raises(ValueError, match="vocabulary"):
            model_forward(model, g, [0, -1, 2], MixMode.exact(), cache=cache)
        with pytest.raises(ValueError, match="token ids"):
            model_forward(model, g, [0, 1], MixMode.exact(), cache=cache)

    def test_cache_reuse(self):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        g = build_chain_graph(4)
        cache = SpectrumCache()
        model_forward(model, g, [0, 1, 2, 3], MixMode.exact(), cache=cache)
        model_forward(model, g, [3, 2, 1, 0], MixMode.exact(), cache=cache)
        assert len(cache) == 1

    def test_deterministic(self):
        model = build_model(4, 2, 2, 2, 7, seed=0)
        g = build_chain_graph(4)
        a, _ = model_forward(model, g, [1, 2, 3, 4], MixMode.exact(),
                             cache=SpectrumCache())
        b, _ = model_forward(model, g, [1, 2, 3, 4], MixMode.exact(),
                             cache=SpectrumCache())
        assert np.array_equal(a, b)

    def test_truncated_and_chebyshev_modes_run(self):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        g = build_chain_graph(6)
        ids = [0, 1, 2, 3, 4, 5]
        cache = SpectrumCache()
        exact, _ = model_forward(model, g, ids, MixMode.exact(), cache=cache)
        trunc, _ = model_forward(model, g, ids, MixMode.truncated(6), cache=cache)
        cheb, _ = model_forward(model, g, ids, MixMode.chebyshev(30), cache=cache)
        assert np.allclose(trunc, exact, atol=1e-12)
        assert np.allclose(cheb, exact, atol=1e-6)

    @pytest.mark.parametrize("mode", [MixMode.exact(), MixMode.truncated(3),
                                      MixMode.chebyshev(8)])
    def test_every_layer_tape_holds_the_system_it_mixed_over(self, mode):
        # the mix tape is the one record of the operand; chebyshev keeps none
        model = build_model(4, 2, 3, 2, 7, seed=0)
        g = build_chain_graph(6)
        cache = SpectrumCache()
        _, tape = model_forward(model, g, [0, 1, 2, 3, 4, 5], mode, cache=cache,
                                return_tape=True)
        operand = cache.operand([g], mode)
        assert len(tape.layer_tapes) == 3
        for layer_tape in tape.layer_tapes:
            assert [f.name for f in fields(layer_tape)] == ["r", "h", "mix"]
            if mode.kind == "chebyshev":
                assert layer_tape.mix is None
            else:
                assert layer_tape.mix.operand is operand


class TestModelBackward:
    def test_grads_cover_all_parameters_in_order(self):
        model = build_model(4, 2, 2, 2, 9, seed=0)
        g = build_chain_graph(5)
        logits, tape = model_forward(model, g, [0, 1, 2, 3, 4],
                                     MixMode.exact(), cache=SpectrumCache(), return_tape=True)
        grads = model_backward(model, tape, np.ones_like(logits))
        assert list(grads) == list(model_params(model))
        for name, p in model_params(model).items():
            assert grads[name].shape == p.shape

    def test_embed_grad_accumulates_duplicate_tokens(self):
        model = build_model(4, 1, 1, 2, 6, seed=0)
        g = build_chain_graph(4)
        cache = SpectrumCache()
        up_rng = np.random.default_rng(3)
        upstream = up_rng.standard_normal((4, 6))
        _, tape_dup = model_forward(model, g, [2, 2, 2, 2], MixMode.exact(),
                                    cache=cache, return_tape=True)
        grads = model_backward(model, tape_dup, upstream)
        # the row for id 2 collects all four positions; other rows are zero
        nonzero_rows = np.flatnonzero(np.abs(grads["embed"]).sum(axis=1))
        assert nonzero_rows.tolist() == [2]

    def test_spot_fd_check(self):
        model = build_model(4, 2, 2, 2, 9, seed=1)
        g = build_chain_graph(5)
        ids = [1, 8, 3, 0, 5]
        cache = SpectrumCache()
        direction = np.random.default_rng(7).standard_normal((5, 9))

        def loss():
            logits, _ = model_forward(model, g, ids, MixMode.exact(), cache=cache)
            return float(np.sum(logits * direction))

        logits, tape = model_forward(model, g, ids, MixMode.exact(), cache=cache,
                                     return_tape=True)
        grads = model_backward(model, tape, direction)
        params = model_params(model)
        rng = np.random.default_rng(11)
        eps = 1e-6
        for name in ("embed", "readout", "layers.0.bank.alpha",
                     "layers.1.bank.filters.0.w1", "layers.0.ffn.w2",
                     "layers.1.ffn.b1"):
            flat = params[name].reshape(-1)
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            dn = loss()
            flat[i] = orig
            fd = (up - dn) / (2 * eps)
            assert grads[name].reshape(-1)[i] == pytest.approx(fd, abs=5e-5), name


class TestCheckpoint:
    def config(self):
        return {"d": 4, "k": 2, "layers": 1, "ffn_mult": 2, "vocab": 7}

    def test_text_deterministic(self):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        a = checkpoint_text(self.config(), model_params(model))
        b = checkpoint_text(self.config(), model_params(model))
        assert a == b

    def test_round_trip_exact(self, tmp_path):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        path = tmp_path / "ck.json"
        save_checkpoint(path, self.config(), model_params(model))
        config, params = load_checkpoint(path)
        assert config == self.config()
        for name, p in model_params(model).items():
            assert np.array_equal(params[name], p), name

    def test_reload_reproduces_logits(self, tmp_path):
        model = build_model(4, 2, 2, 2, 7, seed=5)
        path = tmp_path / "ck.json"
        save_checkpoint(path, {"d": 4, "k": 2, "layers": 2, "ffn_mult": 2,
                               "vocab": 7}, model_params(model))
        config, params = load_checkpoint(path)
        clone = model_from_params(config, params)
        g = build_chain_graph(4)
        a, _ = model_forward(model, g, [0, 1, 2, 3], MixMode.exact(),
                             cache=SpectrumCache())
        b, _ = model_forward(clone, g, [0, 1, 2, 3], MixMode.exact(),
                             cache=SpectrumCache())
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("fail_at", ["fsync", "replace"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, self.config(), model_params(build_model(4, 2, 1, 2, 7, seed=0)))
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(serialize_mod.os, fail_at, fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, self.config(),
                            model_params(build_model(4, 2, 1, 2, 7, seed=1)))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]

    def test_version_field_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "config": {}, "params": {}}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mode, extra, upgraded", [
        ("exact", {"trunc_m": 5, "cheb_order": 9}, "exact"),
        ("truncated", {"trunc_m": 5, "cheb_order": 9}, "truncated:5"),
        ("chebyshev", {"trunc_m": 5, "cheb_order": 9}, "chebyshev:9"),
        ("truncated", {}, "truncated:16"),  # the version 1 default
    ])
    def test_version_1_config_upgraded(self, tmp_path, mode, extra, upgraded):
        path = tmp_path / "v1.json"
        model = build_model(4, 2, 1, 2, 7, seed=0)
        path.write_text(checkpoint_text({**self.config(), "mode": mode, **extra},
                                        model_params(model)).replace('"version":2', '"version":1'))
        config, params = load_checkpoint(path)
        assert config == {**self.config(), "mode": upgraded}
        for name, p in model_params(model).items():
            assert np.array_equal(params[name], p), name

    @pytest.mark.parametrize("text, match", [
        ('[1, 2]', "JSON object, got list"),
        ('{"version": 2, "config": {}}', "no 'params'"),
        ('{"version": 2, "params": {}}', "no 'config'"),
        ('{"version": 2, "config": {}, "params": [1.0]}', "'params' must be a JSON object"),
        ('{"version": 2, "config": [], "params": {}}', "'config' must be a JSON object"),
        ('{"version": 2, "config": {}, "params": {"w": [1.0, [2.0]]}}', "'w' must be a real array"),
        ('{"version": 2, "config": {}, "params": {"w": {"a": 1}}}', "'w' must be a real array"),
        ('{"version": 2, "config": {}, "params": {"w": [1.0, NaN]}}', "'w' must be finite, got nan"),
        ('{"version": 2, "config": {}, "params": {"w": null}}', "'w' must be a real array"),
        ('{"version": 2, "config": {}, "params": {"w": ["1.5"]}}', "'w' must be a real array"),
        ('{"version": 2, "config": {}, "params": {"w": [true]}}', "'w' must be a real array"),
        ('{"version": 3, "config": {}, "params": {}}', "version 3"),
        ('{"version": 0, "config": {}, "params": {}}', "version 0"),
        ('{"version": true, "config": {}, "params": {}}', "version True"),
        ('{"version": "2", "config": {}, "params": {}}', "version '2'"),
        ('{"config": {}, "params": {}}', "version None"),
    ])
    def test_malformed_checkpoint_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_sorted_keys_and_version_first_key_order(self):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        text = checkpoint_text(self.config(), model_params(model))
        doc = json.loads(text)
        assert doc["version"] == 2
        assert list(doc["params"]) == sorted(doc["params"])

    def test_model_from_params_missing_rejected(self):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        params = dict(model_params(model))
        params.pop("readout")
        with pytest.raises(ValueError, match="missing"):
            model_from_params(self.config(), params)

    def test_model_from_params_extra_rejected(self):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        params = dict(model_params(model))
        params["bogus"] = np.zeros(3)
        with pytest.raises(ValueError, match="extra"):
            model_from_params(self.config(), params)

    @pytest.mark.parametrize("bad, match", [({"d": "4"}, "^d must be an integer"),
                                            ({"d": 4.7}, "^d must be an integer"),
                                            ({"mode": "nearest"}, "^mode 'nearest'"),
                                            ({"bogus": 1}, "bogus")])
    def test_model_from_params_config_rejected(self, bad, match):
        params = model_params(build_model(4, 2, 1, 2, 7, seed=0))
        with pytest.raises(ValueError, match=match):
            model_from_params({**self.config(), **bad}, params)

    def test_model_from_params_shape_rejected(self):
        model = build_model(4, 2, 1, 2, 7, seed=0)
        params = dict(model_params(model))
        params["readout"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape"):
            model_from_params(self.config(), params)


def reference_dumps(obj) -> str:
    """The per-element emitter that preceded whole-array float formatting:
    every array through tolist(), every float through fmt_float."""
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist())
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + reference_dumps(obj[k]) for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_dumps(x) for x in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return fmt_float(obj)


class TestSerialize:
    def test_float_17_digits_round_trip(self):
        for x in (1 / 3, 1e-17, 2.5e-4, np.pi, -0.0, 5.0):
            assert float(fmt_float(x)) == x

    def test_non_finite_rejected(self):
        for x in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                fmt_float(x)

    def test_sorted_keys(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_arrays_nested_row_major(self):
        out = dumps_canonical({"m": np.arange(4.0).reshape(2, 2)})
        assert json.loads(out)["m"] == [[0.0, 1.0], [2.0, 3.0]]

    def test_scalar_types(self):
        out = dumps_canonical({"i": 3, "s": "x", "t": True, "n": None})
        assert json.loads(out) == {"i": 3, "s": "x", "t": True, "n": None}

    EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                2.2250738585072014e-308, 1 / 3, -2.5e-4, 1e16, 123456789.0]

    @pytest.mark.parametrize("arr", [
        np.array(EXTREMES),
        np.array(EXTREMES[:10]).reshape(2, 5),
        np.array(EXTREMES[:8]).reshape(2, 2, 2),
        np.array(EXTREMES[:1]),
        np.array(1.7976931348623157e308),
        np.array(-0.0),
        np.zeros(0),
        np.zeros((2, 0)),
        np.zeros((0, 3)),
        np.array([1 / 3, -0.0, 1e-45, 3.4028235e38, -2.5e-4], dtype=np.float32),
        np.arange(-3, 4),
        np.arange(6, dtype=np.uint8).reshape(2, 3),
        np.array([True, False]),
        np.random.default_rng(3).standard_normal((7, 5)),
    ], ids=lambda a: f"{a.dtype}{a.shape}")
    def test_array_bytes_equal_the_per_element_emitter(self, arr):
        assert dumps_canonical({"a": arr, "b": [arr]}) == reference_dumps({"a": arr, "b": [arr]})

    @pytest.mark.parametrize("first, later", [(np.nan, np.inf), (np.inf, -np.inf),
                                              (-np.inf, np.nan)])
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
    def test_non_finite_array_value_rejected(self, shape, first, later):
        arr = np.ones(shape)
        arr.flat[-1] = later
        arr.flat[min(1, arr.size - 1)] = first  # the first in row-major order is named
        message = f"^non-finite value {float(first)!r} cannot be serialized$"
        with pytest.raises(ValueError, match=message):
            dumps_canonical({"w": arr})
