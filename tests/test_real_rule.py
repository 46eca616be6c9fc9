"""One real-number rule: every real scalar the package takes is checked by
graphs.require_real and every real array by graphs.require_real_array.

A scalar is a finite int or float (NumPy's too) inside its caller's bound;
a bool, a string, None, a complex number, nan or inf raises ValueError
"<what> must be a finite number <bound>, got <value!r>". An array has an
int, uint or float dtype; a bool, string, object (a None entry) or complex
array raises ValueError "<what> must be a real array, got dtype <dtype>"
before any product or file write, so nothing is parsed, cast to nan or
stripped of its imaginary part on the way in. Int and float32 input gives
the bytes its float64 cast gives."""

import json
import pickle
import re

import numpy as np
import pytest

import gwmixer.blocks as blocks_mod
import gwmixer.filterbank as filterbank_mod
import gwmixer.graphs as graphs_mod
import gwmixer.spectral as spectral_mod
import gwmixer.training as training_mod
from gwmixer import (
    MixMode,
    ScheduleConfig,
    SpectrumCache,
    TaskSpec,
    TrainConfig,
    adam_step,
    apply_filter_exact,
    attention_baseline_forward,
    bank_responses,
    build_chain_graph,
    build_filter_bank,
    build_model,
    chebyshev_apply,
    chebyshev_fit,
    cross_entropy_loss,
    filter_eval,
    filter_eval_grad,
    fit_loglog_slope,
    gen_task_batch,
    gft,
    grad_check,
    igft,
    init_train_state,
    layer_forward,
    load_checkpoint,
    lr_at,
    make_attention_params,
    metrics_csv,
    model_from_params,
    model_params,
    normalized_laplacian,
    save_checkpoint,
    token_accuracy,
    train_loop,
    wavelet_mix,
    wavelet_mix_backward,
)
from gwmixer.blocks import checkpoint_text
from gwmixer.spectral import EigenSystem, chebyshev_nodes

GRAPH = build_chain_graph(5)
EXACT = MixMode.exact()
EIG = SpectrumCache().operand([GRAPH], EXACT)
LAP = normalized_laplacian(GRAPH)
BANK = build_filter_bank(2, 3, seed=1)
X = np.random.default_rng(0).standard_normal((5, 3))
TAPE = wavelet_mix(BANK, EIG, X, EXACT, return_tape=True)[1]
LAYER = build_model(3, 2, 1, 2, 7, seed=2).layers[0]
ATTENTION = make_attention_params(3)
LAM = np.array([0.1, 0.7, 1.9])
NODES = chebyshev_nodes(4)[0]
CONFIG = dict(d=3, k=2, layers=1, ffn_mult=2, vocab=7)
PARAMS = model_params(build_model(**CONFIG, seed=3))
TARGETS, MASK = [0, 1, 2, 0], np.ones(4, dtype=bool)


def _fit_at_nodes(v):
    """chebyshev_fit of a filter that returns v at the order-4 nodes."""
    return chebyshev_fit(lambda lam: v if len(lam) == len(NODES) else np.exp(-lam), 4)


# every site that takes a real array: (a valid value, a call with the value
# in the checked field, the field the message names, the work (module or
# class, name) that must not start before the check, or None)
ARRAY_SITES = {
    "gft-x": (X, lambda v: gft(EIG, v), "signal", (EigenSystem, "analysis")),
    "igft-xhat": (X, lambda v: igft(EIG, v), "signal", (EigenSystem, "synthesis")),
    "apply_filter_exact-x": (X, lambda v: apply_filter_exact(EIG, np.exp, v), "signal",
                             (np, "exp")),
    "apply_filter_exact-output": (np.exp(-EIG.lam), lambda v: apply_filter_exact(
        EIG, lambda lam: v, X), "filter output", None),
    "chebyshev_fit-output": (np.exp(-NODES), _fit_at_nodes, "filter output",
                             (np.polynomial.chebyshev, "chebval")),
    "chebyshev_apply-coeffs": (np.array([1.0, 0.5, 0.25]), lambda v: chebyshev_apply(LAP, v, X),
                               "chebyshev coefficients", (spectral_mod, "chebyshev_series")),
    "chebyshev_apply-x": (X, lambda v: chebyshev_apply(LAP, [1.0, 0.5], v), "signal",
                          (spectral_mod, "chebyshev_series")),
    "filter_eval-lambda": (LAM, lambda v: filter_eval(BANK.filters[0], v), "lambda",
                           (filterbank_mod, "_bank_eval")),
    "filter_eval_grad-lambda": (LAM, lambda v: filter_eval_grad(BANK.filters[0], v), "lambda",
                                (filterbank_mod, "_bank_eval")),
    "bank_responses-lambda": (LAM, lambda v: bank_responses(BANK, v), "lambda",
                              (filterbank_mod, "_bank_eval")),
    "wavelet_mix-x": (X, lambda v: wavelet_mix(BANK, EIG, v, EXACT), "signal",
                      (filterbank_mod, "_bank_eval")),
    "wavelet_mix_backward-upstream": (X, lambda v: wavelet_mix_backward(BANK, TAPE, v),
                                      "upstream", (EigenSystem, "analysis")),
    "layer_forward-x": (X, lambda v: layer_forward(LAYER, EIG, v, EXACT)[0], "x",
                        (blocks_mod, "wavelet_mix")),
    "attention_baseline_forward-x": (X, lambda v: attention_baseline_forward(v, *ATTENTION),
                                     "x", None),
    "cross_entropy_loss-logits": (X[:4], lambda v: cross_entropy_loss(v, TARGETS, MASK),
                                  "logits", (np, "exp")),
    "token_accuracy-logits": (X[:4], lambda v: token_accuracy(v, TARGETS, MASK), "logits",
                              (np, "argmax")),
    "model_from_params-param": (PARAMS["embed"], lambda v: model_params(model_from_params(
        CONFIG, {**PARAMS, "embed": v})), "param 'embed'", None),
    "checkpoint_text-param": (PARAMS["readout"], lambda v: checkpoint_text(
        CONFIG, {**PARAMS, "readout": v}), "param 'readout'", (blocks_mod, "dumps_canonical")),
    "fit_loglog_slope-ns": (np.array([8.0, 16.0, 32.0]), lambda v: fit_loglog_slope(
        v, [1.0, 2.5, 4.0]), "ns", (np, "polyfit")),
    "fit_loglog_slope-ts": (np.array([1.0, 2.5, 4.0]), lambda v: fit_loglog_slope(
        [8, 16, 32], v), "ts", (np, "polyfit")),
}


def _object_with_none(good):
    arr = good.astype(object)
    arr.flat[0] = None  # cast to float64, a None entry reads as nan
    return arr


# a float64 value becomes each of these; the parent parsed strings, cast
# bools, read None as nan and dropped imaginary parts
NOT_REAL = {
    "bool": lambda good: good > 0.5,
    "str": lambda good: good.astype(str),
    "object-None": _object_with_none,
    "complex": lambda good: good + 0.5j,
}


def _raises_exactly(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def _spy(monkeypatch, work):
    started = []
    if work is not None:
        monkeypatch.setattr(*work, lambda *args, **kwargs: started.append(args))
    return started


class TestRequireReal:
    @pytest.mark.parametrize("value", [2, 2.5, np.int64(2), np.uint8(2), np.float32(2.5),
                                       np.float64(2.5), 0, 10**300])
    def test_numbers_pass_as_float(self, value):
        got = graphs_mod.require_real("x", value, 0)
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value", [True, False, np.True_, "2", None, [2.0], 2 + 0j,
                                       np.complex128(2), float("nan"), float("inf"),
                                       float("-inf"), np.float64("nan"), 10**400, -1, -0.5])
    def test_rejected_with_one_message(self, value):
        with _raises_exactly(f"x must be a finite number >= 0, got {value!r}"):
            graphs_mod.require_real("x", value, 0)

    @pytest.mark.parametrize("low, high, strict, bound, inside, outside", [
        (0, np.inf, True, "> 0", 1e-300, 0),
        (0, np.inf, False, ">= 0", 0, -1e-300),
        (0, 1, True, "in (0, 1)", 0.5, 1),
        (0, 1, False, "in [0, 1]", 1, 1.5),
    ])
    def test_bounds(self, low, high, strict, bound, inside, outside):
        assert graphs_mod.require_real("x", inside, low, high, strict) == inside
        with _raises_exactly(f"x must be a finite number {bound}, got {outside!r}"):
            graphs_mod.require_real("x", outside, low, high, strict)


class TestRequireRealArray:
    def test_a_float64_array_is_returned_itself(self):
        assert graphs_mod.require_real_array("x", X) is X

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float32, np.float16])
    def test_int_and_float_dtypes_become_float64(self, dtype):
        arr = np.arange(6, dtype=dtype).reshape(2, 3)
        got = graphs_mod.require_real_array("x", arr)
        assert got.dtype == np.float64 and np.array_equal(got, arr.astype(np.float64))

    @pytest.mark.parametrize("values, dtype", [
        ([True, False], "bool"), (["1", "2"], "<U1"), ([None, 1.0], "object"),
        ([1 + 0j], "complex128"), ([1.0, [2.0]], "object"), (None, "object"),
    ], ids=repr)
    def test_rejected_naming_the_field_and_dtype(self, values, dtype):
        with _raises_exactly(f"x must be a real array, got dtype {dtype}"):
            graphs_mod.require_real_array("x", values)

    # NumPy reads [1.0, True] as [1.0, 1.0], so list and tuple input is
    # scanned for bools, nested lists included; an array is not
    @pytest.mark.parametrize("values, entry", [
        ([1.0, True], True), ((2, np.False_), np.False_), ([[1.0, 2.0], (3.0, False)], False),
        ([[[0.5]], [[True]]], True),
    ], ids=repr)
    def test_a_list_that_mixes_a_bool_with_numbers_is_rejected(self, values, entry):
        with _raises_exactly(f"x must be a real array, got bool entry {entry!r}"):
            graphs_mod.require_real_array("x", values)

    def test_nested_lists_of_numbers_pass(self):
        assert graphs_mod.require_real_array("x", [[1, 2.5], (3, 4)]).tolist() == [[1, 2.5], [3, 4]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finiteness_is_checked_only_when_asked(self, bad):
        arr = np.array([1.0, bad, 2.0])
        assert graphs_mod.require_real_array("x", arr) is arr
        with _raises_exactly(f"x must be finite, got {bad!r}"):
            graphs_mod.require_real_array("x", arr, finite=True)


@pytest.mark.parametrize("kind", list(NOT_REAL))
@pytest.mark.parametrize("site", list(ARRAY_SITES))
def test_an_array_that_is_not_real_is_rejected_before_any_work(monkeypatch, site, kind):
    good, call, field, work = ARRAY_SITES[site]
    bad = NOT_REAL[kind](good)
    started = _spy(monkeypatch, work)
    with _raises_exactly(f"{field} must be a real array, got dtype {bad.dtype}"):
        call(bad)
    assert started == []


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float32])
@pytest.mark.parametrize("site", list(ARRAY_SITES))
def test_int_and_float32_arrays_give_the_bytes_of_their_float64_cast(site, dtype):
    good, call, _, _ = ARRAY_SITES[site]
    if np.dtype(dtype).kind == "f":
        value = good.astype(dtype)
    else:  # small positive integers suit every site (a log, a lambda, a logit)
        value = (np.arange(good.size) % 3 + 1).reshape(good.shape).astype(dtype)
    assert pickle.dumps(call(value)) == pickle.dumps(call(value.astype(np.float64)))


def test_a_checkpoint_that_is_not_real_is_never_written(tmp_path):
    path = tmp_path / "checkpoint.json"
    for bad in NOT_REAL.values():
        with pytest.raises(ValueError, match="^param 'embed' must be a real array"):
            save_checkpoint(path, CONFIG, {**PARAMS, "embed": bad(PARAMS["embed"])})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("param, dtype", [("[true, false]", "bool"), ('["1.5"]', "<U3"),
                                          ("[null, 1.0]", "object"), ("null", "object"),
                                          ("[1.0, [2.0]]", "object"), ('{"a": 1}', "object")])
def test_a_loaded_param_that_is_not_real_is_rejected(tmp_path, param, dtype):
    path = tmp_path / "checkpoint.json"
    path.write_text(f'{{"version": 2, "config": {{}}, "params": {{"w": {param}}}}}')
    with _raises_exactly(f"checkpoint param 'w' must be a real array, got dtype {dtype}"):
        load_checkpoint(path)


@pytest.mark.parametrize("param, entry", [("[1.0, true]", "True"), ("[[0, 1], [false, 2]]", "False")])
def test_a_loaded_param_that_mixes_a_bool_with_numbers_is_rejected(tmp_path, param, entry):
    path = tmp_path / "checkpoint.json"
    path.write_text(f'{{"version": 2, "config": {{}}, "params": {{"w": {param}}}}}')
    with _raises_exactly(f"checkpoint param 'w' must be a real array, got bool entry {entry}"):
        load_checkpoint(path)


def test_loaded_integers_give_the_bytes_of_floats(tmp_path):
    path = tmp_path / "checkpoint.json"
    loaded = []
    for values in ([1, 2, 3], [1.0, 2.0, 3.0]):
        path.write_text(json.dumps({"version": 2, "config": {}, "params": {"w": values}}))
        loaded.append(pickle.dumps(load_checkpoint(path)[1]))
    assert loaded[0] == loaded[1]


def _state():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = init_train_state(params)
    state.grads["w"][...] = [0.5, -0.25, 1.0]
    return state


def _adam(lr):
    return adam_step(_state(), lr).params["w"]


def _train(lr):
    cfg = TrainConfig(d=4, k=1, layers=1, ffn_mult=1, vocab=5, n=4, steps=3, lr=lr)
    result = train_loop(build_model(4, 1, 1, 1, 5, seed=0), cfg)
    return metrics_csv(result.records), result.final_val_loss


def _masks(rate):
    spec = TaskSpec("masked_recovery", 24, 16, rate)
    return [gen_task_batch(spec, seed).mask.tobytes() for seed in range(8)]


def _grad_check(**kwargs):
    return [(e.name, e.max_rel_err) for e in grad_check("filter", **kwargs).entries]


# every site that takes a real scalar: (a valid value, an integer that is
# valid there or None, a call with the value in the checked field, its
# name, its bound, the work that must not start before the check or None)
SCALAR_SITES = {
    "ScheduleConfig-base_lr": (1e-3, 1, lambda v: [lr_at(ScheduleConfig(v, 10), s)
                                                  for s in (3, 10, 40)],
                               "base_lr", ">= 0", None),
    "TrainConfig-lr": (1e-2, 0, _train, "lr", ">= 0", (training_mod, "parse_mix_mode")),
    "adam_step-lr": (1e-2, 1, _adam, "lr", ">= 0", (np, "sqrt")),
    "TaskSpec-mask_rate": (0.3, None, _masks, "mask_rate", "in (0, 1)", None),
    "grad_check-step": (1e-5, 1, lambda v: _grad_check(step=v), "step", "> 0",
                        (training_mod, "_fd_check")),
    "grad_check-tol": (1e-4, 0, lambda v: grad_check("filter", tol=v).passed, "tol", ">= 0",
                       (training_mod, "_fd_check")),
}

# the parent took a nan adam_step rate, setting every parameter to nan
NOT_A_NUMBER = [True, "0.5", None, 0.5 + 0j, np.complex128(0.5), float("nan"), float("inf"),
                np.float64("-inf"), -1]


@pytest.mark.parametrize("value", NOT_A_NUMBER, ids=repr)
@pytest.mark.parametrize("site", list(SCALAR_SITES))
def test_a_scalar_that_is_not_a_finite_number_is_rejected_before_any_work(monkeypatch, site,
                                                                           value):
    _, _, call, what, bound, work = SCALAR_SITES[site]
    started = _spy(monkeypatch, work)
    with _raises_exactly(f"{what} must be a finite number {bound}, got {value!r}"):
        call(value)
    assert started == []


@pytest.mark.parametrize("site", list(SCALAR_SITES))
def test_int_and_float32_scalars_give_the_bytes_of_their_float64_cast(site):
    good, integer, call, _, _, _ = SCALAR_SITES[site]
    for value in [np.float32(good)] + ([] if integer is None else [integer, np.int32(integer)]):
        assert pickle.dumps(call(value)) == pickle.dumps(call(float(value))), value


def test_a_rejected_adam_rate_leaves_the_state_as_it_was():
    state = _state()
    with _raises_exactly("lr must be a finite number >= 0, got nan"):
        adam_step(state, float("nan"))
    assert state.step == 0 and state.params["w"].tolist() == [1.0, -2.0, 3.0]
    assert state.grads["w"].tolist() == [0.5, -0.25, 1.0]
