"""One integer rule: every size, count and index the package takes is
checked by graphs.require_int, so a bad one raises ValueError
"<what> must be an integer >= <low>, got <value!r>" before any work is
done: nothing drawn, solved, evaluated or timed. Every seed is such an
integer (>= 0). Arrays of token ids, targets and sample sizes, and masks,
answer to the one array rule (graphs._require_array, through
require_int_array for the integer ones): an integer dtype (a bool one for
a mask) or a ValueError naming the field, never a cast. A ragged nesting
reads as dtype object, and a list or tuple that holds a bool among
numbers is rejected."""

import re

import numpy as np
import pytest

import gwmixer.bench as bench_mod
import gwmixer.blocks as blocks_mod
import gwmixer.filterbank as filterbank_mod
import gwmixer.graphs as graphs_mod
import gwmixer.spectral as spectral_mod
import gwmixer.tasks as tasks_mod
from gwmixer import (
    MixMode,
    ScheduleConfig,
    SpectrumCache,
    TaskSpec,
    bench_scaling,
    build_chain_graph,
    build_filter_bank,
    build_model,
    cross_entropy_loss,
    eigendecompose,
    fixed_samples,
    gen_task_batch,
    grad_check,
    lr_at,
    make_attention_params,
    model_forward,
    normalized_laplacian,
    spectrum_csv,
    task_stream,
    token_accuracy,
)
from gwmixer.blocks import batch_forward
from gwmixer.graphs import require_int

SPEC = TaskSpec("copy", 4, 8)
BANK = build_filter_bank(2, 1)
LAP = normalized_laplacian(build_chain_graph(6))
# every solver that could run for LAP (a 6-chain takes the bipartite SVD)
SOLVERS = [(spectral_mod, "_dense_eigh"), (spectral_mod, "_bipartite_pairs")]


def _message(what, low, value):
    return f"{what} must be an integer >= {low}, got {value!r}"


class TestRequireInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_integers_accepted_as_int(self, value):
        assert type(require_int("x", value, 1)) is int
        assert require_int("x", value, 3) == 3

    @pytest.mark.parametrize("value", [True, False, 3.0, np.float64(3), "3", None, [3], 2])
    def test_rejected_with_one_message(self, value):
        with pytest.raises(ValueError, match=f"^{re.escape(_message('x', 3, value))}$"):
            require_int("x", value, 3)


def _build_model(**bad):
    return lambda: build_model(**{"d": 4, "k": 2, "layers": 1, "ffn_mult": 2, "vocab": 8, **bad})


# (call, the work it must not start as (module, name) or None, expected message)
DEFECTS = {
    "build_model-layers-True": (_build_model(layers=True), (np.random, "default_rng"),
                                "layers must be an integer >= 1, got True"),
    "build_model-ffn_mult-True": (_build_model(ffn_mult=True), (np.random, "default_rng"),
                                  "ffn_mult must be an integer >= 1, got True"),
    "build_model-d-2.5": (_build_model(d=2.5), (np.random, "default_rng"),
                          "d must be an integer >= 1, got 2.5"),
    "build_model-k-2.5": (_build_model(k=2.5), (np.random, "default_rng"),
                          "k must be an integer >= 1, got 2.5"),
    "build_model-vocab-8.0": (_build_model(vocab=8.0), (np.random, "default_rng"),
                              "vocab must be an integer >= 2, got 8.0"),
    "build_filter_bank-k-2.5": (lambda: build_filter_bank(2.5, 3),
                                (filterbank_mod, "draw_filter_bank"),
                                "k must be an integer >= 1, got 2.5"),
    "build_filter_bank-k-True": (lambda: build_filter_bank(True, 3),
                                 (filterbank_mod, "draw_filter_bank"),
                                 "k must be an integer >= 1, got True"),
    "build_filter_bank-d-2.5": (lambda: build_filter_bank(2, 2.5),
                                (filterbank_mod, "draw_filter_bank"),
                                "d must be an integer >= 1, got 2.5"),
    "fixed_samples-count-2.5": (lambda: fixed_samples(SPEC, 0, 2.5),
                                (tasks_mod, "gen_task_batch"),
                                "count must be an integer >= 0, got 2.5"),
    "spectrum_csv-samples-2.5": (lambda: spectrum_csv(BANK, samples=2.5),
                                 (filterbank_mod, "bank_responses"),
                                 "samples must be an integer >= 2, got 2.5"),
    "eigendecompose-m-True": (lambda: eigendecompose(LAP, m=True), SOLVERS,
                              "m must be an integer >= 1, got True"),
    "eigendecompose-m-2.5": (lambda: eigendecompose(LAP, m=2.5), SOLVERS,
                             "m must be an integer >= 1, got 2.5"),
    "bench_scaling-sizes-8.9": (lambda: bench_scaling(sizes=(8.9, 16), modes=("exact",)),
                                (bench_mod, "_time_call"),
                                "sizes[0] must be an integer >= 1, got 8.9"),
    "bench_scaling-sizes-True": (lambda: bench_scaling(sizes=(True, 16), modes=("exact",)),
                                 (bench_mod, "_time_call"),
                                 "sizes[0] must be an integer >= 1, got True"),
    "bench_scaling-repeats-2.5": (lambda: bench_scaling(sizes=(8, 16), modes=("exact",),
                                                        repeats=2.5),
                                  (bench_mod, "_time_call"),
                                  "repeats must be an integer >= 1, got 2.5"),
    "build_chain_graph-n-2.5": (lambda: build_chain_graph(2.5), (graphs_mod, "TokenGraph"),
                                "n must be an integer >= 1, got 2.5"),
    "build_chain_graph-n-[3]": (lambda: build_chain_graph([3]), (graphs_mod, "TokenGraph"),
                                "n must be an integer >= 1, got [3]"),
    "build_chain_graph-n-'3'": (lambda: build_chain_graph("3"), (graphs_mod, "TokenGraph"),
                                "n must be an integer >= 1, got '3'"),
    "build_chain_graph-n-None": (lambda: build_chain_graph(None), (graphs_mod, "TokenGraph"),
                                 "n must be an integer >= 1, got None"),
    "lr_at-step-2.5": (lambda: lr_at(ScheduleConfig(), 2.5), None,
                       "step must be an integer >= 1, got 2.5"),
    "ScheduleConfig-warmup_steps-2.5": (lambda: ScheduleConfig(5e-4, 2.5), None,
                                        "warmup_steps must be an integer >= 1, got 2.5"),
    "ScheduleConfig-warmup_steps-0": (lambda: ScheduleConfig(5e-4, 0), None,
                                      "warmup_steps must be an integer >= 1, got 0"),
    "cross_entropy_loss-sizes-2.7": (lambda: cross_entropy_loss(
        np.zeros((4, 3)), [0, 1, 2, 0], np.ones(4, dtype=bool), [2.7, 2.2]), (np, "exp"),
        "sample sizes must be an integer array, got dtype float64"),
    "cross_entropy_loss-sizes-True": (lambda: cross_entropy_loss(
        np.zeros((4, 3)), [0, 1, 2, 0], np.ones(4, dtype=bool), [True] * 4), (np, "exp"),
        "sample sizes must be an integer array, got dtype bool"),
    "cross_entropy_loss-sizes-ragged": (lambda: cross_entropy_loss(
        np.zeros((4, 3)), [0, 1, 2, 0], np.ones(4, dtype=bool), [[2], [1, 1]]), (np, "exp"),
        "sample sizes must be an integer array, got dtype object"),
    # a float or int mask is not cast: 0.2 and 2 would score their rows
    "cross_entropy_loss-mask-0.2": (lambda: cross_entropy_loss(
        np.zeros((3, 4)), [0, 1, 2], [0.2, 0, 0]), (np, "exp"),
        "mask must be a bool array, got dtype float64"),
    "token_accuracy-mask-2": (lambda: token_accuracy(np.zeros((3, 4)), [0, 1, 2], [2, 0, 0]),
                              (np, "argmax"), "mask must be a bool array, got dtype int64"),
    "cross_entropy_loss-mask-ragged": (lambda: cross_entropy_loss(
        np.zeros((3, 4)), [0, 1, 2], [[True], [True, False]]), (np, "exp"),
        "mask must be a bool array, got dtype object"),
    "token_accuracy-mask-ragged": (lambda: token_accuracy(
        np.zeros((3, 4)), [0, 1, 2], [[True], [True, False]]), (np, "argmax"),
        "mask must be a bool array, got dtype object"),
    "build_model-seed--1": (_build_model(seed=-1), (np.random, "default_rng"),
                            "seed must be an integer >= 0, got -1"),
    "build_model-seed-1.5": (_build_model(seed=1.5), (np.random, "default_rng"),
                             "seed must be an integer >= 0, got 1.5"),
    "build_filter_bank-seed-True": (lambda: build_filter_bank(2, 3, seed=True),
                                    (filterbank_mod, "draw_filter_bank"),
                                    "seed must be an integer >= 0, got True"),
    "make_attention_params-seed--1": (lambda: make_attention_params(4, seed=-1),
                                      (np.random, "default_rng"),
                                      "seed must be an integer >= 0, got -1"),
    "make_attention_params-d-2.5": (lambda: make_attention_params(2.5),
                                    (np.random, "default_rng"),
                                    "d must be an integer >= 1, got 2.5"),
    "make_attention_params-d-True": (lambda: make_attention_params(True),
                                     (np.random, "default_rng"),
                                     "d must be an integer >= 1, got True"),
    "grad_check-seed-True": (lambda: grad_check(seed=True), (np.random, "default_rng"),
                             "seed must be an integer >= 0, got True"),
    "bench_scaling-seed-1.5": (lambda: bench_scaling(sizes=(8, 16), modes=("exact",), seed=1.5),
                               (bench_mod, "_time_call"),
                               "seed must be an integer >= 0, got 1.5"),
    "task_stream-seed--1": (lambda: task_stream(SPEC, -1), (tasks_mod, "gen_task_batch"),
                            "seed must be an integer >= 0, got -1"),
    "task_stream-stream-'nope'": (lambda: task_stream(SPEC, 0, "nope"),
                                  (tasks_mod, "gen_task_batch"),
                                  "stream must be one of train, val, eval, got 'nope'"),
    "fixed_samples-seed-2.5": (lambda: fixed_samples(SPEC, 2.5, 2), (tasks_mod, "gen_task_batch"),
                               "seed must be an integer >= 0, got 2.5"),
    "fixed_samples-stream-'nope'": (lambda: fixed_samples(SPEC, 0, 2, "nope"),
                                    (tasks_mod, "gen_task_batch"),
                                    "stream must be one of train, val, eval, got 'nope'"),
    "gen_task_batch-seed--1": (lambda: gen_task_batch(SPEC, -1), (np.random, "default_rng"),
                               "seed must be an integer >= 0, got -1"),
    "gen_task_batch-seed-True": (lambda: gen_task_batch(SPEC, True), (np.random, "default_rng"),
                                 "seed must be an integer >= 0, got True"),
}


@pytest.mark.parametrize("case", list(DEFECTS))
def test_rejected_before_any_work(monkeypatch, case):
    call, work, message = DEFECTS[case]
    started = []
    targets = [] if work is None else work if isinstance(work, list) else [work]
    for target in targets:
        monkeypatch.setattr(*target, lambda *args, **kwargs: started.append(args))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    assert started == []


@pytest.mark.parametrize("n, bad", [(1, True), (4, 4.0), (4, np.float64(4))])
def test_chain_memo_never_answers_a_non_integer(n, bad):
    build_chain_graph(n)  # an entry for the integer length
    with pytest.raises(ValueError, match=f"^{re.escape(_message('n', 1, bad))}$"):
        build_chain_graph(bad)




# token ids and targets are integer arrays: a bool, float or string array is
# not cast (1.7 would become 1) but rejected before any spectrum or layer
# work, and so is a ragged nesting, which NumPy cannot read as one array
NOT_INTEGER = [pytest.param(values, dtype, id=repr(values)) for values, dtype in [
    ([0.0, 1.7, 2.2], "float64"), ([True, False, True], "bool"), (["1", "2", "3"], "<U1"),
    (np.array([0.0, 1.0, 2.0]), "float64"), ([[0, 1], [2]], "object"),
    ([0, [1, 2], 2], "object")]]


@pytest.mark.parametrize("ids, dtype", NOT_INTEGER)
def test_token_ids_must_be_an_integer_array(monkeypatch, ids, dtype):
    started = []
    monkeypatch.setattr(SpectrumCache, "get_or_compute", lambda *a: started.append(a))
    monkeypatch.setattr(blocks_mod, "layer_forward", lambda *a: started.append(a))
    model = build_model(4, 2, 1, 2, 7)
    chain = build_chain_graph(3)
    message = f"token ids must be an integer array, got dtype {dtype}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        model_forward(model, chain, ids, MixMode.exact())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        batch_forward(model, [chain, chain], [[0, 1, 2], ids], MixMode.exact())
    assert started == []


@pytest.mark.parametrize("targets, dtype", NOT_INTEGER)
def test_targets_must_be_an_integer_array(monkeypatch, targets, dtype):
    started = []
    for work in ("exp", "argmax"):
        monkeypatch.setattr(np, work, lambda *a, **k: started.append(a))
    logits = np.zeros((3, 4))
    message = f"targets must be an integer array, got dtype {dtype}"
    for score in (cross_entropy_loss, token_accuracy):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            score(logits, targets, np.ones(3, dtype=bool))
    assert started == []


# NumPy reads a list that mixes a bool with integers as integers ([0, True,
# 2] as [0, 1, 2]), so list and tuple input is scanned for bools, nested
# lists included; an array is not
MIXED_BOOL = [([0, True, 2], True), ((0, 1, np.True_), np.True_), ([[0, 1], [False, 2]], False)]


@pytest.mark.parametrize("values, entry", MIXED_BOOL, ids=repr)
def test_a_list_that_mixes_a_bool_with_integers_is_rejected(values, entry):
    message = f"ids must be an integer array, got bool entry {entry!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        graphs_mod.require_int_array("ids", values)


def test_mixed_bool_ids_and_targets_are_rejected_before_any_work(monkeypatch):
    started = []
    monkeypatch.setattr(SpectrumCache, "get_or_compute", lambda *a: started.append(a))
    model = build_model(4, 2, 1, 2, 7)
    with pytest.raises(ValueError, match="^token ids must be an integer array, got bool entry True$"):
        model_forward(model, build_chain_graph(3), [0, True, 2], MixMode.exact())
    for score in (cross_entropy_loss, token_accuracy):
        with pytest.raises(ValueError, match="^targets must be an integer array, got bool entry True$"):
            score(np.zeros((3, 4)), [0, True, 2], np.ones(3, dtype=bool))
    assert started == []


def test_nested_lists_of_integers_pass():
    assert graphs_mod.require_int_array("ids", [[0, 1], (2, 3)]).tolist() == [[0, 1], [2, 3]]


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_numpy_integer_ids_and_targets_pass(dtype):
    model = build_model(4, 2, 1, 2, 7)
    ids = np.array([0, 1, 2], dtype=dtype)
    logits, _ = model_forward(model, build_chain_graph(3), ids, MixMode.exact())
    want, _ = model_forward(model, build_chain_graph(3), [0, 1, 2], MixMode.exact())
    assert np.array_equal(logits, want)
    assert cross_entropy_loss(logits, ids, np.ones(3, dtype=bool))[0] == \
        cross_entropy_loss(logits, [0, 1, 2], np.ones(3, dtype=bool))[0]


def test_a_seed_sequence_still_seeds_one_sample():
    # task_stream draws each sample from a SeedSequence; only int seeds are checked
    seq = np.random.SeedSequence(entropy=3, spawn_key=(0, 0))
    want = next(task_stream(SPEC, 3))
    got = gen_task_batch(SPEC, seq)
    assert np.array_equal(got.tokens, want.tokens) and np.array_equal(got.mask, want.mask)
