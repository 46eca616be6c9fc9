"""The benchmark in perfbench/ drives gwmixer through its public names
(gw.<name> in perfbench/workload.py), times it by rebinding functions it
names (perfbench/layers.py TARGETS) and clocks optimizer steps by
wrapping training.task_stream and training.adam_step. These tests keep
those names alive, so that a refactor cannot silently break the
benchmark, the traced run or the step timing."""

import ast
import os

import pytest

import gwmixer
import gwmixer.blocks as blocks_mod
import gwmixer.training as training_mod
from gwmixer import TrainConfig, build_model

LAYERS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")


def targets():
    with open(LAYERS_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(module, fn) for module, fn, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/layers.py defines no TARGETS")


STEP_HOOKS = [("training", "task_stream"), ("training", "adam_step")]

WORKLOAD_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workload.py")


def workload_calls():
    """Every gw.<name> that perfbench/workload.py reads (gw is gwmixer)."""
    with open(WORKLOAD_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "gw"})


def test_workload_calls_found():
    assert {"model_from_params", "load_checkpoint", "train_loop"} <= set(workload_calls())


@pytest.mark.parametrize("name", workload_calls())
def test_workload_call_is_exported(name):
    assert hasattr(gwmixer, name), f"gwmixer.{name}"


@pytest.mark.parametrize("module, fn", targets() + STEP_HOOKS)
def test_named_function_is_defined(module, fn):
    owner = getattr(gwmixer, module)
    cls_name, _, name = fn.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
        assert name in vars(owner), f"{module}.{fn}"
    assert callable(getattr(owner, name)), f"{module}.{fn}"


def test_train_loop_calls_step_hooks_through_module_globals(monkeypatch):
    streams, steps = [], []
    task_stream = training_mod.task_stream
    adam_step = training_mod.adam_step

    def stream_spy(spec, seed, stream="train"):
        streams.append(stream)
        return task_stream(spec, seed, stream)

    def adam_spy(*args, **kwargs):
        steps.append(1)
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(training_mod, "task_stream", stream_spy)
    monkeypatch.setattr(training_mod, "adam_step", adam_spy)
    cfg = TrainConfig(d=4, k=2, layers=1, ffn_mult=2, vocab=8, task="copy", n=6, steps=5,
                      accum=3)
    gwmixer.train_loop(build_model(cfg.d, cfg.k, cfg.layers, cfg.ffn_mult, cfg.vocab), cfg)
    assert streams.count("train") == 1
    assert len(steps) == cfg.steps


def test_each_step_pulls_accum_samples_before_its_adam_step(monkeypatch):
    # perfbench's StepClock counts a step's tokens from the samples pulled
    # between one adam_step and the next
    events = []
    task_stream = training_mod.task_stream
    adam_step = training_mod.adam_step

    def stream_spy(spec, seed, stream="train"):
        inner = task_stream(spec, seed, stream)
        if stream != "train":
            return inner

        def pulls():
            for sample in inner:
                events.append("pull")
                yield sample
        return pulls()

    def adam_spy(*args, **kwargs):
        events.append("adam")
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(training_mod, "task_stream", stream_spy)
    monkeypatch.setattr(training_mod, "adam_step", adam_spy)
    cfg = TrainConfig(d=4, k=2, layers=1, ffn_mult=2, vocab=8, task="copy", n=6, steps=4,
                      accum=3)
    gwmixer.train_loop(build_model(cfg.d, cfg.k, cfg.layers, cfg.ffn_mult, cfg.vocab), cfg)
    assert events == (["pull"] * cfg.accum + ["adam"]) * cfg.steps


@pytest.mark.parametrize("return_tape", [False, True])
def test_batch_forward_calls_layer_forward_through_the_module_global(monkeypatch, return_tape):
    # perfbench times blocks.layer{i}.fwd_ms by rebinding blocks.layer_forward
    # and numbering its calls within a forward
    calls = []
    layer_forward = blocks_mod.layer_forward

    def spy(*args, **kwargs):
        calls.append(1)
        return layer_forward(*args, **kwargs)

    monkeypatch.setattr(blocks_mod, "layer_forward", spy)
    model = build_model(4, 2, 3, 2, 7)
    graph = gwmixer.build_chain_graph(5)
    _, tape = blocks_mod.batch_forward(model, [graph, graph], [range(5)] * 2,
                                       gwmixer.MixMode.exact(), return_tape=return_tape)
    assert len(calls) == len(model.layers)
    assert (tape is not None) == return_tape


def test_model_backward_calls_the_mix_backward_through_the_module_global(monkeypatch):
    # perfbench times filterbank.mix_bwd_ms by rebinding wavelet_mix_backward
    # in every module that binds it, blocks included
    tapes = []
    mix_backward = blocks_mod.wavelet_mix_backward

    def spy(bank, tape, upstream):
        tapes.append(tape)
        return mix_backward(bank, tape, upstream)

    monkeypatch.setattr(blocks_mod, "wavelet_mix_backward", spy)
    model = build_model(4, 2, 3, 2, 7)
    graph = gwmixer.build_chain_graph(5)
    logits, tape = blocks_mod.batch_forward(model, [graph, graph], [range(5)] * 2,
                                            gwmixer.MixMode.exact(), return_tape=True)
    blocks_mod.model_backward(model, tape, logits)
    assert len(tapes) == len(model.layers)
    assert all(a is b.mix for a, b in zip(tapes, reversed(tape.layer_tapes), strict=True))
