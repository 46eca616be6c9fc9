"""Optimizer, loss, schedule, config plumbing, and the training loop."""

import dataclasses
import math
import os
import re

import numpy as np
import pytest

from gwmixer import (
    MixMode,
    ScheduleConfig,
    TokenGraph,
    TrainConfig,
    adam_step,
    build_model,
    cross_entropy_loss,
    evaluate,
    fixed_samples,
    grad_check,
    init_train_state,
    load_checkpoint,
    lr_at,
    metrics_csv,
    model_backward,
    model_forward,
    model_params,
    save_checkpoint,
    task_stream,
    to_conllu,
    token_accuracy,
    train_loop,
)
from gwmixer.blocks import batch_forward
from gwmixer.spectral import SpectrumCache, parse_mix_mode
import gwmixer.training as training_mod
from gwmixer.training import FD_FLOOR, VAL_BATCHES, VAL_INTERVAL, StepRecord


class TestSchedule:
    def test_peak_at_warmup_boundary(self):
        cfg = ScheduleConfig()
        assert lr_at(cfg, 4000) == 5e-4

    def test_linear_warmup_value(self):
        assert lr_at(ScheduleConfig(), 2000) == 2.5e-4

    def test_inverse_sqrt_decay_value(self):
        # sqrt(4000/16000) = 0.5 exactly
        assert lr_at(ScheduleConfig(), 16000) == 2.5e-4

    def test_continuous_at_boundary(self):
        cfg = ScheduleConfig(base_lr=3e-4, warmup_steps=777)
        warm = cfg.base_lr * cfg.warmup_steps / cfg.warmup_steps
        decay = cfg.base_lr * np.sqrt(cfg.warmup_steps / cfg.warmup_steps)
        assert abs(warm - decay) <= 1e-15
        assert lr_at(cfg, cfg.warmup_steps) == pytest.approx(cfg.base_lr, abs=1e-15)

    def test_monotone_shape(self):
        cfg = ScheduleConfig(base_lr=1e-3, warmup_steps=100)
        ramp = [lr_at(cfg, s) for s in range(1, 101)]
        tail = [lr_at(cfg, s) for s in range(100, 400)]
        assert all(b > a for a, b in zip(ramp, ramp[1:]))
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_at(ScheduleConfig(), 0)

    @pytest.mark.parametrize("base_lr", [float("nan"), float("inf"), -1e-3, "1e-3", True, None])
    def test_base_lr_follows_the_train_config_lr_rule(self, base_lr):
        with pytest.raises(ValueError, match="^base_lr must be "):
            ScheduleConfig(base_lr=base_lr)
        with pytest.raises(ValueError, match="^lr must be "):
            TrainConfig(lr=base_lr)

    @pytest.mark.parametrize("warmup_steps", [0, -4, 2.5, True, "100", None])
    def test_warmup_steps_must_be_an_integer_of_at_least_one(self, warmup_steps):
        message = f"warmup_steps must be an integer >= 1, got {warmup_steps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScheduleConfig(5e-4, warmup_steps)

    def test_zero_rate_and_numpy_integers_are_accepted(self):
        assert lr_at(ScheduleConfig(0.0, 10), 5) == 0.0
        assert lr_at(ScheduleConfig(1, np.int64(10)), 5) == 0.5


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([0.0, 0.0])}
        state = init_train_state(params)
        state.grads["w"][:] = [1.0, -2.0]
        adam_step(state, lr=0.01)
        # bias correction makes the first update lr * sign(g) (up to eps)
        assert params["w"] == pytest.approx([-0.01, 0.01], rel=1e-6)
        assert state.step == 1
        assert np.all(state.grads["w"] == 0.0)

    def test_matches_reference_trace(self):
        rng = np.random.default_rng(0)
        p0 = rng.standard_normal(5)
        params = {"w": p0.copy()}
        state = init_train_state(params)

        ref = p0.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        for t in range(1, 8):
            g = np.sin(t + np.arange(5.0))
            state.grads["w"][:] = g
            adam_step(state, lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            ref = ref - lr * mhat / (np.sqrt(vhat) + eps)
            assert params["w"] == pytest.approx(ref, abs=1e-12), t

    def test_nonfinite_grad_names_tensor(self):
        params = {"a": np.zeros(2), "bad": np.zeros(2)}
        state = init_train_state(params)
        state.grads["bad"][0] = np.nan
        with pytest.raises(ValueError, match="bad"):
            adam_step(state, lr=0.01)

    # adam_step updates params in place, so a param it could not update
    # (a list, an int or float32 array, a read-only array) is rejected when
    # the state is made, before any moment or gradient is touched
    @pytest.mark.parametrize("param, got", [
        ([0.0, 1.0], "list"), (np.zeros(2, dtype=np.int64), "int64 array"),
        (np.zeros(2, dtype=np.float32), "float32 array"), (2.0, "float"),
        (np.broadcast_to(np.zeros(1), 2), "read-only float64 array")], ids=repr)
    def test_a_param_adam_cannot_update_is_rejected(self, param, got):
        with pytest.raises(ValueError, match=f"^param 'a' must be a writable float64 array, "
                                             f"got {got}$"):
            init_train_state({"w": np.zeros(3), "a": param})

    def test_updates_params_in_place(self):
        arr = np.ones(3)
        state = init_train_state({"w": arr})
        state.grads["w"][:] = 1.0
        adam_step(state, lr=0.5)
        assert arr[0] != 1.0  # the caller's array moved


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = np.zeros((5, 11))
        targets = np.arange(5) % 11
        mask = np.ones(5, dtype=bool)
        loss, _ = cross_entropy_loss(logits, targets, mask)
        assert loss == pytest.approx(np.log(11), abs=1e-15)

    def test_confident_logits_near_zero_loss(self):
        logits = np.zeros((4, 7))
        targets = np.array([1, 3, 0, 6])
        logits[np.arange(4), targets] = 50.0
        loss, _ = cross_entropy_loss(logits, targets, np.ones(4, dtype=bool))
        assert loss <= 1e-20

    def test_large_logits_stable(self):
        logits = np.full((3, 5), 1e4)
        loss, grad = cross_entropy_loss(logits, [0, 1, 2], np.ones(3, dtype=bool))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))
        assert loss == pytest.approx(np.log(5), abs=1e-12)

    def test_grad_formula(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 9))
        targets = rng.integers(9, size=6)
        mask = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        _, grad = cross_entropy_loss(logits, targets, mask)
        ez = np.exp(logits - logits.max(axis=1, keepdims=True))
        soft = ez / ez.sum(axis=1, keepdims=True)
        expected = soft.copy()
        expected[np.arange(6), targets] -= 1.0
        expected *= mask[:, None] / mask.sum()
        assert np.allclose(grad, expected, atol=1e-15)
        assert np.all(grad[~mask] == 0.0)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 6))
        targets = rng.integers(6, size=4)
        mask = np.array([True, True, False, True])
        _, grad = cross_entropy_loss(logits, targets, mask)
        eps = 1e-6
        for idx in np.ndindex(logits.shape):
            up = logits.copy()
            up[idx] += eps
            dn = logits.copy()
            dn[idx] -= eps
            lu, _ = cross_entropy_loss(up, targets, mask)
            ld, _ = cross_entropy_loss(dn, targets, mask)
            assert grad[idx] == pytest.approx((lu - ld) / (2 * eps), abs=1e-6)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            cross_entropy_loss(np.zeros((3, 4)), [0, 1, 2], np.zeros(3, dtype=bool))

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            cross_entropy_loss(np.zeros((2, 4)), [0, 4], np.ones(2, dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            cross_entropy_loss(np.zeros((3, 4)), [0, 1], np.ones(3, dtype=bool))


class TestTokenAccuracy:
    def test_counts_only_scored_positions(self):
        logits = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [9.0, 0.0]])
        targets = np.array([1, 1, 1, 0])
        mask = np.array([True, True, False, True])
        # scored: hit, miss, hit -> 2/3
        assert token_accuracy(logits, targets, mask) == pytest.approx(2 / 3)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="^mask scores no positions$"):
            token_accuracy(np.zeros((3, 4)), [0, 1, 2], np.zeros(3, dtype=bool))

    def test_mask_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="^shape mismatch: "):
            token_accuracy(np.zeros((3, 4)), [0, 1, 2], np.ones(2, dtype=bool))


class TestTrainConfig:
    def test_round_trip(self):
        cfg = TrainConfig(d=8, k=1, steps=7, task="reverse", mask_rate=0.4)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            TrainConfig.from_dict({"d": 8, "bogus": 1})

    def test_mix_mode_mapping(self):
        assert TrainConfig(mode="exact").mix_mode() == MixMode.exact()
        assert TrainConfig(mode="truncated:5").mix_mode() == MixMode.truncated(5)
        assert TrainConfig(mode="chebyshev:9").mix_mode() == MixMode.chebyshev(9)
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="nearest").mix_mode()

    def test_task_spec_wiring(self):
        spec = TrainConfig(task="masked_recovery", n=24, vocab=40, mask_rate=0.5).task_spec()
        assert (spec.task, spec.n, spec.vocab, spec.mask_rate) == ("masked_recovery", 24, 40, 0.5)
        assert spec.conllu is None  # a chain graph
        spec2 = TrainConfig(conllu="trees.conllu").task_spec()
        assert spec2.conllu == "trees.conllu"


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field, value", [
        *((f, v) for f in ("d", "k", "layers", "steps", "accum", "seed", "mode")
          for v in ("32", 2.0, True, None)),
        ("d", 0), ("k", 0), ("layers", 0), ("ffn_mult", 0), ("steps", 0), ("steps", -5),
        ("accum", 0), ("patience", 0), ("warmup", 0), ("vocab", 1), ("n", 1), ("seed", -1),
        ("mode", "chebyshev:-1"), ("mode", "truncated:0"), ("mode", "truncated:x"),
        ("mode", "exact:4"), ("mode", "exact:"), ("mode", "truncated:"), ("mode", "chebyshev:"),
        ("mode", "truncated:+5"), ("mode", "truncated:1_6"), ("mode", "truncated: 5"),
        ("lr", float("nan")), ("lr", float("inf")), ("lr", -1e-3), ("lr", "1e-3"), ("lr", True),
        ("mask_rate", 0.0), ("mask_rate", 1.0), ("mask_rate", -0.5), ("mask_rate", "0.5"),
        ("task", "nope"), ("task", None), ("mode", "bogus"), ("mode", 3), ("conllu", 5),
        ("conllu", ""),
    ])
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} "):
            TrainConfig.from_dict({field: value})

    def test_trunc_m_above_n_rejected_for_chain_tasks(self):
        with pytest.raises(ValueError, match="^mode .*n=8"):
            TrainConfig(mode="truncated:9", n=8)
        TrainConfig(mode="truncated:8", n=8)
        TrainConfig(mode="truncated:9", n=8, conllu="trees.conllu")

    def test_frozen_after_validation(self):
        cfg = TrainConfig(mode="truncated:8", n=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mode = "truncated:99"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.accum = 0
        assert (cfg.mode, cfg.accum) == ("truncated:8", 1)

    @pytest.mark.parametrize("text", [
        "exact", "truncated", "truncated:4", "chebyshev", "chebyshev:0", "chebyshev:30",
        "", "exact:", "exact:4", "truncated:", "truncated:0", "truncated:-2", "chebyshev:-1",
        "chebyshev:1.5", "Exact", "nearest:2", "truncated:+5", "truncated:1_6", "truncated: 5",
        "truncated:05",
    ])
    def test_mode_accepts_exactly_what_parse_mix_mode_accepts(self, text):
        try:
            expected = parse_mix_mode(text)
        except ValueError:
            with pytest.raises(ValueError, match="^mode "):
                TrainConfig(mode=text)
        else:
            assert TrainConfig(mode=text).mix_mode() == expected

    @pytest.mark.parametrize("over", [
        {}, {"lr": 0.0}, {"lr": 1}, {"mode": "chebyshev:0"},
        {"d": np.int64(8)}, {"mask_rate": 0.999},
    ])
    def test_accepted(self, over):
        cfg = TrainConfig(**over)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestMetricsCsv:
    def test_format(self):
        rows = [StepRecord(1, 0.5, 2.5e-4, 1.25), StepRecord(2, 1 / 3, 5e-4, 0.75)]
        text = metrics_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "step,loss,lr,grad_norm"
        assert lines[1] == "1,0.5,0.00025000000000000001,1.25"
        assert lines[2].startswith("2,0.33333333333333331,")
        assert text.endswith("\n")

    def test_constants_pinned(self):
        assert VAL_INTERVAL == 250
        assert VAL_BATCHES == 16


def smoke_config(**over):
    base = dict(d=16, k=2, layers=1, ffn_mult=2, vocab=16, task="copy",
                n=12, steps=400, seed=0, lr=2e-3, warmup=50)
    base.update(over)
    return TrainConfig(**base)


def build_for(cfg, seed=None):
    return build_model(cfg.d, cfg.k, cfg.layers, cfg.ffn_mult, cfg.vocab,
                       seed=cfg.seed if seed is None else seed)


# sentences of 5 and 3 tokens
CONLLU_SHORTEST_3 = "".join(
    f"{i}\tw{i}\t_\t_\t_\t_\t{i - 1}\t_\t_\t_\n" for i in range(1, 6)) + "\n" + "".join(
    f"{i}\tw{i}\t_\t_\t_\t_\t{i - 1}\t_\t_\t_\n" for i in range(1, 4)) + "\n"


class TestTrainLoop:
    def test_truncated_m_above_the_shortest_sentence_fails_before_writing(self, tmp_path):
        path = tmp_path / "trees.conllu"
        path.write_text(CONLLU_SHORTEST_3)
        out = tmp_path / "run"
        cfg = smoke_config(task="masked_recovery", mode="truncated:4", conllu=str(path), steps=2)
        message = (f"^{re.escape(str(path))}: its shortest sentence has 3 tokens; "
                   f"truncated:4 needs m <= n, got m=4 for a graph of n=3 nodes$")
        with pytest.raises(ValueError, match=message):
            train_loop(build_for(cfg), cfg, out_dir=str(out))
        assert not out.exists()
        cfg = smoke_config(task="masked_recovery", mode="truncated:3", conllu=str(path), steps=2)
        assert len(train_loop(build_for(cfg), cfg, out_dir=str(out)).records) == 2

    def test_copy_smoke_loss_decreases(self):
        cfg = smoke_config()
        result = train_loop(build_for(cfg), cfg)
        losses = np.array([r.loss for r in result.records])
        ma = np.convolve(losses, np.ones(20) / 20, mode="valid")
        running_min = np.minimum.accumulate(ma)
        # smoothed loss never climbs meaningfully above its best-so-far,
        # and ends an order of magnitude below where it started
        assert np.max(ma - running_min) <= 0.05 * ma[0]
        assert ma[-1] < 0.1 * ma[0]
        assert result.final_val_loss is not None

    def test_deterministic_artifacts(self, tmp_path):
        cfg = smoke_config(steps=30, d=8, k=1, n=8)
        a = tmp_path / "a"
        b = tmp_path / "b"
        train_loop(build_for(cfg), cfg, out_dir=str(a))
        train_loop(build_for(cfg), cfg, out_dir=str(b))
        for name in ("checkpoint.json", "metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_records_follow_schedule(self):
        cfg = smoke_config(steps=60, warmup=40, d=8, k=1, n=8)
        result = train_loop(build_for(cfg), cfg)
        sched = ScheduleConfig(cfg.lr, cfg.warmup)
        assert [r.step for r in result.records] == list(range(1, 61))
        for r in result.records:
            assert r.lr == lr_at(sched, r.step)
            assert r.grad_norm >= 0.0

    def test_early_stopping_on_flat_validation(self):
        # lr=0 freezes the model, so validation never improves after the
        # first round and patience=1 stops at the second
        cfg = TrainConfig(d=8, k=1, layers=1, ffn_mult=2, vocab=8, task="copy",
                          n=6, steps=2000, seed=0, lr=0.0, patience=1)
        result = train_loop(build_for(cfg), cfg)
        assert result.stopped_early
        assert len(result.records) == 2 * VAL_INTERVAL
        assert len(result.val_history) == 2
        assert result.val_history[0][1] == result.val_history[1][1]

    def test_nonfinite_loss_aborts_keeping_checkpoint(self, tmp_path):
        cfg = TrainConfig(d=8, k=1, layers=1, ffn_mult=2, vocab=8, task="copy",
                          n=6, steps=5, seed=0)
        model = build_for(cfg)
        model.embed[:] = 1e160
        model.readout[:] = 1e160  # logits overflow -> nan loss at step 1
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite loss"):
                train_loop(model, cfg, out_dir=str(out))
        config, params = load_checkpoint(out / "checkpoint.json")
        assert config["d"] == 8
        assert np.all(np.isfinite(params["embed"]))

    def test_accum_averages_gradients(self):
        cfg = smoke_config(steps=1, accum=2, d=8, k=1, n=8)
        result = train_loop(build_for(cfg), cfg)

        # replay the two samples the loop consumed against frozen params
        twin = build_for(cfg)
        spec = cfg.task_spec()
        stream = task_stream(spec, cfg.seed, "train")
        cache = SpectrumCache()
        total = None
        for _ in range(2):
            s = next(stream)
            logits, tape = model_forward(twin, s.graph, s.tokens,
                                         cfg.mix_mode(), cache, return_tape=True)
            _, gl = cross_entropy_loss(logits, s.targets, s.mask)
            grads = model_backward(twin, tape, gl)
            if total is None:
                total = {k: v.copy() for k, v in grads.items()}
            else:
                for k in total:
                    total[k] += grads[k]
        norm = float(np.sqrt(sum(((g / 2) ** 2).sum() for g in total.values())))
        assert result.records[0].grad_norm == pytest.approx(norm, rel=1e-12)

    def test_writes_metrics_file(self, tmp_path):
        cfg = smoke_config(steps=12, d=8, k=1, n=8)
        out = tmp_path / "run"
        result = train_loop(build_for(cfg), cfg, out_dir=str(out))
        text = (out / "metrics.csv").read_text()
        assert text == metrics_csv(result.records)
        assert len(text.splitlines()) == 13
        assert os.path.exists(out / "checkpoint.json")

    def test_chebyshev_mode_rejected_before_writing(self, tmp_path):
        cfg = smoke_config(steps=3, d=8, k=1, n=8, mode="chebyshev:8")
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="^mode chebyshev:8 is inference-only"):
            train_loop(build_for(cfg), cfg, out_dir=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("steps, lr, patience, validations", [
        (3, 2e-3, 10, 1), (VAL_INTERVAL + 1, 2e-3, 10, 2), (3 * VAL_INTERVAL, 0.0, 1, 2)])
    def test_checkpoint_written_once_per_validation(self, tmp_path, monkeypatch,
                                                    steps, lr, patience, validations):
        # the initial state, then once per validation round; the last step
        # and an early stop always follow a validation, so nothing is
        # written after the loop
        written = []

        def counting_save(path, config, params):
            written.append(path)
            save_checkpoint(path, config, params)

        monkeypatch.setattr(training_mod, "save_checkpoint", counting_save)
        cfg = smoke_config(steps=steps, d=8, k=1, n=8, lr=lr, patience=patience)
        out = tmp_path / "run"
        result = train_loop(build_for(cfg), cfg, out_dir=str(out))
        assert len(written) == 1 + validations == 1 + len(result.val_history)
        _, params = load_checkpoint(out / "checkpoint.json")
        for name, p in model_params(result.model).items():
            assert np.array_equal(params[name], p), name


def write_trees(path, count=12, seed=0, low=3):
    """count random dependency trees of low to low + 9 tokens, as CoNLL-U."""
    rng = np.random.default_rng(seed)
    path.write_text("".join(to_conllu(TokenGraph(n, [(int(rng.integers(i)), i)
                                                     for i in range(1, n)]))
                            for n in rng.integers(low, low + 10, size=count)))
    return str(path)


class TestEvaluate:
    @pytest.mark.parametrize("mode", ["exact", "truncated:3", "chebyshev:8"])
    # a chain, or trees of mixed sizes over two full chunks and a short last one
    @pytest.mark.parametrize("source, count", [("chain", 5), ("trees", 2 * VAL_BATCHES + 5)])
    @pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
    def test_matches_manual_loop(self, tmp_path, mode, source, count, as_generator):
        conllu = write_trees(tmp_path / "trees.conllu") if source == "trees" else None
        cfg = smoke_config(steps=1, d=8, k=1, n=8, mode=mode, conllu=conllu)
        model = build_for(cfg)
        samples = fixed_samples(cfg.task_spec(), 7, count, "eval")
        cache = SpectrumCache()
        loss, acc = evaluate(model, (s for s in samples) if as_generator else samples,
                             cfg.mix_mode(), cache)

        losses = []
        hit = tot = 0
        for s in samples:
            logits, _ = model_forward(model, s.graph, s.tokens, cfg.mix_mode(), cache)
            l, _ = cross_entropy_loss(logits, s.targets, s.mask)
            losses.append(l)
            pred = np.argmax(logits, axis=1)
            hit += int((pred[s.mask] == s.targets[s.mask]).sum())
            tot += int(s.mask.sum())
        assert loss == pytest.approx(float(np.mean(losses)), rel=1e-15)
        assert acc == hit / tot  # bit-identical to the integer count ratio

    @pytest.mark.parametrize("mode", ["exact", "truncated:16", "chebyshev:16"])
    def test_forms_no_gradient_and_scores_as_cross_entropy_loss(self, tmp_path, monkeypatch,
                                                                mode):
        conllu = write_trees(tmp_path / "trees.conllu", low=16)
        cfg = smoke_config(steps=1, d=8, k=2, mode=mode, conllu=conllu,
                           task="masked_recovery")
        model = build_for(cfg)
        samples = fixed_samples(cfg.task_spec(), 7, VAL_BATCHES + 3, "eval")
        grads = []
        original = training_mod._sample_losses
        monkeypatch.setattr(training_mod, "_sample_losses",
                            lambda *a, grad: grads.append(grad) or original(*a, grad=grad))
        loss, _ = evaluate(model, samples, cfg.mix_mode())
        assert grads == [False, False]  # one per chunk, neither forming a gradient
        want = []
        for chunk in (samples[:VAL_BATCHES], samples[VAL_BATCHES:]):
            logits, _ = batch_forward(model, [s.graph for s in chunk],
                                      [s.tokens for s in chunk], cfg.mix_mode())
            want += [cross_entropy_loss(logits, np.concatenate([s.targets for s in chunk]),
                                        np.concatenate([s.mask for s in chunk]),
                                        [s.graph.n for s in chunk])[0]] * len(chunk)
        assert loss == float(np.mean(want))  # the same bytes

    def test_without_a_cache_each_call_solves_each_graph_once(self, monkeypatch):
        import gwmixer.spectral as spectral_mod

        calls = []
        original = spectral_mod.eigendecompose
        monkeypatch.setattr(spectral_mod, "eigendecompose",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        cfg = smoke_config(steps=1, d=8, k=1, n=8)
        model = build_for(cfg)
        samples = fixed_samples(cfg.task_spec(), 7, 5, "eval")  # one chain graph
        first = evaluate(model, samples, cfg.mix_mode())
        assert len(calls) == 1  # one cache for all the samples
        assert evaluate(model, samples, cfg.mix_mode()) == first
        assert len(calls) == 2  # and no cache shared between calls
        model_forward(model, samples[0].graph, samples[0].tokens, cfg.mix_mode())
        assert len(calls) == 3
        assert not hasattr(spectral_mod, "DEFAULT_CACHE")

    def test_empty_sample_list_rejected(self):
        cfg = smoke_config(steps=1, d=8, k=1, n=8)
        with pytest.raises(ValueError, match="at least one sample"):
            evaluate(build_for(cfg), [], cfg.mix_mode())
        with pytest.raises(ValueError, match="at least one sample"):
            evaluate(build_for(cfg), iter([]), cfg.mix_mode())

    @staticmethod
    def spy_batch_forward(monkeypatch):
        """Record (graphs, return_tape) of every batch_forward training makes."""
        calls = []
        original = training_mod.batch_forward

        def spy(model, graphs, token_ids, mode, cache=None, return_tape=False):
            calls.append((len(graphs), return_tape))
            return original(model, graphs, token_ids, mode, cache, return_tape)

        monkeypatch.setattr(training_mod, "batch_forward", spy)
        return calls

    @pytest.mark.parametrize("count", [1, VAL_BATCHES - 1, VAL_BATCHES, VAL_BATCHES + 1,
                                       3 * VAL_BATCHES])
    def test_one_batch_forward_per_val_batches_samples(self, monkeypatch, count):
        cfg = smoke_config(steps=1, d=8, k=1, n=8)
        samples = fixed_samples(cfg.task_spec(), 7, count, "eval")
        calls = self.spy_batch_forward(monkeypatch)
        evaluate(build_for(cfg), samples, cfg.mix_mode())
        assert len(calls) == math.ceil(count / VAL_BATCHES)
        assert [graphs for graphs, _ in calls] == [
            min(VAL_BATCHES, count - start) for start in range(0, count, VAL_BATCHES)]
        assert not any(tape for _, tape in calls)

    def test_a_train_loop_validation_is_one_batch_forward(self, monkeypatch):
        # a perfbench trace counts layer_forward spans under one evaluate span
        monkeypatch.setattr(training_mod, "VAL_INTERVAL", 2)
        cfg = smoke_config(steps=5, accum=3, d=8, k=1, n=8, patience=10)
        calls = self.spy_batch_forward(monkeypatch)
        result = train_loop(build_for(cfg), cfg)
        assert [step for step, _ in result.val_history] == [2, 4, 5]
        step, validation = (3, True), (VAL_BATCHES, False)
        assert calls == [step, step, validation, step, step, validation, step, validation]


class TestGradCheck:
    @pytest.mark.parametrize("selector", ["filter", "mix", "layer", "model"])
    def test_selectors_pass(self, selector):
        report = grad_check(selector=selector, seed=0)
        assert report.passed, f"{selector}: {report.max_rel_err:.3e}"
        assert report.max_rel_err <= 1e-4
        assert report.selector == selector
        assert all(e.max_rel_err >= 0.0 for e in report.entries)

    @pytest.mark.parametrize("selector", ["filter", "mix", "layer", "model"])
    def test_entry_names_pinned(self, selector):
        bank = [f"filters.{k}.{t}" for k in range(2) for t in ("w1", "b1", "w2", "b2")]
        bank.append("alpha")
        ffn = [f"ffn.{t}" for t in ("w1", "b1", "w2", "b2")]
        expected = {
            "filter": ["w1", "b1", "w2", "b2"],
            "mix": bank,
            "layer": bank + ffn,
            "model": ["embed", "readout"] + [f"layers.{i}.{name}" for i in range(2)
                                             for name in [f"bank.{b}" for b in bank] + ffn],
        }[selector]
        names = [e.name for e in grad_check(selector=selector, seed=0).entries]
        assert names == expected
        assert len(names) == {"filter": 4, "mix": 9, "layer": 13, "model": 28}[selector]

    def test_corrupted_gradient_detected(self):
        def negate(grads):
            return {k: -np.asarray(v) for k, v in grads.items()}

        report = grad_check(selector="filter", seed=0, corrupt=negate)
        assert not report.passed
        # sign flip gives |(-g) - g| / mean(|g|) = 2 wherever |g| >> floor
        assert report.max_rel_err == pytest.approx(2.0, abs=1e-4)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="selector"):
            grad_check(selector="everything")

    @pytest.mark.parametrize("kwargs, message", [
        ({"step": 0.0}, "step must be a finite number > 0, got 0.0"),
        ({"step": -1e-5}, "step must be a finite number > 0, got -1e-05"),
        ({"step": float("nan")}, "step must be a finite number > 0, got nan"),
        ({"step": float("inf")}, "step must be a finite number > 0, got inf"),
        ({"step": True}, "step must be a finite number > 0, got True"),
        ({"step": "1e-5"}, "step must be a finite number > 0, got '1e-5'"),
        ({"tol": -1.0}, "tol must be a finite number >= 0, got -1.0"),
        ({"tol": float("nan")}, "tol must be a finite number >= 0, got nan"),
        ({"tol": float("-inf")}, "tol must be a finite number >= 0, got -inf"),
    ])
    def test_step_and_tol_checked_before_any_evaluation(self, monkeypatch, kwargs, message):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated before the arguments were checked")

        monkeypatch.setattr(training_mod, "build_model", no_evaluation)
        monkeypatch.setattr(training_mod, "_fd_check", no_evaluation)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grad_check(selector="model", **kwargs)

    def test_zero_tol_allowed(self):
        assert grad_check(selector="filter", tol=0.0).tol == 0.0

    def test_floor_constant(self):
        assert FD_FLOOR == 1e-6
