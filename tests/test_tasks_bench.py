"""Task generation (streams, masking, token structure) and the scaling bench."""

import re

import numpy as np
import pytest

from gwmixer import (
    TaskSpec,
    attention_baseline_forward,
    bench_csv,
    bench_scaling,
    fit_loglog_slope,
    fixed_samples,
    gen_task_batch,
    make_attention_params,
    task_stream,
)
from gwmixer.bench import BenchRecord, _verify_mode
from gwmixer.filterbank import MixMode, build_filter_bank
from gwmixer.graphs import build_chain_graph, normalized_laplacian, symmetrize
from gwmixer.spectral import eigendecompose
import gwmixer.bench as bench_mod
import gwmixer.tasks as tasks_mod
from gwmixer.tasks import (
    COUNTER_BASE,
    COUNTER_HOLDS,
    FALLBACK_REPEAT,
    SENTENCE_FILES,
    STICKY_REPEAT,
)


class TestTaskSpec:
    def test_valid(self):
        spec = TaskSpec("copy", 8, 16)
        assert spec.mask_token == 15

    @pytest.mark.parametrize("kwargs", [
        dict(task="predict"),
        dict(n=1),
        dict(vocab=1),
        dict(mask_rate=0.0),
        dict(mask_rate=1.0),
        dict(conllu=""),  # empty path
        dict(conllu=5),
    ])
    def test_invalid(self, kwargs):
        base = dict(task="copy", n=8, vocab=16, mask_rate=0.25, conllu=None)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TaskSpec(**base)

    @pytest.mark.parametrize("field, value, message", [
        ("n", 2.5, "n must be an integer >= 2, got 2.5"),
        ("n", 4.0, "n must be an integer >= 2, got 4.0"),
        ("n", True, "n must be an integer >= 2, got True"),
        ("vocab", 16.5, "vocab must be an integer >= 2, got 16.5"),
        ("mask_rate", "0.5", "mask_rate must be a finite number in \\(0, 1\\), got '0.5'"),
        ("mask_rate", True, "mask_rate must be a finite number in \\(0, 1\\), got True"),
    ])
    def test_rejected_naming_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaskSpec(**{"task": "copy", "n": 8, "vocab": 16, field: value})


class TestCopyReverse:
    def test_copy_targets_equal_tokens(self):
        spec = TaskSpec("copy", 10, 16)
        s = gen_task_batch(spec, 0)
        assert np.array_equal(s.targets, s.tokens)
        assert s.targets is not s.tokens  # independent arrays
        assert np.all(s.mask)
        assert s.graph.n == 10
        assert s.tokens.min() >= 0
        assert s.tokens.max() < 15  # MASK id never appears as input

    def test_reverse_targets_flipped(self):
        spec = TaskSpec("reverse", 9, 16)
        s = gen_task_batch(spec, 3)
        assert np.array_equal(s.targets, s.tokens[::-1])
        assert np.all(s.mask)


class TestMaskedRecovery:
    SPEC = TaskSpec("masked_recovery", 32, 64, mask_rate=0.25)

    def test_mask_count_is_floor_of_rate(self):
        s = gen_task_batch(self.SPEC, 0)
        assert int(s.mask.sum()) == 8  # floor(0.25 * 32)

    def test_mask_count_has_floor_of_one(self):
        s = gen_task_batch(TaskSpec("masked_recovery", 5, 64, mask_rate=0.1), 0)
        assert int(s.mask.sum()) == 1

    def test_masked_positions_show_mask_token(self):
        s = gen_task_batch(self.SPEC, 1)
        assert np.all(s.tokens[s.mask] == self.SPEC.mask_token)
        assert np.all(s.tokens[~s.mask] == s.targets[~s.mask])
        assert np.all(s.targets != self.SPEC.mask_token)

    def test_targets_decompose_into_three_scales(self):
        # base-3 digits: fastest = period-6 counter, middle = period-3
        # counter, leading digit = slow sticky stream
        for s in fixed_samples(self.SPEC, 0, 5, "train"):
            t = s.targets
            pos = np.arange(len(t))
            slow, mid = COUNTER_HOLDS
            fast_digit = t % COUNTER_BASE
            mid_digit = (t // COUNTER_BASE) % COUNTER_BASE
            lead = t // COUNTER_BASE**2
            assert np.array_equal(fast_digit, (fast_digit[0] + pos // mid) % COUNTER_BASE)
            assert np.array_equal(mid_digit, (mid_digit[0] + pos // slow) % COUNTER_BASE)
            assert lead.max() < 63 // COUNTER_BASE**2
            assert lead.min() >= 0
            changes = int((lead[1:] != lead[:-1]).sum())
            assert changes <= 10  # sticky: stays with prob 15/16

    def test_small_vocab_falls_back_to_single_stream(self):
        spec = TaskSpec("masked_recovery", 32, 10, mask_rate=0.25)
        s = gen_task_batch(spec, 0)
        assert s.targets.max() < 9
        changes = int((s.targets[1:] != s.targets[:-1]).sum())
        assert changes <= 16  # still run-structured, repeat prob 3/4

    def test_sticky_constant_pinned(self):
        assert STICKY_REPEAT == 15 / 16


def sticky_chain_loop(rng, n, base, repeat):
    """The per-token loop that _sticky_chain replaced, kept as an oracle."""
    digit = np.empty(n, dtype=np.int64)
    digit[0] = rng.integers(base)
    stay = rng.random(n - 1) < repeat
    fresh = rng.integers(base, size=n - 1)
    for i in range(1, n):
        digit[i] = digit[i - 1] if stay[i - 1] else fresh[i - 1]
    return digit


class TestStickyChain:
    @pytest.mark.parametrize("repeat", [0.0, 0.5, FALLBACK_REPEAT, STICKY_REPEAT, 1.0])
    def test_matches_the_loop_draw_for_draw(self, repeat):
        for seed in range(400):
            meta = np.random.default_rng([seed, 9])
            n, base = int(meta.integers(1, 200)), int(meta.integers(1, 40))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = tasks_mod._sticky_chain(rng, n, base, repeat)
            ref = sticky_chain_loop(ref_rng, n, base, repeat)
            assert out.dtype == ref.dtype and np.array_equal(out, ref), (seed, n, base)
            # the same draws in the same order: both streams are left in one state
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestDeterminismAndStreams:
    SPEC = TaskSpec("masked_recovery", 16, 32)

    def test_same_seed_same_sample(self):
        a = gen_task_batch(self.SPEC, 42)
        b = gen_task_batch(self.SPEC, 42)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.mask, b.mask)

    def test_stream_restarts_identically(self):
        first = [next(task_stream(self.SPEC, 7, "train")) for _ in range(1)][0]
        again = next(task_stream(self.SPEC, 7, "train"))
        assert np.array_equal(first.tokens, again.tokens)

    def test_streams_are_disjoint(self):
        train = next(task_stream(self.SPEC, 0, "train"))
        val = next(task_stream(self.SPEC, 0, "val"))
        ev = next(task_stream(self.SPEC, 0, "eval"))
        assert not np.array_equal(train.tokens, val.tokens)
        assert not np.array_equal(train.tokens, ev.tokens)
        assert not np.array_equal(val.tokens, ev.tokens)

    def test_unknown_stream_rejected(self):
        # when called, not at the first sample drawn
        with pytest.raises(ValueError, match="^stream must be one of train, val, eval, got 'test'$"):
            task_stream(self.SPEC, 0, "test")

    def test_fixed_samples_prefix_of_stream(self):
        fixed = fixed_samples(self.SPEC, 5, 3, "val")
        gen = task_stream(self.SPEC, 5, "val")
        for s in fixed:
            t = next(gen)
            assert np.array_equal(s.tokens, t.tokens)


CONLLU_TWO = """\
1\tthe\t_\t_\t_\t_\t2\t_\t_\t_
2\tcat\t_\t_\t_\t_\t3\t_\t_\t_
3\tsat\t_\t_\t_\t_\t0\t_\t_\t_

1\tyes\t_\t_\t_\t_\t0\t_\t_\t_
"""


class TestConlluSource:
    def test_short_sentences_filtered(self, tmp_path):
        path = tmp_path / "trees.conllu"
        path.write_text(CONLLU_TWO)
        spec = TaskSpec("copy", 16, 16, conllu=str(path))
        # the 1-token sentence is dropped, so every draw yields the
        # 3-token tree and sequence length follows the graph
        for seed in range(4):
            s = gen_task_batch(spec, seed)
            assert s.graph.n == 3
            assert s.tokens.shape == (3,)

    def test_no_usable_sentences_rejected(self, tmp_path):
        path = tmp_path / "short.conllu"
        path.write_text("1\tyes\t_\t_\t_\t_\t0\t_\t_\t_\n")
        spec = TaskSpec("copy", 16, 16, conllu=str(path))
        with pytest.raises(ValueError, match="at least 2"):
            gen_task_batch(spec, 0)

    def test_file_parsed_once_and_files_kept_bounded(self, tmp_path, monkeypatch):
        parsed = []
        original = tasks_mod._scan_conllu
        monkeypatch.setattr(tasks_mod, "_scan_conllu",
                            lambda text: parsed.append(text) or original(text))
        tasks_mod._conllu_sentences.cache_clear()
        paths = []
        for i in range(SENTENCE_FILES + 2):
            paths.append(tmp_path / f"trees{i}.conllu")
            paths[-1].write_text(CONLLU_TWO)
        spec = TaskSpec("copy", 16, 16, conllu=str(paths[0]))
        for seed in range(3):
            gen_task_batch(spec, seed)
        assert len(parsed) == 1  # the same path read again is not parsed again
        for path in paths:
            gen_task_batch(TaskSpec("copy", 16, 16, conllu=str(path)), 0)
        info = tasks_mod._conllu_sentences.cache_info()
        assert len(parsed) == len(paths)
        assert info.maxsize == SENTENCE_FILES and info.currsize == SENTENCE_FILES
        tasks_mod._conllu_sentences.cache_clear()  # no entry holds the stub's results


class TestAttentionBaseline:
    def test_matches_manual_softmax(self):
        rng = np.random.default_rng(0)
        n, d = 6, 4
        x = rng.standard_normal((n, d))
        wq, wk, wv = make_attention_params(d, seed=1)
        out = attention_baseline_forward(x, wq, wk, wv)

        scores = (x @ wq) @ (x @ wk).T / np.sqrt(d)
        expected = np.empty((n, d))
        for i in range(n):
            w = np.exp(scores[i] - scores[i].max())
            w /= w.sum()
            expected[i] = w @ (x @ wv)
        assert np.allclose(out, expected, atol=1e-14)

    def test_rows_are_convex_mixtures(self):
        # with wv = identity, each output row lies in the convex hull of
        # the input rows, so its coordinates are bounded by the extremes
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        wq, wk, _ = make_attention_params(3, seed=0)
        out = attention_baseline_forward(x, wq, wk, np.eye(3))
        assert np.all(out.max(axis=0) <= x.max(axis=0) + 1e-12)
        assert np.all(out.min(axis=0) >= x.min(axis=0) - 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            attention_baseline_forward(np.zeros(4), *make_attention_params(4))
        with pytest.raises(ValueError):
            attention_baseline_forward(np.zeros((3, 4)), np.zeros((2, 2)),
                                       np.zeros((4, 4)), np.zeros((4, 4)))

    def test_projections_given_as_lists_give_the_same_output(self):
        x = np.random.default_rng(2).standard_normal((5, 3))
        att = make_attention_params(3, seed=4)
        want = attention_baseline_forward(x, *att)
        assert np.array_equal(attention_baseline_forward(x, *[w.tolist() for w in att]), want)

    def test_params_deterministic_and_bounded(self):
        a = make_attention_params(9, seed=3)
        b = make_attention_params(9, seed=3)
        assert len(a) == 3
        for pa, pb in zip(a, b):
            assert pa.shape == (9, 9)
            assert np.array_equal(pa, pb)
            assert np.max(np.abs(pa)) <= 1 / 3


class TestBench:
    def test_slope_of_pure_power_law(self):
        ns = np.array([32, 64, 128, 256])
        ts = 1e-6 * ns.astype(float) ** 2.5
        assert fit_loglog_slope(ns, ts) == pytest.approx(2.5, abs=1e-12)

    # one point, unequal lengths, a size or time <= 0, a repeated size and
    # a non-finite or 2-D array are named before any fit (one point made
    # LAPACK print to stderr)
    @pytest.mark.parametrize("ns, ts, message", [
        ([8], [1.0], "ns must hold at least two distinct sizes, got [8.0]"),
        ([8, 8], [1.0, 2.0], "ns must hold at least two distinct sizes, got [8.0, 8.0]"),
        ([8, 16], [1.0], "ts must be 1-D with len(ns) values > 0, got [1.0]"),
        ([8, 16, 32], [1.0, 2.0], "ts must be 1-D with len(ns) values > 0, got [1.0, 2.0]"),
        ([8, 16], [1.0, 0.0], "ts must be 1-D with len(ns) values > 0, got [1.0, 0.0]"),
        ([8, 16], [-1.0, 2.0], "ts must be 1-D with len(ns) values > 0, got [-1.0, 2.0]"),
        ([0, 16], [1.0, 2.0], "ns must be 1-D with len(ns) values > 0, got [0.0, 16.0]"),
        ([[8, 16]], [1.0, 2.0], "ns must be 1-D with len(ns) values > 0, got [[8.0, 16.0]]"),
        ([8, 16], [1.0, np.inf], "ts must be finite, got inf"),
    ])
    def test_slope_rejects_points_it_cannot_fit(self, monkeypatch, capfd, ns, ts, message):
        started = []
        monkeypatch.setattr(np, "polyfit", lambda *a, **k: started.append(a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_loglog_slope(ns, ts)
        assert started == [] and capfd.readouterr().err == ""

    def test_small_run_shape_and_gates(self):
        records, slopes = bench_scaling(sizes=(8, 16), d=4, k=2,
                                        modes=("exact", "truncated:4",
                                               "chebyshev:8", "attention"),
                                        repeats=1, seed=0)
        assert len(records) == 8
        assert set(slopes) == {"exact", "truncated:4", "chebyshev:8", "attention"}
        for r in records:
            assert r.seconds > 0.0
            assert r.checksum > 0.0
            assert r.d == 4 and r.k == 2
        # wavelet modes at matched (n, seed) approximate the same operator
        by_mode = {m: [r for r in records if r.mode == m] for m in slopes}
        for exact, cheb in zip(by_mode["exact"], by_mode["chebyshev:8"]):
            assert cheb.checksum == pytest.approx(exact.checksum, rel=1e-2)

    def test_modes_may_come_from_a_generator(self):
        records, _ = bench_scaling(sizes=(8,), d=4, k=1, modes=(m for m in ("exact",)),
                                   repeats=1)
        assert [r.mode for r in records] == ["exact"]

    def test_a_mode_object_is_rejected_before_any_timing(self, monkeypatch):
        timed = []
        monkeypatch.setattr(bench_mod, "_time_call", lambda *a: timed.append(a))
        with pytest.raises(ValueError, match="^mix mode must be a string such as 'truncated:16', "
                                             "got MixMode"):
            bench_scaling(sizes=(8,), d=4, k=1, modes=("exact", MixMode.exact()), repeats=1)
        assert timed == []

    def test_single_size_yields_no_slope(self):
        records, slopes = bench_scaling(sizes=(8,), d=4, k=1,
                                        modes=("exact",), repeats=1)
        assert len(records) == 1
        assert slopes == {}

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            bench_scaling(sizes=(8,), repeats=0)

    def test_output_gate_rejects_wrong_result(self):
        n, d, k = 8, 4, 2
        eig = eigendecompose(normalized_laplacian(symmetrize(build_chain_graph(n))))
        bank = build_filter_bank(k, d, seed=0)
        x = np.random.default_rng(0).standard_normal((n, d))
        from gwmixer import wavelet_mix

        good = wavelet_mix(bank, eig, x, MixMode.exact())
        _verify_mode(MixMode.exact(), good, bank, eig, x)  # passes silently
        with pytest.raises(AssertionError, match="exceeds gate"):
            _verify_mode(MixMode.exact(), good + 1.0, bank, eig, x)

    def test_csv_format(self):
        records = [
            BenchRecord(8, 4, 2, "exact", 1.5e-5, 2048, 3.25),
            BenchRecord(8, 4, 2, "attention", 2.5e-5, None, 4.5),
        ]
        text = bench_csv(records, {"exact": 1.05})
        lines = text.splitlines()
        assert "# slope[exact] = 1.05" in lines
        header = lines.index("n,d,k,mode,seconds,peak_bytes,checksum")
        assert lines[header + 1] == "8,4,2,exact,1.5e-05,2048,3.25"
        assert lines[header + 2].endswith(",unavailable,4.5")
        assert text.endswith("\n")
