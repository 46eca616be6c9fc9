"""Command-line interface: exit codes, outputs, and artifact files."""

import json
import subprocess
import sys

import pytest

from gwmixer import build_model, graph_from_json, load_checkpoint, model_params, save_checkpoint
from gwmixer.cli import cli_main
import gwmixer.bench as bench_mod
import gwmixer.serialize as serialize_mod
import gwmixer.tasks as tasks_mod

CONLLU_TWO = """\
1\tthe\t_\t_\t_\t_\t2\t_\t_\t_
2\tcat\t_\t_\t_\t_\t3\t_\t_\t_
3\tsat\t_\t_\t_\t_\t0\t_\t_\t_

1\ton\t_\t_\t_\t_\t2\t_\t_\t_
2\tmats\t_\t_\t_\t_\t0\t_\t_\t_
"""

TINY_CONFIG = dict(d=8, k=1, layers=1, ffn_mult=2, vocab=8, task="copy",
                   n=6, steps=8, seed=0)


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert cli_main(["transmogrify"]) == 2
        capsys.readouterr()

    def test_missing_required_argument_is_usage_error(self, capsys):
        assert cli_main(["train", "--config", "x.json"]) == 2  # no --out
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_runtime_failure_is_one(self, capsys):
        code = cli_main(["train", "--config", "/nonexistent.json", "--out", "/tmp/x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_exclusive_spectrum_sources(self, tmp_path, capsys):
        code = cli_main(["spectrum", "--checkpoint", "a.json", "--seed", "1",
                         "--out", str(tmp_path / "s.csv")])
        assert code == 2
        capsys.readouterr()


class TestGradcheckCommand:
    def test_pass_prints_entries_and_status(self, capsys):
        assert cli_main(["gradcheck", "--selector", "filter"]) == 0
        out = capsys.readouterr().out
        assert "rel_err" in out
        assert "PASS: max rel err" in out

    def test_fail_exits_one(self, capsys):
        assert cli_main(["gradcheck", "--selector", "filter", "--tol", "1e-18"]) == 1
        assert "FAIL: max rel err" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--step", "0", "step must be a finite number > 0, got 0.0"),
        ("--step", "-1e-5", "step must be a finite number > 0, got -1e-05"),
        ("--step", "nan", "step must be a finite number > 0, got nan"),
        ("--step", "inf", "step must be a finite number > 0, got inf"),
        ("--tol", "-1", "tol must be a finite number >= 0, got -1.0"),
        ("--tol", "nan", "tol must be a finite number >= 0, got nan"),
        ("--tol", "inf", "tol must be a finite number >= 0, got inf"),
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ])
    def test_bad_step_or_tol_exits_one_naming_it(self, capsys, flag, value, message):
        assert cli_main(["gradcheck", "--selector", "filter", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestSpectrumCommand:
    def test_fresh_bank_csv(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert cli_main(["spectrum", "--k", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,g_1,g_2,g_3"
        assert len(lines) == 513  # header + 512 grid points
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert all(float(v) > 0.0 for v in first[1:])
        capsys.readouterr()

    def test_checkpoint_layer_out_of_range(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        run = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        code = cli_main(["spectrum", "--checkpoint", str(run / "checkpoint.json"),
                         "--layer", "5", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_checkpoint_source(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        run = tmp_path / "run"
        cli_main(["train", "--config", str(cfg), "--out", str(run)])
        out = tmp_path / "s.csv"
        assert cli_main(["spectrum", "--checkpoint", str(run / "checkpoint.json"),
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "lambda,g_1"  # k=1 model
        capsys.readouterr()


class TestTrainEvalCommands:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        run = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        out = capsys.readouterr().out
        assert "trained 8 steps" in out
        config, params = load_checkpoint(run / "checkpoint.json")
        assert config["steps"] == 8
        assert (run / "metrics.csv").read_text().startswith("step,loss,lr,grad_norm")

    def test_eval_runs_on_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        run = tmp_path / "run"
        cli_main(["train", "--config", str(cfg), "--out", str(run)])
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                         "--samples", "4"]) == 0
        out = capsys.readouterr().out
        assert "token_accuracy" in out
        assert "samples 4" in out

    def test_eval_reports_the_spectrum_cache_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        run = tmp_path / "run"
        cli_main(["train", "--config", str(cfg), "--out", str(run)])
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                         "--samples", "4"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("samples 4  loss ") and out.count("\n") == 1
        # four samples on one 6-chain: one exact system of 6 x 6 plus 6 eigenvalues
        assert err == "spectrum cache: hits 3  misses 1  evictions 0  bytes 336\n"

    def test_eval_mode_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        run = tmp_path / "run"
        cli_main(["train", "--config", str(cfg), "--out", str(run)])
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                         "--samples", "2", "--mode", "chebyshev:30"]) == 0
        capsys.readouterr()

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "bogus": 1}))
        assert cli_main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("null", "NoneType"),
                                            ('"cfg"', "str"), ("3", "int")])
    def test_a_config_that_is_not_a_json_object_fails_with_one_line(self, tmp_path, capsys,
                                                                     text, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: config must be a JSON object, got {kind}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad, field", [({"d": "32"}, "d"), ({"k": 0}, "k"),
                                            ({"accum": 0}, "accum"), ({"lr": float("nan")}, "lr"),
                                            ({"conllu": "", "mode": "truncated:20"}, "conllu")])
    def test_invalid_config_fails_with_one_line(self, tmp_path, capsys, bad, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, **bad}))
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()


    @pytest.mark.parametrize("checkpoint, mode, message", [
        ("[1, 2]", None, "error: checkpoint must be a JSON object, got list"),
        ('{"version": 2, "config": {}}', None, "error: checkpoint has no 'params' section"),
        (None, "bogus", "error: mode 'bogus' is invalid"),
        (None, "truncated:7", "error: mode truncated:7 needs m <= n"),
        (None, "truncated:x", "error: mode 'truncated:x' is invalid"),
        (None, "truncated:+5", "error: mode 'truncated:+5' is invalid: mix mode parameter "
                               "'+5' in 'truncated:+5'"),
    ])
    def test_eval_fails_with_one_line(self, tmp_path, capsys, checkpoint, mode, message):
        path = tmp_path / "checkpoint.json"
        if checkpoint is None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(TINY_CONFIG))
            cli_main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        else:
            path.write_text(checkpoint)
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(path), "--samples", "2"]
        assert cli_main(argv + (["--mode", mode] if mode else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_train_truncated_above_a_sentence_length_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "trees.conllu"
        src.write_text(CONLLU_TWO)  # sentences of 3 and 2 tokens
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "task": "masked_recovery",
                                   "mode": "truncated:3", "conllu": str(src)}))
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: its shortest sentence has 2 tokens; truncated:3 needs m <= n, "
            f"got m=3 for a graph of n=2 nodes\n")
        assert not (tmp_path / "run").exists()

    def test_eval_truncated_above_a_sentence_length_draws_no_sample(self, tmp_path, capsys,
                                                                     monkeypatch):
        src = tmp_path / "trees.conllu"
        src.write_text(CONLLU_TWO)  # sentences of 3 and 2 tokens
        path = tmp_path / "checkpoint.json"
        config = {**TINY_CONFIG, "task": "masked_recovery", "conllu": str(src)}
        save_checkpoint(path, config, model_params(build_model(8, 1, 1, 2, 8)))
        drawn = []
        monkeypatch.setattr(tasks_mod, "gen_task_batch", lambda *args: drawn.append(args))
        argv = ["eval", "--checkpoint", str(path), "--samples", "2", "--mode", "truncated:3"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: its shortest sentence has 2 tokens; truncated:3 needs m <= n, "
            f"got m=3 for a graph of n=2 nodes\n")
        assert drawn == []

    @pytest.mark.parametrize("command", ["spectrum", "eval"])
    @pytest.mark.parametrize("bad, message", [
        ({"d": "4"}, "error: d must be an integer >= 1, got '4'"),
        ({"d": 4.7}, "error: d must be an integer >= 1, got 4.7"),
        ({"mode": "nearest"}, "error: mode 'nearest' is invalid"),
        ({"bogus": 1}, "error: unknown config keys: ['bogus']"),
    ])
    def test_checkpoint_config_rejected_naming_the_field(self, tmp_path, capsys, command,
                                                          bad, message):
        path = tmp_path / "checkpoint.json"
        # the params fit d=4, the size int() makes of "4" and 4.7
        save_checkpoint(path, {**TINY_CONFIG, "d": 4, **bad},
                        model_params(build_model(4, 1, 1, 2, 8)))
        out = ["--out", str(tmp_path / "s.csv")] if command == "spectrum" else []
        assert cli_main([command, "--checkpoint", str(path)] + out) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()

    def test_train_in_chebyshev_mode_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "mode": "chebyshev:16"}))
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == ("error: mode chebyshev:16 is inference-only; "
                                           "train in exact or truncated mode\n")
        assert not (tmp_path / "run").exists()


class TestAtomicOutFiles:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--k", "2"],
        ["bench", "--sizes", "8,16", "--d", "4", "--k", "1", "--modes", "exact", "--repeats", "1"],
        ["build-graph", "--conllu", "{conllu}"],
    ])
    def test_failed_replace_keeps_previous_file(self, tmp_path, capsys, monkeypatch, argv):
        src = tmp_path / "trees.conllu"
        src.write_text(CONLLU_TWO)
        out = tmp_path / "out.txt"
        out.write_text("previous\n")
        argv = [a.format(conllu=src) for a in argv] + ["--out", str(out)]

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(serialize_mod.os, "replace", fail)
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "trees.conllu"]
        monkeypatch.undo()
        assert cli_main(argv) == 0
        assert out.read_text() != "previous\n"
        capsys.readouterr()


class TestBenchCommand:
    def test_writes_csv_and_slopes(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert cli_main(["bench", "--sizes", "8,16", "--d", "4", "--k", "1",
                         "--modes", "exact", "--repeats", "1",
                         "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "slope[exact] = " in stdout
        text = out.read_text()
        assert "n,d,k,mode,seconds,peak_bytes,checksum" in text
        assert "# slope[exact] = " in text

    def test_stdout_when_no_out(self, capsys):
        assert cli_main(["bench", "--sizes", "8,16", "--d", "4", "--k", "1",
                         "--modes", "exact", "--repeats", "1"]) == 0
        assert "n,d,k,mode,seconds,peak_bytes,checksum" in capsys.readouterr().out

    @pytest.mark.parametrize("sizes, modes, message", [
        ("64,x", "exact", "--sizes entry 'x' in '64,x' is not a decimal integer"),
        ("8,,16", "exact", "--sizes entry '' in '8,,16' is not a decimal integer"),
        ("", "exact", "--sizes entry '' in '' is not a decimal integer"),
        ("8, 16", "exact", "--sizes entry ' 16' in '8, 16' is not a decimal integer"),
        ("8,-16", "exact", "--sizes entry '-16' in '8,-16' is not a decimal integer"),
        ("8,0", "exact", "sizes[1] must be an integer >= 1, got 0"),
        ("8,8", "exact", "sizes lists 8 more than once"),
        ("8", "exact,exact", "modes lists exact more than once"),
        ("8,16", "truncated,truncated:16", "modes lists truncated:16 more than once"),
        ("64,8", "exact,truncated:16",
         "truncated:16 needs m <= n, got m=16 for a graph of n=8 nodes"),
        ("8,16", " , ", "modes must list at least one entry"),
    ])
    def test_malformed_plan_rejected_before_timing(self, capsys, monkeypatch, sizes, modes,
                                                   message):
        timed = []
        monkeypatch.setattr(bench_mod, "_time_call", lambda *args: timed.append(args))
        argv = ["bench", "--sizes", sizes, "--d", "4", "--k", "1", "--modes", modes,
                "--repeats", "1"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert timed == []


class TestBuildGraphCommand:
    def test_jsonl_output(self, tmp_path, capsys):
        src = tmp_path / "trees.conllu"
        src.write_text(CONLLU_TWO)
        out = tmp_path / "graphs.jsonl"
        assert cli_main(["build-graph", "--conllu", str(src),
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        g0 = graph_from_json(lines[0])
        assert g0.n == 3
        assert g0.edges.tolist() == [[1, 0], [2, 1]]  # head -> dependent
        assert graph_from_json(lines[1]).n == 2
        capsys.readouterr()

    def test_sentence_selector(self, tmp_path, capsys):
        src = tmp_path / "trees.conllu"
        src.write_text(CONLLU_TWO)
        out = tmp_path / "one.jsonl"
        assert cli_main(["build-graph", "--conllu", str(src), "--out", str(out),
                         "--sentence", "1"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert graph_from_json(lines[0]).n == 2
        capsys.readouterr()

    def test_sentence_out_of_range(self, tmp_path, capsys):
        src = tmp_path / "trees.conllu"
        src.write_text(CONLLU_TWO)
        assert cli_main(["build-graph", "--conllu", str(src),
                         "--out", str(tmp_path / "x.jsonl"),
                         "--sentence", "5"]) == 1
        assert "out of range" in capsys.readouterr().err


class TestConsoleScript:
    def test_entry_point_wires_exit_code(self):
        code = (
            "import sys; from gwmixer.cli import main; "
            "sys.argv = ['gwmixer', 'gradcheck', '--selector', 'filter']; main()"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
