"""One repetition of one workload, in a process of its own.

    python3 perfbench/workload.py SPEC.json

run.py writes the spec and reads the result file it names. The spec
carries run.py's clock reading from just before it started this process,
so set-up time covers interpreter start, imports and model build. Both
sides read time.perf_counter, which is CLOCK_MONOTONIC and so shared by
every process on the machine.

Operations are timed with tracing off unless the spec asks for a trace.
Correctness checks run after the timed phase, outside every timing, and
a failed check marks the repetition's operations as failed.
"""

import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

import inputs
import layers
import reference
from spans import Rebinder, SpanRecorder

clock = time.perf_counter
HELD_OUT = 256  # samples behind the reported validation loss of a training run


class StepClock:
    """Optimizer-step boundaries inside train_loop, from two hooks: the
    first sample pulled from the training stream starts step 1, and the
    return of each adam_step ends a step. With a recorder, each step is
    also a span, and what follows the last step is a "tail" span."""

    def __init__(self, recorder=None):
        self.rec = recorder
        self.first = None
        self.ends = []
        self.tokens = [0]  # tokens drawn during each step
        self._span = None

    def install(self, rebinder):
        rebinder.replace("training", "task_stream", self._wrap_stream)
        rebinder.replace("training", "adam_step", self._wrap_adam)

    def _wrap_stream(self, original):
        def task_stream(spec, seed, stream="train"):
            inner = original(spec, seed, stream)
            return self._pull(inner) if stream == "train" else inner
        return task_stream

    def _pull(self, inner):
        while True:
            if self.first is None:
                self.first = clock()
                if self.rec is not None:
                    self.rec.op = 1
                    self._span = self.rec.begin("step")
            sample = next(inner)
            self.tokens[-1] += sample.graph.n
            yield sample

    def _wrap_adam(self, original):
        def adam_step(*args, **kwargs):
            out = original(*args, **kwargs)
            self.ends.append(clock())
            self.tokens.append(0)
            if self.rec is not None:
                self.rec.end(self._span)
                self.rec.op += 1
                self._span = self.rec.begin("step")
            return out
        return adam_step

    def close(self):
        if self._span is not None:
            self.rec.spans[self._span].name = "tail"
            self.rec.end(self._span)
            self._span = None

    def step_seconds(self):
        starts = [self.first] + self.ends[:-1]
        return [e - s for s, e in zip(starts, self.ends)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count of the BLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "numpy" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def failed_ops(planned: int, completed: int, outputs_ok: bool) -> int:
    """Operations that count as failed: those never completed, and all of
    them when the repetition's outputs fail a check."""
    return planned if not outputs_ok else planned - completed


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_train(spec, gw, rec):
    cfg = gw.TrainConfig.from_dict(spec["config"])
    model = gw.build_model(cfg.d, cfg.k, cfg.layers, cfg.ffn_mult, cfg.vocab, seed=cfg.seed)
    cache = gw.SpectrumCache()
    steps = StepClock(rec)
    rebinder = Rebinder()
    result = None
    problems = []
    try:
        if rec is not None:
            layers.install(rec, rebinder)
        steps.install(rebinder)
        root = rec.begin("train_loop") if rec is not None else None
        try:
            result = gw.train_loop(model, cfg, out_dir=spec["out_dir"], cache=cache)
        except Exception as exc:  # a failed run is counted and reported, not raised
            traceback.print_exc()
            problems.append(f"train_loop raised {type(exc).__name__}: {exc}")
        finally:
            if rec is not None:
                steps.close()
                rec.end(root)
    finally:
        rebinder.restore()
    rss = peak_rss_mb()
    entries = len(cache)

    val_loss = None
    digests = {}
    if result is not None:
        if result.stopped_early or len(result.records) != cfg.steps:
            problems.append(f"stopped after {len(result.records)} of {cfg.steps} steps")
        final = result.final_val_loss
        if final is None or not math.isfinite(final):
            problems.append(f"validation loss {final!r} is not finite")
        ck_path = os.path.join(spec["out_dir"], "checkpoint.json")
        config, params = gw.load_checkpoint(ck_path)
        restored = gw.model_from_params(config, params)
        mode = cfg.mix_mode()
        for s in gw.fixed_samples(cfg.task_spec(), cfg.seed, 4, "eval"):
            a, _ = gw.model_forward(result.model, s.graph, s.tokens, mode, cache)
            b, _ = gw.model_forward(restored, s.graph, s.tokens, mode, cache)
            if not np.array_equal(a, b):
                problems.append("checkpoint round trip changed the logits")
                break
        digests = {name: _digest(os.path.join(spec["out_dir"], name))
                   for name in ("checkpoint.json", "metrics.csv")}
        if spec["deep_checks"]:
            # train_loop's own figure rests on 16 samples, too few to
            # compare seeds by; the held-out set is the reported loss.
            held_out = gw.fixed_samples(cfg.task_spec(), cfg.seed, HELD_OUT, "eval")
            val_loss, _ = gw.evaluate(result.model, held_out, mode, cache)

    first = steps.first if steps.first is not None else clock()
    return {
        "setup_s": first - spec["t0"],
        "op_seconds": steps.step_seconds(),
        "op_tokens": steps.tokens[: len(steps.ends)],
        "attempted": cfg.steps,
        "failed": failed_ops(cfg.steps, len(steps.ends), not problems),
        "problems": problems,
        "peak_rss_mb": rss,
        "val_loss": val_loss,
        "digests": digests,
        "cache_entries": entries,
        "layers": cfg.layers,
    }


def run_infer(spec, gw, rec):
    m = spec["model"]
    model = gw.build_model(m["d"], m["k"], m["layers"], m["ffn_mult"], m["vocab"], seed=spec["seed"])
    cache = gw.SpectrumCache()
    plan = [tuple(p) for p in spec["plan"]]

    def ids_of(i, n):
        return inputs.request_tokens(spec["seed"], i, n, m["vocab"])

    modes = {text: gw.parse_mix_mode(text) for _, text in plan}
    first_of_kind = {}  # (n, mode) -> (request index, logits)
    times, tokens, digests, problems = [], [], [], []
    bad = set()
    setup_end = None
    rebinder = Rebinder()
    try:
        if rec is not None:
            layers.install(rec, rebinder)
        for i, (n, text) in enumerate(plan):
            if setup_end is None:
                setup_end = clock()
            ids = ids_of(i, n)
            t0 = clock()
            if rec is not None:
                rec.op = i + 1
                span = rec.begin("request")
            try:
                logits, _ = gw.model_forward(model, gw.build_chain_graph(n), ids, modes[text], cache)
            except Exception as exc:  # a failed request is counted and reported
                traceback.print_exc()
                logits = None
                problems.append(f"request {i} (n={n}, {text}) raised {type(exc).__name__}: {exc}")
            finally:
                if rec is not None:
                    rec.end(span)
            times.append(clock() - t0)
            tokens.append(n)
            if logits is not None and not np.all(np.isfinite(logits)):
                problems.append(f"request {i} (n={n}, {text}) gave non-finite logits")
                logits = None
            if logits is None:
                bad.add(i)
                digests.append(None)
                continue
            digests.append(hashlib.sha256(logits.tobytes()).hexdigest())
            first_of_kind.setdefault((n, text), (i, logits))
    finally:
        rebinder.restore()
    rss = peak_rss_mb()
    entries = len(cache)

    # The untrained model's copy-task loss on its first request of each
    # kind: deterministic, and moved by any change to what is computed.
    losses = [gw.cross_entropy_loss(lg, ids_of(i, n), np.ones(n, dtype=bool))[0]
              for (n, _), (i, lg) in sorted(first_of_kind.items())]

    if spec["deep_checks"]:
        params = gw.model_params(model)
        spectra = {}
        for (n, text), (i, logits) in sorted(first_of_kind.items()):
            if n not in spectra:
                spectra = {n: reference.chain_spectrum(n)}
            ref, allowed = reference.reference_logits(params, m["layers"], m["k"], ids_of(i, n),
                                                        text, spectra[n])
            if not reference.within(logits, ref, allowed):
                bad.add(i)
                err = float(np.linalg.norm(logits - ref))
                problems.append(f"request {i} (n={n}, {text}) is {err:.3e} from the "
                                f"reference, allowed {allowed:.3e}")
    return {
        "setup_s": (setup_end if setup_end is not None else clock()) - spec["t0"],
        "op_seconds": times,
        "op_tokens": tokens,
        "attempted": len(plan),
        "failed": len(bad),
        "problems": problems,
        "peak_rss_mb": rss,
        "val_loss": float(np.mean(losses)) if losses else None,
        "digests": {"logits": digests},
        "cache_entries": entries,
        "layers": m["layers"],
    }


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["cpu"] is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, spec["src"])
    import gwmixer

    rec = SpanRecorder() if spec["trace"] else None
    run = run_train if spec["kind"] == "train" else run_infer
    out = run(spec, gwmixer, rec)
    out["env"] = environment()
    if rec is not None:
        out["layer_metrics"] = layers.layer_metrics(rec.spans, rec.sizes, out["layers"])
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w", encoding="utf-8") as fh:
                json.dump([s.as_list() for s in rec.spans], fh)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
