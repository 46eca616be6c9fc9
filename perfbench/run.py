"""End-to-end benchmark of gwmixer, with a traced run for per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gwmixer from
src/. Workloads (each one client in a closed loop, driven only through
gwmixer's public API):

  train_trees  train_loop on the masked-recovery config of the
               learnability gate (d=32, K=4, accum 4) with 2 layers, over
               4000 seeded dependency trees written as CoNLL-U, so most
               samples bring a new graph
  infer_long   model_forward on chain sequences of 256..1536 tokens,
               half chebyshev:16 and half truncated:16, fresh spectrum cache

Each repetition is a fresh process doing the same seeded work, with BLAS
pinned to one thread and the process to one CPU. --trace 0 repeats until
--seconds is used up (at least three times, so set-up time is a median)
and prints the end-to-end metrics. --trace 1 runs one untraced
repetition, one traced, and one traced at the default BLAS thread count
(reported, not gated), and prints the per-layer metrics (see layers.py).
The last line of stdout is a JSON object
{"correct", "attempted", "failed", "metrics"}; a table and the software
environment go to stderr and to .perfbench_work/results/. The exit code
is 1 when any correctness check fails.

An operation is one optimizer step (training) or one request, from chain
graph to logits (inference). Every repetition does the same operations
in the same order, so each operation is timed once per repetition and
its time is the fastest of these. tokens_per_s counts the tokens of one
repetition per second of these operation times; step_p50_ms and
step_p90_ms are taken over them. setup_s (process start to first
operation) and peak_rss_mb are medians over repetitions. val_loss is the
trained model's loss on 256 held-out samples, or for infer_long the
untrained model's copy-task loss on the first request of each kind; both
are deterministic per seed. fail_ratio (failed / attempted operations) is
printed on stderr and carried by the "failed" and "attempted" fields.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median, quantiles

import inputs
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
MIN_REPS = 3
REP_TIMEOUT_S = 150
TOTAL_LIMIT_S = 170

WORKLOADS = {
    "train_trees": {"kind": "train", "config": dict(
        d=32, k=4, layers=2, ffn_mult=4, vocab=64, task="masked_recovery", n=32, mask_rate=0.25,
        lr=1e-3, warmup=500, accum=4, mode="exact", steps=100)},
    "infer_long": {"kind": "infer", "model": dict(d=32, k=4, layers=2, ffn_mult=4, vocab=64)},
}

END_TO_END = (
    ("tokens_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("val_loss", "nats"),
)


def make_inputs(name, seed, wdir):
    """The workload's seeded inputs; only these reach gwmixer."""
    wl = WORKLOADS[name]
    spec = {"kind": wl["kind"], "seed": seed, "src": SRC}
    if wl["kind"] == "train":
        spec["config"] = dict(wl["config"], seed=seed)
        if name == "train_trees":
            path = os.path.join(wdir, "trees.conllu")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.tree_conllu(seed))
            spec["config"]["conllu"] = path
    else:
        spec["model"] = wl["model"]
        spec["plan"] = inputs.infer_plan(seed)
    return spec


def run_rep(spec, wdir, tag, trace, cpu, deep_checks, deadline):
    """One repetition in a fresh process; returns its result dict. With a
    cpu, the process runs there with one BLAS thread; without, it may use
    every CPU and the default BLAS thread count. Only a repetition with
    deep_checks compares against the dense reference (inference) or
    measures the held-out loss (training)."""
    rdir = os.path.join(wdir, tag)
    os.makedirs(rdir)
    spec = dict(spec, trace=trace, cpu=cpu, deep_checks=deep_checks, out_dir=rdir,
                result_path=os.path.join(rdir, "result.json"),
                spans_path=os.path.join(rdir, "spans.json") if trace else None)
    env = dict(os.environ)
    for var in BLAS_ENV:
        if cpu is not None:
            env[var] = PINNED_THREADS
        else:
            env.pop(var, None)
    spec_path = os.path.join(rdir, "spec.json")
    spec["t0"] = time.perf_counter()
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workload.py"), spec_path],
                            env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, min(REP_TIMEOUT_S, deadline - time.monotonic())))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"repetition {tag} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"repetition {tag} exited with code {code}")
    with open(spec["result_path"], encoding="utf-8") as fh:
        return json.load(fh)


def check_repeatable(reps):
    """Same seed, same pinned threads: outputs must be byte-identical. A
    repetition that differs has all its operations failed."""
    problems = []
    for i, rep in enumerate(reps[1:], start=2):
        if rep["digests"] != reps[0]["digests"]:
            rep["failed"] = rep["attempted"]
            problems.append(f"repetition {i} output differs from repetition 1")
    return problems


def end_to_end(reps):
    """End-to-end metrics of repetitions that did the same operations.

    Each operation's time is its fastest over the repetitions. On a
    2-vCPU VM whose host cores are shared, a CPU ran the same code up to
    1.7x slower for periods of seconds to minutes, and a run's median over
    all repetitions moved by up to a quarter between runs. An operation's
    fastest time needs only one repetition in a quiet period."""
    ops = [min(ts) for ts in zip(*(r["op_seconds"] for r in reps))]
    toks = sum(reps[0]["op_tokens"][: len(ops)])
    vals = [r["val_loss"] for r in reps if r["val_loss"] is not None]
    return {
        "tokens_per_s": toks / sum(ops),
        "step_p50_ms": 1e3 * median(ops),
        "step_p90_ms": 1e3 * quantiles(ops, n=10, method="inclusive")[-1],
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "val_loss": median(vals) if vals else None,
    }, len(ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "gwmixer", "__init__.py")):
        print(f"error: no gwmixer sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # On SIGTERM, exit through Python so that run_rep stops and reaps the
    # workload process it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    wdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    spec = make_inputs(args.workload, args.seed, wdir)

    try:
        return measure(args, spec, wdir, started + TOTAL_LIMIT_S)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def timed_run(spec, wdir, seconds, deadline):
    """Untraced repetitions until `seconds` are used up, at least MIN_REPS;
    only the first runs the deep checks. Repetitions take the CPUs in turn:
    on a shared host each CPU's speed drifts on its own, so the fastest
    time of an operation comes from whichever CPU was quiet."""
    cpus = sorted(os.sched_getaffinity(0))
    reps = []
    measure_end = time.monotonic() + seconds
    while True:
        t = time.monotonic()
        cpu = cpus[len(reps) % len(cpus)]
        reps.append(run_rep(spec, wdir, f"rep{len(reps) + 1}", False, cpu, not reps, deadline))
        took = time.monotonic() - t
        if len(reps) >= MIN_REPS and time.monotonic() + took > measure_end:
            break
    problems = check_repeatable(reps)
    metrics, samples = end_to_end(reps)
    return metrics, dict(END_TO_END), samples, reps, problems


def traced_run(spec, wdir, deadline):
    """One untraced and one traced repetition with pinned threads, then one
    traced at the default thread count."""
    cpu = min(os.sched_getaffinity(0))
    plain = run_rep(spec, wdir, "untraced", False, cpu, True, deadline)
    traced = run_rep(spec, wdir, "traced", True, cpu, False, deadline)
    default = run_rep(spec, wdir, "traced-default-threads", True, None, False, deadline)
    problems = check_repeatable([plain, traced])
    metrics = dict(traced["layer_metrics"])
    metrics["spectral.cache_entries"] = traced["cache_entries"]
    metrics["trace.ops"] = len(traced["op_seconds"])
    metrics["trace.overhead_ratio"] = sum(traced["op_seconds"]) / sum(plain["op_seconds"])
    metrics["blas_default.threads"] = default["env"]["blas_threads"] or 0
    metrics["blas_default.step_p50_ms"] = 1e3 * median(default["op_seconds"])
    metrics["blas_default.eig_ms"] = default["layer_metrics"]["spectral.eig_ms"]
    return metrics, dict(layers.PER_LAYER), metrics["trace.ops"], [plain, traced, default], problems


def measure(args, spec, wdir, deadline) -> int:
    if args.trace:
        metrics, units, samples, reps, problems = traced_run(spec, wdir, deadline)
    else:
        metrics, units, samples, reps, problems = timed_run(spec, wdir, args.seconds, deadline)
    for i, rep in enumerate(reps, start=1):
        problems.extend(f"repetition {i}: {p}" for p in rep["problems"])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not problems and failed == 0

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "samples": samples,
        "fail_ratio": failed / attempted if attempted else 1.0, "problems": problems,
        "env": [r["env"] for r in reps], "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", os.path.basename(wdir) + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_table(report, units, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def print_table(report, units, file):
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"repetitions={len(report['env'])} samples={report['samples']} "
          f"fail_ratio={report['fail_ratio']:.4g}", file=file)
    for env in {json.dumps(e, sort_keys=True): e for e in report["env"]}.values():
        print(f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
              f"blas {env['blas']} threads={env['blas_threads']} nproc={env['nproc']}", file=file)
    for name, unit in units.items():
        print(f"{name:32s} {report['metrics'][name]:14.6g} {unit}", file=file)
    for p in report["problems"]:
        print(f"FAILED: {p}", file=file)


if __name__ == "__main__":
    sys.exit(main())
