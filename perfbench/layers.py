"""Which gwmixer functions the traced run times, which layer metric each
one's self time adds to, and the per-layer metrics computed from spans.

Every ``_ms`` metric is a self time summed over the traced repetition, so
the time metrics together add up to the traced wall time (the benchmark's
own request loop aside). Counts are totals over the same repetition.
"""

from collections import Counter

from spans import self_times

MAX_LAYERS = 2

# (module, function, metric): the span is named after the function; None
# marks the per-layer blocks spans, which are resolved by call order.
TARGETS = (
    ("graphs", "build_chain_graph", "graphs.build_ms"),
    ("graphs", "symmetrize", "graphs.build_ms"),
    ("graphs", "parse_conllu", "graphs.parse_ms"),
    ("graphs", "normalized_laplacian", "graphs.laplacian_ms"),
    ("graphs", "content_hash", "graphs.hash_ms"),
    ("spectral", "eigendecompose", "spectral.eig_ms"),
    ("spectral", "SpectrumCache.get_or_compute", "spectral.cache_ms"),
    ("spectral", "chebyshev_fit", "spectral.cheb_fit_ms"),
    ("filterbank", "wavelet_mix", "filterbank.mix_fwd_ms"),
    ("filterbank", "wavelet_mix_backward", "filterbank.mix_bwd_ms"),
    ("filterbank", "bank_responses", "filterbank.filter_eval_ms"),
    ("filterbank", "filter_eval", "filterbank.filter_eval_ms"),
    ("filterbank", "filter_eval_grad", "filterbank.filter_grad_ms"),
    ("blocks", "layer_forward", None),
    ("blocks", "layer_backward", None),
    ("blocks", "model_forward", "blocks.model_fwd_ms"),
    ("blocks", "model_backward", "blocks.model_bwd_ms"),
    ("blocks", "checkpoint_text", "blocks.checkpoint_ms"),
    ("blocks", "save_checkpoint", "blocks.checkpoint_ms"),
    ("serialize", "dumps_canonical", "serialize.dumps_ms"),
    ("training", "metrics_csv", "serialize.dumps_ms"),
    ("tasks", "gen_task_batch", "tasks.gen_ms"),
    ("training", "cross_entropy_loss", "training.loss_ms"),
    ("training", "adam_step", "training.adam_ms"),
    ("training", "evaluate", "training.eval_ms"),
)

# Spans the benchmark opens itself. The training root and its step spans
# hold train_loop's own code; a request span holds only the benchmark's
# loop, which belongs to no layer.
OWN_SPANS = {
    "train_loop": "training.loop_self_ms",
    "step": "training.loop_self_ms",
    "tail": "training.loop_self_ms",
    "request": None,
}

_LAYER_MS = tuple(f"blocks.layer{i}.{d}_ms" for i in range(MAX_LAYERS) for d in ("fwd", "bwd"))

# Name and unit of every per-layer metric, in output order, grouped by
# layer, with the end-to-end metric each group should move.
PER_LAYER = (
    # tokens_per_s on train_trees (graph built and hashed per sample),
    # setup_s on train_trees (parse), tokens_per_s and peak_rss_mb on
    # infer_long (dense n x n Laplacian)
    ("graphs.build_ms", "ms"),
    ("graphs.parse_ms", "ms"),
    ("graphs.laplacian_calls", "count"),
    ("graphs.laplacian_ms", "ms"),
    ("graphs.hash_calls", "count"),
    ("graphs.hash_ms", "ms"),
    # tokens_per_s on train_trees and infer_long, step_p90_ms on infer_long
    # (cold lengths), peak_rss_mb on both
    ("spectral.eig_calls", "count"),
    ("spectral.eig_ms", "ms"),
    ("spectral.cache_lookups", "count"),
    ("spectral.cache_hit_ratio", "ratio"),
    ("spectral.cache_entries", "count"),
    ("spectral.cache_ms", "ms"),
    ("spectral.cheb_fit_calls", "count"),
    ("spectral.cheb_fit_ms", "ms"),
    # tokens_per_s on train_trees, step_p50_ms on infer_long (mix_fwd_ms
    # holds the Chebyshev recurrence)
    ("filterbank.mix_fwd_calls", "count"),
    ("filterbank.mix_fwd_ms", "ms"),
    ("filterbank.mix_bwd_ms", "ms"),
    ("filterbank.filter_eval_calls", "count"),
    ("filterbank.filter_eval_ms", "ms"),
    ("filterbank.filter_grad_calls", "count"),
    ("filterbank.filter_grad_ms", "ms"),
    ("filterbank.evals_per_sample", "count"),
    # step_p50_ms on every workload; a layer's self time is its FFN
    *((name, "ms") for name in _LAYER_MS),
    ("blocks.model_fwd_ms", "ms"),
    ("blocks.model_bwd_ms", "ms"),
    ("blocks.checkpoint_ms", "ms"),
    ("blocks.checkpoint_bytes", "B"),
    # tokens_per_s on train_trees (time a step waits for data)
    ("tasks.gen_calls", "count"),
    ("tasks.gen_ms", "ms"),
    # tokens_per_s on train_trees
    ("training.loss_ms", "ms"),
    ("training.adam_ms", "ms"),
    ("training.eval_ms", "ms"),
    ("training.loop_self_ms", "ms"),
    # tokens_per_s on train_trees (small)
    ("serialize.dumps_ms", "ms"),
    # the traced run itself, and the ungated run at default BLAS threads
    ("trace.ops", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("blas_default.threads", "count"),
    ("blas_default.step_p50_ms", "ms"),
    ("blas_default.eig_ms", "ms"),
)

# Metrics the run fills in from outside the span tree.
EXTERNAL = {"spectral.cache_entries", "trace.ops", "trace.overhead_ratio",
            "blas_default.threads", "blas_default.step_p50_ms", "blas_default.eig_ms"}


def install(recorder, rebinder):
    """Wrap every target function so that its calls record spans."""
    for module, fn, _ in TARGETS:
        size = len if fn == "checkpoint_text" else None
        bound = rebinder.replace(module, fn, lambda orig, fn=fn, size=size:
                                 recorder.traced(fn, orig, size))
        if not bound:
            raise LookupError(f"gwmixer.{module}.{fn} is bound nowhere")


def _metric_of(spans, n_layers):
    """The metric each span's self time adds to (None for no layer)."""
    table = {fn: metric for _, fn, metric in TARGETS}
    table.update(OWN_SPANS)
    order = Counter()
    out = []
    for s in spans:
        if s.name in ("layer_forward", "layer_backward"):
            nth = order[(s.parent, s.name)]
            order[(s.parent, s.name)] += 1
            fwd = s.name == "layer_forward"
            layer = nth if fwd else n_layers - 1 - nth
            if not 0 <= layer < min(n_layers, MAX_LAYERS):
                raise ValueError(f"layer index {layer} outside the {n_layers} traced layers")
            out.append(f"blocks.layer{layer}.{'fwd' if fwd else 'bwd'}_ms")
        else:
            out.append(table[s.name])
    return out


def layer_metrics(spans, sizes, n_layers):
    """Per-layer metrics (all of PER_LAYER except EXTERNAL) from a closed
    span list."""
    st = self_times(spans)
    values = {name: 0.0 for name, unit in PER_LAYER if name not in EXTERNAL}
    for metric, t in zip(_metric_of(spans, n_layers), st):
        if metric is not None:
            values[metric] += 1e3 * t
    time_total = sum(v for k, v in values.items() if k.endswith("_ms"))

    calls = Counter(s.name for s in spans)
    values["graphs.laplacian_calls"] = calls["normalized_laplacian"]
    values["graphs.hash_calls"] = calls["content_hash"]
    values["spectral.eig_calls"] = calls["eigendecompose"]
    values["spectral.cache_lookups"] = calls["SpectrumCache.get_or_compute"]
    values["spectral.cheb_fit_calls"] = calls["chebyshev_fit"]
    values["filterbank.mix_fwd_calls"] = calls["wavelet_mix"]
    values["filterbank.filter_eval_calls"] = calls["filter_eval"]
    values["filterbank.filter_grad_calls"] = calls["filter_eval_grad"]
    values["tasks.gen_calls"] = calls["gen_task_batch"]
    values["blocks.checkpoint_bytes"] = sizes.get("checkpoint_text", 0)

    # A lookup missed when an eigendecomposition ran inside it.
    missed = set()
    in_eval = []
    for s in spans:
        in_eval.append(s.name == "evaluate" or (s.parent >= 0 and in_eval[s.parent]))
        if s.name == "eigendecompose":
            p = s.parent
            while p >= 0 and spans[p].name != "SpectrumCache.get_or_compute":
                p = spans[p].parent
            if p >= 0:
                missed.add(p)
    lookups = calls["SpectrumCache.get_or_compute"]
    values["spectral.cache_hit_ratio"] = 1.0 - len(missed) / lookups if lookups else 0.0

    # Filter-MLP evaluations per sample, validation passes left out.
    evals = sum(1 for s, v in zip(spans, in_eval)
                if not v and s.name in ("filter_eval", "filter_eval_grad"))
    samples = sum(1 for s, v in zip(spans, in_eval) if not v and s.name == "model_forward")
    values["filterbank.evals_per_sample"] = evals / samples if samples else 0.0

    wall = 1e3 * sum(s.end - s.start for s in spans if s.parent < 0)
    values["trace.wall_ms"] = wall
    values["trace.accounted_ratio"] = time_total / wall if wall else 0.0
    return values
