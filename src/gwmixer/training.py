"""Optimization: Noam-style schedule, Adam, masked cross entropy, the
training loop, and a finite-difference gradient checker.

Everything is deterministic for a fixed config and seed: the task
streams, initialization, and float serialization are all pinned, so two
identical runs produce byte-identical checkpoints and metric traces.
"""

import os
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .blocks import (
    WaveletLayer,
    WaveletModel,
    batch_forward,
    build_feed_forward,
    build_model,
    layer_backward,
    layer_forward,
    model_backward,
    model_params,
    save_checkpoint,
)
from .filterbank import (
    FILTER_TENSORS,
    MixMode,
    _bank_eval,
    _bank_grad,
    build_filter_bank,
    filter_eval,
    named_bank_tensors,
    wavelet_mix,
    wavelet_mix_backward,
)
from .graphs import _require_array, build_chain_graph, require_int, require_int_array
from .graphs import require_real, require_real_array
from .serialize import fmt_float, write_text_atomic
from .spectral import SpectrumCache, parse_mix_mode
from .tasks import TaskSpec, check_mode, fixed_samples, gen_task_batch, task_stream

VAL_INTERVAL = 250
VAL_BATCHES = 16
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class ScheduleConfig:
    """base_lr is a finite number >= 0 (0 freezes the model), kept as a
    float; warmup_steps an integer >= 1."""

    base_lr: float = 5e-4
    warmup_steps: int = 4000

    def __post_init__(self):
        object.__setattr__(self, "base_lr", require_real("base_lr", self.base_lr, 0))
        require_int("warmup_steps", self.warmup_steps, 1)


def lr_at(cfg: ScheduleConfig, step: int) -> float:
    """Linear warmup to base_lr, then inverse square-root decay. Continuous
    at the warmup boundary; steps start at 1."""
    step = require_int("step", step, 1)
    if step <= cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    return cfg.base_lr * np.sqrt(cfg.warmup_steps / step)


@dataclass
class TrainState:
    """Named parameters plus gradients and Adam moments on flat float64
    buffers laid out in params order. params aliases live model arrays,
    which adam_step updates in place; grads[name] is a view into
    grad_buf shaped like params[name]."""

    params: dict
    grads: dict
    grad_buf: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    step: int = 0


def init_train_state(params: dict) -> TrainState:
    size = sum(np.size(p) for p in params.values())
    grad_buf = np.zeros(size)
    grads = {}
    start = 0
    for name, p in params.items():
        grads[name] = grad_buf[start:start + p.size].reshape(p.shape)
        start += p.size
    return TrainState(params, grads, grad_buf, np.zeros(size), np.zeros(size))


def adam_step(state: TrainState, lr: float) -> TrainState:
    """Standard Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) with bias
    correction, one update over the flat buffers. Increments step, zeroes
    grads. lr is a finite number >= 0. Non-finite gradients abort, naming
    the offending tensor. Both are checked before anything is updated."""
    lr = require_real("lr", lr, 0)
    g = state.grad_buf
    if not np.all(np.isfinite(g)):
        bad = next(name for name, gv in state.grads.items() if not np.all(np.isfinite(gv)))
        raise ValueError(f"non-finite gradient in parameter {bad!r}")
    t = state.step + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    m = state.adam_m
    v = state.adam_v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    g[...] = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)  # the update, laid out like the grads
    for p, update in zip(state.params.values(), state.grads.values()):
        p -= update
    g[...] = 0.0
    state.step = t
    return state


def _check_scored(logits: np.ndarray, targets, mask):
    """logits (N, V) real, targets (N,) integer ids below V and mask (N,)
    bool as arrays, checked as cross_entropy_loss and token_accuracy take
    them, each by the one array rule (graphs._require_array): none is cast,
    as a float mask's 0.2 would score its row."""
    targets = require_int_array("targets", targets)
    logits = require_real_array("logits", logits)
    mask = _require_array("mask", mask, "b", "a bool")
    if logits.ndim != 2 or targets.shape != (logits.shape[0],) or mask.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: logits {logits.shape}, targets {targets.shape}, mask {mask.shape}"
        )
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= logits.shape[1]:
        raise ValueError("target id out of range")
    return logits, targets, mask


def cross_entropy_loss(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray,
                       sizes=None):
    """Mean negative log likelihood over scored positions (mask True).

    Returns (loss, grad_logits); the gradient is (softmax - onehot)/count
    on scored rows and zero elsewhere. Max-subtraction keeps the softmax
    stable for large logits. sizes, the row counts of samples stacked in
    order (one sample of all rows by default), makes the loss the mean of
    the samples' own losses, and the gradient that mean's; sizes are integers >= 1.
    """
    return _sample_losses(logits, targets, mask, sizes, grad=True)


def _sample_losses(logits, targets, mask, sizes, grad: bool):
    """cross_entropy_loss, whose gradient is formed only with grad (else
    None): the loss bytes are the same either way."""
    logits, targets, mask = _check_scored(logits, targets, mask)
    sizes = [len(targets)] if sizes is None else sizes
    empty = isinstance(sizes, (list, tuple)) and not sizes  # [] (float64 to NumPy): shape message
    sizes = np.zeros(0, np.int64) if empty else require_int_array("sample sizes", sizes)
    if sizes.ndim != 1 or len(sizes) == 0 or sizes.min() < 1 or sizes.sum() != len(targets):
        raise ValueError(f"shape mismatch: sample sizes {sizes.tolist()} for {len(targets)} rows")
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    counts = np.diff(np.concatenate(([0], np.cumsum(mask)))[bounds])
    if counts.min() == 0:
        raise ValueError("mask scores no positions")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    rows = np.arange(len(targets))
    picked = z[rows, targets] - np.log(denom[:, 0])  # log softmax at the targets alone
    losses = [-float(picked[a:b][mask[a:b]].sum()) / int(count)
              for a, b, count in zip(bounds[:-1], bounds[1:], counts)]
    loss = sum(losses) / len(losses)
    if not grad:
        return loss, None
    ez /= denom
    ez[rows, targets] -= 1.0
    ez *= (mask / np.repeat(counts * len(sizes), sizes))[:, None]
    return loss, ez


def token_accuracy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of scored positions where argmax(logits) hits the target.
    Inputs are checked as cross_entropy_loss checks them."""
    logits, targets, mask = _check_scored(logits, targets, mask)
    if not mask.any():
        raise ValueError("mask scores no positions")
    pred = np.argmax(logits, axis=1)
    return float((pred[mask] == targets[mask]).mean())


# every integer field of TrainConfig outside its TaskSpec, and its least valid value
INT_MINIMUMS = {"d": 1, "k": 1, "layers": 1, "ffn_mult": 1, "steps": 1, "accum": 1,
                "patience": 1, "warmup": 1, "seed": 0}


@dataclass(frozen=True)
class TrainConfig:
    d: int = 32
    k: int = 4
    layers: int = 2
    ffn_mult: int = 4
    vocab: int = 32
    task: str = "copy"
    n: int = 16
    steps: int = 2000
    seed: int = 0
    lr: float = 5e-4
    warmup: int = 4000
    mode: str = "exact"  # parse_mix_mode syntax: exact, truncated:M or chebyshev:P
    accum: int = 1
    patience: int = 10
    mask_rate: float = 0.25
    conllu: str | None = None

    def __post_init__(self):
        for name, low in INT_MINIMUMS.items():
            require_int(name, getattr(self, name), low)
        require_real("lr", self.lr, 0)
        spec = self.task_spec()  # task, n, vocab, mask_rate and conllu
        try:
            mix = parse_mix_mode(self.mode)
        except ValueError as exc:
            raise ValueError(f"mode {self.mode!r} is invalid: {exc}") from None
        if self.conllu is None:  # a chain: checked here, as that reads no file
            try:
                check_mode(spec, mix)
            except ValueError as exc:
                raise ValueError(f"mode {exc}") from None

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def mix_mode(self) -> MixMode:
        return parse_mix_mode(self.mode)

    def task_spec(self) -> TaskSpec:
        return TaskSpec(self.task, self.n, self.vocab, self.mask_rate, self.conllu)


def model_from_params(config: dict, params: dict) -> WaveletModel:
    """Rebuild a model from a checkpoint's config and params. The config is
    read by TrainConfig.from_dict, so it answers to every rule a training
    config does (keys it leaves out take their defaults); param names and
    shapes must match the architecture it describes, and each param be a
    real array (require_real_array)."""
    cfg = TrainConfig.from_dict(config)
    model = build_model(cfg.d, cfg.k, cfg.layers, cfg.ffn_mult, cfg.vocab, seed=0)
    live = model_params(model)
    missing = set(live) - set(params)
    extra = set(params) - set(live)
    if missing or extra:
        raise ValueError(f"parameter name mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    for name, arr in live.items():
        src = require_real_array(f"param {name!r}", params[name])
        if src.shape != arr.shape:
            raise ValueError(f"{name}: shape {src.shape} != expected {arr.shape}")
        arr[...] = src
    return model


@dataclass
class StepRecord:
    step: int
    loss: float
    lr: float
    grad_norm: float


@dataclass
class TrainResult:
    model: WaveletModel
    records: list
    val_history: list  # (step, val_loss)
    final_val_loss: float | None
    stopped_early: bool


def metrics_csv(records) -> str:
    lines = ["step,loss,lr,grad_norm"]
    for r in records:
        lines.append(f"{r.step},{fmt_float(r.loss)},{fmt_float(r.lr)},{fmt_float(r.grad_norm)}")
    return "\n".join(lines) + "\n"


def _stacked_loss(model: WaveletModel, samples, mode: MixMode, cache: SpectrumCache,
                  return_tape: bool = False):
    """One batch_forward over the samples' stacked rows, scored by
    cross_entropy_loss with their sizes: (mean of their losses, its
    gradient on the logits, the tape, (logits, targets, mask)). Without
    return_tape the tape and the gradient are None, and no gradient is
    formed."""
    logits, tape = batch_forward(model, [s.graph for s in samples],
                                 [s.tokens for s in samples], mode, cache, return_tape)
    targets = np.concatenate([s.targets for s in samples])
    mask = np.concatenate([s.mask for s in samples])
    sizes = [s.graph.n for s in samples]
    loss, grad_logits = (cross_entropy_loss(logits, targets, mask, sizes) if return_tape
                         else _sample_losses(logits, targets, mask, sizes, grad=False))
    return loss, grad_logits, tape, (logits, targets, mask)


def evaluate(model: WaveletModel, samples, mode: MixMode,
             cache: SpectrumCache | None = None):
    """Mean loss over a non-empty iterable of TaskSamples, and token
    accuracy over all their scored positions, from the training step's
    stacked pass without a tape, one per VAL_BATCHES samples (so one per
    validation). Spectra come from cache, or one fresh cache per call."""
    cache = cache if cache is not None else SpectrumCache()
    samples = iter(samples)
    losses, right = [], []  # per sample; per scored position, whether argmax hit
    while chunk := list(islice(samples, VAL_BATCHES)):
        loss, _, _, (logits, targets, mask) = _stacked_loss(model, chunk, mode, cache)
        losses += [loss] * len(chunk)  # the chunk's mean for each of its samples
        right.append((logits.argmax(axis=1) == targets)[mask])
    if not losses:
        raise ValueError("evaluate needs at least one sample")
    return float(np.mean(losses)), float(np.concatenate(right).mean())


def train_loop(model: WaveletModel, cfg: TrainConfig, out_dir: str | None = None,
               cache: SpectrumCache | None = None) -> TrainResult:
    """Run cfg.steps optimizer steps, each averaging cfg.accum samples,
    pulled one by one from the task stream and run as one batch_forward,
    one cross_entropy_loss and one model_backward.

    Validates (and checkpoints, when out_dir is set) every VAL_INTERVAL
    steps and at the last step; stops early after cfg.patience validation
    rounds without improvement. A non-finite loss aborts with the last
    checkpoint left on disk. A chebyshev mode, which has no backward
    pass, and a mode that does not fit every graph the task draws
    (check_mode) are rejected before anything is written.
    """
    mode = cfg.mix_mode()
    if mode.kind == "chebyshev":
        raise ValueError(f"mode {mode} is inference-only; train in exact or truncated mode")
    cache = cache if cache is not None else SpectrumCache()
    spec = cfg.task_spec()
    check_mode(spec, mode)
    stream = task_stream(spec, cfg.seed, "train")
    val_set = fixed_samples(spec, cfg.seed, VAL_BATCHES, "val")
    state = init_train_state(model_params(model))
    schedule = ScheduleConfig(cfg.lr, cfg.warmup)

    def write_checkpoint():
        if out_dir is not None:
            save_checkpoint(os.path.join(out_dir, "checkpoint.json"), cfg.to_dict(), state.params)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    write_checkpoint()

    records = []
    val_history = []
    best_val = np.inf
    stale = 0
    stopped_early = False
    for step in range(1, cfg.steps + 1):
        samples = [next(stream) for _ in range(cfg.accum)]
        mean_loss, grad_logits, tape, _ = _stacked_loss(model, samples, mode, cache,
                                                        return_tape=True)
        if not np.isfinite(mean_loss):
            raise ValueError(f"non-finite loss {mean_loss!r} at step {step}; aborting")
        for grad, step_grad in zip(state.grads.values(),
                                   model_backward(model, tape, grad_logits).values()):
            grad += step_grad
        grad_norm = float(np.sqrt((state.grad_buf * state.grad_buf).sum()))
        lr = lr_at(schedule, step)
        adam_step(state, lr)
        records.append(StepRecord(step, mean_loss, lr, grad_norm))
        if step % VAL_INTERVAL == 0 or step == cfg.steps:
            val_loss, _ = evaluate(model, val_set, mode, cache)
            val_history.append((step, val_loss))
            write_checkpoint()
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    stopped_early = True
                    break
    if out_dir is not None:
        write_text_atomic(os.path.join(out_dir, "metrics.csv"), metrics_csv(records))
    final_val = val_history[-1][1] if val_history else None
    return TrainResult(model, records, val_history, final_val, stopped_early)


# ---------------------------------------------------------------------------
# finite-difference gradient checking

FD_FLOOR = 1e-6  # relative-error denominator floor; FD noise sits well below


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    selector: str
    tol: float
    entries: list
    passed: bool

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


def _rel_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(0.5 * (np.abs(analytic) + np.abs(numeric)), FD_FLOOR)
    return np.abs(analytic - numeric) / denom


def _fd_check(params: dict, loss_fn, analytic: dict, step: float) -> list:
    entries = []
    for name, p in params.items():
        num = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_n = num.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = loss_fn()
            flat_p[i] = orig - step
            down = loss_fn()
            flat_p[i] = orig
            flat_n[i] = (up - down) / (2.0 * step)
        err = _rel_errors(require_real_array(f"gradient {name}", analytic[name]), num)
        entries.append(GradCheckEntry(name, float(err.max()) if err.size else 0.0))
    return entries


def _named_layer_tensors(layer: WaveletLayer) -> dict:
    """A layer's arrays, or its gradient's, under the names grad_check
    reports: the bank's (filters.{k}.*, alpha), then ffn.*."""
    named = named_bank_tensors(layer.bank)
    for name in ("w1", "b1", "w2", "b2"):
        named[f"ffn.{name}"] = getattr(layer.ffn, name)
    return named


def grad_check(selector: str = "model", seed: int = 0, step: float = 1e-5,
               tol: float = 1e-4, corrupt=None) -> GradCheckReport:
    """Compare hand-written gradients against central differences.

    Selectors: "filter" (weighted filter values, through the bank
    contraction wavelet_mix_backward trains with), "mix" (0.5 ||Y||^2 of
    wavelet_mix), "layer" (0.5 ||y||^2 of one layer), "model" (cross
    entropy of the full model, the acceptance configuration). `corrupt`
    is a test hook applied to the analytic gradient dict before
    comparison. step must be finite and > 0, tol finite and >= 0 and seed
    an integer >= 0; each is checked before anything is evaluated.
    """
    step = require_real("step", step, 0, strict=True)
    tol = require_real("tol", tol, 0)
    rng = np.random.default_rng(require_int("seed", seed, 0))
    if selector == "filter":
        f = build_filter_bank(1, 1, seed=seed)
        lam = rng.uniform(0.0, 2.0, 12)
        wts = rng.standard_normal(12)
        params = {name: getattr(f, name) for name in FILTER_TENSORS}

        def loss_fn():
            return float(wts @ filter_eval(f, lam))

        lam_c, t, y, _ = _bank_eval(f, lam)
        analytic = dict(zip(FILTER_TENSORS, _bank_grad(f, lam_c, t, y, wts[None, :])))
    elif selector in ("mix", "layer"):
        n, d, k = 6, 4, 2
        mode = MixMode.exact()
        eig = SpectrumCache().operand([build_chain_graph(n)], mode)
        x = rng.standard_normal((n, d))
        bank = build_filter_bank(k, d, seed=seed)
        if selector == "mix":
            params = named_bank_tensors(bank)

            def loss_fn():
                y = wavelet_mix(bank, eig, x, mode)
                return 0.5 * float((y * y).sum())

            y, tape = wavelet_mix(bank, eig, x, mode, return_tape=True)
            analytic = named_bank_tensors(wavelet_mix_backward(bank, tape, y)[1])
        else:
            layer = WaveletLayer(bank, build_feed_forward(d, 4, rng))
            params = _named_layer_tensors(layer)

            def loss_fn():
                y, _ = layer_forward(layer, eig, x, mode)
                return 0.5 * float((y * y).sum())

            y, tape = layer_forward(layer, eig, x, mode)
            analytic = _named_layer_tensors(layer_backward(layer, tape, y)[1])
    elif selector == "model":
        # acceptance configuration: n=6, d=8, K=2, 2 layers, vocab 11
        spec = TaskSpec("copy", 6, 11)
        sample = gen_task_batch(spec, seed)
        model = build_model(d=8, k=2, layers=2, ffn_mult=4, vocab=11, seed=seed)
        cache = SpectrumCache()
        mode = MixMode.exact()
        params = model_params(model)

        def loss_fn():
            return _stacked_loss(model, [sample], mode, cache)[0]

        _, grad_logits, tape, _ = _stacked_loss(model, [sample], mode, cache,
                                                return_tape=True)
        analytic = model_backward(model, tape, grad_logits)
    else:
        raise ValueError(f"unknown selector {selector!r}")

    if corrupt is not None:
        analytic = corrupt(analytic)
    entries = _fd_check(params, loss_fn, analytic, step)
    worst = max((e.max_rel_err for e in entries), default=0.0)
    return GradCheckReport(selector, tol, entries, worst <= tol)

