"""Learnable spectral filter banks and the wavelet mixing operator.

Each filter is a tiny 1-16-1 MLP g(lambda) = softplus(w2.tanh(w1 lambda
+ b1) + b2), nonnegative by construction. A bank of K filters mixes node
features as

    Y = sum_k U g_k(Lam) U^T X diag(alpha_k)

evaluated exactly on the full eigenbasis, on the m smoothest modes
(truncated), or, inference only, without any eigenbasis through one
Chebyshev recurrence of sparse products with a ChebyshevOperator's
A2 = 2(L - I), the bank's coefficients and alpha folded together.
Backward treats U and Lam as constants.

FilterBank is the one filter type. It stores K filters stacked, as
(K, H) arrays, and evaluates all of them in one pass (one broadcast tanh,
one batched contraction). A single filter is a one-row bank (bank.filters
holds K of them, views of the bank's rows), which filter_eval and
filter_eval_grad take; the gradient of a bank is a bank of the same
shapes.

The mix runs over one operand, as SpectrumCache.operand builds it: an
EigenSystem, or the EigenStack of all the graphs of an optimizer step,
whose signals are stacked by rows and whose bank is evaluated once, at
their concatenated eigenvalues, so the only per-graph work is the two U
products; in Chebyshev mode a ChebyshevOperator, for several graphs
that of their disjoint union. An exact or truncated forward keeps the
operand, the bank's tanh layer, its pre-softplus output and U^T x on a
MixTape, all that the backward reads. One contraction, _bank_grad, forms
every filter gradient as (K, M) x (K, M, H) products, with no gradient per
eigenvalue: wavelet_mix_backward's, grad_check("filter")'s and, a lambda
per row, filter_eval_grad's.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import require_int
from .serialize import fmt_float
from .spectral import (
    LAMBDA_MAX,
    ChebyshevOperator,
    EigenStack,
    EigenSystem,
    MixMode,
    as_signal,
    chebyshev_nodes,
    chebyshev_series,
    require_mode,
)

HIDDEN = 16  # filter MLP width; checkpoints are reloaded at this width
FILTER_TENSORS = ("w1", "b1", "w2", "b2")


@dataclass
class FilterBank:
    """K filters stored stacked: w1, b1, w2 of shape (K, H), b2 of shape
    (K,), and per-filter channel gains alpha of shape (K, d).

    A single filter is a bank with K = 1, and the gradient of a bank is a
    bank of the same shapes. Construction checks shapes only, with no
    scan over values, since backward builds a gradient bank per call.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        shape = getattr(self.w1, "shape", None)
        if shape is None or len(shape) != 2 or shape[0] < 1:
            raise ValueError(f"FilterBank w1 must have shape (K, H) with K >= 1, got {shape}")
        k = shape[0]
        for name, want in (("b1", shape), ("w2", shape), ("b2", (k,))):
            got = getattr(getattr(self, name), "shape", None)
            if got != want:
                raise ValueError(f"FilterBank {name} must have shape {want}, got {got}")
        got = getattr(self.alpha, "shape", None)
        if got is None or len(got) != 2 or got[0] != k:
            raise ValueError(f"FilterBank alpha must have shape ({k}, d), got {got}")

    @property
    def k(self) -> int:
        return len(self.b2)

    @property
    def d(self) -> int:
        return self.alpha.shape[1]

    @property
    def filters(self) -> tuple:
        """K one-filter banks whose arrays are views of row k (slice
        k:k+1), so writing through a filter writes the bank."""
        return tuple(FilterBank(self.w1[k:k + 1], self.b1[k:k + 1], self.w2[k:k + 1],
                                self.b2[k:k + 1], self.alpha[k:k + 1])
                     for k in range(self.k))


def draw_filter_bank(rng: np.random.Generator, k: int, d: int) -> FilterBank:
    """K filters drawn from rng in index order, each as w1, b1, w2 and then
    the scalar b2, Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer (fan_in
    1 for the input layer, HIDDEN for the output layer); alpha filled with
    1/K."""
    bound2 = 1.0 / np.sqrt(HIDDEN)
    w1, b1, w2 = (np.empty((k, HIDDEN)) for _ in range(3))
    b2 = np.empty(k)
    for row in range(k):
        w1[row] = rng.uniform(-1.0, 1.0, HIDDEN)
        b1[row] = rng.uniform(-1.0, 1.0, HIDDEN)
        w2[row] = rng.uniform(-bound2, bound2, HIDDEN)
        b2[row] = rng.uniform(-bound2, bound2)
    return FilterBank(w1, b1, w2, b2, np.full((k, d), 1.0 / k))


def build_filter_bank(k: int, d: int, seed: int = 0) -> FilterBank:
    """Seeded bank of k filters over d channels, both integers >= 1 (seed
    an integer >= 0): filters drawn in index order, alpha filled with 1/K."""
    k, d = require_int("k", k, 1), require_int("d", d, 1)
    return draw_filter_bank(np.random.default_rng(require_int("seed", seed, 0)), k, d)


def _bank_eval(bank: FilterBank, lam: np.ndarray):
    """All K filters at once: one broadcast tanh and one batched
    contraction. Returns clamped lam (m,), t (K, m, H), y (K, m) before
    the softplus head, and g = softplus(y) (K, m)."""
    lam = np.clip(lam, 0.0, LAMBDA_MAX)
    t = np.tanh(bank.w1[:, None, :] * lam[:, None] + bank.b1[:, None, :])
    y = (t @ bank.w2[:, :, None])[..., 0] + bank.b2[:, None]
    return lam, t, y, np.logaddexp(0.0, y)


def _expit(y: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-y)). exp(-y) overflows to inf
    for y below about -709, which gives the right limit 0, so the overflow
    warning is silenced."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-y))


def _bank_grad(bank: FilterBank, lam: np.ndarray, t: np.ndarray, y: np.ndarray, dg):
    """Gradients (w1, b1, w2, b2) from _bank_eval's clamped lam, t and y and
    dg = dLoss/dg, shaped as y: dy = dg softplus'(y) meets t and 1 - t^2 in
    (K, 1 or 2, M) x (K, M, H) products, summed over the M eigenvalues."""
    dy = dg * _expit(y)  # (K, M)
    # sums over i of dy (1 - t^2) and of dy lam (1 - t^2): the b1 and w1 gradients over w2
    sech2 = np.square(t)
    np.subtract(1.0, sech2, out=sech2)  # tanh' = 1 - t^2, in place
    dz = np.stack((dy, dy * lam), axis=1) @ sech2  # (K, 2, H)
    return bank.w2 * dz[:, 1], bank.w2 * dz[:, 0], (dy[:, None, :] @ t)[:, 0], dy.sum(axis=1)


def _finite_lambda(lam) -> np.ndarray:
    """lam as a 1-D float64 array: a real scalar or a 1-D array of integer
    or float dtype, all finite. Anything else is a ValueError naming it."""
    arr = np.asarray(lam)
    if arr.dtype.kind not in "iuf" or arr.ndim > 1:
        raise ValueError(f"lambda must be a real scalar or 1-D array, got {arr.dtype} "
                         f"of shape {arr.shape}")
    arr = np.atleast_1d(arr.astype(np.float64, copy=False))
    if not np.all(np.isfinite(arr)):
        raise ValueError("lambda must be finite")
    return arr


def _one_filter(f: FilterBank) -> FilterBank:
    if f.k != 1:
        raise ValueError(f"need a one-filter bank such as bank.filters[k], got K={f.k}")
    return f


def filter_eval(f: FilterBank, lam) -> np.ndarray:
    """g(lambda) of a one-filter bank, vectorized over lambda. Input is
    clamped into [0, 2]; output is strictly positive (softplus head)."""
    out = _bank_eval(_one_filter(f), _finite_lambda(lam))[3][0]
    return out if np.ndim(lam) else out[0]


def filter_eval_grad(f: FilterBank, lam):
    """Value and parameter gradients of a one-filter bank's g at each lambda.

    Returns (values, grads) where grads has keys w1/b1/w2/b2. For array
    input the gradient arrays carry a leading lambda axis: each lambda is
    a row of its own for _bank_grad, whose contraction then sums one term.
    """
    lam_c, t, y, out = _bank_eval(_one_filter(f), _finite_lambda(lam))
    grads = dict(zip(FILTER_TENSORS, _bank_grad(f, lam_c[:, None], t[0][:, None], y.T, 1.0)))
    if np.ndim(lam):
        return out[0], grads
    return out[0, 0], {name: g[0, ...] for name, g in grads.items()}


def bank_responses(bank: FilterBank, lam: np.ndarray) -> np.ndarray:
    """Stacked responses g_k(lam), shape (K, m), from one evaluation of
    all K filters."""
    out = _bank_eval(bank, _finite_lambda(lam))[3]
    return out if np.ndim(lam) else out[:, 0]


def _check_mix_args(bank: FilterBank, operand, x: np.ndarray, mode: MixMode) -> np.ndarray:
    """x as a signal over operand, which must be what SpectrumCache.operand
    gives mode, a MixMode: a ChebyshevOperator for chebyshev, else an
    EigenSystem or EigenStack whose every system holds mode.pairs(n)
    pairs. Anything else is a ValueError naming what mode mixes over."""
    cheb = require_mode(mode).kind == "chebyshev"
    if not isinstance(operand, ChebyshevOperator if cheb else (EigenSystem, EigenStack)):
        what = "a ChebyshevOperator" if cheb else "an EigenSystem or EigenStack"
        raise ValueError(f"{mode} mode mixes over {what}, got {type(operand).__name__}")
    for s in () if cheb else getattr(operand, "systems", (operand,)):  # a stack's, or the one
        need = mode.pairs(s.n)
        if s.m != need:
            raise ValueError(f"{mode} mode mixes over {need} eigenpairs, got an "
                             f"eigensystem of m={s.m} pairs for n={s.n} nodes")
    x = as_signal(x, operand.n)
    if x.shape[1] != bank.d:
        raise ValueError(f"bank mixes d={bank.d} channels, signal has {x.shape[1]}")
    return x


@dataclass
class MixTape:
    """What the backward of one exact or truncated mix reads: the operand
    it mixed over, the clamped eigenvalues lam (M,), the bank's tanh layer
    t (K, M, H), its output y (K, M) before the softplus, the responses
    g = softplus(y) (K, M) and xhat = U^T x (M, d)."""

    operand: EigenSystem | EigenStack
    lam: np.ndarray
    t: np.ndarray
    y: np.ndarray
    g: np.ndarray
    xhat: np.ndarray


def wavelet_mix(bank: FilterBank, operand: EigenSystem | EigenStack | ChebyshevOperator,
                x: np.ndarray, mode: MixMode, return_tape: bool = False):
    """Mix node features through the filter bank over operand, what mode
    mixes over (SpectrumCache.operand builds it, _check_mix_args checks it
    before any product); x holds its graphs' rows, stacked for several.

    In chebyshev mode the bank is evaluated once at the P+1 Chebyshev
    nodes, one matmul fits all K coefficient vectors c_k, alpha is folded
    in as w_p = sum_k c_kp alpha_k, and one chebyshev_series recurrence
    over the operator's A2 = 2(L - I) sums T_p(L - I) x * w_p in
    O(P |E| d) time and O(n d) memory.

    With return_tape, returns (Y, MixTape) for wavelet_mix_backward, the
    tape None in chebyshev mode, which has no backward.
    """
    x = _check_mix_args(bank, operand, x, mode)
    if mode.kind == "chebyshev":
        nodes, fit = chebyshev_nodes(mode.param)
        coeffs = bank_responses(bank, nodes) @ fit.T  # (K, P+1)
        y = chebyshev_series(operand.matrix, coeffs.T @ bank.alpha, x)
        return (y, None) if return_tape else y
    tape = MixTape(operand, *_bank_eval(bank, _finite_lambda(operand.lam)), operand.analysis(x))
    y = operand.synthesis((tape.g.T @ bank.alpha) * tape.xhat)  # g^T alpha: sum_k g_k(lam_i) alpha_k[j]
    return (y, tape) if return_tape else y


def wavelet_mix_backward(bank: FilterBank, tape: MixTape, upstream: np.ndarray):
    """Reverse-mode gradients of an exact or truncated mix from the MixTape of
    its forward alone: (grad_x, FilterBank of the gradients of the bank's arrays).

    U and Lam are constants of the graph; gradients flow to x, alpha and,
    through _bank_grad, the filter parameters only. Anything but a MixTape
    (a chebyshev mix keeps none), a bank of another shape than the tape's
    or an upstream not over the tape's rows is a ValueError before any
    product.
    """
    if not isinstance(tape, MixTape):
        raise ValueError("chebyshev mode is inference-only; no backward pass without the "
                         f"MixTape of an exact or truncated mix, got {type(tape).__name__}")
    operand, (k, _, h), d = tape.operand, tape.t.shape, tape.xhat.shape[1]
    upstream = np.asarray(upstream, dtype=np.float64)
    if bank.alpha.shape != (k, d) or upstream.shape != (operand.n, d):
        raise ValueError(f"tape mixed K={k} filters over {(operand.n, d)} signals; got alpha "
                         f"{bank.alpha.shape} and upstream {upstream.shape}")
    if bank.w1.shape != (k, h):
        raise ValueError(f"tape mixed K={k} filters of width H={h}; got w1 {bank.w1.shape}")
    ghat = operand.analysis(upstream)  # (M, d)
    prod = tape.xhat * ghat  # (M, d)
    # dLoss/dg_k(lam_i) = sum_j xhat[i,j] alpha[k,j] ghat[i,j]
    grads = _bank_grad(bank, tape.lam, tape.t, tape.y, bank.alpha @ prod.T)
    return operand.synthesis((tape.g.T @ bank.alpha) * ghat), FilterBank(*grads, tape.g @ prod)


def named_bank_tensors(bank: FilterBank, prefix: str = "") -> dict:
    """Per-filter views ``{prefix}filters.{k}.{w1,b1,w2,b2}`` into the
    stacked arrays of a FilterBank (parameters or gradients), then
    ``{prefix}alpha``: the parameter names and order of model_params and
    the checkpoint."""
    out = {}
    for k in range(len(bank.b2)):
        for name in FILTER_TENSORS:
            out[f"{prefix}filters.{k}.{name}"] = getattr(bank, name)[k, ...]
    out[f"{prefix}alpha"] = bank.alpha
    return out


def spectrum_csv(bank: FilterBank, samples: int = 512) -> str:
    """Filter responses on a uniform grid of samples >= 2 points over
    [0, 2] as CSV text with header lambda,g_1,...,g_K."""
    samples = require_int("samples", samples, 2)
    lam = np.linspace(0.0, LAMBDA_MAX, samples)
    resp = bank_responses(bank, lam)
    header = "lambda," + ",".join(f"g_{k + 1}" for k in range(bank.k))
    lines = [header]
    for i in range(samples):
        row = [fmt_float(lam[i])] + [fmt_float(resp[k, i]) for k in range(bank.k)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
