"""Learnable spectral filter banks and the wavelet mixing operator.

Each filter is a tiny 1-16-1 MLP g(lambda) = softplus(w2.tanh(w1 lambda
+ b1) + b2), nonnegative by construction. A bank of K filters mixes node
features as

    Y = sum_k U g_k(Lam) U^T X diag(alpha_k)

evaluated exactly on the full eigenbasis, on the m smoothest modes
(truncated), or, inference only, without any eigenbasis through one
Chebyshev recurrence of sparse Laplacian products with the bank's
coefficients and alpha folded together. Backward treats U and Lam as
constants.

A bank stores its K filters stacked, as (K, H) arrays, and evaluates all
of them in one pass (one broadcast tanh, one batched contraction): once
for the responses in the forward mix, once for the responses plus every
parameter Jacobian in the backward. The single-filter functions
filter_eval and filter_eval_grad run the same code with K = 1.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .graphs import NormalizedLaplacian, require_int
from .serialize import fmt_float
from .spectral import (
    LAMBDA_MAX,
    EigenSystem,
    MixMode,
    as_signal,
    chebyshev_nodes,
    chebyshev_series,
)

HIDDEN = 16  # filter MLP width; checkpoints are reloaded at this width
FILTER_TENSORS = ("w1", "b1", "w2", "b2")


@dataclass
class FilterMlp:
    """1 -> H -> 1 spectral response MLP. b2 is a 0-d array so the
    optimizer can update it in place like every other tensor."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def init_filter_mlp(rng: np.random.Generator) -> FilterMlp:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer; fan_in is 1 for
    the input layer and HIDDEN for the output layer."""
    bound2 = 1.0 / np.sqrt(HIDDEN)
    return FilterMlp(
        w1=rng.uniform(-1.0, 1.0, HIDDEN),
        b1=rng.uniform(-1.0, 1.0, HIDDEN),
        w2=rng.uniform(-bound2, bound2, HIDDEN),
        b2=np.array(rng.uniform(-bound2, bound2)),
    )


def _bank_eval(w1, b1, w2, b2, lam: np.ndarray):
    """All K filters of stacked (K, H) weights at once: one broadcast tanh
    and one batched contraction. Returns clamped lam (m,), t (K, m, H),
    y (K, m) before the softplus head, and g = softplus(y) (K, m)."""
    lam = np.clip(lam, 0.0, LAMBDA_MAX)
    t = np.tanh(w1[:, None, :] * lam[:, None] + b1[:, None, :])
    y = (t @ w2[:, :, None])[..., 0] + b2[:, None]
    return lam, t, y, np.logaddexp(0.0, y)


def _bank_eval_grad(w1, b1, w2, b2, lam: np.ndarray):
    """Values (K, m) and parameter Jacobians of all K filters: w1, b1, w2
    of shape (K, m, H), b2 of shape (K, m)."""
    lam, t, y, out = _bank_eval(w1, b1, w2, b2, lam)
    s = expit(y)  # d softplus / dy
    gw2 = s[..., None] * t
    gb1 = s[..., None] * (w2[:, None, :] * (1.0 - t**2))
    gw1 = gb1 * lam[:, None]
    return out, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": s}


def _finite_lambda(lam) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("lambda must be finite")
    return arr


def _stacked(f: FilterMlp):
    """One filter's parameters as a K = 1 stack (views, no copies)."""
    return f.w1[None], f.b1[None], f.w2[None], np.reshape(f.b2, 1)


def filter_eval(f: FilterMlp, lam) -> np.ndarray:
    """g(lambda), vectorized over lambda. Input is clamped into [0, 2];
    output is strictly positive (softplus head)."""
    out = _bank_eval(*_stacked(f), _finite_lambda(lam))[3][0]
    return out if np.ndim(lam) else out[0]


def filter_eval_grad(f: FilterMlp, lam):
    """Value and parameter gradients of g at each lambda.

    Returns (values, grads) where grads has keys w1/b1/w2/b2. For array
    input the gradient arrays carry a leading lambda axis.
    """
    out, jac = _bank_eval_grad(*_stacked(f), _finite_lambda(lam))
    if np.ndim(lam):
        return out[0], {name: g[0] for name, g in jac.items()}
    grads = {name: g[0, 0] for name, g in jac.items()}
    grads["b2"] = np.array(grads["b2"])
    return out[0, 0], grads


class FilterBank:
    """K filters stored as stacked arrays w1, b1, w2 of shape (K, H) and
    b2 of shape (K,), plus per-filter channel gains alpha of shape (K, d).

    Built from a sequence of FilterMlp, whose parameters are copied in.
    filters is a tuple of FilterMlp row views into the stacked arrays (b2
    a 0-d view), so writing through a filter writes the bank and the
    per-filter names of model_params reach the same memory.
    """

    def __init__(self, filters, alpha: np.ndarray):
        filters = tuple(filters)
        if not filters:
            raise ValueError("need at least one filter")
        self.w1, self.b1, self.w2, self.b2 = (
            np.array([getattr(f, name) for f in filters], dtype=np.float64)
            for name in FILTER_TENSORS)
        self.alpha = alpha
        self.filters = tuple(
            FilterMlp(self.w1[k], self.b1[k], self.w2[k], self.b2[k, ...])
            for k in range(len(filters)))

    @property
    def k(self) -> int:
        return len(self.b2)

    @property
    def d(self) -> int:
        return self.alpha.shape[1]


def draw_filter_bank(rng: np.random.Generator, k: int, d: int) -> FilterBank:
    """K filters drawn from rng in index order by init_filter_mlp, alpha
    filled with 1/K."""
    filters = [init_filter_mlp(rng) for _ in range(k)]
    return FilterBank(filters, np.full((k, d), 1.0 / k))


def build_filter_bank(k: int, d: int, seed: int = 0) -> FilterBank:
    """Seeded bank of k filters over d channels, both integers >= 1:
    filters drawn in index order, alpha filled with 1/K."""
    return draw_filter_bank(np.random.default_rng(seed), require_int("k", k, 1),
                            require_int("d", d, 1))


def bank_responses(bank: FilterBank, lam: np.ndarray) -> np.ndarray:
    """Stacked responses g_k(lam), shape (K, m), from one evaluation of
    all K filters."""
    out = _bank_eval(bank.w1, bank.b1, bank.w2, bank.b2, _finite_lambda(lam))[3]
    return out if np.ndim(lam) else out[:, 0]


def _check_eigensystem(eig: EigenSystem | None, mode: MixMode) -> None:
    """A mode mixes over every pair it is given: a system of exactly
    mode.pairs(n) pairs (a full one for exact, m pairs for truncated:m)."""
    if eig is None:
        raise ValueError(f"{mode} mode needs an eigensystem")
    need = mode.pairs(eig.n)
    if eig.m != need:
        raise ValueError(f"{mode} mode mixes over {need} eigenpairs, got an eigensystem "
                         f"of m={eig.m} pairs for n={eig.n} nodes")


def _check_mix_args(bank: FilterBank, x: np.ndarray, n: int) -> np.ndarray:
    x = as_signal(x, n)
    if x.shape[1] != bank.d:
        raise ValueError(f"bank mixes d={bank.d} channels, signal has {x.shape[1]}")
    return x


def wavelet_mix(bank: FilterBank, eig: EigenSystem | None, x: np.ndarray,
                mode: MixMode, lap: NormalizedLaplacian | None = None) -> np.ndarray:
    """Mix node features through the filter bank.

    exact mixes over a full eigensystem and truncated:m over one of
    exactly m pairs, from eigendecompose(lap, m); any other system is a
    ValueError. chebyshev needs only the sparse
    Laplacian: the bank is evaluated once at the P+1 Chebyshev nodes, one
    matmul fits all K coefficient vectors c_k, alpha is folded in as
    w_p = sum_k c_kp alpha_k, and a single recurrence sums
    T_p(L - I) x * w_p in O(P |E| d) time and O(n d) memory.
    """
    if mode.kind == "chebyshev":
        if lap is None:
            raise ValueError("chebyshev mode needs the Laplacian")
        x = _check_mix_args(bank, x, lap.n)
        nodes, fit = chebyshev_nodes(mode.param)
        coeffs = bank_responses(bank, nodes) @ fit.T  # (K, P+1)
        return chebyshev_series(lap, coeffs.T @ bank.alpha, x)
    _check_eigensystem(eig, mode)
    x = _check_mix_args(bank, x, eig.n)
    u = eig.u
    resp = bank_responses(bank, eig.lam)  # (K, m)
    weight = resp.T @ bank.alpha  # (m, d): sum_k g_k(lam_i) alpha_k[j]
    return u @ (weight * (u.T @ x))


@dataclass
class MixGrads:
    """Gradients of a scalar objective through wavelet_mix. The filter
    gradients are stacked like the bank's parameters: w1, b1, w2 of shape
    (K, H) and b2 of shape (K,)."""

    x: np.ndarray
    alpha: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def filters(self) -> tuple:
        """Per filter: a dict of w1/b1/w2/b2 views into the stacked
        gradients (b2 a 0-d view)."""
        return tuple({name: getattr(self, name)[k, ...] for name in FILTER_TENSORS}
                     for k in range(len(self.b2)))


def wavelet_mix_backward(bank: FilterBank, eig: EigenSystem, x: np.ndarray,
                         mode: MixMode, upstream: np.ndarray) -> MixGrads:
    """Reverse-mode gradients of wavelet_mix for exact/truncated modes.

    U and Lam are constants of the graph; gradients flow to x, alpha and
    the filter parameters only. Responses and every parameter Jacobian
    come from one evaluation of the whole bank. The chebyshev path has no
    backward.
    """
    if mode.kind == "chebyshev":
        raise ValueError("chebyshev mode is inference-only; no backward pass")
    _check_eigensystem(eig, mode)
    x = _check_mix_args(bank, x, eig.n)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != signal shape {x.shape}")
    u = eig.u
    resp, jac = _bank_eval_grad(bank.w1, bank.b1, bank.w2, bank.b2, _finite_lambda(eig.lam))
    xhat = u.T @ x  # (m, d)
    ghat = u.T @ upstream  # (m, d)
    prod = xhat * ghat  # (m, d)
    grad_alpha = resp @ prod  # (K, d)
    # response weights: dLoss/dg_k(lam_i) = sum_j xhat[i,j] alpha[k,j] ghat[i,j]
    wresp = bank.alpha @ prod.T  # (K, m)
    row = wresp[:, None, :]  # (K, 1, m) against the (K, m, H) Jacobians
    weight = resp.T @ bank.alpha  # (m, d)
    grad_x = u @ (weight * ghat)
    return MixGrads(grad_x, grad_alpha, (row @ jac["w1"])[:, 0], (row @ jac["b1"])[:, 0],
                    (row @ jac["w2"])[:, 0], np.sum(wresp * jac["b2"], axis=1))



def named_bank_tensors(bank, prefix: str = "") -> dict:
    """Per-filter views ``{prefix}filters.{k}.{w1,b1,w2,b2}`` into the
    stacked arrays of a FilterBank (or of its MixGrads), then
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
