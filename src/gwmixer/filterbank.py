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
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .graphs import NormalizedLaplacian
from .spectral import EigenSystem, MixMode, chebyshev_nodes, chebyshev_series

LAMBDA_MAX = 2.0


@dataclass
class FilterMlp:
    """1 -> hidden -> 1 spectral response MLP. b2 is a 0-d array so the
    optimizer can update it in place like every other tensor."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def hidden_width(self) -> int:
        return len(self.b1)


def init_filter_mlp(rng: np.random.Generator, hidden: int = 16) -> FilterMlp:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer; fan_in is 1 for
    the input layer and `hidden` for the output layer."""
    bound2 = 1.0 / np.sqrt(hidden)
    return FilterMlp(
        w1=rng.uniform(-1.0, 1.0, hidden),
        b1=rng.uniform(-1.0, 1.0, hidden),
        w2=rng.uniform(-bound2, bound2, hidden),
        b2=np.array(rng.uniform(-bound2, bound2)),
    )


def _eval_core(f: FilterMlp, lam: np.ndarray):
    lam = np.clip(lam, 0.0, LAMBDA_MAX)
    t = np.tanh(np.outer(f.w1, lam) + f.b1[:, None])  # (H, m)
    y = f.w2 @ t + float(f.b2)  # (m,)
    return lam, t, y, np.logaddexp(0.0, y)


def filter_eval(f: FilterMlp, lam) -> np.ndarray:
    """g(lambda), vectorized over lambda. Input is clamped into [0, 2];
    output is strictly positive (softplus head)."""
    arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("lambda must be finite")
    out = _eval_core(f, arr)[3]
    return out if np.ndim(lam) else out[0]


def filter_eval_grad(f: FilterMlp, lam):
    """Value and parameter gradients of g at each lambda.

    Returns (values, grads) where grads has keys w1/b1/w2/b2. For array
    input the gradient arrays carry a leading lambda axis.
    """
    scalar = np.ndim(lam) == 0
    arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("lambda must be finite")
    lam_c, t, y, out = _eval_core(f, arr)
    s = expit(y)  # d softplus / dy
    gb2 = s
    gw2 = s[:, None] * t.T
    gb1 = s[:, None] * (f.w2[None, :] * (1.0 - t.T**2))
    gw1 = gb1 * lam_c[:, None]
    if scalar:
        return out[0], {"w1": gw1[0], "b1": gb1[0], "w2": gw2[0], "b2": np.array(gb2[0])}
    return out, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


@dataclass
class FilterBank:
    """K filters plus per-filter channel gains alpha of shape (K, d)."""

    filters: list
    alpha: np.ndarray

    @property
    def k(self) -> int:
        return len(self.filters)

    @property
    def d(self) -> int:
        return self.alpha.shape[1]


def build_filter_bank(k: int, d: int, seed: int = 0, hidden: int = 16) -> FilterBank:
    """Seeded bank: filters drawn in index order, alpha filled with 1/K."""
    if k < 1:
        raise ValueError(f"need at least one filter, got k={k}")
    if d < 1:
        raise ValueError(f"need at least one channel, got d={d}")
    rng = np.random.default_rng(seed)
    filters = [init_filter_mlp(rng, hidden) for _ in range(k)]
    return FilterBank(filters, np.full((k, d), 1.0 / k))


def bank_responses(bank: FilterBank, lam: np.ndarray) -> np.ndarray:
    """Stacked responses g_k(lam), shape (K, m)."""
    return np.stack([filter_eval(f, lam) for f in bank.filters])


def _spectral_basis(eig: EigenSystem, mode: MixMode):
    if mode.kind == "truncated":
        if eig.m < mode.param:
            raise ValueError(
                f"truncated({mode.param}) needs at least {mode.param} modes, "
                f"eigensystem has {eig.m}"
            )
        return eig.u[:, : mode.param], eig.lam[: mode.param]
    return eig.u, eig.lam


def _check_mix_args(bank: FilterBank, x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"expected signal of shape ({n}, d), got {x.shape}")
    if x.shape[1] != bank.d:
        raise ValueError(f"bank mixes d={bank.d} channels, signal has {x.shape[1]}")
    return x


def wavelet_mix(bank: FilterBank, eig: EigenSystem | None, x: np.ndarray,
                mode: MixMode, lap: NormalizedLaplacian | None = None) -> np.ndarray:
    """Mix node features through the filter bank.

    exact/truncated need an eigensystem. chebyshev needs only the sparse
    Laplacian: the bank is evaluated once at the P+1 Chebyshev nodes, one
    matmul fits all K coefficient vectors c_k, alpha is folded in as
    w_p = sum_k c_kp alpha_k, and a single recurrence sums
    T_p(L - I) x * w_p in O(P |E| d) time and O(n d) memory.
    """
    if mode.kind == "chebyshev":
        if lap is None:
            raise ValueError("chebyshev mode needs the Laplacian")
        x = _check_mix_args(bank, x, lap.n)
        nodes, fit = chebyshev_nodes(mode.param, LAMBDA_MAX)
        coeffs = bank_responses(bank, nodes) @ fit.T  # (K, P+1)
        return chebyshev_series(lap, coeffs.T @ bank.alpha, x)
    if eig is None:
        raise ValueError(f"{mode.kind} mode needs an eigensystem")
    x = _check_mix_args(bank, x, eig.n)
    u, lam = _spectral_basis(eig, mode)
    resp = bank_responses(bank, lam)  # (K, m)
    weight = resp.T @ bank.alpha  # (m, d): sum_k g_k(lam_i) alpha_k[j]
    return u @ (weight * (u.T @ x))


@dataclass
class MixGrads:
    """Gradients of a scalar objective through wavelet_mix."""

    x: np.ndarray
    alpha: np.ndarray
    filters: list  # per filter: dict with w1/b1/w2/b2


def wavelet_mix_backward(bank: FilterBank, eig: EigenSystem, x: np.ndarray,
                         mode: MixMode, upstream: np.ndarray) -> MixGrads:
    """Reverse-mode gradients of wavelet_mix for exact/truncated modes.

    U and Lam are constants of the graph; gradients flow to x, alpha and
    the filter parameters only. The chebyshev path has no backward.
    """
    if mode.kind == "chebyshev":
        raise ValueError("chebyshev mode is inference-only; no backward pass")
    x = _check_mix_args(bank, x, eig.n)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != signal shape {x.shape}")
    u, lam = _spectral_basis(eig, mode)
    resp = bank_responses(bank, lam)  # (K, m)
    xhat = u.T @ x  # (m, d)
    ghat = u.T @ upstream  # (m, d)
    prod = xhat * ghat  # (m, d)
    grad_alpha = resp @ prod  # (K, d)
    # response weights: dLoss/dg_k(lam_i) = sum_j xhat[i,j] alpha[k,j] ghat[i,j]
    wresp = bank.alpha @ prod.T  # (K, m)
    filter_grads = []
    for k, f in enumerate(bank.filters):
        _, g = filter_eval_grad(f, lam)
        filter_grads.append(
            {
                "w1": wresp[k] @ g["w1"],
                "b1": wresp[k] @ g["b1"],
                "w2": wresp[k] @ g["w2"],
                "b2": np.array(wresp[k] @ g["b2"]),
            }
        )
    weight = resp.T @ bank.alpha  # (m, d)
    grad_x = u @ (weight * ghat)
    return MixGrads(grad_x, grad_alpha, filter_grads)


def spectrum_csv(bank: FilterBank, samples: int = 512) -> str:
    """Filter responses on a uniform grid over [0, 2] as CSV text with
    header lambda,g_1,...,g_K."""
    lam = np.linspace(0.0, LAMBDA_MAX, samples)
    resp = bank_responses(bank, lam)
    header = "lambda," + ",".join(f"g_{k + 1}" for k in range(bank.k))
    lines = [header]
    for i in range(samples):
        row = [format(lam[i], ".17g")] + [format(resp[k, i], ".17g") for k in range(bank.k)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
