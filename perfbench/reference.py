"""Independent dense reference for the inference workload.

It builds the chain Laplacian itself, eigendecomposes it with numpy and
runs the model one filter at a time from the named parameters alone, so
it shares no code with gwmixer. A truncated request must match it to
round-off. A Chebyshev request must stay within the error that the
degree-P Chebyshev fit of each filter can cause, carried through the
layers by their Lipschitz bounds.
"""

import numpy as np

ROUND_OFF = 1e-8  # relative to the largest reference logit
CHEB_SLACK = 2.0  # headroom over the interpolation error for another fit rule


def chain_spectrum(n: int):
    """(lam, u) of the normalized Laplacian of an n-node path."""
    a = np.zeros((n, n))
    i = np.arange(n - 1)
    a[i, i + 1] = a[i + 1, i] = 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    lap = np.eye(n) - dinv[:, None] * a * dinv[None, :]
    return np.linalg.eigh(lap)


def response(params: dict, layer: int, k: int, lam: np.ndarray) -> np.ndarray:
    """Filter k of a layer: softplus(w2 . tanh(w1 lam + b1) + b2), lam in [0, 2]."""
    p = f"layers.{layer}.bank.filters.{k}."
    lam = np.clip(lam, 0.0, 2.0)
    hidden = np.tanh(np.outer(lam, params[p + "w1"]) + params[p + "b1"])
    return np.logaddexp(0.0, hidden @ params[p + "w2"] + params[p + "b2"])


def fit_error(params: dict, layer: int, k: int, order: int, lam: np.ndarray) -> float:
    """Largest error of the degree-`order` Chebyshev interpolant of a filter
    over [0, 2], taken at the given eigenvalues."""
    cheb = np.polynomial.Chebyshev.interpolate(
        lambda t: response(params, layer, k, t), order, domain=[0.0, 2.0])
    return float(np.max(np.abs(cheb(lam) - response(params, layer, k, lam))))


def reference_logits(params: dict, layers: int, filters: int, ids, mode: str, spectrum):
    """(logits, allowed error) of one request. mode is "truncated:M" or
    "chebyshev:P"; the allowed error is a Frobenius-norm bound."""
    kind, _, arg = mode.partition(":")
    lam, u = spectrum
    if kind == "truncated":
        lam, u = lam[: int(arg)], u[:, : int(arg)]
    elif kind != "chebyshev":
        raise ValueError(f"no reference for mode {mode!r}")
    x = params["embed"][np.asarray(ids)]
    drift = 0.0  # bound on ||x_chebyshev - x_exact||_F at the current layer
    for i in range(layers):
        alpha = params[f"layers.{i}.bank.alpha"]
        w1, b1 = params[f"layers.{i}.ffn.w1"], params[f"layers.{i}.ffn.b1"]
        w2, b2 = params[f"layers.{i}.ffn.w2"], params[f"layers.{i}.ffn.b2"]
        resp = np.stack([response(params, i, k, lam) for k in range(filters)])
        xhat = u.T @ x
        mix = np.zeros_like(x)
        for k in range(filters):
            mix += (u @ (resp[k][:, None] * xhat)) * alpha[k][None, :]
        if kind == "chebyshev":
            eps = np.array([fit_error(params, i, k, int(arg), lam) for k in range(filters)])
            mix_norm = float(np.max(np.abs(resp.T @ alpha)))
            mix_err = CHEB_SLACK * float(np.max(np.abs(alpha).T @ eps))
            ffn_lip = 1.0 + np.linalg.norm(w1, 2) * np.linalg.norm(w2, 2)
            drift = ffn_lip * ((1.0 + mix_norm) * drift
                               + mix_err * (np.linalg.norm(x) + drift))
        r = x + mix
        x = r + np.maximum(r @ w1 + b1, 0.0) @ w2 + b2
    logits = x @ params["readout"]
    scale = max(1.0, float(np.max(np.abs(logits))))
    allowed = np.linalg.norm(params["readout"], 2) * drift + ROUND_OFF * scale
    return logits, allowed


def within(actual: np.ndarray, expected: np.ndarray, allowed: float) -> bool:
    return bool(np.linalg.norm(actual - expected) <= allowed)
