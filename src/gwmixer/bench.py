"""Scaling benchmark: wavelet mixing modes against a dense attention
baseline, with per-size correctness gates so a timing is never reported
for wrong output.

Timing excludes eigendecomposition and setup: each mode's operand comes
from SpectrumCache.operand before timing, as in model_forward, so
truncated:m mixes over its own m-pair system and chebyshev over the
graph's operator alone. Memory is measured by tracemalloc in an untimed pass.
"""

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .filterbank import FilterBank, build_filter_bank, filter_eval, wavelet_mix
from .graphs import build_chain_graph, require_int, require_real_array
from .serialize import fmt_float
from .spectral import EigenSystem, MixMode, SpectrumCache, chebyshev_fit, parse_mix_mode

DEFAULT_SIZES = (64, 128, 256, 512, 1024)
DEFAULT_MODES = ("exact", "truncated:16", "chebyshev:16", "attention")
ORACLE_TOL = 1e-10


def make_attention_params(d: int, seed: int = 0):
    d = require_int("d", d, 1)
    rng = np.random.default_rng(require_int("seed", seed, 0))
    b = 1.0 / np.sqrt(d)
    return tuple(rng.uniform(-b, b, (d, d)) for _ in range(3))


def attention_baseline_forward(x: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                               wv: np.ndarray) -> np.ndarray:
    """Single-head softmax((XWq)(XWk)^T / sqrt(d)) (XWv), row-stabilized;
    x is a real array (require_real_array)."""
    x = require_real_array("x", x)
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) input, got shape {x.shape}")
    d = x.shape[1]
    if wq.shape != (d, d) or wk.shape != (d, d) or wv.shape != (d, d):
        raise ValueError("projection shapes must all be (d, d)")
    q = x @ wq
    k = x @ wk
    scores = (q @ k.T) / np.sqrt(d)
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ (x @ wv)


@dataclass
class BenchRecord:
    n: int
    d: int
    k: int
    mode: str
    seconds: float  # median over repeats, after warmup
    peak_bytes: int | None  # tracemalloc peak for one call; None = unavailable
    checksum: float  # Frobenius norm of the verified output


def _naive_mix(bank: FilterBank, u: np.ndarray, lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Independent composition: per-filter U diag(g_k) U^T X diag(alpha_k)."""
    y = np.zeros_like(x)
    for kk, f in enumerate(bank.filters):
        hk = filter_eval(f, lam)
        y += (u @ (hk[:, None] * (u.T @ x))) * bank.alpha[kk][None, :]
    return y


def _verify_mode(mode: MixMode, out: np.ndarray, bank: FilterBank,
                 eig: EigenSystem, x: np.ndarray) -> None:
    """Gate a mode's output against an independent reference built on
    eig, the full system (closed form for chains of n >= LANCZOS_MIN_N,
    dense eigh below), before its timing may be reported; the reference
    keeps the mode.pairs(n) smoothest pairs (all for chebyshev)."""
    m = mode.pairs(eig.n)
    ref = _naive_mix(bank, eig.u[:, :m], eig.lam[:m], x)
    if mode.kind == "chebyshev":  # against the exact spectral answer, bounded by fit error
        fit_err = sum(
            chebyshev_fit(lambda t, f=f: filter_eval(f, t), mode.param)[1]
            for f in bank.filters
        )
        amax = float(np.max(np.abs(bank.alpha)))
        colnorm = float(np.max(np.linalg.norm(x, axis=0)))
        tol = max(1e-8, 2.0 * fit_err * amax * colnorm)
    else:
        tol = ORACLE_TOL * max(1.0, float(np.max(np.abs(ref))))
    err = float(np.max(np.abs(out - ref)))
    if err > tol:
        raise AssertionError(f"{mode}: output error {err:.3e} exceeds gate {tol:.3e}")


def _time_call(fn, repeats: int):
    fn()  # warmup
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        times.append(t1 - t0)
    return float(np.median(times))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak) if peak > 0 else None


def fit_loglog_slope(ns, ts) -> float:
    """Least-squares slope of log(t) against log(n), both real arrays."""
    return float(np.polyfit(np.log(require_real_array("ns", ns)),
                            np.log(require_real_array("ts", ts)), 1)[0])


def bench_scaling(sizes=DEFAULT_SIZES, d: int = 32, k: int = 4,
                  modes=DEFAULT_MODES, repeats: int = 3, seed: int = 0):
    """Time one forward mix per (n, mode) over chain graphs.

    Returns (records, slopes) where slopes maps mode string to the
    fitted log-log exponent. Outputs are verified before timing; the
    wavelet modes share one bank and input per size, so their checksums
    agree up to mode error. Each size's operands come from a SpectrumCache
    of its own, outside all timed regions. Before any timing, repeats and
    each size must be an integer >= 1 (seed >= 0), each mode a mode string
    (parse_mix_mode) or "attention", sizes and modes must list at least one
    entry and none twice, and every mode must fit every size (ValueError).
    """
    repeats = require_int("repeats", repeats, 1)
    seed = require_int("seed", seed, 0)
    sizes = tuple(require_int(f"sizes[{i}]", n, 1) for i, n in enumerate(sizes))
    modes = tuple(modes)  # read twice: a generator would leave nothing to time
    parsed = [None if m == "attention" else parse_mix_mode(m) for m in modes]
    for what, items in (("sizes", sizes), ("modes", [str(m or "attention") for m in parsed])):
        if not items:
            raise ValueError(f"{what} must list at least one entry")
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ValueError(f"{what} lists {item} more than once")
    for n in sizes:  # a mode that cannot mix n nodes raises here, before any timing
        for mode in filter(None, parsed):
            mode.pairs(n)
    records = []
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        graph = build_chain_graph(n)
        cache = SpectrumCache()
        bank = build_filter_bank(k, d, seed=seed)
        x = rng.standard_normal((n, d))
        att = make_attention_params(d, seed)
        for mode_str, mode in zip(modes, parsed):
            if mode is None:
                fn = lambda: attention_baseline_forward(x, *att)
                out = fn()
            else:
                operand = cache.operand([graph], mode)
                fn = lambda: wavelet_mix(bank, operand, x, mode)
                out = fn()
                _verify_mode(mode, out, bank, cache.operand([graph], MixMode.exact()), x)
            seconds = _time_call(fn, repeats)
            peak = _peak_bytes(fn)
            records.append(BenchRecord(n, d, k, mode_str, seconds, peak,
                                       float(np.linalg.norm(out))))
    slopes = {}
    for mode_str in modes:
        rows = [r for r in records if r.mode == mode_str]
        if len(rows) >= 2:
            slopes[mode_str] = fit_loglog_slope([r.n for r in rows],
                                                     [r.seconds for r in rows])
    return records, slopes


def bench_csv(records, slopes) -> str:
    """Bench rows as CSV. peak_bytes counts allocations made by the mixing
    call itself (tracemalloc, separate untimed pass); timing excludes
    eigendecomposition and setup."""
    lines = [
        "# seconds: median forward-mix wall time; eigendecomposition/setup excluded",
        "# peak_bytes: tracemalloc peak during one forward mix (mixing call only)",
    ]
    for mode, slope in slopes.items():
        lines.append(f"# slope[{mode}] = {fmt_float(slope)}")
    lines.append("n,d,k,mode,seconds,peak_bytes,checksum")
    for r in records:
        peak = str(r.peak_bytes) if r.peak_bytes is not None else "unavailable"
        lines.append(
            f"{r.n},{r.d},{r.k},{r.mode},{fmt_float(r.seconds)},{peak},{fmt_float(r.checksum)}"
        )
    return "\n".join(lines) + "\n"
