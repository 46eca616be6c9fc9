"""Spectral machinery: eigendecomposition, graph Fourier transforms,
exact functional-calculus filtering, the Chebyshev fast path, and the
spectrum cache.

Eigenvalues are ascending, eigenvectors orthonormal with a deterministic
sign convention, so identical inputs give bit-identical systems. Four
solvers produce them, chosen by the Laplacian's structure and size. A
path 0-1-...-(n-1) of n >= LANCZOS_MIN_N nodes has its pairs in closed
form (the DCT-I is the path's graph Fourier transform), built on the
sparse matrix with no solver. Any other graph of that size gets a partial
spectrum of the m smoothest modes by shift-invert Lanczos on the sparse
Laplacian. Everything else (full spectra, small graphs) comes from the
dense matrix: a bipartite graph, every forest among them, from the SVD
of its half-size normalized biadjacency block, any other graph from
dense eigh.

The Chebyshev path needs no spectrum at all. It runs one kernel,
chebyshev_series, a three-term recurrence T_{p+1} = A2 T_p - T_{p-1} of
sparse products with A2 = 2(L - I), a ChebyshevOperator filled from the
graphs' edges as the Laplacian is. SpectrumCache.operand alone chooses
what a mode mixes over: an EigenSystem, an EigenStack of several, or the
ChebyshevOperator of one graph or of a disjoint union. Its cache keeps,
per graph and pair count, only the item mixing reads (no Laplacian),
within SPECTRUM_CACHE_BYTES.
"""

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .graphs import NormalizedLaplacian, TokenGraph, normalized_laplacian, require_int
from .graphs import _csr_fill, _undirected, require_real_array

SYMMETRY_TOL = 1e-12
CLAMP_FLOOR = -1e-9  # round-off negatives above this are snapped to 0
LANCZOS_MIN_N = 160  # from here on paths take the closed form and other graphs Lanczos
# for m < n-1 pairs; below it dense eigh is faster than Lanczos for 16 pairs
LANCZOS_SHIFT = -1e-5  # shift-invert target just below the smallest eigenvalue, 0
LANCZOS_SEED = 0  # seeds the Lanczos start vector
INERTIA_GAP = 1e-9  # the completeness count sits this far below the largest pair found
LAMBDA_MAX = 2.0  # normalized Laplacian spectra lie in [0, 2]; filters live on this interval
RESIDUAL_TOL = 1e-12  # scales the accepted eigendecomposition residual
RESIDUAL_BLOCK = 256  # eigenvector columns per residual product, bounding its temporaries
CHEBYSHEV_MEMO_SIZE = 64  # distinct orders whose nodes and fit matrix chebyshev_nodes keeps
SPECTRUM_CACHE_BYTES = 256 << 20  # default bound on the bytes of a SpectrumCache's items


class NumericalError(RuntimeError):
    """Numerical failure (eigensolver breakdown or residual out of tolerance)."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of a normalized Laplacian.

    u: (n, m) orthonormal columns, lam: (m,) ascending: the m smoothest
    modes, all of them (m == n) for a full system. Frozen, as the cache
    shares one system among all its readers.
    """

    u: np.ndarray
    lam: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    def analysis(self, x: np.ndarray) -> np.ndarray:
        """U^T x: (m, d)."""
        return self.u.T @ x

    def synthesis(self, h: np.ndarray) -> np.ndarray:
        """U h: (n, d)."""
        return self.u @ h


@dataclass(frozen=True)
class EigenStack:
    """The eigensystems of several graphs, mixed as one signal whose rows
    are the graphs' nodes in order. lam holds their eigenvalues
    concatenated; rows and cols give each system its slice of the signal's
    rows and of lam. It transforms as an EigenSystem does, system by
    system. Built by SpectrumCache.operand."""

    systems: tuple
    lam: np.ndarray
    rows: tuple
    cols: tuple

    @classmethod
    def of(cls, systems) -> "EigenStack":
        rows = list(accumulate((s.n for s in systems), initial=0))
        cols = list(accumulate((s.m for s in systems), initial=0))
        return cls(tuple(systems), np.concatenate([s.lam for s in systems]),
                   tuple(map(slice, rows[:-1], rows[1:])), tuple(map(slice, cols[:-1], cols[1:])))

    @property
    def n(self) -> int:
        return self.rows[-1].stop

    def analysis(self, x: np.ndarray) -> np.ndarray:
        """U_i^T x_i of every system, stacked: (M, d)."""
        out = np.empty((len(self.lam), x.shape[1]))
        for eig, r, c in zip(self.systems, self.rows, self.cols):
            np.matmul(eig.u.T, x[r], out=out[c])
        return out

    def synthesis(self, h: np.ndarray) -> np.ndarray:
        """U_i h_i of every system, stacked: (N, d)."""
        out = np.empty((self.n, h.shape[1]))
        for eig, r, c in zip(self.systems, self.rows, self.cols):
            np.matmul(eig.u, h[c], out=out[r])
        return out


@dataclass(frozen=True)
class ChebyshevOperator:
    """A2 = 2(L - I), the operator of the Chebyshev recurrence, of one
    graph or, block diagonal, of the disjoint union of several, whose rows
    a signal stacks in order: a CSR array with frozen arrays, int32
    indices and no stored zeros. SpectrumCache.operand builds it with of,
    one _csr_fill over the graphs' undirected edge codes, each graph's
    shifted past those before it: no content hash and no Laplacian."""

    matrix: sparse.csr_array

    @classmethod
    def of(cls, graphs) -> "ChebyshevOperator":
        codes = [_undirected(g) for g in graphs]
        sizes, counts = [g.n for g in graphs], [len(c) for c in codes]
        a, b = np.divmod(np.concatenate(codes), np.repeat(sizes, counts))
        shift = np.repeat(list(accumulate(sizes[:-1], initial=0)), counts)
        return cls(_csr_fill(sum(sizes), a + shift, b + shift, chebyshev=True)[0])

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _check_square_symmetric(mat) -> None:
    # mat is a dense or a sparse array
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.data if sparse.issparse(mat) else mat)):
        raise ValueError("matrix has non-finite entries")
    asym = float(abs(mat - mat.T).max()) if mat.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")


def _fix_signs(u: np.ndarray) -> None:
    """Flip, in place, each column of u whose largest-magnitude entry is
    negative, ties broken by lowest index (argmax's first maximum). The
    column maxima and minima decide every column but those whose extremes
    have equal magnitude; only those are searched for their first one,
    RESIDUAL_BLOCK columns at a time."""
    hi, lo = u.max(axis=0), -u.min(axis=0)
    flip = lo > hi
    tie = np.flatnonzero(lo == hi)
    for b in range(0, tie.size, RESIDUAL_BLOCK):
        cols = tie[b:b + RESIDUAL_BLOCK]
        mag = u[:, cols]
        flip[cols] = u[np.argmax(np.abs(mag, out=mag), axis=0), cols] < 0
    u *= np.where(flip, -1.0, 1.0)


def _dense_eigh(mat: np.ndarray):
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc


def _lanczos(mat, m: int):
    """The m smallest eigenpairs by shift-invert Lanczos, checked for
    completeness. A Krylov method can miss a copy of a repeated
    eigenvalue; by Sylvester's law of inertia the negative pivots of a
    symmetric LDL^T factorization of L - tau I count the eigenvalues
    below tau, which must equal the number found below tau."""
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh, splu

    n = mat.shape[0]
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    try:
        lam, u = eigsh(mat, k=m, sigma=LANCZOS_SHIFT, which="LM", v0=v0)
        tau = float(np.max(lam)) - INERTIA_GAP
        shifted = sparse.csc_array(mat - tau * sparse.eye_array(n, format="csr"))
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except (ArpackError, ArpackNoConvergence, RuntimeError) as exc:
        # RuntimeError: a shifted matrix was exactly singular
        raise NumericalError(f"Lanczos eigensolver failed for m={m}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError(f"could not count eigenvalues below {tau:.6g} (pivoting left the diagonal)")
    below = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    found = int(np.count_nonzero(lam < tau))
    if below != found:
        raise NumericalError(
            f"Lanczos found {found} eigenvalues below {tau:.6g} but L has {below} "
            f"(a repeated eigenvalue among the {m} smallest); use exact mode for this graph"
        )
    return lam, u


def _is_path(l: NormalizedLaplacian) -> bool:
    """Whether l is the Laplacian of the path 0-1-...-(n-1): degrees read
    1, 2, ..., 2, 1 and the CSR pattern is exactly tridiagonal."""
    n, mat, deg = l.n, l.matrix, l.degrees
    if n < 2 or deg[0] != 1.0 or deg[-1] != 1.0 or not np.all(deg[1:-1] == 2.0):
        return False
    band = (np.arange(n)[:, None] + np.arange(-1, 2)).ravel()[1:-1]  # row k: k-1, k, k+1
    rows = np.clip(3 * np.arange(n + 1) - 1, 0, 3 * n - 2)
    return np.array_equal(mat.indptr, rows) and np.array_equal(mat.indices, band)


def _path_pairs(mat, m: int):
    """The m smallest eigenpairs of an n-node path's Laplacian in closed
    form: lam_j = 1 - cos(pi j/h) and u_j(k) ∝ sqrt(deg_k) cos(pi j k/h),
    h = n - 1. The h+1 distinct cosines are each taken at an angle in
    [0, pi/2], so the mirror symmetry of u_j holds exactly, and gathered
    by j k mod 2h, RESIDUAL_BLOCK rows of indices at a time, so the peak
    stays near the size of u."""
    h = mat.shape[0] - 1
    r = np.arange(2 * h)
    np.minimum(r, 2 * h - r, out=r)  # cos(pi r/h) is even about r = h
    flip = 2 * r > h  # and odd about r = h/2
    cos = np.cos(np.where(flip, h - r, r) * (np.pi / h))
    cos[flip] *= -1.0
    j = np.arange(m)
    u = np.empty((h + 1, m))
    jk = np.empty((min(h + 1, RESIDUAL_BLOCK), m), dtype=np.int64)
    for k in range(0, h + 1, RESIDUAL_BLOCK):
        rows = u[k:k + RESIDUAL_BLOCK]  # contiguous, so take fills it in place
        idx = jk[:len(rows)]
        np.multiply.outer(np.arange(k, k + len(rows)), j, out=idx)
        idx %= 2 * h
        np.take(cos, idx, out=rows, mode="clip")  # indices in range; "raise" would buffer out
    scale = np.full(h + 1, np.sqrt(2.0 / h))  # sqrt(deg_k / h): deg 2 inside, 1 at the ends
    scale[[0, h]] = np.sqrt(1.0 / h)
    u *= scale[:, None]
    u[:, (j == 0) | (j == h)] /= np.sqrt(2.0)  # the constant and alternating modes
    lam = 2.0 * np.sin(0.5 * np.pi / h * j) ** 2  # = 1 - cos(pi j/h), without cancellation
    return lam, u


def _two_colour(mat) -> np.ndarray | None:
    """Colour 0 or 1 for each node of the CSR pattern's graph (diagonal
    entries ignored) such that every edge joins the two colours, -1 for a
    node with no edge; None if an odd cycle rules that out. One
    breadth-first pass over the pattern that reads each row only when
    its node is reached, so a dense graph with an odd cycle is ruled out
    after a few rows."""
    n = mat.shape[0]
    ptr, nbr = mat.indptr.tolist(), memoryview(mat.indices)
    side = [-1] * n
    for root in range(n):
        if side[root] >= 0 or all(w == root for w in nbr[ptr[root]:ptr[root + 1]]):
            continue  # coloured already, or isolated
        side[root] = 0
        queue = [root]
        for v in queue:  # grows as nodes are reached
            c = 1 - side[v]
            for w in nbr[ptr[v]:ptr[v + 1]]:
                if side[w] < 0:
                    side[w] = c
                    queue.append(w)
                elif side[w] != c and w != v:
                    return None
    return np.array(side)


def _bipartite_pairs(mat: np.ndarray, side: np.ndarray):
    """All eigenpairs of the dense Laplacian mat of a bipartite graph,
    side as from _two_colour, from the full SVD of the normalized
    biadjacency block M = -mat[P, Q] = U diag(s) V^T, P the larger colour
    class (Chung, Spectral Graph Theory, ch. 1). Each s_i gives
    lam = 1 - s_i with [U_i; V_i]/sqrt(2) and lam = 1 + s_i with
    [U_i; -V_i]/sqrt(2); the other |P| - |Q| columns of U have lam = 1;
    an isolated node has lam = 0 with a unit vector. The columns come out
    ascending, isolated nodes first."""
    n = len(side)
    ni, n0, n1 = np.bincount(side + 1, minlength=3).tolist()
    if n0 < n1:  # colour 0 names P
        side = np.where(side < 0, -1, 1 - side)
    order = np.argsort(side, kind="stable")  # isolated nodes, then P, then Q
    k, nq = min(n0, n1), ni + max(n0, n1)
    iso, p, q = order[:ni], order[ni:nq], order[nq:]
    try:
        left, s, right_t = np.linalg.svd(-mat[p[:, None], q])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    left[:, :k] *= np.sqrt(0.5)
    right = right_t.T * np.sqrt(0.5)
    u = np.zeros((n, n))
    u[iso, np.arange(ni)] = 1.0
    u[p, ni:n - k] = left
    u[p, n - k:] = left[:, :k][:, ::-1]
    u[q, ni:ni + k] = right
    u[q, n - k:] = -right[:, ::-1]
    lam = np.ones(n)
    lam[:ni] = 0.0
    np.subtract(1.0, s, out=lam[ni:ni + k])
    np.add(1.0, s[::-1], out=lam[n - k:])
    return lam, u


def eigendecompose(l: NormalizedLaplacian, m: int | None = None) -> EigenSystem:
    """Symmetric eigendecomposition L = U diag(lam) U^T, the only producer
    of eigensystems.

    m=None asks for the full system, an integer m in [1, n] for exactly
    the m smallest eigenpairs. The solver follows from l's structure
    alone:
    - n >= LANCZOS_MIN_N and l is the path 0-1-...-(n-1) (an O(n) test of
      its degrees and CSR pattern): the closed form, built on the sparse
      matrix with no solver;
    - n >= LANCZOS_MIN_N, any other graph, m < n-1: shift-invert Lanczos
      on the sparse matrix (scipy's eigsh, shift just below 0, seeded start
      vector);
    - otherwise the dense matrix l.matrix.toarray() (the only place a
      dense Laplacian exists), sliced to m pairs. If its CSR pattern
      two-colours (one breadth-first pass) and its diagonal reads 1 on every
      node with an edge and 0 on the rest, as for every forest, the pairs
      come from the SVD of the half-size biadjacency block; any other
      graph gets dense eigh.
    Whichever the solver, pairs are checked, sorted, sign-fixed and clamped
    alike, and the arrays are read-only. When lam_m = lam_{m+1}, the m
    pairs are cut from inside a repeated eigenvalue, so which basis of
    that eigenspace the solver returns decides the system, and with it
    truncated:m output. Exact-mode output, and truncated:m output where
    lam_m < lam_{m+1}, do not depend on that basis.

    Failure of a solver, a residual ||L U - U diag(lam)||_max over
    RESIDUAL_TOL * max(1, |L|_max) * n (carried by the error; computed
    in column blocks from the matrix the solver worked on, the sparse one
    in O(nnz m) or the dense one by BLAS), or a Lanczos result that
    misses a copy of a repeated eigenvalue (an inertia count below the
    largest pair found) raises NumericalError; no solver stands in for
    another.
    """
    n = l.n
    if m is not None and require_int("m", m, 1) > n:
        raise ValueError(f"m must be in [1, {n}], got m={m} for n={n}")
    solver = None  # a dense solver
    if n >= LANCZOS_MIN_N and _is_path(l):
        solver = _path_pairs
    elif n >= LANCZOS_MIN_N and m is not None and m < n - 1:
        solver = _lanczos
    mat = l.matrix if solver else l.matrix.toarray()
    _check_square_symmetric(mat)
    if solver:
        lam, u = solver(mat, n if m is None else m)
    else:
        side = _two_colour(l.matrix)
        if side is not None and np.array_equal(mat.diagonal(), side >= 0):
            lam, u = _bipartite_pairs(mat, side)
        else:
            lam, u = _dense_eigh(mat)
    residual = 0.0
    for j in range(0, u.shape[1], RESIDUAL_BLOCK):
        r = mat @ u[:, j:j + RESIDUAL_BLOCK]
        r -= u[:, j:j + RESIDUAL_BLOCK] * lam[j:j + RESIDUAL_BLOCK]
        residual = max(residual, float(np.max(np.abs(r, out=r))))
    scale = float(np.max(np.abs(l.matrix.data), initial=0.0))
    bound = RESIDUAL_TOL * max(1.0, scale) * max(n, 1)
    if residual > bound:
        raise NumericalError(
            f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}",
            residual=residual,
        )
    if not np.all(lam[1:] >= lam[:-1]):  # a stable sort leaves ascending pairs in place
        order = np.argsort(lam, kind="stable")
        lam, u = lam[order], u[:, order]
    lam, u = lam[:m], u[:, :m]
    _fix_signs(u)
    lam = np.where((lam < 0.0) & (lam >= CLAMP_FLOOR), 0.0, lam)
    u = np.ascontiguousarray(u)
    lam.flags.writeable = False
    u.flags.writeable = False
    return EigenSystem(u, lam)


def as_signal(x, rows: int) -> np.ndarray:
    """x as a float64 (rows, d) signal, a real array (require_real_array,
    with no finiteness scan); any other shape is a ValueError."""
    x = require_real_array("signal", x)
    if x.ndim != 2 or x.shape[0] != rows:
        raise ValueError(f"expected signal of shape ({rows}, d), got {x.shape}")
    return x


def gft(eig: EigenSystem, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: U^T x, shape (m, d)."""
    return eig.analysis(as_signal(x, eig.n))


def igft(eig: EigenSystem, xhat: np.ndarray) -> np.ndarray:
    """Inverse transform: U xhat, shape (n, d)."""
    return eig.synthesis(as_signal(xhat, eig.m))


def apply_filter_exact(eig: EigenSystem, h, x: np.ndarray) -> np.ndarray:
    """h(L) x = U diag(h(lam)) U^T x for a scalar spectral response h,
    whose output must be a finite real array shaped like lam."""
    x = as_signal(x, eig.n)
    hv = require_real_array("filter output", h(eig.lam), finite=True)
    if hv.shape != eig.lam.shape:
        raise ValueError(f"filter returned shape {hv.shape}, expected {eig.lam.shape}")
    return eig.u @ (hv[:, None] * (eig.u.T @ x))


def chebyshev_nodes(order: int):
    """The P+1 first-kind Chebyshev nodes mapped onto [0, LAMBDA_MAX], and
    the (P+1, P+1) Chebyshev-Gauss matrix that takes a function's values
    at those nodes to its degree-P expansion coefficients. The order P
    must be an integer >= 0, as for MixMode's chebyshev:P. Both arrays
    are read-only and computed once per order (the last
    CHEBYSHEV_MEMO_SIZE orders are kept)."""
    # checked first: True hashes like 1 and would find order 1's entry
    return _chebyshev_nodes(require_int("chebyshev order", order, 0))


@lru_cache(maxsize=CHEBYSHEV_MEMO_SIZE)
def _chebyshev_nodes(order: int):
    p1 = order + 1
    theta = np.pi * (np.arange(p1) + 0.5) / p1
    lam_nodes = 0.5 * LAMBDA_MAX * (np.cos(theta) + 1.0)
    fit = (2.0 / p1) * np.cos(np.outer(np.arange(p1), theta))
    fit[0] *= 0.5
    lam_nodes.flags.writeable = False
    fit.flags.writeable = False
    return lam_nodes, fit


def chebyshev_fit(h, order: int):
    """Fit h on [0, LAMBDA_MAX] at order P via Chebyshev-Gauss quadrature.

    Uses the P+1 first-kind Chebyshev nodes mapped onto the interval.
    Returns (coeffs, max_err): the P+1 expansion coefficients and the
    maximum absolute expansion error at 1000 uniform test points. h must
    give finite real arrays shaped like its input, at the nodes and then at
    the points.
    """
    lam_nodes, fit = chebyshev_nodes(order)
    grid = np.linspace(0.0, LAMBDA_MAX, 1000)
    at_nodes, on_grid = (require_real_array("filter output", h(lam), finite=True)
                         for lam in (lam_nodes, grid))
    for hv, lam in ((at_nodes, lam_nodes), (on_grid, grid)):
        if hv.shape != lam.shape:
            raise ValueError(f"filter returned shape {hv.shape}, expected {lam.shape}")
    coeffs = fit @ at_nodes
    approx = np.polynomial.chebyshev.chebval(2.0 * grid / LAMBDA_MAX - 1.0, coeffs)
    max_err = float(np.max(np.abs(approx - on_grid)))
    return coeffs, max_err


def chebyshev_series(op: sparse.csr_array, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_p T_p(L - I) x * w[p], the Chebyshev kernel: L - I maps the
    [0, 2] spectrum onto [-1, 1].

    op is A2 = 2(L - I), a ChebyshevOperator's matrix (block diagonal for
    a disjoint union, x then holding its graphs' rows stacked). w is
    (P+1, 1) for one scalar series or (P+1, d) for one series per channel.
    T_1 x = A2 x / 2 (exact: halving undoes the exact doubling) and
    T_{p+1} x = A2 T_p x - T_{p-1} x: per order one CSR product of
    O(|E| d), one subtraction and one multiply-add into the sum, holding
    only T_{p-1} x, T_p x, the sum and one term buffer.
    """
    out = w[0] * x
    if len(w) == 1:
        return out
    term = np.empty_like(out)  # reused: a fresh (n, d) temporary per order is slower
    t_prev = x
    t_cur = op @ x
    t_cur *= 0.5
    out += np.multiply(w[1], t_cur, out=term)
    for p in range(2, len(w)):
        t_next = op @ t_cur
        t_next -= t_prev
        out += np.multiply(w[p], t_next, out=term)
        t_prev, t_cur = t_cur, t_next
    return out


def chebyshev_apply(l: NormalizedLaplacian, coeffs, x: np.ndarray) -> np.ndarray:
    """f(L) x for the expansion coeffs of f (from chebyshev_fit), via the
    chebyshev_series kernel on A2 = 2(L - I) formed from l. Never touches
    eigenvectors. l must be a NormalizedLaplacian and coeffs a non-empty,
    1-D, finite real array (require_real_array), checked before any
    product; anything else is a ValueError."""
    if not isinstance(l, NormalizedLaplacian):
        raise ValueError(f"chebyshev_apply needs a NormalizedLaplacian, got {type(l).__name__}")
    w = require_real_array("chebyshev coefficients", coeffs, finite=True)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("chebyshev coefficients must be a non-empty 1-D array, "
                         f"got shape {w.shape}")
    a2 = 2.0 * l.matrix - 2.0 * sparse.eye_array(l.n, format="csr")
    return chebyshev_series(a2, w[:, None], as_signal(x, l.n))


@dataclass(frozen=True)
class MixMode:
    """Evaluation strategy: exact, truncated(m), or chebyshev(order).

    exact takes no parameter, truncated an int m >= 1 (the smoothest
    modes kept), chebyshev an int order >= 0; anything else is rejected
    at construction; pairs(n) alone says how many eigenpairs it mixes over.
    """

    kind: str
    param: int | None = None

    def __post_init__(self):
        if self.kind == "exact":
            if self.param is not None:
                raise ValueError(f"exact mode takes no parameter, got {self.param!r}")
            return
        if self.kind == "truncated":
            low, what = 1, "truncation size"
        elif self.kind == "chebyshev":
            low, what = 0, "chebyshev order"
        else:
            raise ValueError(
                f"unknown mix mode {self.kind!r}; expected exact, truncated or chebyshev")
        object.__setattr__(self, "param", require_int(what, self.param, low))

    @classmethod
    def exact(cls) -> "MixMode":
        return cls("exact")

    @classmethod
    def truncated(cls, m: int) -> "MixMode":
        return cls("truncated", m)

    @classmethod
    def chebyshev(cls, order: int) -> "MixMode":
        return cls("chebyshev", order)

    def __str__(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param}"

    def pairs(self, n: int) -> int | None:
        """Eigenpairs this mode mixes over on an n-node graph: n for exact, m
        for truncated:m (ValueError naming m and n if m > n), None for chebyshev."""
        if self.kind != "truncated":
            return n if self.kind == "exact" else None
        if self.param > n:
            raise ValueError(f"{self} needs m <= n, got m={self.param} for a graph of n={n} nodes")
        return self.param


def require_mode(mode) -> MixMode:
    """mode itself if it is a MixMode, else a ValueError naming its type."""
    if not isinstance(mode, MixMode):
        raise ValueError(f"mix mode must be a MixMode, got {type(mode).__name__}")
    return mode


def parse_mix_mode(text: str) -> MixMode:
    """Inverse of str(MixMode): "exact", "truncated:M", "chebyshev:P"; a
    bare "truncated" or "chebyshev" takes 16. The text is a kind, or a
    kind, a colon and ASCII decimal digits; MixMode validates the rest."""
    if not isinstance(text, str):
        raise ValueError(f"mix mode must be a string such as 'truncated:16', got {text!r}")
    kind, colon, arg = text.partition(":")
    if not colon:
        return MixMode(kind, None if kind == "exact" else 16)
    if not (arg.isascii() and arg.isdigit()):
        raise ValueError(f"mix mode parameter {arg!r} in {text!r} is not a decimal integer")
    return MixMode(kind, int(arg))


class CacheStats(NamedTuple):
    """A SpectrumCache's counters: lookups answered from the cache, items
    built, items evicted, and the bytes its items hold now."""

    hits: int
    misses: int
    evictions: int
    nbytes: int


def _nbytes(item) -> int:
    """Bytes of the arrays a cached item holds: an EigenSystem's u and lam,
    a ChebyshevOperator's CSR arrays."""
    if isinstance(item, EigenSystem):
        return item.u.nbytes + item.lam.nbytes
    m = item.matrix
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


class SpectrumCache:
    """What mixing reads for one graph: one item per (g.spectral_key,
    mode.pairs(g.n)), the content hash of g's undirected structure
    (computed once per TokenGraph object) and a pair count, so a directed
    graph and its symmetrized form share items, and so do exact and
    truncated:n. The item is an EigenSystem, or for chebyshev (pair count
    None) the graph's ChebyshevOperator; no Laplacian is kept.

    Items are kept in insertion order and evicted oldest first once their
    bytes (_nbytes) exceed SPECTRUM_CACHE_BYTES, read when the cache is
    made; the newest is kept even when it alone exceeds the bound. A hit
    is a lock-free dict read (least-recently-used order would take the
    lock on every hit). Building, inserting and evicting are serialized
    behind a lock, so an item is built once while it is held, and misses,
    evictions and bytes are exact; hits are counted without the lock, so
    lookups that race may undercount them. stats() reads the counters.
    In-memory only.
    """

    def __init__(self):
        self._max_bytes = SPECTRUM_CACHE_BYTES
        self._items: dict = {}  # (spectral key, pair count or None) -> item, oldest first
        self._lock = threading.Lock()
        self._hits = self._misses = self._evictions = self._bytes = 0

    def __len__(self) -> int:
        return len(self._items)

    def stats(self) -> CacheStats:
        """Hits, misses and evictions so far, and the bytes held now."""
        return CacheStats(self._hits, self._misses, self._evictions, self._bytes)

    def get_or_compute(self, g: TokenGraph, mode: MixMode = MixMode.exact()):
        """The item mode mixes over for g's undirected structure: the
        EigenSystem of the mode.pairs(g.n) smallest pairs (all of them for
        exact; a ValueError before any solve if truncated:m has m > n), or
        the ChebyshevOperator for chebyshev. g must be a TokenGraph and
        mode a MixMode, checked before g is hashed."""
        if not isinstance(g, TokenGraph):
            raise ValueError(f"a spectrum is looked up for a TokenGraph, got {type(g).__name__}")
        m = require_mode(mode).pairs(g.n)
        key = (g.spectral_key, m)
        item = self._items.get(key)
        if item is not None:
            self._hits += 1  # unlocked: racing hits may undercount
            return item
        with self._lock:  # build what is missing, once
            item = self._items.get(key)
            if item is not None:
                self._hits += 1
                return item
            if m is None:
                item = ChebyshevOperator.of((g,))
            else:  # the Laplacian is dropped once solved
                item = eigendecompose(normalized_laplacian(g), m=m)
            self._misses += 1
            self._items[key] = item
            self._bytes += _nbytes(item)
            while self._bytes > self._max_bytes and len(self._items) > 1:
                self._bytes -= _nbytes(self._items.pop(next(iter(self._items))))
                self._evictions += 1
        return item

    def operand(self, graphs, mode: MixMode):
        """What mode mixes over for graphs, whose rows a signal stacks in
        order: a lone graph's cached EigenSystem or ChebyshevOperator; for
        several, the EigenStack of their cached systems or, looking nothing
        up, their ChebyshevOperator built afresh."""
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("an operand needs at least one graph")
        for g in graphs:
            if not isinstance(g, TokenGraph):
                raise ValueError(f"an operand is built from TokenGraphs, got {type(g).__name__}")
        if require_mode(mode).kind == "chebyshev" and len(graphs) > 1:
            return ChebyshevOperator.of(graphs)
        items = [self.get_or_compute(g, mode) for g in graphs]
        return items[0] if len(items) == 1 else EigenStack.of(items)

    def clear(self) -> None:
        """Drops every item; the counters keep counting."""
        with self._lock:
            self._items.clear()
            self._bytes = 0
