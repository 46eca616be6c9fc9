"""Token graphs and their normalized Laplacians.

A TokenGraph is a small directed graph over sequence positions (chain
neighbours, dependency arcs from a CoNLL-U parse, or anything hand built).
Spectral code sees only its undirected structure (edge direction and
duplicates dropped), through the normalized Laplacian
L = I - D^{-1/2} A D^{-1/2}, held as one sparse CSR matrix, and the
content hash that keys the spectrum cache. Both are built from the same
array of undirected edge codes, so no symmetrized copy of a graph is made.
"""

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np
from scipy import sparse

CHAIN_MEMO_SIZE = 64  # distinct chain lengths kept by build_chain_graph


class ConlluParseError(ValueError):
    """Malformed CoNLL-U input. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class TokenGraph:
    """Immutable directed graph over n token positions.

    n is an integer >= 1 (checked by require_int) and each edge a
    (src, dst) tuple, list or array of two integer indices (NumPy integers
    included, bools not); anything else raises ValueError.
    Duplicates collapse to one; self loops are rejected. Optional
    node_labels (e.g. word forms) are a sequence of n strings, kept as
    given: a label that is not a string raises ValueError.
    """

    n: int
    edges: tuple = ()
    node_labels: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", require_int("n", self.n, 1))
        seen = set()
        canon = []
        for e in self.edges:
            try:
                s, d = e
            except (TypeError, ValueError):  # not a pair
                s = d = None
            if type(e) is not tuple or type(s) is not int or type(d) is not int:
                if not (isinstance(e, (tuple, list, np.ndarray)) and _is_index(s) and _is_index(d)):
                    raise ValueError(f"edge {e!r} is not a (src, dst) pair of integers")
                s, d = int(s), int(d)
            if not (0 <= s < self.n and 0 <= d < self.n):
                raise ValueError(f"edge ({s}, {d}) out of range for n={self.n}")
            if s == d:
                raise ValueError(f"self loop ({s}, {d}) not allowed")
            if (s, d) not in seen:
                seen.add((s, d))
                canon.append((s, d))
        object.__setattr__(self, "edges", tuple(canon))
        if self.node_labels is not None:
            if isinstance(self.node_labels, str):
                raise ValueError(f"node labels must be a sequence of strings, "
                                 f"got {self.node_labels!r}")
            labels = tuple(self.node_labels)
            for x in labels:
                if not isinstance(x, str):
                    raise ValueError(f"node label {x!r} is not a string")
            if len(labels) != self.n:
                raise ValueError(
                    f"got {len(labels)} node labels for {self.n} nodes"
                )
            object.__setattr__(self, "node_labels", labels)

    def is_symmetric(self) -> bool:
        es = set(self.edges)
        return all((d, s) in es for s, d in es)

    @cached_property
    def spectral_key(self) -> str:
        """The spectrum cache key, content_hash(self), computed on first use."""
        return content_hash(self)


def _is_index(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def require_int(what: str, value, low: int) -> int:
    """value as an int; the check of every size, count and index the package
    takes. NumPy integers pass, bools do not; a miss raises ValueError."""
    if not _is_index(value) or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def build_chain_graph(n: int) -> TokenGraph:
    """Directed path over n >= 1 positions: edges (i, i+1). n=1 gives no edges.

    Graphs are immutable, so one shared object is returned per length
    (the last CHAIN_MEMO_SIZE lengths are memoized, keyed by the int that
    require_int returns); its cached spectral key makes repeated spectrum
    lookups for a length free of O(n) work.
    """
    return _chain_graph(require_int("n", n, 1))


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def _chain_graph(n: int) -> TokenGraph:
    return TokenGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def symmetrize(g: TokenGraph) -> TokenGraph:
    """Close the edge set under reversal. Node labels carry over."""
    es = set(g.edges)
    es.update((d, s) for s, d in g.edges)
    return TokenGraph(g.n, tuple(sorted(es)), g.node_labels)


def _undirected(g: TokenGraph) -> np.ndarray:
    """Ascending int64 codes a*n + b, a < b, one per undirected edge of g
    (an edge given in both directions, or twice, counts once)."""
    n = g.n
    flat = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64, count=2 * len(g.edges))
    src, dst = flat[0::2], flat[1::2]
    return np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))


def content_hash(g: TokenGraph) -> str:
    """Deterministic hash of n and g's undirected structure: labels, edge
    order, direction and duplicates are ignored, so
    content_hash(g) == content_hash(symmetrize(g))."""
    return hashlib.sha256(np.int64(g.n).tobytes() + _undirected(g).tobytes()).hexdigest()


@dataclass(frozen=True)
class NormalizedLaplacian:
    """Sparse normalized Laplacian of a graph's undirected structure.

    matrix is I - D^{-1/2} A D^{-1/2} as a scipy CSR array with sorted
    column indices, with the convention that isolated nodes get an empty
    row/column (diagonal 0, not 1). Its arrays and degrees are frozen.
    Products cost O(|E| d); only eigendecompose forms a dense copy.
    """

    matrix: sparse.csr_array
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def normalized_laplacian(g: TokenGraph) -> NormalizedLaplacian:
    """Build L = I - D^{-1/2} A D^{-1/2} of g's undirected structure, A
    the 0/1 adjacency of its undirected edges: a directed graph gives the
    Laplacian of symmetrize(g).

    The CSR arrays are filled directly from the undirected edge codes,
    each off-diagonal entry once per direction, with each non-isolated
    row's diagonal entry merged in by column order.
    """
    n = g.n
    a, b = np.divmod(_undirected(g), n)
    src, dst = np.concatenate((a, b)), np.concatenate((b, a))
    count = np.bincount(src, minlength=n)
    deg = count.astype(np.float64)
    diag = np.flatnonzero(count)
    dinv = np.zeros(n)
    dinv[diag] = 1.0 / np.sqrt(deg[diag])
    # row-major order; the codes are distinct, so any sort gives one order
    order = np.argsort(np.concatenate((src * n + dst, diag * (n + 1))))
    indices = np.concatenate((dst, diag)).astype(np.int32)[order]
    data = np.concatenate((-(dinv[src] * dinv[dst]), np.ones(len(diag))))[order]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(count + (count > 0), out=indptr[1:])
    for arr in (data, indices, indptr, deg):
        arr.flags.writeable = False
    return NormalizedLaplacian(sparse.csr_array((data, indices, indptr), shape=(n, n)), deg)


def parse_conllu(text: str) -> list[TokenGraph]:
    """Read dependency graphs from CoNLL-U text.

    One TokenGraph per sentence; node i is token i+1, node_labels are the
    FORM column, and each head h > 0 contributes a directed edge
    (h-1, token-1). Multiword ranges ("1-2") and empty nodes ("1.1") are
    skipped; comment lines are ignored. Malformed rows raise
    ConlluParseError with the offending line number.
    """
    graphs = []
    tokens = []  # (id, form, head, line_no)

    def finish():
        if not tokens:
            return
        n = len(tokens)
        edges = []
        labels = []
        for tid, form, head, line_no in tokens:
            if head < 0 or head > n:
                raise ConlluParseError(
                    line_no, f"head {head} out of range for sentence of {n} tokens"
                )
            if head == tid:
                raise ConlluParseError(line_no, f"token {tid} is its own head")
            if head > 0:
                edges.append((head - 1, tid - 1))
            labels.append(form)
        graphs.append(TokenGraph(n, tuple(edges), tuple(labels)))
        tokens.clear()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            finish()
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluParseError(
                line_no, f"expected 10 tab-separated columns, got {len(cols)}"
            )
        tid = cols[0]
        if "-" in tid or "." in tid:
            continue  # multiword range / empty node: no graph node
        try:
            tid = int(tid)
        except ValueError:
            raise ConlluParseError(line_no, f"bad token id {cols[0]!r}") from None
        if tid != len(tokens) + 1:
            raise ConlluParseError(
                line_no, f"token id {tid} out of order (expected {len(tokens) + 1})"
            )
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluParseError(line_no, f"bad head {cols[6]!r}") from None
        tokens.append((tid, cols[1], head, line_no))
    finish()
    return graphs


def to_conllu(g: TokenGraph) -> str:
    """Serialize a dependency forest back to CoNLL-U (round-trip helper).

    Requires every node to have at most one incoming edge.
    """
    head = [0] * g.n
    for s, d in g.edges:
        if head[d] != 0:
            raise ValueError(f"node {d} has multiple heads; not a forest")
        head[d] = s + 1
    lines = []
    for i in range(g.n):
        form = g.node_labels[i] if g.node_labels else f"w{i + 1}"
        lines.append(
            "\t".join([str(i + 1), form, "_", "_", "_", "_", str(head[i]), "_", "_", "_"])
        )
    return "\n".join(lines) + "\n\n"


def graph_to_json(g: TokenGraph) -> str:
    """Graph as a JSON object {"n", "edges", "labels"?}."""
    doc = {"n": g.n, "edges": [[s, d] for s, d in g.edges]}
    if g.node_labels is not None:
        doc["labels"] = list(g.node_labels)
    return json.dumps(doc, sort_keys=True)


def graph_from_json(text: str) -> TokenGraph:
    """Inverse of graph_to_json. Malformed input raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ValueError('graph JSON must be an object with "n" and "edges"')
    n, edges, labels = doc["n"], doc["edges"], doc.get("labels")
    if type(n) is not int:
        raise ValueError(f'graph "n" must be an integer, got {n!r}')
    if not isinstance(edges, list):
        raise ValueError(f'graph "edges" must be a list of [src, dst] pairs, got {edges!r}')
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise ValueError(f'graph "labels" must be a list of strings, got {labels!r}')
    return TokenGraph(n, tuple(edges), None if labels is None else tuple(labels))
