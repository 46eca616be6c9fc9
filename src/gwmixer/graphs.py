"""Token graphs and their normalized Laplacians.

A TokenGraph is a small directed graph over sequence positions (chain
neighbours, dependency arcs from a CoNLL-U parse, or anything hand built).
Spectral code sees only its undirected structure (edge direction and
duplicates dropped), through the normalized Laplacian
L = I - D^{-1/2} A D^{-1/2}, held as one sparse CSR matrix, and the
content hash that keys the spectrum cache. Both are built from the same
array of undirected edge codes (TokenGraph.undirected, computed once per
graph), so no symmetrized copy of a graph is made; one CSR fill builds L
and the Chebyshev operator A2 = 2(L - I) alike.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy import sparse

CHAIN_MEMO_SIZE = 64  # distinct chain lengths kept by build_chain_graph
MAX_NODES = 2**31 - 1  # the largest n: CSR Laplacian indices are int32, edge codes int64


class ConlluParseError(ValueError):
    """Malformed CoNLL-U input. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class TokenGraph:
    """Immutable directed graph over n token positions.

    n is an integer in [1, MAX_NODES]. edges is stored as a read-only
    (E, 2) int64 array of (src, dst) rows. It may be given as an (E, 2)
    integer array, or as a list, tuple or array of (src, dst) tuples, lists
    or arrays of two integer indices (NumPy integers included, bools not);
    anything else raises ValueError, and so does the first edge that is out
    of range or a self loop. Duplicates collapse to their first occurrence.
    Two graphs are equal when their n, edge rows (in order) and labels are.
    Optional node_labels (e.g. word forms) are a list, tuple or array of n
    strings, kept in order: anything else, or a label that is not a string,
    raises ValueError.
    """

    n: int
    edges: np.ndarray = ()
    node_labels: tuple | None = None

    def __post_init__(self):
        n = _require_nodes(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _edge_array(self.edges, n))
        if self.node_labels is not None:
            if not isinstance(self.node_labels, _SEQUENCES):  # a str, set or dict included
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

    def __eq__(self, other):
        if not isinstance(other, TokenGraph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.edges, other.edges)
                and self.node_labels == other.node_labels)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes(), self.node_labels))

    def __reduce__(self):  # copies and pickles rebuild, so their edges are read-only too
        return TokenGraph, (self.n, self.edges, self.node_labels)

    def is_symmetric(self) -> bool:
        # edges are distinct and loop free: each undirected edge is one row or two
        return len(self.edges) == 2 * len(self.undirected)

    @cached_property
    def undirected(self) -> np.ndarray:
        """Ascending read-only int64 codes a*n + b, a < b, one per undirected
        edge (an edge given in both directions counts once), computed on
        first use: what the hash, the Laplacian, the Chebyshev operator,
        symmetrize and is_symmetric read. Codes are below n**2 < 2**62."""
        codes = np.sort(self.edges.min(axis=1) * self.n + self.edges.max(axis=1))
        keep = np.ones(len(codes), dtype=bool)
        keep[1:] = codes[1:] != codes[:-1]
        codes = codes[keep]
        codes.flags.writeable = False
        return codes

    @cached_property
    def spectral_key(self) -> str:
        """The spectrum cache key, content_hash(self), computed on first use."""
        return content_hash(self)


_INT64 = np.iinfo(np.int64)
_SEQUENCES = (list, tuple, np.ndarray)  # the containers edges and labels are taken from


def _edge_array(edges, n: int) -> np.ndarray:
    """edges as a new read-only (E, 2) int64 array, duplicates dropped after
    their first occurrence. The first bad edge in order raises ValueError."""
    if not isinstance(edges, _SEQUENCES):
        raise ValueError(f"edges must be a list, tuple or array of (src, dst) pairs, got {edges!r}")
    if (isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] == 2
            and edges.dtype.kind in "iu"):
        arr, malformed = edges, None
    else:
        arr, malformed = _scan_pairs(edges, n)
    out = arr.astype(np.int64)  # a copy, so the caller's array stays theirs
    # as uint64 a negative index (or a wrapped uint64 one) is past any n
    if out.view(np.uint64).max(initial=0) >= n or (out[:, 0] == out[:, 1]).any():
        bad = ((arr < 0) | (arr >= n)).any(axis=1) | (arr[:, 0] == arr[:, 1])
        s, d = arr[np.argmax(bad)].tolist()
        if s == d and 0 <= s < n:
            raise ValueError(f"self loop ({s}, {d}) not allowed")
        raise ValueError(f"edge ({s}, {d}) out of range for n={n}")
    if malformed is not None:
        raise malformed
    # rows whose dst strictly increases (parsed trees, chains) are distinct
    if len(out) > 1 and not (out[1:, 1] > out[:-1, 1]).all():
        first = np.unique(out[:, 0] * n + out[:, 1], return_index=True)[1]
        if len(first) < len(out):
            out = out[np.sort(first)]
    out.flags.writeable = False
    return out


def _scan_pairs(edges, n: int):
    """The edges before the first one that is not a pair of integer indices
    (or does not fit int64), as an (E, 2) int64 array, and the ValueError
    for that edge (None if there is none)."""
    pairs = []
    error = None
    for e in edges:
        try:
            s, d = e
        except (TypeError, ValueError):  # not a pair
            s = d = None
        if not (isinstance(e, (tuple, list, np.ndarray)) and _is_index(s) and _is_index(d)):
            error = ValueError(f"edge {e!r} is not a (src, dst) pair of integers")
            break
        s, d = int(s), int(d)
        if not (_INT64.min <= s <= _INT64.max and _INT64.min <= d <= _INT64.max):
            error = ValueError(f"edge ({s}, {d}) out of range for n={n}")
            break
        pairs.append((s, d))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), error


def _is_index(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def require_int(what: str, value, low: int) -> int:
    """value as an int; the check of every size, count and index the package
    takes. NumPy integers pass, bools do not; a miss raises ValueError."""
    if not _is_index(value) or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_int_array(what: str, values) -> np.ndarray:
    """values as an int64 array: the array rule (_require_array) of every
    array of ids, targets and sample sizes the package takes."""
    return _require_array(what, values, "iu", "an integer").astype(np.int64, copy=False)


def require_real(what: str, value, low, high=math.inf, strict: bool = False) -> float:
    """value as a float; the check of every real scalar the package takes: a
    finite int or float (NumPy's too; bools and strings are not numbers) in
    [low, high], or with strict in (low, high). A miss raises ValueError
    "<what> must be a finite number <bound>, got <value!r>"."""
    real = _is_index(value) or isinstance(value, (float, np.floating))
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not (math.isfinite(x) and (low < x < high if strict else low <= x <= high)):
        if high == math.inf:
            bound = f"{'>' if strict else '>='} {low}"
        else:
            bound = f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"
        raise ValueError(f"{what} must be a finite number {bound}, got {value!r}")
    return x


def require_real_array(what: str, values, finite: bool = False) -> np.ndarray:
    """values as a float64 array (the array itself if it is one): the array
    rule (_require_array) of every real array the package takes, integer
    dtypes included. With finite, a nan or inf entry is a ValueError too."""
    arr = _require_array(what, values, "iuf", "a real").astype(np.float64, copy=False)
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite, got {float(arr[~np.isfinite(arr)][0])!r}")
    return arr


def _require_array(what: str, values, kinds: str, kind: str) -> np.ndarray:
    """values as an array whose dtype kind is in kinds, never cast: the one
    array rule, and the package's only np.asarray of a caller's value. Any
    other dtype, a ragged nesting's object included, is ValueError "<what>
    must be <kind> array, got dtype <dtype>", and a bool entry (Python's or
    NumPy's) in a list or tuple read as numbers is "..., got bool entry <v!r>"."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind not in kinds:
        raise ValueError(f"{what} must be {kind} array, got dtype {arr.dtype}")
    # NumPy reads [1.0, True] as [1.0, 1.0]; an array is not scanned
    pending = [values] if isinstance(values, (list, tuple)) and arr.dtype.kind != "b" else []
    while pending:  # nested lists and tuples, first entry first
        v = pending.pop()
        if isinstance(v, (bool, np.bool_)):
            raise ValueError(f"{what} must be {kind} array, got bool entry {v!r}")
        if isinstance(v, (list, tuple)):
            pending.extend(reversed(v))
    return arr


def _require_nodes(n) -> int:
    """n as an int, the node count of a graph: an integer >= 1 (require_int)
    and at most MAX_NODES, else ValueError."""
    n = require_int("n", n, 1)
    if n > MAX_NODES:
        raise ValueError(f"n must be at most {MAX_NODES}, got {n}")
    return n


def build_chain_graph(n: int) -> TokenGraph:
    """Directed path over n >= 1 positions: edges (i, i+1). n=1 gives no edges.

    Graphs are immutable, so one shared object is returned per length
    (the last CHAIN_MEMO_SIZE lengths are memoized, keyed by the int that
    _require_nodes returns); its cached spectral key makes repeated spectrum
    lookups for a length free of O(n) work.
    """
    return _chain_graph(_require_nodes(n))


@lru_cache(maxsize=CHAIN_MEMO_SIZE)
def _chain_graph(n: int) -> TokenGraph:
    return TokenGraph(n, np.stack((np.arange(n - 1), np.arange(1, n)), axis=1))


def symmetrize(g: TokenGraph) -> TokenGraph:
    """Close the edge set under reversal, rows in (src, dst) order. Node
    labels carry over."""
    a, b = np.divmod(g.undirected, g.n)
    both = np.sort(np.concatenate((g.undirected, b * g.n + a)))
    return TokenGraph(g.n, np.stack(np.divmod(both, g.n), axis=1), g.node_labels)


def content_hash(g: TokenGraph) -> str:
    """Deterministic hash of n and g's undirected structure: labels, edge
    order, direction and duplicates are ignored, so
    content_hash(g) == content_hash(symmetrize(g))."""
    return hashlib.sha256(np.int64(g.n).tobytes() + g.undirected.tobytes()).hexdigest()


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
    """L = I - D^{-1/2} A D^{-1/2} of g's undirected structure (A its 0/1
    adjacency) by _csr_fill, the Laplacian of symmetrize(g) for a directed g."""
    return NormalizedLaplacian(*_csr_fill(g.n, *np.divmod(g.undirected, g.n), chebyshev=False))


def _csr_fill(n: int, a: np.ndarray, b: np.ndarray, chebyshev: bool):
    """(CSR array, degrees) of L = I - D^{-1/2} A D^{-1/2}, or with
    chebyshev of A2 = 2(L - I), for the n nodes whose undirected edges are
    the distinct pairs (a[i], b[i]), a < b: frozen arrays, int32 indices,
    sorted columns. Off-diagonal entries are filled once per direction
    (doubled exactly for A2) and the diagonal merged in by column order:
    L has 1 on each node with an edge, A2 -2 on each isolated node and no
    stored zeros (1 - 1 cancels on the others)."""
    src, dst = np.concatenate((a, b)), np.concatenate((b, a))
    count = np.bincount(src, minlength=n)
    deg = count.astype(np.float64)
    dinv = np.zeros(n)
    np.divide(1.0, np.sqrt(deg), out=dinv, where=count > 0)
    on_diag = (count > 0) != chebyshev  # L: nodes with an edge; A2: isolated nodes
    diag = np.flatnonzero(on_diag)
    # row-major order; the codes are distinct, so any sort gives one order
    order = np.argsort(np.concatenate((src * n + dst, diag * (n + 1))))
    indices = np.concatenate((dst, diag)).astype(np.int32)[order]
    scale, unit = (-2.0, -2.0) if chebyshev else (-1.0, 1.0)
    data = np.concatenate((scale * (dinv[src] * dinv[dst]), np.full(len(diag), unit)))[order]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(count + on_diag, out=indptr[1:])
    for arr in (data, indices, indptr, deg):
        arr.flags.writeable = False
    return sparse.csr_array((data, indices, indptr), shape=(n, n)), deg


def parse_conllu(text: str) -> list[TokenGraph]:
    """Read dependency graphs from CoNLL-U text.

    One TokenGraph per sentence; node i is token i+1, node_labels are the
    FORM column, and each head h > 0 contributes a directed edge
    (h-1, token-1). Lines are those of text.splitlines(); whitespace-only
    lines end a sentence. Multiword ranges ("1-2") and empty nodes ("1.1")
    are skipped; comment lines are ignored. Malformed rows raise
    ConlluParseError with the offending line number: a wrong column count,
    an ID or HEAD that int() rejects, or an ID out of order at its line; a
    head out of range or a token that is its own head when the sentence
    ends, at the first such token's line.

    The text is scanned in chunks of about CONLLU_CHUNK characters that end
    just after a blank line, each with array operations over its character
    codes, so that an error is raised where reading line by line would
    raise it first.
    """
    doc = _scan_conllu(text)
    forms = [text[i:j] for i, j in doc.forms.tolist()]
    graphs, t = [], 0
    for n, a, b in zip(doc.sizes.tolist(), doc.arcs[:-1].tolist(), doc.arcs[1:].tolist()):
        graphs.append(TokenGraph(n, doc.edges[a:b], tuple(forms[t:t + n])))
        t += n
    return graphs


class _ConlluArrays(NamedTuple):
    """A CoNLL-U text as arrays, sentence by sentence (all int64; training
    keeps edges as int32, see tasks._Sentences)."""

    sizes: np.ndarray  # (S,) tokens per sentence
    edges: np.ndarray  # (E, 2) (head-1, token-1) rows, read-only
    arcs: np.ndarray  # (S+1,) sentence s's edges are edges[arcs[s]:arcs[s+1]]
    forms: np.ndarray  # (T, 2) [start, end) of each token's FORM in the text


def _scan_conllu(text: str) -> _ConlluArrays:
    """The one CoNLL-U reader behind parse_conllu, which documents what it
    accepts and the ConlluParseError it raises, returning the text as
    arrays: no graph or word form is made."""
    sizes, edges, arcs, forms = [_EMPTY], [_EMPTY.reshape(0, 2)], [], [_EMPTY.reshape(0, 2)]
    pos, line, arc = 0, 1, 0
    while pos < len(text):
        end = _chunk_end(text, pos)
        n, e, a, f, line = _parse_chunk(text[pos:end], line)
        sizes.append(n)
        edges.append(e)
        arcs.append(a + arc)
        forms.append(f + pos)
        pos, arc = end, arc + len(e)
    arcs.append(np.array([arc]))
    edges = np.concatenate(edges)
    edges.flags.writeable = False
    return _ConlluArrays(np.concatenate(sizes), edges, np.concatenate(arcs),
                         np.concatenate(forms))


CONLLU_CHUNK = 1 << 20  # characters per CoNLL-U scan; bounds its transient arrays

_DIGITS_MAX = 18  # longer fields, or fields not all ASCII digits, go through int()
_EMPTY = np.zeros(0, dtype=np.int64)


def _chunk_end(text: str, pos: int) -> int:
    """End of the chunk that starts at pos: just after the first blank line
    ("\n\n" or "\n\r\n") that ends at least CONLLU_CHUNK characters in, or
    the end of the text. Chunks therefore end at sentence boundaries."""
    start = pos + CONLLU_CHUNK
    cut = text.find("\n\n", start)
    cut = len(text) if cut < 0 else cut + 2
    crlf = text.find("\n\r\n", start, cut)
    return cut if crlf < 0 else crlf + 3


def _parse_chunk(text: str, first_line: int):
    """Scan one chunk of CoNLL-U text, whole sentences whose first line is
    number first_line. Returns its sentence sizes, its edges, the offset
    of each sentence's first edge, its FORM spans (offsets in the chunk)
    and the number of the line after the chunk."""
    if text.isascii():
        code = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        brk = (code - 10 < 4) | (code - 28 < 3)  # the str.splitlines breaks below 128
    else:  # one UTF-32 unit per character, so offsets stay str offsets
        code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        brk = (code - 10 < 4) | (code - 28 < 3) | (code == 0x85) | (code - 0x2028 < 2)
    size = len(code)

    # lines [starts, ends): a break ends a line, "\r\n" is one break
    ends = np.flatnonzero(brk)
    ends = ends[~((code[ends] == 10) & (ends > 0) & (code[ends - 1] == 13))]
    crlf = (code[ends] == 13) & (ends + 1 < size)
    crlf[crlf] = code[ends[crlf] + 1] == 10
    starts = np.concatenate(([0], ends + 1 + crlf))
    if starts[-1] < size:
        ends = np.append(ends, size)
    else:
        starts = starts[:-1]
    lines = len(starts)

    # blank: empty, or whitespace only (asked of str.isspace for a line
    # that starts with whitespace or a non-ASCII character)
    blank = starts == ends
    lead = code[starts]
    maybe = ~blank & ((lead - 9 < 5) | (lead - 28 < 5) | (lead > 127))
    for i in np.flatnonzero(maybe).tolist():
        blank[i] = text[starts[i]:ends[i]].isspace()
    data = ~blank & (lead != ord("#"))
    tabs = np.flatnonzero(code == 9)
    first_tab = np.searchsorted(tabs, starts)
    columns = np.searchsorted(tabs, ends) - first_tab + 1

    rows = np.flatnonzero(data & (columns == 10))
    tab = tabs[first_tab[rows, None] + [0, 1, 5, 6]]  # tabs 1, 2, 6 and 7 of each row
    marks = np.flatnonzero((code == ord("-")) | (code == ord(".")))
    skipped = np.searchsorted(marks, tab[:, 0]) > np.searchsorted(marks, starts[rows])
    tok, tab = rows[~skipped], tab[~skipped]  # token lines, in line order
    id_at = (starts[tok], tab[:, 0])
    head_at = (tab[:, 2] + 1, tab[:, 3])
    tid, tid_ok = _field_ints(text, code, *id_at)
    head, head_ok = _field_ints(text, code, *head_at)

    # a sentence is the token lines between blank lines
    sentence = np.cumsum(blank)[tok]
    opens = np.ones(len(tok), dtype=bool)
    opens[1:] = sentence[1:] != sentence[:-1]
    first = np.flatnonzero(opens)
    sizes = np.diff(np.append(first, len(tok)))
    ordinal = np.arange(len(tok)) - np.repeat(first, sizes) + 1
    length = np.repeat(sizes, sizes)

    # the first error a line-by-line reader meets: a bad line, or a bad
    # head when the blank line (or the end of text) closing its sentence is read
    bad_line = data & (columns != 10)
    bad_line[tok] = ~tid_ok | (tid != ordinal) | ~head_ok
    at = int(np.argmax(bad_line)) if bad_line.any() else None
    bad_head = (head < 0) | (head > length) | (head == tid)
    if bad_head.any():
        t = int(np.argmax(bad_head))
        closes = np.flatnonzero(blank[tok[t]:])
        if at is None or (len(closes) and tok[t] + closes[0] < at):
            n, h, k = int(length[t]), int(text[head_at[0][t]:head_at[1][t]]), int(tid[t])
            line = first_line + int(tok[t])
            if h < 0 or h > n:
                raise ConlluParseError(line, f"head {h} out of range for sentence of {n} tokens")
            raise ConlluParseError(line, f"token {k} is its own head")
    if at is not None:
        line = first_line + at
        if not data[at] or columns[at] != 10:
            raise ConlluParseError(line, f"expected 10 tab-separated columns, got {columns[at]}")
        t = int(np.searchsorted(tok, at))
        if not tid_ok[t]:
            raise ConlluParseError(line, f"bad token id {text[id_at[0][t]:id_at[1][t]]!r}")
        if tid[t] != ordinal[t]:
            k = int(text[id_at[0][t]:id_at[1][t]])
            raise ConlluParseError(line, f"token id {k} out of order (expected {ordinal[t]})")
        raise ConlluParseError(line, f"bad head {text[head_at[0][t]:head_at[1][t]]!r}")

    arcs = head > 0
    edges = np.stack((head[arcs] - 1, ordinal[arcs] - 1), axis=1)
    arc_first = np.searchsorted(np.flatnonzero(arcs), first)
    forms = np.stack((tab[:, 0] + 1, tab[:, 1]), axis=1)
    return sizes, edges, arc_first, forms, first_line + lines


def _field_ints(text: str, code: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """int() of each field text[lo:hi]: values (int64; -1 for a value that
    does not fit, which an error message reads again from the text) and a
    mask of the fields int() accepts. Fields of 1 to _DIGITS_MAX ASCII
    digits are read with array operations; int() reads the rest, so it
    decides what is valid."""
    width = hi - lo
    ok = (width >= 1) & (width <= _DIGITS_MAX)
    value = np.zeros(len(lo), dtype=np.int64)
    zero = code.dtype.type(ord("0"))
    for j in range(min(int(width.max(initial=0)), _DIGITS_MAX)):
        # digit j from the right; unsigned, so a character below "0" wraps
        # past 9. A negative index (a field at the start of the text) reads
        # a character that inside masks out.
        inside = width > j
        digit = code[hi - 1 - j] - zero
        ok &= (digit < 10) | ~inside
        value += np.where(inside, digit, 0) * np.int64(10 ** j)
    for f in np.flatnonzero(~ok).tolist():
        try:
            v = int(text[lo[f]:hi[f]])
        except ValueError:
            value[f] = 0
            continue
        ok[f] = True
        value[f] = v if _INT64.min <= v <= _INT64.max else -1
    return value, ok


def to_conllu(g: TokenGraph) -> str:
    """Serialize a dependency forest back to CoNLL-U (round-trip helper).

    Requires every node to have at most one incoming edge, and every label
    to hold no tab and no str.splitlines break, which would split its row.
    """
    head = [0] * g.n
    for s, d in g.edges.tolist():
        if head[d] != 0:
            raise ValueError(f"node {d} has multiple heads; not a forest")
        head[d] = s + 1
    lines = []
    for i in range(g.n):
        form = g.node_labels[i] if g.node_labels else f"w{i + 1}"
        # a character after a trailing break makes it split the text too
        if "\t" in form or len((form + ".").splitlines()) > 1:
            raise ValueError(f"node {i} label {form!r} holds a tab or a line break")
        lines.append(
            "\t".join([str(i + 1), form, "_", "_", "_", "_", str(head[i]), "_", "_", "_"])
        )
    return "\n".join(lines) + "\n\n"


def graph_to_json(g: TokenGraph) -> str:
    """Graph as a JSON object {"n", "edges", "labels"?}."""
    doc = {"n": g.n, "edges": g.edges.tolist()}
    if g.node_labels is not None:
        doc["labels"] = list(g.node_labels)
    return json.dumps(doc, sort_keys=True)


def graph_from_json(text: str) -> TokenGraph:
    """Inverse of graph_to_json. Malformed input raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ValueError('graph JSON must be an object with "n" and "edges"')
    return TokenGraph(doc["n"], doc["edges"], doc.get("labels"))
