"""Synthetic sequence tasks over token graphs.

Three task kinds: copy (predict the input), reverse (predict the input
read backwards), masked_recovery (predict original tokens at masked
positions). Graphs come from a chain over positions or from CoNLL-U
dependency parses. Generation is deterministic per (spec, seed).
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .graphs import TokenGraph, _scan_conllu, build_chain_graph, require_int
from .spectral import MixMode

TASK_KINDS = ("copy", "reverse", "masked_recovery")

# masked_recovery tokens combine three independent "digit" streams with
# structure at three distinct scales: a slow sticky Markov stream (long
# runs -> smooth, wide-neighbourhood signal) and two cyclic counters of
# different spatial periods, each advancing from a random start phase (a
# pure spatial oscillation whose phase can only be carried through a
# matching frequency band). A masked token is recovered well only by
# aggregating context at all three scales at once. With i.i.d. tokens
# the task would sit at chance level no matter the model; with a single
# scale, one aggregation profile would suffice.
STICKY_REPEAT = 15 / 16
COUNTER_BASE = 3
COUNTER_HOLDS = (1, 2)  # spatial periods 3 and 6
# token value space too small to split into digits -> one sticky stream
FALLBACK_REPEAT = 3 / 4
SENTENCE_FILES = 4  # scanned CoNLL-U files kept by _conllu_sentences


@dataclass(frozen=True)
class TaskSpec:
    """What a run's samples are drawn from, and the one owner of its rules:
    task in TASK_KINDS, n (a chain's length) and vocab integers >= 2,
    mask_rate in (0, 1), conllu a non-empty path or None for a chain of n
    nodes. Anything else raises a ValueError that starts with the field."""

    task: str
    n: int
    vocab: int
    mask_rate: float = 0.25
    conllu: str | None = None

    def __post_init__(self):
        if self.task not in TASK_KINDS:
            raise ValueError(f"task must be one of {', '.join(TASK_KINDS)}, got {self.task!r}")
        for name in ("n", "vocab"):
            require_int(name, getattr(self, name), 2)
        rate = self.mask_rate
        if isinstance(rate, bool) or not isinstance(rate, Real) or not 0.0 < rate < 1.0:
            raise ValueError(f"mask_rate must be a number in (0, 1), got {rate!r}")
        if self.conllu is not None and not (isinstance(self.conllu, str) and self.conllu):
            raise ValueError(f"conllu must be a non-empty path or null, got {self.conllu!r}")

    @property
    def mask_token(self) -> int:
        """Highest id is reserved as the MASK token."""
        return self.vocab - 1


@dataclass
class TaskSample:
    graph: TokenGraph
    tokens: np.ndarray  # (n,) int64 model input
    targets: np.ndarray  # (n,) int64
    mask: np.ndarray  # (n,) bool, True where the position is scored


class _Sentences:
    """The sentences of a CoNLL-U file as the scan's arrays: sizes (int64),
    and sentence i's edges at edges[starts[i]:stops[i]] (int64 offsets).
    edges is a read-only (E, 2) int32 array of (head-1, token-1) rows: a
    graph has at most graphs.MAX_NODES nodes, so its indices fit, and a
    drawn TokenGraph copies its rows to int64. Sentence i's graph, without
    labels, is built the first time it is drawn and kept, so a graph drawn
    again is the same object, its spectral key already hashed."""

    def __init__(self, sizes, edges, starts, stops):
        self.sizes, self.edges, self.starts, self.stops = sizes, edges, starts, stops
        self._graphs = {}

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, i: int) -> TokenGraph:
        g = self._graphs.get(i)
        if g is None:  # setdefault: threads that race here still share one graph
            g = self._graphs.setdefault(i, TokenGraph(int(self.sizes[i]),
                                                      self.edges[self.starts[i]:self.stops[i]]))
        return g


@lru_cache(maxsize=SENTENCE_FILES)
def _conllu_sentences(path: str) -> _Sentences:
    """The sentences of at least 2 tokens of path, in file order, scanned
    (and so checked) once for each of the last SENTENCE_FILES paths read."""
    with open(path, encoding="utf-8") as fh:
        doc = _scan_conllu(fh.read())
    keep = doc.sizes >= 2
    if not keep.any():
        raise ValueError(f"{path}: no sentences with at least 2 tokens")
    edges = doc.edges.astype(np.int32)  # half the bytes the run keeps
    edges.flags.writeable = False
    return _Sentences(doc.sizes[keep], edges, doc.arcs[:-1][keep], doc.arcs[1:][keep])


def check_mode(spec: TaskSpec, mode: MixMode) -> None:
    """Raise ValueError unless mode fits every graph spec draws: the chain
    of spec.n nodes, or the shortest kept sentence of its CoNLL-U file
    (from the cached scan), named with the file in the error."""
    if spec.conllu is None:
        mode.pairs(spec.n)
        return
    shortest = int(_conllu_sentences(spec.conllu).sizes.min())
    try:
        mode.pairs(shortest)
    except ValueError as exc:
        raise ValueError(f"{spec.conllu}: its shortest sentence has {shortest} tokens; "
                         f"{exc}") from None


def _sticky_chain(rng: np.random.Generator, n: int, base: int, repeat: float) -> np.ndarray:
    """n digits in [0, base): a first draw, then each next digit repeats
    the one before with probability repeat and is a fresh draw otherwise.
    Draw order is fixed: the first digit, n-1 uniforms, n-1 fresh digits."""
    draws = np.empty(n, dtype=np.int64)
    draws[0] = rng.integers(base)
    # each digit's own draw index, 0 where it repeats; the running maximum
    # then names the draw that each digit copies
    last = np.arange(n)
    last[1:][rng.random(n - 1) < repeat] = 0
    draws[1:] = rng.integers(base, size=n - 1)
    return draws[np.maximum.accumulate(last)]


def _multiscale_tokens(rng: np.random.Generator, n: int, values: int) -> np.ndarray:
    """Sticky chain digit combined with two cyclic counter digits.

    `values` is the number of usable token ids; the digits multiply out
    to at most `values`, so the MASK id is never produced. Draw order is
    fixed: sticky chain first, then one start phase per counter.
    """
    combined = COUNTER_BASE ** len(COUNTER_HOLDS)
    if values < 2 * combined:
        return _sticky_chain(rng, n, values, FALLBACK_REPEAT)
    toks = _sticky_chain(rng, n, values // combined, STICKY_REPEAT)
    pos = np.arange(n, dtype=np.int64)
    for hold in COUNTER_HOLDS:
        phase = int(rng.integers(COUNTER_BASE))
        toks = toks * COUNTER_BASE + (phase + pos // hold) % COUNTER_BASE
    return toks


def gen_task_batch(spec: TaskSpec, seed) -> TaskSample:
    """One deterministic sample. seed is a SeedSequence or an integer >= 0.

    Draw order is fixed: graph choice (conllu only), then tokens, then
    mask positions. Token ids are uniform over [0, vocab-1) so the MASK
    id never occurs as a regular token.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    if spec.conllu is None:
        graph = build_chain_graph(spec.n)
    else:
        sents = _conllu_sentences(spec.conllu)
        graph = sents[int(rng.integers(len(sents)))]
    n = graph.n
    hi = spec.vocab - 1
    if spec.task == "copy":
        tokens = rng.integers(hi, size=n).astype(np.int64)
        return TaskSample(graph, tokens, tokens.copy(), np.ones(n, dtype=bool))
    if spec.task == "reverse":
        tokens = rng.integers(hi, size=n).astype(np.int64)
        return TaskSample(graph, tokens, tokens[::-1].copy(), np.ones(n, dtype=bool))
    original = _multiscale_tokens(rng, n, hi)
    n_masked = max(1, int(np.floor(spec.mask_rate * n)))
    pos = rng.choice(n, size=n_masked, replace=False)
    tokens = original.copy()
    tokens[pos] = spec.mask_token
    mask = np.zeros(n, dtype=bool)
    mask[pos] = True
    return TaskSample(graph, tokens, original, mask)


_STREAM_IDS = {"train": 0, "val": 1, "eval": 2}


def task_stream(spec: TaskSpec, seed: int, stream: str = "train"):
    """Infinite deterministic sample stream, seed (>= 0) and stream checked when
    called. Distinct stream names draw disjoint seed sequences from one base seed."""
    seed = require_int("seed", seed, 0)
    if stream not in _STREAM_IDS:
        raise ValueError(f"stream must be one of {', '.join(_STREAM_IDS)}, got {stream!r}")
    sid = _STREAM_IDS[stream]
    return (gen_task_batch(spec, np.random.SeedSequence(entropy=seed, spawn_key=(sid, i)))
            for i in itertools.count())


def fixed_samples(spec: TaskSpec, seed: int, count: int, stream: str = "val") -> list:
    """The first count samples of task_stream(spec, seed, stream); count is
    an integer >= 0, checked before any sample is drawn."""
    count = require_int("count", count, 0)
    gen = task_stream(spec, seed, stream)
    return [next(gen) for _ in range(count)]
