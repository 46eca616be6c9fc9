"""Seeded inputs for the workloads: the same seed gives the same inputs.

The seed sets every tree shape and length, every token and the request
order. The 16 inference lengths are a geometric grid over their range,
the same for every seed. Request times cluster by length and mode; with
seeded or evenly spaced lengths the clusters near the median lay far
apart, and the median request time jumped between them from run to run.
"""

import numpy as np

TREE_COUNT = 4000
TREE_LENGTHS = (32, 128)
HEAD_REACH = 4  # a head sits at most this many positions before its dependent

INFER_LENGTHS = (256, 1536)
INFER_DISTINCT = 16
INFER_REPEATS = 10
INFER_MODES = ("chebyshev:16", "truncated:16")


def tree_conllu(seed: int, count: int = TREE_COUNT) -> str:
    """CoNLL-U text of `count` random dependency trees. Token 1 is the root;
    every later token's head is one of the HEAD_REACH tokens before it."""
    rng = np.random.default_rng([seed, 1])
    lo, hi = TREE_LENGTHS
    out = []
    for n in rng.integers(lo, hi + 1, size=count):
        pos = np.arange(1, n + 1)
        reach = np.minimum(pos - 1, HEAD_REACH)
        heads = pos - 1 - np.floor(rng.random(n) * reach).astype(np.int64)
        heads[0] = 0
        for i, h in zip(pos, heads):
            out.append(f"{i}\tw{i}\t_\t_\t_\t_\t{h}\t_\t_\t_\n")
        out.append("\n")
    return "".join(out)


def infer_plan(seed: int) -> list:
    """[(length, mode)] for the inference workload: 16 distinct lengths,
    each asked INFER_REPEATS times, half in each mode.

    The first request of each length comes first, shortest first, so the
    spectrum cache fills the same way for every seed; the rest follow in
    seeded order. Peak memory depends on how full the cache is when the
    longest length is first seen (about 20% apart between shuffled seeds).
    """
    rng = np.random.default_rng([seed, 2])
    lo, hi = INFER_LENGTHS
    lengths = [int(n) for n in np.geomspace(lo, hi, INFER_DISTINCT).round()]
    per_mode = INFER_REPEATS // len(INFER_MODES)
    first = [(n, INFER_MODES[i % len(INFER_MODES)]) for i, n in enumerate(lengths)]
    rest = [(n, mode) for n in lengths for mode in INFER_MODES for _ in range(per_mode)]
    for request in first:
        rest.remove(request)
    return first + [rest[i] for i in rng.permutation(len(rest))]


def request_tokens(seed: int, index: int, n: int, vocab: int) -> np.ndarray:
    """Token ids of request `index`, never the reserved top id."""
    return np.random.default_rng([seed, 3, index]).integers(vocab - 1, size=n)
