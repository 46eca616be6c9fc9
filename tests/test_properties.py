"""Property tests: mix-mode strings, graph JSON, CoNLL-U and train-config
round trips over generated inputs."""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gwmixer import (
    SpectrumCache,
    TokenGraph,
    TrainConfig,
    content_hash,
    graph_from_json,
    graph_to_json,
    normalized_laplacian,
    parse_conllu,
    parse_mix_mode,
    symmetrize,
    to_conllu,
)
from gwmixer.tasks import TASK_KINDS

# deterministic runs that write no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None)

KINDS = ("exact", "truncated", "chebyshev")
# digits, often decorated as int() takes them but the mode syntax does
# not: a sign, white space, an underscore between digits, a non-ASCII digit
LOOSE_PARAMS = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-", " ", "\t", "0"]),
                         st.from_regex(r"[1-9](_?[0-9])?", fullmatch=True) | st.just("\u0665"),
                         st.sampled_from(["", " ", "\n"]))
mode_texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(KINDS),
    st.builds("{}:{}".format, st.sampled_from(KINDS), st.text(max_size=4)),
    st.builds("{}:{}".format, st.sampled_from(KINDS), st.integers(-3, 10**6)),
    st.builds("{}:{}".format, st.sampled_from(KINDS), LOOSE_PARAMS),
)


@PROPERTY
@given(mode_texts)
def test_mix_mode_text_raises_or_round_trips(text):
    try:
        mode = parse_mix_mode(text)
    except ValueError:
        return
    assert parse_mix_mode(str(mode)) == mode
    kind, colon, arg = text.partition(":")
    assert mode.kind == kind
    if colon:
        assert arg.isascii() and arg.isdigit() and mode.param == int(arg)
        assert str(mode) == f"{kind}:{int(arg)}"
    else:  # a bare kind takes 16
        assert str(mode) == ("exact" if kind == "exact" else f"{kind}:16")


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=3 * n))
    labels = draw(st.none() | st.lists(st.text(max_size=5), min_size=n, max_size=n))
    return TokenGraph(n, tuple(edges), None if labels is None else tuple(labels))


@PROPERTY
@given(graphs())
def test_graph_json_round_trip(g):
    assert graph_from_json(graph_to_json(g)) == g


@st.composite
def directed_graphs(draw, max_n=12):
    """(n, the edges given, the graph): edges drawn with repeats, often in
    both directions (reversals repeated too), and room left for isolated
    nodes, given as a tuple of pairs or as an (E, 2) array."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=2 * n))
    back = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges += [(d, s) for (s, d), b in zip(edges, back) if b]
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    edges = draw(st.permutations(edges))
    given = np.array(edges, dtype=np.int64).reshape(-1, 2) if draw(st.booleans()) else tuple(edges)
    return n, edges, TokenGraph(n, given)


@PROPERTY
@given(directed_graphs())
def test_the_undirected_codes_answer_every_structural_question(case):
    n, edges, g = case
    assert g.edges.tolist() == [list(e) for e in dict.fromkeys(edges)]  # first occurrences
    distinct = set(edges)
    undirected = {min(s, d) * n + max(s, d) for s, d in distinct}
    assert g.undirected.dtype == np.int64 and g.undirected.tolist() == sorted(undirected)
    reversed_ = {(d, s) for s, d in distinct}
    assert g.is_symmetric() == (distinct == reversed_)
    sym = symmetrize(g)
    assert sym.edges.tolist() == [list(e) for e in sorted(distinct | reversed_)]
    assert sym.is_symmetric() and sym.undirected.tobytes() == g.undirected.tobytes()


def dense_laplacian(g):
    """I - D^{-1/2} A D^{-1/2} of the 0/1 undirected adjacency, isolated
    nodes with an all-zero row and column."""
    a = np.zeros((g.n, g.n))
    for s, d in g.edges:
        a[s, d] = a[d, s] = 1.0
    deg = a.sum(axis=1)
    dinv = np.zeros(g.n)
    dinv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.diag((deg > 0).astype(float)) - dinv[:, None] * a * dinv[None, :]


@PROPERTY
@given(directed_graphs())
def test_directed_graph_has_the_laplacian_and_key_of_its_symmetrization(case):
    g = case[2]
    sym = symmetrize(g)
    assert content_hash(g) == content_hash(sym)
    lap, ref = normalized_laplacian(g), normalized_laplacian(sym)
    for a, b in ((lap.matrix.data, ref.matrix.data), (lap.matrix.indices, ref.matrix.indices),
                 (lap.matrix.indptr, ref.matrix.indptr), (lap.degrees, ref.degrees)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.max(np.abs(lap.matrix.toarray() - dense_laplacian(g)), initial=0.0) <= 1e-15
    cache = SpectrumCache()
    assert cache.get_or_compute(g) is cache.get_or_compute(sym)
    assert len(cache) == 1


# forms that survive a tab-separated, line-based format
FORMS = st.text(st.characters(categories=("L", "N", "P", "S")), min_size=1, max_size=6)


@st.composite
def forests(draw, max_n=12):
    """A labelled dependency forest: each node has at most one head, drawn
    among the nodes placed before it in a random order, and edges are
    listed by dependent, as parse_conllu lists them."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    head = {}
    for i, node in enumerate(order[1:], start=1):
        parent = draw(st.none() | st.sampled_from(order[:i]))
        if parent is not None:
            head[node] = parent
    edges = tuple((head[d], d) for d in range(n) if d in head)
    labels = draw(st.lists(FORMS, min_size=n, max_size=n))
    return TokenGraph(n, edges, tuple(labels))


@PROPERTY
@given(st.lists(forests(), min_size=1, max_size=3))
def test_conllu_round_trip_of_forests(gs):
    assert parse_conllu("".join(to_conllu(g) for g in gs)) == gs


@st.composite
def train_configs(draw):
    n = draw(st.integers(2, 64))
    mode = draw(st.just("exact") | st.integers(1, 80).map("truncated:{}".format)
                | st.integers(0, 40).map("chebyshev:{}".format))
    doc = dict(
        d=draw(st.integers(1, 64)), k=draw(st.integers(1, 8)), layers=draw(st.integers(1, 4)),
        ffn_mult=draw(st.integers(1, 4)), vocab=draw(st.integers(2, 100)),
        task=draw(st.sampled_from(TASK_KINDS)), n=n, steps=draw(st.integers(1, 10**5)),
        seed=draw(st.integers(0, 2**32)),
        lr=draw(st.floats(0.0, 1.0, allow_subnormal=False)),
        warmup=draw(st.integers(1, 10**4)), mode=mode, accum=draw(st.integers(1, 8)),
        patience=draw(st.integers(1, 20)),
        mask_rate=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        conllu=draw(st.none() | st.just("trees.conllu")),
    )
    try:
        return TrainConfig(**doc)
    except ValueError:  # truncated:m with m > n on a chain task
        assume(False)


@PROPERTY
@given(train_configs())
def test_train_config_round_trip(cfg):
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    # as a checkpoint stores it
    assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
