"""A task over a CoNLL-U file reads it as arrays and builds each kept
sentence's graph, without labels, the first time it is drawn: the graphs
parse_conllu gives, in its order, and the errors it raises, when the
file is loaded."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest

import gwmixer.graphs as graphs_mod
import gwmixer.spectral as spectral_mod
import gwmixer.tasks as tasks_mod
from gwmixer import (
    ConlluParseError,
    MixMode,
    SpectrumCache,
    TaskSpec,
    TokenGraph,
    TrainConfig,
    build_model,
    content_hash,
    gen_task_batch,
    parse_conllu,
    task_stream,
    to_conllu,
    train_loop,
)
from gwmixer.tasks import check_mode

CHUNKS = [97, 1 << 20]  # several chunks, some all ASCII and some not; one chunk


@pytest.fixture(autouse=True)
def no_cached_files():
    yield
    tasks_mod._conllu_sentences.cache_clear()


def random_corpus(seed: int, count: int = 60) -> str:
    """count random trees of 1 to 12 tokens, their nodes in random order;
    every fifth sentence has non-ASCII word forms."""
    rng = np.random.default_rng(seed)
    text = []
    for s in range(count):
        n = int(rng.integers(1, 13))
        perm = rng.permutation(n).tolist()
        edges = [(perm[int(rng.integers(i))], perm[i]) for i in range(1, n)]
        forms = [("é日" if s % 5 == 0 else "w") + str(i) for i in range(n)]
        text.append(to_conllu(TokenGraph(n, edges, forms)))
    return "".join(text)


def corpus_file(tmp_path, text: str) -> str:
    path = tmp_path / "trees.conllu"
    path.write_text(text, encoding="utf-8")
    return str(path)


def kept(text: str) -> list:
    return [g for g in parse_conllu(text) if g.n >= 2]


def unlabelled(g: TokenGraph) -> TokenGraph:
    return TokenGraph(g.n, g.edges)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_every_kept_sentence_is_the_parsed_graph_without_labels(tmp_path, chunk):
    text = random_corpus(3)
    assert not text.isascii() and any(g.n == 1 for g in parse_conllu(text))
    with mock.patch.object(graphs_mod, "CONLLU_CHUNK", chunk):
        sents = tasks_mod._conllu_sentences(corpus_file(tmp_path, text))
        want = kept(text)
    assert len(sents) == len(want)
    for i, g in enumerate(want):
        assert sents[i].node_labels is None
        assert sents[i] == unlabelled(g)
        assert sents[i].spectral_key == content_hash(g)


def test_a_draw_picks_the_sentence_its_seed_names_and_a_redraw_the_same_object(tmp_path):
    text = random_corpus(4)
    spec = TaskSpec("copy", 16, 16, conllu=corpus_file(tmp_path, text))
    want = kept(text)
    drawn = {}
    for seed in range(200):
        i = int(np.random.default_rng(seed).integers(len(want)))  # the draw's first value
        g = gen_task_batch(spec, seed).graph
        assert g == unlabelled(want[i])
        assert drawn.setdefault(i, g) is g
    assert len(drawn) < 200  # some sentences were drawn again


def test_the_corpus_keeps_its_edges_as_int32_and_a_drawn_graph_as_int64(tmp_path):
    sents = tasks_mod._conllu_sentences(corpus_file(tmp_path, random_corpus(8)))
    assert sents.edges.dtype == np.int32 and not sents.edges.flags.writeable
    g = sents[0]
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
    assert np.array_equal(g.edges, sents.edges[sents.starts[0]:sents.stops[0]])


def test_a_cache_bounded_below_one_step_writes_the_unbounded_run_bytes(tmp_path, monkeypatch):
    # the train_trees config of perfbench, over a shorter run of smaller trees
    cfg = TrainConfig(d=32, k=4, layers=2, ffn_mult=4, vocab=64, task="masked_recovery", n=32,
                      mask_rate=0.25, lr=1e-3, warmup=500, accum=4, mode="exact", steps=30,
                      seed=1, conllu=corpus_file(tmp_path, random_corpus(9, count=300)))
    stream = task_stream(cfg.task_spec(), cfg.seed, "train")
    first_step = sum(8 * (s.graph.n + 1) * s.graph.n for s in (next(stream) for _ in range(4)))
    bound = 1024
    assert bound < first_step
    caches = {"unbounded": SpectrumCache()}
    monkeypatch.setattr(spectral_mod, "SPECTRUM_CACHE_BYTES", bound)
    caches["bounded"] = SpectrumCache()
    written = {}
    for name, cache in caches.items():
        out = tmp_path / name
        train_loop(build_model(32, 4, 2, 4, 64, seed=1), cfg, out_dir=str(out), cache=cache)
        written[name] = [(out / f).read_bytes() for f in ("checkpoint.json", "metrics.csv")]
    assert written["bounded"] == written["unbounded"]
    assert caches["unbounded"].stats().evictions == 0
    bounded = caches["bounded"].stats()
    assert bounded.evictions > 0 and bounded.misses > caches["unbounded"].stats().misses
    assert bounded.nbytes <= bound or len(caches["bounded"]) == 1


def test_threads_drawing_one_sentence_share_one_graph(tmp_path):
    sents = tasks_mod._conllu_sentences(corpus_file(tmp_path, random_corpus(6)))
    got = [[] for _ in range(8)]
    start = threading.Barrier(len(got))

    def draw(out):
        start.wait()
        out.extend(sents[i] for i in range(len(sents)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=draw, args=(out,)) for out in got]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for out in got:
        assert len(out) == len(sents)
        assert all(g is first for g, first in zip(out, got[0]))


def corrupt(text: str, line: int, how: str) -> str:
    lines = text.split("\n")
    cols = lines[line - 1].split("\t")
    cols = {"column": cols[:-1],
            "id": ["x"] + cols[1:],
            "order": [str(int(cols[0]) + 1)] + cols[1:],
            "range": cols[:6] + ["99"] + cols[7:],
            "own head": cols[:6] + [cols[0]] + cols[7:]}[how]
    lines[line - 1] = "\t".join(cols)
    return "\n".join(lines)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("how", ["column", "id", "order", "range", "own head"])
def test_a_malformed_file_fails_in_train_loop_before_anything_is_written(tmp_path, chunk, how):
    text = random_corpus(5)
    lines = text.split("\n")
    line = max(i for i, row in enumerate(lines, 1) if row.startswith("2\t"))  # in the last chunk
    text = corrupt(text, line, how)
    with pytest.raises(ConlluParseError) as parsed:
        parse_conllu(text)
    cfg = TrainConfig(d=8, k=1, layers=1, ffn_mult=2, vocab=16, task="copy", n=12, steps=2,
                      seed=0, conllu=corpus_file(tmp_path, text))
    out = tmp_path / "run"
    with mock.patch.object(graphs_mod, "CONLLU_CHUNK", chunk):
        with pytest.raises(ConlluParseError) as trained:
            train_loop(build_model(8, 1, 1, 2, 16, seed=0), cfg, out_dir=str(out))
    assert (trained.value.line, str(trained.value)) == (parsed.value.line, str(parsed.value))
    assert not out.exists()


def test_check_mode_names_the_shortest_kept_sentence(tmp_path):
    sizes = [1, 5, 3, 1, 7, 2, 4]
    text = "".join(to_conllu(TokenGraph(n, [(i - 1, i) for i in range(1, n)])) for n in sizes)
    path = corpus_file(tmp_path, text)
    spec = TaskSpec("copy", 16, 16, conllu=path)
    check_mode(spec, MixMode.truncated(2))
    message = (f"{path}: its shortest sentence has 2 tokens; "
               f"truncated:3 needs m <= n, got m=3 for a graph of n=2 nodes")
    with pytest.raises(ValueError) as exc:
        check_mode(spec, MixMode.truncated(3))
    assert str(exc.value) == message
