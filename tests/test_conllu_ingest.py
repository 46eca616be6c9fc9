"""The chunked, array-based CoNLL-U ingest against the line-by-line reader
it replaced: the same graphs for well-formed text, and the same
ConlluParseError (message and line) for malformed text, at chunk sizes
that put sentences on both sides of a chunk boundary."""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import gwmixer.graphs as graphs_mod
from gwmixer import ConlluParseError, TokenGraph, parse_conllu

# deterministic runs that write no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

CHUNKS = st.sampled_from([1, 2, 7, 40, 1 << 20])


def reference_parse_conllu(text: str) -> list[TokenGraph]:
    """The line-by-line parser the chunked ingest replaced, kept as an oracle."""
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


@contextmanager
def chunk_size(chars):
    with mock.patch.object(graphs_mod, "CONLLU_CHUNK", chars):
        yield


def outcome(parse, text):
    """The graphs parse returns, or the error it raises as (line, message)."""
    try:
        return [(g.n, g.edges.tolist(), g.node_labels) for g in parse(text)]
    except ConlluParseError as exc:
        return ("error", exc.line, str(exc))


def assert_same(text, chunk):
    expected = outcome(reference_parse_conllu, text)
    with chunk_size(chunk):
        assert outcome(parse_conllu, text) == expected


# forms that survive a tab-separated, line-based format, non-ASCII included
FORMS = st.text(st.characters(categories=("L", "N", "P", "S")), min_size=1, max_size=5)
# ways to write an integer that int() reads: sign, zero padding, white
# space, underscores and non-ASCII digits
DECOR = st.sampled_from(["{}", "+{}", "0{}", " {}", "{} ", "{}\u3000"])
FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
COMMENTS = st.builds("#{}".format, st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")),
                                            max_size=8))
SEPARATORS = st.sampled_from(["", "", " ", "\t", " \t ", "\xa0", "\u3000"])
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1e", "\x85", "\u2028"])


@st.composite
def integers_as_text(draw, value):
    text = draw(DECOR).format(value)
    if draw(st.integers(0, 5)) == 0:
        text = text.translate(FULLWIDTH)
    return text


def row(tid, form, head):
    return "\t".join([tid, form, "_", "_", "_", "_", head, "dep", "_", "_"])


@st.composite
def sentence_lines(draw):
    """A well-formed sentence: comments, multiword ranges and empty nodes
    among its token rows, and each head in range and not the token itself."""
    n = draw(st.integers(1, 6))
    lines = draw(st.lists(COMMENTS, max_size=2))
    for k in range(1, n + 1):
        if k < n and draw(st.integers(0, 5)) == 0:
            lines.append(row(f"{k}-{k + 1}", draw(FORMS), "_"))
        head = draw(st.sampled_from([h for h in range(n + 1) if h != k]))
        lines.append(row(draw(integers_as_text(k)), draw(FORMS), draw(integers_as_text(head))))
        if draw(st.integers(0, 6)) == 0:
            lines.append(row(f"{k}.1", draw(FORMS), "_"))
        if draw(st.integers(0, 8)) == 0:
            lines.append(draw(COMMENTS))
    return lines


@st.composite
def documents(draw):
    """Lines of a CoNLL-U document: sentences between separator lines."""
    lines = list(draw(st.lists(SEPARATORS, max_size=1)))
    for _ in range(draw(st.integers(0, 4))):
        lines += draw(sentence_lines())
        lines += draw(st.lists(SEPARATORS, min_size=1, max_size=2))
    if lines and draw(st.booleans()):  # no blank line after the last sentence
        while lines and not lines[-1].strip():
            lines.pop()
    return lines


def join(lines, brk, final):
    return brk.join(lines) + (brk if final and lines else "")


@PROPERTY
@given(documents(), BREAKS, st.booleans(), CHUNKS)
def test_same_graphs_as_the_line_by_line_reader(lines, brk, final, chunk):
    text = join(lines, brk, final)
    expected = outcome(reference_parse_conllu, text)
    assert expected[:1] != ("error",)
    with chunk_size(chunk):
        assert outcome(parse_conllu, text) == expected


def _mutations(line, draw):
    cols = line.split("\t")
    bad = draw(st.sampled_from(["x", "", "1x", "1 2", "3_", "\uff11x", "99", "0", "-1", "1.5",
                                "+-1", str(10**30), "-" + "9" * 25, "9" * 20]))
    return [
        "\t".join(cols[:-1]),                      # a column short
        line + "\t_",                              # a column over
        "\t".join([bad] + cols[1:]),               # the ID
        "\t".join(cols[:6] + [bad] + cols[7:]),    # the HEAD
        "\t".join(cols[:6] + [cols[0]] + cols[7:]),  # its own head
        "",                                        # a blank line mid-sentence
        " \t",
        "#" + line,
        " #" + line,
    ]


@PROPERTY
@given(st.data(), documents(), BREAKS, st.booleans(), CHUNKS)
def test_same_error_and_line_after_mutating_lines(data, lines, brk, final, chunk):
    rows = [i for i, line in enumerate(lines) if line.count("\t") == 9]
    if rows:
        for i in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            lines[i] = data.draw(st.sampled_from(_mutations(lines[i], data.draw)))
    assert_same(join(lines, brk, final), chunk)


FIELDS = st.sampled_from(["1", "2", "3", "0", "+1", "01", "-1", "1-2", "1.1", "x", "", " 2",
                          "\uff12", "_", "#", "9" * 19])
JUNK_LINES = st.one_of(
    st.lists(FIELDS, min_size=9, max_size=11).map("\t".join),
    st.lists(FIELDS, min_size=10, max_size=10).map("\t".join),
    SEPARATORS,
    COMMENTS,
)


@PROPERTY
@given(st.lists(st.tuples(JUNK_LINES, BREAKS), max_size=14), CHUNKS)
def test_same_outcome_on_arbitrary_lines(parts, chunk):
    assert_same("".join(line + brk for line, brk in parts), chunk)


@PROPERTY
@given(st.text(st.sampled_from("01234\t\n\r #-._x\xe9\uff13\x0b\u2028\x85 "), max_size=120), CHUNKS)
def test_same_outcome_on_arbitrary_text(text, chunk):
    assert_same(text, chunk)


def test_chunk_boundaries_fall_after_blank_lines():
    sentence = row("1", "a", "0") + "\n" + row("2", "b", "1") + "\n"
    for sep in ("\n", "\r\n"):
        text = (sentence.replace("\n", sep) + sep) * 5
        with chunk_size(1):
            cuts, pos = [], 0
            while pos < len(text):
                pos = graphs_mod._chunk_end(text, pos)
                cuts.append(pos)
        assert cuts == [len(sentence.replace("\n", sep) + sep) * k for k in range(1, 6)]


def test_error_lines_count_across_chunks():
    good = row("1", "a", "0") + "\n\n"
    text = good * 50 + row("1", "a", "0") + "\n" + row("3", "b", "1") + "\n"
    for chunk in (1, 10, 1 << 20):
        with chunk_size(chunk):
            try:
                parse_conllu(text)
            except ConlluParseError as exc:
                assert (exc.line, str(exc)) == (102, "line 102: token id 3 out of order (expected 2)")
            else:
                raise AssertionError("no error raised")

