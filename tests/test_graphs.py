"""Token graphs, Laplacian construction, and CoNLL-U parsing."""

import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

from gwmixer import (
    ConlluParseError,
    TokenGraph,
    build_chain_graph,
    content_hash,
    graph_from_json,
    graph_to_json,
    normalized_laplacian,
    parse_conllu,
    symmetrize,
    to_conllu,
)
from gwmixer.graphs import MAX_NODES

S2 = 1.0 / math.sqrt(2.0)


class TestTokenGraph:
    def test_edges_canonicalized_dedup_preserves_order(self):
        g = TokenGraph(3, ((1, 0), (0, 1), (1, 0), (1, 2)))
        assert g.edges.tolist() == [[1, 0], [0, 1], [1, 2]]

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            TokenGraph(2, ((0, 2),))
        with pytest.raises(ValueError, match="out of range"):
            TokenGraph(2, ((-1, 0),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            TokenGraph(3, ((1, 1),))

    @pytest.mark.parametrize("n", [True, 2.5, "3", None])
    def test_rejects_non_integer_size(self, n):
        with pytest.raises(ValueError, match=rf"n must be an integer >= 1, got {n!r}"):
            TokenGraph(n)

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0.7, 1), "01", (0,), (True, 1), (0, False),
                                      None, 1, {0, 1}, {0: 1, 1: 0}])
    def test_rejects_edge_that_is_not_a_pair_of_integers(self, edge):
        with pytest.raises(ValueError, match="is not a \\(src, dst\\) pair") as info:
            TokenGraph(3, ((0, 2), edge))
        assert repr(edge) in str(info.value)

    def test_numpy_integers_accepted(self):
        g = TokenGraph(np.int64(3), ((np.int32(0), np.int64(1)), np.array([2, 1]), [1, 2]))
        assert g == TokenGraph(3, ((0, 1), (2, 1), (1, 2)))
        assert type(g.n) is int and g.edges.dtype == np.int64

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
            TokenGraph(0)

    def test_rejects_graphs_whose_edge_codes_would_collide(self):
        # at n = 2**33 both edges would get the int64 code 2**32, so one
        # content hash (spectrum-cache key) for two different graphs
        for edges in (((2**31, 2**32),), ((0, 2**32),)):
            with pytest.raises(ValueError, match=r"^n must be at most 2147483647, got 8589934592$"):
                TokenGraph(2**33, edges)
        with pytest.raises(ValueError, match=r"^n must be at most 2147483647, got 2147483648$"):
            build_chain_graph(2**31)  # raised before any edge array is built

    def test_largest_node_count_accepted_and_hashed_apart(self):
        top = MAX_NODES - 1
        a = TokenGraph(MAX_NODES, ((top - 1, top),))
        b = TokenGraph(MAX_NODES, ((0, top),))
        assert a.n == MAX_NODES and content_hash(a) != content_hash(b)

    def test_node_labels_length_checked(self):
        with pytest.raises(ValueError, match="node labels"):
            TokenGraph(2, (), node_labels=("only",))

    @pytest.mark.parametrize("labels, message", [
        ([1, 2, 3], "node label 1 is not a string"),
        ([None, "a", "b"], "node label None is not a string"),
        ("abc", "node labels must be a sequence of strings, got 'abc'"),
    ])
    def test_node_labels_must_be_strings(self, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TokenGraph(3, (), node_labels=labels)

    def test_single_node_no_edges(self):
        g = TokenGraph(1)
        assert g.n == 1 and g.edges.shape == (0, 2)
        assert g.is_symmetric()

    def test_is_symmetric(self):
        assert not TokenGraph(2, ((0, 1),)).is_symmetric()
        assert TokenGraph(2, ((0, 1), (1, 0))).is_symmetric()

    def test_immutable(self):
        g = TokenGraph(2, ((0, 1),))
        with pytest.raises(AttributeError):
            g.n = 3

    def test_edges_are_a_read_only_int64_array(self):
        g = TokenGraph(3, ((0, 1), (2, 1)), ("a", "b", "c"))
        assert g.edges.dtype == np.int64 and g.edges.shape == (2, 2)
        for h in (g, copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert h == g
            with pytest.raises(ValueError):
                h.edges[0, 0] = 2

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
    def test_integer_array_accepted_and_copied(self, dtype):
        given = np.array([[2, 0], [0, 1], [2, 0], [1, 2]], dtype=dtype)
        g = TokenGraph(3, given)
        assert g.edges.tolist() == [[2, 0], [0, 1], [1, 2]]
        given[0, 0] = 1  # the graph keeps its own copy
        assert g.edges.tolist() == [[2, 0], [0, 1], [1, 2]]
        assert g == TokenGraph(3, ((2, 0), (0, 1), (1, 2)))

    @pytest.mark.parametrize("edges, message", [
        (np.array([[0, 1], [1, 1]]), "self loop (1, 1) not allowed"),
        (np.array([[0, 1], [-1, 1]]), "edge (-1, 1) out of range for n=3"),
        (np.array([[0, 1], [2**64 - 1, 1]], dtype=np.uint64),
         "edge (18446744073709551615, 1) out of range for n=3"),
        (((0, 5), (1, 1)), "edge (0, 5) out of range for n=3"),
        (((7, 7),), "edge (7, 7) out of range for n=3"),
        (((0, 1), (2**70, 0)), f"edge ({2**70}, 0) out of range for n=3"),
        # the first bad edge in order decides, whatever its fault
        (((0, 3), (0.5, 1)), "edge (0, 3) out of range for n=3"),
        (((0.5, 1), (0, 3)), "edge (0.5, 1) is not a (src, dst) pair of integers"),
        (((1, 1), (2**70, 0)), "self loop (1, 1) not allowed"),
        (np.array([[True, False]]), "edge array([ True, False]) is not a (src, dst) pair"),
        (np.array([[0.0, 1.0]]), "edge array([0., 1.]) is not a (src, dst) pair"),
        (np.array([0, 1]), "edge np.int64(0) is not a (src, dst) pair"),
        (np.array([[0, 1, 2]]), "edge array([0, 1, 2]) is not a (src, dst) pair"),
    ])
    def test_first_bad_edge_named(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            TokenGraph(3, edges)

    def test_equality_and_hash(self):
        a = TokenGraph(3, ((0, 1), (1, 2)), ("a", "b", "c"))
        b = TokenGraph(3, np.array([[0, 1], [1, 2], [0, 1]]), ["a", "b", "c"])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TokenGraph(3, ((1, 2), (0, 1)), ("a", "b", "c"))  # edge order counts
        assert a != TokenGraph(3, ((0, 1), (1, 2)))
        assert a != TokenGraph(4, ((0, 1), (1, 2)), ("a", "b", "c", "d"))
        assert TokenGraph(2) != TokenGraph(2, ((0, 1),))
        assert a != "graph"


class TestChainAndSymmetrize:
    def test_chain_edges(self):
        g = build_chain_graph(4)
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_chain_of_one(self):
        assert build_chain_graph(1).edges.shape == (0, 2)

    def test_chain_rejects_zero(self):
        with pytest.raises(ValueError):
            build_chain_graph(0)

    def test_symmetrize_closes_under_reversal(self):
        g = symmetrize(TokenGraph(3, ((0, 1), (2, 1))))
        assert g.is_symmetric()
        assert set(map(tuple, g.edges.tolist())) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_symmetrize_idempotent(self):
        g = symmetrize(build_chain_graph(5))
        assert symmetrize(g).edges.tolist() == g.edges.tolist()

    def test_symmetrize_keeps_labels(self):
        g = TokenGraph(2, ((0, 1),), node_labels=("a", "b"))
        assert symmetrize(g).node_labels == ("a", "b")


class TestContentHash:
    def test_stable_under_edge_order(self):
        a = TokenGraph(3, ((0, 1), (1, 2)))
        b = TokenGraph(3, ((1, 2), (0, 1)))
        assert content_hash(a) == content_hash(b)

    def test_distinguishes_structure(self):
        a = TokenGraph(3, ((0, 1),))
        b = TokenGraph(3, ((1, 2),))
        c = TokenGraph(4, ((0, 1),))
        assert len({content_hash(a), content_hash(b), content_hash(c)}) == 3

    def test_ignores_labels(self):
        a = TokenGraph(2, ((0, 1),), node_labels=("x", "y"))
        b = TokenGraph(2, ((0, 1),))
        assert content_hash(a) == content_hash(b)


class TestNormalizedLaplacian:
    def test_two_node_path(self):
        lap = normalized_laplacian(symmetrize(build_chain_graph(2)))
        assert np.array_equal(lap.matrix.toarray(), np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.array_equal(lap.degrees, np.array([1.0, 1.0]))

    def test_three_node_path(self):
        lap = normalized_laplacian(symmetrize(build_chain_graph(3)))
        expected = np.array(
            [[1.0, -S2, 0.0], [-S2, 1.0, -S2], [0.0, -S2, 1.0]]
        )
        assert np.allclose(lap.matrix.toarray(), expected, atol=1e-15)
        assert np.array_equal(lap.degrees, np.array([1.0, 2.0, 1.0]))

    def test_triangle(self):
        tri = TokenGraph(3, ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)))
        lap = normalized_laplacian(tri)
        expected = np.full((3, 3), -0.5)
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(lap.matrix.toarray(), expected, atol=1e-15)

    def test_isolated_node_zero_row_and_diagonal(self):
        g = TokenGraph(3, ((0, 1), (1, 0)))
        lap = normalized_laplacian(g)
        dense = lap.matrix.toarray()
        assert np.array_equal(dense[2], np.zeros(3))
        assert np.array_equal(dense[:, 2], np.zeros(3))
        assert dense[2, 2] == 0.0
        assert lap.degrees[2] == 0.0

    def test_matrix_is_read_only(self):
        lap = normalized_laplacian(symmetrize(build_chain_graph(3)))
        for arr in (lap.matrix.data, lap.matrix.indices, lap.matrix.indptr, lap.degrees):
            with pytest.raises(ValueError):
                arr[0] = 5

    def test_symmetric_and_psd_row_sums(self):
        # Row sums of D^{-1/2} A D^{-1/2} weighting: for a regular graph
        # the all-ones vector scaled by sqrt(deg) is the null vector.
        g = symmetrize(build_chain_graph(6))
        lap = normalized_laplacian(g)
        assert np.allclose(lap.matrix.toarray(), lap.matrix.toarray().T)
        null = np.sqrt(lap.degrees)
        assert np.max(np.abs(lap.matrix @ null)) < 1e-14


CONLLU_SAMPLE = """\
# sent_id = 1
# text = the cat sat down
1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_
2\tcat\t_\t_\t_\t_\t0\troot\t_\t_
3\tsat\t_\t_\t_\t_\t2\tnsubj\t_\t_
4\tdown\t_\t_\t_\t_\t3\tadvmod\t_\t_
"""


class TestParseConllu:
    def test_single_sentence_edges(self):
        graphs = parse_conllu(CONLLU_SAMPLE)
        assert len(graphs) == 1
        g = graphs[0]
        assert g.n == 4
        # heads [2, 0, 2, 3] -> arcs head-1 -> id-1
        assert set(map(tuple, g.edges.tolist())) == {(1, 0), (1, 2), (2, 3)}
        assert g.node_labels == ("the", "cat", "sat", "down")

    def test_two_sentences_split_on_blank_line(self):
        text = CONLLU_SAMPLE + "\n1\thi\t_\t_\t_\t_\t0\troot\t_\t_\n"
        graphs = parse_conllu(text)
        assert [g.n for g in graphs] == [4, 1]

    def test_final_sentence_without_trailing_blank(self):
        graphs = parse_conllu(CONLLU_SAMPLE.rstrip("\n"))
        assert len(graphs) == 1 and graphs[0].n == 4

    def test_comments_and_ranges_and_empty_nodes_skipped(self):
        text = (
            "# comment\n"
            "1-2\tdoesn't\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdoes\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "1.1\televated\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tnot\t_\t_\t_\t_\t1\tadvmod\t_\t_\n"
        )
        g = parse_conllu(text)[0]
        assert g.n == 2
        assert g.edges.tolist() == [[0, 1]]

    def test_empty_input(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n# only comments\n\n") == []

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(ConlluParseError) as exc:
            parse_conllu("1\tword\t2\n")
        assert exc.value.line == 1
        assert "line 1" in str(exc.value)

    def test_non_integer_id_reports_line(self):
        bad = "x\tword\t_\t_\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(ConlluParseError) as exc:
            parse_conllu(bad)
        assert exc.value.line == 1

    def test_non_sequential_ids_rejected(self):
        text = (
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "3\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
        )
        with pytest.raises(ConlluParseError) as exc:
            parse_conllu(text)
        assert exc.value.line == 2

    def test_head_out_of_range_rejected(self):
        text = "1\ta\t_\t_\t_\t_\t5\tdep\t_\t_\n"
        with pytest.raises(ConlluParseError):
            parse_conllu(text)

    def test_head_pointing_at_itself_rejected(self):
        text = "1\ta\t_\t_\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises(ConlluParseError):
            parse_conllu(text)

    def test_error_line_number_counts_comments(self):
        text = (
            "# one\n"
            "# two\n"
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tb\t_\t_\t_\t_\tbogus\tdep\t_\t_\n"
        )
        with pytest.raises(ConlluParseError) as exc:
            parse_conllu(text)
        assert exc.value.line == 4


class TestToConllu:
    def test_round_trip(self):
        g = parse_conllu(CONLLU_SAMPLE)[0]
        again = parse_conllu(to_conllu(g))[0]
        assert again.n == g.n
        assert again.edges.tolist() == g.edges.tolist()
        assert again.node_labels == g.node_labels

    # a tab or any str.splitlines break would split the token's row
    @pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\r", "\x0bb", "\x0c", "a\x1cb",
                                       "\x1d", "\x1e", "a\x85", "\u2028b", "b\u2029"])
    def test_a_label_the_format_cannot_hold_is_rejected(self, label):
        g = TokenGraph(2, [(0, 1)], ("c", label))
        with pytest.raises(ValueError, match=f"^node 1 label {re.escape(repr(label))} holds a "
                                             "tab or a line break$"):
            to_conllu(g)

    @pytest.mark.parametrize("label", ["", " ", "a b", "#", "1-2", "é", "\u00a0"])
    def test_a_label_without_tab_or_break_round_trips(self, label):
        g = TokenGraph(2, [(0, 1)], ("c", label))
        assert parse_conllu(to_conllu(g)) == [g]

    def test_ten_columns(self):
        g = TokenGraph(2, ((0, 1),), node_labels=("a", "b"))
        for line in to_conllu(g).strip("\n").split("\n"):
            assert len(line.split("\t")) == 10

    def test_multi_head_rejected(self):
        g = TokenGraph(3, ((0, 2), (1, 2)))  # node 2 has two heads
        with pytest.raises(ValueError):
            to_conllu(g)

    def test_unlabeled_nodes_get_placeholder_forms(self):
        g = TokenGraph(2, ((0, 1),))
        assert parse_conllu(to_conllu(g))[0].n == 2


class TestGraphJson:
    def test_round_trip(self):
        g = TokenGraph(3, ((0, 1), (2, 1)), node_labels=("a", "b", "c"))
        back = graph_from_json(graph_to_json(g))
        assert back == g

    def test_round_trip_without_labels(self):
        g = build_chain_graph(4)
        assert graph_from_json(graph_to_json(g)) == g

    @pytest.mark.parametrize("text, match", [
        ('{"n": 3, "edges": [[0]]}', "edge \\[0\\] is not a"),
        ('{"n": 3, "edges": [[0, 1, 2]]}', "edge \\[0, 1, 2\\] is not a"),
        ('{"n": 3, "edges": [[0, 1.5]]}', "edge \\[0, 1.5\\] is not a"),
        ('{"n": 3, "edges": [5]}', "edge 5 is not a"),
        ('{"n": 3, "edges": 5}', '"edges" must be a list'),
        ('{"n": "3", "edges": []}', '"n" must be an integer'),
        ('{"n": true, "edges": []}', '"n" must be an integer'),
        ('{"n": 3, "edges": [], "labels": "abc"}', '"labels" must be a list of strings'),
        ('{"n": 3, "edges": [], "labels": ["a", 2, "c"]}', '"labels" must be a list of strings'),
        ('[3]', "must be an object"),
        ('{"n": 3, "edges": [[0, 3]]}', "out of range"),
    ])
    def test_malformed_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            graph_from_json(text)

    def test_json_is_plain_object(self):
        doc = json.loads(graph_to_json(build_chain_graph(2)))
        assert doc["n"] == 2
        assert doc["edges"] == [[0, 1]]
