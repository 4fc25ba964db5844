"""Graph construction, generators (with their edge-type censuses), and file IO."""

import copy
import gc
import pickle
import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topoidx import graph
from topoidx.errors import (
    GraphFileError,
    InvalidFamilyParams,
    InverseUndefined,
    SelfLoop,
    VertexOutOfRange,
)
from topoidx.functionals import edge_census, vertex_table
from topoidx.graph import (
    _FAMILIES,
    MAX_VERTICES,
    Graph,
    bfs_distances,
    dumps,
    generate_family,
    loads,
)
from topoidx.indices import evaluate

from reference import first_zero_edge, graph_structures

from conftest import is_connected, messy_copy, random_graph


def isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    h_edges = set(h.edges)
    for perm in permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in h_edges
               for u, v in g.edges):
            return True
    return False


@st.composite
def edge_lists(draw, valid: bool):
    """(n, edges) in random order, some edges repeated reversed.

    Valid edges join vertices up to a drawn bound, past which vertices stay
    isolated; otherwise endpoints range over -1..n and may form self-loops.
    """
    n = draw(st.integers(0, 14))
    lo, hi = (0, draw(st.integers(0, max(n - 1, 0)))) if valid else (-1, n)
    vertex = st.integers(lo, hi)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    if valid:
        edges = [(u, v) for u, v in edges if u != v]
    reversed_dupes = [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=10))] \
        if edges else []
    return n, draw(st.permutations(edges + reversed_dupes))


@st.composite
def spread_graphs(draw):
    """(n, edges): a G(k, p) on k <= 12 vertices from ``base``, then 0 to 3 isolated ones.

    ``base`` is 0 or 290, so that some ids are past the ints the interpreter
    keeps one object of, and each edge holds its own int objects.
    """
    base = draw(st.sampled_from([0, 290]))
    k = draw(st.integers(0, 12))
    pairs = [(base + u, base + v) for u in range(k) for v in range(u + 1, k)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    return base + k + draw(st.integers(0, 3)), [(int(str(u)), int(str(v))) for u, v in edges]


def assert_one_object_per_vertex(g):
    ends = [*g.edges.us, *g.edges.vs] + [x for nbrs in g.adj for x in nbrs]
    assert len({id(x) for x in ends}) == len(set(ends)) <= g.n


class TestBuildGraph:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.degrees == (2, 2, 2)
        assert g.edge_count == 3

    def test_dedup(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            Graph(4, [(0, 4)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            Graph(3, [(1, 1)])

    @settings(max_examples=300, deadline=None)
    @given(edge_lists(valid=True))
    def test_matches_reference_constructor(self, case):
        n, edges = case
        g = Graph(n, edges)
        assert (g.n, g.edges, g.adj, g.degrees) == graph_structures(n, edges)
        assert all(type(nbrs) is tuple for nbrs in g.adj)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists(valid=False))
    def test_first_bad_edge_as_reference(self, case):
        n, edges = case
        try:
            want = graph_structures(n, edges)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                Graph(n, edges)
            assert str(got.value) == str(exc)
        else:
            g = Graph(n, edges)
            assert (g.n, g.edges, g.adj, g.degrees) == want

    @settings(max_examples=200, deadline=None)
    @given(spread_graphs(), st.randoms(use_true_random=False))
    @example((0, []), None)
    @example((1, []), None)
    @example((293, []), None)
    def test_one_object_per_vertex(self, case, rng):
        """Sorted canonical pairs, and pairs shuffled, duplicated and reversed."""
        n, edges = case
        want = graph_structures(n, edges)
        mixed = edges + [(int(str(v)), int(str(u))) for u, v in edges[::2]]
        if rng is not None:
            rng.shuffle(mixed)
        for pairs in (edges, mixed):
            g = Graph(n, pairs)
            assert (g.n, g.edges, g.adj, g.degrees) == want
            rebuilt = Graph(want[0], want[1][::-1])
            assert g == rebuilt and hash(g) == hash(rebuilt)
            assert_one_object_per_vertex(g)

    def test_pairs_of_any_form_give_the_first_int_of_each_vertex(self):
        first = (300, 301)
        later = (int("300"), 302)  # equal to the interned 300, not the same object
        edges = [first, later, [301, 302], (303, 302), first, (300, 301)]
        g = Graph(400, edges)
        assert g.edges == ((300, 301), (300, 302), (301, 302), (302, 303))
        assert all(type(edge) is tuple for edge in g.edges)
        assert g.edges[0][0] is g.edges[1][0] is first[0] and g.edges[0][1] is first[1]
        assert_one_object_per_vertex(g)
        copied = copy.copy(g)
        assert copied.edges == g.edges
        assert all(x is y for x, y in zip(copied.edges.us + copied.edges.vs,
                                          g.edges.us + g.edges.vs))

    @pytest.mark.parametrize("form", ["sorted", "shuffled", "read", "read messy"])
    def test_edges_are_two_vertex_columns(self, form):
        """The m edges are two tuples of vertex ints, with no tuple per edge.

        The columns hold the adjacency's int objects, as does a kernel
        entry's zero edge, on ids past the ints the interpreter keeps one
        object of.
        """
        g = random_graph(3, 600, 2000)
        pairs = list(g.edges)
        random.Random(1).shuffle(pairs)
        h = {"sorted": lambda: Graph(g.n, g.edges),
             "shuffled": lambda: Graph(g.n, pairs + [(v, u) for u, v in pairs[::3]]),
             "read": lambda: loads(dumps(g)),
             "read messy": lambda: loads(messy_copy(g, 2))}[form]()
        assert h == g
        columns = [x for x in gc.get_referents(h.edges) if x is not type(h.edges)]
        assert [(type(c), len(c)) for c in columns] == [(tuple, 2000)] * 2
        assert list(zip(*columns)) == sorted(pairs) == list(h.edges)
        assert {id(x) for c in columns for x in c} == {id(x) for nbrs in h.adj for x in nbrs}
        assert_one_object_per_vertex(h)
        with pytest.raises(InverseUndefined) as err:
            evaluate(h, "IRL4")  # 0 on an edge whose ends have one degree
        zero = h._memo[("plain", 4)].zero
        assert zero is err.value.edge and zero == first_zero_edge(h, "plain", 4)
        assert any(zero[0] is x for x in columns[0]) and any(zero[1] is x for x in columns[1])

    def test_edges_read_as_the_tuple_of_their_pairs(self):
        g = generate_family("wheel", 4)
        pairs = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4))
        assert g.edges == pairs and tuple(g.edges) == pairs and len(g.edges) == 8
        assert g.edges[-1] == (3, 4) and g.edges[2:5] == pairs[2:5]
        assert list(reversed(g.edges)) == list(pairs[::-1])
        assert (1, 4) in g.edges and (4, 1) not in g.edges
        assert g.edges != list(pairs) and g.edges != pairs[:-1]
        assert pickle.loads(pickle.dumps(g.edges)) == g.edges
        with pytest.raises(AttributeError):
            g.edges.us = ()
        with pytest.raises(TypeError):
            hash(g.edges)

    def test_immutable(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 5

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        lambda g: pickle.loads(pickle.dumps(g)),
        lambda g: pickle.loads(pickle.dumps(g, protocol=0)),
    ], ids=["copy", "deepcopy", "pickle", "pickle0"])
    def test_copies_are_rebuilt_with_an_empty_memo(self, clone):
        def values(g):
            return [evaluate(g, name) for name in ("RL1", "MRL1", "MITRL2", "RL7", "RLKV3exp")]

        g = generate_family("sunflower", 4)
        fresh = clone(g)
        assert type(fresh) is Graph and fresh is not g
        assert (fresh.n, fresh.edges, fresh.adj, fresh.degrees) == (g.n, g.edges, g.adj, g.degrees)
        assert fresh._memo == {} and fresh._memo is not g._memo
        first = values(g)
        assert ("temperature", 2) in g._memo and "kv" in g._memo
        warm = clone(g)
        assert warm == g and hash(warm) == hash(g) and warm._memo == {}
        with pytest.raises(AttributeError):
            warm.n = 5
        assert values(warm) == first == values(fresh)

    def test_equal_graphs_hash_equal(self):
        g = Graph(4, [(0, 1), (2, 1), (3, 0)])
        h = Graph(4, [(0, 3), (1, 2), (1, 0), (3, 0)])
        assert g == h and hash(g) == hash(h)
        assert hash(g) == hash(g) == hash(Graph(4, g.edges))
        assert hash(Graph(5, g.edges)) != hash(g)

    def test_cached_hash_survives_lookups(self):
        g = generate_family("wheel", 9)
        first = hash(g)
        with pytest.raises(AttributeError):
            g._hash = 0
        hits = vertex_table.cache_info().hits
        for _ in range(3):
            assert vertex_table(g, "plain") is vertex_table(Graph(g.n, g.edges), "plain")
        assert vertex_table.cache_info().hits >= hits + 5
        assert g._hash == hash(g) == first


class TestGenerators:
    def test_wheel_structure(self):
        g = generate_family("wheel", 4)
        assert (g.n, g.edge_count) == (5, 8)
        assert g.degrees[0] == 4
        assert g.degrees[1:] == (3, 3, 3, 3)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_wheel_census(self, n):
        g = generate_family("wheel", n)
        assert edge_census(g, "plain") == {(3, 3): n, (3, n): n}

    def test_sunflower_counts(self):
        g = generate_family("sunflower", 4)
        assert (g.n, g.edge_count) == (13, 20)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_sunflower_census(self, n):
        g = generate_family("sunflower", n)
        assert edge_census(g, "plain") == {
            (4, 4): n,
            (4, 3 * n): n,
            (2, 4): n,
            (2, 3 * n): n,
            (1, 3 * n): n,
        }

    def test_french_windmill(self):
        g = generate_family("french_windmill", 4, 3)
        assert (g.n, g.edge_count) == (10, 18)
        assert g.degrees[0] == 9
        assert set(g.degrees[1:]) == {3}

    def test_regular(self):
        g = generate_family("regular", 6, 3)
        assert set(g.degrees) == {3}
        assert g.edge_count == 9

    @pytest.mark.parametrize("n,r", [(5, 2), (6, 2), (6, 3), (7, 4), (8, 3), (10, 5)])
    def test_regular_degrees(self, n, r):
        g = generate_family("regular", n, r)
        assert set(g.degrees) == {r}
        assert is_connected(g)

    def test_bipartite_nn_is_regular(self):
        g = generate_family("complete_bipartite", 4, 4)
        assert set(g.degrees) == {4}

    @pytest.mark.parametrize("n", range(3, 8))
    def test_path_and_cycle(self, n):
        p = generate_family("path", n)
        assert sorted(p.degrees) == [1, 1] + [2] * (n - 2)
        c = generate_family("cycle", n)
        assert set(c.degrees) == {2}

    def test_star_and_double_star(self):
        s = generate_family("star", 5)
        assert sorted(s.degrees) == [1] * 5 + [5]
        d = generate_family("double_star", 2, 3)
        assert sorted(d.degrees) == [1] * 5 + [3, 4]

    def test_wheel3_isomorphic_to_k4(self):
        assert isomorphic_bruteforce(generate_family("wheel", 3),
                                     generate_family("complete", 4))

    @pytest.mark.parametrize("family,params", [
        ("wheel", (2,)),
        ("cycle", (2,)),
        ("sunflower", (2,)),
        ("french_windmill", (2, 3)),
        ("french_windmill", (3, 2)),
        ("regular", (5, 3)),
        ("regular", (4, 4)),
        ("double_star", (0, 1)),
    ])
    def test_invalid_params(self, family, params):
        with pytest.raises(InvalidFamilyParams):
            generate_family(family, *params)

    @pytest.mark.parametrize("family,params,message", [
        ("cycle", (2,), "cycle requires parameter >= 3, got 2"),
        ("path", (1,), "path requires parameter >= 2, got 1"),
        ("complete", (0,), "complete requires parameter >= 1, got 0"),
        ("complete_bipartite", (0, 1), "complete_bipartite m requires parameter >= 1, got 0"),
        ("complete_bipartite", (1, 0), "complete_bipartite n requires parameter >= 1, got 0"),
        ("complete_bipartite", (0, 0), "complete_bipartite m requires parameter >= 1, got 0"),
        ("star", (0,), "star requires parameter >= 1, got 0"),
        ("double_star", (0, 1), "double_star p requires parameter >= 1, got 0"),
        ("double_star", (1, 0), "double_star q requires parameter >= 1, got 0"),
        ("wheel", (2,), "wheel requires parameter >= 3, got 2"),
        ("sunflower", (2,), "sunflower requires parameter >= 3, got 2"),
        ("french_windmill", (2, 3), "french_windmill n requires parameter >= 3, got 2"),
        ("french_windmill", (3, 2), "french_windmill m requires parameter >= 3, got 2"),
        ("regular", (4, 0), "regular r requires parameter >= 1, got 0"),
        ("regular", (3, 3), "regular requires r < n, got r=3, n=3"),
        ("regular", (-1, 1), "regular requires r < n, got r=1, n=-1"),
        ("regular", (5, 3), "regular requires n*r even, got n=5, r=3"),
    ])
    def test_invalid_params_message(self, family, params, message):
        with pytest.raises(InvalidFamilyParams) as err:
            generate_family(family, *params)
        assert str(err.value) == message

    @pytest.mark.parametrize("family,params,message", [
        ("star", (10**11,), "star(n=100000000000) would have 100000000001 vertices, "
                            "past the limit of 1000000"),
        ("complete", (100000,), "complete(n=100000) would have 4999950000 edges, "
                                "past the limit of 1000000"),
        ("complete", (1415,), "complete(n=1415) would have 1000405 edges, "
                              "past the limit of 1000000"),
        ("sunflower", (200001,), "sunflower(n=200001) would have 1000005 edges, "
                                 "past the limit of 1000000"),
        ("french_windmill", (3, 10**6), "french_windmill(n=3,m=1000000) would have "
                                        "2000001 vertices, past the limit of 1000000"),
        ("path", (MAX_VERTICES + 1,), "path(n=1000001) would have 1000001 vertices, "
                                      "past the limit of 1000000"),
        ("regular", (5, 10**8), "regular requires r < n, got r=100000000, n=5"),
    ])
    def test_size_cap(self, family, params, message):
        with pytest.raises(InvalidFamilyParams) as err:
            generate_family(family, *params)
        assert str(err.value) == message

    @pytest.mark.parametrize("family,params", [
        ("regular", (6, 3)), ("regular", (9, 4)), ("cycle", (5,)), ("path", (2,)),
        ("complete", (1,)), ("complete", (6,)), ("complete_bipartite", (2, 5)),
        ("star", (1,)), ("star", (7,)), ("double_star", (1, 3)), ("wheel", (6,)),
        ("sunflower", (4,)), ("french_windmill", (4, 3)), ("french_windmill", (3, 5)),
    ])
    def test_size_matches_built_graph(self, family, params):
        g = generate_family(family, *params)
        assert _FAMILIES[family][3](*params) == (g.n, g.edge_count)

    def test_unknown_family(self):
        with pytest.raises(InvalidFamilyParams) as err:
            generate_family("torus", 3)
        assert str(err.value) == (
            "unknown family 'torus' (known: complete, complete_bipartite, cycle, "
            "double_star, french_windmill, path, regular, star, sunflower, wheel)")

    def test_wrong_arity(self):
        with pytest.raises(InvalidFamilyParams) as err:
            generate_family("wheel", 3, 4)
        assert str(err.value) == "wheel takes parameters ('n',), got (3, 4)"

    def test_handshake_over_families(self, small_families):
        for label, g in small_families:
            assert sum(g.degrees) == 2 * g.edge_count, label

    @given(st.integers(2, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=20,
            ),
        )
    ))
    def test_handshake_random(self, data):
        n, raw = data
        edges = [(u, v) for u, v in raw if u != v]
        g = Graph(n, edges)
        assert sum(g.degrees) == 2 * g.edge_count
        for u, v in g.edges:
            assert v in g.adj[u] and u in g.adj[v]


class TestBfs:
    def test_path_from_endpoint(self):
        assert bfs_distances(generate_family("path", 3), 0) == [0, 1, 2]

    def test_complete(self):
        assert bfs_distances(generate_family("complete", 4), 2) == [1, 1, 0, 1]

    def test_wheel_hub(self):
        assert bfs_distances(generate_family("wheel", 5), 0) == [0, 1, 1, 1, 1, 1]

    def test_unreachable_is_none(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, 0) == [0, 1, None]


class TestFileFormat:
    def test_dumps_wheel4(self):
        text = dumps(generate_family("wheel", 4))
        lines = text.splitlines()
        assert lines[0] == "n 5"
        assert len(lines) == 9

    def test_round_trip(self, small_families):
        for label, g in small_families:
            assert loads(dumps(g, comment=label)) == g

    @settings(max_examples=200, deadline=None)
    @given(spread_graphs(), st.sampled_from([None, "a comment", "two\nlines"]))
    @example((0, []), None)
    @example((1, []), "one vertex")
    @example((293, []), None)
    def test_round_trip_shares_one_int_per_vertex(self, case, comment):
        g = Graph(*case)
        h = loads(dumps(g, comment))
        assert (h.n, h.edges, h.adj, h.degrees) == (g.n, g.edges, g.adj, g.degrees)
        assert h == g and hash(h) == hash(g)
        assert_one_object_per_vertex(h)

    def test_comments_and_blanks_ignored(self):
        g = loads("# a comment\n\nn 3\n0 1\n# another\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("text,fragment", [
        ("0 1\n", "line 1"),
        ("n x\n", "line 1"),
        ("n 3\n0\n", "line 2"),
        ("n 3\n0 one\n", "line 2"),
        ("n 3\n0 3\n", "line 2"),
        ("n 3\n1 1\n", "line 2"),
        ("", "missing"),
    ])
    def test_parse_errors_cite_lines(self, text, fragment):
        with pytest.raises(GraphFileError, match=fragment) as err:
            loads(text)
        assert str(err.value) == {
            "0 1\n": "line 1: expected 'n <count>', got '0 1'",
            "n x\n": "line 1: vertex count 'x' is not an integer",
            "n 3\n0\n": "line 2: expected 'u v', got '0'",
            "n 3\n0 one\n": "line 2: endpoints '0 one' are not integers",
            "n 3\n0 3\n": "line 2: edge (0, 3) outside 0..2",
            "n 3\n1 1\n": "line 2: self-loop at vertex 1",
            "": "missing 'n <count>' header line",
        }[text]

    def test_vertex_count_cap(self):
        with pytest.raises(GraphFileError) as err:
            loads("n 100000000000\n")
        assert str(err.value) == \
            "line 1: vertex count 100000000000 exceeds the limit of 1000000"
        with pytest.raises(GraphFileError, match="^line 3: vertex count 1000001 "):
            loads(f"# header\n\nn {MAX_VERTICES + 1}\n0 1\n")
        g = loads("n 1000\n0 1\n")
        assert (g.n, g.edges) == (1000, ((0, 1),))

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab \n\r\x0b\x85\u2028", max_size=60), st.integers(1, 8))
    @example("0 1\r\n1 2\r\n", 3)
    @example("0 1\r\r\n\n", 3)
    def test_lines_split_a_slice_at_a_time(self, text, chunk):
        """Slices end after a newline, so they split as the text does, CRLF across a slice too."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "LINE_CHUNK", chunk)
            assert list(graph._lines(text)) == text.splitlines()

    @pytest.mark.parametrize("text,message", [
        # Each token is known by the last line, which checks only the self-loop.
        ("n 3\n0 1\n1 2\n1 1\n", "line 4: self-loop at vertex 1"),
        ("n 400\n0 1\n300 301\n301 300\n300 300\n", "line 5: self-loop at vertex 300"),
        # One known token beside a new one: both are checked as on a first line.
        ("n 3\n0 1\n1 2\n2 3\n", "line 4: edge (2, 3) outside 0..2"),
        ("n 3\n0 1\n1 2\n3 2\n", "line 4: edge (3, 2) outside 0..2"),
        ("n 3\n0 1\n1 -1\n", "line 3: edge (1, -1) outside 0..2"),
        ("n 3\n0 1\n1 x\n", "line 3: endpoints '1 x' are not integers"),
        # Aliases of one vertex: not the same token, still the same vertex.
        ("n 3\n0 1\n1 01\n", "line 3: self-loop at vertex 1"),
        ("n 3\n0 1\n01 2\n+1 1\n", "line 4: self-loop at vertex 1"),
        ("n 400\n300 301\n0300 301\n300 +300\n", "line 4: self-loop at vertex 300"),
    ])
    def test_errors_after_known_tokens(self, text, message):
        with pytest.raises(GraphFileError) as err:
            loads(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("base", [1, 300])
    def test_aliases_read_as_one_vertex(self, base):
        """``1``, ``01`` and ``+1`` are three tokens of one vertex, past the small ints too."""
        a, b, c = base, base + 1, base + 2
        g = loads(f"n 400\n{a} {b}\n0{a} {c}\n+{b} {c}\n {c}  0{a} \n+{a} 0{b}\n")
        assert g.edges == ((a, b), (a, c), (b, c))
        assert g.degrees[a:a + 3] == (2, 2, 2)
        assert_one_object_per_vertex(g)

    def test_messy_copy_reads_as_the_graph(self):
        g = random_graph(11, 60, 200)
        text = messy_copy(g, 1)
        assert "\r\n\r\n" in text and "\r\n   \r\n" in text and "\r\n  # an indented" in text
        h = loads(text)
        assert h == g and (h.adj, h.degrees) == (g.adj, g.degrees)
        assert_one_object_per_vertex(h)

    def test_read_peaks_below_1_9_times_the_graph(self):
        """Traced memory while a file is read stays under 1.9 times the graph it builds.

        This G(2000, 10^4) graph traces at about 0.5 MB, with its edges as two
        columns of vertex ints.  Reading it peaks at about 1.7 times that, with
        one int per distinct token, the lines split a slice at a time and each
        checked pair handed to the constructor as its line is read; with the
        reader's pairs held beside the constructor's columns it was 2.05 times.
        With a tuple per edge the graph traced at about 1 MB, and reading it
        peaked at 2.2 times that with an int per token, a tuple per edge in the
        reader and another in the constructor, all the file's lines split at
        once and a dict of the edges.
        """
        text = dumps(random_graph(3, 2000, 10**4))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = loads(text)
            size, peak = (traced - before for traced in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert (g.n, g.edge_count) == (2000, 10**4)
        assert peak <= 1.9 * size, (size, peak)

    @pytest.mark.parametrize("text", ["n -3\n", "# header\nn -3\n0 1\n"])
    def test_negative_vertex_count(self, text):
        with pytest.raises(GraphFileError) as err:
            loads(text)
        line = text.splitlines().index("n -3") + 1
        assert str(err.value) == f"line {line}: vertex count -3 is negative"
