"""Degree functionals: spot values, regular-graph constancy, domination solver."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoidx import functionals, indices
from topoidx.errors import (
    DisconnectedGraph, GraphTooLarge, InverseUndefined, TopoidxError, UnsupportedEvaluation,
)
from topoidx.exact import render_value
from topoidx.functionals import (
    CLOSENESS_BLOCK,
    DOMINATION_MAX,
    _banhatti_pair,
    _multi_source_distance_sums,
    cl_degrees,
    closeness,
    domination_degrees,
    edge_census,
    first_edge_of_class,
    kv_products,
    neighbor_degree_sums,
    revan_degrees,
    temperatures,
)
from topoidx.graph import Graph, bfs_distances, generate_family
from topoidx.indices import SOURCES, all_index_names, evaluate, lookup, registry_names

from reference import (
    cl_degrees_per_neighbour,
    closeness_per_vertex,
    domination_degrees_bruteforce,
    edge_endpoint_values,
    edge_scan_census,
    first_zero_edge,
    kv_products_per_neighbour,
    neighbor_degree_sums_per_neighbour,
)

from conftest import random_connected_graph, random_graph_with_isolated


def banhatti_pair(g, u, v):
    return _banhatti_pair(g.n, g.degrees[u], g.degrees[v])


class TestVertexFunctionals:
    def test_revan_wheel5(self):
        g = generate_family("wheel", 5)
        values = revan_degrees(g)
        assert values[0] == 3          # hub: 5 + 3 - 5
        assert set(values[1:]) == {5}  # rim: 5 + 3 - 3

    def test_temperature_path3(self):
        assert temperatures(generate_family("path", 3)) == (F(1, 2), 2, F(1, 2))

    def test_kv_wheel4_hub(self):
        g = generate_family("wheel", 4)
        values = kv_products(g)
        assert values[0] == 81       # 3^4 over the rim
        assert set(values[1:]) == {36}  # 3 * 3 * 4

    def test_nbd_wheel6_rim(self):
        g = generate_family("wheel", 6)
        values = neighbor_degree_sums(g)
        assert values[0] == 18       # 6 rim neighbours of degree 3
        assert set(values[1:]) == {12}  # 3 + 3 + 6

    def test_cl_values(self):
        assert set(cl_degrees(generate_family("cycle", 6))) == {0}
        assert cl_degrees(generate_family("path", 4)) == (1, 1, 1, 1)
        g = generate_family("wheel", 6)
        assert set(cl_degrees(g)[1:]) == {3}
        assert cl_degrees(Graph(2, [])) == (0, 0)

    def test_banhatti_wheel6(self):
        g = generate_family("wheel", 6)
        rim_rim = next((u, v) for u, v in g.edges if u != 0)
        assert banhatti_pair(g, *rim_rim) == (1, 1)
        assert banhatti_pair(g, 0, 1) == (7, F(7, 4))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_banhatti_complete(self, n):
        g = generate_family("complete", n)
        assert banhatti_pair(g, 0, 1) == (2 * (n - 2), 2 * (n - 2))


@st.composite
def connected_graphs(draw, max_n=40):
    """A spanning path, cycle or random tree on shuffled labels, plus chords.

    With few chords the path and cycle shapes have large eccentricities, so
    ``closeness`` takes its one-BFS-per-vertex branch on them.
    """
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(("path", "cycle", "tree")))
    if shape == "tree":
        edges = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    else:
        edges = [(order[i], order[i + 1]) for i in range(n - 1)]
        if shape == "cycle" and n >= 3:
            edges.append((order[-1], order[0]))
    vertex = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return Graph(n, edges + [(u, v) for u, v in chords if u != v])


def distance_sums(g):
    """Sum of distances per vertex, from the reference closeness table."""
    return [(g.n - 1) * c.denominator // c.numerator for c in closeness_per_vertex(g)]


def random_tree(rng, n):
    return Graph(n, [(i, rng.randrange(i)) for i in range(1, n)])


class TestCloseness:
    def test_complete(self):
        assert set(closeness(generate_family("complete", 5))) == {1}

    def test_path3(self):
        assert closeness(generate_family("path", 3)) == (F(2, 3), 1, F(2, 3))

    def test_wheel5_rim(self):
        values = closeness(generate_family("wheel", 5))
        assert values[0] == 1
        assert set(values[1:]) == {F(5, 7)}

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            closeness(Graph(2, []))

    @pytest.mark.parametrize("g, expected", [
        (Graph(0, []), ()),
        (Graph(1, []), (1,)),
        (Graph(2, [(0, 1)]), (1, 1)),
    ], ids=["n0", "n1", "n2"])
    def test_tiny(self, g, expected):
        assert closeness(g) == closeness_per_vertex(g) == expected
        assert all(type(value) is F for value in closeness(g))

    def test_disconnected_before_any_bitset(self, monkeypatch):
        def no_bitsets(g, block):
            raise AssertionError("built bitsets for a disconnected graph")
        monkeypatch.setattr(functionals, "_multi_source_distance_sums", no_bitsets)
        with pytest.raises(DisconnectedGraph) as err:
            closeness(Graph(5000, [(0, 1)]))
        assert str(err.value) == "closeness centrality needs a connected graph"

    @pytest.mark.parametrize("family, params, bitsets", [
        ("path", (300,), False),
        ("cycle", (401,), False),
        ("regular", (400, 4), True),
        ("wheel", (40,), True),
        ("star", (CLOSENESS_BLOCK + 100,), True),
    ])
    def test_method_choice(self, monkeypatch, family, params, bitsets):
        calls = []

        def spy(g, block):
            calls.append(block)
            return _multi_source_distance_sums(g, block)
        monkeypatch.setattr(functionals, "_multi_source_distance_sums", spy)
        g = generate_family(family, *params)
        assert closeness(g) == closeness_per_vertex(g)
        assert calls == ([CLOSENESS_BLOCK] if bitsets else [])

    @pytest.mark.parametrize("n", [CLOSENESS_BLOCK + 1, CLOSENESS_BLOCK + 300])
    def test_more_vertices_than_one_block(self, n):
        # A random recursive tree is shallow, so the bitsets run, in two blocks.
        g = random_tree(random.Random(n), n)
        assert 3 * 2 * max(bfs_distances(g, 0)) <= n
        assert closeness(g) == closeness_per_vertex(g)

    @given(connected_graphs(), st.sampled_from((1, 3, 8, CLOSENESS_BLOCK)))
    def test_matches_per_vertex_bfs(self, g, block):
        assert closeness(g) == closeness_per_vertex(g)
        assert _multi_source_distance_sums(g, block) == distance_sums(g)

    def test_one_iff_dominating_vertex(self, small_families):
        for label, g in small_families:
            if g.n < 2:
                continue
            values = closeness(g)
            for u in range(g.n):
                assert (values[u] == 1) == (g.degrees[u] == g.n - 1), (label, u)


class TestDomination:
    def test_complete(self):
        assert domination_degrees(generate_family("complete", 5)) == (1,) * 5

    def test_path4_by_enumeration(self):
        g = generate_family("path", 4)
        expected = domination_degrees_bruteforce(g)
        assert expected == (2, 2, 2, 2)
        assert domination_degrees(g) == expected

    def test_k23_differs_from_side_plus_one(self):
        g = generate_family("complete_bipartite", 2, 3)
        assert domination_degrees(g) == (2,) * 5
        assert domination_degrees_bruteforce(g) == (2,) * 5

    def test_star(self):
        # Leaves only appear in the all-leaves minimal dominating set.
        assert domination_degrees(generate_family("star", 4)) == (1, 4, 4, 4, 4)

    def test_double_star(self):
        assert domination_degrees(generate_family("double_star", 2, 3)) == \
            (2, 2, 3, 3, 4, 4, 4)

    def test_windmill(self):
        g = generate_family("french_windmill", 3, 3)
        values = domination_degrees(g)
        assert values[0] == 1
        assert set(values[1:]) == {3}

    def test_size_bound(self):
        assert domination_degrees(generate_family("complete", DOMINATION_MAX)) == \
            (1,) * DOMINATION_MAX
        with pytest.raises(GraphTooLarge) as err:
            domination_degrees(generate_family("complete", DOMINATION_MAX + 1))
        assert str(err.value) == "25 vertices exceeds domination solver bound 24"

    def test_range_invariant(self, small_families):
        for label, g in small_families:
            if g.n > 13:
                continue
            values = domination_degrees(g)
            for u, value in enumerate(values):
                assert 1 <= value <= g.n, label
                assert (value == 1) == (g.degrees[u] == g.n - 1), (label, u)

    def test_agreement_random_sample(self):
        rng = random.Random(1105)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 7))
            assert domination_degrees(g) == domination_degrees_bruteforce(g)


@st.composite
def graphs_with_isolated(draw):
    """A graph on up to 9 vertices with an edge set drawn at random, then 0 to 3 isolated vertices."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n + draw(st.integers(0, 3)), edges)


@settings(max_examples=200, deadline=None)
@given(graphs_with_isolated())
def test_neighbourhood_tables_match_per_neighbour_loops(g):
    assert kv_products(g) == kv_products_per_neighbour(g)
    assert neighbor_degree_sums(g) == neighbor_degree_sums_per_neighbour(g)
    assert cl_degrees(g) == cl_degrees_per_neighbour(g)


class TestRegularConstancy:
    @pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (8, 3), (7, 4), (9, 4)])
    def test_all_sources_constant(self, n, r):
        g = generate_family("regular", n, r)
        assert revan_degrees(g) == g.degrees
        assert set(temperatures(g)) == {F(r, n - r)}
        assert set(neighbor_degree_sums(g)) == {r * r}
        assert set(kv_products(g)) == {r**r}
        assert set(cl_degrees(g)) == {0}
        for u, v in g.edges:
            assert banhatti_pair(g, u, v) == (F(2 * r - 2, n - r),) * 2


def is_own_edge(g: Graph, edge) -> bool:
    """``edge`` is a (u, v) tuple of an edge of ``g``, made of the vertex objects ``g`` holds."""
    u, v = edge
    return (type(edge) is tuple and any(w is v for w in g.adj[u])
            and any(w is u for w in g.adj[v]))


class TestDegreeDeterminedCensus:
    """The census mapped from the degree-pair census equals an edge scan.

    Equal as lists of items, so the classes keep the order of their first edge
    (the order in which ``~`` float sums add), and with keys of the same types.
    """

    @staticmethod
    def assert_census(g, label):
        for source in ("plain", "revan", "temperature", "banhatti"):
            got = list(edge_census(g, source).items())
            want = list(edge_scan_census(g, source).items())
            assert got == want, (label, source)
            assert [tuple(map(type, key)) for key, _ in got] == \
                [tuple(map(type, key)) for key, _ in want], (label, source)

    def test_random_graphs_with_isolated_vertices(self):
        rng = random.Random(1010)
        graphs = [random_graph_with_isolated(rng) for _ in range(150)]
        assert any(0 in g.degrees and g.edges for g in graphs)
        for i, g in enumerate(graphs):
            self.assert_census(g, f"random{i}")

    def test_every_family(self, small_families):
        for label, g in small_families:
            self.assert_census(g, label)

    @staticmethod
    def assert_first_edges(g, label):
        """Each class's first edge is the one an edge scan meets first, on the graph's own ints."""
        for source in ("plain", "revan", "temperature", "banhatti", "kv", "nbd"):
            first = {}
            for u, v, a, b in edge_endpoint_values(g, source):
                first.setdefault((a, b) if a <= b else (b, a), (u, v))
            assert list(first) == list(edge_census(g, source)), (label, source)
            for pair, edge in first.items():
                got = first_edge_of_class(g, source, pair)
                assert got == edge and is_own_edge(g, got), (label, source, pair)

    def test_first_edge_of_each_class(self, small_families):
        rng = random.Random(2020)
        graphs = [(f"random{i}", random_graph_with_isolated(rng)) for i in range(100)]
        assert any(0 in g.degrees and g.edges for _, g in graphs)
        for label, g in graphs + small_families:
            self.assert_first_edges(g, label)


def kept_censuses(g: Graph) -> set:
    """The sources whose census ``g`` keeps in its memo; kernel products are keyed by tuples."""
    return {key for key in g._memo if isinstance(key, str)}


def every_value(g: Graph, a) -> dict:
    """Each of the 462 names on ``g``, general powers at ``a``; a refusal as its type."""
    out = {}
    for name in all_index_names():
        try:
            out[name] = evaluate(g, name, a)
        except TopoidxError as exc:
            out[name] = type(exc)
    return out


@pytest.fixture
def merges(monkeypatch):
    """The number of census builds so far, one per census (two for closeness).

    Counts the calls of both functions that build a census: ``_scan``, which
    counts the edges, and ``_merge``, which adds up mapped classes.
    """
    calls = []
    for name in ("_scan", "_merge"):
        build = getattr(functionals, name)
        monkeypatch.setattr(functionals, name,
                            lambda *args, build=build: calls.append(1) or build(*args))
    return calls


def counted_kernels(monkeypatch) -> dict:
    """Patch each kernel to count its calls; returns the counts by variant."""
    calls = dict.fromkeys(indices._KERNELS, 0)

    def counted(variant, kernel):
        def call(a, b):
            calls[variant] += 1
            return kernel(a, b)
        return call

    for variant, kernel in list(indices._KERNELS.items()):
        monkeypatch.setitem(indices._KERNELS, variant, counted(variant, kernel))
    return calls


class TestCensusMemo:
    """Each census is built once per graph, kept read-only, and only when small."""

    SOURCES = ("plain", "revan", "temperature", "banhatti", "kv", "nbd", "closeness", "cl",
               "domination")

    def test_built_once_per_graph(self, merges):
        g = generate_family("sunflower", 5)
        assert edge_census(g, "revan") is edge_census(g, "revan")
        assert len(merges) == 2  # the plain census, then revan mapped from it
        first = {source: edge_census(g, source) for source in self.SOURCES}
        assert len(merges) == 2 + 7 + 1  # closeness also merges its distance-sum pairs
        for source in self.SOURCES:
            assert edge_census(g, source) is first[source], source
        assert len(merges) == 10
        assert sorted(g._memo) == sorted(self.SOURCES)

    def test_view_is_read_only(self):
        census = edge_census(generate_family("wheel", 5), "plain")
        with pytest.raises(TypeError):
            census[(3, 3)] = 0
        assert census == {(3, 3): 5, (3, 5): 5}

    @staticmethod
    def unkept_kv_graph() -> Graph:
        """A seeded random graph whose kv census has more than m/2 classes."""
        rng = random.Random(7)
        n = rng.randint(6, 10)
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])

    def test_census_past_the_bound_is_not_kept(self, merges):
        g = self.unkept_kv_graph()
        census = edge_census(g, "kv")
        assert 2 * len(census) > g.edge_count
        assert "kv" not in g._memo
        again = edge_census(g, "kv")
        assert again == census and again is not census
        assert len(merges) == 2

    def test_kept_exactly_when_at_most_half_the_edges(self):
        rng = random.Random(1515)
        kept = dropped = 0
        for _ in range(40):
            g = random_graph_with_isolated(rng)
            for source in ("plain", "revan", "temperature", "banhatti", "kv", "nbd", "cl"):
                small = 2 * len(edge_census(g, source)) <= g.edge_count
                assert (source in g._memo) == small, (g.edges, source)
                kept += small
                dropped += not small
        assert kept and dropped

    def test_equal_graphs_keep_separate_memos(self):
        g = generate_family("wheel", 7)
        h = Graph(g.n, g.edges)
        assert g == h
        assert list(edge_census(g, "plain").items()) == [((3, 7), 7), ((3, 3), 7)]
        assert edge_census(g, "plain") is not edge_census(h, "plain")
        assert edge_census(h, "plain") == edge_census(g, "plain")
        assert g._memo is not h._memo

    def test_warm_graph_renders_as_a_fresh_copy(self):
        def rendered(g, names):
            out = {}
            for name in names:
                try:
                    out[name] = render_value(evaluate(g, name, F(3, 2)))
                except TopoidxError as exc:
                    out[name] = type(exc).__name__
            return out

        names = all_index_names()
        rng = random.Random(77)
        graphs = [generate_family("sunflower", 4), random_connected_graph(rng, 12, 0.3)]
        for g in graphs:
            cold = rendered(g, names)
            assert len(cold) == 462
            assert rendered(g, names) == cold == rendered(Graph(g.n, g.edges), names)
            # Reversed, each M...exp and hyper or inverse product comes before
            # its identity product, so a sibling fills the product memo.
            h = Graph(g.n, g.edges)
            assert rendered(h, names[::-1]) == cold == rendered(h, names)
        # Both sides of the bound: sunflower keeps every census, the random graph not all.
        assert kept_censuses(graphs[0]) == set(self.SOURCES)
        assert set(self.SOURCES) - kept_censuses(graphs[1])


    def test_product_built_once_per_source_and_variant(self, monkeypatch):
        builds = []
        fold = indices._fold

        def counted(census, term, aggregation, form):
            builds.append((aggregation, form) == ("product", "value"))
            return fold(census, term, aggregation, form)

        monkeypatch.setattr(indices, "_fold", counted)
        g = generate_family("sunflower", 4)
        first = every_value(g, 2)
        keys = {(source, variant) for source in SOURCES for variant in (1, 2, 3, 4)}
        # With an integral general power, all four transforms are powers of one product.
        assert sum(builds) == len(keys) == 28
        assert {key for key in g._memo if isinstance(key, tuple)} == keys
        assert kept_censuses(g) == set(self.SOURCES)
        assert every_value(g, 2) == first
        assert sum(builds) == 28


class TestKernelMemo:
    """One memo entry per (source, variant) holds the kernel's class values and its product's powers."""

    def test_each_kernel_evaluated_once_per_class(self, monkeypatch):
        calls = counted_kernels(monkeypatch)
        g = generate_family("sunflower", 4)
        first = every_value(g, 2)
        classes = sum(len(edge_census(g, source)) for source in SOURCES)
        assert kept_censuses(g) >= set(SOURCES)
        assert calls == dict.fromkeys(indices._KERNELS, classes)
        assert every_value(g, 2) == first
        assert calls == dict.fromkeys(indices._KERNELS, classes)

    def test_general_square_is_the_hyper_product(self):
        g = generate_family("sunflower", 4)
        assert evaluate(g, "MGRLKV1", 2) is evaluate(g, "MHRLKV1")
        assert evaluate(g, "MGRLKV1(a=-1)") is evaluate(g, "MIRLKV1")

    def test_memo_holds_only_product_powers(self):
        g = generate_family("sunflower", 4)
        assert indices.memo_holds(g, evaluate(g, "MHRLKV1"))
        assert indices.memo_holds(g, evaluate(g, "MGRLKV1(a=3)"))
        # Sums and exponential-form products are built afresh on each call.
        for name in ("RLKV1", "MRLKV1exp", "RLKV1exp"):
            value = evaluate(g, name)
            assert value is not evaluate(g, name) and not indices.memo_holds(g, value)
        assert not indices.memo_holds(generate_family("sunflower", 4), evaluate(g, "MHRLKV1"))

    def test_values_kept_past_the_census_bound(self, monkeypatch, merges):
        g = TestCensusMemo.unkept_kv_graph()
        census = edge_census(g, "kv")
        assert 2 * len(census) > g.edge_count
        zero_variants = sum(any(kernel(*pair) == 0 for pair in census)
                            for kernel in indices._KERNELS.values())
        assert zero_variants == 1  # variant 4, on a class that is not the first
        merges.clear()
        calls = counted_kernels(monkeypatch)
        names = [name for name in registry_names() if lookup(name)[0].source == "kv"]
        assert len(names) == 64

        def values():
            out = {}
            for name in names:
                try:
                    out[name] = evaluate(g, name, 2)
                except TopoidxError as exc:
                    out[name] = (type(exc), getattr(exc, "edge", None))
            return out

        first = values()
        assert values() == first
        assert "kv" not in g._memo
        assert all(1 in g._memo[("kv", variant)].powers for variant in indices._KERNELS)
        # One build per kernel entry, never one per name: the entry names its
        # first zero edge from the census it is built from.
        assert len(merges) == 4
        assert calls == dict.fromkeys(indices._KERNELS, len(census))
        assert sum(isinstance(value, tuple) for value in first.values()) == 4
        assert first["IRLKV4"] == (InverseUndefined, first_zero_edge(g, "kv", 4))

    def test_zero_edge_is_named_without_the_plain_census(self, merges):
        g = generate_family("path", 4)
        assert 2 * len(edge_census(g, "plain")) > g.edge_count  # (1, 2) x 2, (2, 2) x 1
        merges.clear()
        assert evaluate(g, "RRL4") == 4  # 2 * |1 - 2| * 1 * 2, and 0 on the middle edge
        # The plain census, then revan mapped from it; naming the zero edge builds none.
        assert len(merges) == 2
        with pytest.raises(InverseUndefined) as err:
            evaluate(g, "IRRL4")
        assert len(merges) == 2
        zero = g._memo[("revan", 4)].zero
        assert zero == err.value.edge == first_zero_edge(g, "revan", 4) == (1, 2)
        assert is_own_edge(g, zero)

    def test_refused_power_is_never_kept(self):
        g = generate_family("wheel", 4)
        for _ in range(3):
            with pytest.raises(UnsupportedEvaluation):
                evaluate(g, "MGRL1(a=10000000)")
            assert set(g._memo[("plain", 1)].powers) == {1}
        assert evaluate(g, "MGRL1(a=3)") == evaluate(g, "MRL1") ** 3
        assert set(g._memo[("plain", 1)].powers) == {1, 3}


class TestClosenessCensus:
    """The census keyed on distance sums equals an edge scan of the closeness table.

    Compared as item lists with key types, as for the degree-determined census.
    """

    @staticmethod
    def assert_census(g, label):
        table = closeness_per_vertex(g)
        want: dict = {}
        for u, v in g.edges:
            a, b = table[u], table[v]
            key = (a, b) if a <= b else (b, a)
            want[key] = want.get(key, 0) + 1
        got = list(edge_census(g, "closeness").items())
        assert got == list(want.items()), label
        assert [tuple(map(type, key)) for key, _ in got] == \
            [tuple(map(type, key)) for key in want], label

    def test_every_family(self, small_families):
        for label, g in small_families:
            self.assert_census(g, label)

    @staticmethod
    def assert_first_edges(g, label):
        """Each closeness class's first edge is the one a scan of the reference table meets first."""
        table = closeness_per_vertex(g)
        first = {}
        for u, v in g.edges:
            a, b = table[u], table[v]
            first.setdefault((a, b) if a <= b else (b, a), (u, v))
        assert list(first) == list(edge_census(g, "closeness")), label
        for pair, edge in first.items():
            got = first_edge_of_class(g, "closeness", pair)
            assert got == edge and is_own_edge(g, got), (label, pair)

    def test_first_edge_of_each_class(self, small_families):
        """On connected graphs only: closeness is refused on a disconnected one."""
        rng = random.Random(2020)
        graphs = [(f"random{i}", random_connected_graph(rng, rng.randint(1, 40),
                                                        rng.choice((0.2, 0.5))))
                  for i in range(60)]
        assert any(len(set(closeness_per_vertex(g))) > 2 for _, g in graphs)
        for label, g in graphs + small_families:
            self.assert_first_edges(g, label)

    def test_random_connected_graphs(self):
        rng = random.Random(1212)
        for i in range(60):
            g = random_connected_graph(rng, rng.randint(1, 40), rng.choice((0.2, 0.5)))
            self.assert_census(g, f"random{i}")


class TestAgainstNetworkx:
    """Closeness and neighbour-degree sums from an independent graph library."""

    @pytest.fixture(scope="class")
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def as_nx(nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    def test_closeness(self, nx, small_families):
        rng = random.Random(2402)
        graphs = [g for _, g in small_families if g.n > 1]
        graphs += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(20)]
        for g in graphs:
            lengths = dict(nx.all_pairs_shortest_path_length(self.as_nx(nx, g)))
            expected = tuple(F(g.n - 1, sum(lengths[u].values())) for u in range(g.n))
            assert closeness(g) == expected, g

    def test_neighbor_degree_sums(self, nx, small_families):
        for label, g in small_families + [("two edges", Graph(5, [(0, 1), (1, 2)]))]:
            h = self.as_nx(nx, g)
            expected = tuple(sum(h.degree[w] for w in h[u]) for u in range(g.n))
            assert neighbor_degree_sums(g) == expected, label
