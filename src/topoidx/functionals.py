"""Vertex-level and edge-vertex-level degree functionals.

Every catalog index is a fold of a per-edge kernel over endpoint values
drawn from one of these sources:

  plain        d(u)
  revan        max_degree + min_degree - d(u)
  banhatti     d(e)/(n - d(u)) for the incident edge e, d(e) = d(u)+d(v)-2
               (edge-vertex valued: depends on the edge, unlike the others)
  temperature  d(u)/(n - d(u))
  domination   minimum cardinality of a minimal dominating set containing u
  kv           product of the degrees of u's neighbors
  nbd          sum of the degrees of u's neighbors

plus closeness centrality and the maximum-degree-deviation (CL) degree used
by the standalone indices.  On a simple graph every degree is at most n-1,
so no banhatti or temperature denominator is zero.

The first four sources are degree-determined: the values at the ends of an
edge uv depend only on d(u), d(v) and the graph, so their edge census is the
degree-pair (plain) census relabelled class by class.  Closeness (n-1)/S is
injective in the integer distance sum S, so its census counts int pairs of
S and relabels those classes.  The distance sums come from one bit-parallel
multi-source BFS, or from one BFS per vertex on graphs as long as paths and
cycles.  All functions are pure; the per-source vertex tables are cached
against the immutable graph, and its small edge censuses kept in its memo.
The table cache holds one entry per source, so at most the tables of one
graph: the graph being evaluated, and no graph it has seen before.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from types import MappingProxyType

from .errors import DisconnectedGraph, GraphTooLarge
from .graph import Graph, bfs_distances

def plain_degrees(g: Graph) -> tuple[int, ...]:
    return g.degrees


def _revan_of(g: Graph):
    """The Revan value of a vertex of degree d on ``g``, as a function of d."""
    hi, lo = max(g.degrees, default=0), min(g.degrees, default=0)
    return lambda d: hi + lo - d


def _temperature_of(g: Graph):
    """The temperature of a vertex of degree d on ``g``, as a function of d."""
    n = g.n
    return lambda d: Fraction(d, n - d)


def revan_degrees(g: Graph) -> tuple[int, ...]:
    return tuple(map(_revan_of(g), g.degrees))


def temperatures(g: Graph) -> tuple[Fraction, ...]:
    return tuple(map(_temperature_of(g), g.degrees))


def kv_products(g: Graph) -> tuple[int, ...]:
    degree = g.degrees.__getitem__
    return tuple(math.prod(map(degree, nbrs)) for nbrs in g.adj)


def neighbor_degree_sums(g: Graph) -> tuple[int, ...]:
    degree = g.degrees.__getitem__
    return tuple(sum(map(degree, nbrs)) for nbrs in g.adj)


def _banhatti_pair(n: int, d_u: int, d_v: int) -> tuple[Fraction, Fraction]:
    """Banhatti degrees at the ends of an edge of an n-vertex graph, from the end degrees."""
    d_e = d_u + d_v - 2
    return Fraction(d_e, n - d_u), Fraction(d_e, n - d_v)


# Sources per block of the multi-source BFS.  Each vertex holds an int bitset
# of the block's sources, so the bitsets take O(n * block / 8) bytes rather
# than O(n^2 / 8); 1024 keeps wheel(1000) in one block.
CLOSENESS_BLOCK = 1024


def _multi_source_distance_sums(g: Graph, block: int) -> list[int]:
    """Sum of distances from every vertex of a connected graph, by MS-BFS.

    The bit-parallel multi-source BFS of Then et al., "The More the Merrier"
    (PVLDB 8(4), 2014), over the sources in blocks of ``block``.  Each vertex
    holds the bitset of the sources that have reached it; a level ORs the
    neighbours' frontier sets.  Distance is symmetric, so the sources first
    reaching u at level L are those at distance L from u, and u's sum adds
    L times their count.
    """
    n, adj = g.n, g.adj
    sums = [0] * n
    for lo in range(0, n, block):
        width = min(block, n - lo)
        full = (1 << width) - 1
        seen = [0] * n
        for i in range(width):
            seen[lo + i] = 1 << i
        frontier = seen[:]
        pending = [v for v in range(n) if seen[v] != full]
        level = 0
        while pending:
            level += 1
            reached = [0] * n
            rest = []
            for v in pending:
                acc = 0
                for w in adj[v]:
                    acc |= frontier[w]
                old = seen[v]
                new = acc & ~old
                if new:
                    seen[v] = old | new
                    reached[v] = new
                    sums[v] += level * new.bit_count()
                if seen[v] != full:
                    rest.append(v)
            frontier, pending = reached, rest
    return sums


def closeness(g: Graph) -> tuple[Fraction, ...]:
    """Normalized closeness (n-1)/sum-of-distances; requires connectivity.

    A BFS from vertex 0 checks connectivity and gives its eccentricity,
    which is within a factor of two of the number of levels of any
    multi-source BFS block.  One bitset level costs about as much as three
    single-source BFS runs (2.2-3.4 measured), so the multi-source BFS runs
    when 3 * blocks * ecc(0) <= n, and one BFS per vertex runs otherwise
    (long paths and cycles).
    """
    if g.n < 2:
        return (Fraction(1),) * g.n
    dist = bfs_distances(g, 0)
    if None in dist:
        raise DisconnectedGraph("closeness centrality needs a connected graph")
    blocks = -(-g.n // CLOSENESS_BLOCK)
    if 3 * blocks * max(dist) <= g.n:
        sums = _multi_source_distance_sums(g, CLOSENESS_BLOCK)
    else:
        sums = [sum(dist)] + [sum(bfs_distances(g, u)) for u in range(1, g.n)]
    return tuple(Fraction(g.n - 1, s) for s in sums)


def cl_degrees(g: Graph) -> tuple[int, ...]:
    """Maximum absolute degree deviation from a neighbor; 0 for isolated vertices.

    Over the neighbours' degrees ``ends``, max |e - d| = max(max(ends) - d, d - min(ends)).
    """
    degree = g.degrees.__getitem__
    ends_of = (list(map(degree, nbrs)) for nbrs in g.adj)
    return tuple(max(max(ends) - d, d - min(ends)) if ends else 0
                 for d, ends in zip(g.degrees, ends_of))


# --- domination degree -------------------------------------------------------
#
# d_d(v) = minimum size of a *minimal* dominating set containing v, where a
# dominating set is minimal when no proper subset dominates.  Domination is
# monotone, so minimality reduces to: dropping any single member breaks
# domination.  Enumeration ascends by cardinality and stops once every vertex
# has been hit, which keeps desk-scale graphs cheap even near the bound.

# The exhaustive search is exponential in n; this is the largest vertex count
# it accepts.  A table enters `vertex_table`'s cache only after this check.
DOMINATION_MAX = 24


def _closed_masks(g: Graph) -> list[int]:
    masks = []
    for u in range(g.n):
        mask = 1 << u
        for w in g.adj[u]:
            mask |= 1 << w
        masks.append(mask)
    return masks


def domination_degrees(g: Graph) -> tuple[int, ...]:
    if g.n > DOMINATION_MAX:
        raise GraphTooLarge(f"{g.n} vertices exceeds domination solver bound {DOMINATION_MAX}")
    masks = _closed_masks(g)
    full = (1 << g.n) - 1
    result: list = [None] * g.n
    remaining = g.n
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            union = 0
            for u in combo:
                union |= masks[u]
            if union != full:
                continue
            minimal = True
            for drop in combo:
                rest = 0
                for u in combo:
                    if u != drop:
                        rest |= masks[u]
                if rest == full:
                    minimal = False
                    break
            if not minimal:
                continue
            for u in combo:
                if result[u] is None:
                    result[u] = size
                    remaining -= 1
        if remaining == 0:
            break
    # Every vertex lies in some maximal independent set, which is a minimal
    # dominating set, so the loop always terminates with all entries set.
    return tuple(result)


# --- dispatch ---------------------------------------------------------------


# Vertex-valued source -> table builder (every source but banhatti, plus the
# closeness and CL tables of the standalone indices).
VERTEX_TABLES = {
    "plain": plain_degrees,
    "revan": revan_degrees,
    "domination": domination_degrees,
    "temperature": temperatures,
    "kv": kv_products,
    "nbd": neighbor_degree_sums,
    "closeness": closeness,
    "cl": cl_degrees,
}


@lru_cache(maxsize=len(VERTEX_TABLES))
def vertex_table(g: Graph, source: str) -> tuple:
    """Per-vertex values for any vertex-valued source (not banhatti).

    Cached by (graph, source), with room for every source of one graph: a
    graph that nothing else references is freed once ``len(VERTEX_TABLES)``
    tables of other graphs have been built.
    """
    try:
        build = VERTEX_TABLES[source]
    except KeyError:
        raise ValueError(f"unknown vertex-valued source {source!r}") from None
    return build(g)


# Degree-determined vertex source -> its value as a function of the degree,
# which both its vertex table and its census map.
_DEGREE_VALUE = {"revan": _revan_of, "temperature": _temperature_of}

# The sources whose census maps the classes of the plain census.
_DEGREE_MAPPED = (*_DEGREE_VALUE, "banhatti")


def _ends_of_degrees(g: Graph, source: str):
    """The values at the ends of an edge as a function of its end degrees d_u, d_v.

    For the degree-determined sources other than plain; each distinct degree
    is valued once.
    """
    if source == "banhatti":
        return partial(_banhatti_pair, g.n)
    value_of = _DEGREE_VALUE[source](g)
    value = {d: value_of(d) for d in set(g.degrees)}
    return lambda d_u, d_v: (value[d_u], value[d_v])


def _merge(weighted_pairs) -> dict[tuple, int]:
    """Add counts by sorted pair, keeping the order in which pairs first appear."""
    census: dict[tuple, int] = {}
    for a, b, count in weighted_pairs:
        key = (a, b) if a <= b else (b, a)
        census[key] = census.get(key, 0) + count
    return census


def _scan(g: Graph, table) -> dict[tuple, int]:
    """Count the edges of ``g`` by sorted pair of their ends' ``table`` values.

    The census ``_merge`` adds from a count of 1 per edge, in one loop over the edges.
    """
    census: dict[tuple, int] = {}
    count = census.get
    for u, v in g.edges:
        a = table[u]
        b = table[v]
        key = (a, b) if a <= b else (b, a)
        census[key] = count(key, 0) + 1
    return census


def edge_census(g: Graph, source: str) -> MappingProxyType:
    """Count edges by sorted pair of endpoint values (the edge partition).

    Every index is a symmetric form of the endpoint values, so a fold over
    this census.  Classes keep the order of their first edge.  The plain
    census is the degree-pair census: the other degree-determined sources
    map its classes, valuing each distinct degree once, and add the counts
    of classes that coincide; closeness maps the classes of a census of
    distance-sum pairs, one to one; any other source scans the edges against
    its vertex table.  The read-only census is kept in the graph's memo if it
    has at most m/2 classes: one that does not halve the edge list costs
    about as much to rebuild as the fold that reads it, and keeping it would
    hold a second edge list.
    """
    memo = g._memo
    if source in memo:
        return memo[source]
    if source in _DEGREE_MAPPED:
        ends = _ends_of_degrees(g, source)
        census = _merge((*ends(d_u, d_v), c) for (d_u, d_v), c in edge_census(g, "plain").items())
    elif source == "closeness":
        table = vertex_table(g, source)
        sums = [(g.n - 1) * c.denominator // c.numerator for c in table]
        value = dict(zip(sums, table))
        census = _merge((value[s_u], value[s_v], c) for (s_u, s_v), c in _scan(g, sums).items())
    else:
        census = _scan(g, vertex_table(g, source))
    census = MappingProxyType(census)
    if 2 * len(census) <= g.edge_count:
        memo[source] = census
    return census


def first_edge_of_class(g: Graph, source: str, pair: tuple) -> tuple[int, int]:
    """The first edge, in edge order, of the class ``pair`` of ``edge_census(g, source)``.

    Returns a new (u, v) tuple of the graph's own vertex int objects.  A
    degree-determined source maps one sorted pair of positive degrees to
    each of its classes: revan and temperature are one to one in the
    degree, and a Banhatti pair (x, y) gives d(u) + d(v) by
    1/x + 1/y = (2n - 2)/(d(u) + d(v) - 2) - 1 and then each degree by
    x = (d(u) + d(v) - 2)/(n - d(u)), or is (0, 0) on degrees 1 and 1
    alone.  So the class's degree pair is found among the sorted
    pairs of distinct positive degrees, at most 2m of them since those
    degrees add up to at most 2m, with no plain census; the edges are then
    compared by int degrees.
    Any other source compares the edges' vertex-table values with ``pair``.
    """
    table, (lo, hi) = g.degrees, pair
    if source in _DEGREE_MAPPED:
        ends = _ends_of_degrees(g, source)
        degrees = sorted(set(g.degrees) - {0})
        lo, hi = next((d_u, d_v) for i, d_u in enumerate(degrees) for d_v in degrees[i:]
                      if ends(d_u, d_v) in (pair, pair[::-1]))
    elif source != "plain":
        table = vertex_table(g, source)
    return next((u, v) for u, v in g.edges if (table[u], table[v]) in ((lo, hi), (hi, lo)))
