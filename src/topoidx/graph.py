"""Immutable simple undirected graphs and the standard family generators.

Vertices are 0..n-1.  Edges are canonical sorted pairs, deduplicated, with
self-loops rejected, so adjacency is symmetric and the handshake identity
holds by construction; the constructor checks every pair, the file reader
names the line.  A graph holds one int object per vertex, shared by its two
edge columns and its adjacency lists.  Generators number vertices
deterministically (hub first, then rim, outer, pendant) so file output is
stable.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable
from itertools import islice, repeat
from operator import add, floordiv, lt, mod, mul

from .errors import (
    GraphFileError,
    InvalidFamilyParams,
    SelfLoop,
    VertexOutOfRange,
)
from .pairs import Pairs


class Graph:
    """Simple undirected graph; immutable, with its derived structures built once."""

    # ``edges`` is a ``Pairs`` of the m sorted (u, v) edges, u < v: two
    # columns of vertex ints, ``firsts`` the smaller ends and ``seconds`` the
    # larger, rather than a tuple per edge.  Its columns and ``adj`` share one
    # int object per vertex.  The 2*10^4-vertex, 10^5-edge graph traces at
    # 4.9 MB by tracemalloc; with a 2-int tuple per edge it was 9.7 MB, and
    # with an int object per endpoint as well, 14.8 MB.  The constructor is
    # the one check of each pair (self-loop, then range).  It sorts only input
    # not already in strictly increasing order, such as a shuffled or repeated
    # edge list, so ``loads`` of a sorted file, a family generator and a copy
    # rebuilt from ``edges`` only append to the two columns and check order.
    # ``_hash`` is filled in by the first ``hash()``: the table caches look a
    # graph up by hash, and hashing the edges costs O(m) each time.  ``_memo``
    # holds what the evaluators derive from the graph: source -> edge census
    # (``functionals.edge_census``), where the census is small enough to keep,
    # and (source, variant) -> one kernel's entry, with its class values and
    # counts, its first zero edge and the powers of its exact product
    # (``indices.evaluate_descriptor``), whether or not the census is kept.
    __slots__ = ("n", "edges", "adj", "degrees", "_hash", "_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InvalidFamilyParams(f"vertex count must be nonnegative, got {n}")
        us: list = []
        vs: list = []
        add_u, add_v = us.append, vs.append
        vertex: dict = {}  # vertex value -> the first int object met for it
        intern = vertex.setdefault
        for a, b in edges:
            u = intern(a, a)
            v = intern(b, b)
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u < v:
                add_u(u)
                add_v(v)
            else:
                add_u(v)
                add_v(u)
        # Pairs already strictly increasing are sorted and have no repeats.
        # Others are sorted by the int key u*n + v, which orders them as pairs.
        if not all(map(lt, zip(us, vs), zip(islice(us, 1, None), islice(vs, 1, None)))):
            keys = sorted(set(map(add, map(mul, us, repeat(n)), vs)))
            us[:] = map(vertex.__getitem__, map(floordiv, keys, repeat(n)))
            vs[:] = map(vertex.__getitem__, map(mod, keys, repeat(n)))
            del keys
        # The bound appends hold the lists: drop them, so that the lists and the
        # table are freed before the adjacency lists grow.
        del add_u, add_v, vertex, intern
        us, vs = tuple(us), tuple(vs)
        # In sorted edge order, vertex x first receives its smaller neighbours in
        # ascending order, then its larger ones: no adjacency list needs a sort.
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(us, vs):
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", Pairs(us, vs))
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))
        object.__setattr__(self, "degrees", tuple(map(len, adj)))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # Pickles and copies are rebuilt by the constructor, with an empty memo.
        return Graph, (self.n, self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.n, self.edges.firsts, self.edges.seconds))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def bfs_distances(g: Graph, source: int) -> list:
    """Hop distances from ``source``; unreachable vertices get None."""
    if not (0 <= source < g.n):
        raise VertexOutOfRange(f"source {source} outside 0..{g.n - 1}")
    dist: list = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


# --- family generators -----------------------------------------------------
#
# Each generator builds its edges as sorted canonical pairs, u < v, so the
# constructor only appends them and checks their order: a wrap-around edge
# is placed among its smaller end's pairs, not after the rest.


def _gen_cycle(n: int) -> Graph:
    return Graph(n, [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)])


def _gen_path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _gen_complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _gen_complete_bipartite(m: int, n: int) -> Graph:
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def _gen_star(n: int) -> Graph:
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def _gen_double_star(p: int, q: int) -> Graph:
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(p)]
    edges += [(1, 2 + p + i) for i in range(q)]
    return Graph(2 + p + q, edges)


def _gen_wheel(n: int) -> Graph:
    # Hub 0 joined to the rim cycle 1..n.
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(1, 2), (1, n)] + [(i, i + 1) for i in range(2, n)]
    return Graph(n + 1, edges)


def _gen_sunflower(n: int) -> Graph:
    # Hub 0; rim cycle u_i = 1+i; outer w_i = n+1+i tied to u_i and the hub;
    # pendants p_i = 2n+1+i on the hub alone.  Degree census: hub 3n, rim 4,
    # outer 2, pendant 1, with n edges of each of the five types.
    # Rim vertex u's larger neighbours, ascending: u+1 on the rim (and rim
    # u_0's wrap-around neighbour n), then its outer vertex u+n.
    edges = [(0, w) for w in range(1, 3 * n + 1)]
    edges += [(1, 2), (1, n), (1, n + 1)]
    for u in range(2, n):
        edges += [(u, u + 1), (u, u + n)]
    edges.append((n, 2 * n))
    return Graph(3 * n + 1, edges)


def _gen_french_windmill(n: int, m: int) -> Graph:
    # m copies of K_n sharing vertex 0; copy c's other vertices are the run
    # 1 + c(n-1) .. c(n-1) + n-1.
    edges = [(0, v) for v in range(1, m * (n - 1) + 1)]
    for start in range(1, m * (n - 1) + 1, n - 1):
        end = start + n - 1
        edges += [(u, v) for u in range(start, end) for v in range(u + 1, end)]
    return Graph(m * (n - 1) + 1, edges)


def _regular_size(n: int, r: int) -> tuple[int, int]:
    if r >= n:
        raise InvalidFamilyParams(f"regular requires r < n, got r={r}, n={n}")
    if (n * r) % 2 != 0:
        raise InvalidFamilyParams(f"regular requires n*r even, got n={n}, r={r}")
    return n, n * r // 2


def _gen_regular(n: int, r: int) -> Graph:
    # Circulant with jumps 1..r/2; an odd r additionally needs n even and
    # uses the diameter chord i <-> i+n/2.  Vertex i's larger neighbours are
    # i + d below n for the ascending offsets d: the jumps, the chord, then
    # n - r/2 .. n - 1, which are the backward jumps that wrap past 0.  As
    # r < n, no two offsets meet.
    half = r // 2
    offsets = [*range(1, half + 1), *([n // 2] if r % 2 == 1 else []), *range(n - half, n)]
    return Graph(n, [(i, i + d) for i in range(n) for d in offsets if i + d < n])


# family -> (parameter names, minimum of each parameter or None, builder,
# (vertex count, edge count) of the graph the builder would make).
# The regular size function also checks r < n and n*r even.
_FAMILIES = {
    "regular": (("n", "r"), (None, 1), _gen_regular, _regular_size),
    "cycle": (("n",), (3,), _gen_cycle, lambda n: (n, n)),
    "path": (("n",), (2,), _gen_path, lambda n: (n, n - 1)),
    "complete": (("n",), (1,), _gen_complete, lambda n: (n, n * (n - 1) // 2)),
    "complete_bipartite": (("m", "n"), (1, 1), _gen_complete_bipartite,
                           lambda m, n: (m + n, m * n)),
    "star": (("n",), (1,), _gen_star, lambda n: (n + 1, n)),
    "double_star": (("p", "q"), (1, 1), _gen_double_star, lambda p, q: (2 + p + q, 1 + p + q)),
    "wheel": (("n",), (3,), _gen_wheel, lambda n: (n + 1, 2 * n)),
    "sunflower": (("n",), (3,), _gen_sunflower, lambda n: (3 * n + 1, 5 * n)),
    "french_windmill": (("n", "m"), (3, 3), _gen_french_windmill,
                        lambda n, m: (m * (n - 1) + 1, m * n * (n - 1) // 2)),
}


def family_label(family: str, params: tuple[int, ...]) -> str:
    """``wheel(n=4)``: the family with each parameter named."""
    inner = ",".join(f"{k}={v}" for k, v in zip(_FAMILIES[family][0], params))
    return f"{family}({inner})"


def generate_family(family: str, *params: int) -> Graph:
    """Build the family member, enforcing each family's parameter range."""
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InvalidFamilyParams(f"unknown family {family!r} (known: {known})")
    names, minimums, build, size = _FAMILIES[family]
    if len(params) != len(names):
        raise InvalidFamilyParams(f"{family} takes parameters {names}, got {params}")
    for name, minimum, value in zip(names, minimums, params):
        if minimum is not None and value < minimum:
            label = family if len(names) == 1 else f"{family} {name}"
            raise InvalidFamilyParams(f"{label} requires parameter >= {minimum}, got {value}")
    for count, what, limit in zip(size(*params), ("vertices", "edges"),
                                  (MAX_VERTICES, MAX_EDGES)):
        if count > limit:
            raise InvalidFamilyParams(f"{family_label(family, params)} would have {count} "
                                      f"{what}, past the limit of {limit}")
    return build(*params)


# --- edge-list file format ---------------------------------------------------
#
# Optional comment lines start with '#'; the first non-comment line is
# ``n <vertex_count>``; every following line is ``u v`` (0-indexed).

# The largest vertex count a graph file may declare or a family graph may
# have.  A graph holds a few objects per vertex: 10^6 isolated vertices take
# about 100 MB.  Edges cost more, so a family graph's edge count has a cap too.
MAX_VERTICES = 10**6
MAX_EDGES = 10**6


def dumps(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines += [f"# {line}" for line in comment.splitlines()]
    lines.append("n %d" % g.n)
    lines += ["%d %d" % edge for edge in g.edges]
    return "\n".join(lines) + "\n"


# Characters per slice of the text that ``_lines`` splits at a time.
LINE_CHUNK = 1 << 13


def _lines(text: str):
    """``text.splitlines()``, one slice of about ``LINE_CHUNK`` characters at a time.

    Each slice ends just after a newline, which ends a line whether alone or
    in CRLF, so the slices split into the same lines as the whole text; only
    one slice's lines are held at once.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + LINE_CHUNK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(token: str) -> int:
    """``int(token)`` for an ASCII ``[+-]?[0-9]+`` token; ValueError for any other.

    ``int()`` also takes ``_`` between digits and any Unicode decimal digit.
    On ASCII text without ``_`` it takes exactly these tokens, so ``loads``
    calls ``int`` itself there.
    """
    if _DECIMAL.fullmatch(token) is None:
        raise ValueError(token)
    return int(token)


def loads(text: str) -> Graph:
    number = int if text.isascii() and "_" not in text else _decimal
    lines = enumerate(_lines(text), start=1)
    for lineno, raw in lines:
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2 or fields[0] != "n":
            raise GraphFileError(f"line {lineno}: expected 'n <count>', got {raw!r}")
        try:
            n = number(fields[1])
        except ValueError:
            raise GraphFileError(f"line {lineno}: vertex count {fields[1]!r} is not an integer")
        if n > MAX_VERTICES:
            raise GraphFileError(
                f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
        if n < 0:
            raise GraphFileError(f"line {lineno}: vertex count {n} is negative")
        read = [lineno]  # the number of the last line read
        try:
            return Graph(n, _edge_lines(lines, read, number))
        except (SelfLoop, VertexOutOfRange) as exc:  # refused as its line was read
            raise GraphFileError(f"line {read[0]}: {exc}") from None
    raise GraphFileError("missing 'n <count>' header line")


def _edge_lines(lines, read: list, number):
    """Each edge line's pair of ints, read by ``number``, with ``read[0]`` set to its line number.

    The constructor checks each pair for a self-loop and its range, and keeps
    the first int of each vertex.  A memo from token to int read the
    sparse-large benchmark file 3% slower and lowered no peak RSS.
    """
    for read[0], raw in lines:
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise GraphFileError(f"line {read[0]}: expected 'u v', got {raw!r}")
        a, b = fields
        try:
            u, v = number(a), number(b)
        except ValueError:
            raise GraphFileError(f"line {read[0]}: endpoints {raw!r} are not integers")
        yield u, v


def read_graph(path) -> Graph:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFileError(f"{path}: byte offset {exc.start}: not UTF-8 text") from None
    del data  # not held while the text is read
    return loads(text)


def write_graph(g: Graph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(g, comment))
