"""Per-edge reference implementations that the engine is checked against.

Nothing in the package imports this module.  ``domination_degrees_bruteforce``
is the independent domination oracle of acceptance criterion 5.
``kernel`` is the per-edge kernel as an if-chain (variant 3 larger endpoint
first), the reference for the engine's symmetric kernel table.
``parse_poly`` inverts ``ExpPoly.render``.
``int_text_limit`` sets the interpreter's int-to-text digit limit for a
block, and ``str_text`` renders an index value with plain ``str()``, the
reference for ``topoidx.exact.render_int`` under a lifted limit.
``edge_endpoint_values`` yields each edge with its endpoint values, the
per-edge view that the reference folds and the tests read.
``first_zero_edge`` is the first edge in edge order whose kernel is 0, by a
per-edge scan, the reference for the edge that ``InverseUndefined`` names.
``edge_scan_census`` counts the edge partition of a degree-determined source
edge by edge, from the definitions in ``topoidx.functionals``' docstring.
``kv_products_per_neighbour``, ``neighbor_degree_sums_per_neighbour`` and
``cl_degrees_per_neighbour`` build the kv, nbd and CL vertex tables with one
Python step per neighbour, the references for the tables of
``topoidx.functionals``.
``closeness_per_vertex`` is closeness from one BFS per vertex, the
reference for the multi-source BFS of ``topoidx.functionals.closeness``.
``graph_structures`` is the ``Graph`` constructor that canonicalised edges
through a set with ``min``/``max`` and sorted every adjacency list, the
reference for the one-pass constructor.
``evaluate_descriptor`` (with ``_transformed_kernels``) and
``evaluate_standalone`` (with ``sqrt_sum_per_edge``) are the per-edge folds
that preceded the edge-census fold, kept verbatim so the census fold can be
tested against them.  ``product_fold`` is the left-to-right census product
that preceded the product tree, kept verbatim for the same reason.
"""

import contextlib
import math
import re
import sys
from fractions import Fraction
from itertools import combinations, repeat
from typing import Iterable, Optional, Union

from topoidx.errors import (
    DisconnectedGraph,
    InvalidFamilyParams,
    InverseUndefined,
    SelfLoop,
    UnsupportedEvaluation,
    VertexOutOfRange,
)
from topoidx.exact import ExpPoly, Rat, RatLike, exact_sqrt, general_pow
from topoidx.functionals import _banhatti_pair, vertex_table
from topoidx.graph import Graph, bfs_distances
from topoidx.indices import _STANDALONE, Descriptor


def domination_degrees_bruteforce(g: Graph) -> tuple[int, ...]:
    """Independent oracle: set-based, checks every proper subset literally.

    Deliberately shares no code or data structures with domination_degrees;
    only suitable for small graphs (all subsets of all subsets).
    """
    vertices = list(range(g.n))
    neighborhoods = {u: set(g.adj[u]) | {u} for u in vertices}

    def dominates(subset) -> bool:
        covered = set()
        for u in subset:
            covered |= neighborhoods[u]
        return len(covered) == g.n

    def is_minimal(subset) -> bool:
        members = list(subset)
        for k in range(len(members)):
            for smaller in combinations(members, k):
                if dominates(smaller):
                    return False
        return True

    best = {}
    for size in range(1, g.n + 1):
        for subset in combinations(vertices, size):
            if not dominates(subset):
                continue
            if not is_minimal(subset):
                continue
            for u in subset:
                best.setdefault(u, size)
        if len(best) == g.n:
            break
    return tuple(best[u] for u in vertices)


def edge_endpoint_values(g: Graph, source: str):
    """Yield (u, v, value_at_u, value_at_v) for every edge, per source."""
    if source == "banhatti":
        for u, v in g.edges:
            yield (u, v, *_banhatti_pair(g.n, g.degrees[u], g.degrees[v]))
    else:
        table = vertex_table(g, source)
        for u, v in g.edges:
            yield u, v, table[u], table[v]


def first_zero_edge(g: Graph, source: str, variant: int) -> Optional[tuple[int, int]]:
    """The first edge whose kernel is 0, scanning every edge in edge order; None if none is."""
    return next(((u, v) for u, v, val_u, val_v in edge_endpoint_values(g, source)
                 if kernel(variant, val_u, val_v) == 0), None)


_TERM_RE = re.compile(r"^(-?\d+)\*x\^(-?\d+)(?:/(\d+))?$")


def parse_poly(text: str) -> ExpPoly:
    """Inverse of render: parse_poly(p.render()) == p for canonical output."""
    text = text.strip()
    if text == "0":
        return ExpPoly()
    terms = []
    for part in text.split(" + "):
        match = _TERM_RE.match(part.strip())
        if match is None:
            raise UnsupportedEvaluation(f"unparseable polynomial term {part!r}")
        coeff, num, den = match.groups()
        terms.append((Fraction(int(num), int(den) if den else 1), int(coeff)))
    return ExpPoly(terms)


@contextlib.contextmanager
def int_text_limit(digits: int):
    """Set the int-to-text digit limit (0 lifts it) inside the block only.

    Python 3.10 has no limit, so there the block runs unchanged.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def str_text(value) -> str:
    """An index value as ``compute`` prints it, written with plain ``str()``."""
    if isinstance(value, ExpPoly):
        terms = [f"{c}*x^{e.numerator}" + ("" if e.denominator == 1 else f"/{e.denominator}")
                 for e, c in value.terms()]
        return " + ".join(terms) or "0"
    if isinstance(value, float):
        return f"~{value!r}"
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def kernel(variant: int, a, b):
    """The per-edge binary form for one kernel variant."""
    if variant == 1:
        return a * a + b * b + a * b
    if variant == 2:
        return a * a + b * b - a * b
    if variant == 3:
        hi, lo = (a, b) if a >= b else (b, a)
        return hi - lo + hi * lo
    if variant == 4:
        return abs(a - b) * a * b
    raise ValueError(f"bad variant {variant!r}")


def _transformed_kernels(g: Graph, d: Descriptor, a_param: Optional[Rat]):
    if d.transform == "general":
        if a_param is None:
            raise UnsupportedEvaluation(
                f"{d.name} needs its power parameter, e.g. {d.name}(a=3)"
            )
        a_param = Fraction(a_param)
    out = []
    for u, v, val_u, val_v in edge_endpoint_values(g, d.source):
        k = kernel(d.variant, val_u, val_v)
        if d.transform == "identity":
            t = k
        elif d.transform == "hyper":
            t = k * k
        elif d.transform == "inverse":
            if k == 0:
                raise InverseUndefined((u, v))
            t = Fraction(1) / Fraction(k)
        else:
            if k == 0 and a_param < 0:
                raise InverseUndefined((u, v))
            t = general_pow(Fraction(k), a_param)
        out.append(t)
    return out


def evaluate_descriptor(g: Graph, d: Descriptor, a: Optional[Rat] = None):
    """Fold the transformed kernel over all edges of ``g``.

    Returns an exact Fraction (value form), an ExpPoly (exponential form),
    or a float when a non-integer general power forces one.
    """
    terms = _transformed_kernels(g, d, a)
    if d.form == "value":
        if d.aggregation == "sum":
            total = Fraction(0)
            for t in terms:
                total = total + t
            return total
        total = Fraction(1)
        for t in terms:
            total = total * t
        return total
    # Exponential form: exponents must stay rational.
    if any(isinstance(t, float) for t in terms):
        raise UnsupportedEvaluation(
            "exponential form needs rational exponents; "
            "non-integer general powers are value-form only"
        )
    if d.aggregation == "sum":
        return ExpPoly((t, 1) for t in terms)
    return ExpPoly.monomial(sum(terms, Fraction(0)), 1)


def product_fold(terms: Iterable[tuple]) -> Union[Rat, float]:
    """The product of t^c over (term t, count c) pairs, left to right."""
    # A float power raises OverflowError where repeated products reach inf.
    powers = (math.prod(repeat(t, c)) if isinstance(t, float) else t**c for t, c in terms)
    return math.prod(powers, start=Fraction(1))


def sqrt_sum_per_edge(radicands: Iterable[RatLike]) -> Union[Rat, float]:
    """Sum of square roots: exact when every radicand is a perfect square.

    Square-root indices report exactly when possible (e.g. regular graphs,
    where every radicand collapses); otherwise the sum falls back to floats.
    """
    exact_total = Fraction(0)
    items = [Fraction(r) for r in radicands]
    for r in items:
        root = exact_sqrt(r)
        if root is None:
            return math.fsum(math.sqrt(r) for r in items)
        exact_total += root
    return exact_total


def evaluate_standalone(g: Graph, name: str):
    source, rational, radicand, _ = _STANDALONE[name]
    linear = Fraction(0)
    if rational is not None:
        linear = Fraction(sum(rational(a, b) for _, _, a, b in edge_endpoint_values(g, source)))
    if radicand is None:
        return linear
    roots = sqrt_sum_per_edge(radicand(a, b) for _, _, a, b in edge_endpoint_values(g, source))
    if isinstance(roots, float):
        return float(linear) + roots
    return linear + roots


def _degree_determined_values(g: Graph, source: str, u: int, v: int) -> tuple:
    d = g.degrees
    if source == "plain":
        return d[u], d[v]
    if source == "revan":
        top = max(d) + min(d)
        return top - d[u], top - d[v]
    if source == "temperature":
        return Fraction(d[u], g.n - d[u]), Fraction(d[v], g.n - d[v])
    if source == "banhatti":
        d_e = d[u] + d[v] - 2
        return Fraction(d_e, g.n - d[u]), Fraction(d_e, g.n - d[v])
    raise ValueError(f"{source!r} is not degree-determined")


def edge_scan_census(g: Graph, source: str) -> dict[tuple, int]:
    """Edge count per sorted pair of endpoint values, in the order of first edge."""
    census: dict[tuple, int] = {}
    for u, v in g.edges:
        a, b = _degree_determined_values(g, source, u, v)
        key = (a, b) if a <= b else (b, a)
        census[key] = census.get(key, 0) + 1
    return census


def kv_products_per_neighbour(g: Graph) -> tuple[int, ...]:
    out = []
    for nbrs in g.adj:
        prod = 1
        for w in nbrs:
            prod *= g.degrees[w]
        out.append(prod)
    return tuple(out)


def neighbor_degree_sums_per_neighbour(g: Graph) -> tuple[int, ...]:
    return tuple(sum(g.degrees[w] for w in nbrs) for nbrs in g.adj)


def cl_degrees_per_neighbour(g: Graph) -> tuple[int, ...]:
    """Maximum absolute degree deviation from a neighbor; 0 for isolated vertices."""
    return tuple(
        max((abs(g.degrees[u] - g.degrees[w]) for w in g.adj[u]), default=0)
        for u in range(g.n)
    )


def closeness_per_vertex(g: Graph) -> tuple[Fraction, ...]:
    """Normalized closeness (n-1)/sum-of-distances; requires connectivity."""
    if g.n == 1:
        return (Fraction(1),)
    out = []
    for u in range(g.n):
        dist = bfs_distances(g, u)
        if any(d is None for d in dist):
            raise DisconnectedGraph("closeness centrality needs a connected graph")
        out.append(Fraction(g.n - 1, sum(dist)))
    return tuple(out)


def graph_structures(n: int, edges: Iterable[tuple[int, int]]) -> tuple:
    """(n, edges, adj, degrees) of ``Graph(n, edges)``, or its exception for the first bad edge."""
    if n < 0:
        raise InvalidFamilyParams(f"vertex count must be nonnegative, got {n}")
    seen = set()
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        seen.add((min(u, v), max(u, v)))
    canonical = tuple(sorted(seen))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in canonical:
        adj[u].append(v)
        adj[v].append(u)
    return (n, canonical, tuple(tuple(sorted(nbrs)) for nbrs in adj),
            tuple(len(nbrs) for nbrs in adj))
