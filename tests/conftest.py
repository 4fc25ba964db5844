"""Shared graph fixtures and helpers."""

import random

import pytest

from topoidx.graph import Graph, bfs_distances, generate_family


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return all(d is not None for d in bfs_distances(g, 0))


def random_connected_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    """Rejection-sample a connected G(n, p); deterministic for a seeded rng."""
    if n == 1:
        return Graph(1, [])
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g


def random_graph(seed: int, n: int, m: int) -> Graph:
    """G(n, m): distinct uniformly random vertex pairs until there are ``m`` edges."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def preferential_attachment(n: int, k: int, seed: int = 5) -> Graph:
    """PA(n, k): each vertex v >= k joins k distinct earlier vertices.

    Each is drawn from the list of all edge endpoints so far, or from
    0..v-1 while that list is empty, so the degrees are heavy-tailed.
    """
    rng = random.Random(seed)
    edges, ends = [], []
    for v in range(k, n):
        targets = set()
        while len(targets) < k:
            targets.add(rng.choice(ends) if ends else rng.randrange(v))
        for u in sorted(targets):
            edges.append((u, v))
            ends += (u, v)
    return Graph(n, edges)


def random_graph_with_isolated(rng: random.Random) -> Graph:
    """G(n, p) on the first vertices, then zero to three isolated vertices."""
    n = rng.randint(1, 12)
    p = rng.choice((0.15, 0.4, 0.8))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n + rng.randint(0, 3), edges)


def family_grid(max_n: int) -> list[tuple[str, Graph]]:
    """One labelled graph per family parameter point up to size max_n."""
    out = []
    for n in range(3, max_n + 1):
        out.append((f"cycle({n})", generate_family("cycle", n)))
        out.append((f"wheel({n})", generate_family("wheel", n)))
        out.append((f"sunflower({n})", generate_family("sunflower", n)))
    for n in range(2, max_n + 1):
        out.append((f"path({n})", generate_family("path", n)))
        out.append((f"complete({n})", generate_family("complete", n)))
    for n in range(1, max_n):
        out.append((f"star({n})", generate_family("star", n)))
    for p in range(1, 4):
        for q in range(p, 4):
            out.append((f"double_star({p},{q})", generate_family("double_star", p, q)))
    for m in range(1, 5):
        for n in range(m, 5):
            out.append((f"complete_bipartite({m},{n})",
                        generate_family("complete_bipartite", m, n)))
    for n in range(3, max_n + 1):
        for r in (2, 3, 4):
            if r < n and (n * r) % 2 == 0:
                out.append((f"regular({n},{r})", generate_family("regular", n, r)))
    out.append(("french_windmill(3,3)", generate_family("french_windmill", 3, 3)))
    out.append(("french_windmill(4,3)", generate_family("french_windmill", 4, 3)))
    return out


@pytest.fixture(scope="session")
def small_families() -> list[tuple[str, Graph]]:
    return family_grid(8)


def messy_copy(g: Graph, seed: int) -> str:
    """A graph file of ``g`` as people write them, which must read as ``g``.

    CRLF line ends, comment and blank lines, and the edges shuffled, about
    half of them reversed and a quarter of them repeated.
    """
    rng = random.Random(seed)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    pairs += [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rng.sample(pairs, len(pairs) // 4)]
    rng.shuffle(pairs)
    extras = ["", "   ", "# a comment", "  # an indented comment"]
    lines = ["# a messy copy", "", f"n {g.n}", "# edges"]
    for i, (u, v) in enumerate(pairs, start=1):
        lines.append(f"{u} {v}")
        if i % 20 == 0:
            lines.append(extras[i // 20 % len(extras)])
    return "\r\n".join(lines) + "\r\n"
