"""Deterministic graph constructors: the Jahangir family and a test corpus."""

import math
import random
from fractions import Fraction

from .distances import Orbit, OrbitSpec
from .errors import InvalidParameterError
from .graph import Graph, _reach


def jahangir(n: int, m: int) -> Graph:
    """Jahangir graph J(n, m): a cycle on n*m vertices plus a center vertex
    adjacent to m cycle vertices spaced n apart.

    Layout: cycle vertex i sits at id i for 0 <= i < n*m, the center is id n*m,
    and the hubs (cycle vertices joined to the center) are the ids i*n. The
    result has n*m + 1 vertices and m*(n + 1) edges. n = 1 gives the wheel.
    """
    _check_jahangir_params(n, m)
    c = n * m
    edges = [(i, (i + 1) % c) for i in range(c)]
    edges.extend((i * n, c) for i in range(m))
    return Graph(c + 1, edges)


def cycle(k: int) -> Graph:
    """Cycle on k >= 3 vertices."""
    if k < 3:
        raise InvalidParameterError(f"cycle needs k >= 3, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path(k: int) -> Graph:
    """Path on k >= 1 vertices."""
    if k < 1:
        raise InvalidParameterError(f"path needs k >= 1, got {k}")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def star(k: int) -> Graph:
    """Star with k >= 1 leaves; the center is the last id, k."""
    if k < 1:
        raise InvalidParameterError(f"star needs k >= 1, got {k}")
    return Graph(k + 1, [(i, k) for i in range(k)])


def complete(k: int) -> Graph:
    """Complete graph on k >= 1 vertices."""
    if k < 1:
        raise InvalidParameterError(f"complete needs k >= 1, got {k}")
    return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def wheel(k: int) -> Graph:
    """Wheel: cycle on k >= 3 vertices plus a center (the last id) joined to all.

    Identical, vertex for vertex, to jahangir(1, k).
    """
    if k < 3:
        raise InvalidParameterError(f"wheel needs k >= 3, got {k}")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges.extend((i, k) for i in range(k))
    return Graph(k + 1, edges)


def random_connected(k: int, edge_probability, seed: int) -> Graph:
    """Seeded random connected simple graph on k >= 1 vertices.

    Procedure (fixed, so identical (k, p, seed) always yields an identical
    graph, here and in any reimplementation):

    1. Draw from `random.Random(seed)` (the Mersenne Twister).
    2. Visit vertex pairs (u, v), u < v, in lexicographic order; include the
       pair as an edge iff the next `random()` draw is < p, compared exactly
       against the rational p.
    3. If the sampled graph is disconnected, sort its components by smallest
       member and join each consecutive pair of components by one edge between
       their smallest vertices.
    """
    if k < 1:
        raise InvalidParameterError(f"random_connected needs k >= 1, got {k}")
    p = Fraction(edge_probability)
    if not 0 < p <= 1:
        raise InvalidParameterError(f"edge_probability must be in (0, 1], got {p}")
    threshold = _draw_threshold(p)
    rng = random.Random(seed)
    adjacency: list[list[int]] = [[] for _ in range(k)]
    edges = []
    for u in range(k):
        for v in range(u + 1, k):
            if rng.random() < threshold:
                edges.append((u, v))
                adjacency[u].append(v)
                adjacency[v].append(u)
    components = _components(adjacency)
    for a, b in zip(components, components[1:]):
        edges.append((a[0], b[0]))
    return Graph(k, edges)


def _draw_threshold(p: Fraction) -> float:
    """The float t with `x < t` iff `x < p` for every `random()` draw x.

    Each draw is j / 2**53 for an integer j, and j < p * 2**53 iff
    j < ceil(p * 2**53); both sides of the division below are exact floats.
    """
    return math.ceil(p * 2**53) / 2**53


def rotation_orbits(n: int, m: int) -> OrbitSpec:
    """Vertex orbits of J(n, m) under the rotation i -> (i + n) mod n*m.

    One orbit of size m per residue r in 0..n-1, with representative r, plus
    the singleton center orbit.
    """
    _check_jahangir_params(n, m)
    c = n * m
    orbits = [Orbit(r, m, tuple(range(r, c, n))) for r in range(n)]
    orbits.append(Orbit(c, 1, (c,)))
    return OrbitSpec(tuple(orbits))


def _check_jahangir_params(n: int, m: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"jahangir needs n >= 1, got n={n}")
    if m < 3:
        raise InvalidParameterError(f"jahangir needs m >= 3, got m={m}")


def _components(adjacency: list[list[int]]) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    seen = bytearray(len(adjacency))
    return [sorted(_reach(adjacency, start, seen)) for start in range(len(adjacency)) if not seen[start]]
