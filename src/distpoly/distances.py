"""Exact shortest-path distance computation on unweighted graphs.

The all-pairs distance distribution is the workhorse of the package. One
engine, `_ordered_counts`, counts ordered pairs at each distance from a list
of weighted BFS sources, and the result is halved at the end. The naive
distribution uses every vertex at weight 1; the symmetry-accelerated variant
uses one representative per orbit, weighted by orbit size.

The engine first runs one BFS from the first source, which checks
connectivity and gives that source's eccentricity. When there are many
sources per level of that eccentricity (low-diameter graphs), the rest run
together as bit-parallel multi-source BFS (Then et al., VLDB 2014), in blocks
of at most 4096 sources; otherwise (long, thin graphs) they run one BFS each.
"""

from collections import deque
from dataclasses import dataclass

from .errors import DisconnectedError, MalformedOrbitsError, VertexOutOfRangeError
from .graph import Graph


@dataclass(frozen=True)
class DistanceDistribution:
    """Counts of unordered vertex pairs per distance, for a connected graph.

    `counts[k]` is the number of pairs {u, v} with d(u, v) = k; `counts[0]` is
    always 0 and the last entry is positive unless the graph has fewer than two
    vertices (then `counts == (0,)` and the diameter is 0).
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or self.counts[0] != 0:
            raise ValueError("counts must start with a zero slot at distance 0")
        if len(self.counts) > 1 and self.counts[-1] <= 0:
            raise ValueError("trailing distance count must be positive")

    @property
    def diameter(self) -> int:
        return len(self.counts) - 1

    @property
    def total_pairs(self) -> int:
        return sum(self.counts)

    def per_distance(self) -> tuple[int, ...]:
        """Counts for k = 1..diameter, without the zero slot."""
        return self.counts[1:]


@dataclass(frozen=True)
class Orbit:
    """One vertex orbit: representative, claimed size, and member ids."""

    representative: int
    size: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class OrbitSpec:
    """A partition of the vertex set into orbits of a claimed automorphism group.

    The claim itself is not checked here; `orbit_distance_distribution` only
    validates partition shape and relies on the caller (or the test suite) for
    the symmetry claim.
    """

    orbits: tuple[Orbit, ...]

    def total_size(self) -> int:
        return sum(orbit.size for orbit in self.orbits)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from `source` to every vertex, by breadth-first search.

    Raises DisconnectedError naming an unreached vertex if one exists.
    """
    n = g.vertex_count
    if not 0 <= source < n:
        raise VertexOutOfRangeError(source, n)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    adjacency = g.adjacency
    reached = 1
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                reached += 1
                queue.append(w)
    if reached != n:
        raise DisconnectedError(dist.index(-1))
    return dist


def distance_distribution(g: Graph) -> DistanceDistribution:
    """Count unordered vertex pairs at each distance, by BFS from every vertex.

    Ordered pairs are counted and halved; an odd intermediate total would mean
    an internal bug and raises RuntimeError.
    """
    n = g.vertex_count
    if n < 2:
        return DistanceDistribution((0,))
    return _halve_ordered(_ordered_counts(g.adjacency, range(n), [1] * n))


def diameter(g: Graph) -> int:
    """Largest pairwise distance in `g` (0 for graphs with < 2 vertices)."""
    return distance_distribution(g).diameter


def orbit_distance_distribution(g: Graph, orbits: OrbitSpec) -> DistanceDistribution:
    """Distance distribution using one BFS source per orbit representative.

    Each representative's per-distance vertex counts are weighted by the orbit
    size; the weighted ordered total is then halved. The result equals
    `distance_distribution(g)` whenever the orbit partition really is induced
    by graph automorphisms. Partition shape is validated (MalformedOrbitsError)
    but the automorphism claim is not; a partition that breaks the claim badly
    enough to leave an odd weighted total is also rejected.
    """
    n = g.vertex_count
    _validate_partition(orbits, n)
    if n < 2:
        return DistanceDistribution((0,))
    sources = [orbit.representative for orbit in orbits.orbits]
    weights = [orbit.size for orbit in orbits.orbits]
    return _halve_ordered(_ordered_counts(g.adjacency, sources, weights), orbit_checked=True)


#: Multi-source BFS runs at most 2*ecc levels (ecc of the first source), and
#: one of its levels costs about as much as 1.2 to 3.2 single-source BFS runs,
#: so it is chosen only with at least this many sources per unit of `ecc`.
_MSBFS_SOURCES_PER_ECC = 5
#: Sources per multi-source sweep, so each bitset stays within 512 bytes and
#: memory within O(V * 512 B) however large the graph.
_MSBFS_BLOCK_BITS = 4096


def _ordered_counts(adjacency, sources, weights) -> list[int]:
    """Weighted ordered pair counts per distance: entry d is the sum over
    `sources` of weight times the number of vertices at distance d.

    A BFS from the first source checks connectivity (DisconnectedError names
    the smallest unreached vertex) and yields its eccentricity `ecc`. The other
    sources run together as bit-parallel multi-source BFS when there are many
    per level of `ecc`, else one BFS each.
    """
    ordered = _per_source(adjacency, sources[:1], weights[:1])
    ecc = max(d for d, count in enumerate(ordered) if count)
    rest, rest_weights = sources[1:], weights[1:]
    if len(rest) < _MSBFS_SOURCES_PER_ECC * ecc:
        parts = [_per_source(adjacency, rest, rest_weights)]
    else:
        parts = [
            _msbfs(adjacency, rest[i:i + _MSBFS_BLOCK_BITS], rest_weights[i:i + _MSBFS_BLOCK_BITS])
            for i in range(0, len(rest), _MSBFS_BLOCK_BITS)
        ]
    for part in parts:
        ordered = [a + b for a, b in zip(ordered, part)]
    return ordered


def _per_source(adjacency, sources, weights) -> list[int]:
    """`_ordered_counts` by one level-synchronous BFS per source."""
    n = len(adjacency)
    ordered = [0] * n
    visited = [-1] * n
    for source, weight in zip(sources, weights):
        visited[source] = source
        frontier = [source]
        depth = 0
        reached = 1
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if visited[w] != source:
                        visited[w] = source
                        nxt.append(w)
            if nxt:
                ordered[depth] += weight * len(nxt)
                reached += len(nxt)
            frontier = nxt
        if reached != n:
            raise DisconnectedError(next(v for v in range(n) if visited[v] != source))
    return ordered


def _msbfs(adjacency, sources, weights) -> list[int]:
    """`_ordered_counts` by multi-source BFS on a connected graph (Then et al.,
    VLDB 2014): bit i of a vertex's bitset stands for `sources[i]`, and all
    sources advance one level per sweep over the frontier.
    """
    n = len(adjacency)
    ordered = [0] * n
    masks: dict[int, int] = {}
    for i, weight in enumerate(weights):
        masks[weight] = masks.get(weight, 0) | 1 << i
    reach = [0] * n
    for i, source in enumerate(sources):
        reach[source] |= 1 << i
    full = (1 << len(sources)) - 1
    unseen = [full ^ bits for bits in reach]
    frontier = [(v, bits) for v, bits in enumerate(reach) if bits]
    depth = 0
    while True:
        reach = [0] * n
        for v, bits in frontier:
            for w in adjacency[v]:
                reach[w] |= bits
        new = [r & u for r, u in zip(reach, unseen)]
        frontier = [(v, bits) for v, bits in enumerate(new) if bits]
        if not frontier:
            return ordered
        depth += 1
        if len(masks) == 1:  # one weight: every bit counts alike, skip the masking
            ordered[depth] = weights[0] * sum(map(int.bit_count, new))
        else:
            ordered[depth] = sum(
                weight * sum(map(int.bit_count, map(mask.__and__, new)))
                for weight, mask in masks.items()
            )
        unseen = [u ^ b for u, b in zip(unseen, new)]


def _halve_ordered(ordered: list[int], orbit_checked: bool = False) -> DistanceDistribution:
    top = max((k for k, c in enumerate(ordered) if c > 0), default=0)
    counts = [0] * (top + 1)
    for k in range(1, top + 1):
        if ordered[k] % 2:
            if orbit_checked:
                raise MalformedOrbitsError(
                    f"odd weighted pair total at distance {k}; "
                    "orbit partition is not automorphism-induced"
                )
            raise RuntimeError(f"internal error: odd ordered pair count at distance {k}")
        counts[k] = ordered[k] // 2
    return DistanceDistribution(tuple(counts))


def _validate_partition(orbits: OrbitSpec, vertex_count: int) -> None:
    seen = [False] * vertex_count
    covered = 0
    for orbit in orbits.orbits:
        if orbit.size != len(orbit.members):
            raise MalformedOrbitsError(
                f"orbit with representative {orbit.representative} declares size "
                f"{orbit.size} but has {len(orbit.members)} members"
            )
        if orbit.representative not in orbit.members:
            raise MalformedOrbitsError(
                f"representative {orbit.representative} is not a member of its orbit"
            )
        for v in orbit.members:
            if not 0 <= v < vertex_count:
                raise MalformedOrbitsError(f"orbit member {v} is not a vertex id")
            if seen[v]:
                raise MalformedOrbitsError(f"vertex {v} appears in more than one orbit")
            seen[v] = True
            covered += 1
    if covered != vertex_count:
        missing = seen.index(False)
        raise MalformedOrbitsError(f"vertex {missing} is not covered by any orbit")
