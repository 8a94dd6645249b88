"""Immutable simple undirected graphs with contiguous 0-based vertex ids.

Construction validates simplicity (no self-loops, no multi-edges) and builds
sorted adjacency tuples, so every `Graph` instance satisfies the handshake
identity 2*edge_count == sum of degrees. Instances are immutable and safe to
share across threads.
"""

from typing import Iterable, Iterator

from .errors import (
    DuplicateEdgeError,
    EdgeListFormatError,
    InvalidParameterError,
    SelfLoopError,
    VertexOutOfRangeError,
)


class Graph:
    """Simple undirected graph over vertices 0..vertex_count-1.

    Built from an edge list; rejects self-loops, duplicate edges (in either
    orientation) and out-of-range endpoints. The zero-vertex graph is allowed.
    """

    __slots__ = ("_vertex_count", "_adjacency", "_edge_count")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise InvalidParameterError(f"vertex_count must be non-negative, got {vertex_count}")
        adjacency: list[list[int]] = [[] for _ in range(vertex_count)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            for endpoint in (u, v):
                if not 0 <= endpoint < vertex_count:
                    raise VertexOutOfRangeError(endpoint, vertex_count)
            if u == v:
                raise SelfLoopError(u)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(*key)
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._vertex_count = vertex_count
        self._adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        self._edge_count = len(seen)

    @property
    def vertex_count(self) -> int:
        return self._vertex_count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuples of neighbor ids, each sorted ascending."""
        return self._adjacency

    def degree(self, v: int) -> int:
        """Number of neighbors of `v`."""
        if not 0 <= v < self._vertex_count:
            raise VertexOutOfRangeError(v, self._vertex_count)
        return len(self._adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self._vertex_count:
            raise VertexOutOfRangeError(v, self._vertex_count)
        return self._adjacency[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self._adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def is_connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0.

        Graphs with fewer than two vertices are connected by convention.
        """
        n = self._vertex_count
        return n <= 1 or len(_reach(self._adjacency, 0, bytearray(n))) == n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._vertex_count == other._vertex_count
            and self._adjacency == other._adjacency
        )

    def __hash__(self) -> int:
        return hash((self._vertex_count, self._adjacency))

    def __repr__(self) -> str:
        return f"Graph(vertices={self._vertex_count}, edges={self._edge_count})"


def _reach(adjacency, start: int, seen: bytearray) -> list[int]:
    """Vertices reachable from `start` that are not yet marked in `seen`, in
    BFS order; marks each one. `start` itself must be unmarked."""
    seen[start] = 1
    reached = [start]
    for u in reached:  # the list grows while it is walked, in BFS order
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = 1
                reached.append(w)
    return reached


def format_edge_list(g: Graph) -> str:
    """Render `g` in the edge-list text format.

    First line is "p <vertex_count> <edge_count>", then one "e <u> <v>" line
    per edge with u < v, sorted lexicographically.
    """
    lines = [f"p {g.vertex_count} {g.edge_count}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Lines starting with "#" are comments; fields are whitespace-delimited.
    The first non-comment line must be "p <vertex_count> <edge_count>"; every
    following non-comment line must be "e <u> <v>". Files whose labels are not
    all within 0..vertex_count-1 are remapped by sorted label order, so e.g.
    1-based files ingest cleanly.
    """
    header: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "p" or len(parts) != 3:
                raise EdgeListFormatError(f"line {lineno}: expected 'p <vertices> <edges>'")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise EdgeListFormatError(f"line {lineno}: non-integer field in p line") from None
            if header[0] < 0 or header[1] < 0:
                raise EdgeListFormatError(f"line {lineno}: negative count in p line")
        else:
            if parts[0] != "e" or len(parts) != 3:
                raise EdgeListFormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                pairs.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise EdgeListFormatError(f"line {lineno}: non-integer endpoint") from None
    if header is None:
        raise EdgeListFormatError("missing 'p' header line")
    vertex_count, declared_edges = header
    if len(pairs) != declared_edges:
        raise EdgeListFormatError(
            f"header declares {declared_edges} edges but {len(pairs)} 'e' lines found"
        )
    if any(not 0 <= x < vertex_count for uv in pairs for x in uv):
        labels = sorted({x for uv in pairs for x in uv})
        if len(labels) > vertex_count:
            raise VertexOutOfRangeError(labels[-1], vertex_count)
        remap = {label: i for i, label in enumerate(labels)}
        pairs = [(remap[u], remap[v]) for u, v in pairs]
    return Graph(vertex_count, pairs)


def read_edge_list(path) -> Graph:
    """Read and parse an edge-list file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path) -> None:
    """Write `g` to a file in the edge-list text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
