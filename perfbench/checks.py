"""Independent output checks for the benchmark.

Nothing here calls into distpoly: the J(5, m) table, the path and cycle
closed forms, the tree Wiener sum and the reference BFS are the benchmark's
own, so a wrong answer from the program cannot also be the expected answer.
Every check returns False on the first problem it finds; the caller counts
that op as failed.
"""

import json
from collections import deque
from fractions import Fraction


def pairs(v: int) -> int:
    """C(v, 2): unordered vertex pairs of a v-vertex graph."""
    return v * (v - 1) // 2


def j5_counts(m: int) -> tuple[int, ...]:
    """Distance counts of J(5, m) for k = 0..6 (the corrected distance-4 row)."""
    return (0, 6 * m, m * (m + 13) // 2, 2 * m * m + 5 * m,
            4 * m * m - 4 * m, 4 * m * m - 6 * m, 2 * m * m - 5 * m)


#: Ascending coefficients in m of each J(5, m) count, k = 1..6, trailing zeros trimmed.
J5_POLYS = (
    (0, 6),
    (0, Fraction(13, 2), Fraction(1, 2)),
    (0, 5, 2),
    (0, -4, 4),
    (0, -6, 4),
    (0, -5, 2),
)
J5_WIENER_POLY = (0, -42, 55)


def j5_wiener(m: int) -> int:
    return 55 * m * m - 42 * m


def path_counts(v: int) -> tuple[int, ...]:
    return (0,) + tuple(v - d for d in range(1, v))


def cycle_counts(v: int) -> tuple[int, ...]:
    counts = [0] + [v] * ((v - 1) // 2)
    if v % 2 == 0:
        counts.append(v // 2)
    return tuple(counts)


def tree_wiener(v: int, edges) -> int:
    """Wiener index of a tree: sum over edges of s * (v - s), s a side's size."""
    adjacency = [[] for _ in range(v)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent = [-1] * v
    order = [0]
    parent[0] = 0
    for u in order:
        for w in adjacency[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    size = [1] * v
    total = 0
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
        total += size[u] * (v - size[u])
    return total


def reference_counts(v: int, edges) -> tuple[int, ...]:
    """All-pairs distance counts by a plain queue BFS from every vertex."""
    adjacency = [[] for _ in range(v)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    ordered = [0] * max(v, 1)
    for s in range(v):
        dist = [-1] * v
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    ordered[dist[w]] += 1
                    queue.append(w)
        if min(dist) < 0:
            return ()
    top = max((k for k, c in enumerate(ordered) if c), default=0)
    return tuple(c // 2 for c in ordered[: top + 1])


def wiener_of(counts) -> int:
    return sum(k * c for k, c in enumerate(counts))


def distribution_ok(counts, v: int, e: int) -> bool:
    """Sum of counts is C(v, 2), counts[1] is the edge count, no negative entry."""
    counts = tuple(counts)
    return (
        len(counts) >= 2
        and counts[0] == 0
        and min(counts) >= 0
        and sum(counts) == pairs(v)
        and counts[1] == e
    )


# -- in-process ops ---------------------------------------------------------


def check_verify(m: int, report) -> bool:
    """verify_against_oracle(m, m) against the benchmark's own J(5, m) table."""
    if not report.passed or len(report.results) != 1:
        return False
    result = report.results[0]
    want = j5_counts(m)
    return (
        result.m == m
        and tuple(result.oracle) == want
        and tuple(result.closed_form) == want
        and result.wiener_oracle == result.wiener_closed == j5_wiener(m)
        and distribution_ok(result.oracle, 5 * m + 1, 6 * m)
    )


def check_fit(n: int, samples: tuple[int, ...], holdout: tuple[int, ...], table, formula, report) -> bool:
    """Fitted J(n, m) formula: every sample row and every holdout prediction
    conserves pairs and edges; for n = 5 the coefficients match J5_POLYS."""
    if not report.passed or report.comparisons < len(holdout):
        return False
    for m in samples:
        if not distribution_ok(table.row(m), n * m + 1, m * (n + 1)):
            return False
    for m in holdout:
        predicted = [0] + [formula.predict(m, k) for k in range(1, formula.max_k + 1)]
        if not distribution_ok(predicted, n * m + 1, m * (n + 1)):
            return False
    if n == 5:
        return tuple(formula.per_k_polys) == J5_POLYS and tuple(formula.wiener_polynomial()) == J5_WIENER_POLY
    return True


def check_jahangir(n: int, m: int, g, naive, orbit) -> bool:
    """Naive and orbit results agree, conserve pairs and edges, and J(5, m) matches the table."""
    if tuple(naive.counts) != tuple(orbit.counts):
        return False
    if (g.vertex_count, g.edge_count) != (n * m + 1, m * (n + 1)):
        return False
    if not distribution_ok(naive.counts, n * m + 1, m * (n + 1)):
        return False
    return n != 5 or tuple(naive.counts) == j5_counts(m)


def check_random(k: int, g, dd) -> bool:
    """A random graph's distribution equals the reference BFS on the same edges."""
    if g.vertex_count != k or not distribution_ok(dd.counts, k, g.edge_count):
        return False
    return tuple(dd.counts) == reference_counts(k, list(g.edges()))


# -- CLI ops ------------------------------------------------------------------


def expected_counts(shape: str, v: int) -> tuple[int, ...] | None:
    """Full distribution for paths and cycles; None for trees (checked by invariants)."""
    if shape == "path":
        return path_counts(v)
    if shape == "cycle":
        return cycle_counts(v)
    return None


def expected_wiener(shape: str, v: int, edges) -> int:
    if shape == "path":
        return (v ** 3 - v) // 6
    if shape == "cycle":
        return v ** 3 // 8 if v % 2 == 0 else v * (v * v - 1) // 8
    return tree_wiener(v, edges)


def parse_cli_output(command: str, fmt: str, stdout: str):
    """Parse `distances`, `hosoya` or `wiener` output into counts (k = 0..) or a Wiener int."""
    if fmt == "json":
        data = json.loads(stdout)
        if command == "distances":
            if len(data["counts"]) != data["diameter"]:
                raise ValueError("diameter disagrees with the counts list")
            return (0, *data["counts"]), data["vertex_count"], data["edge_count"]
        if command == "hosoya":
            return tuple(data), None, None
        return int(data["wiener"]), None, None
    if command == "distances":
        lines = stdout.splitlines()
        header = dict(line.split(": ", 1) for line in lines[:3])
        counts = [0]
        for k, line in enumerate(lines[3:], start=1):
            label, value = line.split(" = ")
            if label != f"d({k})":
                raise ValueError(f"unexpected line {line!r}")
            counts.append(int(value))
        if len(counts) - 1 != int(header["diameter"]):
            raise ValueError("diameter disagrees with the d(k) lines")
        return tuple(counts), int(header["vertex_count"]), int(header["edge_count"])
    if command == "hosoya":
        counts = {}
        for term in stdout.strip().split(" + "):
            coefficient, _, power = term.partition("x")
            exponent = 1 if power == "" else int(power.lstrip("^"))
            counts[exponent] = int(coefficient)
        return tuple(counts.get(k, 0) for k in range(max(counts) + 1)), None, None
    return int(stdout.strip()), None, None


def check_cli(command: str, fmt: str, shape: str, v: int, edges, returncode: int, stdout: str) -> bool:
    """A CLI run succeeded and printed the right distribution, polynomial or Wiener index."""
    if returncode != 0:
        return False
    try:
        value, out_v, out_e = parse_cli_output(command, fmt, stdout)
    except (ValueError, KeyError, TypeError):
        return False
    e = len(edges)
    if command == "wiener":
        return value == expected_wiener(shape, v, edges)
    if out_v is not None and (out_v, out_e) != (v, e):
        return False
    if not distribution_ok(value, v, e) or wiener_of(value) != expected_wiener(shape, v, edges):
        return False
    want = expected_counts(shape, v)
    return want is None or tuple(value) == want
