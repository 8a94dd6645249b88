"""Spans around distpoly's public functions, recorded from outside the package.

`install` wraps every public function of each distpoly module and rebinds
each name that points at one, including the names other modules imported
(`hosoya.distance_distribution`, `closed_forms.jahangir`, `cli.read_edge_list`,
...), so nested calls become child spans. Nothing under `src/` changes.

A span is a list `[layer, name, start_ns, end_ns, parent, error, work]`;
`parent` is an index into the same list (-1 for a root) and `work` holds the
counts taken from the call's arguments and result. Spans stay in memory until
the run ends. All times are `time.monotonic_ns()`, which on Linux is one
system-wide clock, so spans written by a child process nest under the
parent's spans.
"""

import sys
import time
from types import FunctionType

LAYERS = ("cli", "closed_forms", "distances", "family_fit", "generators", "graph", "hosoya")
#: Pseudo-layer for a CLI child's interpreter start and `import distpoly`.
STARTUP = "startup"
#: Layer of the root span the benchmark opens around each op.
OP_LAYER = "op"


def _distances_work(args, result):
    g = args[0]
    sources = g.vertex_count if g.vertex_count >= 2 else 0
    return {"sources": sources, "visits": sources * 2 * g.edge_count}


def _orbit_work(args, result):
    g, orbits = args[0], args[1]
    sources = len(orbits.orbits) if g.vertex_count >= 2 else 0
    return {"sources": sources, "visits": sources * 2 * g.edge_count}


#: Work counts per wrapped function. `visits` is computed as sources x 2E,
#: the adjacency entries a full BFS from each source scans.
WORK = {
    ("distances", "distance_distribution"): _distances_work,
    ("distances", "orbit_distance_distribution"): _orbit_work,
    ("distances", "bfs_distances"): lambda a, r: {"sources": 1, "visits": 2 * a[0].edge_count},
    ("graph", "parse_edge_list"): lambda a, r: {"edges": r.edge_count},
    ("closed_forms", "verify_against_oracle"): lambda a, r: {"m_checked": len(r.results)},
    ("family_fit", "verify_formula"): lambda a, r: {"comparisons": r.comparisons},
}


class Tracer:
    """In-memory span list with a stack of open spans (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, layer: str, name: str, start: int | None = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, time.monotonic_ns() if start is None else start, 0, parent, False, None])
        self.stack.append(index)
        return index

    def close(self, index: int, error: bool = False, end: int | None = None) -> None:
        span = self.spans[index]
        span[3] = time.monotonic_ns() if end is None else end
        span[5] = error
        self.stack.pop()

    def graft(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded in another process; their roots hang under `parent`."""
        offset = len(self.spans)
        for span in child_spans:
            span = list(span)
            span[4] = parent if span[4] < 0 else span[4] + offset
            self.spans.append(span)


def _wrap(tracer: Tracer, layer: str, fn: FunctionType):
    spans, stack, clock = tracer.spans, tracer.stack, time.monotonic_ns
    name = fn.__name__
    work = WORK.get((layer, name))

    def traced(*args, **kwargs):
        index = len(spans)
        span = [layer, name, 0, 0, stack[-1] if stack else -1, False, None]
        spans.append(span)
        stack.append(index)
        span[2] = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[3] = clock()
            span[5] = True
            stack.pop()
            raise
        span[3] = clock()
        stack.pop()
        if work is not None:
            span[6] = work(args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Wrap the public functions of every loaded distpoly module; returns an undo callable."""
    modules = [mod for name, mod in sorted(sys.modules.items()) if name == "distpoly" or name.startswith("distpoly.")]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for name, value in vars(mod).items():
            if isinstance(value, FunctionType) and not name.startswith("_") and value.__module__ == mod.__name__:
                wrappers[value] = _wrap(tracer, layer, value)
    rebound = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if isinstance(value, FunctionType) and value in wrappers:
                rebound.append((mod, name, value))
                setattr(mod, name, wrappers[value])

    def uninstall():
        for mod, name, value in rebound:
            setattr(mod, name, value)

    return uninstall


def summarize(spans: list[list]) -> dict:
    """Per-layer totals (ns and counts) over all root (op) spans.

    Self time is a span's duration minus its children's durations; children
    never overlap because every layer is single-threaded. Layer self times,
    the startup pseudo-layer and the roots' own self time (unattributed)
    partition the roots' wall time in integer nanoseconds;
    `attribution_exact` also requires that no span outlasts its parent.
    """
    count = len(spans)
    covered = [0] * count
    for span in spans:
        if span[4] >= 0:
            covered[span[4]] += span[3] - span[2]
    root = [0] * count
    layers_above: list[frozenset] = [frozenset()] * count
    totals = {"ops": 0, "op_wall": 0, "unattributed": 0}
    layer_keys = LAYERS + (STARTUP,)
    for layer in layer_keys:
        totals.update({f"{layer}.busy": 0, f"{layer}.self": 0, f"{layer}.calls": 0, f"{layer}.errors": 0})
    by_name: dict[str, int] = {}
    work: dict[str, int] = {}
    per_op_sources: dict[int, list[int]] = {}
    nested = True
    for i, (layer, name, start, end, parent, error, counts) in enumerate(spans):
        duration = end - start
        own = duration - covered[i]
        nested = nested and own >= 0
        if parent < 0:
            root[i] = i
            totals["ops"] += 1
            totals["op_wall"] += duration
            totals["unattributed"] += own
            layers_above[i] = frozenset((layer,))
            continue
        root[i] = root[parent]
        above = layers_above[parent]
        layers_above[i] = above | {layer}
        if layer not in above:
            totals[f"{layer}.busy"] += duration
        totals[f"{layer}.self"] += own
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.errors"] += bool(error)
        key = f"{layer}.{name}"
        by_name[key] = by_name.get(key, 0) + duration
        by_name[key + ".self"] = by_name.get(key + ".self", 0) + own
        if counts:
            for field, value in counts.items():
                work[f"{layer}.{field}"] = work.get(f"{layer}.{field}", 0) + value
            if "sources" in counts:
                slot = 1 if name == "orbit_distance_distribution" else 0
                per_op_sources.setdefault(root[i], [0, 0])[slot] += counts["sources"]
    # Orbit representatives per naive source, over ops that ran both engines.
    both = [pair for pair in per_op_sources.values() if pair[0] and pair[1]]
    totals["orbit_ops.naive_sources"] = sum(pair[0] for pair in both)
    totals["orbit_ops.orbit_sources"] = sum(pair[1] for pair in both)
    totals["by_name"] = by_name
    totals["work"] = work
    attributed = sum(totals[f"{layer}.self"] for layer in layer_keys) + totals["unattributed"]
    totals["attribution_exact"] = nested and attributed == totals["op_wall"]
    return totals
