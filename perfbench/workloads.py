"""The three seeded workloads: how their ops are drawn, run and checked.

Ops come in blocks. Every block of a workload has the same stratified shape
(one op per size stratum, in a seeded order), so each block costs about the
same whatever the seed, while the exact parameters differ from seed to seed.
Block `i` depends only on (workload, seed, i), so the op list is an endless,
reproducible stream and a run can stop after any whole block.

Why these workloads:

* paper-sweep repeats what the paper's users do: J(5, m) closed forms checked
  against brute force (`verify_against_oracle(m, m)`, m in 3..120, drawn with
  replacement so values repeat) and the J(n, m) re-derivation (`fit` on
  m = 3, 4, 5 with holdouts 6..14, n in 1..8). Many small low-diameter graphs:
  per-call overhead, closed_forms and family_fit weigh in.
* wide-graphs builds large low-diameter graphs, every one different: J(5, m),
  J(n, m) and `random_connected`. Naive BFS dominates, generation is about
  two thirds of a random op. Multi-source BFS and the generator fix show here.
* long-files-cli runs `python -m distpoly` once per op on long, thin graphs
  (paths, cycles, caterpillars) read from edge-list files, some with shuffled
  1-based labels and comments. Interpreter start, import, the CLI, the parser
  and high-diameter BFS each take a real share; multi-source BFS is predicted
  to lose here.
"""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import distpoly
import spans

WORKLOADS = ("paper-sweep", "wide-graphs", "long-files-cli")

VERIFY_M = (3, 120)
VERIFY_STRATA = 12
FIT_N_STRATA = ((1, 2), (3, 4), (5, 6), (7, 8))
FIT_SAMPLES = (3, 4, 5)
FIT_HOLDOUT = tuple(range(6, 15))
WIDE_STRATA = 6
J5_M = (60, 200)
JNM_N = (8, 30)
JNM_M = (6, 30)
RANDOM_K = (150, 350)
RANDOM_P = (Fraction(1, 50), Fraction(1, 30), Fraction(1, 20))
FILE_V = (200, 700)
SHAPES = ("path", "cycle", "caterpillar")
COMMANDS = ("distances", "hosoya", "wiener")

CHILD_SCRIPT = Path(__file__).resolve().parent / "cli_child.py"
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Op:
    """One closed-loop request. `params` depends on `kind`:

    verify (m,) · fit (n,) · jahangir (n, m) · random (k, p, seed) ·
    cli (command, fmt, shape, v, edges, relabel_seed, file_name)
    """

    kind: str
    params: tuple
    pairs: int


def _draw(rng: random.Random, lo: int, hi: int, index: int, count: int) -> int:
    """Uniform draw from the index-th of `count` equal strata of lo..hi."""
    span = hi - lo + 1
    return rng.randint(lo + span * index // count, lo + span * (index + 1) // count - 1)


def block(workload: str, seed: int, index: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "paper-sweep":
        ops = _paper_sweep(rng)
    elif workload == "wide-graphs":
        ops = _wide_graphs(rng)
    elif workload == "long-files-cli":
        ops = _long_files(rng, index)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _paper_sweep(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(VERIFY_STRATA):
        m = _draw(rng, *VERIFY_M, i, VERIFY_STRATA)
        ops.append(Op("verify", (m,), checks.pairs(5 * m + 1)))
    for lo, hi in FIT_N_STRATA:
        n = rng.randint(lo, hi)
        pairs = sum(checks.pairs(n * m + 1) for m in FIT_SAMPLES + FIT_HOLDOUT)
        ops.append(Op("fit", (n,), pairs))
    return ops


def _wide_graphs(rng: random.Random) -> list[Op]:
    ops = []
    n_strata = rng.sample(range(WIDE_STRATA), WIDE_STRATA)
    k_strata = rng.sample(range(WIDE_STRATA), WIDE_STRATA)
    p_values = rng.sample(RANDOM_P * (WIDE_STRATA // len(RANDOM_P)), WIDE_STRATA)
    for i in range(WIDE_STRATA):
        m = _draw(rng, *J5_M, i, WIDE_STRATA)
        ops.append(Op("jahangir", (5, m), 2 * checks.pairs(5 * m + 1)))
        # n and m strata are paired in shuffled order, so vertex counts nm + 1
        # spread over the whole range in every block.
        n = _draw(rng, *JNM_N, n_strata[i], WIDE_STRATA)
        m = _draw(rng, *JNM_M, i, WIDE_STRATA)
        ops.append(Op("jahangir", (n, m), 2 * checks.pairs(n * m + 1)))
        k = _draw(rng, *RANDOM_K, k_strata[i], WIDE_STRATA)
        ops.append(Op("random", (k, p_values[i], rng.randrange(2 ** 32)), checks.pairs(k)))
    return ops


def _long_files(rng: random.Random, index: int) -> list[Op]:
    ops = []
    cells = [(shape, command) for shape in SHAPES for command in COMMANDS]
    v_strata = rng.sample(range(len(cells)), len(cells))
    for (shape, command), stratum in zip(cells, v_strata):
        v = _draw(rng, *FILE_V, stratum, len(cells))
        fmt = rng.choice(("text", "json"))
        relabel_seed = rng.randrange(2 ** 32) if rng.random() < 0.5 else None
        edges = _shape_edges(shape, v, rng)
        name = f"b{index:05d}-{shape}-{command}.txt"
        ops.append(Op("cli", (command, fmt, shape, v, edges, relabel_seed, name), checks.pairs(v)))
    return ops


def _shape_edges(shape: str, v: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    if shape == "path":
        return tuple((i, i + 1) for i in range(v - 1))
    if shape == "cycle":
        return tuple((i, (i + 1) % v) for i in range(v))
    spine = rng.randint(v // 2, 3 * v // 4)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges.extend((rng.randrange(spine), leaf) for leaf in range(spine, v))
    return tuple(edges)


def edge_list_text(op: Op) -> str:
    """The input file of a cli op. With a relabel seed, vertices get shuffled
    1-based labels, edges are shuffled and comments are interleaved, so the
    parser's remap path runs."""
    _, _, shape, v, edges, relabel_seed, _ = op.params
    if relabel_seed is None:
        lines = [f"p {v} {len(edges)}"]
        lines.extend(f"e {a} {b}" for a, b in edges)
        return "\n".join(lines) + "\n"
    rng = random.Random(relabel_seed)
    labels = list(range(1, v + 1))
    rng.shuffle(labels)
    order = list(edges)
    rng.shuffle(order)
    lines = [f"# {shape} on {v} vertices, 1-based shuffled labels", f"p {v} {len(edges)}"]
    for j, (a, b) in enumerate(order):
        if j % 97 == 0:
            lines.append(f"# edges {j}..")
        lines.append(f"e {labels[a]} {labels[b]}")
    return "\n".join(lines) + "\n"


def write_inputs(ops: list[Op], directory: Path) -> None:
    for op in ops:
        if op.kind == "cli":
            (directory / op.params[-1]).write_text(edge_list_text(op), encoding="utf-8")


def cli_args(op: Op, directory: Path) -> list[str]:
    command, fmt, *_, name = op.params
    args = [command, "--input", str(directory / name)]
    return args + ["--format", "json"] if fmt == "json" else args


# -- running and checking ------------------------------------------------------


def run_inprocess(op: Op):
    """Run an in-process op through the `distpoly` namespace, so installed spans see it."""
    dp = distpoly  # attribute lookups, not `from` imports: spans.install rebinds them
    if op.kind == "verify":
        (m,) = op.params
        return dp.verify_against_oracle(m, m)
    if op.kind == "fit":
        (n,) = op.params
        table = dp.sample_counts(dp.family("jahangir", n), FIT_SAMPLES)
        formula = dp.fit(table, 2)
        return table, formula, dp.verify_formula(formula, FIT_HOLDOUT)
    if op.kind == "jahangir":
        n, m = op.params
        g = dp.jahangir(n, m)
        return g, dp.distance_distribution(g), dp.orbit_distance_distribution(g, dp.rotation_orbits(n, m))
    if op.kind == "random":
        k, p, seed = op.params
        g = dp.random_connected(k, p, seed)
        return g, dp.distance_distribution(g)
    raise ValueError(f"not an in-process op: {op.kind!r}")


class CliRunner:
    """Runs cli ops as child processes against the checkout's `src/`."""

    def __init__(self, src: Path, directory: Path):
        self.directory = directory
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def run(self, op: Op, spans_file: Path | None = None, spawn_ns: int = 0):
        """Returns (returncode, stdout). With `spans_file`, the child installs
        the span wrappers and writes its spans there; `spawn_ns` is the
        parent's clock at spawn."""
        args = cli_args(op, self.directory)
        if spans_file is None:
            argv = [sys.executable, "-m", "distpoly", *args]
        else:
            argv = [sys.executable, str(CHILD_SCRIPT), str(spawn_ns), str(spans_file), *args]
        proc = subprocess.run(
            argv, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CLI_TIMEOUT_S, check=False,
        )
        return proc.returncode, proc.stdout


class Tally:
    """Closed-loop accounting: latencies, attempts, failures and pairs resolved."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.pairs = 0

    def record(self, op: Op, outcome, error: BaseException | None, latency_ns: int) -> bool:
        """Count one op; it fails if it raised, exited non-zero or gave a wrong answer."""
        ok = False
        if error is None:
            try:
                ok = check(op, outcome)
            except Exception as exc:  # a malformed result is a wrong answer
                error = exc
        self.attempted += 1
        self.latencies_ns.append(latency_ns)
        if ok:
            self.pairs += op.pairs
            return True
        self.failed += 1
        if self.failed <= 3:
            detail = f": {error!r}" if error is not None else ""
            sys.stderr.write(f"perfbench: op failed: {op.kind} {op.params[:4]}{detail}\n")
        return False


def run_op(op: Op, tally: Tally, cli: CliRunner, tracer: "spans.Tracer | None" = None) -> int:
    """Run, time and check one op; returns its latency in ns. With a tracer
    the op is a root span and a cli op's child spans are grafted under it."""
    traced_cli = tracer is not None and op.kind == "cli"
    spans_file = cli.directory / "child-spans.json" if traced_cli else None
    start = time.monotonic_ns()
    root = tracer.open(spans.OP_LAYER, op.kind, start) if tracer is not None else None
    outcome, error = None, None
    try:
        if op.kind == "cli":
            outcome = cli.run(op, spans_file, start)
        else:
            outcome = run_inprocess(op)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        error = exc
    end = time.monotonic_ns()
    if tracer is not None:
        tracer.close(root, error is not None, end)
        if traced_cli and spans_file.exists():
            tracer.graft(json.loads(spans_file.read_text(encoding="utf-8")), root)
            spans_file.unlink()
    tally.record(op, outcome, error, end - start)
    return end - start


def check(op: Op, outcome) -> bool:
    """Independent check of one op's outcome (see checks.py)."""
    if op.kind == "verify":
        return checks.check_verify(op.params[0], outcome)
    if op.kind == "fit":
        return checks.check_fit(op.params[0], FIT_SAMPLES, FIT_HOLDOUT, *outcome)
    if op.kind == "jahangir":
        return checks.check_jahangir(*op.params, *outcome)
    if op.kind == "random":
        return checks.check_random(op.params[0], *outcome)
    command, fmt, shape, v, edges, _, _ = op.params
    returncode, stdout = outcome
    return checks.check_cli(command, fmt, shape, v, edges, returncode, stdout)
