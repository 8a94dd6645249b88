"""distpoly benchmark: seeded closed-loop workloads with one caller.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's `src/distpoly`, nothing installed. One caller sends the next op
only after the previous one returned. Ops run in whole blocks until the timed
ops add up to `--seconds` (and, untraced, at least MIN_OPS ops ran). Each
op's output is checked after its timer stops.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs every block twice,
untraced and with spans around each distpoly layer, alternating which goes
first, and prints the per-layer metrics and the tracing overhead. The spans
are written to `.perfbench/spans-<workload>.jsonl` when the run ends.
`--workload all` runs each workload in turn, one child process at a time.

Human-readable lines come first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_OPS = 100
MAX_MEASURE_S = 150
SETUP_SAMPLES = 11
BARE_REPEATS = 5


def fail(message: str) -> NoReturn:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def spawn_seconds(argv: list[str], env: dict, repeats: int) -> list[float]:
    """Wall time of `repeats` fresh interpreters, spawn to exit."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
    return times


def calibration_ms() -> float:
    """A fixed pure-Python loop, recorded to show machine-speed drift; never used to scale."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1000


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    bare = spawn_seconds([sys.executable, "-c", "pass"], dict(os.environ), BARE_REPEATS)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "bare_start_ms": round(statistics.median(bare) * 1000, 3),
    }


class Run:
    """One workload's measured ops. `timed_ns[traced]` sums the op latencies
    of each pass; `blocks` holds (ops passed, pairs, ns) per untraced block;
    `setup` holds the import times sampled between blocks."""

    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.tally = workloads.Tally()
        self.tracer = spans.Tracer() if trace else None
        self.timed_ns = {False: 0, True: 0}
        self.blocks: list[tuple[int, int, int]] = []
        self.setup: list[float] = []


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """Run whole blocks until enough time is measured. Untraced, a fresh
    interpreter importing distpoly is timed before the first block and again
    each time another 1/SETUP_SAMPLES of the run has passed, so `setup_s`
    samples the machine over the whole run rather than at one moment."""
    cli = workloads.CliRunner(SRC, workdir)
    import_argv = [sys.executable, "-c", "import distpoly"]
    run = Run(workload, trace)
    tally = run.tally
    wall_start = time.monotonic()
    for index in itertools.count():
        timed = run.timed_ns[False] + run.timed_ns[True]
        if not trace and len(run.setup) < SETUP_SAMPLES and timed >= len(run.setup) * seconds * 1e9 / SETUP_SAMPLES:
            run.setup += spawn_seconds(import_argv, cli.env, 1)
        enough = timed >= seconds * 1e9 and (trace or tally.attempted >= MIN_OPS)
        if enough or time.monotonic() - wall_start > MAX_MEASURE_S:
            break
        ops = workloads.block(workload, seed, index)
        workloads.write_inputs(ops, workdir)
        if not trace:
            passes = (False,)
        else:
            passes = (False, True) if index % 2 == 0 else (True, False)
        for traced in passes:
            passed, pairs, block_ns = tally.attempted - tally.failed, tally.pairs, 0
            undo = spans.install(run.tracer) if traced else None
            try:
                for op in ops:
                    block_ns += workloads.run_op(op, tally, cli, run.tracer if traced else None)
            finally:
                if undo is not None:
                    undo()
            run.timed_ns[traced] += block_ns
            if not traced:
                run.blocks.append((tally.attempted - tally.failed - passed, tally.pairs - pairs, block_ns))
        for op in ops:
            if op.kind == "cli":
                (workdir / op.params[-1]).unlink()
    return run


def end_to_end(run: Run) -> dict:
    tally = run.tally
    seconds = run.timed_ns[False] / 1e9
    latencies_ms = [ns / 1e6 for ns in tally.latencies_ns]
    cli_children = run.workload == "long-files-cli"
    # RUSAGE_CHILDREN also covers the setup interpreters, which import distpoly and stop.
    who = resource.RUSAGE_CHILDREN if cli_children else resource.RUSAGE_SELF
    rss_kib = resource.getrusage(who).ru_maxrss
    done = tally.attempted - tally.failed
    # Rates are medians over blocks, so a burst of load from elsewhere on the
    # machine moves them less than it moves a whole-run mean.
    ops_rate = statistics.median(ops / ns * 1e9 for ops, _, ns in run.blocks)
    pairs_rate = statistics.median(pairs / ns * 1e9 for _, pairs, ns in run.blocks)
    blocks = f"median over {len(run.blocks)} blocks"
    return {
        "setup_s": (statistics.median(run.setup), "s", f"median of {len(run.setup)} fresh interpreters importing distpoly"),
        "ops_per_s": (ops_rate, "1/s", f"{blocks}; {done} ops in {seconds:.3f} s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms", f"n={len(latencies_ms)}"),
        "op_p90_ms": (statistics.quantiles(latencies_ms, n=10)[8], "ms", f"n={len(latencies_ms)}, {len(latencies_ms) // 10} beyond"),
        "pairs_per_s": (pairs_rate, "1/s", f"{blocks}; {tally.pairs} pairs"),
        "error_rate": (tally.failed / tally.attempted, "ratio", f"{tally.failed}/{tally.attempted}; in the JSON as failed/attempted"),
        "peak_rss_mib": (rss_kib / 1024, "MiB", "max over CLI children" if cli_children else "benchmark process"),
    }


def per_layer(run: Run) -> tuple[dict, bool]:
    t = spans.summarize(run.tracer.spans)
    ops = max(t["ops"], 1)
    by_name, work = t["by_name"], t["work"]

    def per_op_s(ns: int) -> float:
        return ns / ops / 1e9

    metrics = {}
    for layer in spans.LAYERS:
        busy = "build_s" if layer == "generators" else "busy_s"
        metrics[f"{layer}.{busy}"] = (per_op_s(t[f"{layer}.busy"]), "s/op")
        metrics[f"{layer}.self_s"] = (per_op_s(t[f"{layer}.self"]), "s/op")
        metrics[f"{layer}.calls"] = (t[f"{layer}.calls"] / ops, "count/op")
        metrics[f"{layer}.errors"] = (t[f"{layer}.errors"], "count")
    naive_sources = t["orbit_ops.naive_sources"]
    metrics.update({
        "cli.startup_s": (per_op_s(t["startup.busy"]), "s/op"),
        "cli.interp_s": (per_op_s(by_name.get("startup.interp", 0)), "s/op"),
        "cli.import_s": (per_op_s(by_name.get("startup.import", 0)), "s/op"),
        "closed_forms.m_checked": (work.get("closed_forms.m_checked", 0) / ops, "count/op"),
        "distances.naive_s": (per_op_s(by_name.get("distances.distance_distribution", 0)), "s/op"),
        "distances.orbit_s": (per_op_s(by_name.get("distances.orbit_distance_distribution", 0)), "s/op"),
        "distances.bfs_sources": (work.get("distances.sources", 0) / ops, "count/op"),
        "distances.edge_visits": (work.get("distances.visits", 0) / ops, "count/op"),
        "distances.useful_source_ratio": (
            t["orbit_ops.orbit_sources"] / naive_sources if naive_sources else 0.0, "ratio"),
        "family_fit.sample_s": (per_op_s(by_name.get("family_fit.sample_counts", 0)), "s/op"),
        "family_fit.fit_s": (per_op_s(by_name.get("family_fit.fit", 0)), "s/op"),
        "family_fit.holdout_self_s": (per_op_s(by_name.get("family_fit.verify_formula.self", 0)), "s/op"),
        "family_fit.comparisons": (work.get("family_fit.comparisons", 0) / ops, "count/op"),
        "generators.random_s": (per_op_s(by_name.get("generators.random_connected", 0)), "s/op"),
        "graph.parse_s": (per_op_s(by_name.get("graph.parse_edge_list", 0)), "s/op"),
        "graph.parse_edges": (work.get("graph.edges", 0) / ops, "count/op"),
        "trace.ops": (t["ops"], "count"),
        "trace.op_wall_s": (per_op_s(t["op_wall"]), "s/op"),
        "trace.unattributed_s": (per_op_s(t["unattributed"]), "s/op"),
        "trace.overhead_ratio": (run.timed_ns[True] / max(run.timed_ns[False], 1), "ratio"),
    })
    return metrics, t["attribution_exact"]


def write_spans(workload: str, tracer) -> Path:
    path = OUT / f"spans-{workload}.jsonl"
    keys = ("layer", "name", "start_ns", "end_ns", "parent", "error", "work")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment()
    env["calibration_ms_before"] = round(calibration_ms(), 3)
    # Untimed: fills src/distpoly/__pycache__ before anything is measured.
    spawn_seconds([sys.executable, "-c", "import distpoly"], dict(os.environ, PYTHONPATH=str(SRC)), 1)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["calibration_ms_after"] = round(calibration_ms(), 3)

    tally = run.tally
    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(env))
    correct = tally.failed == 0
    if trace:
        metrics, exact = per_layer(run)
        path = write_spans(workload, run.tracer)
        print(f"spans {len(run.tracer.spans)} written to {path.relative_to(ROOT)}")
        print(f"attribution: layer self times + cli.startup_s + unattributed == op wall: {exact}")
        correct = correct and exact
        rows = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
    else:
        rows = end_to_end(run)
    for name, (value, unit, note) in rows.items():
        print(f"  {name:32s} {value:14.6g} {unit:9s} {note}")
    # error_rate is 0 when all is well, so the JSON carries it as failed / attempted.
    reported = {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items() if name != "error_rate"}
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": reported}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own child process, one at a time, with the
    calibration loop timed between workloads."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        print(f"calibration_ms {calibration_ms():.3f}")
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(f"calibration_ms {calibration_ms():.3f}")
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    if not (SRC / "distpoly" / "__init__.py").is_file():
        fail(f"no distpoly sources at {SRC}; run from a distpoly checkout")
    sys.path.insert(0, str(SRC))
    import distpoly

    if Path(distpoly.__file__).resolve().parent != SRC / "distpoly":
        fail(f"imported distpoly from {distpoly.__file__}, not from {SRC}")
    import spans
    import workloads

    raise SystemExit(main())
