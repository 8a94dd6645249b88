"""Tests of the benchmark itself: its checks catch faults, its inputs are a
function of the seed, and its spans partition op time and come off cleanly."""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import checks  # noqa: E402
import distpoly  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _op(kind, params, vertices):
    return workloads.Op(kind, params, checks.pairs(vertices))


def _cli_op(index=0):
    return workloads.block("long-files-cli", 1, 0)[index]


def test_corrupted_distribution_and_child_exit_count_as_failures(tmp_path):
    tally = workloads.Tally()
    op = _op("random", (40, Fraction(1, 10), 5), 40)
    g, dd = workloads.run_inprocess(op)
    assert tally.record(op, (g, dd), None, 1)

    # Move one pair from distance 2 to distance 3: the pair total and the
    # edge count still hold, so only the reference BFS can catch it.
    counts = list(dd.counts)
    counts[2] -= 1
    counts[3] += 1
    corrupted = distpoly.DistanceDistribution(tuple(counts))
    assert checks.distribution_ok(corrupted.counts, 40, g.edge_count)
    assert not tally.record(op, (g, corrupted), None, 1)

    # The input file was never written, so the CLI child exits 2.
    cli = workloads.CliRunner(SRC, tmp_path)
    cli_op = _cli_op()
    assert cli.run(cli_op)[0] == 2
    workloads.run_op(cli_op, tally, cli)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_cli_op_passes_when_its_file_exists(tmp_path):
    tally = workloads.Tally()
    cli = workloads.CliRunner(SRC, tmp_path)
    ops = workloads.block("long-files-cli", 1, 0)[:2]
    workloads.write_inputs(ops, tmp_path)
    for op in ops:
        workloads.run_op(op, tally, cli)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_same_seed_same_ops_and_files_other_seed_differs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = [workloads.block(workload, 7, i) for i in range(3)]
        assert first == [workloads.block(workload, 7, i) for i in range(3)]
        assert first != [workloads.block(workload, 8, i) for i in range(3)]

    def files(seed, name):
        directory = tmp_path / name
        directory.mkdir()
        for i in range(2):
            workloads.write_inputs(workloads.block("long-files-cli", seed, i), directory)
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    a, b, c = files(7, "a"), files(7, "b"), files(8, "c")
    assert a == b
    assert a != c
    assert any(data.startswith(b"#") for data in a.values())  # some files take the remap path


def test_spans_partition_op_time_and_are_removed(tmp_path):
    before = (distpoly.distance_distribution, distpoly.hosoya.distance_distribution, distpoly.closed_forms.jahangir)
    ops = [
        _op("verify", (10,), 51),
        _op("fit", (3,), 1),
        _op("jahangir", (8, 6), 49),
        _op("random", (40, Fraction(1, 10), 5), 40),
        _cli_op(),
    ]
    workloads.write_inputs(ops, tmp_path)
    tracer = spans.Tracer()
    tally = workloads.Tally()
    undo = spans.install(tracer)
    try:
        assert distpoly.closed_forms.jahangir is not before[2]
        for op in ops:
            workloads.run_op(op, tally, workloads.CliRunner(SRC, tmp_path), tracer)
    finally:
        undo()
    assert (distpoly.distance_distribution, distpoly.hosoya.distance_distribution, distpoly.closed_forms.jahangir) == before
    assert tally.failed == 0

    totals = spans.summarize(tracer.spans)
    assert totals["attribution_exact"]
    assert totals["ops"] == len(ops)
    names = {(layer, name) for layer, name, *_ in tracer.spans}
    assert {("startup", "interp"), ("startup", "import"), ("cli", "main"), ("graph", "parse_edge_list")} <= names
    verify = next(i for i, span in enumerate(tracer.spans) if span[1] == "verify_against_oracle")
    children = {tuple(span[:2]) for span in tracer.spans if span[4] == verify}
    assert ("distances", "distance_distribution") in children
    assert totals["orbit_ops.orbit_sources"] == 9  # J(8, 6): eight rotation orbits plus the center
    assert totals["orbit_ops.naive_sources"] == 49
