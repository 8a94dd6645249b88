import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpoly.distances import (
    DistanceDistribution,
    Orbit,
    OrbitSpec,
    _halve_ordered,
    _msbfs,
    _per_source,
    bfs_distances,
    diameter,
    distance_distribution,
    orbit_distance_distribution,
)
from distpoly.errors import DisconnectedError, MalformedOrbitsError
from distpoly.generators import complete, cycle, jahangir, path, rotation_orbits, star
from distpoly.graph import Graph

from _oracle import INF, floyd_warshall, oracle_counts
from _strategies import connected_graphs, graphs


def test_bfs_distances_path():
    g = path(5)
    assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]
    assert bfs_distances(g, 2) == [2, 1, 0, 1, 2]


def test_bfs_distances_cycle():
    assert bfs_distances(cycle(6), 0) == [0, 1, 2, 3, 2, 1]


def test_bfs_distances_jahangir_center():
    """From the center of J(5,3): hubs at 1, their cycle neighbors at 2,
    everything else at 3."""
    dist = bfs_distances(jahangir(5, 3), 15)
    by_distance = {}
    for v, d in enumerate(dist):
        by_distance.setdefault(d, set()).add(v)
    assert by_distance[0] == {15}
    assert by_distance[1] == {0, 5, 10}
    assert by_distance[2] == {1, 4, 6, 9, 11, 14}
    assert by_distance[3] == {2, 3, 7, 8, 12, 13}


def test_bfs_distances_disconnected():
    with pytest.raises(DisconnectedError) as excinfo:
        bfs_distances(Graph(4, [(0, 1), (2, 3)]), 0)
    assert excinfo.value.unreached_vertex in (2, 3)


def test_distribution_small_known_graphs():
    assert distance_distribution(path(2)).counts == (0, 1)
    assert distance_distribution(path(4)).counts == (0, 3, 2, 1)
    assert distance_distribution(complete(5)).counts == (0, 10)
    assert distance_distribution(cycle(6)).counts == (0, 6, 6, 3)
    assert distance_distribution(star(5)).counts == (0, 5, 10)


def test_distribution_single_vertex():
    dd = distance_distribution(path(1))
    assert dd.counts == (0,)
    assert dd.diameter == 0
    assert dd.total_pairs == 0


def test_distribution_jahangir_frozen_values():
    assert distance_distribution(jahangir(5, 3)).counts == (0, 18, 24, 33, 24, 18, 3)
    assert distance_distribution(jahangir(5, 4)).counts == (0, 24, 34, 52, 48, 40, 12)
    assert distance_distribution(jahangir(5, 6)).counts == (0, 36, 57, 102, 120, 108, 42)


def test_distribution_disconnected():
    with pytest.raises(DisconnectedError):
        distance_distribution(Graph(3, [(0, 1)]))
    with pytest.raises(DisconnectedError):
        distance_distribution(Graph(2, []))


def test_distribution_properties():
    dd = distance_distribution(cycle(6))
    assert dd.diameter == 3
    assert dd.total_pairs == 15
    assert dd.per_distance() == (6, 6, 3)


@settings(deadline=None)
@given(connected_graphs(max_vertices=14))
def test_distribution_matches_independent_oracle(g):
    assert list(distance_distribution(g).counts) == oracle_counts(g)


@settings(deadline=None)
@given(connected_graphs(max_vertices=14))
def test_distribution_invariants(g):
    dd = distance_distribution(g)
    n = g.vertex_count
    assert dd.counts[0] == 0
    assert sum(dd.counts) == math.comb(n, 2)
    if n > 1:
        assert dd.counts[1] == g.edge_count
        assert dd.counts[-1] > 0


@settings(deadline=None)
@given(graphs(min_vertices=2))
def test_distribution_raises_iff_disconnected(g):
    if g.is_connected():
        distance_distribution(g)
    else:
        with pytest.raises(DisconnectedError):
            distance_distribution(g)


def test_diameter_known_values():
    assert diameter(path(1)) == 0
    assert diameter(path(7)) == 6
    assert diameter(cycle(9)) == 4
    assert diameter(cycle(10)) == 5
    assert diameter(complete(4)) == 1
    assert diameter(star(6)) == 2


# -- orbit-accelerated distribution -------------------------------------------


def test_orbit_distribution_matches_naive_j53():
    g = jahangir(5, 3)
    assert orbit_distance_distribution(g, rotation_orbits(5, 3)) == distance_distribution(g)


def test_orbit_distribution_frozen_j28():
    g = jahangir(2, 8)
    assert g.vertex_count == 17
    assert g.edge_count == 24
    dd = orbit_distance_distribution(g, rotation_orbits(2, 8))
    assert dd.counts == (0, 24, 44, 48, 20)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(3, 7))
def test_orbit_distribution_matches_naive_sweep(n, m):
    g = jahangir(n, m)
    assert orbit_distance_distribution(g, rotation_orbits(n, m)) == distance_distribution(g)


def test_orbit_spec_for_wrong_graph_rejected():
    with pytest.raises(MalformedOrbitsError):
        orbit_distance_distribution(jahangir(5, 4), rotation_orbits(5, 3))


def test_orbit_partition_validation():
    g = cycle(4)
    whole = Orbit(0, 4, (0, 1, 2, 3))
    cases = [
        OrbitSpec((Orbit(0, 3, (0, 1, 2)),)),  # does not cover the vertex set
        OrbitSpec((whole, Orbit(0, 1, (0,)))),  # overlap
        OrbitSpec((Orbit(3, 4, (0, 1, 2, 4)),)),  # member out of range
        OrbitSpec((Orbit(3, 4, (0, 1, 2)),)),  # size disagrees with members
        OrbitSpec((Orbit(3, 3, (0, 1, 2)), Orbit(3, 1, (3,)))),  # rep not a member
    ]
    for spec in cases:
        with pytest.raises(MalformedOrbitsError):
            orbit_distance_distribution(g, spec)


def test_orbit_partition_that_is_not_automorphism_induced():
    """A partition can be structurally valid yet not come from symmetries; the
    parity of the weighted totals catches this one."""
    g = jahangir(5, 3)
    bad = OrbitSpec((
        Orbit(0, 6, (0, 1, 5, 6, 10, 11)),
        Orbit(2, 6, (2, 3, 7, 8, 12, 13)),
        Orbit(4, 3, (4, 9, 14)),
        Orbit(15, 1, (15,)),
    ))
    with pytest.raises(MalformedOrbitsError):
        orbit_distance_distribution(g, bad)


def test_orbit_distribution_on_disconnected_graph():
    g = Graph(4, [(0, 1), (2, 3)])
    spec = OrbitSpec((Orbit(0, 4, (0, 1, 2, 3)),))
    with pytest.raises(DisconnectedError):
        orbit_distance_distribution(g, spec)


def test_trivial_singleton_partition_matches_naive():
    g = cycle(7)
    spec = OrbitSpec(tuple(Orbit(v, 1, (v,)) for v in range(7)))
    assert orbit_distance_distribution(g, spec) == distance_distribution(g)


def test_distance_distribution_rejects_malformed_counts():
    with pytest.raises(ValueError):
        DistanceDistribution((1, 2))
    with pytest.raises(ValueError):
        DistanceDistribution((0, 2, 0))
    with pytest.raises(ValueError):
        DistanceDistribution(())


# -- the two engine paths: per-source BFS and multi-source BFS -----------------


@st.composite
def weighted_sources(draw, max_vertices: int = 14):
    """A connected graph plus a non-empty list of distinct sources with weights."""
    g = draw(connected_graphs(max_vertices=max_vertices))
    n = g.vertex_count
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(sources), max_size=len(sources)))
    return g, sources, weights


@settings(deadline=None)
@given(connected_graphs(max_vertices=14))
def test_both_engine_paths_match_oracle(g):
    n = g.vertex_count
    oracle = oracle_counts(g)
    for engine in (_per_source, _msbfs):
        assert list(_halve_ordered(engine(g.adjacency, range(n), [1] * n)).counts) == oracle


@settings(deadline=None)
@given(weighted_sources())
def test_both_engine_paths_agree_on_weighted_sources(case):
    g, sources, weights = case
    dist = floyd_warshall(g)
    expected = [0] * g.vertex_count
    for source, weight in zip(sources, weights):
        for d in dist[source]:
            if d:
                expected[int(d)] += weight
    assert _per_source(g.adjacency, sources, weights) == expected
    assert _msbfs(g.adjacency, sources, weights) == expected


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("m", (3, 4, 7, 12))
def test_both_engine_paths_agree_on_rotation_orbits(n, m):
    g = jahangir(n, m)
    spec = rotation_orbits(n, m)
    sources = [orbit.representative for orbit in spec.orbits]
    weights = [orbit.size for orbit in spec.orbits]
    per_source = _per_source(g.adjacency, sources, weights)
    assert _msbfs(g.adjacency, sources, weights) == per_source
    assert _halve_ordered(per_source) == distance_distribution(g)


def test_msbfs_path_rejects_partition_that_is_not_automorphism_induced():
    g = jahangir(5, 3)
    # Same partition as test_orbit_partition_that_is_not_automorphism_induced.
    sources, weights = [0, 2, 4, 15], [6, 6, 3, 1]
    with pytest.raises(MalformedOrbitsError):
        _halve_ordered(_msbfs(g.adjacency, sources, weights), orbit_checked=True)


@settings(deadline=None)
@given(weighted_sources(), st.lists(st.integers(1, 13), max_size=4))
def test_block_split_msbfs_sums_to_full_width(case, cuts):
    g, sources, weights = case
    bounds = sorted({0, len(sources), *(c for c in cuts if c < len(sources))})
    parts = [
        _msbfs(g.adjacency, sources[lo:hi], weights[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]
    assert [sum(column) for column in zip(*parts)] == _msbfs(g.adjacency, sources, weights)


def test_distribution_wider_than_one_msbfs_block():
    """5001 sources at eccentricity 2 take the multi-source path in two blocks."""
    k = 5000
    assert distance_distribution(star(k)).counts == (0, k, k * (k - 1) // 2)


@settings(deadline=None)
@given(graphs(min_vertices=2, max_vertices=14))
def test_disconnected_error_names_smallest_vertex_unreached_from_first_source(g):
    unreached = [v for v, d in enumerate(floyd_warshall(g)[0]) if d == INF]
    if not unreached:
        return
    message = f"graph is disconnected: vertex {unreached[0]} unreachable"
    with pytest.raises(DisconnectedError, match=f"^{message}$"):
        distance_distribution(g)
    spec = OrbitSpec(tuple(Orbit(v, 1, (v,)) for v in range(g.vertex_count)))
    with pytest.raises(DisconnectedError, match=f"^{message}$"):
        orbit_distance_distribution(g, spec)


def test_disconnected_error_on_graph_that_would_take_msbfs_path():
    g = Graph(41, [(u, v) for u in range(40) for v in range(u + 1, 40)])
    with pytest.raises(DisconnectedError, match="^graph is disconnected: vertex 40 unreachable$"):
        distance_distribution(g)
