import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpoly.errors import InvalidParameterError
from distpoly.generators import (
    _components,
    _draw_threshold,
    complete,
    cycle,
    jahangir,
    path,
    random_connected,
    rotation_orbits,
    star,
    wheel,
)

from _oracle import INF, floyd_warshall
from _strategies import graphs

# J(5,3) written out by hand from the definition: a 15-cycle 0..14 plus a
# center (id 15) joined to cycle vertices 0, 5, 10.
J53_EDGES = [
    (0, 1), (0, 14), (0, 15), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 15),
    (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (10, 15), (11, 12), (12, 13), (13, 14),
]


def test_jahangir_5_3_exact_edge_set():
    assert sorted(jahangir(5, 3).edges()) == sorted(J53_EDGES)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(3, 9))
def test_jahangir_counts(n, m):
    g = jahangir(n, m)
    assert g.vertex_count == n * m + 1
    assert g.edge_count == m * (n + 1)
    assert g.is_connected()


def test_jahangir_degrees():
    g = jahangir(5, 4)
    center = 20
    assert g.degree(center) == 4
    hubs = {0, 5, 10, 15}
    for v in range(20):
        assert g.degree(v) == (3 if v in hubs else 2)


def test_jahangir_n1_is_wheel():
    for m in range(3, 10):
        assert jahangir(1, m) == wheel(m)


@pytest.mark.parametrize("n,m", [(0, 3), (-1, 5), (5, 2), (5, 0), (5, -3)])
def test_jahangir_rejects_bad_parameters(n, m):
    with pytest.raises(InvalidParameterError):
        jahangir(n, m)


def test_cycle():
    g = cycle(5)
    assert g.vertex_count == 5
    assert g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(InvalidParameterError):
        cycle(2)


def test_path():
    g = path(4)
    assert g.edge_count == 3
    assert g.degree(0) == g.degree(3) == 1
    assert path(1).edge_count == 0
    with pytest.raises(InvalidParameterError):
        path(0)


def test_star():
    g = star(6)
    assert g.vertex_count == 7
    assert g.degree(6) == 6
    assert all(g.degree(v) == 1 for v in range(6))
    with pytest.raises(InvalidParameterError):
        star(0)


def test_complete():
    g = complete(5)
    assert g.edge_count == 10
    assert all(g.degree(v) == 4 for v in range(5))
    assert complete(1).vertex_count == 1
    with pytest.raises(InvalidParameterError):
        complete(0)


def test_wheel():
    g = wheel(6)
    assert g.vertex_count == 7
    assert g.edge_count == 12
    assert g.degree(6) == 6
    assert all(g.degree(v) == 3 for v in range(6))
    with pytest.raises(InvalidParameterError):
        wheel(2)


# -- random_connected ---------------------------------------------------------


def test_random_connected_deterministic():
    a = random_connected(30, Fraction(1, 10), 123)
    b = random_connected(30, Fraction(1, 10), 123)
    assert a == b
    assert list(a.edges()) == list(b.edges())


def test_random_connected_frozen_instance():
    """Pin one seeded draw so an accidental change to the sampling or repair
    procedure shows up as a test failure, not a silent reshuffle."""
    g = random_connected(30, Fraction(1, 10), 123)
    assert g.vertex_count == 30
    assert g.edge_count == 55
    assert g.is_connected()


def test_random_connected_seed_matters():
    assert random_connected(12, Fraction(1, 4), 1) != random_connected(12, Fraction(1, 4), 2)


def test_random_connected_p_one_is_complete():
    assert random_connected(5, 1, 7) == complete(5)
    assert random_connected(5, Fraction(1), 99) == complete(5)


def test_random_connected_accepts_float_and_string_probability():
    assert random_connected(8, 0.25, 3) == random_connected(8, Fraction(1, 4), 3)
    assert random_connected(8, "1/4", 3) == random_connected(8, Fraction(1, 4), 3)


def test_random_connected_single_vertex():
    g = random_connected(1, Fraction(1, 2), 0)
    assert g.vertex_count == 1
    assert g.edge_count == 0


@pytest.mark.parametrize("p", [0, Fraction(0), Fraction(-1, 2), Fraction(3, 2), 2])
def test_random_connected_rejects_bad_probability(p):
    with pytest.raises(InvalidParameterError):
        random_connected(5, p, 0)


def test_random_connected_rejects_bad_vertex_count():
    with pytest.raises(InvalidParameterError):
        random_connected(0, Fraction(1, 2), 0)


@settings(deadline=None)
@given(
    k=st.integers(1, 40),
    num=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_connected_is_always_connected(k, num, seed):
    g = random_connected(k, Fraction(num, 10), seed)
    assert g.vertex_count == k
    assert g.is_connected()


def _reference_random_connected(k, p, seed):
    """random_connected's documented procedure, with every draw compared
    against the rational p."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k) if Fraction(rng.random()) < p]
    component = list(range(k))  # smallest member of each vertex's component
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            low = min(component[u], component[v])
            if component[u] != low or component[v] != low:
                component[u] = component[v] = low
                changed = True
    roots = sorted(set(component))
    return sorted(edges + list(zip(roots, roots[1:])))


_DYADIC = 2**53
_TINY = Fraction(1, 2**80)
#: p = 1, 1/3, 1/10**9, the extreme dyadics, and each side of dyadics j/2**53:
#: one float ulp away, and far less than one ulp away.
_BOUNDARY_PROBABILITIES = [
    Fraction(1), Fraction(1, 3), Fraction(1, 10**9), Fraction(1, _DYADIC), Fraction(_DYADIC - 1, _DYADIC),
] + [
    q
    for j in (1, 3, 2**40 + 1, 2**52 + 5, _DYADIC - 2)
    for q in (
        Fraction(math.nextafter(j / _DYADIC, 0)),
        Fraction(math.nextafter(j / _DYADIC, 1)),
        Fraction(j, _DYADIC) - _TINY,
        Fraction(j, _DYADIC) + _TINY,
    )
]


def _assert_threshold_exact(p):
    threshold = _draw_threshold(p)
    c = math.ceil(p * _DYADIC)
    for j in {0, 1, c - 2, c - 1, c, c + 1, _DYADIC - 1}:
        if 0 <= j < _DYADIC:
            assert (j / _DYADIC < threshold) == (Fraction(j, _DYADIC) < p), (p, j)


@pytest.mark.parametrize("p", _BOUNDARY_PROBABILITIES)
def test_draw_threshold_at_boundary_probabilities(p):
    _assert_threshold_exact(p)


@given(st.fractions(min_value=Fraction(1, 10**12), max_value=1))
def test_draw_threshold_is_exact(p):
    _assert_threshold_exact(p)


@pytest.mark.parametrize(
    "k,p,seed",
    [(1, Fraction(1, 2), 0), (5, 1, 7), (40, Fraction(1, 3), 11), (60, Fraction(1, 10**9), 3),
     (90, Fraction(1, 50), 2**32 - 1), (120, Fraction(7, 10), 5)],
)
def test_random_connected_matches_fraction_reference(k, p, seed):
    assert list(random_connected(k, p, seed).edges()) == _reference_random_connected(k, p, seed)


@settings(deadline=None)
@given(
    k=st.integers(1, 40),
    p=st.fractions(min_value=Fraction(1, 1000), max_value=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_connected_matches_fraction_reference_property(k, p, seed):
    assert list(random_connected(k, p, seed).edges()) == _reference_random_connected(k, p, seed)


@given(graphs())
def test_components_match_oracle_reachability(g):
    dist = floyd_warshall(g)
    expected = []
    for v in range(g.vertex_count):
        if not any(v in component for component in expected):
            expected.append([w for w in range(g.vertex_count) if dist[v][w] != INF])
    assert _components([list(nbrs) for nbrs in g.adjacency]) == expected
    assert g.is_connected() == (len(expected) <= 1)


# -- rotation_orbits ----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", range(3, 9))
def test_rotation_orbits_partition(n, m):
    spec = rotation_orbits(n, m)
    assert len(spec.orbits) == n + 1
    members = [v for orbit in spec.orbits for v in orbit.members]
    assert sorted(members) == list(range(n * m + 1))
    assert spec.total_size() == n * m + 1
    for orbit in spec.orbits:
        assert orbit.representative in orbit.members
        assert orbit.size == len(orbit.members)


def test_rotation_orbits_structure():
    spec = rotation_orbits(5, 3)
    assert spec.orbits[0].members == (0, 5, 10)
    assert spec.orbits[2].members == (2, 7, 12)
    assert spec.orbits[5].members == (15,)
    assert spec.orbits[5].size == 1


def test_rotation_orbits_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        rotation_orbits(0, 5)
    with pytest.raises(InvalidParameterError):
        rotation_orbits(5, 2)
