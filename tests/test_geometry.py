"""Exact lattice construction and the multiple-point graph."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arrgroup import (
    FIXTURES,
    Arrangement,
    ArrangementError,
    IntersectionLattice,
    IntersectionPoint,
    Line,
    compute_lattice,
    fixture_path,
    multiple_point_graph,
    parse_arrangement,
)
from arrgroup.geometry import components, integer, parallel_pairs, records
from conftest import (affine_image, arrangements, fixture_arrangement,
                      wide_arrangements)


def test_records_drop_comments_blanks_and_empty_lines():
    text = "# header\n\n  1 2 3  # tail\n\t\n4 5 6\n#"
    assert list(records(text)) == [(3, "1 2 3"), (5, "4 5 6")]


def test_integer_names_the_line():
    assert integer(" 7", 3) == 7
    with pytest.raises(ValueError,
                       match="^line 3: expected an integer, got '7/2'$"):
        integer("7/2", 3)
    with pytest.raises(ValueError,
                       match="^line 1: gens= expects an integer, got 'x'$"):
        integer("x", 1, "gens= expects an integer")


def test_parse_comments_and_blank_lines():
    arr = parse_arrangement(
        """
        # axes
        1 0 0   # the y-axis
        0 1 0

        1/2 -3 7/5
        """
    )
    assert len(arr) == 3
    assert arr.lines[0].contains(Fraction(0), Fraction(7))
    assert arr.lines[2].a == Fraction(1)  # normalized leading coefficient


def test_parse_rejects_bad_input():
    with pytest.raises(ArrangementError) as err:
        parse_arrangement("1 0 zebra")
    assert err.value.code == "malformed-rational"
    with pytest.raises(ArrangementError):
        parse_arrangement("1 0")
    with pytest.raises(ArrangementError):
        parse_arrangement("0 0 5")
    with pytest.raises(ArrangementError) as err:
        parse_arrangement("1 1 0\n2 2 0")
    assert err.value.code == "duplicate-line"


def test_unknown_fixture_is_rejected():
    with pytest.raises(ArrangementError,
                       match="no fixture named 'nope'") as err:
        fixture_path("nope")
    assert err.value.code == "unknown-fixture"


def test_line_normalization_and_slope():
    line = Line.make(2, 4, 6)
    assert (line.a, line.b, line.c) == (1, 2, 3)
    assert line.slope == Fraction(-1, 2)
    vert = Line.make(3, 0, 1)
    assert vert.is_vertical
    with pytest.raises(ValueError):
        vert.slope


def test_lattice_two_crossing_lines():
    arr = parse_arrangement("1 0 0\n0 1 0")
    lat = compute_lattice(arr)
    assert lat.n == 2 and lat.p == 0
    (pt,) = lat.points
    assert (pt.x, pt.y) == (0, 0)
    assert pt.incident == (1, 2) and pt.multiplicity == 2


def test_lattice_parallel_lines_share_no_point():
    arr = parse_arrangement("1 1 0\n1 1 5\n0 1 0")
    lat = compute_lattice(arr)
    assert len(lat.points) == 2
    assert all(pt.multiplicity == 2 for pt in lat.points)


def test_parallel_pairs_are_the_pairs_with_zero_determinant():
    arr = parse_arrangement("1 1 0\n0 1 0\n2 2 5\n0 1 3\n1 1 7\n1 -1 0")
    lat = compute_lattice(arr)
    assert parallel_pairs(lat) == [
        (i, j) for (i, l1), (j, l2) in combinations(enumerate(arr.lines, 1), 2)
        if l1.a * l2.b == l2.a * l1.b]
    assert parallel_pairs(lat) == [(1, 3), (1, 5), (2, 4), (3, 5)]
    assert parallel_pairs(compute_lattice(fixture_arrangement("ceva"))) == []


@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=10))))
def test_components_match_a_breadth_first_search(graph):
    n, edges = graph
    adjacent = {v: set() for v in range(n)}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    expected = set()
    for start in range(n):
        seen, frontier = {start}, [start]
        while frontier:
            frontier = [w for v in frontier for w in adjacent[v]
                        if w not in seen and not seen.add(w)]
        expected.add(tuple(sorted(seen)))
    assert components(range(n), edges) == sorted(expected)


def test_lattice_empty_arrangement_rejected():
    with pytest.raises(ArrangementError) as err:
        compute_lattice(Arrangement(()))
    assert err.value.code == "empty-arrangement"


def test_lattice_triangle_fixture():
    lat = compute_lattice(fixture_arrangement("triangle"))
    assert lat.n == 6 and lat.p == 3
    assert len(lat.points) == 9
    triples = [pt.incident for pt in lat.points if pt.multiplicity >= 3]
    assert sorted(triples) == [(1, 2, 4), (1, 5, 6), (3, 4, 5)]
    for pt in lat.points:
        assert pt.multiplicity == len(pt.incident)
        assert list(pt.incident) == sorted(pt.incident)


@pytest.mark.parametrize(
    "name, expected_betti",
    [
        ("pencil", 0),
        ("nearpencil", 0),
        ("triangle", 1),
        ("cycle5", 1),
        ("ceva", 3),
    ],
)
def test_multiple_point_graph_betti(name, expected_betti):
    graph = multiple_point_graph(compute_lattice(fixture_arrangement(name)))
    assert graph.betti == expected_betti


def test_multiple_point_graph_triangle_is_a_cycle():
    graph = multiple_point_graph(compute_lattice(fixture_arrangement("triangle")))
    assert len(graph.vertices) == 3
    assert len(graph.edges) == 3
    degree = {v: 0 for v in graph.vertices}
    for u, v, _line in graph.edges:
        degree[u] += 1
        degree[v] += 1
    assert all(d == 2 for d in degree.values())


def test_ceva_fixture_is_k4():
    graph = multiple_point_graph(compute_lattice(fixture_arrangement("ceva")))
    assert len(graph.vertices) == 4
    assert len(graph.edges) == 6
    assert graph.betti == 3


def pair_count_identity(arr):
    """Every crossing pair of lines lies in exactly one lattice point."""
    lat = compute_lattice(arr)
    crossing = sum(
        1
        for l1, l2 in combinations(arr.lines, 2)
        if l1.a * l2.b - l2.a * l1.b != 0
    )
    covered = sum(
        pt.multiplicity * (pt.multiplicity - 1) // 2 for pt in lat.points
    )
    return crossing == covered


@given(arrangements())
def test_pair_count_identity_random(arr):
    assert pair_count_identity(arr)


@given(arrangements())
def test_lattice_points_lie_on_their_lines(arr):
    lat = compute_lattice(arr)
    for pt in lat.points:
        for idx in pt.incident:
            assert arr.lines[idx - 1].contains(pt.x, pt.y)


def reference_lattice(arr):
    """compute_lattice over Fraction: every pair of lines meets by Cramer's
    rule, points merge on their (x, y) and sort by it."""
    seen = {}
    for (i, l1), (j, l2) in combinations(enumerate(arr.lines, 1), 2):
        det = l1.a * l2.b - l2.a * l1.b
        if det == 0:
            continue
        x = (l1.c * l2.b - l2.c * l1.b) / det
        y = (l1.a * l2.c - l2.a * l1.c) / det
        seen.setdefault((x, y), set()).update((i, j))
    points = tuple(
        IntersectionPoint(x, y, tuple(sorted(inc)), len(inc))
        for (x, y), inc in sorted(seen.items()))
    return IntersectionLattice(
        points, len(arr), sum(1 for pt in points if pt.multiplicity >= 3))


def prime_arrangement(seed, n):
    """n distinct lines whose coefficients have 4-digit prime denominators,
    from a seeded generator."""
    rng = random.Random(seed)
    primes = [p for p in range(1009, 10000)
              if all(p % d for d in range(2, 100))]
    lines = []
    while len(lines) < n:
        a, b, c = (Fraction(rng.randint(-10**4, 10**4), rng.choice(primes))
                   for _ in range(3))
        if a or b:
            line = Line.make(a, b, c)
            if line not in lines:
                lines.append(line)
    return Arrangement(tuple(lines))


@given(arrangements())
def test_lattice_matches_the_fraction_reference(arr):
    assert compute_lattice(arr) == reference_lattice(arr)


@given(wide_arrangements())
def test_lattice_matches_the_reference_on_pencils_parallels_and_verticals(arr):
    assert compute_lattice(arr) == reference_lattice(arr)


def test_lattice_matches_the_reference_with_prime_denominators():
    # 48 lines whose denominators are 4-digit primes: a common denominator
    # for all 1,128 points would have tens of thousands of bits
    arr = prime_arrangement(48, 48)
    lat = compute_lattice(arr)
    assert lat == reference_lattice(arr)
    assert len(lat.points) == 48 * 47 // 2


@given(st.one_of(arrangements(), wide_arrangements()))
def test_lattice_points_ascend_and_carry_exactly_their_lines(arr):
    lat = compute_lattice(arr)
    keys = [(pt.x, pt.y) for pt in lat.points]
    assert all(p < q for p, q in zip(keys, keys[1:]))
    for pt in lat.points:
        assert pt.incident == tuple(
            i for i, line in enumerate(arr.lines, 1)
            if line.contains(pt.x, pt.y))
        assert pt.multiplicity == len(pt.incident)


def test_one_line_has_no_points():
    lat = compute_lattice(parse_arrangement("1/3 -2 5/7"))
    assert lat.points == () and lat.n == 1 and lat.p == 0


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(st.one_of(arrangements(), wide_arrangements()),
       st.tuples(small, small, small, small), st.tuples(small, small))
def test_lattice_incidences_survive_an_affine_map(arr, entries, shift):
    # an independent oracle: an invertible affine map moves the points, and
    # may reorder them, but keeps which lines meet where
    a, b, c, d = entries
    assume(a * d != b * c)
    image = affine_image(arr, ((a, b), (c, d)), shift)
    before, after = compute_lattice(arr), compute_lattice(image)
    assert sorted(pt.incident for pt in before.points) == sorted(
        pt.incident for pt in after.points)
    assert sorted(pt.multiplicity for pt in before.points) == sorted(
        pt.multiplicity for pt in after.points)
    assert (before.n, before.p) == (after.n, after.p)
