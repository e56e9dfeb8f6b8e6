"""Genericizing shears, the right-to-left sweep and the pairs file format."""

from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arrgroup import (
    FIXTURES,
    IntersectionLattice,
    IntersectionPoint,
    Line,
    Arrangement,
    WiringError,
    compute_lattice,
    format_pairs,
    genericize,
    lefschetz_pairs,
    parse_arrangement,
    parse_pairs,
    simulate_sweep,
    sweep,
    validate_pairs,
    wiring_svg,
)
from arrgroup.geometry import parallel_pairs
from arrgroup.wiring import PairList, _shear_parameters, _sweep_pairs
from conftest import (arrangements, fixture_arrangement, pipeline,
                      wide_arrangements)


@pytest.mark.parametrize("name", FIXTURES)
def test_genericize_postconditions(name):
    arr = fixture_arrangement(name)
    generic, transform = genericize(arr)
    assert not any(line.is_vertical for line in generic)
    lat = compute_lattice(generic)
    xs = [pt.x for pt in lat.points]
    assert len(xs) == len(set(xs))
    # the shear is a bijection of the plane, so incidences are untouched
    original = compute_lattice(arr)
    assert sorted(pt.incident for pt in lat.points) == sorted(
        pt.incident for pt in original.points
    )
    assert [transform.apply_line(line) for line in arr] == list(generic.lines)


def test_genericize_rejects_parallel_lines():
    arr = parse_arrangement("1 1 0\n1 1 5")
    with pytest.raises(WiringError) as err:
        genericize(arr)
    assert err.value.code == "parallel-lines"
    # the message names the first parallel pair in file order
    arr = parse_arrangement("0 1 0\n1 2 0\n1 0 1\n0 1 4\n2 4 1")
    with pytest.raises(WiringError, match=r"^parallel lines present: "
                       r"0\*x \+ 1\*y = 0 and 0\*x \+ 1\*y = 4$"):
        genericize(arr)


# arrangements that genericize must shear
SHEARED = (
    "1 0 0\n0 1 0\n1 1 1",  # a vertical line
    "-1 1 0\n1 1 0\n-2 1 1\n2 1 1",  # two points on the line x = 0
)


def reference_shear(arr):
    """The genericizing shear's search over Fraction: the first t under
    which no line is vertical and the sheared x-coordinates are distinct."""
    lat = compute_lattice(arr)
    for t in chain((Fraction(0),), _shear_parameters()):
        if (all(line.b != line.a * t for line in arr)
                and len({pt.x + t * pt.y for pt in lat.points})
                == len(lat.points)):
            return t


def test_shear_carries_lattice_points_onto_sheared_lattice():
    sheared = [parse_arrangement(text) for text in SHEARED]
    assert not any(genericize(arr)[1].is_identity for arr in sheared)
    for arr in [fixture_arrangement(name) for name in FIXTURES] + sheared:
        swept = sweep(arr)
        t = swept.transform.t
        assert t == reference_shear(arr)
        before = compute_lattice(arr)
        after = compute_lattice(genericize(arr)[0])
        assert {(pt.x + t * pt.y, pt.y): pt.incident
                for pt in before.points} == {
            (pt.x, pt.y): pt.incident for pt in after.points}
        # the swept lattice, its wires named by input line again, is the
        # sheared arrangement's lattice, points in the same order
        assert [(pt.x, pt.y, tuple(sorted(swept.lines[w - 1]
                                          for w in pt.incident)),
                 pt.multiplicity) for pt in swept.lattice.points] == [
            (pt.x, pt.y, pt.incident, pt.multiplicity) for pt in after.points]
        assert (swept.lattice.n, swept.lattice.p) == (after.n, after.p)


@given(st.one_of(arrangements(), wide_arrangements()))
def test_genericize_finds_the_reference_shear(arr):
    assume(not parallel_pairs(compute_lattice(arr)))
    assert genericize(arr)[1].t == reference_shear(arr)


def test_lefschetz_pairs_two_lines():
    generic, _ = genericize(parse_arrangement("1 1 0\n0 1 3"))
    pl = lefschetz_pairs(generic)
    assert pl.ell == 2
    assert pl.pairs == ((1, 2),)


def test_lefschetz_pairs_rejects_non_generic_input():
    with pytest.raises(WiringError) as err:
        lefschetz_pairs(parse_arrangement("1 0 0\n0 1 0"))
    assert err.value.code == "not-generic"
    with pytest.raises(WiringError):
        lefschetz_pairs(parse_arrangement("0 1 0\n0 1 1\n1 0 0"))
    # y = x and y = -x meet at (0, 0), y = 2x + 1 and y = -2x + 1 at (0, 1)
    with pytest.raises(WiringError, match="share an x-coordinate") as err:
        lefschetz_pairs(parse_arrangement("-1 1 0\n1 1 0\n-2 1 1\n2 1 1"))
    assert err.value.code == "not-generic"


def test_sweep_rejects_a_point_whose_wires_are_not_adjacent():
    # a lattice whose one point joins the bottom and top lines at
    # x = +infinity, with a wire between them
    point = IntersectionPoint(Fraction(1), Fraction(1), (1, 3), 2)
    with pytest.raises(WiringError, match="not adjacent in the sweep") as err:
        _sweep_pairs(IntersectionLattice((point,), 3, 0), (1, 2, 3))
    assert err.value.code == "not-generic"


def test_parallel_lines_raise_one_error_from_both_entry_points():
    arr = parse_arrangement("1 1 0\n1 1 5\n0 1 0")
    errors = []
    for entry in (genericize, lefschetz_pairs):
        with pytest.raises(WiringError) as err:
            entry(arr)
        errors.append((err.value.code, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0] == ("parallel-lines", "parallel lines present: "
                         "1*x + 1*y = 0 and 1*x + 1*y = 5")


@pytest.mark.parametrize("name", FIXTURES)
def test_pairs_cover_every_wire_pair(name):
    pl = pipeline(name).pairs
    validate_pairs(pl)


def test_validate_pairs_rejects_bad_lists():
    with pytest.raises(WiringError) as err:
        validate_pairs(PairList(3, ((1, 4),)))
    assert err.value.code == "pair-out-of-range"
    for check in (validate_pairs, wiring_svg):
        with pytest.raises(WiringError) as err:
            check(PairList(3, ((1, 2),)))
        assert err.value.code == "pair-count-mismatch"
    for ell in (0, -2):
        for check in (validate_pairs, wiring_svg):
            with pytest.raises(WiringError, match=f"^ell={ell}, expected "
                                                  "at least one wire$") as err:
                check(PairList(ell, ()))
            assert err.value.code == "ell-out-of-range"


@pytest.mark.parametrize("name", FIXTURES)
def test_sweep_reverses_the_wire_order(name):
    pl = pipeline(name).pairs
    snapshots = simulate_sweep(pl)
    assert len(snapshots) == len(pl.pairs) + 1
    assert snapshots[0] == tuple(range(1, pl.ell + 1))
    assert snapshots[-1] == tuple(range(pl.ell, 0, -1))


def test_sweep_order_is_ascending_slope():
    arr = fixture_arrangement("triangle")
    generic, transform = genericize(arr)
    slopes = [line.slope for line in generic]
    assert slopes == sorted(slopes) or len(set(slopes)) == len(slopes)


def test_pairs_are_invariant_under_x_translation():
    generic, _ = genericize(fixture_arrangement("triangle"))
    shifted = Arrangement(
        tuple(Line.make(l.a, l.b, l.c + l.a * 7) for l in generic)
    )
    assert lefschetz_pairs(shifted).pairs == lefschetz_pairs(generic).pairs


def test_pairs_format_round_trip():
    pl = pipeline("triangle").pairs
    assert parse_pairs(format_pairs(pl)) == pl


def test_parse_pairs_rejects_missing_header():
    with pytest.raises(WiringError):
        parse_pairs("1 2\n2 3\n")
    with pytest.raises(WiringError):
        parse_pairs("ell=3\n1 2 3\n")
    with pytest.raises(WiringError, match="missing ell= header") as err:
        parse_pairs("# no records\n")
    assert err.value.code == "bad-pairs-file"


def test_svg_is_deterministic_and_well_formed():
    pl = pipeline("triangle").pairs
    svg = wiring_svg(pl)
    assert svg == wiring_svg(pl)
    assert svg.startswith("<?xml")
    assert "<svg " in svg
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == pl.ell


@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda ab: ab[0] < ab[1])
)
def test_simulated_block_reversals_are_involutions(ab):
    pl = PairList(6, (ab, ab))
    snaps = simulate_sweep(pl)
    assert snaps[0] == snaps[-1]
