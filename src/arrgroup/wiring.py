"""Sweep an arrangement into a wiring diagram.

Wires are numbered 1..ell bottom-to-top at x = +infinity, which for lines
y = m*x + b means ascending slope.  The sweep passes over the intersection
points from right to left; at each point the wires through it occupy a
contiguous interval [a, b] of current positions (the Lefschetz pair of the
point), and the interval reverses when the sweep crosses it.

The genericizing shear moves lines only: vankampen.sweep carries the
input's lattice to the sheared one, and _sweep_pairs is the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, gcd

from arrgroup.geometry import (Arrangement, IntersectionLattice, Line,
                               compute_lattice, homogeneous, integer,
                               parallel_pairs, records)


class WiringError(ValueError):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class PairList:
    ell: int
    pairs: tuple  # ((a, b), ...) in sweep order, rightmost point first


@dataclass(frozen=True)
class Transform:
    """The shear x -> x + t*y used to genericize; t = 0 is the identity."""

    t: Fraction

    def apply_line(self, line: Line) -> Line:
        # a(x - t*y') ... substituting x = x' - t*y' into a*x + b*y = c
        return Line.make(line.a, line.b - line.a * self.t, line.c)

    @property
    def is_identity(self):
        return self.t == 0


def _shear_parameters():
    """Deterministic enumeration of positive rationals p/q by height p+q,
    ascending numerator within a height: 1, 1/2, 2, 1/3, 3, 1/4, 2/3, ..."""
    height = 2
    while True:
        for p in range(1, height):
            q = height - p
            f = Fraction(p, q)
            if f.numerator == p and f.denominator == q:  # skip non-reduced
                yield f
        height += 1


def _generic_shear(arr: Arrangement, lat: IntersectionLattice) -> Transform:
    """The first shear, t = 0 included, under which no line is vertical and
    the points of ``lat`` (the lattice of ``arr``) have distinct
    x-coordinates.  Only finitely many t fail (one per vertical line and per
    pair of points), so the search ends.  With a point at (X/E, Y/E) and
    t = p/q, the sheared x is (q*X + p*Y) / (q*E), compared in lowest
    terms."""
    coords = [homogeneous(pt.x, pt.y) for pt in lat.points]

    def reduced(num, den):
        g = gcd(num, den)
        return num // g, den // g

    for t in chain((Fraction(0),), _shear_parameters()):
        p, q = t.numerator, t.denominator
        if (all(line.b != line.a * t for line in arr)
                and len({reduced(q * x + p * y, q * e) for x, y, e in coords})
                == len(coords)):
            return Transform(t)


def _reject_parallel(arr: Arrangement, lat: IntersectionLattice):
    """Raise parallel-lines naming the first parallel pair in file order:
    the monodromy pipeline assumes every pair of lines crosses."""
    parallel = parallel_pairs(lat)
    if parallel:
        i, j = parallel[0]
        raise WiringError("parallel-lines", "parallel lines present: "
                          f"{arr.lines[i - 1]} and {arr.lines[j - 1]}")


def _genericize(arr: Arrangement):
    """genericize, plus the lattice of the input arrangement."""
    lat = compute_lattice(arr)
    _reject_parallel(arr, lat)
    tf = _generic_shear(arr, lat)
    if tf.is_identity:
        return arr, tf, lat
    return Arrangement(tuple(tf.apply_line(line) for line in arr)), tf, lat


def genericize(arr: Arrangement):
    """Shear the arrangement until no line is vertical and all intersection
    points have distinct x-coordinates.  Parallel lines are rejected: the
    monodromy pipeline downstream assumes every pair of lines crosses.

    Returns (generic arrangement, Transform).
    """
    return _genericize(arr)[:2]


def lefschetz_pairs(arr: Arrangement) -> PairList:
    """Sweep a generic arrangement right-to-left and list the Lefschetz pairs.

    Requires genericity (use genericize first): no verticals, no parallels,
    distinct x-projections of intersection points.  Parallel lines raise
    the same parallel-lines error as genericize.
    """
    lat = compute_lattice(arr)
    _reject_parallel(arr, lat)
    for line in arr:
        if line.is_vertical:
            raise WiringError("not-generic", f"vertical line {line}")
    # the points are in (x, y) order, so a shared x is shared by neighbours
    if any(p.x == q.x for p, q in zip(lat.points, lat.points[1:])):
        raise WiringError("not-generic", "two intersection points share an x-coordinate")
    # wire w holds the line with the w-th smallest slope (1-based)
    return _sweep_pairs(lat, sorted(range(1, len(arr) + 1),
                                    key=lambda i: arr.lines[i - 1].slope))


def _sweep_pairs(lat: IntersectionLattice, order) -> PairList:
    """The sweep itself, for a lattice whose points have distinct x and
    the order of its lines bottom to top at x = +infinity: the sweep meets
    the points in reverse (x, y) order."""
    order = list(order)  # order[pos-1] = line index at height pos
    pairs = []
    for pt in reversed(lat.points):
        positions = sorted(order.index(i) + 1 for i in pt.incident)
        a, b = positions[0], positions[-1]
        if positions != list(range(a, b + 1)):
            raise WiringError(
                "not-generic",
                f"lines through ({pt.x}, {pt.y}) are not adjacent in the sweep",
            )
        pairs.append((a, b))
        order[a - 1: b] = order[a - 1: b][::-1]
    return PairList(len(order), tuple(pairs))


def validate_pairs(pl: PairList):
    """Check a pair list: ell >= 1, every pair has 1 <= a < b <= ell, and
    the multiplicities account for every pair of wires, as the sweep of an
    arrangement without parallels does: sum C(b-a+1, 2) = C(ell, 2).
    """
    if pl.ell < 1:
        raise WiringError("ell-out-of-range",
                          f"ell={pl.ell}, expected at least one wire")
    total = 0
    for (a, b) in pl.pairs:
        if not (1 <= a < b <= pl.ell):
            raise WiringError("pair-out-of-range", f"pair [{a},{b}] with ell={pl.ell}")
        total += comb(b - a + 1, 2)
    if total != comb(pl.ell, 2):
        raise WiringError(
            "pair-count-mismatch",
            f"pairs cover {total} crossings, expected C({pl.ell},2) = {comb(pl.ell, 2)}",
        )


def simulate_sweep(pl: PairList):
    """Wire order (bottom to top, by original wire id) before each point and
    at the end; used by the renderer and by tests."""
    order = list(range(1, pl.ell + 1))
    snapshots = [tuple(order)]
    for (a, b) in pl.pairs:
        order[a - 1: b] = order[a - 1: b][::-1]
        snapshots.append(tuple(order))
    return snapshots


# ---------------------------------------------------------------------------
# pairs file format
# ---------------------------------------------------------------------------

def format_pairs(pl: PairList) -> str:
    lines = [f"ell={pl.ell}"]
    lines.extend(f"{a} {b}" for (a, b) in pl.pairs)
    return "\n".join(lines) + "\n"


def parse_pairs(text: str) -> PairList:
    ell = None
    pairs = []
    for lineno, body in records(text):
        if ell is None:
            if not body.startswith("ell="):
                raise WiringError("bad-pairs-file", f"line {lineno}: expected ell=<n>")
            ell = integer(body[4:], lineno)
            continue
        toks = body.split()
        if len(toks) != 2:
            raise WiringError("bad-pairs-file", f"line {lineno}: expected 'a b'")
        pairs.append((integer(toks[0], lineno), integer(toks[1], lineno)))
    if ell is None:
        raise WiringError("bad-pairs-file", "missing ell= header")
    return PairList(ell, tuple(pairs))


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_STATION_DX = 60
_WIRE_DY = 30
_MARGIN = 40


def wiring_svg(pl: PairList) -> str:
    """Deterministic SVG picture of the wiring diagram.

    The sweep runs right-to-left, so point 1 is the rightmost station.  Wires
    are polylines through integer coordinates; stations carry their pair
    label.  Rendering is for human eyes; only determinism is contracted.
    The pair list must pass validate_pairs, as presentation's must.
    """
    validate_pairs(pl)
    n = len(pl.pairs)
    snapshots = simulate_sweep(pl)
    width = 2 * _MARGIN + (n + 1) * _STATION_DX
    height = 2 * _MARGIN + (pl.ell - 1) * _WIRE_DY + 20

    def gap_x(g):
        # gap g = 0 is right of every station (start of sweep)
        return _MARGIN + (n - g) * _STATION_DX + _STATION_DX // 2

    def level_y(pos):
        return height - _MARGIN - (pos - 1) * _WIRE_DY

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    palette = ["#1b6ca8", "#b6452c", "#3d8c40", "#8c3d86", "#8a7a24",
               "#24808a", "#5b5b5b", "#a8501b", "#4455cc", "#667711"]
    for wire in range(1, pl.ell + 1):
        pts = []
        for g, order in enumerate(snapshots):
            pos = order.index(wire) + 1
            pts.append(f"{gap_x(g)},{level_y(pos)}")
        color = palette[(wire - 1) % len(palette)]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        # label each wire at its starting (rightmost) end
        parts.append(
            f'<text x="{gap_x(0) + 8}" y="{level_y(wire) + 4}" '
            f'font-size="12" fill="{color}">{wire}</text>'
        )
    for i, (a, b) in enumerate(pl.pairs, 1):
        x = (gap_x(i - 1) + gap_x(i)) // 2
        parts.append(
            f'<text x="{x}" y="{height - 8}" font-size="10" '
            f'text-anchor="middle" fill="#333">[{a},{b}]</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
