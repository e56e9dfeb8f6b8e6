"""Exact rational plane geometry for line arrangements.

Lines are affine rational lines a*x + b*y = c.  Inputs and outputs are
``fractions.Fraction``; there is no floating point anywhere, so coincidence
detection (several lines through one point) is exact rather than a tolerance
judgement call.  The lattice kernel works in integer homogeneous
coordinates: each line is scaled once to integers, each pair of lines meets
at an integer triple (X, Y, E), E > 0, standing for (X/E, Y/E), and points
are merged and ordered on those triples before any ``Fraction`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import comb, gcd, lcm


class ArrangementError(ValueError):
    """Parse or construction failure, tagged with a stable error code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Line:
    """The line a*x + b*y = c, normalized so the first nonzero of (a, b) is 1."""

    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def make(a, b, c) -> "Line":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ArrangementError("degenerate-line", f"degenerate line 0*x + 0*y = {c}")
        lead = a if a != 0 else b
        return Line(a / lead, b / lead, c / lead)

    def contains(self, x: Fraction, y: Fraction) -> bool:
        return self.a * x + self.b * y == self.c

    @property
    def is_vertical(self) -> bool:
        return self.b == 0

    @property
    def slope(self) -> Fraction:
        if self.b == 0:
            raise ValueError("vertical line has no slope")
        return -self.a / self.b

    def __str__(self):
        return f"{self.a}*x + {self.b}*y = {self.c}"


@dataclass(frozen=True)
class Arrangement:
    """An ordered collection of pairwise distinct lines."""

    lines: tuple

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)


FIXTURES = ("pencil", "nearpencil", "triangle", "triangle_plus_line",
            "cycle5", "ceva")


def fixture_path(name: str):
    """The shipped arrangement file of the fixture ``name``."""
    if name not in FIXTURES:
        raise ArrangementError(
            "unknown-fixture",
            f"no fixture named {name!r}; run 'arrgroup fixture' for the list")
    from importlib import resources  # only here: it is slow to import
    return resources.files("arrgroup").joinpath(f"fixtures/{name}.lines")


def records(text: str):
    """The records of a line format: (lineno, body) for each line that is
    not blank once its ``#`` comment and surrounding blanks are dropped.
    Every text input of the package reads its lines through this."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def integer(token: str, lineno: int, what: str = "expected an integer") -> int:
    """int(token), or a ValueError naming the line."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: {what}, got {token!r}") from None


def _parse_rational(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ArrangementError(
            "malformed-rational", f"line {lineno}: cannot parse rational {token!r}"
        ) from None


def parse_arrangement(text: str) -> Arrangement:
    """Parse the arrangement file format.

    One line per arrangement line, three whitespace-separated rational tokens
    ``a b c`` meaning a*x + b*y = c.  ``#`` starts a comment, blank lines are
    skipped.  Lines are normalized; the file order is preserved.
    """
    lines = []
    for lineno, body in records(text):
        tokens = body.split()
        if len(tokens) != 3:
            raise ArrangementError(
                "malformed-rational",
                f"line {lineno}: expected 3 tokens, got {len(tokens)}",
            )
        a, b, c = (_parse_rational(t, lineno) for t in tokens)
        line = Line.make(a, b, c)
        if line in lines:
            raise ArrangementError("duplicate-line", f"line {lineno}: duplicate of {line}")
        lines.append(line)
    return Arrangement(tuple(lines))


@dataclass(frozen=True)
class IntersectionPoint:
    x: Fraction
    y: Fraction
    incident: tuple  # sorted 1-based line indices
    multiplicity: int


@dataclass(frozen=True)
class IntersectionLattice:
    points: tuple  # ascending in exact (x, y), as sort_points orders them
    n: int  # number of lines
    p: int  # number of multiple points (multiplicity >= 3)


def homogeneous(x: Fraction, y: Fraction):
    """The integer triple (X, Y, E), E > 0, with x = X/E and y = Y/E."""
    return (x.numerator * y.denominator, y.numerator * x.denominator,
            x.denominator * y.denominator)


def _compare_xy(p, q):
    """Negative, zero or positive as the point with homogeneous coordinates
    p comes before, at or after q in (x, y) order, by cross-multiplying."""
    return p[0] * q[2] - q[0] * p[2] or p[1] * q[2] - q[1] * p[2]


_xy_order = cmp_to_key(_compare_xy)


def sort_points(points) -> tuple:
    """The intersection points in ascending exact (x, y) order."""
    return tuple(sorted(
        points, key=lambda pt: _xy_order(homogeneous(pt.x, pt.y))))


def _integer_line(line: Line):
    """(A, B, C): the line scaled by the lcm of its denominators."""
    m = lcm(line.a.denominator, line.b.denominator, line.c.denominator)
    return tuple(v.numerator * (m // v.denominator)
                 for v in (line.a, line.b, line.c))


def compute_lattice(arr: Arrangement) -> IntersectionLattice:
    """All pairwise intersections, merged exactly into lattice points.

    Parallel pairs contribute no point.  Indices in ``incident`` are 1-based
    positions in the arrangement's line order.
    """
    if len(arr) == 0:
        raise ArrangementError("empty-arrangement", "arrangement has no lines")
    seen = {}
    for (i, (a1, b1, c1)), (j, (a2, b2, c2)) in combinations(
            enumerate(map(_integer_line, arr.lines), 1), 2):
        d = a1 * b2 - a2 * b1
        if d == 0:
            continue  # parallel (or equal, which Arrangement forbids)
        xn = c1 * b2 - c2 * b1
        yn = a1 * c2 - a2 * c1
        g = gcd(xn, yn, d) if d > 0 else -gcd(xn, yn, d)
        seen.setdefault((xn // g, yn // g, d // g), set()).update((i, j))
    points = tuple(
        IntersectionPoint(Fraction(xn, d), Fraction(yn, d),
                          tuple(sorted(inc)), len(inc))
        for (xn, yn, d), inc in sorted(seen.items(),
                                       key=lambda kv: _xy_order(kv[0])))
    p = sum(1 for pt in points if pt.multiplicity >= 3)
    return IntersectionLattice(points, len(arr), p)


@dataclass(frozen=True)
class MultipleGraph:
    """The graph on multiple points: edges are the segments between
    consecutive multiple points along each line that carries at least two of
    them."""

    vertices: tuple  # indices into lattice.points
    edges: tuple     # pairs (v1, v2) of vertex ids, tagged with the line index
    betti: int


def parallel_pairs(lat: IntersectionLattice):
    """The pairs (i, j), i < j, of parallel lines, ascending: the pairs no
    lattice point carries.  A point of multiplicity m carries C(m, 2) pairs,
    so there are none when those counts add up to C(n, 2)."""
    if sum(comb(pt.multiplicity, 2) for pt in lat.points) == comb(lat.n, 2):
        return []
    met = {pair for pt in lat.points for pair in combinations(pt.incident, 2)}
    return [pair for pair in combinations(range(1, lat.n + 1), 2)
            if pair not in met]


def components(vertices, edges):
    """The connected components of the graph on ``vertices`` with the edges
    (u, v), each a sorted tuple, in ascending order."""
    part = {v: {v} for v in vertices}
    for u, v in edges:
        if part[u] is not part[v]:
            part[u] |= part[v]
            for w in part[v]:
                part[w] = part[u]
    return sorted({tuple(sorted(p)) for p in part.values()})


def multiple_point_graph(lat: IntersectionLattice) -> MultipleGraph:
    vertices = tuple(i for i, pt in enumerate(lat.points) if pt.multiplicity >= 3)
    edges = []
    for line_idx in range(1, lat.n + 1):
        # the lattice's (x, y) order is the order along any one line: x is
        # strictly monotone on a non-vertical line, y on a vertical one
        on_line = [i for i in vertices if line_idx in lat.points[i].incident]
        for u, v in zip(on_line, on_line[1:]):
            edges.append((u, v, line_idx))
    ncomp = len(components(vertices, ((u, v) for u, v, _ in edges)))
    return MultipleGraph(vertices, tuple(edges),
                         len(edges) - len(vertices) + ncomp)
