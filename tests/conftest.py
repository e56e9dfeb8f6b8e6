"""Shared helpers: fixture loading, the cached sweep of each fixture,
affine images of arrangements, random arrangements and the canonical form
of a bracket."""

from __future__ import annotations

import functools
import time
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from arrgroup import (Arrangement, Line, Sweep, fixture_path,
                      parse_arrangement, sweep)
from arrgroup.vankampen import (canonical_rotation, conjugate_letter,
                                greedy_shorten)

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

SESSION_T0 = time.perf_counter()


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text()


def fixture_file(name: str) -> str:
    """The fixture's file name, as the command line takes it."""
    return str(fixture_path(name))


def fixture_arrangement(name: str) -> Arrangement:
    return parse_arrangement(fixture_text(name))


# Seven lines through one triple and one quadruple point, every other
# point double: 5,040 orderings give 12 distinct candidates.
TRIPLE_QUADRUPLE = """\
0 1 -2
1 -1/3 -2/3
1 -2 2
1 -3/2 2
1 1/2 -2
1 1/3 -5/3
1 3 -5
"""


@functools.cache
def pipeline(name: str) -> Sweep:
    """The sweep of one fixture, computed once per session."""
    return sweep(fixture_arrangement(name))


def affine_image(arr, matrix, shift):
    """The arrangement's image under p -> M p + shift: the line n.p = c
    goes to (n M^-1).q = c + (n M^-1).shift."""
    (a, b), (c, d) = ((Fraction(v) for v in row) for row in matrix)
    det = a * d - b * c
    lines = []
    for line in arr.lines:
        na = (line.a * d - line.b * c) / det
        nb = (line.b * a - line.a * b) / det
        lines.append(Line.make(na, nb, line.c + na * shift[0] + nb * shift[1]))
    return Arrangement(tuple(lines))


CANONICAL_CAP = 512  # canonical_form stops widening its plateau walk here


def canonical_form(words, ngens):
    """Conjugation-and-rotation canonical representative of a bracket.

    Greedy shortening first, then a breadth-first walk over all simultaneous
    single-letter conjugations that keep the minimal total length (plateau,
    capped), finally the least rotation of them all.
    Two brackets related by simultaneous conjugation and rotation map to the
    same representative (within the plateau cap, which desk-scale inputs
    never reach).
    """
    start = greedy_shorten(words, ngens)
    total = sum(len(w) for w in start)
    seen = {start}
    frontier = [start]
    while frontier and len(seen) < CANONICAL_CAP:
        nxt = []
        for cur in frontier:
            for g in range(1, ngens + 1):
                for s in (1, -1):
                    cand = conjugate_letter(cur, s * g)
                    if sum(len(w) for w in cand) == total and cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return min(canonical_rotation(t) for t in seen)


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def arrangements(draw):
    nlines = draw(st.integers(min_value=1, max_value=6))
    lines = []
    for _ in range(nlines):
        a = draw(rationals)
        b = draw(rationals)
        if a == 0 and b == 0:
            b = Fraction(1)
        line = Line.make(a, b, draw(rationals))
        if line not in lines:
            lines.append(line)
    return Arrangement(tuple(lines))


wide_rationals = st.fractions(min_value=-40, max_value=40,
                              max_denominator=97)


@st.composite
def wide_arrangements(draw):
    """Up to 10 lines with larger denominators, mixing free lines, lines
    through one of two drawn centres (pencils), lines parallel to an
    earlier line and vertical lines."""
    centres = draw(st.lists(st.tuples(wide_rationals, wide_rationals),
                            min_size=2, max_size=2))
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(("centre", "free", "centre", "parallel",
                                     "centre", "vertical")))
        if kind == "parallel" and lines:
            a, b = draw(st.sampled_from([(l.a, l.b) for l in lines]))
        elif kind == "vertical":
            a, b = Fraction(1), Fraction(0)
        else:
            a, b = draw(wide_rationals), draw(wide_rationals)
            if a == 0 and b == 0:
                b = Fraction(1)
        if kind == "centre":
            x0, y0 = draw(st.sampled_from(centres))
            c = a * x0 + b * y0
        else:
            c = draw(wide_rationals)
        line = Line.make(a, b, c)
        if line not in lines:
            lines.append(line)
    return Arrangement(tuple(lines))


@pytest.fixture(scope="session")
def session_start() -> float:
    return SESSION_T0


def pytest_collection_modifyitems(items):
    # the acceptance gate checks whole-suite wall clock, so it goes last
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
