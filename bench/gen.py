"""Seeded arrangement generators for the benchmark.

Each generator takes a ``random.Random`` and returns arrangement text in the
format ``arrgroup.parse_arrangement`` reads (``a b c`` per line, meaning
a*x + b*y = c).  Before returning, it checks with its own exact arithmetic,
independent of arrgroup, that the arrangement has the combinatorics it was
built for: no two lines parallel, and the designed multiplicity at every
intersection point.  A draw that misses the design (an accidental triple
point, say) is redrawn from the same generator, so the result depends only on
the seed.

``homothety`` and ``rotate_brackets`` change an input's text without
changing the work the program does on it; the workloads use them to make a
seed's inputs from a fixed set of combinatorial types.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

CENTRES = 4  # k in "k-pencil"


class DesignError(AssertionError):
    """A generated arrangement does not have its designed combinatorics."""


def _meet(l1, l2):
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)


def multiplicities(lines):
    """Sorted multiplicities of the intersection points; raises DesignError
    on a parallel pair."""
    incident = {}
    for (i, l1), (j, l2) in combinations(enumerate(lines), 2):
        pt = _meet(l1, l2)
        if pt is None:
            raise DesignError(f"lines {i + 1} and {j + 1} are parallel")
        incident.setdefault(pt, set()).update((i, j))
    return sorted(len(s) for s in incident.values())


def expected_multiplicities(n, groups):
    """Multiplicities of n lines in general position except for the given
    concurrent groups (sizes), which pairwise share no line."""
    doubles = n * (n - 1) // 2 - sum(g * (g - 1) // 2 for g in groups)
    return sorted([2] * doubles + [g for g in groups if g >= 2])


def format_lines(lines):
    return "".join(f"{a} {b} {c}\n" for a, b, c in lines)


def _through(x, y, slope):
    # the line through (x, y) with this slope: -slope*X + Y = y - slope*x
    return (-slope, Fraction(1), y - slope * x)


def _rational(rng, lo, hi, den):
    return Fraction(rng.randint(lo * den, hi * den), rng.randint(1, den))


def _slopes(rng, n):
    """n distinct positive rational slopes, ascending."""
    slopes = set()
    while len(slopes) < n:
        m = _rational(rng, 0, 8, 5)
        if m:
            slopes.add(m)
    return sorted(slopes)


def _draw(build, expect):
    for _ in range(1000):
        lines = build()
        try:
            if multiplicities(lines) == expect:
                return lines
        except DesignError:
            pass
    raise DesignError("no draw met the design in 1000 attempts")


def k_pencil(rng, n):
    """n lines, line i of slope i/3 through centre i mod 4; the four centres
    are seeded rational points.  Design: one point of multiplicity about n/4
    per centre, every other point double."""
    groups = [len(range(c, n, CENTRES)) for c in range(CENTRES)]
    expect = expected_multiplicities(n, groups)

    def build():
        centres = [(_rational(rng, -20, 20, 3), _rational(rng, -20, 20, 3))
                   for _ in range(CENTRES)]
        return [_through(*centres[i % CENTRES], Fraction(i + 1, 3))
                for i in range(n)]

    return format_lines(_draw(build, expect))


def generic(rng, n):
    """n lines with distinct positive rational slopes in ascending order and
    seeded intercepts.  Design: every point double."""
    expect = expected_multiplicities(n, [])

    def build():
        return [_through(Fraction(0), _rational(rng, -30, 30, 4), m)
                for m in _slopes(rng, n)]

    return format_lines(_draw(build, expect))


def single_pencil(rng, n):
    """n lines through one seeded centre with distinct positive rational
    slopes.  Design: a single point of multiplicity n."""
    expect = [n]

    def build():
        x, y = _rational(rng, -20, 20, 3), _rational(rng, -20, 20, 3)
        return [_through(x, y, m) for m in _slopes(rng, n)]

    return format_lines(_draw(build, expect))


def parse_lines(text):
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if body:
            out.append(tuple(Fraction(t) for t in body))
    return out


def affine_image(rng, text):
    """A seeded invertible rational affine image of the arrangement, lines
    shuffled.  Design: the same multiplicities as the original."""
    lines = parse_lines(text)
    expect = multiplicities(lines)

    def build():
        while True:
            m = [[_rational(rng, -4, 4, 3) for _ in range(2)] for _ in range(2)]
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if det != 0:
                break
        tx, ty = _rational(rng, -10, 10, 2), _rational(rng, -10, 10, 2)
        # p' = M p + t; the line (a, b).p = c becomes
        # (a, b) M^-1 p' = c + (a, b) M^-1 t
        inv = [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]
        out = []
        for a, b, c in lines:
            a2 = a * inv[0][0] + b * inv[1][0]
            b2 = a * inv[0][1] + b * inv[1][1]
            out.append((a2, b2, c + a2 * tx + b2 * ty))
        rng.shuffle(out)
        return out

    return format_lines(_draw(build, expect))


def homothety(rng, text):
    """A seeded image of the arrangement under (x, y) -> (s*x + u, s*y + v)
    with s > 0.  It keeps every slope, the order of the intersection points
    along the x-axis and along each vertical line, and commutes with the
    shears genericize tries (up to a translation), so the wiring diagram,
    the shear chosen and the presentation are those of the original."""
    s = _rational(rng, 1, 6, 4)
    u, v = _rational(rng, -10, 10, 3), _rational(rng, -10, 10, 3)
    # the line a*x + b*y = c becomes a*x' + b*y' = s*c + a*u + b*v
    return format_lines([(a, b, s * c + a * u + b * v)
                         for a, b, c in parse_lines(text)])


def rotate_brackets(rng, text):
    """Presentation text with the entries of each bracket rotated by a
    seeded offset.  [ w1 ; ... ; wk ] states that the k cyclic rotations of
    the product are equal, so a rotation states the same relation, and
    parse_presentation, which stores each relation in a canonical rotation,
    returns the same presentation: hom_count does exactly the same work."""
    out = []
    for line in text.splitlines():
        if line.startswith("["):
            words = [w.strip() for w in line.strip()[1:-1].split(";")]
            r = rng.randrange(len(words))
            line = "[ " + " ; ".join(words[r:] + words[:r]) + " ]"
        out.append(line)
    return "\n".join(out) + "\n"
