"""Presentations of arrangement-complement fundamental groups.

One cyclic relation per intersection point.  A bracket [w1, ..., wk] encodes
the k-1 equalities obtained by cyclically sliding the descending product:

    wk w_{k-1} ... w1  =  w1 wk ... w3 w2  =  ...

The relation words for point i come from transporting the meridians of the
wires through the point back to the far right side of the diagram, through
the inverse half-twists of points 1..i-1, then shortening the resulting
word tuple by greedy simultaneous conjugation.  The shortening is sound: a
simultaneous conjugation of all bracket entries re-chooses the point where
the monodromy loop is split, which does not change the relation.

The transport is one walk over the points with a running table: images[g]
is the image of x_g under the inverse half-twists of the points swept so
far.  Point i reads its words off the table, then the table takes the
inverse half-twist of point i on a..b.  That twist has a closed form: for h
in a..b it sends x_{a+b-h} to T^-1 x_h T, with T = x_{h+1} ... x_b, and it
fixes every other generator.  Walking h down from b keeps T as a running
product of table entries, so each point costs a few word products and the
sweep is linear in the number of points.  The Artin action of braids on
words is not part of the program; the tests keep it as the independent
reference this walk is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from arrgroup.braid import (format_word, free_reduce, parse_word,
                            substitute, word_inverse, word_mul)
from arrgroup.geometry import (Arrangement, IntersectionLattice,
                               IntersectionPoint, integer, records,
                               sort_points)
from arrgroup.wiring import (PairList, Transform, _genericize, _sweep_pairs,
                             validate_pairs)


def conjugate_all(words, v):
    """Simultaneously conjugate every entry: w -> v^-1 w v."""
    vi = word_inverse(v)
    return tuple(word_mul(vi, w, v) for w in words)


def conjugate_letter(words, g):
    """Simultaneously conjugate every entry by one letter: w -> g^-1 w g.

    Entries must be freely reduced tuples; then this equals
    ``conjugate_all(words, (g,))``, found by trimming or extending each
    entry at its two ends instead of multiplying it out."""
    out = []
    for w in words:
        w = w[1:] if w and w[0] == g else (-g,) + w
        out.append(w[:-1] if w and w[-1] == -g else w + (g,))
    return tuple(out)


def greedy_shorten(words, ngens):
    """Strict-greedy minimal-total-length simultaneous conjugation.

    Apply single-letter conjugations that strictly shorten the total length
    until none does.  Deterministic.  Entries must be freely reduced.

    Conjugating a nonempty entry w by x changes its length by
    (-1 if w[0] == x else +1) + (-1 if w[-1] == -x else +1), and leaves an
    empty entry empty, so x shortens the bracket exactly when x is the first
    letter of, or -x the last letter of, more than k entries in total, k the
    number of nonempty entries.  Two letters cannot both pass that test (the
    2k ends would have to hold more than 2k letters), so the letter to take
    is unique and no order of trial matters.
    """
    cur = tuple(words)
    while True:
        k = 0
        ends = {}
        for w in cur:
            if w:
                k += 1
                ends[w[0]] = ends.get(w[0], 0) + 1
                ends[-w[-1]] = ends.get(-w[-1], 0) + 1
        x = next((x for x, n in ends.items() if n > k and abs(x) <= ngens),
                 None)
        if x is None:
            return cur
        cur = conjugate_letter(cur, x)


def canonical_rotation(words):
    """Lexicographically least cyclic rotation of the word tuple."""
    rots = [tuple(words[i:] + words[:i]) for i in range(len(words))]
    return min(rots)


def rotation_products(words):
    """The k equal products of a bracket, one per split point, freely
    reduced: product m is w_m w_{m-1} ... w_1 w_k ... w_{m+1} (1-based)."""
    k = len(words)
    out = []
    for m in range(k):
        idx = list(range(m - 1, -1, -1)) + list(range(k - 1, m - 1, -1))
        out.append(word_mul(*[words[t] for t in idx]))
    return out


@dataclass(frozen=True)
class CyclicRelation:
    """Bracket relation [w1, ..., wk]; stored greedily shortened and in the
    least rotation, so equal brackets compare equal."""

    words: tuple

    @staticmethod
    def make(words, ngens) -> "CyclicRelation":
        words = tuple(free_reduce(w, ngens) for w in words)
        if len(words) < 2:
            raise ValueError("a cyclic relation needs at least 2 entries")
        return CyclicRelation(canonical_rotation(greedy_shorten(words, ngens)))

    @property
    def k(self):
        return len(self.words)

    def __str__(self):
        return "[ " + " ; ".join(format_word(w) for w in self.words) + " ]"


@dataclass(frozen=True)
class Presentation:
    ngens: int
    relations: tuple  # of CyclicRelation
    kind: str = "affine"  # or "projective"

    def __post_init__(self):
        if self.ngens < 0:
            raise ValueError(f"negative generator count {self.ngens}")
        if self.kind not in ("affine", "projective"):
            raise ValueError(f"presentation kind must be affine or "
                             f"projective, got {self.kind!r}")
        for rel in self.relations:
            for w in rel.words:
                for c in w:
                    if not 0 < abs(c) <= self.ngens:
                        raise ValueError(f"generator index {c} out of range "
                                         f"1..{self.ngens}")


def _point_words(pl: PairList):
    """Yield each point's raw relation words in list order: the meridians
    x_a..x_b of the wires through the point, carried through the inverse
    half-twists of the points before it.  The first point gets plain
    generators."""
    # images[g]: x_g under the inverse half-twists of the points swept so far
    images = [()] + [(g,) for g in range(1, pl.ell + 1)]
    last = len(pl.pairs)
    for i, (a, b) in enumerate(pl.pairs, 1):
        yield [tuple(reversed(images[t])) for t in range(a, b + 1)]
        if i == last:
            return  # no point reads the table after the last one
        # the inverse half-twist on a..b: x_{a+b-h} -> T^-1 x_h T, with
        # tail = T = x_{h+1} ... x_b read through the table
        new, tail = [], ()
        for h in range(b, a - 1, -1):
            new.append(word_mul(word_inverse(tail), images[h], tail))
            tail = word_mul(images[h], tail)
        images[a:b + 1] = new


def point_relation_words(pl: PairList, i: int):
    """Relation words of point i (1-based), before shortening: item i of the
    walk ``presentation`` makes its brackets from.  Each call walks points
    1..i, so reading every point this way takes time quadratic in their
    number."""
    if not (1 <= i <= len(pl.pairs)):
        raise ValueError(f"point index {i} out of range 1..{len(pl.pairs)}")
    return next(islice(_point_words(pl), i - 1, None))


def presentation(pl: PairList) -> Presentation:
    """The affine presentation: ngens = number of wires, one bracket per
    point."""
    validate_pairs(pl)
    return Presentation(pl.ell, tuple(CyclicRelation.make(words, pl.ell)
                                      for words in _point_words(pl)),
                        "affine")


@dataclass(frozen=True)
class Sweep:
    """What the sweep derives from one arrangement: the arrangement sheared
    to generic position, the shear, its lattice, its Lefschetz pairs and
    (computed on first use) its van Kampen presentation.  Lines are
    numbered by wire, so line j of ``generic`` and ``lattice`` is
    generator x_j; ``lines[j-1]`` is its line in the input."""

    generic: Arrangement
    transform: Transform
    lattice: IntersectionLattice
    pairs: PairList
    lines: tuple

    @cached_property
    def presentation(self) -> Presentation:
        return presentation(self.pairs)


def sweep(arr: Arrangement) -> Sweep:
    """Shear an arrangement to generic position and sweep it.  The lattice
    is computed once, on the input, and this is the one place that makes
    the swept lattice of it: each point's lines renumbered by wire
    (ascending slope of the sheared lines), its coordinates sheared, and
    the points sorted in the sheared (x, y) order."""
    sheared, transform, lattice = _genericize(arr)
    lines = tuple(sorted(range(1, len(arr) + 1),
                         key=lambda i: sheared.lines[i - 1].slope))
    wire = {line: w for w, line in enumerate(lines, 1)}
    t = transform.t
    lattice = IntersectionLattice(sort_points(IntersectionPoint(
        pt.x + t * pt.y, pt.y, tuple(sorted(wire[i] for i in pt.incident)),
        pt.multiplicity) for pt in lattice.points), lattice.n, lattice.p)
    generic = Arrangement(tuple(sheared.lines[i - 1] for i in lines))
    # numbered by wire, the lines lie in the order 1..n at x = +infinity
    return Sweep(generic, transform, lattice,
                 _sweep_pairs(lattice, range(1, len(arr) + 1)), lines)


def projectivize(p: Presentation) -> Presentation:
    """Impose the far-side relation x_n ... x_2 x_1 = e and eliminate x_n.

    Relations whose split-point equalities all become free identities are
    dropped.  No other simplification happens here.
    """
    if p.kind != "affine":
        raise ValueError("presentation is already projective")
    if p.ngens == 0:
        raise ValueError("a presentation with no generators has no far-side "
                         "relation to impose")
    n = p.ngens
    # x_n -> (x_{n-1} ... x_1)^-1; every other generator is fixed
    images = [()] + [(g,) for g in range(1, n)]
    images.append(tuple(-g for g in range(1, n)))
    rels = []
    for rel in p.relations:
        words = tuple(substitute(images, w) for w in rel.words)
        new = CyclicRelation.make(words, n - 1)
        if len(set(rotation_products(new.words))) == 1:
            continue  # trivially satisfied after elimination
        rels.append(new)
    return Presentation(n - 1, tuple(rels), "projective")


def candidate_cf(lattice, ordering=None) -> Presentation:
    """The lattice-determined conjugation-free candidate: one plain bracket
    per intersection point, entries the generators of the incident lines in
    ascending label order.

    ordering, when given, lists the lines in generator order (line
    ordering[j-1] becomes generator j); the candidate is always emitted in
    ascending generator labels, so the choice of ordering only changes the
    cyclic order of the entries at each multiple point.
    """
    n = lattice.n
    if ordering is None:
        ordering = tuple(range(1, n + 1))
    if sorted(ordering) != list(range(1, n + 1)):
        raise ValueError("ordering must be a permutation of the lines")
    slot = {line: j + 1 for j, line in enumerate(ordering)}
    rels = []
    for pt in lattice.points:
        gens = sorted(slot[i] for i in pt.incident)
        rels.append(CyclicRelation.make(tuple((g,) for g in gens), n))
    return Presentation(n, tuple(rels), "affine")


def is_conjugation_free(p: Presentation) -> bool:
    """True when every relation is a plain bracket: single positive-letter
    entries, strictly ascending within each bracket."""
    for rel in p.relations:
        letters = []
        for w in rel.words:
            if len(w) != 1 or w[0] < 0:
                return False
            letters.append(w[0])
        if letters != sorted(set(letters)):
            return False
    return True


def relabel_presentation(p: Presentation, newlabels) -> Presentation:
    """Rename generator j to newlabels[j-1] (a permutation); relations are
    re-canonicalized under the new labels."""
    if sorted(newlabels) != list(range(1, p.ngens + 1)):
        raise ValueError("newlabels must be a permutation of the generators")

    images = [()] + [(g,) for g in newlabels]
    rels = tuple(
        CyclicRelation.make(
            tuple(substitute(images, w) for w in rel.words), p.ngens)
        for rel in p.relations)
    return Presentation(p.ngens, rels, p.kind)


# ---------------------------------------------------------------------------
# presentation file formats
# ---------------------------------------------------------------------------

def format_presentation(p: Presentation) -> str:
    lines = [f"gens={p.ngens}", f"kind={p.kind}"]
    lines.extend(str(rel) for rel in p.relations)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    ngens = None
    kind = "affine"
    rels = []
    for lineno, body in records(text):
        if body.startswith("gens="):
            ngens = integer(body[5:], lineno, "gens= expects an integer")
            continue
        if body.startswith("kind="):
            kind = body[5:].strip()
            continue
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"line {lineno}: expected [ w1 ; w2 ; ... ]")
        if ngens is None:
            raise ValueError("missing gens= header before relations")
        inner = body[1:-1].strip()
        try:
            words = tuple(parse_word(part) for part in inner.split(";"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}")
        rels.append(CyclicRelation.make(words, ngens))
    if ngens is None:
        raise ValueError("missing gens= header")
    return Presentation(ngens, tuple(rels), kind)


def format_presentation_json(p: Presentation) -> str:
    doc = {
        "ngens": p.ngens,
        "kind": p.kind,
        "relations": [[list(w) for w in rel.words] for rel in p.relations],
    }
    return json.dumps(doc, indent=2) + "\n"


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def parse_presentation_json(text: str) -> Presentation:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not _is_int(doc.get("ngens")):
        raise ValueError("presentation JSON needs an integer 'ngens'")
    relations = doc.get("relations")
    if not (isinstance(relations, list) and all(
            isinstance(words, list) and all(
                isinstance(w, list) and all(_is_int(c) for c in w)
                for w in words)
            for words in relations)):
        raise ValueError("presentation JSON needs 'relations': a list of "
                         "brackets, each a list of integer lists")
    rels = tuple(
        CyclicRelation.make([tuple(w) for w in words], doc["ngens"])
        for words in relations
    )
    return Presentation(doc["ngens"], rels, doc.get("kind", "affine"))
