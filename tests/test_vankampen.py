"""Presentations from pair lists: golden targets, canonical forms, candidates."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrgroup import (
    FIXTURES,
    Arrangement,
    CyclicRelation,
    Presentation,
    candidate_cf,
    compute_lattice,
    format_presentation,
    format_presentation_json,
    free_reduce,
    is_conjugation_free,
    lefschetz_pairs,
    parse_arrangement,
    parse_presentation,
    parse_presentation_json,
    point_relation_words,
    presentation,
    projectivize,
    relabel_presentation,
    sweep,
    word_inverse,
    word_mul,
)
from arrgroup.geometry import parallel_pairs
from arrgroup.vankampen import (conjugate_all, conjugate_letter,
                                greedy_shorten, rotation_products)
from arrgroup.wiring import PairList
from conftest import (arrangements, canonical_form, fixture_arrangement,
                      pipeline, wide_arrangements)
from reference import artin_relation_words
from test_golden import WIDE_PAIRS, _through, generic_10, generic_12, k_pencil


def conj(c, core):
    return word_mul(c, core, word_inverse(c))


# Stored relations of the 6-line triangle fixture (three triple points,
# double points filled in), exactly as the sweep emits them.
TRIANGLE_RELATIONS = [
    ((2,), (3,)),
    ((1,), (3,)),
    ((1,), (2,), (-3, 4, 3)),
    ((4, 3, 2, 1, -2, -3, -4), (5,), (6,)),
    ((4, 3, 2, -3, -4), (6,)),
    ((4, 3, 2, -3, -4), (5,)),
    ((4,), (6,)),
    ((3,), (6,)),
    ((3,), (4,), (5,)),
]


def cycle5_relation_families():
    """The 35 relations of the 10-line cycle-of-5 fixture, organised by the
    quadrilateral and triangle families the arrangement decomposes into."""
    rels = []
    # far-apart double points around wires 7 and 8
    for i in (2, 3):
        rels.append(((2 * i,), (7,)))
        rels.append(((2 * i - 1,), (7,)))
        rels.append(((2 * i,), conj((-7,), (8,))))
        rels.append(((2 * i - 1,), conj((-7,), (8,))))
    # commutators across the longer diagonals; the conjugator threads down
    # through the wires in between, so it is the mirrored ascending run
    for i, j in ((1, 3), (1, 5), (2, 5)):
        c1 = tuple(-g for g in range(2 * i + 1, 2 * j))
        rels.append(((2 * i,), conj(c1, (2 * j,))))
        rels.append(((2 * i - 1,), conj((-2 * i,) + c1, (2 * j,))))
        c3 = tuple(-g for g in range(2 * i + 1, 2 * j - 1))
        rels.append(((2 * i,), conj(c3, (2 * j - 1,))))
        rels.append(((2 * i - 1,), conj((-2 * i,) + c3, (2 * j - 1,))))
    # triple point tying wires 1, 2 to the conjugated 8
    rels.append(((2,), (7,)))
    rels.append(((1,), (7,)))
    rels.append(((1,), (2,), conj((-7,), (8,))))
    # two plain triangles along the bottom
    for i in (1, 2):
        rels.append((conj((2 * i,), (2 * i - 1,)), (2 * i + 1,), (2 * i + 2,)))
        rels.append(((2 * i,), (2 * i + 2,)))
        rels.append(((2 * i,), (2 * i + 1,)))
    # the conjugated triangle at the top
    rels.append((conj((8, 7, 6), (5,)), (9,), (10,)))
    rels.append(((6,), conj((-7, -8), (10,))))
    rels.append(((6,), conj((-7, -8), (9,))))
    # and the last plain one
    rels.append(((8,), (10,)))
    rels.append(((7,), (10,)))
    rels.append(((7,), (8,), (9,)))
    return rels


def test_triangle_presentation_matches_stored_targets():
    tri = pipeline("triangle").presentation
    assert tri.ngens == 6
    expected = {CyclicRelation.make(words, 6) for words in TRIANGLE_RELATIONS}
    assert set(tri.relations) == expected


def test_one_relation_per_lattice_point():
    for name in ("triangle", "cycle5", "ceva"):
        pipe = pipeline(name)
        assert pipe.presentation.ngens == pipe.pairs.ell
        assert len(pipe.presentation.relations) == len(pipe.lattice.points)


def test_first_point_relation_needs_no_transport():
    pl = pipeline("triangle").pairs
    assert point_relation_words(pl, 1) == [(2,), (3,)]


@pytest.mark.parametrize("i", [0, 10, -1])
def test_point_relation_words_rejects_point_indices_out_of_range(i):
    pl = pipeline("triangle").pairs  # 9 points
    with pytest.raises(ValueError, match=f"point index {i} out of range 1..9"):
        point_relation_words(pl, i)


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_presentation_rejects_generator_indices_out_of_range(letter):
    # CyclicRelation's constructor stores words unchecked; make() reduces
    # them first and rejects index 0 there
    rel = CyclicRelation(((letter,), (1,)))
    with pytest.raises(ValueError,
                       match=f"generator index {letter} out of range 1..2"):
        Presentation(2, (rel,))


def test_cyclic_relation_requires_two_entries():
    with pytest.raises(ValueError):
        CyclicRelation.make(((1,),), 3)


def test_cyclic_relation_canonical_under_rotation_and_conjugation():
    base = CyclicRelation.make(((1,), (2,), (3,)), 3)
    assert CyclicRelation.make(((3,), (1,), (2,)), 3) == base
    conjugated = tuple(conj((2, -1), w) for w in ((1,), (2,), (3,)))
    assert CyclicRelation.make(conjugated, 3) == base


def test_rotation_products_slide_the_cyclic_product():
    rel = CyclicRelation.make(((1,), (2,), (3,)), 3)
    assert set(rotation_products(rel.words)) == {(3, 2, 1), (1, 3, 2), (2, 1, 3)}


letters = st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0)
short_words = st.lists(letters, min_size=1, max_size=2).map(tuple)


def greedy_shorten_every_letter(words, ngens):
    """The reference greedy: try every conjugating letter in the order x1,
    x1^-1, x2, ..., take the first that strictly shortens, restart."""
    cur = tuple(words)
    best = sum(len(w) for w in cur)
    improved = True
    while improved:
        improved = False
        for g in range(1, ngens + 1):
            for s in (1, -1):
                cand = conjugate_letter(cur, s * g)
                tot = sum(len(w) for w in cand)
                if tot < best:
                    cur, best, improved = cand, tot, True
                    break
            if improved:
                break
    return cur


entries = st.one_of(st.just(()), letters.map(lambda c: (c,)),
                    st.lists(letters, max_size=6).map(free_reduce))


@given(st.lists(entries, min_size=1, max_size=5),
       st.lists(letters, max_size=4).map(tuple))
def test_greedy_shorten_matches_every_letter_reference(words, c):
    for bracket in (words, [free_reduce(conj(c, w)) for w in words]):
        assert (greedy_shorten(bracket, 4)
                == greedy_shorten_every_letter(bracket, 4))


@given(
    st.lists(short_words, min_size=2, max_size=3),
    st.lists(letters, max_size=3).map(tuple),
    st.integers(min_value=0, max_value=2),
)
def test_canonical_form_invariant_under_conjugation_and_rotation(words, c, rot):
    words = [free_reduce(w, 4) for w in words]
    moved = [free_reduce(conj(c, w), 4) for w in words]
    rot = rot % len(moved)
    moved = moved[rot:] + moved[:rot]
    assert canonical_form(moved, 4) == canonical_form(words, 4)


@given(st.lists(st.lists(letters, max_size=6).map(free_reduce), min_size=2,
                max_size=4),
       st.integers(min_value=1, max_value=4))
def test_conjugate_letter_matches_conjugate_all(words, g):
    for letter in (g, -g):
        assert conjugate_letter(words, letter) == conjugate_all(words,
                                                                (letter,))


def assert_matches_the_artin_action(pl, pres):
    """Every point's raw words, before any shortening and as lists of
    tuples, and the presentation's brackets equal those of the Artin
    action's per-point transport."""
    points = range(1, len(pl.pairs) + 1)
    raw = [artin_relation_words(pl, i) for i in points]
    assert [point_relation_words(pl, i) for i in points] == raw
    assert pres.relations == tuple(CyclicRelation.make(words, pl.ell)
                                   for words in raw)


def seeded_lines(family, n, seed):
    """A k-pencil (line i of slope i/3 through centre i mod 4), a generic
    arrangement or a single pencil on n lines, from seeded rationals."""
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 3))

    if family == "k-pencil":
        centres = [(rational(), rational()) for _ in range(4)]
        return "".join(_through(*centres[i % 4], Fraction(i + 1, 3))
                       for i in range(n))
    slopes = [Fraction(m, 5) for m in sorted(rng.sample(range(1, 200), n))]
    if family == "generic":
        return "".join(_through(0, rational(), m) for m in slopes)
    centre = (rational(), rational())
    return "".join(_through(*centre, m) for m in slopes)


# The two small lists need not be realizable: the sweep only asks that the
# points account for every crossing, sum C(b - a + 1, 2) = C(ell, 2).
HAND_PAIRS = {
    "wide-middle-and-end": PairList(12, WIDE_PAIRS),
    "wide-in-middle": PairList(6, ((2, 3), (1, 4), (5, 6), (1, 2), (2, 5))),
    "wide-at-end": PairList(5, ((1, 3), (4, 5), (2, 5))),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_presentation_matches_per_point_reference_on_fixtures(name):
    pipe = pipeline(name)
    assert_matches_the_artin_action(pipe.pairs, pipe.presentation)


@pytest.mark.parametrize("family", ["k-pencil", "generic", "pencil"])
@pytest.mark.parametrize("n, seed", [(5, 1), (8, 2), (12, 3), (16, 4)])
def test_presentation_matches_per_point_reference_on_seeded(family, n, seed):
    pl = sweep(parse_arrangement(seeded_lines(family, n, seed))).pairs
    assert_matches_the_artin_action(pl, presentation(pl))


@pytest.mark.parametrize("text", [k_pencil(8), k_pencil(12), k_pencil(16),
                                  generic_10(), generic_12()],
                         ids=["kp8", "kp12", "kp16", "generic10", "generic12"])
def test_presentation_matches_per_point_reference_on_ladders(text):
    pl = sweep(parse_arrangement(text)).pairs
    assert_matches_the_artin_action(pl, presentation(pl))


@pytest.mark.parametrize("name", sorted(HAND_PAIRS))
def test_presentation_matches_per_point_reference_on_wide_pairs(name):
    pl = HAND_PAIRS[name]
    assert_matches_the_artin_action(pl, presentation(pl))


@pytest.mark.parametrize("name", FIXTURES + ("needs-a-shear",))
def test_sweep_numbers_the_lines_by_wire(name):
    arr = (parse_arrangement("2 1 1\n1 1 0\n-2 1 1\n-1 1 0")
           if name == "needs-a-shear" else fixture_arrangement(name))
    shuffled = Arrangement(tuple(random.Random(3).sample(arr.lines, len(arr))))
    for source in (arr, shuffled):
        swept = sweep(source)
        assert sorted(swept.lines) == list(range(1, len(arr) + 1))
        assert swept.generic.lines == tuple(
            swept.transform.apply_line(source.lines[i - 1])
            for i in swept.lines)
        slopes = [line.slope for line in swept.generic]
        assert slopes == sorted(slopes)
        # line j of the lattice is wire j, generator x_j
        assert swept.lattice == compute_lattice(swept.generic)
    assert sweep(arr).pairs == swept.pairs
    if name in FIXTURES:  # every fixture lists its lines in wire order
        assert sweep(arr).lines == tuple(range(1, len(arr) + 1))


@settings(max_examples=25)
@given(st.one_of(arrangements(), wide_arrangements()), st.randoms())
def test_sweep_lattice_and_pairs_match_the_generic_arrangement(arr, rng):
    # sweep builds its lattice from the input's, renumbered, sheared and
    # sorted, and walks it in wire order; lefschetz_pairs recomputes the
    # lattice and walks it in slope order: both must agree
    assume(not parallel_pairs(compute_lattice(arr)))
    swept = sweep(Arrangement(tuple(rng.sample(arr.lines, len(arr)))))
    assert swept.lattice == compute_lattice(swept.generic)
    assert lefschetz_pairs(swept.generic) == swept.pairs


def test_candidate_is_conjugation_free():
    for name in ("triangle", "cycle5", "ceva"):
        pipe = pipeline(name)
        cand = candidate_cf(pipe.lattice)
        assert is_conjugation_free(cand)
        assert len(cand.relations) == len(pipe.lattice.points)
        assert not is_conjugation_free(pipe.presentation)
    # single positive letters, but not in ascending order
    assert not is_conjugation_free(Presentation(
        3, (CyclicRelation.make(((1,), (3,), (2,)), 3),)))


def test_candidate_ordering_must_permute_the_lines():
    lattice = pipeline("triangle").lattice
    for ordering in ((1, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5), (2, 3, 4, 5, 6, 7)):
        with pytest.raises(ValueError, match="permutation of the lines"):
            candidate_cf(lattice, ordering)


def test_candidate_bracket_sizes_follow_multiplicities():
    pipe = pipeline("triangle")
    cand = candidate_cf(pipe.lattice)
    sizes = sorted(rel.k for rel in cand.relations)
    mults = sorted(pt.multiplicity for pt in pipe.lattice.points)
    assert sizes == mults


def test_projectivize_pencil_gives_free_group_of_rank_two():
    proj = projectivize(pipeline("pencil").presentation)
    assert proj.ngens == 2
    assert proj.relations == ()
    assert proj.kind == "projective"
    with pytest.raises(ValueError):
        projectivize(proj)


def test_projectivize_two_lines_gives_the_integers():
    pres = presentation_from_lines("1 0 0\n0 1 0")
    proj = projectivize(pres)
    assert proj.ngens == 1
    assert proj.relations == ()


def test_projectivize_needs_a_generator():
    # one line's affine group is Z, its projective group trivial
    assert projectivize(presentation(PairList(1, ()))) == Presentation(
        0, (), "projective")
    with pytest.raises(ValueError, match="^a presentation with no generators "
                                         "has no far-side relation"):
        projectivize(Presentation(0, ()))


def presentation_from_lines(text):
    from arrgroup import genericize, lefschetz_pairs, parse_arrangement, presentation

    generic, _ = genericize(parse_arrangement(text))
    return presentation(lefschetz_pairs(generic))


def test_relabel_round_trip():
    tri = pipeline("triangle").presentation
    perm = (3, 1, 2, 6, 4, 5)
    inverse = tuple(perm.index(i) + 1 for i in range(1, 7))
    assert relabel_presentation(relabel_presentation(tri, perm), inverse) == tri
    assert relabel_presentation(tri, (1, 2, 3, 4, 5, 6)) == tri
    with pytest.raises(ValueError):
        relabel_presentation(tri, (1, 1, 2, 3, 4, 5))


def test_presentation_text_round_trip():
    tri = pipeline("triangle").presentation
    assert parse_presentation(format_presentation(tri)) == tri
    cand = candidate_cf(pipeline("triangle").lattice)
    assert parse_presentation(format_presentation(cand)) == cand


def test_presentation_json_round_trip():
    c5 = pipeline("cycle5").presentation
    assert parse_presentation_json(format_presentation_json(c5)) == c5


def test_parse_presentation_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_presentation("[ x1 ; x2 ]\n")
    with pytest.raises(ValueError):
        parse_presentation("gens=3\nx1 x2\n")
    with pytest.raises(ValueError, match="^missing gens= header$"):
        parse_presentation("kind=affine\n")
