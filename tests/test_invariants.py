"""Abelianization, finite group tables and homomorphism counting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrgroup import (
    FIXTURES,
    CyclicRelation,
    FiniteGroupTable,
    GroupTableError,
    Arrangement,
    Line,
    Presentation,
    abelianization,
    builtin_group,
    compute_lattice,
    hom_count,
    hom_count_scalar,
    orbit_table,
    parse_group_table,
    smith_diagonal,
    sweep,
)
from arrgroup.invariants import BUILTIN_GROUPS
from conftest import pipeline
from reference import format_group_table, group_table_error


def test_smith_diagonal_known_matrices():
    assert smith_diagonal([[2, 4], [6, 8]], 2) == [2, 4]
    assert smith_diagonal([[1, 0], [0, 1]], 2) == [1, 1]
    assert smith_diagonal([], 3) == []
    assert smith_diagonal([[0, 0]], 2) == []
    assert smith_diagonal([[6]], 1) == [6]
    assert smith_diagonal([[2, 0], [0, 3]], 2) == [1, 6]


small_matrices = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    min_size=1,
    max_size=3,
)


@given(small_matrices)
def test_smith_diagonal_divisibility_chain(rows):
    diag = smith_diagonal(rows, 3)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_abelianizations_are_free_of_full_rank(name):
    pres = pipeline(name).presentation
    inv = abelianization(pres)
    assert inv.rank == pres.ngens
    assert inv.torsion == ()
    assert str(inv) == f"Z^{pres.ngens}"


@pytest.mark.parametrize(
    "name, order", [("S3", 6), ("S4", 24), ("A4", 12), ("D4", 8), ("A5", 60)]
)
def test_builtin_group_orders(name, order):
    g = builtin_group(name)
    assert g.order == order
    assert len(g.names) == order
    assert all(g.table[a][g.inverse[a]] == 0 for a in range(order))


def test_builtin_group_unknown_name():
    for _ in range(2):
        with pytest.raises(GroupTableError):
            builtin_group("M11")


def test_builtin_group_is_built_once():
    assert builtin_group("a5") is builtin_group("A5")


def test_group_table_validation():
    z2 = FiniteGroupTable.make(((0, 1), (1, 0)), ("e", "t"))
    assert z2.inverse == (0, 1)
    with pytest.raises(GroupTableError):
        FiniteGroupTable.make(())
    with pytest.raises(GroupTableError):
        FiniteGroupTable.make(((0, 1),))
    with pytest.raises(GroupTableError):
        FiniteGroupTable.make(((1, 0), (0, 1)))
    with pytest.raises(GroupTableError):
        FiniteGroupTable.make(((0, 1), (1, 2)))
    with pytest.raises(GroupTableError, match="wrong number of names"):
        FiniteGroupTable.make(((0, 1), (1, 0)), ("e",))
    # identity and inverses hold, but (1*1)*2 = 2 while 1*(1*2) = 1
    with pytest.raises(GroupTableError,
                       match=r"associativity fails at \(1,1,2\)"):
        FiniteGroupTable.make(((0, 1, 2), (1, 0, 0), (2, 0, 0)))
    s3 = builtin_group("S3")
    rows = [list(r) for r in s3.table]
    rows[3][4], rows[3][5] = rows[3][5], rows[3][4]
    with pytest.raises(GroupTableError):
        FiniteGroupTable.make(tuple(tuple(r) for r in rows), s3.names)


def make_error(rows):
    try:
        FiniteGroupTable.make(rows)
    except GroupTableError as exc:
        return str(exc)
    return None


def single_entry_mutations(g):
    """Every table that differs from g's in exactly one entry."""
    for i in range(g.order):
        for j in range(g.order):
            for v in range(g.order):
                if v != g.table[i][j]:
                    rows = list(g.table)
                    rows[i] = rows[i][:j] + (v,) + rows[i][j + 1:]
                    yield tuple(rows)


def test_group_table_check_accepts_every_builtin_like_the_reference():
    for name in BUILTIN_GROUPS:
        rows = builtin_group(name).table
        assert make_error(rows) is None
        assert group_table_error(rows) is None


@pytest.mark.parametrize("name, sample", [("S3", None), ("A4", 400),
                                          ("S4", 400)])
def test_group_table_check_agrees_with_the_reference_loop(name, sample):
    # make compares (ab)c with a(bc) one row a at a time in numpy; the
    # reference loops over (a, b, c), so both must name the same failure
    tables = list(single_entry_mutations(builtin_group(name)))
    if sample:
        tables = random.Random(f"mutations-{name}").sample(tables, sample)
    messages = [make_error(rows) for rows in tables]
    assert messages == [group_table_error(rows) for rows in tables]
    assert None not in messages
    # the sample reaches the associativity check, not only the earlier ones
    at_associativity = sum(m.startswith("associativity") for m in messages)
    assert at_associativity > len(messages) / 3


def test_group_table_round_trip():
    s4 = builtin_group("S4")
    assert parse_group_table(format_group_table(s4)) == s4
    with pytest.raises(GroupTableError):
        parse_group_table("names=a b\n0 1\n1 0\n")
    with pytest.raises(GroupTableError):
        parse_group_table("order=0\n")
    with pytest.raises(ValueError,
                       match="^line 2: expected an integer, got 'abc'$"):
        parse_group_table("# Z/2\norder=abc\n0 1\n1 0\n")
    with pytest.raises(ValueError,
                       match="^line 3: expected an integer, got 't'$"):
        parse_group_table("order=2\n0 1\n1 t\n")
    z2 = parse_group_table("order=2  # Z/2\nnames=e t\n0 1  # e\n1 0\n")
    assert z2 == FiniteGroupTable.make(((0, 1), (1, 0)), ("e", "t"))


def test_hom_counts_free_and_abelian():
    s3 = builtin_group("S3")
    free2 = Presentation(2, ())
    assert hom_count(free2, s3).count == 36
    z2 = Presentation(2, (CyclicRelation.make(((1,), (2,)), 2),))
    assert hom_count(z2, s3).count == 18
    line = Presentation(1, ())
    for name in ("S3", "S4", "A4", "D4", "A5"):
        table = builtin_group(name)
        assert hom_count(line, table).count == table.order


def test_hom_count_matches_scalar_on_fixtures():
    s3 = builtin_group("S3")
    for name in ("pencil", "nearpencil", "triangle"):
        pres = pipeline(name).presentation
        fast = hom_count(pres, s3)
        slow = hom_count_scalar(pres, s3, node_cap=10_000_000)
        assert fast.outcome == slow.outcome == "exact"
        assert fast.count == slow.count


def test_hom_count_triangle_gauges():
    tri = pipeline("triangle").presentation
    assert hom_count(tri, builtin_group("S3")).count == 972
    assert hom_count(tri, builtin_group("S4")).count == 35808


def test_hom_count_abort_is_honest():
    tri = pipeline("triangle").presentation
    s4 = builtin_group("S4")
    aborted = hom_count(tri, s4, node_cap=10)
    assert aborted.outcome == "aborted"
    assert aborted.count is None
    assert aborted.nodes >= 10
    slow = hom_count_scalar(tri, s4, node_cap=10)
    assert slow.outcome == "aborted" and slow.count is None
    # the cap bounds the unreduced tree: a cap of its size is enough
    for name, group in (("triangle", "S4"), ("ceva", "A4"),
                        ("nearpencil", "D4")):
        pres = pipeline(name).presentation
        table = builtin_group(group)
        full = hom_count(pres, table)
        assert full.cells < full.nodes
        assert hom_count(pres, table, full.nodes) == full
        assert hom_count(pres, table, full.nodes - 1).outcome == "aborted"


def test_hom_count_past_256_elements_counts_with_wide_indices():
    # order 300 takes hom_count's int32 index branch; the constructor skips
    # make's associativity check, which is cubic in the order
    n = 300
    z300 = FiniteGroupTable(
        n, tuple(f"g{i}" for i in range(n)),
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
        tuple(-i % n for i in range(n)))
    commuting = Presentation(2, (CyclicRelation.make(((1,), (2,)), 2),))
    fast = hom_count(commuting, z300)
    assert (fast.count, fast.nodes) == (90_000, 90_300)
    slow = hom_count_scalar(commuting, z300)
    assert (slow.count, slow.nodes) == (fast.count, fast.nodes)


def test_hom_count_cycle5_s4_evaluates_a_fifth_of_the_tree():
    r = hom_count(pipeline("cycle5").presentation, builtin_group("S4"))
    assert (r.count, r.nodes) == (7664160, 63551832)
    assert r.cells == 10_299_000
    assert r.cells * 5 <= r.nodes


def cyclic_table(n):
    rows = "".join(" ".join(str((i + j) % n) for j in range(n)) + "\n"
                   for i in range(n))
    return parse_group_table(f"order={n}\n{rows}")


def quaternion_table():
    """Q8 from the Hamilton product of the units +-1, +-i, +-j, +-k."""
    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    units = [tuple(s * (k == i) for k in range(4))
             for i in range(4) for s in (1, -1)]
    return FiniteGroupTable.make(
        tuple(tuple(units.index(mul(p, q)) for q in units) for p in units))


def dihedral_table(n):
    """The dihedral group of order 2n; index f * n + i is s^f r^i, and
    r^i s = s r^-i."""
    def mul(a, b):
        (f1, i1), (f2, i2) = divmod(a, n), divmod(b, n)
        return (f1 ^ f2) * n + ((-i1 if f2 else i1) + i2) % n
    return FiniteGroupTable.make(
        tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n)))


# the built-in groups, an abelian parsed table, a non-abelian one, and one
# of more than 64 elements, whose element sets span two 64-bit words
TABLES = {name: builtin_group(name) for name in ("S3", "D4", "A4", "S4",
                                                 "A5")}
TABLES["Z6"] = cyclic_table(6)
TABLES["Q8"] = quaternion_table()
TABLES["D33"] = dihedral_table(33)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_orbit_table_describes_the_conjugation_action(name):
    table = TABLES[name]
    t, inv, order = table.table, table.inverse, table.order
    everything = frozenset(range(order))
    centre = frozenset(z for z in everything
                       if all(t[z][g] == t[g][z] for g in everything))
    orbits = orbit_table(table)
    assert orbits.subgroups[0] == everything
    for s, sub in enumerate(orbits.subgroups):
        assert centre <= sub
        reps = 0
        for g in range(order):
            orbit = {t[t[h][g]][inv[h]] for h in sub}
            assert orbits.is_rep[s, g] == (g == min(orbit))
            assert orbits.orbit_size[s, g] == len(orbit)
            reps += orbits.orbit_size[s, g] * bool(orbits.is_rep[s, g])
            meet = frozenset(h for h in sub if t[h][g] == t[g][h])
            assert orbits.subgroups[orbits.next_stab[s, g]] == meet
        assert reps == order


@pytest.mark.parametrize("name", sorted(TABLES))
def test_orbit_table_packs_conjugators_and_representatives(name):
    table = TABLES[name]
    t, inv, order = table.table, table.inverse, table.order
    orbits = orbit_table(table)

    def members(words):  # every set bit, padding included
        n = sum(int(w) << 64 * i for i, w in enumerate(words))
        return {g for g in range(64 * len(words)) if n >> g & 1}

    for h1 in range(order):
        for h2 in range(order):
            assert members(orbits.conj_bits[h1 * order + h2]) == {
                g for g in range(order) if t[t[g][h1]][inv[g]] == h2}
    for s in range(len(orbits.subgroups)):
        assert members(orbits.rep_bits[s]) == {
            g for g in range(order) if orbits.is_rep[s, g]}
        for b, sums in enumerate(orbits.byte_sizes[s]):
            for v, got in enumerate(sums):
                assert got == sum(orbits.orbit_size[s, 8 * b + i]
                                  for i in range(8)
                                  if v >> i & 1 and 8 * b + i < order)


# hom_count keeps one row per conjugation orbit; the scalar reference
# tries every assignment
@settings(max_examples=60)
@given(st.data())
def test_hom_count_vectorized_equals_scalar(data):
    name = data.draw(st.sampled_from(sorted(TABLES)))
    table = TABLES[name]
    ngens = data.draw(st.integers(1, 3 if table.order <= 24 else 2))
    letter = st.integers(-ngens, ngens).filter(bool)
    words = st.lists(st.lists(letter, min_size=1, max_size=6).map(tuple),
                     min_size=1, max_size=3)
    # make refuses a 1-entry bracket, which holds under every assignment
    rels = tuple(CyclicRelation.make(tuple(w), ngens) if len(w) > 1
                 else CyclicRelation(tuple(w))
                 for w in data.draw(st.lists(words, max_size=3)))
    pres = Presentation(ngens, rels)
    fast = hom_count(pres, table)
    slow = hom_count_scalar(pres, table)
    assert fast.outcome == slow.outcome == "exact"
    assert fast.count == slow.count
    assert fast.cells <= fast.nodes


# (count, nodes, cells) of every fixture's presentation into every builtin
# group, recorded once and kept through every change to the kernel; None is
# an abort
FIXTURE_COUNTS = {
    "pencil": ((66, 258, 90), (224, 584, 272), (264, 1884, 324),
               (1032, 14424, 1176), (4620, 219660, 4980)),
    "nearpencil": ((144, 546, 216), (832, 2184, 1056), (672, 3900, 900),
                   (2688, 28248, 3336), (9120, 298860, 10800)),
    "triangle": ((972, 3858, 1560), (13312, 38280, 17760),
                 (7296, 40476, 10380), (35808, 368664, 49008),
                 (131400, 3214860, 175080)),
    "triangle_plus_line": ((2622, 9366, 4128), (51200, 142088, 68288),
                           (25416, 124572, 35508),
                           (130728, 1176216, 176568),
                           (582420, 10504860, 747600)),
    "cycle5": ((62208, 197574, 95046), (3174400, 8588040, 4244160),
               (1285248, 5635452, 1754388), (7664160, 63551832, 10299000),
               (None, 102692220, 7702200)),
    "ceva": ((1008, 4722, 1704), (14080, 44424, 19296),
             (7488, 52860, 11412), (38880, 547800, 58776),
             (138000, 5821260, 218520)),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_hom_count_of_every_fixture_is_the_recorded_one(name):
    pres = pipeline(name).presentation
    got = tuple((r.count, r.nodes, r.cells)
                for r in (hom_count(pres, builtin_group(group))
                          for group in ("S3", "D4", "A4", "S4", "A5")))
    assert got == FIXTURE_COUNTS[name]


def brackets(ngens, *entries):
    return Presentation(ngens, tuple(CyclicRelation.make(words, ngens)
                                     for words in entries))


# hom_count assigns x1 before x2 (before x3), so each bracket is checked at
# the layer of its highest generator: entries hold that letter twice with
# runs of other letters between and around it, or reduce to the empty word
KERNEL_PRESENTATIONS = (
    brackets(2, ((2, 1, -2, 1), (2,)), ((1, -1), (2, 1))),
    brackets(2, ((2, 1, -2, 1), (1,))),
    brackets(2, ((1, 2, 1, -2, -1), (2, 2), (1,))),
    brackets(3, ((3, 1, 2, 3, -2, 3), (1,)), ((1, 2), (3, -3)),
             ((1, 1, 2, 3, 1, -2, 3, 2), (3,))),
)

# (count, nodes, cells) per table and presentation; the three-generator one
# runs into the tables of order at most 24
KERNEL_COUNTS = {
    "A4": ((72, 156, 60), (72, 156, 60), (72, 156, 60), (360, 1884, 324)),
    "A5": ((1140, 3660, 360), (600, 3660, 360), (1140, 3660, 360)),
    "D33": ((3300, 4422, 1254), (2244, 4422, 1254), (3300, 4422, 1254)),
    "D4": ((64, 72, 48), (64, 72, 48), (64, 72, 48), (224, 584, 272)),
    "Q8": ((64, 72, 48), (64, 72, 48), (64, 72, 48), (224, 584, 272)),
    "S3": ((30, 42, 24), (24, 42, 24), (30, 42, 24), (84, 258, 90)),
    "S4": ((312, 600, 144), (240, 600, 144), (312, 600, 144),
           (1608, 14424, 1176)),
    "Z6": ((36, 42, 42), (36, 42, 42), (36, 42, 42), (216, 258, 258)),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_hom_count_kernel_matches_scalar_on_repeated_layer_letters(name):
    table = TABLES[name]
    got = []
    for pres in KERNEL_PRESENTATIONS[:len(KERNEL_COUNTS[name])]:
        fast = hom_count(pres, table)
        assert fast.count == hom_count_scalar(pres, table).count
        got.append((fast.count, fast.nodes, fast.cells))
    assert tuple(got) == KERNEL_COUNTS[name]


# hom_count screens a bracket that holds the layer's letter once by the
# elements that conjugate b c b^-1 to a^-1 c a; here that letter sits
# between other letters, inverted in some brackets and not in others
SCREENED_PRESENTATIONS = (
    brackets(2, ((1, -2, 1), (1, 1, 1)), ((2, 1, 1), (1,))),
    brackets(3, ((1,), (2, -3, 1), (2,)), ((3, 1), (2,))),
    brackets(3, ((2, 1, -3, 2), (1,)), ((1, 3, -2), (2,), (1,))),
)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_hom_count_screen_matches_scalar_on_a_layer_letter_met_once(name):
    table = TABLES[name]
    for pres in SCREENED_PRESENTATIONS:
        if pres.ngens == 2 or table.order <= 24:
            fast = hom_count(pres, table)
            assert fast.count == hom_count_scalar(pres, table).count


# closed forms: a generic arrangement's group is Z^n (Hattori 1975), and an
# affine pencil's is Z x F_{n-1}, so their hom-counts follow from the table


def commutes(table, g, h):
    return table.table[g][h] == table.table[h][g]


def commuting_tuples(table, n, pool=None):
    """The n-tuples of pairwise commuting elements, one entry at a time."""
    pool = range(table.order) if pool is None else pool
    if n == 0:
        return 1
    return sum(commuting_tuples(table, n - 1,
                                [h for h in pool if commutes(table, g, h)])
               for g in pool)


def rational(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 7))


def seeded_generic(rng, n):
    """n lines y = m x + b, redrawn until every pair meets in its own
    point."""
    while True:
        arr = Arrangement(tuple(Line.make(-rational(rng), 1, rational(rng))
                                for _ in range(n)))
        if (len(set(arr.lines)) == n and
                len(compute_lattice(arr).points) == n * (n - 1) // 2):
            return arr


def seeded_pencil(rng, n):
    """n lines of distinct slopes through one rational point."""
    x, y = rational(rng), rational(rng)
    slopes = set()
    while len(slopes) < n:
        slopes.add(rational(rng))
    return Arrangement(tuple(Line.make(-m, 1, y - m * x)
                             for m in sorted(slopes)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("group", ["S3", "D4"])
def test_generic_arrangements_count_commuting_tuples(seed, group):
    rng = random.Random(seed)
    table = builtin_group(group)
    for n in (3, 4, 5):
        pres = sweep(seeded_generic(rng, n)).presentation
        assert hom_count(pres, table).count == commuting_tuples(table, n)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("group", ["S3", "D4"])
def test_pencils_count_centralizer_powers(seed, group):
    rng = random.Random(seed)
    table = builtin_group(group)
    centralizers = [sum(commutes(table, z, h) for h in range(table.order))
                    for z in range(table.order)]
    if group == "S3":
        assert sum(c ** 2 for c in centralizers) == 66  # n = 3
    for n in (3, 4, 5):
        arr = seeded_pencil(rng, n)
        assert len(compute_lattice(arr).points) == 1
        pres = sweep(arr).presentation
        assert hom_count(pres, table).count == sum(
            c ** (n - 1) for c in centralizers)
