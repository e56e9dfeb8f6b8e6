"""Code the tests need and the program does not run.

The Artin action of braids on free-group words, with braid inverses and
half-twists, is the independent reference for the closed form by which
``vankampen.presentation`` carries meridians through the inverse
half-twists.  ``artin_relation_words`` is the per-point transport built from
it.  ``group_table_error`` is the plain-loop reference for the checks of
``FiniteGroupTable.make``, whose associativity test is vectorized.
``bfs_rescue`` is the prover's rescue search with a visited set, a target
set and whole paths on the heap.  The rest materializes group descriptors,
direct sums, sub-arrangements and group-table text, so that the tests can
compare them with what the program computes.
"""

from __future__ import annotations

import heapq
import itertools

from arrgroup import (Arrangement, CyclicRelation, FiniteGroupTable,
                      PairList, Presentation, free_reduce, word_mul)
from arrgroup.braid import substitute
from arrgroup.grouptheory import GroupDescriptor
from arrgroup.prover import (BFS_DEPTH, _exponent_sums, _move,
                             _waiting_rotations)

# ---------------------------------------------------------------------------
# Artin action
#
# The convention is fixed once and for all:
#   sigma_i   sends  x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
#   sigma_i^-1 sends x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
# and both fix every other generator.  Under this convention the ordered
# product x_1 x_2 ... x_ell is fixed by every braid word.
# ---------------------------------------------------------------------------

def _letter_image(g, i, sign):
    """Image of the signed word letter g under sigma_i^sign."""
    a = abs(g)
    if sign > 0:
        if a == i:
            img = (i, i + 1, -i)
        elif a == i + 1:
            img = (i,)
        else:
            return (g,)
    else:
        if a == i:
            img = (i + 1,)
        elif a == i + 1:
            img = (-(i + 1), i, i + 1)
        else:
            return (g,)
    return img if g > 0 else tuple(-c for c in reversed(img))


def artin_apply(braid, w, ell=None):
    """Apply a braid word to a free-group word, twist by twist.

    The braid word acts as the composite of its letters, first letter first.
    The result is freely reduced.
    """
    w = free_reduce(w, ell)
    for t in braid:
        i = abs(t)
        if i == 0 or (ell is not None and i + 1 > ell):
            raise ValueError(f"strand index {t} out of range")
        sign = 1 if t > 0 else -1
        w = word_mul(*[_letter_image(g, i, sign) for g in w])
    return w


def braid_inverse(braid):
    return tuple(-t for t in reversed(braid))


def halftwist(a, b, ell):
    """The positive half-twist on the interval [a, b] as a braid word:
    (sigma_a ... sigma_{b-1})(sigma_a ... sigma_{b-2}) ... (sigma_a).

    Its length is C(b-a+1, 2).
    """
    if not (1 <= a < b <= ell):
        raise ValueError(f"need 1 <= a < b <= ell, got a={a} b={b} ell={ell}")
    word = []
    for top in range(b - 1, a - 1, -1):
        word.extend(range(a, top + 1))
    return tuple(word)


def artin_relation_words(pl: PairList, i: int):
    """Relation words of point i: the meridians x_a..x_b of the wires through
    the point, transported through the inverse of the accumulated prefix
    braid, the half-twists of points 1..i-1 in list order.  The first point
    gets plain generators.

    It rebuilds and applies the whole prefix braid, so it costs time
    quadratic in the number of points."""
    if not (1 <= i <= len(pl.pairs)):
        raise ValueError(f"point index {i} out of range 1..{len(pl.pairs)}")
    prefix = []
    for (a, b) in pl.pairs[: i - 1]:
        prefix.extend(halftwist(a, b, pl.ell))
    braid = braid_inverse(prefix)
    a, b = pl.pairs[i - 1]
    # the Artin action under the mirror involution x_g -> x_g^-1
    return [tuple(-c for c in artin_apply(braid, (-t,), pl.ell))
            for t in range(a, b + 1)]


# ---------------------------------------------------------------------------
# presentations of descriptors and direct sums, sub-arrangements, tables
# ---------------------------------------------------------------------------

def descriptor_presentation(d: GroupDescriptor) -> Presentation:
    """The obvious presentation of a descriptor: the direct sum of rank
    copies of Z, then one free group per free factor."""
    z = Presentation(1, (), "projective")
    pres = direct_sum([z] * d.rank + [Presentation(m, (), "projective")
                                      for m in d.free_factors])
    # direct_sum of no parts is affine; the empty descriptor is projective
    return Presentation(pres.ngens, pres.relations, "projective")


def direct_sum(parts) -> Presentation:
    """Presentation of the direct sum: generator blocks are concatenated and
    generators from different parts commute."""
    parts = list(parts)
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.ngens
    rels = []
    for p, off in zip(parts, offsets):
        images = [()] + [(g + off,) for g in range(1, p.ngens + 1)]
        for rel in p.relations:
            shifted = tuple(substitute(images, w) for w in rel.words)
            rels.append(CyclicRelation.make(shifted, total))
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for g in range(offsets[i] + 1, offsets[i] + parts[i].ngens + 1):
                for h in range(offsets[j] + 1,
                               offsets[j] + parts[j].ngens + 1):
                    rels.append(CyclicRelation.make(((g,), (h,)), total))
    kind = parts[0].kind if parts else "affine"
    return Presentation(total, tuple(rels), kind)


def sub_arrangement(arr: Arrangement, labels) -> Arrangement:
    """The arrangement of the listed lines (1-based labels), in label
    order."""
    for i in labels:
        if not 1 <= i <= len(arr):
            raise ValueError(f"line label {i} out of range 1..{len(arr)}")
    return Arrangement(tuple(arr.lines[i - 1] for i in labels))


def format_group_table(g: FiniteGroupTable) -> str:
    lines = [f"order={g.order}", "names=" + " ".join(g.names)]
    lines.extend(" ".join(str(v) for v in row) for row in g.table)
    return "\n".join(lines) + "\n"


def group_table_error(rows, names=None):
    """The message of the first check of ``FiniteGroupTable.make`` that the
    table fails, or None: the same checks in the same order, associativity
    by a triple loop over (a, b, c) in lexicographic order."""
    order = len(rows)
    if order == 0:
        return "empty table: a group has an identity"
    if any(len(r) != order for r in rows):
        return "table is not square"
    for r in rows:
        for v in r:
            if not 0 <= v < order:
                return f"entry {v} out of range"
    if names is not None and len(names) != order:
        return "wrong number of names"
    for j in range(order):
        if rows[0][j] != j or rows[j][0] != j:
            return "element 0 is not an identity"
    for i in range(order):
        inv = next((j for j in range(order) if rows[i][j] == 0), None)
        if inv is None or rows[inv][i] != 0:
            return f"element {i} has no inverse"
    for a in range(order):
        for b in range(order):
            ab = rows[a][b]
            for c in range(order):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    return f"associativity fails at ({a},{b},{c})"
    return None


# ---------------------------------------------------------------------------
# the rescue search, by the plain loops
# ---------------------------------------------------------------------------

def bfs_rescue(state, r, pool, ngens):
    """The rescue search with a visited set, a target set and the whole
    path on every heap entry."""
    budget = state.budget
    base = state.rels[r]
    sums = _exponent_sums(base)
    targets = {words for words in _waiting_rotations(pool)
               if _exponent_sums(words) == sums}
    if not targets:
        return False
    sites = state.sites(r)
    conjs = [("conj", s * g) for g in range(1, ngens + 1) for s in (1, -1)]
    visited = {base}
    counter = itertools.count()
    heap = [(sum(len(w) for w in base), next(counter), base, ())]
    nodes = 0
    while heap:
        _, _, words, path = heapq.heappop(heap)
        if len(path) >= BFS_DEPTH:
            continue
        substs = (("subst", e) + site for e, w in enumerate(words)
                  for site in sites(w))
        for move in itertools.chain(conjs, substs):
            moved = _move(words, move, budget.max_word_len)
            if moved is None or moved[0] in visited:
                continue
            new = moved[0]
            nodes += 1
            if nodes > budget.bfs_nodes:
                return False
            visited.add(new)
            newpath = path + (move,)
            if new in targets:
                for m in newpath:
                    state.apply(r, m)
                return True
            heapq.heappush(heap, (sum(len(w) for w in new), next(counter),
                                  new, newpath))
    return False
