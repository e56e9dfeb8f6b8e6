"""Computable invariants of bracket presentations: abelianization and
counts of homomorphisms into finite groups.

Homomorphism counts are equivalence invariants, so they serve both as
evidence when a certificate search fails (differing counts rule a candidate
out) and as a consistency check on certificates that were found.

numpy is imported by the functions that use it, the group-table constructor
first among them, so importing arrgroup, and every command that counts no
homomorphisms, loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import groupby
from math import gcd
from typing import TYPE_CHECKING

from arrgroup.braid import substitute
from arrgroup.geometry import integer, records
from arrgroup.vankampen import Presentation, rotation_products

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# abelianization and integer Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianInvariants:
    rank: int
    torsion: tuple  # elementary divisors > 1, ascending

    def __str__(self):
        parts = [f"Z^{self.rank}"] if self.rank else []
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def smith_diagonal(rows, ncols):
    """Diagonal of the Smith normal form of an integer matrix given as a
    list of rows, by exact elementary operations; entries satisfy
    d1 | d2 | ..."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    diag = []
    top = 0
    while top < nrows and top < ncols:
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = mat[i][j]
                if v and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        pi, pj, _ = pivot
        mat[top], mat[pi] = mat[pi], mat[top]
        for row in mat:
            row[top], row[pj] = row[pj], row[top]
        stable = False
        while not stable:
            stable = True
            p = mat[top][top]
            for i in range(top + 1, nrows):
                q = mat[i][top] // p
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                if mat[i][top]:
                    mat[top], mat[i] = mat[i], mat[top]
                    stable = False
                    break
            if not stable:
                continue
            for j in range(top + 1, ncols):
                q = mat[top][j] // p
                if q:
                    for row in mat[top:]:
                        row[j] -= q * row[top]
                if mat[top][j]:
                    for row in mat[top:]:
                        row[top], row[j] = row[j], row[top]
                    stable = False
                    break
        diag.append(abs(mat[top][top]))
        top += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariants of the abelianized group, which is always free of rank
    ngens.  A bracket's split-point products are the cyclic rotations of
    one word, w_k ... w_1, and rotating a word keeps its exponent vector, so
    every split-point equality abelianizes to 0 = 0 and no relation
    survives."""
    return AbelianInvariants(p.ngens, ())


# ---------------------------------------------------------------------------
# finite group tables
# ---------------------------------------------------------------------------

class GroupTableError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group as a validated multiplication table.

    table[i][j] is the index of g_i * g_j; index 0 is the identity;
    inverse[i] is the index of g_i^-1.
    """

    order: int
    names: tuple
    table: tuple  # of row tuples
    inverse: tuple

    @staticmethod
    def make(rows, names=None) -> "FiniteGroupTable":
        """The validated table; GroupTableError names the first check that
        fails, and for associativity the least failing (a, b, c)."""
        import numpy as np

        order = len(rows)
        if order == 0:
            raise GroupTableError("empty table: a group has an identity")
        if any(len(r) != order for r in rows):
            raise GroupTableError("table is not square")
        for r in rows:
            for v in r:
                if not 0 <= v < order:
                    raise GroupTableError(f"entry {v} out of range")
        if names is None:
            names = tuple(f"g{i}" for i in range(order))
        if len(names) != order:
            raise GroupTableError("wrong number of names")
        for j in range(order):
            if rows[0][j] != j or rows[j][0] != j:
                raise GroupTableError("element 0 is not an identity")
        inverse = [None] * order
        for i in range(order):
            for j in range(order):
                if rows[i][j] == 0:
                    inverse[i] = j
                    break
            if inverse[i] is None or rows[inverse[i]][i] != 0:
                raise GroupTableError(f"element {i} has no inverse")
        t = np.array(rows, dtype=np.intp)
        for a in range(order):
            # [b, c] of each side: (ab)c and a(bc)
            bad = np.flatnonzero(t[t[a]] != t[a][t])
            if len(bad):
                b, c = divmod(int(bad[0]), order)
                raise GroupTableError(f"associativity fails at ({a},{b},{c})")
        return FiniteGroupTable(order, tuple(names),
                                tuple(tuple(r) for r in rows),
                                tuple(inverse))


def _perm_group(generators, degree):
    """Close a set of permutations (tuples of images, 0-based) under
    composition and return the table with the identity first and the other
    elements in sorted order."""
    identity = tuple(range(degree))
    elems = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    ordered = [identity] + sorted(elems - {identity})
    index = {p: i for i, p in enumerate(ordered)}
    rows = []
    for a in ordered:
        # (a * b)(x) = a(b(x))
        rows.append(tuple(index[tuple(a[b[i]] for i in range(degree))]
                          for b in ordered))
    names = tuple("".join(str(x + 1) for x in p) for p in ordered)
    return FiniteGroupTable.make(rows, names)


# generators of the built-in permutation groups, as tuples of images
_BUILTIN_GENERATORS = {
    "S3": [(1, 0, 2), (0, 2, 1)],
    "S4": [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)],
    "A4": [(1, 2, 0, 3), (0, 2, 3, 1)],
    "D4": [(1, 2, 3, 0), (3, 2, 1, 0)],
    "A5": [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2), (2, 0, 1, 3, 4)],
}
BUILTIN_GROUPS = tuple(_BUILTIN_GENERATORS)


def builtin_group(name: str) -> FiniteGroupTable:
    """Symmetric, alternating and dihedral tables used for counting:
    S3, S4, A4, D4, A5 (any case).  Each is built and validated once."""
    name = name.upper()
    if name not in _BUILTIN_GENERATORS:
        raise GroupTableError(f"no builtin group named {name!r}")
    return _builtin_table(name)


@cache
def _builtin_table(name):
    gens = _BUILTIN_GENERATORS[name]
    return _perm_group(gens, len(gens[0]))


def parse_group_table(text: str) -> FiniteGroupTable:
    order = None
    names = None
    rows = []
    for lineno, body in records(text):
        if body.startswith("order="):
            order = integer(body[6:], lineno)
        elif body.startswith("names="):
            names = tuple(body[6:].split())
        else:
            rows.append(tuple(integer(t, lineno) for t in body.split()))
    if order is None:
        raise GroupTableError("missing order= header")
    if len(rows) != order:
        raise GroupTableError(f"expected {order} rows, found {len(rows)}")
    return FiniteGroupTable.make(rows, names)


# ---------------------------------------------------------------------------
# homomorphism counting
# ---------------------------------------------------------------------------

# default cap on the unreduced search tree of hom_count (Budget.hom_nodes)
HOM_NODES = 100_000_000


@dataclass(frozen=True)
class HomCount:
    count: int | None  # None when aborted
    outcome: str  # "exact" | "aborted"
    nodes: int  # candidate assignments in the unreduced search tree
    cells: int  # kept rows times order; brackets run on the live ones


class _Abort(Exception):
    pass


def _equations(p: Presentation):
    """Split-point equalities (base word, other word) with their generator
    support."""
    eqs = []
    for rel in p.relations:
        prods = rotation_products(rel.words)
        base = prods[0]
        for q in prods[1:]:
            support = frozenset(abs(c) for c in base) | frozenset(
                abs(c) for c in q)
            if support:
                eqs.append((base, q, support))
    return eqs


def _assignment_order(p: Presentation):
    """Greedy generator order that makes equations decidable as early as
    possible: each step takes the generator completing the most pending
    equation supports (ties: most pending appearances, then lowest
    index).  Once every equation is decidable the rest follow in ascending
    order, so generators that no relation mentions cost nothing."""
    eqs = _equations(p)
    order = []
    assigned = set()
    remaining = set(range(1, p.ngens + 1))
    pending = list(eqs)
    while pending:
        def score(g):
            completes = sum(1 for _, _, s in pending
                            if g in s and s <= assigned | {g})
            appears = sum(1 for _, _, s in pending if g in s)
            return (completes, appears, -g)
        best = max(sorted(remaining), key=score)
        order.append(best)
        assigned.add(best)
        remaining.discard(best)
        pending = [e for e in pending if not e[2] <= assigned]
    return order + sorted(remaining)


def _by_layer(order, items):
    """Word tuples grouped by the first layer of the assignment order where
    their generator support is decidable, recoded into layer coordinates
    (generator order[j-1] becomes column j) and sorted by total length,
    then words.  ``items`` are (support, words) pairs; an empty support is
    dropped."""
    col = [()] * (len(order) + 1)
    for j, g in enumerate(order, 1):
        col[g] = (j,)
    layers = {j: [] for j in range(1, len(order) + 1)}
    for support, words in items:
        if support:
            layers[max(col[g][0] for g in support)].append(
                tuple(substitute(col, w) for w in words))
    for entries in layers.values():
        entries.sort(key=lambda ws: (sum(map(len, ws)), ws))
    return layers


@dataclass(frozen=True)
class OrbitTable:
    """A group's conjugation action, and the other tables hom_count reads.

    The action is restricted to the subgroups met as centralizers of
    tuples, as arrays indexed [stab, g].  Stabilizer 0 is the whole group,
    and stabilizer s is the subgroup subgroups[s]:

    - is_rep[s, g]: g is the least element of its orbit under conjugation
      by subgroups[s];
    - orbit_size[s, g]: the size of that orbit;
    - next_stab[s, g]: the id of subgroups[s] & C(g).

    A set of elements is ceil(order / 64) uint64 words, bit g % 64 of word
    g // 64 for element g: rep_bits[s] is the set of is_rep[s], and
    conj_bits[h1 * order + h2] is {g : g h1 g^-1 = h2}.  byte_sizes[s, b, v]
    sums orbit_size[s, g] over the elements g in byte b of such a set whose
    bits make v.  Past 256 elements conj_bits and byte_sizes are None.

    prod, conj and commute are flat, indexed a * order + b: ab, a b a^-1,
    and whether ab = ba; inv[a] is a^-1.  Group values are inv's dtype."""

    subgroups: tuple  # of frozensets of elements
    is_rep: np.ndarray
    orbit_size: np.ndarray
    next_stab: np.ndarray
    rep_bits: np.ndarray
    conj_bits: np.ndarray | None
    byte_sizes: np.ndarray | None
    prod: np.ndarray
    conj: np.ndarray
    commute: np.ndarray
    inv: np.ndarray


@lru_cache(maxsize=16)
def orbit_table(table: FiniteGroupTable) -> OrbitTable:
    """The table's OrbitTable, subgroups numbered as first met from the
    whole group; built once per table."""
    import numpy as np

    order = table.order
    # a value also holds a * order + b, the index into the flat tables
    vtype = np.uint16 if order <= 256 else np.int64
    tab = np.array(table.table, dtype=vtype)
    inv = np.array(table.inverse, dtype=vtype)
    conj = tab[tab, inv[:, None]]  # conj[h, g] = h g h^-1
    commute = tab == tab.T  # row g is the centralizer C(g)
    elements = np.arange(order)
    masks = [np.ones(order, dtype=bool)]
    ids = {masks[0].tobytes(): 0}
    is_rep, orbit_size, next_stab = [], [], []
    for mask in masks:  # grows while it is walked
        members = np.flatnonzero(mask)
        is_rep.append(conj[members].min(axis=0) == elements)
        orbit_size.append(len(members) // commute[:, members].sum(axis=1))
        nxt = np.empty(order, dtype=np.intp)
        for g in range(order):
            meet = mask & commute[g]
            key = meet.tobytes()
            if key not in ids:
                ids[key] = len(masks)
                masks.append(meet)
            nxt[g] = ids[key]
        next_stab.append(nxt)
    is_rep = np.array(is_rep)
    orbit_size = np.array(orbit_size, dtype=np.int64)
    words = -(-order // 64)
    bit = np.uint64(1) << (elements % 64).astype(np.uint64)
    rep_bits = np.zeros((len(masks), words), dtype="<u8")
    conj_bits = byte_sizes = None
    if order <= 256:
        conj_bits = np.zeros((order * order, words), dtype="<u8")
        sizes = np.zeros((len(masks), -(-order // 8) * 8), dtype=np.int64)
        sizes[:, :order] = orbit_size
        octet = (np.arange(256)[:, None] >> np.arange(8)) & 1  # [v, bit]
        # a byte's sizes sum to at most 8 * 256
        byte_sizes = (sizes.reshape(len(masks), -1, 8) @ octet.T).astype(
            np.uint16)
    for g in range(order):
        rep_bits[is_rep[:, g], g // 64] |= bit[g]
        if conj_bits is not None:  # g conjugates h1 to conj[g, h1]
            conj_bits[elements * order + conj[g], g // 64] |= bit[g]
    return OrbitTable(tuple(frozenset(np.flatnonzero(m).tolist())
                            for m in masks),
                      is_rep, orbit_size, np.array(next_stab), rep_bits,
                      conj_bits, byte_sizes, tab.ravel(), conj.ravel(),
                      commute.ravel(), inv)


def hom_count(p: Presentation, table: FiniteGroupTable,
              node_cap: int = HOM_NODES) -> HomCount:
    """Count homomorphisms from the presented group into the table group.

    Layered backtracking over generator images, vectorized over rows:
    rows are surviving partial assignments, and a cell is a row with a
    candidate image g of the layer's generator x.  A bracket [w1..wk]
    holds iff the prefix product v(wm..w1) commutes with the suffix
    product v(wk..w_{m+1}) for every split point m, that is iff every
    v(wi) commutes with the whole product R = v(wk..w1).

    Most brackets hold x once, in an entry wj = A x^e B.  Then R = a g^e b
    with a = v(wk..w_{j+1} A) and b = v(B w_{j-1}..w1), and c = v(wi)
    commutes with R iff g^e (b c b^-1) g^-e = a^-1 c a.  So the images a
    row admits are its orbit representatives (below) ANDed with one
    OrbitTable.conj_bits row per other entry: work per row, not per cell.
    Each word without x is evaluated once per row and layer, from
    memoized prefixes and conjugates u m u^-1.  Brackets that hold x more
    than once, and every bracket of a table past 256 elements, are then
    evaluated per cell on the admitted cells.  On the last layer with
    brackets, when none is left per cell, each row's admitted images are
    summed through OrbitTable.byte_sizes and no cell is built.

    Conjugating every image by one element maps homomorphisms to
    homomorphisms, so rows are kept up to conjugation.  A row carries the
    id of the centralizer H of its images (orbit_table) and a weight, the
    size of its orbit.  A new image g is kept only if it is the least of
    its H-orbit; the row's weight is then multiplied by that orbit's size,
    and H becomes H & C(g).  Each orbit of assignments is kept once, by its
    one row whose images are each least in turn, and the count sums the
    weights.

    ``nodes`` is the size of the unreduced search tree, the weight of the
    rows times the order at each layer, and ``node_cap`` bounds it: the
    count aborts (honestly) when that tree has more than node_cap
    candidate assignments.  ``cells`` is the (row, image) grid the
    reduced tree visits, one cell per kept row and candidate image.

    Isomorphic groups have equal counts, so two exact counts that differ
    tell presentations apart: cf_verdict tests candidates by their counts
    into S3, and rescues their targets (prover._quotient_targets)."""
    import numpy as np

    order = table.order
    # assignments are stored in dtype, group values in the tables' dtype
    dtype = np.uint8 if order <= 256 else np.int32
    tables = orbit_table(table)
    prod, conj, inv = tables.prod, tables.conj, tables.inv
    orbit_size = tables.orbit_size.ravel()
    next_stab = tables.next_stab.ravel()
    byte_sizes = tables.byte_sizes
    # whole brackets: every split-point equality of one has its support; a
    # 1-entry bracket has no split point, so it holds everywhere
    layers = _by_layer(_assignment_order(p), (
        ({abs(c) for w in rel.words for c in w}, rel.words)
        for rel in p.relations if len(rel.words) > 1))
    last_constrained = max((j for j, brs in layers.items() if brs), default=0)
    # per layer, brackets screened per row as (entries, (j, n)) with x at
    # entries[j][n], and brackets evaluated per cell
    screened = {layer: [] for layer in layers}
    per_cell = {layer: [] for layer in layers}
    for layer, brs in layers.items():
        for entries in brs:
            at = [(j, n) for j, w in enumerate(entries)
                  for n, c in enumerate(w) if abs(c) == layer]
            if len(at) == 1 and tables.conj_bits is not None:
                screened[layer].append((entries, at[0]))
            else:
                per_cell[layer].append(entries)
    chunk_rows = max(1, (1 << 22) // order)
    state = {"nodes": 0, "cells": 0}

    def mul(a, b):  # None is the identity
        if a is None or b is None:
            return b if a is None else a
        return prod.take(a * order + b)

    def conjugate(u, m):  # u m u^-1, which is m when u is m
        if u is None or m is None or u is m:
            return m
        return conj.take(u * order + m)

    def row_values(part):
        # the value of a word without the layer's letter on each row of part
        memo = {(): None}

        def value(word):
            if word not in memo:
                t = 0  # word = u m u^-1 with u of length t, as long as can be
                while 2 * t + 1 < len(word) and word[t] == -word[-1 - t]:
                    t += 1
                if len(word) == 1:
                    col = part[:, abs(word[0]) - 1]
                    v = col.astype(inv.dtype) if word[0] > 0 else inv.take(col)
                elif t:
                    v = conjugate(value(word[:t]), value(word[t:-t]))
                else:
                    v = mul(value(word[:-1]), value(word[-1:]))
                memo[word] = v
            return memo[word]
        return value

    def screen(live, value, entries, j, n):
        # AND into live the images for which the bracket holds
        w = entries[j]
        vals = [value(e) if i != j else None for i, e in enumerate(entries)]
        a, b = value(w[:n]), value(w[n + 1:])
        for i in range(j + 1, len(entries)):
            a = mul(vals[i], a)
        for i in range(j - 1, -1, -1):
            b = mul(b, vals[i])
        a_inv = None if a is None else inv.take(a)
        for c in vals:
            if c is not None:
                h1, h2 = conjugate(b, c), c if a is c else conjugate(a_inv, c)
                if w[n] < 0:
                    h1, h2 = h2, h1
                # numpy gathers uint64 rows faster by intp indices
                at = (h1 * order + h2).astype(np.intp)
                live &= tables.conj_bits.take(at, axis=0)

    def eval_word(word, value, ri, gi, layer):
        # the word's value on the cells (ri, gi): each run of letters other
        # than the layer's is a row value, gathered onto the cells
        val = None
        for is_layer, run in groupby(word, lambda c: abs(c) == layer):
            if is_layer:
                for c in run:
                    val = mul(val, gi if c > 0 else inv.take(gi))
            else:
                x = value(tuple(run))
                val = val if x is None else mul(val, x.take(ri))
        return np.zeros(len(ri), dtype=inv.dtype) if val is None else val

    def bracket_keep(entries, value, ri, gi, layer):
        vals = [eval_word(w, value, ri, gi, layer) for w in entries]
        whole = vals[-1]  # R; the bracket holds iff v(w1..w_{k-1}) commute
        for v in vals[-2::-1]:
            whole = mul(whole, v)
        keep = tables.commute.take(vals[0] * order + whole)
        for v in vals[1:-1]:
            keep &= tables.commute.take(v * order + whole)
        return keep

    def expand(assigned, stab, weight, layer):
        if layer > last_constrained:
            return int(weight.sum()) * order ** (p.ngens - layer + 1)
        total = 0
        for lo in range(0, len(assigned), chunk_rows):
            part = assigned[lo:lo + chunk_rows]
            pstab = stab[lo:lo + chunk_rows]
            pweight = weight[lo:lo + chunk_rows]
            state["nodes"] += int(pweight.sum()) * order
            state["cells"] += len(part) * order
            if state["nodes"] > node_cap:
                raise _Abort
            value = row_values(part)
            live = tables.rep_bits.take(pstab, axis=0)
            for entries, (j, n) in screened[layer]:
                screen(live, value, entries, j, n)
            live = live.view(np.uint8)
            if layer == last_constrained and not per_cell[layer]:
                # a byte of live at a time; a row's sum is at most order
                at = pstab * byte_sizes[0].size
                sizes = sum(byte_sizes.take(at + 256 * b + live[:, b])
                            for b in range(len(byte_sizes[0])))
                total += int(pweight @ sizes) * order ** (p.ngens - layer)
                continue
            # the admitted cells (ri, gi), row-major
            at = np.flatnonzero(np.unpackbits(
                live, axis=1, count=order, bitorder="little").view(bool))
            ri = at // order
            gi = (at - ri * order).astype(inv.dtype)
            for entries in per_cell[layer]:
                if not len(ri):
                    break
                keep = bracket_keep(entries, value, ri, gi, layer)
                ri, gi = ri[keep], gi[keep]
            cell = pstab.take(ri) * order + gi  # index into [stab, g]
            nweight = pweight.take(ri) * orbit_size.take(cell)
            if layer == last_constrained:
                total += int(nweight.sum()) * order ** (p.ngens - layer)
                continue
            nxt = np.empty((len(ri), layer), dtype=dtype)
            nxt[:, :layer - 1] = part.take(ri, axis=0)
            nxt[:, layer - 1] = gi
            total += expand(nxt, next_stab.take(cell), nweight, layer + 1)
        return total

    seed = np.zeros((1, 0), dtype=dtype)
    try:
        count = expand(seed, np.zeros(1, dtype=np.intp),
                       np.ones(1, dtype=np.int64), 1)
    except _Abort:
        return HomCount(None, "aborted", state["nodes"], state["cells"])
    return HomCount(int(count), "exact", state["nodes"], state["cells"])


def hom_count_scalar(p: Presentation, table: FiniteGroupTable,
                     node_cap: int = 1_000_000) -> HomCount:
    """Plain backtracking reference for cross-checking the vectorized
    counter on small inputs: every assignment is tried, none is skipped by
    conjugation, so ``cells`` equals ``nodes``."""
    order = table.order
    tab = table.table
    inv = table.inverse
    layers = _by_layer(range(1, p.ngens + 1),
                       ((s, (base, q)) for base, q, s in _equations(p)))
    state = {"nodes": 0}

    def value(word, assign):
        v = 0
        for c in word:
            x = assign[abs(c) - 1]
            if c < 0:
                x = inv[x]
            v = tab[v][x]
        return v

    def recurse(assign, layer):
        if layer > p.ngens:
            return 1
        total = 0
        for x in range(order):
            state["nodes"] += 1
            if state["nodes"] > node_cap:
                raise _Abort
            assign.append(x)
            if all(value(a, assign) == value(b, assign)
                   for a, b in layers[layer]):
                total += recurse(assign, layer + 1)
            assign.pop()
        return total

    try:
        count = recurse([], 1)
    except _Abort:
        return HomCount(None, "aborted", state["nodes"], state["nodes"])
    return HomCount(count, "exact", state["nodes"], state["nodes"])
