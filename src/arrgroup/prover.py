"""Certified transformations between bracket presentations.

``prove_equivalent`` searches for a finite sequence of sound rewriting steps
carrying the source presentation, relation by relation, onto the target:

* ``rot``: rotate the entry tuple of one bracket (a relation is cyclic),
* ``conj``: simultaneously conjugate every entry of one bracket by a
  generator (re-chooses the split point of the underlying loop),
* ``comm``: inside one entry, replace a product u^a v^b by v^b u^a, licensed
  by another relation of the presentation that is a 2-bracket [u, v],
* ``swap``: inside one entry, replace one split-point product of another
  relation by a different split-point product of the same relation (or the
  inverse of one by the inverse of the other),
* ``expand``: insert a canceling pair g g^-1 (used by inverted steps to undo
  free reduction), and ``reduce``: freely reduce one entry.

Every accepted search move is recorded together with a mechanically built
inverse, so success produces a two-sided :class:`Certificate` which the
independent checker :func:`replay` verifies letter for letter in both
directions.  Failure is reported as Unknown with the stuck states, never as
a guess.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter, deque
from dataclasses import dataclass, fields, replace as dc_replace

from arrgroup.braid import format_word, free_reduce, word_inverse
from arrgroup.geometry import integer, records
from arrgroup.invariants import HOM_NODES, builtin_group, hom_count
from arrgroup.vankampen import (
    CyclicRelation,
    Presentation,
    candidate_cf,
    conjugate_all,
    conjugate_letter,
    format_presentation,
    is_conjugation_free,
    relabel_presentation,
    rotation_products,
)


@dataclass(frozen=True)
class Budget:
    """Caps for the proof search and downstream counting.

    ``max_word_len`` caps every entry a search move produces;
    ``max_steps`` caps the forward steps of a certificate; ``bfs_nodes``
    caps the per-relation rescue search that runs when the guided phase
    stalls; ``hom_nodes`` caps the unreduced backtracking tree of
    homomorphism counting (``HomCount.nodes``).  Under
    ``cf_verdict(..., "all")`` it also caps the S3 counts by which a
    rescue drops the targets it cannot reach (a reachable one keeps the
    source's count); every output is the same with or without them, and
    an aborted count drops nothing.
    """

    max_word_len: int = 64
    max_steps: int = 20000
    bfs_nodes: int = 20000
    hom_nodes: int = HOM_NODES

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ValueError(f"budget {f.name} must be non-negative, "
                                 f"got {value}")


PLATEAU_NODES = 4000  # nodes of one entry's plateau search
BFS_DEPTH = 12  # moves on one path of the rescue search


class ProverError(ValueError):
    pass


class ReplayError(ValueError):
    """A certificate failed verification; carries a machine-readable code."""

    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


class _BudgetExceeded(Exception):
    pass


class _WordTooLong(Exception):
    pass


@dataclass(frozen=True)
class Certificate:
    ngens: int
    nrels: int
    match: tuple  # of (source_index, target_index)
    forward: tuple  # of step tuples
    backward: tuple

    @property
    def nsteps(self):
        return len(self.forward) + len(self.backward)


@dataclass(frozen=True)
class ProveResult:
    status: str  # "certified" | "unknown"
    certificate: Certificate | None
    reason: str


# ---------------------------------------------------------------------------
# licensed rewrite enumeration (shared by the prover and the checker)
# ---------------------------------------------------------------------------

def _signed(word, sign):
    return tuple(word) if sign == 1 else word_inverse(word)


def _comm_sides(src_words, e1, s1, e2, s2):
    a = _signed(src_words[e1], s1)
    b = _signed(src_words[e2], s2)
    return free_reduce(a + b), free_reduce(b + a)


def _relation_licenses(s, ws):
    """The substitutions relation s (entries ws) licenses, as (lhs, rhs,
    tag): a 2-bracket commutes its entries, and every relation trades one
    split-point product (or its inverse) for another.  The tag is (kind, s,
    forward fields, inverse fields) of the certificate steps."""
    out = []
    if len(ws) == 2:
        sides = {}
        for (e1, e2), s1, s2 in itertools.product(((0, 1), (1, 0)),
                                                  (1, -1), (1, -1)):
            # (e2, s2, e1, s1), met first, has the same sides swapped
            lhs, rhs = sides[e1, s1, e2, s2] = (
                sides[e2, s2, e1, s1][::-1] if e1
                else _comm_sides(ws, e1, s1, e2, s2))
            if lhs and lhs != rhs:
                out.append((lhs, rhs, ("comm", s, (e1, s1, e2, s2),
                                       (e2, s2, e1, s1))))
        # the rotation products are ab and ba: each swap is a comm above
        return out
    prods = rotation_products(ws)
    for m1, m2 in itertools.permutations(range(len(prods)), 2):
        for iv in (0, 1):
            lhs = _signed(prods[m1], 1 - 2 * iv)
            rhs = _signed(prods[m2], 1 - 2 * iv)
            if lhs and lhs != rhs:
                out.append((lhs, rhs, ("swap", s, (m1, m2, iv),
                                       (m2, m1, iv))))
    return out


def _reduce_trace(letters):
    """Leftmost-pair free reduction.  Returns (reduced word, trace) where
    trace lists (position, letter) removals; re-inserting (letter, -letter)
    at each position, in reverse order, rebuilds the input exactly.

    One stack pass: the stack is reduced, so a letter cancelling its top
    always forms the leftmost cancelling pair of the current word."""
    word = []
    trace = []
    for c in letters:
        if word and word[-1] == -c:
            trace.append((len(word) - 1, word.pop()))
        else:
            word.append(c)
    return tuple(word), trace


class _SiteIndex:
    """Every licensed substitution site in a word, (pos, lhs, rhs, tag), in
    the order of the granting relation s, its license index i, then pos.
    Relations' licenses are added and removed whole, grouped by lhs; a word
    is searched by looking up its slices of every lhs length held, and its
    sites are memoized until the licenses change."""

    def __init__(self):
        self.by_lhs = {}
        self.granted = {}  # s -> its licenses
        self.per_length = Counter()  # lhs length -> licenses of that length
        self.memo = None  # word -> its sites; None once the licenses change

    def add(self, s, licenses):
        self.granted[s] = licenses
        for i, (lhs, rhs, tag) in enumerate(licenses):
            self.by_lhs.setdefault(lhs, []).append((s, i, lhs, rhs, tag))
        self.per_length.update(len(lhs) for lhs, _, _ in licenses)
        self.memo = None

    def remove(self, s):
        licenses = self.granted.pop(s)
        for lhs in {lhs for lhs, _, _ in licenses}:
            hits = [hit for hit in self.by_lhs.pop(lhs) if hit[0] != s]
            if hits:
                self.by_lhs[lhs] = hits
        self.per_length.subtract(len(lhs) for lhs, _, _ in licenses)
        self.memo = None

    def __call__(self, w):
        if self.memo is None:
            self.memo = {}
            self.lengths = sorted(+self.per_length)
        sites = self.memo.get(w)
        if sites is None:
            get = self.by_lhs.get
            n = len(w)
            # (s, i, pos) is unique, so the sort never looks past it
            hits = sorted((s, i, pos, lhs, rhs, tag)
                          for k in self.lengths
                          for pos in range(n - k + 1)
                          for s, i, lhs, rhs, tag in get(w[pos:pos + k], ()))
            sites = self.memo[w] = [hit[2:] for hit in hits]
        return sites


def _rewrite(w, pos, lhs, rhs):
    """Replace the lhs at pos in w by rhs and freely reduce: (word, trace).
    Only a cancelling junction needs reducing, as w and rhs are reduced."""
    end = pos + len(lhs)
    new = w[:pos] + rhs + w[end:]
    if (not rhs or pos > 0 and w[pos - 1] == -rhs[0]
            or end < len(w) and rhs[-1] == -w[end]):
        return _reduce_trace(new)
    return new, ()


def _shortens(w, pos, lhs, rhs):
    """Whether _rewrite(w, pos, lhs, rhs) is shorter than w."""
    return len(rhs) < len(lhs) or len(_rewrite(w, pos, lhs, rhs)[0]) < len(w)


# ---------------------------------------------------------------------------
# search moves: ("conj", g) conjugates every entry of a relation by g;
# ("subst", e, pos, lhs, rhs, tag) rewrites entry e at one licensed site
# ---------------------------------------------------------------------------

def _move(words, move, max_len):
    """The relation's words after one move and the free-reduction trace of
    a substitution (a conjugation leaves none), or None when the move is
    refused: a substitution whose rewritten entry is longer than max_len,
    or a conjugation after which any entry is, one already too long
    included."""
    if move[0] == "conj":
        new = conjugate_letter(words, move[1])
        if any(len(w) > max_len for w in new):
            return None
        return new, ()
    _, e, pos, lhs, rhs, _ = move
    red, trace = _rewrite(words[e], pos, lhs, rhs)
    if len(red) > max_len:
        return None
    return words[:e] + (red,) + words[e + 1:], trace


class _State:
    """The relations under rewriting, with the forward steps so far and one
    block of inverse steps per move, in chronological order."""

    def __init__(self, source: Presentation, budget: Budget):
        self.rels = [rel.words for rel in source.relations]
        self.forward = []
        self.backward = []
        self.budget = budget
        # (relation index, its words) -> that relation's licenses; lives for
        # one proof, so it never outgrows the states that proof visits
        self.license_memo = {}
        self.index = _SiteIndex()
        self.live = [None] * len(self.rels)  # words in the index, by s

    def total_len(self, r):
        return sum(len(w) for w in self.rels[r])

    def snapshot(self):
        return list(self.rels), len(self.forward), len(self.backward)

    def restore(self, snap):
        rels, nf, nb = snap
        self.rels = list(rels)
        del self.forward[nf:]
        del self.backward[nb:]

    def _bump(self, n=1):
        if len(self.forward) + n > self.budget.max_steps:
            raise _BudgetExceeded

    def apply_rot(self, r, k):
        words = self.rels[r]
        n = len(words)
        k %= n
        if k == 0:
            return
        self._bump()
        self.rels[r] = words[k:] + words[:k]
        self.forward.append(("rot", r, k))
        self.backward.append([("rot", r, (n - k) % n)])

    def apply(self, r, move):
        """Apply one search move to relation r: the step budget is charged
        first, then the word length is checked."""
        words = self.rels[r]
        if move[0] == "conj":
            self._bump()
            steps = [("conj", r, move[1])]
            undo = [("conj", r, -move[1])]
        else:
            self._bump(2)
            _, e, pos, lhs, _, (kind, s, fwd, bwd) = move
            if words[e][pos:pos + len(lhs)] != lhs:
                raise ProverError("substitution site mismatch")
            steps = [(kind, r, e, pos, s) + fwd, ("reduce", r, e)]
            undo = [(kind, r, e, pos, s) + bwd]
        moved = _move(words, move, self.budget.max_word_len)
        if moved is None:
            raise _WordTooLong
        self.rels[r], trace = moved
        self.forward.extend(steps)
        # re-expand the free reduction, last cancellation first, then undo
        # the rewrite (a conjugation leaves no trace; move[1] is the entry)
        self.backward.append([("expand", r, move[1], p, g)
                              for p, g in reversed(trace)] + undo)

    def sites(self, skip):
        """The proof's one site index, holding the licenses of every
        relation but ``skip``: relations that changed are swapped out and
        in again, each license list built once per state it is in."""
        want = self.rels[:skip] + [None] + self.rels[skip + 1:]
        for s, (had, ws) in enumerate(zip(self.live, want)):
            if had != ws:
                if had is not None:
                    self.index.remove(s)
                if ws is not None:
                    if (s, ws) not in self.license_memo:
                        self.license_memo[s, ws] = _relation_licenses(s, ws)
                    self.index.add(s, self.license_memo[s, ws])
        self.live = want
        return self.index


def _pool_rotation(words, pool):
    """The least k such that words rotated by k is a waiting target, or
    None."""
    for k in range(len(words)):
        if pool.get(words[k:] + words[:k]):
            return k
    return None


def _waiting_rotations(pool):
    """Every rotation of every waiting target: words is one exactly when
    _pool_rotation(words, pool) is not None."""
    return {words[k:] + words[:k] for words, waiting in pool.items()
            if waiting for k in range(len(words))}


def _exponent_sums(words):
    """Each entry's exponent sum of every generator, as sorted nonzero
    (generator, sum) pairs: the entry's image in the abelianization, which
    every search move and free reduction keeps."""
    out = []
    for w in words:
        sums = {}
        for c in w:
            sums[abs(c)] = sums.get(abs(c), 0) + (1 if c > 0 else -1)
        out.append(tuple(sorted((g, s) for g, s in sums.items() if s)))
    return tuple(out)


def _try_claim(state, r, pool, claims):
    k = _pool_rotation(state.rels[r], pool)
    if k is None:
        return False
    state.apply_rot(r, k)
    claims[r] = pool[state.rels[r]].pop(0)
    return True


# ---------------------------------------------------------------------------
# guided phase: improve and lookahead, relation by relation
# ---------------------------------------------------------------------------

def _improve_fixpoint(state, r):
    """Improve relation r until nothing shortens an entry: each pass
    applies the first licensed substitution that shortens an entry, else
    the first plateau path found over the entries of length at least 3.
    The licenses come from the other relations, so one site index serves
    every pass.  Reports whether any move was applied."""
    sites = state.sites(r)
    progressed = False
    while True:
        words = state.rels[r]
        shorter = ((("subst", e) + site,) for e, w in enumerate(words)
                   for site in sites(w) if _shortens(w, *site[:3]))
        plateau = (_plateau_path(e, w, sites)
                   for e, w in enumerate(words) if len(w) >= 3)
        path = next(shorter, None) or next(filter(None, plateau), None)
        if path is None:
            return progressed
        for move in path:
            state.apply(r, move)
        progressed = True


def _plateau_path(e, start, sites):
    """A shortest path of licensed substitutions to a strictly shorter form
    of entry e that never lengthens it (equal-length bridge steps allowed,
    as when a product of a plain bracket must be re-split before anything
    cancels), or None within PLATEAU_NODES."""
    visited = {start}
    queue = deque([(start, ())])
    nodes = 0
    while queue:
        w, path = queue.popleft()
        for site in sites(w):
            red, _ = _rewrite(w, *site[:3])
            if len(red) > len(start) or red in visited:
                continue
            newpath = path + (("subst", e) + site,)
            if len(red) < len(start):
                return newpath
            nodes += 1
            if nodes > PLATEAU_NODES:
                return None
            visited.add(red)
            queue.append((red, newpath))
    return None


def _conj_lookahead(state, r, pool):
    """Peel a conjugating prefix off one wrapped entry (re-splitting the
    relation), then improve; keep the chain only if it shortens the
    relation or lands on an unclaimed target."""
    total0 = state.total_len(r)
    for w in state.rels[r]:
        dd = 0
        while dd < (len(w) - 1) // 2 and w[dd] == -w[-1 - dd]:
            dd += 1
            snap = state.snapshot()
            try:
                for g in w[:dd]:
                    state.apply(r, ("conj", g))
                _improve_fixpoint(state, r)
                if (state.total_len(r) < total0
                        or _pool_rotation(state.rels[r], pool) is not None):
                    return True
            except _WordTooLong:
                pass
            state.restore(snap)
    return False


def _guided_phase(state, pool, claims):
    progress = True
    while progress:
        progress = False
        for r in range(len(state.rels)):
            if r in claims:
                continue
            if _try_claim(state, r, pool, claims):
                progress = True
                continue
            if _improve_fixpoint(state, r):
                progress = True
            if _try_claim(state, r, pool, claims):
                progress = True
                continue
            if _conj_lookahead(state, r, pool):
                progress = True
                _try_claim(state, r, pool, claims)


# ---------------------------------------------------------------------------
# breadth-first rescue for relations the guided phase cannot finish
# ---------------------------------------------------------------------------

def _quotient_targets(state, r, targets, ngens, quotient):
    """The targets that relation r may still reach.  Every rescue move is
    licensed by the other relations, so a reachable target, put in place
    of r, presents the source's group (Tietze).  quotient is (table, the
    source's HomCount into it): a target is dropped when that count for
    its presentation, capped by the budget's hom_nodes, is exact and
    differs (_counts_differ).  An aborted count drops nothing."""
    table, src_count = quotient
    rels = list(state.rels)

    def count(words):
        rels[r] = words
        return hom_count(Presentation(ngens, tuple(map(CyclicRelation, rels))),
                         table, state.budget.hom_nodes)

    return [words for words in targets
            if not _counts_differ(count(words), src_count)]


def _bfs_rescue(state, r, pool, ngens, quotient=None):
    """Best-first search (priority: total relation length, then insertion
    order) over single-relation moves, other relations frozen, until a node
    is a rotation of a waiting target (the pool is fixed meanwhile).

    Every move keeps each entry's exponent sums, so only the waiting
    rotations that share the relation's are searched for, and the relation
    is not searched at all when none does.  Given a quotient, neither are
    the rotations _quotient_targets rules out by their count; the search
    still visits the same nodes and lands on the same one."""
    budget = state.budget
    max_len = budget.max_word_len
    base = state.rels[r]
    sums = _exponent_sums(base)
    targets = [words for words in _waiting_rotations(pool)
               if _exponent_sums(words) == sums]
    if targets and quotient is not None:
        targets = _quotient_targets(state, r, targets, ngens, quotient)
    if not targets:
        return False
    sites = state.sites(r)
    conjs = [("conj", s * g) for g in range(1, ngens + 1) for s in (1, -1)]
    seen = dict.fromkeys(targets, True)  # words -> is a waiting target
    seen[base] = False
    size = len(seen)
    parent = [None]  # node id -> (parent id, move); ids rise in push order
    heap = [(sum(map(len, base)), 0, base, 0)]
    nodes = 0
    while heap:
        total, nid, words, depth = heapq.heappop(heap)
        if depth >= BFS_DEPTH:
            continue
        children = [(new, sum(map(len, new)), move) for move in conjs
                    for new in (conjugate_letter(words, move[1]),)]
        # a conjugation lengthens an entry by at most 2
        if max(map(len, words), default=0) + 2 > max_len:
            children = [child for child in children
                        if all(len(w) <= max_len for w in child[0])]
        for e, w in enumerate(words):
            for site in sites(w):
                red = _rewrite(w, *site[:3])[0]
                if len(red) <= max_len:
                    children.append((words[:e] + (red,) + words[e + 1:],
                                     total - len(w) + len(red),
                                     ("subst", e) + site))
        for new, length, move in children:
            landed = seen.setdefault(new, False)
            if not landed and len(seen) == size:
                continue  # visited before
            nodes += 1
            if nodes > budget.bfs_nodes:
                return False
            if landed:
                path = [move]
                while nid:
                    nid, move = parent[nid]
                    path.append(move)
                for move in reversed(path):
                    state.apply(r, move)
                return True
            size += 1
            heapq.heappush(heap, (length, len(parent), new, depth + 1))
            parent.append((nid, move))
    return False


# ---------------------------------------------------------------------------
# prove / replay
# ---------------------------------------------------------------------------

def _unmatched_report(state, claims):
    stuck = []
    for r in range(len(state.rels)):
        if r not in claims:
            body = " ; ".join(format_word(w) for w in state.rels[r])
            stuck.append(f"relation {r}: [ {body} ]")
    return "; ".join(stuck)


def prove_equivalent(source: Presentation, target: Presentation,
                     budget: Budget | None = None) -> ProveResult:
    """Search for a certificate carrying source onto target.

    Returns status "certified" with a two-sided, replay-checked certificate,
    or "unknown" with the stuck intermediate states.  Unknown means the
    search failed within budget, nothing more.
    """
    return _prove(source, target, budget or Budget(), None)


def _prove(source, target, budget, quotient):
    """prove_equivalent; a quotient (group table, the source's HomCount
    into it) lets each rescue drop targets by count (_quotient_targets)."""
    if source.ngens != target.ngens:
        return ProveResult("unknown", None, "generator counts differ")
    if len(source.relations) != len(target.relations):
        return ProveResult("unknown", None, "relation counts differ")

    pool = {}
    for t, rel in enumerate(target.relations):
        pool.setdefault(rel.words, []).append(t)

    state = _State(source, budget)
    claims = {}
    try:
        _guided_phase(state, pool, claims)
        progress = True
        while progress and len(claims) < len(state.rels):
            progress = False
            for r in range(len(state.rels)):
                if r in claims:
                    continue
                if _bfs_rescue(state, r, pool, source.ngens, quotient):
                    if not _try_claim(state, r, pool, claims):
                        raise ProverError("rescue landed off target")
                    _guided_phase(state, pool, claims)
                    progress = True
    except _BudgetExceeded:
        return ProveResult("unknown", None, "step budget exhausted")
    except _WordTooLong:
        return ProveResult("unknown", None, "word length budget exhausted")

    if len(claims) < len(state.rels):
        return ProveResult(
            "unknown", None, "no path found for: " +
            _unmatched_report(state, claims))

    cert = Certificate(
        ngens=source.ngens,
        nrels=len(state.rels),
        match=tuple(sorted(claims.items())),
        forward=tuple(state.forward),
        # the inverse blocks, latest first: executable front to back
        backward=tuple(step for block in reversed(state.backward)
                       for step in block),
    )
    try:
        replay(source, target, cert)
    except ReplayError as exc:
        return ProveResult("unknown", None,
                           f"internal certificate check failed: {exc}")
    return ProveResult("certified", cert, "")


def _check_index(ok, what, *args):
    if not ok:
        raise ReplayError("bad-index", what.format(*args))


def _replay_step(rels, step, nrels, ngens, memo):
    """Apply one step to rels; memo is the replay's, keyed by words."""
    kind = step[0] if step else None
    if kind not in _STEP_ARITY:
        raise ReplayError("unknown-step", str(step))
    if len(step) != 1 + _STEP_ARITY[kind]:
        raise ReplayError("bad-arity", f"wrong field count: {step}")
    r = step[1]
    _check_index(0 <= r < nrels, "{}: relation {}", kind, r)
    if kind in ("reduce", "expand", "comm", "swap"):
        e = step[2]
        _check_index(0 <= e < len(rels[r]), "{}: entry {} of relation {}",
                     kind, e, r)
    if kind in ("conj", "expand"):
        g = step[-1]
        _check_index(1 <= abs(g) <= ngens, "{}: generator {}", kind, g)
    if kind == "rot":
        words = rels[r]
        k = step[2] % len(words)
        rels[r] = words[k:] + words[:k]
    elif kind == "conj":
        rels[r] = list(conjugate_all(rels[r], (g,)))
    elif kind == "reduce":
        rels[r][e] = free_reduce(rels[r][e])
    elif kind == "expand":
        pos = step[3]
        w = tuple(rels[r][e])
        if not 0 <= pos <= len(w):
            raise ReplayError("bad-position", f"expand at {pos} in {w}")
        rels[r][e] = w[:pos] + (g, -g) + w[pos:]
    else:
        pos, s = step[3:5]
        if s == r:
            raise ReplayError("self-justified", f"relation {r} cites itself")
        _check_index(0 <= s < nrels, "source relation {}", s)
        src = tuple(map(tuple, rels[s]))
        if kind == "comm":
            _, _, _, _, _, e1, s1, e2, s2 = step
            if len(src) != 2:
                raise ReplayError("not-a-pair",
                                  f"relation {s} is not a 2-bracket")
            _check_index(e1 in (0, 1) and e2 in (0, 1)
                         and s1 in (1, -1) and s2 in (1, -1),
                         "comm entries {},{} signs {},{}", e1, e2, s1, s2)
            key = (src, e1, s1, e2, s2)
            lhs, rhs = memo.get(key) or memo.setdefault(
                key, _comm_sides(src, e1, s1, e2, s2))
        else:
            _, _, _, _, _, m1, m2, iv = step
            prods = memo.get(src) or memo.setdefault(src,
                                                     rotation_products(src))
            _check_index(0 <= m1 < len(prods) and 0 <= m2 < len(prods)
                         and m1 != m2 and iv in (0, 1),
                         "products {},{} inverse flag {}", m1, m2, iv)
            lhs = _signed(prods[m1], 1 - 2 * iv)
            rhs = _signed(prods[m2], 1 - 2 * iv)
        w = tuple(rels[r][e])
        if pos < 0 or w[pos:pos + len(lhs)] != lhs:
            raise ReplayError(
                "no-occurrence",
                f"{kind}: expected {format_word(lhs)} at {pos} of "
                f"{format_word(w)}")
        rels[r][e] = w[:pos] + rhs + w[pos + len(lhs):]


def replay(source: Presentation, target: Presentation,
           cert: Certificate) -> None:
    """Independently verify a certificate in both directions.

    Forward: apply every forward step to the source; relation r must end
    letter-for-letter equal to target relation match(r).  Backward: arrange
    the target relations by the matching and apply the backward steps; the
    result must equal the source exactly.  Raises ReplayError on any
    discrepancy.
    """
    if source.ngens != cert.ngens or target.ngens != cert.ngens:
        raise ReplayError("gens-mismatch", "generator counts differ")
    nrels = len(source.relations)
    if len(target.relations) != nrels or cert.nrels != nrels:
        raise ReplayError("rels-mismatch", "relation counts differ")
    match = dict(cert.match)
    if (len(cert.match) != nrels or sorted(match) != list(range(nrels))
            or sorted(match.values()) != list(range(nrels))):
        raise ReplayError("bad-matching", "match is not a bijection")

    matched = [target.relations[match[r]] for r in range(nrels)]
    memo = {}
    for start, steps, end, direction, side in (
            (source.relations, cert.forward, matched, "forward", "target"),
            (matched, cert.backward, source.relations, "backward", "source")):
        rels = [list(rel.words) for rel in start]
        for step in steps:
            _replay_step(rels, step, nrels, cert.ngens, memo)
        for r in range(nrels):
            got = tuple(tuple(w) for w in rels[r])
            want = end[r].words
            if got != want:
                raise ReplayError(
                    f"{direction}-mismatch",
                    f"relation {r} ended at {got}, {side} has {want}")


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def format_certificate(cert: Certificate) -> str:
    lines = [
        "certificate-v1",
        f"gens={cert.ngens}",
        f"relations={cert.nrels}",
    ]
    lines.extend(f"match {r} {t}" for r, t in cert.match)
    lines.append(f"forward {len(cert.forward)}")
    lines.extend(" ".join(str(x) for x in step) for step in cert.forward)
    lines.append(f"backward {len(cert.backward)}")
    lines.extend(" ".join(str(x) for x in step) for step in cert.backward)
    lines.append("end")
    return "\n".join(lines) + "\n"


_STEP_ARITY = {"rot": 2, "conj": 2, "reduce": 2, "expand": 4,
               "comm": 8, "swap": 7}
# the fields of every record after the gens= and relations= headers
_RECORD_FIELDS = {**_STEP_ARITY, "match": 2, "forward": 1, "backward": 1}


def parse_certificate(text: str) -> Certificate:
    lines = records(text)
    if next(lines, (0, None))[1] != "certificate-v1":
        raise ReplayError("bad-file", "not a certificate file")
    ngens = nrels = None
    match = []
    steps = {"forward": [], "backward": []}
    declared = {}
    section = None
    for lineno, body in lines:
        if body == "end":
            break
        if body.startswith("gens="):
            ngens = integer(body[5:], lineno)
            continue
        if body.startswith("relations="):
            nrels = integer(body[10:], lineno)
            continue
        kind, *args = body.split()
        if kind not in _RECORD_FIELDS:
            raise ReplayError("bad-file", f"unknown step kind {kind!r}")
        if len(args) != _RECORD_FIELDS[kind]:
            raise ReplayError("bad-file", f"line {lineno}: {kind} expects "
                              f"{_RECORD_FIELDS[kind]} fields: {body!r}")
        values = tuple(integer(x, lineno) for x in args)
        if kind == "match":
            match.append(values)
        elif kind in steps:
            declared[kind] = values[0]
            section = steps[kind]
        elif section is None:
            raise ReplayError("bad-file", "step outside forward/backward section")
        else:
            section.append((kind,) + values)
    if ngens is None or nrels is None:
        raise ReplayError("bad-file", "missing gens= or relations= header")
    for kind, count in declared.items():
        if count != len(steps[kind]):
            raise ReplayError("bad-file", f"{kind} declares {count} steps, "
                              f"found {len(steps[kind])}")
    return Certificate(ngens, nrels, tuple(match), tuple(steps["forward"]),
                       tuple(steps["backward"]))


# ---------------------------------------------------------------------------
# the full verdict: search over generator orderings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    status: str  # "Certified" | "Unknown"
    ordering: tuple | None
    candidate: Presentation | None  # in ascending generator labels
    candidate_line_labels: Presentation | None
    certificate: Certificate | None
    orderings_tried: int
    candidates_distinct: int
    evidence: tuple
    reason: str


def _counts_differ(a, b):
    """Whether two homomorphism counts are both exact and differ, which
    rules out any isomorphism between their groups."""
    return a.outcome == b.outcome == "exact" and a.count != b.count


def _cyclic_order(incident, slot):
    """The point's lines (ascending incident) in slot order, rotated to
    start at its least line: the least rotation, as the lines are
    distinct.  Two lines have one cyclic order."""
    if len(incident) == 2:
        return incident
    ring = sorted(incident, key=slot.get)
    k = ring.index(incident[0])
    return tuple(ring[k:] + ring[:k])


def cf_verdict(lattice, pres: Presentation, orderings: str = "identity",
               budget: Budget | None = None) -> Verdict:
    """Certify (or fail to certify) that the arrangement presentation is
    equivalent to the lattice-determined conjugation-free candidate.

    orderings="identity" tries the given line order only; "all" tries every
    permutation of the lines.  A permutation changes the line-labelled
    candidate only through the cyclic order of the lines at each point,
    so the search keys permutations by that tuple of cyclic orders, and
    each distinct candidate is built, counted into S3 and proved once.  One
    whose exact S3 count differs from the presentation's is not proved,
    since no certificate can exist for it; inside each proof the same test
    drops the rescue targets it rules out (_quotient_targets).  The Unknown
    verdict carries homomorphism-count evidence when the "all" search
    fails everywhere; with a single ordering its reason is the prover's
    (the budget that ran out, or the stuck relations).
    """
    budget = budget or Budget()
    n = pres.ngens
    if lattice.n != n:
        raise ProverError("lattice and presentation disagree on line count")
    s3 = quotient = None
    if orderings == "identity":
        orderings = tuple(range(1, n + 1))
    if not isinstance(orderings, str):
        perm = tuple(orderings)
        if sorted(perm) != list(range(1, n + 1)):
            raise ProverError("explicit ordering must permute the lines")
        perms = [perm]
    elif orderings == "all":
        if n > 8:
            raise ProverError("ordering search is capped at 8 lines")
        perms = itertools.permutations(range(1, n + 1))
        s3 = builtin_group("S3")
        src_count = hom_count(pres, s3, budget.hom_nodes)
        quotient = (s3, src_count)
        budget = dc_replace(budget, bfs_nodes=max(100, budget.bfs_nodes // 4))
    else:
        raise ProverError(f"unknown orderings mode {orderings!r}")

    # cyclic orders -> S3 count of that candidate (None for one ordering)
    counts = {}
    for tried, perm in enumerate(perms, 1):
        slot = {line: j for j, line in enumerate(perm)}
        key = tuple(_cyclic_order(pt.incident, slot)
                    for pt in lattice.points)
        if key in counts:
            continue
        cand_pos = candidate_cf(lattice, perm)
        cand_line = relabel_presentation(cand_pos, perm)
        cnt = counts[key] = (hom_count(cand_line, s3, budget.hom_nodes)
                             if s3 is not None else None)
        # a certificate makes the two groups equal, so a candidate whose
        # S3 count differs is not proved
        if cnt is not None and _counts_differ(cnt, src_count):
            continue
        result = _prove(pres, cand_line, budget, quotient)
        if result.status == "certified":
            assert is_conjugation_free(cand_pos)
            return Verdict("Certified", perm, cand_pos, cand_line,
                           result.certificate, tried, len(counts), (), "")

    if orderings != "all":
        return Verdict("Unknown", None, None, None, None, tried, len(counts),
                       (), result.reason)
    evidence = [f"homomorphisms to S3: presentation {src_count.count}"]
    for key, cnt in sorted(counts.items()):
        marker = ("differs, so this candidate is not equivalent"
                  if _counts_differ(cnt, src_count) else "matches")
        evidence.append(f"candidate with relations {len(key)}: "
                        f"{cnt.count} ({marker})")
    if all(_counts_differ(cnt, src_count) for cnt in counts.values()):
        evidence.append(
            "every distinct candidate has a different homomorphism "
            "count, so no ordering can work; reported Unknown because "
            "the verdict vocabulary has no stronger negative")
    return Verdict("Unknown", None, None, None, None, tried, len(counts),
                   tuple(evidence),
                   "no ordering produced a certificate within budget")


def format_verdict(v: Verdict) -> str:
    lines = [f"status: {v.status}",
             f"orderings tried: {v.orderings_tried}",
             f"distinct candidates: {v.candidates_distinct}"]
    if v.status == "Certified":
        lines.append("ordering (line for each generator slot): "
                     + " ".join(str(i) for i in v.ordering))
        lines.append(f"certificate steps: {v.certificate.nsteps}")
        lines.append("candidate (ascending labels):")
        lines.append(format_presentation(v.candidate).rstrip())
        lines.append("candidate (line labels, the certificate target):")
        lines.append(format_presentation(v.candidate_line_labels).rstrip())
    else:
        lines.append(f"reason: {v.reason}")
        for item in v.evidence:
            lines.append(f"evidence: {item}")
    return "\n".join(lines) + "\n"
