"""The benchmark's four workloads.

Each workload makes rounds of items from a seed (input generation and answer
tables, untimed) and knows three things about one item:

* ``run``: the timed call chain, made of the program's public entry points
  exactly as a library user or the CLI calls them;
* ``check``: the untimed answer check, returning a list of problems;
* ``traced``: the same item as the chain of public calls the entry points are
  made of, with a span around each call and the work counters recorded.  It
  reports any difference from the output ``run`` gave.

An item is one arrangement, or one presentation-group pair in ``homcount``.
The program sees only the item's text: arrangement text, or presentation
text in ``homcount``.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from itertools import permutations
from math import gcd

from arrgroup import (
    AbelianInvariants,
    Budget,
    CyclicRelation,
    Presentation,
    abelianization,
    builtin_group,
    candidate_cf,
    cf_verdict,
    compute_lattice,
    format_presentation,
    genericize,
    hom_count,
    hom_count_scalar,
    lefschetz_pairs,
    parse_arrangement,
    parse_presentation,
    point_relation_words,
    presentation,
    prove_equivalent,
    relabel_presentation,
    replay,
    validate_pairs,
)

import gen

GROUPS = ("S3", "D4", "A4", "S4", "A5")
# hom_count_scalar, about 30 times slower than hom_count, cross-checks the
# items whose vectorized count visits at most this many nodes
SCALAR_MAX_NODES = 60_000


def fixture_text(name):
    return resources.files("arrgroup").joinpath(
        f"fixtures/{name}.lines").read_text()


def item_rng(seed, workload, rnd, label):
    return random.Random(f"{seed}/{workload}/{rnd}/{label}")


def base_rng(workload, label):
    """The generator of an item type's base input: the same for every seed."""
    return random.Random(f"base/{workload}/{label}")


@dataclass(frozen=True)
class Item:
    label: str     # the item type, e.g. "kp24" or "cycle5>A4"
    text: str      # the program's only input
    arg: object    # ordering mode (certify, refute) or group name (homcount)
    answer: dict   # facts for the check, fixed at set-up


@dataclass(frozen=True)
class Swept:
    shear: Fraction
    lattice: object
    pairs: object
    presentation: Presentation
    candidate: Presentation


# ---------------------------------------------------------------------------
# counters derived from outputs
# ---------------------------------------------------------------------------

def shear_attempts(t):
    """Rank of the returned shear in genericize's documented order 1, 1/2,
    2, 1/3, 3, ...; each attempt costs one lattice.  0 when no shear."""
    if t == 0:
        return 0
    rank, height = 0, 2
    while True:
        for p in range(1, height):
            if gcd(p, height - p) == 1:
                rank += 1
                if Fraction(p, height - p) == t:
                    return rank
        height += 1


def twists_applied(pl):
    """Sum over points i of len(prefix_braid(pl, i)) * (b_i - a_i + 1): the
    half-twist letters the transport applies to the point's meridians."""
    total = prefix = 0
    for a, b in pl.pairs:
        total += prefix * (b - a + 1)
        prefix += (b - a + 1) * (b - a) // 2
    return total


def digest(pres):
    return hashlib.sha256(format_presentation(pres).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the sweep: untraced and traced
# ---------------------------------------------------------------------------

def sweep(text):
    arr = parse_arrangement(text)
    generic, tf = genericize(arr)
    lat = compute_lattice(generic)
    pl = lefschetz_pairs(generic)
    return Swept(tf.t, lat, pl, presentation(pl), candidate_cf(lat))


def sweep_traced(text, tr):
    arr = tr.call("geometry.parse", parse_arrangement, text)
    generic, tf = tr.call("wiring.genericize", genericize, arr)
    lat = tr.call("geometry.lattice", compute_lattice, generic)
    pl = tr.call("wiring.pairs", lefschetz_pairs, generic)
    # presentation(pl), split into its public parts
    tr.call("wiring.validate", validate_pairs, pl)
    rels = []
    for i in range(1, len(pl.pairs) + 1):
        words = tr.call("braid.transport", point_relation_words, pl, i)
        rel = tr.call("vankampen.canon", CyclicRelation.make, words, pl.ell)
        tr.count("vankampen.letters_raw", sum(map(len, words)))
        tr.count("vankampen.letters_canon", sum(map(len, rel.words)))
        rels.append(rel)
    pres = Presentation(pl.ell, tuple(rels), "affine")
    cand = tr.call("vankampen.candidate", candidate_cf, lat)
    tr.count("geometry.lattice_points", len(lat.points))
    tr.count("wiring.shear_attempts", shear_attempts(tf.t))
    tr.count("braid.twists_applied", twists_applied(pl))
    return Swept(tf.t, lat, pl, pres, cand)


def same_sweep(a, b):
    return (a.shear == b.shear and a.pairs == b.pairs
            and a.presentation == b.presentation
            and a.candidate == b.candidate)


# ---------------------------------------------------------------------------
# cf_verdict, split into its public parts
# ---------------------------------------------------------------------------

def verdict_identity_traced(lat, pres, tr):
    """cf_verdict(lat, pres, "identity") as candidate, relabel and prove.
    Returns (status, candidate in line labels, ProveResult)."""
    perm = tuple(range(1, pres.ngens + 1))
    with tr.span("prover.verdict"):
        cand_pos = tr.call("vankampen.candidate", candidate_cf, lat, perm)
        cand_line = tr.call("vankampen.candidate", relabel_presentation,
                            cand_pos, perm)
        result = tr.call("prover.prove", prove_equivalent, pres, cand_line,
                         Budget())
    count_proof(tr, result)
    status = "Certified" if result.status == "certified" else "Unknown"
    return status, cand_line, result


def count_proof(tr, result):
    tr.count("prover.prove_calls")
    if result.status == "certified":
        tr.count("prover.certified")
        tr.count("prover.cert_steps", result.certificate.nsteps)


def verdict_all_traced(lat, pres, tr):
    """cf_verdict(lat, pres, "all") as the candidate, relabel, prove and
    hom_count calls it makes, with the per-candidate budget that mode uses.
    Returns (status, orderings tried, distinct candidates, evidence)."""
    budget = Budget()
    per_budget = replace(budget, bfs_nodes=max(100, budget.bfs_nodes // 4))
    n = pres.ngens
    with tr.span("prover.verdict"):
        cache = {}
        tried = 0
        status = "Unknown"
        for perm in permutations(range(1, n + 1)):
            cand_pos = tr.call("vankampen.candidate", candidate_cf, lat, perm)
            cand_line = tr.call("vankampen.candidate", relabel_presentation,
                                cand_pos, perm)
            key = tuple(rel.words for rel in cand_line.relations)
            tried += 1
            if key not in cache:
                result = tr.call("prover.prove", prove_equivalent, pres,
                                 cand_line, per_budget)
                count_proof(tr, result)
                cache[key] = (result, cand_line)
            if cache[key][0].status == "certified":
                status = "Certified"
                break
        evidence = []
        if status == "Unknown":
            with tr.span("invariants.evidence"):
                evidence = evidence_traced(pres, cache, budget, tr)
    return status, tried, len(cache), tuple(evidence)


def evidence_traced(pres, cache, budget, tr):
    table = tr.call("invariants.group_table", builtin_group, "S3")
    src = counted_hom(tr, pres, table, budget.hom_nodes)
    evidence = [f"homomorphisms to S3: presentation {src.count}"]
    ruled_out = 0
    for _, (_, cand_line) in sorted(cache.items(), key=lambda kv: kv[0]):
        cnt = counted_hom(tr, cand_line, table, budget.hom_nodes)
        marker = "matches"
        if (cnt.outcome == "exact" and src.outcome == "exact"
                and cnt.count != src.count):
            marker = "differs, so this candidate is not equivalent"
            ruled_out += 1
        evidence.append(f"candidate with relations "
                        f"{len(cand_line.relations)}: {cnt.count} ({marker})")
    if ruled_out == len(cache):
        evidence.append(
            "every distinct candidate has a different homomorphism "
            "count, so no ordering can work; reported Unknown because "
            "the verdict vocabulary has no stronger negative")
    return evidence


def counted_hom(tr, pres, table, *cap):
    result = tr.call("invariants.hom_count", hom_count, pres, table, *cap)
    tr.count("invariants.hom_nodes", result.nodes)
    return result


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """A round is the workload's fixed list of item types.  Each type has a
    base input drawn once from a generator seeded by the workload and the
    item's label alone; a round gives every type a fresh input made from
    the base and the run's seed by a transformation that keeps the work the
    program does (gen.homothety, gen.rotate_brackets).  So every round of
    every seed does the same work, and the spread between runs is the
    machine's, not the inputs'."""

    name = ""
    # seconds one round takes on the baseline commit; a run measures
    # ceil(--seconds / round_seconds) rounds, so every run of a workload
    # measures the same work whatever the machine's speed
    round_seconds = 1.0
    # item types repeated in a round, so that the median and the tail rank
    # of a run's item times fall among many samples of one kind of work
    REPEAT = {}

    def __init__(self, answers):
        self.answers = answers

    def make_round(self, seed, rnd):
        return [self.item(label, base,
                          item_rng(seed, self.name, rnd, f"{label}#{k}"))
                for label, base in self.bases
                for k in range(self.REPEAT.get(label, 1))]

    @property
    def bases(self):
        """((label, base input), ...), computed once."""
        raise NotImplementedError

    def item(self, label, base, rng):
        """The item of one round: base transformed with rng."""
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out):
        raise NotImplementedError

    def traced(self, item, tr, ref):
        """Returns a list of mismatches against the untraced output."""
        raise NotImplementedError


class ArrangementWorkload(Workload):
    """Items whose input is arrangement text: the seed moves and scales the
    base arrangement (a homothety), which keeps its wiring diagram."""

    FAMILIES = {"kp": gen.k_pencil, "generic": gen.generic,
                "pencil": gen.single_pencil}
    FIXTURES = ()
    LADDER = ()    # (family, n)
    ORDERING = None

    @functools.cached_property
    def bases(self):
        out = [(name, fixture_text(name)) for name in self.FIXTURES]
        for tag, n in self.LADDER:
            label = f"{tag}{n}"
            out.append((label, self.FAMILIES[tag](base_rng(self.name, label),
                                                  n)))
        return tuple(out)

    def item(self, label, base, rng):
        return Item(label, gen.homothety(rng, base), self.ORDERING,
                    self.answer(label, base))

    def answer(self, label, base):
        return {}


class SweepWorkload(ArrangementWorkload):
    """parse -> genericize -> lattice -> pairs -> presentation -> candidate
    on a size ladder of three families; no prover or invariants work."""

    name = "sweep"
    round_seconds = 6.3
    LADDER = (("pencil", 16), ("pencil", 32), ("kp", 16), ("generic", 16),
              ("kp", 20), ("generic", 20), ("kp", 24), ("kp", 32))
    # a run is 3 rounds of 10 items: 12 below 0.2 s, kp20 and generic20
    # (about 0.4 s) at ranks 12-17, kp24 (about 0.8 s) at 18-26 and kp32
    # above, so the median (ranks 14 and 15) and the tail rank (21) each
    # fall in the middle of a cluster of like items, not between two sizes
    REPEAT = {"kp24": 3}

    def answer(self, label, base):
        return {"mults": gen.multiplicities(gen.parse_lines(base)),
                "digest": self.answers["sweep_digests"][label]}

    def run(self, item):
        return sweep(item.text)

    def check(self, item, s):
        problems = []
        pres, lat, pl = s.presentation, s.lattice, s.pairs
        if len(pres.relations) != len(lat.points):
            problems.append("relation count != lattice point count")
        ks = [rel.k for rel in pres.relations]
        if ks != [b - a + 1 for a, b in pl.pairs]:
            problems.append("bracket sizes differ from the pair list")
        if sorted(ks) != item.answer["mults"]:
            problems.append("bracket sizes differ from the designed "
                            "multiplicities")
        if abelianization(pres) != AbelianInvariants(pres.ngens, ()):
            problems.append("abelianization is not free of full rank")
        if digest(pres) != item.answer["digest"]:
            problems.append("presentation digest differs from the recorded "
                            "one")
        return problems

    def traced(self, item, tr, ref):
        s = sweep_traced(item.text, tr)
        return [] if same_sweep(s, ref) else ["traced sweep differs"]


class CertifyWorkload(ArrangementWorkload):
    """sweep, cf_verdict(..., "identity") and replay on inputs that certify:
    the prover's success path and the replay checker."""

    name = "certify"
    round_seconds = 8.1
    ORDERING = "identity"
    FIXTURES = ("triangle", "triangle_plus_line", "cycle5")
    # k-pencils stop at n=14: kp16's proof takes 3 to 15 s depending on the
    # arrangement, which would make one item most of a run
    LADDER = tuple((tag, n) for tag in ("generic", "kp")
                   for n in (8, 10, 12, 14))
    # a run is 2 rounds of 15 items: 10 below 0.3 s, kp10 (about 0.35 s)
    # at ranks 10-19, kp12 and generic12 (about 0.65 s) at 20-23 and the
    # rest above, so the median (ranks 14 and 15) falls in the middle of
    # the kp10 cluster and the tail rank (21) inside the n=12 cluster
    REPEAT = {"kp10": 5}

    def run(self, item):
        s = sweep(item.text)
        v = cf_verdict(s.lattice, s.presentation, item.arg)
        if v.status == "Certified":
            replay(s.presentation, v.candidate_line_labels, v.certificate)
        return s, v

    def check(self, item, out):
        _, v = out
        # run() replays every certificate; reaching here means it replayed
        if v.status != "Certified":
            return [f"expected Certified, got {v.status}: {v.reason}"]
        return []

    def traced(self, item, tr, ref):
        s = sweep_traced(item.text, tr)
        status, cand_line, result = verdict_identity_traced(
            s.lattice, s.presentation, tr)
        if status == "Certified":
            tr.call("prover.replay", replay, s.presentation, cand_line,
                    result.certificate)
        ref_s, ref_v = ref
        if not (same_sweep(s, ref_s) and status == ref_v.status
                and result.certificate == ref_v.certificate):
            return ["traced verdict differs"]
        return []


class RefuteWorkload(ArrangementWorkload):
    """Inputs whose correct verdict is Unknown: ceva under "all", and
    rational affine images of ceva with shuffled lines under "identity",
    kept only when the identity candidate's S3 count differs from the
    presentation's, which proves Unknown right."""

    name = "refute"
    round_seconds = 27.0
    IMAGES = 4
    # images 3 and 4 take about 2.3 s each and images 1 and 2 about 3.5 and
    # 4.1 s; with seven samples of the cheap pair and only ceva "all" and
    # image 1 above them, the median and the tail rank (the 5th and 6th of
    # 9 items) both fall inside one cluster.  Image 2 is still drawn, so
    # the later images keep their inputs, but it is left out of the round.
    REPEAT = {"ceva-image2": 0, "ceva-image3": 4, "ceva-image4": 3}

    @functools.cached_property
    def bases(self):
        ceva = fixture_text("ceva")
        s3 = builtin_group("S3")
        out = [("ceva-all", ceva)]
        rng = base_rng(self.name, "ceva-image")
        while len(out) <= self.IMAGES:
            text = gen.affine_image(rng, ceva)
            s = sweep(text)
            if hom_count(s.candidate, s3).count != hom_count(
                    s.presentation, s3).count:
                out.append((f"ceva-image{len(out)}", text))
        return tuple(out)

    def item(self, label, base, rng):
        if label == "ceva-all":
            return Item(label, gen.homothety(rng, base), "all",
                        self.answers["ceva_all"])
        return Item(label, gen.homothety(rng, base), "identity",
                    {"s3": self.answers["homcount"]["ceva>S3"]})

    def run(self, item):
        s = sweep(item.text)
        return s, cf_verdict(s.lattice, s.presentation, item.arg)

    def check(self, item, out):
        s, v = out
        problems = []
        if v.status != "Unknown":
            problems.append(f"expected Unknown, got {v.status}")
        if item.arg == "all":
            want = item.answer
            differs = sum("differs" in e for e in v.evidence)
            if (v.orderings_tried, v.candidates_distinct, differs,
                    v.evidence[:1]) != (want["tried"], want["distinct"],
                                        want["differs"],
                                        (want["evidence0"],)):
                problems.append("ordering search or evidence differs from "
                                "the recorded one")
            return problems
        s3 = builtin_group("S3")
        source = hom_count(s.presentation, s3).count
        if source != item.answer["s3"]:
            problems.append(f"S3 count {source} of an affine image differs "
                            f"from ceva's {item.answer['s3']}")
        if hom_count(s.candidate, s3).count == source:
            problems.append("identity candidate is not ruled out by S3")
        return problems

    def traced(self, item, tr, ref):
        s = sweep_traced(item.text, tr)
        ref_s, ref_v = ref
        if item.arg == "identity":
            status, _, result = verdict_identity_traced(
                s.lattice, s.presentation, tr)
            ok = (status == ref_v.status and result.certificate is None
                  and result.status == "unknown")
            return ([] if ok and same_sweep(s, ref_s)
                    else ["traced verdict differs"])
        mark = tr.mark()
        got = verdict_all_traced(s.lattice, s.presentation, tr)
        if got == (ref_v.status, ref_v.orderings_tried,
                   ref_v.candidates_distinct, ref_v.evidence):
            return [] if same_sweep(s, ref_s) else ["traced sweep differs"]
        # the split no longer mirrors cf_verdict: time it undivided
        tr.rollback(mark)
        tr.count("prover.verdict_undivided")
        v = tr.call("prover.verdict", cf_verdict, s.lattice, s.presentation,
                    item.arg)
        return [] if v == ref_v else ["traced verdict differs"]


class HomcountWorkload(Workload):
    """parse_presentation -> builtin_group -> hom_count over the
    presentations of fixtures, affine images of fixtures, generic
    arrangements and single pencils, into S3, D4, A4, S4 and A5.  The seed
    rotates the entries of each bracket (gen.rotate_brackets)."""

    name = "homcount"
    round_seconds = 8.5
    # fixture presentations; the recorded count is the answer
    FIXTURES = (("cycle5", "A4"), ("cycle5", "S3"), ("ceva", "S3"),
                ("triangle", "S4"))
    # affine images with shuffled lines: the fixture's recorded count
    # (metamorphic)
    IMAGES = (("triangle", "A5"), ("ceva", "A5"), ("ceva", "D4"),
              ("triangle_plus_line", "S4"))
    # generic arrangements: group Z^n, count = commuting n-tuples
    GENERIC = ((7, "A4"), (8, "S3"), (8, "S4"))
    # single pencils: group Z x F_{n-1}, count = sum |C(z)|^(n-1)
    PENCILS = ((3, "S3"), (6, "S3"), (5, "D4"), (4, "A4"))
    REPEAT = {"triangle_plus_line-image>S4": 8, "triangle-image>A5": 6}

    def __init__(self, answers):
        super().__init__(answers)
        self.tables = {g: builtin_group(g) for g in GROUPS}

    @functools.cached_property
    def bases(self):
        """((label, (presentation text, group, count)), ...)"""
        recorded = self.answers["homcount"]
        out = []

        def add(label, arr_text, group, count):
            pres = sweep(arr_text).presentation
            out.append((label, (format_presentation(pres), group, count)))

        for name, g in self.FIXTURES:
            add(f"{name}>{g}", fixture_text(name), g, recorded[f"{name}>{g}"])
        for name, g in self.IMAGES:
            label = f"{name}-image>{g}"
            add(label, gen.affine_image(base_rng(self.name, label),
                                        fixture_text(name)),
                g, recorded[f"{name}>{g}"])
        for n, g in self.GENERIC:
            label = f"generic{n}>{g}"
            add(label, gen.generic(base_rng(self.name, label), n), g,
                commuting_tuples(self.tables[g], n))
        for n, g in self.PENCILS:
            label = f"pencil{n}>{g}"
            add(label, gen.single_pencil(base_rng(self.name, label), n), g,
                pencil_count(self.tables[g], n))
        return tuple(out)

    def item(self, label, base, rng):
        text, group, count = base
        return Item(label, gen.rotate_brackets(rng, text), group,
                    {"count": count})

    def run(self, item):
        pres = parse_presentation(item.text)
        return hom_count(pres, builtin_group(item.arg))

    def check(self, item, out):
        problems = []
        if out.outcome != "exact" or out.count != item.answer["count"]:
            problems.append(f"count {out.count} ({out.outcome}), expected "
                            f"{item.answer['count']}")
        if out.nodes <= SCALAR_MAX_NODES:
            scalar = hom_count_scalar(parse_presentation(item.text),
                                      self.tables[item.arg],
                                      4 * SCALAR_MAX_NODES)
            if (scalar.outcome, scalar.count) != ("exact", out.count):
                problems.append(f"scalar counter gives {scalar.count} "
                                f"({scalar.outcome})")
        return problems

    def traced(self, item, tr, ref):
        pres = tr.call("vankampen.parse", parse_presentation, item.text)
        table = tr.call("invariants.group_table", builtin_group, item.arg)
        got = counted_hom(tr, pres, table)
        return [] if got == ref else ["traced count differs"]


# ---------------------------------------------------------------------------
# closed forms for homcount answers, computed from the group table
# ---------------------------------------------------------------------------

def _centralizers(table):
    t = table.table
    return [frozenset(y for y in range(table.order) if t[x][y] == t[y][x])
            for x in range(table.order)]


def pencil_count(table, n):
    """|Hom(Z x F_{n-1}, G)| = sum over z of |C_G(z)|^(n-1)."""
    return sum(len(c) ** (n - 1) for c in _centralizers(table))


def commuting_tuples(table, n):
    """|Hom(Z^n, G)|: pairwise commuting n-tuples of G."""
    cent = _centralizers(table)
    memo = {}

    def count(k, allowed):
        if k == 0:
            return 1
        key = (k, allowed)
        if key not in memo:
            memo[key] = sum(count(k - 1, allowed & cent[z]) for z in allowed)
        return memo[key]

    return count(n, frozenset(range(table.order)))


WORKLOADS = {w.name: w for w in (SweepWorkload, CertifyWorkload,
                                 RefuteWorkload, HomcountWorkload)}
