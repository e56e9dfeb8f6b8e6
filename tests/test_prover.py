"""Equivalence prover, certificate replay and the conjugation-free verdict."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrgroup import (
    Arrangement,
    Budget,
    Certificate,
    CyclicRelation,
    Presentation,
    ProverError,
    ReplayError,
    builtin_group,
    candidate_cf,
    cf_verdict,
    format_certificate,
    format_verdict,
    free_reduce,
    hom_count,
    parse_arrangement,
    parse_certificate,
    prove_equivalent,
    relabel_presentation,
    replay,
    sweep,
)
from arrgroup.prover import (_bfs_rescue, _cyclic_order, _exponent_sums,
                             _move, _pool_rotation, _prove,
                             _quotient_targets, _reduce_trace,
                             _relation_licenses, _rewrite, _shortens,
                             _SiteIndex, _State, _waiting_rotations)
from arrgroup.vankampen import canonical_rotation, conjugate_letter
from conftest import (TRIPLE_QUADRUPLE, affine_image, fixture_arrangement,
                      pipeline)
from reference import bfs_rescue


def two_gen_target():
    rels = (
        CyclicRelation.make(((1,), (3,)), 3),
        CyclicRelation.make(((2,), (3,)), 3),
    )
    return Presentation(3, rels)


def two_gen_source():
    rels = (
        CyclicRelation.make(((1,), (2, 3, -2)), 3),
        CyclicRelation.make(((2,), (3,)), 3),
    )
    return Presentation(3, rels)


def test_identical_presentations_certify_trivially():
    tri = pipeline("triangle").presentation
    result = prove_equivalent(tri, tri)
    assert result.status == "certified"
    replay(tri, tri, result.certificate)
    assert result.certificate.match == tuple(
        (i, i) for i in range(len(tri.relations))
    )


def test_conjugated_commutator_certifies():
    source, target = two_gen_source(), two_gen_target()
    result = prove_equivalent(source, target)
    assert result.status == "certified"
    replay(source, target, result.certificate)
    kinds = {step[0] for step in result.certificate.forward}
    assert kinds  # at least one rewrite was needed


def test_certificate_text_round_trip():
    result = prove_equivalent(two_gen_source(), two_gen_target())
    cert = result.certificate
    assert parse_certificate(format_certificate(cert)) == cert
    # comments and blank lines are dropped, as in every other line format
    commented = "# two generators\n\n" + format_certificate(cert).replace(
        "\n", "  # note\n")
    assert parse_certificate(commented) == cert


def test_parse_certificate_rejects_garbage():
    with pytest.raises(ReplayError):
        parse_certificate("not a certificate\n")
    good = format_certificate(
        prove_equivalent(two_gen_source(), two_gen_target()).certificate
    )
    with pytest.raises(ReplayError):
        parse_certificate(good.replace("certificate-v1", "certificate-v9"))
    cert = parse_certificate(good)
    for kind, n in (("forward", len(cert.forward)),
                    ("backward", len(cert.backward))):
        with pytest.raises(ReplayError,
                           match=f"bad-file: {kind} declares {n + 1} steps"):
            parse_certificate(good.replace(f"\n{kind} {n}\n",
                                           f"\n{kind} {n + 1}\n"))
    with pytest.raises(ReplayError, match="bad-file: line 5: match expects"):
        parse_certificate(good.replace("match 1 1", "match 1"))
    with pytest.raises(ReplayError,
                       match="bad-file: step outside forward/backward"):
        parse_certificate(good.replace("forward 2\n", ""))
    for header in ("gens=3\n", "relations=2\n"):
        with pytest.raises(ReplayError, match="bad-file: missing gens= or "
                                              "relations= header"):
            parse_certificate(good.replace(header, ""))
    with pytest.raises(ValueError,
                       match="^line 2: expected an integer, got 'x'$"):
        parse_certificate(good.replace("gens=3", "gens=x"))
    with pytest.raises(ValueError,
                       match="^line 8: expected an integer, got 'one'$"):
        parse_certificate(good.replace("reduce 0 1", "reduce 0 one"))


def test_replay_rejects_tampered_certificates():
    source, target = two_gen_source(), two_gen_target()
    cert = prove_equivalent(source, target).certificate
    with pytest.raises(ReplayError):
        replay(source, target, replace(cert, forward=cert.forward[:-1]))
    crossed = tuple((r, 1 - t) for r, t in cert.match)
    with pytest.raises(ReplayError):
        replay(source, target, replace(cert, match=crossed))
    with pytest.raises(ReplayError):
        replay(source, target, replace(cert, match=cert.match[:1]))
    with pytest.raises(ReplayError):
        replay(target, source, cert)

    def rejects(code, cert, source=source, target=target):
        with pytest.raises(ReplayError) as err:
            replay(source, target, cert)
        assert err.value.code == code

    rejects("rels-mismatch", replace(cert, nrels=3))
    rejects("unknown-step", replace(cert, forward=(("bogus", 0),)))
    rejects("bad-position",
            replace(cert, forward=(("expand", 0, 0, 99, 1),) + cert.forward))
    rejects("self-justified",
            replace(cert, forward=(("swap", 0, 0, 0, 0, 0, 1, 0),)))
    rejects("backward-mismatch",
            replace(cert, backward=cert.backward + (("rot", 0, 1),)))
    # a comm step must cite a 2-bracket; relation 0 has three entries
    triple = Presentation(3, (CyclicRelation.make(((1,), (2,), (3,)), 3),
                              CyclicRelation.make(((1,), (2,)), 3)))
    comm = Certificate(3, 2, ((0, 0), (1, 1)),
                       (("comm", 1, 0, 0, 0, 0, 1, 1, 1),), ())
    rejects("not-a-pair", comm, triple, triple)


@pytest.mark.parametrize("step", [("rot", 0), ("swap", 0, 0, 0),
                                  ("rot", 0, 1, 5), ()])
def test_replay_rejects_a_step_with_the_wrong_field_count(step):
    # a certificate built in code skips parse_certificate's field check
    source, target = two_gen_source(), two_gen_target()
    cert = prove_equivalent(source, target).certificate
    with pytest.raises(ReplayError) as err:
        replay(source, target, replace(cert, forward=(step,) + cert.forward))
    assert err.value.code == ("bad-arity" if step else "unknown-step")
    assert str(step) in str(err.value)


def test_replay_rejects_a_repeated_match_line():
    one = Presentation(2, (CyclicRelation.make(((1,), (2,)), 2),))
    twice = Certificate(2, 1, ((0, 0), (0, 0)), (), ())
    with pytest.raises(ReplayError) as err:
        replay(one, one, twice)
    assert err.value.code == "bad-matching"
    replay(one, one, replace(twice, match=((0, 0),)))


def test_replay_connects_the_stated_pair_only():
    tri = pipeline("triangle").presentation
    cert = prove_equivalent(tri, tri).certificate
    other = two_gen_target()
    with pytest.raises(ReplayError):
        replay(other, other, cert)


def test_mismatched_shapes_are_unknown_not_errors():
    tri = pipeline("triangle").presentation
    pencil = pipeline("pencil").presentation
    result = prove_equivalent(tri, pencil)
    assert result.status == "unknown"
    assert "counts differ" in result.reason
    fewer = Presentation(3, two_gen_target().relations[:1])
    result = prove_equivalent(two_gen_source(), fewer)
    assert (result.status, result.reason) == ("unknown",
                                              "relation counts differ")


@pytest.mark.parametrize("field", ["max_word_len", "max_steps", "bfs_nodes",
                                   "hom_nodes"])
def test_budget_rejects_negative_fields(field):
    with pytest.raises(ValueError,
                       match=f"budget {field} must be non-negative"):
        Budget(**{field: -1})


def test_tiny_budget_gives_honest_unknown():
    pipe = pipeline("triangle")
    cand = candidate_cf(pipe.lattice)
    budget = Budget(max_steps=2, bfs_nodes=1)
    result = prove_equivalent(pipe.presentation, cand, budget)
    assert result.status in ("certified", "unknown")
    if result.status == "unknown":
        assert result.certificate is None
        assert result.reason
    else:
        replay(pipe.presentation, cand, result.certificate)


def test_verdict_triangle_certifies_with_replayable_certificate():
    pipe = pipeline("triangle")
    verdict = cf_verdict(pipe.lattice, pipe.presentation)
    assert verdict.status == "Certified"
    assert verdict.ordering == (1, 2, 3, 4, 5, 6)
    assert verdict.orderings_tried == 1
    replay(pipe.presentation, verdict.candidate_line_labels, verdict.certificate)
    assert "Certified" in format_verdict(verdict)


def test_verdict_accepts_explicit_ordering():
    pipe = pipeline("triangle")
    verdict = cf_verdict(pipe.lattice, pipe.presentation, (1, 2, 3, 4, 5, 6))
    assert verdict.status == "Certified"
    with pytest.raises(ProverError):
        cf_verdict(pipe.lattice, pipe.presentation, (1, 1, 2, 3, 4, 5))
    with pytest.raises(ProverError):
        cf_verdict(pipe.lattice, pipe.presentation, "sideways")


def test_verdict_ceva_identity_is_unknown():
    pipe = pipeline("ceva")
    verdict = cf_verdict(pipe.lattice, pipe.presentation)
    assert verdict.status == "Unknown"
    assert verdict.certificate is None
    assert verdict.reason
    assert "Unknown" in format_verdict(verdict)


IMAGES = {
    "reversed": lambda arr: Arrangement(arr.lines[::-1]),
    "shuffled": lambda arr: Arrangement(
        tuple(random.Random(8).sample(arr.lines, len(arr)))),
    "mirrored": lambda arr: affine_image(arr, ((-1, 0), (0, 1)), (0, 0)),
    "affine": lambda arr: affine_image(arr, ((1, 2), (-1, 1)), (1, 0)),
}


@pytest.mark.parametrize("image", IMAGES)
@pytest.mark.parametrize("name", ["triangle", "cycle5"])
def test_verdict_certifies_any_line_order_and_affine_image(name, image):
    # the sweep numbers lines by wire, whatever order the file lists them in
    swept = sweep(IMAGES[image](fixture_arrangement(name)))
    verdict = cf_verdict(swept.lattice, swept.presentation)
    assert verdict.status == "Certified"
    replay(swept.presentation, verdict.candidate_line_labels,
           verdict.certificate)
    s3 = builtin_group("S3")
    assert (hom_count(swept.presentation, s3).count
            == hom_count(pipeline(name).presentation, s3).count)


def test_verdict_checks_line_counts():
    with pytest.raises(ProverError):
        cf_verdict(pipeline("triangle").lattice, pipeline("pencil").presentation)


def leftmost_pair_trace(letters):
    """Reference: cancel the leftmost cancelling pair, rescan from the
    start, until none is left."""
    word = list(letters)
    trace = []
    while True:
        for p in range(len(word) - 1):
            if word[p] == -word[p + 1]:
                trace.append((p, word[p]))
                del word[p:p + 2]
                break
        else:
            return tuple(word), trace


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=24))
def test_reduce_trace_matches_the_leftmost_pair_scan(letters):
    reduced, trace = _reduce_trace(letters)
    assert (reduced, trace) == leftmost_pair_trace(letters)
    word = list(reduced)
    for pos, g in reversed(trace):
        word[pos:pos] = [g, -g]
    assert word == letters


def naive_sites(w, licenses):
    """Reference: compare every license at every position of w."""
    out = []
    for lhs, rhs, tag in licenses:
        for pos in range(len(w) - len(lhs) + 1):
            if w[pos:pos + len(lhs)] == lhs:
                out.append((pos, lhs, rhs, tag))
    return out


site_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                      max_size=12).map(tuple)
# few short left-hand sides over two letters: licenses share an lhs and
# their occurrences overlap
shared_lhs = st.lists(st.sampled_from([1, 2]), min_size=1,
                      max_size=3).map(tuple)


@example((1, 1, 1, 1), [((1, 1), ()), ((1, 1, 1), (2,)), ((1, 1), (2, 2))])
@given(site_words, st.lists(st.tuples(site_words.filter(bool) | shared_lhs,
                                      site_words), max_size=8))
def test_sites_match_the_naive_scan(w, rewrites):
    licenses = [(lhs, rhs, ("swap", i, 0, 1, 0))
                for i, (lhs, rhs) in enumerate(rewrites)]
    # granted by three relations, added last first: sites come in relation
    # order, which is the order of the whole license list
    index = _SiteIndex()
    for s in (2, 1, 0):
        index.add(s, licenses[3 * s:3 * s + 3])
    first = index(w)
    assert first == naive_sites(w, licenses)
    index(w[::-1])
    assert index(w) == first
    index.remove(2)
    assert index(w) == naive_sites(w, licenses[:6])


pool_words = st.lists(st.lists(st.sampled_from([1, -1, 2]), max_size=2).map(
    tuple), max_size=3).map(tuple)


@given(st.dictionaries(pool_words, st.lists(st.integers(0, 3), max_size=2),
                       max_size=4), st.lists(pool_words, max_size=6))
def test_waiting_rotations_match_the_pool_lookup(pool, probes):
    # an empty list is a target already claimed
    targets = _waiting_rotations(pool)
    for words in probes + [w[1:] + w[:1] for w in pool]:
        assert (words in targets) == (_pool_rotation(words, pool)
                                      is not None)


@pytest.mark.parametrize("name, nodes", [("triangle", 288),
                                         ("triangle_plus_line", 768),
                                         ("cycle5", 236)])
def test_rescue_node_threshold(name, nodes):
    # pins the rescue's move order and its node accounting: the proof
    # needs exactly this many rescue nodes
    pipe = pipeline(name)
    for budget, status in ((nodes, "Certified"), (nodes - 1, "Unknown")):
        verdict = cf_verdict(pipe.lattice, pipe.presentation, "identity",
                             Budget(bfs_nodes=budget))
        assert verdict.status == status


relation_words = st.lists(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6).map(
        lambda w: free_reduce(tuple(w))), min_size=1, max_size=3).map(tuple)


@example(((1, 2, 3), (-2, -1)), ((1,), (2,)))
@given(relation_words, relation_words)
def test_rescue_moves_keep_exponent_sums(words, ws):
    # what lets the rescue skip a target whose exponent sums differ
    sites = _SiteIndex()
    sites.add(1, _relation_licenses(1, ws))
    moves = [("conj", s * g) for g in (1, 2, 3) for s in (1, -1)]
    moves += [("subst", e) + site for e, w in enumerate(words)
              for site in sites(w)]
    for move in moves:
        new, _ = _move(words, move, 100)
        assert _exponent_sums(new) == _exponent_sums(words)


def test_rescue_skips_a_relation_no_waiting_target_can_reach(monkeypatch):
    def search(self, skip):
        raise AssertionError("searched")

    monkeypatch.setattr(_State, "sites", search)
    state = _State(two_gen_source(), Budget())
    # [ x1 ; x2 x3 x2^-1 ] shares its entries' exponent sums with [ x1 ; x3 ]
    # only, in either rotation
    assert not _bfs_rescue(state, 0, {((1,), (2,)): [0]}, 3)
    assert not _bfs_rescue(state, 0, {((3,), (1,)): []}, 3)
    with pytest.raises(AssertionError, match="searched"):
        _bfs_rescue(state, 0, {((3,), (1,)): [0]}, 3)


def bracket_words(length):
    entry = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                     max_size=length).map(lambda w: free_reduce(tuple(w)))
    return st.lists(entry, min_size=2, max_size=3).map(tuple)


brackets = bracket_words(5)
# short entries grant short licenses, which a stuck relation's words hold
licensing_brackets = bracket_words(2)
RESCUE_CONJS = [("conj", s * g) for g in (1, 2, 3) for s in (1, -1)]


def moved_words(state, r, rng, count):
    """Relation r's words after up to count random rescue moves that the
    budget's word length allows, each a substitution three times in four
    when the words hold a site."""
    sites = state.sites(r)
    words = state.rels[r]
    for _ in range(count):
        substs = [("subst", e) + site for e, w in enumerate(words)
                  for site in sites(w)]
        moves = substs if substs and rng.random() < 0.75 else RESCUE_CONJS
        moved = _move(words, rng.choice(moves), state.budget.max_word_len)
        if moved is not None:
            words = moved[0]
    return words


def rescue_case(others, stuck, r, seed, reached, strangers, budget):
    """A presentation on 3 generators, relation r of it stuck and the rest
    ``others``, and a pool of targets: each of ``reached`` is relation r
    after 0-4 random moves, half of them then with each entry conjugated
    by its own random letter (same exponent sums, often out of reach), in
    a random rotation; ``strangers`` are drawn at random.  Each entry of
    the stuck relation gets the lhs of a random license spliced in, so
    that it holds sites."""
    rng = random.Random(seed)
    r %= len(others) + 1
    lhs = [lhs for s, ws in enumerate(others)
           for lhs, _, _ in _relation_licenses(s, ws)]
    if lhs:
        stuck = tuple(free_reduce(w[:k] + rng.choice(lhs) + w[k:])
                      for w in stuck for k in (rng.randint(0, len(w)),))
    rels = others[:r] + [stuck] + others[r:]
    pres = Presentation(3, tuple(map(CyclicRelation, rels)))
    pool = {}
    for t in range(reached):
        words = moved_words(_State(pres, budget), r, rng, rng.randint(0, 4))
        if rng.random() < 0.5:
            words = tuple(conjugate_letter((w,), rng.choice((1, 2, 3)))[0]
                          for w in words)
        k = rng.randrange(len(words))
        pool.setdefault(words[k:] + words[:k], []).append(t)
    for words in strangers:
        pool.setdefault(words, []).append(len(pool))
    return pres, r, pool


# the stuck relation's first entry is longer than max_word_len, and its
# second is empty
@example(others=[((1,), (2,))], stuck=((1, 2, 1, 2, 1), ()), r=0, seed=1,
         reached=2, strangers=[((), (1,))], bfs_nodes=300, max_word_len=3)
# conjugating by x3 makes the first entry 4 letters long, one more than
# max_word_len allows, so the target is out of reach
@example(others=[], stuck=((1, 2), (3,)), r=0, seed=1, reached=0,
         strangers=[((-3, 1, 2, 3), (3,))], bfs_nodes=300, max_word_len=3)
@settings(max_examples=200)
@given(st.lists(licensing_brackets, min_size=1, max_size=3), brackets,
       st.integers(0, 3), st.integers(0, 2 ** 32), st.integers(1, 4),
       st.lists(brackets, max_size=2), st.sampled_from([0, 1, 2, 7, 300]),
       st.sampled_from([3, 4, 64]))
def test_rescue_searches_as_the_reference_does(
        others, stuck, r, seed, reached, strangers, bfs_nodes, max_word_len):
    budget = Budget(max_word_len=max_word_len, bfs_nodes=bfs_nodes)
    pres, r, pool = rescue_case(others, stuck, r, seed, reached, strangers,
                                budget)

    def run(search, *quotient):
        state = _State(pres, budget)
        found = search(state, r, pool, 3, *quotient)
        return found, (state.rels, state.forward, state.backward)

    want = run(bfs_rescue)
    assert run(_bfs_rescue) == want
    # the S3 quotient drops only targets out of reach
    s3 = builtin_group("S3")
    found, steps = run(_bfs_rescue, (s3, hom_count(pres, s3)))
    assert found == want[0]
    if found:
        assert steps == want[1]


@pytest.mark.parametrize("name", ["triangle", "triangle_plus_line",
                                  "cycle5", "ceva"])
def test_rescue_proves_as_the_reference_does(monkeypatch, name):
    # whole proofs, whose rescues run on the fixtures' stuck relations
    pipe = pipeline(name)
    target = relabel_presentation(candidate_cf(pipe.lattice),
                                  tuple(range(1, pipe.presentation.ngens + 1)))
    budgets = [Budget(), Budget(bfs_nodes=300), Budget(max_word_len=8)]
    got = [prove_equivalent(pipe.presentation, target, b) for b in budgets]
    s3 = builtin_group("S3")
    quotient = (s3, hom_count(pipe.presentation, s3))
    assert got == [_prove(pipe.presentation, target, b, quotient)
                   for b in budgets]
    monkeypatch.setattr("arrgroup.prover._bfs_rescue",
                        lambda state, r, pool, ngens, quotient:
                        bfs_rescue(state, r, pool, ngens))
    assert got == [prove_equivalent(pipe.presentation, target, b)
                   for b in budgets]


@pytest.mark.parametrize("group", ["S3", "A4"])
@given(st.lists(licensing_brackets, min_size=1, max_size=3), brackets,
       st.integers(0, 3), st.integers(0, 2 ** 32), st.integers(0, 6))
def test_quotient_keeps_every_target_legal_moves_reach(group, others, stuck,
                                                       r, seed, count):
    budget = Budget(max_word_len=8)
    pres, r, _ = rescue_case(others, stuck, r, seed, 0, [], budget)
    state = _State(pres, budget)
    words = moved_words(_State(pres, budget), r, random.Random(seed), count)
    rotations = [words[k:] + words[:k] for k in range(len(words))]
    table = builtin_group(group)
    kept = _quotient_targets(state, r, rotations, 3,
                             (table, hom_count(pres, table)))
    assert words in kept


def quotient_checks(monkeypatch, lattice, pres, budget=None):
    """(stuck words, targets, targets kept) of every quotient check that
    cf_verdict(..., "all") makes."""
    calls = []

    def spy(state, r, targets, ngens, quotient):
        kept = quotient_targets(state, r, targets, ngens, quotient)
        calls.append((state.rels[r], targets, kept))
        return kept

    quotient_targets = _quotient_targets
    monkeypatch.setattr("arrgroup.prover._quotient_targets", spy)
    assert cf_verdict(lattice, pres, "all", budget).status == "Unknown"
    return calls


def test_quotient_drops_cevas_stuck_target(monkeypatch):
    # both proofs stop at relation 3, [ x2 x1 x2^-1 ; x4 ], whose only
    # target with the same exponent sums, [ x1 ; x4 ], S3 tells apart
    pipe = pipeline("ceva")
    calls = quotient_checks(monkeypatch, pipe.lattice, pipe.presentation)
    assert calls == [(((2, 1, -2), (4,)), [((1,), (4,))], [])] * 2


@pytest.mark.parametrize("image", IMAGES)
def test_quotient_drops_every_target_of_cevas_images(monkeypatch, image):
    # refute's items: each rescue on an image of ceva is futile, and the
    # S3 count tells every one of its targets out of reach
    swept = sweep(IMAGES[image](fixture_arrangement("ceva")))
    calls = quotient_checks(monkeypatch, swept.lattice, swept.presentation)
    assert calls
    assert all(targets and not kept for _, targets, kept in calls)


def test_quotient_drops_no_triple_quadruple_target(monkeypatch):
    swept = sweep(parse_arrangement(TRIPLE_QUADRUPLE))
    calls = quotient_checks(monkeypatch, swept.lattice, swept.presentation)
    assert len(calls) == 24
    assert all(kept == targets for _, targets, kept in calls)


def test_aborted_quotient_drops_nothing(monkeypatch):
    # below ceva's S3 count nodes every candidate is proved, and its
    # relation 3 keeps [ x1 ; x4 ] in each proof
    pipe = pipeline("ceva")
    calls = quotient_checks(monkeypatch, pipe.lattice, pipe.presentation,
                            Budget(hom_nodes=50))
    assert len(calls) >= 16
    assert all(kept == targets for _, targets, kept in calls)
    assert (((2, 1, -2), (4,)), [((1,), (4,))],
            [((1,), (4,))]) in calls


def fresh_index(rels, skip):
    index = _SiteIndex()
    for s, ws in enumerate(rels):
        if s != skip:
            index.add(s, _relation_licenses(s, ws))
    return index


@given(st.lists(relation_words, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), relation_words | st.none()),
                max_size=10), site_words)
def test_one_site_index_follows_the_live_relations(rels, ops, probe):
    # ops rewrite a relation (words) or ask for the sites without one (None)
    state = _State(Presentation(3, tuple(map(CyclicRelation, rels))),
                   Budget())
    for k, words in ops + [(0, None)]:
        s = k % len(rels)
        if words is not None:
            state.rels[s] = words
            continue
        index = state.sites(s)
        fresh = fresh_index(state.rels, s)
        licenses = [lic for t, ws in enumerate(state.rels) if t != s
                    for lic in _relation_licenses(t, ws)]
        # every lhs either index holds is a word with a site in it
        for w in [probe, *index.by_lhs, *fresh.by_lhs]:
            assert index(w) == fresh(w) == naive_sites(w, licenses)
        assert index.lengths == sorted({len(lhs) for lhs in index.by_lhs})


@example(((1,), (2,)), [(0, (-2,), ()), (0, (3,), (-1,)), (0, (3,), ())])
@given(relation_words, st.lists(st.tuples(st.integers(0, 15), site_words,
                                          site_words), max_size=6))
def test_rewrite_and_shortening_test_match_the_full_reduction(ws, placements):
    # words holding a license's lhs between two random words, reduced
    licenses = _relation_licenses(0, ws)
    index = _SiteIndex()
    index.add(1, licenses)
    words = [free_reduce(u + licenses[k % len(licenses)][0] + v)
             for k, u, v in placements if licenses]
    for w in words:
        for pos, lhs, rhs, _ in index(w):
            # the full reduction of the rewritten word is the reference
            red, trace = _reduce_trace(w[:pos] + rhs + w[pos + len(lhs):])
            got = _rewrite(w, pos, lhs, rhs)
            assert (got[0], list(got[1])) == (red, trace)
            assert _shortens(w, pos, lhs, rhs) == (len(red) < len(w))


@pytest.mark.parametrize("name, count", [("triangle", 84), ("cycle5", 300),
                                         ("ceva", 72)])
def test_no_license_is_granted_twice(name, count):
    # a 2-bracket's swaps are its comms; only the comms are granted
    pipe = pipeline(name)
    for pres in (pipe.presentation, candidate_cf(pipe.lattice)):
        lists = [_relation_licenses(s, rel.words)
                 for s, rel in enumerate(pres.relations)]
        for lic in lists:
            assert len({(lhs, rhs) for lhs, rhs, _ in lic}) == len(lic)
        assert sum(map(len, lists)) == count


@pytest.mark.parametrize("cited, entry, first, again", [
    # [ x1 ; x2 ] licenses x2 x1 -> x1 x2 and back
    (((1,), (2,)), (2, 1), (1, 1, 0, 1), (0, 1, 1, 1)),
    # [ x1 ; x2 ; x3 ] trades its products x3 x2 x1 and x1 x3 x2
    (((1,), (2,), (3,)), (3, 2, 1), (0, 1, 0), (1, 0, 0)),
], ids=["comm", "swap"])
def test_replay_checks_a_citation_against_the_current_words(
        cited, entry, first, again):
    # relation 1 cites relation 0 there and back; then relation 0 is
    # conjugated, and the first citation, repeated, names an lhs that its
    # new words no longer give
    kind = "comm" if len(first) == 4 else "swap"
    pres = Presentation(3, (CyclicRelation(cited),
                            CyclicRelation((entry, (1,)))))
    there, back = ((kind, 1, 0, 0, 0) + f for f in (first, again))
    cert = Certificate(3, 2, ((0, 0), (1, 1)),
                       (there, back, ("conj", 0, 1), there), ())
    with pytest.raises(ReplayError) as err:
        replay(pres, pres, cert)
    assert err.value.code == "no-occurrence"
    # without the conjugation the same steps carry pres onto itself
    replay(pres, pres, replace(cert, forward=(there, back)))


@pytest.mark.parametrize("hom_nodes, proofs", [(Budget().hom_nodes, 2),
                                               (50, 16)])
def test_ordering_search_proves_candidates_whose_s3_count_matches(
        monkeypatch, hom_nodes, proofs):
    # 14 of ceva's 16 candidates differ from it on S3; when the counts
    # abort, nothing is ruled out and every candidate is proved
    calls = []

    def counted(*args):
        calls.append(args)
        return _prove(*args)

    monkeypatch.setattr("arrgroup.prover._prove", counted)
    pipe = pipeline("ceva")
    verdict = cf_verdict(pipe.lattice, pipe.presentation, "all",
                         Budget(hom_nodes=hom_nodes))
    assert verdict.status == "Unknown"
    assert (verdict.candidates_distinct, len(calls)) == (16, proofs)


@pytest.mark.parametrize("orderings, builds", [("identity", 1), ("all", 16)])
def test_ordering_search_builds_each_distinct_candidate_once(
        monkeypatch, orderings, builds):
    calls = []

    def counted(*args):
        calls.append(args)
        return candidate_cf(*args)

    monkeypatch.setattr("arrgroup.prover.candidate_cf", counted)
    pipe = pipeline("ceva")
    verdict = cf_verdict(pipe.lattice, pipe.presentation, orderings)
    assert verdict.status == "Unknown"
    assert (verdict.candidates_distinct, len(calls)) == (builds, builds)


def cyclic_orders(lattice, perm):
    """Each point's incident lines in the ordering's slot order, as the set
    of steps (line, next line) once around the cycle."""
    slot = {line: j for j, line in enumerate(perm)}
    orders = []
    for pt in lattice.points:
        ring = sorted(pt.incident, key=slot.get)
        orders.append(frozenset(zip(ring, ring[1:] + ring[:1])))
    return tuple(orders)


@pytest.mark.parametrize("lattice, classes", [
    (lambda: pipeline("ceva").lattice, 16),
    (lambda: sweep(parse_arrangement(TRIPLE_QUADRUPLE)).lattice, 12),
], ids=["ceva", "triple-quadruple"])
def test_cyclic_orders_at_the_points_fix_the_candidate(lattice, classes):
    # two orderings give the same line-labelled candidate exactly when they
    # give every point the same cyclic order
    lattice = lattice()
    pairs = set()
    for perm in itertools.permutations(range(1, lattice.n + 1)):
        cand = relabel_presentation(candidate_cf(lattice, perm), perm)
        pairs.add((cand, cyclic_orders(lattice, perm)))
    assert (len({cand for cand, _ in pairs}),
            len({orders for _, orders in pairs}), len(pairs)) == (
                classes, classes, classes)


@given(st.lists(st.integers(1, 8), min_size=2, max_size=8, unique=True),
       st.permutations(range(1, 9)))
def test_cyclic_order_is_the_least_rotation(lines, perm):
    # a point's key entry: its lines in slot order, least rotation first
    incident = tuple(sorted(lines))
    slot = {line: j for j, line in enumerate(perm)}
    assert _cyclic_order(incident, slot) == canonical_rotation(
        sorted(incident, key=slot.get))


def test_ordering_search_is_capped_at_eight_lines():
    lines = "".join(f"{-i} 1 {i * i}\n" for i in range(1, 10))
    swept = sweep(parse_arrangement(lines))
    with pytest.raises(ProverError, match="capped at 8 lines"):
        cf_verdict(swept.lattice, swept.presentation, "all")


def test_ordering_search_rules_out_every_candidate_by_s3_counts(
        monkeypatch):
    def search(*args):
        raise AssertionError("proved")

    monkeypatch.setattr("arrgroup.prover._prove", search)
    # the free group on six letters has 6^6 maps into S3; no candidate has
    verdict = cf_verdict(pipeline("ceva").lattice, Presentation(6, ()), "all")
    assert verdict.status == "Unknown"
    assert verdict.evidence[0] == "homomorphisms to S3: presentation 46656"
    assert len(verdict.evidence) == 18
    assert all("differs" in line for line in verdict.evidence[1:-1])
    assert verdict.evidence[-1].startswith(
        "every distinct candidate has a different homomorphism count")
