"""Acceptance gate: the behaviours the package promises, each timed and
reported on its own line.  Run with -s to see the verdict lines."""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from arrgroup import (
    FIXTURES,
    Arrangement,
    Line,
    abelianization,
    builtin_group,
    candidate_cf,
    cf_verdict,
    compute_lattice,
    fan_structure,
    free_reduce,
    genericize,
    hom_count,
    lefschetz_pairs,
    multiple_point_graph,
    oka_sakamoto_split,
    presentation,
    projectivize,
    replay,
    semidirect_fixture,
    word_mul,
    CyclicRelation,
)
from arrgroup.cli import main as cli_main
from conftest import (SESSION_T0, canonical_form, fixture_arrangement,
                      fixture_file, pipeline)
from reference import (artin_apply, braid_inverse, descriptor_presentation,
                       direct_sum, sub_arrangement)
from test_vankampen import TRIANGLE_RELATIONS, cycle5_relation_families

CALIBRATION_PAIRS = (
    (2, 3), (1, 2), (2, 4), (4, 6), (3, 4), (4, 5), (2, 3), (1, 2), (2, 4),
)


@contextmanager
def deadline(seconds, label):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{label}: took {elapsed:.1f}s, budget {seconds}s"
    print(f"PASS: {label} ({elapsed:.2f}s)")


_VERDICTS = {}


def certified_verdict(name):
    if name not in _VERDICTS:
        pipe = pipeline(name)
        verdict = cf_verdict(pipe.lattice, pipe.presentation)
        assert verdict.status == "Certified", verdict.reason
        replay(pipe.presentation, verdict.candidate_line_labels,
               verdict.certificate)
        _VERDICTS[name] = verdict
    return _VERDICTS[name]


def test_calibration_pair_list_and_presentation():
    with deadline(1.0, "calibration sweep on the triangle fixture"):
        pipe = pipeline("triangle")
        assert pipe.pairs.pairs == CALIBRATION_PAIRS
        expected = {CyclicRelation.make(words, 6) for words in TRIANGLE_RELATIONS}
        assert set(pipe.presentation.relations) == expected


def test_triangle_and_cycle5_certify_with_bit_exact_replay():
    for name in ("triangle", "cycle5"):
        with deadline(30.0, f"conjugation-free certification of {name}"):
            verdict = certified_verdict(name)
            assert verdict.certificate.nsteps >= 0


def test_cycle5_relation_families_exact():
    with deadline(5.0, "cycle-of-5 relation families"):
        c5 = pipeline("cycle5").presentation
        got = sorted(canonical_form(rel.words, 10) for rel in c5.relations)
        want = sorted(
            canonical_form(tuple(free_reduce(w, 10) for w in words), 10)
            for words in cycle5_relation_families()
        )
        assert got == want


def test_ceva_never_certifies_under_any_ordering(tmp_path):
    with deadline(300.0, "no ordering certifies the ceva fixture"):
        out = tmp_path / "verdict.txt"
        rc = cli_main(
            ["verdict", "--input", fixture_file("ceva"), "--ordering", "all",
             "--output", str(out)]
        )
        assert rc == 2
        lines = out.read_text().splitlines()
        assert lines[:2] == ["status: Unknown", "orderings tried: 720"]
        assert any(line.startswith("evidence: ") for line in lines)
        # an Unknown verdict writes no certificate next to its output
        assert not (tmp_path / "verdict.txt.cert").exists()
        # stdout as recorded before the prover's per-proof license memo
        # and site index: the ordering search and its evidence are unchanged
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == ("679328f59f722a4dcee1f8feb472f154"
                          "6861195ffad4829dd3c061865bdeb810")


def test_semidirect_variant_matches_the_swept_triangle():
    with deadline(120.0, "semidirect fixture vs swept triangle hom-counts"):
        variant = semidirect_fixture("triangle")
        swept = pipeline("triangle").presentation
        for group in ("S3", "S4"):
            table = builtin_group(group)
            a = hom_count(variant, table)
            b = hom_count(swept, table)
            assert a.outcome == b.outcome == "exact"
            assert a.count == b.count


def test_fan_formula_matches_the_swept_projective_groups():
    with deadline(60.0, "multiple-point formula on pencil and near-pencil"):
        expected = {"pencil": (0, (2,)), "nearpencil": (1, (2,))}
        s3 = builtin_group("S3")
        for name, (rank, factors) in expected.items():
            pipe = pipeline(name)
            graph = multiple_point_graph(pipe.lattice)
            assert graph.betti == 0
            mults = [pipe.lattice.points[v].multiplicity for v in graph.vertices]
            descriptor = fan_structure(pipe.lattice.n, mults, graph.betti)
            assert (descriptor.rank, descriptor.free_factors) == (rank, factors)
            swept = hom_count(projectivize(pipe.presentation), s3).count
            built = hom_count(descriptor_presentation(descriptor), s3).count
            assert swept == built


def test_transversal_split_rebuilds_the_whole_group():
    with deadline(120.0, "transversal splitting of triangle plus line"):
        arr = fixture_arrangement("triangle_plus_line")
        parts = oka_sakamoto_split(arr)
        assert tuple(len(part) for part in parts) == (6, 1)
        part_presentations = []
        for labels in parts:
            generic, _ = genericize(sub_arrangement(arr, labels))
            part_presentations.append(presentation(lefschetz_pairs(generic)))
        summed = direct_sum(part_presentations)
        whole = pipeline("triangle_plus_line").presentation
        s3 = builtin_group("S3")
        assert hom_count(whole, s3).count == hom_count(summed, s3).count


def test_braid_relations_act_identically_up_to_eight_wires():
    with deadline(30.0, "braid relations as free-group automorphisms"):
        for ell in range(2, 9):
            gens = [(g,) for g in range(1, ell + 1)]
            for i in range(1, ell - 1):
                for g in gens:
                    assert artin_apply((i, i + 1, i), g, ell) == artin_apply(
                        (i + 1, i, i + 1), g, ell
                    )
            for i in range(1, ell):
                for j in range(i + 2, ell):
                    for g in gens:
                        assert artin_apply((i, j), g, ell) == artin_apply(
                            (j, i), g, ell
                        )


def test_artin_action_invertible_on_a_thousand_words():
    with deadline(60.0, "Artin action invertibility, 1000 random words"):
        rng = random.Random(20260823)
        ell = 6
        for _ in range(1000):
            braid = tuple(
                rng.choice((1, -1)) * rng.randint(1, ell - 1)
                for _ in range(rng.randint(0, 12))
            )
            word = tuple(
                rng.choice((1, -1)) * rng.randint(1, ell)
                for _ in range(rng.randint(0, 16))
            )
            forward = artin_apply(braid, word, ell)
            back = artin_apply(braid_inverse(braid), forward, ell)
            assert back == free_reduce(word, ell)


def test_boundary_product_preserved():
    with deadline(30.0, "boundary product fixed by the braid action"):
        rng = random.Random(987)
        ell = 7
        boundary = tuple(range(1, ell + 1))
        for _ in range(200):
            braid = tuple(
                rng.choice((1, -1)) * rng.randint(1, ell - 1)
                for _ in range(rng.randint(0, 14))
            )
            assert artin_apply(braid, boundary, ell) == boundary


def test_abelianization_free_of_full_rank_for_every_fixture():
    with deadline(30.0, "abelianization of every fixture"):
        for name in FIXTURES:
            pres = pipeline(name).presentation
            inv = abelianization(pres)
            assert inv.rank == pres.ngens
            assert inv.torsion == ()


def test_lattice_pair_count_identity_on_random_arrangements():
    with deadline(60.0, "pair-count identity, 100 random arrangements"):
        rng = random.Random(1202)
        for _ in range(100):
            lines = []
            for _ in range(rng.randint(1, 8)):
                while True:
                    a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    if a == 0 and b == 0:
                        continue
                    line = Line.make(a, b, c)
                    if line not in lines:
                        lines.append(line)
                        break
            arr = Arrangement(tuple(lines))
            lat = compute_lattice(arr)
            crossing = sum(
                1
                for l1, l2 in combinations(arr.lines, 2)
                if l1.a * l2.b - l2.a * l1.b != 0
            )
            covered = sum(
                pt.multiplicity * (pt.multiplicity - 1) // 2
                for pt in lat.points
            )
            assert crossing == covered


def test_hom_counts_invariant_across_certified_pairs():
    with deadline(120.0, "hom-count invariance across certified pairs"):
        for name in ("triangle", "cycle5"):
            verdict = certified_verdict(name)
            pres = pipeline(name).presentation
            for group in ("S3", "S4"):
                table = builtin_group(group)
                a = hom_count(pres, table)
                b = hom_count(verdict.candidate_line_labels, table)
                assert a.outcome == b.outcome == "exact"
                assert a.count == b.count


def test_full_suite_wall_clock():
    elapsed = time.perf_counter() - SESSION_T0
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s, budget 300s"
    print(f"PASS: whole suite inside the wall-clock budget ({elapsed:.0f}s)")
