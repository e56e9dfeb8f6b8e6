"""Structure tools: the multiple-point formula, splittings, fixture groups."""

import pytest

from arrgroup import (
    GroupDescriptor,
    Presentation,
    StructureError,
    abelianization,
    builtin_group,
    fan_structure,
    hom_count,
    lefschetz_pairs,
    genericize,
    multiple_point_graph,
    oka_sakamoto_split,
    parse_arrangement,
    presentation,
    projectivize,
    semidirect_fixture,
)
from conftest import fixture_arrangement, pipeline
from reference import descriptor_presentation, direct_sum, sub_arrangement


def test_fan_structure_known_cases():
    assert fan_structure(3, [3], 0) == GroupDescriptor(0, (2,))
    assert fan_structure(4, [3], 0) == GroupDescriptor(1, (2,))
    assert fan_structure(5, [3, 3], 0) == GroupDescriptor(0, (2, 2))
    assert str(fan_structure(4, [3], 0)) == "Z^1 (+) F_2"


def test_fan_structure_guards():
    with pytest.raises(StructureError):
        fan_structure(6, [3], 1)  # a cycle in the graph blocks the formula
    with pytest.raises(StructureError):
        fan_structure(4, [2], 0)
    with pytest.raises(StructureError):
        fan_structure(2, [3], 0)


@pytest.mark.parametrize(
    "name, descriptor",
    [("pencil", GroupDescriptor(0, (2,))), ("nearpencil", GroupDescriptor(1, (2,)))],
)
def test_fan_matches_the_swept_projective_group(name, descriptor):
    pipe = pipeline(name)
    graph = multiple_point_graph(pipe.lattice)
    mults = [
        pipe.lattice.points[v].multiplicity for v in graph.vertices
    ]
    got = fan_structure(pipe.lattice.n, mults, graph.betti)
    assert got == descriptor
    s3 = builtin_group("S3")
    swept = hom_count(projectivize(pipe.presentation), s3).count
    materialized = hom_count(descriptor_presentation(descriptor), s3).count
    assert swept == materialized


def test_descriptor_presentation_shape():
    pres = descriptor_presentation(GroupDescriptor(2, (2, 3)))
    assert pres.kind == "projective"
    assert pres.ngens == 2 + 2 + 3
    # blocks commute pairwise, nothing relates generators inside a free block:
    # blocks of sizes 1, 1, 2, 3 give 1+2+3+2+3+6 cross pairs
    assert len(pres.relations) == 17
    assert all(rel.k == 2 for rel in pres.relations)
    assert descriptor_presentation(GroupDescriptor(0, ())) == Presentation(
        0, (), "projective")


def test_oka_sakamoto_split_triangle_plus_line():
    arr = fixture_arrangement("triangle_plus_line")
    assert oka_sakamoto_split(arr) == ((1, 2, 3, 4, 5, 6), (7,))


def test_oka_sakamoto_no_split_when_multiple_points_link_everything():
    assert oka_sakamoto_split(fixture_arrangement("ceva")) == ((1, 2, 3, 4, 5, 6),)
    assert oka_sakamoto_split(fixture_arrangement("triangle")) == ((1, 2, 3, 4, 5, 6),)


def test_oka_sakamoto_parallels_stay_together():
    arr = parse_arrangement("1 1 0\n1 1 3\n0 1 0")
    assert oka_sakamoto_split(arr) == ((1, 2), (3,))
    two = parse_arrangement("1 0 0\n0 1 0")
    assert oka_sakamoto_split(two) == ((1,), (2,))


def test_sub_arrangement_picks_labelled_lines():
    arr = fixture_arrangement("triangle_plus_line")
    sub = sub_arrangement(arr, (1, 2, 3, 4, 5, 6))
    assert len(sub) == 6
    assert list(sub.lines) == list(arr.lines[:6])
    with pytest.raises(ValueError):
        sub_arrangement(arr, (0, 1))


def test_split_parts_rebuild_the_whole_group():
    arr = fixture_arrangement("triangle_plus_line")
    parts = oka_sakamoto_split(arr)
    part_presentations = []
    for labels in parts:
        generic, _ = genericize(sub_arrangement(arr, labels))
        part_presentations.append(presentation(lefschetz_pairs(generic)))
    summed = direct_sum(part_presentations)
    assert summed.ngens == 7
    whole = pipeline("triangle_plus_line").presentation
    s3 = builtin_group("S3")
    assert hom_count(whole, s3).count == hom_count(summed, s3).count == 2622


def test_semidirect_fixture_variants():
    ceva = semidirect_fixture("ceva")
    triangle = semidirect_fixture("triangle")
    for pres in (ceva, triangle):
        assert pres.ngens == 6
        inv = abelianization(pres)
        assert (inv.rank, inv.torsion) == (6, ())
    assert ceva != triangle
    with pytest.raises(ValueError):
        semidirect_fixture("hexagon")


def test_semidirect_triangle_variant_matches_the_pipeline_group():
    variant = semidirect_fixture("triangle")
    swept = pipeline("triangle").presentation
    for name in ("S3", "S4"):
        table = builtin_group(name)
        assert hom_count(variant, table).count == hom_count(swept, table).count


def test_semidirect_ceva_variant_has_its_own_count():
    # the two 6-generator fixtures carry different groups; the counts fix
    # them apart and pin down the expected values
    s3 = builtin_group("S3")
    assert hom_count(semidirect_fixture("ceva"), s3).count == 996
    assert hom_count(semidirect_fixture("triangle"), s3).count == 972
