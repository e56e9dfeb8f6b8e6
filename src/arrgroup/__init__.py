"""Exact-arithmetic braid monodromy and group presentations for real line
arrangements."""

from arrgroup.geometry import (
    FIXTURES,
    Arrangement,
    ArrangementError,
    IntersectionLattice,
    IntersectionPoint,
    Line,
    MultipleGraph,
    compute_lattice,
    fixture_path,
    multiple_point_graph,
    parse_arrangement,
)
from arrgroup.braid import (
    format_word,
    free_reduce,
    parse_word,
    word_inverse,
    word_mul,
)
from arrgroup.wiring import (
    PairList,
    Transform,
    WiringError,
    format_pairs,
    genericize,
    lefschetz_pairs,
    parse_pairs,
    simulate_sweep,
    validate_pairs,
    wiring_svg,
)
from arrgroup.vankampen import (
    CyclicRelation,
    Presentation,
    Sweep,
    candidate_cf,
    is_conjugation_free,
    relabel_presentation,
    format_presentation,
    format_presentation_json,
    parse_presentation,
    parse_presentation_json,
    point_relation_words,
    presentation,
    projectivize,
    sweep,
)
from arrgroup.prover import (
    Budget,
    Certificate,
    ProveResult,
    ProverError,
    ReplayError,
    Verdict,
    cf_verdict,
    format_certificate,
    format_verdict,
    parse_certificate,
    prove_equivalent,
    replay,
)
from arrgroup.invariants import (
    AbelianInvariants,
    FiniteGroupTable,
    GroupTableError,
    HomCount,
    OrbitTable,
    abelianization,
    builtin_group,
    hom_count,
    hom_count_scalar,
    orbit_table,
    parse_group_table,
    smith_diagonal,
)
from arrgroup.grouptheory import (
    GroupDescriptor,
    StructureError,
    fan_structure,
    oka_sakamoto_split,
    semidirect_fixture,
)
