"""Closed-form structure of arrangement groups where it is known: Fan's
direct-sum description when the multiple-point graph is acyclic, the
Oka-Sakamoto transversality splitting, and hand-built semidirect-product
presentations for the six-line arrangement whose multiple points form one
triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

from arrgroup.geometry import (Arrangement, components, compute_lattice,
                               parallel_pairs)
from arrgroup.vankampen import CyclicRelation, Presentation


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# direct sums of free and free-abelian groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupDescriptor:
    """Z^rank direct-sum free groups of the given ranks."""

    rank: int
    free_factors: tuple  # ranks, each >= 1, in the order of their points

    def __str__(self):
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"F_{m}" for m in self.free_factors)
        return " (+) ".join(parts) if parts else "0"


def fan_structure(n: int, multiplicities, betti: int) -> GroupDescriptor:
    """Projective group of an n-line arrangement with the given multiple
    points, valid only when the multiple-point graph is acyclic: Z^r plus
    one free factor F_{m-1} per multiple point, r = n + p - 1 - sum(m)."""
    if betti != 0:
        raise StructureError(
            f"multiple-point graph has betti={betti}; "
            "the direct-sum formula needs an acyclic graph")
    multiplicities = tuple(multiplicities)
    for m in multiplicities:
        if m < 3:
            raise StructureError(f"multiplicity {m} is not a multiple point")
    p = len(multiplicities)
    r = n + p - 1 - sum(multiplicities)
    if r < 0:
        raise StructureError(
            f"rank n + p - 1 - sum(m) = {r} is negative; "
            "inconsistent multiplicity data")
    return GroupDescriptor(r, tuple(m - 1 for m in multiplicities))


# ---------------------------------------------------------------------------
# transversality splitting
# ---------------------------------------------------------------------------

def oka_sakamoto_split(arr: Arrangement):
    """Finest partition of the lines such that any two parts meet
    transversally: every cross-part intersection is a simple double point.
    Lines are merged when parallel or when they share a multiple point.
    Returns sorted tuples of 1-based line labels; a single part means no
    splitting applies."""
    lat = compute_lattice(arr)
    shared = [(pt.incident[0], other) for pt in lat.points
              if pt.multiplicity >= 3 for other in pt.incident[1:]]
    return tuple(components(range(1, len(arr) + 1),
                            parallel_pairs(lat) + shared))


# ---------------------------------------------------------------------------
# semidirect-product fixtures
# ---------------------------------------------------------------------------

# Generators are numbered x=1, y=2, z=3, t=4, s=5, u=6.  Each action
# relation g w g^-1 = v w v^-1 is stored as the commutator bracket
# [w, v^-1 g].

_SD_T_ACTION = (
    # t x t^-1 = y x y^-1 ; t y t^-1 = (yx) y (yx)^-1 ; t z t^-1 = z
    ((1,), (-2, 4)),
    ((2,), (-1, -2, 4)),
    ((3,), (4,)),
)

_SD_S_ACTION_CEVA = (
    # s x s^-1 = z x z^-1 ; s y s^-1 = (zxz^-1x^-1) y (...)^-1 ;
    # s z s^-1 = (zx) z (zx)^-1
    ((1,), (-3, 5)),
    ((2,), (1, 3, -1, -3, 5)),
    ((3,), (-1, -3, 5)),
)

_SD_S_ACTION_TRIANGLE = (
    # s acts trivially on x, y, z
    ((1,), (5,)),
    ((2,), (5,)),
    ((3,), (5,)),
)

_SD_U_ACTION = (
    # u t u^-1 = s t s^-1 ; u s u^-1 = (st) s (st)^-1 ; u x u^-1 = x ;
    # u y u^-1 = z y z^-1 ; u z u^-1 = (zy) z (zy)^-1
    ((4,), (-5, 6)),
    ((5,), (-4, -5, 6)),
    ((1,), (6,)),
    ((2,), (-3, 6)),
    ((3,), (-2, -3, 6)),
)


def semidirect_fixture(variant: str) -> Presentation:
    """Presentation of (F3 or Z^2*Z) semidirect F2 semidirect Z on
    generators x, y, z, t, s, u.

    The "ceva" variant is the affine group of the six-line arrangement with
    four triple points; the "triangle" variant (one line rotated, so the
    multiple points form a triangle) trivializes the action of s and adds
    the commutator [x, z].
    """
    if variant == "ceva":
        brackets = _SD_T_ACTION + _SD_S_ACTION_CEVA + _SD_U_ACTION
    elif variant == "triangle":
        brackets = (_SD_T_ACTION + _SD_S_ACTION_TRIANGLE + _SD_U_ACTION
                    + (((1,), (3,)),))
    else:
        raise StructureError(f"no semidirect fixture named {variant!r}")
    rels = tuple(CyclicRelation.make(b, 6) for b in brackets)
    return Presentation(6, rels, "affine")
