r"""
Module presentations of pi_2 of complements and their invariants.

The handle data of a geometry (attaching spheres of 3-handles, belt
disks of 2-handles) turns a barbell scenario into a presentation matrix
over the deck group ring, kept as its list of rows: rows[r][s] is the
equivariant intersection polynomial of the barbell-acted attaching
sphere s against disk r.  The roles are the geometry's own, set in the
description it is read from and checked when it is built, and
present_from_scenario, which takes only a geometry and its barbells, is
the one function that builds a matrix.  The invariants read the shape
from the rows and the coefficient ring from an entry.
Heegaard-genus-1 scenarios give the 1x1 matrix (f); the genus-2 family
gives a zero-diagonal 2x2 over Z[t, t^-1].

There is deliberately no Smith normal form over Z[t, t^-1] (not a PID):
cokernel normal forms are computed only for the shapes that actually
arise (1x1 and zero-diagonal 2x2).

The n-component Brunnian-link relator in F2[F_n] and its image in
F2[s^{±1}, t^{±1}] are one engine-built generic relator pushed along a
deckgroup.GroupMap (groupring.push, scenarios); their closed forms are
test oracles.
"""

from __future__ import annotations

from .equivariant import BarbellSpec, Geometry, action_sequence, equivariant_pairing
from .groupring import F2, RingElement, laurent_span, normalize_monomial


class PresentationError(ValueError):
    """Matrix shape or ring outside an operation's domain."""


def present_from_scenario(geometry: Geometry, barbells: list[BarbellSpec]) -> list[list[RingElement]]:
    """Presentation of pi_2 (tensored with the geometry's coefficients)
    for the complement built from the geometry's handle roles, which
    Geometry checked when it was built: push each attaching sphere
    through the barbell actions, then pair against each belt disk, one
    sphere at a time.  The matrix is its rows: rows[r][s] pairs
    attaching sphere s with disk r."""
    if not geometry.attaching or not geometry.disks:
        raise PresentationError("scenario needs attaching spheres and belt disks")
    columns = []
    for name in geometry.attaching:
        moved = action_sequence(geometry.basis_class(name), barbells)
        columns.append([equivariant_pairing(moved, d) for d in geometry.disks])
    return [list(row) for row in zip(*columns)]


def _shape(rows: list[list[RingElement]]) -> tuple[int, int]:
    return (len(rows), len(rows[0]) if rows else 0)


def f2_quotient_dim(rows: list[list[RingElement]]) -> int | None:
    """dim_F2 of the cokernel of a 1x1 matrix over F2[t, t^-1]: the
    degree span of the single entry (None = infinite).  F2[t, t^-1] is
    Euclidean for the span, which justifies reading the dimension off."""
    if _shape(rows) != (1, 1):
        raise PresentationError(f"expected a 1x1 matrix, got shape {_shape(rows)}")
    if rows[0][0].coeffs != F2:
        raise PresentationError("quotient dimension is computed over F2")
    return laurent_span(rows[0][0])


def antidiagonal_cokernel(rows: list[list[RingElement]]) -> list[RingElement]:
    """Cyclic factors of the cokernel of a zero-diagonal 2x2 matrix over
    Z[t, t^-1], normalized by monomial units and sign.

    Any other shape is an error: the scenarios that call this are
    expected to produce exactly this matrix, so a violation means the
    computation went somewhere new.
    """
    if _shape(rows) != (2, 2):
        raise PresentationError(f"expected a 2x2 matrix, got shape {_shape(rows)}")
    (a, g1), (g2, d) = rows
    if not a.is_zero() or not d.is_zero():
        raise PresentationError("diagonal entries are nonzero; not the expected shape")
    if g1.is_zero() or g2.is_zero():
        raise PresentationError("antidiagonal entries vanish; not the expected shape")
    return [normalize_monomial(g1), normalize_monomial(g2)]


# ---------------------------------------------------------------------------
# Brunnian 2-disk links: the homology constraint intersection.


def brunnian_disk_obstruction(n: int) -> bool:
    """Model the difference class of two n-component disk fillings as an
    unknown vector (a_2, ..., a_n) of meridian coordinates.  Removing
    component k >= 2 forces every coordinate except a_k to zero.  True
    iff the constraints force the whole vector to zero, i.e. the disks
    must be isotopic: a_k is forced by removing any other component j,
    which exists exactly when n >= 3."""
    if n < 2:
        raise PresentationError(f"need n >= 2 components, got n={n}")
    return n >= 3
