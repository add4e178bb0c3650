"""
barbellcalc: exact equivariant homology of barbell diffeomorphisms.

A barbell (two disjoint embedded 2-spheres joined by an arc) in a
4-manifold induces a diffeomorphism whose action on second homology is

    x  ->  x + (x . S1) [S2] - (x . S2) [S1].

This package lifts that action equivariantly to covers, computes the
group-ring-valued intersection polynomials that present pi_2 of
knotted-3-manifold complements, and evaluates the module invariants
(Laurent quotient dimensions, cokernel factors, monomial-unit tests
and normal forms in F2[s,t]) used to tell the resulting knotted
objects apart.
Everything is exact: F2 or arbitrary-precision integer coefficients,
no floating point.
"""

from .deckgroup import (
    DeckElement,
    DeckGroup,
    GroupError,
    GroupMap,
    brunnian_word,
    commutator,
    free_abelian,
    free_group,
    parse_word,
    reduce_letters,
)
from .equivariant import (
    BarbellSpec,
    EquivClass,
    Geometry,
    GeometryError,
    action_sequence,
    barbell_action,
    class_forms,
    equivariant_pairing,
    pair_classes,
    summand_membership,
)
from .groupring import (
    F2,
    INT,
    RingElement,
    RingError,
    is_monomial_unit,
    laurent_span,
    render,
)
from .presentations import (
    PresentationError,
    antidiagonal_cokernel,
    brunnian_disk_obstruction,
    f2_quotient_dim,
    present_from_scenario,
)
from .report import HypothesisError, Report, render_machine, render_table
from .scenarios import (
    GluingMatrix,
    builtin_geometry,
    classify_gluing,
    montesinos_matrix_for,
    montesinos_parity,
    run_scenario,
    run_sweep,
    run_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
