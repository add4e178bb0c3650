r"""
Exact arithmetic in group rings F2[G] and Z[G] over deck groups.

Elements are finite formal sums of canonical deck elements with nonzero
coefficients; multiplication respects the non-commutative group law for
free groups.  Over free abelian groups these are exactly (multivariate)
Laurent polynomials, with rank 1 rendered in the variable t and rank 2
in s, t.

The module distinguishes cokernels the way the distinctness proofs do:
unit and associate tests in F2[s^{±1}, t^{±1}] and the degree span of a
single-variable Laurent polynomial, which equals the F2-dimension of
its quotient ring because F2[t, t^{-1}] is Euclidean under that span.
No factorization, Groebner bases, or general ideal membership.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .deckgroup import (
    CYCLIC,
    FREE,
    FREE_ABELIAN,
    DeckElement,
    DeckGroup,
    UniTriMatrix,
    cyclic,
    cyclic_project,
    element_from_json,
    element_to_json,
    format_element,
    free_abelian,
    free_group,
    nilpotent_times_z,
)

F2 = "F2"
INT = "Z"


class RingError(ValueError):
    """Coefficient/group mismatch or an operation outside its domain."""


class HomDomainError(RingError):
    """A term lies outside the homomorphism's valid domain."""


def _normalize_coeff(c: int, coeffs: str) -> int:
    return c % 2 if coeffs == F2 else c


class RingElement:
    """A finite formal sum of deck elements over F2 or Z."""

    __slots__ = ("group", "coeffs", "terms")

    def __init__(self, group: DeckGroup, coeffs: str, terms: Mapping[DeckElement, int]):
        if coeffs not in (F2, INT):
            raise RingError(f"unknown coefficient ring {coeffs!r}")
        clean: dict[DeckElement, int] = {}
        for elt, c in terms.items():
            if elt.group != group:
                raise RingError("term from a different deck group")
            c = _normalize_coeff(c, coeffs)
            if c:
                clean[elt] = c
        self.group = group
        self.coeffs = coeffs
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(group: DeckGroup, coeffs: str) -> "RingElement":
        return RingElement(group, coeffs, {})

    @staticmethod
    def one(group: DeckGroup, coeffs: str) -> "RingElement":
        return RingElement(group, coeffs, {group.identity(): 1})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, elt: DeckElement) -> int:
        return self.terms.get(elt, 0)

    def support(self):
        return sorted(self.terms, key=lambda e: e.sort_key())

    def _check(self, other: "RingElement"):
        if self.group != other.group or self.coeffs != other.coeffs:
            raise RingError(
                f"mismatched rings: {self.coeffs}[{self.group}] vs {other.coeffs}[{other.group}]"
            )

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
            and self.terms == other.terms
        )

    __hash__ = None

    # -- ring operations ----------------------------------------------

    def add(self, other: "RingElement") -> "RingElement":
        self._check(other)
        terms = dict(self.terms)
        for elt, c in other.terms.items():
            terms[elt] = terms.get(elt, 0) + c
        return RingElement(self.group, self.coeffs, terms)

    def neg(self) -> "RingElement":
        return RingElement(self.group, self.coeffs, {e: -c for e, c in self.terms.items()})

    def mul(self, other: "RingElement") -> "RingElement":
        self._check(other)
        terms: dict[DeckElement, int] = {}
        for g, a in self.terms.items():
            for h, b in other.terms.items():
                gh = g.mul(h)
                terms[gh] = terms.get(gh, 0) + a * b
        return RingElement(self.group, self.coeffs, terms)

    def scale(self, c: int) -> "RingElement":
        return RingElement(self.group, self.coeffs, {e: c * v for e, v in self.terms.items()})

    def translate(self, g: DeckElement) -> "RingElement":
        """Left multiplication by the group element g."""
        if g.group != self.group:
            raise RingError("translation by an element of a different group")
        return RingElement(self.group, self.coeffs, {g.mul(e): c for e, c in self.terms.items()})

    def reverse(self) -> "RingElement":
        """Apply g -> g^-1 to the support (the pairing-table involution)."""
        return RingElement(self.group, self.coeffs, {e.inv(): c for e, c in self.terms.items()})

    def __repr__(self):
        return f"<{render(self)} over {self.coeffs}[{self.group}]>"


# ---------------------------------------------------------------------------
# Group homomorphisms, pushed forward term by term with collision handling.


class Homomorphism:
    """A deck-group homomorphism descriptor usable by apply_hom."""

    source: DeckGroup
    target: DeckGroup

    def map_element(self, elt: DeckElement) -> DeckElement:
        raise NotImplementedError


class Abelianization(Homomorphism):
    """Generator i of F_n maps to the integer vector weights[i-1] in Z^r."""

    def __init__(self, source: DeckGroup, weights: Sequence[Sequence[int]]):
        if source.kind != FREE:
            raise RingError("abelianization is defined on free groups")
        if len(weights) != source.n:
            raise RingError("one weight vector per generator required")
        rank = len(weights[0])
        if any(len(w) != rank for w in weights):
            raise RingError("weight vectors must share a rank")
        self.source = source
        self.target = free_abelian(rank)
        self.weights = [tuple(w) for w in weights]

    def map_element(self, elt: DeckElement) -> DeckElement:
        vec = [0] * self.target.n
        for g, e in elt.value:
            for i, w in enumerate(self.weights[g - 1]):
                vec[i] += e * w
        return DeckElement(self.target, tuple(vec))


class CyclicProjection(Homomorphism):
    """Weighted exponent sum mod m."""

    def __init__(self, source: DeckGroup, weights: Sequence[int], m: int):
        self.source = source
        self.target = cyclic(m)
        self.weights = tuple(weights)
        self.m = m

    def map_element(self, elt: DeckElement) -> DeckElement:
        return cyclic_project(elt, self.weights, self.m)


class BrunnianCoordinates(Homomorphism):
    """F_n -> Z^2 by the unitriangular coordinates.

    A term g maps through (psi of the x_n-free part, x_n exponent); the
    image must land in the rank-2 central subgroup generated by the
    images of the iterated commutator w and of x_n, i.e. the matrix part
    must equal I + a*E_{1,n}.  Terms whose image falls outside raise
    HomDomainError: the element does not live in the s,t-subring.
    """

    def __init__(self, n: int):
        self.n = n
        self.source = free_group(n)
        self.target = free_abelian(2)

    def map_element(self, elt: DeckElement) -> DeckElement:
        mat, exponent = nilpotent_times_z(elt, self.n)
        a = mat.rows[0][self.n - 1]
        expected = UniTriMatrix.elementary(self.n, 1, self.n, a) if self.n >= 2 else mat
        if mat != expected:
            raise HomDomainError(
                f"term {format_element(elt)} maps outside the central rank-2 subgroup"
            )
        return DeckElement(self.target, (a, exponent))


def apply_hom(elem: RingElement, hom: Homomorphism) -> RingElement:
    """Push a ring element through a group homomorphism (a ring map);
    colliding images add, mod 2 over F2."""
    if elem.group != hom.source:
        raise RingError("element is not over the homomorphism's source group")
    terms: dict[DeckElement, int] = {}
    for g, c in elem.terms.items():
        image = hom.map_element(g)
        terms[image] = terms.get(image, 0) + c
    return RingElement(hom.target, elem.coeffs, terms)


# ---------------------------------------------------------------------------
# Unit and associate tests over commutative group rings.


def is_monomial_unit(elem: RingElement) -> bool:
    """True iff the element is a single term with unit coefficient
    (1 over F2, ±1 over Z); over F2[Z^r] this is exactly the unit test."""
    if elem.group.kind == FREE:
        raise RingError("unit testing is only done over commutative group rings")
    if len(elem.terms) != 1:
        return False
    (c,) = elem.terms.values()
    return c == 1 if elem.coeffs == F2 else c in (1, -1)


def _support_min_vector(elem: RingElement) -> tuple[int, ...]:
    rank = elem.group.n
    return tuple(min(e.value[i] for e in elem.terms) for i in range(rank))


def normalize_monomial(elem: RingElement) -> RingElement:
    """Canonical associate: translate the componentwise-minimal exponent
    vector to the origin; over Z also make the lexicographically-largest
    surviving term's coefficient positive."""
    if elem.group.kind != FREE_ABELIAN:
        raise RingError("normalization applies to Laurent polynomial rings")
    if elem.is_zero():
        return elem
    shift = DeckElement(elem.group, tuple(-a for a in _support_min_vector(elem)))
    out = elem.translate(shift)
    if out.coeffs == INT:
        lead = max(out.terms, key=lambda e: e.sort_key())
        if out.terms[lead] < 0:
            out = out.neg()
    return out


def are_associates(a: RingElement, b: RingElement) -> bool:
    """True iff a = m*b for a monomial unit m (sign included over Z)."""
    a._check(b)
    if a.is_zero() or b.is_zero():
        raise RingError("associate testing requires nonzero elements")
    return normalize_monomial(a) == normalize_monomial(b)


def laurent_span(elem: RingElement) -> int | None:
    """maxdeg - mindeg of a single-variable Laurent polynomial; None for
    the zero polynomial (infinite-dimensional quotient).

    Over the field F2 the ring F2[t, t^-1] is Euclidean for this span,
    so the span equals dim_F2 of the quotient by the ideal (elem).
    """
    if elem.group.kind != FREE_ABELIAN or elem.group.n != 1:
        raise RingError("laurent_span takes rank-1 Laurent polynomials")
    if elem.is_zero():
        return None
    degrees = [e.value[0] for e in elem.terms]
    return max(degrees) - min(degrees)


# ---------------------------------------------------------------------------
# Rendering and serialization.

_VARIABLE_NAMES = {1: ("t",), 2: ("s", "t")}


def _monomial_string(elt: DeckElement) -> str:
    """A cyclic or free abelian element in t / s, t / x1, x2, ... notation."""
    group = elt.group
    if group.kind == CYCLIC:
        return "1" if elt.value == 0 else ("t" if elt.value == 1 else f"t^{elt.value}")
    names = _VARIABLE_NAMES.get(group.n)
    parts = []
    for i, e in enumerate(elt.value):
        if e == 0:
            continue
        name = names[i] if names else f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def join_signed(parts: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, body) pairs as "a + b - c", with a leading "-"
    when the first is negative; "0" when there are none."""
    out = []
    for negative, body in parts:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


def term_list_and_render(elem: RingElement) -> tuple[list[list], str]:
    """The machine form (sorted [element, coefficient] pairs) and the
    human form (e.g. "t^-3 + t^-1 + 1 + t + t^3", increasing deck-element
    order) from one pass over the support: each element is formatted
    once, a free-group word's string serving both."""
    terms = []
    parts = []
    for elt in elem.support():
        c = elem.terms[elt]
        raw = element_to_json(elt)
        terms.append([raw, c])
        mono = raw if elt.group.kind == FREE else _monomial_string(elt)
        if mono == "1":
            body = str(abs(c)) if elem.coeffs == INT else "1"
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}{mono}"
        parts.append((c < 0, body))
    return terms, join_signed(parts)


def render(elem: RingElement) -> str:
    """Human-readable sum in increasing deck-element order."""
    return term_list_and_render(elem)[1]


def to_term_list(elem: RingElement) -> list[list]:
    """Machine form: sorted [(element, coefficient)] pairs."""
    return term_list_and_render(elem)[0]


def from_term_list(data: Iterable, group: DeckGroup, coeffs: str) -> RingElement:
    terms: dict[DeckElement, int] = {}
    for raw, c in data:
        elt = element_from_json(raw, group)
        terms[elt] = terms.get(elt, 0) + int(c)
    return RingElement(group, coeffs, terms)
