r"""
Exact arithmetic in group rings F2[G] and Z[G] over deck groups.

Elements are finite formal sums of canonical deck elements with nonzero
coefficients; multiplication respects the non-commutative group law for
free groups.  Over free abelian groups these are exactly (multivariate)
Laurent polynomials, with rank 1 rendered in the variable t and rank 2
in s, t.

The module distinguishes cokernels the way the distinctness proofs do:
monomial-unit tests and normalization up to monomial units in
F2[s^{±1}, t^{±1}] and Z[t^{±1}], and the degree span of a
single-variable Laurent polynomial, which equals the F2-dimension of
its quotient ring because F2[t, t^{-1}] is Euclidean under that span.
No factorization, Groebner bases, or general ideal membership.

Terms map canonical deck values to nonzero coefficients.  An element is
validated where it enters: RingElement(...), and through it zero and
one, takes DeckElement keys and refuses an unknown coefficient ring, a
group that is not a DeckGroup and a term not in the group (groups compare
by identity), as translate, add, mul and push (a map out of another
group) refuse theirs.  from_term_list reads a term list, its JSON form
(_is_term_list), and refuses any other value: it converts no element and
no coefficient.  add, neg, mul, translate, reverse, push (along a
checked deckgroup.GroupMap) and the equivariant pairing apply a group
law to values, so their results go through the trusted constructor
_ring_element, which only reduces coefficients mod 2 over F2 and drops zeros.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .deckgroup import (CYCLIC, FREE, FREE_ABELIAN, DeckElement, DeckGroup, GroupMap, _echo, _is_element, _is_int,
                        _is_list, _sorted_texts, element_from_json)

F2 = "F2"
INT = "Z"


class RingError(ValueError):
    """Coefficient/group mismatch or an operation outside its domain."""


def _reduced(coeffs: str, terms: Mapping) -> dict:
    """terms with every coefficient reduced mod 2 over F2, zeros dropped."""
    return {e: 1 for e, c in terms.items() if c % 2} if coeffs == F2 else {e: c for e, c in terms.items() if c}


class RingElement:
    """A finite formal sum of deck elements over F2 or Z, keyed by value."""

    __slots__ = ("group", "coeffs", "terms", "_forms")

    def __init__(self, group: DeckGroup, coeffs: str, terms: Mapping[DeckElement, int]):
        if coeffs not in (F2, INT):
            raise RingError(f"unknown coefficient ring {_echo(coeffs)}")
        if group.__class__ is not DeckGroup:
            raise RingError(f"{_echo(group)} is not a deck group")
        for elt in terms:
            if elt not in group:
                raise RingError(f"term from a different deck group: {elt.__class__.__name__} not in {group!r}")
        self.group, self.coeffs, self._forms = group, coeffs, None
        self.terms = _reduced(coeffs, {elt.value: c for elt, c in terms.items()})

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
        return self.terms.get(elt.value, 0) if elt in self.group else 0

    def support(self) -> list[DeckElement]:
        return sorted((DeckElement(self.group, value) for value in self.terms), key=DeckElement.sort_key)

    def _check(self, other: "RingElement"):
        if other.__class__ is not RingElement:
            raise RingError(f"{_echo(other)} is not a ring element")
        if self.group is not other.group or self.coeffs != other.coeffs:
            raise RingError(f"mismatched rings: {self.coeffs}[{self.group}] vs {other.coeffs}[{other.group}]")

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.group is other.group
            and self.coeffs == other.coeffs
            and self.terms == other.terms
        )

    __hash__ = None

    # -- ring operations ----------------------------------------------

    def add(self, other: "RingElement") -> "RingElement":
        self._check(other)
        terms = dict(self.terms)
        for value, c in other.terms.items():
            terms[value] = terms.get(value, 0) + c
        return _ring_element(self.group, self.coeffs, terms)

    def neg(self) -> "RingElement":
        return _ring_element(self.group, self.coeffs, {e: -c for e, c in self.terms.items()})

    def mul(self, other: "RingElement") -> "RingElement":
        self._check(other)
        product = self.group._product
        terms: dict = {}
        for g, a in self.terms.items():
            for h, b in other.terms.items():
                gh = product(g, h)
                terms[gh] = terms.get(gh, 0) + a * b
        return _ring_element(self.group, self.coeffs, terms)

    def translate(self, g: DeckElement) -> "RingElement":
        """Left multiplication by the group element g."""
        group = self.group
        if g not in group:
            raise RingError("translation by an element of a different group")
        product, u = group._product, g.value
        return _ring_element(group, self.coeffs, {product(u, e): c for e, c in self.terms.items()})

    def reverse(self) -> "RingElement":
        """Apply g -> g^-1 to the support (the pairing-table involution)."""
        inverse = self.group._inverse
        return _ring_element(self.group, self.coeffs, {inverse(e): c for e, c in self.terms.items()})

    def __repr__(self):
        return f"<{render(self)} over {self.coeffs}[{self.group}]>"


def _ring_element(group: DeckGroup, coeffs: str, terms: dict) -> RingElement:
    """The trusted constructor: terms keyed by values that an operation
    built from checked elements of group, kept without RingElement's checks."""
    elem = object.__new__(RingElement)
    elem.group, elem.coeffs, elem.terms, elem._forms = group, coeffs, _reduced(coeffs, terms), None
    return elem


# ---------------------------------------------------------------------------
# Monomial units and normal forms over commutative group rings.


def is_monomial_unit(elem: RingElement) -> bool:
    """True iff the element is a single term with unit coefficient
    (1 over F2, ±1 over Z); over F2[Z^r] this is exactly the unit test."""
    if elem.group.kind == FREE:
        raise RingError("unit testing is only done over commutative group rings")
    if len(elem.terms) != 1:
        return False
    (c,) = elem.terms.values()
    return c == 1 if elem.coeffs == F2 else c in (1, -1)


def normalize_monomial(elem: RingElement) -> RingElement:
    """Canonical associate: translate the componentwise-minimal exponent
    vector to the origin; over Z also make the lexicographically-largest
    surviving term's coefficient positive."""
    if elem.group.kind != FREE_ABELIAN:
        raise RingError("normalization applies to Laurent polynomial rings")
    if elem.is_zero():
        return elem
    shift = DeckElement(elem.group, tuple(-min(a) for a in zip(*elem.terms)))
    out = elem.translate(shift)
    if out.coeffs == INT:
        lead = max(out.terms)
        if out.terms[lead] < 0:
            out = out.neg()
    return out


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
    degrees = [e for e, in elem.terms]
    return max(degrees) - min(degrees)


def push(elem: RingElement, phi: GroupMap) -> RingElement:
    """elem pushed along phi, a GroupMap out of its group: each term at its
    value's image, terms whose images collide added (mod 2 over F2)."""
    if phi.__class__ is not GroupMap or phi.source is not elem.group:
        raise RingError(f"push takes a group map out of {elem.group!r}, got {_echo(phi)}")
    value, terms = phi.value, {}
    for e, c in elem.terms.items():
        image = value(e)
        terms[image] = terms.get(image, 0) + c
    return _ring_element(phi.target, elem.coeffs, terms)


# ---------------------------------------------------------------------------
# Rendering and serialization.

_VARIABLE_NAMES = {1: ("t",), 2: ("s", "t")}


def _monomial_string(group: DeckGroup, value) -> str:
    """A cyclic or free abelian value in t / s, t / x1, x2, ... notation."""
    kind = group.kind
    if kind == CYCLIC or group.n == 1:  # a residue or a rank-1 exponent e, as t^e in one step
        e = value if kind == CYCLIC else value[0]
        return "1" if e == 0 else "t" if e == 1 else f"t^{e}"
    names = _VARIABLE_NAMES.get(group.n)
    parts = []
    for i, e in enumerate(value):
        if e:
            name = names[i] if names else f"x{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) or "1"


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
    order) from one pass over the sorted values, a free-group word's text,
    made with all the others (_sorted_texts), serving both; kept on the
    element and shared by every later call, so not to be mutated.  Over F2
    every coefficient is 1 and the sum is its monomials joined by " + "."""
    if elem._forms is not None:
        return elem._forms
    group, terms, signed = elem.group, elem.terms, elem.coeffs == INT
    free, cyclic = group.kind == FREE, group.kind == CYCLIC
    text = _sorted_texts(group, terms) if free else None
    term_list, parts = [], []
    for value in text if free else sorted(terms):
        c = terms[value]
        if free:
            raw = body = text[value]
        else:
            raw, body = value if cyclic else list(value), _monomial_string(group, value)
        term_list.append([raw, c])
        if signed:
            body = c < 0, str(abs(c)) if body == "1" else body if c in (1, -1) else f"{abs(c)}{body}"
        parts.append(body)
    elem._forms = term_list, join_signed(parts) if signed else " + ".join(parts) or "0"
    return elem._forms


def render(elem: RingElement) -> str:
    """Human-readable sum in increasing deck-element order."""
    return term_list_and_render(elem)[1]


def _is_term_list(value) -> bool:
    """A ring element's JSON form: [element, coefficient] pairs, an element (_is_element) and an int each."""
    return _is_list(value, lambda pair: _is_list(pair) and len(pair) == 2 and _is_element(pair[0]) and _is_int(pair[1]))


def from_term_list(data: Sequence, group: DeckGroup, coeffs: str) -> RingElement:
    """The element a term list gives, each element read by element_from_json, colliding terms added."""
    elem = RingElement.zero(group, coeffs)  # refuses an unknown coefficient ring
    if not _is_term_list(data):
        raise RingError(f"{_echo(data)} is not a term list of {coeffs}[{group!r}]: give [element, coefficient] pairs")
    terms = elem.terms
    for raw, c in data:
        value = element_from_json(raw, group).value
        terms[value] = terms.get(value, 0) + c
    elem.terms = _reduced(coeffs, terms)
    return elem
