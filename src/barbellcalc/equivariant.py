r"""
Second-homology classes in covers and the lifted barbell action.

A geometry packages the covering data we compute in: a deck group, a
coefficient ring, labelled generators (lifted spheres, disks, and
meridians), and its own equivariant pairing table
P[a,b] = sum_g <a~, g b~> g, checked against those labels.
Equivariance means <g a~, h b~> depends only on g^-1 h, so this finite
table determines every pairing of lifts.
A meridian of a branched cyclic cover is deck-invariant, so its row is
c N for the norm element N = sum_g g (and N a = eps(a) N): it is stored
as its augmentation c 1, needs a cyclic deck group, and is never
expanded; pair_classes reads <a~, g b~> = c at every g.

A barbell with cuffs c1, c2 and bar holonomy c lifts to one barbell per
deck element u, with cuff pair (u c1~, u c c2~).  Each lift acts on a
class x by

    x  +  <x, u c1~> (u c) c2~  -  <x, u c c2~> u c1~

(signs optional per cuff; over F2 they vanish), and the lifted
diffeomorphism is the composition over all u.  Because a barbell's
cuffs are disjoint embedded spheres, corrections never meet other
lifts' cuffs and the composition equals the simultaneous sum computed
here; the brute-force per-lift oracle in the test suite checks exactly
this against finite cyclic covers.

Writing that sum as x + C(x), disjointness means the cuffs' lifts pair
to zero: P[c1,c1], P[c1,c2] and P[c2,c2] vanish, so C(x), which lies
on the cuffs, has no correction of its own and C o C = 0.  C also
commutes with deck translations, so the k-th iterate of the lift with
offset o is x -> o^k (x + k C(x)) for every integer k, the inverse
included.  barbell_action checks the vanishing pairings before it
applies that closed form and raises GeometryError when they fail.

The cover arguments end in summand membership: is a moved class, modulo
the meridians, supported on a chosen summand?  A meridian's class is one
basis term, so the formal answer is a test on x's terms, and the one
witness argument (a single meridian, nothing allowed) compares x's
pairings with those of 0 and of the meridian; summand_membership
decides both in closed form and refuses every other configuration.

A class is validated where it enters.  Geometry._value is the one check
on each (label, DeckElement) pair or deck element entering a class
operation: EquivClass(...), basis_class, translate, a barbell's holonomy
and offset, and summand_membership's allowed pairs.  It refuses an
undeclared or unhashable label and a value not in the geometry's deck
group with GeometryError.  Classes share a geometry when it is one object
or has the same deck group and an equal name, coefficients, labels and
pairing table; ==, add, sub and pair_classes read that one test, and
refuse a non-class.  Operations on checked classes and table rows apply
the group's law, or a GroupMap (push_terms, push_class and push_geometry
refuse one out of another group), to values and build their results with the
trusted constructors _equiv_class and _ring_element, which only reduce
coefficients mod 2 over F2 and drop zeros; push_geometry builds a trusted
Geometry on its home's checked labels, roles and aliases.  barbell_action
adds k C(x) into a copy of x's terms, pairing once when both cuffs are one label.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType

from .deckgroup import (CYCLIC, FREE, DeckElement, DeckGroup, GroupMap, _cut, _echo, _immutable, _is_int, _is_list,
                        _json, _sorted_texts, _text)
from .groupring import F2, RingElement, _reduced, _ring_element, join_signed, push, render

SPHERE = "sphere"
DISK = "disk"
MERIDIAN = "meridian"


class GeometryError(ValueError):
    """Unknown label, undefined pairing kind, or malformed geometry."""


class Geometry:
    """A cover's computational data: deck group, coefficients, labelled
    generators, the equivariant pairing table, and the handle roles
    (which spheres are attaching spheres, which disks are belt-sphere
    disks).  The roles are checked here, once: each names a declared
    label of its kind, and no label is listed twice in one role.  The deck
    group must be a DeckGroup, checked first, and each pairing row a
    RingElement over it and the geometry's coefficients.  It is immutable,
    as a DeckGroup is: its mappings are read-only copies, its roles tuples.

    pairings holds P[a,b] for the stored direction; the reverse pairing
    is derived by the involution g -> g^-1 (the intersection form on
    middle-dimensional classes here is symmetric), once, at
    construction: the private _rows table holds both directions, a
    stored entry winning over the reverse of its mirror, so a changed
    table is a new Geometry.  Disk-disk pairings are deliberately absent
    and asking for one is an error; any other absent entry counts as zero.

    A meridian label is a deck-invariant kernel class, its rows stored as
    augmentations (cyclic deck groups only, never expanded); the lifted
    generators are a free basis exactly when there is no meridian, and
    otherwise membership goes through pairings.  aliases identifies
    labels that are parallel copies of the same homology class.
    """

    __slots__ = ("name", "group", "coeffs", "labels", "pairings", "aliases", "attaching", "disks", "_labels", "_rows")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, name: str, group: DeckGroup, coeffs: str, labels: Mapping[str, str],
                 pairings: Mapping[tuple[str, str], RingElement], attaching: Iterable[str] | None = None,
                 disks: Iterable[str] | None = None, aliases: Mapping[str, str] | None = None):
        if group.__class__ is not DeckGroup:
            raise GeometryError(f"{_echo(group)} is not a deck group")
        labels, pairings = dict(labels), dict(pairings)
        fields = (name, group, coeffs, *map(MappingProxyType, (labels, pairings, dict(aliases or {}))),
                  tuple(attaching or ()), tuple(disks or ()), labels)  # _labels, the dict behind labels, for hot lookups
        for put, value in zip(_FILL, fields):
            put(self, value)
        for label, kind in labels.items():
            if kind not in (SPHERE, DISK, MERIDIAN):
                raise GeometryError(f"label {_echo(label)} has unknown generator kind {_echo(kind)}")
        for (a, b), elem in pairings.items():
            if a not in labels or b not in labels:
                raise GeometryError(f"pairing entry {_echo((a, b))} references an undeclared label")
            if not isinstance(elem, RingElement) or elem.group is not group or elem.coeffs != coeffs:
                got = f"one of {elem.coeffs}[{elem.group!r}]" if isinstance(elem, RingElement) else type(elem).__name__
                raise GeometryError(f"pairing row {_echo((a, b))} must be an element of {coeffs}[{group!r}], got {got}")
            if labels[a] == DISK and labels[b] == DISK:
                raise GeometryError("disk-disk pairings are not part of the data")
            if MERIDIAN in (labels[a], labels[b]) and any(g != group.identity().value for g in elem.terms):
                raise GeometryError(f"meridian row {_echo((a, b))} must be stored as its augmentation, "
                                    f"got {_cut(render(elem))}")
        for role, names, kind in (("attaching", self.attaching, SPHERE), ("belt disk", self.disks, DISK)):
            seen = set()
            for label in names:
                if label not in labels:
                    raise GeometryError(f"role label {_echo(label)} is not declared")
                if labels[label] != kind:
                    raise GeometryError(f"{role} label {_echo(label)} is a {labels[label]}, not a {kind}")
                if label in seen:
                    raise GeometryError(f"{role} label {_echo(label)} is listed twice")
                seen.add(label)
        if self.meridians() and group.kind != CYCLIC:
            raise GeometryError(f"geometry {_echo(name)}: meridians need a cyclic deck group, not {group!r}")
        _FILL[-1](self, {**{(b, a): elem.reverse() for (a, b), elem in pairings.items()}, **pairings})

    def meridians(self) -> list[str]:
        return [name for name, kind in self._labels.items() if kind == MERIDIAN]

    def label(self, name: str) -> str:
        """The kind of a declared label."""
        try:
            return self._labels[name]
        except (KeyError, TypeError):  # TypeError: an unhashable value, never a label
            raise GeometryError(f"unknown label {_echo(name)} in geometry {_echo(self.name)}") from None

    def identity(self) -> DeckElement:
        return self.group.identity()

    def _value(self, deck: DeckElement, label: str | None = None):
        """deck's value, refusing one not in the geometry's deck group and, given a label, an undeclared one."""
        if label is not None:
            self.label(label)
        if deck not in self.group:
            raise GeometryError("deck element from the wrong group")
        return deck.value

    def _meridian(self, a: str, b: str) -> bool:
        return MERIDIAN in (self._labels[a], self._labels[b])

    def _stored(self, a: str, b: str) -> RingElement | None:
        row = self._rows.get((a, b))
        if row is None and self._labels[a] == DISK and self._labels[b] == DISK:
            raise GeometryError(f"pairing of two disks {_echo((a, b))} is undefined")
        return row

    def pairing(self, a: str, b: str) -> RingElement:
        """P[a,b]; a meridian row is never expanded, so asking for a
        nonzero one is an error."""
        row = self._stored(a, b)
        if row is not None and row.terms and self._meridian(a, b):
            raise GeometryError(f"pairing {_echo((a, b))} is a meridian row, a multiple of sum_g g, never expanded")
        return row if row is not None else RingElement.zero(self.group, self.coeffs)

    def coefficient(self, a: str, b: str, g) -> int:
        """<a~, g b~>, g a deck value; a meridian row is deck-invariant, read at the identity."""
        row = self._stored(a, b)
        return 0 if row is None else row.terms.get(self.identity().value if self._meridian(a, b) else g, 0)

    def basis_class(self, label: str, deck: DeckElement | None = None, coeff: int = 1) -> "EquivClass":
        value = self._value(self.identity() if deck is None else deck, label)  # checked before it keys a dict
        return _equiv_class(self, {(label, value): coeff})


_FILL = tuple(vars(Geometry)[name].__set__ for name in Geometry.__slots__)  # each slot's setter, bound once


class EquivClass:
    """A finite formal sum of (generator label, deck element) pairs."""

    __slots__ = ("geometry", "terms")

    def __init__(self, geometry: Geometry, terms: Mapping[tuple[str, DeckElement], int]):
        value = geometry._value
        self.geometry = geometry
        self.terms = _reduced(geometry.coeffs, {(label, value(deck, label)): c for (label, deck), c in terms.items()})

    def support(self) -> list[tuple[str, DeckElement]]:
        group = self.geometry.group
        return [(label, DeckElement(group, value)) for label, value in _sorted(self)[0]]

    def _same_geometry(self, other: "EquivClass") -> bool:
        """The same geometry object, or one deck group and an equal name, coefficients, labels and pairing table."""
        a, b = self.geometry, other.geometry
        return a is b or (a.name == b.name and a.group is b.group and a.coeffs == b.coeffs
                          and a.labels == b.labels and a._rows == b._rows)

    def _check(self, other: "EquivClass"):
        if other.__class__ is not EquivClass:
            raise GeometryError(f"{_echo(other)} is not a class")
        if not self._same_geometry(other):
            raise GeometryError("classes live in different geometries")

    def add(self, other: "EquivClass") -> "EquivClass":
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return _equiv_class(self.geometry, terms)

    def sub(self, other: "EquivClass") -> "EquivClass":
        self._check(other)
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "EquivClass":
        return _equiv_class(self.geometry, {k: c * v for k, v in self.terms.items()})

    def translate(self, g: DeckElement) -> "EquivClass":
        """The deck transformation g applied to every lift."""
        product, v = self.geometry.group._product, self.geometry._value(g)
        return _equiv_class(self.geometry, {(label, product(v, u)): c for (label, u), c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, EquivClass) and self._same_geometry(other) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"<EquivClass {class_forms(self)[1]}>"


def _equiv_class(geometry: Geometry, terms: dict) -> EquivClass:
    """The trusted constructor: (label, value) terms that an operation built
    from checked classes or pairings, kept without EquivClass's checks."""
    x = object.__new__(EquivClass)
    x.geometry, x.terms = geometry, _reduced(geometry.coeffs, terms)
    return x


def _sorted(x: EquivClass) -> tuple[list, dict | None]:
    """The class's (label, value) keys, by label, then in deck-element
    order, and over a free group each word's text, all of them sorted and
    written at once (deckgroup._sorted_texts); other values are their own
    sort keys, and are written one at a time (None)."""
    group = x.geometry.group
    if group.kind != FREE:
        return sorted(x.terms), None
    text = _sorted_texts(group, {value for _, value in x.terms})
    place = dict(zip(text, range(len(text))))
    return sorted(x.terms, key=lambda key: (key[0], place[key[1]])), text


def push_geometry(home: Geometry, phi: GroupMap) -> Geometry:
    """A new Geometry over phi's target: home's name, labels, roles and aliases, shared, and each
    row of its two-way table pushed along phi (push).  It is built without Geometry's checks, none
    of which could fail: a GroupMap keeps the identity and inverses."""
    if phi.__class__ is not GroupMap or phi.source is not home.group:
        raise GeometryError(f"push_geometry takes a group map out of {home.group!r}, got {_echo(phi)}")
    rows = {pair: push(elem, phi) for pair, elem in home._rows.items()}
    geometry, pairings = object.__new__(Geometry), MappingProxyType({pair: rows[pair] for pair in home.pairings})
    for put, value in zip(_FILL, (home.name, phi.target, home.coeffs, home.labels, pairings, home.aliases,
                                  home.attaching, home.disks, home._labels, rows)):
        put(geometry, value)
    return geometry


def push_terms(x: EquivClass, phi: GroupMap) -> dict:
    """x's terms pushed along phi, a GroupMap out of its group, colliding terms added, unreduced."""
    if phi.__class__ is not GroupMap or phi.source is not x.geometry.group:
        raise GeometryError(f"push_terms takes a group map out of {x.geometry.group!r}, got {_echo(phi)}")
    value, terms = phi.value, {}
    for (label, e), c in x.terms.items():
        key = (label, value(e))
        terms[key] = terms.get(key, 0) + c
    return terms


def push_class(x: EquivClass, phi: GroupMap) -> EquivClass:
    """x pushed along phi (push_terms) onto its geometry pushed the same way (push_geometry)."""
    return _equiv_class(push_geometry(x.geometry, phi), push_terms(x, phi))


def class_forms(x: EquivClass) -> tuple[list[list], str]:
    """The JSON term list (class_term_list) and the human form written from it,
    e.g. "S_v + (x1^-1) S_h + ...": one sort for both."""
    group, terms = x.geometry.group, class_term_list(x)
    one, free, parts = _json(group, group.identity().value), group.kind == FREE, []
    for label, raw, c in terms:  # _text reads an exponent vector's list as its tuple
        body = label if raw == one else f"({raw if free else _text(group, raw)}) {label}"
        parts.append((c < 0, body if abs(c) == 1 else f"{abs(c)} {body}"))
    return terms, join_signed(parts)


def class_term_list(x: EquivClass) -> list[list]:
    """[label, deck element's JSON form, coefficient] per term, sorted (_sorted); a word's JSON form is its text."""
    group = x.geometry.group
    keys, texts = _sorted(x)
    return [[label, texts[value] if texts else _json(group, value), x.terms[label, value]] for label, value in keys]


# ---------------------------------------------------------------------------
# Pairings.


def equivariant_pairing(x: EquivClass, b: str) -> RingElement:
    """sum_g <x, g b~> g: the term c (a, u) contributes c * u * P[a,b]."""
    geo = x.geometry
    geo.label(b)
    product = geo.group._product
    acc: dict = {}
    rows: dict[str, dict] = {}
    for (a, u), c in x.terms.items():
        row = rows.get(a)
        if row is None:
            row = rows[a] = geo.pairing(a, b).terms
        for g, d in row.items():
            key = product(u, g)
            acc[key] = acc.get(key, 0) + c * d
    return _ring_element(geo.group, geo.coeffs, acc)


def pair_classes(x: EquivClass, y: EquivClass) -> int:
    """Full bilinear pairing <x, y> at the identity offset."""
    x._check(y)
    geo = x.geometry
    product, inverse = geo.group._product, geo.group._inverse
    total = 0
    for (a, u), c in x.terms.items():
        for (b, v), d in y.terms.items():
            total += c * d * geo.coefficient(a, b, product(inverse(u), v))
    return total % 2 if geo.coeffs == F2 else total


# ---------------------------------------------------------------------------
# The barbell action.


class BarbellSpec:
    """A barbell in the base: two cuff labels, the bar's holonomy in the
    deck group, orientation signs for the cuffs, and an iteration count.
    Negative iterate means the inverse diffeomorphism.

    The default lift of the diffeomorphism fixes the preimage of the
    barbell's complement; the other lifts compose it with a global deck
    transformation, exposed as the optional offset.
    """

    def __init__(self, cuff1: str, cuff2: str, holonomy: DeckElement, signs: tuple[int, int] = (1, 1),
                 iterate: int = 1, offset: DeckElement | None = None):
        if not (_is_list(signs, lambda sign: _is_int(sign) and sign in (1, -1)) and len(signs) == 2):
            raise GeometryError(f"cuff signs must be two integers, each +1 or -1, got {_echo(signs)}")
        if not _is_int(iterate) or iterate == 0:
            raise GeometryError("iterate must be a nonzero integer")
        if not isinstance(holonomy, DeckElement) or not isinstance(offset, (DeckElement, type(None))):
            raise GeometryError(f"holonomy must be a deck group element and offset one or None, "
                                f"got {_echo(holonomy)} and {_echo(offset)}")
        self.cuff1, self.cuff2, self.holonomy = cuff1, cuff2, holonomy
        self.signs, self.iterate, self.offset = signs, iterate, offset


def _check_spec(geo: Geometry, spec: BarbellSpec):
    """The barbell's hypotheses: sphere cuffs, a bar and an offset in the
    deck group, and disjoint cuffs, i.e. P[c1,c1], P[c1,c2] and P[c2,c2]
    vanish.  The last makes the correction square to zero."""
    for cuff in (spec.cuff1, spec.cuff2):
        if geo.label(cuff) != SPHERE:
            raise GeometryError(f"cuff {_echo(cuff)} must be a sphere label")
    geo._value(spec.holonomy)
    if spec.offset is not None:
        geo._value(spec.offset)
    c1, c2 = spec.cuff1, spec.cuff2
    for key in ((c1, c1), (c1, c2), (c2, c1), (c2, c2)):
        elem = geo.pairings.get(key)
        if elem is not None and elem.terms:
            raise GeometryError(
                f"barbell cuffs {_echo(c1)} and {_echo(c2)} are not disjoint: "
                f"P[{_echo(key[0])}, {_echo(key[1])}] = {_cut(render(elem))} is nonzero"
            )


def barbell_action(x: EquivClass, spec: BarbellSpec) -> EquivClass:
    """Homology action of the iterate-th power of the lifted barbell
    diffeomorphism (the inverse's power for negative iterate).

    With disjoint cuffs C o C = 0, and C commutes with deck
    translations, so f = o (1 + C) has f^k = o^k (1 + k C) for every
    integer k: one correction, whatever the iterate, where
    C(x) = sum_u [ s1 <x, u c1~> (u c) c2~  -  s2 <x, u c c2~> u c1~ ].
    k C(x) is added straight into a copy of x's terms."""
    _check_spec(x.geometry, spec)
    group = x.geometry.group
    product = group._product
    k = spec.iterate
    s1, s2 = k * spec.signs[0], k * spec.signs[1]
    hol = spec.holonomy.value
    terms = dict(x.terms)
    p1 = equivariant_pairing(x, spec.cuff1)
    for u, c in p1.terms.items():
        key = (spec.cuff2, product(u, hol))
        terms[key] = terms.get(key, 0) + s1 * c
    p2 = p1 if spec.cuff2 == spec.cuff1 else equivariant_pairing(x, spec.cuff2)
    hol_inv = group._inverse(hol)
    for g, c in p2.terms.items():
        key = (spec.cuff1, product(g, hol_inv))
        terms[key] = terms.get(key, 0) - s2 * c
    out = _equiv_class(x.geometry, terms)
    if spec.offset is not None:
        out = out.translate(spec.offset if k == 1 else spec.offset.pow(k))
    return out


def action_sequence(x: EquivClass, specs: Sequence[BarbellSpec]) -> EquivClass:
    """Fold barbell actions in list order: specs[0] acts first."""
    out = x
    for spec in specs:
        out = barbell_action(out, spec)
    return out


# ---------------------------------------------------------------------------
# Summand membership, in closed form.


def _aliased(x: EquivClass) -> EquivClass:
    aliases = x.geometry.aliases
    if not aliases:
        return x
    terms: dict = {}
    for (label, value), c in x.terms.items():
        key = (aliases.get(label, label), value)
        terms[key] = terms.get(key, 0) + c
    return _equiv_class(x.geometry, terms)


def summand_membership(
    x: EquivClass,
    allowed: Iterable[tuple[str, DeckElement]],
    probes: Sequence[EquivClass] = (),
    *,
    witnesses: Sequence[int] | None = None,
) -> bool:
    """Is x congruent, modulo the span of the geometry's meridians, to
    a class supported only on the allowed (label, deck) pairs?

    Decided in closed form, after parallel copies are identified.  A
    meridian's class is the single term (mu, 1), so x is formally
    congruent exactly when each of its terms is allowed or a meridian at
    the identity; that certifies yes in any geometry (the formal module
    maps onto homology).  A no answer is returned directly when the
    geometry has no meridian, its lifted generators then being a free
    basis.  With one meridian mu and nothing allowed, the only candidates
    are 0 and mu, so x is refuted when its pairings against the probes
    (witnesses, computed unless the caller holds them) are neither all
    zero nor those of mu.  Everything else raises rather than guesses: an
    allowed label or deck element foreign to the geometry, no probes,
    witnesses not one per probe, pairings that refute nothing, witnesses
    with allowed pairs or several meridians, and over Z any meridian or probe.
    """
    geo = x.geometry
    meridians = [_aliased(geo.basis_class(name)) for name in geo.meridians()]
    if geo.coeffs != F2 and (meridians or probes):
        raise GeometryError("over Z, membership takes no kernel generators or probes")
    x = _aliased(x)
    allowed_keys = {(geo.aliases.get(label, label), geo._value(deck, label)) for label, deck in allowed}
    if allowed_keys.union(*(mu.terms for mu in meridians)).issuperset(x.terms):
        return True
    if not meridians:
        return False

    if not probes:
        raise GeometryError(
            "membership in a non-free geometry needs pairing witnesses; pass probe classes"
        )
    if allowed_keys or len(meridians) > 1:
        raise GeometryError(
            "pairing witnesses are read only modulo one meridian with nothing allowed; undecided"
        )
    if witnesses is None:
        witnesses = [pair_classes(x, z) for z in probes]
    elif len(witnesses) != len(probes):
        raise GeometryError(f"{len(witnesses)} witnesses for {len(probes)} probes: give x's pairing with each probe")
    if any(witnesses) and list(witnesses) != [pair_classes(meridians[0], z) for z in probes]:
        return False
    raise GeometryError(
        "pairing witnesses do not refute membership and the basis is not free; undecided"
    )
