r"""
Second-homology classes in covers and the lifted barbell action.

A geometry packages the covering data we compute in: a deck group, a
coefficient ring, labelled generators (lifted spheres, disks, and a
meridian when one spans a kernel), and the equivariant pairing table
P[a,b] = sum_g <a~, g b~> g.  Equivariance means <g a~, h b~> depends
only on g^-1 h, so this finite table determines every pairing of lifts.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .deckgroup import DeckElement, DeckGroup
from .groupring import F2, RingElement
from .intlinalg import solve_integer, solve_mod2

SPHERE = "sphere"
DISK = "disk"
MERIDIAN = "meridian"


class GeometryError(ValueError):
    """Unknown label, undefined pairing kind, or malformed geometry."""


@dataclass(frozen=True)
class GeneratorLabel:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in (SPHERE, DISK, MERIDIAN):
            raise GeometryError(f"unknown generator kind {self.kind!r}")


class PairingTable:
    """Equivariant pairings P[a,b]; the reverse pairing is derived from
    the stored direction by the involution g -> g^-1 (the intersection
    form on middle-dimensional classes here is symmetric).

    Disk-disk pairings are deliberately absent and asking for one is an
    error; any other absent entry counts as zero.
    """

    def __init__(self, labels: Mapping[str, GeneratorLabel], entries: Mapping[tuple[str, str], RingElement]):
        self.labels = dict(labels)
        self.entries: dict[tuple[str, str], RingElement] = {}
        for (a, b), elem in entries.items():
            if a not in self.labels or b not in self.labels:
                raise GeometryError(f"pairing entry ({a}, {b}) references an undeclared label")
            if self.labels[a].kind == DISK and self.labels[b].kind == DISK:
                raise GeometryError("disk-disk pairings are not part of the data")
            self.entries[(a, b)] = elem

    def pairing(self, a: str, b: str, group: DeckGroup, coeffs: str) -> RingElement:
        ka, kb = self.labels[a].kind, self.labels[b].kind
        if ka == DISK and kb == DISK:
            raise GeometryError(f"pairing of two disks ({a}, {b}) is undefined")
        if (a, b) in self.entries:
            return self.entries[(a, b)]
        if (b, a) in self.entries:
            return self.entries[(b, a)].reverse()
        return RingElement.zero(group, coeffs)


@dataclass
class Geometry:
    """A cover's computational data: deck group, coefficients, labelled
    generators, pairing table, and the handle roles (which spheres are
    attaching spheres, which disks are belt-sphere disks).

    free_basis records whether the lifted generators form a basis of
    the second homology (true for the universal/cyclic covers built
    here, false for branched covers, where membership questions must go
    through pairings).  aliases identifies labels that are parallel
    copies of the same homology class.
    """

    name: str
    group: DeckGroup
    coeffs: str
    labels: dict[str, GeneratorLabel]
    pairing: PairingTable
    attaching: list[str] = field(default_factory=list)
    disks: list[str] = field(default_factory=list)
    kernel_labels: list[str] = field(default_factory=list)
    free_basis: bool = True
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in self.attaching + self.disks + self.kernel_labels:
            if name not in self.labels:
                raise GeometryError(f"role label {name} is not declared")

    def label(self, name: str) -> GeneratorLabel:
        if name not in self.labels:
            raise GeometryError(f"unknown label {name!r} in geometry {self.name}")
        return self.labels[name]

    def identity(self) -> DeckElement:
        return self.group.identity()

    def zero_class(self) -> "EquivClass":
        return EquivClass(self, {})

    def basis_class(self, label: str, deck: DeckElement | None = None, coeff: int = 1) -> "EquivClass":
        self.label(label)
        deck = deck if deck is not None else self.identity()
        return EquivClass(self, {(label, deck): coeff})

    def extend(self, label: GeneratorLabel, pairings: Mapping[str, RingElement]) -> "Geometry":
        """A copy with one extra generator and its pairing rows; used for
        synthetic classes with prescribed intersection data."""
        labels = dict(self.labels)
        labels[label.name] = label
        entries = dict(self.pairing.entries)
        for other, elem in pairings.items():
            entries[(label.name, other)] = elem
        return Geometry(
            name=self.name,
            group=self.group,
            coeffs=self.coeffs,
            labels=labels,
            pairing=PairingTable(labels, entries),
            attaching=list(self.attaching),
            disks=list(self.disks),
            kernel_labels=list(self.kernel_labels),
            free_basis=self.free_basis,
            aliases=dict(self.aliases),
        )


class EquivClass:
    """A finite formal sum of (generator label, deck element) pairs."""

    __slots__ = ("geometry", "terms")

    def __init__(self, geometry: Geometry, terms: Mapping[tuple[str, DeckElement], int]):
        clean: dict[tuple[str, DeckElement], int] = {}
        for (label, deck), c in terms.items():
            geometry.label(label)
            if deck.group != geometry.group:
                raise GeometryError("deck element from the wrong group")
            if geometry.coeffs == F2:
                c %= 2
            if c:
                clean[(label, deck)] = c
        self.geometry = geometry
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms, key=lambda k: (k[0], k[1].sort_key()))

    def _check(self, other: "EquivClass"):
        if self.geometry is not other.geometry and (
            self.geometry.name != other.geometry.name
            or self.geometry.group != other.geometry.group
            or self.geometry.coeffs != other.geometry.coeffs
        ):
            raise GeometryError("classes live in different geometries")

    def add(self, other: "EquivClass") -> "EquivClass":
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return EquivClass(self.geometry, terms)

    def sub(self, other: "EquivClass") -> "EquivClass":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "EquivClass":
        return EquivClass(self.geometry, {k: c * v for k, v in self.terms.items()})

    def translate(self, g: DeckElement) -> "EquivClass":
        """The deck transformation g applied to every lift."""
        return EquivClass(
            self.geometry, {(label, g.mul(u)): c for (label, u), c in self.terms.items()}
        )

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __eq__(self, other):
        return (
            isinstance(other, EquivClass)
            and self.geometry.name == other.geometry.name
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"<EquivClass {render_class(self)}>"


def render_class(x: EquivClass) -> str:
    """Sorted human form, e.g. "S_v + x1^-1 S_h + ..."."""
    from .deckgroup import format_element

    if x.is_zero():
        return "0"
    parts = []
    for label, deck in x.support():
        c = x.terms[(label, deck)]
        body = label if deck.is_identity() else f"({format_element(deck)}) {label}"
        if abs(c) != 1:
            body = f"{abs(c)} {body}"
        parts.append((c < 0, body))
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for negative, body in parts[1:]:
        out += (" - " if negative else " + ") + body
    return out


# ---------------------------------------------------------------------------
# Pairings.


def equivariant_pairing(x: EquivClass, b: str) -> RingElement:
    """sum_g <x, g b~> g: the term c (a, u) contributes c * u * P[a,b]."""
    geo = x.geometry
    geo.label(b)
    acc: dict[DeckElement, int] = {}
    for (a, u), c in x.terms.items():
        for g, d in geo.pairing.pairing(a, b, geo.group, geo.coeffs).terms.items():
            key = u.mul(g)
            acc[key] = acc.get(key, 0) + c * d
    return RingElement(geo.group, geo.coeffs, acc)


def pair_classes(x: EquivClass, y: EquivClass) -> int:
    """Full bilinear pairing <x, y> at the identity offset."""
    x._check(y)
    geo = x.geometry
    total = 0
    for (a, u), c in x.terms.items():
        for (b, v), d in y.terms.items():
            p = geo.pairing.pairing(a, b, geo.group, geo.coeffs)
            total += c * d * p.coefficient(u.inv().mul(v))
    return total % 2 if geo.coeffs == F2 else total


# ---------------------------------------------------------------------------
# The barbell action.


@dataclass(frozen=True)
class BarbellSpec:
    """A barbell in the base: two cuff labels, the bar's holonomy in the
    deck group, orientation signs for the cuffs, and an iteration count.
    Negative iterate means the inverse diffeomorphism.

    The default lift of the diffeomorphism fixes the preimage of the
    barbell's complement; the other lifts compose it with a global deck
    transformation, exposed as the optional offset.
    """

    cuff1: str
    cuff2: str
    holonomy: DeckElement
    signs: tuple[int, int] = (1, 1)
    iterate: int = 1
    offset: DeckElement | None = None

    def __post_init__(self):
        if self.signs[0] not in (1, -1) or self.signs[1] not in (1, -1):
            raise GeometryError("cuff signs must be +1 or -1")
        if self.iterate == 0:
            raise GeometryError("iterate must be a nonzero integer")


def _barbell_correction(x: EquivClass, spec: BarbellSpec) -> EquivClass:
    """sum_u [ s1 <x, u c1~> (u c) c2~  -  s2 <x, u c c2~> u c1~ ]."""
    geo = x.geometry
    for cuff in (spec.cuff1, spec.cuff2):
        if geo.label(cuff).kind != SPHERE:
            raise GeometryError(f"cuff {cuff} must be a sphere label")
    if spec.holonomy.group != geo.group:
        raise GeometryError("holonomy lives in the wrong deck group")
    s1, s2 = spec.signs
    hol = spec.holonomy
    terms: dict[tuple[str, DeckElement], int] = {}
    p1 = equivariant_pairing(x, spec.cuff1)
    for u, c in p1.terms.items():
        key = (spec.cuff2, u.mul(hol))
        terms[key] = terms.get(key, 0) + s1 * c
    p2 = equivariant_pairing(x, spec.cuff2)
    for g, c in p2.terms.items():
        key = (spec.cuff1, g.mul(hol.inv()))
        terms[key] = terms.get(key, 0) - s2 * c
    return EquivClass(geo, terms)


_INVERSE_SERIES_CAP = 1000


def barbell_action(x: EquivClass, spec: BarbellSpec) -> EquivClass:
    """Homology action of the lifted barbell diffeomorphism, applied
    |iterate| times (inverse map for negative iterate)."""
    out = x
    if spec.iterate > 0:
        for _ in range(spec.iterate):
            out = out.add(_barbell_correction(out, spec))
            if spec.offset is not None:
                out = out.translate(spec.offset)
        return out
    # Inverse of x -> x + C(x): subtract the Neumann series of C, which
    # terminates whenever corrections miss the cuffs (always, for
    # pairing tables of genuinely disjoint cuffs).
    for _ in range(-spec.iterate):
        if spec.offset is not None:
            out = out.translate(spec.offset.inv())
        acc = out
        term = _barbell_correction(out, spec).scale(-1)
        steps = 0
        while not term.is_zero():
            acc = acc.add(term)
            term = _barbell_correction(term, spec).scale(-1)
            steps += 1
            if steps > _INVERSE_SERIES_CAP:
                raise GeometryError("barbell correction is not nilpotent; cannot invert")
        out = acc
    return out


def action_sequence(x: EquivClass, specs: Sequence[BarbellSpec]) -> EquivClass:
    """Fold barbell actions in list order: specs[0] acts first."""
    out = x
    for spec in specs:
        out = barbell_action(out, spec)
    return out


def intersection_polynomial(x: EquivClass, disk_labels: Sequence[str]) -> list[RingElement]:
    """Componentwise equivariant pairing against each disk generator;
    one column's worth of the presentation matrix."""
    return [equivariant_pairing(x, d) for d in disk_labels]


# ---------------------------------------------------------------------------
# Summand membership, formally and through pairing witnesses.


def _aliased(x: EquivClass) -> EquivClass:
    aliases = x.geometry.aliases
    if not aliases:
        return x
    terms: dict[tuple[str, DeckElement], int] = {}
    for (label, deck), c in x.terms.items():
        key = (aliases.get(label, label), deck)
        terms[key] = terms.get(key, 0) + c
    return EquivClass(x.geometry, terms)


def _solve(matrix, rhs, coeffs):
    if not rhs:
        return []
    if not matrix or not matrix[0]:
        return [] if all(v == 0 for v in rhs) else None
    return solve_mod2(matrix, rhs) if coeffs == F2 else solve_integer(matrix, rhs)


def summand_membership(
    x: EquivClass,
    allowed: Iterable[tuple[str, DeckElement]],
    kernel_gens: Sequence[EquivClass] = (),
    probes: Sequence[EquivClass] = (),
) -> bool:
    """Is x congruent, modulo the span of kernel_gens, to a class
    supported only on the allowed (label, deck) pairs?

    Formal congruence on the joint support certifies yes in any
    geometry (the formal module maps onto homology).  A no answer is
    returned directly in free-basis geometries; otherwise it must be
    certified by pairing witnesses: if no choice of kernel coefficients
    and allowed-supported class reproduces x's pairings against the
    probes, x cannot be congruent.  Configurations this cannot decide
    raise rather than guess.
    """
    geo = x.geometry
    x = _aliased(x)
    gens = [_aliased(k) for k in kernel_gens]
    allowed_keys = {(geo.aliases.get(label, label), deck) for label, deck in allowed}

    outside = sorted(
        {key for key in x.terms if key not in allowed_keys}
        | {key for g in gens for key in g.terms if key not in allowed_keys},
        key=lambda k: (k[0], k[1].sort_key()),
    )
    matrix = [[g.terms.get(key, 0) for g in gens] for key in outside]
    rhs = [x.terms.get(key, 0) for key in outside]
    if _solve(matrix, rhs, geo.coeffs) is not None:
        return True
    if geo.free_basis:
        return False

    if not probes:
        raise GeometryError(
            "membership in a non-free geometry needs pairing witnesses; pass probe classes"
        )
    # Unknowns: kernel coefficients plus one coefficient per allowed
    # basis pair; equations: pairings against each probe.
    allowed_list = sorted(allowed_keys, key=lambda k: (k[0], k[1].sort_key()))
    columns = gens + [EquivClass(geo, {key: 1}) for key in allowed_list]
    w_matrix = [[pair_classes(col, z) for col in columns] for z in probes]
    w_rhs = [pair_classes(x, z) for z in probes]
    if _solve(w_matrix, w_rhs, geo.coeffs) is None:
        return False
    raise GeometryError(
        "pairing witnesses do not refute membership and the basis is not free; undecided"
    )
