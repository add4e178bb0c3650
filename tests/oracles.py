r"""
Test oracles: the maps the distinctness arguments push classes through,
kept outside the package so that they stay independent of the engine.

No theorem, sweep or scenario needs them: the engine computes each
value its own way, and the tests compare the two.

* brunnian_relator and brunnian_image, the closed forms of the
  Brunnian-link module's relator in F2[F_n] and of its image in
  F2[s^{±1}, t^{±1}]: the oracles of linked-6crit's two substitutions
  into the generic relator the engine builds.
* The unitriangular representation psi(x_i) = I + E_{i,i+1} of F_{n-1}
  into unit upper-triangular integer matrices, its extension
  nilpotent_times_z to F_n -> U_n x Z, and brunnian_coordinates,
  F_n -> Z^2, which pushes a relator to its image term by term.
* cyclic_project, the weighted exponent sum mod m: the covering map
  onto an m-fold cyclic cover, under which the lifted barbell action
  and the equivariant pairing are natural.
* apply_hom, which pushes a ring element through either map (colliding
  images add), are_associates, and distinguish_brunnian_modules, the
  pairwise oracle of the brunnian sweep's verdicts.
* solve_mod2, textbook Gaussian elimination over F2, and
  summand_membership, which decides membership modulo the meridians by
  solving the general linear systems with it: the oracle of the closed
  form in equivariant.summand_membership.
* Free groups over (generator, exponent) pairs, the form words had
  before they were strings of code points: reduce_pairs, free reduction
  one letter at a time, with pairs_product, pairs_inverse, pairs_power
  and pairs_text beside it, the reference of the word operations,
  reduce_letters and format_element; pairs compare as Python tuples,
  the reference of DeckElement.sort_key.  ring_forms and class_forms
  write a free-group ring element or class from its words' pairs: the
  oracles of groupring.term_list_and_render and of
  equivariant.class_forms.  laurent_forms writes a sum over Z, Z^2,
  Z^3 or Z/m from its exponents by the same rules: the oracle of
  term_list_and_render over the abelian groups.
* The plain versions of the word-path kernels: format_letters, the
  per-syllable join of deckgroup.format_element; slow_pow, a power as
  |k| - 1 products, for DeckElement.pow; and stored_row, a pairing row
  read from the stored table or reversed on demand, for the two-way
  table Geometry derives at construction.
* binomial_product, 1 + prod_v (x^v + x^-v) as a product of ring
  elements, the oracle of the expanded scenarios.morsesimple_f.
* genus1_hd_dim, genus1-hd's engine dimension presented at the
  instance itself (the torus complement's table plus phi's rows over Z):
  the oracle of the runner's affine form in four generic presentations.
* build_parser, the argparse parser the CLI parsed with before its
  command table, the oracle of cli._parse.
* read_element and read_term_list, the JSON forms of an element and of
  a ring element read by their written rules (caret notation through
  reduce_pairs): the oracles of element_from_json, parse_word and
  from_term_list, refusals included.
* table_from_record, a report's table laid out from its machine record
  (Report.to_machine), as tables were printed before they were written
  from the engine values: the oracle of report.render_table.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from barbellcalc.deckgroup import (
    CYCLIC,
    FREE,
    FREE_ABELIAN,
    MAX_POWER_LETTERS,
    DeckElement,
    DeckGroup,
    GroupError,
    format_element,
    free_abelian,
    reduce_letters,
    syllables,
)
from barbellcalc.equivariant import SPHERE, BarbellSpec, EquivClass, Geometry, GeometryError, pair_classes
from barbellcalc.groupring import F2, RingElement, RingError, from_term_list, is_monomial_unit, normalize_monomial
from barbellcalc.presentations import PresentationError, f2_quotient_dim, present_from_scenario
from barbellcalc.report import Report
from barbellcalc.scenarios import builtin_geometry

# ---------------------------------------------------------------------------
# Unit upper-triangular integer matrices and the representations through them.


@dataclass(frozen=True)
class UniTriMatrix:
    """An n x n integer matrix with unit diagonal and zeros below it."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise GroupError("matrix is not square")
            if row[i] != 1:
                raise GroupError("diagonal entries must equal 1")
            if any(row[j] != 0 for j in range(i)):
                raise GroupError("entries below the diagonal must vanish")

    @property
    def size(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(n: int) -> "UniTriMatrix":
        return UniTriMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def elementary(n: int, i: int, j: int, c: int = 1) -> "UniTriMatrix":
        """I + c*E_{i,j} with 1-based indices, i < j."""
        if not (1 <= i < j <= n):
            raise GroupError(f"elementary position ({i},{j}) not strictly upper in size {n}")
        rows = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
        rows[i - 1][j - 1] = c
        return UniTriMatrix(tuple(tuple(r) for r in rows))

    def mul(self, other: "UniTriMatrix") -> "UniTriMatrix":
        n = self.size
        if other.size != n:
            raise GroupError("size mismatch")
        rows = tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return UniTriMatrix(rows)


def unitriangular_rep(word: DeckElement, n: int) -> UniTriMatrix:
    """psi(word) in U_n under psi(x_i) = I + E_{i,i+1}.

    Defined on words in x1..x_{n-1} only; the matrix product follows the
    word's left-to-right order, so psi is a homomorphism for our
    concatenation convention.  Each letter x_i^e right-multiplies by
    (I + E_{i,i+1})^e = I + e*E_{i,i+1} (E_{i,i+1} squares to zero),
    which adds e times column i to column i+1; column i vanishes below
    row i, so a letter costs O(i) updates of one list of rows, and the
    matrix is built and validated once at the end.
    """
    if word.group.kind != FREE:
        raise GroupError("unitriangular_rep takes free-group elements")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for gen, exp in syllables(word.value):
        if gen >= n:
            raise GroupError(f"generator x{gen} has no image in U_{n} (needs index < {n})")
        for row in rows[:gen]:
            row[gen] += exp * row[gen - 1]
    return UniTriMatrix(tuple(tuple(row) for row in rows))


def nilpotent_times_z(word: DeckElement, n: int) -> tuple[UniTriMatrix, int]:
    """Image of word in U_n x Z: drop x_n letters and apply psi, paired
    with the total x_n exponent.

    This is the composition F_{n-1} * Z -> F_{n-1} x Z -> U_n x Z; it is
    a homomorphism because dropping x_n is a retraction of free groups.
    """
    if word.group.kind != FREE or word.group.n != n:
        raise GroupError(f"expected an element of F_{n}")
    pairs = syllables(word.value)
    dropped = reduce_letters((g, e) for g, e in pairs if g != n)
    exponent = sum(e for g, e in pairs if g == n)
    return unitriangular_rep(DeckElement(word.group, dropped), n), exponent


def cyclic_project(word: DeckElement, weights: Sequence[int], m: int) -> DeckElement:
    """Weighted exponent sum mod m; weights encode which meridians
    survive the quotient defining the cyclic cover."""
    if m < 1:
        raise GroupError(f"modulus must be >= 1, got {m}")
    target = DeckGroup(CYCLIC, m)
    if word.group.kind == FREE:
        total = sum(weights[g - 1] * e for g, e in syllables(word.value))
    elif word.group.kind == FREE_ABELIAN:
        total = sum(w * e for w, e in zip(weights, word.value))
    else:
        total = weights[0] * word.value
    return DeckElement(target, total % m)


# ---------------------------------------------------------------------------
# Group homomorphisms as plain maps of deck elements, pushed through rings.


def apply_hom(
    elem: RingElement, target: DeckGroup, image: Callable[[DeckElement], DeckElement]
) -> RingElement:
    """Push a ring element through a group homomorphism, given as the map
    `image` from deck elements to elements of target (a ring map);
    colliding images add, mod 2 over F2."""
    terms: dict[DeckElement, int] = {}
    for value, c in elem.terms.items():
        h = image(DeckElement(elem.group, value))
        terms[h] = terms.get(h, 0) + c
    return RingElement(target, elem.coeffs, terms)


def brunnian_coordinates(elt: DeckElement, n: int) -> DeckElement:
    """F_n -> Z^2 by the unitriangular coordinates.

    A term g maps through (psi of the x_n-free part, x_n exponent); the
    image must land in the rank-2 central subgroup generated by the
    images of the iterated commutator w and of x_n, i.e. the matrix part
    must equal I + a*E_{1,n}.  Terms whose image falls outside raise
    RingError: the element does not live in the s,t-subring.
    """
    mat, exponent = nilpotent_times_z(elt, n)
    a = mat.rows[0][n - 1]
    if mat != UniTriMatrix.elementary(n, 1, n, a):
        raise RingError(f"term {format_element(elt)} maps outside the central rank-2 subgroup")
    return DeckElement(free_abelian(2), (a, exponent))


def brunnian_relator(wk: DeckElement, wl: DeckElement) -> RingElement:
    """The single relator 1 + (xn^-1 + 1)(w^-k + w^k)(1 + xn)(w^-l + w^l)
    of the n-component Brunnian link module, in F2[F_n], from its bar
    words w^k and w^l, w the iterated commutator word brunnian_word(n):
    the words the linked-6crit barbells carry."""
    group = wk.group
    if group.kind != FREE or group.n < 2 or wl.group != group:
        raise PresentationError(f"bar words must lie in one free group F_n, n >= 2, got {group!r} and {wl.group!r}")
    xn, one = group.generator(group.n), group.identity()

    def binomial(a: DeckElement, b: DeckElement) -> RingElement:
        return RingElement(group, F2, {a: 1, b: 1})

    product = binomial(xn.inv(), one).mul(binomial(wk.inv(), wk)).mul(binomial(one, xn)).mul(binomial(wl.inv(), wl))
    return RingElement.one(group, F2).add(product)


def brunnian_image(k: int, l: int, n: int) -> RingElement:
    """The relator pushed into F2[s^{±1}, t^{±1}] by the unitriangular
    coordinates (s = image of w, t = image of xn), in closed form.

    The coordinates are a ring map, so the image is the product of the
    factors' images; over F2, (t^-1 + 1)(1 + t) = t + t^-1, so for every
    n it is 1 + (t + t^-1)(s^k + s^-k)(s^l + s^-l)."""
    if k < 1 or l < 1 or n < 2:
        raise PresentationError(f"need winding numbers k, l >= 1 and n >= 2 components, got k={k}, l={l}, n={n}")
    return binomial_product([(0, 1), (k, 0), (l, 0)])


def are_associates(a: RingElement, b: RingElement) -> bool:
    """True iff a = m*b for a monomial unit m (sign included over Z)."""
    a._check(b)
    if a.is_zero() or b.is_zero():
        raise RingError("associate testing requires nonzero elements")
    return normalize_monomial(a) == normalize_monomial(b)


def distinguish_brunnian_modules(k: int, l: int, kp: int, lp: int, n: int) -> bool:
    """True = the two Brunnian-link modules are provably non-isomorphic:
    their pushed-forward relators are non-associate in F2[s^{±1},t^{±1}]
    (and each is certifiably non-trivial: not a monomial unit).

    False means "not distinguished by this test", never "isomorphic";
    in particular unordered-equal parameter pairs return False.  The
    brunnian sweep decides its pairs by the same rule on images it
    normalizes once per winding pair.
    """
    a = brunnian_image(k, l, n)
    b = brunnian_image(kp, lp, n)
    if {k, l} == {kp, lp}:
        return False
    if is_monomial_unit(a) or is_monomial_unit(b):
        # would contradict nontriviality of the modules; refuse to distinguish
        return False
    return not are_associates(a, b)


# ---------------------------------------------------------------------------
# Summand membership through general F2 linear systems.

Matrix = list[list[int]]


def solve_mod2(a: Matrix, b: list[int]) -> list[int] | None:
    """One solution x of A x = b over F2, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[v % 2 for v in row] + [b[i] % 2] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for i in range(rows):
            if i != r and aug[i][c]:
                aug[i] = [(x + y) % 2 for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    return x


def _aliased(x: EquivClass) -> EquivClass:
    aliases = x.geometry.aliases
    if not aliases:
        return x
    terms: dict[tuple[str, DeckElement], int] = {}
    for (label, value), c in x.terms.items():
        key = (aliases.get(label, label), DeckElement(x.geometry.group, value))
        terms[key] = terms.get(key, 0) + c
    return EquivClass(x.geometry, terms)


def _solve(matrix, rhs):
    # summand_membership refuses meridians and probes over Z, so
    # a system with unknowns is always over F2
    if not rhs or not matrix[0]:
        return [] if all(v == 0 for v in rhs) else None
    return solve_mod2(matrix, rhs)


def summand_membership(
    x: EquivClass,
    allowed: Iterable[tuple[str, DeckElement]],
    probes: Sequence[EquivClass] = (),
) -> bool:
    """Is x congruent, modulo the span of the geometry's meridians, to
    a class supported only on the allowed (label, deck) pairs?

    Formal congruence on the joint support certifies yes in any
    geometry (the formal module maps onto homology).  A no answer is
    returned directly when the geometry has no meridian, its lifted
    generators then being a free basis; otherwise it must be certified
    by pairing witnesses: if no choice of meridian coefficients and
    allowed-supported class reproduces x's pairings against the probes,
    x cannot be congruent.  Configurations this cannot decide raise
    rather than guess; over Z that includes any meridian or probe, since
    no argument here needs an integer solve.
    """
    geo = x.geometry
    gens = [_aliased(geo.basis_class(name)) for name in geo.meridians()]
    if geo.coeffs != F2 and (gens or probes):
        raise GeometryError("over Z, membership takes no kernel generators or probes")
    x = _aliased(x)
    # class terms are keyed by (label, value)
    allowed_keys = {(geo.aliases.get(label, label), deck.value) for label, deck in allowed}

    outside = sorted(
        {key for key in x.terms if key not in allowed_keys}
        | {key for g in gens for key in g.terms if key not in allowed_keys},
        key=lambda k: (k[0], DeckElement(geo.group, k[1]).sort_key()),
    )
    matrix = [[g.terms.get(key, 0) for g in gens] for key in outside]
    rhs = [x.terms.get(key, 0) for key in outside]
    if _solve(matrix, rhs) is not None:
        return True
    if not gens:
        return False

    if not probes:
        raise GeometryError(
            "membership in a non-free geometry needs pairing witnesses; pass probe classes"
        )
    # Unknowns: meridian coefficients plus one coefficient per allowed
    # basis pair; equations: pairings against each probe.
    allowed_list = sorted(allowed_keys, key=lambda k: (k[0], DeckElement(geo.group, k[1]).sort_key()))
    columns = gens + [EquivClass(geo, {(label, DeckElement(geo.group, value)): 1}) for label, value in allowed_list]
    w_matrix = [[pair_classes(col, z) for col in columns] for z in probes]
    w_rhs = [pair_classes(x, z) for z in probes]
    if _solve(w_matrix, w_rhs) is None:
        return False
    raise GeometryError(
        "pairing witnesses do not refute membership and the basis is not free; undecided"
    )


# ---------------------------------------------------------------------------
# The word-path kernels, one letter, one product and one row at a time.


def format_letters(elt: DeckElement) -> str:
    """x-notation through one f-string per syllable: the oracle of
    format_element's letter table."""
    if elt.group.kind == FREE:
        return pairs_text(syllables(elt.value))
    return pairs_text(tuple((i + 1, e) for i, e in enumerate(elt.value) if e != 0))


# ---------------------------------------------------------------------------
# Free groups over (generator, exponent) pairs.

Pairs = tuple[tuple[int, int], ...]


def reduce_pairs(letters: Iterable[tuple[int, int]]) -> Pairs:
    """Free reduction one letter at a time: expand each pair into single
    letters on a stack, pop a letter that meets its inverse, then merge
    the runs back into pairs."""
    stack = []
    for gen, exp in letters:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if stack and stack[-1] == (gen, -step):
                stack.pop()
            else:
                stack.append((gen, step))
    merged = []
    for gen, step in stack:
        if merged and merged[-1][0] == gen:
            merged[-1][1] += step
        else:
            merged.append([gen, step])
    return tuple((g, e) for g, e in merged)


def pairs_product(a: Pairs, b: Pairs) -> Pairs:
    return reduce_pairs(a + b)


def pairs_inverse(a: Pairs) -> Pairs:
    return tuple((g, -e) for g, e in reversed(a))


def pairs_power(a: Pairs, k: int) -> Pairs:
    return reduce_pairs((a if k >= 0 else pairs_inverse(a)) * abs(k))


def pairs_text(a: Pairs) -> str:
    """x-notation: "x1^-1 x2^2", "1" for the empty word."""
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in a) or "1"


def signed_sum(parts: Iterable[tuple[int, str]]) -> str:
    """(coefficient, body) pairs as a report writes a sum: " + " or " - "
    between bodies, "-" before a negative first one, "0" for none."""
    out = "".join(f" {'-' if c < 0 else '+'} {body}" for c, body in parts)
    return out[3:] if out.startswith(" + ") else f"-{out[3:]}" if out else "0"


def _collected(terms: Iterable[tuple], coeffs: str) -> dict:
    """The coefficients of equal keys added, reduced mod 2 over F2, zeros dropped."""
    out: dict = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c % 2 if coeffs == F2 else c for key, c in out.items() if (c % 2 if coeffs == F2 else c)}


def ring_forms(terms: Iterable[tuple[Pairs, int]], coeffs: str) -> tuple[list[list], str]:
    """The term list and rendering of the free-group ring element sum c w,
    each word given by its reduced pairs: words sorted as pairs and written
    as pairs_text, a coefficient of size above 1 before its word, and the
    identity written as its coefficient's size."""
    collected = _collected(terms, coeffs)
    order = sorted(collected)
    parts = []
    for a in order:
        c = collected[a]
        parts.append((c, str(abs(c)) if not a else pairs_text(a) if abs(c) == 1 else f"{abs(c)}{pairs_text(a)}"))
    return [[pairs_text(a), collected[a]] for a in order], signed_sum(parts)


# the variables of Z, Z^2 and Z^3, as the paper writes F2[t^{±1}] and F2[s^{±1}, t^{±1}]
_LAURENT_NAMES = {1: ("t",), 2: ("s", "t"), 3: ("x1", "x2", "x3")}


def laurent_forms(terms: Iterable[tuple], coeffs: str, modulus: int | None = None) -> tuple[list[list], str]:
    """The term list and rendering of the Laurent sum of the terms c x^e over
    Z^r (r = 1, 2, 3), each key an exponent vector e, or, given the modulus m,
    over Z/m, each key an integer e read mod m: keys sorted (residues in
    [0, m)), each term [e as a list, or the residue, c], each monomial its
    variables' powers ("t", "s^2 t^-1", "x1 x3^-2"; "t^e" over Z/m), "1" at
    the identity, a coefficient of size above 1 before it, and the identity
    written as its coefficient's size."""
    collected = _collected(((key % modulus if modulus else tuple(key), c) for key, c in terms), coeffs)
    order = sorted(collected)
    parts = []
    for key in order:
        c = collected[key]
        powers = zip(("t",), (key,)) if modulus else zip(_LAURENT_NAMES[len(key)], key)
        monomial = " ".join(name if e == 1 else f"{name}^{e}" for name, e in powers if e) or "1"
        parts.append((c, str(abs(c)) if monomial == "1" else monomial if abs(c) == 1 else f"{abs(c)}{monomial}"))
    return [[key if modulus else list(key), collected[key]] for key in order], signed_sum(parts)


def class_forms(terms: Iterable[tuple[tuple[str, Pairs], int]], coeffs: str) -> tuple[list[list], str]:
    """The term list and rendering of the free-group class sum c w S, each
    key a label and a word's reduced pairs: sorted by label, then as pairs,
    written "(w) S" ("S" at the identity), with "|c| " before it when |c| > 1."""
    collected = _collected(terms, coeffs)
    order = sorted(collected)
    parts = []
    for label, a in order:
        c = collected[label, a]
        body = f"({pairs_text(a)}) {label}" if a else label
        parts.append((c, body if abs(c) == 1 else f"{abs(c)} {body}"))
    return [[label, pairs_text(a), collected[label, a]] for label, a in order], signed_sum(parts)


def slow_pow(x: DeckElement, k: int) -> DeckElement:
    """k-fold product of x (of x^-1 when k < 0), one mul at a time."""
    if k == 0:
        return x.group.identity()
    base = x if k > 0 else x.inv()
    out = base
    for _ in range(abs(k) - 1):
        out = out.mul(base)
    return out


def binomial_product(vectors: Sequence[tuple[int, ...]]) -> RingElement:
    """1 + prod_v (x^v + x^-v) in F2[Z^r], one RingElement.mul per
    binomial; each binomial is the sum of its two monomials, so a zero
    vector's is 1 + 1 = 0."""
    group = free_abelian(len(vectors[0]))
    one = RingElement.one(group, F2)
    product = one
    for v in vectors:
        plus, minus = (RingElement(group, F2, {DeckElement(group, e): 1}) for e in (v, tuple(-a for a in v)))
        product = product.mul(plus.add(minus))
    return one.add(product)


def genus1_hd_dim(k: int, l: int, h: dict, v: dict, b: dict) -> int | None:
    """dim_F2 of genus1-hd's module at one instance (None = infinite),
    presented there: the torus complement's table plus a sphere phi whose
    rows against S_h, S_v and D_h are the maps h, v and b over Z (a
    position an integer or a decimal string, colliding ones added mod 2),
    moved by the vertical barbell (bar t^l), then the horizontal one
    (bar t^k), and paired with D_h."""
    torus = builtin_geometry("torus_complement")
    group = torus.group
    rows = {("phi", label): from_term_list([[int(e), c] for e, c in data.items()], group, F2)
            for label, data in (("S_h", h), ("S_v", v), ("D_h", b))}
    labels = {**torus.labels, "phi": SPHERE}
    geo = Geometry("genus1_hd", group, F2, labels, {**torus.pairings, **rows}, ["phi"], ["D_h"])
    t = group.generator
    return f2_quotient_dim(present_from_scenario(geo, [BarbellSpec("S_v", "S_v", t(1, l)),
                                                      BarbellSpec("S_h", "S_h", t(1, k))]))


def stored_row(geo: Geometry, a: str, b: str) -> RingElement | None:
    """P[a,b] as the geometry's table stores it, or else its mirror
    P[b,a] reversed on demand (g -> g^-1 on the support); None when
    neither direction is stored."""
    if (a, b) in geo.pairings:
        return geo.pairings[(a, b)]
    if (b, a) in geo.pairings:
        return geo.pairings[(b, a)].reverse()
    return None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser as it was, verbatim but for the runners
    it set as defaults (the command names the runner)."""
    parser = argparse.ArgumentParser(
        prog="barbellcalc",
        description="equivariant barbell-action computations and their module invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def common(p):
        p.add_argument("--format", choices=("table", "machine"), default="table")
        out(p)

    theorem = sub.add_parser("theorem", help="run one theorem reproduction")
    theorem.add_argument("name")
    for flag in ("k", "l", "n", "m", "p", "q"):
        theorem.add_argument(f"--{flag}", type=int, default=None)
    common(theorem)

    sweep = sub.add_parser("sweep", help="run a parameter grid")
    sweep.add_argument("name")
    sweep.add_argument("--n", type=int, default=None)
    sweep.add_argument("--max", type=int, default=None)
    common(sweep)

    scenario = sub.add_parser("scenario", help="run a JSON scenario file")
    scenario.add_argument("file")
    common(scenario)

    listing = sub.add_parser("list", help="list theorems and geometries")
    out(listing)
    return parser


# ---------------------------------------------------------------------------
# The JSON forms of elements and term lists, read by their written rules.


def read_letters(text: str) -> list[tuple[int, int]] | None:
    """The (generator, exponent) pairs of caret notation, each token x<g>,
    x<g>^<e> or x<g>^-<e> in decimal digits ("" and "1" alone are the
    identity), or None when a token is none of these or a number has more
    digits than the interpreter converts."""
    tokens = text.split()
    letters = []
    for token in [] if tokens == ["1"] else tokens:
        name, caret, power = token.partition("^")
        if name[:1] != "x" or not name[1:].isdecimal() or caret and not power.removeprefix("-").isdecimal():
            return None
        try:
            letters.append((int(name[1:]), int(power) if caret else 1))
        except ValueError:
            return None
    return letters


def read_element(data, group: DeckGroup):
    """The value an element's JSON form gives in group, a word as its
    reduced (generator, exponent) pairs, or None when it is refused.  Text
    is a residue's integer or caret notation on the group's generators (a
    word of at most MAX_POWER_LETTERS letters); an int, exactly, is a
    residue, the exponent of Z, or else only 1, the identity; a list of
    exactly ints is an exponent vector of the group's rank."""
    kind, n = group.kind, group.n
    if isinstance(data, str):
        if kind == CYCLIC:
            try:
                return int(data) % n
            except ValueError:
                return None
        letters = read_letters(data)
        if letters is None or not all(1 <= g <= n for g, _ in letters):
            return None
        if kind == FREE:
            pairs = reduce_pairs(letters)
            return pairs if sum(abs(e) for _, e in pairs) <= MAX_POWER_LETTERS else None
        return tuple(sum(e for g, e in letters if g == i) for i in range(1, n + 1))
    if type(data) is int:
        if kind == CYCLIC:
            return data % n
        if kind == FREE_ABELIAN and n == 1:
            return (data,)
        return ((0,) * n if kind == FREE_ABELIAN else ()) if data == 1 else None
    if kind == FREE_ABELIAN and isinstance(data, (list, tuple)) and all(type(a) is int for a in data):
        return tuple(data) if len(data) == n else None
    return None


def read_term_list(data, group: DeckGroup, coeffs: str) -> dict | None:
    """{value: coefficient} of a term list, a list of [element, int]
    pairs (values as read_element gives them, colliding terms added, mod 2
    over F2, zeros dropped), or None when it is refused."""
    if not isinstance(data, (list, tuple)):
        return None
    terms: dict = {}
    for pair in data:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or type(pair[1]) is not int:
            return None
        value = read_element(pair[0], group)
        if value is None:
            return None
        terms[value] = terms.get(value, 0) + pair[1]
    return {value: c % 2 if coeffs == F2 else c for value, c in terms.items() if (c % 2 if coeffs == F2 else c)}


def _fmt(value) -> str:
    """One value of a machine record as a table line prints it."""
    if value is None:
        return "infinite"
    if isinstance(value, dict) and "rendered" in value:
        return value["rendered"]
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def table_from_record(report: Report) -> str:
    """The report's table laid out from its machine record: its theorem,
    its params, each computed and expected form in key order through _fmt,
    its notes and its verdict."""
    record = report.to_machine()
    lines = [f"theorem: {report.name}"]
    if report.params:
        lines.append(f"params: {', '.join(f'{key}={report.params[key]}' for key in sorted(report.params))}")
    lines += [f"  {key}: {_fmt(record['computed'][key])}" for key in sorted(record["computed"])]
    lines += [f"  expected {key}: {_fmt(record['expected'][key])}" for key in sorted(record["expected"])]
    lines += [f"  note: {note}" for note in report.notes]
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines)
