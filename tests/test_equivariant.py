import itertools
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barbellcalc import equivariant
from barbellcalc.deckgroup import (CYCLIC, FREE_ABELIAN, DeckElement, DeckGroup, GroupError, GroupMap, _echo,
                                   element_from_json, format_element, free_abelian, free_group, parse_word,
                                   reduce_letters)
from barbellcalc.equivariant import (
    DISK,
    MERIDIAN,
    SPHERE,
    BarbellSpec,
    EquivClass,
    Geometry,
    GeometryError,
    action_sequence,
    barbell_action,
    equivariant_pairing,
    pair_classes,
    push_class,
    push_geometry,
    push_terms,
    summand_membership,
)
from barbellcalc.groupring import F2, INT, RingElement, RingError, from_term_list
from barbellcalc.scenarios import GEOMETRY_BUILDERS, GluingMatrix, HypothesisError, builtin_geometry
from oracles import apply_hom, class_forms, cyclic_project, reduce_pairs, solve_mod2, stored_row
from oracles import summand_membership as solved_membership
from test_groupring import FREE_RANKS, NONZERO_COEFFICIENTS, free_words

Z1 = free_abelian(1)


def t_elt(geo, i):
    if geo.group.kind == "cyclic":
        return DeckElement(geo.group, i % geo.group.n)
    return DeckElement(geo.group, (i,))


def tpoly(geo, powers):
    return RingElement(geo.group, geo.coeffs, {t_elt(geo, e): c for e, c in powers.items()})


def with_generator(geo, name, kind, rows):
    """geo with one more generator, name, and its pairing rows (name, other)."""
    pairings = {**geo.pairings, **{(name, other): row for other, row in rows.items()}}
    return Geometry(geo.name, geo.group, geo.coeffs, {**geo.labels, name: kind}, pairings,
                    geo.attaching, geo.disks, geo.aliases)


def cls(geo, *terms):
    out = {}
    for label, power, coeff in terms:
        key = (label, t_elt(geo, power))
        out[key] = out.get(key, 0) + coeff
    return EquivClass(geo, out)


# -- equivariant pairing -----------------------------------------------------


def test_vertical_sphere_pairs_once_with_its_disk():
    geo = builtin_geometry("torus_complement")
    assert equivariant_pairing(geo.basis_class("S_v"), "D_v") == tpoly(geo, {0: 1})


def test_horizontal_sphere_misses_the_vertical_disk():
    geo = builtin_geometry("torus_complement")
    assert equivariant_pairing(geo.basis_class("S_h"), "D_v").is_zero()


def test_pairing_shifts_equivariantly():
    geo = builtin_geometry("torus_complement")
    x = cls(geo, ("S_v", 2, 1), ("S_v", 3, 1))
    assert equivariant_pairing(x, "D_v") == tpoly(geo, {2: 1, 3: 1})


def test_unknown_label_raises():
    geo = builtin_geometry("torus_complement")
    with pytest.raises(GeometryError):
        equivariant_pairing(geo.basis_class("S_v"), "D_w")


def elements(group, terms):
    """Terms keyed by canonical values, rekeyed by their DeckElements."""
    return {DeckElement(group, value): c for value, c in terms.items()}


def slow_pairing(x, b):
    """The pairing summed term by term with RingElement.add."""
    geo = x.geometry
    geo.label(b)
    out = RingElement.zero(geo.group, geo.coeffs)
    for (a, u), c in x.terms.items():
        p = geo.pairing(a, b)
        if not p.is_zero():
            scaled = {g: c * d for g, d in elements(geo.group, p.translate(DeckElement(geo.group, u)).terms).items()}
            out = out.add(RingElement(geo.group, geo.coeffs, scaled))
    return out


def _over_integers(geo):
    entries = {key: RingElement(geo.group, INT, elements(geo.group, p.terms)) for key, p in geo.pairings.items()}
    return Geometry(geo.name, geo.group, INT, geo.labels, entries, geo.attaching, geo.disks, geo.aliases)


def deck_elements(group):
    if group.kind == "free":
        letters = st.lists(st.tuples(st.integers(1, group.n), st.integers(-2, 2)), max_size=4)
        return letters.map(lambda ls: DeckElement(group, reduce_letters(ls, group.n)))
    if group.kind == "cyclic":
        return st.integers(0, group.n - 1).map(lambda i: DeckElement(group, i))
    return st.integers(-4, 4).map(lambda i: DeckElement(group, (i,)))


def equiv_classes(geo):
    term = st.tuples(st.sampled_from(sorted(geo.labels)), deck_elements(geo.group), st.integers(-3, 3))

    def build(drawn):
        terms = {}
        for label, deck, c in drawn:
            terms[(label, deck)] = terms.get((label, deck), 0) + c
        return EquivClass(geo, terms)

    return st.lists(term, max_size=8).map(build)


PAIRING_GEOMETRIES = {
    "torus-f2": builtin_geometry("torus_complement"),
    "torus-z": _over_integers(builtin_geometry("torus_complement")),
    "free-f3": builtin_geometry("sphere_torus_link", n=3),
}


@pytest.mark.parametrize("key", sorted(PAIRING_GEOMETRIES))
@given(data=st.data())
def test_pairing_matches_repeated_add(key, data):
    geo = PAIRING_GEOMETRIES[key]
    x = data.draw(equiv_classes(geo))
    b = data.draw(st.sampled_from(sorted(geo.labels)))
    try:
        expected = slow_pairing(x, b)
    except GeometryError:  # a disk paired with a disk
        with pytest.raises(GeometryError):
            equivariant_pairing(x, b)
        return
    assert equivariant_pairing(x, b) == expected


# -- the barbell action on the torus-complement cover -------------------------


def horizontal(geo, k):
    return BarbellSpec("S_h", "S_h", t_elt(geo, k))


def vertical(geo, l):
    return BarbellSpec("S_v", "S_v", t_elt(geo, l))


def five_term_class(geo, k):
    return cls(
        geo, ("S_v", 0, 1), ("S_h", -k - 1, 1), ("S_h", -k, 1), ("S_h", k - 1, 1), ("S_h", k, 1)
    )


def twenty_one_terms(k, l):
    """The displayed expansion: the vertical sphere, four horizontal
    spheres, and four vertical spheres per horizontal one."""
    terms = [("S_v", 0)]
    for j in (-k - 1, -k, k - 1, k):
        terms.append(("S_h", j))
        for shift in (-l, -l + 1, l, l + 1):
            terms.append(("S_v", j + shift))
    return terms


@pytest.mark.parametrize("k", [1, 2, 5])
def test_five_sphere_expansion(k):
    geo = builtin_geometry("torus_complement")
    moved = barbell_action(geo.basis_class("S_v"), horizontal(geo, k))
    assert moved == five_term_class(geo, k)


def test_horizontal_sphere_is_fixed_by_the_horizontal_barbell():
    geo = builtin_geometry("torus_complement")
    x = geo.basis_class("S_h")
    assert barbell_action(x, horizontal(geo, 3)) == x


@pytest.mark.parametrize("k,l", [(1, 1), (2, 3), (5, 5)])
def test_twenty_one_term_expansion(k, l):
    geo = builtin_geometry("torus_complement")
    moved = action_sequence(geo.basis_class("S_v"), [horizontal(geo, k), vertical(geo, l)])
    expected_terms = twenty_one_terms(k, l)
    assert len(expected_terms) == 21
    expected = cls(geo, *[(label, power, 1) for label, power in expected_terms])
    assert moved == expected


def test_action_sequence_empty_is_identity():
    geo = builtin_geometry("torus_complement")
    x = cls(geo, ("S_v", 2, 1), ("S_h", 0, 1))
    assert action_sequence(x, []) == x


def test_vertical_barbell_alone_fixes_the_vertical_sphere():
    geo = builtin_geometry("torus_complement")
    x = geo.basis_class("S_v")
    assert barbell_action(x, vertical(geo, 4)) == x


def test_genus2_iterated_action_over_integers():
    geo = builtin_geometry("genus2_complement")
    for k in (1, 2, 3):
        spec = BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=k)
        moved = barbell_action(geo.basis_class("S_v_1"), spec)
        assert moved == cls(geo, ("S_v_1", 0, 1), ("S_h_2", -1, -k), ("S_h_2", 0, k))
        moved2 = barbell_action(geo.basis_class("S_v_2"), spec)
        assert moved2 == cls(geo, ("S_v_2", 0, 1), ("S_h_1", -1, k), ("S_h_1", 0, -k))


def test_inverse_iterate_undoes_the_action():
    geo = builtin_geometry("genus2_complement")
    spec = BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=2)
    inverse = BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=-2)
    x = cls(geo, ("S_v_1", 0, 1), ("S_v_2", 2, -3), ("S_h_1", 1, 2))
    assert barbell_action(barbell_action(x, spec), inverse) == x


def test_action_correction_is_linear():
    geo = builtin_geometry("torus_complement")
    rng = random.Random(23)
    spec = horizontal(geo, 2)
    for _ in range(100):
        x = cls(geo, *[("S_v", rng.randint(-4, 4), 1) for _ in range(rng.randint(0, 4))],
                *[("S_h", rng.randint(-4, 4), 1) for _ in range(rng.randint(0, 4))])
        y = cls(geo, *[("S_v", rng.randint(-4, 4), 1) for _ in range(rng.randint(0, 3))])
        correction = lambda z: barbell_action(z, spec).sub(z)
        assert correction(x.add(y)) == correction(x).add(correction(y))


def test_class_disjoint_from_cuffs_is_fixed():
    geo = builtin_geometry("torus_complement")
    x = geo.basis_class("D_v")  # the disk misses both horizontal cuffs
    assert barbell_action(x, horizontal(geo, 5)) == x


@pytest.mark.parametrize("k,l", [(1, 1), (2, 3), (4, 2)])
def test_support_degree_bound(k, l):
    geo = builtin_geometry("torus_complement")
    moved = action_sequence(geo.basis_class("S_v"), [horizontal(geo, k), vertical(geo, l)])
    exponents = [value[0] for _, value in moved.terms]
    assert min(exponents) >= -k - l - 1 and max(exponents) <= k + l + 1


def test_alternate_lift_offset_translates_globally():
    # composing the preferred lift with a deck transformation shifts the
    # whole image class by that transformation
    geo = builtin_geometry("torus_complement")
    x = geo.basis_class("S_v")
    plain = barbell_action(x, horizontal(geo, 2))
    shifted = barbell_action(x, BarbellSpec("S_h", "S_h", t_elt(geo, 2), offset=t_elt(geo, 3)))
    assert shifted == plain.translate(t_elt(geo, 3))


def test_offset_lift_inverts_consistently():
    geo = builtin_geometry("genus2_complement")
    spec = BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=1, offset=t_elt(geo, 2))
    undo = BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=-1, offset=t_elt(geo, 2))
    x = cls(geo, ("S_v_1", 0, 1), ("S_h_2", 1, -2))
    assert barbell_action(barbell_action(x, spec), undo) == x


# -- closed-form iterates and their precondition ----------------------------------


def reference_correction(x, spec):
    """C(x) = sum_u [s1 <x, u c1~> (u c) c2~ - s2 <x, u c c2~> u c1~] for
    one step, from the repeated-add pairing."""
    geo = x.geometry
    s1, s2 = spec.signs
    out = EquivClass(geo, {})
    for u, c in elements(geo.group, slow_pairing(x, spec.cuff1).terms).items():
        out = out.add(geo.basis_class(spec.cuff2, u.mul(spec.holonomy), s1 * c))
    for g, c in elements(geo.group, slow_pairing(x, spec.cuff2).terms).items():
        out = out.add(geo.basis_class(spec.cuff1, g.mul(spec.holonomy.inv()), -s2 * c))
    return out


def stepwise_action(x, spec):
    """The iterate applied one step at a time, x -> o (x + C(x)); an
    inverse step undoes the offset and subtracts the Neumann series
    C - C^2 + ... of the correction."""
    out = x
    for _ in range(abs(spec.iterate)):
        if spec.iterate > 0:
            out = out.add(reference_correction(out, spec))
            if spec.offset is not None:
                out = out.translate(spec.offset)
            continue
        if spec.offset is not None:
            out = out.translate(spec.offset.inv())
        term = reference_correction(out, spec).scale(-1)
        for _ in range(1000):
            if not term.terms:
                break
            out = out.add(term)
            term = reference_correction(term, spec).scale(-1)
        else:
            raise AssertionError("the correction is not nilpotent")
    return out


ITERATE_GEOMETRIES = {
    "torus": builtin_geometry("torus_complement"),
    "genus2": builtin_geometry("genus2_complement"),
    "cyclic-5": builtin_geometry("cyclic_cover", m=5),
    "circles": builtin_geometry("circles_complement"),
    "free-f3": builtin_geometry("sphere_torus_link", n=3),
}


def disjoint_cuff_pairs(geo):
    spheres = sorted(name for name, kind in geo.labels.items() if kind == SPHERE)
    zero = lambda a, b: geo.pairing(a, b).is_zero()
    return [(a, b) for a in spheres for b in spheres if zero(a, a) and zero(a, b) and zero(b, b)]


@pytest.mark.parametrize("key", sorted(ITERATE_GEOMETRIES))
@given(data=st.data())
def test_closed_form_iterate_matches_the_stepwise_action(key, data):
    geo = ITERATE_GEOMETRIES[key]
    cuff1, cuff2 = data.draw(st.sampled_from(disjoint_cuff_pairs(geo)))
    sign = st.sampled_from((1, -1))
    spec = BarbellSpec(
        cuff1,
        cuff2,
        data.draw(deck_elements(geo.group)),
        signs=(data.draw(sign), data.draw(sign)),
        iterate=data.draw(st.integers(-12, 12).filter(bool)),
        offset=data.draw(st.none() | deck_elements(geo.group)),
    )
    x = data.draw(equiv_classes(geo))
    assert barbell_action(x, spec) == stepwise_action(x, spec)


@pytest.mark.parametrize("cuff1,cuff2", [("S_h", "S_v"), ("S_v", "S_h")])
def test_crossing_cuffs_are_refused(cuff1, cuff2):
    geo = builtin_geometry("torus_complement")
    spec = BarbellSpec(cuff1, cuff2, geo.identity())
    message = rf"barbell cuffs '{cuff1}' and '{cuff2}' are not disjoint: P\['S_h', 'S_v'\] = 1 \+ t is nonzero"
    for x in (geo.basis_class("S_v"), EquivClass(geo, {})):
        with pytest.raises(GeometryError, match=message):
            barbell_action(x, spec)


def test_a_self_intersecting_cuff_is_refused():
    base = builtin_geometry("genus2_complement")
    geo = with_generator(base, "T", SPHERE, {"T": tpoly(base, {1: 2})})
    with pytest.raises(GeometryError, match=r"cuffs 'S_h_1' and 'T' are not disjoint: P\['T', 'T'\] = 2t is nonzero"):
        barbell_action(geo.basis_class("S_v_1"), BarbellSpec("S_h_1", "T", geo.identity()))
    # stored zero entries are no intersection
    geo = with_generator(base, "Z", SPHERE, {"Z": tpoly(base, {}), "S_h_1": tpoly(base, {})})
    moved = barbell_action(geo.basis_class("S_v_1"), BarbellSpec("S_h_1", "Z", geo.identity(), iterate=-2))
    assert moved == cls(geo, ("S_v_1", 0, 1), ("Z", 0, -2), ("Z", -1, 2))


def test_cuff_kind_is_checked_before_disjointness():
    geo = builtin_geometry("torus_complement")
    with pytest.raises(GeometryError, match="cuff 'D_h' must be a sphere label"):
        barbell_action(geo.basis_class("S_v"), BarbellSpec("D_h", "S_h", geo.identity()))


# -- intersection polynomials ---------------------------------------------------


def test_intersection_polynomial_of_the_acted_sphere():
    geo = builtin_geometry("torus_complement")
    moved = action_sequence(geo.basis_class("S_v"), [horizontal(geo, 1), vertical(geo, 1)])
    f = equivariant_pairing(moved, "D_v")
    assert f == tpoly(geo, {-3: 1, -1: 1, 0: 1, 1: 1, 3: 1})


def test_intersection_polynomial_of_the_plain_sphere():
    geo = builtin_geometry("torus_complement")
    assert equivariant_pairing(geo.basis_class("S_v"), "D_v") == tpoly(geo, {0: 1})


def test_intersection_polynomial_genus2_column():
    # the column for the first sphere: zero against its own disk, and
    # the lower-left matrix entry against the other
    geo = builtin_geometry("genus2_complement")
    k = 2
    moved = barbell_action(
        geo.basis_class("S_v_1"), BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=k)
    )
    column = [equivariant_pairing(moved, d) for d in ("D_h_1", "D_h_2")]
    assert column == [tpoly(geo, {}), tpoly(geo, {-1: k, 0: -k})]


# -- full bilinear pairing -------------------------------------------------------


def test_branched_cover_pairing_witnesses():
    for k in (1, 2, 3):
        geo = builtin_geometry("branched_cover", m=205)
        x = cls(geo, ("S", k, 1), ("S_prime", -k, 1))
        rho_k_disk = geo.basis_class("D", t_elt(geo, k))
        disk = geo.basis_class("D")
        assert pair_classes(x, rho_k_disk) == 1
        assert pair_classes(x, disk) == 0
        assert pair_classes(geo.basis_class("mu"), disk) == 1


def test_sphere_sphere_pairing_vanishes():
    geo = builtin_geometry("branched_cover", m=11)
    assert pair_classes(cls(geo, ("S", 2, 1)), cls(geo, ("S", 5, 1))) == 0


def norm_row_pairing(x, y, m):
    """<x, y> over the branched cover's table with the meridian row
    materialized as the norm element sum_i t^i, term by term."""
    rows = {("D", "S"): {0: 1}, ("D", "S_prime"): {0: 1}, ("mu", "D"): {i: 1 for i in range(m)}}
    total = 0
    for (a, u), c in x.terms.items():
        for (b, v), d in y.terms.items():
            g = (v - u) % m
            total += c * d * (rows.get((a, b), {}).get(g, 0) + rows.get((b, a), {}).get(-g % m, 0))
    return total % 2


@given(data=st.data())
def test_meridian_pairing_matches_the_materialized_norm_row(data):
    m = data.draw(st.integers(3, 200))
    geo = builtin_geometry("branched_cover", m=m)

    def terms(labels):
        term = st.tuples(st.sampled_from(labels), st.integers(0, m - 1), st.integers(-2, 2))
        return data.draw(st.lists(term, max_size=6))

    x_terms = terms(["S", "S_prime", "D", "mu"])
    # disk-disk pairings are undefined
    y_terms = terms(["S", "S_prime", "mu"] + ([] if any(t[0] == "D" for t in x_terms) else ["D"]))
    x, y = cls(geo, *x_terms), cls(geo, *y_terms)
    assert pair_classes(x, y) == norm_row_pairing(x, y, m) == pair_classes(y, x)


def test_meridian_row_is_never_expanded():
    geo = builtin_geometry("branched_cover", m=7)
    mu = geo.basis_class("mu")
    assert pair_classes(mu, geo.basis_class("D", t_elt(geo, 3))) == 1
    assert equivariant_pairing(mu, "S").is_zero()  # an absent row is zero
    with pytest.raises(GeometryError, match=r"\('mu', 'D'\) is a meridian row"):
        equivariant_pairing(mu, "D")
    with pytest.raises(GeometryError, match=r"\('D', 'mu'\) is a meridian row"):
        equivariant_pairing(geo.basis_class("D"), "mu")


def test_meridian_row_is_stored_as_its_augmentation():
    group = DeckGroup(CYCLIC, 5)
    labels = {"mu": MERIDIAN, "D": DISK}
    row = RingElement(group, F2, {DeckElement(group, 0): 1, DeckElement(group, 1): 1})
    with pytest.raises(GeometryError, match=r"meridian row \('mu', 'D'\) must be stored as its augmentation"):
        Geometry("z", group, F2, labels, {("mu", "D"): row})


def test_meridian_needs_a_cyclic_deck_group():
    labels = {"mu": MERIDIAN}
    with pytest.raises(GeometryError, match="cyclic deck group"):
        Geometry("z", Z1, F2, labels, {})


def _one(group):
    return RingElement(group, F2, {group.identity(): 1})


# every kind of value the constructors refuse: (constructor, arguments,
# error, message)
REFUSED_VALUES = [
    (BarbellSpec, ("S", "S", Z1.identity(), (1, 2)), GeometryError, "cuff signs must be"),
    (BarbellSpec, ("S", "S", Z1.identity(), (0, 1)), GeometryError, "cuff signs must be"),
    (BarbellSpec, ("S", "S", Z1.identity(), (1, 1), 0), GeometryError, "iterate must be a nonzero integer"),
    (GluingMatrix, (1, 0, 0, -1), HypothesisError, "determinant"),
    (GluingMatrix, (2, 1, 1, 2), HypothesisError, "determinant"),
    (Geometry, ("z", Z1, F2, {"T": "torus"}, {}), GeometryError, "label 'T' has unknown generator kind"),
    (Geometry, ("z", Z1, F2, {"S": SPHERE}, {("S", "X"): _one(Z1)}), GeometryError, "undeclared label"),
    (Geometry, ("z", Z1, F2, {"D": DISK, "E": DISK}, {("D", "E"): _one(Z1)}), GeometryError, "disk-disk"),
    (Geometry, ("z", DeckGroup(CYCLIC, 3), F2, {"mu": MERIDIAN, "D": DISK},
                {("mu", "D"): RingElement(DeckGroup(CYCLIC, 3), F2, {DeckElement(DeckGroup(CYCLIC, 3), 1): 1})}),
     GeometryError, "stored as its augmentation"),
    (Geometry, ("z", Z1, F2, {"S": SPHERE}, {}, ["S", "T"]), GeometryError, "role label 'T' is not declared"),
    (Geometry, ("z", Z1, F2, {"D": DISK}, {}, [], ["E"]), GeometryError, "role label 'E' is not declared"),
    (Geometry, ("z", Z1, F2, {"mu": MERIDIAN}, {}), GeometryError, "meridians need a cyclic deck group"),
    # each of these raised an IndexError or an AttributeError later, or was accepted
    (BarbellSpec, ("S", "S", Z1.identity(), (1,)), GeometryError, "cuff signs must be"),
    (BarbellSpec, ("S", "S", Z1.identity(), (True, 1)), GeometryError, "cuff signs must be"),
    (BarbellSpec, ("S", "S", Z1.identity(), 1), GeometryError, "cuff signs must be"),
    (BarbellSpec, ("S", "S", Z1.identity(), (1, 1), 1.5), GeometryError, "iterate must be a nonzero integer"),
    (BarbellSpec, ("S", "S", Z1.identity(), (1, 1), True), GeometryError, "iterate must be a nonzero integer"),
    (BarbellSpec, ("S", "S", None), GeometryError, "holonomy must be a deck group element"),
    (BarbellSpec, ("S", "S", (1,)), GeometryError, "holonomy must be a deck group element"),
    (BarbellSpec, ("S", "S", Z1.identity(), (1, 1), 1, 3), GeometryError, "offset one or None, got .* and 3$"),
    # a role of another kind, or a label listed twice, is refused where the geometry is built
    (Geometry, ("z", DeckGroup(CYCLIC, 3), F2, {"mu": MERIDIAN, "D": DISK}, {}, ["mu"], ["D"]), GeometryError,
     "^attaching label 'mu' is a meridian, not a sphere$"),
    (Geometry, ("z", Z1, F2, {"S": SPHERE}, {}, [], ["S"]), GeometryError, "^belt disk label 'S' is a sphere, not a disk$"),
    (Geometry, ("z", Z1, F2, {"S": SPHERE, "D_v": DISK}, {}, ["S"], ["D_v", "D_v"]), GeometryError,
     "^belt disk label 'D_v' is listed twice$"),
    # a pairing row over another group or ring, or no ring element at all
    (Geometry, ("z", DeckGroup(CYCLIC, 5), F2, {"S": SPHERE, "D": DISK},
                {("D", "S"): RingElement(DeckGroup(CYCLIC, 7), F2, {DeckElement(DeckGroup(CYCLIC, 7), 6): 1})}),
     GeometryError, r"^pairing row \('D', 'S'\) must be an element of F2\[Z/5\], got one of F2\[Z/7\]$"),
    (Geometry, ("z", Z1, INT, {"S": SPHERE, "D": DISK}, {("D", "S"): _one(Z1)}), GeometryError,
     r"^pairing row \('D', 'S'\) must be an element of Z\[Z\^1\], got one of F2\[Z\^1\]$"),
    (Geometry, ("z", Z1, F2, {"S": SPHERE, "D": DISK}, {("D", "S"): 1}), GeometryError,
     r"^pairing row \('D', 'S'\) must be an element of F2\[Z\^1\], got int$"),
]


@pytest.mark.parametrize("cls, args, error, message", REFUSED_VALUES)
def test_value_class_constructors_refuse_invalid_values(cls, args, error, message):
    with pytest.raises(error, match=message):
        cls(*args)


def test_geometry_lists_default_to_fresh_empty_ones():
    # the roles default to empty tuples, the aliases to an empty read-only mapping of each geometry's own
    first, second = (Geometry("z", Z1, F2, {"S": SPHERE}, {}) for _ in range(2))
    assert first.attaching == first.disks == () and first.aliases == {}
    assert first.aliases is not second.aliases


def test_no_edit_of_a_geometry_or_of_what_built_it_reaches_the_geometry():
    # a Geometry is immutable, as a DeckGroup is: it copies the caller's values once, before any check
    z = DeckGroup(CYCLIC, 1)
    labels, pairings = {"S": SPHERE, "T": SPHERE, "D": DISK}, {("D", "T"): _one(z)}
    attaching, disks, aliases = ["S"], ["D"], {"T": "S"}
    geo = Geometry("z", z, F2, labels, pairings, attaching, disks, aliases)
    fields = (dict(geo.labels), dict(geo.pairings), geo.attaching, geo.disks, dict(geo.aliases))

    def agrees():
        assert (dict(geo.labels), dict(geo.pairings), geo.attaching, geo.disks, dict(geo.aliases)) == fields
        assert geo.label("S") == SPHERE
        # pairing reads what pairings shows: the stored row, its mirror reversed, or zero
        for a, b in (("D", "T"), ("T", "D"), ("D", "S"), ("S", "D"), ("S", "T"), ("S", "S")):
            row = stored_row(geo, a, b)
            assert geo.pairing(a, b) == (RingElement.zero(z, F2) if row is None else row), (a, b)

    # the caller's values, edited afterwards, reach neither pairings, pairing nor label
    labels["S"], labels["E"] = "torus", DISK
    pairings[("D", "S")] = 1
    del pairings[("D", "T")]
    attaching.append("T")
    disks.clear()
    aliases["S"] = "T"
    agrees()
    # the returned mappings refuse every edit, and the roles are tuples
    for mapping, key, value in ((geo.labels, "S", DISK), (geo.pairings, ("D", "S"), _one(z)), (geo.aliases, "S", "T")):
        with pytest.raises(TypeError):
            mapping[key] = value
        with pytest.raises(TypeError):
            del mapping[next(iter(mapping))]
        assert not any(hasattr(mapping, name) for name in ("clear", "pop", "popitem", "update", "setdefault"))
    assert type(geo.attaching) is type(geo.disks) is tuple
    # no field can be set or deleted, and none added
    for field in (*Geometry.__slots__, "extra"):
        with pytest.raises(AttributeError, match="Geometry values are immutable"):
            setattr(geo, field, None)
        with pytest.raises(AttributeError, match="Geometry values are immutable"):
            delattr(geo, field)
    agrees()


def test_disk_disk_pairing_is_undefined():
    geo = builtin_geometry("torus_complement")
    with pytest.raises(GeometryError):
        pair_classes(geo.basis_class("D_v"), geo.basis_class("D_h"))


# -- the two-way pairing table ------------------------------------------------------
#
# Geometry derives the reverse of every stored row once, at construction;
# each row it reads must be the stored one or its mirror reversed on demand.

BUILDER_PARAMS = {"sphere_torus_link": {"n": 4}, "genus_g_complement": {"g": 3},
                  "cyclic_cover": {"m": 7}, "branched_cover": {"m": 7}}


def extended_geometry():
    geo = builtin_geometry("sphere_torus_link", n=3)
    x1, x2 = geo.group.generator(1), geo.group.generator(2)
    rows = {
        "D_v": RingElement(geo.group, F2, {x1: 1, x1.mul(x2): 1, x2.pow(-2): 1}),
        "S_h": RingElement(geo.group, F2, {geo.identity(): 1, x2.mul(x1.inv()): 1}),
    }
    return with_generator(geo, "X", SPHERE, rows)


TABLE_GEOMETRIES = {
    **{name: partial(builtin_geometry, name, **BUILDER_PARAMS.get(name, {})) for name in GEOMETRY_BUILDERS},
    "extended": extended_geometry,
}


@pytest.mark.parametrize("key", sorted(TABLE_GEOMETRIES))
def test_every_pairing_row_is_the_stored_row_or_its_reverse(key):
    geo = TABLE_GEOMETRIES[key]()
    deck = geo.group.generator(1)
    for a in geo.labels:
        for b in geo.labels:
            if geo.labels[a] == DISK and geo.labels[b] == DISK:
                with pytest.raises(GeometryError, match="pairing of two disks"):
                    geo.pairing(a, b)
                with pytest.raises(GeometryError, match="pairing of two disks"):
                    geo.coefficient(a, b, deck.value)
                continue
            row = stored_row(geo, a, b)
            if MERIDIAN in (geo.labels[a], geo.labels[b]) and row is not None and row.terms:
                with pytest.raises(GeometryError, match="is a meridian row"):
                    geo.pairing(a, b)
                # deck-invariant: read at the identity wherever it is asked
                assert geo.coefficient(a, b, deck.value) == row.coefficient(geo.identity())
                continue
            expected = row if row is not None else RingElement.zero(geo.group, geo.coeffs)
            assert geo.pairing(a, b) == expected
            assert geo.coefficient(a, b, deck.value) == expected.coefficient(deck)


def test_the_extended_rows_are_read_in_both_directions():
    geo = extended_geometry()
    forward = geo.pairing("X", "D_v")
    assert len(forward.terms) == 3
    assert geo.pairing("D_v", "X") == forward.reverse() != forward
    assert geo.pairing("S_h", "X") == geo.pairing("X", "S_h").reverse()


def test_a_class_term_on_an_undeclared_label_or_a_foreign_group_is_refused():
    geo = builtin_geometry("torus_complement")
    with pytest.raises(GeometryError, match="unknown label 'S_w' in geometry 'torus_complement'"):
        EquivClass(geo, {("S_v", geo.identity()): 1, ("S_w", geo.identity()): 1})
    for foreign in (DeckElement(DeckGroup(CYCLIC, 3), 1), (2,), 2):
        with pytest.raises(GeometryError, match="deck element from the wrong group"):
            EquivClass(geo, {("S_v", foreign): 1})
    # a group built again is the one live group of its kind and size
    again = DeckElement(DeckGroup(FREE_ABELIAN, 1), (2,))
    assert again.group is geo.group
    assert EquivClass(geo, {("S_v", again): 1}).terms == {("S_v", again.value): 1}


def one_sphere(group, coeffs=F2, name="custom"):
    """An inline geometry: one sphere S over group, no pairings."""
    return Geometry(name, group, coeffs, {"S": SPHERE}, {})


def test_classes_over_another_group_or_field_are_unequal_and_never_combined():
    pairs = [
        (one_sphere(DeckGroup(CYCLIC, 5)), one_sphere(DeckGroup(CYCLIC, 7))),
        (one_sphere(Z1, F2), one_sphere(Z1, INT)),
        (one_sphere(Z1), one_sphere(Z1, name="other")),
    ]
    for a, b in pairs:
        # equal terms {(S, identity): 1}, and the empty class, on both sides
        for x, y in ((a.basis_class("S"), b.basis_class("S")), (EquivClass(a, {}), EquivClass(b, {}))):
            assert x.terms == y.terms and x != y and y != x
            for operation in (EquivClass.add, EquivClass.sub, pair_classes):
                with pytest.raises(GeometryError, match="classes live in different geometries"):
                    operation(x, y)
    # an equal geometry built separately is the same geometry
    x, y = one_sphere(DeckGroup(CYCLIC, 5)).basis_class("S"), one_sphere(DeckGroup(CYCLIC, 5)).basis_class("S")
    assert x == y and x.add(y).terms == {}


def test_classes_over_other_labels_or_pairing_rows_are_unequal_and_never_combined():
    z5 = DeckGroup(CYCLIC, 5)
    row = lambda *powers: RingElement(z5, F2, {DeckElement(z5, p): 1 for p in powers})
    pairs = [
        # one custom geometry declares S, the other T
        (Geometry("custom", z5, F2, {"S": SPHERE}, {}), Geometry("custom", z5, F2, {"T": SPHERE}, {})),
        # the same labels, another pairing row
        (Geometry("custom", z5, F2, {"S": SPHERE, "D": DISK}, {("D", "S"): row(0)}),
         Geometry("custom", z5, F2, {"S": SPHERE, "D": DISK}, {("D", "S"): row(0, 1)})),
    ]
    for a, b in pairs:
        x, y = a.basis_class(next(iter(a.labels))), b.basis_class(next(iter(b.labels)))
        assert x != y and y != x
        for operation in (EquivClass.add, EquivClass.sub, pair_classes):
            with pytest.raises(GeometryError, match="^classes live in different geometries$"):
                operation(x, y)
    # a table stored in the other direction is the same table
    forward = Geometry("custom", z5, F2, {"S": SPHERE, "D": DISK}, {("D", "S"): row(1)})
    backward = Geometry("custom", z5, F2, {"S": SPHERE, "D": DISK}, {("S", "D"): row(4)})
    assert forward.basis_class("S") == backward.basis_class("S")
    assert pair_classes(forward.basis_class("D", DeckElement(z5, 4)), backward.basis_class("S")) == 1


def test_equal_classes_can_always_be_added():
    geometries = [
        one_sphere(DeckGroup(CYCLIC, 5)),
        one_sphere(DeckGroup(CYCLIC, 5)),
        one_sphere(DeckGroup(CYCLIC, 7)),
        one_sphere(Z1, F2),
        one_sphere(Z1, INT),
        one_sphere(Z1, name="other"),
    ]
    classes = [
        EquivClass(geo, terms)
        for geo in geometries
        for terms in ({}, {("S", geo.identity()): 1}, {("S", geo.group.generator(1, 1)): 1})
    ]
    for x, y in itertools.product(classes, repeat=2):
        if x == y:
            assert x.add(y) == x.scale(2)


# -- summand membership -----------------------------------------------------------


def identity_summand(geo, names):
    return {(name, geo.identity()) for name in names}


def test_membership_fails_off_the_chosen_summand():
    geo = builtin_geometry("cyclic_cover", m=205)
    x = cls(geo, ("D", 0, 1), ("S", 3, 1), ("S_prime", -3, -1))
    assert not summand_membership(x, identity_summand(geo, ["D", "S", "S_prime"]))


def test_membership_of_the_disk_itself():
    geo = builtin_geometry("cyclic_cover", m=205)
    assert summand_membership(geo.basis_class("D"), identity_summand(geo, ["D"]))


def test_membership_refuses_an_allowed_pair_foreign_to_the_geometry():
    geo = builtin_geometry("cyclic_cover", m=205)
    d = geo.basis_class("D")
    with pytest.raises(GeometryError, match="unknown label 'S_w' in geometry 'cyclic_cover'"):
        summand_membership(d, {("D", geo.identity()), ("S_w", geo.identity())})
    with pytest.raises(GeometryError, match="deck element from the wrong group"):
        summand_membership(d, {("D", geo.identity()), ("S", DeckElement(DeckGroup(CYCLIC, 11), 1))})


def test_membership_respects_the_parallel_copy_alias():
    # S and S_prime are the same homology class: a difference supported
    # on them at equal deck elements is congruent to zero
    geo = builtin_geometry("cyclic_cover", m=205)
    x = cls(geo, ("S", 4, 1), ("S_prime", 4, -1))
    assert summand_membership(x, set())


def test_membership_modulo_kernel_generator():
    geo = builtin_geometry("branched_cover", m=205)
    mu = geo.basis_class("mu")
    assert summand_membership(mu, set(), probes=[geo.basis_class("D")])


def test_membership_refuted_by_witnesses():
    geo = builtin_geometry("branched_cover", m=205)
    k = 1
    x = cls(geo, ("S", k, 1), ("S_prime", -k, 1))
    probes = [geo.basis_class("D", t_elt(geo, k)), geo.basis_class("D")]
    assert not summand_membership(x, set(), probes=probes)


def test_membership_in_nonfree_geometry_requires_probes():
    geo = builtin_geometry("branched_cover", m=205)
    x = cls(geo, ("S", 1, 1), ("S_prime", -1, 1))
    with pytest.raises(GeometryError):
        summand_membership(x, set())


@pytest.mark.parametrize("extra", ["kernel_gens", "probes"])
def test_membership_over_z_takes_no_kernel_generators_or_probes(extra):
    # over Z only the formal test is decided: no argument needs an integer
    # solve; a meridian label is a kernel generator
    geo = builtin_geometry("cyclic_cover", m=205)
    probes = [geo.basis_class("S", t_elt(geo, 3))]
    if extra == "kernel_gens":
        geo, probes = with_generator(geo, "mu", MERIDIAN, {}), []
    x = cls(geo, ("D", 0, 1), ("S", 3, 1))
    with pytest.raises(GeometryError, match="over Z"):
        summand_membership(x, identity_summand(geo, ["D"]), probes=probes)


def test_an_unknown_generator_kind_is_refused_by_name():
    with pytest.raises(GeometryError, match="label 'T' has unknown generator kind 'torus'"):
        Geometry("z", Z1, F2, {"S": SPHERE, "T": "torus"}, {})


def with_second_meridian(geo):
    """The branched cover with a second meridian nu, pairing 1 with D."""
    return with_generator(geo, "nu", MERIDIAN, {"D": RingElement.one(geo.group, geo.coeffs)})


MEMBERSHIP_GEOMETRIES = {
    "cyclic_cover": lambda m: builtin_geometry("cyclic_cover", m=m),
    "circles_complement": lambda m: builtin_geometry("circles_complement"),
    "branched_cover": lambda m: builtin_geometry("branched_cover", m=m),
    "two_meridians": lambda m: with_second_meridian(builtin_geometry("branched_cover", m=m)),
}


@pytest.mark.parametrize("key", sorted(MEMBERSHIP_GEOMETRIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_closed_form_membership_matches_the_linear_solve(key, data):
    geo = MEMBERSHIP_GEOMETRIES[key](data.draw(st.integers(1, 50)))
    # deck elements near the identity, so that supports meet
    pair = st.tuples(st.sampled_from(sorted(geo.labels)), st.integers(0, 3).map(lambda i: t_elt(geo, i)))

    def classes(size):
        terms = st.dictionaries(pair, st.sampled_from((-1, 1, 2)), min_size=1, max_size=size)
        return terms.map(partial(EquivClass, geo))

    x = data.draw(classes(5))
    allowed = data.draw(st.just(set()) | st.sets(pair, max_size=3))
    probes = data.draw(st.lists(classes(3), max_size=3))
    try:
        expected = solved_membership(x, allowed, probes)
    except GeometryError:
        with pytest.raises(GeometryError):
            summand_membership(x, allowed, probes)
        return
    try:
        got = summand_membership(x, allowed, probes)
    except GeometryError as exc:
        # the configurations the closed form leaves out: pairing witnesses
        # with allowed pairs, or modulo several meridians
        assert "undecided" in str(exc)
        assert expected is False and probes and (allowed or len(geo.meridians()) > 1)
        return
    assert got == expected


def test_mod2_solver_against_enumeration():
    # solve_mod2 is the linear solve behind the membership oracle
    rng = random.Random(13)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(0, 1) for _ in range(rows)]
        got = solve_mod2(a, b)
        solvable = any(
            all(sum(a[i][j] * x[j] for j in range(cols)) % 2 == b[i] for i in range(rows))
            for x in itertools.product((0, 1), repeat=cols)
        )
        assert (got is not None) == solvable
        if got is not None:
            assert all(sum(a[i][j] * got[j] for j in range(cols)) % 2 == b[i] for i in range(rows))


def refutable_class(geo, k=1):
    """S at t^k plus S_prime at t^-k, refuted modulo mu by the probes
    (rho^k D, D) with witnesses (1, 0)."""
    x = cls(geo, ("S", k, 1), ("S_prime", -k, 1))
    return x, [geo.basis_class("D", t_elt(geo, k)), geo.basis_class("D")]


def test_membership_witnesses_with_allowed_pairs_are_undecided():
    geo = builtin_geometry("branched_cover", m=205)
    x, probes = refutable_class(geo)
    allowed = {("S", t_elt(geo, 5))}
    assert solved_membership(x, allowed, probes) is False
    with pytest.raises(GeometryError, match="undecided"):
        summand_membership(x, allowed, probes)


def test_membership_reads_the_witnesses_its_caller_holds(monkeypatch):
    geo = builtin_geometry("branched_cover", m=205)
    x, probes = refutable_class(geo)
    held = [pair_classes(x, z) for z in probes]
    paired, real = [], equivariant.pair_classes
    monkeypatch.setattr(equivariant, "pair_classes", lambda a, b: paired.append(a) or real(a, b))
    assert summand_membership(x, set(), probes) is False and len(paired) == 2 * len(probes)
    del paired[:]
    # only the meridian is paired with the probes; x's pairings are the ones given
    assert summand_membership(x, set(), probes, witnesses=held) is False and len(paired) == len(probes)
    with pytest.raises(GeometryError, match="undecided"):
        summand_membership(x, set(), probes, witnesses=[0, 0])
    with pytest.raises(GeometryError, match="^1 witnesses for 2 probes: give x's pairing with each probe$"):
        summand_membership(x, set(), probes, witnesses=held[:1])
    # every refusal before the witnesses are read stays
    with pytest.raises(GeometryError, match="needs pairing witnesses"):
        summand_membership(x, set(), witnesses=held)
    with pytest.raises(GeometryError, match="undecided"):
        summand_membership(x, {("S", t_elt(geo, 5))}, probes, witnesses=held)


def test_membership_witnesses_modulo_two_meridians_are_undecided():
    geo = with_second_meridian(builtin_geometry("branched_cover", m=205))
    x, probes = refutable_class(geo)
    assert solved_membership(x, set(), probes) is False
    with pytest.raises(GeometryError, match="undecided"):
        summand_membership(x, set(), probes)
    # the formal answer still holds modulo both meridians
    assert summand_membership(geo.basis_class("mu").add(geo.basis_class("nu")), set())


# -- brute-force per-lift oracle ----------------------------------------------------


def random_cyclic_geometry(rng, m, coeffs):
    """A finite cyclic cover with barbell cuff labels A, B, bystander
    spheres C1, C2, and a probe disk; cuff-vs-cuff pairings vanish, as
    they do for genuinely disjoint embedded cuffs."""
    group = DeckGroup(CYCLIC, m)
    labels = {**dict.fromkeys(("A", "B", "C1", "C2"), SPHERE), "P": DISK}

    def random_poly():
        return RingElement(
            group,
            coeffs,
            {
                DeckElement(group, i): rng.choice([-1, 1] if coeffs == INT else [1])
                for i in rng.sample(range(m), rng.randint(0, min(3, m)))
            },
        )

    entries = {}
    for sphere in ("C1", "C2"):
        for cuff in ("A", "B"):
            entries[(sphere, cuff)] = random_poly()
        entries[("P", sphere)] = random_poly()
    return Geometry(
        name="random_cyclic",
        group=group,
        coeffs=coeffs,
        labels=labels,
        pairings=entries,
        disks=["P"],
    )


def per_lift_action(x, spec, order=None):
    """Oracle: apply the single-barbell homology action once per lift,
    sequentially, using the full bilinear pairing."""
    geo = x.geometry
    m = geo.group.n
    s1, s2 = spec.signs
    out = x
    for u in order if order is not None else range(m):
        cuff1 = geo.basis_class(spec.cuff1, t_elt(geo, u))
        cuff2 = geo.basis_class(spec.cuff2, t_elt(geo, u + spec.holonomy.value))
        a = pair_classes(out, cuff1)
        b = pair_classes(out, cuff2)
        out = out.add(cuff2.scale(s1 * a)).add(cuff1.scale(-s2 * b))
    return out


def test_equivariant_action_matches_per_lift_oracle():
    rng = random.Random(123)
    checked = 0
    while checked < 200:
        m = rng.randint(2, 12)
        coeffs = rng.choice([F2, INT])
        geo = random_cyclic_geometry(rng, m, coeffs)
        spec = BarbellSpec(
            "A",
            "B",
            DeckElement(geo.group, rng.randrange(m)),
            signs=(rng.choice([1, -1]), rng.choice([1, -1])) if coeffs == INT else (1, 1),
        )
        x = EquivClass(
            geo,
            {
                (rng.choice(["A", "B", "C1", "C2"]), DeckElement(geo.group, rng.randrange(m))): rng.choice([-2, -1, 1, 2])
                for _ in range(rng.randint(0, 5))
            },
        )
        fast = barbell_action(x, spec)
        slow = per_lift_action(x, spec)
        assert fast == slow
        # order of lifts is immaterial
        shuffled = list(range(m))
        rng.shuffle(shuffled)
        assert per_lift_action(x, spec, order=shuffled) == slow
        checked += 1


# -- naturality under cyclic covering maps ------------------------------------------


def random_free_geometries(n, coeffs):
    """F_n geometries in the shape of random_cyclic_geometry: cuffs A, B
    that pair to zero, bystander spheres C1, C2, and a probe disk P."""
    group = free_group(n)
    labels = {**dict.fromkeys(("A", "B", "C1", "C2"), SPHERE), "P": DISK}
    coeff = st.sampled_from([-2, -1, 1, 2] if coeffs == INT else [1])
    row = st.dictionaries(deck_elements(group), coeff, max_size=3).map(lambda terms: RingElement(group, coeffs, terms))
    keys = [(c, cuff) for c in ("C1", "C2") for cuff in ("A", "B")] + [("P", a) for a in ("A", "B", "C1", "C2")]
    return st.tuples(*[row] * len(keys)).map(
        lambda rows: Geometry(
            name="random_free",
            group=group,
            coeffs=coeffs,
            labels=labels,
            pairings=dict(zip(keys, rows)),
            disks=["P"],
        )
    )


def project_geometry(geo, project, target):
    """The geometry of the cover that the covering map project: G -> target
    induces: every pairing row pushed through it."""
    entries = {key: apply_hom(p, target, project) for key, p in geo.pairings.items()}
    return Geometry(geo.name, target, geo.coeffs, geo.labels, entries, geo.attaching, geo.disks, geo.aliases)


def project_class(x, project, pushed):
    terms = {}
    for (label, u), c in x.terms.items():
        key = (label, project(DeckElement(x.geometry.group, u)))
        terms[key] = terms.get(key, 0) + c
    return EquivClass(pushed, terms)


@pytest.mark.parametrize("coeffs", [F2, INT])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_action_and_pairing_are_natural_under_cyclic_covering_maps(coeffs, data):
    # acting (or pairing) upstairs and then pushing through F_n -> Z/m
    # equals pushing the table, class and barbell first and acting there
    n = data.draw(st.integers(2, 4))
    if data.draw(st.booleans()):
        geo = builtin_geometry("sphere_torus_link", n=n)
        geo = geo if coeffs == F2 else _over_integers(geo)
    else:
        geo = data.draw(random_free_geometries(n, coeffs))
    m = data.draw(st.integers(1, 9))
    weights = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    project = partial(cyclic_project, weights=weights, m=m)
    pushed = project_geometry(geo, project, DeckGroup(CYCLIC, m))

    cuff1, cuff2 = data.draw(st.sampled_from(disjoint_cuff_pairs(geo)))
    sign = st.sampled_from((1, -1))
    spec = BarbellSpec(
        cuff1,
        cuff2,
        data.draw(deck_elements(geo.group)),
        signs=(data.draw(sign), data.draw(sign)),
        iterate=data.draw(st.integers(-12, 12).filter(bool)),
        offset=data.draw(st.none() | deck_elements(geo.group)),
    )
    pushed_spec = BarbellSpec(
        spec.cuff1,
        spec.cuff2,
        project(spec.holonomy),
        signs=spec.signs,
        iterate=spec.iterate,
        offset=None if spec.offset is None else project(spec.offset),
    )
    x = data.draw(equiv_classes(geo))
    down = project_class(x, project, pushed)
    assert project_class(barbell_action(x, spec), project, pushed) == barbell_action(down, pushed_spec)
    for b in sorted(geo.labels):
        try:
            upstairs = equivariant_pairing(x, b)
        except GeometryError:  # a disk paired with a disk
            continue
        assert apply_hom(upstairs, pushed.group, project) == equivariant_pairing(down, b)


# -- classes over free groups, written out --------------------------------------


@pytest.mark.parametrize("coeffs", [F2, INT])
@pytest.mark.parametrize("rank", FREE_RANKS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_free_group_classes_render_as_their_pairs_sorted(rank, coeffs, data):
    # a class's words are sorted and rendered together, or one by one when
    # any has a run; either way by label, then as pairs
    group = free_group(rank)
    geo = Geometry("custom", group, coeffs, {"S": SPHERE, "T": SPHERE}, {})
    drawn = data.draw(st.lists(st.tuples(st.sampled_from("ST"), free_words(rank), NONZERO_COEFFICIENTS), max_size=8))
    terms = {}
    for label, letters, c in drawn:
        key = (label, DeckElement(group, reduce_letters(letters, rank)))
        terms[key] = terms.get(key, 0) + c
    x = EquivClass(geo, terms)
    term_list, rendered = class_forms([((label, reduce_pairs(letters)), c) for label, letters, c in drawn], coeffs)
    assert equivariant.class_forms(x) == (term_list, rendered) and equivariant.class_term_list(x) == term_list
    assert [[label, format_element(d)] for label, d in x.support()] == [term[:2] for term in term_list]


def test_a_free_group_class_of_at_most_one_letter_renders_word_by_word():
    group = free_group(64)
    geo = Geometry("custom", group, INT, {"S": SPHERE, "T": SPHERE}, {})
    for terms, rendered in [
        ({("S", group.identity()): -1}, "-S"),
        ({("T", group.identity()): 2, ("S", group.generator(64)): 1}, "(x64) S + 2 T"),
        ({("S", group.identity()): 1, ("S", group.generator(1)): -3}, "S - 3 (x1) S"),
    ]:
        assert equivariant.class_forms(EquivClass(geo, terms))[1] == rendered


# -- trusted results ----------------------------------------------------------
#
# The ring and class operations, the pairing and the barbell action
# build their results without the public constructors' checks; each
# result must still be what those constructors build from its terms,
# every value key a canonical value of the group.


def assert_checked(result):
    if isinstance(result, RingElement):
        coeffs, again = result.coeffs, RingElement(result.group, result.coeffs, elements(result.group, result.terms))
    else:
        group = result.geometry.group
        terms = {(label, DeckElement(group, value)): c for (label, value), c in result.terms.items()}
        coeffs, again = result.geometry.coeffs, EquivClass(result.geometry, terms)
    assert again == result
    assert all(result.terms.values())
    assert coeffs != F2 or set(result.terms.values()) <= {1}


def ring_elements(group, coeffs):
    def build(drawn):
        terms = {}
        for elt, c in drawn:
            terms[elt] = terms.get(elt, 0) + c
        return RingElement(group, coeffs, terms)

    return st.lists(st.tuples(deck_elements(group), st.integers(-3, 3)), max_size=6).map(build)


@pytest.mark.parametrize("coeffs", [F2, INT])
@pytest.mark.parametrize("group", [free_group(3), Z1, DeckGroup(CYCLIC, 6)], ids=repr)
@given(data=st.data())
def test_ring_operations_build_what_the_checking_constructor_builds(group, coeffs, data):
    a, b = data.draw(ring_elements(group, coeffs)), data.draw(ring_elements(group, coeffs))
    g = data.draw(deck_elements(group))
    for result in (a.add(b), a.mul(b), b.mul(a), a.neg(), a.translate(g), a.reverse()):
        assert_checked(result)


@pytest.mark.parametrize("key", sorted(ITERATE_GEOMETRIES))
@given(data=st.data())
def test_class_operations_build_what_the_checking_constructor_builds(key, data):
    geo = ITERATE_GEOMETRIES[key]
    x, y = data.draw(equiv_classes(geo)), data.draw(equiv_classes(geo))
    cuff1, cuff2 = data.draw(st.sampled_from(disjoint_cuff_pairs(geo)))
    spec = BarbellSpec(cuff1, cuff2, data.draw(deck_elements(geo.group)),
                       iterate=data.draw(st.integers(-12, 12).filter(bool)),
                       offset=data.draw(st.none() | deck_elements(geo.group)))
    results = [x.add(y), x.sub(y), x.scale(data.draw(st.integers(-3, 3))),
               x.translate(data.draw(deck_elements(geo.group))), barbell_action(x, spec)]
    for b in sorted(geo.labels):
        try:
            results.append(equivariant_pairing(x, b))
        except GeometryError:  # a disk paired with a disk, or a meridian row
            pass
    for result in results:
        assert_checked(result)


def pairing_spy(monkeypatch):
    """The cuff or disk label of every equivariant_pairing call, under
    each name the engine calls it by."""
    from barbellcalc import equivariant, presentations

    labels = []
    real = equivariant.equivariant_pairing
    spy = lambda x, b: labels.append(b) or real(x, b)
    for module in (equivariant, presentations):
        monkeypatch.setattr(module, "equivariant_pairing", spy)
    return labels


def test_an_equal_cuff_barbell_pairs_once(monkeypatch):
    from barbellcalc.scenarios import _generic, run_theorem

    # the theorem presents its generic f once a process: clear that memo
    # so that this call presents it under the spy
    _generic.cache_clear()
    labels = pairing_spy(monkeypatch)
    assert run_theorem("morsesimple-s3", k=2, l=3).passed
    # one pairing per barbell, then the acted sphere against D_v
    assert labels == ["S_h", "S_v", "D_v"]


def test_a_distinct_cuff_barbell_pairs_with_both_cuffs(monkeypatch):
    from barbellcalc.scenarios import run_theorem
    from test_scenarios import own_groups

    labels = pairing_spy(monkeypatch)
    # less-simple moves its disk once a process, on the generic cover: an empty memo builds it here
    with own_groups():
        assert run_theorem("less-simple", m=1000, k=3, l=5).passed
    assert labels == ["S_prime", "S", "S_prime", "S"]


def test_a_class_is_pushed_along_a_group_map_onto_its_pushed_geometry():
    from barbellcalc.scenarios import _cover_class, _generic

    # D + x1 S - x1^-1 S_prime - x2 S + x2^-1 S_prime along (a, b, c) -> (a + 2b) mod 7
    generic, cover = _generic(_cover_class, True), builtin_geometry("cyclic_cover", m=7)
    t = cover.group.generator
    expected = cover.basis_class("D")
    for label, power, c in (("S", 1, 1), ("S_prime", 6, -1), ("S", 2, -1), ("S_prime", 5, 1)):
        expected = expected.add(cover.basis_class(label, t(1, power), c))
    phi = GroupMap(free_abelian(3), cover.group, [t(1, 1), t(1, 2), t(1, 0)])
    pushed = push_class(generic, phi)
    assert pushed == expected and pushed.geometry is not generic.geometry
    assert pushed.geometry is not push_geometry(generic.geometry, phi) and pushed.geometry.group is cover.group
    # the terms alone, unreduced and keyed by values, as a caller places them on a geometry of its own
    terms = push_terms(generic, phi)
    assert terms == pushed.terms and EquivClass(cover, {
        (label, DeckElement(cover.group, value)): c for (label, value), c in terms.items()}) == expected


# over Z^3: stored both ways with rows that are not each other's mirrors, and a disk row
BOTH_WAYS = Geometry("both_ways", free_abelian(3), INT, {"A": SPHERE, "B": SPHERE, "D": DISK}, {
    ("A", "B"): from_term_list([[[0, 0, 0], 2], [[1, -1, 0], -1], [[0, 2, 1], 1]], free_abelian(3), INT),
    ("B", "A"): from_term_list([[[1, 0, 0], 1], [[0, 0, -3], 4]], free_abelian(3), INT),
    ("D", "A"): from_term_list([[[0, 1, 0], 1], [[2, 0, 0], -1]], free_abelian(3), INT),
}, attaching=["A"], disks=["D"], aliases={"B": "A"})


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 30) | st.integers(1, 10**12), k=st.integers(-10**6, 10**6), l=st.integers(-10**6, 10**6),
       both=st.booleans())
def test_a_pushed_geometry_is_the_checked_geometry_of_its_pushed_rows(m, k, l, both):
    from barbellcalc.groupring import push
    from barbellcalc.scenarios import _along, _cover_class, _generic, _lifted, _torus_complement

    # push_geometry builds without Geometry's checks; field by field, the two-way table included, it
    # is the Geometry those checks build from its home's stored rows pushed along the same map
    homes = (_generic(_cover_class, both).geometry, _lifted(_torus_complement()), BOTH_WAYS)
    for home in homes:
        for target in (DeckGroup(CYCLIC, m), free_abelian(1)):
            phi = _along(target, k, l)
            pushed = push_geometry(home, phi)
            checked = Geometry(home.name, target, home.coeffs, home.labels,
                               {pair: push(elem, phi) for pair, elem in home.pairings.items()},
                               home.attaching, home.disks, home.aliases)
            assert {slot: getattr(pushed, slot) for slot in Geometry.__slots__} == {
                slot: getattr(checked, slot) for slot in Geometry.__slots__}
            assert all(pushed._rows[pair] is row for pair, row in pushed.pairings.items())


def test_push_class_and_push_geometry_refuse_a_map_out_of_another_group():
    from barbellcalc.scenarios import _cover_class, _generic

    generic, cover = _generic(_cover_class, True), builtin_geometry("cyclic_cover", m=7)
    z1 = free_abelian(1)
    # a class over Z/7, and over Z^3 a map out of Z^1 or none at all (the old modulus and row)
    for x, phi in [(cover.basis_class("D"), GroupMap(z1, cover.group, [cover.group.generator(1)])),
                   (generic, GroupMap(z1, cover.group, [cover.group.generator(1)])), (generic, (7, [1, 2, 0]))]:
        message = f"push_geometry takes a group map out of {x.geometry.group!r}, got {_echo(phi)}"
        for push_one in (lambda: push_class(x, phi), lambda: push_geometry(x.geometry, phi)):
            with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
                push_one()
        with pytest.raises(GeometryError, match=f"^{re.escape(message.replace('push_geometry', 'push_terms'))}$"):
            push_terms(x, phi)


def test_a_foreign_offset_or_holonomy_is_refused_before_any_pairing(monkeypatch):
    geo = builtin_geometry("torus_complement")
    foreign = DeckElement(DeckGroup(CYCLIC, 3), 1)
    labels = pairing_spy(monkeypatch)
    for spec in (BarbellSpec("S_h", "S_h", t_elt(geo, 1), offset=foreign), BarbellSpec("S_h", "S_h", foreign)):
        with pytest.raises(GeometryError, match="deck element from the wrong group"):
            barbell_action(geo.basis_class("S_v"), spec)
    assert labels == []
    with pytest.raises(GeometryError, match="deck element from the wrong group"):
        geo.basis_class("S_v").translate(foreign)


# -- outside values of another type or form ------------------------------------------
#
# Each of these was read by coercion (the first group) or failed with a
# TypeError, AttributeError or unpacking ValueError traceback; each is now
# refused by the check its reader or constructor already has.

TORUS = builtin_geometry("torus_complement")
Z5 = DeckGroup(CYCLIC, 5)
REFUSED_OUTSIDE_VALUES = {
    "vector [1.5] read as x1": (lambda: element_from_json([1.5], Z1), GroupError, r"^\[1\.5\] is not an element of Z\^1"),
    "vector ['2'] read as x1^2": (lambda: element_from_json(["2"], Z1), GroupError, r"^\['2'\] is not an element"),
    "residue 2.7 read as 2": (lambda: element_from_json(2.7, Z5), GroupError, "^2.7 is not an element of Z/5"),
    "residue True read as 1": (lambda: element_from_json(True, Z5), GroupError, "^True is not an element of Z/5"),
    "coefficient 2.7 read as 2": (lambda: from_term_list([[0, 2.7]], Z1, INT), RingError, "is not a term list"),
    "coefficient '3' read as 3": (lambda: from_term_list([[0, "3"]], Z1, INT), RingError, "is not a term list"),
    "coefficient True read as 1": (lambda: from_term_list([[0, True]], Z1, INT), RingError, "is not a term list"),
    "coefficient None": (lambda: from_term_list([[0, None]], Z1, INT), RingError, "is not a term list"),
    "nested vector": (lambda: element_from_json([1, [2]], free_abelian(2)), GroupError, "is not an element of Z\\^2"),
    "term list 5": (lambda: from_term_list(5, Z1, INT), RingError, "^5 is not a term list of Z\\[Z\\^1\\]"),
    "word 5": (lambda: parse_word(5, free_group(2)), GroupError, "^5 is not text"),
    "one-item term": (lambda: from_term_list([[0]], Z1, INT), RingError, r"^\[\[0\]\] is not a term list"),
    "ring element plus a tuple": (lambda: RingElement.one(Z1, F2).add((1,)), RingError,
                                  r"^\(1,\) is not a ring element$"),
    "class plus 5": (lambda: TORUS.basis_class("S_v").add(5), GeometryError, "^5 is not a class$"),
    "class minus 5": (lambda: TORUS.basis_class("S_v").sub(5), GeometryError, "^5 is not a class$"),
    "class paired with 5": (lambda: pair_classes(TORUS.basis_class("S_v"), 5), GeometryError, "^5 is not a class$"),
    "element of the group 'Z'": (lambda: DeckElement("Z", (1,)), GroupError, "^'Z' is not a deck group$"),
    "ring over the group 'Z'": (lambda: RingElement("Z", F2, {}), RingError, "^'Z' is not a deck group$"),
    # these read the group's kind first: an AttributeError traceback, or a geometry accepted
    "JSON element of the group 'Z'": (lambda: element_from_json(1, "Z"), GroupError, "^'Z' is not a deck group$"),
    "word of the group 'Z'": (lambda: parse_word("x1", "Z"), GroupError, "^'Z' is not a deck group$"),
    "geometry over the group 'Z'": (lambda: Geometry("x", "Z", F2, {"S": SPHERE}, {}), GeometryError,
                                    "^'Z' is not a deck group$"),
    "unhashable label": (lambda: TORUS.basis_class(["S_v"]), GeometryError,
                         r"^unknown label \['S_v'\] in geometry 'torus_complement'$"),
}


@pytest.mark.parametrize("case", REFUSED_OUTSIDE_VALUES)
def test_an_outside_value_of_another_type_or_form_is_refused(case):
    call, error, message = REFUSED_OUTSIDE_VALUES[case]
    with pytest.raises(error, match=message) as refused:
        call()
    assert len(str(refused.value).encode()) < 300
