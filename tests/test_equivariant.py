import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barbellcalc.deckgroup import DeckElement, cyclic, free_abelian, reduce_letters
from barbellcalc.equivariant import (
    DISK,
    SPHERE,
    BarbellSpec,
    EquivClass,
    GeneratorLabel,
    Geometry,
    GeometryError,
    PairingTable,
    action_sequence,
    barbell_action,
    equivariant_pairing,
    intersection_polynomial,
    pair_classes,
    summand_membership,
)
from barbellcalc.groupring import F2, INT, RingElement
from barbellcalc.scenarios import builtin_geometry

Z1 = free_abelian(1)


def t_elt(geo, i):
    if geo.group.kind == "cyclic":
        return DeckElement(geo.group, i % geo.group.n)
    return DeckElement(geo.group, (i,))


def tpoly(geo, powers):
    return RingElement(geo.group, geo.coeffs, {t_elt(geo, e): c for e, c in powers.items()})


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


def slow_pairing(x, b):
    """The pairing summed term by term with RingElement.add."""
    geo = x.geometry
    geo.label(b)
    out = RingElement.zero(geo.group, geo.coeffs)
    for (a, u), c in x.terms.items():
        p = geo.pairing.pairing(a, b, geo.group, geo.coeffs)
        if not p.is_zero():
            out = out.add(p.translate(u).scale(c))
    return out


def _over_integers(geo):
    entries = {key: RingElement(geo.group, INT, p.terms) for key, p in geo.pairing.entries.items()}
    return dataclasses.replace(geo, coeffs=INT, pairing=PairingTable(geo.labels, entries))


def deck_elements(group):
    if group.kind == "free":
        letters = st.lists(st.tuples(st.integers(1, group.n), st.integers(-2, 2)), max_size=4)
        return letters.map(lambda ls: DeckElement(group, reduce_letters(ls, group.n)))
    return st.integers(-4, 4).map(lambda i: DeckElement(group, (i,)))


PAIRING_GEOMETRIES = {
    "torus-f2": builtin_geometry("torus_complement"),
    "torus-z": _over_integers(builtin_geometry("torus_complement")),
    "free-f3": builtin_geometry("sphere_torus_link", n=3),
}


@pytest.mark.parametrize("key", sorted(PAIRING_GEOMETRIES))
@given(data=st.data())
def test_pairing_matches_repeated_add(key, data):
    geo = PAIRING_GEOMETRIES[key]
    labels = sorted(geo.labels)
    drawn = data.draw(
        st.lists(st.tuples(st.sampled_from(labels), deck_elements(geo.group), st.integers(-3, 3)), max_size=8)
    )
    terms = {}
    for label, deck, c in drawn:
        terms[(label, deck)] = terms.get((label, deck), 0) + c
    x = EquivClass(geo, terms)
    b = data.draw(st.sampled_from(labels))
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
    exponents = [deck.value[0] for _, deck in moved.terms]
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


# -- intersection polynomials ---------------------------------------------------


def test_intersection_polynomial_of_the_acted_sphere():
    geo = builtin_geometry("torus_complement")
    moved = action_sequence(geo.basis_class("S_v"), [horizontal(geo, 1), vertical(geo, 1)])
    [f] = intersection_polynomial(moved, ["D_v"])
    assert f == tpoly(geo, {-3: 1, -1: 1, 0: 1, 1: 1, 3: 1})


def test_intersection_polynomial_of_the_plain_sphere():
    geo = builtin_geometry("torus_complement")
    assert intersection_polynomial(geo.basis_class("S_v"), ["D_v"]) == [tpoly(geo, {0: 1})]


def test_intersection_polynomial_genus2_column():
    # the column for the first sphere: zero against its own disk, and
    # the lower-left matrix entry against the other
    geo = builtin_geometry("genus2_complement")
    k = 2
    moved = barbell_action(
        geo.basis_class("S_v_1"), BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=k)
    )
    column = intersection_polynomial(moved, ["D_h_1", "D_h_2"])
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


def test_disk_disk_pairing_is_undefined():
    geo = builtin_geometry("torus_complement")
    with pytest.raises(GeometryError):
        pair_classes(geo.basis_class("D_v"), geo.basis_class("D_h"))


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


def test_membership_respects_the_parallel_copy_alias():
    # S and S_prime are the same homology class: a difference supported
    # on them at equal deck elements is congruent to zero
    geo = builtin_geometry("cyclic_cover", m=205)
    x = cls(geo, ("S", 4, 1), ("S_prime", 4, -1))
    assert summand_membership(x, set())


def test_membership_modulo_kernel_generator():
    geo = builtin_geometry("branched_cover", m=205)
    mu = geo.basis_class("mu")
    assert summand_membership(mu, set(), kernel_gens=[mu], probes=[geo.basis_class("D")])


def test_membership_refuted_by_witnesses():
    geo = builtin_geometry("branched_cover", m=205)
    k = 1
    x = cls(geo, ("S", k, 1), ("S_prime", -k, 1))
    probes = [geo.basis_class("D", t_elt(geo, k)), geo.basis_class("D")]
    assert not summand_membership(x, set(), kernel_gens=[geo.basis_class("mu")], probes=probes)


def test_membership_in_nonfree_geometry_requires_probes():
    geo = builtin_geometry("branched_cover", m=205)
    x = cls(geo, ("S", 1, 1), ("S_prime", -1, 1))
    with pytest.raises(GeometryError):
        summand_membership(x, set(), kernel_gens=[geo.basis_class("mu")])


# -- brute-force per-lift oracle ----------------------------------------------------


def random_cyclic_geometry(rng, m, coeffs):
    """A finite cyclic cover with barbell cuff labels A, B, bystander
    spheres C1, C2, and a probe disk; cuff-vs-cuff pairings vanish, as
    they do for genuinely disjoint embedded cuffs."""
    group = cyclic(m)
    labels = {
        name: GeneratorLabel(name, SPHERE) for name in ("A", "B", "C1", "C2")
    }
    labels["P"] = GeneratorLabel("P", DISK)

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
        pairing=PairingTable(labels, entries),
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
