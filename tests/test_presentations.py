import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barbellcalc import scenarios
from barbellcalc.deckgroup import DeckElement, GroupMap, brunnian_word, free_abelian
from barbellcalc.equivariant import BarbellSpec, action_sequence, equivariant_pairing
from barbellcalc.groupring import F2, INT, RingElement, push, render
from barbellcalc.presentations import (
    PresentationError,
    antidiagonal_cokernel,
    brunnian_disk_obstruction,
    f2_quotient_dim,
    present_from_scenario,
)
from barbellcalc.scenarios import builtin_geometry, morsesimple_f, run_theorem
from oracles import (
    apply_hom,
    binomial_product,
    brunnian_coordinates,
    brunnian_image,
    brunnian_relator,
    distinguish_brunnian_modules,
)

Z1 = free_abelian(1)


def tpoly(coeffs, powers):
    return RingElement(Z1, coeffs, {DeckElement(Z1, (e,)): c for e, c in powers.items()})


def torus_matrix(k, l):
    geo = builtin_geometry("torus_complement")
    hol = lambda e: DeckElement(geo.group, (e,))
    return present_from_scenario(
        geo, [BarbellSpec("S_h", "S_h", hol(k)), BarbellSpec("S_v", "S_v", hol(l))]
    )


def genus2_matrix(k):
    geo = builtin_geometry("genus2_complement")
    return present_from_scenario(geo, [BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=k)])


# -- presentations from scenarios ----------------------------------------------


def test_torus_presentation_is_one_by_one_with_the_right_span():
    for k in (1, 2):
        for l in (1, 3):
            rows = torus_matrix(k, l)
            assert len(rows) == len(rows[0]) == 1
            assert f2_quotient_dim(rows) == 2 * k + 2 * l + 2


def test_genus2_presentation_matrix():
    for k in (1, 2, 3):
        (a, b), (c, d) = genus2_matrix(k)
        assert a.is_zero() and d.is_zero()
        assert b == tpoly(INT, {0: k, -1: -k})
        assert c == tpoly(INT, {-1: k, 0: -k})


def test_no_barbells_presents_the_trivial_module():
    geo = builtin_geometry("torus_complement")
    rows = present_from_scenario(geo, [])
    assert rows == [[tpoly(F2, {0: 1})]]
    assert f2_quotient_dim(rows) == 0


def test_quotient_dim_grid_matches_closed_form():
    for k in range(1, 11):
        for l in range(1, 11):
            rows = torus_matrix(k, l)
            assert rows == [[morsesimple_f(k, l)]]
            assert f2_quotient_dim(rows) == 2 * k + 2 * l + 2


def test_quotient_dim_shape_check():
    with pytest.raises(PresentationError, match=re.escape("expected a 1x1 matrix, got shape (2, 2)")):
        f2_quotient_dim(genus2_matrix(1))
    f = tpoly(F2, {0: 1, 1: 1})
    with pytest.raises(PresentationError, match=re.escape("expected a 1x1 matrix, got shape (1, 2)")):
        f2_quotient_dim([[f, f]])
    with pytest.raises(PresentationError, match=re.escape("expected a 1x1 matrix, got shape (0, 0)")):
        f2_quotient_dim([])
    with pytest.raises(PresentationError, match="quotient dimension is computed over F2"):
        f2_quotient_dim([[tpoly(INT, {0: 1})]])


@pytest.mark.parametrize("attaching, disks", [(["S_v", "S_h"], ["D_v"]), (["S_v"], ["D_v", "D_h"])])
def test_rows_are_disks_and_columns_attaching_spheres(attaching, disks):
    # the 1x2 and 2x1 torus_complement shapes of the scenario files: the
    # roles are part of the description the geometry is read from
    description = scenarios.GEOMETRY_BUILDERS["torus_complement"]()
    geo = scenarios._read_geometry({**description, "attaching": attaching, "disks": disks})
    hol = lambda e: DeckElement(geo.group, (e,))
    specs = [BarbellSpec("S_h", "S_h", hol(2), iterate=-3, offset=hol(1)), BarbellSpec("S_v", "S_v", hol(-5))]
    rows = present_from_scenario(geo, specs)
    assert len(rows) == len(disks) and all(len(row) == len(attaching) for row in rows)
    for r, disk in enumerate(disks):
        for s, sphere in enumerate(attaching):
            moved = action_sequence(geo.basis_class(sphere), specs)
            assert rows[r][s] == equivariant_pairing(moved, disk)
    assert len({render(entry) for row in rows for entry in row}) == 2


# -- cokernel normal form ---------------------------------------------------------


def test_antidiagonal_cokernel_normalizes_to_k_t_minus_1():
    for k in (1, 2, 3):
        factors = antidiagonal_cokernel(genus2_matrix(k))
        expected = tpoly(INT, {1: k, 0: -k})
        assert factors == [expected, expected]


def test_antidiagonal_cokernel_unit_case():
    one = tpoly(INT, {0: 1})
    zero = tpoly(INT, {})
    assert antidiagonal_cokernel([[zero, one], [one, zero]]) == [one, one]


def test_antidiagonal_cokernel_rejects_other_shapes():
    with pytest.raises(PresentationError, match=re.escape("expected a 2x2 matrix, got shape (1, 1)")):
        antidiagonal_cokernel(torus_matrix(1, 1))
    f = tpoly(INT, {0: 1})
    with pytest.raises(PresentationError, match=re.escape("expected a 2x2 matrix, got shape (2, 1)")):
        antidiagonal_cokernel([[f], [f]])
    bad = [[tpoly(INT, {0: 1}), tpoly(INT, {0: 1})], [tpoly(INT, {0: 1}), tpoly(INT, {})]]
    with pytest.raises(PresentationError):
        antidiagonal_cokernel(bad)


def test_cokernel_factors_are_nonunits_exactly_when_k_is_nonzero():
    from barbellcalc.groupring import is_monomial_unit

    for k in (1, 2, 3):
        for factor in antidiagonal_cokernel(genus2_matrix(k)):
            assert not is_monomial_unit(factor)


# -- Brunnian module distinctness -----------------------------------------------


def test_engine_and_formula_agree_on_the_relator():
    for n in (2, 3):
        geo = builtin_geometry("sphere_torus_link", n=n)
        w = brunnian_word(n)
        for k, l in ((1, 1), (1, 2), (2, 2)):
            rows = present_from_scenario(
                geo,
                [BarbellSpec("S_h", "S_h", w.pow(k)), BarbellSpec("S_v", "S_v", w.pow(l))],
            )
            assert rows == [[brunnian_relator(w.pow(k), w.pow(l))]]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 8), st.integers(1, 8))
def test_engine_relator_pushes_forward_to_the_closed_form_image(n, k, l):
    # naturality: the engine's relator, pushed term by term through the
    # unitriangular coordinates, is 1 + (t + t^-1)(s^k + s^-k)(s^l + s^-l)
    geo = builtin_geometry("sphere_torus_link", n=n)
    w = brunnian_word(n)
    specs = [BarbellSpec("S_h", "S_h", w.pow(k)), BarbellSpec("S_v", "S_v", w.pow(l))]
    relator = present_from_scenario(geo, specs)[0][0]
    assert apply_hom(relator, free_abelian(2), partial(brunnian_coordinates, n=n)) == brunnian_image(k, l, n)


@st.composite
def linked_parameters(draw):
    """n in 2..6 and winding numbers k, l up to the runner's letter cap."""
    n = draw(st.integers(2, 6))
    top = scenarios.MAX_LINKED_WORD_LETTERS // len(brunnian_word(n).value)
    return n, draw(st.integers(1, top)), draw(st.integers(1, top))


@settings(max_examples=25, deadline=None)
@given(linked_parameters())
def test_the_generic_relator_substituted_is_the_engine_relator_and_its_image(params):
    # the engine's one generic relator over F_3 at x1, x2, x3 -> w^k, w^l,
    # x_n is the per-instance relator, and at s^k, s^l, t its image
    n, k, l = params
    geo = builtin_geometry("sphere_torus_link", n=n)
    w = brunnian_word(n)
    wk, wl = w.pow(k), w.pow(l)
    engine = present_from_scenario(geo, [BarbellSpec("S_h", "S_h", wk), BarbellSpec("S_v", "S_v", wl)])[0][0]
    generic, Z2 = scenarios._generic(scenarios._brunnian_f), free_abelian(2)
    relator = push(generic, GroupMap(generic.group, geo.group, [wk, wl, geo.group.generator(n)]))
    assert relator == engine == brunnian_relator(wk, wl)
    image = push(generic, GroupMap(generic.group, Z2, [Z2.generator(1, k), Z2.generator(1, l), Z2.generator(2)]))
    assert image == brunnian_image(k, l, n) == apply_hom(engine, Z2, partial(brunnian_coordinates, n=n))


def test_brunnian_relator_takes_words_of_one_free_group():
    w = brunnian_word(3)
    for wk, wl in ((w, brunnian_word(4)), (free_abelian(1).generator(1), free_abelian(1).generator(1))):
        with pytest.raises(PresentationError, match="one free group"):
            brunnian_relator(wk, wl)


@pytest.mark.parametrize("k,l,n", [(0, 1, 3), (1, 0, 3), (-2, 1, 2), (1, 1, 1)])
def test_brunnian_image_validates_its_parameters(k, l, n):
    with pytest.raises(PresentationError):
        brunnian_image(k, l, n)


def test_distinguish_separates_distinct_pairs():
    assert distinguish_brunnian_modules(1, 1, 1, 2, 2)


def test_distinguish_is_blind_to_pair_order():
    assert not distinguish_brunnian_modules(1, 2, 2, 1, 3)


def test_distinguish_same_pair_is_false():
    assert not distinguish_brunnian_modules(2, 3, 2, 3, 2)


def test_distinguish_validates_parameters():
    with pytest.raises(PresentationError):
        distinguish_brunnian_modules(0, 1, 1, 2, 3)


def test_relator_image_collapses_on_diagonal_pairs():
    # k = l: the cross terms cancel mod 2, leaving 1 + (t + 1/t)(s^2k + s^-2k)
    image = brunnian_image(2, 2, 2)
    Z2 = free_abelian(2)
    expected = RingElement(
        Z2,
        F2,
        {
            DeckElement(Z2, (0, 0)): 1,
            DeckElement(Z2, (4, 1)): 1,
            DeckElement(Z2, (4, -1)): 1,
            DeckElement(Z2, (-4, 1)): 1,
            DeckElement(Z2, (-4, -1)): 1,
        },
    )
    assert image == expected


# -- Appendix-style higher-dimensional family ------------------------------------


def test_higher_dim_polynomial_grid():
    from barbellcalc.scenarios import morsesimple_f

    geo = builtin_geometry("torus_complement")
    hol = lambda e: DeckElement(geo.group, (e,))
    for k in range(1, 11):
        for l in range(1, 11):
            rows = present_from_scenario(
                geo, [BarbellSpec("S_h", "S_h", hol(k)), BarbellSpec("S_v", "S_v", hol(l))]
            )
            assert rows == [[morsesimple_f(k, l)]]
            assert f2_quotient_dim(rows) == 2 * k + 2 * l + 2


# -- Brunnian disk constraints -----------------------------------------------------


def test_three_components_force_triviality():
    assert brunnian_disk_obstruction(3)


def test_two_components_leave_a_free_coordinate():
    assert not brunnian_disk_obstruction(2)


def constraint_model(n: int) -> bool:
    """The obstruction as a constraint intersection: removing component
    k in 2..n forces every meridian coordinate a_j with j != k to zero;
    the disks are forced isotopic iff every coordinate is forced."""
    coords = set(range(2, n + 1))
    forced = set()
    for k in coords:
        forced |= coords - {k}
    return forced == coords


@given(n=st.integers(2, 40))
def test_closed_form_obstruction_matches_the_constraint_model(n):
    assert brunnian_disk_obstruction(n) == constraint_model(n)


@given(n=st.integers(2, 40))
def test_the_runners_bitmask_model_matches_the_constraint_model(n):
    assert scenarios._disk_model(n) == constraint_model(n)


def test_no_brunnian_2disk_evaluates_its_model_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(scenarios, "MAX_DISK_MODEL_COMPONENTS", 5)
    modelled = []
    real = scenarios._disk_model
    monkeypatch.setattr(scenarios, "_disk_model", lambda n: modelled.append(n) or real(n))
    reports = {n: run_theorem("no-brunnian-2disk", n=n) for n in (2, 3, 5, 6, 10**11)}
    assert modelled == [2, 3, 5]
    assert all(report.passed for report in reports.values())
    assert [reports[n].computed["disks_forced_isotopic"] for n in reports] == [False, True, True, True, True]
    assert all(not reports[n].notes for n in (2, 3, 5))
    for n in (6, 10**11):
        assert reports[n].notes == ["n > 5: the constraint model is not evaluated; computed is the closed form"]


@settings(max_examples=200)
@given(k=st.integers(1, 12), l=st.integers(1, 12))
def test_morsesimple_f_matches_the_product_of_binomials(k, l):
    # k = l, k = 1 and l = 1 make exponents coincide
    assert morsesimple_f(k, l) == binomial_product([(1,), (k,), (l,)])


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_morsesimple_f_matches_the_product_of_binomials_on_any_winding_numbers(k, l):
    # zero, negative and opposite winding numbers, where more exponents coincide
    assert morsesimple_f(k, l) == binomial_product([(1,), (k,), (l,)])


@pytest.mark.parametrize("n", [1, 0, -5])
def test_obstruction_needs_two_components(n):
    with pytest.raises(PresentationError):
        brunnian_disk_obstruction(n)
