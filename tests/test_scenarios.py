import contextlib
import gc
import importlib
import inspect
import json
import math
import pkgutil
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barbellcalc import deckgroup, scenarios
from barbellcalc.deckgroup import (CYCLIC, FREE, FREE_ABELIAN, DeckElement, GroupError, GroupMap, free_abelian,
                                   free_group)
from barbellcalc.equivariant import DISK, MERIDIAN, SPHERE, BarbellSpec, push_class
from barbellcalc.groupring import F2, RingElement, push, term_list_and_render
from barbellcalc.presentations import present_from_scenario
from barbellcalc.report import render_machine
from barbellcalc.scenarios import (
    GEOMETRY_BUILDERS,
    MAX_FREE_ABELIAN_RANK,
    MAX_GENUS,
    SWEEPS,
    THEOREMS,
    GluingMatrix,
    HypothesisError,
    builtin_geometry,
    classify_gluing,
    montesinos_matrix_for,
    montesinos_parity,
    morsesimple_f,
    run_scenario,
    run_sweep,
    run_theorem,
)
from oracles import (binomial_product, brunnian_image, cyclic_project, distinguish_brunnian_modules,
                     genus1_hd_dim)

# Golden pairing tables: the full finite intersection data of each
# built-in geometry, locked term by term.
GOLDEN_TABLES = {
    "torus_complement": {
        ("S_h", "S_v"): [[[0], 1], [[1], 1]],
        ("D_v", "S_v"): [[[0], 1]],
        ("D_h", "S_h"): [[[0], 1]],
    },
    "genus2_complement": {
        ("S_h_1", "S_v_1"): [[[0], 1], [[1], -1]],
        ("S_h_2", "S_v_2"): [[[0], 1], [[1], -1]],
        ("D_h_1", "S_h_1"): [[[0], -1]],
        ("D_h_2", "S_h_2"): [[[0], -1]],
    },
    "genus_g_complement": {("D_h", "S_h_1"): [[0, 1]]},
    "circles_complement": {
        ("D_R", "S_R"): [[0, 1]],
        ("D_L", "S_L"): [[0, 1]],
    },
    "cyclic_cover": {
        ("D", "S"): [[0, 1]],
        ("D", "S_prime"): [[0, 1]],
    },
    "branched_cover": {
        ("D", "S"): [[0, 1]],
        ("D", "S_prime"): [[0, 1]],
        ("mu", "D"): [[0, 1]],  # the augmentation of the norm row
    },
    "sphere_torus_link": {
        ("S_h", "S_v"): [["1", 1], ["x3", 1]],
        ("D_v", "S_v"): [["1", 1]],
    },
}

GEOMETRY_PARAMS = {
    "sphere_torus_link": {"n": 3},
    "genus_g_complement": {"g": 2},
    "cyclic_cover": {"m": 5},
    "branched_cover": {"m": 5},
}


@pytest.mark.parametrize("name", sorted(GEOMETRY_BUILDERS))
def test_builtin_pairing_tables_are_locked(name):
    geo = builtin_geometry(name, **GEOMETRY_PARAMS.get(name, {}))
    table = {pair: term_list_and_render(elem)[0] for pair, elem in geo.pairings.items()}
    assert table == GOLDEN_TABLES[name]


@pytest.mark.parametrize("name", ["cyclic_cover", "branched_cover"])
def test_cover_builders_refuse_order_zero(name):
    kind = name.removesuffix("_cover")
    with pytest.raises(HypothesisError, match=f"^{kind} cover order must be >= 1, got 0$"):
        builtin_geometry(name, m=0)


def test_unknown_geometry_name():
    from barbellcalc.equivariant import GeometryError

    with pytest.raises(GeometryError):
        builtin_geometry("moebius_complement")


def test_geometry_roles_are_declared():
    geo = builtin_geometry("torus_complement")
    assert geo.attaching == ("S_v",) and geo.disks == ("D_v",)
    geo2 = builtin_geometry("genus2_complement")
    assert geo2.attaching == ("S_v_1", "S_v_2") and geo2.disks == ("D_h_1", "D_h_2")
    branched = builtin_geometry("branched_cover", m=7)
    assert branched.labels["mu"] == MERIDIAN and branched.meridians() == ["mu"]
    # every builder names its geometry by its registry key
    for name in GEOMETRY_BUILDERS:
        assert builtin_geometry(name, **GEOMETRY_PARAMS.get(name, {})).name == name


# -- theorem runners ---------------------------------------------------------


def test_morsesimple_runner_passes():
    report = run_theorem("morsesimple-s3", k=2, l=3)
    assert report.passed and report.computed["dim"] == 12


def test_morsesimple_rejects_degenerate_winding():
    with pytest.raises(HypothesisError):
        run_theorem("morsesimple-s3", k=0, l=1)


def test_unknown_theorem_name():
    with pytest.raises(HypothesisError):
        run_theorem("poincare")


def test_unknot_variants_present_the_unit():
    report = run_theorem("unknots", k=2, l=3)
    assert report.passed
    record = report.to_machine()  # the printed forms
    for variant in ("v-only", "h-only", "h-after-v"):
        assert record["computed"][variant]["f"]["rendered"] == "1"
        assert record["computed"][variant]["dim"] == 0


def test_unknots_fails_when_a_dimension_is_not_zero(monkeypatch):
    # the report shows "expected dim: 0"; its verdict used to read only f
    from barbellcalc import scenarios

    real = scenarios.f2_quotient_dim
    monkeypatch.setattr(scenarios, "f2_quotient_dim", lambda matrix: real(matrix) + 1)
    report = run_theorem("unknots", k=1, l=1)
    assert all(report.computed[variant]["dim"] == 1 for variant in ("v-only", "h-only", "h-after-v"))
    assert not report.passed


def test_less_simple_enforces_the_cover_bound():
    with pytest.raises(HypothesisError):
        run_theorem("less-simple", m=100, k=1)


def test_less_simple_two_parameter_class():
    report = run_theorem("less-simple", m=205, k=2, l=3)
    assert report.passed and report.computed["distinguished"]


def test_less_simple_equal_powers_not_distinguished():
    report = run_theorem("less-simple", m=205, k=3, l=3)
    assert report.passed and not report.computed["distinguished"]


def test_branched_runner_witnesses():
    for k in (1, 2, 3):
        report = run_theorem("genus1-handlebody", m=205, k=k)
        assert report.passed
        assert report.computed["witnesses"] == {"x_dot_rho_k_D": 1, "x_dot_D": 0, "mu_dot_D": 1}
        assert report.computed["refuted"]


def test_branched_runner_degenerate_pair():
    for m, k in ((505, 2), (205, 2), (505, 1), (1001, 7)):
        report = run_theorem("genus1-handlebody", m=m, k=k, l=k)
        assert report.passed and not report.computed["refuted"]
        # equal powers move D back to itself: x = 0 pairs to 0 with both probes
        assert report.computed["witnesses"] == {"x_dot_rho_k_D": 0, "x_dot_D": 0, "mu_dot_D": 1}
        assert report.expected["witnesses"] == report.computed["witnesses"]


def test_degenerate_branched_runner_fails_on_a_nonzero_witness(monkeypatch):
    from barbellcalc import scenarios

    real = scenarios.pair_classes
    # the zero class reads 1 against every probe
    monkeypatch.setattr(scenarios, "pair_classes", lambda x, z: real(x, z) or int(not x.terms))
    report = run_theorem("genus1-handlebody", m=205, k=2, l=2)
    assert report.computed["witnesses"]["x_dot_rho_k_D"] == 1
    assert not report.computed["refuted"] and not report.passed


def test_splitting_spheres_mixed_reports_residues():
    report = run_theorem("simple-splitting-spheres", m=205, k=2)
    assert report.passed
    assert report.computed["bar_residues"]["2"] == 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bar_residues_are_the_projected_bar_powers(data):
    # the runner's closed form p mod m against the bar x1^p pushed
    # through the covering map F_2 -> Z/m with weights (1, 0), for
    # every cover order the hypotheses admit, up to 10^12
    k = data.draw(st.integers(1, 10**6), label="k")
    l = data.draw(st.integers(0, 10**6), label="l")
    m = data.draw(st.integers(2 * k + 2 * l + 101, 10**12), label="m")
    x1 = cyclic_project(free_group(2).generator(1), (1, 0), m)
    report = run_theorem("simple-splitting-spheres", m=m, k=k, l=l)
    assert report.computed["bar_residues"] == {str(p): x1.pow(p).value for p in (k, l)}


# -- the cyclic-cover keys: one generic class a family, pushed to Z/m ---------------


@st.composite
def cover_parameters(draw):
    """(m, k, l) within the cover runners' hypotheses: k >= 1, l >= 0 (0
    and k among the draws), 2k + 2l + 100 < m <= 10^12."""
    k = draw(st.integers(1, 10**6), label="k")
    l = draw(st.one_of(st.just(0), st.just(k), st.integers(0, 10**6)), label="l")
    return draw(st.integers(2 * k + 2 * l + 101, 10**12), label="m"), k, l


@settings(max_examples=60, deadline=None)
@given(cover_parameters())
@example((103, 1, 0))
@example((10**12, 10**6, 0))
@example((129, 7, 7))
@example((10**12, 10**6, 10**6))
@example((205, 2, 3))
def test_the_pushed_cover_class_is_the_engine_class_on_the_cover(params):
    # the generic class of the family pushed along (a, b, c) -> (ak + bl + c)
    # mod m against the engine moving D on the instance's own cover
    m, k, l = params
    geo = builtin_geometry("cyclic_cover", m=m)
    t = geo.group.generator
    engine = scenarios._move(geo, "D", "S_prime", "S", (t(1, k), 1), (t(1, l), -1 if l else 0))
    phi = GroupMap(free_abelian(3), geo.group, [t(1, k), t(1, l), t(1, 1)])
    assert push_class(scenarios._generic(scenarios._cover_class, l > 0), phi) == engine
    less, mixed = (run_theorem(key, m=m, k=k, l=l) for key in ("less-simple", "simple-splitting-spheres"))
    assert less.passed and mixed.passed and less.computed["class"] == engine
    assert mixed.computed["class"] == less.expected["class"]


def test_the_cover_keys_move_one_generic_class_a_family(monkeypatch):
    from barbellcalc import equivariant

    moved, read = [], []
    real_action, real_read = equivariant.barbell_action, scenarios._read_geometry
    monkeypatch.setattr(equivariant, "barbell_action",
                        lambda x, spec: moved.append(x.geometry.group) or real_action(x, spec))
    monkeypatch.setattr(scenarios, "_read_geometry", lambda spec: read.append(spec["group"]["kind"]) or real_read(spec))
    with own_groups():
        # the first call of each family reads the generic cover over Z^3 and
        # moves D on it: two barbells for l >= 1, one for l = 0
        assert run_theorem("less-simple", m=205, k=2, l=3).passed
        assert run_theorem("simple-splitting-spheres", m=1000, k=3).passed
        assert read == [FREE_ABELIAN] * 2 and moved == [free_abelian(3)] * 3
        assert scenarios._generic.cache_info().currsize == 2
        moved.clear()
        # later calls read no geometry: they push the class and its geometry to Z/m
        for key in ("less-simple", "simple-splitting-spheres"):
            for m, k, l in ((10**12, 7, 0), (1001, 9, 4), (301, 50, 50), (211, 1, 2)):
                read.clear()
                assert run_theorem(key, m=m, k=k, l=l).passed
                assert read == [] and moved == [], (key, m, k, l)
        assert scenarios._generic.cache_info().currsize == 2
        # genus1-handlebody pushes the same class: it reads its branched
        # cover once per new m, for mu and the probes, and moves nothing
        for m in (205, 206, 205):
            assert run_theorem("genus1-handlebody", m=m, k=2, l=3).passed
        assert read == [CYCLIC] * 2 and moved == []
        assert scenarios._generic.cache_info().currsize == 2


def test_genus1_handlebody_builds_no_pushed_geometry_and_pairs_x_with_each_probe_once(monkeypatch):
    from barbellcalc import equivariant

    built, paired = [], []
    real_push, real_pair = equivariant.push_geometry, equivariant.pair_classes
    monkeypatch.setattr(equivariant, "push_geometry", lambda home, phi: built.append(phi) or real_push(home, phi))
    pair = lambda x, y: paired.append(x) or real_pair(x, y)
    for module in (equivariant, scenarios):
        monkeypatch.setattr(module, "pair_classes", pair)
    for m, k, l in ((1000, 3, 5), (205, 2, 2), (10**12, 1, 0)):
        paired.clear()
        report = run_theorem("genus1-handlebody", m=m, k=k, l=l)
        assert report.passed
        # three witnesses, which membership reads, and mu against its two
        # probes; at equal powers x = 0 is a member by its terms alone
        assert len(paired) == (5 if k != l else 3), (m, k, l)
    assert built == []
    assert run_theorem("less-simple", m=1000, k=3, l=5).passed and len(built) == 1


@settings(max_examples=60, deadline=None)
@given(cover_parameters())
@example((205, 2, 2))
@example((103, 1, 0))
@example((10**12, 10**6, 0))
def test_genus1_handlebody_reads_the_pushed_class_as_the_engine_move_on_the_branched_cover(params):
    # the reference is the per-instance move the runner used to make: the
    # engine moving D on the branched cover of order m itself
    from barbellcalc.equivariant import pair_classes, summand_membership

    m, k, l = params
    geo = builtin_geometry("branched_cover", m=m)
    t, d = geo.group.generator, geo.basis_class("D")
    x = scenarios._move(geo, "D", "S_prime", "S", (t(1, k), 1), (t(1, l), -1 if l else 0)).sub(d)
    probes = [geo.basis_class("D", t(1, k)), d]
    report = run_theorem("genus1-handlebody", m=m, k=k, l=l)
    assert report.computed["class"] == x
    assert report.computed["witnesses"] == {"x_dot_rho_k_D": pair_classes(x, probes[0]), "x_dot_D": pair_classes(x, d),
                                            "mu_dot_D": pair_classes(geo.basis_class("mu"), d)}
    assert report.computed["in_meridian_span"] == summand_membership(x, allowed=(), probes=probes)


def _geometry_fields(geo):
    return (geo.name, geo.group, geo.coeffs, geo.labels, geo.pairings, geo._rows, geo.attaching, geo.disks,
            geo.aliases, geo.meridians())


@settings(max_examples=60, deadline=None)
@given(cover_parameters())
@example((103, 1, 0))
@example((129, 7, 7))
@example((10**12, 10**6, 10**6))
@example((10**12, 10**6, 0))
def test_the_pushed_cover_geometry_is_the_builtin_cover(params):
    m, k, l = params
    moved = push_class(*scenarios._cover_map(m, k, l))
    geo, builtin = moved.geometry, builtin_geometry("cyclic_cover", m=m)
    assert geo.group is builtin.group
    assert _geometry_fields(geo) == _geometry_fields(builtin)
    # a class built on one is the same class built on the other
    for label, power in (("D", 0), ("S", k), ("S_prime", -l)):
        ours, theirs = (cover.basis_class(label, cover.group.generator(1, power)) for cover in (geo, builtin))
        assert ours == theirs and theirs == ours


# the range each built-in builder's parameter is drawn from
BUILDER_PARAMETERS = {"n": (2, 13), "g": (1, 40), "m": (1, 10**12)}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_builtin_geometry_is_a_fresh_read_of_its_description(data):
    # the memo hands out what reading the builder's description again
    # gives, field by field, at any parameters
    name = data.draw(st.sampled_from(sorted(GEOMETRY_BUILDERS)), label="name")
    params = {key: data.draw(st.integers(*BUILDER_PARAMETERS[key]), label=key)
              for key in scenarios.parameters(GEOMETRY_BUILDERS[name])[0]}
    memo = builtin_geometry(name, **params)
    fresh = scenarios._read_geometry({"name": name, **GEOMETRY_BUILDERS[name](**params)})
    assert memo is not fresh and memo.name == fresh.name == name and memo.group is fresh.group
    assert (memo.coeffs, memo.labels, memo._rows) == (fresh.coeffs, fresh.labels, fresh._rows)
    assert (memo.attaching, memo.disks, memo.aliases) == (fresh.attaching, fresh.disks, fresh.aliases)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**12), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@example(1, 1, 0)
@example(10**12, 10**6, 10**6)
def test_the_lifted_cyclic_cover_pushed_along_k_l_1_is_the_builtin_cover(m, k, l):
    from barbellcalc.equivariant import push_geometry

    home = scenarios._lifted(scenarios._cyclic_cover(1), name="cyclic_cover")
    z = deckgroup.DeckGroup(CYCLIC, m)
    pushed = push_geometry(home, GroupMap(free_abelian(3), z, [z.generator(1, k), z.generator(1, l), z.generator(1)]))
    builtin = builtin_geometry("cyclic_cover", m=m)
    assert pushed is not builtin and pushed.basis_class("D")._same_geometry(builtin.basis_class("D"))
    assert _geometry_fields(pushed) == _geometry_fields(builtin)


def test_a_caller_who_changes_a_returned_cover_changes_no_later_cover_call():
    # less-simple returns its pushed geometry inside its classes: a caller's
    # edit of it is refused, and neither the generic geometry nor a later call changes
    generic = [scenarios._generic(scenarios._cover_class, both).geometry for both in (False, True)]
    before = [_geometry_fields(geo) for geo in generic]
    keys = ("less-simple", "simple-splitting-spheres")
    printed = {key: render_machine(run_theorem(key, m=1001, k=9, l=4)) for key in keys}
    changed = run_theorem("less-simple", m=1001, k=9, l=4).computed["class"].geometry
    edits = (lambda: changed.labels.__setitem__("S", DISK), lambda: changed.aliases.__setitem__("S", "D"),
             lambda: changed.pairings.clear(), lambda: changed.disks.append("S"), lambda: setattr(changed, "disks", ()))
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit()
    assert [_geometry_fields(geo) for geo in generic] == before
    cover = _geometry_fields(builtin_geometry("cyclic_cover", m=1001))
    for key in keys:
        report = run_theorem(key, m=1001, k=9, l=4)
        assert report.passed and render_machine(report) == printed[key], key
        assert _geometry_fields(report.computed["class"].geometry) == cover, key


# -- the Heegaard-genus-1 dimension formula -------------------------------------


def genus1_hd_dims(**params):
    """The closed-form and engine dimensions of one genus1-hd report."""
    computed = run_theorem("genus1-hd", **params).computed
    return computed["dim_closed_form"], computed["dim_engine"]


def test_genus1_hd_single_barbell_branch():
    closed, engine = genus1_hd_dims(h={0: 1}, v={}, b={}, k=110, l=110)
    assert closed == engine == 220


def test_genus1_hd_two_barbell_branch():
    closed, engine = genus1_hd_dims(h={}, v={0: 1}, b={}, k=300, l=300)
    assert closed == engine == 1201


def test_genus1_hd_shifted_support():
    closed, engine = genus1_hd_dims(h={-2: 1, 3: 1}, v={}, b={1: 1}, k=120, l=120)
    assert closed == engine == 2 * 120 + 3 - (-2)


def test_genus1_hd_degenerate_disk_data():
    # h = v = 0: the class meets no cuff, so the dimension is the span of b
    closed, engine = genus1_hd_dims(h={}, v={}, b={0: 1}, k=100, l=100)
    assert closed == engine == 0
    closed, engine = genus1_hd_dims(h={}, v={}, b={-2: 1, 3: 1}, k=103, l=103)
    assert closed == engine == 5


@pytest.mark.parametrize("b, dim", [({0: 1}, 0), ({}, None)])
def test_genus1_hd_degenerate_branch_has_an_expected_value(b, dim):
    report = run_theorem("genus1-hd", k=100, l=100, h={}, v={}, b=b)
    assert report.passed and report.expected == {"dim": dim}
    assert report.computed["dim_engine"] == report.computed["dim_closed_form"] == dim


@pytest.mark.parametrize("b", [{0: 1}, {}])
def test_genus1_hd_degenerate_branch_fails_on_a_wrong_engine(b, monkeypatch):
    # an engine whose disk pairing gains a stray term at the last
    # generator (x3^5 in the generic group, t^5 once pushed forward) must
    # FAIL: the term is no row's, so the generic f of phi meeting nothing
    # carries it into every instance
    import barbellcalc.presentations as presentations
    from barbellcalc.groupring import from_term_list

    pairing = presentations.equivariant_pairing

    def mutated(x, label):
        p = pairing(x, label)
        return p.add(from_term_list([[[0] * (p.group.n - 1) + [5], 1]], p.group, p.coeffs))

    monkeypatch.setattr(presentations, "equivariant_pairing", mutated)
    with own_groups():
        report = run_theorem("genus1-hd", k=100, l=100, h={}, v={}, b=b)
    assert not report.passed and report.expected == {"dim": 0 if b else None}
    # 1 + t^5, or t^5 alone
    assert report.computed["dim_engine"] == (5 if b else 0)


# phi's row in each of genus1-hd's generic presentations: none, or one label met once at x3^0
GENUS1_HD_ROWS = (None, "S_h", "S_v", "D_h")


def test_genus1_hd_presents_its_matrix_once(monkeypatch):
    # four generic presentations a process, each built by the function
    # every other matrix comes from; no later call reads a geometry or
    # presents a matrix, whatever its data
    import barbellcalc.scenarios as scenarios

    presented, read = [], []
    real_present, real_read = scenarios.present_from_scenario, scenarios._read_geometry
    monkeypatch.setattr(scenarios, "present_from_scenario",
                        lambda geo, barbells: presented.append(geo) or real_present(geo, barbells))
    monkeypatch.setattr(scenarios, "_read_geometry", lambda spec: read.append(spec) or real_read(spec))
    with own_groups():
        assert run_theorem("genus1-hd", k=100, l=100).passed
        assert [(geo.attaching, geo.disks) for geo in presented] == [(("phi",), ("D_h",))] * 4 and len(read) == 4
        assert scenarios._generic(scenarios._phi_f, None).is_zero()
        presented.clear()
        read.clear()
        assert run_theorem("genus1-hd", k=300, l=400, h={1: 1, -2: 3}, v={"5": 1}, b={"3": 1}).passed
        assert run_theorem("genus1-hd", k=100, l=100, h={}, v={}, b={}).passed
        assert presented == read == []
        # the one memo holds the four, keyed by no winding number or intersection datum
        assert scenarios._generic.cache_info().currsize == 4


def test_genus1_hd_builds_the_torus_table_plus_phi_once(monkeypatch):
    from barbellcalc import scenarios

    built, labels = [], {**builtin_geometry("torus_complement").labels, "phi": SPHERE}
    real = scenarios._read_geometry
    monkeypatch.setattr(scenarios, "_read_geometry", lambda spec: built.append(real(spec)) or built[-1])
    with own_groups():
        assert run_theorem("genus1-hd", k=300, l=400, h={1: 1, -2: 3, 4: 2}, v={"5": 1}, b={"3": -1}).passed
        assert run_theorem("genus1-hd", k=100, l=100).passed
    # the torus complement's table over Z^3, each t^e at x3^e, plus phi's row, if any, at x3^0
    lifted = {pair: [[[0, 0, e], c] for [e], c in terms] for pair, terms in GOLDEN_TABLES["torus_complement"].items()}
    tables = {}
    for geo in built:
        [row] = {b for a, b in geo.pairings if a == "phi"} or [None]
        tables[row] = {pair: term_list_and_render(elem)[0] for pair, elem in geo.pairings.items()}
        assert geo.labels == labels
        assert (geo.group.kind, geo.group.n, geo.coeffs, geo.aliases) == (FREE_ABELIAN, 3, F2, {})
        assert (geo.attaching, geo.disks) == (("phi",), ("D_h",))
    assert len(built) == 4 and tables == {
        row: {**lifted, **({("phi", row): [[[0, 0, 0], 1]]} if row else {})} for row in GENUS1_HD_ROWS}


def genus1_hd_map(data, name, odd):
    """An intersection map: positions in [-8, 8], some as decimal strings
    and some given twice, as an integer and as a decimal string whose two
    entries add up; coefficients in [-3, 3] (an even one counts as
    absent), at least one odd when odd is True and none when odd is False."""
    coeffs = st.sampled_from([-2, 0, 2]) if odd is False else st.integers(-3, 3)
    entries = data.draw(st.dictionaries(st.integers(-8, 8), coeffs, max_size=4), label=name)
    if odd:
        position = data.draw(st.integers(-8, 8), label=f"{name} odd position")
        entries[position] = data.draw(st.sampled_from([-3, -1, 1, 3]), label=f"{name}[{position}]")
    written = {}
    for e, c in entries.items():
        form = data.draw(st.sampled_from(["int", "text", "both"]), label=f"{name}[{e}] written as")
        if form == "both":
            part = data.draw(st.integers(-3, 3), label=f"{name}[{e}] text part")
            written[e], written[str(e)] = c - part, part
        else:
            written[str(e) if form == "text" else e] = c
    return written


def odd_positions(entries) -> list[int]:
    """The positions of an intersection map whose entries add to an odd sum."""
    sums = Counter()
    for e, c in entries.items():
        sums[int(e)] += c
    return [e for e, c in sums.items() if c % 2]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_genus1_hd_is_the_engine_at_the_instance(data):
    # the runner's four generic presentations against the engine run on
    # the instance itself (tests/oracles.py), in every branch, at (k, l)
    # from the hypothesis bounds upward
    branch = data.draw(st.sampled_from(["degenerate", "horizontal only", "vertical present"]), label="branch")
    h = None if branch == "horizontal only" and data.draw(st.booleans(), label="default h") else \
        genus1_hd_map(data, "h", {"degenerate": False, "horizontal only": True}.get(branch))
    v = genus1_hd_map(data, "v", branch == "vertical present")
    b = genus1_hd_map(data, "b", None)
    radius = lambda entries: max(map(abs, odd_positions(entries)), default=0)
    m_b, m_h, m_v = radius(b), radius({0: 1} if h is None else h), radius(v)
    k = data.draw(st.integers(m_b + m_h + 100, m_b + m_h + 140), label="k")
    l = data.draw(st.integers(m_b + m_h + m_v + 100, m_b + m_h + m_v + 140), label="l")
    report = run_theorem("genus1-hd", k=k, l=l, h=h, v=v, b=b)
    assert report.computed["branch"].startswith(branch) and report.passed
    assert report.computed["dim_engine"] == genus1_hd_dim(k, l, {0: 1} if h is None else h, v, b)


def test_genus1_hd_adds_the_entries_of_a_position_given_twice():
    # both entries of h = {3: 1, "3": 1} are odd and their sum is even: no
    # position of h is odd, so the class meets no cuff and b = 0 leaves it free
    report = run_theorem("genus1-hd", k=120, l=120, h={3: 1, "3": 1})
    assert report.params["h"] == {} and report.computed["branch"].startswith("degenerate") and report.passed
    assert report.computed["dim_engine"] is None is genus1_hd_dim(120, 120, {3: 1, "3": 1}, {}, {})
    report = run_theorem("genus1-hd", k=120, l=120, h={3: 1, "3": 2, "-1": 1})
    assert report.params["h"] == {"-1": 1, "3": 1} and report.computed["dim_engine"] == 2 * 120 + 4
    assert genus1_hd_dim(120, 120, {3: 1, "3": 2, "-1": 1}, {}, {}) == 2 * 120 + 4


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * 3), st.integers(1, 3), max_size=4),
                min_size=3, max_size=3))
def test_the_genus1_hd_engine_is_affine_in_phis_rows(rows):
    # the engine over Z^3 with phi's rows any elements, not only sums of
    # x3^e: f = F_None + sum over rows of row (F_row + F_None), the
    # generic f of phi meeting nothing (F_None) or one label once at x3^0
    from barbellcalc.equivariant import Geometry
    from barbellcalc.groupring import from_term_list

    group = free_abelian(3)
    terms = {label: from_term_list([[list(e), c] for e, c in row.items()], group, F2)
             for label, row in zip(("S_h", "S_v", "D_h"), rows)}
    # the lifted torus complement with phi, attaching, against the belt disk D_h, and phi's rows
    torus = scenarios._torus_complement()
    home = scenarios._lifted(torus, labels={**torus["labels"], "phi": SPHERE}, attaching=["phi"], disks=["D_h"])
    rows = {**home.pairings, **{("phi", label): row for label, row in terms.items()}}
    geo = Geometry(home.name, group, F2, home.labels, rows, home.attaching, home.disks)
    x = group.generator
    engine = present_from_scenario(geo, [BarbellSpec("S_v", "S_v", x(2)), BarbellSpec("S_h", "S_h", x(1))])[0][0]
    generic = {row: scenarios._generic(scenarios._phi_f, row) for row in GENUS1_HD_ROWS}
    affine = generic[None]
    for label, row in terms.items():
        affine = affine.add(row.mul(generic[label].add(generic[None])))
    assert engine == affine


def test_genus1_hd_hypothesis_bounds():
    with pytest.raises(HypothesisError):
        genus1_hd_dims(h={0: 1}, v={}, b={}, k=99, l=100)
    with pytest.raises(HypothesisError):
        genus1_hd_dims(h={}, v={5: 1}, b={}, k=110, l=100)


def test_genus1_hd_reads_decimal_string_positions_as_integers():
    # the parameters' JSON form: positions are decimal strings
    by_int = run_theorem("genus1-hd", k=120, l=120, h={-2: 1, 3: 3}, v={}, b={1: 1})
    by_text = run_theorem("genus1-hd", k=120, l=120, h={"-2": 1, "3": 3}, v={}, b={"1": 1})
    assert by_int.passed and by_text.to_machine() == by_int.to_machine()


# -- Montesinos --------------------------------------------------------------------


def test_parity_of_the_two_special_matrices():
    assert montesinos_parity(GluingMatrix(0, -1, 1, 0))
    assert montesinos_parity(GluingMatrix(1, 0, 0, 1))


def test_parity_detects_odd_sums():
    assert not montesinos_parity(GluingMatrix(1, 1, 0, 1))


def test_classification_of_special_matrices():
    assert classify_gluing(GluingMatrix(1, 0, 0, 1)) == "S1xS2"
    assert classify_gluing(GluingMatrix(0, -1, 1, 0)) == "S3"


def test_matrix_search_for_3_5():
    matrix = montesinos_matrix_for(3, 5)
    # 3 + 5 is even, so the search runs on (3, 8)
    assert (matrix.a, matrix.c) == (3, 8)
    assert montesinos_parity(matrix)
    assert classify_gluing(matrix) == "L(3,8)"


def test_matrix_search_requires_coprime_nonzero():
    with pytest.raises(HypothesisError):
        montesinos_matrix_for(4, 6)
    with pytest.raises(HypothesisError):
        montesinos_matrix_for(0, 1)


def test_matrix_search_grid():
    import math

    for p in range(2, 31):
        for q in range(p + 1, 31):
            if math.gcd(p, q) != 1:
                continue
            matrix = montesinos_matrix_for(p, q)
            a, b, c, d = matrix.entries()
            assert a * d - b * c == 1
            assert (a + b + c + d) % 2 == 0
            substituted = (p + q) % 2 == 0
            assert (a, c) == ((p, p + q) if substituted else (p, q))
            expected = f"L({p},{p + q})" if substituted else f"L({p},{q})"
            assert classify_gluing(matrix) == expected


def test_gluing_matrix_must_have_determinant_one():
    with pytest.raises(HypothesisError):
        GluingMatrix(1, 0, 0, -1)


def test_classification_normalizes_column_signs():
    assert classify_gluing(GluingMatrix(-3, -1, -8, -3)) == "L(3,8)"
    assert classify_gluing(GluingMatrix(-1, 0, 0, -1)) == "S1xS2"
    assert classify_gluing(GluingMatrix(0, 1, -1, 0)) == "S3"


# -- the obstruction arguments ----------------------------------------------------


def test_obstruction_names_route_to_theorems():
    report = run_theorem("circle-splittingspheres", k=4)
    assert report.name == "circle-splittingspheres"
    assert report.to_machine()["computed"]["class_rendered"] == "D_R - 4 S_L"
    assert report.computed["distinguished"]


def test_obstruction_verdicts_flip_on_equal_powers():
    for name, params in [
        ("circle-splittingspheres", {"k": 2, "l": 2}),
        ("simple-knotted-handlebody", {"k": 3, "l": 3}),
        ("disks-5dlinked", {"k": 2, "l": 2}),
        ("less-simple", {"m": 205, "k": 2, "l": 2}),
        ("simple-splitting-spheres", {"m": 205, "k": 2, "l": 2}),
    ]:
        report = run_theorem(name, **params)
        assert report.passed, name
        key = "linked" if name == "disks-5dlinked" else "distinguished"
        assert not report.computed[key], name


@pytest.mark.parametrize("k, l, iterates", [(5, 2, [3]), (2, 5, [-3]), (4, 4, [])])
def test_disks_5dlinked_moves_its_disk_once(k, l, iterates, monkeypatch):
    # f^k(D_R) - f^l(D_R) = f^(k-l)(D_R) - D_R for a trivial bar: one move
    from barbellcalc import equivariant

    real, seen = equivariant.barbell_action, []
    monkeypatch.setattr(equivariant, "barbell_action", lambda x, spec: seen.append(spec.iterate) or real(x, spec))
    report = run_theorem("disks-5dlinked", k=k, l=l)
    assert report.passed and report.computed["mu_L_coefficient"] == l - k and seen == iterates


# -- the theorem registry ------------------------------------------------------

# small passing parameters for every registered theorem
SAMPLE_PARAMS = {
    "morsesimple-s3": {"k": 1, "l": 2},
    "higher-dim-knots": {"k": 2, "l": 1},
    "unknots": {"k": 1, "l": 1},
    "linked-6crit": {"n": 3, "k": 1, "l": 2},
    "simple-5d": {"k": 2},
    "circle-splittingspheres": {"k": 2},
    "simple-splitting": {"k": 3, "l": 1},
    "simple-knotted-handlebody": {"k": 2},
    "disks-5dlinked": {"k": 2, "l": 1},
    "less-simple": {"m": 105, "k": 1},
    "simple-splitting-spheres": {"m": 105, "k": 1},
    "genus1-handlebody": {"m": 105, "k": 1},
    "genus1-hd": {"k": 100, "l": 100},
    "morsesimple3mfd": {"p": 3, "q": 5},
    "no-brunnian-2disk": {"n": 3},
}


def test_registry_keys_name_their_reports():
    assert set(SAMPLE_PARAMS) == set(THEOREMS)
    for key in THEOREMS:
        report = run_theorem(key, **SAMPLE_PARAMS[key])
        assert report.name == key and report.passed, key


def runner_defaults(key: str) -> dict:
    """The defaults of a theorem's runner, read from its signature, None dropped."""
    signature = inspect.signature(THEOREMS[key])
    return {name: p.default for name, p in signature.parameters.items() if p.default not in (p.empty, None)}


# the intersection maps genus1-hd reports in place of its None defaults
GENUS1_HD_MAPS = {"h": {"0": 1}, "v": {}, "b": {}}


@pytest.mark.parametrize("key", sorted(SAMPLE_PARAMS))
def test_reports_record_the_call_and_the_runner_defaults(key):
    maps = GENUS1_HD_MAPS if key == "genus1-hd" else {}
    assert run_theorem(key, **SAMPLE_PARAMS[key]).params == {**runner_defaults(key), **SAMPLE_PARAMS[key], **maps}


@pytest.mark.parametrize(
    "key,call,params",
    [
        ("unknots", {}, {"k": 1, "l": 1}),
        ("simple-knotted-handlebody", {"k": 2, "l": 1}, {"k": 2, "l": 1, "g": 2}),
        ("circle-splittingspheres", {"k": 3}, {"k": 3, "l": 0}),
        ("morsesimple3mfd", {}, {}),
        ("genus1-hd", {"k": 100, "l": 100}, {"k": 100, "l": 100, **GENUS1_HD_MAPS}),
        # the maps a runner normalizes replace the call's: even entries drop, positions are strings
        ("genus1-hd", {"k": 120, "l": 120, "h": {-2: 3, 1: 2}, "v": {}, "b": {"1": 1}},
         {"k": 120, "l": 120, "h": {"-2": 1}, "v": {}, "b": {"1": 1}}),
    ],
)
def test_reports_record_omitted_defaults(key, call, params):
    assert run_theorem(key, **call).params == params


# Public functions and methods of the package that no CLI path enters,
# and why each stays.  Anything else the CLI never reaches is library
# code without a caller, or an oracle that belongs in tests/oracles.py.
UNREACHED_BY_THE_CLI = {
    # the DeckElement API of library callers: the engine keys terms by
    # values, applies the group's law to them, and sorts and renders them
    "deckgroup.DeckElement.mul": "the group law on checked elements; the engine multiplies values",
    "deckgroup.DeckElement.inv": "the group law on checked elements; the engine inverts values",
    "deckgroup.DeckElement.is_identity": "reads one element; the engine compares values",
    "deckgroup.DeckElement.sort_key": "orders elements; the engine sorts values",
    "deckgroup.commutator": "brunnian_word builds its commutators on values",
    "deckgroup.element_to_json": "one element's JSON form; reports convert values",
    "deckgroup.format_element": "one element's x-notation; reports render values",
    "groupring.RingElement.coefficient": "reads a term at a DeckElement; the engine reads values",
    "groupring.RingElement.support": "hands DeckElements back; reports read sorted values",
    "equivariant.EquivClass.support": "hands (label, DeckElement) pairs back; reports read sorted values",
    "scenarios.builtin_geometry": "checks a library caller's name and parameters; the runners and scenario files, "
                                  "whose parameters are checked, read its memo (_geometry) directly",
}

# An inline geometry (the torus complement's data) moved by a lift with
# an offset and a negative iterate: the deck translation of a class.
INLINE_SCENARIO = {
    "geometry": {
        "name": "inline_torus",
        "group": {"kind": "free_abelian", "rank": 1},
        "labels": {"S_h": "sphere", "S_v": "sphere", "D_v": "disk"},
        "pairings": [["S_h", "S_v", [[[0], 1], [[1], 1]]], ["D_v", "S_v", [[[0], 1]]]],
        "attaching": ["S_v"],
        "disks": ["D_v"],
    },
    "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": [2], "offset": [1], "iterate": -2}],
}


def cli_corpus(tmp_path):
    """Every theorem at its sample parameters, every sweep, the committed
    scenario and an inline-geometry scenario, in both output formats."""
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "torus_k2_l3.json"
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(INLINE_SCENARIO))
    for fmt in ("table", "machine"):
        for key in sorted(THEOREMS):
            flags = [token for name, value in SAMPLE_PARAMS[key].items() for token in (f"--{name}", str(value))]
            yield ["theorem", key, *flags, "--format", fmt]
        # --max 3: the smallest size at which every sweep, montesinos
        # included, has a job
        for name in SWEEPS:
            yield ["sweep", name, "--max", "3", "--format", fmt]
        for path in (scenario, inline):
            yield ["scenario", str(path), "--format", fmt]


def public_code(module):
    """name -> code object of each public function the module defines and
    each public method of its public classes.  Dunders are protocol
    hooks rather than API."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                func = member.__func__ if isinstance(member, staticmethod) else member
                func = func.fget if isinstance(func, property) else func
                if not attr.startswith("_") and inspect.isfunction(func):
                    found[f"{layer}.{name}.{attr}"] = func.__code__
        elif callable(obj) and inspect.isfunction(inspect.unwrap(obj)):
            found[f"{layer}.{name}"] = inspect.unwrap(obj).__code__
    return found


def test_every_public_function_is_reached_by_the_cli(capsys, tmp_path):
    import barbellcalc
    from barbellcalc import cli, scenarios

    public = {}
    for info in pkgutil.iter_modules(barbellcalc.__path__):
        public.update(public_code(importlib.import_module(f"barbellcalc.{info.name}")))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # the registry signatures, the shared groups and the generic
    # presentations are cached per process: clear them so that this call
    # sequence enters their builders whatever ran before it
    for cached in (scenarios.parameters, free_group, free_abelian, scenarios._generic):
        cached.cache_clear()
    sys.setprofile(profile)
    try:
        codes = {tuple(argv): cli.main(argv) for argv in cli_corpus(tmp_path)}
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert all(code == 0 for code in codes.values()), codes
    assert "equivariant.EquivClass.translate" in public
    unreached = sorted(name for name, code in public.items() if code not in entered)
    assert unreached == sorted(UNREACHED_BY_THE_CLI)


def test_brunnian_sweep_builds_each_image_once(monkeypatch):
    from barbellcalc import scenarios

    # each image is the abelianized generic relator pushed into F2[s, t]
    # along (a, b, c) -> (ak + bl, c): record (k, l) of every such push
    built = []
    real = scenarios.push

    def recording(elem, phi):
        if (phi.source, phi.target) == (free_abelian(3), free_abelian(2)):
            built.append((phi.images[0][0], phi.images[1][0]))
        return real(elem, phi)

    monkeypatch.setattr(scenarios, "push", recording)
    reports = list(scenarios.run_sweep("brunnian", 4, n=3))
    # 45 pair jobs over the 10 winding pairs k <= l <= 4
    assert len(reports) == 45 and all(report.passed for report in reports)
    assert sorted(built) == sorted({(k, l) for k in range(1, 5) for l in range(k, 5)})


def test_the_generic_brunnian_relator_is_built_once_a_process(monkeypatch):
    from barbellcalc import scenarios

    # the one memo of generic values holds it and its abelianization, each keyed by its builder
    built, real = [], scenarios._brunnian_f
    monkeypatch.setattr(scenarios, "_brunnian_f", lambda: built.append(real()) or built[-1])
    with own_groups():
        assert all(report.passed for report in scenarios.run_sweep("brunnian", 3, n=2))
        assert run_theorem("linked-6crit", n=5, k=2, l=1).passed
        info = scenarios._generic.cache_info()
    assert len(built) == 1 and (info.misses, info.currsize) == (2, 2) and info.hits > 1


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 50), st.integers(1, 50))
@example(2, 1, 1)
@example(2, 7, 7)
@example(2, 3, 9)
@example(5, 12, 12)
def test_the_image_pushed_from_the_abelianized_relator_is_the_substituted_one(n, k, l):
    # image_in_st is the generic relator pushed into F2[Z^3] once and then
    # along (a, b, c) -> (ak + bl, c): it must equal the closed form and
    # the generic relator pushed into F2[s, t] at s^k, s^l, t
    report = run_theorem("linked-6crit", n=n, k=k, l=l)
    generic, z2 = scenarios._generic(scenarios._brunnian_f), free_abelian(2)
    direct = push(generic, GroupMap(generic.group, z2, [z2.generator(1, k), z2.generator(1, l), z2.generator(2)]))
    assert report.computed["image_in_st"] == brunnian_image(k, l, n) == direct and report.passed


def test_linked_6crit_reads_one_geometry_per_n_and_abelianizes_once(monkeypatch):
    read, abelianized = [], []
    real_read, real_push = scenarios._read_geometry, scenarios.push
    monkeypatch.setattr(scenarios, "_read_geometry", lambda spec: read.append(spec["name"]) or real_read(spec))

    def recording(elem, phi):
        if phi.source.kind == FREE and phi.target.kind == FREE_ABELIAN:
            abelianized.append(phi.target.n)
        return real_push(elem, phi)

    monkeypatch.setattr(scenarios, "push", recording)
    with own_groups():
        # at n = 3 the runner's geometry is the generic relator's own
        assert run_theorem("linked-6crit", n=3, k=1, l=2).passed
        assert run_theorem("linked-6crit", n=3, k=5, l=4).passed
        assert read == ["sphere_torus_link"] and abelianized == [3]
        assert run_theorem("linked-6crit", n=5, k=2, l=2).passed
        assert run_theorem("linked-6crit", n=5, k=3, l=1).passed
        assert read == ["sphere_torus_link"] * 2 and abelianized == [3]
        # builtin_geometry reads through the same memo: the runner's geometry, an immutable one
        assert builtin_geometry("sphere_torus_link", n=3) is scenarios._geometry("sphere_torus_link", (3,), ())
        assert len(read) == 2


def test_one_memo_holds_every_builtin_geometry_up_to_its_bound():
    # builtin_geometry, the runners and a scenario file naming a built-in
    # read one memo, keyed by name, parameters and the file's roles: an
    # equal description returns the same object, read once
    memo = scenarios._geometry
    with own_groups():
        for key in ("simple-5d", "circle-splittingspheres", "simple-splitting", "disks-5dlinked"):
            assert run_theorem(key, **SAMPLE_PARAMS[key]).passed
        assert (memo.cache_info().misses, memo.cache_info().currsize) == (2, 2)
        circles = run_theorem("circle-splittingspheres", k=5, l=2).computed["class"].geometry
        assert circles is builtin_geometry("circles_complement") and memo.cache_info().misses == 2
        # a scenario file's own roles are part of the key; without them it reads the built-in's
        scenario = {"geometry": "torus_complement", "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": 2}]}
        for roles in ({}, {"attaching": None}, {"attaching": ["S_v"], "disks": ["D_v"]}, {"attaching": ["S_v", "S_h"]}):
            assert run_scenario({**scenario, **roles}).computed["matrix"]
        assert memo.cache_info().misses == 5
        assert builtin_geometry("torus_complement") is memo("torus_complement", (), ())
        # a loop over n, m or g keeps at most the memo's 16 geometries,
        # and the cyclic-cover keys push theirs, reading none
        for n in range(2, 14):
            assert run_theorem("linked-6crit", n=n, k=1, l=1).passed
        with pytest.raises(HypothesisError, match="letters"):
            run_theorem("linked-6crit", n=14, k=1, l=1)
        for m in range(105, 125):
            assert run_theorem("genus1-handlebody", m=m, k=1).passed
            assert run_theorem("less-simple", m=m, k=1).passed
        for g in (2, 3, 4):
            assert run_theorem("simple-knotted-handlebody", k=2, g=g).passed
        assert memo.cache_info().misses == 5 + 12 + 20 + 3
        assert memo.cache_info().currsize == memo.cache_info().maxsize == 16
    # a refusal keeps nothing
    with own_groups():
        for name, params in (("genus_g_complement", {"g": MAX_GENUS + 1}), ("cyclic_cover", {"m": 0})):
            with pytest.raises(HypothesisError):
                builtin_geometry(name, **params)
        assert memo.cache_info().currsize == 0


def test_a_caller_who_changes_a_returned_geometry_changes_no_later_call():
    # circle-splittingspheres returns its geometry, the memo's, inside its
    # classes: a caller's edit of it is refused, and every later run passes
    changed = run_theorem("circle-splittingspheres", k=2).computed["class"].geometry
    with pytest.raises(TypeError):
        changed.labels["S_L"] = DISK
    with pytest.raises(AttributeError):
        changed.labels = {**changed.labels, "S_L": DISK, "S_R": DISK}
    for key in ("circle-splittingspheres", "simple-splitting", "disks-5dlinked", "simple-5d"):
        assert run_theorem(key, **SAMPLE_PARAMS[key]).passed


# the memos own_groups empties: each can hold a deck group or an engine value
OWN_MEMOS = (deckgroup.free_group, deckgroup.free_abelian, scenarios._geometry, scenarios._generic)
# the memos it keeps, and why: they hold signatures only
KEPT_MEMOS = {
    "parameters": "a registry entry's parameter names and defaults, read from its code object",
    "_checkers": "a registry entry's tests of its parameters, read from its annotations",
}


@contextlib.contextmanager
def own_groups():
    """A deck group table of the block's own, and the memos that hold
    groups or engine values (OWN_MEMOS: free_group, free_abelian,
    _geometry and _generic, which holds every family's generic value)
    empty on entry and exit: every group the block reaches is built in
    it, and none outlives it in a memo or meets a group built outside.
    Geometries hold reversed rows, so a geometry built under a fault
    outlives no block either."""
    table, deckgroup._GROUPS = deckgroup._GROUPS, weakref.WeakValueDictionary()
    for memo in OWN_MEMOS:
        memo.cache_clear()
    try:
        yield
    finally:
        deckgroup._GROUPS = table
        for memo in OWN_MEMOS:
            memo.cache_clear()


def test_own_groups_empties_every_memo_that_can_hold_a_group_or_an_engine_value():
    # a memo left out would carry a value built under one mutation into the
    # next run; both lists are checked both ways, as the mutation matrix's are
    found = {}
    for module in (deckgroup, scenarios):
        found.update({id(value): value for value in vars(module).values() if hasattr(value, "cache_clear")})
    emptied = [memo for memo in found.values() if any(memo is own for own in OWN_MEMOS)]
    kept = sorted(memo.__name__ for memo in found.values() if not any(memo is own for own in OWN_MEMOS))
    assert len(emptied) == len(OWN_MEMOS) and kept == sorted(KEPT_MEMOS)


def test_the_generic_memo_is_closed_and_bounded(monkeypatch):
    # each family's generic value is keyed by its builder and a family
    # index (a cuff order, a phi row, a cover family), never by a user
    # parameter: after every key, sweep and family the memo holds 12
    # values, each built once, and the same calls again build nothing
    built = []
    for name in ("_torus_f", "_phi_f", "_brunnian_f", "_abelian_brunnian", "_cover_class"):
        record = lambda *args, name=name, real=getattr(scenarios, name): built.append((name, *args)) or real(*args)
        monkeypatch.setattr(scenarios, name, record)

    def run_all():
        for key in THEOREMS:
            assert run_theorem(key, **SAMPLE_PARAMS[key]).passed, key
        for key in ("less-simple", "simple-splitting-spheres", "genus1-handlebody"):
            for m, k, l in ((105, 1, 0), (205, 2, 3), (1000, 3, 0), (10**12, 7, 7)):
                assert run_theorem(key, m=m, k=k, l=l).passed, (key, m, k, l)
        for n in range(2, 7):
            assert run_theorem("linked-6crit", n=n, k=1, l=2).passed, n
        for data in ({"v": {0: 1}}, {"h": {}, "b": {0: 1, 3: 1}}, {"h": {}, "b": {}}):
            assert run_theorem("genus1-hd", k=200, l=300, **data).passed, data
        for name in SWEEPS:
            assert all(report.passed for report in run_sweep(name, 3)), name

    with own_groups():
        run_all()
        info = scenarios._generic.cache_info()
        run_all()
        again = scenarios._generic.cache_info()
    assert sorted(built, key=repr) == sorted([*(("_torus_f", cuffs) for cuffs in CUFF_ORDERS),
                                              *(("_phi_f", row) for row in GENUS1_HD_ROWS),
                                              ("_brunnian_f",), ("_abelian_brunnian",),
                                              ("_cover_class", False), ("_cover_class", True)], key=repr)
    assert (info.misses, info.currsize) == (again.misses, again.currsize) == (12, 12)


def test_free_and_free_abelian_groups_are_built_once_a_size(monkeypatch):
    # the torus sweep used to build two groups a job: 20,001 for --max 100
    assert free_group(3) is free_group(3) and free_abelian(2) is free_abelian(2)
    built = []
    real = deckgroup._law
    monkeypatch.setattr(deckgroup, "_law", lambda kind, n: built.append((kind, n)) or real(kind, n))
    with own_groups():
        reports = list(run_sweep("morsesimple", 100))
    assert len(reports) == 10_000 and all(report.passed for report in reports)
    assert 1 <= len(built) <= 3, built


def test_the_group_table_keeps_no_dropped_cover_group():
    # a group costs about 600 B: a loop over many cover orders must not keep
    # them all; the geometry memo keeps the last 16
    orders = range(10**4 + 7, 2 * 10**4 + 7)
    geometries = [builtin_geometry("cyclic_cover", m=m) for m in orders]
    assert all(deckgroup._GROUPS[CYCLIC, m] is geo.group for m, geo in zip(orders, geometries))
    del geometries
    gc.collect()
    kept = {m for kind, m in deckgroup._GROUPS.keys() if kind == CYCLIC and m in orders}
    assert kept == set(orders[-scenarios._geometry.cache_info().maxsize:])


def test_sweep_grids_keep_their_job_counts():
    assert list(SWEEPS) == ["morsesimple", "higher-dim", "brunnian", "montesinos"]
    assert [sweep.theorem for sweep in SWEEPS.values()] == [
        "morsesimple-s3", "higher-dim-knots", "linked-6crit", "morsesimple3mfd"
    ]
    assert len(list(SWEEPS["morsesimple"].grid(3))) == 9
    assert len(list(SWEEPS["higher-dim"].grid(3))) == 9
    assert len(list(SWEEPS["brunnian"].grid(4, n=3))) == 45
    montesinos = SWEEPS["montesinos"]
    assert len(list(montesinos.grid(montesinos.default_max))) == 248
    assert next(SWEEPS["brunnian"].grid(2)) == {"n": 2, "k": 1, "l": 1, "kp": 1, "lp": 2}


def test_brunnian_reports_apply_the_pair_rules(monkeypatch):
    import barbellcalc.scenarios as scenarios

    sweep = SWEEPS["brunnian"]
    # order-swapped and equal pairs are never distinguished; distinct ones are
    grid = [
        {"n": 3, "k": 1, "l": 2, "kp": 2, "lp": 1},
        {"n": 3, "k": 2, "l": 2, "kp": 2, "lp": 2},
        {"n": 3, "k": 1, "l": 2, "kp": 1, "lp": 3},
        {"n": 4, "k": 1, "l": 2, "kp": 1, "lp": 3},
    ]
    reports = list(sweep.reports("linked-6crit", grid))
    assert [r.computed["distinguished"] for r in reports] == [False, False, True, True]
    assert [r.computed["distinguished"] for r in reports] == [
        distinguish_brunnian_modules(job["k"], job["l"], job["kp"], job["lp"], job["n"]) for job in grid
    ]
    assert all(r.passed for r in reports) and reports[3].params["n"] == 4
    # a monomial-unit image distinguishes nothing, and its own report
    # fails: call every image of s-degree >= 4, here (2, 2) and (1, 3), a unit
    monkeypatch.setattr(scenarios, "is_monomial_unit", lambda elem: max(s for s, _ in elem.terms) >= 4)
    reports = list(sweep.reports("linked-6crit", grid))
    assert [r.computed["distinguished"] for r in reports] == [False] * 4
    assert [r.passed for r in reports] == [True, False, False, False]


def totient(q: int) -> int:
    return sum(math.gcd(p, q) == 1 for p in range(1, q + 1))


@pytest.mark.parametrize("top", range(1, 13))
def test_sweep_job_counts_match_their_grids(top):
    # the lazy grids against closed-form counts held here, as an oracle:
    # top^2 winding pairs, every two of the top(top+1)/2 unordered ones,
    # and for each q the phi(q) - 1 values 2 <= p < q coprime to it
    pairs = top * (top + 1) // 2
    counts = {
        "morsesimple": top * top,
        "higher-dim": top * top,
        "brunnian": pairs * (pairs - 1) // 2,
        "montesinos": sum(totient(q) - 1 for q in range(3, top + 1)),
    }
    assert {name: len(list(sweep.grid(top))) for name, sweep in SWEEPS.items()} == counts
    jobs = [tuple(job.values()) for job in SWEEPS["brunnian"].grid(top)]
    assert jobs == sorted(set(jobs)) and all(k <= l and kp <= lp and (k, l) < (kp, lp) for _, k, l, kp, lp in jobs)


# -- the torus keys: one generic presentation pushed forward -----------------------


# the orders of cuffs the torus keys act on: the torus knot's, then unknots' v-only, h-only and h-after-v
CUFF_ORDERS = [("S_h", "S_v"), ("S_v",), ("S_h",), ("S_v", "S_h")]


def generic_torus_f(cuffs=CUFF_ORDERS[0]):
    """The generic F over Z^3 the torus keys present for cuffs, one bar each."""
    import barbellcalc.scenarios as scenarios

    return scenarios._generic(scenarios._torus_f, cuffs)


def along(k, l):
    """(a, b, c) -> ak + bl + c, Z^3 -> Z, through the checked constructor."""
    z1 = free_abelian(1)
    return GroupMap(free_abelian(3), z1, [DeckElement(z1, (k,)), DeckElement(z1, (l,)), z1.generator(1)])


def engine_f(k, l, cuffs=CUFF_ORDERS[0]):
    """f of winding pair (k, l) from the engine on the torus complement
    itself, one barbell per cuff in the order they act: S_h's bar t^k, S_v's t^l."""
    geo = builtin_geometry("torus_complement")
    t = geo.group.generator
    bars = {"S_h": t(1, k), "S_v": t(1, l)}
    return present_from_scenario(geo, [BarbellSpec(cuff, cuff, bars[cuff]) for cuff in cuffs])[0][0]


def test_the_generic_torus_presentation_is_the_symmetric_relator_over_z3():
    # 1 + (x1 + x1^-1)(x2 + x2^-1)(x3 + x3^-1): nine terms, none merged
    f = generic_torus_f()
    assert f.group is free_abelian(3) and len(f.terms) == 9
    assert f == binomial_product([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_the_pushforward_is_the_engine_f_on_every_small_pair():
    # for every cuff order; the torus knot's terms merge under
    # (a, b, c) -> ak + bl + c exactly on the lines k = 1, l = 1, k = l
    # and |k - l| = 1, all of which this grid crosses
    merged = set()
    for cuffs in CUFF_ORDERS:
        for k in range(1, 13):
            for l in range(1, 13):
                pushed = push(generic_torus_f(cuffs), along(k, l))
                assert pushed == engine_f(k, l, cuffs), (cuffs, k, l)
                if len(pushed.terms) < len(generic_torus_f(cuffs).terms):
                    merged.add((cuffs, k, l))
                if cuffs == CUFF_ORDERS[0]:
                    assert pushed == morsesimple_f(k, l), (k, l)
    assert merged == {(CUFF_ORDERS[0], k, l) for k in range(1, 13) for l in range(1, 13)
                      if 1 in (k, l) or abs(k - l) <= 1}


@settings(max_examples=40, deadline=None)
@given(st.integers(13, 10**12), st.integers(13, 10**12), st.sampled_from(CUFF_ORDERS))
def test_the_pushforward_is_the_engine_f_on_larger_pairs(k, l, cuffs):
    assert push(generic_torus_f(cuffs), along(k, l)) == engine_f(k, l, cuffs)


def test_the_three_unknots_presentations_are_the_unit_over_z3(monkeypatch):
    import barbellcalc.scenarios as scenarios

    pushed, maps = [], []
    monkeypatch.setattr(scenarios, "push", lambda elem, phi: pushed.append(elem) or maps.append(phi) or push(elem, phi))
    assert run_theorem("unknots", k=3, l=5).passed
    one = RingElement.one(free_abelian(3), F2)
    # v-only, h-only and h-after-v, in the order the report lists them
    assert pushed == [one] * 3 and [generic_torus_f(cuffs) for cuffs in CUFF_ORDERS[1:]] == [one] * 3
    # along one map, built once a call: (a, b, c) -> 3a + 5b + c
    assert maps == [maps[0]] * 3 and maps[0].images == ((3,), (5,), (1,))


@pytest.mark.parametrize("name", ["morsesimple", "higher-dim"])
def test_a_torus_sweep_presents_once_and_pushes_that_matrix_to_every_job(name, monkeypatch):
    import barbellcalc.scenarios as scenarios

    scenarios._generic.cache_clear()
    presented, pushed = [], []
    real = scenarios.present_from_scenario
    monkeypatch.setattr(scenarios, "present_from_scenario", lambda *args: presented.append(real(*args)) or presented[-1])
    monkeypatch.setattr(scenarios, "push", lambda elem, phi: pushed.append(elem) or push(elem, phi))
    reports = list(run_sweep(name, 6))
    assert len(reports) == 36 and all(report.passed for report in reports)
    # single theorem calls of both torus-knot keys take the same route
    assert run_theorem("morsesimple-s3", k=7, l=2).passed and run_theorem("higher-dim-knots", k=2, l=9).passed
    # the engine's own matrix over Z^3, built once, is what every job and call pushes forward
    assert len(presented) == 1 and presented[0][0][0].group == free_abelian(3)
    assert len(pushed) == 38 and all(elem is presented[0][0][0] for elem in pushed)


def test_a_torus_sweep_reaches_no_winding_number_below_one():
    # the grid starts at 1 and run_sweep refuses a size below 1 before
    # drawing a job, so the runners' own refusal is never reached
    assert all(min(job.values()) >= 1 for job in SWEEPS["morsesimple"].grid(7))
    for top in (0, -3):
        with pytest.raises(HypothesisError, match=f"sweep size must satisfy --max >= 1, got {top}"):
            run_sweep("morsesimple", top)
    with pytest.raises(HypothesisError, match="winding numbers must satisfy k, l >= 1, got k=0, l=2"):
        run_theorem("morsesimple-s3", k=0, l=2)


# -- scenario files ----------------------------------------------------------------


def scenario_payload():
    return {
        "geometry": "torus_complement",
        "field": "f2",
        "barbells": [
            {"cuff1": "S_h", "cuff2": "S_h", "holonomy": [2], "iterate": 1, "signs": [1, 1]},
            {"cuff1": "S_v", "cuff2": "S_v", "holonomy": [3]},
        ],
        "attaching": ["S_v"],
        "disks": ["D_v"],
        "expected": {"dim": 12},
    }


def test_scenario_run_passes_with_expected_dim():
    report = run_scenario(scenario_payload())
    assert report.passed and report.computed["dim"] == 12


def test_scenario_expected_matrix_comparison():
    payload = scenario_payload()
    report = run_scenario(payload)
    payload["expected"] = {"matrix": [[report.to_machine()["computed"]["matrix"][0][0]["terms"]]]}
    assert run_scenario(payload).passed
    payload["expected"] = {"matrix": [[[[[0], 1]]]]}
    assert not run_scenario(payload).passed


@pytest.mark.parametrize("iterate", [2.7, 2.0, True, False, "2", None, [2]])
def test_scenario_iterate_must_be_a_json_integer(iterate, tmp_path, capsys):
    from barbellcalc import cli

    payload = scenario_payload()
    payload["barbells"][0]["iterate"] = iterate
    with pytest.raises(HypothesisError, match="barbell field 'iterate' must be a JSON integer"):
        run_scenario(payload)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["scenario", str(path)]) == 2
    assert "'iterate' must be a JSON integer" in capsys.readouterr().err


def test_scenario_iterate_accepts_negative_integers():
    payload = scenario_payload()
    payload["barbells"][0]["iterate"] = -3
    assert run_scenario(payload).computed["dim"] == 12


def test_scenario_field_mismatch():
    payload = scenario_payload()
    payload["field"] = "int"
    with pytest.raises(HypothesisError):
        run_scenario(payload)


def test_scenario_geometry_with_parameters():
    payload = {
        "geometry": {"name": "branched_cover", "m": 205},
        "barbells": [{"cuff1": "S_prime", "cuff2": "S", "holonomy": 1}],
        "attaching": ["S"],
        "disks": ["D"],
    }
    report = run_scenario(payload)
    assert report.passed


def test_genus_is_bounded():
    assert len(builtin_geometry("genus_g_complement", g=MAX_GENUS).attaching) == MAX_GENUS
    with pytest.raises(HypothesisError, match=f"g <= {MAX_GENUS}, got {MAX_GENUS + 1}"):
        builtin_geometry("genus_g_complement", g=MAX_GENUS + 1)


def _free_abelian_payload(rank):
    return {
        "geometry": {
            "name": "wide",
            "group": {"kind": "free_abelian", "rank": rank},
            "labels": {"S_h": "sphere", "S_v": "sphere", "D_v": "disk"},
            "attaching": ["S_v"],
            "disks": ["D_v"],
        },
        "barbells": [{"cuff1": "S_h", "cuff2": "S_h"}],
    }


def test_custom_free_abelian_rank_is_bounded():
    assert run_scenario(_free_abelian_payload(MAX_FREE_ABELIAN_RANK)).passed
    with pytest.raises(HypothesisError, match=f"rank must be <= {MAX_FREE_ABELIAN_RANK}, got 1000000000"):
        run_scenario(_free_abelian_payload(10**9))


def test_scenario_with_inline_custom_geometry():
    # same pairing data as the built-in torus complement, supplied inline
    payload = {
        "geometry": {
            "name": "inline_torus",
            "group": {"kind": "free_abelian", "rank": 1},
            "field": "f2",
            "labels": {"S_h": "sphere", "S_v": "sphere", "D_v": "disk"},
            "pairings": [
                ["S_h", "S_v", [[[0], 1], [[1], 1]]],
                ["D_v", "S_v", [[[0], 1]]],
            ],
            "attaching": ["S_v"],
            "disks": ["D_v"],
        },
        "barbells": [
            {"cuff1": "S_h", "cuff2": "S_h", "holonomy": [1]},
            {"cuff1": "S_v", "cuff2": "S_v", "holonomy": [1]},
        ],
        "expected": {"dim": 6},
    }
    report = run_scenario(payload)
    assert report.passed and report.computed["dim"] == 6


# Each built-in whose description the inline schema admits (no meridian
# label, no alias), its parameters, and barbells that move its classes.
INLINE_BUILTINS = {
    "torus_complement": ({}, [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": [2]},
                              {"cuff1": "S_v", "cuff2": "S_v", "holonomy": [3]}], {}),
    "sphere_torus_link": ({"n": 3}, [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": "x1 x2^-1 x3"}], {}),
    "genus2_complement": ({}, [{"cuff1": "S_h_1", "cuff2": "S_h_2", "iterate": 3}], {}),
    "genus_g_complement": ({"g": 3}, [{"cuff1": "S_h_1", "cuff2": "S_h_3", "iterate": -2}], {}),
    "circles_complement": ({}, [{"cuff1": "S_L", "cuff2": "S_R", "iterate": 2}], {"attaching": ["S_L", "S_R"]}),
}


@pytest.mark.parametrize("name", sorted(INLINE_BUILTINS))
def test_a_builtin_written_inline_computes_what_its_name_does(name):
    params, barbells, roles = INLINE_BUILTINS[name]
    description = json.loads(json.dumps(GEOMETRY_BUILDERS[name](**params)))  # plain JSON
    by_name = run_scenario({"geometry": {"name": name, **params}, "barbells": barbells, **roles})
    inline = run_scenario({"geometry": description, "barbells": barbells, **roles})
    assert inline.computed == by_name.computed and inline.passed


@pytest.mark.parametrize("name,field", [("cyclic_cover", "field 'aliases' is unknown"),
                                        ("branched_cover", "field 'labels' must be")])
def test_the_inline_schema_refuses_what_only_builtins_use(name, field):
    # an alias and a meridian label are read for the built-ins, never from a file
    with pytest.raises(HypothesisError, match=field):
        run_scenario({"geometry": json.loads(json.dumps(GEOMETRY_BUILDERS[name](7))), "barbells": []})


def test_inline_cyclic_holonomy_must_be_a_residue():
    payload = {
        "geometry": {
            "name": "inline_cyclic",
            "group": {"kind": "cyclic", "modulus": 5},
            "labels": {"S": "sphere", "D": "disk"},
            "pairings": [["D", "S", [[0, 1]]]],
            "attaching": ["S"],
            "disks": ["D"],
        },
        "barbells": [{"cuff1": "S", "cuff2": "S", "holonomy": "3"}],
    }
    assert run_scenario(payload).passed  # an integer string is a residue
    payload["barbells"][0]["holonomy"] = "x1"
    with pytest.raises(GroupError, match="'x1' is not an element of Z/5"):
        run_scenario(payload)


def test_genus1_hd_single_barbell_variant():
    # identity regluing: the attaching sphere is the vertical sphere
    # itself, whose horizontal pairing occupies offsets -1 and 0,
    # giving dimension 2k + 1
    closed, engine = genus1_hd_dims(h={-1: 1, 0: 1}, v={}, b={}, k=110, l=110)
    assert closed == engine == 221


def test_machine_report_is_json_and_reruns_identically():
    report = run_theorem("morsesimple-s3", k=2, l=2)
    blob = render_machine(report)
    record = json.loads(blob)
    rerun = run_theorem(record["theorem"], **record["params"])
    assert render_machine(rerun) == blob


def test_empty_report_renders_header_only():
    from barbellcalc.report import Report, render_table

    text = render_table(Report(name="empty", params={}, computed={}))
    assert text.splitlines() == ["theorem: empty", "PASS"]
