"""
A mutation matrix: single-point faults planted in the engine by
monkeypatch, each run against every registry key at its sample
parameters, against linked-6crit at n = 2 (where word products join runs
of x1) and at n = 3 with k = l = 2 (where the relator's products cancel
in pairs), against genus1-hd with vertical data (whose dimension, unlike
the default's, depends on l), against less-simple with l = 3 (the sample
runs l = 0, whose family has one barbell), against the committed
scenario, and against the morsesimple sweep at --max 3, which passes
only when every job does.  One memo (scenarios._generic) holds every
family's generic value, built once a process: the torus keys,
genus1-hd and linked-6crit push generic presentations along a
GroupMap, and all three cover keys push a generic class, one for each
of their two families, to Z/m (the two cyclic ones with its geometry;
genus1-handlebody pushes its terms alone and reads them on its branched
cover); each deck group is built once while it lives.  Every mutated
run gets a group table of its own and empty memos (own_groups), so
that a fault in the engine or a group law reaches the generic values
and the groups the run builds, and nothing built under a fault
outlives its run.  A
check that no fault can turn from PASS to FAIL or refusal checks
nothing, so every key must catch some mutation and every mutation must
be caught by some key, unless it is named in UNCATCHABLE or UNCAUGHT
with its reason.  Both lists are checked both ways: an entry that starts
to be caught must leave its list.
"""

import functools
import json
from pathlib import Path

import pytest

from barbellcalc import deckgroup, equivariant, groupring, scenarios
from barbellcalc.equivariant import BarbellSpec
from barbellcalc.scenarios import THEOREMS, run_scenario, run_sweep, run_theorem

from test_scenarios import SAMPLE_PARAMS, own_groups

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "torus_k2_l3.json"
SCENARIO_KEY = "scenario torus_k2_l3.json"
SWEEP_KEY = "sweep morsesimple --max 3"
# row name -> (registry key, parameters)
ROWS = {key: (key, SAMPLE_PARAMS[key]) for key in sorted(THEOREMS)}
ROWS["linked-6crit n=2"] = ("linked-6crit", {"n": 2, "k": 1, "l": 2})
ROWS["linked-6crit n=3 k=l=2"] = ("linked-6crit", {"n": 3, "k": 2, "l": 2})
ROWS["genus1-hd vertical"] = ("genus1-hd", {"k": 100, "l": 200, "h": {0: 1}, "v": {0: 1}})
ROWS["less-simple l=3"] = ("less-simple", {"m": 205, "k": 2, "l": 3})


def _respec(change):
    """barbell_action applied to the spec as change rewrites it; every
    move of the engine goes through equivariant.action_sequence, which
    calls it by that name."""
    real = equivariant.barbell_action
    return [(equivariant, "barbell_action", lambda x, spec: real(x, change(spec)))]


def _with(spec, **fields):
    """A new BarbellSpec: spec with the given fields replaced."""
    old = {"cuff1": spec.cuff1, "cuff2": spec.cuff2, "holonomy": spec.holonomy,
           "signs": spec.signs, "iterate": spec.iterate, "offset": spec.offset}
    return BarbellSpec(**{**old, **fields})


def _seam_cancelling_equal_letters(a, b):
    # deckgroup._seam with x_g cancelling against x_g as well as x_g^-1
    i, j, stop = len(a), 0, len(b)
    while i and j < stop and ord(a[i - 1]) >> 1 == ord(b[j]) >> 1:
        i -= 1
        j += 1
    return i, j


# deckgroup._SWAP with x1 and x1^-1 left as they are, so that a word's
# inverse keeps its x1 letters
_SWAP_MISSING_X1 = {code: code if code >> 1 == 1 else code ^ 1 for code in range(2, 130)}


def _second_cuff_at_holonomy(x, spec):
    # barbell_action with the second cuff's correction placed at g hol,
    # not g hol^-1
    equivariant._check_spec(x.geometry, spec)
    product = x.geometry.group._product
    k = spec.iterate
    s1, s2 = k * spec.signs[0], k * spec.signs[1]
    hol = spec.holonomy.value
    terms = dict(x.terms)
    p1 = equivariant.equivariant_pairing(x, spec.cuff1)
    for u, c in p1.terms.items():
        key = (spec.cuff2, product(u, hol))
        terms[key] = terms.get(key, 0) + s1 * c
    p2 = p1 if spec.cuff2 == spec.cuff1 else equivariant.equivariant_pairing(x, spec.cuff2)
    for g, c in p2.terms.items():
        key = (spec.cuff1, product(g, hol))
        terms[key] = terms.get(key, 0) - s2 * c
    out = equivariant._equiv_class(x.geometry, terms)
    if spec.offset is not None:
        out = out.translate(spec.offset if k == 1 else spec.offset.pow(k))
    return out


def _meridian_read_as_zero(self, a, b, g):
    # Geometry.coefficient (g a value) with a meridian row's augmentation dropped
    row = self._stored(a, b)
    return 0 if row is None or self._meridian(a, b) else row.terms.get(g, 0)


_real_law = deckgroup._law


def _law_with_unreduced_residue_sums(kind, n):
    # a cyclic group's law on values with the product's "% m" left out
    product, inverse = _real_law(kind, n)
    return (lambda a, b: a + b) if kind == deckgroup.CYCLIC else product, inverse


def _disk_model_without_component_2(n):
    # scenarios._disk_model with removing component 2 left out
    coordinates = (1 << (n - 1)) - 1
    forced = 0
    for k in range(1, n - 1):
        forced |= coordinates & ~(1 << k)
    return forced == coordinates


def _ring_element_keeping_even_coefficients(group, coeffs, terms):
    # groupring._ring_element with the F2 reduction skipped: only zeros drop
    elem = object.__new__(groupring.RingElement)
    elem.group, elem.coeffs, elem.terms, elem._forms = group, coeffs, {e: c for e, c in terms.items() if c}, None
    return elem


def _bezout_sign(a, b):
    g, x, y = _real_extended_gcd(a, b)
    return g, x, -y


_real_extended_gcd = scenarios._extended_gcd
_real_dim = scenarios.f2_quotient_dim
_real_push = scenarios.push
_real_push_class = scenarios.push_class
_real_push_terms = scenarios.push_terms


def _with_images(phi, images, value=None):
    """phi's groups with other image values, and, given, another map on values."""
    out = deckgroup._group_map(phi.source, phi.target, images)
    if value is not None:
        object.__setattr__(out, "value", value)
    return out


def _push_dropping_l(elem, phi):
    # the torus sweeps' map (a, b, c) -> ak + bl + c read as (a, b, c) -> ak + c:
    # out of Z^3, the second image is the identity
    if phi.source.kind == deckgroup.FREE_ABELIAN:
        phi = _with_images(phi, (phi.images[0], phi.target.identity().value, phi.images[2]))
    return _real_push(elem, phi)


def _push_sending_inverse_letters_to_images(elem, phi):
    # a map out of F_s with x_i^-1 sent to x_i's image, not its inverse
    if phi.source.kind == deckgroup.FREE:
        product, identity = phi.target._product, phi.target.identity().value
        letters = {chr(2 * i + j): v for i, v in enumerate(phi.images, 1) for j in (0, 1)}
        value = lambda word: functools.reduce(product, map(letters.__getitem__, word), identity)
        phi = _with_images(phi, phi.images, value)
    return _real_push(elem, phi)


def _push_with_t_at_one(elem, phi):
    # the push into F2[s, t] with x3 -> 1, not t
    if phi.source.kind == deckgroup.FREE and phi.target.kind == deckgroup.FREE_ABELIAN:
        phi = _with_images(phi, (*phi.images[:2], phi.target.identity().value))
    return _real_push(elem, phi)


def _swapping_k_and_l(push):
    # the cover keys' map (a, b, c) -> (ak + bl + c) mod m read as (a, b, c) -> (al + bk + c) mod m
    def swapped(x, phi):
        k, l, c = phi.images
        return push(x, _with_images(phi, (l, k, c)))
    return swapped


# name -> [(module or class, attribute, replacement)]
MUTATIONS = {
    "correction sign": _respec(lambda spec: _with(spec, signs=(spec.signs[0], -spec.signs[1]))),
    "iterate off by one": _respec(lambda spec: _with(spec, iterate=spec.iterate + 1)),
    "holonomy inverted": _respec(lambda spec: _with(spec, holonomy=spec.holonomy.inv())),
    "second cuff at holonomy": [(equivariant, "barbell_action", _second_cuff_at_holonomy)],
    "reverse involution skipped": [(groupring.RingElement, "reverse", lambda self: self)],
    "seam cancels equal letters": [(deckgroup, "_seam", _seam_cancelling_equal_letters)],
    "inverse table misses x1": [(deckgroup, "_SWAP", _SWAP_MISSING_X1)],
    "residue sum not reduced mod m": [(deckgroup, "_law", _law_with_unreduced_residue_sums)],
    "membership always yes": [(scenarios, "summand_membership", lambda *args, **kwargs: True)],
    "quotient dimension plus one": [(scenarios, "f2_quotient_dim", lambda matrix: _real_dim(matrix) + 1)],
    "meridian augmentation dropped": [(equivariant.Geometry, "coefficient", _meridian_read_as_zero)],
    "Bezout sign": [(scenarios, "_extended_gcd", _bezout_sign)],
    "disk model skips a component": [(scenarios, "_disk_model", _disk_model_without_component_2)],
    "pushforward drops l": [(scenarios, "push", _push_dropping_l)],
    "substitution sends x_i^-1 to x_i's image": [(scenarios, "push", _push_sending_inverse_letters_to_images)],
    "image sends t to 1": [(scenarios, "push", _push_with_t_at_one)],
    # at both places the cover keys push their class: with its geometry, and its terms alone
    "class pushforward swaps k and l": [(scenarios, "push_class", _swapping_k_and_l(_real_push_class)),
                                        (scenarios, "push_terms", _swapping_k_and_l(_real_push_terms))],
    # the class's values land in Z/m, its geometry stays over Z^s
    "pushed geometry left over Z^s": [(equivariant, "push_geometry", lambda home, phi: home)],
    "ring result skips F2 reduction": [
        (module, "_ring_element", _ring_element_keeping_even_coefficients) for module in (groupring, equivariant)
    ],
}


def outcome(key: str) -> str:
    """PASS, FAIL, or refused (a ValueError: the CLI's exit 2)."""
    try:
        if key == SCENARIO_KEY:
            report = run_scenario(json.loads(SCENARIO.read_text()))
        elif key == SWEEP_KEY:
            return "PASS" if all(report.passed for report in run_sweep("morsesimple", 3)) else "FAIL"
        else:
            theorem, params = ROWS[key]
            report = run_theorem(theorem, **params)
    except ValueError:
        return "refused"
    return "PASS" if report.passed else "FAIL"


KEYS = list(ROWS) + [SCENARIO_KEY, SWEEP_KEY]


@functools.cache
def matrix() -> dict[str, dict[str, str]]:
    """mutation -> key -> outcome."""
    out = {}
    for name, patches in MUTATIONS.items():
        with own_groups(), pytest.MonkeyPatch.context() as patch:
            for owner, attr, replacement in patches:
                patch.setattr(owner, attr, replacement)
            out[name] = {key: outcome(key) for key in KEYS}
    return out


# keys no mutation can turn from PASS, and why
UNCATCHABLE = {}

# mutations no key catches, and why
UNCAUGHT = {}


def test_every_key_passes_unmutated():
    assert {key: outcome(key) for key in KEYS} == dict.fromkeys(KEYS, "PASS")


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_mutation_is_caught_by_a_key(mutation):
    caught = sorted(key for key, result in matrix()[mutation].items() if result != "PASS")
    assert bool(caught) != (mutation in UNCAUGHT), caught


@pytest.mark.parametrize("key", KEYS)
def test_each_key_catches_a_mutation(key):
    catches = sorted(name for name, row in matrix().items() if row[key] != "PASS")
    assert bool(catches) != (key in UNCATCHABLE), catches


@pytest.mark.parametrize("mutation", ["substitution sends x_i^-1 to x_i's image", "image sends t to 1"])
def test_a_linked_6crit_row_catches_each_substitution_fault(mutation):
    linked = sorted(row for row, (theorem, _) in ROWS.items() if theorem == "linked-6crit")
    assert [row for row in linked if matrix()[mutation][row] != "PASS"], matrix()[mutation]


def test_the_sweep_row_catches_the_pushforward_fault_and_what_the_theorem_row_catches():
    caught = {name for name, row in matrix().items() if row[SWEEP_KEY] != "PASS"}
    by_theorem = {name for name, row in matrix().items() if row["morsesimple-s3"] != "PASS"}
    assert "pushforward drops l" in caught and by_theorem <= caught, (caught, by_theorem)
    # a theorem call takes the sweep's route: both torus-knot rows push the generic f forward too
    assert {key: matrix()["pushforward drops l"][key] for key in ("morsesimple-s3", "higher-dim-knots")} == {
        "morsesimple-s3": "FAIL", "higher-dim-knots": "FAIL"}


def test_the_unknots_row_catches_a_wrong_quotient_dimension():
    # its three dimensions are read through scenarios.f2_quotient_dim, not the pushforward
    assert matrix()["quotient dimension plus one"]["unknots"] == "FAIL"


def test_the_vertical_genus1_hd_row_catches_the_pushforward_fault():
    # the default data's branch, horizontal only, has no l; with vertical
    # data the engine reads 200 against the closed form's 601
    assert matrix()["pushforward drops l"]["genus1-hd"] == "PASS"
    assert matrix()["pushforward drops l"]["genus1-hd vertical"] == "FAIL"


def test_a_less_simple_row_catches_the_class_pushforward_fault_and_the_engine_faults_behind_it():
    fault = matrix()["class pushforward swaps k and l"]
    assert [row for row in ("less-simple", "less-simple l=3") if fault[row] != "PASS"], fault
    # genus1-handlebody reads the same pushed terms, mod 2, on its branched cover
    assert fault["genus1-handlebody"] == "FAIL", fault
    # the generic class is built under each fault (own_groups empties its memo), so an engine fault reaches it
    assert matrix()["holonomy inverted"]["less-simple"] == "FAIL"


def test_a_less_simple_row_catches_a_geometry_left_unpushed():
    # the class's values land in Z/m, its geometry stays over Z^3: the closed-form class, built on it, differs
    fault = matrix()["pushed geometry left over Z^s"]
    assert fault["less-simple"] == fault["less-simple l=3"] == "FAIL", fault
