r"""
Built-in geometries and one runnable reproduction per distinctness
argument.

Each geometry packages the finite intersection data of a specific
cover: the unknotted-torus complement and its universal cover, the
genus-2 surface complement, the n-component sphere/torus link
complement with free deck group, the two-circle complement, m-fold
cyclic and branched cyclic covers, and the higher-dimensional torus
analogue.  Each theorem runner drives the barbell engine through one
argument, compares against the closed-form value when there is one,
and reports pass/fail; hypothesis bounds (winding numbers >= 1, cover
order m large enough) are enforced up front, not silently accepted.
`THEOREMS` holds one record per reproduction: its runner, coefficient
ring, obstruction-scenario alias and parameter sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from .deckgroup import (
    DeckElement,
    cyclic,
    element_to_json,
    free_abelian,
    free_group,
)
from .equivariant import (
    DISK,
    MERIDIAN,
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
    pair_classes,
    render_class,
    summand_membership,
)
from .groupring import (
    F2,
    INT,
    RingElement,
    laurent_span,
    render,
    to_term_list,
)
from .presentations import (
    antidiagonal_cokernel,
    brunnian_image,
    brunnian_relator,
    distinguish_brunnian_modules,
    brunnian_disk_obstruction,
    f2_quotient_dim,
    present_from_scenario,
)


class HypothesisError(ValueError):
    """Scenario parameters violate the hypotheses the argument needs."""


# ---------------------------------------------------------------------------
# Built-in geometries.


def _labels(spheres=(), disks=(), meridians=()):
    out = {}
    for name in spheres:
        out[name] = GeneratorLabel(name, SPHERE)
    for name in disks:
        out[name] = GeneratorLabel(name, DISK)
    for name in meridians:
        out[name] = GeneratorLabel(name, MERIDIAN)
    return out


def _poly(group, coeffs, coeff_by_exp: Mapping[int, int]) -> RingElement:
    """Rank-1 / cyclic shorthand: {exponent: coefficient}."""
    if group.kind == "cyclic":
        terms = {DeckElement(group, e % group.n): c for e, c in coeff_by_exp.items()}
    else:
        terms = {DeckElement(group, (e,)): c for e, c in coeff_by_exp.items()}
    return RingElement(group, coeffs, terms)


def _torus_geometry(name: str, horizontal_disk: bool) -> Geometry:
    # Universal cover of the unknotted-torus complement in the 4-sphere.
    # The horizontal sphere meets deck translates 0 and 1 of the vertical
    # sphere once each; each compressing disk meets its dual sphere once.
    group = free_abelian(1)
    labels = _labels(spheres=("S_h", "S_v"), disks=("D_v", "D_h") if horizontal_disk else ("D_v",))
    entries = {
        ("S_h", "S_v"): _poly(group, F2, {0: 1, 1: 1}),
        ("D_v", "S_v"): _poly(group, F2, {0: 1}),
    }
    if horizontal_disk:
        entries[("D_h", "S_h")] = _poly(group, F2, {0: 1})
    return Geometry(
        name=name,
        group=group,
        coeffs=F2,
        labels=labels,
        pairing=PairingTable(labels, entries),
        attaching=["S_v"],
        disks=["D_v"],
    )


def _torus_complement() -> Geometry:
    return _torus_geometry("torus_complement", horizontal_disk=True)


def _higher_dim_torus() -> Geometry:
    # 2n-dimensional analogue: the same pairing data without the
    # horizontal disk, so the engine output agrees with the 4-dimensional
    # computation term for term.
    return _torus_geometry("higher_dim_torus", horizontal_disk=False)


def _sphere_torus_link(n: int) -> Geometry:
    # Complement of (n-1) split 2-spheres and a torus; the deck group of
    # the universal cover is free on the n meridians, the torus meridian
    # being the last generator.
    if n < 2:
        raise HypothesisError(f"sphere_torus_link needs n >= 2, got {n}")
    group = free_group(n)
    labels = _labels(spheres=("S_h", "S_v"), disks=("D_v",))
    ident = group.identity()
    rho_n = group.generator(n)
    entries = {
        ("S_h", "S_v"): RingElement(group, F2, {ident: 1, rho_n: 1}),
        ("D_v", "S_v"): RingElement(group, F2, {ident: 1}),
    }
    return Geometry(
        name="sphere_torus_link",
        group=group,
        coeffs=F2,
        labels=labels,
        pairing=PairingTable(labels, entries),
        attaching=["S_v"],
        disks=["D_v"],
    )


def _genus2_complement() -> Geometry:
    # Universal cover of the genus-2 surface complement, integer
    # coefficients.  The two intersection points of S_h,s with S_v,s
    # carry opposite signs and land in adjacent deck translates (1 - t);
    # disk orientations are pinned by the golden presentation matrix
    # (see the acceptance tests), which forces <D_h,s, S_h,s> = -1.
    group = free_abelian(1)
    labels = _labels(
        spheres=("S_h_1", "S_h_2", "S_v_1", "S_v_2"),
        disks=("D_h_1", "D_h_2"),
    )
    entries = {
        ("S_h_1", "S_v_1"): _poly(group, INT, {0: 1, 1: -1}),
        ("S_h_2", "S_v_2"): _poly(group, INT, {0: 1, 1: -1}),
        ("D_h_1", "S_h_1"): _poly(group, INT, {0: -1}),
        ("D_h_2", "S_h_2"): _poly(group, INT, {0: -1}),
    }
    return Geometry(
        name="genus2_complement",
        group=group,
        coeffs=INT,
        labels=labels,
        pairing=PairingTable(labels, entries),
        attaching=["S_v_1", "S_v_2"],
        disks=["D_h_1", "D_h_2"],
    )


def _genus_g_complement(g: int) -> Geometry:
    # The genus-g surface complement itself (no cover): homology classes
    # of the 2g spheres and the compressing disk dual to S_h_1.  The two
    # points of S_h_i against S_v_i cancel algebraically here.
    if g < 1:
        raise HypothesisError(f"genus_g_complement needs g >= 1, got {g}")
    group = cyclic(1)
    spheres = tuple(f"S_h_{i}" for i in range(1, g + 1)) + tuple(
        f"S_v_{i}" for i in range(1, g + 1)
    )
    labels = _labels(spheres=spheres, disks=("D_h",))
    entries = {("D_h", "S_h_1"): _poly(group, INT, {0: 1})}
    return Geometry(
        name="genus_g_complement",
        group=group,
        coeffs=INT,
        labels=labels,
        pairing=PairingTable(labels, entries),
        attaching=[f"S_v_{i}" for i in range(1, g + 1)],
        disks=["D_h"],
    )


def _circles_complement() -> Geometry:
    # Complement of two split circles: meridian spheres S_L, S_R and the
    # disks they are dual to.  No cover is taken in these arguments.
    group = cyclic(1)
    labels = _labels(spheres=("S_L", "S_R"), disks=("D_L", "D_R"))
    entries = {
        ("D_R", "S_R"): _poly(group, INT, {0: 1}),
        ("D_L", "S_L"): _poly(group, INT, {0: 1}),
    }
    return Geometry(
        name="circles_complement",
        group=group,
        coeffs=INT,
        labels=labels,
        pairing=PairingTable(labels, entries),
        disks=["D_R", "D_L"],
    )


def _cyclic_cover(m: int) -> Geometry:
    # m-fold cyclic cover unwinding one meridian: one chosen summand
    # carries the disk D and the parallel sphere copies S, S' (the same
    # homology class, recorded as an alias).  Lifted classes form a free
    # basis across the m summands.
    if m < 1:
        raise HypothesisError(f"cyclic cover order must be >= 1, got {m}")
    group = cyclic(m)
    labels = _labels(spheres=("S", "S_prime"), disks=("D",))
    entries = {
        ("D", "S"): _poly(group, INT, {0: 1}),
        ("D", "S_prime"): _poly(group, INT, {0: 1}),
    }
    return Geometry(
        name="cyclic_cover",
        group=group,
        coeffs=INT,
        labels=labels,
        pairing=PairingTable(labels, entries),
        disks=["D"],
        aliases={"S_prime": "S"},
    )


# The meridian row of the branched cover has m terms; 10**6 of them take
# about 330 MB and 3 s, so larger orders are refused rather than built.
MAX_BRANCHED_COVER_ORDER = 10**6


def _branched_cover(m: int) -> Geometry:
    # m-fold branched cyclic cover along the torus, mod-2 coefficients.
    # Every deck translate of the lifted compressing disk shares the
    # same boundary circle (the branch locus is fixed), so the meridian
    # sphere mu pairs 1 with each translate.  The lifted classes do not
    # form a free basis here; membership goes through pairings.
    if m < 1:
        raise HypothesisError(f"branched cover order must be >= 1, got {m}")
    if m > MAX_BRANCHED_COVER_ORDER:
        raise HypothesisError(
            f"branched cover order must be <= {MAX_BRANCHED_COVER_ORDER}, got {m}"
        )
    group = cyclic(m)
    labels = _labels(spheres=("S", "S_prime"), disks=("D",), meridians=("mu",))
    entries = {
        ("D", "S"): _poly(group, F2, {0: 1}),
        ("D", "S_prime"): _poly(group, F2, {0: 1}),
        ("mu", "D"): _poly(group, F2, {i: 1 for i in range(m)}),
    }
    return Geometry(
        name="branched_cover",
        group=group,
        coeffs=F2,
        labels=labels,
        pairing=PairingTable(labels, entries),
        disks=["D"],
        kernel_labels=["mu"],
        free_basis=False,
        aliases={"S_prime": "S"},
    )


GEOMETRY_BUILDERS: dict[str, Callable[..., Geometry]] = {
    "torus_complement": _torus_complement,
    "higher_dim_torus": _higher_dim_torus,
    "sphere_torus_link": _sphere_torus_link,
    "genus2_complement": _genus2_complement,
    "genus_g_complement": _genus_g_complement,
    "circles_complement": _circles_complement,
    "cyclic_cover": _cyclic_cover,
    "branched_cover": _branched_cover,
}


def builtin_geometry(name: str, **params) -> Geometry:
    if name not in GEOMETRY_BUILDERS:
        raise GeometryError(
            f"unknown geometry {name!r}; available: {', '.join(sorted(GEOMETRY_BUILDERS))}"
        )
    return GEOMETRY_BUILDERS[name](**params)


# ---------------------------------------------------------------------------
# Reports.


@dataclass
class Report:
    name: str
    params: dict
    computed: dict
    expected: dict = field(default_factory=dict)
    passed: bool = True
    notes: list[str] = field(default_factory=list)

    def to_machine(self) -> dict:
        return {
            "theorem": self.name,
            "params": self.params,
            "computed": self.computed,
            "expected": self.expected,
            "passed": self.passed,
            "notes": self.notes,
        }


def _class_json(x: EquivClass) -> list[list]:
    return [[label, element_to_json(deck), x.terms[(label, deck)]] for label, deck in x.support()]


def _poly_json(p: RingElement) -> dict:
    return {"terms": to_term_list(p), "rendered": render(p)}


def render_table(report: Report) -> str:
    lines = [f"theorem: {report.name}"]
    if report.params:
        lines.append("params: " + ", ".join(f"{k}={report.params[k]}" for k in sorted(report.params)))
    for key in sorted(report.computed):
        lines.append(f"  {key}: {_fmt(report.computed[key])}")
    for key in sorted(report.expected):
        lines.append(f"  expected {key}: {_fmt(report.expected[key])}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "infinite"
    if isinstance(value, dict) and "rendered" in value:
        return value["rendered"]
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def render_machine(report: Report) -> str:
    return json.dumps(report.to_machine(), sort_keys=True)


# ---------------------------------------------------------------------------
# Closed-form expectations.


def _require(cond: bool, message: str):
    if not cond:
        raise HypothesisError(message)


def morsesimple_f(k: int, l: int) -> RingElement:
    """The closed-form mod-2 intersection polynomial
    1 + sum over signs of t^(±k ± l ± 1)."""
    group = free_abelian(1)
    f = _poly(group, F2, {0: 1})
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                f = f.add(_poly(group, F2, {e1 * k + e2 * l + e3: 1}))
    return f


def higher_dim_f(k: int, l: int) -> RingElement:
    """1 + (t + t^-1)(t^k + t^-k)(t^l + t^-l) over F2."""
    group = free_abelian(1)
    out = _poly(group, F2, {1: 1, -1: 1})
    out = out.mul(_poly(group, F2, {k: 1, -k: 1}))
    out = out.mul(_poly(group, F2, {l: 1, -l: 1}))
    return _poly(group, F2, {0: 1}).add(out)


def _hol(geometry: Geometry, exponent: int) -> DeckElement:
    return geometry.group.generator(1, exponent) if exponent else geometry.identity()


def _torus_barbells(geometry: Geometry, k: int, l: int) -> list[BarbellSpec]:
    """Horizontal barbell first, then vertical, matching the composition
    in which the horizontal diffeomorphism is applied first."""
    return [
        BarbellSpec("S_h", "S_h", _hol(geometry, k)),
        BarbellSpec("S_v", "S_v", _hol(geometry, l)),
    ]


# ---------------------------------------------------------------------------
# Theorem runners.  Each takes the key of its registry record first and
# names its report by it.


def _run_torus_knot(
    geometry: str, closed_form: Callable[[int, int], RingElement], name: str, k: int, l: int
) -> Report:
    _require(k >= 1 and l >= 1, f"winding numbers must satisfy k, l >= 1, got k={k}, l={l}")
    geo = builtin_geometry(geometry)
    matrix = present_from_scenario(geo, _torus_barbells(geo, k, l))
    f = matrix.entry(0, 0)
    dim = f2_quotient_dim(matrix)
    expected_f = closed_form(k, l)
    expected_dim = 2 * k + 2 * l + 2
    return Report(
        name=name,
        params={"k": k, "l": l},
        computed={"f": _poly_json(f), "dim": dim},
        expected={"f": _poly_json(expected_f), "dim": expected_dim},
        passed=(f == expected_f and dim == expected_dim),
    )


UNKNOT_VARIANTS = ("v-only", "h-only", "h-after-v")


def _run_unknots(name: str, k: int = 1, l: int = 1, variant: str | None = None) -> Report:
    _require(k >= 1 and l >= 1, f"winding numbers must satisfy k, l >= 1, got k={k}, l={l}")
    geo = builtin_geometry("torus_complement")
    specs = {
        "v-only": [BarbellSpec("S_v", "S_v", _hol(geo, l))],
        "h-only": [BarbellSpec("S_h", "S_h", _hol(geo, k))],
        # the horizontal diffeomorphism composed after the vertical one
        "h-after-v": [
            BarbellSpec("S_v", "S_v", _hol(geo, l)),
            BarbellSpec("S_h", "S_h", _hol(geo, k)),
        ],
    }
    variants = [variant] if variant else list(UNKNOT_VARIANTS)
    if any(v not in specs for v in variants):
        raise HypothesisError(f"unknown variant {variant!r}; choose from {UNKNOT_VARIANTS}")
    computed = {}
    passed = True
    one = RingElement.one(geo.group, geo.coeffs)
    for v in variants:
        matrix = present_from_scenario(geo, specs[v])
        f = matrix.entry(0, 0)
        computed[v] = {"f": _poly_json(f), "dim": f2_quotient_dim(matrix)}
        passed = passed and f == one
    return Report(
        name=name,
        params={"k": k, "l": l, **({"variant": variant} if variant else {})},
        computed=computed,
        expected={"f": "1", "dim": 0},
        passed=passed,
        notes=["trivial module: the complement presentation is a unit"],
    )


def _run_linked_6crit(
    name: str, n: int, k: int, l: int, kp: int | None = None, lp: int | None = None
) -> Report:
    _require(n >= 2, f"need n >= 2 components, got {n}")
    _require(k >= 1 and l >= 1, f"winding numbers must satisfy k, l >= 1, got k={k}, l={l}")
    from .deckgroup import brunnian_word
    from .groupring import is_monomial_unit

    geo = builtin_geometry("sphere_torus_link", n=n)
    w = brunnian_word(n)
    specs = [BarbellSpec("S_h", "S_h", w.pow(k)), BarbellSpec("S_v", "S_v", w.pow(l))]
    matrix = present_from_scenario(geo, specs)
    engine_f = matrix.entry(0, 0)
    formula_f = brunnian_relator(k, l, n)
    image = brunnian_image(k, l, n)
    nontrivial = not is_monomial_unit(image)
    computed = {
        "relator": _poly_json(engine_f),
        "image_in_st": _poly_json(image),
        "nontrivial": nontrivial,
    }
    passed = engine_f == formula_f and nontrivial
    params = {"n": n, "k": k, "l": l}
    if kp is not None and lp is not None:
        _require(kp >= 1 and lp >= 1, "winding numbers must be >= 1")
        verdict = distinguish_brunnian_modules(k, l, kp, lp, n)
        computed["distinguished"] = verdict
        params.update({"kp": kp, "lp": lp})
        passed = passed and verdict == ({k, l} != {kp, lp})
    return Report(
        name=name,
        params=params,
        computed=computed,
        expected={"relator": _poly_json(formula_f)},
        passed=passed,
        notes=["sublink triviality is a geometric input here, not a computation"],
    )


def _run_simple_5d(name: str, k: int) -> Report:
    _require(k >= 1, f"iteration count must be >= 1, got k={k}")
    geo = builtin_geometry("genus2_complement")
    spec = BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=k)
    matrix = present_from_scenario(geo, [spec])
    expected = [
        [_poly(geo.group, INT, {}), _poly(geo.group, INT, {0: k, -1: -k})],
        [_poly(geo.group, INT, {-1: k, 0: -k}), _poly(geo.group, INT, {})],
    ]
    factors = antidiagonal_cokernel(matrix)
    expected_factor = _poly(geo.group, INT, {1: k, 0: -k})  # k(t - 1)
    matches = all(matrix.entry(r, s) == expected[r][s] for r in range(2) for s in range(2))
    return Report(
        name=name,
        params={"k": k},
        computed={
            "matrix": [[_poly_json(matrix.entry(r, s)) for s in range(2)] for r in range(2)],
            "cokernel": [_poly_json(g) for g in factors],
        },
        expected={
            "matrix": [[_poly_json(expected[r][s]) for s in range(2)] for r in range(2)],
            "cokernel": [_poly_json(expected_factor)] * 2,
        },
        passed=matches and factors == [expected_factor, expected_factor],
    )


def _identity_summand(geo: Geometry, names: list[str]):
    ident = geo.identity()
    return {(name, ident) for name in names}


def _iterated(geo: Geometry, start: str, cuff1: str, cuff2: str, power: int) -> EquivClass:
    """The basis class `start` moved by the power-th iterate of the
    barbell with cuffs (cuff1, cuff2) and a trivial bar."""
    moved = geo.basis_class(start)
    if power:
        moved = barbell_action(moved, BarbellSpec(cuff1, cuff2, geo.identity(), iterate=power))
    return moved


def _run_circle_splitting(name: str, k: int, l: int = 0) -> Report:
    diff = k - l
    geo = builtin_geometry("circles_complement")
    d_r = geo.basis_class("D_R")
    moved = _iterated(geo, "D_R", "S_L", "S_R", diff)
    expected_class = d_r.add(geo.basis_class("S_L", coeff=-diff)) if diff else d_r
    member = summand_membership(moved, _identity_summand(geo, ["D_R", "S_R"]))
    distinguished = not member
    return Report(
        name=name,
        params={"k": k, "l": l},
        computed={
            "class": _class_json(moved),
            "class_rendered": render_class(moved),
            "in_right_summand": member,
            "distinguished": distinguished,
        },
        expected={"class": _class_json(expected_class), "distinguished": k != l},
        passed=(moved == expected_class and distinguished == (k != l)),
        notes=[] if k != l else ["equal powers: not distinguished (the test is inconclusive)"],
    )


def _run_simple_knotted_handlebody(name: str, k: int, l: int = 0, g: int = 2) -> Report:
    _require(g >= 2, f"the two-cuff argument needs genus g >= 2, got {g}")
    geo = builtin_geometry("genus_g_complement", g=g)
    d_h = geo.basis_class("D_h")
    class_k, class_l = (_iterated(geo, "D_h", "S_h_1", "S_h_2", power) for power in (k, l))
    expected_k = d_h.add(geo.basis_class("S_h_2", coeff=k)) if k else d_h
    member = summand_membership(class_k.sub(class_l), _identity_summand(geo, ["D_h"]))
    distinguished = not member
    return Report(
        name=name,
        params={"k": k, "l": l, "g": g},
        computed={
            "class": _class_json(class_k),
            "class_rendered": render_class(class_k),
            "distinguished": distinguished,
        },
        expected={"class": _class_json(expected_k), "distinguished": k != l},
        passed=(class_k == expected_k and distinguished == (k != l)),
    )


def _run_disks_linked(name: str, k: int, l: int) -> Report:
    geo = builtin_geometry("circles_complement")
    # the glued 2-sphere's class in the complement of the other component
    # is the difference of the two disk classes; only the meridian
    # coefficient survives
    class_k, class_l = (_iterated(geo, "D_R", "S_L", "S_R", power) for power in (k, l))
    mu_coefficient = class_k.sub(class_l).terms.get(("S_L", geo.identity()), 0)
    linked = mu_coefficient != 0
    return Report(
        name=name,
        params={"k": k, "l": l},
        computed={"mu_L_coefficient": mu_coefficient, "linked": linked},
        expected={"mu_L_coefficient": l - k, "linked": k != l},
        passed=(mu_coefficient == l - k and linked == (k != l)),
        notes=[] if k != l else ["equal powers: links not distinguished"],
    )


def _cover_move(
    geometry: str, m: int, k: int, l: int, bar: Callable[[Geometry, int], DeckElement] = _hol
) -> tuple[Geometry, dict[int, DeckElement], EquivClass]:
    """Check the cover hypotheses, then move the disk D of the m-fold
    cover by the barbell (S_prime, S) whose bar winds k times, followed
    by the inverse of the one winding l times.  `bar` maps the cover and
    a winding number to the bar's deck element.  Returns the cover, the
    bars by winding number and the moved class."""
    _require(k >= 1, f"winding number must satisfy k >= 1, got k={k}")
    _require(l >= 0, f"second winding number must be >= 0, got l={l}")
    bound = 2 * k + 2 * l + 100
    _require(m > bound, f"cover order must satisfy m > {bound}, got m={m}")
    geo = builtin_geometry(geometry, m=m)
    bars = {power: bar(geo, power) for power in (k, l)}
    moved = barbell_action(geo.basis_class("D"), BarbellSpec("S_prime", "S", bars[k]))
    if l:
        moved = barbell_action(moved, BarbellSpec("S_prime", "S", bars[l], iterate=-1))
    return geo, bars, moved


def _run_less_simple(name: str, m: int, k: int, l: int = 0) -> Report:
    geo, _, moved = _cover_move("cyclic_cover", m, k, l)
    member = summand_membership(moved, _identity_summand(geo, ["D", "S", "S_prime"]))
    distinguished = not member
    expected_terms = {("D", geo.identity()): 1}
    for power, sign in ((k, 1), (l, -1)):
        if power:
            expected_terms[("S", _hol(geo, power))] = expected_terms.get(("S", _hol(geo, power)), 0) + sign
            expected_terms[("S_prime", _hol(geo, -power))] = (
                expected_terms.get(("S_prime", _hol(geo, -power)), 0) - sign
            )
    expected_class = EquivClass(geo, expected_terms)
    return Report(
        name=name,
        params={"m": m, "k": k, "l": l},
        computed={
            "class": _class_json(moved),
            "class_rendered": render_class(moved),
            "in_chosen_summand": member,
            "distinguished": distinguished,
        },
        expected={"class": _class_json(expected_class), "distinguished": k != l},
        passed=(moved == expected_class and distinguished == (k != l)),
    )


def _run_splitting_spheres_mixed(name: str, m: int, k: int, l: int = 0) -> Report:
    # The finite cover comes from quotienting the rank-2 meridian lattice
    # by (m, 0) and (0, 1): weights (1, 0) mod m.  The bar winds k times
    # around the first meridian, so its residue is the weighted
    # projection of x1^k.
    from .deckgroup import cyclic_project

    x1 = free_group(2).generator(1)
    geo, residues, moved = _cover_move(
        "cyclic_cover", m, k, l, bar=lambda geo, power: cyclic_project(x1.pow(power), (1, 0), m)
    )
    member = summand_membership(moved, _identity_summand(geo, ["D", "S", "S_prime"]))
    distinguished = not member
    return Report(
        name=name,
        params={"m": m, "k": k, "l": l},
        computed={
            "bar_residues": {str(p): residues[p].value for p in residues},
            "class": _class_json(moved),
            "class_rendered": render_class(moved),
            "distinguished": distinguished,
        },
        expected={"distinguished": k != l},
        passed=(distinguished == (k != l)),
        notes=["no closed-form class is on record for this cover; reporting the computed one"],
    )


def _run_branched(name: str, m: int, k: int, l: int = 0) -> Report:
    geo, _, moved = _cover_move("branched_cover", m, k, l)
    d = geo.basis_class("D")
    x = moved.sub(d)
    mu = geo.basis_class("mu")
    probes = [geo.basis_class("D", _hol(geo, k)), d]
    witnesses = {
        "x_dot_rho_k_D": pair_classes(x, probes[0]),
        "x_dot_D": pair_classes(x, probes[1]),
        "mu_dot_D": pair_classes(mu, d),
    }
    member = summand_membership(x, allowed=(), kernel_gens=[mu], probes=probes)
    refuted = not member
    degenerate = k == l
    expected_witnesses = {"x_dot_rho_k_D": 1, "x_dot_D": 0, "mu_dot_D": 1}
    passed = refuted == (not degenerate)
    if not degenerate:
        passed = passed and witnesses == expected_witnesses
    return Report(
        name=name,
        params={"m": m, "k": k, "l": l},
        computed={
            "class": _class_json(x),
            "class_rendered": render_class(x),
            "witnesses": witnesses,
            "in_meridian_span": member,
            "refuted": refuted,
        },
        expected={"witnesses": expected_witnesses, "refuted": not degenerate},
        passed=passed,
        notes=[] if not degenerate else ["equal powers: the class collapses to zero, nothing to refute"],
    )


# -- Heegaard-genus-1 generalization ---------------------------------------


def _coeff_map(data: Mapping) -> dict[int, int]:
    out = {}
    for key, value in data.items():
        coeff = int(value) % 2
        if coeff:
            out[int(key)] = coeff
    return out


def genus1_hd_dim(
    h: Mapping, v: Mapping, b: Mapping, k: int, l: int
) -> tuple[int | None, int | None]:
    """Dimension of the mod-2 second homology for the twisted genus-1
    scenario with prescribed intersection data (h, v, b), both by the
    piecewise closed form and by driving the engine on a synthetic
    class; callers should expect the two to agree whenever the closed
    form applies (it requires the class to be homologically nonzero).
    """
    h, v, b = _coeff_map(h), _coeff_map(v), _coeff_map(b)
    radius = lambda data: max((abs(i) for i in data), default=0)
    m_b, m_h, m_v = radius(b), radius(h), radius(v)
    _require(k >= m_b + m_h + 100, f"need k >= {m_b + m_h + 100}, got k={k}")
    _require(l >= m_b + m_h + m_v + 100, f"need l >= {m_b + m_h + m_v + 100}, got l={l}")

    base = builtin_geometry("torus_complement")
    geo = base.extend(
        GeneratorLabel("phi", SPHERE),
        {
            "S_h": _poly(base.group, F2, h),
            "S_v": _poly(base.group, F2, v),
            "D_h": _poly(base.group, F2, b),
        },
    )
    # vertical barbell acts first here; the horizontal one is applied last
    moved = action_sequence(
        geo.basis_class("phi"),
        [BarbellSpec("S_v", "S_v", _hol(geo, l)), BarbellSpec("S_h", "S_h", _hol(geo, k))],
    )
    engine = laurent_span(equivariant_pairing(moved, "D_h"))

    if not h and not v:
        closed = None  # the class is nullhomologous; no closed form applies
    elif not v:
        closed = 2 * k + max(h) - min(h)
    else:
        closed = 2 * k + 2 * l + 1 + max(v) - min(v)
    return closed, engine


def _run_genus1_hd(name: str, k: int, l: int, h=None, v=None, b=None) -> Report:
    h = h if h is not None else {0: 1}
    v = v or {}
    b = b or {}
    closed, engine = genus1_hd_dim(h, v, b, k, l)
    if not _coeff_map(h) and not _coeff_map(v):
        branch = "degenerate"
    elif not _coeff_map(v):
        branch = "horizontal only (2k + span h)"
    else:
        branch = "vertical present (2k + 2l + 1 + span v)"
    return Report(
        name=name,
        params={"k": k, "l": l, "h": {str(i): c for i, c in _coeff_map(h).items()},
                "v": {str(i): c for i, c in _coeff_map(v).items()},
                "b": {str(i): c for i, c in _coeff_map(b).items()}},
        computed={"dim_engine": engine, "dim_closed_form": closed, "branch": branch},
        expected={} if closed is None else {"dim": closed},
        passed=(closed is None or closed == engine),
        notes=[] if closed is not None else
        ["intersection data is nullhomologous; closed form does not apply"],
    )


# -- Montesinos criterion and the gluing-matrix search ----------------------


@dataclass(frozen=True)
class GluingMatrix:
    """An H1 matrix (a b; c d) of a torus diffeomorphism, det +1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise HypothesisError("gluing matrix must have determinant +1")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def montesinos_parity(matrix: GluingMatrix) -> bool:
    """The diffeomorphism extends over the 4-sphere iff a+b+c+d is even."""
    return sum(matrix.entries()) % 2 == 0


def montesinos_matrix_for(p: int, q: int) -> GluingMatrix:
    """A det-1, even-sum matrix with first column (p; q), after replacing
    (p, q) by (p, p+q) when p+q is even (both odd for coprime inputs):
    the two candidate second columns differ by the first, and exactly
    one has even total sum."""
    if p == 0 or q == 0:
        raise HypothesisError("p and q must be nonzero")
    if math.gcd(p, q) != 1:
        raise HypothesisError(f"p={p} and q={q} must be coprime")
    if (p + q) % 2 == 0:
        q = p + q
    g, x, y = _extended_gcd(p, q)
    # x p + y q = 1, so p* = x, q* = -y gives p p* - q q* = 1
    p_star, q_star = x, -y
    first = GluingMatrix(p, q_star, q, p_star)
    if montesinos_parity(first):
        return first
    second = GluingMatrix(p, q_star + p, q, p_star + q)
    assert montesinos_parity(second)
    return second


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def classify_gluing(matrix: GluingMatrix) -> str:
    """Tag the doubled-handlebody manifold by the first column (the
    image of the compressing curve): a zero mu-part gives the 3-sphere,
    a zero lambda-part gives S1 x S2, and otherwise the lens tag
    L(p, q) reads the column directly."""
    a, c = matrix.a, matrix.c
    if a < 0 or (a == 0 and c < 0):
        a, c = -a, -c
    if a == 0:
        return "S3"
    if c == 0:
        return "S1xS2"
    if a == 1:
        return "S3"
    return f"L({a},{c})"


def _run_morsesimple3mfd(name: str, p: int | None = None, q: int | None = None) -> Report:
    if p is None or q is None:
        identity = GluingMatrix(1, 0, 0, 1)
        rotation = GluingMatrix(0, -1, 1, 0)
        computed = {
            "identity": {"parity_even": montesinos_parity(identity), "manifold": classify_gluing(identity)},
            "quarter_turn": {"parity_even": montesinos_parity(rotation), "manifold": classify_gluing(rotation)},
        }
        passed = (
            computed["identity"]["manifold"] == "S1xS2"
            and computed["quarter_turn"]["manifold"] == "S3"
            and computed["identity"]["parity_even"]
            and computed["quarter_turn"]["parity_even"]
        )
        return Report(
            name=name,
            params={},
            computed=computed,
            expected={"identity": "S1xS2", "quarter_turn": "S3"},
            passed=passed,
        )
    matrix = montesinos_matrix_for(p, q)
    substituted = (p + q) % 2 == 0
    target = f"L({p},{p + q})" if substituted else f"L({p},{q})"
    tag = classify_gluing(matrix)
    return Report(
        name=name,
        params={"p": p, "q": q},
        computed={
            "matrix": list(matrix.entries()),
            "entry_sum_even": montesinos_parity(matrix),
            "manifold": tag,
            "substituted": substituted,
        },
        expected={"manifold": target, "entry_sum_even": True},
        passed=(tag == target and montesinos_parity(matrix)),
    )


def _run_no_brunnian_2disk(name: str, n: int) -> Report:
    forced = brunnian_disk_obstruction(n)
    return Report(
        name=name,
        params={"n": n},
        computed={"disks_forced_isotopic": forced},
        expected={"disks_forced_isotopic": n >= 3},
        passed=(forced == (n >= 3)),
    )


# ---------------------------------------------------------------------------
# The theorem registry: one record per reproduction.


@dataclass(frozen=True)
class Sweep:
    """A parameter grid over one theorem: `grid(top, n)` lists the jobs'
    parameters in the order they run, for sizes up to `top` (`n`: the
    component count, or None for the default)."""

    name: str
    default_max: int
    grid: Callable[[int, int | None], list[dict]]


@dataclass(frozen=True)
class Theorem:
    """A reproduction: its runner, the coefficient ring it is computed
    over (None: no group ring is involved; the CLI --field flag is
    validated against it), the obstruction-scenario name it answers to,
    and its parameter sweep."""

    name: str
    runner: Callable[..., Report]
    field: str | None
    obstruction: str | None = None
    sweep: Sweep | None = None


def _square_grid(top: int, n: int | None) -> list[dict]:
    return [{"k": k, "l": l} for k in range(1, top + 1) for l in range(1, top + 1)]


def _brunnian_grid(top: int, n: int | None) -> list[dict]:
    # every two distinct unordered winding pairs {k, l}, {kp, lp}
    n = 2 if n is None else n
    pairs = [(k, l) for k in range(1, top + 1) for l in range(k, top + 1)]
    return [
        {"n": n, "k": k, "l": l, "kp": kp, "lp": lp}
        for i, (k, l) in enumerate(pairs)
        for kp, lp in pairs[i + 1 :]
    ]


def _montesinos_grid(top: int, n: int | None) -> list[dict]:
    return [
        {"p": p, "q": q} for p in range(2, top + 1) for q in range(p + 1, top + 1) if math.gcd(p, q) == 1
    ]


THEOREMS: dict[str, Theorem] = {
    record.name: record
    for record in (
        Theorem("morsesimple-s3", partial(_run_torus_knot, "torus_complement", morsesimple_f), F2,
                sweep=Sweep("morsesimple", 10, _square_grid)),
        Theorem("higher-dim-knots", partial(_run_torus_knot, "higher_dim_torus", higher_dim_f), F2,
                sweep=Sweep("higher-dim", 10, _square_grid)),
        Theorem("unknots", _run_unknots, F2),
        Theorem("linked-6crit", _run_linked_6crit, F2, sweep=Sweep("brunnian", 4, _brunnian_grid)),
        Theorem("simple-5d", _run_simple_5d, INT),
        Theorem("circle-splittingspheres", _run_circle_splitting, INT, "simple_splitting_circles"),
        Theorem("simple-splitting", _run_circle_splitting, INT, "simple_splitting_surfaces"),
        Theorem("simple-knotted-handlebody", _run_simple_knotted_handlebody, INT, "simple_handlebody"),
        Theorem("disks-5dlinked", _run_disks_linked, INT, "disks_linked_b5"),
        Theorem("less-simple", _run_less_simple, INT, "less_simple"),
        Theorem("simple-splitting-spheres", _run_splitting_spheres_mixed, INT, "simple_splitting_spheres_mixed"),
        Theorem("genus1-handlebody", _run_branched, F2, "branched_contradiction"),
        Theorem("genus1-hd", _run_genus1_hd, F2),
        Theorem("morsesimple3mfd", _run_morsesimple3mfd, None, sweep=Sweep("montesinos", 30, _montesinos_grid)),
        Theorem("no-brunnian-2disk", _run_no_brunnian_2disk, None),
    )
}


def run_theorem(name: str, **params) -> Report:
    if name not in THEOREMS:
        raise HypothesisError(
            f"unknown theorem {name!r}; available: {', '.join(sorted(THEOREMS))}"
        )
    return THEOREMS[name].runner(name, **params)


def obstruction_scenario(name: str, **params) -> Report:
    aliases = {record.obstruction: key for key, record in THEOREMS.items() if record.obstruction}
    if name not in aliases:
        raise HypothesisError(
            f"unknown obstruction scenario {name!r}; available: {', '.join(sorted(aliases))}"
        )
    return run_theorem(aliases[name], **params)


# ---------------------------------------------------------------------------
# Scenario files: {geometry, barbells, attaching, disks, field, params,
# expected?} as JSON-compatible structured text.


_FIELD_NAMES = {"f2": F2, "int": INT}


def _field(name) -> str:
    wanted = _FIELD_NAMES.get(str(name).lower())
    if wanted is None:
        raise HypothesisError(f"unknown field {name!r}; use 'f2' or 'int'")
    return wanted


def _custom_geometry(spec: Mapping) -> Geometry:
    """An inline geometry: deck group, field, labelled generators, and a
    serialized pairing table.  Accepted as data; nothing checks that it
    comes from an actual embedded configuration."""
    from .groupring import from_term_list

    group_spec = spec["group"]
    kind = group_spec["kind"]
    if kind == "free":
        group = free_group(int(group_spec["rank"]))
    elif kind == "free_abelian":
        group = free_abelian(int(group_spec["rank"]))
    elif kind == "cyclic":
        group = cyclic(int(group_spec["modulus"]))
    else:
        raise HypothesisError(f"unknown group kind {kind!r}")
    coeffs = _field(spec.get("field", "f2"))
    labels = {name: GeneratorLabel(name, label_kind) for name, label_kind in spec["labels"].items()}
    entries = {}
    for a, b, terms in spec.get("pairings", []):
        entries[(a, b)] = from_term_list(terms, group, coeffs)
    return Geometry(
        name=str(spec.get("name", "custom")),
        group=group,
        coeffs=coeffs,
        labels=labels,
        pairing=PairingTable(labels, entries),
        attaching=list(spec.get("attaching", [])),
        disks=list(spec.get("disks", [])),
    )


def run_scenario(data: Mapping) -> Report:
    geometry_spec = data.get("geometry")
    if isinstance(geometry_spec, str):
        geo = builtin_geometry(geometry_spec)
        geo_name = geometry_spec
    elif isinstance(geometry_spec, Mapping) and "labels" in geometry_spec:
        geo = _custom_geometry(geometry_spec)
        geo_name = geo.name
    elif isinstance(geometry_spec, Mapping):
        geo_params = {key: value for key, value in geometry_spec.items() if key != "name"}
        geo_name = geometry_spec["name"]
        geo = builtin_geometry(geo_name, **geo_params)
    else:
        raise HypothesisError("scenario needs a 'geometry' name or object")

    if "field" in data and _field(data["field"]) != geo.coeffs:
        raise HypothesisError(
            f"geometry {geo_name} is defined over {geo.coeffs}, not {_field(data['field'])}"
        )

    from .deckgroup import element_from_json

    barbells = []
    for spec in data.get("barbells", []):
        holonomy = element_from_json(spec.get("holonomy", 0), geo.group) if "holonomy" in spec else geo.identity()
        signs = tuple(spec.get("signs", (1, 1)))
        offset = element_from_json(spec["offset"], geo.group) if "offset" in spec else None
        barbells.append(
            BarbellSpec(
                cuff1=spec["cuff1"],
                cuff2=spec["cuff2"],
                holonomy=holonomy,
                signs=signs,
                iterate=int(spec.get("iterate", 1)),
                offset=offset,
            )
        )

    attaching = data.get("attaching")
    disks = data.get("disks")
    matrix = present_from_scenario(geo, barbells, attaching, disks)
    rows, cols = matrix.shape
    computed: dict = {
        "matrix": [[_poly_json(matrix.entry(r, s)) for s in range(cols)] for r in range(rows)],
    }
    if matrix.shape == (1, 1) and geo.coeffs == F2 and geo.group.kind == "free_abelian" and geo.group.n == 1:
        computed["dim"] = f2_quotient_dim(matrix)

    passed = True
    expected = data.get("expected", {})
    if "matrix" in expected:
        from .groupring import from_term_list

        for r, row in enumerate(expected["matrix"]):
            for s, terms in enumerate(row):
                wanted = from_term_list(terms, geo.group, geo.coeffs)
                if matrix.entry(r, s) != wanted:
                    passed = False
    if "dim" in expected:
        passed = passed and computed.get("dim") == expected["dim"]

    return Report(
        name="scenario",
        params={key: data[key] for key in data if key != "expected"},
        computed=computed,
        expected=dict(expected),
        passed=passed,
    )
