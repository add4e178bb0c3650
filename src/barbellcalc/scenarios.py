r"""
Built-in geometries and one runnable reproduction per distinctness
argument.

Each geometry packages the finite intersection data of a specific
cover: the unknotted-torus complement and its universal cover, the
genus-2 surface complement, the n-component sphere/torus link
complement with free deck group, the two-circle complement, and m-fold
cyclic and branched cyclic covers (one builder, `_cover`); the
higher-dimensional torus analogue has the torus complement's pairing
data and runs on it.  A builder returns its cover's description in the
inline form of a scenario file, and one reader, `_read_geometry`, reads
every description; a scenario file's own attaching spheres and belt disks
replace the roles in the description before it is read, so the roles are
checked once, by Geometry.  Geometries are immutable, and one bounded
memo, `_geometry`, keyed by name, parameters and a file's roles, serves
every built-in one.  Every presentation matrix comes from
`present_from_scenario`; one memo, `_generic`, holds each family's
generic value, and one checked map (deckgroup.GroupMap) specializes it:
the torus keys and genus1-hd (a sum of translates of four) push an f
from Z^3 (`_lifted`) along (a, b, c) -> ak + bl + c (`_along`),
linked-6crit its relator to its bar words and its abelianization to its
image, and the three cover keys a class a family (`_cover_map`) into
Z/m, read mod 2 on the branched cover.  Each runner drives the barbell
engine through one argument, compares against the closed-form or pushed
value when there is one, and hands the engine values and its verdict to a
Report (barbellcalc.report); hypothesis bounds (winding numbers >= 1,
cover order m large enough) are enforced up front.  One helper, `_move`,
moves every disk (a cover family's once).  `THEOREMS` maps each
reproduction's name to its runner and `SWEEPS` each sweep's name to its
grid; `run_theorem` and `run_sweep` hold every parameter rule, and
`run_theorem` names each report and records its parameters.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterator, Mapping

from .deckgroup import (_MAX_DIGITS, CYCLIC, FREE, FREE_ABELIAN, DeckElement, DeckGroup, GroupError, GroupMap,
                        _brunnian_letters, _echo, _group_map, _is_element, _is_int, _is_list, _too_long, brunnian_word,
                        element_from_json, exponent_sum, free_abelian)
from .equivariant import (DISK, MERIDIAN, SPHERE, BarbellSpec, EquivClass, Geometry, GeometryError, _equiv_class,
                          action_sequence, pair_classes, push_class, push_terms, summand_membership)
from .groupring import (F2, INT, RingElement, _is_term_list, _ring_element, from_term_list, is_monomial_unit,
                        laurent_span, normalize_monomial, push)
from .presentations import antidiagonal_cokernel, brunnian_disk_obstruction, f2_quotient_dim, present_from_scenario
from .report import HypothesisError, Report


# ---------------------------------------------------------------------------
# Geometries: each builder returns a description, which _read_geometry reads.


def _torus_complement() -> dict:
    # Universal cover of the unknotted-torus complement in the 4-sphere.
    # The horizontal sphere meets deck translates 0 and 1 of the vertical
    # sphere once each; each compressing disk meets its dual sphere once.
    # Its one belt disk is D_v, so the 2n-dimensional analogue presents
    # the same matrix term for term.
    return {
        "group": {"kind": FREE_ABELIAN, "rank": 1}, "field": "f2",
        "labels": {"S_h": SPHERE, "S_v": SPHERE, "D_v": DISK, "D_h": DISK},
        "pairings": [["S_h", "S_v", [[0, 1], [1, 1]]], ["D_v", "S_v", [[0, 1]]], ["D_h", "S_h", [[0, 1]]]],
        "attaching": ["S_v"], "disks": ["D_v"],
    }


def _sphere_torus_link(n: int) -> dict:
    # Complement of (n-1) split 2-spheres and a torus; the deck group of
    # the universal cover is free on the n meridians, the torus meridian
    # being the last generator.
    if n < 2:
        raise HypothesisError(f"sphere_torus_link needs n >= 2, got {n}")
    return {
        "group": {"kind": FREE, "rank": n}, "field": "f2",
        "labels": {"S_h": SPHERE, "S_v": SPHERE, "D_v": DISK},
        "pairings": [["S_h", "S_v", [["1", 1], [f"x{n}", 1]]], ["D_v", "S_v", [["1", 1]]]],
        "attaching": ["S_v"], "disks": ["D_v"],
    }


def _genus2_complement() -> dict:
    # Universal cover of the genus-2 surface complement, integer
    # coefficients.  The two intersection points of S_h,s with S_v,s
    # carry opposite signs and land in adjacent deck translates (1 - t);
    # disk orientations are pinned by the golden presentation matrix
    # (see the acceptance tests), which forces <D_h,s, S_h,s> = -1.
    return {
        "group": {"kind": FREE_ABELIAN, "rank": 1}, "field": "int",
        "labels": {**dict.fromkeys(("S_h_1", "S_h_2", "S_v_1", "S_v_2"), SPHERE), "D_h_1": DISK, "D_h_2": DISK},
        "pairings": [["S_h_1", "S_v_1", [[0, 1], [1, -1]]], ["S_h_2", "S_v_2", [[0, 1], [1, -1]]],
                     ["D_h_1", "S_h_1", [[0, -1]]], ["D_h_2", "S_h_2", [[0, -1]]]],
        "attaching": ["S_v_1", "S_v_2"], "disks": ["D_h_1", "D_h_2"],
    }


# Largest genus of genus_g_complement, whose geometry has 2g spheres (tests/test_caps.py).
MAX_GENUS = 10**4


def _genus_g_complement(g: int) -> dict:
    # The genus-g surface complement itself (no cover): homology classes
    # of the 2g spheres and the compressing disk dual to S_h_1.  The two
    # points of S_h_i against S_v_i cancel algebraically here.
    if g < 1:
        raise HypothesisError(f"genus_g_complement needs g >= 1, got {g}")
    if g > MAX_GENUS:
        raise HypothesisError(f"genus_g_complement needs g <= {MAX_GENUS}, got {g}")
    spheres = [f"S_h_{i}" for i in range(1, g + 1)] + [f"S_v_{i}" for i in range(1, g + 1)]
    return {
        "group": {"kind": CYCLIC, "modulus": 1}, "field": "int",
        "labels": {**dict.fromkeys(spheres, SPHERE), "D_h": DISK},
        "pairings": [["D_h", "S_h_1", [[0, 1]]]],
        "attaching": spheres[g:], "disks": ["D_h"],
    }


def _circles_complement() -> dict:
    # Complement of two split circles: meridian spheres S_L, S_R and the
    # disks they are dual to.  No cover is taken in these arguments.
    return {
        "group": {"kind": CYCLIC, "modulus": 1}, "field": "int",
        "labels": {"S_L": SPHERE, "S_R": SPHERE, "D_L": DISK, "D_R": DISK},
        "pairings": [["D_R", "S_R", [[0, 1]]], ["D_L", "S_L", [[0, 1]]]],
        "disks": ["D_R", "D_L"],
    }


def _cover(kind: str, field: str, meridians: tuple[str, ...], m: int) -> dict:
    # m-fold cyclic cover unwinding one meridian: one chosen summand
    # carries the disk D and the parallel sphere copies S, S' (the same
    # homology class, recorded as an alias).  Unbranched, the lifted
    # classes form a free basis across the m summands.  Branched along
    # the torus, every deck translate of the lifted disk shares one
    # boundary circle, so each meridian pairs 1 with each translate: its
    # row, the norm element, is stored as its augmentation 1, never
    # expanded, so nothing costs O(m); the lifted classes are no basis.
    if m < 1:
        raise HypothesisError(f"{kind} cover order must be >= 1, got {m}")
    return {
        "group": {"kind": CYCLIC, "modulus": m}, "field": field,
        "labels": {"S": SPHERE, "S_prime": SPHERE, "D": DISK, **dict.fromkeys(meridians, MERIDIAN)},
        "pairings": [["D", "S", [[0, 1]]], ["D", "S_prime", [[0, 1]]], *([mu, "D", [[0, 1]]] for mu in meridians)],
        "disks": ["D"], "aliases": {"S_prime": "S"},
    }


def _cyclic_cover(m: int) -> dict:
    return _cover("cyclic", "int", (), m)


def _branched_cover(m: int) -> dict:
    return _cover("branched", "f2", ("mu",), m)


GEOMETRY_BUILDERS: dict[str, Callable[..., dict]] = {
    "torus_complement": _torus_complement,
    "sphere_torus_link": _sphere_torus_link,
    "genus2_complement": _genus2_complement,
    "genus_g_complement": _genus_g_complement,
    "circles_complement": _circles_complement,
    "cyclic_cover": _cyclic_cover,
    "branched_cover": _branched_cover,
}


@functools.cache
def parameters(entry: Callable, keyed: bool = False) -> tuple[tuple[str, ...], tuple[str, ...], dict]:
    """The names a registry entry takes, those it requires and the others' defaults (a shared dict, not
    to be mutated), read from its code object once per process.  A keyed entry's first parameter
    (a sweep grid's size, top) does not count."""
    code, defaults = entry.__code__, entry.__defaults__ or ()
    takes = code.co_varnames[keyed : code.co_argcount]
    required = takes[: len(takes) - len(defaults)]
    return takes, required, dict(zip(takes[len(required) :], defaults))


# the values each alternative of a parameter's annotation admits
_KINDS = {"int": _is_int, "Mapping": lambda v: isinstance(v, Mapping), "None": lambda v: v is None}


@functools.cache
def _checkers(entry: Callable, keyed: bool = False) -> tuple[dict[str, tuple], frozenset]:
    """Each parameter's tests, one per alternative of its annotation (_KINDS), and the required names' set."""
    takes, required, _ = parameters(entry, keyed)
    kinds = {key: tuple(map(_KINDS.__getitem__, entry.__annotations__[key].split(" | "))) for key in takes}
    return kinds, frozenset(required)


def _check_parameters(what: str, entry: Callable, params: Mapping, keyed: bool = False):
    """Refuse params that do not fit the entry's signature, naming the entry (what) and the unexpected
    names (before any missing ones), or the first parameter whose value its annotation does not admit
    or that has too many digits."""
    kinds, required = _checkers(entry, keyed)
    if not kinds.keys() >= params.keys() >= required:
        takes, required, _ = parameters(entry, keyed)
        extra = sorted(params.keys() - kinds.keys())
        problem = (f"unexpected {_echo(', '.join(extra))}" if extra else
                   f"missing {', '.join(key for key in required if key not in params)}")
        note = f" (required: {', '.join(required)})" if 0 < len(required) < len(takes) else ""
        raise HypothesisError(f"{what} takes {', '.join(takes) or 'no parameters'}{note}; {problem}")
    for key, value in params.items():
        for kind in kinds[key]:
            if kind(value):
                break
        else:
            raise HypothesisError(f"{what} parameter {key} must be {entry.__annotations__[key]}, got {_echo(value)}")
        if _is_int(value) and _too_long(value):
            raise HypothesisError(f"{what} parameter {key} has more than {_MAX_DIGITS} digits")


_FIELD_NAMES = {"f2": F2, "int": INT}


def _field(name) -> str:
    wanted = _FIELD_NAMES.get(name.lower()) if isinstance(name, str) else None
    if wanted is None:
        raise HypothesisError(f"unknown field {_echo(name)}; use 'f2' or 'int'")
    return wanted


_GROUP_SIZE = {FREE: "rank", FREE_ABELIAN: "rank", CYCLIC: "modulus"}


def _in_field(where: str, build, *args):
    """build(*args), where the GroupError of a deck-group value that
    does not fit the geometry's group (a word over a missing generator,
    an exponent vector of another rank) names the scenario field."""
    try:
        return build(*args)
    except GroupError as exc:
        raise GroupError(f"scenario field {where!r}: {exc}") from None


def _read_geometry(spec: Mapping) -> Geometry:
    """The geometry a description gives (deck group, field, labels, pairing
    rows, roles and a built-in's aliases) in the shape run_scenario has
    checked or a builder returned.  Accepted as data; nothing checks that
    it comes from an actual embedded configuration."""
    group_spec = spec["group"]
    kind = group_spec["kind"]
    group = DeckGroup(kind, group_spec[_GROUP_SIZE[kind]])
    coeffs = _field(spec.get("field", "f2"))
    pairings = {
        (a, b): _in_field(f"geometry.pairings[{i}]", from_term_list, terms, group, coeffs)
        for i, (a, b, terms) in enumerate(spec.get("pairings", ()))
    }
    return Geometry(spec.get("name", "custom"), group, coeffs, spec["labels"], pairings, spec.get("attaching"),
                    spec.get("disks"), spec.get("aliases"))


def _builtin_args(name, params: Mapping) -> tuple:
    """The named built-in's builder arguments in order, its name and parameters checked."""
    if not isinstance(name, str) or name not in GEOMETRY_BUILDERS:
        raise GeometryError(f"unknown geometry {_echo(name)}; available: {', '.join(sorted(GEOMETRY_BUILDERS))}")
    _check_parameters(f"geometry {name}", GEOMETRY_BUILDERS[name], params)
    return tuple(params[key] for key in parameters(GEOMETRY_BUILDERS[name])[0])


@functools.lru_cache(maxsize=16)  # bounds what a loop over n, m or g keeps: a genus_g_complement has 2g + 1 labels
def _geometry(name: str, args: tuple, roles: tuple) -> Geometry:
    """The one Geometry of built-in name at its builder's checked args, a
    scenario file's (role, labels) pairs replacing its roles; a refusal is not kept."""
    return _read_geometry({"name": name, **GEOMETRY_BUILDERS[name](*args), **dict(roles)})


def builtin_geometry(name: str, **params) -> Geometry:
    """The named built-in's one immutable Geometry, from the memo (_geometry)."""
    return _geometry(name, _builtin_args(name, params), ())


# ---------------------------------------------------------------------------
# Closed-form expectations.


def _require(cond: bool, message: str):
    if not cond:
        raise HypothesisError(message)


def _require_windings(k: int, l: int):
    _require(k >= 1 and l >= 1, f"winding numbers must satisfy k, l >= 1, got k={k}, l={l}")


def morsesimple_f(k: int, l: int) -> RingElement:
    """The closed-form mod-2 intersection polynomial of both torus-knot
    runners, 1 + sum over signs of t^(±k ± l ± 1), which factors as
    1 + (t + t^-1)(t^k + t^-k)(t^l + t^-l); equal exponents cancel mod 2."""
    terms = {(0,): 1}
    for e in [(a + b + c,) for a in (1, -1) for b in (k, -k) for c in (l, -l)]:
        terms[e] = terms.get(e, 0) + 1
    return _ring_element(free_abelian(1), F2, terms)


def _lifted(description: dict, **fields) -> Geometry:
    """description, fields replacing its own, read over Z^3: each row's t^e at x3^e, so that the bars
    x1 and x2 stand for t^k and t^l (pushed back along `_along`)."""
    description = {**description, **fields}
    lifted = [[a, b, [[[0, 0, e], c] for e, c in terms]] for a, b, terms in description["pairings"]]
    return _read_geometry({**description, "group": {"kind": FREE_ABELIAN, "rank": 3}, "pairings": lifted})


def _along(target: DeckGroup, k: int, l: int) -> GroupMap:
    """(a, b, c) -> ak + bl + c, from Z^3 into target, Z or Z/m."""
    values = ((k,), (l,), (1,)) if target.kind == FREE_ABELIAN else (k % target.n, l % target.n, 1 % target.n)
    return _group_map(free_abelian(3), target, values)


@functools.cache
def _generic(build: Callable, *args):
    """build(*args), a family's generic value, built once a process; as every engine step commutes with
    group maps, an instance's value is it pushed along one.  Keyed by builders and no user parameter, it
    holds 12: the torus f of four cuff orders, genus1-hd's four phi rows, the Brunnian relator and its
    abelianization, and the two cover families' classes."""
    return build(*args)


def _presented(geo: Geometry, cuffs: tuple[str, ...]) -> RingElement:
    """The engine's f of geo under one barbell (c, c) per cuff c, in the
    order they act, S_h's bar the generator x1 and S_v's x2."""
    bars = {"S_h": geo.group.generator(1), "S_v": geo.group.generator(2)}
    return present_from_scenario(geo, [BarbellSpec(cuff, cuff, bars[cuff]) for cuff in cuffs])[0][0]


def _torus_f(cuffs: tuple[str, ...]) -> RingElement:
    # the torus keys' generic f: the torus complement over Z^3
    return _presented(_lifted(_torus_complement()), cuffs)


# ---------------------------------------------------------------------------
# Theorem runners.  Each takes only its parameters; run_theorem names
# the report by the registry key it ran and records its parameters.


def _run_torus_knot(k: int, l: int) -> Report:
    _require_windings(k, l)
    # the horizontal diffeomorphism is applied first
    f = push(_generic(_torus_f, ("S_h", "S_v")), _along(free_abelian(1), k, l))
    dim = f2_quotient_dim([[f]])
    expected_f = morsesimple_f(k, l)
    expected_dim = 2 * k + 2 * l + 2
    return Report(
        computed={"f": f, "dim": dim},
        expected={"f": expected_f, "dim": expected_dim},
        passed=(f == expected_f and dim == expected_dim),
    )


def _run_unknots(k: int = 1, l: int = 1) -> Report:
    _require_windings(k, l)
    # h-after-v: the horizontal diffeomorphism composed after the vertical one
    variants = {"v-only": ("S_v",), "h-only": ("S_h",), "h-after-v": ("S_v", "S_h")}
    computed, phi = {}, _along(free_abelian(1), k, l)
    for variant, cuffs in variants.items():
        f = push(_generic(_torus_f, cuffs), phi)
        computed[variant] = {"f": f, "dim": f2_quotient_dim([[f]])}
    trivial = {"f": RingElement.one(free_abelian(1), F2), "dim": 0}
    return Report(
        computed=computed,
        expected={"f": "1", "dim": 0},
        passed=all(variant == trivial for variant in computed.values()),
        notes=["trivial module: the complement presentation is a unit"],
    )


# Longest bar word w_n^k linked-6crit accepts, k its larger winding number (tests/test_caps.py).
MAX_LINKED_WORD_LETTERS = 10_000


def _check_linked(n: int, k: int, l: int):
    """The linked-6crit hypotheses, checked before any word is built."""
    _require(n >= 2, f"need n >= 2 components, got {n}")
    _require_windings(k, l)
    top = max(k, l)
    _require(
        _brunnian_letters(n) * top <= MAX_LINKED_WORD_LETTERS,
        f"bar words w_n^k must have <= {MAX_LINKED_WORD_LETTERS} letters "
        f"(|w_n| = 3 * 2^(n-2) - 2), got n={n} and winding number {top}",
    )


def _brunnian_f() -> RingElement:
    # the generic Brunnian relator: linked-6crit's own geometry at n = 3, bars x1 and x2
    return _presented(_geometry("sphere_torus_link", (3,), ()), ("S_h", "S_v"))


def _abelian_brunnian() -> RingElement:
    """The generic Brunnian relator pushed into F2[Z^3] along the checked GroupMap x1, x2, x3 -> e1,
    e2, e3; its image at s^k, s^l, t is this one pushed along (a, b, c) -> (ak + bl, c)."""
    generic, z3 = _generic(_brunnian_f), free_abelian(3)
    return push(generic, GroupMap(generic.group, z3, [z3.generator(i) for i in (1, 2, 3)]))


def _run_linked_6crit(n: int, k: int, l: int) -> Report:
    """One winding pair (k, l): the engine's relator against the generic one (_brunnian_f, a third
    of a call to build) pushed along x1, x2, x3 -> w^k, w^l, x_n, and the nontriviality of its image
    in F2[s^±1, t^±1] (the sweep's image_in_st): the generic one at s^k, s^l, t, pushed from its
    abelianization (_abelian_brunnian)."""
    _check_linked(n, k, l)
    geo = _geometry("sphere_torus_link", (n,), ())
    w = brunnian_word(n)
    wk, wl = w.pow(k), w.pow(l)
    engine_f = present_from_scenario(geo, [BarbellSpec("S_h", "S_h", wk), BarbellSpec("S_v", "S_v", wl)])[0][0]
    generic = _generic(_brunnian_f)
    expected_f = push(generic, _group_map(generic.group, geo.group, (wk.value, wl.value, geo.group.generator(n).value)))
    image = push(_generic(_abelian_brunnian), _group_map(free_abelian(3), free_abelian(2), ((k, 0), (l, 0), (0, 1))))
    nontrivial = not is_monomial_unit(image)
    # the relator pushed through F_n -> Z, every generator to t, needs no
    # word product: w is x1 for n = 2, and a commutator (image 1) otherwise
    pushed = Counter(map(exponent_sum, engine_f.terms))
    closed = set(morsesimple_f(k, l).terms) if n == 2 else {(0,)}
    abelian = {(e,) for e, c in pushed.items() if c % 2} == closed
    return Report(
        computed={"relator": engine_f, "image_in_st": image, "nontrivial": nontrivial},
        expected={"relator": expected_f},
        passed=engine_f == expected_f and abelian and nontrivial,
        notes=["sublink triviality is a geometric input here, not a computation"],
    )


def _run_simple_5d(k: int) -> Report:
    _require(k >= 1, f"iteration count must be >= 1, got k={k}")
    geo = _geometry("genus2_complement", (), ())
    spec = BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=k)
    rows = present_from_scenario(geo, [spec])
    zero = RingElement.zero(geo.group, INT)
    expected = [
        [zero, from_term_list([[0, k], [-1, -k]], geo.group, INT)],
        [from_term_list([[-1, k], [0, -k]], geo.group, INT), zero],
    ]
    factors = antidiagonal_cokernel(rows)
    expected_factor = from_term_list([[1, k], [0, -k]], geo.group, INT)  # k(t - 1)
    return Report(
        computed={"matrix": rows, "cokernel": factors},
        expected={"matrix": expected, "cokernel": [expected_factor] * 2},
        passed=rows == expected and factors == [expected_factor, expected_factor],
    )


def _move(geo: Geometry, start: str, cuff1: str, cuff2: str, *bars: tuple[DeckElement, int]) -> EquivClass:
    """The basis class `start` moved by the barbells with cuffs (cuff1,
    cuff2), one per (holonomy, iterate) bar in the order they act; a bar
    iterated 0 times does not move it."""
    barbells = [BarbellSpec(cuff1, cuff2, holonomy, iterate=power) for holonomy, power in bars if power]
    return action_sequence(geo.basis_class(start), barbells)


def _in_identity_summand(x: EquivClass, *labels: str) -> bool:
    """Is x, modulo the meridians, supported on the identity lifts of labels?"""
    return summand_membership(x, {(label, x.geometry.identity()) for label in labels})


def _run_circle_splitting(k: int, l: int = 0) -> Report:
    geo = _geometry("circles_complement", (), ())
    moved = _move(geo, "D_R", "S_L", "S_R", (geo.identity(), k - l))
    expected_class = geo.basis_class("D_R").add(geo.basis_class("S_L", coeff=l - k))
    member = _in_identity_summand(moved, "D_R", "S_R")
    distinguished = not member
    return Report(
        computed={"class": moved, "in_right_summand": member, "distinguished": distinguished},
        expected={"class": expected_class, "distinguished": k != l},
        passed=(moved == expected_class and distinguished == (k != l)),
        notes=[] if k != l else ["equal powers: not distinguished (the test is inconclusive)"],
    )


def _run_simple_knotted_handlebody(k: int, l: int = 0, g: int = 2) -> Report:
    _require(g >= 2, f"the two-cuff argument needs genus g >= 2, got {g}")
    geo = _geometry("genus_g_complement", (g,), ())
    class_k, class_l = (_move(geo, "D_h", "S_h_1", "S_h_2", (geo.identity(), power)) for power in (k, l))
    expected_k = geo.basis_class("D_h").add(geo.basis_class("S_h_2", coeff=k))
    distinguished = not _in_identity_summand(class_k.sub(class_l), "D_h")
    return Report(
        computed={"class": class_k, "distinguished": distinguished},
        expected={"class": expected_k, "distinguished": k != l},
        passed=(class_k == expected_k and distinguished == (k != l)),
    )


def _run_disks_linked(k: int, l: int) -> Report:
    geo = _geometry("circles_complement", (), ())
    # the glued 2-sphere's class in the complement of the other component
    # is f^k(D_R) - f^l(D_R), for a trivial bar f^(k-l)(D_R) - D_R: only
    # the meridian coefficient survives
    moved = _move(geo, "D_R", "S_L", "S_R", (geo.identity(), k - l))
    mu_coefficient = moved.terms.get(("S_L", geo.identity().value), 0)
    linked = mu_coefficient != 0
    return Report(
        computed={"mu_L_coefficient": mu_coefficient, "linked": linked},
        expected={"mu_L_coefficient": l - k, "linked": k != l},
        passed=(mu_coefficient == l - k and linked == (k != l)),
        notes=[] if k != l else ["equal powers: links not distinguished"],
    )


def _cover_class(both: bool) -> EquivClass:
    """The engine's class of D on the cyclic cover over Z^3 (_lifted), moved by bars x1 and, for l >= 1
    (both), x2, for all three cover keys (_cover_map); only ever pushed, so no runner hands it out."""
    geo = _lifted(_cyclic_cover(1), name="cyclic_cover")
    x = geo.group.generator
    return _move(geo, "D", "S_prime", "S", (x(1), 1), (x(2), -1 if both else 0))


def _cover_map(m: int, k: int, l: int) -> tuple[EquivClass, GroupMap]:
    """Check the cover hypotheses, then give the family's generic class and
    the map `_along` into Z/m that pushes it to the move of D on the m-fold
    cyclic cover by the barbell (S_prime, S) whose bar winds k times, then
    by the inverse of the one winding l times (none when l = 0).  The push
    is exact as every engine step commutes with it; m > 2k + 2l keeps
    {0, ±k, ±l} distinct mod m, so terms merge only where they merge per
    instance (k = l).  Read mod 2 its terms are the branched cover's move
    too: one builder (_cover) gives both covers the same rows on D, S and
    S_prime, the only rows the barbells read; mu pairs with D alone and
    never enters the class; and Z -> F2 is a ring map that commutes with
    every engine step."""
    _require(k >= 1, f"winding number must satisfy k >= 1, got k={k}")
    _require(l >= 0, f"second winding number must be >= 0, got l={l}")
    bound = 2 * k + 2 * l + 100
    _require(m > bound, f"cover order must satisfy m > {bound}, got m={m}")
    return _generic(_cover_class, l > 0), _along(DeckGroup(CYCLIC, m), k, l)


def _run_less_simple(m: int, k: int, l: int = 0) -> Report:
    moved = push_class(*_cover_map(m, k, l))
    geo = moved.geometry
    member = _in_identity_summand(moved, "D", "S", "S_prime")
    distinguished = not member
    terms = {("D", geo.identity()): 1}
    for label, power, c in (("S", k, 1), ("S_prime", -k, -1), ("S", l, -1), ("S_prime", -l, 1)):
        if power:  # l = 0: no second barbell
            key = (label, geo.group.generator(1, power))
            terms[key] = terms.get(key, 0) + c
    # checked, from DeckElements of geo's group: from residues it would match a class left over Z^s
    expected_class = EquivClass(geo, terms)
    return Report(
        computed={"class": moved, "in_chosen_summand": member, "distinguished": distinguished},
        expected={"class": expected_class, "distinguished": k != l},
        passed=(moved == expected_class and distinguished == (k != l)),
    )


def _run_splitting_spheres_mixed(m: int, k: int, l: int = 0) -> Report:
    # The finite cover comes from quotienting the rank-2 meridian lattice
    # by (m, 0) and (0, 1): weights (1, 0) mod m.  A bar winding p times
    # around the first meridian projects to p * 1 + 0 mod m, so its
    # residue is p mod m.
    moved = push_class(*_cover_map(m, k, l))
    distinguished = not _in_identity_summand(moved, "D", "S", "S_prime")
    return Report(
        computed={"bar_residues": {str(p): p % m for p in (k, l)}, "class": moved, "distinguished": distinguished},
        expected={"distinguished": k != l},
        passed=(distinguished == (k != l)),
        notes=["no closed-form class is on record for this cover; reporting the computed one"],
    )


def _run_branched(m: int, k: int, l: int = 0) -> Report:
    pushed, geo = push_terms(*_cover_map(m, k, l)), _geometry("branched_cover", (m,), ())  # m, k, l checked first
    moved = _equiv_class(geo, pushed)
    d = geo.basis_class("D")
    x = moved.sub(d)
    probes = [geo.basis_class("D", geo.group.generator(1, k)), d]
    paired = [pair_classes(x, probe) for probe in probes]  # membership reads these too
    witnesses = {"x_dot_rho_k_D": paired[0], "x_dot_D": paired[1], "mu_dot_D": pair_classes(geo.basis_class("mu"), d)}
    member = summand_membership(x, allowed=(), probes=probes, witnesses=paired)
    refuted = not member
    degenerate = k == l
    # equal powers move D back to itself: x = 0 pairs to 0 with every probe
    expected_witnesses = {"x_dot_rho_k_D": 0 if degenerate else 1, "x_dot_D": 0, "mu_dot_D": 1}
    return Report(
        computed={"class": x, "witnesses": witnesses, "in_meridian_span": member, "refuted": refuted},
        expected={"witnesses": expected_witnesses, "refuted": not degenerate},
        passed=refuted == (not degenerate) and witnesses == expected_witnesses,
        notes=[] if not degenerate else ["equal powers: the class collapses to zero, nothing to refute"],
    )


# -- Heegaard-genus-1 generalization ---------------------------------------


def _odd_entries(name: str, data: Mapping) -> dict[int, int]:
    """genus1-hd's map name read mod 2: the positions (int or decimal string) whose entries add to an odd sum."""
    for key, c in data.items():
        digits = key.removeprefix("-") if isinstance(key, str) else ""
        if not (_is_int(key) or digits.isascii() and digits.isdecimal()) or not _is_int(c):
            raise HypothesisError(f"theorem genus1-hd parameter {name} must map integers or decimal strings "
                                  f"to JSON integers, got entry {_echo(key)}: {_echo(c)}")
    if any(map(_too_long, data)):
        raise HypothesisError(f"theorem genus1-hd parameter {name} has a position too long to read")
    odd = {}
    for key, c in data.items():  # a position given both ways adds its two entries, as a term list does
        odd[int(key)] = odd.get(int(key), 0) ^ c & 1
    return {position: 1 for position, bit in odd.items() if bit}


def _phi_f(row: str | None) -> RingElement:
    # genus1-hd's generic f: the torus complement over Z^3, phi attaching, meeting at most row, once at x3^0
    torus = _torus_complement()
    return _presented(_lifted(torus, labels={**torus["labels"], "phi": SPHERE},
                              pairings=torus["pairings"] + ([["phi", row, [[0, 1]]]] if row else []),
                              attaching=["phi"], disks=["D_h"]), ("S_v", "S_h"))


def _run_genus1_hd(k: int, l: int, h: Mapping | None = None, v: Mapping | None = None,
                   b: Mapping | None = None) -> Report:
    """The twisted genus-1 scenario with prescribed intersection data
    (h, v, b), default h = 1: the dimension of its mod-2 second homology
    by the piecewise closed form and by the engine (None = infinite).
    The barbells act F2[Z^3]-linearly and f pairs the moved phi with D_h,
    so f over Z^3 is F_None plus, for each row, lift(data) (F_row +
    F_None), where F_row is the generic f of phi meeting row once at x3^0,
    F_None that of phi meeting nothing (0 for a correct engine; computed,
    so that a fault not linear in phi shows) and lift(data) the sum of
    x3^e over data's odd positions e; it is pushed along `_along`."""
    h, v, b = _odd_entries("h", {0: 1} if h is None else h), _odd_entries("v", v or {}), _odd_entries("b", b or {})
    radius = lambda data: max((abs(i) for i in data), default=0)
    m_b, m_h, m_v = radius(b), radius(h), radius(v)
    _require(k >= m_b + m_h + 100, f"need k >= {m_b + m_h + 100}, got k={k}")
    _require(l >= m_b + m_h + m_v + 100, f"need l >= {m_b + m_h + m_v + 100}, got l={l}")

    # vertical barbell acts first here; the horizontal one is applied last
    generic = {row: _generic(_phi_f, row) for row in (None, "S_h", "S_v", "D_h")}
    f = none = generic[None]
    for row, data in (("S_h", h), ("S_v", v), ("D_h", b)):
        if data:  # no odd position: lift(data) is 0 and leaves f as it is
            lift = _ring_element(none.group, F2, {(0, 0, e): 1 for e in data})
            f = f.add(lift.mul(generic[row].add(none)))
    engine = f2_quotient_dim([[push(f, _along(free_abelian(1), k, l))]])

    if not h and not v:
        # the class meets no cuff, so neither barbell moves it and its
        # disk pairing is b itself: infinite when b = 0
        branch, closed = "degenerate (span b)", laurent_span(_ring_element(free_abelian(1), F2, {(e,): 1 for e in b}))
    elif not v:
        branch, closed = "horizontal only (2k + span h)", 2 * k + max(h) - min(h)
    else:
        branch, closed = "vertical present (2k + 2l + 1 + span v)", 2 * k + 2 * l + 1 + max(v) - min(v)
    as_param = lambda coeffs: {str(i): c for i, c in coeffs.items()}
    return Report(
        params={"h": as_param(h), "v": as_param(v), "b": as_param(b)},
        computed={"dim_engine": engine, "dim_closed_form": closed, "branch": branch},
        expected={"dim": closed},
        passed=closed == engine,
    )


# -- Montesinos criterion and the gluing-matrix search ----------------------


class GluingMatrix:
    """An H1 matrix (a b; c d) of a torus diffeomorphism, det +1."""

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise HypothesisError("gluing matrix must have determinant +1")
        self.a, self.b, self.c, self.d = a, b, c, d

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


def _run_morsesimple3mfd(p: int | None = None, q: int | None = None) -> Report:
    if p is None and q is None:
        # row -> (gluing matrix, the manifold it must give)
        rows = {"identity": (GluingMatrix(1, 0, 0, 1), "S1xS2"), "quarter_turn": (GluingMatrix(0, -1, 1, 0), "S3")}
        computed = {
            name: {"parity_even": montesinos_parity(matrix), "manifold": classify_gluing(matrix)}
            for name, (matrix, _) in rows.items()
        }
        return Report(
            computed=computed,
            expected={name: tag for name, (_, tag) in rows.items()},
            passed=all(computed[name] == {"parity_even": True, "manifold": tag} for name, (_, tag) in rows.items()),
        )
    _require(p is not None and q is not None,
             f"theorem morsesimple3mfd takes --p and --q together or neither; got only --{'q' if p is None else 'p'}")
    _require(p >= 2 and q >= 1, f"--p and --q must satisfy p >= 2 and q >= 1, got p={p}, q={q}")
    matrix = montesinos_matrix_for(p, q)
    substituted = (p + q) % 2 == 0
    target = f"L({p},{p + q})" if substituted else f"L({p},{q})"
    tag = classify_gluing(matrix)
    return Report(
        computed={
            "matrix": list(matrix.entries()),
            "entry_sum_even": montesinos_parity(matrix),
            "manifold": tag,
            "substituted": substituted,
        },
        expected={"manifold": target, "entry_sum_even": True},
        passed=(tag == target and montesinos_parity(matrix)),
    )


# Most components whose constraint model no-brunnian-2disk evaluates, above it the closed form (tests/test_caps.py).
MAX_DISK_MODEL_COMPONENTS = 10**5


def _disk_model(n: int) -> bool:
    """brunnian_disk_obstruction's constraint model on bitmasks of the
    coordinates a_2..a_n: removing component k forces all but a_k."""
    coordinates = (1 << (n - 1)) - 1
    forced = 0
    for k in range(n - 1):
        forced |= coordinates & ~(1 << k)
    return forced == coordinates


def _run_no_brunnian_2disk(n: int) -> Report:
    expected, modelled = brunnian_disk_obstruction(n), n <= MAX_DISK_MODEL_COMPONENTS
    forced = _disk_model(n) if modelled else expected
    note = f"n > {MAX_DISK_MODEL_COMPONENTS}: the constraint model is not evaluated; computed is the closed form"
    return Report(
        computed={"disks_forced_isotopic": forced},
        expected={"disks_forced_isotopic": expected},
        passed=(forced == expected),
        notes=[] if modelled else [note],
    )


# ---------------------------------------------------------------------------
# The registries: each reproduction's runner, and the sweeps over them.


THEOREMS: dict[str, Callable[..., Report]] = {
    "morsesimple-s3": _run_torus_knot,
    "higher-dim-knots": _run_torus_knot,
    "unknots": _run_unknots,
    "linked-6crit": _run_linked_6crit,
    "simple-5d": _run_simple_5d,
    # two results of the paper that share one argument
    "circle-splittingspheres": _run_circle_splitting,
    "simple-splitting": _run_circle_splitting,
    "simple-knotted-handlebody": _run_simple_knotted_handlebody,
    "disks-5dlinked": _run_disks_linked,
    "less-simple": _run_less_simple,
    "simple-splitting-spheres": _run_splitting_spheres_mixed,
    "genus1-handlebody": _run_branched,
    "genus1-hd": _run_genus1_hd,
    "morsesimple3mfd": _run_morsesimple3mfd,
    "no-brunnian-2disk": _run_no_brunnian_2disk,
}


def run_theorem(name: str, **params) -> Report:
    """The theorem's report, named by its registry key name, with the
    call's parameters and the runner's defaults, None dropped, as its
    params; a parameter the runner reports itself (normalized) wins."""
    if name not in THEOREMS:
        raise HypothesisError(f"unknown theorem {_echo(name)}; `barbellcalc list` names them")
    runner = THEOREMS[name]
    _check_parameters(f"theorem {name}", runner, params)
    return _named(name, params, runner(**params))


def _named(name: str, params: Mapping, report: Report) -> Report:
    """report, run by theorem name on params, named and given its params as run_theorem records them."""
    ran = {**parameters(THEOREMS[name])[2], **params, **report.params}
    report.name, report.params = name, {key: value for key, value in ran.items() if value is not None}
    return report


def _run_grid(name: str, grid: list[dict]) -> Iterator[Report]:
    """One report per job: the theorem's runner on the job's parameters,
    named as run_theorem names it.  The grid built each job and run_sweep
    checked the sweep's parameters, so no job is checked again."""
    runner = THEOREMS[name]
    for params in grid:
        yield _named(name, params, runner(**params))


class Sweep:
    """A parameter grid over the theorem registered as `theorem`:
    `grid(top, **params)` yields the jobs' parameters lazily, in the
    order they run, for sizes up to `top` (`default_max` unless given),
    each within the theorem's hypotheses but for the Brunnian letter cap,
    so that run_sweep sizes a sweep by drawing at most one job past its
    cap; `reports(theorem, jobs)` yields one report per drawn job in
    grid order (by default the theorem's runner on the job's parameters;
    the brunnian sweep decides each winding pair once), and raises any
    refusal before its first report."""

    def __init__(self, theorem: str, default_max: int, grid: Callable[..., Iterator[dict]],
                 reports: Callable[[str, list[dict]], Iterator[Report]] = _run_grid):
        self.theorem, self.default_max, self.grid, self.reports = theorem, default_max, grid, reports


def _square_grid(top: int) -> Iterator[dict]:
    return ({"k": k, "l": l} for k in range(1, top + 1) for l in range(1, top + 1))


def _brunnian_grid(top: int, n: int = 2) -> Iterator[dict]:
    # every two distinct unordered winding pairs {k, l}, {kp, lp}
    # (k <= l, kp <= lp), the second after the first in lexicographic order
    return (
        {"n": n, "k": k, "l": l, "kp": kp, "lp": lp}
        for k in range(1, top + 1)
        for l in range(k, top + 1)
        for kp in range(k, top + 1)
        for lp in range(l + 1 if kp == k else kp, top + 1)
    )


def _brunnian_reports(name: str, grid: list[dict]) -> Iterator[Report]:
    """The brunnian sweep's jobs, each deciding two winding pairs
    {k, l} and {kp, lp}.  Each (n, k, l) is run once, as one linked-6crit
    report, and the image it reports is normalized once; a job is the {k, l}
    report with its `distinguished` verdict added, and it passes only
    when both pairs' reports pass.  The two modules are distinguished
    when the pairs differ as unordered pairs, neither image is a
    monomial unit, and the normalized images differ: the images are
    non-associate.  The tests compare each verdict with a pairwise
    oracle that rebuilds both images (tests/oracles.py).

    Every job's hypotheses are checked before the first report is
    built, in increasing winding number, so a refused sweep yields
    nothing and names the smallest winding number the letter cap
    refuses, the one its grid order would reach first."""
    windings = sorted({job[key] for job in grid for key in ("k", "l", "kp", "lp")})
    for n in sorted({job["n"] for job in grid}):
        for winding in windings:
            _check_linked(n, 1, winding)
    decided: dict[tuple[int, int, int], tuple[Report, RingElement | None]] = {}

    def decide(n: int, k: int, l: int) -> tuple[Report, RingElement | None]:
        if (n, k, l) not in decided:
            # a unit image would contradict the module's nontriviality: such a pair distinguishes nothing
            report = _run_linked_6crit(n, k, l)
            image = report.computed["image_in_st"]
            decided[n, k, l] = report, normalize_monomial(image) if report.computed["nontrivial"] else None
        return decided[n, k, l]

    for job in grid:
        n, k, l, kp, lp = job["n"], job["k"], job["l"], job["kp"], job["lp"]
        (report, image), (other_report, other) = decide(n, k, l), decide(n, kp, lp)
        verdict = {k, l} != {kp, lp} and image is not None and other is not None and image != other
        yield Report({**report.computed, "distinguished": verdict}, report.expected, notes=report.notes, name=name,
                     params=job, passed=report.passed and other_report.passed and verdict == ({k, l} != {kp, lp}))


def _montesinos_grid(top: int) -> Iterator[dict]:
    return ({"p": p, "q": q} for p in range(2, top + 1) for q in range(p + 1, top + 1) if math.gcd(p, q) == 1)


SWEEPS: dict[str, Sweep] = {
    "morsesimple": Sweep("morsesimple-s3", 10, _square_grid),
    "higher-dim": Sweep("higher-dim-knots", 10, _square_grid),
    "brunnian": Sweep("linked-6crit", 4, _brunnian_grid, _brunnian_reports),
    "montesinos": Sweep("morsesimple3mfd", 30, _montesinos_grid),
}

# Most jobs one sweep runs; run_sweep draws at most one more from the grid (tests/test_caps.py).
MAX_SWEEP_JOBS = 10_000


def run_sweep(name: str, top: int | None = None, **params) -> Iterator[Report]:
    """The sweep's reports, one per job in grid order, for sizes up to
    top (None: the sweep's default).  The sweep's own rules are checked
    before the iterator is returned: the grid's parameters, top, and a
    draw of 1 to MAX_SWEEP_JOBS jobs, so that a grid of any size is
    refused after at most MAX_SWEEP_JOBS + 1 jobs.  Every grid yields
    jobs within its theorem's hypotheses (k, l >= 1 for the torus sweeps,
    since top >= 1), and the brunnian sweep checks its letter cap before
    the first report is yielded: a refused sweep builds no report."""
    _require(name in SWEEPS, f"unknown sweep {_echo(name)}; choose from {', '.join(SWEEPS)}")
    sweep = SWEEPS[name]
    _check_parameters(f"sweep {name}", sweep.grid, params, keyed=True)
    top = sweep.default_max if top is None else top
    # top by its annotation, as a parameter of the grid
    _check_parameters(f"sweep {name}", sweep.grid, {"top": top})
    _require(top >= 1, f"sweep size must satisfy --max >= 1, got {top}")
    jobs = list(itertools.islice(sweep.grid(top, **params), MAX_SWEEP_JOBS + 1))
    # an empty grid checks nothing, so it does not pass vacuously
    _require(jobs, f"sweep {name} --max {top} has no jobs")
    _require(len(jobs) <= MAX_SWEEP_JOBS, f"sweep {name} --max {top} has more than {MAX_SWEEP_JOBS} jobs")
    return sweep.reports(sweep.theorem, jobs)


# ---------------------------------------------------------------------------
# Scenario files: {geometry, barbells, attaching, disks, field, params,
# expected?} as JSON-compatible structured text.


def _is_pairing_row(row) -> bool:
    return _is_list(row) and len(row) == 3 and all(isinstance(a, str) for a in row[:2]) and _is_term_list(row[2])


_LABELS = (lambda v: v is None or _is_list(v, lambda name: isinstance(name, str)), "a list of label strings")
_ELEMENT = (_is_element, "an integer, a word string or a list of integers")
# a field whose value is checked where it is read (by _field, or by the
# inline geometry's check of its group)
_ANY = (lambda v: True, None)
# where -> ({field: (check, what the field must be)}, required fields);
# a field that is not listed is refused
_SCHEMA = {
    "scenario": ({
        "geometry": (lambda v: isinstance(v, (str, Mapping)), "a geometry name or object"),
        "barbells": (lambda v: _is_list(v, lambda spec: isinstance(spec, Mapping)), "a list of barbell objects"),
        "attaching": _LABELS,
        "disks": _LABELS,
        "expected": (lambda v: isinstance(v, Mapping), "an object"),
        "field": _ANY,
    }, ("geometry",)),
    "barbell": ({
        "cuff1": (lambda v: isinstance(v, str), "a label string"),
        "cuff2": (lambda v: isinstance(v, str), "a label string"),
        "holonomy": _ELEMENT,
        "offset": _ELEMENT,
        "signs": (lambda v: _is_list(v, lambda sign: _is_int(sign) and sign in (1, -1)) and len(v) == 2,
                  "two signs, each 1 or -1"),
        "iterate": (_is_int, "a JSON integer"),
    }, ("cuff1", "cuff2")),
    "expected": ({
        "matrix": (lambda v: _is_list(v, lambda row: _is_list(row, _is_term_list)),
                   "rows of term lists ([element, coefficient] pairs)"),
        "dim": (lambda v: v is None or _is_int(v), "a JSON integer or null"),
    }, ()),
    # an inline geometry (one with labels); meridians are built-in only,
    # since a meridian row is read as its augmentation
    "inline geometry": ({
        "name": (lambda v: isinstance(v, str), "a geometry name"),
        "group": (lambda v: isinstance(v, Mapping) and isinstance(v.get("kind"), str) and v["kind"] in _GROUP_SIZE,
                  "an object whose kind is free, free_abelian or cyclic"),
        "labels": (lambda v: isinstance(v, Mapping) and all(kind in (SPHERE, DISK) for kind in v.values()),
                   'an object mapping each label to "sphere" or "disk"'),
        "pairings": (lambda v: _is_list(v, _is_pairing_row), "a list of [label, label, term list] rows"),
        "attaching": _LABELS,
        "disks": _LABELS,
        "field": _ANY,
    }, ("group", "labels")),
    "group": ({
        "kind": _ANY,
        "rank": (_is_int, "a JSON integer"),
        "modulus": (_is_int, "a JSON integer"),
    }, ()),
}


def _check(where: str, data: Mapping, required=()):
    fields, always = _SCHEMA[where]
    for name in always + required:
        if name not in data:
            raise HypothesisError(f"{where} field {name!r} is required")
    for name, value in data.items():
        if name not in fields:
            raise HypothesisError(f"{where} field {_echo(name)} is unknown; the fields are {', '.join(fields)}")
        ok, wanted = fields[name]
        if not ok(value):
            raise HypothesisError(f"{where} field {name!r} must be {wanted}, got {_echo(value)}")


def run_scenario(data: Mapping) -> Report:
    """The scenario's report.  Its schema is checked before anything is
    built: a field of the wrong shape is a HypothesisError that names it.
    A geometry with labels is inline; any other is a built-in's name and
    its builder's parameters, checked as builtin_geometry checks them.
    The file's own attaching and disks, when not null, replace the
    geometry's roles before its one Geometry is built."""
    if not isinstance(data, Mapping):
        raise HypothesisError(f"a scenario must be a JSON object, got {type(data).__name__}")
    _check("scenario", data)
    for spec in data.get("barbells", []):
        _check("barbell", spec)
    _check("expected", data.get("expected", {}))
    geometry = data["geometry"]
    geometry = {"name": geometry} if isinstance(geometry, str) else geometry
    roles = tuple((role, tuple(data[role])) for role in ("attaching", "disks") if data.get(role) is not None)
    if "labels" in geometry:
        _check("inline geometry", geometry)
        _check("group", geometry["group"], (_GROUP_SIZE[geometry["group"]["kind"]],))
        geo = _read_geometry({**geometry, **dict(roles)})
    else:
        params = dict(geometry)
        name = params.pop("name", None)
        geo = _geometry(name, _builtin_args(name, params), roles)

    if "field" in data and _field(data["field"]) != geo.coeffs:
        raise HypothesisError(f"geometry {_echo(geo.name)} is defined over {geo.coeffs}, not {_field(data['field'])}")

    barbells = []
    for i, spec in enumerate(data.get("barbells", [])):
        # the deck elements are read; every other field is BarbellSpec's
        elements = {
            name: _in_field(f"barbells[{i}].{name}", element_from_json, spec[name], geo.group)
            for name in ("holonomy", "offset") if name in spec
        }
        barbells.append(BarbellSpec(**{"holonomy": geo.identity(), **spec, **elements}))

    rows = present_from_scenario(geo, barbells)
    computed: dict = {"matrix": rows}
    expected = data.get("expected", {})
    if len(rows) == len(rows[0]) == 1 and geo.coeffs == F2 and geo.group.kind == FREE_ABELIAN and geo.group.n == 1:
        computed["dim"] = f2_quotient_dim(rows)
    elif "dim" in expected:  # no dimension is computed, so an expected one would pass vacuously
        raise HypothesisError(f"expected field 'dim' needs a 1x1 presentation over F2[t, t^-1], got a "
                              f"{len(rows)}x{len(rows[0])} matrix over {geo.coeffs}[{geo.group!r}]")

    passed = "dim" not in expected or computed["dim"] == expected["dim"]
    if "matrix" in expected:
        # the whole matrix: an expected matrix of another shape fails
        wanted = [
            [_in_field(f"expected.matrix[{r}][{c}]", from_term_list, terms, geo.group, geo.coeffs)
             for c, terms in enumerate(row)]
            for r, row in enumerate(expected["matrix"])
        ]
        passed = passed and wanted == rows

    return Report(
        name="scenario",
        params={key: data[key] for key in data if key != "expected"},
        computed=computed,
        expected=expected,
        passed=passed,
    )
