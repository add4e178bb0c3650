"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either a closed form checked against the
engine term for term, or an independently recomputed oracle (explicit
expansions, per-lift brute force, integer matrix arithmetic).
"""

import itertools
import random
import time

import pytest

from barbellcalc.deckgroup import CYCLIC, DeckElement, DeckGroup, brunnian_word
from barbellcalc.equivariant import (
    BarbellSpec,
    EquivClass,
    Geometry,
    SPHERE,
    DISK,
    action_sequence,
    barbell_action,
    pair_classes,
)
from barbellcalc.groupring import F2, INT, RingElement, is_monomial_unit
from barbellcalc.presentations import (
    antidiagonal_cokernel,
    f2_quotient_dim,
    present_from_scenario,
)
from barbellcalc.scenarios import (
    GluingMatrix,
    builtin_geometry,
    classify_gluing,
    montesinos_matrix_for,
    morsesimple_f,
    run_theorem,
)
from oracles import UniTriMatrix, brunnian_image, distinguish_brunnian_modules, unitriangular_rep


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


def t_elt(geo, i):
    if geo.group.kind == "cyclic":
        return DeckElement(geo.group, i % geo.group.n)
    return DeckElement(geo.group, (i,))


def torus_specs(geo, k, l):
    return [
        BarbellSpec("S_h", "S_h", t_elt(geo, k)),
        BarbellSpec("S_v", "S_v", t_elt(geo, l)),
    ]


def test_criterion_1_morse_simple_grid():
    start = time.perf_counter()
    for k in range(1, 11):
        for l in range(1, 11):
            geo = builtin_geometry("torus_complement")
            rows = present_from_scenario(geo, torus_specs(geo, k, l))
            assert rows == [[morsesimple_f(k, l)]], (k, l)
            assert f2_quotient_dim(rows) == 2 * k + 2 * l + 2, (k, l)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid took {elapsed:.3f}s"
    announce(1, f"f and dim = 2k+2l+2 on the full 1..10 grid in {elapsed:.3f}s")


@pytest.mark.parametrize("k,l", [(1, 1), (2, 3), (5, 5)])
def test_criterion_2_sphere_expansions(k, l):
    geo = builtin_geometry("torus_complement")
    sphere = geo.basis_class("S_v")

    five = {("S_v", 0), ("S_h", -k - 1), ("S_h", -k), ("S_h", k - 1), ("S_h", k)}
    assert len(five) == 5
    expected_five = EquivClass(geo, {(lab, t_elt(geo, i)): 1 for lab, i in five})
    assert barbell_action(sphere, torus_specs(geo, k, l)[0]) == expected_five

    full = [("S_v", 0)]
    for j in (-k - 1, -k, k - 1, k):
        full.append(("S_h", j))
        for shift in (-l, -l + 1, l, l + 1):
            full.append(("S_v", j + shift))
    assert len(full) == 21
    terms = {}
    for lab, i in full:
        key = (lab, t_elt(geo, i))
        terms[key] = terms.get(key, 0) + 1
    expected_full = EquivClass(geo, terms)  # mod-2 collisions applied
    assert action_sequence(sphere, torus_specs(geo, k, l)) == expected_full
    announce(2, f"5-term and 21-term expansions exact at (k,l)=({k},{l})")


def test_criterion_3_brunnian_modules():
    start = time.perf_counter()
    for n in range(2, 9):
        assert unitriangular_rep(brunnian_word(n), n) == UniTriMatrix.elementary(n, 1, n)
    pairs = [(k, l) for k in range(1, 6) for l in range(k, 6)]
    for n in (2, 3, 4):
        images = {pair: brunnian_image(pair[0], pair[1], n) for pair in pairs}
        for pair in pairs:
            assert not is_monomial_unit(images[pair]), (n, pair)
        for a, b in itertools.combinations(pairs, 2):
            assert distinguish_brunnian_modules(*a, *b, n), (n, a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"brunnian sweep took {elapsed:.3f}s"
    announce(3, f"all unordered-distinct pairs <= 5 distinguished for n in 2..4, "
                f"images never units, psi(w) = I + E_1n for n <= 8, in {elapsed:.3f}s")


def test_criterion_4_presentation_matrix():
    for k in (1, 2, 3):
        geo = builtin_geometry("genus2_complement")
        spec = BarbellSpec("S_h_1", "S_h_2", geo.identity(), iterate=k)
        rows = present_from_scenario(geo, [spec])

        def poly(powers):
            return RingElement(geo.group, INT, {t_elt(geo, e): c for e, c in powers.items()})

        assert rows == [[poly({}), poly({0: k, -1: -k})], [poly({-1: k, 0: -k}), poly({})]]
        factor = poly({1: k, 0: -k})
        assert antidiagonal_cokernel(rows) == [factor, factor]
    announce(4, "F = [[0, k-kt^-1],[kt^-1-k, 0]] and cokernel [k(t-1)]^2 for k in 1..3")


def test_criterion_5_unknot_variants():
    report = run_theorem("unknots", k=3, l=2)
    assert report.passed
    record = report.to_machine()  # the printed forms
    for variant in ("v-only", "h-only", "h-after-v"):
        assert record["computed"][variant]["f"]["rendered"] == "1"
        assert record["computed"][variant]["dim"] == 0
    announce(5, "all three unknot variants present the unit relator (trivial module)")


def test_criterion_6_branched_cover_refutation():
    m = 205
    for k in (1, 2, 3):
        report = run_theorem("genus1-handlebody", m=m, k=k)
        assert report.passed
        assert report.computed["witnesses"] == {"x_dot_rho_k_D": 1, "x_dot_D": 0, "mu_dot_D": 1}
        assert report.computed["refuted"] and not report.computed["in_meridian_span"]
    for k, l in ((1, 2), (1, 3), (2, 3)):
        report = run_theorem("genus1-handlebody", m=m, k=k, l=l)
        assert report.passed and report.computed["refuted"]
    announce(6, "pairing witnesses (1, 0, 1) and membership modulo <mu> refuted, m=205, k=1..3 and pairs")


def test_criterion_7_obstruction_scenarios():
    for k in range(1, 6):
        for l in range(0, 6):
            if k == l:
                continue
            r = run_theorem("circle-splittingspheres", k=k, l=l)
            assert r.passed and r.computed["distinguished"], (k, l)
            r = run_theorem("simple-knotted-handlebody", k=k, l=l)
            assert r.passed and r.computed["distinguished"], (k, l)
            r = run_theorem("disks-5dlinked", k=k, l=l)
            assert r.passed and r.computed["linked"] and r.computed["mu_L_coefficient"] == l - k
            r = run_theorem("less-simple", m=205, k=k, l=l)
            assert r.passed and r.computed["distinguished"], (k, l)
            r = run_theorem("simple-splitting-spheres", m=205, k=k, l=l)
            assert r.passed and r.computed["distinguished"], (k, l)
    for k in range(1, 6):
        assert not run_theorem("circle-splittingspheres", k=k, l=k).computed["distinguished"]
        assert not run_theorem("simple-knotted-handlebody", k=k, l=k).computed["distinguished"]
        assert not run_theorem("disks-5dlinked", k=k, l=k).computed["linked"]
        assert not run_theorem("less-simple", m=205, k=k, l=k).computed["distinguished"]
        assert not run_theorem(
            "simple-splitting-spheres", m=205, k=k, l=k
        ).computed["distinguished"]
    announce(7, "splitting/handlebody/disk-link/cover obstructions match for k != l <= 5 and invert at k = l")


def test_criterion_8_higher_dimensional_family():
    for k in range(1, 11):
        for l in range(1, 11):
            geo = builtin_geometry("torus_complement")
            rows = present_from_scenario(geo, torus_specs(geo, k, l))
            f = rows[0][0]
            assert f == morsesimple_f(k, l), (k, l)  # same f as criterion 1
            assert f2_quotient_dim(rows) == 2 * k + 2 * l + 2
    announce(8, "2n-dimensional pairing data reproduces the same f and dims on the 1..10 grid")


def test_criterion_9_montesinos():
    import math

    assert classify_gluing(GluingMatrix(1, 0, 0, 1)) == "S1xS2"
    assert classify_gluing(GluingMatrix(0, -1, 1, 0)) == "S3"
    for p in range(2, 31):
        for q in range(p + 1, 31):
            if math.gcd(p, q) != 1:
                continue
            matrix = montesinos_matrix_for(p, q)
            a, b, c, d = matrix.entries()
            assert a * d - b * c == 1 and (a + b + c + d) % 2 == 0
            target = f"L({p},{p + q})" if (p + q) % 2 == 0 else f"L({p},{q})"
            assert classify_gluing(matrix) == target, (p, q)
    announce(9, "det-1 even-sum matrices realize L(p,q) (or L(p,p+q)) for coprime 2 <= p < q <= 30")


def test_criterion_10_per_lift_oracle():
    rng = random.Random(20240817)

    def random_geometry(m, coeffs):
        labels = {**dict.fromkeys(("A", "B", "C1", "C2"), SPHERE), "P": DISK}
        group = DeckGroup(CYCLIC, m)

        def poly():
            support = rng.sample(range(m), rng.randint(0, min(3, m)))
            values = [-1, 1] if coeffs == INT else [1]
            return RingElement(group, coeffs, {DeckElement(group, i): rng.choice(values) for i in support})

        entries = {}
        for sphere in ("C1", "C2"):
            for cuff in ("A", "B"):
                entries[(sphere, cuff)] = poly()
            entries[("P", sphere)] = poly()
        return Geometry("oracle", group, coeffs, labels, entries, disks=["P"])

    checked = 0
    while checked < 200:
        m = rng.randint(2, 12)
        coeffs = rng.choice([F2, INT])
        geo = random_geometry(m, coeffs)
        signs = (rng.choice([1, -1]), rng.choice([1, -1])) if coeffs == INT else (1, 1)
        spec = BarbellSpec("A", "B", DeckElement(geo.group, rng.randrange(m)), signs=signs)
        x = EquivClass(
            geo,
            {
                (rng.choice(["A", "B", "C1", "C2"]), DeckElement(geo.group, rng.randrange(m))):
                    rng.choice([-2, -1, 1, 2])
                for _ in range(rng.randint(0, 5))
            },
        )
        # oracle: one homology action per lift, folded sequentially
        slow = x
        s1, s2 = spec.signs
        for u in range(m):
            cuff1 = geo.basis_class("A", DeckElement(geo.group, u))
            cuff2 = geo.basis_class("B", DeckElement(geo.group, (u + spec.holonomy.value) % m))
            a, b = pair_classes(slow, cuff1), pair_classes(slow, cuff2)
            slow = slow.add(cuff2.scale(s1 * a)).add(cuff1.scale(-s2 * b))
        assert barbell_action(x, spec) == slow
        checked += 1
    announce(10, "equivariant action equals the per-lift brute force on 200 random cyclic-cover classes")
