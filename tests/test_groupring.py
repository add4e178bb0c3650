import itertools
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barbellcalc import deckgroup
from barbellcalc.deckgroup import (
    CYCLIC,
    FREE,
    DeckElement,
    DeckGroup,
    GroupError,
    GroupMap,
    brunnian_word,
    element_from_json,
    free_abelian,
    free_group,
    parse_word,
    reduce_letters,
    syllables,
)
from barbellcalc.groupring import (
    F2,
    INT,
    RingElement,
    RingError,
    from_term_list,
    is_monomial_unit,
    laurent_span,
    push,
    render,
    term_list_and_render,
)
from oracles import (
    apply_hom,
    are_associates,
    brunnian_coordinates,
    brunnian_relator,
    cyclic_project,
    laurent_forms,
    pairs_inverse,
    pairs_product,
    read_element,
    read_term_list,
    reduce_pairs,
    ring_forms,
    slow_pow,
)

Z1 = free_abelian(1)
Z2 = free_abelian(2)
F2GRP = free_group(2)
F3GRP = free_group(3)


def tpoly(coeffs, powers):
    return RingElement(Z1, coeffs, {DeckElement(Z1, (e,)): c for e, c in powers.items()})


def stpoly(coeffs, terms):
    return RingElement(Z2, coeffs, {DeckElement(Z2, st_): c for st_, c in terms.items()})


def random_deck_element(rng, group):
    if group.kind == "free":
        letters = [(rng.randint(1, group.n), rng.choice([-1, 1])) for _ in range(rng.randint(0, 4))]
        return DeckElement(group, reduce_letters(letters, group.n))
    if group.kind == "free_abelian":
        return DeckElement(group, tuple(rng.randint(-3, 3) for _ in range(group.n)))
    return DeckElement(group, rng.randrange(group.n))


def random_element(rng, group, coeffs, size=4):
    terms = {}
    for _ in range(rng.randint(0, size)):
        elt = random_deck_element(rng, group)
        terms[elt] = terms.get(elt, 0) + rng.choice([-2, -1, 1, 2])
    return RingElement(group, coeffs, terms)


# -- value-keyed operations against term-by-term references ------------------
#
# Terms are keyed by canonical values.  Each reference below keys them by
# a form the engine does not use: a word by its (generator, exponent)
# pairs, multiplied and inverted by tests/oracles.py, a vector or residue
# by plain tuple or residue arithmetic.  Pairs compare as tuples in the
# order DeckElement.sort_key has always given words.

_LETTER = st.tuples(st.integers(1, 3), st.integers(-3, 3).filter(bool) | st.sampled_from([-70, 70]))


def _residues(m):
    return (DeckGroup(CYCLIC, m), st.integers(0, m - 1), lambda a, b: (a + b) % m, lambda a: -a % m, int, int)


def _vectors(r):
    vectors = st.lists(st.integers(-9, 9), min_size=r, max_size=r).map(tuple)
    return (free_abelian(r), vectors, lambda u, v: tuple(a + b for a, b in zip(u, v)),
            lambda u: tuple(-a for a in u), tuple, tuple)


# group, reference keys, product, inverse, value -> key, key -> value
REFERENCES = {
    "F_3": (F3GRP, st.lists(_LETTER, max_size=5).map(reduce_pairs), pairs_product, pairs_inverse,
            syllables, partial(reduce_letters, rank=3)),
    "Z": _vectors(1),
    "Z^3": _vectors(3),
    "Z/7": _residues(7),
    "Z/2^70+1": _residues(2**70 + 1),
}


def _combined(coeffs, terms):
    """Summed term by term, reduced mod 2 over F2, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    if coeffs == F2:
        out = {key: c % 2 for key, c in out.items()}
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("name", sorted(REFERENCES))
@given(data=st.data())
def test_value_keyed_operations_match_a_term_by_term_reference(name, data):
    group, keys, product, inverse, key_of, value_of = REFERENCES[name]
    coeffs = data.draw(st.sampled_from((F2, INT)))
    a, b = (data.draw(st.dictionaries(keys, st.integers(-3, 3), max_size=5)) for _ in range(2))
    g = data.draw(keys)
    x, y = (RingElement(group, coeffs, {DeckElement(group, value_of(k)): c for k, c in t.items()}) for t in (a, b))
    expected = {
        "add": _combined(coeffs, [*a.items(), *b.items()]),
        "mul": _combined(coeffs, [(product(p, q), c * d) for p, c in a.items() for q, d in b.items()]),
        "translate": _combined(coeffs, [(product(g, p), c) for p, c in a.items()]),
        "reverse": _combined(coeffs, [(inverse(p), c) for p, c in a.items()]),
    }
    results = {"add": x.add(y), "mul": x.mul(y), "translate": x.translate(DeckElement(group, value_of(g))),
               "reverse": x.reverse()}
    for op, result in results.items():
        assert all(DeckElement(group, value).value == value for value in result.terms), op
        assert {key_of(value): c for value, c in result.terms.items()} == expected[op], op
        assert [key_of(elt.value) for elt in result.support()] == sorted(expected[op]), op


# -- basic arithmetic ---------------------------------------------------------


def test_characteristic_two_addition():
    a = tpoly(F2, {0: 1, 1: 1})
    assert a.add(a).is_zero()


def test_noncommutative_product_distributes():
    one = F2GRP.identity()
    a = RingElement(F2GRP, F2, {one: 1, F2GRP.generator(1): 1})
    b = RingElement(F2GRP, F2, {one: 1, F2GRP.generator(2): 1})
    product = a.mul(b)
    x1x2 = F2GRP.generator(1).mul(F2GRP.generator(2))
    assert product.terms == {
        one.value: 1,
        F2GRP.generator(1).value: 1,
        F2GRP.generator(2).value: 1,
        x1x2.value: 1,
    }


def test_integer_difference_of_squares():
    t_minus = tpoly(INT, {1: 1, 0: -1})
    t_plus = tpoly(INT, {1: 1, 0: 1})
    assert t_minus.mul(t_plus) == tpoly(INT, {2: 1, 0: -1})


def test_mixed_ring_operations_raise():
    with pytest.raises(RingError):
        tpoly(F2, {0: 1}).add(tpoly(INT, {0: 1}))
    with pytest.raises(RingError):
        tpoly(F2, {0: 1}).add(stpoly(F2, {(0, 0): 1}))


def test_a_term_from_a_foreign_group_is_refused():
    x1 = F2GRP.generator(1)
    with pytest.raises(RingError, match="term from a different deck group"):
        RingElement(Z2, F2, {x1: 1})
    with pytest.raises(RingError, match="term from a different deck group"):
        RingElement(free_group(3), INT, {free_group(3).identity(): 1, x1: 1})
    # a bare value is no term, and no translation
    with pytest.raises(RingError, match="term from a different deck group: tuple not in Z\\^1"):
        RingElement(Z1, F2, {(1,): 1})
    for foreign in ((1,), x1):
        with pytest.raises(RingError, match="translation by an element of a different group"):
            RingElement.one(Z1, F2).translate(foreign)
        assert RingElement.one(Z1, F2).coefficient(foreign) == 0
    # a group built again is the one live group of its kind and size
    again = DeckGroup(FREE, 2)
    assert again is F2GRP
    assert RingElement(again, F2, {x1: 1}).terms == {x1.value: 1}


def test_ring_axioms_on_random_triples():
    rng = random.Random(11)
    for group in (F2GRP, Z2, DeckGroup(CYCLIC, 6)):
        for coeffs in (F2, INT):
            for _ in range(1000):
                a = random_element(rng, group, coeffs)
                b = random_element(rng, group, coeffs)
                c = random_element(rng, group, coeffs)
                assert a.add(b) == b.add(a)
                assert a.add(b).add(c) == a.add(b.add(c))
                assert a.mul(b).mul(c) == a.mul(b.mul(c))
                assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
                assert b.add(c).mul(a) == b.mul(a).add(c.mul(a))


# -- homomorphisms ------------------------------------------------------------


def brunnian_relator_image(k, l, n):
    # term by term through the unitriangular coordinates: the oracle for
    # the closed form brunnian_image
    w = brunnian_word(n)
    return apply_hom(brunnian_relator(w.pow(k), w.pow(l)), Z2, partial(brunnian_coordinates, n=n))


def test_identity_maps_to_one_under_any_hom():
    one = RingElement.one(F3GRP, F2)
    assert apply_hom(one, Z2, partial(brunnian_coordinates, n=3)) == RingElement.one(Z2, F2)
    cyc = partial(cyclic_project, weights=(1, 1, 1), m=5)
    assert apply_hom(one, DeckGroup(CYCLIC, 5), cyc) == RingElement.one(DeckGroup(CYCLIC, 5), F2)


def test_brunnian_coordinates_of_relator():
    # phi(f_{1,1}) = 1 + (t^-1 + 1)(s^-1 + s)(1 + t)(s^-1 + s)
    #             = 1 + (t + t^-1)(s^2 + s^-2) over F2
    image = brunnian_relator_image(1, 1, 2)
    expected = stpoly(
        F2, {(0, 0): 1, (2, 1): 1, (2, -1): 1, (-2, 1): 1, (-2, -1): 1}
    )
    assert image == expected


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k,l", [(1, 2), (2, 3)])
def test_pushforward_equals_the_product_formula_in_s_t(n, k, l):
    # oracle: build 1 + (t^-1 + 1)(s^-k + s^k)(1 + t)(s^-l + s^l)
    # directly in F2[s, t] and compare with the pushed-forward relator
    def st(a, b):
        return stpoly(F2, {(a, b): 1})

    product = st(0, -1).add(st(0, 0))
    product = product.mul(st(-k, 0).add(st(k, 0)))
    product = product.mul(st(0, 0).add(st(0, 1)))
    product = product.mul(st(-l, 0).add(st(l, 0)))
    expected = st(0, 0).add(product)
    assert brunnian_relator_image(k, l, n) == expected


def test_brunnian_coordinates_reject_outside_terms():
    elem = RingElement(F3GRP, F2, {F3GRP.identity(): 1, F3GRP.generator(1): 1})
    with pytest.raises(RingError, match="outside the central rank-2 subgroup"):
        apply_hom(elem, Z2, partial(brunnian_coordinates, n=3))


def test_homs_are_multiplicative_on_their_domains():
    rng = random.Random(5)
    n = 3
    group = free_group(n)
    w = brunnian_word(n)
    rho = group.generator(n)

    def random_subgroup_element():
        out = group.identity()
        for _ in range(rng.randint(0, 3)):
            out = out.mul(rng.choice([w, w.inv(), rho, rho.inv()]))
        return out

    hom = partial(apply_hom, target=Z2, image=partial(brunnian_coordinates, n=n))
    cyc = partial(apply_hom, target=DeckGroup(CYCLIC, 7), image=partial(cyclic_project, weights=(1, 2, 3), m=7))
    for _ in range(200):
        terms_a = {random_subgroup_element(): 1 for _ in range(rng.randint(1, 3))}
        terms_b = {random_subgroup_element(): 1 for _ in range(rng.randint(1, 3))}
        a = RingElement(group, F2, terms_a)
        b = RingElement(group, F2, terms_b)
        assert hom(a.mul(b)) == hom(a).mul(hom(b))
        ra = random_element(rng, group, F2)
        rb = random_element(rng, group, F2)
        assert cyc(ra.mul(rb)) == cyc(ra).mul(cyc(rb))


# -- push: the ring map of a GroupMap ------------------------------------------


def substitution_oracle(images):
    """The group map F_s -> G sending x_i to images[i - 1], applied one
    syllable at a time through repeated products (slow_pow)."""
    def image(elt):
        out = images[0].group.identity()
        for gen, exp in syllables(elt.value):
            out = out.mul(slow_pow(images[gen - 1], exp))
        return out
    return image


def matrix_map(matrix):
    """The GroupMap Z^s -> Z^r of r rows of s integers: its i-th coordinate is the
    dot product with matrix[i].  Generator j goes to column j; a short row leaves
    None in a column, and no rows leave no target, which the map refuses."""
    target = free_abelian(len(matrix))
    columns = list(itertools.zip_longest(*matrix))
    return GroupMap(free_abelian(len(columns)), target, [DeckElement(target, column) for column in columns])


@pytest.mark.parametrize("target", [free_group(3), free_abelian(2), DeckGroup(CYCLIC, 6)], ids=repr)
def test_substitute_is_the_group_map_applied_term_by_term(target):
    rng = random.Random(19)
    for _ in range(300):
        s = rng.randint(1, 3)
        elem = random_element(rng, free_group(s), rng.choice([F2, INT]), size=6)
        images = [random_deck_element(rng, target) for _ in range(s)]
        pushed = push(elem, GroupMap(free_group(s), target, images))
        assert pushed == apply_hom(elem, target, substitution_oracle(images))


def test_substitute_adds_colliding_terms_and_sends_the_inverse_letter_to_the_inverse():
    x1, x2 = F2GRP.generator(1), F2GRP.generator(2)
    # x1 + x2 + x1^-1 x2^2 along x1, x2 -> t, t: t + t + t, so t over F2 and 3t over Z
    terms = {x1: 1, x2: 1, x1.inv().mul(x2.pow(2)): 1}
    t = Z1.generator(1)
    assert push(RingElement(F2GRP, F2, terms), GroupMap(F2GRP, Z1, [t, t])) == tpoly(F2, {1: 1})
    assert push(RingElement(F2GRP, INT, terms), GroupMap(F2GRP, Z1, [t, t])) == tpoly(INT, {1: 3})
    # x1^-1 + x2 along x1, x2 -> t, t^-1: t^-1 twice, which cancel over F2
    assert push(RingElement(F2GRP, F2, {x1.inv(): 1, x2: 1}), GroupMap(F2GRP, Z1, [t, t.inv()])).is_zero()


def test_matrix_pushforward_is_the_group_map_applied_term_by_term():
    # oracle: apply_hom with the map written as plain dot products
    rng = random.Random(17)
    for _ in range(200):
        s, r = rng.randint(1, 3), rng.randint(1, 3)
        matrix = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(r)]
        elem = random_element(rng, free_abelian(s), rng.choice([F2, INT]), size=6)
        image = lambda g: DeckElement(free_abelian(r), tuple(sum(a * e for a, e in zip(row, g.value)) for row in matrix))
        assert push(elem, matrix_map(matrix)) == apply_hom(elem, free_abelian(r), image)


def test_matrix_pushforward_is_a_ring_map():
    rng = random.Random(18)
    for _ in range(100):
        matrix = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(rng.randint(1, 2))]
        coeffs = rng.choice([F2, INT])
        a, b = (random_element(rng, Z2, coeffs) for _ in range(2))
        along = partial(push, phi=matrix_map(matrix))
        assert along(a.mul(b)) == along(a).mul(along(b)) and along(a.add(b)) == along(a).add(along(b))


def test_matrix_pushforward_adds_colliding_terms():
    # s t + s^-1 t^-1 + s^2 t^2 along (a, b) -> a - b: all three land on 1
    elem, phi = {(1, 1): 1, (-1, -1): 1, (2, 2): 1}, matrix_map([[1, -1]])
    assert push(stpoly(F2, elem), phi) == tpoly(F2, {0: 1})
    assert push(stpoly(INT, {**elem, (2, 2): -5}), phi) == tpoly(INT, {0: -3})
    assert push(stpoly(F2, {(1, 1): 1, (2, 2): 1}), phi).is_zero()


@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_push_to_z_mod_m_is_the_cyclic_projection(s):
    # oracle: cyclic_project, the weighted exponent sum mod m, out of F_s and out of Z^s
    rng = random.Random(20 + s)
    for _ in range(100):
        m = rng.choice([1, 2, 7, 2**70 + 1])
        weights, target = [rng.randint(-9, 9) for _ in range(s)], DeckGroup(CYCLIC, m)
        images = [DeckElement(target, w % m) for w in weights]
        for source in (free_group(s), free_abelian(s)):
            elem = random_element(rng, source, rng.choice([F2, INT]), size=6)
            project = partial(cyclic_project, weights=weights, m=m)
            assert push(elem, GroupMap(source, target, images)) == apply_hom(elem, target, project)


def _maps_out_of(source):
    """The groups a GroupMap out of source may map into: any group out of
    F_s, an abelian one out of Z^s; each is a source again but Z/m."""
    out = [free_abelian(r) for r in (1, 2, 3)] + [DeckGroup(CYCLIC, m) for m in (1, 5, 12)]
    return out + [free_group(r) for r in (1, 2, 3)] if source.kind == FREE else out


@st.composite
def composable_maps(draw):
    """f: A -> B and g: B -> C, among F_s, Z^s and Z/m, with random images."""
    rng = draw(st.randoms(use_true_random=False))
    source = draw(st.sampled_from([free_group(s) for s in (1, 2, 3)] + [free_abelian(s) for s in (1, 2, 3)]))
    middle = draw(st.sampled_from([group for group in _maps_out_of(source) if group.kind != CYCLIC]))
    target = draw(st.sampled_from(_maps_out_of(middle)))
    f, g = (GroupMap(a, b, [random_deck_element(rng, b) for _ in range(a.n)]) for a, b in ((source, middle),
                                                                                          (middle, target)))
    return f, g, random_element(rng, source, rng.choice([F2, INT]), size=6)


@settings(max_examples=300, deadline=None)
@given(composable_maps())
def test_pushing_along_a_composite_is_pushing_along_each_map_in_turn(maps):
    # g o f sends each generator to g applied to f's image of it
    f, g, elem = maps
    composite = GroupMap(f.source, g.target, [DeckElement(g.target, g.value(v)) for v in f.images])
    assert push(push(elem, f), g) == push(elem, composite)


def test_push_refuses_a_map_out_of_another_group():
    t = Z1.generator(1)
    elem = RingElement(F2GRP, F2, {F2GRP.generator(1): 1})
    # an element over Z (once a source that is not free), over F_2 and Z/5 (once Z^s rows), and
    # over Z^2 along rows of three (a map out of Z^3)
    cyclic = RingElement(DeckGroup(CYCLIC, 5), F2, {DeckElement(DeckGroup(CYCLIC, 5), 1): 1})
    for x, phi in [(tpoly(F2, {1: 1}), GroupMap(free_group(1), Z1, [t])), (elem, matrix_map([[1, 0]])),
                   (cyclic, matrix_map([[1]])), (stpoly(F2, {(1, 0): 1}), matrix_map([[1, 0, 1]]))]:
        with pytest.raises(RingError, match=f"^push takes a group map out of {re.escape(repr(x.group))}, got"):
            push(x, phi)
    for phi in (None, [[1, 0]], [t, t]):
        with pytest.raises(RingError, match="^push takes a group map out of F_2, got "):
            push(elem, phi)



@pytest.mark.parametrize("elem, matrix", [
    (RingElement(F2GRP, F2, {F2GRP.generator(1): 1}), [[1, 0]]),
    (RingElement(DeckGroup(CYCLIC, 5), F2, {DeckElement(DeckGroup(CYCLIC, 5), 1): 1}), [[1]]),
    (stpoly(F2, {(1, 0): 1}), [[1, 0, 1]]),
    (stpoly(F2, {(1, 0): 1}), [[1, 0], [1]]),
    (stpoly(F2, {(1, 0): 1}), []),
])
def test_matrix_pushforward_refuses_a_map_it_cannot_apply(elem, matrix):
    # rows of s integers push only an element over Z^s: push refuses one over F_2, Z/5 or Z^2 along
    # rows of three; ragged rows and no rows make no map
    refusal = "^(push takes a group map out of |\\(0, None\\) is not an exponent vector|group parameter must be >= 1)"
    with pytest.raises((RingError, GroupError), match=refusal):
        push(elem, matrix_map(matrix))


# -- units and associates -------------------------------------------------------


def test_single_monomial_is_a_unit():
    assert is_monomial_unit(stpoly(F2, {(3, -2): 1}))


def test_three_terms_are_not_a_unit():
    assert not is_monomial_unit(stpoly(F2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}))


def test_relator_image_is_not_a_unit():
    assert not is_monomial_unit(brunnian_relator_image(1, 1, 2))


def test_associates_differing_by_a_monomial():
    a = stpoly(F2, {(1, 0): 1, (0, 1): 1})  # s + t
    b = stpoly(F2, {(0, 0): 1, (-1, 1): 1})  # 1 + s^-1 t
    assert are_associates(a, b)


def test_non_associates_different_supports():
    a = stpoly(F2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    b = stpoly(F2, {(0, 0): 1, (1, 0): 1})
    assert not are_associates(a, b)


def test_relator_images_symmetric_in_the_two_windings():
    assert are_associates(brunnian_relator_image(1, 2, 3), brunnian_relator_image(2, 1, 3))


def test_associates_reject_zero():
    with pytest.raises(RingError):
        are_associates(stpoly(F2, {}), stpoly(F2, {(0, 0): 1}))


def test_integer_associates_allow_sign():
    a = tpoly(INT, {1: 2, 0: -2})
    assert are_associates(a, a.neg())
    assert are_associates(a, a.translate(DeckElement(Z1, (5,))))


def test_associate_relation_properties_random():
    rng = random.Random(3)
    samples = []
    while len(samples) < 25:
        elem = random_element(rng, Z2, F2, size=5)
        if not elem.is_zero():
            samples.append(elem)
    for a in samples:
        assert are_associates(a, a)
        shift = DeckElement(Z2, (rng.randint(-3, 3), rng.randint(-3, 3)))
        assert are_associates(a, a.translate(shift))
    for a in samples[:10]:
        for b in samples[:10]:
            assert are_associates(a, b) == are_associates(b, a)
            for c in samples[:10]:
                if are_associates(a, b) and are_associates(b, c):
                    assert are_associates(a, c)


# -- Laurent span -----------------------------------------------------------------


def test_span_of_displayed_polynomial():
    f = tpoly(F2, {-3: 1, -1: 1, 0: 1, 1: 1, 3: 1})
    assert laurent_span(f) == 6


def test_span_of_unit_and_zero():
    assert laurent_span(tpoly(F2, {0: 1})) == 0
    assert laurent_span(tpoly(F2, {})) is None


def test_span_rejects_wrong_rank():
    with pytest.raises(RingError):
        laurent_span(stpoly(F2, {(0, 0): 1}))


@given(
    st.dictionaries(st.integers(-6, 6), st.just(1), min_size=1, max_size=5),
    st.dictionaries(st.integers(-6, 6), st.just(1), min_size=1, max_size=5),
)
def test_span_is_additive_over_products(pa, pb):
    a, b = tpoly(F2, pa), tpoly(F2, pb)
    assert laurent_span(a.mul(b)) == laurent_span(a) + laurent_span(b)


# -- rendering and serialization ----------------------------------------------------


def test_render_increasing_degree():
    f = tpoly(F2, {3: 1, -3: 1, 1: 1, -1: 1, 0: 1})
    assert render(f) == "t^-3 + t^-1 + 1 + t + t^3"


def test_render_integer_signs():
    assert render(tpoly(INT, {0: -3, 1: 3})) == "-3 + 3t"


def test_term_list_round_trip():
    rng = random.Random(9)
    for group in (F2GRP, Z1, Z2, DeckGroup(CYCLIC, 5)):
        for coeffs in (F2, INT):
            elem = random_element(rng, group, coeffs, size=6)
            assert from_term_list(term_list_and_render(elem)[0], group, coeffs) == elem


# The abelian groups a ring element is written over (t; s, t; x1..x3; t mod m),
# each with the modulus its keys are read mod, or None.
LAURENT_GROUPS = {"Z": (Z1, None), "Z^2": (Z2, None), "Z^3": (free_abelian(3), None),
                  "Z/7": (DeckGroup(CYCLIC, 7), 7), "Z/1000": (DeckGroup(CYCLIC, 1000), 1000)}


def laurent_element(group, modulus, coeffs, drawn):
    """The ring element sum c x^e of drawn (e, c) pairs, equal keys added."""
    terms = {}
    for key, c in drawn:
        x = DeckElement(group, key % modulus if modulus else tuple(key))
        terms[x] = terms.get(x, 0) + c
    return RingElement(group, coeffs, terms)


@pytest.mark.parametrize("coeffs", [F2, INT])
@pytest.mark.parametrize("name", sorted(LAURENT_GROUPS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_laurent_elements_convert_as_their_exponents_sorted(name, coeffs, data):
    # signed, non-unit and cancelling coefficients, at the identity too, and
    # exponents of 0, 1 and several digits
    group, modulus = LAURENT_GROUPS[name]
    key = st.integers(-1200, 1200) if modulus else st.tuples(*[st.integers(-12, 12)] * group.n)
    drawn = data.draw(st.lists(st.tuples(key | st.just(0 if modulus else (0,) * group.n), st.integers(-4, 4)),
                               max_size=8))
    elem = laurent_element(group, modulus, coeffs, drawn)
    assert term_list_and_render(elem) == laurent_forms(drawn, coeffs, modulus)


@pytest.mark.parametrize("name", sorted(LAURENT_GROUPS))
def test_the_zero_element_and_the_identity_convert_as_written(name):
    group, modulus = LAURENT_GROUPS[name]
    one = 0 if modulus else (0,) * group.n
    for coeffs, drawn, text in [(F2, [], "0"), (INT, [], "0"), (F2, [(one, 2)], "0"), (F2, [(one, 1)], "1"),
                                (INT, [(one, 1)], "1"), (INT, [(one, -1)], "-1"), (INT, [(one, -3)], "-3")]:
        forms = term_list_and_render(laurent_element(group, modulus, coeffs, drawn))
        assert forms == laurent_forms(drawn, coeffs, modulus) and forms[1] == text


# Words on generators at both ends of a rank's range, so that x63 (the last
# ASCII letter) and x64 on, above it, are drawn, alone or in one element;
# exponents of size 1 make words without runs and of size 2 words with one.
FREE_RANKS = [1, 63, 64, 100]
NONZERO_COEFFICIENTS = st.integers(-4, 4).filter(bool)


def free_words(rank):
    generators = st.integers(1, rank) if rank <= 6 else st.integers(1, 3) | st.integers(rank - 3, rank)
    return st.lists(st.tuples(generators, st.sampled_from((-2, -1, -1, 1, 1, 2))), max_size=6)


def free_element(group, coeffs, drawn):
    """The ring element sum c w of drawn (letters, c) pairs, equal words added."""
    terms = {}
    for letters, c in drawn:
        x = DeckElement(group, reduce_letters(letters, group.n))
        terms[x] = terms.get(x, 0) + c
    return RingElement(group, coeffs, terms)


@pytest.mark.parametrize("coeffs", [F2, INT])
@pytest.mark.parametrize("rank", FREE_RANKS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_free_group_elements_convert_as_their_pairs_sorted(rank, coeffs, data):
    # the words are sorted and rendered together, through one run test over
    # all of them, or one by one when any has a run; either way as pairs
    drawn = data.draw(st.lists(st.tuples(free_words(rank), NONZERO_COEFFICIENTS), max_size=8))
    elem = free_element(free_group(rank), coeffs, drawn)
    assert term_list_and_render(elem) == ring_forms([(reduce_pairs(letters), c) for letters, c in drawn], coeffs)


@pytest.mark.parametrize("rank", FREE_RANKS)
def test_elements_of_at_most_one_letter_convert_word_by_word(rank):
    # joined, these words have fewer than two letters, which the run test
    # and the one letter lookup do not take
    group = free_group(rank)
    one, top = group.identity(), group.generator(rank)
    cases = [
        ({one: 1}, F2, [["1", 1]], "1"),
        ({one: -3}, INT, [["1", -3]], "-3"),
        ({one: 1, group.generator(1): 1}, F2, [["1", 1], ["x1", 1]], "1 + x1"),
        ({one: 2, group.generator(1): -1}, INT, [["1", 2], ["x1", -1]], "2 - x1"),
        ({top.inv(): -2}, INT, [[f"x{rank}^-1", -2]], f"-2x{rank}^-1"),
    ]
    for terms, coeffs, term_list, rendered in cases:
        assert term_list_and_render(RingElement(group, coeffs, terms)) == (term_list, rendered)


def test_only_an_element_with_a_run_is_keyed_word_by_word(monkeypatch):
    # the bar words of an n = 2 relator are powers of x1, so its words have
    # runs; no word of an n = 3 relator has one
    keyed, real_key = [], deckgroup._word_key
    monkeypatch.setattr(deckgroup, "_word_key", lambda word: keyed.append(word) or real_key(word))
    for n, one_by_one in ((2, True), (3, False)):
        relator = brunnian_relator(brunnian_word(n).pow(10), brunnian_word(n).pow(12))
        del keyed[:]
        forms = term_list_and_render(relator)
        assert forms == ring_forms([(syllables(word), c) for word, c in relator.terms.items()], F2)
        assert len(keyed) == (len(relator.terms) if one_by_one else 0), n


# -- reading outside values: one JSON form each, nothing coerced ----------------------
#
# Valid forms and junk (None, floats, bools, bytes, dicts, nested lists,
# 10**5-character strings) against the readers' written rules
# (oracles.read_element, read_term_list): a form gives the oracle's value,
# anything else is refused with the package's ValueError in under 300 bytes.

READ_GROUPS = [free_group(3), Z1, Z2, DeckGroup(CYCLIC, 5)]
CARET = st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=6).map(
    lambda letters: " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in letters))
LONG_TEXT = (st.sampled_from(["x1 ", "x2^-1 ", "9", "a", " ", "x", "x9 ", "[", "\n"]) | st.text(min_size=1, max_size=3)).map(
    lambda unit: (unit * 10**5)[:10**5])
TEXTS = (CARET | st.integers(-10**6, 10**6).map(str) | LONG_TEXT | st.text(max_size=8)
         | st.sampled_from(["", "1", " 1 ", "1 x1", "x1^+2", "x1^", "x1^2^3", "x0", "x4 x1", "y1", "x\u0661^\u0663", "1_0"]))
INTEGERS = st.integers() | st.sampled_from([0, 1, -1, 10**5000])
VECTORS = st.lists(st.integers(-4, 4), max_size=3) | st.tuples(INTEGERS, INTEGERS)
JUNK_LEAVES = st.none() | st.floats() | st.booleans() | st.binary(max_size=4) | LONG_TEXT
JUNK = st.recursive(
    JUNK_LEAVES | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    lambda inner: st.lists(inner | INTEGERS, min_size=1, max_size=3),
    max_leaves=6,
)
ELEMENT_DATA = TEXTS | INTEGERS | VECTORS | JUNK
TERM_ELEMENTS = CARET | st.integers(-3, 3) | st.lists(st.integers(-3, 3), min_size=1, max_size=2) | ELEMENT_DATA
COEFFICIENTS = st.integers(-3, 3) | (st.just(10**5000) | st.floats() | st.booleans() | st.sampled_from(["3", None]))
TERM_LISTS = (
    st.lists(st.tuples(st.integers(-3, 3) | CARET, st.integers(-3, 3)).map(list), max_size=3)
    | st.lists(st.tuples(TERM_ELEMENTS, COEFFICIENTS).map(list), max_size=3)
    | st.lists(st.lists(st.integers(-1, 1), max_size=3), min_size=1, max_size=2)
    | JUNK
)


def read_form(group, value):
    """An engine value in the oracle's form: a word as its (generator, exponent) pairs."""
    return syllables(value) if group.kind == FREE else value


def refused_briefly(exc):
    return len(str(exc).encode()) < 300


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(READ_GROUPS), ELEMENT_DATA)
def test_element_readers_read_the_json_form_and_refuse_anything_else(group, data):
    expected = read_element(data, group)
    for reader in (element_from_json, parse_word):
        wanted = expected if reader is element_from_json or isinstance(data, str) else None
        try:
            got = reader(data, group)
        except GroupError as exc:
            assert wanted is None and refused_briefly(exc), (reader.__name__, str(exc)[:400])
        else:
            assert wanted is not None and read_form(group, got.value) == wanted, reader.__name__


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(READ_GROUPS), st.sampled_from([F2, INT]), TERM_LISTS)
def test_from_term_list_reads_the_json_form_and_refuses_anything_else(group, coeffs, data):
    expected = read_term_list(data, group, coeffs)
    try:
        got = from_term_list(data, group, coeffs)
    except (GroupError, RingError) as exc:
        assert expected is None and refused_briefly(exc), str(exc)[:400]
    else:
        assert expected is not None and {read_form(group, v): c for v, c in got.terms.items()} == expected
