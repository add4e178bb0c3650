import itertools
import operator
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barbellcalc import deckgroup
from barbellcalc.deckgroup import (
    CYCLIC,
    FREE,
    _LETTER_TABLE_BOUND,
    _LETTERS,
    _check_value,
    MAX_POWER_LETTERS,
    DeckElement,
    DeckGroup,
    GroupError,
    brunnian_word,
    commutator,
    element_from_json,
    element_to_json,
    format_element,
    free_abelian,
    free_group,
    parse_word,
    reduce_letters,
)
from oracles import UniTriMatrix, cyclic_project, format_letters, nilpotent_times_z, slow_pow, unitriangular_rep

F3 = free_group(3)


def word(group, *letters):
    return DeckElement(group, reduce_letters(letters, group.n))


# -- independent oracles -----------------------------------------------------


def slow_reduce(letters):
    """Single-letter stack reduction: the naive free-reduction oracle."""
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
    return tuple((g, e) for g, e in merged if e)


def slow_rep(w, n):
    """Dense product of elementary matrices, one per letter."""
    out = UniTriMatrix.identity(n)
    for gen, exp in w.value:
        out = out.mul(UniTriMatrix.elementary(n, gen, gen + 1, exp))
    return out


def matmul3(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


# -- reduce -------------------------------------------------------------------


def test_reduce_cancellation():
    assert reduce_letters([(1, 1), (1, -1)]) == ()


def test_reduce_merges_exponents():
    assert reduce_letters([(1, 1), (2, 1), (2, 1)]) == ((1, 1), (2, 2))


def test_reduce_commutator_already_reduced():
    letters = [(1, -1), (2, -1), (1, 1), (2, 1)]
    assert reduce_letters(letters) == tuple(letters)


def test_reduce_rejects_out_of_range_index():
    with pytest.raises(GroupError):
        reduce_letters([(4, 1)], rank=3)


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3)), max_size=30))
def test_reduce_idempotent_and_matches_slow_oracle(letters):
    once = reduce_letters(letters)
    assert reduce_letters(once) == once
    assert once == slow_reduce(letters)


# -- group law ----------------------------------------------------------------


def test_multiply_inverse_is_identity():
    a = word(F3, (1, 1))
    assert a.mul(a.inv()).is_identity()


def test_cyclic_multiplication_mod_5():
    g = DeckGroup(CYCLIC, 5)
    assert DeckElement(g, 3).mul(DeckElement(g, 4)) == DeckElement(g, 2)


def test_commutator_convention():
    a, b = F3.generator(1), F3.generator(2)
    assert commutator(a, b) == word(F3, (1, -1), (2, -1), (1, 1), (2, 1))


def test_group_mismatch_raises():
    with pytest.raises(GroupError):
        F3.generator(1).mul(free_group(2).generator(1))


def test_bulk_random_inverses():
    rng = random.Random(7)
    for _ in range(10_000):
        letters = [(rng.randint(1, 3), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 8))]
        a = word(F3, *letters)
        assert a.mul(a.inv()).is_identity()


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)), max_size=12))
def test_free_abelian_and_cyclic_inverses(letters):
    za = free_abelian(3)
    vec = [0, 0, 0]
    for gen, exp in letters:
        vec[gen - 1] += exp
    a = DeckElement(za, tuple(vec))
    assert a.mul(a.inv()).is_identity()
    zc = DeckGroup(CYCLIC, 7)
    c = DeckElement(zc, sum(e for _, e in letters) % 7)
    assert c.mul(c.inv()).is_identity()


# -- seam products, validation, equality -----------------------------------------

REDUCED = st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=10).map(
    lambda letters: reduce_letters(letters, 3)
)
NONZERO = st.integers(-3, 3).filter(bool)


def inverse_letters(w):
    return tuple((g, -e) for g, e in reversed(w))


def check_product(a, b):
    """a.mul(b) against a full free reduction of the concatenation."""
    product = DeckElement(F3, a).mul(DeckElement(F3, b)).value
    assert product == reduce_letters(itertools.chain(a, b)) == slow_reduce(itertools.chain(a, b))
    return product


@given(REDUCED, REDUCED, REDUCED)
def test_seam_product_cancels_a_shared_middle(p, u, q):
    # a = p u, b = u^-1 q: u cancels, then p's last and q's first letters
    # may cancel further or merge (u = () gives two random words)
    a = reduce_letters(p + u)
    b = reduce_letters(inverse_letters(u) + q)
    check_product(a, b)
    assert check_product(a, inverse_letters(a)) == ()
    assert check_product((), b) == b and check_product(a, ()) == a


@given(REDUCED, REDUCED, st.integers(1, 3), NONZERO, NONZERO)
def test_seam_product_merges_one_letter_pair(p, q, gen, e, f):
    a = reduce_letters(p + ((gen, e),))
    b = reduce_letters(((gen, f),) + q)
    check_product(a, b)


def test_seam_product_examples():
    assert check_product(((1, 2),), ((1, 1),)) == ((1, 3),)
    assert check_product(((1, 2), (2, 1)), ((2, -1), (1, -2))) == ()
    assert check_product(((1, 1), (2, 1)), ((2, -1), (1, 1), (3, 1))) == ((1, 2), (3, 1))
    assert check_product(((3, 1), (1, 1), (2, 1)), ((2, -1), (1, -1), (2, 1))) == ((3, 1), (2, 1))
    assert check_product((), ()) == ()


def builtin_valid(letters, n):
    """The three word conditions in builtins: no zero exponent, every
    generator in 1..n, no two adjacent letters on one generator."""
    if not letters:
        return True
    gens, exps = zip(*letters)
    return not (0 in exps or min(gens) < 1 or max(gens) > n or any(map(operator.eq, gens, gens[1:])))


@given(st.lists(st.tuples(st.integers(-1, 4), st.integers(-2, 2)), max_size=8))
def test_word_validation_matches_builtin_conditions(letters):
    letters = tuple(letters)
    try:
        DeckElement(F3, letters)
        accepted = True
    except GroupError as exc:
        assert "is not freely reduced" in str(exc)
        accepted = False
    assert accepted == builtin_valid(letters, 3)
    in_range = all(1 <= g <= 3 for g, _ in letters)
    # a valid word is exactly a raw word that free reduction leaves alone
    assert accepted == (in_range and reduce_letters(letters, 3) == letters)


def assert_all_equal(elements):
    first = elements[0]
    for other in elements[1:]:
        assert other == first and first == other
        assert hash(other) == hash(first)
    assert len(set(elements)) == 1


@given(REDUCED, st.data())
def test_equal_words_are_equal_and_hash_equal_however_built(w, data):
    f3 = DeckGroup(FREE, 3)
    x = DeckElement(free_group(3), w)
    cut = data.draw(st.integers(0, len(w)))
    built = [
        x,
        DeckElement(f3, w[:cut]).mul(DeckElement(f3, w[cut:])),
        x.mul(x.inv()).mul(x),
        x.pow(1),
        x.pow(2).mul(x.inv()),
        x.inv().pow(-1),
        parse_word(format_element(x), f3),
        element_from_json(element_to_json(x), free_group(3)),
    ]
    assert f3 == free_group(3) and hash(f3) == hash(free_group(3))
    assert_all_equal(built)
    assert_all_equal([x.mul(x.inv()), F3.identity(), parse_word("1", f3)])


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3), st.integers(0, 2**70))
def test_equal_vectors_and_residues_are_equal_and_hash_equal_however_built(vec, r):
    z3 = free_abelian(3)
    v = DeckElement(z3, tuple(vec))
    assert_all_equal([
        v,
        element_from_json(list(vec), free_abelian(3)),
        v.pow(3).mul(v.pow(-2)),
        parse_word(format_element(v), free_abelian(3)),
    ])
    # residues below and beyond 2**61 - 1, where hash(r) != r
    m = 2**71
    zm = DeckGroup(CYCLIC, m)
    c = DeckElement(zm, r)
    assert_all_equal([c, element_from_json(r, zm), c.pow(3).mul(c.pow(-2)), parse_word(str(r), zm)])


def test_values_of_different_groups_differ():
    assert DeckElement(DeckGroup(CYCLIC, 5), 1) != DeckElement(DeckGroup(CYCLIC, 7), 1)
    assert free_group(2).identity() != free_group(3).identity()
    assert free_group(2) != free_abelian(2) and free_group(2) != DeckGroup(CYCLIC, 2)
    assert DeckElement(DeckGroup(CYCLIC, 5), 1) != 1 and free_group(2) != "free"
    with pytest.raises(GroupError, match="cannot multiply across groups"):
        DeckElement(DeckGroup(CYCLIC, 5), 1).mul(DeckElement(DeckGroup(CYCLIC, 7), 1))


def test_values_are_slotted_and_frozen():
    x = F3.generator(2)
    assert not hasattr(x, "__dict__") and not hasattr(F3, "__dict__")
    with pytest.raises(AttributeError):
        x.value = ()
    with pytest.raises(AttributeError):
        F3.n = 4


# -- powers ---------------------------------------------------------------------

LETTERS = st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=10)
EXPONENTS = st.integers(-30, 30)


@given(LETTERS, EXPONENTS)
def test_free_power_matches_repeated_product(letters, k):
    # words need not be cyclically reduced, so powers cancel across copies
    x = word(F3, *letters)
    assert x.pow(k) == slow_pow(x, k)
    assert x.pow(-k) == x.pow(k).inv()


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3), EXPONENTS)
def test_free_abelian_power_matches_repeated_product(vec, k):
    x = DeckElement(free_abelian(3), tuple(vec))
    assert x.pow(k) == slow_pow(x, k)
    assert x.pow(-k) == x.pow(k).inv()


@given(st.integers(1, 12), st.integers(0, 11), EXPONENTS)
def test_cyclic_power_matches_repeated_product(m, r, k):
    x = DeckElement(DeckGroup(CYCLIC, m), r % m)
    assert x.pow(k) == slow_pow(x, k)
    assert x.pow(-k) == x.pow(k).inv()


def test_power_of_cyclically_reduced_word_has_no_cancellation():
    # [x1, x2] starts with x1^-1 and ends with x2, so copies never merge
    assert len(brunnian_word(3).pow(10**4).value) == 40_000


def test_word_power_is_capped_before_it_is_built():
    w = brunnian_word(3)
    top = MAX_POWER_LETTERS // 4
    assert len(w.pow(-top).value) == MAX_POWER_LETTERS
    for k in (top + 1, -top - 1, 10**12):
        with pytest.raises(GroupError, match=f"more than {MAX_POWER_LETTERS}"):
            w.pow(k)
    # only words are capped: other kinds have fixed-size values
    assert DeckElement(free_abelian(2), (1, 2)).pow(10**12).value == (10**12, 2 * 10**12)
    assert DeckElement(DeckGroup(CYCLIC, 7), 3).pow(10**12).value == 3 * 10**12 % 7


# A word's two ends decide how pow builds it: copies of a word whose
# first and last letters lie on different generators never cancel, so
# they are the power as they stand; only words whose ends share a
# generator go through reduce_letters.
DISTINCT_ENDS = REDUCED.filter(lambda w: len(w) >= 2 and w[0][0] != w[-1][0])
SHARED_ENDS = REDUCED.filter(lambda w: w and w[0][0] == w[-1][0])


@pytest.mark.parametrize("words", [DISTINCT_ENDS, SHARED_ENDS], ids=["distinct-ends", "shared-ends"])
@given(data=st.data())
def test_word_power_matches_slow_pow_for_either_kind_of_end(words, data):
    x = DeckElement(F3, data.draw(words))
    k = data.draw(EXPONENTS)
    power = x.pow(k)
    assert power == slow_pow(x, k)
    _check_value(F3, power.value)


def test_word_power_with_distinct_ends_skips_the_reduction_pass(monkeypatch):
    w = brunnian_word(4)  # starts with x1^-1 x2^-1, ends with x3
    shared = word(F3, (1, 1), (2, 1), (1, 1))

    def refuse(*args, **kwargs):
        raise AssertionError("reduce_letters called")

    monkeypatch.setattr(deckgroup, "reduce_letters", refuse)
    assert w.pow(-7).value == w.inv().value * 7
    with pytest.raises(AssertionError, match="reduce_letters called"):
        shared.pow(2)


# -- rendering --------------------------------------------------------------------
#
# format_element looks each letter up in a table that keeps the strings
# of letters with generator index and |exponent| up to the bound; beyond
# it, letters are formatted on every lookup and never stored.

BOUND = _LETTER_TABLE_BOUND
WIDE_LETTERS = st.lists(
    st.tuples(st.integers(1, BOUND + 6), st.integers(-BOUND - 200, BOUND + 200)), max_size=12
)


def beyond_bound(letters):
    return [(g, e) for g, e in letters if g > BOUND or abs(e) > BOUND]


@given(WIDE_LETTERS)
def test_format_element_matches_the_per_letter_join(letters):
    x = DeckElement(free_group(BOUND + 6), reduce_letters(letters))
    assert format_element(x) == format_letters(x)
    assert not any(letter in _LETTERS for letter in beyond_bound(x.value))
    assert len(_LETTERS) <= BOUND * 2 * BOUND


@given(st.lists(st.integers(-BOUND - 200, BOUND + 200), min_size=1, max_size=BOUND + 6))
def test_format_element_of_a_vector_matches_the_per_letter_join(vec):
    x = DeckElement(free_abelian(len(vec)), tuple(vec))
    assert format_element(x) == format_letters(x)
    letters = [(i + 1, e) for i, e in enumerate(vec) if e]
    assert not any(letter in _LETTERS for letter in beyond_bound(letters))


def test_format_element_keeps_only_small_letters():
    big = word(free_group(BOUND + 1), (BOUND + 1, 1), (1, BOUND + 1), (2, -BOUND - 1), (3, 10**30))
    assert format_element(big) == f"x{BOUND + 1} x1^{BOUND + 1} x2^{-BOUND - 1} x3^{10**30}"
    assert not any(letter in _LETTERS for letter in big.value)
    small = word(F3, (1, BOUND), (2, -BOUND), (3, 1))
    assert format_element(small) == f"x1^{BOUND} x2^{-BOUND} x3"
    assert all(letter in _LETTERS for letter in small.value)


# -- the trusted constructor -----------------------------------------------------
#
# mul, inv and pow build their results without the public constructor's
# check; every value they return must still pass it.


def check_trusted(elt):
    """elt passes the public constructor's check and matches, value and
    hash, the element the validating constructor builds from its value."""
    _check_value(elt.group, elt.value)
    validated = DeckElement(elt.group, elt.value)
    assert validated.value == elt.value and validated == elt
    assert hash(validated) == hash(elt)


def check_operations(x, y, k):
    for elt in (x.mul(y), y.mul(x), x.mul(x.inv()), x.inv(), y.inv(), x.pow(k), y.pow(-k), x.pow(0)):
        check_trusted(elt)


@given(REDUCED, REDUCED, REDUCED, EXPONENTS)
def test_word_operations_return_canonical_words(p, u, q, k):
    # a = p u and b = u^-1 q cancel at their seam (u = () gives two random words)
    a = DeckElement(F3, reduce_letters(p + u))
    b = DeckElement(F3, reduce_letters(inverse_letters(u) + q))
    check_operations(a, b, k)


@given(st.integers(1, 5).flatmap(lambda r: st.tuples(*[st.lists(st.integers(-9, 9), min_size=r, max_size=r)] * 2)),
       EXPONENTS)
def test_vector_operations_return_canonical_vectors(vectors, k):
    group = free_abelian(len(vectors[0]))
    check_operations(DeckElement(group, tuple(vectors[0])), DeckElement(group, tuple(vectors[1])), k)


@given(st.integers(1, 2**70).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1), st.integers(0, m - 1))),
       st.integers(-(2**70), 2**70))
def test_residue_operations_return_canonical_residues(residues, k):
    # residues beyond 2**61 - 1 hash differently from their value
    m, r, s = residues
    check_operations(DeckElement(DeckGroup(CYCLIC, m), r), DeckElement(DeckGroup(CYCLIC, m), s), k)


@given(REDUCED, st.lists(st.integers(-3, 3), min_size=2, max_size=2), st.integers(-12, 12))
def test_is_identity_agrees_with_comparing_to_the_identity(letters, vec, r):
    for group, value in ((F3, letters), (free_abelian(2), tuple(vec)), (DeckGroup(CYCLIC, 5), r % 5)):
        x = DeckElement(group, value)
        for elt in (x, x.mul(x.inv()), group.identity()):
            assert elt.is_identity() == (elt == group.identity())


@given(REDUCED.filter(bool))
def test_a_word_times_the_empty_word_is_the_word_itself(letters):
    x, one = DeckElement(F3, letters), F3.identity()
    assert x.mul(one) is x and one.mul(x) is x
    check_trusted(one.mul(one))


def test_public_constructor_refuses_non_canonical_values():
    for letters in (((1, 1), (1, 2)), ((2, 0),), ((4, 1),)):
        with pytest.raises(GroupError, match="is not freely reduced"):
            DeckElement(F3, letters)
    with pytest.raises(GroupError, match=r"has length 2; Z\^3 has rank 3"):
        DeckElement(free_abelian(3), (1, 2))
    for residue in (5, -1):
        with pytest.raises(GroupError, match="not normalized mod 5"):
            DeckElement(DeckGroup(CYCLIC, 5), residue)
    with pytest.raises(GroupError, match="not normalized"):
        DeckElement(DeckGroup(CYCLIC, 2**70), 2**70)


@pytest.mark.parametrize("group", [free_group(2), free_abelian(2)], ids=["free", "free-abelian-rank-2"])
def test_an_integer_word_is_the_identity_or_refused(group):
    # the integer 1 reads as the word "1" does; any other integer is
    # refused, one of 5,000 digits too, without being converted to text
    assert element_from_json(1, group) == element_from_json("1", group) == group.identity()
    for number in (0, 5, -1, 10**5000):
        with pytest.raises(GroupError, match=re.escape(f"an integer element of {group!r} must be 1, the identity")):
            element_from_json(number, group)
    with pytest.raises(GroupError, match="cannot parse letter 'True'"):
        element_from_json(True, group)


# -- brunnian words -------------------------------------------------------------


def test_brunnian_word_rank_two_is_first_generator():
    assert brunnian_word(2) == free_group(2).generator(1)


def test_brunnian_word_rank_three():
    assert brunnian_word(3) == word(F3, (1, -1), (2, -1), (1, 1), (2, 1))


def test_brunnian_word_rank_four_against_symbolic_expansion():
    # oracle: expand [[x1,x2],x3] symbol by symbol and slow-reduce
    w2 = [(1, -1), (2, -1), (1, 1), (2, 1)]
    w2_inv = [(g, -e) for g, e in reversed(w2)]
    expanded = w2_inv + [(3, -1)] + w2 + [(3, 1)]
    expected = slow_reduce(expanded)
    got = brunnian_word(4)
    assert got.value == expected
    assert len(got.value) == 10
    # lives in the subgroup generated by the first three letters
    assert all(g < 4 for g, _ in got.value)


def test_brunnian_word_needs_rank_two():
    with pytest.raises(GroupError):
        brunnian_word(1)


# -- unitriangular representation ----------------------------------------------


def test_rep_of_generator_is_elementary():
    assert unitriangular_rep(F3.generator(1), 3) == UniTriMatrix.elementary(3, 1, 2)


def test_rep_of_identity():
    assert unitriangular_rep(F3.identity(), 3) == UniTriMatrix.identity(3)


def test_rep_of_commutator_matches_matrix_oracle():
    # oracle: plain 3x3 integer matrix products
    e12 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    e12_inv = ((1, -1, 0), (0, 1, 0), (0, 0, 1))
    e23 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    e23_inv = ((1, 0, 0), (0, 1, -1), (0, 0, 1))
    oracle = matmul3(matmul3(e12_inv, e23_inv), matmul3(e12, e23))
    got = unitriangular_rep(brunnian_word(3), 3)
    assert got.rows == oracle
    assert got == UniTriMatrix.elementary(3, 1, 3)


@pytest.mark.parametrize("n", range(2, 9))
def test_rep_of_brunnian_word_is_corner_elementary(n):
    assert unitriangular_rep(brunnian_word(n), n) == UniTriMatrix.elementary(n, 1, n)


def test_rep_rejects_last_generator():
    with pytest.raises(GroupError):
        unitriangular_rep(F3.generator(3), 3)


@given(
    st.lists(st.tuples(st.integers(1, 2), st.integers(-2, 2)), max_size=8),
    st.lists(st.tuples(st.integers(1, 2), st.integers(-2, 2)), max_size=8),
)
def test_rep_is_homomorphism(aletters, bletters):
    a, b = word(F3, *aletters), word(F3, *bletters)
    assert unitriangular_rep(a.mul(b), 3) == unitriangular_rep(a, 3).mul(unitriangular_rep(b, 3))


@given(st.data(), st.integers(2, 7))
def test_rep_matches_dense_elementary_product(data, n):
    letters = data.draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(-3, 3)), max_size=20))
    w = word(free_group(n), *letters)
    assert unitriangular_rep(w, n) == slow_rep(w, n)


@given(st.data(), st.integers(2, 7))
def test_rep_rejects_any_generator_without_an_image(data, n):
    letters = data.draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(-3, 3)), max_size=6))
    bad = (data.draw(st.integers(n, n + 2)), data.draw(st.sampled_from([-2, -1, 1, 2])))
    position = data.draw(st.integers(0, len(letters)))
    w = word(free_group(n + 2), *letters[:position], bad, *letters[position:])
    with pytest.raises(GroupError, match=f"has no image in U_{n}"):
        unitriangular_rep(w, n)


def test_unitriangular_shape_is_validated():
    with pytest.raises(GroupError):
        UniTriMatrix(((1, 0), (1, 1)))
    with pytest.raises(GroupError):
        UniTriMatrix(((2, 0), (0, 1)))


# -- nilpotent x Z coordinates ---------------------------------------------------


def test_coordinates_of_last_generator():
    mat, e = nilpotent_times_z(F3.generator(3), 3)
    assert mat == UniTriMatrix.identity(3) and e == 1


def test_coordinates_of_brunnian_word():
    mat, e = nilpotent_times_z(brunnian_word(3), 3)
    assert mat == UniTriMatrix.elementary(3, 1, 3) and e == 0


def test_coordinates_of_conjugate():
    w = brunnian_word(3)
    conj = w.mul(F3.generator(3)).mul(w.inv())
    mat, e = nilpotent_times_z(conj, 3)
    assert mat == UniTriMatrix.identity(3) and e == 1


def test_images_generate_a_rank_two_lattice():
    # phi(w)^a phi(x_n)^b = identity only at a = b = 0
    n = 4
    w = brunnian_word(n)
    rho = free_group(n).generator(n)
    for a in range(-20, 21):
        for b in range(-20, 21):
            mat, e = nilpotent_times_z(w.pow(a).mul(rho.pow(b)), n)
            trivial = mat == UniTriMatrix.identity(n) and e == 0
            assert trivial == (a == 0 and b == 0)


# -- cyclic projection ------------------------------------------------------------


def test_cyclic_project_power():
    assert cyclic_project(F3.generator(1).pow(3), (1, 0, 0), 5).value == 3


def test_cyclic_project_kills_commutators():
    w = brunnian_word(3)
    assert cyclic_project(w, (1, 2, 5), 7).value == 0
    # rank 2: w is the first generator; weight 0 kills it
    assert cyclic_project(brunnian_word(2), (0, 1), 4).value == 0


def test_cyclic_project_even_exponent_sum():
    elt = word(F3, (1, 1), (2, 1), (1, 1))
    assert cyclic_project(elt, (1, 0, 0), 2).value == 0


# -- serialization ----------------------------------------------------------------


def test_word_string_round_trip():
    elt = parse_word("x1^-1 x2 x1", F3)
    assert format_element(elt) == "x1^-1 x2 x1"
    assert parse_word(format_element(elt), F3) == elt


def test_identity_formats_as_one():
    assert format_element(F3.identity()) == "1"
    assert parse_word("1", F3).is_identity()


def test_parse_rejects_garbage():
    with pytest.raises(GroupError):
        parse_word("y2", F3)
