import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barbellcalc.deckgroup import (
    DeckElement,
    GroupError,
    UniTriMatrix,
    brunnian_word,
    commutator,
    cyclic,
    cyclic_project,
    format_element,
    free_abelian,
    free_group,
    nilpotent_times_z,
    parse_word,
    reduce_letters,
    unitriangular_rep,
)

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


def slow_pow(x, k):
    """k-fold product of x (of x^-1 when k < 0), one mul at a time."""
    if k == 0:
        return x.group.identity()
    base = x if k > 0 else x.inv()
    out = base
    for _ in range(abs(k) - 1):
        out = out.mul(base)
    return out


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
    g = cyclic(5)
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
    zc = cyclic(7)
    c = DeckElement(zc, sum(e for _, e in letters) % 7)
    assert c.mul(c.inv()).is_identity()


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
    x = DeckElement(cyclic(m), r % m)
    assert x.pow(k) == slow_pow(x, k)
    assert x.pow(-k) == x.pow(k).inv()


def test_power_of_cyclically_reduced_word_has_no_cancellation():
    # [x1, x2] starts with x1^-1 and ends with x2, so copies never merge
    assert len(brunnian_word(3).pow(10**4).value) == 40_000


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


def test_unitriangular_inverse_and_powers():
    rng = random.Random(17)
    for _ in range(100):
        m = UniTriMatrix.identity(4)
        for _ in range(rng.randint(0, 6)):
            m = m.mul(UniTriMatrix.elementary(4, *sorted(rng.sample(range(1, 5), 2)), rng.randint(-3, 3)))
        assert m.mul(m.inv()) == UniTriMatrix.identity(4)
        assert m.pow(3) == m.mul(m).mul(m)
        assert m.pow(-2) == m.inv().mul(m.inv())


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
