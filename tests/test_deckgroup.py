import gc
import itertools
import operator
import random
import re
import threading
import time
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barbellcalc import deckgroup
from barbellcalc.deckgroup import (
    CYCLIC,
    FREE,
    _LETTER_TABLE_BOUND,
    _PAIR,
    _RUN,
    _RUN_OF,
    _SWAP,
    _TEXT,
    _check_value,
    _text,
    MAX_FREE_ABELIAN_RANK,
    MAX_FREE_RANK,
    MAX_POWER_LETTERS,
    DeckElement,
    DeckGroup,
    GroupError,
    GroupMap,
    brunnian_word,
    commutator,
    element_from_json,
    element_to_json,
    exponent_sum,
    format_element,
    free_abelian,
    free_group,
    parse_word,
    reduce_letters,
    syllables,
)
from oracles import (
    UniTriMatrix,
    cyclic_project,
    format_letters,
    nilpotent_times_z,
    pairs_inverse,
    pairs_power,
    pairs_product,
    pairs_text,
    reduce_pairs,
    slow_pow,
    unitriangular_rep,
)

F3 = free_group(3)


def word(group, *letters):
    return DeckElement(group, reduce_letters(letters, group.n))


# -- independent oracles -----------------------------------------------------


def slow_rep(w, n):
    """Dense product of elementary matrices, one per letter."""
    out = UniTriMatrix.identity(n)
    for gen, exp in syllables(w.value):
        out = out.mul(UniTriMatrix.elementary(n, gen, gen + 1, exp))
    return out


def matmul3(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


# -- reduce -------------------------------------------------------------------


def test_reduce_cancellation():
    assert reduce_letters([(1, 1), (1, -1)]) == ""


def test_reduce_merges_exponents():
    assert reduce_letters([(1, 1), (2, 1), (2, 1)]) == "\x03\x05\x05"
    assert syllables(reduce_letters([(1, 1), (2, 1), (2, 1)])) == ((1, 1), (2, 2))


def test_reduce_commutator_already_reduced():
    letters = [(1, -1), (2, -1), (1, 1), (2, 1)]
    assert reduce_letters(letters) == "\x02\x04\x03\x05"
    assert syllables(reduce_letters(letters)) == tuple(letters)


def test_reduce_rejects_out_of_range_index():
    with pytest.raises(GroupError):
        reduce_letters([(4, 1)], rank=3)
    for gen in (0, MAX_FREE_RANK + 1):
        with pytest.raises(GroupError, match="out of range"):
            reduce_letters([(gen, 1)])


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3)), max_size=30))
def test_reduce_idempotent_and_matches_slow_oracle(letters):
    once = reduce_letters(letters)
    assert reduce_letters(syllables(once)) == once
    assert syllables(once) == reduce_pairs(letters)
    assert len(once) == sum(abs(e) for _, e in reduce_pairs(letters))


def test_a_word_longer_than_the_cap_is_refused_before_it_is_built():
    # the cap counts letters, and bounds the reduced word: an exponent of
    # 4,000 digits is refused without expanding it, and one that cancels is not
    assert len(reduce_letters([(1, MAX_POWER_LETTERS)])) == MAX_POWER_LETTERS
    huge = int("9" * 4000)
    for letters in ([(1, MAX_POWER_LETTERS + 1)], [(1, -huge)], [(1, MAX_POWER_LETTERS), (2, 1), (1, 1)]):
        with pytest.raises(GroupError, match=f"word has more than {MAX_POWER_LETTERS} letters"):
            reduce_letters(letters)
    assert reduce_letters([(1, huge), (1, -huge), (2, 1)]) == "\x05"
    with pytest.raises(GroupError, match=f"more than {MAX_POWER_LETTERS} letters"):
        parse_word(f"x1^{MAX_POWER_LETTERS + 1}", F3)
    with pytest.raises(GroupError, match=f"more than {MAX_POWER_LETTERS} letters"):
        F3.generator(2, -huge)


def test_a_free_group_whose_letters_do_not_fit_in_a_code_point_is_refused():
    top = free_group(MAX_FREE_RANK)
    x = top.generator(MAX_FREE_RANK, -2)
    assert max(x.value) == chr(2 * MAX_FREE_RANK) < "\U0010fffe"
    assert format_element(x) == f"x{MAX_FREE_RANK}^-2" and x.inv().mul(x).is_identity()
    for rank in (MAX_FREE_RANK + 1, 10**5000):
        with pytest.raises(GroupError, match=f"free group rank must be <= {MAX_FREE_RANK}"):
            free_group(rank)
    # a free abelian group's cap is its own: each element is a tuple of its rank
    assert DeckGroup("free_abelian", MAX_FREE_ABELIAN_RANK).n == MAX_FREE_ABELIAN_RANK
    for rank in (MAX_FREE_ABELIAN_RANK + 1, MAX_FREE_RANK + 1, 10**9):
        with pytest.raises(GroupError, match=f"^free abelian rank must be <= {MAX_FREE_ABELIAN_RANK}, got {rank}$"):
            DeckGroup("free_abelian", rank)


@pytest.mark.parametrize("kind, n", [(FREE, 3), ("free_abelian", 2), (CYCLIC, 5), (CYCLIC, 2**70)])
def test_one_live_group_a_kind_and_size(kind, n):
    group = DeckGroup(kind, n)
    assert DeckGroup(kind, n) is group and deckgroup._GROUPS[kind, n] is group
    # groups compare by identity alone
    assert "__eq__" not in vars(DeckGroup) and "__hash__" not in vars(DeckGroup)


@pytest.mark.parametrize("kind, n", [(FREE, 3), ("free_abelian", 2), (CYCLIC, 5), (CYCLIC, 2**70)])
def test_a_group_builds_its_identity_once(kind, n):
    group = DeckGroup(kind, n)
    one = group.identity()
    assert all(group.identity() is one for _ in range(3)) and one.group is group and one.is_identity()
    assert one == DeckElement(group, "" if kind == FREE else (0,) * n if kind == "free_abelian" else 0)


def test_a_dropped_group_is_collected_though_its_identity_refers_back_to_it():
    # the identity element and its group form a reference cycle: the weak
    # table drops the group when the collector breaks it
    m = 10**12 + 39
    group = DeckGroup(CYCLIC, m)
    held, one = weakref.ref(group), group.identity()
    assert one.group is group and deckgroup._GROUPS[CYCLIC, m] is group
    del group, one
    gc.collect()
    assert held() is None and (CYCLIC, m) not in deckgroup._GROUPS


def test_two_threads_interning_one_fresh_group_get_one_object(monkeypatch):
    # a law that takes 0.05 s to build lets the second thread look the
    # group up while the first still builds it: only the lock makes it wait
    real = deckgroup._law
    monkeypatch.setattr(deckgroup, "_law", lambda kind, n: time.sleep(0.05) or real(kind, n))
    m, got = 10**12 + 61, []
    assert (CYCLIC, m) not in deckgroup._GROUPS
    threads = [threading.Thread(target=lambda: got.append(DeckGroup(CYCLIC, m))) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(got) == 2 and got[0] is got[1]


def test_free_group_and_free_abelian_hold_the_live_group():
    assert free_group(3) is DeckGroup(FREE, 3) and free_abelian(2) is DeckGroup("free_abelian", 2)
    # their memos tell 1 from True and 2 from 2.0, so these are refused however warm the memo is
    assert free_group(1) is DeckGroup(FREE, 1) and free_abelian(2) is free_abelian(2)
    for memo, n in ((free_group, True), (free_abelian, 2.0)):
        with pytest.raises(GroupError, match="group parameter must be an int"):
            memo(n)


@pytest.mark.parametrize("kind, n, message", [
    ("free_abelian", 2.0, "group parameter must be an int, not float"),
    ("free", 2.5, "group parameter must be an int, not float"),
    ("cyclic", 5.0, "group parameter must be an int, not float"),
    ("cyclic", True, "group parameter must be an int, not bool"),
    ("cyclic", "5", "group parameter must be an int, not str"),
    (["free"], 2, "unknown group kind"),
    ({}, 2, "unknown group kind"),
    ("Free", 2, "unknown group kind"),
])
def test_a_size_that_is_not_an_int_or_an_unknown_kind_is_refused_before_interning(kind, n, message):
    # 5.0 and True hash as 5 and 1 do: taken, they would alias Z/5 and Z/1
    five, one = DeckGroup(CYCLIC, 5), DeckGroup(CYCLIC, 1)
    with pytest.raises(GroupError, match=re.escape(message)):
        DeckGroup(kind, n)
    assert DeckGroup(CYCLIC, 5) is five and five.n.__class__ is int and five.generator(1).value == 1
    assert DeckGroup(CYCLIC, 1) is one and one.n.__class__ is int


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


@given(st.integers(1, 4), st.lists(st.integers(-5, 5), min_size=8, max_size=8))
def test_free_abelian_laws_add_and_negate_coordinatewise(rank, entries):
    # ranks 1 and 2 have laws of their own, written out per coordinate
    group = free_abelian(rank)
    u, v = tuple(entries[:rank]), tuple(entries[4 : 4 + rank])
    assert group._product(u, v) == tuple(a + b for a, b in zip(u, v))
    assert group._inverse(u) == tuple(-a for a in u)


# -- the pair oracle ------------------------------------------------------------
#
# Every word operation against free reduction over (generator, exponent)
# pairs (tests/oracles.py), on words with runs (x1^2) and without.

LETTERS = st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=10)
# reduced words as pairs, the oracle's form
REDUCED = LETTERS.map(reduce_pairs)
EXPONENTS = st.integers(-30, 30)


def element(pairs, group=F3):
    return DeckElement(group, reduce_letters(pairs, group.n))


@given(REDUCED, REDUCED, EXPONENTS)
def test_word_operations_match_the_pair_oracle(a, b, k):
    x, y = element(a), element(b)
    assert syllables(x.mul(y).value) == pairs_product(a, b)
    assert syllables(x.inv().value) == pairs_inverse(a)
    assert syllables(x.pow(k).value) == pairs_power(a, k)
    # a word without a run takes the run-free paths of sort_key and
    # format_element, so each result must render as its pairs do
    for z, pairs in ((x.mul(y), pairs_product(a, b)), (x.inv(), pairs_inverse(a)), (x.pow(k), pairs_power(a, k))):
        assert format_element(z) == pairs_text(pairs)
    assert len(x.value) == sum(abs(e) for _, e in a)
    assert exponent_sum(x.value) == sum(e for _, e in a)


@given(REDUCED)
def test_parse_and_format_round_trip_through_the_pair_oracle(a):
    x = element(a)
    text = format_element(x)
    assert text == pairs_text(a) == element_to_json(x)
    assert parse_word(text, F3) == x and syllables(parse_word(text, F3).value) == a


@given(st.lists(REDUCED, max_size=12))
def test_sort_key_orders_words_as_their_pairs(words):
    elements = [element(a) for a in words]
    assert [syllables(x.value) for x in sorted(elements, key=DeckElement.sort_key)] == sorted(words)


@pytest.mark.parametrize("smaller, larger", [
    ("x1 x2", "x1^2"),
    ("x1^-2", "x1^-1"),
    ("x1^2", "x1^3"),
    ("x1^-3 x2", "x1^-2"),
    ("x1^2 x3", "x2^-5"),
    ("x1^5", "x2^-2"),
    ("x1 x3^-1", "x1^2"),
    ("x2^-2 x1", "x2^-1"),
    ("x1", "x1 x2"),
], ids=lambda text: text.replace(" ", "_"))
def test_pinned_word_orders(smaller, larger):
    # string order on the code points puts x1^2 before x1 x2 and x1^-1
    # before x1^-2; sort_key keeps the order of the pairs
    a, b = parse_word(smaller, F3), parse_word(larger, F3)
    assert syllables(a.value) < syllables(b.value)
    assert a.sort_key() < b.sort_key()


def test_sort_key_of_long_runs_keeps_the_pair_order():
    runs = [F3.generator(1, e) for e in (-70_000, -65_537, -65_536, -2, -1, 1, 2, 65_536, 65_537, 70_000)]
    runs += [F3.generator(2, -70_000), F3.generator(1, 2).mul(F3.generator(2))]
    assert sorted(runs, key=DeckElement.sort_key) == sorted(runs, key=lambda x: syllables(x.value))


# generators on both sides of x63, the last ASCII letter (code point 127);
# exponents of size 1 give words without runs
RUN_LETTERS = st.lists(
    st.tuples(st.one_of(st.integers(1, 3), st.integers(62, 66)), st.sampled_from((-3, -2, -1, 1, 2, 3))), max_size=10
)


@given(st.lists(RUN_LETTERS, max_size=8))
def test_words_with_and_without_runs_render_and_order_as_their_pairs(words):
    # _text and sort_key take the run-free or the run-cut path; either way
    # a word renders and sorts as its reduced pairs do
    group = free_group(66)
    elements = [DeckElement(group, reduce_letters(letters)) for letters in words]
    pairs = [reduce_pairs(letters) for letters in words]
    for x, a in zip(elements, pairs):
        assert _text(group, x.value) == format_letters(x) == pairs_text(a)
    order = sorted(range(len(words)), key=lambda i: elements[i].sort_key())
    assert [pairs[i] for i in order] == sorted(pairs)


# -- seam products, validation, equality -----------------------------------------


def check_product(a, b):
    """a.mul(b), on words given as pairs, against the oracle's reduction
    of the concatenation; returns the product as pairs."""
    product = syllables(element(a).mul(element(b)).value)
    assert product == syllables(reduce_letters(itertools.chain(a, b))) == reduce_pairs(itertools.chain(a, b))
    return product


@given(REDUCED, REDUCED, REDUCED)
def test_seam_product_cancels_a_shared_middle(p, u, q):
    # a = p u, b = u^-1 q: u cancels, then p's last and q's first letters
    # may cancel further or merge (u = () gives two random words)
    a = reduce_pairs(p + u)
    b = reduce_pairs(pairs_inverse(u) + q)
    check_product(a, b)
    assert check_product(a, pairs_inverse(a)) == ()
    assert check_product((), b) == b and check_product(a, ()) == a


NONZERO = st.integers(-3, 3).filter(bool)


@given(REDUCED, REDUCED, st.integers(1, 3), NONZERO, NONZERO)
def test_seam_product_merges_one_letter_pair(p, q, gen, e, f):
    a = reduce_pairs(p + ((gen, e),))
    b = reduce_pairs(((gen, f),) + q)
    check_product(a, b)


def test_seam_product_examples():
    assert check_product(((1, 2),), ((1, 1),)) == ((1, 3),)
    assert check_product(((1, 2), (2, 1)), ((2, -1), (1, -2))) == ()
    assert check_product(((1, 1), (2, 1)), ((2, -1), (1, 1), (3, 1))) == ((1, 2), (3, 1))
    assert check_product(((3, 1), (1, 1), (2, 1)), ((2, -1), (1, -1), (2, 1))) == ((3, 1), (2, 1))
    assert check_product((), ()) == ()


def builtin_valid(letters, n):
    """The three word conditions on pairs, in builtins: no zero exponent,
    every generator in 1..n, no two adjacent letters on one generator."""
    if not letters:
        return True
    gens, exps = zip(*letters)
    return not (0 in exps or min(gens) < 1 or max(gens) > n or any(map(operator.eq, gens, gens[1:])))


@given(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 1)), max_size=8))
def test_word_validation_matches_builtin_conditions(letters):
    # one code point per letter; a code below 2 (generator 0) or above 7
    # (x4) and a letter next to its inverse are refused
    value = "".join(chr(max(2 * g + (e > 0), 0)) for g, e in letters if e)
    try:
        DeckElement(F3, value)
        accepted = True
    except GroupError as exc:
        assert "is not freely reduced" in str(exc)
        accepted = False
    codes = [ord(c) for c in value]
    valid_letters = all(2 <= c <= 7 for c in codes)
    no_inverse_pair = not any(c ^ 1 == d for c, d in zip(codes, codes[1:]))
    assert accepted == (valid_letters and no_inverse_pair)
    if valid_letters:
        # a valid word is exactly one that free reduction leaves alone,
        # and whose syllables keep the conditions on pairs
        pairs = tuple((c >> 1, 1 if c & 1 else -1) for c in codes)
        assert accepted == (reduce_letters(pairs, 3) == value) == builtin_valid(syllables(value), 3)


def assert_all_equal(elements):
    first = elements[0]
    for other in elements[1:]:
        assert other == first and first == other
        assert hash(other) == hash(first)
    assert len(set(elements)) == 1


@given(REDUCED, st.data())
def test_equal_words_are_equal_and_hash_equal_however_built(pairs, data):
    f3 = DeckGroup(FREE, 3)
    x = element(pairs, free_group(3))
    w = x.value
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
    assert f3 is free_group(3)
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
        x.value = ""
    with pytest.raises(AttributeError):
        F3.n = 4


# -- group maps -------------------------------------------------------------------


def test_a_group_map_refuses_what_it_cannot_build():
    z1, z2, z3, f2, z7 = free_abelian(1), free_abelian(2), free_abelian(3), free_group(2), DeckGroup(CYCLIC, 7)
    t = z1.generator(1)
    with pytest.raises(GroupError, match="^'F_2' is not a deck group$"):
        GroupMap("F_2", z1, [t, t])
    with pytest.raises(GroupError, match="^None is not a deck group$"):
        GroupMap(f2, None, [t, t])
    # a cyclic source, and Z^s into a free group: no caller needs them
    for source, target in ((z7, z1), (z2, f2), (z1, free_group(1))):
        with pytest.raises(GroupError, match=f"^no group map {re.escape(repr(source))} -> {re.escape(repr(target))}: "
                                             r"the source must be F_s, or Z\^s into Z\^r or Z/m$"):
            GroupMap(source, target, [target.identity()] * source.n)
    takes = "a map out of F_2 takes 2 images in Z^1, got "
    # a wrong count, a foreign image, a value that is not a DeckElement, and no list at all
    for images in ([t], [t, t, t], [t, z2.generator(1)], [(1,), (2,)], (t, 1), None, iter([t, t])):
        with pytest.raises(GroupError, match=f"^{re.escape(takes)}"):
            GroupMap(f2, z1, images)
    # the old class push's refusals, now each group map's: the row (1, 2) of
    # Z^3 -> Z/7 misses an image, and 2.0 and True are no residues of Z/7
    for row in ([1, 2], [1, 2.0, 0], [1, True, 0]):
        with pytest.raises(GroupError, match=f"^{re.escape('a map out of Z^3 takes 3 images in Z/7, got ')}"):
            GroupMap(z3, z7, row)
    with pytest.raises(GroupError, match=r"^residue 2\.0 not normalized mod 7$"):
        GroupMap(z3, z7, [DeckElement(z7, 1), DeckElement(z7, 2.0), z7.identity()])
    # and its modulus: m < 1 or a non-int m is refused by DeckGroup, before any map,
    # as is Z^0, the target of an empty list of rows
    for kind, m, message in ((CYCLIC, 0, "group parameter must be >= 1, got 0"),
                             (CYCLIC, 7.0, "group parameter must be an int, not float"),
                             (CYCLIC, True, "group parameter must be an int, not bool"),
                             (deckgroup.FREE_ABELIAN, 0, "group parameter must be >= 1, got 0")):
        with pytest.raises(GroupError, match=f"^{message}$"):
            GroupMap(z3, DeckGroup(kind, m), [])


def test_a_group_map_is_slotted_and_frozen():
    z1 = free_abelian(1)
    phi = GroupMap(free_group(2), z1, [z1.generator(1), z1.generator(1, -3)])
    assert not hasattr(phi, "__dict__") and phi.images == ((1,), (-3,)) and repr(phi) == "<GroupMap F_2 -> Z^1>"
    for field in ("source", "target", "images", "value", "other"):
        with pytest.raises(AttributeError):
            setattr(phi, field, None)
        with pytest.raises(AttributeError):
            delattr(phi, field)
    assert phi.value("\x03\x04\x04") == (7,)  # x1 x2^-2 -> t t^6


# -- powers ---------------------------------------------------------------------


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
# first and last letters lie on different generators meet on distinct
# generators; a word whose ends share a generator either joins its copies
# into a run (x1 x2 x1) or is a conjugate u v u^-1 whose u pow peels off.
DISTINCT_ENDS = REDUCED.filter(lambda w: len(w) >= 2 and w[0][0] != w[-1][0])
SHARED_ENDS = REDUCED.filter(lambda w: w and w[0][0] == w[-1][0])


@pytest.mark.parametrize("words", [DISTINCT_ENDS, SHARED_ENDS], ids=["distinct-ends", "shared-ends"])
@given(data=st.data())
def test_word_power_matches_slow_pow_for_either_kind_of_end(words, data):
    pairs = data.draw(words)
    x = element(pairs)
    k = data.draw(EXPONENTS)
    power = x.pow(k)
    assert power == slow_pow(x, k)
    assert syllables(power.value) == pairs_power(pairs, k)
    _check_value(F3, power.value)


def test_word_power_with_distinct_ends_skips_the_reduction_pass(monkeypatch):
    w = brunnian_word(4)  # starts with x1^-1 x2^-1, ends with x3
    shared = word(F3, (1, 1), (2, 1), (1, 1))
    conjugate = word(F3, (2, 1), (1, 1), (3, 1), (2, -1))

    def refuse(*args, **kwargs):
        raise AssertionError("reduce_letters called")

    monkeypatch.setattr(deckgroup, "reduce_letters", refuse)
    assert w.pow(-7).value == w.inv().value * 7
    # nor do words whose ends share a generator: a run, or a peeled conjugate
    assert syllables(shared.pow(2).value) == ((1, 1), (2, 1), (1, 2), (2, 1), (1, 1))
    assert syllables(conjugate.pow(-3).value) == ((2, 1), (3, -1), (1, -1), (3, -1), (1, -1), (3, -1), (1, -1), (2, -1))


# -- rendering --------------------------------------------------------------------
#
# format_element joins the strings of a run-free word's letters from a
# table that keeps the letters of generators up to the bound; beyond it,
# letters are formatted on every lookup and never stored.  A word with
# runs, and an exponent vector, are formatted one syllable at a time.

BOUND = _LETTER_TABLE_BOUND
WIDE_LETTERS = st.lists(
    st.tuples(st.integers(1, BOUND + 6), st.integers(-BOUND - 200, BOUND + 200)), max_size=12
)


def beyond_bound(value):
    return [letter for letter in value if ord(letter) >> 1 > BOUND]


@given(WIDE_LETTERS)
def test_format_element_matches_the_per_letter_join(letters):
    x = DeckElement(free_group(BOUND + 6), reduce_letters(letters))
    assert format_element(x) == format_letters(x) == pairs_text(reduce_pairs(letters))
    tables = (_TEXT, _PAIR, _RUN_OF)
    assert not any(ord(letter) in _SWAP or any(letter in t for t in tables) for letter in beyond_bound(x.inv().value))
    assert all(len(t) <= 2 * BOUND for t in (_SWAP, *tables))


@given(st.lists(st.integers(-BOUND - 200, BOUND + 200), min_size=1, max_size=BOUND + 6))
def test_format_element_of_a_vector_matches_the_per_letter_join(vec):
    x = DeckElement(free_abelian(len(vec)), tuple(vec))
    assert format_element(x) == format_letters(x)


def test_format_element_keeps_only_small_letters():
    big = word(free_group(BOUND + 1), (BOUND + 1, 1), (1, -1), (BOUND + 1, -1), (3, 1))
    assert not re.search(_RUN, big.value)
    assert format_element(big) == f"x{BOUND + 1} x1^-1 x{BOUND + 1}^-1 x3"
    assert not any(letter in _TEXT for letter in big.value[::2])
    small = word(F3, (1, 1), (2, -1), (3, 1))
    assert format_element(small) == "x1 x2^-1 x3"
    assert all(letter in _TEXT for letter in small.value)
    runs = word(free_group(BOUND + 1), (BOUND + 1, 3), (1, -BOUND - 1), (2, 10**4))
    assert re.search(_RUN, runs.value)
    assert format_element(runs) == f"x{BOUND + 1}^3 x1^{-BOUND - 1} x2^{10**4}"


# -- the group law on values -----------------------------------------------------
#
# mul, inv and pow apply the group's law to values and build their results
# through the checking constructor; every value they return must pass it.


def check_canonical(elt):
    """elt passes the public constructor's check and matches, value and
    hash, the element the validating constructor builds from its value."""
    _check_value(elt.group, elt.value)
    validated = DeckElement(elt.group, elt.value)
    assert validated.value == elt.value and validated == elt
    assert hash(validated) == hash(elt)


def check_operations(x, y, k):
    for elt in (x.mul(y), y.mul(x), x.mul(x.inv()), x.inv(), y.inv(), x.pow(k), y.pow(-k), x.pow(0)):
        check_canonical(elt)


@given(REDUCED, REDUCED, REDUCED, EXPONENTS)
def test_word_operations_return_canonical_words(p, u, q, k):
    # a = p u and b = u^-1 q cancel at their seam (u = () gives two random words)
    a = element(reduce_pairs(p + u))
    b = element(reduce_pairs(pairs_inverse(u) + q))
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
def test_is_identity_agrees_with_comparing_to_the_identity(pairs, vec, r):
    for group, value in ((F3, reduce_letters(pairs)), (free_abelian(2), tuple(vec)), (DeckGroup(CYCLIC, 5), r % 5)):
        x = DeckElement(group, value)
        for elt in (x, x.mul(x.inv()), group.identity()):
            assert elt.is_identity() == (elt == group.identity())


@given(REDUCED.filter(bool))
def test_a_word_times_the_empty_word_is_the_word_itself(pairs):
    x, one = element(pairs), F3.identity()
    assert x.mul(one) is x and one.mul(x) is x
    check_canonical(one.mul(one))


def test_public_constructor_refuses_non_canonical_values():
    # x1 x1^-1, a code below x1^-1, x4 in F_3, and pairs (the old form)
    for value in ("\x03\x02", "\x05\x04", "\x01", "\x03\x09", ((1, 1),)):
        with pytest.raises(GroupError, match="is not freely reduced"):
            DeckElement(F3, value)
    assert DeckElement(F3, "\x03\x03").value == "\x03\x03"  # x1^2 is reduced
    with pytest.raises(GroupError, match=r"has length 2; Z\^3 has rank 3"):
        DeckElement(free_abelian(3), (1, 2))
    # a bare int, a float coordinate (rendered x1^1.5 once), a bool, a list (unhashable)
    for vector in (5, (1.5,), (True,), [1], None):
        with pytest.raises(GroupError, match=r"is not an exponent vector of Z\^1: give a tuple of ints"):
            DeckElement(free_abelian(1), vector)
    for residue in (5, -1, 1.0, True, "1"):
        with pytest.raises(GroupError, match="not normalized mod 5"):
            DeckElement(DeckGroup(CYCLIC, 5), residue)
    with pytest.raises(GroupError, match="not normalized"):
        DeckElement(DeckGroup(CYCLIC, 2**70), 2**70)
    for other in ((1,), "\x03", None):
        with pytest.raises(GroupError, match="cannot multiply across groups: .* is not in F_3"):
            F3.generator(1).mul(other)


@pytest.mark.parametrize("group", [free_group(2), free_abelian(2)], ids=["free", "free-abelian-rank-2"])
def test_an_integer_word_is_the_identity_or_refused(group):
    # the integer 1 reads as the word "1" does; any other integer is
    # refused, one of 5,000 digits too, without being converted to text
    assert element_from_json(1, group) == element_from_json("1", group) == group.identity()
    for number in (0, 5, -1, 10**5000):
        with pytest.raises(GroupError, match=re.escape(f"an integer element of {group!r} must be 1, the identity")):
            element_from_json(number, group)
    with pytest.raises(GroupError, match=re.escape(f"True is not an element of {group!r}; give a word string")):
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
    expected = reduce_pairs(expanded)
    got = brunnian_word(4)
    assert syllables(got.value) == expected
    assert len(got.value) == 10
    # lives in the subgroup generated by the first three letters
    assert all(g < 4 for g, _ in syllables(got.value))


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
