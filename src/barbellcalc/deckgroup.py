r"""
Deck transformation groups and their canonical-form elements.

Three kinds of deck groups occur in the covers we compute with:

* free groups F_n (universal covers of link complements, generators
  x1..xn identified with meridians),
* free abelian groups Z^r (infinite cyclic covers unwinding a meridian,
  and Z^2, whose group ring F2[s^{±1}, t^{±1}] holds the Brunnian
  relator images), and
* finite cyclic groups Z/m (m-fold cyclic and branched cyclic covers).

Elements are immutable values in canonical form: freely reduced words,
exact integer exponent vectors, residues in [0, m).  Generator indices
are 1-based throughout.

Groups and elements are immutable slotted values (setting or deleting
an attribute raises AttributeError) whose hash is computed once, at
construction; an element hashes by its value alone (equal elements
share a group).  A value is validated where it enters: the public
constructor DeckElement(group, value), and through it parse_word,
element_from_json and DeckGroup.generator, refuse a word that is not
freely reduced, an exponent vector of the wrong length and a residue
outside [0, m).  The group operations mul, inv and pow return values
that are canonical by construction, so they build their results
through the private trusted constructor _canonical, which skips that
check.  Both factors of a product are therefore freely reduced, and
the product of two words can only cancel where they meet:
DeckElement.mul walks inward from that seam while letters cancel,
merges at most one pair of letters on the same generator, and joins
the two remaining slices, in O(cancelled letters) interpreted steps
plus C-level tuple slicing.  A word power whose first and last
letters lie on different generators is |k| plain copies, already
freely reduced, so DeckElement.pow builds it by tuple repetition;
reduce_letters, a full pass over every letter, is kept for raw letter
sequences (generators, parsing, and powers of words whose two ends
share a generator).  A product with the empty word returns the other
factor itself, so its cached hash is kept, and is_identity reads the
value without building an identity to compare with.  format_element
renders a word with one operator.itemgetter call and one C-level join
over a letter table that formats each (generator, exponent) letter on
first use and keeps it while both are at most _LETTER_TABLE_BOUND in
size.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable


class GroupError(ValueError):
    """Invalid element, mixed groups, or out-of-range generator index."""


# A freely reduced word: tuple of (generator index, nonzero exponent),
# adjacent entries having distinct indices.  Empty tuple = identity.
Word = tuple[tuple[int, int], ...]

FREE = "free"
FREE_ABELIAN = "free_abelian"
CYCLIC = "cyclic"

# Longest word power DeckElement.pow builds.  On a 2-vCPU Xeon host a
# scenario whose offset power had 10**5 letters took 0.5 s and 38 MB end
# to end, one with 4 * 10**5 letters 1.8 s and 107 MB.
MAX_POWER_LETTERS = 100_000


def _immutable(self, name, *value):
    raise AttributeError(f"cannot set or delete {name!r}: {self.__class__.__name__} values are immutable")


class DeckGroup:
    """A deck transformation group: F_n, Z^r, or Z/m (n is the rank or m)."""

    __slots__ = ("kind", "n", "_hash")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, kind: str, n: int):
        if kind not in (FREE, FREE_ABELIAN, CYCLIC):
            raise GroupError(f"unknown group kind {kind!r}")
        if n < 1:
            raise GroupError(f"group parameter must be >= 1, got {n}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_hash", hash((kind, n)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not DeckGroup:
            return NotImplemented
        return self.n == other.n and self.kind == other.kind

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == FREE:
            return f"F_{self.n}"
        if self.kind == FREE_ABELIAN:
            return f"Z^{self.n}"
        return f"Z/{self.n}"

    def identity(self) -> "DeckElement":
        if self.kind == FREE:
            return DeckElement(self, ())
        if self.kind == FREE_ABELIAN:
            return DeckElement(self, (0,) * self.n)
        return DeckElement(self, 0)

    def generator(self, i: int, exponent: int = 1) -> "DeckElement":
        """The i-th generator (1-based), optionally raised to a power."""
        if self.kind == CYCLIC:
            if i != 1:
                raise GroupError(f"cyclic group has a single generator, got index {i}")
            return DeckElement(self, exponent % self.n)
        if not 1 <= i <= self.n:
            raise GroupError(f"generator index {i} out of range 1..{self.n}")
        if self.kind == FREE:
            return DeckElement(self, reduce_letters([(i, exponent)], self.n))
        vec = [0] * self.n
        vec[i - 1] = exponent
        return DeckElement(self, tuple(vec))


def free_group(n: int) -> DeckGroup:
    return DeckGroup(FREE, n)


def free_abelian(r: int) -> DeckGroup:
    return DeckGroup(FREE_ABELIAN, r)


def reduce_letters(letters: Iterable[tuple[int, int]], rank: int | None = None) -> Word:
    """Freely reduce a raw letter sequence into canonical Word form.

    Merges adjacent letters with equal generator index and drops zero
    exponents; idempotent on already-reduced words.
    """
    stack: list[tuple[int, int]] = []
    for gen, exp in letters:
        if rank is not None and not 1 <= gen <= rank:
            raise GroupError(f"generator index {gen} out of range 1..{rank}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            exp += stack[-1][1]
            if exp:
                stack[-1] = (gen, exp)
            else:
                stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


def _seam_product(a: Word, b: Word) -> Word:
    """The free reduction of a followed by b, for freely reduced a and b.

    Letters can only cancel where the two words meet, so walk back from
    the end of a and forward from the start of b while they cancel, then
    merge at most one pair of letters on the same generator: O(cancelled
    letters) interpreted steps, and the result is joined from two slices.
    """
    i, j, stop = len(a), 0, len(b)
    while i and j < stop:
        gen, exp = a[i - 1]
        other_gen, other_exp = b[j]
        if gen != other_gen:
            break
        if exp + other_exp:
            return a[: i - 1] + ((gen, exp + other_exp),) + b[j + 1 :]
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _check_value(group: DeckGroup, value) -> None:
    """Raise GroupError unless value is canonical in group: a freely
    reduced word on x1..xn, an exponent vector of length r, or a residue
    in [0, m)."""
    kind = group.kind
    if kind == FREE:
        # One interpreted pass: splitting the letters with zip(*value)
        # for builtin min/max/any checks took 2.5x as long on CPython
        # 3.10 and 3.11, over the words one brunnian-words pass builds.
        prev, n = 0, group.n
        for g, e in value:
            if e == 0 or not 1 <= g <= n or g == prev:
                raise GroupError(f"word {value} is not freely reduced")
            prev = g
    elif kind == FREE_ABELIAN:
        if len(value) != group.n:
            raise GroupError(
                f"exponent vector {list(value)} has length {len(value)}; {group!r} has rank {group.n}"
            )
    elif not 0 <= value < group.n:
        raise GroupError(f"residue {value} not normalized mod {group.n}")


class DeckElement:
    """An element of a deck group, stored in canonical form.

    value is a reduced Word (free), an exponent tuple (free abelian), or
    a residue in [0, m) (cyclic).
    """

    __slots__ = ("group", "value", "_hash")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, group: DeckGroup, value: Word | tuple[int, ...] | int):
        _check_value(group, value)
        _set_group(self, group)
        _set_value(self, value)
        _set_hash(self, hash(value))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not DeckElement:
            return NotImplemented
        return self.value == other.value and self.group == other.group

    def __hash__(self):
        return self._hash

    def is_identity(self) -> bool:
        """Read off the value: the empty word, the zero vector or residue."""
        kind = self.group.kind
        if kind == FREE_ABELIAN:
            return not any(self.value)
        return not self.value if kind == FREE else self.value == 0

    def mul(self, other: "DeckElement") -> "DeckElement":
        """Group law; for words, left-to-right concatenation (self first),
        reduced only at the seam where the two words meet (see
        _seam_product).  Both factors are canonical, so the product is
        too and is built unchecked (_canonical): O(cancelled letters)
        interpreted steps in all, not a pass over |self| + |other|
        letters."""
        group = self.group
        if other.group is not group and other.group != group:
            raise GroupError(f"cannot multiply across groups {group} and {other.group}")
        kind = group.kind
        if kind == FREE:
            a, b = self.value, other.value
            if not (a and b):  # a factor is the empty word: the other keeps its hash
                return self if a else other
            return _canonical(group, _seam_product(a, b))
        if kind == FREE_ABELIAN:
            return _canonical(group, tuple(map(operator.add, self.value, other.value)))
        return _canonical(group, (self.value + other.value) % group.n)

    def inv(self) -> "DeckElement":
        kind = self.group.kind
        if kind == FREE:
            return _canonical(self.group, tuple((g, -e) for g, e in reversed(self.value)))
        if kind == FREE_ABELIAN:
            return _canonical(self.group, tuple(-a for a in self.value))
        return _canonical(self.group, (-self.value) % self.group.n)

    def pow(self, k: int) -> "DeckElement":
        """x^k in time linear in the result: k*v for exponent vectors,
        k*r mod m for residues, and for words one free reduction of |k|
        copies of x (of x^-1 when k < 0), which cancels each letter at
        most once; when the word's first and last letters lie on
        different generators no letter cancels at a seam, so the copies
        are the result and that pass is skipped.  k = 0 gives the
        identity.  A word power is refused before it is built when its
        |k| copies, an upper bound on the result's length, have more
        than MAX_POWER_LETTERS letters.  Every result is canonical, so
        it is built unchecked (_canonical)."""
        kind = self.group.kind
        if kind == FREE_ABELIAN:
            return _canonical(self.group, tuple(k * a for a in self.value))
        if kind == CYCLIC:
            return _canonical(self.group, (k * self.value) % self.group.n)
        letters = abs(k) * len(self.value)
        if letters > MAX_POWER_LETTERS:
            raise GroupError(
                f"power {k} of a {len(self.value)}-letter word has {letters} letters, "
                f"more than {MAX_POWER_LETTERS}"
            )
        value = (self if k > 0 else self.inv()).value * abs(k)
        if value and value[0][0] == value[-1][0]:
            value = reduce_letters(value)
        return _canonical(self.group, value)

    def sort_key(self):
        """Deterministic total order: residues and exponent vectors
        numerically, words lexicographically on their letter sequence."""
        return (self.value,) if self.group.kind == CYCLIC else self.value

    def __repr__(self):
        return f"<{format_element(self)} in {self.group}>"


def _canonical(group: DeckGroup, value) -> DeckElement:
    """The trusted constructor: a DeckElement from a value that is
    canonical in group by construction, built without _check_value.
    Only the group operations (mul, inv, pow) use it; everything else
    goes through the validating DeckElement(group, value)."""
    elt = _new_element(DeckElement)
    _set_group(elt, group)
    _set_value(elt, value)
    _set_hash(elt, hash(value))
    return elt


# The slots' own setters, bound once: DeckElement refuses setattr, and
# these skip object.__setattr__'s lookup by name.
_new_element = object.__new__
_set_group = DeckElement.__dict__["group"].__set__
_set_value = DeckElement.__dict__["value"].__set__
_set_hash = DeckElement.__dict__["_hash"].__set__


def commutator(a: DeckElement, b: DeckElement) -> DeckElement:
    """[a, b] = a^-1 b^-1 a b, under left-to-right concatenation."""
    return a.inv().mul(b.inv()).mul(a).mul(b)


def brunnian_word(n: int) -> DeckElement:
    """The iterated commutator w_{n-1} in F_n: w_1 = x1, w_{m+1} = [w_m, x_{m+1}].

    Lies in the subgroup generated by x1..x_{n-1}; requires n >= 2.
    """
    if n < 2:
        raise GroupError(f"brunnian_word needs rank n >= 2, got {n}")
    group = free_group(n)
    w = group.generator(1)
    for m in range(2, n):
        w = commutator(w, group.generator(m))
    return w


# ---------------------------------------------------------------------------
# Serialization: words as "x1^-1 x2 x1", cyclic residues as integers,
# exponent vectors as integer lists.

_LETTER_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, group: DeckGroup) -> DeckElement:
    """Parse whitespace-separated caret-exponent notation, e.g. "x1^-1 x2"."""
    if group.kind == CYCLIC:
        return element_from_json(text, group)
    text = text.strip()
    letters: list[tuple[int, int]] = []
    if text not in ("", "1"):
        for tok in text.split():
            match = _LETTER_RE.match(tok)
            if not match:
                raise GroupError(f"cannot parse letter {tok!r}")
            try:
                letters.append((int(match.group(1)), int(match.group(2) or 1)))
            except ValueError:  # more digits than the interpreter converts
                raise GroupError(f"cannot parse a letter of {len(tok)} characters: a number is too long") from None
    if group.kind == FREE:
        return DeckElement(group, reduce_letters(letters, group.n))
    vec = [0] * group.n
    for gen, exp in letters:
        if not 1 <= gen <= group.n:
            raise GroupError(f"generator index {gen} out of range 1..{group.n}")
        vec[gen - 1] += exp
    return DeckElement(group, tuple(vec))


# Largest generator index and exponent size whose letter the table keeps.
_LETTER_TABLE_BOUND = 64


class _LetterTable(dict):
    """(generator, exponent) -> "x{g}" or "x{g}^{e}".  A missing letter
    is formatted on lookup and kept only while g and |e| are at most
    _LETTER_TABLE_BOUND, so the table holds at most 64 * 128 strings."""

    __slots__ = ()

    def __missing__(self, letter: tuple[int, int]) -> str:
        g, e = letter
        text = f"x{g}" if e == 1 else f"x{g}^{e}"
        if g <= _LETTER_TABLE_BOUND and -_LETTER_TABLE_BOUND <= e <= _LETTER_TABLE_BOUND:
            self[letter] = text
        return text


_LETTERS = _LetterTable()


def format_element(elt: DeckElement) -> str:
    """Canonical x-notation (words / exponent vectors) or the residue."""
    if elt.group.kind == CYCLIC:
        return str(elt.value)
    if elt.group.kind == FREE:
        letters = elt.value
    else:
        letters = tuple((i + 1, e) for i, e in enumerate(elt.value) if e != 0)
    if not letters:
        return "1"
    text = operator.itemgetter(*letters)(_LETTERS)
    return text if len(letters) == 1 else " ".join(text)


def element_to_json(elt: DeckElement):
    """JSON-compatible form: int (cyclic), list (free abelian), word string."""
    if elt.group.kind == CYCLIC:
        return elt.value
    if elt.group.kind == FREE_ABELIAN:
        return list(elt.value)
    return format_element(elt)


def element_from_json(data, group: DeckGroup) -> DeckElement:
    if group.kind == CYCLIC:
        try:
            return DeckElement(group, int(data) % group.n)
        except (TypeError, ValueError, OverflowError):
            if isinstance(data, str) and re.fullmatch(r"\s*[+-]?\d+\s*", data):  # past the interpreter's digit limit
                raise GroupError(f"cannot parse a residue of {len(data)} characters: a number is too long") from None
            raise GroupError(f"{data!r} is not an element of {group!r}; give an integer residue") from None
    if group.kind == FREE_ABELIAN and isinstance(data, (list, tuple)):
        return DeckElement(group, tuple(int(a) for a in data))
    if isinstance(data, int) and group.kind == FREE_ABELIAN and group.n == 1:
        return DeckElement(group, (data,))
    if isinstance(data, int) and not isinstance(data, bool) and data != 1:
        # 1 is the one integer word; no other is converted to text, which may fail
        raise GroupError(f"an integer element of {group!r} must be 1, the identity; give a word string")
    return parse_word(str(data), group)
