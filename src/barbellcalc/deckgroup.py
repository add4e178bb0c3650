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

A word is a str of one code point per letter, chr(2g + 1) for x_g and
chr(2g) for x_g^-1 ("" is the identity), which caches its hash, compares
by memcmp, and is sliced, joined and translated in C.  reduce_letters is
the one entry from raw (generator, exponent) pairs, and syllables reads
them back.  A word of more than MAX_POWER_LETTERS letters, parsed, a
power or brunnian_word(n), a free group of rank above MAX_FREE_RANK and
a free abelian group of rank above MAX_FREE_ABELIAN_RANK are refused
before they are built.

Groups and elements are immutable slotted values (setting or deleting an
attribute raises AttributeError).  Groups compare by identity, one live
a kind and size: DeckGroup(kind, n) refuses a size that is not an int,
then, under a lock (two threads would each build a group it lacks),
takes the live group from a weak table or builds it (_law); free_group
and free_abelian hold theirs.  A group carries its law on canonical
values, _product and _inverse, and its identity, built with it: a
reference cycle, so the weak table lets a dropped group go at the next
garbage collection.  Ring and class terms are keyed by values, and
DeckElement(group, value) (x in group tests one) is the checked public
type where values enter and leave: it refuses a group that is not a
DeckGroup, a word that is not freely reduced, a vector that is not a
tuple of r ints and a residue that is not an int in [0, m).  Two reduced
words only cancel where they meet, and their product bisects that seam
with C-level slice comparisons (_seam); pow writes a word as u v u^-1,
v cyclically reduced, and repeats v.

A word in which no letter repeats its neighbour (x1^2 does) is its own
sort key (_word_key), and _text joins its letters' strings in C; others
are cut at their runs, each found in C however long it is (_by_runs).
The words of a ring element or class are sorted and rendered together
(_sorted_texts): one re.search over one word, one over all of them
joined, then, if none has a run and every letter is ASCII (x1..x63), one
sort, one letter lookup, one join and one split.  DeckElement.sort_key
and format_element run one re.search per word; products never look.

Every layer reads outside values by this module's rules: _is_int (exactly
an int: no bool, no float), _is_element (the JSON form element_from_json
reads; parse_word reads text only; neither converts anything but text;
both refuse a group that is not a DeckGroup first, _check_group) and
_echo, the one quote of a refused value, bounded in length by _cut,
which bounds a rendered value in a refusal too.
"""

from __future__ import annotations

import functools
import operator
import re
import reprlib
import threading
import weakref
from collections.abc import Iterable, Sequence


class GroupError(ValueError):
    """Invalid element, mixed groups, or out-of-range generator index."""


Word = str  # freely reduced: chr(2g + 1) for x_g, chr(2g) for x_g^-1

FREE = "free"
FREE_ABELIAN = "free_abelian"
CYCLIC = "cyclic"
_INT = frozenset((int,))  # _is_int over a list or tuple in C: the one type a vector coordinate has

# Most letters of a word, parsed, a power or brunnian_word(n); tests/test_caps.py holds each cap at its edge.
MAX_POWER_LETTERS = 100_000

# Code points above every letter that mark a run in a sort key (_run_key).
_POSITIVE_RUN, _NEGATIVE_RUN = "\U0010fffe", "\U0010ffff"
MAX_FREE_RANK = (ord(_POSITIVE_RUN) - 2) // 2
# Largest rank of Z^r, whose elements are r-tuples (tests/test_caps.py).
MAX_FREE_ABELIAN_RANK = 10**4


# Most digits an integer parameter or a genus1-hd position may have: a
# report prints it, and the interpreter converts at most 4,300 to text.
_MAX_DIGITS = 4000
_TOO_MANY_DIGITS = 10**_MAX_DIGITS


def _too_long(value: int | str) -> bool:
    """More than _MAX_DIGITS digits?  An integer is not converted to text."""
    return len(value.removeprefix("-")) > _MAX_DIGITS if isinstance(value, str) else abs(value) >= _TOO_MANY_DIGITS


def _cut(text: str) -> str:
    """text cut to at most 80 characters, the bound of every quote in a refusal."""
    return text if len(text) <= 80 else f"{text[:77]}..."


class _Echo(reprlib.Repr):
    """repr for quoting a refused value: at most 80 characters (a string of
    up to 30 as repr prints it), and an integer of more than _MAX_DIGITS
    digits is never converted to text."""

    def repr(self, value):
        return _cut(super().repr(value))

    def repr_int(self, value, level):
        return f"<integer of more than {_MAX_DIGITS} digits>" if _too_long(value) else super().repr_int(value, level)


_echo = _Echo().repr


def _is_int(value) -> bool:
    """An integer from outside: exactly an int, so not a bool (True is 1) and not a float."""
    return type(value) is int


def _is_list(value, item=None) -> bool:
    return isinstance(value, (list, tuple)) and (item is None or all(map(item, value)))


def _is_element(value) -> bool:
    """An element's JSON form: an integer, a string or a list of integers (element_from_json)."""
    return _is_int(value) or isinstance(value, str) or _is_list(value) and _INT.issuperset(map(type, value))


def _immutable(self, name, *value):
    raise AttributeError(f"cannot set or delete {name!r}: {self.__class__.__name__} values are immutable")


class DeckGroup:
    """A deck group F_n, Z^r or Z/m (n is the rank or m), the one live group of its kind and size."""

    __slots__ = ("kind", "n", "_product", "_inverse", "_one", "__weakref__")
    __setattr__ = __delattr__ = _immutable

    def __new__(cls, kind: str, n: int):
        if kind not in (FREE, FREE_ABELIAN, CYCLIC):
            raise GroupError(f"unknown group kind {_echo(kind)}")
        if not _is_int(n):  # 5.0 and True hash as 5 and 1 do, and would alias their groups
            raise GroupError(f"group parameter must be an int, not {type(n).__name__}")
        with _INTERNING:
            group = _GROUPS.get((kind, n))
            if group is None:
                if n < 1:
                    raise GroupError(f"group parameter must be >= 1, got {n}")
                if kind == FREE and n > MAX_FREE_RANK:
                    raise GroupError(f"free group rank must be <= {MAX_FREE_RANK}, so that each letter is one code point")
                if kind == FREE_ABELIAN and n > MAX_FREE_ABELIAN_RANK:
                    raise GroupError(f"free abelian rank must be <= {MAX_FREE_ABELIAN_RANK}, got {_echo(n)}")
                group = object.__new__(cls)
                for name, value in zip(cls.__slots__, (kind, n, *_law(kind, n))):
                    object.__setattr__(group, name, value)
                one = "" if kind == FREE else (0,) * n if kind == FREE_ABELIAN else 0
                object.__setattr__(group, "_one", DeckElement(group, one))
                _GROUPS[kind, n] = group
        return group

    def __contains__(self, elt) -> bool:
        return elt.__class__ is DeckElement and elt.group is self

    def __repr__(self):
        if self.kind == FREE:
            return f"F_{self.n}"
        if self.kind == FREE_ABELIAN:
            return f"Z^{self.n}"
        return f"Z/{self.n}"

    def identity(self) -> "DeckElement":
        return self._one

    def generator(self, i: int, exponent: int = 1) -> "DeckElement":
        """The i-th generator (1-based), optionally raised to a power."""
        if self.kind == CYCLIC:
            if i != 1:
                raise GroupError(f"cyclic group has a single generator, got index {_echo(i)}")
            return DeckElement(self, exponent % self.n)
        if not 1 <= i <= self.n:
            raise GroupError(f"generator index {_echo(i)} out of range 1..{self.n}")
        if self.kind == FREE:
            return DeckElement(self, reduce_letters([(i, exponent)], self.n))
        vec = [0] * self.n
        vec[i - 1] = exponent
        return DeckElement(self, tuple(vec))


# (kind, n) -> its live group, held weakly: a loop over cover orders keeps none it dropped
_GROUPS = weakref.WeakValueDictionary()
_INTERNING = threading.Lock()


def _law(kind: str, n: int) -> tuple:
    """The group's law on canonical values: product and inverse."""
    if kind == FREE:
        return _word_product, _word_inverse
    if kind == FREE_ABELIAN and n == 1:  # Z, the commonest, without a map over one coordinate
        return (lambda u, v: (u[0] + v[0],)), (lambda u: (-u[0],))
    if kind == FREE_ABELIAN and n == 2:  # Z^2, whose ring holds the Brunnian images, likewise
        return (lambda u, v: (u[0] + v[0], u[1] + v[1])), (lambda u: (-u[0], -u[1]))
    if kind == FREE_ABELIAN:
        return (lambda u, v: tuple(map(operator.add, u, v))), (lambda u: tuple(map(operator.neg, u)))
    return (lambda a, b: (a + b) % n), (lambda a: -a % n)


@functools.lru_cache(maxsize=None, typed=True)  # typed: free_group(2.0) is refused, not F_2 once F_2 is cached
def free_group(n: int) -> DeckGroup:
    return DeckGroup(FREE, n)


@functools.lru_cache(maxsize=None, typed=True)
def free_abelian(r: int) -> DeckGroup:
    return DeckGroup(FREE_ABELIAN, r)


def reduce_letters(letters: Iterable[tuple[int, int]], rank: int | None = None) -> Word:
    """Freely reduce raw (generator, exponent) pairs into a Word: merge
    adjacent pairs on one generator, drop zero exponents.  A generator
    outside 1..rank (1..MAX_FREE_RANK) and a result of more than
    MAX_POWER_LETTERS letters are refused before a letter is built."""
    top = MAX_FREE_RANK if rank is None else rank
    stack: list[tuple[int, int]] = []
    for gen, exp in letters:
        if not 1 <= gen <= top:
            raise GroupError(f"generator index {_echo(gen)} out of range 1..{top}")
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if exp:
            stack.append((gen, exp))
    if sum(abs(exp) for _, exp in stack) > MAX_POWER_LETTERS:
        raise GroupError(f"word has more than {MAX_POWER_LETTERS} letters")
    return "".join(chr(2 * gen + 1) * exp if exp > 0 else chr(2 * gen) * -exp for gen, exp in stack)


_RUN = r"(?s)(.)\1"  # a letter that repeats its neighbour; re compiles it on first use, not at import


def _by_runs(word: Word, stretch, run) -> list:
    """The items of stretch(s) for each run-free stretch s of the word and
    run(g, e) for each run x_g^e, |e| >= 2 (its end matched by _RUN_OF), in order."""
    out, pos, search = [], 0, re.compile(_RUN).search
    while match := search(word, pos):
        out += stretch(word[pos : match.start()])
        pos, code = _RUN_OF[match[1]](word, match.start()).end(), ord(match[1])
        out.append(run(code >> 1, pos - match.start() if code & 1 else match.start() - pos))
    out += stretch(word[pos:])
    return out


def syllables(word: Word) -> tuple[tuple[int, int], ...]:
    r"""The word's (generator, exponent) pairs: "\x02\x05\x05" is ((1, -1), (2, 2))."""
    return tuple(_by_runs(word, lambda stretch: map(_PAIR.__getitem__, stretch), lambda *pair: pair))


def _seam(a: Word, b: Word) -> tuple[int, int]:
    """(i, j) such that a[:i] + b[j:] is the product of nonempty freely
    reduced a and b: b's longest prefix that inverts a suffix of a cancels,
    found past its first letter by bisecting C-level slice comparisons."""
    size = len(a)
    if ord(a[-1]) ^ 1 != ord(b[0]):
        return size, 0
    low, high = 1, min(size, len(b))  # the first low letters cancel, the first high + 1 do not
    inverse = a[size - high :][::-1].translate(_SWAP)
    while low < high:
        mid = (low + high + 1) // 2
        low, high = (mid, high) if inverse[low:mid] == b[low:mid] else (low, mid - 1)
    return size - low, low


class _LetterTable(dict):
    """Letter (a code point for str.translate, or a one-letter string) ->
    rule(code point), kept while the generator is at most _LETTER_TABLE_BOUND."""

    def __init__(self, rule):
        self.rule = rule

    def __missing__(self, letter: int | str):
        code = letter if isinstance(letter, int) else ord(letter)
        out = self.rule(code)
        if code >> 1 <= _LETTER_TABLE_BOUND:
            self[letter] = out
        return out


_LETTER_TABLE_BOUND = 64  # the largest generator whose letters the tables keep
_SWAP = _LetterTable(lambda code: code ^ 1)
_TEXT = _LetterTable(lambda code: f"x{code >> 1}" if code & 1 else f"x{code >> 1}^-1")
_POSITIVE = _LetterTable(lambda code: code if code & 1 else None)  # drops x_g^-1
_PAIR = _LetterTable(lambda code: (code >> 1, 1 if code & 1 else -1))
_RUN_OF = _LetterTable(lambda code: re.compile(f"{re.escape(chr(code))}+").match)


def exponent_sum(word: Word) -> int:
    """The image of a word under F_n -> Z, every generator to 1."""
    return 2 * len(word.translate(_POSITIVE)) - len(word)


def _word_product(a: Word, b: Word) -> Word:
    """a b, reduced only at the seam where the two words meet (_seam)."""
    if not (a and b):
        return a or b
    i, j = _seam(a, b)
    return a[:i] + b[j:]


def _word_inverse(word: Word) -> Word:
    return word[::-1].translate(_SWAP)


def _word_key(word: Word) -> Word:
    """A word's sort key, ordering words as their (generator, exponent)
    pairs: the word itself when it has no run, else its runs marked (_run_key)."""
    return "".join(_by_runs(word, lambda stretch: (stretch,), _run_key)) if re.search(_RUN, word) else word


_ASCII_LETTERS = bytes(range(2, 128))  # x1^-1, x1, ..., x63

# Joins the words of one element (_sorted_texts): below chr(2), so no letter
# and never part of a run, it is its own text.  _ASCII_TEXT holds the ASCII
# letters' texts in a plain dict, which operator.itemgetter reads in C.
_SEPARATOR = "\x00"
_ASCII_TEXT = {chr(code): _TEXT.rule(code) for code in _ASCII_LETTERS} | {_SEPARATOR: _SEPARATOR}


def _sorted_texts(group: DeckGroup, words: Iterable[Word]) -> dict[Word, str]:
    """A free group's words, in deck-element order, each to its text
    (_text), decided for all of them at once.  One word, then the words
    other than the identity joined by _SEPARATOR, are searched for a run
    before anything is sorted.  Without a run, and with ASCII letters (x1..x63),
    each word is its own sort key, and every text comes from one letter
    lookup, one join and one split.  Otherwise, or with at most one letter
    in all, each word is keyed (_word_key) and rendered (_text) alone."""
    rest = set(words)
    identity = "" in rest  # its text is "1", and it sorts first
    rest.discard("")
    letters = "" if re.search(_RUN, next(iter(rest), "")) else _SEPARATOR.join(rest)
    if len(letters) < 2 or not letters.isascii() or re.search(_RUN, letters):  # itemgetter(one letter) is no tuple
        return {word: _text(group, word) for word in sorted(words, key=_word_key)}
    ordered = sorted(rest)
    texts = " ".join(operator.itemgetter(*_SEPARATOR.join(ordered))(_ASCII_TEXT)).split(f" {_SEPARATOR} ")
    return dict(zip(["", *ordered], ["1", *texts]) if identity else zip(ordered, texts))


def _is_word(value, n: int) -> bool:
    """A freely reduced word on x1..xn: code points in [2, 2n + 1], no two
    neighbours XOR to 1 (x_g, x_g^-1), read as bytes in C if all are ASCII?"""
    if not isinstance(value, str):
        return False
    if value.isascii():
        data = value.encode()
        if data.translate(None, _ASCII_LETTERS[: 2 * n]):
            return False
        neighbours = int.from_bytes(data[1:], "big") ^ int.from_bytes(data[:-1], "big")
        return b"\x01" not in neighbours.to_bytes(len(data), "big")
    return "\x02" <= min(value) and max(value) <= chr(2 * n + 1) and not any(
        map(operator.eq, value[1:], value[:-1].translate(_SWAP)))


def _check_group(group: DeckGroup) -> None:
    """Raise GroupError unless group is a DeckGroup, before anything reads its kind."""
    if group.__class__ is not DeckGroup:
        raise GroupError(f"{_echo(group)} is not a deck group")


def _check_value(group: DeckGroup, value) -> None:
    """Raise GroupError unless value is canonical in group: a freely
    reduced word on x1..xn, a tuple of r ints, or an int residue in [0, m)."""
    _check_group(group)
    kind = group.kind
    if kind == FREE:
        if not _is_word(value, group.n):
            raise GroupError(f"word {_echo(value)} is not freely reduced on x1..x{group.n}")
    elif kind == FREE_ABELIAN:
        if value.__class__ is not tuple or not _INT.issuperset(map(type, value)):
            raise GroupError(f"{_echo(value)} is not an exponent vector of {group!r}: give a tuple of ints")
        if len(value) != group.n:
            raise GroupError(f"exponent vector {_echo([*value])} has length {len(value)}; {group!r} has rank {group.n}")
    elif value.__class__ is not int or not 0 <= value < group.n:
        raise GroupError(f"residue {_echo(value)} not normalized mod {group.n}")


class DeckElement:
    """A deck group element: a canonical value, checked when it is built."""

    __slots__ = ("group", "value")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, group: DeckGroup, value: Word | tuple[int, ...] | int):
        _check_value(group, value)
        _PUT_GROUP(self, group)
        _PUT_VALUE(self, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not DeckElement:
            return NotImplemented
        return self.value == other.value and self.group is other.group

    def __hash__(self):
        return hash(self.value)

    def is_identity(self) -> bool:
        return self.value == self.group.identity().value

    def mul(self, other: "DeckElement") -> "DeckElement":
        """The group's law; for words, left-to-right concatenation (self
        first).  A factor whose value is the product's is returned itself."""
        group = self.group
        if other not in group:
            raise GroupError(f"cannot multiply across groups: {other!r} is not in {group}")
        value = group._product(self.value, other.value)
        return self if value is self.value else other if value is other.value else DeckElement(group, value)

    def inv(self) -> "DeckElement":
        return DeckElement(self.group, self.group._inverse(self.value))

    def pow(self, k: int) -> "DeckElement":
        """x^k in time linear in the result: k*v, k*r mod m, or for a word
        x = u v u^-1 (x^-1 when k < 0), v cyclically reduced, u v^|k| u^-1;
        refused before it is built when |k| copies of x have more than
        MAX_POWER_LETTERS letters."""
        group = self.group
        kind = group.kind
        if kind == FREE_ABELIAN:
            return DeckElement(group, tuple(k * a for a in self.value))
        if kind == CYCLIC:
            return DeckElement(group, (k * self.value) % group.n)
        word, copies = self.value, abs(k)
        letters = copies * len(word)
        if letters > MAX_POWER_LETTERS:
            raise GroupError(f"power {_echo(k)} of a {len(word)}-letter word has {_echo(letters)} letters, "
                             f"more than {MAX_POWER_LETTERS}")
        if not letters:
            return group.identity()
        word, t = _word_inverse(word) if k < 0 else word, 0
        while ord(word[t]) ^ 1 == ord(word[-1 - t]):
            t += 1
        return DeckElement(group, word[:t] + word[t : len(word) - t] * copies + word[len(word) - t :])

    def sort_key(self):
        """Deterministic total order: residues and exponent vectors
        numerically, words lexicographically on their (generator,
        exponent) pairs (_word_key)."""
        return _word_key(self.value) if self.group.kind == FREE else self.value

    def __repr__(self):
        return f"<{format_element(self)} in {self.group}>"


_PUT_GROUP, _PUT_VALUE = (vars(DeckElement)[name].__set__ for name in DeckElement.__slots__)  # bound once


def _run_key(gen: int, exp: int) -> str:
    """A run's part of a sort key that orders words as their pairs: x_g^e
    (e >= 2) is x_g, _POSITIVE_RUN, e (after x_g x_h...), and x_g^-e is
    x_(g-1), _NEGATIVE_RUN, 2^32 - 1 - e (after x_(g-1)^e..., before x_g^-1)."""
    code, mark, size = (2 * gen + 1, _POSITIVE_RUN, exp) if exp > 0 else (2 * gen - 1, _NEGATIVE_RUN, 0xFFFFFFFF + exp)
    return f"{chr(code)}{mark}{chr(size >> 16)}{chr(size & 0xFFFF)}"


def commutator(a: DeckElement, b: DeckElement) -> DeckElement:
    """[a, b] = a^-1 b^-1 a b, under left-to-right concatenation."""
    return a.inv().mul(b.inv()).mul(a).mul(b)


def _brunnian_letters(n: int) -> int:
    """The letters of brunnian_word(n), 3 * 2^(n-2) - 2; the shift is capped,
    so that a huge n stays cheap to refuse."""
    return (3 << min(n - 2, 64)) - 2


def brunnian_word(n: int) -> DeckElement:
    """The iterated commutator w_{n-1} in F_n: w_1 = x1, w_{m+1} = [w_m, x_{m+1}].

    Lies in the subgroup generated by x1..x_{n-1}; requires n >= 2, and
    is refused before it is built past MAX_POWER_LETTERS letters.
    """
    if n < 2:
        raise GroupError(f"brunnian_word needs rank n >= 2, got {_echo(n)}")
    if _brunnian_letters(n) > MAX_POWER_LETTERS:
        raise GroupError(f"brunnian_word needs 3 * 2^(n-2) - 2 <= {MAX_POWER_LETTERS} letters, got n={_echo(n)}")
    group = free_group(n)
    product, inverse = group._product, group._inverse
    w = "\x03"  # x1
    for x in map(chr, range(5, 2 * n, 2)):  # x2 .. x_(n-1)
        w = product(product(inverse(w), inverse(x)), product(w, x))
    return DeckElement(group, w)


class GroupMap:
    """A homomorphism out of F_s or Z^s: its generators' image values in
    target, and value, the map on canonical values.  The images must be
    DeckElements in target; a cyclic source, and Z^s into F_n, are refused."""

    __slots__ = ("source", "target", "images", "value")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, source: DeckGroup, target: DeckGroup, images: Sequence[DeckElement]):
        _check_group(source)
        _check_group(target)
        if source.kind == CYCLIC or source.kind == FREE_ABELIAN and target.kind == FREE:
            raise GroupError(f"no group map {source!r} -> {target!r}: the source must be F_s, or Z^s into Z^r or Z/m")
        if not _is_list(images) or len(images) != source.n or not all(h in target for h in images):
            raise GroupError(f"a map out of {source!r} takes {source.n} images in {target!r}, got {_echo(images)}")
        _group_map(source, target, tuple(h.value for h in images), self)

    def __repr__(self):
        return f"<GroupMap {self.source!r} -> {self.target!r}>"


_FILL = tuple(vars(GroupMap)[name].__set__ for name in GroupMap.__slots__)  # each slot's setter, bound once


def _group_map(source: DeckGroup, target: DeckGroup, values: tuple, phi: GroupMap | None = None) -> GroupMap:
    """The trusted constructor, of image values the engine built; GroupMap
    ends in it (phi).  value is specialized as _law specializes the law."""
    if source.kind == FREE:
        product, inverse, identity = target._product, target._inverse, target.identity().value
        letters = {chr(2 * i + j): v if j else inverse(v) for i, v in enumerate(values, 1) for j in (0, 1)}
        value = lambda word: functools.reduce(product, map(letters.__getitem__, word)) if word else identity
    elif target.kind == CYCLIC:
        m = target.n
        value = lambda e: sum(map(operator.mul, values, e)) % m
    elif target.n == 1:
        (row,) = zip(*values)
        value = lambda e: (sum(map(operator.mul, row, e)),)
    else:
        rows = tuple(zip(*values))
        value = lambda e: tuple([sum(map(operator.mul, row, e)) for row in rows])
    phi = object.__new__(GroupMap) if phi is None else phi
    for put, field in zip(_FILL, (source, target, values, value)):
        put(phi, field)
    return phi


# ---------------------------------------------------------------------------
# Serialization: words as "x1^-1 x2 x1", cyclic residues as integers,
# exponent vectors as integer lists.

_LETTER_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")
_FORMS = {FREE: "a word string", FREE_ABELIAN: "a word string or a list of integers", CYCLIC: "an integer residue"}


def parse_word(text: str, group: DeckGroup) -> DeckElement:
    """Parse text: whitespace-separated caret-exponent notation, e.g.
    "x1^-1 x2" ("" and "1" are the identity), or a residue's integer."""
    _check_group(group)
    if not isinstance(text, str):
        raise GroupError(f"{_echo(text)} is not text; give a word string")
    if group.kind == CYCLIC:
        try:
            return DeckElement(group, int(text) % group.n)
        except ValueError:  # not an integer, or one past the interpreter's digit limit
            raise GroupError(f"cannot parse a residue of {len(text)} characters: a number is too long"
                             if re.fullmatch(r"\s*[+-]?\d+\s*", text) else
                             f"{_echo(text)} is not an element of {group!r}; give {_FORMS[CYCLIC]}") from None
    text = text.strip()
    letters: list[tuple[int, int]] = []
    if text not in ("", "1"):
        for tok in text.split():
            match = _LETTER_RE.match(tok)
            if not match:
                raise GroupError(f"cannot parse letter {_echo(tok)}")
            try:
                letters.append((int(match.group(1)), int(match.group(2) or 1)))
            except ValueError:  # more digits than the interpreter converts
                raise GroupError(f"cannot parse a letter of {len(tok)} characters: a number is too long") from None
    if group.kind == FREE:
        return DeckElement(group, reduce_letters(letters, group.n))
    vec = [0] * group.n
    for gen, exp in letters:
        if not 1 <= gen <= group.n:
            raise GroupError(f"generator index {_echo(gen)} out of range 1..{group.n}")
        vec[gen - 1] += exp
    return DeckElement(group, tuple(vec))


def _text(group: DeckGroup, value) -> str:
    """A value in canonical x-notation (words / exponent vectors) or the residue."""
    kind = group.kind
    if kind == CYCLIC:
        return str(value)
    if kind == FREE and not re.search(_RUN, value):
        return " ".join(map(_TEXT.__getitem__, value)) or "1"
    letters = syllables(value) if kind == FREE else [(i + 1, e) for i, e in enumerate(value) if e]
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in letters) or "1"


def _json(group: DeckGroup, value):
    """A value's JSON-compatible form: int (cyclic), list (free abelian), word string."""
    kind = group.kind
    return value if kind == CYCLIC else list(value) if kind == FREE_ABELIAN else _text(group, value)


def format_element(elt: DeckElement) -> str:
    return _text(elt.group, elt.value)


def element_to_json(elt: DeckElement):
    return _json(elt.group, elt.value)


def element_from_json(data, group: DeckGroup) -> DeckElement:
    """The element data gives in its JSON form (_is_element): text through parse_word, an integer
    residue, an exponent vector (a list of ints, or one int for Z), or the integer 1, the identity."""
    _check_group(group)
    kind = group.kind
    if not _is_element(data) or kind != FREE_ABELIAN and _is_list(data):
        raise GroupError(f"{_echo(data)} is not an element of {group!r}; give {_FORMS[kind]}")
    if isinstance(data, str):
        return parse_word(data, group)
    if kind == CYCLIC:
        return DeckElement(group, data % group.n)
    if kind == FREE_ABELIAN and (group.n == 1 or not _is_int(data)):
        return DeckElement(group, (data,) if _is_int(data) else tuple(data))
    if data != 1:  # 1 is the one integer word; no other is converted to text, which may fail
        raise GroupError(f"an integer element of {group!r} must be 1, the identity; give a word string")
    return group.identity()
