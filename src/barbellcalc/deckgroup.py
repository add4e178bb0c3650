r"""
Deck transformation groups and their canonical-form elements.

Three kinds of deck groups occur in the covers we compute with:

* free groups F_n (universal covers of link complements, generators
  x1..xn identified with meridians),
* free abelian groups Z^r (infinite cyclic covers unwinding a meridian,
  and the rank-2 target of the unitriangular coordinates), and
* finite cyclic groups Z/m (m-fold cyclic and branched cyclic covers).

Elements are immutable values in canonical form: freely reduced words,
exact integer exponent vectors, residues in [0, m).  Generator indices
are 1-based throughout.

The module also provides the two homomorphisms the distinctness
arguments push classes through: the unitriangular representation
psi(x_i) = I + E_{i,i+1} of F_{n-1} into unit upper-triangular integer
matrices, and the weighted cyclic projections used to build finite
cyclic covers.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union


class GroupError(ValueError):
    """Invalid element, mixed groups, or out-of-range generator index."""


# A freely reduced word: tuple of (generator index, nonzero exponent),
# adjacent entries having distinct indices.  Empty tuple = identity.
Word = tuple[tuple[int, int], ...]

FREE = "free"
FREE_ABELIAN = "free_abelian"
CYCLIC = "cyclic"


@dataclass(frozen=True)
class DeckGroup:
    """A deck transformation group: F_n, Z^r, or Z/m."""

    kind: str
    n: int  # rank for free / free_abelian, modulus for cyclic

    def __post_init__(self):
        if self.kind not in (FREE, FREE_ABELIAN, CYCLIC):
            raise GroupError(f"unknown group kind {self.kind!r}")
        if self.n < 1:
            raise GroupError(f"group parameter must be >= 1, got {self.n}")

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


def cyclic(m: int) -> DeckGroup:
    return DeckGroup(CYCLIC, m)


def reduce_letters(letters: Iterable[tuple[int, int]], rank: int | None = None) -> Word:
    """Freely reduce a raw letter sequence into canonical Word form.

    Merges adjacent letters with equal generator index and drops zero
    exponents; idempotent on already-reduced words.
    """
    stack: list[list[int]] = []
    for gen, exp in letters:
        if rank is not None and not 1 <= gen <= rank:
            raise GroupError(f"generator index {gen} out of range 1..{rank}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


@dataclass(frozen=True)
class DeckElement:
    """An element of a deck group, stored in canonical form.

    value is a reduced Word (free), an exponent tuple (free abelian), or
    a residue in [0, m) (cyclic).
    """

    group: DeckGroup
    value: Union[Word, tuple[int, ...], int]

    def __post_init__(self):
        kind = self.group.kind
        if kind == FREE:
            prev = 0
            for g, e in self.value:
                if e == 0 or not 1 <= g <= self.group.n or g == prev:
                    raise GroupError(f"word {self.value} is not freely reduced")
                prev = g
        elif kind == FREE_ABELIAN:
            if len(self.value) != self.group.n:
                raise GroupError("exponent vector has wrong length")
        else:
            if not 0 <= self.value < self.group.n:
                raise GroupError(f"residue {self.value} not normalized mod {self.group.n}")

    def is_identity(self) -> bool:
        return self == self.group.identity()

    def mul(self, other: "DeckElement") -> "DeckElement":
        """Group law; for words, left-to-right concatenation (self first)."""
        if self.group != other.group:
            raise GroupError(f"cannot multiply across groups {self.group} and {other.group}")
        kind = self.group.kind
        if kind == FREE:
            return DeckElement(self.group, reduce_letters(itertools.chain(self.value, other.value)))
        if kind == FREE_ABELIAN:
            return DeckElement(self.group, tuple(a + b for a, b in zip(self.value, other.value)))
        return DeckElement(self.group, (self.value + other.value) % self.group.n)

    def inv(self) -> "DeckElement":
        kind = self.group.kind
        if kind == FREE:
            return DeckElement(self.group, tuple((g, -e) for g, e in reversed(self.value)))
        if kind == FREE_ABELIAN:
            return DeckElement(self.group, tuple(-a for a in self.value))
        return DeckElement(self.group, (-self.value) % self.group.n)

    def pow(self, k: int) -> "DeckElement":
        """x^k in time linear in the result: k*v for exponent vectors,
        k*r mod m for residues, and for words one free reduction of |k|
        copies of x (of x^-1 when k < 0), which cancels each letter at
        most once.  k = 0 gives the identity."""
        kind = self.group.kind
        if kind == FREE_ABELIAN:
            return DeckElement(self.group, tuple(k * a for a in self.value))
        if kind == CYCLIC:
            return DeckElement(self.group, (k * self.value) % self.group.n)
        base = self if k > 0 else self.inv()
        return DeckElement(self.group, reduce_letters(base.value * abs(k)))

    def __mul__(self, other):
        return self.mul(other)

    def sort_key(self):
        """Deterministic total order: residues and exponent vectors
        numerically, words lexicographically on their letter sequence."""
        if self.group.kind == CYCLIC:
            return (self.value,)
        if self.group.kind == FREE_ABELIAN:
            return self.value
        return self.value

    def __repr__(self):
        return f"<{format_element(self)} in {self.group}>"


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
# Unit upper-triangular integer matrices and the representations through them.


@dataclass(frozen=True)
class UniTriMatrix:
    """An n x n integer matrix with unit diagonal and zeros below it."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise GroupError("matrix is not square")
            if row[i] != 1:
                raise GroupError("diagonal entries must equal 1")
            if any(row[j] != 0 for j in range(i)):
                raise GroupError("entries below the diagonal must vanish")

    @property
    def size(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(n: int) -> "UniTriMatrix":
        return UniTriMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def elementary(n: int, i: int, j: int, c: int = 1) -> "UniTriMatrix":
        """I + c*E_{i,j} with 1-based indices, i < j."""
        if not (1 <= i < j <= n):
            raise GroupError(f"elementary position ({i},{j}) not strictly upper in size {n}")
        rows = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
        rows[i - 1][j - 1] = c
        return UniTriMatrix(tuple(tuple(r) for r in rows))

    def mul(self, other: "UniTriMatrix") -> "UniTriMatrix":
        n = self.size
        if other.size != n:
            raise GroupError("size mismatch")
        rows = tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return UniTriMatrix(rows)

    def inv(self) -> "UniTriMatrix":
        # Unit triangular, so I - N + N^2 - ... terminates (N nilpotent).
        n = self.size
        ident = UniTriMatrix.identity(n)
        nil = [[self.rows[i][j] - ident.rows[i][j] for j in range(n)] for i in range(n)]
        acc = [list(row) for row in ident.rows]
        power = [list(row) for row in ident.rows]
        sign = 1
        for _ in range(n):
            power = [
                [sum(power[i][k] * nil[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            sign = -sign
            for i in range(n):
                for j in range(n):
                    acc[i][j] += sign * power[i][j]
        return UniTriMatrix(tuple(tuple(row) for row in acc))

    def pow(self, k: int) -> "UniTriMatrix":
        out = UniTriMatrix.identity(self.size)
        base = self if k >= 0 else self.inv()
        for _ in range(abs(k)):
            out = out.mul(base)
        return out

    def __mul__(self, other):
        return self.mul(other)


def unitriangular_rep(word: DeckElement, n: int) -> UniTriMatrix:
    """psi(word) in U_n under psi(x_i) = I + E_{i,i+1}.

    Defined on words in x1..x_{n-1} only; the matrix product follows the
    word's left-to-right order, so psi is a homomorphism for our
    concatenation convention.  Each letter x_i^e right-multiplies by
    (I + E_{i,i+1})^e = I + e*E_{i,i+1} (E_{i,i+1} squares to zero),
    which adds e times column i to column i+1; column i vanishes below
    row i, so a letter costs O(i) updates of one list of rows, and the
    matrix is built and validated once at the end.
    """
    if word.group.kind != FREE:
        raise GroupError("unitriangular_rep takes free-group elements")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for gen, exp in word.value:
        if gen >= n:
            raise GroupError(f"generator x{gen} has no image in U_{n} (needs index < {n})")
        for row in rows[:gen]:
            row[gen] += exp * row[gen - 1]
    return UniTriMatrix(tuple(tuple(row) for row in rows))


def nilpotent_times_z(word: DeckElement, n: int) -> tuple[UniTriMatrix, int]:
    """Image of word in U_n x Z: drop x_n letters and apply psi, paired
    with the total x_n exponent.

    This is the composition F_{n-1} * Z -> F_{n-1} x Z -> U_n x Z; it is
    a homomorphism because dropping x_n is a retraction of free groups.
    """
    if word.group.kind != FREE or word.group.n != n:
        raise GroupError(f"expected an element of F_{n}")
    dropped = reduce_letters((g, e) for g, e in word.value if g != n)
    exponent = sum(e for g, e in word.value if g == n)
    return unitriangular_rep(DeckElement(word.group, dropped), n), exponent


def cyclic_project(word: DeckElement, weights: Sequence[int], m: int) -> DeckElement:
    """Weighted exponent sum mod m; weights encode which meridians
    survive the quotient defining the cyclic cover."""
    if m < 1:
        raise GroupError(f"modulus must be >= 1, got {m}")
    target = cyclic(m)
    if word.group.kind == FREE:
        total = sum(weights[g - 1] * e for g, e in word.value)
    elif word.group.kind == FREE_ABELIAN:
        total = sum(w * e for w, e in zip(weights, word.value))
    else:
        total = weights[0] * word.value
    return DeckElement(target, total % m)


# ---------------------------------------------------------------------------
# Serialization: words as "x1^-1 x2 x1", cyclic residues as integers,
# exponent vectors as integer lists.

_LETTER_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, group: DeckGroup) -> DeckElement:
    """Parse whitespace-separated caret-exponent notation, e.g. "x1^-1 x2"."""
    if group.kind == CYCLIC:
        return DeckElement(group, int(text) % group.n)
    text = text.strip()
    letters: list[tuple[int, int]] = []
    if text not in ("", "1"):
        for tok in text.split():
            match = _LETTER_RE.match(tok)
            if not match:
                raise GroupError(f"cannot parse letter {tok!r}")
            letters.append((int(match.group(1)), int(match.group(2) or 1)))
    if group.kind == FREE:
        return DeckElement(group, reduce_letters(letters, group.n))
    vec = [0] * group.n
    for gen, exp in letters:
        if not 1 <= gen <= group.n:
            raise GroupError(f"generator index {gen} out of range 1..{group.n}")
        vec[gen - 1] += exp
    return DeckElement(group, tuple(vec))


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
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in letters)


def element_to_json(elt: DeckElement):
    """JSON-compatible form: int (cyclic), list (free abelian), word string."""
    if elt.group.kind == CYCLIC:
        return elt.value
    if elt.group.kind == FREE_ABELIAN:
        return list(elt.value)
    return format_element(elt)


def element_from_json(data, group: DeckGroup) -> DeckElement:
    if group.kind == CYCLIC:
        return DeckElement(group, int(data) % group.n)
    if group.kind == FREE_ABELIAN and isinstance(data, (list, tuple)):
        return DeckElement(group, tuple(int(a) for a in data))
    if isinstance(data, int) and group.kind == FREE_ABELIAN and group.n == 1:
        return DeckElement(group, (data,))
    return parse_word(str(data), group)
