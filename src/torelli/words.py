"""Words in the free surface group on alpha_1..alpha_g, beta_1..beta_g and
their images under the symplectic expansion into the nilpotent free Lie
algebra.

The expansion table stores, per generator, the explicit Lie series through
degree 4.  The expansion is group-like, so a word maps to the BCH product of
its letter values, which `theta` takes as a balanced fold of `bch` in the
Lyndon basis.  The boundary word of the surface must map to the symplectic
element omega, which is the calibration check for the whole table.
"""

from __future__ import annotations

import re
from fractions import Fraction as Fr
from functools import lru_cache

from .lie import DegreeCapError, LieContext, get_context

# A letter is (kind, index, sign) with kind "a"/"b", index 1..g, sign +-1.
_TOKEN = re.compile(r"([ab])([1-9][0-9]*)([+-])")

EXPANSION_MAX_DEGREE = 4  # the stored expansion is undefined beyond degree 4


def _check_expansion_degree(degree):
    """Refuse a truncation degree outside the stored expansion's 1..4."""
    if degree > EXPANSION_MAX_DEGREE:
        raise DegreeCapError("the expansion is unspecified beyond degree "
                             f"{EXPANSION_MAX_DEGREE}")
    if degree < 1:
        raise DegreeCapError("the expansion is truncated at a degree in "
                             f"1..{EXPANSION_MAX_DEGREE}, got degree {degree}")


class WordParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class GroupWord:
    """Immutable word in the free group; no automatic free reduction."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple(letters)

    def __mul__(self, other):
        return GroupWord(self.letters + other.letters)

    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def inverse(self):
        return GroupWord(tuple((k, i, -s) for k, i, s in reversed(self.letters)))

    def reduced(self):
        """Freely reduced form (cancel adjacent x x^-1 pairs)."""
        out = []
        for let in self.letters:
            if out and out[-1][:2] == let[:2] and out[-1][2] == -let[2]:
                out.pop()
            else:
                out.append(let)
        return GroupWord(out)

    def render(self):
        return "".join(f"{k}{i}{'+' if s > 0 else '-'}" for k, i, s in self.letters)

    def __repr__(self):
        return f"<word {self.render() or '1'}>"


def parse_word(text):
    """Parse a word like 'a1+b2-a1-'; empty text is the empty word."""
    letters = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise WordParseError(f"bad token {text[pos:pos+3]!r}", pos)
        kind, index, sign = m.group(1), int(m.group(2)), (1 if m.group(3) == "+" else -1)
        letters.append((kind, index, sign))
        pos = m.end()
    return GroupWord(letters)


def comm(u, v):
    """The commutator u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def conjugate(u, v):
    """u v u^-1."""
    return u * v * u.inverse()


def boundary_word(g):
    """The boundary loop prod_i b_i^- a_i^+ b_i^+ a_i^-."""
    letters = []
    for i in range(1, g + 1):
        letters += [("b", i, -1), ("a", i, 1), ("b", i, 1), ("a", i, -1)]
    return GroupWord(letters)


class ExpansionTable:
    """Per-generator values of the symplectic expansion, truncated to degree N.

    The degree <= 4 series (for genus g, with om_j := [a_j, b_j]):

      alpha_i |-> a_i - 1/2 om_i + 1/12 [om_i, b_i] - 1/2 sum_{j<i} [om_j, a_i]
                  - 1/24 [a_i, [a_i, om_i]] + 1/4 sum_{j<i} [om_j, om_i]
      beta_i  |-> b_i - 1/2 om_i + 1/12 [a_i, om_i] + 1/4 [om_i, b_i]
                  + 1/2 sum_{j<i} [b_i, om_j] - 1/24 [[om_i, b_i], b_i]
                  + 1/4 sum_{j<i} [om_j, om_i]

    Degree 5 and beyond is not specified, so tables with N >= 5 are refused.
    The table is immutable and filled on demand: a letter value and theta of a
    word are each built on first use.
    """

    def __init__(self, ctx: LieContext):
        _check_expansion_degree(ctx.max_degree)
        self.ctx = ctx
        self._value = {}  # (kind, index) -> letter value
        self._theta = {}  # word letters -> theta(word)

    def _series(self, kind, i):
        """The degree <= N series of alpha_i (kind "a") or beta_i ("b")."""
        ctx = self.ctx
        a, b = ctx.gen_a(i), ctx.gen_b(i)
        om = a.bracket(b)
        lower = sum((ctx.gen_a(j).bracket(ctx.gen_b(j)) for j in range(1, i)),
                    ctx.zero())
        shared = lower.bracket(om) * Fr(1, 4) - om * Fr(1, 2)
        if kind == "a":
            return (a + shared + om.bracket(b) * Fr(1, 12)
                    - a.bracket(a.bracket(om)) * Fr(1, 24)
                    - lower.bracket(a) * Fr(1, 2))
        return (b + shared + om.bracket(b) * Fr(1, 4) + a.bracket(om) * Fr(1, 12)
                - om.bracket(b).bracket(b) * Fr(1, 24)
                + b.bracket(lower) * Fr(1, 2))

    def letter_value(self, kind, index, sign):
        if kind not in ("a", "b") or sign not in (1, -1):
            raise ValueError(f"malformed letter {(kind, index, sign)!r}: kind a/b, sign +-1")
        if not 1 <= index <= self.ctx.genus:
            raise ValueError(f"generator index {index} out of range 1..{self.ctx.genus}")
        value = self._value.get((kind, index))
        if value is None:
            value = self._value[kind, index] = self._series(kind, index)
        return value if sign > 0 else -value


def theta(word, table):
    """Value of the symplectic expansion on a group word: the group-like
    product log(exp theta(l_1) ... exp theta(l_n)), taken as a balanced fold
    of BCH products, adjacent values paired level by level.

    The value is memoized on the table per word and shared between callers,
    who must not mutate it.
    """
    key = word.letters
    value = table._theta.get(key)
    if value is None:
        values = [table.letter_value(*letter) for letter in key]
        while len(values) > 1:  # exact: the truncated BCH is associative
            values = ([x.bch(y) for x, y in zip(values[::2], values[1::2])]
                      + values[len(values) & ~1:])
        value = table._theta[key] = values[0] if values else table.ctx.zero()
    return value


def symplectic_check(table):
    """True iff theta maps the boundary word exactly to omega (through degree N)."""
    value = theta(boundary_word(table.ctx.genus), table)
    return value == table.ctx.omega()


@lru_cache(maxsize=None)
def get_table(genus, max_degree) -> ExpansionTable:
    # The expansion's range comes before the Lie layer's class range, so
    # every degree outside 1..4 is refused with the expansion's own wording.
    _check_expansion_degree(max_degree)
    return ExpansionTable(get_context(genus, max_degree))
