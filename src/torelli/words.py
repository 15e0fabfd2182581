"""Words in the free surface group on alpha_1..alpha_g, beta_1..beta_g and
their images under the symplectic expansion into the nilpotent free Lie
algebra.

The expansion table stores, per generator, the explicit Lie series through
degree 4; a word is evaluated as one group-like product: the logarithm of the
product of the per-letter exponentials in the truncated tensor algebra.  The
boundary word of the surface must map to the symplectic element omega, which
is the calibration check for the whole table.
"""

from __future__ import annotations

import re
from fractions import Fraction as Fr
from functools import lru_cache

from .lie import (DegreeCapError, LieContext, LieElement, get_context, t_exp,
                  t_log, t_mul)

# A letter is (kind, index, sign) with kind "a"/"b", index 1..g, sign +-1.
_TOKEN = re.compile(r"([ab])([1-9][0-9]*)([+-])")

EXPANSION_MAX_DEGREE = 4  # the stored expansion is undefined beyond degree 4


def _check_expansion_degree(degree):
    """Refuse a truncation degree beyond the stored expansion."""
    if degree > EXPANSION_MAX_DEGREE:
        raise DegreeCapError("the expansion is unspecified beyond degree "
                             f"{EXPANSION_MAX_DEGREE}")


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
    """

    def __init__(self, ctx: LieContext):
        _check_expansion_degree(ctx.max_degree)
        self.ctx = ctx
        # (kind, index, sign) -> (letter value it was computed from, its exp)
        self._exp = {}
        g = ctx.genus
        a = [None] + [ctx.gen_a(i) for i in range(1, g + 1)]
        b = [None] + [ctx.gen_b(i) for i in range(1, g + 1)]
        om = [None] + [a[i].bracket(b[i]) for i in range(1, g + 1)]
        self.theta_alpha = [None]
        self.theta_beta = [None]
        for i in range(1, g + 1):
            lower = ctx.zero()
            for j in range(1, i):
                lower = lower + om[j]
            ta = (a[i] - om[i] * Fr(1, 2)
                  + om[i].bracket(b[i]) * Fr(1, 12)
                  - a[i].bracket(a[i].bracket(a[i].bracket(b[i]))) * Fr(1, 24)
                  - lower.bracket(a[i]) * Fr(1, 2)
                  + lower.bracket(om[i]) * Fr(1, 4))
            tb = (b[i] - om[i] * Fr(1, 2)
                  + om[i].bracket(b[i]) * Fr(1, 4)
                  + a[i].bracket(om[i]) * Fr(1, 12)
                  - om[i].bracket(b[i]).bracket(b[i]) * Fr(1, 24)
                  + b[i].bracket(lower) * Fr(1, 2)
                  + lower.bracket(om[i]) * Fr(1, 4))
            self.theta_alpha.append(ta.truncated(ctx.max_degree))
            self.theta_beta.append(tb.truncated(ctx.max_degree))

    def letter_value(self, kind, index, sign):
        if not 1 <= index <= self.ctx.genus:
            raise ValueError(f"generator index {index} out of range 1..{self.ctx.genus}")
        val = self.theta_alpha[index] if kind == "a" else self.theta_beta[index]
        return val if sign > 0 else -val

    def letter_exp(self, kind, index, sign):
        """exp of the letter value in the truncated tensor algebra, computed
        once per letter and sign.  An entry is recomputed when its letter
        value in `theta_alpha`/`theta_beta` has been replaced since."""
        value = self.letter_value(kind, index, 1)
        key = (kind, index, sign)
        hit = self._exp.get(key)
        if hit is None or hit[0] is not value:
            signed = value if sign > 0 else -value
            hit = (value, t_exp(signed.to_tensor(), self.ctx.max_degree))
            self._exp[key] = hit
        return hit[1]


def theta(word, table):
    """Value of the symplectic expansion on a group word: the group-like
    product log(exp theta(l_1) ... exp theta(l_n)), which equals the
    left-to-right BCH fold of the letter values."""
    ctx = table.ctx
    cap = ctx.max_degree
    prod = {(): Fr(1)}
    for kind, index, sign in word.letters:
        prod = t_mul(prod, table.letter_exp(kind, index, sign), cap)
    return LieElement(ctx, ctx.decompose(t_log(prod, cap)))


def symplectic_check(table):
    """True iff theta maps the boundary word exactly to omega (through degree N)."""
    value = theta(boundary_word(table.ctx.genus), table)
    return value == table.ctx.omega()


@lru_cache(maxsize=None)
def get_table(genus, max_degree) -> ExpansionTable:
    # The expansion cap comes before the Lie layer's class cap, so every
    # degree above 4 is refused with the expansion's own wording.
    _check_expansion_degree(max_degree)
    return ExpansionTable(get_context(genus, max_degree))
