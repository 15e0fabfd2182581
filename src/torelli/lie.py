"""The free Lie algebra on 2g generators a_1..a_g, b_1..b_g over Q, truncated
at a nilpotency class N <= 5, in the Lyndon basis.

Letters are 1..2g with a_i = i and b_i = g + i, so the generator order is
a_1 < ... < a_g < b_1 < ... < b_g.  A Lie element is a sparse map from Lyndon
words (tuples of letters) to exact rationals, each an `int` or a `Fraction`.
Integer numerators over one shared denominator are formed by `_numerators`
and divided back by `_over`, once per coefficient.  The bracket of two Lyndon
monomials is rewritten in the basis over Z on the standard factorization of
the smaller word (Reutenauer, Free Lie Algebras, 1993).  Everything else is
built from brackets too, and every bracket tree in the package is evaluated
by one memoized walk, `evaluate`, given a value per letter and a bracket: the
BCH product is a series of bracket trees on two letters (`bch_series`, from
Varadarajan's recursion), which `eval_series` evaluates on any two values
that have a bracket, Lie elements here and the graded tree values of `mcg`.
There is no tensor algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact_linalg import rational_rank

MAX_CLASS = 5  # Lie-algebra operations are supported up to degree 5


class ContextMismatch(ValueError):
    pass


class DegreeCapError(ValueError):
    pass


def _mobius(n):
    m, result = n, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt_rank(n, d):
    """Rank of the degree-d part of the free Lie ring on n generators."""
    if n < 1 or d < 1:
        raise ValueError(f"witt_rank needs n >= 1 and d >= 1, got {n}, {d}")
    total = 0
    e = 1
    while e <= d:
        if d % e == 0:
            total += _mobius(e) * n ** (d // e)
        e += 1
    if total % d:
        raise ValueError(f"necklace count {total} not divisible by {d}")
    return total // d


def lyndon_words(alphabet_size, max_len):
    """All Lyndon words over 1..alphabet_size of length <= max_len, lex order.

    Duval's algorithm.
    """
    out = []
    w = [0]
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet_size:
            w.pop()
    return out


def _lyndon_words_of_content(counts):
    """The Lyndon words in which letter i occurs counts[i-1] times, lex order:
    Sawada's fixed-content prenecklace recursion (2003) on the letters of
    positive count.  A prenecklace whose longest Lyndon prefix has length p
    extends by a letter >= the one p places back; it is Lyndon when p is its
    full length."""
    letters = [i + 1 for i, c in enumerate(counts) if c]
    left = [c for c in counts if c]
    n = sum(left)
    word = [0] * n  # positions in letters

    def extend(t, p):
        if t == n:
            if p == n:
                yield tuple(letters[j] for j in word)
            return
        back = word[t - p]
        for j in range(back, len(letters)):
            if left[j]:
                left[j] -= 1
                word[t] = j
                yield from extend(t + 1, p if j == back else t + 1)
                left[j] += 1

    if n:  # a Lyndon word starts with its least letter
        left[0] -= 1
        yield from extend(1, 1)


def is_lyndon(word):
    n = len(word)
    if n == 0:
        return False
    return all(word < word[i:] + word[:i] for i in range(1, n))


def _standard_factor(word):
    """The standard factorization (u, v) of a Lyndon word, word = uv: v is its
    longest proper Lyndon suffix, equivalently its lexicographically least
    proper suffix.  None for a letter."""
    if len(word) == 1:
        return None
    v = min(word[i:] for i in range(1, len(word)))
    return word[:len(word) - len(v)], v


@lru_cache(maxsize=None)
def standard_bracketing(word):
    """Right-normed standard bracketing tree of a Lyndon word, built on its
    standard factorization.  Trees are nested tuples with int leaves.
    """
    if not is_lyndon(word):
        raise ValueError(f"not a Lyndon word: {word}")
    factors = _standard_factor(word)
    if factors is None:
        return word[0]
    return tuple(standard_bracketing(f) for f in factors)


def tree_size(tree):
    """Number of leaves of a bracket tree."""
    return 1 if isinstance(tree, int) else tree_size(tree[0]) + tree_size(tree[1])


def t_add_into(acc, poly, scale=1):
    """Add scale * poly into the sparse map acc, dropping the zeros."""
    for w, c in poly.items():
        v = acc.get(w, 0) + c * scale
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)


def _numerators(terms):
    """A coefficient map as (integer numerators, den): den is the lcm of the
    coefficients' denominators, an `int` counting as denominator 1."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def _over(nums, den):
    """The coefficient map nums / den: an `int` where den divides the
    numerator, else one Fraction.  With den = 1 this is nums itself."""
    if den == 1:
        return nums
    return {k: c // den if c % den == 0 else Fraction(c, den)
            for k, c in nums.items()}


# --- structure constants of the free Lie ring --------------------------------
# They depend on neither the genus nor the class, so each is cached once per
# process and shared by every context: callers must not mutate them.

def _bracket_into(out, left, right, cap):
    """Add sum c1 c2 [w1, w2] over the terms of two Lyndon-basis maps into out,
    skipping the pairs whose total length passes cap; return out."""
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            if len(w1) + len(w2) <= cap:
                t_add_into(out, _bracket_words(w1, w2), c1 * c2)
    return out


@lru_cache(maxsize=None)
def _bracket_words(w1, w2):
    """[monomial(w1), monomial(w2)] in the Lyndon basis (integer coeffs).

    Rewriting on the standard factorization (Reutenauer, Free Lie Algebras,
    1993), with no tensor algebra: for Lyndon w1 < w2, if w1 is a letter or
    its standard factorization w1 = uv has v >= w2, then w1 w2 is Lyndon with
    standard factorization (w1, w2); otherwise Jacobi gives
    [[u, v], w2] = [u, [v, w2]] + [[u, w2], v].  Every word produced has
    length len(w1) + len(w2), and the terms come in increasing word order.
    """
    if w1 == w2:
        return {}
    if w1 > w2:
        return {w: -c for w, c in _bracket_words(w2, w1).items()}
    factors = _standard_factor(w1)
    if factors is None or factors[1] >= w2:
        return {w1 + w2: 1}
    u, v = factors
    cap = len(w1) + len(w2)
    out = {}
    _bracket_into(out, {u: 1}, _bracket_words(v, w2), cap)
    _bracket_into(out, _bracket_words(u, w2), {v: 1}, cap)
    return dict(sorted(out.items()))


# --- two-letter series: BCH and its evaluation ------------------------------

@lru_cache(maxsize=None)
def bch_series(cap):
    """log(e^x e^y) through degree cap on the letters x = 1, y = 2, as
    (standard bracketing, coefficient) pairs in word order.

    Varadarajan's bracket-only recursion (Lie Groups, Lie Algebras, and Their
    Representations, 1984, 2.15), which Casas and Murua use in the Lyndon
    basis (J. Math. Phys. 50, 2009): Z_1 = x + y and
      (n+1) Z_{n+1} = 1/2 [x - y, Z_n]
          + sum_{p >= 1} B_2p/(2p)! sum_{k_1+...+k_2p = n}
                [Z_k1, [Z_k2, ..., [Z_k2p, x + y]...]],
    the k_i positive, and log(e^x e^y) = Z_1 + ... + Z_cap.  B_4 would first
    enter at class 6, which LieContext refuses, so only B_2/2! = 1/12 is used.
    """
    ctx = get_context(1, cap)
    x, y = ctx.generator(1), ctx.generator(2)
    z = [None, x + y]
    for n in range(1, cap):
        step = (x - y).bracket(z[n]) * Fraction(1, 2)
        for k in range(1, n):
            step += z[k].bracket(z[n - k].bracket(z[1])) * Fraction(1, 12)
        z.append(step * Fraction(1, n + 1))
    terms = _over(*_numerators(sum(z[2:], z[1]).terms))
    return tuple((standard_bracketing(w), c) for w, c in sorted(terms.items()))


def evaluate(tree, leaf, bracket, memo):
    """The value of a bracket tree with leaf(x) at each letter x and
    bracket(u, v) at each node.  Each distinct sub-tree is evaluated once into
    memo, which must hold the values of this leaf and bracket only."""
    value = memo.get(tree)
    if value is None:
        if isinstance(tree, int):
            value = leaf(tree)
        else:
            value = bracket(evaluate(tree[0], leaf, bracket, memo),
                            evaluate(tree[1], leaf, bracket, memo))
        memo[tree] = value
    return value


def eval_series(series, x, y, bracket):
    """A two-letter series of (tree, coefficient) pairs on the values x
    (letter 1) and y (letter 2), as (tree, value, coefficient) triples, each
    distinct sub-tree bracketed once."""
    memo, leaf = {}, (None, x, y).__getitem__
    return [(tree, evaluate(tree, leaf, bracket, memo), c)
            for tree, c in series]


class LieContext:
    """What depends on the genus and the nilpotency class: the Lyndon basis
    per degree, listed anew on each call, and the memo of `from_tree`.

    Immutable after construction apart from that memo, which is write-once
    per key; concurrent readers always see consistent values.
    """

    def __init__(self, genus, max_degree):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        if not 1 <= max_degree <= MAX_CLASS:
            raise DegreeCapError(
                f"nilpotency class must be in 1..{MAX_CLASS}, got {max_degree}")
        self.genus = genus
        self.max_degree = max_degree
        self.letters = 2 * genus
        self._tree_memo = {}    # tree -> LieElement, shared by every caller

    def __repr__(self):
        return f"LieContext(genus={self.genus}, max_degree={self.max_degree})"

    def __eq__(self, other):
        return (isinstance(other, LieContext)
                and self.genus == other.genus
                and self.max_degree == other.max_degree)

    def __hash__(self):
        return hash((self.genus, self.max_degree))

    # -- basis bookkeeping --

    def lyndon_basis(self, degree):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        return tuple(w for w in lyndon_words(self.letters, degree)
                     if len(w) == degree)

    # -- element constructors --

    def zero(self):
        return LieElement(self, {})

    def monomial(self, word, coeff=1):
        word = tuple(word)
        if not is_lyndon(word):
            raise ValueError(f"not a Lyndon word: {word}")
        if len(word) > self.max_degree:
            return self.zero()
        c = _coefficient(coeff)
        return LieElement(self, {word: c} if c else {})

    def gen_a(self, i):
        if not 1 <= i <= self.genus:
            raise ValueError(f"a_{i} out of range 1..{self.genus}")
        return self.monomial((i,))

    def gen_b(self, i):
        if not 1 <= i <= self.genus:
            raise ValueError(f"b_{i} out of range 1..{self.genus}")
        return self.monomial((self.genus + i,))

    def generator(self, letter):
        if not 1 <= letter <= self.letters:
            raise ValueError(f"letter {letter} out of range 1..{self.letters}")
        return self.monomial((letter,))

    def omega(self):
        """Dual of the intersection pairing: sum_i [a_i, b_i] in degree 2."""
        if self.max_degree < 2:
            raise DegreeCapError("omega needs class >= 2")
        terms = {(i, self.genus + i): 1 for i in range(1, self.genus + 1)}
        return LieElement(self, terms)

    def from_tree(self, tree):
        """The value of an iterated-bracket tree with generator leaves, zero
        beyond the class.  Memoized in the context, so the result is shared:
        callers must not mutate its terms."""
        return evaluate(tree, self.generator, LieElement.bracket,
                        self._tree_memo)

    def letter_name(self, letter):
        if letter <= self.genus:
            return f"a{letter}"
        return f"b{letter - self.genus}"


@lru_cache(maxsize=None)
def get_context(genus, max_degree):
    return LieContext(genus, max_degree)


def _coefficient(scalar):
    """An exact coefficient: an int stays an int, anything else is read as a
    Fraction."""
    return scalar if isinstance(scalar, int) else Fraction(scalar)


class SparseCombination:
    """A sparse rational combination: `terms` maps keys to nonzero
    coefficients.  A subclass is built as `Cls(*self._space(), terms)`;
    `_space()` fixes its vector space, and only equal spaces combine."""

    __slots__ = ()

    def _like(self, terms):
        return type(self)(*self._space(), terms)

    def _check(self, other):
        if self._space() != other._space():
            raise ContextMismatch(f"{type(self).__name__} spaces differ: "
                                  f"{self._space()} vs {other._space()}")

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        t_add_into(out, other.terms)
        return self._like(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        t_add_into(out, other.terms, -1)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        c = _coefficient(scalar)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    __rmul__ = __mul__


class LieElement(SparseCombination):
    """Sparse exact-rational combination of Lyndon basis monomials.

    A coefficient is an `int` or a `Fraction`.  The terms that `bch`
    returns, and so those of `theta`, are an `int` wherever integral; `+`,
    `-`, a scalar `*` and `bracket` with `Fraction` coefficients may leave a
    `Fraction(n, 1)`, which compares, hashes, prints and serializes like
    `n`."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    def _space(self):
        return (self.ctx,)

    def __eq__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def max_degree(self):
        return max((len(w) for w in self.terms), default=0)

    def degree_part(self, d):
        return self._like({w: c for w, c in self.terms.items() if len(w) == d})

    def truncated(self, d):
        return self._like({w: c for w, c in self.terms.items() if len(w) <= d})

    def bracket(self, other):
        """[self, other] in the Lyndon basis, degrees above the class dropped."""
        self._check(other)
        return LieElement(self.ctx, _bracket_into({}, self.terms, other.terms,
                                                  self.ctx.max_degree))

    def bch(self, other):
        """Baker-Campbell-Hausdorff product log(exp(self) exp(other)).

        `bch_series` evaluated on integer numerators over one denominator d:
        the integer value of a tree with k leaves stands for itself over d^k,
        and each output coefficient is divided once.
        """
        self._check(other)
        cap = self.ctx.max_degree
        (nx, dx), (ny, dy) = _numerators(self.terms), _numerators(other.terms)
        den = lcm(dx, dy)
        terms = eval_series(
            bch_series(cap),
            {w: c * (den // dx) for w, c in nx.items()},
            {w: c * (den // dy) for w, c in ny.items()},
            lambda u, v: _bracket_into({}, u, v, cap))
        total = den ** cap * lcm(*(c.denominator for _t, _v, c in terms))
        out = {}
        for tree, value, c in terms:
            t_add_into(out, value, c.numerator
                       * (total // (c.denominator * den ** tree_size(tree))))
        return self._like(_over(out, total))

    def rooted_terms(self):
        """The element as a list of (coefficient, bracketing tree) pairs.

        Each Lyndon monomial is replaced by its standard bracketing; evaluating
        the trees recovers the element.
        """
        return [(c, standard_bracketing(w)) for w, c in sorted(self.terms.items())]

    # -- rendering --

    def _ordered_words(self):
        return sorted(self.terms, key=lambda w: (len(w), w))

    def render(self):
        """Text form: nested brackets over a1..ag, b1..bg, smallest word first,
        as 0+(c)*[..]+..., a leading coefficient 1 written bare in place of
        the 0, e.g. a1+(-1/2)*[a1,b1]."""
        memo, out = {}, "0"
        for w in self._ordered_words():
            c = self.terms[w]
            name = evaluate(standard_bracketing(w), self.ctx.letter_name,
                            "[{},{}]".format, memo)
            out = name if out == "0" and c == 1 else f"{out}+({c})*{name}"
        return out

    def to_json(self):
        return {
            "degree": self.max_degree(),
            "terms": [
                {"word": list(w), "num": self.terms[w].numerator,
                 "den": self.terms[w].denominator}
                for w in self._ordered_words()
            ],
        }

    def __repr__(self):
        return f"<Lie {self.render()}>"


def ideal_omega_component(ctx, d):
    """Spanning set of the degree-d part of the ideal generated by omega.

    Left-normed generators [z_1,[z_2,...,[z_{d-2}, omega]...]] suffice: ad by
    an arbitrary element reduces to ad by generators via the Jacobi identity.
    """
    if d < 2 or d > ctx.max_degree:
        raise ValueError(f"degree {d} out of range 2..{ctx.max_degree}")
    layer = [ctx.omega()]
    for _ in range(d - 2):
        layer = [ctx.generator(z).bracket(x)
                 for z in range(1, ctx.letters + 1)
                 for x in layer]
    return [x for x in layer if not x.is_zero()]


def lbar_rank(ctx, d):
    """Rank of degree d of the quotient of the free Lie algebra by <<omega>>."""
    if d == 1:
        return ctx.letters
    basis = ctx.lyndon_basis(d)
    index = {w: i for i, w in enumerate(basis)}
    rows = []
    for x in ideal_omega_component(ctx, d):
        row = [0] * len(basis)
        for w, c in x.terms.items():
            row[index[w]] = c
        rows.append(row)
    return len(basis) - rational_rank(rows)
