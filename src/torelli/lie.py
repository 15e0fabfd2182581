"""The free Lie algebra on 2g generators a_1..a_g, b_1..b_g over Q, truncated
at a nilpotency class N <= 5, in the Lyndon basis.

Letters are 1..2g with a_i = i and b_i = g + i, so the generator order is
a_1 < ... < a_g < b_1 < ... < b_g.  A Lie element is a sparse map from Lyndon
words (tuples of letters) to Fraction.  Products that need the associative
structure (the truncated BCH product, rewriting brackets into the basis) go
through the truncated tensor algebra: a Lyndon monomial expands to the tensor
polynomial of its standard bracketing, and a tensor polynomial that happens to
be a Lie element is decomposed back by triangularity (the smallest word of a
homogeneous Lie polynomial is Lyndon, with the coefficient of its bracketing).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact_linalg import reduce_mod_rowspace, rref

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


def is_lyndon(word):
    n = len(word)
    if n == 0:
        return False
    return all(word < word[i:] + word[:i] for i in range(1, n))


def standard_bracketing(word):
    """Right-normed standard bracketing tree of a Lyndon word.

    The factorization w = uv takes v to be the longest proper suffix of w that
    is itself Lyndon (equivalently its lexicographically least proper suffix).
    Trees are nested tuples with int leaves.
    """
    if not is_lyndon(word):
        raise ValueError(f"not a Lyndon word: {word}")
    if len(word) == 1:
        return word[0]
    v = min(word[i:] for i in range(1, len(word)))
    u = word[:len(word) - len(v)]
    return (standard_bracketing(u), standard_bracketing(v))


def tree_size(tree):
    """Number of leaves of a bracket tree."""
    return 1 if isinstance(tree, int) else tree_size(tree[0]) + tree_size(tree[1])


# --- truncated tensor algebra (dict word-tuple -> Fraction) ----------------

def t_add_into(acc, poly, scale=1):
    for w, c in poly.items():
        v = acc.get(w, 0) + c * scale
        if v:
            acc[w] = v
        else:
            acc.pop(w, None)


def t_mul(p, q, cap):
    out = {}
    for w1, c1 in p.items():
        room = cap - len(w1)
        if room < 0:
            continue
        for w2, c2 in q.items():
            if len(w2) > room:
                continue
            w = w1 + w2
            v = out.get(w, 0) + c1 * c2
            if v:
                out[w] = v
            else:
                del out[w]
    return out


def t_exp(p, cap):
    """exp of a tensor polynomial with zero constant term, truncated."""
    if () in p:
        raise ValueError("exp needs a zero constant term")
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    fact = 1
    for k in range(1, cap + 1):
        power = t_mul(power, p, cap)
        if not power:
            break
        fact *= k
        t_add_into(out, power, Fraction(1, fact))
    return out


def t_log(p, cap):
    """log of a tensor polynomial with constant term 1, truncated."""
    u = dict(p)
    if u.pop((), None) != 1:
        raise ValueError("log needs constant term 1")
    out = {}
    power = {(): Fraction(1)}
    for k in range(1, cap + 1):
        power = t_mul(power, u, cap)
        if not power:
            break
        t_add_into(out, power, Fraction((-1) ** (k + 1), k))
    return out


class LieContext:
    """Shared state for a fixed genus and nilpotency class.

    Immutable after construction apart from internal memo tables, which are
    write-once per key; concurrent readers always see consistent values.
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
        self._lyndon = {}       # degree -> tuple of words
        self._bracketing = {}   # word -> tree
        self._expansion = {}    # word -> tensor dict with int coeffs
        self._bracket_memo = {} # (w1, w2) -> lyndon dict with int coeffs
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
        if degree not in self._lyndon:
            words = tuple(w for w in lyndon_words(self.letters, degree)
                          if len(w) == degree)
            self._lyndon[degree] = words
        return self._lyndon[degree]

    def bracketing(self, word):
        tree = self._bracketing.get(word)
        if tree is None:
            tree = standard_bracketing(word)
            self._bracketing[word] = tree
        return tree

    def expansion(self, word):
        """Tensor expansion of the standard bracketing of a Lyndon word."""
        poly = self._expansion.get(word)
        if poly is None:
            poly = self._expand_tree(self.bracketing(word))
            self._expansion[word] = poly
        return poly

    def _expand_tree(self, tree):
        if isinstance(tree, int):
            return {(tree,): 1}
        left = self._expand_tree(tree[0])
        right = self._expand_tree(tree[1])
        n = tree_size(tree)
        out = t_mul(left, right, n)
        t_add_into(out, t_mul(right, left, n), -1)
        return out

    # -- conversions --

    def decompose(self, poly):
        """Write a tensor polynomial that is a Lie element in the Lyndon basis.

        Triangular elimination per degree: repeatedly strip the lexicographically
        smallest word, which must be Lyndon.  Raises if the input is not a Lie
        element.
        """
        by_degree = {}
        for w, c in poly.items():
            by_degree.setdefault(len(w), {})[w] = c
        terms = {}
        for d, comp in sorted(by_degree.items()):
            if d == 0:
                raise ValueError("degree-0 part is not a Lie element")
            while comp:
                w = min(comp)
                if not is_lyndon(w):
                    raise ValueError(f"not a Lie element: stray word {w}")
                c = comp[w]
                terms[w] = c
                t_add_into(comp, self.expansion(w), -c)
        return terms

    def bracket_words(self, w1, w2):
        """[monomial(w1), monomial(w2)] in the Lyndon basis (integer coeffs)."""
        key = (w1, w2)
        out = self._bracket_memo.get(key)
        if out is None:
            if len(w1) + len(w2) > self.max_degree:
                out = {}
            else:
                p1, p2 = self.expansion(w1), self.expansion(w2)
                comm = t_mul(p1, p2, self.max_degree)
                t_add_into(comm, t_mul(p2, p1, self.max_degree), -1)
                out = self.decompose(comm)
            self._bracket_memo[key] = out
        return out

    # -- element constructors --

    def zero(self):
        return LieElement(self, {})

    def monomial(self, word, coeff=1):
        word = tuple(word)
        if not is_lyndon(word):
            raise ValueError(f"not a Lyndon word: {word}")
        if len(word) > self.max_degree:
            return self.zero()
        c = Fraction(coeff)
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
        terms = {(i, self.genus + i): Fraction(1) for i in range(1, self.genus + 1)}
        return LieElement(self, terms)

    def from_tree(self, tree):
        """Evaluate an iterated-bracket tree with generator leaves.

        Memoized per tree, so each distinct subtree is bracketed once.  The
        result is shared: callers must not mutate its terms."""
        out = self._tree_memo.get(tree)
        if out is None:
            if isinstance(tree, int):
                out = self.generator(tree)
            elif tree_size(tree) > self.max_degree:
                out = self.zero()
            else:
                out = self.from_tree(tree[0]).bracket(self.from_tree(tree[1]))
            self._tree_memo[tree] = out
        return out

    def letter_name(self, letter):
        if letter <= self.genus:
            return f"a{letter}"
        return f"b{letter - self.genus}"


@lru_cache(maxsize=None)
def get_context(genus, max_degree):
    return LieContext(genus, max_degree)


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
        c = Fraction(scalar)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    __rmul__ = __mul__


class LieElement(SparseCombination):
    """Sparse exact-rational combination of Lyndon basis monomials."""

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

    def min_degree(self):
        return min((len(w) for w in self.terms), default=0)

    def max_degree(self):
        return max((len(w) for w in self.terms), default=0)

    def degree_part(self, d):
        return self._like({w: c for w, c in self.terms.items() if len(w) == d})

    def truncated(self, d):
        return self._like({w: c for w, c in self.terms.items() if len(w) <= d})

    def bracket(self, other):
        """[self, other] in the Lyndon basis, degrees above the class dropped."""
        self._check(other)
        ctx = self.ctx
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) > ctx.max_degree:
                    continue
                t_add_into(out, ctx.bracket_words(w1, w2), c1 * c2)
        return LieElement(ctx, out)

    def to_tensor(self):
        out = {}
        for w, c in self.terms.items():
            t_add_into(out, self.ctx.expansion(w), c)
        return out

    def bch(self, other):
        """Baker-Campbell-Hausdorff product log(exp(self) exp(other)).

        Computed in the truncated tensor algebra, then decomposed back, so the
        coefficients come from the series themselves rather than a table.
        """
        self._check(other)
        cap = self.ctx.max_degree
        prod = t_mul(t_exp(self.to_tensor(), cap), t_exp(other.to_tensor(), cap), cap)
        return self._like(self.ctx.decompose(t_log(prod, cap)))

    def rooted_terms(self):
        """The element as a list of (coefficient, bracketing tree) pairs.

        Each Lyndon monomial is replaced by its standard bracketing; evaluating
        the trees recovers the element.
        """
        return [(c, self.ctx.bracketing(w)) for w, c in sorted(self.terms.items())]

    # -- rendering --

    def _ordered_words(self):
        return sorted(self.terms, key=lambda w: (len(w), w))

    def render(self):
        """Text form: nested brackets over a1..ag, b1..bg, smallest word first,
        each non-leading coefficient parenthesized, e.g. a1+(-1/2)*[a1,b1]."""
        if not self.terms:
            return "0"
        words = self._ordered_words()
        out = ""
        for i, w in enumerate(words):
            c = self.terms[w]
            name = self._transform(self.ctx.bracketing(w))
            if i == 0 and c == 1:
                out = name
            elif i == 0:
                out = f"0+({c})*{name}"
            else:
                out += f"+({c})*{name}"
        return out

    def _transform(self, tree):
        if isinstance(tree, int):
            return self.ctx.letter_name(tree)
        return f"[{self._transform(tree[0])},{self._transform(tree[1])}]"

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


def _ideal_rowspace(ctx, d):
    """RREF data of the degree-d component of <<omega>> in the Lyndon basis."""
    basis = ctx.lyndon_basis(d)
    index = {w: i for i, w in enumerate(basis)}
    rows = []
    for x in ideal_omega_component(ctx, d):
        row = [Fraction(0)] * len(basis)
        for w, c in x.terms.items():
            row[index[w]] = c
        rows.append(row)
    return basis, rref(rows)


def lbar_rank(ctx, d):
    """Rank of degree d of the quotient of the free Lie algebra by <<omega>>."""
    if d == 1:
        return ctx.letters
    basis, (reduced, _pivots) = _ideal_rowspace(ctx, d)
    return len(basis) - len(reduced)


def lbar_reduce(x):
    """Canonical representative of a homogeneous Lie element in the quotient
    by the ideal generated by omega (zero iff the class is zero)."""
    ctx = x.ctx
    d = x.max_degree()
    if x.is_zero() or d == 1:
        return x
    if x.min_degree() != d:
        raise ValueError("lbar_reduce needs a homogeneous element")
    basis, (reduced, pivots) = _ideal_rowspace(ctx, d)
    return x._like(reduce_mod_rowspace(x.terms, basis, reduced, pivots))
