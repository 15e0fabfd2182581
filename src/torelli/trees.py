"""Tree diagrams: unitrivalent trees with leaves colored by the symplectic
basis, presented as two rooted planar binary trees joined root to root.

Swapping the two children of a node flips the sign (the cyclic orientation at
a trivalent vertex); swapping the two halves of a join does not.  Rather than
normalizing modulo the local relations symbolically, canonical equality of
tree sums is equality of images under eta, which sends a diagram to the sum
over its leaves of (leaf color) tensor (bracket of the diagram rerooted at
that leaf) and is injective over Q.  The symbolic presentation is retained
because the contraction operations and the half-tree bookkeeping of the mod-2
cokernel map need it.

Gluing (`bracket`, `contract`), `join` and `eta` run over Z: they take the
integer numerators of their inputs over one shared denominator, add every
glued or rerooted term as an `int`, and divide once per output coefficient.

The integer tree lattice of a multidegree md and the degree-4 presentation
are read off md's component basis: the rows join the rarest color h of md to
the standard bracketings of the basis words paired with h, and the half trees
are the standard bracketings of the Lyndon words of half the content.

Degree of a diagram = number of trivalent vertices = total leaves - 2.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .exact_linalg import hnf, quotient_diagonal, solve_integer_combination
from .lie import (LieElement, SparseCombination, _lyndon_words_of_content,
                  _numerators, _over, evaluate, get_context,
                  standard_bracketing, t_add_into, tree_size)
from .sp_mod2 import tree_mod2_bits


def omega_pairing(genus, x, y):
    """Intersection form on basis letters: omega(a_i, b_i) = 1 = -omega(b_i, a_i)."""
    if y == x + genus:
        return 1
    if x == y + genus:
        return -1
    return 0


def _omega_dual(genus, z):
    """The one letter h with omega(h, z) != 0, and omega(h, z):
    (b_i, -1) for z = a_i and (a_i, 1) for z = b_i."""
    return (z + genus, -1) if z <= genus else (z - genus, 1)


def ell_pairing(genus, x, y):
    """One-sided splitting of omega: ell(a_i, b_i) = 1, zero otherwise."""
    return 1 if y == x + genus else 0


# --- rooted planar binary trees (nested tuples, int leaves) -----------------

def tree_key(tree):
    if isinstance(tree, int):
        return (0, tree)
    return (1, tree_key(tree[0]), tree_key(tree[1]))


def canonical_tree(tree):
    """Sorted-children form with the accumulated AS sign, or (None, 0) if the
    tree vanishes (a node with equal subtrees)."""
    if isinstance(tree, int):
        return tree, 1
    left, sl = canonical_tree(tree[0])
    if left is None:
        return None, 0
    right, sr = canonical_tree(tree[1])
    if right is None:
        return None, 0
    if left == right:
        return None, 0
    if tree_key(left) <= tree_key(right):
        return (left, right), sl * sr
    return (right, left), -sl * sr


def _leaf_decompositions(t, rest):
    """(color, tree hanging at that leaf) for every leaf of t, where rest is
    the subtree across the root edge of t.  The rerooted planar order follows
    the cyclic orientation at each node."""
    if isinstance(t, int):
        return [(t, rest)]
    t1, t2 = t
    return (_leaf_decompositions(t1, (t2, rest))
            + _leaf_decompositions(t2, (rest, t1)))


def join_leaf_decompositions(u, v):
    return _leaf_decompositions(u, v) + _leaf_decompositions(v, u)


class TreeSum(SparseCombination):
    """Formal rational combination of joined trees at a fixed genus.

    A coefficient is an `int` or a `Fraction`.  What `join`, `bracket` and
    `contract` return, and the terms of `eta_graded`, are an `int` wherever
    integral; `+`, `-` and a scalar `*` may leave a `Fraction(n, 1)`, which
    compares, hashes, prints and serializes like `n`.

    Every key is a canonical join (u, v) as made by add_join: both trees in
    sorted-children form and u <= v, so equal joins always share one key and
    sums merge keys directly.
    """

    __slots__ = ("genus", "terms")

    def __init__(self, genus, terms=None):
        self.genus = genus
        self.terms = terms if terms is not None else {}

    def _space(self):
        return (self.genus,)

    @staticmethod
    def single(genus, u, v):
        ts = TreeSum(genus)
        ts.add_join(u, v, 1)
        return ts

    def add_join(self, u, v, coeff):
        if not coeff:
            return
        u, su = canonical_tree(u)
        if u is None:
            return
        v, sv = canonical_tree(v)
        if v is None:
            return
        if tree_key(v) < tree_key(u):
            u, v = v, u
        key = (u, v)
        c = self.terms.get(key, 0) + coeff * su * sv
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)

    def degrees(self):
        return sorted({tree_size(u) + tree_size(v) - 2
                       for (u, v) in self.terms})

    def degree_part(self, d):
        return self._like({(u, v): c for (u, v), c in self.terms.items()
                           if tree_size(u) + tree_size(v) - 2 == d})

    def eta(self):
        """Image in H tensor L as a DerivationElement (homogeneous input)."""
        ds = self.degrees()
        if not ds:
            raise ValueError("eta of the symbolic zero needs a degree; "
                             "use eta_graded or DerivationElement(genus, degree)")
        if len(ds) > 1:
            raise ValueError(f"mixed degrees {ds}; use eta_graded")
        return self.eta_graded()[ds[0]]

    def eta_graded(self):
        """{degree: DerivationElement} over the degrees present."""
        nums, den = _numerators(self.terms)
        per = {}
        g = self.genus
        for (u, v), c in nums.items():
            d = tree_size(u) + tree_size(v) - 2
            if d == 0:
                raise ValueError("degree-0 join has no derivation image")
            ctx = get_context(g, d + 1)
            by_color = per.setdefault(d, {})
            for color, tree in join_leaf_decompositions(u, v):
                t_add_into(by_color.setdefault(color, {}),
                           ctx.from_tree(tree).terms, c)
        return {d: DerivationElement(g, d, _over(
                    {(h, w): x for h, part in by_color.items()
                     for w, x in part.items()}, den))
                for d, by_color in per.items()}

    def _pairing_product(self, other, pairing):
        self._check(other)
        g, out = self.genus, TreeSum(self.genus)
        (n1, d1), (n2, d2) = _numerators(self.terms), _numerators(other.terms)
        for (u1, v1), c1 in n1.items():
            if isinstance(u1, int) and isinstance(v1, int):
                raise ValueError("degree-0 join cannot be glued")
            dec1 = join_leaf_decompositions(u1, v1)
            for (u2, v2), c2 in n2.items():
                if isinstance(u2, int) and isinstance(v2, int):
                    raise ValueError("degree-0 join cannot be glued")
                dec2 = join_leaf_decompositions(u2, v2)
                for x, tx in dec1:
                    for y, ty in dec2:
                        w = pairing(g, x, y)
                        if w:
                            out.add_join(tx, ty, c1 * c2 * w)
        out.terms = _over(out.terms, d1 * d2)
        return out

    def bracket(self, other):
        """Lie bracket: sum of all omega-gluings of one leaf to one leaf."""
        return self._pairing_product(other, omega_pairing)

    def contract(self, other):
        """The one-sided contraction: glue with the pairing ell instead of omega."""
        return self._pairing_product(other, ell_pairing)

    def equals(self, other):
        """Canonical equality, i.e. equality of eta images degreewise."""
        return all(dv.is_zero() for dv in (self - other).eta_graded().values())

    def to_json(self):
        # a tree is a generator name or a two-element array of trees
        memo, name = {}, get_context(self.genus, 1).letter_name
        out = []
        for (u, v) in sorted(self.terms, key=lambda k: (tree_key(k[0]), tree_key(k[1]))):
            c = self.terms[(u, v)]
            left, right = (evaluate(t, name, lambda x, y: [x, y], memo)
                           for t in (u, v))
            out.append({"coeff": {"num": c.numerator, "den": c.denominator},
                        "left": left, "right": right})
        return out

    def __repr__(self):
        return f"<TreeSum g={self.genus} {len(self.terms)} joins>"


def join(x, y, allow_degree0=False):
    """Bilinear join of two Lie elements root to root.

    Degree-0 joins (both factors in degree 1) are only meaningful inside the
    bounding-pair cancellation and must be requested explicitly.
    """
    if x.ctx.genus != y.ctx.genus:
        raise ValueError("genus mismatch")
    (nx, dx), (ny, dy) = _numerators(x.terms), _numerators(y.terms)
    rooted_y = LieElement(y.ctx, ny).rooted_terms()
    out = TreeSum(x.ctx.genus)
    for cx, tx in LieElement(x.ctx, nx).rooted_terms():
        for cy, ty in rooted_y:
            if not allow_degree0 and isinstance(tx, int) and isinstance(ty, int):
                raise ValueError("degree-0 join; pass allow_degree0=True")
            out.add_join(tx, ty, cx * cy)
    out.terms = _over(out.terms, dx * dy)
    return out


class DerivationElement(SparseCombination):
    """Element of H tensor L_{degree+1}: sparse map (letter, word) -> exact
    rational coefficient, an `int` or a `Fraction`.  The images that
    `TreeSum.eta_graded` returns are an `int` wherever integral; `+`, `-` and
    a scalar `*` may leave a `Fraction(n, 1)`, which compares, hashes, prints
    and serializes like `n`.

    Under h |-> omega(h, -) this is the derivation z |-> sum omega(h, z) * w.
    Derivations are bracketed as tree sums (`TreeSum.bracket`, then `eta`);
    there is no bracket on this side.
    """

    __slots__ = ("genus", "degree", "terms")

    def __init__(self, genus, degree, terms=None):
        self.genus = genus
        self.degree = degree
        self.terms = terms if terms is not None else {}

    def _space(self):
        return (self.genus, self.degree)

    def __eq__(self, other):
        if not isinstance(other, DerivationElement):
            return NotImplemented
        return (self.genus, self.degree, self.terms) == \
               (other.genus, other.degree, other.terms)

    def __hash__(self):
        return hash((self.genus, self.degree, frozenset(self.terms.items())))

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def value_on_letter(self, z):
        """The derivation applied to a generator, as a Lie element."""
        ctx = get_context(self.genus, self.degree + 1)
        h, s = _omega_dual(self.genus, z)
        return LieElement(ctx, {w: s * c for (k, w), c in self.terms.items()
                                if k == h})

    def components(self):
        """The terms split by multidegree in one pass: {md: {key: coeff}}."""
        out = {}
        for k, c in self.terms.items():
            out.setdefault(_term_multidegree(self.genus, k), {})[k] = c
        return out

    def multidegrees(self):
        return sorted(self.components())

    def component_vector(self, md):
        return _place(self.genus, self.degree, md,
                      self.components().get(md, {}))

    def to_json(self):
        ctx = get_context(self.genus, 1)
        out = []
        for (h, w) in sorted(self.terms):
            c = self.terms[(h, w)]
            out.append({"generator": ctx.letter_name(h), "word": list(w),
                        "num": c.numerator, "den": c.denominator})
        return out

    def __repr__(self):
        return f"<Derivation g={self.genus} deg={self.degree} {len(self.terms)} terms>"


def _term_multidegree(genus, key):
    h, w = key
    counts = [0] * (2 * genus)
    counts[h - 1] += 1
    for letter in w:
        counts[letter - 1] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def component_basis(genus, degree, md):
    """Ordered basis of the md component of H tensor L_{degree+1}: (h, w)
    for each letter h of md in turn, w over the Lyndon words of content
    md - e_h in lex order, as the fixed-content listing
    `_lyndon_words_of_content` (Sawada, Theoret. Comput. Sci. 301, 2003)
    yields them: nothing is filtered or sorted."""
    if len(md) != 2 * genus or sum(md) != degree + 2 or any(c < 0 for c in md):
        raise ValueError(f"invalid multidegree {md} for degree {degree}")
    return tuple((h, w) for h, c in enumerate(md, 1) if c
                 for w in _lyndon_words_of_content(md[:h - 1] + (c - 1,)
                                                   + md[h:]))


@lru_cache(maxsize=None)
def _component_index(genus, degree, md):
    return {k: i for i, k in enumerate(component_basis(genus, degree, md))}


def _place(genus, degree, md, part):
    """The terms part, all of multidegree md, as a dense vector on its basis."""
    index = _component_index(genus, degree, md)
    vec = [0] * len(index)
    for k, c in part.items():
        if k not in index:
            raise ValueError(f"term {k} lies outside component {md}")
        vec[index[k]] = c
    return vec


# --- integer tree lattices --------------------------------------------------

def half_symmetric_generators(genus, md):
    """(u, (1/2) eta(u -- u) as an integer vector) over the standard
    bracketings u of the Lyndon words with half the content of md; empty
    unless md is even.

    Modulo diagrams (u + v -- u + v)/2 = (u -- u)/2 + (v -- v)/2 + (u -- v)
    and (cu -- cu)/2 = c (u -- u)/2 + ((c^2 - c)/2) (u -- u), so a Z-basis
    of the half content suffices.
    """
    if any(c % 2 for c in md):
        return []
    out = []
    for w in _lyndon_words_of_content(tuple(c // 2 for c in md)):
        u = standard_bracketing(w)
        vec = _eta_int_vector(TreeSum.single(genus, u, u), md)
        if any(v % 2 for v in vec):
            raise ValueError(f"eta of the double of {u} is not even")
        out.append((u, tuple(v // 2 for v in vec)))
    return out


def _eta_int_vector(ts, md):
    dv = ts.eta()  # an int wherever integral
    if not dv.is_integral():
        raise ValueError(f"eta image in component {md} is not integral")
    return tuple(_place(ts.genus, dv.degree, md, dv.terms))


@lru_cache(maxsize=None)
def diagram_rows(genus, md):
    """Integer eta vectors of the joins h -- standard_bracketing(w) over the
    keys (h, w) of the md component's basis, h its rarest color (the
    smallest on a tie), which keeps the rows few.  They span the integer
    tree lattice of md: every diagram of md rooted at a leaf of color h is a
    join h -- t, eta(h -- t) is Z-linear in the class of t in the free Lie
    ring, and the Lyndon words are a Z-basis of each of its content
    components."""
    h = min((c, i) for i, c in enumerate(md, 1) if c)[1]
    return tuple(_eta_int_vector(TreeSum.single(genus, h,
                                                standard_bracketing(w)), md)
                 for k, w in component_basis(genus, sum(md) - 2, md)
                 if k == h)


@lru_cache(maxsize=None)
def tree_lattice(genus, degree, md):
    """HNF lattice of eta images of integer diagrams in the md component."""
    rows = diagram_rows(genus, md)
    return hnf(rows, ambient_dim=len(component_basis(genus, degree, md)))


def degree4_presentation(genus, md):
    """Generators of the md component of the integral symplectic derivation
    lattice of degree sum(md) - 2 (degree 4 in the paper).

    Returns (rows, half_trees): the diagram rows, which generate the tree
    sublattice, followed by the half-symmetric rows, whose trees u are
    half_trees in the same order.
    """
    rows = diagram_rows(genus, md)
    half = half_symmetric_generators(genus, md)
    return (rows + tuple(vec for (_u, vec) in half),
            tuple(u for (u, _vec) in half))


def mod1_class_is_zero(v):
    """Whether a derivation element lies in the integer tree lattice of its
    degree.

    Exact per multidegree component: the rational component vector is tested
    for membership in the integer lattice.  Returns (verdict, failing
    multidegrees).
    """
    failing = tuple(md for md, vec in _component_vectors(v)
                    if not tree_lattice(v.genus, v.degree, md).contains(vec))
    return (not failing), failing


def _component_vectors(v):
    """(md, component vector) over the sorted multidegrees of v, split once."""
    parts = v.components()
    for md in sorted(parts):
        yield md, _place(v.genus, v.degree, md, parts[md])


def congruent_mod_trees(v, w):
    """Whether two derivation elements of equal degree differ by an integer
    combination of diagrams (the displayed congruences of the computation)."""
    if v.degree != w.degree:
        raise ValueError(f"degrees {v.degree} and {w.degree} differ")
    return mod1_class_is_zero(v - w)[0]


def varpi(v):
    """The mod-2 cokernel class of a degree-4 derivation element, or None
    when v lies outside the integral derivation lattice.

    Presents v as an integer combination of diagram generators and
    half-symmetric generators; the class is the sum of bracket(u) over the
    half-symmetric generators with odd coefficient, in L_3 tensor GF(2).
    Well defined because relations among the generators have even
    half-symmetric part.
    """
    if v.degree != 4:
        raise ValueError(f"varpi needs degree 4, got degree {v.degree}")
    if not v.is_integral():
        return None
    g = v.genus
    out = 0
    for md, vec in _component_vectors(v):
        rows, half_trees = degree4_presentation(g, md)
        target = [int(c) for c in vec]
        combo = solve_integer_combination(rows, target, width=len(target))
        if combo is None:
            return None
        for coeff, u in zip(combo[len(rows) - len(half_trees):], half_trees):
            if coeff % 2:
                out ^= tree_mod2_bits(g, u)
    return out


# --- degree-4 quotient: derivation lattice over tree lattice ----------------

def lcst_component_diagonal(genus, md):
    """Invariant factors of (derivation lattice)/(tree lattice) in the md
    component, of degree sum(md) - 2."""
    rows, _ = degree4_presentation(genus, md)
    degree = sum(md) - 2
    return quotient_diagonal(tree_lattice(genus, degree, md).rows, rows,
                             len(component_basis(genus, degree, md)))


def all_multidegrees(genus, total):
    """All color-count vectors of the given total over 2g colors."""
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")

    def rec(slots, left):
        if slots == 1:
            yield (left,)
            return
        for c in range(left + 1):
            for rest in rec(slots - 1, left - c):
                yield (c,) + rest
    return list(rec(2 * genus, total))


def lcst_full_diagonals(genus):
    """Invariant factors of the full degree-4 quotient, all components
    combined.  A permutation of the letters is an automorphism of the free
    Lie ring that commutes with eta, so a component's factors depend only on
    its shape, md sorted in descending order: each shape is computed once and
    counted once per multidegree of that shape."""
    shapes = Counter(tuple(sorted(md, reverse=True))
                     for md in all_multidegrees(genus, 6))
    return sorted(d for shape, count in shapes.items()
                  for d in lcst_component_diagonal(genus, shape) * count)
