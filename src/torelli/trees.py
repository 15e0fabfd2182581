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

Degree of a diagram = number of trivalent vertices = total leaves - 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .exact_linalg import (hnf, quotient_diagonal, rref,
                           reduce_mod_rowspace, solve_integer_combination)
from .lie import (MAX_CLASS, ContextMismatch, LieElement, SparseCombination,
                  get_context, ideal_omega_component, t_add_into, tree_size)
from .sp_mod2 import tree_mod2_bits


def lie_lift(ctx, x):
    """Copy a Lie element into another context of the same genus, truncating."""
    if x.ctx is ctx:
        return x
    if x.ctx.genus != ctx.genus:
        raise ContextMismatch(f"cannot lift genus {x.ctx.genus} into genus "
                              f"{ctx.genus}")
    return LieElement(ctx, {w: c for w, c in x.terms.items()
                            if len(w) <= ctx.max_degree})


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
        ts.add_join(u, v, Fraction(1))
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
        per = {}
        g = self.genus
        for (u, v), c in self.terms.items():
            d = tree_size(u) + tree_size(v) - 2
            if d == 0:
                raise ValueError("degree-0 join has no derivation image")
            ctx = get_context(g, d + 1)
            by_color = per.setdefault(d, {})
            for color, tree in join_leaf_decompositions(u, v):
                t_add_into(by_color.setdefault(color, {}),
                           ctx.from_tree(tree).terms, c)
        return {d: DerivationElement(g, d, {(h, w): x
                                            for h, part in by_color.items()
                                            for w, x in part.items()})
                for d, by_color in per.items()}

    def _pairing_product(self, other, pairing):
        self._check(other)
        g = self.genus
        out = TreeSum(g)
        for (u1, v1), c1 in self.terms.items():
            if tree_size(u1) + tree_size(v1) == 2:
                raise ValueError("degree-0 join cannot be glued")
            dec1 = join_leaf_decompositions(u1, v1)
            for (u2, v2), c2 in other.terms.items():
                if tree_size(u2) + tree_size(v2) == 2:
                    raise ValueError("degree-0 join cannot be glued")
                for x, tx in dec1:
                    for y, ty in join_leaf_decompositions(u2, v2):
                        w = pairing(g, x, y)
                        if w:
                            out.add_join(tx, ty, c1 * c2 * w)
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
        g = self.genus
        ctx = get_context(g, 1)

        def render(tree):
            if isinstance(tree, int):
                return ctx.letter_name(tree)
            return [render(tree[0]), render(tree[1])]

        out = []
        for (u, v) in sorted(self.terms, key=lambda k: (tree_key(k[0]), tree_key(k[1]))):
            c = self.terms[(u, v)]
            out.append({"coeff": {"num": c.numerator, "den": c.denominator},
                        "left": render(u), "right": render(v)})
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
    out = TreeSum(x.ctx.genus)
    for cx, tx in x.rooted_terms():
        for cy, ty in y.rooted_terms():
            if not allow_degree0 and isinstance(tx, int) and isinstance(ty, int):
                raise ValueError("degree-0 join; pass allow_degree0=True")
            out.add_join(tx, ty, cx * cy)
    return out


class DerivationElement(SparseCombination):
    """Element of H tensor L_{degree+1}: sparse map (letter, word) -> Fraction.

    Under h |-> omega(h, -) this is the derivation z |-> sum omega(h, z) * w.
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

    def apply(self, x):
        """Apply the derivation to a Lie element (Leibniz over bracketing trees)."""
        return self.apply_in(x.ctx, x)

    def _apply_tree(self, ctx, values, tree):
        if isinstance(tree, int):
            return values[tree].truncated(ctx.max_degree)
        left = ctx.from_tree(tree[0])
        right = ctx.from_tree(tree[1])
        dl = self._apply_tree(ctx, values, tree[0])
        dr = self._apply_tree(ctx, values, tree[1])
        return dl.bracket(right) + left.bracket(dr)

    def bracket(self, other):
        """Commutator of the associated derivations, back in H tensor L form.

        The degrees may differ; only the genus must agree."""
        g = self.genus
        if other.genus != g:
            raise ContextMismatch(f"genus {g} vs {other.genus}")
        k = self.degree + other.degree
        if k + 1 > MAX_CLASS:
            raise ValueError(
                f"derivation commutator of degrees {self.degree} and "
                f"{other.degree} lands beyond the supported class")
        ctx = get_context(g, k + 1)
        terms = {}
        for z in range(1, 2 * g + 1):
            val = (self.apply_in(ctx, other.value_on_letter(z))
                   - other.apply_in(ctx, self.value_on_letter(z)))
            if val.is_zero():
                continue
            h, sign = _omega_dual(g, z)
            t_add_into(terms, _tensor_letter(h, val), sign)
        return DerivationElement(g, k, terms)

    def apply_in(self, ctx, x):
        """Apply the derivation to x, computing in the given (larger) context."""
        lifted = lie_lift(ctx, x)
        values = {z: lie_lift(ctx, self.value_on_letter(z))
                  for z in range(1, 2 * self.genus + 1)}
        out = {}
        for c, tree in lifted.rooted_terms():
            t_add_into(out, self._apply_tree(ctx, values, tree).terms, c)
        return LieElement(ctx, out)

    def bracket_map_image(self):
        """Image under H tensor L_{k+1} -> L_{k+2}; zero iff symplectic."""
        ctx = get_context(self.genus, self.degree + 2)
        out = {}
        for (h, w), c in self.terms.items():
            t_add_into(out, ctx.generator(h).bracket(ctx.monomial(w)).terms, c)
        return LieElement(ctx, out)

    def is_symplectic(self):
        if self.degree + 2 > MAX_CLASS:
            raise ValueError("bracket-map check unavailable beyond degree 3; "
                             "use the degree-4 lattice membership instead")
        return self.bracket_map_image().is_zero()

    def multidegrees(self):
        return sorted({_term_multidegree(self.genus, k) for k in self.terms})

    def component_vector(self, md):
        basis = component_basis(self.genus, self.degree, md)
        index = {k: i for i, k in enumerate(basis)}
        vec = [Fraction(0)] * len(basis)
        for k, c in self.terms.items():
            if _term_multidegree(self.genus, k) == md:
                vec[index[k]] = c
        return vec

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


def _tensor_letter(h, x):
    """The terms of h tensor x for a letter h and a Lie element x."""
    return {(h, w): c for w, c in x.terms.items()}


def _term_multidegree(genus, key):
    h, w = key
    counts = [0] * (2 * genus)
    counts[h - 1] += 1
    for letter in w:
        counts[letter - 1] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def component_basis(genus, degree, md):
    """Ordered basis of the md component of H tensor L_{degree+1}."""
    if len(md) != 2 * genus or sum(md) != degree + 2 or any(c < 0 for c in md):
        raise ValueError(f"invalid multidegree {md} for degree {degree}")
    ctx = get_context(genus, degree + 1)
    out = []
    for w in ctx.lyndon_basis(degree + 1):
        # rest = md - content(w) sums to 1: keep w when it stays >= 0, so
        # that it is one unit vector e_h
        rest = list(md)
        for letter in w:
            if not rest[letter - 1]:
                break
            rest[letter - 1] -= 1
        else:
            out.append((rest.index(1) + 1, w))
    out.sort(key=lambda pair: pair[0])  # stable: Lyndon order within each h
    return tuple(out)


# --- integer tree lattices --------------------------------------------------

def _colorings(md):
    colors = []
    for i, c in enumerate(md):
        colors.extend([i + 1] * c)
    return sorted(set(permutations(colors)))


def _nest(colors):
    """The right-nested rooted tree (c0, (c1, (..., c_last)))."""
    return colors[0] if len(colors) == 1 else (colors[0], _nest(colors[1:]))


def basis_colored_trees(genus, md):
    """The caterpillar diagrams (c0, c1) -- (c2, (c3, (...))) over the
    colorings c of md, as (coloring, TreeSum) pairs.

    Read from a leaf, a diagram is a bracket, and the Jacobi identity writes
    every bracket as an integer combination of nested ones, so caterpillars
    span the integer tree lattice at every degree.
    """
    out = []
    for coloring in _colorings(md):
        ts = TreeSum.single(genus, _nest(coloring[:2]), _nest(coloring[2:]))
        if ts.terms:
            out.append((coloring, ts))
    return out


def half_symmetric_generators(genus, md):
    """(u, (1/2) eta(u -- u) as an integer vector) over the nested trees u
    with half the content of md; empty unless md is even.

    Modulo diagrams (u + v -- u + v)/2 = (u -- u)/2 + (v -- v)/2 + (u -- v),
    so nested u suffice: their brackets span.
    """
    if any(c % 2 for c in md):
        return []
    out = []
    for coloring in _colorings(tuple(c // 2 for c in md)):
        u = _nest(coloring)
        ts = TreeSum.single(genus, u, u)
        if not ts.terms:
            continue
        vec = _eta_int_vector(ts, md)
        if any(v % 2 for v in vec):
            raise ValueError(f"eta of the double of {u} is not even")
        out.append((u, tuple(v // 2 for v in vec)))
    return out


def _eta_int_vector(ts, md):
    vec = ts.eta().component_vector(md)
    if any(v.denominator != 1 for v in vec):
        raise ValueError(f"eta image in component {md} is not integral")
    return tuple(v.numerator for v in vec)


@lru_cache(maxsize=None)
def diagram_rows(genus, md):
    """(colorings, integer eta vectors) of the caterpillar diagrams of the
    md component, in the order of basis_colored_trees."""
    pairs = basis_colored_trees(genus, md)
    return (tuple(c for c, _ts in pairs),
            tuple(_eta_int_vector(ts, md) for _c, ts in pairs))


@lru_cache(maxsize=None)
def tree_lattice(genus, degree, md):
    """HNF lattice of eta images of integer diagrams in the md component."""
    _, rows = diagram_rows(genus, md)
    return hnf(rows, ambient_dim=len(component_basis(genus, degree, md)))


@lru_cache(maxsize=None)
def degree4_presentation(genus, md):
    """Generators of the md component of the integral symplectic derivation
    lattice of degree sum(md) - 2 (degree 4 in the paper).

    Returns (rows, half_trees): the caterpillar rows, which generate the tree
    sublattice, followed by the half-symmetric rows, whose trees u are
    half_trees in the same order.
    """
    _, rows = diagram_rows(genus, md)
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
    failing = tuple(md for md in v.multidegrees()
                    if not tree_lattice(v.genus, v.degree, md).contains(
                        v.component_vector(md)))
    return (not failing), failing


def congruent_mod_trees(v, w):
    """Whether two derivation elements of equal degree differ by an integer
    combination of diagrams (the displayed congruences of the computation)."""
    if v.degree != w.degree:
        raise ValueError(f"degrees {v.degree} and {w.degree} differ")
    return mod1_class_is_zero(v - w)[0]


def varpi(v):
    """The mod-2 cokernel class of an integral degree-4 derivation element.

    Presents v as an integer combination of diagram generators and
    half-symmetric generators; the class is the sum of bracket(u) over the
    half-symmetric generators with odd coefficient, in L_3 tensor GF(2).
    Well defined because relations among the generators have even
    half-symmetric part.
    """
    if v.degree != 4:
        raise ValueError(f"varpi needs degree 4, got degree {v.degree}")
    if not v.is_integral():
        raise ValueError("varpi needs an integral element")
    g = v.genus
    out = 0
    for md in v.multidegrees():
        rows, half_trees = degree4_presentation(g, md)
        target = [int(c) for c in v.component_vector(md)]
        combo = solve_integer_combination(rows, target, width=len(target))
        if combo is None:
            raise ValueError(f"component {md} is outside the degree-4 "
                             "derivation lattice")
        for coeff, u in zip(combo[len(rows) - len(half_trees):], half_trees):
            if coeff % 2:
                out ^= tree_mod2_bits(g, u)
    return out


@lru_cache(maxsize=None)
def _a_quotient_basis(genus):
    """Lyndon words of length 3 in the a-letters only (the quotient by all b_i)."""
    ctx = get_context(genus, 3)
    return tuple(w for w in ctx.lyndon_basis(3) if all(l <= genus for l in w))


def project_l3_to_a(genus, bits):
    """Image of an L_3 mod-2 class under killing every b generator.

    Words using a b letter die; pure a-words survive and form the Lyndon basis
    of the free Lie algebra on the a generators.
    """
    ctx = get_context(genus, 3)
    basis = ctx.lyndon_basis(3)
    abasis = _a_quotient_basis(genus)
    aindex = {w: i for i, w in enumerate(abasis)}
    out = 0
    for i, w in enumerate(basis):
        if (bits >> i) & 1 and w in aindex:
            out ^= 1 << aindex[w]
    return out


# --- quotients for the closed surface ---------------------------------------

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
    """Invariant factors of the full degree-4 quotient, all components combined."""
    out = []
    for md in all_multidegrees(genus, 6):
        out.extend(d for d in lcst_component_diagonal(genus, md))
    return sorted(out)


@lru_cache(maxsize=None)
def odbar_subspace(genus, degree):
    """RREF data of the subspace of H tensor L_{degree+1} that dies in the
    closed-surface derivation quotient: H tensor <<omega>> plus the inner part
    omega tensor L_degree pushed through the bracket."""
    d = degree
    ctx = get_context(genus, d + 1)
    basis = []
    for h in range(1, 2 * genus + 1):
        for w in ctx.lyndon_basis(d + 1):
            basis.append((h, w))
    index = {k: i for i, k in enumerate(basis)}
    rows = []

    def add_elt(terms):
        row = [Fraction(0)] * len(basis)
        for k, c in terms.items():
            row[index[k]] = c
        rows.append(row)

    for h in range(1, 2 * genus + 1):
        for x in ideal_omega_component(ctx, d + 1):
            add_elt(_tensor_letter(h, x))
    ctx_low = get_context(genus, d)
    for w in ctx_low.lyndon_basis(d):
        y = ctx.monomial(w)
        terms = {}
        for i in range(1, genus + 1):
            ai, bi = ctx.generator(i), ctx.generator(genus + i)
            t_add_into(terms, _tensor_letter(i, bi.bracket(y)))
            t_add_into(terms, _tensor_letter(genus + i, ai.bracket(y)), -1)
        add_elt(terms)
    reduced, pivots = rref(rows)
    return basis, reduced, pivots


def odbar_reduce(v):
    """Canonical representative of a derivation element in the closed-surface
    quotient (rational coefficients)."""
    basis, reduced, pivots = odbar_subspace(v.genus, v.degree)
    return v._like(reduce_mod_rowspace(v.terms, basis, reduced, pivots))
