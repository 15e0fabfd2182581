"""The mod-2 symplectic module structure of degree 3: the action of Sp(H) on
L_3 tensor GF(2), the contraction to H tensor GF(2), and the orbit-span
computation identifying its kernel.

Vectors over GF(2) are bit-packed ints.  An element of L_3 mod 2 is a bitmask
over the degree-3 Lyndon basis; an element of H mod 2 is a bitmask over the
2g generator letters.  Signs are dropped throughout: everything is mod 2.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_linalg import gf2_apply, gf2_kernel, gf2_span_closure
from .lie import get_context, witt_rank


def _omega2(genus, x, y):
    """Mod-2 intersection pairing on letters."""
    return 1 if abs(x - y) == genus else 0


class SpTransformation:
    """GF(2) symplectic map given by the images of the 2g basis letters.

    images[i-1] is the bitmask of the image of letter i.  Construction
    checks that there are 2g images, that each is a mask over the 2g letters
    and that the mod-2 pairing is preserved.
    """

    __slots__ = ("genus", "images")

    def __init__(self, genus, images):
        self.genus = genus
        self.images = tuple(images)
        n = 2 * genus
        if len(self.images) != n:
            raise ValueError(f"map needs {n} images, got {len(self.images)}")
        for mask in self.images:
            if mask >> n:
                raise ValueError(f"image {mask:#b} is not a mask over the "
                                 f"{n} letters")
        for x in range(1, n + 1):
            for y in range(x + 1, n + 1):
                if self._pair(self.images[x - 1], self.images[y - 1]) != \
                        _omega2(genus, x, y):
                    raise ValueError("map is not symplectic mod 2")

    def _pair(self, mask_x, mask_y):
        total = 0
        for p in _bits(mask_x):
            for q in _bits(mask_y):
                total ^= _omega2(self.genus, p, q)
        return total

    def __eq__(self, other):
        return (isinstance(other, SpTransformation)
                and (self.genus, self.images) == (other.genus, other.images))

    def __hash__(self):
        return hash((self.genus, self.images))

    def __repr__(self):
        return f"SpTransformation({self.genus}, {list(self.images)})"


def _bits(mask):
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _mask(letters):
    m = 0
    for letter in letters:
        m ^= 1 << (letter - 1)
    return m


def transvection(genus, letters):
    """T_x for x the sum of the given letters: h |-> h + omega(x, h) x."""
    x = _mask(letters)
    images = []
    for h in range(1, 2 * genus + 1):
        w = 0
        for p in _bits(x):
            w ^= _omega2(genus, p, h)
        images.append((1 << (h - 1)) ^ (x if w else 0))
    return SpTransformation(genus, images)


# --- the action on L_3 mod 2 -------------------------------------------------

@lru_cache(maxsize=None)
def _l3_words(genus):
    return get_context(genus, 3).lyndon_basis(3)


@lru_cache(maxsize=None)
def _l3_index(genus):
    return {w: i for i, w in enumerate(_l3_words(genus))}


def l3_mod2_bits(x):
    """An integral degree-3 Lie element as a bitmask over the Lyndon basis of
    L_3, mod 2."""
    index = _l3_index(x.ctx.genus)
    bits = 0
    for w, c in x.terms.items():
        if c.denominator != 1:
            raise ValueError(f"coefficient {c} of {w} is not an integer")
        if c.numerator % 2:
            bits ^= 1 << index[w]
    return bits


@lru_cache(maxsize=None)
def tree_mod2_bits(genus, tree):
    """A degree-3 bracket tree with generator leaves in L_3 mod 2."""
    # This cache already holds every whole tree, so only the two halves go
    # through the memo of from_tree.
    ctx = get_context(genus, 3)
    left, right = tree
    return l3_mod2_bits(ctx.from_tree(left).bracket(ctx.from_tree(right)))


@lru_cache(maxsize=None)
def action_matrix(transformation):
    """Basis-image list of the transformation acting on L_3 mod 2."""
    g = transformation.genus
    ctx = get_context(g, 3)
    images = transformation.images
    out = []
    for w in _l3_words(g):
        left_normed = isinstance(ctx.bracketing(w)[0], tuple)
        acc = 0
        for x in _bits(images[w[0] - 1]):
            for y in _bits(images[w[1] - 1]):
                for z in _bits(images[w[2] - 1]):
                    tree = ((x, y), z) if left_normed else (x, (y, z))
                    acc ^= tree_mod2_bits(g, tree)
        out.append(acc)
    return tuple(out)


# --- the contraction and its kernel ------------------------------------------

@lru_cache(maxsize=None)
def _stigma_matrix(genus):
    """Images of the L_3 basis under [[a,b],c] |-> w(b,c) a + w(a,c) b."""
    out = []
    for w in _l3_words(genus):
        tree = get_context(genus, 3).bracketing(w)
        if isinstance(tree[0], tuple):
            triples = [tree[0] + (tree[1],)]
        else:
            # [x,[y,z]] = [[x,y],z] + [[x,z],y] mod 2 (Jacobi; signs drop)
            x, (y, z) = tree
            triples = [(x, y, z), (x, z, y)]
        acc = 0
        for (a, b, c) in triples:
            if _omega2(genus, b, c):
                acc ^= 1 << (a - 1)
            if _omega2(genus, a, c):
                acc ^= 1 << (b - 1)
        out.append(acc)
    return tuple(out)


def stigma(genus, vec):
    """The splitting contraction L_3 mod 2 -> H mod 2."""
    return gf2_apply(_stigma_matrix(genus), vec)


def omega_bracket_bits(genus, h):
    """[omega, h] in L_3 mod 2, for a generator letter h."""
    ctx = get_context(genus, 3)
    return l3_mod2_bits(ctx.omega().bracket(ctx.generator(h)))


def stigma_kernel(genus):
    return gf2_kernel(_stigma_matrix(genus), len(_l3_words(genus)), 2 * genus)


def verify_ses(genus):
    """Check the split exact sequence: the contraction retracts [omega, -] and
    its kernel has corank 2g.  Returns (ok, dim_kernel)."""
    n = 2 * genus
    ok = all(stigma(genus, omega_bracket_bits(genus, h)) == 1 << (h - 1)
             for h in range(1, n + 1))
    ker = stigma_kernel(genus)
    expected = witt_rank(n, 3) - n
    return ok and ker.rank == expected, ker.rank


def standard_generators(genus):
    """The transvections along the classes of the 2g+1 Humphries curves: the
    chain a_1, b_1, a_1 + a_2, b_2, ..., a_{g-1} + a_g, b_g, and a_2 when
    g >= 2.

    The twists along these curves generate the mapping class group
    (Humphries, LNM 722, 1979; Farb-Margalit, A Primer on Mapping Class
    Groups, section 4.4).  A twist acts on homology as the transvection along
    its curve's class, and the mapping class group maps onto Sp(2g, Z/2), so
    these transvections generate Sp(2g, Z/2)."""
    g = genus
    classes = [(1,), (g + 1,)]
    for i in range(2, g + 1):
        classes += [(i - 1, i), (g + i,)]
    if g >= 2:
        classes.append((2,))
    return [transvection(g, c) for c in classes]


def orbit_span(genus, seed_bits):
    """Smallest subspace of L_3 mod 2 containing the seed and stable under the
    standard generators.  The span is checked to lie inside the kernel of the
    contraction (it must, by equivariance, when the seed does)."""
    actions = [action_matrix(t) for t in standard_generators(genus)]
    span = gf2_span_closure([seed_bits], actions, len(_l3_words(genus)))
    if any(stigma(genus, row) for row in span.rows):
        raise AssertionError("orbit left the contraction kernel")
    return span


def verify_kernel_lemma(genus):
    """Whether the Sp-orbit span of [[a_1,a_2],a_3] is the whole contraction
    kernel.  Returns (ok, span_dim, kernel_dim).  Needs genus >= 3."""
    if genus < 3:
        raise ValueError("the orbit-span identification needs genus >= 3")
    seed = tree_mod2_bits(genus, ((1, 2), 3))
    span = orbit_span(genus, seed)
    ker = stigma_kernel(genus)
    return span == ker, span.rank, ker.rank


def lower_bound_exponents(genus):
    """Exponents of the two lower bounds from Witt ranks: (bordered, closed).

    bordered = rk L_3(H) - rk H, which should equal (8/3)(g^3 - g)
    closed   = rk L_3(A) - rk A, which should equal (1/3)(g^3 - 4g)
    """
    if genus < 2:
        raise ValueError("the lower bounds need genus >= 2")
    bordered = witt_rank(2 * genus, 3) - 2 * genus
    closed = witt_rank(genus, 3) - genus
    return bordered, closed
