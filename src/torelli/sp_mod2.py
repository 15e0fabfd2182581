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
    asserts that the mod-2 pairing is preserved.
    """

    __slots__ = ("genus", "images", "name")

    def __init__(self, genus, images, name=""):
        self.genus = genus
        self.images = tuple(images)
        self.name = name
        n = 2 * genus
        assert len(self.images) == n
        for x in range(1, n + 1):
            for y in range(x + 1, n + 1):
                if self._pair(self.images[x - 1], self.images[y - 1]) != \
                        _omega2(genus, x, y):
                    raise ValueError(f"{name or 'map'} is not symplectic mod 2")

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
        return f"<Sp {self.name or hex(hash(self.images))}>"


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


def transvection(genus, letters, name=""):
    """T_x for x the sum of the given letters: h |-> h + omega(x, h) x."""
    x = _mask(letters)
    images = []
    for h in range(1, 2 * genus + 1):
        w = 0
        for p in _bits(x):
            w ^= _omega2(genus, p, h)
        images.append((1 << (h - 1)) ^ (x if w else 0))
    return SpTransformation(genus, images, name or f"T{letters}")


def swap_handles(genus, r, s):
    """E_rs: exchange the r-th and s-th handle pairs."""
    images = []
    for h in range(1, 2 * genus + 1):
        i = h if h <= genus else h - genus
        if i == r:
            j = s
        elif i == s:
            j = r
        else:
            j = i
        images.append(1 << ((j if h <= genus else j + genus) - 1))
    return SpTransformation(genus, images, f"E{r}{s}")


def handle_rotation(genus, r):
    """F_r: swap a_r and b_r (the sign of the integral version is invisible mod 2)."""
    images = []
    for h in range(1, 2 * genus + 1):
        if h == r:
            images.append(1 << (r + genus - 1))
        elif h == r + genus:
            images.append(1 << (r - 1))
        else:
            images.append(1 << (h - 1))
    return SpTransformation(genus, images, f"F{r}")


def handle_shear(genus, i, j):
    """G_ij: a_i -> a_i + a_j, b_j -> b_i + b_j, the other letters fixed mod 2."""
    assert i != j
    images = []
    for h in range(1, 2 * genus + 1):
        m = 1 << (h - 1)
        if h == i:
            m ^= 1 << (j - 1)
        elif h == j + genus:
            m ^= 1 << (i + genus - 1)
        images.append(m)
    return SpTransformation(genus, images, f"G{i}{j}")


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
    return l3_mod2_bits(get_context(genus, 3).from_tree(tree))


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
    """The transformations used in the orbit-span computation: transvections
    at the basis letters and at b_1, b_2, a_2 + a_3, all handle swaps,
    rotations and shears."""
    g = genus
    gens = [transvection(g, (h,)) for h in range(1, 2 * g + 1)]
    gens.append(transvection(g, (g + 1,), "Tb1"))
    if g >= 2:
        gens.append(transvection(g, (g + 2,), "Tb2"))
    if g >= 3:
        gens.append(transvection(g, (2, 3), "Ta2+a3"))
    for r in range(1, g + 1):
        for s in range(r + 1, g + 1):
            gens.append(swap_handles(g, r, s))
    for r in range(1, g + 1):
        gens.append(handle_rotation(g, r))
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            if i != j:
                gens.append(handle_shear(g, i, j))
    return gens


def orbit_span(genus, seed_bits):
    """Smallest subspace of L_3 mod 2 containing the seed and stable under the
    standard generators.  Every inserted vector is checked to stay inside the
    kernel of the contraction (it must, by equivariance, when the seed
    does)."""
    actions = [action_matrix(t) for t in standard_generators(genus)]

    def guard(vec):
        if stigma(genus, vec):
            raise AssertionError("orbit left the contraction kernel")
    return gf2_span_closure([seed_bits], actions, len(_l3_words(genus)),
                            guard=guard)


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
