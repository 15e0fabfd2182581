"""The mod-2 symplectic module structure of degree 3: the action of Sp(H) on
L_3 tensor GF(2), the contraction to H tensor GF(2), the orbit-span
computation identifying its kernel, and the projection killing the b letters.

Vectors over GF(2) are bit-packed ints, over the 2g letters for H mod 2 and
over the Lyndon basis for L_3 mod 2, each word at a closed-form index.
Signs are dropped throughout: everything is mod 2.

Kernel lemma: at every g >= 3 the Sp(2g, Z/2)-orbit span of [[a_1,a_2],a_3]
is the contraction kernel, by two finite checks, the genus-3 orbit span and
the genus-4 kernel as the sum of its pieces K_S on each handle triple S.
Sp(6, Z/2) on three handles and the handle permutations lie in Sp(2g, Z/2),
so the span holds each K_S.  r_x^j = [[x,a_j],b_j] contracts to x off x's
handle, so a kernel vector v is the sum over its words w of w + the r_x^j,
x in sigma(w) and j a handle w misses, plus pairs r_x^j + r_x^k that
sigma(v) = 0 leaves: each on at most 4 handles, so in the sum of the K_S.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_linalg import gf2_apply, gf2_kernel, gf2_span_closure
from .lie import DegreeCapError, get_context, witt_rank


def _pair(genus, x, y):
    """Mod-2 intersection pairing of two letter masks: the parity of the
    a_i, b_i pairs split between them (a_i is bit i-1, b_i bit g+i-1)."""
    low = (1 << genus) - 1
    return (x & ((y & low) << genus | y >> genus)).bit_count() & 1


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
        for x in range(n):
            for y in range(x + 1, n):
                if _pair(genus, self.images[x], self.images[y]) != \
                        _pair(genus, 1 << x, 1 << y):
                    raise ValueError("map is not symplectic mod 2")

    def __repr__(self):
        return f"SpTransformation({self.genus}, {list(self.images)})"


def _mask(letters):
    m = 0
    for letter in letters:
        m ^= 1 << (letter - 1)
    return m


def transvection(genus, letters):
    """T_x for x the sum of the given letters: h |-> h + omega(x, h) x."""
    x = _mask(letters)
    units = [1 << i for i in range(2 * genus)]
    return SpTransformation(genus, [h ^ x if _pair(genus, x, h) else h
                                    for h in units])


# --- the action on L_3 mod 2 -------------------------------------------------

def _l3_basis(n):
    """The Lyndon words of length 3 on n letters in lex order: the pyz with
    y >= p < z, so (n-q+1)(n-q) of them start with each letter q."""
    return ((p, y, z) for p in range(1, n + 1) for y in range(p, n + 1)
            for z in range(p + 1, n + 1))


def _l3_index(n, w):
    """Position of w = pyz in _l3_basis(n): sum_{k=m+1}^{n-1} k(k+1) words,
    m = n - p, start below p, and m start with each py', y' < y."""
    p, y, z = w
    m = n - p
    return (((n - 1) * n * (n + 1) - m * (m + 1) * (m + 2)) // 3
            + (y - p) * m + z - p - 1)


def l3_mod2_bits(x):
    """An integral degree-3 Lie element as a bitmask over the Lyndon basis of
    L_3, mod 2."""
    n = x.ctx.letters
    bits = 0
    for w, c in x.terms.items():
        if not (len(w) == 3 and 0 < w[0] <= w[1] <= n and w[0] < w[2] <= n):
            raise ValueError(f"{w} is not a degree-3 basis word")
        if c.denominator != 1:
            raise ValueError(f"coefficient {c} of {w} is not an integer")
        if c.numerator % 2:
            bits ^= 1 << _l3_index(n, w)
    return bits


def _bracket3(n, x, y, z):
    """[[x,y],z] mod 2 for letters x, y, z of n.  With p < q the letters of
    x != y it is the word ppq (z = p), pqq (z = q), pqz (p < z < q), zpq
    (z < p), or pqz + pzq (z > q), by Jacobi."""
    if x == y:
        return 0
    p, q = (x, y) if x < y else (y, x)
    if z > q:
        return 1 << _l3_index(n, (p, q, z)) | 1 << _l3_index(n, (p, z, q))
    if z in (p, q):
        return 1 << _l3_index(n, (p, z, q))
    return 1 << _l3_index(n, (p, q, z) if z > p else (z, p, q))


def tree_mod2_bits(genus, tree):
    """A bracket tree ((x,y),z) or (x,(y,z)) on the letters in L_3 mod 2."""
    if isinstance(tree[1], tuple):  # [x,[y,z]] = -[[y,z],x]
        tree = tree[::-1]
    (x, y), z = tree
    if not all(type(c) is int and 1 <= c <= 2 * genus for c in (x, y, z)):
        raise ValueError(f"{tree} is not a tree on the {2 * genus} letters")
    return _bracket3(2 * genus, x, y, z)


@lru_cache(maxsize=None)
def _l3_triples(genus):
    """Each basis word pyz of L_3 as a left-normed triple (a, b, c) mod 2: its
    standard bracketing [[p,y],z] when y >= z, else [p,[y,z]] = -[[y,z],p]."""
    return tuple((p, y, z) if y >= z else (y, z, p)
                 for p, y, z in _l3_basis(2 * genus))


@lru_cache(maxsize=None)
def _l3_units(genus):  # shared by every action matrix
    return tuple(1 << i for i in range(witt_rank(2 * genus, 3)))


def action_matrix(transformation):
    """Basis-image list of the transformation acting on L_3 mod 2."""
    g = transformation.genus
    n = 2 * g
    letters = [[i + 1 for i in range(n) if mask >> i & 1]
               for mask in transformation.images]
    fixed = [m == 1 << i for i, m in enumerate(transformation.images)]
    out = list(_l3_units(g))  # a word on fixed letters keeps its unit row
    for i, (a, b, c) in enumerate(_l3_triples(g)):
        if fixed[a - 1] and fixed[b - 1] and fixed[c - 1]:
            continue
        acc = 0
        for x in letters[a - 1]:
            for y in letters[b - 1]:
                for z in letters[c - 1]:
                    acc ^= _bracket3(n, x, y, z)
        out[i] = acc
    return tuple(out)


# --- the contraction and its kernel ------------------------------------------

@lru_cache(maxsize=None)
def _stigma_matrix(genus):
    """Images of the L_3 basis under [[a,b],c] |-> w(b,c) a + w(a,c) b."""
    out = []
    for triple in _l3_triples(genus):
        a, b, c = (1 << (letter - 1) for letter in triple)
        out.append((a if _pair(genus, b, c) else 0)
                   ^ (b if _pair(genus, a, c) else 0))
    return tuple(out)


def stigma(genus, vec):
    """The splitting contraction L_3 mod 2 -> H mod 2."""
    return gf2_apply(_stigma_matrix(genus), vec)


def omega_bracket_bits(genus, h):
    """[omega, h] in L_3 mod 2, for a generator letter h."""
    ctx = get_context(genus, 3)
    return l3_mod2_bits(ctx.omega().bracket(ctx.generator(h)))


@lru_cache(maxsize=None)
def stigma_kernel(genus):
    """The kernel of the contraction, built once per genus.  The subspace is
    shared: callers must not add to it."""
    return gf2_kernel(_stigma_matrix(genus), witt_rank(2 * genus, 3),
                      2 * genus)


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
    span = gf2_span_closure([seed_bits], actions, witt_rank(2 * genus, 3))
    if any(stigma(genus, row) for row in span.rows):
        raise AssertionError("orbit left the contraction kernel")
    return span


def verify_kernel_lemma(genus):
    """Whether the Sp-orbit span of [[a_1,a_2],a_3] is the whole contraction
    kernel.  Returns (ok, span_dim, kernel_dim).  Needs genus >= 3."""
    if genus < 3:
        raise DegreeCapError("the orbit-span identification needs genus >= 3, "
                             f"got genus {genus}")
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
        raise DegreeCapError("the lower bounds start at genus 2, got genus "
                             f"{genus}")
    bordered = witt_rank(2 * genus, 3) - 2 * genus
    closed = witt_rank(genus, 3) - genus
    return bordered, closed


def project_l3_to_a(genus, bits):
    """Image of an L_3 mod-2 class under killing every b generator.

    Words using a b letter die.  The pure a-words survive in basis order, and
    in that order they are the Lyndon basis of L_3 on the a generators.
    """
    n = 2 * genus
    if bits < 0 or bits >> witt_rank(n, 3):
        raise ValueError(f"{bits:#x} is not in L_3 mod 2 at genus {genus}")
    out = 0
    for k, w in enumerate(_l3_basis(genus)):
        out |= (bits >> _l3_index(n, w) & 1) << k
    return out
