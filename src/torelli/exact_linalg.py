"""Exact linear algebra: integer lattices (HNF/SNF), rational row reduction,
and bit-packed GF(2) subspaces.

Everything is arbitrary precision: integer entries are Python ints, rational
entries are fractions.Fraction.  No floating point anywhere.  All returned
objects are immutable (tuples) and safe to share between threads; functions
are pure.
"""

from __future__ import annotations

from fractions import Fraction


class DimensionMismatch(ValueError):
    pass


def xgcd(a, b):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 for (a,b) != (0,0)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class _RowAccumulator:
    """Incremental row-echelon basis over Z with optional coefficient tracking.

    Rows are kept echelonized (strictly increasing pivot columns) by xgcd
    combinations, which keeps entries from blowing up the way naive
    fraction-free elimination does.  If tags are supplied, every basis row
    carries the integer combination of input rows that produced it.
    """

    def __init__(self, width, track=False):
        self.width = width
        self.rows = []        # echelon rows, pivot columns increasing
        self.pivots = []      # pivot column of each row
        self.tags = []        # coefficient vector per row (if track)
        self.track = track

    def add(self, vec, tag=None):
        if len(vec) != self.width:
            raise DimensionMismatch(f"row width {len(vec)} != {self.width}")
        vec = list(vec)
        tag = list(tag) if self.track else None
        j = 0
        while True:
            lead = next((c for c in range(self.width) if vec[c]), None)
            if lead is None:
                return
            while j < len(self.pivots) and self.pivots[j] < lead:
                j += 1
            if j == len(self.pivots) or self.pivots[j] > lead:
                self.rows.insert(j, vec)
                self.pivots.insert(j, lead)
                if self.track:
                    self.tags.insert(j, tag)
                return
            row = self.rows[j]
            a, b = row[lead], vec[lead]
            if b % a == 0:
                q = b // a
                for c in range(lead, self.width):
                    vec[c] -= q * row[c]
                if self.track:
                    rtag = self.tags[j]
                    for c in range(len(tag)):
                        tag[c] -= q * rtag[c]
            else:
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                for c in range(lead, self.width):
                    ra, rb = row[c], vec[c]
                    row[c] = x * ra + y * rb
                    vec[c] = -bg * ra + ag * rb
                if self.track:
                    rtag = self.tags[j]
                    for c in range(len(tag)):
                        ta, tb = rtag[c], tag[c]
                        rtag[c] = x * ta + y * tb
                        tag[c] = -bg * ta + ag * tb

    def normalize(self):
        """Flip pivots positive and reduce entries above each pivot into [0, pivot).

        Pivot columns are processed left to right: a later row has zeros in all
        earlier pivot columns, so already-normalized columns stay normalized.
        """
        for i in range(len(self.rows)):
            if self.rows[i][self.pivots[i]] < 0:
                self.rows[i] = [-v for v in self.rows[i]]
                if self.track:
                    self.tags[i] = [-v for v in self.tags[i]]
        for i in range(len(self.rows)):
            p = self.pivots[i]
            pv = self.rows[i][p]
            for k in range(i):
                q = self.rows[k][p] // pv
                if q:
                    for c in range(p, self.width):
                        self.rows[k][c] -= q * self.rows[i][c]
                    if self.track:
                        for c in range(len(self.tags[k])):
                            self.tags[k][c] -= q * self.tags[i][c]


class IntegerLattice:
    """A sublattice of Z^n, stored as its Hermite normal form basis.

    rows: tuple of tuples, echelon with positive pivots, entries above each
    pivot reduced into [0, pivot).  Construct via hnf().
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, rows, pivots):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @property
    def rank(self):
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, IntegerLattice)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"IntegerLattice(dim={self.ambient_dim}, rank={self.rank})"

    def contains(self, vec):
        """True iff vec is an integer combination of the basis rows."""
        return self.reduce(vec) is not None

    def reduce(self, vec):
        """Coordinates of vec in the HNF basis, or None if vec is outside."""
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector dim {len(vec)} != ambient {self.ambient_dim}")
        vec = list(vec)
        coords = [0] * len(self.rows)
        for i, p in enumerate(self.pivots):
            for c in range(p):
                if vec[c]:
                    return None
            if vec[p] % self.rows[i][p] != 0:
                return None
            q = vec[p] // self.rows[i][p]
            coords[i] = q
            if q:
                for c in range(p, self.ambient_dim):
                    vec[c] -= q * self.rows[i][c]
        if any(vec):
            return None
        return coords

    def scaled(self, k):
        """The lattice k * self (k > 0)."""
        assert k > 0
        return IntegerLattice(self.ambient_dim,
                              tuple(tuple(k * v for v in row) for row in self.rows),
                              self.pivots)


def hnf(matrix, ambient_dim=None):
    """Hermite normal form basis of the row space of an integer matrix.

    Deterministic: depends only on the row space.  An empty matrix (or one of
    zero rows) yields the empty lattice; ambient_dim is then required.
    """
    matrix = [list(r) for r in matrix]
    if ambient_dim is None:
        if not matrix:
            raise ValueError("ambient_dim required for an empty matrix")
        ambient_dim = len(matrix[0])
    acc = _RowAccumulator(ambient_dim)
    for row in matrix:
        acc.add(row)
    acc.normalize()
    return IntegerLattice(ambient_dim,
                          tuple(tuple(r) for r in acc.rows),
                          tuple(acc.pivots))


def solve_integer_combination(rows, target, width=None):
    """Integer x with sum_i x[i]*rows[i] == target, or None.

    The solution is not unique when the rows are dependent; any valid one is
    returned.  Used to present lattice vectors in terms of a generating set.
    """
    rows = [tuple(r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else len(target)
    acc = _RowAccumulator(width, track=True)
    n = len(rows)
    for i, row in enumerate(rows):
        tag = [0] * n
        tag[i] = 1
        acc.add(row, tag)
    # Reduce the target against the echelon basis, tracking multipliers.
    vec = list(target)
    if len(vec) != width:
        raise DimensionMismatch(f"target dim {len(vec)} != {width}")
    combo = [0] * n
    for i, p in enumerate(acc.pivots):
        if any(vec[c] for c in range(p)):
            return None
        if vec[p] == 0:
            continue
        if vec[p] % acc.rows[i][p] != 0:
            return None
        q = vec[p] // acc.rows[i][p]
        for c in range(p, width):
            vec[c] -= q * acc.rows[i][c]
        for c in range(n):
            combo[c] += q * acc.tags[i][c]
    if any(vec):
        return None
    return combo


def snf_diagonal(matrix):
    """Diagonal of the Smith normal form: d1 | d2 | ..., zeros trailing.

    Input rows may be ragged-free lists; an empty matrix gives [].
    """
    m = [list(r) for r in matrix]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    diag = []
    top = 0
    while top < min(nrows, ncols):
        # Find a nonzero entry of minimal absolute value to pivot on.
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = m[i][j]
                if v and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[top], row[j0] = row[j0], row[top]
        while True:
            # Clear the pivot column by gcd steps.
            dirty = False
            for i in range(top + 1, nrows):
                if m[i][top]:
                    a, b = m[top][top], m[i][top]
                    if b % a == 0:
                        q = b // a
                        for c in range(top, ncols):
                            m[i][c] -= q * m[top][c]
                    else:
                        x, y, g = xgcd(a, b)
                        ag, bg = a // g, b // g
                        for c in range(top, ncols):
                            ra, rb = m[top][c], m[i][c]
                            m[top][c] = x * ra + y * rb
                            m[i][c] = -bg * ra + ag * rb
                        dirty = True
            # Clear the pivot row by gcd steps on columns.
            for j in range(top + 1, ncols):
                if m[top][j]:
                    a, b = m[top][top], m[top][j]
                    if b % a == 0:
                        q = b // a
                        for r in range(top, nrows):
                            m[r][j] -= q * m[r][top]
                    else:
                        x, y, g = xgcd(a, b)
                        ag, bg = a // g, b // g
                        for r in range(top, nrows):
                            ra, rb = m[r][top], m[r][j]
                            m[r][top] = x * ra + y * rb
                            m[r][j] = -bg * ra + ag * rb
                        dirty = True
            if dirty:
                continue
            if any(m[i][top] for i in range(top + 1, nrows)):
                continue
            # Enforce divisibility: fold in any entry the pivot misses.
            offender = None
            p = m[top][top]
            for i in range(top + 1, nrows):
                for j in range(top + 1, ncols):
                    if m[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for c in range(top, ncols):
                m[top][c] += m[offender][c]
        diag.append(abs(m[top][top]))
        top += 1
    diag.extend([0] * (min(nrows, ncols) - len(diag)))
    return diag


def quotient_diagonal(sub_rows, super_rows, width):
    """Invariant factors of (lattice spanned by super_rows)/(by sub_rows).

    sub must be contained in super and of the same rank; raises otherwise.
    """
    sup = hnf(super_rows, width)
    coords = []
    for row in sub_rows:
        c = sup.reduce(row)
        if c is None:
            raise ValueError("sub lattice not contained in super lattice")
        coords.append(c)
    if not coords:
        if sup.rank:
            raise ValueError("rank deficit: sub lattice is zero")
        return []
    diag = snf_diagonal(coords)
    if 0 in diag or len(diag) < sup.rank:
        raise ValueError("rank deficit between sub and super lattice")
    return diag


# --- rational row reduction ---------------------------------------------

def rref(rows):
    """Reduced row echelon form over Q.  Returns (rows, pivot_cols) as tuples."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    rows_out = tuple(tuple(row) for row in m[:r])
    return rows_out, tuple(pivots)


def rational_rank(rows):
    return len(rref(rows)[0])


def solve_rational_combination(rows, target):
    """Rational x with sum_i x[i]*rows[i] == target, or None."""
    rows = [list(r) for r in rows]
    if not rows:
        return None if any(target) else []
    width = len(rows[0])
    # Row-reduce the augmented system [rows^T | target^T] by columns of rows.
    aug = [[Fraction(rows[i][c]) for i in range(len(rows))] + [Fraction(target[c])]
           for c in range(width)]
    reduced, pivots = rref(aug)
    n = len(rows)
    if n in pivots:
        return None  # inconsistent
    x = [Fraction(0)] * n
    for row, p in zip(reduced, pivots):
        x[p] = row[n]
    return x


def reduce_mod_rowspace(vec, rref_rows, pivots):
    """Canonical representative of vec modulo the row space (given in RREF)."""
    vec = [Fraction(v) for v in vec]
    for row, p in zip(rref_rows, pivots):
        if vec[p]:
            f = vec[p]
            vec = [a - f * b for a, b in zip(vec, row)]
    return tuple(vec)


# --- GF(2), bit-packed ----------------------------------------------------

class Mod2Subspace:
    """Subspace of GF(2)^n with rows bit-packed into ints, kept in RREF.

    Bit i of a row is coordinate i.  Canonical: equal subspaces compare equal.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, rows=()):
        self.ambient_dim = ambient_dim
        self.rows = []
        self.pivots = []
        for r in rows:
            self.add(r)

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Insert a vector (int bitmask); returns True if the rank grew."""
        if vec >> self.ambient_dim:
            raise DimensionMismatch("vector exceeds ambient dimension")
        for row, p in zip(self.rows, self.pivots):
            if (vec >> p) & 1:
                vec ^= row
        if not vec:
            return False
        p = (vec & -vec).bit_length() - 1
        i = next((k for k, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(i, vec)
        self.pivots.insert(i, p)
        for k in range(len(self.rows)):
            if k != i and (self.rows[k] >> p) & 1:
                self.rows[k] ^= vec
        return True

    def contains(self, vec):
        if vec >> self.ambient_dim:
            raise DimensionMismatch("vector exceeds ambient dimension")
        for row, p in zip(self.rows, self.pivots):
            if (vec >> p) & 1:
                vec ^= row
        return vec == 0

    def __eq__(self, other):
        return (isinstance(other, Mod2Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(self.rows)))

    def __repr__(self):
        return f"Mod2Subspace(dim={self.ambient_dim}, rank={self.rank})"


def gf2_apply(images, vec):
    """Apply the GF(2)-linear map sending basis vector i to images[i]."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= images[low.bit_length() - 1]
        vec ^= low
    return out


def gf2_kernel(images, ambient_dim, codomain_dim):
    """Kernel of the map basis i -> images[i] as a Mod2Subspace of the domain."""
    # Row-reduce [image | e_i] pairs; rows with zero image span the kernel.
    aug = []
    for i in range(ambient_dim):
        aug.append((images[i], 1 << i))
    rows = []
    pivots = []
    for img, tag in aug:
        for (rimg, rtag), p in zip(rows, pivots):
            if p is not None and (img >> p) & 1:
                img ^= rimg
                tag ^= rtag
        if img:
            rows.append((img, tag))
            pivots.append((img & -img).bit_length() - 1)
        else:
            rows.append((0, tag))
            pivots.append(None)
    ker = Mod2Subspace(ambient_dim)
    for (img, tag), p in zip(rows, pivots):
        if p is None:
            ker.add(tag)
    return ker


def gf2_span_closure(seeds, actions, ambient_dim, guard=None):
    """Smallest subspace containing the seeds and closed under the actions.

    actions are GF(2)-linear maps given as basis-image lists.  Worklist
    fixed-point iteration; termination by rank monotonicity.  If guard is
    given, it is called on every newly inserted vector (e.g. to check the
    closure never leaves a known invariant subspace).
    """
    for act in actions:
        if len(act) != ambient_dim:
            raise DimensionMismatch("action size != ambient dimension")
    space = Mod2Subspace(ambient_dim)
    work = []
    for s in seeds:
        if guard is not None:
            guard(s)
        if space.add(s):
            work.append(s)
    while work:
        v = work.pop()
        for act in actions:
            w = gf2_apply(act, v)
            if not space.contains(w):
                if guard is not None:
                    guard(w)
                space.add(w)
                work.append(w)
    return space
