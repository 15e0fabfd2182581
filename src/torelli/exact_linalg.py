"""Exact linear algebra over two rings, Z and GF(2): integer lattices
(HNF/SNF) and bit-packed GF(2) subspaces answer every engine question, and a
rank over Q is the rank over Z of the rows cleared of denominators.
Everything is arbitrary precision, with no floating point.  Lattices and
row-reduced forms are returned as immutable tuples and the functions are
pure; a Mod2Subspace is the one mutable object, growing by add.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import ne


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


def _combine(row, vec, lead, cols):
    """One xgcd step on columns lead..cols-1: afterwards row[lead] is the gcd
    of the two old leads and vec[lead] is 0.  Exact division when it can."""
    a, b = row[lead], vec[lead]
    if b % a == 0:
        q = b // a
        for c in range(lead, cols):
            vec[c] -= q * row[c]
    else:
        x, y, g = xgcd(a, b)
        ag, bg = a // g, b // g
        for c in range(lead, cols):
            ra, rb = row[c], vec[c]
            row[c] = x * ra + y * rb
            vec[c] = -bg * ra + ag * rb


class _RowAccumulator:
    """Incremental row-echelon basis over Z.

    Rows are kept echelonized (strictly increasing pivot columns) by xgcd
    combinations, which keeps entries from blowing up the way naive
    fraction-free elimination does.  Each row has width pivoted columns
    followed by `carried` columns that take part in every row operation but
    are never pivoted (e.g. the input-row combination that produced it).
    """

    def __init__(self, width, rows=(), carried=0):
        self.width = width
        self.cols = width + carried
        self.rows = []        # echelon rows, pivot columns increasing
        self.pivots = []      # pivot column of each row
        for row in rows:
            self.add(row)

    def add(self, vec):
        if len(vec) != self.cols:
            raise DimensionMismatch(f"row width {len(vec)} != {self.cols}")
        vec = list(vec)
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
                return
            _combine(self.rows[j], vec, lead, self.cols)

    def normalize(self):
        """Flip pivots positive and reduce entries above each pivot into [0, pivot).

        Pivot columns are processed left to right: a later row has zeros in all
        earlier pivot columns, so already-normalized columns stay normalized.
        """
        for i in range(len(self.rows)):
            if self.rows[i][self.pivots[i]] < 0:
                self.rows[i] = [-v for v in self.rows[i]]
        for i in range(len(self.rows)):
            p = self.pivots[i]
            pv = self.rows[i][p]
            for k in range(i):
                q = self.rows[k][p] // pv
                if q:
                    for c in range(p, self.cols):
                        self.rows[k][c] -= q * self.rows[i][c]


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
        """True iff vec (integer or rational entries) is an integer
        combination of the basis rows."""
        return self.reduce(vec) is not None

    def reduce(self, vec):
        """Coordinates of vec in the basis, or None if vec is outside.

        Entries may be Fractions: `%` tests each pivot quotient for
        integrality, and a fractional entry left over is nonzero.
        """
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


def hnf(matrix, ambient_dim=None):
    """Hermite normal form basis of the row space of an integer matrix.

    Deterministic: depends only on the row space.  An empty matrix (or one of
    zero rows) yields the empty lattice; ambient_dim is then required.
    """
    matrix = list(matrix)
    if ambient_dim is None:
        if not matrix:
            raise ValueError("ambient_dim required for an empty matrix")
        ambient_dim = len(matrix[0])
    acc = _RowAccumulator(ambient_dim, matrix)
    acc.normalize()
    return IntegerLattice(ambient_dim,
                          tuple(tuple(r) for r in acc.rows),
                          tuple(acc.pivots))


def solve_integer_combination(rows, target, width=None):
    """Integer x with sum_i x[i]*rows[i] == target, or None.

    The solution is not unique when the rows are dependent; any valid one is
    returned.  Used to present lattice vectors in terms of a generating set.
    """
    n = len(rows)
    if width is None:
        width = len(rows[0]) if rows else len(target)
    # Each row carries the identity tag of its index; an echelon row's tag
    # is then the combination of input rows that produced it.
    tagged = (tuple(row) + (0,) * i + (1,) + (0,) * (n - i - 1)
              for i, row in enumerate(rows))
    acc = _RowAccumulator(width, tagged, carried=n)
    acc.normalize()
    lat = IntegerLattice(width, tuple(r[:width] for r in acc.rows),
                         tuple(acc.pivots))
    coords = lat.reduce(target)
    if coords is None:
        return None
    combo = [0] * n
    for q, r in zip(coords, acc.rows):
        if q:
            for c in range(n):
                combo[c] += q * r[width + c]
    return combo


def snf_diagonal(matrix):
    """Diagonal of the Smith normal form: d1 | d2 | ..., zeros trailing.

    Alternates row and column echelon forms until every row has a single
    nonzero entry, then turns that diagonal into a divisibility chain.  An
    empty matrix gives [].
    """
    m = [list(r) for r in matrix]
    if not m or not m[0]:
        return []
    size = min(len(m), len(m[0]))
    while True:
        acc = _RowAccumulator(len(m[0]), m)
        acc.normalize()
        m = acc.rows
        if all(sum(1 for v in row if v) == 1 for row in m):
            break
        m = [list(col) for col in zip(*m)]
    diag = [row[p] for row, p in zip(m, acc.pivots)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag + [0] * (size - len(diag))


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


def rational_rank(rows):
    """Rank over Q: the rank over Z of the rows cleared of denominators."""
    rows = list(rows)
    acc = _RowAccumulator(len(rows[0]) if rows else 0)
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        acc.add([v.numerator * (den // v.denominator) for v in row])
    return len(acc.rows)


# --- rational row reduction ---------------------------------------------
# No engine path eliminates over Q: rref and solve_rational_combination stay
# only as benchmark tracer targets and for their own unit tests.

def rref(rows):
    """Reduced row echelon form over Q.  Returns (rows, pivot_cols) as tuples."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise DimensionMismatch("rows of unequal width")
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


def solve_rational_combination(rows, target):
    """Rational x with sum_i x[i]*rows[i] == target, or None."""
    rows = [list(r) for r in rows]
    if not rows:
        return None if any(target) else []
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(target) != width:
        raise DimensionMismatch(f"rows and target must have width {width}")
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


# --- GF(2), bit-packed ----------------------------------------------------

class Mod2Subspace:
    """Subspace of GF(2)^n with rows bit-packed into ints.

    Bit i of a row is coordinate i, and the pivot of a row is its lowest set
    bit.  Rows have distinct pivots but may hold other rows' pivot bits
    (semi-echelon form), kept in a pivot -> row map and a pivot mask.  A
    vector reduces by XOR-ing in the row of the lowest pivot bit it holds
    until it holds none; the rest goes in with no back-elimination.  `rows`
    reads out the canonical RREF, which has the same pivots, and keeps it.
    """

    __slots__ = ("ambient_dim", "_row_of", "_pivot_mask")

    def __init__(self, ambient_dim, rows=()):
        self.ambient_dim = ambient_dim
        self._row_of, self._pivot_mask = {}, 0
        for r in rows:
            self._insert(r)

    @property
    def pivots(self):
        return sorted(self._row_of)

    @property
    def rows(self):
        """The RREF rows by increasing pivot, stored for the next read: from
        the highest pivot down, each row XORs in the reduced rows of the
        other pivot bits it holds, which meet no pivot bit but their own."""
        row_of = self._row_of
        for p in sorted(row_of, reverse=True):
            row = row_of[p]
            hit = row & self._pivot_mask ^ 1 << p
            while hit:
                low = hit & -hit
                row ^= row_of[low.bit_length() - 1]
                hit ^= low
            row_of[p] = row
        return [row_of[p] for p in sorted(row_of)]

    @property
    def rank(self):
        return len(self._row_of)

    def _reduce(self, vec):
        if vec >> self.ambient_dim:
            raise DimensionMismatch("vector exceeds ambient dimension")
        hit = vec & self._pivot_mask
        while hit:
            vec ^= self._row_of[(hit & -hit).bit_length() - 1]
            hit = vec & self._pivot_mask
        return vec

    def _insert(self, vec):
        """Reduce vec, store the rest as a row and return it (0 if none)."""
        vec = self._reduce(vec)
        if vec:
            low = vec & -vec
            self._row_of[low.bit_length() - 1] = vec
            self._pivot_mask |= low
        return vec

    def add(self, vec):
        """Insert a vector (int bitmask); returns True if the rank grew."""
        return bool(self._insert(vec))

    def contains(self, vec):
        return self._reduce(vec) == 0

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
    """Kernel of the map basis i -> images[i] as a Mod2Subspace of the domain.

    The graph vectors image(p) | e_p << codomain_dim go in from the top p
    down.  J, the p whose image is independent of those above, has at most
    codomain_dim members; any other p reduces to the kernel row
    e_p + sum c_j e_j over j in J above p.  These are the RREF rows, stored
    from the highest pivot down: O(ambient_dim * codomain_dim) XORs.
    """
    graph = Mod2Subspace(ambient_dim + codomain_dim)
    ker = Mod2Subspace(ambient_dim)
    for p in range(ambient_dim - 1, -1, -1):
        if images[p] >> codomain_dim:
            raise DimensionMismatch("image exceeds codomain dimension")
        vec = graph._insert(images[p] | 1 << (codomain_dim + p))
        if not vec & ((1 << codomain_dim) - 1):
            ker._insert(vec >> codomain_dim)
    return ker


def gf2_span_closure(seeds, actions, ambient_dim):
    """Smallest subspace containing the seeds and closed under the actions.

    actions are GF(2)-linear maps given as basis-image lists.  Worklist
    fixed-point iteration, breadth first; termination by rank monotonicity.

    Each vector v taken from the worklist already lies in the span, so T(v)
    does exactly when the moved part N(v) = T(v) - v does.  T fixes the
    basis vectors outside its moved mask, so N(v) = T(u) - u with u the part
    of v on that mask.  Returns the span as it grew, in semi-echelon form.
    """
    units = [1 << i for i in range(ambient_dim)]
    moved = []
    for act in actions:
        if len(act) != ambient_dim:
            raise DimensionMismatch("action is not a map of the ambient space")
        # one pass finds the moved basis vectors; an image equal to its unit
        # fits, so only the moved images need the width check
        mask = 0
        for i in compress(range(ambient_dim), map(ne, act, units)):
            if act[i] >> ambient_dim:
                raise DimensionMismatch("action is not a map of the ambient "
                                        "space")
            mask |= units[i]
        moved.append((act, mask))
    del units  # as large as a full span: not kept while the span grows
    span = Mod2Subspace(ambient_dim)
    work = [w for w in map(span._insert, seeds) if w]
    for v in work:  # the loop also visits the rows appended in it
        for act, mask in moved:
            u = v & mask
            if u:
                w = span._insert(gf2_apply(act, u) ^ u)
                if w:
                    work.append(w)
    return span
