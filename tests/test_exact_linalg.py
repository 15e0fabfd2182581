import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEED, run_python
from torelli.exact_linalg import (DimensionMismatch, IntegerLattice,
                                  Mod2Subspace, gf2_apply, gf2_kernel, gf2_span_closure, hnf,
                                  quotient_diagonal, rational_rank, rref,
                                  snf_diagonal, solve_integer_combination,
                                  solve_rational_combination)

small_matrices = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    min_size=1, max_size=4)


def test_hnf_example():
    lat = hnf([[2, 0], [0, 2], [1, 1]])
    assert lat.rows == ((1, 1), (0, 2))


def test_hnf_identity():
    lat = hnf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert lat.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_hnf_zero_row():
    lat = hnf([[0, 0]])
    assert lat.rows == ()
    assert lat.rank == 0


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_hnf_idempotent(matrix):
    lat = hnf(matrix, ambient_dim=3)
    again = hnf(lat.rows, ambient_dim=3)
    assert lat.rows == again.rows


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_hnf_has_hnf_shape(matrix):
    lat = hnf(matrix, ambient_dim=3)
    for i, p in enumerate(lat.pivots):
        assert lat.rows[i][p] > 0
        assert all(lat.rows[i][c] == 0 for c in range(p))
        for k in range(i):
            assert 0 <= lat.rows[k][p] < lat.rows[i][p]


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_hnf_against_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form
    # sympy's form is column-style: its columns span the rows of matrix.
    h = hermite_normal_form(sympy.Matrix(matrix).T)
    columns = [[int(v) for v in h.col(j)] for j in range(h.cols)]
    assert hnf(matrix, ambient_dim=3) == hnf(columns, ambient_dim=3)


def test_membership_examples():
    lat = hnf([[1, 1], [0, 2]])
    assert lat.contains([1, 1])
    assert not lat.contains([1, 0])
    assert lat.contains([0, 0])


def test_membership_dimension_mismatch():
    lat = hnf([[1, 1], [0, 2]])
    with pytest.raises(DimensionMismatch):
        lat.contains([1, 0, 0])


def test_membership_against_brute_force():
    # Random 4-dimensional instances with entries in [-3, 3]; positives are
    # certified by reconstructing the vector, negatives by exhausting a
    # coefficient window that must contain any witness for these sizes.
    rng = random.Random(1729)
    for _ in range(200):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        lat = hnf(rows, ambient_dim=4)
        coeffs = [rng.randint(-2, 2) for _ in range(3)]
        member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(4)]
        assert lat.contains(member)
        coords = lat.reduce(member)
        rebuilt = [sum(c * r[j] for c, r in zip(coords, lat.rows))
                   for j in range(4)]
        assert rebuilt == member
        probe = [rng.randint(-3, 3) for _ in range(4)]
        if not lat.contains(probe):
            hits = [cs for cs in product(range(-6, 7), repeat=len(lat.rows))
                    if all(sum(c * r[j] for c, r in zip(cs, lat.rows)) == probe[j]
                           for j in range(4))]
            assert not hits


def _cleared_membership(lat, vec):
    """Membership of a rational vector by clearing denominators: q*vec in
    the lattice q*lat."""
    q = 1
    for c in vec:
        q = q * c.denominator // gcd(q, c.denominator)
    scaled = IntegerLattice(lat.ambient_dim,
                            tuple(tuple(q * v for v in row) for row in lat.rows),
                            lat.pivots)
    return scaled.contains([int(c * q) for c in vec])


@settings(max_examples=150, deadline=None)
@given(small_matrices,
       st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.integers(1, 6),
       st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=3))
def test_rational_membership_matches_cleared_denominators(matrix, coeffs,
                                                          den, probe):
    lat = hnf(matrix, ambient_dim=3)
    combo = [Fraction(sum(c * r[j] for c, r in zip(coeffs, matrix)), den)
             for j in range(3)]
    for vec in (combo, probe):
        assert lat.contains(vec) == _cleared_membership(lat, vec)
        coords = lat.reduce(vec)
        if coords is not None:
            assert all(type(c) is int for c in coords)
            assert [sum(c * r[j] for c, r in zip(coords, lat.rows))
                    for j in range(3)] == vec


def test_snf_examples():
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert snf_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert snf_diagonal([[2]]) == [2]
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_divisibility_chain(matrix):
    diag = snf_diagonal(matrix)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_snf_against_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    m = sympy.Matrix(matrix)
    s = smith_normal_form(m)
    expected = sorted(abs(s[i, i]) for i in range(min(s.shape)))
    assert sorted(snf_diagonal(matrix)) == expected


def test_quotient_diagonal():
    assert quotient_diagonal([[2, 0], [0, 2]], [[1, 0], [0, 1]], 2) == [2, 2]
    assert quotient_diagonal([[1, 1], [0, 3]], [[1, 0], [0, 1]], 2) == [1, 3]
    with pytest.raises(ValueError):
        quotient_diagonal([[1, 0]], [[1, 0], [0, 1]], 2)


def test_solve_integer_combination():
    rng = random.Random(1729)
    for _ in range(200):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(4)]
        x = solve_integer_combination(rows, target)
        assert x is not None
        rebuilt = [sum(c * r[j] for c, r in zip(x, rows)) for j in range(4)]
        assert rebuilt == target


def test_solve_integer_combination_no_solution():
    assert solve_integer_combination([[2, 0], [0, 2]], [1, 0]) is None


def test_solve_integer_combination_dependent_and_non_square():
    # rank 1 in Z^2 from three rows, and one row in Z^3
    rows = [[2, 4], [1, 2], [3, 6]]
    x = solve_integer_combination(rows, [5, 10])
    assert [sum(c * r[j] for c, r in zip(x, rows)) for j in range(2)] == [5, 10]
    assert solve_integer_combination(rows, [1, 3]) is None
    assert solve_integer_combination([[1, 2, 3]], [2, 4, 6]) == [2]
    assert solve_integer_combination([[1, 2, 3]], [1, 2, 4]) is None
    rng = random.Random(1729)
    for _ in range(200):
        n_rows, width = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(width)]
                for _ in range(n_rows)]
        rows.append([2 * a - 3 * b for a, b in zip(rows[0], rows[-1])])
        coeffs = [rng.randint(-3, 3) for _ in rows]
        member = [sum(c * r[j] for c, r in zip(coeffs, rows))
                  for j in range(width)]
        probe = [rng.randint(-4, 4) for _ in range(width)]
        lat = hnf(rows)
        for target in (member, probe):
            x = solve_integer_combination(rows, target)
            assert (x is not None) == lat.contains(target)
            if x is not None:
                assert len(x) == len(rows)
                assert [sum(c * r[j] for c, r in zip(x, rows))
                        for j in range(width)] == target


def test_rational_solve():
    rows = [[1, 2, 0], [0, 1, 1]]
    x = solve_rational_combination(rows, [1, 3, 1])
    assert x == [Fraction(1), Fraction(1)]
    assert solve_rational_combination(rows, [0, 0, 1]) is None


def test_rref_ranks():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([]) == 0


def test_rational_routines_refuse_ragged_input():
    with pytest.raises(DimensionMismatch):
        solve_rational_combination([[1, 0], [0, 1]], [1, 1, 5])
    with pytest.raises(DimensionMismatch):
        solve_rational_combination([[1, 0], [0, 1]], [1])
    for rows in ([[1], [0, 1]], [[1, 0], [1]], [[0, 1], [1, 2, 3]]):
        with pytest.raises(DimensionMismatch):
            rational_rank(rows)
        with pytest.raises(DimensionMismatch):
            rref(rows)
        with pytest.raises(DimensionMismatch):
            solve_rational_combination(rows, [1, 1])


def test_rational_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(SEED)
    cases = [[], [[0, 0, 0]], [[Fraction(1, 2), 1], [1, 2]]]
    for _ in range(150):
        width = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-3, 3),
                             Fraction(rng.randint(-4, 4), rng.randint(1, 6))))
                 for _ in range(width)] for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [0] * width)
        if rng.random() < 0.3:  # a rational multiple of an earlier row
            q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([q * v for v in rng.choice(rows)])
        cases.append(rows)
    for rows in cases:
        expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                                  for v in row] for row in rows]).rank()
        assert rational_rank(rows) == expected, rows


# --- GF(2) -------------------------------------------------------------------

def test_mod2_subspace_basic():
    s = Mod2Subspace(4)
    assert s.add(0b0011)
    assert not s.add(0b0011)
    assert s.add(0b0110)
    assert s.contains(0b0101)
    assert not s.contains(0b1000)
    assert s.rank == 2


def test_mod2_subspace_canonical():
    a = Mod2Subspace(3, [0b011, 0b110])
    b = Mod2Subspace(3, [0b101, 0b011])
    assert a == b


def test_mod2_dimension_check():
    s = Mod2Subspace(3)
    with pytest.raises(DimensionMismatch):
        s.add(0b1000)


def test_gf2_closure_examples():
    # identity action fixes the seed line
    identity = tuple(1 << i for i in range(3))
    s = gf2_span_closure([0b001], [identity], 3)
    assert s.rank == 1
    # a cyclic shift generates everything from e1
    shift = (0b010, 0b100, 0b001)
    s = gf2_span_closure([0b001], [shift], 3)
    assert s.rank == 3
    # empty seed
    s = gf2_span_closure([0], [shift], 3)
    assert s.rank == 0


def test_gf2_closure_invariance():
    rng = random.Random(1729)
    for _ in range(50):
        dim = rng.randint(2, 8)
        actions = [tuple(rng.getrandbits(dim) for _ in range(dim))
                   for _ in range(2)]
        seed = rng.getrandbits(dim)
        space = gf2_span_closure([seed], actions, dim)
        for act in actions:
            for row in space.rows:
                assert space.contains(gf2_apply(act, row))


def test_gf2_kernel():
    rng = random.Random(1729)
    for _ in range(50):
        dim, cod = 6, 4
        images = tuple(rng.getrandbits(cod) for _ in range(dim))
        ker = gf2_kernel(images, dim, cod)
        for row in ker.rows:
            assert gf2_apply(images, row) == 0
        image_rank = Mod2Subspace(cod, images).rank
        assert ker.rank == dim - image_rank
        assert ker == Mod2Subspace(dim, ker.rows)  # canonical RREF


def test_gf2_width_checks_survive_optimize():
    # a seed or an action image wider than the ambient space, an action of
    # the wrong length and an image wider than the codomain are refused by
    # explicit raises, so python -O refuses them too
    calls = ["gf2_span_closure([0b1000], [(1, 2, 4)], 3)",
             "gf2_span_closure([0b001], [(1, 2, 0b1000)], 3)",
             "gf2_span_closure([0b001], [(1, 2)], 3)",
             "gf2_kernel((0b01, 0b100, 0b10), 3, 2)"]
    code = ("from torelli.exact_linalg import (DimensionMismatch, gf2_kernel,"
            " gf2_span_closure)\n") + "".join(
        f"try:\n    {call}\nexcept DimensionMismatch:\n    print({i})\n"
        for i, call in enumerate(calls))
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "1", "2", "3"]


def test_gf2_reduce_and_membership():
    space = Mod2Subspace(3, [0b011, 0b110, 0b101])
    assert space.rank == 2
    assert space.contains(0b101)
    assert not space.contains(0b001)


# --- GF(2) against a naive oracle ---------------------------------------------
# The oracle keeps a plain list of generators and eliminates column by column
# on lists of bits; membership is "the rank does not grow".  It shares no code
# with Mod2Subspace.

def _oracle_rref(vectors, dim):
    """Canonical RREF (pivot = lowest coordinate) as (rows, pivots)."""
    pending = [[(v >> i) & 1 for i in range(dim)] for v in vectors]
    basis, pivots = [], []
    for c in range(dim):
        hit = next((r for r in pending if r[c]), None)
        if hit is None:
            continue
        pending = [r for r in pending if r is not hit]
        for r in pending + basis:
            if r[c]:
                r[:] = [x ^ y for x, y in zip(r, hit)]
        basis.append(hit)
        pivots.append(c)
    return [sum(b << i for i, b in enumerate(r)) for r in basis], pivots


class _OracleSubspace:
    def __init__(self, dim, gens=()):
        self.dim = dim
        self.rows, self.pivots = _oracle_rref(gens, dim)

    def contains(self, vec):
        return len(_oracle_rref(self.rows + [vec], self.dim)[0]) == len(self.rows)

    def add(self, vec):
        grew = not self.contains(vec)
        self.rows, self.pivots = _oracle_rref(self.rows + [vec], self.dim)
        return grew


def _oracle_apply(images, vec):
    out = 0
    for i, image in enumerate(images):
        if (vec >> i) & 1:
            out ^= image
    return out


def _oracle_closure(seeds, actions, dim):
    # the plain worklist closure: the full image T(v), then contains, then add
    space, work = _OracleSubspace(dim), []
    for s in seeds:
        if space.add(s):
            work.append(s)
    while work:
        v = work.pop()
        for act in actions:
            w = _oracle_apply(act, v)
            if not space.contains(w):
                space.add(w)
                work.append(w)
    return space.rows, space.pivots


@st.composite
def _gf2_action(draw, dim):
    full = (1 << dim) - 1
    kind = draw(st.sampled_from(["identity", "random", "singular",
                                 "transvection"]))
    if kind == "identity":
        return tuple(1 << i for i in range(dim))
    if kind == "transvection":  # x -> x + <u, x> w moves only the bits of u
        u, w = draw(st.integers(0, full)), draw(st.integers(0, full))
        return tuple(1 << i ^ (w if (u >> i) & 1 else 0) for i in range(dim))
    images = draw(st.lists(st.integers(0, full), min_size=dim, max_size=dim))
    if kind == "singular":  # some basis vectors go to 0
        for i in draw(st.lists(st.integers(0, dim - 1), min_size=1)):
            images[i] = 0
    return tuple(images)


@st.composite
def _gf2_closure_case(draw):
    dim = draw(st.integers(1, 10))
    vector = st.one_of(st.just(0), st.integers(0, (1 << dim) - 1))
    seeds = draw(st.lists(vector, max_size=3))
    actions = draw(st.lists(_gf2_action(dim), max_size=3))
    return dim, seeds, actions, draw(st.lists(vector, max_size=6))


@settings(max_examples=100, deadline=None)
@given(_gf2_closure_case())
def test_gf2_closure_against_naive_oracle(case):
    # the smallest invariant span, not just an invariant one
    dim, seeds, actions, probes = case
    space = gf2_span_closure(seeds, actions, dim)
    rows, pivots = _oracle_closure(seeds, actions, dim)
    assert space.rows == rows
    assert space.pivots == pivots
    assert space.rank == len(rows)
    # the closure returns its span as it grew, in semi-echelon form: later
    # membership tests and insertions must see all of it before any RREF
    # read-out, and the read-out must take the insertions in
    grown = gf2_span_closure(seeds, actions, dim)
    oracle = _OracleSubspace(dim, rows)
    for p in probes:
        assert grown.contains(p) == oracle.contains(p)
        assert grown.add(p) == oracle.add(p)
    _assert_matches_oracle(grown, oracle, probes)


@st.composite
def _gf2_add_case(draw):
    dim = draw(st.integers(1, 10))
    vector = st.one_of(st.just(0), st.integers(0, (1 << dim) - 1))
    return dim, draw(st.lists(vector, max_size=12)), draw(st.lists(vector,
                                                                    max_size=8))


def _assert_matches_oracle(space, oracle, probes):
    assert space.rows == oracle.rows
    assert space.pivots == oracle.pivots
    assert space.rank == len(oracle.rows)
    for p in probes:
        assert space.contains(p) == oracle.contains(p)


@settings(max_examples=100, deadline=None)
@given(_gf2_add_case())
def test_mod2_subspace_against_naive_oracle(case):
    dim, added, probes = case
    space, oracle = Mod2Subspace(dim), _OracleSubspace(dim)
    for v in added:
        assert space.add(v) == oracle.add(v)
        _assert_matches_oracle(space, oracle, probes)
    # canonical: the same span from another generating list is equal
    again = Mod2Subspace(dim, reversed(added))
    assert again == space and hash(again) == hash(space)
    outside = next((p for p in probes if not oracle.contains(p)), None)
    if outside is not None:
        assert Mod2Subspace(dim, added + [outside]) != space


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda dim: st.tuples(
    st.just(dim), st.integers(1, 6).flatmap(lambda cod: st.tuples(
        st.just(cod),
        st.lists(st.integers(0, (1 << cod) - 1), min_size=dim, max_size=dim))),
    st.lists(st.integers(0, (1 << dim) - 1), max_size=6))))
def test_gf2_kernel_subspace_against_naive_oracle(case):
    # gf2_kernel stores its RREF rows from the top pivot down: membership
    # and later insertions, which never back-eliminate, must see every
    # kernel row
    dim, (cod, images), probes = case
    ker = gf2_kernel(images, dim, cod)
    kernel = [v for v in range(1 << dim) if _oracle_apply(images, v) == 0]
    oracle = _OracleSubspace(dim, kernel)
    assert [v for v in range(1 << dim) if ker.contains(v)] == kernel
    _assert_matches_oracle(ker, oracle, probes)
    for p in probes:
        assert ker.add(p) == oracle.add(p)
        _assert_matches_oracle(ker, oracle, probes)
