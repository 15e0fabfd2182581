import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (SEED, independent_eta, rand_homogeneous, rand_tree_sum,
                      run_python)
from torelli.exact_linalg import hnf, rational_rank
from torelli.lie import ContextMismatch, get_context, witt_rank
from torelli.sp_mod2 import tree_mod2_bits
from torelli.trees import (DerivationElement, TreeSum, all_multidegrees,
                           basis_colored_trees, canonical_tree, component_basis,
                           congruent_mod_trees, degree4_presentation,
                           half_symmetric_generators, join,
                           lcst_component_diagonal, lcst_full_diagonals,
                           mod1_class_is_zero, odbar_reduce, project_l3_to_a,
                           tree_lattice, varpi)


def test_join_single_monomials():
    ctx = get_context(3, 2)
    ts = join(ctx.gen_a(1), ctx.gen_b(1), allow_degree0=True)
    assert len(ts.terms) == 1 and ts.degrees() == [0]
    with pytest.raises(ValueError):
        join(ctx.gen_a(1), ctx.gen_b(1))
    h = join(ctx.gen_a(1).bracket(ctx.gen_b(1)),
             ctx.gen_a(1).bracket(ctx.gen_b(1)))
    assert len(h.terms) == 1 and h.degrees() == [2]


def test_join_symmetric_double():
    ctx = get_context(3, 3)
    u = ctx.gen_a(1).bracket(ctx.gen_a(2)).bracket(ctx.gen_a(3))
    ts = join(u, u) * Fraction(1, 2)
    assert ts.degrees() == [4]
    # the eta image of the double is even, so half of it is integral
    assert ts.eta().is_integral()


def test_canonical_tree_kills_equal_children():
    tree, sign = canonical_tree(((1, 2), (1, 2)))
    assert tree is None and sign == 0
    tree, sign = canonical_tree((2, 1))
    assert tree == (1, 2) and sign == -1


def test_eta_tripod():
    ctx = get_context(3, 2)
    trip = join(ctx.gen_a(1), ctx.gen_a(2).bracket(ctx.gen_a(3)))
    expected = {(1, (2, 3)): Fraction(1), (2, (1, 3)): Fraction(-1),
                (3, (1, 2)): Fraction(1)}
    assert trip.eta().terms == expected


def test_eta_five_leaf_rerooting():
    # chain with leaves (a1, a2, a3, b1, b2): rerooted at the fourth leaf the
    # bracket reads [b2, [[a1, a2], a3]]
    ts = TreeSum.single(3, (1, 2), (3, (4, 5)))
    dv = ts.eta()
    ctx = get_context(3, 4)
    lie = ctx.from_tree((5, ((1, 2), 3)))
    for w, c in lie.terms.items():
        assert dv.terms.get((4, w)) == c


def test_eta_against_independent_reroot_oracle(rng):
    for _ in range(200):
        genus = rng.choice((2, 3))
        degree = rng.choice((1, 2, 3))
        ts = rand_tree_sum(genus, rng, degree)
        assert ts.eta_graded() == independent_eta(ts)


def test_eta_of_zero():
    ts = TreeSum(2)
    assert ts.eta_graded() == {}
    with pytest.raises(ValueError):
        ts.eta()


def test_presentation_independence():
    # the same diagram cut along different edges has the same eta image
    a = TreeSum.single(2, (1, 2), (3, (4, 2)))
    b = TreeSum.single(2, ((1, 2), 3), (4, 2))
    assert a.eta() == b.eta()
    assert a.equals(b)


def test_ihx(rng):
    # (A,B | C,D) - (A,C | B,D) + (A,D | C,B) has zero eta image
    for _ in range(200):
        genus = rng.choice((2, 3))
        subtrees = []
        for _ in range(4):
            if rng.random() < 0.3:
                subtrees.append((rng.randint(1, 2 * genus),
                                 rng.randint(1, 2 * genus)))
            else:
                subtrees.append(rng.randint(1, 2 * genus))
        total = sum(len(t) if isinstance(t, tuple) else 1 for t in subtrees)
        if total > 5:
            continue
        A, B, C, D = subtrees
        combo = (TreeSum.single(genus, (A, B), (C, D))
                 - TreeSum.single(genus, (A, C), (B, D))
                 + TreeSum.single(genus, (A, D), (B, C)))
        assert all(v.is_zero() for v in combo.eta_graded().values())


def test_bracket_compatibility(rng):
    # eta is a Lie homomorphism onto derivations
    for _ in range(200):
        genus = rng.choice((2, 3))
        p = rand_tree_sum(genus, rng, rng.choice((1, 2)))
        q = rand_tree_sum(genus, rng, 3 - p.degrees()[0] if p.degrees() else 1)
        if not p.terms or not q.terms:
            continue
        lhs = p.bracket(q).eta_graded()
        d1 = p.eta()
        d2 = q.eta()
        rhs = d1.bracket(d2)
        if rhs.is_zero():
            assert all(v.is_zero() for v in lhs.values())
        else:
            assert lhs == {rhs.degree: rhs}


def test_bracket_of_asymptotic_colors_vanishes():
    # gluing needs an a-letter against its own b-letter
    ts1 = TreeSum.single(2, (1, 2), (1, 2))
    ts2 = TreeSum.single(2, (2, 1), (2, 2))
    assert not ts1.bracket(ts2).terms
    assert not ts1.contract(ts2).terms


def test_contract_antisymmetrization_is_bracket(rng):
    for _ in range(200):
        genus = 2
        p = rand_tree_sum(genus, rng, rng.choice((1, 2)))
        q = rand_tree_sum(genus, rng, rng.choice((1, 2)))
        lhs = p.contract(q) - q.contract(p)
        assert lhs.equals(p.bracket(q))


def test_derivation_bracket_properties(rng):
    ctx = get_context(2, 3)
    for _ in range(100):
        p = rand_tree_sum(2, rng, 1)
        q = rand_tree_sum(2, rng, 2)
        if not p.terms or not q.terms:
            continue
        d1, d2 = p.eta(), q.eta()
        assert d1.bracket(d1).is_zero()
        br = d1.bracket(d2)
        assert br.degree == d1.degree + d2.degree
        assert d2.bracket(d1) == -br


def test_derivation_is_symplectic(rng):
    # eta images annihilate the bracket map (they are symplectic derivations)
    for _ in range(100):
        ts = rand_tree_sum(2, rng, rng.choice((1, 2, 3)))
        if not ts.terms:
            continue
        assert ts.eta().is_symplectic()


def test_component_basis_dimension():
    md = (2, 2, 2, 0, 0, 0)
    basis = component_basis(3, 4, md)
    assert len(basis) == 18
    # independent count: 3 letter choices x Lyndon words with the complement
    ctx = get_context(3, 5)
    count = 0
    for h in (1, 2, 3):
        rest = list(md)
        rest[h - 1] -= 1
        for w in ctx.lyndon_basis(5):
            c = [0] * 6
            for letter in w:
                c[letter - 1] += 1
            count += c == rest
    assert count == 18


def _component_basis_by_letter(genus, degree, md):
    """component_basis as one filter of every Lyndon word per letter h."""
    ctx = get_context(genus, degree + 1)
    out = []
    for h in range(1, 2 * genus + 1):
        if md[h - 1] == 0:
            continue
        rest = list(md)
        rest[h - 1] -= 1
        for w in ctx.lyndon_basis(degree + 1):
            counts = [0] * (2 * genus)
            for letter in w:
                counts[letter - 1] += 1
            if counts == rest:
                out.append((h, w))
    return tuple(out)


def test_component_basis_matches_per_letter_filter(rng):
    cases = [(genus, degree, md) for genus in (1, 2) for degree in (1, 2, 3)
             for md in all_multidegrees(genus, degree + 2)]
    for genus in (3, 4):
        for _ in range(10):
            degree = rng.randint(1, 4)
            md = [0] * (2 * genus)
            for _ in range(degree + 2):
                md[rng.randrange(2 * genus)] += 1
            cases.append((genus, degree, tuple(md)))
    for genus, degree, md in cases:
        assert (component_basis(genus, degree, md)
                == _component_basis_by_letter(genus, degree, md)), md


def test_degree4_lattice_membership_examples():
    genus = 2
    md = (2, 2, 1, 1)
    trees = basis_colored_trees(genus, md)
    lat = tree_lattice(genus, 4, md)
    vec = [int(c) for c in trees[0][1].eta().component_vector(md)]
    assert lat.contains(vec)

    even = (2, 2, 2, 0)
    halves = half_symmetric_generators(genus, even)
    assert halves
    lat = tree_lattice(genus, 4, even)
    for _u, hvec in halves:
        doubled = [2 * v for v in hvec]
        assert lat.contains(doubled)


def test_mod1_examples():
    ctx = get_context(3, 3)
    u = ctx.gen_a(1).bracket(ctx.gen_a(2)).bracket(ctx.gen_a(3))
    half = join(u, u) * Fraction(1, 2)
    zero, failing = mod1_class_is_zero(half.eta())
    assert not zero and failing == ((2, 2, 2, 0, 0, 0),)
    zero, failing = mod1_class_is_zero((half * 2).eta())
    assert zero and not failing
    tree = join(u, ctx.gen_a(1).bracket(ctx.gen_b(2)).bracket(ctx.gen_b(3)))
    assert mod1_class_is_zero(tree.eta())[0]


def test_varpi_examples():
    ctx = get_context(3, 3)
    u = ctx.gen_a(1).bracket(ctx.gen_a(2)).bracket(ctx.gen_a(3))
    half = join(u, u) * Fraction(1, 2)
    bits = varpi(half.eta())
    assert bits == tree_mod2_bits(3, ((1, 2), 3))
    tree = join(u, ctx.gen_b(1).bracket(ctx.gen_b(2)).bracket(ctx.gen_b(3)))
    assert varpi(tree.eta()) == 0
    # doubling the half-symmetric generator lands in the kernel of the class
    assert varpi((half * 2).eta()) == 0


def test_varpi_consistent_with_mod1(rng):
    # the class vanishes exactly when the element lies in the tree lattice
    ctx = get_context(2, 3)
    for _ in range(60):
        u = rand_homogeneous(ctx, rng, 3, terms=1)
        w = rand_homogeneous(ctx, rng, 3, terms=1)
        v = join(u, u) * Fraction(1, 2) + join(u, w)
        dv = v.eta()
        if not dv.is_integral():
            continue
        zero, _ = mod1_class_is_zero(dv)
        assert zero == (varpi(dv) == 0)


def test_lcst_quotients_small_genus():
    with pytest.raises(ValueError):
        lcst_full_diagonals(0)
    diag = lcst_full_diagonals(1)
    assert diag == [1, 2, 2]
    assert sum(1 for d in diag if d == 2) == witt_rank(2, 3)


def test_lcst_component_genus3():
    md = (2, 2, 2, 0, 0, 0)
    diag = lcst_component_diagonal(3, md)
    assert diag == [1, 1, 2, 2]
    # the number of 2s is the rank of degree-3 words with half the content
    ctx = get_context(3, 3)
    half_count = sum(
        1 for w in ctx.lyndon_basis(3)
        if sorted(w) == [1, 2, 3])
    assert sum(1 for d in diag if d == 2) == half_count == 2


def _two_shape_rows(genus, md):
    """Integer eta rows of both degree-4 diagram shapes, the chain
    (c0, c1) -- (c2, (c3, (c4, c5))) and the central node
    (c0, c1) -- ((c2, c3), (c4, c5)), over the colorings c of md."""
    colors = [i + 1 for i, c in enumerate(md) for _ in range(c)]
    rows = []
    for c in sorted(set(permutations(colors))):
        for u, v in (((c[0], c[1]), (c[2], (c[3], (c[4], c[5])))),
                     ((c[0], c[1]), ((c[2], c[3]), (c[4], c[5])))):
            ts = TreeSum.single(genus, u, v)
            if ts.terms:
                rows.append([int(x) for x in ts.eta().component_vector(md)])
    return rows


@pytest.mark.parametrize("genus, mds", [
    (1, all_multidegrees(1, 6)),
    (2, all_multidegrees(2, 6)),
    # the components of theorem B's degree-4 value of phi at genus 3; its
    # class fails to be a tree in (2, 2, 2, 0, 0, 0)
    (3, [(1, 2, 2, 0, 0, 1), (2, 1, 2, 0, 0, 1), (2, 2, 1, 0, 0, 1),
         (2, 2, 2, 0, 0, 0)]),
], ids=["genus1", "genus2", "genus3"])
def test_caterpillars_span_the_degree4_tree_lattice(genus, mds):
    # the central-node shape adds nothing to the caterpillar lattice
    for md in mds:
        reference = hnf(_two_shape_rows(genus, md),
                        ambient_dim=len(component_basis(genus, 4, md)))
        assert reference.rows == tree_lattice(genus, 4, md).rows, md


@pytest.mark.parametrize("genus, expected", [(1, 1), (2, 6), (3, 15)])
def test_degree2_cokernel_is_z2_tensor_l2(genus, expected):
    # Levine's conjecture, proved by Conant-Schneiderman-Teichner: the
    # cokernel of eta in degree 2k is Z/2 tensor L_{k+1}; here k = 1
    diag = [d for md in all_multidegrees(genus, 4)
            for d in lcst_component_diagonal(genus, md)]
    assert set(diag) <= {1, 2}
    assert diag.count(2) == witt_rank(2 * genus, 2) == expected


def test_d2_contract_families_at_genus2():
    # products of the degree-2 generator families stay integral:
    #   tree > half in 2 * lattice,  half > half in 4 * lattice
    genus = 2
    ctx = get_context(genus, 2)
    letters = [ctx.generator(i) for i in range(1, 5)]
    halves = []
    for i in range(4):
        for j in range(4):
            u = letters[i].bracket(letters[j])
            if not u.is_zero():
                halves.append(join(u, u) * Fraction(1, 2))
    trees = []
    for combo in product(range(4), repeat=4):
        x = letters[combo[0]].bracket(letters[combo[1]])
        y = letters[combo[2]].bracket(letters[combo[3]])
        if not x.is_zero() and not y.is_zero():
            trees.append(join(x, y))
    rng = random.Random(SEED)

    def in_scaled_lattice(ts, scale):
        # scale clears the denominators of ts; the rational vector of ts is
        # then in the lattice iff scale * ts is in scale * lattice.
        ok = True
        for d, dv in ts.eta_graded().items():
            assert d == 4
            for md in dv.multidegrees():
                vec = dv.component_vector(md)
                assert all((c * scale).denominator == 1 for c in vec)
                ok = ok and tree_lattice(ts.genus, 4, md).contains(vec)
        return ok

    for h1 in halves:
        for h2 in halves:
            ts = h1.contract(h2)
            if ts.terms:
                assert in_scaled_lattice(ts * 4, 4)
    sample_trees = rng.sample(trees, 60)
    for t in sample_trees:
        h = rng.choice(halves)
        ts = t.contract(h) * 2
        if ts.terms:
            assert in_scaled_lattice(ts, 2)
        ts = h.contract(t) * 2
        if ts.terms:
            assert in_scaled_lattice(ts, 2)
        t2 = rng.choice(trees)
        ts = t.contract(t2)
        if ts.terms:
            assert in_scaled_lattice(ts, 1)


def test_closed_projection():
    bits = tree_mod2_bits(3, ((1, 2), 3))
    projected = project_l3_to_a(3, bits)
    assert projected != 0
    # a class supported on words with b letters dies
    bits_b = tree_mod2_bits(3, ((4, 5), 6))
    assert project_l3_to_a(3, bits_b) == 0


def test_odbar_reduce_kills_inner_and_ideal_parts():
    genus = 2
    ctx = get_context(genus, 4)
    # the inner derivation attached to a degree-3 element dies
    y = ctx.monomial((1, 2, 4))
    terms = {}
    for i in range(1, genus + 1):
        ai, bi = ctx.generator(i), ctx.generator(genus + i)
        for h, val in ((i, bi.bracket(y)), (genus + i, ai.bracket(y) * -1)):
            for w, c in val.terms.items():
                terms[(h, w)] = terms.get((h, w), 0) + c
    inner = DerivationElement(genus, 3, {k: v for k, v in terms.items() if v})
    assert odbar_reduce(inner).is_zero()
    # anything valued in the omega ideal dies
    om = ctx.omega()
    elt = ctx.generator(1).bracket(ctx.generator(2).bracket(om))
    ideal_val = DerivationElement(genus, 3, {(1, w): c for w, c in elt.terms.items()})
    assert odbar_reduce(ideal_val).is_zero()
    # a generic element survives
    generic = DerivationElement(genus, 3, {(1, (1, 2, 2, 3)): Fraction(1)})
    assert not odbar_reduce(generic).is_zero()


def test_quotient_has_no_free_part_at_genus1():
    # rationally the tree span fills the degree-4 derivation space
    for md in [(6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 6)]:
        trees = basis_colored_trees(1, md)
        rows = [[int(c) for c in t.eta().component_vector(md)]
                for _c, t in trees]
        full = hnf(degree4_presentation(1, md)[0],
                   ambient_dim=len(component_basis(1, 4, md)))
        if rows:
            assert rational_rank(rows) == full.rank


def test_invalid_multidegree_rejected():
    with pytest.raises(ValueError):
        component_basis(3, 4, (2, 2, 2, 0, 0))
    with pytest.raises(ValueError):
        component_basis(3, 4, (2, 2, 2, 1, 0, 0))


def test_bracket_multidegrees_are_predictable(rng):
    # gluing consumes one dual pair of colors: every multidegree of [P, Q]
    # equals md(P) + md(Q) minus e_{a_i} + e_{b_i} for some handle i
    for _ in range(60):
        genus = 2
        p = rand_tree_sum(genus, rng, 1, terms=1)
        q = rand_tree_sum(genus, rng, 2, terms=1)
        if not p.terms or not q.terms:
            continue
        mds_p = p.eta().multidegrees()
        mds_q = q.eta().multidegrees()
        if len(mds_p) != 1 or len(mds_q) != 1:
            continue
        total = [a + b for a, b in zip(mds_p[0], mds_q[0])]
        br = p.bracket(q)
        if not br.terms:
            continue
        allowed = set()
        for i in range(genus):
            md = list(total)
            md[i] -= 1
            md[genus + i] -= 1
            if all(c >= 0 for c in md):
                allowed.add(tuple(md))
        assert set(br.eta().multidegrees()) <= allowed


def test_eta_images_annihilate_omega(rng):
    # as derivations of the free Lie algebra, eta images kill the symplectic
    # element: a route through apply() independent of the bracket-map test
    for _ in range(50):
        genus = 2
        ts = rand_tree_sum(genus, rng, rng.choice((1, 2)))
        if not ts.terms:
            continue
        dv = ts.eta()
        ctx = get_context(genus, dv.degree + 2)
        assert dv.apply_in(ctx, ctx.omega()).is_zero()


# --- the shared linear operations -----------------------------------------

def test_derivation_sum_needs_equal_degree_and_genus():
    a = DerivationElement(2, 1, {(1, (1, 3)): Fraction(1)})
    b = DerivationElement(2, 2, {(1, (1, 1, 3)): Fraction(1)})
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ContextMismatch):
            op(a, b)
        with pytest.raises(ContextMismatch):
            op(a, DerivationElement(3, 1, dict(a.terms)))
    assert (a - a).terms == {} and (a + a).terms == (a * 2).terms


def test_derivation_degree_check_survives_optimize():
    # the degree check is an explicit raise, so it survives python -O
    code = (
        "from torelli.lie import ContextMismatch\n"
        "from torelli.trees import DerivationElement\n"
        "try:\n"
        "    DerivationElement(2, 1) + DerivationElement(2, 2)\n"
        "except ContextMismatch:\n"
        "    print('rejected')\n")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "rejected"


def test_tree_sum_genus_mismatch():
    x = TreeSum.single(2, (1, 2), (3, 4))
    y = TreeSum.single(3, (1, 2), (3, 4))
    with pytest.raises(ContextMismatch):
        x + y
    with pytest.raises(ContextMismatch):
        x - y
    with pytest.raises(ContextMismatch):
        x.bracket(y)


_trees = st.recursive(st.integers(1, 3), lambda sub: st.tuples(sub, sub),
                      max_leaves=3)
_joins = st.lists(st.tuples(_trees, _trees, st.integers(-2, 2)), max_size=6)


def _sum_of_joins(joins):
    out = TreeSum(2)
    for u, v, c in joins:
        out.add_join(u, v, Fraction(c))
    return out


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(_joins, _joins)
def test_tree_sum_linear_ops_match_join_by_join(left, right):
    a, b = _sum_of_joins(left), _sum_of_joins(right)
    for sign, combo in ((1, a + b), (-1, a - b)):
        rebuilt = _sum_of_joins(left + [(u, v, sign * c) for u, v, c in right])
        assert combo.terms == rebuilt.terms
