import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (SEED, independent_eta, rand_homogeneous, rand_tree_sum,
                      run_python)
from tensor_oracle import (apply_derivation, derivation_bracket,
                           derivation_values, is_symplectic, to_tensor)
from torelli.exact_linalg import _RowAccumulator, hnf, rational_rank
from torelli.lie import (ContextMismatch, LieElement, _bracket_words,
                         _lyndon_words_of_content, get_context,
                         standard_bracketing, t_add_into, tree_size, witt_rank)
from torelli.mcg import tr3
from torelli.sp_mod2 import project_l3_to_a, tree_mod2_bits
from torelli.trees import (DerivationElement, TreeSum, _component_vectors,
                           _eta_int_vector, _place, all_multidegrees,
                           canonical_tree, component_basis,
                           degree4_presentation, diagram_rows, ell_pairing,
                           half_symmetric_generators, join,
                           join_leaf_decompositions, lcst_component_diagonal,
                           lcst_full_diagonals, mod1_class_is_zero,
                           omega_pairing, tree_lattice, varpi)


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
        rhs = derivation_bracket(d1, d2)
        if not rhs:
            assert all(v.is_zero() for v in lhs.values())
        else:
            degree = d1.degree + d2.degree
            assert lhs == {degree: DerivationElement(genus, degree, rhs)}


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
    for _ in range(100):
        p = rand_tree_sum(2, rng, 1)
        q = rand_tree_sum(2, rng, 2)
        if not p.terms or not q.terms:
            continue
        d1, d2 = p.eta(), q.eta()
        assert not derivation_bracket(d1, d1)
        br = derivation_bracket(d1, d2)
        assert all(len(w) == d1.degree + d2.degree + 1 for _h, w in br)
        assert derivation_bracket(d2, d1) == {k: -c for k, c in br.items()}


def test_derivation_is_symplectic(rng):
    # eta images annihilate the bracket map (they are symplectic derivations)
    for _ in range(100):
        ts = rand_tree_sum(2, rng, rng.choice((1, 2, 3)))
        if not ts.terms:
            continue
        assert is_symplectic(ts.eta())


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
    # repeated letters, genus 1 at degree 4, and a genus-30 md whose support
    # spans a1 and b30
    b30 = [0] * 60
    b30[0], b30[14], b30[59] = 1, 1, 2
    cases += [(3, 4, (2, 2, 2, 0, 0, 0)), (2, 4, (3, 0, 2, 1)), (1, 4, (3, 3)),
              (1, 4, (4, 2)), (30, 2, tuple(b30))]
    for genus, degree, md in cases:
        assert (component_basis(genus, degree, md)
                == _component_basis_by_letter(genus, degree, md)), md


def test_degree4_lattice_membership_examples():
    genus = 2
    md = (2, 2, 1, 1)
    lat = tree_lattice(genus, 4, md)
    for _c, ts in _fixed_end_caterpillars(genus, md):
        assert lat.contains(_eta_int_vector(ts, md))

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


def test_varpi_outside_the_lattice_is_none():
    ctx = get_context(3, 3)
    u = ctx.gen_a(1).bracket(ctx.gen_a(2)).bracket(ctx.gen_a(3))
    # a quarter of the doubled tree is not integral
    assert varpi((join(u, u) * Fraction(1, 4)).eta()) is None
    # an integral element off the kernel of the bracket map has no presentation
    assert varpi(DerivationElement(2, 4, {(1, (1, 1, 1, 1, 2)): 1})) is None
    with pytest.raises(ValueError, match="degree 4"):
        varpi(DerivationElement(2, 3, {(1, (1, 1, 1, 2)): 1}))


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


def test_lcst_full_quotient_at_genus3():
    # the whole genus-3 quotient: one factor per rank of the derivation
    # lattice, 2g rk L_5 - rk L_6, and (Z/2)^{rk L_3}
    diag = lcst_full_diagonals(3)
    assert len(diag) == 1589 == 6 * witt_rank(6, 5) - witt_rank(6, 6)
    assert set(diag) == {1, 2}
    assert diag.count(2) == 70 == witt_rank(6, 3)


def test_lcst_full_quotient_computes_each_shape_once(monkeypatch):
    # one component per shape (9 at genus 2), not one per multidegree (84)
    calls = []

    def counting(genus, md):
        calls.append(md)
        return lcst_component_diagonal(genus, md)

    monkeypatch.setattr("torelli.trees.lcst_component_diagonal", counting)
    assert lcst_full_diagonals(2).count(2) == 20
    assert len(calls) == 9


def _partitions(n, parts, largest=None):
    """The partitions of n into at most `parts` parts, each padded with
    zeros to `parts` entries, in decreasing order."""
    largest = n if largest is None else largest
    if n == 0:
        return [(0,) * parts]
    if parts == 0:
        return []
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, parts - 1, first)]


@pytest.mark.parametrize("genus", [2, 3])
def test_lcst_component_depends_only_on_the_shape(genus):
    # a permutation of the letters is an automorphism of the free Lie ring
    # that commutes with eta, so it carries each component's quotient onto
    # the permuted one: the invariant factors depend only on sorted(md)
    shapes = {}
    for md in all_multidegrees(genus, 6):
        shape = tuple(sorted(md, reverse=True))
        if shape not in shapes:
            shapes[shape] = lcst_component_diagonal(genus, shape)
        assert lcst_component_diagonal(genus, md) == shapes[shape], md


@pytest.mark.parametrize("genus", range(1, 7))
def test_shape_arrangements_count_every_multidegree(genus):
    # a shape with entry multiplicities m_j stands for (2g)! / prod m_j!
    # multidegrees
    total = 0
    for shape in _partitions(6, 2 * genus):
        count = factorial(2 * genus)
        for entry in set(shape):
            count //= factorial(shape.count(entry))
        total += count
    assert total == len(all_multidegrees(genus, 6))


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
                rows.append(_eta_int_vector(ts, md))
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
    # the rows on the rarest color span both degree-4 shapes: every chain
    # and every central-node diagram
    for md in mds:
        reference = hnf(_two_shape_rows(genus, md),
                        ambient_dim=len(component_basis(genus, 4, md)))
        assert reference.rows == tree_lattice(genus, 4, md).rows, md


def _caterpillars(genus, md):
    """(coloring, TreeSum) of the nonzero caterpillars
    (c0, c1) -- (c2, (c3, (..., c_last))) over every coloring c of md."""
    colors = [i + 1 for i, c in enumerate(md) for _ in range(c)]
    out = []
    for c in sorted(set(permutations(colors))):
        ts = TreeSum.single(genus, (c[0], c[1]), _nested(c[2:]))
        if ts.terms:
            out.append((c, ts))
    return out


def _nested(colors):
    """The right-nested rooted tree (c0, (c1, (..., c_last)))."""
    return colors[0] if len(colors) == 1 else (colors[0], _nested(colors[1:]))


def _all_caterpillars(genus, md):
    """(coloring, integer eta row) of the caterpillar (c0, c1) -- (c2, (...))
    over every coloring c of md, without fixing its end colors."""
    return [(c, _eta_int_vector(ts, md)) for c, ts in _caterpillars(genus, md)]


def _fixed_end_caterpillars(genus, md):
    """The caterpillars of _caterpillars with c0 the smallest color of md and
    c_last the largest: rooted at c0 they are the right-normed brackets
    [c1, [c2, [..., c_last]]], which span each content component of the
    free Lie ring over Z."""
    colors = [i + 1 for i, c in enumerate(md) if c]
    return [(c, ts) for c, ts in _caterpillars(genus, md)
            if c[0] == colors[0] and c[-1] == colors[-1]]


@pytest.mark.parametrize("genus, degrees", [
    (1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (1, 2, 3)),
], ids=["genus1", "genus2", "genus3"])
def test_rarest_color_rows_span_all_caterpillars(genus, degrees):
    # oracle: the rows of the joins on the rarest color generate the lattice
    # of every caterpillar coloring
    for degree in degrees:
        for md in all_multidegrees(genus, degree + 2):
            dim = len(component_basis(genus, degree, md))
            assert (hnf(diagram_rows(genus, md), ambient_dim=dim).rows
                    == hnf([r for _c, r in _all_caterpillars(genus, md)],
                           ambient_dim=dim).rows), md


def _nested_half_rows(genus, md):
    """(1/2) eta(u -- u) as integer rows over the right-nested trees u of
    every arrangement of half the content of md; none unless md is even."""
    if any(c % 2 for c in md):
        return []
    colors = [i + 1 for i, c in enumerate(md) for _ in range(c // 2)]
    rows = []
    for c in sorted(set(permutations(colors))):
        ts = TreeSum.single(genus, _nested(c), _nested(c))
        if ts.terms:
            rows.append([x // 2 for x in _eta_int_vector(ts, md)])
    return rows


@pytest.mark.parametrize("genus, mds", [
    (1, all_multidegrees(1, 6)),
    (2, all_multidegrees(2, 6)),
    (3, _partitions(6, 6)),
], ids=["genus1", "genus2", "genus3-shapes"])
def test_degree4_presentation_against_caterpillars_and_nested_halves(genus,
                                                                     mds):
    # oracle: every caterpillar and every nested half tree generate the
    # derivation lattice that the Lyndon rows and half trees present
    for md in mds:
        dim = len(component_basis(genus, 4, md))
        oracle = ([r for _c, r in _all_caterpillars(genus, md)]
                  + _nested_half_rows(genus, md))
        assert (hnf(degree4_presentation(genus, md)[0], ambient_dim=dim).rows
                == hnf(oracle, ambient_dim=dim).rows), md


def _integer_kernel(images, width):
    """A Z-basis of the kernel of e_i |-> images[i] on Z^width: the graph
    rows images[i] | e_i echelonized on every column, and of them the rows
    whose image part is zero.  (With the e_i carried rather than pivoted,
    the accumulator would drop those rows.)"""
    n = len(images)
    acc = _RowAccumulator(width + n, (
        tuple(image) + (0,) * i + (1,) + (0,) * (n - i - 1)
        for i, image in enumerate(images)))
    return [row[width:] for row in acc.rows if not any(row[:width])]


def test_degree4_presentation_is_the_kernel_of_the_bracket_map():
    # oracle: the integral symplectic derivations of a component are the
    # integer kernel of (h, w) |-> [h, w], from H tensor L_{k+1} to L_{k+2};
    # the presentation generates it at every degree 1-4, on every shape of
    # genus 3 with a nonempty component
    sympy = pytest.importorskip("sympy")
    for degree in range(1, 5):
        for md in _partitions(degree + 2, 6):
            basis = component_basis(3, degree, md)
            if not basis:
                continue
            index = {w: j for j, w in enumerate(_lyndon_words_of_content(md))}
            images = []
            for h, w in basis:
                image = [0] * len(index)
                for u, c in _bracket_words((h,), w).items():
                    image[index[u]] = c
                images.append(image)
            kernel = _integer_kernel(images, len(index))
            assert len(kernel) == len(basis) - sympy.Matrix(images).rank(), md
            assert (hnf(kernel, ambient_dim=len(basis)).rows
                    == hnf(degree4_presentation(3, md)[0],
                           ambient_dim=len(basis)).rows), md


def _rand_tree(rng, leaves, letters):
    if leaves == 1:
        return rng.randint(1, letters)
    k = rng.randint(1, leaves - 1)
    return (_rand_tree(rng, k, letters), _rand_tree(rng, leaves - k, letters))


def _chain_trace(genus, chain):
    """Morita's trace of the chain diagram (a,b,c,d,e) = (a,b) -- (c,(d,e)):
    2w(e,a) bcd + 2w(a,d) ecb + 2w(d,b) ace + 2w(b,e) dca."""
    a, b, c, d, e = chain
    out = {}
    for (x, y), mono in (((e, a), (b, c, d)), ((a, d), (e, c, b)),
                         ((d, b), (a, c, e)), ((b, e), (d, c, a))):
        key = tuple(sorted(mono))
        out[key] = out.get(key, 0) + 2 * omega_pairing(genus, x, y)
    return {k: v for k, v in out.items() if v}


def _tr3_over_all_chains(ts):
    """Morita's trace of a degree-3 tree sum, solved over every chain
    coloring of each component rather than the fixed-end ones."""
    genus = ts.genus
    if not ts.terms:
        return {}
    sympy = pytest.importorskip("sympy")
    out = {}
    for md, vec in _component_vectors(ts.eta()):
        chains = _all_caterpillars(genus, md)
        # one rational x with sum_i x_i row_i = vec, its free parameters set
        # to 0; gauss_jordan_solve raises ValueError when there is none
        x, free = sympy.Matrix([r for _c, r in chains]).T.gauss_jordan_solve(
            sympy.Matrix(vec))
        for coeff, (c, _r) in zip(x.subs({t: 0 for t in free}), chains):
            for key, v in _chain_trace(genus, c).items():
                out[key] = out.get(key, 0) + v * Fraction(str(coeff))
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("genus", [2, 3])
def test_tr3_matches_the_chain_formula_on_a_spanning_set(genus):
    # The fixed-end caterpillars of each degree-3 multidegree span its tree
    # lattice (checked here), so every degree-3 tree sum is a rational
    # combination of them.  tr3 is linear, so matching the chain formula on
    # these chains it is Morita's trace on every degree-3 tree sum.
    for md in all_multidegrees(genus, 5):
        chains = _fixed_end_caterpillars(genus, md)
        rows = [_eta_int_vector(ts, md) for _c, ts in chains]
        assert (hnf(rows, ambient_dim=len(component_basis(genus, 3, md))).rows
                == tree_lattice(genus, 3, md).rows), md
        for chain, ts in chains:
            assert tr3(ts) == _chain_trace(genus, chain), chain


@pytest.mark.parametrize("genus", [2, 3])
def test_tr3_on_fixed_end_chains_matches_all_chains(genus, rng):
    for _ in range(6):
        ts = TreeSum(genus)
        for _ in range(rng.randint(1, 3)):
            left = rng.randint(1, 4)
            ts = ts + TreeSum.single(genus,
                                     _rand_tree(rng, left, 2 * genus),
                                     _rand_tree(rng, 5 - left, 2 * genus)
                                     ) * rng.choice((-3, -2, -1, 1, 2, 3))
        assert tr3(ts) == _tr3_over_all_chains(ts)


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
            for md, vec in _component_vectors(dv):
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


def test_quotient_has_no_free_part_at_genus1():
    # rationally the tree span fills the degree-4 derivation space
    for md in [(6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 6)]:
        rows = diagram_rows(1, md)
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
    # as derivations of the tensor algebra, eta images kill the symplectic
    # element: a route through D(omega) independent of the bracket-map test
    for _ in range(50):
        genus = 2
        ts = rand_tree_sum(genus, rng, rng.choice((1, 2)))
        if not ts.terms:
            continue
        dv = ts.eta()
        omega, _den = to_tensor(get_context(genus, dv.degree + 2).omega())
        assert not apply_derivation(derivation_values(dv), omega)


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


def _multidegree(genus, key):
    h, w = key
    return tuple((h == i) + w.count(i) for i in range(1, 2 * genus + 1))


def _component_vector_by_scan(dv, md):
    """The md component vector of dv, as one scan of every term against md."""
    basis = component_basis(dv.genus, dv.degree, md)
    vec = [0] * len(basis)
    for k, c in dv.terms.items():
        if _multidegree(dv.genus, k) == md:
            vec[basis.index(k)] = c
    return vec


@seed(SEED)
@settings(max_examples=100, deadline=None)
@given(_joins)
def test_components_split_the_terms_by_multidegree(joins):
    joins = [(u, v, c) for u, v, c in joins
             if not (isinstance(u, int) and isinstance(v, int))]
    for d, dv in _sum_of_joins(joins).eta_graded().items():
        parts = dv.components()
        assert all(parts.values())
        assert {k: c for part in parts.values() for k, c in part.items()} \
            == dv.terms
        assert sum(map(len, parts.values())) == len(dv.terms)
        assert all(_multidegree(2, k) == md
                   for md, part in parts.items() for k in part)
        assert dv.multidegrees() == sorted(parts)
        assert list(_component_vectors(dv)) == [
            (md, _component_vector_by_scan(dv, md)) for md in sorted(parts)]
        # the trees use the letters 1..3 only, so letter 4 is off the support
        outside = (1, 1, 0, d)
        assert _place(2, d, outside, {}) \
            == [0] * len(component_basis(2, d, outside)) != []
        for bad in ((1, 1, d), (1, 1, 0, d + 1), (-1, 2, 1, d)):
            with pytest.raises(ValueError):
                _place(2, d, bad, {})


def test_eta_int_vector_refuses_fractions_and_foreign_terms():
    md = (2, 2, 1, 1)
    # the first row joins the rarest color, 3, to its first Lyndon word
    w = next(w for h, w in component_basis(2, 4, md) if h == 3)
    ts = TreeSum.single(2, 3, standard_bracketing(w))
    assert _eta_int_vector(ts, md) == diagram_rows(2, md)[0]
    with pytest.raises(ValueError, match="not integral"):
        _eta_int_vector(ts * Fraction(1, 2), md)
    # the join has content md, so a same-degree md misses its terms
    with pytest.raises(ValueError, match="outside"):
        _eta_int_vector(ts, (2, 1, 1, 2))


# --- the integer gluing kernels against the Fraction route -------------------

_DENOMINATORS = (1, 2, 3, 4, 6, 12)
_rational_joins = st.tuples(
    _joins, st.lists(st.sampled_from(_DENOMINATORS), min_size=6, max_size=6),
).map(lambda pair: [(u, v, Fraction(c, d))
                    for (u, v, c), d in zip(*pair)
                    if not (isinstance(u, int) and isinstance(v, int))])


def _glued_by_fractions(a, b, pairing):
    """The gluing of two tree sums term by term, one Fraction product per
    glued leaf pair."""
    out = TreeSum(a.genus)
    for (u1, v1), c1 in a.terms.items():
        for (u2, v2), c2 in b.terms.items():
            for x, tx in join_leaf_decompositions(u1, v1):
                for y, ty in join_leaf_decompositions(u2, v2):
                    w = pairing(a.genus, x, y)
                    if w:
                        out.add_join(tx, ty, Fraction(c1) * c2 * w)
    return out


def _eta_by_fractions(ts):
    """{degree: eta terms} of a tree sum, rerooting term by term with one
    Fraction product per rerooted tree."""
    per = {}
    for (u, v), c in ts.terms.items():
        d = tree_size(u) + tree_size(v) - 2
        ctx = get_context(ts.genus, d + 1)
        by_color = per.setdefault(d, {})
        for color, tree in join_leaf_decompositions(u, v):
            t_add_into(by_color.setdefault(color, {}),
                       ctx.from_tree(tree).terms, Fraction(c))
    return {d: {(h, w): x for h, part in by_color.items()
                for w, x in part.items()}
            for d, by_color in per.items()}


def _no_integral_fraction(terms):
    return not any(type(c) is Fraction and c.denominator == 1
                   for c in terms.values())


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(_rational_joins, _rational_joins)
def test_gluing_and_eta_over_z_match_the_fraction_route(left, right):
    a, b = _sum_of_joins(left), _sum_of_joins(right)
    for got, pairing in ((a.bracket(b), omega_pairing),
                         (a.contract(b), ell_pairing)):
        assert got.terms == _glued_by_fractions(a, b, pairing).terms
        assert _no_integral_fraction(got.terms)
    images = a.eta_graded()
    assert {d: dv.terms for d, dv in images.items()} == _eta_by_fractions(a)
    assert all(_no_integral_fraction(dv.terms) for dv in images.values())


def _rand_rational_lie(ctx, rng, terms):
    out = {}
    for _ in range(terms):
        word = rng.choice(ctx.lyndon_basis(rng.randint(1, ctx.max_degree)))
        out[word] = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)),
                             rng.choice(_DENOMINATORS))
    return LieElement(ctx, out)


def test_join_over_z_matches_the_fraction_route(rng):
    ctx = get_context(3, 4)
    for _ in range(200):
        x = _rand_rational_lie(ctx, rng, rng.randint(0, 4))
        y = _rand_rational_lie(ctx, rng, rng.randint(0, 4))
        reference = TreeSum(3)
        for cx, tx in x.rooted_terms():
            for cy, ty in y.rooted_terms():
                reference.add_join(tx, ty, Fraction(cx) * cy)
        got = join(x, y, allow_degree0=True)
        assert got.terms == reference.terms
        assert _no_integral_fraction(got.terms)
