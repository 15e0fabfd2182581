"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; "tolerance" is exact equality of
rationals, exact integer lattice membership, or exact GF(2) ranks.  The
randomized suites of the last criterion run 200 cases each from a fixed seed.
"""

import random
from fractions import Fraction

import pytest

from conftest import (ACCEPTANCE_LINES, SEED, rand_lie, rand_null_word,
                      rand_tree_sum, rand_word, twist_pool)
from tensor_oracle import derivation_bracket
from torelli.lie import get_context, witt_rank
from torelli.mcg import (BoundingPairMap, SeparatingTwist, bounding_pair_value,
                         build_phi, casson_values, phi_data, r_mod1,
                         reference_theta_values, tr3)
from torelli.sp_mod2 import (lower_bound_exponents, project_l3_to_a,
                             tree_mod2_bits, verify_kernel_lemma)
from torelli.trees import (DerivationElement, congruent_mod_trees, join,
                           lcst_component_diagonal, lcst_full_diagonals)
from torelli.words import get_table, symplectic_check, theta


def report(number, ok, text):
    line = f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}: {text}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def phi3():
    return build_phi(get_table(3, 3))


def test_criterion_01_symplectic_expansion():
    ok = symplectic_check(get_table(3, 3)) and symplectic_check(get_table(3, 4))
    report(1, ok, "boundary word maps to omega at genus 3, degrees 3 and 4")


def test_criterion_02_theta_of_the_four_lifts():
    table = get_table(3, 3)
    data = phi_data(3)
    refs = reference_theta_values(table.ctx)
    ok = all(theta(data[f"gamma{i}"], table) == refs[i - 1].truncated(3)
             for i in (1, 2, 3, 4))
    report(2, ok, "the four curve lifts expand to the displayed degree-3 series")


def test_criterion_03_johnson_values(phi3):
    ctx = get_context(3, 3)
    tri = join(ctx.gen_a(1), ctx.gen_a(2).bracket(ctx.gen_a(3)))
    t2k = join(ctx.gen_a(1).bracket(ctx.gen_a(2)),
               ctx.gen_a(3).bracket(ctx.gen_b(3)))
    ok = (phi3["tau1_i"] == tri.eta()
          and phi3["tau2_k"] == t2k.eta()
          and phi3["tau3_phi"].is_zero())
    report(3, ok, "tau_1(i), tau_2(k) are the displayed trees and tau_3(phi) = 0")


def test_criterion_04_r4_class_detects_torsion(phi3):
    ctx = get_context(3, 3)
    u = ctx.gen_a(1).bracket(ctx.gen_a(2)).bracket(ctx.gen_a(3))
    half_double = join(u, u) * Fraction(1, 2)
    congruent = congruent_mod_trees(phi3["R"].derivation, half_double.eta())
    nonzero = not phi3["R"].is_zero
    ok = congruent and nonzero and phi3["r4_direct_matches"]
    report(4, ok, "r_4(phi) = half the doubled tree mod integer diagrams, "
                  "and is not an integer diagram combination")


def test_criterion_05_closed_surface_class(phi3):
    expected = project_l3_to_a(3, tree_mod2_bits(3, ((1, 2), 3)))
    ok = (phi3["closed_bits"] == expected != 0
          and phi3["varpi_bits"] == tree_mod2_bits(3, ((1, 2), 3)))
    report(5, ok, "the mod-2 class projects to the nonzero class of "
                  "[a3,[a2,a1]] on the closed surface")


def test_criterion_06_casson_homomorphisms():
    table = get_table(3, 3)
    data = phi_data(3)
    phi = data["phi"]
    d3 = casson_values(table, SeparatingTwist(data["gamma3"]))
    d1 = casson_values(table, SeparatingTwist(data["gamma1"]))
    spots = (d3[0], d3[1], d1[2])
    ok = casson_values(table, phi) == (0, 0, 0) and spots == (0, 3, 2)
    report(6, ok, "d(phi) = 0, dbar(phi) = 0, and the spot values are (0, 3, 2)")


def test_criterion_07_degree4_lattice_quotients():
    diag1 = lcst_full_diagonals(1)
    ok1 = diag1 == [1, 2, 2]
    diag2 = lcst_full_diagonals(2)
    ok2 = (set(diag2) <= {1, 2}
           and sum(1 for d in diag2 if d == 2) == witt_rank(4, 3))
    md = (2, 2, 2, 0, 0, 0)
    diag3 = lcst_component_diagonal(3, md)
    ctx = get_context(3, 3)
    half_count = sum(1 for w in ctx.lyndon_basis(3) if sorted(w) == [1, 2, 3])
    ok3 = set(diag3) <= {1, 2} and sum(1 for d in diag3 if d == 2) == half_count
    ok = ok1 and ok2 and ok3
    report(7, ok, f"derivation/diagram quotients: g=1 {diag1}, "
                  f"g=2 (Z/2)^{witt_rank(4, 3)}, g=3 component {diag3}")


def test_criterion_08_orbit_span_is_kernel():
    ok, span_dim, ker_dim = verify_kernel_lemma(3)
    report(8, ok and span_dim == ker_dim == 64,
           f"orbit span of [[a1,a2],a3] = contraction kernel, dim {span_dim}")


def test_criterion_09_lower_bound_exponents():
    ok = True
    for g in range(2, 9):
        bordered, closed = lower_bound_exponents(g)
        ok = ok and 3 * bordered == 8 * (g ** 3 - g)
        ok = ok and 3 * closed == g ** 3 - 4 * g
    report(9, ok, "torsion exponents match the closed forms for genus 2..8")


# --- criterion 10: the randomized identity suites (200 cases each) -----------

def _report10(letter, ok, text):
    line = (f"ACCEPTANCE 10{letter} {'PASS' if ok else 'FAIL'}: "
            f"{text} (200 random cases, seed {SEED})")
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_10a_bracket_identities():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        ctx = get_context(rng.choice((1, 2)), 4)
        x, y, z = (rand_lie(ctx, rng) for _ in range(3))
        ok = ok and x.bracket(x).is_zero()
        ok = ok and x.bracket(y) == -(y.bracket(x))
        jac = (x.bracket(y).bracket(z) + y.bracket(z).bracket(x)
               + z.bracket(x).bracket(y))
        ok = ok and jac.is_zero()
    _report10("a", ok, "antisymmetry and the Jacobi identity for the bracket")


def test_criterion_10b_bch_associativity():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        ctx = get_context(rng.choice((1, 2)), rng.choice((3, 4)))
        x, y, z = (rand_lie(ctx, rng, terms=2) for _ in range(3))
        ok = ok and x.bch(y).bch(z) == x.bch(y.bch(z))
    _report10("b", ok, "associativity of the truncated BCH product")


def test_criterion_10c_eta_is_lie_homomorphism():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        genus = rng.choice((2, 3))
        p = rand_tree_sum(genus, rng, rng.choice((1, 2)))
        q = rand_tree_sum(genus, rng, rng.choice((1, 2)))
        if not p.terms or not q.terms:
            continue
        lhs = p.bracket(q).eta_graded()
        d1, d2 = p.eta(), q.eta()
        rhs = derivation_bracket(d1, d2)
        if not rhs:
            ok = ok and all(v.is_zero() for v in lhs.values())
        else:
            degree = d1.degree + d2.degree
            ok = ok and lhs == {degree: DerivationElement(genus, degree, rhs)}
    _report10("c", ok, "eta turns the diagram bracket into the derivation "
                       "commutator")


def test_criterion_10d_contraction_antisymmetrizes_to_bracket():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        p = rand_tree_sum(2, rng, rng.choice((1, 2)))
        q = rand_tree_sum(2, rng, rng.choice((1, 2)))
        lhs = p.contract(q) - q.contract(p)
        ok = ok and lhs.equals(p.bracket(q))
    _report10("d", ok, "one-sided gluing antisymmetrizes to the bracket")


def test_criterion_10e_truncation_identity():
    rng = random.Random(SEED)
    pool = twist_pool(2, 4, 10)
    ok = True
    for _ in range(200):
        f, h = rng.choice(pool), rng.choice(pool)
        fh = f.bch(h)
        rhs = (f.part(4) + h.part(4)
               + f.part(2).bracket(h.part(2)) * Fraction(1, 2))
        ok = ok and fh.part(4).equals(rhs)
    _report10("e", ok, "the degree-4 truncation identity on kernel values")


def test_criterion_10f_r_vanishes_on_commutators():
    rng = random.Random(SEED)
    pool = twist_pool(2, 4, 10)
    ok = True
    for _ in range(200):
        f, h = rng.choice(pool), rng.choice(pool)
        ok = ok and r_mod1(f.commutator(h)).is_zero
    _report10("f", ok, "the mod-1 class vanishes on single commutators of "
                       "kernel values")


def test_criterion_10g_bounding_pair_two_routes():
    rng = random.Random(SEED)
    table = get_table(2, 3)
    gammas = []
    cs = []
    while len(gammas) < 15:
        w = rand_word(2, rng, rng.randint(1, 3))
        gammas.append((w, theta(w, table)))
    while len(cs) < 15:
        c = rand_null_word(2, rng, rng.randint(1, 2))
        cs.append((c, theta(c, table)))
    ok = True
    for _ in range(200):
        (gamma, th_g) = rng.choice(gammas)
        (c, th_c) = rng.choice(cs)
        bp = bounding_pair_value(table, BoundingPairMap(gamma, c))
        th_d = th_g.bch(th_c)
        twist_diff = (join(th_g, th_g, allow_degree0=True)
                      - join(th_d, th_d, allow_degree0=True)) * Fraction(1, 2)
        ok = ok and twist_diff.degree_part(0).terms == {}
        for d in (1, 2):
            ok = ok and bp.part(d).equals(twist_diff.degree_part(d))
    _report10("g", ok, "bounding-pair formulas equal the difference of half "
                       "self-joins with the degree-0 parts cancelling")


def test_criterion_10h_trace_kills_degree3_image():
    rng = random.Random(SEED)
    table = get_table(2, 3)
    bps = []
    tries = random.Random(SEED + 1)
    while len(bps) < 10:
        gamma = rand_word(2, tries, tries.randint(1, 3))
        c = rand_null_word(2, tries, 2)
        try:
            bps.append(bounding_pair_value(table, BoundingPairMap(gamma, c)))
        except Exception:
            continue
    twists = twist_pool(2, 3, 10)
    ok = True
    checked = 0
    while checked < 200:
        bp, tw = rng.choice(bps), rng.choice(twists)
        t3_part = bp.commutator(tw).part(3)
        if not t3_part.terms:
            continue
        ok = ok and tr3(t3_part) == {}
        checked += 1
    _report10("h", ok, "the degree-3 trace kills third Johnson values of "
                       "commutators")
