import random
from fractions import Fraction

import pytest

from conftest import SEED, rand_null_word, rand_word, twist_pool
from torelli.lie import MAX_CLASS, LieContext, get_context
from torelli.mcg import (BoundingPairMap, Commutator, GradedValue, Inverse,
                         NotInFiltration, Product, SeparatingTwist,
                         WindowUnderflow, bounding_pair_value, build_phi,
                         compose_values, d_bar, d_hom,
                         d_prime, factor_value, genus_of_lift, phi_data,
                         r_circ_mod1, r_mod1, tau, tau_is_integral,
                         theorem_b_report, tr3, twist_value)
from torelli.trees import TreeSum, congruent_mod_trees, join, mod1_class_is_zero
from torelli.words import comm, get_table, parse_word, theta


@pytest.fixture(scope="module")
def table3():
    return get_table(3, 3)


@pytest.fixture(scope="module")
def table34():
    return get_table(3, 4)


@pytest.fixture(scope="module")
def lifts():
    return phi_data(3)


# --- windows -----------------------------------------------------------------

def test_window_underflow_message(table3, lifts):
    bp = bounding_pair_value(table3, lifts["p1"])
    assert bp.depth == 1 and bp.known == 2
    with pytest.raises(WindowUnderflow) as err:
        bp.part(3)
    assert "degree-3" in str(err.value)
    assert bp.part(0).terms == {}


def test_twist_window(table3, table34, lifts):
    tw = twist_value(table34, SeparatingTwist(lifts["gamma3"]))
    assert tw.depth == 2 and tw.known == 4
    tw3 = twist_value(table3, SeparatingTwist(lifts["gamma3"]))
    assert tw3.known == 3


def test_commutator_window(table3, lifts):
    value_i = factor_value(table3, lifts["i"])
    value_k = factor_value(table3, lifts["k"])
    phi = value_i.commutator(value_k)
    assert phi.known == 4 and phi.depth == 3
    # composing them directly cannot know degree 3 (the i factor stops at 2)
    prod = value_i.bch(value_k)
    assert prod.known == 2


# --- twist and bounding-pair values ------------------------------------------

def test_twist_rejects_homologically_nontrivial_lift(table3):
    with pytest.raises(NotInFiltration):
        twist_value(table3, SeparatingTwist(parse_word("a1+")))


def test_twist_degree2_value(table3, lifts):
    tw = twist_value(table3, SeparatingTwist(lifts["gamma3"]))
    ctx = table3.ctx
    om1 = ctx.gen_a(1).bracket(ctx.gen_b(1))
    expected = join(om1, om1) * Fraction(1, 2)
    assert tw.part(2).equals(expected)
    # theta_3 of this lift vanishes, so the degree-3 part is zero
    assert tw.part(3).terms == {}


def test_twist_gamma1_degree3_is_integral(table3, lifts):
    tw = twist_value(table3, SeparatingTwist(lifts["gamma1"]))
    dv = tw.part(3).eta()
    zero_target = dv - dv
    assert congruent_mod_trees(dv, zero_target)


def test_twist_power_is_scaling(table3, lifts):
    # powers of a single twist commute, so the BCH power collapses to a scale
    t1 = twist_value(table3, SeparatingTwist(lifts["gamma3"]))
    t3 = twist_value(table3, SeparatingTwist(lifts["gamma3"], 3))
    tm1 = twist_value(table3, SeparatingTwist(lifts["gamma3"], -1))
    for d in range(2, 4):
        assert t3.part(d).equals(t1.part(d) * 3)
        assert tm1.part(d).equals(t1.part(d) * -1)
    # bounding-pair powers against the iterated BCH product
    b1 = bounding_pair_value(table3, lifts["p1"])
    for n in (7, -5):
        power = bounding_pair_value(
            table3, BoundingPairMap(lifts["p1"].gamma, lifts["p1"].c, n))
        base = b1 if n > 0 else b1.inverse()
        reference = base
        for _ in range(abs(n) - 1):
            reference = reference.bch(base)
        assert (power.depth, power.known) == (reference.depth, reference.known)
        for d in range(reference.depth, reference.known + 1):
            assert power.part(d).equals(reference.part(d))
    # a huge power costs no more than a single twist
    big = twist_value(table3, SeparatingTwist(lifts["gamma3"], 10 ** 6))
    for d in range(2, 4):
        assert big.part(d).equals(t1.part(d) * 10 ** 6)


@pytest.mark.parametrize("power", [2.5, "2", True, None])
def test_power_must_be_an_integer(power):
    with pytest.raises(ValueError):
        SeparatingTwist(parse_word("a1+b1+a1-b1-"), power)
    with pytest.raises(ValueError):
        BoundingPairMap(parse_word("a3+"), parse_word(""), power)


def test_bp_tau1_values(table3, lifts):
    ctx = table3.ctx
    a1, a2, a3 = ctx.gen_a(1), ctx.gen_a(2), ctx.gen_a(3)
    b1 = ctx.gen_b(1)
    p1 = bounding_pair_value(table3, lifts["p1"])
    expected = join(a3, a1.bracket(b1 - a2)) * -1
    assert p1.part(1).equals(expected)
    p2 = bounding_pair_value(table3, lifts["p2"])
    expected2 = join(a3, a1.bracket(b1)) * -1
    assert p2.part(1).equals(expected2)


def test_bp_trivial_ratio_gives_zero(table3):
    bp = BoundingPairMap(parse_word("a3+"), parse_word(""))
    val = bounding_pair_value(table3, bp)
    assert val.part(1).terms == {}
    assert val.part(2).terms == {}


def test_bp_p2_degree2_class(table3, lifts):
    ctx = table3.ctx
    a1, a3 = ctx.gen_a(1), ctx.gen_a(3)
    b1, b3 = ctx.gen_b(1), ctx.gen_b(3)
    p2 = bounding_pair_value(table3, lifts["p2"])
    target = (join(a3.bracket(b3), a1.bracket(b1))
              + join(a1.bracket(b1), a1.bracket(b1))) * Fraction(1, 2)
    assert congruent_mod_trees(p2.part(2).eta(), target.eta())


def test_bp_two_route_equality(rng):
    # displayed formulas == difference of half self-joins, degreewise
    table = get_table(2, 3)
    checked = 0
    while checked < 40:
        gamma = rand_word(2, rng, rng.randint(1, 3))
        c = rand_null_word(2, rng, rng.randint(1, 2))
        th_c = theta(c, table)
        if th_c.degree_part(2).is_zero() and rng.random() < 0.8:
            continue  # keep mostly informative samples
        bp = bounding_pair_value(table, BoundingPairMap(gamma, c))
        th_g = theta(gamma, table)
        th_d = theta(gamma * c, table)
        twist_diff = (join(th_g, th_g, allow_degree0=True)
                      - join(th_d, th_d, allow_degree0=True)) * Fraction(1, 2)
        assert twist_diff.degree_part(0).terms == {}
        for d in (1, 2):
            assert bp.part(d).equals(twist_diff.degree_part(d))
        checked += 1


# --- composition --------------------------------------------------------------

def test_compose_with_inverse_is_zero(table3, lifts):
    val = factor_value(table3, lifts["k"])
    total = val.bch(val.inverse())
    for d in range(total.depth, total.known + 1):
        assert all(v.is_zero() for v in total.part(d).eta_graded().values())


def test_compose_r2_formula(table3, lifts):
    # degree-2 part of the product is r2(P1) - r2(P2) - [tau1 P1, tau1 P2]/2
    p1 = bounding_pair_value(table3, lifts["p1"])
    p2 = bounding_pair_value(table3, lifts["p2"])
    value_i = p1.bch(p2.inverse())
    explicit = (p1.part(2) - p2.part(2)
                - p1.part(1).bracket(p2.part(1)) * Fraction(1, 2))
    assert value_i.part(2).equals(explicit)


def test_commutator_against_bch_route(rng):
    # on fully known windows the word expansion agrees with composing
    genus = 2
    pool = twist_pool(genus, 4, 6)
    for _ in range(60):
        u, v = rng.choice(pool), rng.choice(pool)
        via_words = u.commutator(v)
        via_bch = u.bch(v).bch(u.inverse()).bch(v.inverse())
        for d in range(via_bch.depth, via_bch.known + 1):
            assert via_words.part(d).equals(via_bch.part(d))


def test_truncation_identity(rng):
    # r4(fh) = r4(f) + r4(h) + [tau2 f, tau2 h]/2 for kernel values
    pool = twist_pool(2, 4, 8)
    for _ in range(40):
        f, h = rng.choice(pool), rng.choice(pool)
        fh = f.bch(h)
        correction = f.part(2).bracket(h.part(2)) * Fraction(1, 2)
        lhs = fh.part(4)
        rhs = f.part(4) + h.part(4) + correction
        assert lhs.equals(rhs)


def test_degree23_homomorphism(rng):
    # degrees 2 and 3 of the composition are additive on kernel values
    pool = twist_pool(2, 4, 8)
    for _ in range(40):
        f, h = rng.choice(pool), rng.choice(pool)
        fh = f.bch(h)
        for d in (2, 3):
            assert fh.part(d).equals(f.part(d) + h.part(d))


def test_conjugation_two_routes(rng):
    pool = twist_pool(2, 4, 6)
    for _ in range(25):
        f, h = rng.choice(pool), rng.choice(pool)
        direct = h.conjugate_by(f)
        composed = f.bch(h).bch(f.inverse())
        for d in range(composed.depth, composed.known + 1):
            assert direct.part(d).equals(composed.part(d))
    ident = GradedValue.zero(2)
    h = pool[0]
    conj = h.conjugate_by(ident)
    for d in range(h.depth, h.known + 1):
        assert conj.part(d).equals(h.part(d))


def test_conjugation_is_the_exponential_series(table34, lifts):
    # compose prints the symbolic trees, so conjugation must give the very
    # tree sums of h + [f,h] + [f,[f,h]]/2 + [f,[f,[f,h]]]/6, not only equal
    # ones; the bounding pair's partial window exercises the window rules
    pool = twist_pool(2, 4, 6)
    bp = factor_value(table34, lifts["p1"])
    tw = factor_value(table34, SeparatingTwist(lifts["gamma1"]))
    for f, h in ((pool[0], pool[1]), (pool[2], pool[3]), (bp, tw), (tw, bp)):
        ffh = f.bracket(f.bracket(h))
        expected = (h + f.bracket(h) + ffh * Fraction(1, 2)
                    + f.bracket(ffh) * Fraction(1, 6))
        got = h.conjugate_by(f)
        assert (got.depth, got.known) == (expected.depth, expected.known)
        assert ({d: p.terms for d, p in got.parts.items()}
                == {d: p.terms for d, p in expected.parts.items()})


def test_group_operations_bracket_each_subtree_once(monkeypatch):
    # the class-4 series share sub-brackets: BCH needs [x,y], [x,[x,y]],
    # [[x,y],y] and [x,[[x,y],y]]; the commutator six; conjugation three
    f, h = twist_pool(2, 4, 6)[:2]
    calls = []
    real = GradedValue.bracket

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(GradedValue, "bracket", counting)
    for op, expected in (("bch", 4), ("commutator", 6), ("conjugate_by", 3)):
        calls.clear()
        getattr(f, op)(h)
        assert len(calls) == expected, op


# --- tau and R ----------------------------------------------------------------

def test_tau_values(table3, lifts):
    value_i = factor_value(table3, lifts["i"])
    t1 = tau(value_i, 1)
    assert tau_is_integral(t1)
    value_k = factor_value(table3, lifts["k"])
    t2 = tau(value_k, 2)
    assert tau_is_integral(t2)
    with pytest.raises(NotInFiltration):
        tau(value_i, 2)


def test_r_requires_kernel_value(table3, lifts):
    value_i = factor_value(table3, lifts["i"])
    with pytest.raises(NotInFiltration):
        r_mod1(value_i)


def test_r_of_identity_is_zero():
    result = r_mod1(GradedValue.zero(3))
    assert result.is_zero


def test_r_vanishes_on_single_commutators(rng):
    pool = twist_pool(2, 4, 8)
    for _ in range(40):
        f, h = rng.choice(pool), rng.choice(pool)
        result = r_mod1(f.commutator(h))
        assert result.is_zero


def test_r_vanishes_on_gamma34_commutator(table34, lifts):
    f = twist_value(table34, SeparatingTwist(lifts["gamma3"]))
    h = twist_value(table34, SeparatingTwist(lifts["gamma4"]))
    assert r_mod1(f.commutator(h)).is_zero


def test_r_circ_additive(rng):
    pool = twist_pool(2, 4, 6)
    for _ in range(25):
        f, h = rng.choice(pool), rng.choice(pool)
        rf, rh = r_circ_mod1(f), r_circ_mod1(h)
        rfh = r_circ_mod1(f.bch(h))
        total = rf.derivation + rh.derivation
        diff = rfh.derivation - total
        from torelli.trees import tree_lattice
        ok = True
        for md in diff.multidegrees():
            lat = tree_lattice(2, 4, md)
            ok = ok and lat.contains(diff.component_vector(md))
        assert ok


def test_r_circ_membership_on_twist(table34, lifts):
    val = twist_value(table34, SeparatingTwist(lifts["gamma3"]))
    result = r_circ_mod1(val)
    assert result.odd_denominators == []
    assert isinstance(result.is_zero, bool)


def test_r_circ_equals_r_in_deep_filtration(table3, lifts):
    value_i = factor_value(table3, lifts["i"])
    value_k = factor_value(table3, lifts["k"])
    phi = value_i.commutator(value_k)
    assert phi.part(2).terms == {}
    assert r_mod1(phi).derivation == r_circ_mod1(phi).derivation


# --- the Casson-derived homomorphisms ----------------------------------------

def test_genus_of_lift(table3, lifts):
    assert genus_of_lift(table3, lifts["gamma3"]) == 1
    assert genus_of_lift(table3, lifts["gamma4"]) == 1
    assert genus_of_lift(table3, lifts["gamma1"]) == 2
    assert genus_of_lift(table3, lifts["gamma2"]) == 2
    assert genus_of_lift(table3, parse_word("")) == 0


def test_d_values(table3, lifts):
    t3 = SeparatingTwist(lifts["gamma3"])
    t1 = SeparatingTwist(lifts["gamma1"])
    assert d_hom(table3, t3) == 0
    assert d_prime(table3, t3) == 3
    assert d_bar(table3, t1) == 2
    assert d_hom(table3, t1) == 8
    assert d_hom(table3, SeparatingTwist(lifts["gamma1"], -2)) == -16
    word = Product([t1, Inverse(t3)])
    assert d_hom(table3, word) == 8
    assert d_hom(table3, lifts["phi"]) == 0
    assert d_bar(table3, lifts["phi"]) == 0
    assert d_hom(table3, lifts["i"]) is None  # bounding pairs carry no value


# --- the degree-3 trace --------------------------------------------------------

def test_tr3_vanishing_chain():
    # chain (a1, b1, a2, a3, b3): every pairing vanishes
    ts = TreeSum.single(3, (1, 4), (2, (3, 6)))
    assert tr3(ts) == {}


def test_tr3_direct_formula():
    # chain (a1, a2, a3, b2, b1): two pairings survive
    ts = TreeSum.single(3, (1, 2), (3, (5, 4)))
    expected = {tuple(sorted((2, 3, 5))): Fraction(-2),
                tuple(sorted((1, 3, 4))): Fraction(-2)}
    assert tr3(ts) == expected


def test_tr3_kills_johnson_image(rng):
    # tau_3 of commutators [bounding pair, twist] lies in the trace kernel
    table = get_table(2, 3)
    pool = []
    tries = random.Random(SEED + 1)
    while len(pool) < 8:
        gamma = rand_word(2, tries, tries.randint(1, 3))
        c = rand_null_word(2, tries, 2)
        try:
            bp = bounding_pair_value(table, BoundingPairMap(gamma, c))
        except NotInFiltration:
            continue
        pool.append(bp)
    twists = twist_pool(2, 3, 8)
    for _ in range(40):
        bp, tw = rng.choice(pool), rng.choice(twists)
        commutator = bp.commutator(tw)
        t3_part = commutator.part(3)
        if not t3_part.terms:
            continue
        assert tr3(t3_part) == {}


# --- the full construction -----------------------------------------------------

def test_theorem_b_report_passes(table3):
    stages, rep = theorem_b_report(table3)
    assert all(s["ok"] for s in stages), [s for s in stages if not s["ok"]]


def test_tree_memo_matches_fresh_evaluation(table3):
    # from_tree hands out shared memoized elements: after a full report none
    # of them may have been mutated by a caller
    theorem_b_report(table3)
    checked = 0
    for degree in range(1, MAX_CLASS + 1):
        fresh = LieContext(3, degree)
        for tree, value in get_context(3, degree)._tree_memo.items():
            assert value.terms == fresh.from_tree(tree).terms, tree
            checked += 1
    assert checked


def test_phi_r4_stable_at_degree4_table(table34):
    rep3 = build_phi(get_table(3, 3))
    rep4 = build_phi(table34)
    assert rep3["r4_phi"].equals(rep4["r4_phi"])
    assert rep3["varpi_bits"] == rep4["varpi_bits"]


def test_phi_at_genus_four():
    rep = build_phi(get_table(4, 3))
    assert not rep["R"].is_zero
    assert rep["varpi_bits"] == rep["varpi_expected_bits"]
    assert rep["closed_bits"] == rep["closed_expected_bits"] != 0


def test_phi_needs_genus_three():
    with pytest.raises(ValueError):
        phi_data(2)


def test_tr3_kills_omega_vertex_trees(rng):
    # the trace factors through the closed-surface quotient: diagrams whose
    # distinguished leaf is the expanded pairing die
    g = 3
    for _ in range(30):
        x, y, z = (rng.randint(1, 2 * g) for _ in range(3))
        acc = TreeSum(g)
        for i in range(1, g + 1):
            acc = acc + TreeSum.single(g, (x, y), (z, (g + i, i)))
        if not acc.terms:
            continue
        assert tr3(acc) == {}


def test_theorem_b_report_genus_four():
    stages, _ = theorem_b_report(get_table(4, 3))
    assert all(s["ok"] for s in stages), [s for s in stages if not s["ok"]]
