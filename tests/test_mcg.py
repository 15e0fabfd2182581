import random
from fractions import Fraction

import pytest

from conftest import (SEED, rand_null_word, rand_tree_sum, rand_word,
                      twist_lifts, twist_pool)
from tensor_oracle import (_expand_tree, decompose, is_symplectic, t_mul,
                           to_tensor)
from torelli.lie import (MAX_CLASS, DegreeCapError, LieContext, _bracket_words,
                         evaluate, get_context, lyndon_words,
                         standard_bracketing, t_add_into)
from torelli.mcg import (BoundingPairMap, Commutator, Conjugate, GradedValue,
                         Inverse, NotInFiltration, Product, SeparatingTwist,
                         WindowUnderflow, bounding_pair_value, build_phi,
                         casson_values, factor_value, genus_of_lift, phi_data,
                         r_circ_mod1, r_mod1, tau, theorem_b_report, tr3,
                         twist_value)
from torelli.sp_mod2 import _l3_basis, _l3_index
from torelli.trees import TreeSum, congruent_mod_trees, join, tree_lattice
from torelli.words import get_table, parse_word, theta


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
        base = b1 if n > 0 else -b1
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


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_values_join_only_inside_their_window(genus, degree):
    # against the whole joins, out-of-window degrees dropped afterwards
    table = get_table(genus, degree)
    rng = random.Random(SEED)

    def graded(ts, depth, known, power):
        parts = {d: ts.degree_part(d) for d in ts.degrees()}
        return GradedValue(genus, parts, depth, known) * power

    def terms(value):
        return (value.depth, value.known,
                {d: p.terms for d, p in value.known_parts().items()})

    for lift in twist_lifts(genus, 4):
        power = rng.randint(1, 3)
        th = theta(lift, table)
        old = graded(join(th, th) * Fraction(1, 2), 2, degree, power)
        new = twist_value(table, SeparatingTwist(lift, power))
        assert terms(new) == terms(old)
    for _ in range(4):
        gamma = rand_word(genus, rng, rng.randint(1, 3))
        c = rand_null_word(genus, rng)
        power = rng.randint(1, 3)
        known = min(degree - 1, 2)
        th_g = theta(gamma, table).truncated(known)
        th_c = theta(c, table).truncated(known + 1)
        old = graded(-join(th_g, th_c) - join(th_c, th_c) * Fraction(1, 2),
                     1, known, power)
        new = bounding_pair_value(table, BoundingPairMap(gamma, c, power))
        assert terms(new) == terms(old)


# --- composition --------------------------------------------------------------

def test_compose_with_inverse_is_zero(table3, lifts):
    val = factor_value(table3, lifts["k"])
    total = val.bch(-val)
    for d in range(total.depth, total.known + 1):
        assert all(v.is_zero() for v in total.part(d).eta_graded().values())


def test_compose_r2_formula(table3, lifts):
    # degree-2 part of the product is r2(P1) - r2(P2) - [tau1 P1, tau1 P2]/2
    p1 = bounding_pair_value(table3, lifts["p1"])
    p2 = bounding_pair_value(table3, lifts["p2"])
    value_i = p1.bch(-p2)
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
        via_bch = u.bch(v).bch(-u).bch(-v)
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
        composed = f.bch(h).bch(-f)
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
    assert t1.is_integral() and is_symplectic(t1)
    value_k = factor_value(table3, lifts["k"])
    t2 = tau(value_k, 2)
    assert t2.is_integral() and is_symplectic(t2)
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
    # triples (d, d', dbar); T_gamma3 has genus 1 and T_gamma1 genus 2
    t3 = SeparatingTwist(lifts["gamma3"])
    t1 = SeparatingTwist(lifts["gamma1"])
    assert casson_values(table3, t3) == (0, 3, 2)
    assert casson_values(table3, t1) == (8, 10, 2)
    assert casson_values(table3, SeparatingTwist(lifts["gamma1"], -2)) == (
        -16, -20, -4)
    word = Product([t1, Inverse(t3)])
    assert casson_values(table3, word) == (8, 7, 0)
    assert casson_values(table3, lifts["phi"]) == (0, 0, 0)
    assert casson_values(table3, lifts["i"]) is None  # bounding pairs carry no value


def _dbar_formula(genus, d, d_prime):
    """The closed-surface combination -(1+2g)/12 d + (g-1)/3 d' in exact
    rationals, as it was evaluated before dbar joined the triple."""
    val = Fraction(-(1 + 2 * genus), 12) * d + Fraction(genus - 1, 3) * d_prime
    assert val.denominator == 1, val
    return val.numerator


@pytest.mark.parametrize("genus", [3, 4, 5])
def test_casson_triple_against_dbar_formula(genus):
    rng = random.Random(SEED + genus)
    table = get_table(genus, 2)
    data = phi_data(genus)
    leaves = ([SeparatingTwist(w, rng.choice((-2, -1, 1, 2)))
               for w in twist_lifts(genus, 6)]
              + [SeparatingTwist(data[f"gamma{i}"], rng.choice((-1, 1)))
                 for i in range(1, 5)]
              + [data["k"], data["phi"]])

    def rand_factor(depth):
        if depth == 0:
            return rng.choice(leaves)
        kind = rng.randrange(4)
        if kind == 0:
            return Product([rand_factor(depth - 1)
                            for _ in range(rng.randint(1, 3))])
        if kind == 1:
            return Inverse(rand_factor(depth - 1))
        pair = rand_factor(depth - 1), rand_factor(depth - 1)
        return Conjugate(*pair) if kind == 2 else Commutator(*pair)

    for _ in range(40):
        d, d_prime, dbar = casson_values(table, rand_factor(rng.randint(0, 3)))
        assert dbar == _dbar_formula(genus, d, d_prime)


@pytest.mark.parametrize("genus", [3, 4, 5])
def test_casson_triple_on_twists_of_known_genus(genus):
    # the curve around the first h handles bounds a subsurface of genus h
    table = get_table(genus, 2)
    for h in range(genus + 1):
        lift = parse_word("".join(f"a{i}+b{i}+a{i}-b{i}-"
                                  for i in range(1, h + 1)))
        assert genus_of_lift(table, lift) == h
        for power in (-2, 1, 3):
            d, d_prime, dbar = casson_values(table,
                                             SeparatingTwist(lift, power))
            assert (d, d_prime) == (power * 4 * h * (h - 1),
                                    power * h * (2 * h + 1))
            assert dbar == power * h * (genus - h)
            assert dbar == _dbar_formula(genus, d, d_prime)


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


def _oracle_tr3(ts):
    """Morita's trace through the tensor algebra: the words z x y w of the
    tensor expansion of eta(ts)(z), read as the monomials xyw."""
    out = {}
    dv = ts.eta()
    for z in range(1, 2 * ts.genus + 1):
        num, den = to_tensor(dv.value_on_letter(z))
        for word, c in num.items():
            if word[0] == z:
                t_add_into(out, {tuple(sorted(word[1:])): Fraction(c, den)})
    return out


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_tr3_against_the_tensor_contraction(genus):
    rng = random.Random(SEED + genus)
    nonzero = 0
    for _ in range(50):
        ts = rand_tree_sum(genus, rng, 3, terms=rng.randint(1, 3))
        if not ts.terms:
            continue
        trace = tr3(ts)
        assert trace == _oracle_tr3(ts)
        assert all(type(c) is Fraction for c in trace.values())
        nonzero += bool(trace)
    assert nonzero > 10


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


def test_theorem_b_report_asks_each_question_once(table3, monkeypatch):
    # one Casson triple per factor (phi, T_gamma3, T_gamma1), the four lift
    # genera plus the six twists those factors hold, one presentation solve
    from torelli import mcg
    calls = {"casson": 0, "genus_of_lift": 0, "varpi": 0}
    nesting = []
    real_casson, real_genus, real_varpi = (mcg.casson_values,
                                           mcg.genus_of_lift, mcg.varpi)

    def casson(table, factor):
        calls["casson"] += not nesting
        nesting.append(factor)
        try:
            return real_casson(table, factor)
        finally:
            nesting.pop()

    def genus(table, lift):
        calls["genus_of_lift"] += 1
        return real_genus(table, lift)

    def varpi(dv):
        calls["varpi"] += 1
        return real_varpi(dv)

    monkeypatch.setattr(mcg, "casson_values", casson)
    monkeypatch.setattr(mcg, "genus_of_lift", genus)
    monkeypatch.setattr(mcg, "varpi", varpi)
    stages, _ = theorem_b_report(table3)
    assert all(s["ok"] for s in stages)
    assert calls == {"casson": 3, "genus_of_lift": 10, "varpi": 1}


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


def test_structure_constants_match_fresh_evaluation(table3):
    # the word brackets are cached once per process and shared by every
    # context, so a fresh context reads the same entries: after a full report
    # each must still equal the commutator of the two tensor expansions
    theorem_b_report(table3)
    assert _bracket_words.cache_info().currsize
    fresh = {w: _expand_tree(standard_bracketing(w))
             for w in lyndon_words(6, 5)}
    for w1, p1 in fresh.items():
        for w2, p2 in fresh.items():
            n = len(w1) + len(w2)
            if n > 5:
                continue
            comm = t_mul(p1, p2, n)
            t_add_into(comm, t_mul(p2, p1, n), -1)
            assert _bracket_words(w1, w2) == decompose(comm), (w1, w2)


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


def _sigma(genus):
    """The letter map sigma_g of phi_data: i -> i and 3 + i -> g + i."""
    return lambda x: x if x <= 3 else x - 3 + genus


def _sigma_tree(genus, tree):
    return evaluate(tree, _sigma(genus), lambda u, v: (u, v), {})


def _sigma_md(genus, md):
    out = [0] * (2 * genus)
    for letter, c in enumerate(md, 1):
        out[_sigma(genus)(letter) - 1] = c
    return tuple(out)


def _moved_l3_bits(bits, n, m, letter_map=lambda x: x):
    """L_3 mod 2 bits over the words on n letters, each word moved by
    letter_map into the words on m letters."""
    return sum(1 << _l3_index(m, tuple(map(letter_map, w)))
               for w in _l3_basis(n) if bits >> _l3_index(n, w) & 1)


@pytest.fixture(scope="module")
def genus3_report():
    return theorem_b_report(get_table(3, 3))


@pytest.mark.parametrize("genus", [4, 5, 8, 30])
def test_theorem_b_at_genus_g_is_sigma_of_genus3(genus, genus3_report):
    # the every-genus argument of phi_data, checked on its objects: sigma_g
    # carries each genus-3 object onto the genus-g one
    (stages3, rep3), (stages, rep) = (genus3_report,
                                      theorem_b_report(get_table(genus, 3)))
    sigma = _sigma(genus)
    for name in ("value_i", "value_k", "value_phi"):
        v3, v = rep3[name], rep[name]
        assert (v.depth, v.known) == (v3.depth, v3.known)
        for d, part in v3.known_parts().items():
            assert v.part(d).terms == {
                (_sigma_tree(genus, u), _sigma_tree(genus, w)): c
                for (u, w), c in part.terms.items()}, (name, d)
    r3, r = rep3["R"], rep["R"]
    assert r.derivation.terms == {
        (sigma(h), tuple(map(sigma, w))): c
        for (h, w), c in r3.derivation.terms.items()}
    assert r.failing_multidegrees == tuple(
        _sigma_md(genus, md) for md in r3.failing_multidegrees)
    for md in r3.failing_multidegrees:
        assert (tree_lattice(genus, 4, _sigma_md(genus, md)).rows
                == tree_lattice(3, 4, md).rows)
    for bits in ("varpi_bits", "varpi_expected_bits"):
        assert rep[bits] == _moved_l3_bits(rep3[bits], 6, 2 * genus, sigma)
    for bits in ("closed_bits", "closed_expected_bits"):  # the a letters stay
        assert rep[bits] == _moved_l3_bits(rep3[bits], 3, genus)
    assert [(s["stage"], s["ok"]) for s in stages] == \
        [(s["stage"], s["ok"]) for s in stages3]
    spots = next(s for s in stages if s["stage"] == "d-spot-values")
    assert spots["ok"]
    assert spots["detail"].startswith(f"computed {(0, 3, 2 * (genus - 2))}")


def test_phi_needs_genus_three():
    with pytest.raises(DegreeCapError):
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
