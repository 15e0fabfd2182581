import random
from fractions import Fraction
from itertools import product
from math import factorial, gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import SEED, rand_lie, run_python
from tensor_oracle import (_expand_tree, decompose, lie_terms, t_exp, t_log,
                           t_mul, to_tensor)
from torelli.lie import (MAX_CLASS, ContextMismatch, DegreeCapError,
                         LieContext, LieElement, _bracket_words,
                         _lyndon_words_of_content, _numerators, _over,
                         bch_series, get_context, ideal_omega_component,
                         is_lyndon, lbar_rank, lyndon_words,
                         standard_bracketing, t_add_into, witt_rank)
from torelli.trees import DerivationElement, TreeSum, join
from torelli.words import get_table, parse_word, theta


def test_lyndon_words_examples():
    g1 = get_context(1, 3)
    assert g1.lyndon_basis(2) == ((1, 2),)
    assert g1.lyndon_basis(1) == ((1,), (2,))
    assert len(get_context(3, 3).lyndon_basis(3)) == 70


def test_lyndon_enumeration_is_lex_sorted_and_lyndon():
    for g, d in [(1, 4), (2, 3), (3, 2)]:
        words = get_context(g, 5).lyndon_basis(d)
        assert list(words) == sorted(words)
        assert all(is_lyndon(w) for w in words)
        # independent count: filter all words of length d by the Lyndon test
        count = sum(1 for w in product(range(1, 2 * g + 1), repeat=d)
                    if is_lyndon(w))
        assert len(words) == count == witt_rank(2 * g, d)


def test_lyndon_words_of_content_against_duval():
    # every content over k <= 4 letters of total length n <= 6: the
    # fixed-content listing is the content filter of Duval's listing, in order
    for k in range(1, 5):
        words = lyndon_words(k, 6)
        for counts in product(range(7), repeat=k):
            n = sum(counts)
            if n > 6:
                continue
            expected = [w for w in words if len(w) == n and all(
                w.count(i + 1) == c for i, c in enumerate(counts))]
            assert list(_lyndon_words_of_content(counts)) == expected, counts


def test_lyndon_words_of_content_examples():
    # zero counts between the letters are skipped, not listed
    assert list(_lyndon_words_of_content((1, 0, 2, 0, 1))) == [
        (1, 3, 3, 5), (1, 3, 5, 3), (1, 5, 3, 3)]
    assert list(_lyndon_words_of_content((0, 2, 0, 1))) == [(2, 2, 4)]
    # one letter: a Lyndon word only once, never repeated
    assert list(_lyndon_words_of_content((0, 0, 1))) == [(3,)]
    assert list(_lyndon_words_of_content((0, 3))) == []
    assert list(_lyndon_words_of_content((0, 0))) == []


def test_standard_bracketing_examples():
    assert standard_bracketing((1, 2)) == (1, 2)
    assert standard_bracketing((1, 1, 2)) == (1, (1, 2))
    assert standard_bracketing((1, 2, 2)) == ((1, 2), 2)
    with pytest.raises(ValueError):
        standard_bracketing((2, 1))


def test_rank_matches_witt():
    for g in (1, 2, 3):
        ctx = get_context(g, 5)
        for d in range(1, 6):
            assert len(ctx.lyndon_basis(d)) == witt_rank(2 * g, d)


def test_witt_examples():
    assert witt_rank(6, 3) == 70
    assert witt_rank(2, 1) == 2
    assert witt_rank(3, 3) == 8
    assert witt_rank(6, 5) == 1554
    for n, d in ((0, 3), (2, 0), (-1, 2)):
        with pytest.raises(ValueError):
            witt_rank(n, d)


def test_bracket_generators():
    ctx = get_context(3, 4)
    x = ctx.gen_a(1).bracket(ctx.gen_b(1))
    assert x == ctx.monomial((1, 4))


def test_bracket_alternating():
    ctx = get_context(2, 4)
    rng = random.Random(SEED)
    for _ in range(50):
        x = rand_lie(ctx, rng)
        assert x.bracket(x).is_zero()


def test_bracket_jacobi_rewrite_against_tensor_oracle():
    # [[a1,a2],a3] must equal [a1,[a2,a3]] + [[a1,a3],a2]; both sides are
    # compared through their raw tensor expansions, independent of the
    # Lyndon-basis rewriting.
    ctx = get_context(3, 3)
    a1, a2, a3 = ctx.gen_a(1), ctx.gen_a(2), ctx.gen_a(3)
    lhs = a1.bracket(a2).bracket(a3)
    rhs = a1.bracket(a2.bracket(a3)) + a1.bracket(a3).bracket(a2)
    assert lhs == rhs

    def tensor_comm(p, q):
        out = t_mul(p, q, 3)
        t_add_into(out, t_mul(q, p, 3), -1)
        return out

    t1, t2, t3 = {(1,): Fraction(1)}, {(2,): Fraction(1)}, {(3,): Fraction(1)}
    oracle = tensor_comm(tensor_comm(t1, t2), t3)
    assert to_tensor(lhs) == (oracle, 1)


@pytest.mark.parametrize("letters", [8, 10])
def test_bracket_words_against_tensor_route(letters):
    # the rewriting on standard factorizations against the commutator of the
    # two tensor expansions, decomposed back, on seeded random pairs of total
    # length <= 5; and [w2, w1] = -[w1, w2]
    rng = random.Random(SEED + letters)
    words = lyndon_words(letters, 4)
    for _ in range(300):
        w1 = rng.choice(words)
        w2 = rng.choice([w for w in words if len(w1) + len(w) <= 5])
        p1, p2 = (_expand_tree(standard_bracketing(w)) for w in (w1, w2))
        n = len(w1) + len(w2)
        comm = t_mul(p1, p2, n)
        t_add_into(comm, t_mul(p2, p1, n), -1)
        assert _bracket_words(w1, w2) == decompose(comm), (w1, w2)
        assert _bracket_words(w2, w1) == \
            {w: -c for w, c in _bracket_words(w1, w2).items()}, (w1, w2)


def test_t_mul_against_pairwise_product():
    # t_mul walks q by word length and stops at the first length past the
    # room left; the oracle multiplies every pair and drops the long ones.
    # Like every tensor polynomial here, p and q hold nonzero coefficients.
    rng = random.Random(SEED)
    for _ in range(200):
        # two letters and short words, so products collide and cancel
        p, q = ({tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))):
                 Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
                 for _ in range(rng.randint(0, 8))} for _ in range(2))
        cap = rng.randint(0, 6)
        oracle = {}
        for w1, c1 in p.items():
            for w2, c2 in q.items():
                if len(w1) + len(w2) <= cap:
                    t_add_into(oracle, {w1 + w2: c1 * c2})
        assert t_mul(p, q, cap) == {w: c for w, c in oracle.items() if c}


def test_bracket_properties_random():
    rng = random.Random(SEED)
    ctx = get_context(2, 4)
    for _ in range(200):
        x, y, z = (rand_lie(ctx, rng) for _ in range(3))
        assert x.bracket(y) == -(y.bracket(x))
        c = Fraction(rng.randint(-3, 3))
        assert (x * c).bracket(y) == x.bracket(y) * c
        jac = (x.bracket(y).bracket(z) + y.bracket(z).bracket(x)
               + z.bracket(x).bracket(y))
        assert jac.is_zero()


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        get_context(2, 3).gen_a(1).bracket(get_context(2, 4).gen_a(1))


def test_range_and_space_checks_survive_optimize():
    # each check is an explicit raise, so python -O refuses the same inputs
    code = (
        "from torelli.lie import ContextMismatch, get_context\n"
        "from torelli.mcg import GradedValue\n"
        "ctx = get_context(3, 3)\n"
        "checks = {\n"
        "    'lyndon_basis': lambda: ctx.lyndon_basis(0),\n"
        "    'gen_a': lambda: ctx.gen_a(4),\n"
        "    'gen_b': lambda: ctx.gen_b(0),\n"
        "    'generator': lambda: ctx.generator(0),\n"
        "    'add': lambda: GradedValue.zero(2) + GradedValue.zero(3),\n"
        "    'bracket': lambda: GradedValue.zero(2).bracket(GradedValue.zero(3)),\n"
        "}\n"
        "for name, check in checks.items():\n"
        "    try:\n"
        "        check()\n"
        "    except ContextMismatch:\n"
        "        print(name, 'ContextMismatch')\n"
        "    except ValueError:\n"
        "        print(name, 'ValueError')\n")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n") == [
        "lyndon_basis ValueError", "gen_a ValueError", "gen_b ValueError",
        "generator ValueError", "add ContextMismatch",
        "bracket ContextMismatch", ""]


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        LieContext(2, 6)


def test_bch_examples():
    ctx = get_context(1, 3)
    x, y = ctx.gen_a(1), ctx.gen_b(1)
    z = x.bch(y)
    expected = (x + y + x.bracket(y) * Fraction(1, 2)
                + x.bracket(x.bracket(y)) * Fraction(1, 12)
                + y.bracket(y.bracket(x)) * Fraction(1, 12))
    assert z == expected
    assert x.bch(ctx.zero()) == x
    assert x.bch(-x).is_zero()


def test_bch_associativity_random():
    rng = random.Random(SEED)
    for _ in range(200):
        g = rng.choice((1, 2))
        n = rng.choice((3, 4))
        ctx = get_context(g, n)
        x, y, z = (rand_lie(ctx, rng, terms=2) for _ in range(3))
        assert x.bch(y).bch(z) == x.bch(y.bch(z))


def test_rooted_terms_roundtrip():
    rng = random.Random(SEED)
    ctx = get_context(2, 4)
    for _ in range(100):
        x = rand_lie(ctx, rng)
        total = ctx.zero()
        for c, tree in x.rooted_terms():
            total = total + ctx.from_tree(tree) * c
        assert total == x


def test_numerators_over_one_denominator():
    terms = {(1,): Fraction(-3, 4), (2,): 2, (1, 2): Fraction(5, 6),
             (1, 3): Fraction(-4, 1)}
    nums, den = _numerators(terms)
    assert den == 12 and nums == {(1,): -9, (2,): 24, (1, 2): 10, (1, 3): -48}
    assert all(type(c) is int for c in nums.values())
    back = _over(nums, den)
    assert back == terms and list(back) == list(terms)
    assert [type(c) for c in back.values()] == [Fraction, int, Fraction, int]
    assert _numerators({}) == ({}, 1)
    assert _numerators({(1,): -7}) == ({(1,): -7}, 1)
    assert _over({(1,): -7}, 1) == {(1,): -7}


def test_tensor_round_trip_through_lie_terms():
    rng = random.Random(SEED)
    for genus, cap in ((1, 3), (2, 4), (3, 5)):
        ctx = get_context(genus, cap)
        for k in range(60):
            dens = (1,) if k % 4 == 0 else (1, 2, 3, 4, 12)
            terms = {}
            for _ in range(rng.randint(0, 5)):
                word = rng.choice(ctx.lyndon_basis(rng.randint(1, cap)))
                terms[word] = Fraction(rng.choice((-7, -2, -1, 1, 3, 4)),
                                       rng.choice(dens))
            x = LieElement(ctx, terms)
            num, den = to_tensor(x)
            assert all(type(c) is int for c in num.values())
            if dens == (1,):
                assert den == 1
            back = lie_terms((num, den))
            assert back == x.terms
            assert not any(type(c) is Fraction and c.denominator == 1
                           for c in back.values())


def test_numerator_kernels_leave_no_integral_fraction():
    # bch (and so theta), join, bracket/contract and eta_graded divide once
    # per output coefficient, so what comes out integral is an int
    def integral_fractions(terms):
        return [c for c in terms.values()
                if type(c) is Fraction and c.denominator == 1]

    value = theta(parse_word("a1+b2-a1-b1+a2+"), get_table(3, 4))
    assert len(value.terms) == 67 and not integral_fractions(value.terms)
    ctx = get_context(3, 3)
    x = ctx.gen_a(1) * Fraction(2) + ctx.gen_a(2) * Fraction(1, 3)
    z = x.bch(ctx.gen_b(1) * Fraction(3))
    assert [type(z.terms[w]) for w in ((1, 4), (1, 1, 4), (2, 4))] == \
        [int, int, Fraction]
    assert not integral_fractions(z.terms)
    half = ctx.gen_a(1) * Fraction(1, 2)
    double = ctx.gen_b(1).bracket(ctx.gen_a(2)) * Fraction(2)
    joined = join(half, double)
    assert [type(c) for c in joined.terms.values()] == [int]
    halves = TreeSum(3, {((1, 2), (4, 5)): Fraction(1, 2)})
    doubles = TreeSum(3, {((1, 4), (2, 3)): Fraction(2)})
    for glued in (halves.bracket(doubles), halves.contract(doubles)):
        assert glued.terms and not integral_fractions(glued.terms)
    for ts in (joined, doubles):
        images = ts.eta_graded()
        assert images and all(not integral_fractions(dv.terms)
                              for dv in images.values())


def test_omega():
    assert get_context(1, 2).omega() == get_context(1, 2).monomial((1, 2))
    ctx = get_context(3, 2)
    om = (ctx.monomial((1, 4)) + ctx.monomial((2, 5)) + ctx.monomial((3, 6)))
    assert ctx.omega() == om
    assert ctx.omega().max_degree() == 2


def test_ideal_omega_component():
    ctx = get_context(1, 3)
    comp2 = ideal_omega_component(ctx, 2)
    assert comp2 == [ctx.omega()]
    # at genus 1 the degree-3 component of the ideal fills L_3
    assert lbar_rank(ctx, 3) == 0
    assert lbar_rank(get_context(3, 3), 3) == 64
    assert lbar_rank(get_context(2, 3), 3) == 16


def test_render_matches_display_grammar():
    ctx = get_context(3, 3)
    x = (ctx.gen_a(1) - ctx.monomial((1, 4), Fraction(1, 2))
         + ctx.monomial((1, 4, 4), Fraction(1, 12)))
    assert x.render() == "a1+(-1/2)*[a1,b1]+(1/12)*[[a1,b1],b1]"
    assert ctx.zero().render() == "0"
    assert (-ctx.monomial((1, 4))).render() == "0+(-1)*[a1,b1]"


def test_json_shape():
    ctx = get_context(2, 3)
    j = (ctx.gen_a(1) * Fraction(3, 2)).to_json()
    assert j == {"degree": 1, "terms": [{"word": [1], "num": 3, "den": 2}]}


# --- the integer tensor layer against the Fraction series --------------------

def _oracle_exp(p, cap):
    out, power = {(): Fraction(1)}, {(): Fraction(1)}
    for k in range(1, cap + 1):
        power = t_mul(power, p, cap)
        t_add_into(out, power, Fraction(1, factorial(k)))
    return out


def _oracle_log(p, cap):
    u = {w: c for w, c in p.items() if w}
    out, power = {}, {(): Fraction(1)}
    for k in range(1, cap + 1):
        power = t_mul(power, u, cap)
        t_add_into(out, power, Fraction((-1) ** (k + 1), k))
    return out


def _rational(pair):
    num, den = pair
    assert den > 0 and all(type(c) is int for c in num.values())
    return {w: Fraction(c, den) for w, c in num.items()}


def _lowest(pair):
    """The rational tensor of a pair that t_exp or t_log returned, which must
    be in lowest terms."""
    num, den = pair
    assert gcd(den, *num.values()) == 1, "not in lowest terms"
    return _rational(pair)


def _oracle_inputs(rng, genus, cap):
    """Random Lie elements, and at class <= 4 the expansion-table letter
    values (denominators 2, 4, 12, 24) alone and plus a random element."""
    ctx = get_context(genus, cap)
    out = [rand_lie(ctx, rng, terms=rng.randint(1, 4)) for _ in range(4)]
    if cap <= 4:
        table = get_table(genus, cap)
        for kind in "ab":
            value = table.letter_value(kind, rng.randint(1, genus),
                                       rng.choice((1, -1)))
            out += [value, value + rand_lie(ctx, rng, terms=2)]
    return out


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_integer_tensor_layer_against_fraction_series(genus, cap):
    rng = random.Random(SEED + 10 * genus + cap)
    xs = _oracle_inputs(rng, genus, cap)
    for x in xs:
        tensor = _rational(to_tensor(x))
        exp_x = t_exp(*to_tensor(x), cap)
        assert _lowest(exp_x) == _oracle_exp(tensor, cap)
        log_exp_x = t_log(*exp_x, cap)
        assert _lowest(log_exp_x) == _oracle_log(_oracle_exp(tensor, cap), cap)
        # log(exp x) = x, both in the tensor algebra and in the Lyndon basis
        assert _lowest(log_exp_x) == tensor
        assert lie_terms(log_exp_x) == x.terms
    for x, y in zip(xs, reversed(xs)):
        (p, dp), (q, dq) = (t_exp(*to_tensor(z), cap) for z in (x, y))
        log_prod = t_log(t_mul(p, q, cap), dp * dq, cap)
        prod = t_mul(_oracle_exp(_rational(to_tensor(x)), cap),
                     _oracle_exp(_rational(to_tensor(y)), cap), cap)
        assert _lowest(log_prod) == _oracle_log(prod, cap)
        assert x.bch(y) == LieElement(x.ctx, decompose(_oracle_log(prod, cap)))


def _oracle_bch(x, y):
    """log(exp x exp y) in the tensor algebra, back in the Lyndon basis."""
    cap = x.ctx.max_degree
    (p, dp), (q, dq) = (t_exp(*to_tensor(z), cap) for z in (x, y))
    return LieElement(x.ctx, lie_terms(t_log(t_mul(p, q, cap), dp * dq, cap)))


@pytest.mark.parametrize("cap", range(1, MAX_CLASS + 1))
def test_bch_series_against_the_tensor_oracle(cap):
    # Varadarajan's recursion against log(e^x e^y) on two free letters
    ctx = get_context(1, cap)
    z = _oracle_bch(ctx.generator(1), ctx.generator(2))
    assert bch_series(cap) == tuple((standard_bracketing(w), c)
                                    for w, c in sorted(z.terms.items()))


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def _bch_pairs(draw):
    genus, cap = draw(st.integers(1, 3)), draw(st.sampled_from((4, 5)))
    ctx = get_context(genus, cap)
    words = st.integers(1, cap).flatmap(
        lambda d: st.sampled_from(ctx.lyndon_basis(d)))
    x, y = (LieElement(ctx, {w: c for w, c in draw(
                st.dictionaries(words, _fractions, max_size=4)).items() if c})
            for _ in range(2))
    return x, y


@seed(SEED)
@settings(max_examples=25, deadline=None)
@given(_bch_pairs())
def test_bch_against_the_tensor_oracle(pair):
    x, y = pair
    z = x.bch(y)
    assert z == _oracle_bch(x, y)
    assert not any(type(c) is Fraction and c.denominator == 1
                   for c in z.terms.values())


def test_tensor_exp_and_log_refuse_a_wrong_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        t_exp({(): 1, (1,): 1}, 1, 3)
    with pytest.raises(ValueError, match="constant term 1"):
        t_log({(): 1, (1,): 1}, 2, 3)
    assert t_exp({}, 7, 3) == ({(): 1}, 1)
    assert t_log({(): 5}, 5, 3) == ({}, 1)


# --- coefficient types: an int and the equal Fraction are interchangeable ---

def _with_two(ctx, two):
    return [LieElement(ctx, {(1, 4): two}),
            TreeSum(3, {((1, 2), (3, 4)): two}),
            DerivationElement(3, 1, {(1, (1, 4)): two})]


def test_int_and_fraction_coefficients_are_interchangeable():
    ctx = get_context(3, 3)
    for x, y in zip(_with_two(ctx, 2), _with_two(ctx, Fraction(2))):
        assert x.terms == y.terms
        assert x.to_json() == y.to_json()
        if isinstance(x, LieElement):
            assert x.render() == y.render() == "0+(2)*[a1,b1]"
        if not isinstance(x, TreeSum):  # tree sums compare with equals()
            assert x == y and hash(x) == hash(y)
        else:
            assert x.equals(y)


def test_int_scalars_keep_int_coefficients():
    from torelli.mcg import GradedValue
    ctx = get_context(3, 3)
    for x in _with_two(ctx, 2):
        assert (x * -3).terms == (-3 * x).terms == {k: -6 for k in x.terms}
        for scaled in (x * -3, -3 * x, -x):
            assert all(type(c) is int for c in scaled.terms.values())
        assert all(type(c) is Fraction
                   for c in (x * Fraction(1, 2)).terms.values())
    assert all(type(c) is int for c in ctx.omega().terms.values())
    assert all(type(c) is int for c in ctx.monomial((1, 4), 5).terms.values())
    ts = TreeSum.single(3, (1, 2), (3, 4))
    assert list(ts.terms.values()) == [1] and type(ts.terms[(1, 2), (3, 4)]) is int
    value = GradedValue(3, {2: ts}, 2, 3)
    for scaled in (value * 2, 2 * value, -value):
        assert all(type(c) is int for c in scaled.part(2).terms.values())


def _coefficients(obj):
    """Every coefficient of the sparse combinations inside obj."""
    if hasattr(obj, "terms") and isinstance(obj.terms, dict):
        yield from obj.terms.values()
    elif hasattr(obj, "parts"):
        for part in obj.parts.values():
            yield from _coefficients(part)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _coefficients(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _coefficients(v)
    elif hasattr(obj, "derivation"):
        yield from _coefficients(obj.r4_tree)
        yield from _coefficients(obj.derivation)


def test_build_phi_has_no_float_coefficient():
    from torelli.mcg import build_phi
    coefficients = list(_coefficients(build_phi(get_table(3, 4))))
    assert len(coefficients) > 100
    assert all(type(c) in (int, Fraction) for c in coefficients)
