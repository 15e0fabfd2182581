import random
from fractions import Fraction

import pytest

from conftest import SEED, rand_word
from tensor_oracle import lie_terms, t_exp, t_log, t_mul, to_tensor
from torelli.lie import DegreeCapError, LieElement, get_context
from torelli.words import (ExpansionTable, GroupWord, WordParseError,
                           boundary_word, comm, get_table, parse_word,
                           symplectic_check, theta)


def test_parse_examples():
    w = parse_word("a1+b2-")
    assert w.letters == (("a", 1, 1), ("b", 2, -1))
    assert parse_word("").letters == ()
    assert parse_word("a12+").letters == (("a", 12, 1),)


def test_parse_errors_report_offset():
    with pytest.raises(WordParseError) as err:
        parse_word("c1+")
    assert err.value.offset == 0
    with pytest.raises(WordParseError) as err:
        parse_word("a1+b2")
    assert err.value.offset == 3


def test_parse_render_roundtrip(rng):
    for _ in range(100):
        w = rand_word(3, rng, rng.randint(0, 6))
        assert parse_word(w.render()) == w


def test_invert_and_comm():
    assert parse_word("a1+b1+").inverse().render() == "b1-a1-"
    u, v = parse_word("a1+"), parse_word("b1+")
    assert comm(u, v).render() == "a1+b1+a1-b1-"
    w = parse_word("a1+b2-a1-")
    assert w.inverse().inverse() == w


def test_boundary_word():
    assert boundary_word(1).render() == "b1-a1+b1+a1-"
    assert boundary_word(2).render() == "b1-a1+b1+a1-b2-a2+b2+a2-"
    for g in (1, 2, 3):
        assert len(boundary_word(g)) == 4 * g


def test_theta_alpha1():
    ctx = get_context(3, 3)
    table = get_table(3, 3)
    value = theta(parse_word("a1+"), table)
    expected = (ctx.gen_a(1)
                - ctx.monomial((1, 4), Fraction(1, 2))
                + ctx.monomial((1, 4, 4), Fraction(1, 12)))
    assert value == expected


def test_theta_of_inverse_pair_is_zero():
    table = get_table(3, 3)
    assert theta(parse_word("a1+a1-"), table).is_zero()
    assert theta(parse_word(""), table).is_zero()


def test_theta_gamma3():
    # the commutator [alpha_1, beta_1^-1] maps to minus the degree-2 monomial
    table = get_table(3, 3)
    g3 = comm(parse_word("a1+"), parse_word("b1-"))
    assert theta(g3, table) == -table.ctx.monomial((1, 4))


def test_theta_is_homomorphism(rng):
    for _ in range(200):
        g = rng.choice((1, 2))
        table = get_table(g, 3)
        u = rand_word(g, rng, rng.randint(0, 4))
        v = rand_word(g, rng, rng.randint(0, 4))
        assert theta(u * v, table) == theta(u, table).bch(theta(v, table))


def test_theta_invariant_under_free_reduction(rng):
    table = get_table(2, 3)
    for _ in range(100):
        w = rand_word(2, rng, 3)
        padded = w * parse_word("a1+a1-") * rand_word(2, rng, 2)
        assert theta(padded, table) == theta(padded.reduced(), table)


def test_theta_degree_one_is_abelianization(rng):
    table = get_table(2, 4)
    ctx = table.ctx
    for _ in range(100):
        w = rand_word(2, rng, rng.randint(0, 5))
        counts = {}
        for kind, i, s in w.letters:
            letter = i if kind == "a" else ctx.genus + i
            counts[letter] = counts.get(letter, 0) + s
        expected = ctx.zero()
        for letter, c in counts.items():
            expected = expected + ctx.generator(letter) * c
        assert theta(w, table).degree_part(1) == expected


def test_symplectic_check():
    assert symplectic_check(get_table(3, 3))
    assert symplectic_check(get_table(3, 4))
    assert symplectic_check(get_table(1, 4))
    assert symplectic_check(get_table(2, 4))


class _PerturbedTable(ExpansionTable):
    """The expansion with 1/2 [a1, a2] added to the value of alpha_1."""

    def _series(self, kind, i):
        value = super()._series(kind, i)
        if (kind, i) == ("a", 1):
            value = value + self.ctx.monomial((1, 2), Fraction(1, 2))
        return value


def test_symplectic_check_detects_perturbation():
    assert not symplectic_check(_PerturbedTable(get_context(3, 3)))


class _CountingTable(ExpansionTable):
    """The expansion, counting the letter values it builds."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.built = []

    def _series(self, kind, i):
        self.built.append((kind, i))
        return super()._series(kind, i)


def test_letter_values_are_built_on_first_use():
    table = _CountingTable(get_context(30, 4))
    theta(parse_word("a1+"), table)
    theta(parse_word("a1-a1+"), table)
    assert table.built == [("a", 1)]
    table = _CountingTable(get_context(3, 4))
    assert symplectic_check(table)
    assert sorted(table.built) == [(k, i) for k in "ab" for i in (1, 2, 3)]


@pytest.mark.parametrize("letter", [("c", 1, 1), ("a", 1, 2), ("b", 1, 0)],
                         ids=["kind-c", "sign-2", "sign-0"])
def test_malformed_letters_are_refused(letter):
    table = get_table(3, 3)
    with pytest.raises(ValueError, match="malformed letter"):
        theta(GroupWord([letter]), table)
    with pytest.raises(ValueError, match="malformed letter"):
        table.letter_value(*letter)


def _bch_fold(word, table):
    """theta as the left-to-right BCH fold of the letter values (reference)."""
    res = table.ctx.zero()
    for kind, index, sign in word.letters:
        res = res.bch(table.letter_value(kind, index, sign))
    return res


def test_theta_equals_bch_fold(rng):
    for genus in (1, 2, 3):
        for degree in (1, 2, 3, 4):
            table = get_table(genus, degree)
            words = [GroupWord(), parse_word("a1-"), parse_word("b1-a1+b1+")]
            words += [rand_word(genus, rng, rng.randint(1, 5)) for _ in range(6)]
            for w in words:
                assert theta(w, table).terms == _bch_fold(w, table).terms, w


def _oracle_theta(word, table, exps):
    """theta as the group-like product in the tensor algebra: the log of the
    product of the exponentials of the letter values, kept in exps."""
    cap = table.ctx.max_degree
    prod, den = {(): 1}, 1
    for letter in word.letters:
        if letter not in exps:
            exps[letter] = t_exp(*to_tensor(table.letter_value(*letter)), cap)
        factor, factor_den = exps[letter]
        prod = t_mul(prod, factor, cap)
        den *= factor_den
    return LieElement(table.ctx, lie_terms(t_log(prod, den, cap)))


@pytest.mark.parametrize("genus, words_degree", [(3, 4), (30, 3)])
def test_theta_against_the_tensor_oracle(genus, words_degree):
    # the boundary word at degrees 3 and 4, and 200 seeded short words at one
    # degree: at genus 30 the oracle needs about 4 s for them at degree 4
    rng = random.Random(SEED + genus)
    for degree in (3, 4):
        table, exps = ExpansionTable(get_context(genus, degree)), {}
        words = [boundary_word(genus)]
        if degree == words_degree:
            words += [rand_word(genus, rng, rng.randint(0, 5))
                      for _ in range(200)]
        for w in words:
            assert theta(w, table) == _oracle_theta(w, table, exps), w


def test_theta_is_memoized():
    # a second call with an equal word shares the first result
    table = ExpansionTable(get_context(2, 4))
    first = theta(parse_word("a1+b2-a1-b1+a2+"), table)
    assert theta(parse_word("a1+b2-a1-b1+a2+"), table) is first


def test_table_rejects_degree_five():
    with pytest.raises(DegreeCapError, match="unspecified beyond degree 4"):
        ExpansionTable(get_context(2, 5))
