import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SEED
from torelli.exact_linalg import gf2_apply
from torelli.lie import witt_rank
from torelli.sp_mod2 import (SpTransformation, action_matrix, handle_rotation,
                             handle_shear, lower_bound_exponents,
                             omega_bracket_bits, orbit_span,
                             standard_generators, stigma, stigma_kernel,
                             swap_handles, transvection, tree_mod2_bits,
                             verify_kernel_lemma, verify_ses)


def test_transvection_action_example():
    # the transvection at b_1 sends [[a1,a2],a3] to itself plus [[b1,a2],a3]
    g = 3
    t = transvection(g, (4,))
    v = tree_mod2_bits(g, ((1, 2), 3))
    assert gf2_apply(action_matrix(t), v) == v ^ tree_mod2_bits(g, ((4, 2), 3))


def test_identity_action():
    g = 3
    ident = SpTransformation(g, [1 << i for i in range(2 * g)], "id")
    rng = random.Random(SEED)
    dim = witt_rank(2 * g, 3)
    for _ in range(20):
        v = rng.getrandbits(dim)
        assert gf2_apply(action_matrix(ident), v) == v


def test_rotation_action_example():
    g = 3
    f1 = handle_rotation(g, 1)
    assert gf2_apply(action_matrix(f1), tree_mod2_bits(g, ((1, 2), 2))) == \
        tree_mod2_bits(g, ((4, 2), 2))


def test_nonsymplectic_rejected():
    with pytest.raises(ValueError):
        SpTransformation(2, [0b0001, 0b0001, 0b0100, 0b1000])


def test_action_is_multiplicative():
    g = 3
    rng = random.Random(SEED)
    gens = standard_generators(g)
    dim = witt_rank(2 * g, 3)
    for _ in range(30):
        m, n = rng.choice(gens), rng.choice(gens)
        composed = SpTransformation(
            g, [gf2_apply(m.images, n.images[i]) for i in range(2 * g)])
        v = rng.getrandbits(dim)
        assert gf2_apply(action_matrix(composed), v) == \
            gf2_apply(action_matrix(m), gf2_apply(action_matrix(n), v))


def test_l3_converter_rejects_fractions_under_optimize():
    # the integrality guard is an explicit raise, so it survives python -O
    code = (
        "from fractions import Fraction\n"
        "from torelli.lie import get_context\n"
        "from torelli.sp_mod2 import l3_mod2_bits\n"
        "x = get_context(3, 3).from_tree(((1, 2), 3)) * Fraction(1, 2)\n"
        "try:\n"
        "    l3_mod2_bits(x)\n"
        "except ValueError:\n"
        "    print('rejected')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "rejected"


def test_stigma_examples():
    g = 3
    for h in range(1, 2 * g + 1):
        assert stigma(g, omega_bracket_bits(g, h)) == 1 << (h - 1)
    assert stigma(g, tree_mod2_bits(g, ((1, 2), 3))) == 0
    assert stigma(g, tree_mod2_bits(g, ((1, 4), 1))) == 1


def test_verify_ses():
    for g, expected in ((1, 0), (2, 16), (3, 64)):
        ok, dim = verify_ses(g)
        assert ok and dim == expected == witt_rank(2 * g, 3) - 2 * g


def test_kernel_lemma_genus3():
    ok, span_dim, ker_dim = verify_kernel_lemma(3)
    assert ok and span_dim == ker_dim == 64


def test_kernel_lemma_needs_genus3():
    with pytest.raises(ValueError):
        verify_kernel_lemma(2)


def test_orbit_guard_catches_bad_seed():
    # seeding with [omega, a1] leaves the kernel immediately
    g = 3
    bad = omega_bracket_bits(g, 1)
    with pytest.raises(AssertionError):
        orbit_span(g, bad)


def test_orbit_stays_in_kernel():
    g = 3
    seed = tree_mod2_bits(g, ((1, 2), 3))
    span = orbit_span(g, seed)
    for row in span.rows:
        assert stigma(g, row) == 0


def test_equivariance_on_kernel():
    # the contraction kernel is stable under every generator
    g = 3
    ker = stigma_kernel(g)
    for t in standard_generators(g):
        mat = action_matrix(t)
        for row in ker.rows:
            assert ker.contains(gf2_apply(mat, row))


def test_lower_bounds():
    assert lower_bound_exponents(3) == (64, 5)
    assert lower_bound_exponents(6) == (560, 64)
    for g in range(2, 9):
        bordered, closed = lower_bound_exponents(g)
        assert 3 * bordered == 8 * (g ** 3 - g)
        assert 3 * closed == g ** 3 - 4 * g


def test_shear_and_swap_are_symplectic():
    for g in (2, 3):
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                if i != j:
                    handle_shear(g, i, j)
                    if i < j:
                        swap_handles(g, i, j)
