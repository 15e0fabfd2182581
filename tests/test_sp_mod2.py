import itertools
import random
from functools import reduce
from operator import xor

import pytest

from conftest import SEED, run_python
from torelli.exact_linalg import Mod2Subspace, gf2_apply, gf2_kernel
from torelli.lie import (DegreeCapError, get_context, lyndon_words,
                         standard_bracketing, witt_rank)
from torelli.sp_mod2 import (SpTransformation, _bracket3, _l3_basis,
                             _l3_index, _l3_triples, action_matrix,
                             l3_mod2_bits, lower_bound_exponents,
                             omega_bracket_bits, orbit_span, project_l3_to_a,
                             standard_generators, stigma, stigma_kernel,
                             transvection, tree_mod2_bits, verify_kernel_lemma,
                             verify_ses)


# --- the closed form of the L_3 basis ----------------------------------------

@pytest.mark.parametrize("g", range(1, 9))
def test_l3_basis_and_index_against_duval(g):
    # the closed-form enumeration and position of each word, against the
    # Duval enumeration of lie.lyndon_words
    n = 2 * g
    words = tuple(w for w in lyndon_words(n, 3) if len(w) == 3)
    assert tuple(_l3_basis(n)) == words == get_context(g, 3).lyndon_basis(3)
    assert [_l3_index(n, w) for w in words] == list(range(len(words)))


@pytest.mark.parametrize("g", range(1, 7))
def test_l3_triples_against_standard_bracketing(g):
    expected = []
    for w in get_context(g, 3).lyndon_basis(3):
        left, right = standard_bracketing(w)
        expected.append(left + (right,) if isinstance(left, tuple)
                        else right + (left,))
    assert _l3_triples(g) == tuple(expected)


def test_genus30_class_lists_no_basis():
    # varpi's bits and the closed class at genus 30 read a few bits of
    # L_3 mod 2 (rank 71 980).  Measured tracemalloc peak: 339 MiB with a
    # one-bit mask stored per basis word, 0.8 KiB with the closed-form index.
    code = (
        "import tracemalloc\n"
        "from torelli.sp_mod2 import project_l3_to_a, tree_mod2_bits\n"
        "tracemalloc.start()\n"
        "project_l3_to_a(30, tree_mod2_bits(30, ((1, 2), 3)))\n"
        "print(tracemalloc.get_traced_memory()[1])\n")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 1 << 20


# --- oracles: the letter-by-letter forms of the mask primitives ---------------

def _letters(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _omega_sum(genus, x, y):
    """The mod-2 pairing of two masks as a sum of letter pairings."""
    return sum(abs(p - q) == genus
               for p in _letters(x) for q in _letters(y)) % 2


def _humphries_classes(g):
    classes = [(1,), (g + 1,)]
    for i in range(2, g + 1):
        classes += [(i - 1, i), (g + i,)]
    return classes + ([(2,)] if g >= 2 else [])


@pytest.mark.parametrize("g", range(1, 7))
def test_transvection_against_letter_pairing(g):
    # T_x(h) = h + omega(x, h) x with omega summed letter by letter
    rng = random.Random(SEED + g)
    n = 2 * g
    masks = [sum(1 << (p - 1) for p in c) for c in _humphries_classes(g)]
    masks += [rng.getrandbits(n) for _ in range(20)]
    gens = [t.images for t in standard_generators(g)]
    assert gens == [transvection(g, c).images for c in _humphries_classes(g)]
    for x in masks:
        expected = [(1 << i) ^ (x if _omega_sum(g, x, 1 << i) else 0)
                    for i in range(n)]
        assert list(transvection(g, _letters(x)).images) == expected
    # the symplectic check of SpTransformation uses the same pairing: the
    # identity with a_1 sent to x is symplectic only for x = a_1 or a_1 + b_1
    for x in masks:
        images = [x] + [1 << i for i in range(1, n)]
        symplectic = all(_omega_sum(g, images[i], images[j])
                         == _omega_sum(g, 1 << i, 1 << j)
                         for i in range(n) for j in range(i + 1, n))
        if symplectic:
            SpTransformation(g, images)
        else:
            with pytest.raises(ValueError, match="not symplectic"):
                SpTransformation(g, images)


def _jacobi_stigma_matrix(genus):
    """[[a,b],c] |-> w(b,c) a + w(a,c) b on each standard bracketing, with a
    right-normed [x,[y,z]] split as [[x,y],z] + [[x,z],y] mod 2."""
    ctx = get_context(genus, 3)
    out = []
    for w in ctx.lyndon_basis(3):
        tree = standard_bracketing(w)
        if isinstance(tree[0], tuple):
            triples = [tree[0] + (tree[1],)]
        else:
            x, (y, z) = tree
            triples = [(x, y, z), (x, z, y)]
        acc = 0
        for a, b, c in triples:
            if abs(b - c) == genus:
                acc ^= 1 << (a - 1)
            if abs(a - c) == genus:
                acc ^= 1 << (b - 1)
        out.append(acc)
    return out


@pytest.mark.parametrize("g", range(1, 7))
def test_stigma_against_jacobi_matrix(g):
    for i, expected in enumerate(_jacobi_stigma_matrix(g)):
        assert stigma(g, 1 << i) == expected


def _lie_mod2(genus, tree):
    """A degree-3 tree in L_3 mod 2 by the Lie route: the Fraction bracket
    of its two halves, rewritten in the Lyndon basis."""
    ctx = get_context(genus, 3)
    left, right = tree
    return l3_mod2_bits(ctx.from_tree(left).bracket(ctx.from_tree(right)))


@pytest.mark.parametrize("g", range(1, 5))
def test_tree_mod2_bits_against_lie_route(g):
    # the closed form of [[x,y],z] on every ordered letter triple, in both
    # shapes
    letters = range(1, 2 * g + 1)
    for x in letters:
        for y in letters:
            for z in letters:
                for tree in (((x, y), z), (x, (y, z))):
                    assert tree_mod2_bits(g, tree) == _lie_mod2(g, tree), tree


@pytest.mark.parametrize("tree", [((1, 2), 7), ((0, 1), 2), (1, (2, -1)),
                                  ((1, 2), 3.0), ((True, 2), 3),
                                  ((1, 2), (3, 4))])
def test_tree_mod2_bits_rejects_non_letters(tree):
    with pytest.raises(ValueError):
        tree_mod2_bits(3, tree)


@pytest.mark.parametrize("g", [2, 3])
def test_action_matrix_against_standard_bracketing(g):
    # each basis word's image evaluated on its own bracketing shape, by the
    # Lie route
    ctx = get_context(g, 3)
    for t in standard_generators(g):
        expected = []
        for w in ctx.lyndon_basis(3):
            left_normed = isinstance(standard_bracketing(w)[0], tuple)
            acc = 0
            for x in _letters(t.images[w[0] - 1]):
                for y in _letters(t.images[w[1] - 1]):
                    for z in _letters(t.images[w[2] - 1]):
                        acc ^= _lie_mod2(
                            g, ((x, y), z) if left_normed else (x, (y, z)))
            expected.append(acc)
        assert list(action_matrix(t)) == expected


@pytest.mark.parametrize("g", range(1, 6))
def test_project_l3_to_a_against_index_dict(g):
    basis = get_context(g, 3).lyndon_basis(3)
    abasis = [w for w in basis if all(letter <= g for letter in w)]
    aindex = {w: i for i, w in enumerate(abasis)}
    rng = random.Random(SEED + g)
    for _ in range(30):
        bits = rng.getrandbits(len(basis))
        expected = 0
        for i, w in enumerate(basis):
            if bits >> i & 1 and w in aindex:
                expected ^= 1 << aindex[w]
        assert project_l3_to_a(g, bits) == expected


def test_project_l3_to_a_refuses_a_class_outside_l3():
    # rank L_3 is 70 at genus 3, and its 8 a-words survive the projection
    assert project_l3_to_a(3, (1 << 70) - 1) == 255
    for bits in (-1, 1 << 70):
        with pytest.raises(ValueError, match="not in L_3 mod 2 at genus 3"):
            project_l3_to_a(3, bits)


def test_transvection_action_example():
    # the transvection at b_1 sends [[a1,a2],a3] to itself plus [[b1,a2],a3]
    g = 3
    t = transvection(g, (4,))
    v = tree_mod2_bits(g, ((1, 2), 3))
    assert gf2_apply(action_matrix(t), v) == v ^ tree_mod2_bits(g, ((4, 2), 3))


def test_identity_action():
    g = 3
    ident = SpTransformation(g, [1 << i for i in range(2 * g)])
    rng = random.Random(SEED)
    dim = witt_rank(2 * g, 3)
    for _ in range(20):
        v = rng.getrandbits(dim)
        assert gf2_apply(action_matrix(ident), v) == v


def test_rotation_action_example():
    # F1 swaps a_1 and b_1
    g = 3
    images = [1 << i for i in range(2 * g)]
    images[0], images[g] = images[g], images[0]
    f1 = SpTransformation(g, images)
    assert gf2_apply(action_matrix(f1), tree_mod2_bits(g, ((1, 2), 2))) == \
        tree_mod2_bits(g, ((4, 2), 2))


def test_nonsymplectic_rejected():
    with pytest.raises(ValueError):
        SpTransformation(2, [0b0001, 0b0001, 0b0100, 0b1000])
    # the image count is checked by an explicit raise, so python -O keeps it
    for images in ([0b0001, 0b0010, 0b0100],
                   [0b0001, 0b0010, 0b0100, 0b1000, 0b0001]):
        with pytest.raises(ValueError):
            SpTransformation(2, images)
    # an image with a bit above the 2g letters is not a mask over them, even
    # when it pairs like one
    with pytest.raises(ValueError, match="not a mask"):
        SpTransformation(1, [0b001, 0b110])


@pytest.mark.parametrize("g", [1, 2])
def test_standard_generators_generate_sp(g):
    # breadth-first enumeration of the generated group on image tuples;
    # |Sp(2g, Z/2)| = 2^(g^2) prod_{i=1..g} (4^i - 1), i.e. 6 and 720
    gens = [t.images for t in standard_generators(g)]
    assert len(gens) == (2 * g + 1 if g >= 2 else 2)
    identity = tuple(1 << i for i in range(2 * g))
    seen, work = {identity}, [identity]
    while work:
        m = work.pop()
        for t in gens:
            product = tuple(gf2_apply(t, x) for x in m)
            if product not in seen:
                seen.add(product)
                work.append(product)
    order = 2 ** (g * g)
    for i in range(1, g + 1):
        order *= 4 ** i - 1
    assert len(seen) == order


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
    # the integrality and basis-word guards are explicit raises, so they
    # survive python -O.  Under the closed-form index a non-Lyndon key such
    # as (2, 1, 1) would otherwise get a wrong bit.
    code = (
        "from fractions import Fraction\n"
        "from torelli.lie import LieElement, get_context\n"
        "from torelli.sp_mod2 import l3_mod2_bits\n"
        "ctx = get_context(3, 4)\n"
        "for x in (get_context(3, 3).from_tree(((1, 2), 3)) * Fraction(1, 2),\n"
        "          ctx.generator(1), ctx.monomial((1, 2, 3, 4)),\n"
        "          LieElement(ctx, {(2, 1, 1): 1})):\n"
        "    try:\n"
        "        l3_mod2_bits(x)\n"
        "    except ValueError as e:\n"
        "        print(e)\n")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    fraction, *words = run.stdout.splitlines()
    assert fraction.endswith("is not an integer")
    assert words == [f"{w} is not a degree-3 basis word"
                     for w in ((1,), (1, 2, 3, 4), (2, 1, 1))]


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


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_kernel_lemma(g):
    ok, span_dim, ker_dim = verify_kernel_lemma(g)
    assert ok and span_dim == ker_dim == witt_rank(2 * g, 3) - 2 * g
    if g == 3:
        assert span_dim == 64


def _handle_triple_pieces(g):
    """The pieces K_S of the contraction kernel: for each triple S of handles,
    the kernel of the contraction on the basis words whose letters lie on the
    handles of S, as vectors over the whole basis."""
    words = get_context(g, 3).lyndon_basis(3)
    for s in itertools.combinations(range(1, g + 1), 3):
        on_s = [i for i, w in enumerate(words)
                if all((x - 1) % g + 1 in s for x in w)]
        piece = gf2_kernel([stigma(g, 1 << i) for i in on_s], len(on_s), 2 * g)
        for v in piece.rows:
            yield sum(1 << i for j, i in enumerate(on_s) if v >> j & 1)


@pytest.mark.parametrize("g, rank", [(4, 160), (5, 320), (6, 560)])
def test_kernel_is_the_sum_of_handle_triple_pieces(g, rank):
    # the genus-4 check that, with the genus-3 orbit span, proves the kernel
    # lemma at every genus (sp_mod2 docstring); genus 5 and 6 cross-check it
    ker = stigma_kernel(g)
    pieces = Mod2Subspace(ker.ambient_dim, _handle_triple_pieces(g))
    assert pieces == ker and pieces.rank == rank


def _handles(genus, bits, words):
    """The handles of the letters of the basis words in a bitmask."""
    out = set()
    while bits:
        low = bits & -bits
        out.update((x - 1) % genus + 1 for x in words[low.bit_length() - 1])
        bits ^= low
    return out


@pytest.mark.parametrize("g, rank", [(5, 320), (6, 560), (7, 896), (8, 1344)])
def test_kernel_is_spanned_by_four_handle_elements(g, rank):
    # step 2 of the kernel lemma (sp_mod2 docstring): with r_x^j the word
    # [[x,a_j],b_j], which contracts to x off x's handle, the elements
    # w + sum_{x in sigma(w)} r_x^j (j the smallest handle w misses) and
    # r_x^j + r_x^k (j, k consecutive handles other than x's) span the kernel
    n = 2 * g
    words = list(_l3_basis(n))

    def r(x, j):
        return _bracket3(n, x, j, g + j)

    elements = []
    for i, w in enumerate(words):
        j = min(set(range(1, g + 1)) - _handles(g, 1 << i, words))
        sigma = stigma(g, 1 << i)
        elements.append(1 << i ^ reduce(
            xor, (r(x, j) for x in range(1, n + 1) if sigma >> x - 1 & 1), 0))
    for x in range(1, n + 1):
        free = [j for j in range(1, g + 1) if j != (x - 1) % g + 1]
        elements.extend(r(x, j) ^ r(x, k) for j, k in zip(free, free[1:]))
    for v in elements:
        assert stigma(g, v) == 0 and len(_handles(g, v, words)) <= 4
    span = Mod2Subspace(len(words), elements)
    assert span == stigma_kernel(g) and span.rank == rank


def test_kernel_lemma_needs_genus3():
    with pytest.raises(DegreeCapError):
        verify_kernel_lemma(2)


def test_orbit_guard_catches_bad_seed():
    # seeding with [omega, a1] leaves the kernel immediately
    g = 3
    bad = omega_bracket_bits(g, 1)
    with pytest.raises(AssertionError):
        orbit_span(g, bad)
    # the inclusion check is an explicit raise, so python -O keeps it
    code = (
        "from torelli.sp_mod2 import omega_bracket_bits, orbit_span\n"
        "try:\n"
        "    orbit_span(3, omega_bracket_bits(3, 1))\n"
        "except AssertionError as e:\n"
        "    print(e)\n")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "orbit left the contraction kernel"


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


def test_stigma_kernel_is_built_once():
    # verify sp-kernel asks for the kernel in both of its checks
    assert stigma_kernel(5) is stigma_kernel(5)


def test_lower_bounds():
    assert lower_bound_exponents(3) == (64, 5)
    assert lower_bound_exponents(6) == (560, 64)
    for g in range(2, 9):
        bordered, closed = lower_bound_exponents(g)
        assert 3 * bordered == 8 * (g ** 3 - g)
        assert 3 * closed == g ** 3 - 4 * g
