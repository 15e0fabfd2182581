"""Shared helpers: seeded random generators for algebraic objects, an
independent reimplementation of the leaf-rerooting map used as an oracle, and
a fresh-interpreter runner for checks that must survive python -O."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torelli.lie import get_context, tree_size
from torelli.trees import DerivationElement, TreeSum, join
from torelli.words import GroupWord, comm, get_table

SEED = 1729

# One line per acceptance criterion, printed in the terminal summary.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def python_env():
    """The environment of a fresh interpreter on the package sources.  It
    keeps PYTHONDONTWRITEBYTECODE where that is set, so such a test run
    leaves no bytecode in the source tree."""
    env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def run_python(*argv, optimize=True):
    """Run `python -O argv...` (plain `python` when optimize is false) in a
    fresh interpreter on the package sources, capturing text output.  Math
    checks are explicit raises, so they must behave the same under -O."""
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, *argv], env=python_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def rng():
    return random.Random(SEED)


def rand_coeff(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2])
    return Fraction(num, den)


def rand_lie(ctx, rng, terms=3, min_degree=1, max_degree=None):
    """Random sparse Lie element with small rational coefficients."""
    max_degree = max_degree or ctx.max_degree
    out = ctx.zero()
    for _ in range(terms):
        d = rng.randint(min_degree, max_degree)
        basis = ctx.lyndon_basis(d)
        out = out + ctx.monomial(rng.choice(basis), rand_coeff(rng))
    return out


def rand_homogeneous(ctx, rng, degree, terms=2):
    out = ctx.zero()
    basis = ctx.lyndon_basis(degree)
    for _ in range(terms):
        out = out + ctx.monomial(rng.choice(basis), rand_coeff(rng))
    return out


def rand_tree_sum(genus, rng, degree, terms=2):
    """Random tree sum of the given degree built from joins of Lie elements."""
    ctx = get_context(genus, degree + 1)
    out = TreeSum(genus)
    for _ in range(terms):
        d1 = rng.randint(1, degree + 1)
        d2 = degree + 2 - d1
        if d1 < 1 or d2 < 1 or (d1 == 1 and d2 == 1):
            continue
        x = rand_homogeneous(ctx, rng, d1, terms=1)
        y = rand_homogeneous(ctx, rng, d2, terms=1)
        out = out + join(x, y)
    return out


def rand_word(genus, rng, length):
    letters = []
    for _ in range(length):
        letters.append((rng.choice("ab"), rng.randint(1, genus),
                        rng.choice((1, -1))))
    return GroupWord(letters)


def rand_null_word(genus, rng, half_length=2):
    """A random null-homologous word: a product of one or two commutators."""
    w = comm(rand_word(genus, rng, half_length), rand_word(genus, rng, half_length))
    if rng.random() < 0.5:
        w = w * comm(rand_word(genus, rng, 1), rand_word(genus, rng, 1))
    return w


# --- independent eta oracle ---------------------------------------------------

def _graph_of_join(u, v):
    """Adjacency-list picture of the joined tree: node -> cyclically ordered
    neighbors, leaf -> (color, unique neighbor).  Node ids are negative ints,
    leaf ids nonnegative."""
    nodes = {}
    leaves = {}
    counter = {"leaf": 0, "node": -1}

    def build(tree):
        if isinstance(tree, int):
            lid = counter["leaf"]
            counter["leaf"] += 1
            leaves[lid] = [tree, None]
            return lid
        nid = counter["node"]
        counter["node"] -= 1
        nodes[nid] = [None, None, None]
        left = build(tree[0])
        right = build(tree[1])
        for child, slot in ((left, 1), (right, 2)):
            nodes[nid][slot] = child
            if child in leaves:
                leaves[child][1] = nid
            else:
                nodes[child][0] = nid
        return nid

    ru = build(u)
    rv = build(v)
    for r, other in ((ru, rv), (rv, ru)):
        if r in leaves:
            leaves[r][1] = other
        else:
            nodes[r][0] = other
    return nodes, leaves


def independent_eta(ts):
    """Recompute the leaf-reroot map from the adjacency picture (an oracle)."""
    genus = ts.genus
    per_degree = {}
    for (u, v), coeff in ts.terms.items():
        degree = tree_size(u) + tree_size(v) - 2
        ctx = get_context(genus, degree + 1)
        nodes, leaves = _graph_of_join(u, v)

        def expand(vertex, came_from):
            if vertex in leaves:
                return ctx.generator(leaves[vertex][0])
            nbrs = nodes[vertex]
            k = nbrs.index(came_from)
            first, second = nbrs[(k + 1) % 3], nbrs[(k + 2) % 3]
            return expand(first, vertex).bracket(expand(second, vertex))

        acc = per_degree.setdefault(degree, {})
        for lid, (color, nbr) in leaves.items():
            lie = expand(nbr, lid)
            for w, c in lie.terms.items():
                key = (color, w)
                val = acc.get(key, 0) + coeff * c
                if val:
                    acc[key] = val
                else:
                    del acc[key]
    return {d: DerivationElement(genus, d, acc) for d, acc in per_degree.items()}


def twist_lifts(genus, count, seed=SEED):
    """Deterministic random null-homologous twist lifts, the ones behind
    twist_pool."""
    rng = random.Random(seed)
    return [rand_null_word(genus, rng) for _ in range(count)]


_POOLS = {}


def twist_pool(genus, degree, count, seed=SEED):
    """Deterministic pool of twist values of random null-homologous lifts."""
    key = (genus, degree, count, seed)
    if key not in _POOLS:
        from torelli.mcg import SeparatingTwist, twist_value
        table = get_table(genus, degree)
        _POOLS[key] = [twist_value(table, SeparatingTwist(lift))
                       for lift in twist_lifts(genus, count, seed)]
    return _POOLS[key]
