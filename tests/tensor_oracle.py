"""The truncated tensor algebra, an oracle independent of the engine's
Lyndon-basis algebra.

A tensor polynomial is a sparse map from words (tuples of letters) to
coefficients.  `t_exp` and `t_log` take and return integer numerators over
one denominator, as `(numerators, denominator)` in lowest terms.  A Lyndon
monomial expands to the tensor polynomial of its standard bracketing
(`_expansion`), and a tensor polynomial that is a Lie element goes back to
the Lyndon basis by triangularity (`decompose`: the smallest word of a
homogeneous Lie polynomial is Lyndon and carries the coefficient of its
bracketing, whose expansion has coefficient 1 on that word, so decomposing
never divides).  The engine computes BCH, `theta` and Morita's trace with
brackets only; these functions recompute them through the associative
structure instead.

A derivation in H tensor L form acts on the tensor algebra letter by letter
(`derivation_values`, `apply_derivation`).  `derivation_bracket` is the
commutator of two such actions and `is_symplectic` tests sum c (h w - w h)
= 0; the engine brackets derivations only as tree sums, through eta, so
these are the reference for criterion 10c.  Nothing here calls a bracket of
the engine.
"""

from functools import lru_cache
from math import factorial, gcd, lcm

from torelli.lie import (_numerators, _over, is_lyndon, standard_bracketing,
                         t_add_into, tree_size)


def t_mul(p, q, cap):
    by_length = {}
    for w2, c2 in q.items():
        by_length.setdefault(len(w2), []).append((w2, c2))
    lengths = sorted(by_length)
    out = {}
    for w1, c1 in p.items():
        room = cap - len(w1)
        for n in lengths:
            if n > room:
                break
            for w2, c2 in by_length[n]:
                w = w1 + w2
                v = out.get(w)
                if v is None:
                    out[w] = c1 * c2
                elif v := v + c1 * c2:
                    out[w] = v
                else:
                    del out[w]
    return out


def _series(p, den, cap, weight):
    """sum_k weight(k) (p / den)^k over the nonzero truncated powers of p, with
    weight(k) = (numerator, denominator), as (integer numerators, denominator)
    in lowest terms: one gcd pass over one common denominator."""
    powers = [{(): 1}]
    while len(powers) <= cap and (power := t_mul(powers[-1], p, cap)):
        powers.append(power)
    weights = [weight(k) for k in range(len(powers))]
    total = den ** (len(powers) - 1) * lcm(*(b for _a, b in weights))
    out = {}
    for k, (power, (a, b)) in enumerate(zip(powers, weights)):
        t_add_into(out, power, a * (total // (den ** k * b)))
    g = gcd(total, *out.values())
    return {w: c // g for w, c in out.items()}, total // g


def t_exp(p, den, cap):
    """exp(p / den) for an integer tensor p with zero constant term, truncated,
    as (integer numerators, denominator) in lowest terms."""
    if () in p:
        raise ValueError("exp needs a zero constant term")
    return _series(p, den, cap, lambda k: (1, factorial(k)))


def t_log(p, den, cap):
    """log(p / den) for an integer tensor p with constant term den, truncated,
    as (integer numerators, denominator) in lowest terms."""
    u = dict(p)
    if u.pop((), None) != den:
        raise ValueError("log needs constant term 1")
    return _series(u, den, cap,
                   lambda k: ((-1) ** (k + 1), k) if k else (0, 1))


def _expand_tree(tree):
    if isinstance(tree, int):
        return {(tree,): 1}
    left = _expand_tree(tree[0])
    right = _expand_tree(tree[1])
    n = tree_size(tree)
    out = t_mul(left, right, n)
    t_add_into(out, t_mul(right, left, n), -1)
    return out


@lru_cache(maxsize=None)
def _expansion(word):
    """Tensor expansion of the standard bracketing of a Lyndon word: what
    `to_tensor` (for BCH and `theta`) and `decompose` read; brackets never do."""
    return _expand_tree(standard_bracketing(word))


def decompose(poly):
    """Write a tensor polynomial that is a Lie element in the Lyndon basis.

    Triangular elimination per degree: repeatedly strip the lexicographically
    smallest word, which must be Lyndon.  Raises if the input is not a Lie
    element.
    """
    by_degree = {}
    for w, c in poly.items():
        by_degree.setdefault(len(w), {})[w] = c
    terms = {}
    for d, comp in sorted(by_degree.items()):
        if d == 0:
            raise ValueError("degree-0 part is not a Lie element")
        while comp:
            w = min(comp)
            if not is_lyndon(w):
                raise ValueError(f"not a Lie element: stray word {w}")
            c = comp[w]
            terms[w] = c
            t_add_into(comp, _expansion(w), -c)
    return terms


def lie_terms(tensor):
    """The Lyndon-basis terms of a Lie element given as (integer numerators,
    denominator): decomposed over Z, then divided once per term."""
    num, den = tensor
    return _over(decompose(num), den)


def to_tensor(x):
    """The tensor expansion of a Lie element as (integer numerators,
    denominator), the denominator being the lcm of the coefficients'
    denominators."""
    num, den = _numerators(x.terms)
    out = {}
    for w, c in num.items():
        t_add_into(out, _expansion(w), c)
    return out, den


# --- derivations in H tensor L, read as derivations of the tensor algebra ----

def _partner(genus, x):
    """The one letter y with omega(x, y) != 0, and omega(x, y)."""
    return (x + genus, 1) if x <= genus else (x - genus, -1)


def derivation_values(d):
    """{letter z: tensor expansion of D(z)} of a derivation given in H tensor
    L form (`.genus`, `.terms`): a term ((h, w), c) is z |-> omega(h, z) c w
    on the partner z of h."""
    values = {}
    for (h, w), c in d.terms.items():
        z, s = _partner(d.genus, h)
        t_add_into(values.setdefault(z, {}), _expansion(w), s * c)
    return values


def apply_derivation(values, poly):
    """D applied to a tensor polynomial as a derivation: each letter of each
    word is replaced by its value in turn."""
    out = {}
    for word, c in poly.items():
        for i, z in enumerate(word):
            t_add_into(out, {word[:i] + w + word[i + 1:]: x
                             for w, x in values.get(z, {}).items()}, c)
    return out


def derivation_bracket(d1, d2):
    """The terms map of [D1, D2] in H tensor L form: [D1, D2](z) =
    D1(D2 z) - D2(D1 z) in tensors, decomposed in the Lyndon basis (which
    raises unless it is a Lie element) and keyed by the omega-dual of z."""
    v1, v2 = derivation_values(d1), derivation_values(d2)
    terms = {}
    for z in range(1, 2 * d1.genus + 1):
        val = apply_derivation(v1, v2.get(z, {}))
        t_add_into(val, apply_derivation(v2, v1.get(z, {})), -1)
        h, s = _partner(d1.genus, z)
        terms.update(((h, w), -s * c) for w, c in decompose(val).items())
    return terms


def is_symplectic(d):
    """Whether sum c (h w - w h) over the terms ((h, w), c) vanishes in
    tensors, i.e. whether D kills omega."""
    out = {}
    for (h, w), c in d.terms.items():
        p, n = _expansion(w), len(w) + 1
        t_add_into(out, t_mul({(h,): 1}, p, n), c)
        t_add_into(out, t_mul(p, {(h,): 1}, n), -c)
    return not out
