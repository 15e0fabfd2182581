"""Mapping-class-group level calculus: values of the infinitesimal
Dehn-Nielsen representation on separating twists and bounding-pair maps,
their BCH composition in the tree Lie algebra truncated at degree 4, the
Johnson homomorphisms, the torsion-detecting map on the Johnson kernel, and
the full construction/verification of the commutator element phi = [i, k].

Graded values carry an explicit knowledge window [depth, known]: parts below
depth are structurally zero, parts above known were never computed (the
stored expansion stops at degree 4).  Every combinator propagates the window,
so requesting an uncomputed degree raises WindowUnderflow instead of silently
returning garbage.

BCH and group-commutator coefficients are not transcribed from anywhere: they
are extracted once from the truncated tensor-algebra BCH on two free
generators and then evaluated on tree values.  Since every value here starts
in degree >= 1 and the calculus truncates at degree 4, bracket words of
length > 4 cannot contribute, so the free class-4 identities are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact_linalg import rational_rank, solve_rational_combination
from .lie import DegreeCapError, get_context, standard_bracketing, t_add_into
from .sp_mod2 import tree_mod2_bits
from .trees import (DerivationElement, TreeSum, congruent_mod_trees,
                    diagram_rows, join, mod1_class_is_zero, omega_pairing,
                    project_l3_to_a, varpi)
from .words import EXPANSION_MAX_DEGREE, comm, conjugate, parse_word, theta

CAP = EXPANSION_MAX_DEGREE  # the calculus stops where the stored expansion does


class WindowUnderflow(ValueError):
    def __init__(self, degree, label=""):
        hint = f" of {label}" if label else ""
        super().__init__(f"degree-{degree} part{hint} was never computed "
                         f"(knowledge window ends below {degree})")
        self.degree = degree


class NotInFiltration(ValueError):
    pass


class GradedValue:
    """Graded tree-sum value with a knowledge window.

    parts[d] for depth <= d <= known are exact; degrees below depth are zero;
    degrees above known are unknown.
    """

    __slots__ = ("genus", "parts", "depth", "known")

    def __init__(self, genus, parts, depth, known):
        if depth > CAP:
            depth, parts, known = CAP + 1, {}, CAP
        self.genus = genus
        self.parts = {d: p for d, p in parts.items()
                      if depth <= d <= known and p.terms}
        self.depth = depth
        self.known = min(known, CAP)

    @staticmethod
    def zero(genus):
        return GradedValue(genus, {}, CAP + 1, CAP)

    def part(self, d):
        if d < self.depth:
            return TreeSum(self.genus)
        if d > self.known:
            raise WindowUnderflow(d)
        return self.parts.get(d, TreeSum(self.genus))

    def known_parts(self):
        return {d: self.part(d) for d in range(self.depth, self.known + 1)}

    def __add__(self, other):
        assert self.genus == other.genus
        depth = min(self.depth, other.depth)
        known = min(self.known, other.known)
        parts = {}
        for d in range(depth, known + 1):
            s = self.part(d) + other.part(d)
            if s.terms:
                parts[d] = s
        return GradedValue(self.genus, parts, depth, known)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        c = Fraction(scalar)
        return GradedValue(self.genus,
                           {d: p * c for d, p in self.parts.items()},
                           self.depth, self.known)

    __rmul__ = __mul__

    def bracket(self, other):
        assert self.genus == other.genus
        depth = self.depth + other.depth
        known = min(self.known + other.depth, other.known + self.depth, CAP)
        parts = {}
        for d in range(depth, known + 1):
            acc = TreeSum(self.genus)
            for i in range(self.depth, d - other.depth + 1):
                j = d - i
                acc = acc + self.part(i).bracket(other.part(j))
            if acc.terms:
                parts[d] = acc
        return GradedValue(self.genus, parts, depth, known)

    def bch(self, other):
        """BCH product of the two values in the tree Lie algebra."""
        out = self + other
        for word, c in _bch_bracket_words():
            out = out + _evaluate_word(word, self, other) * c
        return out

    def inverse(self):
        # BCH inverse is plain negation.
        return -self

    def commutator(self, other):
        """Group commutator under BCH, valid with partial windows.

        Uses the extracted bracket-word expansion of log(e^x e^y e^-x e^-y),
        whose terms all contain both letters, so unknown high parts of one
        factor only ever meet the other factor's depth.
        """
        out = GradedValue.zero(self.genus)
        for word, c in _commutator_words():
            out = out + _evaluate_word(word, self, other) * c
        return out

    def conjugate_by(self, other):
        """exp(ad other) applied to self: the value of the conjugate of self
        by other when both lie in the Torelli group (trivial homology action).
        """
        out = self
        term = self
        factorial = 1
        for k in range(1, CAP):
            term = other.bracket(term)
            factorial *= k
            out = out + term * Fraction(1, factorial)
        return out

    def __repr__(self):
        return (f"<GradedValue g={self.genus} depth={self.depth} "
                f"known={self.known}>")


def _evaluate_word(word, x, y):
    """Evaluate the standard bracketing of a word over letters {1: x, 2: y}."""
    def ev(tree):
        if tree == 1:
            return x
        if tree == 2:
            return y
        return ev(tree[0]).bracket(ev(tree[1]))
    return ev(standard_bracketing(word))


@lru_cache(maxsize=None)
def _bch_bracket_words():
    """Lyndon-word expansion of BCH on two letters, bracket terms only."""
    ctx = get_context(1, CAP)
    z = ctx.generator(1).bch(ctx.generator(2))
    return tuple((w, c) for w, c in sorted(z.terms.items()) if len(w) >= 2)


@lru_cache(maxsize=None)
def _commutator_words():
    """Lyndon-word expansion of log(e^x e^y e^-x e^-y) on two letters."""
    ctx = get_context(1, CAP)
    x, y = ctx.generator(1), ctx.generator(2)
    z = x.bch(y).bch(-x).bch(-y)
    return tuple((w, c) for w, c in sorted(z.terms.items()))


def compose_values(values):
    """BCH product of a list of graded values, left to right."""
    values = list(values)
    if not values:
        raise ValueError("empty composition")
    out = values[0]
    for v in values[1:]:
        out = out.bch(v)
    return out


# --- generators of the calculus ---------------------------------------------

def _as_word(w):
    return parse_word(w) if isinstance(w, str) else w


def _as_power(power):
    if not isinstance(power, int) or isinstance(power, bool):
        raise ValueError(f"power must be an integer, got {power!r}")
    return power


class SeparatingTwist:
    """Dehn twist along a separating curve, given by a lift of the curve to
    the free group.  The lift must be null-homologous."""

    def __init__(self, lift, power=1):
        self.lift = _as_word(lift)
        self.power = _as_power(power)

    def __repr__(self):
        return f"Twist({self.lift.render()!r}, power={self.power})"


class BoundingPairMap:
    """Opposite twists along a cobounding pair, encoded by a lift gamma of one
    curve and the ratio word c (the other curve is delta = gamma c)."""

    def __init__(self, gamma, c, power=1):
        self.gamma = _as_word(gamma)
        self.c = _as_word(c)
        self.power = _as_power(power)

    def __repr__(self):
        return (f"BoundingPair({self.gamma.render()!r}, {self.c.render()!r}, "
                f"power={self.power})")


class Product:
    def __init__(self, factors):
        self.factors = list(factors)


class Commutator:
    def __init__(self, left, right):
        self.left = left
        self.right = right


class Conjugate:
    """by . arg . by^-1"""

    def __init__(self, by, arg):
        self.by = by
        self.arg = arg


class Inverse:
    def __init__(self, arg):
        self.arg = arg


def _require_degree2(table, what):
    """Refuse a table below degree 2, which misses the leading part."""
    if table.ctx.max_degree < 2:
        raise DegreeCapError(f"the value of a {what} needs an expansion of "
                             f"degree >= 2, got {table.ctx.max_degree}")


def twist_value(table, twist):
    """Value of a separating twist power: half the self-join of theta(lift),
    times the power."""
    _require_degree2(table, "separating twist")
    th = theta(twist.lift, table)
    if not th.degree_part(1).is_zero():
        raise NotInFiltration(
            f"twist lift {twist.lift.render()!r} is not null-homologous")
    genus = table.ctx.genus
    cap = table.ctx.max_degree
    parts = {}
    for d in range(2, min(cap, CAP) + 1):
        acc = TreeSum(genus)
        for d1 in range(2, d + 1):
            d2 = d + 2 - d1
            if 2 <= d2 <= cap:
                acc = acc + join(th.degree_part(d1), th.degree_part(d2)) * Fraction(1, 2)
        if acc.terms:
            parts[d] = acc
    single = GradedValue(genus, parts, 2, min(cap, CAP))
    return _power(single, twist.power)


def bounding_pair_value(table, bp):
    """Value of a bounding-pair map through degree 2.

    With [gamma], [c] the leading terms of theta(gamma), theta(c):
      degree 1: -[gamma] -- [c]
      degree 2: -1/2 [c] -- [c]  -  theta_2(gamma) -- [c]  -  [gamma] -- theta_3(c)
    """
    _require_degree2(table, "bounding pair")
    th_g = theta(bp.gamma, table)
    th_c = theta(bp.c, table)
    if not th_c.degree_part(1).is_zero():
        raise NotInFiltration(
            f"bounding-pair ratio {bp.c.render()!r} is not null-homologous")
    genus = table.ctx.genus
    g1 = th_g.degree_part(1)
    g2 = th_g.degree_part(2)
    c2 = th_c.degree_part(2)
    parts = {}
    r1 = -1 * join(g1, c2)
    if r1.terms:
        parts[1] = r1
    known = 1
    if table.ctx.max_degree >= 3:
        c3 = th_c.degree_part(3)
        r2 = (join(c2, c2) * Fraction(-1, 2) - join(g2, c2) - join(g1, c3))
        if r2.terms:
            parts[2] = r2
        known = 2
    single = GradedValue(genus, parts, 1, known)
    return _power(single, bp.power)


def _power(value, n):
    # BCH(x, x) = 2x: every bracket of a value with itself cancels.
    if n == 0:
        return GradedValue.zero(value.genus)
    return value * n


def factor_value(table, factor):
    """Graded value of a factor expression (recursive over the structure)."""
    if isinstance(factor, SeparatingTwist):
        return twist_value(table, factor)
    if isinstance(factor, BoundingPairMap):
        return bounding_pair_value(table, factor)
    if isinstance(factor, Product):
        return compose_values([factor_value(table, f) for f in factor.factors])
    if isinstance(factor, Commutator):
        return factor_value(table, factor.left).commutator(
            factor_value(table, factor.right))
    if isinstance(factor, Conjugate):
        by = factor_value(table, factor.by)
        return factor_value(table, factor.arg).conjugate_by(by)
    if isinstance(factor, Inverse):
        return factor_value(table, factor.arg).inverse()
    raise TypeError(f"unknown factor {factor!r}")


# --- Johnson homomorphisms and the torsion-detecting map --------------------

def _require_vanishing(value, degrees, claim):
    """Raise NotInFiltration unless the parts of the given degrees have zero
    eta image."""
    for d in degrees:
        part = value.part(d)
        if part.terms and not all(v.is_zero()
                                  for v in part.eta_graded().values()):
            raise NotInFiltration(f"degree-{d} part is nonzero: {claim}")


def _eta_or_zero(ts, genus, degree):
    return ts.eta() if ts.terms else DerivationElement(genus, degree)


def tau(value, k):
    """Degree-k part as a derivation element, for a value claimed in the k-th
    filtration step.  Raises if a lower known part is nonvanishing."""
    _require_vanishing(value, range(value.depth, min(k, value.known + 1)),
                       f"not in M[{k}]")
    return _eta_or_zero(value.part(k), value.genus, k)


def tau_is_integral(dv):
    """Whether a Johnson value lies in the integral symplectic derivation
    lattice: integer coefficients, and annihilated by the bracket map
    (degree <= 3) or inside the degree-4 lattice presentation."""
    if not dv.is_integral():
        return False
    if dv.degree <= 3:
        return dv.is_symplectic()
    try:
        varpi(dv)
    except ValueError:
        return False
    return True


def _odd_denominators(dv):
    """Denominators that are not powers of two (reported, never silently ok)."""
    return sorted({c.denominator for c in dv.terms.values()
                   if c.denominator & (c.denominator - 1)})


class RResult:
    """Outcome of the mod-1 reduction of the degree-4 part."""

    def __init__(self, genus, r4_tree, derivation, is_zero, failing, odd_denominators):
        self.genus = genus
        self.r4_tree = r4_tree
        self.derivation = derivation
        self.is_zero = is_zero
        self.failing_multidegrees = failing
        self.odd_denominators = odd_denominators

    def varpi_bits(self):
        """The mod-2 cokernel class (needs an integral degree-4 derivation)."""
        return varpi(self.derivation)

    def __repr__(self):
        verdict = "zero" if self.is_zero else "nonzero"
        return f"<R {verdict} mod 1>"


def _reduce_mod1(genus, r4):
    dv = _eta_or_zero(r4, genus, 4)
    zero, failing = mod1_class_is_zero(dv)
    return RResult(genus, r4, dv, zero, failing, _odd_denominators(dv))


def r_mod1(value):
    """The class of the degree-4 part modulo integer diagrams, for a value of
    a Johnson-kernel element (degree-1 part must vanish)."""
    _require_vanishing(value, (1,), "not in the kernel")
    return _reduce_mod1(value.genus, value.part(4))


def r_circ_mod1(value):
    """The homomorphism variant: subtract half the self-contraction of the
    degree-2 part before reducing mod 1."""
    _require_vanishing(value, (1,), "not in the kernel")
    t2 = value.part(2)
    return _reduce_mod1(value.genus,
                        value.part(4) - t2.contract(t2) * Fraction(1, 2))


# --- the Casson-derived homomorphisms ---------------------------------------

def genus_of_lift(table, lift):
    """Genus of the subsurface bounded by a separating curve, read off the
    rank of the degree-2 skew form of theta(lift)."""
    lift = _as_word(lift)
    th = theta(lift, table)
    if not th.degree_part(1).is_zero():
        raise NotInFiltration(f"lift {lift.render()!r} is not null-homologous")
    n = 2 * table.ctx.genus
    mat = [[Fraction(0)] * n for _ in range(n)]
    for w, c in th.degree_part(2).terms.items():
        i, j = w[0] - 1, w[1] - 1
        mat[i][j] = c
        mat[j][i] = -c
    rank = rational_rank(mat)
    if rank % 2:
        raise ValueError("odd-rank skew form; the lift cannot bound")
    return rank // 2


def d_twist(h):
    """Casson-core value on a separating twist of genus h."""
    return 4 * h * (h - 1)


def d_prime_twist(h):
    return h * (2 * h + 1)


def casson_values(table, factor):
    """(d, d') of a factor expression, or None where the rules cannot decide.

    Rules: both are homomorphisms on the kernel, invariant under conjugation
    by the whole mapping class group; hence commutators with a decided side
    vanish and conjugation is transparent.  Bounding-pair maps are outside the
    kernel and carry no value.
    """
    if isinstance(factor, SeparatingTwist):
        h = genus_of_lift(table, factor.lift)
        return (factor.power * d_twist(h), factor.power * d_prime_twist(h))
    if isinstance(factor, Product):
        total = (0, 0)
        for f in factor.factors:
            v = casson_values(table, f)
            if v is None:
                return None
            total = (total[0] + v[0], total[1] + v[1])
        return total
    if isinstance(factor, Inverse):
        v = casson_values(table, factor.arg)
        return None if v is None else (-v[0], -v[1])
    if isinstance(factor, Conjugate):
        return casson_values(table, factor.arg)
    if isinstance(factor, Commutator):
        if (casson_values(table, factor.left) is not None
                or casson_values(table, factor.right) is not None):
            return (0, 0)
        return None
    if isinstance(factor, BoundingPairMap):
        return None
    raise TypeError(f"unknown factor {factor!r}")


def d_hom(table, factor):
    v = casson_values(table, factor)
    return None if v is None else v[0]


def d_prime(table, factor):
    v = casson_values(table, factor)
    return None if v is None else v[1]


def d_bar(table, factor):
    """The closed-surface combination -(1+2g)/12 d + (g-1)/3 d'."""
    v = casson_values(table, factor)
    if v is None:
        return None
    g = table.ctx.genus
    val = Fraction(-(1 + 2 * g), 12) * v[0] + Fraction(g - 1, 3) * v[1]
    if val.denominator != 1:
        raise ValueError(f"dbar value {val} is not an integer")
    return val.numerator


# --- the degree-3 trace -----------------------------------------------------

def tr3(ts):
    """Morita's degree-3 trace into the cubic symmetric power.

    The input tree sum is rewritten (rationally, through eta) over chain
    diagrams (a,b,c,d,e), on which the trace is
      2 w(e,a) bcd + 2 w(a,d) ecb + 2 w(d,b) ace + 2 w(b,e) dca.
    Returns a map from sorted letter triples to Fraction.
    """
    genus = ts.genus
    dvs = ts.eta_graded()
    if not dvs:
        return {}
    if set(dvs) != {3}:
        raise ValueError(f"tr3 needs a degree-3 tree sum, got {sorted(dvs)}")
    dv = dvs[3]
    out = {}
    for md in dv.multidegrees():
        chains, vecs = diagram_rows(genus, md)
        combo = solve_rational_combination(vecs, dv.component_vector(md))
        if combo is None:
            raise ValueError("degree-3 element outside the span of chains")
        for coeff, c in zip(combo, chains):
            if not coeff:
                continue
            a, b, cc, d, e = c
            for w, mono in ((omega_pairing(genus, e, a), (b, cc, d)),
                            (omega_pairing(genus, a, d), (e, cc, b)),
                            (omega_pairing(genus, d, b), (a, cc, e)),
                            (omega_pairing(genus, b, e), (d, cc, a))):
                t_add_into(out, {tuple(sorted(mono)): 2 * w}, coeff)
    return out


# --- the explicit element phi = [i, k] ---------------------------------------

def phi_data(genus):
    """Lifts and factor structure of the element phi = [i, k] at genus >= 3.

    The four separating curves and the two bounding pairs live in the
    subsurface of the first three handles, so the same words work for any
    genus >= 3.
    """
    if genus < 3:
        raise ValueError("phi needs genus >= 3")
    a1, b1 = parse_word("a1+"), parse_word("b1+")
    a2, b2 = parse_word("a2+"), parse_word("b2+")
    a3, b3 = parse_word("a3+"), parse_word("b3+")
    g3 = comm(a1, b1.inverse())
    g1 = comm(a3, b3.inverse()) * b2 * g3 * b2.inverse()
    g4 = comm(a2 * b2 * b1.inverse(), a1.inverse()) * comm(a1.inverse(), b2)
    g2 = comm(a3, b3.inverse()) * g4
    k = Product([SeparatingTwist(g1), SeparatingTwist(g2, -1),
                 SeparatingTwist(g3, -1), SeparatingTwist(g4)])
    p1 = BoundingPairMap(a3, conjugate(b3, g4.inverse()))
    p2 = BoundingPairMap(a3, conjugate(b3 * b2, g3.inverse()))
    i = Product([p1, Inverse(p2)])
    return {
        "gamma1": g1, "gamma2": g2, "gamma3": g3, "gamma4": g4,
        "p1": p1, "p2": p2, "i": i, "k": k,
        "phi": Commutator(i, k),
    }


def reference_theta_values(ctx):
    """The displayed degree <= 3 expansions of the four curve lifts."""
    a = [None] + [ctx.gen_a(i) for i in range(1, 4)]
    b = [None] + [ctx.gen_b(i) for i in range(1, 4)]

    def t3(x, y, z):
        return x.bracket(y).bracket(z)

    th3 = -a[1].bracket(b[1])
    th4 = (-a[1].bracket(b[1]) + a[1].bracket(a[2]) + t3(b[1], a[1], a[1])
           - t3(a[2], a[1], a[1]) * Fraction(1, 2)
           - t3(a[1], a[2], a[2]) * Fraction(1, 2)
           + t3(a[1], b[1], a[2]) * Fraction(1, 2)
           + t3(a[1], b[1], b[2])
           - t3(b[2], a[2], a[1]) * Fraction(1, 2)
           - t3(a[1], b[2], a[2]))
    th1 = (-a[1].bracket(b[1]) - a[3].bracket(b[3]) + t3(a[1], b[1], b[2]))
    th2 = th4 - a[3].bracket(b[3])
    return th1, th2, th3, th4


def reference_r3k_class(ctx):
    """The displayed degree-3 class of the twist word, mod integer diagrams."""
    a = [None] + [ctx.gen_a(i) for i in range(1, 4)]
    b = [None] + [ctx.gen_b(i) for i in range(1, 4)]
    s = (a[2].bracket(a[1]).bracket(a[1]) + a[1].bracket(a[2]).bracket(a[2])
         + b[1].bracket(a[1]).bracket(a[2]) + b[2].bracket(a[2]).bracket(a[1]))
    return join(a[3].bracket(b[3]), s) * Fraction(1, 2)


def reference_r2i_class(ctx):
    """The displayed degree-2 class of the bounding-pair word, mod diagrams."""
    a = [None] + [ctx.gen_a(i) for i in range(1, 4)]
    b = [None] + [ctx.gen_b(i) for i in range(1, 4)]
    terms = (join(a[2].bracket(a[1]), (a[1] + a[2]).bracket(a[3]))
             + join(b[1].bracket(a[1]), a[2].bracket(a[3]))
             + join((b[2] + a[3]).bracket(a[2]), a[1].bracket(a[3]))
             + join(a[3].bracket(b[3]), a[1].bracket(a[2]))
             + join(a[2].bracket(a[1]), a[2].bracket(a[1])))
    return terms * Fraction(1, 2)


def theorem_b_report(table):
    """Every stage of the verification as (name, ok, detail) triples."""
    ctx = table.ctx
    genus = ctx.genus
    rep = build_phi(table)
    data = rep["data"]
    stages = []

    def stage(name, ok, detail=""):
        stages.append({"stage": name, "ok": bool(ok), "detail": str(detail)})

    genera = [genus_of_lift(table, data[k]) for k in
              ("gamma1", "gamma2", "gamma3", "gamma4")]
    stage("lift-genera", genera == [2, 2, 1, 1], f"computed {genera}")

    refs = reference_theta_values(ctx)
    for idx, ref in enumerate(refs, start=1):
        computed = theta(data[f"gamma{idx}"], table).truncated(3)
        stage(f"theta-gamma{idx}", computed == ref.truncated(ctx.max_degree),
              computed.render())

    tri = join(ctx.gen_a(1), ctx.gen_a(2).bracket(ctx.gen_a(3)))
    stage("tau1-i", rep["tau1_i"] == tri.eta(), "a1^a2^a3")
    t2k = join(ctx.gen_a(1).bracket(ctx.gen_a(2)),
               ctx.gen_a(3).bracket(ctx.gen_b(3)))
    stage("tau2-k", rep["tau2_k"] == t2k.eta(), "[a1,a2]--[a3,b3]")
    stage("tau3-phi", rep["tau3_phi"].is_zero(), "vanishes by antisymmetry")

    r3k = rep["value_k"].part(3)
    stage("r3k-class",
          congruent_mod_trees(r3k.eta(), reference_r3k_class(ctx).eta()),
          "congruent to the displayed value mod integer diagrams")
    r2i = rep["value_i"].part(2)
    stage("r2i-class",
          congruent_mod_trees(r2i.eta(), reference_r2i_class(ctx).eta()),
          "congruent to the displayed value mod integer diagrams")

    stage("r4-two-routes", rep["r4_direct_matches"],
          "commutator machinery matches the degreewise bracket formula")
    stage("tau4-integral", tau_is_integral(rep["R"].derivation),
          "degree-4 value lies in the integral derivation lattice")
    stage("r4-class", rep["r4_congruent_to_half_double_tree"],
          "congruent to half the doubled tree on a1,a2,a3")
    stage("R-nonzero", not rep["R"].is_zero,
          f"failing multidegrees {rep['R'].failing_multidegrees}")
    stage("varpi-class", rep["varpi_bits"] == rep["varpi_expected_bits"],
          "equals [[a1,a2],a3] mod 2")
    stage("closed-class",
          rep["closed_bits"] == rep["closed_expected_bits"]
          and rep["closed_bits"] != 0,
          "projection to the a-letter quotient is the expected nonzero class")

    phi = data["phi"]
    stage("d-phi", d_hom(table, phi) == 0, "vanishes on the commutator")
    stage("dbar-phi", d_bar(table, phi) == 0, "vanishes on the commutator")
    spots = (d_hom(table, SeparatingTwist(data["gamma3"])),
             d_prime(table, SeparatingTwist(data["gamma3"])),
             d_bar(table, SeparatingTwist(data["gamma1"])))
    expected_spots = (0, 3, 2 * (genus - 2))
    stage("d-spot-values", spots == expected_spots,
          f"computed {spots}, expected {expected_spots}")

    return stages, rep


def build_phi(table):
    """Run the full construction of phi = [i, k] and collect every stage.

    Returns a dict with the graded values, Johnson values, the mod-1 verdict
    and the closed-surface projection.  Genus >= 3 required.
    """
    genus = table.ctx.genus
    data = phi_data(genus)
    value_i = factor_value(table, data["i"])
    value_k = factor_value(table, data["k"])
    value_phi = value_i.commutator(value_k)

    tau1_i = tau(value_i, 1)
    tau2_k = tau(value_k, 2)
    tau3_phi = _eta_or_zero(value_phi.part(3), genus, 3)

    r4 = value_phi.part(4)
    result = r_mod1(value_phi)

    # Independent route for r4: [tau1(i), r3(k)] + [r2(i), tau2(k)].
    direct = (value_i.part(1).bracket(value_k.part(3))
              + value_i.part(2).bracket(value_k.part(2)))

    ctx = table.ctx
    u = ctx.gen_a(1).bracket(ctx.gen_a(2)).bracket(ctx.gen_a(3))
    target_tree = join(u, u) * Fraction(1, 2)

    bits = result.varpi_bits()
    closed_bits = project_l3_to_a(genus, bits)
    expected_bits = tree_mod2_bits(genus, ((1, 2), 3))
    expected_closed = project_l3_to_a(genus, expected_bits)

    return {
        "data": data,
        "value_i": value_i,
        "value_k": value_k,
        "value_phi": value_phi,
        "tau1_i": tau1_i,
        "tau2_k": tau2_k,
        "tau3_phi": tau3_phi,
        "r4_phi": r4,
        "r4_direct_matches": r4.equals(direct),
        "R": result,
        "r4_congruent_to_half_double_tree":
            congruent_mod_trees(result.derivation, target_tree.eta()),
        "varpi_bits": bits,
        "varpi_expected_bits": expected_bits,
        "closed_bits": closed_bits,
        "closed_expected_bits": expected_closed,
    }
