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

Every group operation on values is one Lyndon-word series on two letters,
evaluated by `lie.eval_series`.  Its coefficients are not transcribed from
anywhere: BCH is `lie.bch_series`, built by Varadarajan's bracket recursion,
and the commutator and conjugation series are BCH products of the free
letters +-x, +-y.  Since every value here starts in degree >= 1 and the
calculus truncates at degree 4, bracket words of length > 4 cannot
contribute, so the free class-4 identities are exact.  Morita's degree-3
trace is read off the standard bracketings of the derivation's values, with
no tensor expansion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

from .exact_linalg import rational_rank
from .lie import (ContextMismatch, DegreeCapError, LieElement, bch_series,
                  eval_series, evaluate, get_context, standard_bracketing,
                  t_add_into)
from .sp_mod2 import project_l3_to_a, tree_mod2_bits
from .trees import (DerivationElement, TreeSum, congruent_mod_trees, join,
                    mod1_class_is_zero, varpi)
from .words import EXPANSION_MAX_DEGREE, comm, conjugate, parse_word, theta

CAP = EXPANSION_MAX_DEGREE  # the calculus stops where the stored expansion does


class WindowUnderflow(ValueError):
    def __init__(self, degree):
        super().__init__(f"degree-{degree} part was never computed "
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

    def _check(self, other):
        if self.genus != other.genus:
            raise ContextMismatch(f"genus {self.genus} vs {other.genus}")

    def __add__(self, other):
        self._check(other)
        parts = dict(self.parts)
        for d, p in other.parts.items():
            parts[d] = parts.get(d, TreeSum(self.genus)) + p
        return GradedValue(self.genus, parts, min(self.depth, other.depth),
                           min(self.known, other.known))

    def __neg__(self):
        # the BCH inverse is plain negation
        return self * -1

    def __mul__(self, scalar):
        # each part keeps an int scalar an int, see SparseCombination
        return GradedValue(self.genus,
                           {d: p * scalar for d, p in self.parts.items()},
                           self.depth, self.known)

    __rmul__ = __mul__

    def bracket(self, other):
        self._check(other)
        known = min(self.known + other.depth, other.known + self.depth, CAP)
        parts = {}
        for i, p in self.parts.items():
            for j, q in other.parts.items():
                if i + j <= known:
                    parts[i + j] = (parts.get(i + j, TreeSum(self.genus))
                                    + p.bracket(q))
        return GradedValue(self.genus, parts, self.depth + other.depth, known)

    def bch(self, other):
        """BCH product of the two values in the tree Lie algebra."""
        return _series("bch", self, other)

    def commutator(self, other):
        """Group commutator under BCH, valid with partial windows.

        Every term of log(e^x e^y e^-x e^-y) contains both letters, so
        unknown high parts of one factor only ever meet the other factor's
        depth.
        """
        return _series("commutator", self, other)

    def conjugate_by(self, other):
        """exp(ad other) applied to self: the value of the conjugate of self
        by other when both lie in the Torelli group (trivial homology action).
        """
        return _series("conjugate_by", self, other)

    def __repr__(self):
        return (f"<GradedValue g={self.genus} depth={self.depth} "
                f"known={self.known}>")


@lru_cache(maxsize=None)
def _series_words(op):
    """The series of op on two free letters x = 1, y = 2 in the Lyndon basis,
    as (standard bracketing, coefficient) pairs: BCH itself, or the log of a
    longer product of exponentials, folded by BCH."""
    if op == "bch":
        return bch_series(CAP)
    ctx = get_context(1, CAP)
    x, y = ctx.generator(1), ctx.generator(2)
    factors = {"commutator": (x, y, -x, -y),    # log(e^x e^y e^-x e^-y)
               "conjugate_by": (y, x, -y)}[op]  # log(e^y e^x e^-y) = exp(ad y) x
    z = reduce(LieElement.bch, factors)
    return tuple((standard_bracketing(w), c) for w, c in sorted(z.terms.items()))


def _series(op, x, y):
    """The series of op evaluated on graded values x, y, each distinct
    sub-tree of its bracketings bracketed once."""
    out = GradedValue.zero(x.genus)
    for _tree, value, c in eval_series(_series_words(op), x, y,
                                       GradedValue.bracket):
        out = out + value * c
    return out


def compose_values(values):
    """BCH product of a list of graded values, left to right."""
    values = list(values)
    if not values:
        raise ValueError("empty composition")
    return reduce(GradedValue.bch, values)


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


def _null_theta(table, word, what):
    """theta(word), for a word that must be null-homologous."""
    th = theta(word, table)
    if not th.degree_part(1).is_zero():
        raise NotInFiltration(f"{what} {word.render()!r} is not null-homologous")
    return th


def _graded(ts, depth, known):
    """The graded value of a tree sum, split by degree; degrees outside the
    window depth..known are dropped."""
    return GradedValue(ts.genus, {d: ts.degree_part(d) for d in ts.degrees()},
                       depth, known)


def _join_through(x, y, known):
    """join(x, y) through degree known: only the degree parts i of x and j
    of y with i + j - 2 <= known are joined."""
    return sum((join(x.degree_part(i), y.truncated(known + 2 - i))
                for i in range(1, known + 2)), TreeSum(x.ctx.genus))


def twist_value(table, twist):
    """Value of a separating twist power: half the self-join of theta(lift),
    times the power."""
    _require_degree2(table, "separating twist")
    th = _null_theta(table, twist.lift, "twist lift")
    known = table.ctx.max_degree
    value = _join_through(th, th, known) * Fraction(1, 2)
    return _power(_graded(value, 2, known), twist.power)


def bounding_pair_value(table, bp):
    """Value of a bounding-pair map through degree 2:
    -theta(gamma) -- theta(c) - 1/2 theta(c) -- theta(c).

    With [gamma], [c] the leading terms of theta(gamma), theta(c):
      degree 1: -[gamma] -- [c]
      degree 2: -1/2 [c] -- [c]  -  theta_2(gamma) -- [c]  -  [gamma] -- theta_3(c)
    The degree-d part needs theta(c) through degree d + 1.
    """
    _require_degree2(table, "bounding pair")
    th_g = theta(bp.gamma, table)
    th_c = _null_theta(table, bp.c, "bounding-pair ratio")
    known = min(table.ctx.max_degree - 1, 2)
    value = (-_join_through(th_g, th_c, known)
             - _join_through(th_c, th_c, known) * Fraction(1, 2))
    return _power(_graded(value, 1, known), bp.power)


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
        return -factor_value(table, factor.arg)
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
    th = _null_theta(table, _as_word(lift), "lift")
    n = 2 * table.ctx.genus
    mat = [[0] * n for _ in range(n)]
    for w, c in th.degree_part(2).terms.items():
        i, j = w[0] - 1, w[1] - 1
        mat[i][j] = c
        mat[j][i] = -c
    rank = rational_rank(mat)
    if rank % 2:
        raise ValueError("odd-rank skew form; the lift cannot bound")
    return rank // 2


def casson_values(table, factor):
    """(d, d', dbar) of a factor expression, or None where the rules cannot
    decide; dbar is the closed-surface combination -(1+2g)/12 d + (g-1)/3 d'.

    On a twist of genus h the triple is power * (4h(h-1), h(2h+1), h(g-h)),
    the combination reducing to h(g-h).  Rules: all three are homomorphisms
    on the kernel, invariant under conjugation by the whole mapping class
    group; hence commutators with a decided side vanish and conjugation is
    transparent.  Bounding-pair maps are outside the kernel and carry no
    value.
    """
    if isinstance(factor, SeparatingTwist):
        h = genus_of_lift(table, factor.lift)
        g = table.ctx.genus
        return tuple(factor.power * v
                     for v in (4 * h * (h - 1), h * (2 * h + 1), h * (g - h)))
    if isinstance(factor, Product):
        total = (0, 0, 0)
        for f in factor.factors:
            v = casson_values(table, f)
            if v is None:
                return None
            total = tuple(x + y for x, y in zip(total, v))
        return total
    if isinstance(factor, Inverse):
        v = casson_values(table, factor.arg)
        return None if v is None else tuple(-x for x in v)
    if isinstance(factor, Conjugate):
        return casson_values(table, factor.arg)
    if isinstance(factor, Commutator):
        if (casson_values(table, factor.left) is not None
                or casson_values(table, factor.right) is not None):
            return (0, 0, 0)
        return None
    if isinstance(factor, BoundingPairMap):
        return None
    raise TypeError(f"unknown factor {factor!r}")


# --- the degree-3 trace -----------------------------------------------------

def tr3(ts):
    """Morita's degree-3 trace into the cubic symmetric power, a map from
    sorted letter triples to Fraction: the contraction of eta(ts) in
    H tensor L_4, where each letter z takes the tensor words z x y w of the
    derivation's value on z as the monomial xyw.  Each bracket tree is
    evaluated on pairs (ab, f), ab the letter of a leaf and None for a
    bracket, and f mapping (z, sorted x y ...) to the coefficient of the
    words z x y ... of its tensor expansion: f(x) = {(x, ()): 1} and
    f([u, v]) = f(u) ab(v) - f(v) ab(u)."""
    dvs = ts.eta_graded()
    if not dvs:
        return {}
    if set(dvs) != {3}:
        raise ValueError(f"tr3 needs a degree-3 tree sum, got {sorted(dvs)}")

    def contract(left, right):
        (ab_u, f_u), (ab_v, f_v) = left, right
        out = {}
        for f, ab, sign in ((f_u, ab_v, 1), (f_v, ab_u, -1)):
            if ab is not None:
                for (z, mono), c in f.items():
                    key = (z, tuple(sorted(mono + (ab,))))
                    t_add_into(out, {key: sign * c})
        return None, out

    memo, out = {}, {}
    for z in range(1, 2 * ts.genus + 1):
        for w, c in dvs[3].value_on_letter(z).terms.items():
            f = evaluate(standard_bracketing(w), lambda x: (x, {(x, ()): 1}),
                         contract, memo)[1]
            t_add_into(out, {m: x for (y, m), x in f.items() if y == z}, c)
    return {mono: Fraction(c) for mono, c in out.items()}


# --- the explicit element phi = [i, k] ---------------------------------------

def phi_data(genus):
    """Lifts and factor structure of the element phi = [i, k] at genus >= 3.

    Theorem B at every genus g >= 3 rests on one finite check, the genus-3
    run.  The lifts use the handles 1-3 only, and the expansion values of
    a_i, b_i, i <= 3, only the handles j <= i.  The letter map sigma_g:
    i -> i, 3 + i -> g + i (i <= 3) is order-preserving, so it keeps Lyndon
    words, standard bracketings and canonical trees, and commutes with the
    bracket, BCH, eta and gluing: it carries each degree part of phi's
    genus-3 value onto the genus-g one, zero off its image.  A component's
    basis, its tree rows on the rarest color (the smallest on a tie) and its
    Lyndon half trees are listed from the letters of its multidegree in
    order, and "rarest, then smallest" is kept by every order-preserving
    letter map, so sigma_g carries the lattices, verdicts, failing
    multidegrees and varpi over; the closed class keeps its a letters.  Only
    d-spot-values moves, by its closed form (0, 3, 2(g - 2)).
    """
    if genus < 3:
        raise DegreeCapError("the construction of phi needs genus >= 3, "
                             f"got genus {genus}")
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


def _handle_generators(ctx):
    """[None, a1, a2, a3] and [None, b1, b2, b3], indexed by handle."""
    return ([None] + [ctx.gen_a(i) for i in range(1, 4)],
            [None] + [ctx.gen_b(i) for i in range(1, 4)])


def reference_theta_values(ctx):
    """The displayed degree <= 3 expansions of the four curve lifts."""
    a, b = _handle_generators(ctx)

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
    a, b = _handle_generators(ctx)
    s = (a[2].bracket(a[1]).bracket(a[1]) + a[1].bracket(a[2]).bracket(a[2])
         + b[1].bracket(a[1]).bracket(a[2]) + b[2].bracket(a[2]).bracket(a[1]))
    return join(a[3].bracket(b[3]), s) * Fraction(1, 2)


def reference_r2i_class(ctx):
    """The displayed degree-2 class of the bounding-pair word, mod diagrams."""
    a, b = _handle_generators(ctx)
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
    stage("tau4-integral", rep["varpi_bits"] is not None,
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

    d_phi = casson_values(table, data["phi"])
    d3 = casson_values(table, SeparatingTwist(data["gamma3"]))
    d1 = casson_values(table, SeparatingTwist(data["gamma1"]))
    stage("d-phi", d_phi is not None and d_phi[0] == 0,
          "vanishes on the commutator")
    stage("dbar-phi", d_phi is not None and d_phi[2] == 0,
          "vanishes on the commutator")
    spots = (d3[0], d3[1], d1[2])
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
    tau3_phi = tau(value_phi, 3)

    r4 = value_phi.part(4)
    result = r_mod1(value_phi)

    # Independent route for r4: [tau1(i), r3(k)] + [r2(i), tau2(k)].
    direct = (value_i.part(1).bracket(value_k.part(3))
              + value_i.part(2).bracket(value_k.part(2)))

    ctx = table.ctx
    u = ctx.gen_a(1).bracket(ctx.gen_a(2)).bracket(ctx.gen_a(3))
    target_tree = join(u, u) * Fraction(1, 2)

    bits = varpi(result.derivation)  # None outside the integral lattice
    closed_bits = None if bits is None else project_l3_to_a(genus, bits)
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
