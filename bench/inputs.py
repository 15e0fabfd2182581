"""Generated inputs of the four workloads: a pure function of the seed.

Nothing here imports torelli; the expected values of the checks come from
closed forms computed independently of the program under test.

A run is a sequence of rounds.  Each round holds one op of every input class
of its workload (a genus, or an identity of the calculus), in an order the
seed draws, so every run measures the same mix however many rounds it fits.
"""

from __future__ import annotations

import random

WORKLOADS = ("theorem-b", "lcst", "sp-kernel", "calculus")

# Stages of `verify theorem-b`, in report order.
THEOREM_B_STAGES = (
    "lift-genera", "theta-gamma1", "theta-gamma2", "theta-gamma3",
    "theta-gamma4", "tau1-i", "tau2-k", "tau3-phi", "r3k-class", "r2i-class",
    "r4-two-routes", "tau4-integral", "r4-class", "R-nonzero", "varpi-class",
    "closed-class", "d-phi", "dbar-phi", "d-spot-values")

CALCULUS_KINDS = ("10e", "10f", "10h", "rcirc")

# Sizes of a normal run and of the tiny runs the self-tests make.
SIZES = {
    "normal": {"theorem-b": (3, 4, 5), "lcst_full": 2, "lcst_part": 3,
               "sp-kernel": (5, 6), "calculus_genus": 2},
    "tiny": {"theorem-b": (3,), "lcst_full": 1, "lcst_part": 2,
             "sp-kernel": (3, 4), "calculus_genus": 1},
}


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def witt_rank(n, d):
    """Rank of the degree-d part of the free Lie algebra on n generators."""
    return sum(_mobius(e) * n ** (d // e) for e in range(1, d + 1)
               if d % e == 0) // d


def multidegrees(genus, total):
    """All color-count vectors of the given total over 2g colors, in the
    order `torelli.trees.all_multidegrees` lists them."""
    def rec(slots, left):
        if slots == 1:
            yield (left,)
            return
        for c in range(left + 1):
            for rest in rec(slots - 1, left - c):
                yield (c,) + rest
    return list(rec(2 * genus, total))


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def _cli(*argv):
    return [str(a) for a in argv] + ["--format", "json"]


def _cold_op(workload, cls, sizes, rng):
    if workload == "theorem-b":
        return {"class": f"g{cls}", "calls": [
            {"argv": _cli("verify", "theorem-b", "--genus", cls),
             "check": "theorem-b", "expect": list(THEOREM_B_STAGES)}]}
    if workload == "sp-kernel":
        return {"class": f"g{cls}", "calls": [
            {"argv": _cli("verify", "sp-kernel", "--genus", cls),
             "check": "sp-kernel", "expect": witt_rank(2 * cls, 3) - 2 * cls}]}
    full, part = sizes["lcst_full"], sizes["lcst_part"]
    md = rng.choice(multidegrees(part, 6))
    return {"class": f"g{full}+g{part}", "calls": [
        {"argv": _cli("verify", "lcst", "--genus", full),
         "check": "lcst-full", "expect": witt_rank(2 * full, 3)},
        {"argv": _cli("verify", "lcst", "--genus", part, "--md",
                      ",".join(map(str, md))),
         "check": "lcst-part", "expect": list(md)}]}


def _classes(workload, sizes):
    if workload == "theorem-b":
        return list(sizes["theorem-b"])
    if workload == "sp-kernel":
        return list(sizes["sp-kernel"])
    if workload == "lcst":
        return [None]
    return list(CALCULUS_KINDS)


def _word(rng, genus, length):
    return "".join(f"{rng.choice('ab')}{rng.randint(1, genus)}"
                   f"{rng.choice('+-')}" for _ in range(length))


def _invert(word):
    tokens = [word[i:i + 3] for i in range(0, len(word), 3)]
    flip = {"+": "-", "-": "+"}
    return "".join(t[:2] + flip[t[2]] for t in reversed(tokens))


def _reduce(word):
    out = []
    for i in range(0, len(word), 3):
        t = word[i:i + 3]
        if out and out[-1][:2] == t[:2] and out[-1][2] != t[2]:
            out.pop()
        else:
            out.append(t)
    return "".join(out)


def null_word(rng, genus):
    """A random commutator of two words of length 2 that is not freely
    trivial, so it lifts a separating curve: null-homologous by construction.
    The length is fixed so that ops cost alike whatever the seed."""
    while True:
        u, v = _word(rng, genus, 2), _word(rng, genus, 2)
        w = u + v + _invert(u) + _invert(v)
        if _reduce(w):
            return w


def calculus_op(kind, genus, rng):
    """Fresh random lifts for one instance of a calculus identity."""
    if kind == "10h":
        gamma = _word(rng, genus, 2)
        return {"class": kind, "kind": kind, "gamma": gamma,
                "c": null_word(rng, genus), "lift": null_word(rng, genus)}
    return {"class": kind, "kind": kind,
            "lifts": [null_word(rng, genus), null_word(rng, genus)]}


def round_ops(workload, seed, index, size="normal", stream="timed"):
    """The ops of round `index` of a run with this seed.

    `stream` separates the calculus warm-up ops from the timed ones, so the
    warm-up never computes an input the timed phase will see.  The warm-up
    is the same for every seed, so that set-up time measures the same work.
    """
    if stream == "warmup":
        seed = 0
    sizes = SIZES[size]
    rng = _rng(workload, stream, seed, index)
    classes = _classes(workload, sizes)
    rng.shuffle(classes)
    if workload == "calculus":
        return [calculus_op(k, sizes["calculus_genus"], rng) for k in classes]
    return [_cold_op(workload, c, sizes, rng) for c in classes]
