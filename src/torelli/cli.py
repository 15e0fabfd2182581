"""Command-line front end.

Exit codes: 0 success/pass, 1 verification mismatch, 2 malformed input,
3 capability/precondition errors (degree caps, genus out of range, a
degree never computed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .lie import DegreeCapError, get_context, lbar_rank, witt_rank
from .mcg import (BoundingPairMap, Commutator, Conjugate, Inverse, Product,
                  SeparatingTwist, WindowUnderflow, factor_value, r_mod1,
                  theorem_b_report)
from .sp_mod2 import lower_bound_exponents, verify_kernel_lemma, verify_ses
from .trees import lcst_component_diagonal, lcst_full_diagonals
from .words import (WordParseError, get_table, parse_word, symplectic_check,
                    theta)

PASS, MISMATCH, INPUT_ERROR, CAPABILITY_ERROR = 0, 1, 2, 3
# Deepest factor nesting of a spec, far beyond any real product of twists;
# it keeps parsing and evaluation well inside Python's recursion limit.
_SPEC_MAX_DEPTH = 100
# Largest genus of verify sp-kernel: the span and kernel have dimension 4576 /
# 7280 / 10880 at genus 12 / 14 / 16; a cold run took 0.35-0.53 / 0.69-1.0 /
# 1.5-2.1 s with a 31 / 50 / 90 MB peak (genus 17: 1.9-2.4 s, 120 MB; 18:
# 2.7-3.9 s, 160 MB) on a 2-core x86-64 machine with Python 3.11.
_SP_KERNEL_MAX_GENUS = 16
# Largest genus of theta, compose, R, verify symplectic, theorem-b and
# lcst --md, and largest --max-genus of verify lower-bounds.  Measured cold
# on a 2-core x86-64 machine with Python 3.11:
# - verify symplectic multiplies out the 4g-letter boundary word through
#   degree 4: 4.3 s / 24 MB at genus 30, 11-14 s / 31 MB at 40 and 34 s /
#   40 MB at 50.  theta and compose of short words took under 0.3 s / 20 MB
#   at genus 30; the table builds only the letter values a word uses, so
#   theta a1+ at degree 4 took 0.06-0.13 s / 15 MB at genus 30.
# - the degree-4 lattices list Lyndon words on the support of one
#   multidegree only, so the L_3 word lists on 2g letters grow fastest:
#   verify theorem-b took 0.46 s / 29 MB at genus 30, 0.83 s / 44 MB at 40
#   and 1.2 s / 69 MB at 50; verify lcst --md and R of a commutator of two
#   twists stayed under 0.6 s / 20 MB at genus 30.
# - verify lower-bounds caches the L_3 word lists of genus 2..30: 58 MB.
_MAX_GENUS = 30


class _Out:
    """The one writer of standard output: text lines as they come, or the
    JSON records at close, per the --format flag.  A reader that closes the
    pipe early ends the output but not the command: the rest goes to
    os.devnull, and the exit code stays the command's own."""

    def __init__(self, fmt):
        self.fmt = fmt
        self.records = []

    def _write(self, text):
        try:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)

    def emit(self, record, text):
        if self.fmt == "json":
            self.records.append(record)
        else:
            self._write(text)

    def close(self):
        if self.fmt == "json":
            self._write(json.dumps(self.records, indent=2))


def _require_genus(genus):
    if genus > _MAX_GENUS:
        raise DegreeCapError(f"this command runs up to genus {_MAX_GENUS}, "
                             f"got genus {genus}")


def _table(args):
    return get_table(args.genus, args.degree if args.degree is not None else 3)


def cmd_theta(args, out):
    _require_genus(args.genus)
    text = sys.stdin.read().strip() if args.word == "-" else args.word
    word = parse_word(text)
    value = theta(word, _table(args))
    out.emit({"word": text, "theta": value.to_json()}, value.render())
    return PASS


def cmd_ranks(args, out):
    g = args.genus
    lines = []
    rec = {"genus": g, "free_lie_ranks": {}, "derivation_dims": {},
           "closed_lie3_rank": witt_rank(2 * g, 3) - 2 * g}
    for d in range(1, 6):
        rec["free_lie_ranks"][d] = witt_rank(2 * g, d)
        lines.append(f"rank L_{d} = {witt_rank(2 * g, d)}")
    for k in range(1, 5):
        dim = 2 * g * witt_rank(2 * g, k + 1) - witt_rank(2 * g, k + 2)
        rec["derivation_dims"][k] = dim
        lines.append(f"dim D_{k} = {dim}")
    lines.append(f"rank of closed L_3 = {rec['closed_lie3_rank']}")
    if g <= 3:
        computed = lbar_rank(get_context(g, 3), 3)
        rec["closed_lie3_rank_computed"] = computed
        lines.append(f"  (recomputed from the ideal: {computed})")
    out.emit(rec, "\n".join(lines))
    return PASS


def _field(body, key, path):
    if key not in body:
        raise ValueError(f"{path}.{key}: missing")
    return body[key]


def _word(body, key, path):
    text = _field(body, key, path)
    if not isinstance(text, str):
        raise ValueError(f"{path}.{key}: must be a word string: {text!r}")
    try:
        return parse_word(text)
    except WordParseError as exc:
        raise ValueError(f"{path}.{key}: {exc}") from exc


# kind -> (class, word fields) of the factors that take a power
_POWERED = {"twist": (SeparatingTwist, ("lift",)),
            "bp": (BoundingPairMap, ("gamma", "c"))}


def _parse_factor(obj, path="$", depth=0):
    """The factor of a JSON spec; every error names the JSON path of the
    offending field, e.g. $.commutator[0].twist.power."""
    if depth > _SPEC_MAX_DEPTH:
        raise ValueError(f"spec nested too deeply (over {_SPEC_MAX_DEPTH} "
                         "levels)")
    if isinstance(obj, list):
        return Product([_parse_factor(f, f"{path}[{i}]", depth + 1)
                        for i, f in enumerate(obj)])
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"{path}: bad factor object: {obj!r}")
    kind, body = next(iter(obj.items()))
    path = f"{path}.{kind}"
    if kind in ("twist", "bp", "conjugate") and not isinstance(body, dict):
        raise ValueError(f"{path}: the body must be an object: {body!r}")
    if kind in ("product", "commutator") and not isinstance(body, list):
        raise ValueError(f"{path}: the body must be an array: {body!r}")
    if kind in _POWERED:
        cls, keys = _POWERED[kind]
        words = [_word(body, key, path) for key in keys]
        try:
            return cls(*words, body.get("power", 1))
        except ValueError as exc:
            raise ValueError(f"{path}.power: {exc}") from exc
    if kind == "product":
        return _parse_factor(body, path, depth)
    if kind == "commutator":
        if len(body) != 2:
            raise ValueError(f"{path}: a commutator takes two factors, "
                             f"got {len(body)}")
        return Commutator(*_parse_factor(body, path, depth).factors)
    if kind == "conjugate":
        return Conjugate(
            *(_parse_factor(_field(body, key, path), f"{path}.{key}", depth + 1)
              for key in ("by", "arg")))
    if kind == "inverse":
        return Inverse(_parse_factor(body, path, depth + 1))
    raise ValueError(f"{path}: unknown factor kind {kind!r}")


def _load_spec(arg):
    """A factor spec: a JSON file path, '-' for stdin, or an inline lift word
    (shorthand for a single separating twist)."""
    text = None
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith(("[", "{")):
        text = arg
    elif not arg.strip():
        raise ValueError("empty spec")
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            try:
                return SeparatingTwist(parse_word(arg))
            except WordParseError as word_exc:
                raise ValueError(f"spec {arg!r} is neither a readable file "
                                 f"({exc}) nor a lift word ({word_exc})") from exc
    try:
        return _parse_factor(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON spec: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("spec nested too deeply") from exc


def _value_report(value):
    rec = {"depth": value.depth, "known": value.known, "parts": {}}
    lines = [f"knowledge window: degrees {value.depth}..{value.known}"]
    for d, part in value.known_parts().items():
        if not part.terms:
            continue
        rec["parts"][str(d)] = part.to_json()
        dv = part.eta()
        lines.append(f"degree {d}: {len(part.terms)} joined trees, "
                     f"eta has {len(dv.terms)} terms")
    return rec, lines


def cmd_compose(args, out):
    _require_genus(args.genus)
    factor = _load_spec(args.spec)
    value = factor_value(_table(args), factor)
    rec, lines = _value_report(value)
    out.emit(rec, "\n".join(lines))
    return PASS


def cmd_r(args, out):
    _require_genus(args.genus)
    factor = _load_spec(args.spec)
    if args.degree is None:
        args.degree = 4
    value = factor_value(_table(args), factor)
    result = r_mod1(value)
    rec = {
        "zero_mod_1": result.is_zero,
        "failing_multidegrees": [list(md) for md in result.failing_multidegrees],
        "degree4_tree": result.r4_tree.to_json(),
        "degree4_derivation": result.derivation.to_json(),
        "odd_denominators": result.odd_denominators,
    }
    lines = [f"class mod 1: {'zero' if result.is_zero else 'NONZERO'}"]
    if not result.is_zero:
        lines.append("failing multidegrees: "
                     + ", ".join(str(md) for md in result.failing_multidegrees))
    if result.odd_denominators:
        lines.append(f"denominators outside powers of 2: {result.odd_denominators}")
    out.emit(rec, "\n".join(lines))
    return PASS


def cmd_verify_symplectic(args, out):
    _require_genus(args.genus)
    degrees = [args.degree] if args.degree is not None else [3, 4]
    ok = True
    for n in degrees:
        good = symplectic_check(get_table(args.genus, n))
        ok = ok and good
        out.emit({"genus": args.genus, "degree": n, "ok": good},
                 f"{'PASS' if good else 'FAIL'} boundary word maps to omega "
                 f"(genus {args.genus}, degree {n})")
    return PASS if ok else MISMATCH


def cmd_verify_theorem_b(args, out):
    if args.genus < 3:
        raise DegreeCapError("the construction needs genus >= 3")
    _require_genus(args.genus)
    stages, _rep = theorem_b_report(_table(args))
    ok = True
    for s in stages:
        ok = ok and s["ok"]
        out.emit(s, f"{'PASS' if s['ok'] else 'FAIL'} {s['stage']}: {s['detail']}")
    return PASS if ok else MISMATCH


def cmd_verify_lcst(args, out):
    g = args.genus
    if args.md:
        _require_genus(g)
        md = tuple(int(x) for x in args.md.split(","))
        if len(md) != 2 * g or sum(md) != 6 or any(c < 0 for c in md):
            raise ValueError("multidegree must be 2g nonnegative counts summing to 6")
        diag = lcst_component_diagonal(g, md)
        twos = sum(1 for d in diag if d == 2)
        ok = set(diag) <= {1, 2}
        out.emit({"genus": g, "md": list(md), "diagonal": diag, "ok": ok},
                 f"{'PASS' if ok else 'FAIL'} component {md}: diagonal {diag} "
                 f"({twos} factors of 2)")
        return PASS if ok else MISMATCH
    if g > 2:
        raise DegreeCapError(
            "the full quotient is computed at genus 1 or 2; pass --md for "
            "a single component at higher genus")
    diag = lcst_full_diagonals(g)
    twos = sum(1 for d in diag if d == 2)
    expected = witt_rank(2 * g, 3)
    ok = set(diag) <= {1, 2} and twos == expected
    out.emit({"genus": g, "diagonal": diag, "twos": twos, "expected": expected,
              "ok": ok},
             f"{'PASS' if ok else 'FAIL'} full degree-4 quotient: "
             f"(Z/2)^{twos}, expected exponent {expected}")
    return PASS if ok else MISMATCH


def cmd_verify_sp_kernel(args, out):
    if args.genus < 3:
        raise DegreeCapError("the orbit-span identification needs genus >= 3")
    if args.genus > _SP_KERNEL_MAX_GENUS:
        raise DegreeCapError(
            f"the orbit span is computed up to genus {_SP_KERNEL_MAX_GENUS}")
    ok, span_dim, ker_dim = verify_kernel_lemma(args.genus)
    ses_ok, ker = verify_ses(args.genus)
    good = ok and ses_ok
    out.emit({"genus": args.genus, "ok": good, "span_dim": span_dim,
              "kernel_dim": ker_dim},
             f"{'PASS' if good else 'FAIL'} orbit span {span_dim} == "
             f"contraction kernel {ker_dim}")
    return PASS if good else MISMATCH


def cmd_verify_lower_bounds(args, out):
    """Compare the Witt-rank exponents with the closed forms and with a count
    of the Lyndon basis of L_3."""
    if args.max_genus < 2:
        raise DegreeCapError("genus out of range: the bounds start at genus 2, "
                             f"got --max-genus {args.max_genus}")
    if args.max_genus > _MAX_GENUS:
        raise DegreeCapError("the bounds are checked up to genus "
                             f"{_MAX_GENUS}, got --max-genus "
                             f"{args.max_genus}")
    ok = True
    for g in range(2, args.max_genus + 1):
        bordered, closed = lower_bound_exponents(g)
        words = get_context(g, 3).lyndon_basis(3)
        a_words = sum(1 for w in words if max(w) <= g)
        good = (3 * bordered == 8 * (g ** 3 - g)
                and 3 * closed == g ** 3 - 4 * g
                and bordered == len(words) - 2 * g
                and closed == a_words - g)
        ok = ok and good
        out.emit({"genus": g, "bordered": bordered, "closed": closed, "ok": good},
                 f"{'PASS' if good else 'FAIL'} g={g}: bordered 2^{bordered}, "
                 f"closed 2^{closed}")
    return PASS if ok else MISMATCH


def make_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--genus", type=int, default=3)
    common.add_argument("--degree", type=int, default=None,
                        help="nilpotency class for the expansion (2..4)")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="torelli",
        description="Exact computations with tree diagrams, symplectic "
                    "expansions and Johnson homomorphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", parents=[common],
                       help="print the expansion of a group word")
    p.add_argument("word")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("ranks", parents=[common],
                       help="rank table of the graded pieces")
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("compose", parents=[common],
                       help="compose a JSON factor spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("R", parents=[common],
                       help="mod-1 class of the degree-4 part of a spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_r)

    v = sub.add_parser("verify", help="run a verification")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("symplectic", parents=[common])
    p.set_defaults(func=cmd_verify_symplectic)

    p = vsub.add_parser("theorem-b", parents=[common])
    p.set_defaults(func=cmd_verify_theorem_b)

    p = vsub.add_parser("lcst", parents=[common])
    p.add_argument("--md", default=None,
                   help="comma-separated multidegree for a single component")
    p.set_defaults(func=cmd_verify_lcst)

    p = vsub.add_parser("sp-kernel", parents=[common])
    p.set_defaults(func=cmd_verify_sp_kernel)

    p = vsub.add_parser("lower-bounds", parents=[common])
    p.add_argument("--max-genus", type=int, default=8)
    p.set_defaults(func=cmd_verify_lower_bounds)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    out = _Out(args.format)
    try:
        if args.genus < 1:
            raise DegreeCapError(f"genus out of range: {args.genus} < 1")
        code = args.func(args, out)
    except WordParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (DegreeCapError, WindowUnderflow) as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return CAPABILITY_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
