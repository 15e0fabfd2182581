"""Command-line front end.

Each subcommand declares its genus cap (`_MAX_GENUS` or
`_SP_KERNEL_MAX_GENUS`, with their measured bases below) and its default
--degree in `make_parser`, and takes only the options it uses, so argparse
refuses an ignored --genus or --degree; the library raises the lower genus
bounds of the mathematics.  A handler only computes and yields (ok, record,
text), ok being a check's verdict or None for a report; `main` alone refuses
a genus above the cap before the handler runs, emits each triple as it comes
and picks the exit code.

Exit codes: 0 success/pass, 1 verification mismatch, 2 malformed input or an
option the command does not use, 3 capability/precondition errors (degree
caps, genus out of range, a degree never computed).
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
# - verify symplectic folds the 4g letter values of the boundary word by
#   BCH through degree 4: 0.18-0.27 s / 20 MB at genus 30, and in process
#   0.15 s / 23 MB at 40 and 0.25 s / 27 MB at 50.  theta and compose
#   of short words took under 0.3 s / 20 MB at genus 30; the table builds
#   only the letter values a word uses, so theta a1+ at degree 4 took
#   0.06-0.13 s / 15 MB at 30.
# - the degree-4 lattices list Lyndon words on the support of one
#   multidegree only, and L_3 mod 2 is read by a closed-form index: verify
#   theorem-b took 0.17-0.23 s / 17 MB at genus 30; verify lcst --md and R of
#   a commutator of two twists stayed under 0.6 s / 20 MB at genus 30.
# - verify lower-bounds lists the L_3 words of one genus at a time: 0.4 s /
#   26 MB at --max-genus 30.
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


def _degrees(args):
    """The --degree given, else the degrees the command declares."""
    return args.default_degrees if args.degree is None else (args.degree,)


def _table(args):
    (degree,) = _degrees(args)
    return get_table(args.genus, degree)


def cmd_theta(args):
    text = sys.stdin.read().strip() if args.word == "-" else args.word
    value = theta(parse_word(text), _table(args))
    yield None, {"word": text, "theta": value.to_json()}, value.render()


def cmd_ranks(args):
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
    yield None, rec, "\n".join(lines)


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
# kind -> the fields of the factors whose body is an object
_FIELDS = {"twist": ("lift", "power"), "bp": ("gamma", "c", "power"),
           "conjugate": ("by", "arg")}


def _parse_factor(obj, path="$", depth=0):
    """The factor of a JSON spec; every error names the JSON path of the
    offending field, e.g. $.commutator[0].twist.power."""
    if depth > _SPEC_MAX_DEPTH:
        raise ValueError(f"spec nested too deeply (over {_SPEC_MAX_DEPTH} "
                         "levels)")
    if isinstance(obj, list):
        if not obj:
            raise ValueError(f"{path}: empty product")
        return Product([_parse_factor(f, f"{path}[{i}]", depth + 1)
                        for i, f in enumerate(obj)])
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"{path}: bad factor object: {obj!r}")
    kind, body = next(iter(obj.items()))
    path = f"{path}.{kind}"
    if kind in _FIELDS:
        if not isinstance(body, dict):
            raise ValueError(f"{path}: the body must be an object: {body!r}")
        for key in body:
            if key not in _FIELDS[kind]:
                raise ValueError(f"{path}.{key}: unknown field")
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


def cmd_compose(args):
    factor = _load_spec(args.spec)
    rec, lines = _value_report(factor_value(_table(args), factor))
    yield None, rec, "\n".join(lines)


def cmd_r(args):
    factor = _load_spec(args.spec)
    result = r_mod1(factor_value(_table(args), factor))
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
    yield None, rec, "\n".join(lines)


def cmd_verify_symplectic(args):
    for n in _degrees(args):
        ok = symplectic_check(get_table(args.genus, n))
        yield (ok, {"genus": args.genus, "degree": n, "ok": ok},
               f"boundary word maps to omega (genus {args.genus}, degree {n})")


def cmd_verify_theorem_b(args):
    stages, _rep = theorem_b_report(_table(args))
    for s in stages:
        yield s["ok"], s, f"{s['stage']}: {s['detail']}"


def cmd_verify_lcst(args):
    g = args.genus
    if args.md is not None:
        try:
            md = tuple(int(x) for x in args.md.split(","))
        except ValueError:
            md = ()
        if len(md) != 2 * g or sum(md) != 6 or any(c < 0 for c in md):
            raise ValueError(f"--md {args.md!r}: expected {2 * g} nonnegative "
                             "integers, comma-separated, summing to 6")
        diag = lcst_component_diagonal(g, md)
        twos = sum(1 for d in diag if d == 2)
        ok = set(diag) <= {1, 2}
        yield (ok, {"genus": g, "md": list(md), "diagonal": diag, "ok": ok},
               f"component {md}: diagonal {diag} ({twos} factors of 2)")
        return
    if g > 2:
        raise DegreeCapError(
            "the full quotient is computed at genus 1 or 2; pass --md for "
            "a single component at higher genus")
    diag = lcst_full_diagonals(g)
    twos = sum(1 for d in diag if d == 2)
    expected = witt_rank(2 * g, 3)
    ok = set(diag) <= {1, 2} and twos == expected
    yield (ok, {"genus": g, "diagonal": diag, "twos": twos,
                "expected": expected, "ok": ok},
           f"full degree-4 quotient: (Z/2)^{twos}, expected exponent {expected}")


def cmd_verify_sp_kernel(args):
    same, span_dim, ker_dim = verify_kernel_lemma(args.genus)
    ses_ok, _ker = verify_ses(args.genus)
    ok = same and ses_ok
    yield (ok, {"genus": args.genus, "ok": ok, "span_dim": span_dim,
                "kernel_dim": ker_dim},
           f"orbit span {span_dim} == contraction kernel {ker_dim}")


def cmd_verify_lower_bounds(args):
    """Compare the Witt-rank exponents with the closed forms and with a count
    of the Lyndon basis of L_3."""
    # a --max-genus below 2 is itself checked, so the library refuses it
    for g in range(min(2, args.max_genus), args.max_genus + 1):
        bordered, closed = lower_bound_exponents(g)
        words = get_context(g, 3).lyndon_basis(3)
        a_words = sum(1 for w in words if max(w) <= g)
        ok = (3 * bordered == 8 * (g ** 3 - g)
              and 3 * closed == g ** 3 - 4 * g
              and bordered == len(words) - 2 * g
              and closed == a_words - g)
        yield (ok, {"genus": g, "bordered": bordered, "closed": closed,
                    "ok": ok},
               f"g={g}: bordered 2^{bordered}, closed 2^{closed}")


def make_parser():
    def command(subparsers, name, func, cap, degrees=None, capped="genus",
                **kwargs):
        """A subcommand whose `capped` option may not exceed `cap` (None: no
        cap) and whose expansion runs at `degrees` when --degree is absent.
        It takes --genus only when `capped` is the genus and --degree only
        when it declares `degrees`, so argparse refuses an option the
        command would ignore (exit 2)."""
        p = subparsers.add_parser(name, **kwargs)
        if capped == "genus":
            p.add_argument("--genus", type=int, default=3)
        if degrees is not None:
            p.add_argument("--degree", type=int, default=None,
                           help="nilpotency class for the expansion (2..4)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func, genus_cap=(capped, cap),
                       default_degrees=degrees)
        return p

    parser = argparse.ArgumentParser(
        prog="torelli",
        description="Exact computations with tree diagrams, symplectic "
                    "expansions and Johnson homomorphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    command(sub, "theta", cmd_theta, _MAX_GENUS, (3,),
            help="print the expansion of a group word").add_argument("word")
    command(sub, "ranks", cmd_ranks, None, help="rank table of the graded pieces")
    command(sub, "compose", cmd_compose, _MAX_GENUS, (3,),
            help="compose a JSON factor spec").add_argument("spec")
    command(sub, "R", cmd_r, _MAX_GENUS, (4,),
            help="mod-1 class of the degree-4 part of a spec").add_argument("spec")

    vsub = sub.add_parser("verify", help="run a verification").add_subparsers(
        dest="check", required=True)
    command(vsub, "symplectic", cmd_verify_symplectic, _MAX_GENUS, (3, 4))
    command(vsub, "theorem-b", cmd_verify_theorem_b, _MAX_GENUS, (3,))
    command(vsub, "lcst", cmd_verify_lcst, _MAX_GENUS).add_argument(
        "--md", default=None,
        help="comma-separated multidegree for a single component")
    command(vsub, "sp-kernel", cmd_verify_sp_kernel, _SP_KERNEL_MAX_GENUS)
    command(vsub, "lower-bounds", cmd_verify_lower_bounds, _MAX_GENUS,
            capped="max_genus").add_argument("--max-genus", type=int, default=8)
    return parser


def _refuse_genus(args):
    """Every command refuses a genus below 1, and a capped command refuses
    its capped option above the cap, before any work."""
    capped, cap = args.genus_cap
    genus = getattr(args, capped)
    option = f"--{capped.replace('_', '-')} {genus}"
    if genus < 1:
        raise DegreeCapError(f"genus out of range: {option} < 1")
    if cap is not None and genus > cap:
        raise DegreeCapError(f"this command runs up to genus {cap}, got "
                             f"{option}")


def main(argv=None):
    args = make_parser().parse_args(argv)
    out = _Out(args.format)
    passed = True
    try:
        _refuse_genus(args)
        for ok, record, text in args.func(args):
            if ok is not None:
                passed = passed and ok
                text = f"{'PASS' if ok else 'FAIL'} {text}"
            out.emit(record, text)
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
    return PASS if passed else MISMATCH


if __name__ == "__main__":
    sys.exit(main())
