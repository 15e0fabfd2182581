"""Worker process of the benchmark: the process that does the work, so that
its import, its caches and its peak memory are those a user's process has.

    child.py probe                        import torelli, say "ready", exit
    child.py cold SPEC_JSON [SPANS]       one cold op: torelli.cli calls
    child.py calculus SEED SECONDS SIZE TRACE SPANS
                                          the warm calculus stream

Every mode prints one JSON object as its last line of output.  Times are
read from CLOCK_MONOTONIC, which all processes of the machine share.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import inputs
import speed

now = time.monotonic
ROUND_LIMIT_S = 100  # no round starts later than this into the timed phase


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- cold ops ----------------------------------------------------------------

def _record(records):
    if not isinstance(records, list) or len(records) != 1:
        raise ValueError(f"expected one JSON record, got {records!r:.80}")
    return records[0]


def check_call(call, code, text):
    """Raises ValueError unless the output of one CLI call is the expected
    verdict."""
    if code != 0:
        raise ValueError(f"exit code {code}")
    records = json.loads(text)
    kind, expect = call["check"], call["expect"]
    if kind == "theorem-b":
        names = [r.get("stage") for r in records]
        if names != expect:
            raise ValueError(f"stages {names} != {expect}")
        bad = [r["stage"] for r in records if r.get("ok") is not True]
        if bad:
            raise ValueError(f"failed stages {bad}")
        return
    rec = _record(records)
    if rec.get("ok") is not True:
        raise ValueError(f"verdict {rec!r:.200}")
    if kind == "sp-kernel":
        if not rec["span_dim"] == rec["kernel_dim"] == expect:
            raise ValueError(f"span {rec['span_dim']}, kernel "
                             f"{rec['kernel_dim']}, expected {expect}")
    elif kind == "lcst-full":
        if not rec["twos"] == rec["expected"] == expect:
            raise ValueError(f"(Z/2)^{rec['twos']}, expected exponent {expect}")
        if not set(rec["diagonal"]) <= {1, 2}:
            raise ValueError(f"diagonal {rec['diagonal']}")
    elif kind == "lcst-part":
        if rec["md"] != expect or not set(rec["diagonal"]) <= {1, 2}:
            raise ValueError(f"component {rec['md']}: {rec['diagonal']}")
    else:
        raise ValueError(f"unknown check {kind!r}")


def cold(spec, spans_path=None):
    from torelli import cli
    tracer = None
    if spans_path:
        import tracer as tracer_module
        tracer = tracer_module.Tracer().install()
        tracer.begin_op(0)
    calls = []
    probe = speed.Probe() if tracer is None else contextlib.nullcontext()
    t0 = now()
    with probe:
        for call in spec["calls"]:
            out = io.StringIO()
            error = None
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(call["argv"])
                check_call(call, code, out.getvalue())
            except Exception as exc:  # every failure is counted, none dropped
                error = f"{type(exc).__name__}: {exc}"
            calls.append({"argv": call["argv"], "error": error,
                          "digest": hashlib.sha256(
                              out.getvalue().encode()).hexdigest()})
    report = {"op_s": now() - t0, "calls": calls, "rss_mb": peak_rss_mb()}
    if tracer is None:
        report.update(op_s=probe.busy_s, cost=probe.cost, probes=probe.probes)
    else:
        report["trace"] = tracer.end_op()
        tracer.uninstall()
        report["spans"] = tracer.write(spans_path)
    return report


# --- the warm calculus stream ------------------------------------------------

def calculus_holds(op, table):
    """Whether the identity drawn for the op holds on its fresh inputs."""
    from torelli import mcg, trees, words
    if op["kind"] == "10h":
        bp = mcg.factor_value(table, mcg.BoundingPairMap(
            words.parse_word(op["gamma"]), words.parse_word(op["c"])))
        tw = mcg.factor_value(table, mcg.SeparatingTwist(
            words.parse_word(op["lift"])))
        t3 = bp.commutator(tw).part(3)
        return not t3.terms or mcg.tr3(t3) == {}
    f, h = (mcg.factor_value(table, mcg.SeparatingTwist(words.parse_word(w)))
            for w in op["lifts"])
    if op["kind"] == "10e":
        rhs = (f.part(4) + h.part(4)
               + f.part(2).bracket(h.part(2)) * Fraction(1, 2))
        return f.bch(h).part(4).equals(rhs)
    if op["kind"] == "10f":
        return mcg.r_mod1(f.commutator(h)).is_zero
    if op["kind"] == "rcirc":
        total = (mcg.r_circ_mod1(f).derivation
                 + mcg.r_circ_mod1(h).derivation)
        diff = mcg.r_circ_mod1(f.bch(h)).derivation - total
        return trees.mod1_class_is_zero(diff)[0]
    raise ValueError(f"unknown identity {op['kind']!r}")


def run_calculus_op(op, table, probed=False):
    probe = speed.Probe() if probed else contextlib.nullcontext()
    t0 = now()
    with probe:
        try:
            holds = calculus_holds(op, table)
            error = None if holds == op.get("expect", True) else \
                f"identity {op['kind']} gave {holds}"
        except Exception as exc:  # every failure is counted, none dropped
            error = f"{type(exc).__name__}: {exc}"
    rec = {"class": op["class"], "op_s": now() - t0, "error": error}
    if probed:
        rec.update(op_s=probe.busy_s, cost=probe.cost, probes=probe.probes)
    return rec


def calculus(seed, seconds, size, traced, spans_path):
    from torelli import trees, words
    tracer = None
    if traced:
        import tracer as tracer_module
        tracer = tracer_module.Tracer().install()
    genus = inputs.SIZES[size]["calculus_genus"]
    table = words.get_table(genus, 4)
    for md in trees.all_multidegrees(genus, 6):
        trees.tree_lattice(genus, 4, md)
    warmup = [run_calculus_op(op, table) for op in
              inputs.round_ops("calculus", seed, 0, size, stream="warmup")]
    print(json.dumps({"ready": now()}), flush=True)

    ops = []
    start = now()
    index = 0
    last = 0.0
    # A round starts while it would end nearer the deadline than not.
    # Traced runs alternate traced and untraced rounds, for the overhead.
    while index < (2 if traced else 1) or (
            now() - start + last / 2 < seconds
            and now() - start < ROUND_LIMIT_S):
        r0 = now()
        trace_round = traced and index % 2 == 0
        if tracer is not None:
            tracer.install() if trace_round else tracer.uninstall()
        for op in inputs.round_ops("calculus", seed, index, size):
            if trace_round:
                tracer.begin_op(len(ops))
            rec = run_calculus_op(op, table, probed=not trace_round)
            rec.update(round=index, traced=trace_round)
            if trace_round:
                rec["trace"] = tracer.end_op()
            ops.append(rec)
        last = now() - r0
        index += 1
    elapsed = now() - start
    report = {"ops": ops, "warmup": warmup, "elapsed_s": elapsed,
              "rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.write(spans_path)
    return report


def main(argv):
    mode = argv[0]
    if mode == "probe":
        import torelli.cli  # noqa: F401  (the import is what is timed)
        report = {"ready": now()}
    elif mode == "cold":
        report = cold(json.loads(argv[1]), argv[2] if len(argv) > 2 else None)
    elif mode == "calculus":
        seed, seconds, size, traced, spans = argv[1:6]
        report = calculus(int(seed), float(seconds), size, traced == "1",
                          spans)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
