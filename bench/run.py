"""The torelli benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout, closed loop with one
client: one op at a time, each checked before the next starts.  Inputs come
from the seed (see inputs.py); torelli receives only the generated inputs.

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a run whose calls into each layer are wrapped by
tracer.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full run record (ops,
environment, tail percentile, failed ratio) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

COLD_PROBES = 21      # timed interpreter launches per cold run, for setup_s
CALCULUS_SETUPS = 3   # calculus warm-ups per run, for setup_s
RUN_LIMIT_S = 150     # no round starts later than this into a run
KILL_AFTER_S = 170    # a worker still running this far into a run is killed
TAIL_BEYOND = 10      # samples a tail percentile must have beyond it

END_TO_END = {"op_p50_loops": "loops", "op_tail_loops": "loops",
              "setup_s": "s", "peak_rss_mb": "MB"}

# The groups of tracer.py, which an untraced run must not import.
GROUPS = ("exact_linalg.lattice", "exact_linalg.rational", "exact_linalg.gf2",
          "lie.eval", "lie.bch", "lie.bracket", "words.theta", "words.table",
          "trees.eta", "trees.glue", "trees.lattice", "mcg.value",
          "mcg.detect", "sp_mod2.action", "sp_mod2.orbit", "sp_mod2.kernel")
_CALLS = ("exact_linalg.lattice", "exact_linalg.rational", "exact_linalg.gf2",
          "lie.eval", "lie.bch", "lie.bracket", "words.theta", "trees.eta",
          "trees.glue", "trees.lattice", "mcg.value", "mcg.detect",
          "sp_mod2.action")
_TOTALS = ("words.theta", "words.table", "trees.eta", "trees.lattice",
           "mcg.detect", "sp_mod2.orbit", "sp_mod2.kernel")
_DISTINCT = ("lie.eval", "words.theta", "trees.eta")
_BUILDS = ("trees.lattice", "sp_mod2.action")

PER_LAYER = {}
for _g in GROUPS:
    if _g in _CALLS:
        PER_LAYER[f"{_g}.calls"] = "count"
    PER_LAYER[f"{_g}.self_s"] = "s"
    if _g in _TOTALS:
        PER_LAYER[f"{_g}.total_s"] = "s"
    if _g in _DISTINCT:
        PER_LAYER[f"{_g}.distinct_ratio"] = "ratio"
    if _g in _BUILDS:
        PER_LAYER[f"{_g}.builds"] = "count"
PER_LAYER.update({
    "exact_linalg.lattice.max_entry_bits": "bits",
    "exact_linalg.gf2.membership_tests": "count",
    "exact_linalg.gf2.useful_ratio": "ratio",
    "trees.glue.joins_out": "count",
    "trace.op_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
})

now = time.monotonic


class Run:
    """One benchmark run: spawns the workers and keeps their reports."""

    def __init__(self, workload, seed, seconds, traced, size="normal"):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.size = size
        self.t_begin = now()
        self.tag = f"{workload}-seed{seed}-trace{int(traced)}" + (
            "" if size == "normal" else f"-{size}")
        self.ops = []
        self.setups = []
        self.digests = {}
        RESULTS.mkdir(exist_ok=True)
        self.stderr = open(RESULTS / f"{self.tag}.stderr", "w")

    def close(self):
        self.stderr.close()

    def spawn(self, *args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 *args], cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=self.stderr)

    def remaining(self):
        return max(1.0, KILL_AFTER_S - (now() - self.t_begin))

    def finish(self, proc):
        """The child's last output line as JSON, or None if it failed."""
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None
        return json.loads(lines[-1])

    # -- set-up --

    def probe(self):
        t0 = now()
        report = self.finish(self.spawn("probe"))
        if report is None:
            raise RuntimeError("torelli does not import")
        return report["ready"] - t0

    def calculus_setup(self, traced=False):
        """Start a calculus worker; returns it and its set-up time."""
        t0 = now()
        proc = self.spawn("calculus", str(self.seed), str(self.seconds),
                          self.size, "1" if traced else "0",
                          str(RESULTS / f"spans-{self.tag}.csv.gz"))
        line = proc.stdout.readline()
        if not line:
            self.finish(proc)
            raise RuntimeError("the calculus worker did not start")
        return proc, json.loads(line)["ready"] - t0

    # -- cold ops --

    def cold_op(self, op, index, round_index, traced):
        args = ["cold", json.dumps(op)]
        if traced:
            args.append(str(RESULTS / f"spans-{self.tag}-op{index}.csv.gz"))
        t0 = now()
        report = self.finish(self.spawn(*args))
        rec = {"class": op["class"], "round": round_index, "traced": traced,
               "wall_s": now() - t0}
        if report is None:
            rec.update(op_s=rec["wall_s"], error="the worker died or timed out")
            return rec
        errors = []
        for call in report["calls"]:
            key = " ".join(call["argv"])
            first = self.digests.setdefault(key, call["digest"])
            if call["error"]:
                errors.append(f"{key}: {call['error']}")
            elif first != call["digest"]:
                errors.append(f"{key}: JSON differs from an earlier op")
        rec.update(op_s=report["op_s"], rss_mb=report["rss_mb"],
                   error="; ".join(errors) or None)
        if traced:
            rec["trace"] = report["trace"]
            rec["spans"] = report["spans"]
        else:
            rec.update(cost=report["cost"], probes=report["probes"])
        return rec

    def run_cold(self):
        self.probe()  # untimed: compiles bytecode, warms the file cache
        self.setups = [self.probe() for _ in range(COLD_PROBES)]
        start = now()
        index = round_index = 0
        last = 0.0
        while True:
            elapsed = now() - start
            if round_index >= (2 if self.traced else 1) and (
                    elapsed + last / 2 >= self.seconds
                    or now() - self.t_begin > RUN_LIMIT_S):
                break
            # Traced runs alternate traced and untraced rounds.
            traced = self.traced and round_index % 2 == 0
            r0 = now()
            for op in inputs.round_ops(self.workload, self.seed, round_index,
                                       self.size):
                self.ops.append(self.cold_op(op, index, round_index, traced))
                index += 1
            last = now() - r0
            round_index += 1
        self.elapsed = now() - start
        self.peak_rss = max(o.get("rss_mb", 0.0) for o in self.ops)
        self.spans = sum(o.get("spans", 0) for o in self.ops)

    # -- the warm stream --

    def run_calculus(self):
        for _ in range(CALCULUS_SETUPS - 1):
            proc, setup = self.calculus_setup()
            proc.kill()
            proc.wait()
            proc.stdout.close()
            self.setups.append(setup)
        proc, setup = self.calculus_setup(self.traced)
        self.setups.append(setup)
        report = self.finish(proc)
        if report is None:
            raise RuntimeError("the calculus worker failed")
        for rec in report["warmup"]:
            rec.update(round=-1, traced=False, warmup=True)
        self.ops = report["warmup"] + report["ops"]
        self.elapsed = report["elapsed_s"]
        self.peak_rss = report["rss_mb"]
        self.spans = report.get("spans", 0)

    def run(self):
        if self.workload == "calculus":
            self.run_calculus()
        else:
            self.run_cold()
        return self.result()

    # -- metrics --

    def timed(self, traced):
        return [o for o in self.ops
                if not o.get("warmup") and o["traced"] == traced]

    def result(self):
        failed = sum(1 for o in self.ops if o["error"])
        attempted = len(self.ops)
        info = {"failed_ratio": failed / attempted}
        if self.traced:
            metrics = self.per_layer(info)
        else:
            metrics = self.end_to_end(info)
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}, info

    def end_to_end(self, info):
        ops = self.timed(False)
        n = len(ops)
        calculus = self.workload == "calculus"

        def tail(ops, value):
            if calculus and len(ops) > TAIL_BEYOND:
                # the highest percentile with at least ten samples beyond it
                return sorted(map(value, ops))[len(ops) - TAIL_BEYOND - 1]
            # A cold run has about 6 to 12 ops of each class, too few for a
            # percentile with ten beyond it: the slowest op of each class.
            return balanced(ops, value, max)

        op_s = lambda o: o["op_s"]  # noqa: E731
        cost = lambda o: o["cost"]  # noqa: E731
        # The host's speed changes in bursts and between minutes, so the
        # times and the rate of a run follow the host more than the program.
        # They go to the run record; the judged op times are the ops' costs
        # in loops of speed.py.
        info["op_p50_s"] = balanced(ops, op_s, statistics.median)
        info["op_best_s"] = balanced(ops, op_s, min)
        info["op_tail_s"] = tail(ops, op_s)
        info["op_tail"] = (f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} ops"
                           if calculus and n > TAIL_BEYOND
                           else f"slowest op of each class, {n} ops")
        info["ops_per_s"] = n / self.elapsed
        costed = [o for o in ops if "cost" in o]  # a dead worker has none
        values = {
            "op_p50_loops": balanced(costed, cost, statistics.median)
            if costed else 0.0,
            "op_tail_loops": tail(costed, cost) if costed else 0.0,
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": self.peak_rss,
        }
        return {k: {"value": values[k], "unit": u}
                for k, u in END_TO_END.items()}

    def per_layer(self, info):
        traced = self.timed(True)
        first = [o for o in traced if o["round"] == traced[0]["round"]]
        values = {}

        def count(field, group=None):
            if group is None:
                return sum(o["trace"]["extra"][field] for o in first)
            return sum(o["trace"]["groups"][group][field] for o in first)

        for g in GROUPS:
            calls = count("calls", g)
            values[f"{g}.calls"] = calls
            values[f"{g}.builds"] = count("distinct", g)
            values[f"{g}.distinct_ratio"] = (count("distinct", g) / calls
                                             if calls else 0.0)
            for field in ("self_s", "total_s"):
                values[f"{g}.{field}"] = balanced(
                    traced, lambda o: o["trace"]["groups"][g][field])
        values["exact_linalg.lattice.max_entry_bits"] = max(
            o["trace"]["extra"]["max_entry_bits"] for o in first)
        tests = count("membership_tests")
        values["exact_linalg.gf2.membership_tests"] = tests
        values["exact_linalg.gf2.useful_ratio"] = (
            count("membership_misses") / tests if tests else 0.0)
        values["trees.glue.joins_out"] = count("joins_out")
        op_s = balanced(traced, lambda o: o["op_s"])
        values["trace.op_s"] = op_s
        values["trace.unattributed_s"] = balanced(
            traced, lambda o: o["op_s"] - sum(
                s["self_s"] for s in o["trace"]["groups"].values()))
        values["trace.overhead_ratio"] = op_s / balanced(
            self.timed(False), lambda o: o["op_s"])
        info["first_traced_round"] = {
            o["class"]: {g: {k: o["trace"]["groups"][g][k]
                             for k in ("calls", "distinct")}
                         for g in GROUPS} | {"extra": o["trace"]["extra"]}
            for o in first}
        return {k: {"value": values[k], "unit": u}
                for k, u in PER_LAYER.items()}

    def record(self, result, info):
        commit = None
        if (ROOT / ".git").exists():
            try:
                commit = subprocess.run(
                    ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                    capture_output=True, timeout=10).stdout.strip() or None
            except (OSError, subprocess.TimeoutExpired):
                pass
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": int(self.traced),
                "size": self.size, "python": platform.python_version(),
                "nproc": os.cpu_count(), "loadavg_at_start": self.loadavg,
                "git_commit": commit or "unknown (not a git checkout)",
                "setups_s": self.setups, "elapsed_s": self.elapsed,
                "spans_written": self.spans, "result": result, "info": info,
                "ops": self.ops}


def balanced(ops, value, average=statistics.fmean):
    """Average `value` per input class, then across classes with equal
    weight, so that the mix a seed draws cannot move it."""
    by_class = {}
    for o in ops:
        by_class.setdefault(o["class"], []).append(value(o))
    return statistics.fmean(average(v) for v in by_class.values())


def run_workload(workload, seed, seconds, traced, size="normal"):
    """Run one workload; returns (result, run record)."""
    run = Run(workload, seed, seconds, traced, size)
    run.loadavg = os.getloadavg()
    try:
        result, info = run.run()
        return result, run.record(result, info)
    finally:
        run.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torelli" / "__init__.py").is_file():
        print(f"bench: no torelli sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
