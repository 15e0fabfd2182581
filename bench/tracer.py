"""Outside-in tracer for the benchmark's traced runs.

It wraps the public functions of each torelli layer from outside the
program, and records one span (group, start, end, parent span, op id) per
call that enters a layer from another layer.  A call made while a span of
the same layer is open opens no span and is not counted: recursive
`from_tree` or the brackets inside `bch` stay inside their caller's span.
Two groups are also measured inside their own layer, because their layer
is their only caller: eta (`TreeSum.eta_graded`, which the lattice builds of
`trees` call) and the Sp action matrices (which `orbit_span` builds).  The
GF(2) membership tests, made from inside the closure, are counted on every
call without a span.

Spans stay in memory and are written out once, at the end of the process.
A layer's self time is its span time minus the time of its child spans.
Untraced runs never import this module.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

from torelli import exact_linalg, lie, mcg, sp_mod2, trees, words

_perf = time.perf_counter


def _from_tree_key(ctx, tree, coeff=1):
    return ctx.genus, ctx.max_degree, tree


def _theta_key(word, table):
    return word.letters, table.ctx.genus, table.ctx.max_degree


def _eta_key(ts):
    return ts.genus, frozenset(ts.terms.items())


def _args_key(*args):
    return args


# (group, owner, attribute names, key of the distinct count or None).
# Module functions are replaced in every torelli module that bound them.
# The distinct count is of keys not seen before in the process: the work a
# memo kept for the life of the process would still have to do.
TARGETS = (
    ("exact_linalg.lattice", exact_linalg,
     ("hnf", "quotient_diagonal", "snf_diagonal", "solve_integer_combination"),
     None),
    ("exact_linalg.lattice", exact_linalg.IntegerLattice,
     ("contains", "reduce"), None),
    ("exact_linalg.rational", exact_linalg,
     ("rref", "rational_rank", "solve_rational_combination"), None),
    ("exact_linalg.gf2", exact_linalg, ("gf2_span_closure", "gf2_kernel"), None),
    ("exact_linalg.gf2", exact_linalg.Mod2Subspace, ("add", "contains"), None),
    ("lie.eval", lie.LieContext, ("from_tree",), _from_tree_key),
    ("lie.bch", lie.LieElement, ("bch",), None),
    ("lie.bracket", lie.LieElement, ("bracket",), None),
    ("words.theta", words, ("theta",), _theta_key),
    ("words.table", words, ("get_table",), None),
    ("trees.eta", trees.TreeSum, ("eta_graded",), _eta_key),
    ("trees.glue", trees.TreeSum, ("_pairing_product",), None),
    ("trees.lattice", trees,
     ("tree_lattice", "degree4_presentation", "lcst_component_diagonal"),
     _args_key),
    ("mcg.value", mcg, ("factor_value",), None),
    ("mcg.value", mcg.GradedValue,
     ("bch", "commutator", "conjugate_by", "bracket"), None),
    ("mcg.detect", mcg, ("r_mod1", "r_circ_mod1", "tr3", "tau"), None),
    ("sp_mod2.action", sp_mod2, ("action_matrix",), _args_key),
    ("sp_mod2.orbit", sp_mod2, ("orbit_span",), None),
    ("sp_mod2.kernel", sp_mod2, ("stigma_kernel", "verify_ses"), None),
)

GROUPS = tuple(dict.fromkeys(t[0] for t in TARGETS))
INNER = ("trees.eta", "sp_mod2.action")  # spans inside their own layer too
LAYERS = tuple(dict.fromkeys(g.split(".")[0] for g in GROUPS))
# Counts that are not calls of a group, measured at the same boundaries.
EXTRAS = ("max_entry_bits", "joins_out", "membership_tests",
          "membership_misses")


class Tracer:
    def __init__(self):
        self.origin = _perf()
        self.op = -1
        self._stack = []  # frames: [span index, layer, child time, group]
        self._seen = [set() for _ in GROUPS]
        self._patches = []
        # Spans, column-wise to keep a long run small in memory.
        self.span_group = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.extra = {}
        self._reset()

    def _reset(self):
        # per group: calls, self seconds, total seconds, distinct keys
        self.stats = [[0, 0.0, 0.0, 0] for _ in GROUPS]
        self.extra.update(dict.fromkeys(EXTRAS, 0))

    # -- ops --

    def begin_op(self, op_id):
        self.op = op_id
        self._reset()

    def end_op(self):
        """The per-op figures, then a fresh count for the next op."""
        out = {"groups": {g: {"calls": s[0], "self_s": s[1], "total_s": s[2],
                              "distinct": s[3]}
                          for g, s in zip(GROUPS, self.stats)},
               "extra": dict(self.extra)}
        self._reset()
        return out

    # -- patching --

    def install(self):
        if self._patches:
            return self
        mods = [m for n, m in list(sys.modules.items())
                if n == "torelli" or n.startswith("torelli.")]
        for group, owner, names, key in TARGETS:
            gi = GROUPS.index(group)
            for name in names:
                fn = getattr(owner, name)
                wrapped = self._wrap(gi, fn, key, self._observer(name))
                holders = [owner] if isinstance(owner, type) else \
                    [m for m in mods if any(v is fn for v in vars(m).values())]
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapped)
        return self

    def uninstall(self):
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches = []

    def _observer(self, name):
        extra = self.extra
        if name == "hnf":
            def observe(result):
                bits = max((abs(x).bit_length() for row in result.rows
                            for x in row), default=0)
                extra["max_entry_bits"] = max(extra["max_entry_bits"], bits)
            return observe
        if name == "_pairing_product":
            def observe(result):
                extra["joins_out"] += len(result.terms)
            return observe
        return None

    def _wrap(self, gi, fn, key, observe):
        tracer = self
        stack = self._stack
        layer = LAYERS.index(GROUPS[gi].split(".")[0])
        inner = GROUPS[gi] in INNER
        counts_membership = fn is _MOD2_CONTAINS

        def wrapper(*args, **kwargs):
            if stack and (stack[-1][3] == gi
                          or stack[-1][1] == layer and not inner):
                if counts_membership:
                    return tracer._membership(fn, args, kwargs)
                return fn(*args, **kwargs)
            st = tracer.stats[gi]
            st[0] += 1
            if key is not None:
                k = key(*args, **kwargs)
                seen = tracer._seen[gi]
                if k not in seen:
                    seen.add(k)
                    st[3] += 1
            index = len(tracer.span_start)
            parent = stack[-1][0] if stack else -1
            tracer.span_group.append(gi)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [index, layer, 0.0, gi]
            stack.append(frame)
            t0 = _perf()
            try:
                if counts_membership:
                    result = tracer._membership(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                st[1] += dur - frame[2]
                st[2] += dur
                if stack:
                    stack[-1][2] += dur
                tracer.span_start[index] = t0 - tracer.origin
                tracer.span_end[index] = t1 - tracer.origin
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _membership(self, fn, args, kwargs):
        found = fn(*args, **kwargs)
        self.extra["membership_tests"] += 1
        if not found:
            self.extra["membership_misses"] += 1
        return found

    # -- output --

    def write(self, path):
        """All spans as gzip'd CSV lines: op,group,start_s,end_s,parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,group,start_s,end_s,parent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_op[i]},{GROUPS[self.span_group[i]]},"
                         f"{self.span_start[i]:.7f},{self.span_end[i]:.7f},"
                         f"{self.span_parent[i]}\n")
        return len(self.span_start)


_MOD2_CONTAINS = exact_linalg.Mod2Subspace.contains
