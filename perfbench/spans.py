"""Tracing from outside the program: wrap public ringfunc functions, record
one span per call, and reduce the spans to per-layer self times and counts.

Nothing under src/ is edited.  `Tracer.install` rebinds every module-level
name that refers to a traced function, in every loaded ringfunc module, so
calls made through `from .x import f` bindings (cli.horner_dual,
canonical.induce, ...) are traced as well as calls through the home module.

The program is single-threaded and spans nest properly, so the part of a
span covered by its children is the sum of their busy times, and a span's
self time is its own busy time minus that sum.  A generator span (the
coefficient sweep) is busy only while one of its next() calls runs; its
busy time is the sum of those calls, and `n` counts the items it yielded.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import io
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _sized(result) -> int:
    return len(result)


def _stdout_bytes(_exit_code) -> int:
    """Bytes cli.main printed; each op captures one invocation's stdout in a
    fresh StringIO."""
    out = sys.stdout
    return len(out.getvalue().encode()) if isinstance(out, io.StringIO) else 0


def _sampled(report) -> int:
    """1 when the report's check was sampled rather than exhaustive."""
    for attr in ("associativity_mode", "homomorphism_mode"):
        mode = getattr(report, attr, None)
        if isinstance(mode, str):
            return int(mode.startswith("sampled"))
    return 0


# (module, function, kind, measure): kind "gen" is a generator timed per
# next(); measure maps a call's result to the count stored on its span.
TARGETS = (
    ("rings", "make_ring", "call", None),
    ("poly", "parse", "call", None),
    ("dual", "horner_dual", "call", None),
    ("funcspace", "induce", "call", None),
    ("funcspace", "permutes_dual", "call", None),
    ("funcspace", "induced_tables", "call", _sized),
    ("funcspace", "permutation_tables", "call", None),
    ("funcspace", "unit_valued_tables", "call", None),
    ("canonical", "canonicalize", "call", None),
    ("canonical", "canonicalize_unit_valued", "call", None),
    ("groups", "pair_table_sweep", "gen", None),
    ("groups", "dual_degree_bound", "call", None),
    ("groups", "enumerate_dual_permutations", "call", _sized),
    ("groups", "enumerate_stabilizer", "call", None),
    ("groups", "semidirect_group", "call", None),
    ("groups", "verify_group_axioms", "call", _sampled),
    ("groups", "verify_embedding", "call", _sampled),
    ("cli", "main", "call", _stdout_bytes),
)

# per-layer metric -> (unit, traced function, statistic).  Statistics:
# self_s = summed self time, calls = number of spans, n = summed span counts,
# yield_ratio = elements out / candidates yielded under those calls.
LAYER_METRICS = {
    "groups.verify_embedding.self_s": ("s", "groups.verify_embedding", "self_s"),
    "groups.verify_group_axioms.self_s": ("s", "groups.verify_group_axioms", "self_s"),
    "groups.verify_group_axioms.sampled_checks":
        ("count", "groups.verify_group_axioms", "n"),
    "groups.verify_embedding.sampled_checks": ("count", "groups.verify_embedding", "n"),
    "groups.pair_table_sweep.self_s": ("s", "groups.pair_table_sweep", "self_s"),
    "groups.pair_table_sweep.yielded": ("count", "groups.pair_table_sweep", "n"),
    "groups.enumerate_dual_permutations.self_s":
        ("s", "groups.enumerate_dual_permutations", "self_s"),
    "groups.enumerate_dual_permutations.elements_out":
        ("count", "groups.enumerate_dual_permutations", "n"),
    "groups.enumerate_dual_permutations.yield_ratio":
        ("ratio", "groups.enumerate_dual_permutations", "yield_ratio"),
    "groups.enumerate_stabilizer.self_s": ("s", "groups.enumerate_stabilizer", "self_s"),
    "groups.dual_degree_bound.self_s": ("s", "groups.dual_degree_bound", "self_s"),
    "groups.semidirect_group.self_s": ("s", "groups.semidirect_group", "self_s"),
    "funcspace.induced_tables.self_s": ("s", "funcspace.induced_tables", "self_s"),
    "funcspace.induced_tables.tables_out": ("count", "funcspace.induced_tables", "n"),
    "funcspace.permutation_tables.self_s":
        ("s", "funcspace.permutation_tables", "self_s"),
    "funcspace.unit_valued_tables.self_s":
        ("s", "funcspace.unit_valued_tables", "self_s"),
    "dual.horner_dual.self_s": ("s", "dual.horner_dual", "self_s"),
    "dual.horner_dual.calls": ("count", "dual.horner_dual", "calls"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
    "cli.main.out_bytes": ("bytes", "cli.main", "n"),
    "funcspace.induce.self_s": ("s", "funcspace.induce", "self_s"),
    "funcspace.induce.calls": ("count", "funcspace.induce", "calls"),
    "funcspace.permutes_dual.self_s": ("s", "funcspace.permutes_dual", "self_s"),
    "canonical.canonicalize.self_s": ("s", "canonical.canonicalize", "self_s"),
    "canonical.canonicalize.calls": ("count", "canonical.canonicalize", "calls"),
    "canonical.canonicalize_unit_valued.self_s":
        ("s", "canonical.canonicalize_unit_valued", "self_s"),
    "canonical.canonicalize_unit_valued.calls":
        ("count", "canonical.canonicalize_unit_valued", "calls"),
    "poly.parse.self_s": ("s", "poly.parse", "self_s"),
    "poly.parse.calls": ("count", "poly.parse", "calls"),
    # ring construction is measured in the in-process set-up, not per pass
    "rings.make_ring.self_s": ("s", "rings.make_ring", "self_s"),
    "rings.make_ring.calls": ("count", "rings.make_ring", "calls"),
}

SETUP_OP = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "busy", "n")

    def __init__(self, name, start, end, parent, op, busy=0.0, n=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.busy = busy
        self.n = n


def self_times(spans) -> list[float]:
    """Self time of each span: its busy time minus its direct children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.busy
    return [span.busy - covered[i] for i, span in enumerate(spans)]


def _under(spans, index: int, name: str) -> bool:
    """Whether some ancestor of spans[index] is named `name`."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_totals(spans, bucket_of) -> dict:
    """Sum each traced function's spans into buckets; bucket_of maps a span's
    op id to its bucket key.

    Returns {bucket: {function: {"self_s", "calls", "n", "yield_ratio"}}};
    yield_ratio is set on enumerate_dual_permutations only, as its elements
    out over the candidates swept under those calls.
    """
    own = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "n": 0, "yield_ratio": 0.0}))
    yielded_under: dict = defaultdict(int)
    for i, span in enumerate(spans):
        bucket = bucket_of(span.op)
        row = out[bucket][span.name]
        row["self_s"] += own[i]
        row["calls"] += 1
        row["n"] += span.n
        if span.name == "groups.pair_table_sweep" and _under(
                spans, i, "groups.enumerate_dual_permutations"):
            yielded_under[bucket] += span.n
    for bucket, swept in yielded_under.items():
        enum = out[bucket]["groups.enumerate_dual_permutations"]
        enum["yield_ratio"] = enum["n"] / swept if swept else 0.0
    return out


class Tracer:
    """Records spans for wrapped ringfunc functions.

    `op` is the id of the benchmark op in progress; spans of one op share it.
    While it is None (input generation, checks) nothing is recorded.  Span
    times are read on `clock`.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self.clock(), None, self.stack[-1] if self.stack else None,
                    self.op)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        self.stack.pop()
        span.end = self.clock()
        span.busy = span.end - span.start

    def wrap_call(self, name: str, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if measure is not None:
                span.n += measure(result)
            return result

        return traced

    def wrap_gen(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            now = tracer.clock()
            span = Span(name, now, now, tracer.stack[-1] if tracer.stack else None,
                        tracer.op)
            index = len(tracer.spans)
            tracer.spans.append(span)
            return tracer._timed_items(span, index, fn(*args, **kwargs))

        return traced

    def _timed_items(self, span: Span, index: int, gen):
        stack, clock = self.stack, self.clock
        try:
            while True:
                t0 = clock()
                stack.append(index)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    t1 = clock()
                    span.busy += t1 - t0
                    span.end = t1
                span.n += 1
                yield item
        finally:
            gen.close()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Rebind every module binding of each target to its traced wrapper.

        A target missing from the program is recorded in `absent`.
        """
        for module_name, fn_name, kind, measure in TARGETS:
            name = f"{module_name}.{fn_name}"
            try:
                home = importlib.import_module(f"ringfunc.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            if kind == "gen":
                wrapper = self.wrap_gen(name, fn)
            else:
                wrapper = self.wrap_call(name, fn, measure)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "ringfunc" and not mod_name.startswith("ringfunc."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # -- reduction ------------------------------------------------------

    def layer_metrics(self, ops_per_pass: int, passes: int) -> dict[str, float]:
        """Every per-layer metric: the median over passes of its per-pass
        total, except ring construction, which is read from the set-up."""

        totals = layer_totals(
            self.spans, lambda op: "setup" if op == SETUP_OP else op // ops_per_pass)
        out = {}
        for metric, (_, fn_name, stat) in LAYER_METRICS.items():
            if fn_name.startswith("rings."):
                out[metric] = totals["setup"][fn_name][stat]
            else:
                out[metric] = statistics.median_low(
                    totals[p][fn_name][stat] for p in range(passes))
        return out

    def absent_metrics(self) -> list[str]:
        return [m for m, (_, fn_name, _) in LAYER_METRICS.items()
                if fn_name in self.absent]

    def write(self, path, meta: dict) -> None:
        """Gzipped JSON lines: a header, then one list per span in the
        header's field order, times in seconds since the tracer started."""
        names = sorted({span.name for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"meta": meta, "absent": self.absent, "names": names,
                                 "fields": list(Span.__slots__)}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([code[s.name], s.start - self.t0, s.end - self.t0,
                                     s.parent, s.op, s.busy, s.n]) + "\n")
