"""Spans around the calls into each submodknap layer, recorded from outside.

A traced solve patches the module-level functions ``ast`` reaches
(``threshold_loop``, ``rand_batch``, ``get_seq``, ``augment_prefixes``,
``unsub_max``, the estimator and ``density_greedy_trace``), answers oracle
calls through a ``CountingOracle`` subclass, and times every call of the
objective.  The program's files are not changed.  Spans (name, start, end,
parent) are kept in memory and written out when the run ends.  Objective
calls are too many to keep a span each: their time and count are added to
the innermost open span instead.

A span's self time is its duration minus its child spans and the objective
time inside it, so the self times of all layers add up to the root span.
"""

import contextlib
import functools
import json
import time

import program  # noqa: F401  (puts this checkout's src/ on sys.path)
from submodknap import alternating, estimator, randbatch
from submodknap.core import CountingOracle

ORACLE_METHODS = ("evaluate", "evaluate_batch", "evaluate_extensions", "marginal_batch")
LAYER_OF = {
    "ast": "alternating",
    "threshold_loop": "alternating",
    "augment_prefixes": "alternating",
    "rand_batch": "randbatch",
    "get_seq": "randbatch",
    "unsub_max": "unconstrained",
    "estimator": "estimator",
    "density_greedy_trace": "baselines",
    **{f"oracle.{m}": "core" for m in ORACLE_METHODS},
}


class Span:
    """One call into a layer; ``queries`` and ``rounds`` are charged inside it."""

    __slots__ = ("name", "parent", "start", "end", "queries", "rounds",
                 "objective_s", "objective_calls", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.queries = self.rounds = 0
        self.objective_s = 0.0
        self.objective_calls = 0
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, index):
        return {
            "id": index, "name": self.name, "layer": LAYER_OF[self.name],
            "parent": self.parent, "start": self.start, "end": self.end,
            "queries": self.queries, "rounds": self.rounds,
            "objective_s": self.objective_s, "objective_calls": self.objective_calls,
            **self.info,
        }


class Tracer:
    """Spans of one solve plus query and round counts taken from outside.

    Counts are charged at the outermost oracle call, by the charge each
    public ``CountingOracle`` method documents: one round per call, one
    query per set (``marginal_batch``: one per candidate plus the base).
    """

    def __init__(self):
        self.spans = []
        self.open = []
        self.queries = 0
        self.rounds = 0
        self.oracle_depth = 0

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, self.open[-1] if self.open else None)
        self.open.append(len(self.spans))
        self.spans.append(span)
        queries, rounds = self.queries, self.rounds
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.queries = self.queries - queries
            span.rounds = self.rounds - rounds
            self.open.pop()

    def charge(self, queries):
        if self.oracle_depth == 1:
            self.queries += queries
            self.rounds += 1

    def write(self, handle, solve):
        for index, span in enumerate(self.spans):
            handle.write(json.dumps({"solve": solve, **span.as_dict(index)}) + "\n")


class TimedObjective:
    """The objective callable, timed per call into the innermost span."""

    def __init__(self, objective, tracer):
        self._objective = objective
        self._tracer = tracer
        self.n = objective.n

    def _timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        span = self._tracer.spans[self._tracer.open[-1]]
        span.objective_s += elapsed
        span.objective_calls += 1
        return value

    def __call__(self, ids):
        return self._timed(self._objective, ids)

    def __getattr__(self, name):
        # Objective methods other than __call__ (such as a marginal-gain
        # form the oracle may come to use) are timed the same way.
        attr = getattr(self._objective, name)
        return functools.partial(self._timed, attr) if callable(attr) else attr


class TracedOracle(CountingOracle):
    """``CountingOracle`` whose public methods open a ``core`` span."""

    def __init__(self, objective, tracer):
        super().__init__(TimedObjective(objective, tracer))
        self._tracer = tracer

    def _traced(self, name, queries, call, *args, **info):
        tracer = self._tracer
        tracer.oracle_depth += 1
        try:
            with tracer.span(f"oracle.{name}") as span:
                tracer.charge(queries)
                span.info.update(info)
                return call(*args)
        finally:
            tracer.oracle_depth -= 1

    def evaluate(self, ids):
        return self._traced("evaluate", 1, super().evaluate, ids)

    def evaluate_batch(self, sets):
        sets = list(sets)
        return self._traced("evaluate_batch", len(sets), super().evaluate_batch, sets)

    def evaluate_extensions(self, groups):
        groups = list(groups)
        queries = sum(len(cands) + 1 for _, cands in groups)
        return self._traced(
            "evaluate_extensions", queries, super().evaluate_extensions, groups, rows=len(groups)
        )

    def marginal_batch(self, base, candidates):
        return self._traced(
            "marginal_batch", len(candidates) + 1, super().marginal_batch, base, candidates
        )


def _wrap(tracer, name, fn, note=None):
    def wrapped(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if note is not None:
                note(span, args, result)
            return result

    return wrapped


def _note_get_seq(span, args, seq):
    span.info["current"] = len(args[0])  # prefix accepted so far in this call
    span.info["d"] = len(seq)


def _note_rand_batch(span, args, out):
    span.info["accepted"] = len(out.accepted)


@contextlib.contextmanager
def patched(tracer):
    """Route the solver's calls into each layer through span wrappers."""
    targets = [
        (alternating, "threshold_loop", None),
        (alternating, "rand_batch", _note_rand_batch),
        (randbatch, "get_seq", _note_get_seq),
        (alternating, "augment_prefixes", None),
        (alternating, "unsub_max", None),
        (estimator, "density_greedy_trace", None),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    saved_estimators = dict(estimator.ESTIMATORS)
    try:
        for (module, name, note), (_, _, fn) in zip(targets, saved):
            setattr(module, name, _wrap(tracer, name, fn, note))
        for key, fn in saved_estimators.items():
            estimator.ESTIMATORS[key] = _wrap(tracer, "estimator", fn)
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
        estimator.ESTIMATORS.update(saved_estimators)


def traced_solve(objective, instance, config):
    """One ``ast`` call with every layer traced: ``(result, oracle, tracer)``."""
    tracer = Tracer()
    oracle = TracedOracle(objective, tracer)
    with patched(tracer), tracer.span("ast"):
        result = alternating.ast(oracle, instance, config)
    return result, oracle, tracer


def self_times(tracer):
    """Self time of each layer in one traced solve; they add up to the root."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    self_s = dict.fromkeys(sorted(set(LAYER_OF.values())), 0.0)
    for index, span in enumerate(spans):
        self_s[LAYER_OF[span.name]] += span.duration - covered[index] - span.objective_s
    self_s["objectives"] = sum(s.objective_s for s in spans)
    return self_s


def layer_metrics(tracer):
    """Per-layer figures of one traced solve, as ``{name: (value, unit)}``."""
    spans = tracer.spans
    self_s = self_times(tracer)
    busy = self_s["objectives"]
    calls = sum(s.objective_calls for s in spans)

    def named(name):
        return [s for s in spans if s.name == name]

    rows, used = _sweep_rows(tracer)
    loop = named("threshold_loop")
    augments = named("augment_prefixes")
    estimates = named("estimator")
    return {
        "objectives.calls": (calls, "count"),
        "objectives.busy_s": (busy, "s"),
        "objectives.us_per_call": (1e6 * busy / calls if calls else 0.0, "us"),
        "core.batches": (tracer.rounds, "count"),
        "core.self_s": (self_s["core"], "s"),
        "randbatch.self_s": (self_s["randbatch"], "s"),
        "randbatch.get_seq_s": (sum(s.duration for s in named("get_seq")), "s"),
        "randbatch.sweep_rows": (rows, "count"),
        "randbatch.sweep_rows_used": (used, "count"),
        "randbatch.sweep_use": (used / rows if rows else 0.0, "ratio"),
        "alternating.self_s": (self_s["alternating"], "s"),
        "alternating.loop_rounds": (sum(s.rounds for s in loop), "rounds"),
        "alternating.loop_s": (sum(s.duration for s in loop), "s"),
        "alternating.grid_steps_empty": (
            sum(1 for s in named("rand_batch") if s.info["accepted"] == 0), "count"),
        "alternating.augment_s": (sum(s.duration for s in augments), "s"),
        "alternating.augment_queries": (sum(s.queries for s in augments), "queries"),
        "alternating.boost_rounds": (sum(s.rounds for s in augments), "rounds"),
        "unconstrained.unsub_max_s": (sum(s.duration for s in named("unsub_max")), "s"),
        "estimator.s": (sum(s.duration for s in estimates), "s"),
        "estimator.rounds": (sum(s.rounds for s in estimates), "rounds"),
        "estimator.queries": (sum(s.queries for s in estimates), "queries"),
        "baselines.self_s": (self_s["baselines"], "s"),
    }


def _sweep_rows(tracer):
    """Prefix rows the sampler evaluated and used: sums of (d + 1) and (t* + 1).

    Within one ``rand_batch`` call the accepted prefix grows by t* per
    iteration, so t* is the growth of ``get_seq``'s ``current`` argument to
    the next draw, or to the call's final accepted count after the last.
    """
    draws = {}
    for span in tracer.spans:
        if span.name == "get_seq":
            draws.setdefault(span.parent, []).append(span.info)
    rows = used = 0
    for parent, infos in draws.items():
        ends = [info["current"] for info in infos[1:]]
        ends.append(tracer.spans[parent].info["accepted"])
        for info, end in zip(infos, ends):
            if info["d"]:
                rows += info["d"] + 1
                used += end - info["current"] + 1
    return rows, used


def check_trace(tracer, oracle, result, metrics):
    """Problems in one traced solve's outside counts; empty means none."""
    problems = []
    ledger = oracle.ledger
    root = tracer.spans[0]
    if (tracer.queries, tracer.rounds) != (ledger.total_queries, ledger.adaptive_rounds):
        problems.append(
            f"counted from outside {tracer.queries} queries / {tracer.rounds} rounds,"
            f" ledger {ledger.total_queries} / {ledger.adaptive_rounds}"
        )
    pairs = [
        ("estimator.rounds", result.estimator_rounds),
        ("estimator.queries", result.estimator_queries),
        ("alternating.loop_rounds", result.main_loop_rounds),
        ("alternating.boost_rounds", result.boost_rounds),
    ]
    for name, expected in pairs:
        if metrics[name][0] != expected:
            problems.append(f"{name} counted {metrics[name][0]}, result says {expected}")
    sweeps = sum(
        s.info["rows"] for s in tracer.spans
        if s.name == "oracle.evaluate_extensions"
        and s.parent is not None and tracer.spans[s.parent].name == "rand_batch"
    )
    if sweeps != metrics["randbatch.sweep_rows"][0]:
        problems.append(f"sweep rows {sweeps} evaluated, {metrics['randbatch.sweep_rows'][0]} drawn")
    total = sum(self_times(tracer).values())
    if abs(total - root.duration) > 1e-6 * root.duration:
        problems.append(f"layer self times add to {total!r} s, traced solve took {root.duration!r} s")
    return problems
