"""Fast self-test of the benchmark's checkers (a few seconds).

    python3 perfbench/selftest.py

Shows that the reference formulas agree with the program's objectives on
small random sets, that ``check_solve`` passes a real solve and rejects
tampered ones (infeasible, mis-valued, overlapping, wrong depth), and that a
traced solve repeats the untraced one and passes ``check_trace``.  Exits 1
when any of these fails.
"""

import math
import sys
from dataclasses import replace

import numpy as np

import program  # noqa: F401  (puts this checkout's src/ on sys.path)
from checks import check_solve
from run import Workload, build, outcome, reference
from spans import check_trace, layer_metrics, traced_solve
from submodknap import AstConfig, CountingOracle, alternating, ast, randbatch

SMALL = {
    "cut": Workload("cut", 40, 0.3, 0.2),
    "revenue": Workload("revenue", 60, 0.1, 0.1),
    "image_summ": Workload("image_summ", 30, 0.0, 0.2),
}


def formulas_agree():
    rng = np.random.default_rng(1)
    for workload in SMALL.values():
        objective, instance, _ = build(workload)
        ref = reference(workload, instance)
        subsets = [(), tuple(range(workload.n))]
        subsets += [tuple(np.nonzero(rng.random(workload.n) < q)[0]) for q in (0.05, 0.3, 0.7)] * 10
        for ids in subsets:
            got = objective(np.asarray(ids, dtype=np.intp))
            want = ref.value(ids)
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                return f"{workload.objective} {ids}: objective {got!r}, formula {want!r}"
    return None


def checks_reject_tampering():
    workload = SMALL["cut"]
    objective, instance, _ = build(workload)
    ref = reference(workload, instance)
    oracle = CountingOracle(objective)
    result = ast(oracle, instance, AstConfig(seed=3))
    queries, rounds = oracle.ledger.total_queries, oracle.ledger.adaptive_rounds
    found = check_solve(ref, result, queries, rounds)
    if found:
        return f"a real solve was rejected: {found}"

    outside = [e for e in range(workload.n) if e not in result.solution]
    overfull = tuple(result.solution) + tuple(outside)
    tampered = {
        "infeasible": (replace(result, solution=overfull, value=ref.value(overfull)), queries, rounds),
        "formula gives": (replace(result, value=result.value * (1 + 1e-7)), queries, rounds),
        "share": (replace(result, y_order=result.y_order + result.x_order[:1]), queries, rounds),
        "best compared": (replace(result, candidates={**result.candidates,
                                                      "X": (result.x_order, result.value + 1.0)}),
                          queries, rounds),
        "boost phase": (replace(result, boost_rounds=3), queries, rounds),
        "rounds != ledger": (result, queries, rounds + 1),
        "queries != ledger": (result, queries - 1, rounds),
    }
    for key, (bad, q, r) in tampered.items():
        found = check_solve(ref, bad, q, r)
        if not any(key in line for line in found):
            return f"tampered {key!r} not rejected: {found}"
    return None


def trace_is_faithful():
    workload = SMALL["revenue"]
    objective, instance, _ = build(workload)
    config = AstConfig(seed=5)
    plain = CountingOracle(objective)
    expected = outcome(ast(plain, instance, config), plain)
    originals = (alternating.rand_batch, randbatch.get_seq)
    result, oracle, tracer = traced_solve(objective, instance, config)
    if (alternating.rand_batch, randbatch.get_seq) != originals:
        return "traced_solve left the program patched"
    if outcome(result, oracle) != expected:
        return "the traced solve differs from the untraced one"
    metrics = layer_metrics(tracer)
    found = check_trace(tracer, oracle, result, metrics)
    if found:
        return f"a real trace was rejected: {found}"
    tracer.rounds += 1
    if not check_trace(tracer, oracle, result, metrics):
        return "an outside round count off by one was not rejected"
    return None


def main():
    failures = 0
    for test in (formulas_agree, checks_reject_tampering, trace_is_faithful):
        problem = test()
        print(f"{'FAIL' if problem else 'PASS'} {test.__name__}" + (f": {problem}" if problem else ""))
        failures += problem is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
