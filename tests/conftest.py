"""Shared fixtures: tiny graphs with hand-checkable values and naive
from-scratch objective references used as independent oracles."""

import numpy as np
import pytest

from submodknap import KnapsackInstance, OptEstimate, WeightedGraph, harness
from submodknap.estimator import best_singleton
from submodknap.randbatch import RandBatchParams, rand_batch


@pytest.fixture
def unit_triangle():
    """Three nodes, all pairs connected with weight 1."""
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture
def unit_path():
    """Path 0 - 1 - 2 with unit weights."""
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def star_149():
    """Star with center 0 and leaves 1..3 carrying weights 1, 4, 9."""
    return WeightedGraph(4, [(0, 1, 1.0), (0, 2, 4.0), (0, 3, 9.0)])


@pytest.fixture
def unit_instance_3():
    return KnapsackInstance(np.ones(3), 2.0)


class GainsLog:
    """An objective that records the base and the candidates of every gains
    call it answers."""

    def __init__(self, objective):
        self.objective = objective
        self.n = objective.n
        self.submodular = getattr(objective, "submodular", False)
        self.bases = []
        self.candidates = []

    def __call__(self, ids):
        return self.objective(ids)

    def state(self, *base):
        # the frozen copy's oracle passes the base; this package's passes none
        return tuple(base[0].tolist()) if base else (), self.objective.state(*base)

    def extend(self, state, e):
        return state[0] + (int(e),), self.objective.extend(state[1], e)

    def gains(self, state, candidates):
        self.bases.append(state[0])
        self.candidates.append(tuple(np.asarray(candidates).tolist()))
        return self.objective.gains(state[1], candidates)


def benchmark_instance(objective, n, p):
    """``(objective, instance)`` built as the benchmark builds its workloads
    (generator seed 0, budget 0.1 of the total cost): ``("cut", 200, 0.2)``
    is ``cut-er200`` and ``("image_summ", 500, 0.0)`` is ``imsum-500``."""
    spec = harness.ExperimentSpec("ast", objective, harness.GenerateSource(n, p, 0))
    built, costs = harness.build_objective(spec)
    return built, KnapsackInstance(costs, 0.1 * float(np.sort(costs).sum()))


def best_singleton_estimate(oracle, instance):
    """The best feasible single element as an ``OptEstimate``, from one
    marginal batch over the elements that fit alone; its ``singleton_gains``
    are those gains, +inf for the rest.  In place of ``ESTIMATORS["greedy"]``
    it seeds the solver's grid low."""
    gains = np.full(instance.n, np.inf)
    fits = np.nonzero(instance.costs <= instance.budget)[0]
    if fits.size:
        gains[fits] = oracle.marginal_batch((), fits)
    solution, _ = best_singleton(gains)
    return OptEstimate(solution, oracle.exact_value(solution), gains)


def state_of(objective, base):
    """The gain state of ``base``, as the oracle builds it: the empty
    state, extended by each id of ``base`` in turn."""
    state = objective.state()
    for e in base:
        state = objective.extend(state, int(e))
    return state


# ---------------------------------------------------------------------------
# naive references: direct transcriptions of the defining formulas, kept
# independent of the production evaluation paths
# ---------------------------------------------------------------------------


def naive_cut(graph, ids):
    inside = set(int(e) for e in ids)
    total = 0.0
    for u, v, w in graph.edges:
        if (u in inside) != (v in inside):
            total += w
    return total


def naive_revenue(graph, ids):
    inside = set(int(e) for e in ids)
    weight_to = {}
    for u, v, w in graph.edges:
        if u in inside:
            weight_to[v] = weight_to.get(v, 0.0) + w
        if v in inside:
            weight_to[u] = weight_to.get(u, 0.0) + w
    total = 0.0
    for node in range(graph.n):
        if node not in inside:
            total += weight_to.get(node, 0.0) ** 0.5
    return total


def naive_image_summary(matrix, ids):
    inside = [int(e) for e in ids]
    if not inside:
        return 0.0
    n = matrix.n
    coverage = sum(max(matrix.sim[u][v] for v in inside) for u in range(n))
    penalty = sum(matrix.sim[u][v] for u in range(n) for v in inside) / n
    return coverage - penalty


def naive_augment_prefixes(oracle, instance, order):
    """``augment_prefixes`` the plain way: the same one charged round, every
    gain of every row read, and ``__call__`` on every augmented prefix.

    Returns ``(f(order), [(augmented_ids, value) per prefix], best)``, where
    ``best`` is the first augmented prefix of the highest value (``None``
    for an empty order).  A prefix's candidates are the elements inside it
    and those whose cost, added to the prefix's running cost, fits the
    budget; its winner is the first candidate, in id order, of the highest
    gain.
    """
    order = tuple(int(e) for e in order)
    costs = instance.costs
    groups = [(order, ())]
    prefix_cost = 0.0
    for i in range(1, len(order) + 1):
        prefix_cost += costs[order[i - 1]]
        prefix = order[:i]
        fits = [e for e in range(instance.n)
                if e in prefix or costs[e] + prefix_cost <= instance.budget]
        groups.append((prefix, np.array(fits, dtype=np.intp)))
    rows = oracle.evaluate_extensions(groups)
    augmented = []
    for (prefix, cands), gains in zip(groups[1:], list(rows)[1:]):
        gains = list(gains)
        pick = int(cands[gains.index(max(gains))])
        aug = prefix if pick in prefix else prefix + (pick,)
        augmented.append((aug, float(oracle.objective(aug))))
    best = None
    for aug, value in augmented:
        if best is None or value > best[1]:
            best = (aug, value)
    return float(oracle.objective(order)), augmented, best


def naive_threshold_loop(oracle, instance, pool, grid, config, rng, singleton_gains):
    """``threshold_loop`` calling ``rand_batch`` at every grid step.

    Same bounds and the same per-side order, same returns: the two orders,
    the two snapshots and the number of steps with a non-empty pool that
    made no query.  Nothing is skipped without a call, so every step's
    filter runs against its own threshold.
    """
    xs, ys = [], []
    start = np.full(instance.n, np.inf) if singleton_gains is None else singleton_gains
    sides = ((xs, start.copy()), (ys, start.copy()))
    pool = [int(e) for e in pool]
    use_bounds = getattr(oracle.objective, "submodular", False)
    snapshots = [(), ()]
    skipped = 0
    for i in range(1, grid.num_thresholds + 1):
        theta = grid.gamma * (1.0 - config.epsilon) ** i
        params = RandBatchParams(threshold=theta, accept_cap=grid.accept_cap, epsilon=config.epsilon)
        order, bound = sides[1 - i % 2]
        rounds = oracle.ledger.adaptive_rounds
        out = rand_batch(
            oracle, pool, params, instance, rng, base=tuple(order),
            bound=bound if use_bounds else None,
        )
        skipped += bool(pool) and oracle.ledger.adaptive_rounds == rounds
        order.extend(out.accepted)
        pool = [e for e in pool if e not in out.accepted]
        if i <= 2:
            snapshots[i - 1] = tuple(sides[i - 1][0])
    return tuple(xs), tuple(ys), snapshots[0], snapshots[1], skipped
