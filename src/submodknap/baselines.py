"""Exact small-instance optimum and simple comparison baselines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .randbatch import slackened

BRUTE_FORCE_CAP = 24


def brute_force_opt(objective, instance, cap=BRUTE_FORCE_CAP):
    """Exact maximizer of ``objective`` over budget-feasible sets.

    Depth-first enumeration over ascending ids, descending only into branches
    where at least one remaining element still fits the residual budget.
    Takes a raw objective on purpose: the enumeration never touches a
    QueryLedger, so test-harness sweeps cannot pollute algorithm counters.
    Ties are resolved toward the lexicographically smallest id tuple, which
    is the first one visited.

    Returns ``(ids, value)``.
    """
    n = instance.n
    if n > cap:
        raise ValueError(f"brute force capped at {cap} elements, got {n}")
    costs = instance.costs
    budget = instance.budget

    # cheapest remaining element from each suffix, for descent pruning
    suffix_min = np.full(n + 1, np.inf)
    for j in range(n - 1, -1, -1):
        suffix_min[j] = min(costs[j], suffix_min[j + 1])

    best_value = objective(np.empty(0, dtype=np.intp))
    best_set = ()
    chosen = []

    def descend(start, used):
        nonlocal best_value, best_set
        if chosen:
            value = objective(np.asarray(chosen, dtype=np.intp))
            if value > best_value:
                best_value = value
                best_set = tuple(chosen)
        residual = budget - used
        if residual < suffix_min[start]:
            return
        for j in range(start, n):
            if used + costs[j] <= budget:
                chosen.append(j)
                descend(j + 1, used + costs[j])
                chosen.pop()

    descend(0, 0.0)
    return best_set, float(best_value)


@dataclass
class GreedyTrace:
    """Selection order, final value, and first-round gains of a density-greedy
    run: ``singleton_gains`` holds ``f({u})`` for every element that round
    queried and +inf for the rest."""

    order: tuple
    value: float
    singleton_gains: np.ndarray


def density_greedy_trace(oracle, instance):
    """Run density greedy and keep the details the estimator needs.

    Each step issues one marginal batch over the still-affordable elements
    and adds the feasible element with the largest marginal-gain-per-cost
    among those with strictly positive marginal gain (ties: lowest id).
    Stops when no such element remains.

    When the objective is ``submodular``, a gain can only fall as the
    selection grows, so an element whose gain was non-positive beyond
    rounding (``slackened(gain) <= 0``) can never be picked again.  Later
    steps still query it, and are charged for it, but compute no gain for
    it and rank it as a zero gain: below every positive density.
    """
    costs = instance.costs
    budget = instance.budget
    selected = ()  # a tuple of ints: the oracle's own key for the base
    used = 0.0
    value = 0.0
    singles = np.full(instance.n, np.inf)
    # ``used`` only grows, so an element that stops fitting never fits again
    fits = np.nonzero(costs <= budget)[0]
    prune = getattr(oracle.objective, "submodular", False)
    dead = np.zeros(instance.n, dtype=bool)
    j = None  # the last pick's position in fits
    while True:
        keep = used + costs[fits] <= budget
        if j is not None:
            keep[j] = False  # the last pick leaves the candidates
        fits = fits[keep]
        if not fits.size:
            break
        answers = oracle.evaluate_extensions([(selected, fits)])
        live = np.flatnonzero(~dead[fits])
        gains = np.zeros(fits.size)  # a dead element ranks as a zero gain
        gains[live] = answers.read(0, live)
        if prune:
            dead[fits] |= slackened(gains) <= 0.0
        if not selected:
            singles[fits] = gains
        # argmax keeps the first of equal densities: fits ascend, so ties go
        # to the lowest id; a non-positive gain ranks below every density
        density = np.where(gains > 0.0, gains / costs[fits], -np.inf)
        j = int(np.argmax(density))
        if density[j] == -np.inf:
            break
        best = int(fits[j])
        selected += (best,)
        used += costs[best]
        value += gains[j]
    return GreedyTrace(selected, float(value), singles)


def density_greedy(oracle, instance):
    """Density-greedy baseline; returns the selected ids in pick order."""
    return density_greedy_trace(oracle, instance).order


def random_feasible(instance, rng):
    """Walk a random permutation, keeping every element that still fits."""
    kept = []
    used = 0.0
    for e in rng.permutation(instance.n).tolist():
        if used + instance.costs[e] <= instance.budget:
            kept.append(e)
            used += instance.costs[e]
    return tuple(kept)
