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

    Every step is charged its whole batch, but when the objective is
    ``submodular`` only the gains that can win are computed, as in the
    accelerated greedy of Minoux (1978).  Each element keeps a ``bound``:
    its first-step gain, lowered by every gain read later.  A gain can only
    fall as the selection grows, so ``slackened(bound)`` bounds the
    element's gain at every later step, rounding included.  The first step
    reads its whole row (it yields ``singleton_gains``).  A later step reads
    first the element of the highest bound density ``slackened(bound) /
    cost``; if its gain is positive, only an element whose bound density
    reaches that gain's density can match or beat it, and if not, only an
    element whose slackened bound is positive can have a positive gain.
    When any other element qualifies, the step reads all of them in id
    order, the first one's gain again included, and takes the first
    maximum density among them: the same pick, and the same tie, as a whole
    row.  When none does, the step takes its bound update, stop test and
    pick on that one gain.  An element whose slackened bound is
    non-positive is never read again.  On any other objective every row is read whole.

    The candidates' costs and bound densities are carried from step to
    step: each step filters them with the mask that filters the
    candidates, and recomputes the density only of the elements it read,
    whose bounds alone changed.  Elementwise arithmetic gives each entry
    the bits of the whole-array computation.
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
    bound = np.full(instance.n, np.inf)
    # aligned to fits: their costs and, once read, slackened(bound) / cost
    fit_costs = costs[fits]
    ceiling = np.empty(fits.size)
    j = None  # the last pick's position in fits
    while True:
        keep = used + fit_costs <= budget
        if j is not None:
            keep[j] = False  # the last pick leaves the candidates
        fits = fits[keep]
        if not fits.size:
            break
        fit_costs = fit_costs[keep]
        ceiling = ceiling[keep]
        answers = oracle.evaluate_extensions([(selected, fits)])
        if prune and selected:
            top = int(np.argmax(ceiling))
            gain = answers.read(0, np.array([top]))[0]
            live = ceiling >= gain / fit_costs[top] if gain > 0.0 else ceiling > 0.0
            live[top] = True
            read = np.flatnonzero(live)
            if read.size == 1:
                # top alone can win: its bound, stop test and pick on the
                # one scalar, as the arrays below would take them; its
                # ceiling is not needed again, since it is picked or the
                # run stops
                best = int(fits[top])
                bound[best] = min(gain, bound[best])
                if not gain > 0.0:
                    break
                j = top
                selected += (best,)
                used += costs[best]
                value += gain
                continue
            gains = answers.read(0, read)  # top's gain again, with the others in id order
        else:
            read = np.arange(fits.size)
            gains = answers[0]
        if prune:
            ids = fits[read]
            bound[ids] = np.minimum(bound[ids], gains)
            ceiling[read] = slackened(bound[ids]) / fit_costs[read]
        if not selected:
            singles[fits] = gains
        # argmax keeps the first of equal densities: positions ascend, and
        # fits ascend, so ties go to the lowest id; a non-positive gain
        # ranks below every density
        density = np.where(gains > 0.0, gains / fit_costs[read], -np.inf)
        k = int(np.argmax(density))
        if density[k] == -np.inf:
            break
        j = int(read[k])
        best = int(fits[j])
        selected += (best,)
        used += costs[best]
        value += gains[k]
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
