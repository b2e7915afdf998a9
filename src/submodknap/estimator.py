"""Initial-solution estimators and the threshold-grid parameters they seed.

The main algorithm only needs a feasible starting set whose value brackets
the optimum within a known factor; anything producing one can plug in here.
The default is density greedy combined with a best-singleton fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .baselines import density_greedy_trace


@dataclass(frozen=True)
class OptEstimate:
    """A feasible starting solution with its exact value.

    ``singleton_gains`` holds ``f({u})`` for every element the estimator
    queried alone and +inf for the rest (``None``: none queried).  The
    solver starts its gain bounds from it.
    """

    solution: tuple
    value: float
    singleton_gains: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("estimate value must be non-negative")


class GuessGrid(NamedTuple):
    """Geometric threshold grid derived from an optimum estimate."""

    gamma: float          # top density scale
    num_thresholds: int   # grid length (loop iterations)
    accept_cap: int       # per-call acceptance cap for the sampler


def best_singleton(values):
    """The best single element of a ``{id: value}`` map as ``(ids, value)``.

    Ties go to the lowest id; when no value is positive the result is the
    empty set with value zero.
    """
    best, best_value = (), 0.0
    for e in sorted(values):
        if values[e] > best_value:
            best, best_value = (e,), values[e]
    return best, best_value


def _singleton_gains(values, n):
    """A ``{id: value}`` map as an array over the ground set, +inf elsewhere."""
    gains = np.full(n, np.inf)
    gains[list(values)] = list(values.values())
    return gains


def estimate_greedy(oracle, instance):
    """Density greedy plus a best-feasible-singleton fallback.

    Returns whichever of the two scores higher, re-evaluated once so the
    recorded value is the oracle's own.  When nothing feasible has positive
    value the estimate is the empty set with value zero.
    """
    trace = density_greedy_trace(oracle, instance)
    single, single_value = best_singleton(trace.singleton_values)
    gains = _singleton_gains(trace.singleton_values, instance.n)
    chosen = trace.order if trace.order and trace.value >= single_value else single
    if not chosen:
        return OptEstimate((), 0.0, gains)
    value = oracle.evaluate(chosen)
    return OptEstimate(tuple(chosen), value, gains)


def estimate_best_singleton(oracle, instance):
    """Cheapest possible estimator: the best feasible single element, found
    with one marginal batch over the feasible singletons (none if nothing
    fits).  The recorded value is the winner's from-scratch value, which
    that batch has already paid for."""
    fits = [e for e in range(instance.n) if instance.costs[e] <= instance.budget]
    values = dict(zip(fits, oracle.marginal_batch((), fits))) if fits else {}
    solution, _ = best_singleton(values)
    return OptEstimate(
        solution, oracle.exact_value(solution), _singleton_gains(values, instance.n)
    )


# Every estimator takes ``(oracle, instance)`` and returns an OptEstimate
# whose value is 0 only when no feasible singleton has positive value.  By
# submodularity f(S) <= sum of f({e}) <= 0 for every feasible S then, so
# ``ast`` returns the empty set without further queries.  Its
# ``singleton_gains`` covers at least every element that fits the budget
# alone, which the shipped estimators query anyway.
ESTIMATORS = {
    "greedy": estimate_greedy,
    "singleton": estimate_best_singleton,
}


def check_grid_params(alpha, epsilon, delta):
    """Raise ``ValueError`` unless (alpha, epsilon, delta) can shape a grid."""
    if not 0.0 < epsilon < 1.0 / 7.0:
        raise ValueError("epsilon must lie in (0, 1/7)")
    if not 0.0 < delta < 1.0 / 8.0:
        raise ValueError("delta must lie in (0, 1/8)")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")


def gamma_and_guesses(estimate_value, budget, *, alpha=1.0 / 7.0, epsilon=0.1, delta=0.12):
    """Threshold-grid parameters seeded by an optimum estimate.

    gamma scales the grid so that, whenever the estimate lies in
    ``[(1/8 - delta) * OPT, OPT]``, some grid density lands in the window the
    selection analysis needs.  The grid length and the sampler's acceptance
    cap depend only on (alpha, epsilon, delta), not on the instance.
    """
    check_grid_params(alpha, epsilon, delta)
    if budget <= 0.0:
        raise ValueError("budget must be positive")
    if estimate_value <= 0.0:
        raise ValueError("trivial instance: estimate value must be positive")
    gamma = 8.0 * alpha * estimate_value / ((1.0 - 8.0 * delta) * epsilon * budget)
    ratio = 8.0 * alpha / (epsilon**2 * (1.0 - 8.0 * delta))
    num_thresholds = math.ceil(math.log(ratio) / math.log(1.0 / (1.0 - epsilon))) + 1
    accept_cap = math.ceil((num_thresholds / 2.0 + 1.0) / epsilon**2)
    return GuessGrid(gamma, num_thresholds, accept_cap)
