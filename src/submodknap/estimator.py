"""Initial-solution estimators and the threshold-grid parameters they seed.

The main algorithm only needs a feasible starting set whose value brackets
the optimum within a known factor; anything producing one can plug in here.
The default is density greedy combined with a best-singleton fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .baselines import density_greedy_trace


@dataclass(frozen=True)
class OptEstimate:
    """A feasible starting solution with its exact value.

    ``assumed_factor`` is the fraction of the optimum the caller may assume
    the value reaches (value lies in [factor * OPT, OPT]).  It is a promise
    configured by the caller, not something the estimator certifies.
    """

    solution: tuple
    value: float
    assumed_factor: float

    def __post_init__(self):
        if not 0.0 < self.assumed_factor <= 1.0:
            raise ValueError("assumed_factor must lie in (0, 1]")
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


def estimate_greedy(oracle, instance, *, delta=0.12, assumed_factor=None):
    """Density greedy plus a best-feasible-singleton fallback.

    Returns whichever of the two scores higher, re-evaluated once so the
    recorded value is the oracle's own.  ``assumed_factor`` defaults to
    ``1/8 - delta``.  When nothing feasible has positive value the estimate
    is the empty set with value zero.
    """
    if assumed_factor is None:
        assumed_factor = 1.0 / 8.0 - delta
    trace = density_greedy_trace(oracle, instance)
    single, single_value = best_singleton(trace.singleton_values)
    chosen = trace.order if trace.order and trace.value >= single_value else single
    if not chosen:
        return OptEstimate((), 0.0, assumed_factor)
    value = oracle.evaluate(chosen)
    return OptEstimate(tuple(chosen), value, assumed_factor)


def estimate_best_singleton(oracle, instance, *, delta=0.12, assumed_factor=None):
    """Cheapest possible estimator: the best feasible single element, found
    with one marginal batch over the feasible singletons (none if nothing
    fits)."""
    if assumed_factor is None:
        assumed_factor = 1.0 / 8.0 - delta
    fits = [e for e in range(instance.n) if instance.costs[e] <= instance.budget]
    values = dict(zip(fits, oracle.marginal_batch((), fits))) if fits else {}
    solution, value = best_singleton(values)
    return OptEstimate(solution, value, assumed_factor)


ESTIMATORS = {
    "greedy": estimate_greedy,
    "singleton": estimate_best_singleton,
}


def gamma_and_guesses(estimate_value, budget, *, alpha=1.0 / 7.0, epsilon=0.1, delta=0.12):
    """Threshold-grid parameters seeded by an optimum estimate.

    gamma scales the grid so that, whenever the estimate brackets the optimum
    within the assumed factor, some grid density lands in the window the
    selection analysis needs.  The grid length and the sampler's acceptance
    cap depend only on (alpha, epsilon, delta), not on the instance.
    """
    if not 0.0 < epsilon < 1.0 / 7.0:
        raise ValueError("epsilon must lie in (0, 1/7)")
    if not 0.0 < delta < 1.0 / 8.0:
        raise ValueError("delta must lie in (0, 1/8)")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if budget <= 0.0:
        raise ValueError("budget must be positive")
    if estimate_value <= 0.0:
        raise ValueError("trivial instance: estimate value must be positive")
    gamma = 8.0 * alpha * estimate_value / ((1.0 - 8.0 * delta) * epsilon * budget)
    ratio = 8.0 * alpha / (epsilon**2 * (1.0 - 8.0 * delta))
    num_thresholds = math.ceil(math.log(ratio) / math.log(1.0 / (1.0 - epsilon))) + 1
    accept_cap = math.ceil((num_thresholds / 2.0 + 1.0) / epsilon**2)
    return GuessGrid(gamma, num_thresholds, accept_cap)
