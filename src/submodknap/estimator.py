"""Initial-solution estimators and the threshold-grid parameters they seed.

The main algorithm only needs a feasible starting set whose value brackets
the optimum within a known factor.  Density greedy combined with a
best-singleton fallback gives one.
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


def best_singleton(gains):
    """The best single element as ``(ids, gain)``, from an array of ``f({u})``
    over the ground set with +inf where an element was not queried.

    The gain must be strictly positive; ties go to the lowest id; when no
    queried element qualifies the result is the empty set with value zero.
    """
    scores = np.where(np.isfinite(gains) & (gains > 0.0), gains, -np.inf)
    e = int(np.argmax(scores))
    if scores[e] == -np.inf:
        return (), 0.0
    return (e,), float(gains[e])


def estimate_greedy(oracle, instance):
    """Density greedy plus a best-feasible-singleton fallback.

    Returns whichever of the two scores higher, re-evaluated once so the
    recorded value is the oracle's own.  When nothing feasible has positive
    value the estimate is the empty set with value zero.
    """
    trace = density_greedy_trace(oracle, instance)
    gains = trace.singleton_gains
    single, single_value = best_singleton(gains)
    chosen = trace.order if trace.order and trace.value >= single_value else single
    if not chosen:
        return OptEstimate((), 0.0, gains)
    value = oracle.evaluate(chosen)
    return OptEstimate(tuple(chosen), value, gains)


# Every estimator takes ``(oracle, instance)`` and returns an OptEstimate
# whose value is 0 only when no feasible singleton has positive value.  By
# submodularity f(S) <= sum of f({e}) <= 0 for every feasible S then, so
# ``ast`` returns the empty set without further queries.  A positive value
# is meant to lie in the window [(1/8 - delta) OPT, OPT] that
# ``gamma_and_guesses`` assumes.  Its ``singleton_gains`` covers at least
# every element that fits the budget alone.  ``ast`` looks up the one entry
# by key at call time, so a wrapper put in its place is the one that runs:
# ``perfbench/spans.py`` times the estimator phase that way.  A low-depth
# estimator that keeps the window would take this entry's place.
ESTIMATORS = {"greedy": estimate_greedy}


def check_grid_params(epsilon, delta):
    """Raise ``ValueError`` unless (epsilon, delta) can shape a grid."""
    if not 0.0 < epsilon < 1.0 / 7.0:
        raise ValueError("epsilon must lie in (0, 1/7)")
    if 1.0 - epsilon == 1.0:
        raise ValueError("epsilon is too small: 1 - epsilon rounds to 1")
    if not 0.0 < delta < 1.0 / 8.0:
        raise ValueError("delta must lie in (0, 1/8)")


def gamma_and_guesses(estimate_value, budget, *, alpha=1.0 / 7.0, epsilon=0.1, delta=0.12):
    """Threshold-grid parameters seeded by an optimum estimate.

    gamma scales the grid so that, whenever the estimate lies in
    ``[(1/8 - delta) * OPT, OPT]``, some grid density lands in the window the
    selection analysis needs.  The grid length and the sampler's acceptance
    cap depend only on (alpha, epsilon, delta), not on the instance.  Raises
    ``ValueError`` when gamma overflows or the grid's last threshold
    underflows to 0, thresholds the sampler cannot use.
    """
    check_grid_params(epsilon, delta)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if budget <= 0.0:
        raise ValueError("budget must be positive")
    if estimate_value <= 0.0:
        raise ValueError("trivial instance: estimate value must be positive")
    gamma = 8.0 * alpha * estimate_value / ((1.0 - 8.0 * delta) * epsilon * budget)
    if not math.isfinite(gamma):
        raise ValueError("gamma overflows: the estimate is too large for the budget")
    ratio = 8.0 * alpha / (epsilon**2 * (1.0 - 8.0 * delta))
    num_thresholds = math.ceil(math.log(ratio) / math.log(1.0 / (1.0 - epsilon))) + 1
    if gamma * (1.0 - epsilon) ** num_thresholds == 0.0:
        raise ValueError(
            "the last threshold underflows to 0: the estimate is too small for the budget"
        )
    accept_cap = math.ceil((num_thresholds / 2.0 + 1.0) / epsilon**2)
    return GuessGrid(gamma, num_thresholds, accept_cap)
