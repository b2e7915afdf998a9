"""Knapsack instances, set-function oracles, and query/round accounting.

Every algorithm in this package talks to a set function exclusively through
:class:`CountingOracle`, which charges one query per set evaluation and one
adaptive round per batch, no matter how large the batch is.  The batch is the
unit of parallelism: everything inside a single batch could run concurrently,
so the number of batches is what measures an algorithm's sequential depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BatchContractError(ValueError):
    """An adaptive round must contain at least one query."""


def as_id_array(ids):
    """Normalize a collection of element ids to a 1-D integer array.

    Non-integer ids (floats, booleans such as a mask) raise ``ValueError``
    instead of being cast to other ids; an empty collection is always valid.
    """
    if not isinstance(ids, np.ndarray):
        ids = np.asarray(ids if isinstance(ids, (list, tuple)) else list(ids))
    if ids.ndim != 1:
        raise ValueError("element ids must form a 1-D collection")
    if ids.dtype.kind not in "iu":
        if ids.size:
            raise ValueError(f"element ids must be integers, not {ids.dtype}")
        return np.empty(0, dtype=np.intp)
    return ids.astype(np.intp, copy=False)


@dataclass(frozen=True)
class KnapsackInstance:
    """Ground set of ``n`` elements with positive costs and a budget.

    The cost function is modular: the cost of a set is the sum of its element
    costs, accumulated in ascending-id order so feasibility checks are
    reproducible.  Feasibility is inclusive (total cost may equal the budget).
    Elements whose individual cost exceeds the budget stay in the ground set;
    algorithms filter them at their own boundaries.
    """

    costs: np.ndarray
    budget: float

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.ndim != 1 or costs.size == 0:
            raise ValueError("costs must be a non-empty 1-D array")
        if not np.all(np.isfinite(costs)) or np.any(costs <= 0.0):
            raise ValueError("every element cost must be positive and finite")
        if not (np.isfinite(self.budget) and self.budget > 0):
            raise ValueError("budget must be positive and finite")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "budget", float(self.budget))

    @property
    def n(self):
        return self.costs.size

    @property
    def total_cost(self):
        return float(np.sort(self.costs).sum())

    @property
    def max_feasible_cardinality(self):
        """Largest number of elements any feasible set can contain."""
        prefix = np.cumsum(np.sort(self.costs))
        return int(np.searchsorted(prefix, self.budget, side="right"))

    def cost_of(self, ids):
        """Total cost of a set, summed in ascending-id order."""
        arr = as_id_array(ids)
        if arr.size == 0:
            return 0.0
        return float(self.costs[np.sort(arr)].sum())

    def feasible(self, ids):
        return self.cost_of(ids) <= self.budget


@dataclass
class QueryLedger:
    """Monotone counters for oracle traffic.

    ``adaptive_rounds`` advances by exactly one per batch call and
    ``total_queries`` by the batch size, so after any run the round count
    equals the number of batches issued and the query count equals the sum of
    their sizes.
    """

    total_queries: int = 0
    adaptive_rounds: int = 0

    def snapshot(self):
        return (self.total_queries, self.adaptive_rounds)

    def charge(self, queries):
        if queries < 1:
            raise BatchContractError("a round must contain at least one query")
        self.total_queries += queries
        self.adaptive_rounds += 1


class CountingOracle:
    """Counted access to a non-negative normalized set function.

    The wrapped objective must be a pure function of the queried set: the same
    set always yields the same value regardless of query history, and
    ``f(empty) = 0``.  Objectives shipped in :mod:`submodknap.objectives` sort
    ids internally, so the value does not depend on insertion order either.

    Parameters
    ----------
    objective:
        Callable mapping a 1-D array of element ids to a float.  Its ground
        set size is taken from ``objective.n`` unless ``n`` is given.
    """

    def __init__(self, objective, n=None, ledger=None):
        self.objective = objective
        self.n = int(n if n is not None else objective.n)
        self.ledger = ledger if ledger is not None else QueryLedger()

    def _check_ids(self, arr):
        if arr.size:
            if arr.min() < 0 or arr.max() >= self.n:
                raise ValueError("element id out of range for this ground set")

    def _eval_one(self, arr):
        self._check_ids(arr)
        return float(self.objective(arr))

    def evaluate(self, ids):
        """Value of one set: one query, one adaptive round."""
        return self.evaluate_batch([ids])[0]

    def evaluate_batch(self, sets):
        """Evaluate many sets in a single adaptive round.

        Results are element-wise identical to sequential :meth:`evaluate`
        calls; only the accounting differs (one round for the whole batch).
        """
        arrs = [as_id_array(s) for s in sets]
        if not arrs:
            raise BatchContractError("empty batch: a round must contain at least one query")
        values = [self._eval_one(a) for a in arrs]
        self.ledger.charge(len(arrs))
        return values

    def evaluate_extensions(self, groups):
        """Evaluate base sets and their one-element extensions in one round.

        ``groups`` is a sequence of ``(base, candidates)`` pairs.  For each
        pair the oracle evaluates ``f(base)`` and ``f(base + {u})`` for every
        candidate ``u``; a candidate already inside its base contributes the
        base set itself (the extension adds nothing).  The round is charged
        ``sum(len(candidates) + 1)`` queries: one per base, one per extension.

        Returns a list of ``(base_value, extension_values)`` pairs with
        ``extension_values`` aligned to the candidate order.
        """
        prepared = []
        queries = 0
        for base, candidates in groups:
            base_arr = as_id_array(base)
            cand_arr = as_id_array(candidates)
            prepared.append((base_arr, cand_arr))
            queries += cand_arr.size + 1
        if queries < 1:
            raise BatchContractError("empty batch: a round must contain at least one query")

        out = []
        objective = self.objective
        for base_arr, cand_arr in prepared:
            self._check_ids(base_arr)
            self._check_ids(cand_arr)
            base_value = float(objective(base_arr))
            ext_values = np.empty(cand_arr.size, dtype=np.float64)
            if cand_arr.size:
                members = set(base_arr.tolist())
                buf = np.empty(base_arr.size + 1, dtype=np.intp)
                buf[:-1] = base_arr
                for j, u in enumerate(cand_arr.tolist()):
                    if u in members:
                        # base + {u} is the base set; same set, same value.
                        ext_values[j] = base_value
                    else:
                        buf[-1] = u
                        ext_values[j] = objective(buf)
            out.append((base_value, ext_values))
        self.ledger.charge(queries)
        return out

    def marginal_batch(self, base, candidates):
        """Marginal gains ``f(u | base)`` for each candidate, in one round.

        Costs ``len(candidates) + 1`` queries: the base is evaluated once and
        cached within the batch.
        """
        base_value, ext_values = self.evaluate_extensions([(base, candidates)])[0]
        return [v - base_value for v in ext_values.tolist()]
