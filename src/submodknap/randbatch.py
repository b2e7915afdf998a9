"""Threshold batch sampling: pick random feasible prefixes of high-density
elements.

Given a density floor, the sampler keeps a survivor pool of elements whose
marginal gain per unit cost still clears the floor, draws a random maximal
budget-feasible ordering of that pool, and accepts the longest prefix that
passes two stopping rules: the survivor pool must lose an epsilon fraction of
its cost mass (mass rule), and the accepted prefix must not carry too much
negative-marginal weight relative to the surviving gain (damage rule).  Each
iteration costs exactly one adaptive round because all prefix marginals are
queried together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_id_array


@dataclass(frozen=True)
class RandBatchParams:
    """Knobs for one sampling call.

    threshold:  density floor (marginal gain per unit cost) for survival.
    accept_cap: stop after this many damage-rule acceptances.
    epsilon:    accuracy parameter shared by both stopping rules.
    """

    threshold: float
    accept_cap: int
    epsilon: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError("threshold must be positive")
        if self.accept_cap < 1:
            raise ValueError("accept_cap must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")


@dataclass(frozen=True)
class RandBatchOutput:
    """Result of one sampling call.

    accepted:  elements kept, in selection order.
    surviving: elements still clearing the density floor at exit; empty
               unless the acceptance cap stopped the loop early.

    ``damage_count`` reports how many accepted prefixes were cut by the
    damage rule; the loop stops once it reaches the acceptance cap.
    """

    accepted: tuple
    surviving: tuple
    damage_count: int = 0


def get_seq(current, pool, instance, external_cost, rng):
    """Random maximal ordered sequence from ``pool`` with feasible prefixes.

    Elements are drawn uniformly without replacement; the sequence stops once
    no remaining element fits next to ``current`` plus ``external_cost``
    within the budget.  Requires ``pool`` to be disjoint from ``current``.
    """
    costs = instance.costs
    room = instance.budget - external_cost - instance.cost_of(current)
    candidates = [e for e in pool if costs[e] <= room]
    seq = []
    while candidates:
        pick = candidates[int(rng.integers(len(candidates)))]
        seq.append(pick)
        room -= costs[pick]
        candidates = [e for e in candidates if e != pick and costs[e] <= room]
    return seq


def rand_batch(oracle, pool, params, instance, rng, base=()):
    """Select a batch of elements whose conditional density clears a floor.

    Works against the conditioned function ``g(.) = f(. | base)``: marginals
    are taken past ``base`` and all feasibility checks are against the budget
    left after paying for ``base``.  With an empty ``base`` this is plain
    threshold sampling on ``f``.

    Adaptive cost: one round for the initial density filter, then one round
    per prefix-drawing iteration (survivor refilters reuse marginals already
    queried in the sweep).  An empty ``pool`` returns immediately without
    touching the oracle.
    """
    base = tuple(base)
    pool = [int(e) for e in as_id_array(pool).tolist()]
    if not pool:
        return RandBatchOutput((), (), 0)

    costs = instance.costs
    epsilon = params.epsilon
    threshold = params.threshold
    residual = instance.budget - instance.cost_of(base)

    accepted = []
    accepted_cost = 0.0
    count = 0

    # initial survivor filter: one marginal batch over the whole pool
    gains = oracle.marginal_batch(base, pool)
    survivors = [
        e
        for e, gain in zip(pool, gains)
        if gain / costs[e] >= threshold and accepted_cost + costs[e] <= residual
    ]

    while survivors and count < params.accept_cap:
        seq = get_seq(accepted, survivors, instance, instance.budget - residual, rng)
        d = len(seq)
        if d == 0:
            # unreachable in exact arithmetic (every survivor fits alone);
            # at the budget boundary rounding can leave survivors that no
            # canonical cost sum admits, so they are dropped
            survivors = []
            break
        seq_costs = costs[np.asarray(seq, dtype=np.intp)]
        prefix_costs = np.concatenate([[0.0], np.cumsum(seq_costs)])

        # marginals of every survivor against every prefix, in one round
        groups = [
            (base + tuple(accepted) + tuple(seq[:i]), survivors)
            for i in range(d + 1)
        ]
        sweep = oracle.evaluate_extensions(groups)
        gain_rows = np.vstack(
            [ext - base_value for base_value, ext in sweep]
        )  # shape (d+1, len(survivors))

        surv_costs = costs[np.asarray(survivors, dtype=np.intp)]
        surv_index = {e: j for j, e in enumerate(survivors)}
        pool_cost = float(surv_costs.sum())

        # per-prefix survivor classification
        density_ok = gain_rows / surv_costs >= threshold
        fits = (accepted_cost + prefix_costs)[:, None] + surv_costs <= residual
        high = density_ok & fits  # still worth taking after this prefix
        negative = gain_rows < 0.0

        # damage carried by the prefix itself: negative marginals of the
        # drawn elements at the moment they would be added
        step_gains = np.array(
            [gain_rows[j, surv_index[seq[j]]] for j in range(d)]
        )
        damage_prefix = np.concatenate(
            [[0.0], np.cumsum(np.where(step_gains < 0.0, -step_gains, 0.0))]
        )

        remaining_mass = np.where(high, surv_costs, 0.0).sum(axis=1)
        surviving_gain = np.where(high, gain_rows, 0.0).sum(axis=1)
        negative_gain = np.where(negative, -gain_rows, 0.0).sum(axis=1)

        mass_rule = remaining_mass <= (1.0 - epsilon) * pool_cost
        damage_rule = epsilon * surviving_gain <= negative_gain + damage_prefix

        t1 = int(np.argmax(mass_rule)) if mass_rule.any() else d
        t2 = int(np.argmax(damage_rule)) if damage_rule.any() else d
        t_star = min(t1, t2)

        taken = set(seq[:t_star])
        accepted.extend(seq[:t_star])
        accepted_cost += float(prefix_costs[t_star])
        if t2 <= t1:
            count += 1

        # refilter survivors against the extended accepted set, reusing the
        # sweep row that matches it
        survivors = [
            e
            for j, e in enumerate(survivors)
            if e not in taken
            and gain_rows[t_star, j] / costs[e] >= threshold
            and accepted_cost + costs[e] <= residual
        ]

    return RandBatchOutput(tuple(accepted), tuple(survivors), count)
