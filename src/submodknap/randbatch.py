"""Threshold batch sampling: pick random feasible prefixes of high-density
elements.

Given a density floor, the sampler keeps a survivor pool of elements whose
marginal gain per unit cost still clears the floor, draws a random maximal
budget-feasible ordering of that pool, and accepts the longest prefix that
passes two stopping rules: the survivor pool must lose an epsilon fraction of
its cost mass (mass rule), and the accepted prefix must not carry too much
negative-marginal weight relative to the surviving gain (damage rule).  Each
iteration costs exactly one adaptive round because all prefix marginals are
queried together, though only the rows past the first, up to the accepted
length, are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import PrefixRound, _sum, checked_ids


@dataclass(frozen=True)
class RandBatchParams:
    """Knobs for one sampling call.

    threshold:  density floor (marginal gain per unit cost) for survival.
    accept_cap: stop after this many damage-rule acceptances.
    epsilon:    accuracy parameter shared by both stopping rules; in (0, 1),
                and large enough that 1 - epsilon rounds below 1.
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
        if 1.0 - self.epsilon == 1.0:
            raise ValueError("epsilon is too small: 1 - epsilon rounds to 1")


@dataclass(frozen=True)
class RandBatchOutput:
    """Result of one sampling call.

    accepted:  elements kept, in selection order.
    surviving: elements still clearing the density floor at exit; empty
               unless the acceptance cap stopped the loop early.

    ``damage_count`` reports how many accepted prefixes were cut by the
    damage rule; the loop stops once it reaches the acceptance cap.

    ``ceiling`` is +inf when the call queried.  When it queried nothing, it
    is the largest density the entry filter tested: ``slackened(bound[u]) /
    c(u)`` over the pool elements ``u`` that fit, -inf when none does.

    ``gains`` holds, aligned to ``accepted``, each element's gain past the
    call's base plus the elements accepted before it, bit for bit what the
    oracle answers for that base; the sampler read each one on its way
    (see :func:`rand_batch`).
    """

    accepted: tuple
    surviving: tuple
    damage_count: int = 0
    ceiling: float = np.inf
    gains: tuple = ()


# the output of every call whose filter queried and kept no element; the
# output is frozen, so one instance serves them all
_NONE_SURVIVED = RandBatchOutput((), (), 0)


def get_seq(current, pool, instance, external_cost, rng, pool_costs=None):
    """Random maximal ordered sequence from ``pool`` with feasible prefixes.

    Elements are drawn uniformly without replacement; the sequence stops once
    no remaining element fits next to ``current`` plus ``external_cost``
    within the budget.  Requires ``pool`` to hold distinct ids, disjoint
    from ``current``.  While ``k > 1`` elements still fit, each pick is one
    ``rng.integers(k)`` call, indexing them in pool order; a lone element
    that fits is taken without a call, since ``rng.integers(1)`` returns 0
    and leaves the generator as it was.  Pool costs are read once, as
    Python floats: the same doubles, so the same draws as comparing numpy
    scalars.  A caller that holds them already, aligned to ``pool``, passes
    them as ``pool_costs``.

    The elements that still fit are kept as one list: a pick leaves it in
    place, and the others are dropped only once the largest cost in it no
    longer fits the room left, so a draw does not rescan the list after
    every pick.
    """
    pool = list(pool)
    room = instance.budget - external_cost - instance.cost_of(current)
    if pool_costs is None:
        pool_costs = instance.costs[pool].tolist()
    candidates = [(e, c) for e, c in zip(pool, pool_costs) if c <= room]
    top = max([c for _, c in candidates], default=0.0)  # no cost in the list is larger
    seq = []
    while candidates:
        k = len(candidates)
        pick, cost = candidates.pop(int(rng.integers(k)) if k > 1 else 0)
        seq.append(pick)
        room -= cost
        if top > room:
            candidates = [(e, c) for e, c in candidates if c <= room]
            top = max([c for _, c in candidates], default=0.0)
    return seq


def _rules(gains, elem_costs, spent, threshold, residual):
    """One sweep row's survivor mask, and the sums its stopping rules test:
    the survivors' cost and gain, and the pool's negative gains.  An
    element survives when its gain per unit cost clears ``threshold`` and
    it still fits next to ``spent`` within ``residual``."""
    high = (gains / elem_costs >= threshold) & (spent + elem_costs <= residual)
    return (
        high,
        _sum(np.where(high, elem_costs, 0.0)),
        _sum(np.where(high, gains, 0.0)),
        _sum(np.where(gains < 0.0, -gains, 0.0)),
    )


# pools smaller than this take the stopping rules on Python floats
SMALL_POOL = 8


def _small_rules(gains, elem_costs, spent, threshold, residual):
    """:func:`_rules` on lists of Python floats, for fewer than
    ``SMALL_POOL`` elements: the same mask (a list) and bit for bit the same
    sums.  ``np.add.reduce`` adds fewer than 8 doubles one by one, starting
    from 0.0, and an add of the 0.0 ``np.where`` puts in leaves a sum that
    starts from 0.0 unchanged (only -0.0 + 0.0 changes bits), so skipping
    those adds changes nothing."""
    high = []
    mass = kept = lost = 0.0
    for g, c in zip(gains, elem_costs):
        clears = g / c >= threshold and spent + c <= residual
        high.append(clears)
        if clears:
            mass += c
            kept += g
        if g < 0.0:
            lost += -g
    return high, mass, kept, lost


# relative slack on a gain bound: a gain past a larger base may exceed the
# gain past a smaller one by rounding, never by more than this
BOUND_SLACK = 1e-9


def slackened(bound):
    """``bound`` raised by its slack: by submodularity, no gain past a
    larger base exceeds this, rounding included."""
    return bound + BOUND_SLACK * np.maximum(1.0, np.abs(bound))


def rand_batch(oracle, pool, params, instance, rng, base=(), bound=None, residual=None):
    """Select a batch of elements whose conditional density clears a floor.

    Works against the conditioned function ``g(.) = f(. | base)``: marginals
    are taken past ``base`` and all feasibility checks are against the budget
    left after paying for ``base``.  With an empty ``base`` this is plain
    threshold sampling on ``f``.  ``residual`` is that budget left,
    ``instance.budget - instance.cost_of(base)``: a caller that keeps it
    passes it, as the threshold loop does with each candidate's, re-summed
    only when the candidate grows; ``None`` sums it here.

    ``bound`` is an array over the ground set whose entry ``u`` bounds
    ``f(u | base)`` from above; ``None`` stands for +inf everywhere.  By
    submodularity any gain seen past a subset of ``base`` is such a bound.
    The initial filter queries only the pool elements that fit and whose
    bound clears the threshold within a relative slack of ``BOUND_SLACK``;
    the others cannot survive it, so the output is the same as with no
    bound.  The call tightens ``bound`` in place (never loosens it) with the
    filter's gains and with each sweep's row ``t*``, whose base is ``base``
    plus the accepted prefix, so it still holds for any later base that
    extends ``base`` plus the accepted elements.

    Adaptive cost: one round for the initial density filter, or none when
    no pool element can clear it (an empty pool included), in which case the
    call returns without touching the oracle, ``rng`` or ``bound``, and
    reports the largest density it tested as the output's ``ceiling``.
    While that stays below a threshold, a later call with the same
    ``bound`` and ``base`` over a subset of the pool queries nothing
    either.  The filter tests the queried elements on density alone: each
    already fits alone, and ``0.0 + c == c``, so the survivor rule's fit
    term holds for all of them.  When none survives, the call returns
    there, before any survival sum, leaving ``rng`` untouched.  Then one
    round per prefix-drawing iteration (survivor refilters reuse marginals
    already queried in the sweep).  Each iteration's sweep is charged and
    checked in full when it is issued, all d + 1 rows, but a row is
    computed only when read: rows are read in order and reading stops at
    row t*, so rows past it cost nothing but their charge.

    Row 0 is not read either.  Its base, the spent cost and the survivors
    are those of the check that made the survivors: the filter for the
    first sweep, the previous sweep's row t* (whose base is this row 0's,
    and whose ``high`` mask picked the survivors) for later ones.  The
    oracle gives the same gains bit for bit, so at t = 0 every survivor
    still clears: the remaining mass is the pool cost, every gain is
    positive (its density clears a positive floor), so no gain is
    negative and the drawn element adds no damage.  Hence the mass rule
    fires only if ``(1 - epsilon) * pool_cost`` rounds back to
    ``pool_cost`` (a subnormal pool cost, which ``KnapsackInstance``
    rejects), and the damage rule only if
    ``epsilon * surviving_gain`` underflows to 0.  Each sweep tests both
    on numbers in hand, with ``surviving_gain`` summed over the previous
    check's mask, and reads from t = 0 when either could fire.  That sum
    and row 0's add the same positive gains in another order, and they
    differ only when they are at least 2**-1021, where the product with
    ``epsilon`` cannot underflow: every float below 2**-1021 is a
    multiple of 2**-1074, so sums below it are exact, and ``1 - epsilon
    < 1`` (which ``RandBatchParams`` requires) means ``epsilon > 2**-54``.

    Each sweep's scalars are taken without per-row numpy overhead where
    that keeps the bits: prefix costs are sequential Python sums, as
    ``np.cumsum`` adds them; the masked sums call ``np.add.reduce``, which
    is what ``ndarray.sum`` calls, or, over fewer than ``SMALL_POOL``
    survivors, are Python float sums in the same order (:func:`_small_rules`);
    and the survivor positions that a step gain needs are indexed only when
    a row before t* reads one.  The survivors carry from sweep to sweep as
    one id array; each sweep reads their ids and costs from it once, as
    the lists ``get_seq`` draws from, and sends its groups to the oracle as
    one :class:`~submodknap.core.PrefixRound`, checked once.

    The output's ``gains`` cost no extra read.  A sweep's first pick is a
    survivor of the check that made the survivors, whose base is row 0's,
    so its gain is that check's, taken at its position there; the gain of
    each later pick ``seq[t]`` is the step gain the damage rule read from
    row ``t``.
    """
    base = tuple(base)
    if bound is None:
        bound = np.full(instance.n, np.inf)
    pool = checked_ids(pool, instance.n)
    costs = instance.costs
    epsilon = params.epsilon
    threshold = params.threshold
    if residual is None:
        residual = instance.budget - instance.cost_of(base)

    pool_costs = costs[pool]
    density = slackened(bound[pool]) / pool_costs
    fit = pool_costs <= residual
    live_mask = (density >= threshold) & fit
    live = pool[live_mask]
    if not live.size:
        return RandBatchOutput((), (), 0, float(density[fit].max()) if fit.any() else -np.inf)

    # initial survivor filter: one marginal batch over the live elements,
    # which all fit alone, so density alone decides (see the docstring)
    gains = oracle.marginal_batch(base, live)
    bound[live] = np.minimum(bound[live], gains)
    high = gains / pool_costs[live_mask] >= threshold
    survivors = live[high]
    if not survivors.size:
        return _NONE_SURVIVED
    surviving_gain = _sum(np.where(high, gains, 0.0))
    # the check that made the survivors, as ids and their gains: for the
    # first sweep the filter's, over the survivors alone, and for later
    # ones row t*'s, over the sweep's pool
    check_ids, check_gains = survivors.tolist(), gains[high]

    accepted = []
    accepted_gains = []
    accepted_cost = 0.0
    count = 0

    while survivors.size and count < params.accept_cap:
        ids = survivors.tolist()
        pool_costs = costs[survivors]
        surv_costs = pool_costs.tolist()
        seq = get_seq(accepted, ids, instance, instance.budget - residual, rng, surv_costs)
        d = len(seq)
        if d == 0:
            # unreachable in exact arithmetic (every survivor fits alone);
            # at the budget boundary rounding can leave survivors that no
            # canonical cost sum admits, so they are dropped
            survivors = survivors[:0]
            break
        # sequential sums, as np.cumsum makes them
        prefix_costs = list(accumulate(costs[seq].tolist(), initial=0.0))

        # marginals of every survivor against every prefix, charged and
        # checked as one round; row t is computed only when read
        rows = oracle.evaluate_extensions(
            PrefixRound(base + tuple(accepted), seq, [survivors] * (d + 1))
        )

        pool_cost = float(_sum(pool_costs))
        # small pools take the rules on Python floats, bit for bit the same
        if len(ids) < SMALL_POOL:
            rules, rule_costs, row_form = _small_rules, surv_costs, np.ndarray.tolist
        else:
            rules, rule_costs, row_form = _rules, pool_costs, np.asarray
        surv_index = None  # survivor id -> position, built when a step gain is read

        # t* is the first prefix length t at which the mass rule (t1) or the
        # damage rule (t2) fires, or d; rows are read in order up to it.
        # Row 0 repeats the check that made these survivors, so neither
        # rule can fire there unless rounding makes it (see the docstring)
        row_0_inert = (1.0 - epsilon) * pool_cost < pool_cost and epsilon * surviving_gain > 0.0
        damage_prefix = 0.0  # negative marginals of the drawn elements so far
        # every step gain read below is an accepted pick's, as it joins;
        # past an inert row 0 the reads start at t = 1, so seq[0] is
        # accepted, at its gain in the check that made the survivors
        if row_0_inert:
            accepted_gains.append(check_gains[check_ids.index(seq[0])])
        for t in range(1 if row_0_inert else 0, d + 1):
            gains = rows[t]
            gains_t = row_form(gains)
            # survivors after prefix t: still worth taking once it is accepted
            spent = accepted_cost + prefix_costs[t]
            high, remaining_mass, surviving_gain, negative_gain = rules(
                gains_t, rule_costs, spent, threshold, residual
            )
            mass_rule = remaining_mass <= (1.0 - epsilon) * pool_cost
            damage_rule = epsilon * surviving_gain <= negative_gain + damage_prefix
            if mass_rule or damage_rule or t == d:
                break
            # the damage carried by the prefix itself: the drawn element's
            # negative marginal at the moment it would be added
            if surv_index is None:
                surv_index = {e: j for j, e in enumerate(ids)}
            step_gain = gains_t[surv_index[seq[t]]]
            accepted_gains.append(step_gain)
            if step_gain < 0.0:
                damage_prefix += -step_gain
        t_star = t
        # rows past t_star extend the base with elements left unaccepted
        bound[survivors] = np.minimum(bound[survivors], gains)

        accepted.extend(seq[:t_star])
        accepted_cost += prefix_costs[t_star]
        if damage_rule or t_star == d:  # t2 <= t1: damage fired at t*, or t1 = t2 = d
            count += 1

        # the survivors past the extended accepted set are row t_star; the
        # elements just accepted gain exactly 0 there, so they drop out.
        # numpy indexes with a list of bools as with a bool array
        survivors = survivors[high]
        check_ids, check_gains = ids, gains_t

    return RandBatchOutput(
        tuple(accepted), tuple(survivors.tolist()), count, gains=tuple(accepted_gains)
    )
