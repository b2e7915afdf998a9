"""Alternating-threshold maximization under a knapsack constraint.

Two disjoint candidate solutions are grown against a geometrically falling
density grid: one absorbs threshold-sampled batches on odd grid steps, the
other on even steps, each drawing from the elements the other has not taken.
A second phase then augments every prefix of both candidates with its best
feasible extra element (two adaptive rounds total) and, when the first batch
plus all tiny-cost elements are cheap enough, runs one round of unconstrained
maximization over them.  The best of all recorded candidates wins.

Adaptive depth is the selling point: the grid has a fixed length, each
sampled batch costs a logarithmic number of rounds, and the augmentation
phase is flat, so total rounds grow like ``log n`` rather than like the
solution size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import as_id_array
from .estimator import ESTIMATORS, check_grid_params, gamma_and_guesses
from .randbatch import BOUND_SLACK, RandBatchParams, rand_batch, slackened
from .unconstrained import unsub_max

_value = itemgetter(1)  # the value of an (ids, value) candidate


@dataclass(frozen=True)
class AstConfig:
    """Parameters of one solver run.

    alpha, epsilon, delta shape the threshold grid (and the boost round
    draws ``ceil(1/epsilon)`` random subsets); the seed fixes every random
    draw; ``estimator`` names the entry of ``ESTIMATORS`` that seeds the grid.
    """

    alpha: float = 1.0 / 7.0
    epsilon: float = 0.1
    delta: float = 0.12
    seed: int = 0
    estimator: str = "greedy"

    def __post_init__(self):
        check_grid_params(self.alpha, self.epsilon, self.delta)
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator: {self.estimator!r}")


@dataclass
class AstResult:
    """Final solution plus every candidate and complexity counter.

    ``candidates`` maps names (X, Y, S0, best_x_aug, best_y_aug, and S1 when
    the cheap-ground condition held) to ``(ids, value)`` pairs.  Round and
    query counters split the estimator phase from the algorithm proper;
    ``ast_rounds`` = main loop + unconstrained boost + prefix augmentation.
    ``main_loop_rounds`` counts the threshold loop's rounds, and
    ``skipped_steps`` its grid steps that the gain bounds answered without a
    query: the pool was not empty, but no element's bound cleared the step's
    threshold within the budget left, so the step charged no round.
    """

    solution: tuple
    value: float
    candidates: dict
    x_order: tuple
    y_order: tuple
    x_after_first: tuple
    y_after_second: tuple
    compared_candidates: int
    gamma: float = 0.0
    num_thresholds: int = 0
    accept_cap: int = 0
    estimator_queries: int = 0
    estimator_rounds: int = 0
    ast_queries: int = 0
    ast_rounds: int = 0
    main_loop_rounds: int = 0
    skipped_steps: int = 0
    unsubmax_rounds: int = 0
    boost_rounds: int = 0


def split_ground(instance, epsilon):
    """Split elements into tiny-cost ones (at most ``epsilon * B / n``) and
    the rest.  The tiny side as a whole always fits inside ``epsilon * B``."""
    cutoff = epsilon * instance.budget / instance.n
    tiny = tuple(np.nonzero(instance.costs <= cutoff)[0].tolist())
    rest = tuple(np.nonzero(instance.costs > cutoff)[0].tolist())
    return tiny, rest


def threshold_loop(oracle, instance, pool, grid, config, rng, singleton_gains):
    """Grow the two disjoint candidates over the falling threshold grid.

    Odd steps extend the first candidate, even steps the second; after each
    step the freshly taken elements leave the shared pool.  Each candidate
    keeps its own array of upper bounds on every element's gain past it,
    starting from ``singleton_gains`` (``f({u})``, or ``None`` for +inf) and
    tightened by ``rand_batch``; a step with no element whose bound clears
    its threshold makes no query.  The bounds hold only when gains can only
    fall, so they are used only when the objective is ``submodular``; on
    any other objective every step filters its whole fitting pool.  Returns
    both selection orders, snapshots of the first candidate after step one
    and the second after step two, and the number of such skipped steps
    with a non-empty pool.
    """
    xs, ys = [], []
    start = np.full(instance.n, np.inf) if singleton_gains is None else singleton_gains
    sides = ((xs, start.copy()), (ys, start.copy()))
    pool = as_id_array(pool)
    taken = np.zeros(instance.n, dtype=bool)
    x_after_first = ()
    y_after_second = ()
    skipped = 0
    ledger = oracle.ledger
    use_bounds = getattr(oracle.objective, "submodular", False)
    for i in range(1, grid.num_thresholds + 1):
        theta = grid.gamma * (1.0 - config.epsilon) ** i
        params = RandBatchParams(
            threshold=theta, accept_cap=grid.accept_cap, epsilon=config.epsilon
        )
        order, bound = sides[1 - i % 2]
        rounds = ledger.adaptive_rounds
        out = rand_batch(
            oracle, pool, params, instance, rng, base=tuple(order),
            bound=bound if use_bounds else None,
        )
        skipped += pool.size > 0 and ledger.adaptive_rounds == rounds
        if out.accepted:
            order.extend(out.accepted)
            taken[list(out.accepted)] = True
            pool = pool[~taken[pool]]
        if i == 1:
            x_after_first = tuple(xs)
        elif i == 2:
            y_after_second = tuple(ys)
    return tuple(xs), tuple(ys), x_after_first, y_after_second, skipped


def augment_prefixes(oracle, instance, order, singleton_gains=None):
    """Try every prefix of ``order`` with its best feasible extra element.

    All prefix extensions plus the full set itself are charged in one
    adaptive round.  For each prefix the winning element is the feasible one
    (anywhere in the ground set, including inside the prefix, where it adds
    nothing) with the highest gain, ties to the lowest id.  The recorded
    value of the full set and of the best augmented prefix (the first of
    equal values, in prefix order) are their sets' from-scratch values,
    which the round has already paid for.

    Only what the two argmaxes can use is computed.  When the objective is
    ``submodular``, each element keeps an upper bound on its gain, starting
    from ``singleton_gains`` (``f({u})``, or ``None`` for +inf) and lowered
    by every gain read; an element that joins the prefix gets bound 0.0,
    its gain from then on.  Each prefix's row is read in two steps: the
    gains of the next order element and of the element with the highest
    bound, then those of the elements whose bound, raised by ``slackened``,
    reaches the larger of the two; nobody else can win.  On any other
    objective whole rows are read.  Each prefix's value is estimated back
    from the exact ``f(order)`` with the rows' gains of the next order
    element, and only the augmented prefixes whose estimate comes within
    ``BOUND_SLACK`` times the chain's magnitude of the best estimate get a
    from-scratch value.  When budget-boundary rounding leaves a next order
    element out of its prefix's candidates the chain is broken, and every
    augmented prefix gets its from-scratch value.

    Returns ``(value_of_full_set, (augmented_ids, value))``, the second
    ``None`` for an empty ``order``.
    """
    order = tuple(int(e) for e in as_id_array(order).tolist())
    costs = instance.costs
    budget = instance.budget
    groups = [(order, ())]
    in_prefix = np.zeros(instance.n, dtype=bool)
    prefix_cost = 0.0
    for i, e in enumerate(order, start=1):
        in_prefix[e] = True
        prefix_cost += costs[e]
        fits = np.nonzero((costs + prefix_cost <= budget) | in_prefix)[0]
        groups.append((order[:i], fits))
    rows = oracle.evaluate_extensions(groups)
    full_value = oracle.exact_value(order)
    if not order:
        return full_value, None

    if getattr(oracle.objective, "submodular", False):
        bound = np.full(instance.n, np.inf) if singleton_gains is None else singleton_gains.copy()
    else:
        bound = None
    augmented, best_gains, steps = [], [], []
    for i, (prefix, cands) in enumerate(groups[1:], start=1):
        # the next order element's position among the candidates, or None
        nxt = None
        if i < len(order):
            pos = int(np.searchsorted(cands, order[i]))
            if pos < cands.size and cands[pos] == order[i]:
                nxt = pos
        if bound is None:
            gains = rows[i]
            win = int(np.argmax(gains))
            gain = gains[win]
            step = None if nxt is None else gains[nxt]
        else:
            win, gain, step = _lazy_row_argmax(rows, i, cands, bound, prefix[-1], nxt)
        # a prefix's own elements always fit, so every prefix has a candidate
        pick = int(cands[win])
        augmented.append(prefix if pick in prefix else prefix + (pick,))
        best_gains.append(gain)
        steps.append(step)

    # f(order[:i]) = f(order[:i + 1]) - f(order[i] | order[:i]), back from
    # the exact f(order); a next element missing from its row breaks it
    if None in steps[:-1]:
        reach = range(len(order))
    else:
        chain = np.array(steps[:-1], dtype=np.float64)
        best_gains = np.array(best_gains, dtype=np.float64)
        estimates = full_value - np.append(np.cumsum(chain[::-1])[::-1], 0.0) + best_gains
        magnitude = abs(full_value) + np.abs(chain).sum() + np.abs(best_gains).max()
        slack = BOUND_SLACK * max(1.0, magnitude)
        reach = np.nonzero(estimates >= estimates.max() - slack)[0].tolist()
    best = None
    for i in reach:
        value = oracle.exact_value(augmented[i])
        if best is None or value > best[1]:
            best = (augmented[i], value)
    return full_value, best


def _lazy_row_argmax(rows, i, cands, bound, joined, nxt):
    """``(winner position, its gain, gain at nxt or None)`` of row ``i`` of
    ``augment_prefixes``, reading only the gains the bounds cannot rule out
    and lowering ``bound`` with every gain read.  ``joined`` is the element
    that joined the prefix at this row."""
    bound[joined] = 0.0  # its gain is exactly 0 from here on
    cand_bound = bound[cands]
    top = int(np.argmax(cand_bound))
    first = np.array([top] if nxt is None else [nxt, top], dtype=np.intp)
    gains = rows.read(i, first)
    step = None if nxt is None else gains[0]
    live = slackened(cand_bound) >= gains.max()
    live[first] = False
    rest = np.nonzero(live)[0]
    if rest.size:
        first = np.concatenate([first, rest])
        gains = np.concatenate([gains, rows.read(i, rest)])
    ids = cands[first]
    bound[ids] = np.minimum(bound[ids], gains)
    gain = gains.max()
    return int(first[gains == gain].min()), gain, step


def ast(oracle, instance, config=None):
    """Run the full alternating-threshold solver.

    Deterministic given ``config.seed``: the one generator is consumed in a
    fixed order (threshold loop draws, then boost-phase subset draws).  The
    estimator configured in ``config`` runs first and its oracle traffic is
    reported separately so the solver's own adaptivity stays visible.
    """
    if config is None:
        config = AstConfig()
    if oracle.n != instance.n:
        raise ValueError("oracle and instance disagree on ground-set size")
    rng = np.random.default_rng(config.seed)
    ledger = oracle.ledger
    start_queries, start_rounds = ledger.snapshot()

    tiny, rest = split_ground(instance, config.epsilon)

    estimate = ESTIMATORS[config.estimator](oracle, instance)
    est_queries, est_rounds = ledger.snapshot()
    estimator_queries = est_queries - start_queries
    estimator_rounds = est_rounds - start_rounds

    if estimate.value <= 0.0:
        # no feasible singleton has positive value (the ESTIMATORS contract),
        # so no feasible set beats the empty one
        return AstResult(
            solution=(),
            value=0.0,
            candidates={"S0": (estimate.solution, estimate.value)},
            x_order=(),
            y_order=(),
            x_after_first=(),
            y_after_second=(),
            compared_candidates=1,
            estimator_queries=estimator_queries,
            estimator_rounds=estimator_rounds,
        )

    grid = gamma_and_guesses(
        estimate.value,
        instance.budget,
        alpha=config.alpha,
        epsilon=config.epsilon,
        delta=config.delta,
    )

    x_order, y_order, x_after_first, y_after_second, skipped = threshold_loop(
        oracle, instance, rest, grid, config, rng, estimate.singleton_gains
    )
    loop_queries, loop_rounds = ledger.snapshot()

    s1 = None
    s1_value = None
    boost_ground = x_after_first + tiny
    if instance.cost_of(boost_ground) <= config.epsilon * instance.budget:
        samples = math.ceil(1.0 / config.epsilon)
        s1, s1_value = unsub_max(oracle, boost_ground, samples, rng)
    unsub_queries, unsub_rounds = ledger.snapshot()

    x_value, x_best = augment_prefixes(oracle, instance, x_order, estimate.singleton_gains)
    y_value, y_best = augment_prefixes(oracle, instance, y_order, estimate.singleton_gains)
    end_queries, end_rounds = ledger.snapshot()

    # the final argmax: max keeps the first of equal values, so ties go to
    # the earliest candidate in this order
    compared = {}
    if x_best is not None:
        compared["best_x_aug"] = x_best
    if y_best is not None:
        compared["best_y_aug"] = y_best
    compared["X"] = (x_order, x_value)
    compared["Y"] = (y_order, y_value)
    if s1 is not None:
        compared["S1"] = (s1, s1_value)
    solution, value = max(compared.values(), key=_value)
    candidates = {**compared, "S0": (estimate.solution, estimate.value)}

    return AstResult(
        solution=tuple(solution),
        value=float(value),
        candidates=candidates,
        x_order=x_order,
        y_order=y_order,
        x_after_first=x_after_first,
        y_after_second=y_after_second,
        compared_candidates=len(x_order) + len(y_order) + 2 + (s1 is not None),
        gamma=grid.gamma,
        num_thresholds=grid.num_thresholds,
        accept_cap=grid.accept_cap,
        estimator_queries=estimator_queries,
        estimator_rounds=estimator_rounds,
        ast_queries=end_queries - est_queries,
        ast_rounds=end_rounds - est_rounds,
        main_loop_rounds=loop_rounds - est_rounds,
        skipped_steps=skipped,
        unsubmax_rounds=unsub_rounds - loop_rounds,
        boost_rounds=end_rounds - unsub_rounds,
    )
