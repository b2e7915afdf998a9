"""Alternating-threshold maximization under a knapsack constraint.

Two disjoint candidate solutions are grown against a geometrically falling
density grid: one absorbs threshold-sampled batches on odd grid steps, the
other on even steps, each drawing from the elements the other has not taken.
A second phase then augments every prefix of both candidates with its best
feasible extra element (two adaptive rounds total) and, when the first batch
plus all tiny-cost elements are cheap enough, runs one round of unconstrained
maximization over them.  The best of the two candidates, their best
augmented prefixes and the unconstrained round's set wins; the estimator's
set is recorded among the candidates but not compared.

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

from .core import PrefixRound, _max, as_id_array, checked_ids
from .estimator import ESTIMATORS, check_grid_params, gamma_and_guesses
from .randbatch import BOUND_SLACK, RandBatchParams, rand_batch, slackened
from .unconstrained import unsub_max

_value = itemgetter(1)  # the value of an (ids, value) candidate


@dataclass(frozen=True)
class AstConfig:
    """Parameters of one solver run.

    epsilon and delta shape the threshold grid (and the boost round draws
    ``ceil(1/epsilon)`` random subsets); the seed fixes every random draw.
    The grid's alpha is ``estimator.ALPHA`` = 1/7, the value the 7 + epsilon
    analysis uses, and density greedy (``ESTIMATORS["greedy"]``) seeds it.
    """

    epsilon: float = 0.1
    delta: float = 0.12
    seed: int = 0

    def __post_init__(self):
        check_grid_params(self.epsilon, self.delta)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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
    and the second after step two, the number of such skipped steps with a
    non-empty pool, each side's copies of its bounds (below), and each
    side's chain gains: ``f(order[i] | order[:i])`` for every ``i``, taken
    from the ``gains`` of the ``rand_batch`` call that accepted
    ``order[i]``, X's list then Y's.  Each side also keeps its budget left,
    ``budget - cost_of(order)``, summed again only when its order grows,
    and passes it to ``rand_batch``.

    Each side keeps the ``ceiling`` of its last ``rand_batch`` call (+inf
    after a query) and skips, without a call, the steps whose threshold is
    above it.  A call that queries nothing leaves the side's bounds and
    order as they are, and the pool only shrinks, so the ceiling still
    bounds every density the next call's filter would test: that call
    would query nothing either.  A step whose threshold the ceiling
    reaches calls; over a pool the other side has shrunk since, the call
    may again query nothing and return a lower ceiling.

    Bound copies.  After each call that queried, on a ``submodular``
    objective, the side keeps ``(len(order), bounds.copy())``, with its
    order as extended by the call; the sixth item returned is the pair of
    these lists, X's then Y's, empty on any other objective.  Each copy
    ``(L, b)`` bounds, within ``slackened``, the gain of every element
    outside ``order[:i]`` past ``order[:i]`` for every ``i >= L`` of the
    side's final order.  An entry of ``b`` is the singleton gain ``f({u})``
    or a gain read by the side's calls up to then: a filter gain past the
    call's base, or a gain of sweep row t*, past the base plus the accepted
    prefix.  Each of those bases is ``order[:k]`` for some ``k <= L``,
    since the order only grows at its end, so it is a subset of
    ``order[:i]``; and by submodularity ``f(u | A) >= f(u | B)`` for ``A``
    a subset of ``B`` and ``u`` outside ``B``.  ``augment_prefixes`` starts
    its bounds from them.
    """
    xs, ys = [], []
    start = np.full(instance.n, np.inf) if singleton_gains is None else singleton_gains
    bounds = (start.copy(), start.copy())
    copies = ([], [])
    chains = ([], [])
    ceilings = [math.inf, math.inf]
    pool = as_id_array(pool)
    taken = np.zeros(instance.n, dtype=bool)
    x_after_first = ()
    y_after_second = ()
    skipped = 0
    ledger = oracle.ledger
    use_bounds = getattr(oracle.objective, "submodular", False)
    budget = instance.budget
    residuals = [budget, budget]  # each side's budget - cost_of(order)
    for i in range(1, grid.num_thresholds + 1):
        theta = grid.gamma * (1.0 - config.epsilon) ** i
        side = 1 - i % 2
        rounds = ledger.adaptive_rounds
        if not ceilings[side] < theta:  # a NaN ceiling calls
            order = (xs, ys)[side]
            params = RandBatchParams(
                threshold=theta, accept_cap=grid.accept_cap, epsilon=config.epsilon
            )
            out = rand_batch(
                oracle, pool, params, instance, rng, base=tuple(order),
                bound=bounds[side] if use_bounds else None, residual=residuals[side],
            )
            ceilings[side] = out.ceiling
            if out.accepted:
                order.extend(out.accepted)
                chains[side].extend(out.gains)
                residuals[side] = budget - instance.cost_of(order)
                taken[list(out.accepted)] = True
                pool = pool[~taken[pool]]
            if use_bounds and ledger.adaptive_rounds > rounds:
                copies[side].append((len(order), bounds[side].copy()))
        skipped += pool.size > 0 and ledger.adaptive_rounds == rounds
        if i == 1:
            x_after_first = tuple(xs)
        elif i == 2:
            y_after_second = tuple(ys)
    return tuple(xs), tuple(ys), x_after_first, y_after_second, skipped, copies, chains


def augment_prefixes(
    oracle, instance, order, singleton_gains=None, loop_bounds=(), chain_gains=None
):
    """Try every prefix of ``order`` with its best feasible extra element.

    All prefix extensions plus the full set itself are charged in one
    adaptive round, one :class:`~submodknap.core.PrefixRound` from the
    empty base: row ``i`` is ``order[:i]`` with the elements that fit
    beside it, so the last row charges ``f(order)``; consecutive prefixes
    with the same candidates pass one array, which the oracle checks once.
    Row ``i``'s candidates are row ``i - 1``'s less the elements outside
    the prefix that stop fitting (the running cost only grows), as long as
    ``order[i - 1]`` was one of them.  So each row carries the row before:
    as is while an upper bound on the cost of its candidates outside the
    prefix still fits beside the prefix, else filtered down.  Only row 1,
    and a row whose last order element was no candidate of the row before
    (rounding at the budget boundary), are built from the whole ground set.
    An id outside the ground set raises ``ValueError`` before any charge.
    For each prefix the winning element is the feasible one (anywhere in
    the ground set, including inside the prefix, where it adds nothing)
    with the highest gain, ties to the lowest id.  The recorded
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
    reaches the larger of the two; nobody else can win.  ``loop_bounds``
    are ``threshold_loop``'s copies of this order's bounds, ``(L, b)``
    pairs in the order it took them, each bounding every gain past
    ``order[:i]`` for ``i >= L`` (the proof is in ``threshold_loop``).
    Before row ``i`` is read, each copy with ``L <= i`` lowers the bounds
    elementwise; singleton gains alone are loose past a one-element
    prefix, and the sampler's gains past the same prefixes are in hand.  A
    copy may put an earlier prefix element below its gain of 0, but any
    prefix element augments the prefix to itself, and the newest one's
    bound is set to 0.0 after the copies, so the row's best gain and its
    augmented prefix stay the same.  On any other
    objective whole rows are read.  Each prefix's value is estimated back
    from the exact ``f(order)`` with the rows' gains of the next order
    element, and only the augmented prefixes whose estimate (that value
    plus the row's best gain) comes within ``BOUND_SLACK`` times the chain's
    magnitude of the best estimate get a from-scratch value.  When
    budget-boundary rounding leaves a next order element out of its
    prefix's candidates the chain is broken, and every augmented prefix
    gets its from-scratch value.

    Rows that cannot come within reach are ruled out before their argmax
    is read, when the objective is ``submodular``, the chain is whole and
    ``singleton_gains`` of ``order[0]`` is finite.  Let ``top`` be the
    largest ``slackened`` singleton bound among the first prefix's
    candidates, or 0.  A later prefix's candidates are the first's, less
    the elements that stopped fitting (the running cost only grows), plus
    prefix elements, which gain exactly 0; so ``top`` bounds every row's
    best gain.  Summing forward from ``f({order[0]})``, as the estimator
    read it, with the same gains of the next order elements also estimates
    each prefix's value.  A row whose forward estimate plus ``top`` falls
    below ``f(order) - margin`` is ruled out: it takes ``top`` as its best
    gain and reads at most the gain of its next order element, which the
    chain needs.  ``chain_gains``, when given, holds that gain for every
    ``i``, ``f(order[i] | order[:i])`` bit for bit as the oracle answers it
    (``threshold_loop`` returns each side's); a ruled-out row then takes it
    from there and reads nothing.  The last row is never ruled out, and its
    estimate is at least ``f(order)``, so ``f(order)`` bounds the best
    estimate from below.

    With ``L = len(order)`` the margin is ``BOUND_SLACK`` times
    ``max(1, 2|f(order)| + |f({order[0]})| + 2 L top)``.  The chain's
    positive gains sum to at most ``(L - 1) top`` and its negative ones to
    that sum less ``f(order) - f({order[0]})``, so the margin is at least
    the final slack whenever the chain's gains add up to that difference
    within ``top``.  A ruled-out row then stays out of reach unless its
    forward and backward estimates differ by nearly the margin, far more
    than rounding makes.  Should one come back into reach anyway, every
    ruled-out row is read whole and the reach recomputed, which is the
    computation without rule-outs.  Otherwise the result is that
    computation's too: taking ``top`` raises a ruled-out row's estimate and
    the slack and leaves the best estimate a row that was read, so every
    row the plain test reaches is still reached, and its own argument says
    that no other row can win.

    Returns ``(value_of_full_set, (augmented_ids, value))``, the second
    ``None`` for an empty ``order``.
    """
    order = tuple(checked_ids(order, instance.n).tolist())
    costs = instance.costs
    budget = instance.budget
    row_cands = [np.empty(0, dtype=np.intp)]  # row 0: the empty base, alone
    links = []  # whether each row's next order element is among its candidates
    in_prefix = np.zeros(instance.n, dtype=bool)
    prefix_cost = 0.0
    cap = -math.inf  # no candidate of the last row outside its prefix costs more
    for i, e in enumerate(order, start=1):
        in_prefix[e] = True
        prefix_cost += costs[e]
        # past row 1, while e was a candidate of the row before, that row's
        # candidates hold these: they are the same while cap still fits,
        # and passed as one array that the oracle checks once
        if not (links and links[-1]):
            fit = costs + prefix_cost <= budget
            fits = np.nonzero(fit | in_prefix)[0]
            cap = _max(costs[fit & ~in_prefix], initial=-math.inf)
        elif cap + prefix_cost > budget:
            last = row_cands[-1]
            last_costs = costs[last]
            fit = last_costs + prefix_cost <= budget
            inside = in_prefix[last]
            fits = last[fit | inside]
            if fits.size == last.size:
                fits = last
            cap = _max(last_costs[fit & ~inside], initial=-math.inf)
        row_cands.append(fits)
        links.append(i < len(order) and costs[order[i]] + prefix_cost <= budget)
    rows = oracle.evaluate_extensions(PrefixRound((), order, row_cands))
    full_value = oracle.exact_value(order)
    if not order:
        return full_value, None
    whole = all(links[:-1])

    bound = None
    fwd, top, floor = math.inf, 0.0, -math.inf  # rules out no row
    if getattr(oracle.objective, "submodular", False):
        bound = np.full(instance.n, np.inf) if singleton_gains is None else singleton_gains.copy()
        bound[order[0]] = 0.0  # in every prefix, so it gains exactly 0
        first = math.inf if singleton_gains is None else float(singleton_gains[order[0]])
        if whole and math.isfinite(first):
            fwd = first
            top = max(0.0, slackened(bound[row_cands[1]]).max())
            scale = 2.0 * abs(full_value) + abs(fwd) + 2.0 * len(order) * top
            floor = full_value - BOUND_SLACK * max(1.0, scale)
    augmented, best_gains, steps, ruled = [], [], [], []
    copies = iter(loop_bounds)
    copy = next(copies, None)
    for i, (cands, link) in enumerate(zip(row_cands[1:], links), start=1):
        if bound is not None:
            while copy is not None and copy[0] <= i:
                np.minimum(bound, copy[1], out=bound)
                copy = next(copies, None)
            bound[order[i - 1]] = 0.0  # it gains exactly 0 from here on
        if link and fwd + top < floor:
            if chain_gains is None:
                step = rows.read(i, np.array([_position(cands, order[i])]))[0]
            else:
                step = chain_gains[i]
            ruled.append(i - 1)
            augmented.append(None)
            best_gains.append(top)
        else:
            nxt = _position(cands, order[i]) if link else None
            if bound is None:
                win, gain, step = _whole_row_argmax(rows, i, nxt)
            else:
                win, gain, step = _lazy_row_argmax(rows, i, cands, bound, nxt)
            # a prefix's own elements always fit, so every row has a winner
            augmented.append(_augmented(order[:i], cands[win]))
            best_gains.append(gain)
        steps.append(step)
        if step is not None:
            fwd += step

    if not whole:
        reach = range(len(order))
    else:
        reach = _reach(full_value, steps[:-1], best_gains)
        if not set(ruled).isdisjoint(reach):
            for i in ruled:
                win, best_gains[i], _ = _whole_row_argmax(rows, i + 1, None)
                augmented[i] = _augmented(order[: i + 1], row_cands[i + 1][win])
            reach = _reach(full_value, steps[:-1], best_gains)
    best = None
    for i in reach:
        value = oracle.exact_value(augmented[i])
        if best is None or value > best[1]:
            best = (augmented[i], value)
    return full_value, best


def _position(cands, e):
    """The position of ``e`` in the sorted id array ``cands``, or None."""
    pos = int(np.searchsorted(cands, e))
    return pos if pos < cands.size and cands[pos] == e else None


def _augmented(prefix, pick):
    """``prefix`` with ``pick`` added; a prefix element adds nothing."""
    pick = int(pick)
    return prefix if pick in prefix else prefix + (pick,)


def _reach(full_value, chain, best_gains):
    """The rows of ``augment_prefixes`` whose estimate comes within the
    slack of the best: f(order[:i]) = f(order[:i + 1]) - f(order[i] |
    order[:i]), back from the exact f(order), plus the row's best gain."""
    chain = np.array(chain, dtype=np.float64)
    best_gains = np.array(best_gains, dtype=np.float64)
    estimates = full_value - np.append(np.cumsum(chain[::-1])[::-1], 0.0) + best_gains
    magnitude = abs(full_value) + np.abs(chain).sum() + np.abs(best_gains).max()
    slack = BOUND_SLACK * max(1.0, magnitude)
    return np.nonzero(estimates >= estimates.max() - slack)[0].tolist()


def _whole_row_argmax(rows, i, nxt):
    """``(winner position, its gain, gain at nxt or None)`` of row ``i``,
    reading the whole row."""
    gains = rows[i]
    win = int(np.argmax(gains))
    return win, gains[win], None if nxt is None else gains[nxt]


def _lazy_row_argmax(rows, i, cands, bound, nxt):
    """``(winner position, its gain, gain at nxt or None)`` of row ``i`` of
    ``augment_prefixes``, reading only the gains the bounds cannot rule out
    and lowering ``bound`` with every gain read."""
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
    estimator runs first and its oracle traffic is reported separately so
    the solver's own adaptivity stays visible.  Its singleton gains start
    the threshold loop's bounds, and the loop's copies of each side's
    bounds start that side's prefix augmentation, so augmentation computes
    only the gains the sampler has not already ruled out.  The loop's chain
    gains, ``f(order[i] | order[:i])`` as the sampler read them, give
    augmentation's ruled-out rows their one gain, so those rows compute
    nothing.  What is charged is the same either way.
    """
    if config is None:
        config = AstConfig()
    if oracle.n != instance.n:
        raise ValueError("oracle and instance disagree on ground-set size")
    rng = np.random.default_rng(config.seed)
    ledger = oracle.ledger
    start_queries, start_rounds = ledger.snapshot()

    tiny, rest = split_ground(instance, config.epsilon)

    estimate = ESTIMATORS["greedy"](oracle, instance)
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
        estimate.value, instance.budget, epsilon=config.epsilon, delta=config.delta
    )

    x_order, y_order, x_after_first, y_after_second, skipped, bound_copies, chains = (
        threshold_loop(oracle, instance, rest, grid, config, rng, estimate.singleton_gains)
    )
    loop_rounds = ledger.adaptive_rounds

    s1 = None
    s1_value = None
    boost_ground = x_after_first + tiny
    if instance.cost_of(boost_ground) <= config.epsilon * instance.budget:
        samples = math.ceil(1.0 / config.epsilon)
        s1, s1_value = unsub_max(oracle, boost_ground, samples, rng)
    unsub_rounds = ledger.adaptive_rounds

    gains = estimate.singleton_gains
    x_value, x_best = augment_prefixes(
        oracle, instance, x_order, gains, bound_copies[0], chains[0]
    )
    y_value, y_best = augment_prefixes(
        oracle, instance, y_order, gains, bound_copies[1], chains[1]
    )
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
