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

import numpy as np

from .core import as_id_array
from .estimator import ESTIMATORS, estimate_best_singleton, gamma_and_guesses
from .randbatch import RandBatchParams, rand_batch
from .unconstrained import unsub_max


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
        if not 0.0 < self.epsilon < 1.0 / 7.0:
            raise ValueError("epsilon must lie in (0, 1/7)")
        if not 0.0 < self.delta < 1.0 / 8.0:
            raise ValueError("delta must lie in (0, 1/8)")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator: {self.estimator!r}")


@dataclass
class AstResult:
    """Final solution plus every candidate and complexity counter.

    ``candidates`` maps names (X, Y, S0, best_x_aug, best_y_aug, and S1 when
    the cheap-ground condition held) to ``(ids, value)`` pairs.  Round and
    query counters split the estimator phase from the algorithm proper;
    ``ast_rounds`` = main loop + unconstrained boost + prefix augmentation.
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
    unsubmax_rounds: int = 0
    boost_rounds: int = 0


def split_ground(instance, epsilon):
    """Split elements into tiny-cost ones (at most ``epsilon * B / n``) and
    the rest.  The tiny side as a whole always fits inside ``epsilon * B``."""
    cutoff = epsilon * instance.budget / instance.n
    tiny = tuple(np.nonzero(instance.costs <= cutoff)[0].tolist())
    rest = tuple(np.nonzero(instance.costs > cutoff)[0].tolist())
    return tiny, rest


def threshold_loop(oracle, instance, pool, grid, config, rng):
    """Grow the two disjoint candidates over the falling threshold grid.

    Odd steps extend the first candidate, even steps the second; after each
    step the freshly taken elements leave the shared pool.  Returns both
    selection orders plus snapshots of the first candidate after step one and
    the second after step two.
    """
    xs, ys = [], []
    pool = [int(e) for e in pool]
    x_after_first = ()
    y_after_second = ()
    for i in range(1, grid.num_thresholds + 1):
        theta = grid.gamma * (1.0 - config.epsilon) ** i
        params = RandBatchParams(
            threshold=theta, accept_cap=grid.accept_cap, epsilon=config.epsilon
        )
        order = xs if i % 2 == 1 else ys
        out = rand_batch(oracle, pool, params, instance, rng, base=tuple(order))
        order.extend(out.accepted)
        taken = set(out.accepted)
        pool = [e for e in pool if e not in taken]
        if i == 1:
            x_after_first = tuple(xs)
        elif i == 2:
            y_after_second = tuple(ys)
    return tuple(xs), tuple(ys), x_after_first, y_after_second


def augment_prefixes(oracle, instance, order):
    """Try every prefix of ``order`` with its best feasible extra element.

    All prefix extensions plus the full set itself are evaluated in one
    adaptive round.  For each prefix the winning element is the feasible one
    (anywhere in the ground set, including inside the prefix, where it adds
    nothing) with the highest resulting value, ties to the lowest id.

    Returns ``(value_of_full_set, [(augmented_ids, value), ...])``.
    """
    order = tuple(int(e) for e in as_id_array(order).tolist())
    costs = instance.costs
    budget = instance.budget
    groups = [(order, ())]
    cand_lists = []
    in_prefix = np.zeros(instance.n, dtype=bool)
    prefix_cost = 0.0
    for i, e in enumerate(order, start=1):
        in_prefix[e] = True
        prefix_cost += costs[e]
        fits = np.nonzero((costs + prefix_cost <= budget) | in_prefix)[0]
        groups.append((order[:i], fits))
        cand_lists.append(fits)
    results = oracle.evaluate_extensions(groups)
    full_value = results[0][0]

    augmented = []
    members = set()
    for i in range(1, len(results)):
        base_value, ext = results[i]
        prefix = order[: i]
        members.add(prefix[-1])
        cands = cand_lists[i - 1]
        if ext.size:
            j = int(np.argmax(ext))
            pick = int(cands[j])
            aug = prefix if pick in members else prefix + (pick,)
            augmented.append((aug, float(ext[j])))
        else:
            augmented.append((prefix, base_value))
    return full_value, augmented


def _pick_first_max(entries):
    """First (ids, value) pair attaining the maximum value."""
    best = entries[0]
    for entry in entries[1:]:
        if entry[1] > best[1]:
            best = entry
    return best


def _trivial_result(oracle, instance, estimate):
    """Fallback when the estimator finds nothing of positive value: return
    the best feasible singleton, or the empty set if none has positive value."""
    single = estimate_best_singleton(oracle, instance)
    return AstResult(
        solution=single.solution,
        value=float(single.value),
        candidates={"S0": (estimate.solution, estimate.value)},
        x_order=(),
        y_order=(),
        x_after_first=(),
        y_after_second=(),
        compared_candidates=1,
    )


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

    estimate = ESTIMATORS[config.estimator](oracle, instance, delta=config.delta)
    est_queries, est_rounds = ledger.snapshot()
    estimator_queries = est_queries - start_queries
    estimator_rounds = est_rounds - start_rounds

    if estimate.value <= 0.0:
        result = _trivial_result(oracle, instance, estimate)
        end_queries, end_rounds = ledger.snapshot()
        result.estimator_queries = estimator_queries
        result.estimator_rounds = estimator_rounds
        result.ast_queries = end_queries - est_queries
        result.ast_rounds = end_rounds - est_rounds
        return result

    grid = gamma_and_guesses(
        estimate.value,
        instance.budget,
        alpha=config.alpha,
        epsilon=config.epsilon,
        delta=config.delta,
    )

    x_order, y_order, x_after_first, y_after_second = threshold_loop(
        oracle, instance, rest, grid, config, rng
    )
    loop_queries, loop_rounds = ledger.snapshot()

    s1 = None
    s1_value = None
    boost_ground = x_after_first + tiny
    if instance.cost_of(boost_ground) <= config.epsilon * instance.budget:
        samples = math.ceil(1.0 / config.epsilon)
        s1, s1_value = unsub_max(oracle, boost_ground, samples, rng)
    unsub_queries, unsub_rounds = ledger.snapshot()

    x_value, x_augs = augment_prefixes(oracle, instance, x_order)
    y_value, y_augs = augment_prefixes(oracle, instance, y_order)
    end_queries, end_rounds = ledger.snapshot()

    ordered = (
        list(x_augs)
        + list(y_augs)
        + [(x_order, x_value), (y_order, y_value)]
    )
    if s1 is not None:
        ordered.append((s1, s1_value))
    solution, value = _pick_first_max(ordered)

    candidates = {
        "X": (x_order, x_value),
        "Y": (y_order, y_value),
        "S0": (estimate.solution, estimate.value),
    }
    if x_augs:
        candidates["best_x_aug"] = _pick_first_max(x_augs)
    if y_augs:
        candidates["best_y_aug"] = _pick_first_max(y_augs)
    if s1 is not None:
        candidates["S1"] = (s1, s1_value)

    return AstResult(
        solution=tuple(solution),
        value=float(value),
        candidates=candidates,
        x_order=x_order,
        y_order=y_order,
        x_after_first=x_after_first,
        y_after_second=y_after_second,
        compared_candidates=len(ordered),
        gamma=grid.gamma,
        num_thresholds=grid.num_thresholds,
        accept_cap=grid.accept_cap,
        estimator_queries=estimator_queries,
        estimator_rounds=estimator_rounds,
        ast_queries=end_queries - est_queries,
        ast_rounds=end_rounds - est_rounds,
        main_loop_rounds=loop_rounds - est_rounds,
        unsubmax_rounds=unsub_rounds - loop_rounds,
        boost_rounds=end_rounds - unsub_rounds,
    )
