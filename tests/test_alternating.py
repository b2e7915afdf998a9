from dataclasses import fields

import numpy as np
import pytest

from submodknap import (
    ESTIMATORS,
    AstConfig,
    CountingOracle,
    CutObjective,
    GuessGrid,
    ImageSummaryObjective,
    KnapsackInstance,
    ModularObjective,
    OptEstimate,
    RevenueObjective,
    SumObjective,
    ast,
    augment_prefixes,
    brute_force_opt,
    gen_erdos_renyi,
    revenue_costs,
    similarity_from_features,
    split_ground,
)
from submodknap import alternating
from submodknap.alternating import threshold_loop
from submodknap.estimator import gamma_and_guesses
from submodknap.randbatch import slackened
from conftest import (
    GainsLog,
    benchmark_instance,
    best_singleton_estimate,
    naive_augment_prefixes,
    naive_threshold_loop,
)

# the estimates that seed a grid: density greedy's, and a low one from the
# best feasible singleton
ESTIMATES = {"greedy": ESTIMATORS["greedy"], "singleton": best_singleton_estimate}


class TestSplitGround:
    def test_everything_expensive(self):
        instance = KnapsackInstance(np.array([1.0, 2.0]), 1.0)
        tiny, rest = split_ground(instance, 0.1)
        assert tiny == ()
        assert rest == (0, 1)

    def test_inclusive_cutoff(self):
        instance = KnapsackInstance(np.array([0.05, 0.1, 0.2, 1.0]), 4.0)
        tiny, rest = split_ground(instance, 0.1)  # cutoff 0.1 * 4 / 4 = 0.1
        assert tiny == (0, 1)
        assert rest == (2, 3)

    def test_partition_and_cheapness(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            costs = rng.random(n) + 0.001
            instance = KnapsackInstance(costs, float(rng.random() * 5 + 0.1))
            tiny, rest = split_ground(instance, 0.1)
            assert sorted(tiny + rest) == list(range(n))
            assert not set(tiny) & set(rest)
            # the tiny side as a whole always fits within epsilon * budget
            assert instance.cost_of(tiny) <= 0.1 * instance.budget + 1e-12


class TestAugmentPrefixes:
    # each fact is checked on the naive reference, which records every
    # augmented prefix, and augment_prefixes must return its best one

    def test_empty_order_yields_no_prefixes(self):
        oracle = CountingOracle(ModularObjective([1.0, 2.0]))
        instance = KnapsackInstance(np.ones(2), 1.0)
        full_value, best = augment_prefixes(oracle, instance, ())
        assert (full_value, best) == (0.0, None)
        assert oracle.ledger.adaptive_rounds == 1
        assert naive_augment_prefixes(oracle, instance, ()) == (0.0, [], None)

    def test_budget_saturated_prefix_stays_put(self):
        # the single prefix uses the whole budget, so only its own elements
        # are feasible extensions and the prefix survives unchanged
        oracle = CountingOracle(ModularObjective([5.0, 9.0]))
        instance = KnapsackInstance(np.array([1.0, 1.0]), 1.0)
        _, best = augment_prefixes(oracle, instance, (0,))
        assert best == ((0,), 5.0)
        assert naive_augment_prefixes(oracle, instance, (0,))[1] == [((0,), 5.0)]

    def test_picks_best_feasible_extension(self):
        oracle = CountingOracle(ModularObjective([1.0, 9.0, 4.0]))
        instance = KnapsackInstance(np.ones(3), 2.0)
        _, best = augment_prefixes(oracle, instance, (0,))
        assert best == ((0, 1), 10.0)
        assert naive_augment_prefixes(oracle, instance, (0,))[1] == [((0, 1), 10.0)]

    def test_single_round_regardless_of_prefix_count(self):
        oracle = CountingOracle(ModularObjective(np.arange(1.0, 7.0)))
        instance = KnapsackInstance(np.ones(6), 4.0)
        augment_prefixes(oracle, instance, (0, 1, 2, 3))
        assert oracle.ledger.adaptive_rounds == 1

    def test_values_are_exact_and_charges_unchanged(self):
        # winners picked by gains, values recomputed from scratch: each
        # equals the objective on its set bit for bit, at no extra charge;
        # the winners and the ledger are those of per-candidate evaluation
        graph = gen_erdos_renyi(40, 0.3, seed=5)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.25 * graph.node_costs.sum())
        order = (3, 11, 27, 8, 19)
        naive_oracle = CountingOracle(objective)
        naive_full, augmented, naive_best = naive_augment_prefixes(naive_oracle, instance, order)
        assert [aug for aug, _ in augmented] == [
            (3, 24), (3, 11, 24), (3, 11, 27, 24), (3, 11, 27, 8, 32), (3, 11, 27, 8, 19, 32)
        ]
        for aug, value in augmented:
            assert value == objective(aug)
        oracle = CountingOracle(objective)
        full_value, best = augment_prefixes(oracle, instance, order)
        assert full_value == objective(order) == naive_full
        assert best == naive_best and best[1] == objective(best[0])
        assert oracle.ledger.snapshot() == naive_oracle.ledger.snapshot() == (206, 1)


class _RisingModular(ModularObjective):
    """Modular values whose gains rise by ``rise[u]``, relative, per element
    of the base, as rounding can make a submodular objective's gains rise;
    every rise here stays below ``BOUND_SLACK``.  ``__call__`` is the plain
    sum of values."""

    def __init__(self, values, rise):
        super().__init__(values)
        self.rise = np.asarray(rise, dtype=np.float64)

    def gains(self, inside, candidates):
        cands = np.asarray(candidates, dtype=np.intp)
        return super().gains(inside, cands) * (1.0 + self.rise[cands] * inside.sum())


DIFFERENTIAL_KINDS = ("cut", "revenue", "image_summ", "signed_image_summ", "modular", "sum")


def _differential_case(kind, rng):
    """An objective of ``kind`` with its costs (n = 30 to 40)."""
    graph = gen_erdos_renyi(40, 0.3, seed=int(rng.integers(1000)))
    if kind == "cut":
        return CutObjective(graph), graph.node_costs
    if kind == "revenue":
        return RevenueObjective(graph), revenue_costs(graph)
    costs = 0.1 + rng.random(30)
    if kind == "image_summ":
        return ImageSummaryObjective(similarity_from_features(rng.random((30, 8)))), costs
    if kind == "signed_image_summ":
        return ImageSummaryObjective(similarity_from_features(rng.normal(size=(30, 6)))), costs
    values = rng.normal(1.0, 1.0, size=40)  # some negative
    if kind == "modular":
        return ModularObjective(values), graph.node_costs
    return SumObjective(CutObjective(graph), ModularObjective(values)), graph.node_costs


def _row_reads(log, order):
    """The candidates of each gains call that ``augment_prefixes`` on
    ``order`` made into ``log``, by row (its prefix's length)."""
    reads = [[] for _ in range(len(order) + 1)]
    for base, cands in zip(log.bases, log.candidates):
        assert base == order[: len(base)]
        reads[len(base)].append(cands)
    return reads


def _ruled_out(reads, order):
    """The rows ruled out, from ``_row_reads``: a ruled-out row opens with
    the gain of its next order element alone, and reads more only if it
    comes back into reach.  Any other row opens with two gains, the next
    order element's and its top bound's, or reads whole, or its next order
    element is no candidate."""
    return [i for i in range(1, len(order)) if reads[i][:1] == [(order[i],)]]


def _assert_matches_naive(objective, instance, order, singleton_gains, read_back=False):
    """Returns the naive best and the rows ``augment_prefixes`` ruled out;
    ``read_back`` says whether some of them came back into reach."""
    naive_oracle = CountingOracle(objective)
    naive_full, _, naive_best = naive_augment_prefixes(naive_oracle, instance, order)
    log = GainsLog(objective)
    oracle = CountingOracle(log)
    full_value, best = augment_prefixes(oracle, instance, order, singleton_gains)
    assert full_value.hex() == naive_full.hex()
    if naive_best is None:
        assert best is None
    else:
        assert best[0] == naive_best[0]
        assert best[1].hex() == naive_best[1].hex()
    assert oracle.ledger.snapshot() == naive_oracle.ledger.snapshot()
    order = tuple(int(e) for e in order)
    reads = _row_reads(log, order)
    ruled = _ruled_out(reads, order)
    assert any(len(reads[i]) > 1 for i in ruled) == read_back
    return naive_best, ruled


def _random_order(instance, rng):
    """A random maximal feasible order."""
    order = ()
    for e in rng.permutation(instance.n).tolist():
        if instance.feasible(order + (e,)):
            order += (e,)
    return order


class TestAugmentPrefixesMatchesNaive:
    @pytest.mark.parametrize("estimator", ESTIMATES)
    @pytest.mark.parametrize("kind", DIFFERENTIAL_KINDS)
    def test_solver_and_random_orders(self, monkeypatch, kind, estimator):
        # the solver's own orders, on the estimate's grid, with the
        # estimate's singleton gains, and random feasible orders with those
        # gains and with none; rows are ruled out only with bounds, and then
        # on every kind but image_summ, where a prefix's value plus the
        # largest singleton gain is far above the full order's value
        monkeypatch.setitem(ESTIMATORS, "greedy", ESTIMATES[estimator])
        rng = np.random.default_rng(
            [DIFFERENTIAL_KINDS.index(kind), list(ESTIMATES).index(estimator)]
        )
        ruled = 0
        for budget_fraction in (0.1, 0.3):
            objective, costs = _differential_case(kind, rng)
            instance = KnapsackInstance(costs, budget_fraction * float(np.sort(costs).sum()))
            gains = ESTIMATES[estimator](CountingOracle(objective), instance).singleton_gains
            result = ast(CountingOracle(objective), instance, AstConfig(seed=3))
            for name, order in (("best_x_aug", result.x_order), ("best_y_aug", result.y_order)):
                naive_best, out = _assert_matches_naive(objective, instance, order, gains)
                assert result.candidates.get(name) == naive_best
                ruled += len(out)
            for _ in range(4):
                order = _random_order(instance, rng)
                ruled += len(_assert_matches_naive(objective, instance, order, gains)[1])
                assert _assert_matches_naive(objective, instance, order, None)[1] == []
        if kind == "signed_image_summ":
            assert ruled == 0
        elif kind != "image_summ":
            assert ruled > 0

    @pytest.mark.parametrize("kind", ["cut", "revenue"])
    def test_longer_orders_rule_rows_out(self, kind):
        # n = 120 and budgets up to half the total cost: the solver's orders
        # and random ones run to dozens of elements, and most of their rows
        # are ruled out
        rng = np.random.default_rng(DIFFERENTIAL_KINDS.index(kind))
        for seed, budget_fraction in ((1, 0.3), (2, 0.5)):
            graph = gen_erdos_renyi(120, 0.2, seed=seed)
            if kind == "cut":
                objective, costs = CutObjective(graph), graph.node_costs
            else:
                objective, costs = RevenueObjective(graph), revenue_costs(graph)
            instance = KnapsackInstance(costs, budget_fraction * float(np.sort(costs).sum()))
            gains = ESTIMATORS["greedy"](CountingOracle(objective), instance).singleton_gains
            result = ast(CountingOracle(objective), instance, AstConfig(seed=seed))
            orders = [result.x_order, result.y_order, _random_order(instance, rng)]
            for order in orders:
                assert len(order) >= 10
                _, ruled = _assert_matches_naive(objective, instance, order, gains)
                assert ruled

    def test_element_joining_with_a_negative_gain(self):
        # 1 joins first with singleton gain -5, then 2 with gain -2 past it;
        # every outside gain is negative too, so the best extension of each
        # prefix is one of its own elements (gain 0), found only because a
        # joining element's bound becomes 0
        objective = ModularObjective([-1.0, -5.0, -2.0, -3.0])
        instance = KnapsackInstance(np.ones(4), 4.0)
        gains = best_singleton_estimate(CountingOracle(objective), instance).singleton_gains
        assert gains.tolist() == [-1.0, -5.0, -2.0, -3.0]
        best, _ = _assert_matches_naive(objective, instance, (1, 2), gains)
        assert best == ((1,), -5.0)

    def test_budget_boundary_breaks_the_value_chain(self):
        # (2, 1, 0) is feasible summed in id order (0.3 + 0.2 + 0.1 = 0.6)
        # but not in order (0.1 + 0.2 + 0.3 > 0.6), so 0 is no candidate of
        # the prefix (2, 1) and every augmented prefix's value is computed
        objective = ModularObjective([100.0, 5.0, 5.0])
        instance = KnapsackInstance(np.array([0.3, 0.2, 0.1]), 0.6)
        assert instance.feasible((2, 1, 0)) and 0.1 + 0.2 + 0.3 > 0.6
        gains = best_singleton_estimate(CountingOracle(objective), instance).singleton_gains
        best, _ = _assert_matches_naive(objective, instance, (2, 1, 0), gains)
        assert best == ((2, 1, 0), 110.0)

    def test_rows_around_a_broken_link_keep_their_own_candidates(self):
        # as above, 0 is no candidate of (2, 1), while 3 is; past (2, 1, 0)
        # 3 no longer fits and 0 is a prefix element, so both rows have
        # three candidates but not the same ones, and the full order must
        # not take 3
        objective = ModularObjective([100.0, 5.0, 5.0, 50.0])
        instance = KnapsackInstance(np.array([0.3, 0.2, 0.1, 0.25]), 0.6)
        gains = best_singleton_estimate(CountingOracle(objective), instance).singleton_gains
        best, _ = _assert_matches_naive(objective, instance, (2, 1, 0), gains)
        assert best == ((2, 1, 0), 110.0)

    def test_ties_go_to_the_lowest_id(self):
        # past {0}, 1, 2 and 3 gain 3 each; 3 is read first, as the next
        # order element, but 1 wins
        objective = ModularObjective([1.0, 3.0, 3.0, 3.0])
        instance = KnapsackInstance(np.ones(4), 2.0)
        gains = best_singleton_estimate(CountingOracle(objective), instance).singleton_gains
        best, _ = _assert_matches_naive(objective, instance, (0, 3), gains)
        assert best == ((0, 1), 4.0)

    def test_gain_bounds_keep_their_slack(self):
        # past {0}, 2's gain (2 + 4e-10) tops its bound f({2}) = 2 and the
        # gain of the next order element 3 (2 + 2e-10): only the slack keeps
        # 2 among the elements read
        objective = _RisingModular([1.0, 2.0, 2.0, 2.0], [0.0, 0.0, 2e-10, 1e-10])
        instance = KnapsackInstance(np.ones(4), 2.0)
        gains = best_singleton_estimate(CountingOracle(objective), instance).singleton_gains
        best, _ = _assert_matches_naive(objective, instance, (0, 3), gains)
        assert best == ((0, 2), 3.0)

    def test_value_estimates_keep_their_slack(self):
        # 3's gain past {0, 1} rises to 1 + 2e-10, so the chain puts
        # f({0}) 2e-10 low and the estimate of (0, 2) 1e-10 below that of
        # (0, 1, 3), although (0, 2) is worth 1e-10 more
        objective = _RisingModular([1.0, 1.0, 2.0 + 1e-10, 1.0], [0.0, 0.0, 0.0, 1e-10])
        instance = KnapsackInstance(np.array([1.0, 1.0, 2.0, 1.0]), 3.0)
        gains = best_singleton_estimate(CountingOracle(objective), instance).singleton_gains
        best, _ = _assert_matches_naive(objective, instance, (0, 1, 3), gains)
        assert best[0] == (0, 2) and best[1] > objective((0, 1, 3))

    def test_a_ruled_out_row_back_in_reach_is_read_whole(self):
        # f({0}) as the estimator read it is 1e-6 low, so row 1's forward
        # estimate plus top, (1 - 1e-6) + slackened(f({3})), falls below
        # f(order) = 3 less the margin: row 1 is ruled out.  Its estimate
        # back from f(order), 1 + top, reaches the best after all, so row 1
        # is read whole: (0, 3) ties (0, 1, 2) at 3.0 and wins as the
        # earlier prefix
        objective = ModularObjective([1.0, 1.0, 1.0, 2.0])
        instance = KnapsackInstance(np.array([1.0, 1.0, 1.0, 2.0]), 3.0)
        gains = np.array([1.0 - 1e-6, 1.0, 1.0, 2.0])
        best, ruled = _assert_matches_naive(objective, instance, (0, 1, 2), gains, read_back=True)
        assert best == ((0, 3), 3.0) and ruled == [1]
        log = GainsLog(objective)
        augment_prefixes(CountingOracle(log), instance, (0, 1, 2), gains)
        assert _row_reads(log, (0, 1, 2))[1] == [(1,), (0, 1, 2, 3)]

    def test_the_last_row_is_never_ruled_out(self):
        # f({0}) as read, 0.5, plus top falls far below f(order) = 1, but
        # the last row has no next order element to read and is read as usual
        objective = ModularObjective([1.0, 0.5])
        instance = KnapsackInstance(np.ones(2), 1.0)
        best, _ = _assert_matches_naive(objective, instance, (0,), np.array([0.5, 0.5]))
        assert best == ((0,), 1.0)


@pytest.mark.parametrize("objective, n, p", [("cut", 200, 0.2), ("image_summ", 500, 0.0)])
def test_benchmark_augmentation_reads_few_argmaxes(objective, n, p):
    # the two benchmark instances: on cut-er200 the argmax of at most one
    # row in ten is read, and every other row reads one gain, its next
    # order element's; on imsum-500 a prefix's value plus the largest
    # singleton gain is far above the full order's value, and no row is
    # ruled out
    built, instance = benchmark_instance(objective, n, p)
    gains = ESTIMATORS["greedy"](CountingOracle(built), instance).singleton_gains
    for seed in (0, 1):
        result = ast(CountingOracle(built), instance, AstConfig(seed=seed))
        rows = ruled = 0
        for order in (result.x_order, result.y_order):
            log = GainsLog(built)
            augment_prefixes(CountingOracle(log), instance, order, gains)
            reads = _row_reads(log, order)
            out = _ruled_out(reads, order)
            assert all(len(reads[i]) == 1 for i in out)
            rows += len(order)
            ruled += len(out)
        if objective == "cut":
            assert rows - ruled <= 0.1 * rows
        else:
            assert ruled == 0


class TestConfigValidation:
    def test_benchmark_defaults(self):
        config = AstConfig()
        assert [f.name for f in fields(AstConfig)] == ["epsilon", "delta", "seed"]
        assert config.epsilon == 0.1
        assert config.delta == 0.12

    def test_ranges(self):
        with pytest.raises(ValueError):
            AstConfig(epsilon=0.2)
        with pytest.raises(ValueError):
            AstConfig(delta=0.2)
        # 1 - epsilon rounds to 1: the grid's ratio of logs would divide by 0
        for epsilon in (1e-17, 2.0**-54):
            with pytest.raises(ValueError, match="too small"):
                AstConfig(epsilon=epsilon)
        assert AstConfig(epsilon=2.0**-53).epsilon == 2.0**-53


class TestThresholdLoop:
    @pytest.mark.parametrize("kind", ["cut", "signed_image_summ"])
    def test_list_tuple_and_array_pools_give_the_same_run(self, kind):
        objective, costs = _differential_case(kind, np.random.default_rng(4))
        instance = KnapsackInstance(costs, 0.3 * float(costs.sum()))
        config = AstConfig(seed=2)
        estimate = ESTIMATORS["greedy"](CountingOracle(objective), instance)
        grid = gamma_and_guesses(
            estimate.value, instance.budget, epsilon=config.epsilon, delta=config.delta
        )
        _, rest = split_ground(instance, config.epsilon)
        pools = [
            list(rest), tuple(rest), np.array(rest, dtype=np.intp), np.array(rest, dtype=np.int32)
        ]
        runs = []
        for pool in pools:
            kept = np.array(pool, copy=True)
            oracle = CountingOracle(objective)
            out = threshold_loop(
                oracle, instance, pool, grid, config, np.random.default_rng(config.seed),
                estimate.singleton_gains,
            )
            assert np.array_equal(np.asarray(pool), kept)  # the caller's pool is left alone
            # ids stay Python ints, so the sweeps' bases are the oracle's own keys
            assert all(type(e) is int for e in out[0] + out[1])
            runs.append((out, oracle.ledger.snapshot()))
        assert all(run == runs[0] for run in runs)
        assert runs[0][0][0] and runs[0][0][1]


def _record_calls(patch):
    """Wrap ``alternating.rand_batch`` through the monkeypatch ``patch``;
    the returned list gets ``(threshold, queried, pool size)`` for every
    call."""
    calls = []
    real = alternating.rand_batch

    def recording(oracle, pool, params, *args, **kwargs):
        rounds = oracle.ledger.adaptive_rounds
        out = real(oracle, pool, params, *args, **kwargs)
        calls.append((params.threshold, oracle.ledger.adaptive_rounds > rounds, len(pool)))
        return out

    patch.setattr(alternating, "rand_batch", recording)
    return calls


def _step_calls(calls, grid, epsilon):
    """Each grid step's call from ``_record_calls``: True when it queried,
    False when it did not, None for no call."""
    step_of = {grid.gamma * (1.0 - epsilon) ** i: i for i in range(1, grid.num_thresholds + 1)}
    steps = [None] * (grid.num_thresholds + 1)
    for threshold, queried, _ in calls:
        steps[step_of[threshold]] = queried
    return steps


def _assert_empty_calls_follow_a_shrink(calls, grid, epsilon):
    """Between two consecutive calls of one side, from ``_record_calls``,
    that both query nothing, the pool has shrunk: over the same pool the
    first call's ceiling would have skipped the second."""
    step_of = {grid.gamma * (1.0 - epsilon) ** i: i for i in range(1, grid.num_thresholds + 1)}
    last = {}  # side -> (queried, pool size) of its latest call
    for threshold, queried, size in calls:
        side = step_of[threshold] % 2
        if not queried and side in last and not last[side][0]:
            assert size < last[side][1]
        last[side] = (queried, size)


class TestThresholdLoopMatchesCallingEveryStep:
    """``threshold_loop`` skips the steps under a side's ceiling without
    calling ``rand_batch``; ``naive_threshold_loop`` calls it at every step.
    Orders, snapshots, skipped steps, charges and the generator's state
    afterwards must all be the same, and a side calls for nothing twice in
    a row only over a pool that shrank in between."""

    @staticmethod
    def _assert_matches(monkeypatch, objective, instance, pool, grid, config, gains):
        """Both loops on fresh oracles and generators; returns the steps'
        calls, as ``_step_calls`` gives them."""
        runs = []
        for loop in (naive_threshold_loop, threshold_loop):
            with monkeypatch.context() as patch:
                calls = _record_calls(patch)
                oracle, rng = CountingOracle(objective), np.random.default_rng(config.seed)
                out = loop(oracle, instance, pool, grid, config, rng, gains)
            runs.append((out, oracle.ledger.snapshot(), rng.bit_generator.state))
        assert runs[1] == runs[0]
        _assert_empty_calls_follow_a_shrink(calls, grid, config.epsilon)
        return _step_calls(calls, grid, config.epsilon)

    @pytest.mark.parametrize("estimator", ESTIMATES)
    @pytest.mark.parametrize(
        "kind", ["cut", "revenue", "modular", "sum", "image_summ", "signed_image_summ"]
    )
    def test_generated_instances(self, monkeypatch, kind, estimator):
        rng = np.random.default_rng(17)
        uncalled = 0
        for fraction in (0.1, 0.3, 0.6):
            objective, costs = _differential_case(kind, rng)
            instance = KnapsackInstance(costs, fraction * float(np.sort(costs).sum()))
            estimate = ESTIMATES[estimator](CountingOracle(objective), instance)
            grid = gamma_and_guesses(estimate.value, instance.budget)
            _, rest = split_ground(instance, AstConfig().epsilon)
            for seed in (0, 1):
                config = AstConfig(seed=seed)
                for gains in (estimate.singleton_gains, None):
                    steps = self._assert_matches(
                        monkeypatch, objective, instance, rest, grid, config, gains
                    )
                    uncalled += steps[1:].count(None)
        # with no bounds, only a side that has nothing left that fits skips
        if kind != "signed_image_summ":
            assert uncalled > 0

    @staticmethod
    def _modular_case(values):
        """Unit costs and a budget that fits everything; the grid starts at
        10 and falls by 0.9 a step."""
        values = np.asarray(values, dtype=np.float64)
        instance = KnapsackInstance(np.ones(values.size), float(values.size))
        return ModularObjective(values), instance, GuessGrid(10.0, 12, 50), AstConfig()

    def test_a_ceiling_equal_to_the_threshold_calls(self, monkeypatch):
        # element 0's bound, slackened, is exactly step 3's threshold, so X
        # skips step 1 with a call and must call (and query) at step 3
        theta_3 = 10.0 * (1.0 - AstConfig().epsilon) ** 3
        bound = theta_3 / (1.0 + 1e-9)
        for _ in range(64):  # step by ulps until the slackened bound lands on it
            raised = slackened(np.array([bound]))[0]
            if raised == theta_3:
                break
            bound = float(np.nextafter(bound, np.inf if raised < theta_3 else 0.0))
        assert raised == theta_3
        # element 0's gain is its bound, whose density falls just short of
        # theta_3: the query finds it, and nothing is taken at step 3
        objective, instance, grid, config = self._modular_case([bound, 1.0, 0.5])
        gains = np.array([bound, 1.0, 0.5])
        steps = self._assert_matches(monkeypatch, objective, instance, [0, 1, 2], grid, config, gains)
        assert steps[1] is False and steps[3] is True

    def test_a_pool_the_other_side_shrinks(self, monkeypatch):
        # X's call at step 1 finds nothing, with a ceiling of 8.5, element
        # 0's density, above step 3's threshold; Y takes element 0 at step
        # 2, so X's call at step 3 finds nothing again, with the ceiling of
        # the pool left (5.0), and step 5 skips without a call; X queries
        # at step 7 (threshold 4.78)
        objective, instance, grid, config = self._modular_case([8.5, 5.0, 0.5])
        gains = np.array([8.5, 5.0, 0.5])
        steps = self._assert_matches(monkeypatch, objective, instance, [0, 1, 2], grid, config, gains)
        assert steps[1:8] == [False, True, False, False, None, None, True]

    def test_an_empty_pool(self, monkeypatch):
        objective, instance, grid, config = self._modular_case([8.5, 5.0, 0.5])
        steps = self._assert_matches(monkeypatch, objective, instance, [], grid, config, None)
        # one call per side, whose ceiling (no element fits) skips the rest
        assert steps[1:3] == [False, False] and steps[3:].count(None) == grid.num_thresholds - 2


@pytest.mark.parametrize("objective, n, p", [("cut", 200, 0.2), ("image_summ", 500, 0.0)])
def test_benchmark_empty_calls_follow_a_shrink(monkeypatch, objective, n, p):
    """On both benchmark instances, two consecutive calls of one side that
    query nothing have a pool shrink between them, and the skipped steps
    are those of a loop that calls at every step."""
    built, instance = benchmark_instance(objective, n, p)
    for seed in (0, 1):
        config = AstConfig(seed=seed)
        with monkeypatch.context() as patch:
            calls = _record_calls(patch)
            result = ast(CountingOracle(built), instance, config)
        with monkeypatch.context() as patch:
            patch.setattr(alternating, "threshold_loop", naive_threshold_loop)
            reference = ast(CountingOracle(built), instance, config)
        assert result == reference
        grid = GuessGrid(result.gamma, result.num_thresholds, result.accept_cap)
        _assert_empty_calls_follow_a_shrink(calls, grid, config.epsilon)
        steps = _step_calls(calls, grid, config.epsilon)
        if objective == "cut":  # stale bounds keep every image_summ step live
            assert None in steps[1:]


def run_small(objective, instance, seed=0):
    oracle = CountingOracle(objective)
    result = ast(oracle, instance, AstConfig(seed=seed))
    return oracle, result


class TestEndToEnd:
    def test_tiny_modular_recovers_optimum(self, unit_instance_3):
        objective = ModularObjective([3.0, 2.0, 1.0])
        _, opt = brute_force_opt(objective, unit_instance_3)
        oracle, result = run_small(objective, unit_instance_3)
        assert unit_instance_3.feasible(result.solution)
        assert result.value >= (1.0 / 7.0 - 0.1) * opt
        assert result.value == 5.0

    def test_nothing_affordable(self):
        objective = ModularObjective([3.0, 2.0])
        instance = KnapsackInstance(np.array([5.0, 6.0]), 1.0)
        _, result = run_small(objective, instance)
        assert result.solution == ()
        assert result.value == 0.0

    def test_zero_function_trivial_path(self):
        objective = ModularObjective([0.0, 0.0, 0.0])
        instance = KnapsackInstance(np.ones(3), 2.0)
        oracle, result = run_small(objective, instance)
        assert result.solution == ()
        assert result.value == 0.0
        assert result.compared_candidates == 1
        # the estimator's singleton round already proves the empty set optimal
        assert result.ast_rounds == 0 and result.ast_queries == 0
        assert oracle.ledger.snapshot() == (result.estimator_queries, result.estimator_rounds)

    def test_deterministic_given_seed(self):
        graph = gen_erdos_renyi(20, 0.4, seed=1)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        oracle_a, a = run_small(objective, instance, seed=7)
        oracle_b, b = run_small(objective, instance, seed=7)
        assert a.solution == b.solution
        assert a.value == b.value
        assert a.x_order == b.x_order and a.y_order == b.y_order
        assert oracle_a.ledger.snapshot() == oracle_b.ledger.snapshot()

    def test_structural_invariants_across_seeds(self):
        graph = gen_erdos_renyi(18, 0.4, seed=2)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
        for seed in range(8):
            oracle, result = run_small(objective, instance, seed=seed)
            assert instance.feasible(result.solution)
            assert not set(result.x_order) & set(result.y_order)
            # the reported value is the oracle's own number for the solution
            assert result.value == objective(np.asarray(result.solution, dtype=np.intp))
            # argmax over the recorded candidates (excluding the estimate)
            compared = [v for k, (_, v) in result.candidates.items() if k != "S0"]
            assert result.value == max(compared)
            assert result.boost_rounds == 2
            expected = len(result.x_order) + len(result.y_order) + 2 + (
                1 if "S1" in result.candidates else 0
            )
            assert result.compared_candidates == expected
            assert result.ast_rounds == (
                result.main_loop_rounds + result.unsubmax_rounds + result.boost_rounds
            )

    def test_prefix_snapshots_are_prefixes(self):
        graph = gen_erdos_renyi(16, 0.5, seed=3)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
        _, result = run_small(objective, instance, seed=4)
        assert result.x_order[: len(result.x_after_first)] == result.x_after_first
        assert result.y_order[: len(result.y_after_second)] == result.y_after_second

    def test_candidates_are_feasible(self):
        graph = gen_erdos_renyi(15, 0.5, seed=5)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.3 * float(graph.node_costs.sum()))
        _, result = run_small(objective, instance, seed=6)
        for name, (ids, _) in result.candidates.items():
            assert instance.feasible(ids), name

    def test_modular_absorbs_everything_in_first_step(self, monkeypatch):
        # uniform density 4 with a singleton estimate of 4 puts the top of
        # the threshold grid at 8a*4*(1-eps)/((1-8d)*eps*B) ~ 3.99, just
        # under every density, so the first step takes the whole pool and the
        # second candidate never sees an element
        monkeypatch.setitem(ESTIMATORS, "greedy", best_singleton_estimate)
        values = np.full(30, 4.0)
        objective = ModularObjective(values)
        instance = KnapsackInstance(np.ones(30), 258.0)
        _, result = run_small(objective, instance, seed=8)
        assert sorted(result.x_after_first) == list(range(30))
        assert result.y_order == ()
        assert result.value == 120.0

    def test_estimator_rounds_reported_separately(self):
        graph = gen_erdos_renyi(14, 0.5, seed=9)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        oracle, result = run_small(objective, instance, seed=10)
        assert (
            result.estimator_rounds + result.ast_rounds
            == oracle.ledger.adaptive_rounds
        )
        assert (
            result.estimator_queries + result.ast_queries
            == oracle.ledger.total_queries
        )

    def test_estimate_without_singleton_gains(self, monkeypatch):
        # an estimator that leaves singleton_gains unset starts the bounds at
        # +inf: the first step of each side then queries its whole pool,
        # and the outputs stay the same
        def no_gains(oracle, instance):
            estimate = ESTIMATES["greedy"](oracle, instance)
            return OptEstimate(estimate.solution, estimate.value)

        graph = gen_erdos_renyi(20, 0.4, seed=11)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.3 * float(graph.node_costs.sum()))
        oracle, result = run_small(objective, instance, seed=12)
        monkeypatch.setitem(ESTIMATORS, "greedy", no_gains)
        bare_oracle, bare = run_small(objective, instance, seed=12)
        assert (bare.solution, bare.x_order, bare.y_order, bare.value) == (
            result.solution, result.x_order, result.y_order, result.value
        )
        assert bare_oracle.ledger.total_queries > oracle.ledger.total_queries
        assert bare.skipped_steps <= result.skipped_steps

    def test_mismatched_oracle_rejected(self):
        oracle = CountingOracle(ModularObjective([1.0, 2.0]))
        instance = KnapsackInstance(np.ones(3), 2.0)
        with pytest.raises(ValueError, match="ground-set size"):
            ast(oracle, instance, AstConfig())
