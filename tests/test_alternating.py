from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from submodknap import alternating, estimator
from submodknap.alternating import threshold_loop
from submodknap.core import PrefixRound
from submodknap.estimator import gamma_and_guesses
from submodknap.randbatch import slackened
from conftest import (
    GainsLog,
    benchmark_instance,
    best_singleton_estimate,
    naive_augment_prefixes,
    naive_threshold_loop,
    state_of,
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

    @pytest.mark.parametrize("bad", [3, -1])
    def test_ids_outside_the_ground_set_are_rejected_before_any_charge(self, bad):
        # checked before the prefix mask is indexed, where -1 would wrap to n - 1
        oracle = CountingOracle(ModularObjective([1.0, 2.0, 4.0]))
        instance = KnapsackInstance(np.ones(3), 2.0)
        with pytest.raises(ValueError, match="range"):
            augment_prefixes(oracle, instance, (0, bad))
        assert oracle.ledger.snapshot() == (0, 0)

    def test_the_round_is_one_prefix_round(self, monkeypatch):
        # row 0 is the empty base alone and row L the whole order, so
        # f(order) is charged before it is read
        issued = []
        evaluate = CountingOracle.evaluate_extensions

        def recording(self, groups):
            issued.append(groups)
            return evaluate(self, groups)

        monkeypatch.setattr(CountingOracle, "evaluate_extensions", recording)
        oracle = CountingOracle(ModularObjective(np.arange(1.0, 7.0)))
        augment_prefixes(oracle, KnapsackInstance(np.ones(6), 4.0), (4, 1, 2))
        (groups,) = issued
        assert isinstance(groups, PrefixRound)
        assert groups.base == () and groups.seq == (4, 1, 2)
        assert len(groups.candidates[0]) == 0
        assert oracle.ledger.snapshot() == (sum(len(c) + 1 for c in groups.candidates), 1)

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


class _RecordingOracle(CountingOracle):
    """A counting oracle that keeps the last round it was handed."""

    def evaluate_extensions(self, groups):
        self.issued = groups
        return super().evaluate_extensions(groups)


# costs that tie, and whose sums land on a budget or round past it
_ROW_COSTS = st.sampled_from([0.1, 0.2, 0.3, 0.25, 0.5, 1.0, 1.0 / 3.0, 0.7])


def _assert_carried_rows(costs, budget, order):
    """Every prefix's row of ``augment_prefixes`` on ``order``, carried from
    the row before or filtered down, is the elements that fit beside the
    prefix, plus the prefix; two consecutive rows are one array exactly
    when they are equal.  Returns the rows."""
    n = len(costs)
    instance = KnapsackInstance(np.array(costs), budget)
    oracle = _RecordingOracle(ModularObjective(np.arange(1.0, n + 1.0)))
    augment_prefixes(oracle, instance, order)
    rows = oracle.issued.candidates
    assert len(rows) == len(order) + 1 and rows[0].size == 0
    in_prefix = np.zeros(n, dtype=bool)
    prefix_cost = 0.0
    for i, e in enumerate(order, start=1):
        in_prefix[e] = True
        prefix_cost += costs[e]
        expected = np.nonzero((instance.costs + prefix_cost <= budget) | in_prefix)[0]
        assert np.array_equal(rows[i], expected)
        if i > 1:
            assert (rows[i] is rows[i - 1]) == np.array_equal(rows[i], rows[i - 1])
    return rows


@settings(max_examples=300, deadline=None)
@given(data=st.data(), costs=st.lists(_ROW_COSTS, min_size=1, max_size=10))
def test_carried_rows_are_the_fitting_elements(data, costs):
    # tied costs, and budgets that some costs sum to exactly, in order or
    # not, so that sums land on the budget or round just past it
    n = len(costs)
    order = tuple(data.draw(st.permutations(range(n))))[: data.draw(st.integers(0, n))]
    subset = data.draw(st.lists(st.sampled_from(costs), min_size=1, max_size=n))
    budget = data.draw(st.sampled_from([sum(subset), sum(sorted(subset)), 2.5 * max(costs)]))
    _assert_carried_rows(costs, budget, order)


def test_a_row_after_a_broken_link_is_rebuilt():
    # 0.1 + 0.2 + 0.3 rounds past 0.6: 0 stops fitting beside (2, 1) by
    # rounding, so the row of (2, 1, 0) cannot be carried and is built from
    # the whole ground set; 3 fits beside (2, 1) but not beside (2, 1, 0)
    rows = _assert_carried_rows([0.3, 0.2, 0.1, 0.25], 0.6, (2, 1, 0, 3))
    assert rows[2].tolist() == [1, 2, 3] and rows[3].tolist() == [0, 1, 2]


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


def _exact_chain(objective, order):
    """``f(order[i] | order[:i])`` for every ``i``, each from its own
    ``gains`` call on a state built as the oracle builds it."""
    return [
        objective.gains(state_of(objective, order[:i]), np.array([e]))[0]
        for i, e in enumerate(order)
    ]


def _assert_matches_naive(
    objective, instance, order, singleton_gains, read_back=False, loop_bounds=(),
    chain_gains=None,
):
    """Returns the naive best and the rows ``augment_prefixes`` ruled out;
    ``read_back`` says whether some of them came back into reach.  With
    ``chain_gains`` the function runs once more with them: the same bits
    and charges, and the same reads less each ruled-out row's read of its
    next order element's gain."""
    naive_oracle = CountingOracle(objective)
    naive_full, _, naive_best = naive_augment_prefixes(naive_oracle, instance, order)
    order = tuple(int(e) for e in order)
    runs = []
    for chain in (None,) if chain_gains is None else (None, chain_gains):
        log = GainsLog(objective)
        oracle = CountingOracle(log)
        full_value, best = augment_prefixes(
            oracle, instance, order, singleton_gains, loop_bounds, chain
        )
        assert full_value.hex() == naive_full.hex()
        if naive_best is None:
            assert best is None
        else:
            assert best[0] == naive_best[0]
            assert best[1].hex() == naive_best[1].hex()
        assert oracle.ledger.snapshot() == naive_oracle.ledger.snapshot()
        runs.append(_row_reads(log, order))
    reads = runs[0]
    ruled = _ruled_out(reads, order)
    assert any(len(reads[i]) > 1 for i in ruled) == read_back
    if chain_gains is not None:
        assert runs[1] == [r[1:] if i in ruled else r for i, r in enumerate(reads)]
    return naive_best, ruled


def _record_loops(patch):
    """Wrap ``alternating.threshold_loop`` through the monkeypatch
    ``patch``; the returned list gets every call's return."""
    returns = []
    real = alternating.threshold_loop

    def recording(*args):
        out = real(*args)
        returns.append(out)
        return out

    patch.setattr(alternating, "threshold_loop", recording)
    return returns


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
        # estimate's singleton gains, alone and with the threshold loop's
        # copies of each order's bounds, and random feasible orders with
        # those gains and with none; rows are ruled out only with bounds,
        # and then on every kind but image_summ, where a prefix's value plus
        # the largest singleton gain is far above the full order's value
        monkeypatch.setitem(ESTIMATORS, "greedy", ESTIMATES[estimator])
        loops = _record_loops(monkeypatch)
        rng = np.random.default_rng(
            [DIFFERENTIAL_KINDS.index(kind), list(ESTIMATES).index(estimator)]
        )
        ruled = 0
        for budget_fraction in (0.1, 0.3):
            objective, costs = _differential_case(kind, rng)
            instance = KnapsackInstance(costs, budget_fraction * float(np.sort(costs).sum()))
            gains = ESTIMATES[estimator](CountingOracle(objective), instance).singleton_gains
            result = ast(CountingOracle(objective), instance, AstConfig(seed=3))
            names = ("best_x_aug", "best_y_aug")
            orders = (result.x_order, result.y_order)
            for name, order, copies, chain in zip(names, orders, loops[-1][5], loops[-1][6]):
                naive_best, out = _assert_matches_naive(
                    objective, instance, order, gains, chain_gains=chain
                )
                assert result.candidates.get(name) == naive_best
                ruled += len(out)
                assert _assert_matches_naive(
                    objective, instance, order, gains, loop_bounds=copies, chain_gains=chain
                ) == (naive_best, out)
            for _ in range(4):
                order = _random_order(instance, rng)
                chain = _exact_chain(objective, order)
                ruled += len(
                    _assert_matches_naive(objective, instance, order, gains, chain_gains=chain)[1]
                )
                assert _assert_matches_naive(objective, instance, order, None)[1] == []
        if kind == "signed_image_summ":
            assert ruled == 0
        elif kind != "image_summ":
            assert ruled > 0

    @pytest.mark.parametrize("kind", ["cut", "revenue"])
    def test_longer_orders_rule_rows_out(self, monkeypatch, kind):
        # n = 120 and budgets up to half the total cost: the solver's orders
        # and random ones run to dozens of elements, and most of their rows
        # are ruled out; with the chain gains, the threshold loop's for the
        # solver's orders, those rows read nothing
        loops = _record_loops(monkeypatch)
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
            chains = [*loops[-1][6], _exact_chain(objective, orders[2])]
            for order, chain in zip(orders, chains):
                assert len(order) >= 10
                _, ruled = _assert_matches_naive(
                    objective, instance, order, gains, chain_gains=chain
                )
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

    def test_a_bound_copy_leaves_the_joining_element_at_zero(self):
        # a copy bounds the gains of elements outside each later prefix
        # only; its -10 for element 1, which joins at row 1, must not hide
        # 1's gain of 0 there, the best of row 1, where 0 gains -1
        objective = ModularObjective([-1.0, -5.0, -2.0, -3.0])
        instance = KnapsackInstance(np.ones(4), 4.0)
        gains = np.array([-1.0, -5.0, -2.0, -3.0])
        copies = [(1, np.array([-1.0, -10.0, -2.0, -3.0]))]
        best, _ = _assert_matches_naive(objective, instance, (1, 2), gains, loop_bounds=copies)
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
        chain = _exact_chain(objective, (0, 1, 2))
        best, ruled = _assert_matches_naive(
            objective, instance, (0, 1, 2), gains, read_back=True, chain_gains=chain
        )
        assert best == ((0, 3), 3.0) and ruled == [1]
        log = GainsLog(objective)
        augment_prefixes(CountingOracle(log), instance, (0, 1, 2), gains)
        assert _row_reads(log, (0, 1, 2))[1] == [(1,), (0, 1, 2, 3)]
        log = GainsLog(objective)
        augment_prefixes(CountingOracle(log), instance, (0, 1, 2), gains, (), chain)
        assert _row_reads(log, (0, 1, 2))[1] == [(0, 1, 2, 3)]

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


def _phase_reads(patch, objective, instance, seed):
    """``{phase: (gains computed, candidates charged, gains calls)}`` of
    density greedy and of prefix augmentation (both orders together) in one
    ``ast`` solve with solver seed ``seed``; each group's base query is left
    out of the charged candidates."""
    log = GainsLog(objective)
    reads = {}

    def counting(phase, fn, bases):
        def wrapped(oracle, *args):
            calls, (queries, rounds) = len(log.candidates), oracle.ledger.snapshot()
            out = fn(oracle, *args)
            computed = sum(map(len, log.candidates[calls:]))
            charged = oracle.ledger.total_queries - queries
            charged -= bases(args, oracle.ledger.adaptive_rounds - rounds)
            old = reads.get(phase, (0, 0, 0))
            made = len(log.candidates) - calls
            reads[phase] = (old[0] + computed, old[1] + charged, old[2] + made)
            return out

        return wrapped

    # a greedy round has one base; augmentation has the full order and
    # each of its prefixes
    greedy = counting("greedy", estimator.density_greedy_trace, lambda args, rounds: rounds)
    augment = counting("augment", alternating.augment_prefixes, lambda args, _: len(args[1]) + 1)
    patch.setattr(estimator, "density_greedy_trace", greedy)
    patch.setattr(alternating, "augment_prefixes", augment)
    ast(CountingOracle(log), instance, AstConfig(seed=seed))
    return reads


@pytest.mark.parametrize(
    "objective, n, p, greedy_cap, augment_cap",
    [("cut", 200, 0.2, 600, 300), ("image_summ", 500, 0.0, 1800, 1800)],
)
def test_benchmark_phases_read_few_gains(monkeypatch, objective, n, p, greedy_cap, augment_cap):
    # greedy computes 506 of the 9,594 gains it is charged for on
    # cut-er200 (9,588 when it skipped only the elements whose gain was
    # non-positive), and 1,738 of 6,422 on imsum-500 (3,026).  On
    # cut-er200 augmentation computes 267 gains in 12 gains calls at seed
    # 0 and 268 in 9 at seed 1: its ruled-out rows take their next order
    # element's gain from the threshold loop and read nothing (345 in 90
    # and 346 in 87 when each read that gain).  On imsum-500 it starts
    # from the threshold loop's bounds, rules out no row and computes
    # 1,497 gains in 34 calls at seed 0 and 1,700 in 36 at seed 1 (2,550
    # and 2,912 gains from singleton bounds alone)
    augment_calls = {"cut": 16, "image_summ": 40}[objective]
    built, instance = benchmark_instance(objective, n, p)
    for seed in (0, 1):
        reads = _phase_reads(monkeypatch, built, instance, seed)
        assert reads["greedy"][0] <= greedy_cap
        assert reads["augment"][0] <= augment_cap
        assert reads["augment"][2] <= augment_calls


def test_signed_image_summ_phases_read_every_gain(monkeypatch):
    # no bounds hold without submodularity: each phase computes every
    # candidate it is charged for
    rng = np.random.default_rng(0)
    objective = ImageSummaryObjective(similarity_from_features(rng.normal(size=(200, 16))))
    costs = 0.1 + rng.random(200)
    instance = KnapsackInstance(costs, 0.1 * float(np.sort(costs).sum()))
    assert not objective.submodular
    for seed in (0, 1):
        reads = _phase_reads(monkeypatch, objective, instance, seed)
        assert reads["greedy"][0] == reads["greedy"][1] > 0
        assert reads["augment"][0] == reads["augment"][1] > 0


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
        for out, snapshot in runs[1:]:
            _assert_same_loop(out, runs[0][0])
            assert snapshot == runs[0][1]
        assert runs[0][0][0] and runs[0][0][1]


class TestLoopBoundCopies:
    @pytest.mark.parametrize("kind", DIFFERENTIAL_KINDS)
    def test_each_copy_bounds_every_later_prefix(self, kind):
        # each copy (L, b) of a side's bounds: past every prefix of the
        # side's final order of length at least L, every gain of an element
        # outside the prefix, computed from scratch, is at most
        # slackened(b); no copies without submodularity
        rng = np.random.default_rng([DIFFERENTIAL_KINDS.index(kind), 5])
        checked = 0
        for fraction in (0.1, 0.3):
            objective, costs = _differential_case(kind, rng)
            instance = KnapsackInstance(costs, fraction * float(np.sort(costs).sum()))
            estimate = ESTIMATORS["greedy"](CountingOracle(objective), instance)
            grid = gamma_and_guesses(estimate.value, instance.budget)
            _, rest = split_ground(instance, AstConfig().epsilon)
            for seed in (0, 1):
                out = threshold_loop(
                    CountingOracle(objective), instance, rest, grid, AstConfig(seed=seed),
                    np.random.default_rng(seed), estimate.singleton_gains,
                )
                for order, copies in zip(out[:2], out[5], strict=True):
                    lengths = [length for length, _ in copies]
                    assert lengths == sorted(lengths) and all(0 <= k <= len(order) for k in lengths)
                    past = []  # (elements outside the prefix, their gains) per prefix length
                    for i in range(len(order) + 1):
                        outside = np.setdiff1d(np.arange(instance.n), order[:i])
                        state = state_of(objective, order[:i])
                        past.append((outside, objective.gains(state, outside)))
                    for length, bound in copies:
                        for outside, gains in past[length:]:
                            assert np.all(gains <= slackened(bound[outside]))
                            checked += 1
        if kind == "signed_image_summ":
            assert checked == 0
        else:
            assert checked > 0


class TestLoopChainGains:
    @pytest.mark.parametrize("kind", ["cut", "revenue", "image_summ", "signed_image_summ", "sum"])
    def test_each_accepted_gain_is_the_oracles(self, monkeypatch, kind):
        # each side's gains from the loop, bit for bit the gain of order[i]
        # past order[:i] as the objective answers it, at acceptance caps 1
        # to 3 and budgets up to nearly the whole cost, where gains turn
        # negative; each call's gains align with what it accepted
        outputs = []
        real = alternating.rand_batch

        def recording(*args, **kwargs):
            outputs.append(real(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(alternating, "rand_batch", recording)
        rng = np.random.default_rng([DIFFERENTIAL_KINDS.index(kind), 9])
        checked = 0
        for fraction in (0.1, 0.3, 0.6, 0.9):
            objective, costs = _differential_case(kind, rng)
            instance = KnapsackInstance(costs, fraction * float(np.sort(costs).sum()))
            estimate = ESTIMATORS["greedy"](CountingOracle(objective), instance)
            grid = gamma_and_guesses(estimate.value, instance.budget)
            _, rest = split_ground(instance, AstConfig().epsilon)
            for cap in (1, 2, 3):
                outputs.clear()
                out = threshold_loop(
                    CountingOracle(objective), instance, rest, grid._replace(accept_cap=cap),
                    AstConfig(seed=cap), np.random.default_rng(cap), estimate.singleton_gains,
                )
                for call in outputs:
                    assert len(call.gains) == len(call.accepted)
                for order, chain in zip(out[:2], out[6], strict=True):
                    assert len(chain) == len(order)
                    exact = _exact_chain(objective, order)
                    assert [float(g).hex() for g in chain] == [float(g).hex() for g in exact]
                    checked += len(order)
        assert checked > 50


def _assert_same_loop(out, reference):
    """Two ``threshold_loop`` returns are the same: the first five items
    equal, each side's bound copies entry by entry, and each side's
    accepted gains bit for bit."""
    assert out[:5] == reference[:5]
    for copies, expected in zip(out[5], reference[5], strict=True):
        assert len(copies) == len(expected)
        for (length, bound), (expected_length, expected_bound) in zip(copies, expected):
            assert length == expected_length
            assert np.array_equal(bound, expected_bound)
    for gains, expected in zip(out[6], reference[6], strict=True):
        assert [float(g).hex() for g in gains] == [float(g).hex() for g in expected]


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
        (naive_out, *naive_rest), (out, *rest) = runs
        _assert_same_loop(out, naive_out)
        assert rest == naive_rest
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
