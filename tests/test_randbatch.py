import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodknap
from submodknap import (
    CountingOracle,
    CutObjective,
    KnapsackInstance,
    ModularObjective,
    RandBatchParams,
    gen_erdos_renyi,
    get_seq,
    rand_batch,
    similarity_from_features,
)
from submodknap.randbatch import SMALL_POOL, _rules, _small_rules, slackened
from conftest import GainsLog


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandBatchParams(threshold=0.0, accept_cap=5)
        with pytest.raises(ValueError):
            RandBatchParams(threshold=1.0, accept_cap=0)
        with pytest.raises(ValueError):
            RandBatchParams(threshold=1.0, accept_cap=5, epsilon=1.0)
        # with 1 - epsilon == 1.0 the mass rule fires on every sweep's row 0
        # and the sampler never accepts, never counts and never returns
        for epsilon in (1e-17, 2.0**-54):
            with pytest.raises(ValueError, match="too small"):
                RandBatchParams(threshold=0.5, accept_cap=5, epsilon=epsilon)
        assert RandBatchParams(threshold=0.5, accept_cap=5, epsilon=2.0**-53).epsilon > 0.0


class TestGetSeq:
    def test_empty_pool(self):
        instance = KnapsackInstance(np.ones(3), 2.0)
        assert get_seq((), (), instance, 0.0, np.random.default_rng(0)) == []

    def test_single_feasible_element(self):
        instance = KnapsackInstance(np.ones(3), 2.0)
        assert get_seq((), (1,), instance, 0.0, np.random.default_rng(0)) == [1]

    def test_unit_costs_room_for_exactly_two(self):
        instance = KnapsackInstance(np.ones(5), 2.0)
        seq = get_seq((), (0, 1, 2, 3, 4), instance, 0.0, np.random.default_rng(1))
        assert len(seq) == 2

    def test_external_cost_shrinks_room(self):
        instance = KnapsackInstance(np.ones(5), 3.0)
        seq = get_seq((), (0, 1, 2, 3, 4), instance, 2.0, np.random.default_rng(2))
        assert len(seq) == 1

    def test_prefixes_always_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            costs = rng.random(n) + 0.05
            budget = float(rng.random() * costs.sum() + 0.05)
            instance = KnapsackInstance(costs, budget)
            external = float(rng.random() * budget * 0.5)
            pool = tuple(
                e for e in range(n) if costs[e] + external <= budget
            )
            seq = get_seq((), pool, instance, external, rng)
            running = external
            for e in seq:
                running += costs[e]
                assert running <= budget + 1e-12
            assert len(set(seq)) == len(seq)

    def test_deterministic_given_rng_state(self):
        instance = KnapsackInstance(np.random.default_rng(4).random(8) + 0.1, 2.0)
        pool = tuple(range(8))
        a = get_seq((), pool, instance, 0.0, np.random.default_rng(5))
        b = get_seq((), pool, instance, 0.0, np.random.default_rng(5))
        assert a == b


class TestGetSeqMatchesTheFrozenCopy:
    """``get_seq`` reads pool costs as Python floats; its draws and its
    generator calls must stay those of the frozen copy's list version."""

    @staticmethod
    def _case(rng, boundary):
        """A random instance, a current set and a disjoint pool in random
        order.  ``boundary`` costs are tenths whose sums round, with a budget
        that a canonical sum of some of them meets exactly."""
        n = int(rng.integers(1, 30))
        if boundary:
            costs = rng.integers(1, 8, size=n) / 10.0
            budget = float(np.sort(costs[: int(rng.integers(1, n + 1))]).sum())
        else:
            costs = rng.random(n) + 1e-3
            budget = float(rng.random() * costs.sum() + 1e-3)
        ids = rng.permutation(n).tolist()
        cut = int(rng.integers(0, n + 1))
        return KnapsackInstance(costs, budget), ids[:cut], ids[cut:]

    def test_random_pools_draw_the_same(self):
        from test_lazy_filter import baseline

        rng = np.random.default_rng(31)
        for trial in range(300):
            instance, ids, pool = self._case(rng, boundary=trial % 2 == 1)
            frozen = baseline.KnapsackInstance(instance.costs, instance.budget)
            current = ids[: int(rng.integers(0, len(ids) + 1))]
            room = instance.budget - instance.cost_of(current)
            externals = [0.0, float(rng.random() * instance.budget)]
            if pool:  # leave room for exactly one pool element, up to rounding
                externals.append(room - float(instance.costs[pool[0]]))
            shapes = (list, tuple, lambda p: np.array(p, dtype=np.intp))
            for external in externals:
                for shape in shapes:
                    ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
                    got = get_seq(current, shape(pool), instance, external, ours)
                    want = baseline.randbatch.get_seq(current, shape(pool), frozen, external, theirs)
                    assert got == want
                    assert [type(e) for e in got] == [type(e) for e in want]
                    assert ours.bit_generator.state == theirs.bit_generator.state


def modular_setup(values, costs, budget):
    objective = ModularObjective(values)
    instance = KnapsackInstance(np.asarray(costs, dtype=float), budget)
    return CountingOracle(objective), instance


class TestRandBatch:
    def test_empty_pool_returns_empty_without_queries(self):
        oracle, instance = modular_setup([1.0, 1.0], [1.0, 1.0], 2.0)
        out = rand_batch(
            oracle, (), RandBatchParams(1.0, 5), instance, np.random.default_rng(0)
        )
        assert out.accepted == out.surviving == ()
        assert oracle.ledger.snapshot() == (0, 0)

    def test_bounds_below_the_threshold_skip_the_call(self):
        oracle, instance = modular_setup([5.0, 4.0, 6.0], [1.0, 1.0, 1.0], 10.0)
        bound = np.array([0.5, 0.9, 0.0])
        out = rand_batch(
            oracle,
            (0, 1, 2),
            RandBatchParams(threshold=1.0, accept_cap=50),
            instance,
            np.random.default_rng(0),
            bound=bound,
        )
        assert out.accepted == out.surviving == ()
        assert oracle.ledger.snapshot() == (0, 0)
        assert bound.tolist() == [0.5, 0.9, 0.0]

    def test_ceiling_is_the_largest_density_the_filter_tested(self):
        graph = gen_erdos_renyi(30, 0.3, seed=2)
        instance = KnapsackInstance(graph.node_costs, 0.3 * float(graph.node_costs.sum()))
        rng = np.random.default_rng(5)
        for _ in range(50):
            base = tuple(int(e) for e in rng.choice(30, size=int(rng.integers(0, 4)), replace=False))
            pool = [e for e in range(30) if e not in base and rng.random() < 0.6]
            bound = rng.random(30) * 10.0
            costs = instance.costs[pool]
            fit = costs <= instance.budget - instance.cost_of(base)
            if not fit.any():
                continue
            expected = (slackened(bound[pool][fit]) / costs[fit]).max()
            oracle = CountingOracle(CutObjective(graph))
            for threshold in (np.nextafter(expected, np.inf), 2.0 * expected):
                out = rand_batch(
                    oracle, pool, RandBatchParams(float(threshold), 5), instance,
                    np.random.default_rng(0), base=base, bound=bound,
                )
                assert out.accepted == () and oracle.ledger.snapshot() == (0, 0)
                assert out.ceiling.hex() == float(expected).hex()
            # at the ceiling itself the filter's >= lets the best element in
            out = rand_batch(
                oracle, pool, RandBatchParams(float(expected), 5), instance,
                np.random.default_rng(0), base=base, bound=bound,
            )
            assert oracle.ledger.adaptive_rounds > 0 and out.ceiling == math.inf

    def test_ceiling_with_nothing_that_fits_is_minus_inf(self):
        oracle, instance = modular_setup([5.0, 4.0, 6.0], [1.0, 3.0, 3.0], 2.0)
        for pool, base in (((), ()), ((1, 2), ()), ((1, 2), (0,)), ((), (0,))):
            out = rand_batch(
                oracle, pool, RandBatchParams(1.0, 5), instance, np.random.default_rng(0),
                base=base, bound=np.full(3, np.inf),
            )
            assert out.ceiling == -math.inf
        assert oracle.ledger.snapshot() == (0, 0)

    def test_out_of_range_pool_ids_are_rejected(self):
        # checked before the bounds are indexed, whether or not any is live
        oracle, instance = modular_setup([5.0, 4.0], [1.0, 1.0], 10.0)
        for pool in ((0, 2), (-1,)):
            for bound in (None, np.zeros(2)):
                with pytest.raises(ValueError, match="out of range"):
                    rand_batch(
                        oracle, pool, RandBatchParams(1.0, 5), instance,
                        np.random.default_rng(0), bound=bound,
                    )
        assert oracle.ledger.snapshot() == (0, 0)

    def test_infinite_bounds_change_nothing_and_get_tightened(self):
        graph = gen_erdos_renyi(20, 0.4, seed=6)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
        params = RandBatchParams(threshold=1.0, accept_cap=50)
        pool = tuple(range(2, 20))
        runs = []
        for bound in (None, np.full(20, np.inf)):
            oracle = CountingOracle(objective)
            out = rand_batch(
                oracle, pool, params, instance, np.random.default_rng(3), base=(0, 1),
                bound=bound,
            )
            runs.append((out, oracle.ledger.snapshot()))
        assert runs[0] == runs[1]
        assert runs[0][0].accepted
        # the filter saw every pool element's gain past the base
        gains = CountingOracle(objective).marginal_batch((0, 1), pool)
        assert np.all(bound[list(pool)] <= gains)
        assert np.isinf(bound[:2]).all()

    def test_modular_all_dense_all_accepted(self):
        # every density clears the floor and everything fits: the whole pool
        # must be accepted and nothing survives
        values = [5.0, 4.0, 6.0, 3.0]
        oracle, instance = modular_setup(values, [1.0, 1.0, 1.0, 1.0], 10.0)
        out = rand_batch(
            oracle,
            (0, 1, 2, 3),
            RandBatchParams(threshold=2.0, accept_cap=50),
            instance,
            np.random.default_rng(1),
        )
        assert sorted(out.accepted) == [0, 1, 2, 3]
        assert out.surviving == ()

    def test_low_density_element_never_accepted(self):
        values = [5.0, -1.0, 4.0]
        oracle, instance = modular_setup(values, [1.0, 1.0, 1.0], 10.0)
        out = rand_batch(
            oracle,
            (0, 1, 2),
            RandBatchParams(threshold=1.0, accept_cap=50),
            instance,
            np.random.default_rng(2),
        )
        assert 1 not in out.accepted
        assert sorted(out.accepted) == [0, 2]

    def test_budget_filter_respected(self):
        values = [5.0, 5.0, 5.0]
        oracle, instance = modular_setup(values, [1.0, 1.0, 1.0], 2.0)
        out = rand_batch(
            oracle,
            (0, 1, 2),
            RandBatchParams(threshold=1.0, accept_cap=50),
            instance,
            np.random.default_rng(3),
        )
        assert len(out.accepted) == 2
        assert instance.feasible(out.accepted)

    def test_conditioning_set_consumes_budget(self):
        values = [5.0, 5.0, 5.0, 5.0]
        oracle, instance = modular_setup(values, [1.0, 1.0, 1.0, 1.0], 3.0)
        out = rand_batch(
            oracle,
            (1, 2, 3),
            RandBatchParams(threshold=1.0, accept_cap=50),
            instance,
            np.random.default_rng(4),
            base=(0,),
        )
        # only two more unit-cost elements fit beside the conditioning set
        assert len(out.accepted) == 2
        assert instance.cost_of(out.accepted + (0,)) <= instance.budget

    def test_exit_condition(self):
        rng = np.random.default_rng(5)
        graph = gen_erdos_renyi(20, 0.4, seed=6)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
        dens = np.array([objective(np.array([e])) for e in range(20)]) / graph.node_costs
        for cap in (1, 2, 50):
            oracle = CountingOracle(objective)
            out = rand_batch(
                oracle,
                tuple(range(20)),
                RandBatchParams(threshold=0.3 * float(dens.max()), accept_cap=cap),
                instance,
                rng,
            )
            assert out.surviving == () or out.damage_count == cap

    def test_membership_structure(self):
        # accepted is drawn from the pool and fits the budget
        graph = gen_erdos_renyi(15, 0.5, seed=7)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        pool = tuple(range(15))
        for seed in range(10):
            oracle = CountingOracle(objective)
            out = rand_batch(
                oracle,
                pool,
                RandBatchParams(threshold=1.0, accept_cap=30),
                instance,
                np.random.default_rng(seed),
            )
            assert set(out.accepted) <= set(pool)
            assert instance.feasible(out.accepted)

    def test_accepted_density_cleared_floor_for_modular(self):
        # with a modular function marginals never move, so acceptance
        # certifies the density floor exactly
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 8
            values = rng.random(n) * 4
            costs = rng.random(n) + 0.1
            # budget comfortably above the total so feasibility never sits
            # on a floating-point boundary
            oracle, instance = modular_setup(values, costs, float(costs.sum()) + 0.5)
            threshold = float(rng.random() * 3 + 0.2)
            out = rand_batch(
                oracle,
                tuple(range(n)),
                RandBatchParams(threshold=threshold, accept_cap=50),
                instance,
                rng,
            )
            for e in out.accepted:
                assert values[e] / costs[e] >= threshold
            for e in range(n):
                if values[e] / costs[e] >= threshold and e not in out.accepted:
                    pytest.fail("dense feasible element left unselected")

    @pytest.mark.parametrize(
        "pair_weight, accepted, damage_count",
        [
            # y's own loss of 6.2 past x fires the damage rule at t = 2,
            # where no survivor's gain is negative: 0.1 * 60 <= 0 + 6.2
            (5.6, (0, 1), 1),
            # a loss of 4.5 fires it at t = 4 (0.1 * 40 <= 4.5), not at
            # t = 2 (0.1 * 60 > 4.5): the loss is counted once, not twice
            (4.75, (0, 1, 2, 3), 1),
        ],
        ids=["fires-on-own-loss", "loss-counted-once"],
    )
    def test_damage_rule_counts_drawn_elements_own_losses(
        self, monkeypatch, pair_weight, accepted, damage_count
    ):
        # f is a quadratic: gain(u | S) = a_u - 2 * sum of w(u, v) over v in
        # S, built as a cut plus a modular offset.  x = 0, y = 1, z = 2 cost
        # 1 and start at gain 5; G = 3, 4, 5 cost 10, gain 20 throughout.
        # Past x, y's gain is 5 - 2 * pair_weight < 0; past x and y, z's is
        # 0.5, below the density floor 1.  The drawn order is fixed (x, y,
        # z, G), so the mass rule holds off until t = 4 (0.9 * 33 < 30).
        graph = submodknap.WeightedGraph(6, [(0, 1, pair_weight), (1, 2, 2.25)])
        offsets = np.array([5.0, 5.0, 5.0, 20.0, 20.0, 20.0]) - graph.weighted_degrees()
        objective = submodknap.SumObjective(CutObjective(graph), ModularObjective(offsets))
        instance = KnapsackInstance(np.array([1.0, 1.0, 1.0, 10.0, 10.0, 10.0]), 40.0)
        monkeypatch.setattr(submodknap.randbatch, "get_seq", lambda current, pool, *_: sorted(pool))
        out = rand_batch(
            CountingOracle(objective),
            tuple(range(6)),
            RandBatchParams(threshold=1.0, accept_cap=1),
            instance,
            np.random.default_rng(0),
        )
        assert (out.accepted, out.damage_count) == (accepted, damage_count)

    def test_round_accounting_shape(self):
        # rounds per call stay within a generous multiple of log(pool) + cap
        graph = gen_erdos_renyi(60, 0.3, seed=10)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        dens = np.array([objective(np.array([e])) for e in range(60)]) / graph.node_costs
        params = RandBatchParams(threshold=0.2 * float(dens.max()), accept_cap=40)
        rounds = []
        for seed in range(10):
            oracle = CountingOracle(objective)
            rand_batch(oracle, tuple(range(60)), params, instance, np.random.default_rng(seed))
            rounds.append(oracle.ledger.adaptive_rounds)
        beta = float(graph.node_costs.max() / graph.node_costs.min())
        bound = (1.0 / params.epsilon) * (math.log(60 * beta) + params.accept_cap)
        assert np.mean(rounds) <= bound


@pytest.mark.parametrize("kind", ["cut", "signed_image_summ"])
def test_sweep_read_to_t_star_matches_the_frozen_copy(monkeypatch, kind):
    # the frozen copy computes every sweep row and takes t* = min(t1, t2)
    # over all of them; here rows are read only up to t*.  Budgets, floors
    # and acceptance caps vary from call to call, and some calls' survivor
    # pools shrink from SMALL_POOL or more to fewer, so that one call runs
    # both forms of the stopping rules.
    from test_lazy_filter import baseline

    pools = []  # survivor pool size of each sweep of the current call

    def logged_get_seq(current, pool, *args, **kwargs):
        pools.append(len(pool))
        return get_seq(current, pool, *args, **kwargs)

    monkeypatch.setattr(submodknap.randbatch, "get_seq", logged_get_seq)

    rng = np.random.default_rng(12)
    n = 20
    if kind == "cut":
        graph = gen_erdos_renyi(n, 0.4, seed=13)

        def build(package):
            return package.objectives.CutObjective(package.objectives.WeightedGraph(n, graph.edges))
    else:
        sim = similarity_from_features(rng.normal(size=(n, 6))).sim

        def build(package):
            matrix = package.objectives.SimilarityMatrix(sim)
            return package.objectives.ImageSummaryObjective(matrix)

    costs = 0.1 + rng.random(n)
    accepted = crossings = 0
    for seed in range(40):
        outs = []
        pools.clear()
        for package in (submodknap, baseline):
            objective = build(package)
            budget = (0.1 + 0.1 * (seed % 5)) * float(costs.sum())
            instance = package.KnapsackInstance(costs, budget)
            dens = np.array([objective([e]) for e in range(n)]) / costs
            params = package.RandBatchParams(
                threshold=(0.05 + 0.1 * (seed % 7)) * float(dens.max()), accept_cap=1 + seed % 3
            )
            sampler_rng = np.random.default_rng(seed)
            out = package.rand_batch(
                package.CountingOracle(objective), tuple(range(n)), params, instance, sampler_rng
            )
            outs.append(
                (out.accepted, out.surviving, out.damage_count, sampler_rng.bit_generator.state)
            )
        assert outs[0] == outs[1]
        accepted += len(outs[0][0])
        crossings += bool(pools) and pools[0] >= SMALL_POOL > pools[-1]
    assert accepted > 40
    assert crossings > 0


@pytest.mark.parametrize("kind", ["cut", "signed_image_summ"])
def test_no_sweep_reads_row_0(kind):
    # a sweep's row 0 has the base, spent cost and survivors of the check
    # that made those survivors (the filter, or the previous sweep's row
    # t*), so no rule can fire there and it is never read: the rows read
    # are the filter's and then one per accepted element, past the accepted
    # prefix up to and including it
    rng = np.random.default_rng(12)
    n = 20
    if kind == "cut":
        objective = CutObjective(gen_erdos_renyi(n, 0.4, seed=13))
    else:
        objective = submodknap.ImageSummaryObjective(similarity_from_features(rng.normal(size=(n, 6))))
    costs = 0.1 + rng.random(n)
    dens = np.array([objective([e]) for e in range(n)]) / costs
    sweeps = 0
    for seed in range(40):
        log = GainsLog(objective)
        oracle = CountingOracle(log)
        instance = KnapsackInstance(costs, (0.1 + 0.1 * (seed % 5)) * float(costs.sum()))
        params = RandBatchParams(
            threshold=(0.05 + 0.1 * (seed % 7)) * float(dens.max()), accept_cap=1 + seed % 3
        )
        out = rand_batch(oracle, tuple(range(n)), params, instance, np.random.default_rng(seed))
        assert log.bases == [out.accepted[:j] for j in range(len(out.accepted) + 1)]
        sweeps += oracle.ledger.adaptive_rounds - 1
    assert sweeps > 40


def test_row_0_is_read_when_its_damage_rule_underflows():
    # four gains of the least subnormal: 0.1 times their sum rounds to 0,
    # so the damage rule fires at t = 0 on every sweep, as in the frozen
    # copy, which reads every row
    from test_lazy_filter import baseline

    outs, logs = [], []
    for package in (submodknap, baseline):
        logs.append(GainsLog(package.ModularObjective(np.full(4, 5e-324))))
        out = package.rand_batch(
            package.CountingOracle(logs[-1]),
            tuple(range(4)),
            package.RandBatchParams(threshold=5e-324, accept_cap=3),
            package.KnapsackInstance(np.ones(4), 10.0),
            np.random.default_rng(0),
        )
        outs.append((out.accepted, out.surviving, out.damage_count))
    assert outs[0] == outs[1] == ((), (0, 1, 2, 3), 3)
    assert logs[0].bases == [(), (), (), ()]  # the filter, then row 0 of three sweeps


@pytest.mark.parametrize("seed", range(20))
def test_empty_draw_drops_the_survivors_as_the_frozen_copy_does(monkeypatch, seed):
    # the budget is the two costs' sum: after the first element is accepted
    # the survivor rule's spent + c <= B keeps the second, but get_seq's
    # room B - spent rounds below its cost, so the next draw is empty
    from test_lazy_filter import baseline

    costs = (0.763774618976614, 0.2550690257394217)
    budget = 1.0188436447160356
    seqs = []

    def logged_get_seq(*args, **kwargs):
        seqs.append(get_seq(*args, **kwargs))
        return seqs[-1]

    monkeypatch.setattr(submodknap.randbatch, "get_seq", logged_get_seq)
    results = []
    for package in (submodknap, baseline):
        oracle = package.CountingOracle(package.ModularObjective([1.0, 1.0]))
        rng = np.random.default_rng(seed)
        out = package.rand_batch(
            oracle, (0, 1), package.RandBatchParams(threshold=1e-3, accept_cap=5),
            package.KnapsackInstance(np.array(costs), budget), rng,
        )
        results.append(
            (out.accepted, out.surviving, out.damage_count, oracle.ledger.snapshot(),
             rng.bit_generator.state)
        )
    assert seqs[-1] == []
    assert results[0][1] == ()
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "costs, budget, message",
    [
        ((5e-324, 5e-324), 1.0, "costs"),
        ((1e308, 1e308, 1e308), 1.5e308, "costs"),
        ((1.0, 1.0), 1e-310, "budget"),
    ],
)
def test_subnormal_or_overflowing_costs_are_rejected(costs, budget, message):
    # 0.9 times a subnormal pool cost rounds back to it, and a pool cost of
    # inf stays inf: the mass rule would fire at t = 0 on every sweep, which
    # accepts nothing and counts nothing, so the sampler would never return
    with pytest.raises(ValueError, match=message):
        KnapsackInstance(np.asarray(costs), budget)


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-16, -1e-16, 5e-324, -5e-324, 1e300])


@settings(max_examples=400, deadline=None)
@given(data=st.data(), size=st.integers(1, SMALL_POOL - 1))
def test_small_pool_rules_match_numpys_sums(data, size):
    # the Python-float rules must give numpy's mask and sums bit for bit:
    # np.add.reduce adds fewer than 8 doubles one by one from 0.0.  If
    # numpy ever sums them otherwise, this fails instead of outputs drifting
    values = st.one_of(_EDGE_FLOATS, st.floats(-1e6, 1e6))
    gains = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
    costs = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=size, max_size=size)))
    spent = data.draw(st.floats(0.0, 20.0))
    threshold = data.draw(st.one_of(_EDGE_FLOATS, st.floats(-2.0, 2.0)))
    residual = data.draw(st.floats(0.0, 30.0))
    high, *sums = _rules(gains, costs, spent, threshold, residual)
    small_high, *small_sums = _small_rules(gains.tolist(), costs.tolist(), spent, threshold, residual)
    assert small_high == high.tolist()
    assert [float(x).hex() for x in small_sums] == [float(x).hex() for x in sums]
