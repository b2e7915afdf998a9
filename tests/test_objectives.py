import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodknap
import submodknap.harness  # noqa: F401  (the frozen-copy test reads ``package.harness``)
from submodknap import (
    CutObjective,
    DataError,
    ImageSummaryObjective,
    ModularObjective,
    ParseError,
    RevenueObjective,
    SimilarityMatrix,
    SumObjective,
    WeightedGraph,
    gen_erdos_renyi,
    load_edge_list,
    load_features,
    revenue_costs,
    similarity_from_features,
)
from submodknap.objectives import _PAIR_BLOCK, _TILE, _is_symmetric, _symmetrized
from submodknap.randbatch import BOUND_SLACK
from conftest import naive_cut, naive_image_summary, naive_revenue, state_of


class TestRevenue:
    def test_empty_set(self, star_149):
        assert RevenueObjective(star_149)(()) == 0.0

    def test_star_center(self, star_149):
        # leaves contribute sqrt(1) + sqrt(4) + sqrt(9)
        assert RevenueObjective(star_149)((0,)) == pytest.approx(6.0)

    def test_full_set_is_zero(self, star_149):
        assert RevenueObjective(star_149)((0, 1, 2, 3)) == 0.0

    def test_non_negative_on_random_sets(self):
        graph = gen_erdos_renyi(40, 0.3, seed=1)
        objective = RevenueObjective(graph)
        rng = np.random.default_rng(2)
        for _ in range(300):
            ids = rng.choice(40, size=rng.integers(0, 41), replace=False)
            assert objective(ids) >= 0.0


class TestRevenueCosts:
    def test_isolated_node_gets_floor(self):
        graph = WeightedGraph(3, [(0, 1, 1.0)])
        costs = revenue_costs(graph)
        assert costs[2] == 1e-6

    def test_unit_strength(self):
        graph = WeightedGraph(2, [(0, 1, 1.0)])
        costs = revenue_costs(graph)
        assert costs[0] == pytest.approx(1.0 - math.exp(-1.0))

    def test_all_positive_on_random_graph(self):
        graph = gen_erdos_renyi(50, 0.2, seed=3)
        assert np.all(revenue_costs(graph) > 0.0)


class TestCut:
    def test_empty_and_full(self, unit_triangle):
        assert CutObjective(unit_triangle)(()) == 0.0
        assert CutObjective(unit_triangle)((0, 1, 2)) == 0.0

    def test_triangle_singleton(self, unit_triangle):
        assert CutObjective(unit_triangle)((0,)) == 2.0

    def test_path_middle_node(self, unit_path):
        assert CutObjective(unit_path)((1,)) == 2.0

    def test_non_negative_on_random_sets(self):
        graph = gen_erdos_renyi(40, 0.3, seed=4)
        objective = CutObjective(graph)
        rng = np.random.default_rng(5)
        for _ in range(300):
            ids = rng.choice(40, size=rng.integers(0, 41), replace=False)
            assert objective(ids) >= 0.0


class TestImageSummary:
    def test_empty_set(self):
        matrix = SimilarityMatrix(np.ones((2, 2)))
        assert ImageSummaryObjective(matrix)(()) == 0.0

    def test_two_identical_images(self):
        matrix = SimilarityMatrix(np.ones((2, 2)))
        # coverage 1 + 1, penalty (1/2)(1 + 1)
        assert ImageSummaryObjective(matrix)((0,)) == pytest.approx(1.0)

    def test_single_image_ground_set(self):
        matrix = SimilarityMatrix(np.ones((1, 1)))
        assert ImageSummaryObjective(matrix)((0,)) == pytest.approx(0.0)

    def test_non_negative_when_similarities_are(self):
        rng = np.random.default_rng(6)
        feats = rng.random((25, 8))
        matrix = similarity_from_features(feats)
        objective = ImageSummaryObjective(matrix)
        for _ in range(300):
            ids = rng.choice(25, size=rng.integers(0, 26), replace=False)
            assert objective(ids) >= 0.0


class TestNormalizationAndAgreement:
    """Shipped objectives are normalized, non-negative where promised, and
    agree with naive formula transcriptions."""

    def _random_sets(self, n, count, seed):
        rng = np.random.default_rng(seed)
        return [
            rng.choice(n, size=rng.integers(0, n + 1), replace=False)
            for _ in range(count)
        ]

    def test_cut_agrees_with_naive(self):
        graph = gen_erdos_renyi(30, 0.3, seed=7)
        objective = CutObjective(graph)
        for ids in self._random_sets(30, 400, 8):
            fast = objective(ids)
            slow = naive_cut(graph, ids)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_revenue_agrees_with_naive(self):
        graph = gen_erdos_renyi(30, 0.3, seed=9)
        objective = RevenueObjective(graph)
        for ids in self._random_sets(30, 400, 10):
            fast = objective(ids)
            slow = naive_revenue(graph, ids)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_image_summary_agrees_with_naive(self):
        rng = np.random.default_rng(11)
        feats = rng.random((20, 6))
        matrix = similarity_from_features(feats)
        objective = ImageSummaryObjective(matrix)
        for ids in self._random_sets(20, 400, 12):
            fast = objective(ids)
            slow = naive_image_summary(matrix, ids)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_normalization_on_shipped_objectives(self, unit_triangle):
        graph = gen_erdos_renyi(20, 0.4, seed=13)
        sim = SimilarityMatrix(np.eye(5))
        for objective in (
            CutObjective(graph),
            RevenueObjective(graph),
            ImageSummaryObjective(sim),
        ):
            assert objective(np.empty(0, dtype=np.intp)) == 0.0


class TestNonMonotoneWitness:
    def test_cut_has_negative_marginal(self):
        graph = gen_erdos_renyi(12, 0.5, seed=14)
        objective = CutObjective(graph)
        rng = np.random.default_rng(15)
        found = False
        for _ in range(500):
            size = int(rng.integers(1, 12))
            ids = rng.choice(12, size=size, replace=False)
            outside = [e for e in range(12) if e not in set(ids.tolist())]
            if not outside:
                continue
            e = outside[int(rng.integers(len(outside)))]
            gain = objective(np.append(ids, e)) - objective(ids)
            if gain < 0:
                found = True
                break
        assert found

    def test_image_summary_has_negative_marginal(self):
        rng = np.random.default_rng(16)
        feats = rng.random((12, 5))
        objective = ImageSummaryObjective(similarity_from_features(feats))
        found = False
        for _ in range(500):
            size = int(rng.integers(1, 12))
            ids = rng.choice(12, size=size, replace=False)
            outside = [e for e in range(12) if e not in set(ids.tolist())]
            if not outside:
                continue
            e = outside[int(rng.integers(len(outside)))]
            if objective(np.append(ids, e)) - objective(ids) < 0:
                found = True
                break
        assert found


class TestGenErdosRenyi:
    def test_no_edges_at_zero_probability(self):
        graph = gen_erdos_renyi(10, 0.0, seed=0)
        assert graph.num_edges == 0

    def test_deterministic_given_seed(self):
        a = gen_erdos_renyi(50, 0.3, seed=42)
        b = gen_erdos_renyi(50, 0.3, seed=42)
        assert np.array_equal(a.edge_u, b.edge_u)
        assert np.array_equal(a.edge_v, b.edge_v)
        assert np.array_equal(a.edge_w, b.edge_w)
        assert np.array_equal(a.node_costs, b.node_costs)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_erdos_renyi(10, 1.5, seed=0)

    def test_costs_and_weights_in_open_unit_interval(self):
        graph = gen_erdos_renyi(80, 0.4, seed=17)
        assert np.all(graph.node_costs > 0) and np.all(graph.node_costs < 1)
        assert np.all(graph.edge_w > 0) and np.all(graph.edge_w < 1)

    def test_benchmark_scale_edge_count_within_three_sigma(self):
        graph = gen_erdos_renyi(5000, 0.2, seed=18)
        pairs = 5000 * 4999 // 2
        mean = pairs * 0.2
        sigma = math.sqrt(pairs * 0.2 * 0.8)
        assert abs(graph.num_edges - mean) <= 3 * sigma


class TestWeightedGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(3, [(0, 0, 1.0)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize(
        "u, v",
        [
            ([0, 2, 0, 1], [1, 3, 1, 2]),  # the same orientation
            ([0, 3, 2], [1, 2, 3]),  # reversed
            ([1, 0, 0, 2, 1, 3], [4, 1, 2, 3, 0, 4]),  # (0, 1) at positions 1 and 4
        ],
    )
    def test_from_arrays_rejects_duplicate_pair(self, u, v):
        w = np.ones(len(u))
        with pytest.raises(ValueError, match="duplicate undirected edge"):
            WeightedGraph.from_arrays(5, u, v, w)

    def test_from_arrays_accepts_distinct_pairs(self):
        graph = WeightedGraph.from_arrays(4, [2, 0, 3, 1], [3, 1, 0, 2], np.ones(4))
        assert graph.num_edges == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            WeightedGraph(2, [(0, 5, 1.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            WeightedGraph(2, [(0, 1, -1.0)])


class TestSimilarityMatrixValidation:
    def test_rejects_asymmetric(self):
        sim = np.eye(2)
        sim[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityMatrix(sim)

    def test_rejects_bad_diagonal(self):
        sim = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="diagonal"):
            SimilarityMatrix(sim)

    def test_rejects_out_of_range(self):
        sim = np.eye(2)
        sim[0, 1] = sim[1, 0] = 1.5
        with pytest.raises(ValueError, match="lie in"):
            SimilarityMatrix(sim)


class TestLoadEdgeList:
    def test_format_example(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 0.5\n1 2 0.25\n")
        graph = load_edge_list(path)
        assert graph.n == 3
        assert graph.num_edges == 2

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n\n0 1 0.5\n")
        assert load_edge_list(path).num_edges == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 0.5\n0 2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(path)

    def test_non_finite_weight(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_edge_list(path)

    def test_duplicate_edge(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 0.5\n1 0 0.5\n")
        with pytest.raises(DataError, match="duplicate"):
            load_edge_list(path)

    def test_self_loop(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("2 2 0.5\n")
        with pytest.raises(DataError, match="self-loop"):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError, match="no edges"):
            load_edge_list(path)


class TestLoadFeatures:
    def test_identical_rows_have_unit_similarity(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("1.0,2.0,3.0\n1.0,2.0,3.0\n")
        matrix = load_features(path)
        assert matrix.sim[0][1] == pytest.approx(1.0)

    def test_benchmark_shape_accepted(self, tmp_path):
        rng = np.random.default_rng(19)
        feats = rng.random((500, 3072))
        path = tmp_path / "feats.csv"
        np.savetxt(path, feats, delimiter=",", fmt="%.6f")
        matrix = load_features(path)
        assert matrix.n == 500

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_features(path)

    def test_zero_norm_row_rejected(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("1.0,0.0\n0.0,0.0\n")
        with pytest.raises(DataError, match="zero-norm"):
            load_features(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("1.0,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_features(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_after_blank_lines_reports_its_line(self, tmp_path, value):
        path = tmp_path / "feats.csv"
        path.write_text(f"1.0,2.0\n\n\n3.0,{value}\n1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="line 4: non-finite feature value"):
            load_features(path)


class TestSymmetrized:
    def test_a_symmetric_product_is_returned_as_it_is(self):
        unit = np.random.default_rng(5).random((30, 8))
        product = unit @ unit.T
        before = product.copy()
        assert _symmetrized(product) is product
        assert np.array_equal(product, before)

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_a_non_symmetric_product_is_averaged(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        want = (a + a.T) / 2.0
        got = _symmetrized(a.copy())
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTileSymmetry:
    """``SimilarityMatrix`` and ``_symmetrized`` test symmetry tile by tile;
    every accept and reject must be the whole-matrix ``array_equal``'s."""

    N = _TILE + 44  # two tiles a side, the last one partial

    @pytest.mark.parametrize(
        "i, j", [(10, _TILE + 14), (_TILE + 20, _TILE + 30)], ids=["off-diagonal-tile", "last-partial-tile"]
    )
    def test_one_asymmetric_entry_is_rejected(self, i, j):
        sim = np.eye(self.N)
        sim[i, j] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityMatrix(sim)
        got = _symmetrized(sim.copy())
        assert np.array_equal(got.view(np.uint64), ((sim + sim.T) / 2.0).view(np.uint64))

    def test_a_symmetric_matrix_of_several_tiles_is_accepted(self):
        feats = np.random.default_rng(6).random((2 * _TILE + 3, 5))
        matrix = similarity_from_features(feats)
        assert SimilarityMatrix(matrix.sim).n == 2 * _TILE + 3

    def test_a_nan_is_not_symmetric(self):
        sim = np.eye(self.N)
        sim[3, _TILE + 1] = sim[_TILE + 1, 3] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityMatrix(sim)

    def test_agrees_with_the_whole_matrix_test(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 5):
            a = rng.random((n, n))
            sym = a + a.T
            assert _is_symmetric(sym) and np.array_equal(sym, sym.T)
            for _ in range(3):
                i, j = rng.integers(0, n, size=2)
                bent = sym.copy()
                bent[i, j] += 1.0
                assert _is_symmetric(bent) == np.array_equal(bent, bent.T)


class TestNarrowCsrKeys:
    """``adjacency`` sorts node ids cast to the narrowest unsigned dtype that
    holds them; its CSR arrays must be those of a stable sort of the int64
    endpoints."""

    @staticmethod
    def _int64_csr(graph):
        src = np.concatenate([graph.edge_u, graph.edge_v]).astype(np.int64)
        dst = np.concatenate([graph.edge_v, graph.edge_u])
        wts = np.concatenate([graph.edge_w, graph.edge_w])
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(graph.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=graph.n), out=indptr[1:])
        return indptr, dst[order], wts[order]

    def _assert_same(self, graph):
        for ours, want in zip(graph.adjacency(), self._int64_csr(graph)):
            assert ours.dtype == want.dtype
            assert np.array_equal(ours, want)

    @pytest.mark.parametrize("n, p, seed", [(2, 1.0, 0), (40, 0.3, 1), (256, 0.1, 2), (700, 0.05, 3)])
    def test_generated_graphs(self, n, p, seed):
        self._assert_same(gen_erdos_renyi(n, p, seed))

    def test_a_single_node(self):
        self._assert_same(WeightedGraph(1, []))

    def test_a_graph_past_uint16(self):
        n = 70_000
        rng = np.random.default_rng(8)
        u = rng.integers(0, n, size=30_000)
        v = (u + rng.integers(1, n, size=u.size)) % n
        _, first = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        u, v = u[first], v[first]
        graph = WeightedGraph.from_arrays(n, u, v, rng.random(u.size))
        assert np.min_scalar_type(n - 1) == np.uint32
        self._assert_same(graph)


class TestBuildMatchesTheFrozenCopy:
    """The instance builders must return the frozen copy's arrays bit for
    bit, dtypes included.  ``perfbench/checks.py`` builds its reference
    graph with this package's own generator, so only this test would see a
    generator that drew a different instance."""

    @staticmethod
    def _same(ours, theirs):
        assert ours.dtype == theirs.dtype
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)

    CROSSING = (1449, 1500)  # the first n whose pairs fill more than one block, and a larger one

    def test_crossing_sizes_cross_a_block(self):
        assert 1448 * 1447 // 2 <= _PAIR_BLOCK
        for n in self.CROSSING:
            assert n * (n - 1) // 2 > _PAIR_BLOCK

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 200, *CROSSING])
    def test_erdos_renyi_draws_the_same(self, n):
        from test_lazy_filter import baseline

        seeds = (0,) if n > 1000 else (0, 1, 2)
        for p in (0.0, 1e-3, 0.2, 0.5, 1.0):
            for seed in seeds:
                ours = gen_erdos_renyi(n, p, seed)
                theirs = baseline.gen_erdos_renyi(n, p, seed)
                for name in ("edge_u", "edge_v", "edge_w", "node_costs"):
                    self._same(getattr(ours, name), getattr(theirs, name))

    @pytest.mark.parametrize(
        "shape, signed", [((1, 1), False), ((2, 3), False), ((17, 64), False),
                          ((200, 64), False), ((60, 7), True), ((33, 1), True)]
    )
    def test_similarities_are_the_same(self, tmp_path, shape, signed):
        from test_lazy_filter import baseline

        rng = np.random.default_rng(shape[0])
        feats = rng.standard_normal(shape) if signed else rng.random(shape)
        feats[-1] = feats[0]  # an exact duplicate row
        path = tmp_path / "feats.csv"
        np.savetxt(path, feats, delimiter=",", fmt="%.17g")  # round-trips exactly
        theirs = baseline.load_features(path).sim
        self._same(similarity_from_features(feats).sim, theirs)
        self._same(load_features(path).sim, theirs)

    @pytest.mark.parametrize("kind", ["cut", "revenue", "image_summ"])
    @pytest.mark.parametrize("n, seed", [(2, 0), (40, 3), (200, 0), (500, 7)])
    def test_build_objective_is_the_same(self, kind, n, seed):
        from test_lazy_filter import baseline

        built = []
        for package in (submodknap, baseline):
            spec = package.harness.ExperimentSpec(
                "ast", kind, package.harness.GenerateSource(n, 0.2, seed),
                config=package.AstConfig(seed=seed + 1),
            )
            built.append(package.harness.build_objective(spec))
        (ours, our_costs), (theirs, their_costs) = built
        self._same(our_costs, their_costs)
        names = ("_sim",) if kind == "image_summ" else ("_indptr", "_indices", "_data")
        for name in names:
            self._same(getattr(ours, name), getattr(theirs, name))


class TestModularAndSum:
    def test_modular_sums_values(self):
        objective = ModularObjective([3.0, 2.0, 1.0])
        assert objective(np.array([0, 2])) == 4.0
        assert objective(np.empty(0, dtype=np.intp)) == 0.0

    def test_sum_objective_adds_components(self, unit_triangle):
        combined = SumObjective(
            ModularObjective([1.0, 1.0, 1.0]), CutObjective(unit_triangle)
        )
        assert combined(np.array([0])) == pytest.approx(3.0)  # 1 + cut 2

    def test_sum_objective_requires_matching_ground_sets(self):
        with pytest.raises(ValueError, match="ground set"):
            SumObjective(ModularObjective([1.0]), ModularObjective([1.0, 2.0]))


def _objective_and_naive(kind, n, seed):
    """A shipped objective on ``n`` elements and its naive reference."""
    rng = np.random.default_rng(seed)
    if kind == "image_summ":
        # normal features give similarities of both signs
        matrix = similarity_from_features(rng.normal(size=(n, 4)))
        return ImageSummaryObjective(matrix), lambda ids: naive_image_summary(matrix, ids)
    graph = gen_erdos_renyi(n, 0.5, seed)
    values = rng.normal(size=n)

    def naive_modular(ids):
        return sum(values[e] for e in ids)

    if kind == "cut":
        return CutObjective(graph), lambda ids: naive_cut(graph, ids)
    if kind == "revenue":
        return RevenueObjective(graph), lambda ids: naive_revenue(graph, ids)
    if kind == "modular":
        return ModularObjective(values), naive_modular
    objective = SumObjective(ModularObjective(values), CutObjective(graph))
    return objective, lambda ids: naive_modular(ids) + naive_cut(graph, ids)


GAIN_KINDS = ("cut", "revenue", "image_summ", "modular", "sum")


def _check_gains(objective, naive, base, cands):
    """``gains`` against naive differences: within 1e-9 outside the base,
    exactly 0.0 inside it."""
    state = state_of(objective, base)
    gains = objective.gains(state, np.asarray(cands, dtype=np.intp))
    assert gains.dtype == np.float64 and gains.shape == (len(cands),)
    before = naive(base)
    for u, gain in zip(cands, gains.tolist()):
        if u in base:
            assert gain == 0.0
        else:
            assert gain == pytest.approx(naive([*base, u]) - before, rel=0.0, abs=1e-9)


class TestGains:
    """Vectorized marginal gains against the naive references."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(GAIN_KINDS),
        n=st.integers(2, 10),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_match_naive_differences(self, kind, n, seed, data):
        objective, naive = _objective_and_naive(kind, n, seed)
        base = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        # candidates may repeat and may lie inside the base
        cands = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        _check_gains(objective, naive, base, cands)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(GAIN_KINDS),
        n=st.integers(2, 10),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_gains_do_not_rise_as_the_base_grows(self, kind, n, seed, data):
        # submodularity, which the solver's gain bounds rely on: appending
        # ids to the base never raises the gain of an element outside it.
        # image_summ is submodular only for non-negative similarities (see
        # test_signed_image_summ_gain_can_rise), so its features are drawn
        # non-negative here.
        if kind == "image_summ":
            features = np.random.default_rng(seed).random((n, 4))
            objective = ImageSummaryObjective(similarity_from_features(features))
        else:
            objective, _ = _objective_and_naive(kind, n, seed)
        ids = data.draw(st.permutations(range(n)))
        grown_size = data.draw(st.integers(0, n - 1))
        base_size = data.draw(st.integers(0, grown_size))
        base = np.asarray(ids[:base_size], dtype=np.intp)
        grown = np.asarray(ids[:grown_size], dtype=np.intp)
        cands = np.asarray(ids[grown_size:], dtype=np.intp)
        before = objective.gains(state_of(objective, base), cands)
        after = objective.gains(state_of(objective, grown), cands)
        assert np.all(after <= before + BOUND_SLACK * np.maximum(1.0, np.abs(before)))

    def test_signed_image_summ_gain_can_rise(self):
        # with a negative similarity, f(u | {}) = sum_i sim[i, u] - colsum[u] / n
        # counts it, but past {v} the coverage term clips it at 0
        matrix = SimilarityMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        objective = ImageSummaryObjective(matrix)
        alone = objective.gains(objective.state(), np.array([1]))
        past_0 = objective.gains(state_of(objective, [0]), np.array([1]))
        assert alone.tolist() == [0.25] and past_0.tolist() == [1.25]

    @pytest.mark.parametrize("kind", GAIN_KINDS)
    def test_empty_base_gives_singleton_values(self, kind):
        objective, naive = _objective_and_naive(kind, 9, seed=21)
        _check_gains(objective, naive, [], list(range(9)))

    @pytest.mark.parametrize("kind", GAIN_KINDS)
    def test_candidates_inside_base_gain_exactly_zero(self, kind):
        objective, naive = _objective_and_naive(kind, 9, seed=22)
        base = [4, 0, 7]
        _check_gains(objective, naive, base, [7, 1, 0, 4, 2])
        state = state_of(objective, base)
        assert objective.gains(state, np.array(base)).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("kind", GAIN_KINDS)
    def test_repeated_candidates_gain_alike(self, kind):
        objective, naive = _objective_and_naive(kind, 9, seed=23)
        gains = objective.gains(state_of(objective, [2, 5]), np.array([3, 3, 8, 3, 8]))
        assert gains[0] == gains[1] == gains[3] and gains[2] == gains[4]
        _check_gains(objective, naive, [2, 5], [3, 3, 8, 3, 8])

    def test_cut_completing_the_ground_set(self):
        # base + {u} is the whole ground set, whose cut is 0: the gain is -deg(u)
        objective, naive = _objective_and_naive("cut", 8, seed=24)
        for u in range(8):
            _check_gains(objective, naive, [e for e in range(8) if e != u], [u])

    def test_no_candidates(self):
        for kind in GAIN_KINDS:
            objective, _ = _objective_and_naive(kind, 5, seed=25)
            gains = objective.gains(state_of(objective, [1]), np.empty(0, dtype=np.intp))
            assert gains.shape == (0,) and gains.dtype == np.float64
