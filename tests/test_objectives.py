import math

import numpy as np
import pytest

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
    cut_value,
    gen_erdos_renyi,
    image_summ_value,
    load_edge_list,
    load_features,
    revenue_costs,
    revenue_value,
    similarity_from_features,
)
from conftest import naive_cut, naive_image_summary, naive_revenue


class TestRevenue:
    def test_empty_set(self, star_149):
        assert revenue_value(star_149, ()) == 0.0

    def test_star_center(self, star_149):
        # leaves contribute sqrt(1) + sqrt(4) + sqrt(9)
        assert revenue_value(star_149, (0,)) == pytest.approx(6.0)

    def test_full_set_is_zero(self, star_149):
        assert revenue_value(star_149, (0, 1, 2, 3)) == 0.0

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

    def test_growing_variant(self):
        graph = WeightedGraph(2, [(0, 1, 4.0)])
        costs = revenue_costs(graph, variant="growing")
        assert costs[0] == pytest.approx(math.exp(2.0) - 1.0)

    def test_unknown_variant_rejected(self):
        graph = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="variant"):
            revenue_costs(graph, variant="bogus")


class TestCut:
    def test_empty_and_full(self, unit_triangle):
        assert cut_value(unit_triangle, ()) == 0.0
        assert cut_value(unit_triangle, (0, 1, 2)) == 0.0

    def test_triangle_singleton(self, unit_triangle):
        assert cut_value(unit_triangle, (0,)) == 2.0

    def test_path_middle_node(self, unit_path):
        assert cut_value(unit_path, (1,)) == 2.0

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
        assert image_summ_value(matrix, ()) == 0.0

    def test_two_identical_images(self):
        matrix = SimilarityMatrix(np.ones((2, 2)))
        # coverage 1 + 1, penalty (1/2)(1 + 1)
        assert image_summ_value(matrix, (0,)) == pytest.approx(1.0)

    def test_single_image_ground_set(self):
        matrix = SimilarityMatrix(np.ones((1, 1)))
        assert image_summ_value(matrix, (0,)) == pytest.approx(0.0)

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
