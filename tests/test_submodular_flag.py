"""The objectives' ``submodular`` flag and what the solver does with it.

Gain bounds in the threshold loop and the pruning of dead elements in
density greedy both assume that gains can only fall as the base grows.
Each objective says whether that holds for its input; where it does not
(image_summ with signed similarities) the solver must behave exactly like
the frozen copy in ``perfbench/submodknap_baseline``, which has neither.
"""

import numpy as np
import pytest

import submodknap
from submodknap import (
    CountingOracle,
    CutObjective,
    ImageSummaryObjective,
    ModularObjective,
    RevenueObjective,
    SimilarityMatrix,
    SumObjective,
    density_greedy_trace,
    gen_erdos_renyi,
    similarity_from_features,
)
from test_lazy_filter import _outputs, baseline


def _signed(n, seed):
    """Similarities of both signs (of normal features) and costs in
    (0.1, 1.1) for an image_summ instance of ``n`` elements."""
    rng = np.random.default_rng(seed)
    sim = similarity_from_features(rng.normal(size=(n, 8))).sim
    return sim, 0.1 + rng.random(n)


def test_flag_follows_the_input():
    graph = gen_erdos_renyi(12, 0.4, seed=1)
    rng = np.random.default_rng(2)
    non_negative = ImageSummaryObjective(similarity_from_features(rng.random((12, 3))))
    signed = ImageSummaryObjective(similarity_from_features(rng.normal(size=(12, 3))))
    assert CutObjective(graph).submodular
    assert RevenueObjective(graph).submodular
    assert ModularObjective(rng.normal(size=12)).submodular
    assert non_negative.submodular
    assert not signed.submodular
    assert SumObjective(CutObjective(graph), non_negative).submodular
    assert not SumObjective(CutObjective(graph), signed).submodular
    with pytest.raises(AttributeError):
        signed.submodular = True


def test_zero_similarity_counts_as_non_negative():
    matrix = SimilarityMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert ImageSummaryObjective(matrix).submodular


class _Unflagged:
    """The cut objective, less its ``submodular`` flag, recording how many
    candidates each ``gains`` call computes."""

    def __init__(self, objective):
        self._objective = objective
        self.n = objective.n
        self.state, self.extend = objective.state, objective.extend
        self.read = []

    def __call__(self, ids):
        return self._objective(ids)

    def gains(self, state, candidates):
        self.read.append(len(candidates))
        return self._objective.gains(state, candidates)


class _Flagged(_Unflagged):
    @property
    def submodular(self):
        return True


def test_greedy_prunes_only_an_objective_flagged_submodular():
    cut = CutObjective(gen_erdos_renyi(30, 0.3, seed=4))
    instance = submodknap.KnapsackInstance(np.ones(30), 12.0)
    runs = []
    for wrapper in (_Unflagged, _Flagged):
        objective = wrapper(cut)
        oracle = CountingOracle(objective)
        trace = density_greedy_trace(oracle, instance)
        runs.append((trace.order, oracle.ledger.snapshot(), sum(objective.read)))
    (order, (queries, rounds), read), (flagged_order, flagged_charges, flagged_read) = runs
    assert flagged_order == order
    assert flagged_charges == (queries, rounds)
    assert read == queries - rounds  # every candidate of every round
    assert flagged_read < read


@pytest.mark.parametrize("seed", range(30))
def test_signed_image_summ_solves_match_the_frozen_copy(seed):
    sim, costs = _signed(25, seed)
    results = []
    for package in (submodknap, baseline):
        objectives = package.objectives
        objective = objectives.ImageSummaryObjective(objectives.SimilarityMatrix(sim))
        instance = package.KnapsackInstance(costs, 0.3 * float(np.sort(costs).sum()))
        oracle = package.CountingOracle(objective)
        result = package.ast(oracle, instance, package.AstConfig(seed=seed))
        results.append((result, oracle.ledger.snapshot()))
    (result, (queries, rounds)), (old, (old_queries, old_rounds)) = results
    assert result.num_thresholds > 0  # a non-trivial solve
    assert _outputs(result) == _outputs(old)
    assert queries <= old_queries
    assert old_rounds - rounds == result.skipped_steps
