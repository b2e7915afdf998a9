"""Seeded outputs of ``ast`` pinned to exact values.

Each case builds a generated instance through the harness (n = 30, edge
probability 0.3, generator seed 7, budget a quarter of the total cost) and
solves it with the given solver seed.  The solution, both selection orders
and the ledger totals must match exactly, and the value to 1e-12 relative.
A refactor that claims to keep outputs unchanged must pass this unedited.
"""

import numpy as np
import pytest

from submodknap import AstConfig, CountingOracle, KnapsackInstance, ast
from submodknap.harness import ExperimentSpec, GenerateSource, build_objective

# (objective, seed, solution, x_order, y_order, (queries, rounds), value)
PINNED = [
    ("cut", 0, (0, 23, 14, 2, 18, 5, 1, 22, 16, 11, 4, 10),
     (0, 23, 14, 2, 18, 5, 1, 22, 16, 11, 4), (10, 21, 7, 3, 8, 13, 15, 9),
     (2890, 113), 42.47252871074981),
    ("cut", 1, (0, 23, 14, 2, 18, 1, 22, 5, 16, 15, 9, 10),
     (0, 23, 14, 2, 18, 1, 22, 5, 16, 15, 9), (10, 21, 7, 3, 8, 13, 24, 4),
     (2896, 113), 41.48762850367267),
    ("cut", 2, (0, 23, 14, 2, 18, 5, 1, 22, 16, 11, 4, 10),
     (0, 23, 14, 2, 18, 5, 1, 22, 16, 11, 4), (10, 21, 7, 3, 8, 13, 9, 15),
     (2890, 113), 42.47252871074981),
    ("revenue", 0, (7, 10, 21, 9, 23, 24, 1),
     (7, 10, 21, 9, 23, 24, 25), (19, 1, 12, 26, 16, 15, 29),
     (2895, 101), 27.442905025289498),
    ("revenue", 1, (7, 19, 1, 9, 12, 14, 16),
     (7, 19, 1, 9, 12, 14, 27), (10, 16, 2, 21, 4, 18, 0),
     (2859, 101), 26.63758390771504),
    ("revenue", 2, (7, 10, 17, 2, 24, 4, 14),
     (7, 10, 17, 2, 24, 4, 14), (19, 21, 9, 1, 16, 11, 0),
     (2881, 101), 26.581033032577235),
    ("image_summ", 0, (25, 7), (25, 7), (1, 4), (2495, 88), 22.970379677228586),
    ("image_summ", 1, (0, 7), (0, 20), (26, 7), (2421, 88), 22.886798362752998),
    ("image_summ", 2, (14, 7), (8, 22), (14, 2), (2452, 89), 22.94149634250954),
]


@pytest.mark.parametrize(
    "objective, seed, solution, x_order, y_order, snapshot, value",
    PINNED,
    ids=[f"{case[0]}-seed{case[1]}" for case in PINNED],
)
def test_seeded_output_is_pinned(objective, seed, solution, x_order, y_order, snapshot, value):
    config = AstConfig(seed=seed)
    spec = ExperimentSpec("ast", objective, GenerateSource(30, 0.3, 7), config=config)
    built, costs = build_objective(spec)
    instance = KnapsackInstance(costs, 0.25 * float(np.sort(costs).sum()))
    oracle = CountingOracle(built)
    result = ast(oracle, instance, config)
    assert result.solution == solution
    assert result.x_order == x_order
    assert result.y_order == y_order
    assert oracle.ledger.snapshot() == snapshot
    assert result.value == pytest.approx(value, rel=1e-12)
