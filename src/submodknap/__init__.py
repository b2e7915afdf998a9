"""Low-adaptivity non-monotone submodular maximization under a knapsack.

The package is organized around a counted value-oracle model: algorithms see
a set function only through batched queries, and the number of batches (the
adaptive rounds) measures how parallel a run would be.  ``ast`` is the main
solver; ``baselines`` and ``brute_force_opt`` exist to judge it.
"""

from .alternating import AstConfig, AstResult, ast, augment_prefixes, split_ground, threshold_loop
from .baselines import brute_force_opt, density_greedy, density_greedy_trace, random_feasible
from .core import (
    BatchContractError,
    CountingOracle,
    KnapsackInstance,
    QueryLedger,
    as_id_array,
)
from .estimator import (
    ESTIMATORS,
    GuessGrid,
    OptEstimate,
    estimate_greedy,
    gamma_and_guesses,
)
from .objectives import (
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
from .randbatch import RandBatchOutput, RandBatchParams, get_seq, rand_batch
from .unconstrained import unsub_max

__version__ = "0.1.0"

__all__ = [
    "AstConfig",
    "AstResult",
    "BatchContractError",
    "CountingOracle",
    "CutObjective",
    "DataError",
    "ESTIMATORS",
    "GuessGrid",
    "ImageSummaryObjective",
    "KnapsackInstance",
    "ModularObjective",
    "OptEstimate",
    "ParseError",
    "QueryLedger",
    "RandBatchOutput",
    "RandBatchParams",
    "RevenueObjective",
    "SimilarityMatrix",
    "SumObjective",
    "WeightedGraph",
    "as_id_array",
    "ast",
    "augment_prefixes",
    "brute_force_opt",
    "density_greedy",
    "density_greedy_trace",
    "estimate_greedy",
    "gamma_and_guesses",
    "gen_erdos_renyi",
    "get_seq",
    "load_edge_list",
    "load_features",
    "rand_batch",
    "random_feasible",
    "revenue_costs",
    "similarity_from_features",
    "split_ground",
    "threshold_loop",
    "unsub_max",
]
