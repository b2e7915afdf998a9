"""Checks on every solve, computed apart from the program.

The reference values come from the defining formulas applied to the raw
generated arrays (edge lists, feature vectors), not from the
``submodknap.objectives`` classes, and sums go through ``math.fsum``.  This
module imports nothing from ``submodknap``; it reads ``AstResult`` fields by
name only.
"""

import math

import numpy as np

VALUE_RTOL = 1e-9
# Candidates the solver's final argmax compares.  S0 (the estimator's own
# solution) is recorded in ``candidates`` but left out of that argmax.
COMPARED = ("X", "Y", "best_x_aug", "best_y_aug", "S1")


class Reference:
    """One objective given by its formula over generated arrays.

    ``kind`` is ``cut`` or ``revenue`` (with ``edges = (u, v, w)`` arrays of
    an undirected graph on ``n`` nodes) or ``image_summ`` (with ``features``,
    one row per element, compared by cosine similarity).
    """

    def __init__(self, kind, n, costs, budget, edges=None, features=None):
        self.kind = kind
        self.n = n
        self.costs = np.asarray(costs, dtype=np.float64)
        self.budget = float(budget)
        if kind == "image_summ":
            unit = features / np.linalg.norm(features, axis=1)[:, None]
            self.sim = unit @ unit.T
        else:
            self.edge_u, self.edge_v, self.edge_w = edges

    def value(self, ids):
        ids = sorted(int(e) for e in ids)
        if not ids:
            return 0.0
        if self.kind == "image_summ":
            # sum over all i of max_{j in S} sim(i, j), minus
            # (1/n) * sum over all i and all j in S of sim(i, j)
            cols = self.sim[:, ids]
            coverage = math.fsum(cols.max(axis=1).tolist())
            return coverage - math.fsum(cols.ravel().tolist()) / self.n
        inside = np.zeros(self.n, dtype=bool)
        inside[ids] = True
        u, v, w = self.edge_u, self.edge_v, self.edge_w
        if self.kind == "cut":
            # weight of the edges with exactly one endpoint in S
            return math.fsum(w[inside[u] != inside[v]].tolist())
        # revenue: sum over v outside S of sqrt(weight of edges from S to v)
        inside = inside.tolist()
        weight_to = [0.0] * self.n
        for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
            if inside[a] and not inside[b]:
                weight_to[b] += c
            elif inside[b] and not inside[a]:
                weight_to[a] += c
        return math.fsum(math.sqrt(x) for x in weight_to)

    def cost(self, ids):
        return math.fsum(self.costs[int(e)] for e in ids)


def check_solve(ref, result, total_queries, total_rounds):
    """Problems found in one ``ast`` result; an empty list means it passed.

    ``total_queries`` and ``total_rounds`` are the oracle ledger's totals
    for the whole call, estimator included.
    """
    problems = []
    solution = tuple(result.solution)
    if len(set(solution)) != len(solution):
        problems.append("solution repeats an element")
    cost = ref.cost(solution)
    if cost > ref.budget:
        problems.append(f"infeasible: cost {cost!r} > budget {ref.budget!r}")
    expected = ref.value(solution)
    if not math.isclose(result.value, expected, rel_tol=VALUE_RTOL, abs_tol=VALUE_RTOL):
        problems.append(f"value {result.value!r} but the formula gives {expected!r}")
    overlap = set(result.x_order) & set(result.y_order)
    if overlap:
        problems.append(f"x_order and y_order share {sorted(overlap)[:5]}")
    compared = [result.candidates[k][1] for k in COMPARED if k in result.candidates]
    if not compared or result.value != max(compared):
        problems.append(f"value {result.value!r} is not the best compared candidate {compared}")
    if result.boost_rounds != 2:
        problems.append(f"boost phase took {result.boost_rounds} rounds, not 2")
    if result.estimator_rounds + result.ast_rounds != total_rounds:
        problems.append(
            f"estimator {result.estimator_rounds} + solver {result.ast_rounds} rounds"
            f" != ledger {total_rounds}"
        )
    if result.estimator_queries + result.ast_queries != total_queries:
        problems.append(
            f"estimator {result.estimator_queries} + solver {result.ast_queries} queries"
            f" != ledger {total_queries}"
        )
    return problems
