"""Tour of the three benchmark objectives and their instance builders.

Shows hand-checkable values on tiny graphs, the cost models, and the
non-monotone behavior that motivates the solver's design.
"""

import numpy as np

import submodknap as sk

# --- weighted cut -----------------------------------------------------------
triangle = sk.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
print("cut on a unit triangle:")
print("  f({0})     =", sk.cut_value(triangle, (0,)), "(two incident edges)")
print("  f({0,1})   =", sk.cut_value(triangle, (0, 1)))
print("  f(V)       =", sk.cut_value(triangle, (0, 1, 2)), "(cut collapses: non-monotone)")

# --- network revenue --------------------------------------------------------
star = sk.WeightedGraph(4, [(0, 1, 1.0), (0, 2, 4.0), (0, 3, 9.0)])
print("\nrevenue on a star with edge weights 1, 4, 9:")
print("  f({center}) =", sk.revenue_value(star, (0,)), "(sqrt(1)+sqrt(4)+sqrt(9))")
costs = sk.revenue_costs(star)
print("  node costs  =", np.round(costs, 4), "(saturating in local edge mass)")

# --- image summarization ----------------------------------------------------
feats = np.random.default_rng(0).random((6, 16))
matrix = sk.similarity_from_features(feats)
print("\nimage summary on 6 random feature rows:")
for size in (1, 3, 6):
    ids = tuple(range(size))
    print(f"  f(first {size}) = {sk.image_summ_value(matrix, ids):.4f}")
print("  (coverage saturates while the redundancy penalty keeps growing)")

# --- generated instances ----------------------------------------------------
graph = sk.gen_erdos_renyi(100, 0.1, seed=3)
print(f"\ngenerated graph: {graph.n} nodes, {graph.num_edges} edges,")
print(f"  node costs in ({graph.node_costs.min():.4f}, {graph.node_costs.max():.4f})")

# every objective is submodular: gains shrink as the context grows
objective = sk.CutObjective(graph)
empty_gain = objective(np.array([5])) - 0.0
big = np.arange(40)
big_gain = objective(np.append(big, 5)) - objective(big)
print(f"\ndiminishing returns for element 5: gain {empty_gain:.3f} alone, "
      f"{big_gain:.3f} after 40 others")
