"""Benchmark objectives: network revenue, weighted graph cut, image summary.

All three are normalized (``f(empty) = 0``) non-negative submodular set
functions; the cut and image-summary objectives are non-monotone.  Objective
classes precompute adjacency structure once and are immutable afterwards, so
concurrent read-only evaluation is safe.  Every evaluation is from scratch:
ids are sorted internally, making values independent of insertion order.
"""

from __future__ import annotations

import numpy as np

from .core import as_id_array


class ParseError(ValueError):
    """A data file line could not be parsed."""


class DataError(ValueError):
    """A data file parsed but contains invalid values."""


def _open_unit(rng, size):
    """Uniform draws from the open interval (0, 1): zeros are redrawn."""
    vals = rng.random(size)
    while True:
        zeros = np.nonzero(vals == 0.0)[0]
        if zeros.size == 0:
            return vals
        vals[zeros] = rng.random(zeros.size)


def _row_block_positions(indptr, ids):
    """Flat positions of the CSR entries belonging to the given rows."""
    starts = indptr[ids]
    counts = indptr[ids + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    offsets = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.intp) + np.repeat(starts - offsets, counts)


class WeightedGraph:
    """Undirected graph with non-negative edge weights.

    Edges are (u, v, w) triples with u != v and no repeated unordered pair.
    ``node_costs`` optionally carries per-node knapsack costs produced by the
    instance generators.
    """

    def __init__(self, n, edges, node_costs=None):
        edge_list = list(edges)
        count = len(edge_list)
        u = np.fromiter((e[0] for e in edge_list), dtype=np.intp, count=count)
        v = np.fromiter((e[1] for e in edge_list), dtype=np.intp, count=count)
        w = np.fromiter((e[2] for e in edge_list), dtype=np.float64, count=count)
        self._init_arrays(n, u, v, w, node_costs)

    @classmethod
    def from_arrays(cls, n, edge_u, edge_v, edge_w, node_costs=None):
        graph = cls.__new__(cls)
        graph._init_arrays(
            n,
            np.asarray(edge_u, dtype=np.intp),
            np.asarray(edge_v, dtype=np.intp),
            np.asarray(edge_w, dtype=np.float64),
            node_costs,
        )
        return graph

    def _init_arrays(self, n, u, v, w, node_costs):
        n = int(n)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if not (u.shape == v.shape == w.shape) or u.ndim != 1:
            raise ValueError("edge arrays must be 1-D and equally long")
        if u.size:
            if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("edge weights must be finite and non-negative")
            key = np.minimum(u, v) * np.int64(n) + np.maximum(u, v)
            if np.unique(key).size != key.size:
                raise ValueError("duplicate undirected edge")
        self.n = n
        self.edge_u = u
        self.edge_v = v
        self.edge_w = w
        if node_costs is not None:
            node_costs = np.asarray(node_costs, dtype=np.float64)
            if node_costs.shape != (n,):
                raise ValueError("node_costs must have one entry per node")
        self.node_costs = node_costs
        self._csr = None

    @property
    def num_edges(self):
        return self.edge_u.size

    @property
    def edges(self):
        return [
            (int(a), int(b), float(c))
            for a, b, c in zip(self.edge_u, self.edge_v, self.edge_w)
        ]

    def adjacency(self):
        """CSR arrays (indptr, indices, weights) of the symmetrized graph."""
        if self._csr is None:
            src = np.concatenate([self.edge_u, self.edge_v])
            dst = np.concatenate([self.edge_v, self.edge_u])
            wts = np.concatenate([self.edge_w, self.edge_w])
            order = np.argsort(src, kind="stable")
            counts = np.bincount(src, minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.intp)
            np.cumsum(counts, out=indptr[1:])
            self._csr = (indptr, dst[order], wts[order])
        return self._csr

    def weighted_degrees(self):
        """Total incident edge weight per node."""
        ends = np.concatenate([self.edge_u, self.edge_v])
        wts = np.concatenate([self.edge_w, self.edge_w])
        return np.bincount(ends, weights=wts, minlength=self.n)


class SimilarityMatrix:
    """Symmetric matrix of pairwise similarities in [-1, 1] with unit diagonal."""

    def __init__(self, sim):
        sim = np.asarray(sim, dtype=np.float64)
        if sim.ndim != 2 or sim.shape[0] != sim.shape[1] or sim.shape[0] == 0:
            raise ValueError("similarity matrix must be square and non-empty")
        if not np.array_equal(sim, sim.T):
            raise ValueError("similarity matrix must be symmetric")
        if not np.all(np.diagonal(sim) == 1.0):
            raise ValueError("similarity matrix diagonal must be exactly 1")
        if sim.min() < -1.0 or sim.max() > 1.0:
            raise ValueError("similarities must lie in [-1, 1]")
        self.sim = sim
        self.n = sim.shape[0]


def similarity_from_features(feats):
    """Cosine similarities of the rows of ``feats`` (none of zero norm).

    The product is symmetrized and clipped to [-1, 1], and the diagonal set
    to exactly 1, so rounding cannot break the matrix's invariants.
    """
    unit = feats / np.linalg.norm(feats, axis=1)[:, None]
    sim = unit @ unit.T
    sim += sim.T
    sim /= 2.0
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return SimilarityMatrix(sim)


class CutObjective:
    """Weighted cut: total weight of edges with exactly one endpoint inside."""

    def __init__(self, graph):
        self.n = graph.n
        self._indptr, self._indices, self._data = graph.adjacency()

    def __call__(self, ids):
        ids = np.sort(as_id_array(ids))
        if ids.size == 0 or ids.size == self.n:
            return 0.0
        inside = np.zeros(self.n, dtype=bool)
        inside[ids] = True
        pos = _row_block_positions(self._indptr, ids)
        crossing = ~inside[self._indices[pos]]
        return float(self._data[pos][crossing].sum())


class RevenueObjective:
    """Network revenue: sum over outside nodes of the square root of the
    total edge weight linking them to the selected set."""

    def __init__(self, graph):
        self.n = graph.n
        self._indptr, self._indices, self._data = graph.adjacency()

    def __call__(self, ids):
        ids = np.sort(as_id_array(ids))
        if ids.size == 0:
            return 0.0
        inside = np.zeros(self.n, dtype=bool)
        inside[ids] = True
        pos = _row_block_positions(self._indptr, ids)
        influence = np.bincount(
            self._indices[pos], weights=self._data[pos], minlength=self.n
        )
        return float(np.sqrt(influence[~inside]).sum())


class ImageSummaryObjective:
    """Facility-location coverage score minus a mean-similarity penalty."""

    def __init__(self, matrix):
        self.n = matrix.n
        self._sim = matrix.sim

    def __call__(self, ids):
        ids = np.sort(as_id_array(ids))
        if ids.size == 0:
            return 0.0
        cols = self._sim[:, ids]
        return float(cols.max(axis=1).sum() - cols.sum() / self.n)


class ModularObjective:
    """Additive set function: the sum of fixed per-element values."""

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        self.values = values
        self.n = values.size

    def __call__(self, ids):
        ids = np.sort(as_id_array(ids))
        if ids.size == 0:
            return 0.0
        return float(self.values[ids].sum())


class SumObjective:
    """Pointwise sum of set functions over a common ground set."""

    def __init__(self, *parts):
        if not parts:
            raise ValueError("need at least one component")
        if len({p.n for p in parts}) != 1:
            raise ValueError("components must share one ground set size")
        self.parts = parts
        self.n = parts[0].n

    def __call__(self, ids):
        ids = as_id_array(ids)
        return float(sum(p(ids) for p in self.parts))


def cut_value(graph, ids):
    """Weighted cut of a node set (see :class:`CutObjective`)."""
    return CutObjective(graph)(as_id_array(ids))


def revenue_value(graph, ids):
    """Revenue of a node set (see :class:`RevenueObjective`)."""
    return RevenueObjective(graph)(as_id_array(ids))


def image_summ_value(matrix, ids):
    """Image-summary score of a set (see :class:`ImageSummaryObjective`)."""
    return ImageSummaryObjective(matrix)(as_id_array(ids))


def revenue_costs(graph, floor=1e-6, variant="saturating"):
    """Per-node acquisition costs derived from local edge-weight mass.

    ``saturating`` (default) uses ``1 - exp(-sqrt(s))`` where ``s`` is the
    node's total incident edge weight; it approaches 1 for well-connected
    nodes.  ``growing`` uses ``exp(sqrt(s)) - 1`` instead.  Both are floored
    at ``floor`` so isolated nodes still carry a positive cost.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    strength = graph.weighted_degrees()
    root = np.sqrt(strength)
    if variant == "saturating":
        costs = 1.0 - np.exp(-root)
    elif variant == "growing":
        costs = np.exp(root) - 1.0
    else:
        raise ValueError(f"unknown cost variant: {variant!r}")
    return np.maximum(costs, floor)


def gen_erdos_renyi(n, p, seed):
    """Random graph: each unordered pair is an edge independently with
    probability ``p``.

    Edge weights and node costs are drawn uniformly from the open interval
    (0, 1).  Draw order is fixed (pair indicators row by row, then edge
    weights, then node costs) so the output is fully determined by ``seed``.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    heads = []
    tails = []
    for u in range(n - 1):
        hits = np.nonzero(rng.random(n - 1 - u) < p)[0]
        if hits.size:
            heads.append(np.full(hits.size, u, dtype=np.intp))
            tails.append(hits + u + 1)
    if heads:
        u_arr = np.concatenate(heads)
        v_arr = np.concatenate(tails)
        w_arr = _open_unit(rng, u_arr.size)
    else:
        u_arr = np.empty(0, dtype=np.intp)
        v_arr = np.empty(0, dtype=np.intp)
        w_arr = np.empty(0, dtype=np.float64)
    node_costs = _open_unit(rng, n)
    return WeightedGraph.from_arrays(n, u_arr, v_arr, w_arr, node_costs=node_costs)


def load_edge_list(path):
    """Read a ``<u> <v> <w>`` edge-list text file into a WeightedGraph.

    Lines starting with ``#`` are comments.  Node count is one more than the
    largest id seen.  Self-loops, duplicate pairs, malformed fields, and
    non-finite weights are rejected with the offending line number.
    """
    edges = []
    seen = set()
    max_id = -1
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"{path}: line {lineno}: expected '<u> <v> <w>'")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if u < 0 or v < 0:
                raise ParseError(f"{path}: line {lineno}: negative node id")
            if u == v:
                raise DataError(f"{path}: line {lineno}: self-loop on node {u}")
            if not np.isfinite(w):
                raise DataError(f"{path}: line {lineno}: non-finite weight")
            if w < 0:
                raise DataError(f"{path}: line {lineno}: negative weight")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise DataError(f"{path}: line {lineno}: duplicate edge {pair}")
            seen.add(pair)
            edges.append((u, v, w))
            max_id = max(max_id, u, v)
    if not edges:
        raise ParseError(f"{path}: no edges found")
    return WeightedGraph(max_id + 1, edges)


def load_features(path):
    """Read a CSV of feature rows and return their cosine similarities.

    Every row must have the same number of decimal fields; zero-norm rows
    cannot be normalized and are rejected.
    """
    rows = []
    width = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                rows.append([float(x) for x in fields])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not all(np.isfinite(v) for v in rows[-1]):
                raise DataError(f"{path}: line {lineno}: non-finite feature value")
    if not rows:
        raise ParseError(f"{path}: no feature rows found")
    feats = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(feats, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DataError(f"{path}: row {zero[0] + 1}: zero-norm feature vector")
    return similarity_from_features(feats)
