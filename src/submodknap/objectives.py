"""Benchmark objectives: network revenue, weighted graph cut, image summary.

All three are normalized (``f(empty) = 0``) and non-negative; the cut and
image-summary objectives are non-monotone.  Cut and revenue are submodular.
Image summary is submodular only when every similarity is non-negative:
with a negative ``sim[i, u]``, ``f(u | empty)`` counts it while the coverage
term clips it at 0 past any ``v`` with ``sim[i, v] >= 0``, so a gain can
rise as the base grows.  Generated features are non-negative; a feature
file with negative entries gives signed similarities.  Each objective says
which case it is in with its ``submodular`` flag.  Objective classes
precompute adjacency structure once and are immutable afterwards, so
concurrent read-only evaluation is safe.

The objective contract.  Every objective offers what
:class:`~submodknap.core.CountingOracle` relies on, and any object that
offers it can be solved:

- ``n``: the ground-set size;
- ``__call__(ids)``: ``f(ids)`` from scratch; ids are sorted internally, so
  the value does not depend on insertion order.  ``f`` is a pure function
  of the set, with ``f(empty) = 0``;
- ``state()``: the gain state of the empty base.  Every other state is
  built from it by ``extend``;
- ``extend(state, e)``: the state of ``base + (e,)`` for an id ``e``
  outside ``base``; ``state`` itself is left unchanged;
- ``gains(state, candidates)``: the marginal gains ``f(u | base)`` of every
  candidate in one vectorized pass, exactly ``0.0`` for a candidate already
  in ``base`` (candidates may repeat).  ``candidates`` is an ``intp`` array
  of ids the oracle has already checked, so ``gains`` neither converts nor
  checks it.  Each candidate's gain is computed apart from the others', so
  the gains of a subset are bit for bit those entries of the whole list's:
  ``gains(state, candidates[pos])`` equals ``gains(state, candidates)[pos]``.
  The oracle relies on this to compute only the gains a caller reads;
- ``submodular``: a read-only flag, computed from the objective's input,
  that is True when gains can only fall as the base grows.  The solver's
  gain bounds and density greedy's pruning of dead elements are used only
  when it is True; an objective without the flag counts as False.

Float and tie policy.  A gain and the difference of two from-scratch values
are the same number up to rounding, not always bit for bit.  Gains steer
every threshold test, stopping rule and argmax, so only a comparison tied to
within rounding can go the other way.  Every value the solver reports (``X``,
``Y``, ``S1``, the best augmented prefixes, the estimator's ``S0``) comes
from ``__call__`` on the reported set, so it is the exact from-scratch
number whichever path found the set.  ``augment_prefixes`` estimates each
prefix's value from gains and calls ``__call__`` only on the sets whose
estimate comes within a relative ``BOUND_SLACK`` of the best.  It reads no
argmax of a row whose estimate, bounded from the singleton gains, falls
below ``f(order)`` by a margin that covers that slack, and reads such rows
whole after all should one come back into reach.  The gain bounds allow the
same slack.  Ties go to the lowest id among gains and to the earliest
prefix among values.
"""

from __future__ import annotations

import math

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
            key.sort()
            if np.any(key[1:] == key[:-1]):
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
    sim = _symmetrized(unit @ unit.T)
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return SimilarityMatrix(sim)


def _symmetrized(product):
    """``(product + product.T) / 2``, computed in place.

    numpy computes ``a @ a.T`` with a symmetric rank-k update, which gives
    an exactly symmetric product whose average with its transpose is the
    same bits; such a product is returned as it is, without the pass in
    transposed order and the whole-matrix copy that ``+=`` of an
    overlapping operand makes.
    """
    if not np.array_equal(product, product.T):
        product += product.T
        product /= 2.0
    return product


def _members(n, ids):
    """Boolean mask of ``ids`` over a ground set of ``n`` elements."""
    inside = np.zeros(n, dtype=bool)
    inside[ids] = True
    return inside


def _with_member(inside, e):
    """A copy of the membership mask ``inside`` with ``e`` added."""
    inside = inside.copy()
    inside[e] = True
    return inside


class _GraphObjective:
    """CSR adjacency shared by the graph objectives.

    The gain state of a base is ``(weight_to, inside)``: the edge weight
    from the base to every node, summed in base order, and the base's
    membership mask.
    """

    def __init__(self, graph):
        self.n = graph.n
        self._indptr, self._indices, self._data = graph.adjacency()

    @property
    def submodular(self):
        """Cut and revenue are submodular on any non-negative weights."""
        return True

    def state(self):
        return np.zeros(self.n), np.zeros(self.n, dtype=bool)

    def extend(self, state, e):
        weight_to, inside = state
        lo, hi = self._indptr[e], self._indptr[e + 1]
        weight_to = weight_to.copy()
        weight_to[self._indices[lo:hi]] += self._data[lo:hi]  # one entry per neighbour
        return weight_to, _with_member(inside, e)


class CutObjective(_GraphObjective):
    """Weighted cut: total weight of edges with exactly one endpoint inside."""

    def __init__(self, graph):
        super().__init__(graph)
        self._degrees = graph.weighted_degrees()

    def __call__(self, ids):
        ids = np.sort(as_id_array(ids))
        if ids.size == 0 or ids.size == self.n:
            return 0.0
        inside = _members(self.n, ids)
        pos = _row_block_positions(self._indptr, ids)
        crossing = ~inside[self._indices[pos]]
        return float(self._data[pos][crossing].sum())

    def gains(self, state, cands):
        """``deg(u) - 2 w(u, base)``: u's edges into ``base`` stop crossing,
        its other edges start to."""
        weight_to, inside = state
        return np.where(inside[cands], 0.0, self._degrees[cands] - 2.0 * weight_to[cands])


class RevenueObjective(_GraphObjective):
    """Network revenue: sum over outside nodes of the square root of the
    total edge weight linking them to the selected set."""

    def __call__(self, ids):
        ids = np.sort(as_id_array(ids))
        if ids.size == 0:
            return 0.0
        pos = _row_block_positions(self._indptr, ids)
        weight_to = np.bincount(self._indices[pos], weights=self._data[pos], minlength=self.n)
        return float(np.sqrt(weight_to[~_members(self.n, ids)]).sum())

    def gains(self, state, cands):
        """Each outside neighbour v of u gains ``sqrt(I(v) + w(u, v)) -
        sqrt(I(v))``, and u stops paying ``sqrt(I(u))``, where ``I`` is the
        edge weight from ``base``."""
        influence, inside = state
        pos = _row_block_positions(self._indptr, cands)
        nbrs = self._indices[pos]
        before = influence[nbrs]
        rise = np.where(inside[nbrs], 0.0, np.sqrt(before + self._data[pos]) - np.sqrt(before))
        owner = np.repeat(np.arange(cands.size), self._indptr[cands + 1] - self._indptr[cands])
        raised = np.bincount(owner, weights=rise, minlength=cands.size)
        return np.where(inside[cands], 0.0, raised - np.sqrt(influence[cands]))


class ImageSummaryObjective:
    """Facility-location coverage score minus a mean-similarity penalty.

    The gain state of a base is ``(cur, inside)``: every row's best
    similarity into the base (``None`` for the empty base, which covers
    nothing) and the base's membership mask.
    """

    def __init__(self, matrix):
        self.n = matrix.n
        self._sim = matrix.sim
        self._colsum = matrix.sim.sum(axis=0)
        self._submodular = bool(matrix.sim.min() >= 0.0)

    @property
    def submodular(self):
        """True when no similarity is negative."""
        return self._submodular

    def __call__(self, ids):
        ids = np.sort(as_id_array(ids))
        if ids.size == 0:
            return 0.0
        cols = self._sim[:, ids]
        return float(cols.max(axis=1).sum() - cols.sum() / self.n)

    def state(self):
        return None, np.zeros(self.n, dtype=bool)

    def extend(self, state, e):
        cur, inside = state
        row = self._sim[e]
        cur = row.copy() if cur is None else np.maximum(cur, row)
        return cur, _with_member(inside, e)

    def gains(self, state, cands):
        """``sum_i max(sim[i, u] - cur_i, 0) - colsum[u] / n``, where
        ``cur_i`` is row i's best similarity into ``base`` (for the empty
        base, ``sum_i sim[i, u] - colsum[u] / n``)."""
        cur, inside = state
        rows = self._sim[cands]  # row u is column u: the matrix is symmetric
        if cur is not None:
            rows -= cur
            np.maximum(rows, 0.0, out=rows)
        gains = rows.sum(axis=1) - self._colsum[cands] / self.n
        return np.where(inside[cands], 0.0, gains)


class ModularObjective:
    """Additive set function: the sum of fixed per-element values."""

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        self.values = values
        self.n = values.size

    @property
    def submodular(self):
        """A modular function's gains never change."""
        return True

    def __call__(self, ids):
        ids = np.sort(as_id_array(ids))
        if ids.size == 0:
            return 0.0
        return float(self.values[ids].sum())

    def state(self):
        """The gain state of a base is its membership mask."""
        return np.zeros(self.n, dtype=bool)

    def extend(self, inside, e):
        return _with_member(inside, e)

    def gains(self, inside, cands):
        return np.where(inside[cands], 0.0, self.values[cands])


class SumObjective:
    """Pointwise sum of set functions over a common ground set."""

    def __init__(self, *parts):
        if not parts:
            raise ValueError("need at least one component")
        if len({p.n for p in parts}) != 1:
            raise ValueError("components must share one ground set size")
        self.parts = parts
        self.n = parts[0].n

    @property
    def submodular(self):
        """True when every part is."""
        return all(getattr(p, "submodular", False) for p in self.parts)

    def __call__(self, ids):
        ids = as_id_array(ids)
        return float(sum(p(ids) for p in self.parts))

    def state(self):
        """The gain state of a base is the tuple of the parts' states."""
        return tuple(p.state() for p in self.parts)

    def extend(self, state, e):
        return tuple(p.extend(s, e) for p, s in zip(self.parts, state))

    def gains(self, state, cands):
        return sum(p.gains(s, cands) for p, s in zip(self.parts, state))


def revenue_costs(graph):
    """Per-node acquisition costs derived from local edge-weight mass.

    A node with total incident edge weight ``s`` costs ``1 - exp(-sqrt(s))``,
    which approaches 1 for well-connected nodes; costs are floored at 1e-6
    so isolated nodes still carry a positive cost.
    """
    costs = 1.0 - np.exp(-np.sqrt(graph.weighted_degrees()))
    return np.maximum(costs, 1e-6)


_PAIR_BLOCK = 1 << 20  # pair indicators drawn per generator call


def gen_erdos_renyi(n, p, seed):
    """Random graph: each unordered pair is an edge independently with
    probability ``p``.

    Edge weights and node costs are drawn uniformly from the open interval
    (0, 1).  The draw order is fixed, so the output is fully determined by
    ``seed``: first one uniform per unordered pair, in row-major order over
    the upper triangle ((0, 1), (0, 2), ..., (0, n-1), (1, 2), ...), drawn
    ``_PAIR_BLOCK`` at a time (k draws in a row are the same numbers as one
    draw of k); then one weight per edge, in that order; then the node
    costs.  A pair is an edge when its uniform is below ``p``.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # Row u holds the pairs (u, u+1), ..., (u, n-1); starts[u] is the
    # position of its first pair in the row-major order.
    starts = np.zeros(n - 1, dtype=np.intp)
    np.cumsum(np.arange(n - 1, 1, -1), out=starts[1:])
    pairs = n * (n - 1) // 2
    hits = [
        np.flatnonzero(rng.random(min(_PAIR_BLOCK, pairs - lo)) < p) + lo
        for lo in range(0, pairs, _PAIR_BLOCK)
    ]
    flat = np.concatenate(hits)
    u_arr = np.searchsorted(starts, flat, side="right") - 1
    v_arr = flat - starts[u_arr] + u_arr + 1
    w_arr = _open_unit(rng, flat.size)
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
                row = [float(x) for x in fields]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise DataError(f"{path}: line {lineno}: non-finite feature value")
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no feature rows found")
    feats = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(feats, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DataError(f"{path}: row {zero[0] + 1}: zero-norm feature vector")
    return similarity_from_features(feats)
