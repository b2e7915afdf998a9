"""Knapsack instances, set-function oracles, and query/round accounting.

Every algorithm in this package talks to a set function exclusively through
:class:`CountingOracle`, which charges one query per set evaluation and one
adaptive round per batch, no matter how large the batch is.  The batch is the
unit of parallelism: everything inside a single batch could run concurrently,
so the number of batches is what measures an algorithm's sequential depth.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


_INT = frozenset({int})  # the one id type a tuple base may hold to be its own key
_BOOLS = frozenset({bool, np.bool_})


class BatchContractError(ValueError):
    """An adaptive round must contain at least one query."""


def as_id_array(ids):
    """Normalize a collection of element ids to a 1-D integer array.

    Non-integer ids (floats, booleans such as a mask) raise ``ValueError``
    instead of being cast to other ids, also where numpy would cast a bool
    among ints to an int; an empty collection is always valid.  A list or
    tuple of Python ints is converted straight to ``intp``; any other
    collection, and ints past its range, go through numpy's type inference.
    """
    if not isinstance(ids, np.ndarray):
        if not isinstance(ids, (list, tuple)):
            ids = list(ids)
        if _INT.issuperset(map(type, ids)):
            try:
                return np.array(ids, dtype=np.intp)
            except OverflowError:  # past int64: inferred as uint64 or object below
                pass
        if _BOOLS.intersection(map(type, ids)):
            raise ValueError("element ids must be integers, not bool")
        ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError("element ids must form a 1-D collection")
    if ids.dtype.kind not in "iu":
        if ids.size:
            raise ValueError(f"element ids must be integers, not {ids.dtype}")
        return np.empty(0, dtype=np.intp)
    return ids.astype(np.intp, copy=False)


_UINTP = np.dtype(np.uintp)
_max = np.maximum.reduce  # what ndarray.max calls, without its Python wrapper
_sum = np.add.reduce  # and ndarray.sum


def checked_ids(ids, n):
    """:func:`as_id_array` of ``ids``, with ``ValueError`` unless every id
    lies in ``[0, n)``.  A negative id reads as a ``uintp`` past every id,
    so one max checks both ends.  Repeats are not looked for."""
    arr = as_id_array(ids)
    if arr.size and _max(arr.view(_UINTP)) >= n:
        raise ValueError("element id out of range for this ground set")
    return arr


@dataclass(frozen=True)
class KnapsackInstance:
    """Ground set of ``n`` elements with positive costs and a budget.

    Every cost and the budget must be a normal float (at least
    ``np.finfo(float).tiny``), and the costs' sum must be finite: the
    sampler's mass rule compares a pool's cost with ``1 - epsilon`` times
    it, and a subnormal or infinite cost can come back unchanged, so that
    no sweep ever ends.

    The cost function is modular: the cost of a set is the sum of its element
    costs, accumulated in ascending-id order so feasibility checks are
    reproducible.  Feasibility is inclusive (total cost may equal the budget).
    Elements whose individual cost exceeds the budget stay in the ground set;
    algorithms filter them at their own boundaries.
    """

    costs: np.ndarray
    budget: float

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.ndim != 1 or costs.size == 0:
            raise ValueError("costs must be a non-empty 1-D array")
        with np.errstate(over="ignore"):  # an inf sum is rejected, not warned about
            finite = np.isfinite(costs.sum())
        if not finite or np.any(costs < np.finfo(float).tiny):
            raise ValueError("costs must be at least np.finfo(float).tiny, with a finite sum")
        if not (np.isfinite(self.budget) and self.budget >= np.finfo(float).tiny):
            raise ValueError("budget must be finite and at least np.finfo(float).tiny")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "budget", float(self.budget))

    @property
    def n(self):
        return self.costs.size

    @property
    def max_feasible_cardinality(self):
        """Largest number of elements any feasible set can contain."""
        prefix = np.cumsum(np.sort(self.costs))
        return int(np.searchsorted(prefix, self.budget, side="right"))

    def cost_of(self, ids):
        """Total cost of the ids as given (a repeated id counts twice),
        summed in ascending-id order.  An id outside the ground set raises
        ``ValueError``: the ends of the array it sorts anyway show one, so
        it needs no :func:`checked_ids` pass."""
        arr = as_id_array(ids)
        if arr.size == 0:
            return 0.0
        if arr is ids:  # the caller's own array: sort a copy
            arr = arr.copy()
        arr.sort()
        if arr.item(0) < 0 or arr.item(-1) >= self.costs.size:
            raise ValueError("element id out of range for this ground set")
        return float(_sum(self.costs[arr]))

    def feasible(self, ids):
        return self.cost_of(ids) <= self.budget


@dataclass
class QueryLedger:
    """Monotone counters for oracle traffic.

    ``adaptive_rounds`` advances by exactly one per batch call and
    ``total_queries`` by the batch size, so after any run the round count
    equals the number of batches issued and the query count equals the sum of
    their sizes.
    """

    total_queries: int = 0
    adaptive_rounds: int = 0

    def snapshot(self):
        return (self.total_queries, self.adaptive_rounds)

    def charge(self, queries):
        if queries < 1:
            raise BatchContractError("a round must contain at least one query")
        self.total_queries += queries
        self.adaptive_rounds += 1


class CountingOracle:
    """Counted access to a non-negative normalized set function.

    The wrapped objective offers ``n``, ``__call__``, ``state()``,
    ``extend`` and ``gains`` and may offer ``submodular``, as the objective
    contract in :mod:`submodknap.objectives` sets out; every objective there
    does.  The oracle builds every base's gain state by extension from the
    empty state.

    Charged when asked, computed when read.  A round is checked and charged
    in full when it is issued, as if every answer were computed then; the
    gains themselves are computed when the caller reads them (see
    :class:`ExtensionGains`).  So a caller that stops reading early, or
    reads only some candidates, pays the same charges and gets the same
    numbers, only sooner.

    Cache.  Each oracle keeps the gain states of the ``CACHE_SIZE`` = 256
    bases whose gains it computed most recently, keyed by the exact id
    sequence (a state's last bits may depend on the order); using the 257th
    evicts the least recently used.  The bound is fixed; nothing sets it.  A
    base whose state is cached is not checked again; any other base is
    checked in full, unless it is a row of a prefix round (below).  A
    base's state extends its parent's (the base minus its last id) by that
    id when the parent's is cached at the time it is read, and otherwise
    extends the empty state by every id of the base in turn.
    Since the objective is pure, the cache changes no answer and no charge:
    every base and every extension is charged as if evaluated afresh.

    Tuple bases.  A base passed as a tuple of Python ints is used as its
    own key, after a check of every id's type; any other base (a list, an
    array, or a tuple holding numpy, float or bool ids) is converted with
    :func:`as_id_array` first.  Callers that grow bases as tuples (the
    sampler's sweeps, density greedy) skip that conversion; answers,
    charges and errors are the same either way.

    Prefix rounds.  A round of nested bases, ``(base + seq[:t],
    candidates[t])`` for t = 0..d, passes as one :class:`PrefixRound`: a
    sampler sweep, whose rows share its survivors, or prefix augmentation,
    whose rows are an order's prefixes from the empty base on.  The oracle
    checks the base, row 0's candidates, then each drawn id of ``seq`` (a
    Python int, in range, in neither the base nor earlier in ``seq``) and
    the candidates of the row it opens when they are another object than
    the row before's; it charges ``sum(len(candidates[t]) + 1)`` and builds
    row t's key only when row t is read.  That is one check per round,
    whatever the bases' lengths, and the first error raised is the one
    ``list()`` of the round raises: a round that draws anything but Python
    ints is checked as that list.

    Float and tie policy.  Extension queries are answered with the gains
    ``f(u | base)`` the objective returns; no base value is computed for
    them.  Gains steer every threshold test, stopping rule and argmax.
    Every value the solver reports (``X``, ``Y``, ``S1``, the best
    augmented prefixes, the estimator's ``S0``) is ``__call__`` of the
    reported set, read with :meth:`exact_value` once the set has been
    charged.  A caller that skips gains or values another caller would
    compute (the threshold loop's filter, density greedy, the rows and the
    value estimates of ``augment_prefixes``) allows a relative slack of
    ``BOUND_SLACK`` = 1e-9 for rounding, so it gets the same answer as long
    as a gain exceeds an earlier one past a smaller base, or the difference
    of two from-scratch values, by less than that.  Ties go to the lowest
    id within a gains array and to the earliest set among equal values.
    The sampler's stopping rules over fewer than 8 survivors are summed on
    Python floats, one by one from 0.0, which is how ``np.add.reduce`` adds
    fewer than 8 doubles, so they are bit-identical to the numpy rules
    (see :func:`submodknap.randbatch._small_rules`).

    Parameters
    ----------
    objective:
        The set function; see above for what it must offer.
    """

    CACHE_SIZE = 256

    def __init__(self, objective):
        self.objective = objective
        self.n = int(objective.n)
        self.ledger = QueryLedger()
        # base id tuple -> gain state, least recently used first
        self._states = {}

    def _check_base(self, key):
        """Raise ``ValueError`` unless the base ``key``, a tuple of Python
        ints, is a set of ids of this ground set."""
        if key:
            if min(key) < 0 or max(key) >= self.n:
                raise ValueError("element id out of range for this ground set")
            if len(set(key)) != len(key):
                raise ValueError("a queried set repeats an element id")

    def _checked_key(self, base):
        """The cache key of ``base``, checked unless its state is cached.  A
        tuple of Python ints is its own key; anything else (an array, a
        list, numpy or float ids) goes through :func:`as_id_array`.  Every
        id's type is checked, since ``(1.0, 2) == (1, 2)`` as a key."""
        if type(base) is tuple and _INT.issuperset(map(type, base)):
            key = base
        else:
            key = tuple(as_id_array(base).tolist())
        if key not in self._states:
            self._check_base(key)
        return key

    def _checked_candidates(self, candidates):
        """``candidates`` as a checked id array of the oracle's own."""
        arr = checked_ids(candidates, self.n)
        if arr is candidates:  # read later: keep the ids of now
            arr = arr.copy()
        return arr

    def _state(self, key):
        """The gain state of a checked base, extended from its parent's when
        that is cached and from the empty state otherwise, as the most
        recently used entry; past ``CACHE_SIZE`` entries the least recently
        used goes."""
        states = self._states
        state = states.pop(key, None)
        if state is None:
            parent = states.get(key[:-1]) if key else None
            state, ids = (self.objective.state(), key) if parent is None else (parent, key[-1:])
            for e in ids:
                state = self.objective.extend(state, e)
            if len(states) >= self.CACHE_SIZE:
                del states[next(iter(states))]
        states[key] = state
        return state

    def _gains(self, key, cands):
        """``f(u | base)`` for each checked candidate id in ``cands``."""
        if not cands.size:
            return np.empty(0)
        return self.objective.gains(self._state(key), cands)

    def evaluate(self, ids):
        """Value of one set: one query, one adaptive round."""
        return self.evaluate_batch([ids])[0]

    def evaluate_batch(self, sets):
        """Evaluate many sets in a single adaptive round.

        Results are element-wise identical to sequential :meth:`evaluate`
        calls; only the accounting differs (one round for the whole batch).
        """
        groups = [(s, ()) for s in sets]
        self.evaluate_extensions(groups)
        return [self.exact_value(s) for s, _ in groups]

    def evaluate_extensions(self, groups):
        """Marginal gains past base sets, in one round.

        ``groups`` is a sequence of ``(base, candidates)`` pairs.  For each
        pair the oracle answers ``f(u | base)`` for every candidate ``u`` with
        one ``gains`` call on the base's gain state; a candidate already
        inside its base gains exactly 0.  The round is charged
        ``sum(len(candidates) + 1)`` queries, as if ``f(base)`` and every
        ``f(base + {u})`` were evaluated: one per base, one per extension.

        Every id is checked and the whole round is charged here, before
        anything is evaluated: an id outside the ground set or a base that
        repeats an id raises ``ValueError`` and charges nothing.  Candidates
        may repeat; each is its own query.  Returns an
        :class:`ExtensionGains`, one gains array per group aligned to the
        candidate order (empty for a group with no candidates), each
        computed when it is read.  A :class:`PrefixRound` is
        checked as one round (see the class docstring's "Prefix rounds").
        """
        if type(groups) is PrefixRound:
            return self._prefix_round(groups)
        prepared = []
        queries = 0
        last = object()  # the candidates of the previous group
        for base, candidates in groups:
            key = self._checked_key(base)
            if candidates is not last:  # consecutive groups often share one array
                cand_arr = self._checked_candidates(candidates)
                last = candidates
            prepared.append((key, cand_arr))
            queries += cand_arr.size + 1
        self.ledger.charge(queries)
        return ExtensionGains(self, prepared)

    def _prefix_round(self, groups):
        """Check and charge a :class:`PrefixRound` in the order the plain
        list of its groups is checked; one that draws anything but a Python
        int is checked as that list."""
        key = self._checked_key(groups.base)
        rows = groups.candidates
        last = rows[0]
        cands = self._checked_candidates(last)
        checked = [cands] * len(rows)
        queries = len(rows) * (cands.size + 1)
        n = self.n
        seen = set(key)
        t = 0
        for e in groups.seq:
            if type(e) is not int:  # nothing charged yet: check it as the list
                return CountingOracle.evaluate_extensions(self, list(groups))
            if not 0 <= e < n:
                raise ValueError("element id out of range for this ground set")
            if e in seen:
                raise ValueError("a queried set repeats an element id")
            seen.add(e)
            t += 1
            if rows[t] is not last:  # rows t on take these candidates instead
                last = rows[t]
                left = len(rows) - t
                queries -= left * cands.size
                cands = self._checked_candidates(last)
                queries += left * cands.size
                checked[t:] = [cands] * left
        self.ledger.charge(queries)
        return ExtensionGains(self, PrefixRound(key, groups.seq, checked))

    def exact_value(self, ids):
        """From-scratch ``f(ids)`` of a set already charged as a base or an
        extension (or of the empty set, 0 by contract); charges nothing.
        Every value a caller reports is read from here; ``__call__`` raises
        :meth:`evaluate`'s ``ValueError`` for an out-of-range or repeated id."""
        return float(self.objective(ids))

    def marginal_batch(self, base, candidates):
        """Marginal gains ``f(u | base)`` for each candidate as an array, in
        one round.  Costs ``len(candidates) + 1`` queries."""
        return self.evaluate_extensions([(base, candidates)])[0]


class PrefixRound(Sequence):
    """The d + 1 nested groups of one sampler sweep or of prefix
    augmentation, ``(base + seq[:t], candidates[t])`` for t = 0..d: one
    candidate collection per row, often one object shared by many rows.

    It reads as that sequence of pairs (``list()`` of it is the plain list
    of groups), and :meth:`CountingOracle.evaluate_extensions` checks it as
    one round, with the answers, charges and errors of that list.
    """

    __slots__ = ("base", "seq", "candidates")

    def __init__(self, base, seq, candidates):
        self.base = tuple(base)
        self.seq = tuple(seq)
        if len(candidates) != len(self.seq) + 1:
            raise ValueError("a prefix round takes one candidate collection per row")
        self.candidates = candidates

    def __len__(self):
        return len(self.seq) + 1

    def __getitem__(self, t):
        candidates = self.candidates[t]  # an IndexError past either end
        return self.base + self.seq[: t % len(self.candidates)], candidates


class ExtensionGains(Sequence):
    """The answers of one :meth:`CountingOracle.evaluate_extensions` round.

    Item ``i`` is group ``i``'s gains array, computed each time it is read;
    nothing is kept.  Indexing, iteration, unpacking and slices (a list)
    all read it.  :meth:`read` gives only some of a group's gains.  The
    round was checked and charged in full when it was issued, so reading
    charges nothing, and a group nobody reads is never computed.
    """

    def __init__(self, oracle, groups):
        self._oracle = oracle
        # (base id tuple, candidate id array) per group: a list, or a
        # PrefixRound that builds a group's key when it is read
        self._groups = groups

    def __len__(self):
        return len(self._groups)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._oracle._gains(*self._groups[index])

    def read(self, index, positions):
        """The gains of group ``index``'s candidates at ``positions`` (an
        index array), bit for bit the same entries of the whole array; only
        those are computed."""
        key, cands = self._groups[index]
        return self._oracle._gains(key, cands[positions])
