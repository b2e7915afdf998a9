"""The oracle's gain-state cache against fresh oracles.

``CountingOracle`` keeps the gain state of recent bases and builds a new
base's state by extending its parent's; it keeps no set values, and every
value it returns is ``__call__`` of the set.  The objective is a pure
function of the set, so every answer and every charge must be bit-identical
to those of an oracle that has seen nothing before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodknap import (
    CountingOracle,
    CutObjective,
    ImageSummaryObjective,
    ModularObjective,
    RevenueObjective,
    SumObjective,
    gen_erdos_renyi,
    similarity_from_features,
)

KINDS = ("cut", "revenue", "image_summ", "modular", "sum")


def _objective(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "image_summ":
        # normal features give similarities of both signs
        return ImageSummaryObjective(similarity_from_features(rng.normal(size=(n, 4))))
    graph = gen_erdos_renyi(n, 0.5, seed)
    if kind == "cut":
        return CutObjective(graph)
    if kind == "revenue":
        return RevenueObjective(graph)
    values = rng.normal(size=n)
    if kind == "modular":
        return ModularObjective(values)
    return SumObjective(ModularObjective(values), CutObjective(graph))


def _bits(answer):
    """An oracle answer as exact bytes: floats by ``hex``, arrays by dtype
    and raw bytes."""
    if isinstance(answer, np.ndarray):
        return (answer.dtype.str, answer.tobytes())
    if isinstance(answer, (list, tuple)):
        return tuple(_bits(a) for a in answer)
    return float(answer).hex()


def _fresh(objective, method, args):
    """The answer and charges of ``method(*args)`` on an oracle with no
    history, or the ``ValueError`` it raises."""
    oracle = CountingOracle(objective)
    try:
        answer = getattr(oracle, method)(*args)
    except ValueError as exc:
        return type(exc), oracle.ledger.snapshot()
    return _bits(answer), oracle.ledger.snapshot()


def _calls(data, n):
    """A random call sequence: nested prefix chains (a sweep), repeated
    sets, the same set in another order, empty bases, repeated candidates,
    exact values and bases that repeat an id."""
    seen = [()]
    calls = []
    for _ in range(data.draw(st.integers(1, 10))):
        op = data.draw(st.sampled_from(
            ("chain", "repeat", "reorder", "batch", "marginal", "exact", "repeated_id")
        ))
        cands = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)))
        old = data.draw(st.sampled_from(seen))
        if op == "chain":
            start = data.draw(st.sampled_from(seen))
            rest = [e for e in data.draw(st.permutations(range(n))) if e not in start]
            d = data.draw(st.integers(0, len(rest)))
            bases = [start + tuple(rest[:i]) for i in range(d + 1)]
            calls.append(("evaluate_extensions", ([(b, cands) for b in bases],)))
            seen.extend(bases)
        elif op == "repeat":
            calls.append(("evaluate_extensions", ([(old, cands)],)))
        elif op == "reorder":
            base = tuple(data.draw(st.permutations(old)))
            calls.append(("evaluate_extensions", ([(base, cands), (old, ())],)))
            seen.append(base)
        elif op == "batch":
            calls.append(("evaluate_batch", ([old, (), old],)))
        elif op == "marginal":
            calls.append(("marginal_batch", (old, cands)))
        elif op == "exact":
            extra = (cands[0],) if cands and cands[0] not in old else ()
            calls.append(("exact_value", (old + extra,)))
        elif old:
            calls.append(("evaluate_extensions", ([(old, cands), (old + old[:1], cands)],)))
    return calls


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 9),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_answers_and_charges_match_fresh_oracles(kind, n, seed, data):
    objective = _objective(kind, n, seed)
    oracle = CountingOracle(objective)
    expected = np.zeros(2, dtype=np.int64)
    for method, args in _calls(data, n):
        want, charged = _fresh(objective, method, args)
        try:
            got = _bits(getattr(oracle, method)(*args))
        except ValueError as exc:
            got = type(exc)
        assert got == want
        expected += charged
        assert oracle.ledger.snapshot() == tuple(expected)


@pytest.mark.parametrize("kind", KINDS)
def test_extended_states_give_the_same_gains(kind):
    objective = _objective(kind, 12, seed=31)
    cands = np.arange(12)
    for seed in range(4):
        order = np.random.default_rng(seed).permutation(12).tolist()
        state = objective.state(())
        for i, e in enumerate(order, start=1):
            state = objective.extend(state, e)
            direct = objective.state(np.asarray(order[:i]))
            assert _bits(objective.gains(state, cands)) == _bits(objective.gains(direct, cands))


@pytest.mark.parametrize("kind", KINDS)
def test_extend_leaves_the_parent_state_alone(kind):
    objective = _objective(kind, 8, seed=32)
    parent = objective.state([2, 5])
    before = _bits(objective.gains(parent, np.arange(8)))
    objective.extend(parent, 0)
    assert _bits(objective.gains(parent, np.arange(8))) == before


def test_cache_stays_within_its_bound():
    objective = _objective("sum", 30, seed=33)
    oracle = CountingOracle(objective)
    bound = CountingOracle.CACHE_SIZE
    rng = np.random.default_rng(0)
    cands = list(range(30))
    calls = 0
    while calls * 11 < 3 * bound:
        order = tuple(rng.permutation(30)[:10].tolist())
        groups = [(order[:i], cands) for i in range(11)]
        got = _bits(oracle.evaluate_extensions(groups))
        assert got == _fresh(objective, "evaluate_extensions", (groups,))[0]
        assert len(oracle._states) <= bound
        calls += 1
    assert len(oracle._states) == bound
    assert oracle.ledger.snapshot() == (calls * 11 * 31, calls)


class _Counting(CutObjective):
    """Counts the calls the oracle makes into the objective."""

    def __init__(self, graph):
        super().__init__(graph)
        self.counts = {"call": 0, "state": 0, "extend": 0}

    def __call__(self, ids):
        self.counts["call"] += 1
        return super().__call__(ids)

    def state(self, base):
        self.counts["state"] += 1
        return super().state(base)

    def extend(self, state, e):
        self.counts["extend"] += 1
        return super().extend(state, e)


def test_repeated_bases_are_evaluated_once_and_prefixes_extended():
    objective = _Counting(gen_erdos_renyi(20, 0.3, seed=3))
    oracle = CountingOracle(objective)
    sweep = [((4, 9, 1)[:i], (0, 2, 2)) for i in range(4)]
    first = _bits(oracle.evaluate_extensions(sweep))
    assert objective.counts == {"call": 0, "state": 1, "extend": 3}
    assert _bits(oracle.evaluate_extensions(sweep)) == first
    assert oracle.exact_value((4, 9, 1)) == objective((4, 9, 1))
    assert objective.counts == {"call": 2, "state": 1, "extend": 3}  # both calls are ours
    assert oracle.ledger.snapshot() == (32, 2)
