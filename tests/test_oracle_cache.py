"""The oracle's gain-state cache against fresh oracles.

``CountingOracle`` keeps the gain state of recent bases and builds a new
base's state by extending its parent's; it keeps no set values, and every
value it returns is ``__call__`` of the set.  The objective is a pure
function of the set, so every answer and every charge must be bit-identical
to those of an oracle that has seen nothing before.  The oracle computes
an extension round's gains only when they are read, so neither the order
in which rows are read, nor reading only some, nor reading none may change
an answer or a charge either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodknap import (
    AstConfig,
    CountingOracle,
    CutObjective,
    ImageSummaryObjective,
    ModularObjective,
    RevenueObjective,
    SumObjective,
    ast,
    gen_erdos_renyi,
    similarity_from_features,
)
from submodknap.core import ExtensionGains, PrefixRound

from conftest import benchmark_instance, state_of

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
    and raw bytes, and the gains of an extension round by reading every
    row in order."""
    if isinstance(answer, np.ndarray):
        return (answer.dtype.str, answer.tobytes())
    if isinstance(answer, (list, tuple, ExtensionGains)):
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
def test_extend_leaves_the_parent_state_alone(kind):
    objective = _objective(kind, 8, seed=32)
    parent = state_of(objective, [2, 5])
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


class _Counting:
    """The wrapped objective, counting the calls the oracle makes into it."""

    def __init__(self, objective):
        self._objective = objective
        self.n = objective.n
        self.submodular = objective.submodular
        self.counts = {"call": 0, "state": 0, "extend": 0}
        self.read = []  # the number of candidates of each gains call

    def __call__(self, ids):
        self.counts["call"] += 1
        return self._objective(ids)

    def state(self):
        self.counts["state"] += 1
        return self._objective.state()

    def extend(self, state, e):
        self.counts["extend"] += 1
        return self._objective.extend(state, e)

    def gains(self, state, candidates):
        self.read.append(len(candidates))
        return self._objective.gains(state, candidates)


def test_repeated_bases_are_evaluated_once_and_prefixes_extended():
    objective = _Counting(CutObjective(gen_erdos_renyi(20, 0.3, seed=3)))
    oracle = CountingOracle(objective)
    sweep = [((4, 9, 1)[:i], (0, 2, 2)) for i in range(4)]
    first = _bits(oracle.evaluate_extensions(sweep))
    assert objective.counts == {"call": 0, "state": 1, "extend": 3}
    assert _bits(oracle.evaluate_extensions(sweep)) == first
    assert oracle.exact_value((4, 9, 1)) == objective((4, 9, 1))
    assert objective.counts == {"call": 2, "state": 1, "extend": 3}  # both calls are ours
    assert oracle.ledger.snapshot() == (32, 2)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_gains_of_a_subset_are_those_entries_of_the_whole(kind, n, seed, data):
    # the subset-read rule of the objectives contract: candidates may repeat
    # and may lie inside the base
    objective = _objective(kind, n, seed)
    base = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    state = state_of(objective, base)
    cands = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n)))
    pos = np.asarray(
        data.draw(st.lists(st.integers(0, cands.size - 1), max_size=cands.size)), dtype=np.intp
    )
    whole = objective.gains(state, cands)
    assert _bits(objective.gains(state, cands[pos])) == _bits(whole[pos])


@pytest.mark.parametrize("kind", KINDS)
def test_gains_of_a_subset_match_on_long_rows(kind):
    # image_summ sums each candidate's row of n similarities; past 128
    # entries numpy sums pairwise in blocks, which must not depend on how
    # many rows are summed together
    n = 300
    objective = _objective(kind, n, seed=39)
    rng = np.random.default_rng(40)
    state = state_of(objective, rng.permutation(n)[:30])
    cands = rng.integers(0, n, size=2 * n)
    whole = objective.gains(state, cands)
    for size in (1, 7, 150):
        pos = rng.integers(0, cands.size, size=size)
        assert _bits(objective.gains(state, cands[pos])) == _bits(whole[pos])


def _sweep(n, seed, d):
    """A sweep's groups: ``d + 1`` nested prefixes of a random order, each
    with the same candidates (repeats and members of the prefixes among
    them)."""
    rng = np.random.default_rng(seed)
    order = tuple(rng.permutation(n)[:d].tolist())
    cands = rng.integers(0, n, size=2 * n).tolist()
    return [(order[:i], cands) for i in range(d + 1)]


@pytest.mark.parametrize("kind", KINDS)
def test_rows_read_in_any_order_or_in_part_match_a_fresh_oracle(kind):
    objective = _objective(kind, 10, seed=34)
    groups = _sweep(10, seed=35, d=6)
    fresh = CountingOracle(objective)
    want = list(fresh.evaluate_extensions(groups))  # every row, in order
    rng = np.random.default_rng(36)
    for _ in range(6):
        oracle = CountingOracle(objective)
        answers = oracle.evaluate_extensions(groups)
        assert oracle.ledger.snapshot() == fresh.ledger.snapshot()  # charged at once
        for i in rng.permutation(len(groups))[: rng.integers(1, len(groups) + 1)]:
            pos = rng.integers(0, len(groups[i][1]), size=5)
            assert _bits(answers.read(i, pos)) == _bits(want[i][pos])
            if rng.random() < 0.5:
                assert _bits(answers[i]) == _bits(want[i])
                assert _bits(answers.read(i, pos)) == _bits(want[i][pos])
        assert _bits(answers[1:3]) == _bits(want[1:3])
        assert oracle.ledger.snapshot() == fresh.ledger.snapshot()  # reading is free


def test_a_round_nobody_reads_is_charged_in_full_and_computes_nothing():
    objective = _Counting(CutObjective(gen_erdos_renyi(20, 0.3, seed=3)))
    oracle = CountingOracle(objective)
    groups = _sweep(20, seed=37, d=5)
    answers = oracle.evaluate_extensions(groups)
    assert oracle.ledger.snapshot() == (6 * 41, 1)
    assert objective.counts == {"call": 0, "state": 0, "extend": 0}
    assert objective.read == []
    # rows 0..2 in order: one state, then each row extends the one before;
    # row 4's parent is not cached, so its state extends a new empty state
    # by its four ids; a part read computes only the gains asked for
    for i in range(3):
        answers[i]
    answers.read(4, [0, 3])
    assert objective.counts == {"call": 0, "state": 2, "extend": 6}
    assert objective.read == [40, 40, 40, 2]
    assert oracle.ledger.snapshot() == (6 * 41, 1)


def test_answers_keep_the_candidates_they_were_asked_for():
    objective = _objective("cut", 9, seed=38)
    cands = np.arange(9)
    oracle = CountingOracle(objective)
    answers = oracle.evaluate_extensions([((2,), cands)])
    want = _fresh(objective, "evaluate_extensions", ([((2,), np.arange(9))],))[0]
    cands[:] = 0  # the caller reuses its array before reading
    assert _bits(answers) == want


@pytest.mark.parametrize("objective, n, p", [("cut", 200, 0.2), ("image_summ", 500, 0.0)])
def test_a_solve_builds_one_state_and_extends_the_rest(objective, n, p):
    # the benchmark's two instances: every non-empty base's state extends
    # a cached parent's, so the empty state is built once per solve
    built, instance = benchmark_instance(objective, n, p)
    for seed in (0, 1):
        counted = _Counting(built)
        ast(CountingOracle(counted), instance, AstConfig(seed=seed))
        assert counted.counts["state"] == 1


# A round's nested groups passed as one PrefixRound against list() of it,
# the plain pairs the oracle checks group by group.  Each row draws its own
# candidates or shares the row before's object.  Each draw may plant one
# fault in the base or the drawn ids, and one in some row's candidates,
# which every later row sharing that row's object shares too.
_PREFIX_N = 12
_DRAW_FAULTS = ("out of range", "negative", "repeat in draws", "in base", "float", "bool", "numpy int")
_CAND_FAULTS = ("out of range", "negative", "float", "bool")


def _plant(data, ids, fault, earlier=()):
    """``ids`` with one entry replaced as ``fault`` says (a no-op when
    ``ids`` is empty or there is nothing earlier to repeat)."""
    if not ids:
        return ids
    pos = data.draw(st.integers(0, len(ids) - 1), label="position")
    e = ids[pos]
    pick = {
        "out of range": _PREFIX_N + pos,
        "negative": -1,
        "float": float(e),
        "bool": True,
        "numpy int": np.int64(e),
    }
    if fault == "repeat in draws":
        if pos == 0:
            return ids
        pick[fault] = ids[data.draw(st.integers(0, pos - 1), label="repeated")]
    elif fault == "in base":
        if not earlier:
            return ids
        pick[fault] = data.draw(st.sampled_from(earlier), label="from base")
    return ids[:pos] + [pick[fault]] + ids[pos + 1:]


@pytest.mark.parametrize("rows", [0, 2, 4])
def test_a_prefix_round_takes_one_candidate_collection_per_row(rows):
    with pytest.raises(ValueError, match="one candidate collection per row"):
        PrefixRound((0,), (1, 2), [[3]] * rows)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_a_prefix_round_answers_and_fails_as_its_list(kind, data):
    objective = _objective(kind, _PREFIX_N, seed=41)
    ids = data.draw(st.permutations(range(_PREFIX_N)), label="ids")
    b = data.draw(st.integers(0, 5), label="|base|")
    d = data.draw(st.integers(0, 5), label="d")
    base, seq = list(ids[:b]), list(ids[b:b + d])
    fault = data.draw(st.sampled_from(("none", "base") + _DRAW_FAULTS))
    if fault == "base":
        faults = [f for f in _DRAW_FAULTS if f != "in base"]  # a repeat is one within the base
        base = _plant(data, base, data.draw(st.sampled_from(faults)))
    elif fault != "none":
        seq = _plant(data, seq, fault, earlier=base)
    row_cands = []
    for _ in range(len(seq) + 1):
        if row_cands and data.draw(st.booleans(), label="share the row before's"):
            row_cands.append(row_cands[-1])
            continue
        cands = data.draw(st.lists(st.integers(0, _PREFIX_N - 1), max_size=6), label="candidates")
        if data.draw(st.booleans(), label="array candidates"):
            cands = np.array(cands, dtype=np.intp)
        row_cands.append(cands)
    cand_fault = data.draw(st.sampled_from(("none",) + _CAND_FAULTS), label="candidate fault")
    if cand_fault != "none":
        r = data.draw(st.integers(0, len(seq)), label="faulty row")
        shared = row_cands[r]
        planted = _plant(data, list(shared), cand_fault)
        for t in range(r, len(row_cands)):
            if row_cands[t] is not shared:
                break
            row_cands[t] = planted
    cache_base = data.draw(st.booleans(), label="cache the base")
    sweep = PrefixRound(tuple(base), seq, row_cands)
    order = data.draw(st.permutations(range(len(sweep))), label="read order")
    partial = data.draw(st.lists(st.booleans(), min_size=len(sweep), max_size=len(sweep)))

    outcomes = []
    for groups in (sweep, list(sweep)):
        oracle = CountingOracle(objective)
        if cache_base:
            try:
                oracle.marginal_batch(tuple(base), [0])
            except ValueError:
                pass
        before = oracle.ledger.snapshot()
        try:
            answers = oracle.evaluate_extensions(groups)
        except ValueError as exc:
            assert oracle.ledger.snapshot() == before  # nothing charged
            outcomes.append(("raised", str(exc)))
            continue
        charged = oracle.ledger.snapshot()
        rows = [None] * len(answers)
        for i in order:
            if partial[i] and len(row_cands[i]):
                positions = np.arange(len(row_cands[i]))[::-1]
                rows[i] = _bits(answers.read(i, positions))
            else:
                rows[i] = _bits(answers[i])
        assert oracle.ledger.snapshot() == charged  # reading is free
        outcomes.append(("answered", charged[0] - before[0], charged[1] - before[1], rows))
    assert outcomes[0] == outcomes[1]
    if outcomes[0][0] == "answered":
        assert outcomes[0][1:3] == (sum(len(c) + 1 for c in row_cands), 1)
