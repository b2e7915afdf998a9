"""Unconstrained submodular maximization by batched random subsets.

For a non-negative submodular function, a uniformly random subset (each
element kept with probability one half) achieves at least a quarter of the
unconstrained optimum in expectation, so the best of several such samples
does too.  All samples are evaluated in a single adaptive round.
"""

from __future__ import annotations

from .core import as_id_array


def unsub_max(oracle, ground, samples, rng):
    """Best of ``samples`` random half-density subsets of ``ground``, the
    empty set, and ``ground`` itself.

    Costs exactly one adaptive round and ``samples + 2`` queries.  Returns
    ``(ids, value)``; an empty ground set returns ``((), 0.0)`` without
    touching the oracle.  Ties go to the earliest set in the batch (random
    subsets first, then the empty set, then the full ground set).
    """
    if samples < 1:
        raise ValueError("need at least one random subset")
    ground = tuple(as_id_array(ground).tolist())
    if not ground:
        return (), 0.0
    keep = rng.random((samples, len(ground))) < 0.5
    batch = [tuple(e for e, flag in zip(ground, row) if flag) for row in keep]
    batch.append(())
    batch.append(ground)
    values = oracle.evaluate_batch(batch)
    best = max(range(len(batch)), key=lambda i: (values[i], -i))
    return batch[best], values[best]
