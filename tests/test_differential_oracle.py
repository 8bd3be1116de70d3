"""Differential testing: the happens-before builder vs. the reference
oracle, on every stock app.

:class:`~repro.hb.reference.ReferenceHappensBefore` is the literal
model: one vertex per operation, a big-int Floyd-Warshall closure
recomputed every round, every rule instance re-scanned over all
operation pairs.  It shares no code with :mod:`repro.hb.bits`, so
agreement here checks the builder's key-node reduction, incremental
closure, per-event dirty tracking, chunked bitsets and both query paths
against an independent implementation.

Pairs are sampled two ways: uniformly over all operations, and between
event bounds (``end(e1)`` vs ``begin(e2)``), where the derived rules
actually decide the verdict."""

import functools
import random

import pytest

from repro.apps import ALL_APPS
from repro.hb import CONVENTIONAL_MODEL, build_happens_before
from repro.hb.reference import ReferenceHappensBefore

SCALE, SEED = 0.01, 0


@functools.lru_cache(maxsize=None)
def app_trace(app_cls):
    return app_cls(scale=SCALE, seed=SEED).run().trace


@functools.lru_cache(maxsize=None)
def oracle_of(app_cls):
    return ReferenceHappensBefore(app_trace(app_cls))


def sample_pairs(trace, k, seed):
    """``k`` uniform op pairs plus ``k`` event-bound pairs."""
    rng = random.Random(seed)
    n = len(trace)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    begins, ends = [], []
    for event in trace.events():
        ops = trace.ops_of(event)
        if ops:
            begins.append(ops[0])
            ends.append(ops[-1])
    if begins:
        for _ in range(k):
            pairs.append((rng.choice(ends), rng.choice(begins)))
    return pairs


@pytest.mark.parametrize("app_cls", ALL_APPS, ids=lambda a: a.name)
class TestOracleAgreement:
    def test_builder_matches_reference_oracle(self, app_cls):
        trace = app_trace(app_cls)
        oracle = oracle_of(app_cls)
        fast = build_happens_before(trace)
        scan = build_happens_before(trace, fast_queries=False)
        for a, b in sample_pairs(trace, 400, seed=7):
            expected = oracle.ordered(a, b)
            assert fast.ordered(a, b) == expected, (a, b)
            assert scan.ordered(a, b) == expected, (a, b)

    def test_concurrent_pairs_match_reference_oracle(self, app_cls):
        trace = app_trace(app_cls)
        oracle = oracle_of(app_cls)
        pairs = sample_pairs(trace, 400, seed=3)
        expected = [oracle.concurrent(a, b) for a, b in pairs]
        assert build_happens_before(trace).concurrent_pairs(pairs) == expected

    def test_conventional_model_matches_reference_oracle(self, app_cls):
        trace = app_trace(app_cls)
        oracle = ReferenceHappensBefore(trace, CONVENTIONAL_MODEL)
        hb = build_happens_before(trace, CONVENTIONAL_MODEL)
        for a, b in sample_pairs(trace, 200, seed=11):
            assert hb.ordered(a, b) == oracle.ordered(a, b), (a, b)
