"""Micro-batch scheduler: coalescing, bit-identity, thread safety.

The concurrency regression suite of the serving stack: a session shared
across the scheduler's callers is only ever driven under
``session.lock`` (see the thread-safety note on
:mod:`repro.api.session`), so answers under concurrent load must equal,
byte for byte, a serial single-threaded reference.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

from repro.scenarios.spec import canonical_spec
from repro.serve.cache import PlanCache
from repro.serve.encoding import canonical_body, whatif_payload
from repro.serve.pool import SessionSpec
from repro.serve.scheduler import MicroBatchScheduler

SPEC = SessionSpec(topology="isp", utilization=0.5)

# A mixed workload touching every scenario kind, with repeats.
QUERIES = [
    "link:0-4",
    "node:3",
    "srlg:0-4,2-5",
    "scale:1.25",
    "surge:3x2.0",
    "shift:2>5@0.3",
    "link:0-4+surge:3x2.0",
    "link: 0-4",  # spelling variant of an earlier query
    "node:3",     # literal repeat
]


@pytest.fixture(scope="module")
def reference():
    """Serial single-threaded answers from an independent warm session."""
    session = SPEC.build()
    return {
        q: canonical_body(whatif_payload(session.under_scenario(canonical_spec(q))))
        for q in QUERIES
    }


def test_submit_requires_a_running_scheduler():
    scheduler = MicroBatchScheduler()
    with pytest.raises(RuntimeError, match="not running"):
        scheduler.submit("k", SPEC.build(), "node:3")


def test_malformed_specs_fail_at_submit_time():
    with MicroBatchScheduler() as scheduler:
        with pytest.raises(ValueError, match="registered scenario kind"):
            scheduler.submit("k", None, "bogus:1")  # session never touched
    assert scheduler.metrics()["queries"] == 0


def test_concurrent_queries_are_bit_identical_to_serial(reference):
    session = SPEC.build()
    key = SPEC.key()
    interval = sys.getswitchinterval()
    # Frequent thread switches interleave the submit-time cache path with
    # the dispatcher's, so a lost counter update would show below.
    sys.setswitchinterval(1e-5)
    try:
        with MicroBatchScheduler() as scheduler:
            with ThreadPoolExecutor(max_workers=8) as executor:
                futures = {
                    (i, q): executor.submit(
                        lambda q=q: scheduler.submit(key, session, q).result(timeout=30)
                    )
                    for i in range(4)
                    for q in QUERIES
                }
                for (_, q), outer in futures.items():
                    payload, _hit = outer.result(timeout=60)
                    assert canonical_body(payload) == reference[q], q
    finally:
        sys.setswitchinterval(interval)
    stats = scheduler.metrics()
    assert stats["errors"] == 0
    assert stats["queries"] == 4 * len(QUERIES)
    # Repeats and spelling variants were answered from the plan cache.
    assert stats["cache_hits"] >= stats["queries"] - len(set(
        canonical_spec(q) for q in QUERIES
    ))
    cache = scheduler.cache.metrics()
    assert cache["hits"] + cache["misses"] == cache["lookups"]
    # Each query is one plan-cache lookup, on the fast path or the
    # dispatcher's, never both.
    assert cache["lookups"] == stats["queries"]
    assert cache["hits"] == stats["cache_hits"]


def _wait_samples(scheduler) -> int:
    return scheduler.registry.histogram(
        "repro_serve_scheduler_queue_wait_seconds"
    ).sample()["count"]


def test_cached_spec_answers_without_the_session_lock(reference):
    """A hot spec resolves at once while the session lock is held; a
    cold spec waits for the lock."""
    session = SPEC.build()
    key = SPEC.key()
    with MicroBatchScheduler() as scheduler:
        hot, cold = QUERIES[0], QUERIES[1]
        scheduler.submit(key, session, hot).result(timeout=10)  # warm it
        before = scheduler.metrics()
        waits = _wait_samples(scheduler)
        with session.lock:  # what a long /sweep does
            hot_future = scheduler.submit(key, session, hot)
            assert hot_future.done()
            payload, hit = hot_future.result(timeout=0)
            assert hit
            assert canonical_body(payload) == reference[hot]
            cold_future = scheduler.submit(key, session, cold)
            with pytest.raises(FutureTimeout):
                cold_future.result(timeout=0.3)
        payload, hit = cold_future.result(timeout=10)
        assert not hit
        assert canonical_body(payload) == reference[cold]
        after = scheduler.metrics()
    # The fast-path hit is a query and a cache hit, not a batch, and it
    # leaves no queue-wait sample; the cold query is all of those.
    assert after["queries"] - before["queries"] == 2
    assert after["cache_hits"] - before["cache_hits"] == 1
    assert after["batches"] - before["batches"] == 1
    assert _wait_samples(scheduler) - waits == 1
    cache = scheduler.cache.metrics()
    assert (cache["hits"], cache["misses"], cache["lookups"]) == (1, 2, 3)


def test_window_coalesces_a_burst_into_one_batch(reference):
    session = SPEC.build()
    key = SPEC.key()
    cache = PlanCache()
    scheduler = MicroBatchScheduler(cache, window_s=0.25)
    # Stall the dispatcher behind one job so the burst queues up, then
    # assert the whole burst lands in a single batch.
    release = threading.Event()
    original = session.under_scenario

    def gated(*args, **kwargs):
        release.wait(timeout=5)
        return original(*args, **kwargs)

    session.under_scenario = gated
    try:
        scheduler.start()
        first = scheduler.submit(key, session, QUERIES[0])
        burst = [scheduler.submit(key, session, q) for q in QUERIES[1:]]
        release.set()
        payload, _ = first.result(timeout=10)
        assert canonical_body(payload) == reference[QUERIES[0]]
        for q, future in zip(QUERIES[1:], burst):
            payload, _ = future.result(timeout=10)
            assert canonical_body(payload) == reference[q]
    finally:
        session.under_scenario = original
        scheduler.stop()
    stats = scheduler.metrics()
    assert stats["max_batch_size"] >= 2
    assert stats["coalesced_queries"] >= 2
    assert stats["batches"] < stats["queries"]


def test_groups_isolate_sessions():
    """A batch spanning two baselines answers each from its own session."""
    spec_b = SessionSpec(topology="isp", utilization=0.4)
    session_a, session_b = SPEC.build(), spec_b.build()
    ref_a = canonical_body(whatif_payload(session_a.under_scenario("node:3")))
    ref_b = canonical_body(whatif_payload(session_b.under_scenario("node:3")))
    assert ref_a != ref_b  # different baselines, different answers
    with MicroBatchScheduler(window_s=0.05) as scheduler:
        fa = scheduler.submit(SPEC.key(), session_a, "node:3")
        fb = scheduler.submit(spec_b.key(), session_b, "node:3")
        assert canonical_body(fa.result(timeout=10)[0]) == ref_a
        assert canonical_body(fb.result(timeout=10)[0]) == ref_b


def test_stop_drains_queued_jobs():
    session = SPEC.build()
    scheduler = MicroBatchScheduler().start()
    future = scheduler.submit(SPEC.key(), session, "node:3")
    scheduler.stop()
    payload, _hit = future.result(timeout=10)
    assert payload["kind"] == "scenario"
