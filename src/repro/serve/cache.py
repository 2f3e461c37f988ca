"""The plan cache: canonical scenario spec -> encoded answer.

Scenario queries are pure functions of ``(baseline, scenario)``: the
session's evaluation pipeline is deterministic, so the *first* answer to
a query is also every later answer.  The cache therefore stores the
**encoded payload** (the JSON-safe dict of
:func:`repro.serve.encoding.whatif_payload`), not the live result — a
hit serves the exact bytes a fresh evaluation would have produced,
keeping the bit-identity contract trivially true on both paths.

Keys are ``(session key, canonical scenario spec)`` where the spec text
is canonicalized through the scenario grammar
(:func:`repro.scenarios.spec.canonical_spec`): ``"link:2-5, 0-4"`` and
``"link:0-4,2-5"`` are one entry, so operators probing the same failure
in different spellings share work.  Eviction is LRU; hit/miss/eviction
counters feed ``/metrics``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional

from repro.obs import MetricsRegistry


class PlanCache:
    """A thread-safe LRU of encoded query answers.

    Counters are registry-backed :mod:`repro.obs` instruments on a
    per-cache registry (two services in one process never share
    counters).  Every mutation happens under the cache lock, and
    :meth:`metrics` reads under the same lock, so any snapshot — even
    one taken mid-storm — satisfies ``hits + misses == lookups``.

    Args:
        capacity: Entries kept; a what-if payload is a few KB (three
            per-link float arrays), so the default bounds the cache at a
            few MB.
        registry: Instrument home; a private one by default.
    """

    def __init__(self, capacity: int = 1024, registry: Optional[MetricsRegistry] = None) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._store: OrderedDict[tuple[str, str], dict] = OrderedDict()
        self.registry = registry if registry is not None else MetricsRegistry()
        _events = "repro_serve_plan_cache_events_total"
        _help = "Plan-cache lookup outcomes and evictions."
        self._hits = self.registry.counter(_events, _help, {"event": "hit"})
        self._misses = self.registry.counter(_events, _help, {"event": "miss"})
        self._evictions = self.registry.counter(_events, _help, {"event": "eviction"})
        self._size = self.registry.gauge(
            "repro_serve_plan_cache_size", "Entries currently cached."
        )

    def lookup(self, session_key: str, canonical: str) -> Optional[dict]:
        """The cached payload for a canonical spec, or ``None``.

        The scheduler's fast path: a hit is counted (and refreshed in
        the LRU order) exactly as :meth:`get_or_compute` counts it; a
        miss is *not* counted, because the caller then submits the query
        to the dispatcher, whose :meth:`get_or_compute` counts it.  Each
        query is thus one lookup: a hit or a miss, never both.
        """
        key = (session_key, canonical)
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                return None
            self._store.move_to_end(key)
            self._hits.inc()
            return entry

    def get_or_compute(
        self,
        session_key: str,
        canonical: str,
        compute: Callable[[], dict],
    ) -> tuple[dict, bool]:
        """The cached payload for a canonical spec, computing on miss.

        ``compute`` runs *outside* the cache lock (it holds the session
        lock for the duration of an evaluation; nesting the cache lock
        around it would serialize unrelated sessions behind one slow
        query).  Two threads racing on the same cold key may therefore
        both compute — and, determinism again, compute *equal* payloads,
        so last-write-wins is harmless.

        Returns:
            ``(payload, hit)`` — ``hit`` feeds the request log and the
            scheduler's counters.
        """
        entry = self.lookup(session_key, canonical)
        if entry is not None:
            return entry, True
        with self._lock:
            self._misses.inc()
        payload = compute()
        key = (session_key, canonical)
        with self._lock:
            self._store[key] = payload
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self._evictions.inc()
            self._size.set(len(self._store))
        return payload, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def metrics(self) -> dict:
        """Counters plus occupancy (the ``/metrics`` JSON block).

        Taken under the cache lock — the same lock every counter
        mutation holds — so ``hits + misses == lookups`` in any
        snapshot, concurrent storm or not.
        """
        with self._lock:
            hits = int(self._hits.value)
            misses = int(self._misses.value)
            return {
                "hits": hits,
                "misses": misses,
                "lookups": hits + misses,
                "evictions": int(self._evictions.value),
                "size": len(self._store),
                "capacity": self.capacity,
            }
