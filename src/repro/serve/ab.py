"""Deterministic A/B traffic splitting between two model generations.

A challenger generation earns promotion from *live* traffic, not only
the golden-corpus canary.  The split must be deterministic — the same
trajectory always lands on the same generation — so that results stay
reproducible under retries and the observed split ratio over a known
trace is an exact function of the trace, not a statistical estimate.

The routing key is the canonical JSON encoding of the trajectory
payload (same canonicalisation the cluster response cache uses), hashed
with ``blake2b``; the 64-bit digest divided by ``2**64`` yields a
uniform fraction in ``[0, 1)`` and a trajectory routes to the
challenger iff that fraction is below the configured split.  The
gateway routes through these helpers, and the tests recompute expected
assignments with them — exact, not approximate.

:class:`ABState` is the shared bookkeeping object: split + challenger
provenance + one :class:`GenerationStats` per side (request, degraded,
failed counters and a latency window), surfaced per-generation on
``/metrics``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any

from repro.serve.metrics import RollingWindow


def canonical_key(item: Any) -> str:
    """Canonical JSON for one trajectory payload (the routing key)."""
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def split_fraction(key: str) -> float:
    """Deterministic uniform fraction in ``[0, 1)`` for a routing key."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def routes_to_challenger(key: str, split: float) -> bool:
    """Whether a routing key lands on the challenger at ``split``."""
    return split_fraction(key) < split


class GenerationStats:
    """Thread-safe per-generation serving counters + latency window."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.degraded = 0
        self.failed = 0
        self.latency = RollingWindow()

    def record(
        self, requests: int = 1, degraded: int = 0, failed: int = 0,
        seconds: float | None = None,
    ) -> None:
        """Account served trajectories (and optionally one latency sample)."""
        with self._lock:
            self.requests += requests
            self.degraded += degraded
            self.failed += failed
            if seconds is not None:
                self.latency.record(seconds)

    def snapshot(self) -> dict:
        """Counters plus the windowed latency percentiles, JSON-ready."""
        with self._lock:
            return {
                "requests": self.requests,
                "degraded": self.degraded,
                "failed": self.failed,
                "latency": {
                    "count": self.latency.count(),
                    "p50_ms": round(self.latency.percentile(50.0) * 1000.0, 3),
                    "p95_ms": round(self.latency.percentile(95.0) * 1000.0, 3),
                },
            }


class ABState:
    """One live A/B test: split, challenger provenance, per-side stats."""

    def __init__(
        self,
        split: float,
        champion_generation: int,
        challenger_generation: int,
        challenger_model: str,
        challenger_weights: str = "raw",
    ) -> None:
        if not 0.0 < float(split) <= 1.0:
            raise ValueError(f"split must be in (0, 1], got {split!r}")
        self.split = float(split)
        self.champion_generation = int(champion_generation)
        self.challenger_generation = int(challenger_generation)
        self.challenger_model = challenger_model
        self.challenger_weights = challenger_weights
        self.started = time.monotonic()
        self.champion = GenerationStats()
        self.challenger = GenerationStats()

    def assign(self, key: str) -> bool:
        """True iff the routing key goes to the challenger."""
        return routes_to_challenger(key, self.split)

    def stats_for(self, challenger: bool) -> GenerationStats:
        """The stats bucket of the side an assignment landed on."""
        return self.challenger if challenger else self.champion

    def snapshot(self) -> dict:
        """The ``/metrics`` ``"ab"`` payload: split + both generations."""
        return {
            "split": self.split,
            "challenger_model": self.challenger_model,
            "challenger_weights": self.challenger_weights,
            "age_s": round(time.monotonic() - self.started, 3),
            "generations": {
                str(self.champion_generation): {
                    "role": "champion", **self.champion.snapshot()
                },
                str(self.challenger_generation): {
                    "role": "challenger", **self.challenger.snapshot()
                },
            },
        }
