"""Streaming sessions: many concurrent fixed-lag decoders over one matcher.

A *session* is one live trajectory being decoded by an
:class:`~repro.core.online.OnlineLHMM`.  The manager owns their lifecycle:

* ``create`` — admission-controlled (``max_sessions``); recycles decoder
  objects from closed sessions via :meth:`OnlineLHMM.reset` instead of
  constructing new ones.
* ``feed`` — appends points and returns the committed (fixed-lag) path.
* ``close`` — flushes the remaining lag window and returns the final path.
* idle eviction — sessions untouched for ``ttl_s`` are finalised and
  dropped on the next manager interaction (no background thread, so
  behaviour is deterministic and testable with an injected clock).

The fitted matcher is **not** thread-safe for concurrent inference (its
routing engine mutates LRU caches), so all decoding holds ``infer_lock``
— pass one lock to every manager that shares a matcher.  Per-session
locks keep a single session's feeds ordered when calls overlap.  Lock
order is always manager → session → infer; the manager lock is never
acquired while a session lock is held.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field

from repro.cellular.trajectory import TrajectoryPoint
from repro.core.matcher import LHMM
from repro.core.online import OnlineLHMM


class UnknownSessionError(KeyError):
    """The session id does not exist (expired, closed, or never created)."""


class SessionLimitError(RuntimeError):
    """``max_sessions`` live sessions already exist (server answers 429)."""


@dataclass(slots=True)
class Session:
    """One live streaming-decode session."""

    session_id: str
    decoder: OnlineLHMM
    created_at: float
    last_touched: float
    points_fed: int = 0
    closed: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


class SessionManager:
    """Creates, feeds, evicts, and closes streaming sessions."""

    def __init__(
        self,
        matcher: LHMM,
        *,
        default_lag: int = 4,
        default_context_window: int = 12,
        max_sessions: int = 256,
        ttl_s: float = 300.0,
        infer_lock: threading.RLock | None = None,
        clock=time.monotonic,
        recycle_limit: int = 32,
    ) -> None:
        matcher._require_fit()
        self.matcher = matcher
        self.default_lag = default_lag
        self.default_context_window = default_context_window
        self.max_sessions = max_sessions
        self.ttl_s = ttl_s
        self.infer_lock = infer_lock or threading.RLock()
        self._clock = clock
        self._sessions: dict[str, Session] = {}
        self._lock = threading.RLock()
        # Closed decoders, keyed by (lag, context_window), ready for reuse.
        self._recycled: dict[tuple[int, int], list[OnlineLHMM]] = {}
        self._recycle_limit = recycle_limit
        self._ids = itertools.count()
        self.created_total = 0
        self.closed_total = 0
        self.evicted_total = 0
        self.recycled_total = 0

    # ------------------------------------------------------------- lifecycle
    def create(
        self,
        lag: int | None = None,
        context_window: int | None = None,
        session_id: str | None = None,
    ) -> Session:
        """Open a new session; raises :class:`SessionLimitError` when full.

        ``session_id`` lets an upstream tier (the cluster gateway) assign
        ids itself — required for deterministic session handoff, where a
        respawned worker must rebuild a session under its original id.
        Omitted, the manager generates one.
        """
        lag = self.default_lag if lag is None else int(lag)
        context_window = (
            self.default_context_window if context_window is None else int(context_window)
        )
        self.evict_idle()
        now = self._clock()
        with self._lock:
            if session_id is not None and session_id in self._sessions:
                raise ValueError(f"session id {session_id!r} already live")
            if len(self._sessions) >= self.max_sessions:
                raise SessionLimitError(
                    f"session limit reached ({self.max_sessions} live sessions)"
                )
            decoder = self._checkout_decoder(lag, context_window)
            if session_id is None:
                session_id = f"s{next(self._ids)}-{uuid.uuid4().hex[:8]}"
            session = Session(
                session_id=session_id,
                decoder=decoder,
                created_at=now,
                last_touched=now,
            )
            self._sessions[session_id] = session
            self.created_total += 1
            return session

    def _checkout_decoder(self, lag: int, context_window: int) -> OnlineLHMM:
        pool = self._recycled.get((lag, context_window))
        if pool:
            decoder = pool.pop()
            decoder.reset()
            self.recycled_total += 1
            return decoder
        return OnlineLHMM(self.matcher, lag=lag, context_window=context_window)

    def _recycle_decoder(self, decoder: OnlineLHMM) -> None:
        decoder.reset()
        with self._lock:
            key = (decoder.lag, decoder.context_window)
            pool = self._recycled.setdefault(key, [])
            if len(pool) < self._recycle_limit:
                pool.append(decoder)

    def get(self, session_id: str) -> Session:
        """Look up a live session; raises :class:`UnknownSessionError`."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(session_id)
        return session

    # ------------------------------------------------------------- streaming
    def feed(self, session_id: str, points: list[TrajectoryPoint]) -> dict:
        """Append ``points`` and return the committed state so far.

        Returns ``{"committed": [...], "pending": n, "points": total}`` —
        ``committed`` is the stitched path fixed so far (it only ever
        grows), ``pending`` the points still inside the lag window.
        """
        session = self.get(session_id)
        with session.lock:
            if session.closed:
                raise UnknownSessionError(session_id)
            with self.infer_lock:
                for point in points:
                    session.decoder.add_point(point)
                committed = session.decoder.committed_path
                pending = session.decoder.pending_points()
            session.points_fed += len(points)
            session.last_touched = self._clock()
            return {
                "committed": committed,
                "pending": pending,
                "points": session.points_fed,
            }

    def close(self, session_id: str) -> dict:
        """Finalise a session: flush the lag window, return the full path."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise UnknownSessionError(session_id)
        with session.lock:
            if session.closed:  # pragma: no cover - double close race
                raise UnknownSessionError(session_id)
            session.closed = True
            with self.infer_lock:
                path = session.decoder.finish()
        self._recycle_decoder(session.decoder)
        with self._lock:
            self.closed_total += 1
        return {"path": path, "points": session.points_fed}

    # -------------------------------------------------------------- eviction
    def evict_idle(self, now: float | None = None) -> list[str]:
        """Finalise and drop sessions idle for longer than ``ttl_s``."""
        now = self._clock() if now is None else now
        with self._lock:
            expired = [
                session
                for session in self._sessions.values()
                if now - session.last_touched > self.ttl_s
            ]
            for session in expired:
                del self._sessions[session.session_id]
        evicted: list[str] = []
        for session in expired:
            with session.lock:
                if session.closed:  # pragma: no cover - close/evict race
                    continue
                session.closed = True
            self._recycle_decoder(session.decoder)
            evicted.append(session.session_id)
            with self._lock:
                self.evicted_total += 1
        return evicted

    def close_all(self) -> dict[str, list[int]]:
        """Finalise every live session (graceful shutdown); returns paths."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        finished: dict[str, list[int]] = {}
        for session in sessions:
            with session.lock:
                if session.closed:  # pragma: no cover - close/shutdown race
                    continue
                session.closed = True
                with self.infer_lock:
                    finished[session.session_id] = session.decoder.finish()
            with self._lock:
                self.closed_total += 1
        return finished

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict:
        """Session counters for ``/metrics``."""
        with self._lock:
            return {
                "active": len(self._sessions),
                "created_total": self.created_total,
                "closed_total": self.closed_total,
                "evicted_total": self.evicted_total,
                "recycled_total": self.recycled_total,
            }
