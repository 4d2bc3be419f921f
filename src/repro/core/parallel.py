"""Process-parallel batch matching with per-item fault isolation.

Matching is embarrassingly parallel across trajectories but the fitted
matcher (embeddings, learner weights, road network, routing caches) is
expensive to ship per task.  :func:`fork_match_many` — used by
:meth:`LHMM.match_many(workers=N) <repro.core.matcher.LHMM.match_many>`
and the evaluation harness — therefore forks POSIX workers that inherit
the in-memory fitted matcher read-only; nothing is pickled but the
trajectories and results.

Chunks are dispatched in fixed sizes and reassembled by chunk index, so
output order — and content, trajectory for trajectory — is identical to
serial matching.  Each worker keeps its own LRU-bounded route cache;
per-worker hit/miss counters are collected with every chunk and left on
``matcher.last_parallel_stats``.

Fault tolerance (``docs/robustness.md``):

* **Per-item isolation** — a trajectory whose match raises does not poison
  its chunk: the worker catches the exception and returns a
  :class:`~repro.errors.MatchError` slot in its place.
* **No self-healing** — a crashed forked worker raises
  :class:`~repro.errors.WorkerCrash`; the caller still owns the in-memory
  matcher and can simply retry serially (``LHMM.match_many`` does).  The
  long-lived, self-healing worker fleet is the serving gateway's
  (:mod:`repro.serve.cluster`).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import TYPE_CHECKING

from repro.errors import MatchError, WorkerCrash
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cellular.trajectory import Trajectory
    from repro.core.matcher import LHMM, MatchResult

# Worker-process state: the fitted matcher, inherited through fork.
_WORKER_STATE: dict = {}


def _match_chunk(chunk_index: int, start_index: int, trajectories: "list[Trajectory]"):
    """Match one chunk inside a worker; returns result/error slots + counters.

    A failing trajectory yields a :class:`MatchError` slot (carrying its
    global batch index) instead of raising, so one bad input cannot void
    the work of its chunk-mates.
    """
    faults.fire("worker.chunk", chunk=chunk_index)
    matcher = _WORKER_STATE["matcher"]
    results: list = []
    for offset, trajectory in enumerate(trajectories):
        try:
            results.append(matcher.match(trajectory))
        except Exception as error:  # noqa: BLE001 - slotted, not raised
            results.append(MatchError.from_exception(error, index=start_index + offset))
    stats = dict(getattr(matcher.engine, "cache_stats", dict)())
    stats["pid"] = os.getpid()
    return chunk_index, results, stats


def _chunked(items: list, chunk_size: int) -> list[list]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def _run_chunks(
    pool: ProcessPoolExecutor, chunks: dict[int, tuple[int, list]]
) -> tuple[dict[int, list], dict[int, dict]]:
    """Submit ``chunks`` (index -> (start, items)); collect every result.

    Returns ``(chunk index -> result slots, pid -> cache counters)``.  A
    worker death (``BrokenProcessPool``) or any other chunk-level failure
    raises :class:`WorkerCrash` — the forked pool is not rebuilt.
    """
    completed: dict[int, list] = {}
    per_worker: dict[int, dict] = {}
    try:
        futures = [
            pool.submit(_match_chunk, index, start, items)
            for index, (start, items) in chunks.items()
        ]
        for future in as_completed(futures):
            chunk_index, results, stats = future.result()
            completed[chunk_index] = results
            pid = stats.pop("pid", 0)
            # Counters are cumulative per worker: keep the freshest snapshot.
            seen = per_worker.get(pid)
            if seen is None or sum(stats.values()) >= sum(seen.values()):
                per_worker[pid] = stats
    except Exception as error:  # noqa: BLE001 - BrokenProcessPool and kin
        raise WorkerCrash(
            f"forked matching pool failed ({type(error).__name__}: {error}); "
            "rerun serially"
        ) from error
    return completed, per_worker


def _raise_or_return(results: list, return_errors: bool) -> list:
    """Legacy contract: re-raise the first error slot unless slots are wanted."""
    if not return_errors:
        for slot in results:
            if isinstance(slot, MatchError):
                slot.raise_()
    return results


def fork_match_many(
    matcher: "LHMM",
    trajectories: "list[Trajectory]",
    workers: int,
    chunk_size: int | None = None,
    return_errors: bool = False,
) -> "list[MatchResult] | None":
    """Match ``trajectories`` over forked workers sharing ``matcher``.

    Returns ``None`` when fork is unavailable (caller falls back to serial).
    With ``return_errors=True`` failing trajectories come back as
    :class:`MatchError` slots; otherwise the first failure is re-raised
    (the pre-fault-tolerance contract).  A crashed worker raises
    :class:`WorkerCrash` — forked pools are not rebuilt (the caller holds
    the in-memory matcher and can rerun serially).  Aggregated per-worker
    cache counters are left on ``matcher.last_parallel_stats``.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX platforms
        return None
    workers = min(workers, len(trajectories))
    if chunk_size is None:
        # ~4 chunks per worker balances load without oversized pickles.
        chunk_size = max(1, -(-len(trajectories) // (workers * 4)))
    chunk_items = _chunked(trajectories, chunk_size)
    chunks = {
        index: (index * chunk_size, items) for index, items in enumerate(chunk_items)
    }
    _WORKER_STATE["matcher"] = matcher
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            completed, per_worker = _run_chunks(pool, chunks)
    finally:
        _WORKER_STATE.pop("matcher", None)
    flat = [slot for index in sorted(completed) for slot in completed[index]]
    matcher.last_parallel_stats = {
        "workers": len(per_worker),
        "chunks": len(chunks),
        "per_worker": per_worker,
    }
    return _raise_or_return(flat, return_errors)
