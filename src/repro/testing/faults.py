"""Fault injection: named failure points the pipeline exposes to tests.

Production code calls :func:`fire` at a handful of *fault points*; the
call is a near-free no-op unless a matching :class:`FaultSpec` is armed.
Specs can be armed two ways:

* **In-process** — ``faults.arm("match.learned", "raise")`` (tests in the
  same interpreter; pairs with ``disarm_all`` in teardown or the
  ``monkeypatch``-friendly :func:`armed` context manager).
* **Via environment** — ``REPRO_FAULTS="cluster.op:kill:op=match"``:
  parsed on every fire, so worker processes forked *after* the variable
  is set inherit the fault.  This is how a test reaches inside a serving
  worker it cannot otherwise touch.

Actions:

``kill``
    ``SIGKILL`` the current process — simulates the OOM killer.
``hang``
    Sleep ``seconds`` (default 30) — simulates a wedged worker.
``raise``
    Raise :class:`~repro.errors.MatchFailure` (or the class named by
    ``error=``: ``invalid`` / ``routing`` / ``degraded``).

One-shot semantics across processes use a filesystem token: a spec with
``once=/path/to/token`` fires only if it can *create* that file
(``O_EXCL``), so a killed worker's retried work does not kill its
replacement too.

Fault points currently wired into production code:

=================  ==========================================================
point              where it fires
=================  ==========================================================
``worker.chunk``   start of ``_match_chunk`` in a forked ``match_many``
                   worker (context: ``chunk``)
``match``          top of ``LHMM.match``, *outside* the degradation
                   cascade (context: ``trajectory_id``)
``match.learned``  inside the learned path of ``LHMM.match``, *inside*
                   the cascade — failures here degrade, not fail
``match.heuristic``  inside the heuristic-HMM fallback stage
``train.epoch``    top of every training epoch, after the previous
                   epoch's checkpoint was saved (context: ``stage``,
                   ``epoch``) — the SIGKILL point for resume tests
``train.step``     inside every gradient step, before backward
                   (context: ``stage``, ``epoch``, ``step``); arm with
                   ``error=diverged`` to exercise rollback
``cluster.op``     top of every cluster-worker IPC op (context: ``op``,
                   ``worker``) — ``op=ping:hang`` wedges a worker for
                   stall-detection tests, ``op=canary:raise`` fails a
                   rollout canary; arm via env *before* the worker forks
=================  ==========================================================
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import (
    DegradedResult,
    InvalidTrajectoryInput,
    MatchFailure,
    RoutingFailure,
    TrainingDiverged,
)

ENV_VAR = "REPRO_FAULTS"

_ERROR_CLASSES = {
    "match": MatchFailure,
    "invalid": InvalidTrajectoryInput,
    "routing": RoutingFailure,
    "degraded": DegradedResult,
    "diverged": TrainingDiverged,
}


@dataclass(slots=True)
class FaultSpec:
    """One armed fault: fires at ``point`` when ``match`` keys agree."""

    point: str
    action: str
    match: dict = field(default_factory=dict)
    seconds: float = 30.0
    error: str = "match"
    once_path: str | None = None

    def applies(self, point: str, context: dict) -> bool:
        """True when ``point`` and every ``match`` key agree with the fire site."""
        if point != self.point:
            return False
        for key, wanted in self.match.items():
            if str(context.get(key)) != wanted:
                return False
        return True

    def claim(self) -> bool:
        """Atomically claim a one-shot token; always True for repeating specs."""
        if self.once_path is None:
            return True
        try:
            fd = os.open(self.once_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def execute(self, point: str) -> None:
        """Perform the armed action (kill / hang / raise)."""
        if self.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.action == "hang":
            time.sleep(self.seconds)
        elif self.action == "raise":
            klass = _ERROR_CLASSES.get(self.error, MatchFailure)
            raise klass(f"injected fault at {point!r}")
        else:  # pragma: no cover - guarded by parse/arm
            raise ValueError(f"unknown fault action {self.action!r}")


# Process-local armed specs (tests running in this interpreter).
_ARMED: list[FaultSpec] = []


def arm(
    point: str,
    action: str,
    *,
    seconds: float = 30.0,
    error: str = "match",
    once_path: str | None = None,
    **match,
) -> FaultSpec:
    """Arm a fault in this process; returns the spec (see :func:`disarm`)."""
    if action not in ("kill", "hang", "raise"):
        raise ValueError(f"unknown fault action {action!r}")
    spec = FaultSpec(
        point=point,
        action=action,
        match={k: str(v) for k, v in match.items()},
        seconds=seconds,
        error=error,
        once_path=once_path,
    )
    _ARMED.append(spec)
    return spec


def disarm(spec: FaultSpec) -> None:
    """Remove one armed spec (no-op if already gone)."""
    try:
        _ARMED.remove(spec)
    except ValueError:
        pass


def disarm_all() -> None:
    """Remove every process-local spec (environment specs are untouched)."""
    _ARMED.clear()


@contextmanager
def armed(point: str, action: str, **kwargs):
    """Context manager: arm on enter, disarm on exit."""
    spec = arm(point, action, **kwargs)
    try:
        yield spec
    finally:
        disarm(spec)


def parse_specs(text: str) -> list[FaultSpec]:
    """Parse the ``REPRO_FAULTS`` grammar.

    Comma-separated specs of colon-separated fields::

        point:action[:key=value]...

    e.g. ``worker.chunk:kill:chunk=1:once=/tmp/tok`` or
    ``match.learned:raise:error=routing``.  ``seconds``, ``error`` and
    ``once`` are reserved option keys; anything else is a context match.
    """
    specs: list[FaultSpec] = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.split(":")
        if len(parts) < 2:
            raise ValueError(f"bad fault spec {raw!r}: expected point:action[...]")
        point, action = parts[0], parts[1]
        match: dict = {}
        seconds, error, once_path = 30.0, "match", None
        for option in parts[2:]:
            key, _, value = option.partition("=")
            if key == "seconds":
                seconds = float(value)
            elif key == "error":
                error = value
            elif key == "once":
                once_path = value
            else:
                match[key] = value
        specs.append(
            FaultSpec(
                point=point,
                action=action,
                match=match,
                seconds=seconds,
                error=error,
                once_path=once_path,
            )
        )
    return specs


def fire(point: str, **context) -> None:
    """Execute any armed fault matching ``point`` + ``context``.

    Called from production fault points; returns instantly when nothing
    is armed (one list check and one ``os.environ`` lookup).
    """
    env = os.environ.get(ENV_VAR)
    if not _ARMED and not env:
        return
    specs = list(_ARMED)
    if env:
        specs.extend(parse_specs(env))
    for spec in specs:
        if spec.applies(point, context) and spec.claim():
            spec.execute(point)


__all__ = [
    "ENV_VAR",
    "FaultSpec",
    "arm",
    "armed",
    "disarm",
    "disarm_all",
    "fire",
    "parse_specs",
]
