"""Structured error taxonomy of the matching system.

Every failure the pipeline can produce descends from :class:`ReproError`,
split along the one distinction callers actually act on: *bad input*
(:class:`InvalidTrajectoryInput` — the request can never succeed, HTTP
422) versus *internal failure* (:class:`MatchFailure` and friends — the
request might succeed on retry or via a degraded path, HTTP 500).  The
classes double-inherit from the builtin exceptions they historically
were (``ValueError`` / ``RuntimeError``) so existing ``except`` clauses
keep working.

Failures that must cross a process boundary (a worker crash cannot ship
a live traceback) travel as :class:`MatchError` — a small picklable
record that slots into a batch result list where the
:class:`~repro.core.matcher.MatchResult` would have been.  See
``docs/robustness.md`` for the full table and the degradation cascade.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ReproError(Exception):
    """Root of every structured error raised by this package.

    Attributes:
        code: A stable, machine-readable identifier (snake_case); wire
            payloads and logs carry it so handlers do not parse messages.
        http_status: The HTTP status the serving layer maps this class to.
        hint: A one-line remediation suggestion the CLI prints alongside
            the error (empty when no generic remediation exists).
    """

    code = "internal_error"
    http_status = 500
    hint = ""

    def to_payload(self) -> dict:
        """JSON-ready representation (used by the serving layer)."""
        return {"code": self.code, "message": str(self)}


class InvalidTrajectoryInput(ReproError, ValueError):
    """The trajectory itself is unusable: empty, non-finite or
    out-of-bounds coordinates, or no candidate roads anywhere near a
    point.  Retrying the same input can never succeed (HTTP 422)."""

    code = "invalid_trajectory"
    http_status = 422


class MatchFailure(ReproError, RuntimeError):
    """Matching failed for an internal reason (learner, trellis, or
    state error) on input that may be perfectly fine."""

    code = "match_failure"


class RoutingFailure(MatchFailure):
    """The routing backend failed (engine error, broken table) — distinct
    from a route simply not existing, which is a normal score outcome."""

    code = "routing_failure"


class WorkerCrash(MatchFailure):
    """A matcher worker process died (OOM kill, segfault, SIGKILL) while
    holding work: a forked ``match_many`` chunk or a serving worker's
    in-flight operation."""

    code = "worker_crash"


class ArtifactCorrupt(ReproError, RuntimeError):
    """A model/checkpoint file failed an integrity check: truncated
    archive, checksum mismatch, or an array that disagrees with its own
    manifest.  The bytes on disk cannot be trusted (HTTP 500)."""

    code = "artifact_corrupt"
    hint = (
        "the file is damaged or truncated — restore it from a backup, "
        "re-download it, or retrain with `python -m repro train`"
    )


class ArtifactIncompatible(ReproError, ValueError):
    """A model/checkpoint file is intact but cannot be used here: wrong
    artifact kind, unsupported format version, a configuration
    fingerprint that disagrees with the running one, or weights trained
    for a different map.  Retrying with the same file can never succeed
    (HTTP 422)."""

    code = "artifact_incompatible"
    http_status = 422
    hint = (
        "the artifact does not fit this configuration/dataset — check "
        "that the model was trained with the same config and map"
    )


class TrainingDiverged(ReproError, RuntimeError):
    """Training hit a non-finite loss or an exploding gradient norm and
    the rollback budget (``LHMMConfig.max_rollbacks``) is exhausted."""

    code = "training_diverged"
    hint = (
        "lower the learning rate, raise max_rollbacks, or train with "
        "--checkpoint-dir so divergence can roll back to a good epoch"
    )


class ModelReloadFailed(ReproError, RuntimeError):
    """A serving rollout (or A/B challenger) was rejected: the artifact
    could not be staged, or the candidate loaded but failed its canary
    run.  The previous generation keeps serving."""

    code = "model_reload_failed"
    hint = (
        "the previous generation is still serving; fix the artifact (or "
        "its path) and POST /v1/admin/rollout again"
    )


class UnknownRegion(ReproError, KeyError):
    """The request names a region the shard registry does not serve.
    Retrying the same request can never succeed here (HTTP 404) — the
    caller either has the wrong deployment or a typo'd region."""

    code = "unknown_region"
    http_status = 404
    hint = (
        "list the served regions with GET /healthz, or start the cluster "
        "with --region NAME=DATASET:MODEL for this one"
    )


class ClusterUnavailable(ReproError, RuntimeError):
    """The serving cluster cannot take the request right now: it is
    draining, or every matcher worker is dead and the respawn budget is
    exhausted.  The condition is temporary from the caller's point of
    view (HTTP 503 + ``Retry-After``) — retry against this or another
    instance."""

    code = "cluster_unavailable"
    http_status = 503
    hint = "retry after a backoff; check /healthz for worker status"


class ServerOverloaded(ReproError, RuntimeError):
    """Arrival rate exceeds service rate and the admission queue is full;
    the request was shed *before* any matching work happened.  The
    gateway answers this with HTTP 503 + ``Retry-After`` — overload is a
    property of the deployment, not of the request, so a retry elsewhere
    (or later) can succeed."""

    code = "server_overloaded"
    http_status = 503
    hint = "back off and retry; scale workers up or raise the queue limit"


class DeadlineExceeded(ReproError, RuntimeError):
    """The request's client-supplied deadline expired before (or while)
    the work could run; the work was shed, not half-done.  Mapped to
    HTTP 504 — retrying with the *same* deadline budget on an overloaded
    deployment will likely expire again."""

    code = "deadline_exceeded"
    http_status = 504
    hint = "raise deadline_ms, or retry when the deployment is less loaded"


class DegradedResult(ReproError):
    """Marker: a result was produced by a fallback stage, not the full
    learned matcher.  Never raised across an API boundary — the cascade
    catches it internally and tags ``MatchResult.provenance`` instead —
    but fault injection raises it to exercise exactly that path."""

    code = "degraded_result"


@dataclass(slots=True)
class MatchError:
    """A per-trajectory failure slot in a batch result list.

    Picklable and exception-free so it can cross process boundaries and
    sit in the same list as successful results: batch callers check
    ``isinstance(slot, MatchError)`` instead of losing the whole batch
    to one poison trajectory.
    """

    code: str
    message: str
    index: int = -1
    detail: dict = field(default_factory=dict)

    @classmethod
    def from_exception(cls, error: BaseException, index: int = -1) -> "MatchError":
        code = getattr(error, "code", None) or "match_failure"
        return cls(code=code, message=str(error) or type(error).__name__, index=index)

    @property
    def http_status(self) -> int:
        if self.code in (InvalidTrajectoryInput.code, ArtifactIncompatible.code):
            return 422
        return 500

    def to_payload(self) -> dict:
        """JSON-ready representation (the per-item wire form)."""
        payload = {"code": self.code, "message": self.message}
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    def raise_(self) -> None:
        """Re-raise as the taxonomy class matching :attr:`code`."""
        for klass in (
            InvalidTrajectoryInput,
            RoutingFailure,
            WorkerCrash,
            ArtifactCorrupt,
            ArtifactIncompatible,
            TrainingDiverged,
        ):
            if klass.code == self.code:
                raise klass(self.message)
        raise MatchFailure(self.message)


__all__ = [
    "ReproError",
    "InvalidTrajectoryInput",
    "MatchFailure",
    "RoutingFailure",
    "WorkerCrash",
    "ArtifactCorrupt",
    "ArtifactIncompatible",
    "TrainingDiverged",
    "ModelReloadFailed",
    "UnknownRegion",
    "ClusterUnavailable",
    "ServerOverloaded",
    "DeadlineExceeded",
    "DegradedResult",
    "MatchError",
]
