"""Unit tests for the error taxonomy and the fault-injection harness."""

import pytest

from repro.errors import (
    ArtifactCorrupt,
    DegradedResult,
    InvalidTrajectoryInput,
    MatchError,
    MatchFailure,
    ReproError,
    RoutingFailure,
    WorkerCrash,
)
from repro.testing import faults


class TestTaxonomy:
    def test_every_class_descends_from_repro_error(self):
        for klass in (
            InvalidTrajectoryInput,
            MatchFailure,
            RoutingFailure,
            WorkerCrash,
            ArtifactCorrupt,
            DegradedResult,
        ):
            assert issubclass(klass, ReproError)

    def test_backward_compatible_builtin_bases(self):
        # Pre-taxonomy callers catch ValueError / RuntimeError; both must
        # keep working.
        assert issubclass(InvalidTrajectoryInput, ValueError)
        assert issubclass(MatchFailure, RuntimeError)
        assert issubclass(RoutingFailure, RuntimeError)
        assert issubclass(WorkerCrash, RuntimeError)
        assert issubclass(ArtifactCorrupt, RuntimeError)

    def test_codes_are_unique_and_stable(self):
        codes = {
            klass.code
            for klass in (
                ReproError,
                InvalidTrajectoryInput,
                MatchFailure,
                RoutingFailure,
                WorkerCrash,
                ArtifactCorrupt,
                DegradedResult,
            )
        }
        assert len(codes) == 7
        assert InvalidTrajectoryInput.code == "invalid_trajectory"
        assert WorkerCrash.code == "worker_crash"

    def test_http_status_split(self):
        assert InvalidTrajectoryInput.http_status == 422
        assert MatchFailure.http_status == 500
        assert ArtifactCorrupt.http_status == 500

    def test_to_payload(self):
        payload = RoutingFailure("ubodt table corrupt").to_payload()
        assert payload == {"code": "routing_failure", "message": "ubodt table corrupt"}


class TestMatchErrorSlot:
    def test_from_exception_carries_code_and_index(self):
        slot = MatchError.from_exception(InvalidTrajectoryInput("empty"), index=3)
        assert slot.code == "invalid_trajectory"
        assert slot.message == "empty"
        assert slot.index == 3
        assert slot.http_status == 422

    def test_from_foreign_exception_defaults_to_match_failure(self):
        slot = MatchError.from_exception(KeyError("segment 9"), index=0)
        assert slot.code == "match_failure"
        assert slot.http_status == 500

    def test_raise_round_trips_the_taxonomy_class(self):
        for klass in (InvalidTrajectoryInput, RoutingFailure, WorkerCrash, ArtifactCorrupt):
            slot = MatchError.from_exception(klass("boom"))
            with pytest.raises(klass, match="boom"):
                slot.raise_()

    def test_is_picklable(self):
        import pickle

        slot = MatchError(code="worker_crash", message="died", index=7)
        clone = pickle.loads(pickle.dumps(slot))
        assert clone == slot


class TestFaultSpecs:
    def test_parse_grammar(self):
        specs = faults.parse_specs(
            "worker.chunk:kill:chunk=1:once=/tmp/tok,"
            "match.learned:raise:error=routing,"
            "worker.chunk:hang:seconds=2.5"
        )
        assert [s.point for s in specs] == ["worker.chunk", "match.learned", "worker.chunk"]
        assert specs[0].action == "kill"
        assert specs[0].match == {"chunk": "1"}
        assert specs[0].once_path == "/tmp/tok"
        assert specs[1].error == "routing"
        assert specs[2].seconds == 2.5

    def test_parse_rejects_bare_point(self):
        with pytest.raises(ValueError):
            faults.parse_specs("worker.chunk")

    def test_applies_requires_matching_context(self):
        spec = faults.parse_specs("worker.chunk:raise:chunk=1")[0]
        assert spec.applies("worker.chunk", {"chunk": 1})
        assert not spec.applies("worker.chunk", {"chunk": 2})
        assert not spec.applies("match", {"chunk": 1})

    def test_once_token_claims_exactly_once(self, tmp_path):
        token = tmp_path / "tok"
        spec = faults.FaultSpec(point="p", action="raise", once_path=str(token))
        assert spec.claim()
        assert not spec.claim()
        assert token.exists()

    def test_armed_context_manager_raises_then_disarms(self):
        with faults.armed("match.learned", "raise", error="routing"):
            with pytest.raises(RoutingFailure):
                faults.fire("match.learned", trajectory_id=0)
        faults.fire("match.learned", trajectory_id=0)  # disarmed: no-op

    def test_fire_matches_context_keys(self):
        with faults.armed("match", "raise", trajectory_id=4):
            faults.fire("match", trajectory_id=3)  # wrong id: no-op
            with pytest.raises(MatchFailure):
                faults.fire("match", trajectory_id=4)

    def test_arm_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            faults.arm("match", "explode")
