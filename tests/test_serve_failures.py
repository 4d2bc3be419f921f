"""Serve-layer failure paths on the gateway: status mapping, per-item
error slots, degraded health, and rollout refusals that keep the old
generation serving.  Worker-killing scenarios are in ``test_chaos.py``.

Faults reach the forked workers through ``REPRO_FAULTS``, armed while a
per-test gateway forks its fleet (``boot_gateway(fault_spec=...)``).
Inside a worker a trajectory's ``trajectory_id`` is its batch index.
"""

import math

import numpy as np
import pytest

from repro.nn.serialization import write_artifact
from repro.serve import MatchingClient, ServeClientError, protocol
from repro.testing import faults


@pytest.fixture()
def client(gateway):
    return MatchingClient(gateway.host, gateway.port, timeout=60.0)


def _points(sample):
    return [
        {"x": p.position.x, "y": p.position.y, "t": p.timestamp, "tower_id": p.tower_id}
        for p in sample.cellular.points
    ]


class TestStatusMapping:
    def test_empty_points_is_400(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/v1/match", {"points": []})
        assert excinfo.value.status == 400

    def test_non_finite_coordinate_is_400(self, client):
        # Python's json emits/parses bare NaN; the protocol layer must
        # refuse it before it can poison a batch.
        with pytest.raises(ServeClientError) as excinfo:
            client._request(
                "POST", "/v1/match", {"points": [{"x": math.nan, "y": 0.0, "t": 0.0}]}
            )
        assert excinfo.value.status == 400
        assert "finite" in excinfo.value.payload["error"]

    def test_out_of_bounds_point_is_422_with_field(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request(
                "POST",
                "/v1/match",
                {"points": [{"x": 1e7, "y": 1e7, "t": 0.0}]},
            )
        assert excinfo.value.status == 422
        assert excinfo.value.payload["code"] == "invalid_trajectory"
        assert "points[0]" in excinfo.value.payload["error"]

    def test_bad_trajectory_in_batch_is_422_naming_its_index(
        self, client, tiny_dataset
    ):
        good = _points(tiny_dataset.test[0])
        bad = [{"x": 1e7, "y": 1e7, "t": 0.0}]
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/v1/match", {"trajectories": [good, bad]})
        assert excinfo.value.status == 422
        assert "trajectories[1]" in excinfo.value.payload["error"]


class TestPerItemFaultIsolation:
    def test_one_failing_trajectory_does_not_void_the_batch(
        self, boot_gateway, trained_lhmm, tiny_dataset
    ):
        # The "match" fault point sits outside the degradation cascade,
        # so trajectory 1 fails outright while 0 and 2 succeed.
        server = boot_gateway(fault_spec="match:raise:trajectory_id=1")
        client = MatchingClient(server.host, server.port, timeout=60.0)
        samples = tiny_dataset.test[:3]
        results = client._request(
            "POST", "/v1/match", {"trajectories": [_points(s) for s in samples]}
        )["results"]
        assert results[1]["error"]["code"] == "match_failure"
        for i in (0, 2):
            assert results[i] == protocol.encode_match_result(
                trained_lhmm.match(samples[i].cellular)
            )
        counters = client.metrics()["counters"]
        assert counters["match_failed_total"] == 1
        assert counters["trajectories_matched"] == 2

    def test_single_trajectory_failure_is_500_and_server_survives(
        self, boot_gateway, trained_lhmm, tiny_dataset, tmp_path
    ):
        token = tmp_path / "raise-once"
        server = boot_gateway(fault_spec=f"match:raise:trajectory_id=0:once={token}")
        client = MatchingClient(server.host, server.port, timeout=60.0)
        sample = tiny_dataset.test[0]
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/v1/match", {"points": _points(sample)})
        assert excinfo.value.status == 500
        assert excinfo.value.payload["code"] == "match_failure"
        # The worker answered a failure, it did not die on it.
        assert client._request("POST", "/v1/match", {"points": _points(sample)})[
            "result"
        ]["path"] == trained_lhmm.match(sample.cellular).path
        assert client.health()["workers_alive"] == 1


class TestDegradedHealth:
    def test_healthy_server_reports_ok_with_zeroed_counters(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["degraded"] == {
            "match_degraded_total": 0,
            "match_failed_total": 0,
            "worker_respawns_total": 0,
        }
        counters = client.metrics()["counters"]
        assert counters["match_degraded_total"] == 0
        assert counters["worker_respawns_total"] == 0

    def test_degraded_match_flips_health_and_counts(self, boot_gateway, tiny_dataset):
        server = boot_gateway(fault_spec="match.learned:raise")
        client = MatchingClient(server.host, server.port, timeout=60.0)
        result = client._request(
            "POST", "/v1/match", {"points": _points(tiny_dataset.test[0])}
        )["result"]
        assert result["provenance"] == "heuristic_hmm"
        assert result["path"]
        health = client.health()
        assert health["status"] == "degraded"
        assert health["degraded"]["match_degraded_total"] == 1
        assert client.metrics()["counters"]["match_degraded_total"] == 1

    def test_normal_results_carry_lhmm_provenance(self, client, tiny_dataset):
        result = client._request(
            "POST", "/v1/match", {"points": _points(tiny_dataset.test[0])}
        )["result"]
        assert result["provenance"] == "lhmm"


class TestModelReload:
    """``POST /v1/admin/rollout`` re-reads or swaps the served artifact;
    every refusal leaves the running generation serving untouched."""

    def _generation(self, client):
        return client.health()["generations"]["default"]

    def _assert_still_serving(self, client, trained_lhmm, tiny_dataset):
        sample = tiny_dataset.test[0]
        result = client.match([sample.cellular])[0]
        assert result == protocol.encode_match_result(trained_lhmm.match(sample.cellular))

    def test_successful_reload_bumps_generation(
        self, client, trained_lhmm, tiny_dataset
    ):
        before = self._generation(client)
        rollouts = client.metrics()["counters"]["rollouts_total"]
        info = client.rollout()
        assert info["region"] == "default"
        assert info["generation"] == before + 1
        assert info["workers_swapped"] == 1
        assert info["workers_failed"] == 0
        assert info["canary_checked"] >= 1
        assert self._generation(client) == before + 1
        assert client.metrics()["counters"]["rollouts_total"] == rollouts + 1
        # The swapped-in generation answers byte-identically.
        self._assert_still_serving(client, trained_lhmm, tiny_dataset)

    def test_healthz_reports_the_model_section(self, client):
        health = client.health()
        assert health["generations"]["default"] >= 1
        assert health["ab_live"] == []

    def test_missing_artifact_is_refused_and_old_model_serves(
        self, client, tmp_path, trained_lhmm, tiny_dataset
    ):
        before = self._generation(client)
        failures = client.metrics()["counters"].get("rollout_failures_total", 0)
        with pytest.raises(ServeClientError) as excinfo:
            client.rollout(model=str(tmp_path / "nope.npz"))
        assert excinfo.value.status == 500
        assert excinfo.value.payload["code"] == "model_reload_failed"
        assert self._generation(client) == before
        assert client.metrics()["counters"]["rollout_failures_total"] == failures + 1
        self._assert_still_serving(client, trained_lhmm, tiny_dataset)

    def test_corrupt_artifact_is_500_artifact_corrupt(
        self, client, tmp_path, served_paths
    ):
        before = self._generation(client)
        _, model_path = served_paths
        with open(model_path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.npz"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ServeClientError) as excinfo:
            client.rollout(model=str(bad))
        assert excinfo.value.status == 500
        assert excinfo.value.payload["code"] == "artifact_corrupt"
        assert self._generation(client) == before

    def test_incompatible_artifact_is_422(self, client, tmp_path):
        before = self._generation(client)
        wrong = tmp_path / "wrong-kind.npz"
        write_artifact(wrong, {"w": np.zeros(3)}, kind="module-state")
        with pytest.raises(ServeClientError) as excinfo:
            client.rollout(model=str(wrong))
        assert excinfo.value.status == 422
        assert excinfo.value.payload["code"] == "artifact_incompatible"
        assert self._generation(client) == before

    def test_failed_canary_keeps_the_old_model_serving(
        self, client, gateway, trained_lhmm, tiny_dataset, monkeypatch
    ):
        """The candidate stages fine but its canary probe fails: the
        swap is refused, the failure is counted, and the resident
        generation keeps answering."""
        before = self._generation(client)
        pids = [w["pid"] for w in client.metrics()["workers"]]
        # Only the probe worker forks while this is armed.
        monkeypatch.setenv(faults.ENV_VAR, "cluster.op:raise:op=canary")
        with pytest.raises(ServeClientError) as excinfo:
            client.rollout()
        monkeypatch.delenv(faults.ENV_VAR)
        assert excinfo.value.status == 500
        assert excinfo.value.payload["code"] == "model_reload_failed"
        assert "canary" in excinfo.value.payload["error"]
        assert self._generation(client) == before
        assert [w["pid"] for w in client.metrics()["workers"]] == pids
        self._assert_still_serving(client, trained_lhmm, tiny_dataset)
