"""Chaos tests: real worker kills, hangs, and self-healing.

Every test here injects faults via :mod:`repro.testing.faults` — SIGKILL
inside gateway workers and training runs, wedged match ops — and asserts
the guarantees ``docs/robustness.md`` promises: admitted work is never
dropped, answers stay bit-identical to serial matching, failures come
back as structured errors, and the same server keeps serving.

Excluded from the default suite (they kill processes and sleep); run
with ``pytest -m chaos``.
"""

import filecmp
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core import LHMM, OnlineLHMM
from repro.datasets import load_dataset, save_dataset
from repro.serve import (
    ClusterConfig,
    ClusterServer,
    MatchingClient,
    ServeClientError,
    ServerBusy,
    ShardRegistry,
    ShardSpec,
)
from repro.serve.shm import leaked_segments
from repro.testing import faults

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def saved_paths(tmp_path_factory, trained_lhmm, tiny_dataset):
    root = tmp_path_factory.mktemp("chaos")
    model_path = root / "model.npz"
    dataset_path = root / "tiny.json.gz"
    trained_lhmm.save(model_path)
    save_dataset(tiny_dataset, dataset_path)
    return str(model_path), str(dataset_path)


@pytest.fixture(scope="module")
def serial_reference(saved_paths, tiny_dataset):
    """(trajectories, serial results) from a matcher reloaded off disk —
    the exact computation the pool workers perform."""
    model_path, dataset_path = saved_paths
    reloaded = LHMM.load(model_path, load_dataset(dataset_path))
    trajectories = [sample.cellular for sample in tiny_dataset.test][:8]
    return trajectories, reloaded.match_many(trajectories)


class TestTrainingKillResume:
    """SIGKILL mid-training, then ``--resume``: the final model artifact
    must be byte-identical to an uninterrupted run (the acceptance
    property of ``docs/robustness.md``'s training-resilience section)."""

    @pytest.fixture(scope="class")
    def micro_dataset_file(self, tmp_path_factory):
        from repro.cellular import SimulationConfig, TowerPlacementConfig
        from repro.datasets import DatasetConfig, make_city_dataset
        from repro.network import CityConfig

        config = DatasetConfig(
            name="micro",
            city=CityConfig(grid_rows=7, grid_cols=7, block_size_m=250.0),
            towers=TowerPlacementConfig(base_spacing_m=400.0),
            simulation=SimulationConfig(min_trip_m=800.0, max_trip_m=2000.0),
            num_trajectories=40,
            groundtruth="oracle",
        )
        path = tmp_path_factory.mktemp("train-chaos") / "micro.json.gz"
        save_dataset(make_city_dataset(config, rng=7), path)
        return path

    def _train(self, dataset_file, out, extra=(), env_extra=None):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env.pop(faults.ENV_VAR, None)
        if env_extra:
            env.update(env_extra)
        cmd = [
            sys.executable, "-m", "repro", "train",
            "--dataset", str(dataset_file),
            "-o", str(out),
            "--epochs", "2",
            "--dim", "12",
            "--candidates", "8",
            "--seed", "0",
            *extra,
        ]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    @pytest.fixture(scope="class")
    def uninterrupted_model(self, micro_dataset_file, tmp_path_factory):
        out = tmp_path_factory.mktemp("train-chaos") / "reference.npz"
        proc = self._train(micro_dataset_file, out)
        assert proc.returncode == 0, proc.stderr
        return out

    def test_sigkill_then_resume_is_bit_identical(
        self, micro_dataset_file, uninterrupted_model, tmp_path
    ):
        out = tmp_path / "model.npz"
        ckpts = tmp_path / "ckpts"
        token = tmp_path / "kill.token"
        killed = self._train(
            micro_dataset_file,
            out,
            extra=["--checkpoint-dir", str(ckpts), "--keep-checkpoints", "3"],
            env_extra={
                faults.ENV_VAR: (
                    "train.epoch:kill:stage=transition_pretrain"
                    f":epoch=1:once={token}"
                )
            },
        )
        assert killed.returncode == -signal.SIGKILL
        assert token.exists()
        assert not out.exists()  # died before the final save
        assert any(p.name.startswith("ckpt-") for p in ckpts.iterdir())
        resumed = self._train(
            micro_dataset_file,
            out,
            extra=["--checkpoint-dir", str(ckpts), "--resume"],
        )
        assert resumed.returncode == 0, resumed.stderr
        assert filecmp.cmp(uninterrupted_model, out, shallow=False)

    def test_corrupt_newest_checkpoint_falls_back_to_previous(
        self, micro_dataset_file, uninterrupted_model, tmp_path
    ):
        """Kill the run, damage the newest checkpoint on disk, resume:
        training restarts from the previous good epoch, warns, and still
        converges to the byte-identical model."""
        out = tmp_path / "model.npz"
        ckpts = tmp_path / "ckpts"
        token = tmp_path / "kill.token"
        killed = self._train(
            micro_dataset_file,
            out,
            extra=["--checkpoint-dir", str(ckpts), "--keep-checkpoints", "3"],
            env_extra={
                faults.ENV_VAR: (
                    "train.epoch:kill:stage=observation_finetune"
                    f":epoch=1:once={token}"
                )
            },
        )
        assert killed.returncode == -signal.SIGKILL
        files = sorted(ckpts.iterdir())
        assert len(files) >= 2
        blob = bytearray(files[-1].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        files[-1].write_bytes(bytes(blob))
        resumed = self._train(
            micro_dataset_file,
            out,
            extra=["--checkpoint-dir", str(ckpts), "--resume"],
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "corrupt checkpoint" in resumed.stderr
        assert filecmp.cmp(uninterrupted_model, out, shallow=False)


class TestServeUnderFaults:
    def _points(self, sample):
        return [
            {
                "x": p.position.x,
                "y": p.position.y,
                "t": p.timestamp,
                "tower_id": p.tower_id,
            }
            for p in sample.cellular.points
        ]

    def test_worker_killed_mid_request_answers_503_and_server_survives(
        self, boot_gateway, trained_lhmm, tiny_dataset, tmp_path
    ):
        """The only worker dies holding a request: the client gets a
        retryable 503 (not a hung or dropped connection), ``/healthz``
        shows the respawn, and the respawned worker answers the retry."""
        token = tmp_path / "kill.token"
        server = boot_gateway(fault_spec=f"cluster.op:kill:op=match:once={token}")
        client = MatchingClient(server.host, server.port, timeout=120.0)
        sample = tiny_dataset.test[0]
        with pytest.raises(ServerBusy) as excinfo:
            client._request("POST", "/v1/match", {"points": self._points(sample)})
        assert excinfo.value.status == 503
        assert token.exists()  # the fault really fired
        retry = client.match_with_retry(
            [sample.cellular], max_attempts=10, base_delay_s=0.1
        )
        assert retry[0]["path"] == trained_lhmm.match(sample.cellular).path
        health = client.health()
        assert health["status"] == "degraded"
        assert health["degraded"]["worker_respawns_total"] >= 1
        counters = client.metrics()["counters"]
        assert counters["worker_deaths_total"] >= 1
        assert counters["worker_respawns_total"] >= 1

    def test_worker_loss_is_invisible_to_the_client(
        self, boot_gateway, serial_reference, tmp_path
    ):
        """With a sibling alive, a worker killed mid-batch costs latency
        only: the request fails over and the client sees complete,
        non-degraded, serial-identical results."""
        trajectories, serial = serial_reference
        token = tmp_path / "kill.token"
        server = boot_gateway(
            fault_spec=f"cluster.op:kill:op=match:once={token}", num_workers=2
        )
        client = MatchingClient(server.host, server.port, timeout=120.0)
        results = client.match(trajectories[:4])
        assert token.exists()
        assert [r["path"] for r in results] == [s.path for s in serial[:4]]
        assert all(r["provenance"] == "lhmm" for r in results)
        health = client.health()
        assert health["status"] == "degraded"  # the death is visible
        assert health["degraded"]["match_failed_total"] == 0
        again = client.match(trajectories[:2])
        assert [r["path"] for r in again] == [s.path for s in serial[:2]]

    def test_cluster_worker_sigkill_handoff_and_no_shm_leak(
        self, saved_paths, trained_lhmm, tiny_dataset
    ):
        """SIGKILL -9 the worker that owns a live streaming session.

        The guarantees under test: the gateway respawns the worker and
        replays the session journal so the final path is bit-identical to
        an uninterrupted decode; the killed worker's death does NOT
        unlink the shared artifact segment the survivor is still mapped
        over (the attach suppresses resource-tracker registration); and a
        full shutdown afterwards leaves zero leaked segments.
        """
        model_path, dataset_path = saved_paths
        registry = ShardRegistry.publish(
            [ShardSpec(region="default", dataset=dataset_path, model=model_path)]
        )
        segments = {s["segment"] for s in registry.describe().values()}
        sample = tiny_dataset.test[0]
        server = ClusterServer(
            registry, ClusterConfig(port=0, num_workers=2, cache_size=0)
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=120.0)
            session = client.create_session(lag=3)
            points = list(sample.cellular.points)
            for point in points[: len(points) // 2]:
                session.feed(point)

            owner = server._records[session.session_id].worker_name
            victim = server._handles[owner]
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while victim.alive and time.monotonic() < deadline:
                time.sleep(0.05)

            # The kill (and the dead worker's teardown) must not take the
            # shared segment with it — the survivor still serves from it.
            assert segments <= set(leaked_segments())

            for point in points[len(points) // 2 :]:
                self._feed_with_retry(session, point)
            path = session.close()
            assert path == OnlineLHMM(trained_lhmm, lag=3).match_stream(
                sample.cellular
            )

            metrics = client.metrics()
            assert metrics["counters"]["worker_deaths_total"] >= 1
            assert metrics["counters"]["worker_respawns_total"] >= 1
            assert metrics["counters"]["sessions_replayed_total"] >= 1
            respawned = next(
                w for w in metrics["workers"] if w["name"] == owner
            )
            assert respawned["alive"] and respawned["generation"] >= 2

            # Batch traffic on the healed cluster: bit-identical again.
            results = client.match_with_retry(
                [sample.cellular], max_attempts=6, base_delay_s=0.1
            )
            assert results[0]["path"] == trained_lhmm.match(sample.cellular).path
        finally:
            server.shutdown()
        assert segments.isdisjoint(leaked_segments())

    def test_cluster_exhausted_respawns_shrink_the_ring(
        self, saved_paths, trained_lhmm, tiny_dataset
    ):
        """With ``respawn_limit=0`` a killed worker leaves the hash ring;
        the survivor takes over all traffic and shutdown still unlinks."""
        model_path, dataset_path = saved_paths
        registry = ShardRegistry.publish(
            [ShardSpec(region="default", dataset=dataset_path, model=model_path)]
        )
        segments = {s["segment"] for s in registry.describe().values()}
        sample = tiny_dataset.test[1]
        server = ClusterServer(
            registry,
            ClusterConfig(port=0, num_workers=2, cache_size=0, respawn_limit=0),
        ).start()
        try:
            client = MatchingClient(server.host, server.port, timeout=120.0)
            victim = server._handles["w0"]
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while "w0" in server._ring.nodes and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server._ring.nodes == {"w1"}

            health = client.health()
            assert health["status"] == "degraded"
            assert health["workers_alive"] == 1

            results = client.match_with_retry(
                [sample.cellular], max_attempts=6, base_delay_s=0.1
            )
            assert results[0]["path"] == trained_lhmm.match(sample.cellular).path
            session = client.create_session(lag=3)
            for point in sample.cellular.points:
                self._feed_with_retry(session, point)
            assert session.close() == OnlineLHMM(
                trained_lhmm, lag=3
            ).match_stream(sample.cellular)
        finally:
            server.shutdown()
        assert segments.isdisjoint(leaked_segments())

    @staticmethod
    def _feed_with_retry(session, point, attempts: int = 40):
        """Feed one point, riding out the 503s while a respawn settles."""
        for attempt in range(attempts):
            try:
                return session.feed(point)
            except (ServeClientError, ConnectionError) as error:
                if isinstance(error, ServeClientError) and error.status != 503:
                    raise
                if attempt == attempts - 1:
                    raise
                time.sleep(0.25)

    def test_drain_waits_for_slow_worker_op(
        self, boot_gateway, serial_reference, tmp_path
    ):
        """Graceful shutdown under a wedged-then-slow match op: the
        admitted request is still answered correctly, never dropped."""
        trajectories, serial = serial_reference
        token = tmp_path / "hang.token"
        server = boot_gateway(
            fault_spec=f"cluster.op:hang:op=match:seconds=2:once={token}"
        )
        client = MatchingClient(server.host, server.port, timeout=120.0)
        with ThreadPoolExecutor(max_workers=1) as executor:
            in_flight = executor.submit(client.match, trajectories[0])
            deadline = time.monotonic() + 10.0
            while not token.exists():  # admitted and inside the worker
                assert time.monotonic() < deadline
                time.sleep(0.01)
            server.shutdown()  # must drain, not drop, the slow op
            results = in_flight.result(timeout=60)
        assert results[0]["path"] == serial[0].path
