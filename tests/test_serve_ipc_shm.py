"""Tests for the cluster tier's plumbing: IPC framing, shared-memory
artifact packs, and the zero-copy attach constructors.

The contract under test is byte-fidelity end to end: what goes into a
frame or a shared segment must come out bitwise-equal, and a matcher
built over attached arrays must answer exactly like one loaded from the
artifact file directly.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import numpy as np
import pytest

from repro.core import LHMM
from repro.datasets import save_dataset
from repro.network.ubodt import Ubodt
from repro.serve import ipc
from repro.serve.shards import ShardRegistry, ShardSpec
from repro.serve.shm import ALIGNMENT, SharedArrayPack, leaked_segments
from tests.conftest import OwnSegments


# =====================================================================
# IPC framing
# =====================================================================
class TestIpcBlocking:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"id": 7, "op": "match", "values": [1.5, -0.25, 1e-17]}
            ipc.send_message(a, message)
            received = ipc.recv_message(b)
            assert received == message
            # Floats survive exactly: JSON repr round-trips doubles.
            assert received["values"] == message["values"]
        finally:
            a.close()
            b.close()

    def test_many_messages_in_order(self):
        a, b = socket.socketpair()
        try:
            for i in range(50):
                ipc.send_message(a, {"id": i, "op": "ping"})
            for i in range(50):
                assert ipc.recv_message(b)["id"] == i
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert ipc.recv_message(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # A header announcing 100 bytes, then only 3 arrive before EOF.
            a.sendall(struct.pack("!I", 100) + b"abc")
            a.close()
            with pytest.raises(ipc.IpcError, match="mid-frame"):
                ipc.recv_message(b)
        finally:
            b.close()

    def test_oversized_announced_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", ipc.MAX_FRAME_BYTES + 1))
            with pytest.raises(ipc.IpcError, match="cap"):
                ipc.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(ipc.IpcError, match="exceeds"):
            ipc.frame(b"x" * (ipc.MAX_FRAME_BYTES + 1))

    def test_non_object_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(ipc.frame(b"[1,2,3]"))
            with pytest.raises(ipc.IpcError, match="JSON object"):
                ipc.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_message_payload_strips_envelope(self):
        assert ipc.message_payload({"id": 1, "op": "x", "a": 2}) == {"a": 2}


class TestIpcAsyncio:
    def test_async_and_blocking_sides_interoperate(self):
        """The gateway (asyncio) and worker (blocking) framing agree."""
        gateway_side, worker_side = socket.socketpair()
        replies = []

        def worker():
            # The worker loop: blocking recv, blocking reply, exit on EOF.
            while True:
                message = ipc.recv_message(worker_side)
                if message is None:
                    break
                ipc.send_message(
                    worker_side, {"id": message["id"], "ok": True, "echo": message}
                )
            worker_side.close()

        thread = threading.Thread(target=worker)
        thread.start()

        async def gateway():
            reader, writer = await asyncio.open_connection(sock=gateway_side)
            for i in range(10):
                await ipc.write_message(reader and writer, {"id": i, "op": "ping"})
            for _ in range(10):
                replies.append(await ipc.read_message(reader))
            writer.close()

        asyncio.run(gateway())
        thread.join(timeout=5)
        assert [r["id"] for r in replies] == list(range(10))
        assert all(r["ok"] for r in replies)

    def test_async_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()

        async def read():
            reader, writer = await asyncio.open_connection(sock=b)
            result = await ipc.read_message(reader)
            writer.close()
            return result

        assert asyncio.run(read()) is None


# =====================================================================
# shared-memory packs
# =====================================================================
class TestSharedArrayPack:
    def _arrays(self):
        rng = np.random.default_rng(5)
        return {
            "f64": rng.standard_normal((7, 3)),
            "i32": np.arange(11, dtype=np.int32),
            "i64": np.arange(5, dtype=np.int64) * 10,
            "empty": np.zeros((0, 4), dtype=np.float64),
        }

    def test_publish_attach_bitwise_equal(self):
        source = self._arrays()
        pack = SharedArrayPack.publish(source)
        try:
            attached = SharedArrayPack.attach(pack.meta)
            try:
                for name, original in source.items():
                    view = attached[name]
                    assert view.dtype == original.dtype
                    assert view.shape == original.shape
                    assert view.tobytes() == original.tobytes()
            finally:
                attached.close()
        finally:
            pack.unlink()
            pack.close()

    def test_views_are_read_only_on_both_sides(self):
        pack = SharedArrayPack.publish({"a": np.arange(4.0)})
        try:
            attached = SharedArrayPack.attach(pack.meta)
            for side in (pack, attached):
                with pytest.raises(ValueError):
                    side["a"][0] = 99.0
            attached.close()
        finally:
            pack.unlink()
            pack.close()

    def test_offsets_are_aligned(self):
        pack = SharedArrayPack.publish(
            {"a": np.zeros(3, dtype=np.int8), "b": np.zeros(5, dtype=np.float64)}
        )
        try:
            for spec in pack.meta["arrays"].values():
                assert spec["offset"] % ALIGNMENT == 0
        finally:
            pack.unlink()
            pack.close()

    def test_unlink_removes_segment(self):
        pack = SharedArrayPack.publish({"a": np.arange(3.0)})
        name = pack.segment_name
        assert name in leaked_segments()
        pack.unlink()
        pack.close()
        assert name not in leaked_segments()

    def test_attacher_refuses_to_unlink(self):
        pack = SharedArrayPack.publish({"a": np.arange(3.0)})
        try:
            attached = SharedArrayPack.attach(pack.meta)
            with pytest.raises(RuntimeError, match="does not own"):
                attached.unlink()
            attached.close()
        finally:
            pack.unlink()
            pack.close()

    def test_native_dtypes_preserved(self):
        """scipy CSR index arrays may be int32 — no silent upcasting."""
        pack = SharedArrayPack.publish({"idx": np.arange(9, dtype=np.int32)})
        try:
            attached = SharedArrayPack.attach(pack.meta)
            assert attached["idx"].dtype == np.int32
            attached.close()
        finally:
            pack.unlink()
            pack.close()


# =====================================================================
# zero-copy attach constructors
# =====================================================================
class TestAdoptConstructors:
    def test_network_adopt_preserves_routing(self, tiny_dataset):
        network = tiny_dataset.network
        engine = tiny_dataset.engine
        pairs = [
            (a, b)
            for a in list(network.segments)[:4]
            for b in list(network.segments)[-4:]
        ]
        before = [engine.route_length(a, b) for a, b in pairs]
        # Keep references to the original (plain-memory) arrays so the
        # session-scoped network can be restored afterwards: an adopted
        # network must never outlive its segment (workers hold their pack
        # for life for exactly this reason).
        original = network.shared_state_arrays()
        pack = SharedArrayPack.publish(original)
        attached = SharedArrayPack.attach(pack.meta)
        try:
            network.adopt_shared_state(dict(attached.arrays))
            engine.clear_cache()
            after = [engine.route_length(a, b) for a, b in pairs]
            assert after == before
        finally:
            network.adopt_shared_state(original)
            engine.clear_cache()
            attached.close()
            pack.unlink()
            pack.close()

    def test_ubodt_attach_sorted_lookups_identical(self, tiny_dataset):
        table = Ubodt.build(tiny_dataset.network, 1500.0)
        attached = Ubodt.attach_sorted(table.delta_m, table.sorted_arrays())
        segments = list(tiny_dataset.network.segments)[:12]
        for a in segments:
            for b in segments:
                assert attached.lookup(a, b) == table.lookup(a, b)

    def test_registry_attach_matches_direct_load(
        self, tmp_path, tiny_dataset, trained_lhmm
    ):
        """The full publish→attach path answers like LHMM.load."""
        dataset_path = tmp_path / "tiny.json.gz"
        model_path = tmp_path / "model.npz"
        save_dataset(tiny_dataset, dataset_path)
        trained_lhmm.save(model_path)

        own = OwnSegments()
        registry = ShardRegistry.publish(
            [ShardSpec(region="default", dataset=str(dataset_path),
                       model=str(model_path))]
        )
        try:
            attached_matcher, pack = registry.attach_matcher("default")
            direct = LHMM.load(model_path, tiny_dataset)
            for sample in tiny_dataset.samples[:5]:
                got = attached_matcher.match(sample.cellular)
                expected = direct.match(sample.cellular)
                assert got.path == expected.path
                assert got.matched_sequence == expected.matched_sequence
                assert got.score == expected.score
            # The attached model arrays are views over the shared
            # segment, bitwise-equal to the published contents.
            for key in pack.arrays:
                if key.startswith("model."):
                    assert pack[key].flags.writeable is False
            pack.close()
        finally:
            registry.close(unlink=True)
        assert own.leaked() == []
