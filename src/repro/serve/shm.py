"""Publish-once / attach-many numpy arrays over POSIX shared memory.

The cluster gateway loads every heavy artifact exactly once — road-network
geometry tables, CSR adjacency, the structured UBODT table, model
embedding matrices — packs them into one
:class:`multiprocessing.shared_memory.SharedMemory` segment per shard,
and hands workers a small JSON-able *layout* describing where each array
lives.  Workers attach read-only views over the same physical pages, so N
worker processes cost one copy of the artifacts instead of N.

Ownership is asymmetric and explicit:

* the **publisher** (gateway) creates the segment and is the only side
  that ever calls :meth:`SharedArrayPack.unlink`;
* an **attacher** (worker) maps the existing segment *without* letting
  its ``multiprocessing.resource_tracker`` see it — otherwise a worker
  dying (or being SIGKILLed and its tracker winding down) could unlink a
  segment the rest of the fleet is still serving from.  This is the
  standard workaround for `bpo-38119`; Python 3.13 grew a ``track=False``
  argument for the same purpose, but this tree targets 3.11.

Layouts are plain dicts (array name → dtype/shape/offset) so they can
ride the IPC protocol or a fork; offsets are 64-byte aligned, which keeps
every attached array suitably aligned for its dtype.  All views are
marked read-only on both sides — the artifacts are immutable by design,
and an accidental in-place write in one worker must not corrupt its
siblings.
"""

from __future__ import annotations

import os
import secrets
import signal
from pathlib import Path

import numpy as np

#: Byte alignment of every array inside a segment.
ALIGNMENT = 64

#: Prefix of every segment this module creates (leak scans key on it).
SEGMENT_PREFIX = "repro-shm-"


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live ``/dev/shm`` segments with ``prefix`` (Linux only).

    The chaos suite calls this after killing workers to prove nothing
    leaked; on platforms without a visible ``/dev/shm`` it returns ``[]``
    (no way to scan, nothing to assert).
    """
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in root.glob(f"{prefix}*"))


class SegmentJanitor:
    """A tiny forked process that unlinks segments when its parent dies.

    Shared-memory segments outlive their creator: a gateway that is
    SIGKILLed (OOM killer, ``kill -9``) never runs its atexit hooks, and
    its workers — mere attachers — must *never* unlink.  The janitor
    closes that hole.  It is forked at publish time holding only the read
    end of a pipe; the publisher (and, via fork, every worker) holds the
    write end.  While any of them lives, the pipe stays open and the
    janitor blocks.  When the *whole* fleet is gone — however it died —
    the kernel closes the last write end, the janitor reads EOF, unlinks
    every segment it was told about, and exits.

    The protocol over the pipe is newline-delimited text: ``ADD name`` /
    ``DEL name`` keep the janitor's segment set in sync as generations
    are published and retired; ``QUIT`` makes it exit *without* unlinking
    (graceful shutdown already unlinked everything — and unlink is
    idempotent anyway, so even a race here is harmless).

    Workers keep their fork-inherited write end on purpose: they exit on
    EOF from the gateway's socketpair, so a SIGKILLed gateway takes the
    fleet down with it and the janitor unlinks once the last one is gone.
    """

    def __init__(self) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - separate process, untraceable
            os.close(write_fd)
            self._child_main(read_fd)  # never returns
        os.close(read_fd)
        self.pid = pid
        self._write_fd: int | None = write_fd

    @staticmethod
    def _child_main(read_fd: int) -> None:  # pragma: no cover - child process
        # A Ctrl+C against the process group must not kill the janitor
        # before it can clean up after the (also-interrupted) gateway.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        names: set[str] = set()
        buffer = b""
        quit_clean = False
        while True:
            try:
                chunk = os.read(read_fd, 4096)
            except OSError:
                break
            if not chunk:
                break  # every write end closed: the fleet is gone
            buffer += chunk
            while b"\n" in buffer:
                line, _, buffer = buffer.partition(b"\n")
                command, _, name = line.decode("utf-8", "replace").partition(" ")
                if command == "ADD":
                    names.add(name)
                elif command == "DEL":
                    names.discard(name)
                elif command == "QUIT":
                    quit_clean = True
            if quit_clean:
                break
        if not quit_clean:
            for name in names:
                try:
                    # The direct /dev/shm path sidesteps SharedMemory's
                    # resource tracker, which a bare cleanup process must
                    # not spawn; on non-Linux there is nothing to scan and
                    # nothing leaks visibly, matching leaked_segments().
                    Path("/dev/shm", name).unlink()
                except OSError:
                    pass
        os._exit(0)

    def _send(self, line: str) -> None:
        if self._write_fd is None:
            return
        try:
            os.write(self._write_fd, (line + "\n").encode("utf-8"))
        except OSError:  # janitor already gone; nothing left to guard
            pass

    def add(self, name: str) -> None:
        """Start guarding ``name`` (unlinked if the fleet dies uncleanly)."""
        self._send(f"ADD {name}")

    def remove(self, name: str) -> None:
        """Stop guarding ``name`` (it was retired and unlinked in-line)."""
        self._send(f"DEL {name}")

    def quit(self) -> None:
        """Graceful shutdown: the janitor exits without unlinking."""
        if self._write_fd is None:
            return
        self._send("QUIT")
        try:
            os.close(self._write_fd)
        except OSError:  # pragma: no cover
            pass
        self._write_fd = None
        try:
            os.waitpid(self.pid, 0)
        except (ChildProcessError, OSError):  # pragma: no cover - reaped
            pass


class SharedArrayPack:
    """A named set of numpy arrays living in one shared-memory segment.

    Construct via :meth:`publish` (owner side) or :meth:`attach` (worker
    side); access arrays through the :attr:`arrays` mapping.  The pack is
    a context manager that closes its local mapping on exit; the segment
    itself survives until the owner calls :meth:`unlink`.
    """

    def __init__(self, shm, arrays: dict[str, np.ndarray], meta: dict, owner: bool) -> None:
        self._shm = shm
        self.arrays = arrays
        self.meta = meta
        self.owner = owner
        self._closed = False

    # ------------------------------------------------------------- creation
    @classmethod
    def publish(cls, arrays: dict[str, np.ndarray], name: str | None = None) -> "SharedArrayPack":
        """Copy ``arrays`` into a fresh segment and return the owner pack.

        Array dtypes and shapes are preserved exactly (no casting), so an
        attached view is bitwise-equal to — and drop-in compatible with —
        the source array.  Insertion order is kept in the layout.
        """
        from multiprocessing import shared_memory

        contiguous = {
            key: np.ascontiguousarray(value) for key, value in arrays.items()
        }
        layout: dict[str, dict] = {}
        offset = 0
        for key, value in contiguous.items():
            offset = _align(offset)
            layout[key] = {
                "dtype": value.dtype.str,
                "shape": list(value.shape),
                "offset": offset,
            }
            offset += value.nbytes
        size = max(offset, 1)  # zero-size segments are not allowed
        segment = name or SEGMENT_PREFIX + secrets.token_hex(8)
        shm = shared_memory.SharedMemory(name=segment, create=True, size=size)
        views: dict[str, np.ndarray] = {}
        for key, value in contiguous.items():
            spec = layout[key]
            view = np.ndarray(
                value.shape, dtype=value.dtype, buffer=shm.buf, offset=spec["offset"]
            )
            view[...] = value
            view.flags.writeable = False
            views[key] = view
        meta = {"segment": shm.name, "size": size, "arrays": layout}
        return cls(shm, views, meta, owner=True)

    @classmethod
    def attach(cls, meta: dict) -> "SharedArrayPack":
        """Map an existing segment described by a :meth:`publish` layout."""
        from multiprocessing import resource_tracker, shared_memory

        # Keep the attach invisible to the resource tracker: attachers
        # must never unlink a segment they do not own (see module
        # docstring).  Suppressing the registration beats the usual
        # register-then-unregister dance because forked workers share the
        # parent's tracker daemon, whose name cache is a *set* — two
        # workers registering and unregistering the same segment would
        # make the second unregister die with a KeyError in the tracker.
        original_register = resource_tracker.register
        def _skip_shm(name: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - not hit here
                original_register(name, rtype)
        resource_tracker.register = _skip_shm
        try:
            shm = shared_memory.SharedMemory(name=meta["segment"])
        finally:
            resource_tracker.register = original_register
        views: dict[str, np.ndarray] = {}
        for key, spec in meta["arrays"].items():
            view = np.ndarray(
                tuple(spec["shape"]),
                dtype=np.dtype(spec["dtype"]),
                buffer=shm.buf,
                offset=spec["offset"],
            )
            view.flags.writeable = False
            views[key] = view
        return cls(shm, views, meta, owner=False)

    # ------------------------------------------------------------ lifecycle
    @property
    def segment_name(self) -> str:
        """OS-level name of the backing segment."""
        return self.meta["segment"]

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all packed arrays."""
        return sum(
            int(np.prod(spec["shape"]) * np.dtype(spec["dtype"]).itemsize)
            for spec in self.meta["arrays"].values()
        )

    def close(self) -> None:
        """Drop this process's mapping (the segment itself stays).

        Only call when nothing references the pack's arrays anymore —
        closing can unmap the pages under any still-live numpy view.
        Workers therefore keep their pack for their whole life and let
        process exit release the mapping; a pinned buffer that refuses to
        unmap is not an error for the same reason.
        """
        if self._closed:
            return
        self._closed = True
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:  # views still alive; freed at process exit
            pass

    def unlink(self) -> None:
        """Remove the segment from the OS (owner only; idempotent)."""
        if not self.owner:
            raise RuntimeError(
                f"refusing to unlink {self.segment_name}: this pack only "
                "attached the segment, it does not own it"
            )
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass

    def __enter__(self) -> "SharedArrayPack":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        return key in self.arrays

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]
