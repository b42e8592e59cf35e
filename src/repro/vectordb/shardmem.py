"""Zero-copy shard memory: one aligned arena shared by every scoring worker.

The sharded index's scaling story (ROADMAP: "zero-copy retrieval memory")
needs two things the ``.npz``-per-shard layout cannot give:

* **Process-pool scoring without copies.**  Thread pools only help where
  numpy drops the GIL; a process pool helps everywhere — but naively each
  worker would re-pickle every shard matrix per task.  Here the parent lays
  every shard's scoring payload (float64 matrix, creation days, cached
  squared norms, insertion sequences, category codes, plus the int8
  quantized copy with per-row scales) into **one** 64-byte-aligned
  :class:`multiprocessing.shared_memory` arena.  Workers attach *by name*
  and build numpy views over the mapped buffer — a task ships only a shard
  key and a query block, never vectors, so per-worker incremental RSS is
  bounded by scoring temporaries, not by index size.

* **Lazy on-disk mapping.**  :meth:`ShardArena.build` can target a plain
  file instead of a POSIX shm segment; the byte layout is identical, so a
  persisted index (manifest v3) is re-opened with ``np.memmap`` semantics —
  pages of a shard's matrix fault in only when a query actually scans that
  shard, instead of decompressing every ``.npz`` up front.

Lifecycle rules (the part that keeps ``/dev/shm`` clean):

* The creating side owns the segment: :meth:`ShardArena.destroy` unlinks
  it.  Attached sides only :meth:`ShardArena.close` their mapping.
* Unlink-after-remap is safe by POSIX semantics: a reader that attached
  before the unlink keeps a valid mapping until it closes, so the parent
  can swap in a rebuilt arena mid-stream without invalidating in-flight
  searches; stale worker attachments age out of a small keep-last cache.
* Segment lifetime is managed here, not by :mod:`multiprocessing`'s
  resource tracker: every create/attach/unlink runs under
  :func:`_quiet_tracker`, because on this interpreter ``SharedMemory``
  registers even on attach and fork workers share the parent's tracker,
  which corrupts its accounting (spurious KeyErrors, bogus leak warnings,
  double unlinks).  Ownership is pid-guarded instead — only the creating
  process ever unlinks.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import secrets
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Block alignment inside the arena, in bytes.  64 covers every SIMD/cache
#: line width numpy kernels care about.
ALIGNMENT = 64

#: Quantization half-step margin: ``|v - scale * q|`` is bounded by
#: ``0.5 * scale`` in exact arithmetic; the extra 2% absorbs the rounding
#: of the ``v / scale`` division itself.
QUANT_HALF_STEP = 0.51

#: The per-shard arrays an arena block carries, in layout order.
#: (name, dtype, per-row elements: None means ``dim``)
_FIELDS: Tuple[Tuple[str, str, Optional[int]], ...] = (
    ("matrix", "<f8", None),     # float64 vectors — the exact scoring source
    ("days", "<f8", 1),          # creation day per row
    ("sq_norms", "<f8", 1),      # cached |v|^2 per row
    ("seqs", "<i8", 1),          # global insertion sequence per row
    ("codes", "<i8", 1),         # global category code per row
    ("q8", "|i1", None),         # int8 quantized copy of the matrix
    ("qscale", "<f8", 1),        # per-row quantization scale
    ("ql1", "<f8", 1),           # per-row L1 norm of the int8 row
)


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def rss_anon_kb() -> Optional[int]:
    """This process's anonymous (private) resident set, in kB.

    The honest "what does this worker privately cost" metric: pages of a
    shared arena the worker merely reads are file/shm-backed and excluded,
    so a zero-copy scoring worker's number stays flat no matter how big the
    mapped index is.  Returns None off Linux.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def quantize_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric per-row int8 quantization of a float matrix.

    Returns ``(q8, scales, ql1)``: ``q8[i] = rint(matrix[i] / scales[i])``
    clipped to ``[-127, 127]`` with ``scales[i] = max|matrix[i]| / 127``
    (1.0 for all-zero rows, whose quantization is exact), and ``ql1[i] =
    sum|q8[i]|`` — the term the conservative dot-product error bound needs.
    The reconstruction error per element is at most
    :data:`QUANT_HALF_STEP` × scale.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    amax = np.abs(matrix).max(axis=1) if matrix.shape[1] else np.zeros(matrix.shape[0])
    scales = np.where(amax > 0.0, amax / 127.0, 1.0)
    q8 = np.clip(np.rint(matrix / scales[:, None]), -127, 127).astype(np.int8)
    ql1 = np.abs(q8.astype(np.float64)).sum(axis=1)
    return q8, scales, ql1


@dataclass(frozen=True)
class BlockSpec:
    """Byte layout of one shard inside the arena (picklable, tiny)."""

    key: int
    rows: int
    dim: int
    offsets: Tuple[Tuple[str, int], ...]

    def offset(self, name: str) -> int:
        for field_name, offset in self.offsets:
            if field_name == name:
                return offset
        raise KeyError(name)


@dataclass(frozen=True)
class ArenaSpec:
    """Everything a worker needs to attach an arena: a name and a layout.

    ``kind`` is ``"shm"`` (a POSIX shared-memory segment, attach by name)
    or ``"file"`` (a plain file, attach by path with ``np.memmap``
    semantics).  Specs are a few hundred bytes regardless of index size —
    the whole point is that only *this* crosses the process boundary.
    """

    kind: str
    name: str
    size: int
    blocks: Tuple[BlockSpec, ...] = field(default=())

    def block(self, key: int) -> BlockSpec:
        for block in self.blocks:
            if block.key == key:
                return block
        raise KeyError(f"shard {key} not in arena")


def plan_layout(
    shapes: Sequence[Tuple[int, int, int]],
) -> Tuple[Tuple[BlockSpec, ...], int]:
    """Byte layout for shards given ``(key, rows, dim)`` triples.

    Every field of every shard starts on an :data:`ALIGNMENT` boundary; the
    returned total size is likewise aligned (and never zero, since empty
    segments cannot be created).
    """
    offset = 0
    blocks: List[BlockSpec] = []
    for key, rows, dim in shapes:
        offsets: List[Tuple[str, int]] = []
        for name, dtype, width in _FIELDS:
            offset = _align(offset)
            offsets.append((name, offset))
            per_row = dim if width is None else width
            offset += rows * per_row * np.dtype(dtype).itemsize
        blocks.append(BlockSpec(key=key, rows=rows, dim=dim, offsets=tuple(offsets)))
    return tuple(blocks), max(_align(offset), ALIGNMENT)


@contextlib.contextmanager
def _quiet_tracker():
    """Suppress :mod:`multiprocessing` resource-tracker bookkeeping.

    This module manages segment lifetime explicitly (``close`` /
    ``destroy`` with an owner-pid guard), which the tracker's automatic
    accounting actively fights: on this interpreter ``SharedMemory``
    registers even on *attach*, so fork workers — which share the parent's
    tracker process — corrupt the parent's registration set, producing
    spurious KeyErrors and bogus leak warnings at shutdown (Python 3.13
    grew an official ``track=False`` for exactly this reason).  All
    create/attach/unlink calls run under this patch, so the tracker never
    hears about arena segments at all.
    """
    from multiprocessing import resource_tracker

    originals = (resource_tracker.register, resource_tracker.unregister)
    resource_tracker.register = lambda name, rtype: None
    resource_tracker.unregister = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register, resource_tracker.unregister = originals


def attach_shared_memory(name: str):
    """Attach an existing POSIX shm segment without tracker registration.

    ``SharedMemory(name=...)`` registers the segment with the resource
    tracker even on attach; a reader never owns the segment, so that
    registration would later cause spurious unlink attempts.  Attaching
    under :func:`_quiet_tracker` sidesteps the whole class of problems.
    """
    from multiprocessing import shared_memory

    with _quiet_tracker():
        return shared_memory.SharedMemory(name=name)


class ShardArena:
    """One contiguous buffer holding every shard's scoring payload.

    Create with :meth:`build` (parent / writer side) or :meth:`attach`
    (worker / reader side); read arrays back with :meth:`views`.  The
    object is deliberately dumb about *content* — layout and sharing only —
    so the index layer decides what the arrays mean.
    """

    def __init__(
        self,
        spec: ArenaSpec,
        buffer: memoryview,
        segment=None,
        mapped: Optional[mmap.mmap] = None,
        owner: bool = False,
    ) -> None:
        self.spec = spec
        self._buffer = buffer
        self._segment = segment      # SharedMemory (shm kind)
        self._mapped = mapped        # mmap (file kind)
        self._owner = owner
        # Fork safety: a forked worker inherits the parent's owner objects;
        # only the *creating process* may ever unlink the segment, or a
        # worker exiting would tear the arena out from under the parent.
        self._owner_pid = os.getpid() if owner else -1
        self._closed = False

    # ----------------------------------------------------------------- create
    @classmethod
    def build(
        cls,
        payloads: Sequence[Tuple[int, Dict[str, np.ndarray]]],
        kind: str = "shm",
        path: Optional[str] = None,
    ) -> "ShardArena":
        """Lay shard payloads into a fresh arena.

        ``payloads`` maps shard key -> field arrays (the :data:`_FIELDS`
        names); rows/dim are derived from the ``matrix`` field.  ``kind``
        picks the backing: ``"shm"`` creates an anonymous-named POSIX
        segment, ``"file"`` writes ``path`` (the persistence format).
        """
        shapes = [
            (key, arrays["matrix"].shape[0], arrays["matrix"].shape[1])
            for key, arrays in payloads
        ]
        blocks, size = plan_layout(shapes)
        if kind == "shm":
            from multiprocessing import shared_memory

            with _quiet_tracker():
                segment = shared_memory.SharedMemory(
                    create=True, size=size, name=f"repro-arena-{secrets.token_hex(8)}"
                )
            arena = cls(
                ArenaSpec(kind="shm", name=segment.name.lstrip("/"), size=size,
                          blocks=blocks),
                segment.buf,
                segment=segment,
                owner=True,
            )
        elif kind == "file":
            if path is None:
                raise ValueError("file-backed arenas need a path")
            with open(path, "wb") as handle:
                handle.truncate(size)
            handle = open(path, "r+b")
            try:
                mapped = mmap.mmap(handle.fileno(), size)
            finally:
                handle.close()
            arena = cls(
                ArenaSpec(kind="file", name=os.path.abspath(path), size=size,
                          blocks=blocks),
                memoryview(mapped),
                mapped=mapped,
                owner=True,
            )
        else:
            raise ValueError(f"unknown arena kind: {kind!r}")
        for (key, arrays), block in zip(payloads, arena.spec.blocks):
            for name, dtype, width in _FIELDS:
                view = arena._field(block, name, dtype, width, writable=True)
                view[...] = arrays[name]
        return arena

    @classmethod
    def attach(cls, spec: ArenaSpec, writable: bool = False) -> "ShardArena":
        """Map an existing arena (shm by name, file by path) without copying."""
        if spec.kind == "shm":
            segment = attach_shared_memory(spec.name)
            return cls(spec, segment.buf, segment=segment, owner=False)
        if spec.kind == "file":
            handle = open(spec.name, "r+b" if writable else "rb")
            try:
                mapped = mmap.mmap(
                    handle.fileno(),
                    spec.size,
                    access=mmap.ACCESS_WRITE if writable else mmap.ACCESS_READ,
                )
            finally:
                handle.close()
            return cls(spec, memoryview(mapped), mapped=mapped, owner=False)
        raise ValueError(f"unknown arena kind: {spec.kind!r}")

    # ------------------------------------------------------------------- read
    def _field(
        self, block: BlockSpec, name: str, dtype: str, width: Optional[int],
        writable: bool = False,
    ) -> np.ndarray:
        per_row = block.dim if width is None else width
        count = block.rows * per_row
        view = np.frombuffer(
            self._buffer, dtype=np.dtype(dtype), count=count,
            offset=block.offset(name),
        )
        if width is None:
            view = view.reshape(block.rows, block.dim)
        if not writable:
            view = view.view()
            view.flags.writeable = False
        return view

    def views(self, key: int) -> Dict[str, np.ndarray]:
        """Read-only numpy views of one shard's arrays (zero copies)."""
        if self._closed:
            raise ValueError("arena is closed")
        block = self.spec.block(key)
        return {
            name: self._field(block, name, dtype, width)
            for name, dtype, width in _FIELDS
        }

    @property
    def nbytes(self) -> int:
        """Total arena size in bytes."""
        return self.spec.size

    # ---------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Drop this process's mapping (does not destroy the segment)."""
        if self._closed:
            return
        self._closed = True
        # numpy views created via frombuffer keep the exported memoryview
        # alive; release our handle and let theirs expire with them.
        try:
            self._buffer.release()
        except (AttributeError, BufferError):  # pragma: no cover - exported views
            pass
        if self._segment is not None:
            try:
                self._segment.close()
            except BufferError:  # pragma: no cover - live views hold the map
                pass
        if self._mapped is not None:
            try:
                self._mapped.close()
            except BufferError:  # pragma: no cover - live views hold the map
                pass

    def destroy(self) -> None:
        """Unlink the backing segment (owner side).  Safe while attached
        readers still hold their mappings — POSIX keeps the memory alive
        until the last mapping closes; only the *name* disappears."""
        if (
            self._segment is not None
            and self._owner
            and os.getpid() == self._owner_pid
        ):
            try:
                with _quiet_tracker():
                    self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        # File-backed arenas are persistence artifacts; destroying the
        # in-memory handle must never delete the user's saved index.
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.destroy() if self._owner else self.close()
        except Exception:  # noqa: BLE001 - interpreter-shutdown races
            pass


# ------------------------------------------------------------- worker cache
#: Worker-side attachment cache: the last few arenas this process mapped,
#: keyed by (kind, name).  Bounded so a parent that rebuilds its arena under
#: churn (inserts, compaction) cannot make long-lived workers accumulate
#: stale mappings — old entries are closed as new arenas arrive.
_ATTACH_CACHE: Dict[Tuple[str, str], ShardArena] = {}
_ATTACH_CACHE_LIMIT = 2


def attached_arena(spec: ArenaSpec) -> ShardArena:
    """The (cached) attachment of ``spec`` in this process."""
    cache_key = (spec.kind, spec.name)
    arena = _ATTACH_CACHE.get(cache_key)
    if arena is None:
        arena = ShardArena.attach(spec)
        _ATTACH_CACHE[cache_key] = arena
        while len(_ATTACH_CACHE) > _ATTACH_CACHE_LIMIT:
            stale_key = next(iter(_ATTACH_CACHE))
            if stale_key == cache_key:  # pragma: no cover - insertion order
                break
            _ATTACH_CACHE.pop(stale_key).close()
    return arena


def release_attachments() -> None:
    """Close every cached attachment (worker shutdown / tests)."""
    while _ATTACH_CACHE:
        _, arena = _ATTACH_CACHE.popitem()
        arena.close()


# ------------------------------------------------------------- shared blobs
@dataclass(frozen=True)
class BlobSpec:
    """Address of a :class:`SharedBlob`: segment name + payload length."""

    name: str
    length: int


class SharedBlob:
    """One pickled payload in shared memory, written once, read by workers.

    The collection pool uses this for its telemetry-hub snapshot: the hub is
    pickled **once per pool lifetime** into a named segment, and every
    worker — including workers of executors rebuilt after a crash or a
    resize — attaches by name and unpickles from the mapped buffer instead
    of receiving a fresh pickle through the executor plumbing per build.
    """

    def __init__(self, segment, length: int) -> None:
        self._segment = segment
        # Same fork-safety rule as the arena: only the creating process
        # unlinks (forked workers inherit this object and must not).
        self._owner_pid = os.getpid()
        self.spec = BlobSpec(name=segment.name.lstrip("/"), length=length)

    @classmethod
    def create(cls, payload: object) -> "SharedBlob":
        """Pickle ``payload`` into a fresh shared segment."""
        from multiprocessing import shared_memory

        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with _quiet_tracker():
            segment = shared_memory.SharedMemory(
                create=True, size=max(len(data), 1),
                name=f"repro-blob-{secrets.token_hex(8)}",
            )
        segment.buf[: len(data)] = data
        return cls(segment, len(data))

    @staticmethod
    def read(spec: BlobSpec) -> object:
        """Attach, unpickle and detach in one step (reader side)."""
        segment = attach_shared_memory(spec.name)
        try:
            return pickle.loads(bytes(segment.buf[: spec.length]))
        finally:
            segment.close()

    def destroy(self) -> None:
        """Unlink the segment (owner side, idempotent)."""
        if self._segment is None:
            return
        try:
            self._segment.close()
            if os.getpid() == self._owner_pid:
                with _quiet_tracker():
                    self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._segment = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.destroy()
        except Exception:  # noqa: BLE001 - interpreter-shutdown races
            pass
