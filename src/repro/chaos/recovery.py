"""Resilient loading of persisted vector indexes.

A manifest-v3 index directory holds two files that can rot independently:
``manifest.json`` (routing + metadata) and ``arena.bin`` (the mmap scoring
payload).  :class:`~repro.vectordb.sharded.ShardedVectorIndex.load` raises
a typed :class:`~repro.core.errors.IndexCorruptionError` whenever either
is corrupt, partial, or inconsistent; :func:`load_index_resilient` turns
that into the fallback ladder the chaos suite locks:

1. **primary** — the normal :func:`repro.vectordb.load_index` path;
2. **rebuild** — a caller-supplied ``rebuild()`` callback (typically a
   closure over :meth:`repro.core.prediction.PredictionStage.index_history`
   and the incident store) reconstructs the index from first principles.

Every fallback taken is counted into ``rcacopilot.faults.*`` telemetry
when a hub is provided.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.clock import MONOTONIC_CLOCK, Clock
from ..core.errors import IndexCorruptionError


def load_index_resilient(
    path: str,
    similarity=None,
    max_workers: Optional[int] = None,
    compaction=None,
    rebuild: Optional[Callable[[], object]] = None,
    hub=None,
    clock: Optional[Clock] = None,
) -> Tuple[object, str]:
    """Load a persisted index, falling back to ``rebuild()`` on corruption.

    Returns ``(index, source)`` where ``source`` is ``"primary"`` or
    ``"rebuilt"``.  Raises the original :class:`IndexCorruptionError`
    when the index is corrupt and no ``rebuild`` callback is given.
    ``clock`` stamps the recovery-event telemetry (defaults to the real
    clock); replayed/chaos runs inject theirs so fallback events land on
    the run's own timeline.
    """
    clock = clock if clock is not None else MONOTONIC_CLOCK
    from ..vectordb import load_index

    try:
        index = load_index(
            path,
            similarity=similarity,
            max_workers=max_workers,
            compaction=compaction,
        )
        return index, "primary"
    except IndexCorruptionError as exc:
        corruption = exc
    _emit(hub, "index_load_corruptions", clock)
    if rebuild is not None:
        index = rebuild()
        _emit(hub, "index_rebuilds", clock)
        return index, "rebuilt"
    raise corruption


def _emit(hub, suffix: str, clock: Clock) -> None:
    if hub is None:
        return
    hub.emit_metric(
        f"rcacopilot.faults.{suffix}",
        machine="chaos-recovery",
        timestamp=clock.time(),
        value=1.0,
    )
