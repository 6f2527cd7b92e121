"""Zero-copy ring sharing via ``multiprocessing.shared_memory``.

A frozen :class:`~repro.core.ring.Ring` bottoms out in a handful of
numpy arrays: per wavelet-matrix level a plain bitvector (``_words``
uint64 payload, ``_super`` uint64 superblock counters, ``_rel`` uint16
in-superblock counters) and per attribute one int64 cumulative-count
array.  :func:`export_ring` copies those arrays once into a single
shared-memory segment (64-byte aligned, so every view is at its natural
alignment) and records their offsets in a small picklable
:class:`RingHandle`; :func:`attach_ring` rebuilds a fully functional
``Ring`` in another process whose arrays are *views into the segment* —
no pickling of index data, no per-worker copy, RSS grows by pages
touched, not by index size.

Only the plain-bitvector, plain-counts ring is exportable: RRR
bitvectors and Elias–Fano counts keep Python-object state that a flat
segment cannot carry; exporting one raises :class:`ShmExportError`
(callers fall back to serial execution).

Lifetime: the exporting process owns the segment and unlinks it in
:meth:`SharedRing.close`.  Attached processes only close their mapping;
pool workers are forked, so they share the exporter's resource tracker
and leave the segment's registration to the owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.bits.bitvector import BitVector
from repro.core.counts import PackedCounts
from repro.core.frozen import RingLayoutError, collect_ring_arrays
from repro.core.ring import Ring
from repro.graph.model import O, P, S
from repro.sequences.wavelet_matrix import WaveletMatrix

_ALIGN = 64

#: ``path -> (offset, dtype, length)``; paths are ``wm{zone}.l{lvl}.words``
#: / ``.super`` / ``.rel`` and ``c{attr}``.
ArrayTable = dict[str, tuple[int, str, int]]


class ShmExportError(RingLayoutError):
    """The ring's layout cannot be exported to a flat shared segment."""


@dataclass(frozen=True)
class RingHandle:
    """Everything a worker needs to re-attach the ring (picklable).

    Equality and hash cover the segment only, so a handle can key the
    per-process ring memo of :func:`repro.parallel.system.run_slice`.
    """

    name: str  #: shared-memory segment name
    size: int  #: segment size in bytes
    #: ring scalars (n, sigma, wm shapes…)
    meta: dict = field(repr=False, compare=False)
    arrays: ArrayTable = field(repr=False, compare=False)


@dataclass(frozen=True)
class PackHandle:
    """Attach target for a frozen pack on disk (picklable).

    A ring already persisted as a frozen pack needs no shm segment at
    all: every worker maps the *file* read-only and the page cache is
    the shared memory — same zero-copy property, no O(index) export
    copy, and the mapping works across unrelated processes and
    restarts.
    """

    path: str  #: frozen pack file (``repro.core.frozen`` layout)


class SharedRing:
    """Owner-side wrapper: the segment plus its :class:`RingHandle`.

    The exporting process keeps this alive for as long as any worker may
    attach; :meth:`close` unmaps and unlinks the segment.  Usable as a
    context manager.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: RingHandle) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.handle = handle

    @property
    def size(self) -> int:
        return self.handle.size

    def close(self) -> None:
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def _collect_arrays(ring: Ring) -> tuple[dict, dict[str, np.ndarray]]:
    """Walk the ring; return (meta scalars, path -> source array).

    Delegates to the shared flat-buffer collector
    (:func:`repro.core.frozen.collect_ring_arrays` — the same layout the
    frozen pack persists), surfacing layout failures as
    :class:`ShmExportError` (RRR bitvectors, Elias–Fano counts).
    """
    try:
        return collect_ring_arrays(ring)
    except ShmExportError:
        raise
    except RingLayoutError as exc:
        raise ShmExportError(str(exc)) from None


def export_ring(ring: Ring, name: Optional[str] = None) -> SharedRing:
    """Copy the ring's backing arrays into one shared segment.

    One-time O(index size) copy in the exporting process; every
    subsequent :func:`attach_ring` is zero-copy.
    """
    meta, sources = _collect_arrays(ring)
    table: ArrayTable = {}
    offset = 0
    for path, arr in sources.items():
        offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
        table[path] = (offset, arr.dtype.str, int(arr.size))
        offset += arr.nbytes
    size = max(offset, 1)
    shm = shared_memory.SharedMemory(create=True, size=size, name=name)
    for path, arr in sources.items():
        off, dtype, length = table[path]
        view = np.ndarray((length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
        view[:] = arr
    handle = RingHandle(name=shm.name, size=size, meta=meta, arrays=table)
    return SharedRing(shm, handle)


def _attach_bitvector(
    shm: shared_memory.SharedMemory,
    table: ArrayTable,
    prefix: str,
    level_meta: dict,
) -> BitVector:
    return BitVector.from_components(
        _view(shm, table, f"{prefix}.words"),
        _view(shm, table, f"{prefix}.super"),
        _view(shm, table, f"{prefix}.rel"),
        n=int(level_meta["n"]),
        ones=int(level_meta["ones"]),
    )


def _view(
    shm: shared_memory.SharedMemory, table: ArrayTable, path: str
) -> np.ndarray:
    off, dtype, length = table[path]
    arr = np.ndarray((length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
    arr.flags.writeable = False
    return arr


def attach_ring(handle: RingHandle) -> Ring:
    """Rebuild a fully functional ring over the shared segment.

    Every array of the result is a read-only view into the segment —
    attaching allocates only Python object shells (a few KB).  The
    returned ring keeps the mapping alive through a ``_shm`` attribute;
    it is independent of the exporting ring (own leap memo, generation
    0) and read-only by construction.

    A :class:`PackHandle` attaches by memory-mapping the frozen pack
    file instead (there is no segment to leak: the kernel drops the
    mapping with the process).
    """
    if isinstance(handle, PackHandle):
        from repro.core.frozen import open_frozen_ring

        ring, _ = open_frozen_ring(handle.path, mmap=True, verify=True)
        return ring
    shm = shared_memory.SharedMemory(name=handle.name)
    meta, table = handle.meta, handle.arrays
    seq = {}
    for zone in (S, P, O):
        wmm = meta["wm"][zone]
        levels = [
            _attach_bitvector(shm, table, f"wm{zone}.l{level}", lm)
            for level, lm in enumerate(wmm["level_meta"])
        ]
        seq[zone] = WaveletMatrix.from_levels(
            levels,
            [int(z) for z in wmm["zeros"]],
            n=int(wmm["n"]),
            sigma=int(wmm["sigma"]),
        )
    counts = {
        attr: PackedCounts.from_raw(
            _view(shm, table, f"c{attr}"), validate=False
        )
        for attr in (S, P, O)
    }
    ring = Ring.from_components(
        seq,
        counts,
        n=int(meta["n"]),
        sigma=tuple(int(s) for s in meta["sigma"]),
        compressed=False,
        leap_memo_size=int(meta["leap_memo_size"]),
    )
    ring._shm = shm  # keeps the mapping alive for the ring's lifetime
    return ring


def detach_ring(ring: Ring) -> None:
    """Close an attached ring's mapping (the owner still holds the
    segment; this only unmaps the local view)."""
    shm = getattr(ring, "_shm", None)
    if shm is not None:
        ring._shm = None
        shm.close()
