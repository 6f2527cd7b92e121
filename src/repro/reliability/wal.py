"""Crash-safe durability for the dynamic ring: WAL + checkpoints.

:class:`~repro.core.dynamic.DynamicRingIndex` is purely in-memory — a
crash loses every insert and delete.  This module wraps it in the
classic write-ahead protocol so the LSM shape the §7 update story
already follows becomes production-viable:

- **write-ahead log** (:class:`WriteAheadLog`) — every ``insert`` /
  ``delete`` is appended as a CRC32-framed record and fsync'd *before*
  it is applied in memory; the acknowledgement to the caller is the
  durability barrier.  Replay (:func:`replay`) walks the frames,
  truncating a torn tail (a record cut short by the crash, or whose
  CRC no longer matches) rather than deserialising garbage — a torn
  record was by construction never acknowledged;
- **checkpoints** (:func:`write_checkpoint` / :func:`read_store`)
  — each static ring persists once, as its frozen pack
  (:mod:`repro.core.frozen`: the ring's own arrays plus a SHA-256
  sidecar — the ring is the data, no triple is decoded or rebuilt),
  the buffer and tombstone sets ride in the checkpoint
  ``MANIFEST.json``.  A checkpoint is written
  to a fresh ``checkpoint-<epoch>`` directory and becomes current only
  when the one-line ``CURRENT`` pointer file is atomically replaced —
  a crash mid-checkpoint leaves the previous checkpoint (plus the full
  WAL) authoritative;
- **recovery** (:meth:`DurableDynamicRing.recover`) — open the log
  (truncating a torn tail), read the universe and the current
  checkpoint's packs, eagerly or memory-mapped, through
  :func:`read_store` — the reader ``repro verify`` runs too — replay
  the WAL tail on top and keep the log open for appending.  Replay
  skips records the checkpoint already contains (same WAL generation,
  offset below the checkpoint's high-water mark) and re-applies the
  rest; records are set-idempotent, so landing exactly on the last
  acknowledged state needs no undo log.

Layout of an index directory::

    <dir>/universe.npz[.config.json]   id universes + dictionary (fixed)
    <dir>/wal.log                      header + CRC-framed records
    <dir>/CURRENT                      name of the live checkpoint dir
    <dir>/checkpoint-<epoch>/MANIFEST.json
    <dir>/checkpoint-<epoch>/ring-000.ring[.config.json] ...

A store the sharded bulk builder installs
(:func:`install_frozen_checkpoint`) has exactly this shape.

Fault-injection sites ``wal.append``, ``wal.fsync`` and
``checkpoint.write`` (see :mod:`repro.reliability.faults`) hook the
corresponding entry points below; ``scripts/chaos_check.py`` kills the
protocol at each of them and at arbitrary WAL byte offsets to prove
recovery never serves a silent partial state.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.core.dynamic import DEFAULT_BUFFER_THRESHOLD, DynamicRingIndex, Triple
from repro.core.ring import Ring
from repro.core.system import Countable
from repro.graph import io as graph_io
from repro.graph.dataset import Graph
from repro.reliability.integrity import (
    SPOT_CHECK_SAMPLES,
    IndexIntegrityError,
    manifest_path,
    read_npz_graph,
    write_manifest,
)

WAL_MAGIC = b"RINGWAL1"
WAL_VERSION = 1
#: magic, version, generation, n_nodes, n_predicates
_HEADER = struct.Struct("<8sIQQQ")
#: payload length, CRC32(payload)
_FRAME = struct.Struct("<II")
#: opcode, s, p, o
_OP = struct.Struct("<BQQQ")

HEADER_SIZE = _HEADER.size

OP_INSERT = 1
OP_DELETE = 2
_OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete"}

WAL_FILE = "wal.log"
UNIVERSE_FILE = "universe.npz"
CURRENT_POINTER = "CURRENT"
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_MANIFEST = "MANIFEST.json"
CHECKPOINT_VERSION = 1

#: WAL size that triggers a checkpoint during maintenance.
DEFAULT_CHECKPOINT_BYTES = 1 << 20


class WALError(IndexIntegrityError):
    """A WAL file is structurally unusable (bad magic/header/version)."""


def _fsync(f) -> None:
    """Flush + fsync barrier (module-level so faults can hook it)."""
    f.flush()
    os.fsync(f.fileno())


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- records ---------------------------------------------------------------------


@dataclass(frozen=True)
class WALRecord:
    """One durably framed update: ``(op, s, p, o)`` at ``offset``."""

    op: int
    s: int
    p: int
    o: int
    offset: int  # byte offset of the frame start within the file

    @property
    def triple(self) -> Triple:
        return (self.s, self.p, self.o)


@dataclass
class ReplayReport:
    """What :func:`replay` found in a WAL file."""

    path: str
    generation: int
    n_nodes: int
    n_predicates: int
    records: list[WALRecord] = field(default_factory=list)
    valid_bytes: int = HEADER_SIZE  # prefix length holding intact frames
    total_bytes: int = HEADER_SIZE
    corrupt_reason: Optional[str] = None  # why the tail was cut (None=clean)

    @property
    def dropped_bytes(self) -> int:
        return self.total_bytes - self.valid_bytes

    @property
    def truncated(self) -> bool:
        return self.dropped_bytes > 0


def replay(path) -> ReplayReport:
    """Read every intact record of a WAL file (read-only).

    The first frame that is cut short or fails its CRC ends the scan:
    everything from its offset on is a **torn tail** — bytes that were
    in flight when the process died and whose operations were therefore
    never acknowledged.  The report carries the surviving records, the
    durable prefix length (``valid_bytes``) and the reason the tail was
    cut.  A missing or header-corrupt file raises :class:`WALError` —
    with no readable header there is no acknowledged state to recover,
    so silence would be a lie.
    """
    path = str(path)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise WALError(path, f"cannot read WAL: {exc}") from exc
    if len(data) < HEADER_SIZE:
        raise WALError(path, f"WAL shorter than its {HEADER_SIZE}-byte header")
    magic, version, generation, n_nodes, n_predicates = _HEADER.unpack_from(data)
    if magic != WAL_MAGIC:
        raise WALError(path, f"bad WAL magic {magic!r}")
    if version != WAL_VERSION:
        raise WALError(path, f"unsupported WAL version {version}")
    report = ReplayReport(
        path=path,
        generation=generation,
        n_nodes=n_nodes,
        n_predicates=n_predicates,
        total_bytes=len(data),
    )
    pos = HEADER_SIZE
    while pos < len(data):
        if pos + _FRAME.size > len(data):
            report.corrupt_reason = "torn frame header at tail"
            break
        length, crc = _FRAME.unpack_from(data, pos)
        start = pos + _FRAME.size
        end = start + length
        if length != _OP.size or end > len(data):
            report.corrupt_reason = (
                f"torn record at offset {pos} "
                f"(frame wants {length} payload bytes)"
            )
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            report.corrupt_reason = f"CRC mismatch at offset {pos}"
            break
        op, s, p, o = _OP.unpack(payload)
        if op not in _OP_NAMES:
            report.corrupt_reason = f"unknown opcode {op} at offset {pos}"
            break
        report.records.append(WALRecord(op, s, p, o, offset=pos))
        pos = end
        report.valid_bytes = pos
    return report


class WriteAheadLog:
    """Append-only, CRC-framed, fsync-barriered operation log.

    One instance owns the file handle; every :meth:`append` writes a
    complete frame and runs the fsync barrier before returning, so a
    returned offset *is* the durability receipt.
    """

    def __init__(self, path, file, generation: int, n_nodes: int,
                 n_predicates: int) -> None:
        self.path = str(path)
        self._f = file
        self.generation = generation
        self.n_nodes = n_nodes
        self.n_predicates = n_predicates
        self._lock = threading.Lock()

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(cls, path, n_nodes: int, n_predicates: int,
               generation: int = 0) -> "WriteAheadLog":
        """Start a fresh log (refuses to clobber an existing one)."""
        path = str(path)
        if os.path.exists(path):
            raise WALError(path, "WAL already exists; use open()")
        f = open(path, "w+b")
        f.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, generation,
                             n_nodes, n_predicates))
        _fsync(f)
        return cls(path, f, generation, n_nodes, n_predicates)

    @classmethod
    def open(cls, path) -> tuple["WriteAheadLog", ReplayReport]:
        """Open an existing log for appending, truncating any torn tail."""
        report = replay(path)
        f = open(str(path), "r+b")
        if report.truncated:
            f.truncate(report.valid_bytes)
            _fsync(f)
        f.seek(report.valid_bytes)
        wal = cls(path, f, report.generation, report.n_nodes,
                  report.n_predicates)
        return wal, report

    # -- appending -----------------------------------------------------------

    def append(self, op: int, s: int, p: int, o: int) -> int:
        """Frame + write + fsync one record; returns the end offset.

        When this returns, the record is durable.
        """
        payload = _OP.pack(op, int(s), int(p), int(o))
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        with self._lock:
            self._f.write(frame)
            self.sync()
            return self._f.tell()

    def sync(self) -> None:
        """Run the fsync barrier now (module hook: ``wal.fsync`` site)."""
        _fsync(self._f)

    def tell(self) -> int:
        """Current end offset (== durable length after an append)."""
        with self._lock:
            return self._f.tell()

    def reset(self, generation: int) -> None:
        """Truncate to an empty log of a new generation.

        Called after a checkpoint has captured everything: the old
        records are folded into the checkpoint, and the generation bump
        lets recovery tell a fresh log from a pre-checkpoint one.
        """
        with self._lock:
            self._f.seek(0)
            self._f.truncate(0)
            self._f.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, generation,
                                       self.n_nodes, self.n_predicates))
            _fsync(self._f)
            self.generation = generation

    def close(self) -> None:
        with self._lock:
            if not self._f.closed:
                _fsync(self._f)
                self._f.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- checkpoints -----------------------------------------------------------------


def current_checkpoint_dir(directory) -> Optional[str]:
    """Resolve the ``CURRENT`` pointer, or ``None`` before any checkpoint."""
    pointer = os.path.join(str(directory), CURRENT_POINTER)
    if not os.path.exists(pointer):
        return None
    with open(pointer) as f:
        name = f.read().strip()
    if not name:
        raise IndexIntegrityError(pointer, "empty CURRENT pointer")
    target = os.path.join(str(directory), name)
    if not os.path.isdir(target):
        raise IndexIntegrityError(
            pointer, f"CURRENT points at missing checkpoint {name!r}"
        )
    return target


def _checkpoint_path(directory: str, epoch: int) -> str:
    return os.path.join(directory, f"{CHECKPOINT_PREFIX}{epoch:010d}")


def _fresh_checkpoint_tmp(directory: str, epoch: int) -> str:
    """An empty ``checkpoint-<epoch>.tmp`` (stale leftovers removed)."""
    final_dir = _checkpoint_path(directory, epoch)
    tmp_dir = final_dir + ".tmp"
    for stale in (tmp_dir, final_dir):
        if os.path.exists(stale):
            shutil.rmtree(stale)
    os.makedirs(tmp_dir)
    return tmp_dir


def _publish_checkpoint(
    directory: str,
    *,
    epoch: int,
    n_nodes: int,
    n_predicates: int,
    rings: list[dict],
    buffer: Iterable[Triple] = (),
    tombstones: Iterable[Triple] = (),
    wal_generation: int,
    wal_offset: int,
) -> str:
    """Make the fully written ``checkpoint-<epoch>.tmp`` the live checkpoint.

    The one publish path: every pack and its sidecar (whose array table
    is required to open the pack) are fsync'd, then ``MANIFEST.json``,
    then the directory is renamed into place and the ``CURRENT`` pointer
    atomically replaced, each rename followed by a directory fsync.  A
    crash before the pointer swap leaves the previous checkpoint live.
    """
    final_dir = _checkpoint_path(directory, epoch)
    tmp_dir = final_dir + ".tmp"
    for entry in rings:
        ppath = os.path.join(tmp_dir, entry["pack"])
        for path in (ppath, manifest_path(ppath)):
            with open(path, "rb") as f:
                _fsync(f)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "epoch": int(epoch),
        "n_nodes": int(n_nodes),
        "n_predicates": int(n_predicates),
        "rings": rings,
        "buffer": sorted([int(s), int(p), int(o)] for s, p, o in buffer),
        "tombstones": sorted([int(s), int(p), int(o)] for s, p, o in tombstones),
        "wal_generation": int(wal_generation),
        "wal_offset": int(wal_offset),
    }
    with open(os.path.join(tmp_dir, CHECKPOINT_MANIFEST), "w") as f:
        json.dump(manifest, f)
        _fsync(f)
    _fsync_dir(tmp_dir)

    os.replace(tmp_dir, final_dir)
    _fsync_dir(directory)

    pointer_tmp = os.path.join(directory, CURRENT_POINTER + ".tmp")
    with open(pointer_tmp, "w") as f:
        f.write(os.path.basename(final_dir))
        _fsync(f)
    os.replace(pointer_tmp, os.path.join(directory, CURRENT_POINTER))
    _fsync_dir(directory)
    return final_dir


def write_checkpoint(
    directory,
    *,
    epoch: int,
    rings: Iterable[Ring],
    buffer: Iterable[Triple],
    tombstones: Iterable[Triple],
    n_nodes: int,
    n_predicates: int,
    wal_generation: int,
    wal_offset: int,
) -> str:
    """Persist one consistent component set; atomic via pointer swap.

    Each ring is written once, as its frozen pack — the ring *is* the
    data, no triple is decoded.  The checkpoint directory is fully
    written and fsync'd *before* the ``CURRENT`` pointer is atomically
    replaced (:func:`_publish_checkpoint`).  A crash at any byte of
    this function leaves the previous checkpoint — and therefore the
    previous recovery outcome — untouched.
    """
    from repro.core.frozen import write_frozen_ring

    directory = str(directory)
    tmp_dir = _fresh_checkpoint_tmp(directory, epoch)
    entries = []
    for i, ring in enumerate(rings):
        pack_name = f"ring-{i:03d}.ring"
        write_frozen_ring(
            ring,
            os.path.join(tmp_dir, pack_name),
            n_nodes=n_nodes,
            n_predicates=n_predicates,
        )
        entries.append({"pack": pack_name, "n_triples": int(ring.n)})
    return _publish_checkpoint(
        directory,
        epoch=epoch,
        n_nodes=n_nodes,
        n_predicates=n_predicates,
        rings=entries,
        buffer=buffer,
        tombstones=tombstones,
        wal_generation=wal_generation,
        wal_offset=wal_offset,
    )


def install_frozen_checkpoint(
    directory,
    pack_path,
    *,
    n_triples: int,
    n_nodes: int,
    n_predicates: int,
    epoch: int = 1,
) -> str:
    """Adopt a bulk-built frozen pack as a durable store's first checkpoint.

    The sharded bulk builder (:func:`repro.graph.bulkload.bulk_build_sharded`)
    writes each shard's pack once; this moves it (and its sidecar) into
    ``checkpoint-<epoch>/`` as the single ring entry, creates a fresh
    generation-0 WAL, and publishes through the same tail as
    :func:`write_checkpoint` — the resulting directory is
    indistinguishable from one a :class:`DurableDynamicRing` wrote.

    The caller must already have placed ``universe.npz`` (plus its
    sidecar) in ``directory``; refuses to touch a directory that
    already holds a WAL.
    """
    directory = str(directory)
    pack_path = str(pack_path)
    wal_path = os.path.join(directory, WAL_FILE)
    if os.path.exists(wal_path):
        raise WALError(wal_path, "directory already holds a durable index")
    wal = WriteAheadLog.create(wal_path, n_nodes, n_predicates, generation=0)
    wal_offset = wal.tell()
    wal.close()

    tmp_dir = _fresh_checkpoint_tmp(directory, epoch)
    pack_name = "ring-000.ring"
    dest = os.path.join(tmp_dir, pack_name)
    shutil.move(pack_path, dest)
    shutil.move(manifest_path(pack_path), manifest_path(dest))
    return _publish_checkpoint(
        directory,
        epoch=epoch,
        n_nodes=n_nodes,
        n_predicates=n_predicates,
        rings=[{"pack": pack_name, "n_triples": int(n_triples)}],
        wal_generation=0,
        wal_offset=wal_offset,
    )


def write_universe(path, n_nodes: int, n_predicates: int, dictionary=None) -> None:
    """Write a store's ``universe.npz`` (id universes + dictionary, no
    triples) and its checksummed sidecar, as :func:`read_store` reads it."""
    universe = Graph(
        np.zeros((0, 3), dtype=np.int64),
        n_nodes=n_nodes, n_predicates=n_predicates, dictionary=dictionary,
    )
    graph_io.save_graph(universe, path)
    write_manifest(path, compressed=False, graph=universe)


@dataclass
class StoreState:
    """A durable store's on-disk base, as :func:`read_store` found it."""

    universe: Graph
    checks: list[str]
    epoch: Optional[int] = None  # the checkpoint's; None before the first
    rings: list[Ring] = field(default_factory=list)
    buffer: set[Triple] = field(default_factory=set)
    tombstones: set[Triple] = field(default_factory=set)
    replay_from: int = 0  # WAL records below this offset are checkpointed


def read_store(
    directory,
    wal: ReplayReport,
    *,
    verify: bool = True,
    mmap: bool = False,
    samples: int = SPOT_CHECK_SAMPLES,
) -> StoreState:
    """The one reader of a durable store directory.

    Reads ``universe.npz`` and the current checkpoint — each ring
    through its pack reader, eagerly (SHA-256 checked) or, with
    ``mmap=True``, mapped so RSS grows with the pages queries touch —
    and checks both against ``wal``, a replay report of the store's
    log: universes, generation (not older than the checkpoint's) and
    the offset replay resumes at.  Recovery passes the report of
    :meth:`WriteAheadLog.open` (which truncates a torn tail), ``repro
    verify`` that of the read-only :func:`replay`.
    """
    from repro.core.frozen import open_frozen_ring

    upath = os.path.join(str(directory), UNIVERSE_FILE)
    universe, universe_checks = read_npz_graph(upath, verify=verify)
    store = StoreState(universe, [f"{UNIVERSE_FILE}: " + ", ".join(universe_checks)])
    if (wal.n_nodes, wal.n_predicates) != (universe.n_nodes, universe.n_predicates):
        raise IndexIntegrityError(
            wal.path,
            f"WAL universes ({wal.n_nodes}, {wal.n_predicates}) disagree "
            f"with {UNIVERSE_FILE} "
            f"({universe.n_nodes}, {universe.n_predicates})",
        )
    store.checks.append("WAL header universes")

    cpdir = current_checkpoint_dir(directory)
    if cpdir is None:
        return store
    mpath = os.path.join(cpdir, CHECKPOINT_MANIFEST)
    try:
        with open(mpath) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexIntegrityError(
            mpath, f"unreadable checkpoint manifest: {exc}"
        ) from exc
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise IndexIntegrityError(
            mpath,
            f"unsupported checkpoint version {manifest.get('format_version')!r}",
        )
    generation = int(manifest.get("wal_generation", 0))
    if wal.generation < generation:
        raise IndexIntegrityError(
            wal.path,
            f"WAL generation {wal.generation} is older than the "
            f"checkpoint's {generation}",
        )
    if wal.generation == generation:
        store.replay_from = int(manifest.get("wal_offset", HEADER_SIZE))
    store.epoch = int(manifest["epoch"])
    store.buffer = {tuple(int(v) for v in t) for t in manifest.get("buffer", [])}
    store.tombstones = {
        tuple(int(v) for v in t) for t in manifest.get("tombstones", [])
    }
    for entry in manifest.get("rings", []):
        pack = entry.get("pack")
        if pack is None:
            raise IndexIntegrityError(
                mpath,
                f"ring entry {entry.get('file')!r} has no frozen pack, the "
                "only form a checkpointed ring is opened from; run 'repro "
                "recover <dir> --checkpoint' with the release that wrote "
                "the store (it adds the pack), or re-create the store "
                "from its source graph",
            )
        ppath = os.path.join(cpdir, pack)
        ring, checks = open_frozen_ring(
            ppath, mmap=mmap, verify=verify, samples=samples
        )
        if ring.n != int(entry["n_triples"]):
            raise IndexIntegrityError(
                ppath,
                f"checkpoint pack has {ring.n} triples, "
                f"manifest says {entry['n_triples']}",
            )
        if checks:
            store.checks.append(f"frozen pack {pack}: " + ", ".join(checks))
        store.rings.append(ring)
    store.checks.append(
        f"checkpoint epoch {store.epoch}: {len(store.rings)} ring(s), "
        f"{len(store.buffer)} buffered, {len(store.tombstones)} tombstoned; "
        f"WAL generation {wal.generation} (checkpoint's {generation}), "
        f"replay from offset {store.replay_from}"
    )
    return store


def prune_checkpoints(directory, keep: Optional[str]) -> None:
    """Delete checkpoint directories other than ``keep`` (and tmp junk)."""
    directory = str(directory)
    keep_name = os.path.basename(keep) if keep else None
    for name in os.listdir(directory):
        if not name.startswith(CHECKPOINT_PREFIX):
            continue
        if name == keep_name:
            continue
        shutil.rmtree(os.path.join(directory, name), ignore_errors=True)


# -- the durable index -----------------------------------------------------------


@dataclass
class RecoveryReport:
    """What :meth:`DurableDynamicRing.recover` did to get back up."""

    directory: str
    checkpoint_epoch: Optional[int]
    rings_loaded: int
    records_replayed: int
    records_skipped: int
    wal_dropped_bytes: int
    wal_corrupt_reason: Optional[str]
    n_triples: int
    checks: list[str] = field(default_factory=list)

    def summary(self) -> str:
        cp = (
            f"checkpoint epoch {self.checkpoint_epoch}"
            if self.checkpoint_epoch is not None
            else "no checkpoint"
        )
        tail = (
            f"; dropped {self.wal_dropped_bytes} torn tail byte(s) "
            f"({self.wal_corrupt_reason})"
            if self.wal_dropped_bytes
            else ""
        )
        return (
            f"{cp}, {self.rings_loaded} ring(s); replayed "
            f"{self.records_replayed} WAL record(s) "
            f"(skipped {self.records_skipped} already checkpointed)"
            f"{tail}; {self.n_triples} live triples"
        )


class DurableDynamicRing(Countable):
    """A :class:`DynamicRingIndex` whose updates survive crashes.

    Every ``insert``/``delete`` is WAL-appended and fsync'd before it
    is applied, so a ``True``/``False`` return is a durability receipt.
    Queries delegate to the wrapped index and therefore inherit its
    epoch-snapshot isolation — they never take the write lock.

    Use :meth:`create` for a fresh directory and :meth:`recover` (or
    :meth:`open`) for an existing one.
    """

    def __init__(
        self,
        directory: str,
        index: DynamicRingIndex,
        wal: WriteAheadLog,
    ) -> None:
        self.directory = str(directory)
        self._index = index
        self._wal = wal
        self._lock = threading.RLock()
        self._closed = False

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory,
        graph: Graph,
        *,
        buffer_threshold: int = DEFAULT_BUFFER_THRESHOLD,
        auto_compact: bool = True,
    ) -> "DurableDynamicRing":
        """Initialise a fresh durable index directory.

        ``graph`` fixes the universes (and dictionary) and may carry
        initial triples; those are made durable immediately through a
        first checkpoint, so the WAL only ever needs to cover updates.
        """
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        wal_path = os.path.join(directory, WAL_FILE)
        if os.path.exists(wal_path):
            raise WALError(wal_path, "directory already holds a durable index")

        write_universe(
            os.path.join(directory, UNIVERSE_FILE),
            graph.n_nodes, graph.n_predicates, graph.dictionary,
        )

        index = DynamicRingIndex(
            graph,
            buffer_threshold=buffer_threshold,
            auto_compact=auto_compact,
        )
        wal = WriteAheadLog.create(wal_path, graph.n_nodes, graph.n_predicates)
        durable = cls(directory, index, wal)
        if graph.n_triples:
            durable.checkpoint()
        return durable

    @classmethod
    def recover(
        cls,
        directory,
        *,
        verify: bool = True,
        buffer_threshold: int = DEFAULT_BUFFER_THRESHOLD,
        auto_compact: bool = True,
        mmap: bool = False,
    ) -> tuple["DurableDynamicRing", RecoveryReport]:
        """Rebuild the last durably acknowledged state from disk.

        WAL open → :func:`read_store` → WAL-tail replay; a torn WAL
        tail is truncated (those operations were never acknowledged),
        a corrupt checkpoint, unreadable WAL header or any store check
        ``repro verify`` would fail raises :class:`IndexIntegrityError`
        loudly.  The checkpointed rings open from their frozen packs —
        read whole and SHA-256 checked by default, memory-mapped with
        ``mmap=True``.
        """
        directory = str(directory)
        wal, rep = WriteAheadLog.open(os.path.join(directory, WAL_FILE))
        try:
            store = read_store(directory, rep, verify=verify, mmap=mmap)
        except BaseException:
            wal.close()
            raise
        index = DynamicRingIndex.from_components(
            store.universe,
            store.rings,
            store.buffer,
            store.tombstones,
            buffer_threshold=buffer_threshold,
            epoch=store.epoch or 0,
            auto_compact=auto_compact,
        )

        replayed = skipped = 0
        for record in rep.records:
            if record.offset < store.replay_from:
                skipped += 1
                continue
            if record.op == OP_INSERT:
                index.insert(*record.triple)
            else:
                index.delete(*record.triple)
            replayed += 1

        durable = cls(directory, index, wal)
        report = RecoveryReport(
            directory=directory,
            checkpoint_epoch=store.epoch,
            rings_loaded=len(store.rings),
            records_replayed=replayed,
            records_skipped=skipped,
            wal_dropped_bytes=rep.dropped_bytes,
            wal_corrupt_reason=rep.corrupt_reason,
            n_triples=index.n_triples,
            checks=store.checks
            + [f"WAL replay: {replayed} applied, {skipped} skipped"],
        )
        return durable, report

    @classmethod
    def open(cls, directory, **kwargs) -> "DurableDynamicRing":
        """:meth:`recover` without the report."""
        durable, _ = cls.recover(directory, **kwargs)
        return durable

    # -- updates -------------------------------------------------------------

    def insert(self, s: int, p: int, o: int) -> bool:
        """Durable insert: WAL + fsync, then apply.  Ack == durable."""
        triple = (int(s), int(p), int(o))
        with self._lock:
            self._ensure_open()
            self._index._check_ids(triple)  # validate before logging
            self._wal.append(OP_INSERT, *triple)
            return self._index.insert(*triple)

    def delete(self, s: int, p: int, o: int) -> bool:
        """Durable delete: WAL + fsync, then apply.  Ack == durable."""
        triple = (int(s), int(p), int(o))
        with self._lock:
            self._ensure_open()
            self._index._check_ids(triple)
            self._wal.append(OP_DELETE, *triple)
            return self._index.delete(*triple)

    def insert_labelled(self, s: str, p: str, o: str) -> bool:
        return self.insert(*self._index._encode_labels(s, p, o))

    def delete_labelled(self, s: str, p: str, o: str) -> bool:
        try:
            triple = self._index._encode_labels(s, p, o)
        except KeyError:
            return False
        return self.delete(*triple)

    # -- checkpoints / maintenance -------------------------------------------

    def checkpoint(self) -> str:
        """Fold the WAL into a fresh checkpoint; returns its directory.

        Runs under the writer lock, so the captured component set and
        the WAL offset describe one consistent epoch.  The WAL is reset
        (new generation) only after the pointer swap committed the
        checkpoint; a crash anywhere in between recovers through the
        old checkpoint + full WAL or the new checkpoint + empty tail —
        both equal to the acknowledged state.
        """
        with self._lock:
            self._ensure_open()
            snap = self._index.snapshot()
            cpdir = write_checkpoint(
                self.directory,
                epoch=snap.epoch,
                rings=snap.rings,
                buffer=snap.buffer,
                tombstones=snap.tombstones,
                n_nodes=self._wal.n_nodes,
                n_predicates=self._wal.n_predicates,
                wal_generation=self._wal.generation,
                wal_offset=self._wal.tell(),
            )
            self._wal.reset(self._wal.generation + 1)
            prune_checkpoints(self.directory, keep=cpdir)
            return cpdir

    def maintenance(self) -> bool:
        """One background step: compact if due, checkpoint if WAL grew."""
        with self._lock:
            if self._closed:
                return False
            worked = self._index.maintenance()
            if self._wal.tell() >= DEFAULT_CHECKPOINT_BYTES:
                self.checkpoint()
                worked = True
            return worked

    @property
    def wal_bytes(self) -> int:
        return self._wal.tell()

    # -- queries (lock-free: snapshot isolation lives in the index) -----------

    @property
    def index(self) -> DynamicRingIndex:
        return self._index

    @property
    def graph(self) -> Graph:
        return self._index.graph

    @property
    def name(self) -> str:
        return "DurableDynamicRing"

    @property
    def epoch(self) -> int:
        return self._index.epoch

    def cache_generation(self) -> tuple:
        """Serving-cache invalidation token.

        Pairs the in-memory epoch with the WAL generation: the epoch
        catches inserts/deletes/compactions, the WAL generation catches
        checkpoint/recovery boundaries (after recovery the epoch counter
        restarts, so the epoch alone could collide with a pre-crash
        value — the WAL generation disambiguates).
        """
        return (self._index.epoch, self._wal.generation)

    @property
    def n_triples(self) -> int:
        return self._index.n_triples

    @property
    def n_components(self) -> int:
        return self._index.n_components

    def contains(self, s: int, p: int, o: int) -> bool:
        return self._index.contains(s, p, o)

    def evaluate(self, query, **kwargs):
        return self._index.evaluate(query, **kwargs)

    def explain(self, query):
        return self._index.explain(query)

    def to_graph(self) -> Graph:
        return self._index.to_graph()

    def size_in_bits(self) -> int:
        return self._index.size_in_bits()

    # -- lifecycle -----------------------------------------------------------

    def close(self, checkpoint: bool = False) -> None:
        """Flush and close the WAL (optionally checkpointing first)."""
        with self._lock:
            if self._closed:
                return
            if checkpoint:
                self.checkpoint()
            self._closed = True
            self._wal.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise WALError(self._wal.path, "durable index is closed")

    def __enter__(self) -> "DurableDynamicRing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurableDynamicRing({self.directory!r}, "
            f"n={self._index.n_triples}, epoch={self._index.epoch})"
        )


# -- offline verification (``repro verify <dir>``) -------------------------------


def verify_dynamic_dir(directory, samples: int = SPOT_CHECK_SAMPLES) -> dict:
    """Non-destructive integrity battery over a durable index directory.

    Runs recovery's own reader (:func:`read_store`) over a read-only
    :func:`replay` of the WAL, then checks the live-set arithmetic of
    checkpoint + replayable tail.  A torn WAL tail is *reported* (it is
    exactly what recovery would truncate); anything recovery would
    refuse raises the same :class:`IndexIntegrityError`.
    """
    directory = str(directory)
    rep = replay(os.path.join(directory, WAL_FILE))
    store = read_store(directory, rep, samples=samples)
    report: dict = {
        "path": directory,
        "kind": "dynamic",
        "checks": store.checks,
        "n_nodes": store.universe.n_nodes,
        "n_predicates": store.universe.n_predicates,
        "manifest": (
            "no checkpoint yet (WAL-only index)"
            if store.epoch is None
            else f"checkpoint epoch {store.epoch}"
        ),
    }
    report["checks"].append(
        f"WAL frames: {len(rep.records)} record(s), CRC clean through "
        f"offset {rep.valid_bytes}"
    )
    if rep.truncated:
        report["wal_tail"] = (
            f"{rep.dropped_bytes} torn byte(s) at tail "
            f"({rep.corrupt_reason}) — recoverable, never acknowledged"
        )

    # Exact live count: checkpoint state + the replayable WAL tail.
    live: set[Triple] = set()
    for ring in store.rings:
        live.update(map(tuple, ring.triples().tolist()))
    live |= store.buffer
    live -= store.tombstones
    base = sum(r.n for r in store.rings) + len(store.buffer) - len(store.tombstones)
    if len(live) != base:
        raise IndexIntegrityError(
            directory,
            f"checkpoint components yield {len(live)} live triples, "
            f"manifest arithmetic says {base}",
        )
    replayable = 0
    for record in rep.records:
        if record.offset < store.replay_from:
            continue
        replayable += 1
        if record.op == OP_INSERT:
            live.add(record.triple)
        else:
            live.discard(record.triple)
    report["checks"].append(
        f"live-set arithmetic ({replayable} tail record(s) applied)"
    )
    report["n_triples"] = len(live)
    report["compressed"] = False
    return report
