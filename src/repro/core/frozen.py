"""Frozen ring packs: the memory-mappable on-disk index format.

The classic ``RingIndex.save`` path persists the *source graph* as a
compressed ``.npz`` and rebuilds the succinct structures on load — fast,
but it requires the whole triple set (and the rebuilt ring) to fit in
RAM.  A **frozen pack** persists the ring's backing arrays themselves in
a flat, aligned, checksummed layout, so the index can be reopened either
eagerly (one sequential read) or *memory-mapped*: ``np.memmap`` views
replace the arrays and the OS pages in only what queries touch — RSS
grows with the working set, not with the index (ROADMAP item 2; the
locality argument is Zinn's out-of-core LTJ study, arXiv 1501.06689).

Pack layout (``<path>``)::

    [0, 8)          magic  b"RINGPK01"
    [64, ...)       the arrays, each 64-byte aligned, in collect order:
                    wm{zone}.l{level}.{words,super,rel} for zones S,P,O,
                    then c0, c1, c2
    [size-8, size)  footer b"RINGEND!"

plus the usual JSON sidecar ``<path>.config.json`` with
``kind: "frozen-ring"``: format version, SHA-256 and byte size of the
pack, the array table (``path -> [offset, dtype, length]``), per-zone
wavelet metadata (n, sigma, zeros, per-level ones), the graph universes
and the optional dictionary.  The magic/footer pair makes a truncated or
torn pack an O(1) detection *before* any array is touched; the sidecar
table makes full layout validation possible without materializing a
single array (:func:`verify_frozen_layout`).

A plain ring bottoms out in exactly these buffers:
:func:`collect_ring_arrays` walks them for the writer, and the
``from_components`` constructors reassemble a ring over the views the
reader hands back, copy-free.  A pack outlives its creating process and
is the unit the streaming bulk builder (:mod:`repro.graph.bulkload`)
writes directly, level by level, without ever holding the full triple
set.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from repro.bits.bitvector import WORDS_PER_SUPERBLOCK, BitVector
from repro.core.counts import PackedCounts
from repro.core.ring import Ring, prev_attr
from repro.graph.dataset import Graph
from repro.graph.dictionary import Dictionary
from repro.graph.model import O, P, S
from repro.reliability.integrity import (
    SPOT_CHECK_SAMPLES,
    IndexIntegrityError,
    file_checksum,
    manifest_path,
    read_manifest,
    verify_checksum,
    verify_ring_structure,
)
from repro.sequences.wavelet_matrix import WaveletMatrix

MAGIC = b"RINGPK01"
FOOTER = b"RINGEND!"
ALIGN = 64
FROZEN_KIND = "frozen-ring"
FROZEN_FORMAT_VERSION = 1

#: dtypes a pack may carry (little-endian only; validated by the layout
#: check so a foreign-endian or bogus-dtype manifest cannot drive
#: ``np.dtype`` into arbitrary territory).
_ALLOWED_DTYPES = {"<u8", "<u2", "<i8"}

__all__ = [
    "FROZEN_KIND",
    "FrozenGraph",
    "RingLayoutError",
    "PackWriter",
    "collect_ring_arrays",
    "is_frozen_manifest",
    "open_frozen_ring",
    "verify_frozen_layout",
    "write_frozen_ring",
    "write_pack_manifest",
]


class RingLayoutError(ValueError):
    """The ring's state is not a flat set of exportable numpy arrays."""


def collect_ring_arrays(ring: Ring) -> tuple[dict, dict[str, np.ndarray]]:
    """Walk the ring; return (meta scalars, path -> source array).

    The single source of truth for the frozen pack's flat-buffer
    layout: paths are
    ``wm{zone}.l{level}.words`` / ``.super`` / ``.rel`` and ``c{attr}``,
    in this exact order.  Raises :class:`RingLayoutError` on any
    component whose state is not a set of flat numpy arrays (RRR
    bitvectors, Elias–Fano counts).
    """
    if ring.compressed:
        raise RingLayoutError(
            "compressed (C-Ring) bitvectors have no flat-buffer form; "
            "use a plain ring"
        )
    arrays: dict[str, np.ndarray] = {}
    wm_meta: dict[int, dict] = {}
    for zone in (S, P, O):
        wm = ring.zone_sequence(zone)
        levels_meta = []
        for level, bv in enumerate(wm._bits):
            if type(bv) is not BitVector:
                raise RingLayoutError(
                    f"zone {zone} level {level} uses {type(bv).__name__}; "
                    "only plain BitVector levels have a flat-buffer form"
                )
            prefix = f"wm{zone}.l{level}"
            arrays[f"{prefix}.words"] = bv._words
            arrays[f"{prefix}.super"] = bv._super
            arrays[f"{prefix}.rel"] = bv._rel
            levels_meta.append({"n": bv._n, "ones": bv._ones})
        wm_meta[zone] = {
            "n": wm._n,
            "sigma": wm._sigma,
            "levels": wm._levels,
            "zeros": list(wm._zeros),
            "level_meta": levels_meta,
        }
    for attr in (S, P, O):
        counts = ring.counts(attr)
        if type(counts) is not PackedCounts:
            raise RingLayoutError(
                f"attribute {attr} uses {type(counts).__name__}; only "
                "PackedCounts (plain cumulative arrays) have a flat-buffer "
                "form"
            )
        arrays[f"c{attr}"] = counts.raw()
    meta = {
        "n": ring.n,
        "sigma": tuple(ring.sigma(a) for a in (S, P, O)),
        "wm": wm_meta,
    }
    return meta, arrays


# -- writing ---------------------------------------------------------------


class PackWriter:
    """Append-only pack writer (used whole-ring and by the bulk builder).

    Writes to ``<path>.tmp`` and atomically renames in :meth:`finish`,
    so a crash mid-write never leaves a file the open path would accept:
    either the final pack exists complete (footer in place) or only a
    ``.tmp`` orphan does.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._tmp = self.path + ".tmp"
        self._f = open(self._tmp, "wb")
        self._f.write(MAGIC)
        self._offset = len(MAGIC)
        self.table: dict[str, tuple[int, str, int]] = {}

    def add_array(self, name: str, arr: np.ndarray) -> None:
        """Append one array, 64-byte aligned, recording its table entry."""
        if name in self.table:
            raise ValueError(f"duplicate array {name!r}")
        arr = np.ascontiguousarray(arr)
        aligned = (self._offset + ALIGN - 1) & ~(ALIGN - 1)
        if aligned > self._offset:
            self._f.write(b"\0" * (aligned - self._offset))
        self.table[name] = (aligned, arr.dtype.str, int(arr.size))
        self._f.write(memoryview(arr).cast("B"))
        self._offset = aligned + arr.nbytes

    def add_array_from_file(
        self, name: str, path: str, dtype: str, length: int,
        block: int = 1 << 20,
    ) -> None:
        """Append one array by streaming its raw bytes from ``path``.

        The stitch path of the partitioned bulk builder: workers spill
        finished arrays to scratch files and the driver replays them
        here in canonical order — byte-identical to :meth:`add_array`
        of the materialised array, without ever holding it.
        """
        if name in self.table:
            raise ValueError(f"duplicate array {name!r}")
        dt = np.dtype(dtype)
        nbytes = dt.itemsize * int(length)
        actual = os.path.getsize(path)
        if actual != nbytes:
            raise ValueError(
                f"{path}: array {name!r} should be {nbytes} bytes, "
                f"file holds {actual}"
            )
        aligned = (self._offset + ALIGN - 1) & ~(ALIGN - 1)
        if aligned > self._offset:
            self._f.write(b"\0" * (aligned - self._offset))
        self.table[name] = (aligned, dt.str, int(length))
        with open(path, "rb") as src:
            while True:
                chunk = src.read(block)
                if not chunk:
                    break
                self._f.write(chunk)
        self._offset = aligned + nbytes

    def finish(self) -> int:
        """Write the footer, fsync, atomically publish; returns the size."""
        self._f.write(FOOTER)
        self._offset += len(FOOTER)
        self._f.flush()
        os.fsync(self._f.fileno())
        self._f.close()
        os.replace(self._tmp, self.path)
        return self._offset

    def abort(self) -> None:
        """Drop the partial ``.tmp`` file (crash/error cleanup)."""
        try:
            self._f.close()
        finally:
            if os.path.exists(self._tmp):
                os.unlink(self._tmp)


def write_pack_manifest(
    path,
    *,
    meta: dict,
    table: dict[str, tuple[int, str, int]],
    file_size: int,
    n_nodes: int,
    n_predicates: int,
    dictionary: Optional[Dictionary] = None,
) -> dict:
    """Write the frozen sidecar; shared by :func:`write_frozen_ring` and
    the streaming builder so both produce byte-identical manifests.

    The sidecar is fsync'd: its array table is required to open the
    pack, so it must be as durable as the pack itself."""
    payload: dict = {
        "format_version": FROZEN_FORMAT_VERSION,
        "kind": FROZEN_KIND,
        "compressed": False,
        "sha256": file_checksum(path),
        "file_size": int(file_size),
        "n_triples": int(meta["n"]),
        "n_nodes": int(n_nodes),
        "n_predicates": int(n_predicates),
        "wm": {
            str(zone): {
                "n": int(wmm["n"]),
                "sigma": int(wmm["sigma"]),
                "levels": int(wmm["levels"]),
                "zeros": [int(z) for z in wmm["zeros"]],
                "level_meta": [
                    {"n": int(lm["n"]), "ones": int(lm["ones"])}
                    for lm in wmm["level_meta"]
                ],
            }
            for zone, wmm in meta["wm"].items()
        },
        "arrays": {
            name: [int(off), dtype, int(length)]
            for name, (off, dtype, length) in table.items()
        },
    }
    if dictionary is not None:
        payload["dictionary"] = {
            "nodes": list(dictionary.nodes()),
            "predicates": list(dictionary.predicates()),
        }
    with open(manifest_path(path), "w") as f:
        json.dump(payload, f)
        f.flush()
        os.fsync(f.fileno())
    return payload


def write_frozen_ring(
    ring: Ring,
    path,
    *,
    n_nodes: int,
    n_predicates: int,
    dictionary: Optional[Dictionary] = None,
) -> dict:
    """Persist a built ring as a frozen pack; returns the manifest."""
    meta, arrays = collect_ring_arrays(ring)
    writer = PackWriter(path)
    try:
        for name, arr in arrays.items():
            writer.add_array(name, arr)
        size = writer.finish()
    except BaseException:
        writer.abort()
        raise
    return write_pack_manifest(
        path,
        meta=meta,
        table=writer.table,
        file_size=size,
        n_nodes=n_nodes,
        n_predicates=n_predicates,
        dictionary=dictionary,
    )


# -- layout validation (no array materialization) --------------------------


def is_frozen_manifest(manifest: Optional[dict]) -> bool:
    return bool(manifest) and manifest.get("kind") == FROZEN_KIND


def _dtype_size(dtype: str) -> int:
    if dtype not in _ALLOWED_DTYPES:
        raise IndexIntegrityError(
            "<manifest>", f"array dtype {dtype!r} is not a pack dtype"
        )
    return np.dtype(dtype).itemsize


def verify_frozen_layout(
    path, manifest: Optional[dict] = None, *, deep: bool = False
) -> list[str]:
    """Validate a pack's on-disk layout without materializing arrays.

    Pure arithmetic over the manifest's array table plus O(1) reads of
    the magic and footer — a truncated, torn or mis-offset pack fails
    here before a single array byte is interpreted.  With ``deep=True``
    the full SHA-256 is additionally streamed and compared (what
    ``repro verify`` runs).  Returns the list of checks performed.
    """
    path = str(path)
    if manifest is None:
        manifest = read_manifest(path)
    if not is_frozen_manifest(manifest):
        raise IndexIntegrityError(path, "manifest is not a frozen-ring pack")
    checks: list[str] = []

    def fail(reason: str) -> None:
        raise IndexIntegrityError(path, reason)

    if not os.path.exists(path):
        fail("pack file does not exist")
    actual_size = os.path.getsize(path)
    expected_size = int(manifest.get("file_size", -1))
    if actual_size != expected_size:
        fail(
            f"pack is {actual_size} bytes, manifest says {expected_size}: "
            "truncated or foreign file"
        )
    checks.append("file size")

    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            fail("bad magic: not a frozen ring pack")
        f.seek(actual_size - len(FOOTER))
        if f.read(len(FOOTER)) != FOOTER:
            fail("missing footer: pack was torn mid-write")
    checks.append("magic + footer")

    table = manifest.get("arrays")
    if not isinstance(table, dict) or not table:
        fail("manifest carries no array table")
    lo, hi = len(MAGIC), actual_size - len(FOOTER)
    spans = []
    for name, entry in table.items():
        try:
            off, dtype, length = int(entry[0]), str(entry[1]), int(entry[2])
        except (TypeError, ValueError, IndexError):
            fail(f"malformed table entry for {name!r}")
        if off % ALIGN:
            fail(f"array {name!r} offset {off} is not {ALIGN}-byte aligned")
        nbytes = length * _dtype_size(dtype)
        if off < lo or off + nbytes > hi:
            fail(
                f"array {name!r} spans [{off}, {off + nbytes}) outside the "
                f"payload region [{lo}, {hi})"
            )
        spans.append((off, off + nbytes, name))
    spans.sort()
    for (_, end_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if start_b < end_a:
            fail(f"arrays {name_a!r} and {name_b!r} overlap")
    checks.append(f"array table bounds ({len(table)} arrays)")

    n = int(manifest.get("n_triples", -1))
    n_nodes = int(manifest.get("n_nodes", -1))
    n_predicates = int(manifest.get("n_predicates", -1))
    if n < 0 or n_nodes < 0 or n_predicates < 0:
        fail("manifest lacks n_triples/n_nodes/n_predicates")
    sigma = {S: n_nodes, P: n_predicates, O: n_nodes}
    wm_meta = manifest.get("wm", {})
    nwords = -(-max(n, 1) // 64)
    nsuper = -(-nwords // WORDS_PER_SUPERBLOCK)
    expected_paths = set()
    for zone in (S, P, O):
        wmm = wm_meta.get(str(zone))
        if wmm is None:
            fail(f"manifest lacks wavelet metadata for zone {zone}")
        want_sigma = sigma[prev_attr(zone)]
        if int(wmm["n"]) != n:
            fail(f"zone {zone} wavelet n {wmm['n']} != n_triples {n}")
        if int(wmm["sigma"]) != want_sigma:
            fail(
                f"zone {zone} alphabet {wmm['sigma']} != expected "
                f"{want_sigma}"
            )
        levels = max(1, (want_sigma - 1).bit_length())
        if int(wmm["levels"]) != levels or len(wmm["zeros"]) != levels:
            fail(f"zone {zone} level count inconsistent with its alphabet")
        if len(wmm["level_meta"]) != levels:
            fail(f"zone {zone} per-level metadata inconsistent")
        for level, lm in enumerate(wmm["level_meta"]):
            if int(lm["n"]) != n:
                fail(f"zone {zone} level {level} length {lm['n']} != {n}")
            if not 0 <= int(lm["ones"]) <= n:
                fail(f"zone {zone} level {level} ones count out of range")
            zeros = int(wmm["zeros"][level])
            if zeros + int(lm["ones"]) != n:
                fail(
                    f"zone {zone} level {level} zeros+ones "
                    f"{zeros}+{lm['ones']} != {n}"
                )
            prefix = f"wm{zone}.l{level}"
            for suffix, dtype, length in (
                ("words", "<u8", nwords),
                ("super", "<u8", nsuper + 1),
                ("rel", "<u2", nwords),
            ):
                name = f"{prefix}.{suffix}"
                entry = table.get(name)
                if entry is None:
                    fail(f"array table lacks {name!r}")
                if str(entry[1]) != dtype or int(entry[2]) != length:
                    fail(
                        f"array {name!r} is {entry[2]} x {entry[1]}, "
                        f"expected {length} x {dtype}"
                    )
                expected_paths.add(name)
    for attr in (S, P, O):
        name = f"c{attr}"
        entry = table.get(name)
        if entry is None:
            fail(f"array table lacks {name!r}")
        if str(entry[1]) != "<i8" or int(entry[2]) != sigma[attr] + 1:
            fail(
                f"array {name!r} is {entry[2]} x {entry[1]}, expected "
                f"{sigma[attr] + 1} x <i8"
            )
        expected_paths.add(name)
    extra = set(table) - expected_paths
    if extra:
        fail(f"array table has unexpected entries: {sorted(extra)}")
    checks.append("wavelet/C shape arithmetic")

    if deep:
        checks += verify_checksum(path, manifest.get("sha256"))
    return checks


# -- opening ---------------------------------------------------------------


def _open_memmap(path) -> np.ndarray:
    """Map the pack read-only (the ``mmap.open`` fault site)."""
    return np.memmap(path, dtype=np.uint8, mode="r")


def _read_eager(path) -> np.ndarray:
    return np.fromfile(path, dtype=np.uint8)


def open_frozen_ring(
    path,
    manifest: Optional[dict] = None,
    *,
    mmap: bool = True,
    verify: bool = True,
    deep_verify: bool = False,
    samples: int = SPOT_CHECK_SAMPLES,
) -> tuple[Ring, list[str]]:
    """The one reader of a frozen pack; returns the ring and the checks run.

    ``mmap=True`` backs every array with a read-only ``np.memmap`` view
    — nothing is materialized, the OS pages in what queries touch;
    ``mmap=False`` performs one sequential read and serves the same
    views over a RAM buffer.  ``verify=True`` runs the O(1)+arithmetic
    layout validation before any array is interpreted (torn/truncated
    packs raise :class:`IndexIntegrityError` here, never return wrong
    answers), streams the SHA-256 when the open is eager (the file is
    read anyway) or ``deep_verify`` is set (``repro verify``: it reads
    the whole file, defeating a cold mmap open), and finally runs
    :func:`~repro.reliability.integrity.verify_ring_structure` against
    the manifest's ``n_triples``.
    """
    path = str(path)
    if manifest is None:
        manifest = read_manifest(path)
    if not is_frozen_manifest(manifest):
        raise IndexIntegrityError(path, "manifest is not a frozen-ring pack")
    deep = deep_verify or not mmap
    checks = verify_frozen_layout(path, manifest, deep=deep) if verify else []
    try:
        buf = _open_memmap(path) if mmap else _read_eager(path)
    except IndexIntegrityError:
        raise
    except Exception as exc:
        raise IndexIntegrityError(
            path, f"cannot open pack: {type(exc).__name__}: {exc}"
        ) from exc

    table = manifest["arrays"]

    def view(name: str) -> np.ndarray:
        off, dtype, length = table[name]
        off, length = int(off), int(length)
        nbytes = length * _dtype_size(str(dtype))
        arr = buf[off : off + nbytes].view(np.dtype(str(dtype)))
        if arr.flags.writeable:  # eager buffers are writeable; views must not be
            arr.flags.writeable = False
        return arr

    n = int(manifest["n_triples"])
    seq = {}
    for zone in (S, P, O):
        wmm = manifest["wm"][str(zone)]
        prefix = f"wm{zone}"
        levels = [
            BitVector.from_components(
                view(f"{prefix}.l{level}.words"),
                view(f"{prefix}.l{level}.super"),
                view(f"{prefix}.l{level}.rel"),
                n=int(lm["n"]),
                ones=int(lm["ones"]),
            )
            for level, lm in enumerate(wmm["level_meta"])
        ]
        seq[zone] = WaveletMatrix.from_levels(
            levels,
            [int(z) for z in wmm["zeros"]],
            n=int(wmm["n"]),
            sigma=int(wmm["sigma"]),
        )
    counts = {
        attr: PackedCounts.from_raw(view(f"c{attr}"), validate=verify)
        for attr in (S, P, O)
    }
    n_nodes = int(manifest["n_nodes"])
    n_predicates = int(manifest["n_predicates"])
    ring = Ring.from_components(
        seq,
        counts,
        n=n,
        sigma=(n_nodes, n_predicates, n_nodes),
        compressed=False,
    )
    if verify:
        checks.append("memmap open" if mmap else "eager open")
        checks.extend(
            verify_ring_structure(ring, expected_n=n, samples=samples, path=path)
        )
    return ring, checks


def manifest_dictionary(manifest: dict) -> Optional[Dictionary]:
    """Rebuild the dictionary stored in a frozen manifest, if any."""
    meta = manifest.get("dictionary")
    if not meta:
        return None
    d = Dictionary()
    for label in meta.get("nodes", ()):
        d.add_node(label)
    for label in meta.get("predicates", ()):
        d.add_predicate(label)
    return d


class FrozenGraph(Graph):
    """Universe/dictionary view of a frozen ring: no materialized triples.

    The ring *is* the graph (§3.1.2): membership and iteration are
    answered from the index, and :attr:`triples` — needed only by
    legacy code paths — decodes on demand (O(n), so callers that merely
    want shapes never pay it).
    """

    def __init__(
        self,
        ring: Ring,
        n_nodes: int,
        n_predicates: int,
        dictionary: Optional[Dictionary] = None,
    ) -> None:
        super().__init__(
            np.empty((0, 3), dtype=np.int64),
            n_nodes=n_nodes,
            n_predicates=n_predicates,
            dictionary=dictionary,
        )
        self._frozen_ring = ring

    @property
    def n_triples(self) -> int:
        return self._frozen_ring.n

    def __len__(self) -> int:
        return self._frozen_ring.n

    def __iter__(self):
        for i in range(self._frozen_ring.n):
            yield self._frozen_ring.triple(i)

    def __contains__(self, triple) -> bool:
        s, p, o = (int(x) for x in triple)
        if not (
            0 <= s < self.n_nodes
            and 0 <= p < self.n_predicates
            and 0 <= o < self.n_nodes
        ):
            return False
        return self._frozen_ring.contains(s, p, o)

    @property
    def triples(self) -> np.ndarray:
        """Decode the whole triple set from the ring (materializes!)."""
        if self._frozen_ring.n == 0:
            return np.empty((0, 3), dtype=np.int64)
        return self._frozen_ring.triples()
