"""Streaming external-memory bulk construction of frozen ring packs.

``RingIndex(graph)`` needs the whole triple set (and three full sorts
of it) in RAM.  This module builds the *same* on-disk frozen pack
(:mod:`repro.core.frozen`) with bounded memory, so the index a host
serves can be an order of magnitude larger than its RAM.  Once the id
universes N and P are fixed, every triple is one int64 key
``(s·P + p)·N + o``, so every sort and merge is a flat int64 operation:

1. **scan** — the universes are fixed *before* any run is written: up
   front when both are pinned or the source is a :class:`Graph`, else
   after *staging* the raw rows to one scratch ``.bin`` (assigning
   ``.nt`` ids, tracking the maximum ids).  The (staged) source is then
   consumed in chunks of ``chunk_triples`` rows; each chunk is keyed,
   sorted, deduplicated and spilled to a run file (`build.spill` fault
   site);
2. **merge** — runs are merged in a *single pass* by a heap-free k-way
   merge with global duplicate elimination (`build.merge` fault site):
   every spill run is read exactly once as long as the run count stays
   within :data:`MERGE_FANIN`; larger inputs fall back to fan-in-bounded
   recursive reduction rounds;
3. **re-sort** — two more external sorts derive the ``(p, o, s)`` and
   ``(o, s, p)`` orders the ring's other zones need;
4. **incremental wavelet construction** — each zone's wavelet matrix is
   built level by level: the level's bit stream is packed directly into
   the pack's word buffer (``n/8`` bytes of RAM) while the sequence is
   stably partitioned into two scratch files that feed the next level —
   the classic construction loop of
   :class:`~repro.sequences.wavelet_matrix.WaveletMatrix`, replayed
   out of core and **byte-identical** to it (same packing, same
   counters via :meth:`BitVector.from_packed_words`);
5. **C arrays** — streaming bincount passes over the canonical stream.

Phases 4 and 5 dominate the build.  With ``workers > 0`` the three
per-zone wavelet constructions and the three count passes run as six
independent *build tasks* on a :class:`~repro.parallel.pool.TaskPool`
of worker processes (dead workers' tasks are rescued inline), and the
driver stitches their spooled arrays into the pack in canonical order —
**byte-identical** to the serial build.  One helper, :func:`_write_pack`, writes a pack from one
partition's sorted spo, pos and osp streams either way.

:func:`bulk_build_sharded` splits the scan by splitmix64 subject hash
(:func:`repro.serving.sharding.shard_vector`, the hash the serving tier
routes queries with) and builds each partition's pack as one task, into
a ready-to-serve ``SHARDS.json`` durable layout that
``ShardedRingIndex.recover(mmap=True)`` loads with zero extra passes.

The full triple set is never held in memory: peak RSS is dominated by
one chunk buffer, one ``n/8``-byte word buffer and one ``σ``-sized
count accumulator — per worker.  Everything intermediate lives in a
private spill directory, and the pack is published by an atomic rename
(:class:`~repro.core.frozen.PackWriter`), so a crash at *any* point
leaves either no pack or the previous intact one — never a torn index.

Byte-identity with the in-memory path (``RingIndex(graph).save_frozen``)
is a hard invariant, property-tested under random chunk sizes, worker
counts, merge fan-ins and permuted input order: same pack bytes, same
manifest, same answers.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.bits.bitvector import BitVector
from repro.core.frozen import PackWriter, write_pack_manifest
from repro.graph.dataset import Graph
from repro.graph.dictionary import Dictionary
from repro.graph.model import O, P, S
from repro.graph.ntriples import iter_ntriples

_KEY_LIMIT = (1 << 63) - 1

#: Bounded fan-in of the k-way spill merge.  64 open run files keep the
#: per-reader buffers useful (io_block/64 values each) while covering
#: every realistic run count in one pass: runs are spilled at
#: ``chunk_triples`` granularity, so exceeding the fan-in takes a
#: dataset more than 64 chunks long.  A build reads it once and hands
#: it to its tasks, so pool workers never depend on a patched global.
MERGE_FANIN = 64

__all__ = [
    "BulkBuildError",
    "MERGE_FANIN",
    "bulk_build",
    "bulk_build_sharded",
]


class BulkBuildError(RuntimeError):
    """A streaming bulk build failed (typed; the target is untouched)."""


# -- fault-injectable primitives -------------------------------------------


def _spill_run(path: str, arr: np.ndarray) -> None:
    """Write one sorted run to disk (the ``build.spill`` fault site)."""
    with open(path, "wb") as f:
        arr.tofile(f)


def _merge_chunk(f, arr: np.ndarray) -> None:
    """Append one merged block (the ``build.merge`` fault site)."""
    arr.tofile(f)


# -- streaming primitives --------------------------------------------------


#: Block size (in int64 values, 1 MiB) for the read-only streaming
#: passes (merge, re-sort, wavelet, counts).  Decoupled from
#: ``chunk_triples``: the chunk bounds the scan/sort working set and the
#: spilled-run granularity, but the later passes only *read* sorted
#: streams, so their buffers can stay small no matter how large a chunk
#: the scan used — block boundaries never change the output bytes.
#: Keeping every such buffer ~1 MiB (plus its transform temporaries)
#: is what holds the whole build under the RSS-over-index gate.
_STREAM_BLOCK = 1 << 17


def _iter_file_int64(path: str, block: int):
    """Yield int64 blocks of up to ``block`` values from a raw file."""
    with open(path, "rb") as f:
        while True:
            arr = np.fromfile(f, dtype=np.int64, count=block)
            if arr.size == 0:
                return
            yield arr


def _iter_files_aligned(paths, block: int, transform=None):
    """Blocks over files read *sequentially* (one logical stream split
    across files, e.g. wavelet scratch partitions), re-chunked to
    multiples of 64 values (the last may be ragged) so bit-packing lands
    on word boundaries."""
    block = max(64, block - block % 64)
    carry: Optional[np.ndarray] = None
    for path in paths:
        for arr in _iter_file_int64(path, block):
            if transform is not None:
                arr = transform(arr)
            if carry is not None and carry.size:
                arr = np.concatenate([carry, arr])
            carry = None
            cut = (arr.size // 64) * 64
            if cut:
                yield arr[:cut]
            if cut < arr.size:
                carry = arr[cut:]
    if carry is not None and carry.size:
        yield carry


class _RunReader:
    """Buffered reader over one sorted int64 run file."""

    def __init__(self, path: str, block: int, counter: dict):
        self._gen = _iter_file_int64(path, block)
        self._counter = counter
        self.buf = np.empty(0, dtype=np.int64)
        self._eof = False
        self._fill()

    def _fill(self) -> None:
        while not self._eof and self.buf.size == 0:
            nxt = next(self._gen, None)
            if nxt is None:
                self._eof = True
            else:
                self._counter["bytes_read"] += nxt.nbytes
                self.buf = nxt

    @property
    def exhausted(self) -> bool:
        return self._eof and self.buf.size == 0

    def take(self, k: int) -> np.ndarray:
        out = self.buf[:k]
        self.buf = self.buf[k:]
        self._fill()
        return out


def _dedup_block(part: np.ndarray, last: Optional[int]):
    """Drop duplicates within ``part`` and against the previous block's
    final value; returns (filtered, new last)."""
    if part.size == 0:
        return part, last
    keep = np.empty(part.size, dtype=bool)
    keep[0] = last is None or int(part[0]) != last
    keep[1:] = part[1:] != part[:-1]
    part = part[keep]
    if part.size:
        last = int(part[-1])
    return part, last


def _iter_kway(paths, block: int, counter: dict):
    """Single-pass k-way merge of sorted int64 runs, as sorted,
    globally deduplicated blocks.

    Block-synchronous rather than heap-based: each round every reader
    contributes its prefix at or below the smallest buffered maximum
    (``searchsorted``), the prefixes are concatenated and sorted once —
    all vectorized, no per-element Python.  ``block`` bounds the *total*
    buffered values across readers, so memory stays O(block) at any
    fan-in.  ``counter["bytes_read"]`` accumulates bytes fetched from
    disk — the single-pass accounting the merge gate checks.
    """
    per = max(64, block // max(1, len(paths)))
    readers = [_RunReader(p, per, counter) for p in paths]
    readers = [r for r in readers if not r.exhausted]
    last: Optional[int] = None
    while len(readers) > 1:
        bound = min(int(r.buf[-1]) for r in readers)
        parts = []
        for r in readers:
            k = int(np.searchsorted(r.buf, bound, side="right"))
            if k:
                parts.append(r.take(k))
        part = np.concatenate(parts) if len(parts) > 1 else parts[0]
        if len(parts) > 1:
            part.sort()
        part, last = _dedup_block(part, last)
        if part.size:
            yield part
        readers = [r for r in readers if not r.exhausted]
    if readers:
        (reader,) = readers
        while not reader.exhausted:
            part, last = _dedup_block(reader.take(reader.buf.size), last)
            if part.size:
                yield part


def _merge_group(paths, out_path: str, block: int, counter: dict) -> int:
    """k-way merge a group of runs into one file; returns output length."""
    written = 0
    with open(out_path, "wb") as fo:
        for part in _iter_kway(paths, block, counter):
            _merge_chunk(fo, part)
            written += part.size
    return written


def _merge_runs(
    runs: list[str],
    workdir: str,
    block: int,
    tag: str,
    *,
    fanin: int,
    stats: dict,
    keep_inputs: bool = False,
) -> tuple[str, int]:
    """k-way merge sorted runs down to one deduplicated file.

    A single pass when ``len(runs) <= fanin`` (each run's bytes are read
    exactly once); beyond that, fan-in-bounded reduction rounds shrink
    the run set first.  ``keep_inputs`` protects the *input* run files
    from deletion (pool mode: a rescued task must be able to re-read
    them); intermediates are always reclaimed.  The pass accounting is
    folded into ``stats``.  Returns (path, length).
    """
    if not runs:
        empty = os.path.join(workdir, f"{tag}.empty.bin")
        open(empty, "wb").close()
        return empty, 0
    protected = set(runs) if keep_inputs else set()
    n_runs = len(runs)
    bytes_in = sum(os.path.getsize(r) for r in runs)
    counter = {"bytes_read": 0}
    rounds = 0
    generation = 0
    while len(runs) > fanin:
        rounds += 1
        reduced: list[str] = []
        for i in range(0, len(runs), fanin):
            group = runs[i : i + fanin]
            if len(group) == 1:
                reduced.append(group[0])
                continue
            out = os.path.join(workdir, f"{tag}.g{generation}.{i // fanin}.bin")
            _merge_group(group, out, block, counter)
            for path in group:
                if path not in protected:
                    os.unlink(path)
            reduced.append(out)
        runs = reduced
        generation += 1
    out = runs[0]
    if len(runs) > 1:
        out = os.path.join(workdir, f"{tag}.merged.bin")
        size = _merge_group(runs, out, block, counter)
        for path in runs:
            if path not in protected:
                os.unlink(path)
    else:  # single run: already sorted + deduplicated at spill
        size = os.path.getsize(out) // 8
    bytes_read = counter["bytes_read"]
    _merge_stats_into(stats, {
        "merge_fanin": fanin,
        "merge_runs_merged": n_runs,
        "merge_bytes_in": bytes_in,
        "merge_bytes_read": bytes_read,
        "merge_extra_pass_bytes": max(0, bytes_read - bytes_in),
        "merge_rounds": rounds,
        "merge_passes": 1,
    })
    return out, size


def _merge_stats_into(stats: dict, mstats: dict) -> None:
    """Fold one merge's (or task's) accounting into ``stats``: rounds
    take the maximum, the fan-in is set, everything else adds up."""
    for key, value in mstats.items():
        if key == "merge_rounds":
            stats[key] = max(stats.get(key, 0), value)
        elif key == "merge_fanin":
            stats[key] = value
        else:
            stats[key] = stats.get(key, 0) + value


# -- key packing -----------------------------------------------------------


def _check_universe(n_nodes: int, n_predicates: int) -> None:
    if n_nodes * n_nodes * max(n_predicates, 1) > _KEY_LIMIT:
        raise BulkBuildError(
            f"universe too large for int64 triple keys: "
            f"{n_nodes}^2 * {n_predicates} > 2^63-1"
        )


def _spo_keys(rows: np.ndarray, n_nodes: int, n_predicates: int) -> np.ndarray:
    return (rows[:, S] * n_predicates + rows[:, P]) * n_nodes + rows[:, O]


def _decode_spo(keys: np.ndarray, n_nodes: int, n_predicates: int):
    o = keys % n_nodes
    sp = keys // n_nodes
    return sp // n_predicates, sp % n_predicates, o


# -- source normalization --------------------------------------------------


def _blocks_from_text(path: str, chunk: int, parse_labels: bool):
    """Yield (block, dictionary) from a text source; ``dictionary`` is
    None for id-level files and grows incrementally for ``.nt``."""
    if parse_labels:
        dictionary = Dictionary()
        rows: list[tuple[int, int, int]] = []
        with open(path, encoding="utf-8") as f:
            for s, p, o in iter_ntriples(f, source=path):
                rows.append(
                    (
                        dictionary.add_node(s),
                        dictionary.add_predicate(p),
                        dictionary.add_node(o),
                    )
                )
                if len(rows) >= chunk:
                    yield np.array(rows, dtype=np.int64), dictionary
                    rows = []
        if rows:
            yield np.array(rows, dtype=np.int64), dictionary
        elif dictionary.n_nodes or dictionary.n_predicates:
            yield np.empty((0, 3), dtype=np.int64), dictionary
    else:
        rows = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise BulkBuildError(f"malformed triple line: {line!r}")
                rows.append((int(parts[0]), int(parts[1]), int(parts[2])))
                if len(rows) >= chunk:
                    yield np.array(rows, dtype=np.int64), None
                    rows = []
        if rows:
            yield np.array(rows, dtype=np.int64), None


def _blocks_from_bin(path: str, chunk: int):
    """Raw little-endian int64 ``(n, 3)`` row-major triples."""
    size = os.path.getsize(path)
    if size % 24:
        raise BulkBuildError(
            f"{path}: raw triple file size {size} is not a multiple of 24"
        )
    with open(path, "rb") as f:
        while True:
            arr = np.fromfile(f, dtype=np.int64, count=chunk * 3)
            if arr.size == 0:
                return
            yield arr.reshape(-1, 3), None


def _source_blocks(source, chunk: int):
    """Normalize any supported source into (block, dictionary) pairs;
    only a ``.nt`` file yields a dictionary."""
    if isinstance(source, Graph):
        triples = source.triples
        for start in range(0, len(triples), chunk):
            yield triples[start : start + chunk], None
        return
    if isinstance(source, (str, os.PathLike)):
        path = str(source)
        if not os.path.exists(path):
            raise BulkBuildError(f"source {path!r} does not exist")
        if path.endswith(".nt"):
            yield from _blocks_from_text(path, chunk, parse_labels=True)
        elif path.endswith(".bin"):
            yield from _blocks_from_bin(path, chunk)
        elif path.endswith(".npy"):
            mm = np.load(path, mmap_mode="r")
            if mm.ndim != 2 or mm.shape[1] != 3:
                raise BulkBuildError(f"{path}: expected an (n, 3) array")
            if not np.issubdtype(mm.dtype, np.integer):
                raise BulkBuildError(
                    f"{path}: expected integer ids, not dtype {mm.dtype}"
                )
            for start in range(0, len(mm), chunk):
                yield np.asarray(mm[start : start + chunk], dtype=np.int64), None
        else:
            yield from _blocks_from_text(path, chunk, parse_labels=False)
        return
    if isinstance(source, Iterable):
        pending: list[np.ndarray] = []
        count = 0
        for item in source:
            arr = np.asarray(item)
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                raise BulkBuildError(
                    f"iterable items must hold integer ids, not dtype {arr.dtype}"
                )
            arr = arr.astype(np.int64, copy=False)
            if arr.ndim == 1:
                arr = arr.reshape(1, 3)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise BulkBuildError("iterable items must be (k, 3) blocks")
            for start in range(0, len(arr), chunk):
                pending.append(arr[start : start + chunk])
                count += len(pending[-1])
                if count >= chunk:
                    yield np.concatenate(pending), None
                    pending, count = [], 0
        if pending:
            yield np.concatenate(pending), None
        return
    raise BulkBuildError(f"unsupported source type {type(source).__name__}")


# -- scan ------------------------------------------------------------------


def _stage_source(source, chunk: int, workdir: str):
    """Append a source's raw rows to one scratch ``.bin`` (part of the
    scan phase), assigning ``.nt`` ids and tracking the maximum ids, so
    the universes can be fixed before any run is written (the scan
    checks every id against them).  Returns (staged path, dictionary,
    max_node, max_pred)."""
    path = os.path.join(workdir, "stage.bin")
    dictionary: Optional[Dictionary] = None
    max_node = max_pred = -1
    with open(path, "wb") as f:
        for block, block_dict in _source_blocks(source, chunk):
            if block_dict is not None:
                dictionary = block_dict
            if not len(block):
                continue
            block = np.ascontiguousarray(block, dtype=np.int64)
            max_node = max(
                max_node, int(block[:, S].max()), int(block[:, O].max())
            )
            max_pred = max(max_pred, int(block[:, P].max()))
            block.tofile(f)
    return path, dictionary, max_node, max_pred


def _resolve_universe(
    dictionary: Optional[Dictionary],
    n_nodes: Optional[int], n_predicates: Optional[int],
    max_node: int, max_pred: int,
) -> tuple[int, int]:
    """Fix the universes before the scan, mirroring Graph's inference:
    a dictionary decides them (a differing pin is refused); otherwise
    each is its pin, or the maximum id + 1."""
    if dictionary is not None:
        N, Pn = dictionary.n_nodes, dictionary.n_predicates
        for name, pin, size in (
            ("n_nodes", n_nodes, N), ("n_predicates", n_predicates, Pn)
        ):
            if pin is not None and pin != size:
                raise BulkBuildError(
                    f"explicit {name} conflicts with the dictionary"
                )
    else:
        N = int(n_nodes) if n_nodes is not None else max_node + 1
        Pn = int(n_predicates) if n_predicates is not None else max_pred + 1
    _check_universe(N, Pn)
    return N, Pn


def _scan_source(
    source, chunk: int, n_partitions: int, n_nodes: int, n_predicates: int,
    workdir: str, stats: dict,
) -> list[list[str]]:
    """Phase 1: chunked scan into per-partition sorted deduplicated runs
    of int64 triple keys ``(s·P + p)·N + o``.

    The universes are fixed before the scan (:func:`_scanned`), so each
    chunk is keyed, sorted, deduplicated and spilled as one flat int64
    array; an id outside them is refused here.  With ``n_partitions >
    1`` (the sharded layout) each pending chunk is split by splitmix64
    subject hash before spilling, so every partition's runs hold a
    disjoint subject subset — and because the key embeds the subject,
    per-partition dedup *is* global dedup.  Returns the run paths of
    each partition.
    """
    shard_vector = None
    if n_partitions > 1:
        from repro.serving.sharding import shard_vector

    N, Pn = int(n_nodes), int(n_predicates)
    runs: list[list[str]] = [[] for _ in range(n_partitions)]
    pending: list[list[np.ndarray]] = [[] for _ in range(n_partitions)]
    pending_rows = 0

    def spill(pid: int) -> None:
        blocks = pending[pid]
        pending[pid] = []
        if not blocks:
            return
        block = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
        if block.min() < 0:
            raise BulkBuildError("ids must be non-negative")
        if (
            int(block[:, S].max()) >= N
            or int(block[:, O].max()) >= N
            or int(block[:, P].max()) >= Pn
        ):
            raise BulkBuildError("id outside the declared universes")
        keys = _spo_keys(block, N, Pn)
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        run = os.path.join(workdir, f"scan.p{pid}.run{len(runs[pid])}.bin")
        _spill_run(run, keys)
        runs[pid].append(run)
        stats["runs_spilled"] += 1

    def flush_all() -> None:
        nonlocal pending_rows
        for pid in range(n_partitions):
            spill(pid)
        pending_rows = 0

    for block, _ in _source_blocks(source, chunk):
        if not len(block):
            continue
        stats["input_triples"] += len(block)
        block = np.ascontiguousarray(block, dtype=np.int64)
        if shard_vector is None:
            pending[0].append(block)
        else:
            owner = shard_vector(block[:, S], n_partitions)
            for pid in np.unique(owner):
                pending[int(pid)].append(block[owner == pid])
        pending_rows += len(block)
        if pending_rows >= chunk:
            flush_all()
    flush_all()
    return runs


# -- wavelet + counts passes -----------------------------------------------


def _build_wavelet_streaming(
    sink,
    zone: int,
    key_path: str,
    transform,
    n: int,
    sigma: int,
    workdir: str,
    chunk: int,
    scratch_tag: str,
) -> dict:
    """One zone's wavelet matrix, level by level, out of core.

    Level 0 reads the zone's sorted key stream ``key_path`` through
    ``transform`` (key → symbol); deeper levels read the previous
    level's two scratch partitions ``<scratch_tag>.l<level>.part{0,1}``
    sequentially.  ``sink`` is a :class:`PackWriter` or any object with
    its ``add_array`` shape (the pool path spools to a scratch directory
    instead).  Returns the zone's manifest metadata block.
    """
    levels = max(1, (sigma - 1).bit_length())
    zeros_list: list[int] = []
    level_meta: list[dict] = []
    inputs = [key_path]
    nwords = -(-max(n, 1) // 64)
    for level in range(levels):
        shift = levels - 1 - level
        words = np.zeros(nwords, dtype=np.uint64)
        wbytes = words.view(np.uint8)
        zero_path = os.path.join(workdir, f"{scratch_tag}.l{level}.part0.bin")
        one_path = os.path.join(workdir, f"{scratch_tag}.l{level}.part1.bin")
        zeros = 0
        byte_pos = 0
        last_level = level == levels - 1
        blocks = _iter_files_aligned(
            inputs, chunk, transform if level == 0 else None
        )
        with open(zero_path, "wb") as zf, open(one_path, "wb") as of:
            for vals in blocks:
                bits = ((vals >> shift) & 1).astype(np.uint8)
                packed = np.packbits(bits, bitorder="little")
                wbytes[byte_pos : byte_pos + packed.size] = packed
                byte_pos += packed.size
                mask = bits.view(bool)
                if not last_level:  # the bottom partition feeds nothing
                    vals[~mask].tofile(zf)
                    vals[mask].tofile(of)
                zeros += int(vals.size - mask.sum())
        bv = BitVector.from_packed_words(words, n)
        prefix = f"wm{zone}.l{level}"
        sink.add_array(f"{prefix}.words", bv._words)
        sink.add_array(f"{prefix}.super", bv._super)
        sink.add_array(f"{prefix}.rel", bv._rel)
        zeros_list.append(zeros)
        level_meta.append({"n": n, "ones": bv._ones})
        if level:
            for path in inputs:
                os.unlink(path)
        inputs = [zero_path, one_path]
    for path in inputs:
        os.unlink(path)
    return {
        "n": n,
        "sigma": sigma,
        "levels": levels,
        "zeros": zeros_list,
        "level_meta": level_meta,
    }


def _counts_from_keys(key_path: str, chunk: int, decode, sigma: int) -> np.ndarray:
    """Streaming ``counts_from_column``: cumulative counts, length σ+1.

    Working memory is exactly one σ+1 accumulator plus O(chunk)
    temporaries: each chunk's column is run-length encoded
    (``np.unique``) so the scatter-add touches only the values present,
    where a ``bincount`` per chunk would allocate a *second* σ-sized
    array every iteration — at σ = 3 M nodes that one temporary is
    24 MB, the difference between passing and blowing the build's
    RSS-over-index gate.  The final prefix sum runs in place.
    """
    out = np.zeros(sigma + 1, dtype=np.int64)
    if sigma:
        acc = out[1:]
        for keys in _iter_file_int64(key_path, chunk):
            values, counts = np.unique(decode(keys), return_counts=True)
            acc[values] += counts
        np.cumsum(acc, out=acc)
    return out


def _count_decoder(attr: int, n_nodes: int, n_predicates: int):
    """Single-column decoder for the C-array passes: with
    ``key = (s·P + p)·N + o`` every column is one division/modulo away,
    where ``_decode_spo`` would materialise all three columns (five
    chunk-sized temporaries) when each pass needs exactly one."""
    N, Pn = n_nodes, n_predicates
    if attr == S:
        return (lambda keys: keys // (N * Pn)) if N * Pn else (lambda keys: keys)
    if attr == P:
        return (lambda keys: (keys // N) % Pn) if N and Pn else (lambda keys: keys)
    return (lambda keys: keys % N) if N else (lambda keys: keys)


def _external_sort(
    src_path: str,
    repack,
    workdir: str,
    run_values: int,
    io_block: int,
    tag: str,
    *,
    fanin: int,
    stats: dict,
) -> str:
    """Re-sort a key stream under a different key packing, out of core.

    Runs are spilled at ``run_values`` granularity (the scan chunk — the
    working-set bound the caller already pays), which keeps the run
    count within one merge fan-in at scale so the k-way merge stays a
    single pass; the merge itself reads with ``io_block``-value buffers.
    """
    runs: list[str] = []
    for i, keys in enumerate(_iter_file_int64(src_path, max(64, run_values))):
        new_keys = repack(keys)
        new_keys.sort()
        run = os.path.join(workdir, f"{tag}.run{i}.bin")
        _spill_run(run, new_keys)
        runs.append(run)
    path, _ = _merge_runs(runs, workdir, io_block, tag, fanin=fanin, stats=stats)
    return path


# -- build tasks -----------------------------------------------------------


#: Executor spec handed to :class:`repro.parallel.pool.TaskPool` — the
#: worker resolves it per task, so a fault patched over
#: ``_execute_build_task`` (the ``build.worker`` site) fires inside the
#: forked worker too.
_TASK_EXECUTOR = "repro.graph.bulkload:_execute_build_task"

#: Test/chaos hook: when set, called with each freshly created TaskPool
#: (drills install ``_kill_after_dispatch`` through it).
_POOL_HOOK = None


def _partition_streams(
    runs: list[str],
    n_nodes: int,
    n_predicates: int,
    run_values: int,
    io_block: int,
    fanin: int,
    workdir: str,
    tag: str,
    keep_inputs: bool = False,
) -> dict:
    """Merge + re-sort one partition's scan runs into its three sorted
    zone streams (spo, pos, osp).  Re-runnable when ``keep_inputs`` is
    set: the scan runs (task *inputs*) are never deleted, and every
    intermediate is regenerated with truncating writes — so an inline
    rescue after a worker kill reproduces the exact same files.
    """
    N, Pn = int(n_nodes), int(n_predicates)
    mstats: dict = {}
    spo_path, n = _merge_runs(
        runs, workdir, io_block, f"{tag}.spo",
        fanin=fanin, stats=mstats, keep_inputs=keep_inputs,
    )

    def to_pos(keys: np.ndarray) -> np.ndarray:
        s, p, o = _decode_spo(keys, N, Pn)
        return (p * N + o) * N + s

    def to_osp(keys: np.ndarray) -> np.ndarray:
        s, p, o = _decode_spo(keys, N, Pn)
        return (o * N + s) * Pn + p

    pos_path = _external_sort(
        spo_path, to_pos, workdir, run_values, io_block, f"{tag}.pos",
        fanin=fanin, stats=mstats,
    )
    osp_path = _external_sort(
        spo_path, to_osp, workdir, run_values, io_block, f"{tag}.osp",
        fanin=fanin, stats=mstats,
    )
    return {
        "n": n,
        "spo": spo_path,
        "pos": pos_path,
        "osp": osp_path,
        "merge_stats": mstats,
    }


class _ScratchSink:
    """PackWriter-shaped sink that spools arrays to a scratch directory.

    Build workers cannot append to the (single) pack concurrently, so a
    pass task streams its arrays here and the driver replays them into
    the real :class:`PackWriter` in canonical order with
    :meth:`~repro.core.frozen.PackWriter.add_array_from_file` — a pure
    byte copy, so the stitched pack is identical to a serial build's.
    """

    def __init__(self, directory: str) -> None:
        self._dir = directory
        self.table: list[tuple[str, str, str, int]] = []

    def add_array(self, name: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        fname = f"{len(self.table):03d}.arr"
        arr.tofile(os.path.join(self._dir, fname))
        self.table.append((name, fname, arr.dtype.str, int(arr.size)))


def _run_pass(sink, spec: dict) -> Optional[dict]:
    """Write one pass of a pack into ``sink``: a zone's wavelet levels
    (returns its manifest block) or one C array (returns ``None``)."""
    if spec["kind"] == "wavelet":
        mod = max(spec["sigma"], 1)  # a zone's keys end in its symbol
        return _build_wavelet_streaming(
            sink, spec["zone"], spec["path"], lambda keys: keys % mod,
            spec["n"], spec["sigma"], spec["workdir"], spec["io_block"],
            spec["tag"],
        )
    attr = spec["attr"]
    decode = _count_decoder(attr, spec["n_nodes"], spec["n_predicates"])
    sink.add_array(
        f"c{attr}",
        _counts_from_keys(spec["path"], spec["io_block"], decode, spec["sigma"]),
    )
    return None


def _pass_task(spec: dict) -> dict:
    """One pass as a pool task, spooled for the driver's stitch.
    Re-runnable: it only reads the zone streams and truncates what it
    writes."""
    scratch = os.path.join(spec["workdir"], f"{spec['tag']}.arrays")
    os.makedirs(scratch, exist_ok=True)
    sink = _ScratchSink(scratch)
    meta = _run_pass(sink, spec)
    return {"meta": meta, "scratch": scratch, "table": sink.table}


def _note_worker_peaks(stats: dict, results: list) -> None:
    peaks = [r["peak_rss_bytes"] for r in results if r.get("peak_rss_bytes")]
    if peaks:
        stats["worker_peak_rss_bytes"] = max(peaks)


def _write_pack(
    out_path: str,
    streams: dict,
    *,
    n_nodes: int,
    n_predicates: int,
    dictionary: Optional[Dictionary],
    workdir: str,
    io_block: int,
    tag: str,
    workers: int,
    stats: dict,
) -> dict:
    """Phases 4+5 and the sidecar: write the pack of one partition.

    ``streams`` is :func:`_partition_streams`' result.  The six passes
    (three zone wavelets, three C arrays) run inline straight into the
    :class:`PackWriter`, or with ``workers > 0`` as pool tasks whose
    spooled arrays are then stitched into the pack in the same order —
    the bytes are identical either way.  Scratch files are named after
    ``tag``, so builds sharing a workdir never collide.  Returns the
    manifest.
    """
    N, Pn = int(n_nodes), int(n_predicates)
    n = streams["n"]
    common = {
        "n": n, "n_nodes": N, "n_predicates": Pn,
        "workdir": workdir, "io_block": io_block,
    }
    # Zone S holds objects (σ = N) in spo order, zone P subjects (σ = N)
    # in pos order, zone O predicates (σ = P) in osp order.
    wavelets = [
        dict(common, kind="wavelet", zone=zone, path=streams[order],
             sigma=sigma, tag=f"{tag}.wm{zone}")
        for zone, order, sigma in ((S, "spo", N), (P, "pos", N), (O, "osp", Pn))
    ]
    counts = [
        dict(common, kind="counts", attr=attr, path=streams["spo"],
             sigma=(N, Pn, N)[attr], tag=f"{tag}.c{attr}")
        for attr in (S, P, O)
    ]
    wm_meta: dict = {}
    writer: Optional[PackWriter] = None
    stats["phase"] = "wavelet"
    try:
        if workers > 0:
            results = _run_build_tasks(wavelets + counts, workers, stats)
            _note_worker_peaks(stats, results)
            stats["phase"] = "stitch"
            writer = PackWriter(out_path)
            for spec, result in zip(wavelets + counts, results):
                if result["meta"] is not None:
                    wm_meta[spec["zone"]] = result["meta"]
                for name, fname, dtype, size in result["table"]:
                    writer.add_array_from_file(
                        name, os.path.join(result["scratch"], fname), dtype, size
                    )
        else:
            writer = PackWriter(out_path)
            for spec in wavelets:
                wm_meta[spec["zone"]] = _run_pass(writer, spec)
            stats["phase"] = "counts"
            for spec in counts:
                _run_pass(writer, spec)
        table = writer.table
        size = writer.finish()
        writer = None
    finally:
        if writer is not None:
            writer.abort()
    stats["phase"] = "manifest"
    return write_pack_manifest(
        out_path,
        meta={"n": n, "sigma": (N, Pn, N), "wm": wm_meta},
        table=table,
        file_size=size,
        n_nodes=N,
        n_predicates=Pn,
        dictionary=dictionary,
    )


def _shard_task(payload: dict) -> dict:
    """Build one shard's complete durable store: merge + re-sort its
    partition, write its frozen pack, install it as the store's first
    checkpoint beside a fresh empty WAL.  Re-runnable: the shard
    directory is rebuilt from scratch, so a rescued kill mid-task (even
    after the WAL was created) starts clean."""
    from repro.reliability.integrity import manifest_path
    from repro.reliability.wal import install_frozen_checkpoint

    workdir = payload["workdir"]
    tag = payload["tag"]
    N = int(payload["n_nodes"])
    Pn = int(payload["n_predicates"])
    shard_dir = payload["shard_dir"]
    shutil.rmtree(shard_dir, ignore_errors=True)
    os.makedirs(shard_dir)
    upath = payload["universe"]
    udst = os.path.join(shard_dir, "universe.npz")
    shutil.copyfile(upath, udst)
    shutil.copyfile(manifest_path(upath), manifest_path(udst))

    part = _partition_streams(
        payload["runs"], N, Pn,
        payload["run_values"], payload["io_block"], payload["fanin"],
        workdir, tag, keep_inputs=payload["keep_inputs"],
    )
    pack_path = os.path.join(workdir, f"{tag}.pack.ring")
    manifest = _write_pack(
        pack_path, part, n_nodes=N, n_predicates=Pn, dictionary=None,
        workdir=workdir, io_block=payload["io_block"], tag=tag, workers=0,
        stats={},
    )
    install_frozen_checkpoint(
        shard_dir, pack_path, n_triples=part["n"], n_nodes=N, n_predicates=Pn
    )
    for key in ("spo", "pos", "osp"):
        if os.path.exists(part[key]):
            os.unlink(part[key])
    return {
        "pid": payload["pid"],
        "n": part["n"],
        "pack_bytes": manifest["file_size"],
        "merge_stats": part["merge_stats"],
    }


def _execute_build_task(payload: dict) -> dict:
    """Run one build task (the ``build.worker`` fault site).

    Dispatched in a pool worker when the build is parallel, inline
    otherwise; either way the result carries the executing process's
    peak RSS so the driver can enforce the per-worker memory budget.
    """
    kind = payload["kind"]
    if kind in ("wavelet", "counts"):
        result = _pass_task(payload)
    elif kind == "shard":
        result = _shard_task(payload)
    else:
        raise BulkBuildError(f"unknown build task kind {kind!r}")
    result["kind"] = kind
    try:
        from repro.perf.hostmeta import peak_rss_bytes

        result["peak_rss_bytes"] = peak_rss_bytes()
    except Exception:
        result["peak_rss_bytes"] = None
    return result


def _run_build_tasks(payloads: list[dict], workers: int, stats: dict) -> list:
    """Run build tasks on a :class:`TaskPool`, or inline.

    Pool *startup* failure degrades to the serial path (recorded in
    ``stats["pool_degraded"]``) rather than failing the build; worker
    deaths mid-batch are already rescued inside the pool itself.
    """
    if not payloads:
        return []
    if workers > 0:
        from repro.parallel.pool import PoolUnavailable, TaskPool

        try:
            pool = TaskPool(_TASK_EXECUTOR, workers=workers)
        except PoolUnavailable:
            stats["pool_degraded"] = True
        else:
            if _POOL_HOOK is not None:
                _POOL_HOOK(pool)
            try:
                results = pool.run(payloads)
            finally:
                pool.close()
            for key, value in pool.stats().items():
                stats[f"pool_{key}"] = value
            return results
    return [_execute_build_task(dict(p)) for p in payloads]


# -- the builders ----------------------------------------------------------


class _Scan(NamedTuple):
    """What the shared preamble hands a builder."""

    workdir: str
    runs: list  # per partition, its sorted scan runs
    dictionary: Optional[Dictionary]
    n_nodes: int
    n_predicates: int
    chunk: int
    io_block: int
    fanin: int


@contextmanager
def _scanned(
    source, out_path: str, stats: dict, *, what: str, n_partitions: int,
    chunk_triples: int, n_nodes: Optional[int], n_predicates: Optional[int],
    spill_dir: Optional[str], workers: int,
):
    """The builders' shared preamble: check the arguments, open a
    private workdir, fix the universes (staging the source first unless
    they are known up front) and scan it into ``n_partitions`` sets of
    key runs.  Any failure inside the ``with`` body surfaces as
    :class:`BulkBuildError` naming ``stats["phase"]``, and the workdir
    is removed either way."""
    if chunk_triples < 1:
        raise ValueError("chunk_triples must be positive")
    if workers < 0:
        raise ValueError("workers must be non-negative")
    chunk = int(chunk_triples)
    parent = spill_dir or (os.path.dirname(os.path.abspath(out_path)) or ".")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".bulkload-", dir=parent)
    stats.update(
        input_triples=0, runs_spilled=0, phase="scan", workers=int(workers)
    )
    try:
        dictionary: Optional[Dictionary] = None
        max_node = max_pred = -1
        staged = None
        if isinstance(source, Graph):
            dictionary = source.dictionary
            if n_nodes is None:
                n_nodes = source.n_nodes
            if n_predicates is None:
                n_predicates = source.n_predicates
        elif (
            n_nodes is None or n_predicates is None
            # A .nt file's dictionary decides its universes.
            or isinstance(source, (str, os.PathLike))
            and str(source).endswith(".nt")
        ):
            staged, dictionary, max_node, max_pred = _stage_source(
                source, chunk, workdir
            )
            source = staged
        N, Pn = _resolve_universe(
            dictionary, n_nodes, n_predicates, max_node, max_pred
        )
        runs = _scan_source(source, chunk, n_partitions, N, Pn, workdir, stats)
        if staged is not None:
            os.unlink(staged)
        # Everything after the scan streams sorted files: read buffers
        # shrink to _STREAM_BLOCK regardless of the scan chunk.
        yield _Scan(
            workdir, runs, dictionary, N, Pn, chunk,
            max(64, min(chunk, _STREAM_BLOCK)), MERGE_FANIN,
        )
    except BulkBuildError:
        raise
    except Exception as exc:
        raise BulkBuildError(
            f"{what} failed during {stats.get('phase')}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bulk_build(
    source,
    out_path,
    *,
    chunk_triples: int = 1_000_000,
    n_nodes: Optional[int] = None,
    n_predicates: Optional[int] = None,
    spill_dir: Optional[str] = None,
    progress=None,
    stats: Optional[dict] = None,
    workers: int = 0,
) -> dict:
    """Stream-build a frozen ring pack at ``out_path``; returns the manifest.

    ``source`` may be a ``.nt`` file (labels, dictionary built
    incrementally), a ``.bin`` file (raw int64 ``(n, 3)`` rows), a
    ``.npy`` array, an id-text file (``s p o`` per line), a
    :class:`Graph`, or any iterable of rows/blocks.  ``chunk_triples``
    bounds the scan/sort working set; ``n_nodes``/``n_predicates`` pin
    the universes.  A :class:`Graph` fills in an omitted pin from its
    own ``n_nodes``/``n_predicates``; a ``.nt`` file's dictionary
    decides them; any other source without both pins is first staged
    to one scratch ``.bin`` and its universes inferred exactly like
    :class:`Graph` (maximum id + 1).  ``workers > 0`` runs the three
    zone wavelet passes and the three count passes on a pool of that
    many worker processes — the output is byte-identical to the serial
    build.  At most :data:`MERGE_FANIN` spill runs are merged in one
    k-way pass.  All spill files live in a private directory under
    ``spill_dir`` (default: next to ``out_path``) and are removed on
    exit; the pack itself appears atomically.  ``stats`` (a dict, if
    given) receives build counters, including the merge accounting
    (``merge_runs_merged``, ``merge_bytes_read``,
    ``merge_extra_pass_bytes``, …).  Failures raise
    :class:`BulkBuildError` and leave no partial pack behind.
    """
    out_path = str(out_path)
    stats = {} if stats is None else stats
    with _scanned(
        source, out_path, stats, what="bulk build", n_partitions=1,
        chunk_triples=chunk_triples, n_nodes=n_nodes,
        n_predicates=n_predicates, spill_dir=spill_dir, workers=workers,
    ) as scan:
        stats["phase"] = "merge"
        streams = _partition_streams(
            scan.runs[0], scan.n_nodes, scan.n_predicates,
            scan.chunk, scan.io_block, scan.fanin, scan.workdir, "pack",
        )
        n = streams["n"]
        _merge_stats_into(stats, streams["merge_stats"])
        stats["n_triples"] = n
        stats["deduplicated"] = stats["input_triples"] - n
        if progress:
            progress(f"canonical stream: {n} triples")
        manifest = _write_pack(
            out_path, streams, n_nodes=scan.n_nodes,
            n_predicates=scan.n_predicates, dictionary=scan.dictionary,
            workdir=scan.workdir, io_block=scan.io_block, tag="pack",
            workers=int(workers), stats=stats,
        )
        stats["phase"] = "done"
        stats["pack_bytes"] = manifest["file_size"]
        return manifest


def bulk_build_sharded(
    source,
    out_dir,
    *,
    n_shards: int,
    chunk_triples: int = 1_000_000,
    n_nodes: Optional[int] = None,
    n_predicates: Optional[int] = None,
    spill_dir: Optional[str] = None,
    progress=None,
    stats: Optional[dict] = None,
    workers: int = 0,
) -> dict:
    """Partition-build a ready-to-serve sharded durable layout.

    One scan pass splits the source by splitmix64 subject hash — the
    exact hash :class:`~repro.serving.sharding.ShardedRingIndex` routes
    queries with — and each shard's sort/merge/wavelet pipeline runs as
    one build task (concurrently across shards when ``workers > 0``).
    Every shard directory becomes a complete durable store (universe
    payload, frozen-pack checkpoint, fresh empty WAL), so
    ``ShardedRingIndex.recover(out_dir, mmap=True)`` serves the result
    with **zero** extra passes over the data.  The layout is published
    atomically: built under ``<out_dir>.tmp`` and renamed into place, so
    a crash leaves no half-written layout.  Returns the ``SHARDS.json``
    manifest dict.
    """
    out_dir = str(out_dir)
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    if os.path.exists(out_dir):
        raise BulkBuildError(f"output directory {out_dir!r} already exists")
    n_shards = int(n_shards)
    tmp_dir = out_dir + ".tmp"
    stats = {} if stats is None else stats
    stats["n_shards"] = n_shards
    with _scanned(
        source, out_dir, stats, what="sharded bulk build",
        n_partitions=n_shards, chunk_triples=chunk_triples, n_nodes=n_nodes,
        n_predicates=n_predicates, spill_dir=spill_dir, workers=workers,
    ) as scan:
        try:
            # The universe payload every shard's durable store embeds
            # (written once, copied per shard by its build task).
            from repro.reliability.wal import write_universe

            upath = os.path.join(scan.workdir, "universe.npz")
            write_universe(upath, scan.n_nodes, scan.n_predicates, scan.dictionary)

            shutil.rmtree(tmp_dir, ignore_errors=True)
            os.makedirs(tmp_dir)
            stats["phase"] = "shards"
            payloads = [
                {
                    "kind": "shard",
                    "pid": sid,
                    "runs": runs,
                    "n_nodes": scan.n_nodes,
                    "n_predicates": scan.n_predicates,
                    "run_values": scan.chunk,
                    "io_block": scan.io_block,
                    "fanin": scan.fanin,
                    "workdir": scan.workdir,
                    "tag": f"s{sid}",
                    "keep_inputs": workers > 0,
                    "universe": upath,
                    "shard_dir": os.path.join(tmp_dir, f"shard-{sid:02d}"),
                }
                for sid, runs in enumerate(scan.runs)
            ]
            results = sorted(
                _run_build_tasks(payloads, int(workers), stats),
                key=lambda r: r["pid"],
            )
            n = sum(r["n"] for r in results)
            for result in results:
                _merge_stats_into(stats, result["merge_stats"])
            _note_worker_peaks(stats, results)
            stats["n_triples"] = n
            stats["deduplicated"] = stats["input_triples"] - n
            stats["shard_triples"] = [r["n"] for r in results]
            stats["pack_bytes"] = sum(r["pack_bytes"] for r in results)

            stats["phase"] = "manifest"
            from repro.serving.sharding import write_shards_manifest

            manifest = write_shards_manifest(
                tmp_dir, n_shards=n_shards, n_nodes=scan.n_nodes,
                n_predicates=scan.n_predicates, replicas=1, transport="inproc",
            )
            os.replace(tmp_dir, out_dir)
            stats["phase"] = "done"
            if progress:
                progress(f"sharded layout: {n} triples across {n_shards} shards")
            return manifest
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
