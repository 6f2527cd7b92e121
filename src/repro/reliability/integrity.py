"""Checksummed index persistence and structural self-checks.

Every on-disk artifact has exactly one reader, and both its loader and
``repro verify`` call it, so the two can never disagree on what is
valid.  Each reader returns what it opened plus the checks it ran, and
raises :class:`IndexIntegrityError` — never a silently wrong index:

- **``.npz`` index** — :func:`open_npz_index` (graph payload via
  :func:`read_npz_graph`: existence, SHA-256 against the JSON sidecar
  ``<path>.config.json``, deserialization, the sidecar's
  ``n_triples``/``n_nodes``/``n_predicates``), then the rebuilt ring's
  :func:`verify_ring_structure`;
- **frozen pack** — :func:`repro.core.frozen.open_frozen_ring` (layout,
  SHA-256 when eager or asked, ring structure);
- **durable store** — :func:`repro.reliability.wal.read_store`
  (universe, checkpoint packs, agreement with the WAL);
- **sharded layout** — :func:`repro.serving.sharding.read_shards_manifest`
  (typed ``SHARDS.json``), then the store reader per member directory.

:func:`verify_ring_structure` validates the ring itself: ``C``-array
monotonicity and endpoints, wavelet-matrix level lengths and
alphabets, ``n_triples`` against the manifest, and deterministic
spot-check triple round-trips.  :func:`verify_index` (``python -m repro
verify``) dispatches a path to its reader with every check on.

Legacy sidecars (``{"compressed": ...}`` only) still load; they simply
skip the checksum comparison and rely on the structural checks.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

import numpy as np

from repro.graph import io as graph_io
from repro.graph.dataset import Graph

MANIFEST_VERSION = 1
SPOT_CHECK_SAMPLES = 32


class IndexIntegrityError(Exception):
    """A persisted index failed a checksum or structural self-check."""

    def __init__(self, path, reason: str) -> None:
        self.path = str(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")


# -- on-disk plumbing ------------------------------------------------------------


def resolve_payload(path) -> str:
    """The actual ``.npz`` file behind ``path``.

    ``np.savez`` appends ``.npz`` when the name lacks it; mirror that so
    checksums and loads agree on the same file.
    """
    path = str(path)
    if os.path.exists(path):
        return path
    if not path.endswith(".npz") and os.path.exists(path + ".npz"):
        return path + ".npz"
    return path


def manifest_path(path) -> str:
    return str(path) + ".config.json"


def file_checksum(path) -> str:
    """SHA-256 of a file, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, *, compressed: bool, graph: Graph) -> None:
    """Write the sidecar manifest next to a freshly saved index."""
    payload = resolve_payload(path)
    meta = {
        "format_version": MANIFEST_VERSION,
        "compressed": bool(compressed),
        "sha256": file_checksum(payload),
        "n_triples": int(graph.n_triples),
        "n_nodes": int(graph.n_nodes),
        "n_predicates": int(graph.n_predicates),
    }
    with open(manifest_path(path), "w") as f:
        json.dump(meta, f)


def read_manifest(path) -> Optional[dict]:
    """The sidecar's contents, or ``None`` when no sidecar exists.

    An unreadable/corrupt sidecar is itself an integrity failure.
    """
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        return None
    try:
        with open(mpath) as f:
            meta = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexIntegrityError(path, f"unreadable manifest: {exc}") from exc
    if not isinstance(meta, dict):
        raise IndexIntegrityError(path, "manifest is not a JSON object")
    return meta


def verify_checksum(path, expected: Optional[str], payload=None) -> list[str]:
    """Compare the SHA-256 of ``payload`` (default ``path``) with the
    sidecar's ``expected`` digest; a sidecar without one skips the check."""
    if expected is None:
        return []
    actual = file_checksum(payload or path)
    if actual != expected:
        raise IndexIntegrityError(
            path,
            f"checksum mismatch (expected {expected[:12]}…, "
            f"got {actual[:12]}…): file corrupted or truncated",
        )
    return ["sha256 checksum"]


def read_npz_graph(
    path, manifest: Optional[dict] = None, *, verify: bool = True
) -> tuple[Graph, list[str]]:
    """The one reader of a graph ``.npz`` payload; returns the graph and
    the checks run.  With ``verify`` the payload must exist and match the
    sidecar's SHA-256 and shape; deserialization failures are typed
    either way."""
    payload = resolve_payload(path)
    if manifest is None:
        manifest = read_manifest(path)
    checks: list[str] = []
    if verify:
        if not os.path.exists(payload):
            raise IndexIntegrityError(path, "index file does not exist")
        checks.append("payload exists")
        checks += verify_checksum(path, (manifest or {}).get("sha256"), payload)
    try:
        # Through the module, so the fault registry's ``io.load`` hook applies.
        graph = graph_io.load_graph(payload)
    except IndexIntegrityError:
        raise
    except Exception as exc:
        raise IndexIntegrityError(
            path, f"cannot deserialize index: {exc}"
        ) from exc
    checks.append("deserialization")
    if verify and manifest is not None:
        for key, actual in (
            ("n_triples", graph.n_triples),
            ("n_nodes", graph.n_nodes),
            ("n_predicates", graph.n_predicates),
        ):
            expected = manifest.get(key)
            if expected is not None and expected != actual:
                raise IndexIntegrityError(
                    path,
                    f"{key} mismatch: manifest says {expected}, "
                    f"payload has {actual}",
                )
        checks.append("manifest cross-consistency")
    return graph, checks


def open_npz_index(
    path,
    manifest: Optional[dict],
    *,
    verify: bool = True,
    samples: int = SPOT_CHECK_SAMPLES,
    index_cls=None,
    **options,
):
    """The one reader of a ``.npz`` index (``manifest`` is its sidecar,
    ``None`` for a legacy index), behind ``RingIndex.load`` and
    :func:`verify_index`: :func:`read_npz_graph`, then the ring is
    rebuilt as ``index_cls(graph, **options)`` (default
    :class:`~repro.core.system.RingIndex`) and, with ``verify``,
    checked against the stored rows.  Returns the index and the checks.
    """
    if index_cls is None:
        from repro.core.system import RingIndex as index_cls
    graph, checks = read_npz_graph(path, manifest, verify=verify)
    compressed = bool((manifest or {}).get("compressed", False))
    index = index_cls(graph, compressed=compressed, **options)
    if verify:
        checks.extend(
            verify_ring_structure(
                index.ring,
                graph=graph,
                expected_n=graph.n_triples,
                samples=samples,
                path=path,
            )
        )
    return index, checks


# -- structural self-checks ---------------------------------------------------------


def verify_ring_structure(
    ring,
    *,
    graph: Optional[Graph] = None,
    expected_n: Optional[int] = None,
    samples: int = SPOT_CHECK_SAMPLES,
    path="<in-memory ring>",
) -> list[str]:
    """Validate a ring's internal invariants; returns the checks run.

    Raises :class:`IndexIntegrityError` on the first violation.  The
    checks mirror the construction invariants of
    :class:`~repro.core.ring.Ring` (§4.1): three equal-length zone
    wavelet matrices over the right alphabets, three monotone ``C``
    arrays ending at ``n``, and spot-checked triple round-trips.
    """
    from repro.core.ring import prev_attr
    from repro.graph.model import O, P, S

    checks: list[str] = []
    n = ring.n

    def fail(reason: str) -> None:
        raise IndexIntegrityError(path, reason)

    if expected_n is not None and n != expected_n:
        fail(f"n_triples mismatch: ring has {n}, expected {expected_n}")
    checks.append("n_triples cross-consistency")

    for zone in (S, P, O):
        wm = ring.zone_sequence(zone)
        symbol_attr = prev_attr(zone)
        if len(wm) != n:
            fail(f"zone {zone} wavelet matrix has {len(wm)} symbols, not {n}")
        if wm.sigma != ring.sigma(symbol_attr):
            fail(
                f"zone {zone} alphabet is {wm.sigma}, expected "
                f"{ring.sigma(symbol_attr)}"
            )
        expected_levels = max(1, (wm.sigma - 1).bit_length())
        if wm.levels != expected_levels:
            fail(
                f"zone {zone} has {wm.levels} wavelet levels, expected "
                f"{expected_levels}"
            )
        for level, bv in enumerate(wm._bits):
            if len(bv) != n:
                fail(
                    f"zone {zone} level {level} bitvector has {len(bv)} "
                    f"bits, not {n}"
                )
    checks.append("wavelet-matrix level lengths and alphabets")

    for attr in (S, P, O):
        c = np.asarray(ring.c_array(attr), dtype=np.int64)
        if len(c) != ring.sigma(attr) + 1:
            fail(
                f"C[{attr}] has {len(c)} entries, expected "
                f"{ring.sigma(attr) + 1}"
            )
        if len(c) and (c[0] != 0 or c[-1] != n):
            fail(
                f"C[{attr}] endpoints are ({int(c[0])}, {int(c[-1])}), "
                f"expected (0, {n})"
            )
        if len(c) > 1 and np.any(np.diff(c) < 0):
            fail(f"C[{attr}] is not monotonically non-decreasing")
    checks.append("C-array monotonicity and endpoints")

    if n and samples:
        step = max(1, n // samples)
        source = graph.triples if graph is not None else None
        for i in range(0, n, step):
            try:
                s, p, o = ring.triple(i)
            except Exception as exc:
                fail(f"triple({i}) raised {type(exc).__name__}: {exc}")
            if not (
                0 <= s < ring.sigma(S)
                and 0 <= p < ring.sigma(P)
                and 0 <= o < ring.sigma(O)
            ):
                fail(f"triple({i}) = {(s, p, o)} outside the universes")
            if not ring.contains(s, p, o):
                fail(f"triple({i}) = {(s, p, o)} fails its own membership test")
            if source is not None and tuple(source[i]) != (s, p, o):
                fail(
                    f"triple({i}) = {(s, p, o)} disagrees with the stored "
                    f"graph row {tuple(int(x) for x in source[i])}"
                )
        checks.append(f"spot-check triple round-trips ({min(samples, n)} samples)")
    return checks


def verify_index(path, samples: int = SPOT_CHECK_SAMPLES) -> dict:
    """Full battery over a persisted index; the ``repro verify`` engine.

    Runs the artifact's own reader — the one its loader runs — with
    every check on (a frozen pack's SHA-256 included, over a map), or
    the store / sharded-layout battery for a directory.  Returns a
    report dict (``checks`` run, graph shape, configuration); raises
    :class:`IndexIntegrityError` on any failure.
    """
    if os.path.isdir(str(path)):
        from repro.serving.sharding import MANIFEST_NAME, verify_sharded_dir

        if os.path.exists(os.path.join(str(path), MANIFEST_NAME)):
            return verify_sharded_dir(path, samples=samples)
        from repro.reliability.wal import verify_dynamic_dir

        return verify_dynamic_dir(path, samples=samples)

    manifest = read_manifest(path)
    if manifest is not None and manifest.get("kind") == "frozen-ring":
        from repro.core.frozen import open_frozen_ring

        ring, checks = open_frozen_ring(
            path, manifest, mmap=True, deep_verify=True, samples=samples
        )
        n_nodes, n_predicates = manifest["n_nodes"], manifest["n_predicates"]
        n_triples, compressed, kind = ring.n, False, "frozen-ring"
    else:
        index, checks = open_npz_index(path, manifest, samples=samples)
        graph = index.graph
        n_nodes, n_predicates = graph.n_nodes, graph.n_predicates
        n_triples, compressed, kind = graph.n_triples, index.ring.compressed, "npz"
    return {
        "path": str(path),
        "kind": kind,
        "manifest": "present" if manifest else "absent (legacy index)",
        "checks": checks,
        "n_triples": n_triples,
        "n_nodes": int(n_nodes),
        "n_predicates": int(n_predicates),
        "compressed": compressed,
    }
