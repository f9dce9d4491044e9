"""Content-addressed binary trace store with zero-copy replay.

Generating a reference stream by re-running a traced Python program is
the dominant cost of a simulation — the batched cache kernel does
millions of lines per second, but the program that feeds it does not.
This module makes the stream a first-class, cachable artifact:

* :class:`TraceCapture` is a hierarchy *tap* sidecar that records every
  ``access_data`` batch verbatim (run-length compression preserved)
  while a live simulation runs;
* :func:`write_trace` serializes the captured stream plus everything
  else a :class:`~repro.sim.result.SimResult` needs (instruction
  totals, fork/dispatch counts, the final scheduling distribution) into
  a compact single-file binary container;
* :func:`load_trace` memory-maps the container read-only — the arrays
  handed back are views into the page cache, never copies;
* :class:`TraceStore` content-addresses the containers under
  ``<root>/objects/`` keyed by :class:`TraceKey` and journals every
  stored object into ``<root>/index.jsonl`` with the same checksummed
  append-only discipline as run journals, so ``repro-doctor`` can audit
  and repair the store.

The content-address key is ``(app, version, config-digest, code-hash)``:
any change to the experiment configuration, the machine geometry, the
traced program's source, or the trace-generation core invalidates the
key (the lookup simply misses and the trace is regenerated); the code
hash covers the source of every module the program and the simulator
import, transitively (:func:`import_closure`).  Replay
correctness rests on the stream being a *complete* record of the data
side and instruction fetches being order-independent *totals* — see
:meth:`repro.sim.engine.Simulator.replay`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.stats import SchedulingStats
from repro.resilience.errors import CheckpointError
from repro.resilience.faults import fault_point
from repro.resilience.journal import append_entry, file_checksum, read_journal

log = logging.getLogger("repro.campaign")

#: Container magic + format version (bumped on any layout change; the
#: version participates in the code hash indirectly via this module).
MAGIC = b"RTRC"
FORMAT_VERSION = 1

#: Containers larger than this are not stored (a paper-scale n=1024 run
#: is well under it; the cap keeps a misconfigured sweep from filling
#: the disk with multi-gigabyte streams).
MAX_TRACE_BYTES = 256 << 20

#: Array layout inside the container, in file order.  ``shadow_hits``
#: is the stored fully-associative-LRU hit annotation (one byte per
#: *deduplicated* stream entry, see :func:`dedup_mask`): the shadow
#: evolves on every access, which is inherently sequential, so it is
#: simulated once at store time and replayed as data — the vectorized
#: replay kernel then needs no sequential state at all.
_ARRAY_DTYPES = {
    "lines": "<i8",
    "counts": "<u4",
    "batch_ends": "<i8",
    "batch_writes": "<i8",
    "shadow_hits": "<u1",
}


def dedup_mask(lines: np.ndarray) -> np.ndarray:
    """Mask of stream entries that differ from their predecessor.

    Consecutive duplicate lines are guaranteed hits with no state change
    in either the real cache or the shadow (the kernel's run-length fast
    path skips them), so the shadow annotation is computed and stored
    per *deduplicated* entry; replay recomputes this same mask to align.
    """
    keep = np.empty(len(lines), dtype=bool)
    if len(lines):
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return keep


def shadow_hit_bits(dlines: np.ndarray, capacity: int) -> np.ndarray:
    """Fully-associative-LRU hit/miss per deduplicated entry.

    The exact shadow the classifying kernel runs (insertion-ordered dict,
    evict-oldest), simulated once over the whole stream.  Stored traces
    carry the result so replay never touches sequential LRU state.
    """
    hits = np.zeros(len(dlines), dtype=np.uint8)
    shadow: dict[int, None] = {}
    for index, line in enumerate(dlines.tolist()):
        if line in shadow:
            del shadow[line]
            shadow[line] = None
            hits[index] = 1
        else:
            if len(shadow) >= capacity:
                del shadow[next(iter(shadow))]
            shadow[line] = None
    return hits


#: The simulator module: besides the program's own module, the root of
#: every code hash's import closure (it fixes the allocation stagger and
#: drives the program).
SIMULATOR_MODULE = "repro.sim.engine"

#: ``import repro.x`` and ``from repro.x import a, b`` at any indentation
#: (lazy imports inside functions shape the stream too), parenthesised
#: name lists included.
_IMPORT = re.compile(
    r"^[ \t]*(?:import[ \t]+(repro[\w.]*)"
    r"|from[ \t]+(repro[\w.]*)[ \t]+import[ \t]+(\([^)]*\)|.*))",
    re.MULTILINE,
)

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _jsonable(value: Any) -> Any:
    """Best-effort canonical form for config values (digest input)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@functools.lru_cache(maxsize=None)
def _package_files() -> dict[str, Path]:
    """Every ``repro.*`` module name and its source file."""
    files = {}
    for path in _PACKAGE_ROOT.rglob("*.py"):
        parts = path.relative_to(_PACKAGE_ROOT.parent).with_suffix("").parts
        files[".".join(parts).removesuffix(".__init__")] = path
    return files


def _module_file(module_name: str) -> Path | None:
    """The source file of ``module_name``: looked up in the package tree
    for ``repro.*`` names (nothing is imported), taken from the loaded
    module for a program defined elsewhere."""
    if module_name.partition(".")[0] == "repro":
        return _package_files().get(module_name)
    try:
        return Path(importlib.import_module(module_name).__file__)
    except (ImportError, TypeError, AttributeError):
        return None


def _imported_modules(source: str) -> tuple[str, ...]:
    """The ``repro.*`` modules ``source`` imports, found by a line scan;
    ``from P import name`` also names module ``P.name`` when that is one."""
    found = set()
    for module, package, names in _IMPORT.findall(source):
        found.add(module or package)
        for name in re.sub(r"#.*", "", names).strip("()").split(","):
            if name.split():
                found.add(f"{package}.{name.split()[0]}")
    return tuple(sorted(name for name in found if _module_file(name) is not None))


@functools.lru_cache(maxsize=None)
def _module_source(module_name: str) -> tuple[str, tuple[str, ...]]:
    """``module_name``'s source sha256 and the modules it imports, read
    once per process."""
    path = _module_file(module_name)
    if path is None:
        return "unhashable", ()
    source = path.read_bytes()
    return hashlib.sha256(source).hexdigest(), _imported_modules(source.decode())


def import_closure(program_module: str) -> tuple[str, ...]:
    """Every module whose source can shape ``program_module``'s reference
    stream: the transitive ``repro.*`` imports of the program module and
    of the simulator, with the packages that importing them runs."""
    closure: set[str] = set()
    pending = [program_module, SIMULATOR_MODULE]
    while pending:
        name = pending.pop()
        if name in closure:
            continue
        closure.add(name)
        if name.startswith("repro."):
            pending.append(name.rpartition(".")[0])
        pending.extend(_module_source(name)[1])
    return tuple(sorted(closure))


def code_hash(program_module: str) -> str:
    """Digest of the source of every module in the program's
    :func:`import_closure`."""
    parts = {name: _module_source(name)[0] for name in import_closure(program_module)}
    return hashlib.sha256(_canonical_json(parts).encode()).hexdigest()


@dataclass(frozen=True)
class TraceKey:
    """The content address of one stored trace."""

    app: str
    version: str
    config_digest: str
    code_hash: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            _canonical_json(asdict(self)).encode()
        ).hexdigest()


def trace_key_for(program, config, machine, code_footprint: int) -> TraceKey:
    """The :class:`TraceKey` for running ``program`` as configured.

    ``app`` comes from the program's defining module (``repro.apps.X.…``
    → ``X``), ``version`` from its ``__name__``; the config digest folds
    the experiment config, the full machine spec, and the code footprint;
    the code hash folds the source of the program's import closure.
    """
    module = getattr(program, "__module__", "unknown")
    parts = module.split(".")
    app = parts[2] if parts[:2] == ["repro", "apps"] and len(parts) > 2 else module
    version = getattr(program, "__name__", "program")
    config_payload = {
        "config": (
            _jsonable(asdict(config))
            if is_dataclass(config) and not isinstance(config, type)
            else _jsonable(config)
        ),
        "machine": _jsonable(asdict(machine)),
        "code_footprint": code_footprint,
    }
    config_digest = hashlib.sha256(
        _canonical_json(config_payload).encode()
    ).hexdigest()
    return TraceKey(
        app=app,
        version=version,
        config_digest=config_digest,
        code_hash=code_hash(module),
    )


class TraceCapture:
    """Hierarchy tap that records every data batch verbatim.

    A sidecar (``hierarchy.attach``, see
    :class:`repro.cache.hierarchy.CacheHierarchy`): each ``access_data``
    call appends one batch — lines, counts and write totals exactly as
    fed — so replaying the capture reproduces the cache simulation bit
    for bit, batch boundaries included.
    """

    def __init__(self) -> None:
        self._lines: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._ends: list[int] = []
        self._writes: list[int] = []
        self._length = 0

    def on_batch(self, hierarchy, lines, counts, writes, l1_misses, l2_misses) -> None:
        self.on_access(lines, counts, writes)

    def finish(self, hierarchy) -> None:
        pass

    def on_access(self, lines, counts, writes: int) -> None:
        """Record one batch."""
        arr = np.asarray(lines, dtype=np.int64)
        if counts is None:
            cnt = np.ones(len(arr), dtype=np.uint32)
        else:
            cnt = np.asarray(counts, dtype=np.uint32)
        self._lines.append(arr)
        self._counts.append(cnt)
        self._length += len(arr)
        self._ends.append(self._length)
        self._writes.append(writes)

    @property
    def batches(self) -> int:
        return len(self._ends)

    @property
    def total_lines(self) -> int:
        return self._length

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "lines": (
                np.concatenate(self._lines)
                if self._lines
                else np.empty(0, np.int64)
            ),
            "counts": (
                np.concatenate(self._counts)
                if self._counts
                else np.empty(0, np.uint32)
            ),
            "batch_ends": np.asarray(self._ends, dtype=np.int64),
            "batch_writes": np.asarray(self._writes, dtype=np.int64),
        }


def _align(offset: int, boundary: int = 16) -> int:
    return (offset + boundary - 1) // boundary * boundary


def cache_geometry(machine) -> dict[str, int]:
    """The machine's L1D and L2 geometry as stored in a trace header."""
    l1d, l2 = machine.l1d, machine.l2
    return {
        "line_bits": l1d.line_bits,
        "l1d_lines": l1d.num_lines,
        "l1d_assoc": l1d.associativity,
        "l2_line_bits": l2.line_bits,
        "l2_lines": l2.num_lines,
        "l2_assoc": l2.associativity,
    }


def build_header(
    key: TraceKey, result, code_footprint: int, machine
) -> dict[str, Any]:
    """The JSON header stored alongside the stream (array geometry is
    filled in by :func:`write_trace`).

    The L1D/L2 geometry fields (:func:`cache_geometry`) guard replay:
    machine *names* do not distinguish every scaled variant
    (``r8000(64, 64)`` and ``r8000(64)`` are both ``R8000/64``), so
    replay checks each stored field against the target machine before
    trusting the stream (the content key already separates them; this
    catches hand-loaded mismatches)."""
    sched = None
    if result.sched is not None:
        sched = {
            "threads": result.sched.threads,
            "bins": result.sched.bins,
            "threads_per_bin": list(result.sched.threads_per_bin),
            "seq": result.sched.seq,
        }
    return {
        "format": "rtrace",
        "version": FORMAT_VERSION,
        "key": asdict(key),
        "digest": key.digest,
        "program": result.program,
        "machine": result.machine,
        **cache_geometry(machine),
        "code_footprint": code_footprint,
        "app_instructions": result.app_instructions,
        "thread_instructions": result.thread_instructions,
        "forks": result.forks,
        "dispatches": result.dispatches,
        "sched": sched,
    }


def write_trace(
    path: Path, header: dict[str, Any], arrays: dict[str, np.ndarray]
) -> None:
    """Serialize one trace container atomically (tmp + rename).

    Layout: ``MAGIC | version u32 | header-length u32 | header JSON |
    NUL pad to 16 | arrays`` with each array 16-byte aligned; the header
    records every array's offset/dtype/count and the sha256 of the whole
    data region, so the doctor can verify integrity without a schema.
    """
    header = dict(header)
    blobs = {
        name: np.ascontiguousarray(arrays[name], dtype=np.dtype(dtype))
        for name, dtype in _ARRAY_DTYPES.items()
    }
    # Two-pass offset computation: the header length depends on the
    # offsets, which depend on the header length.  Padding the header to
    # a fixed-point is simpler: compute with a placeholder, then re-pad.
    geometry = {
        name: {"dtype": dtype, "count": int(len(blobs[name]))}
        for name, dtype in _ARRAY_DTYPES.items()
    }
    data = b"".join(
        blobs[name].tobytes().ljust(_align(blobs[name].nbytes), b"\0")
        for name in _ARRAY_DTYPES
    )
    header["payload_sha256"] = file_checksum(data)
    header["total_refs"] = int(blobs["counts"].sum())
    header["batches"] = int(len(blobs["batch_ends"]))
    for _ in range(3):
        header["arrays"] = geometry
        encoded = _canonical_json(header).encode()
        data_start = _align(len(MAGIC) + 8 + len(encoded))
        offset = data_start
        changed = False
        for name in _ARRAY_DTYPES:
            if geometry[name].get("offset") != offset:
                geometry[name]["offset"] = offset
                changed = True
            offset = _align(offset + blobs[name].nbytes)
        header["data_offset"] = data_start
        if not changed:
            break
    encoded = _canonical_json(header).encode()
    prefix = (
        MAGIC
        + FORMAT_VERSION.to_bytes(4, "little")
        + len(encoded).to_bytes(4, "little")
        + encoded
    )
    blob = prefix.ljust(header["data_offset"], b"\0") + data
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            fault_point("io.enospc", path=str(path))
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write trace {path.name}: {exc}", path=str(path)
        ) from exc
    finally:
        tmp.unlink(missing_ok=True)


@dataclass
class StoredTrace:
    """One memory-mapped trace container, ready to replay."""

    path: Path
    header: dict[str, Any]
    lines: np.ndarray
    counts: np.ndarray
    batch_ends: np.ndarray
    batch_writes: np.ndarray
    shadow_hits: np.ndarray

    @property
    def machine(self) -> str:
        return self.header["machine"]

    @property
    def program(self) -> str:
        return self.header["program"]

    @property
    def batches(self) -> int:
        return len(self.batch_ends)

    def sched_stats(self) -> SchedulingStats | None:
        sched = self.header.get("sched")
        if sched is None:
            return None
        return SchedulingStats(
            threads=sched["threads"],
            bins=sched["bins"],
            threads_per_bin=tuple(sched["threads_per_bin"]),
            seq=sched["seq"],
        )


def read_header(path: Path) -> dict[str, Any]:
    """Parse and sanity-check a container's header (no array mapping)."""
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(len(MAGIC) + 8)
            if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
                raise CheckpointError(
                    f"not a trace container: {path.name}", path=str(path)
                )
            version = int.from_bytes(prefix[4:8], "little")
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported trace format version {version} in "
                    f"{path.name}",
                    path=str(path),
                )
            header_len = int.from_bytes(prefix[8:12], "little")
            encoded = handle.read(header_len)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read trace {path.name}: {exc}", path=str(path)
        ) from exc
    if len(encoded) != header_len:
        raise CheckpointError(
            f"truncated trace header in {path.name}", path=str(path)
        )
    try:
        header = json.loads(encoded)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt trace header in {path.name}: {exc}", path=str(path)
        ) from exc
    if not isinstance(header, dict) or "arrays" not in header:
        raise CheckpointError(
            f"malformed trace header in {path.name}", path=str(path)
        )
    return header


def load_trace(path: Path) -> StoredTrace:
    """Memory-map one container read-only (zero-copy views)."""
    header = read_header(path)
    size = path.stat().st_size
    views: dict[str, np.ndarray] = {}
    for name, dtype in _ARRAY_DTYPES.items():
        try:
            geometry = header["arrays"][name]
            offset, count = geometry["offset"], geometry["count"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"trace header missing array {name!r} in {path.name}",
                path=str(path),
            ) from exc
        itemsize = np.dtype(dtype).itemsize
        if offset + count * itemsize > size:
            raise CheckpointError(
                f"trace array {name!r} extends past end of {path.name}",
                path=str(path),
            )
        if count:
            views[name] = np.memmap(
                path, dtype=np.dtype(dtype), mode="r", offset=offset,
                shape=(count,),
            )
        else:
            views[name] = np.empty(0, dtype=np.dtype(dtype))
    lines, ends = views["lines"], views["batch_ends"]
    if len(ends) != len(views["batch_writes"]) or (
        len(ends) and int(ends[-1]) != len(lines)
    ):
        raise CheckpointError(
            f"inconsistent batch geometry in {path.name}", path=str(path)
        )
    if len(views["shadow_hits"]) > len(lines):
        raise CheckpointError(
            f"inconsistent shadow annotation in {path.name}", path=str(path)
        )
    return StoredTrace(
        path=path,
        header=header,
        lines=lines,
        counts=views["counts"],
        batch_ends=ends,
        batch_writes=views["batch_writes"],
        shadow_hits=views["shadow_hits"],
    )


def verify_object(path: Path) -> dict[str, Any]:
    """Full integrity check: header parse + data-region sha256.

    Returns the header on success; raises :class:`CheckpointError` on
    any mismatch.  This is the doctor's audit (and the repair filter) —
    the hot :func:`load_trace` path deliberately skips the hash so
    replay stays zero-copy.
    """
    header = read_header(path)
    data_offset = header.get("data_offset")
    recorded = header.get("payload_sha256")
    if not isinstance(data_offset, int) or not isinstance(recorded, str):
        raise CheckpointError(
            f"trace header missing integrity fields in {path.name}",
            path=str(path),
        )
    try:
        with open(path, "rb") as handle:
            handle.seek(data_offset)
            actual = file_checksum(handle.read())
    except OSError as exc:
        raise CheckpointError(
            f"cannot read trace {path.name}: {exc}", path=str(path)
        ) from exc
    if actual != recorded:
        raise CheckpointError(
            f"trace data checksum mismatch in {path.name}", path=str(path)
        )
    return header


def index_payload(header: dict[str, Any], path: Path) -> dict[str, Any]:
    """The journaled ``trace`` index entry for one stored object."""
    return {
        "digest": header["digest"],
        "key": header["key"],
        "program": header["program"],
        "machine": header["machine"],
        "batches": header["batches"],
        "lines": header["arrays"]["lines"]["count"],
        "total_refs": header["total_refs"],
        "bytes": path.stat().st_size,
        "payload_sha256": header["payload_sha256"],
    }


class TraceStore:
    """Content-addressed store of trace containers on disk.

    ``<root>/objects/<aa>/<digest>.rtr`` holds the containers (the file
    name *is* the content address, so lookup is a path check);
    ``<root>/index.jsonl`` journals one checksummed ``trace`` entry per
    stored object for the doctor.  All writes are atomic and idempotent,
    so concurrent ``--jobs`` workers sharing a store race benignly: the
    loser of a rename publishes identical bytes, and duplicate index
    lines collapse on replay (last entry per digest wins).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.index_path = self.root / "index.jsonl"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def object_path(self, digest: str) -> Path:
        return self.objects / digest[:2] / f"{digest}.rtr"

    def get(self, key: TraceKey) -> StoredTrace | None:
        """The stored trace for ``key``, or ``None`` on miss.

        An unreadable or mismatched object is treated as a miss (the
        caller regenerates; the doctor reports and repairs the debris) —
        a broken store never breaks an experiment.
        """
        path = self.object_path(key.digest)
        if not path.exists():
            self.misses += 1
            return None
        try:
            stored = load_trace(path)
        except CheckpointError as exc:
            log.warning("trace store: ignoring unreadable object (%s)", exc)
            self.misses += 1
            return None
        if stored.header.get("digest") != key.digest:
            self.misses += 1
            return None
        self.hits += 1
        return stored

    def put(
        self, key: TraceKey, capture: TraceCapture, result, machine,
        code_footprint: int,
    ) -> str | None:
        """Store a captured run under ``key``; returns the digest.

        Failures degrade to ``None`` with a warning — the simulation
        already succeeded, and a full disk must not turn that success
        into a campaign failure.  Runs with thread faults are not stored
        (their streams are not the program's nominal trace), nor are
        streams over :data:`MAX_TRACE_BYTES`.
        """
        if result.thread_faults:
            return None
        if capture.total_lines * 13 > MAX_TRACE_BYTES:
            log.warning(
                "trace store: %s/%s stream too large to store "
                "(%d lines)", key.app, key.version, capture.total_lines,
            )
            return None
        digest = key.digest
        path = self.object_path(digest)
        if path.exists():
            return digest
        header = build_header(key, result, code_footprint, machine)
        arrays = capture.arrays()
        deduped = arrays["lines"][dedup_mask(arrays["lines"])]
        arrays["shadow_hits"] = shadow_hit_bits(
            deduped, machine.l1d.num_lines
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_trace(path, header, arrays)
            append_entry(
                self.index_path, "trace",
                index_payload(read_header(path), path),
            )
        except (CheckpointError, OSError) as exc:
            log.warning("trace store: could not store %s (%s)", digest, exc)
            return None
        self.stores += 1
        return digest

    def indexed(self) -> dict[str, dict[str, Any]]:
        """Surviving index entries by digest (forgiving journal replay)."""
        if not self.index_path.exists():
            return {}
        return read_journal(self.index_path).traces

    def object_paths(self) -> list[Path]:
        return sorted(self.objects.glob("*/*.rtr"))


# ----------------------------------------------------------------------
# Process-wide store (campaign scope)
# ----------------------------------------------------------------------
# Mirrors repro.verify.config: the campaign enters a scope around the
# whole run (serial driver and each --jobs worker alike), and
# run_versions consults it transparently.

_STORE: TraceStore | None = None


def set_trace_store(store: TraceStore | None) -> TraceStore | None:
    """Install the process-wide store; returns the previous one."""
    global _STORE
    previous = _STORE
    _STORE = store
    return previous


def current_trace_store() -> TraceStore | None:
    return _STORE


@contextmanager
def trace_store_scope(store: TraceStore | None):
    """Scoped campaign override of the process-wide store."""
    previous = set_trace_store(store)
    try:
        yield store
    finally:
        set_trace_store(previous)


def open_trace_store(root: str | None) -> TraceStore | None:
    """A :class:`TraceStore` at ``root``, or ``None`` (disabled).

    A root that cannot be created degrades to ``None`` with a warning —
    the transparent cache must never gate a campaign on disk health.
    """
    if root is None:
        return None
    try:
        return TraceStore(root)
    except OSError as exc:
        log.warning("trace store: cannot open %s (%s); disabled", root, exc)
        return None
