"""Vectorized L1D step for replaying a stored trace, one chunk at a time.

:meth:`repro.sim.engine.Simulator.replay` walks a stored stream in
chunks of whole recorded batches and hands each chunk to one batch
step.  The ordinary step is ``CacheHierarchy.access_data`` (the dict
kernel, every sidecar hook).  For a direct-mapped L1D,
:func:`replay_stream` builds a cheaper step, because everything
sequential can be lifted out of the L1 loop:

* consecutive-duplicate entries are guaranteed hits with no state
  change, so each chunk is deduplicated with one vectorized compare
  (the previous chunk's last line is the predecessor at the seam);
* a *direct-mapped* cache has no LRU state — an access hits exactly
  when the previous access to its set was the same line — so hits and
  misses fall out of one stable sort by set index and a shifted
  compare, with each set's resident line carried into the next chunk;
* a miss is compulsory when its line is not in the first-touch history,
  a sorted array of the distinct lines seen so far (its memory grows
  with the distinct lines, never with the span of line numbers);
* the capacity/conflict split needs the fully-associative shadow, whose
  LRU state *is* inherently sequential — which is why the store
  simulates it once at write time and ships the per-entry hit bits in
  the container (:func:`repro.trace.store.shadow_hit_bits`); each chunk
  takes its slice.

L1 misses flow through the ordinary L2 kernel (any associativity: that
stream is one to two orders of magnitude smaller), and each attached
sidecar gets one ``on_batch`` per chunk with exact cumulative
statistics: the same calls, at the same boundaries, as on the dict
path.  Memory is bounded by the chunk, not the stream.  The result is
byte-identical to the dict kernel (the round-trip tests pin all four
paper apps).

Only direct-mapped L1Ds take this step (both paper machines' R8000; the
R10000's 2-way L1 keeps the dict kernel), and only when every attached
sidecar is ``stats_only`` (the telemetry ``CacheSampler``): the oracle,
profiler and tap read the per-batch dict state or the batch itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.trace.store import StoredTrace


def fast_replay_supported(hierarchy, stored: StoredTrace) -> bool:
    """Whether :func:`replay_stream`'s step replays ``stored`` exactly.

    The stored geometry has already been checked against the machine
    (:meth:`repro.sim.engine.Simulator.replay`)."""
    return (
        hierarchy.l1d.config.associativity == 1
        and hierarchy.l2_page_mapper is None
        and all(getattr(sidecar, "stats_only", False) for sidecar in hierarchy.sidecars)
        and len(stored.shadow_hits) > 0
    )


def replay_stream(hierarchy, stored: StoredTrace) -> Callable[[int, int, int], None]:
    """The vectorized batch step replaying ``stored`` into ``hierarchy``.

    ``step(start, end, writes)`` replays stream entries ``[start, end)``
    (``writes`` of their references are stores) with the effect of one
    ``access_data`` batch on everything the statistics read: the
    read/write counters, the L1D statistics and compulsory-miss history
    (``_seen``), the L2 and the sidecars' ``on_batch``.  Chunks must
    arrive in stream order.  The L1D's dict state (real sets, shadow)
    stays empty — neither
    :meth:`~repro.cache.hierarchy.CacheHierarchy.snapshot` nor a
    ``stats_only`` sidecar reads it, and :func:`fast_replay_supported`
    keeps every other sidecar on the dict path.  The batch arguments the
    sidecars get are the chunk's numpy slices and miss arrays.
    """
    l1, l2 = hierarchy.l1d, hierarchy.l2
    sidecars = hierarchy.sidecars
    shift = hierarchy._l2_shift
    set_mask = np.int64(l1.real._set_mask)
    set_dtype = np.min_scalar_type(l1.config.num_sets - 1)
    lines, counts, shadow_hits = stored.lines, stored.counts, stored.shadow_hits
    # Carried between chunks.  Line numbers are non-negative, so -1
    # marks an empty set, no predecessor, and (as the history's first
    # element) keeps every history lookup in bounds.
    resident = np.full(l1.config.num_sets, -1, dtype=np.int64)
    history = np.array([-1], dtype=np.int64)
    previous = -1
    offset = 0  # next chunk's first entry in the deduplicated stream

    def step(start: int, end: int, writes: int) -> None:
        nonlocal history, previous, offset
        total = int(counts[start:end].sum(dtype=np.int64))
        hierarchy._data_reads += total - writes
        hierarchy._data_writes += writes
        l1.stats.accesses += total
        chunk = np.asarray(lines[start:end])
        keep = np.empty(len(chunk), dtype=bool)
        if len(chunk):
            keep[0] = chunk[0] != previous
            np.not_equal(chunk[1:], chunk[:-1], out=keep[1:])
            previous = int(chunk[-1])
        deduped = chunk[keep]
        misses, l2_misses = deduped[:0], []
        n = len(deduped)
        shadow_hit = shadow_hits[offset : offset + n]
        offset += n
        if len(shadow_hit) != n or (end == len(lines) and offset != len(shadow_hits)):
            raise ValueError("stored shadow annotation does not match the stream")
        if n:
            # Group the chunk by set with a stable sort; an access misses
            # exactly when its line differs from the set's previous line —
            # its predecessor in the group, or the carried resident line
            # at the group's head.  Each group's tail becomes resident.
            sets = (deduped & set_mask).astype(set_dtype)
            order = np.argsort(sets, kind="stable")
            by_set, by_line = sets[order], deduped[order]
            head = np.empty(n, dtype=bool)
            head[0] = True
            np.not_equal(by_set[1:], by_set[:-1], out=head[1:])
            before = np.roll(by_line, 1)
            before[head] = resident[by_set[head]]
            tail = np.roll(head, -1)
            resident[by_set[tail]] = by_line[tail]
            miss = np.empty(n, dtype=bool)
            miss[order] = by_line != before
            misses = deduped[miss]

            # A line never touched before misses in the shadow too, so
            # every shadow-hit miss is a conflict; the compulsory ones
            # are the misses absent from the history.
            slot = np.searchsorted(history, misses)
            fresh = np.unique(misses[history.take(slot, mode="clip") != misses])
            history = np.insert(history, np.searchsorted(history, fresh), fresh)
            n_conflict = int(np.count_nonzero(shadow_hit[miss]))
            stats = l1.stats
            stats.misses += len(misses)
            stats.compulsory += len(fresh)
            stats.conflict += n_conflict
            stats.capacity += len(misses) - len(fresh) - n_conflict
            l1._seen.update(fresh.tolist())
            if len(misses):
                l2_misses = l2.process((misses >> shift).tolist())
        for sidecar in sidecars:
            sidecar.on_batch(hierarchy, chunk, counts[start:end], writes, misses, l2_misses)

    return step
