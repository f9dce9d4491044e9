"""Two-level cache hierarchy matching the paper's SGI machines.

Both experiment machines have split first-level instruction/data caches
and a unified second-level cache.  Data references are simulated at L1D
granularity; L1D misses are forwarded to L2 (re-mapped to the larger L2
line size).  Instruction fetches are *counted* but not address-simulated:
the paper's kernels are tight loops whose code trivially stays resident
in L1I, so I-side misses are limited to a one-time compulsory charge for
the program's code footprint (see :meth:`CacheHierarchy.charge_code_footprint`).
This matches how the paper's tables are read — L1/L2 miss counts there are
dominated entirely by data traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.classify import ClassifyingCache, LevelStats
from repro.cache.config import CacheConfig


@dataclass
class HierarchyStats:
    """Reference and miss totals for a full hierarchy, paper-table shaped."""

    inst_fetches: int
    data_reads: int
    data_writes: int
    l1: LevelStats
    l2: LevelStats

    @property
    def data_refs(self) -> int:
        return self.data_reads + self.data_writes

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses per *total* reference (instructions + data), the rate
        definition used in the paper's Tables 3, 5, 7 and 9."""
        total = self.inst_fetches + self.data_refs
        if total == 0:
            return 0.0
        return self.l1.misses / total

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L1 miss (local miss rate), as in the paper."""
        if self.l1.misses == 0:
            return 0.0
        return self.l2.misses / self.l1.misses


class CacheHierarchy:
    """Split L1 I/D over a unified L2, simulated for data references.

    :meth:`access_data` is the one kernel; observers (verify oracle,
    telemetry sampler, locality profiler, trace tap) ride along as
    sidecars via :meth:`attach`."""

    def __init__(
        self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        l2_page_mapper=None,
    ) -> None:
        if l2.line_size < l1d.line_size:
            raise ValueError(
                "L2 line size must be >= L1D line size "
                f"({l2.line_size} < {l1d.line_size})"
            )
        self.l1i_config = l1i
        self.l1d = ClassifyingCache(l1d)
        self.l2 = ClassifyingCache(l2)
        #: Optional virtual-to-physical translation in front of the
        #: (physically indexed) L2; the L1s stay virtually indexed.
        self.l2_page_mapper = l2_page_mapper
        self._l2_shift = l2.line_bits - l1d.line_bits
        self._inst_fetches = 0
        self._data_reads = 0
        self._data_writes = 0
        self._l1i_compulsory = 0
        self._l2_code_lines = 0
        #: Attached sidecars, in attach order (see :meth:`attach`).
        self.sidecars: tuple = ()

    # ------------------------------------------------------------------
    # Sidecars
    # ------------------------------------------------------------------
    # A sidecar observes the simulation without changing it.  Each has
    # one hook, ``on_batch(hierarchy, lines, counts, writes, l1_misses,
    # l2_misses)``, called after every data batch, and one
    # ``finish(hierarchy)``, called by the simulator once at the end of
    # the simulation.  With no sidecar attached the *class* method
    # ``access_data`` handles every batch, so disabled
    # verification/telemetry/profiling is structurally free (the
    # benchmarks assert this binding rather than timing a zero-cost
    # delta).  Attaching one installs ``_access_data_instrumented`` as an
    # instance attribute, which shadows the class method until the last
    # sidecar detaches.

    def attach(self, sidecar) -> None:
        """Call ``sidecar.on_batch`` after every data batch from now on.

        Sidecars are called in attach order, each with the same
        arguments."""
        if any(attached is sidecar for attached in self.sidecars):
            raise ValueError("sidecar is already attached")
        self.sidecars += (sidecar,)
        self.access_data = self._access_data_instrumented

    def detach(self, sidecar) -> None:
        """Stop calling ``sidecar``; the last detach restores the plain
        ``access_data``."""
        if not any(attached is sidecar for attached in self.sidecars):
            raise ValueError("sidecar is not attached")
        self.sidecars = tuple(a for a in self.sidecars if a is not sidecar)
        if not self.sidecars:
            del self.access_data

    # ------------------------------------------------------------------
    # Reference streams
    # ------------------------------------------------------------------
    def access_data(
        self,
        lines: list[int],
        counts: list[int] | None = None,
        writes: int = 0,
    ) -> tuple[list[int], list[int]]:
        """Simulate a batch of data references; return the batch's L1D
        misses and the L2 misses they caused.

        Parameters
        ----------
        lines:
            L1D line numbers, run-length compressed (no consecutive
            duplicates required when ``counts`` is given).
        counts:
            Element-reference multiplicity per entry of ``lines``; when
            omitted each entry stands for one reference.
        writes:
            How many of the references are stores (only read/write
            bookkeeping; allocation policy treats loads and stores alike,
            as DineroIII's default demand-fetch policy does).
        """
        total = sum(counts) if counts is not None else len(lines)
        if writes > total:
            raise ValueError(f"writes={writes} exceeds total references {total}")
        self._data_reads += total - writes
        self._data_writes += writes
        l1_misses = self.l1d.process(lines, counts)
        if not l1_misses:
            return l1_misses, []
        shift = self._l2_shift
        if shift:
            l2_lines = [line >> shift for line in l1_misses]
        else:
            l2_lines = l1_misses
        mapper = self.l2_page_mapper
        if mapper is not None:
            bits = self.l2.config.line_bits
            l2_lines = [mapper.translate_line(line, bits) for line in l2_lines]
        return l1_misses, self.l2.process(l2_lines)

    #: The kernel itself.  The instrumented variant calls it through this
    #: name, so a wrapper later installed on ``access_data`` (a profiler
    #: or tracer patching the class) still sees each batch once.
    _kernel = access_data

    def _access_data_instrumented(
        self,
        lines: list[int],
        counts: list[int] | None = None,
        writes: int = 0,
    ) -> tuple[list[int], list[int]]:
        """:meth:`access_data`, then every sidecar's ``on_batch``.

        Installed as the instance's ``access_data`` while any sidecar is
        attached (see :meth:`attach`).  The cache work is the one kernel,
        so attaching a sidecar changes *observation*, never
        *simulation*."""
        l1_misses, l2_misses = self._kernel(lines, counts, writes)
        for sidecar in self.sidecars:
            sidecar.on_batch(self, lines, counts, writes, l1_misses, l2_misses)
        return l1_misses, l2_misses

    def fetch_instructions(self, count: int) -> None:
        """Record ``count`` instruction fetches (counted, not simulated)."""
        if count < 0:
            raise ValueError(f"instruction count must be non-negative, got {count}")
        self._inst_fetches += count

    def charge_code_footprint(self, size_bytes: int) -> None:
        """Charge the one-time compulsory I-side misses for loading
        ``size_bytes`` of code through L1I and the unified L2."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        self._l1i_compulsory += -(-size_bytes // self.l1i_config.line_size)
        # Code occupies L2 lines too, but the fill must not pass through the
        # simulated L2: inserting code lines into the fully-associative
        # classification shadow (and the first-touch history) would occupy
        # shadow capacity and skew early *data* misses between capacity and
        # conflict.  Charge the one-time compulsory misses as a hierarchy-
        # level count folded into :meth:`snapshot`, leaving the L2's
        # classification state to data lines only.
        self._l2_code_lines += -(-size_bytes // self.l2.config.line_size)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def l1i_compulsory(self) -> int:
        """Compulsory I-cache misses charged via code footprints."""
        return self._l1i_compulsory

    def snapshot(self) -> HierarchyStats:
        """Current cumulative statistics (copies; safe to keep)."""
        l1 = LevelStats()
        l1.merge(self.l1d.stats)
        l1.accesses += self._inst_fetches
        l1.misses += self._l1i_compulsory
        l1.compulsory += self._l1i_compulsory
        l2 = LevelStats()
        l2.merge(self.l2.stats)
        l2.accesses += self._l2_code_lines
        l2.misses += self._l2_code_lines
        l2.compulsory += self._l2_code_lines
        return HierarchyStats(
            inst_fetches=self._inst_fetches,
            data_reads=self._data_reads,
            data_writes=self._data_writes,
            l1=l1,
            l2=l2,
        )

    def flush(self) -> None:
        """Empty all caches, preserving statistics and touch history."""
        self.l1d.flush()
        self.l2.flush()

    def reset(self) -> None:
        """Empty all caches and zero every statistic."""
        self.l1d.reset()
        self.l2.reset()
        self._inst_fetches = 0
        self._data_reads = 0
        self._data_writes = 0
        self._l1i_compulsory = 0
        self._l2_code_lines = 0
