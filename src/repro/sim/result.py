"""Simulation results, shaped like the paper's tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cache.hierarchy import HierarchyStats
from repro.core.stats import SchedulingStats
from repro.machine.timing import TimeBreakdown


@dataclass(frozen=True)
class SimResult:
    """Everything measured from simulating one program version.

    ``modeled_seconds`` corresponds to a performance-table cell (Tables
    2, 4, 6, 8); the reference/miss fields correspond to a column of a
    cache table (Tables 3, 5, 7, 9).
    """

    program: str
    machine: str
    stats: HierarchyStats
    app_instructions: int
    thread_instructions: int
    forks: int
    dispatches: int
    sched: SchedulingStats | None
    time: TimeBreakdown
    payload: Any = None
    #: Structured degradations recorded by guarded thread packages during
    #: the run (``repro.verify.guarded``): one manifest-ready dict per
    #: quarantined hint vector, captured proc exception, or budget stop.
    thread_faults: list = field(default_factory=list)
    #: Whether the runtime-verification oracles audited this run.
    verified: bool = False
    #: The L1D step a trace replay took (``"vectorized"`` or ``"dict"``);
    #: ``None`` for a live run.
    replay_path: str | None = None

    # -- performance-table view ----------------------------------------
    @property
    def modeled_seconds(self) -> float:
        return self.time.total

    # -- cache-table view (the paper reports thousands) ------------------
    @property
    def inst_fetches(self) -> int:
        """Total instruction fetches (application + thread package)."""
        return self.stats.inst_fetches

    @property
    def data_refs(self) -> int:
        return self.stats.data_refs

    @property
    def l1_misses(self) -> int:
        return self.stats.l1.misses

    @property
    def l1_miss_rate_pct(self) -> float:
        return 100.0 * self.stats.l1_miss_rate

    @property
    def l2_misses(self) -> int:
        return self.stats.l2.misses

    @property
    def l2_miss_rate_pct(self) -> float:
        return 100.0 * self.stats.l2_miss_rate

    @property
    def l2_compulsory(self) -> int:
        return self.stats.l2.compulsory

    @property
    def l2_capacity(self) -> int:
        return self.stats.l2.capacity

    @property
    def l2_conflict(self) -> int:
        return self.stats.l2.conflict

    def cache_table_column(self) -> dict[str, float]:
        """One column of a paper cache table (counts raw, rates percent)."""
        return {
            "I fetches": self.inst_fetches,
            "D references": self.data_refs,
            "L1 misses": self.l1_misses,
            "L1 rate %": round(self.l1_miss_rate_pct, 1),
            "L2 misses": self.l2_misses,
            "L2 rate %": round(self.l2_miss_rate_pct, 1),
            "L2 compulsory": self.l2_compulsory,
            "L2 capacity": self.l2_capacity,
            "L2 conflict": self.l2_conflict,
        }

    def summary(self) -> str:
        """One-line human summary."""
        parts = [
            f"{self.program} on {self.machine}:",
            f"{self.modeled_seconds:.2f}s modeled,",
            f"{self.data_refs:,} data refs,",
            f"L1 {self.l1_misses:,} / L2 {self.l2_misses:,} misses",
        ]
        if self.sched is not None and self.sched.threads:
            parts.append(f"({self.sched.describe()})")
        return " ".join(parts)
