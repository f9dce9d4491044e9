"""Periodic cache-hierarchy sampling: miss classes as a time series.

The final ``SimResult`` only reports end-of-run totals; the paper's
analysis, by contrast, reasons about *when* misses happen (cold start vs
steady state, per-bin reuse).  A :class:`CacheSampler` attached to a
:class:`~repro.cache.hierarchy.CacheHierarchy` (``hierarchy.attach``)
snapshots the per-class miss deltas every ``interval`` access batches:

* into the metrics registry as the ``cache.l1.classes`` /
  ``cache.l2.classes`` series (the ``repro-trace`` miss-class timeline);
* onto the event bus as ``C`` counter samples, which Perfetto renders as
  counter tracks alongside the bin-sweep spans.

With no sidecar attached the hierarchy runs its uninstrumented
``access_data`` (see :class:`~repro.cache.hierarchy.CacheHierarchy`), so
the un-observed hot path pays nothing; an attached sampler costs one
modulo per batch.  It reads hierarchy statistics only, never the batch
itself (``stats_only``), so a vectorized trace replay keeps it and
calls it once per chunk.
"""

from __future__ import annotations

from typing import Any

from repro.obs.telemetry import Telemetry

DEFAULT_INTERVAL = 64


class CacheSampler:
    """Snapshots miss-class deltas every ``interval`` access batches."""

    __slots__ = ("obs", "interval", "program", "_batches", "_prev")

    #: Reads only cumulative hierarchy statistics, never the batch
    #: arguments or per-line cache state (see
    #: :func:`repro.trace.replay.fast_replay_supported`).
    stats_only = True

    def __init__(
        self,
        obs: Telemetry,
        program: str | None = None,
        interval: int = DEFAULT_INTERVAL,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.obs = obs
        self.interval = interval
        self.program = program
        self._batches = 0
        self._prev: dict[str, dict[str, int]] = {}

    def on_batch(self, hierarchy, lines, counts, writes, l1_misses, l2_misses) -> None:
        """Called by the hierarchy after every data access batch."""
        self._batches += 1
        if self._batches % self.interval:
            return
        self.sample(hierarchy)

    def finish(self, hierarchy) -> None:
        """Flush the tail interval at the end of the run."""
        self.sample(hierarchy)

    def sample(self, hierarchy) -> None:
        """Take one sample now (also called at end of run for the tail)."""
        t = self.obs.bus.now()
        for level_name, level in (
            ("l1", hierarchy.l1d.stats),
            ("l2", hierarchy.l2.stats),
        ):
            current = {
                "accesses": level.accesses,
                "misses": level.misses,
                "compulsory": level.compulsory,
                "capacity": level.capacity,
                "conflict": level.conflict,
            }
            previous = self._prev.get(level_name, {})
            delta: dict[str, Any] = {
                key: value - previous.get(key, 0)
                for key, value in current.items()
            }
            self._prev[level_name] = current
            if not any(delta.values()):
                continue
            delta["batch"] = self._batches
            if self.program:
                delta["program"] = self.program
            name = f"cache.{level_name}.classes"
            self.obs.metrics.series(name).append(t, delta)
            self.obs.bus.counter(
                name,
                {
                    key: delta[key]
                    for key in ("compulsory", "capacity", "conflict")
                },
            )
