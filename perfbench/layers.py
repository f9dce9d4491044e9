"""Probes around the public functions of each ``repro`` layer.

Everything here patches the program from outside, in the worker process
that runs one campaign; no file of the program is changed.  Two levels:

* always (``tracer=None``): cheap counting probes on calls made a few
  dozen times per campaign -- experiments, simulations, replays, trace
  store instances -- which feed the correctness digests and the store
  provenance guard;
* traced: a span around every layer boundary (see ``SPANS``), per-level
  cache counters, and the per-layer metrics derived from them.
"""

from __future__ import annotations

import functools
import os
from typing import Any

from spans import Tracer


def _sim_summary(result) -> dict[str, Any]:
    """The simulated statistics of one ``SimResult`` (no payload, no
    host timings), as digested by the correctness check."""
    stats = result.stats
    sched = result.sched
    return {
        "program": result.program,
        "machine": result.machine,
        "inst_fetches": stats.inst_fetches,
        "data_reads": stats.data_reads,
        "data_writes": stats.data_writes,
        "l1": stats.l1.as_dict(),
        "l2": stats.l2.as_dict(),
        "app_instructions": result.app_instructions,
        "thread_instructions": result.thread_instructions,
        "forks": result.forks,
        "dispatches": result.dispatches,
        "sched": None
        if sched is None
        else [sched.threads, sched.bins, list(sched.threads_per_bin)],
        "modeled_s": repr(result.time.total),
    }


class Probe:
    """What one campaign did, as seen at the layer boundaries."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.experiments: dict[str, dict[str, Any]] = {}
        self.current: dict[str, Any] | None = None
        self.stores: list = []
        self.replays = 0
        self.fast_replays = 0
        self.sim_refs = 0

    def store_counts(self) -> tuple[int, int, int]:
        return (
            sum(store.hits for store in self.stores),
            sum(store.misses for store in self.stores),
            sum(store.stores for store in self.stores),
        )

    # ------------------------------------------------------------------
    def experiment(self, experiment_id: str, run):
        """Wrap one registry entry: per-experiment simulations and store
        traffic, in an ``exp`` span when tracing."""

        @functools.wraps(run)
        def probed(*args, **kwargs):
            record = {"sims": [], "hits": 0, "misses": 0, "puts": 0}
            self.experiments[experiment_id] = self.current = record
            before = self.store_counts()
            try:
                return run(*args, **kwargs)
            finally:
                after = self.store_counts()
                record["hits"], record["misses"], record["puts"] = (
                    a - b for a, b in zip(after, before)
                )

        return self.tracer.wrap("exp", probed) if self.tracer else probed

    def simulated(self, result) -> None:
        if self.current is not None:
            self.current["sims"].append(_sim_summary(result))
        self.sim_refs += result.stats.inst_fetches + result.stats.data_refs


def _patch(owner, name: str, wrapper) -> None:
    setattr(owner, name, wrapper(getattr(owner, name)))


def install(probe: Probe) -> None:
    """Patch the ``repro`` layers in this process for ``probe``."""
    from repro.exp import registry
    from repro.sim.engine import Simulator
    from repro.trace import replay, store

    for experiment_id, run in list(registry.EXPERIMENTS.items()):
        registry.EXPERIMENTS[experiment_id] = probe.experiment(experiment_id, run)

    def collect_store(init):
        @functools.wraps(init)
        def collecting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            probe.stores.append(self)

        return collecting

    _patch(store.TraceStore, "__init__", collect_store)

    tracer = probe.tracer

    def live(run):
        @functools.wraps(run)
        def simulate(self, program, *args, **kwargs):
            if tracer is not None:
                program = tracer.wrap("program", program)
            result = run(self, program, *args, **kwargs)
            probe.simulated(result)
            return result

        return tracer.wrap("sim.run", simulate) if tracer else simulate

    def replayed(replay_trace):
        @functools.wraps(replay_trace)
        def simulate(self, stored, *args, **kwargs):
            probe.replays += 1
            result = replay_trace(self, stored, *args, **kwargs)
            probe.simulated(result)
            return result

        return tracer.wrap("sim.replay", simulate) if tracer else simulate

    _patch(Simulator, "run", live)
    _patch(Simulator, "replay", replayed)

    def fast_replay(replay_stream):
        @functools.wraps(replay_stream)
        def counted(*args, **kwargs):
            probe.fast_replays += 1
            return replay_stream(*args, **kwargs)

        return tracer.wrap("replay.fast", counted) if tracer else counted

    _patch(replay, "replay_stream", fast_replay)

    if tracer is not None:
        _install_spans(tracer)


#: Traced layer boundaries: (module, owner attribute or None, function
#: names, layer).  The workloads use only the base ``ThreadPackage``;
#: its subclasses' overrides (dependences, blocking, SMP) are not timed.
SPANS = (
    ("repro.core.package", "ThreadPackage", ("th_fork",), "core.fork"),
    ("repro.core.package", "ThreadPackage", ("th_run",), "core.run"),
    (
        "repro.trace.recorder",
        "TraceRecorder",
        ("record", "record_interleaved", "record_grid", "record_lines"),
        "recorder",
    ),
    ("repro.obs.sampler", "CacheSampler", ("on_batch", "sample"), "sidecar.sampler"),
    ("repro.trace.store", "TraceCapture", ("on_access",), "sidecar.tap"),
    ("repro.trace.store", "TraceStore", ("get",), "store.get"),
    ("repro.trace.store", None, ("shadow_hit_bits",), "store.shadow_bits"),
)


def _install_spans(tracer: Tracer) -> None:
    import importlib

    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.thread import ThreadSpec
    from repro.trace import store

    for module_name, owner_name, names, layer in SPANS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        for name in names:
            _patch(owner, name, functools.partial(tracer.wrap, layer))

    # A thread body is program code that core hands control to; counting
    # its dispatches gives core.run a per-thread cost.
    def thread_body(run):
        spanned = tracer.wrap("program", run)

        @functools.wraps(run)
        def dispatched(self):
            tracer.counts["core.dispatches"] += 1
            return spanned(self)

        return dispatched

    _patch(ThreadSpec, "run", thread_body)

    def trace_put(put):
        @functools.wraps(put)
        def counted(self, *args, **kwargs):
            stored_before = self.stores
            digest = put(self, *args, **kwargs)
            if self.stores > stored_before:
                tracer.counts["store.put_bytes"] += os.path.getsize(
                    self.object_path(digest)
                )
            return digest

        return tracer.wrap("store.put", counted)

    _patch(store.TraceStore, "put", trace_put)
    _patch(store, "write_trace", functools.partial(tracer.wrap, "store.write"))

    # With any sidecar attached (telemetry is on by default, so the
    # sampler always is) the hierarchy rebinds access_data to its
    # instrumented twin; both are the same layer boundary.
    def data_batch(access):
        spanned = tracer.wrap("hierarchy", access)

        @functools.wraps(access)
        def batch(self, lines, *args, **kwargs):
            refs_before = self._data_reads + self._data_writes
            from_recorder = tracer.current == "recorder"
            spanned(self, lines, *args, **kwargs)
            tracer.counts["hierarchy.entries"] += len(lines)
            if from_recorder:
                tracer.counts["recorder.entries"] += len(lines)
                tracer.counts["recorder.refs"] += (
                    self._data_reads + self._data_writes - refs_before
                )

        return batch

    _patch(CacheHierarchy, "access_data", data_batch)
    _patch(CacheHierarchy, "_access_data_instrumented", data_batch)

    # L1 and L2 run the same ClassifyingCache.process; each hierarchy's
    # two instances get their own span, so the levels are told apart by
    # which cache object is called, not by what it is called with.
    def level(cache, layer: str):
        spanned = tracer.wrap(layer, cache.process)
        counts = tracer.counts

        def process(lines, counts_arg=None):
            stats = cache.stats
            accesses, misses = stats.accesses, stats.misses
            result = spanned(lines, counts_arg)
            stats = cache.stats
            counts[layer + ".entries"] += len(lines)
            counts[layer + ".accesses"] += stats.accesses - accesses
            counts[layer + ".misses"] += stats.misses - misses
            return result

        cache.process = process

    def levels(init):
        @functools.wraps(init)
        def built(self, *args, **kwargs):
            init(self, *args, **kwargs)
            level(self.l1d, "cache.l1")
            level(self.l2, "cache.l2")

        return built

    _patch(CacheHierarchy, "__init__", levels)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(probe: Probe) -> dict[str, float]:
    """The per-layer metrics of one traced campaign."""
    tracer = probe.tracer
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s
    metrics: dict[str, float] = {}
    for level in ("cache.l1", "cache.l2"):
        entries = counts[level + ".entries"]
        metrics[level + ".entries"] = entries
        metrics[level + ".self_s"] = self_s(level)
        metrics[level + ".ns_per_entry"] = _ratio(tracer.self_ns[level], entries)
        metrics[level + ".miss_ratio"] = _ratio(
            counts[level + ".misses"], counts[level + ".accesses"]
        )
    metrics["recorder.calls"] = calls["recorder"]
    metrics["recorder.self_s"] = self_s("recorder")
    metrics["recorder.entries"] = counts["recorder.entries"]
    metrics["recorder.refs_per_entry"] = _ratio(
        counts["recorder.refs"], counts["recorder.entries"]
    )
    metrics["hierarchy.batches"] = calls["hierarchy"]
    metrics["hierarchy.self_s"] = self_s("hierarchy")
    metrics["hierarchy.entries_per_batch"] = _ratio(
        counts["hierarchy.entries"], calls["hierarchy"]
    )
    metrics["program.self_s"] = self_s("program")
    metrics["core.fork.calls"] = calls["core.fork"]
    metrics["core.fork.self_s"] = self_s("core.fork")
    metrics["core.fork.ns_per_thread"] = _ratio(
        tracer.self_ns["core.fork"], calls["core.fork"]
    )
    metrics["core.run.calls"] = calls["core.run"]
    metrics["core.run.self_s"] = self_s("core.run")
    metrics["core.run.ns_per_thread"] = _ratio(
        tracer.self_ns["core.run"], counts["core.dispatches"]
    )
    metrics["sidecar.sampler.self_s"] = self_s("sidecar.sampler")
    metrics["sidecar.tap.self_s"] = self_s("sidecar.tap")
    metrics["replay.fast.calls"] = calls["replay.fast"]
    metrics["replay.fast.self_s"] = self_s("replay.fast")
    metrics["replay.fast_frac"] = _ratio(probe.fast_replays, probe.replays)
    hits, misses, puts = probe.store_counts()
    metrics["store.get.calls"] = calls["store.get"]
    metrics["store.hits"] = hits
    metrics["store.misses"] = misses
    metrics["store.puts"] = puts
    metrics["store.get.self_s"] = self_s("store.get")
    metrics["store.put.self_s"] = self_s("store.put")
    metrics["store.shadow_bits.self_s"] = self_s("store.shadow_bits")
    metrics["store.write.self_s"] = self_s("store.write")
    metrics["store.put_mb"] = counts["store.put_bytes"] / 1e6
    metrics["sim.refs"] = probe.sim_refs
    metrics["sim.run.self_s"] = self_s("sim.run")
    metrics["sim.replay.self_s"] = self_s("sim.replay")
    metrics["exp.self_s"] = self_s("exp")
    metrics["campaign.self_s"] = self_s("campaign")
    return metrics
