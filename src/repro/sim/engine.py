"""The simulator: fresh state per run, crude-analysis timing at the end."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.machine.spec import MachineSpec
from repro.machine.timing import TimingInputs, TimingModel
from repro.mem.allocator import AddressSpace
from repro.obs.config import resolve_telemetry
from repro.obs.profile import current_collector
from repro.obs.telemetry import Telemetry
from repro.resilience.errors import ReproError, SimulationError
from repro.resilience.faults import fault_point
from repro.sim.context import SimContext
from repro.sim.result import SimResult
from repro.trace.recorder import TraceRecorder
from repro.verify.config import resolve_verify

TracedProgram = Callable[[SimContext], Any]

#: Replay chunk size: stored batches are coalesced until at least this
#: many run-length entries accumulate, then fed as one kernel batch.
REPLAY_CHUNK_LINES = 1 << 16

#: :class:`SimResult` fields a replay takes from the stored header.
_STORED_RESULT_FIELDS = ("app_instructions", "thread_instructions", "forks", "dispatches")


def _chunk_batches(ends) -> list[int]:
    """Batch-index cut points whose chunks hold >= REPLAY_CHUNK_LINES
    entries each (except the last).  Returned values are exclusive batch
    indices; ``ends[cut - 1]`` is the chunk's end position."""
    total_batches = len(ends)
    if total_batches == 0:
        return []
    total_lines = int(ends[-1])
    targets = np.arange(
        REPLAY_CHUNK_LINES,
        total_lines + REPLAY_CHUNK_LINES,
        REPLAY_CHUNK_LINES,
        dtype=np.int64,
    )
    cuts = np.unique(np.searchsorted(ends, targets, side="left") + 1)
    cuts = cuts[cuts <= total_batches].tolist()
    if not cuts or cuts[-1] != total_batches:
        cuts.append(total_batches)
    return cuts


class Simulator:
    """Runs traced programs on one machine model.

    Each :meth:`run` (fed by the program) and :meth:`replay` (fed by a
    stored trace) gets a fresh cache hierarchy, so results are
    independent and deterministic.

    ``verify`` arms the runtime-verification oracles (see
    ``repro.verify``): a :class:`~repro.verify.cache_oracle.CacheOracle`
    audits the hierarchy after every access batch, and every thread
    package the program creates gets a
    :class:`~repro.verify.scheduler_oracle.SchedulerOracle`.  ``None``
    (the default) defers to the process-wide switch
    (``repro.verify.config``), which is off — benchmarks pay nothing.

    ``telemetry`` attaches an observability handle (see ``repro.obs``):
    the run emits structured spans for its phases, a cache sampler
    streams per-interval miss-class series, and the scheduler populates
    the metrics registry.  ``None`` defers to the process-wide handle
    (``repro.obs.config``), which is the disabled singleton — the same
    zero-cost contract as verification.
    """

    def __init__(
        self,
        machine: MachineSpec,
        verify: bool | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.machine = machine
        self.timing = TimingModel(machine)
        self.verify = verify
        self.telemetry = telemetry

    def run(
        self,
        program: TracedProgram,
        name: str | None = None,
        code_footprint: int = 4096,
        l2_page_mapper=None,
        verify: bool | None = None,
        telemetry: Telemetry | None = None,
        capture=None,
    ) -> SimResult:
        """Simulate ``program`` and return its result.

        ``code_footprint`` is the bytes of kernel code charged as one-time
        compulsory instruction-side misses (Section 4's simulations
        "exclude program initialization costs" but include the resident
        loop code; 4 KB covers every kernel in the paper).
        ``l2_page_mapper`` optionally models a physically-indexed L2
        behind a virtual-to-physical page table (repro.mem.paging).
        ``verify`` overrides the simulator-level and process-wide
        verification switches for this one run; ``telemetry`` does the
        same for the observability handle.  ``capture`` optionally
        attaches a :class:`repro.trace.store.TraceCapture` tap recording
        every data batch for the content-addressed trace store (mutually
        exclusive with ``l2_page_mapper``: replay rebuilds the hierarchy
        without a page table, so a mapped run must not be stored).
        """
        program_name = name or getattr(program, "__name__", "program")
        if capture is not None and l2_page_mapper is not None:
            raise ValueError(
                "trace capture does not support an L2 page mapper"
            )
        # Stagger allocations by a few L2 lines so equal-sized arrays do
        # not alias the same sets exactly (a scaled-cache artifact; real
        # allocators and page placement provide the same spreading).
        space = AddressSpace(stagger=3 * self.machine.l2.line_size)

        def feed(hierarchy, verify_run, obs) -> dict[str, Any]:
            profiler = None
            collector = current_collector()
            if collector is not None:
                from repro.obs.profile import LocalityProfiler

                profiler = LocalityProfiler(program_name, self.machine.name, space, obs)
                hierarchy.attach(profiler)
            recorder = TraceRecorder(hierarchy)
            context = SimContext(
                machine=self.machine,
                hierarchy=hierarchy,
                recorder=recorder,
                space=space,
                verify=verify_run,
                obs=obs,
                profiler=profiler,
            )
            if obs.enabled:
                obs.bus.begin("sim.program")
            try:
                payload = program(context)
            except ReproError:
                raise  # already structured (e.g. an armed fault at an inner site)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                raise SimulationError(
                    f"{type(exc).__name__}: {exc}",
                    machine=self.machine.name,
                    program=program_name,
                ) from exc
            finally:
                if obs.enabled:
                    obs.bus.end()  # sim.program
            thread_faults: list = []
            for package in context.packages:
                report = getattr(package, "fault_report", None)
                if report is not None:
                    thread_faults.extend(report())
            # The paper quotes per-run distributions ("64000 threads ... in
            # 46 bins" for a typical iteration); report the chronologically
            # last th_run's stats.  Runs are stamped with a process-wide
            # dispatch sequence, so a program that creates package B but
            # runs package A last reports A's distribution, not B's.
            sched = max(
                (stats for package in context.packages for stats in package.run_history),
                key=lambda stats: stats.seq,
                default=None,
            )
            if profiler is not None:
                collector.add(profiler)
            return dict(
                app_instructions=recorder.app_instructions,
                thread_instructions=recorder.thread_instructions,
                forks=context.total_forks,
                dispatches=context.total_dispatches,
                sched=sched,
                payload=payload,
                thread_faults=thread_faults,
            )

        return self._simulate(
            program_name, feed, verify, telemetry, code_footprint,
            live=True, l2_page_mapper=l2_page_mapper, capture=capture,
        )

    def replay(
        self,
        stored,
        verify: bool | None = None,
        telemetry: Telemetry | None = None,
    ) -> SimResult:
        """Replay a stored trace (:class:`repro.trace.store.StoredTrace`)
        instead of re-running the traced program.

        The stored stream is the *complete* record of the run's data
        side — every ``access_data`` batch verbatim, boundaries included
        — so feeding it back through a fresh hierarchy reproduces the
        cache statistics bit for bit.  Instruction fetches only bump
        order-independent counters, so the stored totals are charged in
        one call; forks, dispatches and the final scheduling
        distribution come from the header, which is everything the
        timing model and :class:`SimResult` need.  ``payload`` is
        ``None``: replay reproduces *statistics*, not the program's
        numeric output.  The stored machine name and cache geometry must
        match this machine's.  Each chunk of the stream is one batch
        step: the vectorized direct-mapped L1D step of
        :func:`repro.trace.replay.replay_stream` where
        :func:`~repro.trace.replay.fast_replay_supported` allows it,
        ``access_data`` (the dict kernel) otherwise; the result's
        ``replay_path`` names which.
        """
        from repro.trace.store import cache_geometry

        header = stored.header
        expected = {"machine": self.machine.name, **cache_geometry(self.machine)}
        for field, value in expected.items():
            if header.get(field) != value:
                raise ValueError(
                    f"stored trace has {field}={header.get(field)!r}, "
                    f"this machine has {value!r}"
                )

        def feed(hierarchy, verify_run, obs) -> dict[str, Any]:
            from repro.trace.replay import fast_replay_supported, replay_stream

            lines, counts = stored.lines, stored.counts
            ends, writes = stored.batch_ends, stored.batch_writes
            if fast_replay_supported(hierarchy, stored):
                replay_path, step = "vectorized", replay_stream(hierarchy, stored)
            else:
                access, replay_path = hierarchy.access_data, "dict"

                def step(start: int, end: int, chunk_writes: int) -> None:
                    access(lines[start:end].tolist(), counts[start:end].tolist(), chunk_writes)

            # Merging adjacent batches preserves every statistic — the
            # expanded reference sequence is unchanged, and the kernels,
            # L2 forwarding, and read/write bookkeeping depend only on
            # that sequence — so replay coalesces the (often tiny)
            # recorded batches into large contiguous chunks, one batch
            # step and one sidecar call each.  The memory-mapped file is
            # read zero-copy through the page cache, a chunk at a time.
            start = prev = 0
            for cut in _chunk_batches(ends):
                end = int(ends[cut - 1])
                step(start, end, int(writes[prev:cut].sum(dtype=np.int64)))
                start, prev = end, cut
            hierarchy.fetch_instructions(
                header["app_instructions"] + header["thread_instructions"]
            )
            return dict(
                {name: header[name] for name in _STORED_RESULT_FIELDS},
                sched=stored.sched_stats(),
                replay_path=replay_path,
            )

        return self._simulate(
            stored.program, feed, verify, telemetry, header["code_footprint"], live=False
        )

    def _simulate(
        self,
        program_name: str,
        feed: Callable[..., dict[str, Any]],
        verify: bool | None,
        telemetry: Telemetry | None,
        code_footprint: int,
        *,
        live: bool,
        l2_page_mapper=None,
        capture=None,
    ) -> SimResult:
        """The one simulation path under :meth:`run` (``live``) and
        :meth:`replay`.

        Resolves verification and telemetry, builds a fresh hierarchy with
        its sidecars (the ``capture`` tap, then the cache oracle and the
        telemetry sampler when those are on), charges the code footprint,
        and lets ``feed(hierarchy, verify, obs)`` stream the data side
        into it; ``feed`` returns the :class:`SimResult` fields the
        hierarchy cannot supply.  Every sidecar then finishes, once, and
        the statistics become the result.  A live run's telemetry also
        has a ``sim.setup`` span and fork/dispatch counters.
        """
        machine = self.machine.name
        verify_run = resolve_verify(verify, self.verify)
        obs = resolve_telemetry(telemetry, self.telemetry)
        fault_point("sim.run", machine=machine, program=program_name)
        bus = obs.bus
        base_depth = bus.depth()
        phases = obs.enabled and live
        if obs.enabled:
            bus.begin("sim.run" if live else "sim.replay", machine=machine, program=program_name)
        if phases:
            bus.begin("sim.setup")
        try:
            hierarchy = self.machine.build_hierarchy(l2_page_mapper)
            if capture is not None:
                hierarchy.attach(capture)
            if verify_run:
                from repro.verify.cache_oracle import CacheOracle

                oracle = CacheOracle(machine=machine, program=program_name)
                oracle.obs = obs
                hierarchy.attach(oracle)
            if obs.enabled:
                from repro.obs.sampler import CacheSampler

                hierarchy.attach(CacheSampler(obs, program=program_name))
            if code_footprint:
                hierarchy.charge_code_footprint(code_footprint)
            if phases:
                bus.end()  # sim.setup
            fields = feed(hierarchy, verify_run, obs)
            for sidecar in hierarchy.sidecars:
                sidecar.finish(hierarchy)
            stats = hierarchy.snapshot()
            time = self.timing.estimate(
                TimingInputs(
                    instructions=fields["app_instructions"],
                    l1_misses=stats.l1.misses,
                    l2_misses=stats.l2.misses,
                    forks=fields["forks"],
                    thread_runs=fields["dispatches"],
                )
            )
        finally:
            # Close the run's spans (and sim.setup, if setup raised)
            # without touching any enclosing scope's spans.
            bus.unwind(base_depth)
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("sim.runs" if live else "sim.replays").inc()
            if live:
                metrics.counter("sim.forks").inc(fields["forks"])
                metrics.counter("sim.dispatches").inc(fields["dispatches"])
            metrics.histogram("sim.modeled_seconds").observe(time.total)
        return SimResult(
            program=program_name,
            machine=machine,
            stats=stats,
            time=time,
            verified=verify_run,
            **fields,
        )
