"""Simulator integration: spans/metrics under telemetry, no-op when off."""

from repro.machine import r8000
from repro.obs import (
    DISABLED,
    NULL_BUS,
    Telemetry,
    current_telemetry,
    resolve_telemetry,
    telemetry_scope,
)
from repro.sim.engine import Simulator


def matmul_like(ctx):
    package = ctx.make_thread_package()
    a = ctx.allocate_array("a", (64, 64))
    b = ctx.allocate_array("b", (64, 64))

    def body(i, j):
        pass

    for i in range(8):
        for j in range(8):
            package.th_fork(body, i, j, a.base + i * 512, b.base + j * 512)
    package.th_run()


class TestEnabledRun:
    def test_phase_spans_are_emitted_and_balanced(self):
        obs = Telemetry()
        Simulator(r8000(), telemetry=obs).run(matmul_like)
        names = {e["name"] for e in obs.bus.events if e["ph"] == "B"}
        assert {
            "sim.run",
            "sim.setup",
            "sim.program",
            "sched.fork_batch",
            "sched.run",
            "sched.bin",
        } <= names
        assert obs.bus.open_spans == 0

    def test_scheduler_metrics_populated(self):
        obs = Telemetry()
        Simulator(r8000(), telemetry=obs).run(matmul_like)
        metrics = obs.metrics
        assert metrics.counter("sched.forks").value == 64
        assert metrics.counter("sched.dispatches").value == 64
        assert metrics.counter("sim.runs").value == 1
        occupancy = metrics.histogram("sched.bin_occupancy")
        assert occupancy.total == 64  # every thread in some bin
        assert sum(occupancy.buckets) == occupancy.count

    def test_cache_sampler_streams_miss_classes(self):
        obs = Telemetry()
        Simulator(r8000(), telemetry=obs).run(matmul_like)
        series = obs.metrics.series_["cache.l1.classes"]
        assert len(series) > 0
        sample = series.samples[-1]
        assert {"compulsory", "capacity", "conflict"} <= set(sample)
        # Deltas accumulate to the hierarchy totals (all-interval sum).
        assert sum(s["compulsory"] for s in series.samples) > 0

    def test_verify_oracles_report_audits(self):
        obs = Telemetry()
        Simulator(r8000(), telemetry=obs).run(matmul_like, verify=True)
        assert obs.metrics.counter("verify.cache_audits").value > 0
        assert obs.metrics.counter("verify.sched_runs").value == 1

    def test_exception_unwinds_only_this_runs_spans(self):
        obs = Telemetry()
        obs.bus.begin("exp.enclosing")

        def crashes(ctx):
            raise RuntimeError("boom")

        try:
            Simulator(r8000(), telemetry=obs).run(crashes)
        except Exception:
            pass
        assert obs.bus.depth() == 1  # exp.enclosing untouched
        ended = [e["name"] for e in obs.bus.events if e["ph"] == "E"]
        assert "sim.run" in ended


class TestDisabledRun:
    def test_disabled_is_a_true_no_op(self):
        result = Simulator(r8000()).run(matmul_like)
        assert result is not None
        assert NULL_BUS.events == []
        assert DISABLED.metrics.as_dict()["counters"] == {}

    def test_no_observer_attached_when_disabled(self):
        machine = r8000()
        simulator = Simulator(machine)
        simulator.run(matmul_like)
        hierarchy = machine.build_hierarchy()
        assert hierarchy.sidecars == ()


class TestResolution:
    def test_run_param_wins_over_simulator(self):
        run_level = Telemetry()
        sim_level = Telemetry()
        assert resolve_telemetry(run_level, sim_level) is run_level

    def test_simulator_level_wins_over_process(self):
        sim_level = Telemetry()
        assert resolve_telemetry(None, sim_level) is sim_level

    def test_process_scope_is_the_fallback(self):
        scoped = Telemetry()
        with telemetry_scope(scoped):
            assert current_telemetry() is scoped
            assert resolve_telemetry(None, None) is scoped
        assert current_telemetry() is DISABLED
