"""Simulator.replay: guards, chunking, sidecars, the sampler, and
parity with Simulator.run."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.matmul import MatmulConfig, VERSIONS as MATMUL
from repro.apps.sor import SorConfig, VERSIONS as SOR
from repro.exp.base import r8000_scaled
from repro.machine.presets import r8000
from repro.machine.spec import MachineSpec
from repro.mem.paging import PageMapper
from repro.obs.profile import LocalityProfiler, ProfileCollector, collector_scope
from repro.obs.sampler import DEFAULT_INTERVAL, CacheSampler
from repro.obs.telemetry import Telemetry
from repro.sim import engine
from repro.sim.engine import REPLAY_CHUNK_LINES, Simulator, _chunk_batches
from repro.trace import replay as replay_module
from repro.trace.replay import fast_replay_supported
from repro.trace.store import TraceCapture, TraceStore, trace_key_for
from repro.verify.cache_oracle import CacheOracle


@pytest.fixture()
def stored_sor(tmp_path):
    machine = r8000(64)
    store = TraceStore(tmp_path / "traces")
    simulator = Simulator(machine, verify=False)
    capture = TraceCapture()
    config = SorConfig.quick()
    live = simulator.run(SOR["threaded"](config), capture=capture)
    key = trace_key_for(SOR["threaded"](config), config, machine, 4096)
    store.put(key, capture, live, machine, 4096)
    return machine, live, store.get(key)


class TestReplayGuards:
    def test_capture_excludes_page_mapper(self):
        machine = r8000(64)
        simulator = Simulator(machine, verify=False)
        mapper = PageMapper(page_size=4096)
        with pytest.raises(ValueError, match="page mapper"):
            simulator.run(
                SOR["threaded"](SorConfig.quick()),
                l2_page_mapper=mapper,
                capture=TraceCapture(),
            )

    def test_wrong_machine_rejected(self, stored_sor):
        _, _, stored = stored_sor
        other = Simulator(r8000(32), verify=False)
        with pytest.raises(ValueError, match="machine"):
            other.replay(stored)

    def test_wrong_line_bits_rejected(self, stored_sor):
        machine, _, stored = stored_sor
        stored.header["line_bits"] += 1
        with pytest.raises(ValueError, match="line_bits"):
            Simulator(machine, verify=False).replay(stored)

    def test_same_name_other_l1_geometry_rejected(self, tmp_path):
        # r8000(64, 64) and r8000(64) are both named "R8000/64"; only
        # their L1Ds differ (8 against 64 lines).
        captured_on, replayed_on = r8000(64, 64), r8000(64)
        assert captured_on.name == replayed_on.name
        store = TraceStore(tmp_path / "traces")
        config = MatmulConfig.quick()
        program = MATMUL["threaded"](config)
        capture = TraceCapture()
        live = Simulator(captured_on, verify=False).run(program, capture=capture)
        key = trace_key_for(program, config, captured_on, 4096)
        store.put(key, capture, live, captured_on, 4096)
        with pytest.raises(ValueError, match="l1d_lines"):
            Simulator(replayed_on, verify=False).replay(store.get(key))

    @pytest.mark.parametrize(
        "field", ["l1d_lines", "l1d_assoc", "l2_line_bits", "l2_lines", "l2_assoc"]
    )
    def test_every_geometry_field_is_checked(self, stored_sor, field):
        machine, _, stored = stored_sor
        stored.header[field] *= 2
        with pytest.raises(ValueError, match=field):
            Simulator(machine, verify=False).replay(stored)


@pytest.fixture()
def vectorized_steps(monkeypatch):
    """Records every vectorized step :func:`replay_stream` builds."""
    built = []
    real = replay_module.replay_stream

    def spy(hierarchy, stored):
        built.append(hierarchy)
        return real(hierarchy, stored)

    monkeypatch.setattr(replay_module, "replay_stream", spy)
    return built


def with_sidecar(monkeypatch, attach):
    """Make every hierarchy the replay builds carry ``attach``'s sidecar."""
    build = MachineSpec.build_hierarchy

    def built(self, *args):
        hierarchy = build(self, *args)
        attach(hierarchy)
        return hierarchy

    monkeypatch.setattr(MachineSpec, "build_hierarchy", built)


class RecordingProfiler:
    def __init__(self):
        self.batches = 0

    def on_batch(self, hierarchy, *args):
        self.batches += 1

    def finish(self, hierarchy):
        pass


class TestVerifiedReplay:
    def test_oracle_declines_fast_path_but_stats_agree(
        self, stored_sor, vectorized_steps
    ):
        # With verification on, the replay hierarchy carries a cache
        # oracle, so the chunked dict-kernel path runs under full oracle
        # cross-checking and the vectorized step is never built (without
        # the oracle this trace is vectorized, as the next class shows).
        machine, live, stored = stored_sor
        replayed = Simulator(machine, verify=True).replay(stored)
        assert vectorized_steps == []
        assert replayed.replay_path == "dict"
        assert replayed.verified
        assert replayed.stats == live.stats
        assert replayed.time == live.time
        assert replace(replayed.sched, seq=0) == replace(live.sched, seq=0)


class TestSidecarsKeepTheDictKernel:
    # Without sidecars this trace takes the vectorized step, so each
    # test below shows its sidecar is what turns it away.
    def test_bare_hierarchy_is_vectorized(self, stored_sor, vectorized_steps):
        machine, live, stored = stored_sor
        assert fast_replay_supported(machine.build_hierarchy(), stored)
        replayed = Simulator(machine, verify=False).replay(stored)
        assert replayed.replay_path == "vectorized"
        assert len(vectorized_steps) == 1
        assert replayed.stats == live.stats

    def test_profiler_declines_fast_path(
        self, stored_sor, vectorized_steps, monkeypatch
    ):
        machine, live, stored = stored_sor
        profiler = RecordingProfiler()
        with_sidecar(monkeypatch, lambda h: h.attach(profiler))
        replayed = Simulator(machine, verify=False).replay(stored)
        assert vectorized_steps == []
        assert replayed.replay_path == "dict"
        assert profiler.batches == len(_chunk_batches(stored.batch_ends))
        assert replayed.stats == live.stats

    def test_tap_declines_fast_path(self, stored_sor, vectorized_steps, monkeypatch):
        machine, live, stored = stored_sor
        capture = TraceCapture()
        with_sidecar(monkeypatch, lambda h: h.attach(capture))
        replayed = Simulator(machine, verify=False).replay(stored)
        assert vectorized_steps == []
        assert replayed.replay_path == "dict"
        # The tap sees the whole stream, a chunk per batch.
        assert np.array_equal(capture.arrays()["lines"], stored.lines)
        assert replayed.stats == live.stats


class TestSamplerParity:
    def test_sampler_series_match_dict_kernel(self, stored_sor, monkeypatch):
        # Small chunks put several interval samples before the tail one.
        machine, _, stored = stored_sor
        monkeypatch.setattr(engine, "REPLAY_CHUNK_LINES", 1024)
        hierarchy = machine.build_hierarchy()
        hierarchy.attach(CacheSampler(Telemetry()))
        assert fast_replay_supported(hierarchy, stored)

        def series(vectorized):
            obs = Telemetry()
            with monkeypatch.context() as patch:
                if not vectorized:
                    patch.setattr(
                        replay_module, "fast_replay_supported", lambda *_: False
                    )
                replayed = Simulator(machine, verify=False, telemetry=obs).replay(stored)
            assert replayed.replay_path == ("vectorized" if vectorized else "dict")
            return {
                name: [
                    {key: value for key, value in sample.items() if key != "t"}
                    for sample in obs.metrics.series(name).samples
                ]
                for name in ("cache.l1.classes", "cache.l2.classes")
            }

        fast, dict_kernel = series(True), series(False)
        assert fast == dict_kernel
        chunks = len(_chunk_batches(stored.batch_ends))
        assert chunks > DEFAULT_INTERVAL
        assert len(fast["cache.l1.classes"]) == chunks // DEFAULT_INTERVAL + 1


class TestRunReplayParity:
    """A live run and the replay of its capture share one setup and
    finish path: every sidecar finishes once per simulation, and the
    statistics agree."""

    SIDECARS = (CacheOracle, CacheSampler, LocalityProfiler, TraceCapture)

    def test_finish_once_per_sidecar_and_snapshots_equal(self, tmp_path, monkeypatch):
        finished = []
        for cls in self.SIDECARS:
            real = cls.finish

            def spy(self, hierarchy, real=real):
                finished.append(type(self).__name__)
                return real(self, hierarchy)

            monkeypatch.setattr(cls, "finish", spy)
        machine = r8000_scaled(quick=True)
        config = MatmulConfig.quick()
        program = MATMUL["threaded"](config)
        simulator = Simulator(machine, verify=True, telemetry=Telemetry())
        capture = TraceCapture()
        with collector_scope(ProfileCollector()) as collector:
            live = simulator.run(program, capture=capture)
        assert sorted(finished) == sorted(cls.__name__ for cls in self.SIDECARS)
        assert len(collector.profilers) == 1
        store = TraceStore(tmp_path / "traces")
        key = trace_key_for(program, config, machine, 4096)
        store.put(key, capture, live, machine, 4096)
        finished.clear()
        replayed = simulator.replay(store.get(key))
        assert sorted(finished) == ["CacheOracle", "CacheSampler"]
        assert replayed.verified and live.verified
        assert replayed.stats == live.stats
        assert replayed.time == live.time

    def test_run_and_replay_never_call_each_other(self, stored_sor, monkeypatch):
        # A benchmark that counts both entry points digests each call as
        # one simulation; a call through the other would count twice.
        machine, _, stored = stored_sor
        calls = []
        for name in ("run", "replay"):
            real = getattr(Simulator, name)

            def spy(self, *args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(self, *args, **kwargs)

            monkeypatch.setattr(Simulator, name, spy)
        simulator = Simulator(machine, verify=False)
        simulator.run(SOR["threaded"](SorConfig.quick()))
        assert calls == ["run"]
        simulator.replay(stored)
        assert calls == ["run", "replay"]


class TestChunkBatches:
    def test_chunks_cover_whole_stream(self):
        rng = np.random.default_rng(11)
        sizes = rng.integers(1, 2000, size=300, dtype=np.int64)
        ends = np.cumsum(sizes)
        cuts = _chunk_batches(ends)
        assert cuts == sorted(set(cuts))
        assert cuts[-1] == len(ends)
        # Every cut is a real batch boundary (index into ends).
        assert all(0 < c <= len(ends) for c in cuts)

    def test_chunks_respect_target_size(self):
        # Uniform batches of 100 lines: each chunk closes at the first
        # batch boundary at or past the next 64 Ki-line multiple, so the
        # i-th cut's end position crosses (i + 1) targets and overshoots
        # by less than one batch.
        ends = np.arange(100, 100 * 3001, 100, dtype=np.int64)
        cuts = _chunk_batches(ends)
        assert len(cuts) > 1
        for i, cut in enumerate(cuts[:-1]):
            target = (i + 1) * REPLAY_CHUNK_LINES
            assert target <= int(ends[cut - 1]) < target + 100

    def test_single_giant_batch_is_one_chunk(self):
        ends = np.array([10 * REPLAY_CHUNK_LINES], dtype=np.int64)
        assert _chunk_batches(ends) == [1]

    def test_empty_stream(self):
        assert _chunk_batches(np.array([], dtype=np.int64)) == []
