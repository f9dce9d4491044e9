"""The sidecar contract on :class:`CacheHierarchy`.

Profiling/verification/telemetry "off" must be structurally free: with
no sidecar attached, ``access_data`` is the uninstrumented class
method — no sidecar code exists on that path at all.  Attaching any
sidecar installs the instrumented per-instance variant, which runs the
same kernel and then each sidecar's ``on_batch`` in attach order;
detaching the last one restores the plain method.  A stream-equivalence
test pins the two bindings to identical statistics: attaching a sidecar
may change *observation*, never *simulation*.
"""

import random

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.machine import r8000, r10000
from repro.obs.profile import LocalityProfiler
from repro.obs.sampler import CacheSampler
from repro.obs.telemetry import Telemetry
from repro.trace.store import TraceCapture
from repro.verify.cache_oracle import CacheOracle


class RecordingSidecar:
    def __init__(self, log=None, name="sidecar"):
        self.log = log if log is not None else []
        self.name = name

    def on_batch(self, hierarchy, *batch):
        self.log.append((self.name, hierarchy, batch))

    def finish(self, hierarchy):
        pass


def random_stream(seed, batches=400, max_line=2048):
    rng = random.Random(seed)
    stream = []
    for _ in range(batches):
        n = rng.randrange(1, 24)
        lines = [rng.randrange(max_line) for _ in range(n)]
        if rng.random() < 0.5:
            counts = [rng.randrange(1, 5) for _ in range(n)]
        else:
            counts = None
        total = sum(counts) if counts is not None else n
        writes = rng.randrange(total + 1)
        stream.append((lines, counts, writes))
    return stream


class TestRebinding:
    def test_fresh_hierarchy_binds_the_plain_method(self):
        hierarchy = r8000().build_hierarchy()
        assert hierarchy.sidecars == ()
        assert "access_data" not in vars(hierarchy)
        assert hierarchy.access_data.__func__ is CacheHierarchy.access_data

    def test_attaching_any_sidecar_installs_the_instrumented_variant(self):
        for sidecar in (
            RecordingSidecar(),
            CacheOracle(),
            CacheSampler(Telemetry()),
            LocalityProfiler("p", "r8000"),
            TraceCapture(),
        ):
            hierarchy = r8000().build_hierarchy()
            hierarchy.attach(sidecar)
            assert "access_data" in vars(hierarchy), sidecar
            assert (
                hierarchy.access_data.__func__
                is CacheHierarchy._access_data_instrumented
            )

    def test_detaching_the_last_sidecar_restores_the_plain_method(self):
        hierarchy = r8000().build_hierarchy()
        first = RecordingSidecar()
        profiler = LocalityProfiler("p", "r8000")
        hierarchy.attach(first)
        hierarchy.attach(profiler)
        hierarchy.detach(first)
        assert hierarchy.sidecars == (profiler,)
        assert "access_data" in vars(hierarchy)  # profiler still on
        hierarchy.detach(profiler)
        assert hierarchy.sidecars == ()
        assert "access_data" not in vars(hierarchy)

    def test_sidecars_read_back_in_attach_order(self):
        hierarchy = r8000().build_hierarchy()
        first, second = RecordingSidecar(), RecordingSidecar()
        hierarchy.attach(first)
        hierarchy.attach(second)
        assert hierarchy.sidecars == (first, second)

    def test_double_attach_and_stray_detach_are_refused(self):
        hierarchy = r8000().build_hierarchy()
        sidecar = RecordingSidecar()
        with pytest.raises(ValueError, match="not attached"):
            hierarchy.detach(sidecar)
        hierarchy.attach(sidecar)
        with pytest.raises(ValueError, match="already attached"):
            hierarchy.attach(sidecar)
        assert hierarchy.sidecars == (sidecar,)


class TestOnBatch:
    def test_sidecars_run_in_attach_order_with_identical_arguments(self):
        hierarchy = r8000(64).build_hierarchy()
        log = []
        names = ("tap", "oracle", "sampler")
        for name in names:
            hierarchy.attach(RecordingSidecar(log, name))
        for lines, counts, writes in random_stream(seed=7, batches=50):
            returned = hierarchy.access_data(lines, counts, writes)
            calls, log[:] = log[:], []
            assert [name for name, _, _ in calls] == list(names)
            expected = (lines, counts, writes) + returned
            for _, seen_hierarchy, batch in calls:
                assert seen_hierarchy is hierarchy
                assert batch == expected
                # The very objects, not copies: one batch, one argument set.
                assert all(a is b for a, b in zip(batch, calls[0][2]))

    def test_plain_kernel_returns_the_misses_the_sidecars_see(self):
        machine = r8000(64)
        plain = machine.build_hierarchy()
        observed = machine.build_hierarchy()
        log = []
        observed.attach(RecordingSidecar(log))
        for lines, counts, writes in random_stream(seed=3, batches=100):
            returned = plain.access_data(lines, counts, writes)
            observed.access_data(lines, counts, writes)
            assert returned == log.pop()[2][3:]
        assert plain.snapshot() == observed.snapshot()


class TestVariantEquivalence:
    def replay(self, machine, sidecar):
        hierarchy = machine.build_hierarchy()
        if sidecar is not None:
            hierarchy.attach(sidecar)
        for lines, counts, writes in random_stream(seed=1234):
            hierarchy.access_data(lines, counts, writes=writes)
        return hierarchy

    def test_instrumented_variant_simulates_identically(self):
        for machine in (r8000(), r10000()):
            plain = self.replay(machine, None)
            instrumented = self.replay(machine, RecordingSidecar())
            assert "access_data" not in vars(plain)
            assert "access_data" in vars(instrumented)
            assert plain.snapshot() == instrumented.snapshot()

    def test_profiler_does_not_perturb_simulation(self):
        plain = self.replay(r8000(), None)
        profiler = LocalityProfiler("equiv", "r8000")
        hierarchy = self.replay(r8000(), profiler)
        assert plain.snapshot() == hierarchy.snapshot()
        # ... and the profiler's own totals agree with the hierarchy's.
        assert profiler._refs == hierarchy.snapshot().data_refs
        assert profiler._l1_misses == hierarchy.l1d.stats.misses
        assert profiler._l2_misses == hierarchy.l2.stats.misses
