"""The content-addressed trace store: format, keys, and replay fidelity.

The core contract — replaying a stored stream reproduces the live
simulation's statistics *exactly* — is pinned on all four paper
applications, on both a direct-mapped-L1 machine (the vectorized replay
kernel) and a 2-way machine (the chunked dict-kernel fallback).  The
comparisons ignore ``sched.seq`` (a process-wide dispatch ordinal that
is never serialized into manifests or tables) and ``payload`` (replay
reproduces statistics, not program output).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.matmul import MatmulConfig, VERSIONS as MATMUL
from repro.apps.nbody import NbodyConfig, VERSIONS as NBODY
from repro.apps.pde import PdeConfig, VERSIONS as PDE
from repro.apps.sor import SorConfig, VERSIONS as SOR
from repro.machine.presets import r8000, r10000
from repro.resilience.errors import CheckpointError
from repro.sim.engine import Simulator, _chunk_batches
from repro.trace import store as store_module
from repro.trace.store import (
    TraceCapture,
    TraceStore,
    code_hash,
    current_trace_store,
    dedup_mask,
    import_closure,
    load_trace,
    open_trace_store,
    shadow_hit_bits,
    trace_key_for,
    trace_store_scope,
    verify_object,
)

APPS = [
    ("matmul", MATMUL["threaded"], MatmulConfig.quick()),
    ("pde", PDE["threaded"], PdeConfig.quick()),
    ("sor", SOR["threaded"], SorConfig.quick()),
    ("nbody", NBODY["threaded"], NbodyConfig.quick()),
]


def assert_same_run(live, replayed):
    assert replayed.stats == live.stats
    assert replayed.time == live.time
    assert replayed.program == live.program
    assert replayed.machine == live.machine
    assert replayed.app_instructions == live.app_instructions
    assert replayed.thread_instructions == live.thread_instructions
    assert replayed.forks == live.forks
    assert replayed.dispatches == live.dispatches
    if live.sched is None:
        assert replayed.sched is None
    else:
        # seq is a process-wide dispatch ordinal; everything else in the
        # scheduling distribution must survive the round trip.
        assert replace(replayed.sched, seq=0) == replace(live.sched, seq=0)


def store_and_replay(tmp_path, factory, config, machine):
    store = TraceStore(tmp_path / "traces")
    simulator = Simulator(machine, verify=False)
    capture = TraceCapture()
    live = simulator.run(factory(config), capture=capture)
    key = trace_key_for(factory(config), config, machine, 4096)
    digest = store.put(key, capture, live, machine, 4096)
    assert digest == key.digest
    stored = store.get(key)
    assert stored is not None
    return live, simulator.replay(stored), store, key


class TestRoundTrip:
    @pytest.mark.parametrize(
        "app,factory,config", APPS, ids=[a[0] for a in APPS]
    )
    def test_replay_matches_live_direct_mapped(self, tmp_path, app, factory, config):
        # r8000's L1D is direct-mapped: the vectorized replay kernel.
        live, replayed, _, key = store_and_replay(
            tmp_path, factory, config, r8000(64)
        )
        assert key.app == app
        assert_same_run(live, replayed)

    def test_replay_matches_live_two_way(self, tmp_path):
        # r10000's 2-way L1D declines the vectorized kernel; the chunked
        # dict-kernel fallback must be just as exact.
        live, replayed, _, _ = store_and_replay(
            tmp_path, MATMUL["threaded"], MatmulConfig.quick(), r10000(64)
        )
        assert_same_run(live, replayed)

    def test_second_lookup_hits(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        assert (store.hits, store.stores) == (1, 1)
        assert store.get(key) is not None
        assert store.hits == 2

    def test_put_is_idempotent(self, tmp_path):
        machine = r8000(64)
        store = TraceStore(tmp_path / "traces")
        simulator = Simulator(machine, verify=False)
        capture = TraceCapture()
        config = SorConfig.quick()
        live = simulator.run(SOR["threaded"](config), capture=capture)
        key = trace_key_for(SOR["threaded"](config), config, machine, 4096)
        assert store.put(key, capture, live, machine, 4096) == key.digest
        assert store.put(key, capture, live, machine, 4096) == key.digest
        assert store.stores == 1
        assert len(store.object_paths()) == 1


class TestContentAddress:
    def test_key_changes_with_config(self):
        machine = r8000(64)
        program = MATMUL["threaded"](MatmulConfig.quick())
        small = trace_key_for(program, MatmulConfig.quick(), machine, 4096)
        big = trace_key_for(
            program, replace(MatmulConfig.quick(), n=160), machine, 4096
        )
        assert small.digest != big.digest

    def test_key_changes_with_machine(self):
        program = MATMUL["threaded"](MatmulConfig.quick())
        config = MatmulConfig.quick()
        a = trace_key_for(program, config, r8000(64), 4096)
        b = trace_key_for(program, config, r8000(32), 4096)
        assert a.digest != b.digest

    def test_key_separates_versions(self):
        machine = r8000(64)
        config = MatmulConfig.quick()
        keys = {
            trace_key_for(factory(config), config, machine, 4096).digest
            for factory in MATMUL.values()
        }
        assert len(keys) == len(MATMUL)

    def test_key_names_app_and_version(self):
        key = trace_key_for(
            MATMUL["threaded"](MatmulConfig.quick()),
            MatmulConfig.quick(),
            r8000(64),
            4096,
        )
        assert key.app == "matmul"
        assert key.version == "matmul_threaded"


class TestCodeHash:
    """The code hash covers the program's whole import closure: editing
    any module in it changes every key built from that program."""

    @pytest.mark.parametrize("app", [app for app, _, _ in APPS])
    def test_editing_any_module_in_the_closure_changes_the_key(self, app, monkeypatch):
        module = f"repro.apps.{app}.programs"
        closure = import_closure(module)
        base = code_hash(module)
        source = store_module._module_source
        for name in closure:

            def edited(module_name, name=name):
                digest, imports = source(module_name)
                return ("edited" if module_name == name else digest), imports

            with monkeypatch.context() as patch:
                patch.setattr(store_module, "_module_source", edited)
                assert code_hash(module) != base, name
        assert code_hash(module) == base

    def test_closure_reaches_modules_that_shape_the_stream(self):
        # The allocation stagger (sim.engine), the program context, and
        # modules the programs reach only through other app modules.
        for app, reached in (
            ("sor", "repro.apps.sor.kernels"),
            ("nbody", "repro.apps.nbody.tree"),
        ):
            closure = import_closure(f"repro.apps.{app}.programs")
            for name in (
                f"repro.apps.{app}.programs",
                reached,
                "repro.sim.engine",
                "repro.sim.context",
                "repro.trace.recorder",
                "repro.core.package",
                "repro.mem.allocator",
            ):
                assert name in closure, (app, name)

    def test_import_scan_finds_lazy_and_parenthesised_imports(self):
        source = (
            "import repro.cache.classify\n"
            "from repro.trace import (\n"
            "    recorder,  # converts segments\n"
            "    blocks as b,\n"
            ")\n"
            "def later():\n"
            "    from repro.sim.context import SimContext\n"
            "    return SimContext\n"
        )
        assert set(store_module._imported_modules(source)) == {
            "repro.cache.classify",
            "repro.trace",
            "repro.trace.recorder",
            "repro.trace.blocks",
            "repro.sim.context",
        }

    def test_program_outside_the_package_is_hashed_from_its_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "outside_program.py"
        path.write_text("def program(ctx):\n    from repro.apps.sor import kernels\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        assert "repro.apps.sor.kernels" in import_closure("outside_program")
        before = code_hash("outside_program")
        path.write_text("def program(ctx):\n    return None\n")
        store_module._module_source.cache_clear()  # a new process
        assert code_hash("outside_program") != before


class TestIntegrity:
    def test_corrupt_object_is_a_miss(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        path = store.object_path(key.digest)
        data = bytearray(path.read_bytes())
        data[5] ^= 0xFF  # clobber the format version field
        path.write_bytes(bytes(data))
        assert store.get(key) is None

    def test_verify_object_catches_payload_flips(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        path = store.object_path(key.digest)
        verify_object(path)  # intact
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01  # flip one payload byte: load_trace cannot see it
        path.write_bytes(bytes(data))
        load_trace(path)
        with pytest.raises(CheckpointError, match="checksum"):
            verify_object(path)

    def test_index_journals_each_store(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        indexed = store.indexed()
        assert key.digest in indexed
        entry = indexed[key.digest]
        assert entry["program"] == "sor_threaded"
        assert entry["total_refs"] > 0

    def test_faulted_runs_are_not_stored(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        machine = r8000(64)
        simulator = Simulator(machine, verify=False)
        capture = TraceCapture()
        config = SorConfig.quick()
        live = simulator.run(SOR["threaded"](config), capture=capture)
        faulted = replace(live, thread_faults=[{"kind": "quarantine"}])
        key = trace_key_for(SOR["threaded"](config), config, machine, 4096)
        assert store.put(key, capture, faulted, machine, 4096) is None
        assert store.get(key) is None


class TestShadowAnnotation:
    def test_shadow_bits_match_kernel_shadow(self):
        # The stored annotation must reproduce the classifying kernel's
        # fully-associative LRU exactly; cross-check against a direct
        # simulation of the same insertion-ordered-dict policy.
        rng = np.random.default_rng(7)
        stream = rng.integers(0, 12, size=400, dtype=np.int64)
        deduped = stream[dedup_mask(stream)]
        bits = shadow_hit_bits(deduped, capacity=8)
        shadow: dict[int, None] = {}
        for index, line in enumerate(deduped.tolist()):
            expected = line in shadow
            if expected:
                del shadow[line]
            elif len(shadow) >= 8:
                del shadow[next(iter(shadow))]
            shadow[line] = None
            assert bool(bits[index]) == expected

    def test_dedup_mask_drops_consecutive_runs_only(self):
        lines = np.array([3, 3, 5, 3, 3, 3, 7], dtype=np.int64)
        assert dedup_mask(lines).tolist() == [
            True, False, True, True, False, False, True,
        ]


class TestReplayGuards:
    def test_machine_mismatch_rejected(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        stored = store.get(key)
        with pytest.raises(ValueError, match="machine"):
            Simulator(r10000(64), verify=False).replay(stored)

    def test_chunk_cuts_partition_all_batches(self):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 50, size=500, dtype=np.int64)
        ends = np.cumsum(sizes)
        cuts = _chunk_batches(ends)
        assert cuts[-1] == len(ends)
        assert cuts == sorted(set(cuts))
        assert _chunk_batches(np.array([], dtype=np.int64)) == []


class TestScope:
    def test_scope_installs_and_restores(self, tmp_path):
        assert current_trace_store() is None
        store = TraceStore(tmp_path / "traces")
        with trace_store_scope(store):
            assert current_trace_store() is store
            with trace_store_scope(None):
                assert current_trace_store() is None
            assert current_trace_store() is store
        assert current_trace_store() is None

    def test_open_trace_store_disabled(self):
        assert open_trace_store(None) is None
