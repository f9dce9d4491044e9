"""The trace store wired through the experiment layer.

``run_versions`` is the single funnel every table experiment uses, so
these tests pin its store contract: populate on first sight, replay on
the second, and stand down whenever a consumer needs the live program
(verification oracles, locality profiling, payload readers).
"""

import io

import pytest

from repro.apps.sor import SorConfig, VERSIONS as SOR
from repro.exp.runners import run_versions
from repro.machine.presets import r8000
from repro.obs.profile import ProfileCollector, collector_scope
from repro.resilience.campaign import CampaignConfig, run_campaign
from repro.trace.store import TraceStore, trace_store_scope
from repro.verify.config import verification

VERSIONS = {
    "untiled": SOR["untiled"],
    "threaded": SOR["threaded"],
}


@pytest.fixture()
def store(tmp_path):
    return TraceStore(tmp_path / "traces")


def run_twice(store, **kwargs):
    config = SorConfig.quick()
    machine = r8000(64)
    with trace_store_scope(store):
        first = run_versions(VERSIONS, config, machine, **kwargs)
        second = run_versions(VERSIONS, config, machine, **kwargs)
    return first, second


class TestRunVersions:
    def test_populates_then_replays(self, store):
        with verification(False):
            first, second = run_twice(store)
        assert store.stores == len(VERSIONS)
        assert store.hits == len(VERSIONS)
        for name in VERSIONS:
            assert second[name].stats == first[name].stats
            assert second[name].time == first[name].time

    def test_explicit_verify_false_beats_process_switch(self, store):
        # The pytest session arms verification process-wide; an explicit
        # verify=False at the call site still enables the store.
        with verification(True):
            run_twice(store, verify=False)
        assert store.stores == len(VERSIONS)
        assert store.hits == len(VERSIONS)

    def test_bypassed_while_verification_armed(self, store):
        with verification(True):
            run_twice(store)
        assert store.stores == 0
        assert store.hits == 0
        assert store.misses == 0

    def test_bypassed_without_scope(self, store):
        config = SorConfig.quick()
        with verification(False):
            run_versions(VERSIONS, config, r8000(64))
        assert store.stores == 0

    def test_payload_versions_always_run_live(self, store):
        with verification(False):
            first, second = run_twice(store, payload_versions={"threaded"})
        assert store.stores == 1  # only untiled
        assert store.hits == 1
        # The live rerun still produces a payload; a replay would not.
        assert second["threaded"].payload is not None
        assert second["untiled"].payload is None

    def test_bypassed_while_profiling(self, store):
        with verification(False), collector_scope(ProfileCollector()):
            run_twice(store)
        assert store.stores == 0
        assert store.hits == 0


class TestCampaignIntegration:
    def test_second_campaign_run_replays(self, tmp_path):
        config = CampaignConfig(
            ids=["table3"],
            quick=True,
            runs_dir=str(tmp_path / "runs"),
            save=False,
            verify=False,
            trace_store=str(tmp_path / "traces"),
        )

        def run_once():
            out, err = io.StringIO(), io.StringIO()
            code = run_campaign(config, out=out, err=err)
            return code, out.getvalue()

        code, out = run_once()
        assert code == 0
        assert "trace store: stored" in out
        assert "trace store: replaying" not in out

        code, out = run_once()
        assert code == 0
        assert "trace store: replaying" in out
        # Default telemetry keeps the R8000's vectorized L1D replay.
        assert ", vectorized)" in out
        assert ", dict)" not in out
        assert "trace store: stored" not in out

    def test_trace_store_none_disables(self, tmp_path):
        config = CampaignConfig(
            ids=["table3"],
            quick=True,
            runs_dir=str(tmp_path / "runs"),
            save=False,
            verify=False,
            trace_store=None,
        )
        out = io.StringIO()
        assert run_campaign(config, out=out, err=io.StringIO()) == 0
        assert "trace store" not in out.getvalue()
        assert not (tmp_path / "traces").exists()
