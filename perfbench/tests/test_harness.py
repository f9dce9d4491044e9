"""Tests for the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

Run from the root of the repository (the provenance test runs a real
campaign through the worker, which imports the program from ``src/``).
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
import run
from spans import Tracer

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock that reads ``now`` and advances only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.begin("outer")  # t=0
        clock.now = 10
        tracer.begin("inner")
        clock.now = 40
        tracer.begin("leaf")
        clock.now = 45
        tracer.end()  # leaf: 5
        clock.now = 50
        tracer.end()  # inner: 40, self 35
        clock.now = 60
        tracer.begin("inner")
        clock.now = 80
        tracer.end()  # inner again: 20
        clock.now = 100
        tracer.end()  # outer: 100, children 60
        assert tracer.self_ns == {"leaf": 5, "inner": 55, "outer": 40}
        assert tracer.total_ns == {"leaf": 5, "inner": 60, "outer": 100}
        assert tracer.calls == {"leaf": 1, "inner": 2, "outer": 1}
        assert tracer.edges[("outer", "inner")] == 60
        assert sum(tracer.self_ns.values()) == tracer.total_ns["outer"]

    def test_wrapped_reentry_joins_the_open_span(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def base(depth):
            clock.now += 3
            if depth:
                inner(depth - 1)

        inner = tracer.wrap("layer", base)
        outer = tracer.wrap("caller", lambda: (inner(2), setattr(clock, "now", clock.now + 1)))
        outer()
        assert tracer.calls == {"layer": 1, "caller": 1}
        assert tracer.self_ns == {"layer": 9, "caller": 1}

    def test_exception_closes_the_span(self):
        tracer = Tracer(FakeClock())

        def fail():
            raise ValueError("boom")

        try:
            tracer.wrap("layer", fail)()
        except ValueError:
            pass
        assert tracer.stack == []
        assert tracer.calls == {"layer": 1}


def outcome(digest: str, hits: int = 0, misses: int = 0, puts: int = 0) -> dict:
    return {"status": "passed", "digest": digest, "hits": hits, "misses": misses, "puts": puts}


class TestDigests:
    def test_mismatch_is_a_failed_operation(self):
        expected = {"table3": "a" * 64, "table5": "b" * 64}
        result = {
            "experiments": {
                "table3": outcome("a" * 64, misses=3, puts=3),
                "table5": outcome("c" * 64, misses=2, puts=2),
            }
        }
        messages = checks.failures("cold", ["table3", "table5"], result, expected)
        assert len(messages) == 1
        assert messages[0].startswith("table5: digest")

    def test_warm_must_match_the_cold_run(self):
        expected = {"table3": "a" * 64}
        result = {"experiments": {"table3": outcome("a" * 64, hits=1)}}
        assert checks.failures("warm", ["table3"], result, expected, {"table3": "a" * 64}) == []
        assert len(checks.failures("warm", ["table3"], result, expected, {"table3": "d" * 64})) == 1

    def test_unfinished_campaign_fails_every_operation(self):
        assert len(checks.failures("cold", ["table3", "table5"], None, {})) == 2


class TestProvenance:
    def test_cold_run_on_a_populated_store_fails(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        workspace = run.Workspace(ROOT)
        try:
            store = workspace.fresh("store")
            args = ["--quick", "table5"]
            first = run.campaign(workspace, args, False, store)
            assert checks.failures("cold", ["table5"], first, expected) == []
            again = run.campaign(workspace, args, False, store)
            messages = checks.failures("cold", ["table5"], again, expected)
            assert messages == ["table5: 3 store hit(s) in a cold run"]
            # The same store is exactly what a warm run needs.
            assert checks.failures("warm", ["table5"], again, expected) == []
        finally:
            workspace.close()
