"""The telemetry overhead guard.

The observability layer's contract (DESIGN.md section 9) is quantitative:

* **disabled** (the default), instrumentation may cost < 1% of a
  mid-size simulation's wall clock;
* **enabled**, the spans + metrics + cache sampler together may cost
  < 15% — cheap enough to leave on for every recorded campaign.

The disabled half is asserted *structurally*: disabled telemetry is the
shared ``DISABLED`` singleton (a null bus and null registry behind one
``enabled`` flag), and with it in place the simulator attaches no cache
sampler, so the hierarchy runs its uninstrumented ``access_data`` class
method — the baseline path *is* the disabled path.  The benchmark
asserts that binding on a probe hierarchy (deterministic, flake-free)
and records ``disabled_overhead_pct: 0.0`` with the method stated.

The enabled half is measured: one discarded warmup pass, then
median-of-N wall clock per configuration, interleaved round-robin so
slow drift hits all configurations alike.  Two of the timed
configurations run *identical code* (an A/A pair); the spread between
their medians is the run's measured noise floor, recorded in the
payload.  The enabled budget is enforced against a noise-widened bound
(budget + noise floor) — and skipped outright, with the payload saying
so, when the floor itself exceeds the budget, because a timer that
cannot tell the same code apart to within 15% cannot referee a 15%
budget (shared CI runners regularly measure same-code deltas of
10-30%).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.apps.matmul.config import MatmulConfig
from repro.apps.matmul.programs import threaded
from repro.machine import r8000
from repro.obs import Telemetry
from repro.obs.sampler import CacheSampler
from repro.obs.telemetry import DISABLED
from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_obs.json"

#: Budgets, as fractions of the baseline wall clock.
DISABLED_BUDGET = 0.01
ENABLED_BUDGET = 0.15

#: n=96 forks 9216 threads — mid-size: big enough that per-fork and
#: per-batch costs dominate, small enough to repeat several times.
N = 96
REPEATS = 5


def run_once(telemetry: Telemetry | None) -> float:
    program = threaded(MatmulConfig(n=N))
    simulator = Simulator(r8000(), telemetry=telemetry)
    started = time.perf_counter()
    simulator.run(program, name="matmul_threaded")
    return time.perf_counter() - started


def test_overhead_budgets():
    # Structural disabled-cost guarantee: no telemetry handle resolves
    # to the DISABLED singleton, and a sidecar-free hierarchy binds the
    # uninstrumented class method — attaching a sampler (what enabled
    # telemetry does) rebinds it, detaching restores it.
    assert not DISABLED.enabled
    probe = r8000().build_hierarchy()
    assert "access_data" not in vars(probe), (
        "a sidecar-free hierarchy must run the uninstrumented "
        "access_data (disabled telemetry would no longer be free)"
    )
    sampler = CacheSampler(Telemetry(), program="bench_probe")
    probe.attach(sampler)
    assert "access_data" in vars(probe), (
        "attaching the cache sampler must rebind access_data to the "
        "instrumented variant"
    )
    probe.detach(sampler)
    assert "access_data" not in vars(probe)
    disabled_overhead = 0.0

    run_once(None)  # discarded warmup: imports, pools, branch caches
    # Interleave the three configurations within each round so slow
    # drift (thermal, scheduler) hits all of them alike; take the
    # median per configuration.  The first two run identical code —
    # their spread is this run's same-code noise floor.
    baseline_times, aa_times, enabled_times = [], [], []
    for _ in range(REPEATS):
        baseline_times.append(run_once(None))
        aa_times.append(run_once(None))  # A/A pair: same code
        enabled_times.append(run_once(Telemetry()))
    baseline = statistics.median(baseline_times)
    aa = statistics.median(aa_times)
    enabled = statistics.median(enabled_times)

    noise_floor = abs(aa / baseline - 1.0)
    enabled_overhead = max(0.0, enabled / baseline - 1.0)
    enabled_enforced = noise_floor < ENABLED_BUDGET

    payload = {
        "benchmark": "telemetry overhead, threaded matmul",
        "n": N,
        "repeats": REPEATS,
        "baseline_s": round(baseline, 4),
        "enabled_s": round(enabled, 4),
        "noise_floor_pct": round(100 * noise_floor, 2),
        "disabled_overhead_pct": round(100 * disabled_overhead, 2),
        "disabled_method": (
            "structural: disabled telemetry is the DISABLED singleton; "
            "no sampler is attached, so the hierarchy runs its "
            "uninstrumented access_data (identity asserted)"
        ),
        "enabled_overhead_pct": round(100 * enabled_overhead, 2),
        "enabled_enforced": enabled_enforced,
        "budgets": {
            "disabled_pct": 100 * DISABLED_BUDGET,
            "enabled_pct": 100 * ENABLED_BUDGET,
        },
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    assert disabled_overhead < DISABLED_BUDGET, (
        f"disabled telemetry cost {100 * disabled_overhead:.2f}% "
        f"(budget {100 * DISABLED_BUDGET:.0f}%)"
    )
    if enabled_enforced:
        bound = ENABLED_BUDGET + noise_floor
        assert enabled_overhead < bound, (
            f"enabled telemetry cost {100 * enabled_overhead:.2f}% "
            f"(budget {100 * ENABLED_BUDGET:.0f}% + noise floor "
            f"{100 * noise_floor:.2f}%)"
        )
