"""Repository benchmark: ``repro-experiments`` campaigns, end to end.

    python3 perfbench/run.py --workload {cold,warm} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every campaign runs in a fresh worker
process (``worker.py``) that imports the program and calls the user
entry point, ``repro.exp.cli.main``, in-process with the user's defaults
(telemetry on, trace store on, serial); only its run directory and trace
store are moved into a scratch directory under ``.perfbench-work/``,
which is removed on exit.  See ``README.md`` for the workloads, the
metrics and the layer each per-layer metric belongs to.

``--trace 0`` repeats the workload's campaign for about ``--seconds``
(at least ``MIN_REPS`` times) and reports the end-to-end metrics as
medians.  ``--trace 1`` runs it once untraced and once under the span
tracer and reports the per-layer metrics of the traced run.  Either way
every experiment's result is checked (``checks.py``); the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

CACHE_TABLES = ["table3", "table5", "table7", "table9"]

#: Campaigns per timed run, at least, whatever ``--seconds`` says.
MIN_REPS = 2
#: Set-up samples per timed run, at least (campaign workers count).
MIN_SETUPS = 3
#: A worker that has not finished by then is killed (the longest
#: campaign, a traced ``cold``, takes about 20 s on a 2-CPU host), and
#: the run stops repeating campaigns.
WORKER_TIMEOUT_S = 100


def plan(seed: int) -> tuple[list[str], list[str]]:
    """The experiments and CLI arguments of the campaign.

    Both workloads run the same campaign; they differ in the trace
    store it starts from.  The simulations are deterministic and start
    from empty caches, so the seed cannot change what is computed; it
    picks the order the campaign runs the four cache tables in.
    """
    experiments = list(CACHE_TABLES)
    random.Random(seed).shuffle(experiments)
    return experiments, ["--quick", *experiments]


class Workspace:
    """Scratch run directories and trace stores for one benchmark run."""

    def __init__(self, root: Path) -> None:
        self.base = root / ".perfbench-work"
        self.base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=self.base))
        self._serial = 0

    def fresh(self, name: str) -> Path:
        self._serial += 1
        return self.path / f"{name}-{self._serial}"

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def spawn(workspace: Workspace, *args: str) -> dict | None:
    """Run one worker; its report with ``setup_s`` added, or ``None``."""
    report = workspace.fresh("report")
    log = workspace.fresh("log")
    with open(log, "w") as stderr:
        started = time.perf_counter()
        try:
            completed = subprocess.run(
                [sys.executable, str(WORKER), str(report), *args],
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"worker timed out: {' '.join(args)}", file=sys.stderr)
            return None
    if completed.returncode != 0 or not report.exists():
        print(f"worker failed ({completed.returncode}): {' '.join(args)}", file=sys.stderr)
        sys.stderr.write(log.read_text()[-2000:])
        return None
    result = json.loads(report.read_text())
    result["setup_s"] = result["ready"] - started
    return result


def campaign(workspace: Workspace, args: list[str], trace: bool, store: Path) -> dict | None:
    runs = workspace.fresh("runs")
    return spawn(
        workspace, "campaign", "1" if trace else "0", str(runs), str(store), "--", *args
    )


class Tally:
    """Operations attempted and failed across a run's campaigns."""

    def __init__(self, workload: str, experiments: list[str]) -> None:
        self.workload = workload
        self.experiments = experiments
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.attempted = 0
        self.failed = 0

    def check(self, result: dict | None, workload: str | None = None, reference=None) -> None:
        messages = checks.failures(
            workload or self.workload, self.experiments, result, self.expected, reference
        )
        self.attempted += len(self.experiments)
        self.failed += len(messages)
        for message in messages:
            print(f"FAILED {message}", file=sys.stderr)
        if result is not None:
            store = {
                key: sum(e[key] for e in result["experiments"].values())
                for key in ("hits", "misses", "puts")
            }
            fast = result["fast_replays"] / result["replays"] if result["replays"] else 0.0
            print(
                f"campaign: wall {result['wall_s']:.3f} s, setup "
                f"{result['setup_s']:.3f} s, store hits {store['hits']} misses "
                f"{store['misses']} puts {store['puts']}, replay.fast_frac {fast:.2f}"
            )


def digests(result: dict | None) -> dict[str, str] | None:
    if result is None:
        return None
    return {key: value["digest"] for key, value in result["experiments"].items()}


def source_key(root: Path) -> str:
    """Digest of every source file of the program and the benchmark."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*"), *HERE.rglob("*")]):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def warm_store(
    root: Path, workspace: Workspace, args: list[str], tally: Tally
) -> tuple[Path, dict[str, str] | None]:
    """The store ``warm`` replays from, and the digests of the untimed
    cold campaign that filled it.

    A checkout fills it once: the store and digests are kept under
    ``.perfbench-work/`` keyed by the program's source, so the later
    runs of the same code skip a 15 s campaign that nothing times.  A
    fill that failed any check is used for this run only.
    """
    kept = workspace.base / f"warm-{source_key(root)[:16]}"
    if (kept / "digests.json").is_file():
        return kept / "store", json.loads((kept / "digests.json").read_text())
    staging = workspace.fresh("warm")
    store = staging / "store"
    populated = campaign(workspace, args, False, store)
    failed_before = tally.failed
    tally.check(populated, workload="cold")
    reference = digests(populated)
    if reference is None or tally.failed > failed_before:
        return store, reference
    (staging / "digests.json").write_text(json.dumps(reference))
    try:
        os.rename(staging, kept)
    except OSError:
        return store, reference  # a concurrent run kept its own first
    return kept / "store", reference


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    experiments, args = plan(seed)
    tally = Tally(workload, experiments)
    workspace = Workspace(root)
    try:
        store, reference = (
            warm_store(root, workspace, args, tally) if workload == "warm" else (None, None)
        )

        def one(traced: bool) -> dict | None:
            target = store or workspace.fresh("store")
            result = campaign(workspace, args, traced, target)
            tally.check(result, reference=reference)
            return result

        if trace:
            untraced, traced = one(False), one(True)
            if untraced is None or traced is None:
                metrics = {}
            else:
                metrics = dict(traced["layers"])
                metrics["setup.import_s"] = statistics.median(
                    [untraced["import_s"], traced["import_s"]]
                )
                metrics["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"]
                print("\n".join(traced["span_report"]))
            units = metric_units("per_layer")
        else:
            results: list[dict | None] = []
            durations: list[float] = []
            started = time.perf_counter()
            while True:
                began = time.perf_counter()
                results.append(one(False))
                if results[-1] is None:
                    break
                durations.append(time.perf_counter() - began)
                elapsed = time.perf_counter() - started
                if len(results) >= MIN_REPS and not more_campaigns(elapsed, durations, seconds):
                    break
            done = [result for result in results if result is not None]
            setups = [result["setup_s"] for result in done]
            while done and len(setups) < MIN_SETUPS:
                result = spawn(workspace, "setup")
                if result is None:
                    break
                setups.append(result["setup_s"])
            metrics = {}
            if done and len(setups) >= MIN_SETUPS:
                median = statistics.median
                metrics = {
                    "wall_s": median([r["wall_s"] for r in done]),
                    "setup_s": median(setups),
                    "peak_rss_mb": median([r["peak_rss_mb"] for r in done]),
                    "sim_refs_per_s": median([r["sim_refs"] / r["wall_s"] for r in done]),
                    "artifacts_mb": median([r["artifacts_mb"] for r in done]),
                }
            units = metric_units("end_to_end")
    finally:
        workspace.close()
    return {
        "correct": tally.failed == 0 and set(metrics) == set(units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def more_campaigns(elapsed: float, durations: list[float], seconds: float) -> bool:
    """Whether another campaign brings the run's end nearer to ``seconds``.

    The next campaign is predicted to take as long as the median one so
    far; the run stops at whichever campaign boundary lies nearest to
    ``seconds``, so it overruns by at most half a campaign, not a whole
    one.
    """
    return elapsed + statistics.median(durations) / 2 < seconds


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``BENCHMARK.json`` metrics of ``kind``."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cold", "warm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "exp" / "cli.py").is_file():
        print(
            "perfbench: no src/repro/exp/cli.py here; run from the root of a "
            "checkout of the program",
            file=sys.stderr,
        )
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
