"""One benchmark process: import the program, then optionally run one
campaign through the user entry point, and write a JSON report.

    python3 perfbench/worker.py REPORT setup
    python3 perfbench/worker.py REPORT campaign TRACE RUNS_DIR STORE_DIR -- ARGS...

Run from the root of a checkout.  ``REPORT`` receives ``ready`` (this
process's ``time.perf_counter()`` once the entry point is imported; the
clock is system-wide, so the parent subtracts its own spawn time) and,
for a campaign, its wall time, peak RSS, what it left on disk, and per
experiment the manifest status, digest and store traffic.  (The exit
code adds nothing: the manifest records every experiment's status.)
``TRACE`` 1 adds the span tracer and the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import_started = time.perf_counter()
sys.path.insert(0, str(Path.cwd() / "src"))
import repro.exp.cli  # noqa: E402  (the import is what setup measures)

ready = time.perf_counter()

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def campaign(trace: bool, runs_dir: Path, store_dir: Path, args: list[str]) -> dict:
    probe = layers.Probe(Tracer() if trace else None)
    layers.install(probe)
    main = repro.exp.cli.main
    if probe.tracer is not None:
        main = probe.tracer.wrap("campaign", main)
    argv = [*args, "--runs-dir", str(runs_dir), "--trace-store", str(store_dir)]
    store_before = tree_bytes(store_dir) if store_dir.exists() else 0
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            started = time.perf_counter()
            main(argv)
            wall_s = time.perf_counter() - started
        finally:
            sys.stdout = stdout
    records = checks.manifest_records(runs_dir)
    experiments = {}
    for experiment_id, outcome in probe.experiments.items():
        record = records.get(experiment_id, {})
        experiments[experiment_id] = {
            "status": record.get("status", "missing"),
            "digest": checks.experiment_digest(record.get("rendered", ""), outcome["sims"]),
            "hits": outcome["hits"],
            "misses": outcome["misses"],
            "puts": outcome["puts"],
        }
    report = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifacts_mb": (tree_bytes(runs_dir) + tree_bytes(store_dir) - store_before)
        / 1e6,
        "sim_refs": probe.sim_refs,
        "replays": probe.replays,
        "fast_replays": probe.fast_replays,
        "experiments": experiments,
    }
    if probe.tracer is not None:
        report["layers"] = layers.layer_metrics(probe)
        report["span_report"] = probe.tracer.report()
    return report


def main(argv: list[str]) -> int:
    report_path, mode, *rest = argv
    report = {"ready": ready, "import_s": ready - import_started}
    if mode == "campaign":
        trace, runs_dir, store_dir, separator, *args = rest
        if separator != "--":
            raise SystemExit(f"worker: expected '--' before campaign args, got {separator!r}")
        report.update(campaign(trace == "1", Path(runs_dir), Path(store_dir), args))
    elif mode != "setup":
        raise SystemExit(f"worker: unknown mode {mode!r}")
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
