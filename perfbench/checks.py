"""Correctness checks on one campaign: manifest, digests, provenance.

An operation is one experiment of one campaign.  It fails when

* the run manifest does not record it as passed;
* its digest differs from the one recorded in ``expected.json`` (or, on
  ``warm``, from the digest of the same experiment in the cold run that
  populated the store);
* store provenance is wrong: a ``cold`` experiment got a store hit (the
  store was not empty, so the run was not cold), or a ``warm`` one got a
  store miss or put (something was simulated live).

The digest covers every simulation the experiment ran -- exact miss
counts per class and level, reference and instruction totals, forks,
dispatches, the scheduling distribution and the modelled time -- plus
the experiment's rendered table and shape-check verdicts.  The cache
tables the workloads run render no host timings, so the whole rendering
is digested.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any


def experiment_digest(rendered: str, sims: list[dict[str, Any]]) -> str:
    payload = {"rendered": rendered, "sims": sims}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def manifest_records(runs_dir: Path) -> dict[str, dict[str, Any]]:
    """Records of the single run under ``runs_dir``, by experiment id."""
    manifests = sorted(runs_dir.glob("*/manifest.json"))
    if len(manifests) != 1:
        return {}
    return json.loads(manifests[0].read_text())["records"]


def provenance_error(workload: str, outcome: dict[str, Any]) -> str | None:
    """Why ``outcome``'s store traffic is wrong for ``workload``, if it is."""
    if workload == "cold" and outcome["hits"]:
        return f"{outcome['hits']} store hit(s) in a cold run"
    if workload == "warm" and (outcome["misses"] or outcome["puts"]):
        return (
            f"{outcome['misses']} store miss(es) and {outcome['puts']} "
            "put(s) in a warm run"
        )
    return None


def failures(
    workload: str,
    planned: list[str],
    result: dict[str, Any] | None,
    expected: dict[str, str],
    reference: dict[str, str] | None = None,
) -> list[str]:
    """One message per failed operation of one campaign.

    ``result`` is the worker's report (``None`` if it died);
    ``reference`` maps experiment ids to digests another run of the same
    experiments must reproduce (the populating cold run, for ``warm``).
    """
    if result is None:
        return [f"{experiment_id}: campaign did not finish" for experiment_id in planned]
    messages = []
    for experiment_id in planned:
        outcome = result["experiments"].get(experiment_id)
        if outcome is None:
            messages.append(f"{experiment_id}: not run")
            continue
        if outcome["status"] != "passed":
            messages.append(f"{experiment_id}: manifest status {outcome['status']}")
        elif outcome["digest"] != expected.get(experiment_id):
            messages.append(f"{experiment_id}: digest {outcome['digest'][:12]} differs")
        elif reference is not None and outcome["digest"] != reference.get(experiment_id):
            messages.append(f"{experiment_id}: digest differs from the cold run's")
        elif (error := provenance_error(workload, outcome)) is not None:
            messages.append(f"{experiment_id}: {error}")
    return messages
