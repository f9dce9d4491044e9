"""Record the expected experiment digests into ``expected.json``.

    python3 perfbench/record.py

Run from the root of a checkout whose results are known good: it runs
the ``cold`` campaign once, refuses to record unless every experiment
passed with the provenance a cold run must have, and writes each
experiment's digest.  Re-record only for a change
that is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import run


def main() -> int:
    digests: dict[str, str] = {}
    workspace = run.Workspace(Path.cwd())
    try:
        experiments, args = run.plan(seed=0)
        result = run.campaign(workspace, args, False, workspace.fresh("store"))
        if result is None:
            print("record: cold campaign failed", file=sys.stderr)
            return 1
        for experiment_id in experiments:
            outcome = result["experiments"][experiment_id]
            error = checks.provenance_error("cold", outcome)
            if outcome["status"] != "passed" or error:
                print(f"record: {experiment_id}: {outcome['status']} {error or ''}",
                      file=sys.stderr)
                return 1
            digests[experiment_id] = outcome["digest"]
    finally:
        workspace.close()
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n")
    print(f"recorded {len(digests)} digests in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
