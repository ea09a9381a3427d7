"""Regenerate ``digests.json``: every default-seed trial's digest.

    python3 perfbench/make_digests.py

Run it only when a change to the simulator is meant to change its
outputs; ``run.py`` fails every default-seed trial whose digest differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, WORKLOADS, Trials, check_run  # noqa: E402


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        trials = Trials(workload, DEFAULT_SEED)
        digests[name] = []
        for index in range(workload.cycle):
            _wall, run = trials.run(index)
            error = check_run(run)
            if error is not None:
                print(f"{name} trial {index}: {error}", file=sys.stderr)
                return 1
            digests[name].append(trials.digest(run))
    document = {"seed": DEFAULT_SEED, "workloads": digests}
    with open(HERE / "digests.json", "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
