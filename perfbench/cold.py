"""One cold trial in a fresh interpreter, for ``run.py``'s cold samples.

    python3 perfbench/cold.py --workload NAME --seed S --index I

Times the imports plus input generation (the set-up), then trial ``I``,
each bracketed by the calibration kernel; checks the trial and prints one
JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kernel import Bracket  # noqa: E402
from workloads import WORKLOADS, check_run, set_up  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    bracket = Bracket(workload.kernel_reps)
    _setup_ku, setup_s, trials = bracket.time(lambda: set_up(workload, args.seed))
    ku, wall_s, run = bracket.time(lambda: trials.run(args.index))
    print(json.dumps({
        "setup_s": setup_s,
        "ku": ku,
        "wall_s": wall_s,
        "error": check_run(run),
        "digest": trials.digest(run),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
