"""Hot-path benchmark: wall-clock and updates/sec on the two hot scenarios.

This is the CI-gated performance benchmark backing the interning + decision
cache work.  It times complete :func:`repro.experiments.runner.run_experiment`
trials — scheduler, channels, speakers, analysis — on:

* ``tdown10``: Tdown in a 10-clique, the classic path-exploration worst
  case (the paper's Figure 4 stress shape), dominated by decision-process
  and poison-reverse churn;
* ``tflap8``: Tflap in a size-8 B-Clique with the session layer enabled
  (hold/keepalive timers, ConnectRetry), dominated by timer churn and the
  scheduler's cancel/re-arm path.

Each scenario runs ``--repeat`` times (default 3) and reports the *median*
wall-clock, so one noisy sample cannot flip the CI gate.  Output is a
machine-readable JSON document (``--output``), compared against the
committed baseline by ``compare_baselines.py``:

    PYTHONPATH=src python benchmarks/bench_hotpath.py --output BENCH_hotpath.json
    python benchmarks/compare_baselines.py \
        benchmarks/baselines/BENCH_hotpath.json BENCH_hotpath.json

To refresh the committed baseline after an intentional perf change, run the
first command and copy the output over ``benchmarks/baselines/``
(see README "Performance").
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from functools import partial  # noqa: E402

from repro.bgp import BgpConfig  # noqa: E402
from repro.experiments import (  # noqa: E402
    RunSettings,
    TrialTask,
    run_trial_resilient,
)
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.experiments.scenarios import tdown_clique, tflap_bclique  # noqa: E402

SCHEMA_VERSION = 1


def _constant_scenario(x, seed, scenario=None):
    return scenario


def _constant_config(x, config=None):
    return config


def _tdown10():
    """Tdown in a 10-clique under standard BGP defaults."""
    return tdown_clique(10), BgpConfig()


def _tflap8():
    """Tflap churn in an 8-B-Clique with the session layer on.

    Short hold/keepalive/ConnectRetry timers relative to the 15 s flap
    period, so every flap exercises session teardown, reconnect backoff,
    and the MRAI cancel/re-arm churn the compaction path targets.
    """
    config = replace(
        BgpConfig(),
        hold_time=9.0,
        keepalive_interval=3.0,
        connect_retry=0.5,
        connect_retry_cap=4.0,
    )
    return tflap_bclique(8, period=15.0, count=3), config


SCENARIOS: Dict[str, Callable[[], Tuple[object, BgpConfig]]] = {
    "tdown10": _tdown10,
    "tflap8": _tflap8,
}


def run_scenario(
    name: str, repeat: int, seed: int = 0, raw: bool = False
) -> Dict[str, object]:
    """Median-of-``repeat`` timing for one named scenario.

    By default trials run through the in-process path
    (:func:`repro.experiments.run_trial_resilient`) — the same code every
    ``jobs=1`` sweep takes per trial, so this benchmark gates its
    overhead; ``raw=True`` times a bare
    :func:`~repro.experiments.runner.run_experiment` instead.  CI runs
    both and asserts the resilient path costs < 5 %.
    """
    build = SCENARIOS[name]
    samples = []
    updates = 0
    scenario_name = ""
    for _ in range(repeat):
        scenario, config = build()
        scenario_name = scenario.name
        if raw:
            start = time.perf_counter()
            run = run_experiment(scenario, config, RunSettings(), seed=seed)
            samples.append(time.perf_counter() - start)
        else:
            task = TrialTask(
                index=0,
                x=0.0,
                seed=seed,
                make_scenario=partial(_constant_scenario, scenario=scenario),
                make_config=partial(_constant_config, config=config),
                settings=RunSettings(),
            )
            start = time.perf_counter()
            run = run_trial_resilient(task)
            samples.append(time.perf_counter() - start)
        updates = run.result.convergence.update_count
    wall = statistics.median(samples)
    return {
        "scenario": scenario_name,
        "wall_clock_s": round(wall, 6),
        "samples_s": [round(s, 6) for s in samples],
        "updates": updates,
        "updates_per_s": round(updates / wall, 1),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the hot-path scenarios and emit BENCH_hotpath.json."
    )
    parser.add_argument(
        "scenarios", nargs="*", choices=[[], *sorted(SCENARIOS)],
        help="scenario names to run (default: all)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, metavar="N",
        help="timed trials per scenario; the median is reported (default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)"
    )
    parser.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="write the JSON document here (default: stdout only)",
    )
    parser.add_argument(
        "--raw", action="store_true",
        help=(
            "time bare run_experiment calls instead of the resilient "
            "per-trial path (the default); diffing the two documents with "
            "compare_baselines.py measures resilience overhead"
        ),
    )
    args = parser.parse_args(argv)
    chosen = args.scenarios or sorted(SCENARIOS)

    results: Dict[str, Dict[str, object]] = {}
    for name in chosen:
        result = run_scenario(
            name, repeat=args.repeat, seed=args.seed, raw=args.raw
        )
        results[name] = result
        print(
            f"[{name}] {result['scenario']}: "
            f"median {result['wall_clock_s'] * 1e3:.1f} ms, "
            f"{result['updates']} updates, "
            f"{result['updates_per_s']:.0f} updates/s "
            f"(repeat={args.repeat})"
        )

    document = {
        "schema": SCHEMA_VERSION,
        "benchmark": "hotpath",
        "repeat": args.repeat,
        "seed": args.seed,
        "mode": "raw" if args.raw else "resilient",
        "python": platform.python_version(),
        "results": results,
    }
    payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.output is not None:
        args.output.write_text(payload, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(payload, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
