"""Multi-prefix benchmark: Tagg runs and epoch-evaluator throughput.

The CI-gated performance benchmark backing the prefix dimension: full
:func:`repro.experiments.runner.run_experiment` trials on the Tagg family
(aggregate/deaggregate churn over a seeded prefix population, traffic
matrix on) at two population sizes, plus an isolated timing of the
traffic-matrix evaluator (epoch-rows mode) over the 256-prefix log.

* ``tagg64``: 64 specifics, 2 origins, 4-clique — updates/sec of the
  control plane with per-prefix state fanned out;
* ``tagg256``: the acceptance-criteria population (256 specifics);
* ``eval256``: re-evaluates the 256-prefix run's FIB log against its
  traffic matrix; ``updates_per_s`` reports *offered packets per second of
  evaluator wall-clock* (integer CBR packets classified and accounted).

Same medians-of-``--repeat`` JSON schema as ``bench_hotpath.py``; gate with
``compare_baselines.py`` against ``benchmarks/baselines/BENCH_multiprefix.json``:

    PYTHONPATH=src python benchmarks/bench_multiprefix.py --output BENCH_multiprefix.json
    python benchmarks/compare_baselines.py \
        benchmarks/baselines/BENCH_multiprefix.json BENCH_multiprefix.json

Scaling mode
------------

``--population N [N ...]`` switches to the routing-table-scale curve: one
Tagg run per population under the memory-lean configuration (per-peer
MRAI, batched UPDATEs, totals-only traffic accounting) that 10k-prefix
workloads use.  The emitted document's benchmark name is
``multiprefix-scaling`` with one ``pop<N>`` result per population; the
committed curve lives at ``benchmarks/baselines/BENCH_scaling.json``:

    PYTHONPATH=src python benchmarks/bench_multiprefix.py \
        --population 1024 4096 10240 --output BENCH_scaling.json
    python benchmarks/compare_baselines.py \
        benchmarks/baselines/BENCH_scaling.json BENCH_scaling.json

Refreshing the scaling baseline after an intentional perf change: run the
exact command above on a quiet machine (repeat 3) and commit the output
over ``benchmarks/baselines/BENCH_scaling.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bgp import BgpConfig  # noqa: E402
from repro.dataplane import TrafficMatrix, TrafficMatrixEvaluator  # noqa: E402
from repro.experiments import RunSettings  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.experiments.scenarios import tagg_clique  # noqa: E402

SCHEMA_VERSION = 1

CONFIG = BgpConfig(mrai=2.0)
SETTINGS = RunSettings(traffic_matrix=True)
POPULATIONS = {"tagg64": 64, "tagg256": 256}

# Routing-table-scale curve: the memory-lean configuration.  Per-peer MRAI
# and batched UPDATEs amortize timer and dissemination work over the whole
# dirtied prefix set; totals-only traffic accounting drops the per-epoch
# row log that dominates memory at 10k prefixes.
SCALING_CONFIG = BgpConfig(mrai=2.0, mrai_mode="per-peer", batch_updates=True)
SCALING_SETTINGS = RunSettings(traffic_matrix=True, traffic_epoch_rows=False)


def _scenario(prefixes: int):
    return tagg_clique(4, prefixes=prefixes, origins=2, hold=5.0)


def run_tagg(name: str, repeat: int, seed: int) -> Dict[str, object]:
    """Median-of-``repeat`` full-run timing for one population size."""
    samples = []
    updates = 0
    scenario_name = ""
    for _ in range(repeat):
        scenario = _scenario(POPULATIONS[name])
        scenario_name = scenario.name
        start = time.perf_counter()
        run = run_experiment(scenario, CONFIG, SETTINGS, seed=seed)
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


def run_scaling(population: int, repeat: int, seed: int) -> Dict[str, object]:
    """Median-of-``repeat`` full-run timing at one scaling population."""
    samples = []
    updates = 0
    scenario_name = ""
    for _ in range(repeat):
        scenario = _scenario(population)
        scenario_name = scenario.name
        start = time.perf_counter()
        run = run_experiment(scenario, SCALING_CONFIG, SCALING_SETTINGS, seed=seed)
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


def run_eval(repeat: int, seed: int) -> Dict[str, object]:
    """Median-of-``repeat`` evaluator-only timing on the 256-prefix log.

    The simulation runs once (untimed); each sample re-evaluates the same
    FIB log and traffic matrix from scratch, so the number measures the
    traffic evaluator in epoch-rows mode — change-driven reclassification,
    the fate memo, per-row counting — not the control plane.
    """
    scenario = _scenario(256)
    run = run_experiment(scenario, CONFIG, RunSettings(), seed=seed)
    matrix = TrafficMatrix.seeded(
        nodes=scenario.topology.nodes,
        prefixes=sorted({p for _n, p in scenario.effective_originations}),
        seed=seed,
        origins=scenario.origins_by_prefix(),
    )
    window = (run.failure_time, run.result.convergence.convergence_end)
    samples = []
    offered = 0
    for _ in range(repeat):
        start = time.perf_counter()
        report = TrafficMatrixEvaluator(run.fib_log, matrix).evaluate(*window)
        samples.append(time.perf_counter() - start)
        offered = report.offered
    wall = statistics.median(samples)
    return {
        "scenario": f"{scenario.name}-eval",
        "wall_clock_s": round(wall, 6),
        "samples_s": [round(s, 6) for s in samples],
        "updates": offered,
        "updates_per_s": round(offered / wall, 1),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time multi-prefix workloads, emit BENCH_multiprefix.json."
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
        "--population", type=int, nargs="+", default=None, metavar="N",
        help="scaling mode: one Tagg run per population under the "
        "memory-lean configuration (emits benchmark 'multiprefix-scaling')",
    )
    args = parser.parse_args(argv)

    results: Dict[str, Dict[str, object]] = {}
    if args.population:
        benchmark = "multiprefix-scaling"
        for population in args.population:
            results[f"pop{population}"] = run_scaling(
                population, repeat=args.repeat, seed=args.seed
            )
    else:
        benchmark = "multiprefix"
        for name in sorted(POPULATIONS):
            results[name] = run_tagg(name, repeat=args.repeat, seed=args.seed)
        results["eval256"] = run_eval(repeat=args.repeat, seed=args.seed)
    for name, result in results.items():
        print(
            f"[{name}] {result['scenario']}: "
            f"median {result['wall_clock_s'] * 1e3:.1f} ms, "
            f"{result['updates']} units, "
            f"{result['updates_per_s']:.0f} units/s "
            f"(repeat={args.repeat})"
        )

    document = {
        "schema": SCHEMA_VERSION,
        "benchmark": benchmark,
        "repeat": args.repeat,
        "seed": args.seed,
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
