"""Shared plumbing for the figure benchmarks.

Each benchmark regenerates one paper figure through its driver, saves the
rendered series table under ``benchmarks/results/``, records headline
numbers in the pytest-benchmark ``extra_info``, and asserts the figure's
shape checks.  EXPERIMENTS.md is written from these result files.

:func:`bench_cli` gives a benchmark module a ``python bench_x.py
--jobs N`` entry point that times its figure drivers under the parallel
sweep executor and prints the wall-clock per figure — the quickest way
to see the speedup (or, on tiny topologies, the worker-startup cost).
Long studies that must survive interruption journal their trials with
:func:`repro.experiments.checkpointed_sweep` directly
(``results/<name>.trials.jsonl``; see ``bench_churn.py``).

Committed vs machine-written results
------------------------------------

``benchmarks/results/`` holds two kinds of file with different ownership:

* **Committed** — the rendered ``*.txt`` figure tables that
  :func:`save_figure` writes.  EXPERIMENTS.md is generated from these;
  refreshing one is a reviewed change.
* **Machine-written** (gitignored) — per-machine state no commit should
  carry: sweep trial journals (``*.trials.jsonl``, and the retired
  ``*.points.jsonl``), the continuous-bench perf trajectory
  (``perf_trajectory.jsonl``), and the candidate bench documents the
  service gates (``CANDIDATE_*.json``).

Timing *baselines* never live here at all: the JSON documents that
``compare_baselines.py`` gates against are committed under
``benchmarks/baselines/`` and refreshed deliberately (see README).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

RESULTS_DIR = Path(__file__).parent / "results"


def save_figure(figure) -> Path:
    """Write the figure's rendered table to benchmarks/results/<id>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{figure.figure_id}.txt"
    path.write_text(figure.render() + "\n", encoding="utf-8")
    return path


def record(benchmark, figure, require_checks: bool = True) -> None:
    """Attach the figure's data to the benchmark record and save it.

    ``require_checks=False`` records check outcomes without failing the
    benchmark — used where the paper's claim is known not to reproduce on
    synthetic topologies (documented in EXPERIMENTS.md).
    """
    save_figure(figure)
    benchmark.extra_info["figure"] = figure.figure_id
    benchmark.extra_info["xs"] = list(figure.xs)
    for name, values in figure.series.items():
        benchmark.extra_info[name] = [round(v, 3) for v in values]
    benchmark.extra_info["checks"] = [str(check) for check in figure.checks]
    print()
    print(figure.render())
    if require_checks:
        failures = figure.check_failures()
        assert not failures, "; ".join(str(f) for f in failures)


# ----------------------------------------------------------------------
# Direct bench entry points (python bench_x.py --jobs N)
# ----------------------------------------------------------------------


def bench_cli(
    drivers: Dict[str, Callable[[int], object]],
    argv: Optional[Sequence[str]] = None,
    description: str = "Run figure drivers and report wall-clock time.",
) -> int:
    """Argparse front end shared by the ``__main__`` blocks of bench files.

    ``drivers`` maps a figure id to ``fn(jobs) -> FigureData``.  Each
    requested driver runs once under the given ``--jobs`` and prints its
    table plus the wall-clock seconds, so ``--jobs 4`` vs ``--jobs 1`` is a
    direct speedup measurement.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "figures", nargs="*", choices=[[], *sorted(drivers)],
        help="figure ids to run (default: all)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep trials (0 = one per CPU)",
    )
    args = parser.parse_args(argv)
    chosen = args.figures or sorted(drivers)

    total = 0.0
    for figure_id in chosen:
        start = time.perf_counter()
        figure = drivers[figure_id](args.jobs)
        elapsed = time.perf_counter() - start
        total += elapsed
        save_figure(figure)
        print(figure.render())
        print(f"[{figure_id}] wall-clock {elapsed:.2f}s (jobs={args.jobs})")
        print()
    print(f"total wall-clock {total:.2f}s for {len(chosen)} figure(s) "
          f"with --jobs {args.jobs}")
    return 0
