"""The benchmark's workloads: their inputs per seed and the per-trial check.

Each workload is a closed loop of complete
:func:`repro.experiments.runner.run_experiment` trials, one at a time in
one process.  Trial ``i`` of a run started with ``--seed S`` uses trial
seed ``S * cycle + i % cycle``: a run sweeps ``cycle`` distinct seeds and
then repeats them, so the process's global intern tables reach a steady
state and every repeated seed must reproduce its first digest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

DEFAULT_SEED = 0
"""The seed whose per-trial digests are committed in ``digests.json``."""

TFLAP_PERIODS = (5.0, 15.0, 45.0, 15.0)
"""Flap period by trial seed.  Period 15 takes half the trials, so the
median falls inside one mode of the trimodal trial-time distribution
rather than on the edge between the 5 s and 15 s modes, and the 45 s
mode holds the 90th percentile."""


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int
    """Distinct trial seeds per run (and digests committed per workload)."""
    min_warm: int
    """Warm trials a run makes even when its deadline has passed."""
    cold_children: int
    """Fresh processes that each time one cold trial, besides the main one."""
    trace_counted: int
    """Traced trials (odd) whose counters are reported."""
    kernel_reps: int
    """Kernel runs per gap between trials (see ``kernel.Bracket``)."""
    make: Callable[[int], Tuple[object, object, object]]
    """``make(trial_seed) -> (scenario, bgp_config, run_settings)``."""


def _tagg(trial_seed: int):
    from repro.bgp import BgpConfig
    from repro.experiments import RunSettings
    from repro.experiments.scenarios import tagg_clique

    return (
        tagg_clique(4, prefixes=512, seed=trial_seed, origins=2, hold=5.0),
        BgpConfig(mrai=2.0, mrai_mode="per-peer", batch_updates=True),
        RunSettings(traffic_matrix=True, traffic_epoch_rows=False),
    )


def _tdown(trial_seed: int):
    from repro.bgp import BgpConfig
    from repro.experiments import RunSettings
    from repro.experiments.scenarios import tdown_clique

    return tdown_clique(12), BgpConfig(), RunSettings()


def _tflap(trial_seed: int):
    from repro.bgp import BgpConfig
    from repro.experiments import RunSettings
    from repro.experiments.scenarios import tflap_bclique

    # The session timers of benchmarks/bench_hotpath.py's tflap case: short
    # hold/keepalive/ConnectRetry against the flap period, so every flap
    # tears sessions down and reconnects them.
    config = BgpConfig(
        hold_time=9.0, keepalive_interval=3.0, connect_retry=0.5,
        connect_retry_cap=4.0,
    )
    period = TFLAP_PERIODS[trial_seed % len(TFLAP_PERIODS)]
    return tflap_bclique(6, period=period, count=3), config, RunSettings()


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # The prefix-scale path; the engine is nearly idle.
        Workload(
            name="tagg-512", cycle=24, min_warm=21, cold_children=6,
            trace_counted=5, kernel_reps=5, make=_tagg,
        ),
        # The message/decision path; bypasses the prefix and traffic layers.
        Workload(
            name="tdown-clique12", cycle=48, min_warm=100, cold_children=15,
            trace_counted=21, kernel_reps=1, make=_tdown,
        ),
        # The timer-driven engine path; bypasses the prefix layers too.
        Workload(
            name="tflap-bclique6", cycle=48, min_warm=100, cold_children=15,
            trace_counted=21, kernel_reps=1, make=_tflap,
        ),
    )
}


def trial_seed(workload: Workload, seed: int, index: int) -> int:
    return seed * workload.cycle + index % workload.cycle


class Trials:
    """One run's inputs and the calls that time and check its trials.

    Constructing it is the benchmark's set-up: it imports ``repro`` and
    generates every input of the run, one (scenario, config, settings)
    per trial seed.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.analysis import determinism
        from repro.experiments import runner

        self.workload = workload
        self.seed = seed
        self._runner = runner
        self._determinism = determinism
        self.inputs = [
            workload.make(trial_seed(workload, seed, i))
            for i in range(workload.cycle)
        ]

    def run(self, index: int, traced: bool = False, root=None):
        """Time trial ``index``; return ``(wall seconds, ExperimentRun)``.

        The clock brackets the public ``run_experiment`` call only.  A
        traced trial turns the telemetry registry on (digest-neutral) and
        makes the call through ``root``, the ledger's root span.
        """
        scenario, config, settings = self.inputs[index % self.workload.cycle]
        if traced:
            settings = replace(settings, telemetry=True)
        args = (scenario, config, settings)
        kwargs = {"seed": trial_seed(self.workload, self.seed, index),
                  "keep_network": True}
        start = time.perf_counter()
        if root is None:
            run = self._runner.run_experiment(*args, **kwargs)
        else:
            run = root(self._runner.run_experiment, *args, **kwargs)
        return time.perf_counter() - start, run

    def digest(self, run) -> str:
        """The run's determinism digest (trace, FIB log and summary)."""
        return self._determinism.fingerprint_run(run).digest


def set_up(workload: Workload, seed: int):
    """Time the set-up, ``(wall seconds, Trials)``, for ``Bracket.time``."""
    start = time.perf_counter()
    trials = Trials(workload, seed)
    return time.perf_counter() - start, trials


def check_run(run) -> Optional[str]:
    """Why the run's outputs are wrong, or ``None`` when they are right."""
    if not run.converged:
        return "did not converge"
    report = run.result.dataplane
    fates = report.delivered + report.dropped_no_route + report.ttl_exhaustions
    if report.packets_sent <= 0 or fates != report.packets_sent:
        return (
            f"packet fates {fates} != packets sent {report.packets_sent}"
        )
    traffic = run.result.traffic
    if run.settings.traffic_matrix:
        if traffic is None:
            return "traffic matrix was not evaluated"
        totals = traffic.delivered + traffic.blackholed + traffic.looped
        if traffic.offered <= 0 or totals != traffic.offered:
            return f"traffic totals {totals} != offered {traffic.offered}"
    return None
