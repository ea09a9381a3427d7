"""Host-normalized benchmark of the BGP simulator.

    python3 perfbench/run.py --workload tagg-512 --seed 0 --seconds 30 --trace 0

Runs one workload's closed loop of complete ``run_experiment`` trials for
about ``--seconds`` seconds, one trial at a time, and prints a report and,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Every trial is bracketed by the calibration kernel (``kernel.py``) and
reported in kernel units: ku = trial wall time / mean of the two kernel
times around it.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced trials and reports the
per-layer ledger (``ledger.py``), writing its spans as Chrome-trace JSON
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from statistics import median, quantiles  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from kernel import KERNEL_VERSION, KU, Bracket  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Trials, check_run, set_up  # noqa: E402

HARD_STOP_S = 150.0
"""No new trial starts this long after launch, whatever the minimums."""


def p90(values):
    return quantiles(values, n=10)[-1]


def iqr_ratio(values):
    q1, q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / q2


class Tally:
    """Attempted/failed trials and the correctness checks behind them."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._first_digest = {}
        self._expected = None
        if seed == DEFAULT_SEED:
            with open(HERE / "digests.json") as handle:
                self._expected = json.load(handle)["workloads"][workload.name]

    def record(self, index: int, error, digest) -> bool:
        """Count one trial; ``False`` (and a failure) when it is wrong."""
        self.attempted += 1
        slot = index % self.workload.cycle
        if error is None and self._expected is not None:
            if digest != self._expected[slot]:
                error = f"digest {digest[:12]} != committed {self._expected[slot][:12]}"
        if error is None:
            first = self._first_digest.setdefault(slot, digest)
            if digest != first:
                error = f"digest {digest[:12]} != earlier run of the seed {first[:12]}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"trial {index}: {error}")
            return False
        return True


def running_s() -> float:
    return time.perf_counter() - _START


def cold_child(workload, seed: int, index: int) -> dict:
    """One cold trial in a fresh interpreter (``cold.py``)."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), "--workload", workload.name,
             "--seed", str(seed), "--index", str(index)],
            capture_output=True, text=True, check=False,
            timeout=max(1.0, HARD_STOP_S - running_s()),
        )
    except subprocess.TimeoutExpired:
        return {"error": "cold child timed out"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"cold child exited {done.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


class Loop:
    """Kernel-bracketed trials of one run, each checked after it ends."""

    def __init__(self, trials: Trials, tally: Tally, bracket: Bracket) -> None:
        self.trials = trials
        self.tally = tally
        self.bracket = bracket

    def trial(self, index: int, ledger=None):
        """One trial; ``(ku, wall seconds, run)``, or ``None`` when it failed.

        With a ledger the trial is traced: the ledger's wrappers are
        installed and the fingerprint is billed to it as well.
        """
        try:
            if ledger is None:
                done = self.bracket.time(lambda: self.trials.run(index))
                digest = self.trials.digest(done[2])
            else:
                with ledger.installed(), ledger.trial(index) as root:
                    done = self.bracket.time(
                        lambda: self.trials.run(index, traced=True, root=root)
                    )
                    digest = self.trials.digest(done[2])
        except Exception as exc:  # a raised trial is a failed trial
            self.tally.record(index, f"{type(exc).__name__}: {exc}", None)
            return None
        error = check_run(done[2])
        if error is None and ledger is not None:
            record = ledger.trials[-1]
            gap = sum(record.layer_self(ledger.layers).values()) - record.root_s
            if abs(gap) > 1e-9:
                error = f"self times miss the root span by {gap:.3g} s"
        return done if self.tally.record(index, error, digest) else None


def end_to_end(loop: Loop, seconds: float, setup_s: float):
    """Warm trials until the deadline, with the cold children spread among
    them so that their samples span the run rather than its first seconds;
    the metrics."""
    workload, tally = loop.trials.workload, loop.tally
    deadline = _START + seconds
    setups = [setup_s]
    cold = []  # (ku, wall)
    first = loop.trial(0)
    if first is not None:
        cold.append(first[:2])
    children = iter(range(1, workload.cold_children + 1))
    every = max(1, workload.min_warm // workload.cold_children)
    warm = []  # (ku, wall, route changes)
    index = 1
    while running_s() < HARD_STOP_S and (
        time.perf_counter() < deadline or len(warm) < workload.min_warm
    ):
        if index % every == 0:
            child = next(children, None)
            if child is not None:
                result = cold_child(workload, loop.trials.seed, child)
                loop.bracket.resync()
                error, digest = result.get("error"), result.get("digest", "")
                if tally.record(child, error, digest):
                    setups.append(result["setup_s"])
                    cold.append((result["ku"], result["wall_s"]))
        done = loop.trial(index)
        index += 1
        if done is not None:
            ku, wall, run = done
            warm.append((ku, wall, len(run.route_log)))
    if not warm or not cold:
        return None, []
    warm_ku = [w[0] for w in warm]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (median(setups), "s"),
        "cold_trial_ku": (median(c[0] for c in cold), KU),
        "trial_p50_ku": (median(warm_ku), KU),
        "route_changes_per_ku": (median(w[2] / w[0] for w in warm), "1/" + KU),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    rows = [
        ("setup_s", median(setups), "s", "", len(setups)),
        ("cold_trial_ku", metrics["cold_trial_ku"][0], KU,
         f"{median(c[1] for c in cold):.4f} s", len(cold)),
        ("trial_p50_ku", metrics["trial_p50_ku"][0], KU,
         f"{median(w[1] for w in warm):.4f} s", len(warm)),
    ]
    if len(warm) >= 100:  # ten samples beyond the 90th percentile
        rows.append(("trial_p90_ku", p90(warm_ku), KU,
                     f"{p90([w[1] for w in warm]):.4f} s", len(warm)))
    rows += [
        ("route_changes_per_ku", metrics["route_changes_per_ku"][0], "1/" + KU,
         f"{median(w[2] / w[1] for w in warm):.1f} 1/s", len(warm)),
        ("peak_rss_mb", rss_mb, "MB", "", 1),
        ("host.kernel_ms_p50", median(loop.bracket.kernels) * 1e3, "ms", "",
         len(loop.bracket.kernels)),
        ("host.kernel_iqr_ratio", iqr_ratio(loop.bracket.kernels), "ratio", "",
         len(loop.bracket.kernels)),
        ("bench.trial_p50_s", median(w[1] for w in warm), "s", "", len(warm)),
    ]
    return metrics, rows


def counters_of(run, ledger_record) -> dict:
    """Deterministic per-trial counts: the registry plus wrapper calls."""
    registry = run.metrics.counters
    sent = sum(v for k, v in registry.items() if k.startswith("net.messages_sent."))
    calls = ledger_record.calls
    return {
        "engine.events_scheduled": registry.get("engine.events_scheduled", 0),
        "engine.events_executed": registry.get("engine.events_executed", 0),
        "net.messages_sent": sent,
        "net.keepalives_sent": registry.get("net.messages_sent.Keepalive", 0),
        "bgp.decision_runs": registry.get("bgp.decision_runs", 0),
        "bgp.route_changes": len(run.route_log),
        "bgp.mrai_expiries": registry.get("bgp.mrai_expiries", 0),
        "bgp.mrai_suppressed": registry.get("bgp.updates_suppressed.mrai", 0),
        "prefixes.lpm_lookups": calls.get("RadixTrie.lookup", 0),
        "prefixes.covered_calls": calls.get("RadixTrie.covered", 0),
        "prefixes.insert_calls": calls.get("RadixTrie.insert", 0),
        "dataplane.fib_writes": calls.get("MultiPrefixFib.set_entry", 0),
    }


# Per-layer time metrics: name -> the entry points whose self time it sums.
SELF_TIME_METRICS = {
    "engine.self_ku": ("Scheduler.run",),
    "net.build_ku": ("build_network",),
    "bgp.handle_ku": ("BgpSpeaker.handle_message", "BgpSpeaker.on_link_down",
                      "BgpSpeaker.on_link_up", "BgpSpeaker.on_session_reset"),
    "bgp.timer_ku": ("BgpSpeaker._on_mrai_expiry", "BgpSpeaker._flush_updates",
                     "SessionManager._keepalive_due",
                     "SessionManager._hold_expired", "SessionManager._retry_due"),
    "bgp.aggregation_ku": ("apply_aggregate", "apply_deaggregate"),
    "prefixes.lpm_ku": ("RadixTrie.lookup",),
    "dataplane.traffic_eval_ku": ("TrafficMatrixEvaluator.evaluate",),
    "dataplane.matrix_build_ku": ("TrafficMatrix.seeded",
                                  "TrafficMatrixEvaluator.__init__"),
    "dataplane.fib_write_ku": ("MultiPrefixFib.set_entry",),
    "dataplane.epoch_eval_ku": ("EpochEvaluator.evaluate",),
    "core.measure_ku": ("measure_convergence", "loop_timeline"),
    "experiments.runner_self_ku": ("run_experiment",),
    "analysis.fingerprint_ku": ("fingerprint_run",),
}


def per_layer(loop: Loop, seconds: float):
    """Pairs of untraced and traced trials until the deadline; the ledger."""
    from ledger import Ledger

    workload, trials = loop.trials.workload, loop.trials
    deadline = _START + seconds
    ledger = Ledger()
    loop.trial(0)  # the cold trial: neither traced nor counted
    plain, traced = [], []  # (ku, wall) / (ku, wall, run counters, ledger)
    index = 1
    while running_s() < HARD_STOP_S and (
        time.perf_counter() < deadline or len(traced) < workload.trace_counted
    ):
        # Both halves of a pair run the same trial seed, so their ratio is
        # the tracing overhead; which half runs first alternates.
        for is_traced in ((False, True) if index % 2 else (True, False)):
            if is_traced:
                done = loop.trial(index, ledger)
                if done is not None:
                    ku, wall, run = done
                    record = ledger.trials[-1]
                    traced.append((ku, wall, counters_of(run, record), record))
            else:
                done = loop.trial(index)
                if done is not None:
                    plain.append(done[:2])
        index += 1
    if len(traced) < workload.trace_counted or not plain:
        return None, []
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-s{trials.seed}"
    ledger.write_chrome_trace(out_dir / f"trace-{stem}.json")

    table = [
        {"trial": record.trial, "root_s": record.root_s, "ku": ku,
         "self_s": record.layer_self(ledger.layers)}
        for ku, _wall, _counts, record in traced
    ]
    with open(out_dir / f"ledger-{stem}.json", "w") as handle:
        json.dump(table, handle, indent=1)

    metrics = {}
    for name, entries in SELF_TIME_METRICS.items():
        metrics[name] = (median(
            sum(rec.self_time.get(e, 0.0) for e in entries) * ku / wall
            for ku, wall, _c, rec in traced
        ), KU)
    counted = [t[2] for t in traced[: workload.trace_counted]]
    for name in counted[0]:
        metrics[name] = (median(c[name] for c in counted), "count")
    totals = {name: sum(c[name] for c in counted) for name in counted[0]}
    metrics["engine.cancel_ratio"] = (
        1 - totals["engine.events_executed"] / totals["engine.events_scheduled"],
        "ratio")
    metrics["bgp.decision_yield"] = (
        totals["bgp.route_changes"] / totals["bgp.decision_runs"], "ratio")
    metrics["dataplane.lpm_per_route_change"] = (
        totals["prefixes.lpm_lookups"] / totals["bgp.route_changes"], "ratio")
    plain_p50 = median(p[0] for p in plain)
    traced_p50 = median(t[0] for t in traced)
    metrics["bench.trace_overhead"] = (traced_p50 / plain_p50 - 1, "ratio")
    metrics["bench.trial_p50_s"] = (median(p[1] for p in plain), "s")
    metrics["host.kernel_ms_p50"] = (median(loop.bracket.kernels) * 1e3, "ms")
    metrics["host.kernel_iqr_ratio"] = (iqr_ratio(loop.bracket.kernels), "ratio")

    layer_rows = [
        (layer, median(t[3].layer_self(ledger.layers)[layer] * t[0] / t[1]
                       for t in traced))
        for layer in table[0]["self_s"]
    ]
    rows = [(f"self[{layer}]", value, KU, "", len(traced))
            for layer, value in layer_rows]
    rows += [(name, value, unit, "", len(traced))
             for name, (value, unit) in sorted(metrics.items())]
    rows.append(("bench.untraced_p50_ku", plain_p50, KU,
                 f"{median(p[1] for p in plain):.4f} s", len(plain)))
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = Tally(workload, args.seed)
    bracket = Bracket(workload.kernel_reps)
    _setup_ku, setup_s, trials = bracket.time(lambda: set_up(workload, args.seed))
    loop = Loop(trials, tally, bracket)
    if args.trace:
        metrics, rows = per_layer(loop, args.seconds)
    else:
        metrics, rows = end_to_end(loop, args.seconds, setup_s)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"kernel=v{KERNEL_VERSION} attempted={tally.attempted} "
          f"failed={tally.failed}")
    for name, value, unit, raw, count in rows:
        print(f"{name:32s} {value:14.6g} {unit:6s} {raw:>16s}  n={count}")
    for error in tally.errors:
        print(f"FAILED {error}")
    if metrics is None:
        print("error: too few successful trials to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
