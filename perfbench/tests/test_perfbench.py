"""Self-tests of the benchmark's measurement method.

    python3 -m pytest perfbench/tests -q

They check that kernel units measure work and cancel host slowdowns, that
the kernel stays small, that the traced ledger is exact and repeatable,
and that the benchmark refuses to report without the simulator sources.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kernel  # noqa: E402
from kernel import Bracket  # noqa: E402


def _synthetic(rounds: int):
    """A trial of ``rounds`` kernel runs: known work, in ku, by design.

    Like the kernel it runs with the collector off, so a full collection of
    the test runner's own heap cannot land inside one trial and not another.
    """
    def trial():
        start = time.perf_counter()
        for _ in range(rounds):
            kernel.kernel()
        return time.perf_counter() - start, rounds
    return trial


def _paired_ratio(numerator, denominator, pairs: int = 21) -> float:
    """Median over alternating pairs of ku(numerator) / ku(denominator)."""
    bracket = Bracket()
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            low = bracket.time(denominator)[0]
            high = bracket.time(numerator)[0]
        else:
            high = bracket.time(numerator)[0]
            low = bracket.time(denominator)[0]
        ratios.append(high / low)
    return statistics.median(ratios)


def test_fixed_extra_work_grows_ku_by_that_fraction():
    ratio = _paired_ratio(_synthetic(5), _synthetic(4))
    assert abs(ratio - 1.25) < 0.1, ratio


def test_a_trial_of_k_kernel_bodies_is_about_k_ku():
    bracket = Bracket()
    kus = [bracket.time(_synthetic(3))[0] for _ in range(7)]
    assert 2.5 < statistics.median(kus) < 3.5, kus


def _profiled(hook):
    """One bracketed 3-kernel trial with ``hook`` as the profile function."""
    sys.setprofile(hook)
    try:
        return Bracket().time(_synthetic(3))
    finally:
        sys.setprofile(None)


def test_uniform_slowdown_cancels():
    """A profile hook slows every Python call of kernel and trial alike."""
    def hook(frame, event, arg):
        return None

    pairs = []
    for _ in range(11):  # interleaved, so a change of host speed hits both
        pairs.append((_profiled(None), _profiled(hook)))
    wall_ratio = statistics.median(s[1] / p[1] for p, s in pairs)
    assert wall_ratio > 1.3, wall_ratio
    ku_ratio = statistics.median(s[0] / p[0] for p, s in pairs)
    assert abs(ku_ratio - 1) < 0.1, ku_ratio


def test_kernel_allocates_under_one_megabyte():
    kernel.kernel()
    tracemalloc.start()
    try:
        kernel.kernel()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _traced_counters(name: str, indices):
    import run
    from ledger import Ledger
    from workloads import WORKLOADS, Trials

    trials = Trials(WORKLOADS[name], 0)
    ledger = Ledger()
    counters = []
    for index in indices:
        with ledger.installed(), ledger.trial(index) as root:
            _wall, result = trials.run(index, traced=True, root=root)
        record = ledger.trials[-1]
        rows = record.layer_self(ledger.layers)
        assert abs(sum(rows.values()) - record.root_s) < 1e-9
        counters.append(run.counters_of(result, record))
    return counters


def test_traced_counters_repeat_exactly_for_seed_0():
    first = _traced_counters("tdown-clique12", (1, 2, 3))
    second = _traced_counters("tdown-clique12", (1, 2, 3))
    assert first == second
    assert all(c["prefixes.lpm_lookups"] == 0 for c in first)
    assert all(c["engine.events_executed"] > 0 for c in first)


def test_lpm_lookups_only_on_the_prefix_workload():
    (tflap,) = _traced_counters("tflap-bclique6", (0,))
    assert tflap["prefixes.lpm_lookups"] == 0
    assert tflap["net.keepalives_sent"] > 0
    (tagg,) = _traced_counters("tagg-512", (0,))
    assert tagg["prefixes.lpm_lookups"] > 0
    assert tagg["dataplane.fib_writes"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tdown-clique12",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_names_the_current_kernel_in_every_ku_unit():
    import json

    with open(HERE.parent / "BENCHMARK.json") as handle:
        document = json.load(handle)
    metrics = document["end_to_end"] + document["per_layer"]
    ku_units = {m["unit"] for m in metrics if "ku" in m["unit"]}
    assert ku_units == {kernel.KU, "1/" + kernel.KU}
    for metric in metrics:
        if metric["name"].endswith("_ku"):
            assert metric["unit"] in ku_units, metric
