"""The parallel executor keeps one long-lived worker per slot.

Worker reuse is checked by PID, with no timing involved: tasks report
the PID of the process that ran them.  A SIGKILLed worker is replaced
exactly once, and no worker outlives a SIGKILLed supervisor.
"""

import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import chaos_helpers
from repro.bgp import BgpConfig
from repro.errors import WorkerCrashError
from repro.experiments import (
    ResiliencePolicy,
    RunSettings,
    SweepJournal,
    TrialTask,
    clique_tdown_trial,
    constant_config,
    factory_ref,
)
from repro.experiments.resilience import run_tasks_supervised

SRC = str(Path(__file__).resolve().parents[2] / "src")
HELPERS = str(Path(__file__).resolve().parent)

MAKE_CONFIG = factory_ref(
    constant_config, config=BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
)


def make_tasks(count):
    return [
        TrialTask(
            index=index,
            x=3,
            seed=index,
            make_scenario=clique_tdown_trial,
            make_config=MAKE_CONFIG,
            settings=RunSettings(),
        )
        for index in range(count)
    ]


class TestWorkerReuse:
    def test_eight_tasks_run_on_at_most_two_workers(self):
        outcomes, report = run_tasks_supervised(
            make_tasks(8), 2, worker_fn=chaos_helpers.report_pid
        )
        assert sorted(outcomes) == list(range(8))
        pids = set(outcomes.values())
        assert len(pids) <= 2
        assert os.getpid() not in pids
        assert (report.completed, report.worker_deaths) == (8, 0)

    def test_never_more_workers_than_tasks(self):
        outcomes, _report = run_tasks_supervised(
            make_tasks(1), 4, worker_fn=chaos_helpers.report_pid
        )
        assert len(set(outcomes.values())) == 1

    def test_sigkilled_worker_is_replaced_exactly_once(self, tmp_path):
        worker_fn = partial(
            chaos_helpers.kill_once_report_pid,
            marker_dir=str(tmp_path),
            kill_index=3,
        )
        outcomes, report = run_tasks_supervised(
            make_tasks(8),
            2,
            ResiliencePolicy(max_retries=1, backoff_base=0.0),
            worker_fn=worker_fn,
        )
        killed = int((tmp_path / "killed-3").read_text(encoding="utf-8"))
        assert sorted(outcomes) == list(range(8))
        assert outcomes[3] != killed  # the retry ran elsewhere
        # The two original workers plus one replacement.
        assert len(set(outcomes.values()) | {killed}) == 3
        assert (report.worker_deaths, report.worker_restarts) == (1, 1)

    def test_default_policy_aborts_on_worker_death(self, tmp_path):
        worker_fn = partial(
            chaos_helpers.kill_once_report_pid,
            marker_dir=str(tmp_path),
            kill_index=0,
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            run_tasks_supervised(make_tasks(4), 2, worker_fn=worker_fn)
        assert excinfo.value.exitcode == -signal.SIGKILL


class TestWorkerSignals:
    def test_workers_reset_the_journal_signal_guard(self, tmp_path):
        """Forked workers must not inherit the supervisor's checkpointing
        SIGINT/SIGTERM handlers, or a Ctrl-C to the process group would
        make every worker write the supervisor's journal."""
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.load()
        with journal.guarded():
            outcomes, _report = run_tasks_supervised(
                make_tasks(2), 2, worker_fn=chaos_helpers.report_signal_handlers
            )
        assert set(outcomes.values()) == {("SIG_DFL", "SIG_DFL")}


DRIVER = """\
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {helpers!r})

from functools import partial

import chaos_helpers
from repro.experiments import RunSettings, TrialTask, clique_tdown_trial
from repro.experiments.resilience import run_tasks_supervised

tasks = [
    TrialTask(
        index=index, x=3, seed=index, make_scenario=clique_tdown_trial,
        make_config=clique_tdown_trial, settings=RunSettings(),
    )
    for index in range(400)
]
run_tasks_supervised(
    tasks, 2,
    worker_fn=partial(chaos_helpers.record_pid_then_sleep, pid_dir={pid_dir!r}),
)
"""


def gone(pid):
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return True
    return stat.rsplit(")", 1)[-1].split()[0] in ("Z", "X")


@pytest.mark.skipif(sys.platform != "linux", reason="relies on /proc")
class TestNoOrphans:
    def test_workers_exit_after_supervisor_sigkill(self, tmp_path):
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        script = tmp_path / "driver.py"
        script.write_text(
            DRIVER.format(src=SRC, helpers=HELPERS, pid_dir=str(pid_dir)),
            encoding="utf-8",
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and len(workers) < 2:
                workers = [int(path.name) for path in pid_dir.iterdir()]
                time.sleep(0.05)
            assert len(workers) == 2, "driver never started both workers"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not all(map(gone, workers)):
                time.sleep(0.05)
            survivors = [pid for pid in workers if not gone(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                if not gone(pid):
                    os.kill(pid, signal.SIGKILL)
        assert survivors == [], "workers outlived their supervisor"
