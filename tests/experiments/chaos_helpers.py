"""Module-level fault-injecting scenario factories for resilience tests.

The parallel executors require picklable factories, so every chaos
injector here is a module-level function meant to be bound with
``functools.partial`` (picklable for module-level targets).  Injectors
coordinate across worker processes through marker files in a
test-provided directory: "fail once" means *write the marker, then
misbehave*, so the retried attempt sees the marker and sails through.

These run inside sacrificial worker processes — ``os.kill(os.getpid(),
SIGKILL)`` and ``time.sleep`` are the whole point, and none of this code
is importable from the library side.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.experiments.scenarios import tdown_clique


def _marker(marker_dir: str, kind: str, x: float, seed: int) -> Path:
    return Path(marker_dir) / f"{kind}-{x:g}-{seed}"


def kill_once_tdown(x, seed, marker_dir="", kill_key=None):
    """SIGKILL the worker on the first attempt of ``kill_key`` (or of
    every trial when ``kill_key`` is None); build normally afterwards."""
    if kill_key is None or (int(x), seed) == tuple(kill_key):
        marker = _marker(marker_dir, "kill", x, seed)
        if not marker.exists():
            marker.write_text("killed", encoding="utf-8")
            os.kill(os.getpid(), signal.SIGKILL)
    return tdown_clique(int(x))


def kill_always_tdown(x, seed):
    """SIGKILL the worker on *every* attempt — exhausts any retry budget."""
    os.kill(os.getpid(), signal.SIGKILL)
    return tdown_clique(int(x))  # pragma: no cover - never reached


def hang_once_tdown(x, seed, marker_dir="", hang_key=None, sleep_s=60.0):
    """Hang the first attempt of ``hang_key`` (or of every trial when
    ``hang_key`` is None) long enough for the watchdog to kill it."""
    if hang_key is None or (int(x), seed) == tuple(hang_key):
        marker = _marker(marker_dir, "hang", x, seed)
        if not marker.exists():
            marker.write_text("hung", encoding="utf-8")
            time.sleep(sleep_s)
    return tdown_clique(int(x))


def hang_always_tdown(x, seed, sleep_s=60.0):
    """Hang every attempt — exhausts any retry budget via timeouts."""
    time.sleep(sleep_s)
    return tdown_clique(int(x))  # pragma: no cover - never reached


def chaotic_tdown(x, seed, marker_dir="", kill_key=(3, 0), hang_key=(4, 1), sleep_s=60.0):
    """The acceptance scenario: one trial loses its worker to SIGKILL and
    one trial hangs past the watchdog, each exactly once."""
    key = (int(x), seed)
    if key == tuple(kill_key):
        marker = _marker(marker_dir, "kill", x, seed)
        if not marker.exists():
            marker.write_text("killed", encoding="utf-8")
            os.kill(os.getpid(), signal.SIGKILL)
    if key == tuple(hang_key):
        marker = _marker(marker_dir, "hang", x, seed)
        if not marker.exists():
            marker.write_text("hung", encoding="utf-8")
            time.sleep(sleep_s)
    return tdown_clique(int(x))


def slow_tdown(x, seed, delay_s=1.0):
    """Stall inside the worker before building, widening the window in
    which an external test can ``kill -9`` the worker or the driver."""
    time.sleep(delay_s)
    return tdown_clique(int(x))


# ----------------------------------------------------------------------
# Worker functions for run_tasks_supervised(worker_fn=...): they ignore
# the trial and report which process ran it.
# ----------------------------------------------------------------------


def report_pid(task):
    """The PID of the worker that ran ``task``."""
    return os.getpid()


def kill_once_report_pid(task, marker_dir="", kill_index=0, sleep_s=0.05):
    """SIGKILL the worker on the first attempt of task ``kill_index``
    (recording its PID in a marker file first); every other run sleeps
    ``sleep_s`` so the survivors are still busy when the death is seen."""
    marker = Path(marker_dir) / f"killed-{kill_index}"
    if task.index == kill_index and not marker.exists():
        marker.write_text(str(os.getpid()), encoding="utf-8")
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(sleep_s)
    return os.getpid()


def record_pid_then_sleep(task, pid_dir="", sleep_s=0.1):
    """Leave a ``<pid>`` file in ``pid_dir``, then stall ``sleep_s``."""
    (Path(pid_dir) / str(os.getpid())).touch()
    time.sleep(sleep_s)
    return os.getpid()


def report_signal_handlers(task):
    """The worker's SIGINT and SIGTERM dispositions, as handler names."""
    return tuple(
        getattr(signal.getsignal(signum), "name", "python-handler")
        for signum in (signal.SIGINT, signal.SIGTERM)
    )
