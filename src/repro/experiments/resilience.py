"""Parallel sweep execution: supervised workers, timeouts, retry with backoff.

:func:`run_tasks_supervised` is the only parallel executor: every
``jobs > 1`` sweep and cross-process determinism check runs on it.

* **one long-lived worker process per slot**, connected by its own
  duplex pipe.  A worker loops "receive task, run it, send the outcome"
  until it gets the stop sentinel, so process start-up is paid once per
  slot rather than once per trial, and the supervisor always knows which
  PID runs which :class:`~repro.experiments.sweep.TrialTask`;
* **worker death** (killed PID, crash, nonzero exit) loses only that
  worker's in-flight trial: the supervisor reaps it, starts a
  replacement, and re-submits that one task, never the finished ones;
* **per-trial wall-clock timeouts**: a harness-side watchdog kills the
  worker of any trial that exceeds ``policy.trial_timeout`` and converts
  the hang into a :class:`~repro.errors.TrialTimeoutError`;
* **retry with capped exponential backoff** and *deterministic seeded
  jitter* for the transient failure kinds (death, timeout).  A retry
  re-runs the identical ``TrialTask``, so a retried trial's digest is
  bit-identical to an undisturbed run — resilience never perturbs
  ``digests=True`` equivalence;
* **no orphans**: an idle worker checks that its supervisor is still
  its parent while it waits for the next task, so workers exit shortly
  after a ``kill -9`` of the supervisor instead of holding inherited
  pipes and journal locks open.

Without an explicit policy the executor runs under
:data:`DEFAULT_POLICY`: no retries, and a lost worker aborts the sweep
with :class:`~repro.errors.WorkerCrashError`.

Retry/timeout/restart counts are accumulated in a
:class:`~repro.telemetry.registry.MetricsRegistry` and surfaced as a
:class:`SupervisionReport`, returned by :func:`run_tasks_supervised` and
threaded to callers through ``sweep(..., on_report=...)`` — one report
per sweep, owned by that sweep's caller, so a daemon running many
concurrent sweeps never sees another job's counters.

Determinism boundary: this file is harness-side supervision *about* the
simulation, never inside it — like :mod:`repro.telemetry.profiler` it is
a sanctioned REP101 wall-clock exemption (see ``RULE_EXEMPT_SUFFIXES``
in :mod:`repro.analysis.lint`).  Nothing under engine/net/bgp/dataplane
may import it.  The only randomness is the backoff jitter, drawn from a
``random.Random`` seeded purely by ``(task.index, task.seed, attempt)``
— reproducible by construction and invisible to simulation results.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    AnalysisError,
    ConfigError,
    TrialTimeoutError,
    WorkerCrashError,
)
from ..telemetry.registry import MetricsRegistry, MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotation only)
    from .sweep import ProgressCallback, TrialTask

#: Poll tick (seconds): the upper bound on how stale the watchdog's view
#: of worker liveness/deadlines can be, and on how long an idle worker
#: outlives a killed supervisor.
_TICK = 0.05

#: Seconds a stopping worker gets to exit before it is killed.
_STOP_GRACE = 5.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a sweep survives worker death, hangs, and transient failures.

    ``max_retries``
        Extra attempts granted to a trial after a *transient* failure
        (worker death or watchdog timeout).  ``0`` disables retry; the
        first transient failure is then terminal for that trial.
        Deterministic simulation failures (budget exhaustion,
        non-convergence) are never retried — they would fail identically.
    ``backoff_base`` / ``backoff_cap``
        Re-submission of attempt ``n`` (n >= 2) waits
        ``min(cap, base * 2**(n-2))`` seconds, stretched by the jitter
        below.  The wait is a *cooldown* — other trials keep the workers
        busy while a flaky one sits out its backoff.
    ``jitter``
        Fractional stretch applied to each backoff delay, drawn from a
        ``random.Random`` seeded by ``(task.index, task.seed, attempt)``
        — deterministic for a given sweep shape, so reruns schedule
        identically.
    ``trial_timeout``
        Wall-clock seconds one attempt may run before the watchdog kills
        its worker (``None`` disables the watchdog).  Only enforceable in
        supervised (``jobs > 1``) mode: an in-process trial cannot be
        preempted.
    ``on_exhausted``
        ``"record"`` (default) — a trial whose retries are exhausted is
        recorded as a :class:`~repro.experiments.sweep.TrialTimeout` /
        :class:`~repro.experiments.sweep.TrialFailure` and the sweep
        continues; ``"raise"`` — it aborts the sweep.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    trial_timeout: Optional[float] = None
    on_exhausted: str = "record"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError(
                f"backoff_base/backoff_cap must be >= 0, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ConfigError(
                f"trial_timeout must be positive seconds or None, got "
                f"{self.trial_timeout}"
            )
        if self.on_exhausted not in ("record", "raise"):
            raise ConfigError(
                f"on_exhausted must be 'record' or 'raise', got "
                f"{self.on_exhausted!r}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts one trial may consume (first try + retries)."""
        return self.max_retries + 1

    def backoff_delay(self, index: int, seed: int, attempt: int) -> float:
        """Cooldown before re-submitting ``attempt`` (>= 2) of one task.

        Capped exponential with deterministic seeded jitter: the stream
        is keyed purely on ``(index, seed, attempt)``, so the same sweep
        shape backs off identically on every run — reproducible even in
        its failure handling.
        """
        if attempt < 2:
            return 0.0
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 2)))
        if self.jitter == 0 or base == 0:
            return base
        stream = random.Random(
            ((index + 1) * 2654435761 + seed * 40503 + attempt * 97)
            & 0xFFFFFFFF
        )
        return base * (1.0 + self.jitter * stream.random())


#: The policy behind ``policy=None``: no retries, and a trial whose worker
#: dies aborts the run with :class:`~repro.errors.WorkerCrashError`.
DEFAULT_POLICY = ResiliencePolicy(max_retries=0, on_exhausted="raise")


@dataclass(frozen=True)
class SupervisionReport:
    """What the supervised executor observed during one sweep.

    ``metrics`` is a frozen :class:`~repro.telemetry.registry.
    MetricsSnapshot` carrying the same counts under the
    ``resilience.*`` names, so sweep-level telemetry aggregation can fold
    supervision activity in alongside simulation metrics.
    """

    trials: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    exhausted: int = 0
    metrics: Optional[MetricsSnapshot] = None

    def render(self) -> str:
        return (
            f"resilience: {self.completed}/{self.trials} trials completed, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.worker_deaths} worker deaths "
            f"({self.worker_restarts} restarts), {self.exhausted} exhausted"
        )

    def merged(self, other: "SupervisionReport") -> "SupervisionReport":
        """Combine two reports (counts sum, telemetry snapshots aggregate).

        The reduction for callers that supervise several sweeps — the
        journaled resume loop runs one sweep per x, the service daemon
        one per job segment — and want a single roll-up.
        """
        snapshots = [
            snap for snap in (self.metrics, other.metrics) if snap is not None
        ]
        return SupervisionReport(
            trials=self.trials + other.trials,
            completed=self.completed + other.completed,
            retries=self.retries + other.retries,
            timeouts=self.timeouts + other.timeouts,
            worker_deaths=self.worker_deaths + other.worker_deaths,
            worker_restarts=self.worker_restarts + other.worker_restarts,
            exhausted=self.exhausted + other.exhausted,
            metrics=(
                MetricsSnapshot.aggregate(snapshots) if snapshots else None
            ),
        )


def _mp_context():
    """Prefer ``fork`` (cheap worker start, inherited imports); fall back
    to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(conn, worker_fn, supervisor_pid: int, inherited) -> None:
    """Worker-process body: run tasks from ``conn`` until told to stop.

    ``None`` (or EOF) is the stop sentinel.  Everything a task produces —
    including non-isolated errors like ``SanitizerError`` — goes back
    through the pipe so the supervisor can distinguish "the trial raised"
    from "the worker died".  An outcome that cannot be pickled is
    downgraded to a transportable error.

    A forked worker holds copies of whatever the supervisor had open,
    such as a journal's ``flock``, so it must not outlive the supervisor.
    It closes its copies of the siblings' pipe ends (``inherited``), so a
    worker whose supervisor died gets EPIPE instead of blocking on a full
    pipe nobody reads, and while idle it checks that the supervisor is
    still its parent and exits once it is not.

    A forked worker also inherits the supervisor's Python signal
    handlers, such as the checkpointing ones of ``SweepJournal.guarded()``;
    a Ctrl-C to the process group would make every worker write the
    supervisor's journal.  SIGINT and SIGTERM go back to their defaults.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for other in inherited:
        other.close()
    while True:
        while not conn.poll(_TICK):
            if os.getppid() != supervisor_pid:
                return
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            payload = ("ok", worker_fn(task))
        except BaseException as exc:  # noqa: BLE001 - ferried to supervisor
            payload = ("raise", exc)
        try:
            conn.send(payload)
        except Exception as exc:
            conn.send(
                (
                    "raise",
                    AnalysisError(
                        f"trial outcome for task {task.index} could not "
                        f"cross the process boundary: {exc}"
                    ),
                )
            )


@dataclass
class _Worker:
    """One live worker: its process, pipe, and in-flight task (if any)."""

    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    task: Optional["TrialTask"] = None
    attempt: int = 0
    started: float = 0.0
    deadline: Optional[float] = None


@dataclass
class _Counters:
    """Mutable supervision tallies, mirrored into a telemetry registry."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    completed: int = 0
    exhausted: int = 0

    def bump(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        self.registry.counter(f"resilience.{name}").inc()

    def report(self, trials: int) -> SupervisionReport:
        return SupervisionReport(
            trials=trials,
            completed=self.completed,
            retries=self.retries,
            timeouts=self.timeouts,
            worker_deaths=self.worker_deaths,
            worker_restarts=self.worker_restarts,
            exhausted=self.exhausted,
            metrics=self.registry.snapshot(),
        )


def _drain(conn):
    """One non-blocking recv: the worker's payload, or ``"died"`` on EOF."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return "died"


def _stop_workers(workers: List[_Worker], graceful: bool) -> None:
    """Stop every worker; never raises.

    ``graceful`` sends the stop sentinel and lets idle workers exit on
    their own; otherwise (the abort path) every worker is killed.
    """
    for worker in workers:
        try:
            if graceful and worker.task is None:
                worker.conn.send(None)
            else:
                worker.process.kill()
        except Exception:
            pass
    for worker in workers:
        try:
            worker.process.join(timeout=_STOP_GRACE)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=_STOP_GRACE)
        except Exception:
            pass
        try:
            worker.conn.close()
        except Exception:
            pass


def _exhausted_failure(task: "TrialTask", error, attempt: int, elapsed: float):
    """Build the recorded failure for a trial that ran out of attempts."""
    from .sweep import TrialFailure, TrialTimeout

    if isinstance(error, TrialTimeoutError):
        return TrialTimeout(
            x=task.x,
            seed=task.seed,
            error=error,
            attempt=attempt,
            elapsed=elapsed,
            timeout=error.timeout,
        )
    return TrialFailure(
        x=task.x, seed=task.seed, error=error, attempt=attempt, elapsed=elapsed
    )


def run_tasks_supervised(
    tasks: Sequence["TrialTask"],
    jobs: int,
    policy: Optional[ResiliencePolicy] = None,
    worker_fn: Optional[Callable] = None,
    on_progress: Optional["ProgressCallback"] = None,
) -> Tuple[Dict[int, object], SupervisionReport]:
    """Run every task to a final outcome on at most ``jobs`` workers.

    Returns ``(outcomes keyed by task index, report)``.  Outcomes are
    whatever ``worker_fn`` returned (:class:`~repro.experiments.sweep.
    TrialOutcome` for sweeps) or, for trials whose transient failures
    exhausted the retry budget under ``on_exhausted="record"``, a
    :class:`~repro.experiments.sweep.TrialFailure` /
    :class:`~repro.experiments.sweep.TrialTimeout`.  ``policy=None``
    means :data:`DEFAULT_POLICY`.

    A worker that *reports* an exception (rather than dying) aborts the
    whole run — that path carries non-isolated errors such as
    :class:`~repro.errors.SanitizerError`.
    """
    from .sweep import TrialFailure, TrialProgress, run_trial

    if policy is None:
        policy = DEFAULT_POLICY
    if worker_fn is None:
        worker_fn = run_trial
    if not tasks:
        return {}, _Counters().report(0)

    context = _mp_context()
    counters = _Counters()
    outcomes: Dict[int, object] = {}
    #: (task, attempt) ready to start now, in deterministic task order.
    pending: List[Tuple["TrialTask", int]] = [(task, 1) for task in tasks]
    #: (ready_at, task, attempt) sitting out a backoff cooldown.
    cooling: List[Tuple[float, "TrialTask", int]] = []
    workers: List[_Worker] = []

    def spawn() -> _Worker:
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(
                child_conn,
                worker_fn,
                os.getpid(),
                [worker.conn for worker in workers],
            ),
            name=f"repro-worker-{len(workers)}",
        )
        process.start()
        child_conn.close()
        worker = _Worker(process=process, conn=parent_conn)
        workers.append(worker)
        return worker

    def retire(worker: _Worker) -> None:
        """Drop a dead or timed-out worker, killing it if still alive."""
        workers.remove(worker)
        _stop_workers([worker], graceful=False)

    def dispatch(worker: _Worker, task: "TrialTask", attempt: int) -> bool:
        """Hand ``task`` to an idle worker; False if the worker is gone."""
        try:
            worker.conn.send(task)
        except (BrokenPipeError, ConnectionResetError):
            # Died while idle: no trial was lost, only the process.
            retire(worker)
            counters.bump("worker_deaths")
            return False
        now = time.monotonic()
        worker.task = task
        worker.attempt = attempt
        worker.started = now
        worker.deadline = (
            now + policy.trial_timeout
            if policy.trial_timeout is not None
            else None
        )
        return True

    def finish(task: "TrialTask", outcome: object) -> None:
        outcomes[task.index] = outcome
        counters.bump("completed")
        if on_progress is not None:
            on_progress(
                TrialProgress(
                    done=len(outcomes),
                    total=len(tasks),
                    x=task.x,
                    seed=task.seed,
                    ok=not isinstance(outcome, TrialFailure),
                )
            )

    def transient_failure(worker: _Worker, error) -> None:
        """Worker death or timeout: retry with backoff, or exhaust."""
        task, attempt = worker.task, worker.attempt
        elapsed = time.monotonic() - worker.started
        if attempt < policy.max_attempts:
            counters.bump("retries")
            counters.bump("worker_restarts")
            delay = policy.backoff_delay(task.index, task.seed, attempt + 1)
            cooling.append((time.monotonic() + delay, task, attempt + 1))
            return
        counters.bump("exhausted")
        if policy.on_exhausted == "raise":
            raise error
        finish(task, _exhausted_failure(task, error, attempt, elapsed))

    try:
        while pending or cooling or any(w.task is not None for w in workers):
            now = time.monotonic()
            # Cooldowns that elapsed rejoin the queue in task order.
            ready = [item for item in cooling if item[0] <= now]
            if ready:
                cooling[:] = [item for item in cooling if item[0] > now]
                pending.extend(
                    (task, attempt)
                    for _at, task, attempt in sorted(
                        ready, key=lambda item: item[1].index
                    )
                )
            for worker in [w for w in workers if w.task is None]:
                if not pending:
                    break
                if dispatch(worker, *pending[0]):
                    pending.pop(0)
            while pending and len(workers) < jobs:
                if dispatch(spawn(), *pending[0]):
                    pending.pop(0)

            busy = [w for w in workers if w.task is not None]
            if not busy:
                # Everything is cooling down; sleep until the first wake.
                wake = min(at for at, _t, _a in cooling)
                time.sleep(max(0.0, min(wake - time.monotonic(), _TICK)))
                continue

            timeout = _TICK
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                timeout = max(0.0, min(min(deadlines) - now, _TICK))
            readable = multiprocessing.connection.wait(
                [w.conn for w in busy] + [w.process.sentinel for w in busy],
                timeout=timeout,
            )

            now = time.monotonic()
            for worker in busy:
                # One of: ("ok"|"raise", payload), "died", or None (running).
                result = None
                if worker.conn in readable or worker.conn.poll():
                    result = _drain(worker.conn)
                if result is None and not worker.process.is_alive():
                    # Re-poll once: the result may have landed between the
                    # wait() call and the liveness check.
                    result = (
                        _drain(worker.conn) if worker.conn.poll() else "died"
                    )
                if result is None:
                    if worker.deadline is not None and now >= worker.deadline:
                        retire(worker)
                        counters.bump("timeouts")
                        transient_failure(
                            worker,
                            TrialTimeoutError(
                                f"trial (x={worker.task.x}, "
                                f"seed={worker.task.seed}) exceeded its "
                                f"{policy.trial_timeout}s wall-clock budget "
                                f"on attempt {worker.attempt} and was killed",
                                timeout=policy.trial_timeout or 0.0,
                                attempts=worker.attempt,
                            ),
                        )
                    continue
                if result == "died":
                    retire(worker)
                    exitcode = worker.process.exitcode or 0
                    counters.bump("worker_deaths")
                    transient_failure(
                        worker,
                        WorkerCrashError(
                            f"worker running trial (x={worker.task.x}, "
                            f"seed={worker.task.seed}) died with exit code "
                            f"{exitcode} on attempt {worker.attempt}",
                            exitcode=exitcode,
                            attempts=worker.attempt,
                        ),
                    )
                    continue
                kind, payload = result
                task, attempt = worker.task, worker.attempt
                worker.task = None
                if kind == "raise":
                    raise payload
                if isinstance(payload, TrialFailure):
                    payload = replace(
                        payload, attempt=attempt, elapsed=now - worker.started
                    )
                elif hasattr(payload, "attempt"):
                    payload.attempt = attempt
                finish(task, payload)
    except BaseException:
        _stop_workers(workers, graceful=False)
        raise
    _stop_workers(workers, graceful=True)
    return outcomes, counters.report(len(tasks))


def run_trial_resilient(task: "TrialTask"):
    """Execute one trial in-process with attempt/elapsed provenance.

    The ``jobs=1`` path of every sweep: no subprocess, no preemption (an
    in-process hang cannot be killed, so ``policy.trial_timeout`` is not
    enforced here — that requires the ``jobs > 1`` executor), but
    outcomes carry the same ``attempt``/``elapsed`` provenance as
    supervised ones, and the wrapper's overhead over a bare
    :func:`~repro.experiments.sweep.run_trial` is one clock read per
    trial — benchmarked under 5% by the ``chaos-smoke`` CI job.
    """
    from .sweep import TrialFailure, run_trial

    started = time.monotonic()
    outcome = run_trial(task)
    elapsed = time.monotonic() - started
    if isinstance(outcome, TrialFailure):
        return replace(outcome, attempt=1, elapsed=elapsed)
    outcome.attempt = 1
    return outcome
