"""Per-layer ledger for traced trials, recorded from outside the program.

:class:`Ledger` wraps the public entry points of each layer of
``repro`` (and a few scheduled callbacks that would otherwise be billed
to the event loop) while a traced trial runs, and restores them after.
Every wrapped call pushes a frame on one stack, so a call's *self* time
is its duration minus the time of the wrapped calls inside it, and the
self times of one trial sum to its root span exactly.

Calls that fire a few times per trial become spans (trial id, name,
start, end, parent), exported as Chrome-trace JSON.  Leaf calls that fire
thousands of times per trial -- LPM lookups, FIB writes, message
handlers -- only add to a per-trial count and time, so the ledger does
not hold one record per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (module, owner class or "" for a module function, attribute, layer, span?)
# Module functions are patched where run_experiment looks them up.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, bool], ...] = (
    ("repro.experiments.runner", "", "run_experiment", "experiments", True),
    ("repro.experiments.runner", "", "build_network", "net", True),
    ("repro.engine.scheduler", "Scheduler", "run", "engine", True),
    ("repro.bgp.speaker", "BgpSpeaker", "handle_message", "bgp", False),
    ("repro.bgp.speaker", "BgpSpeaker", "on_link_down", "bgp", False),
    ("repro.bgp.speaker", "BgpSpeaker", "on_link_up", "bgp", False),
    ("repro.bgp.speaker", "BgpSpeaker", "on_session_reset", "bgp", False),
    ("repro.bgp.speaker", "BgpSpeaker", "_on_mrai_expiry", "bgp", False),
    ("repro.bgp.speaker", "BgpSpeaker", "_flush_updates", "bgp", False),
    ("repro.bgp.session", "SessionManager", "_keepalive_due", "bgp", False),
    ("repro.bgp.session", "SessionManager", "_hold_expired", "bgp", False),
    ("repro.bgp.session", "SessionManager", "_retry_due", "bgp", False),
    ("repro.experiments.runner", "", "apply_aggregate", "bgp", True),
    ("repro.experiments.runner", "", "apply_deaggregate", "bgp", True),
    ("repro.prefixes.trie", "RadixTrie", "lookup", "prefixes", False),
    ("repro.prefixes.trie", "RadixTrie", "covered", "prefixes", False),
    ("repro.prefixes.trie", "RadixTrie", "insert", "prefixes", False),
    ("repro.dataplane.traffic", "TrafficMatrix", "seeded", "dataplane", True),
    ("repro.dataplane.traffic_eval", "TrafficMatrixEvaluator", "__init__",
     "dataplane", True),
    ("repro.dataplane.traffic_eval", "TrafficMatrixEvaluator", "evaluate",
     "dataplane", True),
    ("repro.dataplane.epochs", "EpochEvaluator", "evaluate", "dataplane", True),
    ("repro.dataplane.fib", "MultiPrefixFib", "set_entry", "dataplane", False),
    ("repro.experiments.runner", "", "measure_convergence", "core", True),
    ("repro.experiments.runner", "", "loop_timeline", "core", True),
    ("repro.analysis.determinism", "", "fingerprint_run", "analysis", True),
)

ROOT = "trial"
"""The root span: the benchmark's own call of ``run_experiment``."""

LAYERS = (
    "bench", "experiments", "net", "engine", "bgp", "prefixes", "dataplane",
    "core",
)
"""Rows of the self-time table; ``bench`` is the root span's own time."""


class TrialLedger:
    """Counts, total and self seconds per entry point for one trial."""

    def __init__(self, trial: int) -> None:
        self.trial = trial
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.root_s = 0.0

    def layer_self(self, layers: Dict[str, str]) -> Dict[str, float]:
        """Self seconds per layer; the rows sum to :attr:`root_s`."""
        rows = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            layer = layers[name]
            if layer in rows:  # not the fingerprint, which runs after the root
                rows[layer] += seconds
        return rows


class Ledger:
    """Installs the wrappers and keeps spans and per-trial ledgers."""

    def __init__(self) -> None:
        import importlib

        self._targets = []
        self.layers: Dict[str, str] = {}
        for module_name, owner, attribute, layer, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            holder = getattr(module, owner) if owner else module
            name = f"{owner}.{attribute}" if owner else attribute
            self.layers[name] = layer
            self._targets.append((holder, attribute, name, span))
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        """``(trial, span id, name, start, end, parent id)``; parent 0 is none."""
        self.trials: List[TrialLedger] = []
        self._stack: List[list] = []
        self._current: TrialLedger = TrialLedger(-1)
        self._next_id = 1
        self.layers[ROOT] = "bench"
        self._root = self._wrap(
            lambda function, *args, **kwargs: function(*args, **kwargs), ROOT, True
        )

    def _wrap(self, function, name: str, span: bool):
        stack = self._stack
        clock = time.perf_counter
        ledger = self

        def wrapper(*args, **kwargs):
            current = ledger._current
            if span:
                span_id = ledger._next_id
                ledger._next_id += 1
                parent = stack[-1][1] if stack else 0
                frame = [0.0, span_id]
            else:
                frame = [0.0, stack[-1][1] if stack else 0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                current.calls[name] = current.calls.get(name, 0) + 1
                current.total[name] = current.total.get(name, 0.0) + elapsed
                current.self_time[name] = (
                    current.self_time.get(name, 0.0) + elapsed - frame[0]
                )
                if span:
                    ledger.spans.append(
                        (current.trial, span_id, name, start, end, parent)
                    )

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        for holder, attribute, name, span in self._targets:
            if isinstance(holder, type):
                raw = holder.__dict__[attribute]  # keeps a classmethod intact
            else:
                raw = getattr(holder, attribute)
            saved.append((holder, attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, span))
            else:
                wrapped = self._wrap(raw, name, span)
            setattr(holder, attribute, wrapped)
        try:
            yield self
        finally:
            for holder, attribute, raw in reversed(saved):
                setattr(holder, attribute, raw)

    @contextmanager
    def trial(self, trial: int):
        """Attribute wrapped calls to ``trial``.

        Yields ``root(function, *args)``, which calls ``function`` as the
        trial's root span; wrapped calls made in the block outside it (the
        fingerprint) are counted but are not rows of the self-time table.
        """
        self._current = record = TrialLedger(trial)
        try:
            yield self._root
        finally:
            record.root_s = record.total.get(ROOT, 0.0)
            self.trials.append(record)
            self._current = TrialLedger(-1)

    def write_chrome_trace(self, path) -> None:
        """Spans as Chrome-trace complete events (one thread per trial)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": self.layers[name],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": trial,
                "args": {"trial": trial, "id": span_id, "parent": parent},
            }
            for trial, span_id, name, start, end, parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
