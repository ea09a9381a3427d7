"""The Minimum Route Advertisement Interval (MRAI) machinery.

"BGP also uses a Minimum Route Advertisement Interval (MRAI) timer to space
out consecutive updates for the same destination by M seconds (default value
30) with a small jitter interval" (§3).  The study implements the timer "on a
per (destination, neighbor) pair base", and so does this module by default
(:data:`MRAI_PER_PREFIX`).

Deployed routers commonly run the coarser variant instead — one timer per
*neighbor*, shared by every destination (:data:`MRAI_PER_PEER`; e.g. the
dragon simulator's ``MRAI_PEER_BASED``).  Multi-prefix workloads make the
distinction observable: a per-peer timer synchronizes the release of held
updates across the whole table, which is what makes batched UPDATEs
(``BgpConfig.batch_updates``) carry many prefixes per message.

Semantics implemented (RFC 1771 / SSFNET style):

* When an advertisement for (prefix, peer) is sent, the timer for that pair
  (per-prefix mode) or for the peer (per-peer mode) is armed with a jittered
  interval.
* While the timer runs, further advertisements it covers are held; when it
  expires the speaker re-derives the desired advertisement(s) from *current*
  state (so intermediate flaps collapse into one update) and, if something
  must be sent, sends it and re-arms.  A per-peer expiry re-derives only
  the prefixes the timer held since the peer's last release
  (:meth:`MraiManager.release_held`) — every other prefix already matches
  what the peer was last sent — under one
  :meth:`MraiManager.flush_window`, arming the shared timer once for the
  whole round.
* Withdrawals bypass the timer unless WRATE is enabled, in which case they
  are held exactly like advertisements.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..engine import Scheduler, Timer
from .messages import Prefix

DEFAULT_MRAI = 30.0
"""The protocol default of M = 30 seconds."""

DEFAULT_JITTER = (0.75, 1.0)
"""RFC 1771's suggested jitter: the configured value scaled by U[0.75, 1]."""

MRAI_PER_PREFIX = "per-prefix"
"""One timer per (peer, prefix) pair — the paper's model and the default."""

MRAI_PER_PEER = "per-peer"
"""One timer per peer, shared by every prefix."""

MRAI_MODES = frozenset({MRAI_PER_PREFIX, MRAI_PER_PEER})

ExpiryCallback = Callable[[int, Optional[Prefix]], None]
"""``callback(peer, prefix)``; ``prefix`` is ``None`` for a per-peer timer
(the speaker re-derives every prefix toward the peer)."""


class MraiManager:
    """MRAI timers for one speaker, per-(peer, prefix) or per-peer.

    Parameters
    ----------
    scheduler:
        Simulation scheduler the timers run on.
    interval:
        The configured M in seconds.  ``0`` disables rate limiting entirely
        (every ``can_send_now`` is True) — used by ablation experiments.
    jitter:
        ``(low, high)`` multiplicative jitter range applied per arming.
    rng:
        Source for jitter draws (a named stream from the run's
        :class:`~repro.engine.rng.RandomStreams`).
    on_expiry:
        ``callback(peer, prefix)`` invoked when a timer fires; the speaker
        re-evaluates what (if anything) to send to that peer.  In per-peer
        mode ``prefix`` is ``None``.
    mode:
        :data:`MRAI_PER_PREFIX` (default) or :data:`MRAI_PER_PEER`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        interval: float,
        jitter: Tuple[float, float],
        rng: random.Random,
        on_expiry: ExpiryCallback,
        mode: str = MRAI_PER_PREFIX,
    ) -> None:
        if interval < 0:
            raise ValueError(f"MRAI interval must be >= 0, got {interval}")
        low, high = jitter
        if not (0 < low <= high):
            raise ValueError(f"jitter range must satisfy 0 < low <= high, got {jitter}")
        if mode not in MRAI_MODES:
            raise ValueError(f"MRAI mode must be one of {sorted(MRAI_MODES)}, got {mode!r}")
        self._scheduler = scheduler
        self._interval = interval
        self._jitter = jitter
        self._rng = rng
        self._on_expiry = on_expiry
        self._mode = mode
        self._timers: Dict[Tuple[int, Optional[Prefix]], Timer] = {}
        # Per-peer flush state: while a peer is in a flush window, sends go
        # through without restarting the shared timer; it is re-armed once
        # at window exit if anything was sent.
        self._flushing: Set[int] = set()
        self._flush_sent: Set[int] = set()
        # Per-peer mode: prefixes whose announcement (MRAI) or withdrawal
        # (WRATE) was held since the peer's last release.
        self._held: Dict[int, Set[Prefix]] = {}

    # ------------------------------------------------------------------

    @property
    def interval(self) -> float:
        """The configured (un-jittered) M value."""
        return self._interval

    @property
    def enabled(self) -> bool:
        return self._interval > 0

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def per_peer(self) -> bool:
        return self._mode == MRAI_PER_PEER

    def _key(self, peer: int, prefix: Prefix) -> Tuple[int, Optional[Prefix]]:
        return (peer, None) if self.per_peer else (peer, prefix)

    def can_send_now(self, peer: int, prefix: Prefix) -> bool:
        """True when no MRAI hold is in effect for ``(peer, prefix)``.

        In per-peer mode a held answer also records ``prefix`` for the
        peer's next release (:meth:`release_held`).
        """
        if not self._interval > 0:
            return True
        if self._mode == MRAI_PER_PEER:
            if peer in self._flushing:
                return True
            timer = self._timers.get((peer, None))
            if timer is None or not timer.running:
                return True
            self.hold(peer, prefix)
            return False
        timer = self._timers.get((peer, prefix))
        return timer is None or not timer.running

    def hold(self, peer: int, prefix: Prefix) -> None:
        """Per-peer mode: have the peer's next expiry re-derive ``prefix``."""
        self._held.setdefault(peer, set()).add(prefix)

    def release_held(self, peer: int) -> List[Prefix]:
        """The prefixes held toward ``peer`` since its last release, sorted;
        the peer's held set starts over empty."""
        return sorted(self._held.pop(peer, ()))

    def mark_sent(self, peer: int, prefix: Prefix) -> None:
        """Record that a rate-limited update was just sent; arm the timer."""
        if not self.enabled:
            return
        if self.per_peer and peer in self._flushing:
            self._flush_sent.add(peer)
            return
        self._arm(peer, prefix)

    def _arm(self, peer: int, prefix: Prefix) -> None:
        key = self._key(peer, prefix)
        timer = self._timers.get(key)
        if timer is None:
            if self.per_peer:
                callback = lambda p=peer: self._on_expiry(p, None)  # noqa: E731
                name = f"mrai:{peer}"
            else:
                callback = lambda p=peer, x=prefix: self._on_expiry(p, x)  # noqa: E731
                name = f"mrai:{peer}:{prefix}"
            timer = Timer(self._scheduler, callback=callback, name=name)
            self._timers[key] = timer
        timer.restart(self._draw_interval())

    @contextmanager
    def flush_window(self, peer: int) -> Iterator[None]:
        """Per-peer expiry round: many sends, one re-arming.

        Inside the window every prefix toward ``peer`` may send
        (``can_send_now`` is True); the shared timer is re-armed exactly
        once at exit — and only if something was actually sent, so an empty
        round leaves the peer unthrottled.  A no-op in per-prefix mode.
        """
        if not self.per_peer or not self.enabled:
            yield
            return
        self._flushing.add(peer)
        self._flush_sent.discard(peer)
        try:
            yield
        finally:
            self._flushing.discard(peer)
            if peer in self._flush_sent:
                self._flush_sent.discard(peer)
                self._arm(peer, "")

    def holding(self, peer: int, prefix: Prefix) -> bool:
        """True while updates for the pair are being held by the timer."""
        return not self.can_send_now(peer, prefix)

    def cancel_peer(self, peer: int) -> None:
        """Drop all timers toward ``peer`` (session went down)."""
        self._flushing.discard(peer)
        self._flush_sent.discard(peer)
        self._held.pop(peer, None)
        for (timer_peer, _prefix), timer in list(self._timers.items()):
            if timer_peer == peer:
                timer.cancel()

    def cancel_all(self) -> None:
        """Drop every timer (the router crashed)."""
        self._flushing.clear()
        self._flush_sent.clear()
        self._held.clear()
        for timer in self._timers.values():
            timer.cancel()

    def active_timers(self) -> int:
        """Number of currently-running timers (diagnostics)."""
        return sum(1 for t in self._timers.values() if t.running)

    # ------------------------------------------------------------------

    def _draw_interval(self) -> float:
        low, high = self._jitter
        return self._interval * self._rng.uniform(low, high)
