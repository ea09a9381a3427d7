"""Traffic-weighted data-plane evaluation over prefix populations.

The paper's ``looping_ratio`` treats every packet equally and one destination
at a time.  Production damage is weighted: a loop that catches the heaviest
flows of a 256-prefix table hurts more than one catching a trickle.
:class:`TrafficMatrixEvaluator` replays the run's FIB log as *multi-prefix*
epochs (any change to any prefix is a boundary), resolves every flow by
longest prefix match, and reports the **fraction of offered traffic** that
was looped / blackholed / delivered — the ROADMAP's millions-of-users metric.

Per epoch the forwarding state for one destination address is a functional
graph, held as that destination's *next-hop vector*: one LPM result per node.
All sources sharing a destination are classified from the vector by one
walker that applies :func:`~repro.dataplane.packet.walk_lpm`'s hop and TTL
rule, with no further LPM lookups.  All accounting is integer packet counts
from the CBR arithmetic (:func:`~repro.dataplane.traffic.first_index`), so
results are bit-identical with and without numpy, across platforms and
across process counts.

The evaluator does work in proportion to the forwarding changes that can
move a flow's fate, not to epochs × flows:

* :meth:`FibChangeLog.multi_epochs` reports the ``(node, prefix)`` pairs
  written at each epoch boundary.  Only that node's hop can have moved, and
  only for the destinations the prefix covers (a fixed set per prefix, read
  once from an inverted destination index), so a pair costs one LPM lookup
  per covered destination;
* a destination is reclassified only when its next-hop vector really moved,
  and classifications are memoized by (vector, source set), so the memo is
  bounded by the number of distinct forwarding graphs, not destinations;
* CBR counting is an index difference, so per-flow counts telescope exactly
  over any partition of the window: a destination (totals mode) or the
  whole matrix (epoch-rows mode) is accounted only when some fate actually
  changes — once per constant-fate segment — with bit-identical totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..prefixes import ADDRESS_BITS, PrefixSpec, parse_prefix
from ..prefixes.trie import RadixTrie
from .fib import Destination, FibChangeLog, MultiPrefixFib, Prefix
from .packet import DEFAULT_TTL
from .traffic import TrafficMatrix, first_index

try:  # numpy is optional: the pure-python path is exactly equivalent.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

# Fate codes double as indices into a [delivered, blackholed, looped] tally.
_DELIVERED = 0
_BLACKHOLED = 1
_LOOPED = 2

Vector = Tuple[Optional[int], ...]
"""One destination's next hop at every node, in ``_nodes`` order."""


@dataclass(frozen=True, slots=True)
class EpochTraffic:
    """Traffic accounting for one multi-prefix epoch."""

    start: float
    end: float
    offered: int
    delivered: int
    blackholed: int
    looped: int

    @property
    def looped_fraction(self) -> float:
        return self.looped / self.offered if self.offered else 0.0

    @property
    def blackholed_fraction(self) -> float:
        return self.blackholed / self.offered if self.offered else 0.0


@dataclass
class TrafficReport:
    """Offered-traffic fate totals over an evaluation window.

    All counts are integer packets (CBR arithmetic), so every derived
    fraction is an exact ratio of integers — digest-safe.
    """

    window: Tuple[float, float]
    flows: int = 0
    prefixes: int = 0
    offered: int = 0
    delivered: int = 0
    blackholed: int = 0
    looped: int = 0
    epoch_rows: List[EpochTraffic] = field(default_factory=list)

    @property
    def looped_fraction(self) -> float:
        """Fraction of offered traffic that died looping (traffic-weighted
        analogue of the paper's looping ratio)."""
        return self.looped / self.offered if self.offered else 0.0

    @property
    def blackholed_fraction(self) -> float:
        """Fraction of offered traffic dropped for lack of a route."""
        return self.blackholed / self.offered if self.offered else 0.0

    @property
    def delivered_fraction(self) -> float:
        return self.delivered / self.offered if self.offered else 0.0

    @property
    def lost_fraction(self) -> float:
        """Looped plus blackholed, as a fraction of offered traffic."""
        return (self.looped + self.blackholed) / self.offered if self.offered else 0.0

    def worst_epoch(self) -> Optional[EpochTraffic]:
        """The epoch with the highest looped fraction (ties: earliest)."""
        worst: Optional[EpochTraffic] = None
        for row in self.epoch_rows:
            if worst is None or row.looped_fraction > worst.looped_fraction:
                worst = row
        return worst


class TrafficMatrixEvaluator:
    """Computes a :class:`TrafficReport` from a FIB log and a traffic matrix.

    Parameters
    ----------
    log:
        The run's :class:`~repro.dataplane.fib.FibChangeLog` (all prefixes).
    matrix:
        The offered demand.
    ttl:
        Initial TTL.  With ``ttl`` at least the node count, TTL death
        coincides with cycle membership; below it a packet can also die of
        sheer path length, which the walker reproduces hop by hop.
    use_numpy:
        ``None`` (default) uses numpy when importable; ``False`` forces the
        pure-python path; ``True`` raises if numpy is missing.  numpy only
        vectorizes the whole-matrix packet counts of epoch-rows mode; both
        paths produce identical integers — the switch exists for the
        equivalence tests and numpy-free installs.
    epoch_rows:
        ``True`` (default) collects one :class:`EpochTraffic` row per
        constant-fate segment of the whole matrix — a row closes only where
        some flow's fate changes — which costs one whole-matrix accounting
        pass per row.  ``False`` accounts each destination separately, only
        when its own fates change: the report's totals (and every derived
        fraction) are bit-identical — per-flow CBR counts telescope exactly
        across any partition of the window — but ``report.epoch_rows``
        stays empty.  Use for 10k+ prefix populations where per-row detail
        is not worth O(rows × flows).
    """

    def __init__(
        self,
        log: FibChangeLog,
        matrix: TrafficMatrix,
        ttl: int = DEFAULT_TTL,
        use_numpy: Optional[bool] = None,
        epoch_rows: bool = True,
    ) -> None:
        if not matrix.flows:
            raise AnalysisError("traffic matrix has no flows")
        if ttl < 1:
            raise AnalysisError(f"ttl must be >= 1, got {ttl}")
        if use_numpy and _np is None:
            raise AnalysisError("numpy requested but not importable")
        self._log = log
        self._matrix = matrix
        self._ttl = ttl
        self._numpy = (_np is not None) if use_numpy is None else bool(use_numpy)
        self._epoch_rows = bool(epoch_rows)
        # Group flows by destination once: all flows to one address share a
        # functional graph per epoch and classify together.
        self._flows_of: Dict[Destination, List] = {}
        for flow in matrix.flows:
            self._flows_of.setdefault(flow.destination, []).append(flow)
        self._destinations = list(self._flows_of)
        # Destinations whose flows come from the same sources share one
        # memo entry per forwarding graph.
        self._sources_of: Dict[Destination, Tuple[int, ...]] = {
            dest: tuple(flow.source for flow in flows)
            for dest, flows in self._flows_of.items()
        }
        self._memo: Dict[Tuple[Vector, Tuple[int, ...]], Tuple[int, ...]] = {}
        if self._numpy and self._epoch_rows:
            # Flat flow order (grouped by destination, as ``fates`` chains
            # them) for the whole-matrix counts of one row.
            flat = [f for dest in self._destinations for f in self._flows_of[dest]]
            self._flat_starts = _np.array([f.start for f in flat], dtype=_np.float64)
            self._flat_rates = _np.array([f.rate for f in flat], dtype=_np.float64)
        # The node universe of the next-hop vectors: anywhere a packet can
        # start or be forwarded through.
        nodes = {flow.source for flow in matrix.flows}
        for change in log:
            nodes.add(change.node)
            if change.next_hop is not None:
                nodes.add(change.next_hop)
        self._nodes = sorted(nodes)
        self._node_index = {node: i for i, node in enumerate(self._nodes)}
        # Inverted destination index: every integer destination as a /32
        # entry, so "which destinations does this prefix cover?" is one
        # specifics slice, not a scan.  The answer is fixed per prefix, so
        # it is asked once per prefix and kept.  Opaque destinations match
        # exactly, by name.
        self._dest_index = RadixTrie()
        self._opaque = set()
        for dest in self._destinations:
            if isinstance(dest, int):
                self._dest_index.insert(PrefixSpec(dest, ADDRESS_BITS), dest)
            else:
                self._opaque.add(dest)
        self._covered: Dict[Prefix, Tuple[Destination, ...]] = {}

    # ------------------------------------------------------------------

    def evaluate(self, start: float, end: float) -> TrafficReport:
        """Evaluate flow fates over ``[start, end)``."""
        if end < start:
            raise AnalysisError(f"window end {end} before start {start}")
        report = TrafficReport(
            window=(start, end),
            flows=len(self._matrix.flows),
            prefixes=len(self._matrix.prefixes()),
        )
        # Before the first epoch every FIB is empty: every vector is all
        # "no route" and every flow is blackholed.  The first epoch's
        # changed pairs are everything applied at or before ``start``.
        empty = (None,) * len(self._nodes)
        vectors: Dict[Destination, Vector] = dict.fromkeys(self._destinations, empty)
        fates = {dest: self._fates_of(empty, dest) for dest in self._destinations}
        tally = [0, 0, 0]
        opened = start  # epoch-rows mode: start of the open row
        since = dict.fromkeys(self._destinations, start)  # totals mode
        evaluated = False
        for t0, _t1, fib, changed in self._log.multi_epochs(start, end):
            evaluated = True
            moved = []
            for dest in self._moved_vectors(fib, changed, vectors):
                new = self._fates_of(vectors[dest], dest)
                if new != fates[dest]:
                    moved.append((dest, new))
            if not moved:
                continue
            if not self._epoch_rows:
                for dest, _new in moved:
                    if any(fates[dest]) and t0 > since[dest]:
                        self._account(tally, dest, fates[dest], since[dest], t0)
                    since[dest] = t0
            elif t0 > opened:
                self._close_row(report, tally, fates, opened, t0)
                opened = t0
            for dest, new in moved:
                fates[dest] = new
        if not evaluated:
            return report
        if self._epoch_rows:
            self._close_row(report, tally, fates, opened, end)
            report.offered = sum(tally)
            report.delivered, report.blackholed, report.looped = tally
            return report
        # Totals mode accounts only segments in which some flow was not
        # delivered; per-flow counts telescope, so delivered traffic is
        # exactly what the whole window offered minus the rest.
        for dest in self._destinations:
            if any(fates[dest]):
                self._account(tally, dest, fates[dest], since[dest], end)
        report.offered = sum(f.count_in(start, end) for f in self._matrix.flows)
        report.blackholed, report.looped = tally[_BLACKHOLED], tally[_LOOPED]
        report.delivered = report.offered - report.blackholed - report.looped
        return report

    # ------------------------------------------------------------------
    # Change propagation: (node, prefix) pairs -> moved vectors -> fates
    # ------------------------------------------------------------------

    def _moved_vectors(
        self,
        fib: MultiPrefixFib,
        changed: Sequence[Tuple[int, Prefix]],
        vectors: Dict[Destination, Vector],
    ) -> Dict[Destination, None]:
        """Re-resolve the hops ``changed`` can move; the destinations whose
        vector really moved, in first-moved order.

        Exact, not heuristic: ``fib.next_hop(node, address)`` can only move
        when an entry at ``node`` for a prefix *containing* the address
        (structured) or equal to it (opaque legacy name) was written."""
        moved: Dict[Destination, None] = {}
        for node, prefix in changed:
            covered = self._covered.get(prefix)
            if covered is None:
                covered = self._covered[prefix] = self._covered_by(prefix)
            if not covered:
                continue
            i = self._node_index[node]
            for dest in covered:
                hop = fib.next_hop(node, dest)
                vector = vectors[dest]
                if vector[i] != hop:
                    vectors[dest] = vector[:i] + (hop,) + vector[i + 1:]
                    moved[dest] = None
        return moved

    def _covered_by(self, prefix: Prefix) -> Tuple[Destination, ...]:
        spec = parse_prefix(prefix)
        if spec is None:
            return (prefix,) if prefix in self._opaque else ()
        return tuple(dest for _spec, dest in self._dest_index.covered(spec))

    def _fates_of(self, vector: Vector, dest: Destination) -> Tuple[int, ...]:
        """Fate codes of ``dest``'s flows, in flow order, under ``vector``."""
        sources = self._sources_of[dest]
        fates = self._memo.get((vector, sources))
        if fates is None:
            fates = self._memo[(vector, sources)] = self._walk(vector, sources)
        return fates

    def _walk(self, vector: Vector, sources: Tuple[int, ...]) -> Tuple[int, ...]:
        """Classify a packet from each source with ``walk_lpm``'s rule.

        Each hop reads the vector instead of an LPM table; a revisit means
        a cycle, and ``hops > ttl`` is TTL death.  With ``ttl`` at least the
        node count a revisit always comes first, so a walk's fate is a
        property of the graph alone and propagates to every node on its
        trail (every node feeding a cycle spins with it); below that, TTL
        can die of sheer path length and each source walks on its own.
        """
        index = self._node_index
        ttl = self._ttl
        settled: Optional[Dict[int, int]] = {} if ttl >= len(vector) else None
        fates = []
        for source in sources:
            node = source
            hops = 0
            trail: Dict[int, None] = {}
            while True:
                if settled is not None and node in settled:
                    fate = settled[node]
                    break
                hop = vector[index[node]]
                if hop == node:
                    fate = _DELIVERED
                    break
                if hop is None:
                    fate = _BLACKHOLED
                    break
                hops += 1
                if hops > ttl:
                    fate = _LOOPED
                    break
                trail[node] = None
                node = hop
                if node in trail:
                    fate = _LOOPED
                    break
            if settled is not None:
                settled[node] = fate
                for walked in trail:
                    settled[walked] = fate
            fates.append(fate)
        return tuple(fates)

    # ------------------------------------------------------------------
    # Exact accounting: CBR counts telescope over constant-fate segments
    # ------------------------------------------------------------------

    def _account(
        self,
        tally: List[int],
        dest: Destination,
        fates: Tuple[int, ...],
        t0: float,
        t1: float,
    ) -> None:
        """Add ``dest``'s packets over ``[t0, t1)`` to ``tally`` by fate."""
        for flow, fate in zip(self._flows_of[dest], fates):
            tally[fate] += flow.count_in(t0, t1)

    def _close_row(
        self,
        report: TrafficReport,
        tally: List[int],
        fates: Dict[Destination, Tuple[int, ...]],
        t0: float,
        t1: float,
    ) -> None:
        """Account the whole matrix over ``[t0, t1)`` as one epoch row."""
        if self._numpy:
            counts = self._counts_vector(t0, t1)
            codes = _np.fromiter(
                chain.from_iterable(fates[d] for d in self._destinations),
                dtype=_np.int64,
                count=len(counts),
            )
            row = [int(counts[codes == fate].sum()) for fate in range(3)]
        else:
            row = [0, 0, 0]
            for dest in self._destinations:
                self._account(row, dest, fates[dest], t0, t1)
        for fate in range(3):
            tally[fate] += row[fate]
        report.epoch_rows.append(EpochTraffic(t0, t1, sum(row), *row))

    def _counts_vector(self, t0: float, t1: float):
        """:meth:`Flow.count_in` over every flow at once.

        Runs :func:`~repro.dataplane.traffic.first_index` elementwise, so
        each element equals ``flow.count_in(t0, t1)`` bitwise."""

        def index(time: float):
            return first_index(
                time, self._flat_starts, self._flat_rates, _np.ceil, _np.maximum
            ).astype(_np.int64)

        return _np.maximum(index(t1) - index(t0), 0)
