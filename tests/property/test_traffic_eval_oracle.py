"""Differential test: the change-driven traffic evaluator against a per-packet oracle.

:class:`~repro.dataplane.TrafficMatrixEvaluator` re-resolves only the
``(node, prefix)`` pairs each epoch wrote, reclassifies only destinations
whose next-hop vector moved, and accounts only when a fate moves.  The
oracle here does none of that: for every epoch boundary it replays the
log from scratch into a fresh :class:`~repro.dataplane.MultiPrefixFib`
and forwards one packet per flow with :func:`~repro.dataplane.walk_lpm`,
counting every epoch separately.  Totals must agree exactly in both
modes, with and without numpy, with TTL below and above the node count;
each epoch row must equal the oracle's count over the row's interval.

The logs mix a /22 cover, a /23 and its four /24 specifics, a disjoint
/24 and an opaque legacy name, and include aggregate / deaggregate steps
that write a cover and its specifics at one instant.
"""

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.dataplane import (
    FibChangeLog,
    MultiPrefixFib,
    PacketFate,
    TrafficMatrix,
    TrafficMatrixEvaluator,
    walk_lpm,
)
from repro.dataplane import traffic_eval

COVER = "00000000/22"
HALF = "00000000/23"
SPECIFICS = ("00000000/24", "00000100/24", "00000200/24", "00000300/24")
DISJOINT = "00010000/24"
OPAQUE = "dest"
PREFIXES = (COVER, HALF, *SPECIFICS, DISJOINT, OPAQUE)

BACKENDS = (False, True) if traffic_eval._np is not None else (False,)

_FATE = {
    PacketFate.DELIVERED: 0,
    PacketFate.DROPPED_NO_ROUTE: 1,
    PacketFate.TTL_EXPIRED: 2,
}


@st.composite
def scenarios(draw):
    """``(n, log entries, matrix, window, ttl)`` over nodes ``0..n-1``."""
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = st.integers(min_value=0, max_value=n - 1)
    hops = st.one_of(st.none(), nodes)
    # Half-second instants on a short axis: same-instant groups are common.
    instants = st.integers(min_value=0, max_value=8).map(lambda k: k / 2)
    single = st.tuples(
        st.just("set"), instants, nodes, st.sampled_from(PREFIXES), hops
    )
    aggregate = st.tuples(st.just("aggregate"), instants, nodes, hops)
    deaggregate = st.tuples(st.just("deaggregate"), instants, nodes, hops)
    # One prefix routed along a path through every node, delivered at its
    # end: long paths are where TTL below the node count kills packets.
    chain = st.tuples(
        st.just("chain"), instants, st.permutations(range(n)),
        st.sampled_from(PREFIXES),
    )
    steps = draw(
        st.lists(st.one_of(single, aggregate, deaggregate, chain), max_size=24)
    )
    entries = []
    for step in steps:
        kind, time, node = step[0], step[1], step[2]
        if kind == "chain":
            path = step[2]
            hops_along = [*path[1:], path[-1]]
            entries.extend(
                (time, here, step[3], there) for here, there in zip(path, hops_along)
            )
        elif kind == "set":
            entries.append((time, node, step[3], step[4]))
        elif kind == "aggregate":  # install the cover, withdraw specifics
            entries.append((time, node, COVER, step[3]))
            entries.extend((time, node, p, None) for p in SPECIFICS)
        else:  # install specifics, withdraw the cover
            entries.extend((time, node, p, step[3]) for p in SPECIFICS)
            entries.append((time, node, COVER, None))
    entries.sort(key=lambda entry: entry[0])  # stable: keeps group order
    targets = draw(
        st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=4, unique=True)
    )
    # Origins do not send to their own prefix, so source sets differ
    # between destinations.
    origins = {
        prefix: tuple(draw(st.lists(nodes, max_size=2, unique=True)))
        for prefix in targets
    }
    matrix = TrafficMatrix.seeded(
        list(range(n)),
        targets,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        start=draw(st.sampled_from((0.0, 0.05, 0.3))),
        origins=origins,
    )
    assume(matrix.flows)
    start = draw(instants)
    end = start + draw(st.integers(min_value=0, max_value=10).map(lambda k: k / 4))
    ttl = draw(st.sampled_from(sorted({1, 2, max(1, n - 1), n, n + 1, 128})))
    return n, entries, matrix, (start, end), ttl


def oracle(entries, matrix, window, ttl):
    """Per-epoch ``[(t0, t1, [delivered, blackholed, looped])]`` by brute force."""
    start, end = window
    if end <= start:
        return []
    cuts = sorted({time for time, *_rest in entries if start < time < end})
    bounds = [start, *cuts, end]
    epochs = []
    for t0, t1 in zip(bounds, bounds[1:]):
        fib = MultiPrefixFib()
        for time, node, prefix, hop in entries:
            if time <= t0:
                fib.set_entry(node, prefix, hop)
        tally = [0, 0, 0]
        for flow in matrix.flows:
            fate = walk_lpm(fib, flow.source, flow.destination, ttl).fate
            tally[_FATE[fate]] += flow.count_in(t0, t1)
        epochs.append((t0, t1, tally))
    return epochs


def build_log(entries):
    log = FibChangeLog()
    for time, node, prefix, hop in entries:
        log.record(time, node, prefix, hop)
    return log


def totals(report):
    return [report.offered, report.delivered, report.blackholed, report.looped]


# A deaggregate at node 0 under a cover whose flows then loop via node 1:
# the same-instant cover withdrawal must not leave stale vectors behind.
@example(
    case=(
        2,
        [
            (0.0, 0, COVER, 0),
            (0.0, 1, COVER, 0),
            (1.0, 0, SPECIFICS[0], 1),
            (1.0, 0, SPECIFICS[1], 1),
            (1.0, 0, SPECIFICS[2], 1),
            (1.0, 0, SPECIFICS[3], 1),
            (1.0, 0, COVER, None),
        ],
        TrafficMatrix.seeded([0, 1], [COVER, SPECIFICS[0]], seed=3),
        (0.0, 2.0),
        128,
    )
)
# Shrunk from a search: node 0 delivers while node 1 has no route, then
# node 0 withdraws.  The mixed-fate segment before the change must be
# accounted, not only segments with no delivered flow.
@example(
    case=(
        2,
        [(0.0, 0, COVER, 0), (1.0, 0, COVER, None)],
        TrafficMatrix.seeded([0, 1], [COVER], seed=0),
        (0.0, 2.0),
        128,
    )
)
# A path 0 -> 1 -> 2 -> 3 with TTL 2: node 0's packet dies of path
# length while node 1's, two hops from delivery, arrives.
@example(
    case=(
        4,
        [(0.0, 0, COVER, 1), (0.0, 1, COVER, 2), (0.0, 2, COVER, 3), (0.0, 3, COVER, 3)],
        TrafficMatrix.seeded([0, 1, 2, 3], [COVER], seed=0),
        (0.0, 1.0),
        2,
    )
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_evaluator_matches_per_packet_oracle(case):
    n, entries, matrix, window, ttl = case
    epochs = oracle(entries, matrix, window, ttl)
    expected = [0, 0, 0]
    for _t0, _t1, tally in epochs:
        for fate in range(3):
            expected[fate] += tally[fate]
    expected = [sum(expected), *expected]
    log = build_log(entries)
    for use_numpy in BACKENDS:
        lean = TrafficMatrixEvaluator(
            log, matrix, ttl=ttl, use_numpy=use_numpy, epoch_rows=False
        ).evaluate(*window)
        assert totals(lean) == expected
        assert lean.epoch_rows == []

        full = TrafficMatrixEvaluator(
            log, matrix, ttl=ttl, use_numpy=use_numpy
        ).evaluate(*window)
        assert totals(full) == expected
        rows = full.epoch_rows
        if not epochs:
            assert rows == []
            continue
        # Rows tile the window on oracle epoch boundaries, and each row
        # equals the oracle's per-epoch counts summed over its interval.
        assert rows[0].start == window[0] and rows[-1].end == window[1]
        for left, right in zip(rows, rows[1:]):
            assert left.end == right.start
        for row in rows:
            inside = [t for t0, t1, t in epochs if row.start <= t0 and t1 <= row.end]
            assert inside, "row boundary is not an epoch boundary"
            summed = [sum(t[fate] for t in inside) for fate in range(3)]
            assert [row.delivered, row.blackholed, row.looped] == summed
            assert row.offered == sum(summed)
