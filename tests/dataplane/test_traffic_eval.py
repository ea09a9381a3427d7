"""The traffic-matrix evaluator: seeded matrices, LPM walks, backend parity.

The load-bearing contract: the numpy (vectorized per-row packet counts) and
pure-python accounting paths are *bit identical* — same integer packet
counts, same fractions — so a run's digest does not depend on whether numpy
is importable.
"""

import pytest

from repro.dataplane import (
    FibChangeLog,
    Flow,
    MultiPrefixFib,
    PacketFate,
    TrafficMatrix,
    TrafficMatrixEvaluator,
    walk_lpm,
)
from repro.dataplane import traffic_eval
from repro.errors import AnalysisError, ConfigError

HAVE_NUMPY = traffic_eval._np is not None

# Two /24s under one /22 cover, plus an opaque legacy name.
SPEC_A = "00000000/24"
SPEC_B = "00000100/24"
COVER = "00000000/22"


class TestSeededMatrix:
    def test_same_seed_same_matrix(self):
        a = TrafficMatrix.seeded([1, 2, 3], [SPEC_A, SPEC_B], seed=7)
        b = TrafficMatrix.seeded([1, 2, 3], [SPEC_A, SPEC_B], seed=7)
        assert a == b

    def test_different_seed_different_rates(self):
        a = TrafficMatrix.seeded([1, 2, 3], [SPEC_A], seed=0)
        b = TrafficMatrix.seeded([1, 2, 3], [SPEC_A], seed=1)
        assert [f.rate for f in a.flows] != [f.rate for f in b.flows]

    def test_origins_do_not_send_to_own_prefix(self):
        matrix = TrafficMatrix.seeded(
            [1, 2, 3], [SPEC_A, SPEC_B], seed=0, origins={SPEC_A: (2,)}
        )
        senders = {f.source for f in matrix.flows if f.prefix == SPEC_A}
        assert senders == {1, 3}
        senders_b = {f.source for f in matrix.flows if f.prefix == SPEC_B}
        assert senders_b == {1, 2, 3}

    def test_structured_prefix_shares_one_destination(self):
        matrix = TrafficMatrix.seeded([1, 2, 3, 4], [SPEC_A], seed=3)
        destinations = {f.destination for f in matrix.flows}
        assert len(destinations) == 1
        address = destinations.pop()
        assert 0x000000 <= address < 0x000100  # inside the /24

    def test_opaque_prefix_keeps_string_destination(self):
        matrix = TrafficMatrix.seeded([1, 2], ["dest"], seed=0)
        assert {f.destination for f in matrix.flows} == {"dest"}

    def test_rates_within_range(self):
        matrix = TrafficMatrix.seeded(
            [1, 2, 3], [SPEC_A, SPEC_B], seed=5, rate_range=(2.0, 4.0)
        )
        assert all(2.0 <= f.rate <= 4.0 for f in matrix.flows)

    def test_bad_rate_range_rejected(self):
        with pytest.raises(ConfigError):
            TrafficMatrix.seeded([1], [SPEC_A], seed=0, rate_range=(0.0, 1.0))


class TestWalkLpm:
    def test_specific_shadows_cover(self):
        fib = MultiPrefixFib()
        # Node 1: cover says go to 2, specific says deliver here.
        fib.set_entry(1, COVER, 2)
        fib.set_entry(1, SPEC_A, 1)
        fib.set_entry(2, COVER, 2)
        result = walk_lpm(fib, 1, 0x00000050)  # inside SPEC_A
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 0

    def test_cover_catches_unmatched_specific_space(self):
        fib = MultiPrefixFib()
        fib.set_entry(1, COVER, 2)
        fib.set_entry(1, SPEC_A, 1)
        fib.set_entry(2, COVER, 2)
        # 0x00000350 is inside the /22 but outside SPEC_A -> cover route.
        result = walk_lpm(fib, 1, 0x00000350)
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 1

    def test_no_route_drops(self):
        fib = MultiPrefixFib()
        fib.set_entry(1, SPEC_A, 1)
        result = walk_lpm(fib, 1, 0x00000350)  # outside the only entry
        assert result.fate is PacketFate.DROPPED_NO_ROUTE

    def test_loop_detected(self):
        fib = MultiPrefixFib()
        fib.set_entry(1, SPEC_A, 2)
        fib.set_entry(2, SPEC_A, 1)
        result = walk_lpm(fib, 1, 0x00000050)
        assert result.fate is PacketFate.TTL_EXPIRED
        assert result.looped
        assert result.loop == (1, 2)

    def test_withdrawn_specific_falls_back_to_cover(self):
        fib = MultiPrefixFib()
        fib.set_entry(1, COVER, 2)
        fib.set_entry(1, SPEC_A, 3)
        fib.set_entry(1, SPEC_A, None)  # withdrawn: must not shadow cover
        fib.set_entry(2, COVER, 2)
        result = walk_lpm(fib, 1, 0x00000050)
        assert result.fate is PacketFate.DELIVERED
        assert result.hops == 1


def scripted_log():
    """Three nodes, two prefixes, three epochs: clean, loop+blackhole, healed.

    Node 1 delivers SPEC_A locally throughout.  SPEC_B starts delivered at 3
    via 2; at t=1.0 nodes 2 and 3 loop on it while SPEC_A at node 2 loses its
    route; at t=2.0 everything heals.
    """
    log = FibChangeLog()
    log.record(0.0, 1, SPEC_A, 1)
    log.record(0.0, 2, SPEC_A, 1)
    log.record(0.0, 3, SPEC_A, 2)
    log.record(0.0, 2, SPEC_B, 3)
    log.record(0.0, 3, SPEC_B, 3)
    log.record(0.0, 1, SPEC_B, 2)
    log.record(1.0, 2, SPEC_B, 1)
    log.record(1.0, 1, SPEC_B, 2)  # 1 -> 2 -> 1 loop for SPEC_B
    log.record(1.0, 2, SPEC_A, None)  # blackhole SPEC_A at 2
    log.record(2.0, 2, SPEC_B, 3)
    log.record(2.0, 2, SPEC_A, 1)
    return log


def matrix_for_log():
    return TrafficMatrix.seeded([1, 2, 3], [SPEC_A, SPEC_B], seed=11)


class TestEvaluator:
    def test_report_accounting_consistent(self):
        report = TrafficMatrixEvaluator(
            scripted_log(), matrix_for_log(), use_numpy=False
        ).evaluate(0.0, 3.0)
        assert report.offered > 0
        assert (
            report.delivered + report.blackholed + report.looped
            == report.offered
        )
        assert report.looped > 0 and report.blackholed > 0
        assert 0.0 < report.looped_fraction < 1.0
        assert report.lost_fraction == pytest.approx(
            report.looped_fraction + report.blackholed_fraction
        )

    def test_epoch_rows_cover_window(self):
        report = TrafficMatrixEvaluator(
            scripted_log(), matrix_for_log(), use_numpy=False
        ).evaluate(0.0, 3.0)
        assert report.epoch_rows[0].start == 0.0
        assert report.epoch_rows[-1].end == 3.0
        for left, right in zip(report.epoch_rows, report.epoch_rows[1:]):
            assert left.end == right.start
        assert sum(r.offered for r in report.epoch_rows) == report.offered

    def test_worst_epoch_is_the_looping_one(self):
        report = TrafficMatrixEvaluator(
            scripted_log(), matrix_for_log(), use_numpy=False
        ).evaluate(0.0, 3.0)
        worst = report.worst_epoch()
        assert worst is not None
        assert worst.start == 1.0 and worst.end == 2.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(AnalysisError):
            TrafficMatrixEvaluator(scripted_log(), TrafficMatrix(flows=()))

    def test_backward_window_rejected(self):
        evaluator = TrafficMatrixEvaluator(
            scripted_log(), matrix_for_log(), use_numpy=False
        )
        with pytest.raises(AnalysisError):
            evaluator.evaluate(2.0, 1.0)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
    def test_numpy_and_python_backends_identical(self):
        log, matrix = scripted_log(), matrix_for_log()
        fast = TrafficMatrixEvaluator(log, matrix, use_numpy=True).evaluate(
            0.0, 3.0
        )
        slow = TrafficMatrixEvaluator(log, matrix, use_numpy=False).evaluate(
            0.0, 3.0
        )
        assert (fast.offered, fast.delivered, fast.blackholed, fast.looped) == (
            slow.offered,
            slow.delivered,
            slow.blackholed,
            slow.looped,
        )
        assert fast.epoch_rows == slow.epoch_rows

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
    def test_small_ttl_falls_back_to_walks(self):
        log, matrix = scripted_log(), matrix_for_log()
        # ttl=2 < node count: packets can die of path length, so the
        # walker classifies each source on its own.
        fast = TrafficMatrixEvaluator(
            log, matrix, ttl=2, use_numpy=True
        ).evaluate(0.0, 3.0)
        slow = TrafficMatrixEvaluator(
            log, matrix, ttl=2, use_numpy=False
        ).evaluate(0.0, 3.0)
        assert fast.epoch_rows == slow.epoch_rows

    def test_totals_mode_matches_epoch_rows_mode(self):
        """``epoch_rows=False`` is the memory-lean 10k-prefix path: the
        totals must be bit-identical to the row-keeping evaluation, with
        the row log simply absent."""
        log, matrix = scripted_log(), matrix_for_log()
        full = TrafficMatrixEvaluator(log, matrix, use_numpy=False).evaluate(
            0.0, 3.0
        )
        lean = TrafficMatrixEvaluator(
            log, matrix, use_numpy=False, epoch_rows=False
        ).evaluate(0.0, 3.0)
        assert (lean.offered, lean.delivered, lean.blackholed, lean.looped) == (
            full.offered,
            full.delivered,
            full.blackholed,
            full.looped,
        )
        assert lean.epoch_rows == []
        assert full.epoch_rows

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
    def test_totals_mode_backend_parity(self):
        log, matrix = scripted_log(), matrix_for_log()
        fast = TrafficMatrixEvaluator(
            log, matrix, use_numpy=True, epoch_rows=False
        ).evaluate(0.0, 3.0)
        slow = TrafficMatrixEvaluator(
            log, matrix, use_numpy=False, epoch_rows=False
        ).evaluate(0.0, 3.0)
        assert (fast.offered, fast.delivered, fast.blackholed, fast.looped) == (
            slow.offered,
            slow.delivered,
            slow.blackholed,
            slow.looped,
        )

    def test_flow_count_matches_matrix(self):
        matrix = matrix_for_log()
        report = TrafficMatrixEvaluator(
            scripted_log(), matrix, use_numpy=False
        ).evaluate(0.0, 1.0)
        assert report.flows == len(matrix.flows)
        assert report.prefixes == 2


class TestMultiEpochs:
    def test_epochs_split_on_any_prefix_change(self):
        log = scripted_log()
        boundaries = [
            (t0, t1) for t0, t1, _fib, _changed in log.multi_epochs(0.0, 3.0)
        ]
        assert boundaries == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_live_view_reflects_changes(self):
        log = scripted_log()
        states = []
        for _t0, _t1, fib, _changed in log.multi_epochs(0.0, 3.0):
            states.append(fib.next_hop(2, 0x00000150))  # SPEC_B space
        assert states == [3, 1, 3]
