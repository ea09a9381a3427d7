"""The benchmark journal: interrupted sweeps must resume, not restart.

``bench_churn.py`` journals its trials with
``repro.experiments.checkpointed_sweep(journal=RESULTS_DIR /
"<name>.trials.jsonl")`` (one CRC-framed JSON line per finished trial)
and renders its table from the returned summaries' ``x``,
``succeeded``, ``failed`` and ``metrics``.  These tests make that call
against real (tiny) sweeps and check that every trial is journaled as
it finishes, that ``fresh=True`` discards the journal, that a torn
final line is skipped and its trial re-run, and that a summary carries
the fields the table reads.  The library's own journal cases live in
``tests/experiments/test_journal.py``.
"""

from repro.bgp import BgpConfig
from repro.experiments import (
    PointSummary,
    RunSettings,
    SweepJournal,
    checkpointed_sweep,
    constant_config,
    factory_ref,
)
from repro.experiments.journal import (
    TrialRecord,
    encode_record,
    summarize_point,
)
from repro.experiments.scenarios import clique_tdown_trial

FAST = BgpConfig(mrai=1.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)

MAKE_CONFIG = factory_ref(constant_config, config=FAST)


def journal_lines(path):
    return [
        line for line in path.read_text(encoding="utf-8").splitlines() if line
    ]


def bench_sweep(journal, xs, fresh=False):
    """The journaled sweep as ``bench_churn.py`` runs it."""
    return checkpointed_sweep(
        list(xs),
        clique_tdown_trial,
        MAKE_CONFIG,
        journal=journal,
        seeds=(0,),
        settings=SETTINGS,
        fresh=fresh,
    )


class TestCheckpointedSweep:
    def test_trials_journal_as_they_finish(self, tmp_path):
        journal = tmp_path / "sweep.trials.jsonl"
        records = bench_sweep(journal, [3, 4])
        assert [r.x for r in records] == [3, 4]
        assert all(r.succeeded == 1 and r.failed == 0 for r in records)
        # One line per (x, seed) trial.
        assert len(journal_lines(journal)) == 2

    def test_fresh_discards_the_journal(self, tmp_path):
        journal = tmp_path / "sweep.trials.jsonl"
        bogus = TrialRecord(
            x=3, seed=0, status="ok", metrics={"convergence_time": -1.0}
        )
        journal.write_text(encode_record(bogus) + "\n", encoding="utf-8")
        records = bench_sweep(journal, [3], fresh=True)
        # The bogus journaled metrics are gone; the trial was re-run.
        assert records[0].succeeded == 1
        assert records[0].metrics["convergence_time"] > 0

    def test_torn_final_line_is_skipped_and_rerun(self, tmp_path):
        journal = tmp_path / "sweep.trials.jsonl"
        good = bench_sweep(journal, [3])[0]
        # The interrupt arrived mid-write: the x=4 trial line is torn.
        torn = encode_record(
            TrialRecord(x=4, seed=0, status="ok", metrics={"a": 1.0})
        )[:-9]
        with journal.open("a", encoding="utf-8") as handle:
            handle.write(torn)
        completed, recovery = SweepJournal(journal).load()
        assert set(completed) == {(3, 0)}
        assert recovery.truncated_tail

        records = bench_sweep(journal, [3, 4])
        assert [r.x for r in records] == [3, 4]
        assert records[0] == good  # loaded, not re-run
        assert records[1].succeeded == 1  # re-run despite the torn line
        assert records[1].metrics["convergence_time"] > 0


class TestPointRecordAggregation:
    def test_from_summary_copies_fields(self):
        trials = [
            TrialRecord(x=5.0, seed=0, status="ok", metrics={"u": 10.0}),
            TrialRecord(x=5.0, seed=1, status="ok", metrics={"u": 30.0}),
            TrialRecord(x=5.0, seed=2, status="failed", error="boom"),
        ]
        summary = summarize_point(5.0, trials)
        assert summary == PointSummary(
            x=5.0, succeeded=2, failed=1, timeouts=0, metrics={"u": 20.0}
        )
        # The fields the benchmark table renders.
        assert f"{summary.succeeded}/{summary.succeeded + summary.failed}" == "2/3"
        assert summary.metrics.get("u") == 20.0
        assert summary.metrics.get("missing", -1.0) == -1.0
