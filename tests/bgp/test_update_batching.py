"""Batched UPDATEs and the per-peer MRAI mode.

Two multi-prefix mechanisms ride together: ``BgpConfig.batch_updates``
packs every same-instant route change toward a peer into one
:class:`~repro.bgp.messages.UpdateBatch` (canonical wire form — sorted,
duplicate-free NLRI + withdrawn lists), and ``mrai_mode="per-peer"``
shares one MRAI timer across the whole table toward each neighbor.
Both must leave protocol outcomes intact: batching changes packing,
never timing, and a full Tdown run converges to the same FIB state with
either knob flipped.
"""

import pickle
import random

import pytest

from repro.analysis.determinism import fingerprint_run
from repro.bgp import AsPath, BgpConfig, BgpSpeaker, MraiManager, UpdateBatch
from repro.bgp.mrai import MRAI_PER_PEER, MRAI_PER_PREFIX
from repro.bgp.path import intern_path
from repro.engine import RandomStreams, Scheduler
from repro.errors import ConfigError
from repro.experiments import RunSettings
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    EventKind,
    Scenario,
    tagg_clique,
    tdown_clique,
    tflap_bclique,
    treset_clique,
)
from repro.net import Network
from repro.topology import b_clique, chain


def batch(**kwargs):
    return UpdateBatch(**kwargs)


class TestUpdateBatchValidation:
    def test_round_trip_fields(self):
        b = batch(
            withdrawn=("a", "b"),
            nlri=(("c", AsPath.of((3, 1))), ("d", AsPath.of((3, 2)))),
        )
        assert b.withdrawn == ("a", "b")
        assert b.size == 4
        assert b.sender == 3
        assert "Batch[" in repr(b)

    def test_pure_withdrawal_has_no_sender(self):
        b = batch(withdrawn=("a",))
        with pytest.raises(ValueError):
            b.sender

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch()

    def test_unsorted_withdrawn_rejected(self):
        with pytest.raises(ValueError):
            batch(withdrawn=("b", "a"))

    def test_duplicate_nlri_rejected(self):
        path = AsPath.of((1,))
        with pytest.raises(ValueError):
            batch(nlri=(("a", path), ("a", path)))

    def test_prefix_in_both_lists_rejected(self):
        with pytest.raises(ValueError):
            batch(withdrawn=("a",), nlri=(("a", AsPath.of((1,))),))

    def test_mixed_path_heads_rejected(self):
        with pytest.raises(ValueError):
            batch(nlri=(("a", AsPath.of((1,))), ("b", AsPath.of((2,)))))

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            batch(nlri=(("a", AsPath.of(())),))

    def test_pickle_round_trip_preserves_interning(self):
        b = batch(
            withdrawn=("w",),
            nlri=(("a", AsPath.of((5, 2, 1))), ("b", AsPath.of((5, 9)))),
        )
        clone = pickle.loads(pickle.dumps(b))
        assert clone == b
        for (_prefix, path), (_cp, cpath) in zip(b.nlri, clone.nlri):
            assert cpath is intern_path(path.ases)


class TestBgpConfigKnobs:
    def test_defaults_are_legacy(self):
        config = BgpConfig()
        assert config.mrai_mode == MRAI_PER_PREFIX
        assert config.batch_updates is False

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            BgpConfig(mrai_mode="per-table")


def make_per_peer(scheduler, expiries, interval=10.0):
    return MraiManager(
        scheduler,
        interval=interval,
        jitter=(1.0, 1.0),
        rng=random.Random(0),
        on_expiry=lambda peer, prefix: expiries.append(
            (scheduler.now, peer, prefix)
        ),
        mode=MRAI_PER_PEER,
    )


class TestPerPeerMrai:
    def test_timer_shared_across_prefixes(self, scheduler):
        expiries = []
        mrai = make_per_peer(scheduler, expiries)
        mrai.mark_sent(1, "d")
        assert not mrai.can_send_now(1, "e")  # other prefix, same timer
        assert mrai.can_send_now(2, "d")      # other peer unaffected
        scheduler.run()
        assert expiries == [(10.0, 1, None)]  # per-peer expiry, no prefix

    def test_flush_window_sends_freely_rearms_once(self, scheduler):
        expiries = []
        mrai = make_per_peer(scheduler, expiries)
        with mrai.flush_window(1):
            assert mrai.can_send_now(1, "a")
            mrai.mark_sent(1, "a")
            assert mrai.can_send_now(1, "b")  # still open inside window
            mrai.mark_sent(1, "b")
        assert not mrai.can_send_now(1, "a")  # armed once at exit
        assert mrai.active_timers() == 1
        scheduler.run()
        assert expiries == [(10.0, 1, None)]

    def test_empty_flush_window_leaves_peer_unthrottled(self, scheduler):
        expiries = []
        mrai = make_per_peer(scheduler, expiries)
        with mrai.flush_window(1):
            pass
        assert mrai.can_send_now(1, "a")
        assert mrai.active_timers() == 0

    def test_flush_window_noop_in_per_prefix_mode(self, scheduler):
        expiries = []
        mrai = MraiManager(
            scheduler,
            interval=10.0,
            jitter=(1.0, 1.0),
            rng=random.Random(0),
            on_expiry=lambda peer, prefix: expiries.append((peer, prefix)),
        )
        with mrai.flush_window(1):
            mrai.mark_sent(1, "a")
            # Per-prefix mode: the send arms its own pair timer immediately.
            assert not mrai.can_send_now(1, "a")
            assert mrai.can_send_now(1, "b")
        assert mrai.release_held(1) == []  # each pair's own timer re-derives it

    def test_cancel_peer_clears_flush_state(self, scheduler):
        expiries = []
        mrai = make_per_peer(scheduler, expiries)
        with mrai.flush_window(1):
            mrai.mark_sent(1, "a")
            mrai.cancel_peer(1)
        # The cancelled peer must not have been re-armed at window exit.
        assert mrai.can_send_now(1, "a")
        scheduler.run()
        assert expiries == []

    def test_held_prefixes_released_sorted_once(self, scheduler):
        mrai = make_per_peer(scheduler, [])
        mrai.mark_sent(1, "a")
        assert not mrai.can_send_now(1, "c")
        assert not mrai.can_send_now(1, "b")
        assert mrai.can_send_now(2, "d")  # unthrottled peer: nothing held
        assert mrai.release_held(1) == ["b", "c"]
        assert mrai.release_held(1) == []
        assert mrai.release_held(2) == []

    def test_cancel_peer_and_cancel_all_empty_the_held_set(self, scheduler):
        mrai = make_per_peer(scheduler, [])
        for peer in (1, 2):
            mrai.mark_sent(peer, "a")
            assert not mrai.can_send_now(peer, "b")
        mrai.hold(3, "c")
        mrai.cancel_peer(1)
        assert mrai.release_held(1) == []
        mrai.cancel_all()
        assert mrai.release_held(2) == []
        assert mrai.release_held(3) == []


FAST = dict(mrai=2.0, processing_delay=(0.01, 0.05))
SETTINGS = RunSettings(failure_guard=0.5)


def final_fib(run):
    """{(node, prefix): next_hop} at end of run, from the FIB change log."""
    state = {}
    for change in run.fib_log:
        state[(change.node, change.prefix)] = change.next_hop
    return state


class TestBatchedRunEquivalence:
    """Batching and MRAI mode change packing/pacing, not the fixed point."""

    @pytest.fixture(scope="class")
    def runs(self):
        scenario = tdown_clique(5)
        variants = {
            "plain": BgpConfig(**FAST),
            "batched": BgpConfig(batch_updates=True, **FAST),
            "per_peer": BgpConfig(
                mrai_mode=MRAI_PER_PEER, batch_updates=True, **FAST
            ),
        }
        return {
            name: run_experiment(
                scenario, config, SETTINGS, seed=0, keep_network=True
            )
            for name, config in variants.items()
        }

    def test_all_converge(self, runs):
        for run in runs.values():
            assert run.converged

    def test_same_final_fib_state(self, runs):
        states = {name: final_fib(run) for name, run in runs.items()}
        assert states["plain"] == states["batched"] == states["per_peer"]

    def test_batched_run_sends_batches(self, runs):
        network = runs["batched"].network
        total = sum(
            network.nodes[n].batches_sent for n in network.nodes
        )
        assert total > 0

    def test_multiprefix_batches_pack_many_prefixes(self):
        run = run_experiment(
            tagg_clique(4, prefixes=8, origins=2, hold=5.0),
            BgpConfig(batch_updates=True, mrai_mode=MRAI_PER_PEER, **FAST),
            SETTINGS,
            seed=0,
            keep_network=True,
        )
        assert run.converged
        sizes = [
            record.message.size
            for record in run.network.trace
            if isinstance(record.message, UpdateBatch)
        ]
        assert sizes and max(sizes) > 1  # at least one genuinely multi-prefix

    def test_invariants_hold_after_batched_churn(self):
        run = run_experiment(
            tagg_clique(4, prefixes=8, origins=2, hold=5.0),
            BgpConfig(batch_updates=True, **FAST),
            RunSettings(failure_guard=0.5, sanitize=True),
            seed=1,
            keep_network=True,
        )
        assert run.converged
        for node_id in sorted(run.network.nodes):
            run.network.nodes[node_id].check_invariants()


def whole_table_expiry(self, peer, prefix):
    """The slow twin of ``BgpSpeaker._on_mrai_expiry``: a per-peer expiry
    re-derives every Loc-RIB or advertised prefix, not just the held ones."""
    if not self.link_is_up(peer):
        return
    if prefix is not None:
        self._sync_peer(peer, prefix)
        return
    swept = sorted(
        set(self.loc_rib.prefixes())
        | set(self.adj_rib_out.advertised_prefixes(peer))
    )
    with self.mrai.flush_window(peer):
        for each in swept:
            self._sync_peer(peer, each)


TWIN_SCENARIOS = {
    "tagg": lambda: tagg_clique(4, prefixes=32, origins=2, hold=5.0),
    "tdown": lambda: tdown_clique(5),
    "tflap": lambda: tflap_bclique(4, period=5.0, count=2),
    "treset": lambda: treset_clique(5),
    # The crash of the core node on the B-Clique's edge link: survivors
    # explore paths while the shared timers run, so prefixes are held.
    "tcrash": lambda: Scenario(
        name="tcrash-bclique-4",
        topology=b_clique(4),
        destination=0,
        event=EventKind.TCRASH,
        crash_node=4,
        restart_after=10.0,
    ),
}
ENHANCEMENTS = {
    "plain": {},
    "wrate": dict(wrate=True),
    "ghost-flushing": dict(ghost_flushing=True),
    "ssld": dict(ssld=True),
    "assertion": dict(assertion=True),
}
SESSION_TIMERS = dict(hold_time=9.0, keepalive_interval=3.0)


class TestHeldSetReleaseTwin:
    """Releasing only the held prefixes at a per-peer expiry sends exactly
    what the whole-table sweep sent: identical run digests."""

    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("enhancement", sorted(ENHANCEMENTS))
    @pytest.mark.parametrize("scenario", sorted(TWIN_SCENARIOS))
    def test_digest_matches_whole_table_sweep(
        self, monkeypatch, scenario, enhancement, batched
    ):
        # Unbatched Tagg with session timers exhausts the event budget in
        # warm-up, so session timers ride along with batching only.
        config = BgpConfig(
            mrai_mode=MRAI_PER_PEER,
            batch_updates=batched,
            **FAST,
            **ENHANCEMENTS[enhancement],
            **(SESSION_TIMERS if batched else {}),
        )
        released = []
        release_held = MraiManager.release_held

        def counting_release(self, peer):
            held = release_held(self, peer)
            released.extend(held)
            return held

        for seed in (0, 1):
            with monkeypatch.context() as patch:
                patch.setattr(MraiManager, "release_held", counting_release)
                fast = run_experiment(
                    TWIN_SCENARIOS[scenario](), config, SETTINGS, seed=seed,
                    keep_network=True,
                )
            with monkeypatch.context() as patch:
                patch.setattr(BgpSpeaker, "_on_mrai_expiry", whole_table_expiry)
                slow = run_experiment(
                    TWIN_SCENARIOS[scenario](), config, SETTINGS, seed=seed,
                    keep_network=True,
                )
            assert fingerprint_run(fast).digest == fingerprint_run(slow).digest
        # Assertion leaves a clique Tdown nothing to explore: nothing is held.
        if (scenario, enhancement) != ("tdown", "assertion"):
            assert released

    def test_silent_outage_withdrawal_is_held_for_the_next_expiry(self, monkeypatch):
        """A route lost while the link was silently down is withdrawn at the
        peer's next expiry after the restore, as the whole-table sweep did."""

        def run(expiry):
            with monkeypatch.context() as patch:
                patch.setattr(BgpSpeaker, "_on_mrai_expiry", expiry)
                config = BgpConfig(
                    mrai=1.0, mrai_mode=MRAI_PER_PEER, **SESSION_TIMERS,
                    processing_delay=FAST["processing_delay"],
                )
                scheduler = Scheduler()
                streams = RandomStreams(4)
                net = Network(
                    chain(3),
                    scheduler,
                    lambda nid, sch: BgpSpeaker(
                        nid, sch, config=config, streams=streams
                    ),
                )
                net.node(0).originate("a")
                net.node(0).originate("b")
                net.start()
                scheduler.run(until=30.0)
                net.fail_link(1, 2, silent=True)
                scheduler.run(until=31.0)
                net.node(0).withdraw_origin("a")
                scheduler.run(until=33.0)  # restored within the hold time
                net.restore_link(1, 2)
                net.node(0).originate("c")  # arms 1 -> 2's shared timer
                scheduler.run(until=60.0)
            trace = [
                f"{record.time!r}|{record.src}|{record.dst}|{record.message!r}"
                for record in net.trace
            ]
            return trace, net.node(2).best_route("a")

        fast_trace, fast_route = run(BgpSpeaker._on_mrai_expiry)
        slow_trace, slow_route = run(whole_table_expiry)
        assert fast_route is slow_route is None
        assert fast_trace == slow_trace
