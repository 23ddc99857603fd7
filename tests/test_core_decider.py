"""Unit tests for the local decider (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.batcher import TickBatcher
from repro.core.config import PenelopeConfig
from repro.core.decider import LocalDecider
from repro.core.pool import PowerPool
from repro.net.messages import PORT_POOL, Addr, GrantAck, PowerGrant
from repro.net.network import Network
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.events import EventBase, Handle
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import HeapScheduler

SPEC = SKYLAKE_6126_NODE
INITIAL_CAP = 160.0


class Rig:
    """One decider (node 0) plus a peer pool (node 1), fully controllable."""

    def __init__(self, config=None, peers=(1,), batched=False):
        self.engine = Engine()
        self.rngs = RngRegistry(seed=3)
        self.config = config or PenelopeConfig(stagger_start=False)
        self.network = Network(
            self.engine,
            Topology(3, latency=LatencyModel(sigma=0.0)),
            self.rngs.stream("net"),
        )
        self.rapl = SimulatedRapl(
            self.engine, SPEC, self.rngs.stream("rapl"),
            initial_cap_w=INITIAL_CAP,
            enforcement_delay_s=(0.0, 0.0),
            reading_noise=0.0,
        )
        self.pool = PowerPool(
            self.engine, self.network, 0, self.config, self.rngs.stream("pool0")
        )
        self.peer_pool = PowerPool(
            self.engine, self.network, 1, self.config, self.rngs.stream("pool1")
        )
        self.decider = LocalDecider(
            self.engine,
            self.network,
            0,
            self.rapl,
            self.pool,
            peers=list(peers),
            initial_cap_w=INITIAL_CAP,
            config=self.config,
            rng=self.rngs.stream("decider"),
        )
        self.pool.start()
        self.peer_pool.start()
        if batched:
            self.batcher = TickBatcher(self.engine, self.config.period_s)
            self.batcher.add(self.decider)
        else:
            self.decider.start()

    def set_draw(self, watts):
        self.rapl.set_consumption(watts)

    def run_periods(self, n=1):
        # The 10 ms slack covers request/grant round-trip latency after the
        # period boundary.
        self.engine.run(until=self.engine.now + n * self.config.period_s + 1e-2)


class TestExcessBranch:
    def test_release_lowers_cap_and_fills_pool(self):
        rig = Rig()
        rig.set_draw(100.0)  # well under 160 - eps
        rig.run_periods(1)
        assert rig.decider.cap_w == pytest.approx(100.0)
        assert rig.pool.balance_w == pytest.approx(60.0)
        assert rig.rapl.cap_w == pytest.approx(100.0)

    def test_release_respects_safe_minimum(self):
        rig = Rig()
        rig.set_draw(SPEC.idle_w)  # 30 W, below the 60 W safe min cap
        rig.run_periods(1)
        assert rig.decider.cap_w == SPEC.min_cap_w
        assert rig.pool.balance_w == pytest.approx(INITIAL_CAP - SPEC.min_cap_w)

    def test_within_epsilon_is_not_excess(self):
        rig = Rig()
        rig.set_draw(INITIAL_CAP - 2.0)  # inside the 5 W margin
        rig.run_periods(1)
        assert rig.decider.cap_w == INITIAL_CAP

    def test_release_recorded(self):
        rig = Rig()
        rig.set_draw(100.0)
        rig.run_periods(1)
        releases = rig.decider.recorder.releases()
        assert len(releases) == 1
        assert releases[0].watts == pytest.approx(60.0)


class TestLocalDiscovery:
    def test_hungry_drains_local_pool_first(self):
        rig = Rig()
        rig.pool.deposit(100.0)
        rig.set_draw(INITIAL_CAP)  # at the cap -> hungry
        rig.run_periods(1)
        # Rate-limited local withdrawal: 10% of 100 = 10 W.
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP + 10.0)
        assert rig.pool.balance_w == pytest.approx(90.0)
        assert rig.decider.requests_sent == 0

    def test_urgent_local_withdrawal_bypasses_limit(self):
        rig = Rig()
        # Drop the cap well below initial, then make the node hungry.
        rig.set_draw(80.0)
        rig.run_periods(1)
        assert rig.decider.cap_w == pytest.approx(80.0)
        rig.pool.withdraw_up_to(1e9)  # empty the pool
        rig.pool.deposit(200.0)
        rig.set_draw(80.0)  # at the new cap -> hungry and below initial
        rig.run_periods(1)
        # Took back initial - cap = 80 W in one step, not 10%.
        assert rig.decider.cap_w >= INITIAL_CAP

    def test_local_withdrawal_respects_max_cap(self):
        config = PenelopeConfig(stagger_start=False, upper_limit_w=500.0, rate=1.0)
        rig = Rig(config=config)
        rig.pool.deposit(500.0)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        assert rig.decider.cap_w <= SPEC.max_cap_w


class TestPeerTransactions:
    def test_request_and_grant_raises_cap(self):
        rig = Rig()
        rig.peer_pool.deposit(200.0)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        assert rig.decider.requests_sent == 1
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP + 20.0)  # 10% of 200
        assert rig.peer_pool.balance_w == pytest.approx(180.0)

    def test_empty_peer_grants_nothing(self):
        rig = Rig()
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        assert rig.decider.requests_sent == 1
        assert rig.decider.cap_w == INITIAL_CAP

    def test_urgent_request_carries_alpha_and_bypasses_limit(self):
        rig = Rig()
        rig.set_draw(60.0)
        rig.run_periods(1)  # release down to 60 W
        rig.pool.withdraw_up_to(1e9)  # strand the released power elsewhere
        rig.peer_pool.deposit(500.0)
        rig.set_draw(60.0)  # hungry at 60 W cap, below initial
        rig.run_periods(1)
        assert rig.decider.urgent_requests_sent == 1
        # alpha = 160 - 60 = 100 -> full recovery in one transaction.
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP)

    def test_turnaround_recorded(self):
        rig = Rig()
        rig.peer_pool.deposit(100.0)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        samples = rig.decider.recorder.turnarounds
        assert len(samples) == 1
        assert not samples[0].timed_out
        assert samples[0].wait_s > 0
        assert samples[0].granted_w == pytest.approx(10.0)

    def test_dead_peer_times_out(self):
        rig = Rig()
        rig.network.mark_dead(1)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(3)
        samples = rig.decider.recorder.turnarounds
        assert samples and all(s.timed_out for s in samples)
        assert all(
            s.wait_s == pytest.approx(rig.config.timeout_s) for s in samples
        )
        assert rig.decider.cap_w == INITIAL_CAP

    def test_no_peers_no_requests(self):
        rig = Rig(peers=())
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(2)
        assert rig.decider.requests_sent == 0

    def test_grant_clamped_to_max_cap_banks_leftover(self):
        config = PenelopeConfig(stagger_start=False, enable_rate_limit=False)
        rig = Rig(config=config)
        rig.decider.cap_w = 240.0
        rig.rapl.set_cap(240.0)
        rig.peer_pool.deposit(100.0)
        rig.set_draw(240.0)
        rig.run_periods(1)
        assert rig.decider.cap_w == SPEC.max_cap_w
        # 100 granted, 10 usable -> 90 banked locally.
        assert rig.pool.balance_w == pytest.approx(90.0)


class TestDistributedUrgency:
    def test_local_urgency_induces_release_to_initial(self):
        rig = Rig()
        rig.decider.cap_w = 200.0  # above initial (took power earlier)
        rig.rapl.set_cap(200.0)
        rig.pool.local_urgency = True
        rig.set_draw(200.0)  # hungry, so no release would happen naturally
        rig.run_periods(1)
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP)
        assert rig.pool.balance_w == pytest.approx(40.0)
        induced = [
            t for t in rig.decider.recorder.transactions
            if t.kind == "induced-release"
        ]
        assert len(induced) == 1
        assert induced[0].watts == pytest.approx(40.0)

    def test_urgent_node_ignores_local_urgency(self):
        rig = Rig()
        rig.set_draw(80.0)
        rig.run_periods(1)  # cap at 80, below initial
        rig.pool.local_urgency = True
        rig.pool.withdraw_up_to(1e9)
        rig.set_draw(80.0)
        rig.run_periods(1)
        # The urgent node does not release below its initial cap.
        assert rig.decider.cap_w <= INITIAL_CAP
        assert not any(
            t.kind == "induced-release"
            for t in rig.decider.recorder.transactions
        )

    def test_urgency_ablation_disables_induction(self):
        config = PenelopeConfig(stagger_start=False, enable_urgency=False)
        rig = Rig(config=config)
        rig.decider.cap_w = 200.0
        rig.rapl.set_cap(200.0)
        rig.pool.local_urgency = True
        rig.set_draw(200.0)
        rig.run_periods(2)
        assert rig.decider.cap_w == 200.0


class TestStaleGrants:
    def test_stale_grant_banked_into_pool(self):
        rig = Rig()
        grant = PowerGrant(
            src=Addr(1, PORT_POOL), dst=rig.decider.addr, delta=12.0, reply_to=999
        )
        rig.network.send(grant)
        rig.set_draw(100.0)
        rig.run_periods(1)
        counters = rig.decider.recorder.counters
        assert counters.get("decider.stale_grants_banked") == 1
        # 12 W banked + the release of this period.
        assert rig.pool.balance_w >= 12.0


class TestLifecycle:
    def test_stop_halts_iterations(self):
        rig = Rig()
        rig.set_draw(100.0)
        rig.run_periods(1)
        iterations = rig.decider.iterations
        rig.decider.stop()
        rig.run_periods(3)
        assert rig.decider.iterations == iterations
        assert not rig.decider.is_running

    def test_double_start_rejected(self):
        rig = Rig()
        with pytest.raises(RuntimeError):
            rig.decider.start()

    def test_restart_mid_request_receives_the_next_grant(self):
        # Stopped while waiting on a dead peer, the decider must withdraw
        # its getter: left registered, it would swallow the restarted
        # decider's first grant.
        rig = Rig()
        rig.network.mark_dead(1)
        rig.set_draw(INITIAL_CAP)
        rig.engine.run(until=rig.config.period_s + 0.5)
        assert rig.decider.requests_sent == 1
        rig.decider.stop()
        rig.engine.run(until=rig.engine.now + 0.1)
        rig.network.mark_alive(1)
        rig.peer_pool.deposit(200.0)
        rig.decider.start()
        rig.run_periods(1)
        assert rig.decider.requests_sent == 2
        assert rig.decider.cap_w == pytest.approx(INITIAL_CAP + 20.0)

    def test_is_urgent_property(self):
        rig = Rig()
        assert not rig.decider.is_urgent
        rig.decider.cap_w = 100.0
        assert rig.decider.is_urgent


class TestDeadlineCancellation:
    def test_answered_request_cancels_its_timeout(self):
        rig = Rig()
        rig.peer_pool.deposit(50.0)
        rig.set_draw(INITIAL_CAP)
        rig.run_periods(1)
        assert rig.decider.requests_sent == 1
        (sample,) = rig.decider.recorder.turnarounds
        assert not sample.timed_out
        assert sample.granted_w > 0
        # Run past where the orphaned deadline would have fired: the
        # timeout of the answered request must be discarded unprocessed,
        # not linger in the queue until its deadline.
        rig.engine.run(until=rig.engine.now + rig.config.timeout_s + 1.0)
        assert rig.engine.cancelled_events >= 1


class TestMessageBetweenDeadlineAndWakeUp:
    """A fired deadline queues the decider's wake-up one step later; a
    message handed to the waiting getter in between is the wake-up's to
    take.  A grant for the request still counts; anything else is
    absorbed, and the request times out."""

    @staticmethod
    def _deliver_at_the_deadline(rig, message_for):
        rig.set_draw(300.0)
        rig.peer_pool.stop()  # nobody answers the request of the 1 s tick
        rig.engine.run(until=1.5)
        (request,) = rig.sent_requests
        # Queued after the deadline (armed at 1 s for 2 s), so it runs
        # after the deadline fires and before the wake-up that queues.
        rig.engine.call_later(
            0.5, rig.decider.inbox.try_put, message_for(request), name="test.put"
        )
        rig.engine.run(until=2.5)

    @staticmethod
    def _rig(batched):
        rig = Rig(batched=batched)
        rig.sent_requests = []
        send = rig.network.send

        def spying_send(message):
            if message.kind == "PowerRequest":
                rig.sent_requests.append(message)
            send(message)

        rig.network.send = spying_send
        return rig

    @pytest.mark.parametrize("batched", [False, True], ids=["per-node", "batched"])
    def test_other_message_is_absorbed_and_the_request_times_out(self, batched):
        rig = self._rig(batched)
        self._deliver_at_the_deadline(
            rig,
            lambda request: GrantAck(
                src=Addr(1, PORT_POOL), dst=rig.decider.addr, delta=5.0, reply_to=7
            ),
        )
        first = rig.decider.recorder.turnarounds[0]
        assert first.timed_out and first.granted_w == 0.0
        assert first.wait_s == pytest.approx(rig.config.timeout_s)
        counters = rig.decider.recorder.counters
        assert counters["decider.unexpected_messages"] == 1
        assert counters["decider.request_timeouts"] >= 1
        # The loop went on: the 2 s tick ran and sent its own request.
        assert rig.decider.iterations == 2
        assert len(rig.sent_requests) == 2

    @pytest.mark.parametrize("batched", [False, True], ids=["per-node", "batched"])
    def test_the_requests_grant_still_counts(self, batched):
        rig = self._rig(batched)
        self._deliver_at_the_deadline(
            rig,
            lambda request: PowerGrant(
                src=Addr(1, PORT_POOL),
                dst=rig.decider.addr,
                delta=12.0,
                reply_to=request.msg_id,
            ),
        )
        first = rig.decider.recorder.turnarounds[0]
        assert not first.timed_out and first.granted_w == pytest.approx(12.0)
        assert rig.decider.applied_grants_w == pytest.approx(12.0)
        assert "decider.request_timeouts" not in rig.decider.recorder.counters


def _queue_log(rig, until, monkeypatch):
    """Run the rig to ``until``; return ``(time, site)`` of every
    processed queue entry, the site being the called method's name."""
    log = []
    pop_due = HeapScheduler.pop_due

    def recording_pop_due(self, horizon):
        item = pop_due(self, horizon)
        if item is not None:
            fn = item[3]
            target = fn._fn if isinstance(fn, Handle) else fn
            site = type(fn).__name__ if isinstance(fn, EventBase) else target.__qualname__
            log.append((round(item[0], 9), site))
        return item

    monkeypatch.setattr(HeapScheduler, "pop_due", recording_pop_due)
    rig.engine.run(until=until)
    return log


class TestSameInstantOrder:
    """The order of one decider's own entries that share an instant: the
    deadline, its wake-up, a retry and the next tick."""

    @pytest.mark.parametrize("batched", [False, True], ids=["per-node", "batched"])
    def test_wake_up_runs_after_entries_queued_before_the_deadline_fired(self, batched):
        rig = Rig(batched=batched)
        order = []
        send = rig.network.send

        def spying_send(message):
            if message.kind == "PowerRequest":
                order.append(("request", rig.engine.now))
            send(message)

        def mark(label, then=None):
            order.append((label, rig.engine.now))
            if then is not None:
                rig.engine.call_later(0.0, mark, then, name="test.mark")

        rig.network.send = spying_send
        rig.set_draw(300.0)
        rig.peer_pool.stop()  # nobody answers: every request times out
        # Queued before the 1 s tick arms the 2 s deadline.
        rig.engine.call_later(2.0, mark, "before", name="test.mark")
        rig.engine.run(until=1.5)
        # Queued after the deadline; its follow-up is queued after the
        # deadline fired, so after the wake-up too.
        rig.engine.call_later(0.5, mark, "between", "after", name="test.mark")
        rig.engine.run(until=2.5)
        # The wake-up times the request out and runs the 2 s tick in
        # place, which sends the next request.
        assert order == [
            ("request", 1.0),
            ("before", 2.0),
            ("between", 2.0),
            ("request", 2.0),
            ("after", 2.0),
        ]

    def test_per_node_retries_and_ticks(self, monkeypatch):
        config = PenelopeConfig(
            stagger_start=False, response_timeout_s=0.3, request_retries=2,
            retry_jitter=0.0,
        )
        rig = Rig(config=config)
        rig.set_draw(300.0)
        rig.peer_pool.stop()
        log = _queue_log(rig, 2.35, monkeypatch)
        decider = [entry for entry in log if entry[1].startswith("LocalDecider.")]
        assert decider == [
            (0.0, "LocalDecider._begin"),
            (1.0, "LocalDecider._on_tick"),
            (1.3, "LocalDecider._on_deadline"),
            (1.3, "LocalDecider._on_wake"),
            (1.4, "LocalDecider._on_retry"),
            (1.7, "LocalDecider._on_deadline"),
            (1.7, "LocalDecider._on_wake"),
            # A second retry would overrun the 2 s tick: it is skipped.
            (2.0, "LocalDecider._on_tick"),
            (2.3, "LocalDecider._on_deadline"),
            (2.3, "LocalDecider._on_wake"),
        ]

    def test_batched_wake_up_at_a_tick_instant_runs_behind_the_batch(self, monkeypatch):
        rig = Rig(batched=True)
        rig.set_draw(300.0)
        rig.peer_pool.stop()
        log = _queue_log(rig, 2.5, monkeypatch)
        at_two = [site for time, site in log if time == 2.0]
        assert at_two == [
            "SharedDeadline._fire",
            "TickBatcher._run_slot",
            "LocalDecider._on_wake",
        ]


class TestStrayMessageAtARetry:
    """A retry re-arms the inbox wait while a stray message sits in the
    inbox: the wait takes it through a queued hand-off at the retry's
    instant, banks it, and waits again for the retry's answer."""

    @staticmethod
    def _rig(batched):
        config = PenelopeConfig(
            stagger_start=False, response_timeout_s=0.3, request_retries=2,
            retry_jitter=0.0,
        )
        rig = Rig(config=config, batched=batched)
        rig.sent_requests = []
        send = rig.network.send

        def spying_send(message):
            if message.kind == "PowerRequest":
                rig.sent_requests.append(message)
            send(message)

        rig.network.send = spying_send
        rig.set_draw(300.0)
        rig.peer_pool.stop()  # the 1 s request times out at 1.3 s
        rig.engine.run(until=1.35)  # in the backoff; the retry runs at 1.4 s
        stray = PowerGrant(
            src=Addr(1, PORT_POOL), dst=rig.decider.addr, delta=5.0, reply_to=-1
        )
        assert rig.decider.inbox.try_put(stray)  # no wait to hand it to
        rig.engine.run(until=1.41)
        counters = rig.decider.recorder.counters
        assert counters["decider.request_retries"] == 1
        assert counters["decider.stale_grants_banked"] == 1
        assert len(rig.decider.inbox) == 0
        assert rig.pool.balance_w == pytest.approx(5.0)
        return rig

    @pytest.mark.parametrize("batched", [False, True], ids=["per-node", "batched"])
    def test_the_retry_waits_again_and_takes_its_grant(self, batched):
        rig = self._rig(batched)
        # Waiting again: a second stray is taken in place on delivery.
        rig.decider.inbox.try_put(
            PowerGrant(src=Addr(1, PORT_POOL), dst=rig.decider.addr, delta=0.0,
                       reply_to=-2)
        )
        assert rig.decider.empty_grants == 1
        retry = rig.sent_requests[-1]
        answered_at = rig.engine.now + 0.05
        rig.engine.call_later(
            0.05, rig.decider.inbox.try_put,
            PowerGrant(src=Addr(1, PORT_POOL), dst=rig.decider.addr, delta=12.0,
                       reply_to=retry.msg_id),
            name="test.put",
        )
        rig.engine.run(until=1.5)
        first, second = rig.decider.recorder.turnarounds
        assert first.timed_out
        assert not second.timed_out and second.granted_w == pytest.approx(12.0)
        assert second.time == pytest.approx(answered_at)
        assert second.wait_s == pytest.approx(answered_at - 1.4)
        assert rig.decider.recorder.counters["decider.request_timeouts"] == 1

    @pytest.mark.parametrize("batched", [False, True], ids=["per-node", "batched"])
    def test_an_unanswered_retry_times_out_once_at_its_deadline(self, batched):
        rig = self._rig(batched)
        rig.engine.run(until=1.75)
        first, second = rig.decider.recorder.turnarounds
        assert first.timed_out and second.timed_out
        assert second.time == pytest.approx(1.7)
        assert rig.decider.recorder.counters["decider.request_timeouts"] == 2


class TestStrayMessageAtTheFirstWait:
    """A stray message lands after the tick drained the inbox and before
    the request's wait is armed: that wait takes it through a queued
    hand-off and waits again under a fresh wait number."""

    @staticmethod
    def _rig(batched, on_request=None):
        config = PenelopeConfig(
            stagger_start=False, response_timeout_s=0.3, request_retries=2,
            retry_jitter=0.0,
        )
        rig = Rig(config=config, batched=batched)
        send = rig.network.send

        def send_after_a_stray(message):
            if message.kind == "PowerRequest":
                rig.decider.inbox.try_put(
                    PowerGrant(src=Addr(1, PORT_POOL), dst=rig.decider.addr,
                               delta=5.0, reply_to=-1)
                )
                if on_request is not None:
                    on_request(rig)
            send(message)

        rig.network.send = send_after_a_stray
        rig.set_draw(300.0)
        rig.peer_pool.stop()  # nobody answers: every request times out
        return rig

    @pytest.mark.parametrize("batched", [False, True], ids=["per-node", "batched"])
    def test_the_rearmed_wait_times_out_once_at_its_deadline(self, batched):
        # Under batched ticks both waits are listed on the shared
        # deadline: only the re-armed one may wake the decider.
        rig = self._rig(batched)
        rig.engine.run(until=1.35)  # past the 1.3 s deadline, before the retry
        counters = rig.decider.recorder.counters
        assert counters["decider.stale_grants_banked"] == 1
        assert counters["decider.request_timeouts"] == 1
        (turnaround,) = rig.decider.recorder.turnarounds
        assert turnaround.timed_out and turnaround.time == pytest.approx(1.3)
        rig.engine.run(until=1.45)
        assert counters["decider.request_retries"] == 1

    @pytest.mark.parametrize("batched", [False, True], ids=["per-node", "batched"])
    def test_a_restart_while_the_hand_off_is_queued_never_takes_it(self, batched):
        # Stopped and restarted at the request's instant, after the wait
        # queued the hand-off and before it surfaces: the message left
        # the inbox with the dead wait and is taken by neither loop.
        def restart(rig):
            if rig.decider.requests_sent == 1:
                rig.engine.call_later(0.0, _restart, rig.decider, name="test.restart")

        rig = self._rig(batched, on_request=restart)
        rig.engine.run(until=1.35)
        assert rig.decider.requests_sent == 1
        assert rig.decider.is_running
        assert "decider.stale_grants_banked" not in rig.decider.recorder.counters
        assert rig.decider.recorder.turnarounds == []
        assert len(rig.decider.inbox) == 0


def _restart(decider):
    batcher = decider._batcher
    decider.stop()
    if batcher is not None:
        batcher.add(decider)
    else:
        decider.start()
