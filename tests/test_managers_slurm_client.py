"""Unit tests for the SLURM client decider, against a scripted server."""

from __future__ import annotations

import pytest

from repro.managers.slurm import SlurmClient, SlurmConfig
from repro.net.messages import (
    PORT_DECIDER,
    PORT_SERVER,
    Addr,
    ExcessReport,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)
from repro.net.network import Network
from repro.net.server import RequestServer
from repro.net.topology import LatencyModel, Topology
from repro.power.domain import SKYLAKE_6126_NODE
from repro.power.rapl import SimulatedRapl
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

SPEC = SKYLAKE_6126_NODE
INITIAL = 160.0
SERVER = Addr(1, PORT_SERVER)


class Rig:
    """One SLURM client plus a scripted central server."""

    def __init__(self, grant_w=0.0, config=None, server_running=True):
        self.engine = Engine()
        self.rngs = RngRegistry(seed=9)
        self.config = config or SlurmConfig(stagger_start=False)
        self.network = Network(
            self.engine,
            Topology(2, latency=LatencyModel(sigma=0.0)),
            self.rngs.stream("net"),
        )
        self.rapl = SimulatedRapl(
            self.engine, SPEC, self.rngs.stream("rapl"), initial_cap_w=INITIAL,
            enforcement_delay_s=(0.0, 0.0), reading_noise=0.0,
        )
        self.grant_w = grant_w
        self.received = []
        self.server = RequestServer(
            self.engine,
            self.network,
            SERVER,
            self._serve,
            self.rngs.stream("server"),
            service_time=(90e-6, 90e-6),
        )
        if server_running:
            self.server.start()
        self.client = SlurmClient(
            self.engine,
            self.network,
            0,
            self.rapl,
            SERVER,
            INITIAL,
            self.config,
            self.rngs.stream("client"),
            recorder=__import__("repro.instrumentation", fromlist=["x"]).MetricsRecorder(),
        )
        self.client.start()

    def _serve(self, message):
        self.received.append(message)
        if isinstance(message, PowerRequest):
            return (
                PowerGrant(
                    src=SERVER,
                    dst=message.src,
                    delta=self.grant_w,
                    reply_to=message.msg_id,
                    urgent=message.urgent,
                ),
            )
        return ()

    def set_draw(self, watts):
        self.rapl.set_consumption(watts)

    def run_periods(self, n=1):
        self.engine.run(until=self.engine.now + n * self.config.period_s + 1e-2)


class TestExcessPath:
    def test_excess_lowers_cap_and_reports(self):
        rig = Rig()
        rig.set_draw(100.0)
        rig.run_periods(1)
        assert rig.client.cap_w == pytest.approx(100.0)
        reports = [m for m in rig.received if isinstance(m, ExcessReport)]
        assert len(reports) == 1
        assert reports[0].delta == pytest.approx(60.0)
        assert rig.client.excess_reported_w == pytest.approx(60.0)

    def test_release_respects_safe_minimum(self):
        rig = Rig()
        rig.set_draw(SPEC.idle_w)
        rig.run_periods(1)
        assert rig.client.cap_w == SPEC.min_cap_w

    def test_within_epsilon_not_excess(self):
        rig = Rig()
        rig.set_draw(INITIAL - 2.0)
        rig.run_periods(1)
        assert rig.client.cap_w == INITIAL


class TestHungryPath:
    def test_request_and_grant_applied(self):
        rig = Rig(grant_w=12.0)
        rig.set_draw(INITIAL)
        rig.run_periods(1)
        assert rig.client.cap_w == pytest.approx(INITIAL + 12.0)
        assert rig.client.applied_grants_w == pytest.approx(12.0)

    def test_urgent_request_carries_alpha(self):
        rig = Rig(grant_w=0.0)
        rig.set_draw(100.0)
        rig.run_periods(1)  # release down to 100
        rig.set_draw(100.0)
        rig.run_periods(1)  # hungry below initial -> urgent
        urgent = [
            m for m in rig.received
            if isinstance(m, PowerRequest) and m.urgent
        ]
        assert urgent
        assert urgent[0].alpha == pytest.approx(60.0)

    def test_grant_clamped_at_max_cap_and_leftover_returned(self):
        rig = Rig(grant_w=50.0, config=SlurmConfig(stagger_start=False))
        rig.client.cap_w = 240.0
        rig.rapl.set_cap(240.0)
        rig.set_draw(240.0)
        rig.run_periods(1)
        assert rig.client.cap_w == SPEC.max_cap_w
        # 10 usable, 40 mailed back as excess without touching the cap.
        returned = [m for m in rig.received if isinstance(m, ExcessReport)]
        assert returned and returned[-1].delta == pytest.approx(40.0)
        assert rig.client.recorder.counters.get(
            "slurm.client.grant_overflow_returned"
        ) == 1

    def test_timeout_when_server_down(self):
        rig = Rig(server_running=False)
        rig.set_draw(INITIAL)
        rig.run_periods(2)
        assert rig.client.recorder.counters.get(
            "slurm.client.request_timeouts", 0
        ) >= 1
        assert rig.client.cap_w == INITIAL
        # A deadline that fired is not cancelled afterwards.
        assert rig.engine.cancelled_events == 0

    def test_saturated_cap_sends_no_request(self):
        rig = Rig(grant_w=10.0)
        rig.client.cap_w = SPEC.max_cap_w
        rig.rapl.set_cap(SPEC.max_cap_w)
        rig.set_draw(SPEC.max_cap_w)
        rig.run_periods(1)
        assert not [m for m in rig.received if isinstance(m, PowerRequest)]


class TestReleaseDirective:
    def test_directive_induces_release_to_initial(self):
        rig = Rig()
        rig.client.cap_w = 200.0
        rig.rapl.set_cap(200.0)
        rig.set_draw(200.0)  # hungry: would never release on its own
        rig.network.send(
            ReleaseDirective(src=SERVER, dst=Addr(0, PORT_DECIDER))
        )
        rig.run_periods(2)
        assert rig.client.cap_w <= INITIAL + 1e-9
        induced = [m for m in rig.received if isinstance(m, ExcessReport)]
        assert induced and induced[0].delta == pytest.approx(40.0)

    def test_directive_ignored_when_urgent(self):
        rig = Rig()
        rig.client.cap_w = 100.0  # below initial -> urgent
        rig.rapl.set_cap(100.0)
        rig.set_draw(100.0)
        rig.network.send(
            ReleaseDirective(src=SERVER, dst=Addr(0, PORT_DECIDER))
        )
        rig.run_periods(2)
        # Never releases below initial because of a directive.
        assert rig.client.cap_w <= INITIAL

    def test_directive_ignored_at_initial_cap(self):
        rig = Rig()
        rig.set_draw(INITIAL)
        rig.network.send(
            ReleaseDirective(src=SERVER, dst=Addr(0, PORT_DECIDER))
        )
        rig.run_periods(2)
        assert not [m for m in rig.received if isinstance(m, ExcessReport)]


class TestStaleGrants:
    def test_stale_grant_applied_via_inbox_drain(self):
        rig = Rig()
        rig.set_draw(INITIAL)
        rig.network.send(
            PowerGrant(src=SERVER, dst=Addr(0, PORT_DECIDER), delta=8.0,
                       reply_to=12345)
        )
        rig.run_periods(1)
        assert rig.client.recorder.counters.get(
            "slurm.client.stale_grants_applied"
        ) == 1
        assert rig.client.applied_grants_w == pytest.approx(8.0)
        # The node did not actually need the late power, so the same tick
        # classified it as excess and mailed it straight back -- no watts
        # lost either way.
        assert rig.client.cap_w == pytest.approx(INITIAL)
        returned = [m for m in rig.received if isinstance(m, ExcessReport)]
        assert returned and returned[0].delta == pytest.approx(8.0, abs=0.5)


class TestLifecycle:
    def test_stop_halts(self):
        rig = Rig()
        rig.set_draw(100.0)
        rig.run_periods(1)
        iterations = rig.client.iterations
        rig.client.stop()
        rig.run_periods(2)
        assert rig.client.iterations == iterations

    def test_double_start_rejected(self):
        rig = Rig()
        with pytest.raises(RuntimeError):
            rig.client.start()

    def test_restart_mid_request_receives_the_next_grant(self):
        # Stopped while waiting on an unreachable server, the client must
        # withdraw its getter: left registered, it would swallow the
        # restarted client's first grant.
        rig = Rig(grant_w=12.0)
        rig.network.mark_dead(SERVER.node)
        rig.set_draw(INITIAL)
        rig.engine.run(until=rig.config.period_s + 0.5)
        rig.client.stop()
        rig.engine.run(until=rig.engine.now + 0.1)
        rig.network.mark_alive(SERVER.node)
        rig.client.start()
        rig.run_periods(1)
        assert len([m for m in rig.received if isinstance(m, PowerRequest)]) == 1
        assert rig.client.applied_grants_w == pytest.approx(12.0)
        assert rig.client.cap_w == pytest.approx(INITIAL + 12.0)


def spy_deadlines(rig):
    """Every request deadline handle the client arms from now on, in order."""
    deadlines = []
    push = rig.engine._push

    def spying_push(entry):
        if getattr(entry[3], "name", None) == "slurm.client.deadline":
            deadlines.append(entry[3])
        push(entry)

    rig.engine._push = spying_push
    return deadlines


def spy_requests(rig):
    """Every PowerRequest the client sends from now on."""
    requests = []
    send = rig.network.send

    def spying_send(message):
        if isinstance(message, PowerRequest):
            requests.append(message)
        return send(message)

    rig.network.send = spying_send
    return requests


class TestDeadlines:
    def test_granted_request_cancels_its_deadline(self):
        config = SlurmConfig(stagger_start=False, response_timeout_s=0.9)
        rig = Rig(grant_w=12.0, config=config)
        deadlines = spy_deadlines(rig)
        rig.set_draw(INITIAL)
        cancelled_before = rig.engine.cancelled_events
        rig.run_periods(1)
        assert rig.client.applied_grants_w == pytest.approx(12.0)
        assert deadlines
        assert rig.engine.cancelled_events > cancelled_before
        # No deadline of an answered request is left live in the queue.
        assert [d for d in deadlines if d.pending] == []

    def test_stop_mid_wait_cancels_its_deadline(self):
        # Stopped while waiting on an unreachable server, the client owns
        # a still-armed deadline: it must be cancelled, not left to fire
        # into the abandoned wait.
        config = SlurmConfig(stagger_start=False, response_timeout_s=0.9)
        rig = Rig(grant_w=12.0, config=config)
        rig.network.mark_dead(SERVER.node)
        deadlines = spy_deadlines(rig)
        rig.set_draw(INITIAL)
        rig.engine.run(until=config.period_s + 0.5)
        assert len(deadlines) == 1 and deadlines[0].pending
        cancelled_before = rig.engine.cancelled_events
        rig.client.stop()
        assert not rig.client.is_running
        assert not deadlines[0].pending
        assert rig.engine.cancelled_events == cancelled_before + 1
        rig.engine.run(until=rig.engine.now + 2 * config.period_s)
        # Nothing of the abandoned wait acts later: no timeout is counted.
        assert "slurm.client.request_timeouts" not in rig.client.recorder.counters

    def test_reply_between_deadline_and_wake_up_counts_as_the_grant(self):
        # The deadline fires, and a grant lands at that same instant
        # before the wake-up the deadline queues: the grant is still
        # the answer.
        config = SlurmConfig(stagger_start=False, response_timeout_s=0.9)
        rig = Rig(config=config, server_running=False)
        requests = spy_requests(rig)
        fired_at = []
        on_deadline = rig.client._on_deadline

        def late_grant():
            # Right after the deadline queues its wake-up.
            on_deadline()
            fired_at.append(rig.engine.now)
            request = requests[0]
            rig.client.inbox.try_put(
                PowerGrant(
                    src=SERVER, dst=request.src, delta=12.0, reply_to=request.msg_id
                )
            )

        rig.client._on_deadline = late_grant
        deadlines = spy_deadlines(rig)
        rig.set_draw(INITIAL)
        rig.engine.run(until=config.period_s + 0.5)
        assert len(deadlines) == 1 and len(requests) == 1
        rig.engine.run(until=config.period_s + 0.95)  # before the next tick
        assert fired_at == [pytest.approx(config.period_s + config.timeout_s)]
        turnaround = rig.client.recorder.turnarounds[-1]
        assert not turnaround.timed_out
        assert turnaround.granted_w == pytest.approx(12.0)
        assert turnaround.wait_s == pytest.approx(config.timeout_s)
        assert rig.client.applied_grants_w == pytest.approx(12.0)
        assert rig.client.cap_w == pytest.approx(INITIAL + 12.0)
        assert "slurm.client.request_timeouts" not in rig.client.recorder.counters

    def test_deadline_without_a_reply_times_out_at_its_wake_up(self):
        config = SlurmConfig(stagger_start=False, response_timeout_s=0.9)
        rig = Rig(config=config, server_running=False)
        deadlines = spy_deadlines(rig)
        rig.set_draw(INITIAL)
        rig.engine.run(until=config.period_s + 0.95)  # before the next tick
        assert len(deadlines) == 1 and not deadlines[0].pending
        turnaround = rig.client.recorder.turnarounds[-1]
        assert turnaround.timed_out and turnaround.granted_w == 0.0
        assert rig.client.recorder.counters["slurm.client.request_timeouts"] == 1
        # The abandoned getter left with the timeout: the next message
        # goes to the inbox, where the next tick drains it.
        assert rig.client.inbox._getters == []


class TestStrayMessageAtTheWait:
    """The client's inbox holds a stray message when a request arms its
    wait: the wait takes it through a queued hand-off at that instant,
    handles it, and waits again for the request's answer."""

    @staticmethod
    def _rig(grant_w, server_running, on_request=None):
        config = SlurmConfig(stagger_start=False, response_timeout_s=0.9)
        rig = Rig(grant_w=grant_w, config=config, server_running=server_running)
        rig.stale_at = []
        send = rig.network.send

        def send_after_a_stray(message):
            # The stray lands after the tick drained the inbox and
            # before the request's wait is armed.
            if isinstance(message, PowerRequest):
                rig.client.inbox.try_put(
                    PowerGrant(src=SERVER, dst=message.src, delta=5.0, reply_to=-1)
                )
                if on_request is not None:
                    on_request(rig)
            send(message)

        rig.network.send = send_after_a_stray
        apply_grant = rig.client._apply_grant

        def spying_apply_grant(delta_w):
            rig.stale_at.append((rig.engine.now, len(rig.client.inbox)))
            apply_grant(delta_w)

        rig.client._apply_grant = spying_apply_grant
        rig.set_draw(INITIAL)
        return rig, config

    def test_the_request_waits_again_and_takes_its_grant(self):
        rig, config = self._rig(grant_w=12.0, server_running=True)
        rig.run_periods(1)
        # The stray was handled at the request's instant, out of the inbox.
        assert rig.stale_at[0] == (config.period_s, 0)
        assert rig.client.recorder.counters["slurm.client.stale_grants_applied"] == 1
        (turnaround,) = rig.client.recorder.turnarounds
        assert not turnaround.timed_out
        assert turnaround.granted_w == pytest.approx(12.0)
        assert rig.client.applied_grants_w == pytest.approx(17.0)
        assert "slurm.client.request_timeouts" not in rig.client.recorder.counters

    def test_an_unanswered_request_times_out_once_at_its_deadline(self):
        rig, config = self._rig(grant_w=0.0, server_running=False)
        rig.engine.run(until=config.period_s + 0.95)  # before the next tick
        assert rig.stale_at == [(config.period_s, 0)]
        (turnaround,) = rig.client.recorder.turnarounds
        assert turnaround.timed_out
        assert turnaround.time == pytest.approx(config.period_s + config.timeout_s)
        assert rig.client.recorder.counters["slurm.client.request_timeouts"] == 1


    def test_a_restart_while_the_hand_off_is_queued_never_takes_it(self):
        # Stopped and restarted at the request's instant, after the wait
        # queued the hand-off and before it surfaces: the message left
        # the inbox with the dead wait and is taken by neither loop.
        def restart(rig):
            if not rig.stale_at and not rig.client.recorder.turnarounds:
                rig.engine.call_later(0.0, _restart, rig.client, name="test.restart")

        rig, config = self._rig(grant_w=0.0, server_running=False, on_request=restart)
        rig.engine.run(until=config.period_s + 0.95)  # before the next tick
        assert rig.client.is_running
        assert rig.stale_at == []
        assert rig.client.recorder.turnarounds == []
        assert len(rig.client.inbox) == 0


def _restart(client):
    client.stop()
    client.start()


class TestLeanWait:
    def test_no_condition_built_while_a_run_dispatches(self, monkeypatch):
        # Every server wait is a plain queued call: any event built inside
        # the event loop -- a condition included -- means a client fell
        # back to waiting on an event.  (The executors' and the
        # completion's events are built before the loop starts, which
        # this count leaves out.)
        from repro.experiments.harness import RunSpec, run_single
        from repro.sim import events

        counts = {"conditions": 0}
        dispatching = [False]
        dispatch = Engine._dispatch
        event_init = events.EventBase.__init__

        def counting_dispatch(self, until):
            dispatching[0] = True
            try:
                return dispatch(self, until)
            finally:
                dispatching[0] = False

        def counting_event(self, *args, **kwargs):
            if dispatching[0]:
                counts["conditions"] += 1
            event_init(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "_dispatch", counting_dispatch)
        monkeypatch.setattr(events.EventBase, "__init__", counting_event)
        result = run_single(
            RunSpec(
                manager="slurm",
                pair=("EP", "DC"),
                cap_w_per_socket=80.0,
                n_clients=4,
                workload_scale=0.05,
            )
        )
        # The clients did wait on the server ...
        assert result.recorder.turnarounds
        # ... and none of those waits built an event.
        assert counts == {"conditions": 0}
