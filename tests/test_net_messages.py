"""Unit tests for message types and addressing."""

from __future__ import annotations

import pytest

import dataclasses

from repro.net.messages import (
    MEMBER_SUSPECT,
    PORT_DECIDER,
    PORT_POOL,
    Addr,
    ExcessReport,
    GrantAck,
    MembershipUpdate,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
    excess_report,
    grant_ack,
    membership_update,
    next_message_id,
    power_grant,
    power_request,
)


def addr(node: int, port: str = PORT_DECIDER) -> Addr:
    return Addr(node, port)


class TestAddr:
    def test_fields(self):
        a = Addr(3, "pool")
        assert a.node == 3 and a.port == "pool"

    def test_equality_and_hash(self):
        assert Addr(1, "pool") == Addr(1, "pool")
        assert Addr(1, "pool") != Addr(1, "decider")
        assert len({Addr(1, "pool"), Addr(1, "pool"), Addr(2, "pool")}) == 2

    def test_str(self):
        assert str(Addr(7, "server")) == "7:server"


class TestMessageIds:
    def test_ids_monotonic_and_unique(self):
        ids = [next_message_id() for _ in range(100)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 100

    def test_messages_get_distinct_ids(self):
        a = PowerRequest(src=addr(0), dst=addr(1, PORT_POOL))
        b = PowerRequest(src=addr(0), dst=addr(1, PORT_POOL))
        assert a.msg_id != b.msg_id


class TestPowerRequest:
    def test_plain_request(self):
        req = PowerRequest(src=addr(0), dst=addr(1, PORT_POOL))
        assert not req.urgent and req.alpha == 0.0
        assert req.kind == "PowerRequest"

    def test_urgent_request_carries_alpha(self):
        req = PowerRequest(src=addr(0), dst=addr(1, PORT_POOL), urgent=True, alpha=12.5)
        assert req.urgent and req.alpha == 12.5

    def test_alpha_on_non_urgent_rejected(self):
        with pytest.raises(ValueError):
            PowerRequest(src=addr(0), dst=addr(1, PORT_POOL), alpha=5.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            PowerRequest(
                src=addr(0), dst=addr(1, PORT_POOL), urgent=True, alpha=-1.0
            )


class TestPowerGrant:
    def test_carries_delta_and_correlation(self):
        grant = PowerGrant(src=addr(1, PORT_POOL), dst=addr(0), delta=4.0, reply_to=99)
        assert grant.delta == 4.0 and grant.reply_to == 99

    def test_zero_grant_allowed(self):
        PowerGrant(src=addr(1, PORT_POOL), dst=addr(0), delta=0.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            PowerGrant(src=addr(1, PORT_POOL), dst=addr(0), delta=-0.1)


class TestExcessReport:
    def test_positive_delta_required(self):
        with pytest.raises(ValueError):
            ExcessReport(src=addr(0), dst=addr(1), delta=0.0)
        ExcessReport(src=addr(0), dst=addr(1), delta=1.0)


class TestReleaseDirective:
    def test_kind_and_attribution(self):
        directive = ReleaseDirective(src=addr(9), dst=addr(0), on_behalf_of=4)
        assert directive.kind == "ReleaseDirective"
        assert directive.on_behalf_of == 4


class TestPositionalBuilders:
    """Each builder is its class's keyword constructor, built faster."""

    CASES = [
        (
            lambda: power_request(addr(0), addr(1, PORT_POOL), True, 12.5, 7),
            lambda: PowerRequest(
                src=addr(0), dst=addr(1, PORT_POOL), urgent=True, alpha=12.5, iteration=7
            ),
        ),
        (
            lambda: power_grant(addr(1, PORT_POOL), addr(0), 3.0, 41, True),
            lambda: PowerGrant(
                src=addr(1, PORT_POOL), dst=addr(0), delta=3.0, reply_to=41, urgent=True
            ),
        ),
        (
            lambda: grant_ack(addr(0), addr(1, PORT_POOL), 41, 3.0),
            lambda: GrantAck(src=addr(0), dst=addr(1, PORT_POOL), reply_to=41, delta=3.0),
        ),
        (
            lambda: excess_report(addr(0), addr(1), 9.0),
            lambda: ExcessReport(src=addr(0), dst=addr(1), delta=9.0),
        ),
    ]

    @pytest.mark.parametrize("build, reference", CASES, ids=["request", "grant", "ack", "excess"])
    def test_same_fields_and_next_id(self, build, reference):
        expected = reference()
        built = build()
        assert type(built) is type(expected)
        assert built.msg_id == expected.msg_id + 1  # drawn from the same counter
        for field in dataclasses.fields(expected):
            if field.name != "msg_id":
                assert getattr(built, field.name) == getattr(expected, field.name)
        assert built.gossip == ()
        assert built == dataclasses.replace(expected, msg_id=built.msg_id)

    @pytest.mark.parametrize("build, reference", CASES, ids=["request", "grant", "ack", "excess"])
    def test_built_messages_stay_frozen(self, build, reference):
        with pytest.raises(dataclasses.FrozenInstanceError):
            build().msg_id = 0

    def test_membership_update_is_its_keyword_constructor(self):
        built = membership_update(3, MEMBER_SUSPECT, 5)
        assert type(built) is MembershipUpdate
        assert built == MembershipUpdate(node=3, status=MEMBER_SUSPECT, incarnation=5)
        assert hash(built) == hash(MembershipUpdate(3, MEMBER_SUSPECT, 5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.node = 0

    def test_post_init_checks_still_run(self):
        with pytest.raises(ValueError):
            power_request(addr(0), addr(1), False, 1.0, 0)
        with pytest.raises(ValueError):
            power_request(addr(0), addr(1), True, -1.0, 0)
        with pytest.raises(ValueError):
            power_grant(addr(1), addr(0), -1.0, None, False)
        with pytest.raises(ValueError):
            grant_ack(addr(0), addr(1), 3, -1.0)
        with pytest.raises(ValueError):
            excess_report(addr(0), addr(1), 0.0)
