"""Unit tests for Store."""

from __future__ import annotations

import pytest

from repro.sim.events import PRIORITY_NORMAL, Event
from repro.sim.resources import Store, StoreFull


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put_nowait("item")
        got = []
        store.wait(lambda token, item: got.append(item), "t")
        engine.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)
        got = []
        store.wait(lambda token, item: got.append((engine.now, item)), "t")
        engine.call_later(2.0, store.put_nowait, "late", name="test.put")
        engine.run()
        assert got == [(2.0, "late")]

    def test_fifo_order(self, engine):
        store = Store(engine)
        for i in range(3):
            store.put_nowait(i)
        assert [store.get_nowait() for _ in range(3)] == [0, 1, 2]

    def test_capacity_enforced(self, engine):
        store = Store(engine, capacity=2)
        assert store.try_put(1) and store.try_put(2)
        assert not store.try_put(3)
        assert store.total_dropped == 1
        with pytest.raises(StoreFull):
            store.put_nowait(4)

    def test_put_to_waiting_getter_bypasses_capacity(self, engine):
        store = Store(engine, capacity=1)
        store.put_nowait("first")
        store.get_nowait()
        got = []
        store.wait(lambda token, item: got.append(item), "t")
        assert store.try_put("direct")
        assert got == ["direct"]
        assert len(store) == 0

    def test_invalid_capacity(self, engine):
        with pytest.raises(ValueError):
            Store(engine, capacity=0)

    def test_drain(self, engine):
        store = Store(engine)
        store.put_nowait(1)
        store.put_nowait(2)
        assert store.drain() == [1, 2]
        assert len(store) == 0

    def test_cancel_get_prevents_item_loss(self, engine):
        store = Store(engine)
        store.wait(lambda token, item: None, "abandoned")
        assert store.cancel_wait("abandoned")
        store.put_nowait("precious")
        # The item stays queued instead of being swallowed by the
        # abandoned getter.
        assert len(store) == 1
        assert store.get_nowait() == "precious"

    def test_cancel_get_unknown_event(self, engine):
        store = Store(engine)
        store.wait(lambda token, item: None, "t")
        store.put_nowait("x")  # satisfies the getter
        assert not store.cancel_wait("t")

    def test_counters(self, engine):
        store = Store(engine, capacity=1)
        store.try_put(1)
        store.try_put(2)
        assert store.total_put == 1
        assert store.total_dropped == 1
        assert store.is_full


class TestWait:
    """``Store.wait``: a getter that is a plain ``(fn, token)`` pair."""

    def test_put_hands_the_item_to_a_waiting_fn_in_place(self, engine):
        store = Store(engine, capacity=1)
        calls = []
        assert store.wait(lambda token, item: calls.append((token, item)), "t") is None
        assert store.try_put("direct")
        # Called inside the put: nothing was queued, nothing stays stored.
        assert calls == [("t", "direct")]
        assert len(store) == 0 and store.total_put == 1
        assert engine.peek() == float("inf")

    def test_wait_on_a_non_empty_store_queues_the_hand_off(self, engine, monkeypatch):
        store = Store(engine)
        store.put_nowait("queued")
        engine.run(until=1.5)
        pushed = []
        push = engine._push

        def spying_push(entry):
            pushed.append(entry)
            push(entry)

        monkeypatch.setattr(engine, "_push", spying_push)
        calls = []

        def fn(token, item):
            calls.append((token, item, engine.now))

        Event(engine).succeed()  # the key an event succeeding now takes
        assert store.wait(fn, "t") == "queued"
        assert len(store) == 0 and calls == []
        (succeeded, hand_off) = pushed
        assert hand_off[:2] == succeeded[:2] == (1.5, PRIORITY_NORMAL)
        assert hand_off[2] == succeeded[2] + 1
        assert hand_off[3:] == (fn, ("t", "queued"))
        engine.run()
        assert calls == [("t", "queued", 1.5)]

    def test_cancelled_wait_neither_loses_nor_takes_the_next_item(self, engine):
        store = Store(engine)
        dead, live = [], []
        store.wait(lambda token, item: dead.append(item), 1)
        assert store.cancel_wait(1)
        assert not store.cancel_wait(1)
        store.put_nowait("precious")
        assert dead == [] and len(store) == 1
        assert store.wait(lambda token, item: live.append((token, item)), 2) == "precious"
        engine.run()
        assert dead == [] and live == [(2, "precious")]
