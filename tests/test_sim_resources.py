"""Unit tests for Store."""

from __future__ import annotations

import pytest

from repro.sim.resources import Store, StoreFull


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put_nowait("item")

        def getter():
            value = yield store.get()
            return value
        proc = engine.process(getter())
        engine.run()
        assert proc.value == "item"

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)

        def getter():
            value = yield store.get()
            return (engine.now, value)

        def putter():
            yield engine.timeout(2.0)
            store.put_nowait("late")
        proc = engine.process(getter())
        engine.process(putter())
        engine.run()
        assert proc.value == (2.0, "late")

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

        def getter():
            value = yield store.get()
            return value
        proc = engine.process(getter())
        engine.run()
        assert store.try_put("direct")
        engine.run()
        assert proc.value == "direct"
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
        get_event = store.get()
        assert store.cancel_get(get_event)
        store.put_nowait("precious")
        # The item stays queued instead of being swallowed by the
        # abandoned getter.
        assert len(store) == 1
        assert store.get_nowait() == "precious"

    def test_cancel_get_unknown_event(self, engine):
        store = Store(engine)
        event = store.get()
        store.put_nowait("x")  # satisfies the getter
        assert not store.cancel_get(event)

    def test_cancel_getters_fails_waiters(self, engine):
        store = Store(engine)

        def getter():
            try:
                yield store.get()
            except ConnectionError:
                return "failed"
        proc = engine.process(getter())
        engine.run(until=0.0)
        assert store.cancel_getters(ConnectionError()) == 1
        engine.run()
        assert proc.value == "failed"

    def test_counters(self, engine):
        store = Store(engine, capacity=1)
        store.try_put(1)
        store.try_put(2)
        assert store.total_put == 1
        assert store.total_dropped == 1
        assert store.is_full
