"""Property-based tests: simulation kernel invariants."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.resources import Store, StoreFull

delays = st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=30)


class TestClockMonotonicity:
    @given(delays=delays)
    @settings(max_examples=80, deadline=None)
    def test_events_observe_nondecreasing_time(self, delays):
        engine = Engine()
        observed = []
        for delay in delays:
            def proc(delay=delay):
                yield engine.timeout(delay)
                observed.append(engine.now)
            engine.process(proc())
        engine.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)
        assert engine.now == max(delays)

    @given(delays=delays)
    @settings(max_examples=40, deadline=None)
    def test_run_until_never_overshoots(self, delays):
        engine = Engine()
        for delay in delays:
            engine.timeout(delay)
        horizon = max(delays) / 2
        engine.run(until=horizon)
        assert engine.now == horizon


class TestStoreConservation:
    @given(
        capacity=st.integers(1, 10),
        items=st.lists(st.integers(), min_size=0, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_items_are_never_duplicated_or_invented(self, capacity, items):
        engine = Engine()
        store = Store(engine, capacity=capacity)
        accepted = [item for item in items if store.try_put(item)]
        drained = store.drain()
        assert drained == accepted[: len(drained)]
        assert store.total_put == len(accepted)
        assert store.total_dropped == len(items) - len(accepted)

    @given(items=st.lists(st.integers(), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_fifo_order_preserved_through_getters(self, items):
        engine = Engine()
        store = Store(engine)
        received = []

        def consumer():
            for _ in items:
                value = yield store.get()
                received.append(value)
        engine.process(consumer())
        for item in items:
            store.put_nowait(item)
        engine.run()
        assert received == items


class DequeStore:
    """Reference model: the FIFO store semantics on ``deque``, no kernel.

    A get is named by an integer id; ``woken`` logs ``(id, item)`` for
    every getter served, in serving order, and ``(id, "failed")`` for
    every getter failed by :meth:`cancel_getters`.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = deque()
        self.getters = deque()
        self.total_put = 0
        self.total_dropped = 0
        self.woken = []

    def try_put(self, item):
        if self.getters:
            self.woken.append((self.getters.popleft(), item))
            self.total_put += 1
            return True
        if len(self.items) >= self.capacity:
            self.total_dropped += 1
            return False
        self.items.append(item)
        self.total_put += 1
        return True

    def get(self, getter_id):
        if self.items:
            self.woken.append((getter_id, self.items.popleft()))
        else:
            self.getters.append(getter_id)

    def get_nowait(self):
        return self.items.popleft()

    def cancel_get(self, getter_id):
        try:
            self.getters.remove(getter_id)
            return True
        except ValueError:
            return False

    def drain(self):
        items = list(self.items)
        self.items.clear()
        return items

    def cancel_getters(self):
        failed = 0
        while self.getters:
            self.woken.append((self.getters.popleft(), "failed"))
            failed += 1
        return failed


store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("try_put"), st.integers(0, 99)),
        st.tuples(st.just("put_nowait"), st.integers(0, 99)),
        st.tuples(st.just("get"), st.just(0)),
        st.tuples(st.just("get_nowait"), st.just(0)),
        st.tuples(st.just("cancel_get"), st.integers(0, 30)),
        st.tuples(st.just("drain"), st.just(0)),
        st.tuples(st.just("cancel_getters"), st.just(0)),
    ),
    max_size=60,
)


class TestStoreMatchesDequeModel:
    """The list-backed Store behaves exactly like the deque reference."""

    @given(capacity=st.integers(1, 6) | st.just(float("inf")), ops=store_ops)
    @settings(max_examples=300, deadline=None)
    def test_random_interleavings(self, capacity, ops):
        engine = Engine()
        store = Store(engine, capacity=capacity)
        model = DequeStore(capacity)
        woken = []
        events = []

        def on_wake(getter_id):
            def record(event):
                event._defused = True  # a failed getter is logged, not raised
                woken.append((getter_id, event.value if event.ok else "failed"))
            return record

        for op, arg in ops:
            if op in ("try_put", "put_nowait"):
                if op == "try_put":
                    assert store.try_put(arg) == model.try_put(arg)
                else:
                    accepted = model.try_put(arg)
                    if accepted:
                        store.put_nowait(arg)
                    else:
                        with pytest.raises(StoreFull):
                            store.put_nowait(arg)
            elif op == "get":
                getter_id = len(events)
                event = store.get()
                event.callbacks.append(on_wake(getter_id))
                events.append(event)
                model.get(getter_id)
            elif op == "get_nowait":
                if model.items:
                    assert store.get_nowait() == model.get_nowait()
                else:
                    with pytest.raises(IndexError):
                        store.get_nowait()
            elif op == "cancel_get":
                if events:
                    getter_id = arg % len(events)
                    assert store.cancel_get(events[getter_id]) == model.cancel_get(
                        getter_id
                    )
            elif op == "drain":
                assert store.drain() == model.drain()
            else:
                assert store.cancel_getters(ConnectionError()) == model.cancel_getters()
            # A put completes a waiting getter in place; a getter served
            # from queued items, or failed, processes at this instant.
            # Either way the wake log matches the model's, in order.
            engine.run()
            assert woken == model.woken
            assert list(store._items) == list(model.items)
            assert len(store) == len(model.items)
            assert store.is_full == (len(model.items) >= capacity)
            assert store.total_put == model.total_put
            assert store.total_dropped == model.total_dropped


class TestDeterminism:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identical_runs_produce_identical_traces(self, seed):
        def simulate():
            from repro.sim.rng import RngRegistry

            engine = Engine()
            rng = RngRegistry(seed=seed).stream("x")
            trace = []
            def proc():
                for _ in range(10):
                    yield engine.timeout(float(rng.uniform(0.1, 1.0)))
                    trace.append(engine.now)
            engine.process(proc())
            engine.run()
            return trace

        assert simulate() == simulate()
