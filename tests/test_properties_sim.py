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
            engine.call_later(delay, lambda: observed.append(engine.now), name="test.at")
        engine.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)
        assert engine.now == max(delays)

    @given(delays=delays)
    @settings(max_examples=40, deadline=None)
    def test_run_until_never_overshoots(self, delays):
        engine = Engine()
        for delay in delays:
            engine.call_later(delay, print, name="test.at")
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

        def take(token, item):
            received.append(item)
            if len(received) < len(items):
                store.wait(take, token)

        store.wait(take, "consumer")
        for item in items:
            store.put_nowait(item)
        engine.run()
        assert received == items


class DequeStore:
    """Reference model: the FIFO store semantics on ``deque``, no kernel.

    A wait is named by an integer id; ``woken`` logs ``(id, item)`` for
    every getter served, in serving order.
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

    def wait(self, getter_id):
        if self.items:
            self.woken.append((getter_id, self.items.popleft()))
        else:
            self.getters.append(getter_id)

    def get_nowait(self):
        return self.items.popleft()

    def cancel_wait(self, getter_id):
        try:
            self.getters.remove(getter_id)
            return True
        except ValueError:
            return False

    def drain(self):
        items = list(self.items)
        self.items.clear()
        return items


store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("try_put"), st.integers(0, 99)),
        st.tuples(st.just("put_nowait"), st.integers(0, 99)),
        st.tuples(st.just("wait"), st.just(0)),
        st.tuples(st.just("get_nowait"), st.just(0)),
        st.tuples(st.just("cancel_wait"), st.integers(0, 30)),
        st.tuples(st.just("drain"), st.just(0)),
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
        waits = 0

        def record(getter_id, item):
            woken.append((getter_id, item))

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
            elif op == "wait":
                store.wait(record, waits)
                model.wait(waits)
                waits += 1
            elif op == "get_nowait":
                if model.items:
                    assert store.get_nowait() == model.get_nowait()
                else:
                    with pytest.raises(IndexError):
                        store.get_nowait()
            elif op == "cancel_wait":
                if waits:
                    getter_id = arg % waits
                    assert store.cancel_wait(getter_id) == model.cancel_wait(getter_id)
            else:
                assert store.drain() == model.drain()
            # A put hands the item to a waiting getter in place; a getter
            # served from queued items is called at this instant.
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

            def step():
                engine.call_later(float(rng.uniform(0.1, 1.0)), tick, name="test.tick")

            def tick():
                trace.append(engine.now)
                if len(trace) < 10:
                    step()

            step()
            engine.run()
            return trace

        assert simulate() == simulate()
