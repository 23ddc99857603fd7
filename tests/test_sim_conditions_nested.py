"""Edge-case tests: nested conditions, process chains, store interleavings."""

from __future__ import annotations

from repro.sim.events import AllOf, AnyOf
from repro.sim.resources import Store


class TestNestedConditions:
    def test_condition_of_conditions(self, engine):
        a = engine.timeout(1.0, "a")
        b = engine.timeout(2.0, "b")
        c = engine.timeout(3.0, "c")

        def waiter():
            yield AnyOf(engine, [AllOf(engine, [a, b]), c])
            return engine.now
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == 2.0  # (a & b) wins at t=2 before c at t=3

    def test_allof_containing_anyof(self, engine):
        fast = engine.timeout(1.0)
        slow = engine.timeout(5.0)
        other = engine.timeout(3.0)

        def waiter():
            yield AllOf(engine, [AnyOf(engine, [fast, slow]), other])
            return engine.now
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == 3.0

    def test_condition_with_process_members(self, engine):
        def worker(delay, value):
            yield engine.timeout(delay)
            return value
        p1 = engine.process(worker(1.0, "x"))
        p2 = engine.process(worker(2.0, "y"))

        def waiter():
            result = yield p1 & p2
            return sorted(result.values())
        proc = engine.process(waiter())
        engine.run()
        assert proc.value == ["x", "y"]


class TestProcessChains:
    def test_deep_chain_of_waiting_processes(self, engine):
        def leaf():
            yield engine.timeout(1.0)
            return 1

        def wrap(inner):
            value = yield inner
            return value + 1

        proc = engine.process(leaf())
        for _ in range(10):
            proc = engine.process(wrap(proc))
        engine.run()
        assert proc.value == 11

    def test_many_processes_waiting_on_one_event(self, engine):
        event = engine.event()
        results = []

        def waiter(tag):
            value = yield event
            results.append((tag, value))
        for tag in range(20):
            engine.process(waiter(tag))

        def trigger():
            yield engine.timeout(2.0)
            event.succeed("go")
        engine.process(trigger())
        engine.run()
        assert len(results) == 20
        assert all(value == "go" for _, value in results)


class TestStoreInterleavings:
    def test_producer_consumer_with_bounded_buffer(self, engine):
        store = Store(engine, capacity=2)
        produced, consumed, dropped = [], [], []

        def producer():
            for item in range(10):
                yield engine.timeout(0.1)
                if store.try_put(item):
                    produced.append(item)
                else:
                    dropped.append(item)

        def consumer():
            from repro.sim.process import Interrupt

            try:
                while True:
                    value = yield store.get()
                    consumed.append(value)
                    yield engine.timeout(0.35)  # slower than the producer
            except Interrupt:
                return

        engine.process(producer())
        consumer_proc = engine.process(consumer())
        engine.run(until=10.0)
        consumer_proc.interrupt()
        engine.run()
        assert len(dropped) > 0  # backpressure really happened
        assert consumed == produced[: len(consumed)]  # order preserved
        assert set(consumed) | set(dropped) | set(store.drain()) == set(
            produced + dropped
        )
