"""Bad: a protocol-layer module wired straight into the substrate."""

from typing import TYPE_CHECKING

from repro.sim.engine import Engine
from repro.sim._internals import drain
from repro.cluster.boot import wire_cluster

if TYPE_CHECKING:
    from repro.sim.engine import StopSimulation


class DirectDecider:
    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def deadline(self, engine: Engine) -> float:
        return engine._now + 1.0

    def spin(self, stop: "StopSimulation") -> None:
        while self.engine._queue:
            self.engine.step()
        drain(stop)
        wire_cluster()
