"""Good: protocol layer touching the substrate only through the seams."""

from typing import TYPE_CHECKING

from repro.sim import Engine, Handle

if TYPE_CHECKING:
    # Annotation-only edges carry no runtime coupling: exempt.
    from repro.sim.engine import StopSimulation


class DirectDecider:
    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def deadline(self, engine: Engine) -> float:
        return engine.now + 1.0

    def spin(self, timer: Handle, stop: "StopSimulation") -> None:
        if self.engine.now > 0:
            timer.cancel()
