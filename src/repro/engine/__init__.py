"""Discrete-event simulation kernel used by every hardware model.

The kernel is deliberately small: a cycle-resolution event queue
(:class:`~repro.engine.sim.Simulator`), generator-based processes
(:class:`~repro.engine.sim.Process`), and a handful of synchronization
primitives (:class:`~repro.engine.sim.Resource`,
:class:`~repro.engine.sim.Event`, :class:`~repro.engine.sim.Signal`).
Hardware models (MicroEngines, memories, DMA engines, buses) are written
as plain Python generators that ``yield`` timed commands.
"""

from repro.engine.sim import (
    Delay,
    Event,
    Interrupt,
    Process,
    Resource,
    Signal,
    SimulationError,
    Simulator,
    delay,
)

__all__ = [
    "Delay",
    "delay",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Signal",
    "SimulationError",
    "Simulator",
]
