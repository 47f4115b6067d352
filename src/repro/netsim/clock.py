"""The clocks the network models run on; they live in :mod:`repro.clock`.

:mod:`repro.clock` is a leaf below every layer, so production code takes
its clocks from there; this module keeps the names importable from the
simulation package.
"""

from ..clock import Clock, VirtualClock, WallClock

__all__ = ["Clock", "WallClock", "VirtualClock"]
