"""Node layer: the sensor node endpoint.

* :mod:`~repro.node.buffer` — the sensor node's report buffer;
* :mod:`~repro.node.datagen` — constant-rate sensing (the paper derives
  the data rate from ζtarget);
* :mod:`~repro.node.sensor` — sensor node state: buffer + energy ledger
  + per-epoch probing accounts.

The mobile node needs no model of its own: its radio is always on, so
it hears every beacon in range (see :mod:`repro.radio.beacon`).
"""

from .buffer import DataBuffer
from .datagen import ConstantRateDataGenerator
from .sensor import SensorNode

__all__ = [
    "DataBuffer",
    "ConstantRateDataGenerator",
    "SensorNode",
]
