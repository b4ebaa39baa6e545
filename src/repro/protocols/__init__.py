"""Contact probing protocols.

* :mod:`~repro.protocols.snip` — SNIP, the sensor-node-initiated probing
  mechanism from the companion paper [10]; the substrate this paper's
  schedulers drive.
* :mod:`~repro.protocols.mnip` — the mobile-node-initiated baseline
  (beacons broadcast by the mobile node; the sensor must be listening),
  modelled after Anastasi et al. and used as the comparison point the
  SNIP paper established.

Uploads during a probed contact are not a protocol here: the engines
drain a :class:`~repro.node.buffer.FluidBuffer` through the
:class:`~repro.radio.link.LinkModel`.
"""

from .snip import SnipProbe, SnipProbing, probe_contact
from .mnip import MnipProbing, mnip_probe_contact

__all__ = [
    "SnipProbe",
    "SnipProbing",
    "probe_contact",
    "MnipProbing",
    "mnip_probe_contact",
]
