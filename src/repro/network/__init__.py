"""Multi-node network layer: the paper's Fig. 1 deployment, end to end.

Everything upstream of a single sensor node's contact trace:

* :mod:`~repro.network.deployment` — sensor sites along a road;
* :mod:`~repro.network.agents` — commuter agents whose daily trips
  produce the rush-hour structure from first principles (rather than a
  hand-marked profile);
* :mod:`~repro.network.contacts` — per-site contact extraction from
  agent trips, including the sparse-network contention policy;
* :mod:`~repro.network.runner` — the commuter fleet as one contact
  source per node (a fleet study runs each node as an ordinary cell)
  and the per-node and fleet aggregates.
"""

from .deployment import RoadDeployment, SensorSite
from .agents import CommuterAgent, CommutePattern, Population
from .contacts import ContactExtractor, enforce_sparse
from .runner import CommuterNodeSource, NetworkResult, NodeOutcome

__all__ = [
    "RoadDeployment",
    "SensorSite",
    "CommuterAgent",
    "CommutePattern",
    "Population",
    "ContactExtractor",
    "enforce_sparse",
    "CommuterNodeSource",
    "NetworkResult",
    "NodeOutcome",
]
