"""Simulated-time substrate: per-node clocks, CPU cost model, and a
Fast-Ethernet-class network model with traffic accounting.

The paper's evaluation runs on the HKU Gideon 300 cluster (P4 2 GHz,
Fast Ethernet).  This package substitutes that hardware with a
deterministic cost model so that the *relative* overheads the paper
reports (profiling cost as a percentage of execution time, OAL traffic
as a percentage of GOS traffic) can be regenerated on a laptop.
"""

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.events import Event, EventKind, EventLoop
from repro.sim.network import MessageKind, Network, TrafficStats
from repro.sim.node import CoreSchedule, Node
from repro.sim.cluster import Cluster

__all__ = [
    "SimClock",
    "CostModel",
    "Event",
    "EventKind",
    "EventLoop",
    "MessageKind",
    "Network",
    "TrafficStats",
    "CoreSchedule",
    "Node",
    "Cluster",
]
