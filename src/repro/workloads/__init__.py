"""Benchmark workloads, ported (as access-faithful simulations) from the
paper's SPLASH-2-derived Java programs:

* :class:`~repro.workloads.sor.SORWorkload` — red-black successive
  over-relaxation; coarse granularity (multi-KB row arrays),
  near-neighbour sharing.
* :class:`~repro.workloads.barnes_hut.BarnesHutWorkload` — hierarchical
  N-body with a real octree over two galaxies; fine granularity
  (sub-100-byte bodies), irregular sharing with intra-galaxy locality.
* :class:`~repro.workloads.water_spatial.WaterSpatialWorkload` —
  molecular dynamics over a 3D cell decomposition; medium granularity,
  near-neighbour 3D-box sharing with evolving load.
* :mod:`~repro.workloads.synthetic` — configurable sharing patterns with
  known ground truth, used by tests.
"""

from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.sor import SORWorkload
from repro.workloads.barnes_hut import BarnesHutWorkload
from repro.workloads.water_spatial import WaterSpatialWorkload
from repro.workloads.synthetic import (
    GroupSharingWorkload,
    RacyCounterWorkload,
    UniformSharingWorkload,
)

__all__ = [
    "Workload",
    "WorkloadSpec",
    "SORWorkload",
    "BarnesHutWorkload",
    "WaterSpatialWorkload",
    "GroupSharingWorkload",
    "RacyCounterWorkload",
    "UniformSharingWorkload",
]
