"""Exploitation of the profiling output: correlation-aware thread
placement and load balancing.  The paper defers the full policy to
future work (Section VI) but motivates it throughout — these modules
implement the natural policies the profiles enable, used by the
placement examples and the ablation benchmarks."""

from repro.placement.partition import greedy_partition, refine_partition, partition_quality
from repro.placement.balancer import CorrelationAwareBalancer, MigrationProposal
from repro.placement.runtime_balancer import OnlineRebalancer

__all__ = [
    "greedy_partition",
    "refine_partition",
    "partition_quality",
    "CorrelationAwareBalancer",
    "MigrationProposal",
    "OnlineRebalancer",
]
