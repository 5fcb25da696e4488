"""Distributed-shared-memory substrate: object coherence states, HLRC
interval bookkeeping, the home-based lazy release consistency protocol
engine, distributed locks/barriers, and the page-based DSM baseline used
to reproduce the false-sharing comparison of Fig. 1."""

from repro.dsm.states import CopyState, RealState
from repro.dsm.intervals import IntervalHistory, IntervalRecord
from repro.dsm.sync import Barrier, DistributedLock, SyncRegistry
from repro.dsm.observer import ProtocolObserver
from repro.dsm.hlrc import HomeBasedLRC
from repro.dsm.pagedsm import PageGrainTracker
from repro.dsm.homemigration import DominantWriterPolicy, HomeMigrationEngine

__all__ = [
    "CopyState",
    "RealState",
    "IntervalHistory",
    "IntervalRecord",
    "Barrier",
    "DistributedLock",
    "SyncRegistry",
    "HomeBasedLRC",
    "ProtocolObserver",
    "PageGrainTracker",
    "DominantWriterPolicy",
    "HomeMigrationEngine",
]
