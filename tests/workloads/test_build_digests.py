"""Pinned build digests: the object table and every thread's op stream
of the three benchmark workloads at the end-to-end benchmark's sizes.

A change to how a workload builds (array passes, allocation, emission)
must leave these bytes alone: object ids, homes and op order decide every
simulated number.  The digests were recorded before the Barnes-Hut setup
moved to array passes; a change that is *meant* to move a workload's
build updates its digest here and says why.
"""

import hashlib

import pytest

from repro.runtime.djvm import DJVM
from repro.workloads import BarnesHutWorkload, SORWorkload, WaterSpatialWorkload

#: the end-to-end benchmark's sizes (benchmarks/e2e/catalog.py): 8 nodes,
#: one thread each, block placement.
SIZES = {
    "SOR": (SORWorkload, {"n": 8192, "rounds": 60}),
    "Barnes-Hut": (BarnesHutWorkload, {"n_bodies": 4096, "rounds": 5}),
    "Water-Spatial": (WaterSpatialWorkload, {"n_molecules": 2048, "rounds": 10, "grid": 6}),
}

DIGESTS = {
    ("SOR", 0): "583b3fd16dccfbbe9a23e4bdf8f8a2f1e9596e779aac9cbf21da1d4e7481e011",
    ("SOR", 7): "583b3fd16dccfbbe9a23e4bdf8f8a2f1e9596e779aac9cbf21da1d4e7481e011",
    ("Barnes-Hut", 0): "bd53e12c53a66533d7bd824474fa9ab6d1f49b453c18aac9b864619185dc9f7b",
    ("Barnes-Hut", 7): "9685dd1672415921201d9dc2d19b6da23bf8612d8a98e9775ad41e6835d43f9b",
    ("Water-Spatial", 0): "29b6b6d117e54af60a8dcc548be498a19e04d6a07ba0102cbeb0615c9ca085b5",
    ("Water-Spatial", 7): "0b5543686da43f4af775c093a2dad6e50259038fc1db714d03ac56bc1c843383",
}


def build_digest(name: str, seed: int) -> str:
    """sha256 of the object table, then each thread's op stream in order."""
    cls, sizes = SIZES[name]
    workload = cls(n_threads=8, seed=seed, **sizes)
    djvm = DJVM(8)
    workload.build(djvm, placement="block")
    h = hashlib.sha256()
    table = [
        (o.obj_id, o.jclass.name, o.seq, o.home_node, o.length, o.refs, o.site) for o in djvm.gos
    ]
    h.update(repr(table).encode())
    for tid, ops in sorted(workload.programs().items()):
        h.update(repr((tid, list(ops))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_build_digest_is_pinned(name, seed):
    assert build_digest(name, seed) == DIGESTS[name, seed]
