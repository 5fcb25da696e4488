"""Pinned vector-run interning of the three benchmark workloads.

``CompiledProgram.vector_runs()`` maps every maximal READ/WRITE/COMPUTE
span of at least ``MIN_VECTOR_RUN`` ops to its row of the program's lane
table, one row per distinct body.  That interning decides how many rows
the table holds (SOR's 960 spans are 16 rows), so it must not move when
the way bodies are compared changes.  The digests below were recorded
when bodies were op tuples compared by tuple equality; the column form
compares byte slices.

Each digest hashes, for one thread at the end-to-end benchmark's sizes
(8 nodes, block placement, seed 0), every run start in order with its
``n_ops``, whether its body occurs more than once (``hot``, as bodies
were once flagged) and the first start sharing its row.
"""

import hashlib
from collections import Counter

import pytest

from repro.runtime.djvm import DJVM
from repro.runtime.program import compile_program
from repro.workloads import BarnesHutWorkload, SORWorkload, WaterSpatialWorkload

SIZES = {
    "SOR": (SORWorkload, {"n": 8192, "rounds": 60}),
    "Barnes-Hut": (BarnesHutWorkload, {"n_bodies": 4096, "rounds": 5}),
    "Water-Spatial": (WaterSpatialWorkload, {"n_molecules": 2048, "rounds": 10, "grid": 6}),
}

DIGESTS = {
    "SOR": [
        "668bd8c15b7e24e58d970c74d3a7701838c7053db8ee6bc688fe1cdf2b092f36",
        "5190bc1458aa4a4506c6b0e7aa5ac378a13de65e28ff9cffae528fdd7779c8b4",
        "5190bc1458aa4a4506c6b0e7aa5ac378a13de65e28ff9cffae528fdd7779c8b4",
        "5190bc1458aa4a4506c6b0e7aa5ac378a13de65e28ff9cffae528fdd7779c8b4",
        "5190bc1458aa4a4506c6b0e7aa5ac378a13de65e28ff9cffae528fdd7779c8b4",
        "5190bc1458aa4a4506c6b0e7aa5ac378a13de65e28ff9cffae528fdd7779c8b4",
        "5190bc1458aa4a4506c6b0e7aa5ac378a13de65e28ff9cffae528fdd7779c8b4",
        "d3f3a4937dd7a00f3f201683303585a91cf5f007fcade4168574ce87fa092cd8",
    ],
    "Barnes-Hut": [
        "096239a783b2a1eab1fc5dd81ab2f7f0527147318b0d42a255073c5de2061534",
        "a6c863d0c9c404d4752c930686abea18e88c0f432b069ec6d28685919662d5ae",
        "b07b9896cbb6298d9236afec481b28ce98f3788e9912900e29572ad38cb4bdbe",
        "1a7b9c05f2936eb3e0ab4ca2aebaf936505e2cd323f9b7be8fc4ac49067a6108",
        "ccce0160007383e12e715d4d0d26fd1792969ba5b8d294531b475f3eeda72c53",
        "24276196c679f143614e503a0d26c506c101797746c0e285c1e9c91bc21146a0",
        "67f0ed7f2d302f234ca2a4394593ae5107ebee18fbfdf14e9c02de0f767be42f",
        "036ceab161053e9950ff34de5ece58c882dc75ca8c52ac49184cfb189297e90f",
    ],
    "Water-Spatial": [
        "a8414b21c3f0d82fec09333696c9dacb7faab605b208bdcbcc70619495b4ac9c",
        "70848b9f33c729cfe14880cc19fbba9123d314a58a87dd7853f71a52b51053e8",
        "9e7bf67421f00578264a96beb6c4d10b59d0be448e17a08f86dfdfd767d9673c",
        "c00614b5da19a55d102e47e61be0b958786a09cbf88c18a1fe0f8e40a9ba8d94",
        "37fc6a6d6a62f69ae6307718af592dec0402d5be7efdd43c0b556d8d6200a447",
        "c8dccb3cb3ec181f96b3be290e7dbf3df449795303e19610ab0fba9c5c74bc41",
        "48b30eacdda1e9c853ec6233f504b908caf9951ed23bb9ef1b4cecad36357b87",
        "75241a84bd32ae52b0f8016f14a45c46cc0e9c6d7c6f3af3b32d82b71e217c9c",
    ],
}


def interning_digests(name: str) -> list[str]:
    """One sha256 per thread over its program's interned runs."""
    cls, sizes = SIZES[name]
    workload = cls(n_threads=8, seed=0, **sizes)
    workload.build(DJVM(8), placement="block")
    digests = []
    for _tid, ops in sorted(workload.programs().items()):
        runs = compile_program(ops).vector_runs()
        count = Counter(row for row, _ in runs.values())
        owner: dict[int, int] = {}
        rows = [
            (start, n_ops, count[row] > 1, owner.setdefault(row, start))
            for start, (row, n_ops) in sorted(runs.items())
        ]
        digests.append(hashlib.sha256(repr(rows).encode()).hexdigest())
    return digests


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_interning_is_pinned(name):
    assert interning_digests(name) == DIGESTS[name]
