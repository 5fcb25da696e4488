"""Stack-invariant mining utilities (paper Section III.A step 2).

The :class:`~repro.core.stack_sampler.StackSampler` already maintains
per-frame samples whose surviving slots are invariant candidates.  This
module offers a standalone miner over an explicit sequence of stack
snapshots — used by tests (ground truth for the sampler) and by offline
analysis of recorded runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

#: a snapshot is a list of frames bottom-up; each frame is
#: (frame_uid, method, {slot_idx: obj_id_or_None}).
Snapshot = list[tuple[int, str, dict[int, int | None]]]


@dataclass(frozen=True)
class InvariantRef:
    """One mined invariant: a (frame, slot) that held the same object in
    every snapshot where the frame appeared (appearing at least
    ``min_occurrences`` times)."""

    frame_uid: int
    method: str
    slot: int
    obj_id: int
    occurrences: int


def mine_invariants(
    snapshots: list[Snapshot], *, min_occurrences: int = 2
) -> list[InvariantRef]:
    """Exhaustively mine invariant references from full stack snapshots.

    A slot qualifies if its frame shows up in at least ``min_occurrences``
    snapshots and the slot held the *same* non-None object id every time.
    This is the information-theoretic best case the sampling-based miner
    approximates; the property tests check the sampler never reports an
    invariant this miner rejects (no false invariants — missing some is
    allowed, inventing them is not).
    """
    if min_occurrences < 2:
        raise ValueError("an invariant needs at least 2 observations")
    appearances: Counter[int] = Counter()
    #: (frame_uid, slot) -> set of values seen; None poisons the slot.
    values: dict[tuple[int, int], set[int | None]] = {}
    methods: dict[int, str] = {}
    for snap in snapshots:
        for frame_uid, method, slots in snap:
            appearances[frame_uid] += 1
            methods[frame_uid] = method
            for slot, obj_id in sorted(slots.items()):
                values.setdefault((frame_uid, slot), set()).add(obj_id)
    out: list[InvariantRef] = []
    for (frame_uid, slot), seen in sorted(values.items()):
        if appearances[frame_uid] < min_occurrences:
            continue
        if len(seen) != 1:
            continue
        (only,) = seen
        if only is None:
            continue
        out.append(
            InvariantRef(
                frame_uid=frame_uid,
                method=methods[frame_uid],
                slot=slot,
                obj_id=only,
                occurrences=appearances[frame_uid],
            )
        )
    return out

