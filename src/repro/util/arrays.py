"""Array helpers shared by the workload emitters and the program lanes."""

from __future__ import annotations

import numpy as np


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``
    in one pass."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)
