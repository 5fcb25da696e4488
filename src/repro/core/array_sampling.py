"""Array sampling with amortization (paper Section II.B.3, Fig. 3b).

Arrays are treated as groups of elements, each with its own (implicit)
sequence number derived from the stored first-element number.  An array
is *sampled* iff at least one of its elements is logically sampled, and
a sampled array's logged ("amortized") size is

    sampled elements x element type size

rather than the full array size.  This keeps sampling statistically
uniform over heap bytes (a long array cannot dodge sampling entirely)
while preventing the correlation map from being skewed towards large
arrays (the T2/T3 overestimation example in the paper).
"""

from __future__ import annotations

from repro.heap.objects import HeapObject


def sampled_element_count(seq_start: int, length: int, gap: int) -> int:
    """Number of logically sampled elements of an array whose elements
    carry consecutive sequence numbers ``seq_start .. seq_start+length-1``
    under sampling gap ``gap`` (an element is sampled iff its sequence
    number is divisible by the gap).

    Exact count — the paper's "array size divided by the sampling gap"
    is the expectation of this quantity over random phase.
    """
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length == 0:
        return 0
    if gap == 1:
        return length
    last = seq_start + length - 1
    return last // gap - (seq_start - 1) // gap


def amortized_sample_bytes(obj: HeapObject, gap: int) -> int:
    """Amortized logged size of a sampled array: sampled elements times
    element size.

    Per the paper, "per-element sampling is needless and we can easily
    get the number of sampled elements from dividing the array size by
    the current sampling gap" — so the logged count is the *deterministic*
    ``round(length / gap)`` (floored at one element for a sampled array)
    rather than the exact divisibility count.  Determinism matters: all
    same-length arrays of a class log identical amortized sizes, so the
    estimator carries no per-instance quantization noise (this is what
    makes SOR's equal-length rows profile near-perfectly at every rate).
    At gap 1 the amortized size equals the full element payload.
    """
    if not obj.is_array:
        raise TypeError(f"object {obj.obj_id} is not an array")
    return amortized_elements(obj.length, gap) * obj.jclass.element_size


def amortized_elements(length: int, gap: int) -> int:
    """The element count :func:`amortized_sample_bytes` logs for an
    array of ``length`` elements at gap ``gap``: all of them at gap 1,
    else ``round(length / gap)`` floored at one (none for length 0)."""
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if length == 0:
        return 0
    if gap == 1:
        return length
    return max(1, round(length / gap))
