"""Java class metadata.

Sampling in the paper is configured *per class* ("we store the
sampling-specific metadata like sampling gap as close to subclasses as
possible", Section II.B), so every heap object carries a reference to a
:class:`JClass` and each class keeps its own object sequence counter and
sampling gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.util.validation import check_positive


@dataclass(slots=True)
class JClass:
    """Metadata for one (sub)class of heap objects.

    For scalar classes ``instance_size`` is the object's byte size.  For
    array classes ``element_size`` is the per-element byte size and each
    instance supplies its own length; ``instance_size`` then holds only
    the header bytes.
    """

    class_id: int
    name: str
    instance_size: int
    is_array: bool = False
    element_size: int = 0
    #: next per-class object (or array-element) sequence number to issue.
    next_seq: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.is_array:
            check_positive(self.element_size, f"element_size of array class {self.name}")
        else:
            check_positive(self.instance_size, f"instance_size of class {self.name}")

    def issue_seq(self, count: int = 1) -> int:
        """Issue ``count`` consecutive sequence numbers; returns the first.

        Plain objects take one number; an array of length L takes L
        consecutive numbers (one per element, Section II.B.3), of which
        only the first is stored on the instance.
        """
        if not count > 0:  # check_positive, inlined: one call per allocation
            raise ValueError(f"sequence count must be > 0, got {count!r}")
        first = self.next_seq
        self.next_seq += count
        return first


class ClassTable(NamedTuple):
    """Every class's shape as numpy columns by class id (for gathers
    over an object table's class column)."""

    is_array: np.ndarray
    instance_size: np.ndarray
    element_size: np.ndarray
    #: an array's header bytes (its ``instance_size``), 0 for a scalar.
    header: np.ndarray


class ClassRegistry:
    """Registry of all classes loaded in the simulated DJVM."""

    def __init__(self) -> None:
        self._by_name: dict[str, JClass] = {}
        self._by_id: list[JClass] = []
        self._table: ClassTable | None = None

    def define(
        self,
        name: str,
        instance_size: int = 0,
        *,
        is_array: bool = False,
        element_size: int = 0,
    ) -> JClass:
        """Define a new class; names must be unique."""
        if name in self._by_name:
            raise ValueError(f"class {name!r} already defined")
        jclass = JClass(
            class_id=len(self._by_id),
            name=name,
            instance_size=instance_size if not is_array else max(instance_size, 16),
            is_array=is_array,
            element_size=element_size,
        )
        self._by_name[name] = jclass
        self._by_id.append(jclass)
        self._table = None
        return jclass

    def table(self) -> ClassTable:
        """The classes' :class:`ClassTable` (rebuilt after a define)."""
        if self._table is None:
            classes = self._by_id
            instance = np.array([c.instance_size for c in classes], dtype=np.int64)
            is_array = np.array([c.is_array for c in classes], dtype=bool)
            self._table = ClassTable(
                is_array,
                instance,
                np.array([c.element_size for c in classes], dtype=np.int64),
                np.where(is_array, instance, 0),
            )
        return self._table

    def get(self, name: str) -> JClass:
        """The class named ``name``; raises KeyError naming it when no
        class of that name is defined."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"class {name!r} is not defined") from None

    def by_id(self, class_id: int) -> JClass:
        """Look up a class by its dense id."""
        return self._by_id[class_id]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)
