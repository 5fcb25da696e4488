"""The e2e benchmark's layer tracer wraps simulator entry points by name.

``benchmarks/e2e/tracer.py`` installs its wrappers with
``vars(owner)[attr]`` — a class's *own* attribute, or a module-level
name — so renaming one, or moving it to a base class, breaks every
benchmark run.  That used to surface only in ``make check``'s e2e smoke
step; this test makes plain ``pytest`` catch it.  The tracer is loaded by
path because ``benchmarks/`` is not a package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracer.py"


def test_every_traced_entry_point_is_its_owners_own_attribute():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = list(tracer.iter_targets())
    assert len(targets) == sum(len(attrs) for *_, attrs in tracer.TARGETS) > 0
    missing = [
        f"{layer}: {getattr(owner, '__name__', owner)}.{attr}"
        for layer, owner, attr in targets
        if attr not in vars(owner)
    ]
    assert not missing, missing
