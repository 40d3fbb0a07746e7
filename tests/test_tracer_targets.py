"""The benchmark's tracer (``perfbench/tracer.py``) wraps framelab functions by name.

A function it names that no longer exists is skipped, and its per-layer
metrics silently drop out of traced runs, so every name must resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = [(module, name) for module, names in tracer.TARGETS.items() for name in names]
    assert len(named) >= 20
    missing = [
        f"{module}.{name}"
        for module, name in named
        if not callable(getattr(importlib.import_module(f"framelab.{module}"), name, None))
    ]
    assert missing == []
