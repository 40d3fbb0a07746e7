"""``tools/parity.py`` prints one line per benchmark op, the same on every call for the same code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def test_parity_prints_one_stable_line_per_op_and_the_warm_up():
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    first = parity.lines("nr-real", 1)
    cycle = parity._mixes().build("nr-real", 1).cycle
    assert [line.split()[:3] for line in first] == [["nr-real", "1", key] for key in ["warmup"] + [op.key for op in cycle]]
    assert parity.lines("nr-real", 1) == first
    # The break-nr ops write their broken frames, and each written file is named with its digest.
    assert any("files=[broken-" in line for line in first)
