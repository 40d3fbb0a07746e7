"""``tools/parity.py`` prints one line per benchmark op, the same on every call for the same code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _parity():
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity


def test_parity_prints_one_stable_line_per_op_and_the_warm_up():
    parity = _parity()
    first = parity.lines("nr-real", 1)
    cycle = parity._mixes().build("nr-real", 1).cycle
    assert [line.split()[:3] for line in first] == [["nr-real", "1", key] for key in ["warmup"] + [op.key for op in cycle]]
    assert parity.lines("nr-real", 1) == first
    # The break-nr ops write their broken frames, and each written file is named with its digest.
    assert any("files=[broken-" in line for line in first)


def test_parity_prints_one_stable_line_per_error_command():
    parity = _parity()
    first = parity.error_lines()
    assert len(first) == len(parity.ERROR_ARGVS)
    assert parity.error_lines() == first
    codes = [line.split()[3] for line in first]
    # The frame is written, help exits 0, and every usage error and malformed file exits 2.  Then r35.json is
    # written, and m.json and r35.json are swept past the radii their reaches decide (0, 0, 0).  Then two frames
    # no stage certifies are swept: mm.json, written, holds and exits 0, and dt.json, written, does not do phase
    # retrieval and exits 2.  Then frames are certified at large tolerances through their tables: r35.json holds
    # at 0.01 (0), dt3.json is written (0), fails at 0.01 (1) and holds at 0.001 (0); flat.json, which the table
    # refuses, fails (1).  Then four frames of d = 5 and 6 are written and certified by the spark stage: the real
    # ones hold (0) and the complex ones are inconclusive (3).  Then h24.json is written (0) and holds norm
    # retrieval (0), and c59.json is inconclusive for it (3).  Then the repeated ONB scaled by 1e-300 fails phase
    # retrieval (1), holds norm retrieval (0) and has its bounds reported (0).  Last, Mercedes scaled by 2^-700 is
    # swept at radii scaled alike, two reaches deciding three of them, and holds (0).
    tail = ["0", "0", "1", "0", "1"] + ["0", "0", "0", "3"] * 2 + ["0", "0", "3"] + ["1", "0", "0", "0"]
    assert codes == ["0", "2", "0", "2", "2", "0"] + ["2"] * (len(first) - 34) + ["0"] * 7 + ["2"] + tail
    assert "files=[m.json=" in first[0]
    assert "files=[r35.json=" in first[-28] and "files=[mm.json=" in first[-24]
    assert "files=[dt.json=" in first[-22] and "files=[dt3.json=" in first[-19]
    assert "files=[r59.json=" in first[-15] and "files=[c611.json=" in first[-9]
    assert "files=[h24.json=" in first[-7]
