"""Print one line per benchmark op, so that two checkouts can be compared with ``diff``.

    PYTHONPATH=src python tools/parity.py --seeds 1 2 3 > change.txt
    PYTHONPATH=../parent/src python tools/parity.py --seeds 1 2 3 > parent.txt
    diff parent.txt change.txt

For each workload and seed, the inputs that ``perfbench/mixes.py`` generates
are written to a temporary directory, and the warm-up op and then every op
of the cycle run once, in that directory, through the ``framelab.cli.main``
that ``PYTHONPATH`` resolves: the same script checks any checkout's
``src``.  A line holds the workload, the seed, the op's key (``warmup`` for
the warm-up), its exit code (the exception's name when it raises), and the
sha256 of its stdout, of its stderr and of each file it wrote, by name.

A fixed block of command lines that the benchmark never runs follows, one
line each, printed once per call: usage errors, help, input files that are
not UTF-8 or not a JSON object, the sweep paths no workload takes,
certifications at large tolerances and of a frame the hyperplane table
refuses, spark-stage certifications at d = 5 and 6, norm retrieval of
complex frames, a repeated orthonormal basis scaled by 1e-300, and a sweep
of Mercedes scaled by 2^-700, so that their exit codes and bytes are
compared too.  Its lines start with
``errors -`` and the command line's words, joined by commas in brackets.

Which framelab was imported goes to stderr, so the lines of two checkouts
differ only where their ops do.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import framelab
from framelab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Run in order in one directory: the first line writes the frame ``m.json``
# that the others name; ``latin1.json`` is not UTF-8, ``list.json`` holds
# a JSON list, and ``flat.json`` holds eight atoms in two planes of R^3, their
# last coordinate scaled by 1e-8.  ``certify pr m.json --ti`` parses (``--ti`` abbreviates
# ``--timings``) but is left out: its report holds wall-clock times.  The
# three sweeps after r35.json is written have radii past the d-subsets'
# reach, which decides the first two of m.json's three radii, the first of
# r35.json's two and none of 1,2, so the rest draw their trials; all exit 0.
# The next two take the paths of an input that no stage certifies: mm.json,
# Mercedes with itself, has n < d(d + 1)/2 and dependent 4-subsets but does
# phase retrieval, so it is decided alone, its trials are drawn and it exits
# 0; dt.json does not do phase retrieval, so it exits 2.  At --tol 0.01 the
# table's margin falls to 10: r35.json holds through its table and exits 0,
# and dt3.json fails past the scan's prefixes and exits 1; at --tol 0.001,
# with a margin of 100, dt3.json holds through its table and exits 0.
# flat.json spans at the tolerance but not with the table's margin, so it
# has no table, and it fails in the walk of the one interval that holds every
# split: exit 1.  Then the spark stage certifies the complement property of
# random frames at d = 5, n = 9 and d = 6, n = 11: the real ones hold (0),
# and the complex ones are inconclusive (3).  Then norm retrieval of complex
# frames, decided by the identity test on their one scaled copy: the
# harmonic frame of 4 atoms in C^2 holds (0), and c59.json is inconclusive
# (3).  Then ``tiny.json`` holds the ONB of R^3 twice, scaled by 1e-300,
# so that every stage must read the scaled copy: it fails phase retrieval
# (1), holds norm retrieval by the identity test (0), and its bounds are
# reported (0).  Last, ``deep.json``, Mercedes scaled by 2^-700, is swept at
# radii 0.2, 0.23, 0.43 and 0.44 scaled alike, so that the radius stage
# reads the exponent: the lift's reach decides the first, the d-subsets'
# reach the next two, and the last draws its trials, which hold (0).
ERROR_ARGVS = (
    ("gen", "mercedes", "-o", "m.json"),
    (),
    ("-h",),
    ("bogus",),
    ("certify",),
    ("certify", "-h"),
    ("certify", "pr", "m.json", "--bogus"),
    ("certify", "pr", "m.json", "extra"),
    ("--timings", "certify", "pr", "m.json"),
    ("sweep", "m.json", "--lambdas"),
    ("certify", "pr", "m.json", "--t"),
    ("certify", "xx", "m.json"),
    ("certify", "pr", "latin1.json"),
    ("tensor", "m.json", "latin1.json", "-o", "t.json"),
    ("certify", "nr", "list.json"),
    ("gen", "random", "--dim", "3", "--n", "5", "--seed", "1", "-o", "r35.json"),
    ("sweep", "m.json", "--lambdas", "0.01,0.3,0.45", "--trials", "20"),
    ("sweep", "r35.json", "--lambdas", "0.005,0.012", "--trials", "20"),
    ("sweep", "r35.json", "--lambdas", "1,2", "--trials", "5"),
    ("tensor", "m.json", "m.json", "-o", "mm.json"),
    ("sweep", "mm.json", "--lambdas", "0.001", "--trials", "2"),
    ("gen", "deficient-tail", "--dim", "3", "--head-dim", "2", "--tail-len", "1", "-o", "dt.json"),
    ("sweep", "dt.json", "--lambdas", "0.1"),
    ("certify", "pr", "r35.json", "--tol", "0.01"),
    ("gen", "deficient-tail", "--dim", "3", "--head-dim", "2", "--tail-len", "3", "--seed", "0", "-o", "dt3.json"),
    ("certify", "pr", "dt3.json", "--tol", "0.01"),
    ("certify", "pr", "dt3.json", "--tol", "0.001"),
    ("certify", "pr", "flat.json"),
    ("gen", "random", "--dim", "5", "--n", "9", "--seed", "1", "-o", "r59.json"),
    ("certify", "pr", "r59.json"),
    ("gen", "random", "--dim", "5", "--n", "9", "--seed", "1", "--field", "complex", "-o", "c59.json"),
    ("certify", "pr", "c59.json"),
    ("gen", "random", "--dim", "6", "--n", "11", "--seed", "1", "-o", "r611.json"),
    ("certify", "pr", "r611.json"),
    ("gen", "random", "--dim", "6", "--n", "11", "--seed", "1", "--field", "complex", "-o", "c611.json"),
    ("certify", "pr", "c611.json"),
    ("gen", "harmonic", "--dim", "2", "--n", "4", "--field", "complex", "-o", "h24.json"),
    ("certify", "nr", "h24.json"),
    ("certify", "nr", "c59.json"),
    ("certify", "pr", "tiny.json"),
    ("certify", "nr", "tiny.json"),
    ("bounds", "tiny.json"),
    ("sweep", "deep.json", "--lambdas", ",".join(repr(math.ldexp(lam, -700)) for lam in (0.2, 0.23, 0.43, 0.44)),
     "--trials", "5"),
)
# Two planes of R^3, x-y and y-z, four atoms each; the last coordinate is then scaled by 1e-8.
FLAT_ATOMS = ((1, 2, 0), (0, 1, 3), (3, -1, 0), (0, -2, 1), (-1, 1, 0), (0, 3, -1), (2, 1, 0), (0, 1, 1))
# The ONB of R^3 twice, scaled by 1e-300.
TINY_ATOMS = tuple(tuple(1e-300 * (i == j) for j in range(3)) for i in (0, 1, 2, 0, 1, 2))


def _mixes():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave nothing behind in perfbench/
    try:
        import mixes
    finally:
        sys.dont_write_bytecode = saved
    return mixes


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: Path) -> dict[str, tuple[int, str]]:
    """Each file's modification time and digest, by name, so that a file rewritten with the same bytes counts as written."""
    return {path.name: (path.stat().st_mtime_ns, _digest(path.read_bytes()))
            for path in directory.iterdir() if path.is_file()}


def _run(argv: tuple[str, ...], directory: Path) -> str:
    """Run one op in ``directory``; its exit code and the digests of its stdout, stderr and written files."""
    before = _files(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(list(argv)))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # a raising op is a result to compare, not the end of the run
            code = type(exc).__name__
    written = sorted((name, h) for name, (stamp, h) in _files(directory).items() if before.get(name) != (stamp, h))
    files = " ".join(f"{name}={h}" for name, h in written)
    return f"{code} out={_digest(out.getvalue().encode())} err={_digest(err.getvalue().encode())} files=[{files}]"


@contextlib.contextmanager
def _fresh_directory():
    """Work in a new temporary directory, and go back and remove it afterwards."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(home)


def lines(workload: str, seed: int) -> list[str]:
    """The warm-up op's line, then one line per op of the workload's cycle, in cycle order."""
    mix = _mixes().build(workload, seed)
    with _fresh_directory() as directory:
        mix.write_inputs(directory)
        ops = [("warmup", mix.warmup)] + [(op.key, op) for op in mix.cycle]
        return [f"{workload} {seed} {key} {_run(op.argv, directory)}" for key, op in ops]


def error_lines() -> list[str]:
    """One line per command line of ``ERROR_ARGVS``, run in order."""
    with _fresh_directory() as directory:
        (directory / "latin1.json").write_bytes("{\"field\": \"réel\"}".encode("latin-1"))
        (directory / "list.json").write_text("[1, 2]\n")
        atoms = [{"weight": 1.0, "vector": [float(x), float(y), z * 1e-8]} for x, y, z in FLAT_ATOMS]
        (directory / "flat.json").write_text(json.dumps({"field": "real", "dim": 3, "atoms": atoms}))
        atoms = [{"weight": 1.0, "vector": list(vector)} for vector in TINY_ATOMS]
        (directory / "tiny.json").write_text(json.dumps({"field": "real", "dim": 3, "atoms": atoms}))
        rows = framelab.gen_mercedes().vectors.tolist()
        atoms = [{"weight": 1.0, "vector": [math.ldexp(x, -700) for x in row]} for row in rows]
        (directory / "deep.json").write_text(json.dumps({"field": "real", "dim": 2, "atoms": atoms}))
        return [f"errors - [{','.join(argv)}] {_run(argv, directory)}" for argv in ERROR_ARGVS]


def main(argv: list[str] | None = None) -> int:
    workloads = _mixes().WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=list(workloads))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    print(f"framelab from {Path(framelab.__file__).parent}", file=sys.stderr)
    for workload in args.workloads:
        for seed in args.seeds:
            print("\n".join(lines(workload, seed)), flush=True)
    print("\n".join(error_lines()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
