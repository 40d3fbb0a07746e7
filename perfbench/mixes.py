"""Seeded inputs and op cycles for the four benchmark workloads.

Every workload is a closed loop with one client: the next command starts
only after the previous report is back.  A workload is a fixed *cycle* of
at least 100 ops, so that ten or more lie beyond the 90th percentile; a run
makes whole passes over it.  Class weights are chosen so that the median
and the 90th percentile each land inside a block of ops of one class with a
few ranks of margin on either side (see the comments on each mix).

Inputs are generated here with plain numpy from the workload seed; the
program under test only ever sees the written frame files.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("pr-real", "nr-real", "pr-complex", "cli-process")


@dataclass(frozen=True)
class FrameData:
    """A frame as the benchmark generated it: rows, atom weights, field."""

    vectors: np.ndarray
    weights: np.ndarray

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.vectors) else "real"

    def to_doc(self) -> dict:
        rows = []
        for w, v in zip(self.weights, self.vectors):
            if self.field == "complex":
                vec = [[float(z.real), float(z.imag)] for z in v]
            else:
                vec = [float(x) for x in v]
            rows.append({"weight": float(w), "vector": vec})
        return {"field": self.field, "dim": int(self.vectors.shape[1]), "atoms": rows}


@dataclass(frozen=True)
class Op:
    """One CLI command of a cycle and what its report must show.

    ``key`` is unique within the cycle; ``tag`` groups ops of one kind and
    input class for the per-layer split (``certify-pr/g3n13``).  ``expect``
    is read by ``checks.check_op``.
    """

    key: str
    tag: str
    argv: tuple[str, ...]
    expect: dict


@dataclass
class Mix:
    frames: dict[str, FrameData] = field(default_factory=dict)
    cycle: list[Op] = field(default_factory=list)
    warmup: Op | None = None
    min_passes: int = 2  # a median over passes needs repeats; cli-process fills a run with one pass

    def add_frame(self, name: str, frame: FrameData) -> str:
        self.frames[name] = frame
        return name

    def write_inputs(self, directory: Path) -> None:
        for name, frame in self.frames.items():
            (directory / name).write_text(json.dumps(frame.to_doc(), indent=2) + "\n")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.5, 2.0, size=n)


def generic_real(rng: np.random.Generator, n: int, d: int) -> FrameData:
    return FrameData(rng.standard_normal((n, d)), _weights(rng, n))


def generic_complex(rng: np.random.Generator, n: int, d: int) -> FrameData:
    v = (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))) / np.sqrt(2.0)
    return FrameData(v, _weights(rng, n))


def two_plane(rng: np.random.Generator, n: int) -> FrameData:
    """Even atoms in the x-y plane, odd atoms in the y-z plane: the even/odd split fails."""
    v = rng.standard_normal((n, 3))
    v[0::2, 2] = 0.0
    v[1::2, 0] = 0.0
    return FrameData(v, _weights(rng, n))


def repeated_onb(rng: np.random.Generator, d: int, k: int) -> FrameData:
    """Each e_i appears k times (atom j is e_{j mod d}) with random weights."""
    return FrameData(np.tile(np.eye(d), (k, 1)), rng.uniform(0.5, 1.5, size=d * k))


def harmonic_complex(d: int, n: int) -> FrameData:
    i = np.arange(n)[:, None]
    k = np.arange(d)[None, :]
    return FrameData(np.exp(2j * np.pi * i * k / n) / np.sqrt(n), np.ones(n))


def mercedes() -> FrameData:
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    return FrameData(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(3))


def deficient_head(rng: np.random.Generator, d: int, head_dim: int, tail_len: int) -> FrameData:
    """A head of ``head_dim + 1`` atoms inside the first ``head_dim`` coordinates,
    plus a generic tail whose component along the first head vector is shrunk,
    so ``break-pr`` on the head applies at a small epsilon."""
    head = np.zeros((head_dim + 1, d))
    head[:, :head_dim] = rng.standard_normal((head_dim + 1, head_dim))
    e1 = head[0] / np.linalg.norm(head[0])
    tail = rng.standard_normal((tail_len, d))
    tail -= 0.95 * np.outer(tail @ e1, e1)
    return FrameData(np.vstack([head, tail]), np.ones(head_dim + 1 + tail_len))


def op_kind(argv: tuple[str, ...]) -> str:
    """``certify-pr``, ``certify-nr``, ``break-pr``, ``break-nr`` or the command name."""
    if argv[0] == "certify":
        return f"certify-{argv[1]}"
    if argv[0] == "perturb":
        return argv[1]
    return argv[0]


def _ids(ids) -> str:
    return ",".join(str(int(i)) for i in ids)


def pr_real(seed: int) -> Mix:
    """``certify pr`` across the real families, ``tensor --check pr`` and ``sweep``.

    Per cycle (latencies on a 2-core x86 box, untraced):
    the d=3 n-sweep n=10..17 (15 ms .. 1.7 s), d=4 n=12..16, two-plane
    n=12..16, two tensor checks; a p90 block of ten d=3 n=13 scans
    (~100 ms, twelve ops above it) and a p50 block of 146 sweeps
    (~8 ms, the cheapest class).  175 ops: p90 sits at rank 17.5 from the
    top (block ranks 13..22), p50 at rank 87.5 from the bottom.
    """
    rng = _rng("pr-real", seed)
    mix = Mix()
    for d, sizes in ((3, range(10, 18)), (4, range(12, 17))):
        for n in sizes:
            name = mix.add_frame(f"g{d}n{n}.json", generic_real(rng, n, d))
            mix.cycle.append(Op(f"g{d}n{n}", f"certify-pr/g{d}n{n}", ("certify", "pr", name),
                                {"check": "certify-pr", "frame": name, "verdict": "holds"}))
    for j in range(1, 10):
        name = mix.add_frame(f"g3n13-{j}.json", generic_real(rng, 13, 3))
        mix.cycle.append(Op(f"g3n13-{j}", "certify-pr/g3n13", ("certify", "pr", name),
                            {"check": "certify-pr", "frame": name, "verdict": "holds"}))
    for n in range(12, 17):
        name = mix.add_frame(f"tp{n}.json", two_plane(rng, n))
        mix.cycle.append(Op(f"tp{n}", f"certify-pr/tp{n}", ("certify", "pr", name),
                            {"check": "certify-pr", "frame": name, "verdict": "fails"}))
    left = mix.add_frame("mercedes.json", mercedes())
    for d, n in ((3, 5), (2, 4)):
        right = mix.add_frame(f"t{d}n{n}.json", generic_real(rng, n, d))
        out = f"prod-{d}n{n}.json"
        mix.cycle.append(Op(f"tensor-{d}n{n}", f"tensor/mercedes-x-{d}n{n}",
                            ("tensor", left, right, "-o", out, "--check", "pr"),
                            {"check": "tensor-pr", "left": left, "right": right, "output": out}))
    lambdas = "0.0001,0.001,0.01"
    for j in range(146):
        name = mix.add_frame(f"s{j}.json", generic_real(rng, 4, 2))
        mix.cycle.append(Op(f"sweep-{j}", "sweep/g2n4", ("sweep", name, "--lambdas", lambdas, "--trials", "10"),
                            {"check": "sweep", "lambdas": 3, "trials": 10}))
    mix.warmup = mix.cycle[-1]
    return mix


def nr_real(seed: int) -> Mix:
    """``certify nr`` on generic and repeated-ONB frames plus ``perturb break-nr``.

    Per cycle: generic d=4 n=10..16 (57 ms .. 2.6 s), repeated-ONB d=3/k=5
    and d=4/k=3,4 with ``break-nr`` on each (0.19 .. 3 s); a p90 block of
    eight d=4 n=13 frames (~300 ms, seven ops above it) and a p50 block of
    95 d=4 n=10 frames.  114 ops: p90 at rank 11.5 from the top (block ranks
    8..15), p50 at rank 57.5 from the bottom (block ranks 1..95).
    """
    rng = _rng("nr-real", seed)
    mix = Mix()
    counts = {10: 95, 13: 8}
    for n in range(10, 17):
        for j in range(counts.get(n, 1)):
            name = mix.add_frame(f"g4n{n}-{j}.json", generic_real(rng, n, 4))
            mix.cycle.append(Op(f"g4n{n}-{j}", f"certify-nr/g4n{n}", ("certify", "nr", name),
                                {"check": "certify-nr", "frame": name, "verdict": "holds"}))
    for d, k in ((3, 5), (4, 3), (4, 4)):
        name = mix.add_frame(f"onb{d}k{k}.json", repeated_onb(rng, d, k))
        mix.cycle.append(Op(f"onb{d}k{k}", f"certify-nr/onb{d}k{k}", ("certify", "nr", name),
                            {"check": "certify-nr", "frame": name, "verdict": "holds"}))
        subset = list(range(0, d * k, d))  # every copy of e_0
        out = f"broken-onb{d}k{k}.json"
        mix.cycle.append(Op(f"break-onb{d}k{k}", f"break-nr/onb{d}k{k}",
                            ("perturb", "break-nr", name, "--subset", _ids(subset), "--eps", "0.25", "-o", out),
                            {"check": "break-nr", "frame": name, "subset": subset, "eps": 0.25,
                             "output": out}))
    mix.warmup = mix.cycle[0]
    return mix


def pr_complex(seed: int) -> Mix:
    """``certify pr`` on complex frames, harmonic(2,4), and ``alpha``.

    Complex ``certify pr`` runs the complement scan (small here) and, when
    it holds, an alpha estimate whose length depends on how fast each trace
    converges.  To keep run-to-run cost from depending on that, certify runs
    one alpha restart and the ``alpha`` ops a fixed count of half-steps
    (``--iters 1``: 3 per restart), so the time left is the ``eigh`` loop,
    the small scans and CLI overhead.  Per cycle: two frames of every
    certify class, a p90 block of fourteen d=4 n=11 scans (~21 ms; the two
    d=4 n=12 ops above it), one alpha op per class d=3..8, n=2d,3d, and a
    p50 block of forty d=5 n=10 alpha ops (~3.8 ms).  106 ops: p90 at rank
    10.7 from the top (block ranks 3..16); p50 at rank 53.5 from the bottom,
    with 23 ops surely below the block and 21 whose latencies overlap it
    (3.3 .. 5 ms), so the block spans ranks 24..63 if those all lie above it
    and 45..84 if they all lie below.
    """
    rng = _rng("pr-complex", seed)
    mix = Mix()
    for d in (2, 3, 4):
        for n in range(d, min(3 * d, 12) + 1):
            for j in range(14 if (d, n) == (4, 11) else 2):
                name = mix.add_frame(f"c{d}n{n}-{j}.json", generic_complex(rng, n, d))
                expect = "fails" if n < 2 * d - 1 else "any-with-witness"
                mix.cycle.append(Op(f"c{d}n{n}-{j}", f"certify-pr/c{d}n{n}",
                                    ("certify", "pr", name, "--alpha-restarts", "1"),
                                    {"check": "certify-pr", "frame": name, "verdict": expect}))
    name = mix.add_frame("harmonic-2-4.json", harmonic_complex(2, 4))
    mix.cycle.append(Op("harmonic-2-4", "certify-pr/harmonic-2-4", ("certify", "pr", name, "--alpha-restarts", "1"),
                        {"check": "certify-pr", "frame": name, "verdict": "not-holds"}))
    for d in range(3, 9):
        for n in (2 * d, 3 * d):
            for j in range(ALPHA_P50_BLOCK if (d, n) == (5, 10) else 1):
                name = mix.add_frame(f"a{d}n{n}-{j}.json", generic_complex(rng, n, d))
                mix.cycle.append(Op(f"alpha-{d}n{n}-{j}", f"alpha/c{d}n{n}",
                                    ("alpha", name, "--restarts", str(ALPHA_RESTARTS), "--iters", "1"),
                                    {"check": "alpha", "frame": name, "restarts": ALPHA_RESTARTS}))
    mix.warmup = mix.cycle[0]
    return mix


ALPHA_RESTARTS = 16
ALPHA_P50_BLOCK = 40


def cli_process(seed: int) -> Mix:
    """The README command list on small inputs, one ``python -m framelab`` per command.

    Seventeen commands, each six times per cycle; every child pays
    interpreter start and imports, which dominate its latency.  One pass of
    102 children fills a run.
    """
    rng = _rng("cli-process", seed)
    mix = Mix()
    gen_seed = str(int(rng.integers(0, 2**31)))
    r3 = mix.add_frame("r3n7.json", generic_real(rng, 7, 3))
    r36 = mix.add_frame("r3n6.json", generic_real(rng, 6, 3))
    r2 = mix.add_frame("r2n4.json", generic_real(rng, 4, 2))
    tp = mix.add_frame("tp6.json", two_plane(rng, 6))
    onb = mix.add_frame("onb2k2.json", repeated_onb(rng, 2, 2))
    merc = mix.add_frame("mercedes.json", mercedes())
    cx = mix.add_frame("c3n6.json", generic_complex(rng, 6, 3))
    dh = mix.add_frame("head.json", deficient_head(rng, 3, 2, 3))
    commands = [
        ("gen-mercedes", ("gen", "mercedes", "-o", "gen-m.json"), {"check": "gen", "kind": "mercedes"}),
        ("gen-random", ("gen", "random", "--dim", "3", "--n", "7", "--seed", gen_seed, "-o", "gen-r.json"),
         {"check": "gen", "kind": "random", "dim": 3, "n": 7}),
        ("gen-harmonic", ("gen", "harmonic", "--dim", "2", "--n", "5", "-o", "gen-h.json"),
         {"check": "gen", "kind": "harmonic", "dim": 2, "n": 5}),
        ("gen-deficient-tail", ("gen", "deficient-tail", "--dim", "3", "--head-dim", "2", "--tail-len", "3",
                                "--seed", gen_seed, "-o", "gen-d.json"),
         {"check": "gen", "kind": "deficient-tail", "dim": 3, "n": 6}),
        ("gen-onb", ("gen", "onb", "--dim", "3", "-o", "gen-o.json"), {"check": "gen", "kind": "onb", "dim": 3}),
        ("bounds-r3n7", ("bounds", r3), {"check": "bounds", "frame": r3}),
        ("bounds-mercedes", ("bounds", merc), {"check": "bounds", "frame": merc}),
        ("certify-pr-r3n7", ("certify", "pr", r3), {"check": "certify-pr", "frame": r3, "verdict": "holds"}),
        ("certify-pr-tp6", ("certify", "pr", tp), {"check": "certify-pr", "frame": tp, "verdict": "fails"}),
        ("certify-nr-r3n6", ("certify", "nr", r36), {"check": "certify-nr", "frame": r36, "verdict": "holds"}),
        ("certify-nr-onb2k2", ("certify", "nr", onb), {"check": "certify-nr", "frame": onb, "verdict": "holds"}),
        ("alpha-r2n4", ("alpha", r2, "--restarts", "8", "--iters", "100"),
         {"check": "alpha", "frame": r2, "restarts": 8}),
        ("alpha-c3n6", ("alpha", cx, "--restarts", "8", "--iters", "100"),
         {"check": "alpha", "frame": cx, "restarts": 8}),
        ("break-pr-head", ("perturb", "break-pr", dh, "--head", "0,1,2", "--eps", "0.4", "-o", "broken-pr.json"),
         {"check": "break-pr", "frame": dh, "output": "broken-pr.json"}),
        ("break-nr-onb2k2", ("perturb", "break-nr", onb, "--subset", "0,2", "--eps", "0.5", "-o", "broken-nr.json"),
         {"check": "break-nr", "frame": onb, "subset": [0, 2], "eps": 0.5, "output": "broken-nr.json"}),
        ("sweep-r2n4", ("sweep", r2, "--lambdas", "0.001,0.01,0.1", "--trials", "20"),
         {"check": "sweep", "lambdas": 3, "trials": 20}),
        ("tensor-mercedes", ("tensor", merc, merc, "-o", "prod.json", "--check", "pr"),
         {"check": "tensor-pr", "left": merc, "right": merc, "output": "prod.json"}),
    ]
    for rep in range(6):
        for key, argv, expect in commands:
            mix.cycle.append(Op(f"{key}#{rep}", f"{op_kind(argv)}/{key}", argv, expect))
    mix.warmup = mix.cycle[5]
    mix.min_passes = 1
    return mix


MIXES = {"pr-real": pr_real, "nr-real": nr_real, "pr-complex": pr_complex, "cli-process": cli_process}


def build(workload: str, seed: int) -> Mix:
    return MIXES[workload](seed)
