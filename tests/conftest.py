from __future__ import annotations

import numpy as np
import pytest

import framelab as fl


def _reweighted(frame: fl.Frame, seed: int) -> fl.Frame:
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 2.0, size=frame.n_atoms)
    return fl.Frame(fl.make_atomic(weights), frame.vectors)


def _with_extra_row(frame: fl.Frame, row: np.ndarray) -> fl.Frame:
    vectors = np.vstack([frame.vectors, row])
    return fl.Frame(fl.make_atomic(np.ones(len(vectors))), vectors)


def build_real_corpus() -> list[fl.Frame]:
    """A mixed bag of small real frames exercising every code path.

    Includes tight and sloppy frames, duplicated and zero vectors, rank
    deficiency, too-few-vector families, and the head-plus-tail
    constructions. Two family members reach 13 and 14 atoms; everything
    else stays at or below 12 atoms in dimension at most 4.
    """
    frames: list[fl.Frame] = []
    for d in range(1, 5):
        frames.append(fl.gen_onb(d))
    mercedes = fl.gen_mercedes()
    frames.append(mercedes)
    frames.append(fl.parsevalize(mercedes))
    for d, counts in [(2, (3, 4, 5, 6, 7, 8)), (3, (3, 5, 7, 9, 11)), (4, (5, 6, 8, 10, 12))]:
        for n in counts:
            frames.append(fl.gen_harmonic(d, n))
    for d in range(1, 5):
        for n in range(d, min(d + 7, 13)):
            for seed in range(5):
                frames.append(fl.gen_random(d, n, seed=seed))
    for d in range(1, 5):
        for n in range(d, min(d + 7, 13)):
            for seed in (5, 6):
                frames.append(_reweighted(fl.gen_random(d, n, seed=seed), seed=1000 + 10 * d + n + seed))
    for d in (2, 3):
        for n in (3, 4, 5):
            for seed in (0, 1):
                base = fl.gen_random(d, n, seed=seed)
                frames.append(_with_extra_row(base, base.vectors[0]))
    for d, n in [(2, 4), (3, 5), (4, 6)]:
        frames.append(_with_extra_row(fl.gen_random(d, n, seed=7), np.zeros(d)))
    for d in (2, 3, 4):
        for n in (4, 6):
            base = fl.gen_random(d - 1, n, seed=5)
            vectors = np.hstack([base.vectors, np.zeros((n, 1))])
            frames.append(fl.Frame(fl.make_atomic(np.ones(n)), vectors))
    for d, n in [(3, 2), (4, 2), (4, 3)]:
        frames.append(fl.gen_random(d, n, seed=9))
    for d in (2, 3, 4):
        vectors = np.vstack([np.eye(d), np.eye(d)[:1]])
        frames.append(fl.Frame(fl.make_atomic(np.ones(d + 1)), vectors))
    for seed in range(5):
        frames.append(fl.gen_deficient_plus_tail(3, 2, 3, seed=seed))
    for seed in (0, 1):
        frames.append(fl.gen_deficient_plus_tail(2, 1, 2, seed=seed))
    frames.append(fl.gen_deficient_plus_tail(4, 2, 4, seed=0))
    frames.append(mercedes.with_vectors(mercedes.vectors * 2.5))
    frames.append(fl.gen_onb(3).with_vectors(np.eye(3) * 0.3))
    frames.append(fl.gen_random(2, 13, seed=11))
    frames.append(fl.gen_random(3, 14, seed=12))
    return frames


@pytest.fixture(scope="session")
def real_corpus() -> list[fl.Frame]:
    return build_real_corpus()


@pytest.fixture(scope="session")
def small_factor_pool() -> list[fl.Frame]:
    """Small frames for tensor pairing; atom counts stay at or below 6."""
    pool = [
        fl.gen_onb(1),
        fl.gen_onb(2),
        fl.gen_onb(3),
        fl.gen_mercedes(),
        fl.parsevalize(fl.gen_mercedes()),
        fl.gen_harmonic(2, 4),
        fl.gen_harmonic(2, 5),
        fl.gen_harmonic(3, 5),
        fl.gen_random(1, 2, seed=0),
        fl.gen_random(2, 3, seed=0),
        fl.gen_random(2, 4, seed=1),
        fl.gen_random(3, 4, seed=2),
        fl.gen_random(2, 5, seed=3),
        fl.gen_deficient_plus_tail(2, 1, 2, seed=0),
    ]
    return pool


@pytest.fixture(scope="session")
def past_cap_frames() -> dict[str, fl.Frame]:
    """Frames of more atoms than the default cap, each certified by a stage that reads no split.

    ``lift``: 60 generic atoms of R^10, which the lift certifies.  ``identity``:
    the ONB of R^3 nine times, which neither the lift nor the spark stage
    certifies, and the identity test does for norm retrieval.  ``spark``: 30
    unit atoms of R^2 within 1e-4 radians, which the lift refuses and the
    spark stage certifies.  ``hermitian``: 30 generic atoms of C^4, which the
    Hermitian lift certifies.
    """
    angles = np.linspace(0.0, 1e-4, 30)
    return {
        "lift": fl.gen_random(10, 60, seed=1),
        "identity": fl.Frame(fl.make_atomic(np.ones(27)), np.tile(np.eye(3), (9, 1))),
        "spark": fl.Frame(fl.make_atomic(np.ones(30)), np.stack([np.cos(angles), np.sin(angles)], axis=1)),
        "hermitian": fl.gen_random(4, 30, seed=1, field="complex"),
    }


@pytest.fixture(scope="session")
def past_cap_product() -> fl.Frame:
    """``gen_random(3, 5, 0) x gen_random(3, 5, 1)``: 25 atoms that neither the lift nor the spark stage certifies."""
    return fl.tensor_product(fl.gen_random(3, 5, seed=0), fl.gen_random(3, 5, seed=1)).product
