"""Exact certificates for phase retrieval and norm retrieval of finite frames.

Over the real field, phase retrieval is equivalent to the complement
property: every index subset or its complement must span the space.  Norm
retrieval holds exactly when, for every index subset, the null space of its
rows is orthogonal to the null space of the complement's rows; a split with
a spanning side satisfies both conditions.  So both are decided by one
exhaustive scan that yields only the splits where neither side spans (one
representative per complementary pair); it is exact but exponential, hence
the hard cap on the atom count.  Independent brute-force references that
cross-check it live with the tests.

Over the complex field the complement property is only necessary: its
failure certifies a phase retrieval failure, but when it holds the verdict
is ``inconclusive`` and an estimate of the lower-bound functional ``alpha``
is attached.  Norm retrieval certification is rejected outright for complex
frames; the subspace criterion it relies on is a real-field result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._linalg import (
    DEFAULT_ENUM_CAP,
    DEFAULT_ORTHO_TOL,
    DEFAULT_RANK_TOL,
    annihilator,
    eigmin_vector,
    hermitize,
    inner,
    numerical_rank,
    random_unit,
)
from .errors import EnumerationCapExceeded
from .frames import Frame

__all__ = [
    "HOLDS",
    "FAILS",
    "INCONCLUSIVE",
    "Certificate",
    "RQuadraticForm",
    "AlphaResult",
    "complement_property",
    "phase_retrieval_certify",
    "r_operator",
    "alpha_certify",
    "norm_retrieval_certify",
    "near_riesz_detect",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of a retrieval certification.

    A failing certificate always carries a witness that re-verifies under
    the defining property: an index subset, a pair of vectors, or both.
    """

    verdict: str
    method: str
    field: str
    witness_subset: tuple[int, ...] | None = None
    witness_vectors: tuple[np.ndarray, np.ndarray] | None = None
    alpha_estimate: float | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


@dataclass(frozen=True, eq=False)
class RQuadraticForm:
    """The operator ``R(f) = sum_i w_i |<f, F(x_i)>|^2 F(x_i) F(x_i)*``."""

    f: np.ndarray
    matrix: np.ndarray

    def value(self, g: np.ndarray) -> float:
        """The quadratic form ``<R(f) g, g>`` (real for Hermitian R)."""
        return float(np.real(inner(self.matrix @ np.asarray(g), np.asarray(g))))


@dataclass(frozen=True, eq=False)
class AlphaResult:
    """Best value found for ``min over unit f, g`` of the R quadratic form."""

    alpha: float
    argmin_f: np.ndarray
    argmin_g: np.ndarray
    traces: tuple[tuple[float, ...], ...]


def _require_real(frame: Frame, what: str) -> None:
    if frame.field != "real":
        raise ValueError(f"{what} is only defined over the real field")


def _complement_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield each unordered pair {S, complement} exactly once.

    The empty/full pair comes first; after that the representatives are the
    subsets containing index 0, in lexicographic order, so the first failure
    reported by a scan is the lexicographically smallest witness.
    """
    yield (), tuple(range(n))
    stack: list[tuple[int, ...]] = [(0,)]
    while stack:
        s = stack.pop()
        if len(s) < n:
            in_s = set(s)
            yield s, tuple(i for i in range(n) if i not in in_s)
        stack.extend(s + (j,) for j in range(n - 1, s[-1], -1))


def _deficient_splits(
    frame: Frame, tol: float, cap: int, what: str
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield, in scan order, every split {S, complement} where neither side spans.

    The smaller side of each pair is checked first (a full-rank side settles
    the pair), and sides too small to span skip the rank computation.
    """
    n, d = frame.n_atoms, frame.dim
    if n > cap:
        raise EnumerationCapExceeded(
            f"{what} enumerates 2^(n-1) subsets and refuses for n = {n} > cap = {cap}"
        )
    v = frame.vectors
    for s, c in _complement_pairs(n):
        small, big = (s, c) if len(s) <= len(c) else (c, s)
        if len(small) >= d and numerical_rank(v[list(small)], tol) >= d:
            continue
        if len(big) >= d and numerical_rank(v[list(big)], tol) >= d:
            continue
        yield s, c


def complement_property(
    frame: Frame,
    tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Certificate:
    """Decide whether every index subset or its complement spans the space.

    A failing verdict reports the lexicographically smallest violating
    subset: the first split the shared scan yields.
    """
    split = next(_deficient_splits(frame, tol, cap, "complement property certification"), None)
    return Certificate(
        verdict=HOLDS if split is None else FAILS,
        method="complement-subset-enumeration",
        field=frame.field,
        witness_subset=None if split is None else split[0],
    )


def _equal_magnitude_pair(
    frame: Frame, subset: tuple[int, ...], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """From a violating subset, build two vectors with equal coefficient magnitudes.

    With ``u`` annihilating the subset rows and ``w`` annihilating the
    complement rows, ``u + w`` and ``u - w`` agree in magnitude on every
    atom while differing by more than a global phase.  If the two null
    directions coincide the family is not even complete and ``(w, 0)`` is
    the (still valid) degenerate witness.
    """
    v = frame.vectors
    comp = [i for i in range(frame.n_atoms) if i not in set(subset)]
    u = annihilator(v[list(subset)], frame.dim, tol)[:, 0]
    w = annihilator(v[comp], frame.dim, tol)[:, 0]
    if abs(inner(u, w)) > 1.0 - 1e-9:
        return w, np.zeros_like(w)
    return u + w, u - w


def phase_retrieval_certify(
    frame: Frame,
    tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
    alpha_restarts: int = 4,
    alpha_iters: int = 60,
    seed: int = 0,
) -> Certificate:
    """Certify phase retrieval: exact over R, complement-necessity over C.

    Real frames get a definite verdict via the complement property.  Complex
    frames get ``fails`` when the complement property fails (with the same
    witness pair construction, which is field-agnostic); otherwise the
    verdict is ``inconclusive`` with an ``alpha_estimate`` attached.

    Completeness of the family is necessary for phase retrieval but not
    sufficient; the decisive real-field criterion is the complement
    property, which asks that every split of the atoms leaves at least one
    side spanning.
    """
    cp = complement_property(frame, tol, cap)
    if cp.verdict == FAILS:
        pair = _equal_magnitude_pair(frame, cp.witness_subset, tol)
        method = (
            "pr-complement-equivalence" if frame.field == "real" else "pr-complement-necessity"
        )
        return Certificate(
            verdict=FAILS,
            method=method,
            field=frame.field,
            witness_subset=cp.witness_subset,
            witness_vectors=pair,
        )
    if frame.field == "real":
        return Certificate(verdict=HOLDS, method="pr-complement-equivalence", field=frame.field)
    alpha = alpha_certify(frame, restarts=alpha_restarts, iters=alpha_iters, seed=seed).alpha
    return Certificate(
        verdict=INCONCLUSIVE,
        method="pr-alpha-estimate",
        field=frame.field,
        alpha_estimate=alpha,
    )


def r_operator(frame: Frame, f: np.ndarray) -> RQuadraticForm:
    """The positive semidefinite operator weighting each projector by ``|<f, F(x_i)>|^2``."""
    f = np.asarray(f)
    if f.shape != (frame.dim,):
        raise ValueError(f"expected a vector of length {frame.dim}, got shape {f.shape}")
    v = frame.vectors
    scale = frame.weights * np.abs(np.conj(v) @ f) ** 2
    return RQuadraticForm(f=f, matrix=hermitize((v.T * scale) @ np.conj(v)))


def alpha_certify(
    frame: Frame,
    restarts: int = 8,
    iters: int = 100,
    tol: float = 1e-12,
    seed: int = 0,
) -> AlphaResult:
    """Estimate ``alpha = min over unit f, g of <R(f) g, g>`` by alternating minimization.

    Each half-step replaces one argument with the smallest eigenvector of
    the R operator built from the other, so the objective is monotone
    nonincreasing along every trace.  The returned alpha is the best value
    over all restarts; a positive alpha is numerical evidence for phase
    retrieval, zero pinpoints a flat direction.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be at least 1")
    rng = np.random.default_rng(seed)
    complex_ = frame.field == "complex"
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    traces: list[tuple[float, ...]] = []
    for _ in range(restarts):
        f = random_unit(rng, frame.dim, complex_)
        val, g = eigmin_vector(r_operator(frame, f).matrix)
        trace = [val]
        prev = val
        for _ in range(iters):
            val, f = eigmin_vector(r_operator(frame, g).matrix)
            trace.append(val)
            val, g = eigmin_vector(r_operator(frame, f).matrix)
            trace.append(val)
            if prev - val < tol:
                break
            prev = val
        traces.append(tuple(trace))
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], f, g)
    assert best is not None
    return AlphaResult(
        alpha=max(best[0], 0.0),
        argmin_f=best[1],
        argmin_g=best[2],
        traces=tuple(traces),
    )


def norm_retrieval_certify(
    frame: Frame,
    tol: float = DEFAULT_ORTHO_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Certificate:
    """Certify norm retrieval over R via orthogonality of complementary null spaces.

    For every index subset, the annihilator of its rows must be orthogonal
    to the annihilator of the complement's rows.  A split where either side
    spans holds vacuously, so only the splits the complement-property scan
    yields are examined.  A failure reports the subset plus the offending
    unit null directions.
    """
    _require_real(frame, "norm retrieval certification")
    v, d = frame.vectors, frame.dim
    for s, c in _deficient_splits(frame, rank_tol, cap, "norm retrieval certification"):
        left = annihilator(v[list(s)], d, rank_tol)
        right = annihilator(v[list(c)], d, rank_tol)
        # Rank check and annihilator can split an exact tie differently.
        if left.shape[1] == 0 or right.shape[1] == 0:
            continue
        overlap = np.abs(left.T @ right)
        if overlap.max() > tol:
            i, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
            return Certificate(
                verdict=FAILS,
                method="nr-nullspace-orthogonality",
                field=frame.field,
                witness_subset=s,
                witness_vectors=(left[:, i], right[:, j]),
            )
    return Certificate(verdict=HOLDS, method="nr-nullspace-orthogonality", field=frame.field)


def norm_retrieval_oracle(frame: Frame, tol: float = DEFAULT_ORTHO_TOL, rank_tol: float = DEFAULT_RANK_TOL,
                          cap: int = DEFAULT_ENUM_CAP) -> Certificate:
    """Uncalled brute-force pair check, kept only because ``perfbench/tracer.py`` traces it."""
    _require_real(frame, "norm retrieval oracle")
    v, d = frame.vectors, frame.dim
    for s, c in _deficient_splits(frame, rank_tol, cap, "norm retrieval oracle"):
        left = annihilator(v[list(s)], d, rank_tol)
        right = annihilator(v[list(c)], d, rank_tol)
        for u in left.T:
            for w in right.T:
                f, g = (w + u) / 2.0, (w - u) / 2.0
                if abs(np.linalg.norm(f) - np.linalg.norm(g)) > tol:
                    return Certificate(verdict=FAILS, method="nr-bruteforce-pairs", field=frame.field,
                                       witness_subset=s, witness_vectors=(f, g))
    return Certificate(verdict=HOLDS, method="nr-bruteforce-pairs", field=frame.field)


def near_riesz_detect(
    frame: Frame, tol: float = DEFAULT_RANK_TOL
) -> tuple[int, ...] | None:
    """Find a smallest removable atom set leaving an exact basis, if one exists.

    One greedy pass over the atoms from last to first keeps each atom that
    raises the rank of those already kept.  On the frame's matroid this
    keeps the basis whose removal set of size ``n - d`` comes first in
    lexicographic order.  Returns None when the pass keeps fewer than d
    atoms, as it must when n < d.
    """
    n, d = frame.n_atoms, frame.dim
    v = frame.vectors
    kept: list[int] = []
    for i in reversed(range(n)):
        if numerical_rank(v[kept + [i]], tol) > len(kept):
            kept.append(i)
            if len(kept) == d:
                return tuple(sorted(set(range(n)) - set(kept)))
    return None
