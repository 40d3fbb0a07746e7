"""Finite frames over atomic measure spaces: operators, bounds, generators.

A frame is a family of vectors ``F(x_i)`` in R^d or C^d indexed by the atoms
of a measure space.  The three basic operators are

* analysis:   ``(T f)_i = <f, F(x_i)>``
* synthesis:  ``T* c = sum_i w_i c_i F(x_i)``
* frame operator: ``S = T* T = sum_i w_i F(x_i) F(x_i)*``

with inner products linear in the first slot.  The frame bounds are the
extreme eigenvalues of ``S``; the family is a frame when the lower bound is
strictly positive (relative to the upper one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    DEFAULT_MATCH_TOL,
    DEFAULT_RANK_TOL,
    FRAME_RATIO_TOL,
    hermitize,
    inner,
    inv_sqrt_psd,
    numerical_rank,
    scaled,
)
from .measure import MeasureSpace, make_atomic

__all__ = [
    "Frame",
    "FrameBounds",
    "CoefficientVector",
    "BesselBoundReport",
    "LipschitzReport",
    "analysis",
    "synthesis",
    "frame_operator",
    "frame_bounds",
    "is_mu_complete",
    "bessel_norm_bound_check",
    "magnitudes",
    "lipschitz_check",
    "apply_operator",
    "parsevalize",
    "gen_onb",
    "gen_mercedes",
    "gen_harmonic",
    "gen_random",
    "gen_deficient_plus_tail",
]


def _require_finite(vectors: np.ndarray) -> None:
    """Refuse frame vectors holding NaN or Inf entries."""
    if not np.all(np.isfinite(vectors)):
        raise ValueError("frame vectors must be finite (no NaN or Inf entries)")


@dataclass(frozen=True, eq=False)
class Frame:
    """A finite frame: one row of ``vectors`` per atom of ``space``.

    Real rows are stored as float64 and complex rows as complex128; the
    scalar field of the frame is read off the dtype.  The row array is
    frozen so frames can be shared across threads.
    """

    space: MeasureSpace
    vectors: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.vectors)
        if arr.ndim != 2:
            raise ValueError(f"vectors must be a 2-d array, got shape {arr.shape}")
        dtype = np.complex128 if arr.dtype.kind == "c" else np.float64
        arr = arr.astype(dtype, copy=True)
        if arr.shape[0] != len(self.space):
            raise ValueError(
                f"{arr.shape[0]} vectors for {len(self.space)} atoms; one row per atom required"
            )
        if arr.shape[1] < 1:
            raise ValueError("frame vectors need at least one coordinate")
        _require_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def n_atoms(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def field(self) -> str:
        return "complex" if self.vectors.dtype.kind == "c" else "real"

    @property
    def weights(self) -> np.ndarray:
        return self.space.weights

    def with_vectors(self, vectors: np.ndarray) -> "Frame":
        """A frame over the same measure space with replaced rows."""
        return Frame(self.space, vectors)


@dataclass(frozen=True)
class FrameBounds:
    """Extreme eigenvalues (lower, upper) of the frame operator.

    ``_scaled`` holds the bounds of the frame scaled by a power of two
    (``frame_bounds``), which keep their ratio when the bounds themselves
    underflow.
    """

    lower: float
    upper: float
    _scaled: tuple[float, float] | None = field(default=None, repr=False, compare=False)

    @property
    def is_frame(self) -> bool:
        """True when the lower bound is positive relative to the upper one."""
        lower, upper = self._scaled or (self.lower, self.upper)
        return lower > FRAME_RATIO_TOL * upper


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Analysis coefficients paired with the measure space they live on."""

    values: np.ndarray
    space: MeasureSpace

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.ndim != 1 or arr.shape[0] != len(self.space):
            raise ValueError("coefficient vector must have one entry per atom")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.space)

    def weighted_norm(self) -> float:
        """L2(mu) norm: sqrt(sum_i w_i |c_i|^2)."""
        return float(np.sqrt(np.sum(self.space.weights * np.abs(self.values) ** 2)))


@dataclass(frozen=True)
class BesselBoundReport:
    bound: float
    max_norm: float
    holds: bool


@dataclass(frozen=True)
class LipschitzReport:
    lhs: float
    rhs: float
    holds: bool


def analysis(frame: Frame, f: np.ndarray) -> CoefficientVector:
    """Analysis coefficients ``c_i = <f, F(x_i)>`` (conjugate-linear in the frame vector)."""
    f = np.asarray(f)
    if f.shape != (frame.dim,):
        raise ValueError(f"expected a vector of length {frame.dim}, got shape {f.shape}")
    return CoefficientVector(np.conj(frame.vectors) @ f, frame.space)


def synthesis(frame: Frame, coeffs: CoefficientVector | np.ndarray) -> np.ndarray:
    """Weighted synthesis ``sum_i w_i c_i F(x_i)``, the adjoint of analysis."""
    if isinstance(coeffs, CoefficientVector):
        if len(coeffs) != frame.n_atoms or not np.array_equal(coeffs.space.weights, frame.weights):
            raise ValueError("coefficient vector is indexed by a different measure space")
        c = coeffs.values
    else:
        c = np.asarray(coeffs)
        if c.shape != (frame.n_atoms,):
            raise ValueError(f"expected {frame.n_atoms} coefficients, got shape {c.shape}")
    return frame.vectors.T @ (frame.weights * c)


_OVERFLOW = "the frame operator overflows float64; scale the frame vectors down"


def _operator(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_i w_i v_i v_i*`` over the rows v_i; ValueError if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = hermitize((vectors.T * weights) @ np.conj(vectors))
    if not np.isfinite(s).all():
        raise ValueError(_OVERFLOW)
    return s


def frame_operator(frame: Frame) -> np.ndarray:
    """The d-by-d positive semidefinite operator ``S = sum_i w_i F(x_i) F(x_i)*``; ValueError if it overflows."""
    return _operator(frame.vectors, frame.weights)


def _scaled_bounds(frame: Frame) -> tuple[float, float, int]:
    """The extreme eigenvalues of the frame operator of the ``scaled`` frame, and its exponent e.

    The frame's vectors are the scaled ones times 2^e, so its frame operator
    is 4^e times the scaled frame's, whose entries neither underflow nor
    overflow on the way for moderate weights.
    """
    vectors, e = scaled(frame.vectors)
    evals = np.linalg.eigvalsh(_operator(vectors, frame.weights))
    return max(float(evals[0]), 0.0), max(float(evals[-1]), 0.0), int(e)


def frame_bounds(frame: Frame) -> FrameBounds:
    """Optimal frame bounds: the extreme eigenvalues of the frame operator.

    They are computed on the frame scaled by a power of two, which is
    exact, and ``is_frame`` compares the scaled bounds, so a frame whose
    bounds underflow to zero is judged by their ratio.  ValueError if a
    bound overflows.
    """
    lower, upper, e = _scaled_bounds(frame)
    with np.errstate(over="ignore"):
        bounds = np.ldexp([lower, upper], 2 * e)
    if not np.isfinite(bounds).all():
        raise ValueError(_OVERFLOW)
    return FrameBounds(lower=float(bounds[0]), upper=float(bounds[1]), _scaled=(lower, upper))


def is_mu_complete(frame: Frame, tol: float = DEFAULT_RANK_TOL) -> bool:
    """True when the frame vectors span the whole space (numerical rank equals dim)."""
    return numerical_rank(frame.vectors, tol) == frame.dim


def bessel_norm_bound_check(frame: Frame, tol: float = DEFAULT_MATCH_TOL) -> BesselBoundReport:
    """Check ``max_x ||F(x)|| <= sqrt(B / eta)`` with B the upper frame bound.

    Both sides are computed for the frame scaled by a power of two, which
    is exact, and then scaled back, so neither overflows on the way when
    its value is finite.  The check compares the scaled sides, so that
    ``tol`` is relative to the frame's largest entry and a frame whose
    sides underflow is still checked.
    """
    _, upper, e = _scaled_bounds(frame)
    # B / eta = (b / m) 2^(2 half + odd) for the mantissas b and m, so the bound is sqrt((b / m) 2^odd) 2^half.
    (b, b_exp), (m, m_exp) = np.frexp(upper), np.frexp(frame.space.eta)
    half, odd = divmod(int(b_exp - m_exp), 2)
    norm = np.linalg.norm(scaled(frame.vectors)[0], axis=1).max()
    with np.errstate(over="ignore"):
        bound = np.ldexp(np.sqrt(np.ldexp(b / m, odd)), half)
        report = np.ldexp([bound, norm], e)
    holds = bool(norm <= bound + tol * (1.0 + bound))
    return BesselBoundReport(bound=float(report[0]), max_norm=float(report[1]), holds=holds)


def magnitudes(frame: Frame, f: np.ndarray) -> CoefficientVector:
    """Entrywise absolute values of the analysis coefficients of ``f``."""
    return CoefficientVector(np.abs(analysis(frame, f).values), frame.space)


def lipschitz_check(frame: Frame, f: np.ndarray, g: np.ndarray, tol: float = DEFAULT_MATCH_TOL) -> LipschitzReport:
    """Verify the magnitude-map Lipschitz inequality on one pair of vectors.

    The left side is the weighted L2 distance of the coefficient magnitudes;
    the right side is ``sqrt(B)`` times the distance of ``f`` and ``g`` up to
    a global phase, which has a closed form in either field: the real minimum
    of ``||f - g||`` and ``||f + g||``, or in the complex case
    ``sqrt(||f||^2 + ||g||^2 - 2 |<f, g>|)``.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    mf = magnitudes(frame, f).values
    mg = magnitudes(frame, g).values
    lhs = float(np.sqrt(np.sum(frame.weights * (mf - mg) ** 2)))
    if frame.field == "real" and not (np.iscomplexobj(f) or np.iscomplexobj(g)):
        dist = min(float(np.linalg.norm(f - g)), float(np.linalg.norm(f + g)))
    else:
        gap = np.linalg.norm(f) ** 2 + np.linalg.norm(g) ** 2 - 2.0 * abs(inner(f, g))
        dist = float(np.sqrt(max(gap, 0.0)))
    rhs = float(np.sqrt(frame_bounds(frame).upper)) * dist
    return LipschitzReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol * (1.0 + rhs))


def apply_operator(frame: Frame, op: np.ndarray) -> Frame:
    """Apply a linear map to every frame vector, keeping the measure space.

    For a surjective map the image is again a frame; the bounds move by at
    most the squared extreme singular values of the map.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[1] != frame.dim:
        raise ValueError(f"operator must have shape (k, {frame.dim}), got {op.shape}")
    return Frame(frame.space, frame.vectors @ op.T)


def parsevalize(frame: Frame, tol: float = DEFAULT_RANK_TOL) -> Frame:
    """Canonical tight version: apply ``S^(-1/2)`` so the frame operator becomes identity."""
    s = frame_operator(frame)
    try:
        w = inv_sqrt_psd(s, tol)
    except ValueError as exc:
        raise ValueError("cannot parsevalize: the family is not a frame") from exc
    return apply_operator(frame, w)


# ---------------------------------------------------------------------------
# generators


def _counting(n: int) -> MeasureSpace:
    return make_atomic([1.0] * n)


def gen_onb(d: int) -> Frame:
    """Orthonormal basis of R^d under counting measure."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return Frame(_counting(d), np.eye(d))


def gen_mercedes() -> Frame:
    """Three unit vectors in R^2 at angles 0, 120 and 240 degrees."""
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    return Frame(_counting(3), np.column_stack([np.cos(angles), np.sin(angles)]))


def gen_harmonic(d: int, n: int, field: str = "real") -> Frame:
    """Equal-norm Parseval frame of n vectors in dimension d built from sampled harmonics.

    The complex variant takes the first d coordinates of the unitary DFT
    rows and needs ``n >= d``.  The real variant stacks cosine/sine columns
    (plus a constant column when d is odd) and needs ``n >= d`` for odd d,
    ``n >= d + 1`` for even d; at those sizes the mixed frequency sums cancel
    and the frame operator is exactly the identity.
    """
    if d < 1 or n < 1:
        raise ValueError("dimension and atom count must be at least 1")
    if field == "complex":
        if n < d:
            raise ValueError(f"complex harmonic frame needs n >= d, got n={n}, d={d}")
        i = np.arange(n)[:, None]
        k = np.arange(d)[None, :]
        v = np.exp(2j * np.pi * i * k / n) / np.sqrt(n)
        return Frame(_counting(n), v)
    if field != "real":
        raise ValueError(f"unknown field {field!r}")
    if d % 2 == 0 and d > 0 and n <= d:
        raise ValueError(f"real harmonic frame with even d needs n >= d + 1, got n={n}, d={d}")
    if n < d:
        raise ValueError(f"real harmonic frame needs n >= d, got n={n}, d={d}")
    i = np.arange(n)
    cols: list[np.ndarray] = []
    if d % 2 == 1:
        cols.append(np.full(n, 1.0 / np.sqrt(n)))
    for a in range(1, d // 2 + 1):
        ang = 2.0 * np.pi * a * i / n
        cols.append(np.sqrt(2.0 / n) * np.cos(ang))
        cols.append(np.sqrt(2.0 / n) * np.sin(ang))
    return Frame(_counting(n), np.column_stack(cols))


def gen_random(d: int, n: int, seed: int = 0, field: str = "real") -> Frame:
    """n independent Gaussian vectors in dimension d under counting measure."""
    if d < 1 or n < 1:
        raise ValueError("dimension and atom count must be at least 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d))
    if field == "complex":
        v = (v + 1j * rng.standard_normal((n, d))) / np.sqrt(2.0)
    elif field != "real":
        raise ValueError(f"unknown field {field!r}")
    return Frame(_counting(n), v)


def gen_deficient_plus_tail(d: int, head_dim: int, tail_len: int, seed: int = 0) -> Frame:
    """A frame whose first ``head_dim + 1`` vectors span only a coordinate subspace.

    The head block lives in the span of the first ``head_dim`` coordinates
    (and is redundant there), the tail block is generic in R^d.  Head atoms
    are the ids ``0 .. head_dim``; they are the natural input for the
    phase-retrieval-breaking perturbation, which needs a direction orthogonal
    to the head span.
    """
    if not 1 <= head_dim < d:
        raise ValueError(f"need 1 <= head_dim < d, got head_dim={head_dim}, d={d}")
    if tail_len < 1:
        raise ValueError("tail_len must be at least 1")
    rng = np.random.default_rng(seed)
    head = np.zeros((head_dim + 1, d))
    head[:, :head_dim] = rng.standard_normal((head_dim + 1, head_dim))
    tail = rng.standard_normal((tail_len, d))
    return Frame(_counting(head_dim + 1 + tail_len), np.vstack([head, tail]))
