"""Small linear-algebra helpers shared by the frame and retrieval modules.

Conventions used throughout the package:

* inner products are linear in the first argument and conjugate-linear in
  the second, ``<u, v> = sum_k u_k * conj(v_k)``;
* numerical rank uses a relative cutoff ``tol * sigma_max``, counted by
  ``ranks`` alone;
* basis vectors returned from eigen/null-space computations are normalized
  to a canonical phase so repeated runs give byte-identical results.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-10
DEFAULT_ORTHO_TOL = 1e-8
DEFAULT_MATCH_TOL = 1e-9
DEFAULT_ENUM_CAP = 24
FRAME_RATIO_TOL = 1e-10


def inner(u: np.ndarray, v: np.ndarray):
    """<u, v> = sum_k u_k * conj(v_k); linear in ``u``, conjugate-linear in ``v``."""
    return np.vdot(v, u)


def scaled(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a stack (its last two axes) times the power of two that puts its largest |entry| in [1/2, 1).

    Returns the scaled stack and the exponents e, one per matrix, with
    ``stack = scaled * 2^e``.  The scaling is exact, save for entries more
    than 2^1021 below their matrix's largest, which round into the
    subnormal range; a zero matrix stays zero.  No factor 2^-e is formed,
    so a matrix whose largest entry is subnormal is scaled as well.
    ``np.ldexp`` refuses complex arrays, so it scales their real and
    imaginary parts.
    """
    _, exponent = np.frexp(np.abs(stack).max(axis=(-2, -1)))
    shift = -exponent[..., None, None]
    if stack.dtype.kind != "c":
        return np.ldexp(stack, shift), exponent
    out = np.empty_like(stack)
    out.real, out.imag = np.ldexp(stack.real, shift), np.ldexp(stack.imag, shift)
    return out, exponent


def ranks(s: np.ndarray, tol: float) -> np.ndarray:
    """Ranks from descending singular values along the last axis: those above ``tol * sigma_max`` count.

    A zero matrix has rank 0 for every ``tol``: none of its values exceeds
    ``tol * 0``.
    """
    return (s > tol * s[..., :1]).sum(axis=-1)


def numerical_rank(rows: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of ``rows`` with singular values below ``tol * sigma_max`` treated as zero."""
    if rows.size == 0:
        return 0
    return int(ranks(np.linalg.svd(rows, compute_uv=False), tol))


def full_column_rank(stack: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """For each matrix of a (k, m, d) stack, whether ``numerical_rank`` of it is d.

    One stacked SVD runs the same LAPACK routine on each matrix as a call
    per matrix does, so each decision equals ``numerical_rank(matrix) >= d``.
    """
    k, m, d = stack.shape
    if m < d or k == 0:
        return np.zeros(k, dtype=bool)
    return ranks(np.linalg.svd(stack, compute_uv=False), tol) >= d


def canonical_phases(vs: np.ndarray) -> np.ndarray:
    """Scale each nonzero row of a (k, d) array by a unimodular factor so its first largest-magnitude entry is real positive.

    The rows are unit eigen- or singular vectors; a zero row would divide
    by zero.  The pivot's modulus is ``np.hypot`` of its parts, which rounds
    as the scalar ``abs`` of one complex number does; the array ``np.abs``
    of complex values can differ in the last bit.
    """
    pivot = vs[np.arange(len(vs)), np.abs(vs).argmax(axis=1), None]
    # Adding 0.0 flushes IEEE negative zeros so serialized output is stable.
    return vs * (pivot.conj() / np.hypot(pivot.real, pivot.imag)) + 0.0


def null_spaces(stack: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, list[np.ndarray]]:
    """For each matrix of a (k, m, d) stack, its descending singular values and the ``annihilator`` of its rows.

    Returns the (k, min(m, d)) singular values and the k bases.  One stacked
    SVD runs the same LAPACK routine on each matrix as a call per matrix
    does, so each result equals the one-matrix result bit for bit.  Every
    basis column carries the canonical phase: the rows of each V^H from the
    stack's least rank on, which hold every null space, get it in one call,
    and the rows before them, which are never returned, are not scaled.
    """
    k, m, d = stack.shape
    if stack.size == 0:
        eye = np.eye(d, dtype=stack.dtype if stack.dtype.kind == "c" else float)
        return np.zeros((k, 0)), [eye.copy() for _ in range(k)]
    # <u, r> = 0 reads conj(rows) @ u = 0 under the first-slot-linear convention.
    _, s, vh = np.linalg.svd(np.conj(stack))
    rank = ranks(s, tol).tolist()
    low = min(rank)
    # Row j of conj(vh) is column j of the basis; rows rank.. of each matrix span its null space.
    rows = canonical_phases(np.conj(vh[:, low:]).reshape(-1, d)).reshape(k, d - low, d)
    return s, [h[r - low :].T for r, h in zip(rank, rows)]


def annihilator(rows: np.ndarray, dim: int, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis, as columns, of ``{u : <u, r> = 0 for every row r}``.

    An empty row set annihilates nothing, so the result is the identity basis.
    The basis columns carry the canonical phase.
    """
    return null_spaces(rows.reshape(1, len(rows), dim), tol)[1][0]


def eigmin_vectors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of each Hermitian matrix of a (k, d, d) stack, and a canonical-phase unit eigenvector of each, as rows.

    One stacked ``eigh`` runs the same LAPACK routine on each matrix as a
    call per matrix does, so each result equals the one-matrix result bit
    for bit.
    """
    evals, evecs = np.linalg.eigh(mats)
    return evals[:, 0], canonical_phases(evecs[:, :, 0])


def eigmin_vector(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Hermitian matrix and a canonical-phase unit eigenvector."""
    vals, vecs = eigmin_vectors(mat[None])
    return float(vals[0]), vecs[0]


def hermitize(mat: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix, or of each matrix of a stack."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0


def inv_sqrt_psd(mat: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Inverse square root of a Hermitian positive-definite matrix.

    Raises ValueError when the smallest eigenvalue falls at or below
    ``tol * largest``, i.e. when the matrix is numerically singular.
    """
    evals, evecs = np.linalg.eigh(hermitize(mat))
    if evals[-1] <= 0.0 or evals[0] <= tol * evals[-1]:
        raise ValueError("matrix is numerically singular; no inverse square root")
    w = evecs * (evals ** -0.5)
    return w @ evecs.conj().T


def random_unit(rng: np.random.Generator, dim: int, complex_: bool) -> np.ndarray:
    """Draw a unit vector; complex vectors get independent real and imaginary parts."""
    v = rng.standard_normal(dim)
    if complex_:
        v = v + 1j * rng.standard_normal(dim)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        v = np.zeros(dim, dtype=complex if complex_ else float)
        v[0] = 1.0
        return v
    return v / nrm
