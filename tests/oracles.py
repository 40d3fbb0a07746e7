"""Independent reference implementations used only to cross-check the library.

Each oracle answers the same question as a library routine but by a different
algorithm, so agreement between the two is meaningful evidence:

* ``sign_pattern_pr_oracle`` decides real phase retrieval by enumerating sign
  patterns and inspecting null spaces of stacked linear systems, never
  touching subset spans.
* ``alpha_grid_oracle_2d`` evaluates the retrieval functional on a dense
  angle grid with a closed-form smallest eigenvalue, never iterating.
* ``brute_force_complement_property`` walks all 2^n subsets with no pairing
  or pruning shortcuts.
* ``norm_retrieval_oracle`` decides real norm retrieval by building explicit
  equal-magnitude vector pairs and comparing their norms, over its own
  bitmask walk and its own null-space computation.
"""

from __future__ import annotations

import numpy as np

from framelab import FAILS, HOLDS, Certificate, Frame


def sign_pattern_pr_oracle(frame: Frame, rank_tol: float = 1e-10, col_tol: float = 1e-8) -> str:
    """Decide real phase retrieval exhaustively over sign patterns.

    Real vectors f and g produce equal measurement magnitudes exactly when
    the coefficient vectors agree up to an entrywise sign pattern eps, that
    is V g = eps * (V f). For each pattern (first sign fixed to +1, since
    flipping g flips the whole pattern) the matching pairs form the null
    space of the stacked matrix [eps * V | -V] acting on (f; g). Phase
    retrieval fails exactly when some null space is not contained in the
    plane f = g nor in the plane f = -g; over the reals a subspace avoids
    both planes as soon as it is contained in neither, because a vector
    space is never the union of two proper subspaces.
    """
    if frame.field != "real":
        raise ValueError("the sign-pattern oracle only applies to real frames")
    v = np.asarray(frame.vectors, dtype=float)
    n, d = v.shape
    if n == 0:
        return "fails" if d > 0 else "holds"
    for bits in range(2 ** (n - 1)):
        eps = np.ones(n)
        for i in range(n - 1):
            if (bits >> i) & 1:
                eps[i + 1] = -1.0
        stacked = np.hstack([eps[:, None] * v, -v])
        _, s, vh = np.linalg.svd(stacked, full_matrices=True)
        if s.size and s[0] > 0.0:
            rank = int(np.count_nonzero(s > rank_tol * s[0]))
        else:
            rank = 0
        if rank >= 2 * d:
            continue
        null_rows = vh[rank:]
        nf = null_rows[:, :d]
        ng = null_rows[:, d:]
        escapes_diag = float(np.max(np.abs(nf - ng))) > col_tol
        escapes_antidiag = float(np.max(np.abs(nf + ng))) > col_tol
        if escapes_diag and escapes_antidiag:
            return "fails"
    return "holds"


def alpha_grid_oracle_2d(frame: Frame, grid: int = 8192) -> float:
    """Minimum of the retrieval functional for a real planar frame by brute grid.

    Parametrizes the outer unit vector as (cos t, sin t) on [0, pi), builds
    the weighted operator R(f) entrywise, and takes its smaller eigenvalue in
    closed form. No iteration, no randomness.
    """
    if frame.field != "real" or frame.dim != 2:
        raise ValueError("the angle-grid oracle only applies to real planar frames")
    v = np.asarray(frame.vectors, dtype=float)
    w = frame.weights
    thetas = np.linspace(0.0, np.pi, grid, endpoint=False)
    directions = np.stack([np.cos(thetas), np.sin(thetas)])
    coeffs = v @ directions
    atom_weights = w[:, None] * coeffs**2
    r00 = (v[:, 0] ** 2) @ atom_weights
    r01 = (v[:, 0] * v[:, 1]) @ atom_weights
    r11 = (v[:, 1] ** 2) @ atom_weights
    trace = r00 + r11
    det = r00 * r11 - r01**2
    disc = np.sqrt(np.clip(trace**2 - 4.0 * det, 0.0, None))
    return float(np.min((trace - disc) / 2.0))


def brute_force_complement_property(frame: Frame, rank_tol: float = 1e-10) -> bool:
    """Check every one of the 2^n subsets directly, no pairing tricks."""
    v = frame.vectors
    n, d = v.shape
    for mask in range(2**n):
        idx = [i for i in range(n) if (mask >> i) & 1]
        co = [i for i in range(n) if not (mask >> i) & 1]
        if _rank(v[idx], rank_tol) < d and _rank(v[co], rank_tol) < d:
            return False
    return True


def norm_retrieval_oracle(
    frame: Frame, tol: float = 1e-8, rank_tol: float = 1e-10
) -> Certificate:
    """Decide real norm retrieval through explicit equal-magnitude pairs.

    For null directions ``u`` (of a subset's rows) and ``w`` (of its
    complement's rows), the vectors ``(w + u) / 2`` and ``(w - u) / 2`` have
    identical coefficient magnitudes on every atom; their norms differ
    exactly when ``<u, w> != 0``.  The verdict fails when some pair of basis
    directions has a norm gap above tolerance, and that pair is the witness.
    Masks run over subsets of the first n - 1 atoms, so the last atom always
    sits in the complement and each unordered split is visited once.
    """
    if frame.field != "real":
        raise ValueError("the norm retrieval oracle only applies to real frames")
    v = np.asarray(frame.vectors, dtype=float)
    n, d = v.shape
    for mask in range(2 ** (n - 1)):
        idx = [i for i in range(n) if (mask >> i) & 1]
        co = [i for i in range(n) if not (mask >> i) & 1]
        left = _null_space(v[idx], d, rank_tol)
        if left.shape[1] == 0:
            continue
        right = _null_space(v[co], d, rank_tol)
        for u in left.T:
            for w in right.T:
                f, g = (w + u) / 2.0, (w - u) / 2.0
                if abs(np.linalg.norm(f) - np.linalg.norm(g)) > tol:
                    return Certificate(
                        verdict=FAILS,
                        method="nr-bruteforce-pairs",
                        field="real",
                        witness_subset=tuple(idx),
                        witness_vectors=(f, g),
                    )
    return Certificate(verdict=HOLDS, method="nr-bruteforce-pairs", field="real")


def _rank(rows: np.ndarray, tol: float) -> int:
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def _null_space(rows: np.ndarray, d: int, tol: float) -> np.ndarray:
    """Orthonormal columns spanning the vectors orthogonal to every row."""
    if rows.shape[0] == 0:
        return np.eye(d)
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.count_nonzero(s > tol * s[0])) if s[0] > 0.0 else 0
    return vh[rank:].T
