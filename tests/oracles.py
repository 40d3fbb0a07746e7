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
* ``near_riesz_oracle`` scans every removal set of size n - d in
  lexicographic order, where the library makes one greedy matroid pass.
* ``annihilator_reference`` takes one matrix's null space from its own SVD
  and puts each basis column in the canonical phase one column at a time,
  where the library treats a whole stack at once.
* ``deficient_splits_reference`` walks all 2^(n-1) splits with one rank
  check per side, where the library checks only the first ones and then
  those its hyperplane table proposes; with ``complement_property_reference``
  and ``norm_retrieval_reference`` on top of it, it pins the exact split
  order, witnesses and witness vectors.
* ``hyperplane_table_reference`` builds the hyperplane table with one SVD
  per (d - 1)-subset of atoms, where the library walks the subsets with
  Householder reflections and no SVD; its rows lie inside the library's.
* ``subset_sigma_min_reference`` takes the smallest singular value of each
  d-subset of atoms from its own SVD, where the library bounds it from below
  through one stacked determinant.
* ``lift_ratio_reference`` builds the lifted map Q -> (phi_i^T Q phi_i)_i
  column by column from an orthonormal basis of the symmetric matrices,
  where the library writes the lift's rows from products of coordinates.
* ``hermitian_lift_reference`` builds the lifted map Q -> (phi_i^* Q phi_i)_i
  on Hermitian matrices column by column from an explicit orthonormal
  basis of them, where the library writes the complex lift's rows from
  products conj(phi_a) phi_b.
* ``alpha_reference`` runs the alternating minimization one restart after
  another, with one R operator and one ``eigh`` per half-step, where the
  library runs a block of restarts as one stack.  Its R operator
  (``r_matrix_reference``) and canonical phase (``canonical_phase_reference``)
  treat one vector with the scalar arithmetic the stacked library code must
  match bit for bit, and so does its draw of each starting vector
  (``random_unit``), where the library draws a block of them at once.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterator

import numpy as np

from framelab import FAILS, HOLDS, AlphaResult, Certificate, Frame
from framelab._linalg import annihilator, numerical_rank, ranks, scaled
from framelab.retrieval import _TABLE_MARGIN


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


def near_riesz_oracle(frame: Frame, rank_tol: float = 1e-10) -> tuple[int, ...] | None:
    """The lexicographically first removal set whose remaining rows form a basis."""
    v = frame.vectors
    n, d = v.shape
    if n < d:
        return None
    for removed in combinations(range(n), n - d):
        keep = [i for i in range(n) if i not in removed]
        if _rank(v[keep], rank_tol) == d:
            return removed
    return None


def complement_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield each unordered pair {S, complement} exactly once.

    The empty/full pair comes first; after that the representatives are the
    subsets containing index 0, in lexicographic order.
    """
    yield (), tuple(range(n))
    stack: list[tuple[int, ...]] = [(0,)]
    while stack:
        s = stack.pop()
        if len(s) < n:
            in_s = set(s)
            yield s, tuple(i for i in range(n) if i not in in_s)
        stack.extend(s + (j,) for j in range(n - 1, s[-1], -1))


def deficient_splits_reference(
    frame: Frame, rank_tol: float = 1e-10
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split where neither side spans, in scan order, one rank check per side."""
    v, d = frame.vectors, frame.dim
    for s, c in complement_pairs(frame.n_atoms):
        small, big = (s, c) if len(s) <= len(c) else (c, s)
        if len(small) >= d and _rank(v[list(small)], rank_tol) >= d:
            continue
        if len(big) >= d and _rank(v[list(big)], rank_tol) >= d:
            continue
        yield s, c


def complement_property_reference(frame: Frame, rank_tol: float = 1e-10) -> tuple[int, ...] | None:
    """The first split of the scan (the lexicographically smallest witness), or None."""
    split = next(deficient_splits_reference(frame, rank_tol), None)
    return None if split is None else split[0]


def norm_retrieval_reference(
    frame: Frame, tol: float = 1e-8, rank_tol: float = 1e-10
) -> Certificate:
    """Null-space orthogonality on every split of the scan; the first failure is the witness."""
    v, d = frame.vectors, frame.dim
    for s, c in deficient_splits_reference(frame, rank_tol):
        left = annihilator(v[list(s)], d, rank_tol)
        right = annihilator(v[list(c)], d, rank_tol)
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


def _rank(rows: np.ndarray, tol: float) -> int:
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def annihilator_reference(rows: np.ndarray, d: int, tol: float = 1e-10) -> np.ndarray:
    """The null space of one matrix's rows under the library's conventions, one column at a time.

    The basis is the right singular vectors of ``conj(rows)`` past the
    numerical rank, conjugated, each column put in the canonical phase by
    its own call.
    """
    if rows.size == 0:
        return np.eye(d, dtype=rows.dtype if rows.dtype.kind == "c" else float)
    _, s, vh = np.linalg.svd(np.conj(rows))
    rank = int(np.count_nonzero(s > tol * s[0])) if s[0] > 0.0 else 0
    basis = vh[rank:].conj().T
    for j in range(basis.shape[1]):
        basis[:, j] = canonical_phase_reference(basis[:, j])
    return basis


def canonical_phase_reference(v: np.ndarray) -> np.ndarray:
    """``v`` times conj(p) / |p| for its first largest-magnitude entry p, with the scalar ``abs`` of p."""
    mags = np.abs(v)
    if mags.max() == 0.0:
        return v
    pivot = v[int(np.argmax(mags))]
    return v * (np.conj(pivot) / abs(pivot)) + 0.0


def _null_space(rows: np.ndarray, d: int, tol: float) -> np.ndarray:
    """Orthonormal columns spanning the vectors orthogonal to every row."""
    if rows.shape[0] == 0:
        return np.eye(d)
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.count_nonzero(s > tol * s[0])) if s[0] > 0.0 else 0
    return vh[rank:].T


def hyperplane_table_reference(v: np.ndarray, tol: float) -> np.ndarray | None:
    """The table of ``_hyperplane_table`` from one SVD per (d - 1)-subset.

    A subset is independent when its smallest singular value clears
    ``tol * sigma_max``.  An atom lies in its closure when its distance to
    their span is at most ``_TABLE_MARGIN * tol`` times the larger of
    ``sigma_max`` and the atom's norm, so exact zero atoms lie in every
    hyperplane.  Returns None when the frame does not span at
    ``_TABLE_MARGIN * tol``.
    """
    v, _ = scaled(v)
    if numerical_rank(v, _TABLE_MARGIN * tol) < v.shape[1]:
        return None
    n, d = v.shape
    r = d - 1
    norms = np.linalg.norm(v, axis=1)
    subsets = combinations(range(n), r)
    blocks = []
    while batch := list(islice(subsets, max(1, 4096 // (n * d)))):
        _, s, vh = np.linalg.svd(v[np.array(batch, dtype=np.intp).reshape(len(batch), r)])
        if r:
            independent = ranks(s, tol) == r
            s, vh = s[independent], vh[independent]
        top = s[:, :1] if r else np.zeros((len(vh), 1))
        distance = np.linalg.norm(vh[:, r:].conj() @ v.T, axis=1)
        scale = np.maximum(top, norms)
        blocks.append(np.packbits(distance <= _TABLE_MARGIN * tol * scale, axis=1, bitorder="little"))
    packed = np.unique(np.concatenate(blocks).view(np.dtype((np.void, (n + 7) // 8))).ravel()).view(np.uint8)
    rows = np.unpackbits(packed.reshape(-1, (n + 7) // 8), axis=1, count=n, bitorder="little")
    return rows.astype(bool)


def subset_sigma_min_reference(v: np.ndarray) -> np.ndarray:
    """sigma_min of each d-subset of rows, in lexicographic order, one SVD per subset.

    The frame is first scaled as the library scales it, by a power of two.
    """
    v, _ = scaled(v)
    subsets = combinations(range(len(v)), v.shape[1])
    return np.array([np.linalg.svd(v[list(r)], compute_uv=False)[-1] for r in subsets])


def lift_ratio_reference(v: np.ndarray) -> float:
    """sigma_min / sigma_max of the lifted map Q -> (phi_i^T Q phi_i)_i on symmetric d x d matrices.

    Column k of the map's matrix is A(E_k) for the orthonormal basis E_aa,
    (E_ab + E_ba) / sqrt(2) (a < b) of the symmetric matrices, each entry
    evaluated as phi_i^T E_k phi_i.
    """
    d = v.shape[1]
    columns = []
    for a in range(d):
        for b in range(a, d):
            e = np.zeros((d, d))
            e[a, b] = e[b, a] = 1.0 if a == b else 1.0 / np.sqrt(2.0)
            columns.append(np.einsum("ia,ab,ib->i", v, e, v))
    s = np.linalg.svd(np.stack(columns, axis=1), compute_uv=False)
    return float(s[-1] / s[0])


def hermitian_basis(d: int) -> list[np.ndarray]:
    """An orthonormal basis of the Hermitian d x d matrices under <P, Q> = tr(P Q).

    E_aa, then (E_ab + E_ba) / sqrt(2) and i (E_ab - E_ba) / sqrt(2) for a < b.
    """
    basis = []
    for a in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[a, a] = 1.0
        basis.append(e)
    for a in range(d):
        for b in range(a + 1, d):
            for entry in (1.0, 1j):
                e = np.zeros((d, d), dtype=complex)
                e[a, b], e[b, a] = entry / np.sqrt(2.0), np.conj(entry) / np.sqrt(2.0)
                basis.append(e)
    return basis


def hermitian_lift_reference(v: np.ndarray) -> np.ndarray:
    """The n x d^2 matrix of Q -> (phi_i^* Q phi_i)_i on Hermitian matrices, in ``hermitian_basis``.

    Column k is A(E_k), each entry evaluated as phi_i^* E_k phi_i, real
    because E_k is Hermitian.
    """
    columns = [np.einsum("ia,ab,ib->i", np.conj(v), e, v).real for e in hermitian_basis(v.shape[1])]
    return np.stack(columns, axis=1)


def r_matrix_reference(frame: Frame, f: np.ndarray) -> np.ndarray:
    """R(f) = sum_i w_i |<f, phi_i>|^2 phi_i phi_i^*, Hermitized, from one vector f."""
    v = frame.vectors
    scale = frame.weights * np.abs(np.conj(v) @ f) ** 2
    mat = (v.T * scale) @ np.conj(v)
    return (mat + mat.conj().T) / 2.0


def _eigmin_reference(mat: np.ndarray) -> tuple[float, np.ndarray]:
    evals, evecs = np.linalg.eigh(mat)
    return float(evals[0]), canonical_phase_reference(evecs[:, 0])


def random_unit(rng: np.random.Generator, dim: int, complex_: bool) -> np.ndarray:
    """One unit vector from two draws of ``dim`` normal coordinates (one when real), over ``np.linalg.norm``; e_0 for a zero draw."""
    v = rng.standard_normal(dim)
    if complex_:
        v = v + 1j * rng.standard_normal(dim)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        v = np.zeros(dim, dtype=complex if complex_ else float)
        v[0] = 1.0
        return v
    return v / nrm


def alpha_reference(
    frame: Frame, restarts: int = 8, iters: int = 100, tol: float = 1e-12, seed: int = 0
) -> AlphaResult:
    """Alternating minimization of <R(f) g, g>, one restart at a time; the best is the first minimum."""
    rng = np.random.default_rng(seed)
    complex_ = frame.field == "complex"
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    traces: list[tuple[float, ...]] = []
    for _ in range(restarts):
        f = random_unit(rng, frame.dim, complex_)
        val, g = _eigmin_reference(r_matrix_reference(frame, f))
        trace = [val]
        prev = val
        for _ in range(iters):
            val, f = _eigmin_reference(r_matrix_reference(frame, g))
            trace.append(val)
            val, g = _eigmin_reference(r_matrix_reference(frame, f))
            trace.append(val)
            if prev - val < tol:
                break
            prev = val
        traces.append(tuple(trace))
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], f, g)
    assert best is not None
    return AlphaResult(alpha=max(best[0], 0.0), argmin_f=best[1], argmin_g=best[2], traces=tuple(traces))
