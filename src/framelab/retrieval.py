"""Exact certificates for phase retrieval and norm retrieval of finite frames.

Over the real field, phase retrieval is equivalent to the complement
property: every index subset or its complement must span the space.  Norm
retrieval holds exactly when, for every index subset, the null space of its
rows is orthogonal to the null space of the complement's rows; a split with
a spanning side satisfies both conditions.

A real frame with n >= D = d(d + 1)/2 atoms is first tested on its lift,
the n x D matrix of the map Q -> (phi_i^T Q phi_i)_i on symmetric d x d
matrices.  When the lift's singular values clear a stated cutoff, no split
can have neither side spanning under the scan's rank test, so both
properties hold with no split visited; ``_lifted_holds`` carries the proof
and the bound on LAPACK's rounding error that it assumes.
The lift can only answer ``holds``, and the atom cap is checked before it.
Frames it does not certify, frames with n < D and complex frames go on to
the splits.

Both are decided on the splits where neither side spans, visited in scan
order (the empty set first, then the subsets holding atom 0 in
lexicographic order), so each witness is the lexicographically smallest
one.  Visited splits are decided in chunks of 8, 16, 32, ... splits: the
smaller sides of a chunk, then the larger sides of the splits still open,
each group of equal-sized sides by one stacked SVD with the per-side cutoff
of ``numerical_rank``, so every decision is the scan's.  The scan's first
splits are visited before the hyperplane table is built, so a frame that
fails early never builds it.  After that only candidate splits are visited.
The table holds the frame's distinct hyperplanes, the closures of its
d - 1 independent atoms: at most C(n, d - 1) of them, found in batched
passes over the atom subsets.  A split has neither side spanning exactly
when S lies in a hyperplane H1 and its complement in a hyperplane H2, and
then H1 and H2 together hold every atom.  So the candidates come from the
covering pairs, and only pairs with |H1| + |H2| >= n are tested; with no
covering pair there is no candidate and both properties hold.  The table
decides rank with a margin above the tolerance: near the cutoff it lists
extra candidates, which the rank check drops.  Every split is visited only
when the pairs to test pass the table's limit or the frame does not span
with the margin.  The atom count is capped.  The reference scan that checks
every split, and independent brute-force references, live with the tests.

A stack of real frames with the same atom count, such as the perturbed
frames of a stability sweep, is tested on the lift in one stacked SVD, and
the frames it does not certify are certified in one stacked scan: each chunk
of the scan budget is decided for every frame still open at once, and a
frame leaves at its first deficient chunk.  The frames still open then
continue frame by frame on the table past the scan budget.  A single frame
is the stack of one, so every verdict is the one it gets alone.

Over the complex field the complement property is only necessary: its
failure certifies a phase retrieval failure, but when it holds the verdict
is ``inconclusive`` and an estimate of the lower-bound functional ``alpha``
is attached.  Norm retrieval certification is rejected outright for complex
frames; the subspace criterion it relies on is a real-field result.

``alpha`` is estimated by alternating minimization from several random
starts.  The restarts run together, in blocks that keep a stacked step
within the batch size: each half-step builds R(f) for every restart of the
block still running and takes one stacked ``eigh``, and a restart leaves
the block at its own stopping test.  Every trace, and so the estimate and
its minimizers, equals the one of the restarts run one after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress, filterfalse, islice
from math import comb, sqrt
from typing import Callable, Iterator

import numpy as np

from ._linalg import (
    DEFAULT_ENUM_CAP,
    DEFAULT_ORTHO_TOL,
    DEFAULT_RANK_TOL,
    annihilator,
    eigmin_vectors,
    full_column_rank,
    hermitize,
    inner,
    null_spaces,
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


# Float entries per batched step: stacks of small matrices are cut to this size.
_BATCH_ENTRIES = 1 << 12
# Splits decided together at first; later chunks double, up to the batch size.
_FIRST_CHUNK = 8
# The table's rank decisions are this many times looser than the scan's, so
# near the cutoff it lists more candidate splits, never fewer; every candidate
# is then decided with ``numerical_rank``'s cutoff, as the scan decides it.
_TABLE_MARGIN = 1e3
# Most hyperplane pairs the table may test for covering; past it the scan goes on.
_TABLE_LIMIT = 1 << 16


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct boolean rows, in sorted order."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    _, first = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))), return_index=True)
    return rows[first]


def _hyperplanes(v: np.ndarray, tol: float) -> Iterator[np.ndarray]:
    """Yield, batch by batch, the closures of the independent (d - 1)-subsets of rows as boolean rows.

    A subset is independent when its smallest singular value clears
    ``tol * sigma_max``.  An atom lies in its closure when the atom's
    distance to their span is at most ``_TABLE_MARGIN * tol`` times the
    larger of ``sigma_max`` and the atom's norm, so exact zero atoms lie in
    every hyperplane.  Rows repeat only across batches.
    """
    n, d = v.shape
    r = d - 1
    norms = np.linalg.norm(v, axis=1)
    subsets = combinations(range(n), r)
    while batch := list(islice(subsets, max(1, _BATCH_ENTRIES // (n * d)))):
        _, s, vh = np.linalg.svd(v[np.array(batch, dtype=np.intp).reshape(len(batch), r)])
        if r:
            independent = s[:, -1] > tol * s[:, 0]
            s, vh = s[independent], vh[independent]
        top = s[:, :1] if r else np.zeros((len(vh), 1))
        distance = np.linalg.norm(vh[:, r:].conj() @ v.T, axis=1)
        yield _distinct(distance <= _TABLE_MARGIN * tol * np.maximum(top, norms))


def _hyperplane_table(v: np.ndarray, tol: float) -> np.ndarray | None:
    """The frame's distinct hyperplanes, as boolean rows, with the table's margin.

    A hyperplane is the closure of d - 1 independent atoms, so there are at
    most C(n, d - 1) of them.  Returns None when the frame does not span
    with the margin.
    """
    if numerical_rank(v, _TABLE_MARGIN * tol) < v.shape[1]:
        return None
    return _distinct(np.concatenate(list(_hyperplanes(v, tol))))


def _covering(rows: np.ndarray, hyperplanes: np.ndarray) -> np.ndarray:
    """Index pairs (i, j), in row-major order, where rows[i] | hyperplanes[j] holds every atom."""
    outside = (~hyperplanes).astype(float)
    step = max(1, _BATCH_ENTRIES // len(hyperplanes))
    blocks = [
        np.argwhere((~rows[i : i + step]).astype(float) @ outside.T == 0) + (i, 0)
        for i in range(0, len(rows), step)
    ]
    return np.concatenate(blocks) if blocks else np.zeros((0, 2), dtype=np.intp)


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Each boolean row as an integer whose bit i is entry i."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _intervals(table: np.ndarray) -> list[tuple[int, int]] | None:
    """The intervals [atoms minus H2, H1] over pairs of table hyperplanes with H1 | H2 = atoms.

    A subset S holding atom 0 has neither side spanning exactly when it
    lies in such an interval with atom 0 in H1.  A covering pair has
    |H1| + |H2| >= n, so only those pairs are tested; returns None when they
    pass the table's limit.
    """
    n = table.shape[1]
    sizes = table.sum(axis=1)
    holders = table[:, 0]
    groups = [(holders & (sizes == s), sizes >= n - s) for s in np.unique(sizes[holders])]
    if sum(np.count_nonzero(first) * np.count_nonzero(second) for first, second in groups) > _TABLE_LIMIT:
        return None
    intervals: list[tuple[int, int]] = []
    for first, second in groups:
        if second.any():
            h1, h2 = table[first], table[second]
            i, j = _covering(h1, h2).T
            intervals += zip(_bitmasks(~h2[j]), _bitmasks(h1[i]))
    return intervals


def _walk(
    n: int, intervals: list[tuple[int, int]], start: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield the splits {S, complement} in scan order from S = ``start`` on, S in the union of the intervals.

    Each interval [low, high] is a pair of bitmasks holding atom 0; S never
    holds every atom.  The walk enters only subtrees that hold some S, so it
    makes no rank call.
    """
    full = (1 << n) - 1

    def members(mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (
            tuple(i for i in range(n) if mask >> i & 1),
            tuple(i for i in range(n) if not mask >> i & 1),
        )

    def visit(mask: int, last: int, alive: list[tuple[int, int]], rest: tuple[int, ...] | None):
        # Each interval in ``alive`` holds ``mask`` plus some atoms above ``last``;
        # ``rest`` is what ``start`` adds to ``mask``, or None once the walk is past it.
        if not rest and mask != full and any(not low & ~mask for low, _ in alive):
            yield members(mask)
        for j in range(last + 1, n):
            bit = 1 << j
            inside = [iv for iv in alive if iv[1] & bit]
            if inside and not (rest and j < rest[0]):
                yield from visit(mask | bit, j, inside, rest[1:] if rest and j == rest[0] else None)
            alive = [iv for iv in alive if not iv[0] & bit]
            if not alive:
                return

    yield from visit(1, 0, intervals, start[1:])


def _complement_pairs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield each unordered pair {S, complement} exactly once, in scan order.

    The empty/full pair comes first; after that the representatives are the
    subsets containing index 0, in lexicographic order, so the first failure
    reported by a scan is the lexicographically smallest witness.
    """
    atoms = range(n)
    yield (), tuple(atoms)
    stack: list[tuple[int, ...]] = [(0,)]
    while stack:
        s = stack.pop()
        if len(s) < n:
            yield s, tuple(filterfalse(set(s).__contains__, atoms))
        stack.extend([s + (j,) for j in range(n - 1, s[-1], -1)])


def _scan_budget(n: int, d: int) -> int:
    """Splits of the scan checked before the table is built.

    A frame that fails within the budget pays what the scan pays and never
    builds the table.  On random frames with d = 6 and 7 the budget costs
    about a third as much as the table, so a frame that holds pays about
    1.3 times the table.
    """
    return comb(n, d - 1) // 4 + 8


def _chunks(
    splits: Iterator[tuple[tuple[int, ...], tuple[int, ...]]], n: int, d: int
) -> Iterator[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Cut splits into lists of ``_FIRST_CHUNK``, then twice as many each time, up to the batch size."""
    limit = max(1, _BATCH_ENTRIES // (n * d))
    size = min(_FIRST_CHUNK, limit)
    while chunk := list(islice(splits, size)):
        yield chunk
        size = min(2 * size, limit)


def _budget_chunks(
    scan: Iterator[tuple[tuple[int, ...], tuple[int, ...]]], n: int, d: int
) -> Iterator[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Cut the scan's first ``_scan_budget`` splits into chunks, leaving ``scan`` just past them."""
    return _chunks(islice(scan, _scan_budget(n, d)), n, d)


def _table_chunks(
    v: np.ndarray, tol: float, rest: Iterator[tuple[tuple[int, ...], tuple[int, ...]]]
) -> Iterator[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Yield, in scan order and chunk by chunk, a superset of the splits of ``rest`` where neither side spans.

    ``rest`` is the scan past its budget.  The table is built only when
    the first chunk is asked for; the walk goes through its intervals, or
    through every split of ``rest`` when ``_hyperplane_table`` or
    ``_intervals`` refuses.
    """
    n, d = v.shape
    start = next(rest, None)
    if start is None:
        return
    table = _hyperplane_table(v, tol)
    intervals = None if table is None else _intervals(table)
    splits = chain([start], rest) if intervals is None else _walk(n, intervals, start[0])
    yield from _chunks(splits, n, d)


def _stacks(sides: list[tuple[int, ...]], least: int = 0) -> Iterator[tuple[list[int], np.ndarray]]:
    """Group the sides of at least ``least`` atoms by size.

    Yields each group's positions in ``sides`` and its (count, size) array of atom indices.
    """
    groups: dict[int, list[int]] = {}
    for i, side in enumerate(sides):
        if len(side) >= least:
            groups.setdefault(len(side), []).append(i)
    for members in groups.values():
        yield members, np.array([sides[i] for i in members], dtype=np.intp)


def _deficient(vs: np.ndarray, chunk: list[tuple[tuple[int, ...], tuple[int, ...]]], tol: float) -> list[bool]:
    """For each frame of the (k, n, d) stack and each split of the chunk, whether neither side spans.

    Returns k * len(chunk) flags, frame by frame.  Each split is decided
    as the scan decides it, one stacked SVD per side size: the smaller
    sides in every frame first (a spanning side settles the split), then
    the larger side of each split still open in its frame.
    """
    k, n, d = vs.shape
    m = len(chunk)
    small = [s if len(s) <= len(c) else c for s, c in chunk]
    big = [c if len(s) <= len(c) else s for s, c in chunk]
    spans = [False] * (k * m)
    for members, rows in _stacks(small, d):
        decided = full_column_rank(vs.take(rows, axis=1).reshape(-1, rows.shape[1], d), tol).tolist()
        for p, spanning in zip((i * m + j for i in range(k) for j in members), decided):
            spans[p] = spanning
    still = [p for p, spanning in enumerate(spans) if not spanning]
    atoms = vs.reshape(k * n, d)
    for members, rows in _stacks([big[p % m] for p in still], d):
        if k > 1:  # atom a of frame f is row f * n + a of the stacked atoms
            rows += n * np.array([still[q] // m for q in members])[:, None]
        for q, spanning in zip(members, full_column_rank(atoms.take(rows, axis=0), tol).tolist()):
            spans[still[q]] = spanning
    return [not spanning for spanning in spans]


def _lift_cutoff(n: int, d: int, tol: float) -> float:
    """The cutoff beta of ``_lifted_holds``: ``2 sqrt(n d) (tol + 8 n D eps)`` with D = d(d + 1)/2."""
    return 2.0 * sqrt(n * d) * (tol + 8 * n * (d * (d + 1) // 2) * np.finfo(float).eps)


@lru_cache(maxsize=None)
def _lift_columns(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lift's column pairs (a, b), a <= b, and their weights (1 when a = b, else sqrt 2), read-only."""
    a, b = np.triu_indices(d)
    weights = np.where(a == b, 1.0, sqrt(2.0))
    for column in (a, b, weights):
        column.setflags(write=False)
    return a, b, weights


def _lifted_holds(vs: np.ndarray, tol: float) -> np.ndarray:
    """For each frame of a (k, n, d) stack, whether its lifted symmetric map proves the complement property.

    The lift of a real frame is the n x D matrix L, D = d(d + 1)/2, whose
    row i holds phi_a^2 and sqrt(2) phi_a phi_b (a < b) of atom phi = phi_i.
    It is the map A(Q) = (phi_i^T Q phi_i)_i on symmetric d x d matrices Q
    written in an orthonormal basis, so ``|L q| = |A(Q)|`` and
    ``|q| = |Q|_F``.  A frame is certified when n >= D and
    ``sigma_min(L) > beta sigma_max(L)`` with ``beta = _lift_cutoff(n, d,
    tol)``; frames that are complex, have n < D, or get tol < 0 are not.
    A certified frame has no split the scan calls deficient, so the lift
    can only answer ``holds``.

    Proof.  Let M be the largest atom norm and eta = n D eps.  Assume that
    each computed singular value of an m x c matrix X is within eta |X|_2
    of the exact one, for m <= n and c <= D.  This is an assumption, not a
    theorem: LAPACK bounds that error by p(m, c) eps |X|_2 for a "modest
    polynomial" p it does not state, and the proof takes p = n D.  Take a
    split (S, S^c) the scan calls deficient.  A side of fewer than d atoms
    has a unit u with V_S u = 0; a larger one was computed with
    s_d <= tol s_1, so exactly sigma_d(V_S) <= t |V_S|_2 with
    t = tol + eta (1 + tol), and |V_S|_2 <= |V|_F <= sqrt(n) M.  So there
    are unit u and w with |V_S u| and |V_{S^c} w| both at most
    t sqrt(n) M.  Put Q = u w^T + w u^T.  Then A(Q)_i =
    2 <phi_i, u> <phi_i, w>, whose size is at most 2 M |<phi_i, u>| on S
    and 2 M |<phi_i, w>| on S^c, so |A(Q)| <= 2 sqrt(2) t sqrt(n) M^2,
    while |Q|_F^2 = 2 + 2 <u, w>^2 >= 2.  Hence sigma_min(L) <=
    2 t sqrt(n) M^2.  And sigma_max(L) >= |A(I)| / |I|_F >= M^2 / sqrt(d),
    so sigma_min(L) / sigma_max(L) <= 2 sqrt(n d) t.
    The computed test sees L plus the rounding of its entries (at most
    2 eps |L|_F <= 2 eps sqrt(n) M^2 <= 2 eta sigma_max(L)) and then
    LAPACK's error, so each computed singular value is within
    kappa sigma_max(L) of the exact one, kappa <= 3.2 eta.  A passing test
    gives sigma_min(L) / sigma_max(L) > beta (1 - kappa) - kappa.  It can
    pass only when beta < 1, so tol < 1/2, and then the rounding term
    8 eta of beta makes beta (1 - kappa) - kappa exceed 2 sqrt(n d) t,
    with room for the rounding of beta itself: no deficient split exists.

    Each frame is first scaled by a power of two, which is exact, so that
    its largest entry lies in [1/2, 1) and the squares neither overflow nor
    underflow.  One stacked SVD decides the whole stack.
    """
    k, n, d = vs.shape
    if vs.dtype.kind == "c" or n < d * (d + 1) // 2 or not tol >= 0:
        return np.zeros(k, dtype=bool)
    _, exponent = np.frexp(np.abs(vs).max(axis=(1, 2)))
    vs = np.ldexp(vs, -exponent[:, None, None])
    a, b, weights = _lift_columns(d)
    s = np.linalg.svd(vs[:, :, a] * vs[:, :, b] * weights, compute_uv=False)
    return s[:, -1] > _lift_cutoff(n, d, tol) * s[:, 0]


def _complement_holds(vs: np.ndarray, tol: float) -> np.ndarray:
    """For each frame of a real (k, n, d) stack, whether the complement property holds.

    Frames the lift certifies hold at once.  For the others, each chunk of
    the scan budget is decided at once for every frame still open, in
    blocks of frames that keep one stacked step within the batch size; a
    frame leaves at its first deficient chunk.  The frames still open
    after the budget go on one by one through the table, resuming past the
    budget, so no frame has a split decided twice.  Every decision is the
    one ``complement_property`` makes.
    """
    k, n, d = vs.shape
    holds = np.ones(k, dtype=bool)
    scanned = ~_lifted_holds(vs, tol)
    scan = _complement_pairs(n)
    for chunk in _budget_chunks(scan, n, d):
        live = np.flatnonzero(holds & scanned)
        if not len(live):
            return holds
        step = max(1, _BATCH_ENTRIES // (n * d * len(chunk)))
        for lo in range(0, len(live), step):
            block = live[lo : lo + step]
            holds[block] = ~np.reshape(_deficient(vs[block], chunk, tol), (len(block), -1)).any(axis=1)
    if next(scan, None) is None:
        return holds
    for i in np.flatnonzero(holds & scanned):
        rest = islice(_complement_pairs(n), _scan_budget(n, d), None)
        chunks = _table_chunks(vs[i], tol, rest)
        holds[i] = not any(any(_deficient(vs[i : i + 1], chunk, tol)) for chunk in chunks)
    return holds


def _deficient_chunks(
    frame: Frame, tol: float, cap: int, what: str
) -> Iterator[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Yield, chunk by chunk in scan order, the splits {S, complement} where neither side spans.

    The cap is checked first; then a frame the lift certifies has none.
    Otherwise the frame is a stack of one: the scan budget's chunks, then
    the table's, each decided by ``_deficient``.
    """
    n, d = frame.n_atoms, frame.dim
    if n > cap:
        raise EnumerationCapExceeded(
            f"{what} enumerates 2^(n-1) subsets and refuses for n = {n} > cap = {cap}"
        )
    v = frame.vectors
    if _lifted_holds(v[None], tol)[0]:
        return
    scan = _complement_pairs(n)
    for chunk in chain(_budget_chunks(scan, n, d), _table_chunks(v, tol, scan)):
        yield list(compress(chunk, _deficient(v[None], chunk, tol)))


def _deficient_splits(
    frame: Frame, tol: float, cap: int, what: str
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield, in scan order, every split {S, complement} where neither side spans."""
    return chain.from_iterable(_deficient_chunks(frame, tol, cap, what))


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
    side spanning.  ``alpha_restarts`` below 1 raises ValueError for every
    frame, before anything is certified.
    """
    if alpha_restarts < 1:
        raise ValueError("alpha restarts must be at least 1")
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
    alpha = alpha_certify(frame, restarts=alpha_restarts, iters=60, seed=seed).alpha
    return Certificate(
        verdict=INCONCLUSIVE,
        method="pr-alpha-estimate",
        field=frame.field,
        alpha_estimate=alpha,
    )


def _r_stack(frame: Frame) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a (k, d) array of vectors f to the (k, d, d) stack of their ``R(f)``."""
    v = frame.vectors
    rows, conj, weights = v.T, np.conj(v), frame.weights[:, None]

    def stack(fs: np.ndarray) -> np.ndarray:
        # conj(v) @ f for each f as its own column rounds as the one-vector
        # product does; fs @ conj(v).T rounds differently.
        scale = weights * np.abs(conj @ fs[:, :, None]) ** 2
        return hermitize((rows * scale.swapaxes(1, 2)) @ conj)

    return stack


def r_operator(frame: Frame, f: np.ndarray) -> RQuadraticForm:
    """The positive semidefinite operator weighting each projector by ``|<f, F(x_i)>|^2``."""
    f = np.asarray(f)
    if f.shape != (frame.dim,):
        raise ValueError(f"expected a vector of length {frame.dim}, got shape {f.shape}")
    return RQuadraticForm(f=f, matrix=_r_stack(frame)(f[None])[0])


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
    nonincreasing along every trace.  A restart stops after the first full
    step that lowers its value by less than ``tol``, or after ``iters``
    steps.  The returned alpha is the best value over all restarts, the
    first in restart order on a tie; zero pinpoints a flat direction.  Over
    R a positive alpha is numerical evidence for phase retrieval.  Over C
    it is not: alpha vanishes exactly when the complement property fails,
    so it adds nothing beyond that property.

    The restarts run together, in blocks that keep a stacked R step within
    the batch size.  Each block draws its starting vectors in restart order,
    and each half-step builds R for every restart of the block still
    running and takes one stacked ``eigh``.  A restart leaves its block at
    its own stopping test, so every trace equals the one the restart makes
    alone, value for value.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be at least 1")
    rng = np.random.default_rng(seed)
    complex_ = frame.field == "complex"
    d = frame.dim
    block = max(1, _BATCH_ENTRIES // (max(frame.n_atoms, d) * d))
    r_stack = _r_stack(frame)
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    traces: list[tuple[float, ...]] = []
    for lo in range(0, restarts, block):
        f = np.array([random_unit(rng, d, complex_) for _ in range(min(block, restarts - lo))])
        ends_f, ends_g = np.empty_like(f), np.empty_like(f)
        vals, g = eigmin_vectors(r_stack(f))
        block_traces = [[val] for val in vals.tolist()]
        rows = list(range(len(f)))  # the restart of each row of f and g
        for _ in range(iters):
            half, f = eigmin_vectors(r_stack(g))
            vals, g = eigmin_vectors(r_stack(f))
            going = []
            for i, a, b in zip(rows, half.tolist(), vals.tolist()):
                going.append(not block_traces[i][-1] - b < tol)
                block_traces[i] += a, b
            if not all(going):
                # Rows still going are written again when they stop.
                ends_f[rows], ends_g[rows] = f, g
                rows = list(compress(rows, going))
                f, g = f[going], g[going]
                if not rows:
                    break
        ends_f[rows], ends_g[rows] = f, g
        for trace, end_f, end_g in zip(block_traces, ends_f, ends_g):
            traces.append(tuple(trace))
            if best is None or trace[-1] < best[0]:
                best = (trace[-1], end_f, end_g)
    assert best is not None
    return AlphaResult(
        alpha=max(best[0], 0.0),
        argmin_f=best[1],
        argmin_g=best[2],
        traces=tuple(traces),
    )


def _null_spaces(v: np.ndarray, sides: list[tuple[int, ...]], tol: float) -> list[np.ndarray]:
    """The annihilator of each side's rows, one stacked SVD per side size."""
    bases: dict[int, np.ndarray] = {}
    for members, rows in _stacks(sides):
        bases.update(zip(members, null_spaces(v.take(rows, axis=0), tol)))
    return [bases[i] for i in range(len(sides))]


def norm_retrieval_certify(
    frame: Frame,
    tol: float = DEFAULT_ORTHO_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Certificate:
    """Certify norm retrieval over R via orthogonality of complementary null spaces.

    For every index subset, the annihilator of its rows must be orthogonal
    to the annihilator of the complement's rows.  A split where either side
    spans holds vacuously, so only the splits where neither side spans are
    tested, in scan order, and a frame that does phase retrieval holds with
    none tested.  The first failure is reported as the subset plus the
    offending unit null directions.
    """
    _require_real(frame, "norm retrieval certification")
    v = frame.vectors
    for chunk in _deficient_chunks(frame, rank_tol, cap, "norm retrieval certification"):
        bases = _null_spaces(v, [side for split in chunk for side in split], rank_tol)
        for (s, _), left, right in zip(chunk, bases[0::2], bases[1::2]):
            # Rank check and null-space SVD can split an exact tie differently.
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
