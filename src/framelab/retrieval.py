"""Exact certificates for phase retrieval and norm retrieval of finite frames.

Over the real field, phase retrieval is equivalent to the complement
property: every index subset or its complement must span the space.  Norm
retrieval holds exactly when, for every index subset, the null space of its
rows is orthogonal to the null space of the complement's rows; a split with
a spanning side satisfies both conditions.

A frame with n >= D atoms is first tested on its lift, the n x D matrix
of the map Q -> (phi_i^* Q phi_i)_i: on symmetric d x d matrices, D =
d(d + 1)/2, for a real frame, and on Hermitian ones, D = d^2, for a complex
frame.  When the lift's singular values clear a stated cutoff, no split
can have neither side spanning under the scan's rank test, so the
complement property, and norm retrieval with it for a real frame, hold
with no split visited; and the lift is injective, so the frame does phase
retrieval over either field.  ``_lifted_holds`` carries the proof and the
bound on LAPACK's rounding error that it assumes.
The lift can only answer ``holds``, and the atom cap is checked before it.
Frames it does not certify and frames with n < D go on to the splits,
save that norm retrieval first tries the identity test.

The identity test (``_identity_holds``) runs for norm retrieval after the
lift and before any split: one least-squares solve on the lift gives real
c with I close to sum_i c_i phi_i phi_i^*, and then |x|^2 = sum_i c_i
|<x, phi_i>|^2 up to the residual, so equal magnitudes force equal norms.
When t |V|_F sum_i |c_i| |phi_i| plus the residual, t the rank tolerance
plus rounding, is at most ``ortho_tol``, every split the walk would test
passes its overlap test, and the frame holds with method
``nr-identity-span`` and no split visited.  It settles a repeated
orthonormal basis, a tight frame and a product of tight frames, noisy or
not, and it can only answer ``holds``.

The spark stage (``_spark_holds``) runs in the driver, before any split:
a frame with n >= 2d - 1 atoms whose every d atoms span has a spanning
side on every split.  One ``det`` call on the C(n, d) d x d minors bounds
each minor's smallest singular value from below, and when every bound
clears the scan's rank test with its rounding, the frame holds with no
split visited and the scan's own method.  It runs when the minors fit in
``_WALK_ENTRIES`` entries, and it can only answer ``holds``.

Both are decided on the splits where neither side spans, visited in scan
order (the empty set first, then the subsets holding atom 0 in
lexicographic order), so each witness is the lexicographically smallest
one.  Visited splits are decided in chunks of 8, 16, 32, ... splits: the
smaller sides of a chunk, then the larger sides of the splits still open,
each group of equal-sized sides by one stacked SVD with the per-side cutoff
of ``numerical_rank``, so every decision is the scan's.  The scan's first
splits (``_scan_budget``) are visited before the hyperplane table is
built, so a frame that fails early never builds it.
After that only candidate splits are visited.  The table holds the frame's
distinct hyperplanes, the closures of its d - 1 independent atoms: at most
C(n, d - 1) of them, found with no SVD by a walk over the atom subsets that
keeps every atom projected onto the complement of the subset's span by
Householder reflections (``_hyperplanes``), in blocks of bounded size.  A
split has neither side spanning exactly when S lies in a hyperplane H1 and
its complement in a hyperplane H2, and then H1 and H2 together hold every
atom.  So the candidates come from the covering pairs, and only pairs with
|H1| + |H2| >= n are tested; with no covering pair there is no candidate
and both properties hold.  The table decides rank with a margin above the
tolerance, widened by a bound on its rounding: near the cutoff it lists
extra candidates, which the rank check drops, and never misses one.  Every
split is visited only when the frame does not span with the margin.  Past
the scan's first splits, the table's walk and that full scan resume alike:
each is read from its start, and its splits before the first one past the
budget are dropped undecided.  The atom count is capped.
The reference scan that checks every split, and independent brute-force
references, live with the tests.

The lift, the identity test, the spark stage and the table scale each
frame by a power of two, exactly, with ``_linalg.scaled``, so that no norm
or square overflows or underflows to zero, and each of their ranks, like
the scan's, is counted by ``_linalg.ranks``: the singular values above
``tol * sigma_max``.  The lift's cutoff, the identity test's bound, the spark
stage's bound, and the table's margin and membership test are other rules.

Both properties, and a stability sweep, are decided by one driver over a
stack of frames with the same atom count; a single frame is the stack of
one, and the perturbed frames of a sweep form stacks.  Each caller first
runs the lift on its whole stack, in one stacked SVD, and hands the driver
the frames the lift leaves open.  The spark stage decides the whole stack,
in blocks of frames.  Each chunk of the scan budget is then decided at once
for every frame still open, and the frames still open after the budget go
on frame by frame through the table, from the first split past the budget.
Each certifier hands the driver its test of one frame's deficient splits,
and a frame leaves at its first failure, so every verdict is the one the
frame gets alone.

Over the complex field the complement property is only necessary: its
failure certifies a phase retrieval failure.  A complex frame whose
Hermitian lift is injective does phase retrieval (Bandeira, Cahill, Mixon
and Nelson, "Saving phase", 2014); one that neither the lift certifies nor
the complement property fails is ``inconclusive``.  The null-space
criterion of norm retrieval is a real-field result, so a complex frame's
norm retrieval is decided by the identity test on its Hermitian lift
alone: it holds when the test passes and is ``inconclusive`` otherwise.
There no null direction enters the proof, so the test drops its term
t |V|_F sum_i |c_i| |phi_i| and bounds the residual alone, with its
rounding.

The lower-bound functional ``alpha`` is its own computation, and no
certificate rests on it.  It is estimated by alternating minimization
from several random starts.  The restarts run together, in blocks that
keep a stacked step within the batch size: each half-step builds R(f) for
every restart of the block still running and takes one stacked ``eigh``,
and a restart leaves the block at its own stopping test.  Every trace, and
so the estimate and its minimizers, equals the one of the restarts run
one after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, dropwhile, filterfalse, islice
from math import comb, sqrt
from typing import Any, Callable, Iterator

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
    random_units,
    ranks,
    scaled,
)
from .errors import EnumerationCapExceeded
from .frames import Frame

__all__ = [
    "HOLDS",
    "FAILS",
    "INCONCLUSIVE",
    "Certificate",
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

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


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


# A split {S, complement} of the atom indices, S first.
_Split = tuple[tuple[int, ...], tuple[int, ...]]
# Float entries per batched step: stacks of small matrices are cut to this size.
_BATCH_ENTRIES = 1 << 12
# Splits decided together at first; later chunks double, up to the batch size.
_FIRST_CHUNK = 8
# The table's rank decisions are this many times looser than the scan's, so
# near the cutoff it lists more candidate splits, never fewer; every candidate
# is then decided with ``numerical_rank``'s cutoff, as the scan decides it.
_TABLE_MARGIN = 1e3
# Projected entries the hyperplane walk expands at a time, per level of its subset tree.
_WALK_ENTRIES = 1 << 15
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _blocks(sizes: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """Cut the items into runs [lo, hi) whose sizes sum to at most ``limit``, each run at least one item."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + limit, side="right")))
        yield lo, hi
        lo = hi


def _hyperplanes(v: np.ndarray, tol: float) -> np.ndarray:
    """The closures of the independent (d - 1)-subsets of rows, d >= 2, packed as bits.

    The walk.  A (d - 1)-subset T is a prefix of d - 2 atoms and a last
    atom j after them.  The prefixes are grown one atom at a time, one
    level of the subset tree after another, for a block of nodes at once,
    so that no more than about ``_WALK_ENTRIES`` projected entries are held
    per level.  Each node keeps every atom projected onto the orthogonal
    complement of its prefix's span: adding an atom x to the prefix is one
    Householder reflection taking x onto the first axis, whose other axes
    are the new complement.  The norm p of x there, its pivot, is its
    distance to the prefix's span.  At depth d - 2 the atoms are points in
    R^2 or C^2, and atom i lies at distance |p_j x p_i| / |p_j| from the
    hyperplane through the prefix and atom j.

    The cutoffs.  The rules the table stands for are those of one SVD per
    subset T (``hyperplane_table_reference`` in the tests): T is
    independent when sigma_min(T) > tol sigma_max(T), and atom i lies in
    its closure when its distance is at most M tol max(sigma_max(T),
    |v_i|), M = ``_TABLE_MARGIN``.  Assume that the computed pivots and
    points are exact for atoms each moved by at most eta |a|, eta = d^2
    eps, which is the backward error bound of d - 2 Householder
    reflections in dimension d with its unstated constant taken as 2, and
    that LAPACK's SVD of T is exact for a matrix within eta sigma_max(T)
    of T; like the lift's, this assumption is not a theorem.  Let F =
    |V_T|_F.  The pivots of the moved atoms bound their sigma_min from
    above, and so, within eta F, those of the atoms, while sigma_max(T)
    lies between the largest atom norm of T and F.  sigma_min only shrinks
    and sigma_max only grows as atoms join, so a prefix, and every subset
    grown from it, is dropped only when its new pivot plus eta F is at
    most (tol (1 - eta) - eta) times its largest atom norm, or is zero:
    the SVD rules call each such subset dependent.  At a leaf, sigma_lo
    bounds sigma_min from below: the larger of the least pivot minus the
    Frobenius norm of the triangular factor's off-diagonal part, (F^2 -
    sum p^2)^(1/2) (Weyl), and prod p / (F^2 / (d - 2))^((d - 2) / 2),
    since prod p = prod sigma and the other d - 2 singular values have
    squares summing to at most F^2.  With kappa = F / sigma_lo, the span of
    the moved atoms and the one LAPACK's SVD sees lie within an angle of 2
    eta kappa of each other, so a distance computed either way lies within
    2 eta (kappa + 1) |v_i| of the other.  An atom is listed when its
    distance is at most M tol (1 + eta) max(F, |v_i|) plus that error, and
    the subset's own atoms always are.  So each closure under the SVD rules
    lies in this table's row of the same T: the table may list extra atoms
    and rows, never miss one.
    """
    n, d = v.shape
    norms = np.linalg.norm(v, axis=1)
    packed: list[np.ndarray] = []
    eta = d * d * _EPS
    high_cut = _TABLE_MARGIN * tol * (1 + eta)
    floor = tol * (1 - eta) - eta
    atoms = np.arange(n)

    def grow(proj, last, inside, stats, k):
        # A block of nodes with prefixes of k atoms: their projected atoms, last atoms, prefix
        # masks, and per node F^2, the largest atom norm, and the sum of squares, least and
        # product of the pivots.
        leaf = k == d - 2
        valid = (atoms > last[:, None]) & (atoms <= (n - 1 if leaf else n - d + 1 + k))
        for lo, hi in _blocks(valid.sum(axis=1) * (n * (d - k)), _WALK_ENTRIES):
            b, j = np.nonzero(valid[lo:hi])
            b += lo
            x, a, (f2, top, low2, least, prod) = proj[b, j], norms[j], stats[b].T
            px = np.sqrt(np.einsum("ij,ij->i", x, x.conj()).real)
            f2, top = f2 + a * a, np.maximum(top, a)
            f = np.sqrt(f2)
            alive = (px > 0) & (px + eta * f > floor * top)
            if not alive.all():
                if not alive.any():
                    continue
                b, j, x, px, f2, top, f, low2, least, prod = (
                    z[alive] for z in (b, j, x, px, f2, top, f, low2, least, prod)
                )
            low2, least, prod = low2 + px * px, np.minimum(least, px), prod * px
            y, own = proj[b], inside[b]
            own[np.arange(len(b)), j] = True
            if not leaf:
                # The reflection I - 2 w w^H / |w|^2 with w = x + |x| (x_0 / |x_0|) e_1 maps x onto the
                # first axis; |w|^2 = 2 |x| (|x| + |x_0|), and w equals x past the first axis.
                x0 = x[:, 0]
                ax0 = np.abs(x0)
                phase = np.where(ax0 > 0, x0 / np.where(ax0 > 0, ax0, 1.0), 1.0)
                coef = np.einsum("cnm,cm->cn", y, x.conj()) + (px * phase.conj())[:, None] * y[:, :, 0]
                y[:, :, 1:] -= (coef / (px * (px + ax0))[:, None])[:, :, None] * x[:, None, 1:]
                grow(y[:, :, 1:], j, own, np.column_stack([f2, top, low2, least, prod]), k + 1)
                continue
            g2 = f2 * (1 + eta) ** 2
            weyl = least - np.sqrt(np.maximum(g2 - low2, 0.0) + 2 * d * _EPS * g2)
            det = prod / np.maximum((g2 / max(k, 1)) ** (k / 2), _TINY)
            sigma = np.minimum(np.maximum(weyl, det), least) * (1 - eta)
            kappa = f / np.maximum(sigma - eta * f, eta * f)
            cross = np.abs(x[:, :1] * y[:, :, 1] - x[:, 1:] * y[:, :, 0])
            allow = px[:, None] * (2 * eta) * (kappa + 1)[:, None] * norms
            high = px[:, None] * np.maximum(f[:, None], norms)
            packed.append(np.packbits(own | (cross <= high_cut * high + allow), axis=1, bitorder="little"))

    root = np.array([[0.0, 0.0, 0.0, np.inf, 1.0]])
    grow(v[None], np.array([-1]), np.zeros((1, n), dtype=bool), root, 0)
    return np.concatenate(packed) if packed else np.zeros((0, (n + 7) // 8), dtype=np.uint8)


def _hyperplane_table(v: np.ndarray, tol: float) -> np.ndarray | None:
    """The frame's distinct hyperplanes, as boolean rows, with the table's margin.

    A hyperplane is the closure of d - 1 independent atoms, so there are at
    most C(n, d - 1) of them; ``_hyperplanes`` finds them with no SVD.
    With d = 1 the one hyperplane is the zero space, which holds the zero
    atoms.  Returns None when the frame does not span with the margin.  The
    frame is first scaled by a power of two, so that no atom norm
    overflows.
    """
    v, _ = scaled(v)
    if numerical_rank(v, _TABLE_MARGIN * tol) < v.shape[1]:
        return None
    n, d = v.shape
    if d == 1:
        norms = np.abs(v[:, 0])
        return (norms <= _TABLE_MARGIN * tol * norms)[None]
    packed = _hyperplanes(v, tol)
    packed = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel()).view(np.uint8)
    rows = np.unpackbits(packed.reshape(-1, (n + 7) // 8), axis=1, count=n, bitorder="little")
    return rows.astype(bool)


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


def _intervals(table: np.ndarray) -> list[tuple[int, int]]:
    """The intervals [atoms minus H2, H1] over pairs of table hyperplanes with H1 | H2 = atoms.

    A subset S holding atom 0 has neither side spanning exactly when it
    lies in such an interval with atom 0 in H1.  A covering pair has
    |H1| + |H2| >= n, so only those pairs are tested.
    """
    n = table.shape[1]
    sizes = table.sum(axis=1)
    holders = table[:, 0]
    intervals: list[tuple[int, int]] = []
    for s in np.unique(sizes[holders]):
        h1, h2 = table[holders & (sizes == s)], table[sizes >= n - s]
        if len(h2):
            i, j = _covering(h1, h2).T
            intervals += zip(_bitmasks(~h2[j]), _bitmasks(h1[i]))
    return intervals


def _walk(n: int, intervals: list[tuple[int, int]]) -> Iterator[_Split]:
    """Yield the splits {S, complement} in scan order, S in the union of the intervals.

    Each interval [low, high] is a pair of bitmasks holding atom 0; S never
    holds every atom.  The walk enters only subtrees that hold some S, so it
    makes no rank call.
    """
    full = (1 << n) - 1

    def visit(s: tuple[int, ...], mask: int, alive: list[tuple[int, int]]):
        # ``mask`` has the bits of ``s``; each interval in ``alive`` holds s plus some atoms above s[-1].
        if mask != full and any(not low & ~mask for low, _ in alive):
            yield s, tuple(filterfalse(set(s).__contains__, range(n)))
        for j in range(s[-1] + 1, n):
            bit = 1 << j
            inside = [iv for iv in alive if iv[1] & bit]
            if inside:
                yield from visit(s + (j,), mask | bit, inside)
            alive = [iv for iv in alive if not iv[0] & bit]
            if not alive:
                return

    yield from visit((0,), 1, intervals)


def _complement_pairs(n: int) -> Iterator[_Split]:
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
    builds the table; a frame that holds pays for both.  On frames
    ``gen_random(d, n, seed=0)`` that hold, timed in-process (best of five,
    four runs, a 2-vCPU Xeon, numpy 2.4), the budget cost 0.43 to 0.75 times
    the certification with a budget of 0 (real d = 4, n = 8 and d = 6,
    n = 12) and 0.68 to 0.98 times it (complex d = 3, n = 7 and d = 4,
    n = 11), so such a frame pays 1.4 to 2 times what it pays with no budget.
    Frames whose d-subsets all span clearly, with n >= 2d - 1 and their
    minors within ``_spark_holds``' bound, now hold before the budget: all
    of those but real d = 6, n = 12, whose C(12, 6) minors exceed it.
    """
    return comb(n, d - 1) // 32 + 16


def _chunks(splits: Iterator[_Split], n: int, d: int) -> Iterator[list[_Split]]:
    """Cut splits into lists of ``_FIRST_CHUNK``, then twice as many each time, up to the batch size."""
    limit = max(1, _BATCH_ENTRIES // (n * d))
    size = min(_FIRST_CHUNK, limit)
    while chunk := list(islice(splits, size)):
        yield chunk
        size = min(2 * size, limit)


def _table_chunks(v: np.ndarray, tol: float, start: tuple[int, ...]) -> Iterator[list[_Split]]:
    """Yield, in scan order and chunk by chunk, a superset of the splits from S = ``start`` on where neither side spans.

    The table is built only when the first chunk is asked for; the splits
    come from the walk through its intervals, or from every split when
    ``_hyperplane_table`` refuses.  Either source resumes at ``start`` the
    same way: scan order is tuple order, so the splits kept are those
    whose S is not below ``start``, and none before it is decided.
    """
    n, d = v.shape
    table = _hyperplane_table(v, tol)
    splits = _complement_pairs(n) if table is None else _walk(n, _intervals(table))
    yield from _chunks(dropwhile(lambda split: split[0] < start, splits), n, d)


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


def _deficient(vs: np.ndarray, chunk: list[_Split], tol: float) -> list[list[bool]]:
    """For each frame of the (k, n, d) stack and each split of the chunk, whether neither side spans.

    Returns one list of flags per frame.  Each split is decided
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
    return [[not spanning for spanning in spans[i * m : (i + 1) * m]] for i in range(k)]


def _lift_width(d: int, complex_: bool) -> int:
    """The lift's column count D: d(d + 1)/2 for a real frame, d^2 for a complex one."""
    return d * d if complex_ else d * (d + 1) // 2


def _lift_cutoff(n: int, d: int, tol: float, complex_: bool = False) -> float:
    """The cutoff beta of ``_lifted_holds``: ``2 sqrt(n d) (tol + 8 n D eps)`` with D = ``_lift_width(d, complex_)``."""
    return 2.0 * sqrt(n * d) * (tol + 8 * n * _lift_width(d, complex_) * np.finfo(float).eps)


@lru_cache(maxsize=None)
def _lift_columns(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lift's column pairs (a, b), a <= b, their weights (1 when a = b, else sqrt 2), and the positions with a < b, read-only."""
    a, b = np.triu_indices(d)
    weights = np.where(a == b, 1.0, sqrt(2.0))
    off = np.flatnonzero(a < b)
    for column in (a, b, weights, off):
        column.setflags(write=False)
    return a, b, weights, off


def _lift(vs: np.ndarray) -> np.ndarray:
    """The lift of each frame of a (k, n, d) stack: the (k, n, D) matrices of Q -> (phi_i^* Q phi_i)_i in an orthonormal basis.

    Row i of a real frame's lift holds phi_a^2 and sqrt(2) phi_a phi_b
    (a < b), the map on symmetric Q in the basis E_aa, (E_ab + E_ba) /
    sqrt(2).  Row i of a complex frame's lift holds |phi_a|^2, then
    sqrt(2) Re(conj(phi_a) phi_b) and -sqrt(2) Im(conj(phi_a) phi_b)
    (a < b), the map on Hermitian Q in the basis E_aa, (E_ab + E_ba) /
    sqrt(2), i (E_ab - E_ba) / sqrt(2).
    """
    a, b, weights, off = _lift_columns(vs.shape[2])
    if vs.dtype.kind != "c":
        return vs[:, :, a] * vs[:, :, b] * weights
    z = vs[:, :, a].conj() * vs[:, :, b] * weights
    return np.concatenate([z.real, -z.imag[:, :, off]], axis=2)


def _lifted_holds(vs: np.ndarray, tol: float) -> np.ndarray:
    """For each frame of a (k, n, d) stack, whether its lift proves the complement property and phase retrieval.

    The lift L is the n x D matrix of the map A(Q) = (phi_i^* Q phi_i)_i
    written in an orthonormal basis (``_lift``), so ``|L q| = |A(Q)|`` and
    ``|q| = |Q|_F``.  For a real frame Q runs over the symmetric d x d
    matrices, D = d(d + 1)/2; for a complex frame over the Hermitian ones,
    D = d^2, a real space with the inner product tr(P Q).  A frame is
    certified when n >= D and ``sigma_min(L) > beta sigma_max(L)`` with
    ``beta = _lift_cutoff(n, d, tol, complex_)``; frames with n < D, or
    any frame given tol < 0, are not.  A certified frame has no split the
    scan calls deficient, so the lift can only answer ``holds``.  Its
    exact L has sigma_min(L) > 0 as well, by the bound below, so the frame
    does phase retrieval: |<x, phi_i>| = |<y, phi_i>| on every atom puts
    x x^* - y y^* in the kernel of A, so x x^* = y y^*, and x is y times a
    unimodular number (Bandeira, Cahill, Mixon and Nelson, "Saving phase",
    2014).

    Proof.  Let M be the largest atom norm and eta = n D eps.  Assume that
    each computed singular value of an m x c matrix X, real or complex, is
    within eta |X|_2 of the exact one, for m <= n and c <= D.  This is an
    assumption, not a theorem: LAPACK bounds that error by p(m, c) eps |X|_2
    for a "modest polynomial" p it does not state, and the proof takes
    p = n D.  Take a split (S, S^c) the scan calls deficient.  A side of
    fewer than d atoms has a unit u with V_S u = 0; a larger one was
    computed with s_d <= tol s_1, so exactly sigma_d(V_S) <= t |V_S|_2 with
    t = tol + eta (1 + tol), and |V_S|_2 <= |V|_F <= sqrt(n) M.  So there
    are unit u and w with |V_S u| and |V_{S^c} w| both at most
    t sqrt(n) M.  Put p = conj(u) and q = c conj(w), with |c| = 1 chosen so
    that q^* p is real (c = 1 for a real frame), and Q = p q^* + q p^*,
    which is Hermitian.  Entry i of V_S u is phi_i^T u, whose size is
    |phi_i^* p|, and likewise for w and q.  Then A(Q)_i =
    2 Re((phi_i^* p)(q^* phi_i)), whose size is at most 2 M |phi_i^T u| on
    S and 2 M |phi_i^T w| on S^c, so |A(Q)| <= 2 sqrt(2) t sqrt(n) M^2,
    while |Q|_F^2 = 2 + 2 Re((q^* p)^2) = 2 + 2 |q^* p|^2 >= 2.  Hence
    sigma_min(L) <= 2 t sqrt(n) M^2, as n >= D.  And sigma_max(L) >=
    |A(I)| / |I|_F >= M^2 / sqrt(d), so sigma_min(L) / sigma_max(L) <=
    2 sqrt(n d) t.
    The computed test sees L plus the rounding of its entries and then
    LAPACK's error.  Each entry is computed within 4 eps of its exact
    value relative to |phi_a|^2 on a column with a = b and to
    sqrt(2) |phi_a| |phi_b| on one with a < b.  Along row i these bounds
    have squares summing to at most 2 |phi_i|^4, so the rounding is at
    most 4 sqrt(2) eps sqrt(n) M^2 <= 4 sqrt(2) eps sqrt(n d) sigma_max(L)
    <= 2 eta sigma_max(L), since sqrt(n d) <= n and D >= 3 when d >= 2;
    at d = 1 the one column, |phi|^2, is within 2 eps of it, and the
    rounding is at most 2 eps sqrt(n) M^2 <= 2 eta sigma_max(L) again.  So
    each computed singular value is within kappa sigma_max(L) of the exact
    one, kappa <= 3.2 eta.  A passing test gives sigma_min(L) /
    sigma_max(L) > beta (1 - kappa) - kappa.  It can pass only when
    beta < 1, so tol < 1/2, and then the rounding term 8 eta of beta makes
    beta (1 - kappa) - kappa exceed 2 sqrt(n d) t, with room for the
    rounding of beta itself: no deficient split exists.

    Each frame is first scaled by a power of two, which is exact, so that
    its largest entry lies in [1/2, 1) and the squares neither overflow nor
    underflow.  One stacked SVD decides the whole stack.
    """
    k, n, d = vs.shape
    complex_ = vs.dtype.kind == "c"
    if n < _lift_width(d, complex_) or not tol >= 0:
        return np.zeros(k, dtype=bool)
    s = np.linalg.svd(_lift(scaled(vs)[0]), compute_uv=False)
    return s[:, -1] > _lift_cutoff(n, d, tol, complex_) * s[:, 0]


@lru_cache(maxsize=None)
def _d_subsets(n: int, d: int) -> np.ndarray:
    """The d-subsets of n atoms in lexicographic order, as a read-only (C(n, d), d) index array."""
    subsets = np.array(list(combinations(range(n), d)), dtype=np.intp).reshape(-1, d)
    subsets.setflags(write=False)
    return subsets


def _spark_bounds(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a scaled (k, n, d) stack, lower bounds on sigma_min(V_R) for each d-subset R, (k, C(n, d)), and each |V|_F.

    ``_spark_holds`` states the bound and what it charges.
    """
    k, n, d = w.shape
    subsets = _d_subsets(n, d)
    squares = np.einsum("knd,knd->kn", w, w.conj()).real
    frob = np.sqrt(squares.sum(axis=1))
    det = np.abs(np.linalg.det(w[:, subsets]))
    spread = (squares[:, subsets].sum(axis=2) / max(d - 1, 1)) ** ((d - 1) / 2)
    xi = 8 * d**3 * 3.0 ** (d - 1) * _EPS
    zeta = (d * (3 * d * d + 740) + n) * _EPS + d * xi
    ratio = np.where(det >= _TINY, det, 0.0) / np.maximum(spread, _TINY)
    return ratio / (1 + zeta) - xi * frob[:, None], frob


def _spark_holds(vs: np.ndarray, tol: float) -> np.ndarray:
    """For each frame of a (k, n, d) stack, whether its d-subsets prove the complement property.

    A frame with n >= 2d - 1 atoms whose every d atoms span has the
    complement property, since every split has a side of at least d atoms
    (Balan, Casazza and Edidin, 2006; Alexeev, Cahill and Mixon, "Full
    spark frames", 2012).  The stage decides a frame only when n >= 2d - 1,
    tol >= 0 and its C(n, d) stacked d x d minors hold at most
    ``_WALK_ENTRIES`` entries; any other frame is not certified.  It
    certifies a frame when, for every d-subset R, the bound below on
    sigma_min(V_R) exceeds t |V|_F, t = tol + eta (1 + tol).  A certified
    frame has no split the scan calls deficient, so the stage can only
    answer ``holds``, and its verdict is the scan's.

    Proof.  Assume, as ``_lifted_holds`` does with p = n d, that each
    computed singular value of an m x d matrix X, m <= n, is within eta
    |X|_2 of the exact one, eta = n d eps.  Every split has a side T of at
    least d atoms, the larger, which the scan tests whenever the smaller
    does not span.  T holds a d-subset R, so sigma_d(V_T) >= sigma_min(V_R)
    (rows added never lower a singular value), and |V_T|_2 <= |V|_F.  So
    the computed s_d of V_T exceeds (t - eta) |V_T|_2 = tol (1 + eta)
    |V_T|_2 >= tol s_1: the scan's own rank test calls T spanning, and no
    split is deficient.

    The bound.  A d x d matrix A has |det A| equal to the product of its
    singular values, and the d - 1 largest have squares summing to at most
    |A|_F^2, so sigma_min(A) >= |det A| / (|A|_F^2 / (d - 1))^((d - 1) / 2)
    (the mean of squares bounds their product; the divisor is 1 when
    d = 1).  ``np.linalg.det`` factors A by LU with partial pivoting, and
    the factors are exact for A + E with |E|_F <= xi |A|_F, xi = 8 d^3
    3^(d - 1) eps: |E| <= gamma_d |L| |U| entrywise (Higham, "Accuracy and
    Stability of Numerical Algorithms", Theorem 9.3), pivoting bounds |L| by
    1, or by sqrt 2 where LAPACK's complex pivot is the largest |Re| + |Im|,
    and the growth by 2^(d - 1), or (1 + sqrt 2)^(d - 1); the constant 8
    covers complex arithmetic and the rounding of |V|_F.  So sigma_min(A)
    >= |det(A + E)| / ((1 + xi)^(d - 1) (|A|_F^2 / (d - 1))^((d - 1) / 2))
    - xi |V|_F.  numpy forms det(A + E) as the exponential of the sum of
    log |u_ii|.  Each |u_ii| is below 3^(d - 1), as every entry is below 1
    in modulus after scaling, and a det below the least normal float is
    taken as 0, so |log det| <= 709 and the sum of |log |u_ii|| is at most
    2.2 d^2 + 710: the computed det is within d (2.3 d^2 + 720) eps of
    det(A + E), relatively.  The bound divides by 1 + zeta, zeta = (d (3
    d^2 + 740) + n) eps + d xi, which covers that error, (1 + xi)^(d - 1),
    the rounding of the denominator and of |V|_F, and the test's own
    arithmetic.  A denominator below the least normal float is raised to
    it, which only lowers the bound.

    Each frame is first scaled by a power of two (``scaled``), exactly, so
    that no square overflows or underflows.  The minors of a block of
    frames, at most ``_WALK_ENTRIES`` entries and at least one frame, are
    gathered through the cached d-subsets and decided by one ``det`` call.
    """
    k, n, d = vs.shape
    held = np.zeros(k, dtype=bool)
    entries = comb(n, d) * d * d
    if n < 2 * d - 1 or not tol >= 0 or entries > _WALK_ENTRIES:
        return held
    t = tol + n * d * _EPS * (1 + tol)
    step = _WALK_ENTRIES // entries
    for lo in range(0, k, step):
        bounds, frob = _spark_bounds(scaled(vs[lo : lo + step])[0])
        held[lo : lo + step] = bounds.min(axis=1) > t * frob
    return held


# The identity test's solve drops the lift's singular values at most this many times the largest.
_IDENTITY_CUTOFF = 1e-10


def _identity_holds(v: np.ndarray, rank_tol: float, ortho_tol: float) -> bool:
    """Whether I = sum_i c_i phi_i phi_i^*, up to a small residual, proves norm retrieval at ``ortho_tol``.

    If I = sum_i c_i phi_i phi_i^* exactly, then |x|^2 = sum_i c_i
    |<x, phi_i>|^2, so equal magnitudes force equal norms (Bahmanpour,
    Cahill, Casazza, Jasper and Woodland, "Phase retrieval and norm
    retrieval", 2014).  The real coefficients c come from one least-squares
    solve of L^T c = vec(I) on the frame's lift L (``_lift``), symmetric for
    a real frame and Hermitian for a complex one, with singular values at
    most ``_IDENTITY_CUTOFF`` times the largest dropped.  The lift's basis
    is orthonormal, so the residual E = I - sum_i c_i phi_i phi_i^* has
    |E|_F = |L^T c - vec(I)|.  The proof holds for any real c: it bounds E
    through the residual it computes and charges every |c_i| in full, so
    which directions the solve kept never enters it, and the test refuses
    only negative tolerances.  It can only answer ``holds``, and does when,
    with r the computed residual, M the largest atom norm, D the lift's
    width, eta = n D eps, rho = 2 (n + D + 8) eps, and t = tol + eta (1 +
    tol) for a real frame and t = 0 for a complex one,

        (t |V|_F sum_i |c_i| |phi_i| + |c|_1 M^2 rho + r + rho (r + sqrt(d)) + (d + 1) eps) (1 + 3 eta + rho) <= ortho_tol.

    Proof, real frame.  Assume, as ``_lifted_holds`` does with p = n D,
    that LAPACK's SVD of an m x d matrix X, m <= n, is exact for a matrix
    within eta |X|_2 of X, and that its singular vectors are within eta of
    unit norm.  A column x that the walk (``_nr_failure``) takes for the
    null space of the rows V_S has a computed singular value at most tol
    times the largest, or none, so |V_S x| <= t |V_S|_2 |x| <= t |V|_F |x|;
    likewise a column y for S^c.  Now x^T y = x^T I y = sum_i c_i (phi_i^T
    x)(phi_i^T y) + x^T E y.  For i in S, |phi_i^T x| <= |V_S x| and
    |phi_i^T y| <= |phi_i| |y|; for i in S^c the roles swap.  So |x^T y| <=
    |x| |y| (t |V|_F sum_i |c_i| |phi_i| + |E|_F).  The exact |E|_F exceeds
    r by little: the lift's entries are within 4 eps of exact
    (``_lifted_holds``), so row i is off by at most 4 sqrt(2) eps
    |phi_i|^2; forming L^T c - vec(I) rounds each entry by at most (n + 2)
    eps times that of |L|^T |c| + vec(I), whose norm is at most |c|_1 M^2 +
    sqrt(d); and the norm rounds by (D + 2) eps.  So |E|_F <= r + (rho / 2)
    (|c|_1 M^2 + r + sqrt(d)), and the other half of rho there covers the
    rounding of |c|_1 and M.  The rho of the last factor covers the rest:
    |V|_F and sum_i |c_i| |phi_i| are formed from the computed atom norms,
    so their product with t is within (3 n / 2 + d + 10) eps of exact,
    relatively, and the test's own sums and products add 7 eps, at most rho
    in all.  The walk's computed entry of L^T R is within (d + 1) eps |x|
    |y| of x^T y, and |x| |y| <= (1 + eta)^2 <= 1 + 3 eta.  So every entry
    the walk would compute, on every split it would test, is at most
    ``ortho_tol``: the walk's verdict is ``holds``, the one this test gives
    with no split visited.

    Complex frame.  Here ``holds`` means |f|^2 - |g|^2 is at most
    ``ortho_tol`` (|f|^2 + |g|^2) in size whenever |<f, phi_i>| = |<g,
    phi_i>| on every atom.  Such f and g have |f|^2 - |g|^2 = sum_i c_i
    (|<f, phi_i>|^2 - |<g, phi_i>|^2) + f^* E f - g^* E g = f^* E f - g^* E
    g, at most |E|_F (|f|^2 + |g|^2).  No null direction enters, so the
    test takes t = 0, and |E|_F lies below its left side, as above.

    The frame is first scaled by a power of two (``scaled``), exactly: c
    scales inversely to M^2, so neither E nor the bound changes.
    """
    n, d = v.shape
    if not (rank_tol >= 0 and ortho_tol >= 0):
        return False
    v, _ = scaled(v)
    lift = _lift(v[None])[0]
    width = lift.shape[1]
    a, b, _, _ = _lift_columns(d)
    identity = np.zeros(width)
    identity[: len(a)] = a == b
    c = np.linalg.lstsq(lift.T, identity, rcond=_IDENTITY_CUTOFF)[0]
    residual = float(np.linalg.norm(lift.T @ c - identity))
    norms, weights = np.linalg.norm(v, axis=1), np.abs(c)
    mass = float(weights.sum()) * float(norms.max()) ** 2
    eta = n * width * _EPS
    rho = 2 * (n + width + 8) * _EPS
    t = rank_tol + eta * (1 + rank_tol) if v.dtype.kind != "c" else 0.0
    null = t * sqrt(float(norms @ norms)) * float(weights @ norms)
    bound = null + mass * rho + residual + rho * (residual + sqrt(d)) + (d + 1) * _EPS
    return bound * (1 + 3 * eta + rho) <= ortho_tol


def _first_failures(vs: np.ndarray, tol: float, fails: Callable[[np.ndarray, list[_Split]], Any]) -> list[Any]:
    """For each frame of a (k, n, d) stack, the first finding of ``fails`` on its deficient splits, or None.

    ``fails(v, splits)`` gets one frame's splits where neither side spans,
    those of one chunk in scan order, and returns a finding or None; a frame
    leaves at its first finding.  The driver runs no lift: the certifiers
    run ``_lifted_holds`` first and pass only the frames it leaves open.
    The driver first runs ``_spark_holds`` on the whole stack: a frame it
    certifies has no deficient split, so it gets None with no split
    decided and ``fails`` never called.  Each chunk of the scan budget is
    then decided at once for every frame still open, in blocks of frames
    that keep one stacked step within the batch size.  The frames still
    open then go on one by one through the table from the first split past
    the budget, so no split of a frame is decided twice, and every frame
    gets the findings it gets alone.
    """
    k, n, d = vs.shape
    found: list[Any] = [None] * k
    open_ = ~_spark_holds(vs, tol)
    scan = _complement_pairs(n)
    chunks = _chunks(islice(scan, _scan_budget(n, d)), n, d)
    while len(live := np.flatnonzero(open_)) and (chunk := next(chunks, None)) is not None:
        step = max(1, _BATCH_ENTRIES // (n * d * len(chunk)))
        for lo in range(0, len(live), step):
            block = live[lo : lo + step]
            for i, row in zip(block.tolist(), _deficient(vs[block], chunk, tol)):
                if any(row):
                    found[i] = fails(vs[i], list(compress(chunk, row)))
                    open_[i] = found[i] is None
    # A frame still open went through the whole budget, which left ``scan`` just past it.
    start = next(scan, None)
    if start is None:
        return found
    for i in np.flatnonzero(open_).tolist():
        for chunk in _table_chunks(vs[i], tol, start[0]):
            splits = list(compress(chunk, _deficient(vs[i : i + 1], chunk, tol)[0]))
            if splits and (finding := fails(vs[i], splits)) is not None:
                found[i] = finding
                break
    return found


def _first_subset(v: np.ndarray, splits: list[_Split]) -> tuple[int, ...]:
    """The ``fails`` of the complement property: any deficient split fails it, and its S is the witness."""
    return splits[0][0]


def _require_within_cap(frame: Frame, cap: int, what: str) -> None:
    if frame.n_atoms > cap:
        raise EnumerationCapExceeded(
            f"{what} enumerates 2^(n-1) subsets and refuses for n = {frame.n_atoms} > cap = {cap}"
        )


_LIFTED = "complement-lifted-map"


def complement_property(
    frame: Frame,
    tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Certificate:
    """Decide whether every index subset or its complement spans the space.

    A frame its lift certifies (``_lifted_holds``) holds with method
    ``complement-lifted-map`` and no split visited; any other frame is
    decided on its splits, with method ``complement-subset-enumeration``.
    Among those, a frame with n >= 2d - 1 whose d-subsets all span with a
    margin (``_spark_holds``, run by the driver) holds with no split
    visited, the verdict the splits give it.
    A failing verdict reports the lexicographically smallest violating
    subset: the first split the shared scan yields.
    """
    _require_within_cap(frame, cap, "complement property certification")
    vs = frame.vectors[None]
    if _lifted_holds(vs, tol)[0]:
        return Certificate(HOLDS, _LIFTED, frame.field)
    subset = _first_failures(vs, tol, _first_subset)[0]
    verdict = HOLDS if subset is None else FAILS
    return Certificate(verdict, "complement-subset-enumeration", frame.field, witness_subset=subset)


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


def _pr_failure(frame: Frame, subset: tuple[int, ...], tol: float) -> Certificate:
    """The failing phase retrieval certificate of a split where neither side spans, S = ``subset``."""
    method = "pr-complement-equivalence" if frame.field == "real" else "pr-complement-necessity"
    pair = _equal_magnitude_pair(frame, subset, tol)
    return Certificate(FAILS, method, frame.field, witness_subset=subset, witness_vectors=pair)


def phase_retrieval_certify(
    frame: Frame,
    tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Certificate:
    """Certify phase retrieval: exact over R; over C by the Hermitian lift, or its failure by the complement property.

    Real frames get a definite verdict via the complement property, which
    asks that every split of the atoms leaves at least one side spanning.
    A complex frame holds when its lift certifies it (``_lifted_holds``,
    method ``pr-lifted-hermitian``); otherwise it fails when the complement
    property fails, with the same witness pair construction, which is
    field-agnostic, and is ``inconclusive`` when that property holds, since
    over C it is only necessary.  ``complement_property`` runs the lift,
    once per frame, after the atom cap is checked.
    """
    cp = complement_property(frame, tol, cap)
    if cp.verdict == FAILS:
        return _pr_failure(frame, cp.witness_subset, tol)
    if frame.field == "real":
        return Certificate(verdict=HOLDS, method="pr-complement-equivalence", field=frame.field)
    if cp.method == _LIFTED:
        return Certificate(HOLDS, "pr-lifted-hermitian", frame.field)
    return Certificate(INCONCLUSIVE, "pr-complement-necessity", frame.field)


def _r_stack(frame: Frame) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a (k, d) array of vectors f to the (k, d, d) stack of their ``R(f)``.

    Raises ValueError when an entry of R(f) could overflow float64 for a unit f.
    """
    v = frame.vectors
    # For unit f no entry of R(f) + R(f)*, or of a partial result on the way, exceeds this.
    with np.errstate(over="ignore", invalid="ignore"):
        ceiling = 2.0 * np.sum((np.sqrt(frame.weights) * np.linalg.norm(v, axis=1) ** 2) ** 2)
    if not np.isfinite(ceiling):
        raise ValueError("R(f) can overflow float64 on this frame; scale the frame vectors down")
    rows, conj, weights = v.T, np.conj(v), frame.weights[:, None]

    def stack(fs: np.ndarray) -> np.ndarray:
        # conj(v) @ f for each f as its own column rounds as the one-vector
        # product does; fs @ conj(v).T rounds differently.
        scale = weights * np.abs(conj @ fs[:, :, None]) ** 2
        return hermitize((rows * scale.swapaxes(1, 2)) @ conj)

    return stack


def r_operator(frame: Frame, f: np.ndarray) -> np.ndarray:
    """R(f) = sum_i w_i |<f, F(x_i)>|^2 F(x_i) F(x_i)*, as a d x d Hermitian positive semidefinite array.

    Its quadratic form <R(f) g, g> is the sum alpha minimizes over unit f and g.
    """
    f = np.asarray(f)
    if f.shape != (frame.dim,):
        raise ValueError(f"expected a vector of length {frame.dim}, got shape {f.shape}")
    return _r_stack(frame)(f[None])[0]


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
    with one call to the generator (``random_units``), and each half-step
    builds R for every restart of the block still running and takes one
    stacked ``eigh``.  A restart leaves its block at its own stopping test,
    so every trace equals the one the restart makes alone, value for value.
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
        f = random_units(rng, min(block, restarts - lo), d, complex_)
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
    found: dict[int, np.ndarray] = {}
    for members, rows in _stacks(sides):
        found.update(zip(members, null_spaces(v.take(rows, axis=0), tol)))
    return [found[i] for i in range(len(sides))]


_NR_METHOD = "nr-nullspace-orthogonality"
_IDENTITY = "nr-identity-span"


def _nr_failure(v: np.ndarray, splits: list[_Split], rank_tol: float, ortho_tol: float) -> Certificate | None:
    """The norm retrieval test of a real frame's splits where neither side spans, in order: the first failure, or None.

    A split fails when some entry of L^T R, for the orthonormal null-space
    bases L of S and R of its complement, exceeds ``ortho_tol``; its
    certificate carries S and the two null directions of the largest entry.
    """
    found = _null_spaces(v, [side for split in splits for side in split], rank_tol)
    for (s, _), left, right in zip(splits, found[0::2], found[1::2]):
        # Rank check and null-space SVD can split an exact tie differently.
        if left.shape[1] == 0 or right.shape[1] == 0:
            continue
        overlap = np.abs(left.T @ right)
        if overlap.max() > ortho_tol:
            i, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
            pair = (left[:, i], right[:, j])
            return Certificate(FAILS, _NR_METHOD, "real", witness_subset=s, witness_vectors=pair)
    return None


def norm_retrieval_certify(
    frame: Frame,
    tol: float = DEFAULT_ORTHO_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Certificate:
    """Certify norm retrieval: over R by orthogonality of complementary null spaces, over C by the identity test.

    For every index subset, the annihilator of its rows must be orthogonal
    to the annihilator of the complement's rows.  A split where either side
    spans holds vacuously, so only the splits where neither side spans are
    tested, in scan order.  The stages run in this order, after the atom
    cap: the lift (``_lifted_holds``), which certifies a frame that does
    phase retrieval with no split tested; the identity test
    (``_identity_holds``), which certifies a frame whose rank-one
    projections span I closely enough, method ``nr-identity-span``; then
    the scan budget, the hyperplane table and the walk, so every other
    ``holds`` rests on the scan's own rank and overlap decisions.  The
    first failure is reported as the subset plus the offending unit null
    directions.

    A complex frame is decided by the identity test on its Hermitian lift
    alone: it holds (``nr-identity-span``) when the test passes, and is
    otherwise ``inconclusive`` (``nr-identity-sufficiency``), since the
    test is only sufficient.
    """
    _require_within_cap(frame, cap, "norm retrieval certification")
    real, vs = frame.field == "real", frame.vectors[None]
    # The lift first: generic frames pass it, and would fail the identity test at the cost of a second SVD.
    if real and _lifted_holds(vs, rank_tol)[0]:
        return Certificate(HOLDS, _NR_METHOD, frame.field)
    if _identity_holds(frame.vectors, rank_tol, tol):
        return Certificate(HOLDS, _IDENTITY, frame.field)
    if not real:
        return Certificate(INCONCLUSIVE, "nr-identity-sufficiency", frame.field)
    found = _first_failures(vs, rank_tol, lambda v, splits: _nr_failure(v, splits, rank_tol, tol))[0]
    return Certificate(verdict=HOLDS, method=_NR_METHOD, field=frame.field) if found is None else found


def norm_retrieval_oracle(frame: Frame, tol: float = DEFAULT_ORTHO_TOL, rank_tol: float = DEFAULT_RANK_TOL,
                          cap: int = DEFAULT_ENUM_CAP) -> Certificate:
    """Uncalled brute-force pair check on every deficient split, with no lift, kept only because ``perfbench/tracer.py`` traces it."""
    _require_real(frame, "norm retrieval oracle")
    _require_within_cap(frame, cap, "norm retrieval oracle")
    d, method = frame.dim, "nr-bruteforce-pairs"

    def unequal_pair(v: np.ndarray, splits: list[_Split]) -> Certificate | None:
        for s, c in splits:
            left = annihilator(v[list(s)], d, rank_tol)
            right = annihilator(v[list(c)], d, rank_tol)
            for u in left.T:
                for w in right.T:
                    f, g = (w + u) / 2.0, (w - u) / 2.0
                    if abs(np.linalg.norm(f) - np.linalg.norm(g)) > tol:
                        return Certificate(FAILS, method, frame.field, witness_subset=s, witness_vectors=(f, g))
        return None

    found = _first_failures(frame.vectors[None], rank_tol, unequal_pair)[0]
    return Certificate(verdict=HOLDS, method=method, field=frame.field) if found is None else found


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
