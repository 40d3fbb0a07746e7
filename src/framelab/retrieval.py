"""Exact certificates for phase retrieval and norm retrieval of finite frames.

Over the real field, phase retrieval is equivalent to the complement
property: every index subset or its complement must span the space.  Norm
retrieval holds exactly when, for every index subset, the null space of its
rows is orthogonal to the null space of the complement's rows; a split with
a spanning side satisfies both conditions.

A frame with n >= D atoms is first tested on its lift, the n x D matrix
of the map Q -> (phi_i^* Q phi_i)_i: on symmetric d x d matrices, D =
d(d + 1)/2, for a real frame, and on Hermitian ones, D = d^2, for a complex
frame.  One stacked SVD gives each lift its margin (``_lift_margins``):
how far its smallest singular value clears the lift's one cutoff
(``_lift_cutoff``) times its largest.  When the margin is positive, no
split can have neither side spanning under the scan's rank test, so the
complement property, and norm retrieval with it for a real frame, hold
with no split visited; and the lift is injective, so the frame does phase
retrieval over either field.  ``_lift_margins`` carries the proof and the
bound on LAPACK's rounding error that it assumes.  A certificate also
covers the frames near the certified one: its reach is one number, the
largest move of each scaled atom that it still covers, by Weyl's
inequality.  ``_lift_reach`` solves for it from the lift's margin, and
``_spark_reach`` from the determinant bounds that certify the frame in
the spark stage below.  ``stability_sweep`` decides a radius with no trial
drawn when the radius's move stays under the larger reach
(``_radius_stage``): Mercedes' lift reaches 0.2247 and its d-subsets
0.4330, below its breaking radius 0.5.
The lift can only answer ``holds``, and runs at any atom count.
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
side on every split.  The C(n, d) d x d minors, each a Laplace expansion
of the shared smaller minors in IEEE arithmetic with no LAPACK
(``_minors``), bound each minor's smallest singular value from below
(``_spark_least``), and when every bound clears the scan's rank test with
its rounding, the frame holds with no split visited and the scan's own
method.  It runs when the minors fit in ``_WALK_ENTRIES`` entries, and it
can only answer ``holds``.

Both are decided on the splits where neither side spans, visited in scan
order (the empty set first, then the subsets holding atom 0 in
lexicographic order), so each witness is the lexicographically smallest
one.  Each frame's splits are read as one stream of chunks
(``_split_chunks``): first the scan's n prefix splits, the empty split and
then {0}, {0, 1}, ..., {0..n - 2}, which the scan visits before any other;
then, past them, only the candidate splits.  A chunk is decided by its
smaller sides, then the larger sides of the splits still open, each group
of equal-sized sides by one stacked SVD with the per-side cutoff of
``numerical_rank``, so every decision is the scan's.  The table is built
only once the prefixes are decided, so a frame with n < 2d - 1, and a
product whose left factor fails at a prefix, never builds it.  The table
holds the frame's distinct hyperplanes, the closures of its d - 1
independent atoms: at most C(n, d - 1) of them, found with no SVD by a walk
over the atom subsets that keeps every atom projected onto the complement
of the subset's span by Householder reflections (``_hyperplanes``), in
blocks of bounded size.  A split has neither side spanning exactly when S
lies in a hyperplane H1 and its complement in a hyperplane H2, and then H1
and H2 together hold every atom.  So the candidates come from the covering
pairs, and only pairs with |H1| + |H2| >= n are tested; with no covering
pair there is no candidate and both properties hold.  The table decides
rank with a margin above the tolerance, widened by a bound on its
rounding: near the cutoff it lists extra candidates, which the rank check
drops, and never misses one.  Past the prefixes one walk (``_walk``)
reads the table's covering pairs as intervals of subsets; a frame that
does not span with the margin, and every frame at tol > 1e-2, where the
margin would fall below its floor (``_table_margin``), has no table, and
its walk takes the one interval that holds every split.  The driver
refuses a frame of more atoms than the cap before its first split; the
lift, the identity test and the spark stage read no split and run at any
n.  The reference scan that checks every split, and independent
brute-force references, live with the tests.

Each certification scales its frame, or stack, once, where it enters: a
power of two, exact, with ``_linalg.scaled``, so that no norm or square
overflows or underflows to zero.  The lift, the identity test, the spark
stage and the table all read that scaled copy, and none scales again; the
scan and the witnesses read the frame itself.  Each of their ranks, like
the scan's, is counted by ``_linalg.ranks``: the singular values above
``tol * sigma_max``.  The lift's cutoff, the identity test's bound, the spark
stage's bound, and the table's margin and membership test are other rules.

Both properties, and a stability sweep, are decided by one driver over a
stack of frames with the same atom count; a single frame is the stack of
one, and the perturbed frames of a sweep form stacks.  Each caller first
runs the lift on its whole stack, in one stacked SVD, and hands the driver
the frames the lift leaves open.  The spark stage decides the whole stack,
in blocks of frames, and each frame still open is then decided alone from
its own stream of splits.  Each certifier hands the driver its test of one
frame's deficient splits, and a frame leaves at its first failure, so
every verdict is the one the frame gets alone.

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
from itertools import accumulate, compress, dropwhile, filterfalse, islice
from math import comb, fsum, inf, ldexp, sqrt
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
# The table's rank decisions are this many times looser than the scan's, so
# near the cutoff it lists more candidate splits, never fewer; every candidate
# is then decided with ``numerical_rank``'s cutoff, as the scan decides it.
# At a large tol the margin shrinks (``_table_margin``), down to its floor.
_TABLE_MARGIN = 1e3
_TABLE_MARGIN_FLOOR = 10.0
# The largest margin times tol: the table's closures hold atoms within this share of their scale.
_TABLE_REACH = 0.1
# Projected entries the hyperplane walk expands at a time, per level of its subset tree.
_WALK_ENTRIES = 1 << 15
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _blocks(sizes: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """Cut the items into runs [lo, hi) whose sizes sum to at most ``limit``, each run at least one item."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + limit, side="right")))
        yield lo, hi
        lo = hi


def _table_margin(tol: float) -> float | None:
    """The table's margin M at ``tol``: ``_TABLE_MARGIN``, or less so that M tol is at most ``_TABLE_REACH``.

    None, so that no table is built, when that M is below
    ``_TABLE_MARGIN_FLOOR``, that is for tol > 1e-2, or when tol is NaN.
    The walk reads only the splits of the table's covering pairs, so the
    table must be looser than the scan: a margin of 1.5 missed a deficient
    split that the scan finds on one of 200 frames with rank ties near tol
    = 1e-10..1e-3, while margins of 2 and 4 missed none.  Past the reach,
    closures grow to hold most atoms: on 16 atoms in two planes of R^3 at
    tol = 1e-3, M tol = 0.5 gave 198 intervals and a slower walk than no
    table, and M tol = 0.1 gave 6.
    """
    if not _TABLE_MARGIN_FLOOR * tol <= _TABLE_REACH:
        return None
    return _TABLE_MARGIN if _TABLE_MARGIN * tol <= _TABLE_REACH else _TABLE_REACH / tol


def _hyperplanes(v: np.ndarray, tol: float, margin: float) -> np.ndarray:
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
    |v_i|), M = ``margin``.  Assume that the computed pivots and
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
    high_cut = margin * tol * (1 + eta)
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


def _hyperplane_table(w: np.ndarray, tol: float) -> np.ndarray | None:
    """The scaled frame's (``scaled``) distinct hyperplanes, as boolean rows, with the table's margin (``_table_margin``).

    A hyperplane is the closure of d - 1 independent atoms, so there are at
    most C(n, d - 1) of them; ``_hyperplanes`` finds them with no SVD.
    With d = 1 the one hyperplane is the zero space, which holds the zero
    atoms.  Returns None when tol has no margin or the frame does not span
    with it.  The frame's scaling by a power of two keeps every atom norm
    finite.
    """
    if (margin := _table_margin(tol)) is None:
        return None
    if numerical_rank(w, margin * tol) < w.shape[1]:
        return None
    n, d = w.shape
    if d == 1:
        norms = np.abs(w[:, 0])
        return (norms <= margin * tol * norms)[None]
    packed = _hyperplanes(w, tol, margin)
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
    """An iterator over the splits {S, complement} in scan order, S in the union of the intervals.

    Each interval [low, high] is a pair of bitmasks with atom 0 in high; S
    holds atom 0 and never every atom.  The walk enters only subtrees that
    hold some S, so it makes no rank call.  A subtree where some interval
    has no atom of low, and every atom of high, above the root's last atom
    holds every extension of its root, and is read by the plain scan loop:
    from the root for (1, 2^n - 1), the interval that holds every split.
    """
    atoms = range(n)
    full = (1 << n) - 1

    def visit(s: tuple[int, ...], mask: int, alive: list[tuple[int, int, int]]):
        # ``mask`` has the bits of ``s``; each interval (reach, low, high) in ``alive`` holds s plus some
        # atoms above s[-1], and the first has the least reach, one past its last atom in low or not in high.
        if alive[0][0] <= s[-1] + 1:
            stack = [s]
            while stack:
                s = stack.pop()
                if len(s) < n:
                    yield s, tuple(filterfalse(set(s).__contains__, atoms))
                stack.extend([s + (j,) for j in range(n - 1, s[-1], -1)])
            return
        if mask != full and any(not low & ~mask for _, low, _ in alive):
            yield s, tuple(filterfalse(set(s).__contains__, atoms))
        for j in range(s[-1] + 1, n):
            bit = 1 << j
            inside = [iv for iv in alive if iv[2] & bit]
            if inside:
                yield from visit(s + (j,), mask | bit, inside)
            alive = [iv for iv in alive if not iv[1] & bit]
            if not alive:
                return

    if not intervals:
        return iter(())
    return visit((0,), 1, sorted(((low | full & ~high).bit_length(), low, high) for low, high in intervals))


def _chunks(splits: Iterator[_Split], n: int, d: int) -> Iterator[list[_Split]]:
    """Cut splits into lists of one split, then twice as many each time, up to the batch size."""
    limit = max(1, _BATCH_ENTRIES // (n * d))
    size = 1
    while chunk := list(islice(splits, size)):
        yield chunk
        size = min(2 * size, limit)


def _split_chunks(w: np.ndarray, tol: float) -> Iterator[list[_Split]]:
    """Yield, in scan order and chunk by chunk, a superset of one scaled frame's splits where neither side spans.

    The first chunk is the scan's n prefix splits: the empty split, then
    {0..k - 1} for k = 1..n - 1, which the scan visits before any other
    split, and which are all its splits when n <= 2.  A frame with n < 2d -
    1 fails there at the latest, at {0..n - d}, whose sides both hold fewer
    than d atoms, and so does a product whose left factor fails at a
    prefix.  The table is built only when the next chunk is asked for; the
    rest come from the walk of its intervals, or of (1, 2^n - 1), which
    holds every split, when ``_hyperplane_table`` refuses.  The walk's
    prefix splits come first, and are dropped.
    """
    n, d = w.shape
    atoms = tuple(range(n))
    yield [(atoms[:k], atoms[k:]) for k in range(n)]
    if n <= 2:
        return
    table = _hyperplane_table(w, tol)
    intervals = [(1, (1 << n) - 1)] if table is None else _intervals(table)
    splits = dropwhile(lambda split: split[0][-1] == len(split[0]) - 1, _walk(n, intervals))
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


def _deficient(v: np.ndarray, chunk: list[_Split], tol: float) -> list[bool]:
    """For each split of the chunk, whether neither side of the (n, d) frame spans.

    Each split is decided as the scan decides it, one stacked SVD per side
    size: the smaller sides first (a spanning side settles the split), then
    the larger side of each split still open.
    """
    d = v.shape[1]
    small = [s if len(s) <= len(c) else c for s, c in chunk]
    big = [c if len(s) <= len(c) else s for s, c in chunk]
    spans = [False] * len(chunk)
    for members, rows in _stacks(small, d):
        for i, spanning in zip(members, full_column_rank(v.take(rows, axis=0), tol).tolist()):
            spans[i] = spanning
    still = [i for i, spanning in enumerate(spans) if not spanning]
    for members, rows in _stacks([big[i] for i in still], d):
        for q, spanning in zip(members, full_column_rank(v.take(rows, axis=0), tol).tolist()):
            spans[still[q]] = spanning
    return [not spanning for spanning in spans]


def _lift_width(d: int, complex_: bool) -> int:
    """The lift's column count D: d(d + 1)/2 for a real frame, d^2 for a complex one."""
    return d * d if complex_ else d * (d + 1) // 2


def _lift_cutoff(n: int, d: int, tol: float, complex_: bool = False) -> float:
    """The lift's one threshold on s_D / s_1: ``c t + 8 eta + 16 eps``, c = 2 sqrt(n d), t = tol + eta (1 + tol), eta = n D eps.

    D is ``_lift_width(d, complex_)``; ``_lift_margins`` states why the cutoff suffices.
    """
    eta = n * _lift_width(d, complex_) * _EPS
    return 2.0 * sqrt(n * d) * (tol + eta * (1 + tol)) + 8 * eta + 16 * _EPS


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


def _lift_margins(w: np.ndarray, tol: float) -> np.ndarray:
    """The margin m of the lift of each frame of a scaled (k, n, d) stack (``scaled``), w = 2^-e v.

    The lift L is the n x D matrix of the map A(Q) = (phi_i^* Q phi_i)_i
    written in an orthonormal basis (``_lift``), so ``|L q| = |A(Q)|`` and
    ``|q| = |Q|_F``.  For a real frame Q runs over the symmetric d x d
    matrices, D = d(d + 1)/2; for a complex frame over the Hermitian ones,
    D = d^2, a real space with the inner product tr(P Q).  m = (s_D -
    cutoff s_1) / (1 + cutoff), with s_1 and s_D the computed largest and
    smallest singular values of the lift L of w, from one stacked SVD, and
    cutoff = ``_lift_cutoff(n, d, tol, complex_)``, the lift's one
    threshold; m = -inf when n < D or tol < 0.  A frame W has no split the
    scan calls deficient when the exact lift of 2^-e W lies within m (1 - 4
    eps), in spectral norm, of the exact L.

    The certificate.  With W = v that is the test m > 0, for either field:
    a frame with a positive margin has no split the scan calls deficient,
    so the lift can only answer ``holds``.  Its exact L has sigma_min(L) >=
    s_D - 3.3 eta s_1 > 0 as well, by the second step below, so the frame
    does phase retrieval: |<x, phi_i>| = |<y, phi_i>| on every atom puts x
    x^* - y y^* in the kernel of A, so x x^* = y y^*, and x is y times a
    unimodular number (Bandeira, Cahill, Mixon and Nelson, "Saving phase",
    2014).  ``_lift_reach`` extends the certificate to the real frames
    near v.

    First step: a deficient split bounds the lift's ratio.  Let M be the
    largest atom norm and eta = n D eps.  Assume that each computed
    singular value of an m x c matrix X, real or complex, is within eta
    |X|_2 of the exact one, for m <= n and c <= D.  This is an assumption,
    not a theorem: LAPACK bounds that error by p(m, c) eps |X|_2 for a
    "modest polynomial" p it does not state, and the proof takes p = n D.
    Take a split (S, S^c) the scan calls deficient.  A side of fewer than
    d atoms has a unit u with V_S u = 0; a larger one was computed with s_d
    <= tol s_1, so exactly sigma_d(V_S) <= t |V_S|_2 with t = tol + eta (1
    + tol), and |V_S|_2 <= |V|_F <= sqrt(n) M.  So there are unit u and w
    with |V_S u| and |V_{S^c} w| both at most t sqrt(n) M.  Put p = conj(u)
    and q = c conj(w), with |c| = 1 chosen so that q^* p is real (c = 1
    for a real frame), and Q = p q^* + q p^*, which is Hermitian.  Entry i
    of V_S u is phi_i^T u, whose size is |phi_i^* p|, and likewise for w
    and q.  Then A(Q)_i = 2 Re((phi_i^* p)(q^* phi_i)), whose size is at
    most 2 M |phi_i^T u| on S and 2 M |phi_i^T w| on S^c, so |A(Q)| <= 2
    sqrt(2) t sqrt(n) M^2, while |Q|_F^2 = 2 + 2 Re((q^* p)^2) = 2 + 2
    |q^* p|^2 >= 2.  Hence sigma_min(L) <= 2 t sqrt(n) M^2, as n >= D.
    And sigma_max(L) >= |A(I)| / |I|_F >= M^2 / sqrt(d), so sigma_min(L) /
    sigma_max(L) <= 2 sqrt(n d) t = c t.

    Second step: rounding.  The computed test sees L plus the rounding of
    its entries and then LAPACK's error.  Each entry is computed within 4
    eps of its exact value relative to |phi_a|^2 on a column with a = b and
    to sqrt(2) |phi_a| |phi_b| on one with a < b.  Along row i these bounds
    have squares summing to at most 2 |phi_i|^4, so the rounding is at most
    4 sqrt(2) eps sqrt(n) M^2 <= 4 sqrt(2) eps sqrt(n d) sigma_max(L) <= 2
    eta sigma_max(L), since sqrt(n d) <= n and D >= 3 when d >= 2; at d = 1
    the one column, |phi|^2, is within 2 eps of it, and the rounding is at
    most 2 eps sqrt(n) M^2 <= 2 eta sigma_max(L) again.  So each computed
    singular value is within kappa sigma_max(L) of the exact one, kappa <=
    3.2 eta.

    Proof of the margin.  By the second step sigma_1(L) <= s_1 / (1 -
    kappa) <= (1 + 3.3 eta) s_1 and sigma_D(L) >= s_D - 3.3 eta s_1.  Let
    delta = |L' - L|_2, L' the exact lift of 2^-e W, which is 4^-e that of
    W, so its singular values keep their ratio.  By Weyl's inequality
    sigma_D(L') >= s_D - 3.3 eta s_1 - delta and sigma_1(L') <= (1 + 3.3
    eta) s_1 + delta.  A split the scan calls deficient in W forces
    sigma_D(L') <= c t sigma_1(L') (the first step), and so delta (1 + c t)
    >= s_D - c t s_1 - 3.3 eta (1 + c t) s_1.  A positive m needs s_D >
    cutoff s_1, and s_D <= s_1, so c t < cutoff < 1 and 3.3 eta (1 + c t)
    < 6.6 eta.  The cutoff exceeds c t + 6.6 eta by 1.4 eta + 16 eps, which
    covers the rounding of c t and then of the numerator, at most 3 eps s_1
    each.  So delta < m (1 - 4 eps), which allows for the rounding of the
    division and of 1 + cutoff, itself above 1 + c t, leaves no deficient
    split.  A zero or negative m covers no frame, not even v.

    The scaling puts each frame's largest entry in [1/2, 1), so that the
    squares neither overflow nor underflow, and it is exact, so every
    inequality above keeps.  One stacked SVD decides the whole stack.
    """
    k, n, d = w.shape
    complex_ = w.dtype.kind == "c"
    if n < _lift_width(d, complex_) or not tol >= 0:
        return np.full(k, -np.inf)
    s = np.linalg.svd(_lift(w), compute_uv=False)
    cutoff = _lift_cutoff(n, d, tol, complex_)
    return (s[:, -1] - cutoff * s[:, 0]) / (1 + cutoff)


def _lift_reach(w: np.ndarray, tol: float) -> float | None:
    """The lift's reach for the real frame v of a scaled (1, n, d) stack w = 2^-e v (``scaled``); None when the lift does not certify v.

    The reach R: no frame W whose scaled atoms 2^-e W_i each lie within B
    < R of w_i, exactly, has a split the scan calls deficient.  That holds
    when the exact lift of 2^-e W lies within M = m (1 - 4 eps), in
    spectral norm, of the exact lift L of w, m the margin of
    ``_lift_margins``, whose certificate is a positive m.

    The move.  Let f_i = 2^-e W_i - w_i, |f_i| <= B.  Row i of the lift is
    the image of phi_i phi_i^T under an isometry, and (w_i + f_i)(w_i +
    f_i)^T - w_i w_i^T = w_i f_i^T + f_i w_i^T + f_i f_i^T, of Frobenius
    norm at most 2 |w_i| B + B^2.  By Minkowski's inequality the lift moves,
    in Frobenius norm and so in spectral norm, by at most (sum_i (2 |w_i| B
    + B^2)^2)^(1/2) <= 2 F B + sqrt(n) B^2, F = |w|_F: below M for every B
    under the positive root of sqrt(n) B^2 + 2 F B = M, which is M / (F +
    (F^2 + sqrt(n) M)^(1/2)), written so that nothing cancels.

    Rounding.  The root rises with M and falls with F, and shrinking M or
    growing F by a factor 1 + x shrinks it by at most that factor.  The
    computed F is within 2 eps of |w|_F, relatively: ``fsum`` rounds the
    sum of the squares once, and a square underflows by less than 2^-1074
    on a sum of at least 1/4.  The root's seven operations on positive
    numbers are within 3 eps of it.  R is the computed root over 1 + 16
    eps, which covers those, the 4 eps of M, the division and the eps of
    the move it is compared with (``_radius_moves``).
    """
    margin = float(_lift_margins(w, tol)[0])
    if not margin > 0:
        return None
    frob = sqrt(fsum(x * x for x in w.ravel().tolist()))
    return margin / (frob + sqrt(frob * frob + sqrt(w.shape[1]) * margin)) / (1 + 16 * _EPS)


def _spark_reach(w: np.ndarray, tol: float) -> float | None:
    """The d-subsets' reach for the frame v of a scaled (1, n, d) stack w = 2^-e v (``scaled``); None when the spark stage does not certify v.

    The reach R: no frame W whose scaled atoms 2^-e W_i each lie within B
    < R of w_i, exactly, has a split the scan calls deficient.  It is
    (least / (1 + 16 eps) - t F) / c, c = sqrt(d) + t sqrt(n), computed and
    then divided by 1 + 8 eps, with least the least of the stage's computed
    bounds beta_R on sigma_min(w_R) (``_spark_least``), F the computed
    |w|_F and t the stage's threshold (``_spark_cutoff``).  A certified
    frame may have R <= 0, which decides no radius.

    Proof.  The stage's proof gives sigma_min(w_R) >= least (1 + (n + 12)
    eps), as least > t F >= 0, and |w|_F <= F (1 + (n + d + 4) eps / 2).
    The computed c is within 3 eps / 2 of c, and each other operation on R
    within eps / 2.  So when the computed move (``_radius_moves``), at least
    B (1 - eps), is under R, c B < fl(least / (1 + 16 eps)) - fl(t F), and
    hence (t F + c B)(1 + 14 eps) < least.  So sigma_min(w_R) > (t F + c
    B)(1 + (n + 26) eps) >= t |w|_F + c B for every R, as d <= n.  With E =
    2^-e W - w, |E_R|_2 <= |E_R|_F <= sqrt(d) B and |E|_F <= sqrt(n) B, so by
    Weyl's inequality sigma_min((2^-e W)_R) >= sigma_min(w_R) - sqrt(d) B >
    t (|w|_F + sqrt(n) B) >= t |2^-e W|_F for every R, which is all the
    proof of ``_spark_holds`` asks of a frame, and its inequalities keep
    under scaling: W has no split the scan calls deficient.
    """
    _, n, d = w.shape
    t = _spark_cutoff(n, d, tol)
    if (spark := _spark_least(w, tol)) is None or not spark[0][0] > t * spark[1][0]:
        return None
    least, frob = float(spark[0][0]), float(spark[1][0])
    return (least / (1 + 16 * _EPS) - t * frob) / (sqrt(d) + t * sqrt(n)) / (1 + 8 * _EPS)


def _radius_moves(d: int, exponent: int, lams: list[float]) -> list[float]:
    """For each ascending radius, how far a trial moves a scaled atom, computed to be compared with a reach; inf where none is decided.

    A trial of ``stability_sweep`` at radius lam moves atom i of v by at
    most lam (1 + (d + 6) eps) + eps |v_i|, so atom i of w = 2^-e v by at
    most 2^-e lam (1 + (d + 6) eps) + eps |w_i|, and |w_i| < sqrt(d), as
    every scaled entry is below 1.  The move is (2^-e lam + tiny)(1 + (d +
    6) eps) + eps sqrt(d), computed; tiny covers the rounding of 2^-e lam
    below the normal range, and the computed move is at least that bound
    times 1 - eps.  It grows with lam, so the radii a reach decides are
    a prefix.

    Only radii with 2^-e lam < 2 are decided, and none when e > 1021, so
    every frame a decided radius covers is finite.  That rule drops no
    radius a reach decides: the lift's reach has sqrt(n) R^2 < m < s_D <=
    |L|_F / sqrt(D) < sqrt(2 n), as each scaled atom has |w_i|^2 < d, so R
    < 2; and the d-subsets' reach is under least / sqrt(d), while each
    sigma_min(w_R) <= |w_R|_F / sqrt(d) < sqrt(d), so R < 1, up to rounding.
    """
    if exponent > 1021:
        return [inf] * len(lams)
    stretch, slack, limit = 1 + (d + 6) * _EPS, _EPS * sqrt(d), ldexp(2.0, exponent)
    return [(ldexp(lam, -exponent) + _TINY) * stretch + slack if lam < limit else inf for lam in lams]


def _radius_stage(w: np.ndarray, exponents: np.ndarray, tol: float, lams: list[float]) -> tuple[int, bool]:
    """How many of the ascending radii, from the first, the real frame's reaches decide, and whether they certify it.

    The frame comes scaled, as a (1, n, d) stack and its exponents
    (``scaled``), and both reaches read that copy.  A radius is decided
    when its move (``_radius_moves``) is below the larger of the lift's
    reach (``_lift_reach``) and the d-subsets' (``_spark_reach``), which
    is computed only when the lift's leaves the last radius open.  A reach
    exists only for a frame its stage certifies, so the frame is certified
    when either does.
    """
    moves = _radius_moves(w.shape[2], int(exponents[0]), lams)
    lifted = _lift_reach(w, tol)
    spark = _spark_reach(w, tol) if lifted is None or not moves[-1] < lifted else None
    reaches = [reach for reach in (lifted, spark) if reach is not None]
    reach = max(reaches, default=-inf)
    return sum(move < reach for move in moves), bool(reaches)


@lru_cache(maxsize=None)
def _minor_plan(n: int, d: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The d-subsets of n atoms, and the gathers that expand every d x d minor from smaller ones, read-only.

    Level k holds the minor of every k-subset of the atoms, in the order of
    ``combinations``, on the last k coordinates; level 1 is the last
    coordinate of each atom.  Each level-k minor is expanded along its first
    column: its term i is the entry of its i-th atom times the level k - 1
    minor of its other atoms, and the terms are summed with alternating
    signs.  For k = 2..d the plan holds two (k, C(n, k)) index arrays, term
    i in row i: into a frame's entries, flattened, and into level k - 1.
    Level d holds one minor per d-subset.  The d-subsets come first, as a
    (d, C(n, d)) index array: atom j of each in row j.

    The k-subsets led by atom h are h and a (k - 1)-subset of the atoms
    after it, which are the last C(n - 1 - h, k - 1) rows of level k - 1,
    so each level's rows come from the row counts of the level below, with
    no loop over subsets.  Dropping atom i >= 1 of such a row drops atom i -
    1 of its tail, and the row led by h with that tail sits as far from the
    first row led by h as the tail sits from the first tail after h.
    """
    # Level k - 1: its subsets, atom j of each in row j; where each subset less its i-th atom sits in the
    # level below, in row i; and per leading atom h, its first row less the first row led by an atom after h
    # in the level below.
    rows, less, shift = np.arange(n)[None], np.zeros((1, n), dtype=np.intp), np.arange(n)
    levels = []
    for k in range(2, d + 1):
        counts = [comb(n - 1 - h, k - 1) for h in range(n - k + 1)]
        ends = list(accumulate(counts))
        first = np.repeat(np.arange(n - k + 1), counts)
        shifts = [end - rows.shape[1] for end in ends]
        tail = np.arange(ends[-1]) - np.repeat(shifts, counts)
        rows = np.concatenate(([first], rows[:, tail]))
        less = np.concatenate(([tail], less[:, tail] + shift[first]))
        shift = np.array(shifts)
        levels.append((rows * d + (d - k), less))
    for index in (rows, *(index for level in levels for index in level)):
        index.setflags(write=False)
    return rows, tuple(levels)


# A minor's bound divides by at least this: past it the expansion's underflow is negligible.
_SPREAD_FLOOR = 2.0**-400


def _minors(w: np.ndarray) -> np.ndarray:
    """The d x d minor of each d-subset of atoms of each frame of a (k, n, d) stack, (k, C(n, d)), lexicographically.

    Level by level, as ``_minor_plan`` lays them out, by numpy gathers,
    products and sums alone: no LAPACK or BLAS routine, so the floats do
    not depend on the BLAS kernel.  ``_spark_holds`` bounds their rounding.
    """
    k, n, d = w.shape
    entries, minors = w.reshape(k, -1), w[:, :, d - 1]
    for left, right in _minor_plan(n, d)[1]:
        terms = entries.take(left, axis=1) * minors.take(right, axis=1)
        minors = terms[:, 0] - terms[:, 1]
        for j in range(2, len(left)):
            if j % 2:
                minors -= terms[:, j]
            else:
                minors += terms[:, j]
    return minors


def _spark_bounds(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a scaled (k, n, d) stack, lower bounds on sigma_min(V_R) for each d-subset R, (k, C(n, d)), and each |V|_F.

    ``_spark_holds`` states the bound and what it charges.
    """
    k, n, d = w.shape
    squares = np.einsum("knd,knd->kn", w, w.conj()).real
    frob = np.sqrt(squares.sum(axis=1))
    power = (d - 1) / 2
    spread = squares.take(_minor_plan(n, d)[0], axis=1).sum(axis=1) ** power
    scale = (d - 1) ** power / (1 + (n + 32 + (d - 1) * (2 * d + 1)) * _EPS)
    xi = ((d - 1) * (d + 4) // 2 + 1) * (d - 1) ** power * _EPS
    return np.abs(_minors(w)) / np.maximum(spread, _SPREAD_FLOOR) * scale - xi * frob[:, None], frob


def _spark_least(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Each frame of a scaled (k, n, d) stack (``scaled``): its least ``_spark_bounds`` bound and |w|_F.

    None, which certifies nothing, when n < 2d - 1, tol < 0 or a frame's
    C(n, d) d x d minors hold more than ``_WALK_ENTRIES`` entries.  A block
    of at most that many entries, at least one frame, is bounded by one
    ``_spark_bounds`` call.
    """
    k, n, d = w.shape
    entries = comb(n, d) * d * d
    if n < 2 * d - 1 or not tol >= 0 or entries > _WALK_ENTRIES:
        return None
    if k > (step := _WALK_ENTRIES // entries):
        blocks = [_spark_least(w[lo : lo + step], tol) for lo in range(0, k, step)]
        return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])
    bounds, frob = _spark_bounds(w)
    return bounds.min(axis=1), frob


def _spark_cutoff(n: int, d: int, tol: float) -> float:
    """The spark stage's one threshold t = tol + eta (1 + tol), eta = n d eps, on each bound over |V|_F.

    ``_spark_holds`` states why it suffices.
    """
    return tol + n * d * _EPS * (1 + tol)


def _spark_holds(w: np.ndarray, tol: float) -> np.ndarray:
    """For each frame of a scaled (k, n, d) stack (``scaled``), whether its d-subsets prove the complement property.

    A frame with n >= 2d - 1 atoms whose every d atoms span has the
    complement property, since every split has a side of at least d atoms
    (Balan, Casazza and Edidin, 2006; Alexeev, Cahill and Mixon, "Full
    spark frames", 2012).  The stage decides a frame only when
    ``_spark_least`` bounds it; any other frame is not certified.  It
    certifies a frame when, for every d-subset R, the bound below on
    sigma_min(V_R) exceeds t |V|_F, t = tol + eta (1 + tol)
    (``_spark_cutoff``).  A certified frame has no split the scan calls
    deficient, so the stage can only answer ``holds``, and its verdict is
    the scan's.  The scaling by a power of two, exact, keeps every
    inequality below.

    Proof.  Assume, as ``_lift_margins`` does with p = n d, that each
    computed singular value of an m x d matrix X, m <= n, is within eta
    |X|_2 of the exact one, eta = n d eps: that is the scan's own SVD.
    Every split has a side T of at least d atoms, the larger, which the
    scan tests whenever the smaller does not span.  T holds a d-subset R,
    so sigma_d(V_T) >= sigma_min(V_R) (rows added never lower a singular
    value), and |V_T|_2 <= |V|_F.  So the computed s_d of V_T exceeds (t -
    eta) |V_T|_2 = tol (1 + eta) |V_T|_2 >= tol s_1: the scan's own rank
    test calls T spanning, and no split is deficient.

    The bound, which assumes IEEE arithmetic alone.  A d x d matrix A has
    |det A| equal to the product of its singular values, and the d - 1
    largest have squares summing to at most S = |A|_F^2, so sigma_min(A) >=
    |det A| (d - 1)^p / S^p, p = (d - 1) / 2 (the mean of squares bounds
    their product; the factor is 1 when d = 1).  The minors m of every R
    come from ``_minor_plan``'s Laplace expansion (``_minors``), with no
    LAPACK.  Every computed sum and product is within eps of exact,
    relatively, a complex product within 2 eps (Higham, "Accuracy and
    Stability of Numerical Algorithms", Lemma 3.5).  A level-k term passes
    one product and at most k - 1 sums, so the computed minor is sum_j a_j
    m'_j (1 + theta_j) with |theta_j| <= gamma_(k + 1), gamma_i = i eps /
    (1 - i eps), the a_j the entries of its first column and the m'_j the
    computed level k - 1 minors.  The |a_j| perm(|A'_j|) sum to perm(|A|),
    the permanent of the moduli, so by induction the computed m^ has |m^ -
    m| <= gamma_N perm(|A|), N = (d - 1)(d + 4) / 2; and perm(|A|) <=
    prod_i |a_i|_1 <= d^(d / 2) prod_i |a_i|_2 <= S^(d / 2), a_i the rows.  Underflow adds less than 2^-1058 to m^, as every
    entry is below 1 in modulus.  So sigma_min(A) >= |m^| (d - 1)^p / S^p -
    gamma_N (d - 1)^p S^(1 / 2) - 2^-1058 (d - 1)^p / S^p.

    The kernel (``_spark_bounds``) computes beta_R = |m^| / max(S^p,
    2^-400) c - xi |V|_F, with c = (d - 1)^p / (1 + zeta), zeta = (n + 32 +
    (d - 1)(2d + 1)) eps, and xi = (N + 1)(d - 1)^p eps.  S is summed from
    the squared atom norms, within gamma_(2d + 1) of exact relatively once
    S^p >= 2^-400, which underflow cannot then reach, so S^p is within
    (p (2d + 1) + 2) eps of its computed value; below that floor the exact
    S^p is below 2^-400 (1 + eps) as well, and the floor only lowers the
    bound.  |V|_F is at least 1/2 after scaling, unless the frame is zero
    and every term is zero.  So xi |V|_F covers gamma_N (d - 1)^p S^(1 / 2)
    and the underflow term, and zeta covers the rounding of S^p, |m^|, c,
    the division, the product and the subtraction, with (n + 12) eps to
    spare: a positive computed bound beta_R has sigma_min(V_R) >= beta_R
    (1 + (n + 12) eps).  The computed |V|_F is within (n + d + 4) eps / 2
    of it, relatively, so beta_R above the computed t |V|_F gives
    sigma_min(V_R) > t |V|_F.  Below the floor S < 2^-160, and the
    computed bound is under S^(1 / 2) (d - 1)^p < 2^-74, far below t |V|_F,
    so the floor decides no frame.
    """
    k, n, d = w.shape
    if (spark := _spark_least(w, tol)) is None:
        return np.zeros(k, dtype=bool)
    return spark[0] > _spark_cutoff(n, d, tol) * spark[1]


# The identity test's solve drops the lift's singular values at most this many times the largest.
_IDENTITY_CUTOFF = 1e-10


def _identity_holds(w: np.ndarray, rank_tol: float, ortho_tol: float) -> bool:
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

    Proof, real frame.  Assume, as ``_lift_margins`` does with p = n D,
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
    (``_lift_margins``), so row i is off by at most 4 sqrt(2) eps
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

    The frame comes scaled by a power of two (``scaled``), exactly: c
    scales inversely to M^2, so neither E nor the bound changes.
    """
    n, d = w.shape
    if not (rank_tol >= 0 and ortho_tol >= 0):
        return False
    lift = _lift(w[None])[0]
    width = lift.shape[1]
    a, b, _, _ = _lift_columns(d)
    identity = np.zeros(width)
    identity[: len(a)] = a == b
    c = np.linalg.lstsq(lift.T, identity, rcond=_IDENTITY_CUTOFF)[0]
    residual = float(np.linalg.norm(lift.T @ c - identity))
    norms, weights = np.linalg.norm(w, axis=1), np.abs(c)
    mass = float(weights.sum()) * float(norms.max()) ** 2
    eta = n * width * _EPS
    rho = 2 * (n + width + 8) * _EPS
    t = rank_tol + eta * (1 + rank_tol) if w.dtype.kind != "c" else 0.0
    null = t * sqrt(float(norms @ norms)) * float(weights @ norms)
    bound = null + mass * rho + residual + rho * (residual + sqrt(d)) + (d + 1) * _EPS
    return bound * (1 + 3 * eta + rho) <= ortho_tol


def _first_failures(
    vs: np.ndarray, w: np.ndarray, tol: float, fails: Callable[[np.ndarray, list[_Split]], Any], cap: int, what: str
) -> list[Any]:
    """For each frame of a (k, n, d) stack, the first finding of ``fails`` on its deficient splits, or None.

    ``w`` is the stack as its caller scaled it (``scaled``), frame by
    frame.  ``fails(v, splits)`` gets one frame's splits where neither side
    spans, those of one chunk in scan order, and returns a finding or None;
    a frame leaves at its first finding.  The driver runs no lift: the
    certifiers run it first and pass only the frames it leaves open, with
    their scaled copies.  The driver first runs ``_spark_holds`` on the
    whole scaled stack: a frame it certifies has no deficient split, so it
    gets None with no split decided and ``fails`` never called.  A frame
    still open past ``cap`` atoms is then refused, naming ``what``: the one
    check of the cap.  Each frame still open is then decided alone from its
    own chunks (``_split_chunks``, whose table reads the scaled frame): the
    scan's n prefix splits, then the walk past them, so no split of a frame
    is decided twice, and every frame gets the findings it gets alone.  The
    scan and ``fails`` read the frame itself, as it was given.
    """
    found: list[Any] = [None] * len(vs)
    for i in np.flatnonzero(~_spark_holds(w, tol)).tolist():
        if (n := vs.shape[1]) > cap:
            raise EnumerationCapExceeded(f"{what} enumerates 2^(n-1) subsets and refuses for n = {n} > cap = {cap}")
        for chunk in _split_chunks(w[i], tol):
            splits = list(compress(chunk, _deficient(vs[i], chunk, tol)))
            if splits and (finding := fails(vs[i], splits)) is not None:
                found[i] = finding
                break
    return found


def _first_subset(v: np.ndarray, splits: list[_Split]) -> tuple[int, ...]:
    """The ``fails`` of the complement property: any deficient split fails it, and its S is the witness."""
    return splits[0][0]


_LIFTED = "complement-lifted-map"


def complement_property(
    frame: Frame,
    tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Certificate:
    """Decide whether every index subset or its complement spans the space.

    A frame its lift certifies (``_lift_margins``) holds with method
    ``complement-lifted-map`` and no split visited; any other frame is
    decided on its splits, with method ``complement-subset-enumeration``.
    Among those, a frame with n >= 2d - 1 whose d-subsets all span with a
    margin (``_spark_holds``, run by the driver) holds with no split
    visited, the verdict the splits give it.  The others are refused past
    ``cap`` atoms, and otherwise read from the scan's n prefix splits, then
    from the walk (``_split_chunks``), so a frame with n < 2d - 1 is
    decided before the table is built.  A failing verdict reports the
    lexicographically smallest violating subset: the first split the
    shared scan yields.
    """
    vs = frame.vectors[None]
    w, _ = scaled(vs)
    if _lift_margins(w, tol)[0] > 0:
        return Certificate(HOLDS, _LIFTED, frame.field)
    subset = _first_failures(vs, w, tol, _first_subset, cap, "complement property certification")[0]
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
    A complex frame holds when its lift certifies it (``_lift_margins``,
    method ``pr-lifted-hermitian``); otherwise it fails when the complement
    property fails, with the same witness pair construction, which is
    field-agnostic, and is ``inconclusive`` when that property holds, since
    over C it is only necessary.  ``complement_property`` runs the lift,
    once per frame, at any atom count.
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


# A restart of ``alpha_certify`` stops after a full step that lowers its value by less than this.
_ALPHA_STOP = 1e-12


def alpha_certify(
    frame: Frame,
    restarts: int = 8,
    iters: int = 100,
    seed: int = 0,
) -> AlphaResult:
    """Estimate ``alpha = min over unit f, g of <R(f) g, g>`` by alternating minimization.

    Each half-step replaces one argument with the smallest eigenvector of
    the R operator built from the other, so the objective is monotone
    nonincreasing along every trace.  A restart stops after the first full
    step that lowers its value by less than ``_ALPHA_STOP``, or after
    ``iters`` steps.  The returned alpha is the best value over all restarts, the
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
        vals, g = eigmin_vectors(r_stack(f))
        block_traces = [[val] for val in vals.tolist()]
        rows = np.arange(len(f))  # the restarts still running
        for _ in range(iters):
            half, f[rows] = eigmin_vectors(r_stack(g[rows]))
            vals, g[rows] = eigmin_vectors(r_stack(f[rows]))
            going = []
            for i, a, b in zip(rows.tolist(), half.tolist(), vals.tolist()):
                going.append(not block_traces[i][-1] - b < _ALPHA_STOP)
                block_traces[i] += a, b
            rows = rows[going]
            if not len(rows):
                break
        for trace, end_f, end_g in zip(block_traces, f, g):
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
    tested, in scan order.  The stages run in this order: the lift
    (``_lift_margins``), which certifies a frame that does phase retrieval
    with no split tested; the identity test (``_identity_holds``), which
    certifies a frame whose rank-one projections span I closely enough,
    method ``nr-identity-span``; then the driver's spark stage, the atom
    cap, the scan's n prefix splits and the walk of the hyperplane table,
    so every other ``holds`` rests on the scan's own rank and overlap
    decisions.  The first failure is reported as the subset plus the
    offending unit null directions.

    A complex frame is decided by the identity test on its Hermitian lift
    alone, at any atom count: it holds (``nr-identity-span``) when the test
    passes, and is otherwise ``inconclusive`` (``nr-identity-sufficiency``),
    since the test is only sufficient.
    """
    real, vs = frame.field == "real", frame.vectors[None]
    w, _ = scaled(vs)
    # The lift first: generic frames pass it, and would fail the identity test at the cost of a second SVD.
    if real and _lift_margins(w, rank_tol)[0] > 0:
        return Certificate(HOLDS, _NR_METHOD, frame.field)
    if _identity_holds(w[0], rank_tol, tol):
        return Certificate(HOLDS, _IDENTITY, frame.field)
    if not real:
        return Certificate(INCONCLUSIVE, "nr-identity-sufficiency", frame.field)
    found = _first_failures(
        vs, w, rank_tol, lambda v, splits: _nr_failure(v, splits, rank_tol, tol), cap, "norm retrieval certification"
    )[0]
    return Certificate(verdict=HOLDS, method=_NR_METHOD, field=frame.field) if found is None else found


def norm_retrieval_oracle(frame: Frame, tol: float = DEFAULT_ORTHO_TOL, rank_tol: float = DEFAULT_RANK_TOL,
                          cap: int = DEFAULT_ENUM_CAP) -> Certificate:
    """Uncalled brute-force pair check on every deficient split, with no lift, kept only because ``perfbench/tracer.py`` traces it."""
    _require_real(frame, "norm retrieval oracle")
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

    vs = frame.vectors[None]
    found = _first_failures(vs, scaled(vs)[0], rank_tol, unequal_pair, cap, "norm retrieval oracle")[0]
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
