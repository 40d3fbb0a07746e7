"""Constructions that break retrieval properties with arbitrarily small energy.

Two explicit perturbations and one empirical sweep:

* ``break_phase_retrieval`` keeps a deficient head block fixed and projects
  the tail away from one head direction, producing a frame at arbitrarily
  small L2(mu) distance that admits an equal-magnitude witness pair.
* ``break_norm_retrieval`` tilts the rows of one subset toward the
  complement's null direction, making two complementary null spaces
  non-orthogonal while moving the frame by at most ``epsilon``.
* ``stability_sweep`` probes the positive side: below a sup-norm radius,
  random perturbations of a phase retrieval frame stay phase retrieval.
  It certifies the input frame once, by its lift, and its certificate's
  reach, the largest move of each atom it covers, decides the small radii
  with no trial drawn: by Weyl's inequality no perturbation that small
  moves the lift's singular values far enough for a split to fail (Balan,
  "Stability of phase retrievable frames", 2013).  The determinant bounds
  of the spark stage on its d-subsets give a second reach, by the same
  inequality, for radii the lift leaves open.  For the
  radii past them it draws every trial's perturbation from one seeded
  generator, a block of trials at a time, and certifies the trials in
  stacks, through the lift and the driver that ``complement_property``
  runs on a single frame.

Each construction certifies its perturbed frame on the split it broke,
with the test the walk applies to that split: the scan's rank test, and for
norm retrieval the null-space overlap against ``ortho_tol``.  The
certificate then witnesses that split, written as the scan writes it, the
side holding atom 0 first.  A split that fails there makes the full
certifier fail too, so every split is walked only when it does not, and
the certificate is then the full certifier's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import (
    DEFAULT_ENUM_CAP,
    DEFAULT_MATCH_TOL,
    DEFAULT_ORTHO_TOL,
    DEFAULT_RANK_TOL,
    annihilator,
    inner,
    scaled,
)
from .errors import FramelabError
from .frames import Frame, FrameBounds, _require_finite, frame_bounds, magnitudes
from .retrieval import (
    _BATCH_ENTRIES,
    FAILS,
    HOLDS,
    Certificate,
    _deficient,
    _first_failures,
    _first_subset,
    _lift_margins,
    _nr_failure,
    _pr_failure,
    _radius_stage,
    _Split,
    norm_retrieval_certify,
    phase_retrieval_certify,
)

__all__ = [
    "PerturbationResult",
    "SweepPoint",
    "break_phase_retrieval",
    "break_norm_retrieval",
    "stability_sweep",
]


@dataclass(frozen=True, eq=False)
class PerturbationResult:
    """A perturbed frame, its witness vectors and bookkeeping, and its certificate."""

    perturbed: Frame
    witness_f: np.ndarray
    witness_g: np.ndarray
    l2_distance: float
    new_bounds: FrameBounds
    certificate: Certificate


@dataclass(frozen=True)
class SweepPoint:
    lam: float
    all_preserved: bool
    failures: int


_NOT_PR = "stability sweep needs a phase retrieval frame to start from"


def _require_finite_epsilon(epsilon: float) -> None:
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")


def _validate_subset(ids: Sequence[int], n: int, name: str) -> tuple[int, ...]:
    subset = tuple(sorted(set(int(i) for i in ids)))
    if not subset:
        raise ValueError(f"{name} must contain at least one atom id")
    if subset[0] < 0 or subset[-1] >= n:
        raise ValueError(f"{name} contains atom ids outside 0..{n - 1}")
    return subset


def _scan_split(n: int, ids: tuple[int, ...]) -> _Split:
    """The split {ids, the rest} as the scan writes it: S holds atom 0, or S is empty when a side is."""
    inside = set(ids)
    rest = tuple(i for i in range(n) if i not in inside)
    if not rest:
        return (), ids
    return (ids, rest) if ids[0] == 0 else (rest, ids)


def break_phase_retrieval(
    frame: Frame,
    head: Sequence[int],
    epsilon: float,
    rank_tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> PerturbationResult:
    """Destroy phase retrieval while moving the frame by less than ``epsilon``.

    The head atoms are left untouched; every tail vector loses its component
    along ``e1``, the normalized first nonzero head vector.  Because the head
    does not span the space there is a unit ``e2`` orthogonal to it, and the
    pair ``e1 +- 2 e2`` has equal coefficient magnitudes on the perturbed
    frame without being collinear.  The squared L2(mu) distance equals the
    tail energy ``sum_tail w_i |<e1, F(x_i)>|^2``, which must be below
    ``epsilon`` for the construction to apply; the perturbed frame's
    certificate must fail.  The tail lies in the complement of ``e1`` and
    the head in that of ``e2``, so neither side of (head, tail) spans: the
    certificate witnesses that split, with the equal-magnitude pair that
    ``phase_retrieval_certify`` builds from it, unless the rank test finds
    a side spanning, when the full certifier decides.  Only that certifier
    reads further splits, so only it can refuse for the atom cap.
    """
    _require_finite_epsilon(epsilon)
    n, d = frame.n_atoms, frame.dim
    head_ids = _validate_subset(head, n, "head")
    tail_ids = [i for i in range(n) if i not in set(head_ids)]
    v = frame.vectors

    anchor = next((i for i in head_ids if np.linalg.norm(v[i]) > 0.0), None)
    if anchor is None:
        raise ValueError("every head vector is zero; no direction to anchor the construction")
    e1 = v[anchor] / np.linalg.norm(v[anchor])

    head_null = annihilator(v[list(head_ids)], d, rank_tol)
    if head_null.shape[1] == 0:
        raise ValueError("head vectors span the whole space; no orthogonal direction exists")
    e2 = head_null[:, 0]

    tail_coeff = np.conj(v[tail_ids]) @ e1  # <e1, F(x_i)> for tail atoms
    tail_energy = float(np.sum(frame.weights[tail_ids] * np.abs(tail_coeff) ** 2))
    if not tail_energy < epsilon:
        raise ValueError(
            f"tail energy {tail_energy} is not below epsilon {epsilon}; "
            "enlarge epsilon or choose a head whose direction carries less tail mass"
        )

    new_rows = np.array(v)
    new_rows[tail_ids] = v[tail_ids] - np.outer(np.conj(tail_coeff), e1)
    perturbed = frame.with_vectors(new_rows)

    wf = e1 + 2.0 * e2
    wg = e1 - 2.0 * e2
    mf = magnitudes(perturbed, wf).values
    mg = magnitudes(perturbed, wg).values
    scale = 1.0 + float(max(mf.max(), mg.max()))
    if np.max(np.abs(mf - mg)) > DEFAULT_MATCH_TOL * scale:
        raise FramelabError("construction error: witness magnitudes differ beyond tolerance")
    if abs(inner(wf, wg)) >= np.linalg.norm(wf) * np.linalg.norm(wg) - 1e-9:
        raise FramelabError("construction error: witness vectors are collinear")

    new_bounds = frame_bounds(perturbed)
    if epsilon < frame_bounds(frame).lower and not new_bounds.is_frame:
        raise FramelabError("construction error: perturbed family lost the frame property")
    # (head, tail) is the split the construction breaks; every split is walked only when it does not fail.
    split = _scan_split(n, head_ids)
    if _deficient(perturbed.vectors, [split], rank_tol)[0]:
        certificate = _pr_failure(perturbed, split[0], rank_tol)
    else:
        certificate = phase_retrieval_certify(perturbed, rank_tol, cap)
    if certificate.verdict != FAILS:
        raise FramelabError("construction error: perturbed frame still does phase retrieval")

    return PerturbationResult(
        perturbed=perturbed,
        witness_f=wf,
        witness_g=wg,
        l2_distance=tail_energy,
        new_bounds=new_bounds,
        certificate=certificate,
    )


def break_norm_retrieval(
    frame: Frame,
    subset: Sequence[int],
    epsilon: float,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> PerturbationResult:
    """Destroy norm retrieval by an epsilon-perturbation supported on ``subset``.

    Requires a real frame that does norm retrieval but not phase retrieval:
    the subset and its complement must both have nontrivial null spaces,
    with unit null directions ``f`` and ``g`` that are orthogonal.  Each row
    in the subset is shifted by ``epsilon * <F(x), g> f / (2 sqrt(B))``.
    Afterwards ``w1 = 2 sqrt(B) f + epsilon g`` annihilates the perturbed
    subset rows, ``w2 = g`` annihilates the untouched complement rows, and
    ``<w1, w2> = epsilon > 0`` breaks the null-space orthogonality that norm
    retrieval demands.  Requires ``0 <= epsilon < 2 sqrt(A)`` so the result
    is still a frame; for ``epsilon > 0`` its certificate must fail.

    The input is certified with ``norm_retrieval_certify``, whose identity
    test settles a repeated orthonormal basis, or any input whose rank-one
    projections span I, with no split visited.  The output is tested on
    (subset, complement) alone, and the certificate witnesses that split
    when its null spaces overlap by more than ``ortho_tol``.
    Otherwise, as at ``epsilon = 0``, the full certifier decides, and a
    positive ``epsilon`` whose overlap it does not see either is refused
    with ValueError, as too small for ``ortho_tol``.  The annihilation
    self-checks are relative to ``|w|`` times the largest atom norm, so
    scaling the frame does not change whether the construction applies.
    """
    _require_finite_epsilon(epsilon)
    if frame.field != "real":
        raise ValueError("the norm retrieval perturbation is only defined over the real field")
    n, d = frame.n_atoms, frame.dim
    subset_ids = _validate_subset(subset, n, "subset")
    comp_ids = [i for i in range(n) if i not in set(subset_ids)]
    if not comp_ids:
        raise ValueError("subset must leave at least one atom in the complement")

    bounds = frame_bounds(frame)
    if not bounds.is_frame:
        raise ValueError("input family is not a frame")
    root_b = float(np.sqrt(bounds.upper))
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if not epsilon < 2.0 * np.sqrt(bounds.lower):
        raise ValueError(
            f"epsilon must stay below 2*sqrt(lower bound) = {2.0 * np.sqrt(bounds.lower)}"
        )

    v = frame.vectors
    f_dirs = annihilator(v[list(subset_ids)], d, rank_tol)
    g_dirs = annihilator(v[comp_ids], d, rank_tol)
    if f_dirs.shape[1] == 0 or g_dirs.shape[1] == 0:
        raise ValueError(
            "no qualifying subset: both the subset and its complement must have "
            "rank-deficient rows (a phase retrieval frame admits none)"
        )
    if norm_retrieval_certify(frame, ortho_tol, rank_tol, cap).verdict != HOLDS:
        raise ValueError("input frame must do norm retrieval before breaking it")
    f = f_dirs[:, 0]
    g = g_dirs[:, 0]
    # Norm retrieval of the input forces these null directions to be orthogonal.
    if abs(inner(f, g)) > ortho_tol:
        raise FramelabError("construction error: null directions are not orthogonal")

    delta = np.zeros_like(v)
    sub = list(subset_ids)
    coeff = v[sub] @ g  # <F(x), g> on the subset, real field
    delta[sub] = np.outer(coeff, f) / (2.0 * root_b)
    norms = np.linalg.norm(delta[sub], axis=1)
    if not np.all(norms < 1.0):
        raise FramelabError("construction error: a perturbation direction reached unit norm")

    # The perturbation acts on measurements as an operator of norm at most
    # epsilon/2: the weighted subset rows of delta have spectral norm at most
    # 1/2.  Repeated-ONB inputs sit exactly on that bound, hence the slack.
    ceiling = 0.5
    operator_norm = np.linalg.norm(np.sqrt(frame.weights[sub])[:, None] * delta[sub], 2)
    if operator_norm > ceiling + 1e-9 * (1.0 + ceiling):
        raise FramelabError("construction error: perturbation energy exceeds its operator bound")

    perturbed = frame.with_vectors(v - epsilon * delta)
    w1 = 2.0 * root_b * f + epsilon * g
    w2 = g

    # Residuals relative to |w| times the largest atom norm, so that scaling the frame scales both sides.
    top = float(np.linalg.norm(v, axis=1).max())
    if np.max(np.abs(perturbed.vectors[sub] @ w1)) > 1e-8 * np.linalg.norm(w1) * top:
        raise FramelabError("construction error: w1 fails to annihilate the perturbed subset rows")
    if np.max(np.abs(perturbed.vectors[comp_ids] @ w2)) > 1e-8 * np.linalg.norm(w2) * top:
        raise FramelabError("construction error: w2 fails to annihilate the complement rows")
    if abs(float(inner(w1, w2)) - epsilon) > 1e-9 * (1.0 + epsilon):
        raise FramelabError("construction error: <w1, w2> != epsilon")

    new_bounds = frame_bounds(perturbed)
    if not new_bounds.is_frame:
        raise FramelabError("construction error: perturbed family lost the frame property")
    # (subset, complement) is the split the construction breaks; every split is walked only when it does not fail.
    split = _scan_split(n, subset_ids)
    certificate = None
    if _deficient(perturbed.vectors, [split], rank_tol)[0]:
        certificate = _nr_failure(perturbed.vectors, [split], rank_tol, ortho_tol)
    if certificate is None:
        certificate = norm_retrieval_certify(perturbed, ortho_tol, rank_tol, cap)
    if epsilon > 0.0 and certificate.verdict != FAILS:
        raise ValueError(
            f"epsilon {epsilon} is too small to break norm retrieval: the perturbed null spaces "
            f"still meet within ortho_tol {ortho_tol}"
        )

    l2_distance = float(epsilon**2 * np.sum(frame.weights[sub] * norms**2))
    return PerturbationResult(
        perturbed=perturbed,
        witness_f=w1,
        witness_g=w2,
        l2_distance=l2_distance,
        new_bounds=new_bounds,
        certificate=certificate,
    )


def stability_sweep(
    frame: Frame,
    lambdas: Sequence[float],
    trials: int,
    seed: int = 0,
    tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[SweepPoint]:
    """Re-certify phase retrieval under random perturbations of growing radius.

    For each radius ``lam``, draws ``trials`` perturbations uniform on the
    per-atom Euclidean ball of radius ``lam`` (so the sup over atoms of the
    perturbation norm stays below ``lam``) and counts how many perturbed
    frames lose phase retrieval.  One generator, seeded with ``seed``, draws
    a standard normal ``x`` of shape ``(trials, n, d + 2)``; trial ``t``
    moves atom ``i`` by ``lam * x[t, i, :d] / |x[t, i]|``, a point uniform
    on the ball of radius ``lam`` (Voelker, Gosmann & Stewart, 2017), so
    every radius scales one field per trial.
    The input must be a real frame that does phase retrieval, with at
    least one radius and one trial.  The field, the radii, the trial count
    and the seed are checked first, in that order, before anything is
    certified.  The atom cap is checked only by the driver, before it reads
    the first split of a frame, the input or a trial, that the lift and the
    spark stage leave open.

    The radius stage (``_radius_stage``).  The input is scaled once
    (``scaled``), and every stage reads that copy.  It is certified once,
    by its lift (``_lift_reach``), and when the lift's reach leaves a radius
    open, by the spark stage's bounds on its d-subsets (``_spark_reach``);
    each certificate comes with its reach, the largest move of each scaled
    atom it covers, and a radius whose move is under the larger reach gets
    0 failures with no trial drawn.  A trial at radius lam builds atom i as
    fl(v_i + fl(lam g_i)), g_i its computed field, |g_i| <= 1 + (d + 4) eps
    (a norm of d + 2 coordinates and a division); so it moves v_i by at most
    lam (1 + (d + 6) eps) + eps |v_i|, the move ``_radius_moves`` bounds,
    and no trial at a decided radius has a split the scan calls deficient:
    each holds, as it would in ``phase_retrieval_certify``, and none is
    non-finite.  The radii ascend, so the decided radii are a prefix.

    The radii past that prefix are built and certified in blocks of
    trials, every open radius of a trial in its block, each block of at
    most the batch size in entries (at least one trial).  A block's frames
    form one real stack, scaled once.  The lift decides it in one stacked
    SVD, and the frames it leaves open, with their scaled copies, go
    through the driver of ``complement_property``:
    the spark stage decides them at once, and the frames still open go on
    one by one, through the scan's n prefix splits and then the hyperplane
    table.  An input neither stage certifies is decided alone, by the
    same driver, before any trial is drawn.  Each verdict is the one
    ``phase_retrieval_certify`` gives that perturbed frame, so the counts
    do not depend on the blocks.  Each block draws its trials' rows of
    ``x`` at once; the generator fills them in order, so a trial's field
    does not depend on where the blocks are cut, nor on how many radii
    the reaches decided.
    """
    if frame.field != "real":
        raise ValueError(_NOT_PR)
    lams = [float(l) for l in lambdas]
    ascending = all(a <= b for a, b in zip(lams, lams[1:]))
    if not (all(math.isfinite(l) and l >= 0 for l in lams) and ascending):
        raise ValueError("lambdas must be finite, nonnegative and ascending")
    if not lams:
        raise ValueError("lambdas must hold at least one radius")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # The seed is refused here, as the generator would refuse it, even when no trial is drawn.
    seeds = np.random.SeedSequence(seed)

    n, d = frame.n_atoms, frame.dim
    vs = frame.vectors[None]
    w, exponents = scaled(vs)
    decided, certified = _radius_stage(w, exponents, tol, lams)
    refusal = (cap, "complement property certification")
    if not certified and _first_failures(vs, w, tol, _first_subset, *refusal)[0] is not None:
        raise ValueError(_NOT_PR)
    failures = np.zeros(len(lams), dtype=int)
    open_lams = lams[decided:]
    if open_lams:
        scales = np.array(open_lams)[:, None, None, None]
        block = max(1, _BATCH_ENTRIES // (len(open_lams) * n * d))
        rng = np.random.default_rng(seeds)
        for lo in range(0, trials, block):
            count = min(block, trials - lo)
            # The first d of d + 2 normal coordinates, over the norm of all d + 2, are uniform on the unit d-ball.
            x = rng.standard_normal((count, n, d + 2))
            fields = x[..., :d] / np.linalg.norm(x, axis=2, keepdims=True)
            stack = (frame.vectors + scales * fields).reshape(-1, n, d)
            _require_finite(stack)
            w, _ = scaled(stack)
            failed = ~(_lift_margins(w, tol) > 0)
            if failed.any():
                found = _first_failures(stack[failed], w[failed], tol, _first_subset, *refusal)
                failed[failed] = [subset is not None for subset in found]
            failures[decided:] += failed.reshape(len(open_lams), count).sum(axis=1)
    return [SweepPoint(lam=lam, all_preserved=not f, failures=int(f)) for lam, f in zip(lams, failures)]
