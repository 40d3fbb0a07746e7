"""Tensor products of frames and the retrieval properties they inherit.

The product of frames ``F1`` (n1 vectors in dimension d1) and ``F2`` (n2 in
d2) lives on the product measure space: atom ``(i, j)`` has weight
``w_i * v_j`` and vector ``vec(F1(x_i) (x) F2(y_j))`` flattened row-major,
i.e. the Kronecker product of the two rows.  Under that identification the
inner product factorizes, the frame operator is the Kronecker product of
the factor operators, and the bounds multiply.

Phase retrieval transfers exactly: the product does phase retrieval iff
both factors do.  For norm retrieval the useful sufficient direction is
``left Parseval + right norm retrieval => product norm retrieval``, and
conversely a norm retrieval product forces both factors to be norm
retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_ENUM_CAP, DEFAULT_ORTHO_TOL, DEFAULT_RANK_TOL
from .frames import Frame, frame_bounds
from .measure import make_atomic
from .retrieval import (
    Certificate,
    HOLDS,
    norm_retrieval_certify,
    phase_retrieval_certify,
)

__all__ = ["TensorFrame", "TensorPRReport", "TensorNRReport", "tensor_product", "tensor_pr_check", "tensor_nr_check"]


@dataclass(frozen=True, eq=False)
class TensorFrame:
    left: Frame
    right: Frame
    product: Frame


@dataclass(frozen=True, eq=False)
class TensorPRReport:
    left_pr: Certificate
    right_pr: Certificate
    product_pr: Certificate
    theorem_consistent: bool


@dataclass(frozen=True, eq=False)
class TensorNRReport:
    left_nr: Certificate
    right_nr: Certificate
    product_nr: Certificate
    consistent: bool


def tensor_product(left: Frame, right: Frame) -> TensorFrame:
    """Form the product frame on the product measure space.

    Atom order is row-major in (left, right): the product atom ``(i, j)``
    sits at flat index ``i * n2 + j``, matching the row-major flattening of
    the rank-one product vectors.
    """
    if left.field != right.field:
        raise ValueError(f"field mismatch: {left.field} vs {right.field}")
    labels = [
        None if a is None or b is None else f"({a},{b})"
        for a in left.space.labels
        for b in right.space.labels
    ]
    space = make_atomic(np.outer(left.weights, right.weights).ravel(), labels)
    vectors = np.einsum("ia,jb->ijab", left.vectors, right.vectors).reshape(
        left.n_atoms * right.n_atoms, left.dim * right.dim
    )
    return TensorFrame(left=left, right=right, product=Frame(space, vectors))


def tensor_pr_check(
    tensor: TensorFrame,
    tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> TensorPRReport:
    """Certify both factors and the already-built product, and check the transfer law.

    The expected law over the real field: the product does phase retrieval
    exactly when both factors do.
    """
    left, right = tensor.left, tensor.right
    if left.field != "real" or right.field != "real":
        raise ValueError("the phase retrieval transfer check is only defined over the real field")
    left_pr = phase_retrieval_certify(left, tol, cap)
    right_pr = phase_retrieval_certify(right, tol, cap)
    product_pr = phase_retrieval_certify(tensor.product, tol, cap)
    expected = left_pr.verdict == HOLDS and right_pr.verdict == HOLDS
    return TensorPRReport(
        left_pr=left_pr,
        right_pr=right_pr,
        product_pr=product_pr,
        theorem_consistent=(product_pr.verdict == HOLDS) == expected,
    )


def tensor_nr_check(
    tensor: TensorFrame,
    rank_tol: float = DEFAULT_RANK_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> TensorNRReport:
    """Check the norm retrieval transfer for a Parseval left factor of an already-built product.

    Preconditions: real field, the left factor Parseval (both frame bounds
    within 1e-8 of 1) and the right factor norm retrieval.  The product
    must then be norm retrieval, and conversely a norm retrieval product
    forces both factors to be norm retrieval, so ``consistent`` demands all
    three certificates hold.  Each is certified at the orthogonality
    tolerance ``DEFAULT_ORTHO_TOL``.
    """
    left, right = tensor.left, tensor.right
    if left.field != "real" or right.field != "real":
        raise ValueError("the norm retrieval transfer check is only defined over the real field")
    lb = frame_bounds(left)
    if abs(lb.lower - 1.0) > 1e-8 or abs(lb.upper - 1.0) > 1e-8:
        raise ValueError(
            f"left factor must be Parseval; its bounds are ({lb.lower}, {lb.upper})"
        )
    right_nr = norm_retrieval_certify(right, DEFAULT_ORTHO_TOL, rank_tol, cap)
    if right_nr.verdict != HOLDS:
        raise ValueError("right factor must do norm retrieval")
    product_nr = norm_retrieval_certify(tensor.product, DEFAULT_ORTHO_TOL, rank_tol, cap)
    # Converse direction: a norm retrieval product needs norm retrieval factors.
    left_nr = norm_retrieval_certify(left, DEFAULT_ORTHO_TOL, rank_tol, cap)
    consistent = product_nr.verdict == HOLDS and left_nr.verdict == HOLDS and right_nr.verdict == HOLDS
    return TensorNRReport(
        left_nr=left_nr,
        right_nr=right_nr,
        product_nr=product_nr,
        consistent=consistent,
    )
