"""Finite atomic measure spaces and midpoint quadrature discretizations.

Every measure space here is a finite list of atoms with strictly positive
weights.  The quantity ``eta`` (the smallest weight) is the discrete stand-in
for the infimum of positive subset measures and feeds the Bessel bound
``max_x ||F(x)|| <= sqrt(B / eta)`` checked in :mod:`framelab.frames`.

A space holds its weights as one read-only float array, checked by one
vector test, and its labels as a tuple.  Atom ``k`` is the pair at position
``k``; the ``Atom`` records are built only when ``atoms`` is read, so
loading and certifying a frame builds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Atom", "MeasureSpace", "make_atomic", "quadrature_discretize"]


@dataclass(frozen=True)
class Atom:
    """A point mass: positive finite weight, optional human-readable label."""

    index: int
    weight: float
    label: str | None = None

    def __post_init__(self) -> None:
        w = float(self.weight)
        if not math.isfinite(w) or w <= 0.0:
            raise ValueError(f"atom {self.index}: weight must be positive and finite, got {self.weight!r}")
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """A non-empty, ordered list of atoms: a read-only weight array and a label tuple.

    ``weights`` is any iterable of numbers, such as a list, a generator or
    a numpy array; ``labels``, when given, must be as long as ``weights``.
    Atom ``k`` is ``Atom(k, float(weights[k]), labels[k])`` (the ``float``
    puts a numpy weight into an error message as a plain number).  When the
    vector test of the weights fails, those atoms are built one at a time,
    in order, so the error raised is the first failing atom's own.
    """

    weights: np.ndarray
    labels: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        weights, labels = self.weights, self.labels
        if not isinstance(weights, np.ndarray):
            weights = list(weights)
        if labels is not None and len(labels) != len(weights):
            raise ValueError("labels and weights must have the same length")
        if len(weights) == 0:
            raise ValueError("a measure space needs at least one atom")
        try:
            w = np.array(weights, dtype=float)
            checked = w.ndim == 1 and bool(((w > 0.0) & (w < math.inf)).all())
        except (TypeError, ValueError, OverflowError):
            checked = False
        if not checked:
            w = np.array([Atom(k, float(x)).weight for k, x in enumerate(weights)])
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", (None,) * len(w) if labels is None else tuple(labels))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The ``Atom`` at each position, built on every read."""
        return tuple(Atom(k, w, label) for k, (w, label) in enumerate(zip(self.weights.tolist(), self.labels)))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def eta(self) -> float:
        """Smallest atom weight: the minimum measure of a non-null subset."""
        return float(self.weights.min())


def make_atomic(weights: Iterable[float], labels: Sequence[str | None] | None = None) -> MeasureSpace:
    """Build a measure space from positive weights and optional labels: ``MeasureSpace(weights, labels)``."""
    return MeasureSpace(weights, labels)


def quadrature_discretize(
    a: float,
    b: float,
    cells: int,
    density: Callable[[float], float],
) -> MeasureSpace:
    """Discretize the interval ``[a, b]`` into ``cells`` midpoint-rule atoms.

    Each cell of width ``h = (b - a) / cells`` contributes one atom located at
    the cell midpoint ``m`` with weight ``density(m) * h``.  Cells whose weight
    is exactly zero are dropped; if every cell vanishes the measure is
    degenerate and a ValueError is raised.  Negative or non-finite density
    values are rejected.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
        raise ValueError(f"need a finite interval with a < b, got [{a}, {b}]")
    if cells < 1:
        raise ValueError("cells must be a positive integer")
    h = (b - a) / cells
    weights: list[float] = []
    labels: list[str] = []
    for k in range(cells):
        m = a + (k + 0.5) * h
        val = float(density(m))
        if not np.isfinite(val) or val < 0.0:
            raise ValueError(f"density must be finite and nonnegative; got {val!r} at x={m!r}")
        w = val * h
        if w == 0.0:
            continue
        weights.append(w)
        labels.append(f"x={m:.12g}")
    if not weights:
        raise ValueError("degenerate measure: the density vanishes on every cell midpoint")
    return make_atomic(weights, labels)
