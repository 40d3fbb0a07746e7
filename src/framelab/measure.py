"""Finite atomic measure spaces and midpoint quadrature discretizations.

Every measure space here is a finite list of atoms with strictly positive
weights.  The quantity ``eta`` (the smallest weight) is the discrete stand-in
for the infimum of positive subset measures and feeds the Bessel bound
``max_x ||F(x)|| <= sqrt(B / eta)`` checked in :mod:`framelab.frames`.
"""

from __future__ import annotations

import itertools
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
    """An ordered, non-empty tuple of atoms with cached weight vector."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a measure space needs at least one atom")
        for k, atom in enumerate(self.atoms):
            if atom.index != k:
                raise ValueError(f"atom at position {k} has index {atom.index}; indices must be 0,1,2,...")
        w = np.array([a.weight for a in self.atoms], dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "_weights", w)

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def total_mass(self) -> float:
        return float(self._weights.sum())

    @property
    def eta(self) -> float:
        """Smallest atom weight: the minimum measure of a non-null subset."""
        return float(self._weights.min())


def make_atomic(weights: Iterable[float], labels: Sequence[str | None] | None = None) -> MeasureSpace:
    """Build a measure space from positive weights and optional labels.

    ``weights`` is any iterable of numbers, such as a list, a generator or
    a numpy array; ``labels``, when given, must be as long as ``weights``.
    Atom ``k`` is ``Atom(k, float(weights[k]), labels[k])`` (the ``float``
    puts a numpy weight into an error message as a plain number), and the
    space is the ``MeasureSpace`` of those atoms, so every check and its
    error is theirs, raised for the first atom that fails it.
    """
    if labels is not None and len(labels) != len(weights):
        raise ValueError("labels and weights must have the same length")
    names = itertools.repeat(None) if labels is None else labels
    return MeasureSpace(tuple(Atom(k, float(w), label) for k, (w, label) in enumerate(zip(weights, names))))


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
