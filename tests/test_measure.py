from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab as fl


def test_make_atomic_basic():
    space = fl.make_atomic([0.5, 1.5, 2.0])
    assert len(space) == 3
    assert space.total_mass == pytest.approx(4.0)
    assert space.eta == pytest.approx(0.5)
    assert [a.index for a in space.atoms] == [0, 1, 2]


def test_make_atomic_labels():
    space = fl.make_atomic([1.0, 1.0], labels=["a", "b"])
    assert [a.label for a in space.atoms] == ["a", "b"]


def test_atom_rejects_bad_weight():
    with pytest.raises(ValueError):
        fl.Atom(0, 0.0)
    with pytest.raises(ValueError):
        fl.Atom(0, -1.0)
    with pytest.raises(ValueError):
        fl.Atom(0, float("inf"))


def test_make_atomic_rejects_empty():
    with pytest.raises(ValueError):
        fl.make_atomic([])


def test_make_atomic_builds_the_atoms_and_weights_of_the_checked_constructors():
    weights, labels = [0.5, 2, np.float64(1.5)], ["a", None, "c"]
    space = fl.make_atomic(weights, labels)
    reference = tuple(fl.Atom(k, w, label) for k, (w, label) in enumerate(zip(weights, labels)))
    assert space.atoms == reference
    assert all(type(a.weight) is float for a in space.atoms)
    assert space.weights.tobytes() == np.array([a.weight for a in reference]).tobytes()
    assert space.labels == ("a", None, "c")
    assert not space.weights.flags.writeable


@pytest.mark.parametrize("weights", [
    (w for w in [0.5, 2.0, 1.5]),
    np.array([0.5, 2.0, 1.5]),
    np.array([0.5, 2.0, 1.5], dtype=np.float32),
])
def test_make_atomic_takes_a_generator_or_an_array_of_weights(weights):
    space = fl.make_atomic(weights)
    reference = tuple(fl.Atom(k, w) for k, w in enumerate([0.5, 2.0, 1.5]))
    assert space.atoms == reference
    assert all(type(a.weight) is float for a in space.atoms)
    assert space.weights.tobytes() == np.array([a.weight for a in reference]).tobytes()
    assert not space.weights.flags.writeable


def test_make_atomic_reports_a_bad_array_weight_as_a_float():
    with pytest.raises(ValueError) as exc:
        fl.make_atomic(np.array([1.0, -2.0]))
    assert str(exc.value) == "atom 1: weight must be positive and finite, got -2.0"
    with pytest.raises(ValueError) as exc:
        fl.make_atomic(w for w in [1.0, 0.0])
    assert str(exc.value) == "atom 1: weight must be positive and finite, got 0.0"


@pytest.mark.parametrize("weights, labels, message", [
    ([1.0, -1.0, float("nan")], None, "atom 1: weight must be positive and finite, got -1.0"),
    ([1.0, 0.0], None, "atom 1: weight must be positive and finite, got 0.0"),
    ([float("inf")], None, "atom 0: weight must be positive and finite, got inf"),
    # Atom by atom, the bad weight of atom 1 comes before atom 2's conversion error.
    ([1.0, -2.0, "x"], None, "atom 1: weight must be positive and finite, got -2.0"),
    (["x", -2.0], None, "could not convert string to float: 'x'"),
    ([], None, "a measure space needs at least one atom"),
    ([-1.0], ["a", "b"], "labels and weights must have the same length"),
])
def test_make_atomic_keeps_the_errors_of_the_checked_constructors(weights, labels, message):
    with pytest.raises(ValueError) as exc:
        fl.make_atomic(weights, labels)
    assert str(exc.value) == message


def test_weights_are_read_only():
    space = fl.make_atomic([1.0, 2.0])
    with pytest.raises(ValueError):
        space.weights[0] = 5.0


def test_quadrature_midpoint_weights():
    space = fl.quadrature_discretize(0.0, 1.0, 4, lambda x: 2.0 * x + 0.5)
    # Midpoints 1/8, 3/8, 5/8, 7/8 with cell width 1/4.
    expected = np.array([0.75, 1.25, 1.75, 2.25]) * 0.25
    assert np.allclose(space.weights, expected)
    assert space.total_mass == pytest.approx(1.5)


def test_quadrature_constant_density_mass():
    space = fl.quadrature_discretize(-2.0, 3.0, 10, lambda x: 1.0)
    assert space.total_mass == pytest.approx(5.0)
    assert space.eta == pytest.approx(0.5)


def test_quadrature_drops_zero_cells():
    space = fl.quadrature_discretize(0.0, 1.0, 4, lambda x: 1.0 if x > 0.5 else 0.0)
    assert len(space) == 2


def test_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        fl.quadrature_discretize(1.0, 0.0, 4, lambda x: 1.0)
    with pytest.raises(ValueError):
        fl.quadrature_discretize(0.0, 1.0, 0, lambda x: 1.0)
    with pytest.raises(ValueError):
        fl.quadrature_discretize(0.0, 1.0, 4, lambda x: 0.0)
    with pytest.raises(ValueError):
        fl.quadrature_discretize(0.0, 1.0, 4, lambda x: -1.0)


def test_quadrature_labels_carry_midpoints():
    space = fl.quadrature_discretize(0.0, 1.0, 2, lambda x: 1.0)
    assert space.atoms[0].label == "x=0.25"
    assert space.atoms[1].label == "x=0.75"


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=20))
def test_eta_is_min_weight(weights):
    space = fl.make_atomic(weights)
    assert space.eta == pytest.approx(min(weights))
    assert space.total_mass == pytest.approx(sum(weights))


def test_quadrature_linear_density_two_cells():
    space = fl.quadrature_discretize(0.0, 2.0, 2, lambda x: x)
    assert np.allclose(space.weights, [0.5, 1.5])


def test_quadrature_uniform_ten_cells_eta():
    space = fl.quadrature_discretize(0.0, 1.0, 10, lambda x: 1.0)
    assert space.eta == pytest.approx(0.1)


def test_quadrature_refinement_halves_eta():
    coarse = fl.quadrature_discretize(0.0, 1.0, 8, lambda x: 1.0)
    fine = fl.quadrature_discretize(0.0, 1.0, 16, lambda x: 1.0)
    assert fine.eta == pytest.approx(coarse.eta / 2.0)
    assert fine.total_mass == pytest.approx(coarse.total_mass)
