from __future__ import annotations

import numpy as np
import pytest

import framelab as fl


def test_tensor_product_shapes_and_weights():
    left = fl.gen_mercedes()
    right = fl.gen_onb(2)
    product = fl.tensor_product(left, right).product
    assert product.n_atoms == 6
    assert product.dim == 4
    expected_weights = np.outer(left.weights, right.weights).ravel()
    assert np.allclose(product.weights, expected_weights)


def test_tensor_rows_are_kronecker_products():
    left = fl.gen_random(2, 3, seed=0)
    right = fl.gen_random(3, 2, seed=1)
    product = fl.tensor_product(left, right).product
    k = 0
    for i in range(3):
        for j in range(2):
            assert np.allclose(product.vectors[k], np.kron(left.vectors[i], right.vectors[j]))
            k += 1


def test_tensor_bounds_multiply():
    left = fl.gen_mercedes()
    right = fl.gen_random(2, 4, seed=2)
    lb = fl.frame_bounds(left)
    rb = fl.frame_bounds(right)
    pb = fl.frame_bounds(fl.tensor_product(left, right).product)
    assert pb.lower == pytest.approx(lb.lower * rb.lower, rel=1e-9)
    assert pb.upper == pytest.approx(lb.upper * rb.upper, rel=1e-9)


def test_tensor_mercedes_squared_bounds():
    m = fl.gen_mercedes()
    bounds = fl.frame_bounds(fl.tensor_product(m, m).product)
    assert bounds.lower == pytest.approx(2.25, abs=1e-9)
    assert bounds.upper == pytest.approx(2.25, abs=1e-9)


def test_tensor_analysis_factorizes():
    left = fl.gen_random(2, 3, seed=3)
    right = fl.gen_random(2, 3, seed=4)
    product = fl.tensor_product(left, right).product
    rng = np.random.default_rng(5)
    f = rng.standard_normal(2)
    g = rng.standard_normal(2)
    coeffs = fl.analysis(product, np.kron(f, g)).values
    expected = np.outer(fl.analysis(left, f).values, fl.analysis(right, g).values).ravel()
    assert np.allclose(coeffs, expected)


def test_tensor_field_mismatch():
    left = fl.gen_onb(2)
    right = fl.gen_random(2, 3, seed=0, field="complex")
    with pytest.raises(ValueError):
        fl.tensor_product(left, right)


def test_tensor_labels_combine_when_present():
    left = fl.Frame(fl.make_atomic([1.0], labels=["a"]), np.array([[1.0]]))
    right = fl.Frame(fl.make_atomic([1.0], labels=["b"]), np.array([[1.0]]))
    product = fl.tensor_product(left, right).product
    assert product.space.atoms[0].label == "(a,b)"
    unlabeled = fl.tensor_product(left, fl.gen_onb(1)).product
    assert unlabeled.space.atoms[0].label is None


@pytest.mark.parametrize("left_labels, right_labels", [
    (["a", "b"], ["x", "y", "z"]),
    (None, None),
    (["a", "b"], None),
    (None, ["x", "y", "z"]),
    (["a", None], ["x", "y", None]),
])
def test_tensor_product_space_is_the_checked_product_measure(left_labels, right_labels):
    left = fl.Frame(fl.make_atomic([0.5, 3.0], left_labels), np.eye(2))
    right = fl.Frame(fl.make_atomic([0.1, 2.0, 0.7], right_labels), np.array([[1.0], [2.0], [-1.0]]))
    space = fl.tensor_product(left, right).product.space
    atoms = []
    for a in left.space.atoms:
        for b in right.space.atoms:
            label = None if a.label is None or b.label is None else f"({a.label},{b.label})"
            atoms.append(fl.Atom(len(atoms), a.weight * b.weight, label))
    assert [(a.index, np.float64(a.weight).tobytes(), a.label) for a in space.atoms] == [
        (a.index, np.float64(a.weight).tobytes(), a.label) for a in atoms
    ]
    assert all(type(a.weight) is float for a in space.atoms)
    assert space.weights.tobytes() == np.array([a.weight for a in atoms]).tobytes()
    assert not space.weights.flags.writeable


def test_tensor_pr_product_fails_when_either_factor_fails():
    m = fl.gen_mercedes()
    onb = fl.gen_onb(2)
    report = fl.tensor_pr_check(fl.tensor_product(m, onb))
    assert report.left_pr.holds
    assert report.right_pr.verdict == fl.FAILS
    assert report.product_pr.verdict == fl.FAILS
    assert report.theorem_consistent


def test_tensor_pr_mercedes_pair_consistent():
    m = fl.gen_mercedes()
    report = fl.tensor_pr_check(fl.tensor_product(m, m))
    assert report.product_pr.holds
    assert report.theorem_consistent


def test_tensor_pr_rejects_complex():
    c = fl.gen_random(2, 3, seed=0, field="complex")
    with pytest.raises(ValueError):
        fl.tensor_pr_check(fl.tensor_product(c, c))


def test_tensor_nr_parseval_left_onb_right():
    left = fl.parsevalize(fl.gen_mercedes())
    right = fl.gen_onb(2)
    report = fl.tensor_nr_check(fl.tensor_product(left, right))
    assert report.left_nr.holds
    assert report.right_nr.holds
    assert report.product_nr.holds
    assert report.consistent


def test_tensor_nr_of_harmonic_times_onb_walks_no_split(monkeypatch):
    # harmonic(3, 5), onb(3) and their product (15 atoms in R^9, where the lift needs 45) are tight
    # frames, so the identity test settles all three certificates; walking the product's splits
    # took about a second.
    def refuse(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr("framelab.retrieval._walk", refuse)
    report = fl.tensor_nr_check(fl.tensor_product(fl.gen_harmonic(3, 5), fl.gen_onb(3)))
    assert report.consistent
    certs = (report.left_nr, report.right_nr, report.product_nr)
    assert [(c.verdict, c.method) for c in certs] == [(fl.HOLDS, "nr-identity-span")] * 3


def test_tensor_nr_requires_parseval_left():
    left = fl.gen_mercedes()
    with pytest.raises(ValueError):
        fl.tensor_nr_check(fl.tensor_product(left, fl.gen_onb(2)))


def test_tensor_nr_requires_nr_right():
    left = fl.gen_onb(2)
    right = fl.Frame(fl.make_atomic(np.ones(2)), np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert fl.norm_retrieval_certify(right).verdict == fl.FAILS
    with pytest.raises(ValueError):
        fl.tensor_nr_check(fl.tensor_product(left, right))


def test_tensor_product_of_parsevals_is_parseval():
    left = fl.gen_harmonic(2, 4)
    right = fl.gen_harmonic(2, 3)
    product = fl.tensor_product(left, right).product
    assert np.allclose(fl.frame_operator(product), np.eye(4), atol=1e-10)


def test_tensor_onb_pair_bounds():
    bounds = fl.frame_bounds(fl.tensor_product(fl.gen_onb(2), fl.gen_onb(2)).product)
    assert bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)


def test_tensor_left_rank_deficiency_kills_lower_bound():
    left = fl.Frame(fl.make_atomic(np.ones(2)), np.array([[1.0, 0.0], [2.0, 0.0]]))
    product = fl.tensor_product(left, fl.gen_onb(2)).product
    bounds = fl.frame_bounds(product)
    assert bounds.lower == pytest.approx(0.0, abs=1e-12)
    assert not bounds.is_frame


def test_tensor_inner_product_factorizes():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, c = rng.standard_normal((2, 3))
        b, d = rng.standard_normal((2, 4))
        lhs = fl.inner(np.kron(a, b), np.kron(c, d))
        rhs = fl.inner(a, c) * fl.inner(b, d)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_tensor_bounds_multiply_across_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(8):
        d1, d2 = rng.integers(1, 4, size=2)
        left = fl.gen_random(int(d1), int(d1) + int(rng.integers(0, 3)), seed=int(rng.integers(0, 100)))
        right = fl.gen_random(int(d2), int(d2) + int(rng.integers(0, 3)), seed=int(rng.integers(0, 100)))
        lb, rb = fl.frame_bounds(left), fl.frame_bounds(right)
        pb = fl.frame_bounds(fl.tensor_product(left, right).product)
        assert pb.lower == pytest.approx(lb.lower * rb.lower, rel=1e-8, abs=1e-10)
        assert pb.upper == pytest.approx(lb.upper * rb.upper, rel=1e-8, abs=1e-10)
