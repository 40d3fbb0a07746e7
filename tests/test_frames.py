from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab as fl


def test_inner_convention():
    u = np.array([1.0 + 2.0j, 0.0])
    v = np.array([3.0 - 1.0j, 5.0])
    # Linear in the first slot, conjugate-linear in the second.
    assert fl.inner(u, v) == pytest.approx((1 + 2j) * np.conj(3 - 1j))
    assert fl.inner(2.0 * u, v) == pytest.approx(2.0 * fl.inner(u, v))
    assert fl.inner(u, 2.0j * v) == pytest.approx(-2.0j * fl.inner(u, v))


def test_mercedes_analysis_values():
    frame = fl.gen_mercedes()
    coeffs = fl.analysis(frame, np.array([1.0, 0.0]))
    assert np.allclose(coeffs.values, [1.0, -0.5, -0.5])


def test_mercedes_frame_operator_and_bounds():
    frame = fl.gen_mercedes()
    op = fl.frame_operator(frame)
    assert np.allclose(op, 1.5 * np.eye(2), atol=1e-12)
    bounds = fl.frame_bounds(frame)
    assert bounds.lower == pytest.approx(1.5, abs=1e-12)
    assert bounds.upper == pytest.approx(1.5, abs=1e-12)
    assert bounds.is_frame


def test_onb_is_parseval():
    frame = fl.gen_onb(3)
    assert np.allclose(fl.frame_operator(frame), np.eye(3))


def test_synthesis_adjoint_identity():
    frame = fl.gen_random(3, 6, seed=4)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(3)
    coeffs = fl.analysis(frame, f)
    # Synthesis of analysis coefficients applies the frame operator.
    assert np.allclose(fl.synthesis(frame, coeffs), fl.frame_operator(frame) @ f)


def test_synthesis_rejects_foreign_space():
    frame = fl.gen_onb(2)
    other = fl.CoefficientVector(np.ones(2), fl.make_atomic([2.0, 2.0]))
    with pytest.raises(ValueError):
        fl.synthesis(frame, other)


def test_weighted_energy_matches_operator_quadratic_form():
    frame = fl.gen_random(4, 9, seed=8)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(4)
    coeffs = fl.analysis(frame, f)
    energy = float(np.sum(frame.weights * np.abs(coeffs.values) ** 2))
    quad = float(np.real(fl.inner(fl.frame_operator(frame) @ f, f)))
    assert energy == pytest.approx(quad, rel=1e-12)


def test_frame_bounds_detect_rank_deficiency():
    vectors = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    frame = fl.Frame(fl.make_atomic(np.ones(3)), vectors)
    bounds = fl.frame_bounds(frame)
    assert bounds.lower == pytest.approx(0.0, abs=1e-12)
    assert not bounds.is_frame
    assert not fl.is_mu_complete(frame)


def test_is_mu_complete_spanning():
    assert fl.is_mu_complete(fl.gen_random(3, 5, seed=1))


def test_weights_enter_frame_operator():
    vectors = np.eye(2)
    frame = fl.Frame(fl.make_atomic([2.0, 0.5]), vectors)
    assert np.allclose(fl.frame_operator(frame), np.diag([2.0, 0.5]))
    bounds = fl.frame_bounds(frame)
    assert bounds.lower == pytest.approx(0.5)
    assert bounds.upper == pytest.approx(2.0)


def test_bessel_norm_bound_on_weighted_frame():
    rng = np.random.default_rng(3)
    frame = fl.Frame(
        fl.make_atomic(rng.uniform(0.2, 1.5, size=6)),
        rng.standard_normal((6, 3)),
    )
    report = fl.bessel_norm_bound_check(frame)
    assert report.holds
    assert report.max_norm <= report.bound + 1e-9


def test_magnitudes_nonnegative():
    frame = fl.gen_random(2, 4, seed=0, field="complex")
    mags = fl.magnitudes(frame, np.array([1.0 + 1.0j, -2.0j]))
    assert np.all(mags.values >= 0.0)


def test_lipschitz_real_global_sign():
    frame = fl.gen_mercedes()
    f = np.array([1.0, 2.0])
    report = fl.lipschitz_check(frame, f, -f)
    # Magnitudes of f and -f agree, so the left side must be zero.
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.holds


def test_lipschitz_complex_global_phase():
    frame = fl.gen_random(2, 5, seed=2, field="complex")
    f = np.array([1.0 + 0.5j, -0.25j])
    g = np.exp(0.7j) * f
    report = fl.lipschitz_check(frame, f, g)
    assert report.lhs == pytest.approx(0.0, abs=1e-9)
    assert report.holds


def test_apply_operator_rotates_vectors():
    frame = fl.gen_onb(2)
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = fl.apply_operator(frame, rot)
    assert np.allclose(rotated.vectors, (rot @ frame.vectors.T).T)
    # Unitary images keep the frame operator spectrum.
    old = np.sort(np.linalg.eigvalsh(fl.frame_operator(frame)))
    new = np.sort(np.linalg.eigvalsh(fl.frame_operator(rotated)))
    assert np.allclose(old, new)


def test_parsevalize_mercedes():
    frame = fl.parsevalize(fl.gen_mercedes())
    assert np.allclose(fl.frame_operator(frame), np.eye(2), atol=1e-12)
    expected = fl.gen_mercedes().vectors * np.sqrt(2.0 / 3.0)
    assert np.allclose(frame.vectors, expected)


def test_parsevalize_projects_any_frame_to_parseval():
    frame = fl.gen_random(3, 7, seed=6)
    tight = fl.parsevalize(frame)
    assert np.allclose(fl.frame_operator(tight), np.eye(3), atol=1e-10)


def test_parsevalize_rejects_non_frame():
    vectors = np.array([[1.0, 0.0], [1.0, 0.0]])
    frame = fl.Frame(fl.make_atomic(np.ones(2)), vectors)
    with pytest.raises(ValueError):
        fl.parsevalize(frame)


def test_harmonic_real_is_parseval():
    for d, n in [(2, 3), (2, 6), (3, 3), (3, 7), (4, 5), (4, 8)]:
        frame = fl.gen_harmonic(d, n)
        assert np.allclose(fl.frame_operator(frame), np.eye(d), atol=1e-10), (d, n)


def test_harmonic_complex_is_parseval():
    for d, n in [(2, 2), (2, 5), (3, 4), (4, 7)]:
        frame = fl.gen_harmonic(d, n, field="complex")
        assert np.allclose(fl.frame_operator(frame), np.eye(d), atol=1e-10), (d, n)


def test_harmonic_preconditions():
    with pytest.raises(ValueError):
        fl.gen_harmonic(3, 2, field="complex")
    with pytest.raises(ValueError):
        fl.gen_harmonic(4, 4, field="real")
    with pytest.raises(ValueError):
        fl.gen_harmonic(3, 2, field="real")


def test_gen_random_is_seeded():
    a = fl.gen_random(3, 5, seed=42)
    b = fl.gen_random(3, 5, seed=42)
    c = fl.gen_random(3, 5, seed=43)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_gen_deficient_plus_tail_shape():
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=0)
    assert frame.n_atoms == 6
    assert frame.dim == 3
    # Head vectors live in the leading coordinate plane.
    assert np.allclose(frame.vectors[:3, 2], 0.0)
    assert fl.frame_bounds(frame).is_frame


def test_frame_field_detection():
    assert fl.gen_onb(2).field == "real"
    assert fl.gen_random(2, 3, seed=0, field="complex").field == "complex"


def test_frame_validation():
    space = fl.make_atomic([1.0, 1.0])
    with pytest.raises(ValueError):
        fl.Frame(space, np.ones((3, 2)))
    with pytest.raises(ValueError):
        fl.Frame(space, np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        fl.Frame(space, np.ones(2))


def test_frame_vectors_read_only():
    frame = fl.gen_onb(2)
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 7.0


def test_synthesis_mercedes_unit_coefficient():
    frame = fl.gen_mercedes()
    coeffs = fl.CoefficientVector(np.array([1.0, 0.0, 0.0]), frame.space)
    assert np.allclose(fl.synthesis(frame, coeffs), [1.0, 0.0])


def test_parseval_reconstruction():
    tight = fl.parsevalize(fl.gen_random(3, 7, seed=6))
    rng = np.random.default_rng(2)
    f = rng.standard_normal(3)
    assert np.allclose(fl.synthesis(tight, fl.analysis(tight, f)), f, atol=1e-10)


def test_frame_bounds_repeated_axis():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    bounds = fl.frame_bounds(fl.Frame(fl.make_atomic(np.ones(3)), vectors))
    assert bounds.lower == pytest.approx(1.0)
    assert bounds.upper == pytest.approx(2.0)


def test_single_atom_is_not_complete_in_the_plane():
    frame = fl.Frame(fl.make_atomic([1.0]), fl.gen_mercedes().vectors[:1])
    assert not fl.is_mu_complete(frame)


def test_bessel_bound_value_mercedes():
    report = fl.bessel_norm_bound_check(fl.gen_mercedes())
    assert report.bound == pytest.approx(np.sqrt(1.5))
    assert report.max_norm == pytest.approx(1.0)
    assert report.holds


def test_bessel_bound_with_tiny_weight():
    vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    frame = fl.Frame(fl.make_atomic([0.01, 1.0, 1.0]), vectors)
    report = fl.bessel_norm_bound_check(frame)
    # eta = 0.01 makes the bound sqrt(1.01 / 0.01), far above the unit norms.
    assert report.bound == pytest.approx(np.sqrt(1.01 / 0.01))
    assert report.holds


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 4),
    n=st.integers(1, 6),
    field=st.sampled_from(["real", "complex"]),
    decades=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_bessel_check_scales_exactly(d, n, field, decades, seed):
    # Power-of-two scaling gives the plain formulas bit for bit wherever they stay in the normal range.
    rng = np.random.default_rng(seed)
    frame = fl.gen_random(d, n, seed=seed, field=field)
    frame = fl.Frame(fl.make_atomic(rng.uniform(0.1, 2.0, size=n)), frame.vectors * 10.0**decades)
    report = fl.bessel_norm_bound_check(frame)
    with np.errstate(over="ignore", under="ignore"):
        bound = float(np.sqrt(fl.frame_bounds(frame).upper / frame.space.eta))
        max_norm = float(np.max(np.linalg.norm(frame.vectors, axis=1)))
    if abs(decades) < 100:
        assert (report.bound, report.max_norm) == (bound, max_norm)
    assert np.isfinite(report.bound) and np.isfinite(report.max_norm) and report.holds


def test_lipschitz_holds_on_random_pairs():
    frame = fl.gen_mercedes()
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = rng.standard_normal(2)
        g = rng.standard_normal(2)
        assert fl.lipschitz_check(frame, f, g).holds


def test_apply_operator_scales_bounds():
    doubled = fl.apply_operator(fl.gen_onb(3), 2.0 * np.eye(3))
    bounds = fl.frame_bounds(doubled)
    assert bounds.lower == pytest.approx(4.0)
    assert bounds.upper == pytest.approx(4.0)


def test_apply_operator_invertible_sandwich():
    frame = fl.gen_random(3, 6, seed=9)
    bounds = fl.frame_bounds(frame)
    rng = np.random.default_rng(7)
    op = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
    sing = np.linalg.svd(op, compute_uv=False)
    assert sing[-1] > 1e-6
    moved = fl.frame_bounds(fl.apply_operator(frame, op))
    assert moved.lower >= bounds.lower * sing[-1] ** 2 - 1e-9
    assert moved.upper <= bounds.upper * sing[0] ** 2 + 1e-9


def test_gen_random_spans():
    assert np.linalg.matrix_rank(fl.gen_random(2, 5, seed=7).vectors) == 2


def test_bounds_attained_by_extremal_vectors():
    frame = fl.gen_random(3, 8, seed=13)
    bounds = fl.frame_bounds(frame)
    eigvals, eigvecs = np.linalg.eigh(fl.frame_operator(frame))
    for column, target in [(0, bounds.lower), (-1, bounds.upper)]:
        f = eigvecs[:, column]
        coeffs = fl.analysis(frame, f)
        energy = float(np.sum(frame.weights * np.abs(coeffs.values) ** 2))
        assert energy == pytest.approx(target, abs=1e-9)


def test_analysis_synthesis_adjoint_identity():
    frame = fl.gen_random(3, 5, seed=3, field="complex")
    rng = np.random.default_rng(6)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c_values = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    coeffs = fl.CoefficientVector(c_values, frame.space)
    lhs = complex(np.sum(frame.weights * fl.analysis(frame, f).values * np.conj(c_values)))
    rhs = complex(fl.inner(f, fl.synthesis(frame, coeffs)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_doubling_weights_doubles_frame_operator():
    frame = fl.gen_random(2, 4, seed=10)
    doubled = fl.Frame(fl.make_atomic(2.0 * frame.weights), frame.vectors)
    assert np.allclose(fl.frame_operator(doubled), 2.0 * fl.frame_operator(frame))


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bounds_sandwich_energy(d, extra, seed):
    n = d + extra
    frame = fl.gen_random(d, n, seed=seed)
    bounds = fl.frame_bounds(frame)
    rng = np.random.default_rng(seed + 1)
    f = rng.standard_normal(d)
    norm2 = float(f @ f)
    coeffs = fl.analysis(frame, f)
    energy = float(np.sum(frame.weights * coeffs.values**2))
    assert bounds.lower * norm2 <= energy + 1e-9 * (1.0 + energy)
    assert energy <= bounds.upper * norm2 + 1e-9 * (1.0 + energy)
