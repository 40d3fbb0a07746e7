from __future__ import annotations

import numpy as np
import pytest

import framelab as fl
from oracles import (
    alpha_grid_oracle_2d,
    brute_force_complement_property,
    norm_retrieval_oracle,
    sign_pattern_pr_oracle,
)


def _unit_frame(vectors, weights=None):
    vectors = np.asarray(vectors, dtype=float)
    if weights is None:
        weights = np.ones(len(vectors))
    return fl.Frame(fl.make_atomic(weights), vectors)


def test_complement_property_mercedes_holds():
    cert = fl.complement_property(fl.gen_mercedes())
    assert cert.verdict == fl.HOLDS
    assert cert.witness_subset is None


def test_complement_property_onb_fails_with_lex_min_witness():
    cert = fl.complement_property(fl.gen_onb(2))
    assert cert.verdict == fl.FAILS
    assert cert.witness_subset == (0,)


def test_complement_property_incomplete_frame_empty_witness():
    frame = fl.gen_random(3, 2, seed=0)
    cert = fl.complement_property(frame)
    assert cert.verdict == fl.FAILS
    assert cert.witness_subset == ()


def test_complement_property_basis_plus_repeat():
    # Four vectors e1, e2, e3, e1 in R^3: dropping the middle two kills both
    # sides, and the earliest such split in subset order contains atom 0.
    vectors = np.vstack([np.eye(3), np.eye(3)[:1]])
    cert = fl.complement_property(_unit_frame(vectors))
    assert cert.verdict == fl.FAILS
    assert cert.witness_subset == (0, 1)


def test_complement_property_matches_brute_force():
    cases = [
        fl.gen_mercedes(),
        fl.gen_onb(2),
        fl.gen_onb(3),
        fl.gen_random(2, 5, seed=1),
        fl.gen_random(3, 6, seed=2),
        fl.gen_random(3, 4, seed=3),
        fl.gen_harmonic(2, 5),
        fl.gen_deficient_plus_tail(3, 2, 3, seed=0),
        _unit_frame(np.vstack([np.eye(2), np.eye(2)])),
    ]
    for frame in cases:
        cert = fl.complement_property(frame)
        assert (cert.verdict == fl.HOLDS) == brute_force_complement_property(frame)


def test_complement_property_witness_is_genuine():
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=1)
    cert = fl.complement_property(frame)
    if cert.verdict == fl.FAILS:
        idx = list(cert.witness_subset)
        co = [i for i in range(frame.n_atoms) if i not in idx]
        v = frame.vectors
        assert np.linalg.matrix_rank(v[idx]) < frame.dim
        assert np.linalg.matrix_rank(v[co]) < frame.dim


def test_complement_property_cap():
    frame = fl.gen_random(2, 26, seed=0)
    with pytest.raises(fl.EnumerationCapExceeded):
        fl.complement_property(frame)
    cert = fl.complement_property(fl.gen_random(2, 5, seed=0), cap=30)
    assert cert.verdict in (fl.HOLDS, fl.FAILS)


def test_pr_real_equivalence_method():
    cert = fl.phase_retrieval_certify(fl.gen_mercedes())
    assert cert.holds
    assert cert.method == "pr-complement-equivalence"
    assert cert.field == "real"


def test_pr_real_failure_carries_equal_magnitude_pair():
    frame = fl.gen_onb(2)
    cert = fl.phase_retrieval_certify(frame)
    assert cert.verdict == fl.FAILS
    f, g = cert.witness_vectors
    mf = fl.magnitudes(frame, f).values
    mg = fl.magnitudes(frame, g).values
    assert np.allclose(mf, mg, atol=1e-12)
    assert np.linalg.norm(f - g) > 1e-6
    assert np.linalg.norm(f + g) > 1e-6


def test_pr_matches_sign_pattern_oracle_spot():
    for frame in [
        fl.gen_mercedes(),
        fl.gen_onb(3),
        fl.gen_random(2, 4, seed=4),
        fl.gen_random(3, 7, seed=5),
        fl.gen_harmonic(2, 5),
    ]:
        cert = fl.phase_retrieval_certify(frame)
        assert cert.verdict == sign_pattern_pr_oracle(frame)


def test_pr_complex_inconclusive_with_alpha():
    frame = fl.gen_random(2, 6, seed=0, field="complex")
    cert = fl.phase_retrieval_certify(frame, alpha_restarts=2)
    assert cert.verdict == fl.INCONCLUSIVE
    assert cert.method == "pr-alpha-estimate"
    assert cert.alpha_estimate is not None
    assert cert.alpha_estimate >= 0.0


def test_pr_complex_fails_via_complement_necessity():
    # Two complex vectors cannot span C^2 from both sides of any split.
    frame = fl.Frame(
        fl.make_atomic([1.0, 1.0]),
        np.array([[1.0 + 0.0j, 0.0], [0.0, 1.0 + 0.0j]]),
    )
    cert = fl.phase_retrieval_certify(frame)
    assert cert.verdict == fl.FAILS
    assert cert.method == "pr-complement-necessity"


def test_r_operator_mercedes_coordinate_vector():
    frame = fl.gen_mercedes()
    form = fl.r_operator(frame, np.array([1.0, 0.0]))
    assert np.allclose(form.matrix, np.diag([9.0 / 8.0, 3.0 / 8.0]), atol=1e-12)


def test_r_operator_quadratic_form_nonnegative():
    frame = fl.gen_random(3, 6, seed=1)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(3)
    g = rng.standard_normal(3)
    value = fl.r_operator(frame, f).value(g)
    assert value >= -1e-12
    # Symmetry of the biquadratic form under swapping the two arguments.
    swapped = fl.r_operator(frame, g).value(f)
    assert value == pytest.approx(swapped, rel=1e-10)


def test_alpha_mercedes_matches_grid():
    result = fl.alpha_certify(fl.gen_mercedes(), restarts=6, iters=80, seed=0)
    assert result.alpha == pytest.approx(0.375, abs=1e-9)
    oracle = alpha_grid_oracle_2d(fl.gen_mercedes())
    assert result.alpha == pytest.approx(oracle, abs=1e-4)


def test_alpha_onb_is_zero():
    result = fl.alpha_certify(fl.gen_onb(2), restarts=4, iters=40, seed=0)
    assert result.alpha < 1e-10


def test_alpha_traces_monotone():
    result = fl.alpha_certify(fl.gen_random(3, 7, seed=3), restarts=5, iters=60, seed=1)
    for trace in result.traces:
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-12)


def test_alpha_positive_iff_pr_holds_spot():
    holds = fl.gen_random(2, 5, seed=6)
    assert fl.phase_retrieval_certify(holds).holds
    assert fl.alpha_certify(holds, restarts=4, iters=60).alpha > 1e-6
    fails = fl.gen_onb(3)
    assert fl.alpha_certify(fails, restarts=4, iters=60).alpha < 1e-10


def test_nr_mercedes_holds():
    cert = fl.norm_retrieval_certify(fl.gen_mercedes())
    assert cert.holds
    assert cert.method == "nr-nullspace-orthogonality"


def test_nr_onb_holds():
    # Coordinate null spaces of an orthonormal basis are mutually orthogonal.
    assert fl.norm_retrieval_certify(fl.gen_onb(3)).holds


def test_nr_fails_with_witness():
    vectors = np.array([[1.0, 0.0], [1.0, 1.0]])
    frame = _unit_frame(vectors)
    cert = fl.norm_retrieval_certify(frame)
    assert cert.verdict == fl.FAILS
    assert cert.witness_subset == (0,)
    f, g = cert.witness_vectors
    assert abs(fl.inner(f, g)) > 1e-8


def test_nr_failure_pair_has_equal_magnitudes_different_norms():
    vectors = np.array([[1.0, 0.0], [1.0, 1.0]])
    frame = _unit_frame(vectors)
    oracle = norm_retrieval_oracle(frame)
    assert oracle.verdict == fl.FAILS
    f, g = oracle.witness_vectors
    mf = fl.magnitudes(frame, f).values
    mg = fl.magnitudes(frame, g).values
    assert np.allclose(mf, mg, atol=1e-9)
    assert abs(np.linalg.norm(f) - np.linalg.norm(g)) > 1e-8


def test_nr_certify_agrees_with_oracle_spot():
    cases = [
        fl.gen_mercedes(),
        fl.gen_onb(2),
        fl.gen_random(2, 4, seed=1),
        fl.gen_random(3, 5, seed=2),
        _unit_frame(np.array([[1.0, 0.0], [1.0, 1.0]])),
        fl.gen_deficient_plus_tail(3, 2, 3, seed=2),
    ]
    for frame in cases:
        cert = fl.norm_retrieval_certify(frame)
        oracle = norm_retrieval_oracle(frame)
        assert cert.verdict == oracle.verdict
        # The library keeps its brute-force scan only as a benchmark trace target.
        assert fl.retrieval.norm_retrieval_oracle(frame).verdict == oracle.verdict
    assert "norm_retrieval_oracle" not in fl.__all__


def test_nr_rejects_complex():
    frame = fl.gen_random(2, 4, seed=0, field="complex")
    with pytest.raises(ValueError):
        fl.norm_retrieval_certify(frame)


def test_pr_implies_nr_on_spot_frames():
    for seed in range(4):
        frame = fl.gen_random(3, 7, seed=seed)
        if fl.phase_retrieval_certify(frame).holds:
            assert fl.norm_retrieval_certify(frame).holds


def test_near_riesz_mercedes():
    assert fl.near_riesz_detect(fl.gen_mercedes()) == (0,)


def test_near_riesz_onb_removes_nothing():
    assert fl.near_riesz_detect(fl.gen_onb(3)) == ()


def test_near_riesz_none_when_undetectable():
    assert fl.near_riesz_detect(fl.gen_random(3, 2, seed=0)) is None
    vectors = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    assert fl.near_riesz_detect(_unit_frame(vectors)) is None


def test_certificate_holds_property():
    cert = fl.Certificate(verdict=fl.HOLDS, method="m", field="real")
    assert cert.holds
    cert = fl.Certificate(verdict=fl.FAILS, method="m", field="real")
    assert not cert.holds


def test_r_operator_zero_vector():
    frame = fl.gen_random(3, 5, seed=0)
    form = fl.r_operator(frame, np.zeros(3))
    assert np.allclose(form.matrix, 0.0)


def test_r_operator_onb_coordinate_vector():
    form = fl.r_operator(fl.gen_onb(2), np.array([1.0, 0.0]))
    assert np.allclose(form.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_r_operator_biquadratic_identity():
    frame = fl.gen_random(3, 6, seed=4, field="complex")
    rng = np.random.default_rng(9)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    coeff_f = np.abs(fl.analysis(frame, f).values) ** 2
    coeff_g = np.abs(fl.analysis(frame, g).values) ** 2
    direct = float(np.sum(frame.weights * coeff_f * coeff_g))
    assert fl.r_operator(frame, f).value(g) == pytest.approx(direct, rel=1e-9)


def test_alpha_lower_bounds_the_biquadratic_form():
    frame = fl.gen_mercedes()
    alpha = fl.alpha_certify(frame, restarts=6, iters=80, seed=0).alpha
    rng = np.random.default_rng(21)
    for _ in range(2000):
        f = rng.standard_normal(2)
        f /= np.linalg.norm(f)
        g = rng.standard_normal(2)
        g /= np.linalg.norm(g)
        assert fl.r_operator(frame, f).value(g) >= alpha - 1e-9


def test_complement_property_survives_adding_atoms():
    base = fl.gen_random(2, 5, seed=6)
    assert fl.complement_property(base).verdict == fl.HOLDS
    rng = np.random.default_rng(8)
    vectors = np.vstack([base.vectors, rng.standard_normal((1, 2))])
    bigger = fl.Frame(fl.make_atomic(np.ones(6)), vectors)
    assert fl.complement_property(bigger).verdict == fl.HOLDS


def test_near_riesz_removal_keeps_completeness():
    frame = fl.gen_mercedes()
    removable = fl.near_riesz_detect(frame)
    assert removable == (0,)
    keep = [i for i in range(frame.n_atoms) if i not in removable]
    rest = fl.Frame(fl.make_atomic(frame.weights[keep]), frame.vectors[keep])
    assert fl.is_mu_complete(rest)


def test_near_riesz_stable_under_invertible_images():
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    moved = fl.apply_operator(fl.gen_mercedes(), rot)
    assert fl.near_riesz_detect(moved) == (0,)


def test_pr_complex_alpha_estimate_is_positive():
    frame = fl.gen_random(2, 4, seed=0, field="complex")
    cert = fl.phase_retrieval_certify(frame, alpha_restarts=4, alpha_iters=60)
    assert cert.verdict == fl.INCONCLUSIVE
    assert cert.alpha_estimate > 0.01
