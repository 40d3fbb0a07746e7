from __future__ import annotations

import time
import tracemalloc
from math import comb
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import framelab as fl
from framelab._linalg import annihilator, scaled
from framelab.retrieval import (
    _BATCH_ENTRIES,
    _WALK_ENTRIES,
    _deficient,
    _first_failures,
    _first_subset,
    _hyperplane_table,
    _identity_holds,
    _intervals,
    _lift,
    _lift_cutoff,
    _lifted_holds,
    _r_stack,
    _scan_budget,
    _spark_bounds,
    _spark_holds,
    _walk,
)
from oracles import (
    alpha_grid_oracle_2d,
    alpha_reference,
    brute_force_complement_property,
    complement_pairs,
    complement_property_reference,
    deficient_splits_reference,
    hermitian_basis,
    hermitian_lift_reference,
    hyperplane_table_reference,
    lift_ratio_reference,
    near_riesz_oracle,
    norm_retrieval_oracle,
    norm_retrieval_reference,
    r_matrix_reference,
    sign_pattern_pr_oracle,
    subset_sigma_min_reference,
)


def _unit_frame(vectors, weights=None):
    vectors = np.asarray(vectors, dtype=complex if np.iscomplexobj(vectors) else float)
    if weights is None:
        weights = np.ones(len(vectors))
    return fl.Frame(fl.make_atomic(weights), vectors)


def test_complement_property_mercedes_holds():
    cert = fl.complement_property(fl.gen_mercedes())
    assert cert.verdict == fl.HOLDS
    assert cert.witness_subset is None
    # n = 3 = d(d + 1)/2, and the lift settles it with no split visited.
    assert cert.method == "complement-lifted-map"


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
    # The lift would certify this frame, but the cap is checked first.
    assert _lifted_holds(frame.vectors[None], 1e-10)[0]
    with pytest.raises(fl.EnumerationCapExceeded, match=r"refuses for n = 26 > cap = 24"):
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


def test_pr_witness_of_an_incomplete_frame_is_the_null_direction_and_zero():
    # Both atoms lie on the e_2 axis, so the null directions of the empty side and of
    # the full side coincide in e_1, and the witness is (e_1, 0).
    frame = _unit_frame([[0.0, 1.0], [0.0, 2.0]])
    cert = fl.phase_retrieval_certify(frame)
    assert cert.verdict == fl.FAILS
    assert cert.witness_subset == ()
    f, g = cert.witness_vectors
    assert f.tolist() == [1.0, 0.0] and g.tolist() == [0.0, 0.0]
    assert np.array_equal(fl.magnitudes(frame, f).values, fl.magnitudes(frame, g).values)
    # Not a global-phase multiple: the two norms differ.
    assert np.linalg.norm(f) - np.linalg.norm(g) == 1.0


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


def _no_alpha(*args, **kwargs):
    raise AssertionError("alpha_certify ran")


def test_pr_complex_holds_on_its_hermitian_lift(monkeypatch):
    # n = 6 >= d^2 = 4, and the lift is injective; no alpha is estimated.
    monkeypatch.setattr("framelab.retrieval.alpha_certify", _no_alpha)
    frame = fl.gen_random(2, 6, seed=0, field="complex")
    assert fl.complement_property(frame).method == "complement-lifted-map"
    cert = fl.phase_retrieval_certify(frame)
    assert cert.verdict == fl.HOLDS
    assert cert.method == "pr-lifted-hermitian"
    assert cert.witness_subset is None and cert.witness_vectors is None


@pytest.mark.parametrize("frame", [
    fl.gen_random(4, 12, seed=0, field="complex"),  # n < d^2 = 16: no lift
    fl.gen_harmonic(2, 4, "complex"),  # its lift has diag(1, -1) in its kernel
])
def test_pr_complex_stays_inconclusive_without_alpha(frame, monkeypatch):
    monkeypatch.setattr("framelab.retrieval.alpha_certify", _no_alpha)
    assert not _lifted_holds(frame.vectors[None], 1e-10)[0]
    cp = fl.complement_property(frame)
    assert cp.holds and cp.method == "complement-subset-enumeration"
    cert = fl.phase_retrieval_certify(frame)
    assert cert.verdict == fl.INCONCLUSIVE
    assert cert.method == "pr-complement-necessity"
    assert cert.witness_subset is None and cert.witness_vectors is None


def test_harmonic_2_4_lift_kernel_is_diag_1_minus_1():
    frame = fl.gen_harmonic(2, 4, "complex")
    q = np.diag([1.0, -1.0])
    values = np.einsum("ia,ab,ib->i", frame.vectors.conj(), q, frame.vectors)
    assert np.abs(values).max() < 1e-15


@pytest.mark.parametrize("field, d, n", [("real", 3, 6), ("complex", 2, 4), ("complex", 3, 9), ("complex", 2, 3)])
def test_pr_decides_the_lift_once_per_frame(field, d, n, monkeypatch):
    calls = []

    def counting(vs, tol):
        calls.append(len(vs))
        return _lifted_holds(vs, tol)

    monkeypatch.setattr("framelab.retrieval._lifted_holds", counting)
    fl.phase_retrieval_certify(fl.gen_random(d, n, seed=1, field=field))
    assert calls == [1]


def test_pr_complex_fails_via_complement_necessity():
    # Two complex vectors cannot span C^2 from both sides of any split.
    frame = fl.Frame(
        fl.make_atomic([1.0, 1.0]),
        np.array([[1.0 + 0.0j, 0.0], [0.0, 1.0 + 0.0j]]),
    )
    cert = fl.phase_retrieval_certify(frame)
    assert cert.verdict == fl.FAILS
    assert cert.method == "pr-complement-necessity"


def _r_form(frame, f, g) -> float:
    """<R(f) g, g>, real since R(f) is Hermitian."""
    return float(np.real(fl.inner(fl.r_operator(frame, f) @ g, g)))


def test_r_operator_mercedes_coordinate_vector():
    frame = fl.gen_mercedes()
    r = fl.r_operator(frame, np.array([1.0, 0.0]))
    assert np.allclose(r, np.diag([9.0 / 8.0, 3.0 / 8.0]), atol=1e-12)


def test_r_operator_quadratic_form_nonnegative():
    frame = fl.gen_random(3, 6, seed=1)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(3)
    g = rng.standard_normal(3)
    value = _r_form(frame, f, g)
    assert value >= -1e-12
    # Symmetry of the biquadratic form under swapping the two arguments.
    swapped = _r_form(frame, g, f)
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


def _same_alpha(result, reference):
    assert result.alpha == reference.alpha
    assert result.traces == reference.traces
    for got, want in ((result.argmin_f, reference.argmin_f), (result.argmin_g, reference.argmin_g)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", range(1, 9))
def test_alpha_matches_the_one_restart_loop_bit_for_bit(field, d):
    frame = fl.gen_random(d, 2 * d, seed=d, field=field)
    for restarts in (1, 2, 5, 16):
        for iters in (1, 7, 100):
            result = fl.alpha_certify(frame, restarts=restarts, iters=iters, seed=d)
            _same_alpha(result, alpha_reference(frame, restarts=restarts, iters=iters, seed=d))


def test_alpha_restarts_leave_the_stack_at_their_own_step():
    frame = fl.gen_random(4, 8, seed=1)
    result = fl.alpha_certify(frame, restarts=5, iters=100, seed=0)
    assert len({len(trace) for trace in result.traces}) > 1
    _same_alpha(result, alpha_reference(frame, restarts=5, iters=100, seed=0))


def test_alpha_keeps_the_first_of_tied_restarts():
    # Every restart on an ONB reaches alpha = 0, at different coordinate vectors.
    frame = fl.gen_onb(3)
    result = fl.alpha_certify(frame, restarts=4, iters=40, seed=0)
    assert len({trace[-1] for trace in result.traces}) == 1
    _same_alpha(result, alpha_reference(frame, restarts=4, iters=40, seed=0))


def test_alpha_of_an_all_zero_frame():
    frame = fl.Frame(fl.make_atomic(np.ones(4)), np.zeros((4, 3)))
    result = fl.alpha_certify(frame, restarts=3, iters=5, seed=2)
    assert result.alpha == 0.0
    _same_alpha(result, alpha_reference(frame, restarts=3, iters=5, seed=2))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_r_operator_is_a_row_of_the_stacked_builder(field):
    frame = fl.gen_random(3, 7, seed=4, field=field)
    rng = np.random.default_rng(5)
    fs = rng.standard_normal((4, 3)) + (1j * rng.standard_normal((4, 3)) if field == "complex" else 0.0)
    stack = _r_stack(frame)(fs)
    for f, row in zip(fs, stack):
        assert fl.r_operator(frame, f).tobytes() == row.tobytes()
        assert row.tobytes() == r_matrix_reference(frame, f).tobytes()


@pytest.mark.parametrize("n, d", [(24, 8), (4, 8)])
def test_alpha_blocks_keep_the_batch_size(n, d, monkeypatch):
    eigh, shapes = np.linalg.eigh, []

    def recording(mats):
        shapes.append(mats.shape)
        return eigh(mats)

    frame = fl.gen_random(d, n, seed=0)
    block = max(1, _BATCH_ENTRIES // (max(n, d) * d))
    restarts, iters = 3 * block, 3
    monkeypatch.setattr(np.linalg, "eigh", recording)
    result = fl.alpha_certify(frame, restarts=restarts, iters=iters, seed=0)
    monkeypatch.undo()
    assert all(k * max(n, d) * d <= _BATCH_ENTRIES for k, _, _ in shapes)
    assert len(shapes) <= -(-restarts // block) * (2 * iters + 1)
    _same_alpha(result, alpha_reference(frame, restarts=restarts, iters=iters, seed=0))


@pytest.mark.parametrize("restarts, iters", [(0, 10), (3, 0), (-1, 1)])
def test_alpha_refuses_no_restarts_or_no_iterations(restarts, iters):
    with pytest.raises(ValueError, match="at least 1"):
        fl.alpha_certify(fl.gen_mercedes(), restarts=restarts, iters=iters)


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


def test_nr_checks_null_spaces_only_on_splits_where_neither_side_spans(monkeypatch):
    original, matrices = fl.retrieval.null_spaces, []

    def counting(stack, *args, **kwargs):
        matrices.append(len(stack))
        return original(stack, *args, **kwargs)

    monkeypatch.setattr("framelab.retrieval.null_spaces", counting)
    assert fl.norm_retrieval_certify(fl.gen_random(4, 10, seed=0)).verdict == fl.HOLDS
    assert matrices == []
    # The repeated ONB has deficient splits; each costs two null spaces once the identity test,
    # which would settle it first, is out of the way.
    onb = _unit_frame(np.vstack([np.eye(2), np.eye(2)]))
    with _without_the_identity():
        assert fl.norm_retrieval_certify(onb).verdict == fl.HOLDS
    assert sum(matrices) == 2 * len(list(deficient_splits_reference(onb)))


def test_nr_finds_a_failure_below_every_hyperplane():
    # e1 plus three atoms spanning a plane B that misses e1: the split {e1}
    # breaks orthogonality by about 0.05, while each hyperplane through e1
    # and one atom of B breaks it by at most ~5e-9, below the 1e-8 tolerance.
    theta, delta = np.arctan(0.05), 1e-7
    p = np.array([np.sin(theta), -np.cos(theta), 0.0])
    frame = _unit_frame([[1.0, 0.0, 0.0], p, p + [0, 0, delta], p - [0, 0, delta]])
    cert = fl.norm_retrieval_certify(frame)
    assert cert.verdict == fl.FAILS
    assert cert.witness_subset == (0,)
    assert cert.witness_subset == norm_retrieval_reference(frame).witness_subset


def test_nr_of_a_complex_frame_holds_on_the_identity_test_or_is_inconclusive():
    # Decided on the Hermitian lift alone.  The harmonic frame is Parseval, so I is the sum of its
    # projections.  n generic atoms of C^d with n < d^2 span n of the d^2 dimensions of the Hermitian
    # matrices, and I is not among them.
    holds = fl.norm_retrieval_certify(fl.gen_harmonic(2, 5, "complex"))
    assert (holds.verdict, holds.method, holds.field) == (fl.HOLDS, "nr-identity-span", "complex")
    for frame in (fl.gen_random(2, 3, seed=0, field="complex"), fl.gen_random(3, 7, seed=0, field="complex")):
        cert = fl.norm_retrieval_certify(frame)
        assert (cert.verdict, cert.method, cert.field) == (fl.INCONCLUSIVE, "nr-identity-sufficiency", "complex")
        assert cert.witness_subset is None and cert.witness_vectors is None
    with pytest.raises(fl.EnumerationCapExceeded):
        fl.norm_retrieval_certify(fl.gen_harmonic(2, 5, "complex"), cap=4)


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
    assert np.allclose(fl.r_operator(frame, np.zeros(3)), 0.0)


def test_r_operator_onb_coordinate_vector():
    r = fl.r_operator(fl.gen_onb(2), np.array([1.0, 0.0]))
    assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-12)


def test_r_operator_biquadratic_identity():
    frame = fl.gen_random(3, 6, seed=4, field="complex")
    rng = np.random.default_rng(9)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    coeff_f = np.abs(fl.analysis(frame, f).values) ** 2
    coeff_g = np.abs(fl.analysis(frame, g).values) ** 2
    direct = float(np.sum(frame.weights * coeff_f * coeff_g))
    assert _r_form(frame, f, g) == pytest.approx(direct, rel=1e-9)


def test_alpha_lower_bounds_the_biquadratic_form():
    frame = fl.gen_mercedes()
    alpha = fl.alpha_certify(frame, restarts=6, iters=80, seed=0).alpha
    rng = np.random.default_rng(21)
    for _ in range(2000):
        f = rng.standard_normal(2)
        f /= np.linalg.norm(f)
        g = rng.standard_normal(2)
        g /= np.linalg.norm(g)
        assert _r_form(frame, f, g) >= alpha - 1e-9


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


def test_pr_complex_holds_with_n_equal_to_d_squared():
    # Its 4 x 4 Hermitian lift is invertible.
    frame = fl.gen_random(2, 4, seed=0, field="complex")
    cert = fl.phase_retrieval_certify(frame)
    assert cert.verdict == fl.HOLDS
    assert cert.method == "pr-lifted-hermitian"


def test_near_riesz_matches_oracle_on_corpus(real_corpus):
    rng = np.random.default_rng(17)
    for frame in real_corpus:
        images = [frame, fl.apply_operator(frame, rng.standard_normal((frame.dim, frame.dim)))]
        for image in images:
            assert fl.near_riesz_detect(image) == near_riesz_oracle(image)


def _repeated_onb(d, k, seed=0):
    """Atom j is e_(j mod d), with random weights."""
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=d * k)
    return fl.Frame(fl.make_atomic(weights), np.tile(np.eye(d), (k, 1)))


def _two_plane(n, seed):
    """Even atoms in the x-y plane, odd atoms in the y-z plane."""
    vectors = np.random.default_rng(seed).standard_normal((n, 3))
    vectors[0::2, 2] = 0.0
    vectors[1::2, 0] = 0.0
    return _unit_frame(vectors)


def _decisions(frame, splits, cp_witness, nr):
    if frame.field != "real":
        return splits, cp_witness
    vectors = None if nr.witness_vectors is None else [u.tobytes() for u in nr.witness_vectors]
    return splits, cp_witness, nr.verdict, nr.witness_subset, vectors


def _without_the_lift():
    """Make the lifted test refuse every frame, so the scan and the table decide them all."""
    return patch("framelab.retrieval._lifted_holds", lambda vs, tol: np.zeros(len(vs), dtype=bool))


def _without_the_spark():
    """Make the spark stage refuse every frame, so that frames with n >= 2d - 1 go on to the scan budget and the table."""
    return patch("framelab.retrieval._spark_holds", lambda vs, tol: np.zeros(len(vs), dtype=bool))


def _without_the_identity():
    """Make the identity test refuse every frame, so that norm retrieval goes on to the scan, the table and the walk."""
    return patch("framelab.retrieval._identity_holds", lambda v, rank_tol, ortho_tol: False)


def _deficient_splits(frame, tol=1e-10):
    """Every split of the frame where neither side spans, in the order the driver finds them."""
    splits = []
    _first_failures(frame.vectors[None], tol, lambda v, chunk: splits.extend(chunk))
    return splits


def _complement_holds(stack, tol):
    return [subset is None for subset in _first_failures(stack, tol, _first_subset)]


def _assert_matches_the_scan(frame):
    real = frame.field == "real"
    reference = _decisions(
        frame,
        list(deficient_splits_reference(frame)),
        complement_property_reference(frame),
        norm_retrieval_reference(frame) if real else None,
    )

    def library():
        return _decisions(
            frame,
            _deficient_splits(frame),
            fl.complement_property(frame).witness_subset,
            fl.norm_retrieval_certify(frame) if real else None,
        )

    assert library() == reference
    # The lift settles most frames with n >= d(d + 1)/2 before any split, and the spark stage most
    # others with n >= 2d - 1; without them they reach the table.  With no split checked before the
    # table, every split comes from its walk.
    with _without_the_lift(), _without_the_spark():
        assert library() == reference
        with patch("framelab.retrieval._scan_budget", lambda n, d: 0):
            assert library() == reference
            # Nor, for norm retrieval, does the identity test settle repeated ONBs before the table.
            if real:
                with _without_the_identity():
                    assert _decisions(frame, [], None, fl.norm_retrieval_certify(frame))[2:] == reference[2:]


def test_hyperplane_table_reproduces_the_subset_scan(real_corpus):
    frames = list(real_corpus)
    for d, k in [(2, 2), (3, 5), (4, 3), (4, 4)]:
        onb = _repeated_onb(d, k)
        frames.append(onb)
        frames.extend(
            fl.break_norm_retrieval(onb, range(0, d * k, d), eps).perturbed for eps in (0.25, 0.5)
        )
    frames.extend(_two_plane(n, seed=n) for n in (5, 8, 11))
    for frame in frames:
        _assert_matches_the_scan(frame)


def _coincident_frame(kind, d, n, rng):
    """A frame with exact rank coincidences: repeated atoms, coordinate-plane atoms, two planes or a repeated ONB.

    A rotated ONB is turned by a random orthogonal matrix, so its table and
    null spaces come from SVDs with rounding error.
    """
    if kind == "two-plane":
        return _two_plane(n, int(rng.integers(2**31))).vectors
    if kind in ("onb", "rotated-onb"):
        vectors = np.tile(np.eye(d), (n // d + 1, 1))[:n]
        return vectors @ np.linalg.qr(rng.standard_normal((d, d)))[0] if kind == "rotated-onb" else vectors
    vectors = rng.standard_normal((n, d))
    if kind == "repeated":
        for i in range(1, n, 2):
            vectors[i] = vectors[int(rng.integers(i))]
    else:  # coordinate planes
        vectors[np.arange(n), rng.integers(d, size=n)] = 0.0
    return vectors


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["repeated", "coordinate", "two-plane"]),
    d=st.integers(2, 4),
    n=st.integers(3, 9),
    # Far below and far above the tolerance, and around it, where the table's
    # closures and numerical_rank's singular-value ratios disagree most often.
    factor=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_ties_near_the_rank_tolerance_decide_as_the_scan_does(kind, d, n, factor, field, seed):
    rng = np.random.default_rng(seed)
    vectors = _coincident_frame(kind, d, n, rng)
    noise = rng.standard_normal(vectors.shape)
    if field == "complex":
        # A complex multiple of each atom keeps every coincidence.
        vectors = vectors * (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)))
        noise = noise + 1j * rng.standard_normal(vectors.shape)
    scale = np.linalg.norm(vectors, axis=1, keepdims=True)
    noise *= factor * 1e-10 * scale / np.linalg.norm(noise, axis=1, keepdims=True)
    vectors = vectors + noise
    _assert_the_table_holds_the_reference(vectors)
    _assert_matches_the_scan(fl.Frame(fl.make_atomic(rng.uniform(0.5, 2.0, size=len(vectors))), vectors))


def _assert_the_table_holds_the_reference(v, tol=1e-10):
    """Each row of the SVD table lies in a row of the table."""
    rows, reference_rows = _hyperplane_table(v, tol), hyperplane_table_reference(v, tol)
    assert (rows is None) == (reference_rows is None)
    if rows is None:
        return
    outside = reference_rows[:, None, :] & ~rows[None, :, :]
    assert (~outside.any(axis=2)).any(axis=1).all()


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["repeated", "coordinate", "two-plane", "onb", "rotated-onb"]),
    d=st.integers(1, 4),
    n=st.integers(1, 9),
    factor=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 1e3]),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**31 - 1),
)
@example(kind="onb", d=1, n=3, factor=0.0, field="real", seed=0)
@example(kind="repeated", d=2, n=6, factor=1.0, field="complex", seed=0)
def test_the_table_holds_every_row_of_the_svd_table(kind, d, n, factor, field, seed):
    # The tie generator on every kind of coincidence, with d = 1 and d = 2, which the walk
    # decides with no reflection, exact frames, and noise from far below to far above the tolerance.
    rng = np.random.default_rng(seed)
    vectors = _coincident_frame(kind, d, n, rng)
    noise = rng.standard_normal(vectors.shape)
    if field == "complex":
        vectors = vectors * (rng.standard_normal((len(vectors), 1)) + 1j * rng.standard_normal((len(vectors), 1)))
        noise = noise + 1j * rng.standard_normal(vectors.shape)
    scale = np.linalg.norm(vectors, axis=1, keepdims=True)
    noise *= factor * 1e-10 * scale / np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-300)
    _assert_the_table_holds_the_reference(vectors + noise)


def test_the_table_of_a_tensor_product_holds_every_row_of_the_svd_table():
    # Mercedes times a random frame of R^3: 15 atoms in R^6 whose 3003 five-atom subsets
    # include many exactly dependent ones.
    product = fl.tensor_product(fl.gen_mercedes(), fl.gen_random(3, 5, seed=1)).product
    _assert_the_table_holds_the_reference(product.vectors)
    rows = _hyperplane_table(product.vectors, 1e-10)
    assert np.array_equal(rows, hyperplane_table_reference(product.vectors, 1e-10))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_the_walk_holds_a_working_set_bounded_by_its_block_size(field):
    # gen_random(7, 20) has C(20, 5) = 15,504 prefixes of five atoms, whose projected atoms
    # alone take 5 MB real and 10 MB complex, and C(20, 6) = 38,760 hyperplanes.  The walk
    # holds a few blocks of _WALK_ENTRIES entries per level besides the rows it returns.
    v = fl.gen_random(7, 20, field=field).vectors
    tracemalloc.start()
    try:
        rows = _hyperplane_table(v, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == comb(20, 6)
    assert peak <= 3 * rows.nbytes + 4 * 7 * _WALK_ENTRIES * v.itemsize


def _nr_decision(cert):
    vectors = None if cert.witness_vectors is None else [u.tobytes() for u in cert.witness_vectors]
    return cert.verdict, cert.witness_subset, vectors


def _assert_nr_matches_the_scan(frame):
    """Norm retrieval as the reference scan decides it, also when the identity test or the table stage decides every frame."""
    reference = _nr_decision(norm_retrieval_reference(frame))
    assert _nr_decision(fl.norm_retrieval_certify(frame)) == reference
    with _without_the_lift(), _without_the_spark(), patch("framelab.retrieval._scan_budget", lambda n, d: 0):
        assert _nr_decision(fl.norm_retrieval_certify(frame)) == reference
        with _without_the_identity():
            assert _nr_decision(fl.norm_retrieval_certify(frame)) == reference


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["repeated", "coordinate", "two-plane", "onb", "rotated-onb"]),
    d=st.integers(2, 4),
    n=st.integers(3, 9),
    factor=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 1e3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_nr_of_a_tie_near_the_rank_tolerance_decides_as_the_scan_does(kind, d, n, factor, seed):
    # The tie generator above, real only, with repeated ONBs, unfiltered: exact frames and noise from far
    # below to far above the rank tolerance, where the table and the scan's rank tests disagree most often.
    rng = np.random.default_rng(seed)
    vectors = _coincident_frame(kind, d, n, rng)
    noise = rng.standard_normal(vectors.shape)
    noise *= factor * 1e-10 * np.linalg.norm(vectors, axis=1, keepdims=True) / np.linalg.norm(noise, axis=1, keepdims=True)
    _assert_nr_matches_the_scan(fl.Frame(fl.make_atomic(rng.uniform(0.5, 2.0, size=n)), vectors + noise))


@pytest.mark.parametrize("eps", [1e-10, 1e-9, 5e-9, 1e-8, 2e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("d, k, rotated", [(3, 3, False), (4, 3, False), (4, 3, True)])
def test_nr_of_a_nearly_orthogonal_tilt_decides_as_the_scan_does(d, k, rotated, eps):
    # Tilt the copies of one direction of a repeated ONB by eps <phi, g> f, as break-nr does: the
    # null spaces of that subset and of its complement meet at about eps, around ortho_tol = 1e-8.
    v = _repeated_onb(d, k).vectors.copy()
    if rotated:
        v = v @ np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))[0]
    subset, rest = list(range(0, d * k, d)), [i for i in range(d * k) if i % d]
    f, g = annihilator(v[subset], d)[:, 0], annihilator(v[rest], d)[:, 0]
    v[subset] += eps * np.outer(v[subset] @ g, f)
    _assert_nr_matches_the_scan(_repeated_onb(d, k).with_vectors(v))


def _subspace_union(d, sizes, seed):
    """For each (k, m) of ``sizes``, m random atoms in a random k-dimensional subspace of R^d, stacked."""
    rng = np.random.default_rng(seed)
    return np.vstack([rng.standard_normal((m, k)) @ np.linalg.qr(rng.standard_normal((d, k)))[0].T for k, m in sizes])


@pytest.mark.parametrize("vectors", [
    _coincident_frame("coordinate", 3, 6, np.random.default_rng(2)),
    _subspace_union(3, [(1, 2), (1, 2), (1, 2), (2, 2)], seed=0),
], ids=["coordinate-plane", "subspace-union"])
def test_nr_of_a_coordinate_plane_or_subspace_union_frame_holds_through_the_walk(vectors):
    # Six atoms of R^3, each with one coordinate zeroed, and two atoms on each of three lines and a plane
    # of R^3.  The lift refuses both.  A shortcut through the table's flats once certified them with no
    # split walked; the walk decides them as the reference scan does.  The identity test runs before
    # the walk and settles the first frame (bound 1.8e-9), so it is kept out while the walk is checked.
    frame = _unit_frame(vectors)
    with _without_the_identity(), patch("framelab.retrieval._walk", wraps=_walk) as walk:
        cert = fl.norm_retrieval_certify(frame)
    walk.assert_called_once()
    assert (cert.verdict, cert.method) == (fl.HOLDS, "nr-nullspace-orthogonality")
    assert _nr_decision(cert) == _nr_decision(norm_retrieval_reference(frame))
    assert fl.norm_retrieval_certify(frame).verdict == fl.HOLDS


def _identity_test_vectors(source, d, n, noise, added, dropped, rng):
    """A ``_coincident_frame`` kind, a repeated ONB or a small tensor product, moved by relative noise, with atoms dropped and added."""
    if source == "tensor":
        factors = [fl.gen_onb(2), fl.gen_onb(3), fl.gen_harmonic(2, 3), fl.gen_mercedes(), fl.gen_random(2, 3, seed=d)]
        left, right = (factors[i] for i in rng.integers(len(factors), size=2))
        vectors = fl.tensor_product(left, right).product.vectors
    elif source == "repeated-onb":
        vectors = np.tile(np.eye(d), (max(1, n // d), 1))
    else:
        vectors = _coincident_frame(source, d, n, rng)
    jitter = rng.standard_normal(vectors.shape)
    scale = np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors = vectors + noise * scale * jitter / np.maximum(np.linalg.norm(jitter, axis=1, keepdims=True), 1e-300)
    vectors = np.delete(vectors, rng.choice(len(vectors), min(dropped, len(vectors) - 1), replace=False), axis=0)
    return np.vstack([vectors, rng.standard_normal((added, vectors.shape[1]))])


_IDENTITY_SOURCES = ["repeated", "coordinate", "two-plane", "onb", "rotated-onb", "repeated-onb", "tensor"]


@settings(max_examples=150, deadline=None)
@given(
    source=st.sampled_from(_IDENTITY_SOURCES),
    d=st.integers(1, 4),
    n=st.integers(1, 9),
    noise=st.sampled_from([0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4]),
    added=st.integers(0, 2),
    dropped=st.integers(0, 2),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**31 - 1),
)
@example(source="repeated-onb", d=3, n=9, noise=1e-12, added=0, dropped=1, field="real", seed=0)
@example(source="tensor", d=2, n=1, noise=0.0, added=0, dropped=0, field="real", seed=3)
@example(source="rotated-onb", d=2, n=6, noise=1e-6, added=1, dropped=0, field="complex", seed=1)
# Lifts with singular values in (1e-13, 1e-7] times their largest, which the test certifies.
@example(source="repeated-onb", d=3, n=9, noise=1e-10, added=1, dropped=1, field="real", seed=0)
@example(source="repeated-onb", d=3, n=9, noise=1e-10, added=0, dropped=0, field="complex", seed=0)
def test_the_identity_test_certifies_no_frame_the_reference_fails(source, d, n, noise, added, dropped, field, seed):
    # Every frame the identity test certifies holds under the reference scan.  A complex frame has no
    # reference scan: its identity I = sum c_i phi_i phi_i^*, solved again from the reference lift,
    # must hold as d x d matrices within ortho_tol, which bounds |f|^2 - |g|^2 for equal magnitudes.
    rng = np.random.default_rng(seed)
    vectors = _identity_test_vectors(source, d, n, noise, added, dropped, rng)
    if field == "complex":
        unitary, _ = np.linalg.qr(_normal(rng, (vectors.shape[1],) * 2, "complex"))
        vectors = (vectors * np.exp(2j * np.pi * rng.uniform(size=(len(vectors), 1)))) @ unitary.T
    if not _identity_holds(vectors, 1e-10, 1e-8):
        return
    frame = fl.Frame(fl.make_atomic(rng.uniform(0.5, 2.0, size=len(vectors))), vectors)
    if field == "real":
        assert norm_retrieval_reference(frame).verdict == fl.HOLDS
        return
    dim = vectors.shape[1]
    basis = hermitian_basis(dim)
    c = np.linalg.lstsq(hermitian_lift_reference(vectors).T, [np.trace(e).real for e in basis], rcond=1e-10)[0]
    residual = np.eye(dim) - np.einsum("i,ia,ib->ab", c, vectors, vectors.conj())
    assert np.linalg.norm(residual, 2) <= 1e-8


def test_the_identity_test_certifies_repeated_onbs_and_tight_products():
    # The frames the test exists for: a repeated ONB has c_i = 1 / k, so |c|_1 M^2 = d, and
    # a product of tight frames is tight.
    for frame in (_repeated_onb(3, 5), _repeated_onb(4, 6), fl.tensor_product(fl.gen_harmonic(3, 5), fl.gen_onb(3)).product):
        assert _identity_holds(frame.vectors, 1e-10, 1e-8)
        assert _identity_holds(frame.vectors * 1e-300, 1e-10, 1e-8) and _identity_holds(frame.vectors * 1e300, 1e-10, 1e-8)
    # The bound for a repeated ONB of R^4 is about d t sqrt(n) = 2e-9 at n = 24.
    assert not _identity_holds(_repeated_onb(4, 6).vectors, 1e-10, 1e-9)
    assert not _identity_holds(np.eye(2), -1.0, 1e-8) and not _identity_holds(np.eye(2), 1e-10, -1.0)
    # A frame that does not span leaves I - sum c_i phi_i phi_i^* of norm at least 1.
    assert not _identity_holds(np.tile(np.eye(3)[:2], (3, 1)), 1e-10, 0.5)


def _no_split_decided(*args):
    raise AssertionError("a split was decided")


def test_the_identity_test_certifies_a_lift_with_a_singular_value_near_its_cutoff():
    # e_0 tilted by 1e-11 toward e_1, beside e_1, e_0 and e_1: the tilted atom's off-diagonal lift
    # entry gives the lift a singular value 7e-12 times its largest, below the solve's cutoff.  The
    # proof bounds E through the residual it computes, whichever directions the solve kept, so the
    # frame holds with no split decided, as the reference scan says.
    v = np.array([[1.0, 1e-11], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    s = np.linalg.svd(_lift(v[None])[0], compute_uv=False)
    assert 1e-13 < s[-1] / s[0] <= 1e-7
    frame = _unit_frame(v)
    with patch("framelab.retrieval._first_failures", _no_split_decided):
        cert = fl.norm_retrieval_certify(frame)
    assert (cert.verdict, cert.method) == (fl.HOLDS, "nr-identity-span")
    assert norm_retrieval_reference(frame).verdict == fl.HOLDS


def _rotated_repeated_onb(d, k, noise, seed=0):
    """k copies of an ONB of R^d turned by one random orthogonal map, each atom moved by ``noise`` times a normal draw."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    vectors = np.tile(np.eye(d), (k, 1)) @ rotation.T
    return vectors + noise * rng.standard_normal(vectors.shape), rng


def _noisy_onb():
    # Five copies of an ONB of R^4 with 1e-9 noise: its lift has singular values between 1e-13 and
    # 1e-7 times its largest, and the walk took seconds on it.
    return _rotated_repeated_onb(4, 5, 1e-9)[0]


def _onb_with_a_long_atom():
    # Four copies of an ONB of R^5, the last atom dropped and a random atom of norm 2.5 added (n = 20):
    # with each atom's own norm charged the bound is 2.5e-9; with the largest charged for every atom,
    # |c|_1 M^2 t sqrt(n), it would be 1.4e-8 and the frame would be walked.
    vectors, rng = _rotated_repeated_onb(5, 4, 0.0)
    atom = rng.standard_normal(5)
    return np.vstack([vectors[:-1], 2.5 * atom / np.linalg.norm(atom)])


@pytest.mark.parametrize("build", [_noisy_onb, _onb_with_a_long_atom], ids=["noisy-onb", "long-atom"])
def test_the_identity_test_settles_a_noisy_repeated_onb_and_a_long_added_atom(build):
    vectors = build()
    assert len(vectors) == 20
    with patch("framelab.retrieval._first_failures", _no_split_decided):
        cert = fl.norm_retrieval_certify(_unit_frame(vectors))
    assert (cert.verdict, cert.method) == (fl.HOLDS, "nr-identity-span")


@settings(max_examples=100, deadline=None)
@given(
    source=st.sampled_from(_IDENTITY_SOURCES),
    d=st.integers(1, 4),
    n=st.integers(1, 9),
    noise=st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1e-4]),
    added=st.integers(0, 2),
    dropped=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
)
@example(source="repeated-onb", d=4, n=8, noise=0.0, added=0, dropped=0, seed=0)
def test_the_identity_verdict_is_invariant_under_orthogonal_maps(source, d, n, noise, added, dropped, seed):
    # In exact arithmetic an orthogonal map moves the lift by an orthogonal map of the symmetric
    # matrices and fixes I, so c, the residual and the atom norms do not change.  Rounding moves the
    # bound and the singular values by about eps: a draw is kept only when its bound lies outside
    # (ortho_tol / 4, 4 ortho_tol] and no lift singular value lies within a factor 10 of the solve's
    # cutoff, the only place where rounding can flip whether a direction is kept.
    rng = np.random.default_rng(seed)
    v = _identity_test_vectors(source, d, n, noise, added, dropped, rng)
    s = np.linalg.svd(_lift(v[None])[0], compute_uv=False)
    ratios = s / s[0] if s[0] > 0 else s
    assume(not ((ratios > 1e-11) & (ratios <= 1e-9)).any())
    assume(_identity_holds(v, 1e-10, 2.5e-9) == _identity_holds(v, 1e-10, 4e-8))
    verdict = _identity_holds(v, 1e-10, 1e-8)
    orthogonal, _ = np.linalg.qr(rng.standard_normal((v.shape[1], v.shape[1])))
    images = [v @ orthogonal.T, -v, (v @ orthogonal.T)[::-1]]
    assert [_identity_holds(image, 1e-10, 1e-8) for image in images] == [verdict] * 3
    if source == "repeated-onb" and noise == 0.0 and not added and not dropped:
        assert verdict


def test_nr_tries_the_lift_before_the_identity_test(monkeypatch):
    # A generic frame the lift certifies never pays the identity test's solve; a repeated ONB, which
    # the lift cannot certify, is settled by it with no split decided.
    calls = []

    def counting(*args):
        calls.append(args)
        return _identity_holds(*args)

    def refuse(*args):
        raise AssertionError("a split was decided")

    monkeypatch.setattr("framelab.retrieval._identity_holds", counting)
    monkeypatch.setattr("framelab.retrieval._deficient", refuse)
    cert = fl.norm_retrieval_certify(fl.gen_random(4, 12, seed=0))
    assert (cert.verdict, cert.method, calls) == (fl.HOLDS, "nr-nullspace-orthogonality", [])
    cert = fl.norm_retrieval_certify(_repeated_onb(4, 4))
    assert (cert.verdict, cert.method, len(calls)) == (fl.HOLDS, "nr-identity-span", 1)


def test_certifiers_decide_at_the_cap_from_the_table():
    assert fl.phase_retrieval_certify(fl.gen_random(3, 24)).holds
    with _without_the_lift(), _without_the_spark():
        assert fl.phase_retrieval_certify(fl.gen_random(3, 24)).holds
    onb = _repeated_onb(4, 6)
    assert fl.norm_retrieval_certify(onb).holds
    cert = fl.complement_property(onb)
    assert cert.verdict == fl.FAILS
    # The lex-min witness: every index up to 20 that is not a copy of e_3.
    assert cert.witness_subset == tuple(i for i in range(21) if i % 4 != 3)


def test_a_frame_that_fails_early_never_builds_the_table(monkeypatch):
    # Their tables would hold C(24, 15) and C(16, 8) atom subsets, while the
    # scan meets the first deficient split within a few dozen.
    def refuse(v, tol):
        raise AssertionError("the table was built")

    monkeypatch.setattr("framelab.retrieval._hyperplane_table", refuse)
    product = fl.tensor_product(fl.gen_random(3, 4, seed=1), fl.gen_random(3, 4, seed=2)).product
    for frame in (fl.gen_random(16, 24, seed=0), product):
        started = time.perf_counter()
        cert = fl.complement_property(frame)
        assert time.perf_counter() - started < 1.0
        assert cert.verdict == fl.FAILS
        assert cert.witness_subset == complement_property_reference(frame)


def test_a_table_without_covering_pairs_is_walked_once():
    # This frame's table holds all C(22, 6) of its hyperplanes, and no two of
    # them are large enough to cover the atoms, so its walk visits no split.
    frame = fl.gen_random(7, 22)
    table = _hyperplane_table(frame.vectors, 1e-10)
    assert len(table) == comb(22, 6)
    assert _intervals(table) == []
    with patch("framelab.retrieval._walk", wraps=_walk) as walk:
        assert fl.complement_property(frame).holds
    walk.assert_called_once()


def test_a_table_with_many_covering_candidates_decides_through_its_walk():
    # 18 atoms in R^8: 128,400 hyperplane pairs are tested for covering.  With no
    # split checked before the table, the first failure comes from its walk.
    product = fl.tensor_product(fl.gen_random(2, 3, seed=0), fl.gen_random(4, 6, seed=10)).product
    with patch("framelab.retrieval._scan_budget", lambda n, d: 0), patch(
        "framelab.retrieval._walk", wraps=_walk
    ) as walk:
        cert = fl.complement_property(product)
    walk.assert_called_once()
    assert cert.witness_subset == tuple(range(9)) == complement_property_reference(product)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_a_huge_frame_gets_the_table_and_the_verdicts_of_the_frame(scale):
    # The squared norms of these atoms overflow float64 unless the table scales the frame first.
    for frame in (fl.gen_random(3, 5), _two_plane(8, seed=8), _repeated_onb(3, 3)):
        huge = frame.with_vectors(frame.vectors * scale)
        assert np.array_equal(_hyperplane_table(huge.vectors, 1e-10), _hyperplane_table(frame.vectors, 1e-10))
        for budget in (_scan_budget, lambda n, d: 0):
            with patch("framelab.retrieval._scan_budget", budget):
                assert fl.complement_property(huge).witness_subset == fl.complement_property(frame).witness_subset
                assert fl.phase_retrieval_certify(huge).verdict == fl.phase_retrieval_certify(frame).verdict
                assert fl.norm_retrieval_certify(huge).verdict == fl.norm_retrieval_certify(frame).verdict


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, d, n, seed, certify", [
    ("real", 3, 5, 0, fl.phase_retrieval_certify),
    ("real", 3, 5, 0, fl.norm_retrieval_certify),
    ("complex", 3, 18, 1, fl.phase_retrieval_certify),
])
def test_a_subnormal_frame_gets_the_table_and_the_verdicts_of_the_frame(field, d, n, seed, certify):
    # The largest entry lies below 2.2e-308, where the factor 2^-e overflows: the
    # table must scale such a frame all the same, or every split is scanned.  With no
    # split checked before it, no lift and no spark stage every frame builds the table;
    # gen_random(3, 5) would otherwise fit whole in the scan budget, the lift certify the
    # complex frame, and the spark stage both.
    tiny = fl.gen_random(d, n, seed, field)
    tiny = tiny.with_vectors(tiny.vectors * 1e-310)
    # The stored entries times 2^1030 are normal, and the product is exact.
    normal = tiny.with_vectors(tiny.vectors * 2.0**515 * 2.0**515)
    assert _lifted_holds(tiny.vectors[None], 1e-10)[0] == _lifted_holds(normal.vectors[None], 1e-10)[0]
    tables = []

    def recording(*args):
        tables.append(_hyperplane_table(*args))
        return tables[-1]

    with _without_the_lift(), _without_the_spark(), patch("framelab.retrieval._scan_budget", lambda n, d: 0):
        with patch("framelab.retrieval._hyperplane_table", recording):
            got = certify(tiny)
        assert tables and all(table is not None for table in tables)
        want = certify(normal)
    assert (got.verdict, got.witness_subset) == (want.verdict, want.witness_subset)
    for a, b in zip(got.witness_vectors or (), want.witness_vectors or (), strict=True):
        assert np.array_equal(a, b)


def test_building_the_table_makes_no_rank_decision(monkeypatch):
    def refuse(stack, tol):
        raise AssertionError("full_column_rank was called")

    monkeypatch.setattr("framelab.retrieval.full_column_rank", refuse)
    assert len(_hyperplane_table(_repeated_onb(3, 3).vectors, 1e-10)) == 3
    # The two planes of four atoms, and the 16 closures of an even and an odd atom.
    two_plane = _hyperplane_table(_two_plane(8, seed=8).vectors, 1e-10)
    assert sorted(two_plane.sum(axis=1).tolist()) == [2] * 16 + [4, 4]
    assert len(_hyperplane_table(fl.gen_random(4, 12).vectors, 1e-10)) == comb(12, 3)


def test_without_a_table_every_split_is_checked():
    frames = [_two_plane(8, seed=8), _repeated_onb(3, 3), fl.gen_random(3, 8, seed=0)]
    with patch("framelab.retrieval._hyperplane_table", lambda v, tol: None), _without_the_lift(), _without_the_spark():
        for frame in frames:
            assert _deficient_splits(frame) == list(deficient_splits_reference(frame))


def test_each_frame_of_a_stack_takes_its_own_route_to_its_own_verdict():
    # 12 atoms in R^3 leave a scan budget of 18 splits.  The first frame fails at
    # {0..5} | {6..11}, the 7th split of the scan.  The second holds through the table:
    # its atoms lie on the cone x^2 + y^2 = z^2, so the lift has a kernel, and no two
    # of its planes cover the atoms.  The third has its even atoms in the x-y plane and
    # its odd atoms in the y-z plane with z scaled by 1e-8: it spans at the tolerance but
    # not at 1000 times it, so it has no table and fails in the scan of every split.  The
    # spark stage would certify the cone frame, whose every three atoms span, before the budget.
    blocked = np.random.default_rng(0).standard_normal((12, 3))
    blocked[:6, 2] = 0.0
    blocked[6:, 0] = 0.0
    angles = 2 * np.pi * np.arange(12) / 12
    cone = np.column_stack([np.cos(angles), np.sin(angles), np.ones(12)])
    flat = _two_plane(12, seed=12).vectors * [1.0, 1.0, 1e-8]
    frames = [_unit_frame(blocked), _unit_frame(cone), _unit_frame(flat)]
    stack = np.stack([frame.vectors for frame in frames])
    assert _scan_budget(12, 3) == 18
    assert not _lifted_holds(stack, 1e-10).any()
    assert [_hyperplane_table(frame.vectors, 1e-10) is None for frame in frames] == [False, False, True]
    decided = {frame.vectors.tobytes(): [] for frame in frames}

    def recording(vs, chunk, tol):
        for v in vs:
            decided[v.tobytes()].extend(chunk)
        return _deficient(vs, chunk, tol)

    with _without_the_spark(), patch("framelab.retrieval._deficient", recording), patch(
        "framelab.retrieval._hyperplane_table", wraps=_hyperplane_table
    ) as table, patch("framelab.retrieval._walk", wraps=_walk) as walk:
        found = _first_failures(stack, 1e-10, _first_subset)
        assert table.call_count == 2 and walk.call_count == 1
        assert found == [(0, 1, 2, 3, 4, 5), None, (0, 2, 4, 6, 8, 10)]
        assert found == [complement_property_reference(frame) for frame in frames]
        # Findings that never stop a frame give every deficient split of each frame,
        # and the third frame has each split of the scan decided once.
        for calls in decided.values():
            calls.clear()
        splits = {key: [] for key in decided}
        _first_failures(stack, 1e-10, lambda v, chunk: splits[v.tobytes()].extend(chunk))
    for frame in frames:
        assert splits[frame.vectors.tobytes()] == list(deficient_splits_reference(frame))
    assert decided[flat.tobytes()] == list(complement_pairs(12))


def _normal(rng, shape, field="real"):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if field == "complex" else x


def _lift_test_vectors(kind, d, n, rng, field="real"):
    """Atoms on two random hyperplanes, atoms with exact repeats, or generic atoms."""
    vectors = _normal(rng, (n, d), field)
    if kind == "two-hyperplane":
        normals = _normal(rng, (2, d), field)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        side = normals[rng.integers(2, size=n)]
        vectors -= np.sum(vectors * side.conj(), axis=1, keepdims=True) * side
    elif kind == "repeated":
        for i in range(1, n, 2):
            vectors[i] = vectors[int(rng.integers(i))]
    return vectors


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(1, 4),
    extra=st.integers(0, 3),
    noise=st.floats(-4.0, 5.0),
    tol=st.sampled_from([0.0, 1e-10, 1e-6, 0.1]),
    seed=st.integers(0, 2**31 - 1),
)
# At tol = 0 the cutoff is its rounding term alone, so these cases lean on the
# bound the proof assumes for LAPACK's singular values.
@example(d=2, extra=0, noise=0.0, tol=0.0, seed=0)
@example(d=3, extra=1, noise=2.0, tol=0.0, seed=1)
@example(d=4, extra=3, noise=-2.0, tol=0.0, seed=2)
def test_the_lift_certifies_only_frames_without_a_deficient_split(d, extra, noise, tol, seed):
    _assert_the_lift_certifies_only_frames_without_a_deficient_split("real", d * (d + 1) // 2 + extra, d, noise, tol, seed)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    extra=st.integers(0, 3),
    noise=st.floats(-4.0, 5.0),
    tol=st.sampled_from([0.0, 1e-10, 1e-6, 0.1]),
    seed=st.integers(0, 2**31 - 1),
)
@example(d=2, extra=0, noise=0.0, tol=0.0, seed=0)
@example(d=3, extra=0, noise=2.0, tol=0.0, seed=1)
@example(d=3, extra=2, noise=-2.0, tol=0.0, seed=2)
def test_the_hermitian_lift_certifies_only_frames_without_a_deficient_split(d, extra, noise, tol, seed):
    # The complex twin, n >= d^2; d = 4 would take n >= 16 and 2^15 reference splits per frame.
    _assert_the_lift_certifies_only_frames_without_a_deficient_split("complex", d * d + extra, d, noise, tol, seed)


def _assert_the_lift_certifies_only_frames_without_a_deficient_split(field, n, d, noise, tol, seed):
    # Noise from 1e-4 to 1e5 times the tolerance (times eps at tol = 0), relative to each
    # atom, and atom norms spread over 10^-3..10^3, straddle the lift's cutoff on every
    # kind of frame.
    rng = np.random.default_rng(seed)
    frames = []
    for kind in ("two-hyperplane", "repeated", "generic"):
        vectors = _lift_test_vectors(kind, d, n, rng, field)
        jitter = _normal(rng, (n, d), field)
        scale = np.linalg.norm(vectors, axis=1, keepdims=True)
        jitter *= 10.0**noise * max(tol, np.finfo(float).eps) * np.where(scale > 0, scale, 1.0) / np.linalg.norm(jitter, axis=1, keepdims=True)
        frames.append(_unit_frame((vectors + jitter) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))))
    stack = np.stack([frame.vectors for frame in frames])
    lifted = _lifted_holds(stack, tol)
    for frame, certified in zip(frames, lifted):
        assert certified == _lifted_holds(frame.vectors[None], tol)[0]
        if certified:
            assert next(deficient_splits_reference(frame, tol), None) is None
    per_frame = [fl.complement_property(frame, tol).holds for frame in frames]
    assert _complement_holds(stack, tol) == per_frame


def test_a_frame_the_scan_fails_is_not_lifted_even_near_the_cutoff():
    # Atoms 0 and 2 are parallel up to just under the tolerance, so the split {0, 2} | {1}
    # is deficient; its lift's ratio is over a quarter of the cutoff, so a cutoff ten times
    # smaller would certify it.
    tol = 1e-6
    frame = _unit_frame([[-0.23319301, -0.04590143], [-0.00111205, 0.01071799], [0.26713014, 0.05258103]])
    assert complement_property_reference(frame, tol) == (0, 2)
    assert lift_ratio_reference(frame.vectors) > _lift_cutoff(3, 2, tol) / 10
    assert fl.complement_property(frame, tol).witness_subset == (0, 2)
    # In a stack with a frame the lift certifies, each keeps its own verdict.
    stack = np.stack([frame.vectors, fl.gen_random(2, 3, seed=0).vectors])
    assert _lifted_holds(stack, tol).tolist() == [False, True]
    assert _complement_holds(stack, tol) == [False, True]


def test_the_lift_agrees_with_the_reference_lift():
    for d, n in [(1, 2), (2, 3), (3, 7), (4, 10)]:
        v = fl.gen_random(d, n, seed=d).vectors
        # The cutoff is 2 sqrt(n d) times tol, plus a rounding term far below 1% of it.
        at_ratio = lift_ratio_reference(v) / (2 * np.sqrt(n * d))
        assert _lifted_holds(v[None], 0.99 * at_ratio)[0]
        assert not _lifted_holds(v[None], 1.01 * at_ratio)[0]


def test_the_lift_refuses_complex_frames_short_frames_and_negative_tolerances():
    # A complex frame needs n >= d^2 atoms, a real one n >= d(d + 1)/2.
    assert not _lifted_holds(fl.gen_random(3, 8, seed=0, field="complex").vectors[None], 1e-10)[0]
    assert _lifted_holds(fl.gen_random(3, 9, seed=0, field="complex").vectors[None], 1e-10)[0]
    assert _lifted_holds(fl.gen_random(2, 6, seed=0, field="complex").vectors[None], 1e-10)[0]
    assert not _lifted_holds(fl.gen_random(3, 5, seed=0).vectors[None], 1e-10)[0]
    # The scan finds the split of the two zero atoms deficient, while with tol < 0
    # the lift's cutoff would be negative.
    zeros = np.vstack([np.zeros((2, 2)), [[1.0, 2.0]]])
    assert not _lifted_holds(zeros[None], -1.0)[0]
    assert not _lifted_holds(np.zeros((1, 3, 2)), 1e-10)[0]
    assert not _lifted_holds(np.zeros((1, 4, 2), dtype=complex), 1e-10)[0]
    # Entries whose squares overflow or underflow are scaled first.
    for scale in (1e200, 1e-200, 1e-310):
        assert _lifted_holds(fl.gen_random(2, 3, seed=0).vectors[None] * scale, 1e-10)[0]
        assert _lifted_holds(fl.gen_random(2, 4, seed=0, field="complex").vectors[None] * scale, 1e-10)[0]


@pytest.mark.parametrize("d, n, seed", [(1, 1, 0), (1, 3, 1), (2, 4, 2), (2, 7, 3), (3, 9, 4), (3, 12, 5), (4, 16, 6)])
def test_the_hermitian_lift_is_the_map_in_an_orthonormal_basis(d, n, seed):
    rng = np.random.default_rng(seed)
    v = _normal(rng, (n, d), "complex")
    reference = hermitian_lift_reference(v)
    lift = _lift(v[None])[0]
    assert lift.shape == reference.shape == (n, d * d)
    scale = np.linalg.norm(reference, 2)
    s = np.linalg.svd(lift, compute_uv=False)
    assert np.allclose(s, np.linalg.svd(reference, compute_uv=False), rtol=0, atol=1e-13 * scale)
    basis = hermitian_basis(d)
    for _ in range(5):
        x = _normal(rng, (d, d), "complex")
        q_matrix = x + x.conj().T
        q = np.array([np.trace(e @ q_matrix).real for e in basis])
        values = np.einsum("ia,ab,ib->i", v.conj(), q_matrix, v)
        assert np.abs(values.imag).max() <= 1e-13 * scale * np.linalg.norm(q)
        assert np.linalg.norm(reference @ q) == pytest.approx(np.linalg.norm(values.real), rel=1e-12)
        assert np.linalg.norm(q) == pytest.approx(np.linalg.norm(q_matrix), rel=1e-12)
        assert np.allclose(reference @ q, values.real, rtol=0, atol=1e-12 * scale * np.linalg.norm(q))


def test_the_hermitian_lift_agrees_with_the_reference_lift():
    for d, n in [(1, 2), (2, 4), (2, 6), (3, 10)]:
        v = fl.gen_random(d, n, seed=d, field="complex").vectors
        s = np.linalg.svd(hermitian_lift_reference(v), compute_uv=False)
        at_ratio = s[-1] / s[0] / (2 * np.sqrt(n * d))
        assert _lifted_holds(v[None], 0.99 * at_ratio)[0]
        assert not _lifted_holds(v[None], 1.01 * at_ratio)[0]


@settings(max_examples=80, deadline=None)
@given(
    field=st.sampled_from(["real", "complex"]),
    kind=st.sampled_from(["two-hyperplane", "repeated", "generic"]),
    d=st.integers(1, 4),
    extra=st.integers(0, 3),
    tol=st.sampled_from([1e-10, 1e-6]),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_lift_verdict_is_invariant_under_unitaries_phases_and_reordering(field, kind, d, extra, tol, seed):
    rng = np.random.default_rng(seed)
    n = (d * d if field == "complex" else d * (d + 1) // 2) + extra
    v = _lift_test_vectors(kind, d, n, rng, field)
    s = np.linalg.svd(_lift(v[None])[0], compute_uv=False)
    # Rounding moves the ratio by about eps; keep clear of the cutoff by far more.
    ratio, cutoff = (s[-1] / s[0] if s[0] > 0 else 0.0), _lift_cutoff(n, d, tol, field == "complex")
    assume(not cutoff / 1e3 < ratio < cutoff * 1e3)
    verdict = _lifted_holds(v[None], tol)[0]
    assert verdict == (ratio > cutoff)
    unitary, _ = np.linalg.qr(_normal(rng, (d, d), field))
    if field == "complex":
        phases = np.exp(2j * np.pi * rng.uniform(size=(n, 1)))
    else:
        phases = rng.choice([-1.0, 1.0], size=(n, 1))
    images = [v @ unitary.T, v * phases, v[rng.permutation(n)], (v * phases)[::-1] @ unitary.T]
    assert _lifted_holds(np.stack(images), tol).tolist() == [verdict] * len(images)


def _spark_test_vectors(kind, d, n, rng, field):
    """Generic atoms, generic atoms with one d-subset dependent, or a ``_coincident_frame`` kind, over the field."""
    if kind in ("generic", "dependent"):
        vectors = _normal(rng, (n, d), field)
        if kind == "dependent":
            subset = rng.choice(n, size=d, replace=False)
            vectors[subset[-1]] = _normal(rng, (d - 1,), field) @ vectors[subset[:-1]]
        return vectors
    vectors = _coincident_frame(kind, d, n, rng)
    if field == "complex":
        # A complex multiple of each atom keeps every coincidence.
        vectors = vectors * _normal(rng, (len(vectors), 1), field)
    return vectors


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["generic", "dependent", "repeated", "coordinate", "two-plane", "onb", "rotated-onb"]),
    field=st.sampled_from(["real", "complex"]),
    d=st.integers(1, 4),
    extra=st.integers(0, 4),
    noise=st.floats(-4.0, 5.0),
    tol=st.sampled_from([0.0, 1e-10, 1e-6, 0.1]),
    seed=st.integers(0, 2**31 - 1),
)
@example(kind="dependent", field="complex", d=4, extra=0, noise=0.0, tol=1e-10, seed=0)
@example(kind="coordinate", field="real", d=1, extra=2, noise=-4.0, tol=0.0, seed=0)
def test_the_spark_stage_certifies_only_frames_without_a_deficient_split(kind, field, d, extra, noise, tol, seed):
    # Noise from 1e-4 to 1e5 times the tolerance (times eps at tol = 0), relative to each atom,
    # and atom norms spread over 10^-3..10^3, straddle the stage's cutoff on every kind of frame.
    rng = np.random.default_rng(seed)
    v = _spark_test_vectors(kind, d, 2 * d - 1 + extra, rng, field)
    n, d = v.shape  # a two-plane frame has d = 3
    jitter = _normal(rng, (n, d), field)
    scale = np.linalg.norm(v, axis=1, keepdims=True)
    jitter *= 10.0**noise * max(tol, np.finfo(float).eps) * np.where(scale > 0, scale, 1.0) / np.linalg.norm(jitter, axis=1, keepdims=True)
    v = (v + jitter) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    frame = _unit_frame(v)
    held = _spark_holds(v[None], tol)[0]
    if n >= 2 * d - 1:
        bounds, _ = _spark_bounds(scaled(v[None])[0])
        assert (bounds[0] <= subset_sigma_min_reference(v)).all()
    if held:
        assert next(deficient_splits_reference(frame, tol), None) is None
    assert fl.complement_property(frame, tol).witness_subset == complement_property_reference(frame, tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("scale", [1.0, 1e-310, 1e150])
def test_the_spark_stage_keeps_the_scan_verdict_on_zero_atoms_and_extreme_scales(field, scale):
    for d, n, zero in [(2, 3, None), (3, 6, None), (4, 9, None), (2, 3, 1), (3, 6, 0), (4, 9, 8)]:
        v = fl.gen_random(d, n, seed=n, field=field).vectors * scale
        if zero is not None:
            v[zero] = 0.0
        frame = _unit_frame(v)
        # Every d atoms of a generic frame span, and none with the zero atom among them does.
        assert _spark_holds(v[None], 1e-10)[0] == (zero is None)

        def verdicts():
            nr = fl.norm_retrieval_certify(frame) if field == "real" else None
            return fl.complement_property(frame).witness_subset, fl.phase_retrieval_certify(frame).verdict, nr and nr.verdict

        with _without_the_spark():
            scanned = verdicts()
        assert verdicts() == scanned


def test_a_full_spark_complex_frame_is_decided_with_no_rank_call_and_no_table(monkeypatch):
    # 11 atoms in C^4: the lift needs 16, and the spark stage settles its 330 minors in one det call.
    def refuse(*args):
        raise AssertionError("a split was decided or a table built")

    monkeypatch.setattr("framelab.retrieval.full_column_rank", refuse)
    monkeypatch.setattr("framelab.retrieval._hyperplane_table", refuse)
    frame = fl.gen_random(4, 11, field="complex")
    cp = fl.complement_property(frame)
    assert (cp.verdict, cp.method) == (fl.HOLDS, "complement-subset-enumeration")
    pr = fl.phase_retrieval_certify(frame)
    assert (pr.verdict, pr.method) == (fl.INCONCLUSIVE, "pr-complement-necessity")


def test_the_spark_stage_decides_each_frame_of_a_stack_as_alone_in_bounded_blocks(monkeypatch):
    # 9 atoms in R^4 take C(9, 4) * 16 = 2016 minor entries per frame, so 16 frames per det call.
    frames = [fl.gen_random(4, 9, seed=seed).vectors.copy() for seed in range(40)]
    for v in frames[::3]:
        v[2] = v[0] - 2 * v[1]  # every 4-subset holding atoms 0, 1 and 2 is dependent
    stack = np.stack(frames)
    sizes = []
    det = np.linalg.det

    def recording(minors):
        sizes.append(minors.size)
        return det(minors)

    monkeypatch.setattr(np.linalg, "det", recording)
    held = _spark_holds(stack, 1e-10)
    assert len(sizes) == 3 and max(sizes) <= _WALK_ENTRIES
    assert held.tolist() == [_spark_holds(v[None], 1e-10)[0] for v in frames] == [i % 3 != 0 for i in range(40)]
