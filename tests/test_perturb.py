from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab as fl
from framelab._linalg import full_column_rank
from framelab.retrieval import _BATCH_ENTRIES


def _tail_energy(frame: fl.Frame, head: list[int]) -> float:
    v = frame.vectors
    anchor = v[head[0]] / np.linalg.norm(v[head[0]])
    tail = [i for i in range(frame.n_atoms) if i not in head]
    w = frame.weights
    return float(sum(w[i] * abs(fl.inner(anchor, v[i])) ** 2 for i in tail))


def test_break_pr_basic_contract():
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=0)
    head = [0, 1, 2]
    eps = _tail_energy(frame, head) * 1.5
    result = fl.break_phase_retrieval(frame, head, eps)
    assert result.l2_distance < eps
    assert result.new_bounds.is_frame
    mf = fl.magnitudes(result.perturbed, result.witness_f).values
    mg = fl.magnitudes(result.perturbed, result.witness_g).values
    assert np.allclose(mf, mg, atol=1e-9)
    # Witnesses are genuinely different signals, not a global sign flip.
    assert np.linalg.norm(result.witness_f - result.witness_g) > 1e-6
    assert np.linalg.norm(result.witness_f + result.witness_g) > 1e-6
    assert fl.phase_retrieval_certify(result.perturbed).verdict == fl.FAILS


def test_break_pr_head_rows_untouched():
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=3)
    head = [0, 1, 2]
    eps = _tail_energy(frame, head) * 2.0
    result = fl.break_phase_retrieval(frame, head, eps)
    assert np.array_equal(result.perturbed.vectors[:3], frame.vectors[:3])
    assert not np.array_equal(result.perturbed.vectors[3:], frame.vectors[3:])


def test_break_pr_l2_distance_is_tail_energy():
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=4)
    head = [0, 1, 2]
    energy = _tail_energy(frame, head)
    result = fl.break_phase_retrieval(frame, head, energy * 1.25)
    assert result.l2_distance == pytest.approx(energy, rel=1e-9)


def test_break_pr_carries_the_perturbed_certificate():
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=1)
    result = fl.break_phase_retrieval(frame, [0, 1, 2], 0.4)
    cert = fl.phase_retrieval_certify(result.perturbed)
    assert result.certificate.verdict == cert.verdict == fl.FAILS
    assert result.certificate.witness_subset == cert.witness_subset
    assert all(np.array_equal(a, b) for a, b in zip(result.certificate.witness_vectors, cert.witness_vectors))
    with pytest.raises(fl.EnumerationCapExceeded):
        fl.break_phase_retrieval(frame, [0, 1, 2], 0.4, cap=5)


def test_break_pr_self_check_rejects_a_perturbed_frame_that_still_retrieves(monkeypatch):
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=1)
    holds = fl.Certificate(verdict=fl.HOLDS, method="stub", field="real")
    monkeypatch.setattr("framelab.perturb.phase_retrieval_certify", lambda *a, **k: holds)
    with pytest.raises(fl.FramelabError, match="still does phase retrieval"):
        fl.break_phase_retrieval(frame, [0, 1, 2], 0.4)


def test_break_pr_epsilon_too_small():
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=0)
    with pytest.raises(ValueError):
        fl.break_phase_retrieval(frame, [0, 1, 2], 1e-12)


def test_break_pr_rejects_spanning_head():
    frame = fl.gen_random(3, 6, seed=1)
    with pytest.raises(ValueError):
        fl.break_phase_retrieval(frame, [0, 1, 2, 3, 4], 10.0)


def test_break_pr_rejects_zero_head():
    vectors = np.vstack([np.zeros((2, 3)), np.eye(3)])
    frame = fl.Frame(fl.make_atomic(np.ones(5)), vectors)
    with pytest.raises(ValueError):
        fl.break_phase_retrieval(frame, [0, 1], 1.0)


def test_break_pr_bad_subset():
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=0)
    with pytest.raises(ValueError):
        fl.break_phase_retrieval(frame, [], 1.0)
    with pytest.raises(ValueError):
        fl.break_phase_retrieval(frame, [0, 0], 1.0)
    with pytest.raises(ValueError):
        fl.break_phase_retrieval(frame, [99], 1.0)


def test_break_pr_complex_field():
    frame = fl.gen_random(3, 6, seed=2, field="complex")
    vectors = np.array(frame.vectors)
    # Push the head into a proper coordinate subspace to leave room for the witness.
    vectors[:3, 2] = 0.0
    frame = frame.with_vectors(vectors)
    eps = 1.1 * sum(
        frame.weights[i] * abs(fl.inner(vectors[0] / np.linalg.norm(vectors[0]), vectors[i])) ** 2
        for i in range(3, 6)
    )
    result = fl.break_phase_retrieval(frame, [0, 1, 2], float(eps))
    mf = fl.magnitudes(result.perturbed, result.witness_f).values
    mg = fl.magnitudes(result.perturbed, result.witness_g).values
    assert np.allclose(mf, mg, atol=1e-9)


def test_break_nr_onb_reference_values():
    frame = fl.gen_onb(2)
    result = fl.break_norm_retrieval(frame, [0], 0.5)
    assert np.allclose(result.perturbed.vectors[0], [1.0, -0.25])
    assert np.allclose(result.perturbed.vectors[1], [0.0, 1.0])
    assert fl.inner(result.witness_f, result.witness_g) == pytest.approx(0.5)
    cert = fl.norm_retrieval_certify(result.perturbed)
    assert cert.verdict == fl.FAILS
    assert cert.witness_subset == (0,)


def test_break_nr_witnesses_annihilate_their_sides():
    frame = fl.gen_onb(3)
    subset = [0, 1]
    eps = 0.25
    result = fl.break_norm_retrieval(frame, subset, eps)
    v = result.perturbed.vectors
    co = [i for i in range(3) if i not in subset]
    for i in subset:
        assert abs(fl.inner(result.witness_f, v[i])) < 1e-9
    for i in co:
        assert abs(fl.inner(result.witness_g, v[i])) < 1e-9
    assert fl.inner(result.witness_f, result.witness_g) == pytest.approx(eps)


def test_break_nr_zero_epsilon_keeps_frame():
    frame = fl.gen_onb(2)
    result = fl.break_norm_retrieval(frame, [0], 0.0)
    assert np.allclose(result.perturbed.vectors, frame.vectors)
    assert result.l2_distance == pytest.approx(0.0)


def test_break_nr_epsilon_range():
    frame = fl.gen_onb(2)
    bounds = fl.frame_bounds(frame)
    with pytest.raises(ValueError):
        fl.break_norm_retrieval(frame, [0], -0.1)
    with pytest.raises(ValueError):
        fl.break_norm_retrieval(frame, [0], 2.0 * np.sqrt(bounds.lower) + 0.1)


def test_break_nr_requires_nontrivial_null_spaces():
    frame = fl.gen_random(2, 5, seed=1)
    with pytest.raises(ValueError):
        fl.break_norm_retrieval(frame, [0, 1], 0.1)


def test_break_nr_rejects_complex():
    frame = fl.gen_random(2, 4, seed=0, field="complex")
    with pytest.raises(ValueError):
        fl.break_norm_retrieval(frame, [0], 0.1)


def test_break_nr_requires_nr_input():
    vectors = np.array([[1.0, 0.0], [1.0, 1.0]])
    frame = fl.Frame(fl.make_atomic(np.ones(2)), vectors)
    assert fl.norm_retrieval_certify(frame).verdict == fl.FAILS
    with pytest.raises(ValueError):
        fl.break_norm_retrieval(frame, [0], 0.1)


def test_break_nr_l2_distance_scales_with_epsilon():
    frame = fl.gen_onb(2)
    small = fl.break_norm_retrieval(frame, [0], 0.1)
    large = fl.break_norm_retrieval(frame, [0], 0.2)
    assert large.l2_distance == pytest.approx(4.0 * small.l2_distance, rel=1e-9)


def _trial_frames(frame: fl.Frame, lambdas, trials: int, seed: int) -> list[list[fl.Frame]]:
    """A sweep's perturbed frames, radius by radius, each built alone from the sweep's formula."""
    n, d = frame.n_atoms, frame.dim
    fields = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        directions = rng.standard_normal((n, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        fields.append((directions, rng.uniform(0.0, 1.0, size=n) ** (1.0 / d)))
    return [
        [frame.with_vectors(frame.vectors + lam * directions * radii[:, None]) for directions, radii in fields]
        for lam in lambdas
    ]


def _trial_failures(frame: fl.Frame, lambdas, trials: int, seed: int, tol: float) -> list[int]:
    """Per radius, how many of the sweep's frames fail the complement property, certified one by one."""
    return [
        sum(fl.complement_property(trial, tol).verdict != fl.HOLDS for trial in row)
        for row in _trial_frames(frame, lambdas, trials, seed)
    ]


def test_stability_sweep_mercedes_small_radii_preserve_pr():
    frame = fl.gen_mercedes()
    points = fl.stability_sweep(frame, [1e-4, 1e-3], trials=8, seed=0)
    assert all(p.all_preserved for p in points)
    assert all(p.failures == 0 for p in points)


def test_stability_sweep_huge_radius_can_break_pr():
    # A loose rank tolerance makes the breaking perturbations a set of positive measure.
    frame = fl.gen_mercedes()
    lambdas, trials, seed, tol = [0.0, 0.1, 0.3, 0.5, 1.0, 5.0], 40, 1, 0.3
    points = fl.stability_sweep(frame, lambdas, trials, seed, tol)
    assert [p.failures for p in points] == [0, 0, 2, 15, 34, 35]
    assert [p.failures for p in points] == _trial_failures(frame, lambdas, trials, seed, tol)
    assert [p.all_preserved for p in points] == [True, True, False, False, False, False]


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 4),
    extra=st.integers(0, 4),
    tol=st.sampled_from([1e-10, 0.05, 0.1, 0.15]),
    trials=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_stability_sweep_counts_what_each_trial_certifies(d, extra, tol, trials, seed):
    # All these frames but d = 2, n < 5 have more splits than the scan budget, so the holding ones
    # go on to the table; the loose tolerances let large radii break some frames, so a stack holds both verdicts.
    frame = fl.gen_random(d, 2 * d - 1 + extra, seed=seed)
    lambdas = [0.0, 0.2, 0.5, 1.0, 3.0]
    if fl.complement_property(frame, tol).verdict != fl.HOLDS:
        with pytest.raises(ValueError, match="needs a phase retrieval frame"):
            fl.stability_sweep(frame, lambdas, trials, seed, tol)
        return
    points = fl.stability_sweep(frame, lambdas, trials, seed, tol)
    assert [p.failures for p in points] == _trial_failures(frame, lambdas, trials, seed, tol)
    assert [p.all_preserved for p in points] == [p.failures == 0 for p in points]


@pytest.mark.parametrize(
    "frame, tol, failures",
    [
        (fl.gen_mercedes(), 0.3, [0, 0, 0, 4]),
        (fl.gen_random(3, 8, seed=3), 0.1, [0, 2, 4, 4]),
        (fl.gen_random(4, 11, seed=0), 1e-10, [0, 0, 0, 0]),
    ],
)
def test_stability_sweep_decides_no_more_matrices_than_one_certification_per_trial(monkeypatch, frame, tol, failures):
    lambdas, trials, seed = [0.0, 0.05, 0.2, 0.5], 6, 3
    calls, matrices = [], []

    def counting(stack, *args, **kwargs):
        calls.append(1)
        matrices.append(len(stack))
        return full_column_rank(stack, *args, **kwargs)

    monkeypatch.setattr("framelab.retrieval.full_column_rank", counting)
    # The lift settles gen_random(4, 11) with no rank call on either path; this counts the scan's.
    monkeypatch.setattr("framelab.retrieval._lifted_holds", lambda vs, tol: np.zeros(len(vs), dtype=bool))
    points = fl.stability_sweep(frame, lambdas, trials, seed, tol)
    swept_calls, swept = len(calls), sum(matrices)
    calls.clear()
    matrices.clear()
    assert [p.failures for p in points] == _trial_failures(frame, lambdas, trials, seed, tol) == failures
    fl.complement_property(frame, tol)
    assert swept <= sum(matrices)
    assert swept_calls < len(calls)


def test_a_lifted_sweep_makes_no_rank_call(monkeypatch):
    # n = 11 >= d(d + 1)/2 = 10: the input frame and every perturbed frame pass the lifted test.
    frame, lambdas, trials, seed = fl.gen_random(4, 11, seed=0), [0.0, 0.05, 0.2], 6, 3

    def refuse(stack, *args, **kwargs):
        raise AssertionError("full_column_rank ran")

    monkeypatch.setattr("framelab.retrieval.full_column_rank", refuse)
    points = fl.stability_sweep(frame, lambdas, trials, seed)
    assert [p.failures for p in points] == [0, 0, 0]
    monkeypatch.undo()
    # The scan and the table, with the lift refused, give the same counts.
    monkeypatch.setattr("framelab.retrieval._lifted_holds", lambda vs, tol: np.zeros(len(vs), dtype=bool))
    assert [p.failures for p in fl.stability_sweep(frame, lambdas, trials, seed)] == [0, 0, 0]


def test_stability_sweep_steps_stay_within_the_batch_size(monkeypatch):
    frame, lambdas, trials = fl.gen_mercedes(), [0.0, 0.3, 0.5, 1.0], 400
    sizes = []

    def recording(stack, *args, **kwargs):
        sizes.append(stack.size)
        return full_column_rank(stack, *args, **kwargs)

    monkeypatch.setattr("framelab.retrieval.full_column_rank", recording)
    points = fl.stability_sweep(frame, lambdas, trials, seed=2, tol=0.3)
    assert len(lambdas) * trials * frame.vectors.size > _BATCH_ENTRIES >= max(sizes)
    assert [p.failures for p in points] == _trial_failures(frame, lambdas, trials, 2, 0.3)


def test_stability_sweep_is_deterministic():
    frame = fl.gen_random(2, 5, seed=3)
    a = fl.stability_sweep(frame, [0.01, 0.1], trials=6, seed=7)
    b = fl.stability_sweep(frame, [0.01, 0.1], trials=6, seed=7)
    assert [(p.lam, p.failures) for p in a] == [(p.lam, p.failures) for p in b]


def test_stability_sweep_scales_one_direction_field_per_trial(monkeypatch):
    frame = fl.gen_random(2, 5, seed=3)
    lambdas, trials, seed = [0.01, 0.1, 0.3], 4, 7
    certified = []

    def recording(candidate, *args, **kwargs):
        certified.append(candidate.vectors.tobytes())
        return fl.Certificate(verdict=fl.HOLDS, method="recorded", field=candidate.field)

    def recording_stack(stack, *args, **kwargs):
        certified.extend(rows.tobytes() for rows in stack)
        return [None] * len(stack)

    monkeypatch.setattr("framelab.perturb.complement_property", recording)
    monkeypatch.setattr("framelab.perturb._first_failures", recording_stack)
    fl.stability_sweep(frame, lambdas, trials, seed)
    expected = [frame.vectors.tobytes()]
    expected += [trial.vectors.tobytes() for row in _trial_frames(frame, lambdas, trials, seed) for trial in row]
    assert certified == expected


def test_stability_sweep_validates_input():
    frame = fl.gen_mercedes()
    with pytest.raises(ValueError):
        fl.stability_sweep(frame, [0.1, 0.01], trials=3)
    with pytest.raises(ValueError):
        fl.stability_sweep(frame, [-0.1], trials=3)
    with pytest.raises(ValueError):
        fl.stability_sweep(fl.gen_onb(2), [0.01], trials=3)
    for lambdas in ([float("nan")], [float("inf")], [0.1, float("nan")]):
        with pytest.raises(ValueError, match="lambdas must be finite, nonnegative and ascending"):
            fl.stability_sweep(frame, lambdas, trials=3)


def test_stability_sweep_refuses_a_complex_frame_without_alpha(monkeypatch):
    def no_alpha(*args, **kwargs):
        raise AssertionError("alpha_certify ran")

    monkeypatch.setattr("framelab.retrieval.alpha_certify", no_alpha)
    frame = fl.gen_random(3, 9, seed=0, field="complex")
    with pytest.raises(ValueError, match="needs a phase retrieval frame"):
        fl.stability_sweep(frame, [0.01], trials=2)
    with pytest.raises(fl.EnumerationCapExceeded):
        fl.stability_sweep(frame, [0.01], trials=2, cap=8)


def test_stability_sweep_zero_trials_is_vacuously_preserved():
    points = fl.stability_sweep(fl.gen_mercedes(), [0.5], trials=0)
    assert len(points) == 1
    assert points[0].all_preserved
    assert points[0].failures == 0


def test_break_nr_carries_the_perturbed_certificate():
    frame = fl.gen_onb(2)
    broken = fl.break_norm_retrieval(frame, [0], 0.5)
    cert = fl.norm_retrieval_certify(broken.perturbed)
    assert broken.certificate.verdict == cert.verdict == fl.FAILS
    assert broken.certificate.witness_subset == cert.witness_subset == (0,)
    assert all(np.array_equal(a, b) for a, b in zip(broken.certificate.witness_vectors, cert.witness_vectors))
    # At epsilon 0 the frame is unchanged, and so is its verdict.
    assert fl.break_norm_retrieval(frame, [0], 0.0).certificate.verdict == fl.HOLDS
