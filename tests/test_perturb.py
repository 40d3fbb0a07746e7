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


def _pr_witness_reverifies(frame: fl.Frame, cert: fl.Certificate) -> bool:
    """Whether a phase retrieval witness splits the atoms into two deficient sides and its pair has equal magnitudes.

    The pair must also differ by more than a unimodular factor.  Plain numpy, cutoffs relative to the atoms.
    """
    v, d = frame.vectors, frame.dim
    s = list(cert.witness_subset)
    c = [i for i in range(frame.n_atoms) if i not in s]
    x, y = cert.witness_vectors
    deficient = all(np.linalg.matrix_rank(v[side], tol=1e-9 * np.abs(v).max()) < d for side in (s, c) if side)
    scale = np.linalg.norm(v, axis=1) * max(np.linalg.norm(x), np.linalg.norm(y))
    equal = np.all(np.abs(np.abs(np.conj(v) @ x) - np.abs(np.conj(v) @ y)) <= 1e-8 * scale)
    differ = np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2 - 2 * abs(np.vdot(y, x)) > 1e-8
    return bool(deficient and equal and differ)


def _refuse(name: str):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return refuse


def test_break_pr_carries_the_perturbed_certificate(monkeypatch):
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=1)
    full = fl.phase_retrieval_certify
    monkeypatch.setattr("framelab.perturb.phase_retrieval_certify", _refuse("phase_retrieval_certify"))
    result = fl.break_phase_retrieval(frame, [0, 1, 2], 0.4)
    cert = full(result.perturbed)
    assert result.certificate.verdict == cert.verdict == fl.FAILS
    assert result.certificate.method == cert.method
    # The certificate witnesses the split the construction broke, which here is also the scan's first.
    assert result.certificate.witness_subset == cert.witness_subset == (0, 1, 2)
    assert all(np.array_equal(a, b) for a, b in zip(result.certificate.witness_vectors, cert.witness_vectors))
    assert _pr_witness_reverifies(result.perturbed, result.certificate)
    with pytest.raises(fl.EnumerationCapExceeded):
        fl.break_phase_retrieval(frame, [0, 1, 2], 0.4, cap=5)


def test_break_pr_self_check_rejects_a_perturbed_frame_that_still_retrieves(monkeypatch):
    # Only when the constructed split does not fail is every split walked, here by a stand-in that holds.
    frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=1)
    holds = fl.Certificate(verdict=fl.HOLDS, method="stub", field="real")
    monkeypatch.setattr("framelab.perturb._split_is_deficient", lambda *a, **k: False)
    monkeypatch.setattr("framelab.perturb.phase_retrieval_certify", lambda *a, **k: holds)
    with pytest.raises(fl.FramelabError, match="still does phase retrieval"):
        fl.break_phase_retrieval(frame, [0, 1, 2], 0.4)


@pytest.mark.parametrize("d, head_dim, tail_len", [(2, 1, 2), (3, 2, 3), (4, 2, 4), (4, 3, 3)])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("skip_atom_0", [False, True])
def test_break_pr_witnesses_its_split_on_deficient_tail_frames(monkeypatch, d, head_dim, tail_len, seed, skip_atom_0):
    # With atom 0 outside the head it joins the tail, so the witness is the tail side.
    frame = fl.gen_deficient_plus_tail(d, head_dim, tail_len, seed=seed)
    head = list(range(1 if skip_atom_0 else 0, head_dim + 1))
    full = fl.phase_retrieval_certify
    monkeypatch.setattr("framelab.perturb.phase_retrieval_certify", _refuse("phase_retrieval_certify"))
    result = fl.break_phase_retrieval(frame, head, 1.25 * _tail_energy(frame, head) + 1e-12)
    rest = tuple(i for i in range(frame.n_atoms) if i not in head)
    assert result.certificate.verdict == full(result.perturbed).verdict == fl.FAILS
    assert result.certificate.witness_subset == (rest if skip_atom_0 else tuple(head))
    assert all(type(i) is int for i in result.certificate.witness_subset)
    assert _pr_witness_reverifies(result.perturbed, result.certificate)


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
    # The certificate of the broken split is the complex field's complement-necessity failure.
    cert = result.certificate
    assert (cert.verdict, cert.method, cert.witness_subset) == (fl.FAILS, "pr-complement-necessity", (0, 1, 2))
    assert fl.phase_retrieval_certify(result.perturbed).verdict == fl.FAILS
    assert _pr_witness_reverifies(result.perturbed, cert)


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
    """A sweep's perturbed frames, radius by radius, each trial built alone from its slice of one draw."""
    n, d = frame.n_atoms, frame.dim
    x = np.random.default_rng(seed).standard_normal((trials, n, d + 2))
    fields = [x[t, :, :d] / np.linalg.norm(x[t], axis=1, keepdims=True) for t in range(trials)]
    return [[frame.with_vectors(frame.vectors + lam * field) for field in fields] for lam in lambdas]


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
    assert [p.failures for p in points] == [0, 0, 2, 13, 37, 36]
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
        (fl.gen_mercedes(), 0.3, [0, 0, 0, 3]),
        (fl.gen_random(3, 8, seed=3), 0.1, [0, 3, 5, 5]),
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
    # The lift settles gen_random(4, 11) with no rank call on either path, and so does the spark
    # stage when the lift is refused; this counts the scan's.
    for path in ("framelab.retrieval._lifted_holds", "framelab.perturb._lifted_holds", "framelab.retrieval._spark_holds"):
        monkeypatch.setattr(path, lambda vs, tol: np.zeros(len(vs), dtype=bool))
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
    monkeypatch.setattr("framelab.perturb._lifted_holds", lambda vs, tol: np.zeros(len(vs), dtype=bool))
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


def _certified_stacks(monkeypatch, frame, lambdas, trials: int, seed: int) -> list[list[bytes]]:
    """The bytes of every frame the sweep certifies, stack by stack, each stand-in verdict holding."""
    stacks = []

    def recording_stack(stack, *args, **kwargs):
        stacks.append([rows.tobytes() for rows in stack])
        return np.ones(len(stack), dtype=bool)

    monkeypatch.setattr("framelab.perturb._lifted_holds", recording_stack)
    fl.stability_sweep(frame, lambdas, trials, seed)
    return stacks


def test_stability_sweep_scales_one_direction_field_per_trial(monkeypatch):
    frame = fl.gen_random(2, 5, seed=3)
    lambdas, trials, seed = [0.01, 0.1, 0.3], 4, 7
    # The input frame is row 0 of the one stack, and each trial's frames are byte for byte those it builds alone.
    expected = [frame.vectors.tobytes()]
    expected += [trial.vectors.tobytes() for row in _trial_frames(frame, lambdas, trials, seed) for trial in row]
    assert _certified_stacks(monkeypatch, frame, lambdas, trials, seed) == [expected]


def test_stability_sweep_blocks_build_each_trial_as_it_builds_alone(monkeypatch):
    # A block draws, normalizes and scales all its trials' fields at once, from the one generator.
    # At d = 3 and a batch of 200 entries, a block holds three trials: the blocks hold trials 0-2, then 3.
    frame = fl.gen_random(3, 7, seed=1)
    lambdas, trials, seed = [0.01, 0.1, 0.3], 4, 7
    monkeypatch.setattr("framelab.perturb._BATCH_ENTRIES", 200)
    rows = _trial_frames(frame, lambdas, trials, seed)
    first = [frame.vectors.tobytes()] + [row[t].vectors.tobytes() for row in rows for t in range(3)]
    second = [row[3].vectors.tobytes() for row in rows]
    assert _certified_stacks(monkeypatch, frame, lambdas, trials, seed) == [first, second]


def _frames_by_radius(stacks: list[list[bytes]], n_lams: int) -> list[list[bytes]]:
    """Each radius's certified frames in trial order, gathered from every block's stack, the input frame left out."""
    rows: list[list[bytes]] = [[] for _ in range(n_lams)]
    for stack in [stacks[0][1:], *stacks[1:]]:
        count = len(stack) // n_lams
        for k in range(n_lams):
            rows[k] += stack[k * count : (k + 1) * count]
    return rows


@pytest.mark.parametrize("per_block", [1, 3])
def test_stability_sweep_blocks_change_no_trial(monkeypatch, per_block):
    # Blocks of one or of three trials certify the frames of one block of all ten, byte for byte and in trial order.
    frame, lambdas, trials, seed, tol = fl.gen_mercedes(), [0.3, 0.5, 1.0], 10, 4, 0.3

    def run():
        counts = [p.failures for p in fl.stability_sweep(frame, lambdas, trials, seed, tol)]
        with pytest.MonkeyPatch.context() as patch:
            return counts, _certified_stacks(patch, frame, lambdas, trials, seed)

    whole_counts, whole = run()
    monkeypatch.setattr("framelab.perturb._BATCH_ENTRIES", per_block * len(lambdas) * frame.vectors.size)
    counts, blocked = run()
    assert len(whole) == 1 and len(blocked) == -(-trials // per_block)
    assert blocked[0][0] == whole[0][0] == frame.vectors.tobytes()
    assert _frames_by_radius(blocked, len(lambdas)) == _frames_by_radius(whole, len(lambdas))
    assert counts == whole_counts and sum(counts) > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stability_sweep_draws_uniformly_on_the_ball(monkeypatch, d):
    # 1000 trials of 20 atoms: 20,000 perturbations, whose norms over lam have the radial CDF r^d of the unit d-ball.
    frame, lam = fl.gen_random(d, 20, seed=d), 0.5
    stacks = _certified_stacks(monkeypatch, frame, [lam], 1000, seed=11)
    rows = np.concatenate([np.frombuffer(b"".join(stack), dtype=float) for stack in stacks]).reshape(-1, 20, d)
    radii = np.linalg.norm(rows[1:] - frame.vectors, axis=2).ravel() / lam
    assert radii.size == 20_000 and radii.max() < 1.0
    for r in (0.3, 0.6, 0.9):
        assert abs(np.mean(radii <= r) - r**d) < 0.02


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


def test_stability_sweep_checks_radii_and_trials_before_certifying(monkeypatch):
    # The cap comes first; then the radii and the trial count are refused before any SVD.
    # So a frame that does not do phase retrieval gets the radii error, not the frame error.
    def no_certification(*args, **kwargs):
        raise AssertionError("a frame was certified")

    monkeypatch.setattr("framelab.perturb._first_failures", no_certification)
    for frame in (fl.gen_random(4, 24, seed=0), fl.gen_onb(2)):
        with pytest.raises(ValueError, match="lambdas must be finite, nonnegative and ascending"):
            fl.stability_sweep(frame, [0.1, 0.01], trials=3)
        with pytest.raises(ValueError, match="lambdas must hold at least one radius"):
            fl.stability_sweep(frame, [], trials=3)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            fl.stability_sweep(frame, [0.1], trials=0)
    with pytest.raises(fl.EnumerationCapExceeded):
        fl.stability_sweep(fl.gen_random(4, 24, seed=0), [0.1, 0.01], trials=3, cap=23)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="needs a phase retrieval frame"):
        fl.stability_sweep(fl.gen_onb(2), [0.1], trials=3)


def test_stability_sweep_refuses_zero_trials_and_no_radii():
    # Zero trials or no radius would report "all preserved" from no evidence.
    frame = fl.gen_mercedes()
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            fl.stability_sweep(frame, [0.5], trials=trials)
    with pytest.raises(ValueError, match="lambdas must hold at least one radius"):
        fl.stability_sweep(frame, [], trials=3)


def test_stability_sweep_certifies_in_blocks_of_the_batch_size(monkeypatch):
    # A stand-in verdict that fails about half the perturbed frames, each by its own rows,
    # so that counts over blocks can differ from the counts over one stack.
    frame, lambdas, trials = fl.gen_random(3, 5, seed=3), [0.01, 0.1, 0.3], 11
    stacks = []

    def by_rows(stack, *args, **kwargs):
        stacks.append(stack.shape)
        return [() if rows[0, 0] > frame.vectors[0, 0] else None for rows in stack]

    monkeypatch.setattr("framelab.perturb._first_failures", by_rows)
    whole = [p.failures for p in fl.stability_sweep(frame, lambdas, trials, seed=4)]
    # The first stack also holds the input frame, in row 0.
    assert stacks == [(34, 5, 3)] and 0 < sum(whole) < 33
    # A trial takes 45 entries, so a block of 200 holds four trials: 12 frames, then 12, then 9.
    stacks.clear()
    monkeypatch.setattr("framelab.perturb._BATCH_ENTRIES", 200)
    assert [p.failures for p in fl.stability_sweep(frame, lambdas, trials, seed=4)] == whole
    assert stacks == [(13, 5, 3), (12, 5, 3), (9, 5, 3)]
    # A block holds at least one trial, whatever the batch size.
    stacks.clear()
    monkeypatch.setattr("framelab.perturb._BATCH_ENTRIES", 1)
    assert [p.failures for p in fl.stability_sweep(frame, lambdas, trials, seed=4)] == whole
    assert stacks == [(4, 5, 3)] + [(3, 5, 3)] * 10


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
def test_the_constructions_refuse_a_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        fl.break_norm_retrieval(fl.gen_onb(2), [0], epsilon)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        fl.break_phase_retrieval(fl.gen_deficient_plus_tail(3, 2, 3, seed=0), [0, 1, 2], epsilon)


def _nr_witness_reverifies(frame: fl.Frame, cert: fl.Certificate, ortho_tol: float = 1e-8) -> bool:
    """Whether a norm retrieval witness (u, w) annihilates its subset and the complement, with <u, w> above ortho_tol.

    Plain numpy, with annihilation relative to the largest atom norm.
    """
    v = frame.vectors
    s = list(cert.witness_subset)
    c = [i for i in range(frame.n_atoms) if i not in s]
    u, w = cert.witness_vectors
    top = np.linalg.norm(v, axis=1).max()
    units = np.isclose(np.linalg.norm(u), 1.0) and np.isclose(np.linalg.norm(w), 1.0)
    annihilated = all(np.abs(v[side] @ x).max(initial=0.0) <= 1e-8 * top for side, x in ((s, u), (c, w)))
    return bool(units and annihilated and abs(u @ w) > ortho_tol)


def _recorded_certifications(monkeypatch, name: str) -> list[np.ndarray]:
    """The vectors of every frame the construction hands to the full certifier ``name``."""
    original, seen = getattr(fl, name), []

    def recording(frame, *args, **kwargs):
        seen.append(frame.vectors)
        return original(frame, *args, **kwargs)

    monkeypatch.setattr(f"framelab.perturb.{name}", recording)
    return seen


def test_break_nr_carries_the_perturbed_certificate(monkeypatch):
    frame = fl.gen_onb(2)
    seen = _recorded_certifications(monkeypatch, "norm_retrieval_certify")
    broken = fl.break_norm_retrieval(frame, [0], 0.5)
    # The input is certified once; the output is not walked, since its constructed split fails.
    assert len(seen) == 1 and np.array_equal(seen[0], frame.vectors)
    cert = fl.norm_retrieval_certify(broken.perturbed)
    assert broken.certificate.verdict == cert.verdict == fl.FAILS
    assert broken.certificate.method == cert.method
    # The constructed split {0} | {1} is also the scan's first, so the witness is the full certifier's.
    assert broken.certificate.witness_subset == cert.witness_subset == (0,)
    assert all(np.array_equal(a, b) for a, b in zip(broken.certificate.witness_vectors, cert.witness_vectors))
    assert _nr_witness_reverifies(broken.perturbed, broken.certificate)
    # Breaking atom 1 witnesses the same split, written with atom 0's side first.
    other = fl.break_norm_retrieval(frame, [1], 0.5)
    assert other.certificate.witness_subset == (0,)
    assert _nr_witness_reverifies(other.perturbed, other.certificate)
    # At epsilon 0 the frame is unchanged, and so is its verdict, which the full certifier gives.
    seen.clear()
    assert fl.break_norm_retrieval(frame, [0], 0.0).certificate.verdict == fl.HOLDS
    assert len(seen) == 2 and all(np.array_equal(v, frame.vectors) for v in seen)


def _repeated_onb(d: int, k: int) -> fl.Frame:
    """k copies of a seeded rotation of the standard basis of R^d, unit weights; atom c * d + j is copy c of e_j."""
    q = np.linalg.qr(np.random.default_rng(10 * d + k).standard_normal((d, d)))[0]
    return fl.Frame(fl.make_atomic(np.ones(d * k)), np.vstack([q] * k))


def _copy_classes(d: int, k: int) -> list[list[int]]:
    """Subsets of whole copy classes, so that neither side spans.

    They are the copies of e_0, those of every e_j but e_0 (atom 0 on the other side), and, when d >= 3,
    those of e_0 and e_1.  A subset that splits the copies of one e_j leaves a spanning complement, and
    the construction refuses it.
    """
    classes = [[c * d + j for c in range(k)] for j in range(d)]
    subsets = [classes[0], sorted(sum(classes[1:], []))]
    if d >= 3:
        subsets.append(sorted(classes[0] + classes[1]))
    return subsets


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [0.05, 0.25, 0.5])
def test_break_nr_witnesses_its_split_on_repeated_onbs(monkeypatch, d, k, eps):
    frame = _repeated_onb(d, k)
    full = fl.norm_retrieval_certify
    for subset in _copy_classes(d, k):
        seen = _recorded_certifications(monkeypatch, "norm_retrieval_certify")
        broken = fl.break_norm_retrieval(frame, subset, eps)
        assert len(seen) == 1 and np.array_equal(seen[0], frame.vectors)
        monkeypatch.undo()
        rest = tuple(i for i in range(d * k) if i not in subset)
        cert = broken.certificate
        assert cert.verdict == full(broken.perturbed).verdict == fl.FAILS
        assert cert.witness_subset == (tuple(subset) if subset[0] == 0 else rest)
        assert all(type(i) is int for i in cert.witness_subset)
        assert _nr_witness_reverifies(broken.perturbed, cert)


@pytest.mark.parametrize("construction", ["break-nr", "break-pr"])
def test_a_split_that_does_not_fail_falls_back_to_the_full_certifier(monkeypatch, construction):
    # Forced down the fallback, each construction carries today's certificate, byte for byte.
    if construction == "break-nr":
        build, certify = fl.break_norm_retrieval, fl.norm_retrieval_certify
        frame, ids, eps = _repeated_onb(3, 3), [1, 4, 7], 0.25
    else:
        build, certify = fl.break_phase_retrieval, fl.phase_retrieval_certify
        frame, ids, eps = fl.gen_deficient_plus_tail(3, 2, 3, seed=1), [1, 2], 10.0
    direct = build(frame, ids, eps).certificate
    monkeypatch.setattr("framelab.perturb._split_is_deficient", lambda *a, **k: False)
    result = build(frame, ids, eps)
    cert = certify(result.perturbed)
    assert result.certificate.verdict == cert.verdict == fl.FAILS
    assert result.certificate.method == cert.method == direct.method
    assert result.certificate.witness_subset == cert.witness_subset
    assert all(np.array_equal(a, b) for a, b in zip(result.certificate.witness_vectors, cert.witness_vectors))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8, 1e10])
def test_break_nr_applies_to_frames_of_any_scale(d, scale):
    # The annihilation self-checks are relative to |w| times the largest atom, so scaling the frame changes nothing.
    frame = _repeated_onb(d, 2)
    frame = frame.with_vectors(frame.vectors * scale)
    eps = 0.25 * scale
    broken = fl.break_norm_retrieval(frame, [0, d], eps)
    v, w1, w2 = broken.perturbed.vectors, broken.witness_f, broken.witness_g
    rest = [i for i in range(2 * d) if i not in (0, d)]
    assert np.abs(v[[0, d]] @ w1).max() <= 1e-8 * np.linalg.norm(w1) * scale
    assert np.abs(v[rest] @ w2).max() <= 1e-8 * np.linalg.norm(w2) * scale
    assert float(w1 @ w2) == pytest.approx(eps, rel=1e-9)
    assert broken.certificate.verdict == fl.FAILS and broken.certificate.witness_subset == (0, d)
    assert _nr_witness_reverifies(broken.perturbed, broken.certificate)


def test_break_nr_refuses_an_epsilon_too_small_to_see():
    # The overlap, of order epsilon, lies below ortho_tol: a precondition error, not a construction error.
    with pytest.raises(ValueError, match=r"epsilon 1e-12 is too small .* ortho_tol 1e-08"):
        fl.break_norm_retrieval(fl.gen_onb(2), [0], 1e-12)
    assert fl.break_norm_retrieval(fl.gen_onb(2), [0], 1e-12, ortho_tol=1e-14).certificate.verdict == fl.FAILS
