"""Acceptance suite: ten headline guarantees, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion verdict
lines, or plain ``pytest`` to fold them into the full suite.
"""

from __future__ import annotations

import json
import time

import numpy as np

import framelab as fl
from framelab.cli import main as cli_main
from oracles import alpha_grid_oracle_2d, norm_retrieval_oracle, sign_pattern_pr_oracle


def _passed(name: str) -> None:
    print(f"[PASS] {name}")


def test_criterion_01_frame_operator_identity():
    """<Sf, f> equals the weighted coefficient energy on 1000 random pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(1000):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d, 13))
        field = "complex" if trial % 2 else "real"
        frame = fl.gen_random(d, n, seed=trial, field=field)
        f = rng.standard_normal(d)
        if field == "complex":
            f = f + 1j * rng.standard_normal(d)
        quad = float(np.real(fl.inner(fl.frame_operator(frame) @ f, f)))
        coeffs = fl.analysis(frame, f)
        energy = float(np.sum(frame.weights * np.abs(coeffs.values) ** 2))
        rel = abs(quad - energy) / max(abs(quad), abs(energy), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst relative error {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(f"criterion 1: frame-operator identity, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_bessel_norm_bound():
    """max vector norm stays below sqrt(B/eta) on 500 randomly weighted frames."""
    rng = np.random.default_rng(77)
    violations = 0
    for trial in range(500):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d, 13))
        base = fl.gen_random(d, n, seed=trial + 5000)
        weights = rng.uniform(0.05, 3.0, size=n)
        frame = fl.Frame(fl.make_atomic(weights), base.vectors)
        if not fl.bessel_norm_bound_check(frame).holds:
            violations += 1
    assert violations == 0
    _passed("criterion 2: Bessel norm bound, 500 weighted frames, zero violations")


def test_criterion_03_pr_equivalence_on_corpus(real_corpus):
    """Complement-property verdicts agree with the sign-pattern oracle corpus-wide."""
    start = time.perf_counter()
    eligible = [fr for fr in real_corpus if fr.n_atoms <= 12 and fr.dim <= 4]
    assert len(eligible) >= 200, f"corpus too small: {len(eligible)}"
    disagreements = 0
    for frame in eligible:
        cert = fl.complement_property(frame)
        oracle = sign_pattern_pr_oracle(frame)
        if (cert.verdict == fl.HOLDS) != (oracle == "holds"):
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed(
        f"criterion 3: PR equivalence on {len(eligible)} frames, "
        f"zero disagreements, {elapsed:.1f}s"
    )


def test_criterion_04_alpha_certification():
    """Alternating minimization matches the angle grid and never increases."""
    mercedes = fl.gen_mercedes()
    result = fl.alpha_certify(mercedes, restarts=6, iters=80, seed=0)
    oracle = alpha_grid_oracle_2d(mercedes)
    assert abs(result.alpha - oracle) < 1e-4, f"{result.alpha} vs {oracle}"
    onb = fl.alpha_certify(fl.gen_onb(2), restarts=4, iters=60, seed=0)
    assert onb.alpha < 1e-10
    checked = 0
    for frame, seed in [
        (mercedes, 0),
        (fl.gen_onb(3), 1),
        (fl.gen_random(2, 5, seed=1), 2),
        (fl.gen_random(3, 7, seed=2), 3),
        (fl.gen_random(2, 4, seed=3, field="complex"), 4),
    ]:
        res = fl.alpha_certify(frame, restarts=5, iters=60, seed=seed)
        for trace in res.traces:
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-12), f"trace increased by {diffs.max():.2e}"
            checked += 1
    _passed(
        f"criterion 4: alpha {result.alpha:.6f} vs grid {oracle:.6f}, "
        f"ONB alpha {onb.alpha:.1e}, {checked} monotone traces"
    )


def test_criterion_05_nr_certifier_vs_oracle(real_corpus):
    """Null-space orthogonality agrees with brute-force pairs; witnesses check out."""
    eligible = [fr for fr in real_corpus if fr.n_atoms <= 14]
    disagreements = 0
    failures_checked = 0
    for frame in eligible:
        cert = fl.norm_retrieval_certify(frame)
        oracle = norm_retrieval_oracle(frame)
        if cert.verdict != oracle.verdict:
            disagreements += 1
            continue
        # Norm retrieval can only fail on a split where neither side spans.
        if cert.verdict == fl.FAILS:
            assert fl.complement_property(frame).verdict == fl.FAILS, "NR fails but CP holds"
        if oracle.verdict == fl.FAILS:
            f, g = oracle.witness_vectors
            mf = fl.magnitudes(frame, f).values
            mg = fl.magnitudes(frame, g).values
            assert np.allclose(mf, mg, atol=1e-8), "witness magnitudes differ"
            assert abs(np.linalg.norm(f) - np.linalg.norm(g)) > 1e-10, "witness norms agree"
            failures_checked += 1
    assert disagreements == 0
    _passed(
        f"criterion 5: NR certifier vs oracle on {len(eligible)} frames, "
        f"zero disagreements, {failures_checked} failure witnesses reproduced"
    )


def test_criterion_06_break_pr_constructions():
    """Twenty seeded head-plus-tail frames all break cleanly under the recipe."""
    exceptions = 0
    for seed in range(20):
        frame = fl.gen_deficient_plus_tail(3, 2, 3, seed=seed)
        head = [0, 1, 2]
        anchor = frame.vectors[0] / np.linalg.norm(frame.vectors[0])
        tail_energy = float(
            sum(
                frame.weights[i] * abs(fl.inner(anchor, frame.vectors[i])) ** 2
                for i in range(3, frame.n_atoms)
            )
        )
        try:
            result = fl.break_phase_retrieval(frame, head, tail_energy * 1.25)
        except Exception:
            exceptions += 1
            continue
        mf = fl.magnitudes(result.perturbed, result.witness_f).values
        mg = fl.magnitudes(result.perturbed, result.witness_g).values
        assert np.allclose(mf, mg, atol=1e-9), f"seed {seed}: magnitudes differ"
        assert result.l2_distance < tail_energy * 1.25, f"seed {seed}: moved too far"
        assert result.new_bounds.is_frame, f"seed {seed}: not a frame"
        assert fl.phase_retrieval_certify(result.perturbed).verdict == fl.FAILS
    assert exceptions == 0
    _passed("criterion 6: break-PR on 20 seeded instances, all contracts met, zero exceptions")


def test_criterion_07_break_nr_corollary():
    """ONB(2), subset {0}, eps 0.5: flagged subset and eps/2 null-space overlap."""
    eps = 0.5
    result = fl.break_norm_retrieval(fl.gen_onb(2), [0], eps)
    cert = fl.norm_retrieval_certify(result.perturbed)
    assert cert.verdict == fl.FAILS
    assert cert.witness_subset == (0,)
    # Null space of the perturbed subset row, scaled so the coordinate along
    # the original null direction e2 is one; null space of the complement row
    # is e1. Their inner product is the designed overlap.
    row = result.perturbed.vectors[0]
    n1 = np.array([-row[1], row[0]])
    n1 = n1 / n1[1]
    n2 = np.array([1.0, 0.0])
    overlap = float(n1 @ n2)
    assert abs(overlap - eps / 2.0) <= 1e-9, f"overlap {overlap}"
    _passed(f"criterion 7: break-NR corollary, flagged subset (0,), overlap {overlap:.6f}")


def test_criterion_08_tensor_theorems(small_factor_pool):
    """PR and NR tensor checks are consistent on every admissible small pair."""
    pairs = [
        (left, right)
        for left in small_factor_pool
        for right in small_factor_pool
        if left.n_atoms * right.n_atoms <= 18
    ]
    assert len(pairs) >= 50, f"only {len(pairs)} pairs"
    nr_checked = 0
    for left, right in pairs:
        tensor = fl.tensor_product(left, right)
        report = fl.tensor_pr_check(tensor)
        assert report.theorem_consistent, "tensor PR inconsistency"
        try:
            nr_report = fl.tensor_nr_check(tensor)
        except ValueError:
            continue
        assert nr_report.consistent, "tensor NR inconsistency"
        nr_checked += 1
    m = fl.gen_mercedes()
    bounds = fl.frame_bounds(fl.tensor_product(m, m).product)
    assert abs(bounds.lower - 2.25) <= 1e-9
    assert abs(bounds.upper - 2.25) <= 1e-9
    _passed(
        f"criterion 8: tensor theorems on {len(pairs)} pairs "
        f"({nr_checked} NR-admissible), product bounds (2.25, 2.25)"
    )


def test_criterion_09_lipschitz_inequality():
    """The magnitude map never stretches more than sqrt(B) on 10^4 triples."""
    rng = np.random.default_rng(99)
    violations = 0
    for field in ("real", "complex"):
        frames = []
        for k in range(50):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(d, 13))
            frames.append(fl.gen_random(d, n, seed=9000 + k, field=field))
        for frame in frames:
            d = frame.dim
            for _ in range(100):
                f = rng.standard_normal(d)
                g = rng.standard_normal(d)
                if field == "complex":
                    f = f + 1j * rng.standard_normal(d)
                    g = g + 1j * rng.standard_normal(d)
                if not fl.lipschitz_check(frame, f, g).holds:
                    violations += 1
    assert violations == 0
    _passed("criterion 9: Lipschitz inequality, 10000 triples in both fields, zero violations")


def test_criterion_10_cli_golden_pipeline(tmp_path, capsys, monkeypatch):
    """gen -> certify -> bounds emits byte-identical reports on repeat runs."""

    def pipeline(workdir):
        workdir.mkdir(exist_ok=True)
        monkeypatch.chdir(workdir)
        outputs = []
        for argv in [
            ["gen", "random", "--dim", "3", "--n", "6", "--seed", "17", "-o", "frame.json"],
            ["certify", "pr", "frame.json"],
            ["certify", "nr", "frame.json"],
            ["bounds", "frame.json"],
            ["alpha", "frame.json", "--restarts", "4", "--iters", "40"],
        ]:
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{argv} exited {code}: {captured.err}"
            outputs.append(captured.out)
        outputs.append((workdir / "frame.json").read_bytes())
        return outputs

    run_a = pipeline(tmp_path / "a")
    run_b = pipeline(tmp_path / "b")
    assert run_a == run_b
    for text in run_a[:-1]:
        json.loads(text)
    _passed("criterion 10: CLI pipeline reports byte-identical across two runs")
