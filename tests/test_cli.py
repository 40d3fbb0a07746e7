from __future__ import annotations

import json

import numpy as np
import pytest

import framelab as fl
from framelab.cli import main
from oracles import norm_retrieval_oracle


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_loadable_frame(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, stdout, stderr = _run(capsys, "gen", "mercedes", "-o", str(out))
    assert code == 0
    frame = fl.load_frame(out)
    assert frame.n_atoms == 3
    report = json.loads(stdout)
    assert report["data"]["atoms"] == 3
    assert report["data"]["output_digest"] == fl.file_digest(out)
    assert "wrote mercedes frame" in stderr


def test_gen_random_seeded(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _run(capsys, "gen", "random", "--dim", "2", "--n", "5", "--seed", "9", "-o", str(a))
    _run(capsys, "gen", "random", "--dim", "2", "--n", "5", "--seed", "9", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bounds_report(tmp_path, capsys):
    out = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(out))
    code, stdout, _ = _run(capsys, "bounds", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["data"]["lower"] == pytest.approx(1.5)
    assert report["data"]["upper"] == pytest.approx(1.5)
    assert report["data"]["is_frame"] is True
    assert report["data"]["bessel_holds"] is True


def test_certify_pr_exit_codes(tmp_path, capsys):
    merc = tmp_path / "m.json"
    onb = tmp_path / "o.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    _run(capsys, "gen", "onb", "--dim", "2", "-o", str(onb))
    code_holds, stdout, _ = _run(capsys, "certify", "pr", str(merc))
    assert code_holds == 0
    assert json.loads(stdout)["data"]["verdict"] == "holds"
    code_fails, stdout, _ = _run(capsys, "certify", "pr", str(onb))
    assert code_fails == 1
    report = json.loads(stdout)
    assert report["data"]["verdict"] == "fails"
    assert report["certificates"][0]["witness_subset"] == [0]


def test_certify_pr_complex_inconclusive(tmp_path, capsys):
    cx = tmp_path / "c.json"
    _run(capsys, "gen", "random", "--dim", "2", "--n", "5", "--field", "complex", "-o", str(cx))
    code, stdout, _ = _run(capsys, "certify", "pr", str(cx))
    assert code == 3
    report = json.loads(stdout)
    assert report["data"]["verdict"] == "inconclusive"
    assert report["certificates"][0]["alpha_estimate"] is not None


def test_certify_nr_emits_one_certificate_matching_the_oracle(tmp_path, capsys):
    onb = tmp_path / "o.json"
    _run(capsys, "gen", "onb", "--dim", "3", "-o", str(onb))
    code, stdout, _ = _run(capsys, "certify", "nr", str(onb))
    assert code == 0
    report = json.loads(stdout)
    assert set(report["data"]) == {"property", "verdict"}
    assert [c["verdict"] for c in report["certificates"]] == ["holds"]
    assert norm_retrieval_oracle(fl.gen_onb(3)).verdict == "holds"

    rows = np.array([[1.0, 0.0], [1.0, 1.0]])
    frame = fl.Frame(fl.make_atomic(np.ones(2)), rows)
    skew = tmp_path / "s.json"
    fl.save_frame(skew, frame)
    code, stdout, _ = _run(capsys, "certify", "nr", str(skew))
    assert code == 1
    (cert,) = json.loads(stdout)["certificates"]
    oracle = norm_retrieval_oracle(frame)
    assert cert["verdict"] == oracle.verdict == "fails"
    assert tuple(cert["witness_subset"]) == oracle.witness_subset == (0,)
    u, w = (np.array(x) for x in cert["witness_vectors"])
    assert abs(rows[0] @ u) < 1e-12 and abs(rows[1] @ w) < 1e-12
    assert abs(u @ w) > 1e-8
    f, g = oracle.witness_vectors
    assert np.allclose(np.abs(rows @ f), np.abs(rows @ g))
    assert abs(np.linalg.norm(f) - np.linalg.norm(g)) > 1e-8


def test_internal_construction_error_exit_code(tmp_path, capsys, monkeypatch):
    src = tmp_path / "d.json"
    _run(capsys, "gen", "deficient-tail", "--dim", "3", "-o", str(src))

    def broken(*args, **kwargs):
        raise fl.FramelabError("construction error: injected")

    monkeypatch.setattr("framelab.cli.break_phase_retrieval", broken)
    argv = ["perturb", "break-pr", str(src), "--head", "0,1,2", "--eps", "0.4", "-o", str(tmp_path / "p.json")]
    code, stdout, stderr = _run(capsys, *argv)
    assert code == 4
    assert json.loads(stdout) == {
        "command": " ".join(["framelab", *argv]),
        "error": "construction error: injected",
    }
    assert "error: construction error: injected" in stderr


def test_input_digest_describes_the_bytes_read(tmp_path, capsys):
    onb = tmp_path / "o.json"
    _run(capsys, "gen", "onb", "--dim", "2", "-o", str(onb))
    before = fl.file_digest(onb)
    code, stdout, _ = _run(
        capsys, "perturb", "break-nr", str(onb), "--subset", "0", "--eps", "0.5", "-o", str(onb)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["input_digests"] == {str(onb): before}
    assert report["data"]["output_digest"] == fl.file_digest(onb) != before


def test_alpha_command(tmp_path, capsys):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, _ = _run(capsys, "alpha", str(merc), "--restarts", "4", "--iters", "50")
    assert code == 0
    report = json.loads(stdout)
    assert report["data"]["alpha"] == pytest.approx(0.375, abs=1e-6)


def test_perturb_break_nr_pipeline(tmp_path, capsys):
    onb = tmp_path / "o.json"
    pert = tmp_path / "p.json"
    _run(capsys, "gen", "onb", "--dim", "2", "-o", str(onb))
    code, stdout, _ = _run(
        capsys, "perturb", "break-nr", str(onb), "--subset", "0", "--eps", "0.5", "-o", str(pert)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["certificates"][0]["verdict"] == "fails"
    assert fl.load_provenance(pert)["perturbation"] == "break-nr"


def test_perturb_break_pr_pipeline(tmp_path, capsys):
    src = tmp_path / "d.json"
    pert = tmp_path / "p.json"
    _run(capsys, "gen", "deficient-tail", "--dim", "3", "--head-dim", "2", "--tail-len", "3", "--seed", "1", "-o", str(src))
    code, stdout, _ = _run(
        capsys, "perturb", "break-pr", str(src), "--head", "0,1,2", "--eps", "0.5", "-o", str(pert)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["certificates"][0]["verdict"] == "fails"
    assert report["data"]["l2_distance"] < 0.5


def test_perturb_requires_subset_flags(tmp_path, capsys):
    onb = tmp_path / "o.json"
    _run(capsys, "gen", "onb", "--dim", "2", "-o", str(onb))
    code, stdout, _ = _run(capsys, "perturb", "break-nr", str(onb), "--eps", "0.5", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "error" in json.loads(stdout)


def test_sweep_command(tmp_path, capsys):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, _ = _run(capsys, "sweep", str(merc), "--lambdas", "0.001,0.01", "--trials", "4")
    assert code == 0
    report = json.loads(stdout)
    assert [p["lambda"] for p in report["data"]["points"]] == [0.001, 0.01]
    assert all(p["failures"] == 0 for p in report["data"]["points"])


def test_tensor_command_with_pr_check(tmp_path, capsys):
    merc = tmp_path / "m.json"
    out = tmp_path / "t.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, _ = _run(capsys, "tensor", str(merc), str(merc), "-o", str(out), "--check", "pr")
    assert code == 0
    report = json.loads(stdout)
    assert report["data"]["theorem_consistent"] is True
    assert report["data"]["lower"] == pytest.approx(2.25)
    product = fl.load_frame(out)
    assert product.n_atoms == 9


def test_missing_file_is_usage_error(capsys):
    code, stdout, stderr = _run(capsys, "bounds", "/nonexistent/frame.json")
    assert code == 2
    assert "error" in json.loads(stdout)
    assert "error" in stderr


def test_cap_exceeded_exit_code(tmp_path, capsys):
    big = tmp_path / "big.json"
    _run(capsys, "gen", "random", "--dim", "2", "--n", "30", "-o", str(big))
    code, stdout, _ = _run(capsys, "certify", "pr", str(big))
    assert code == 3
    assert "error" in json.loads(stdout)


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    monkeypatch.setenv("FRAMELAB_TOL", "1e-6")
    code, stdout, _ = _run(capsys, "bounds", str(merc))
    assert code == 0
    assert json.loads(stdout)["tolerances"]["rank_tol"] == 1e-6
    monkeypatch.setenv("FRAMELAB_TOL", "not-a-number")
    code, _, _ = _run(capsys, "bounds", str(merc))
    assert code == 2


def test_flag_beats_env(tmp_path, capsys, monkeypatch):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    monkeypatch.setenv("FRAMELAB_TOL", "1e-6")
    code, stdout, _ = _run(capsys, "certify", "pr", str(merc), "--tol", "1e-12")
    assert code == 0
    assert json.loads(stdout)["tolerances"]["rank_tol"] == 1e-12


def test_reports_are_deterministic(tmp_path, capsys):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    _, first, _ = _run(capsys, "certify", "pr", str(merc))
    _, second, _ = _run(capsys, "certify", "pr", str(merc))
    assert first == second
    assert "timings_ms" not in json.loads(first)


def test_timings_flag_attaches_timings(tmp_path, capsys):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, _ = _run(capsys, "certify", "pr", str(merc), "--timings")
    assert code == 0
    report = json.loads(stdout)
    assert "timings_ms" in report
    assert set(report["timings_ms"]) == {"load", "certify"}


def test_bounds_reports_bessel_bound_value(tmp_path, capsys):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    _, stdout, _ = _run(capsys, "bounds", str(merc))
    data = json.loads(stdout)["data"]
    assert data["bessel_bound"] == pytest.approx(1.5**0.5)
    assert data["max_vector_norm"] == pytest.approx(1.0)
    assert data["eta"] == pytest.approx(1.0)
