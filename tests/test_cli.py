from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab as fl
from framelab import cli
from framelab.cli import main
from oracles import norm_retrieval_oracle

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CERTIFICATE_KEYS = ["verdict", "method", "field", "witness_subset", "witness_vectors"]


def _assert_certificate_keys(report: dict) -> None:
    assert report["certificates"]
    assert all(list(cert) == CERTIFICATE_KEYS for cert in report["certificates"])


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
    _assert_certificate_keys(json.loads(stdout))
    code_fails, stdout, _ = _run(capsys, "certify", "pr", str(onb))
    assert code_fails == 1
    report = json.loads(stdout)
    _assert_certificate_keys(report)
    assert report["data"]["verdict"] == "fails"
    assert report["certificates"][0]["witness_subset"] == [0]


def test_certify_pr_complex_inconclusive(tmp_path, capsys):
    # The harmonic frame's Hermitian lift has diag(1, -1) in its kernel, and the
    # complement property holds, which over C is only necessary.
    cx = tmp_path / "c.json"
    _run(capsys, "gen", "harmonic", "--dim", "2", "--n", "4", "--field", "complex", "-o", str(cx))
    code, stdout, _ = _run(capsys, "certify", "pr", str(cx))
    assert code == 3
    report = json.loads(stdout)
    assert report["data"]["verdict"] == "inconclusive"
    cert = report["certificates"][0]
    assert cert["method"] == "pr-complement-necessity"
    assert list(cert) == CERTIFICATE_KEYS and cert["witness_subset"] is None


def test_certify_pr_complex_holds_on_its_lift(tmp_path, capsys):
    # Random d=2, n=5: n >= d^2, and its Hermitian lift is injective.
    cx = tmp_path / "c.json"
    _run(capsys, "gen", "random", "--dim", "2", "--n", "5", "--field", "complex", "-o", str(cx))
    code, stdout, _ = _run(capsys, "certify", "pr", str(cx))
    assert code == 0
    report = json.loads(stdout)
    assert report["data"]["verdict"] == "holds"
    cert = report["certificates"][0]
    assert cert["method"] == "pr-lifted-hermitian"
    assert list(cert) == CERTIFICATE_KEYS


@pytest.mark.parametrize("kind, code, verdict, method", [
    # The complex harmonic frame is Parseval: I is the sum of its rank-one projections.
    (["harmonic", "--dim", "2", "--n", "5", "--field", "complex"], 0, "holds", "nr-identity-span"),
    # Three generic atoms of C^2 span three of the four dimensions of the Hermitian matrices, not I.
    (["random", "--dim", "2", "--n", "3", "--field", "complex"], 3, "inconclusive", "nr-identity-sufficiency"),
    # An orthonormal basis of R^3 has n = 3 < 6, so no lift; the identity test settles it.
    (["onb", "--dim", "3"], 0, "holds", "nr-identity-span"),
    # Seven generic atoms of C^3 span seven of its nine dimensions, not I.
    (["random", "--dim", "3", "--n", "7", "--field", "complex"], 3, "inconclusive", "nr-identity-sufficiency"),
    # Nine generic atoms of C^3 have an injective Hermitian lift, so I lies in the span of their projections,
    # and the residual alone bounds | ||f||^2 - ||g||^2 |: no rank tolerance term enters the complex proof.
    *[(["random", "--dim", "3", "--n", "9", "--seed", str(seed), "--field", "complex"], 0, "holds", "nr-identity-span")
      for seed in range(3)],
])
def test_certify_nr_by_the_identity_test(kind, code, verdict, method, tmp_path, capsys):
    # Complex certify nr used to be refused with exit 2; now it holds or is inconclusive.
    path = tmp_path / "f.json"
    _run(capsys, "gen", *kind, "-o", str(path))
    got, stdout, stderr = _run(capsys, "certify", "nr", str(path))
    assert got == code
    report = json.loads(stdout)
    assert report["data"] == {"property": "norm retrieval", "verdict": verdict}
    (cert,) = report["certificates"]
    assert list(cert) == CERTIFICATE_KEYS
    assert (cert["verdict"], cert["method"], cert["witness_subset"], cert["witness_vectors"]) == (verdict, method, None, None)
    assert f"norm retrieval: {verdict}" in stderr


def test_certify_nr_holds_on_a_noisy_repeated_complex_onb(tmp_path, capsys):
    # Three copies of an ONB of C^3, turned by one unitary and moved by 1e-9 noise: the identity
    # holds up to rounding, whatever lift directions near the solve's cutoff its solve keeps.
    # Phase retrieval stays open: the lift is far from injective and the complement property holds.
    rng = np.random.default_rng(0)
    unitary, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    vectors = np.tile(np.eye(3), (3, 1)) @ unitary.T
    vectors = vectors + 1e-9 * (rng.standard_normal(vectors.shape) + 1j * rng.standard_normal(vectors.shape))
    path = tmp_path / "f.json"
    fl.save_frame(path, fl.Frame(fl.make_atomic([1.0] * 9), vectors))
    code, stdout, _ = _run(capsys, "certify", "nr", str(path))
    (cert,) = json.loads(stdout)["certificates"]
    assert (code, cert["verdict"], cert["method"]) == (0, "holds", "nr-identity-span")
    code, stdout, _ = _run(capsys, "certify", "pr", str(path))
    assert (code, json.loads(stdout)["data"]["verdict"]) == (3, "inconclusive")


@pytest.mark.parametrize("kind", [["harmonic", "--n", "4"], ["random", "--n", "5"], ["random", "--n", "3"]])
def test_certify_pr_alpha_restarts_and_seed_change_no_report_byte(kind, tmp_path, capsys):
    path = tmp_path / "c.json"
    _run(capsys, "gen", *kind, "--dim", "2", "--field", "complex", "-o", str(path))
    code, stdout, _ = _run(capsys, "certify", "pr", str(path))
    for flags in (["--alpha-restarts", "1"], ["--alpha-restarts", "9"]):
        again, out, _ = _run(capsys, "certify", "pr", str(path), *flags)
        assert again == code
        assert json.loads(out)["certificates"] == json.loads(stdout)["certificates"]


def test_certify_takes_no_seed(tmp_path, capsys):
    path = tmp_path / "f.json"
    _run(capsys, "gen", "mercedes", "-o", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["certify", "pr", str(path), "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-1", "0"])
@pytest.mark.parametrize("argv", [
    ["certify", "pr", "m.json"],
    ["perturb", "break-nr", "m.json", "--subset", "0", "--eps", "0.5", "-o", "out.json"],
    ["sweep", "m.json", "--lambdas", "0.01", "--trials", "4"],
    ["tensor", "m.json", "m.json", "-o", "out.json", "--check", "pr"],
])
def test_capped_commands_refuse_a_cap_below_one_before_reading_or_writing(argv, cap, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run(capsys, "gen", "mercedes", "-o", "m.json")

    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "_read_json", no_read)
    code, stdout, stderr = _run(capsys, *argv, "--cap", cap)
    message = f"--cap must be at least 1, got {cap}"
    assert code == 2
    assert json.loads(stdout) == {"command": " ".join(["framelab", *argv, "--cap", cap]), "error": message}
    assert message in stderr
    assert not (tmp_path / "out.json").exists()


def test_certify_nr_emits_one_certificate_matching_the_oracle(tmp_path, capsys):
    onb = tmp_path / "o.json"
    _run(capsys, "gen", "onb", "--dim", "3", "-o", str(onb))
    code, stdout, _ = _run(capsys, "certify", "nr", str(onb))
    assert code == 0
    report = json.loads(stdout)
    assert set(report["data"]) == {"property", "verdict"}
    assert [c["verdict"] for c in report["certificates"]] == ["holds"]
    _assert_certificate_keys(report)
    assert norm_retrieval_oracle(fl.gen_onb(3)).verdict == "holds"

    rows = np.array([[1.0, 0.0], [1.0, 1.0]])
    frame = fl.Frame(fl.make_atomic(np.ones(2)), rows)
    skew = tmp_path / "s.json"
    fl.save_frame(skew, frame)
    code, stdout, _ = _run(capsys, "certify", "nr", str(skew))
    assert code == 1
    _assert_certificate_keys(json.loads(stdout))
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


@pytest.mark.parametrize("flag", ["--restarts", "--iters"])
def test_alpha_command_refuses_zero(flag, tmp_path, capsys):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, stderr = _run(capsys, "alpha", str(merc), flag, "0")
    assert code == 2
    assert "at least 1" in stderr


@pytest.mark.parametrize("field", ["real", "complex"])
def test_certify_pr_refuses_zero_alpha_restarts_for_every_field(field, tmp_path, capsys):
    # certify runs no alpha, yet the flag is still refused below 1 before anything is certified.
    path = tmp_path / "f.json"
    _run(capsys, "gen", "random", "--dim", "2", "--n", "5", "--field", field, "-o", str(path))
    code, stdout, stderr = _run(capsys, "certify", "pr", str(path), "--alpha-restarts", "0")
    assert code == 2
    assert "alpha restarts must be at least 1" in stderr


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
    _assert_certificate_keys(report)
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
    _assert_certificate_keys(report)
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


@pytest.mark.parametrize("lambdas", ["nan", "inf", "0.1,nan"])
def test_sweep_blames_non_finite_lambdas_not_the_frame(tmp_path, capsys, lambdas):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, stderr = _run(capsys, "sweep", str(merc), "--lambdas", lambdas, "--trials", "4")
    assert code == 2
    assert json.loads(stdout)["error"] == "lambdas must be finite, nonnegative and ascending"
    assert "frame vectors" not in stderr


def test_sweep_blames_bad_radii_before_a_frame_without_phase_retrieval(tmp_path, capsys):
    onb = tmp_path / "o.json"
    _run(capsys, "gen", "onb", "--dim", "2", "-o", str(onb))
    code, stdout, _ = _run(capsys, "sweep", str(onb), "--lambdas", "0.1,0.01", "--trials", "4")
    assert code == 2
    assert json.loads(stdout)["error"] == "lambdas must be finite, nonnegative and ascending"
    code, stdout, _ = _run(capsys, "sweep", str(onb), "--lambdas", "0.01,0.1", "--trials", "4")
    assert code == 2
    assert json.loads(stdout)["error"] == "stability sweep needs a phase retrieval frame to start from"


@pytest.mark.parametrize("argv, message", [
    (["--lambdas", "0.01", "--trials", "0"], "trials must be at least 1"),
    (["--lambdas", "", "--trials", "4"], "lambdas must hold at least one radius"),
    (["--lambdas", ",", "--trials", "4"], "lambdas must hold at least one radius"),
])
def test_sweep_refuses_a_sweep_with_no_trial_or_no_radius(argv, message, tmp_path, capsys):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, stderr = _run(capsys, "sweep", str(merc), *argv)
    assert code == 2
    assert json.loads(stdout)["error"] == message
    assert message in stderr


@pytest.mark.parametrize("argv, message", [
    (["sweep", "m.json", "--lambdas", "abc"], "--lambdas must be a comma-separated list of numbers, got 'abc'"),
    (["sweep", "m.json", "--lambdas", "0.1,x"], "--lambdas must be a comma-separated list of numbers, got '0.1,x'"),
    (["perturb", "break-nr", "m.json", "--subset", "0,x", "--eps", "0.5", "-o", "p.json"],
     "--subset must be a comma-separated list of integers, got '0,x'"),
])
def test_list_flags_name_the_flag_and_its_text_when_an_entry_is_not_a_number(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run(capsys, "gen", "mercedes", "-o", "m.json")
    code, stdout, stderr = _run(capsys, *argv)
    assert code == 2
    assert json.loads(stdout)["error"] == message
    assert message in stderr


def test_sweep_refuses_a_negative_seed_before_certifying_and_takes_a_seed_past_64_bits(tmp_path, capsys, monkeypatch):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))

    def no_certification(*args, **kwargs):
        raise AssertionError("a frame was certified")

    with monkeypatch.context() as patch:
        patch.setattr("framelab.perturb._first_failures", no_certification)
        code, stdout, stderr = _run(capsys, "sweep", str(merc), "--lambdas", "0.01", "--trials", "4", "--seed", "-1")
    assert code == 2
    assert "expected non-negative integer" in json.loads(stdout)["error"]
    assert "expected non-negative integer" in stderr
    seed = 2**64 + 1
    code, stdout, _ = _run(capsys, "sweep", str(merc), "--lambdas", "0.01", "--trials", "4", "--seed", str(seed))
    assert code == 0
    data = json.loads(stdout)["data"]
    assert data["seed"] == seed and data["points"][0]["failures"] == 0


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("gen_argv, perturb_argv", [
    (["onb", "--dim", "2"], ["break-nr", "--subset", "0"]),
    (["deficient-tail", "--dim", "3", "--head-dim", "2", "--tail-len", "3", "--seed", "1"], ["break-pr", "--head", "0,1,2"]),
])
def test_perturb_refuses_a_non_finite_epsilon(gen_argv, perturb_argv, eps, tmp_path, capsys):
    src = tmp_path / "f.json"
    _run(capsys, "gen", *gen_argv, "-o", str(src))
    construction, *ids = perturb_argv
    code, stdout, _ = _run(capsys, "perturb", construction, str(src), *ids, f"--eps={eps}", "-o", str(tmp_path / "p.json"))
    assert code == 2
    assert json.loads(stdout)["error"] == f"epsilon must be finite, got {float(eps)}"
    assert not (tmp_path / "p.json").exists()


def test_tensor_keeps_string_labels_and_refuses_others(tmp_path, capsys):
    doc = fl.frame_to_doc(fl.gen_onb(2))
    doc["atoms"][0]["label"] = "a"
    good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "t.json"
    good.write_text(json.dumps(doc))
    code, _, _ = _run(capsys, "tensor", str(good), str(good), "-o", str(out))
    assert code == 0
    assert [atom.get("label") for atom in json.loads(out.read_text())["atoms"]] == ["(a,a)", None, None, None]
    doc["atoms"][1]["label"] = True
    bad.write_text(json.dumps(doc))
    code, stdout, _ = _run(capsys, "tensor", str(bad), str(bad), "-o", str(out))
    assert code == 2
    assert json.loads(stdout)["error"] == "atom 1: label must be a string, got True"


def test_tensor_command_with_pr_check(tmp_path, capsys):
    merc = tmp_path / "m.json"
    out = tmp_path / "t.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, _ = _run(capsys, "tensor", str(merc), str(merc), "-o", str(out), "--check", "pr")
    assert code == 0
    report = json.loads(stdout)
    assert report["data"]["theorem_consistent"] is True
    _assert_certificate_keys(report)
    assert report["data"]["lower"] == pytest.approx(2.25)
    product = fl.load_frame(out)
    assert product.n_atoms == 9


def test_tensor_command_without_a_check(tmp_path, capsys):
    merc, out = tmp_path / "m.json", tmp_path / "t.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    code, stdout, stderr = _run(capsys, "tensor", str(merc), str(merc), "-o", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert "check" not in report["data"]
    assert "consistent" not in report["data"] and "theorem_consistent" not in report["data"]
    assert report["certificates"] == []
    assert report["data"]["atoms"] == 9
    assert "tensor product: 9 atoms in dimension 4" in stderr


def test_tensor_command_with_nr_check(tmp_path, capsys):
    # A Parseval left factor and a norm retrieval right factor give a norm retrieval
    # product, although the ONB factor, and so the product, fails phase retrieval.
    left, right, out = tmp_path / "h.json", tmp_path / "o.json", tmp_path / "t.json"
    _run(capsys, "gen", "harmonic", "--dim", "2", "--n", "3", "-o", str(left))
    _run(capsys, "gen", "onb", "--dim", "2", "-o", str(right))
    code, stdout, _ = _run(capsys, "tensor", str(left), str(right), "-o", str(out), "--check", "nr")
    assert code == 0
    report = json.loads(stdout)
    assert report["data"]["check"] == "nr"
    assert report["data"]["consistent"] is True
    assert [c["verdict"] for c in report["certificates"]] == ["holds"] * 3
    _assert_certificate_keys(report)
    assert not fl.phase_retrieval_certify(fl.load_frame(out)).holds


_COMPLEX = ["random", "--dim", "2", "--n", "3", "--field", "complex"]


@pytest.mark.parametrize("left, right, check, code, message", [
    (["mercedes"], ["mercedes"], ["--check", "pr", "--cap", "5"], 3, "refuses for n = 9 > cap = 5"),
    (["mercedes"], ["onb", "--dim", "2"], ["--check", "nr"], 2, "left factor must be Parseval"),
    (_COMPLEX, _COMPLEX, ["--check", "pr"], 2, "only defined over the real field"),
    (_COMPLEX, _COMPLEX, ["--check", "nr"], 2, "only defined over the real field"),
])
def test_a_refused_tensor_check_writes_no_product(left, right, check, code, message, tmp_path, capsys):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "p.json"
    _run(capsys, "gen", *left, "-o", str(a))
    _run(capsys, "gen", *right, "-o", str(b))
    got, stdout, stderr = _run(capsys, "tensor", str(a), str(b), "-o", str(out), *check)
    assert got == code
    assert message in json.loads(stdout)["error"] and message in stderr
    assert not out.exists()


def test_tensor_check_builds_the_product_once(tmp_path, capsys, monkeypatch):
    merc, out = tmp_path / "m.json", tmp_path / "p.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    original, calls = fl.tensor.tensor_product, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr("framelab.cli.tensor_product", counting)
    monkeypatch.setattr("framelab.tensor.tensor_product", counting)
    code, _, _ = _run(capsys, "tensor", str(merc), str(merc), "-o", str(out), "--check", "pr")
    assert code == 0
    assert len(calls) == 1


def test_missing_file_is_usage_error(capsys):
    code, stdout, stderr = _run(capsys, "bounds", "/nonexistent/frame.json")
    assert code == 2
    assert "error" in json.loads(stdout)
    assert "error" in stderr


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize("argv", [
    ["certify", "pr", "bad.json"],
    ["tensor", "m.json", "bad.json", "-o", "t.json"],
])
def test_a_file_that_is_not_utf8_names_itself(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run(capsys, "gen", "mercedes", "-o", "m.json")
    (tmp_path / "bad.json").write_bytes(b"\xff{}")
    code, stdout, stderr = _run(capsys, *argv)
    message = f"bad.json: not valid UTF-8: {_NOT_UTF8}"
    assert code == 2
    assert stdout == fl.dumps_canonical({"command": shlex.join(["framelab", *argv]), "error": message})
    assert stderr == f"error: {message}\n"
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"weight": None, "vector": [1.0, 0.0]}, "atom 1: weight must be a number"),
        ({"weight": [1.0], "vector": [1.0, 0.0]}, "atom 1: weight must be a number"),
        ({"weight": {}, "vector": [1.0, 0.0]}, "atom 1: weight must be a number"),
        ({"weight": 1.0, "vector": 5}, "atom 1: vector must be a list of 2 coordinates"),
        ({"weight": 1.0, "vector": None}, "atom 1: vector must be a list of 2 coordinates"),
        ({"dim": True}, "dim must be a positive integer"),
        # Only JSON numbers: no strings, no bools, nothing past float64.
        ({"weight": "2", "vector": [1.0, 0.0]}, "atom 1: weight must be a number"),
        ({"weight": True, "vector": [1.0, 0.0]}, "atom 1: weight must be a number"),
        ({"weight": 2, "vector": [True, "0"]}, "atom 1: real coordinates must be numbers"),
        ({"weight": 1, "vector": [1.0, 10**400]}, "atom 1: real coordinates must be numbers"),
        # A label is a string, or absent or null.
        ({"weight": 1.0, "vector": [1.0, 0.0], "label": True}, "atom 1: label must be a string"),
        ({"weight": 1.0, "vector": [1.0, 0.0], "label": 5}, "atom 1: label must be a string"),
        ({"weight": 1.0, "vector": [1.0, 0.0], "label": [1, 2]}, "atom 1: label must be a string"),
        ({"weight": 1.0, "vector": [1.0, 0.0], "label": {"a": 1}}, "atom 1: label must be a string"),
    ],
)
def test_a_malformed_frame_file_is_a_usage_error(doc, message, tmp_path, capsys):
    atoms = [{"weight": 1.0, "vector": [0.0, 1.0]}]
    if "dim" not in doc:
        atoms.append(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "real", "dim": doc.get("dim", 2), "atoms": atoms}))
    code, stdout, stderr = _run(capsys, "certify", "pr", str(path))
    assert code == 2
    assert message in json.loads(stdout)["error"]
    assert message in stderr


_GOOD_ATOM = {"weight": 1.0, "vector": [0.0, 1.0]}
_GOOD_PAIRS = {"weight": 1.0, "vector": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize(
    "field, atoms, message",
    [
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [True, 0.0]}], "atom 1: real coordinates must be numbers"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [0.0, "1"]}], "atom 1: real coordinates must be numbers"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [[1.0], 0.0]}], "atom 1: real coordinates must be numbers"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [1.0, 10**400]}], "atom 1: real coordinates must be numbers"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [1.0]}], "atom 1: expected 2 coordinates, got 1"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [1.0, 0.0, 0.0]}], "atom 1: expected 2 coordinates, got 3"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": "ab"}], "atom 1: vector must be a list of 2 coordinates, got 'ab'"),
        ("real", [_GOOD_ATOM, {"weight": 1.0}], "atom 1: each atom needs 'weight' and 'vector'"),
        ("real", [_GOOD_ATOM, {"vector": [1.0, 0.0]}], "atom 1: each atom needs 'weight' and 'vector'"),
        ("real", [_GOOD_ATOM, [1.0, 0.0]], "atom 1: each atom needs 'weight' and 'vector'"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [1.0, 0.0], "label": 5}], "atom 1: label must be a string, got 5"),
        ("real", [_GOOD_ATOM, {"weight": 10**400, "vector": [1.0, 0.0]}], "atom 1: weight must be a number, got " + str(10**400)),
        ("real", [_GOOD_ATOM, {"weight": 0.0, "vector": [1.0, 0.0]}], "atom 1: weight must be positive and finite, got 0.0"),
        ("real", [_GOOD_ATOM, {"weight": float("inf"), "vector": [1.0, 0.0]}], "atom 1: weight must be positive and finite, got inf"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [float("inf"), 0.0]}], "frame vectors must be finite (no NaN or Inf entries)"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [float("nan"), 0.0]}], "frame vectors must be finite (no NaN or Inf entries)"),
        # Every atom's types are checked before any weight's sign, and each atom's weight before its label and vector.
        ("real", [{"weight": -1.0, "vector": [0.0, 1.0]}, {"weight": 1.0, "vector": [0.0, 1.0], "label": 5}],
         "atom 1: label must be a string, got 5"),
        ("real", [_GOOD_ATOM, {"weight": "1", "vector": [True, 0.0], "label": 5}], "atom 1: weight must be a number, got '1'"),
        ("real", [_GOOD_ATOM, {"weight": 1.0, "vector": [True], "label": 5}], "atom 1: label must be a string, got 5"),
        ("complex", [_GOOD_PAIRS, {"weight": 1.0, "vector": [[1.0, 0.0, 2.0], [0.0, 0.0]]}],
         "atom 1: complex coordinates must be [re, im] pairs of numbers"),
        ("complex", [_GOOD_PAIRS, {"weight": 1.0, "vector": [[1.0], [0.0, 0.0]]}],
         "atom 1: complex coordinates must be [re, im] pairs of numbers"),
        ("complex", [_GOOD_PAIRS, {"weight": 1.0, "vector": [1.0, [0.0, 0.0]]}],
         "atom 1: complex coordinates must be [re, im] pairs of numbers"),
        ("complex", [_GOOD_PAIRS, {"weight": 1.0, "vector": [[1.0, 0.0], [False, 0.0]]}],
         "atom 1: complex coordinates must be [re, im] pairs of numbers"),
        ("complex", [_GOOD_PAIRS, {"weight": 1.0, "vector": [[1.0, 0.0], [0.0, 10**400]]}],
         "atom 1: complex coordinates must be [re, im] pairs of numbers"),
        ("complex", [_GOOD_PAIRS, {"weight": 1.0, "vector": [[1.0, 0.0], "ab"]}],
         "atom 1: complex coordinates must be [re, im] pairs of numbers"),
        ("complex", [_GOOD_PAIRS, {"weight": 1.0, "vector": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}],
         "atom 1: expected 2 coordinates, got 3"),
        ("complex", [_GOOD_PAIRS, {"weight": 1.0, "vector": [[1.0, float("-inf")], [0.0, 0.0]]}],
         "frame vectors must be finite (no NaN or Inf entries)"),
    ],
)
def test_each_malformed_atom_gets_its_own_error_report(field, atoms, message, tmp_path, capsys):
    # The whole report is pinned: exit 2, the error on stdout as canonical JSON, and one line on stderr.
    # json.dumps writes inf and nan as Infinity and NaN, which the loader's JSON parser reads back.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": field, "dim": 2, "atoms": atoms}))
    code, stdout, stderr = _run(capsys, "certify", "pr", str(path))
    assert code == 2
    assert stdout == json.dumps({"command": f"framelab certify pr {path}", "error": message}, indent=2) + "\n"
    assert stderr == f"error: {message}\n"


def test_loading_and_certifying_a_frame_builds_no_atom(tmp_path, capsys, monkeypatch):
    frame = fl.gen_random(3, 7, 4)
    path = tmp_path / "f.json"
    fl.save_frame(path, fl.Frame(fl.make_atomic(frame.weights, ["a", None, "c", "d", None, "f", "g"]), frame.vectors))
    doc = json.loads(path.read_text())
    reference = tuple(fl.Atom(k, entry["weight"], entry.get("label")) for k, entry in enumerate(doc["atoms"]))

    def no_atom(*args, **kwargs):
        raise AssertionError("an Atom was built")

    monkeypatch.setattr("framelab.measure.Atom", no_atom)
    code, stdout, _ = _run(capsys, "certify", "nr", str(path))
    assert code == 0 and json.loads(stdout)["data"]["verdict"] == "holds"
    space = fl.doc_to_frame(doc).space
    monkeypatch.undo()
    assert space.atoms == reference


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_and_alpha_refuse_a_frame_whose_operators_overflow(tmp_path, capsys):
    # Squares of these entries overflow float64; the lift scales each frame by a power of two first.
    path = tmp_path / "huge.json"
    fl.save_frame(path, fl.Frame(fl.make_atomic([1.0] * 3), [[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]]))
    for command in ("bounds", "alpha"):
        code, stdout, stderr = _run(capsys, command, str(path))
        assert code == 2
        assert "overflow" in json.loads(stdout)["error"]
        assert "overflow" in stderr
    code, stdout, _ = _run(capsys, "certify", "pr", str(path))
    assert code == 0
    assert json.loads(stdout)["data"]["verdict"] == "holds"


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # A product of two 5-atom frames: neither the lift nor the spark stage certifies it, so its splits are read.
    a, b, product = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "p.json"
    _run(capsys, "gen", "random", "--dim", "3", "--n", "5", "--seed", "0", "-o", str(a))
    _run(capsys, "gen", "random", "--dim", "3", "--n", "5", "--seed", "1", "-o", str(b))
    assert _run(capsys, "tensor", str(a), str(b), "-o", str(product))[0] == 0
    for kind, what in (("pr", "complement property certification"), ("nr", "norm retrieval certification")):
        code, stdout, _ = _run(capsys, "certify", kind, str(product))
        assert code == 3
        assert json.loads(stdout)["error"] == f"{what} enumerates 2^(n-1) subsets and refuses for n = 25 > cap = 24"


@pytest.mark.parametrize("name, kind", [("lift", "pr"), ("lift", "nr"), ("identity", "nr"), ("spark", "pr"),
                                        ("hermitian", "pr")])
def test_a_frame_past_the_cap_that_a_holds_only_stage_certifies_exits_0(name, kind, past_cap_frames, tmp_path, capsys):
    path = tmp_path / "big.json"
    fl.save_frame(path, past_cap_frames[name])
    code, stdout, _ = _run(capsys, "certify", kind, str(path))
    assert code == 0
    assert json.loads(stdout)["certificates"][0]["verdict"] == "holds"


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


@pytest.mark.parametrize("argv, env, message", [
    (["certify", "pr", "m.json", "--tol", "nan"], None, "--tol must be finite and nonnegative, got nan"),
    (["certify", "pr", "m.json", "--tol", "inf"], None, "--tol must be finite and nonnegative, got inf"),
    (["certify", "pr", "m.json", "--tol", "-1"], None, "--tol must be finite and nonnegative, got -1.0"),
    (["certify", "nr", "m.json", "--tol", "nan"], None, "--tol must be finite and nonnegative, got nan"),
    (["certify", "pr", "m.json"], "nan", "FRAMELAB_TOL must be finite and nonnegative, got nan"),
    (["bounds", "m.json"], "inf", "FRAMELAB_TOL must be finite and nonnegative, got inf"),
    (["sweep", "m.json", "--lambdas", "0.1"], "-1e-3", "FRAMELAB_TOL must be finite and nonnegative, got -0.001"),
    (["tensor", "m.json", "m.json", "-o", "p.json", "--check", "pr"], "nan",
     "FRAMELAB_TOL must be finite and nonnegative, got nan"),
])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_a_usage_error(argv, env, message, tmp_path, capsys, monkeypatch):
    # Such a tolerance used to certify and then crash serializing the report, exiting 1.
    monkeypatch.chdir(tmp_path)
    _run(capsys, "gen", "mercedes", "-o", "m.json")
    if env is None:
        monkeypatch.delenv("FRAMELAB_TOL", raising=False)
    else:
        monkeypatch.setenv("FRAMELAB_TOL", env)
    code, stdout, stderr = _run(capsys, *argv)
    assert code == 2
    assert json.loads(stdout)["error"] == message
    assert stderr == f"error: {message}\n"


def test_flag_beats_env(tmp_path, capsys, monkeypatch):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    monkeypatch.setenv("FRAMELAB_TOL", "1e-6")
    code, stdout, _ = _run(capsys, "certify", "pr", str(merc), "--tol", "1e-12")
    assert code == 0
    assert json.loads(stdout)["tolerances"]["rank_tol"] == 1e-12


def test_main_builds_its_parser_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    monkeypatch.delenv("FRAMELAB_TOL", raising=False)
    original, progs = argparse.ArgumentParser.__init__, []

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    _, first, _ = _run(capsys, "certify", "pr", str(merc), "--tol", "1e-6")
    _, second, _ = _run(capsys, "certify", "pr", str(merc))
    assert progs.count("framelab") == 1
    assert json.loads(first)["tolerances"]["rank_tol"] == 1e-6
    assert json.loads(second)["tolerances"]["rank_tol"] == fl.DEFAULT_RANK_TOL


def _outcome(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``, a parser's exit included, with timing figures masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    stdout = out.getvalue()
    if '"timings_ms"' in stdout:
        report = json.loads(stdout)
        report["timings_ms"] = list(report["timings_ms"])
        stdout = json.dumps(report)
    return code, stdout, err.getvalue()


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["bogus"],
    ["certify"],
    ["certify", "-h"],
    ["certify", "pr", "F", "--bogus"],
    ["certify", "pr", "F", "extra"],
    ["--timings", "certify", "pr", "F"],
    ["sweep", "F", "--lambdas"],
    ["certify", "pr", "F", "--t"],  # ambiguous: --timings or --tol
    ["certify", "pr", "F", "--ti"],  # an abbreviation of --timings
    ["certify", "xx", "F"],
    ["certify", "pr", "--", "F"],
    ["tensor", "F", "F", "-o", "t.json", "--check"],
])
def test_each_command_parses_as_the_top_level_parser_would_parse_it(argv, tmp_path, monkeypatch):
    # main hands a command's words straight to that command's parser; the top-level
    # parser's parse_args hands it the same words, and both must exit, print and report alike.
    monkeypatch.chdir(tmp_path)
    assert _outcome(["gen", "mercedes", "-o", "F"])[0] == 0
    direct = _outcome(argv)
    monkeypatch.setattr(cli, "_parse", lambda words: cli._build_parser()[0].parse_args(words))
    assert _outcome(argv) == direct


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
    # The loader's layers are timed apart: read (bytes, parse, digest), then frame.
    assert list(report["timings_ms"]) == ["read", "frame", "certify"]
    # Two inputs add their laps into the same two stages.
    onb = tmp_path / "o.json"
    _run(capsys, "gen", "onb", "--dim", "2", "-o", str(onb))
    code, stdout, _ = _run(capsys, "tensor", str(merc), str(onb), "-o", str(tmp_path / "p.json"), "--timings")
    assert code == 0
    assert list(json.loads(stdout)["timings_ms"]) == ["read", "frame", "write", "check"]


def test_bounds_reports_bessel_bound_value(tmp_path, capsys):
    merc = tmp_path / "m.json"
    _run(capsys, "gen", "mercedes", "-o", str(merc))
    _, stdout, _ = _run(capsys, "bounds", str(merc))
    data = json.loads(stdout)["data"]
    assert data["bessel_bound"] == pytest.approx(1.5**0.5)
    assert data["max_vector_norm"] == pytest.approx(1.0)
    assert data["eta"] == pytest.approx(1.0)


def _readme_commands() -> list[list[str]]:
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_commands_run_in_order(tmp_path, capsys, monkeypatch):
    # Every line of the README's command block, in a fresh directory: each exits 0 with one JSON report.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 18
    for argv in commands:
        assert argv[0] == "framelab"
        code, stdout, _ = _run(capsys, *argv[1:])
        assert code == 0, f"{shlex.join(argv)} exited {code}: {stdout}"
        assert json.loads(stdout, parse_constant=_reject_constant)["command"] == shlex.join(argv)


@pytest.mark.parametrize("argv", [
    ["gen", "mercedes", "-o", "m.json"],
    ["bounds", "m.json"],
    ["alpha", "m.json"],
])
def test_cap_is_refused_where_nothing_is_enumerated(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run(capsys, "gen", "mercedes", "-o", "m.json")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap", "3"])
    assert exc.value.code == 2


def _certified_frames(monkeypatch, name: str) -> list[np.ndarray]:
    """Record the vectors of every frame that ``name`` certifies in perturb or the CLI."""
    original, seen = getattr(fl, name), []

    def recording(frame, *args, **kwargs):
        seen.append(frame.vectors)
        return original(frame, *args, **kwargs)

    for module in ("framelab.perturb", "framelab.cli"):
        monkeypatch.setattr(f"{module}.{name}", recording)
    return seen


@pytest.mark.parametrize("construction, gen_argv, ids, certifier", [
    ("break-nr", ["onb", "--dim", "2"], ["--subset", "0"], "norm_retrieval_certify"),
    ("break-pr", ["deficient-tail", "--dim", "3", "--seed", "1"], ["--head", "0,1,2"], "phase_retrieval_certify"),
])
def test_perturb_certifies_its_output_once(construction, gen_argv, ids, certifier, tmp_path, capsys, monkeypatch):
    # The output is certified once, on the split the construction broke; the full certifier never walks it.
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    _run(capsys, "gen", *gen_argv, "-o", str(src))
    full = getattr(fl, certifier)
    seen = _certified_frames(monkeypatch, certifier)
    code, stdout, _ = _run(capsys, "perturb", construction, str(src), *ids, "--eps", "0.4", "-o", str(out))
    assert code == 0
    source, perturbed = fl.load_frame(src), fl.load_frame(out)
    # break-nr certifies its input once, break-pr not at all.
    assert [np.array_equal(v, source.vectors) for v in seen] == ([True] if construction == "break-nr" else [])
    (cert,) = json.loads(stdout)["certificates"]
    assert cert["verdict"] == full(perturbed).verdict == "fails"
    assert cert["witness_subset"] == [int(i) for i in ids[1].split(",")]
    assert _witness_reverifies(json.loads(out.read_text()), cert)


def test_perturb_break_nr_refuses_an_epsilon_too_small_to_see(tmp_path, capsys):
    # The overlap of order epsilon lies below ortho_tol: nothing internal failed, so the exit code is 2, not 4.
    onb, out = tmp_path / "onb.json", tmp_path / "p.json"
    _run(capsys, "gen", "onb", "--dim", "2", "-o", str(onb))
    argv = ["perturb", "break-nr", str(onb), "--subset", "0", "--eps", "1e-12", "-o", str(out)]
    code, stdout, stderr = _run(capsys, *argv)
    assert code == 2
    error = json.loads(stdout)["error"]
    assert "epsilon 1e-12" in error and "ortho_tol 1e-08" in error and "construction error" not in error
    assert "error: epsilon 1e-12" in stderr
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_of_a_frame_with_huge_atoms_and_tiny_weights(tmp_path, capsys):
    # The frame operator is finite (bounds 1e20 and 3e20), but upper / eta = 3e320 is not.
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"field": "real", "dim": 2, "atoms": [
        {"weight": 1e-300, "vector": vector} for vector in ([1e160, 0], [0, 1e160], [1e160, 1e160])
    ]}))
    code, stdout, _ = _run(capsys, "bounds", str(path))
    assert code == 0
    data = json.loads(stdout)["data"]
    assert data["upper"] == pytest.approx(3e20)
    assert data["bessel_bound"] == pytest.approx(3**0.5 * 1e160)
    assert data["max_vector_norm"] == pytest.approx(2**0.5 * 1e160)
    assert data["bessel_holds"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_of_a_frame_with_subnormal_atoms(tmp_path, capsys):
    # The largest entry lies below 2.2e-308, where the factor 2^-e of a scaled norm overflows.
    path = tmp_path / "f.json"
    atoms = fl.gen_random(3, 5).vectors
    fl.save_frame(path, fl.Frame(fl.make_atomic([1.0] * 5), atoms * 1e-310))
    code, stdout, _ = _run(capsys, "bounds", str(path))
    assert code == 0
    data = json.loads(stdout, parse_constant=_reject_constant)["data"]
    # The norms of the stored atoms themselves would square them to 0.
    assert data["max_vector_norm"] == pytest.approx(np.linalg.norm(atoms, axis=1).max() * 1e-310)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_of_a_subnormal_frame_decide_as_the_frame_does(tmp_path, capsys):
    # Its frame bounds, about 1e-620, underflow to zero, but their ratio and the Bessel check
    # are decided on the frame scaled by a power of two, as they are for the frame itself.
    tiny = fl.gen_random(3, 5)
    tiny = tiny.with_vectors(tiny.vectors * 1e-310)
    # The stored entries times 2^1030 are normal, and the product is exact.
    normal = tiny.with_vectors(tiny.vectors * 2.0**515 * 2.0**515)
    reports = []
    for name, frame in (("tiny.json", tiny), ("normal.json", normal)):
        fl.save_frame(tmp_path / name, frame)
        code, stdout, _ = _run(capsys, "bounds", str(tmp_path / name))
        assert code == 0
        reports.append(json.loads(stdout, parse_constant=_reject_constant)["data"])
    got, want = reports
    assert want["lower"] > 0.0 and got["lower"] == got["upper"] == 0.0
    for key in ("is_frame", "mu_complete", "bessel_holds", "eta", "total_mass"):
        assert got[key] == want[key], key
    assert got["is_frame"] is True and got["bessel_holds"] is True
    for key in ("bessel_bound", "max_vector_norm"):
        assert got[key] * 2.0**515 * 2.0**515 == pytest.approx(want[key], rel=1e-12), key
    # Without its absolute term the check still passes: it compares the scaled sides.
    assert fl.bessel_norm_bound_check(tiny, tol=0.0).holds and fl.bessel_norm_bound_check(normal, tol=0.0).holds


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_report_that_json_cannot_carry_is_a_usage_error(tmp_path, capsys):
    # sqrt(B / eta) with B about 1e300 and eta = 5e-324 passes the largest float64.
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"field": "real", "dim": 1, "atoms": [
        {"weight": 1.0, "vector": [1e150]}, {"weight": 5e-324, "vector": [1.0]},
    ]}))
    code, stdout, stderr = _run(capsys, "bounds", str(path))
    assert code == 2
    assert set(json.loads(stdout)) == {"command", "error"}
    assert "bounds:" not in stderr and "error:" in stderr


# The commands of the exit-code contract, run on every generated frame document.
_CONTRACT_COMMANDS = (
    ["bounds"],
    ["certify", "pr"],
    ["certify", "nr"],
    ["alpha", "--iters", "3"],
    ["sweep", "--lambdas", "0.01,0.5", "--trials", "3"],
)
# Replacements that make a valid frame document invalid, by where they go.
_BAD_WEIGHTS = ("2", True, None, [1.0], {}, 0, -1.0, 10**400, float("nan"), float("inf"))
_BAD_COORDINATES = ("0", True, None, [], 10**400, float("nan"))
_BAD_FIELDS = (
    ("field", "quaternion"), ("field", None), ("dim", 0), ("dim", True), ("dim", "2"),
    ("dim", 1.5), ("atoms", []), ("atoms", {}), ("atoms", [[1.0, 0.0]]),
)


@st.composite
def _frame_documents(draw):
    """A frame document: valid, scaled to extreme magnitudes, with zero atoms, or malformed.

    Returns the document and whether it is malformed.
    """
    field = draw(st.sampled_from(["real", "complex"]))
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.standard_normal((n, d))
    if field == "complex":
        vectors = vectors + 1j * rng.standard_normal((n, d))
    vectors[draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    vectors *= draw(st.sampled_from([1.0, 1e300, 1e-300, 1e160, 1e-310]))
    weights = rng.uniform(0.1, 2.0, size=n)
    doc = fl.frame_to_doc(fl.Frame(fl.make_atomic(weights), vectors))
    malformed = draw(st.sampled_from(["", "", "", "", "weight", "coordinate", "atom", "field"]))
    k = draw(st.integers(0, n - 1))
    if malformed == "weight":
        doc["atoms"][k]["weight"] = draw(st.sampled_from(_BAD_WEIGHTS))
    elif malformed == "coordinate":
        bad = draw(st.sampled_from(_BAD_COORDINATES))
        j = draw(st.integers(0, d - 1))
        if field == "complex":
            doc["atoms"][k]["vector"][j][draw(st.integers(0, 1))] = bad
        else:
            doc["atoms"][k]["vector"][j] = bad
    elif malformed == "atom":
        doc["atoms"][k] = draw(st.sampled_from([None, 1.0, {"weight": 1.0}, {"vector": [0.0] * d}]))
    elif malformed == "field":
        key, value = draw(st.sampled_from(_BAD_FIELDS))
        doc[key] = value
    return doc, bool(malformed)


def _reject_constant(name: str):
    raise ValueError(f"stdout holds the non-JSON number {name}")


def _witness_reverifies(doc: dict, cert: dict) -> bool:
    """Whether a ``fails`` certificate's two vectors have equal magnitudes on every atom, in plain numpy.

    A phase retrieval witness must not be equal up to a unimodular factor;
    a norm retrieval witness (u, w) stands for u + w and u - w, whose norms
    must differ.
    """
    if doc["field"] == "complex":
        rows = np.array([[complex(*z) for z in atom["vector"]] for atom in doc["atoms"]])
        x, y = (np.array([complex(*z) for z in v]) for v in cert["witness_vectors"])
    else:
        rows = np.array([atom["vector"] for atom in doc["atoms"]])
        x, y = (np.array(v) for v in cert["witness_vectors"])
    largest = np.abs(rows).max()
    if largest > 0:
        # Part by part: a complex division by a subnormal number overflows on the way.
        rows = rows.real / largest + 1j * (rows.imag / largest) if doc["field"] == "complex" else rows / largest
    if cert["method"] == "nr-nullspace-orthogonality":
        x, y = x + y, x - y
        differ = abs(np.linalg.norm(x) - np.linalg.norm(y)) > 1e-8
    else:
        differ = np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2 - 2 * abs(np.vdot(y, x)) > 1e-8
    scale = np.linalg.norm(rows, axis=1) * max(np.linalg.norm(x), np.linalg.norm(y))
    return bool(differ and np.all(np.abs(np.abs(rows @ x.conj()) - np.abs(rows @ y.conj())) <= 1e-8 * scale))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(case=_frame_documents())
def test_every_command_keeps_the_exit_code_contract(case, tmp_path_factory):
    doc, malformed = case
    path = tmp_path_factory.mktemp("contract") / "frame.json"
    path.write_text(json.dumps(doc))
    for command in _CONTRACT_COMMANDS:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, str(path)])
            runs.append((code, out.getvalue(), err.getvalue()))
        assert runs[0] == runs[1], command
        code, stdout, stderr = runs[0]
        assert code in (0, 1, 2, 3), (command, code, stdout)
        assert code == 2 or not malformed, (command, stdout)
        report = json.loads(stdout, parse_constant=_reject_constant)
        assert "Traceback" not in stderr
        if code == 1:
            assert report["data"]["verdict"] == "fails"
            (cert,) = report["certificates"]
            assert cert["verdict"] == "fails" and _witness_reverifies(doc, cert), (command, report)
