"""Per-op correctness checks, in plain numpy.

Nothing here calls framelab: verdicts are compared with what each input
family has by construction (see ``mixes``), witnesses are re-verified from
their definitions, and output files are re-read and re-hashed.  A check
returns the list of problems it found; an empty list means the op passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from mixes import FrameData, Op

RANK_TOL = 1e-9  # relative singular-value cutoff for "this side does not span"
MATCH_TOL = 1e-8  # relative tolerance for equal magnitudes and annihilation
ORTHO_TOL = 1e-8  # |<u, w>| above this is "not orthogonal" (framelab's default)
EXIT = {"holds": 0, "fails": 1, "inconclusive": 3}


def vec(entry) -> np.ndarray:
    """A report vector: a list of floats, or of [re, im] pairs for complex."""
    a = np.asarray(entry, dtype=float)
    return a[:, 0] + 1j * a[:, 1] if a.ndim == 2 else a


def read_frame(path: Path) -> FrameData:
    doc = json.loads(path.read_text())
    return FrameData(np.array([vec(a["vector"]) for a in doc["atoms"]]),
                     np.array([float(a["weight"]) for a in doc["atoms"]]))


def _rank(rows: np.ndarray) -> int:
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return 0 if s[0] <= 0.0 else int(np.count_nonzero(s > RANK_TOL * s[0]))


def _sides(n: int, subset) -> tuple[list[int], list[int]]:
    inside = sorted({int(i) for i in subset})
    return inside, [i for i in range(n) if i not in set(inside)]


def _coeffs(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """<f, v_i> for every row, linear in f."""
    return np.conj(v) @ f


def _annihilates(rows: np.ndarray, u: np.ndarray) -> bool:
    if rows.size == 0:
        return True
    scale = np.linalg.norm(u) * max(1.0, float(np.abs(rows).max()))
    return float(np.abs(_coeffs(rows, u)).max()) <= MATCH_TOL * scale


def _equal_magnitudes(v: np.ndarray, f: np.ndarray, g: np.ndarray) -> bool:
    mf, mg = np.abs(_coeffs(v, f)), np.abs(_coeffs(v, g))
    return float(np.abs(mf - mg).max()) <= MATCH_TOL * (1.0 + float(max(mf.max(), mg.max())))


def pr_witness_problems(v: np.ndarray, subset, f: np.ndarray, g: np.ndarray) -> list[str]:
    """Both sides rank-deficient; f, g equal in magnitude but not unimodular multiples."""
    n, d = v.shape
    inside, outside = _sides(n, subset)
    problems = []
    if _rank(v[inside]) >= d or _rank(v[outside]) >= d:
        problems.append("pr witness: a side of the subset spans")
    if not _equal_magnitudes(v, f, g):
        problems.append("pr witness: measurement magnitudes differ")
    nf, ng = float(np.linalg.norm(f)), float(np.linalg.norm(g))
    same_norm = abs(nf - ng) <= MATCH_TOL * (1.0 + nf + ng)
    if same_norm and abs(np.vdot(g, f)) >= nf * ng - MATCH_TOL * (1.0 + nf * ng):
        problems.append("pr witness: vectors differ only by a global phase")
    return problems


def nr_witness_problems(v: np.ndarray, subset, u: np.ndarray, w: np.ndarray) -> list[str]:
    """u annihilates the subset, w its complement, and <u, w> is not zero."""
    inside, outside = _sides(v.shape[0], subset)
    problems = []
    if not _annihilates(v[inside], u):
        problems.append("nr witness: first vector does not annihilate the subset")
    if not _annihilates(v[outside], w):
        problems.append("nr witness: second vector does not annihilate the complement")
    if abs(np.vdot(w, u)) <= ORTHO_TOL:
        problems.append("nr witness: the null directions are orthogonal")
    return problems


def nr_pair_problems(v: np.ndarray, f: np.ndarray, g: np.ndarray) -> list[str]:
    """The oracle's witness form: equal magnitudes, different norms."""
    problems = []
    if not _equal_magnitudes(v, f, g):
        problems.append("nr oracle witness: measurement magnitudes differ")
    if abs(np.linalg.norm(f) - np.linalg.norm(g)) <= ORTHO_TOL:
        problems.append("nr oracle witness: norms agree")
    return problems


def _witness(cert: dict) -> tuple[list[int], np.ndarray, np.ndarray] | None:
    if cert.get("witness_subset") is None or not cert.get("witness_vectors"):
        return None
    f, g = cert["witness_vectors"]
    return cert["witness_subset"], vec(f), vec(g)


def _verdict_problems(cert: dict, data: dict, code: int) -> list[str]:
    verdict = cert["verdict"]
    problems = []
    if data.get("verdict", verdict) != verdict:
        problems.append("report data and certificate disagree on the verdict")
    if verdict not in EXIT:
        problems.append(f"unknown verdict {verdict!r}")
    elif code != EXIT[verdict]:
        problems.append(f"exit code {code} does not match verdict {verdict}")
    return problems


def _output_problems(workdir: Path, name: str, data: dict) -> tuple[list[str], FrameData | None]:
    path = workdir / name
    if not path.is_file():
        return [f"output file {name} missing"], None
    digest = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    problems = [] if data.get("output_digest") == digest else [f"output digest of {name} does not match"]
    return problems, read_frame(path)


def _check_certify_pr(expect, code, report, frames, workdir):
    cert = report["certificates"][0]
    verdict = cert["verdict"]
    problems = _verdict_problems(cert, report["data"], code)
    want = expect["verdict"]
    if want in ("holds", "fails") and verdict != want:
        problems.append(f"verdict {verdict}, but the input family {want} by construction")
    if want == "not-holds" and verdict == "holds":
        problems.append("verdict holds on a frame known to fail phase retrieval")
    if verdict == "fails":
        witness = _witness(cert)
        if witness is None:
            problems.append("fails without a witness")
        else:
            problems += pr_witness_problems(frames[expect["frame"]].vectors, *witness)
    return problems


def _nr_cert_problems(v: np.ndarray, cert: dict) -> list[str]:
    if cert["verdict"] != "fails":
        return []
    witness = _witness(cert)
    if witness is None:
        return ["fails without a witness"]
    subset, f, g = witness
    if cert.get("method") == "nr-bruteforce-pairs":
        return nr_pair_problems(v, f, g)
    return nr_witness_problems(v, subset, f, g)


def _check_certify_nr(expect, code, report, frames, workdir):
    certs = report["certificates"]
    problems = _verdict_problems(certs[0], report["data"], code)
    if certs[0]["verdict"] != expect["verdict"]:
        problems.append(f"verdict {certs[0]['verdict']}, but the input {expect['verdict']} by construction")
    if len(certs) > 1 and (certs[1]["verdict"] != certs[0]["verdict"] or not report["data"].get("oracle_agrees")):
        problems.append("certifier and oracle disagree")
    v = frames[expect["frame"]].vectors
    for cert in certs:
        problems += _nr_cert_problems(v, cert)
    return problems


def _check_break_nr(expect, code, report, frames, workdir):
    problems = [] if code == 0 else [f"exit code {code} for a completed construction"]
    data = report["data"]
    out_problems, out = _output_problems(workdir, expect["output"], data)
    problems += out_problems
    if out is None:
        return problems
    v, v0 = out.vectors, frames[expect["frame"]].vectors
    subset = expect["subset"]
    inside, outside = _sides(v.shape[0], subset)
    if not np.array_equal(v[outside], v0[outside]):
        problems.append("break-nr moved atoms outside the subset")
    cert = report["certificates"][0]
    if cert["verdict"] != "fails":
        problems.append("break-nr output still does norm retrieval")
    problems += _nr_cert_problems(v, cert)
    w1, w2 = vec(data["witness_f"]), vec(data["witness_g"])
    problems += nr_witness_problems(v, subset, w1, w2)
    if abs(float(np.vdot(w2, w1).real) - expect["eps"]) > MATCH_TOL * (1.0 + expect["eps"]):
        problems.append("break-nr witness inner product is not epsilon")
    return problems


def _check_break_pr(expect, code, report, frames, workdir):
    problems = [] if code == 0 else [f"exit code {code} for a completed construction"]
    data = report["data"]
    out_problems, out = _output_problems(workdir, expect["output"], data)
    problems += out_problems
    if out is None:
        return problems
    cert = report["certificates"][0]
    if cert["verdict"] != "fails":
        problems.append("break-pr output still does phase retrieval")
    witness = _witness(cert)
    if witness is None:
        problems.append("fails without a witness")
    else:
        problems += pr_witness_problems(out.vectors, *witness)
    f, g = vec(data["witness_f"]), vec(data["witness_g"])
    if not _equal_magnitudes(out.vectors, f, g):
        problems.append("break-pr witness magnitudes differ on the output frame")
    if abs(np.vdot(g, f)) >= np.linalg.norm(f) * np.linalg.norm(g) - MATCH_TOL:
        problems.append("break-pr witness vectors are collinear")
    return problems


def _check_tensor_pr(expect, code, report, frames, workdir):
    certs = report["certificates"]
    verdicts = [c["verdict"] for c in certs]
    problems = []
    if verdicts != ["holds", "holds", "holds"]:
        problems.append(f"tensor verdicts {verdicts}; both factors and the product hold")
    if report["data"].get("theorem_consistent") is not True:
        problems.append("tensor check reports the transfer law violated")
    if code != EXIT.get(verdicts[-1], -1):
        problems.append(f"exit code {code} does not match the product verdict")
    out_problems, out = _output_problems(workdir, expect["output"], report["data"])
    problems += out_problems
    if out is not None:
        left, right = frames[expect["left"]], frames[expect["right"]]
        rows = np.array([np.kron(a, b) for a in left.vectors for b in right.vectors])
        weights = np.outer(left.weights, right.weights).ravel()
        if rows.shape != out.vectors.shape or not (np.allclose(out.vectors, rows, rtol=1e-12, atol=1e-15)
                                                   and np.allclose(out.weights, weights, rtol=1e-12)):
            problems.append("tensor output is not the Kronecker product of the factors")
    return problems


def _check_sweep(expect, code, report, frames, workdir):
    points = report["data"]["points"]
    problems = [] if code == 0 else [f"exit code {code} for a completed sweep"]
    if len(points) != expect["lambdas"] or report["data"]["trials"] != expect["trials"]:
        problems.append("sweep report does not echo its lambdas and trials")
    if any(p["failures"] != 0 or p["all_preserved"] is not True for p in points):
        problems.append("a tiny perturbation of a generic frame lost phase retrieval")
    return problems


def _check_alpha(expect, code, report, frames, workdir):
    data = report["data"]
    frame = frames[expect["frame"]]
    problems = [] if code == 0 else [f"exit code {code} for a completed alpha run"]
    alpha = float(data["alpha"])
    f, g = vec(data["argmin_f"]), vec(data["argmin_g"])
    if not (np.isfinite(alpha) and alpha >= 0.0):
        problems.append("alpha is negative or not finite")
    if abs(np.linalg.norm(f) - 1.0) > MATCH_TOL or abs(np.linalg.norm(g) - 1.0) > MATCH_TOL:
        problems.append("alpha minimizers are not unit vectors")
    value = float(np.sum(frame.weights * np.abs(_coeffs(frame.vectors, f)) ** 2
                         * np.abs(_coeffs(frame.vectors, g)) ** 2))
    if abs(value - alpha) > MATCH_TOL * (1.0 + value):
        problems.append("alpha does not equal the functional at its own minimizers")
    if data["restarts"] != expect["restarts"] or len(data["trace_lengths"]) != expect["restarts"]:
        problems.append("alpha report does not hold one trace per restart")
    return problems


def _check_bounds(expect, code, report, frames, workdir):
    frame = frames[expect["frame"]]
    v = frame.vectors
    evals = np.linalg.eigvalsh((v.T * frame.weights) @ np.conj(v))
    data = report["data"]
    problems = [] if code == 0 else [f"exit code {code} for bounds"]
    if not np.allclose([data["lower"], data["upper"]], [evals[0], evals[-1]], rtol=1e-9, atol=1e-12):
        problems.append("frame bounds differ from the frame operator's extreme eigenvalues")
    return problems


def _check_gen(expect, code, report, frames, workdir):
    data = report["data"]
    problems = [] if code == 0 else [f"exit code {code} for gen"]
    out_problems, out = _output_problems(workdir, data["output"], data)
    problems += out_problems
    if out is None:
        return problems
    v = out.vectors
    if (data["atoms"], data["dim"]) != v.shape:
        problems.append("gen report does not match the written frame's shape")
    kind = expect["kind"]
    if kind == "mercedes":
        angles = 2.0 * np.pi * np.arange(3) / 3.0
        want = np.column_stack([np.cos(angles), np.sin(angles)])
        if v.shape != want.shape or not np.allclose(v, want, atol=1e-15):
            problems.append("mercedes frame is not the three unit vectors at 120 degrees")
    elif kind == "onb":
        if not np.array_equal(v, np.eye(expect["dim"])):
            problems.append("onb frame is not the identity basis")
    elif kind == "harmonic":
        s = (v.T * out.weights) @ np.conj(v)
        if v.shape != (expect["n"], expect["dim"]) or not np.allclose(s, np.eye(expect["dim"]), atol=1e-12):
            problems.append("harmonic frame is not Parseval of the requested size")
    elif v.shape != (expect["n"], expect["dim"]):
        problems.append(f"{kind} frame has shape {v.shape}")
    return problems


CHECKERS = {
    "certify-pr": _check_certify_pr,
    "certify-nr": _check_certify_nr,
    "break-nr": _check_break_nr,
    "break-pr": _check_break_pr,
    "tensor-pr": _check_tensor_pr,
    "sweep": _check_sweep,
    "alpha": _check_alpha,
    "bounds": _check_bounds,
    "gen": _check_gen,
}


def parse_report(stdout: str) -> dict | None:
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def check_op(op: Op, code: int | None, stdout: str, frames: dict[str, FrameData], workdir: Path) -> list[str]:
    """Every problem with one execution of ``op``: exit code, verdict, witnesses, files."""
    report = parse_report(stdout)
    if report is None:
        return [f"stdout is not one JSON report (exit code {code})"]
    if "error" in report:
        return [f"error report: {report['error']}"]
    problems = []
    if report.get("command") != " ".join(("framelab",) + op.argv):
        problems.append("report does not echo its command")
    try:
        problems += CHECKERS[op.expect["check"]](op.expect, code, report, frames, workdir)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def is_undecided(code: int | None, stdout: str) -> bool:
    """Exit 3 (cap exceeded or inconclusive) or an ``inconclusive`` verdict."""
    if code == 3:
        return True
    report = parse_report(stdout) or {}
    data = report.get("data")
    return isinstance(data, dict) and data.get("verdict") == "inconclusive"
