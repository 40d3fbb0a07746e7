from __future__ import annotations

import json

import numpy as np
import pytest

import framelab as fl


def test_vector_json_real_roundtrip(tmp_path):
    frame = fl.gen_random(3, 5, seed=0)
    path = tmp_path / "frame.json"
    fl.save_frame(path, frame)
    loaded = fl.load_frame(path)
    assert loaded.field == "real"
    assert np.array_equal(loaded.vectors, frame.vectors)
    assert np.array_equal(loaded.weights, frame.weights)


def test_vector_json_complex_roundtrip(tmp_path):
    frame = fl.gen_random(2, 4, seed=1, field="complex")
    path = tmp_path / "frame.json"
    fl.save_frame(path, frame)
    loaded = fl.load_frame(path)
    assert loaded.field == "complex"
    assert np.array_equal(loaded.vectors, frame.vectors)


def test_labels_survive_roundtrip(tmp_path):
    space = fl.make_atomic([1.0, 2.0], labels=["p", None])
    frame = fl.Frame(space, np.eye(2))
    path = tmp_path / "frame.json"
    fl.save_frame(path, frame)
    loaded = fl.load_frame(path)
    assert loaded.space.atoms[0].label == "p"
    assert loaded.space.atoms[1].label is None


def test_provenance_roundtrip(tmp_path):
    frame = fl.gen_onb(2)
    path = tmp_path / "frame.json"
    fl.save_frame(path, frame, provenance={"generator": "onb", "dim": 2})
    assert fl.load_provenance(path) == {"generator": "onb", "dim": 2}
    bare = tmp_path / "bare.json"
    fl.save_frame(bare, frame)
    assert fl.load_provenance(bare) is None


def test_doc_validation_messages(tmp_path):
    frame = fl.gen_onb(2)
    doc = fl.frame_to_doc(frame)
    doc["atoms"][0]["weight"] = -1.0
    with pytest.raises(ValueError):
        fl.doc_to_frame(doc)
    doc = fl.frame_to_doc(frame)
    doc["atoms"][0]["vector"] = [1.0]
    with pytest.raises(ValueError):
        fl.doc_to_frame(doc)
    doc = fl.frame_to_doc(frame)
    del doc["field"]
    with pytest.raises(ValueError):
        fl.doc_to_frame(doc)
    with pytest.raises(ValueError):
        fl.doc_to_frame({"field": "real", "dim": 2, "atoms": []})
    for weight in (None, [1.0], {"w": 1.0}, "2", True, False, 10**400):
        doc = fl.frame_to_doc(frame)
        doc["atoms"][1]["weight"] = weight
        with pytest.raises(ValueError, match="atom 1: weight must be a number"):
            fl.doc_to_frame(doc)
    for vector in (5, None):
        doc = fl.frame_to_doc(frame)
        doc["atoms"][1]["vector"] = vector
        with pytest.raises(ValueError, match="atom 1: vector must be a list of 2 coordinates"):
            fl.doc_to_frame(doc)
    # Only JSON numbers are coordinates: no strings, no bools, nothing past float64.
    for coordinate in ("0", True, None, 10**400):
        doc = fl.frame_to_doc(frame)
        doc["atoms"][1]["vector"][0] = coordinate
        with pytest.raises(ValueError, match="atom 1: real coordinates must be numbers"):
            fl.doc_to_frame(doc)
    complex_frame = fl.gen_random(2, 2, seed=0, field="complex")
    for part in ("0", True, None, 10**400):
        for k in (0, 1):
            doc = fl.frame_to_doc(complex_frame)
            doc["atoms"][1]["vector"][0][k] = part
            with pytest.raises(ValueError, match=r"atom 1: complex coordinates must be \[re, im\] pairs"):
                fl.doc_to_frame(doc)
    doc = fl.frame_to_doc(fl.gen_onb(2))
    doc["atoms"][1] = {"weight": 3, "vector": [0, -2]}
    assert fl.doc_to_frame(doc).vectors.tolist() == [[1.0, 0.0], [0.0, -2.0]]
    # A bool is an int to Python, and True would read as dimension 1.
    doc = fl.frame_to_doc(fl.gen_onb(1))
    doc["dim"] = True
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        fl.doc_to_frame(doc)


def test_saved_file_is_stable_bytes(tmp_path):
    frame = fl.gen_random(2, 4, seed=5)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    digest = fl.save_frame(a, frame)
    fl.save_frame(b, frame)
    assert a.read_bytes() == b.read_bytes()
    assert digest == fl.file_digest(a)
    assert fl.file_digest(a) == fl.file_digest(b)
    assert fl.file_digest(a).startswith("sha256:")


def test_dumps_canonical_rejects_nan():
    with pytest.raises(ValueError):
        fl.dumps_canonical({"x": float("nan")})


def test_certificate_serialization():
    cert = fl.Certificate(
        verdict=fl.FAILS,
        method="m",
        field="real",
        witness_subset=(0, 2),
        witness_vectors=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    )
    doc = fl.certificate_to_dict(cert)
    assert doc["verdict"] == "fails"
    assert doc["witness_subset"] == [0, 2]
    assert doc["witness_vectors"] == [[1.0, 0.0], [0.0, 1.0]]
    assert doc["alpha_estimate"] is None
    json.dumps(doc)


def test_build_report_key_order_and_optional_timings():
    report = fl.build_report("cmd", {"f": "sha256:00"}, {"tol": 1e-10}, {"x": 1}, [])
    assert list(report.keys()) == ["command", "input_digests", "tolerances", "data", "certificates"]
    timed = fl.build_report("cmd", {}, {}, {}, [], {"load": 1.23456})
    assert timed["timings_ms"] == {"load": 1.235}


def test_load_frame_missing_file(tmp_path):
    with pytest.raises(OSError):
        fl.load_frame(tmp_path / "nope.json")


def test_load_frame_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError):
        fl.load_frame(path)


def test_load_provenance_rejects_invalid_json_naming_the_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": "real",\n')
    with pytest.raises(ValueError, match="broken.json: not valid JSON"):
        fl.load_provenance(path)
