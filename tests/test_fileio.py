from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # A label is a string, or absent or null; tensor products would print any other value's repr.
    for label in (True, 5, 1.5, [1, 2], {"a": 1}):
        doc = fl.frame_to_doc(frame)
        doc["atoms"][1]["label"] = label
        with pytest.raises(ValueError, match="atom 1: label must be a string"):
            fl.doc_to_frame(doc)
    doc = fl.frame_to_doc(frame)
    doc["atoms"][0]["label"], doc["atoms"][1]["label"] = "x", None
    assert [atom.label for atom in fl.doc_to_frame(doc).space.atoms] == ["x", None]
    doc = fl.frame_to_doc(fl.gen_onb(2))
    doc["atoms"][1] = {"weight": 3, "vector": [0, -2]}
    assert fl.doc_to_frame(doc).vectors.tolist() == [[1.0, 0.0], [0.0, -2.0]]
    # A bool is an int to Python, and True would read as dimension 1.
    doc = fl.frame_to_doc(fl.gen_onb(1))
    doc["dim"] = True
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        fl.doc_to_frame(doc)


def test_doc_to_frame_builds_the_rows_of_its_numbers():
    # Ints convert as float() converts them, float subclasses are numbers, and complex parts keep their signs.
    doc = {"field": "real", "dim": 2, "atoms": [
        {"weight": 1, "vector": [2**53 + 1, -(2**70) - 3]},
        {"weight": np.float64(0.5), "vector": [np.float64(0.1), -0.0]},
    ]}
    frame = fl.doc_to_frame(doc)
    assert frame.vectors.dtype == np.float64
    assert frame.vectors.tobytes() == np.array([[float(2**53 + 1), float(-(2**70) - 3)], [0.1, -0.0]]).tobytes()
    assert frame.weights.tolist() == [1.0, 0.5]
    doc = {"field": "complex", "dim": 2, "atoms": [
        {"weight": 1.0, "vector": [[1.0, -0.0], (-0.0, 2)]},
        {"weight": 2.0, "vector": [[3, 5e-324], [-1.5, 1e300]]},
    ]}
    frame = fl.doc_to_frame(doc)
    expected = np.array([[complex(1.0, -0.0), complex(-0.0, 2.0)], [complex(3.0, 5e-324), complex(-1.5, 1e300)]])
    assert frame.vectors.dtype == np.complex128
    assert frame.vectors.tobytes() == expected.tobytes()


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


def _json_canonical(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _finite,
    _finite.map(np.float64),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1, 1.5e-7]),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
)
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_dumps_canonical_writes_the_bytes_of_json_dumps(obj):
    assert fl.dumps_canonical(obj) == _json_canonical(obj)


def test_dumps_canonical_encodes_each_kind_as_json_does():
    report = {
        "text": "tab\t, newline\n, quote\", backslash\\, bell\x07, e-acute \u00e9, snowman \u2603, clef \U0001d11e",
        "flags": [True, False, None],
        "numbers": [0, -7, 10**30, -0.0, 1e16, 5e-324, 0.1, np.float64(2.5), np.float64(-0.0)],
        "nested": {"empty list": [], "empty dict": {}, "tuple": (1, [2, {"k": ()}])},
    }
    text = fl.dumps_canonical(report)
    assert text == _json_canonical(report)
    assert text.isascii()
    assert '"numbers": [\n    0,\n    -7,' in text


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float64("-inf")])
def test_dumps_canonical_refuses_non_finite_floats_with_the_json_message(value):
    for obj in (value, [1.0, value], {"x": {"y": [value]}}):
        with pytest.raises(ValueError) as ours:
            fl.dumps_canonical(obj)
        with pytest.raises(ValueError) as theirs:
            _json_canonical(obj)
        assert str(ours.value) == str(theirs.value)
        assert str(ours.value).startswith("Out of range float values are not JSON compliant")


def test_dumps_canonical_leaves_what_it_does_not_encode_to_json():
    # Keys json converts, and a value json refuses, give json's own text and error.
    keyed = {1: "a", 2.5: "b", None: "c", True: "d"}
    assert fl.dumps_canonical(keyed) == _json_canonical(keyed)
    for obj, kind in (({"s": {1, 2}}, TypeError), ({(1, 2): 0}, TypeError)):
        with pytest.raises(kind) as ours:
            fl.dumps_canonical(obj)
        with pytest.raises(kind) as theirs:
            _json_canonical(obj)
        assert str(ours.value) == str(theirs.value)
    circular: list = []
    circular.append(circular)
    with pytest.raises(ValueError, match="Circular reference detected"):
        fl.dumps_canonical(circular)


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
