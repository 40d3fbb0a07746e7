"""Tests of the benchmark's own inputs, checks and tracer.

    PYTHONPATH=src python -m pytest -q perfbench

The by-construction verdicts that the checks rely on are cross-checked at
small n against the independent oracles in tests/oracles.py, and tampered
reports must count as failed ops.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import framelab as fl  # noqa: E402
import framelab.cli  # noqa: E402
import checks  # noqa: E402
import mixes  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tests.oracles import brute_force_complement_property, sign_pattern_pr_oracle  # noqa: E402
from tracer import Tracer  # noqa: E402


def as_frame(data: mixes.FrameData) -> fl.Frame:
    return fl.Frame(fl.make_atomic(data.weights), data.vectors)


def nr_by_definition(v: np.ndarray) -> bool:
    """Norm retrieval over R: for every split, the two null spaces are orthogonal."""
    n, d = v.shape

    def null(rows):
        if len(rows) == 0:
            return np.eye(d)
        _, s, vh = np.linalg.svd(rows)
        rank = int(np.count_nonzero(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
        return vh[rank:].T

    for mask in range(2 ** n):
        inside = [i for i in range(n) if mask >> i & 1]
        outside = [i for i in range(n) if not mask >> i & 1]
        a, b = null(v[inside]), null(v[outside])
        if a.size and b.size and np.abs(a.T @ b).max() > 1e-8:
            return False
    return True


@pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (3, 5), (3, 7)])
def test_generic_real_frames_hold_phase_retrieval(d, n):
    rng = mixes._rng("pr-real", 7)
    for _ in range(3):
        frame = as_frame(mixes.generic_real(rng, n, d))
        assert sign_pattern_pr_oracle(frame) == "holds"
        assert brute_force_complement_property(frame)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_two_plane_frames_fail_phase_retrieval(n):
    frame = as_frame(mixes.two_plane(mixes._rng("pr-real", n), n))
    assert sign_pattern_pr_oracle(frame) == "fails"
    assert not brute_force_complement_property(frame)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 4), (3, 3)])
def test_repeated_onb_frames_hold_norm_retrieval_but_not_phase_retrieval(d, k):
    data = mixes.repeated_onb(mixes._rng("nr-real", k), d, k)
    assert nr_by_definition(data.vectors)
    assert sign_pattern_pr_oracle(as_frame(data)) == "fails"


def test_break_nr_output_fails_norm_retrieval():
    data = mixes.repeated_onb(mixes._rng("nr-real", 1), 3, 3)
    result = fl.break_norm_retrieval(as_frame(data), [0, 3, 6], 0.25)
    assert not nr_by_definition(result.perturbed.vectors)


def test_harmonic_2_4_complex_fails_phase_retrieval():
    data = mixes.harmonic_complex(2, 4)
    assert np.array_equal(data.vectors, fl.gen_harmonic(2, 4, "complex").vectors)
    # The lifted map Q -> (phi_i* Q phi_i) on 2x2 Hermitian Q has a kernel; in
    # d = 2 every nonzero kernel element is indefinite, so injectivity fails.
    basis = [np.array(m, dtype=complex) for m in
             ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]])]
    lifted = np.array([[np.real(np.vdot(phi, q @ phi)) for q in basis] for phi in data.vectors])
    assert np.linalg.matrix_rank(lifted, tol=1e-10) < 4


def test_deficient_head_admits_break_pr_at_small_epsilon():
    data = mixes.deficient_head(mixes._rng("cli-process", 3), 3, 2, 3)
    result = fl.break_phase_retrieval(as_frame(data), [0, 1, 2], 0.4)
    assert sign_pattern_pr_oracle(result.perturbed) == "fails"


@pytest.fixture()
def ran(tmp_path, monkeypatch):
    """Runs ops of a mix in-process inside tmp_path; returns (mix, run)."""
    monkeypatch.chdir(tmp_path)

    def run(mix, ops):
        mix.write_inputs(tmp_path)
        runner = worker.InProcess(fl.cli)
        try:
            return [runner(op) for op in ops]
        finally:
            runner.close()

    return run


def small_mix() -> mixes.Mix:
    mix = mixes.cli_process(5)
    mix.cycle = mix.cycle[: len(mix.cycle) // 2]
    return mix


def test_every_cli_process_command_passes_its_checks(ran, tmp_path):
    mix = small_mix()
    for op, (code, out, error) in zip(mix.cycle, ran(mix, mix.cycle)):
        assert error is None
        assert checks.check_op(op, code, out, mix.frames, tmp_path) == [], op.key


def _op(mix, key):
    return next(op for op in mix.cycle if op.key.startswith(key))


def _tamper(out: str, edit) -> str:
    report = json.loads(out)
    edit(report)
    return json.dumps(report, indent=2) + "\n"


def test_tampered_witness_and_flipped_verdict_count_as_failed(ran, tmp_path):
    mix = small_mix()
    fails, holds = _op(mix, "certify-pr-tp6"), _op(mix, "certify-pr-r3n7")
    (fcode, fout, _), (hcode, hout, _) = ran(mix, [fails, holds])

    def bend_witness(report):
        report["certificates"][0]["witness_vectors"][0][0] += 0.5

    def flip_to_holds(report):
        report["certificates"][0]["verdict"] = report["data"]["verdict"] = "holds"

    def flip_to_fails(report):
        report["certificates"][0]["verdict"] = report["data"]["verdict"] = "fails"

    cases = [(fails, fcode, _tamper(fout, bend_witness)),
             (fails, 0, _tamper(fout, flip_to_holds)),
             (holds, 1, _tamper(hout, flip_to_fails))]
    for op, code, out in cases:
        assert checks.check_op(op, code, out, mix.frames, tmp_path)
        mix.cycle = [op]
        executions = [worker.Execution(op.key, 0.01, code, worker.digest(out), None, 1e-3)]
        failed, _, problems = worker.evaluate(mix, executions, {op.key: (code, out)}, tmp_path,
                                              tmp_path / "ledger.json")
        assert failed == 1 and problems[op.key]


def test_changed_repeat_and_changed_ledger_entry_count_as_failed(ran, tmp_path):
    mix = small_mix()
    op = _op(mix, "bounds-r3n7")
    ((code, out, _),) = ran(mix, [op])
    mix.cycle = [op]
    ledger = tmp_path / "ledger.json"
    first = {op.key: (code, out)}
    same = worker.Execution(op.key, 0.01, code, worker.digest(out), None, 1e-3)
    other = worker.Execution(op.key, 0.01, code, worker.digest(out + " "), None, 1e-3)
    assert worker.evaluate(mix, [same, same], first, tmp_path, ledger)[0] == 0
    assert worker.evaluate(mix, [same, other], first, tmp_path, ledger)[0] == 1
    ledger.write_text(json.dumps({k: "0" * 64 for k in json.loads(ledger.read_text())}))
    assert worker.evaluate(mix, [same], first, tmp_path, ledger)[0] == 1


def test_ledger_compares_report_bytes_only_across_runs_of_the_same_code(ran, tmp_path):
    mix = small_mix()
    op = _op(mix, "bounds-r3n7")
    ((code, out, _),) = ran(mix, [op])
    mix.cycle = [op]
    root = tmp_path / "checkout"
    (root / "src" / "framelab").mkdir(parents=True)
    source = root / "src" / "framelab" / "cli.py"
    source.write_text("# before\n")
    before = worker.ledger_path(root, "cli-process")
    same = worker.Execution(op.key, 0.01, code, worker.digest(out), None, 1e-3)
    args = (mix, [same], {op.key: (code, out)}, tmp_path)
    assert worker.evaluate(*args, before)[0] == 0
    # The earlier code wrote other bytes for the same inputs.
    before.write_text(json.dumps({k: "0" * 64 for k in json.loads(before.read_text())}))
    assert worker.evaluate(*args, before)[0] == 1
    source.write_text("# after: a change meant to alter reports\n")
    after = worker.ledger_path(root, "cli-process")
    assert after != before
    assert worker.evaluate(*args, after)[0] == 0


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setitem(tracer_module.TARGETS, "_linalg", ("numerical_rank", "no_such_kernel"))
    monkeypatch.setitem(tracer_module.TARGETS, "no_such_module", ("anything",))
    t = Tracer()
    t.install()
    try:
        t.tag = "certify-pr/g3n10"
        fl.phase_retrieval_certify(fl.gen_random(3, 6, seed=1))
    finally:
        t.uninstall()
    assert fl.retrieval.numerical_rank is fl._linalg.numerical_rank  # restored
    assert t.absent == ["_linalg.no_such_kernel", "no_such_module.anything"]
    metrics = worker.per_layer(t, 1, {"k": (0, "{}")}, 2.0, 1.0, {})
    assert "linalg.no_such_kernel.calls" not in metrics
    calls = metrics["linalg.numerical_rank.calls"][0]
    assert calls > 0 and metrics["retrieval.complement_property.total_ms.n10"][0] > 0.0
    assert 0.0 < metrics["retrieval.settling_rank_ratio"][0] <= 1.0
    assert metrics["trace.overhead_ops_per_s"][0] == 1.0


def test_times_are_taken_at_the_reference_speed_read_around_them(tmp_path):
    ref = speed.REFERENCE_S
    mix = mixes.Mix(cycle=[mixes.Op(f"op{i}", "t", (), {}) for i in range(10)])
    # A pass at the reference speed, then one at half of it: each op takes twice as long.
    executions = [worker.Execution(f"op{i % 10}", 0.01 if i < 10 else 0.02, 0, "", None, ref if i < 10 else 2 * ref)
                  for i in range(20)]
    scaled = worker.at_reference_speed(executions)
    assert [ex.seconds for ex in scaled[:9] + scaled[10:]] == pytest.approx([0.01] * 19)
    assert scaled[9].seconds == pytest.approx(0.01 * 2 / 3)  # its calibrations straddle the change
    assert worker.op_ms(mix, scaled) == pytest.approx([10.0] * 9 + [(10.0 + 20.0 / 3) / 2])
    assert worker.latency(mix, executions)["op_ms_p50"][0] == pytest.approx(15.0)  # at machine speed
    assert 0.0 < speed.calibrate() < 1.0
    # A runner's own reference: the same readings against twice the reference double the times.
    assert worker.at_reference_speed(executions[:1], 2 * ref)[0].seconds == pytest.approx(0.02)
    # With a window, one stray reading among steady ones moves no time.
    steady = executions[:10]
    steady[4] = dataclasses.replace(steady[4], calibration=5 * ref)
    assert [ex.seconds for ex in worker.at_reference_speed(steady, ref, window=1)] == pytest.approx([0.01] * 10)
    assert 0.0 < speed.calibrate_process(dict(os.environ), tmp_path) < 30.0


def test_every_cycle_leaves_ten_ops_beyond_p90():
    for workload in mixes.WORKLOADS:
        assert len(mixes.build(workload, 1).cycle) >= 100


def test_mix_inputs_depend_only_on_the_seed():
    for workload in mixes.WORKLOADS:
        a, b, c = mixes.build(workload, 3), mixes.build(workload, 3), mixes.build(workload, 4)
        docs = lambda mix: {name: f.to_doc() for name, f in mix.frames.items()}  # noqa: E731
        assert [op.argv for op in a.cycle] == [op.argv for op in b.cycle]
        assert docs(a) == docs(b) and docs(a) != docs(c)


# Op classes cheapest first, from their measured latencies, then the classes
# the median and the 90th percentile must fall in.
LATENCY_ORDER = {
    "pr-real": (["sweep/g2n4", "certify-pr/g3n10", "certify-pr/g3n11", "certify-pr/tp12", "certify-pr/g3n12",
                 "certify-pr/g4n12", "certify-pr/tp13", "tensor/mercedes-x-2n4", "certify-pr/g3n13",
                 "certify-pr/g4n13", "certify-pr/tp14", "certify-pr/g3n14", "certify-pr/g4n14",
                 "certify-pr/tp15", "certify-pr/g3n15", "certify-pr/g4n15", "tensor/mercedes-x-3n5",
                 "certify-pr/tp16", "certify-pr/g3n16", "certify-pr/g4n16", "certify-pr/g3n17"],
                "sweep/g2n4", "certify-pr/g3n13"),
    "nr-real": (["certify-nr/g4n10", "certify-nr/g4n11", "certify-nr/g4n12", "break-nr/onb4k3",
                 "certify-nr/onb4k3", "certify-nr/g4n13", "certify-nr/g4n14", "break-nr/onb3k5",
                 "certify-nr/onb3k5", "certify-nr/g4n15", "break-nr/onb4k4", "certify-nr/g4n16",
                 "certify-nr/onb4k4"],
                "certify-nr/g4n10", "certify-nr/g4n13"),
    "pr-complex": (["certify-pr/c2n2", "certify-pr/c3n3", "certify-pr/c3n4", "certify-pr/c4n6",
                    "certify-pr/c4n5", "certify-pr/c4n4", "certify-pr/c2n3", "certify-pr/harmonic-2-4",
                    "certify-pr/c2n4", "certify-pr/c2n5", "certify-pr/c2n6", "certify-pr/c3n6",
                    "alpha/c5n10", "certify-pr/c3n9", "certify-pr/c4n9", "certify-pr/c4n10",
                    "certify-pr/c4n11", "certify-pr/c4n12"],
                   "alpha/c5n10", "certify-pr/c4n11"),
}
# Classes whose latencies overlap those of the p50 class (3.3 .. 5 ms in
# pr-complex, in an order that changes from run to run).  The percentile
# blocks must hold with all of them on either side of the p50 class.
OVERLAPPING = {
    "pr-complex": ["certify-pr/c3n5", "alpha/c3n6", "alpha/c4n8", "alpha/c3n9", "alpha/c6n12",
                   "certify-pr/c3n7", "alpha/c4n12", "alpha/c6n18", "alpha/c5n15", "alpha/c7n21",
                   "alpha/c8n16", "alpha/c8n24", "alpha/c7n14", "certify-pr/c4n7", "certify-pr/c3n8",
                   "certify-pr/c4n8"],
}


@pytest.mark.parametrize("workload", sorted(LATENCY_ORDER))
def test_percentiles_land_inside_one_op_class(workload):
    """p50 and p90 fall two ranks or more inside a block of one op class."""
    classes, p50_tag, p90_tag = LATENCY_ORDER[workload]
    overlapping = OVERLAPPING.get(workload, [])
    tags = [op.tag for op in mixes.build(workload, 1).cycle]
    assert set(tags) == set(classes) | set(overlapping)
    at = classes.index(p50_tag)
    for order in (classes[:at] + overlapping + classes[at:], classes[:at + 1] + overlapping + classes[at + 1:]):
        ranked = sorted(tags, key=order.index)
        for q, tag in ((0.5, p50_tag), (0.9, p90_tag)):
            pos = q * (len(ranked) + 1) - 1  # statistics.quantiles' default method, 0-based
            assert set(ranked[int(np.floor(pos)) - 2: int(np.ceil(pos)) + 3]) == {tag}
