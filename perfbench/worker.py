"""One benchmark worker: set up a workload, run its timed passes, check every op.

Started by ``run.py`` as ``python perfbench/worker.py``.  It prints one
JSON object on its last stdout line.  Set-up runs from the moment
``run.py`` spawned the process (``--spawned-at``, a monotonic clock
reading) through ``import framelab``, writing the inputs and one warm-up
op.  The timed phase makes whole passes over the workload's op cycle (see
``mixes``), at least ``mix.min_passes``, and stops at the pass boundary
nearest ``--seconds``.  Checks run after the timed phase.

Before each op the worker reads the machine's speed (see ``speed``) with
the calibration that suits its runner, and each execution's time is taken
at the reference speed.  An op's latency is the median of its executions
across passes; throughput is ops per second at those latencies.  The same
figures at the speed the machine ran at are returned beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

OP_TIMEOUT_S = 60.0
PROCESS_PROBES = 5
SETUP_CALIBRATIONS = 5
# Workloads whose traced run also times separate children for process.*:
# cli-process, and pr-complex, which is in BENCHMARK.json where cli-process is not.
PROCESS_WORKLOADS = ("cli-process", "pr-complex")


@dataclass
class Execution:
    key: str
    seconds: float
    code: int | None
    digest: str
    error: str | None
    calibration: float | None  # the runner's calibration read just before the op, if it was read


class InProcess:
    """Calls ``framelab.cli.main`` in this process, capturing stdout."""

    reference_s = speed.REFERENCE_S
    read_every = 1  # ops per calibration
    window = 0  # an op's speed is read from the calibrations just before and after it

    def __init__(self, cli_module) -> None:
        self.cli = cli_module
        self.devnull = open(os.devnull, "w")

    def __call__(self, op, tracer=None):
        out = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(self.devnull):
            try:
                code = self.cli.main(list(op.argv))  # looked up per call so tracing applies
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an op that raises is a failed op, the run goes on
                error = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), error

    def calibrate(self) -> float:
        return speed.calibrate()

    def close(self) -> None:
        self.devnull.close()


class Child:
    """Runs each op as its own ``python -m framelab`` process."""

    reference_s = speed.PROCESS_REFERENCE_S
    # The calibration is itself a process start, about half an op, so it is
    # read before every third op, and an op's speed is the mean of the two
    # readings nearest it.  Slow spells of a few seconds hit runs of a few
    # ops, and the probes among them: a wider window misses them.
    read_every = 3
    window = 2

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root, self.workdir = root, workdir
        self.env = child_env(root)
        self.spans = 0

    def __call__(self, op, tracer=None):
        if tracer is None:
            cmd, env = [sys.executable, "-m", "framelab", *op.argv], self.env
        else:
            self.spans += 1
            cmd = [sys.executable, str(self.root / "perfbench" / "tracechild.py"), *op.argv]
            env = dict(self.env, PERFBENCH_TRACE_TAG=op.tag,
                       PERFBENCH_TRACE_OUT=str(self.workdir / f"spans-{self.spans}.json"))
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {OP_TIMEOUT_S} s"
        return proc.returncode, proc.stdout.decode(errors="replace"), None

    def calibrate(self) -> float:
        return speed.calibrate_process(self.env, self.workdir)

    def collect_spans(self, tracer) -> None:
        for path in sorted(self.workdir.glob("spans-*.json")):
            tracer.merge(json.loads(path.read_text()))
            path.unlink()

    def close(self) -> None:
        pass


def child_env(root: Path) -> dict:
    """The environment of a ``python -m framelab`` child: this one, with the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_passes(mix, runner, budget_s: float, executions, first, min_passes: int, tracer=None) -> int:
    """Run whole passes until the next boundary would land farther from the budget.

    Each pass takes the cycle in its own fixed shuffled order, so the
    executions of one op fall at different times of the run and its
    latency is not tied to the machine's state in one stretch of it.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        order = list(mix.cycle)
        random.Random(passes).shuffle(order)
        for op in order:
            if tracer is not None:
                tracer.tag = op.tag
            calibration = runner.calibrate() if len(executions) % runner.read_every == 0 else None
            t0 = time.perf_counter()
            code, out, error = runner(op, tracer)
            elapsed = time.perf_counter() - t0
            executions.append(Execution(op.key, elapsed, code, digest(out), error, calibration))
            first.setdefault(op.key, (code, out))
        passes += 1
        wall = time.perf_counter() - start
        if passes >= min_passes and wall >= budget_s - wall / passes / 2:
            return passes


def at_reference_speed(executions: list[Execution], reference_s: float = speed.REFERENCE_S,
                       window: int = 0) -> list[Execution]:
    """Each execution with its time at the reference speed, from the calibrations on either side of it:
    those read just before and after it, and ``window`` executions farther each way."""
    readings = [ex.calibration for ex in executions]

    def around(i: int) -> list[float]:
        near = [r for r in readings[max(0, i - window):i + 2 + window] if r is not None]
        return near or [r for r in readings if r is not None]

    return [dataclasses.replace(ex, seconds=ex.seconds * speed.factor(around(i), reference_s))
            for i, ex in enumerate(executions)]


def op_ms(mix, executions) -> list[float]:
    """Each op of the cycle at the median time of its executions, in ms."""
    times: dict[str, list[float]] = {}
    for ex in executions:
        times.setdefault(ex.key, []).append(ex.seconds)
    return [statistics.median(times[op.key]) * 1000.0 for op in mix.cycle]


def ops_per_s(mix, executions) -> float:
    return len(mix.cycle) * 1000.0 / sum(op_ms(mix, executions))


def latency(mix, executions) -> dict:
    ms = op_ms(mix, executions)
    return {
        "ops_per_s": (ops_per_s(mix, executions), "ops/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
    }


def code_identity(root: Path) -> str:
    """Identifies the code whose report bytes the ledger holds: the framelab
    sources, Python and numpy.  A run compares bytes only with earlier runs
    of the same code, so a change that is meant to alter a report is not
    held to the bytes of the code before it."""
    import numpy

    h = hashlib.sha256(f"{sys.version}\0{numpy.__version__}\0".encode())
    src = root / "src" / "framelab"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


def ledger_path(root: Path, workload: str) -> Path:
    return root / ".perfbench_out" / f"ledger-{workload}-{code_identity(root)}.json"


def fingerprint(op, workdir: Path, frames) -> str:
    """Identifies an op's inputs across runs of one code: its arguments and input file bytes."""
    h = hashlib.sha256(json.dumps(op.argv).encode())
    for arg in op.argv:
        if arg in frames:
            h.update((workdir / arg).read_bytes())
    return h.hexdigest()


def evaluate(mix, executions, first, workdir: Path, ledger_file: Path):
    """Checks every execution; returns (failed, undecided, problems by op key)."""
    import checks

    ops = {op.key: op for op in mix.cycle}
    problems: dict[str, list[str]] = {}
    undecided_keys = set()
    ledger = json.loads(ledger_file.read_text()) if ledger_file.is_file() else {}
    for key, (code, out) in first.items():
        op = ops[key]
        problems[key] = checks.check_op(op, code, out, mix.frames, workdir)
        fp = fingerprint(op, workdir, mix.frames)
        if ledger.setdefault(fp, digest(out)) != digest(out):
            problems[key].append("report bytes differ from an earlier run on the same inputs")
        if checks.is_undecided(code, out):
            undecided_keys.add(key)
    failed = undecided = 0
    repeats: dict[str, set[str]] = {}
    for ex in executions:
        code0, out0 = first[ex.key]
        own = set() if ex.error is None else {ex.error}
        if ex.code != code0 or ex.digest != digest(out0):
            own.add("exit code or report bytes differ between repeats in one run")
        repeats.setdefault(ex.key, set()).update(own)
        failed += bool(problems[ex.key] or own)
        undecided += ex.key in undecided_keys or ex.code == 3
    for key, own in repeats.items():
        problems[key] += own
    ledger_file.parent.mkdir(parents=True, exist_ok=True)
    tmp = ledger_file.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True))
    tmp.replace(ledger_file)
    return failed, undecided, {k: sorted(set(v)) for k, v in problems.items() if v}


def end_to_end(mix, executions, failed: int, undecided: int, child: bool) -> dict:
    who = resource.RUSAGE_CHILDREN if child else resource.RUSAGE_SELF
    n = len(executions)
    return {
        **latency(mix, executions),
        "pass_ratio": (1.0 - failed / n, "ratio"),
        "decided_ratio": (1.0 - undecided / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def _child_ms(cmd: list[str], env: dict, cwd: Path, check: bool = True) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=OP_TIMEOUT_S, check=check)
    return (time.perf_counter() - t0) * 1000.0


def process_layer(command: list[str], env: dict, cwd: Path) -> dict[str, float]:
    """Medians of separate children: a bare interpreter, ``import framelab``, and one
    framelab command over the import, timed in pairs so that both see the same machine."""
    py = [sys.executable, "-c"]
    interpreter, imports, over = [], [], []
    for _ in range(PROCESS_PROBES):
        interpreter.append(_child_ms(py + ["pass"], env, cwd))
        imports.append(_child_ms(py + ["import framelab"], env, cwd))
        # a command's exit code is its verdict, not a failure
        over.append(_child_ms([sys.executable, "-m", "framelab", *command], env, cwd, check=False) - imports[-1])
    return {"interpreter_ms": statistics.median(interpreter), "import_framelab_ms": statistics.median(imports),
            "command_ms_over_import": statistics.median(over)}


def per_layer(tracer, passes: int, first, untraced_rate: float, traced_rate: float,
              process: dict[str, float]) -> dict:
    from tracer import TARGETS

    totals: dict[str, list[float]] = {}
    for (name, _), record in tracer.stats.items():
        acc = totals.setdefault(name, [0, 0.0, 0.0, 0])
        for i, value in enumerate(record):
            acc[i] += value
    metrics: dict[str, tuple[float, str]] = {}
    for module, names in TARGETS.items():
        for fn in names:
            name = f"{module}.{fn}"
            if name in tracer.absent:
                continue
            calls, _, self_s, _ = totals.get(name, [0, 0.0, 0.0, 0])
            label = name.lstrip("_")
            metrics[f"{label}.calls"] = (calls / passes, "count")
            metrics[f"{label}.self_ms"] = (self_s * 1000.0 / passes, "ms")

    def stat(name: str, index: int, tag_filter=lambda tag: True) -> float:
        return sum(r[index] for (n, tag), r in tracer.stats.items() if n == name and tag_filter(tag))

    for k in range(10, 18):
        calls = stat("retrieval.complement_property", 0, lambda t: t == f"certify-pr/g3n{k}")
        total = stat("retrieval.complement_property", 1, lambda t: t == f"certify-pr/g3n{k}")
        metrics[f"retrieval.complement_property.total_ms.n{k}"] = (
            total * 1000.0 / calls if calls else 0.0, "ms")
    rank_calls = stat("_linalg.numerical_rank", 0) + stat("_linalg.annihilator", 0)
    settled = stat("_linalg.numerical_rank", 3) + stat("_linalg.annihilator", 3)
    verdicts = sum(stat(f"retrieval.{fn}", 0) for fn in
                   ("phase_retrieval_certify", "norm_retrieval_certify", "norm_retrieval_oracle"))
    metrics["retrieval.rank_calls_per_verdict"] = (rank_calls / verdicts if verdicts else 0.0, "count")
    metrics["retrieval.settling_rank_ratio"] = (settled / rank_calls if rank_calls else 0.0, "ratio")
    nr_ops = lambda tag: tag.startswith("certify-nr/")  # noqa: E731
    nr_time = stat("cli.main", 1, nr_ops)
    metrics["retrieval.norm_retrieval_oracle.share"] = (
        stat("retrieval.norm_retrieval_oracle", 1, nr_ops) / nr_time if nr_time else 0.0, "ratio")
    report_bytes = [len(out.encode()) for _, out in first.values()]
    metrics["fileio.report_bytes"] = (statistics.mean(report_bytes), "B")
    for name in ("interpreter_ms", "import_framelab_ms", "command_ms_over_import"):
        metrics[f"process.{name}"] = (process.get(name, 0.0), "ms")
    metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "ops/s")
    return metrics


def environment(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "blas": blas, "framelab_code": code_identity(root)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path(args.root)

    sys.path.insert(0, str(root / "src"))
    import framelab.cli

    if not Path(framelab.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"imported framelab from {framelab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import mixes

    mix = mixes.build(args.workload, args.seed)
    child = args.workload == "cli-process"
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        os.chdir(workdir)
        mix.write_inputs(workdir)
        runner = Child(root, workdir) if child else InProcess(framelab.cli)
        runner(mix.warmup)
        setup_s = time.monotonic() - args.spawned_at
        setup_scale = speed.factor([runner.calibrate() for _ in range(SETUP_CALIBRATIONS)], runner.reference_s)

        def timed(executions: list[Execution]) -> list[Execution]:
            return at_reference_speed(executions, runner.reference_s, runner.window)

        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
            return 0

        executions: list[Execution] = []
        first: dict[str, tuple[int | None, str]] = {}
        if not args.trace:
            passes = run_passes(mix, runner, args.seconds, executions, first, mix.min_passes)
        else:
            from tracer import Tracer

            run_passes(mix, runner, args.seconds / 2, executions, first, 1)
            untraced = executions[:]
            tracer = Tracer()
            tracer.install()
            try:
                passes = run_passes(mix, runner, args.seconds / 2, executions, first, 1, tracer)
            finally:
                tracer.uninstall()
            if child:
                runner.collect_spans(tracer)
        runner.close()
        failed, undecided, problems = evaluate(mix, executions, first, workdir, ledger_path(root, args.workload))
        for key, found in problems.items():
            print(f"{key}: {'; '.join(found)}", file=sys.stderr)

        result = {"attempted": len(executions), "failed": failed, "environment": environment(root),
                  "passes": passes}
        if not args.trace:
            result.update(setup_s=setup_s, setup_scale=setup_scale, speed=speed.factor(
                [ex.calibration for ex in executions if ex.calibration is not None], runner.reference_s))
            result["metrics"] = end_to_end(mix, timed(executions), failed, undecided, child)
            result["at_machine_speed"] = {name: value for name, (value, _) in latency(mix, executions).items()}
        else:
            process = {}
            if args.workload in PROCESS_WORKLOADS:
                process = process_layer(list(mix.warmup.argv), child_env(root), workdir)
            traced = executions[len(untraced):]
            result["metrics"] = per_layer(tracer, passes, first, ops_per_s(mix, timed(untraced)),
                                          ops_per_s(mix, timed(traced)), process)
            out = root / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            out.write_text(json.dumps({"passes": passes, "absent": tracer.absent, "spans": tracer.dump()}))
        print(json.dumps(result))
        return 0
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
