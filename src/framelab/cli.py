"""Command line interface.

Every command prints one JSON report on stdout and a short human summary on
stderr, and communicates its verdict through the exit code:

* 0: verdict holds / command succeeded
* 1: verdict fails (a witness is embedded in the report)
* 2: usage or precondition error
* 3: enumeration cap exceeded, or an inconclusive complex-field verdict
* 4: internal construction error (a self-check of the library failed)

Reports are deterministic for fixed inputs and seeds; stage timings are the
one nondeterministic field and only appear with ``--timings``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field

from ._linalg import DEFAULT_ENUM_CAP, DEFAULT_ORTHO_TOL, DEFAULT_RANK_TOL
from .errors import EnumerationCapExceeded, FramelabError
from .fileio import (
    _read_json,
    build_report,
    certificate_to_dict,
    doc_to_frame,
    dumps_canonical,
    save_frame,
    vector_to_json,
)
from .frames import (
    Frame,
    bessel_norm_bound_check,
    frame_bounds,
    gen_deficient_plus_tail,
    gen_harmonic,
    gen_mercedes,
    gen_onb,
    gen_random,
    is_mu_complete,
)
from .perturb import break_norm_retrieval, break_phase_retrieval, stability_sweep
from .retrieval import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    alpha_certify,
    norm_retrieval_certify,
    phase_retrieval_certify,
)
from .tensor import tensor_nr_check, tensor_pr_check, tensor_product

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_CAP_OR_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {HOLDS: EXIT_OK, FAILS: EXIT_FAILS, INCONCLUSIVE: EXIT_CAP_OR_INCONCLUSIVE}
# First match wins: the cap refusal is itself a FramelabError.
_ERROR_EXIT = (
    (EnumerationCapExceeded, EXIT_CAP_OR_INCONCLUSIVE),
    (FramelabError, EXIT_INTERNAL),
    ((ValueError, OSError), EXIT_USAGE),
)


def _tolerance(value: float, name: str) -> float:
    """``value`` if it is a finite number >= 0; ``name`` is the flag or variable it came from."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def _env_rank_tol() -> float:
    env = os.environ.get("FRAMELAB_TOL")
    if env is not None:
        try:
            value = float(env)
        except ValueError as exc:
            raise ValueError(f"FRAMELAB_TOL must be a float, got {env!r}") from exc
        return _tolerance(value, "FRAMELAB_TOL")
    return DEFAULT_RANK_TOL


def _parse_list(text: str, what: str, kind: type, nouns: str) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated list of {nouns}, got {text!r}") from exc


class _Stopwatch:
    """Collects per-stage wall times; stays empty (and silent) unless enabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.times: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Add the time since the last lap to ``stage``, which may be lapped more than once."""
        now = time.perf_counter()
        if self.enabled:
            self.times[stage] = self.times.get(stage, 0.0) + (now - self._t0) * 1000.0
        self._t0 = now

    def result(self) -> dict[str, float] | None:
        return self.times if self.enabled else None


@dataclass
class _Outcome:
    """What one command computed: everything its report holds beyond the inputs."""

    data: dict
    summary: list[str]
    tolerances: dict[str, float] = field(default_factory=dict)
    certificates: list[dict] = field(default_factory=list)
    code: int = EXIT_OK


# Each kind of ``gen``: its generator and the options it takes, in call order.
_GENERATORS = {
    "onb": (gen_onb, ("dim",)),
    "mercedes": (gen_mercedes, ()),
    "harmonic": (gen_harmonic, ("dim", "n", "field")),
    "random": (gen_random, ("dim", "n", "seed", "field")),
    "deficient-tail": (gen_deficient_plus_tail, ("dim", "head_dim", "tail_len", "seed")),
}


def _gen(args: argparse.Namespace, frames: list[Frame], watch: _Stopwatch) -> _Outcome:
    kind = args.kind
    generate, names = _GENERATORS[kind]
    options = {name: getattr(args, name) for name in names}
    frame = generate(*options.values())
    watch.lap("generate")
    digest = save_frame(args.output, frame, {"generator": kind, **options})
    watch.lap("write")
    data = {
        "output": args.output,
        "output_digest": digest,
        "atoms": frame.n_atoms,
        "dim": frame.dim,
        "field": frame.field,
    }
    return _Outcome(
        data,
        [f"wrote {kind} frame: {frame.n_atoms} atoms in dimension {frame.dim} -> {args.output}"],
    )


def _bounds(args: argparse.Namespace, frames: list[Frame], watch: _Stopwatch) -> _Outcome:
    (frame,) = frames
    rank_tol = _env_rank_tol()
    bounds = frame_bounds(frame)
    bessel = bessel_norm_bound_check(frame)
    data = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "is_frame": bounds.is_frame,
        "eta": frame.space.eta,
        "total_mass": frame.space.total_mass,
        "mu_complete": is_mu_complete(frame, rank_tol),
        "bessel_bound": bessel.bound,
        "max_vector_norm": bessel.max_norm,
        "bessel_holds": bessel.holds,
    }
    watch.lap("compute")
    summary = (
        f"bounds: A={bounds.lower:.6g} B={bounds.upper:.6g} eta={frame.space.eta:.6g} "
        f"frame={bounds.is_frame}"
    )
    return _Outcome(data, [summary], {"rank_tol": rank_tol})


def _certify(args: argparse.Namespace, frames: list[Frame], watch: _Stopwatch) -> _Outcome:
    (frame,) = frames
    if args.tol is not None:
        _tolerance(args.tol, "--tol")
    if args.property == "pr":
        name = "phase retrieval"
        rank_tol = args.tol if args.tol is not None else _env_rank_tol()
        if args.alpha_restarts < 1:
            raise ValueError("alpha restarts must be at least 1")
        cert = phase_retrieval_certify(frame, rank_tol, args.cap)
        tolerances = {"rank_tol": rank_tol}
    else:
        name = "norm retrieval"
        rank_tol = _env_rank_tol()
        ortho_tol = args.tol if args.tol is not None else DEFAULT_ORTHO_TOL
        cert = norm_retrieval_certify(frame, ortho_tol, rank_tol, args.cap)
        tolerances = {"rank_tol": rank_tol, "ortho_tol": ortho_tol}
    watch.lap("certify")
    return _Outcome(
        {"property": name, "verdict": cert.verdict},
        [f"{name}: {cert.verdict}"],
        tolerances,
        [certificate_to_dict(cert)],
        _VERDICT_EXIT[cert.verdict],
    )


def _alpha(args: argparse.Namespace, frames: list[Frame], watch: _Stopwatch) -> _Outcome:
    (frame,) = frames
    result = alpha_certify(frame, restarts=args.restarts, iters=args.iters, seed=args.seed)
    watch.lap("minimize")
    data = {
        "alpha": result.alpha,
        "argmin_f": vector_to_json(result.argmin_f),
        "argmin_g": vector_to_json(result.argmin_g),
        "restarts": args.restarts,
        "trace_lengths": [len(t) for t in result.traces],
    }
    return _Outcome(data, [f"alpha = {result.alpha:.9g} over {args.restarts} restarts"])


def _perturb(args: argparse.Namespace, frames: list[Frame], watch: _Stopwatch) -> _Outcome:
    (frame,) = frames
    rank_tol = _env_rank_tol()
    breaks_pr = args.construction == "break-pr"
    key, text = ("head", args.head) if breaks_pr else ("subset", args.subset)
    if text is None:
        raise ValueError(
            f"perturb {args.construction} requires --{key} with comma-separated atom ids"
        )
    ids = _parse_list(text, f"--{key}", int, "integers")
    construct = break_phase_retrieval if breaks_pr else break_norm_retrieval
    result = construct(frame, ids, args.eps, rank_tol=rank_tol, cap=args.cap)
    cert = result.certificate
    provenance = {
        "perturbation": args.construction,
        "source": args.file,
        key: ids,
        "epsilon": args.eps,
    }
    watch.lap("construct")
    digest = save_frame(args.output, result.perturbed, provenance)
    watch.lap("write")
    data = {
        "output": args.output,
        "output_digest": digest,
        "l2_distance": result.l2_distance,
        "new_lower": result.new_bounds.lower,
        "new_upper": result.new_bounds.upper,
        "witness_f": vector_to_json(result.witness_f),
        "witness_g": vector_to_json(result.witness_g),
    }
    summary = (
        f"{args.construction}: moved frame by {result.l2_distance:.3e} (L2 squared), "
        f"perturbed verdict: {cert.verdict}"
    )
    return _Outcome(data, [summary], {"rank_tol": rank_tol}, [certificate_to_dict(cert)])


def _sweep(args: argparse.Namespace, frames: list[Frame], watch: _Stopwatch) -> _Outcome:
    (frame,) = frames
    rank_tol = _env_rank_tol()
    lambdas = _parse_list(args.lambdas, "--lambdas", float, "numbers")
    points = stability_sweep(frame, lambdas, args.trials, args.seed, rank_tol, args.cap)
    watch.lap("sweep")
    data = {
        "trials": args.trials,
        "seed": args.seed,
        "points": [
            {"lambda": p.lam, "all_preserved": p.all_preserved, "failures": p.failures}
            for p in points
        ],
    }
    summary = [f"lambda={p.lam:g}: failures={p.failures}/{args.trials}" for p in points]
    return _Outcome(data, summary, {"rank_tol": rank_tol})


def _tensor(args: argparse.Namespace, frames: list[Frame], watch: _Stopwatch) -> _Outcome:
    rank_tol = _env_rank_tol()
    tensor = tensor_product(*frames)
    product = tensor.product
    # The product is written once its check has passed, so a refused check
    # writes nothing; building and writing it are both timed as "write".
    watch.lap("write")
    bounds = frame_bounds(product)
    data = {
        "output": args.output,
        "output_digest": None,
        "atoms": product.n_atoms,
        "dim": product.dim,
        "lower": bounds.lower,
        "upper": bounds.upper,
    }
    certs: tuple = ()
    if args.check is None:
        summary = f"tensor product: {product.n_atoms} atoms in dimension {product.dim}"
    else:
        if args.check == "pr":
            report = tensor_pr_check(tensor, rank_tol, args.cap)
            certs = (report.left_pr, report.right_pr, report.product_pr)
            key, consistent = "theorem_consistent", report.theorem_consistent
        else:
            report = tensor_nr_check(tensor, rank_tol=rank_tol, cap=args.cap)
            certs = (report.left_nr, report.right_nr, report.product_nr)
            key, consistent = "consistent", report.consistent
        data["check"] = args.check
        data[key] = consistent
        summary = f"tensor {args.check} check: product {certs[-1].verdict}, consistent={consistent}"
    code = _VERDICT_EXIT[certs[-1].verdict] if certs else EXIT_OK
    cert_dicts = [certificate_to_dict(c) for c in certs]
    watch.lap("check")
    provenance = {"generator": "tensor", "factors": [args.left, args.right]}
    data["output_digest"] = save_frame(args.output, product, provenance)
    watch.lap("write")
    return _Outcome(data, [summary], {"rank_tol": rank_tol}, cert_dicts, code)


# Built once per process: ``main`` runs many times in one process, and parsing
# reads the parsers without changing them.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's parser by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timings", action="store_true", help="attach wall-clock stage timings to the report")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help="the most atoms (default %(default)s) of a frame whose subset splits certification reads; at any atom count, a frame with n >= d(d+1)/2 atoms (real) or n >= d^2 (complex) is first tested on its lifted symmetric or Hermitian map, which can only answer holds, certify nr then tries the identity test, and a frame with n >= 2d-1 atoms is tested on its C(n, d) d x d minors when they hold at most 32,768 entries, which can only answer holds too; a frame these leave open with more atoms than the cap is refused (exit 3), and otherwise certification decides up to 2^(n-1) subset splits, most of them through the covering pairs of the frame's at most C(n, d-1) hyperplanes")

    parser = argparse.ArgumentParser(prog="framelab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, parent: argparse.ArgumentParser, help: str) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, parents=[parent], help=help)
        return commands[name]

    p_gen = add("gen", common, help="generate a frame file")
    p_gen.add_argument("kind", choices=list(_GENERATORS))
    p_gen.add_argument("--dim", type=int, default=3)
    p_gen.add_argument("--n", type=int, default=4)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--field", choices=["real", "complex"], default="real")
    p_gen.add_argument("--head-dim", type=int, default=2)
    p_gen.add_argument("--tail-len", type=int, default=3)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(compute=_gen, inputs=())

    p_bounds = add("bounds", common, help="frame bounds, eta, Bessel check")
    p_bounds.add_argument("file")
    p_bounds.set_defaults(compute=_bounds, inputs=("file",))

    p_cert = add("certify", capped, help="certify phase or norm retrieval; complex nr holds when I lies in the span of the frame's rank-one projections, and is otherwise inconclusive (exit 3)")
    p_cert.add_argument("property", choices=["pr", "nr"])
    p_cert.add_argument("file")
    p_cert.add_argument("--tol", type=float, default=None, help="pr: rank tolerance, overriding FRAMELAB_TOL; nr: orthogonality tolerance (default 1e-8), while FRAMELAB_TOL still sets the rank tolerance")
    p_cert.add_argument("--alpha-restarts", type=int, default=4, help="accepted and ignored, but must be at least 1 for pr: certify estimates no alpha (see the alpha command); a complex frame holds when its lifted Hermitian map certifies it, fails when the complement property fails, and is otherwise inconclusive (exit 3)")
    p_cert.set_defaults(compute=_certify, inputs=("file",))

    p_alpha = add("alpha", common, help="alternating minimization lower-bound functional")
    p_alpha.add_argument("file")
    p_alpha.add_argument("--restarts", type=int, default=8)
    p_alpha.add_argument("--iters", type=int, default=100)
    p_alpha.add_argument("--seed", type=int, default=0)
    p_alpha.set_defaults(compute=_alpha, inputs=("file",))

    p_pert = add("perturb", capped, help="retrieval-breaking perturbations")
    p_pert.add_argument("construction", choices=["break-pr", "break-nr"])
    p_pert.add_argument("file")
    p_pert.add_argument("--head", default=None, help="comma-separated head atom ids (break-pr)")
    p_pert.add_argument("--subset", default=None, help="comma-separated subset atom ids (break-nr)")
    p_pert.add_argument("--eps", type=float, required=True)
    p_pert.add_argument("-o", "--output", required=True)
    p_pert.set_defaults(compute=_perturb, inputs=("file",))

    p_sweep = add("sweep", capped, help="phase retrieval stability sweep")
    p_sweep.add_argument("file")
    p_sweep.add_argument("--lambdas", required=True, help="comma-separated ascending radii")
    p_sweep.add_argument("--trials", type=int, default=20)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.set_defaults(compute=_sweep, inputs=("file",))

    p_tensor = add("tensor", capped, help="tensor product of two frame files")
    p_tensor.add_argument("left")
    p_tensor.add_argument("right")
    p_tensor.add_argument("-o", "--output", required=True)
    p_tensor.add_argument("--check", choices=["pr", "nr"], default=None)
    p_tensor.set_defaults(compute=_tensor, inputs=("left", "right"))

    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the parser of the command it names.

    That parser gets the same words the top-level parser would hand it, and
    what it leaves over is refused by the top-level parser with the text of
    its own ``parse_args``.  An ``argv`` that names no command, such as
    ``-h`` or an unknown word, is parsed by the top-level parser.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    command = " ".join(["framelab"] + argv)
    watch = _Stopwatch(args.timings)
    try:
        # Refused before any input is read, so a capped command certifies and writes nothing.
        if getattr(args, "cap", 1) < 1:
            raise ValueError(f"--cap must be at least 1, got {args.cap}")
        paths = [getattr(args, name) for name in args.inputs]
        loaded: dict[str, tuple[Frame, str]] = {}
        for path in paths:
            if path not in loaded:
                doc, digest = _read_json(path)
                watch.lap("read")
                loaded[path] = (doc_to_frame(doc), digest)
                watch.lap("frame")
        outcome = args.compute(args, [loaded[path][0] for path in paths], watch)
        digests = {path: digest for path, (_, digest) in loaded.items()}
        # A report holding a number JSON cannot carry finitely is refused here.
        text = dumps_canonical(build_report(
            command, digests, outcome.tolerances, outcome.data, outcome.certificates, watch.result()
        ))
    except (FramelabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stdout.write(dumps_canonical({"command": command, "error": str(exc)}))
        return next(code for kind, code in _ERROR_EXIT if isinstance(exc, kind))
    for line in outcome.summary:
        print(line, file=sys.stderr)
    sys.stdout.write(text)
    return outcome.code


if __name__ == "__main__":
    raise SystemExit(main())
