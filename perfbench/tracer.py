"""Per-module tracing by wrapping framelab's public functions from outside.

Callers look a function up in their own module's globals (``retrieval``
calls ``numerical_rank`` through its ``from ._linalg import``), so a target
is replaced in every loaded ``framelab`` module that binds the same object.
A target that no longer exists is skipped and its metrics are absent.

Spans are closed into in-memory aggregates keyed by (function, op tag):
calls, inclusive time, self time (inclusive minus the time covered by
nested traced calls) and, for the rank kernels, how many calls found full
rank.  ``dump`` writes the aggregates out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

TARGETS = {
    "_linalg": ("numerical_rank", "annihilator", "eigmin_vector"),
    "retrieval": ("complement_property", "phase_retrieval_certify", "norm_retrieval_certify",
                  "norm_retrieval_oracle", "alpha_certify", "r_operator"),
    "perturb": ("break_phase_retrieval", "break_norm_retrieval", "stability_sweep"),
    "tensor": ("tensor_product", "tensor_pr_check"),
    "frames": ("frame_bounds",),
    "fileio": ("load_frame", "file_digest", "save_frame", "dumps_canonical"),
    "cli": ("main",),
}


def _rows(args, kwargs):
    return args[0] if args else kwargs["rows"]


# A rank call "settles" when it finds full column rank: for the complement
# scan that decides the pair, for norm retrieval the side is vacuous.
SETTLED = {
    "_linalg.numerical_rank": lambda args, kwargs, result: result >= _rows(args, kwargs).shape[1],
    "_linalg.annihilator": lambda args, kwargs, result: result.shape[1] == 0,
}


class Tracer:
    def __init__(self) -> None:
        self.tag = ""
        self.stats: dict[tuple[str, str], list[float]] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, names in TARGETS.items():
            try:
                mod = importlib.import_module(f"framelab.{module}")
            except ModuleNotFoundError:
                mod = None
            for name in names:
                original = getattr(mod, name, None)
                if not callable(original):
                    self.absent.append(f"{module}.{name}")
                    continue
                wrapper = self._wrap(f"{module}.{name}", original)
                for loaded in [m for key, m in sys.modules.items() if key.split(".")[0] == "framelab"]:
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._patched.append((loaded, attr, original))
                            setattr(loaded, attr, wrapper)

    def uninstall(self) -> None:
        for loaded, attr, original in reversed(self._patched):
            setattr(loaded, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        settled = SETTLED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += duration
                key = (name, self.tag)
                record = stats.get(key)
                if record is None:
                    record = stats[key] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - nested
            if settled is not None and settled(args, kwargs, result):
                record[3] += 1
            return result

        return traced

    def dump(self) -> list[list]:
        return [[name, tag, *record] for (name, tag), record in self.stats.items()]

    def merge(self, rows: list[list]) -> None:
        for name, tag, *values in rows:
            record = self.stats.setdefault((name, tag), [0, 0.0, 0.0, 0])
            for i, value in enumerate(values):
                record[i] += value
