"""Spans around the calls into martfock's modules, recorded from outside.

`traced(tracer)` replaces each public function or method listed in
TARGETS with a wrapper that opens a span on the tracer, in every martfock
module namespace that refers to it, and puts the originals back on exit.
The CLI layer is traced at its boundaries: `json.loads` / `json.dumps` as
the CLI module sees them, and every file the CLI module opens with `open`
(its CSV outputs).  Nothing under src/ is edited.

A tracer runs in one of two modes.  In "time" mode a span adds its self
time (its duration minus that of its traced children) to its name.  In
"memory" mode, meant for a pass under tracemalloc kept apart from the timed
spans, a span records the peak of traced memory above the amount allocated
when it opened.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import importlib
import math
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LIBRARY_MODULES = ("subsets", "functionals", "rademacher", "sequences", "convolution")
_ABSENT = object()


def _fwht_bytes(args, result):
    # n log2 n butterflies, each reading and writing one 16-byte complex.
    n = len(args[0])
    return {"rademacher.fwht.bytes": 32 * n * int(math.log2(n)) if n > 1 else 0}


def _diagnostic_rows(args, result):
    return {"sequences.diagnostic_rows": len(result.diagnostics)}


# (span name, module, attribute or Class.method, counter of (args, result))
TARGETS = [
    ("subsets.weight_vector", "subsets", "weight_vector", None),
    ("functionals.from_json", "functionals", "FockCoefficients.from_json_dict", None),
    ("functionals.to_json", "functionals", "FockCoefficients.to_json_dict", None),
    ("functionals.values_on", "functionals", "FockCoefficients.values_on", None),
    ("functionals.restricted", "functionals", "FockCoefficients.restricted", None),
    ("functionals.fit_growth", "functionals", "fit_growth", None),
    ("functionals.fit_growth", "functionals", "fit_growth_values", None),
    ("rademacher.fwht", "rademacher", "fwht", _fwht_bytes),
    ("rademacher.chaos_expand", "rademacher", "chaos_expand", None),
    ("rademacher.synthesize", "rademacher", "synthesize", None),
    ("rademacher.from_json", "rademacher", "RandomFunctional.from_json_dict", None),
    ("rademacher.to_json", "rademacher", "RandomFunctional.to_json_dict", None),
    ("sequences.from_json", "sequences", "FunctionalSequence.from_json_dict", None),
    ("sequences.values_matrix", "sequences", "FunctionalSequence.values_matrix", None),
    ("sequences.martingale_predicate", "sequences", "is_generalized_martingale", None),
    ("sequences.convergence_test", "sequences", "strong_convergence_test",
     _diagnostic_rows),
    ("sequences.verdict_to_json", "sequences", "ConvergenceVerdict.to_json_dict", None),
    ("convolution.indicator_functional", "convolution", "indicator_functional", None),
    ("convolution.convolve", "convolution", "convolve", None),
    ("convolution.residual", "convolution", "approximation_residual", None),
]


class Tracer:
    def __init__(self, mode: str = "time"):
        self.mode = mode
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.peak_bytes: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []

    def enter(self, name: str) -> list:
        if self.mode == "time":
            frame = [name, time.perf_counter(), 0.0]
        else:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame = [name, current, current]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, inner = frame
        if self.mode == "time":
            duration = time.perf_counter() - start
            self.self_s[name] += duration - inner
            if self._stack:
                self._stack[-1][2] += duration
        else:
            peak = max(inner, tracemalloc.get_traced_memory()[1])
            self.peak_bytes[name] = max(self.peak_bytes[name], peak - start)
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
        self.calls[name] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def module_peak_mb(self, module: str) -> float:
        return max((b for n, b in self.peak_bytes.items()
                    if n.split(".")[0] == module), default=0) / 1e6


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if counter is not None:
            tracer.counts.update(counter(args, result))
        return result
    return wrapper


class _JsonProxy:
    """The json module as martfock.cli sees it, with decode/encode spans."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def loads(self, *args, **kwargs):
        with self._tracer.span("cli.json_decode"):
            return self._real.loads(*args, **kwargs)

    def dumps(self, *args, **kwargs):
        with self._tracer.span("cli.json_encode"):
            return self._real.dumps(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _SpanFile:
    """A file opened by martfock.cli; its span lasts until it is closed."""

    def __init__(self, handle, tracer: Tracer, frame: list):
        self._handle = handle
        self._tracer = tracer
        self._frame = frame

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._frame is not None:
            self._handle.close()
            self._tracer.exit(self._frame)
            self._frame = None

    def __getattr__(self, name):
        return getattr(self._handle, name)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "martfock" or n.startswith("martfock.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module, attr, counter in TARGETS:
            mod = importlib.import_module(f"martfock.{module}")
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = vars(owner).get(member) if owner is not None else None
                if raw is None:
                    print(f"bench: no {module}.{attr} to trace; {name} reads 0",
                          file=sys.stderr)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__, counter))
                else:
                    new = _wrap(tracer, name, raw, counter)
                undo.append((owner, member, raw))
                setattr(owner, member, new)
                continue
            fn = getattr(mod, member, None)
            if fn is None:
                print(f"bench: no {module}.{attr} to trace; {name} reads 0",
                      file=sys.stderr)
                continue
            new = _wrap(tracer, name, fn, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        undo.append((m, key, fn))
                        setattr(m, key, new)

        cli = importlib.import_module("martfock.cli")
        undo.append((cli, "json", cli.json))
        cli.json = _JsonProxy(cli.json, tracer)

        def traced_open(*args, **kwargs):
            frame = tracer.enter("cli.csv_write")
            try:
                return _SpanFile(builtins.open(*args, **kwargs), tracer, frame)
            except BaseException:
                tracer.exit(frame)
                raise
        undo.append((cli, "open", vars(cli).get("open", _ABSENT)))
        cli.open = traced_open
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            if original is _ABSENT:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
