"""martfock benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from src/ next to this directory.
The workload's inputs are made from --seed and written under .bench_work/
in the repository root, which is removed again at the end.

--trace 0 measures the end-to-end metrics in whole rounds until S seconds
have passed.  One round is: one fresh interpreter importing martfock
(setup_s), one pass of the workload's CLI calls as subprocesses (run_s,
peak_rss_mb), and a fixed number of passes of the same pipelines through
the API in this process (lib_s).  Each metric is the median over rounds.
The times are given at a reference speed of the machine: a fixed Python
loop runs before and after every timed operation, and the operation's wall
time is scaled by REFERENCE_S over the loop's mean time around it.  On a
shared host the CPU's speed drifts by half or more over seconds to
minutes; the loop slows with it, so the scaled time keeps what the program
costs and drops most of the drift.  The raw wall medians go to stderr.
The benchmark pins itself and its children to one CPU, so that the loop
and the operation run on the same one.

--trace 1 measures the per-layer metrics instead.  One round is one pass
of the CLI calls run in this process through martfock.cli.main with spans
around each layer's public functions, and the round's API passes, traced
(trace.lib_s) and then untraced (trace.untraced_lib_s): their difference is
the tracing overhead.  After the rounds, one more
in-process CLI pass runs under tracemalloc for each module's peak_alloc_mb.

Every operation (one CLI call, or one API pass) is checked: its exit code,
and its output against the independent computations in oracles.py.  The
first round's outputs are checked in full; later rounds must reproduce
their bytes exactly (canonical output is byte-identical across reruns).
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A hung CLI call is killed so that the run still ends within 180 s.
CHILD_DEADLINE = time.monotonic() + 150

# A CLI child: runs `python -m martfock.cli ARGS` and, at exit, reports its
# own resident high-water mark (VmHWM).  Read in the child, after exec, it
# holds nothing of the spawning process, unlike ru_maxrss from wait4.
CHILD = """\
import atexit, runpy, sys
def _report_hwm():
    with open('/proc/self/status') as status:
        kb = next(int(l.split()[1]) for l in status if l.startswith('VmHWM:'))
    sys.stderr.write('bench-vmhwm-kb %d\\n' % kb)
atexit.register(_report_hwm)
runpy.run_module('martfock.cli', run_name='__main__', alter_sys=True)
"""
HWM_MARK = "bench-vmhwm-kb "

# The reference loop and its nominal time: about its median on a 2-vCPU
# Xeon VM (2.1 GHz nominal) under Python 3.11.  A constant, so that scaled
# times compare between runs and between commits on one machine.
REFERENCE_LOOPS = 60_000
REFERENCE_S = 0.005

LAYER_SECONDS = [
    "subsets.weight_vector",
    "functionals.from_json", "functionals.to_json", "functionals.values_on",
    "functionals.restricted", "functionals.fit_growth",
    "rademacher.fwht", "rademacher.chaos_expand", "rademacher.synthesize",
    "rademacher.from_json", "rademacher.to_json",
    "sequences.from_json", "sequences.values_matrix",
    "sequences.martingale_predicate", "sequences.convergence_test",
    "sequences.verdict_to_json",
    "convolution.indicator_functional", "convolution.convolve", "convolution.residual",
    "cli.json_decode", "cli.json_encode", "cli.csv_write", "cli.other",
]
LAYER_CALLS = ["subsets.weight_vector", "functionals.values_on", "convolution.residual"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path) -> tuple[float, int, str]:
    """Run a child interpreter; (wall seconds, exit code, stderr)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(),
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, CHILD_DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        return time.perf_counter() - start, -1, str(exc)
    return time.perf_counter() - start, proc.returncode, proc.stderr


def vmhwm_kb(stderr: str) -> int:
    lines = [l for l in stderr.splitlines() if l.startswith(HWM_MARK)]
    if not lines:
        raise RuntimeError(f"CLI child reported no VmHWM; stderr: {stderr[-500:]}")
    return int(lines[-1][len(HWM_MARK):])


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


class Ledger:
    """Operations attempted and failed; `correct` turns false on any output
    that disagrees with an oracle or with the first round's bytes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference: dict[int, tuple[str, bool]] = {}

    def wrong(self, what: str, reason: object) -> None:
        print(f"bench: {self.workload.name}: {what}: {reason}", file=sys.stderr)
        self.correct = False

    def cli_call(self, index: int, code: int, stderr: str) -> None:
        """Record one CLI call whose outputs are now on disk."""
        call = self.workload.calls[index]
        self.attempted += 1
        if code != call.expect_exit:
            print(f"bench: {call.argv[0]} exited {code}, expected "
                  f"{call.expect_exit}: {stderr.strip()[-500:]}", file=sys.stderr)
            self.failed += 1
            return
        outputs = digest(call.outputs)
        if index not in self.reference:
            try:
                self.workload.check_call(index)
                self.reference[index] = (outputs, True)
            except Exception as exc:  # any malformed output is a wrong output
                self.wrong(f"{call.argv[0]} output", exc)
                self.reference[index] = (outputs, False)
        expected, checked_ok = self.reference[index]
        if outputs != expected:
            self.wrong(f"{call.argv[0]} output", "bytes differ from the first round")
        if outputs != expected or not checked_ok:
            self.failed += 1

    def lib_pass(self, result, counted: bool = True) -> None:
        """Record one API pass; an uncounted pass is checked all the same."""
        self.attempted += counted
        if isinstance(result, Exception):
            print(f"bench: API pass raised {result!r}", file=sys.stderr)
            self.failed += counted
            return
        try:
            self.workload.check_lib(result)
        except Exception as exc:
            self.wrong("API pass result", exc)
            self.failed += counted


def reference_loop() -> float:
    """Wall seconds of a fixed stretch of pure interpreter work."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class ScaledClock:
    """Scales each operation's wall time to the reference speed: by
    REFERENCE_S over the mean of the reference loops just before and just
    after it.  The loop after one operation is the loop before the next."""

    def __init__(self):
        self.before = reference_loop()
        self.loops: list[float] = []

    def scaled(self, elapsed: float) -> float:
        after = reference_loop()
        around = (self.before + after) / 2
        self.before = after
        self.loops.append(around)
        return elapsed * REFERENCE_S / around


def timed_lib_pass(workload) -> tuple[float, object]:
    gc.collect()  # every pass starts from the same heap, as a fresh process does
    start = time.perf_counter()
    try:
        result = workload.lib_pass()
    except Exception as exc:  # counted as a failed operation
        result = exc
    return time.perf_counter() - start, result


def run_end_to_end(workload, work: Path, seconds: float, ledger: Ledger) -> dict:
    setup, run, lib, rss = [], [], [], []
    raw_setup, raw_run, raw_lib = [], [], []
    spawn(["-c", "import martfock"], work)  # fills __pycache__ and the file cache
    timed_lib_pass(workload)                # warm-up, not an operation
    clock = ScaledClock()
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, code, err = spawn(["-c", "import martfock"], work)
        if code != 0:
            raise RuntimeError(f"import martfock failed: {err.strip()[-500:]}")
        setup.append(clock.scaled(elapsed))
        raw_setup.append(elapsed)
        wall, scaled, peak = 0.0, 0.0, 0
        for index, call in enumerate(workload.calls):
            elapsed, code, err = spawn(["-c", CHILD, *call.argv], work)
            scaled += clock.scaled(elapsed)
            wall += elapsed
            ledger.cli_call(index, code, err)
            if code == call.expect_exit:  # a killed child reports nothing
                peak = max(peak, vmhwm_kb(err))
        run.append(scaled)
        raw_run.append(wall)
        rss.append(peak * 1024 / 1e6)
        for _ in range(workload.lib_repeats):
            elapsed, result = timed_lib_pass(workload)
            lib.append(clock.scaled(elapsed))
            raw_lib.append(elapsed)
            ledger.lib_pass(result)
        if time.perf_counter() >= deadline:
            break
    median = statistics.median
    print(f"bench: raw wall medians: run {median(raw_run):.4f} s, lib "
          f"{median(raw_lib):.4f} s, setup {median(raw_setup):.4f} s; reference "
          f"loop {median(clock.loops) * 1e3:.3f} ms against {REFERENCE_S * 1e3:g} ms",
          file=sys.stderr)
    return {
        "run_s": (median(run), "s"),
        "lib_s": (median(lib), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }


def cli_in_process(cli, tracer, call) -> int:
    frame = tracer.enter("cli.other")
    try:
        code = cli.main(list(call.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # counted as a failed operation
        print(f"bench: in-process {call.argv[0]} raised {exc!r}", file=sys.stderr)
        code = -1
    finally:
        tracer.exit(frame)
    return code


def run_traced(workload, seconds: float, ledger: Ledger) -> dict:
    import martfock.cli as cli
    import tracing

    tracer = tracing.Tracer("time")
    rounds, traced_lib, plain_lib = [], [], []
    timed_lib_pass(workload)  # warm-up, not an operation
    deadline = time.perf_counter() + seconds
    while True:
        with tracing.traced(tracer):
            tracer.reset()
            for index, call in enumerate(workload.calls):
                code = cli_in_process(cli, tracer, call)
                ledger.cli_call(index, code, "")
            rounds.append((dict(tracer.self_s), tracer.calls.copy(),
                           tracer.counts.copy()))
            for _ in range(workload.lib_repeats):
                elapsed, result = timed_lib_pass(workload)
                traced_lib.append(elapsed)
                ledger.lib_pass(result)
        # The same passes untraced, next to the traced ones in time, so their
        # difference is the tracing overhead rather than machine drift.  Not
        # operations: rounds keep the mix of a --trace 0 round.
        for _ in range(workload.lib_repeats):
            elapsed, result = timed_lib_pass(workload)
            plain_lib.append(elapsed)
            ledger.lib_pass(result, counted=False)
        if time.perf_counter() >= deadline:
            break

    memory = tracing.Tracer("memory")
    with tracing.traced(memory):
        tracemalloc.start()
        try:
            for call in workload.calls:
                cli_in_process(cli, memory, call)
        finally:
            tracemalloc.stop()
    for index, call in enumerate(workload.calls):
        if digest(call.outputs) != ledger.reference.get(index, ("",))[0]:
            ledger.wrong(f"{call.argv[0]} output under tracemalloc",
                          "bytes differ from the first round")

    def median_self(name: str) -> float:
        return statistics.median(r[0].get(name, 0.0) for r in rounds)

    _, calls, counts = rounds[-1]
    metrics = {f"{name}_s": (median_self(name), "s") for name in LAYER_SECONDS}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    fwht_s = [r[0].get("rademacher.fwht", 0.0) for r in rounds]
    gbps = [r[2]["rademacher.fwht.bytes"] / s / 1e9 if s > 0 else 0.0
            for r, s in zip(rounds, fwht_s)]
    metrics["rademacher.fwht.gbps"] = (statistics.median(gbps), "GB/s")
    metrics["sequences.diagnostic_rows"] = (counts["sequences.diagnostic_rows"], "count")
    for key, field in (("cli.bytes_in", "inputs"), ("cli.bytes_out", "outputs")):
        metrics[key] = (sum(p.stat().st_size for c in workload.calls
                            for p in getattr(c, field) if p.exists()), "B")
    for module in tracing.LIBRARY_MODULES:
        metrics[f"{module}.peak_alloc_mb"] = (memory.module_peak_mb(module), "MB")
    metrics["trace.lib_s"] = (statistics.median(traced_lib), "s")
    metrics["trace.untraced_lib_s"] = (statistics.median(plain_lib), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "martfock" / "__init__.py").is_file():
        print(f"error: no martfock sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child it spawns: the reference
    # loop then measures the CPU that the timed operation ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        ledger = Ledger(workload)
        if args.trace:
            metrics = run_traced(workload, args.seconds, ledger)
        else:
            metrics = run_end_to_end(workload, work, args.seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.rmdir()
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
