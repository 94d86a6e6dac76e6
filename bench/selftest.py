"""Self-test of the benchmark's own checks and of its peak-RSS reading.

    python3 bench/selftest.py

1. For every workload (seed 0): run its CLI calls in this process and one
   API pass, confirm the checks accept the real outputs, then confirm each
   check rejects a deliberately perturbed copy of a real output (a flipped
   coefficient sign, two swapped CSV rows, a changed verdict, ...).
2. Spawn the same small CLI child from this process while it is lean and
   again while it holds 256 MB: the VmHWM the child reads for itself must
   agree, while ru_maxrss from wait4 may count the spawner's footprint.

Exits 0 when everything holds, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import CHILD, ROOT, SRC, child_env, vmhwm_kb

sys.path.insert(0, str(SRC))

import martfock  # noqa: E402
import martfock.cli  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def rejects(check, what: str) -> None:
    try:
        check()
    except CheckFailed as exc:
        expect(True, f"rejects {what} ({exc})")
        return
    expect(False, f"rejects {what}")


def accepts(check, what: str) -> bool:
    try:
        check()
    except CheckFailed as exc:
        expect(False, f"accepts {what}: {exc}")
        return False
    expect(True, f"accepts {what}")
    return True


# Perturbations of output files: each takes the text and the workload and
# returns a perturbed copy of the text.

def flip_coefficient_sign(key: str = "coefficients", row: int = 1):
    def perturb(text: str, workload) -> str:
        data = json.loads(text)
        target = data
        for part in key.split("."):
            target = target[part]
        target[row]["re"] = -target[row]["re"]
        return json.dumps(data)
    return perturb


def flip_value_sign(text: str, workload) -> str:
    data = json.loads(text)
    data["values"][3]["re"] = -data["values"][3]["re"]
    return json.dumps(data)


def set_field(field: str, value):
    def perturb(text: str, workload) -> str:
        data = json.loads(text)
        data[field] = value
        return json.dumps(data)
    return perturb


def unsupported_witness(text: str, workload) -> str:
    data = json.loads(text)
    data["witness"]["sigma"] = unsupported_subset(workload).to_json()
    return json.dumps(data)


def unsupported_subset(workload):
    """The first subset the growing sequence never touches."""
    mask = int(np.argmin(workload.magnitudes_b[-1] > 0))
    return martfock.FiniteSubset(mask)


def _csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def swap_csv_rows(a: int, b: int, column: int | None = None):
    """Swap two rows (0 is the header), or only one column of them."""
    def perturb(text: str, workload) -> str:
        rows = list(csv.reader(text.splitlines()))
        if column is None:
            rows[a], rows[b] = rows[b], rows[a]
        else:
            rows[a][column], rows[b][column] = rows[b][column], rows[a][column]
        return _csv_text(rows)
    return perturb


def scale_csv_cell(row: int, column: int, factor: float):
    def perturb(text: str, workload) -> str:
        rows = list(csv.reader(text.splitlines()))
        rows[row][column] = repr(float(rows[row][column]) * factor)
        return _csv_text(rows)
    return perturb


# workload -> (call index, output index, what, perturbation)
FILE_PERTURBATIONS = {
    "chaos-roundtrip": [
        (0, 0, "one flipped coefficient sign", flip_coefficient_sign()),
        (1, 0, "one flipped sample sign", flip_value_sign),
    ],
    "approx-dense": [
        (0, 0, "one flipped approximant sign", flip_coefficient_sign()),
        (0, 1, "two swapped residual rows", swap_csv_rows(2, 5)),
        (0, 1, "two swapped residual values", swap_csv_rows(2, 5, column=1)),
        (0, 1, "one residual off by 1e-6", scale_csv_cell(4, 1, 1 + 1e-6)),
    ],
    "approx-sparse-wide": [
        (0, 0, "one flipped approximant sign", flip_coefficient_sign()),
        (0, 1, "two swapped residual values", swap_csv_rows(1, 9, column=1)),
    ],
    "converge-verdicts": [
        (0, 0, "a failed martingale-check", set_field("passed", False)),
        (1, 0, "one flipped limit sign", flip_coefficient_sign("limit.coefficients", 5)),
        (1, 1, "two swapped diagnostic rows", swap_csv_rows(3, 9)),
        (1, 1, "two swapped stabilisation indices", swap_csv_rows(2, 9, column=1)),
        (1, 1, "one margin below -1e-12 * bound", scale_csv_cell(6, 3, -1.0)),
        (2, 0, "a CONVERGED status on the growing sequence",
         set_field("status", "CONVERGED")),
        (2, 0, "a witness outside the support", unsupported_witness),
    ],
}


def perturb_lib(name: str, workload, result):
    """Perturbed copies of a real API-pass result, with what was changed."""
    if name == "chaos-roundtrip":
        c, g = result
        bad = dataclasses.replace(g, values=g.values * np.where(np.arange(g.values.size) == 7, -1, 1))
        yield "one flipped synthesized value", (c, bad)
        sigma, value = next(iter(c.table_items()))
        flipped = dict(c.table_items())
        flipped[sigma] = -value
        yield "one flipped coefficient sign", (
            type(c)(table=flipped, support_bound=c.support_bound), g)
    elif name.startswith("approx"):
        approx, residuals = result
        swapped = list(residuals)
        swapped[1], swapped[6] = swapped[6], swapped[1]
        yield "two swapped residuals", (approx, swapped)
        yield "a dropped approximant coefficient", (
            type(approx)(table=dict(list(approx.table_items())[1:]),
                         support_bound=approx.support_bound), residuals)
    else:
        passed, verdict_a, verdict_b = result
        rows = list(verdict_a.diagnostics)
        rows[4], rows[11] = rows[11], rows[4]
        yield "two swapped diagnostic rows", (
            passed, dataclasses.replace(verdict_a, diagnostics=tuple(rows)), verdict_b)
        yield "a failed martingale predicate", (False, verdict_a, verdict_b)
        yield "a witness outside the support", (passed, verdict_a, dataclasses.replace(
            verdict_b, witness=(unsupported_subset(workload), "perturbed")))


def selftest_checks(work: Path) -> None:
    for name, cls in workloads.WORKLOADS.items():
        print(f"-- {name}")
        case = work / name
        case.mkdir()
        workload = cls(0, case)
        for index, call in enumerate(workload.calls):
            code = martfock.cli.main(list(call.argv))
            expect(code == call.expect_exit, f"{call.argv[0]} exits {call.expect_exit}")
            accepts(lambda: workload.check_call(index), f"real {call.argv[0]} output")
        for index, output, what, perturb in FILE_PERTURBATIONS[name]:
            path = workload.calls[index].outputs[output]
            original = path.read_text()
            path.write_text(perturb(original, workload))
            rejects(lambda: workload.check_call(index), what)
            path.write_text(original)
        result = workload.lib_pass()
        accepts(lambda: workload.check_lib(result), "real API result")
        for what, bad in perturb_lib(name, workload, result):
            rejects(lambda: workload.check_lib(bad), f"API {what}")


def child_peak(work: Path) -> tuple[int, int]:
    """(VmHWM the child reads, ru_maxrss from wait4), both in kB, for a
    small CLI call spawned from this process."""
    proc = subprocess.Popen([sys.executable, "-c", CHILD, "lambda", "[0,1,3]"],
                            cwd=work, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return vmhwm_kb(stderr), usage.ru_maxrss


def selftest_rss(work: Path) -> None:
    print("-- peak RSS from a lean and a fat spawner")
    lean_hwm, lean_wait4 = child_peak(work)
    ballast = bytearray(256 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    fat_hwm, fat_wait4 = child_peak(work)
    del ballast
    print(f"     child VmHWM {lean_hwm} kB lean, {fat_hwm} kB fat; "
          f"wait4 ru_maxrss {lean_wait4} kB lean, {fat_wait4} kB fat")
    expect(abs(fat_hwm - lean_hwm) <= 2048,
           "child-side VmHWM does not depend on the spawner's size")


def main() -> int:
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        selftest_checks(work)
        selftest_rss(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # still in use by a benchmark run
            pass
    print(f"{len(FAILURES)} failure(s)" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
