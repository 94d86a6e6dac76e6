"""Every benchmark workload's CLI output bytes and exit codes against the
recorded sha256s (the check `python3 tools/goldens.py` makes), for both
seeds, and its API pass against its own oracles.  The demos' entries in the
same file are checked by test_demos.py."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_files():
    return {path: (path.stat().st_size, path.stat().st_mtime_ns)
            for path in (ROOT / "bench").rglob("*")}


def test_outputs_match_recorded_sha256s(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("goldens", ROOT / "tools" / "goldens.py")
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    recorded = json.loads((ROOT / "tools" / "goldens.json").read_text())
    before = bench_files()
    found = goldens.outputs(ROOT)
    assert bench_files() == before
    assert found == {key: value for key, value in recorded.items()
                     if not key.startswith("demos/")}
    assert len(found) == 22


def test_api_passes_meet_their_oracles(monkeypatch, tmp_path):
    # The in-process pass bench/run.py times, checked as bench/run.py checks
    # it, so an API change that breaks a workload fails here first.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [str(ROOT / "src"), str(ROOT / "bench"), *sys.path])
    import workloads

    before = bench_files()
    for name, cls in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        workload = cls(1, tmp_path / name)
        workload.check_lib(workload.lib_pass())
    assert bench_files() == before
