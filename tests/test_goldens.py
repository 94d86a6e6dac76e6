"""Every benchmark workload's CLI output bytes and exit codes against the
recorded sha256s (the check `python3 tools/goldens.py` makes), for both
seeds."""

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
    assert found == recorded
    assert len(found) == 22
