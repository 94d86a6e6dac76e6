"""The approx workloads' CLI output bytes against the recorded sha256s.

`python3 tools/goldens.py` checks every workload; this runs the two that
exercise the approximant and residual kernels, for both seeds.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ["approx-sparse-wide", "approx-dense"]


def bench_files():
    return {path: (path.stat().st_size, path.stat().st_mtime_ns)
            for path in (ROOT / "bench").rglob("*")}


def test_approx_outputs_match_recorded_sha256s(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("goldens", ROOT / "tools" / "goldens.py")
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    recorded = json.loads((ROOT / "tools" / "goldens.json").read_text())
    before = bench_files()
    found = goldens.outputs(ROOT, NAMES)
    assert bench_files() == before
    assert found == {key: value for key, value in recorded.items()
                     if key.split("/")[1] in NAMES}
    assert len(found) == 8
