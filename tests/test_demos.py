"""Every walkthrough under demos/ runs to completion in process and prints
exactly the stdout whose sha256 `tools/goldens.json` records for it."""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
RECORDED = json.loads((ROOT / "tools" / "goldens.json").read_text())


def test_demos_found():
    assert DEMOS
    assert {f"demos/{p.stem}" for p in DEMOS} == {k for k in RECORDED if k.startswith("demos/")}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert {"exit": 0, "sha256": digest} == RECORDED[f"demos/{path.stem}"]
