"""Check the CLI's output bytes and exit codes against recorded sha256s.

Builds the inputs of the benchmark's workloads (`bench/workloads.py`,
imported and not changed) for seeds 1 and 2 in a temporary directory, runs
each workload's CLI calls in this process, and compares the exit code and
the sha256 of every output file with `tools/goldens.json`.  Prints one line
per mismatch and exits 1 if there is any, else exits 0.

Usage: python3 tools/goldens.py [REPO_ROOT]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2)


def outputs(root: Path, names: list[str] | None = None) -> dict[str, dict]:
    """{"seed/workload/file": {"exit": code, "sha256": digest}} of every CLI
    output file of the named workloads (default: all of them), for each
    seed."""
    sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from martfock.cli import main

    found = {}
    for seed in SEEDS:
        for name in names or workloads.WORKLOADS:
            cls = workloads.WORKLOADS[name]
            with tempfile.TemporaryDirectory() as tmp:
                workload = cls(seed, Path(tmp))
                for call in workload.calls:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(list(call.argv))
                    for path in call.outputs:
                        digest = (hashlib.sha256(path.read_bytes()).hexdigest()
                                  if path.exists() else None)
                        found[f"{seed}/{name}/{path.name}"] = {"exit": code,
                                                              "sha256": digest}
    return found


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    recorded = json.loads((root / "tools" / "goldens.json").read_text())
    found = outputs(root)
    keys = sorted(recorded.keys() | found.keys())
    mismatches = [key for key in keys if recorded.get(key) != found.get(key)]
    for key in mismatches:
        print(f"MISMATCH {key}: recorded {recorded.get(key)}, got {found.get(key)}")
    print(f"{len(keys) - len(mismatches)} of {len(keys)} outputs match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
