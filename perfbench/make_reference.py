"""Record the reference outputs that run.py checks every call against.

    python3 perfbench/make_reference.py

Runs every distinct call of every workload once (the verify call, the
curve_k3 call and the whole sweep_k0 pool, so every seed is covered) and
writes perfbench/reference.json.  Re-record only when a change to the
program's numbers is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import OUT, ROOT, import_cli, invoke
from workloads import REFERENCE_PATH, Call, calls_for, read_reports, sweep_pool


def main() -> int:
    cli = import_cli()
    calls = calls_for("verify", 0) + calls_for("curve_k3", 0)
    calls += [Call(argv, 0) for argv in sweep_pool()]
    recorded = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="reference-", dir=OUT) as tmp:
        for j, call in enumerate(calls):
            out_dir = Path(tmp) / f"call{j}"
            rc, error = invoke(cli.main, call.argv, out_dir)
            if error is not None or rc != call.expect_rc:
                sys.exit(f"{call.key}: exit code {rc}, error {error}")
            digest, reports = read_reports(out_dir)
            recorded[call.key] = {"rc": rc, "digest": digest, "reports": reports}
            print(f"recorded {call.key}", flush=True)
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    REFERENCE_PATH.write_text(
        json.dumps({"git_sha": sha or None, "calls": recorded}, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
