"""Benchmark of the sigmadamp verify loop, driving `sigmadamp.cli.main` in-process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Load model: a closed loop with one client in one
single-threaded process, each CLI call starting only when the previous one
has returned.  A pass is one run of the workload's calls (see workloads.py);
passes repeat while another one is predicted to end within --seconds, so at
least one pass is measured.

--trace 0 measures the end-to-end metrics.  `wall_s` is rescaled to a
reference machine speed by `speed.SpeedSampler`; `setup_s` is the median of
16 spawns, half before the passes and half after them, rescaled by the mean
factor of the run's passes.  The raw times are printed and recorded beside
them.  --trace 1 runs the untraced
passes, then passes under `spans.Tracer` with the same budget, and reports
the per-layer metrics; the spans are written to
`.perfbench/spans-<workload>-seed<n>.npz`.  The metric names and units are
those declared in BENCHMARK.json.  Every run writes its full record, metadata
and diagnostics included, to `.perfbench/results/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Without the package beside
it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import VERIFY_SUITES, WORKLOADS, calls_for, check_call, load_reference  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SPAWNS = 16


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark one sigmadamp workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement budget per phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_cli():
    """Import sigmadamp.cli from this checkout's src/, or exit 2."""
    if not (SRC / "sigmadamp" / "cli.py").is_file():
        print(f"run.py: no sigmadamp package under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sigmadamp.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"run.py: imported sigmadamp from {cli.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def time_setups(count: int) -> list[float]:
    """Seconds from a fresh interpreter to sigmadamp.cli imported, per spawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import sigmadamp.cli"]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def invoke(cli_main, argv, out_dir: Path):
    """One CLI call with its printing captured; returns (exit code, error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main([*argv, "--out", str(out_dir)]), None
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            return None, repr(exc)


def run_passes(cli_main, calls, seconds: float, work: Path, label: str, reference: dict, speed: bool):
    """Repeat whole passes while the next is predicted to end within `seconds`.

    Returns the raw pass times (probe time excluded), the factor that rescales
    each to reference speed (when `speed`), the call times and the outcomes.
    """
    durations, scales, call_seconds, outcomes = [], [], [], []
    begin = time.perf_counter()
    while True:
        pass_dir = work / f"{label}{len(durations)}"
        dirs = [pass_dir / f"call{j}" for j in range(len(calls))]
        results = []
        with SpeedSampler() if speed else contextlib.nullcontext() as sampler:
            start = time.perf_counter()
            for call, out_dir in zip(calls, dirs):
                call_start = time.perf_counter()
                results.append(invoke(cli_main, call.argv, out_dir))
                call_seconds.append(time.perf_counter() - call_start)
            elapsed = time.perf_counter() - start
        if sampler is None:
            durations.append(elapsed)
        else:
            durations.append(elapsed - sampler.inside_s)
            scales.append(sampler.scale)
        for call, (rc, error), out_dir in zip(calls, results, dirs):
            outcomes.append(check_call(call, rc, error, out_dir, reference))
        shutil.rmtree(pass_dir, ignore_errors=True)
        if time.perf_counter() - begin + statistics.median(durations) > seconds:
            return durations, scales, call_seconds, outcomes


def metadata(args, calls, loadavg) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(loadavg),
        "calls": [list(call.argv) for call in calls],
    }


def diagnostics(outcomes) -> dict:
    by_key: dict[str, set] = {}
    for o in outcomes:
        by_key.setdefault(o.key, set()).add(o.digest)
    suites = [o.suites_failed for o in outcomes if o.suites_failed is not None]
    return {
        "failed_share": sum(not o.ok for o in outcomes) / len(outcomes),
        "suites_failed": max(suites) if suites else None,
        "max_slope_dev": max(o.max_slope_dev for o in outcomes),
        "max_value_rdev": max(o.max_value_rdev for o in outcomes),
        "values_compared": sum(o.values_compared for o in outcomes),
        "report_digests": max(len(d) for d in by_key.values()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()
    cli = import_cli()
    time_setups(1)  # compiles the bytecode; not counted
    setup_before = time_setups(SETUP_SPAWNS // 2)
    calls = calls_for(args.workload, args.seed)
    meta = metadata(args, calls, load_start)
    reference = load_reference()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        work = Path(tmp)
        wall, scales, call_seconds, outcomes = run_passes(
            cli.main, calls, args.seconds, work, "plain", reference, speed=True
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced_wall = []
        if args.trace:
            with Tracer(VERIFY_SUITES) as tracer:
                traced_main = tracer.wrap("cli", cli.main)
                traced_wall, _, _, traced_outcomes = run_passes(
                    traced_main, calls, args.seconds, work, "traced", reference, speed=False
                )
            outcomes += traced_outcomes
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    # spawn times drift within seconds; half the spawns a pass later widen the sample
    setup = setup_before + time_setups(SETUP_SPAWNS // 2)
    # single spawns do not follow the probe, but over a run they drift with it
    run_scale = statistics.fmean(scales)

    diag = diagnostics(outcomes)
    end_to_end = {
        "wall_s": statistics.median([w * k for w, k in zip(wall, scales)]),
        "setup_s": statistics.median(setup) * run_scale,
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": statistics.median(wall),
        "raw_setup_s": statistics.median(setup),
    }
    per_layer = None
    if args.trace:
        per_layer = layer_metrics(tracer, len(traced_wall), VERIFY_SUITES)
        per_layer["trace_overhead_s"] = statistics.median(traced_wall) - statistics.median(wall)
        per_layer["report_digests"] = float(diag["report_digests"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured = per_layer if args.trace else end_to_end
    reported = {
        m["name"]: (measured[m["name"]], m["unit"])
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    failed = sum(not o.ok for o in outcomes)
    correct = failed == 0 and diag["report_digests"] == 1
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "pass_seconds": wall,
        "pass_scales": scales,
        "call_seconds": call_seconds,
        "traced_pass_seconds": traced_wall,
        "setup_samples_s": setup,
        "end_to_end": end_to_end,
        "diagnostics": diag,
        "per_layer": per_layer,
        "problems": sorted({f"{o.key}: {p}" for o in outcomes for p in o.problems})[:20],
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    print(f"# {args.workload} seed={args.seed} sha={meta['git_sha']} python={meta['python']} "
          f"numpy={meta['numpy']} nproc={meta['nproc']} load={load_start[0]:.2f} "
          f"passes={len(wall)}+{len(traced_wall)} calls={len(outcomes)}")
    for name, value in diag.items():
        if value is not None:
            print(f"{name:40s} {value:.6g}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    if not args.trace:
        for name in ("raw_wall_s", "raw_setup_s"):
            print(f"{name:40s} {end_to_end[name]:.6g} s")
    for name, (value, unit) in reported.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
