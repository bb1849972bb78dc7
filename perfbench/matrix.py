"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/matrix.py                      # all workloads, seed 1, trace 0 and 1
    python3 perfbench/matrix.py --seeds 1-10 --trace 0 --out perfbench/baseline.json

Each run is a separate `run.py` process, one after another.  For every
workload the table gives each metric's median, quartiles (as
`statistics.quantiles(values, n=4)` gives them), sample count and spread,
the quartile distance as a share of the median.  End-to-end spreads are
compared with a third of the metric's bound from BENCHMARK.json.  The
diagnostics (failed_share, suites_failed, max_slope_dev, max_value_rdev,
report_digests) come from each run's record in `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT
from workloads import WORKLOADS

DIAGNOSTICS = ("failed_share", "suites_failed", "max_slope_dev", "max_value_rdev", "report_digests")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread, "values": values}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record_path.read_text(encoding="utf-8"))
    return result


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both")
    ap.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    ap.add_argument("--out", type=Path, default=OUT / "summary.json")
    args = ap.parse_args(argv)

    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(raw_wall_s="s", raw_setup_s="s")
    summary = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        rows = summary["workloads"].setdefault(workload, {})
        for trace in traces:
            runs = []
            for seed in summary["seeds"]:
                runs.append(run_one(workload, seed, args.seconds, trace))
                print(f"ran {workload} seed={seed} trace={trace} correct={runs[-1]['correct']}",
                      file=sys.stderr, flush=True)
            all_correct &= all(r["correct"] for r in runs)
            # the record's end-to-end block adds the raw times to the reported metrics
            block = "per_layer" if trace else "end_to_end"
            metrics = {
                name: summarise([r["record"][block][name] for r in runs])
                for name in runs[0]["record"][block]
            }
            diag = {
                name: summarise([r["record"]["diagnostics"][name] for r in runs])
                for name in DIAGNOSTICS
                if runs[0]["record"]["diagnostics"][name] is not None
            }
            rows[f"trace{trace}"] = {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
                "diagnostics": diag,
                "meta": [r["record"]["meta"] for r in runs],
            }
            print(f"\n{workload} (trace {trace}, {len(runs)} runs, correct={rows[f'trace{trace}']['correct']})")
            for name, s in {**metrics, **diag}.items():
                unit = units.get(name, "")
                line = (f"  {name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                        f"q3 {s['q3']:<12.6g} n {s['n']:<3d} spread {s['spread']:.4f} {unit}")
                if name in bounds and trace == 0:
                    line += f"  (bound {bounds[name]}, target < {bounds[name] / 3:.4f})"
                print(line)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
