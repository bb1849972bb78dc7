"""Sweep the strong damping exponent and compare fitted to predicted rates.

Holds (n, sigma, sigma1) fixed, walks sigma2 across its admissible range, and
fits the order-1 error decay on a short time grid.  The printed table (and
optional CSV) pairs each fitted slope with the predicted exponent, giving a
quick picture of how the rate tracks sigma2 away from the pinned acceptance
configurations.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from sigmadamp.experiments import error_curve, fit_slope, gaussian_data, tail_window  # noqa: E402
from sigmadamp.fitting import geometric_grid  # noqa: E402
from sigmadamp.model import ModelParams  # noqa: E402


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--sigma1", type=float, default=0.25)
    ap.add_argument("--count", type=int, default=6, help="number of sigma2 samples")
    ap.add_argument("--k", type=int, default=1, help="profile order to fit")
    ap.add_argument("--per-decade", type=int, default=8)
    ap.add_argument("--t-max", type=float, default=1e3)
    ap.add_argument("--out", type=Path, help="CSV output path")
    return ap.parse_args()


def main():
    args = parse_args()
    # keep a margin on both sides: sigma2 must sit strictly above sigma/2
    lo = 0.5 * args.sigma + 0.05 * (args.sigma - args.sigma1)
    sigma2_values = np.linspace(lo, args.sigma, args.count)
    grid = geometric_grid(10.0, args.t_max, args.per_decade)
    data = gaussian_data()

    rows = []
    print(f"n={args.dim} sigma={args.sigma:g} sigma1={args.sigma1:g} k={args.k}")
    print(f"{'sigma2':>8}  {'predicted':>10}  {'fitted':>10}  {'gap':>8}")
    for sigma2 in sigma2_values:
        p = ModelParams(n=args.dim, sigma=args.sigma, sigma1=args.sigma1, sigma2=float(sigma2))
        curve = error_curve(p, args.k, data, t_grid=grid)
        fit = fit_slope(curve, tail_window(curve, 100.0, args.t_max))
        rows.append((float(sigma2), fit.target, fit.slope, fit.gap))
        print(f"{sigma2:8.4f}  {fit.target:+10.4f}  {fit.slope:+10.4f}  {fit.gap:8.4f}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        lines = ["sigma2,target_rate,fitted_slope,gap"]
        lines += [f"{s2:.17g},{tg:.17g},{sl:.17g},{gp:.17g}" for s2, tg, sl, gp in rows]
        args.out.write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
