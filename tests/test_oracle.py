"""The lab's kernel series and mode decay rates against high-precision rebuilds.

The kernel series are checked against a 100-digit rebuild that shares no
code with them.  The rebuild writes the tagged kernels of
`sigmadamp.kernels` down in mpmath, restricts them to the diagonal
a = b = eps, and takes their Taylor coefficients with `mp.taylor`.  It calls nothing from sigmadamp's series or
partition-sum code.  `mp.taylor` must run with chop=False: by default it
rounds every coefficient below about 10^-dps to zero, which at 50 digits
turns the fractional vel_slow sum at t = 1e3, r = 0.338 into a 31% gap and
at 100 digits zeroes the 1e-199 pos_fast value at t = 1e3, r = 0.208.

The mode decay rates are checked against the roots of the mode equation,
found by `mp.polyroots` at 50 digits.
"""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath").mp

from sigmadamp.acceptance import CONFIG_FRACTIONAL, CONFIG_FRICTIONAL
from sigmadamp.kernels import kernel_jets
from sigmadamp.model import ModelParams, mode_decay_rate, oscillation_band

PIECES = ("pos_fast", "pos_slow", "vel_slow", "vel_fast")
MAX_ORDER = 2
TIMES = (10.0, 1e3)
RADII = np.geomspace(1e-3, 3.0, 4)
# measured worst gap 7.9e-15 (vel_fast, order 0, t = 1e3, r = 0.208: the
# rounding of the exponent lam * t ~ -456); the bivariate engine the series
# replaced reached 1.8e-12 on this grid
RTOL = 1e-13


def diagonal_pieces(p, t, r):
    """The four multiplier pieces as functions of eps = a = b, in mpmath."""
    r = mp.mpf(r)
    nu = r ** (2 * mp.mpf(p.sigma1))
    x = r ** (2 * (mp.mpf(p.sigma2) - mp.mpf(p.sigma1)))
    w = r ** (2 * (mp.mpf(p.sigma) - 2 * mp.mpf(p.sigma1)))
    mu = nu * w
    t = mp.mpf(t)

    def parts(eps):
        g1 = 1 / (1 + eps * x)
        g2 = mp.sqrt(1 - 4 * eps * w * g1**2)
        gap = nu * (1 + eps * x) * g2
        lam_slow = -2 * mu * g1 / (1 + g2)
        lam_fast = -nu * (1 + eps * x) * (1 + g2) / 2
        return {
            "pos_fast": lam_slow * mp.exp(lam_fast * t) / gap,
            "pos_slow": lam_fast * mp.exp(lam_slow * t) / gap,
            "vel_slow": mp.exp(lam_slow * t) / gap,
            "vel_fast": mp.exp(lam_fast * t) / gap,
        }

    return {name: (lambda eps, nm=name: parts(eps)[nm]) for name in PIECES}


@pytest.mark.parametrize(
    "p", [CONFIG_FRACTIONAL, CONFIG_FRICTIONAL], ids=["fractional", "frictional"]
)
def test_series_piece_sums_match_100_digit_taylor(p):
    worst = 0.0
    with mp.workdps(100):
        for t in TIMES:
            for r in RADII:
                funcs = diagonal_pieces(p, t, float(r))
                coeffs = {
                    name: mp.taylor(f, 0, MAX_ORDER, chop=False) for name, f in funcs.items()
                }
                for order in range(MAX_ORDER + 1):
                    lab = kernel_jets(p, t, float(r), order)
                    for name in PIECES:
                        got = float(getattr(lab, name).sum(axis=0))
                        ref = mp.fsum(coeffs[name][: order + 1])
                        where = (name, order, t, float(r))
                        if float(ref) == 0.0:
                            # below the smallest double: the lab flushes to zero
                            assert got == 0.0, where
                            continue
                        gap = float(abs(got - ref) / abs(ref))
                        assert gap <= RTOL, (where, gap)
                        worst = max(worst, gap)
    assert worst > 0.0  # the comparison did run on representable values


# -- mode decay rates against 50-digit roots ---------------------------------

# the band is [r_low, 1] here and [1, r_high] in the frictional configuration
VISCOELASTIC = ModelParams(n=3, sigma=1.0, sigma1=0.25, sigma2=1.0)
# measured worst gaps: 1.2e-15 away from the band edges (fractional, next to
# its double root at r = 1), and 4.4e-12 at r = 0.999999999 next to the
# frictional edge r = 1, where the two real roots nearly coincide and the
# slow one takes the rounding of D2 through sqrt(D2)
RATE_RTOL = 4e-15
EDGE_RTOL = 1e-11


def rate_50_digits(p, r):
    """min(-Re lambda) over the roots of lambda^2 + A lambda + S, and D2 = A^2 - 4 S.

    A and S are rebuilt from r at 50 digits, sharing no code with the lab.
    """
    with mp.workdps(50):
        r = mp.mpf(r)
        a = r ** (2 * mp.mpf(p.sigma1)) + r ** (2 * mp.mpf(p.sigma2))
        s = r ** (2 * mp.mpf(p.sigma))
        roots = mp.polyroots([1, a, s], maxsteps=400, extraprec=200)
        return min(-mp.re(z) for z in roots), a * a - 4 * s


@pytest.mark.parametrize(
    "p",
    [CONFIG_FRACTIONAL, CONFIG_FRICTIONAL, VISCOELASTIC],
    ids=["fractional", "frictional", "viscoelastic"],
)
def test_mode_decay_rate_matches_50_digit_roots(p):
    band = oscillation_band(p)
    radii = np.geomspace(1e-3, 10.0, 41)
    edges = [] if band is None else [e * (1.0 + d) for e in band for d in (-1e-9, 1e-9)]
    low = band[0] if band else 1.0
    regimes = set()
    for rtol, rs in ((RATE_RTOL, radii), (EDGE_RTOL, np.array(edges))):
        for r, got in zip(rs, mode_decay_rate(p, rs)):
            want, d2 = rate_50_digits(p, float(r))
            regimes.add("complex" if d2 < 0 else "below" if r < low else "above")
            gap = float(abs(got - want) / want)
            assert gap <= rtol, (float(r), gap)
    # real roots below the band, complex inside it and real again above it
    assert regimes == ({"below", "above"} if band is None else {"below", "complex", "above"})
