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
found by `mp.polyroots` at 50 digits, and the multipliers K0, K1 the ODE
residual suite scores against a 50-digit rebuild from the two roots.
"""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath").mp

from sigmadamp.acceptance import CONFIG_FRACTIONAL, CONFIG_FRICTIONAL, residual_grid
from sigmadamp.kernels import exact_multipliers, kernel_jets
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


# -- solution multipliers against 50-digit roots ------------------------------

# measured worst gaps: fractional 1.4e-14 on the residual grid (t = 20,
# r = 1.53) and 2.7e-14 at the z = 1/2 seam; frictional 1.9e-14 everywhere
# except K0 at t = 20, r = 1.265, inside the band, where K0 = 6.9e-13 sits
# next to a zero of its oscillation and the gap is 5.2e-13
FRACTIONAL_K_RTOL = 5e-14
FRICTIONAL_K_RTOL = 1e-12


def multipliers_50_digits(p, t, r):
    """K0 = (l+ e^{l- t} - l- e^{l+ t})/(l+ - l-), K1 = (e^{l+ t} - e^{l- t})/(l+ - l-), and D2.

    l+- = (-A +- sqrt(D2))/2 with a complex sqrt, so the same formula holds
    inside the oscillation band; rebuilt from r at 50 digits, sharing no code
    with the lab.
    """
    with mp.workdps(50):
        r, t = mp.mpf(r), mp.mpf(t)
        a = r ** (2 * mp.mpf(p.sigma1)) + r ** (2 * mp.mpf(p.sigma2))
        d2 = a * a - 4 * r ** (2 * mp.mpf(p.sigma))
        root = mp.sqrt(mp.mpc(d2))
        plus, minus = (-a + root) / 2, (-a - root) / 2
        e_plus, e_minus = mp.exp(plus * t), mp.exp(minus * t)
        k0 = (plus * e_minus - minus * e_plus) / (plus - minus)
        k1 = (e_plus - e_minus) / (plus - minus)
        return mp.re(k0), mp.re(k1), d2


@pytest.mark.parametrize(
    "p, rtol",
    [(CONFIG_FRACTIONAL, FRACTIONAL_K_RTOL), (CONFIG_FRICTIONAL, FRICTIONAL_K_RTOL)],
    ids=["fractional", "frictional"],
)
def test_exact_multipliers_match_50_digit_roots(p, rtol):
    radii, times = residual_grid(p)
    nodes = [(float(t), float(r)) for t in times for r in radii]
    # the far form takes over from the near one at z = sqrt(D2) t / 2 = 1/2:
    # a node just below and just above it at every radius with real roots
    seam = 0
    for r in radii:
        _, _, d2 = multipliers_50_digits(p, 1.0, r)
        if d2 > 0:
            with mp.workdps(50):
                t_seam = 1 / mp.sqrt(d2)
            nodes += [(float(t_seam * (1 + d)), float(r)) for d in (-1e-12, 1e-12)]
            seam += 1
    t_nodes, r_nodes = (np.array(column) for column in zip(*nodes))
    em = exact_multipliers(p, t_nodes, r_nodes)
    for t, r, k0, k1 in zip(t_nodes, r_nodes, em.K0, em.K1):
        want0, want1, _ = multipliers_50_digits(p, t, r)
        for name, got, want in (("K0", k0, want0), ("K1", k1, want1)):
            gap = float(abs(got - want) / abs(want))
            assert gap <= rtol, (name, float(t), float(r), gap)
    # radii with real roots: all 10 fractional ones, 6 frictional ones
    assert seam >= 6
