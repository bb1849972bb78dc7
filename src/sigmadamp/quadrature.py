"""Weighted radial L2 norms of spherically symmetric functions.

The n-dimensional L2 norm of a radial function reduces to a 1-d integral,

  ||f||^2 = surface_area(n) * int_0^{r_max} f(r)^2 r^{n-1} dr,

evaluated here with 15-node Gauss-Legendre panels on a geometric ladder of
segments [r_max/2^{i+1}, r_max/2^i] reaching down to r = 1e-12.  The ladder
resolves integrable power-law singularities at the origin without any change
of variables; each segment is refined by bisection until the two-panel
refinement agrees with the parent panel inside its share of the error
budget.  Integrands must accept numpy arrays of radii and act elementwise.

Refinement is level-batched, after Shampine's vectorised quadgk (J. Comput.
Appl. Math. 211, 2008): the coarse pass is one integrand call over every
segment, and each bisection level is one call over both halves of every panel
still open, so a norm costs one call per level instead of one per panel.
The accept test, the stall test and the fold of the bisection tree run as
array operations on a whole level.  Each panel is reduced on its own 15
nodes by NumPy's row sum, which reduces every row alike whatever the number
of rows and does not go through BLAS, so the norms do not depend on the BLAS
build or on the CPU it picks its kernels for.  The accepted values are summed
in the order of the bisection tree (left + right for every split panel,
segments in ascending order), so the norms are the floats a depth-first
recursion with the same per-panel reduction gives.  Refinement stops with
NonConvergence on a non-finite panel, at the depth cap, or when neither half
of a split panel improves on a gap already below the roundoff of the total:
that gap is roundoff in the integrand, which a tol below roundoff would
otherwise keep splitting, doubling the open panels on every level.

Also provides the smooth radial cutoffs used to split low and high
frequencies, and `scaling_check`, which verifies the norm decay exponent of
model integrands r^alpha e^{-c r^beta t} against the predicted power law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import FitResult, fit_loglog

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(15)
R_FLOOR = 1e-12
MAX_DEPTH = 60
# refinement agreement below this relative level is treated as roundoff noise
REL_FLOOR = 5e-16


class QuadratureError(RuntimeError):
    pass


class NonConvergence(QuadratureError):
    """A segment failed to meet its error budget within the depth cap."""


class SingularityTooStrong(ValueError):
    """The declared origin behavior makes f^2 r^{n-1} non-integrable."""


@dataclass(frozen=True)
class RadialIntegrand:
    """A radial function together with its declared power behavior at 0.

    singularity_exponent e asserts f(r) = O(r^e) as r -> 0; integrability of
    the squared integrand then requires 2e + n > 0.
    """

    func: object
    singularity_exponent: float = 0.0

    def __call__(self, r):
        return self.func(r)


def surface_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def _bump(x: np.ndarray) -> np.ndarray:
    # e^{-1/x} for x > 0, identically 0 for x <= 0; smooth across the seam
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, np.exp(-1.0 / safe), 0.0)


def smooth_step(x):
    """C^infinity ramp: 0 for x <= 0, 1 for x >= 1, strictly monotone between."""
    x = np.asarray(x, dtype=float)
    lo = _bump(x)
    hi = _bump(1.0 - x)
    out = lo / (lo + hi)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CutoffSpec:
    """Complementary smooth cutoffs around the radius eps.

    chi_low is 1 on [0, eps/2], 0 beyond eps; chi_high = 1 - chi_low exactly,
    so the pair partitions unity at every radius.
    """

    eps: float

    def __post_init__(self):
        if not (self.eps > 0.0):
            raise ValueError(f"cutoff radius must be positive, got {self.eps}")

    def chi_low(self, r):
        r = np.asarray(r, dtype=float)
        return smooth_step((self.eps - r) / (0.5 * self.eps))

    def chi_high(self, r):
        return 1.0 - self.chi_low(r)


def _panels(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre values of g on the panels [lo[i], hi[i]], from one call of g."""
    half = 0.5 * (hi - lo)
    r = (0.5 * (hi + lo))[:, None] + half[:, None] * GAUSS_NODES
    values = g(r.ravel()).reshape(r.shape)
    # a row sum reduces every row alike, whatever the number of rows
    return half * (values * GAUSS_WEIGHTS).sum(axis=1)


def _segments(r_max: float) -> tuple[np.ndarray, np.ndarray]:
    # the edges r_max * 2^-i above R_FLOOR, ascending after R_FLOOR itself;
    # halving a normal double is exact, so these are the floats repeated halving gives
    ladder = np.ldexp(r_max, np.arange(-math.ceil(math.log2(r_max) - math.log2(R_FLOOR)) - 1, 1))
    # ascending segments: a fixed reduction order keeps sums reproducible
    edges = np.concatenate(([R_FLOOR], ladder[ladder > R_FLOOR]))
    return edges[:-1], edges[1:]


def l2_radial(f, n: int, r_max: float, tol: float = 1e-8) -> float:
    """Radial L2 norm of f over the ball of radius r_max in R^n.

    The absolute norm error is targeted at tol * (1 + norm); the budget is
    converted to an integral tolerance using a coarse first pass, split
    evenly over segments, and halved on each bisection.

    Refinement runs level by level: one call of f evaluates both halves of
    every panel still open at that depth.  A panel is accepted when its halves
    agree with it to the budget (or to REL_FLOOR relative) and is split
    otherwise; the whole level is tested at once.  The accepted values are
    summed as the bisection tree nests, folded one level at a time from the
    deepest, left + right for each split panel and segments in ascending
    order, which is the float a depth-first recursion returns.

    Raises NonConvergence when a panel value is not finite, when a panel is
    still off budget at MAX_DEPTH, or when both halves of a split panel stay
    off budget with gaps no smaller than the panel's own and no larger than
    REL_FLOOR times the coarse total: such gaps are roundoff in f, not
    truncation, and tol asks for more than f can resolve.  A jump or kink
    stalls only the half that holds it, and an unresolved panel has gaps
    above that floor, so neither trips the guard.
    """
    integrand = f if isinstance(f, RadialIntegrand) else RadialIntegrand(f)
    if not (R_FLOOR < r_max < math.inf):
        raise ValueError(f"r_max must be finite and exceed {R_FLOOR:g}, got {r_max}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if 2.0 * integrand.singularity_exponent + n <= 0.0:
        raise SingularityTooStrong(
            f"declared origin exponent {integrand.singularity_exponent} with n={n} "
            "makes the squared integrand non-integrable"
        )

    def g(r):
        values = np.asarray(integrand.func(r), dtype=float)
        return values * values * r ** (n - 1)

    sphere = surface_area(n)
    lo, hi = _segments(r_max)

    coarse = _panels(g, lo, hi)
    coarse_total = sum(coarse.tolist())
    norm0 = math.sqrt(sphere * max(coarse_total, 0.0))
    eps_total = 2.0 * norm0 * tol * (1.0 + norm0) / sphere
    tau = eps_total / len(coarse)
    # a gap below this cannot move the total by more than its own roundoff
    noise = REL_FLOOR * abs(coarse_total)

    # Bisection tree, one level per entry: the values of the panels open at
    # that depth and which of them were split.  The children of the split
    # panels are the next level's panels, left and right half side by side.
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    parent_gap = np.full(len(coarse), math.inf)
    depth = 0
    while len(lo):
        m = len(lo)
        mid = 0.5 * (lo + hi)
        halves = _panels(g, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = halves[:m], halves[m:]
        fine = left + right
        with np.errstate(invalid="ignore"):  # inf - inf: reported below as non-finite
            gap = np.abs(fine - coarse)
        # written as not-accepted so that a NaN gap is split, never accepted
        split = ~(gap <= np.maximum(tau, REL_FLOOR * np.abs(fine)))
        # siblings sit side by side, the left half at even i
        stalled = split & (parent_gap <= gap) & (gap <= noise)
        stalled_pair = stalled[0 : m - 1 : 2] & stalled[1::2]
        finite = np.isfinite(fine)
        if not finite.all() or stalled_pair.any() or (depth >= MAX_DEPTH and split.any()):
            _raise_first_failure(lo, hi, fine, finite, split, stalled_pair, parent_gap, depth, tol)
        levels.append((fine, split))
        bounds = np.stack((lo[split], mid[split], hi[split]), axis=1)
        lo, hi = bounds[:, :2].ravel(), bounds[:, 1:].ravel()
        coarse = np.stack((left[split], right[split]), axis=1).ravel()
        parent_gap = np.repeat(gap[split], 2)
        tau *= 0.5
        depth += 1

    # fold the tree bottom up: a split panel's value is left + right of its halves
    below = None
    for value, split in reversed(levels):
        if below is not None:
            value[split] = below[0::2] + below[1::2]
        below = value
    total = 0.0
    for v in below.tolist():
        total += v
    return math.sqrt(sphere * max(total, 0.0))


def _raise_first_failure(lo, hi, fine, finite, split, stalled_pair, parent_gap, depth, tol):
    """Raise NonConvergence for the first panel of a level that failed.

    Panels are checked in order, each for a non-finite value, then the depth
    cap, then (at the right half of a sibling pair) a stall of both halves.
    """
    for i in range(len(lo)):
        if not finite[i]:
            raise NonConvergence(
                f"segment [{lo[i]:.6e}, {hi[i]:.6e}] has non-finite value {float(fine[i])} "
                f"at depth {depth}"
            )
        if split[i] and depth >= MAX_DEPTH:
            raise NonConvergence(
                f"segment [{lo[i]:.6e}, {hi[i]:.6e}] still off budget at depth {depth}"
            )
        if i % 2 and stalled_pair[i // 2]:
            raise NonConvergence(
                f"segment [{lo[i - 1]:.6e}, {hi[i]:.6e}] stalled at depth {depth}: "
                f"neither half improved on its refinement gap {parent_gap[i]:.3e}, "
                f"so tol={tol:g} is below the roundoff of the integrand"
            )
    raise AssertionError("no failing panel")


def scaling_check(
    alpha: float,
    beta: float,
    c: float,
    n: int,
    t_grid=None,
    eps: float = 0.5,
    quad_tol: float = 1e-8,
) -> FitResult:
    """Fit the decay exponent of ||r^alpha e^{-c r^beta t} chi_low||_{L2(R^n)}.

    The norm concentrates at r ~ t^{-1/beta}, giving the power law
    t^{-n/(2 beta) - alpha/beta}; the returned fit carries that target.
    """
    if beta <= 0.0 or c <= 0.0:
        raise ValueError(f"need beta > 0 and c > 0, got beta={beta}, c={c}")
    if 2.0 * alpha + n <= 0.0:
        raise SingularityTooStrong(
            f"alpha={alpha} with n={n} gives a non-normalizable model integrand"
        )
    if t_grid is None:
        t_grid = np.geomspace(1e2, 1e5, 30)
    t_grid = np.asarray(t_grid, dtype=float)
    cut = CutoffSpec(eps)

    def profile_at(t: float):
        def f(r):
            return r**alpha * np.exp(-c * r**beta * t) * cut.chi_low(r)

        return RadialIntegrand(f, singularity_exponent=alpha)

    norms = np.array(
        [l2_radial(profile_at(t), n, r_max=eps, tol=quad_tol) for t in t_grid]
    )
    target = -0.5 * n / beta - alpha / beta
    return fit_loglog(t_grid, norms, target)
