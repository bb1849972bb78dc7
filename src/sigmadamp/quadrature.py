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
Appl. Math. 211, 2008), and every call computes a family of norms: the
caller (an error curve over its time grid, say) hands over one radius, the
number of members and one family integrand, and a single refinement loop
computes them all; a single norm is a family of one.  The coarse pass
covers every segment of every member, and each bisection level covers both
halves of every panel still open.  Each member keeps its own error budget
and noise floor; the accept test, the stall test and the fold of the
bisection tree run as array operations on a whole level.

A segment whose coarse value is at most REL_FLOOR / count of its member's
finite, nonzero coarse total settles: it enters the tree as a leaf with its
coarse value, and its halves are never evaluated.  All the settled segments
of a member hold at most REL_FLOOR of its total, so they cannot move the
norm by more than the total's own roundoff (after Gander and Gautschi,
"Adaptive Quadrature - Revisited", BIT 40, 2000, who stop refining where a
contribution cannot change the sum in floating point).  On the lab's error
curves 47-75% of the ladder segments settle, in the far tail and on the
rungs next to the origin.  The rule sees only the 15 coarse nodes, so a
feature narrower than their spacing inside a segment whose coarse value is
below the floor goes unseen.

The members of a family share one radius and so walk one ladder, and a
level holds each distinct panel many times over.  Panels are numbered so
that equal panels share their number: a segment by its place from the
bottom of the ladder, and the halves of a panel numbered i by 2i and
2i + 1, renumbered in order on each level; no level is sorted.  The family
integrand is called in two stages.  The radial stage f(r) runs once per
block of at most PANELS_PER_CALL distinct panels of a level, on their
radii, one row of 15 nodes per panel, and does there all the work that
depends on the radius alone; it returns the time stage stage(rows, j),
called once per chunk of at most PANELS_PER_CALL member panels of the
block with one entry per member panel: its row in the block and its
member j.  Row gathers such as x.take(rows, axis=0) carry the radial work
to the member panels.

Each member panel is reduced on its own 15 nodes by NumPy's row sum, which
reduces every row alike whatever the number of rows and does not go through
BLAS, so the norms do not depend on the BLAS build or on the CPU it picks
its kernels for, nor on the family they are computed in or on the blocks
and chunks it is cut into.  The accepted values are summed in the order of
the bisection tree (left + right for every split panel, each member's
segments in ascending order), so every norm is the float a depth-first
recursion with the same per-panel reduction gives.  Refinement stops with
NonConvergence on a non-finite panel, at the depth cap, or when neither half
of a split panel improves on a gap already below the roundoff of its
member's total: that gap is roundoff in the integrand, which a tol below
roundoff would otherwise keep splitting, doubling the open panels on every
level.

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
# panels per stage call, distinct panels per radial call and member panels per
# time call: fewer calls cost less fixed overhead, while more nodes per call
# raise peak memory, and a radial block's arrays stay alive while its member
# panels are evaluated.  512 panels are 7,680 nodes, so an order-2 series
# array of shape (3, 2, 7680) is 360 KiB, past glibc's 128 KiB trim and mmap
# thresholds; the heap top pad that `cli.main` sets keeps such arrays mapped
# between calls instead of faulting them in on every call
PANELS_PER_CALL = 512


class NonConvergence(RuntimeError):
    """A segment failed to meet its error budget within the depth cap."""


@dataclass(frozen=True)
class RadialIntegrand:
    """A radial function together with its declared power behavior at 0.

    func is the radial stage f(r) of a family of norms (see `l2_radial`),
    which returns the time stage stage(rows, j).  singularity_exponent e
    asserts that every member is O(r^e) as r -> 0; integrability of the
    squared integrand then requires 2e + n > 0.
    """

    func: object
    singularity_exponent: float = 0.0


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
    return lo / (lo + hi)


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


def _panels(radial, lo, hi, owner, ident, count) -> np.ndarray:
    """Gauss-Legendre values of g on the panels [lo[i], hi[i]] of members owner[i].

    Equal panels share ident[i], one of 0 .. count - 1.  radial is called
    once per block of PANELS_PER_CALL distinct panels, with their nodes as
    one row per panel, and returns g's time stage; that is called once per
    chunk of PANELS_PER_CALL member panels of the block, with each member
    panel's row in the block and its member.
    """
    out = np.empty(len(lo))
    # equal panels have equal edges: any of them gives the distinct panel's
    distinct_lo, distinct_hi = np.empty(count), np.empty(count)
    distinct_lo[ident], distinct_hi[ident] = lo, hi
    for block in range(0, count, PANELS_PER_CALL):
        part = slice(block, block + PANELS_PER_CALL)
        lo, hi = distinct_lo[part], distinct_hi[part]
        half = 0.5 * (hi - lo)
        r = (0.5 * (hi + lo))[:, None] + half[:, None] * GAUSS_NODES
        stage = radial(r)
        in_block = np.zeros(count, dtype=bool)
        in_block[part] = True
        members = np.flatnonzero(in_block[ident])
        for start in range(0, len(members), PANELS_PER_CALL):
            chunk = members[start : start + PANELS_PER_CALL]
            rows = ident[chunk] - block
            values = stage(rows, owner[chunk])
            # a row sum reduces every row alike, whatever the number of rows
            out[chunk] = half.take(rows) * (values * GAUSS_WEIGHTS).sum(axis=1)
    return out


def _renumber(ident: np.ndarray) -> tuple[np.ndarray, int]:
    """The ids renumbered 0, 1, ... in ascending order, and how many there are."""
    used = np.zeros(ident.max() + 1, dtype=bool)
    used[ident] = True
    kept = np.flatnonzero(used)
    number = np.empty(len(used), dtype=np.intp)
    number[kept] = np.arange(len(kept))
    return number[ident], len(kept)


def _segments(r_max: float) -> tuple[np.ndarray, np.ndarray]:
    # the edges r_max * 2^-i above R_FLOOR, ascending after R_FLOOR itself;
    # halving a normal double is exact, so these are the floats repeated halving gives
    ladder = np.ldexp(r_max, np.arange(-math.ceil(math.log2(r_max) - math.log2(R_FLOOR)) - 1, 1))
    # ascending segments: a fixed reduction order keeps sums reproducible
    edges = np.concatenate(([R_FLOOR], ladder[ladder > R_FLOOR]))
    return edges[:-1], edges[1:]


def l2_radial(f, n: int, r_max: float, members: int, tol: float = 1e-8):
    """Radial L2 norms of a family of `members` functions over the ball of radius r_max in R^n.

    The norms come back as an array of members values; a single norm is a
    family of one.  f is called in two stages.  The radial stage f(r) gets
    the radii of a block of distinct panels, one row of 15 Gauss nodes per
    panel, and returns the time stage stage(rows, j), which gets one entry
    per member panel, its row in the block and its member j, and must return
    member j's function at the radii r[rows], shape (len(rows), 15); its
    sign does not matter, since only its square is integrated.  Work that
    depends on the radius alone belongs in the radial stage, which runs once
    per panel of a level however many members share it.  Every member is
    refined as if it were alone, so its norm is the float a family of one
    returns.

    The absolute norm error is targeted at tol * (1 + norm); the budget is
    converted to an integral tolerance using a coarse first pass, split
    evenly over segments, and halved on each bisection.  A member whose
    coarse total is exactly 0 takes its budget and its roundoff floor from
    its total on the first bisection level instead.  A segment settles
    on its coarse value, unsplit, when that value is at most REL_FLOOR /
    count of its member's coarse total and the total is finite and nonzero:
    the settled segments together cannot move the total beyond its
    roundoff.  A NaN value never settles, and a non-finite or zero total
    settles nothing, so failures are found where refinement finds them.

    The integral runs over [R_FLOOR, r_max], not [0, r_max].  A function
    that is not small at the origin misses the mass of [0, R_FLOOR]: for
    e^{-r^2} in n = 1 the norm comes out 8.0e-13 relative low.  A tol below
    that miss is not met, and no error reports it.

    Refinement runs level by level over the unsettled panels of all members:
    the halves of every panel still open at that depth are evaluated, radial
    stages on blocks of at most PANELS_PER_CALL distinct panels and time
    stages on chunks of at most PANELS_PER_CALL member panels.  A panel is
    accepted when its halves agree with it to its member's budget (or to
    REL_FLOOR relative) and is split otherwise; the whole level is tested at
    once.  The accepted values are summed as the bisection tree nests,
    folded one level at a time from the deepest, left + right for each split
    panel and each member's segments added left to right in ascending order,
    which is the float a depth-first recursion returns.

    Raises NonConvergence when a panel value is not finite, when a panel is
    still off budget at MAX_DEPTH, or when both halves of a split panel stay
    off budget with gaps no smaller than the panel's own and no larger than
    REL_FLOOR times its member's coarse total: such gaps are roundoff in f,
    not truncation, and tol asks for more than f can resolve.  A jump or
    kink stalls only the half that holds it, and an unresolved panel has
    gaps above that floor, so neither trips the guard.  The panel named is
    the first failing one of the level, members in order.
    """
    integrand = f if isinstance(f, RadialIntegrand) else RadialIntegrand(f)
    if isinstance(r_max, bool) or not isinstance(r_max, (int, float)) or not R_FLOOR < r_max < math.inf:
        raise ValueError(f"r_max must be one finite float above {R_FLOOR:g}, got {r_max!r}")
    if isinstance(members, bool) or not isinstance(members, int) or members < 0:
        raise ValueError(f"members must be a non-negative int, got {members!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if 2.0 * integrand.singularity_exponent + n <= 0.0:
        raise ValueError(
            f"declared origin exponent {integrand.singularity_exponent} with n={n} "
            "makes the squared integrand non-integrable"
        )
    if not members:
        return np.empty(0)

    func = integrand.func

    def radial(r):
        # the stages of g = f^2 r^{n-1}
        stage = func(r)
        weight = r ** (n - 1)

        def g(rows, j):
            values = np.asarray(stage(rows, j), dtype=float)
            return values * values * weight.take(rows, axis=0)

        return g

    def totals(values, owner):
        # each member's values added left to right from +0.0; the builtin sum
        # is compensated from Python 3.12 on, and would depend on the version
        return np.bincount(owner, weights=values, minlength=members)

    sphere = surface_area(n)
    # every member walks the one ladder: segment i is panel i of the coarse level
    lo, hi = _segments(float(r_max))
    segments = len(lo)
    lo, hi = np.tile(lo, members), np.tile(hi, members)
    ident = np.tile(np.arange(segments), members)
    coarse_owner = owner = np.repeat(np.arange(members), segments)

    def budget(total):
        # each segment's share of the member's budget, and the roundoff floor:
        # a gap below it cannot move the member's total by more than its roundoff
        norm = np.sqrt(sphere * np.maximum(total, 0.0))
        return 2.0 * norm * tol * (1.0 + norm) / sphere / segments, REL_FLOOR * np.abs(total)

    coarse = _panels(radial, lo, hi, owner, ident, segments)
    coarse_total = totals(coarse, owner)
    tau, noise = budget(coarse_total)
    # a segment holding at most its share of the roundoff floor settles: its
    # coarse value is a leaf of the tree and its halves are never evaluated.
    # A NaN value compares false, and a non-finite or zero total settles nothing.
    zero = coarse_total == 0.0
    live = np.isfinite(coarse_total) & ~zero
    settled = live[owner] & (np.abs(coarse) <= (noise / segments)[owner])
    leaves, unsettled = coarse, ~settled
    lo, hi, owner, ident = lo[unsettled], hi[unsettled], owner[unsettled], ident[unsettled]
    coarse = coarse[unsettled]

    # Bisection tree, one level per entry: the values of the panels open at
    # that depth and which of them were split.  The children of the split
    # panels are the next level's panels, left and right half side by side,
    # so the panels of each member stay together and in order.
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    parent_gap = np.full(len(coarse), math.inf)
    depth = 0
    while len(lo):
        m = len(lo)
        mid = 0.5 * (lo + hi)
        # the halves of equal panels are equal: the left one 2 id, the right 2 id + 1
        ident, count = _renumber(np.concatenate((2 * ident, 2 * ident + 1)))
        halves = _panels(
            radial,
            np.concatenate((lo, mid)),
            np.concatenate((mid, hi)),
            np.concatenate((owner, owner)),
            ident,
            count,
        )
        left, right = halves[:m], halves[m:]
        fine = left + right
        if depth == 0 and zero.any():
            # a coarse total of 0 gives no budget and no floor, and its member
            # would refine to MAX_DEPTH: it takes both from its fine total
            fine_tau, fine_noise = budget(totals(fine, owner))
            tau, noise = np.where(zero, fine_tau, tau), np.where(zero, fine_noise, noise)
        with np.errstate(invalid="ignore"):  # inf - inf: reported below as non-finite
            gap = np.abs(fine - coarse)
        # written as not-accepted so that a NaN gap is split, never accepted
        split = ~(gap <= np.maximum(tau[owner], REL_FLOOR * np.abs(fine)))
        # siblings sit side by side, the left half at even i
        stalled = split & (parent_gap <= gap) & (gap <= noise[owner])
        stalled_pair = stalled[0 : m - 1 : 2] & stalled[1::2]
        finite = np.isfinite(fine)
        if not finite.all() or stalled_pair.any() or (depth >= MAX_DEPTH and split.any()):
            _raise_first_failure(lo, hi, fine, finite, split, stalled_pair, parent_gap, depth, tol)
        levels.append((fine, split))
        bounds = np.stack((lo[split], mid[split], hi[split]), axis=1)
        lo, hi = bounds[:, :2].ravel(), bounds[:, 1:].ravel()
        owner = np.repeat(owner[split], 2)
        ident = np.stack((ident[:m][split], ident[m:][split]), axis=1).ravel()
        coarse = np.stack((left[split], right[split]), axis=1).ravel()
        parent_gap = np.repeat(gap[split], 2)
        tau *= 0.5
        depth += 1

    # fold the tree bottom up: a split panel's value is left + right of its
    # halves; the deepest level splits none
    below = np.empty(0)
    for value, split in reversed(levels):
        value[split] = below[0::2] + below[1::2]
        below = value
    leaves[unsettled] = below
    return np.sqrt(sphere * np.maximum(totals(leaves, coarse_owner), 0.0))


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


def scaling_check(alpha: float, beta: float, c: float, n: int) -> FitResult:
    """Fit the decay exponent of ||r^alpha e^{-c r^beta t} chi_low||_{L2(R^n)}.

    The norm concentrates at r ~ t^{-1/beta}, giving the power law
    t^{-n/(2 beta) - alpha/beta}; the returned fit carries that target.  The
    cutoff radius is 0.5, and the norm is sampled at 30 times log-spaced on
    [1e2, 1e5], each to 1e-8 * (1 + norm).
    """
    if beta <= 0.0 or c <= 0.0:
        raise ValueError(f"need beta > 0 and c > 0, got beta={beta}, c={c}")
    if 2.0 * alpha + n <= 0.0:
        raise ValueError(
            f"alpha={alpha} with n={n} gives a non-normalizable model integrand"
        )
    t_grid = np.geomspace(1e2, 1e5, 30)
    cut = CutoffSpec(0.5)

    def f(r):
        power, rate, chi = r**alpha, -c * r**beta, cut.chi_low(r)

        def stage(rows, j):
            t = t_grid[j][:, None]
            return power.take(rows, axis=0) * np.exp(rate.take(rows, axis=0) * t) * chi.take(rows, axis=0)

        return stage

    norms = l2_radial(
        RadialIntegrand(f, singularity_exponent=alpha),
        n,
        r_max=cut.eps,
        members=len(t_grid),
        tol=1e-8,
    )
    target = -0.5 * n / beta - alpha / beta
    return fit_loglog(t_grid, norms, target)
