"""Radial quadrature: frozen norms, batched refinement, cutoff algebra, scaling exponents."""

import math
import re
import time

import numpy as np
import pytest

from sigmadamp import quadrature
from sigmadamp.quadrature import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    R_FLOOR,
    REL_FLOOR,
    CutoffSpec,
    NonConvergence,
    RadialIntegrand,
    l2_radial,
    scaling_check,
    smooth_step,
    surface_area,
)

# closed forms, 30-digit arithmetic, rounded to double
GAUSS_N1 = 1.1195151349202476  # (pi/2)^{1/4}
BALL_N3 = 2.046653415892977  # sqrt(4 pi / 3)
GAUSS2_N3 = 0.83429071647955156  # pi^{3/4} / (2 sqrt 2)
SQRT_2PI = 2.5066282746310002


def same_function(f):
    """The family integrand whose every member is the radial function f."""

    def radial(r):
        values = f(r)
        return lambda rows, j: values[rows]

    return radial


def single_norm(f, n, r_max, tol=1e-8):
    """The norm of the radial function f over the ball of radius r_max: a family of one."""
    if isinstance(f, RadialIntegrand):
        f = RadialIntegrand(same_function(f.func), f.singularity_exponent)
    else:
        f = same_function(f)
    (norm,) = l2_radial(f, n, np.array([r_max]), tol)
    return float(norm)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, 2.0),
        (2, 6.2831853071795865),
        (3, 12.566370614359173),
        (4, 19.739208802178717),
    ],
)
def test_surface_area_small_dimensions(n, expected):
    assert surface_area(n) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("bad", [0, -2, 2.5, "3"])
def test_surface_area_rejects_bad_dimension(bad):
    with pytest.raises(ValueError):
        surface_area(bad)


def test_gaussian_norm_line():
    got = single_norm(lambda r: np.exp(-(r**2)), n=1, r_max=8.0, tol=1e-10)
    assert got == pytest.approx(GAUSS_N1, rel=1e-9)


def test_indicator_ball_norm():
    got = single_norm(lambda r: np.ones_like(r), n=3, r_max=1.0, tol=1e-10)
    assert got == pytest.approx(BALL_N3, rel=1e-9)


def test_sharp_gaussian_norm_space():
    got = single_norm(lambda r: np.exp(-2.0 * r**2), n=3, r_max=8.0, tol=1e-10)
    assert got == pytest.approx(GAUSS2_N3, rel=1e-9)


def test_zero_integrand():
    assert single_norm(lambda r: np.zeros_like(r), n=3, r_max=5.0) == 0.0


def test_integrable_singularity_resolved():
    # f = r^{-1/2} in R^3: squared integrand r, exact norm r_max sqrt(2 pi)
    f = RadialIntegrand(lambda r: r**-0.5, singularity_exponent=-0.5)
    got = single_norm(f, n=3, r_max=1.0, tol=1e-10)
    assert got == pytest.approx(SQRT_2PI, rel=1e-8)


@pytest.mark.parametrize("exponent,n", [(-1.5, 3), (-2.0, 3), (-0.5, 1)])
def test_non_integrable_singularity_rejected(exponent, n):
    f = RadialIntegrand(lambda r: r**exponent, singularity_exponent=exponent)
    with pytest.raises(ValueError, match="makes the squared integrand non-integrable"):
        single_norm(f, n=n, r_max=1.0)


def test_refinement_depth_cap():
    # undefined values can never meet the agreement test, so the refinement
    # must stop (at the first non-finite panel) instead of refining forever
    f = lambda r: np.where(r < 0.25, np.nan, np.exp(-r))  # noqa: E731
    with pytest.raises(NonConvergence):
        single_norm(f, n=1, r_max=1.0, tol=1e-10)


@pytest.mark.parametrize(
    "f,message",
    [
        (
            lambda r: np.where((r < 0.3) | (r > 0.7), 1.0, 0.0),
            "segment [2.968750e-01, 3.046875e-01] still off budget at depth 5",
        ),
        (
            lambda r: np.where(((r > 0.3) & (r < 0.31)) | ((r > 0.7) & (r < 0.71)), np.nan, 1.0),
            "segment [2.500000e-01, 3.750000e-01] has non-finite value nan at depth 1",
        ),
    ],
    ids=["depth_cap", "non_finite"],
)
def test_failure_names_the_first_offending_panel(monkeypatch, f, message):
    # a level is tested as a whole, but the panel reported is the first one a
    # panel-by-panel scan meets: the one at 0.3, not the one at 0.7
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 5)
    with pytest.raises(NonConvergence, match=re.escape(message)):
        single_norm(f, n=1, r_max=1.0, tol=1e-10)


class CountingIntegrand:
    """Records the radii of every call to the wrapped radial function."""

    def __init__(self, func):
        self.func = func
        self.calls = []

    def __call__(self, r):
        self.calls.append(np.array(r))
        return self.func(r)


def test_one_integrand_call_per_refinement_level():
    f = CountingIntegrand(lambda r: np.exp(-(r**2)))
    got = single_norm(f, n=1, r_max=8.0, tol=1e-10)
    assert got == pytest.approx(GAUSS_N1, rel=1e-9)
    # the coarse pass over all ladder segments, then one level accepting them all
    assert len(f.calls) == 2
    assert f.calls[1].size == 2 * f.calls[0].size


def test_step_refines_one_path_one_call_per_level():
    f = CountingIntegrand(lambda r: np.where(r < 0.3, 1.0, 0.0))
    got = single_norm(f, n=1, r_max=1.0, tol=1e-10)
    assert got == pytest.approx(math.sqrt(0.6), rel=1e-9)
    sizes = [c.size for c in f.calls]
    # f vanishes on the top segment [0.5, 1], which settles: it is not halved
    assert sizes[1] == 2 * (sizes[0] - len(GAUSS_NODES))
    assert f.calls[1].max() < 0.5
    # past level 0 only the panel holding the jump is split, so each call
    # evaluates the halves of its two children: 2 x 2 x 15 nodes
    assert sizes[2:] == [60] * (len(sizes) - 2)
    # call i spans the panel split at depth i - 2 inside the segment [0.25, 0.5];
    # checked while that panel is still much wider than the spacing of doubles
    for i in range(2, 40):
        span = f.calls[i].max() - f.calls[i].min()
        assert round(math.log2(0.25 / span)) == i - 2
    deepest = len(sizes) - 2
    assert deepest > 45


def squared_integrand(f, n):
    """g = f^2 r^{n-1}, the function l2_radial integrates for the norm of f."""

    def g(r):
        values = np.asarray(f(r), dtype=float)
        return values * values * r ** (n - 1)

    return g


def reference_panel(g, lo, hi):
    """The reduction of _panels, one row at a time."""
    half = 0.5 * (hi - lo)
    return half * float((g(0.5 * (hi + lo) + half * GAUSS_NODES) * GAUSS_WEIGHTS).sum())


def left_to_right(values):
    """The sum l2_radial's member totals give: no compensated sum."""
    total = 0.0
    for value in values:
        total += value
    return total


def depth_first_norm(f, n, r_max, tol):
    """Reference: the one-panel-per-call recursion that l2_radial batches."""
    g = squared_integrand(f, n)

    def refine(lo, hi, tau, coarse):
        mid = 0.5 * (lo + hi)
        left, right = reference_panel(g, lo, mid), reference_panel(g, mid, hi)
        fine = left + right
        if abs(fine - coarse) <= max(tau, REL_FLOOR * abs(fine)):
            return fine
        return refine(lo, mid, 0.5 * tau, left) + refine(mid, hi, 0.5 * tau, right)

    bounds = [r_max]
    while bounds[-1] * 0.5 > R_FLOOR:
        bounds.append(bounds[-1] * 0.5)
    bounds.append(R_FLOOR)
    segments = list(zip(bounds[1:], bounds[:-1]))[::-1]
    coarse = [reference_panel(g, lo, hi) for lo, hi in segments]
    sphere = surface_area(n)
    coarse_total = left_to_right(coarse)
    norm0 = math.sqrt(sphere * max(coarse_total, 0.0))
    tau = 2.0 * norm0 * tol * (1.0 + norm0) / sphere / len(segments)
    # a segment holding at most its share of the total's roundoff settles on
    # its coarse value; a non-finite or zero total settles nothing
    live = math.isfinite(coarse_total) and coarse_total != 0.0
    share = REL_FLOOR * abs(coarse_total) / len(segments) if live else -1.0
    total = 0.0
    for (lo, hi), first in zip(segments, coarse):
        total += first if abs(first) <= share else refine(lo, hi, tau, first)
    return math.sqrt(sphere * max(total, 0.0))


@pytest.mark.parametrize(
    "f,n,r_max,tol",
    [
        (lambda r: np.exp(-(r**2)), 1, 8.0, 1e-10),
        (lambda r: r**-0.5, 3, 1.0, 1e-10),
        (lambda r: np.where(r < 0.3, 1.0, 0.0), 1, 1.0, 1e-10),
        (lambda r: np.abs(r - 0.37) ** 1.5, 2, 2.0, 1e-12),
        (lambda r: np.sin(60.0 * r) * np.exp(-r), 3, 10.0, 1e-13),
        (lambda r: np.exp(-4.0 * r**2), 3, 8.0, 1e-10),
    ],
    ids=["gaussian", "singular", "step", "kink", "oscillatory", "settling"],
)
def test_level_batching_matches_depth_first_bit_for_bit(f, n, r_max, tol):
    # same panels, same per-panel reductions, same summation tree: equal floats
    assert single_norm(f, n, r_max, tol) == depth_first_norm(f, n, r_max, tol)


# one radial function per member of a family: different radii and scales,
# one step that refines down to the spacing of doubles, and oscillations that
# open hundreds of panels on a level
FAMILY = (
    (lambda r: np.exp(-(r**2)), 8.0),
    (lambda r: 1e6 * np.exp(-r), 5.0),
    (lambda r: np.where(r < 0.3, 1.0, 0.0), 1.0),
    (lambda r: np.sin(60.0 * r) * np.exp(-r), 10.0),
    (lambda r: np.abs(r - 0.37) ** 1.5, 2.0),
    (lambda r: np.cos(600.0 * r), 3.0),
    (lambda r: r**-0.5, 1.0),
)


class CountingFamily:
    """A family integrand with one radial function per member, counting its stages.

    The radial stage records its radii and evaluates every member on them;
    the time stage records its node count and picks, for each member panel,
    member j's values on the panel's row of radii.
    """

    def __init__(self, members):
        self.members = members
        self.calls = []
        self.stage_sizes = []

    def __call__(self, r):
        self.calls.append(np.array(r))
        values = [f(r) for f, _ in self.members]

        def stage(rows, j):
            out = np.empty((len(rows), len(GAUSS_NODES)))
            self.stage_sizes.append(out.size)
            for i, member in enumerate(values):
                mine = j == i
                out[mine] = member[rows[mine]]
            return out

        return stage


def test_family_equals_one_call_per_member_bit_for_bit(monkeypatch):
    # calls of 256 panels, narrower than the family's widest level (about 260)
    monkeypatch.setattr(quadrature, "PANELS_PER_CALL", 256)
    family = CountingFamily(FAMILY)
    r_max = np.array([radius for _, radius in FAMILY])
    got = l2_radial(family, n=3, r_max=r_max, tol=1e-12)
    assert isinstance(got, np.ndarray) and got.shape == (len(FAMILY),)
    alone = [single_norm(f, n=3, r_max=radius, tol=1e-12) for f, radius in FAMILY]
    assert np.array_equal(got, alone)
    # levels wider than one call are evaluated in radial blocks and time
    # chunks of PANELS_PER_CALL panels
    per_call = quadrature.PANELS_PER_CALL * len(GAUSS_NODES)
    for sizes in ([c.size for c in family.calls], family.stage_sizes):
        assert max(sizes) == per_call
        assert all(size % len(GAUSS_NODES) == 0 and size <= per_call for size in sizes)
        # the step member alone refines about 50 levels, the others far fewer
        assert len(sizes) > 50


def test_shared_panels_are_evaluated_radially_once():
    # forty members on one radius share the panels of their ladder: the
    # radial stage sees each panel once however many members it serves, and
    # each member still gets the norm, and evaluates the nodes, it gets alone
    scales = np.linspace(1.0, 3.0, 40)
    blocks, served, member_nodes = [], [], np.zeros(len(scales), dtype=int)

    def radial(r):
        blocks.append(r)
        served.append(np.zeros(len(r), dtype=bool))
        square = r * r

        def stage(rows, j, block=served[-1]):
            block[rows] = True
            np.add.at(member_nodes, j, len(GAUSS_NODES))
            return np.exp(-square.take(rows, axis=0) * scales[j][:, None])

        return stage

    got = l2_radial(radial, n=2, r_max=np.full(len(scales), 6.0), tol=1e-12)
    alone, alone_nodes = [], []
    for a in scales:
        f = CountingIntegrand(lambda r, a=a: np.exp(-(r * r) * a))
        alone.append(single_norm(f, n=2, r_max=6.0, tol=1e-12))
        alone_nodes.append(sum(c.size for c in f.calls))
    assert np.array_equal(got, alone)
    assert member_nodes.tolist() == alone_nodes
    # no panel twice, across levels too: a depth-d panel of the ladder lies
    # inside its segment and has a width that no other depth gives there
    radial_rows = np.concatenate(blocks)
    assert len(np.unique(radial_rows, axis=0)) == len(radial_rows)
    # members settle different segments of the tail, but every panel the
    # radial stage sees serves at least one of them
    assert all(block.all() for block in served)
    assert sum(member_nodes) > 2 * radial_rows.size


def test_radii_a_power_of_two_apart_share_their_ladder():
    # 3, 6 and 12 share the segments below 3, while 6 and 6.5 share none;
    # each member still gets the norm it gets alone
    radii = np.array([6.0, 12.0, 3.0, 6.5, 6.0])
    blocks, member_nodes = [], []

    def radial(r):
        blocks.append(r)
        square = r * r

        def stage(rows, j):
            member_nodes.append(len(rows) * len(GAUSS_NODES))
            return 1.0 / (1.0 + square.take(rows, axis=0))

        return stage

    got = l2_radial(radial, n=2, r_max=radii, tol=1e-12)
    alone = [single_norm(lambda r: 1.0 / (1.0 + r * r), n=2, r_max=x, tol=1e-12) for x in radii]
    assert np.array_equal(got, alone)
    radial_rows = np.concatenate(blocks)
    assert len(np.unique(radial_rows, axis=0)) == len(radial_rows)
    assert 2 * radial_rows.size < sum(member_nodes)


def test_time_stage_gets_one_entry_per_member_panel(monkeypatch):
    # the radial stage gets its block's radii as one row of 15 nodes per
    # panel; the time stage gets one entry per member panel, the panel's row
    # in the block and its member, and returns the panel's nodes as one row.
    # Its entries are the panels each member evaluates alone, and chunks of
    # 7 panels cut the blocks and the chunks of a level
    monkeypatch.setattr(quadrature, "PANELS_PER_CALL", 7)
    scales = np.array([1.0, 2.0, 3.0, 1.0])
    r_max = np.array([6.0, 6.0, 3.0, 2.5])
    blocks, entries = [], [[] for _ in scales]

    def radial(r):
        blocks.append(r.shape)
        square = r * r

        def stage(rows, j):
            assert rows.ndim == 1 and j.shape == rows.shape and len(rows) <= 7
            assert rows.min() >= 0 and rows.max() < len(r)
            for i in np.unique(j).tolist():
                entries[i].append(r[rows[j == i]])
            return np.exp(-square.take(rows, axis=0) * scales[j][:, None])

        return stage

    got = l2_radial(radial, n=2, r_max=r_max, tol=1e-12)
    assert all(len(shape) == 2 and shape[1] == len(GAUSS_NODES) and shape[0] <= 7 for shape in blocks)
    for i, (a, radius) in enumerate(zip(scales, r_max)):
        f = CountingIntegrand(lambda r, a=a: np.exp(-(r * r) * a))
        assert got[i] == single_norm(f, n=2, r_max=radius, tol=1e-12)
        # the same panels, each once: a panel's first node names it
        mine, alone = np.concatenate(entries[i]), np.concatenate(f.calls)
        assert len(np.unique(mine[:, 0])) == len(mine)
        assert np.array_equal(mine[np.argsort(mine[:, 0])], alone[np.argsort(alone[:, 0])])


def test_one_member_family_is_the_float_call():
    # a single norm is a family of one, the float the depth-first recursion gives
    f = lambda r: np.exp(-(r**2)) * (1.0 + r) ** -0.5  # noqa: E731
    got = l2_radial(same_function(f), n=2, r_max=np.array([6.0]), tol=1e-10)
    assert got.tolist() == [depth_first_norm(f, 2, 6.0, 1e-10)]
    empty = l2_radial(same_function(f), n=2, r_max=np.array([]), tol=1e-10)
    assert isinstance(empty, np.ndarray) and empty.dtype == float and empty.shape == (0,)


# Members whose segments settle at both ends of the ladder: their squared
# integrands are below the roundoff of their totals near the origin and in
# the far tail.  8, 16 and 1 share a ladder, and so do the two members on 6,
# which differ in scale and width, so a panel one member settles can stay
# open for another.
SETTLING = (
    (lambda r: np.exp(-4.0 * r**2), 8.0),
    (lambda r: np.exp(-(r**2)), 16.0),
    (lambda r: 1e-150 * np.exp(-3.0 * r**2), 6.0),
    (lambda r: np.exp(-5.0 * r**2), 6.0),
    (lambda r: np.where(r < 0.3, 1.0, 0.0), 1.0),
)


class SettleRecorder:
    """A family integrand that records which segments each member halved.

    Members are (radial function, r_max) pairs.  The time stage records the
    radius of every node past the coarse pass, per member; the coarse pass
    must fit one radial call.
    """

    def __init__(self, members):
        self.members = members
        self.r_max = np.array([radius for _, radius in members])
        self.radial_calls = []
        self.member_radii = [[] for _ in members]

    def __call__(self, r):
        self.radial_calls.append(r)
        values = np.stack([f(r) for f, _ in self.members])
        past_coarse = len(self.radial_calls) > 1

        def stage(rows, j):
            if past_coarse:
                for i in np.unique(j).tolist():
                    self.member_radii[i].append(r[rows[j == i]].ravel())
            return values[j, rows]

        return stage

    def segments(self, n):
        """Per member: its segments, their coarse values and which it settled."""
        out = []
        for (f, radius), radii in zip(self.members, self.member_radii):
            lo, hi = quadrature._segments(radius)
            g = squared_integrand(f, n)
            coarse = np.array([reference_panel(g, a, b) for a, b in zip(lo, hi)])
            # Gauss nodes lie inside their panels, so never on an edge
            halved = np.searchsorted(np.append(lo, hi[-1]), np.concatenate([[], *radii])) - 1
            settled = np.ones(len(lo), dtype=bool)
            settled[halved.astype(int)] = False
            out.append((lo, hi, coarse, settled))
        distinct = {(a, b) for lo, hi, _, _ in out for a, b in zip(lo.tolist(), hi.tolist())}
        assert self.radial_calls[0].size == len(GAUSS_NODES) * len(distinct)
        return out


def test_settled_segments_reach_neither_stage():
    family = SettleRecorder(SETTLING)
    l2_radial(family, n=3, r_max=family.r_max, tol=1e-10)
    members = family.segments(3)
    for lo, hi, coarse, settled in members:
        # the rule: at most REL_FLOOR / count of the coarse total, member by member
        share = REL_FLOOR * abs(left_to_right(coarse)) / len(coarse)
        assert settled.tolist() == (np.abs(coarse) <= share).tolist()
        # every member settles segments at both ends of its ladder
        assert settled[0] and settled[-1] and not settled.all()
    # a radial node past the coarse pass lies in a segment some member left open
    radii = np.concatenate(family.radial_calls[1:]).ravel()
    serves = np.zeros(radii.size, dtype=bool)
    for lo, hi, _, settled in members:
        for a, b in zip(lo[~settled], hi[~settled]):
            serves |= (a < radii) & (radii < b)
    assert serves.all()


@pytest.mark.parametrize("members,tol", [(SETTLING, 1e-10), (FAMILY, 1e-12)], ids=["settling", "family"])
def test_settled_mass_is_below_the_roundoff_of_the_total(members, tol):
    family = SettleRecorder(members)
    l2_radial(family, n=3, r_max=family.r_max, tol=tol)
    for _, _, coarse, settled in family.segments(3):
        assert left_to_right(np.abs(coarse[settled])) <= REL_FLOOR * abs(left_to_right(coarse))


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_a_non_finite_member_settles_nothing(bad):
    # an inf coarse value makes the member's total inf, and every segment
    # would hold less than inf / count of it; the total must settle nothing,
    # so the non-finite panel is found at depth 0 and named as before
    tail = lambda r: np.exp(-4.0 * r**2)  # noqa: E731
    broken = lambda r: np.where((r > 0.3) & (r < 0.4), bad, tail(r))  # noqa: E731
    family = SettleRecorder(((tail, 8.0), (broken, 6.0)))
    message = f"segment [1.875000e-01, 3.750000e-01] has non-finite value {bad} at depth 0"
    with pytest.raises(NonConvergence, match=re.escape(message)):
        l2_radial(family, n=1, r_max=family.r_max, tol=1e-10)
    (_, _, _, clean), (_, _, coarse, halved_all) = family.segments(1)
    assert clean.any() and not np.isfinite(left_to_right(coarse))
    assert not halved_all.any()


def bump(r):
    """A C-infinity bump of half-width 0.018 at 0.6743, between the coarse nodes of [0.5, 1]."""
    x = np.clip((r - 0.6743) / 0.018, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        return np.where(np.abs(x) < 1.0, np.exp(-1.0 / (1.0 - x * x)), 0.0)


def test_a_zero_coarse_total_settles_nothing(monkeypatch):
    # a bump between the coarse nodes of the top segment [0.5, 1] gives every
    # coarse value 0, and so a zero total whose share every segment is within;
    # its halves see the bump, which is refined, not settled away as 0
    assert not bump(0.75 + 0.25 * GAUSS_NODES).any()
    assert bump(0.625 + 0.125 * GAUSS_NODES).any()
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 5)
    with pytest.raises(NonConvergence, match="still off budget at depth 5"):
        single_norm(bump, n=1, r_max=1.0, tol=1e-6)


def test_a_zero_coarse_total_takes_its_budget_from_the_first_level(monkeypatch):
    # the bump's coarse total is 0, which gives no budget and no roundoff
    # floor: with both at 0 its refinement ran on to the depth cap (6,720
    # nodes to depth 12, and past 400 MB at the real cap).  Taken from the
    # first level's total, they stop it at depth 6 after 2,280 nodes; the
    # lowered cap makes a runaway fail fast here
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 12)
    nodes = []

    def counted(r):
        nodes.append(r.size)
        return bump(r)

    got = single_norm(counted, n=1, r_max=1.0, tol=1e-6)
    assert sum(nodes) <= 2500
    # 200-node Gauss-Legendre over the bump's support, 2 = surface_area(1);
    # measured 3.1e-10 relative, the norm's budget is tol * (1 + norm)
    x, w = np.polynomial.legendre.leggauss(200)
    reference = math.sqrt(2.0 * 0.018 * np.dot(w, bump(0.6743 + 0.018 * x) ** 2))
    assert abs(got - reference) <= 1e-6 * (1.0 + reference)


def test_settling_family_equals_one_call_per_member_bit_for_bit():
    family = SettleRecorder(SETTLING)
    got = l2_radial(family, n=3, r_max=family.r_max, tol=1e-10)
    alone = [single_norm(f, n=3, r_max=radius, tol=1e-10) for f, radius in SETTLING]
    assert np.array_equal(got, alone)
    # some panel is settled by one member and halved for another on its ladder
    status: dict[tuple[float, float], set[bool]] = {}
    for lo, hi, _, settled in family.segments(3):
        for a, b, done in zip(lo.tolist(), hi.tolist(), settled.tolist()):
            status.setdefault((a, b), set()).add(done)
    assert any(len(both) == 2 for both in status.values())


@pytest.mark.parametrize(
    "bad,match",
    [
        (lambda r: np.where((r > 0.3) & (r < 0.31), np.nan, 1.0), "non-finite value nan"),
        (lambda r: np.exp(-r) * (1.0 + 1e-10 * (np.modf(r * 1e13)[0] - 0.5)), "below the roundoff"),
    ],
    ids=["non_finite", "roundoff"],
)
def test_a_failing_member_fails_the_family(bad, match):
    members = ((lambda r: np.exp(-(r**2)), 8.0), (bad, 1.0), (lambda r: np.ones_like(r), 2.0))
    r_max = np.array([radius for _, radius in members])
    with pytest.raises(NonConvergence, match=match):
        l2_radial(CountingFamily(members), n=1, r_max=r_max, tol=1e-14)


def test_each_member_has_its_own_noise_floor():
    # the roundoff guard of a member scaled by 1e6 trips at its own floor, a
    # trillion times above that of the unit member beside it, which converges
    # at this tol on its own
    clean = lambda r: np.exp(-(r**2))  # noqa: E731
    noisy = lambda r: 1e6 * np.exp(-r) * (1.0 + 1e-10 * (np.modf(r * 1e13)[0] - 0.5))  # noqa: E731
    assert single_norm(clean, n=1, r_max=8.0, tol=1e-20) == pytest.approx(GAUSS_N1, rel=1e-11)
    family = CountingFamily(((clean, 8.0), (noisy, 1.0)))
    start = time.perf_counter()
    with pytest.raises(NonConvergence, match="below the roundoff"):
        l2_radial(family, n=1, r_max=np.array([8.0, 1.0]), tol=1e-20)
    assert time.perf_counter() - start < 1.0
    assert sum(c.size for c in family.calls) < 100_000
    assert sum(family.stage_sizes) < 100_000


@pytest.mark.parametrize("r_max", [[1.0, 0.0], [2.0, math.inf, 1.0], [[1.0, 2.0]]])
def test_family_radii_are_validated(r_max):
    with pytest.raises(ValueError, match="r_max"):
        l2_radial(same_function(np.ones_like), n=1, r_max=np.array(r_max), tol=1e-8)


@pytest.mark.parametrize("r_max", [1.0, np.array(1.0), np.array([[1.0, 2.0]])], ids=["float", "0-d", "2-d"])
def test_r_max_must_be_a_1d_array(r_max):
    # one calling convention: a single norm is asked for as a family of one
    with pytest.raises(ValueError, match=re.escape("r_max must be a 1-d array of member radii")):
        l2_radial(same_function(np.ones_like), n=1, r_max=r_max, tol=1e-8)


def member_totals_loop(values, first):
    """Reference: each member's values added left to right by a Python loop."""
    totals = []
    for a, b in zip(first[:-1], first[1:]):
        total = 0.0
        for v in values[a:b].tolist():
            total += v
        totals.append(total)
    return totals


def test_member_totals_add_left_to_right(rng):
    # magnitudes 40 decades apart make every summation order give its own float
    for _ in range(300):
        counts = rng.integers(1, 45, size=rng.integers(1, 77))
        first = np.concatenate(([0], np.cumsum(counts)))
        values = rng.standard_normal(first[-1]) * 10.0 ** rng.integers(-20, 20, first[-1])
        assert quadrature._member_totals(values, first).tolist() == member_totals_loop(values, first)


def test_roundoff_limited_refinement_stops():
    # 1e-10 relative noise (a deterministic function of the bits of r) sits far
    # above tol, so no panel meets its budget and every split panel's halves
    # stay off it: without the roundoff guard the open panels double per level
    f = CountingIntegrand(lambda r: np.exp(-r) * (1.0 + 1e-10 * (np.modf(r * 1e13)[0] - 0.5)))
    start = time.perf_counter()
    with pytest.raises(NonConvergence, match="below the roundoff"):
        single_norm(f, n=1, r_max=1.0, tol=1e-14)
    assert time.perf_counter() - start < 1.0
    assert sum(c.size for c in f.calls) < 100_000


@pytest.mark.parametrize(
    "r_max,tol",
    [(0.0, 1e-8), (1e-13, 1e-8), (1.0, 0.0), (1.0, -1e-9), (math.inf, 1e-8)],
)
def test_l2_radial_argument_validation(r_max, tol):
    with pytest.raises(ValueError):
        single_norm(lambda r: np.ones_like(r), n=1, r_max=r_max, tol=tol)


def test_segments_are_the_halving_ladder():
    # the ladder of segment edges equals repeated halving from r_max, bit for
    # bit, including r_max at and next to R_FLOOR * 2^k
    def halving(r_max):
        bounds = [r_max]
        while bounds[-1] * 0.5 > R_FLOOR:
            bounds.append(bounds[-1] * 0.5)
        return np.array([R_FLOOR, *bounds[::-1]])

    rng = np.random.default_rng(8)
    spread = np.exp(rng.uniform(math.log(2e-12), math.log(1e300), 500))
    at_powers = R_FLOOR * 2.0 ** np.arange(1, 100)
    nearby = [*np.nextafter(at_powers, 0.0), *np.nextafter(at_powers, np.inf)]
    for r_max in [*spread, *at_powers, *nearby, 1.5e-12, 1e308]:
        lo, hi = quadrature._segments(float(r_max))
        edges = halving(float(r_max))
        assert np.array_equal(lo, edges[:-1]) and np.array_equal(hi, edges[1:]), r_max


def test_domination_monotonicity():
    tol = 1e-9
    small = single_norm(lambda r: np.exp(-2.0 * r**2), n=2, r_max=8.0, tol=tol)
    large = single_norm(lambda r: np.exp(-(r**2)), n=2, r_max=8.0, tol=tol)
    assert small <= large * (1.0 + 2.0 * tol)


def test_l2_radial_bitwise_deterministic():
    f = lambda r: np.exp(-(r**2)) * (1.0 + r) ** -0.5  # noqa: E731
    a = single_norm(f, n=3, r_max=10.0, tol=1e-9)
    b = single_norm(f, n=3, r_max=10.0, tol=1e-9)
    assert a == b


def test_smooth_step_clamps_and_midpoint():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    # B(1/2) appears in both numerator and denominator
    assert smooth_step(0.5) == pytest.approx(0.5, abs=1e-15)


def test_smooth_step_monotone_interior():
    x = np.linspace(0.0, 1.0, 401)
    y = smooth_step(x)
    assert np.all(np.diff(y) >= 0.0)
    assert np.all((y >= 0.0) & (y <= 1.0))


def test_smooth_step_scalar_round_trip():
    out = smooth_step(0.25)
    assert isinstance(out, float)
    arr = smooth_step(np.array([0.25, 0.75]))
    assert arr.shape == (2,)


def test_cutoff_partition_of_unity():
    cut = CutoffSpec(eps=0.5)
    r = np.geomspace(1e-6, 10.0, 500)
    assert np.all(cut.chi_low(r) + cut.chi_high(r) == 1.0)


def test_cutoff_plateaus_and_transition():
    cut = CutoffSpec(eps=0.5)
    inner = np.linspace(0.0, 0.25, 50)
    outer = np.linspace(0.5, 3.0, 50)
    assert np.all(cut.chi_low(inner) == 1.0)
    assert np.all(cut.chi_low(outer) == 0.0)
    ramp = cut.chi_low(np.linspace(0.25, 0.5, 200))
    assert np.all(np.diff(ramp) <= 0.0)


def test_cutoff_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        CutoffSpec(eps=0.0)
    with pytest.raises(ValueError):
        CutoffSpec(eps=-1.0)


@pytest.mark.parametrize(
    "alpha,beta,c,n,target",
    [
        (0.0, 2.0, 1.0, 1, -0.25),
        (1.0, 2.0, 1.0, 3, -1.25),
        (-0.4, 1.0, 2.0, 1, -0.1),
    ],
)
def test_scaling_check_matches_power_law(alpha, beta, c, n, target):
    fit = scaling_check(alpha, beta, c, n)
    assert fit.target == pytest.approx(target, rel=1e-15)
    assert abs(fit.slope - target) <= 0.02


def test_scaling_check_rejects_non_normalizable():
    with pytest.raises(ValueError, match="non-normalizable model integrand"):
        scaling_check(-0.5, 2.0, 1.0, 1)
    with pytest.raises(ValueError, match="need beta > 0 and c > 0"):
        scaling_check(0.0, 0.0, 1.0, 1)
