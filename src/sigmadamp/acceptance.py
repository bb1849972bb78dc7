"""End-to-end acceptance suites for the damped-mode package.

Each suite exercises one advertised property of the implementation on two
reference configurations (one per damping case) and reports a CheckResult.
The suites deliberately re-derive their reference values through independent
routes: raw bivariate derivative tables assembled with explicit Leibniz
products and this module's own Faa di Bruno partition sums, whose degree sums
the lab's one-variable series must reproduce; central finite differences on a
plain closed-form evaluator; five-point stencils for the defining ODE; and
closed-form modal sums for the low-order profiles.  Nothing here imports the
series engine (`jet2`), so the jet oracle never checks it against itself.

The oracle's tables hold all its draws at once, a column each, and each
column is the float a one-draw loop gives; only the lab's own series and the
finite differences are taken draw by draw.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from .experiments import (
    FIT_T_MIN,
    error_curve,
    fit_slope,
    spectral_data,
    lower_bound_band,
    high_freq_decay_check,
    order_improvement_from_curves,
)
from .fitting import geometric_grid
from .kernels import exact_multipliers, kernel_jets, root_jets
from .model import ModelParams, RateCase, case_for, eps_star, oscillation_band
from .profiles import ModalSum, golden_modal, profile_pair
from .quadrature import scaling_check

CONFIG_FRACTIONAL = ModelParams(n=3, sigma=1.0, sigma1=0.25, sigma2=0.75)
CONFIG_FRICTIONAL = ModelParams(n=1, sigma=1.0, sigma1=0.0, sigma2=0.8)

SUITES = (
    "rates_fractional",
    "rates_frictional",
    "weight_shift",
    "lower_band",
    "closed_forms",
    "jet_oracle",
    "cutoff_scaling",
    "high_frequency",
    "ode_residual",
    "order_improvement",
)

SLOPE_TOL = 0.05
SCALING_TOL = 0.02
GOLDEN_RTOL = 1e-12
ORACLE_RTOL = 1e-10
FD_RTOL = 1e-5
FD_STEP = 1e-4
RESIDUAL_TOL = 1e-6
BAND_RATIO_MAX = 10.0
HIGH_FREQ_RATIO_MAX = 1e-10
RATES_TIME_BUDGET = 120.0

_ORACLE_SEED = 20260821
_ORACLE_DRAWS = 20

_KERNEL_NAMES = ("pos_fast", "pos_slow", "vel_slow", "vel_fast")

# corrected catalog entries, by (case, k) -> component -> term indices
_EXPECTED_CORRECTIONS = {
    (RateCase.POSITIVE_SIGMA1, 1): ((1,), ()),
    (RateCase.POSITIVE_SIGMA1, 2): ((6,), ()),
    (RateCase.ZERO_SIGMA1, 1): ((), ()),
    (RateCase.ZERO_SIGMA1, 2): ((), ()),
}


@dataclass(frozen=True)
class CheckResult:
    """A suite's verdict; wall-clock time goes in seconds, not in the reported details."""

    name: str
    passed: bool
    message: str
    details: dict
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# raw bivariate derivative tables (independent of the series arithmetic)
# ---------------------------------------------------------------------------
#
# A table holds d^{j+m} f / da^j db^m at (a, b) = (0, 0) for j + m <= order:
# row table_row(j, m) (shell j + m after shell, j ascending), a column per
# draw.  Products, compositions and degree sums walk plans built per order
# on first use, one NumPy operation per term position for all rows and
# draws.  Each column is the float a one-draw nested loop gives: sums add
# their terms in the loop's order from +0.0 (never by np.sum, pairwise past
# 8 terms), a padded product term is 0 * 0 * 0 on a zero row (never
# 0 * inf), and powers and elementary functions are Python floats (libm).


def _rows(order: int) -> int:
    """Number of bi-orders (j, m) with j + m <= order: the rows of a table."""
    return (order + 1) * (order + 2) // 2


def table_row(j: int, m: int) -> int:
    """Row of the bi-order (j, m) in a table: shell j + m after shell, j ascending."""
    return _rows(j + m - 1) + j


def _table_order(rows: int) -> int:
    """Order of a table with this many rows."""
    return (math.isqrt(8 * rows + 1) - 3) // 2


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cached plan is shared by every call."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _tbl_linear(c0, ca, cb, order: int, draws: int) -> np.ndarray:
    """The table of c0 + ca a + cb b; each coefficient a number or one per draw."""
    table = np.zeros((_rows(order), draws))
    table[0] = c0
    if order >= 1:
        table[table_row(1, 0)] = ca
        table[table_row(0, 1)] = cb
    return table


@lru_cache(maxsize=None)
def _leibniz_plan(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per term position, each row's C(j, j1) C(m, m1) and the rows of its two factors.

    Row (j, m) has the terms (j1, m1), j1 outer; shorter rows are padded
    with the coefficient 0 on the zero row appended past the table.
    """
    size = _rows(order)
    terms = [
        [
            (
                math.comb(j, j1) * math.comb(d - j, m1),
                table_row(j1, m1),
                table_row(j - j1, d - j - m1),
            )
            for j1 in range(j + 1)
            for m1 in range(d - j + 1)
        ]
        for d in range(order + 1)
        for j in range(d + 1)
    ]
    width = max(len(row) for row in terms)
    padded = np.array([row + [(0, size, size)] * (width - len(row)) for row in terms])
    coeff, left, right = padded.transpose(2, 1, 0)
    return _frozen(coeff.astype(float), left, right)


def _tbl_mul(t1, t2, order: int) -> np.ndarray:
    coeff, left, right = _leibniz_plan(order)
    pad = np.zeros((1, t1.shape[1]))
    t1, t2 = np.concatenate([t1, pad]), np.concatenate([t2, pad])
    out = np.zeros((_rows(order), t1.shape[1]))
    for term in coeff[:, :, None] * t1[left] * t2[right]:
        out += term
    return out


@lru_cache(maxsize=None)
def enumerate_partitions(j: int, m: int, ell: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """All partitions of the bi-order (j, m) into ell blocks of bi-orders.

    A partition is a tuple of blocks (a, b1, b2): a positive multiplicity a
    of the bi-order (b1, b2) != (0, 0), with sum a = ell, sum a b1 = j and
    sum a b2 = m.  Within a partition the bi-orders are distinct and strictly
    increasing in lexicographic order, and the output order is deterministic.
    """
    if j < 0 or m < 0 or ell < 1 or ell > j + m:
        raise ValueError(f"need j, m >= 0 and 1 <= ell <= j + m, got ({j}, {m}, {ell})")
    pairs = [(b1, b2) for b1 in range(j + 1) for b2 in range(m + 1) if (b1, b2) != (0, 0)]
    found: list[tuple[tuple[int, int, int], ...]] = []

    def rec(start, need_l, need_j, need_m, acc):
        if need_l == 0:
            if need_j == 0 and need_m == 0:
                found.append(tuple(acc))
            return
        for i in range(start, len(pairs)):
            b1, b2 = pairs[i]
            a_max = need_l
            if b1 > 0:
                a_max = min(a_max, need_j // b1)
            if b2 > 0:
                a_max = min(a_max, need_m // b2)
            for a in range(1, a_max + 1):
                rec(i + 1, need_l - a, need_j - a * b1, need_m - a * b2, acc + [(a, b1, b2)])

    rec(0, ell, j, m, [])
    return tuple(found)


@lru_cache(maxsize=None)
def _chain_plan(order: int) -> tuple:
    """Index arrays for the partition sums of an order-`order` table.

    j! m! per row; the (row, a) pairs of the block powers; per block
    position, power and a! of the partitions that have that block; per
    member position, the partitions of the (ell, row) groups that have that
    member; each group's sorted place; and per ell its slice of groups, one
    per row of order >= ell.  Partitions and groups are sorted by falling
    length, so the ones a position reaches form a prefix.
    """
    facts = np.array(
        [math.factorial(j) * math.factorial(d - j) for d in range(order + 1) for j in range(d + 1)],
        dtype=float,
    )[:, None]
    powers: dict[tuple[int, int], int] = {}
    parts: list[list[tuple[int, int]]] = []
    groups: list[list[int]] = []
    spans = []
    for ell in range(1, order + 1):
        first = len(groups)
        for d in range(ell, order + 1):
            for j in range(d + 1):
                groups.append([])
                for part in enumerate_partitions(j, d - j, ell):
                    groups[-1].append(len(parts))
                    parts.append([
                        (powers.setdefault((table_row(b1, b2), a), len(powers)), math.factorial(a))
                        for a, b1, b2 in part
                    ])
        spans.append((first, len(groups)))
    by_blocks = sorted(range(len(parts)), key=lambda i: -len(parts[i]))
    place = {old: new for new, old in enumerate(by_blocks)}
    blocks = [
        _frozen(
            np.array([parts[i][b][0] for i in by_blocks if len(parts[i]) > b]),
            np.array([[parts[i][b][1]] for i in by_blocks if len(parts[i]) > b], dtype=float),
        )
        for b in range(max((len(part) for part in parts), default=0))
    ]
    by_members = sorted(range(len(groups)), key=lambda g: -len(groups[g]))
    members = _frozen(*(
        np.array([place[groups[g][q]] for g in by_members if len(groups[g]) > q])
        for q in range(max((len(group) for group in groups), default=0))
    ))
    unsort = np.array(sorted(range(len(groups)), key=by_members.__getitem__), dtype=int)
    facts, unsort = _frozen(facts, unsort)
    return facts, tuple(powers), len(parts), tuple(blocks), members, unsort, tuple(spans)


def faa_di_bruno_table(outer_derivs, inner_table, order: int) -> np.ndarray:
    """Raw derivatives d^{j+m} (f o g) / da^j db^m at (0, 0) for j + m <= order.

    outer_derivs[l] holds f^(l) at g(0, 0) per draw for l = 0 .. order, and
    inner_table g's table, of order `order` or more.  Each entry is its
    partition sum, walked on the plan of its order for all entries and
    draws at once; the block powers are Python floats (libm pow).
    """
    if len(outer_derivs) < order + 1:
        raise ValueError(
            f"need outer derivatives up to order {order}, got {len(outer_derivs) - 1}"
        )
    if _table_order(len(inner_table)) < order:
        raise ValueError(
            f"inner table order {_table_order(len(inner_table))} below requested bi-order {order}"
        )
    facts, pairs, n_parts, blocks, members, unsort, spans = _chain_plan(order)
    draws = inner_table.shape[1]
    scaled = (inner_table[: len(facts)] / facts).tolist()
    powers = np.array([[v**a for v in scaled[row]] for row, a in pairs]).reshape(len(pairs), draws)
    prod = np.ones((n_parts, draws))
    for power, fact in blocks:
        prod[: len(power)] = prod[: len(power)] * powers[power] / fact
    part_sums = np.zeros((len(unsort), draws))
    for member in members:
        part_sums[: len(member)] += prod[member]
    part_sums = part_sums[unsort]
    total = np.zeros((len(facts), draws))
    for ell, (first, last) in enumerate(spans, start=1):
        total[_rows(ell - 1):] += outer_derivs[ell] * part_sums[first:last]
    out = facts * total
    out[0] = outer_derivs[0]
    return out


@lru_cache(maxsize=None)
def _shell_plan(order: int) -> tuple:
    """Per j = 0 .. order, the rows (j, d - j) of the shells d >= j and their j! (d - j)!."""
    return tuple(
        _frozen(
            np.array([table_row(j, d - j) for d in range(j, order + 1)], dtype=int),
            np.array(
                [[math.factorial(j) * math.factorial(d - j)] for d in range(j, order + 1)],
                dtype=float,
            ),
        )
        for j in range(order + 1)
    )


def table_degree_sums(table) -> np.ndarray:
    """Degree-d Taylor coefficients on the diagonal a = b = eps, d = 0 .. order.

    Row d sums table[table_row(j, d - j)] / (j! (d - j)!) over j, a column
    per draw: the coefficient the lab's one-variable series must hold.  The
    terms j = 0 .. d are added in turn, not by the builtin sum, which is
    compensated from Python 3.12 on.
    """
    order = _table_order(len(table))
    sums = np.zeros((order + 1, table.shape[1]))
    for j, (rows, facts) in enumerate(_shell_plan(order)):
        sums[j:] += table[rows] / facts
    return sums


def series_table_gap(draws, tables: dict[str, np.ndarray]) -> float:
    """Worst gap between the lab's series and the degree sums of kernel_tables(draws).

    Covers the building blocks and the four pieces.  Each coefficient's gap is
    measured against the degree sum of the absolute table entries, not the
    sum itself: the shells can cancel (on sigma2 = sigma - sigma1 the degree
    d >= 1 sums of lam_slow are exactly zero), and a gap relative to a
    cancelled sum measures only roundoff.  The lab's series are built per
    draw.
    """
    order = _table_order(len(tables["gamma1"]))
    sums = {name: table_degree_sums(table).T.tolist() for name, table in tables.items()}
    scales = {name: table_degree_sums(np.abs(table)).T.tolist() for name, table in tables.items()}
    worst = 0.0
    for i, (p, t, r) in enumerate(draws):
        roots = root_jets(p, r, order)
        series = vars(roots) | vars(kernel_jets(p, t, r, order, roots.kernel_roots()))
        for name in tables:
            for coeff, want, scale in zip(series[name].tolist(), sums[name][i], scales[name][i]):
                worst = _worse(worst, abs(coeff - want) / max(scale, 1e-300))
    return worst


def _worse(worst: float, gap: float) -> float:
    # max that keeps a NaN of either side, so that it fails the suite: the builtin drops a NaN gap
    return gap if gap != gap else max(worst, gap)


def _derivs_recip(center: float, order: int) -> list[float]:
    return [
        (-1.0) ** ell * math.factorial(ell) / center ** (ell + 1)
        for ell in range(order + 1)
    ]


def _derivs_sqrt(center: float, order: int) -> list[float]:
    out = [math.sqrt(center)]
    coeff = 1.0
    for ell in range(1, order + 1):
        coeff *= 0.5 - (ell - 1)
        out.append(coeff * center ** (0.5 - ell))
    return out


def _derivs_exp_scaled(rate0: float, t: float, order: int) -> list[float]:
    base = math.exp(rate0 * t)
    return [t**ell * base for ell in range(order + 1)]


def _outer(derivs, order: int, *columns) -> np.ndarray:
    """derivs(*values, order) per draw in Python floats, stacked with the draws last."""
    return np.array([derivs(*values, order) for values in zip(*(c.tolist() for c in columns))]).T


def kernel_tables(draws, order: int = 4) -> dict[str, np.ndarray]:
    """Raw derivative tables of the tagged kernels at (a, b) = (0, 0), for all draws at once.

    `draws` is a sequence of (p, t, r); one draw is a batch of one.  Holds
    the four multiplier pieces and the building blocks gamma1, gamma2,
    g_inv, lam_slow and lam_fast, each a table of d^{j+m} f / da^j db^m:
    row table_row(j, m) for j + m <= order, a column per draw.  Built from
    scratch with Leibniz products and partition-sum compositions; shares no
    code with the series engine.
    """
    size = len(draws)
    nu = np.array([r ** (2.0 * p.sigma1) for p, _, r in draws])
    x = np.array([r ** (2.0 * (p.sigma2 - p.sigma1)) for p, _, r in draws])
    w = np.array([r ** (2.0 * (p.sigma - 2.0 * p.sigma1)) for p, _, r in draws])
    mu = nu * w
    times = np.array([t for _, t, _ in draws], dtype=float)
    one = _tbl_linear(1.0, 0.0, 0.0, order, size)

    g1 = faa_di_bruno_table(
        _outer(_derivs_recip, order, one[0]), _tbl_linear(0.0, x, 0.0, order, size), order
    )
    g1_sq = _tbl_mul(g1, g1, order)
    inside = one + -4.0 * w * _tbl_mul(_tbl_linear(0.0, 0.0, 1.0, order, size), g1_sq, order)
    g2 = faa_di_bruno_table(_outer(_derivs_sqrt, order, inside[0]), inside, order)
    g_inv = 1.0 / nu * _tbl_mul(
        g1, faa_di_bruno_table(_outer(_derivs_recip, order, g2[0]), g2, order), order
    )
    one_plus_g2 = one + g2
    lam_slow = -2.0 * mu * _tbl_mul(
        g1,
        faa_di_bruno_table(_outer(_derivs_recip, order, one_plus_g2[0]), one_plus_g2, order),
        order,
    )
    lam_fast = -0.5 * nu * _tbl_mul(_tbl_linear(1.0, x, 0.0, order, size), one_plus_g2, order)
    exp_slow = faa_di_bruno_table(
        _outer(_derivs_exp_scaled, order, lam_slow[0], times), lam_slow, order
    )
    exp_fast = faa_di_bruno_table(
        _outer(_derivs_exp_scaled, order, lam_fast[0], times), lam_fast, order
    )
    return {
        "pos_fast": _tbl_mul(_tbl_mul(g_inv, lam_slow, order), exp_fast, order),
        "pos_slow": _tbl_mul(_tbl_mul(g_inv, lam_fast, order), exp_slow, order),
        "vel_slow": _tbl_mul(g_inv, exp_slow, order),
        "vel_fast": _tbl_mul(g_inv, exp_fast, order),
        "gamma1": g1,
        "gamma2": g2,
        "g_inv": g_inv,
        "lam_slow": lam_slow,
        "lam_fast": lam_fast,
    }


def kernel_direct(p: ModelParams, t: float, r: float, a: float, b: float) -> dict[str, float]:
    """Plain closed-form values of the four tagged multipliers at (a, b)."""
    nu = r ** (2.0 * p.sigma1)
    x = r ** (2.0 * (p.sigma2 - p.sigma1))
    w = r ** (2.0 * (p.sigma - 2.0 * p.sigma1))
    mu = nu * w
    g1 = 1.0 / (1.0 + a * x)
    g2 = math.sqrt(1.0 - 4.0 * b * w * g1 * g1)
    big_g = nu * (1.0 + a * x) * g2
    lam_slow = -2.0 * mu * g1 / (1.0 + g2)
    lam_fast = -0.5 * nu * (1.0 + a * x) * (1.0 + g2)
    e_slow = math.exp(lam_slow * t)
    e_fast = math.exp(lam_fast * t)
    return {
        "pos_fast": lam_slow * e_fast / big_g,
        "pos_slow": lam_fast * e_slow / big_g,
        "vel_slow": e_slow / big_g,
        "vel_fast": e_fast / big_g,
    }


def _fd_tables(func, h: float) -> dict[str, dict[tuple[int, int], float]]:
    """Central finite differences through second order, mixed included.

    func(a, b) returns a dict of named values; it is called once per stencil
    point, and each name gets its own table.
    """
    shots = {
        (ia, ib): func(ia * h, ib * h)
        for ia in (-1, 0, 1)
        for ib in (-1, 0, 1)
    }
    tables = {}
    for name in shots[(0, 0)]:
        f = {point: values[name] for point, values in shots.items()}
        tables[name] = {
            (0, 0): f[(0, 0)],
            (1, 0): (f[(1, 0)] - f[(-1, 0)]) / (2.0 * h),
            (0, 1): (f[(0, 1)] - f[(0, -1)]) / (2.0 * h),
            (2, 0): (f[(1, 0)] - 2.0 * f[(0, 0)] + f[(-1, 0)]) / (h * h),
            (0, 2): (f[(0, 1)] - 2.0 * f[(0, 0)] + f[(0, -1)]) / (h * h),
            (1, 1): (f[(1, 1)] - f[(1, -1)] - f[(-1, 1)] + f[(-1, -1)]) / (4.0 * h * h),
        }
    return tables


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------


def golden_comparison(p: ModelParams, k: int) -> list[tuple[ModalSum, float]]:
    """(catalog sum, worst scaled gap to the jet profile) per profile component.

    The gap |profile - catalog| / (1 + |catalog|) is maximised over 20
    radii spanning [1e-3, 1] * eps_star and the times 1, 10 and 100; the
    profiles come from one call with a row per time.
    """
    times = (1.0, 10.0, 100.0)
    r_grid = np.geomspace(1e-3 * eps_star(p), eps_star(p), 20)
    golden = golden_modal(k, p)
    nodes = np.broadcast_to(r_grid, (len(times), r_grid.size))
    pair = profile_pair(k, p, case_for(p), np.array(times)[:, None], nodes)
    gaps = []
    for prof, gold in zip(pair, golden):
        ref = np.array([gold.evaluate(t, r_grid) for t in times])
        gaps.append(float(np.max(np.abs(prof - ref) / (1.0 + np.abs(ref)))))
    return list(zip(golden, gaps))


# ---------------------------------------------------------------------------
# ODE residual (five-point stencils in time)
# ---------------------------------------------------------------------------


def ode_residual_max(p: ModelParams, r_values, t_values) -> tuple[float, dict]:
    """Largest relative residual of v'' + A v' + S v = 0 over the grid, and where it is.

    Residuals are scaled by the largest of the three terms, so agreement is
    measured against the dominant balance rather than tiny absolute values.
    Each time t gets five-point stencils of step h = 1e-4 max(1, t); one
    `exact_multipliers` call evaluates every (t, step, r) node.  Ties go to
    the first worst node in (t, multiplier, r) order.
    """
    r = np.asarray(r_values, dtype=float)
    t = np.asarray(t_values, dtype=float)[:, None, None]
    a_sym = r ** (2.0 * p.sigma1) + r ** (2.0 * p.sigma2)
    s_sym = r ** (2.0 * p.sigma)
    h = 1e-4 * np.maximum(1.0, t)
    shots = t + np.array([-2.0, -1.0, 0.0, 1.0, 2.0])[:, None] * h
    # K0 and K1 on the first axis, then (t, step, r); moved to (t, multiplier, step, r)
    f = np.moveaxis(exact_multipliers(p, shots, np.broadcast_to(r, shots.shape[:2] + r.shape)), 0, 1)
    fm2, fm1, f0, f1, f2 = (f[:, :, i] for i in range(5))
    d1 = (-f2 + 8.0 * f1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-f2 + 16.0 * f1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    terms = (d2, a_sym * d1, s_sym * f0)
    num = np.abs(terms[0] + terms[1] + terms[2])
    den = np.maximum.reduce([np.abs(term) for term in terms])
    res = num / np.maximum(den, 1e-300)
    i_t, i_name, i_r = np.unravel_index(int(np.argmax(res)), res.shape)
    where = {"multiplier": ("K0", "K1")[i_name], "t": float(t[i_t, 0, 0]), "r": float(r[i_r])}
    return float(res[i_t, i_name, i_r]), where


def residual_grid(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """10 x 10 (r, t) sample grid; two radii are moved inside the band if one exists.

    The radial floor 0.4 keeps the residual denominator max(|f''|, |A f'|, |S f|)
    well above the finite-difference roundoff floor (~4e-8 |f| at step 1e-4).
    Below r ~ 0.1 all three terms shrink like r^(2*sigma) and the quotient
    measures stencil noise, not multiplier error.
    """
    band = oscillation_band(p)
    if band is None:
        r = np.geomspace(0.4, 3.0, 10)
    else:
        lo, hi = band
        inside = np.array([math.sqrt(lo * hi), 0.25 * lo + 0.75 * hi])
        r = np.sort(np.concatenate([np.geomspace(0.4, 3.0, 8), inside]))
    t = np.geomspace(0.1, 20.0, 10)
    return r, t


# ---------------------------------------------------------------------------
# the lab
# ---------------------------------------------------------------------------


class AcceptanceLab:
    """Runs the acceptance suites with a shared cache of sampled error curves.

    Every curve is sampled 25 times per decade on the fit window [1e2, 1e4],
    the only part of a curve a verdict reads, each norm to quad_tol * (1 + E).
    """

    def __init__(self, quad_tol: float = 1e-6):
        self.quad_tol = quad_tol
        # the [1e2, 1e4] tail of the [10, 1e4] grid, whose sample times the
        # reports hold; geometric_grid(1e2, 1e4, 25) differs from them in the
        # last ulp.  Each norm is refined as if it were alone, so dropping the
        # head leaves every sample's float as it was.
        grid = geometric_grid(10.0, 1e4, 25)
        self._t_grid = grid[grid >= FIT_T_MIN]
        self._curves: dict = {}

    def _timed_curve(self, p: ModelParams, k: int):
        """(gaussian-data error curve, seconds its first computation took)."""
        key = (p, k)
        if key not in self._curves:
            start = time.perf_counter()
            curve = error_curve(p, k, spectral_data("gaussian"), t_grid=self._t_grid, quad_tol=self.quad_tol)
            self._curves[key] = (curve, time.perf_counter() - start)
        return self._curves[key]

    def curve(self, p: ModelParams, k: int):
        return self._timed_curve(p, k)[0]

    def run(self, names=None) -> list[CheckResult]:
        """Run the named suites (all of SUITES by default), each by its check_<name> method."""
        if names is None:
            names = SUITES
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite names: {', '.join(unknown)}")
        return [getattr(self, f"check_{name}")() for name in names]

    # -- rate suites --------------------------------------------------------

    def _rates_check(self, name: str, p: ModelParams, orders, budget=None) -> CheckResult:
        # the budget covers computing the fitted curves, whichever suite did it
        elapsed = 0.0
        rows = []
        ok = True
        for k in orders:
            curve, seconds = self._timed_curve(p, k)
            elapsed += seconds
            fit = fit_slope(curve)
            rows.append(
                {"k": k, "slope": fit.slope, "target": fit.target, "gap": fit.gap}
            )
            ok = ok and fit.gap <= SLOPE_TOL
        details = {"fits": rows, "slope_tol": SLOPE_TOL}
        if budget is not None:
            details["time_budget_seconds"] = budget
            ok = ok and elapsed < budget
        gaps = ", ".join(f"k={row['k']}: {row['gap']:.4f}" for row in rows)
        return CheckResult(name, ok, f"slope gaps {gaps} (tol {SLOPE_TOL})", details, elapsed)

    def check_rates_fractional(self) -> CheckResult:
        return self._rates_check(
            "rates_fractional", CONFIG_FRACTIONAL, (0, 1, 2), budget=RATES_TIME_BUDGET
        )

    def check_rates_frictional(self) -> CheckResult:
        return self._rates_check("rates_frictional", CONFIG_FRICTIONAL, (1, 2))

    def check_weight_shift(self) -> CheckResult:
        """Raising s to 0.5 must steepen every fitted slope by -s/(2(sigma-sigma1)).

        The comparison is between fitted slopes at s=0.5 and s=0, not between
        either fit and its own theoretical target; the pre-asymptotic bias of
        the tail window is nearly identical for both weights and cancels in
        the difference.
        """
        base = CONFIG_FRACTIONAL
        shifted = replace(base, s=0.5)
        expected = -shifted.s / (2.0 * (base.sigma - base.sigma1))
        rows = []
        ok = True
        for k in (0, 1, 2):
            fit0 = fit_slope(self.curve(base, k))
            fit5 = fit_slope(self.curve(shifted, k))
            shift = fit5.slope - fit0.slope
            gap = abs(shift - expected)
            rows.append(
                {
                    "k": k,
                    "slope_s0": fit0.slope,
                    "slope_s05": fit5.slope,
                    "shift": shift,
                    "expected_shift": expected,
                    "gap": gap,
                }
            )
            ok = ok and gap <= SLOPE_TOL
        gaps = ", ".join(f"k={row['k']}: {row['gap']:.4f}" for row in rows)
        details = {"shifts": rows, "slope_tol": SLOPE_TOL}
        return CheckResult(
            "weight_shift", ok, f"slope-shift gaps {gaps} (tol {SLOPE_TOL})", details
        )

    # -- sharpness band ------------------------------------------------------

    def check_lower_band(self) -> CheckResult:
        rows = []
        ok = True
        for p, orders in ((CONFIG_FRACTIONAL, (0, 1, 2)), (CONFIG_FRICTIONAL, (1, 2))):
            for k in orders:
                curve = self.curve(p, k)
                lo, hi = lower_bound_band(curve)
                ratio = hi / lo if lo > 0.0 else math.inf
                rows.append(
                    {
                        "case": curve.case.value,
                        "k": k,
                        "band_min": lo,
                        "band_max": hi,
                        "ratio": ratio,
                    }
                )
                ok = ok and lo > 0.0 and ratio <= BAND_RATIO_MAX
        worst = reduce(_worse, [row["ratio"] for row in rows])
        return CheckResult(
            "lower_band",
            ok,
            f"worst compensated-band ratio {worst:.3f} (max {BAND_RATIO_MAX})",
            {"bands": rows, "ratio_max": BAND_RATIO_MAX},
        )

    # -- closed-form catalog --------------------------------------------------

    def check_closed_forms(self) -> CheckResult:
        rows = []
        ok = True
        for p in (CONFIG_FRACTIONAL, CONFIG_FRICTIONAL):
            case = case_for(p)
            for k in (1, 2):
                (golden0, gap0), (golden1, gap1) = golden_comparison(p, k)
                flags = (golden0.corrected_indices(), golden1.corrected_indices())
                flags_ok = flags == _EXPECTED_CORRECTIONS[(case, k)]
                max_gap = _worse(gap0, gap1)
                rows.append(
                    {
                        "case": case.value,
                        "k": k,
                        "max_scaled_gap": max_gap,
                        "corrected_indices": [list(flags[0]), list(flags[1])],
                        "flags_ok": flags_ok,
                    }
                )
                ok = ok and flags_ok and max_gap <= GOLDEN_RTOL
        worst = reduce(_worse, [row["max_scaled_gap"] for row in rows])
        flags_note = "as documented" if all(row["flags_ok"] for row in rows) else "UNEXPECTED"
        return CheckResult(
            "closed_forms",
            ok,
            f"worst scaled gap to catalog {worst:.3e} (tol {GOLDEN_RTOL:g}), "
            f"correction flags {flags_note}",
            {"comparisons": rows, "rtol": GOLDEN_RTOL},
        )

    # -- jet oracle -----------------------------------------------------------

    def check_jet_oracle(self) -> CheckResult:
        rng = np.random.default_rng(_ORACLE_SEED)
        draws = []
        for _ in range(_ORACLE_DRAWS):
            sigma = float(rng.uniform(1.0, 1.6))
            sigma1 = float(rng.uniform(0.08, 0.35) * sigma)
            sigma2 = float(rng.uniform(0.6, 1.0) * sigma)
            p = ModelParams(n=5, sigma=sigma, sigma1=sigma1, sigma2=sigma2)
            t = float(rng.uniform(0.2, 3.0))
            r = float(rng.uniform(0.6, 1.4))
            draws.append((p, t, r))

        tables = kernel_tables(draws, order=4)
        worst_table = series_table_gap(draws, tables)
        worst_fd = 0.0
        for i, (p, t, r) in enumerate(draws):
            fd = _fd_tables(lambda a, b: kernel_direct(p, t, r, a, b), FD_STEP)
            for name in _KERNEL_NAMES:
                column = tables[name][:, i].tolist()
                for (j, m), fd_value in fd[name].items():
                    worst_fd = _worse(worst_fd, _rel_gap(column[table_row(j, m)], fd_value))
        ok = worst_table <= ORACLE_RTOL and worst_fd <= FD_RTOL
        return CheckResult(
            "jet_oracle",
            ok,
            f"worst gap to derivative tables {worst_table:.3e} (tol {ORACLE_RTOL:g}), "
            f"to finite differences {worst_fd:.3e} (tol {FD_RTOL:g})",
            {
                "draws": _ORACLE_DRAWS,
                "table_gap": worst_table,
                "table_rtol": ORACLE_RTOL,
                "fd_gap": worst_fd,
                "fd_rtol": FD_RTOL,
            },
        )

    # -- cutoff scaling ---------------------------------------------------------

    def check_cutoff_scaling(self) -> CheckResult:
        triples = [
            (0.0, 2.0, 1.0, 1, -0.25),
            (1.0, 2.0, 1.0, 3, -1.25),
            (-0.4, 1.0, 2.0, 1, -0.1),
        ]
        rows = []
        ok = True
        for alpha, beta, c, n, expected in triples:
            fit = scaling_check(alpha, beta, c, n)
            rows.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "c": c,
                    "n": n,
                    "slope": fit.slope,
                    "target": fit.target,
                    "gap": fit.gap,
                }
            )
            ok = ok and abs(fit.target - expected) < 1e-12 and fit.gap <= SCALING_TOL
        worst = reduce(_worse, [row["gap"] for row in rows])
        return CheckResult(
            "cutoff_scaling",
            ok,
            f"worst scaling-slope gap {worst:.4f} (tol {SCALING_TOL})",
            {"fits": rows, "slope_tol": SCALING_TOL},
        )

    # -- high-frequency remainder -------------------------------------------------

    def check_high_frequency(self) -> CheckResult:
        rows = []
        ok = True
        for p in (CONFIG_FRACTIONAL, CONFIG_FRICTIONAL):
            report = high_freq_decay_check(p, spectral_data("gaussian"))
            rows.append(
                {
                    "sigma1": p.sigma1,
                    "rate": report.rate,
                    "cutoff_radius": report.cutoff_radius,
                    "ratio": report.ratio,
                }
            )
            ok = ok and report.rate > 0.0 and report.ratio < HIGH_FREQ_RATIO_MAX
        worst = reduce(_worse, [row["ratio"] for row in rows])
        return CheckResult(
            "high_frequency",
            ok,
            f"worst H(50)/H(1) ratio {worst:.3e} (max {HIGH_FREQ_RATIO_MAX:g})",
            {"reports": rows, "ratio_max": HIGH_FREQ_RATIO_MAX},
        )

    # -- ODE residual ---------------------------------------------------------------

    def check_ode_residual(self) -> CheckResult:
        rows = []
        ok = True
        for p in (CONFIG_FRACTIONAL, CONFIG_FRICTIONAL):
            r_vals, t_vals = residual_grid(p)
            worst, where = ode_residual_max(p, r_vals, t_vals)
            band = oscillation_band(p)
            rows.append(
                {
                    "sigma1": p.sigma1,
                    "max_residual": worst,
                    "at": where,
                    "band": list(band) if band else None,
                }
            )
            ok = ok and worst < RESIDUAL_TOL
        worst = reduce(_worse, [row["max_residual"] for row in rows])
        return CheckResult(
            "ode_residual",
            ok,
            f"worst relative ODE residual {worst:.3e} (tol {RESIDUAL_TOL:g})",
            {"grids": rows, "residual_tol": RESIDUAL_TOL},
        )

    # -- order improvement --------------------------------------------------------------

    def check_order_improvement(self) -> CheckResult:
        rows = []
        ok = True
        for p in (CONFIG_FRACTIONAL, CONFIG_FRICTIONAL):
            at_boundary = p.sigma1 + p.sigma2 == p.sigma
            for k in (0, 1):
                lower = self.curve(p, k)
                higher = self.curve(p, k + 1)
                fit = order_improvement_from_curves(lower, higher)
                rows.append(
                    {
                        "case": lower.case.value,
                        "k": k,
                        "slope": fit.slope,
                        "target": fit.target,
                        "gap": fit.gap,
                        "delta_branch_boundary": at_boundary,
                    }
                )
                ok = ok and fit.gap <= SLOPE_TOL
        worst = reduce(_worse, [row["gap"] for row in rows])
        return CheckResult(
            "order_improvement",
            ok,
            f"worst per-order gain gap {worst:.4f} (tol {SLOPE_TOL})",
            {"fits": rows, "slope_tol": SLOPE_TOL},
        )
