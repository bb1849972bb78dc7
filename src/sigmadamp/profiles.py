"""Large-time expansion profiles of the mode multipliers.

The k-th order profile pair approximates (K0, K1) for small frequencies by
the total-degree-(k-1) Taylor polynomial of the tagged multipliers in the
bookkeeping parameters (a, b), evaluated back at a = b = 1.  That value is
the sum of the first k coefficients of the one-variable series on the
diagonal a = b = eps.  `profile_pair` reads only those sums, so its radial
stage, `profile_roots`, is `RootJets.summed_kernel_roots`: per power of t,
one row that already holds the sum of the degree rows (`check_order` refuses
the orders whose stage overflows).  Its time stage is then one
`kernels.kernel_jets` pass, O(k) work per node, and it combines the pieces by
the damping case that sigma1 fixes:

  * fractional weak damping (sigma1 > 0): both exponential branches matter,
    so it sums the series of the pos_fast/pos_slow and vel_slow/vel_fast
    pairs and takes their differences;
  * frictional damping (sigma1 = 0): the fast branch contributes only
    exponentially-in-time small terms, so it keeps a single family per
    multiplier (pos_slow with flipped sign, vel_slow as is), and its stage
    holds the slow branch alone.

For k = 1 and k = 2 the same profiles exist in closed form as short sums of
c * r^p * t^h * e^{-r^q t} terms.  `golden_modal` returns those reference
sums from a hand-maintained catalog.  Cross-checking the catalog against the
series exposed two slips in its original recorded form (both in the
k = 1, 2 position profiles of the fractional case); the affected terms are
stored corrected and flagged, every other term is a verbatim transcription.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import KernelRoots, kernel_jets, root_jets
from .model import ModelError, ModelParams, RateCase, case_for, error_radius

MAX_PROFILE_ORDER = 3

TRANSCRIBED = "transcribed"
CORRECTED = "corrected"


@dataclass(frozen=True)
class ModalTerm:
    """One closed-form term coef * r^r_power * t^t_power * e^{-r^decay_power t}."""

    coef: float
    r_power: float
    t_power: int
    decay_power: float
    provenance: str = TRANSCRIBED
    note: str = ""


@dataclass(frozen=True)
class ModalSum:
    """Finite sum of modal terms; evaluation broadcasts over r."""

    terms: tuple[ModalTerm, ...]

    def evaluate(self, t: float, r):
        r = np.asarray(r, dtype=float)
        total = np.zeros_like(r)
        for term in self.terms:
            total = total + (
                term.coef
                * r**term.r_power
                * float(t) ** term.t_power
                * np.exp(-(r**term.decay_power) * t)
            )
        return total

    def corrected_indices(self) -> tuple[int, ...]:
        return tuple(i for i, term in enumerate(self.terms) if term.provenance == CORRECTED)


def profile_roots(p: ModelParams, r, k: int) -> KernelRoots:
    """The radial stage of an order-k >= 1 profile at the radii r.

    It is the summed stage of `root_jets(p, r, k - 1)`, built on the slow branch alone at sigma1 = 0.
    """
    branches = 1 if case_for(p) is RateCase.ZERO_SIGMA1 else 2
    return root_jets(p, r, k - 1).summed_kernel_roots(branches)


@functools.cache
def check_order(p: ModelParams, k: int) -> None:
    """Raise ValueError for k outside [0, MAX_PROFILE_ORDER], ModelError where its stage overflows.

    The stage is `profile_roots` at `model.error_radius`, whose degree d grows
    like r^{2(sigma-sigma1)} max(x, w)^d.  A pass is kept for the process:
    `curve` checks every order up front, `experiments.error_curve` its own.
    """
    if not 0 <= k <= MAX_PROFILE_ORDER:
        raise ValueError(f"profile order must be in [0, {MAX_PROFILE_ORDER}], got {k}")
    if k == 0:
        return
    radius = error_radius(p)
    with np.errstate(all="ignore"):
        stage = profile_roots(p, np.array([radius]), k)
    if not (np.isfinite(stage.lam0).all() and np.isfinite(stage.coeffs).all()):
        raise ModelError(f"order k={k} overflows the kernel series out to radius {radius:.6g}")


def profile_pair(k: int, p: ModelParams, case: RateCase, t, r, roots: KernelRoots | None = None):
    """Order-k profile pair (P0, P1) from one `kernel_jets` pass.

    P0 multiplies the initial position, P1 the initial velocity; k = 0
    returns the zero pair.  t and r broadcast together, as in `kernel_jets`.
    roots, when given, is the stage `profile_roots(p, r, k)` at the broadcast
    nodes (as a gather of it on the distinct radii gives), and is not built
    again.  The case must be `case_for(p)`; a case that disagrees with
    sigma1 raises ModelError.
    """
    if case is not case_for(p):
        raise ModelError(f"rate case {case.value} does not match sigma1 = {p.sigma1}")
    if k < 0:
        raise ValueError(f"order k must be >= 0, got {k}")
    if k == 0:
        zero = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(r)))
        return zero, zero
    if roots is None:
        roots = profile_roots(p, np.broadcast_to(r, np.broadcast_shapes(np.shape(r), np.shape(t))), k)
    series = kernel_jets(p, t, r, k - 1, roots)
    if case is RateCase.ZERO_SIGMA1:
        return -series.pos_slow.sum(axis=0), series.vel_slow.sum(axis=0)
    return (
        series.pos_fast.sum(axis=0) - series.pos_slow.sum(axis=0),
        series.vel_slow.sum(axis=0) - series.vel_fast.sum(axis=0),
    )


_NOTE_MISSING_T = (
    "time factor restored in the decay exponential; "
    "the catalog's original recorded form omitted it"
)
_NOTE_HALF_POWER = (
    "radial power fixed to 2(sigma - 2*sigma1); "
    "the catalog's original recorded form carried half that exponent"
)


def golden_modal(k: int, p: ModelParams) -> tuple[ModalSum, ModalSum]:
    """Closed-form reference profiles for k in {1, 2}, as flagged term sums.

    The case is read off sigma1.  Returns (position profile, velocity
    profile).  Terms flagged `corrected` differ from the catalog's original
    recorded form (see module docstring); all others are verbatim
    transcriptions.
    """
    if k not in (1, 2):
        raise ValueError(f"closed forms are catalogued for k in {{1, 2}}, got {k}")
    if case_for(p) is RateCase.POSITIVE_SIGMA1:
        pn = -2.0 * p.sigma1  # velocity-family prefactor r^{-2 sigma1}
        px = 2.0 * (p.sigma2 - p.sigma1)  # strong/weak damping ratio power
        pw = 2.0 * (p.sigma - 2.0 * p.sigma1)  # restoring/weak-squared power
        qn = 2.0 * p.sigma1  # fast decay exponent
        qm = 2.0 * (p.sigma - p.sigma1)  # slow decay exponent
        if k == 1:
            comp0 = (
                ModalTerm(-1.0, pw, 0, qn),
                ModalTerm(+1.0, 0.0, 0, qm, CORRECTED, _NOTE_MISSING_T),
            )
            comp1 = (
                ModalTerm(+1.0, pn, 0, qm),
                ModalTerm(-1.0, pn, 0, qn),
            )
        else:
            comp0 = (
                ModalTerm(-1.0, pw, 0, qn),
                ModalTerm(+2.0, pw + px, 0, qn),
                ModalTerm(-3.0, 2.0 * pw, 0, qn),
                ModalTerm(+1.0, qm + px, 1, qn),
                ModalTerm(-1.0, qm + pw, 1, qn),
                ModalTerm(+1.0, 0.0, 0, qm),
                ModalTerm(+1.0, pw, 0, qm, CORRECTED, _NOTE_HALF_POWER),
                ModalTerm(+1.0, qm + px, 1, qm),
                ModalTerm(-1.0, qm + pw, 1, qm),
            )
            comp1 = (
                ModalTerm(+1.0, pn, 0, qm),
                ModalTerm(-1.0, pn + px, 0, qm),
                ModalTerm(+2.0, pn + pw, 0, qm),
                ModalTerm(+1.0, pn + qm + px, 1, qm),
                ModalTerm(-1.0, pn + qm + pw, 1, qm),
                ModalTerm(-1.0, pn, 0, qn),
                ModalTerm(+1.0, pn + px, 0, qn),
                ModalTerm(-2.0, pn + pw, 0, qn),
                ModalTerm(+1.0, px, 1, qn),
                ModalTerm(-1.0, pw, 1, qn),
            )
        return ModalSum(comp0), ModalSum(comp1)

    ts = 2.0 * p.sigma  # the single decay exponent of the frictional case
    ts2 = 2.0 * p.sigma2
    if k == 1:
        only = (ModalTerm(+1.0, 0.0, 0, ts),)
        return ModalSum(only), ModalSum(only)
    comp0 = (
        ModalTerm(+1.0, 0.0, 0, ts),
        ModalTerm(+1.0, ts, 0, ts),
        ModalTerm(+1.0, ts + ts2, 1, ts),
        ModalTerm(-1.0, 2.0 * ts, 1, ts),
    )
    comp1 = (
        ModalTerm(+1.0, 0.0, 0, ts),
        ModalTerm(-1.0, ts2, 0, ts),
        ModalTerm(+2.0, ts, 0, ts),
        ModalTerm(+1.0, ts + ts2, 1, ts),
        ModalTerm(-1.0, 2.0 * ts, 1, ts),
    )
    return ModalSum(comp0), ModalSum(comp1)
