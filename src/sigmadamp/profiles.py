"""Large-time expansion profiles of the mode multipliers.

The k-th order profile pair approximates (K0, K1) for small frequencies by
the total-degree-(k-1) Taylor polynomial of the tagged multipliers in the
bookkeeping parameters (a, b), evaluated back at a = b = 1:

  * fractional weak damping (sigma1 > 0): both exponential branches matter,
    profile_A sums coefficient differences of the pos_fast/pos_slow and
    vel_slow/vel_fast jet pairs;
  * frictional damping (sigma1 = 0): the fast branch contributes only
    exponentially-in-time small terms, so profile_B keeps a single family
    per multiplier (pos_slow with flipped sign, vel_slow as is).

For k = 1 and k = 2 the same profiles exist in closed form as short sums of
c * r^p * t^h * e^{-r^q t} terms.  `golden_modal` returns those reference
sums from a hand-maintained catalog.  Cross-checking the catalog against the
jet engine exposed two slips in its original recorded form (both in the
k = 1, 2 position profiles of the fractional case); the affected terms are
stored corrected and flagged, every other term is a verbatim transcription.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jet2 import evaluate
from .kernels import kernel_jets
from .model import CaseMismatch, ModelParams, RateCase

TRANSCRIBED = "transcribed"
CORRECTED = "corrected"


class UnsupportedOrder(ValueError):
    """No closed-form reference profile is catalogued for this order."""


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
        return total if total.ndim else float(total)

    def corrected_indices(self) -> tuple[int, ...]:
        return tuple(i for i, term in enumerate(self.terms) if term.provenance == CORRECTED)


def profile_A(k: int, p: ModelParams, t: float, r):
    """Order-k profile pair (A0, A1) for the fractional case sigma1 > 0.

    A0 multiplies the initial position, A1 the initial velocity; k = 0
    returns the zero pair.  Broadcasts over r.
    """
    if p.sigma1 == 0.0:
        raise CaseMismatch("profile_A needs sigma1 > 0; use profile_B")
    if k < 0:
        raise ValueError(f"order k must be >= 0, got {k}")
    if k == 0:
        zero = np.zeros_like(np.asarray(r, dtype=float))
        return (zero, zero) if zero.ndim else (0.0, 0.0)
    jets = kernel_jets(p, t, r, k - 1)
    a0 = evaluate(jets.pos_fast, 1.0, 1.0) - evaluate(jets.pos_slow, 1.0, 1.0)
    a1 = evaluate(jets.vel_slow, 1.0, 1.0) - evaluate(jets.vel_fast, 1.0, 1.0)
    return a0, a1


def profile_B(k: int, p: ModelParams, t: float, r):
    """Order-k profile pair (B0, B1) for the frictional case sigma1 = 0.

    Only the slow-branch families enter: B0 = -(pos_slow coefficients),
    B1 = +(vel_slow coefficients); k = 0 returns the zero pair.
    """
    if p.sigma1 != 0.0:
        raise CaseMismatch("profile_B needs sigma1 = 0; use profile_A")
    if k < 0:
        raise ValueError(f"order k must be >= 0, got {k}")
    if k == 0:
        zero = np.zeros_like(np.asarray(r, dtype=float))
        return (zero, zero) if zero.ndim else (0.0, 0.0)
    jets = kernel_jets(p, t, r, k - 1)
    return -evaluate(jets.pos_slow, 1.0, 1.0), evaluate(jets.vel_slow, 1.0, 1.0)


def profile_pair(k: int, p: ModelParams, case: RateCase, t: float, r):
    """Dispatch to profile_A or profile_B by rate case."""
    if case is RateCase.POSITIVE_SIGMA1:
        return profile_A(k, p, t, r)
    return profile_B(k, p, t, r)


_NOTE_MISSING_T = (
    "time factor restored in the decay exponential; "
    "the catalog's original recorded form omitted it"
)
_NOTE_HALF_POWER = (
    "radial power fixed to 2(sigma - 2*sigma1); "
    "the catalog's original recorded form carried half that exponent"
)


def golden_modal(k: int, case: RateCase, p: ModelParams) -> tuple[ModalSum, ModalSum]:
    """Closed-form reference profiles for k in {1, 2}, as flagged term sums.

    Returns (position profile, velocity profile).  Terms flagged `corrected`
    differ from the catalog's original recorded form (see module docstring);
    all others are verbatim transcriptions.
    """
    if k not in (1, 2):
        raise UnsupportedOrder(f"closed forms are catalogued for k in {{1, 2}}, got {k}")
    if case is RateCase.POSITIVE_SIGMA1:
        if p.sigma1 == 0.0:
            raise CaseMismatch("positive_sigma1 reference forms need sigma1 > 0")
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

    if p.sigma1 != 0.0:
        raise CaseMismatch("zero_sigma1 reference forms need sigma1 = 0")
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
