"""Interface state classification and Coulomb consistency checks.

Per-element interface unknowns live in the local frame as
``t = (t_n, t_t1, t_t2)`` with tension positive, so admissible contact
has ``t_n <= 0``.  Status codes partition the interface into elements
held bonded (stick), sliding at the friction capacity (slip), and
traction-free (open).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import FrictionLaw, tau_max

__all__ = [
    "DIRECTION_EPS",
    "OPEN",
    "SLIP",
    "STATUS_NAMES",
    "STICK",
    "ContactTols",
    "KKTReport",
    "classify_all",
    "kkt_report",
    "regularized_directions",
]

STICK = 0
SLIP = 1
OPEN = 2
STATUS_NAMES = ("stick", "slip", "open")

# slip increments below this are treated as directionless (meters)
DIRECTION_EPS = 1.0e-12


@dataclass(frozen=True)
class ContactTols:
    """Classification tolerances.

    tol_t scales the tensile-detection threshold by p_ref; tol_tau is the
    relative margin under the friction capacity that still counts as
    sliding; tol_gap is the absolute gap (m) below which an open element
    recloses.
    """

    tol_t: float = 1.0e-8
    tol_tau: float = 1.0e-6
    tol_gap: float = 1.0e-10
    p_ref: float = 1.0e6


def classify_all(prev_status, t_local, g_n, dg_t, slip_acc, d_ref, law: FrictionLaw,
                 tols: ContactTols):
    """Reclassify every interface element from a converged trial state.

    Parameters are per-element arrays: previous status, local traction
    (n, 3), normal gap (m), tangential slip increment over the step
    (n, 2), accumulated slip at the start of the step, and the reference
    slip direction (n, 2).  Returns the new status array.

    Rules, in order of precedence:
      * tensile normal traction opens the element;
      * an open element recloses to stick when its gap is gone;
      * a sliding element whose increment opposes the reference
        direction restsicks (unloading along the capacity surface);
      * shear at or above the (weakened) capacity slides, anything
        strictly inside sticks.
    """
    prev_status = np.asarray(prev_status)
    t_local = np.asarray(t_local, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    dg_t = np.asarray(dg_t, dtype=float)
    slip_acc = np.asarray(slip_acc, dtype=float)
    d_ref = np.asarray(d_ref, dtype=float)

    t_n = t_local[:, 0]
    tt = np.hypot(t_local[:, 1], t_local[:, 2])
    ds = np.hypot(dg_t[:, 0], dg_t[:, 1])
    cap = tau_max(law, t_n, slip_acc + ds)

    new = np.where(tt >= (1.0 - tols.tol_tau) * cap, SLIP, STICK)

    reversing = (prev_status == SLIP) & (np.einsum("ij,ij->i", dg_t, d_ref) < 0.0)
    new[reversing] = STICK

    was_open = prev_status == OPEN
    new[was_open & (g_n > tols.tol_gap)] = OPEN
    new[was_open & (g_n <= tols.tol_gap)] = STICK

    # tensile detection last: it overrides everything except a still-open gap
    new[~was_open & (t_n > -tols.tol_t * tols.p_ref)] = OPEN
    return new


def regularized_directions(dg_t, d_ref):
    """Unit slip directions, falling back to d_ref for tiny increments."""
    dg_t = np.asarray(dg_t, dtype=float)
    ds = np.hypot(dg_t[:, 0], dg_t[:, 1])
    small = ds < DIRECTION_EPS
    safe = np.where(small, 1.0, ds)
    d = dg_t / safe[:, None]
    d[small] = d_ref[small]
    return d, ds, small


@dataclass(frozen=True)
class KKTReport:
    """Worst-case contact-consistency violations over an interface set."""

    max_tn: float          # largest tensile normal traction, Pa
    min_gn: float          # most negative gap, m
    max_comp: float        # largest |t_n * g_n|, Pa m
    max_shear_excess: float      # largest ||t_t|| - capacity, Pa
    max_shear_excess_rel: float  # same, relative to the element capacity
    min_alignment: float   # worst cos(t_t, dg_t) over sliding elements

    def ok(self, tn_tol, gn_tol, comp_tol, shear_tol, align_tol):
        """Absolute thresholds: Pa, m, Pa*m, relative shear, 1 - cos."""
        return (
            self.max_tn <= tn_tol
            and self.min_gn >= -gn_tol
            and self.max_comp <= comp_tol
            and self.max_shear_excess_rel <= shear_tol
            and self.min_alignment >= 1.0 - align_tol
        )


def kkt_report(status, t_local, g_n, dg_t, slip_acc, law: FrictionLaw,
               tols: ContactTols) -> KKTReport:
    """Evaluate sign, complementarity and capacity conditions.

    Open elements carry zero traction by construction, so their
    capacity margin is not counted.  Alignment is measured only on
    sliding elements with a resolvable slip increment.
    """
    status = np.asarray(status)
    t_local = np.asarray(t_local, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    dg_t = np.asarray(dg_t, dtype=float)
    slip_acc = np.asarray(slip_acc, dtype=float)

    t_n = t_local[:, 0]
    tt = np.hypot(t_local[:, 1], t_local[:, 2])
    ds = np.hypot(dg_t[:, 0], dg_t[:, 1])
    closed = status != OPEN
    cap = tau_max(law, t_n, slip_acc + ds)

    max_tn = float(np.max(np.maximum(t_n, 0.0), initial=0.0))
    min_gn = float(np.min(g_n, initial=0.0))
    max_comp = float(np.max(np.abs(t_n * g_n), initial=0.0))
    excess = np.where(closed, tt - cap, 0.0)
    max_excess = float(np.max(excess, initial=0.0))
    rel = np.where(closed, excess / np.maximum(cap, 1.0), 0.0)
    max_excess_rel = float(np.max(rel, initial=0.0))

    sliding = (status == SLIP) & (ds > DIRECTION_EPS)
    if np.any(sliding):
        dots = np.einsum("ij,ij->i", t_local[sliding, 1:], dg_t[sliding])
        denom = tt[sliding] * ds[sliding]
        denom = np.where(denom > 0.0, denom, 1.0)
        min_align = float(np.min(dots / denom))
    else:
        min_align = 1.0

    return KKTReport(max_tn, min_gn, max_comp, max_excess, max_excess_rel, min_align)
