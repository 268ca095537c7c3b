"""Stick/slip/open classification, slip directions, KKT residuals."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from faultmech.constitutive import FrictionLaw, tau_max
from faultmech.contact import (
    OPEN,
    SLIP,
    STICK,
    STATUS_NAMES,
    ContactTols,
    classify_all,
    kkt_report,
    regularized_directions,
)

MPA = 1.0e6
MU30 = math.tan(math.radians(30.0))
MU10 = math.tan(math.radians(10.0))
CONST_LAW = FrictionLaw("constant", MU30, MU30, 1.0, 2.0 * MPA)
WEAK_LAW = FrictionLaw("arctan", MU30, MU10, 0.002, 2.0 * MPA)
TOLS = ContactTols()


def _one(status, t, g_n=0.0, dg_t=(0.0, 0.0), slip_acc=0.0, d_ref=(1.0, 0.0), law=CONST_LAW):
    out = classify_all(
        np.array([status]),
        np.array([t], dtype=float),
        np.array([g_n], dtype=float),
        np.array([dg_t], dtype=float),
        np.array([slip_acc], dtype=float),
        np.array([d_ref], dtype=float),
        law,
        TOLS,
    )
    return int(out[0])


def test_status_names():
    assert STATUS_NAMES[STICK] == "stick"
    assert STATUS_NAMES[SLIP] == "slip"
    assert STATUS_NAMES[OPEN] == "open"


def test_classify_stick_inside_bound():
    assert _one(STICK, [-20.0 * MPA, 5.0 * MPA, 0.0]) == STICK


def test_classify_tensile_opens():
    assert _one(STICK, [0.1 * MPA, 0.0, 0.0]) == OPEN
    assert _one(SLIP, [0.1 * MPA, 0.0, 0.0], dg_t=(1e-3, 0.0)) == OPEN


def test_classify_on_bound_slips():
    cap = tau_max(CONST_LAW, -20.0 * MPA, 0.0)
    assert cap == pytest.approx(2.0 * MPA + 20.0 * MPA * MU30)
    assert _one(STICK, [-20.0 * MPA, cap, 0.0]) == SLIP
    assert _one(STICK, [-20.0 * MPA, cap * (1.0 - 1e-7), 0.0]) == SLIP
    assert _one(STICK, [-20.0 * MPA, cap * (1.0 - 1e-3), 0.0]) == STICK


def test_classify_weakened_bound_uses_accumulated_slip():
    # at slip_acc = dc the arctan capacity is lower; a traction between the
    # weakened and static bounds must flag slip
    cap0 = tau_max(WEAK_LAW, -20.0 * MPA, 0.0)
    capw = tau_max(WEAK_LAW, -20.0 * MPA, 0.002)
    tt = 0.5 * (capw + cap0)
    assert capw < tt < cap0
    assert _one(STICK, [-20.0 * MPA, tt, 0.0], slip_acc=0.002, law=WEAK_LAW) == SLIP
    assert _one(STICK, [-20.0 * MPA, tt, 0.0], slip_acc=0.0, law=WEAK_LAW) == STICK


def test_slip_reversal_returns_to_stick():
    cap = tau_max(CONST_LAW, -20.0 * MPA, 0.0)
    t = [-20.0 * MPA, cap, 0.0]
    assert _one(SLIP, t, dg_t=(1e-4, 0.0), d_ref=(1.0, 0.0)) == SLIP
    assert _one(SLIP, t, dg_t=(-1e-4, 0.0), d_ref=(1.0, 0.0)) == STICK


def test_open_recloses_on_contact():
    assert _one(OPEN, [0.0, 0.0, 0.0], g_n=1e-6) == OPEN
    assert _one(OPEN, [0.0, 0.0, 0.0], g_n=0.0) == STICK
    assert _one(OPEN, [0.0, 0.0, 0.0], g_n=-1e-9) == STICK


@given(
    tn=st.floats(-50.0 * MPA, -1.0 * MPA),
    frac=st.floats(0.0, 0.99),
    ang=st.floats(0.0, 2.0 * math.pi),
)
def test_classify_strictly_inside_is_stick(tn, frac, ang):
    cap = tau_max(CONST_LAW, tn, 0.0)
    tt = frac * cap * (1.0 - 2e-6)
    t = [tn, tt * math.cos(ang), tt * math.sin(ang)]
    assert _one(STICK, t) == STICK


# --- slip directions ----------------------------------------------------


def test_regularized_directions_zero_increment_uses_reference():
    dg = np.array([[0.0, 0.0], [3e-3, -4e-3]])
    d_ref = np.array([[0.0, 1.0], [1.0, 0.0]])
    d, ds, small = regularized_directions(dg, d_ref)
    # below DIRECTION_EPS the reference direction stands in for the increment
    np.testing.assert_array_equal(d[0], [0.0, 1.0])
    np.testing.assert_allclose(d[1], [0.6, -0.8], rtol=1e-12)
    np.testing.assert_allclose(ds, [0.0, 5e-3], rtol=1e-12)
    assert small.tolist() == [True, False]


# --- KKT report ---------------------------------------------------------


def test_kkt_exact_states_clean():
    status = np.array([STICK, OPEN])
    t = np.array([[-20.0 * MPA, 5.0 * MPA, 0.0], [0.0, 0.0, 0.0]])
    g_n = np.array([0.0, 1e-4])
    dg = np.zeros((2, 2))
    rep = kkt_report(status, t, g_n, dg, np.zeros(2), CONST_LAW, TOLS)
    assert rep.max_tn == 0.0
    assert rep.min_gn == 0.0
    assert rep.max_comp == 0.0
    assert rep.max_shear_excess == 0.0
    assert rep.min_alignment == 1.0
    assert rep.ok(1e-2, 1e-10, 1e-6, 1e-6, 1e-8)


def test_kkt_perturbed_slip_shear_excess():
    cap = tau_max(CONST_LAW, -20.0 * MPA, 0.0)
    status = np.array([SLIP])
    t = np.array([[-20.0 * MPA, cap * (1.0 + 1e-3), 0.0]])
    rep = kkt_report(status, t, np.zeros(1), np.array([[1e-4, 0.0]]), np.zeros(1), CONST_LAW, TOLS)
    assert rep.max_shear_excess == pytest.approx(1e-3 * cap, rel=1e-6)
    assert not rep.ok(1e-2, 1e-10, 1e-6, 1e-6, 1e-8)


def test_kkt_alignment_and_signs():
    cap = tau_max(CONST_LAW, -10.0 * MPA, 0.0)
    status = np.array([SLIP])
    ang = 1e-3  # misalignment angle
    t = np.array([[-10.0 * MPA, cap * math.cos(ang), cap * math.sin(ang)]])
    rep = kkt_report(status, t, np.zeros(1), np.array([[1e-4, 0.0]]), np.zeros(1), CONST_LAW, TOLS)
    assert rep.min_alignment == pytest.approx(math.cos(ang), abs=1e-12)
    rep2 = kkt_report(
        np.array([STICK]),
        np.array([[1.0, 0.0, 0.0]]),
        np.array([-2e-9]),
        np.zeros((1, 2)),
        np.zeros(1),
        CONST_LAW,
        TOLS,
    )
    assert rep2.max_tn == pytest.approx(1.0)
    assert rep2.min_gn == pytest.approx(-2e-9)
    assert rep2.max_comp == pytest.approx(2e-9)
