"""Material model checks against closed-form elasticity and friction values."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultmech.constitutive import (
    ElasticMaterial,
    FrictionLaw,
    friction_coefficient,
    friction_derivative,
    stiffness_tensor,
    tau_max,
)

MU_S = math.tan(math.radians(30.0))
MU_D = math.tan(math.radians(10.0))


def _law(kind, dc=2.0e-3, cohesion=2.0e6):
    return FrictionLaw(kind=kind, mu_static=MU_S, mu_dynamic=MU_D, dc=dc, cohesion=cohesion)


def test_friction_angle_coefficients():
    assert MU_S == pytest.approx(0.5773502691896258, rel=1e-12)
    assert MU_D == pytest.approx(0.1763269807084650, rel=1e-12)


def test_constant_law_ignores_slip():
    law = _law("constant")
    for slip in (0.0, 1.0e-3, 5.0):
        assert friction_coefficient(law, slip) == pytest.approx(MU_S, rel=1e-14)
        assert friction_derivative(law, slip) == 0.0


def test_linear_law_endpoint_values():
    law = _law("linear")
    assert friction_coefficient(law, 0.0) == pytest.approx(MU_S, rel=1e-14)
    # at the critical distance the coefficient lands exactly on the dynamic value
    assert friction_coefficient(law, law.dc) == pytest.approx(MU_D, rel=1e-14)
    assert friction_coefficient(law, 10.0 * law.dc) == pytest.approx(MU_D, rel=1e-14)
    # slope of the weakening branch: -(mu_s - mu_d)/dc
    expected_slope = -(MU_S - MU_D) / law.dc
    assert expected_slope == pytest.approx(-200.5116442405804, rel=1e-10)
    assert friction_derivative(law, 0.5 * law.dc) == pytest.approx(expected_slope, rel=1e-12)
    # right-sided derivative at the kink is the flat branch
    assert friction_derivative(law, law.dc) == 0.0


def test_exponential_law_values():
    law = _law("exponential")
    assert friction_coefficient(law, 0.0) == pytest.approx(MU_S, rel=1e-14)
    expected = MU_D + (MU_S - MU_D) * math.exp(-1.0)
    assert expected == pytest.approx(0.3238552, abs=5e-8)
    assert friction_coefficient(law, law.dc) == pytest.approx(expected, rel=1e-12)
    assert friction_derivative(law, 0.0) == pytest.approx(-(MU_S - MU_D) / law.dc, rel=1e-12)


def test_arctan_law_values():
    law = _law("arctan")
    assert friction_coefficient(law, 0.0) == pytest.approx(MU_S, rel=1e-14)
    expected = MU_D + (MU_S - MU_D) * (1.0 - 2.0 / math.pi * math.atan(1.0))
    assert expected == pytest.approx(0.3768386, abs=5e-8)
    assert friction_coefficient(law, law.dc) == pytest.approx(expected, rel=1e-12)
    slope0 = -(2.0 / math.pi) * (MU_S - MU_D) / law.dc
    assert slope0 == pytest.approx(-127.6497, abs=5e-5)
    assert friction_derivative(law, 0.0) == pytest.approx(slope0, rel=1e-12)


@pytest.mark.parametrize("kind", ["constant", "linear", "exponential", "arctan"])
def test_coefficient_bounds_and_monotonicity(kind):
    law = _law(kind)
    slips = np.linspace(0.0, 20.0 * law.dc, 400)
    mu = friction_coefficient(law, slips)
    assert np.all(mu <= MU_S + 1e-14)
    assert np.all(mu >= MU_D - 1e-14)
    assert np.all(np.diff(mu) <= 1e-14)


@pytest.mark.parametrize("kind", ["linear", "exponential", "arctan"])
def test_derivative_matches_finite_difference(kind):
    law = _law(kind)
    # sample away from the linear-law kink at dc
    slips = np.array([0.1, 0.3, 0.7, 0.9, 1.3, 2.5, 4.0]) * law.dc
    if kind == "linear":
        slips = slips[np.abs(slips - law.dc) > 0.05 * law.dc]
    h = 1.0e-9
    for s in slips:
        fd = (friction_coefficient(law, s + h) - friction_coefficient(law, s - h)) / (2 * h)
        assert friction_derivative(law, s) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_tau_max_reference_value():
    law = _law("constant", cohesion=2.0e6)
    # c - t_N * tan(phi) with 20 MPa compression and a 30 degree angle
    assert tau_max(law, -20.0e6, 0.0) == pytest.approx(1.3547005e7, rel=1e-7)


def test_tau_max_affine_in_normal_traction():
    law = _law("arctan")
    slip = 0.5e-3
    mu = friction_coefficient(law, slip)
    tns = np.array([-5.0e6, -12.5e6, -30.0e6])
    for tn in tns:
        assert tau_max(law, tn, slip) == pytest.approx(law.cohesion - tn * mu, rel=1e-14)


def test_tau_max_clamps_tensile_normal_traction():
    law = _law("linear")
    assert tau_max(law, 4.0e6, 0.0) == pytest.approx(law.cohesion, rel=1e-14)
    assert tau_max(law, 0.0, 0.0) == pytest.approx(law.cohesion, rel=1e-14)


@given(
    tn=st.floats(min_value=-1.0e8, max_value=-1.0e3),
    slip=st.floats(min_value=0.0, max_value=0.1),
    kind=st.sampled_from(["constant", "linear", "exponential", "arctan"]),
)
@settings(max_examples=60, deadline=None)
def test_tau_max_positive_under_compression(tn, slip, kind):
    law = _law(kind)
    assert tau_max(law, tn, slip) > 0.0


def test_friction_law_validation():
    with pytest.raises(ValueError):
        FrictionLaw(kind="linear", mu_static=MU_S, mu_dynamic=MU_D, dc=0.0, cohesion=0.0)
    with pytest.raises(ValueError):
        FrictionLaw(kind="linear", mu_static=0.1, mu_dynamic=0.2, dc=1e-3, cohesion=0.0)
    with pytest.raises(ValueError):
        FrictionLaw(kind="unknown", mu_static=MU_S, mu_dynamic=MU_D, dc=1e-3, cohesion=0.0)
    # constant law may omit the weakening parameters
    law = FrictionLaw(kind="constant", mu_static=MU_S, mu_dynamic=MU_S, dc=1.0, cohesion=0.0)
    assert friction_coefficient(law, 3.0) == pytest.approx(MU_S)


# --- elasticity ---------------------------------------------------------


RESERVOIR = ElasticMaterial(name="reservoir", density=2400.0, young=11.0e9, poisson=0.15)


def test_shear_modulus_reservoir():
    assert RESERVOIR.shear_modulus == pytest.approx(4.7826087e9, rel=1e-7)


def test_stiffness_tensor_hydrostatic():
    # hydrostatic strain must produce hydrostatic stress through the bulk modulus
    c = stiffness_tensor(RESERVOIR)
    eps = np.array([1.0e-4, 1.0e-4, 1.0e-4, 0.0, 0.0, 0.0])
    sig = c @ eps
    k = RESERVOIR.young / (3.0 * (1.0 - 2.0 * RESERVOIR.poisson))
    assert sig[:3] == pytest.approx(3.0 * k * 1.0e-4 * np.ones(3), rel=1e-12)
    assert sig[3:] == pytest.approx(np.zeros(3), abs=1e-6)


def test_stiffness_tensor_against_lame_oracle():
    rng = np.random.default_rng(7)
    c = stiffness_tensor(RESERVOIR)
    lam = RESERVOIR.lame_lambda
    g = RESERVOIR.shear_modulus
    for _ in range(5):
        eps = rng.normal(size=6) * 1.0e-4
        sig = c @ eps
        # tensor-form oracle: sigma = lambda tr(eps) I + 2 G eps
        tensor = np.array(
            [
                [eps[0], 0.5 * eps[5], 0.5 * eps[4]],
                [0.5 * eps[5], eps[1], 0.5 * eps[3]],
                [0.5 * eps[4], 0.5 * eps[3], eps[2]],
            ]
        )
        sig_tensor = lam * np.trace(tensor) * np.eye(3) + 2.0 * g * tensor
        expected = np.array(
            [
                sig_tensor[0, 0],
                sig_tensor[1, 1],
                sig_tensor[2, 2],
                sig_tensor[1, 2],
                sig_tensor[0, 2],
                sig_tensor[0, 1],
            ]
        )
        assert sig == pytest.approx(expected, rel=1e-12)


def test_material_validation():
    with pytest.raises(ValueError):
        ElasticMaterial(name="bad", density=2000.0, young=-1.0, poisson=0.2)
    with pytest.raises(ValueError):
        ElasticMaterial(name="bad", density=2000.0, young=1e9, poisson=0.5)
