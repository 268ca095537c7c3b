"""Spring-slider benchmark against closed-form stiffness and force values."""
from __future__ import annotations

import math

import numpy as np
import pytest

import faultmech.spring1d as spring1d
from faultmech.constitutive import FrictionLaw
from faultmech.spring1d import (
    SpringSliderConfig,
    SpringSliderError,
    analytic_min_stiffness,
    simulate,
)

MU_S = math.tan(math.radians(30.0))
MU_D = math.tan(math.radians(10.0))
K_REF = 11.0e9
N_REF = 3.0e7


def _config(kind, **kw):
    law = FrictionLaw(kind=kind, mu_static=MU_S, mu_dynamic=MU_D, dc=2.0e-3, cohesion=0.0)
    defaults = dict(law=law, stiffness=K_REF, normal_force=N_REF, d_max=8.0e-3, d_step=2.0e-6)
    defaults.update(kw)
    return SpringSliderConfig(**defaults)


def test_peak_and_residual_forces():
    res = simulate(_config("linear"))
    assert res.force.max() == pytest.approx(MU_S * N_REF, rel=1e-6)
    assert res.force.max() == pytest.approx(1.7320508e7, rel=1e-7)
    # far beyond the weakening distance the force settles on the dynamic level
    assert res.force[-1] == pytest.approx(MU_D * N_REF, rel=1e-6)
    assert res.force[-1] == pytest.approx(5.289809e6, rel=1e-6)


def test_elastic_branch_and_onset():
    res = simulate(_config("exponential"))
    d_onset = MU_S * N_REF / K_REF
    pre = res.drive < 0.999 * d_onset
    assert np.allclose(res.force[pre], K_REF * res.drive[pre], rtol=1e-12)
    assert np.all(res.slider_slip[pre] == 0.0)


def test_constant_law_is_elastic_perfectly_plastic():
    res = simulate(_config("constant"))
    expected = np.minimum(K_REF * res.drive, MU_S * N_REF)
    assert np.allclose(res.force, expected, rtol=1e-10)


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("linear", -1.3274e10),
        ("exponential", -1.3274e10),
        ("arctan", -5.8746e9),
    ],
)
def test_analytic_min_stiffness_reference_values(kind, expected):
    law = FrictionLaw(kind=kind, mu_static=MU_S, mu_dynamic=MU_D, dc=2.0e-3, cohesion=0.0)
    kbar = analytic_min_stiffness(law, K_REF, N_REF)
    assert kbar == pytest.approx(expected, rel=1e-4)


def test_analytic_min_stiffness_formula():
    law = FrictionLaw(kind="arctan", mu_static=MU_S, mu_dynamic=MU_D, dc=2.0e-3, cohesion=0.0)
    slope0 = -(2.0 / math.pi) * (MU_S - MU_D) / law.dc
    expected = slope0 * N_REF * K_REF / (K_REF + slope0 * N_REF)
    assert analytic_min_stiffness(law, K_REF, N_REF) == pytest.approx(expected, rel=1e-14)


def test_constant_law_min_stiffness_is_zero():
    law = FrictionLaw(kind="constant", mu_static=MU_S, mu_dynamic=MU_S, dc=1.0, cohesion=0.0)
    assert analytic_min_stiffness(law, K_REF, N_REF) == 0.0


def test_softer_spring_returns_unbounded_tangent():
    # |mu'(0)|*N exceeds K: displacement control can no longer follow the branch
    law = FrictionLaw(kind="linear", mu_static=MU_S, mu_dynamic=MU_D, dc=2.0e-3, cohesion=0.0)
    assert analytic_min_stiffness(law, 5.0e9, N_REF) == -math.inf


@pytest.mark.parametrize("kind", ["linear", "exponential", "arctan"])
def test_simulated_tangent_matches_analytic(kind):
    res = simulate(_config(kind))
    assert res.tangent.min() == pytest.approx(
        analytic_min_stiffness(res.config.law, K_REF, N_REF), rel=1.0e-2
    )


@pytest.mark.parametrize("kind", ["constant", "linear", "exponential", "arctan"])
def test_energy_balance(kind):
    res = simulate(_config(kind))
    work = np.sum(0.5 * (res.force[1:] + res.force[:-1]) * np.diff(res.drive))
    mu = spring1d.friction_coefficient(res.config.law, res.slider_slip)
    dissipated = np.sum(
        0.5 * (mu[1:] + mu[:-1]) * N_REF * np.diff(res.slider_slip)
    )
    elastic = res.elastic_energy[-1]
    assert work == pytest.approx(elastic + dissipated, rel=1.0e-3)


def test_snap_through_to_weakened_branch():
    # with a larger normal force the weakening branch has no stable equilibrium,
    # so the slider must jump to the residual branch at fixed drive displacement
    cfg = _config("linear", normal_force=8.0e7, d_max=12.0e-3)
    res = simulate(cfg)
    i = int(np.argmax(res.force))
    # the force right after the peak collapses to the residual level
    assert res.force[i + 1] == pytest.approx(MU_D * cfg.normal_force, rel=1e-6)
    assert res.slider_slip[i + 1] > res.config.law.dc


def test_no_equilibrium_raises(monkeypatch):
    # a corrupted coefficient so negative that g(s) > 0 over the whole scan range
    monkeypatch.setattr(
        spring1d, "friction_coefficient", lambda law, s: np.asarray(s) * 0.0 - 1.0e6
    )
    with pytest.raises(SpringSliderError):
        simulate(_config("linear"))


def test_irreversible_slip_is_monotone():
    res = simulate(_config("arctan"))
    assert np.all(np.diff(res.slider_slip) >= 0.0)


def test_elastic_energy_definition():
    res = simulate(_config("linear"))
    expected = 0.5 * K_REF * (res.drive - res.slider_slip) ** 2
    assert np.allclose(res.elastic_energy, expected, rtol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        _config("linear", d_step=-1.0)
    with pytest.raises(ValueError):
        _config("linear", stiffness=0.0)
    with pytest.raises(ValueError):
        _config("linear", d_max=1.0e-6)
