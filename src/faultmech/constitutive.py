"""Linear elasticity and rate-independent fault friction.

Stress is tension-positive throughout; compressive tractions and stresses are
negative.  Voigt vectors are ordered (xx, yy, zz, yz, xz, xy) with engineering
shear strains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ElasticMaterial",
    "FrictionLaw",
    "friction_coefficient",
    "friction_derivative",
    "stiffness_tensor",
    "tau_max",
]

FRICTION_KINDS = ("constant", "linear", "exponential", "arctan")


@dataclass(frozen=True)
class ElasticMaterial:
    """Homogeneous isotropic linear-elastic solid with a Biot coefficient."""

    name: str
    density: float
    young: float
    poisson: float
    biot: float = 1.0

    def __post_init__(self):
        if self.young <= 0.0:
            raise ValueError(f"Young modulus must be positive, got {self.young}")
        if not -1.0 < self.poisson < 0.5:
            raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {self.poisson}")
        if self.density <= 0.0:
            raise ValueError(f"density must be positive, got {self.density}")
        if not 0.0 <= self.biot <= 1.0:
            raise ValueError(f"Biot coefficient must lie in [0, 1], got {self.biot}")

    @property
    def shear_modulus(self) -> float:
        return self.young / (2.0 * (1.0 + self.poisson))

    @property
    def lame_lambda(self) -> float:
        e, nu = self.young, self.poisson
        return e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))


def stiffness_tensor(material: ElasticMaterial) -> np.ndarray:
    """Voigt 6x6 stiffness for an isotropic material."""
    lam = material.lame_lambda
    g = material.shear_modulus
    c = np.zeros((6, 6))
    c[:3, :3] = lam
    c[np.arange(3), np.arange(3)] += 2.0 * g
    c[np.arange(3, 6), np.arange(3, 6)] = g
    return c


@dataclass(frozen=True)
class FrictionLaw:
    """Coulomb friction with an optional slip-weakening coefficient.

    kind selects how the coefficient decays with accumulated slip:
      constant     mu_static for any slip
      linear       ramp from mu_static to mu_dynamic over the distance dc
      exponential  mu_dynamic + (mu_static - mu_dynamic) * exp(-slip/dc)
      arctan       mu_dynamic + (mu_static - mu_dynamic) * (1 - 2/pi*atan(slip/dc))
    """

    kind: str
    mu_static: float
    mu_dynamic: float
    dc: float
    cohesion: float = 0.0

    def __post_init__(self):
        if self.kind not in FRICTION_KINDS:
            raise ValueError(f"unknown friction kind {self.kind!r}, expected one of {FRICTION_KINDS}")
        if self.mu_static <= 0.0:
            raise ValueError("static friction coefficient must be positive")
        if self.kind != "constant":
            if self.dc <= 0.0:
                raise ValueError("weakening distance dc must be positive")
            if self.mu_dynamic > self.mu_static:
                raise ValueError("dynamic coefficient may not exceed the static one")
        if self.cohesion < 0.0:
            raise ValueError("cohesion must be non-negative")


def friction_coefficient(law: FrictionLaw, slip):
    """Friction coefficient at the given accumulated slip (array friendly)."""
    s = np.asarray(slip, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("accumulated slip must be non-negative")
    mu_s, mu_d = law.mu_static, law.mu_dynamic
    if law.kind == "constant":
        out = np.full_like(s, mu_s)
    elif law.kind == "linear":
        out = mu_s - (mu_s - mu_d) * np.minimum(s, law.dc) / law.dc
    elif law.kind == "exponential":
        out = mu_d + (mu_s - mu_d) * np.exp(-s / law.dc)
    else:  # arctan
        out = mu_d + (mu_s - mu_d) * (1.0 - (2.0 / np.pi) * np.arctan(s / law.dc))
    return out if out.ndim else float(out)


def friction_derivative(law: FrictionLaw, slip):
    """d(mu)/d(slip); right-sided value at the linear-law kink."""
    s = np.asarray(slip, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("accumulated slip must be non-negative")
    mu_s, mu_d = law.mu_static, law.mu_dynamic
    if law.kind == "constant":
        out = np.zeros_like(s)
    elif law.kind == "linear":
        out = np.where(s < law.dc, -(mu_s - mu_d) / law.dc, 0.0)
    elif law.kind == "exponential":
        out = -(mu_s - mu_d) / law.dc * np.exp(-s / law.dc)
    else:  # arctan
        out = -(mu_s - mu_d) * (2.0 / np.pi) / law.dc / (1.0 + (s / law.dc) ** 2)
    return out if out.ndim else float(out)


def tau_max(law: FrictionLaw, t_n, slip):
    """Coulomb shear strength c - t_N*mu(slip) with tensile t_N clamped out.

    t_n is the effective normal traction (negative in compression).  For
    non-negative t_n the frictional term vanishes and the strength reduces to
    the cohesion.
    """
    tn = np.asarray(t_n, dtype=float)
    mu = friction_coefficient(law, slip)
    out = law.cohesion - np.minimum(tn, 0.0) * mu
    return out if out.ndim else float(out)
