"""Displacement-driven spring-slider benchmark for slip-weakening friction.

A rigid slider rests on a frictional base and is pulled through a linear
spring of stiffness K whose far end moves by a prescribed drive displacement
d.  While the spring force K*(d - s) stays below the frictional resistance
mu(s)*N the slider sticks; otherwise the slider position s advances to the
quasi-static equilibrium K*(d - s) = mu(s)*N.  Slip is irreversible, so the
accumulated slip feeding the weakening law equals s under monotone drive.

When the weakening branch is steeper than the spring can follow the local
equilibrium vanishes and the slider snaps, at fixed d, to the nearest stable
equilibrium further along the branch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .constitutive import FrictionLaw, friction_coefficient, friction_derivative

__all__ = [
    "SpringSliderConfig",
    "SpringSliderError",
    "SpringSliderResult",
    "analytic_min_stiffness",
    "simulate",
]


class SpringSliderError(RuntimeError):
    """Raised when no quasi-static equilibrium can be found."""


@dataclass(frozen=True)
class SpringSliderConfig:
    law: FrictionLaw
    stiffness: float = 11.0e9
    normal_force: float = 3.0e7
    d_max: float = 8.0e-3
    d_step: float = 2.0e-6

    def __post_init__(self):
        if self.stiffness <= 0.0:
            raise ValueError("spring stiffness must be positive")
        if self.normal_force <= 0.0:
            raise ValueError("normal force must be positive")
        if self.d_step <= 0.0:
            raise ValueError("drive increment must be positive")
        if self.d_max < 10.0 * self.d_step:
            raise ValueError("drive range must cover at least ten increments")


@dataclass
class SpringSliderResult:
    config: SpringSliderConfig
    drive: np.ndarray
    force: np.ndarray
    slider_slip: np.ndarray
    tangent: np.ndarray
    elastic_energy: np.ndarray = field(init=False)

    def __post_init__(self):
        k = self.config.stiffness
        self.elastic_energy = 0.5 * k * (self.drive - self.slider_slip) ** 2


def analytic_min_stiffness(law: FrictionLaw, stiffness: float, normal_force: float) -> float:
    """Most negative tangent dF/dd along the sliding branch.

    Chain rule on K*(d - s) = mu(s)*N gives dF/dd = mu'*N*K/(K + mu'*N).
    The expression is increasing in mu', so the minimum sits where the
    weakening slope is steepest, which for the supported laws is the onset of
    sliding.  If K + mu'(0)*N <= 0 the branch cannot be traced under
    displacement control and the tangent is unbounded (-inf).
    """
    slope0 = friction_derivative(law, 0.0)
    if slope0 == 0.0:
        return 0.0
    denom = stiffness + slope0 * normal_force
    if denom <= 0.0:
        return -np.inf
    return slope0 * normal_force * stiffness / denom


def _equilibrium_slip(cfg: SpringSliderConfig, d: float, s_prev: float) -> float:
    """First stable root of K*(d - s) - mu(s)*N = 0 with s >= s_prev.

    The residual starts non-negative at s_prev (sliding was triggered) and is
    negative at s = d, so a downward crossing exists for any admissible law;
    the first one is the nearest stable equilibrium.  Scanning a fine grid
    before root polishing keeps snap-through jumps on the stable branch.
    """
    k, n, law = cfg.stiffness, cfg.normal_force, cfg.law

    def residual(s):
        return k * (d - s) - friction_coefficient(law, s) * n

    lo = s_prev
    f_lo = residual(lo)
    if f_lo < 0.0:
        raise SpringSliderError(
            f"negative residual {f_lo:.3e} at the previous slider position; "
            "state is out of equilibrium"
        )

    # fast path: Newton from the previous position, valid while the local
    # branch is stable (K + mu'*N > 0 keeps the iteration moving forward)
    s = lo
    for _ in range(30):
        g = residual(s)
        gp = -k - friction_derivative(law, s) * n
        if gp >= 0.0:
            break
        step = g / gp
        s_new = s - step
        if s_new < lo or s_new > d:
            break
        if abs(step) < 1e-15 * max(1.0, abs(s_new)):
            return float(s_new)
        s = s_new

    # snap-through or stalled Newton: scan for the first downward crossing
    span = max(d - s_prev, 10.0 * law.dc if law.kind != "constant" else d)
    grid = np.linspace(lo, lo + span, 2048)
    vals = k * (d - grid) - friction_coefficient(law, grid) * n
    crossings = np.nonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))[0]
    if crossings.size == 0:
        raise SpringSliderError(
            f"no static equilibrium on [{lo:.6e}, {lo + span:.6e}] at drive {d:.6e}; "
            f"residual range [{vals.min():.3e}, {vals.max():.3e}]"
        )
    i = crossings[0]
    if vals[i + 1] == 0.0:
        return float(grid[i + 1])
    return float(brentq(residual, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15))


def simulate(cfg: SpringSliderConfig) -> SpringSliderResult:
    """March the drive displacement from zero and record the response."""
    n_steps = int(np.floor(cfg.d_max / cfg.d_step)) + 1
    drive = np.arange(n_steps) * cfg.d_step
    k, n = cfg.stiffness, cfg.normal_force
    # sliding starts at a known drive value; sample it exactly so the peak
    # force of the continuous response is present in the series
    d_onset = friction_coefficient(cfg.law, 0.0) * n / k
    if 0.0 < d_onset < drive[-1] and not np.any(np.isclose(drive, d_onset, rtol=0, atol=1e-18)):
        drive = np.sort(np.append(drive, d_onset))
    n_steps = drive.size
    slip = np.zeros(n_steps)
    force = np.zeros(n_steps)

    s = 0.0
    for i, d in enumerate(drive):
        trial = k * (d - s)
        strength = friction_coefficient(cfg.law, s) * n
        if trial >= strength and trial > 0.0:
            s = _equilibrium_slip(cfg, d, s)
        slip[i] = s
        force[i] = k * (d - s)

    tangent = np.empty(n_steps)
    tangent[0] = k
    tangent[1:] = np.diff(force) / np.diff(drive)
    return SpringSliderResult(config=cfg, drive=drive, force=force, slider_slip=slip, tangent=tangent)

