"""Conceptual two-compartment storage reservoir: a graben bounded by two
outward-dipping faults, a central dividing fault, and two strike-bounding
faults, embedded in a layered elastic medium.

Coordinates: z is elevation (surface at 0, negative downward); the graben
axis runs along y. The two reservoir blocks are down-thrown by their full
thickness relative to the laterally equivalent layer in the sideburden.

`build_conceptual_model(resolution, variant)` is the one way to build it:
the resolution sets the mesh, the variant the friction law (1 constant, 2
arctan slip weakening). Everything else is a module constant: geometry,
materials (Biot coefficient 1), initial stress, friction angles, weakening
distance and cohesion; the model carries one storage cycle and sealing
faults. The dipping bounding faults come from an odd column-shear profile
in |x|, so the mesh is exactly mirror-symmetric in x and in y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import ElasticMaterial, FrictionLaw
from .mesh import AxisSegment, DomainSpec, FaultSpec, Mesh, build_axis, build_structured_domain

__all__ = [
    "R_OVERBURDEN",
    "R_UPPER_SEAL",
    "R_LOWER_SEAL",
    "R_RESERVOIR",
    "R_UNDERBURDEN",
    "REGION_NAMES",
    "ConceptualModel",
    "InitialStress",
    "ScenarioError",
    "build_conceptual_model",
    "initial_fault_traction",
]


class ScenarioError(ValueError):
    """Raised for invalid scenario parameters."""


REGION_NAMES = ("overburden", "upper_seal", "lower_seal", "reservoir", "underburden")
R_OVERBURDEN, R_UPPER_SEAL, R_LOWER_SEAL, R_RESERVOIR, R_UNDERBURDEN = range(5)

# geometry [m]
HALF_EXTENT = 15000.0
DOMAIN_BOTTOM = -5000.0
X_BOUNDING = 2000.0  # graben half-width at the anchor depth
Y_BOUNDING = 1000.0
Z_FAULT_TOP = -1600.0
Z_FAULT_BOTTOM = -3000.0
Z_ANCHOR = -2100.0
Z_RES_TOP = -2000.0
Z_RES_BOTTOM = -2200.0
DIP_DEG = 10.0

_TAN_DIP = math.tan(math.radians(DIP_DEG))

# fault friction: variant 1 holds the static angle, variant 2 weakens by
# the arctan law from the static to the dynamic angle over DC [m]
PHI_S_DEG = 30.0
PHI_D_DEG = 10.0
DC = 0.002
COHESION = 2.0e6  # [Pa]

_MATERIALS = (
    ElasticMaterial("overburden", density=2200.0, young=10.0e9, poisson=0.25),
    ElasticMaterial("upper_seal", density=2100.0, young=35.0e9, poisson=0.30),
    ElasticMaterial("lower_seal", density=2100.0, young=20.0e9, poisson=0.30),
    ElasticMaterial("reservoir", density=2400.0, young=11.0e9, poisson=0.15),
    ElasticMaterial("underburden", density=2600.0, young=30.0e9, poisson=0.20),
)


@dataclass(frozen=True)
class InitialStress:
    """Diagonal effective pre-stress, linear in depth, anchored at the
    reservoir mid-depth; principal axes are the Cartesian axes with the
    least compressive horizontal along x."""

    sigma_h: float = -18.8e6  # along x
    sigma_H: float = -21.1e6  # along y
    sigma_v: float = -25.4e6  # along z
    anchor_z: float = Z_ANCHOR

    def tensor_at(self, z):
        z = float(z)
        if z > 0.0:
            raise ScenarioError(f"z = {z} is above the ground surface")
        scale = z / self.anchor_z
        return np.diag([self.sigma_h, self.sigma_H, self.sigma_v]) * scale


def initial_fault_traction(frame, sigma):
    """Traction of the given stress tensor on the interface, resolved in its
    local (normal, tangent1, tangent2) frame."""
    n = frame[:, 0]
    return frame.T @ (sigma @ n)


def bounding_fault_x(side: int, z):
    """x of the dipping bounding fault plane (side -1 or +1) at elevation z."""
    return side * (X_BOUNDING + _TAN_DIP * (z - Z_ANCHOR))


def _region_of(centroid):
    x, y, z = centroid
    if z > -1500.0:
        return R_OVERBURDEN
    if z > -1800.0:
        return R_UPPER_SEAL
    inside = (
        abs(y) < Y_BOUNDING
        and x > bounding_fault_x(-1, z)
        and x < bounding_fault_x(+1, z)
    )
    if inside:
        if z > Z_RES_TOP:
            return R_LOWER_SEAL
        if z > Z_RES_BOTTOM:
            return R_RESERVOIR
        return R_UNDERBURDEN
    # sideburden carries the reservoir-rock layer 200 m higher
    if z > Z_RES_TOP:
        return R_RESERVOIR
    return R_UNDERBURDEN


def _shear_profile(x):
    # odd piecewise-linear column shear: the dip value at the bounding-fault
    # traces, zero at the center and at the outer boundary; using |x| keeps
    # the profile bitwise antisymmetric so the mesh mirrors exactly
    a = float(np.interp(abs(x), [0.0, X_BOUNDING, HALF_EXTENT], [0.0, _TAN_DIP, 0.0]))
    return math.copysign(a, x) if x != 0.0 else 0.0


def _mirrored_axis(positive_segments):
    pos = build_axis(positive_segments)
    return np.concatenate([-pos[::-1][:-1], pos])


@dataclass
class ConceptualModel:
    """Everything the solver needs for one scenario run."""

    mesh: Mesh
    materials: list  # ElasticMaterial per region id, in region-id order
    law: FrictionLaw
    initial_stress: InitialStress
    t0_local: np.ndarray  # (n_interfaces, 3) initial traction, local frames
    compartments: tuple  # (cells of block A, cells of block B)
    hydraulic_modes: dict = field(default_factory=dict)  # empty: every fault sealing
    variant: int = 1
    resolution: float = 4.0
    n_cycles: int = 1


def build_conceptual_model(resolution: float = 4.0, variant: int = 1) -> ConceptualModel:
    """Build the mesh and scenario data at the given resolution factor
    (1 = reference scale, larger = coarser) for friction variant 1
    (constant) or 2 (arctan slip weakening)."""
    if resolution < 1.0:
        raise ScenarioError("resolution factor must be >= 1 (1 = reference scale)")
    if variant not in (1, 2):
        raise ScenarioError(f"variant must be 1 or 2, got {variant}")
    hx = 100.0 * resolution
    hz = 20.0 * resolution

    xs = _mirrored_axis(
        [
            AxisSegment(0.0, X_BOUNDING, "uniform", hx),
            AxisSegment(X_BOUNDING, HALF_EXTENT, "geometric", hx),
        ]
    )
    ys = _mirrored_axis(
        [
            AxisSegment(0.0, Y_BOUNDING, "uniform", hx),
            AxisSegment(Y_BOUNDING, HALF_EXTENT, "geometric", hx),
        ]
    )
    zs = build_axis(
        [
            AxisSegment(DOMAIN_BOTTOM, Z_FAULT_BOTTOM, "geometric", 5.0 * hz, grow_from="end"),
            AxisSegment(Z_FAULT_BOTTOM, Z_RES_BOTTOM, "uniform", 2.5 * hz),
            AxisSegment(Z_RES_BOTTOM, Z_RES_TOP, "uniform", hz),
            AxisSegment(Z_RES_TOP, -1800.0, "uniform", 1.25 * hz),
            AxisSegment(-1800.0, Z_FAULT_TOP, "uniform", 1.25 * hz),
            AxisSegment(Z_FAULT_TOP, -1500.0, "uniform", 1.25 * hz),
            AxisSegment(-1500.0, 0.0, "geometric", 2.5 * hz, grow_from="start"),
        ]
    )

    faults = [
        FaultSpec("F1", "x", -X_BOUNDING, -Y_BOUNDING, Y_BOUNDING, Z_FAULT_BOTTOM, Z_FAULT_TOP, -DIP_DEG),
        FaultSpec("F2", "x", X_BOUNDING, -Y_BOUNDING, Y_BOUNDING, Z_FAULT_BOTTOM, Z_FAULT_TOP, DIP_DEG),
        FaultSpec("F3", "x", 0.0, -Y_BOUNDING, Y_BOUNDING, Z_FAULT_BOTTOM, Z_FAULT_TOP, 0.0),
        FaultSpec("F4", "y", -Y_BOUNDING, -X_BOUNDING, X_BOUNDING, Z_FAULT_BOTTOM, Z_FAULT_TOP, 0.0),
        FaultSpec("F5", "y", Y_BOUNDING, -X_BOUNDING, X_BOUNDING, Z_FAULT_BOTTOM, Z_FAULT_TOP, 0.0),
    ]

    spec = DomainSpec(
        x_segments=xs,
        y_segments=ys,
        z_segments=zs,
        faults=faults,
        shear_anchor_z=Z_ANCHOR,
        region_fn=_region_of,
        shear_profile=_shear_profile,
    )
    mesh = build_structured_domain(spec)

    mu_s = math.tan(math.radians(PHI_S_DEG))
    if variant == 1:
        law = FrictionLaw("constant", mu_s, mu_s, 1.0, COHESION)
    else:
        law = FrictionLaw("arctan", mu_s, math.tan(math.radians(PHI_D_DEG)), DC, COHESION)

    stress = InitialStress()
    iset = mesh.interfaces
    t0 = np.empty((iset.count, 3))
    for i in range(iset.count):
        sigma = stress.tensor_at(iset.centroids[i][2])
        t0[i] = initial_fault_traction(iset.frames[i], sigma)

    cents = mesh.cell_centroids()
    in_res = mesh.regions == R_RESERVOIR
    in_band = (cents[:, 2] > Z_RES_BOTTOM) & (cents[:, 2] < Z_RES_TOP)
    block_a = np.flatnonzero(in_res & in_band & (cents[:, 0] < 0.0))
    block_b = np.flatnonzero(in_res & in_band & (cents[:, 0] > 0.0))

    return ConceptualModel(
        mesh=mesh,
        materials=list(_MATERIALS),
        law=law,
        initial_stress=stress,
        t0_local=t0,
        compartments=(block_a, block_b),
        variant=variant,
        resolution=resolution,
    )
