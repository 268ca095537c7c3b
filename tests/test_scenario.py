"""Conceptual two-compartment model: geometry, stress, tractions, symmetry."""
from __future__ import annotations

import math

import numpy as np
import pytest

from faultmech.constitutive import tau_max
from faultmech.pressure import UniformCompartmentPressure
from faultmech.scenario import (
    R_LOWER_SEAL,
    R_OVERBURDEN,
    R_RESERVOIR,
    R_UNDERBURDEN,
    R_UPPER_SEAL,
    InitialStress,
    ScenarioError,
    build_conceptual_model,
    initial_fault_traction,
)
from faultmech.solver import ContactSolver, _fingerprint

MPA = 1.0e6
DIP = math.radians(10.0)


@pytest.fixture(scope="module")
def model():
    return build_conceptual_model(resolution=8.0)


# --- initial stress -----------------------------------------------------


def test_initial_stress_anchor_values():
    s = InitialStress()
    t = s.tensor_at(-2100.0)
    assert np.allclose(np.diag(t), [-18.8 * MPA, -21.1 * MPA, -25.4 * MPA])
    assert np.allclose(t, np.diag(np.diag(t)))


def test_initial_stress_linear_scaling():
    s = InitialStress()
    np.testing.assert_allclose(s.tensor_at(-1050.0), 0.5 * s.tensor_at(-2100.0), rtol=1e-14)
    assert np.all(s.tensor_at(0.0) == 0.0)


def test_initial_stress_above_surface_raises():
    with pytest.raises(ScenarioError):
        InitialStress().tensor_at(1.0)


def test_initial_stress_ordering_in_depth_range():
    s = InitialStress()
    for z in (-1600.0, -2100.0, -3000.0):
        sx, sy, sz = np.diag(s.tensor_at(z))
        assert sz < sy < sx < 0.0


# --- fault traction resolution ------------------------------------------


def _frame_from_normal(n):
    from faultmech.mesh import local_frame

    n, m1, m2 = local_frame(n)
    return np.column_stack([n, m1, m2])


def test_traction_vertical_fault_normal_x():
    s = InitialStress()
    frame = _frame_from_normal(np.array([1.0, 0.0, 0.0]))
    t = initial_fault_traction(frame, s.tensor_at(-2100.0))
    assert t[0] == pytest.approx(-18.8 * MPA, rel=1e-12)
    assert abs(t[1]) < 1e-6 and abs(t[2]) < 1e-6


def test_traction_vertical_fault_normal_y():
    s = InitialStress()
    frame = _frame_from_normal(np.array([0.0, 1.0, 0.0]))
    t = initial_fault_traction(frame, s.tensor_at(-2100.0))
    assert t[0] == pytest.approx(-21.1 * MPA, rel=1e-12)
    assert abs(t[1]) < 1e-6 and abs(t[2]) < 1e-6


def test_traction_dipping_fault_closed_form():
    s = InitialStress()
    n = np.array([math.cos(DIP), 0.0, math.sin(DIP)])
    frame = _frame_from_normal(n)
    t = initial_fault_traction(frame, s.tensor_at(-2100.0))
    tn_expect = -18.8 * MPA * math.cos(DIP) ** 2 - 25.4 * MPA * math.sin(DIP) ** 2
    assert t[0] == pytest.approx(tn_expect, rel=1e-12)
    assert t[0] == pytest.approx(-18.999 * MPA, rel=1e-4)
    # shear lies in the dip direction, magnitude |sv - sh| sin cos
    tt_mag = math.hypot(t[1], t[2])
    assert tt_mag == pytest.approx(6.6 * MPA * math.sin(DIP) * math.cos(DIP), rel=1e-12)
    assert tt_mag == pytest.approx(1.129 * MPA, rel=1e-3)
    assert abs(t[1]) < 1e-6
    # with sigma_v more compressive than sigma_h the resolved shear points
    # down-dip, i.e. negative along the up-dip tangent
    assert t[2] < 0.0


def test_traction_rotation_oracle():
    # full tensor rotation as an independent path to the same components
    rng = np.random.default_rng(7)
    s = InitialStress()
    for _ in range(10):
        v = rng.normal(size=3)
        frame = _frame_from_normal(v)
        sigma = s.tensor_at(-2500.0)
        local = frame.T @ sigma @ frame
        expect = local[:, 0]
        got = initial_fault_traction(frame, sigma)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-3)


# --- built model --------------------------------------------------------


def test_model_fault_inventory(model):
    names = model.mesh.interfaces.fault_names
    assert names == ["F1", "F2", "F3", "F4", "F5"]
    for name in names:
        assert model.mesh.interfaces.of_fault(name).size > 0


def test_f1_frame_dip_component(model):
    iset = model.mesh.interfaces
    for idx in iset.of_fault("F1"):
        n = iset.frames[idx][:, 0]
        assert n[2] == pytest.approx(math.sin(DIP), abs=1e-12)
        assert n[0] > 0.0  # normal points toward the graben
    for idx in iset.of_fault("F2"):
        n = iset.frames[idx][:, 0]
        assert n[2] == pytest.approx(math.sin(DIP), abs=1e-12)
        assert n[0] < 0.0
    for idx in iset.of_fault("F3"):
        n = iset.frames[idx][:, 0]
        assert abs(n[2]) < 1e-14 and n[0] == pytest.approx(1.0)


def test_interface_counts_against_face_walk(model):
    """Count hex faces lying on each analytic fault plane; each interior
    fault face is seen from exactly two cells."""
    mesh = model.mesh
    tan10 = math.tan(DIP)
    planes = {
        "F1": lambda p: p[0] + 2000.0 + tan10 * (p[2] + 2100.0),
        "F2": lambda p: p[0] - 2000.0 - tan10 * (p[2] + 2100.0),
        "F3": lambda p: p[0],
        "F4": lambda p: p[1] + 1000.0,
        "F5": lambda p: p[1] - 1000.0,
    }
    lateral = {
        "F1": lambda p: abs(p[1]) < 1000.0,
        "F2": lambda p: abs(p[1]) < 1000.0,
        "F3": lambda p: abs(p[1]) < 1000.0,
        "F4": lambda p: True,
        "F5": lambda p: True,
    }
    faces = (
        (0, 1, 2, 3),
        (4, 5, 6, 7),
        (0, 1, 5, 4),
        (3, 2, 6, 7),
        (0, 3, 7, 4),
        (1, 2, 6, 5),
    )
    counts = {k: 0 for k in planes}
    for cell in mesh.hexes:
        xyz = mesh.points[cell]
        for f in faces:
            c = xyz[list(f)].mean(axis=0)
            if not (-3000.0 < c[2] < -1600.0):
                continue
            for name, plane in planes.items():
                if abs(plane(c)) < 1e-6 and lateral[name](c):
                    # F4/F5 faces must lie between the dipping side faults
                    if name in ("F4", "F5") and not (
                        planes["F1"](c) > 0.0 and planes["F2"](c) < 0.0
                    ):
                        continue
                    counts[name] += 1
    for name in planes:
        assert counts[name] % 2 == 0
        assert model.mesh.interfaces.of_fault(name).size == counts[name] // 2


def test_no_interfaces_above_fault_top(model):
    assert np.all(model.mesh.interfaces.centroids[:, 2] < -1600.0)
    assert np.all(model.mesh.interfaces.centroids[:, 2] > -3000.0)


def test_region_assignment(model):
    mesh = model.mesh
    cents = mesh.cell_centroids()
    tan10 = math.tan(DIP)
    for c, r in zip(cents, mesh.regions):
        x, y, z = c
        if z > -1500.0:
            assert r == R_OVERBURDEN
        elif z > -1800.0:
            assert r == R_UPPER_SEAL
        else:
            inside = (
                abs(y) < 1000.0
                and x > -2000.0 - tan10 * (z + 2100.0)
                and x < 2000.0 + tan10 * (z + 2100.0)
            )
            if inside:
                if z > -2000.0:
                    assert r == R_LOWER_SEAL
                elif z > -2200.0:
                    assert r == R_RESERVOIR
                else:
                    assert r == R_UNDERBURDEN
            else:
                if z > -2000.0:
                    assert r == R_RESERVOIR
                else:
                    assert r == R_UNDERBURDEN


def test_graben_juxtaposition_across_f1(model):
    mesh = model.mesh
    iset = mesh.interfaces
    for idx in iset.of_fault("F1"):
        z = iset.centroids[idx][2]
        r_in = mesh.regions[iset.cell_top[idx]]
        r_out = mesh.regions[iset.cell_bottom[idx]]
        if -2200.0 < z < -2000.0:
            assert (r_in, r_out) == (R_RESERVOIR, R_UNDERBURDEN)
        elif -2000.0 < z < -1800.0:
            assert (r_in, r_out) == (R_LOWER_SEAL, R_RESERVOIR)
        elif -1800.0 < z < -1600.0:
            assert (r_in, r_out) == (R_UPPER_SEAL, R_UPPER_SEAL)
        else:
            assert (r_in, r_out) == (R_UNDERBURDEN, R_UNDERBURDEN)


def test_compartments(model):
    a, b = model.compartments
    assert a.size > 0 and a.size == b.size
    cents = model.mesh.cell_centroids()
    assert np.all(model.mesh.regions[a] == R_RESERVOIR)
    assert np.all(model.mesh.regions[b] == R_RESERVOIR)
    assert np.all(cents[a][:, 0] < 0.0)
    assert np.all(cents[b][:, 0] > 0.0)
    assert np.all(np.abs(cents[a][:, 1]) < 1000.0)
    # every reservoir-region cell inside the graben is in a compartment
    n_inside = sum(
        1
        for c, r in zip(cents, model.mesh.regions)
        if r == R_RESERVOIR and -2200.0 < c[2] < -2000.0
    )
    assert a.size + b.size == n_inside


def test_mirror_symmetry_x(model):
    pts = model.mesh.points
    flipped = pts * np.array([-1.0, 1.0, 1.0])
    a = pts[np.lexsort(pts.T)]
    b = flipped[np.lexsort(flipped.T)]
    assert np.array_equal(a, b)


def test_mirror_symmetry_y(model):
    pts = model.mesh.points
    flipped = pts * np.array([1.0, -1.0, 1.0])
    a = pts[np.lexsort(pts.T)]
    b = flipped[np.lexsort(flipped.T)]
    assert np.array_equal(a, b)


def _mirror_index(centroids, flip):
    """For each element, the element whose centroid is its mirror image."""
    dist = np.abs(centroids[:, None, :] * flip - centroids[None, :, :]).max(axis=2)
    j = dist.argmin(axis=1)
    assert dist[np.arange(j.size), j].max() < 1e-6
    assert np.array_equal(np.sort(j), np.arange(j.size))
    return j


def test_march_is_mirror_symmetric():
    # geometry, materials, stress and schedule are symmetric under x -> -x
    # and y -> -y, so mirrored elements carry the same |traction| and status
    m = build_conceptual_model(resolution=16.0)
    solver = ContactSolver(m.mesh, m.materials, m.law, m.t0_local)
    pressure = UniformCompartmentPressure(m.mesh, m.compartments)
    records = solver.march(pressure, stop_after=4).records
    assert len(records) == 5
    cents = m.mesh.interfaces.centroids
    for flip in ([-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]):
        j = _mirror_index(cents, np.array(flip))
        for state in records:
            t_n = state.t_loc[:, 0]
            t_t = np.linalg.norm(state.t_loc[:, 1:], axis=1)
            tol = 1e-9 * np.abs(t_n).max()
            np.testing.assert_allclose(t_n[j], t_n, rtol=0.0, atol=tol)
            np.testing.assert_allclose(t_t[j], t_t, rtol=0.0, atol=tol)
            np.testing.assert_array_equal(state.status[j], state.status)


@pytest.mark.parametrize("variant, digest", [
    (1, "a053dc7533ca02578faabd4075f996382ddf9a44672688e6f8747131988e17e1"),
    (2, "f338ecc092fd7df419677b54138d68f140cd727b0ac6d7b67c8bb029e3c5090e"),
])
def test_scenario_fingerprint_is_pinned(variant, digest):
    # the fingerprint covers the mesh, materials, friction law and initial
    # tractions, and checkpoints carry it: a change to any model datum must
    # be deliberate, with this digest updated in the same change
    m = build_conceptual_model(resolution=16.0, variant=variant)
    assert _fingerprint(m.mesh, m.materials, m.law, m.t0_local) == digest


def test_initial_tractions_admissible_scenario1(model):
    t0 = model.t0_local
    law = model.law
    assert model.variant == 1
    tt = np.hypot(t0[:, 1], t0[:, 2])
    cap = tau_max(law, t0[:, 0], 0.0)
    assert np.all(t0[:, 0] < 0.0)
    assert np.all(tt < cap)


def test_initial_traction_values_on_faults(model):
    iset = model.mesh.interfaces
    s = InitialStress()
    for name, tn_anchor in (("F3", -18.8 * MPA), ("F4", -21.1 * MPA), ("F5", -21.1 * MPA)):
        for idx in iset.of_fault(name):
            z = iset.centroids[idx][2]
            scale = z / -2100.0
            assert model.t0_local[idx, 0] == pytest.approx(tn_anchor * scale, rel=1e-12)
            assert abs(model.t0_local[idx, 1]) < 1.0
            assert abs(model.t0_local[idx, 2]) < 1.0
    for idx in iset.of_fault("F1"):
        z = iset.centroids[idx][2]
        scale = z / -2100.0
        tn_expect = (-18.8 * math.cos(DIP) ** 2 - 25.4 * math.sin(DIP) ** 2) * MPA * scale
        tt_expect = -6.6 * MPA * math.sin(DIP) * math.cos(DIP) * scale
        assert model.t0_local[idx, 0] == pytest.approx(tn_expect, rel=1e-12)
        assert model.t0_local[idx, 2] == pytest.approx(tt_expect, rel=1e-12)
        assert abs(model.t0_local[idx, 1]) < 1.0


def test_variant2_law(model):
    m2 = build_conceptual_model(resolution=8.0, variant=2)
    assert m2.law.kind == "arctan"
    assert m2.law.mu_static == pytest.approx(math.tan(math.radians(30.0)))
    assert m2.law.mu_dynamic == pytest.approx(math.tan(math.radians(10.0)))
    assert m2.law.dc == pytest.approx(0.002)
    assert m2.law.cohesion == pytest.approx(2.0 * MPA)
    assert model.law.kind == "constant"
    assert model.law.cohesion == pytest.approx(2.0 * MPA)


def test_materials_table(model):
    mats = model.materials
    res = mats[R_RESERVOIR]
    assert res.young == pytest.approx(11.0e9)
    assert res.poisson == pytest.approx(0.15)
    assert res.density == pytest.approx(2400.0)
    assert mats[R_UPPER_SEAL].young == pytest.approx(35.0e9)
    assert mats[R_LOWER_SEAL].young == pytest.approx(20.0e9)
    assert mats[R_OVERBURDEN].young == pytest.approx(10.0e9)
    assert mats[R_UNDERBURDEN].young == pytest.approx(30.0e9)


def test_resolution_validation():
    with pytest.raises(ScenarioError):
        build_conceptual_model(resolution=0.5)
