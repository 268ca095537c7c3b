"""Mesh construction checks: grading, fault splitting, frames, conformity."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from faultmech.assembly import stiffness_matrix
from faultmech.constitutive import ElasticMaterial
from faultmech.mesh import (
    AxisSegment,
    DomainSpec,
    FaultSpec,
    Mesh,
    MeshError,
    build_axis,
    build_structured_domain,
    dissection_order,
    geometric_sizes,
    local_frame,
)
from faultmech.scenario import build_conceptual_model


def _box_spec(nx=2, ny=1, nz=1, lx=2.0, ly=1.0, lz=1.0, faults=()):
    return DomainSpec(
        x_segments=[AxisSegment(0.0, lx, "uniform", lx / nx)],
        y_segments=[AxisSegment(0.0, ly, "uniform", ly / ny)],
        z_segments=[AxisSegment(0.0, lz, "uniform", lz / nz)],
        faults=list(faults),
    )


def _midplane_fault(lx=2.0, ly=1.0, lz=1.0):
    return FaultSpec(
        name="F", axis="x", position=lx / 2, lateral_min=0.0, lateral_max=ly, z_min=0.0, z_max=lz
    )


# --- axis partitioning --------------------------------------------------


def test_uniform_axis_counts():
    pts = build_axis([AxisSegment(0.0, 2.0, "uniform", 1.0)])
    assert np.allclose(pts, [0.0, 1.0, 2.0])


def test_uniform_axis_rounds_up():
    pts = build_axis([AxisSegment(-2200.0, -2000.0, "uniform", 80.0)])
    # 200 m at a target of 80 m must round to three cells, never 2.5
    assert pts.size == 4
    assert pts[0] == -2200.0 and pts[-1] == -2000.0
    assert np.allclose(np.diff(pts), 200.0 / 3.0)


def test_geometric_sizes_sum_and_ratio():
    sizes = geometric_sizes(13000.0, 400.0, 1.5)
    assert sizes.sum() == pytest.approx(13000.0, abs=1e-6)
    ratios = sizes[1:] / sizes[:-1]
    assert np.all(ratios <= 1.5 + 1e-9)
    assert np.all(ratios >= 1.0 - 1e-9)
    assert sizes[0] == pytest.approx(400.0, rel=0.02)


def test_geometric_sizes_short_interval_single_cell():
    sizes = geometric_sizes(50.0, 80.0, 1.5)
    assert sizes.tolist() == [50.0]


def test_geometric_axis_from_right():
    pts = build_axis([AxisSegment(-1500.0, 0.0, "geometric", 80.0, grow_from="start")])
    d = np.diff(pts)
    assert d[0] == pytest.approx(80.0, rel=0.02)
    assert np.all(d[1:] / d[:-1] <= 1.5 + 1e-9)
    pts2 = build_axis([AxisSegment(-3000.0, -2200.0, "geometric", 66.0, grow_from="end")])
    d2 = np.diff(pts2)
    assert d2[-1] == pytest.approx(66.0, rel=0.02)
    assert np.all(d2[:-1] / d2[1:] <= 1.5 + 1e-9)


def test_axis_segments_must_be_contiguous():
    with pytest.raises(MeshError):
        build_axis([AxisSegment(0.0, 1.0, "uniform", 0.5), AxisSegment(2.0, 3.0, "uniform", 0.5)])


# --- two-cube reference -------------------------------------------------


def test_two_cube_split_counts():
    mesh = build_structured_domain(_box_spec(faults=[_midplane_fault()]))
    # 3x2x2 lattice has 12 nodes; the interface reaches the boundary on all
    # four edges, so the whole 2x2 node patch is duplicated
    assert mesh.points.shape[0] == 16
    assert mesh.hexes.shape[0] == 2
    assert mesh.interfaces.count == 1
    top = mesh.interfaces.top_nodes[0]
    bot = mesh.interfaces.bottom_nodes[0]
    assert len(set(top) | set(bot)) == 8
    # twins coincide bitwise
    assert np.array_equal(mesh.points[top], mesh.points[bot])


def test_two_cube_without_fault():
    mesh = build_structured_domain(_box_spec())
    assert mesh.points.shape[0] == 12
    assert mesh.interfaces.count == 0


def test_interface_neighbor_cells():
    mesh = build_structured_domain(_box_spec(faults=[_midplane_fault()]))
    iset = mesh.interfaces
    cb, ct = iset.cell_bottom[0], iset.cell_top[0]
    assert {cb, ct} == {0, 1}
    # the frame normal points from the bottom cell toward the top cell
    n = iset.frames[0][:, 0]
    centroids = mesh.cell_centroids()
    delta = centroids[ct] - centroids[cb]
    assert float(n @ delta) > 0.0


def test_interface_area_and_weights():
    mesh = build_structured_domain(_box_spec(faults=[_midplane_fault()]))
    iset = mesh.interfaces
    assert iset.areas[0] == pytest.approx(1.0, rel=1e-12)
    assert iset.node_weights[0] == pytest.approx(np.full(4, 0.25), rel=1e-12)


# --- fault conformity errors -------------------------------------------


def test_nonconformal_fault_raises():
    bad = FaultSpec(
        name="F", axis="x", position=0.7, lateral_min=0.0, lateral_max=1.0, z_min=0.0, z_max=1.0
    )
    with pytest.raises(MeshError):
        build_structured_domain(_box_spec(faults=[bad]))


def test_fault_on_domain_boundary_raises():
    bad = FaultSpec(
        name="F", axis="x", position=0.0, lateral_min=0.0, lateral_max=1.0, z_min=0.0, z_max=1.0
    )
    with pytest.raises(MeshError):
        build_structured_domain(_box_spec(faults=[bad]))


# --- T intersection -----------------------------------------------------


def test_t_intersection_twin_counts():
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 2.0, "uniform", 1.0)],
        y_segments=[AxisSegment(0.0, 2.0, "uniform", 1.0)],
        z_segments=[AxisSegment(0.0, 1.0, "uniform", 1.0)],
        faults=[
            FaultSpec(
                name="through",
                axis="y",
                position=1.0,
                lateral_min=0.0,
                lateral_max=2.0,
                z_min=0.0,
                z_max=1.0,
            ),
            FaultSpec(
                name="abutting",
                axis="x",
                position=1.0,
                lateral_min=1.0,
                lateral_max=2.0,
                z_min=0.0,
                z_max=1.0,
            ),
        ],
    )
    mesh = build_structured_domain(spec)
    # hand count: 18 lattice nodes; the through-going fault splits its six
    # plane nodes; the abutting fault splits only its two far-edge nodes and
    # shares the junction pair
    assert mesh.points.shape[0] == 26
    counts = {name: 0 for name in mesh.interfaces.fault_names}
    for fid in mesh.interfaces.fault_ids:
        counts[mesh.interfaces.fault_names[fid]] += 1
    assert counts == {"through": 2, "abutting": 1}
    # junction corners of the abutting element are unsplit (shared node ids)
    iab = list(mesh.interfaces.fault_ids).index(mesh.interfaces.fault_names.index("abutting"))
    top = mesh.interfaces.top_nodes[iab]
    bot = mesh.interfaces.bottom_nodes[iab]
    on_junction = np.isclose(mesh.points[top][:, 1], 1.0)
    assert np.array_equal(top[on_junction], bot[on_junction])
    assert np.all(top[~on_junction] != bot[~on_junction])


def test_fault_edge_on_a_domain_face_splits():
    # fault x = 1 over y in [0, 1] of a 2x2x1 box: its edge on the y = 0
    # domain face splits (the u == 0 branch of the split rule) and its tip
    # edge at y = 1 stays shared; 18 lattice nodes plus 2 twins
    spec = _box_spec(nx=2, ny=2, nz=1, lx=2.0, ly=2.0, lz=1.0,
                     faults=[FaultSpec("F", "x", 1.0, 0.0, 1.0, 0.0, 1.0)])
    mesh = build_structured_domain(spec)
    assert mesh.n_nodes == 20
    np.testing.assert_array_equal(mesh.lattice[18:], [[1, 0, 0], [1, 0, 1]])
    iset = mesh.interfaces
    top, bot = iset.top_nodes[0], iset.bottom_nodes[0]
    on_face = mesh.points[top][:, 1] == 0.0
    assert on_face.sum() == 2
    assert np.all(top[on_face] != bot[on_face])
    np.testing.assert_array_equal(top[~on_face], bot[~on_face])
    np.testing.assert_array_equal(mesh.points[top], mesh.points[bot])


def test_scenario_numbering_is_pinned():
    # checkpoint fingerprints hash the mesh numbering, so a change to it
    # must be deliberate: update this digest in the same change
    mesh = build_conceptual_model(resolution=16.0).mesh
    iset = mesh.interfaces
    digest = hashlib.sha256()
    for a in (mesh.hexes, mesh.lattice, iset.top_nodes, iset.bottom_nodes, iset.cell_top,
              iset.cell_bottom, iset.edges, iset.fault_ids):
        digest.update(repr((a.dtype.str, a.shape)).encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == (
        "a1755adf3c8e05094addfa3b4ff1857ebdc23bfc79b011d0e1d259c5853e7728"
    )


# --- dipping fault frames ----------------------------------------------


def _dip_profile(x_lo, position, x_hi, dip_deg):
    """Column shear dx/dz, tan(dip) at the fault trace and zero at both ends."""
    a = np.tan(np.radians(dip_deg))
    return lambda x: float(np.interp(x, [x_lo, position, x_hi], [0.0, a, 0.0]))


def _dipping_spec(dip_deg):
    return DomainSpec(
        x_segments=[
            AxisSegment(-300.0, -100.0, "uniform", 100.0),
            AxisSegment(-100.0, 300.0, "uniform", 100.0),
        ],
        y_segments=[AxisSegment(0.0, 200.0, "uniform", 100.0)],
        z_segments=[AxisSegment(-400.0, 0.0, "uniform", 100.0)],
        faults=[
            FaultSpec(
                name="D",
                axis="x",
                position=-100.0,
                lateral_min=0.0,
                lateral_max=200.0,
                z_min=-400.0,
                z_max=0.0,
                dip_deg=dip_deg,
            )
        ],
        shear_anchor_z=-200.0,
        shear_profile=_dip_profile(-300.0, -100.0, 300.0, dip_deg),
    )


def test_dipping_fault_normal_component():
    mesh = build_structured_domain(_dipping_spec(10.0))
    iset = mesh.interfaces
    nz = iset.frames[:, 2, 0]
    assert np.allclose(nz, math.sin(math.radians(10.0)), atol=1e-12)


def test_dipping_fault_area_analytic():
    dip = 10.0
    mesh = build_structured_domain(_dipping_spec(dip))
    total = mesh.interfaces.areas.sum()
    assert total == pytest.approx(200.0 * 400.0 / math.cos(math.radians(dip)), rel=1e-10)


def test_dipping_fault_needs_a_shear_profile():
    spec = _dipping_spec(10.0)
    spec.shear_profile = None
    with pytest.raises(MeshError, match="fault D"):
        build_structured_domain(spec)


def test_shear_profile_must_match_the_dip():
    spec = _dipping_spec(10.0)
    spec.shear_profile = _dip_profile(-300.0, -100.0, 300.0, 5.0)
    with pytest.raises(MeshError, match="fault D"):
        build_structured_domain(spec)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_mesh_frames_orthonormal(seed):
    rng = np.random.default_rng(seed)
    dip = float(rng.uniform(-15.0, 15.0))
    hx = float(rng.uniform(40.0, 140.0))
    hz = float(rng.uniform(30.0, 120.0))
    spec = DomainSpec(
        x_segments=[
            AxisSegment(-500.0, -100.0, "geometric", hx, grow_from="end"),
            AxisSegment(-100.0, 500.0, "uniform", hx),
        ],
        y_segments=[AxisSegment(0.0, 300.0, "uniform", hx)],
        z_segments=[AxisSegment(-600.0, 0.0, "uniform", hz)],
        faults=[
            FaultSpec(
                name="R",
                axis="x",
                position=-100.0,
                lateral_min=0.0,
                lateral_max=300.0,
                z_min=-600.0,
                z_max=0.0,
                dip_deg=dip,
            )
        ],
        shear_anchor_z=-300.0,
        shear_profile=_dip_profile(-500.0, -100.0, 500.0, dip),
    )
    mesh = build_structured_domain(spec)
    for r in mesh.interfaces.frames:
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        # tangent m2 is the in-plane up-dip direction
        assert r[2, 2] > 0.0
    expected = 300.0 * 600.0 / math.cos(math.radians(dip))
    assert mesh.interfaces.areas.sum() == pytest.approx(expected, rel=1e-10)


def test_local_frame_right_handed():
    n, m1, m2 = local_frame(np.array([math.cos(math.radians(10.0)), 0.0, math.sin(math.radians(10.0))]))
    assert np.cross(m1, m2) @ n == pytest.approx(1.0, abs=1e-12)
    assert m2[2] > 0.0
    assert abs(m1 @ n) < 1e-14 and abs(m2 @ n) < 1e-14


def test_local_frame_stacked_matches_one_by_one():
    rng = np.random.default_rng(3)
    normals = rng.normal(size=(50, 3))
    normals[0] = (0.0, 0.0, -2.0)  # horizontal surface: m2 falls back to the x axis
    stacked = local_frame(normals)
    for row, normal in enumerate(normals):
        for got, want in zip(stacked, local_frame(normal)):
            np.testing.assert_array_equal(got[row], want)
    n, m1, m2 = (v[0] for v in stacked)
    np.testing.assert_array_equal(np.column_stack([n, m1, m2]),
                                  [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


# --- adjacency ----------------------------------------------------------


def test_adjacency_pairs_and_edge_lengths():
    spec = _box_spec(nx=2, ny=2, nz=2, lx=2.0, ly=2.0, lz=2.0, faults=[_midplane_fault(2.0, 2.0, 2.0)])
    mesh = build_structured_domain(spec)
    iset = mesh.interfaces
    assert iset.count == 4
    # 2x2 patch: four shared edges
    assert iset.edges.shape[0] == 4
    assert np.allclose(iset.edge_lengths, 1.0)
    for a, b in iset.edges:
        assert iset.fault_ids[a] == iset.fault_ids[b]


def test_jacobian_validity_enforced():
    mesh = build_structured_domain(_box_spec(nx=3, ny=2, nz=2))
    assert mesh.min_jacobian > 0.0


# --- lattice indices and the dissection order ---------------------------


# VTK hexahedron corner order of the builder's connectivity
HEX_CORNERS = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])


def _crossing_faults_spec(n=2):
    return _box_spec(
        nx=n, ny=n, nz=1, lx=2.0, ly=2.0, lz=1.0,
        faults=[
            FaultSpec("east", "x", 1.0, 0.0, 2.0, 0.0, 1.0),
            FaultSpec("north", "y", 1.0, 0.0, 2.0, 0.0, 1.0),
        ],
    )


def test_lattice_indices_with_crossing_faults():
    mesh = build_structured_domain(_crossing_faults_spec())
    nx = ny = 2
    nz = 1
    assert mesh.lattice.shape == (mesh.n_nodes, 3)
    # unsplit nodes follow the builder's nid(i, j, k) layout, i fastest
    for k in range(nz + 1):
        for j in range(ny + 1):
            for i in range(nx + 1):
                assert tuple(mesh.lattice[(k * (ny + 1) + j) * (nx + 1) + i]) == (i, j, k)
    # every hex corner, twins included, sits at its cell's lattice corner
    for c in range(mesh.n_cells):
        k, rest = divmod(c, nx * ny)
        j, i = divmod(rest, nx)
        want = np.array([i, j, k]) + HEX_CORNERS
        np.testing.assert_array_equal(mesh.lattice[mesh.hexes[c]], want)
    # twins copy the coordinates of the node they were split from
    np.testing.assert_allclose(mesh.points, mesh.lattice.astype(float))
    # one twin per side on each fault plane; the junction line splits twice,
    # so its twins of twins carry the junction's indices as well
    ijk, count = np.unique(mesh.lattice, axis=0, return_counts=True)
    copies = dict(zip(map(tuple, ijk), count))
    for (i, j, k), c in copies.items():
        assert c == {0: 1, 1: 2, 2: 4}[int(i == 1) + int(j == 1)]


def test_dissection_order_is_a_permutation():
    mesh = build_structured_domain(_crossing_faults_spec(n=6))
    order = dissection_order(mesh.lattice)
    np.testing.assert_array_equal(np.sort(order), np.arange(mesh.n_nodes))


def test_dissection_halves_do_not_couple():
    spec = _box_spec(nx=5, ny=3, nz=2, lx=5.0, ly=3.0, lz=2.0,
                     faults=[FaultSpec("F", "x", 2.0, 0.0, 3.0, 0.0, 2.0)])
    mesh = build_structured_domain(spec)
    order = dissection_order(mesh.lattice)
    # the top level splits x (the longest axis, 0..5) at plane i = 2, which
    # holds the fault and its twins
    i_of = mesh.lattice[order, 0]
    left, right, sep = order[i_of < 2], order[i_of > 2], order[i_of == 2]
    np.testing.assert_array_equal(order, np.concatenate([left, right, sep]))
    k, _ = stiffness_matrix(mesh, [ElasticMaterial("rock", 2400.0, 10.0e9, 0.25)])
    left, right, sep = ((3 * nodes[:, None] + np.arange(3)).ravel() for nodes in (left, right, sep))
    assert k[left][:, sep].nnz > 0
    assert k[left][:, right].nnz == 0
