"""FEM assembly: stiffness, pressure loads, interface coupling, Jacobian."""
from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import block_diag

from faultmech import assembly as assembly_module
from faultmech.assembly import (
    assemble_system,
    divergence_forces,
    free_dof_mask,
    hex_stiffness,
    interface_blocks,
    stab_matrix,
    stiffness_matrix,
)
from faultmech.constitutive import ElasticMaterial, FrictionLaw, stiffness_tensor
from faultmech.contact import OPEN, SLIP, STICK, ContactTols
from faultmech.mesh import AxisSegment, DomainSpec, FaultSpec, build_structured_domain

MAT = ElasticMaterial("rock", 2400.0, 10.0e9, 0.25)
SOFT = ElasticMaterial("soft", 2200.0, 4.0e9, 0.30)

_CORNER_SIGNS = [
    (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
    (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
]


def _ref_grads(a, b, c):
    """d(shape)/d(xi) for the trilinear hex at one parent point, (8, 3)."""
    out = np.empty((8, 3))
    for i, (sx, sy, sz) in enumerate(_CORNER_SIGNS):
        out[i] = (
            0.125 * sx * (1 + sy * b) * (1 + sz * c),
            0.125 * sy * (1 + sx * a) * (1 + sz * c),
            0.125 * sz * (1 + sx * a) * (1 + sy * b),
        )
    return out


def _ref_hex_stiffness(coords, cmat):
    """Slow loop-based 2x2x2 Gauss stiffness for one hex."""
    g = 1.0 / np.sqrt(3.0)
    ke = np.zeros((24, 24))
    for a in (-g, g):
        for b in (-g, g):
            for c in (-g, g):
                dn = _ref_grads(a, b, c)
                jac = coords.T @ dn
                dndx = dn @ np.linalg.inv(jac)
                bm = np.zeros((6, 24))
                for i in range(8):
                    k = 3 * i
                    bm[0, k] = dndx[i, 0]
                    bm[1, k + 1] = dndx[i, 1]
                    bm[2, k + 2] = dndx[i, 2]
                    bm[3, k + 1] = dndx[i, 2]
                    bm[3, k + 2] = dndx[i, 1]
                    bm[4, k] = dndx[i, 2]
                    bm[4, k + 2] = dndx[i, 0]
                    bm[5, k] = dndx[i, 1]
                    bm[5, k + 1] = dndx[i, 0]
                ke += bm.T @ cmat @ bm * np.linalg.det(jac)
    return ke


def _ref_div_forces(coords, alpha_dp):
    g = 1.0 / np.sqrt(3.0)
    f = np.zeros((8, 3))
    for a in (-g, g):
        for b in (-g, g):
            for c in (-g, g):
                dn = _ref_grads(a, b, c)
                jac = coords.T @ dn
                dndx = dn @ np.linalg.inv(jac)
                f += alpha_dp * dndx * np.linalg.det(jac)
    return f


def _distorted_hex(seed=0):
    rng = np.random.default_rng(seed)
    base = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)])
    order = [0, 1, 3, 2, 4, 5, 7, 6]
    coords = base[order].astype(float)
    return coords + 0.12 * rng.standard_normal((8, 3))


def test_hex_stiffness_matches_reference():
    coords = _distorted_hex(3)
    cmat = stiffness_tensor(MAT)
    ke = hex_stiffness(coords, cmat)
    np.testing.assert_allclose(ke, _ref_hex_stiffness(coords, cmat), rtol=1e-10, atol=1e-4)


def test_hex_stiffness_rigid_modes():
    coords = _distorted_hex(5)
    ke = hex_stiffness(coords, stiffness_tensor(MAT))
    # translations
    for axis in range(3):
        v = np.zeros((8, 3))
        v[:, axis] = 1.0
        assert np.max(np.abs(ke @ v.ravel())) < 1e-4 * np.max(np.abs(ke))
    # linearized rotations: u = w x r gives zero small strain
    for w in np.eye(3):
        v = np.cross(w, coords - coords.mean(axis=0))
        assert np.max(np.abs(ke @ v.ravel())) < 1e-4 * np.max(np.abs(ke))


def _plain_mesh(nx=2, ny=2, nz=2, region_fn=None):
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, float(nx), "uniform", 1.0)],
        y_segments=[AxisSegment(0.0, float(ny), "uniform", 1.0)],
        z_segments=[AxisSegment(-float(nz), 0.0, "uniform", 1.0)],
        faults=[],
        region_fn=region_fn,
    )
    return build_structured_domain(spec)


def test_global_stiffness_matches_dense_reference():
    mesh = _plain_mesh(2, 2, 2, region_fn=lambda c: 0 if c[1] < 1.0 else 1)
    mats = [MAT, SOFT]
    k, young = stiffness_matrix(mesh, mats)
    assert k.shape == (3 * mesh.n_nodes,) * 2
    np.testing.assert_allclose(young, [mats[r].young for r in mesh.regions])
    dense = np.zeros((3 * mesh.n_nodes,) * 2)
    for c in range(mesh.n_cells):
        ke = _ref_hex_stiffness(mesh.points[mesh.hexes[c]], stiffness_tensor(mats[mesh.regions[c]]))
        dofs = (3 * mesh.hexes[c][:, None] + np.arange(3)).ravel()
        dense[np.ix_(dofs, dofs)] += ke
    kd = k.toarray()
    np.testing.assert_allclose(kd, dense, rtol=1e-10, atol=1e-2)
    np.testing.assert_allclose(kd, kd.T, rtol=1e-12, atol=1e-4)


def test_stiffness_batches_match_one_batch(monkeypatch):
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 1.0, "geometric", 0.25, grow_from="end"),
                    AxisSegment(1.0, 3.0, "geometric", 0.25, ratio_max=1.4)],
        y_segments=[AxisSegment(0.0, 2.0, "uniform", 0.5)],
        z_segments=[AxisSegment(-2.0, 0.0, "uniform", 0.5)],
        faults=[FaultSpec("F", "x", 1.0, 0.5, 1.5, -1.5, -0.5)],
        region_fn=lambda c: 0 if c[1] < 1.0 else 1,
    )
    mesh = build_structured_domain(spec)
    assert set(mesh.regions) == {0, 1} and mesh.interfaces.count > 0
    assert mesh.n_cells % 7 != 0  # a ragged last batch
    mats = [MAT, SOFT]
    monkeypatch.setattr(assembly_module, "_CHUNK", mesh.n_cells)
    one, young_one = stiffness_matrix(mesh, mats)
    monkeypatch.setattr(assembly_module, "_CHUNK", 7)
    batched, young = stiffness_matrix(mesh, mats)
    assert batched.shape == one.shape
    assert abs(batched - one).max() <= 1e-14 * abs(one).max()
    np.testing.assert_array_equal(young, young_one)


def test_divergence_forces_match_reference_and_balance():
    mesh = _plain_mesh(2, 1, 1)
    dp = np.array([-2.0e6, 3.0e6])
    f = divergence_forces(mesh, [MAT]) @ dp
    ref = np.zeros((mesh.n_nodes, 3))
    for c in range(mesh.n_cells):
        fe = _ref_div_forces(mesh.points[mesh.hexes[c]], MAT.biot * dp[c])
        np.add.at(ref, mesh.hexes[c], fe)
    np.testing.assert_allclose(f, ref.ravel(), rtol=1e-12, atol=1e-6)
    assert abs(f.sum()) < 1e-6
    assert abs(f.reshape(-1, 3)[:, 0].sum()) < 1e-6


def test_divergence_forces_biot_scaling():
    mesh = _plain_mesh(1, 1, 1)
    half = ElasticMaterial("h", 2000.0, 10.0e9, 0.25, biot=0.5)
    f1 = divergence_forces(mesh, [MAT]) @ np.array([1.0e6])
    f2 = divergence_forces(mesh, [half]) @ np.array([1.0e6])
    np.testing.assert_allclose(f2, 0.5 * f1, rtol=1e-12)


def test_divergence_operator_two_materials_graded_cells():
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 3.0, "geometric", 0.5, ratio_max=1.4)],
        y_segments=[AxisSegment(0.0, 2.0, "geometric", 0.5, grow_from="end")],
        z_segments=[AxisSegment(-2.0, 0.0, "uniform", 1.0)],
        faults=[],
        region_fn=lambda c: 0 if c[0] < 1.0 else 1,
    )
    mesh = build_structured_domain(spec)
    mats = [MAT, ElasticMaterial("soft", 2200.0, 4.0e9, 0.30, biot=0.7)]
    assert set(mesh.regions) == {0, 1}
    g = divergence_forces(mesh, mats)
    assert g.shape == (3 * mesh.n_nodes, mesh.n_cells)
    assert g.nnz == 24 * mesh.n_cells
    dp = np.random.default_rng(4).uniform(-3.0e6, 3.0e6, mesh.n_cells)
    ref = np.zeros((mesh.n_nodes, 3))
    for c in range(mesh.n_cells):
        fe = _ref_div_forces(mesh.points[mesh.hexes[c]], mats[mesh.regions[c]].biot * dp[c])
        np.add.at(ref, mesh.hexes[c], fe)
    f = g @ dp
    assert np.abs(f - ref.ravel()).max() <= 1e-12 * np.abs(ref).max()
    # every cell's forces balance on their own
    col_sums = np.stack([np.asarray(g[k::3].sum(axis=0)).ravel() for k in range(3)])
    assert np.abs(col_sums).max() <= 1e-12 * abs(g).max()


def _two_block_mesh(ny=1, nz=1, h=1.0):
    ly, lz = ny * h, nz * h
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 1.0, "uniform", h), AxisSegment(1.0, 2.0, "uniform", h)],
        y_segments=[AxisSegment(0.0, ly, "uniform", h)],
        z_segments=[AxisSegment(-lz, 0.0, "uniform", h)],
        faults=[FaultSpec("F", "x", 1.0, 0.0, ly, -lz, 0.0)],
    )
    return build_structured_domain(spec)


def test_jump_operator_rigid_offset():
    mesh = _two_block_mesh()
    ops = interface_blocks(mesh)
    iset = mesh.interfaces
    assert iset.count == 1
    a = np.array([3e-3, -1e-3, 2e-3])
    b = np.array([-1e-3, 4e-3, 0.5e-3])
    u = np.zeros((mesh.n_nodes, 3))
    u[iset.top_nodes[0]] = a
    u[iset.bottom_nodes[0]] = b
    g = (ops.jump_csr @ u.ravel()).reshape(-1, 3)
    frame = iset.frames[0]
    np.testing.assert_allclose(g[0], frame.T @ (a - b), rtol=1e-12, atol=1e-18)
    np.testing.assert_allclose(ops.areas, [1.0], rtol=1e-12)
    assert ops.l_ref == pytest.approx(1.0)


def _coupling(ops):
    """The traction coupling C = J^T diag(areas), as the solver forms it."""
    return ops.jump_csr.T @ sparse.diags(np.repeat(ops.areas, 3))


def test_coupling_force_balance_and_pairing():
    mesh = _two_block_mesh(ny=2, nz=2)
    ops = interface_blocks(mesh)
    rng = np.random.default_rng(11)
    t = rng.standard_normal(3 * mesh.interfaces.count) * 1e6
    fvec = -(_coupling(ops) @ t).reshape(-1, 3)  # nodal forces
    np.testing.assert_allclose(fvec.sum(axis=0), 0.0, atol=1e-6)
    # forces on a split pair are equal and opposite at the same location
    iset = mesh.interfaces
    top, bot = iset.top_nodes[0][0], iset.bottom_nodes[0][0]
    assert top != bot
    np.testing.assert_allclose(mesh.points[top], mesh.points[bot], atol=1e-12)
    np.testing.assert_allclose(fvec[top], -fvec[bot], rtol=1e-12)


def test_coupling_sign_compression_pushes_bodies_apart():
    mesh = _two_block_mesh()
    ops = interface_blocks(mesh)
    t = np.array([-1.0e6, 0.0, 0.0])  # compression, local frame
    fvec = -(_coupling(ops) @ t).reshape(-1, 3)  # nodal forces
    n = mesh.interfaces.frames[0][:, 0]
    top_force = fvec[mesh.interfaces.top_nodes[0]].sum(axis=0)
    bot_force = fvec[mesh.interfaces.bottom_nodes[0]].sum(axis=0)
    # compression loads the top body along +n and the bottom along -n
    assert np.dot(top_force, n) > 0.0
    assert np.dot(bot_force, n) < 0.0
    np.testing.assert_allclose(top_force + bot_force, 0.0, atol=1e-9)


def test_stab_matrix_two_element_oracle():
    mesh = _two_block_mesh(ny=2, nz=1)
    assert mesh.interfaces.count == 2
    young = np.full(mesh.n_cells, MAT.young)
    s = stab_matrix(mesh, young).toarray()
    w = 1.0 / MAT.young  # edge length / harmonic-mean stiffness
    np.testing.assert_allclose(s, [[w, -w], [-w, w]], rtol=1e-12)


def test_stab_matrix_heterogeneous_harmonic_mean():
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 1.0, "uniform", 1.0), AxisSegment(1.0, 2.0, "uniform", 1.0)],
        y_segments=[AxisSegment(0.0, 2.0, "uniform", 1.0)],
        z_segments=[AxisSegment(-1.0, 0.0, "uniform", 1.0)],
        faults=[FaultSpec("F", "x", 1.0, 0.0, 2.0, -1.0, 0.0)],
        region_fn=lambda c: 0 if c[1] < 1.0 else 1,
    )
    mesh = build_structured_domain(spec)
    young = np.array([[MAT.young, SOFT.young][r] for r in mesh.regions])
    s = stab_matrix(mesh, young).toarray()
    h_mean = 4.0 / (2.0 / MAT.young + 2.0 / SOFT.young)
    np.testing.assert_allclose(s[0, 1], -1.0 / h_mean, rtol=1e-12)


def test_stab_matrix_spsd_zero_rowsum():
    # rows are scaled by 1/facet area; the area-weighted form is SPSD
    for h in (1.0, 0.5):
        mesh = _two_block_mesh(ny=3, nz=2, h=h)
        young = np.full(mesh.n_cells, MAT.young)
        s = stab_matrix(mesh, young).toarray()
        dense = mesh.interfaces.areas[:, None] * s
        scale = np.abs(dense).max()
        np.testing.assert_allclose(s.sum(axis=1), 0.0, atol=1e-12 * np.abs(s).max())
        np.testing.assert_allclose(dense, dense.T, atol=1e-12 * scale)
        eig = np.linalg.eigvalsh(dense)
        assert eig.min() > -1e-12 * scale


LAW = FrictionLaw("arctan", np.tan(np.radians(30.0)), np.tan(np.radians(10.0)), 0.002, 2.0e6)
TOLS = ContactTols()


def _state_for(mesh, statuses, seed=0):
    """Build a smooth, generic state away from nonsmooth switch points."""
    rng = np.random.default_rng(seed)
    m = mesh.interfaces.count
    assert len(statuses) == m
    u = 1e-4 * rng.standard_normal(3 * mesh.n_nodes)
    t = np.column_stack(
        [
            -(10.0 + 10.0 * rng.random(m)) * 1e6,
            (2.0 * rng.standard_normal(m)) * 1e6,
            (2.0 * rng.standard_normal(m)) * 1e6,
        ]
    )
    status = np.array(statuses)
    g_t_prev = 1e-4 * rng.standard_normal((m, 2))
    slip_acc = 1e-3 * rng.random(m)
    d_ref = rng.standard_normal((m, 2))
    d_ref /= np.linalg.norm(d_ref, axis=1)[:, None]
    t0 = np.column_stack([-18.0e6 * np.ones(m), 1.0e6 * np.ones(m), np.zeros(m)])
    return u, t, status, g_t_prev, slip_acc, d_ref, t0


def test_jacobian_matches_finite_differences():
    mesh = _two_block_mesh(ny=2, nz=2)
    ops = interface_blocks(mesh)
    _, young = stiffness_matrix(mesh, [MAT])
    stab = stab_matrix(mesh, young)
    m = mesh.interfaces.count
    u, t, status, g_t_prev, slip_acc, d_ref, t0 = _state_for(
        mesh, [STICK, SLIP, OPEN, SLIP], seed=2
    )
    g = ops.jump_csr @ u + (stab @ (t - t0)).ravel()

    def residual(gg, tt, want_jacobian=False):
        return assemble_system(
            ops, gg, tt.reshape(m, 3),
            status=status, g_t_prev=g_t_prev, slip_acc_prev=slip_acc, d_ref=d_ref,
            law=LAW, tols=TOLS, want_jacobian=want_jacobian,
        )

    sys = residual(g, t, want_jacobian=True)
    assert sys.d_block.shape == sys.e_block.shape == (m, 3, 3)
    jac = np.hstack([block_diag(*sys.d_block), block_diag(*sys.e_block)])

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        dg = rng.standard_normal(3 * m) * 1e-4
        dt = rng.standard_normal(3 * m) * 1e4
        d = np.concatenate([dg, dt])
        eps = 1e-3
        rp = residual(g + eps * dg, t.ravel() + eps * dt).r_t
        rm = residual(g - eps * dg, t.ravel() - eps * dt).r_t
        fd = (rp - rm) / (2.0 * eps)
        jd = jac @ d
        err = np.linalg.norm(fd - jd) / max(np.linalg.norm(jd), 1e-30)
        worst = max(worst, err)
    assert worst <= 1e-5, f"max relative Jacobian error {worst:.3e}"


def test_stacked_interface_copies_assemble_as_each_copy():
    # every row depends on its own element alone, so copies of the interface
    # with their own partitions and iterates assemble in one call: m is the
    # number of traction rows, not ops.count
    mesh = _two_block_mesh(ny=2, nz=2)
    ops = interface_blocks(mesh)
    copies = [_state_for(mesh, statuses, seed) for statuses, seed in
              (([STICK, SLIP, OPEN, SLIP], 2), ([SLIP, STICK, SLIP, OPEN], 3))]
    g_stab = [np.random.default_rng(seed).normal(scale=1e-4, size=3 * ops.count)
              for seed in (4, 5)]
    names = ("t_loc", "status", "g_t_prev", "slip_acc_prev", "d_ref")
    args = [dict(zip(names, [t, status, g_t_prev, slip_acc, d_ref]))
            for _, t, status, g_t_prev, slip_acc, d_ref, _ in copies]

    def assemble(g, a):
        return assemble_system(ops, g, a["t_loc"], status=a["status"], g_t_prev=a["g_t_prev"],
                               slip_acc_prev=a["slip_acc_prev"], d_ref=a["d_ref"],
                               law=LAW, tols=TOLS)

    single = [assemble(g, a) for g, a in zip(g_stab, args)]
    stacked = assemble(np.concatenate(g_stab),
                       {k: np.concatenate([a[k] for a in args]) for k in names})
    for name in ("r_t", "d_block", "e_block", "dg_slip"):
        np.testing.assert_allclose(getattr(stacked, name),
                                   np.concatenate([getattr(s, name) for s in single]),
                                   rtol=1e-14, atol=0.0, err_msg=name)


def test_uniform_increment_equilibrates_interior():
    # linear displacement field + matching traction increment: residual must
    # vanish at every interior node, split interface pairs included
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 1.0, "uniform", 0.5), AxisSegment(1.0, 2.0, "uniform", 0.5)],
        y_segments=[AxisSegment(0.0, 1.5, "uniform", 0.5)],
        z_segments=[AxisSegment(-1.5, 0.0, "uniform", 0.5)],
        faults=[FaultSpec("F", "x", 1.0, 0.0, 1.5, -1.5, 0.0)],
    )
    mesh = build_structured_domain(spec)
    ops = interface_blocks(mesh)
    k, young = stiffness_matrix(mesh, [MAT])
    stab = stab_matrix(mesh, young)
    m = mesh.interfaces.count

    eps_v = np.array([1e-4, -2e-5, 5e-5, 4e-5, -3e-5, 2e-5])  # Voigt strain
    dsig = stiffness_tensor(MAT) @ eps_v
    sig = np.array(
        [
            [dsig[0], dsig[5], dsig[4]],
            [dsig[5], dsig[1], dsig[3]],
            [dsig[4], dsig[3], dsig[2]],
        ]
    )
    grad = np.array(
        [
            [eps_v[0], 0.5 * eps_v[5], 0.5 * eps_v[4]],
            [0.5 * eps_v[5], eps_v[1], 0.5 * eps_v[3]],
            [0.5 * eps_v[4], 0.5 * eps_v[3], eps_v[2]],
        ]
    )
    u = (mesh.points @ grad.T).ravel()

    t0 = np.zeros((m, 3))
    frames = mesh.interfaces.frames
    for e in range(m):
        t0[e] = frames[e].T @ (np.array([[-5e6, 0, 0], [0, -6e6, 0], [0, 0, -8e6]]) @ frames[e][:, 0])
    t = t0 + np.einsum("exc,xy,ey->ec", frames, sig, frames[:, :, 0])

    r_u = k @ u + _coupling(ops) @ (t - t0).ravel()
    scale = np.max(np.abs(r_u))
    interior = ~mesh.boundary_node_mask(("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"))
    r_nodes = r_u.reshape(-1, 3)
    assert scale > 0.0
    assert np.max(np.abs(r_nodes[interior])) <= 1e-9 * scale
    # stick rows see no jump; uniform traction increment is in the
    # stabilization kernel
    g_stab = ops.jump_csr @ u + (stab @ (t - t0)).ravel()
    sys = assemble_system(
        ops, g_stab, t,
        status=np.full(m, STICK), g_t_prev=np.zeros((m, 2)),
        slip_acc_prev=np.zeros(m), d_ref=np.tile([1.0, 0.0], (m, 1)),
        law=LAW, tols=TOLS, want_jacobian=False,
    )
    assert np.max(np.abs(sys.r_t)) <= 1e-9 * np.max(np.abs(t))


def test_zero_state_zero_residual():
    mesh = _two_block_mesh(ny=2, nz=2)
    ops = interface_blocks(mesh)
    m = mesh.interfaces.count
    t0 = np.tile([-15.0e6, 2.0e6, -1.0e6], (m, 1))
    sys = assemble_system(
        ops, np.zeros(3 * m), t0.copy(),
        status=np.full(m, STICK), g_t_prev=np.zeros((m, 2)),
        slip_acc_prev=np.zeros(m), d_ref=np.tile([1.0, 0.0], (m, 1)),
        law=LAW, tols=TOLS, want_jacobian=False,
    )
    assert np.all(sys.r_t == 0.0)


def test_free_dof_mask_rollers():
    mesh = _plain_mesh(2, 2, 2)
    free = free_dof_mask(mesh).reshape(-1, 3)
    pts = mesh.points
    lo, hi = mesh.bounds
    x0 = np.isclose(pts[:, 0], lo[0])
    x1 = np.isclose(pts[:, 0], hi[0])
    y0 = np.isclose(pts[:, 1], lo[1])
    y1 = np.isclose(pts[:, 1], hi[1])
    z0 = np.isclose(pts[:, 2], lo[2])
    z1 = np.isclose(pts[:, 2], hi[2])
    assert not free[x0 | x1, 0].any()
    assert not free[y0 | y1, 1].any()
    assert not free[z0, 2].any()
    # everything off the five roller faces is free, top surface included
    interior = ~(x0 | x1 | y0 | y1 | z0)
    assert free[interior].all()
    assert free[z1 & ~(x0 | x1 | y0 | y1)].all()
    # side walls keep their tangential dofs
    side_only = x0 & ~(y0 | y1 | z0)
    assert free[side_only, 1].all() and free[side_only, 2].all()
