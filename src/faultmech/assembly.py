"""Global FEM operators and the coupled residual/Jacobian.

Displacements are trilinear on hexahedra; interface tractions are
element-wise constant in each element's local frame.  The displacement
vector stores dofs as 3*node + component.  Interface unknowns stack as
3*element + local component (normal, then the two tangents).

The equilibrium residual is incremental with respect to an assumed
self-equilibrated initial state: body forces never appear, pressure
enters through its change only, and the interface term carries the
change of total traction (t - t0 - dp_fault * n).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .constitutive import (
    friction_coefficient,
    friction_derivative,
    stiffness_tensor,
    tau_max,
)
from .contact import OPEN, SLIP, STICK, regularized_directions
from .mesh import _HEX_CORNERS

__all__ = [
    "InterfaceOps",
    "SystemBlocks",
    "assemble_system",
    "divergence_forces",
    "free_dof_mask",
    "hex_stiffness",
    "interface_blocks",
    "stab_matrix",
    "stiffness_matrix",
]

_SIGNS = np.array(_HEX_CORNERS, dtype=float) * 2.0 - 1.0  # (8, 3) parent corners
_CHUNK = 20000  # cells per assembly batch, keeps peak memory bounded


def _grad_tables():
    """dN/dxi at the 2x2x2 Gauss points, (8 points, 8 nodes, 3)."""
    g = 1.0 / np.sqrt(3.0)
    pts = _SIGNS * g
    out = np.empty((8, 8, 3))
    for q, (xi, eta, zeta) in enumerate(pts):
        sx, sy, sz = _SIGNS[:, 0], _SIGNS[:, 1], _SIGNS[:, 2]
        out[q, :, 0] = 0.125 * sx * (1 + sy * eta) * (1 + sz * zeta)
        out[q, :, 1] = 0.125 * sy * (1 + sx * xi) * (1 + sz * zeta)
        out[q, :, 2] = 0.125 * sz * (1 + sx * xi) * (1 + sy * eta)
    return out


_GRADS = _grad_tables()


def _batch_gauss(xyz, grad):
    """Batched per-point geometry: dN/dx (nc, 8, 3) and detJ (nc,)."""
    jac = np.einsum("cai,aj->cij", xyz, grad)
    det = np.linalg.det(jac)
    inv = np.linalg.inv(jac)
    dndx = np.einsum("aj,cji->cai", grad, inv)
    return dndx, det


def _strain_matrix(dndx):
    """Voigt B (nc, 6, 24) for engineering shear, order xx yy zz yz xz xy."""
    nc = dndx.shape[0]
    b = np.zeros((nc, 6, 24))
    b[:, 0, 0::3] = dndx[:, :, 0]
    b[:, 1, 1::3] = dndx[:, :, 1]
    b[:, 2, 2::3] = dndx[:, :, 2]
    b[:, 3, 1::3] = dndx[:, :, 2]
    b[:, 3, 2::3] = dndx[:, :, 1]
    b[:, 4, 0::3] = dndx[:, :, 2]
    b[:, 4, 2::3] = dndx[:, :, 0]
    b[:, 5, 0::3] = dndx[:, :, 1]
    b[:, 5, 1::3] = dndx[:, :, 0]
    return b


def _batch_stiffness(xyz, cmats):
    ke = np.zeros((xyz.shape[0], 24, 24))
    for grad in _GRADS:
        dndx, det = _batch_gauss(xyz, grad)
        b = _strain_matrix(dndx)
        cb = np.einsum("cij,cja->cia", cmats, b)
        ke += np.einsum("c,cia,cib->cab", det, b, cb, optimize=True)
    return ke


def hex_stiffness(coords, cmat):
    """Stiffness of a single trilinear hex, (24, 24)."""
    return _batch_stiffness(coords[None], cmat[None])[0]


def stiffness_matrix(mesh, materials):
    """Global elastic stiffness and the per-cell Young modulus table.

    materials is a sequence indexed by the mesh region id.
    """
    cmats = np.stack([stiffness_tensor(m) for m in materials])
    youngs = np.array([m.young for m in materials])
    cell_young = youngs[mesh.regions]
    ndof = 3 * mesh.n_nodes
    k = sparse.csr_matrix((ndof, ndof))
    for start in range(0, mesh.n_cells, _CHUNK):
        cells = slice(start, min(start + _CHUNK, mesh.n_cells))
        conn = mesh.hexes[cells]
        ke = _batch_stiffness(mesh.points[conn], cmats[mesh.regions[cells]])
        dofs = (3 * conn[:, :, None] + np.arange(3)).reshape(-1, 24)
        rows = np.repeat(dofs, 24, axis=1).ravel()
        cols = np.tile(dofs, (1, 24)).ravel()
        k = k + sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    return k.tocsr(), cell_young


def divergence_forces(mesh, materials, cell_dp):
    """Nodal forces from a pore-pressure change: integral of biot*dp*grad(N).

    With tension-positive stress the residual reads K u - f; depletion
    (dp < 0) therefore pulls the surrounding rock inward.
    """
    alphas = np.array([m.biot for m in materials])
    scale = alphas[mesh.regions] * np.asarray(cell_dp, dtype=float)
    f = np.zeros((mesh.n_nodes, 3))
    for start in range(0, mesh.n_cells, _CHUNK):
        cells = slice(start, min(start + _CHUNK, mesh.n_cells))
        conn = mesh.hexes[cells]
        xyz = mesh.points[conn]
        fe = np.zeros((conn.shape[0], 8, 3))
        for grad in _GRADS:
            dndx, det = _batch_gauss(xyz, grad)
            fe += (scale[cells, None, None] * det[:, None, None]) * dndx
        np.add.at(f, conn, fe)
    return f.ravel()


@dataclass(frozen=True)
class InterfaceOps:
    """Precomputed interface operators shared by every solve step."""

    jump_csr: sparse.csr_matrix    # (3m, 3n): u -> area-averaged local jump
    coupling_csr: sparse.csr_matrix  # (3n, 3m): local traction -> residual force
    cols: np.ndarray               # (m, 24) displacement dofs per element
    jump: np.ndarray               # (m, 3, 24) dense local jump blocks
    areas: np.ndarray
    frames: np.ndarray
    l_ref: float

    @property
    def count(self):
        return self.areas.size


def interface_blocks(mesh) -> InterfaceOps:
    iset = mesh.interfaces
    m = iset.count
    ndof = 3 * mesh.n_nodes
    if m == 0:
        empty_j = sparse.csr_matrix((0, ndof))
        empty_c = sparse.csr_matrix((ndof, 0))
        return InterfaceOps(empty_j, empty_c, np.zeros((0, 24), dtype=int),
                            np.zeros((0, 3, 24)), np.zeros(0), np.zeros((0, 3, 3)), 1.0)

    dofs_top = (3 * iset.top_nodes[:, :, None] + np.arange(3)).reshape(m, 12)
    dofs_bot = (3 * iset.bottom_nodes[:, :, None] + np.arange(3)).reshape(m, 12)
    cols = np.concatenate([dofs_top, dofs_bot], axis=1)

    wn = iset.node_weights / iset.areas[:, None]          # (m, 4), sums to 1
    half = np.einsum("ea,exc->ecax", wn, iset.frames).reshape(m, 3, 12)
    jump = np.concatenate([half, -half], axis=2)          # top minus bottom

    rows = 3 * np.arange(m)[:, None, None] + np.arange(3)[None, :, None]
    rows = np.broadcast_to(rows, (m, 3, 24)).ravel()
    ccols = np.broadcast_to(cols[:, None, :], (m, 3, 24)).ravel()
    jump_csr = sparse.coo_matrix(
        (jump.ravel(), (rows, ccols)), shape=(3 * m, ndof)
    ).tocsr()
    cdata = (jump * iset.areas[:, None, None]).ravel()
    coupling_csr = sparse.coo_matrix(
        (cdata, (ccols, rows)), shape=(ndof, 3 * m)
    ).tocsr()
    l_ref = float(np.sqrt(np.median(iset.areas)))
    return InterfaceOps(jump_csr, coupling_csr, cols, jump, iset.areas.copy(),
                        iset.frames.copy(), l_ref)


def stab_matrix(mesh, cell_young, beta=1.0):
    """Edge-based jump penalty on neighbouring interface tractions.

    SPSD graph Laplacian with weight beta * edge_length / E_loc per shared
    edge, E_loc the harmonic mean of the four hexes touching the edge.
    Assembled in the area-integrated row convention; a consumer pairing it
    with facet-averaged jump rows must scale each row by 1/facet_area.
    """
    iset = mesh.interfaces
    m = iset.count
    if m == 0 or iset.edges.size == 0:
        return sparse.csr_matrix((m, m))
    i, j = iset.edges[:, 0], iset.edges[:, 1]
    stack = np.stack([iset.cell_top[i], iset.cell_bottom[i],
                      iset.cell_top[j], iset.cell_bottom[j]])
    e_loc = 4.0 / (1.0 / cell_young[stack]).sum(axis=0)
    w = beta * iset.edge_lengths / e_loc
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    data = np.concatenate([w, w, -w, -w])
    return sparse.coo_matrix((data, (rows, cols)), shape=(m, m)).tocsr()


def free_dof_mask(mesh):
    """Roller boundary conditions: normal dof fixed on the four side walls
    and the bottom; the top surface is free."""
    free = np.ones((mesh.n_nodes, 3), dtype=bool)
    for side, comp in (("xmin", 0), ("xmax", 0), ("ymin", 1), ("ymax", 1), ("zmin", 2)):
        free[mesh.boundary_node_mask((side,)), comp] = False
    return free.ravel()


@dataclass
class SystemBlocks:
    """Residuals and the state-dependent Jacobian blocks of one iterate."""

    r_u: np.ndarray
    r_t: np.ndarray
    d_block: sparse.csr_matrix | None  # d(r_t)/du
    e_block: sparse.csr_matrix | None  # d(r_t)/dt
    g_loc: np.ndarray                  # (m, 3) local jumps
    dg_slip: np.ndarray                # (m, 2) plastic increment (creep removed)


def assemble_system(ops: InterfaceOps, k_csr, u, t_loc, *, status, g_t_prev,
                    slip_acc_prev, d_ref, law, tols, stab, t_stab_ref, t0_loc,
                    dp_fault, f_div, want_jacobian=True) -> SystemBlocks:
    """Evaluate the coupled residual (and Jacobian blocks) at (u, t).

    Row recipes per interface element, all rows in meters:
      stick: absolute normal jump, then the tangential jump accumulated
             since the previously converged step;
      slip:  absolute normal jump, then (t_t - capacity*d_ref) scaled by
             l_ref/p_ref, with d_ref held fixed over the Newton pass (the
             caller realigns it with the converged slip increment between
             passes; a moving target direction makes Newton cycle);
      open:  all three traction components scaled by l_ref/p_ref.
    Constraint rows (stick rows, slip normal row) additionally carry the
    stabilization term acting on the per-step traction change.
    """
    m = ops.count
    t_loc = np.asarray(t_loc, dtype=float).reshape(m, 3)
    g_loc = (ops.jump_csr @ u).reshape(m, 3)
    dg_t = g_loc[:, 1:] - g_t_prev
    k_scale = ops.l_ref / tols.p_ref

    t_eff = t_loc - t0_loc
    t_eff[:, 0] -= dp_fault
    r_u = k_csr @ u + ops.coupling_csr @ t_eff.ravel() - f_div

    # the stabilized stick rows permit a small traction-driven creep; the
    # plastic slip increment removes that baseline, so it vanishes exactly
    # on converged stick rows and drives weakening only with genuine slip
    stab_term = stab @ (t_loc - t_stab_ref)
    dg_slip = dg_t + stab_term[:, 1:]
    d_hat, ds, _ = regularized_directions(dg_slip, d_ref)
    s_eval = slip_acc_prev + ds
    cap = np.atleast_1d(tau_max(law, t_loc[:, 0], s_eval))

    stick = status == STICK
    slip = status == SLIP
    opened = status == OPEN

    r_t = np.zeros((m, 3))
    r_t[stick, 0] = g_loc[stick, 0]
    r_t[stick, 1:] = dg_t[stick]
    r_t[slip, 0] = g_loc[slip, 0]
    r_t[slip, 1:] = (t_loc[slip, 1:] - cap[slip, None] * d_ref[slip]) * k_scale
    r_t[opened] = t_loc[opened] * k_scale

    row_mask = np.zeros((m, 3), dtype=bool)
    row_mask[stick] = True
    row_mask[slip, 0] = True
    r_t[row_mask] += stab_term[row_mask]

    if not want_jacobian:
        return SystemBlocks(r_u, r_t.ravel(), None, None, g_loc, dg_slip)

    ndof = u.size
    d_block = sparse.diags(row_mask.ravel().astype(float)) @ ops.jump_csr

    e_rows, e_cols, e_data = [], [], []
    sl = np.flatnonzero(slip)
    if sl.size:
        ns = sl.size
        jg = ops.jump[sl][:, 1:, :]                       # (ns, 2, 24)
        dh = d_hat[sl]
        dr = d_ref[sl]
        tn = t_loc[sl, 0]
        mu = np.atleast_1d(friction_coefficient(law, s_eval[sl]))
        dtau = np.where(tn < 0.0,
                        -tn * np.atleast_1d(friction_derivative(law, s_eval[sl])),
                        0.0)
        dmag = np.einsum("nj,njk->nk", dh, jg)            # d|dg|/du
        dts_du = dtau[:, None, None] * dr[:, :, None] * dmag[:, None, :]

        rows_t = (3 * sl[:, None, None] + np.array([[1], [2]])[None])
        rows_t = np.broadcast_to(rows_t, (ns, 2, 24)).ravel()
        cols_t = np.broadcast_to(ops.cols[sl][:, None, :], (ns, 2, 24)).ravel()
        d_slip = sparse.coo_matrix(
            ((-k_scale * dts_du).ravel(), (rows_t, cols_t)), shape=(3 * m, ndof)
        ).tocsr()
        d_block = d_block + d_slip

        # E: identity on the shear columns, capacity sensitivity on t_n
        mu_eff = np.where(tn < 0.0, mu, 0.0)
        e_rows.extend([3 * sl + 1, 3 * sl + 2, 3 * sl + 1, 3 * sl + 2])
        e_cols.extend([3 * sl + 1, 3 * sl + 2, 3 * sl, 3 * sl])
        e_data.extend([
            np.full(ns, k_scale), np.full(ns, k_scale),
            k_scale * mu_eff * dr[:, 0], k_scale * mu_eff * dr[:, 1],
        ])
        # the weakening driver's stab part depends on neighbor tractions
        if np.any(dtau != 0.0):
            sub = sparse.coo_matrix(stab.tocsr()[sl])
            if sub.nnz:
                le, lj, lv = sub.row, sub.col, sub.data
                for c in range(2):
                    for k in range(2):
                        e_rows.append(3 * sl[le] + 1 + c)
                        e_cols.append(3 * lj + 1 + k)
                        e_data.append(-k_scale * dtau[le] * dr[le, c]
                                      * dh[le, k] * lv)

    op = np.flatnonzero(opened)
    if op.size:
        for c in range(3):
            e_rows.append(3 * op + c)
            e_cols.append(3 * op + c)
            e_data.append(np.full(op.size, k_scale))

    if e_rows:
        e_block = sparse.coo_matrix(
            (np.concatenate(e_data),
             (np.concatenate(e_rows), np.concatenate(e_cols))),
            shape=(3 * m, 3 * m),
        ).tocsr()
    else:
        e_block = sparse.csr_matrix((3 * m, 3 * m))
    e_stab = sparse.kron(stab, sparse.eye(3), format="csr")
    e_block = e_block + sparse.diags(row_mask.ravel().astype(float)) @ e_stab

    return SystemBlocks(r_u, r_t.ravel(), d_block, e_block, g_loc, dg_slip)
