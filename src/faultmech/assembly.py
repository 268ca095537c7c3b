"""Global FEM operators and the interface residual/Jacobian.

Displacements are trilinear on hexahedra; interface tractions are
element-wise constant in each element's local frame.  The displacement
vector stores dofs as 3*node + component.  Interface unknowns stack as
3*element + local component (normal, then the two tangents).

Bulk equilibrium is incremental with respect to an assumed
self-equilibrated initial state: K u = G dp - C t_eff, where body forces
never appear, pressure enters through its change dp only (G is the load
operator of `divergence_forces`), and the interface term carries the
change of total traction t_eff = t - t0 - dp_fault * n.  The bulk is
linear, so the solver meets this exactly with its factorization of K;
`assemble_system` evaluates only the interface rows.  The constraint rows
read g + L dt = 0, with L the traction stabilization (`stab_matrix`) and
dt the traction change over the step, so the rows take the stabilized
jumps g_stab = J u + L dt and each depends on its own element alone.
With the jumps affine in the tractions, g_stab = g0 - (W - L) dt for the
interface compliance W = J K^-1 C, and the Newton matrix on the
tractions is E - D (W - L).
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


def divergence_forces(mesh, materials):
    """Pore-pressure load operator G, sparse (3n, n_cells), CSR.

    G @ cell_dp are the nodal forces of a cell-wise pressure change, the
    integral of biot*dp*grad(N) over each cell; column c holds cell c's
    24 entries (8 corners, 3 components), biot taken from the material of
    the cell's region.  With tension-positive stress the residual reads
    K u - G dp; depletion (dp < 0) therefore pulls the surrounding rock
    inward.  Every column sums to zero per component.
    """
    alphas = np.array([m.biot for m in materials])[mesh.regions]
    rows, cols, vals = [], [], []
    for start in range(0, mesh.n_cells, _CHUNK):
        cells = np.arange(start, min(start + _CHUNK, mesh.n_cells))
        conn = mesh.hexes[cells]
        ge = np.zeros((cells.size, 8, 3))
        for grad in _GRADS:
            dndx, det = _batch_gauss(mesh.points[conn], grad)
            ge += det[:, None, None] * dndx
        vals.append((alphas[cells, None, None] * ge).ravel())
        rows.append((3 * conn[:, :, None] + np.arange(3)).ravel())
        cols.append(np.repeat(cells, 24))
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(3 * mesh.n_nodes, mesh.n_cells),
    ).tocsr()


@dataclass(frozen=True)
class InterfaceOps:
    """Precomputed interface operators shared by every solve step."""

    jump_csr: sparse.csr_matrix    # (3m, 3n): u -> area-averaged local jump
    coupling_csr: sparse.csr_matrix  # (3n, 3m): local traction -> residual force
    areas: np.ndarray
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
        return InterfaceOps(empty_j, empty_c, np.zeros(0), 1.0)

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
    return InterfaceOps(jump_csr, coupling_csr, iset.areas.copy(), l_ref)


def stab_matrix(mesh, cell_young):
    """Edge-based jump penalty L on neighbouring interface tractions.

    Graph Laplacian with weight edge_length / E_loc per shared edge,
    E_loc the harmonic mean of the four hexes touching the edge.  Each row
    is divided by its facet area, matching the facet-averaged jump rows it
    is added to, so diag(areas) @ L is the symmetric positive semidefinite
    area-integrated form (on field-scale facets the unscaled penalty would
    let stick rows creep by cm).
    """
    iset = mesh.interfaces
    m = iset.count
    if m == 0 or iset.edges.size == 0:
        return sparse.csr_matrix((m, m))
    i, j = iset.edges[:, 0], iset.edges[:, 1]
    stack = np.stack([iset.cell_top[i], iset.cell_bottom[i],
                      iset.cell_top[j], iset.cell_bottom[j]])
    e_loc = 4.0 / (1.0 / cell_young[stack]).sum(axis=0)
    w = iset.edge_lengths / e_loc
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    data = np.concatenate([w, w, -w, -w])
    lap = sparse.coo_matrix((data, (rows, cols)), shape=(m, m)).tocsr()
    return (sparse.diags(1.0 / iset.areas) @ lap).tocsr()


def free_dof_mask(mesh):
    """Roller boundary conditions: normal dof fixed on the four side walls
    and the bottom; the top surface is free."""
    free = np.ones((mesh.n_nodes, 3), dtype=bool)
    for side, comp in (("xmin", 0), ("xmax", 0), ("ymin", 1), ("ymax", 1), ("zmin", 2)):
        free[mesh.boundary_node_mask((side,)), comp] = False
    return free.ravel()


@dataclass
class SystemBlocks:
    """Interface residual and its per-element Jacobian blocks at one iterate."""

    r_t: np.ndarray
    d_block: np.ndarray | None  # (m, 3, 3): d(r_t)/d(g_stab), element by element
    e_block: np.ndarray | None  # (m, 3, 3): d(r_t)/dt at fixed g_stab
    dg_slip: np.ndarray         # (m, 2) plastic increment (creep removed)


def assemble_system(ops: InterfaceOps, g_stab, t_loc, *, status, g_t_prev,
                    slip_acc_prev, d_ref, law, tols, want_jacobian=True) -> SystemBlocks:
    """Evaluate the interface residual (and Jacobian blocks) at (g_stab, t).

    g_stab are the stabilized local jumps J u + L (t - t_start), stacked
    like the tractions, with t_start the tractions at the start of the
    step; g_t_prev is the tangential jump converged at the previous step.
    Row recipes per interface element, all rows in meters:
      stick: stabilized normal jump, then the stabilized tangential jump
             accumulated since the previously converged step;
      slip:  stabilized normal jump, then (t_t - capacity*d_ref) scaled
             by l_ref/p_ref, with d_ref held fixed over the Newton pass
             (the caller realigns it with the converged slip increment
             between passes; a moving target direction makes Newton cycle);
      open:  all three traction components scaled by l_ref/p_ref.
    Every row depends on its own element's (g_stab, t) only, so both
    Jacobian blocks are block diagonal; with g_stab = g0 - (W - L) dt the
    Newton matrix is E - D (W - L).
    """
    m = ops.count
    t_loc = np.asarray(t_loc, dtype=float).reshape(m, 3)
    g_stab = np.asarray(g_stab, dtype=float).reshape(m, 3)
    k_scale = ops.l_ref / tols.p_ref

    # the stabilized stick rows permit a small traction-driven creep; the
    # plastic slip increment removes that baseline, so it vanishes exactly
    # on converged stick rows and drives weakening only with genuine slip
    dg_slip = g_stab[:, 1:] - g_t_prev
    d_hat, ds, _ = regularized_directions(dg_slip, d_ref)
    s_eval = slip_acc_prev + ds
    cap = np.atleast_1d(tau_max(law, t_loc[:, 0], s_eval))

    stick = status == STICK
    slip = status == SLIP
    opened = status == OPEN

    r_t = np.zeros((m, 3))
    r_t[stick, 0] = g_stab[stick, 0]
    r_t[stick, 1:] = dg_slip[stick]
    r_t[slip, 0] = g_stab[slip, 0]
    r_t[slip, 1:] = (t_loc[slip, 1:] - cap[slip, None] * d_ref[slip]) * k_scale
    r_t[opened] = t_loc[opened] * k_scale

    if not want_jacobian:
        return SystemBlocks(r_t.ravel(), None, None, dg_slip)

    # D: identity on the jump rows, capacity sensitivity on the slip rows;
    # E: the traction rows of slip and open elements
    d_block = np.zeros((m, 3, 3))
    e_block = np.zeros((m, 3, 3))
    d_block[stick] = np.eye(3)
    d_block[slip, 0, 0] = 1.0
    e_block[opened] = k_scale * np.eye(3)

    tn = t_loc[slip, 0]
    dr = d_ref[slip]
    dtau = np.where(tn < 0.0, -tn * friction_derivative(law, s_eval[slip]), 0.0)
    mu_eff = np.where(tn < 0.0, friction_coefficient(law, s_eval[slip]), 0.0)
    # d|dg_slip|/dg_t is the unit direction d_hat
    d_block[slip, 1:, 1:] = (-k_scale * dtau[:, None, None] * dr[:, :, None]
                             * d_hat[slip, None, :])
    e_block[slip, 1, 1] = k_scale
    e_block[slip, 2, 2] = k_scale
    e_block[slip, 1:, 0] = k_scale * mu_eff[:, None] * dr

    return SystemBlocks(r_t.ravel(), d_block, e_block, dg_slip)
