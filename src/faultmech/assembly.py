"""Global FEM operators and the interface residual/Jacobian.

Displacements are trilinear on hexahedra; interface tractions are
element-wise constant in each element's local frame.  The displacement
vector stores dofs as 3*node + component.  Interface unknowns stack as
3*element + local component (normal, then the two tangents).

Bulk equilibrium is incremental with respect to an assumed
self-equilibrated initial state: K u = G dp - C t_eff, where body forces
never appear, pressure enters through its change dp only (G is the load
operator of `divergence_forces`), and the interface term carries the
change of total traction t_eff = t - t0 - dp_fault * n.  J is the jump
operator of `interface_blocks`, u -> area-averaged local jump; the
coupling C = J^T diag(areas) is its area-weighted transpose and is not
stored separately.  The bulk is
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
from .mesh import _PARENT_CORNERS, _shape_gradients

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

# cells per assembly batch.  In stiffness_matrix it bounds the element
# matrices and their scatter positions; divergence_forces still concatenates
# every batch's entries, so there it bounds only the Gauss-point intermediates
_CHUNK = 2000
# dN/dxi at the 2x2x2 Gauss points, (8 points, 8 nodes, 3)
_GRADS = _shape_gradients(_PARENT_CORNERS / np.sqrt(3.0))


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

    materials is a sequence indexed by the mesh region id.  Every node pair
    that shares a cell owns one 3x3 block of K.  The element matrices are
    added into those blocks in batches of _CHUNK cells, in cell order.
    Beyond K itself, held twice during the final conversion to CSR, the
    workspace is one batch, and the cost is linear in the number of batches.
    """
    cmats = np.stack([stiffness_tensor(m) for m in materials])
    youngs = np.array([m.young for m in materials])
    cell_young = youngs[mesh.regions]
    n = mesh.n_nodes
    hexes = mesh.hexes.astype(np.int64)
    keys = np.unique(hexes[:, :, None] * n + hexes[:, None, :])  # pairs a*n + b, sorted
    blocks = np.zeros((keys.size, 3, 3))
    comp = np.arange(3)
    for start in range(0, mesh.n_cells, _CHUNK):
        cells = slice(start, min(start + _CHUNK, mesh.n_cells))
        conn = hexes[cells]
        ke = _batch_stiffness(mesh.points[conn], cmats[mesh.regions[cells]])
        slot = np.searchsorted(keys, conn[:, :, None] * n + conn[:, None, :])
        # entry (3p + i, 3q + j) of a cell lands at (i, j) of block slot[p, q]
        pos = 9 * slot[:, :, None, :, None] + 3 * comp[:, None, None] + comp
        np.add.at(blocks.reshape(-1), pos.ravel(), ke.ravel())
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    k = sparse.bsr_matrix((blocks, keys % n, indptr), shape=(3 * n, 3 * n)).tocsr()
    k.eliminate_zeros()  # the pattern holds every node pair; drop exact cancellations
    return k, cell_young


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
    """Precomputed interface operators shared by every solve step: the jump
    operator J, the facet areas, and the length scale l_ref of the traction
    rows.  The traction coupling is J^T diag(areas)."""

    jump_csr: sparse.csr_matrix    # (3m, 3n): u -> area-averaged local jump
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
        return InterfaceOps(sparse.csr_matrix((0, ndof)), np.zeros(0), 1.0)

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
    l_ref = float(np.sqrt(np.median(iset.areas)))
    return InterfaceOps(jump_csr, iset.areas.copy(), l_ref)


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
    Newton matrix is E - D (W - L).  For the same reason the rows may stack
    several copies of the interface: m is the number of traction rows, and
    only l_ref is read from ops.
    """
    t_loc = np.asarray(t_loc, dtype=float).reshape(-1, 3)
    m = t_loc.shape[0]
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
