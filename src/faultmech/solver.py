"""Quasi-static stepping with an active-set Coulomb contact loop.

The bulk is linear elastic, so for given interface tractions the
cumulative displacement is exact: u = K^-1 (G dp - C t_eff).  The local
jumps are then affine in the tractions, g = g_load - W t_eff, with the
dense interface compliance W = J K^-1 C.  The constraint rows add the
traction stabilization L to the jumps, so Newton works on the one dense
operator W - L (x) I3 (3m x 3m), built once at set-up from one
factorization of the reduced stiffness: within a step that starts at
tractions t_start, the stabilized jumps are
g_stab = g0 - (W - L) (t - t_start), with g0 the jumps at t_start.

The reduced stiffness K_ff is SPD, and it is factored in an orthonormal
basis Q of the free dofs (`ContactSolver.basis`) adapted to the mesh's
mirror planes x = mid and y = mid.  Set-up takes the mirrors that the
points, regions and roller mask all admit exactly (mesh.mirror_maps); K
commutes with each of them, so Q^T K_ff Q is block diagonal, one block
per character of the mirror group (four when both planes mirror).  Each
block is formed alone, SCHUR_CHUNK basis columns at a time, and the
cross-block entries, rounding noise, are never formed.  Within a block
the columns follow the geometric nested-dissection order of the orbit
representatives (mesh.dissection_order over Mesh.lattice, each node's
dofs together), and SuperLU factors the block-diagonal matrix in that
order as given, pivoting on the diagonal; fill then stays in each block's
separator planes.  With no mirror, Q is that permutation of the free
dofs.  The load G, jumps J and coupling C are stored in the basis, u is
mapped back by Q, and W - L and the interface Newton stay in the
physical element basis.  Beyond that factor, no set-up workspace grows
with the mesh past a fixed block: K is assembled in batches of cells
(`assembly.stiffness_matrix`), and W is built from SCHUR_CHUNK = 64
right-hand-side columns at a time, so its largest transient is a few
dense n_free x 64 blocks.

Each loading step solves the interface problem alone: an exact Newton
loop on the tractions with the stick/slip/open partition held fixed, and
one pass of partition sweeps outside it until the partition settles; a
revisited partition fails the pass.  Once bisection has reached its limit,
a failed pass gets at most one snap retry.  The pressure
load is linear in the cell pressure changes, so set-up also builds the
load operator G once (`divergence_forces`).  A loading step costs one
sparse mat-vec with it, f = G dp, plus one sparse back-substitution for
g0 and, once it converges, one more to record u at its tractions,
however often it bisects: a substep's start jumps are the converged
start state's jumps plus its share of the step's load response (the bulk
is linear), so they need no solve.  Every Newton iterate, line-search
trial and sweep works on the dense interface system only.  The Newton
direction solves
(E - D (W - L)) dt = -r_t, with D and E per-element 3x3 blocks.  Set-up
LU-factors W - L once, raises SolverError when its estimated reciprocal
condition is below machine epsilon, and keeps its inverse.  The stick
rows and the slip normal rows of the Newton matrix are rows of -(W - L),
so an iterate factors only the r x r system of the other rows (two shear
rows per slip element, three per open one): O(3m r) to gather their rows
of the inverse, two mat-vecs with the inverse and O(r^3), instead of
O((3m)^3).  A residual check guards the direction, and an
inaccurate solve raises SolverError.

The snap-event search tries the 3^k stick / slip-forward / slip-backward
partitions of k <= JUMP_MAX_SUPPORT contended elements, all from the
same start tractions.  A row and its D and E blocks depend on its own
element alone, so the partitions share every row outside the k elements.
The search eliminates those rows once, leaving one 3k x 3k system per
partition, and takes the partitions' Newton steps JUMP_BLOCK at a time in
stacked solves, mat-muls and one stacked residual assembly.

A solver is built from the model alone, ContactSolver(mesh, materials,
law, t0_loc).  Its Newton, line-search, active-set and bisection controls
are the module constants below.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from scipy import linalg as dla
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import (
    assemble_system,
    divergence_forces,
    free_dof_mask,
    interface_blocks,
    stab_matrix,
    stiffness_matrix,
)
from .contact import (
    OPEN,
    SLIP,
    STICK,
    ContactTols,
    classify_all,
    regularized_directions,
)
from .constitutive import tau_max
from .mesh import dissection_order, mirror_maps

__all__ = [
    "ContactSolver",
    "History",
    "SolverError",
    "StepInfo",
    "StepState",
]


class SolverError(RuntimeError):
    pass


# widest contention a snap-event search will enumerate (3^n partitions)
JUMP_MAX_SUPPORT = 6
# snap-event partitions solved together in one stacked block
JUMP_BLOCK = 3**4

# columns per sparse solve or product at set-up: of C_ff when building W,
# of the basis when forming Q^T K_ff Q
SCHUR_CHUNK = 64

# Newton / active-set / linear-solve controls
NEWTON_MAX = 25
ACTIVESET_MAX = 20
LINEAR_TOL = 1.0e-10
BACKTRACK_FACTOR = 0.5
BACKTRACK_MAX = 8
# absolute stop on interface rows (m); it is what guarantees the reported
# constraint residuals meet the contact bookkeeping tolerances
GAP_ATOL = 1.0e-11
ALIGN_TOL = 1.0e-12
SUBSTEP_DEPTH = 8


@dataclass
class StepState:
    """Converged state after a loading step (cumulative quantities).

    Every state a march records is a valid start state for the next step.
    States are never modified in place, so they may share arrays.  u is
    None on a substep state: a loading step solves u once, for the state
    it returns, so march records and checkpoints only states with u.
    """

    step: int
    u: np.ndarray | None
    t_loc: np.ndarray
    status: np.ndarray
    slip_acc: np.ndarray
    d_ref: np.ndarray        # reference slip directions
    g_loc: np.ndarray        # kinematic local jumps
    dg_t: np.ndarray         # tangential slip increment of this step
    g_n_book: np.ndarray     # constraint-consistent normal gap
    slip_acc_start: np.ndarray
    time: float = 0.0        # schedule time, set by march
    info: StepInfo | None = None  # counters of the step that produced it


@dataclass
class StepInfo:
    newton_iters: list = field(default_factory=list)
    newton_residuals: list = field(default_factory=list)  # 2-norm of r_t (m) per iterate
    linear_fallbacks: int = 0  # always 0: nothing falls back; bench/tracing.py reads it
    cycle_recoveries: int = 0  # always 0: a cycle fails the pass; bench/tracing.py reads it
    jump_events: int = 0

    @property
    def activeset_iters(self):
        return len(self.newton_iters)


@dataclass
class History:
    records: list

    @property
    def final(self):
        return self.records[-1]


def _fingerprint(mesh, materials, law, t0):
    """SHA-256 of everything that defines the discrete model."""
    iset = mesh.interfaces
    digest = hashlib.sha256(repr((materials, law, iset.fault_names)).encode())
    arrays = [mesh.points, mesh.hexes, mesh.regions, mesh.bounds, t0]
    arrays += [v for v in vars(iset).values() if isinstance(v, np.ndarray)]
    for a in arrays:
        digest.update(repr((a.dtype.str, a.shape)).encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _field_arrays(pressure, step):
    """(cell_dp, fault_dp) of one step of a pressure source, as float arrays."""
    fld = pressure.field_at(step)
    return np.asarray(fld.cell_dp, dtype=float), np.asarray(fld.fault_dp, dtype=float)


def _partition_key(status, d_ref, frozen_slip):
    """Hashable identity of one sweep's partition, for cycle detection."""
    return status.tobytes(), d_ref.tobytes(), frozen_slip.tobytes()


def _blockmul(blocks, x):
    """Block-diagonal (..., m, 3, 3) blocks times stacked (..., 3m) vectors."""
    return np.einsum("...eab,...eb->...ea", blocks, x.reshape(blocks.shape[:-1])).reshape(x.shape)


def _jump_rows(d_block, e_block):
    """Flags the stacked rows of E - D (W - L) that are rows of -(W - L):
    a unit D row and a zero E row (every stick row, every slip normal row)."""
    return (np.all(d_block == np.eye(3), axis=-1) & ~np.any(e_block, axis=-1)).ravel()


def _solve_ok(d_block, e_block, r_t, dt, w_dt):
    """Residual check of Newton directions dt (..., 3m) against
    E - D (W - L), w_dt = (W - L) dt; one verdict per direction."""
    dd = _blockmul(d_block, w_dt)
    et = _blockmul(e_block, dt)
    res = np.linalg.norm(et - dd + r_t, axis=-1)
    scale = np.max([np.linalg.norm(x, axis=-1) for x in (dd, et, r_t)], axis=0)
    # absolute floor: a solve residual two decades below the convergence
    # tolerance cannot change any convergence decision
    return res <= LINEAR_TOL * np.maximum(scale, 1e-300) + 1e-2 * GAP_ATOL


def _mirror_basis(lattice, free, maps):
    """Orthonormal basis Q of the free dofs adapted to a group of mirrors.

    maps is {axis: node map} of commuting mirrors (`mirror_maps`).  They
    generate a group of signed dof permutations: a mirror across an axis
    moves each node's dofs to its image node and flips the displacement
    component along that axis.  A column of Q is the projection of one
    orbit representative's dof onto one character of the group, normalized;
    a zero projection gives no column.  An orbit's representative is its
    lowest node id in the upper quarter, 2 i_axis >= max i_axis on every
    mirrored axis (twins on a mirror plane share their indices).

    Returns (basis, sizes): basis is (n_free, n_free) CSC, its rows the free
    dofs in index order, its columns one block per character with sizes[c]
    columns, each block in the nested-dissection order of the representatives.
    An operator that commutes with every mirror is block diagonal in Q.
    With no mirror, Q is the nested-dissection permutation, one 1.0 per
    column.
    """
    axes = sorted(maps)
    images = [np.arange(lattice.shape[0])]
    for a in axes:
        images += [maps[a][im] for im in images]
    orbit = np.stack(images, axis=1)  # image under group element s; bit b of s flips axes[b]
    bits = (np.arange(orbit.shape[1])[:, None] >> np.arange(len(axes))) & 1
    top = lattice[:, axes].max(axis=0)
    upper = np.all(2 * lattice[:, axes] >= top, axis=1)
    rep = np.where(upper[orbit], orbit, orbit.shape[0]).min(axis=1)
    reps = np.flatnonzero(rep == np.arange(rep.size))
    reps = reps[dissection_order(lattice[reps])]
    node, comp = np.repeat(reps, 3), np.tile(np.arange(3), reps.size)
    keep = free[3 * node + comp]
    node, comp = node[keep], comp[keep]
    position = np.cumsum(free) - 1
    rows = position[3 * orbit[node] + comp[:, None]].ravel()
    cols = np.repeat(np.arange(node.size), orbit.shape[1])
    # sign of the dof of group element s: -1 per mirror that flips its component
    flips = np.where(comp[:, None] == np.array(axes, dtype=np.int64), -1.0, 1.0)
    blocks = []
    for chi in itertools.product((1.0, -1.0), repeat=len(axes)):
        factors = np.where(bits[None], (flips * np.array(chi))[:, None], 1.0)
        q = sparse.csc_matrix((np.prod(factors, axis=2).ravel(), (rows, cols)),
                              shape=(free.sum(), node.size))
        q.eliminate_zeros()
        q = q[:, np.diff(q.indptr) > 0]
        q.data /= np.repeat(np.sqrt(q.multiply(q).sum(axis=0)).A1, np.diff(q.indptr))
        blocks.append(q)
    return sparse.hstack(blocks, format="csc"), [q.shape[1] for q in blocks]


def _times_basis(a, basis):
    """a @ basis for a CSR a over the free dofs, each row's entries ordered
    by the first free dof of their basis column.  A CSR mat-vec sums a row
    in stored order, so with a permutation basis the product sums as a
    itself does."""
    a = (a @ basis).tocsr()
    first = basis.indices[basis.indptr[:-1]]
    order = np.lexsort((first[a.indices], np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))))
    return sparse.csr_matrix((a.data[order], a.indices[order], a.indptr), shape=a.shape)


class ContactSolver:
    """Owns the discrete operators and marches the loading schedule."""

    def __init__(self, mesh, materials, law, t0_loc):
        self.mesh = mesh
        self.materials = list(materials)
        self.law = law
        self.tols = ContactTols()
        self.t0 = np.asarray(t0_loc, dtype=float).reshape(-1, 3)
        self.fingerprint = _fingerprint(mesh, self.materials, law, self.t0)

        k, cell_young = stiffness_matrix(mesh, self.materials)
        self.ops = interface_blocks(mesh)
        if self.ops.count != self.t0.shape[0]:
            raise ValueError("initial traction rows do not match interface count")
        self.stab = stab_matrix(mesh, cell_young)

        free = free_dof_mask(mesh)
        self.free_idx = np.flatnonzero(free)
        self.basis, sizes = _mirror_basis(mesh.lattice, free, mirror_maps(mesh, free))
        k_ff = k[self.free_idx][:, self.free_idx].tocsc()
        del k  # only the factor of K_ff is kept
        # Q^T K_ff Q one diagonal block per character, SCHUR_CHUNK columns at
        # a time; the cross-block entries are rounding noise, never formed
        blocks, c0 = [], 0
        for size in sizes:
            q = self.basis[:, c0:c0 + size]
            blocks.append(sparse.hstack([q.T @ (k_ff @ q[:, b0:b0 + SCHUR_CHUNK])
                                         for b0 in range(0, size, SCHUR_CHUNK)]))
            c0 += size
        del k_ff
        # Q^T K_ff Q is SPD: factor in the basis order as given, pivoting on
        # the diagonal
        self.lu = splu(sparse.block_diag(blocks, format="csc"), permc_spec="NATURAL",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        del blocks
        # G, J and C in the basis; G's rows sum in cell order, as G's own do
        div_f = divergence_forces(mesh, self.materials)[self.free_idx]
        self.div_ff = (self.basis.T @ div_f).tocsr().sorted_indices()
        self.j_ff = _times_basis(self.ops.jump_csr[:, self.free_idx], self.basis)
        # C = J^T diag(areas): local traction -> nodal force
        self.c_ff = (self.j_ff.T @ sparse.diags(np.repeat(self.ops.areas, 3))).tocsc()
        n_t = 3 * self.ops.count
        l3 = sparse.kron(self.stab, sparse.eye(3), format="csc")
        self.w_stab = np.empty((n_t, n_t))
        for c0 in range(0, n_t, SCHUR_CHUNK):
            c1 = min(c0 + SCHUR_CHUNK, n_t)
            self.w_stab[:, c0:c1] = (self.j_ff @ self.lu.solve(self.c_ff[:, c0:c1].toarray())
                                     - l3[:, c0:c1].toarray())
        # W - L never changes: one factorization gives its inverse, and every
        # Newton iterate gathers rows of that inverse
        w_lu = dla.lu_factor(self.w_stab)
        if n_t:
            anorm = np.abs(self.w_stab).sum(axis=0).max()
            rcond = dla.lapack.dgecon(w_lu[0], anorm)[0]
            if rcond < np.finfo(float).eps:
                raise SolverError(
                    f"singular interface operator W - L: rcond = {rcond:.2e}, below "
                    f"machine epsilon")
        self.w_inv = dla.lu_solve(w_lu, np.eye(n_t))

    # ------------------------------------------------------------------

    def initial_state(self) -> StepState:
        m = self.ops.count
        d_ref, _, _ = regularized_directions(self.t0[:, 1:], np.tile([1.0, 0.0], (m, 1)))
        status = classify_all(
            np.full(m, STICK), self.t0, np.zeros(m), np.zeros((m, 2)),
            np.zeros(m), d_ref, self.law, self.tols,
        )
        return StepState(
            step=0,
            u=np.zeros(3 * self.mesh.n_nodes),
            t_loc=self.t0.copy(),
            status=status,
            slip_acc=np.zeros(m),
            d_ref=d_ref,
            g_loc=np.zeros((m, 3)),
            dg_t=np.zeros((m, 2)),
            g_n_book=np.zeros(m),
            slip_acc_start=np.zeros(m),
        )

    # ------------------------------------------------------------------

    def _t_eff(self, t, dp_fault):
        """Change of total traction since the initial state, stacked."""
        t_eff = t - self.t0
        t_eff[:, 0] -= dp_fault
        return t_eff.ravel()

    def _start_jumps(self, state, f_ff, fault_dp):
        """g0 = J K^-1 (f - C t_eff): the jumps at the state's tractions under
        the load f_ff = G dp (one sparse solve)."""
        return self.j_ff @ self.lu.solve(f_ff - self.c_ff @ self._t_eff(state.t_loc, fault_dp))

    def _with_u(self, state, f_ff, fault_dp):
        """state with u = K^-1 (f - C t_eff) at its tractions (one sparse solve)."""
        u = np.zeros(3 * self.mesh.n_nodes)
        b = f_ff - self.c_ff @ self._t_eff(state.t_loc, fault_dp)
        u[self.free_idx] = self.basis @ self.lu.solve(b)
        return replace(state, u=u)

    def _linear_solve(self, sys):
        """Newton direction on the tractions: (E - D (W - L)) dt = -r_t.

        Most rows of the Newton matrix are rows of -(W - L): the jump rows,
        whose D row is their own unit row and whose E row is zero (every
        stick row and the normal row of every slip element).  With
        v = (W - L) dt those rows read v_J = r_J.  The r other rows (slip
        shear, open) give, with Y = E_R (W - L)^-1, the r x r system
        (Y_R - D_RR) v_R = -r_R - (Y_J - D_RJ) v_J, and dt = (W - L)^-1 v
        with the inverse from set-up.  One step of iterative refinement on
        the full Newton system follows.  An iterate costs O(3m r) to gather
        Y from the inverse, two mat-vecs with the inverse and O(r^3) for
        the r x r factor; an all-stick iterate is the two mat-vecs alone.
        """
        m = self.ops.count
        jump = _jump_rows(sys.d_block, sys.e_block)
        rest = np.flatnonzero(~jump)
        y = self._rest_rows(sys.d_block, sys.e_block, rest)
        y_j = y[:, jump]
        rr_lu = dla.lu_factor(y[:, rest], check_finite=False)

        def solve(b):
            v = np.empty(3 * m)
            v[jump] = -b[jump]
            v[rest] = dla.lu_solve(rr_lu, b[rest] - y_j @ v[jump], check_finite=False)
            return self.w_inv @ v

        dt = solve(-sys.r_t)
        # one step of iterative refinement on the full Newton system
        dt += solve(-sys.r_t - _blockmul(sys.e_block, dt)
                    + _blockmul(sys.d_block, self.w_stab @ dt))
        if not _solve_ok(sys.d_block, sys.e_block, sys.r_t, dt, self.w_stab @ dt):
            raise SolverError("interface solve failed the residual check")
        return dt

    def _rest_rows(self, d_block, e_block, rows):
        """The given stacked rows of E (W - L)^-1 - D, (rows.size, 3m).

        The E and D rows of a row touch only its own element's three
        columns, so a row of E (W - L)^-1 is three rows of the inverse
        weighted by its E entries."""
        cols = 3 * (rows // 3)[:, None] + np.arange(3)
        y = np.einsum("ik,ikj->ij", e_block.reshape(-1, 3)[rows], self.w_inv[cols])
        y[np.arange(rows.size)[:, None], cols] -= d_block.reshape(-1, 3)[rows]
        return y

    # ------------------------------------------------------------------

    def _assemble(self, t, status, d_ref, state, g0, want_jacobian):
        """Interface rows at tractions t of the step that starts at state."""
        g_stab = g0 - self.w_stab @ (t - state.t_loc).ravel()
        return assemble_system(
            self.ops, g_stab, t,
            status=status, g_t_prev=state.g_loc[:, 1:], slip_acc_prev=state.slip_acc,
            d_ref=d_ref, law=self.law, tols=self.tols, want_jacobian=want_jacobian,
        )

    def _newton(self, t, status, d_ref, state, g0):
        """Newton on the tractions with the partition held fixed.

        Returns (t, sys, norms, iters).  The start point is assembled with
        its Jacobian blocks.  Each accepted line-search trial is carried
        forward as the next iterate, and its blocks are assembled only when
        another iterate follows, so the returned sys may lack them (d_block
        and e_block None); callers read only its r_t and dg_slip.
        """
        norms = []
        sys = self._assemble(t, status, d_ref, state, g0, True)
        for it in range(NEWTON_MAX + 1):
            phi = float(np.linalg.norm(sys.r_t))
            norms.append(phi)
            rt_inf = float(np.max(np.abs(sys.r_t), initial=0.0))
            if rt_inf <= GAP_ATOL:
                return t, sys, norms, it
            if it == NEWTON_MAX:
                raise SolverError(
                    f"Newton stalled after {it} iterations (|r_t|={rt_inf:.3e} m)")
            if sys.d_block is None:
                sys = self._assemble(t, status, d_ref, state, g0, True)
            dt = self._linear_solve(sys).reshape(t.shape)

            alpha = 1.0
            best = None
            for _ in range(BACKTRACK_MAX + 1):
                t_try = t + alpha * dt
                trial = self._assemble(t_try, status, d_ref, state, g0, False)
                phi_try = float(np.linalg.norm(trial.r_t))
                if best is None or phi_try < best[0]:
                    best = (phi_try, t_try, trial)
                if phi_try <= (1.0 - 1e-4 * alpha) * phi:
                    break
                alpha *= BACKTRACK_FACTOR
            if best[0] >= phi:
                raise SolverError(
                    f"line search failed to reduce the residual "
                    f"(|r_t|={phi:.3e} m, best trial={best[0]:.3e} m, iter={it})"
                )
            _, t, sys = best
        raise AssertionError("unreachable")

    def _sweep(self, t, status, d_ref, state, g0, contended, info):
        """One pass of partition sweeps from (t, status, d_ref).

        Each sweep runs Newton on the held partition, then reclassifies, pins
        and realigns; contended gains each element that toggled stick/slip or
        slips.  Returns (None, t, (sys, status, d_ref, d_conv, ds, g)) once a
        sweep keeps its partition, or (reason, t, None) at the last sweep's t
        when a partition recurs or ACTIVESET_MAX sweeps ran."""
        m = self.ops.count
        d_ref = d_ref.copy()
        frozen_slip = np.zeros(m, dtype=bool)
        flip_run = np.zeros(m, dtype=np.int64)
        seen = {_partition_key(status, d_ref, frozen_slip)}
        for _ in range(ACTIVESET_MAX):
            t, sys, norms, iters = self._newton(t, status, d_ref, state, g0)
            info.newton_iters.append(iters)
            info.newton_residuals.append(norms)
            # raw jumps J u = g_stab - L (t - t_start)
            dt_step = t - state.t_loc
            g = (g0 - self.w_stab @ dt_step.ravel()).reshape(m, 3) - self.stab @ dt_step

            d_conv, ds, still = regularized_directions(sys.dg_slip, d_ref)

            # an increment opposing the enforced traction direction is
            # negative dissipation; the reversal rule sends those to stick
            new_status = classify_all(
                status, t, g[:, 0], sys.dg_slip, state.slip_acc, d_ref,
                self.law, self.tols,
            )
            # an element that keeps toggling stick/slip sweep after sweep
            # is pinned to slip for the rest of the step; the realignment
            # below is then free to rotate its direction through the flip
            # that the stick bounce was hiding
            tog = (((status == STICK) & (new_status == SLIP))
                   | ((status == SLIP) & (new_status == STICK)))
            flip_run = np.where(tog, flip_run + 1, 0)
            frozen_slip |= flip_run >= 3
            force = frozen_slip & (new_status != OPEN)
            new_status[force] = SLIP
            contended |= tog | (new_status == SLIP)

            changed = bool(np.any(new_status != status))
            # realign pass directions with the increments the pass actually
            # produced; repeat until the fixed point
            cont = (new_status == SLIP) & (status == SLIP) & ~still
            drift = cont & (np.einsum("ij,ij->i", d_conv, d_ref) < 1.0 - ALIGN_TOL)
            if drift.any():
                d_ref[drift] = d_conv[drift]
                changed = True
            entering = (new_status == SLIP) & (status != SLIP)
            d_ref[entering] = regularized_directions(t[:, 1:], d_ref)[0][entering]
            if not changed:
                return None, t, (sys, status, d_ref, d_conv, ds, g)
            status = new_status
            fp = _partition_key(status, d_ref, frozen_slip)
            if fp in seen:
                return "active set cycling between partitions", t, None
            seen.add(fp)
        return f"active set did not settle in {ACTIVESET_MAX} sweeps", t, None

    # ------------------------------------------------------------------

    def solve_step(self, state: StepState, cell_dp, fault_dp, jump_ok=False, g0=None):
        """One load increment from state to the load (cell_dp, fault_dp).

        g0 is the jumps at the start tractions under that load,
        g_load - W t_eff(t_start).  Without it the step solves g0 and, once
        converged, u: two sparse solves.  Given g0, it makes no sparse solve
        and returns u=None; `_advance` passes it and fills u itself.

        The step is one sweep pass (`_sweep`).  A stuck pass raises
        SolverError, unless jump_ok and an element was contended: then one
        more pass runs from the partition the snap-event search picks.
        """
        direct = g0 is None
        if direct:
            f_ff = self.div_ff @ cell_dp
            g0 = self._start_jumps(state, f_ff, fault_dp)

        contended = np.zeros(self.ops.count, dtype=bool)
        info = StepInfo()
        reason, t, settled = self._sweep(state.t_loc, state.status, state.d_ref,
                                         state, g0, contended, info)
        if reason is not None and jump_ok and contended.any():
            # last resort for a genuine snap event: past a limit load the state may
            # have to jump to a distant equilibrium; once the caller has cut the load
            # increment fully, search the contended elements for the nearest one
            sel = self._jump_search(state, contended, t, g0)
            if sel is not None:
                info.jump_events += 1
                reason, t, settled = self._sweep(t, *sel, state, g0, contended, info)
        if reason is not None:
            raise SolverError(reason)
        sys, status, d_ref, d_conv, ds, g = settled

        # the last sweep left d_ref as it was, so its d_conv and ds still hold
        slipping = status == SLIP
        slip_acc = state.slip_acc.copy()
        slip_acc[slipping] += ds[slipping]
        d_ref_new = np.where(slipping[:, None], d_conv, d_ref)
        g_n_book = np.where(status == OPEN, g[:, 0], sys.r_t[0::3])

        new_state = StepState(
            step=state.step + 1,
            u=None,
            t_loc=t,
            status=status,
            slip_acc=slip_acc,
            d_ref=d_ref_new,
            g_loc=g,
            dg_t=sys.dg_slip,
            g_n_book=g_n_book,
            slip_acc_start=state.slip_acc,
        )
        if direct:
            new_state = self._with_u(new_state, f_ff, fault_dp)
        return new_state, info

    def _jump_search(self, state, contended, t_now, g0):
        """Enumerate partitions of the contended elements for a snap event.

        The set searched is the contended elements that are not open, or,
        past JUMP_MAX_SUPPORT of them, the JUMP_MAX_SUPPORT with the highest
        utilization |t_t| / capacity at t_now.  Every combination of
        stick / slip-forward / slip-backward over that set is solved from
        the start tractions with the partition frozen (`_partition_scores`);
        a combination counts when every stick row ends inside the friction
        cone, every slip row dissipates along its enforced direction, and
        no closed row turns tensile.  Among those the one with the smallest
        largest slip increment is returned as (status, d_ref), the first in
        `itertools.product` order on a tie: the nearest equilibrium,
        matching how the rigid benchmark resolves a snap.  None when no
        combination counts.
        """
        idx = np.nonzero(contended & (state.status != OPEN))[0]
        if idx.size == 0:
            return None
        if idx.size > JUMP_MAX_SUPPORT:
            caps_now = tau_max(self.law, t_now[:, 0], state.slip_acc)
            ratio = np.hypot(t_now[idx, 1], t_now[idx, 2]) / np.maximum(caps_now[idx], 1e-30)
            order = np.argsort(-ratio, kind="stable")
            idx = np.sort(idx[order[:JUMP_MAX_SUPPORT]])

        dirs, _, _ = regularized_directions(t_now[idx, 1:], state.d_ref[idx])

        # choice 0 sticks an element of idx, 1 slips it along dirs, 2 against
        status3 = np.repeat(state.status[None], 3, axis=0)
        status3[:, idx] = np.array([STICK, SLIP, SLIP])[:, None]
        d_ref3 = np.repeat(state.d_ref[None], 3, axis=0)
        d_ref3[1, idx] = dirs
        d_ref3[2, idx] = -dirs
        combos = np.array(list(itertools.product((0, 1, 2), repeat=idx.size)))
        scores = self._partition_scores(state, g0, idx, status3, d_ref3, combos)
        j = int(np.argmin(scores))
        if scores[j] == np.inf:
            return None
        choice = np.zeros(self.ops.count, dtype=np.intp)
        choice[idx] = combos[j]
        pick = (choice, np.arange(self.ops.count))
        return status3[pick], d_ref3[pick]

    def _partition_scores(self, state, g0, idx, status3, d_ref3, combos):
        """Score of every partition of `_jump_search`, inf where it does not count.

        Row c of status3 and d_ref3 is the partition with choice c on every
        element of idx; row p of combos picks a choice per element of idx.
        The score is the partition's largest slip increment.  A row and its
        D and E blocks depend on its own element's status and d_ref alone,
        so every partition's residual and blocks are gathers from the three
        assemblies of the rows of status3 and d_ref3, and the rows outside
        idx, the same in every partition, are eliminated once
        (`_partition_directions`).  JUMP_BLOCK partitions at a time then
        take their full Newton step, every trial is evaluated in one stacked
        assembly, and `_newton`'s stop applies.  Under constant friction a
        held partition is affine in t, so that step stops it; one that does
        not stop (slip weakening, a normal traction that changes sign) runs
        `_newton` as the sweeps do, and one whose system is exactly singular
        does not count.
        """
        m = self.ops.count
        sys3 = [self._assemble(state.t_loc, status3[c], d_ref3[c], state, g0, True)
                for c in range(3)]
        r3 = np.stack([sys_c.r_t.reshape(m, 3) for sys_c in sys3])
        d3 = np.stack([sys_c.d_block for sys_c in sys3])
        e3 = np.stack([sys_c.e_block for sys_c in sys3])
        directions = self._partition_directions(idx, sys3[0].r_t, d3[0], e3[0])

        scores = []
        for c0 in range(0, len(combos), JUMP_BLOCK):
            choice = np.zeros((min(JUMP_BLOCK, len(combos) - c0), m), dtype=np.intp)
            choice[:, idx] = combos[c0:c0 + JUMP_BLOCK]
            n = len(choice)
            pick = (choice, np.arange(m))
            status_c, d_c = status3[pick], d_ref3[pick]
            r, d_blk, e_blk = r3[pick].reshape(n, -1), d3[pick], e3[pick]

            # `_newton` from the start tractions: a start residual within
            # GAP_ATOL stops at once, any other after its full first step
            # when that step reduces the residual to within GAP_ATOL
            zero = np.max(np.abs(r), axis=1) <= GAP_ATOL
            dt, w_dt, solved = directions(r, d_blk, e_blk)
            dt[zero] = w_dt[zero] = 0.0
            t_c = state.t_loc + dt.reshape(n, m, 3)
            trial = assemble_system(
                self.ops, g0 - w_dt, t_c, status=status_c.ravel(),
                g_t_prev=np.tile(state.g_loc[:, 1:], (n, 1)),
                slip_acc_prev=np.tile(state.slip_acc, n), d_ref=d_c.reshape(-1, 2),
                law=self.law, tols=self.tols, want_jacobian=False)
            r_try = trial.r_t.reshape(n, -1)
            dg_c = trial.dg_slip.reshape(n, m, 2)
            found = zero | (solved & _solve_ok(d_blk, e_blk, r, dt, w_dt)
                            & (np.linalg.norm(r_try, axis=1)
                               <= (1.0 - 1e-4) * np.linalg.norm(r, axis=1))
                            & (np.max(np.abs(r_try), axis=1) <= GAP_ATOL))
            for p in np.flatnonzero(solved & ~found):
                try:
                    t_p, sys_p, _, _ = self._newton(state.t_loc, status_c[p], d_c[p], state, g0)
                except SolverError:
                    continue
                t_c[p], dg_c[p], found[p] = t_p, sys_p.dg_slip, True

            ds_c = np.hypot(dg_c[..., 0], dg_c[..., 1])
            slipping = status_c == SLIP
            caps_c = tau_max(self.law, t_c[..., 0],
                             state.slip_acc + np.where(slipping, ds_c, 0.0))
            outside_cone = ((status_c == STICK) & (np.hypot(t_c[..., 1], t_c[..., 2])
                                                   > caps_c * (1.0 + self.tols.tol_tau)))
            backward = slipping & (np.einsum("pij,pij->pi", dg_c, d_c) < -1e-15)
            tensile = (status_c != OPEN) & (t_c[..., 0] > self.tols.tol_t * self.tols.p_ref)
            valid = found & ~np.any(outside_cone | backward | tensile, axis=1)
            scores.append(np.where(valid, np.max(ds_c, axis=1, initial=0.0), np.inf))
        return np.concatenate(scores)

    def _partition_directions(self, idx, r_t, d_block, e_block):
        """Newton directions of partitions that differ only on the elements idx.

        r_t, d_block and e_block are one such partition's rows: its rows
        outside idx are those of every other.  With v = (W - L) dt and
        right-hand side b, the outside jump rows J read v_J = -b_J, as in
        `_linear_solve`, and the outside rest rows R read
        Y_J v_J + Y_R v_R + Y_I v_I = b_R, with Y = E_R (W - L)^-1 - D_R.
        One LU of Y_R serves every partition: v_R = a - Y_R^-1 Y_I v_I with
        a = Y_R^-1 (b_R - Y_J v_J).  Then

            dt = (W - L)^-1 (v_J, a, 0) + N v_I,  N = (W - L)^-1 (0, -Y_R^-1 Y_I, I),

        and the 3k rows of idx read (E_I N_I - D_I) v_I = b_I - E_I dt_I(v_I = 0),
        one 3k x 3k system per partition, E_I and D_I its blocks on idx.
        Every partition's first right-hand side -r_t is the same outside
        idx, so its (W - L)^-1 (v_J, a, 0) is one mat-vec per search.

        Returns directions(r, d_blk, e_blk) -> (dt, w_dt, solved): for
        stacked residuals r (n, 3m) and blocks (n, m, 3, 3), the directions
        dt (n, 3m) of (E - D (W - L)) dt = -r with `_linear_solve`'s one step
        of iterative refinement, and w_dt = (W - L) dt.  solved is False,
        and dt and w_dt are zero, where E_I N_I - D_I is exactly singular.
        """
        inside = (3 * idx[:, None] + np.arange(3)).ravel()
        outside = np.ones(3 * self.ops.count, dtype=bool)
        outside[inside] = False
        jump_rows = _jump_rows(d_block, e_block)
        jump = np.flatnonzero(jump_rows & outside)
        rest = np.flatnonzero(~jump_rows & outside)
        y = self._rest_rows(d_block, e_block, rest)
        y_lu = dla.lu_factor(y[:, rest], check_finite=False)
        y_j = y[:, jump]
        n_in = (self.w_inv[:, inside] - self.w_inv[:, rest]
                @ dla.lu_solve(y_lu, y[:, inside], check_finite=False))
        w_n_in = self.w_stab @ n_in
        n_ii = n_in[inside].reshape(idx.size, 3, inside.size)
        rows = np.arange(inside.size)
        cols = 3 * (rows // 3)[:, None] + np.arange(3)

        def solve(b, b_in, e_in, a_in):
            # b's rows outside idx, stacked or one row for all; b_in its rows on idx
            v = np.zeros_like(b)
            v[:, jump] = -b[:, jump]
            v[:, rest] = dla.lu_solve(y_lu, (b[:, rest] - v[:, jump] @ y_j.T).T,
                                      check_finite=False).T
            dt_out = v @ self.w_inv.T
            rhs = b_in - _blockmul(e_in, np.broadcast_to(dt_out[:, inside], b_in.shape))
            v_in = np.linalg.solve(a_in, rhs[..., None])[..., 0]
            return dt_out + v_in @ n_in.T, dt_out @ self.w_stab.T + v_in @ w_n_in.T

        def directions(r, d_blk, e_blk):
            e_in = e_blk[:, idx]
            a_in = np.einsum("pkab,kbc->pkac", e_in, n_ii).reshape(len(r), rows.size, -1)
            a_in[:, rows[:, None], cols] -= d_blk[:, idx].reshape(len(r), -1, 3)
            solved = np.linalg.slogdet(a_in)[0] != 0.0
            dt = np.zeros(r.shape)
            w_dt = np.zeros(r.shape)
            r, d_blk, e_blk, e_in, a_in = (x[solved] for x in (r, d_blk, e_blk, e_in, a_in))
            step, w_step = solve(-r_t[None], -r[:, inside], e_in, a_in)
            # one step of iterative refinement on the full Newton system
            b = -r - _blockmul(e_blk, step) + _blockmul(d_blk, w_step)
            fix, w_fix = solve(b, b[:, inside], e_in, a_in)
            dt[solved] = step + fix
            w_dt[solved] = w_step + w_fix
            return dt, w_dt, solved

        return directions

    # ------------------------------------------------------------------

    def _save_checkpoint(self, path, state: StepState):
        info = None if state.info is None else asdict(state.info)
        values = {f.name: getattr(state, f.name) for f in fields(StepState)}
        values["info"] = json.dumps(info)
        # write beside the target and rename: a crash mid-write keeps the
        # last good checkpoint, and the file lands at exactly `path`
        tmp = f"{os.fspath(path)}.tmp"
        with open(tmp, "wb") as fh:
            np.savez(fh, fingerprint=self.fingerprint, **values)
        os.replace(tmp, path)

    def load_checkpoint(self, path) -> StepState:
        """Read a state written by a march of a solver for the same model."""
        with np.load(path) as data:
            if "fingerprint" not in data or str(data["fingerprint"]) != self.fingerprint:
                raise SolverError(f"checkpoint {path} belongs to a different model")
            values = {f.name: data[f.name] for f in fields(StepState)}
        info = json.loads(str(values["info"]))
        values.update(step=int(values["step"]), time=float(values["time"]),
                      info=None if info is None else StepInfo(**info))
        return StepState(**values)

    def _advance(self, state, prev_cell, prev_fault, cell_dp, fault_dp, depth=0,
                 dg_load=None):
        """One load increment, bisecting the pressure interval on trouble.

        A full-size increment can reshuffle several interface elements at
        once and leave the partition sweep without any self-consistent
        answer; with a small enough increment the active set moves one
        element at a time and settles.  Substep states are real converged
        states, so accumulated slip follows the loading path.

        The bulk is linear, so at fixed tractions the jumps are affine in the
        load.  Depth 0 solves the start jumps g0, and dg_load =
        g0 - state.g_loc is what the step's load adds to them.  A later
        attempt starts from a converged state whose g_loc holds the jumps
        under its own load, so its g0 is that g_loc plus its share of
        dg_load, halved at each bisection, and needs no sparse solve.
        Attempts return u=None; depth 0 solves u once, for its own state.
        """
        if depth == 0:
            f_ff = self.div_ff @ cell_dp
            g0 = self._start_jumps(state, f_ff, fault_dp)
            dg_load = g0 - state.g_loc.ravel()
        else:
            g0 = state.g_loc.ravel() + dg_load
        try:
            new, info = self.solve_step(state, cell_dp, fault_dp,
                                        jump_ok=depth >= SUBSTEP_DEPTH, g0=g0)
        except SolverError:
            if depth >= SUBSTEP_DEPTH:
                raise
            mid_cell = 0.5 * (prev_cell + cell_dp)
            mid_fault = 0.5 * (prev_fault + fault_dp)
            half, info_a = self._advance(state, prev_cell, prev_fault,
                                         mid_cell, mid_fault, depth + 1, 0.5 * dg_load)
            full, info_b = self._advance(half, mid_cell, mid_fault,
                                         cell_dp, fault_dp, depth + 1, 0.5 * dg_load)
            info = StepInfo(**{f.name: getattr(info_a, f.name) + getattr(info_b, f.name)
                               for f in fields(info_a)})
            new = replace(
                full,
                step=state.step + 1,
                dg_t=half.dg_t + full.dg_t,
                slip_acc_start=state.slip_acc,
            )
        if depth == 0:
            new = self._with_u(new, f_ff, fault_dp)
        return new, info

    def march(self, pressure, checkpoint=None, start_state=None, stop_after=None,
              progress=None) -> History:
        state = start_state if start_state is not None else self.initial_state()
        records = []
        if state.step == 0:
            state = replace(state, time=float(pressure.times[0]))
            records.append(state)
        last = pressure.n_steps if stop_after is None else min(stop_after, pressure.n_steps)
        prev = _field_arrays(pressure, state.step)
        # an initial state has u = 0 and g_loc = 0, the answer to zero dp
        if state.step == 0 and (np.any(prev[0]) or np.any(prev[1])):
            raise ValueError("step 0: the pressure source must start at zero dp")
        for step in range(state.step + 1, last + 1):
            cur = _field_arrays(pressure, step)
            try:
                state, info = self._advance(state, *prev, *cur)
            except SolverError as exc:
                if checkpoint is not None:
                    self._save_checkpoint(checkpoint, state)
                raise SolverError(f"step {step}: {exc}") from exc
            state = replace(state, step=step, time=float(pressure.times[step]), info=info)
            records.append(state)
            if checkpoint is not None:
                self._save_checkpoint(checkpoint, state)
            if progress is not None:
                progress(step, state, info)
            prev = cur
        return History(records)
