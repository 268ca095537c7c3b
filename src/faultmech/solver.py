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

The reduced stiffness K_ff is SPD.  Its free dofs are numbered in the
geometric nested-dissection order of the mesh lattice
(mesh.dissection_order over Mesh.lattice, each node's dofs kept
together), and SuperLU factors it in that order as given, pivoting on the
diagonal.  Fill then stays in the separator planes, which cuts both the
factorization and the back-substitutions that build W.  Beyond that factor,
no set-up workspace grows with the mesh past a fixed block: K is assembled
in batches of cells (`assembly.stiffness_matrix`), and W is built from
SCHUR_CHUNK = 64 right-hand-side columns at a time, so its largest
transient is a few dense n_free x 64 blocks.

Each loading step solves the interface problem alone: an exact Newton
loop on the tractions with the stick/slip/open partition held fixed, and
partition sweeps outside it until the partition settles.  The pressure
load is linear in the cell pressure changes, so set-up also builds the
load operator G once (`divergence_forces`).  A loading step costs one
sparse mat-vec with it, f = G dp, plus one sparse back-substitution for
g0 and, once it converges, one more to record u at its tractions,
however often it bisects: a substep's start jumps are the converged
start state's jumps plus its share of the step's load response (the bulk
is linear), so they need no solve.  Every Newton iterate, line-search
trial, sweep and snap-search partition works on the dense interface
system only.  The Newton direction solves
(E - D (W - L)) dt = -r_t, with D and E per-element 3x3 blocks.  Set-up
LU-factors W - L once, raises SolverError when its estimated reciprocal
condition is below machine epsilon, and keeps its inverse.  The stick
rows and the slip normal rows of the Newton matrix are rows of -(W - L),
so an iterate factors only the r x r system of the other rows (two shear
rows per slip element, three per open one): O(3m r) to gather their rows
of the inverse, two mat-vecs with the inverse and O(r^3), instead of
O((3m)^3).  A residual check guards the direction, and an
inaccurate solve raises SolverError.

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
from .mesh import dissection_order

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

# right-hand-side columns per sparse solve when building W at set-up
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
    cycle_recoveries: int = 0
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
    """Block-diagonal (m, 3, 3) blocks times a stacked (3m,) vector."""
    return np.einsum("eab,eb->ea", blocks, x.reshape(-1, 3)).ravel()


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
        nodes = dissection_order(mesh.lattice)
        dofs = (3 * nodes[:, None] + np.arange(3)).ravel()
        # a permutation, not sorted: the free dofs in nested-dissection node order
        self.free_idx = dofs[free[dofs]]
        k_ff = k[self.free_idx][:, self.free_idx].tocsc()
        del k  # only the factor of K_ff is kept
        # K_ff is SPD: factor in that order as given, pivoting on the diagonal
        self.lu = splu(k_ff, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        del k_ff
        self.div_ff = divergence_forces(mesh, self.materials)[self.free_idx]
        self.j_ff = self.ops.jump_csr[:, self.free_idx].tocsr()
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
        u[self.free_idx] = self.lu.solve(f_ff - self.c_ff @ self._t_eff(state.t_loc, fault_dp))
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
        jump = (np.all(sys.d_block == np.eye(3), axis=2)
                & ~np.any(sys.e_block, axis=2)).ravel()
        rest = np.flatnonzero(~jump)
        d_rows = sys.d_block.reshape(3 * m, 3)
        e_rows = sys.e_block.reshape(3 * m, 3)
        # y = Y - D_R (r x 3m); the E and D rows of an R row touch only its
        # own element's three columns, so a row of Y is three rows of the
        # inverse weighted by its E entries
        cols = 3 * (rest // 3)[:, None] + np.arange(3)
        y = np.einsum("ik,ikj->ij", e_rows[rest], self.w_inv[cols])
        y[np.arange(rest.size)[:, None], cols] -= d_rows[rest]
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
        if not self._solve_ok(sys, dt):
            raise SolverError("interface solve failed the residual check")
        return dt

    def _solve_ok(self, sys, dt):
        dd = _blockmul(sys.d_block, self.w_stab @ dt)
        et = _blockmul(sys.e_block, dt)
        res = np.linalg.norm(et - dd + sys.r_t)
        scale = max(np.linalg.norm(dd), np.linalg.norm(et), np.linalg.norm(sys.r_t), 1e-300)
        # absolute floor: a solve residual two decades below the convergence
        # tolerance cannot change any convergence decision
        return res <= LINEAR_TOL * scale + 1e-2 * GAP_ATOL

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

    # ------------------------------------------------------------------

    def solve_step(self, state: StepState, cell_dp, fault_dp, jump_ok=False, g0=None):
        """One load increment from state to the load (cell_dp, fault_dp).

        g0 is the jumps at the start tractions under that load,
        g_load - W t_eff(t_start).  Without it the step solves g0 and, once
        converged, u: two sparse solves.  Given g0, it makes no sparse solve
        and returns u=None; `_advance` passes it and fills u itself.
        """
        m = self.ops.count
        direct = g0 is None
        if direct:
            f_ff = self.div_ff @ cell_dp
            g0 = self._start_jumps(state, f_ff, fault_dp)

        t = state.t_loc
        status = state.status
        d_ref = state.d_ref.copy()
        frozen_slip = np.zeros(m, dtype=bool)
        flip_run = np.zeros(m, dtype=np.int64)
        contended = np.zeros(m, dtype=bool)
        seen = {_partition_key(status, d_ref, frozen_slip)}
        info = StepInfo()

        sweeps = 0
        jumped = False
        demote_queue = None
        cycle_status = cycle_d_ref = None
        stuck_reason = None
        while True:
            if sweeps >= ACTIVESET_MAX:
                stuck_reason = f"active set did not settle in {ACTIVESET_MAX} sweeps"
            if stuck_reason is not None:
                # Last resort for a genuine snap event: past a limit load
                # the rate problem can lose its solution and the state has
                # to jump to a distant equilibrium.  Search the contended
                # elements for the nearest one, but only when the caller
                # has already cut the load increment as far as it will go.
                sel = None
                if jump_ok and not jumped and contended.any():
                    sel = self._jump_search(state, contended, t, g0)
                if sel is None:
                    raise SolverError(stuck_reason)
                status, d_ref = sel
                jumped = True
                info.jump_events += 1
                frozen_slip[:] = False
                flip_run[:] = 0
                demote_queue = None
                sweeps = 0
                stuck_reason = None
                seen = {_partition_key(status, d_ref, frozen_slip)}
                continue
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
                break
            status = new_status
            sweeps += 1
            fp = _partition_key(status, d_ref, frozen_slip)
            if fp in seen:
                # A revisited partition means the sweep map cycles.  The
                # usual culprit is a slipper that has to unload to stick
                # when a neighbour activates: its own increment stays
                # dissipation-consistent in every partition of the cycle,
                # so no elementwise rule ever demotes it.  Branch off the
                # cycle by demoting the current slippers one at a time
                # (smallest increment first).
                if demote_queue is None:
                    sl = np.nonzero(status == SLIP)[0]
                    demote_queue = list(sl[np.argsort(ds[sl])])
                    cycle_status = status.copy()
                    cycle_d_ref = d_ref.copy()
                while demote_queue and frozen_slip[demote_queue[0]]:
                    demote_queue.pop(0)
                if not demote_queue:
                    stuck_reason = "active set cycling between partitions"
                    continue
                e_dem = demote_queue.pop(0)
                status = cycle_status.copy()
                d_ref = cycle_d_ref.copy()
                status[e_dem] = STICK
                status[frozen_slip & (status != OPEN)] = SLIP
                info.cycle_recoveries += 1
                sweeps = 0
                seen = {_partition_key(status, d_ref, frozen_slip)}
                continue
            seen.add(fp)

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

        Every combination of stick / slip-forward / slip-backward over the
        contended set is solved with the partition frozen; a combination
        counts when every stick row ends inside the friction cone, every
        slip row dissipates along its enforced direction, and no closed
        row turns tensile.  Among those the one with the smallest largest
        slip increment is returned: the nearest equilibrium, matching how
        the rigid benchmark resolves a snap.  Combinations are capped, so
        a very wide contention returns None and the step fails upward.
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

        best = None
        best_score = np.inf
        for combo in itertools.product((0, 1, 2), repeat=idx.size):
            status_c = state.status.copy()
            d_c = state.d_ref.copy()
            for k, choice in enumerate(combo):
                e = idx[k]
                if choice == 0:
                    status_c[e] = STICK
                else:
                    status_c[e] = SLIP
                    d_c[e] = dirs[k] if choice == 1 else -dirs[k]
            try:
                t_c, sys_c, _, _ = self._newton(state.t_loc, status_c, d_c, state, g0)
            except SolverError:
                continue
            ds_c = np.hypot(sys_c.dg_slip[:, 0], sys_c.dg_slip[:, 1])
            slipping = status_c == SLIP
            caps_c = tau_max(self.law, t_c[:, 0],
                             state.slip_acc + np.where(slipping, ds_c, 0.0))
            tts_c = np.hypot(t_c[:, 1], t_c[:, 2])
            stick_rows = status_c == STICK
            if np.any(tts_c[stick_rows]
                      > caps_c[stick_rows] * (1.0 + self.tols.tol_tau)):
                continue
            dots = np.einsum("ij,ij->i", sys_c.dg_slip, d_c)
            if np.any(dots[slipping] < -1e-15):
                continue
            closed = status_c != OPEN
            if np.any(t_c[closed, 0] > self.tols.tol_t * self.tols.p_ref):
                continue
            score = float(np.max(ds_c, initial=0.0))
            if score < best_score:
                best_score = score
                best = (status_c, d_c)
        return best

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
