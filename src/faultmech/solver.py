"""Quasi-static stepping with an active-set Coulomb contact loop.

Each loading step re-solves equilibrium for the cumulative displacement
and the full interface traction under the current pore-pressure change,
holding the stick/slip/open partition fixed inside an exact Newton loop
and updating the partition outside it until it settles.

The linear solve eliminates the displacement block with a factorization
of the reduced stiffness (computed once; the partition only changes the
small traction rows), forming a dense Schur complement on the interface
unknowns.  A residual check guards the result; a singular or inaccurate
solve raises SolverError.
"""
from __future__ import annotations

import hashlib
import itertools
import json
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
    DIRECTION_EPS,
    OPEN,
    SLIP,
    STICK,
    ContactTols,
    classify_all,
)
from .constitutive import tau_max

__all__ = [
    "ContactSolver",
    "History",
    "SolverConfig",
    "SolverError",
    "StepInfo",
    "StepState",
]


class SolverError(RuntimeError):
    pass


# widest contention a snap-event search will enumerate (3^n partitions)
JUMP_MAX_SUPPORT = 6

# multiple of machine epsilon used to floor the force-balance convergence
# test at the roundoff level of the residual evaluation itself; on deep,
# stiff meshes (1e13-scale stiffness entries against 0.1 m displacements)
# the evaluated residual cannot drop below ~eps * |K||u| no matter how
# exact the linear solve is
RESIDUAL_EPS = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    """Newton / active-set / linear-solve controls.

    gap_atol is the absolute stop on interface rows (meters); it is what
    guarantees the reported constraint residuals meet the contact
    bookkeeping tolerances.  force_atol is the floor on the equilibrium
    block (newtons) once the relative reduction is exhausted.
    """

    newton_tol: float = 1.0e-6
    newton_max: int = 25
    activeset_max: int = 20
    linear_tol: float = 1.0e-10
    backtrack_factor: float = 0.5
    backtrack_max: int = 8
    stab_beta: float = 1.0
    gap_atol: float = 1.0e-11
    force_atol: float = 1.0e-4
    schur_chunk: int = 256
    align_tol: float = 1.0e-12
    substep_depth: int = 8


@dataclass
class StepState:
    """Converged state after a loading step (cumulative quantities).

    Every state a march records is a valid start state for the next step.
    States are never modified in place, so they may share arrays.
    """

    step: int
    u: np.ndarray
    t_loc: np.ndarray
    status: np.ndarray
    slip_acc: np.ndarray
    g_t_prev: np.ndarray     # tangential jump at the end of the step
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
    newton_residuals: list = field(default_factory=list)
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


def _fingerprint(mesh, materials, law, t0, config, tols):
    """SHA-256 of everything that defines the discrete model."""
    iset = mesh.interfaces
    digest = hashlib.sha256(
        repr((materials, law, config, tols, iset.fault_names)).encode())
    arrays = [mesh.points, mesh.hexes, mesh.regions, mesh.bounds, t0]
    arrays += [v for v in vars(iset).values() if isinstance(v, np.ndarray)]
    for a in arrays:
        digest.update(repr((a.dtype.str, a.shape)).encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class ContactSolver:
    """Owns the discrete operators and marches the loading schedule."""

    def __init__(self, mesh, materials, law, t0_loc, config: SolverConfig | None = None,
                 tols: ContactTols | None = None):
        self.mesh = mesh
        self.materials = list(materials)
        self.law = law
        self.config = config or SolverConfig()
        self.tols = tols or ContactTols()
        self.t0 = np.asarray(t0_loc, dtype=float).reshape(-1, 3)
        self.fingerprint = _fingerprint(mesh, self.materials, law, self.t0,
                                        self.config, self.tols)

        self.k_csr, cell_young = stiffness_matrix(mesh, self.materials)
        self.ops = interface_blocks(mesh)
        if self.ops.count != self.t0.shape[0]:
            raise ValueError("initial traction rows do not match interface count")
        lap = stab_matrix(mesh, cell_young, beta=self.config.stab_beta)
        if self.ops.count:
            # the edge penalty lives in the area-integrated row convention;
            # the constraint rows here are facet-averaged jumps in metres,
            # so scale each row by its facet area before the two meet (on
            # unit facets both conventions coincide, on field-scale facets
            # the unscaled operator would let stick rows creep by cm)
            self.stab = (sparse.diags(1.0 / self.ops.areas) @ lap).tocsr()
        else:
            self.stab = lap

        free = free_dof_mask(mesh)
        self.free_idx = np.flatnonzero(free)
        nfree = self.free_idx.size
        ndof = free.size
        p_free = sparse.csc_matrix(
            (np.ones(nfree), (self.free_idx, np.arange(nfree))), shape=(ndof, nfree)
        )
        self.k_ff = (p_free.T @ self.k_csr @ p_free).tocsc()
        self.lu = splu(self.k_ff)
        self.c_ff = (p_free.T @ self.ops.coupling_csr).tocsr()
        self.abs_k = abs(self.k_csr)
        self.abs_c = abs(self.ops.coupling_csr)

        m = self.ops.count
        if m:
            pos = np.full(ndof, -1, dtype=int)
            pos[self.free_idx] = np.arange(nfree)
            fdofs = np.unique(self.ops.cols)
            fdofs = fdofs[pos[fdofs] >= 0]
            self.fd_pos = pos[fdofs]
            self.p_fd = sparse.csc_matrix(
                (np.ones(fdofs.size), (fdofs, np.arange(fdofs.size))),
                shape=(ndof, fdofs.size),
            )
            self.y_sub = np.empty((fdofs.size, 3 * m))
            chunk = max(1, self.config.schur_chunk)
            for c0 in range(0, 3 * m, chunk):
                c1 = min(c0 + chunk, 3 * m)
                x = self.lu.solve(self.c_ff[:, c0:c1].toarray())
                self.y_sub[:, c0:c1] = x[self.fd_pos]
        else:
            self.fd_pos = np.zeros(0, dtype=int)
            self.p_fd = sparse.csc_matrix((ndof, 0))
            self.y_sub = np.zeros((0, 0))

    # ------------------------------------------------------------------

    def initial_state(self) -> StepState:
        m = self.ops.count
        tt = np.hypot(self.t0[:, 1], self.t0[:, 2])
        d_ref = np.tile([1.0, 0.0], (m, 1))
        ok = tt > 0.0
        d_ref[ok] = self.t0[ok, 1:] / tt[ok, None]
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
            g_t_prev=np.zeros((m, 2)),
            d_ref=d_ref,
            g_loc=np.zeros((m, 3)),
            dg_t=np.zeros((m, 2)),
            g_n_book=np.zeros(m),
            slip_acc_start=np.zeros(m),
        )

    # ------------------------------------------------------------------

    def _linear_solve(self, sys):
        ru_f = sys.r_u[self.free_idx]
        if self.ops.count == 0:
            return -self.lu.solve(ru_f), np.zeros(0)

        a = self.lu.solve(ru_f)
        d_fd = sys.d_block @ self.p_fd              # (3m, nfd)
        s_mat = sys.e_block.toarray() - d_fd @ self.y_sub
        rhs = d_fd @ a[self.fd_pos] - sys.r_t
        try:
            dt = dla.solve(s_mat, rhs)
        except dla.LinAlgError as exc:
            raise SolverError(f"Schur complement solve failed: {exc}") from exc
        du = -self.lu.solve(ru_f + self.c_ff @ dt)
        if not self._solve_ok(sys, ru_f, du, dt, d_fd):
            raise SolverError("Schur complement solve failed the residual check")
        return du, dt

    def _solve_ok(self, sys, ru_f, du, dt, d_fd):
        tol = self.config.linear_tol
        ku = self.k_ff @ du
        ct = self.c_ff @ dt
        res1 = np.linalg.norm(ku + ct + ru_f)
        scale1 = max(np.linalg.norm(ku), np.linalg.norm(ct), np.linalg.norm(ru_f), 1e-300)
        dd = d_fd @ du[self.fd_pos]
        et = sys.e_block @ dt
        res2 = np.linalg.norm(dd + et + sys.r_t)
        scale2 = max(np.linalg.norm(dd), np.linalg.norm(et), np.linalg.norm(sys.r_t), 1e-300)
        # absolute floors: a solve residual two decades below the convergence
        # tolerances cannot change any convergence decision
        ok1 = res1 <= tol * scale1 + 1e-2 * self.config.force_atol
        ok2 = res2 <= tol * scale2 + 1e-2 * self.config.gap_atol
        return ok1 and ok2

    # ------------------------------------------------------------------

    def _assemble(self, u, t, status, d_ref, slip_acc_start, g_t_prev, t_stab_ref,
                  dp_fault, f_div, want_jacobian):
        return assemble_system(
            self.ops, self.k_csr, u, t,
            status=status, g_t_prev=g_t_prev, slip_acc_prev=slip_acc_start,
            d_ref=d_ref, law=self.law, tols=self.tols, stab=self.stab,
            t_stab_ref=t_stab_ref, t0_loc=self.t0, dp_fault=dp_fault,
            f_div=f_div, want_jacobian=want_jacobian,
        )

    def _ru_roundoff(self, u, t, dp_fault, f_div):
        """Roundoff bound on the evaluated force residual, in newtons.

        Mirrors the residual recipe K u + C t_eff - f with absolute values,
        so the bound tracks the actual term magnitudes that cancel."""
        t_mag = np.abs(t) + np.abs(self.t0)
        if t_mag.size:
            t_mag[:, 0] += np.abs(dp_fault)
        acc = self.abs_k @ np.abs(u)
        acc += self.abs_c @ t_mag.ravel()
        acc += np.abs(f_div)
        return RESIDUAL_EPS * float(np.max(acc[self.free_idx], initial=0.0))

    def _newton(self, u, t, status, d_ref, slip_acc_start, g_t_prev, t_stab_ref,
                dp_fault, f_div):
        cfg = self.config
        norms = []
        su = st = 1.0
        ru0_inf = 0.0
        iters = 0
        m = self.ops.count
        for it in range(cfg.newton_max + 1):
            sys = self._assemble(u, t, status, d_ref, slip_acc_start, g_t_prev,
                                 t_stab_ref, dp_fault, f_div, True)
            ru_f = sys.r_u[self.free_idx]
            ru_inf = float(np.max(np.abs(ru_f), initial=0.0))
            rt_inf = float(np.max(np.abs(sys.r_t), initial=0.0))
            ru_atol = max(cfg.force_atol, self._ru_roundoff(u, t, dp_fault, f_div))
            if it == 0:
                # floor the merged-norm scales at the achievable evaluation
                # accuracy (sqrt(n) converts the per-entry bound to a 2-norm)
                # so a block already at rounding level cannot veto progress on
                # the other through the merit function
                su = max(float(np.linalg.norm(ru_f)),
                         np.sqrt(max(ru_f.size, 1)) * ru_atol)
                st = max(float(np.linalg.norm(sys.r_t)),
                         np.sqrt(max(sys.r_t.size, 1)) * cfg.gap_atol)
                ru0_inf = ru_inf
            phi = float(np.linalg.norm(ru_f)) / su + float(np.linalg.norm(sys.r_t)) / st
            norms.append(phi)
            if ru_inf <= max(ru_atol, cfg.newton_tol * ru0_inf) and rt_inf <= cfg.gap_atol:
                return u, t, sys, norms, iters
            if it == cfg.newton_max:
                raise SolverError(
                    f"Newton stalled after {it} iterations "
                    f"(|r_u|={ru_inf:.3e}, |r_t|={rt_inf:.3e})"
                )
            du, dt = self._linear_solve(sys)

            alpha = 1.0
            best = None
            for _ in range(cfg.backtrack_max + 1):
                u_try = u.copy()
                u_try[self.free_idx] += alpha * du
                t_try = t + alpha * dt.reshape(m, 3) if m else t
                trial = self._assemble(u_try, t_try, status, d_ref, slip_acc_start,
                                       g_t_prev, t_stab_ref, dp_fault, f_div, False)
                phi_try = (
                    float(np.linalg.norm(trial.r_u[self.free_idx])) / su
                    + float(np.linalg.norm(trial.r_t)) / st
                )
                if best is None or phi_try < best[0]:
                    best = (phi_try, u_try, t_try)
                if phi_try <= (1.0 - 1e-4 * alpha) * phi:
                    break
                alpha *= cfg.backtrack_factor
            if best[0] >= phi and phi > 0.0:
                raise SolverError(
                    f"line search failed to reduce the residual "
                    f"(phi={phi:.3e}, best trial={best[0]:.3e}, "
                    f"iter={it})"
                )
            _, u, t = best
            iters += 1
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------

    def solve_step(self, state: StepState, cell_dp, fault_dp, jump_ok=False):
        cfg = self.config
        m = self.ops.count
        f_div = divergence_forces(self.mesh, self.materials, cell_dp)
        dp_fault = np.zeros(m) if fault_dp is None else np.asarray(fault_dp, dtype=float)

        u = state.u
        t = state.t_loc
        status = state.status
        d_ref = state.d_ref.copy()
        t_stab_ref = state.t_loc
        frozen_slip = np.zeros(m, dtype=bool)
        flip_run = np.zeros(m, dtype=np.int64)
        contended = np.zeros(m, dtype=bool)
        seen = {(status.tobytes(), d_ref.tobytes(), frozen_slip.tobytes())}
        info = StepInfo()

        sweeps = 0
        jumped = False
        demote_queue = None
        cycle_status = cycle_d_ref = None
        stuck_reason = None
        while True:
            if sweeps >= cfg.activeset_max:
                stuck_reason = (
                    f"active set did not settle in {cfg.activeset_max} sweeps"
                )
            if stuck_reason is not None:
                # Last resort for a genuine snap event: past a limit load
                # the rate problem can lose its solution and the state has
                # to jump to a distant equilibrium.  Search the contended
                # elements for the nearest one, but only when the caller
                # has already cut the load increment as far as it will go.
                sel = None
                if jump_ok and not jumped and contended.any():
                    sel = self._jump_search(state, contended, t, t_stab_ref,
                                            dp_fault, f_div)
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
                seen = {(status.tobytes(), d_ref.tobytes(), frozen_slip.tobytes())}
                continue
            u, t, sys, norms, iters = self._newton(
                u, t, status, d_ref, state.slip_acc, state.g_t_prev, t_stab_ref,
                dp_fault, f_div,
            )
            info.newton_iters.append(iters)
            info.newton_residuals.append(norms)

            ds = np.hypot(sys.dg_slip[:, 0], sys.dg_slip[:, 1])
            moved = ds > DIRECTION_EPS
            d_conv = np.zeros((m, 2))
            d_conv[moved] = sys.dg_slip[moved] / ds[moved, None]

            # an increment opposing the enforced traction direction is
            # negative dissipation; the reversal rule sends those to stick
            new_status = classify_all(
                status, t, sys.g_loc[:, 0], sys.dg_slip, state.slip_acc, d_ref,
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
            cont = (new_status == SLIP) & (status == SLIP) & moved
            drift = cont & (np.einsum("ij,ij->i", d_conv, d_ref) < 1.0 - cfg.align_tol)
            if drift.any():
                d_ref[drift] = d_conv[drift]
                changed = True
            entering = (new_status == SLIP) & (status != SLIP)
            if entering.any():
                tt = np.hypot(t[:, 1], t[:, 2])
                ok = entering & (tt > 0.0)
                d_ref[ok] = t[ok, 1:] / tt[ok, None]
            if not changed:
                break
            status = new_status
            sweeps += 1
            fp = (status.tobytes(), d_ref.tobytes(), frozen_slip.tobytes())
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
                fp = (status.tobytes(), d_ref.tobytes(), frozen_slip.tobytes())
                seen = {fp}
                continue
            seen.add(fp)

        ds = np.hypot(sys.dg_slip[:, 0], sys.dg_slip[:, 1])
        slipping = status == SLIP
        slip_acc = state.slip_acc.copy()
        slip_acc[slipping] += ds[slipping]
        d_ref_new = d_ref.copy()
        upd = slipping & (ds > DIRECTION_EPS)
        d_ref_new[upd] = sys.dg_slip[upd] / ds[upd, None]
        r_rows = sys.r_t.reshape(m, 3) if m else np.zeros((0, 3))
        g_n_book = np.where(status == OPEN, sys.g_loc[:, 0], r_rows[:, 0])

        new_state = StepState(
            step=state.step + 1,
            u=u,
            t_loc=t,
            status=status,
            slip_acc=slip_acc,
            g_t_prev=sys.g_loc[:, 1:],
            d_ref=d_ref_new,
            g_loc=sys.g_loc,
            dg_t=sys.dg_slip,
            g_n_book=g_n_book,
            slip_acc_start=state.slip_acc,
        )
        return new_state, info

    def _jump_search(self, state, contended, t_now, t_stab_ref, dp_fault,
                     f_div):
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
        m = self.ops.count
        idx = np.nonzero(contended & (state.status != OPEN))[0]
        if idx.size == 0:
            return None
        tts_now = np.hypot(t_now[:, 1], t_now[:, 2])
        if idx.size > JUMP_MAX_SUPPORT:
            caps_now = tau_max(self.law, t_now[:, 0], state.slip_acc)
            ratio = tts_now[idx] / np.maximum(caps_now[idx], 1e-30)
            order = np.argsort(-ratio, kind="stable")
            idx = np.sort(idx[order[:JUMP_MAX_SUPPORT]])

        dirs = np.zeros((idx.size, 2))
        for k, e in enumerate(idx):
            if tts_now[e] > 0.0:
                dirs[k] = t_now[e, 1:] / tts_now[e]
            else:
                dirs[k] = state.d_ref[e]

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
                u_c, t_c, sys_c, _, _ = self._newton(
                    state.u, state.t_loc, status_c, d_c,
                    state.slip_acc, state.g_t_prev, t_stab_ref, dp_fault,
                    f_div,
                )
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
        np.savez(path, fingerprint=self.fingerprint, **values)

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

    def _advance(self, state, prev_cell, prev_fault, cell_dp, fault_dp, depth):
        """One load increment, bisecting the pressure interval on trouble.

        A full-size increment can reshuffle several interface elements at
        once and leave the partition sweep without any self-consistent
        answer; with a small enough increment the active set moves one
        element at a time and settles.  Substep states are real converged
        states, so accumulated slip follows the loading path.
        """
        try:
            return self.solve_step(state, cell_dp, fault_dp,
                                   jump_ok=depth >= self.config.substep_depth)
        except SolverError:
            if depth >= self.config.substep_depth:
                raise
        mid_cell = 0.5 * (prev_cell + cell_dp)
        mid_fault = 0.5 * (prev_fault + fault_dp)
        half, info_a = self._advance(state, prev_cell, prev_fault,
                                     mid_cell, mid_fault, depth + 1)
        full, info_b = self._advance(half, mid_cell, mid_fault,
                                     cell_dp, fault_dp, depth + 1)
        info = StepInfo(**{f.name: getattr(info_a, f.name) + getattr(info_b, f.name)
                           for f in fields(info_a)})
        merged = replace(
            full,
            step=state.step + 1,
            dg_t=half.dg_t + full.dg_t,
            slip_acc_start=state.slip_acc,
        )
        return merged, info

    def march(self, pressure, checkpoint=None, start_state=None, stop_after=None,
              progress=None) -> History:
        state = start_state if start_state is not None else self.initial_state()
        records = []
        if state.step == 0:
            state = replace(state, time=float(pressure.times[0]))
            records.append(state)
        last = pressure.n_steps if stop_after is None else min(stop_after, pressure.n_steps)
        m = self.ops.count
        for step in range(state.step + 1, last + 1):
            fld = pressure.field_at(step)
            prv = pressure.field_at(step - 1)
            cell_dp = np.asarray(fld.cell_dp, dtype=float)
            fault_dp = (np.zeros(m) if fld.fault_dp is None
                        else np.asarray(fld.fault_dp, dtype=float))
            prev_cell = np.asarray(prv.cell_dp, dtype=float)
            prev_fault = (np.zeros(m) if prv.fault_dp is None
                          else np.asarray(prv.fault_dp, dtype=float))
            try:
                state, info = self._advance(state, prev_cell, prev_fault,
                                            cell_dp, fault_dp, 0)
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
        return History(records)
