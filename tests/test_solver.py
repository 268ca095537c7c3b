"""Quasi-static stepping: Newton, active set, linear solve, marching."""
from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from faultmech import assembly as assembly_module
from faultmech import solver as solver_module
from faultmech.assembly import (
    assemble_system,
    divergence_forces,
    free_dof_mask,
    stiffness_matrix,
)
from faultmech.constitutive import ElasticMaterial, FrictionLaw, tau_max
from faultmech.contact import OPEN, SLIP, STICK, kkt_report
from faultmech.mesh import AxisSegment, DomainSpec, FaultSpec, build_structured_domain
from faultmech.pressure import PressureField
from faultmech.scenario import build_conceptual_model
from faultmech.solver import ContactSolver, SolverError, StepState

MAT = ElasticMaterial("rock", 2400.0, 10.0e9, 0.25)
STRONG = FrictionLaw("constant", 0.6, 0.6, 1.0, 2.0e6)
WEAK = FrictionLaw("constant", 0.1, 0.1, 1.0, 1.0e3)


def _mesh_two_columns(nz=4, h=1.0, ny=2):
    # with one cell in y every node sits on a y-roller wall
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 1.0, "uniform", h), AxisSegment(1.0, 2.0, "uniform", h)],
        y_segments=[AxisSegment(0.0, 1.0, "uniform", h / ny)],
        z_segments=[AxisSegment(-nz * h, 0.0, "uniform", h)],
        faults=[FaultSpec("F", "x", 1.0, 0.0, 1.0, -nz * h, 0.0)],
    )
    return build_structured_domain(spec)


def _uniform_t0(mesh, t_n=-10.0e6, t_t=0.0):
    m = mesh.interfaces.count
    t0 = np.zeros((m, 3))
    t0[:, 0] = t_n
    t0[:, 2] = t_t
    return t0


class StepsPressure:
    """Duck-typed pressure source driven by explicit per-step cell values."""

    def __init__(self, mesh, series, fault_dp=None):
        self.series = [np.zeros(mesh.n_cells)] + [np.asarray(s, dtype=float) for s in series]
        self.times = np.arange(len(self.series), dtype=float)
        self.m = mesh.interfaces.count
        self.fault_dp = fault_dp

    @property
    def n_steps(self):
        return len(self.series) - 1

    def field_at(self, step):
        fdp = np.zeros(self.m) if self.fault_dp is None else self.fault_dp[step]
        return PressureField(self.series[step], fdp)


def test_zero_pressure_step_keeps_state():
    mesh = _mesh_two_columns()
    solver = ContactSolver(mesh, [MAT], STRONG, _uniform_t0(mesh))
    s0 = solver.initial_state()
    s1, info = solver.solve_step(s0, np.zeros(mesh.n_cells), np.zeros(mesh.interfaces.count))
    assert np.array_equal(s1.u, s0.u)
    assert np.array_equal(s1.t_loc, s0.t_loc)
    assert np.array_equal(s1.status, s0.status)
    assert info.newton_iters[-1] == 0


def test_oedometer_patch_uniform_depletion():
    # uniform depletion with roller walls: exact 1D vertical strain,
    # undisturbed by a pass-through vertical fault
    mesh = _mesh_two_columns(nz=3)
    solver = ContactSolver(mesh, [MAT], STRONG, _uniform_t0(mesh))
    dp = -1.0e6
    s0 = solver.initial_state()
    s1, info = solver.solve_step(
        s0, np.full(mesh.n_cells, dp), np.zeros(mesh.interfaces.count)
    )
    lam, g = MAT.lame_lambda, MAT.shear_modulus
    eps_zz = MAT.biot * dp / (lam + 2.0 * g)
    z0 = mesh.bounds[0][2]
    u = s1.u.reshape(-1, 3)
    expected_uz = eps_zz * (mesh.points[:, 2] - z0)
    np.testing.assert_allclose(u[:, 2], expected_uz, rtol=1e-8, atol=1e-14)
    np.testing.assert_allclose(u[:, :2], 0.0, atol=1e-12)
    # fault stays fully bonded with the exact traction increment
    assert np.all(s1.status == STICK)
    assert np.all(s1.slip_acc == 0.0)
    # sealing fault: traction change is the total-stress change sigma'_xx - biot*dp
    dt_n = lam * eps_zz - MAT.biot * dp
    np.testing.assert_allclose(s1.t_loc[:, 0] - s0.t_loc[:, 0], dt_n, rtol=1e-8)
    np.testing.assert_allclose(s1.t_loc[:, 1:], 0.0, atol=1.0)
    assert np.max(np.abs(s1.g_n_book)) <= 1e-10


def test_differential_depletion_slips_weak_fault():
    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    dp_cells = np.where(left, -5.0e6, 0.0)

    strong = ContactSolver(mesh, [MAT], STRONG, _uniform_t0(mesh))
    st1 = strong.march(StepsPressure(mesh, [dp_cells])).final
    assert np.all(st1.status == STICK)

    weak = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    s1 = weak.march(StepsPressure(mesh, [dp_cells])).final
    slipping = s1.status == SLIP
    assert slipping.any()
    assert np.all(s1.slip_acc[slipping] > 0.0)
    # depleted (bottom) side settles: the fault's net jump points up and
    # the top element, where the relative motion is largest, moves up
    assert s1.dg_t[slipping, 1].sum() > 0.0
    assert slipping[-1] and s1.dg_t[-1, 1] > 0.0
    # sliding friction opposes the motion on whichever side it ends up
    moved = slipping & (np.hypot(s1.dg_t[:, 0], s1.dg_t[:, 1]) > 1e-12)
    assert np.all(np.sign(s1.t_loc[moved, 2]) == np.sign(s1.dg_t[moved, 1]))
    # capacity equality on sliding elements
    cap = tau_max(WEAK, s1.t_loc[slipping, 0], s1.slip_acc[slipping])
    tt = np.hypot(s1.t_loc[slipping, 1], s1.t_loc[slipping, 2])
    np.testing.assert_allclose(tt, cap, rtol=1e-8)
    # sticking elements stay inside the cone
    if (~slipping).any():
        caps = tau_max(WEAK, s1.t_loc[~slipping, 0], s1.slip_acc[~slipping])
        tts = np.hypot(s1.t_loc[~slipping, 1], s1.t_loc[~slipping, 2])
        assert np.all(tts <= caps * (1.0 + 1e-8))


def test_kkt_clean_after_slip():
    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    s1 = solver.march(StepsPressure(mesh, [np.where(left, -5.0e6, 0.0)])).final
    rep = kkt_report(
        s1.status, s1.t_loc, s1.g_n_book, s1.dg_t, s1.slip_acc_start, WEAK, solver.tols
    )
    assert rep.ok(1e-2, 1e-10, 1e-6, 1e-6, 1e-8), rep


def test_recorded_displacement_is_in_force_balance():
    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    cell_dp = np.where(left, -5.0e6, 0.0)
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    s1 = solver.march(StepsPressure(mesh, [cell_dp])).final
    assert np.any(s1.status == SLIP)
    free = solver.free_idx
    k_ff = stiffness_matrix(mesh, [MAT])[0][free][:, free]
    f_f = (divergence_forces(mesh, [MAT]) @ cell_dp)[free]
    t_eff = s1.t_loc - solver.t0  # sealing fault: no fault pressure
    ku = k_ff @ s1.u[free]
    c = solver.ops.jump_csr.T @ sparse.diags(np.repeat(solver.ops.areas, 3))
    res = ku + (c @ t_eff.ravel())[free] - f_f
    assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(ku), np.linalg.norm(f_f))
    np.testing.assert_array_equal(np.delete(s1.u, free), 0.0)


def _buried_fault_mesh():
    # the fault's perimeter nodes stay unsplit, so W has a kernel
    seg = [AxisSegment(0.0, 1.0, "uniform", 0.25), AxisSegment(1.0, 2.0, "uniform", 0.25)]
    spec = DomainSpec(
        x_segments=seg,
        y_segments=[AxisSegment(0.0, 2.0, "uniform", 0.25)],
        z_segments=[AxisSegment(-2.0, 0.0, "uniform", 0.25)],
        faults=[FaultSpec("F", "x", 1.0, 0.5, 1.5, -1.5, -0.5)],
    )
    return build_structured_domain(spec)


@pytest.mark.parametrize("build", [_mesh_two_columns, _buried_fault_mesh])
def test_interface_compliance_is_area_symmetric_and_psd(build):
    mesh = build()
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    w = solver.w_stab + sparse.kron(solver.stab, np.eye(3)).toarray()
    aw = np.repeat(solver.ops.areas, 3)[:, None] * w
    scale = np.abs(aw).max()
    assert scale > 0.0
    assert np.abs(aw - aw.T).max() <= 1e-12 * scale
    eig = np.linalg.eigvalsh(0.5 * (aw + aw.T))
    assert eig.min() >= -1e-12 * eig.max()


def _buried_fault_step(dp):
    mesh = _buried_fault_mesh()
    left = mesh.cell_centroids()[:, 0] < 1.0
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    s1 = solver.march(StepsPressure(mesh, [np.where(left, dp, 0.0)])).final
    rep = kkt_report(
        s1.status, s1.t_loc, s1.g_n_book, s1.dg_t, s1.slip_acc_start, WEAK, solver.tols
    )
    assert rep.ok(1e-2, 1e-10, 1e-6, 1e-6, 1e-8), rep
    return s1


def test_buried_fault_moderate_depletion_sticks():
    s1 = _buried_fault_step(-5.0e6)
    assert s1.step == 1
    assert np.all(s1.status == STICK)


@pytest.mark.xfail(strict=True, raises=SolverError, reason=(
    "ROADMAP item 1: on the buried fault, whose perimeter nodes stay unsplit, "
    "step 1 fails with 'active set did not settle in 20 sweeps' after the "
    "full bisection depth"))
def test_buried_fault_strong_depletion_converges():
    assert _buried_fault_step(-10.0e6).step == 1


def _sorted_order_solver(monkeypatch, mesh, law):
    """The solver as it factors without the dissection order: free dofs
    sorted, SuperLU's default column ordering."""
    with monkeypatch.context() as mp:
        mp.setattr(solver_module, "dissection_order", lambda lattice: np.arange(len(lattice)))
        mp.setattr(solver_module, "splu", lambda a, **kwargs: splu(a))
        ref = ContactSolver(mesh, [MAT], law, _uniform_t0(mesh))
    np.testing.assert_array_equal(ref.free_idx, np.flatnonzero(free_dof_mask(mesh)))
    return ref


# the load slips the through-going fault and leaves the buried one stuck
@pytest.mark.parametrize("build, slips", [(_mesh_two_columns, True), (_buried_fault_mesh, False)])
def test_dissection_order_matches_sorted_order_reference(build, slips, monkeypatch):
    mesh = build()
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    ref = _sorted_order_solver(monkeypatch, mesh, WEAK)
    assert not np.array_equal(solver.free_idx, ref.free_idx)
    np.testing.assert_array_equal(np.sort(solver.free_idx), ref.free_idx)
    scale = np.abs(ref.w_stab).max()
    assert np.abs(solver.w_stab - ref.w_stab).max() <= 1e-12 * scale

    cell_dp = np.where(mesh.cell_centroids()[:, 0] < 1.0, -5.0e6, 0.0)
    s1 = solver.march(StepsPressure(mesh, [cell_dp])).final
    r1 = ref.march(StepsPressure(mesh, [cell_dp])).final
    assert np.any(r1.status == SLIP) == slips
    np.testing.assert_array_equal(s1.status, r1.status)
    assert np.abs(s1.u - r1.u).max() <= 1e-12 * np.abs(r1.u).max()


def test_dissection_order_fills_less_than_default_order():
    seg = [AxisSegment(0.0, 5.0, "uniform", 1.0), AxisSegment(5.0, 10.0, "uniform", 1.0)]
    spec = DomainSpec(
        x_segments=seg,
        y_segments=[AxisSegment(0.0, 10.0, "uniform", 1.0)],
        z_segments=[AxisSegment(-10.0, 0.0, "uniform", 1.0)],
        faults=[FaultSpec("F", "x", 5.0, 2.0, 8.0, -8.0, -2.0)],
    )
    mesh = build_structured_domain(spec)
    assert mesh.n_cells == 1000
    solver = ContactSolver(mesh, [MAT], STRONG, _uniform_t0(mesh))
    free = np.flatnonzero(free_dof_mask(mesh))
    plain = splu(stiffness_matrix(mesh, [MAT])[0][free][:, free].tocsc())
    assert solver.lu.nnz < plain.nnz


def test_newton_quadratic_tail():
    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    hist = solver.march(StepsPressure(mesh, [np.where(left, -5.0e6, 0.0)]))
    norms = hist.records[-1].info.newton_residuals[-1]
    assert len(norms) >= 2
    # superlinear contraction at the end of the sequence
    assert norms[-1] <= 1e-2 * norms[-2] or norms[-1] == 0.0


@pytest.fixture(scope="module")
def r16_model():
    return build_conceptual_model(resolution=16.0)


def _setup_warnings(mesh, materials, law, t0):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ContactSolver(mesh, materials, law, t0)
    return [(w.category, str(w.message)) for w in caught]


def test_singular_interface_operator_is_reported_once_at_setup(r16_model):
    # one cell in y puts every node on a y-roller, so W - L is singular
    one = _mesh_two_columns(ny=1)
    with pytest.raises(SolverError, match="^singular interface operator W - L: rcond = "):
        ContactSolver(one, [MAT], WEAK, _uniform_t0(one))
    two = _mesh_two_columns()
    assert _setup_warnings(two, [MAT], WEAK, _uniform_t0(two)) == []
    buried = _buried_fault_mesh()
    assert _setup_warnings(buried, [MAT], WEAK, _uniform_t0(buried)) == []
    m = r16_model
    assert _setup_warnings(m.mesh, m.materials, m.law, m.t0_local) == []


def _random_newton_system(solver, law, rng, p_stick, p_slip):
    """Interface rows at a random partition and iterate of a scenario model."""
    m = solver.ops.count
    status = rng.choice([STICK, SLIP, OPEN], size=m, p=[p_stick, p_slip, 1.0 - p_stick - p_slip])
    t = solver.t0 + rng.normal(scale=1.0e5, size=(m, 3))
    ang = rng.uniform(0.0, 2.0 * np.pi, m)
    sys = assemble_system(
        solver.ops, rng.normal(scale=1.0e-4, size=3 * m), t, status=status,
        g_t_prev=rng.normal(scale=1.0e-4, size=(m, 2)),
        slip_acc_prev=rng.uniform(0.0, 2.0 * law.dc, m),
        d_ref=np.column_stack([np.cos(ang), np.sin(ang)]), law=law, tols=solver.tols,
    )
    return status, sys


@pytest.mark.parametrize("variant", [1, 2])
def test_condensed_solve_matches_the_direct_solve(r16_model, variant):
    model = r16_model
    law = model.law if variant == 1 else build_conceptual_model(resolution=16.0, variant=2).law
    solver = ContactSolver(model.mesh, model.materials, law, model.t0_local)
    m = solver.ops.count
    w = solver.w_stab
    rng = np.random.default_rng(variant)
    seen_r = set()
    # all stick (r = 0), all slip (r = 2m), all open (r = 3m) and mixtures
    mixes = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)] + [(a, b) for a in (0.3, 0.6, 0.9)
                                                    for b in (0.05, 0.3, 0.6) if a + b <= 1.0]
    for p_stick, p_slip in mixes:
        status, sys = _random_newton_system(solver, law, rng, p_stick, p_slip)
        seen_r.add(int(2 * np.sum(status == SLIP) + 3 * np.sum(status == OPEN)))
        a_mat = -(sys.d_block @ w.reshape(m, 3, 3 * m)).reshape(3 * m, 3 * m)
        a_mat.reshape(m, 3, m, 3)[np.arange(m), :, np.arange(m)] += sys.e_block
        direct = scipy.linalg.solve(a_mat, -sys.r_t)
        dt = solver._linear_solve(sys)
        scale = max(np.linalg.norm(a_mat @ direct), np.linalg.norm(sys.r_t))
        res = [np.linalg.norm(a_mat @ x + sys.r_t) for x in (dt, direct)]
        assert max(res) <= solver_module.LINEAR_TOL * scale
        # the two answers differ by no more than their residuals, plus the
        # rounding of evaluating them, allow
        sv = scipy.linalg.svdvals(a_mat)
        floor = 3 * m * np.finfo(float).eps * sv[0] * np.linalg.norm(direct)
        assert np.linalg.norm(dt - direct) <= (sum(res) + floor) / sv[-1]
    assert {0, 2 * m, 3 * m} <= seen_r and len(seen_r) >= 8


class _LinalgSpy:
    """scipy.linalg stand-in that logs the matrix shape of every call named,
    by default every factoring call; an lu_solve logs the shape of its factor."""

    FACTORING = ("solve", "lu_factor", "lu", "cho_factor", "inv", "lstsq", "qr", "svd")

    def __init__(self, inner, names=FACTORING):
        self.inner = inner
        self.names = names
        self.calls = []

    def __getattr__(self, name):
        real = getattr(self.inner, name)
        if name not in self.names:
            return real

        def spy(a, *args, **kwargs):
            self.calls.append((name, np.shape(a[0] if name == "lu_solve" else a)))
            return real(a, *args, **kwargs)
        return spy


def test_all_stick_march_factors_no_interface_matrix_after_setup(monkeypatch):
    spy = _LinalgSpy(solver_module.dla)
    monkeypatch.setattr(solver_module, "dla", spy)
    mesh = _buried_fault_mesh()
    n = 3 * mesh.interfaces.count
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    assert spy.calls == [("lu_factor", (n, n))]
    spy.calls.clear()
    left = mesh.cell_centroids()[:, 0] < 1.0
    series = [np.where(left, f * -5.0e6, 0.0) for f in (0.5, 1.0)]
    hist = solver.march(StepsPressure(mesh, series))
    assert all(np.all(r.status == STICK) for r in hist.records)
    assert sum(sum(r.info.newton_iters) for r in hist.records[1:]) >= 2
    assert [call for call in spy.calls if max(call[1], default=0) >= n] == []


def test_slipping_march_solves_against_no_interface_factor_after_setup(monkeypatch):
    # set-up turns its one LU of W - L into the inverse; a Newton iterate
    # then factors and solves only the r x r system of its non-stick rows
    spy = _LinalgSpy(solver_module.dla, _LinalgSpy.FACTORING + ("lu_solve",))
    monkeypatch.setattr(solver_module, "dla", spy)
    mesh = _mesh_two_columns(nz=4)
    n = 3 * mesh.interfaces.count
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    assert spy.calls == [("lu_factor", (n, n)), ("lu_solve", (n, n))]
    spy.calls.clear()
    left = mesh.cell_centroids()[:, 0] < 1.0
    final = solver.march(StepsPressure(mesh, [np.where(left, -5.0e6, 0.0)])).final
    assert np.any(final.status == SLIP)
    assert any(name == "lu_factor" and 0 < shape[0] < n for name, shape in spy.calls)
    assert [call for call in spy.calls if call[0] == "lu_solve" and call[1][0] >= n] == []


def test_setup_inverse_of_the_interface_operator_is_accurate(r16_model):
    m = r16_model
    solver = ContactSolver(m.mesh, m.materials, m.law, m.t0_local)
    n = 3 * solver.ops.count
    # W - L and its inverse are the only dense 3m x 3m arrays kept: no LU
    held = [name for name, v in vars(solver).items()
            for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray) and a.shape == (n, n)]
    assert sorted(held) == ["w_inv", "w_stab"]
    assert np.abs(np.eye(n) - solver.w_stab @ solver.w_inv).max() <= 1e-9


def test_w_built_in_ragged_blocks_matches_one_block(monkeypatch):
    mesh = _buried_fault_mesh()
    n_t = 3 * mesh.interfaces.count
    assert n_t % 5 != 0
    monkeypatch.setattr(solver_module, "SCHUR_CHUNK", n_t)
    one = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh)).w_stab
    monkeypatch.setattr(solver_module, "SCHUR_CHUNK", 5)
    blocks = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh)).w_stab
    assert np.abs(blocks - one).max() <= 1e-12 * np.abs(one).max()


def test_setup_workspace_is_bounded():
    """Peak traced allocation while a solver for the r8 scenario is built.

    tracemalloc sees numpy's allocations only, not SuperLU's: the bound
    covers the stiffness assembly, the K_ff extraction, the W build and
    the dense LU, but not the sparse factor.  The r8 model has 3,456 cells
    and 3m = 432.  One COO batch of every cell for K and 256-column W
    blocks peaked at 94.7 MiB.  2,000-cell batches and 64-column blocks
    peak at 45.0 MiB; one batch alone gives 52 MiB, 256 columns alone 60.
    """
    model = build_conceptual_model(resolution=8.0)
    mesh = model.mesh
    assert mesh.n_cells > assembly_module._CHUNK
    assert 3 * mesh.interfaces.count > solver_module.SCHUR_CHUNK
    tracemalloc.start()
    try:
        ContactSolver(mesh, model.materials, model.law, model.t0_local)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2**20, f"{peak / 2**20:.1f} MiB"


def _sweep_and_jump_paths(monkeypatch, mesh, law, cell_dp):
    """One step from the initial state along the plain sweep path, and with
    the snap-event jump search forced after a single sweep."""
    out = []
    for activeset_max, jump_ok in ((solver_module.ACTIVESET_MAX, False), (1, True)):
        solver = ContactSolver(mesh, [MAT], law, _uniform_t0(mesh))
        with monkeypatch.context() as mp:
            mp.setattr(solver_module, "ACTIVESET_MAX", activeset_max)
            out.append(solver.solve_step(solver.initial_state(), cell_dp,
                                         np.zeros(mesh.interfaces.count), jump_ok=jump_ok))
    return out


def test_jump_search_lands_on_the_sweep_answer(monkeypatch):
    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    (swept, _), (jumped, info) = _sweep_and_jump_paths(monkeypatch, mesh, WEAK,
                                                       np.where(left, -4.0e6, 0.0))
    assert info.jump_events == 1
    assert np.any(swept.status == SLIP)
    np.testing.assert_array_equal(jumped.status, swept.status)
    np.testing.assert_allclose(jumped.t_loc, swept.t_loc, rtol=0.0,
                               atol=1e-12 * np.abs(swept.t_loc).max())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the stabilized interface operator W - L is indefinite, so "
    "the sweep path slips all six elements and the jump search slips two, one "
    "in each y cell, and both states are KKT-clean"))
def test_sweep_and_jump_paths_agree_at_slip_onset(monkeypatch):
    mesh = _mesh_two_columns(nz=3)
    law = FrictionLaw("constant", 0.3, 0.3, 1.0, 1.0e3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    (swept, _), (jumped, _) = _sweep_and_jump_paths(monkeypatch, mesh, law,
                                                    np.where(left, -2.0e6, 0.0))
    np.testing.assert_array_equal(jumped.status, swept.status)
    np.testing.assert_allclose(jumped.slip_acc, swept.slip_acc, rtol=1e-8)


def test_march_records_and_determinism():
    mesh = _mesh_two_columns(nz=3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    series = [np.where(left, f * -2.0e6, 0.0) for f in (0.5, 1.0, 1.5)]
    pressure = StepsPressure(mesh, series)

    def run():
        solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
        return solver.march(pressure)

    h1, h2 = run(), run()
    assert len(h1.records) == 4  # initial state + three steps
    assert h1.records[0].time == 0.0
    for a, b in zip(h1.records, h2.records):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.t_loc, b.t_loc)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.slip_acc, b.slip_acc)


def test_march_slip_monotone_under_growing_load():
    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    series = [np.where(left, f * -2.0e6, 0.0) for f in (1.0, 2.0, 3.0)]
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    hist = solver.march(StepsPressure(mesh, series))
    tot = [r.slip_acc.sum() for r in hist.records]
    assert tot[0] == 0.0
    assert all(b >= a - 1e-15 for a, b in zip(tot, tot[1:]))
    assert tot[-1] > 0.0


def test_bisected_step_sums_substep_counters(monkeypatch):
    import faultmech.solver as solver_mod

    # StepInfo may be replaced by a plain factory (a profiler wrapping it),
    # so the merge must not treat the module-level name as a class.
    real_info = solver_mod.StepInfo
    monkeypatch.setattr(solver_mod, "StepInfo", lambda *a, **k: real_info(*a, **k))
    mesh = _mesh_two_columns(nz=3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    pressure = StepsPressure(mesh, [np.where(left, -4.0e6, 0.0)])
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    real_step = solver.solve_step
    infos = []

    def failing_first(state, *args, **kwargs):
        if not infos:
            infos.append(None)
            raise SolverError("forced failure of the full increment")
        out = real_step(state, *args, **kwargs)
        infos.append(out[1])
        return out

    monkeypatch.setattr(solver, "solve_step", failing_first)
    final = solver.march(pressure).final
    halves = infos[1:]
    assert final.step == 1 and len(halves) == 2
    assert final.info.newton_iters == halves[0].newton_iters + halves[1].newton_iters
    assert final.info.activeset_iters == sum(h.activeset_iters for h in halves)


def test_pressure_load_operator_is_built_once(monkeypatch):
    # the load operator is set-up work: a march, bisected substeps
    # included, never integrates the pressure load again
    calls = []
    real = solver_module.divergence_forces

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, "divergence_forces", counting)
    monkeypatch.setattr(solver_module, "ACTIVESET_MAX", 1)
    mesh = _mesh_two_columns(nz=4)  # the top element must slip: more than one sweep
    left = mesh.cell_centroids()[:, 0] < 1.0
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    assert len(calls) == 1
    final = solver.march(StepsPressure(mesh, [np.where(left, -4.0e6, 0.0)])).final
    # an unbisected step under activeset_max=1 converges in one Newton pass
    assert final.step == 1 and final.info.activeset_iters > 1
    assert len(calls) == 1


class _CountingLU:
    """SuperLU stand-in that counts its solves; other attributes pass through."""

    def __init__(self, lu):
        self.inner = lu
        self.solves = 0

    def solve(self, *args, **kwargs):
        self.solves += 1
        return self.inner.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _attempt_log(solver):
    """Wrap solver.solve_step; every attempt appends (state, cell_dp, fault_dp, g0)."""
    log = []
    real = solver.solve_step

    def logged(state, cell_dp, fault_dp, **kwargs):
        log.append((state, cell_dp, fault_dp, kwargs.get("g0")))
        return real(state, cell_dp, fault_dp, **kwargs)

    solver.solve_step = logged
    return log


def test_bisected_step_makes_one_solve_for_g0_and_one_for_u(monkeypatch):
    # under ACTIVESET_MAX = 1 step 1 converges only after bisecting, and
    # step 2 fails at every depth
    monkeypatch.setattr(solver_module, "ACTIVESET_MAX", 1)
    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    pressure = StepsPressure(mesh, [np.where(left, f * 1.0e6, 0.0) for f in (-4.0, -6.0)])
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    solver.lu = _CountingLU(solver.lu)
    attempts = _attempt_log(solver)
    solves = [0]
    tried = [0]

    def progress(step, state, info):
        solves.append(solver.lu.solves)
        tried.append(len(attempts))
        assert state.u is not None

    with pytest.raises(SolverError, match="step 2"):
        solver.march(pressure, progress=progress)
    solves.append(solver.lu.solves)
    tried.append(len(attempts))
    assert np.diff(tried).min() > 1  # both steps bisected
    assert np.diff(solves).tolist() == [2, 1]
    assert all(g0 is not None for *_, g0 in attempts)


def test_substep_start_jumps_match_a_direct_solve(monkeypatch):
    monkeypatch.setattr(solver_module, "ACTIVESET_MAX", 1)
    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    m = mesh.interfaces.count
    # a non-sealing fault too: its pressure enters the start jumps
    fault_dp = np.outer([0.0, -0.5e6, -1.0e6], np.ones(m))
    pressure = StepsPressure(mesh, [np.where(left, f * 1.0e6, 0.0) for f in (-2.0, -4.0)],
                             fault_dp=fault_dp)
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    attempts = _attempt_log(solver)
    solver.march(pressure)
    assert len(attempts) > pressure.n_steps  # some step bisected
    for state, cell_dp, fdp, g0 in attempts:
        direct = solver.j_ff @ solver.lu.solve(
            solver.div_ff @ cell_dp - solver.c_ff @ solver._t_eff(state.t_loc, fdp))
        np.testing.assert_allclose(g0, direct, rtol=0.0, atol=1e-12 * np.abs(g0).max())


def test_unbisected_march_equals_chained_direct_steps():
    mesh = _mesh_two_columns(nz=3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    pressure = StepsPressure(mesh, [np.where(left, f * -2.0e6, 0.0) for f in (0.5, 1.0, 1.5)])
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    attempts = _attempt_log(solver)
    hist = solver.march(pressure)
    assert len(attempts) == pressure.n_steps
    assert np.any(hist.final.status == SLIP)
    del solver.solve_step
    state = solver.initial_state()
    for rec in hist.records[1:]:
        fld = pressure.field_at(rec.step)
        state, _ = solver.solve_step(state, fld.cell_dp, fld.fault_dp)
        for name in ("u", "t_loc", "status", "g_loc"):
            assert np.array_equal(getattr(rec, name), getattr(state, name)), name


def test_march_refuses_a_source_that_starts_at_nonzero_dp():
    mesh = _mesh_two_columns(nz=3)
    m = mesh.interfaces.count
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    cell_load = StepsPressure(mesh, [np.full(mesh.n_cells, -2.0e6)])
    cell_load.series[0] = np.full(mesh.n_cells, -1.0e6)
    fault_load = StepsPressure(mesh, [np.zeros(mesh.n_cells)],
                               fault_dp=np.outer([-1.0e6, 0.0], np.ones(m)))
    for pressure in (cell_load, fault_load):
        with pytest.raises(ValueError, match="step 0"):
            solver.march(pressure)


def test_checkpoint_restart_matches_straight_run(tmp_path):
    mesh = _mesh_two_columns(nz=3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    series = [np.where(left, f * -2.0e6, 0.0) for f in (1.0, 2.0, 3.0, 4.0)]
    pressure = StepsPressure(mesh, series)

    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    full = solver.march(pressure)

    ck = tmp_path / "state.npz"
    s2 = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    part = s2.march(pressure, checkpoint=str(ck), stop_after=2)
    assert part.final.step == 2
    s3 = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    loaded = s3.load_checkpoint(str(ck))
    assert loaded.step == 2 and loaded.time == part.final.time
    assert loaded.info == part.final.info
    arrays = [f.name for f in fields(StepState) if f.name not in ("step", "time", "info")]
    for name in arrays:
        assert np.array_equal(getattr(loaded, name), getattr(part.final, name)), name
    for start in (loaded, part.final):
        rest = s3.march(pressure, start_state=start)
        assert [r.step for r in rest.records] == [3, 4]
        for a, b in zip(rest.records, full.records[3:]):
            assert a.time == b.time
            for name in arrays:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_checkpoint_from_another_model_is_rejected(tmp_path):
    mesh = _mesh_two_columns(nz=3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    pressure = StepsPressure(mesh, [np.where(left, -2.0e6, 0.0)])
    ck = tmp_path / "state.npz"
    ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh)).march(pressure, checkpoint=str(ck))
    assert ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh)).load_checkpoint(str(ck)).step == 1
    with pytest.raises(SolverError, match="different model"):
        ContactSolver(mesh, [MAT], STRONG, _uniform_t0(mesh)).load_checkpoint(str(ck))


def test_failure_mentions_step_and_writes_checkpoint(tmp_path, monkeypatch):
    mesh = _mesh_two_columns(nz=3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    series = [np.where(left, -2.0e6, 0.0), np.where(left, -4.0e6, 0.0)]
    monkeypatch.setattr(solver_module, "NEWTON_MAX", 0)  # nonconvergence on a loaded step
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    ck = tmp_path / "fail.npz"
    with pytest.raises(SolverError, match=r"step"):
        solver.march(StepsPressure(mesh, series), checkpoint=str(ck))
    assert ck.exists()  # last good state saved for restart



def test_checkpoint_path_without_suffix_round_trips(tmp_path):
    mesh = _mesh_two_columns(nz=3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    pressure = StepsPressure(mesh, [np.where(left, f * -2.0e6, 0.0) for f in (1.0, 2.0)])
    ck = tmp_path / "run.ckpt"
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    final = solver.march(pressure, checkpoint=ck).final
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]
    loaded = solver.load_checkpoint(ck)
    assert loaded.step == 2 and loaded.info == final.info
    for f in fields(StepState):
        if f.name not in ("step", "time", "info"):
            assert np.array_equal(getattr(loaded, f.name), getattr(final, f.name)), f.name


class CountingPressure(StepsPressure):
    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def field_at(self, step):
        self.calls += 1
        return super().field_at(step)


def test_march_reads_each_pressure_field_once():
    mesh = _mesh_two_columns(nz=3)
    left = mesh.cell_centroids()[:, 0] < 1.0
    pressure = CountingPressure(mesh, [np.where(left, f * -2.0e6, 0.0)
                                       for f in (1.0, 2.0, 3.0, 4.0)])
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    full = solver.march(pressure)
    assert pressure.calls == pressure.n_steps + 1
    k = 2
    pressure.calls = 0
    rest = solver.march(pressure, start_state=full.records[k])
    assert pressure.calls == pressure.n_steps - k + 1
    assert [r.step for r in rest.records] == [3, 4]
    for a, b in zip(rest.records, full.records[k + 1:]):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.t_loc, b.t_loc)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.slip_acc, b.slip_acc)


def test_initial_reference_direction_follows_the_initial_shear():
    mesh = _mesh_two_columns(nz=2)  # m = 4
    t0 = _uniform_t0(mesh)
    t0[1:, 1:] = [[3.0e5, -4.0e5], [0.0, 2.0e5], [-1.0e-3, 0.0]]
    d_ref = ContactSolver(mesh, [MAT], STRONG, t0).initial_state().d_ref
    # no initial shear: the first tangent; otherwise t_t / |t_t|
    np.testing.assert_array_equal(d_ref, [[1.0, 0.0], [0.6, -0.8], [0.0, 1.0], [-1.0, 0.0]])
