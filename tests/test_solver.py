"""Quasi-static stepping: Newton, active set, linear solve, marching."""
from __future__ import annotations

import itertools
import tracemalloc
import warnings
from dataclasses import fields
from types import SimpleNamespace

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
from faultmech.mesh import (
    AxisSegment,
    DomainSpec,
    FaultSpec,
    build_structured_domain,
    dissection_order,
    mirror_maps,
)
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
    """The solver as it factors without the mirror basis and without the
    dissection order: free dofs sorted, SuperLU's default column ordering."""
    with monkeypatch.context() as mp:
        mp.setattr(solver_module, "mirror_maps", lambda mesh, free: {})
        mp.setattr(solver_module, "dissection_order", lambda lattice: np.arange(len(lattice)))
        mp.setattr(solver_module, "splu", lambda a, **kwargs: splu(a))
        ref = ContactSolver(mesh, [MAT], law, _uniform_t0(mesh))
    np.testing.assert_array_equal(ref.free_idx, np.flatnonzero(free_dof_mask(mesh)))
    assert (ref.basis != sparse.eye(ref.free_idx.size)).nnz == 0
    return ref


# the load slips the through-going fault and leaves the buried one stuck
@pytest.mark.parametrize("build, slips", [(_mesh_two_columns, True), (_buried_fault_mesh, False)])
def test_dissection_order_matches_sorted_order_reference(build, slips, monkeypatch):
    mesh = build()
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    ref = _sorted_order_solver(monkeypatch, mesh, WEAK)
    np.testing.assert_array_equal(solver.free_idx, ref.free_idx)
    # both mirrors: four blocks, not the reference's identity basis
    assert set(mirror_maps(mesh, free_dof_mask(mesh))) == {0, 1}
    assert not np.all(solver.basis.data == 1.0)
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
    covers the stiffness assembly, the K_ff extraction, the blocks of
    Q^T K_ff Q, the W build and the dense LU, but not the sparse factor.
    The r8 model has 3,456 cells and 3m = 432.  One COO batch of every
    cell for K and 256-column W blocks peaked at 94.7 MiB.  2,000-cell
    batches and 64-column blocks peak at 45.0 MiB; one batch alone gives
    52 MiB, 256 W columns alone 53.
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


# --- the mirror basis ----------------------------------------------------


def test_mirror_maps_are_commuting_involutions(r16_model):
    mesh = r16_model.mesh
    maps = mirror_maps(mesh, free_dof_mask(mesh))
    assert set(maps) == {0, 1}
    mx, my = maps[0], maps[1]
    ident = np.arange(mesh.n_nodes)
    np.testing.assert_array_equal(mx[mx], ident)
    np.testing.assert_array_equal(my[my], ident)
    np.testing.assert_array_equal(mx[my], my[mx])


def test_mirror_maps_pair_fault_twins(r16_model):
    iset = r16_model.mesh.interfaces
    maps = mirror_maps(r16_model.mesh, free_dof_mask(r16_model.mesh))
    # F3 lies on x = 0: the x mirror swaps each split twin with its twin
    # and fixes the shared tip and junction nodes
    f3 = iset.of_fault("F3")
    assert np.any(iset.top_nodes[f3] != iset.bottom_nodes[f3])
    np.testing.assert_array_equal(maps[0][iset.top_nodes[f3]], iset.bottom_nodes[f3])
    np.testing.assert_array_equal(maps[0][iset.bottom_nodes[f3]], iset.top_nodes[f3])

    # F4 and F5 lie on y = -+1000: the y mirror takes F4's elements onto F5's
    def facets(idx, node_map):
        nodes = node_map[np.hstack([iset.top_nodes[idx], iset.bottom_nodes[idx]])]
        nodes = np.sort(nodes, axis=1)
        return nodes[np.lexsort(nodes.T[::-1])]

    f4, f5 = iset.of_fault("F4"), iset.of_fault("F5")
    assert f4.size == f5.size > 0
    ident = np.arange(r16_model.mesh.n_nodes)
    np.testing.assert_array_equal(facets(f4, maps[1]), facets(f5, ident))


def test_mirror_basis_block_diagonalizes_k_ff(r16_model, monkeypatch):
    m = r16_model
    solver = ContactSolver(m.mesh, m.materials, m.law, m.t0_local)
    free = free_dof_mask(m.mesh)
    basis, sizes = solver_module._mirror_basis(m.mesh.lattice, free, mirror_maps(m.mesh, free))
    assert len(sizes) == 4 and sum(sizes) == solver.free_idx.size
    assert (basis != solver.basis).nnz == 0
    q = solver.basis
    assert np.abs((q.T @ q - sparse.eye(q.shape[1])).toarray()).max() <= 1e-14
    k_ff = stiffness_matrix(m.mesh, m.materials)[0][solver.free_idx][:, solver.free_idx]
    b = (q.T @ k_ff @ q).tocoo()
    block = np.repeat(np.arange(len(sizes)), sizes)
    cross = block[b.row] != block[b.col]
    assert cross.any()
    assert np.abs(b.data[cross]).max() <= 1e-13 * np.abs(b.data).max()
    with monkeypatch.context() as mp:
        mp.setattr(solver_module, "mirror_maps", lambda mesh, free: {})
        plain = ContactSolver(m.mesh, m.materials, m.law, m.t0_local)
    assert solver.lu.nnz < 0.6 * plain.lu.nnz


def test_regions_that_differ_across_a_mirror_plane_drop_its_map():
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 2.0, "uniform", 0.5)],
        y_segments=[AxisSegment(0.0, 1.0, "uniform", 0.5)],
        z_segments=[AxisSegment(-1.0, 0.0, "uniform", 0.5)],
        region_fn=lambda c: int(c[0] > 1.0),
    )
    mesh = build_structured_domain(spec)
    free = free_dof_mask(mesh)
    assert set(mirror_maps(mesh, free)) == {1}
    mesh.regions[:] = 0
    assert set(mirror_maps(mesh, free)) == {0, 1}


def test_mesh_with_no_mirror_gets_the_dissection_permutation():
    # a fault off x = mid and a y axis whose grid does not mirror
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 0.75, "uniform", 0.25),
                    AxisSegment(0.75, 2.0, "uniform", 0.25)],
        y_segments=np.array([0.0, 0.3, 1.0]),
        z_segments=[AxisSegment(-1.0, 0.0, "uniform", 0.25)],
        faults=[FaultSpec("F", "x", 0.75, 0.0, 1.0, -1.0, 0.0)],
    )
    mesh = build_structured_domain(spec)
    free = free_dof_mask(mesh)
    assert mirror_maps(mesh, free) == {}
    solver = ContactSolver(mesh, [MAT], WEAK, _uniform_t0(mesh))
    nodes = dissection_order(mesh.lattice)
    dofs = (3 * nodes[:, None] + np.arange(3)).ravel()
    dofs = dofs[free[dofs]]
    q = solver.basis
    np.testing.assert_array_equal(q.indptr, np.arange(dofs.size + 1))
    np.testing.assert_array_equal(solver.free_idx[q.indices], dofs)
    assert np.all(q.data == 1.0)


def _sweep_and_jump_paths(monkeypatch, mesh, law, cell_dp, instrument=None):
    """One step from the initial state along the plain sweep path, and with
    the snap-event jump search forced after a single sweep.  instrument(mp,
    solver), if given, patches each path's solver before its step."""
    out = []
    for activeset_max, jump_ok in ((solver_module.ACTIVESET_MAX, False), (1, True)):
        solver = ContactSolver(mesh, [MAT], law, _uniform_t0(mesh))
        with monkeypatch.context() as mp:
            mp.setattr(solver_module, "ACTIVESET_MAX", activeset_max)
            if instrument is not None:
                instrument(mp, solver)
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


def test_solve_step_keeps_the_benchmark_tracer_contract(monkeypatch):
    # the benchmark counts one step per StepInfo() built with no arguments
    # and times the solver instance's _jump_search attribute
    real_info = solver_module.StepInfo
    fresh, searches = [], []

    def record_info(*args, **kwargs):
        info = real_info(*args, **kwargs)
        if not args and not kwargs:
            fresh[-1].append(info)
        return info

    def instrument(mp, solver):
        real_search = solver._jump_search
        fresh.append([])
        searches.append(0)

        def traced_search(*args, **kwargs):
            searches[-1] += 1
            return real_search(*args, **kwargs)

        mp.setattr(solver_module, "StepInfo", record_info)
        mp.setattr(solver, "_jump_search", traced_search)

    mesh = _mesh_two_columns(nz=4)
    left = mesh.cell_centroids()[:, 0] < 1.0
    paths = _sweep_and_jump_paths(monkeypatch, mesh, WEAK, np.where(left, -4.0e6, 0.0),
                                  instrument)
    assert [len(infos) for infos in fresh] == [1, 1]
    assert all(infos[0] is info for infos, (_, info) in zip(fresh, paths))
    assert searches == [0, 1]
    assert [info.jump_events for _, info in paths] == [0, 1]


MU03 = FrictionLaw("constant", 0.3, 0.3, 1.0, 1.0e3)


def _left_depletion(mesh, dp):
    return np.where(mesh.cell_centroids()[:, 0] < 1.0, dp, 0.0)


def _forced_jump_step(monkeypatch, solver, cell_dp, search=None):
    """One step from the initial state with the snap retry forced after a
    single sweep, as in _sweep_and_jump_paths.  Returns the arguments, the
    pick, the partition scores and the _newton calls of its one jump search,
    and the step's state.  search, if given, stands in for the instance's
    _jump_search."""
    newton, scores, searches = [], [], []
    real_newton = solver._newton
    real_scores = solver._partition_scores
    real_search = search or solver._jump_search

    def counted_newton(*args):
        newton.append(args)
        return real_newton(*args)

    def kept_scores(*args):
        scores.append(real_scores(*args))
        return scores[-1]

    def captured(*args):
        before = len(newton)
        pick = real_search(*args)
        searches.append(SimpleNamespace(args=args, pick=pick,
                                        scores=scores[-1] if scores else None,
                                        newton_calls=len(newton) - before))
        return pick

    with monkeypatch.context() as mp:
        mp.setattr(solver_module, "ACTIVESET_MAX", 1)
        mp.setattr(solver, "_newton", counted_newton)
        mp.setattr(solver, "_partition_scores", kept_scores)
        mp.setattr(solver, "_jump_search", captured)
        state, _ = solver.solve_step(solver.initial_state(), cell_dp,
                                     np.zeros(solver.ops.count), jump_ok=True)
    assert len(searches) == 1
    searches[0].state = state
    return searches[0]


def _enumerated_jump_search(solver, state, contended, t_now, g0):
    """The snap-event search one partition at a time: each combination runs
    its own _newton.  Returns the pick and every partition's score, inf
    where the partition does not count."""
    idx = np.nonzero(contended & (state.status != OPEN))[0]
    if idx.size > solver_module.JUMP_MAX_SUPPORT:
        caps_now = tau_max(solver.law, t_now[:, 0], state.slip_acc)
        ratio = np.hypot(t_now[idx, 1], t_now[idx, 2]) / np.maximum(caps_now[idx], 1e-30)
        order = np.argsort(-ratio, kind="stable")
        idx = np.sort(idx[order[:solver_module.JUMP_MAX_SUPPORT]])
    dirs = solver_module.regularized_directions(t_now[idx, 1:], state.d_ref[idx])[0]
    best, best_score, scores = None, np.inf, []
    for combo in itertools.product((0, 1, 2), repeat=idx.size):
        scores.append(np.inf)
        status_c = state.status.copy()
        d_c = state.d_ref.copy()
        for k, choice in enumerate(combo):
            status_c[idx[k]] = STICK if choice == 0 else SLIP
            if choice:
                d_c[idx[k]] = dirs[k] if choice == 1 else -dirs[k]
        try:
            t_c, sys_c, _, _ = solver._newton(state.t_loc, status_c, d_c, state, g0)
        except SolverError:
            continue
        ds_c = np.hypot(sys_c.dg_slip[:, 0], sys_c.dg_slip[:, 1])
        slipping = status_c == SLIP
        caps_c = tau_max(solver.law, t_c[:, 0], state.slip_acc + np.where(slipping, ds_c, 0.0))
        stick_rows = status_c == STICK
        if np.any(np.hypot(t_c[stick_rows, 1], t_c[stick_rows, 2])
                  > caps_c[stick_rows] * (1.0 + solver.tols.tol_tau)):
            continue
        if np.any(np.einsum("ij,ij->i", sys_c.dg_slip, d_c)[slipping] < -1e-15):
            continue
        if np.any(t_c[status_c != OPEN, 0] > solver.tols.tol_t * solver.tols.p_ref):
            continue
        scores[-1] = float(np.max(ds_c, initial=0.0))
        if scores[-1] < best_score:
            best_score, best = scores[-1], (status_c, d_c)
    return best, np.array(scores)


# (nz, law, left-column dp, partitions, valid partitions)
JUMP_CASES = [
    (4, WEAK, -4.0e6, 9, 1),
    (3, MU03, -2.0e6, 729, 93),
    (4, WEAK, -6.0e6, 729, 13),
    # slip weakening: every held partition but one continues in _newton
    (3, FrictionLaw("arctan", 0.3, 0.1, 1e-4, 1e3), -2.0e6, 729, 156),
]


@pytest.mark.parametrize("nz, law, dp, partitions, valid", JUMP_CASES,
                         ids=["weak-4MPa", "mu03-2MPa", "weak-6MPa", "arctan-2MPa"])
def test_batched_jump_search_matches_the_enumeration(monkeypatch, nz, law, dp,
                                                     partitions, valid):
    mesh = _mesh_two_columns(nz=nz)
    solver = ContactSolver(mesh, [MAT], law, _uniform_t0(mesh))
    cell_dp = _left_depletion(mesh, dp)
    search = _forced_jump_step(monkeypatch, solver, cell_dp)
    ref, ref_scores = _enumerated_jump_search(solver, *search.args)
    counts = np.isfinite(ref_scores)
    assert (ref_scores.size, counts.sum()) == (partitions, valid)
    np.testing.assert_array_equal(np.isfinite(search.scores), counts)
    np.testing.assert_allclose(search.scores[counts], ref_scores[counts], rtol=0.0,
                               atol=1e-9 * ref_scores[counts].max())
    np.testing.assert_array_equal(search.pick[0], ref[0])
    np.testing.assert_array_equal(search.pick[1], ref[1])
    # constant friction stops every partition after its one batched step
    assert (search.newton_calls > 0) == (law.kind != "constant")

    retried = _forced_jump_step(monkeypatch, solver, cell_dp, lambda *a: ref).state
    np.testing.assert_allclose(search.state.t_loc, retried.t_loc, rtol=0.0,
                               atol=1e-12 * np.abs(retried.t_loc).max())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partition_directions_match_the_single_partition_solve(seed):
    # outside the three partitioned elements the rows stick, slip and open,
    # and the weakening law gives the slip rows non-zero D shear blocks
    law = FrictionLaw("arctan", 0.3, 0.1, 1e-4, 1e3)
    mesh = _mesh_two_columns(nz=4)
    solver = ContactSolver(mesh, [MAT], law, _uniform_t0(mesh))
    m = solver.ops.count
    rng = np.random.default_rng(seed)
    idx = np.array([1, 4, 6])
    status = np.array([SLIP, STICK, OPEN, SLIP, STICK, OPEN, STICK, SLIP])
    t = solver.t0 + rng.normal(scale=1.0e5, size=(m, 3))
    ang = rng.uniform(0.0, 2.0 * np.pi, m)
    d_ref = np.column_stack([np.cos(ang), np.sin(ang)])
    rows = dict(g_t_prev=rng.normal(scale=1.0e-4, size=(m, 2)),
                slip_acc_prev=rng.uniform(0.0, 2.0 * law.dc, m), law=law, tols=solver.tols)
    g_stab = rng.normal(scale=1.0e-4, size=3 * m)
    systems = []
    for combo in itertools.product((0, 1, 2), repeat=idx.size):
        status_c, d_c = status.copy(), d_ref.copy()
        status_c[idx] = np.where(np.array(combo) == 0, STICK, SLIP)
        d_c[idx] = np.where((np.array(combo) == 2)[:, None], -d_ref[idx], d_ref[idx])
        systems.append(assemble_system(solver.ops, g_stab, t, status=status_c, d_ref=d_c, **rows))
    r = np.stack([s.r_t for s in systems])
    d_blk = np.stack([s.d_block for s in systems])
    e_blk = np.stack([s.e_block for s in systems])
    directions = solver._partition_directions(idx, r[0], d_blk[0], e_blk[0])
    dt, w_dt, solved = directions(r, d_blk, e_blk)
    assert solved.all()
    for p, sys in enumerate(systems):
        ref = solver._linear_solve(sys)
        assert np.abs(dt[p] - ref).max() <= 1e-10 * np.abs(ref).max()
        assert np.abs(w_dt[p] - solver.w_stab @ dt[p]).max() <= 1e-12 * np.abs(w_dt[p]).max()


def _counted(monkeypatch, owner, name, log):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        log.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_jump_search_cost_does_not_scale_with_its_partitions(monkeypatch):
    mesh = _mesh_two_columns(nz=3)
    solver = ContactSolver(mesh, [MAT], MU03, _uniform_t0(mesh))
    args = _forced_jump_step(monkeypatch, solver, _left_depletion(mesh, -2.0e6)).args
    assembled, newton = [], []
    _counted(monkeypatch, solver_module, "assemble_system", assembled)
    _counted(monkeypatch, solver, "_newton", newton)
    assert solver._jump_search(*args) is not None
    blocks = -(-3**6 // solver_module.JUMP_BLOCK)
    assert newton == []
    assert 0 < len(assembled) <= 3 + blocks


def test_jump_search_enumerates_the_most_utilized_contended_elements(monkeypatch):
    # six contended elements; with a support of two, the 3^2 partitions of
    # the two with the highest |t_t| / capacity at the failed pass's tractions
    mesh = _mesh_two_columns(nz=3)
    m = mesh.interfaces.count
    solver = ContactSolver(mesh, [MAT], MU03, _uniform_t0(mesh))
    state, contended, t_now, g0 = _forced_jump_step(
        monkeypatch, solver, _left_depletion(mesh, -2.0e6)).args
    assert np.all(contended & (state.status != OPEN))
    ratio = (np.hypot(t_now[:, 1], t_now[:, 2])
             / tau_max(MU03, t_now[:, 0], state.slip_acc))
    top = np.sort(np.argsort(-ratio, kind="stable")[:2])

    assembled = []
    _counted(monkeypatch, solver_module, "assemble_system", assembled)
    monkeypatch.setattr(solver_module, "JUMP_MAX_SUPPORT", 2)
    status, d_ref = solver._jump_search(state, contended, t_now, g0)
    trials = np.concatenate([kw["status"].reshape(-1, m) for _, kw in assembled
                             if not kw["want_jacobian"]])
    assert trials.shape == (9, m)
    np.testing.assert_array_equal(np.flatnonzero(np.ptp(trials, axis=0)), top)
    moved = np.flatnonzero((status != state.status) | np.any(d_ref != state.d_ref, axis=1))
    assert moved.size > 0 and set(moved) <= set(top)


def test_revisited_partition_fails_the_step(monkeypatch):
    # a classification that toggles one element between stick and open: no
    # stick/slip toggle, so nothing is pinned and the second sweep revisits
    # the start partition
    mesh = _mesh_two_columns(nz=3)
    solver = ContactSolver(mesh, [MAT], STRONG, _uniform_t0(mesh))
    state = solver.initial_state()
    assert np.all(state.status == STICK)

    def toggling(prev_status, *args):
        status = np.full(prev_status.shape, STICK)
        status[0] = OPEN if prev_status[0] == STICK else STICK
        return status

    real_newton = solver._newton
    passes = []

    def counted_newton(*args):
        passes.append(args[1].copy())
        return real_newton(*args)

    monkeypatch.setattr(solver_module, "classify_all", toggling)
    monkeypatch.setattr(solver, "_newton", counted_newton)
    with pytest.raises(SolverError, match="active set cycling between partitions"):
        solver.solve_step(state, np.zeros(mesh.n_cells), np.zeros(mesh.interfaces.count))
    assert len(passes) == 2
    assert passes[1][0] == OPEN


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
