"""Tests of the benchmark itself, on a coarse model that runs in seconds.

    python3 -m pytest bench
"""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import workloads
from faultmech import scenario, solver
from tracing import Tracer, _TracedLU, instrument_solver, nesting_errors

COARSE = workloads.Workload("coarse_r16", resolution=16.0, variant=1, dp_scale=0.3,
                            elastic=True)
STEPS = 4


def _counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.fixture(scope="module")
def traced_runs():
    return [workloads.run(COARSE, 0.0, 1, seed, stop_after=STEPS) for seed in (1, 2)]


def test_traced_and_untraced_march_are_bitwise_identical():
    model, plain_solver = workloads.build(COARSE)
    plain = workloads.march(plain_solver, workloads.make_pressure(COARSE, model), STEPS)
    _, _, _, traced, tracer = workloads.traced_pass(COARSE, STEPS)
    assert len(plain.states) == len(traced.states) == STEPS
    assert plain.failure is None and traced.failure is None
    a, b = plain.states[-1], traced.states[-1]
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.t_loc, b.t_loc)
    assert np.array_equal(a.status, b.status)
    assert not nesting_errors(tracer)
    assert any(s.name == "solver.lu_solve" for s in tracer.spans)


def test_wrapped_attributes_are_restored():
    originals = {
        (scenario, "build_structured_domain"): scenario.build_structured_domain,
        **{(solver, name): getattr(solver, name) for name in (
            "stiffness_matrix", "interface_blocks", "stab_matrix", "assemble_system",
            "divergence_forces", "classify_all", "splu", "dla", "StepInfo")},
    }
    model, cs, pressure, res, tracer = workloads.traced_pass(COARSE, 1)
    for (owner, name), fn in originals.items():
        assert getattr(owner, name) is fn, name
    assert solver.splu is scipy.sparse.linalg.splu
    assert solver.dla is scipy.linalg
    assert not isinstance(cs.lu, _TracedLU)
    for name in ("solve_step", "_jump_search"):
        assert name not in vars(cs)
    assert "field_at" not in vars(pressure)
    assert len(res.states) == 1


def test_instance_wrappers_restored_after_a_failure():
    model, cs = workloads.build(COARSE)
    pressure = workloads.make_pressure(COARSE, model)
    with pytest.raises(RuntimeError):
        with instrument_solver(Tracer(), cs, pressure):
            raise RuntimeError("boom")
    assert "solve_step" not in vars(cs) and "field_at" not in vars(pressure)


def test_traced_run_is_correct_and_complete(traced_runs):
    result, record = traced_runs[0]
    assert result["correct"], record["problems"]
    assert result["attempted"] == 2 * STEPS and result["failed"] == 0
    assert not record["flags"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # below the slip onset: one sweep per step, nothing flips
    assert m["solver.substeps"] == STEPS
    assert m["contact.classify_calls"] == STEPS + 1  # plus the initial state
    assert m["contact.status_flips"] == 0
    assert m["solver.lu_solve_rhs"] == m["solver.lu_solve_calls"] == 2 * STEPS
    assert m["solver.schur_precompute_rhs"] == 3 * m["mesh.interfaces"]
    assert m["solver.step_self_s"] >= 0.0
    assert "trace.overhead_step_s" in m


def test_count_metrics_repeat_exactly(traced_runs):
    (first, _), (second, _) = traced_runs
    assert _counts(first) == _counts(second)
    assert {"solver.lu_solve_calls", "solver.lu_solve_rhs", "contact.classify_calls",
            "contact.status_flips", "solver.substeps", "mesh.nodes"} <= set(_counts(first))


def test_untraced_run_metrics_and_attempts():
    result, record = workloads.run(COARSE, 0.0, 0, 0, stop_after=STEPS)
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == {
        "setup_s", "step_s", "steps_converged_frac", "kkt_ok_frac", "peak_rss_mb"}
    assert len(record["setup_s"]) == workloads.SETUP_REPS
    assert result["metrics"]["steps_converged_frac"]["value"] == 1.0
    assert result["metrics"]["kkt_ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_march_is_recorded_with_its_step():
    # variant 2 on the coarse mesh fails in the line search at step 5
    wl = workloads.Workload("coarse_v2", resolution=16.0, variant=2)
    result, record = workloads.run(wl, 0.0, 0, 0, stop_after=6)
    assert result["correct"], record["problems"]
    march = record["marches"][0]
    assert march["converged"] == 4 and march["failed_step"] == 5
    assert march["failure"].startswith("step 5:")
    assert result["attempted"] == 6 and result["failed"] == 2
    assert result["metrics"]["steps_converged_frac"]["value"] == 4 / 6
