"""The benchmark's workloads and one measured run of each.

Every workload is the conceptual UGS scenario of
`faultmech.scenario.build_conceptual_model` marched over its one-cycle
loading schedule (28 steps).  No input depends on the seed: the slip
onset is sharp, so jittering the load would change which steps slip.
"""
from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy

from faultmech.contact import kkt_report
from faultmech.pressure import PressureField, UniformCompartmentPressure
from faultmech.scenario import build_conceptual_model
from faultmech.solver import ContactSolver, SolverError

from tracing import Tracer, instrument, instrument_solver, layer_metrics, nesting_errors

# tolerances of tests/test_solver.py::test_kkt_clean_after_slip:
# tensile Pa, gap m, complementarity Pa*m, relative shear excess, 1 - cos
KKT_TOLS = (1e-2, 1e-10, 1e-6, 1e-6, 1e-8)
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    resolution: float
    variant: int
    dp_scale: float = 1.0
    # premise of a load below the slip onset: one sweep per step and no
    # element ever leaves its initial status; a violation is flagged
    elastic: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("paper_v1_r8", resolution=8.0, variant=1),
    Workload("paper_v2_r8", resolution=8.0, variant=2),
    Workload("shallow_r6", resolution=6.0, variant=1, dp_scale=0.3, elastic=True),
)}


class ScaledPressure:
    """The compartment schedule with every Δp multiplied by a constant."""

    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = scale
        self.times = inner.times

    @property
    def n_steps(self):
        return self.inner.n_steps

    def field_at(self, step):
        f = self.inner.field_at(step)
        return PressureField(f.cell_dp * self.scale, f.fault_dp * self.scale)


def make_pressure(wl, model):
    base = UniformCompartmentPressure(model.mesh, model.compartments, model.n_cycles,
                                      model.hydraulic_modes)
    return base if wl.dp_scale == 1.0 else ScaledPressure(base, wl.dp_scale)


def build(wl):
    """The timed set-up: scenario model plus ContactSolver (factor, Schur)."""
    model = build_conceptual_model(resolution=wl.resolution, variant=wl.variant)
    solver = ContactSolver(model.mesh, model.materials, model.law, model.t0_local)
    return model, solver


@dataclass
class March:
    wall: float
    states: list         # converged StepState per step, in order
    infos: list          # StepInfo per converged step
    failure: str | None  # SolverError message of the step that failed


def march(solver, pressure, stop_after=None):
    states, infos = [], []

    def progress(step, state, info):
        states.append(state)
        infos.append(info)

    failure = None
    t0 = perf_counter()
    try:
        solver.march(pressure, stop_after=stop_after, progress=progress)
    except SolverError as exc:
        failure = str(exc)
    return March(perf_counter() - t0, states, infos, failure)


def check_march(wl, model, solver, res, scheduled):
    """Output checks of one march; returns a summary without the states."""
    problems, flags = [], []
    kkt_ok = [
        kkt_report(s.status, s.t_loc, s.g_n_book, s.dg_t, s.slip_acc_start,
                   model.law, solver.tols).ok(*KKT_TOLS)
        for s in res.states
    ]
    for step, ok in enumerate(kkt_ok, start=1):
        if not ok:
            problems.append(f"step {step}: kkt_report fails the tolerances")
    converged = len(res.states)
    failed_step = None
    if res.failure is not None:
        failed_step = converged + 1
        if not res.failure.startswith(f"step {failed_step}:"):
            problems.append(f"failure does not name step {failed_step}: {res.failure}")
    elif converged != scheduled:
        problems.append(f"march stopped after {converged} of {scheduled} steps")
    sweeps = [info.activeset_iters for info in res.infos]
    if wl.elastic:
        status0 = solver.initial_state().status
        changed = [i + 1 for i, s in enumerate(res.states)
                   if not np.array_equal(s.status, status0)]
        multi = [i + 1 for i, n in enumerate(sweeps) if n != 1]
        if changed:
            flags.append(f"premise: status changed at steps {changed}")
        if multi:
            flags.append(f"premise: more than one sweep at steps {multi}")
    digest = hashlib.sha256()
    if res.states:
        last = res.states[-1]
        for a in (last.u, last.t_loc, last.status):
            digest.update(np.ascontiguousarray(a).tobytes())
    return {
        "wall_s": res.wall,
        "converged": converged,
        "failed_step": failed_step,
        "failure": res.failure,
        "kkt_ok": sum(kkt_ok),
        "sweeps": sweeps,
        "final_sha256": digest.hexdigest(),
        "problems": problems,
        "flags": flags,
    }


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def problem_size(model, solver):
    return {
        "mesh.nodes": model.mesh.n_nodes,
        "mesh.interfaces": model.mesh.interfaces.count,
        "solver.free_dofs": int(solver.free_idx.size),
        "solver.lu_nnz": int(solver.lu.nnz),  # SuperLU's stored entries of L + U
    }


def traced_pass(wl, stop_after=None):
    """Set-up and march with every layer wrapped; restores all on return."""
    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("setup"):
            model, solver = build(wl)
        pressure = make_pressure(wl, model)
        tracer.phase = "march"
        with instrument_solver(tracer, solver, pressure):
            with tracer.span("march"):
                res = march(solver, pressure, stop_after)
    return model, solver, pressure, res, tracer


def run(wl, seconds, trace, seed, stop_after=None):
    """One benchmark run; returns (result line, full record).

    Untraced: SETUP_REPS timed set-ups, then marches of the last one until
    `seconds` of march time have passed.  Traced: one untraced set-up and
    march, then the same under tracing, for the per-layer split and the
    tracing overhead.  stop_after shortens the schedule (tests only).
    """
    record = {"workload": wl.name, "seed": seed, "trace": trace, "seconds": seconds,
              "env": environment()}
    setup_s, marches = [], []
    for _ in range(SETUP_REPS if not trace else 1):
        model = solver = None  # free the previous build before timing the next
        gc.collect()
        t0 = perf_counter()
        model, solver = build(wl)
        setup_s.append(perf_counter() - t0)
    pressure = make_pressure(wl, model)
    scheduled = min(stop_after or pressure.n_steps, pressure.n_steps)
    while not marches or (not trace and sum(m["wall_s"] for m in marches) < seconds):
        res = march(solver, pressure, stop_after)
        marches.append(check_march(wl, model, solver, res, scheduled))
    if trace:
        model = solver = pressure = res = None
        gc.collect()
        model, solver, pressure, res, tracer = traced_pass(wl, stop_after)
        marches.append(check_march(wl, model, solver, res, scheduled))
        setup_s.append(tracer.spans[0].dur)
        record["spans"] = tracer.spans
        record["nesting_errors"] = nesting_errors(tracer)
    record["size"] = problem_size(model, solver)
    record["setup_s"] = setup_s

    problems = [p for m in marches for p in m["problems"]]
    outcome = {(m["converged"], m["failure"], tuple(m["sweeps"]), m["final_sha256"])
               for m in marches}
    if len(outcome) != 1:
        problems.append("repeated or traced marches differ from the first")
    step_s = [m["wall_s"] / max(m["converged"], 1) for m in marches]
    first = marches[0]
    record["marches"] = marches
    record["flags"] = sorted({f for m in marches for f in m["flags"]})

    if not trace:
        metrics = {
            "setup_s": ("s", statistics.median(setup_s)),
            "step_s": ("s", statistics.median(step_s)),
            "steps_converged_frac": ("ratio", first["converged"] / scheduled),
            "kkt_ok_frac": ("ratio", first["kkt_ok"] / first["converged"]
                            if first["converged"] else 1.0),
            "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        }
    else:
        problems += record["nesting_errors"][:5]
        metrics = {k: ("count", v) for k, v in record["size"].items()}
        metrics.update(layer_metrics(tracer))
        metrics["trace.overhead_setup_s"] = ("s", setup_s[1] - setup_s[0])
        metrics["trace.overhead_step_s"] = ("s", step_s[1] - step_s[0])
    record["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": scheduled * len(marches),
        "failed": sum(scheduled - m["converged"] for m in marches),
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }
    return result, record
