"""Spans around calls into faultmech's layers, recorded from outside.

`instrument` swaps the module-level names that `faultmech.solver` and
`faultmech.scenario` call for timed wrappers, and `instrument_solver`
does the same for attributes of one built `ContactSolver` and its
pressure source.  Both restore what they replaced on exit, so nothing in
`src/` is edited and an untraced run executes the original code.

A span records its name, start, end, parent and the phase ("setup" or
"march") it ran in, plus optional counts such as right-hand-side columns
or status flips.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    phase: str
    parent: int | None
    start: float
    end: float = float("nan")
    ok: bool = True
    counts: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "phase": self.phase,
                "parent": self.parent, "start": self.start, "end": self.end,
                "ok": self.ok, **self.counts}


class Tracer:
    """In-memory span recorder with a parent stack (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.step_infos = []  # every StepInfo a solve_step created
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name, **counts):
        sp = Span(len(self.spans), name, self.phase,
                  self._stack[-1] if self._stack else None, 0.0, counts=counts)
        self.spans.append(sp)
        self._stack.append(sp.sid)
        sp.start = perf_counter()
        try:
            yield sp
        except BaseException:
            sp.ok = False
            raise
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, counts=None):
        """Time every call of fn; counts(args, kwargs, result) adds counts.

        name may be a callable of (args, kwargs) so one wrapper can split a
        function into two spans by its arguments or by the current phase.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as sp:
                out = fn(*args, **kwargs)
            if counts is not None:
                sp.counts.update(counts(args, kwargs, out))
            return out
        return traced


def _rhs_columns(args, kwargs, out):
    b = np.asarray(args[0])
    return {"rhs": 1 if b.ndim == 1 else int(b.shape[1])}


def _status_flips(args, kwargs, out):
    return {"flips": int(np.count_nonzero(np.asarray(out) != np.asarray(args[0])))}


class _TracedLU:
    """SuperLU stand-in whose solve is timed; other attributes pass through.

    SuperLU's own attributes are read-only, so the factor object itself is
    replaced rather than patched.
    """

    def __init__(self, lu, tracer, solve_name):
        self.inner = lu
        self.solve = tracer.wrap(lu.solve, solve_name, _rhs_columns)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _TracedLinalg:
    """scipy.linalg stand-in with timed solve and lstsq."""

    def __init__(self, dla, tracer):
        self.inner = dla
        self.solve = tracer.wrap(dla.solve, "solver.dense_solve")
        self.lstsq = tracer.wrap(dla.lstsq, "solver.lstsq")

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _swap(saved, owner, name, new):
    saved.append((owner, name, getattr(owner, name)))
    setattr(owner, name, new)


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the layer functions that faultmech.solver and scenario call."""
    from faultmech import scenario, solver

    def traced_splu(*args, **kwargs):
        # setup factors K_ff; a factorization during the march is the
        # sparse saddle-point fallback of ContactSolver._linear_solve
        setup = tracer.phase == "setup"
        with tracer.span("solver.factor" if setup else "solver.sparse_fallback"):
            lu = real_splu(*args, **kwargs)
        if not setup:
            return _TracedLU(lu, tracer, "solver.sparse_fallback_solve")
        # K_ff's solves build the Schur precompute in set-up, then serve Newton
        return _TracedLU(lu, tracer, lambda args, kwargs: (
            "solver.schur_precompute" if tracer.phase == "setup" else "solver.lu_solve"))

    def record_info(*args, **kwargs):
        info = real_step_info(*args, **kwargs)
        if not args and not kwargs:  # solve_step's fresh counters, not a merge
            tracer.step_infos.append(info)
        return info

    real_splu = solver.splu
    real_step_info = solver.StepInfo
    saved = []
    try:
        _swap(saved, scenario, "build_structured_domain",
              tracer.wrap(scenario.build_structured_domain, "mesh.build"))
        _swap(saved, solver, "stiffness_matrix",
              tracer.wrap(solver.stiffness_matrix, "assembly.stiffness"))
        _swap(saved, solver, "interface_blocks",
              tracer.wrap(solver.interface_blocks, "assembly.interface_blocks"))
        _swap(saved, solver, "stab_matrix", tracer.wrap(solver.stab_matrix, "assembly.stab"))
        _swap(saved, solver, "assemble_system", tracer.wrap(
            solver.assemble_system,
            lambda args, kwargs: ("assembly.jacobian" if kwargs.get("want_jacobian", True)
                                  else "assembly.residual")))
        _swap(saved, solver, "divergence_forces",
              tracer.wrap(solver.divergence_forces, "assembly.divergence"))
        _swap(saved, solver, "classify_all",
              tracer.wrap(solver.classify_all, "contact.classify", _status_flips))
        _swap(saved, solver, "splu", traced_splu)
        _swap(saved, solver, "dla", _TracedLinalg(solver.dla, tracer))
        _swap(saved, solver, "StepInfo", record_info)
        yield tracer
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


@contextlib.contextmanager
def instrument_solver(tracer, contact_solver, pressure):
    """Wrap one solver's per-step entry points and its pressure source.

    The solver's factor must already be a _TracedLU (it is when the solver
    was built under `instrument`); it is unwrapped again on exit.
    """
    contact_solver.solve_step = tracer.wrap(contact_solver.solve_step, "solver.solve_step")
    contact_solver._jump_search = tracer.wrap(contact_solver._jump_search, "solver.jump_search")
    pressure.field_at = tracer.wrap(pressure.field_at, "pressure.field")
    try:
        yield
    finally:
        del contact_solver.solve_step
        del contact_solver._jump_search
        del pressure.field_at
        if isinstance(contact_solver.lu, _TracedLU):
            contact_solver.lu = contact_solver.lu.inner


# ----------------------------------------------------------------------
# span checks and per-layer metrics


def nesting_errors(tracer):
    """Spans that leave their parent, or that have none.

    The benchmark opens one root span per phase, named after it ("setup",
    "march"); every layer span must lie inside its phase's root.
    """
    errors = []
    for sp in tracer.spans:
        if sp.parent is None:
            if sp.name != sp.phase:
                errors.append(f"{sp.name}#{sp.sid} ran outside the {sp.phase} root span")
            continue
        par = tracer.spans[sp.parent]
        if not (par.start <= sp.start <= sp.end <= par.end):
            errors.append(f"{sp.name}#{sp.sid} [{sp.start}, {sp.end}] leaves "
                          f"{par.name}#{par.sid} [{par.start}, {par.end}]")
    return errors


def layer_metrics(tracer):
    """Per-layer counts and seconds from the spans of one traced run."""
    spans = tracer.spans

    def pick(name):
        return [s for s in spans if s.name == name]

    def secs(name):
        return float(sum(s.dur for s in pick(name)))

    def calls(name):
        return len(pick(name))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in pick(name))

    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    steps = pick("solver.solve_step")
    infos = tracer.step_infos

    return {
        "mesh.build_s": ("s", secs("mesh.build")),
        "assembly.stiffness_s": ("s", secs("assembly.stiffness")),
        "assembly.stab_s": ("s", secs("assembly.stab")),
        "assembly.interface_blocks_s": ("s", secs("assembly.interface_blocks")),
        "solver.factor_s": ("s", secs("solver.factor")),
        "solver.schur_precompute_s": ("s", secs("solver.schur_precompute")),
        "solver.schur_precompute_rhs": ("count", total("solver.schur_precompute", "rhs")),
        "solver.lu_solve_calls": ("count", calls("solver.lu_solve")),
        "solver.lu_solve_s": ("s", secs("solver.lu_solve")),
        "solver.lu_solve_rhs": ("count", total("solver.lu_solve", "rhs")),
        "solver.dense_solve_calls": ("count", calls("solver.dense_solve")),
        "solver.dense_solve_s": ("s", secs("solver.dense_solve")),
        "solver.lstsq_calls": ("count", calls("solver.lstsq")),
        "solver.sparse_fallback_calls": ("count", calls("solver.sparse_fallback")),
        "assembly.jacobian_calls": ("count", calls("assembly.jacobian")),
        "assembly.jacobian_s": ("s", secs("assembly.jacobian")),
        "assembly.residual_calls": ("count", calls("assembly.residual")),
        "assembly.residual_s": ("s", secs("assembly.residual")),
        "assembly.divergence_calls": ("count", calls("assembly.divergence")),
        "assembly.divergence_s": ("s", secs("assembly.divergence")),
        "pressure.field_s": ("s", secs("pressure.field")),
        "solver.substeps": ("count", len(steps)),
        "solver.substeps_ok_ratio": (
            "ratio", sum(s.ok for s in steps) / len(steps) if steps else 1.0),
        "contact.classify_calls": ("count", calls("contact.classify")),
        "contact.status_flips": ("count", total("contact.classify", "flips")),
        "contact.classify_s": ("s", secs("contact.classify")),
        "solver.jump_search_s": ("s", secs("solver.jump_search")),
        "solver.jump_events": ("count", sum(i.jump_events for i in infos)),
        "solver.cycle_recoveries": ("count", sum(i.cycle_recoveries for i in infos)),
        "solver.linear_fallbacks": ("count", sum(i.linear_fallbacks for i in infos)),
        "solver.step_self_s": (
            "s", float(sum(s.dur - child_time.get(s.sid, 0.0) for s in steps))),
    }
