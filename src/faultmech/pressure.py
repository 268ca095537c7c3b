"""Pore-pressure loading: compartment schedules, tabulated fields, and the
fault-pressure rule for sealing / non-sealing surfaces."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "YEAR",
    "PressureError",
    "PressureField",
    "TablePressure",
    "UniformCompartmentPressure",
    "compartment_schedule",
    "interface_pressure",
    "schedule_times",
]

YEAR = 365.25 * 86400.0
_STEP = YEAR / 6.0  # two-month loading step in the injection phases

_MODES = ("sealing", "non_sealing")


class PressureError(ValueError):
    """Raised for invalid schedules, modes, or table input."""


def schedule_times(n_cycles: int = 1) -> np.ndarray:
    """Times [s] of every loading step boundary, starting at t = 0.

    Ten yearly depletion steps, twelve two-month refill steps, then six
    two-month steps per storage cycle (three down, three up)."""
    if n_cycles < 0:
        raise PressureError("cycle count must be non-negative")
    times = [0.0]
    times += [i * YEAR for i in range(1, 11)]
    times += [10.0 * YEAR + i * _STEP for i in range(1, 13)]
    base = 12.0 * YEAR
    for _ in range(n_cycles):
        times += [base + i * _STEP for i in range(1, 7)]
        base += YEAR
    return np.asarray(times)


def _dp_of_time(t, n_cycles):
    knots_t = [0.0, 10.0 * YEAR, 12.0 * YEAR]
    knots_p = [0.0, -20.0e6, 0.0]
    base = 12.0 * YEAR
    for _ in range(n_cycles):
        knots_t += [base + 0.5 * YEAR, base + YEAR]
        knots_p += [-10.0e6, 0.0]
        base += YEAR
    return float(np.interp(t, knots_t, knots_p))


def compartment_schedule(step: int, n_cycles: int = 1) -> float:
    """Uniform compartment Δp [Pa] at the end of loading step ``step``."""
    times = schedule_times(n_cycles)
    if not 0 <= step < times.size:
        raise PressureError(f"step {step} outside schedule 0..{times.size - 1}")
    return _dp_of_time(times[step], n_cycles)


def interface_pressure(mesh, cell_dp, hydraulic_modes) -> np.ndarray:
    """Per-interface Δp from cell values and per-fault hydraulic modes.

    Faults absent from ``hydraulic_modes`` are sealing."""
    iset = mesh.interfaces
    out = np.zeros(iset.count)
    cell_dp = np.asarray(cell_dp)
    for fid, name in enumerate(iset.fault_names):
        mode = hydraulic_modes.get(name, "sealing")
        if mode == "sealing":
            continue
        if mode != "non_sealing":
            raise PressureError(f"unknown hydraulic mode {mode!r} for fault {name}")
        sel = iset.fault_ids == fid
        out[sel] = 0.5 * (cell_dp[iset.cell_bottom[sel]] + cell_dp[iset.cell_top[sel]])
    return out


@dataclass(frozen=True)
class PressureField:
    """Cell and interface Δp [Pa] for one loading step."""

    cell_dp: np.ndarray
    fault_dp: np.ndarray


class UniformCompartmentPressure:
    """Uniform Δp over each compartment following the built-in schedule."""

    def __init__(self, mesh, compartments, n_cycles: int = 1, hydraulic_modes=None):
        self.mesh = mesh
        self.compartments = tuple(np.asarray(c, dtype=np.int64) for c in compartments)
        self.n_cycles = n_cycles
        self.hydraulic_modes = dict(hydraulic_modes or {})
        for mode in self.hydraulic_modes.values():
            if mode not in _MODES:
                raise PressureError(f"unknown hydraulic mode {mode!r}")
        self.times = schedule_times(n_cycles)

    @property
    def n_steps(self):
        return self.times.size - 1

    def field_at(self, step: int) -> PressureField:
        dp = compartment_schedule(step, self.n_cycles)
        cell_dp = np.zeros(self.mesh.n_cells)
        for cells in self.compartments:
            cell_dp[cells] = dp
        fault_dp = interface_pressure(self.mesh, cell_dp, self.hydraulic_modes)
        return PressureField(cell_dp=cell_dp, fault_dp=fault_dp)


class TablePressure:
    """Per-cell Δp time series read from a text table.

    Expected header ``cell_id,time_s,dp_pa``; times strictly increasing per
    cell; linear interpolation between listed times; unlisted cells stay 0."""

    def __init__(self, mesh, path, times, hydraulic_modes=None):
        self.mesh = mesh
        self.times = np.asarray(times, dtype=float)
        self.hydraulic_modes = dict(hydraulic_modes or {})
        series = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["cell_id", "time_s", "dp_pa"]:
                raise PressureError(f"{path}: bad header {header!r}, expected cell_id,time_s,dp_pa")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                try:
                    cell = int(row[0])
                    t = float(row[1])
                    dp = float(row[2])
                except (ValueError, IndexError) as exc:
                    raise PressureError(f"{path}: malformed row {lineno}: {row!r}") from exc
                if not 0 <= cell < mesh.n_cells:
                    raise PressureError(f"{path}: row {lineno}: unknown cell id {cell}")
                series.setdefault(cell, []).append((t, dp))
        self._series = {}
        for cell, samples in series.items():
            ts = np.array([s[0] for s in samples])
            ps = np.array([s[1] for s in samples])
            if np.any(np.diff(ts) <= 0.0):
                raise PressureError(f"{path}: cell {cell}: times must be strictly increasing")
            self._series[cell] = (ts, ps)

    @property
    def n_steps(self):
        return self.times.size - 1

    def field_at(self, step: int) -> PressureField:
        if not 0 <= step < self.times.size:
            raise PressureError(f"step {step} outside schedule 0..{self.times.size - 1}")
        t = self.times[step]
        cell_dp = np.zeros(self.mesh.n_cells)
        for cell, (ts, ps) in self._series.items():
            cell_dp[cell] = float(np.interp(t, ts, ps))
        fault_dp = interface_pressure(self.mesh, cell_dp, self.hydraulic_modes)
        return PressureField(cell_dp=cell_dp, fault_dp=fault_dp)
