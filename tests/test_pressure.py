"""Schedule values, fault-pressure rule, and table ingestion."""
from __future__ import annotations

import numpy as np
import pytest

from faultmech.mesh import AxisSegment, DomainSpec, FaultSpec, build_structured_domain
from faultmech.pressure import (
    YEAR,
    PressureError,
    TablePressure,
    UniformCompartmentPressure,
    compartment_schedule,
    interface_pressure,
    schedule_times,
)

MPA = 1.0e6


def test_schedule_lengths_one_cycle():
    times = schedule_times(1)
    assert times.shape == (29,)
    assert times[0] == 0.0
    assert np.all(np.diff(times) > 0.0)


def test_schedule_lengths_two_cycles():
    assert schedule_times(2).shape == (35,)


def test_pp_values():
    assert compartment_schedule(0) == 0.0
    assert compartment_schedule(5) == pytest.approx(-10.0 * MPA, rel=1e-12)
    assert compartment_schedule(10) == pytest.approx(-20.0 * MPA, rel=1e-12)


def test_cgi_values():
    # one year into the two-year injection: half the drop recovered
    assert compartment_schedule(16) == pytest.approx(-10.0 * MPA, rel=1e-12)
    assert compartment_schedule(22) == pytest.approx(0.0, abs=1e-6)


def test_ugs_values():
    assert compartment_schedule(23) == pytest.approx(-10.0 * MPA / 3.0, rel=1e-12)
    assert compartment_schedule(25) == pytest.approx(-10.0 * MPA, rel=1e-12)
    assert compartment_schedule(28) == pytest.approx(0.0, abs=1e-6)


def test_schedule_times_spacing():
    times = schedule_times(1)
    assert np.allclose(np.diff(times[:11]), YEAR)
    assert np.allclose(np.diff(times[10:]), YEAR / 6.0)


def test_schedule_piecewise_linear_within_phases():
    # midpoints of linear ramps are the mean of the endpoints
    for a, b in ((3, 5), (12, 14), (23, 25)):
        mid = (a + b) // 2
        expect = 0.5 * (compartment_schedule(a) + compartment_schedule(b))
        assert compartment_schedule(mid) == pytest.approx(expect, rel=1e-12)


def test_schedule_out_of_range():
    with pytest.raises(PressureError):
        compartment_schedule(29)
    with pytest.raises(PressureError):
        compartment_schedule(-1)


def _faulted_bar():
    spec = DomainSpec(
        x_segments=[AxisSegment(0.0, 3.0, "uniform", 1.0)],
        y_segments=[AxisSegment(0.0, 1.0, "uniform", 1.0)],
        z_segments=[AxisSegment(0.0, 1.0, "uniform", 1.0)],
        faults=[
            FaultSpec(
                name="F",
                axis="x",
                position=1.0,
                lateral_min=0.0,
                lateral_max=1.0,
                z_min=0.0,
                z_max=1.0,
            )
        ],
    )
    return build_structured_domain(spec)


def test_fault_pressure_rules():
    mesh = _faulted_bar()
    both_depleted = np.array([-20.0 * MPA, -20.0 * MPA, 0.0])
    one_depleted = np.array([-20.0 * MPA, 0.0, 0.0])
    assert interface_pressure(mesh, both_depleted, {"F": "sealing"})[0] == 0.0
    assert interface_pressure(mesh, both_depleted, {"F": "non_sealing"})[0] == pytest.approx(
        -20.0 * MPA
    )
    assert interface_pressure(mesh, one_depleted, {"F": "non_sealing"})[0] == pytest.approx(
        -10.0 * MPA
    )
    with pytest.raises(PressureError):
        interface_pressure(mesh, both_depleted, {"F": "porous"})


def test_uniform_model_fields():
    mesh = _faulted_bar()
    model = UniformCompartmentPressure(
        mesh, compartments=(np.array([0]), np.array([1])), n_cycles=1
    )
    f = model.field_at(10)
    assert f.cell_dp[0] == pytest.approx(-20.0 * MPA)
    assert f.cell_dp[1] == pytest.approx(-20.0 * MPA)
    assert f.cell_dp[2] == 0.0
    # default hydraulic mode seals every fault
    assert np.all(f.fault_dp == 0.0)


def test_uniform_model_non_sealing_fault():
    mesh = _faulted_bar()
    model = UniformCompartmentPressure(
        mesh,
        compartments=(np.array([0]), np.array([1])),
        hydraulic_modes={"F": "non_sealing"},
    )
    f = model.field_at(10)
    # the interface sits between cell 0 (depleted) and cell 1 (depleted)
    assert f.fault_dp[0] == pytest.approx(-20.0 * MPA)
    model2 = UniformCompartmentPressure(
        mesh, compartments=(np.array([0]), np.array([2])), hydraulic_modes={"F": "non_sealing"}
    )
    assert model2.field_at(10).fault_dp[0] == pytest.approx(-10.0 * MPA)


def test_interface_pressure_vectorized():
    mesh = _faulted_bar()
    cell_dp = np.array([-4.0, -2.0, 0.0])
    dp = interface_pressure(mesh, cell_dp, {"F": "non_sealing"})
    assert dp[0] == pytest.approx(-3.0)
    assert interface_pressure(mesh, cell_dp, {})[0] == 0.0


def test_table_roundtrip(tmp_path):
    mesh = _faulted_bar()
    times = schedule_times(1)
    ref = UniformCompartmentPressure(mesh, compartments=(np.array([0]), np.array([1])))
    path = tmp_path / "dp.csv"
    rows = ["cell_id,time_s,dp_pa"]
    for cell in (0, 1):
        for s, t in enumerate(times):
            rows.append(f"{cell},{float(t)!r},{float(compartment_schedule(s))!r}")
    path.write_text("\n".join(rows) + "\n")
    table = TablePressure(mesh, path, times)
    for step in (0, 5, 10, 16, 22, 25, 28):
        np.testing.assert_allclose(
            table.field_at(step).cell_dp, ref.field_at(step).cell_dp, rtol=1e-12, atol=1e-6
        )


def test_table_missing_cells_default_zero(tmp_path):
    mesh = _faulted_bar()
    path = tmp_path / "dp.csv"
    path.write_text("cell_id,time_s,dp_pa\n1,0.0,0.0\n1,100.0,-5.0e6\n")
    table = TablePressure(mesh, path, np.array([0.0, 50.0, 100.0]))
    f = table.field_at(1)
    assert f.cell_dp[0] == 0.0
    assert f.cell_dp[1] == pytest.approx(-2.5e6)


def test_table_malformed_row(tmp_path):
    path = tmp_path / "dp.csv"
    path.write_text("cell_id,time_s,dp_pa\n0,0.0,0.0\nnot,a,row\n")
    with pytest.raises(PressureError, match="row 3"):
        TablePressure(_faulted_bar(), path, np.array([0.0]))


def test_table_unknown_cell(tmp_path):
    path = tmp_path / "dp.csv"
    path.write_text("cell_id,time_s,dp_pa\n99,0.0,0.0\n")
    with pytest.raises(PressureError, match="cell"):
        TablePressure(_faulted_bar(), path, np.array([0.0]))


def test_table_non_monotone_times(tmp_path):
    path = tmp_path / "dp.csv"
    path.write_text("cell_id,time_s,dp_pa\n0,100.0,0.0\n0,50.0,-1.0\n")
    with pytest.raises(PressureError, match="increasing"):
        TablePressure(_faulted_bar(), path, np.array([0.0]))


def test_table_bad_header(tmp_path):
    path = tmp_path / "dp.csv"
    path.write_text("cell,time,dp\n0,0.0,0.0\n")
    with pytest.raises(PressureError, match="header"):
        TablePressure(_faulted_bar(), path, np.array([0.0]))
