import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from multisymp.algebra import Polynomial
from multisymp.charts import scalar_field_chart
from multisymp.exterior import PolyForm, ext_d, form_basis
from multisymp.fieldlab import (
    ExperimentConfig,
    FieldState,
    Mode,
    acceleration,
    compile_form,
    compile_polynomial,
    conservation_experiment,
    functional_series,
    kg_step,
    legendre_lift,
    lift_residual_orders,
    load_experiment_config,
    plane_wave_state,
    pointwise_dynamics_on_lift,
    relative_drift,
    reversibility_error,
    simulate,
    slice_functional,
    time_reversed,
)
from multisymp.observables import charge_current_form

V_MASS = Polynomial(("s",), {(1,): Fraction(1)})
LENGTH = 2.0 * math.pi


def analytic_mode(m_grid, mode: Mode, mass2: float, t: float):
    k = 2.0 * math.pi * mode.wavenumber / LENGTH
    omega = math.sqrt(k * k + mass2)
    x = np.arange(m_grid) * (LENGTH / m_grid)
    angle = k * x + mode.phase - omega * t
    return np.stack([mode.amplitude * np.cos(angle), mode.amplitude * np.sin(angle)])


# -- integrator ----------------------------------------------------------------


def test_cfl_guard():
    with pytest.raises(ValueError):
        FieldState(dx=0.1, dt=0.095, time=0.0, phi=np.zeros((2, 8)), phi_prev=np.zeros((2, 8)))


def reference_step(state: FieldState) -> FieldState:
    """One leapfrog level as the plain np.roll expression, the reference
    that the buffered kernel must match bit for bit."""
    phi = state.phi
    s = 0.5 * (phi[0] ** 2 + phi[1] ** 2)
    lap = (np.roll(phi, -1, axis=-1) - 2.0 * phi + np.roll(phi, 1, axis=-1)) / state.dx**2
    acc = lap - (state.mass2 + 2.0 * state.coupling * s) * phi
    nxt = 2.0 * phi - state.phi_prev + state.dt**2 * acc
    return replace(state, phi=nxt, phi_prev=phi, time=state.time + state.dt)


@pytest.mark.parametrize("coupling", [0.0, 0.5])
@pytest.mark.parametrize("grid", [1, 2, 3, 64])
def test_kernel_is_bit_identical_to_the_reference_stepper(grid, coupling):
    state = plane_wave_state(grid, LENGTH, 0.1, [Mode(1.0, 1, 0.0), Mode(0.4, 2, 1.1)], 1.0, coupling)
    phi, phi_prev = state.phi.copy(), state.phi_prev.copy()
    levels = [state]
    for _ in range(100):
        levels.append(reference_step(levels[-1]))
    assert np.isfinite(levels[-1].phi).all()
    for n in (0, 1, 2, 100):
        stepped, expected = kg_step(state, n), levels[n]
        assert stepped.phi.tobytes() == expected.phi.tobytes()
        assert stepped.phi_prev.tobytes() == expected.phi_prev.tobytes()
        assert stepped.time == expected.time
        history = simulate(state, n)
        assert history.phi.tobytes() == np.array([level.phi for level in levels[: n + 1]]).tobytes()
        assert history.times.tobytes() == np.array([level.time for level in levels[: n + 1]]).tobytes()
        backward = time_reversed(expected)
        for _ in range(n):
            backward = reference_step(backward)
        reversal = max(np.max(np.abs(backward.phi - state.phi_prev)), np.max(np.abs(backward.phi_prev - state.phi)))
        assert reversibility_error(state, n) == float(reversal)
    assert state.phi.tobytes() == phi.tobytes() and state.phi_prev.tobytes() == phi_prev.tobytes()


@pytest.mark.parametrize("grid", [1, 2, 3, 64])
def test_a_stack_steps_each_run_as_if_alone(grid):
    """Runs with couplings 0 and 1/2 and different masses, stepped as one
    stack, give each run's levels, times and frames bit for bit."""
    runs = [plane_wave_state(grid, LENGTH, 0.1, modes, mass2, coupling) for modes, mass2, coupling in [
        ([Mode(1.0, 1, 0.0), Mode(0.4, 2, 1.1)], 1.0, 0.5),
        ([Mode(1.0, 1, 0.4)], 1.0, 0.0),
        ([Mode(0.7, 2, 0.3)], 0.25, 0.5),
    ]]
    stack = replace(runs[0], phi=np.stack([r.phi for r in runs]), phi_prev=np.stack([r.phi_prev for r in runs]),
                    mass2=np.array([r.mass2 for r in runs]), coupling=np.array([r.coupling for r in runs]))
    for n in (0, 1, 2, 100):
        stepped, history = kg_step(stack, n), simulate(stack, n)
        assert history.phi.shape == (n + 1, 3, 2, grid)
        for k, run in enumerate(runs):
            alone, alone_history = kg_step(run, n), simulate(run, n)
            assert stepped.phi[k].tobytes() == alone.phi.tobytes()
            assert stepped.phi_prev[k].tobytes() == alone.phi_prev.tobytes()
            assert stepped.time == alone.time
            assert history.phi[:, k].tobytes() == alone_history.phi.tobytes()
            assert history.times.tobytes() == alone_history.times.tobytes()


def test_kg_step_rejects_bad_step_counts_and_frames():
    state = plane_wave_state(8, LENGTH, 0.45, [Mode(1.0, 1, 0.0)], 1.0)
    with pytest.raises(ValueError):
        kg_step(state, -1)
    with pytest.raises(ValueError):
        kg_step(state, 3, np.empty((2, 2, 8)))
    stack = replace(state, phi=np.stack([state.phi] * 2), phi_prev=np.stack([state.phi_prev] * 2))
    with pytest.raises(ValueError):
        kg_step(stack, 3, np.empty((3, 2, 8)))


def test_zero_field_stays_zero():
    state = FieldState(dx=0.1, dt=0.04, time=0.0, phi=np.zeros((2, 16)), phi_prev=np.zeros((2, 16)))
    assert not kg_step(state).phi.any()


def test_dispersion_oracle_coarse_fine():
    """One step against the analytic phase advance of a linear mode: the
    local error is dominated by dt^2 dx^2 spatial truncation, so halving
    both steps divides it by about 16 (assert at least 8)."""

    def one_step_error(m_grid):
        state = plane_wave_state(m_grid, LENGTH, 0.4, [Mode(1.0, 3, 0.2)], 1.0)
        stepped = kg_step(state)
        exact = analytic_mode(m_grid, Mode(1.0, 3, 0.2), 1.0, stepped.time)
        return np.max(np.abs(stepped.phi - exact))

    assert one_step_error(64) / one_step_error(128) > 8


def test_massless_advection_oracle():
    """m = 0, no coupling: a right-moving profile returns to itself after
    one period, with second-order error."""

    def advect_error(m_grid):
        dx = LENGTH / m_grid
        steps = int(round(LENGTH / (0.45 * dx)))
        dt = LENGTH / steps
        x = np.arange(m_grid) * dx
        k = 2 * 2.0 * math.pi / LENGTH
        phi = np.stack([np.cos(k * x), np.sin(k * x)])
        phidot = np.stack([k * np.sin(k * x), -k * np.cos(k * x)])
        prev = phi - dt * phidot + 0.5 * dt**2 * acceleration(phi, dx, 0.0, 0.0)
        state = FieldState(dx=dx, dt=dt, time=0.0, phi=phi, phi_prev=prev, mass2=0.0)
        history = simulate(state, steps)
        return np.max(np.abs(history.phi[-1] - history.phi[0]))

    order = math.log2(advect_error(64) / advect_error(128))
    assert order > 1.8


def test_reversibility():
    state = plane_wave_state(128, LENGTH, 0.45, [Mode(1.0, 1, 0.0), Mode(0.4, 2, 1.1)], 1.0, 0.5)
    assert reversibility_error(state, 2000) <= 1e-11


# -- the lift -------------------------------------------------------------------


def test_static_lift_is_exact():
    """phi = const with V'(s) phi = 0: momenta vanish, e = V(s), H = 0
    exactly (here V = s - s^2 at s = 1/2)."""
    mass2, coupling = 1.0, -1.0
    m_grid = 16
    phi = np.zeros((2, m_grid))
    phi[0] = 1.0
    dx = LENGTH / m_grid
    state = FieldState(dx=dx, dt=0.25 * dx, time=0.0, phi=phi.copy(), phi_prev=phi.copy(),
                       mass2=mass2, coupling=coupling)
    # the configuration is a genuine static solution
    assert np.max(np.abs(acceleration(phi, dx, mass2, coupling))) == 0.0
    history = simulate(state, 4)
    potential = Polynomial(("s",), {(1,): Fraction(1), (2,): Fraction(-1)})
    chart = scalar_field_chart(2, potential)
    curve = legendre_lift(history, chart, [2])
    names = chart.frame.names
    e_col = names.index("e")
    for name in ("p0_1", "p0_2", "p1_1", "p1_2"):
        assert np.max(np.abs(curve.points[0, :, names.index(name)])) == 0.0
    v_value = 0.5 - 0.25  # V(1/2)
    assert np.allclose(curve.points[0, :, e_col], v_value, atol=1e-14)
    assert np.max(np.abs(curve.h_residual)) <= 1e-14


def test_zero_field_lift():
    state = FieldState(dx=0.1, dt=0.04, time=0.0, phi=np.zeros((2, 16)), phi_prev=np.zeros((2, 16)))
    history = simulate(state, 4)
    chart = scalar_field_chart(2, V_MASS)
    curve = legendre_lift(history, chart, [2])
    names = chart.frame.names
    for name in ("p0_1", "p0_2", "p1_1", "p1_2", "e"):
        assert np.max(np.abs(curve.points[0, :, names.index(name)])) == 0.0


def test_lift_residual_second_order():
    orders = lift_residual_orders(48, 2, [Mode(1.0, 1, 0.0)], 1.0)
    assert all(o >= 1.9 for o in orders), orders


def test_slice_functional_constant_form_gives_length():
    state = plane_wave_state(64, LENGTH, 0.45, [Mode(1.0, 1, 0.0)], 1.0)
    history = simulate(state, 6)
    chart = scalar_field_chart(2, V_MASS)
    curve = legendre_lift(history, chart, [2, 3])
    dx1 = form_basis(chart.frame, "x1")
    assert abs(slice_functional(curve, dx1, 0) - LENGTH) < 1e-12
    with pytest.raises(ValueError):
        slice_functional(curve, dx1, 99)


def test_slice_type_resolves_rows():
    from fractions import Fraction as Fr

    from multisymp.charts import Slice
    from multisymp.fieldlab import slice_functional_at

    state = plane_wave_state(64, LENGTH, 0.45, [Mode(1.0, 1, 0.0)], 1.0)
    history = simulate(state, 6)
    chart = scalar_field_chart(2, V_MASS)
    curve = legendre_lift(history, chart, [2, 3])
    level = Fraction(history.times[3]).limit_denominator(10**12)
    sl = Slice(chart=chart, coordinate="x0", level=level)
    dx1 = form_basis(chart.frame, "x1")
    assert abs(slice_functional_at(curve, dx1, sl) - LENGTH) < 1e-12
    flipped = Slice(chart=chart, coordinate="x0", level=level, coorientation=-1)
    assert abs(slice_functional_at(curve, dx1, flipped) + LENGTH) < 1e-12
    with pytest.raises(ValueError):
        slice_functional_at(curve, dx1, Slice(chart=chart, coordinate="x1", level=Fr(0)))
    with pytest.raises(ValueError):
        Slice(chart=chart, coordinate="nope", level=Fr(0))


def test_slice_functional_matches_charge_formula():
    state = plane_wave_state(64, LENGTH, 0.45, [Mode(1.0, 1, 0.0), Mode(0.3, 2, 0.7)], 1.0)
    history = simulate(state, 8)
    chart = scalar_field_chart(2, V_MASS)
    curve = legendre_lift(history, chart, [3])
    observable = charge_current_form(chart)
    via_form = slice_functional(curve, observable, 0)
    phi = history.phi
    dtphi = (phi[4] - phi[2]) / (2.0 * history.dt)
    direct = float((dtphi[0] * phi[3][1] - dtphi[1] * phi[3][0]).sum() * history.dx)
    assert abs(via_form - direct) < 1e-12


def test_exact_form_integrates_to_zero():
    """A differential of a chart function integrates to zero over the
    closed spatial slice, up to quadrature error."""
    state = plane_wave_state(128, LENGTH, 0.45, [Mode(1.0, 1, 0.0)], 1.0)
    history = simulate(state, 6)
    chart = scalar_field_chart(2, V_MASS)
    f = chart.frame
    curve = legendre_lift(history, chart, [3])
    exact = ext_d(PolyForm(f, 0, {(): f.poly_var("phi1") * f.poly_var("p1_2")}))
    value = slice_functional(curve, exact, 0)
    assert abs(value) < 1e-10  # closed-loop integral of a derivative


def reference_coords_fields(history, j: int) -> dict[str, np.ndarray]:
    """Lifted coordinate fields at one time index j (1 <= j <= T-2), the
    per-level reference that the array lift must match bit for bit."""
    dt, dx = history.dt, history.dx
    phi = history.phi
    out: dict[str, np.ndarray] = {}
    m = phi.shape[2]
    out["x1"] = np.arange(m) * dx
    out["x0"] = np.full(m, history.times[j])
    dt_phi = (phi[j + 1] - phi[j - 1]) / (2.0 * dt)
    dx_phi = (np.roll(phi[j], -1, axis=-1) - np.roll(phi[j], 1, axis=-1)) / (2.0 * dx)
    fwd_t = (phi[j + 1] - phi[j]) / dt
    bwd_t = (phi[j] - phi[j - 1]) / dt
    fwd_x = (np.roll(phi[j], -1, axis=-1) - phi[j]) / dx
    bwd_x = (phi[j] - np.roll(phi[j], 1, axis=-1)) / dx
    s = 0.5 * (phi[j][0] ** 2 + phi[j][1] ** 2)
    v = history.mass2 * s + history.coupling * s**2
    lagrangian = 0.5 * ((fwd_t * bwd_t).sum(axis=0) - (fwd_x * bwd_x).sum(axis=0)) + v
    for a in (1, 2):
        out[f"phi{a}"] = phi[j][a - 1]
        out[f"p0_{a}"] = dt_phi[a - 1]
        out[f"p1_{a}"] = -dx_phi[a - 1]
    pdphi = (out["p0_1"] * dt_phi[0] + out["p0_2"] * dt_phi[1]
             + out["p1_1"] * dx_phi[0] + out["p1_2"] * dx_phi[1])
    out["e"] = lagrangian - pdphi
    return out


def reference_lift(history, chart, steps):
    """points, frames_t, frames_x and h_residual lifted one level and one
    row at a time."""
    names, total = chart.frame.names, history.steps
    table = {k: np.stack([reference_coords_fields(history, k)[name] for name in names], axis=-1)
             for k in {k for j in steps for k in (j - 1, j, j + 1) if 1 <= k <= total - 2}}
    points = np.stack([table[j] for j in steps]) if steps else np.zeros((0, history.phi.shape[2], chart.dim))
    frames_t = np.zeros_like(points)
    for row, j in enumerate(steps):
        if 2 <= j <= total - 3:
            frames_t[row] = (table[j + 1] - table[j - 1]) / (2.0 * history.dt)
            frames_t[row, :, names.index("x0")], frames_t[row, :, names.index("x1")] = 1.0, 0.0
    frames_x = (np.roll(points, -1, axis=1) - np.roll(points, 1, axis=1)) / (2.0 * history.dx)
    frames_x[..., names.index("x0")], frames_x[..., names.index("x1")] = 0.0, 1.0
    compiled_h = compile_polynomial(chart.hamiltonian, names)
    h_residual = np.zeros(points.shape[:2])
    for row in range(len(steps)):
        h_residual[row] = compiled_h(points[row].T)
    return points, frames_t, frames_x, h_residual


@pytest.mark.parametrize("coupling", [0.0, 0.5])
@pytest.mark.parametrize("steps", [None, [], [1], [28], [3, 3, 1, 7, 2], [1, 2, 5, 27, 28]], ids=repr)
def test_array_lift_is_bit_identical_to_the_per_level_lift(steps, coupling):
    """On a run of T = 30 levels: every interior step, none, the first and
    the last (T - 2), repeated and unsorted steps, and both edges of the
    centered time frame."""
    potential = Polynomial(("s",), {(1,): Fraction(1), (2,): Fraction(coupling)})
    chart = scalar_field_chart(2, potential)
    state = plane_wave_state(64, LENGTH, 0.45, [Mode(1.0, 1, 0.2), Mode(0.4, 2, 1.1)], 1.0, coupling)
    history = simulate(state, 29)
    curve = legendre_lift(history, chart, steps)
    expected_steps = list(range(1, 29)) if steps is None else steps
    assert curve.step_indices.tolist() == expected_steps
    assert curve.times.tobytes() == history.times[expected_steps].tobytes()
    expected = reference_lift(history, chart, expected_steps)
    for name, array in zip(("points", "frames_t", "frames_x", "h_residual"), expected):
        got = getattr(curve, name)
        assert got.shape == array.shape and got.tobytes() == array.tobytes(), name


def test_lift_refuses_the_first_step_outside_the_interior():
    history = simulate(plane_wave_state(16, LENGTH, 0.45, [Mode(1.0, 1, 0.0)], 1.0), 6)
    chart = scalar_field_chart(2, V_MASS)
    for steps, bad in (([2, 0, 7], 0), ([5, 6, -1], 6), ([3, 7, 0], 7)):
        with pytest.raises(ValueError, match=f"^step {bad} outside the interior range$"):
            legendre_lift(history, chart, steps)


def test_lift_refuses_a_stack_of_runs():
    state = plane_wave_state(16, LENGTH, 0.45, [Mode(1.0, 1, 0.0)], 1.0)
    stack = replace(state, phi=np.stack([state.phi] * 2), phi_prev=np.stack([state.phi_prev] * 2))
    history = simulate(stack, 6)
    with pytest.raises(ValueError, match=r"^the lift takes one run of shape \(T, 2, M\), got phi of shape \(7, 2, 2, 16\)$"):
        legendre_lift(history, scalar_field_chart(2, V_MASS), [2])


def test_slice_integrals_and_pointwise_law_match_per_row_references():
    """Each slice integral is its row of the series, the series is the
    per-row midpoint sum, and the pointwise law's stats are those of the
    interior rows taken one at a time."""
    from multisymp.brackets import pseudobracket_function

    state = plane_wave_state(64, LENGTH, 0.45, [Mode(1.0, 1, 0.0), Mode(0.3, 2, 0.4)], 1.0, 0.5)
    chart = scalar_field_chart(2, V_MASS)
    curve = legendre_lift(simulate(state, 30), chart, [1, 2, 9, 9, 29, 3])
    f = chart.frame
    observable = charge_current_form(chart)
    for form in (observable, ext_d(PolyForm(f, 0, {(): f.poly_var("phi1") * f.poly_var("p1_2")}))):
        series = functional_series(curve, form)
        one_form = compile_form(form, 1)
        for row in range(len(curve.step_indices)):
            per_row = one_form(curve.points[row].T, curve.frames_x[row].T).sum() * curve.dx
            assert series[row].tobytes() == per_row.tobytes()
            assert slice_functional(curve, form, row) == series[row]
    df = compile_form(ext_d(observable), 2)
    vol = compile_form(chart.volume_form(), 2)
    br = compile_polynomial(pseudobracket_function(chart, observable), chart.frame.names)
    worst, samples = 0.0, 0
    for row in range(len(curve.step_indices)):
        if curve.frames_t[row].any():
            coords, xt, xx = curve.points[row].T, curve.frames_t[row].T, curve.frames_x[row].T
            worst = max(worst, float(np.max(np.abs(df(coords, xt, xx) - br(coords) * vol(coords, xt, xx)))))
            samples += coords.shape[1]
    assert samples == 4 * 64  # the rows at steps 2, 9, 9 and 3
    assert pointwise_dynamics_on_lift(curve, chart, observable) == {"max_residual": worst, "samples": float(samples)}


def test_a_nan_on_an_interior_row_reaches_the_pointwise_residual():
    chart, curve = make_curve(m_grid=16, steps=12)
    observable = charge_current_form(chart)
    assert math.isfinite(pointwise_dynamics_on_lift(curve, chart, observable)["max_residual"])
    curve.points[1, 3, chart.frame.index("phi1")] = np.nan
    assert math.isnan(pointwise_dynamics_on_lift(curve, chart, observable)["max_residual"])


# -- conservation experiments ------------------------------------------------------


def test_linear_experiment_conserves_both():
    result = conservation_experiment(
        ExperimentConfig(coupling=0.0, expectations={"charge": True, "smeared": True})
    )
    assert result.matches_expectations
    drifts = {f.name: f.max_drift for f in result.functionals}
    assert drifts["charge"] <= 1e-5
    assert drifts["smeared"] <= 1e-4


def test_nonlinear_experiment_dichotomy():
    result = conservation_experiment(
        ExperimentConfig(coupling=0.5, expectations={"charge": True, "smeared": False})
    )
    assert result.matches_expectations
    drifts = {f.name: f.max_drift for f in result.functionals}
    assert drifts["charge"] <= 1e-5
    assert drifts["smeared"] >= 1e-2


def test_zero_field_experiment():
    result = conservation_experiment(
        ExperimentConfig(field_modes=(Mode(0.0, 1, 0.0),), test_modes=(Mode(1.0, 1, 0.0),))
    )
    assert not np.abs(result.series["charge"]).any()
    assert not np.abs(result.series["smeared"]).any()


def test_frame_budget_boundary():
    """With cfl 1/2 on 256 points a run takes 512 steps per crossing, and
    a level of the experiment is 2 runs * 2 components * 256 float64s; the
    largest experiment that fits steps levels x grid points worth exactly
    FRAME_BYTES_LIMIT bytes.  The limit bounds the run's work: the
    experiment holds one window of levels, never the whole run, and
    constructing a config allocates nothing."""
    from multisymp.fieldlab import FRAME_BYTES_LIMIT

    levels = FRAME_BYTES_LIMIT // (2 * 2 * 256 * 8)
    fits = ExperimentConfig(grid_points=256, cfl=0.5, crossing_times=(levels - 1) / 512)
    assert (fits.n_steps + 1) * 2 * 2 * 256 * 8 == FRAME_BYTES_LIMIT
    with pytest.raises(ValueError, match="more than the limit"):
        ExperimentConfig(grid_points=256, cfl=0.5, crossing_times=levels / 512)


def reference_series(config: ExperimentConfig) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The experiment's series computed one recorded row at a time from the
    field and U simulated as two runs, the reference that the stacked,
    chunked experiment must match bit for bit."""
    history = simulate(plane_wave_state(config.grid_points, config.length, config.cfl, config.field_modes,
                                        config.mass2, config.coupling), config.n_steps)
    test_history = simulate(plane_wave_state(config.grid_points, config.length, config.cfl, config.test_modes,
                                             config.mass2, 0.0), config.n_steps)
    rows = list(range(1, config.n_steps, config.record_stride))
    dt, dx = history.dt, history.dx
    phi, u = history.phi, test_history.phi
    charge, smeared, energy = (np.empty(len(rows)) for _ in range(3))
    for i, j in enumerate(rows):
        dtphi = (phi[j + 1] - phi[j - 1]) / (2.0 * dt)
        dtu = (u[j + 1] - u[j - 1]) / (2.0 * dt)
        charge[i] = float((dtphi[0] * phi[j][1] - dtphi[1] * phi[j][0]).sum() * dx)
        smeared[i] = float(((u[j] * dtphi).sum(axis=0) - (dtu * phi[j]).sum(axis=0)).sum() * dx)
        dxphi = (np.roll(phi[j], -1, axis=-1) - np.roll(phi[j], 1, axis=-1)) / (2.0 * dx)
        s = 0.5 * (phi[j][0] ** 2 + phi[j][1] ** 2)
        density = 0.5 * ((dtphi**2).sum(axis=0) + (dxphi**2).sum(axis=0)) + (
            config.mass2 * s + config.coupling * s**2
        )
        energy[i] = float(density.sum() * dx)
    return {"charge": charge, "smeared": smeared, "energy": energy}, history.times[rows]


SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "scripts").glob("*.json"))


def test_every_shipped_config_is_a_distinct_run():
    """Two shipped configs that differ only in what they expect run the
    same experiment twice and write the same series twice."""
    runs = []
    for path in SHIPPED_CONFIGS:
        run = json.loads(path.read_text())
        run.pop("expectations", None)
        runs.append(run)
    duplicates = [(a.stem, b.stem) for (a, ra), (b, rb) in combinations(zip(SHIPPED_CONFIGS, runs), 2) if ra == rb]
    assert len(SHIPPED_CONFIGS) >= 2 and not duplicates


@pytest.mark.parametrize("config", [load_experiment_config(path) for path in SHIPPED_CONFIGS] + [
    ExperimentConfig(coupling=0.5, crossing_times=2.0, record_stride=3),  # 379 rows, a partial last chunk
    ExperimentConfig(coupling=0.5, crossing_times=0.5, record_stride=32),  # 9 rows, fewer than one chunk
    # 283 rows: each window starts one level before the end of the last one
    ExperimentConfig(coupling=0.5, crossing_times=0.5, record_stride=1),
    # 142 rows: each window starts at the last level of the one before
    ExperimentConfig(coupling=0.5, crossing_times=0.5, record_stride=2),
    ExperimentConfig(coupling=0.5, crossing_times=0.5, record_stride=1000),  # one row
    # 95 rows; the leapfrog is unstable at this amplitude, and the series
    # turn NaN after 76 rows
    ExperimentConfig(grid_points=64, coupling=5.0, crossing_times=2.0, record_stride=3,
                     field_modes=(Mode(10.0, 1, 0.0),)),
], ids=[path.stem for path in SHIPPED_CONFIGS] + [
    "partial-chunk", "under-one-chunk", "stride-1", "stride-2", "one-row", "blows-up"])
def test_chunked_series_equal_the_per_row_loop(config):
    from multisymp.fieldlab import _SERIES_CHUNK

    with np.errstate(over="ignore", invalid="ignore"):
        result = conservation_experiment(config)
        series, times = reference_series(config)
    assert len(times) % _SERIES_CHUNK
    assert result.times.tobytes() == times.tobytes()
    assert sorted(result.series) == sorted(series)
    for name in series:
        assert result.series[name].tobytes() == series[name].tobytes(), name


def test_the_experiment_holds_one_window_of_levels():
    """The shipped configs step 5,691 levels of two runs, 46.6 MB of
    frames; the experiment holds one window of 123 levels (about 1 MB) and
    the reductions of one chunk of rows, so its traced peak stays far
    below the run's size."""
    tracemalloc.start()
    try:
        conservation_experiment(ExperimentConfig(coupling=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_functional_series_matches_experiment_charge():
    """The charge form's slice integrals on the lift of the experiment's own
    run, at its recorded rows, reproduce the experiment's charge series."""
    config = ExperimentConfig(coupling=0.0, crossing_times=0.5, record_stride=16)
    result = conservation_experiment(config)
    assert relative_drift(result.series["charge"]) <= 1e-6
    state = plane_wave_state(config.grid_points, config.length, config.cfl, config.field_modes,
                             config.mass2, config.coupling)
    chart = scalar_field_chart(2, V_MASS)
    curve = legendre_lift(simulate(state, config.n_steps), chart,
                          range(1, config.n_steps, config.record_stride))
    series = functional_series(curve, charge_current_form(chart))
    np.testing.assert_allclose(series, result.series["charge"], rtol=1e-12)


def test_energy_is_reported_when_expected():
    """The linear field's energy drifts at second order only: about 1.5e-8
    over two crossings, well inside the conserved tolerance."""
    config = ExperimentConfig(coupling=0.0, crossing_times=2.0, expectations={"charge": True, "energy": True})
    result = conservation_experiment(config)
    assert [f.name for f in result.functionals] == ["charge", "smeared", "energy"]
    energy = result.functionals[2]
    assert energy.tolerance == config.conserved_tolerance
    assert energy.max_drift == pytest.approx(1.5e-8, rel=0.05)
    assert energy.conserved and result.matches_expectations


def test_a_failed_expectation_does_not_match():
    config = ExperimentConfig(coupling=0.5, crossing_times=2.0, expectations={"smeared": True})
    result = conservation_experiment(config)
    assert [f.name for f in result.functionals] == ["charge", "smeared"]
    assert not result.functionals[1].conserved
    assert not result.matches_expectations


def test_one_form_evaluators_refuse_a_two_form():
    state = plane_wave_state(16, LENGTH, 0.45, [Mode(1.0, 1, 0.0)], 1.0)
    chart = scalar_field_chart(2, V_MASS)
    curve = legendre_lift(simulate(state, 6), chart, [2, 3])
    two_form = form_basis(chart.frame, "x0", "x1")
    with pytest.raises(ValueError):
        slice_functional(curve, two_form, 0)
    with pytest.raises(ValueError):
        functional_series(curve, two_form)


# -- pointwise dynamics on the lift --------------------------------------------------


def make_curve(coupling=0.0, m_grid=128, steps=40):
    state = plane_wave_state(m_grid, LENGTH, 0.45, [Mode(1.0, 1, 0.0), Mode(0.3, 2, 0.4)], 1.0, coupling)
    history = simulate(state, steps)
    chart = scalar_field_chart(2, V_MASS)
    rows = list(range(2, steps - 2, 3))
    return chart, legendre_lift(history, chart, rows)


def test_pointwise_dynamics_volume_primitive_exact():
    chart, curve = make_curve()
    f = chart.frame
    primitive = form_basis(f, "x1").scale(f.poly_var("x0"))
    stats = pointwise_dynamics_on_lift(curve, chart, primitive)
    assert stats["max_residual"] <= 1e-12


def test_pointwise_dynamics_closed_form_exact():
    chart, curve = make_curve()
    f = chart.frame
    closed = ext_d(PolyForm(f, 0, {(): f.poly_var("x0") * f.poly_var("x1")}))
    stats = pointwise_dynamics_on_lift(curve, chart, closed)
    assert stats["max_residual"] <= 1e-12


def test_pointwise_dynamics_charge_form_second_order():
    residuals = []
    for m_grid, steps in [(64, 24), (128, 48), (256, 96)]:
        chart, curve = make_curve(m_grid=m_grid, steps=steps)
        observable = charge_current_form(chart)
        residuals.append(pointwise_dynamics_on_lift(curve, chart, observable)["max_residual"])
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders), (residuals, orders)
