"""Floating-point laboratory: a 1+1-dimensional complex scalar field.

This is the only module that leaves exact arithmetic.  A complex field
phi = phi1 + i phi2 on a periodic spatial lattice evolves under

    d2_t phi^a = d2_x phi^a - V'(s) phi^a,     s = |phi|^2 / 2,
    V(s) = mass2 * s + coupling * s^2

(quartic self-interaction; the U(1) phase symmetry survives the
nonlinearity, which is exactly what the conservation experiments probe).
The integrator is the standard three-level leapfrog: second order and
time-reversible.  For any phase-invariant potential it conserves
C^{n+1/2} = sum over the lattice of phi^{n+1} x phi^n (the cross product
phi1^{n+1} phi2^n - phi2^{n+1} phi1^n) exactly in exact arithmetic, and
the reported centered charge at level j is (C^{j+1/2} + C^{j-1/2}) dx / 2dt;
in floats its drift is round-off.

`kg_step` is the one stepping kernel.  It advances one run, or a stack of
runs sharing dx, dt and M, any number of levels in ghost-padded buffers
with preallocated scratch, optionally writing every level into a caller's
frame array; `simulate` records a trajectory through it, the conservation
experiment steps the field and its linear test solution as one stack, one
window of levels at a time, and `reversibility_error` runs it forwards
and, with the levels swapped, backwards.  Each run's results are
bit-identical to the plain one-level `np.roll` expression (same IEEE
operations in the same order), so recorded runs, series and their digests
do not depend on the kernel, the stack or the windows.

Lifting a discrete solution into the scalar-field chart uses centered
differences for the momenta p^mu_a = eta^{mu nu} d_nu phi^a and fixes the
energy coordinate by matching the Lagrangian density,
e = L - p^mu_a d_mu phi^a, where L's kinetic terms are quadratured with
the *product of forward and backward* differences.  That estimator is
second-order like the centered one but not identical to it, so the
constraint H = 0 on the lift is a genuine O(dx^2 + dt^2) verification,
not an identity of the discretization.  `legendre_lift` lifts its steps,
and their neighbours for the tangent frames, as whole (L, M, dim) arrays
in frame order, with the same elementwise expressions as one level.

`compile_form` is the one float evaluator of forms on the lift: a 1-form
on one field of tangent vectors, a 2-form on two.  The slice integrals
(`functional_series`, and `slice_functional` reading its row) and the
pointwise dynamical law (`pointwise_dynamics_on_lift`) evaluate it once
on every row they need.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .algebra import Polynomial, read_integer, read_number
from .charts import Chart, scalar_field_chart
from .exterior import PolyForm, ext_d

CFL_BOUND = 0.9


@dataclass
class FieldState:
    """Two consecutive field levels on the periodic lattice: one run, with
    phi of shape (2, M), or a stack of R runs sharing dx, dt, M and the
    clock, with phi of shape (R, 2, M) and mass2, coupling scalars or one
    value per run."""

    dx: float
    dt: float
    time: float
    phi: np.ndarray  # shape (2, M) or (R, 2, M): current level
    phi_prev: np.ndarray  # same shape: previous level
    mass2: float | np.ndarray = 1.0
    coupling: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.phi.shape != self.phi_prev.shape or self.phi.ndim not in (2, 3) or self.phi.shape[-2] != 2:
            raise ValueError("field arrays must have shape (2, M) or (R, 2, M)")
        if self.dt > CFL_BOUND * self.dx:
            raise ValueError(f"time step {self.dt} violates the CFL bound {CFL_BOUND} * {self.dx}")


def acceleration(phi: np.ndarray, dx: float, mass2: float, coupling: float) -> np.ndarray:
    s = 0.5 * (phi[0] ** 2 + phi[1] ** 2)
    laplacian = (np.roll(phi, -1, axis=-1) - 2.0 * phi + np.roll(phi, 1, axis=-1)) / dx**2
    return laplacian - (mass2 + 2.0 * coupling * s) * phi


class _Level(NamedTuple):
    """One level of R runs in kg_step's buffer, component-major: every
    run's phi1 row, then every run's phi2 row, each row with a ghost value
    on either side, laid end to end; and views into it."""

    buf: np.ndarray  # shape (2 R (M + 2),)
    span: np.ndarray  # buf[1:-1]: every row, with the ghosts between them
    right: np.ndarray  # buf[2:]: right neighbours of span
    left: np.ndarray  # buf[:-2]: left neighbours of span
    halves: tuple[np.ndarray, np.ndarray]  # the phi1 rows and the phi2 rows
    ghosts: tuple[np.ndarray, ...]  # left ghosts, last values, right ghosts, first values
    field: np.ndarray  # view of the rows in the state's shape

    @classmethod
    def of(cls, values, shape: tuple[int, ...]) -> "_Level":
        m, runs = shape[-1], math.prod(shape[:-2])
        buf = np.zeros(2 * runs * (m + 2))
        rows = buf.reshape(2 * runs, m + 2)
        field = rows.reshape(2, runs, m + 2)[:, :, 1:-1].swapaxes(0, 1).reshape(shape)
        field[...] = values
        half = runs * (m + 2)
        ghosts = rows[:, 0], rows[:, m], rows[:, m + 1], rows[:, 1]
        return cls(buf, buf[1:-1], buf[2:], buf[:-2], (buf[:half], buf[half:]), ghosts, field)


def kg_step(state: FieldState, n_steps: int = 1, frames: np.ndarray | None = None) -> FieldState:
    """Advance `n_steps` leapfrog levels of one run or of a stack; when
    `frames` (shape (n_steps,) + phi.shape) is given, level j+1 is written
    into frames[j].  Stepping with the two levels swapped walks the
    trajectory backwards, which is the reversibility test.  The input state
    is not modified.

    The levels rotate through three float64 buffers (`_Level`).  The ghost
    values are refreshed from the periodic neighbours each step, so one
    contiguous span covers every row and the shifted spans are the
    neighbours; mass2 and 2 coupling are spread to one value per element
    of a component half, so every level is the same 15 one-dimensional
    ufunc calls whatever the number of runs, into preallocated scratch.
    Every lattice value sees the IEEE operations of the plain expression,
    in its order,

        next = (2 phi - prev) + dt^2 * ((((right - 2 phi) + left) / dx^2)
                                        - (mass2 + (2 coupling) s) phi),
        s = 0.5 (phi1^2 + phi2^2),

    and the time advances by repeated `+ dt`, so each run is bit-identical
    to stepping it alone, one level at a time, with that expression.
    """
    if state.dt > CFL_BOUND * state.dx:
        raise ValueError("CFL bound violated")
    shape = state.phi.shape
    if n_steps < 0:
        raise ValueError(f"cannot take {n_steps} steps")
    if frames is not None and frames.shape != (n_steps, *shape):
        raise ValueError(f"frames have shape {frames.shape}, expected {(n_steps, *shape)}")
    prev, cur, nxt = _Level.of(state.phi_prev, shape), _Level.of(state.phi, shape), _Level.of(0.0, shape)
    runs, width = math.prod(shape[:-2]), shape[-1] + 2
    half = runs * width  # the phi1 rows; the phi2 rows follow
    mass2, two_coupling = (np.repeat(np.broadcast_to(v, runs), width)
                           for v in (state.mass2, 2.0 * np.asarray(state.coupling, dtype=float)))
    # scratch: two_phi and lap over the span, the squares and V'(s) phi over
    # the whole buffer, s over a half; the slots of the ghosts feed only the
    # next level's ghosts, which the next refresh overwrites
    two_phi, lap = np.zeros(2 * half - 2), np.zeros(2 * half - 2)
    squares, v_phi, s = np.zeros(2 * half), np.zeros(2 * half), np.zeros(half)
    squares_halves, v_halves, v_span = (squares[:half], squares[half:]), (v_phi[:half], v_phi[half:]), v_phi[1:-1]
    dx2, dt, dt2 = state.dx**2, state.dt, state.dt**2
    time = state.time
    for j in range(n_steps):
        left, last, right, first = cur.ghosts
        left[...], right[...] = last, first
        np.multiply(2.0, cur.span, out=two_phi)
        np.subtract(cur.right, two_phi, out=lap)
        np.add(lap, cur.left, out=lap)
        np.divide(lap, dx2, out=lap)
        np.square(cur.buf, out=squares)
        np.add(*squares_halves, out=s)
        np.multiply(0.5, s, out=s)
        np.multiply(two_coupling, s, out=s)
        np.add(mass2, s, out=s)
        np.multiply(s, cur.halves[0], out=v_halves[0])
        np.multiply(s, cur.halves[1], out=v_halves[1])
        np.subtract(lap, v_span, out=lap)
        np.multiply(dt2, lap, out=lap)
        np.subtract(two_phi, prev.span, out=two_phi)
        np.add(two_phi, lap, out=nxt.span)
        if frames is not None:
            frames[j] = nxt.field
        time = time + dt
        prev, cur, nxt = cur, nxt, prev
    return replace(state, phi=cur.field.copy(), phi_prev=prev.field.copy(), time=time)


def time_reversed(state: FieldState) -> FieldState:
    return replace(state, phi=state.phi_prev, phi_prev=state.phi)


@dataclass(frozen=True)
class Mode:
    amplitude: float
    wavenumber: int  # integer multiples of 2 pi / L
    phase: float = 0.0


def plane_wave_state(
    grid_points: int,
    length: float,
    cfl: float,
    modes: Sequence[Mode],
    mass2: float,
    coupling: float = 0.0,
) -> FieldState:
    """Superposition of rotating plane-wave modes; the previous level is
    filled with a second-order Taylor step so arbitrary couplings start
    consistently."""
    dx = length / grid_points
    dt = cfl * dx
    x = np.arange(grid_points) * dx
    phi = np.zeros((2, grid_points))
    phidot = np.zeros((2, grid_points))
    for mode in modes:
        k = 2.0 * math.pi * mode.wavenumber / length
        omega = math.sqrt(k * k + mass2)
        angle = k * x + mode.phase
        phi[0] += mode.amplitude * np.cos(angle)
        phi[1] += mode.amplitude * np.sin(angle)
        phidot[0] += mode.amplitude * omega * np.sin(angle)
        phidot[1] -= mode.amplitude * omega * np.cos(angle)
    prev = phi - dt * phidot + 0.5 * dt**2 * acceleration(phi, dx, mass2, coupling)
    return FieldState(dx=dx, dt=dt, time=0.0, phi=phi, phi_prev=prev, mass2=mass2, coupling=coupling)


@dataclass
class FieldHistory:
    """Recorded trajectory: phi[j] is the field at time times[j]; for a
    stack, phi[:, k] is run k's trajectory."""

    dx: float
    dt: float
    times: np.ndarray
    phi: np.ndarray  # shape (T, 2, M), or (T, R, 2, M) for a stack
    mass2: float | np.ndarray
    coupling: float | np.ndarray

    @property
    def steps(self) -> int:
        return len(self.times)


def _level_times(state: FieldState, n_steps: int) -> np.ndarray:
    """Times of the state's level and the `n_steps` levels after it.  A
    cumulative sum adds in sequence, so entry j is t0 + dt + ... + dt
    exactly as kg_step accumulates it."""
    times = np.full(n_steps + 1, state.dt)
    times[0] = state.time
    return np.cumsum(times, out=times)


def simulate(state: FieldState, n_steps: int) -> FieldHistory:
    frames = np.empty((n_steps + 1, *state.phi.shape))
    frames[0] = state.phi
    kg_step(state, n_steps, frames[1:])
    times = _level_times(state, n_steps)
    return FieldHistory(
        dx=state.dx, dt=state.dt, times=times, phi=frames, mass2=state.mass2, coupling=state.coupling
    )


# ---------------------------------------------------------------------------
# the Legendre lift
# ---------------------------------------------------------------------------


@dataclass
class LiftedCurve:
    """Chart samples of the lifted solution at interior recorded steps.

    points[t, j] is the chart point at time index t (relative to
    `step_indices`) and lattice node j, ordered as the chart frame;
    frames_t / frames_x hold the tangent vectors from centered
    differences of the lifted coordinates.
    """

    chart: Chart
    step_indices: np.ndarray
    times: np.ndarray
    points: np.ndarray  # (T, M, dim)
    frames_t: np.ndarray  # (T, M, dim)
    frames_x: np.ndarray  # (T, M, dim)
    h_residual: np.ndarray  # (T, M)
    dx: float
    dt: float


def _lift_levels(history: FieldHistory, levels: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Lifted chart coordinates at the given time indices (each needs
    1 <= j <= T-2), shape (L, M, dim) with the columns in `names` order."""
    dt, dx = history.dt, history.dx
    phi, before, after = (history.phi[levels + d] for d in (0, -1, 1))  # (L, 2, M) each
    right, left = np.roll(phi, -1, axis=-1), np.roll(phi, 1, axis=-1)
    dt_phi = (after - before) / (2.0 * dt)
    dx_phi = (right - left) / (2.0 * dx)
    fwd_t = (after - phi) / dt
    bwd_t = (phi - before) / dt
    fwd_x = (right - phi) / dx
    bwd_x = (phi - left) / dx
    s = 0.5 * (phi[:, 0] ** 2 + phi[:, 1] ** 2)
    v = history.mass2 * s + history.coupling * s**2
    lagrangian = 0.5 * ((fwd_t * bwd_t).sum(axis=1) - (fwd_x * bwd_x).sum(axis=1)) + v
    p0, p1 = dt_phi, -dx_phi
    pdphi = p0[:, 0] * dt_phi[:, 0] + p0[:, 1] * dt_phi[:, 1] + p1[:, 0] * dx_phi[:, 0] + p1[:, 1] * dx_phi[:, 1]
    fields = {"x0": history.times[levels][:, None], "x1": np.arange(phi.shape[-1]) * dx, "e": lagrangian - pdphi}
    for a in (1, 2):
        fields[f"phi{a}"], fields[f"p0_{a}"], fields[f"p1_{a}"] = phi[:, a - 1], p0[:, a - 1], p1[:, a - 1]
    return np.stack([np.broadcast_to(fields[name], s.shape) for name in names], axis=-1)


def legendre_lift(history: FieldHistory, chart: Chart, step_indices: Sequence[int] | None = None) -> LiftedCurve:
    """Lift recorded steps into the scalar chart (interior steps only)."""
    if chart.n != 2:
        raise ValueError("the laboratory lifts 1+1-dimensional runs only")
    if history.phi.ndim != 3:
        raise ValueError(f"the lift takes one run of shape (T, 2, M), got phi of shape {history.phi.shape}")
    total = history.steps
    if step_indices is None:
        step_indices = range(1, total - 1)
    steps = [int(j) for j in step_indices]
    levels = np.array(steps, dtype=np.intp)
    outside = levels[(levels < 1) | (levels > total - 2)]
    if outside.size:
        raise ValueError(f"step {outside[0]} outside the interior range")
    names = chart.frame.names
    points = _lift_levels(history, levels, names)
    # the time frame is centered, so it needs both neighbouring levels lifted
    inner = (levels >= 2) & (levels <= total - 3)
    frames_t = np.zeros_like(points)
    frames_t[inner] = (_lift_levels(history, levels[inner] + 1, names)
                       - _lift_levels(history, levels[inner] - 1, names)) / (2.0 * history.dt)
    frames_x = (np.roll(points, -1, axis=1) - np.roll(points, 1, axis=1)) / (2.0 * history.dx)
    t_col, x_col = chart.frame.index("x0"), chart.frame.index("x1")
    frames_t[inner, :, t_col], frames_t[inner, :, x_col] = 1.0, 0.0
    frames_x[..., t_col], frames_x[..., x_col] = 0.0, 1.0
    h_res = (np.zeros(points.shape[:2]) if chart.hamiltonian is None
             else compile_polynomial(chart.hamiltonian, names)(points.transpose(2, 0, 1)))
    return LiftedCurve(
        chart=chart,
        step_indices=np.array(steps),
        times=history.times[levels],
        points=points,
        frames_t=frames_t,
        frames_x=frames_x,
        h_residual=h_res,
        dx=history.dx,
        dt=history.dt,
    )


# ---------------------------------------------------------------------------
# evaluating polynomial forms on the lift
# ---------------------------------------------------------------------------


def compile_polynomial(poly: Polynomial, names: Sequence[str]) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized float evaluator; `coords` has shape (dim, ...)."""
    terms = [(expo, float(coeff)) for expo, coeff in poly.terms.items()]

    def evaluate(coords: np.ndarray) -> np.ndarray:
        total = np.zeros(coords.shape[1:])
        for expo, coeff in terms:
            term = np.full(coords.shape[1:], coeff)
            for var_idx, e in enumerate(expo):
                if e:
                    term = term * coords[var_idx] ** e
            total += term
        return total

    return evaluate


def compile_form(form: PolyForm, degree: int) -> Callable[..., np.ndarray]:
    """Evaluator of a `degree`-form, degree 1 or 2, on as many fields of
    tangent vectors, each of shape (dim, ...) like `coords`."""
    if form.degree != degree:
        raise ValueError(f"expected a {degree}-form, got degree {form.degree}")
    if degree == 1:
        def value(key, v):
            return v[key[0]]
    else:
        def value(key, u, v):
            return u[key[0]] * v[key[1]] - u[key[1]] * v[key[0]]
    names = form.frame.names
    pieces = [(key, compile_polynomial(c, names)) for key, c in form.terms.items()]

    def evaluate(coords: np.ndarray, *vectors: np.ndarray) -> np.ndarray:
        total = np.zeros(coords.shape[1:])
        for key, coeff in pieces:
            total += coeff(coords) * value(key, *vectors)
        return total

    return evaluate


def slice_functional(curve: LiftedCurve, form: PolyForm, row: int) -> float:
    """Integral of an (n-1)-form over the constant-time slice at the given
    recorded row: its entry of `functional_series`."""
    if not 0 <= row < len(curve.step_indices):
        raise ValueError(f"row {row} outside the recorded range")
    return float(functional_series(curve, form)[row])


def slice_row(curve: LiftedCurve, slice_) -> int:
    """Recorded row of a constant-time slice (the laboratory's slices are
    x0 = const level sets)."""
    if slice_.coordinate != "x0":
        raise ValueError("the laboratory integrates over constant-time slices only")
    diffs = np.abs(curve.times - float(slice_.level))
    row = int(np.argmin(diffs))
    if diffs[row] > curve.dt:
        raise ValueError(f"slice level {slice_.level} outside the recorded range")
    return row


def slice_functional_at(curve: LiftedCurve, form: PolyForm, slice_) -> float:
    return slice_.coorientation * slice_functional(curve, form, slice_row(curve, slice_))


def functional_series(curve: LiftedCurve, form: PolyForm) -> np.ndarray:
    """Slice integrals of an (n-1)-form at every recorded row: the form on
    the spatial tangent frame, summed over the lattice (midpoint rule)."""
    evaluator = compile_form(form, 1)
    return evaluator(curve.points.transpose(2, 0, 1), curve.frames_x.transpose(2, 0, 1)).sum(axis=-1) * curve.dx


def pointwise_dynamics_on_lift(curve: LiftedCurve, chart: Chart, observable: PolyForm) -> dict[str, float]:
    """Residual of the pointwise dynamical law on the lifted frame:
    dF(X_t, X_x) must match {H, F} * vol(X_t, X_x); both sides are
    discretizations so the gap decays at second order."""
    from .brackets import pseudobracket_function

    df = compile_form(ext_d(observable), 2)
    vol = compile_form(chart.volume_form(), 2)
    br = compile_polynomial(pseudobracket_function(chart, observable), chart.frame.names)
    # interior rows only: the time frame needs both neighbours lifted
    inner = curve.frames_t.any(axis=(1, 2))
    coords, xt, xx = (a[inner].transpose(2, 0, 1) for a in (curve.points, curve.frames_t, curve.frames_x))
    residual = np.abs(df(coords, xt, xx) - br(coords) * vol(coords, xt, xx))
    return {"max_residual": float(np.max(residual, initial=0.0)), "samples": float(residual.size)}


# ---------------------------------------------------------------------------
# the conservation experiment
# ---------------------------------------------------------------------------


# Largest run that one experiment may ask for, counted as the bytes of
# every level of both field components of both runs (the field and U) in
# float64: levels x grid points, which bounds the run's work.  The
# experiment holds one window of levels, not the run (the shipped configs
# step 46.6 MB of levels through a window of about 1 MB); the limit turns
# a mistyped `crossing_times` or `grid_points` into an input error before
# anything runs.
FRAME_BYTES_LIMIT = 2**28

# The functionals an experiment reports, the names its expectations may use.
FUNCTIONALS = ("charge", "smeared", "energy")


@dataclass(frozen=True)
class ExperimentConfig:
    grid_points: int = 256
    length: float = 2.0 * math.pi
    cfl: float = 0.45
    mass2: float = 1.0
    coupling: float = 0.0
    crossing_times: float = 10.0
    field_modes: tuple[Mode, ...] = (Mode(1.0, 1, 0.0), Mode(0.4, 2, 1.1))
    test_modes: tuple[Mode, ...] = (Mode(1.0, 1, 0.4),)
    record_stride: int = 8
    conserved_tolerance: float = 1e-5
    smeared_tolerance: float = 1e-4
    expectations: Mapping[str, bool] | None = None

    def __post_init__(self):
        if self.grid_points < 1 or self.record_stride < 1:
            raise ValueError("grid_points and record_stride must be at least 1")
        for name in ("length", "cfl", "crossing_times"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.cfl > CFL_BOUND:
            raise ValueError(f"cfl {self.cfl} exceeds the CFL bound {CFL_BOUND}")
        for mode in (*self.field_modes, *self.test_modes):
            k = 2.0 * math.pi * mode.wavenumber / self.length  # as in plane_wave_state
            if k * k + self.mass2 < 0:
                raise ValueError(f"mass2 {self.mass2} gives wavenumber {mode.wavenumber} an imaginary frequency")
        try:  # in floats, so an oversized product reads inf
            n_steps = self.n_steps
            # (n_steps + 1) levels x 2 runs x 2 components x grid_points, 8 bytes each
            frame_bytes = (n_steps + 1) * 32.0 * self.grid_points
        except (OverflowError, ZeroDivisionError):  # dt underflows or the step count is infinite
            n_steps = frame_bytes = math.inf
        if frame_bytes > FRAME_BYTES_LIMIT:
            raise ValueError(
                f"the experiment's frames (both runs) need {frame_bytes:.3g} bytes, more than the "
                f"limit of {FRAME_BYTES_LIMIT}; lower crossing_times or grid_points"
            )
        if n_steps < 2:
            raise ValueError(f"a run of {n_steps} steps records no row; it needs at least 2")

    @property
    def n_steps(self) -> int:
        """Leapfrog steps of the run: the run time over dt = cfl * dx, in
        the float operations `plane_wave_state` uses for dt."""
        return int(round(self.crossing_times * self.length / (self.cfl * (self.length / self.grid_points))))

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ExperimentConfig":
        """The config of a decoded JSON object.  Counts must be integral
        numbers, the other numeric fields JSON numbers, and expectations
        JSON booleans on the named functionals; anything else is refused
        with a ValueError, not coerced."""
        kwargs = dict(data)
        for key in ("field_modes", "test_modes"):
            if key in kwargs:
                try:
                    kwargs[key] = tuple(
                        Mode(amplitude=float(read_number("amplitude", m["amplitude"])),
                             wavenumber=read_integer("wavenumber", m["wavenumber"]),
                             phase=float(read_number("phase", m.get("phase", 0.0))))
                        for m in kwargs[key]
                    )
                except KeyError as exc:
                    raise ValueError(f"every entry of {key} needs an amplitude and a wavenumber; "
                                     f"one lacks {exc}") from None
        for key in ("grid_points", "record_stride"):
            if key in kwargs:
                kwargs[key] = read_integer(key, kwargs[key])
        for key in ("length", "cfl", "mass2", "coupling", "crossing_times",
                    "conserved_tolerance", "smeared_tolerance"):
            if key in kwargs:
                kwargs[key] = float(read_number(key, kwargs[key]))
        expectations = kwargs.get("expectations")
        if expectations is not None:
            if not isinstance(expectations, Mapping):
                raise ValueError("expectations must map functional names to booleans")
            for name, value in expectations.items():
                if name not in FUNCTIONALS:
                    raise ValueError(f"unknown expectation {name!r}; the functionals are {', '.join(FUNCTIONALS)}")
                if not isinstance(value, bool):
                    raise ValueError(f"expectation {name!r} must be true or false, got {value!r}")
            kwargs["expectations"] = dict(expectations)
        return cls(**kwargs)


@dataclass
class FunctionalReport:
    name: str
    initial: float
    max_drift: float
    conserved: bool
    tolerance: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    functionals: list[FunctionalReport]
    series: dict[str, np.ndarray]
    times: np.ndarray
    matches_expectations: bool

    def summary(self) -> dict:
        return {
            "functionals": [
                {
                    "functional": f.name,
                    "initial": f.initial,
                    "max_drift": f.max_drift,
                    "conserved": f.conserved,
                    "tolerance": f.tolerance,
                }
                for f in self.functionals
            ],
            "matches_expectations": self.matches_expectations,
        }


# recorded rows that conservation_experiment reduces at once.  A chunk's
# window holds (chunk - 1) x stride + 3 levels of both runs, about 1 MB at
# stride 8 and M = 256, and its reduction about seven temporaries of
# chunk x 2 x M floats, under 0.5 MB; 711 rows take 45 iterations instead
# of 711.
_SERIES_CHUNK = 16


def relative_drift(series: np.ndarray) -> float:
    scale = max(abs(float(series[0])), 1e-12)
    return float(np.max(np.abs(series - series[0]))) / scale


def conservation_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Step the field and a linear solution U as one stack, and classify
    each functional of the recorded rows as conserved or drifting.

    Row r reads levels r - 1, r and r + 1.  The stack is stepped one chunk
    of rows at a time: without frames up to the level before the chunk's
    first row, then into one window, allocated once, up to the level after
    its last row, and the chunk is reduced there.  Stepping ends at the
    level after the last row, and no array the size of the run is
    allocated.  The functionals are

    * the total charge integral (conserved for any coupling);
    * the test-profile functional paired with a simultaneously evolved
      linear solution U (conserved exactly when the field itself is
      linear, drifting once the coupling is switched on);
    * the energy, reported only when the expectations name it.
    """
    state, test_state = (
        plane_wave_state(config.grid_points, config.length, config.cfl, modes, config.mass2, coupling)
        for modes, coupling in ((config.field_modes, config.coupling), (config.test_modes, 0.0))
    )
    n_steps = config.n_steps
    # both runs share dx, dt and M, so they step as one stack
    stack = replace(state, phi=np.stack([state.phi, test_state.phi]),
                    phi_prev=np.stack([state.phi_prev, test_state.phi_prev]),
                    mass2=np.array([config.mass2] * 2), coupling=np.array([config.coupling, 0.0]))
    dt, dx, stride = stack.dt, stack.dx, config.record_stride
    rows = np.arange(1, n_steps, stride)
    times = _level_times(stack, rows[-1])[rows]
    # the levels of one chunk of rows, reused by every chunk
    window = np.empty((min((_SERIES_CHUNK - 1) * stride + 3, n_steps + 1), *stack.phi.shape))
    phi, u = window[:, 0], window[:, 1]  # views, (W, 2, M) each
    cur, level = stack, 0  # cur.phi is level `level`, cur.phi_prev the one before

    series = {name: np.empty(len(rows)) for name in FUNCTIONALS}
    # the rows reduce in chunks: each row's sum over the lattice is the
    # per-row sum, and the component sums are one add per value
    for start in range(0, len(rows), _SERIES_CHUNK):
        out = slice(start, start + _SERIES_CHUNK)
        first, last = int(rows[start]), int(rows[out][-1])
        if level < first - 1:
            cur = kg_step(cur, first - 1 - level)
            level = first - 1
        # window[i] is level first - 1 + i; the state already holds the
        # first one or two (two when the stride is 1)
        seeded = level - first + 2
        window[:seeded] = (cur.phi_prev, cur.phi)[2 - seeded:]
        width = last - first + 3
        cur = kg_step(cur, width - seeded, window[seeded:width])
        level = last + 1
        at, before, after = (slice(1 + d, width - 1 + d, stride) for d in (0, -1, 1))
        p = phi[at]
        dtphi = (phi[after] - phi[before]) / (2.0 * dt)
        dtu = (u[after] - u[before]) / (2.0 * dt)
        series["charge"][out] = (dtphi[:, 0] * p[:, 1] - dtphi[:, 1] * p[:, 0]).sum(axis=-1) * dx
        series["smeared"][out] = ((u[at] * dtphi).sum(axis=1) - (dtu * p).sum(axis=1)).sum(axis=-1) * dx
        # the time-time stress component, reported as data only (the scheme
        # conserves it to second order, not exactly)
        dxphi = (np.roll(p, -1, axis=-1) - np.roll(p, 1, axis=-1)) / (2.0 * dx)
        s = 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)
        density = 0.5 * ((dtphi**2).sum(axis=1) + (dxphi**2).sum(axis=1)) + (
            config.mass2 * s + config.coupling * s**2
        )
        series["energy"][out] = density.sum(axis=-1) * dx

    expectations = config.expectations or {}
    tolerances = {"charge": config.conserved_tolerance, "smeared": config.smeared_tolerance}
    if "energy" in expectations:
        tolerances["energy"] = config.conserved_tolerance
    reports = []
    for name, tolerance in tolerances.items():
        drift = relative_drift(series[name])
        reports.append(FunctionalReport(name, float(series[name][0]), drift, drift <= tolerance, tolerance))
    matches = all(expectations.get(rep.name, rep.conserved) == rep.conserved for rep in reports)
    return ExperimentResult(
        config=config,
        functionals=reports,
        series=series,
        times=times,
        matches_expectations=matches,
    )


def write_series_csv(result: ExperimentResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = sorted(result.series)
        writer.writerow(["time"] + names)
        for i, t in enumerate(result.times):
            writer.writerow([repr(float(t))] + [repr(float(result.series[n][i])) for n in names])


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_mapping(json.load(fh))


# ---------------------------------------------------------------------------
# convergence and reversibility probes
# ---------------------------------------------------------------------------


def reversibility_error(state: FieldState, n_steps: int) -> float:
    backward = kg_step(time_reversed(kg_step(state, n_steps)), n_steps)
    return float(
        max(
            np.max(np.abs(backward.phi - state.phi_prev)),
            np.max(np.abs(backward.phi_prev - state.phi)),
        )
    )


_LIFT_SAMPLES = 12


def lift_residual_orders(
    base_grid: int,
    refinements: int,
    modes: Sequence[Mode],
    mass2: float,
) -> list[float]:
    """Max |H| on the lift of the free field (length 2 pi, CFL 0.45) for
    successively halved (dx, dt), sampled on about `_LIFT_SAMPLES` rows of
    each run; returns the observed convergence orders between consecutive
    refinements."""
    potential = Polynomial(("s",), {(1,): Fraction(mass2).limit_denominator(10**6)})
    chart = scalar_field_chart(2, potential)
    residuals = []
    for level in range(refinements + 1):
        grid = base_grid * 2**level
        state = plane_wave_state(grid, 2.0 * math.pi, 0.45, modes, mass2)
        steps_needed = _LIFT_SAMPLES * 2**level + 3
        history = simulate(state, steps_needed)
        rows = list(range(2, steps_needed - 2, max(1, (steps_needed - 4) // _LIFT_SAMPLES)))
        curve = legendre_lift(history, chart, rows)
        residuals.append(float(np.max(np.abs(curve.h_residual))))
    return [math.log2(residuals[i] / residuals[i + 1]) for i in range(len(residuals) - 1)]
