"""Observable forms: Hamilton vector fields, copolarizations, classification.

An (n-1)-form F admits a *Hamilton vector field* when dF + xi . Omega = 0
for a (then unique, by nondegeneracy) vector field xi_F; we call such
forms algebraically observable (AOF).  The weaker, sampling-testable
notion is observability (OF): the value of dF on a decomposable n-vector
X depends only on X . Omega.  On full momentum charts the two notions
coincide; on the first-order charts the AOFs are a strict subset.

A copolarization packages, for every degree p <= n, a finite generating
set of p-forms closed under wedge whose top-degree span is made of
observable n-forms; it is what gives observable (p-1)-forms for p < n a
well-defined pairing with the dynamics.  The *algebraic* variant keeps
only generators whose top-degree wedges land in {xi . Omega}, which is
the hypothesis required by the Hamilton-tensor construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .algebra import Polynomial
from .charts import Chart, contraction_columns, omega_is_constant
from .dynamics import of_sampling_test, OFVerdict
from .exterior import (
    CoordKind,
    PolyForm,
    PolyMultivector,
    ext_d,
    form_basis,
    hook,
    lie_derivative,
    vector_basis,
    wedge,
)
from .linalg import LinearSolver

# ---------------------------------------------------------------------------
# Hamilton vector fields of (n-1)-forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NotAOF:
    """Failure witness: the exact residual n-form outside {xi . Omega}."""

    residual: PolyForm


_CACHE_LIMIT = 4096  # a full cache is cleared before the next insert
_SOLVER_CACHE: dict[tuple, LinearSolver] = {}


def contraction_solver(chart: Chart) -> LinearSolver:
    """The span of the contractions e_j . Omega, cached by the coordinate
    names and Omega (constant Omega makes it global; nondegeneracy makes
    the columns independent and the Hamilton vector field unique), so
    charts built apart with the same content share it.  The key keeps
    Omega's term order, which fixes the solver's row choice and the key
    order of its residuals.  Solutions are checked against the full
    equation by the span solver's residual, which is where inconsistency
    shows up."""
    key = (chart.frame.names, tuple(chart.omega.terms.items()))
    span = _SOLVER_CACHE.get(key)
    if span is not None:
        return span
    if not omega_is_constant(chart):
        raise ValueError("Hamilton vector solving needs a constant-coefficient Omega")
    span = LinearSolver(contraction_columns(chart))
    if span.rank < chart.frame.dim:
        raise ValueError("Omega is degenerate; Hamilton vector fields are not unique")
    if len(_SOLVER_CACHE) >= _CACHE_LIMIT:
        _SOLVER_CACHE.clear()
    _SOLVER_CACHE[key] = span
    return span


def solve_contraction(chart: Chart, target: PolyForm) -> PolyMultivector | NotAOF:
    """Solve xi . Omega = target for a polynomial vector field xi."""
    if target.degree != chart.n:
        raise ValueError(f"target must be an n-form, got degree {target.degree}")
    frame = chart.frame
    solution, residual = contraction_solver(chart).solve(target.terms, frame.poly_zero())
    if residual:
        return NotAOF(residual=PolyForm(frame, chart.n, residual))
    return PolyMultivector(frame, 1, {(j,): x for j, x in enumerate(solution) if x})


def aof_solve(chart: Chart, observable: PolyForm) -> PolyMultivector | NotAOF:
    """Hamilton vector field of an (n-1)-form: dF + xi . Omega = 0."""
    if observable.degree != chart.n - 1:
        raise ValueError(f"expected an (n-1)-form, got degree {observable.degree}")
    return solve_contraction(chart, -ext_d(observable))


def is_of(
    chart: Chart,
    observable: PolyForm,
    points: Sequence[Sequence[Fraction]],
    sample_count: int = 4,
    seed: int = 0,
) -> OFVerdict:
    """Sampled observability of an (n-1)-form: its differential must pass
    the observability test at every supplied point.  With no point or no
    sample there is nothing to test, so both are rejected."""
    if not points:
        raise ValueError("is_of needs at least one point")
    df = ext_d(observable)
    total = 0
    for i, point in enumerate(points):
        verdict = of_sampling_test(chart, df, point, sample_count=sample_count, seed=seed + i)
        total += verdict.samples_used
        if not verdict.passed:
            return OFVerdict(
                passed=False,
                samples_used=total,
                counterexample=verdict.counterexample,
                failed_point=verdict.failed_point,
            )
    return OFVerdict(passed=True, samples_used=total)


# ---------------------------------------------------------------------------
# copolarizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Copolarization:
    """Finite generating sets, one list of constant-coefficient forms per
    degree 1..n."""

    chart: Chart
    generators: tuple[tuple[PolyForm, ...], ...]  # index p-1 -> degree-p generators

    def degree(self, p: int) -> tuple[PolyForm, ...]:
        if not 1 <= p <= self.chart.n:
            raise ValueError(f"degree {p} outside 1..{self.chart.n}")
        return self.generators[p - 1]

    def wedge_closure_defect(self) -> tuple[int, int, int, int] | None:
        """First pair of generators whose wedge escapes the span, as
        (p, index, q, index); None when closed through degree n."""
        n = self.chart.n
        for p in range(1, n):
            for q in range(p, n - p + 1):
                for i, a in enumerate(self.degree(p)):
                    for j, b in enumerate(self.degree(q)):
                        product = wedge(a, b)
                        if product and copolar_membership(self, product)[0] is False:
                            return (p, i, q, j)
        return None


def _base_wedge_generators(chart: Chart, names: Sequence[str], p: int) -> list[PolyForm]:
    return [form_basis(chart.frame, *combo) for combo in combinations(names, p)]


def _contraction_images(chart: Chart) -> list[PolyForm]:
    frame = chart.frame
    return [hook(vector_basis(frame, name), chart.omega) for name in frame.names]


def standard_copolarization(chart: Chart) -> Copolarization:
    """On a momentum chart (full or first-order): degrees p < n are spanned
    by the base-coordinate differential wedges; degree n additionally by
    the contraction images xi . Omega."""
    base_names = chart.base_coordinate_names()
    if not base_names or chart.frame.fiber_indices() == ():
        raise ValueError("chart does not look like a momentum chart")
    gens: list[tuple[PolyForm, ...]] = []
    for p in range(1, chart.n):
        gens.append(tuple(_base_wedge_generators(chart, base_names, p)))
    top = _base_wedge_generators(chart, base_names, chart.n) + _contraction_images(chart)
    gens.append(tuple(top))
    return Copolarization(chart=chart, generators=tuple(gens))


def algebraic_copolarization(chart: Chart) -> Copolarization:
    """Degrees p < n spanned by horizontal (space-time) differential wedges
    only; degree n by the contraction images.  Wedges of horizontal
    differentials are contraction images themselves, so the family is
    wedge-closed with top degree inside {xi . Omega}."""
    horizontal = chart.horizontal
    gens: list[tuple[PolyForm, ...]] = []
    for p in range(1, chart.n):
        gens.append(tuple(_base_wedge_generators(chart, horizontal, p)))
    gens.append(tuple(_contraction_images(chart)))
    return Copolarization(chart=chart, generators=tuple(gens))


def maxwell_copolarization() -> Copolarization:
    """The natural copolarization of the electromagnetic chart.

    P^1: the dx^mu (the potential differentials da_mu are deliberately
    left out).  P^2 adds da; P^3 adds dx^mu ^ da and dpi; P^4 consists of
    the volume form, dx ^ dx ^ da, dx ^ dpi, the images d/dx^mu . Omega
    (differentials of the energy-momentum forms, up to sign), and da ^ da,
    which the wedge closure of P^2 forces into the family.
    """
    from .charts import maxwell_chart, maxwell_da, maxwell_pi

    chart = maxwell_chart()
    frame = chart.frame
    x = [f"x{mu}" for mu in range(4)]
    da = maxwell_da(frame)
    dpi = ext_d(maxwell_pi(frame))
    p1 = [form_basis(frame, xi) for xi in x]
    p2 = _base_wedge_generators(chart, x, 2) + [da]
    p3 = _base_wedge_generators(chart, x, 3) + [wedge(form_basis(frame, xi), da) for xi in x] + [dpi]
    p4 = [chart.volume_form()]
    p4 += [wedge(form_basis(frame, a), wedge(form_basis(frame, b), da)) for a, b in combinations(x, 2)]
    p4 += [wedge(form_basis(frame, xi), dpi) for xi in x]
    p4 += [hook(vector_basis(frame, xi), chart.omega) for xi in x]
    p4 += [wedge(da, da)]
    return Copolarization(chart=chart, generators=(tuple(p1), tuple(p2), tuple(p3), tuple(p4)))


def copolar_membership(copol: Copolarization, mu: PolyForm) -> tuple[bool, list[Polynomial] | None]:
    """Exact membership of a form in the pointwise span of the generators
    of its degree; coefficients may be polynomials in the coordinates and
    are checked by the span solver's residual.
    Returns (member, coefficients aligned with the generator list)."""
    p = mu.degree
    if not 1 <= p <= copol.chart.n:
        return False, None
    gens = copol.degree(p)
    span = LinearSolver([{key: coeff.constant_value() for key, coeff in g.terms.items()} for g in gens])
    solution, residual = span.solve(mu.terms, copol.chart.frame.poly_zero())
    if residual:
        return False, None
    return True, solution


# ---------------------------------------------------------------------------
# infinitesimal invariance generators on full momentum charts
# ---------------------------------------------------------------------------


def _require_full_momentum_chart(chart: Chart) -> None:
    from .charts import _digit_name

    base = chart.base_coordinate_names()
    expected = {_digit_name("p", combo) for combo in combinations(range(1, len(base) + 1), chart.n)}
    if set(chart.fiber_coordinate_names()) != expected:
        raise ValueError("generator construction needs the full momentum chart (one p per base n-tuple)")


def momentum_rotation_field(chart: Chart, alpha: str, beta: str) -> PolyMultivector:
    """Pi^beta_alpha: the momentum-coordinate part of the lift of
    d/dq^beta-directed frame changes; coefficient of d/dp_B is the
    momentum with slot value beta replaced by alpha, antisymmetrized."""
    from .algebra import sort_with_sign
    from .charts import _digit_name

    _require_full_momentum_chart(chart)
    frame = chart.frame
    position_names = chart.base_coordinate_names()
    n = chart.n
    alpha_idx = position_names.index(alpha) + 1
    beta_idx = position_names.index(beta) + 1
    components: dict[str, Polynomial] = {}
    for combo in combinations(range(1, len(position_names) + 1), n):
        if beta_idx not in combo:
            continue
        replaced = tuple(alpha_idx if value == beta_idx else value for value in combo)
        sorted_key, sign = sort_with_sign(replaced)
        if sign == 0:
            continue
        source = _digit_name("p", sorted_key)
        target = _digit_name("p", combo)
        coeff = sign * frame.poly_var(source)
        components[target] = components.get(target, frame.poly_zero()) + coeff
    return PolyMultivector.from_named(frame, 1, [((name,), coeff) for name, coeff in components.items()])


def vertical_lift_field(chart: Chart, components: Mapping[str, Polynomial]) -> PolyMultivector:
    """xi-bar: the canonical lift of a base vector field xi = xi^a(q) d_a
    to the full momentum chart:

        xi-bar = sum xi^a d/dq^a - sum (d xi^a / d q^b) Pi^b_a.

    The coefficients must be functions of the base coordinates only.
    """
    frame = chart.frame
    position_names = chart.base_coordinate_names()
    out = PolyMultivector.zero(frame, 1)
    for alpha, coeff in components.items():
        if alpha not in position_names:
            raise ValueError(f"{alpha!r} is not a base coordinate")
        if not coeff.used_variables() <= set(position_names):
            raise ValueError("lift components must depend on base coordinates only")
        out = out + PolyMultivector.from_named(frame, 1, [((alpha,), coeff)])
        for beta in position_names:
            d = coeff.diff(beta)
            if d:
                out = out - momentum_rotation_field(chart, alpha, beta).scale(d)
    return out


def momentum_translation_field(chart: Chart, coefficients: Mapping[str, Polynomial]) -> PolyMultivector:
    """chi: a momentum-direction field sum chi_B(q) d/dp_B.  It generates
    an invariance of Omega iff d(chi . Omega) = 0."""
    frame = chart.frame
    base = set(chart.base_coordinate_names())
    entries = []
    for name, coeff in coefficients.items():
        if chart.frame.kind(name) != CoordKind.MOMENTUM and chart.frame.kind(name) != CoordKind.ENERGY:
            raise ValueError(f"{name!r} is not a momentum coordinate")
        if not coeff.used_variables() <= base:
            raise ValueError("coefficients must be functions of the base coordinates")
        entries.append(((name,), coeff))
    return PolyMultivector.from_named(frame, 1, entries)


def symplectomorphism_check(chart: Chart, xi: PolyMultivector) -> bool:
    """Infinitesimal invariance of Omega: d(xi . Omega) = 0 exactly."""
    if xi.degree != 1:
        raise ValueError("expected a vector field")
    return not ext_d(hook(xi, chart.omega))


# ---------------------------------------------------------------------------
# classification on full momentum charts
# ---------------------------------------------------------------------------


def poincare_primitive(mu: PolyForm) -> PolyForm:
    """Canonical primitive with base point 0: the radial homotopy operator
    P with d(P mu) + P(d mu) = mu, so d(P mu) = mu for closed mu.

    P mu is R . mu for the radial field R = sum x^i d/dx^i, with each
    monomial of degree d' divided by d' - 1 + k: a monomial of degree d
    in a coefficient of the k-form mu carries the weight 1 / (d + k) of
    the homotopy integral, and R raises its degree by one.  A monomial's
    degree does not depend on which terms of mu it came from, so
    weighting after the sum equals weighting before it.
    """
    frame = mu.frame
    k = mu.degree
    if k == 0:
        raise ValueError("0-forms have no primitive")
    radial = PolyMultivector(frame, 1, {(i,): frame.poly_var(name) for i, name in enumerate(frame.names)})
    weighted = {
        key: Polynomial(frame.names, {expo: c / (sum(expo) - 1 + k) for expo, c in coeff.terms.items()})
        for key, coeff in hook(radial, mu).terms.items()
    }
    return PolyForm(frame, k - 1, weighted)


@dataclass(frozen=True)
class AOFClassification:
    momentum_part: PolyForm  # primitive of -(chi . Omega): function-of-q wedge
    lift_part: PolyForm  # xi . theta
    remainder: PolyForm  # closed
    base_field: PolyMultivector  # xi (base components only)
    lift_field: PolyMultivector  # xi-bar
    momentum_field: PolyMultivector  # chi


class NotInClassifiedForm(Exception):
    """The Hamilton field's base components depend on momenta."""


def classify_aof(chart: Chart, observable: PolyForm) -> AOFClassification:
    """Split an algebraically observable (n-1)-form F on a full momentum
    chart as F = Q + P + closed, where dQ = -(chi . Omega) for a momentum
    translation chi and P = xi . theta for a base field xi, mirroring the
    generator decomposition of the invariance algebra."""
    if chart.theta is None:
        raise ValueError("classification needs the chart primitive theta")
    xi_f = aof_solve(chart, observable)
    if isinstance(xi_f, NotAOF):
        raise ValueError("form is not algebraically observable")
    frame = chart.frame
    position_names = chart.base_coordinate_names()
    base_components: dict[str, Polynomial] = {}
    for (j,), coeff in xi_f.terms.items():
        name = frame.names[j]
        if name in position_names:
            if not coeff.used_variables() <= set(position_names):
                raise NotInClassifiedForm(f"base component along {name} depends on momenta")
            base_components[name] = coeff
    xi_base = PolyMultivector.from_named(frame, 1, [((n_,), c) for n_, c in base_components.items()])
    xi_bar = vertical_lift_field(chart, base_components)
    chi = xi_f - xi_bar
    for (j,), coeff in chi.terms.items():
        if frame.names[j] in position_names:
            raise NotInClassifiedForm("residual field keeps base components")
        if not coeff.used_variables() <= set(position_names):
            raise NotInClassifiedForm("momentum translation coefficients depend on momenta")
    lift_part = hook(xi_base, chart.theta)
    q_target = -hook(chi, chart.omega)
    if ext_d(q_target):
        raise NotInClassifiedForm("momentum translation contraction is not closed")
    momentum_part = poincare_primitive(q_target) if q_target else PolyForm.zero(frame, chart.n - 1)
    remainder = observable - momentum_part - lift_part
    if ext_d(remainder):
        raise NotInClassifiedForm("remainder is not closed")
    return AOFClassification(
        momentum_part=momentum_part,
        lift_part=lift_part,
        remainder=remainder,
        base_field=xi_base,
        lift_field=xi_bar,
        momentum_field=chi,
    )


# ---------------------------------------------------------------------------
# the Hamilton tensor of observable (p-1)-forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AOFTensor:
    """For each degree-(n-p) generator phi, the unique vector xi_F(phi)
    with  phi ^ dF + xi_F(phi) . Omega = 0."""

    observable: PolyForm
    copol: Copolarization
    vectors: tuple[PolyMultivector, ...]  # aligned with copol.degree(n - p)

    @property
    def p(self) -> int:
        return self.observable.degree + 1

    def generator_vectors(self) -> list[tuple[PolyForm, PolyMultivector]]:
        n = self.copol.chart.n
        if self.p == n:
            return [(form_basis(self.copol.chart.frame), self.vectors[0])]
        return list(zip(self.copol.degree(n - self.p), self.vectors))


def aof_tensor(chart: Chart, copol: Copolarization, observable: PolyForm) -> AOFTensor | NotAOF:
    """Solve phi ^ dF + xi . Omega = 0 for every generator phi of the
    complementary degree (for p = n the single phi is the constant 1)."""
    p = observable.degree + 1
    if not 1 <= p <= chart.n:
        raise ValueError("observable degree out of range")
    df = ext_d(observable)
    if p == chart.n:
        phis: Sequence[PolyForm] = [form_basis(chart.frame)]
    else:
        phis = copol.degree(chart.n - p)
    vectors = []
    for phi in phis:
        result = solve_contraction(chart, -wedge(phi, df))
        if isinstance(result, NotAOF):
            return result
        vectors.append(result)
    return AOFTensor(observable=observable, copol=copol, vectors=tuple(vectors))


def lie_transport_is_aof(chart: Chart, xi: PolyMultivector, observable: PolyForm) -> bool:
    """For an invariance generator xi and an AOF F, the Lie transport
    L_xi F must again admit a Hamilton vector field."""
    transported = lie_derivative(xi, observable)
    return not isinstance(aof_solve(chart, transported), NotAOF)


# ---------------------------------------------------------------------------
# the complex scalar field's distinguished observables
# ---------------------------------------------------------------------------


def phase_rotation_field(chart: Chart) -> PolyMultivector:
    """Generator of the internal phase rotation on a scalar chart:

        (phi2 d/dphi1 - phi1 d/dphi2) + (p^mu_2 d/dp^mu_1 - p^mu_1 d/dp^mu_2).
    """
    frame = chart.frame
    out = vector_basis(frame, "phi1").scale(frame.poly_var("phi2")) - vector_basis(frame, "phi2").scale(
        frame.poly_var("phi1")
    )
    for mu in range(chart.n):
        out = out + vector_basis(frame, f"p{mu}_1").scale(frame.poly_var(f"p{mu}_2"))
        out = out - vector_basis(frame, f"p{mu}_2").scale(frame.poly_var(f"p{mu}_1"))
    return out


def charge_current_form(chart: Chart, weight: Polynomial | None = None) -> PolyForm:
    """The charge (n-1)-form  w(x) (p^mu_1 phi2 - p^mu_2 phi1) vol_mu;
    with constant weight it is the conserved total-charge density."""
    frame = chart.frame
    if weight is None:
        weight = frame.poly_const(1)
    out = PolyForm.zero(frame, chart.n - 1)
    for mu in range(chart.n):
        coeff = frame.poly_var(f"p{mu}_1") * frame.poly_var("phi2") - frame.poly_var(f"p{mu}_2") * frame.poly_var("phi1")
        out = out + chart.volume_contraction(f"x{mu}").scale(weight * coeff)
    return out


def gauged_charge_form(chart: Chart, weight: Polynomial) -> PolyForm:
    """On the gauged scalar chart: the smeared charge form completed with
    the field-strength momentum term,

        w(x) (p^mu_1 phi2 - p^mu_2 phi1) vol_mu - (1/2) p^{mu nu} dw ^ vol_{mu nu}.
    """
    frame = chart.frame
    out = charge_current_form(chart, weight)
    dw = ext_d(PolyForm(frame, 0, {(): weight}))
    half_p_vol = PolyForm.zero(frame, chart.n - 2)
    for mu, nu in combinations(range(chart.n), 2):
        half_p_vol = half_p_vol + chart.volume_contraction(f"x{mu}", f"x{nu}").scale(frame.poly_var(f"p{mu}{nu}"))
    return out - wedge(dw, half_p_vol)


def gauged_charge_field(chart: Chart, weight: Polynomial) -> PolyMultivector:
    """The Hamilton vector field of the gauged smeared charge form:

        w j0 - (p^mu_1 phi2 - p^mu_2 phi1) (dw/dx^mu) d/de + (dw/dx^mu) d/da_mu.
    """
    frame = chart.frame
    out = phase_rotation_field(chart).scale(weight)
    e_coeff = frame.poly_zero()
    for mu in range(chart.n):
        current = frame.poly_var(f"p{mu}_1") * frame.poly_var("phi2") - frame.poly_var(f"p{mu}_2") * frame.poly_var("phi1")
        e_coeff = e_coeff + current * weight.diff(f"x{mu}")
        out = out + vector_basis(frame, f"a{mu}").scale(weight.diff(f"x{mu}"))
    return out - vector_basis(frame, "e").scale(e_coeff)


def linear_test_observable(chart: Chart, profiles: Sequence[Polynomial]) -> PolyForm:
    """The test-profile observable  (U^a p^mu_a - eta^{mu nu} (dU^a/dx^nu) phi^a) vol_mu
    for profiles U^1, U^2 depending on the space-time coordinates."""
    frame = chart.frame
    metric = chart.metric or (1,) + (-1,) * (chart.n - 1)
    out = PolyForm.zero(frame, chart.n - 1)
    for mu in range(chart.n):
        coeff = frame.poly_zero()
        for a in (1, 2):
            u = profiles[a - 1]
            coeff = coeff + u * frame.poly_var(f"p{mu}_{a}")
            coeff = coeff - metric[mu] * u.diff(f"x{mu}") * frame.poly_var(f"phi{a}")
        out = out + chart.volume_contraction(f"x{mu}").scale(coeff)
    return out
