"""Brackets between observable forms.

All constructions are exact.  The pseudobracket of a Hamiltonian with an
observable (p-1)-form is computed from a pointwise decomposable solution
of the Hamilton equation; for p < n its well-defined content is the list
of pairings against the complementary-degree copolarization generators,
and representative-independence across the solution family is verified on
every call.  Its values pair the solution's factors with all of its
forms at once, by minors in one `dynamics.decomposable_pairing` sweep
per representative, without expanding the wedge.
The Poisson bracket of two forms with Hamilton vector fields is
{F, G} = xi_F ^ xi_G . Omega, with the usual structural
identities (derivation of d, Jacobi up to an exact term, the
theta-corrected bracket with vanishing Jacobi sum) checked exactly in the
test-suite.  Complementary-degree pairs (p + q = n + 1) get their scalar
bracket through linear smearing: each form is wedged with one wedge of
horizontal coordinate differentials, and the Poisson bracket of the
smeared pair, an (n-1)-form, is divided by the n-1 differentials.  That
division has a scalar quotient, one ratio of coefficients, accepted only
when the exact residual vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .algebra import Polynomial
from .charts import Chart
from .dynamics import HamiltonianSolution, decomposable_pairing, differential_at
from .exterior import (
    PolyForm,
    PolyMultivector,
    _pair_terms,
    _wedge_terms,
    eval_terms,
    ext_d,
    form_basis,
    hook,
    lie_bracket,
    wedge,
)
from .observables import AOFTensor, Copolarization, NotAOF, aof_solve


class NotWellDefined(Exception):
    """Representative dependence detected: dF is not observable."""


class NotDefined(Exception):
    """Bracket outside the constructed cases (p+q != n+1 and p, q < n)."""


@dataclass(frozen=True)
class PseudobracketValue:
    """Value of {H, F} at a point: a scalar for p = n, otherwise the
    pairings against the degree-(n-p) copolarization generators."""

    p: int
    n: int
    scalar: Fraction | None
    pairings: tuple[Fraction, ...] | None


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def pseudobracket(
    chart: Chart,
    observable: PolyForm,
    solution: HamiltonianSolution,
    copol: Copolarization | None = None,
) -> PseudobracketValue:
    """{H, F} = sign * X L dF for X in the solution family at the point,
    with sign = (-1)^((n-p)p).

    For p = n the value is the scalar sign * <X, dF>.  For p < n it is the
    list of pairings sign * <X L dF, phi> = sign * <X, dF ^ phi> against
    the degree-(n-p) copolarization generators phi, which are required.
    Each dF ^ phi is wedged once per call, and all of them are paired
    with the factors of X in one minor sweep per representative.

    Every kernel direction of the family is tried; if any representative
    changes the reported value the bracket is not well defined for this F
    (its differential fails observability) and NotWellDefined is raised.
    """
    p = observable.degree + 1
    n = chart.n
    if not 1 <= p <= n:
        raise ValueError("observable degree out of range")
    point = solution.point
    df_num = eval_terms(ext_d(observable).terms, point)
    if p == n:
        forms = [df_num]
    elif copol is None:
        raise ValueError("pairings for p < n need a copolarization")
    else:
        forms = [_wedge_terms(df_num, eval_terms(phi.terms, point)) for phi in copol.degree(n - p)]
    sign = _sign((n - p) * p)
    reference = None
    for factors in solution.unit_move_factors:
        values = tuple(sign * value for value in decomposable_pairing(factors, forms))
        if p == n:
            value = PseudobracketValue(p=p, n=n, scalar=values[0], pairings=None)
        else:
            value = PseudobracketValue(p=p, n=n, scalar=None, pairings=values)
        if reference is None:
            reference = value
        elif value != reference:
            raise NotWellDefined(
                f"pseudobracket changes across representatives: {reference} vs {value}"
            )
    assert reference is not None
    return reference


def pseudobracket_aof(
    chart: Chart,
    hamiltonian: Polynomial,
    tensor: AOFTensor,
    point: Sequence[Fraction],
) -> PseudobracketValue:
    """The Hamilton-tensor route: <{H, F}, phi> = -dH(xi_F(phi)).

    Its exact agreement with `pseudobracket` is the evolution law
    <X, dF> = -dH(xi_F), which fails on frames that solve nothing."""
    point = tuple(Fraction(v) for v in point)
    p = tensor.p
    n = chart.n
    dh_num = differential_at(hamiltonian, chart, point)
    values = []
    for xi in tensor.vectors:
        xi_num = eval_terms(xi.terms, point)
        values.append(-(_pair_terms(xi_num, dh_num) or Fraction(0)))
    if p == n:
        return PseudobracketValue(p=p, n=n, scalar=values[0], pairings=None)
    return PseudobracketValue(p=p, n=n, scalar=None, pairings=tuple(values))


def pseudobracket_function(chart: Chart, observable: PolyForm) -> Polynomial:
    """For an (n-1)-form with Hamilton vector field: {H, F} = -dH(xi_F)
    as a polynomial function on the chart."""
    if chart.hamiltonian is None:
        raise ValueError("chart has no Hamiltonian")
    xi = aof_solve(chart, observable)
    if isinstance(xi, NotAOF):
        raise ValueError("observable has no Hamilton vector field")
    acc = chart.frame.poly_zero()
    for (j,), coeff in xi.terms.items():
        acc = acc + coeff * chart.hamiltonian.diff(chart.frame.names[j])
    return -acc


# ---------------------------------------------------------------------------
# Poisson-type brackets of (n-1)-forms
# ---------------------------------------------------------------------------


def _hamilton_field(chart: Chart, observable: PolyForm) -> PolyMultivector:
    xi = aof_solve(chart, observable)
    if isinstance(xi, NotAOF):
        raise ValueError("bracket requires forms with Hamilton vector fields")
    return xi


def _check_theta(chart: Chart) -> None:
    if chart.theta is None:
        raise ValueError("theta bracket needs the chart primitive theta")


def _poisson_of_fields(chart: Chart, xi_f: PolyMultivector, xi_g: PolyMultivector) -> PolyForm:
    """{F, G} from the solved fields."""
    return hook(wedge(xi_f, xi_g), chart.omega)


def _theta_of_fields(
    chart: Chart, f: PolyForm, xi_f: PolyMultivector, g: PolyForm, xi_g: PolyMultivector
) -> PolyForm:
    """{F, G}_theta from the forms and their solved fields; one wedge."""
    xi_fg = wedge(xi_f, xi_g)
    correction = hook(xi_f, g) - hook(xi_g, f) + hook(xi_fg, chart.theta)
    return hook(xi_fg, chart.omega) + ext_d(correction)


def poisson_bracket(chart: Chart, f: PolyForm, g: PolyForm) -> PolyForm:
    """{F, G} = xi_F ^ xi_G . Omega, an (n-1)-form with Hamilton field
    [xi_F, xi_G]."""
    return _poisson_of_fields(chart, _hamilton_field(chart, f), _hamilton_field(chart, g))


def bracket_field_identity_defect(chart: Chart, f: PolyForm, g: PolyForm) -> PolyForm:
    """d{F, G} + [xi_F, xi_G] . Omega, identically zero."""
    xi_f = _hamilton_field(chart, f)
    xi_g = _hamilton_field(chart, g)
    return ext_d(_poisson_of_fields(chart, xi_f, xi_g)) + hook(lie_bracket(xi_f, xi_g), chart.omega)


def jacobi_defect(chart: Chart, f: PolyForm, g: PolyForm, h: PolyForm) -> PolyForm:
    """Cyclic sum {{F,G},H} + {{G,H},F} + {{H,F},G} minus the exact term
    d(xi_F ^ xi_G ^ xi_H . Omega); identically zero.

    Six Hamilton fields are solved, once each: those of F, G, H and of
    the three inner brackets.  The exact term wedges xi_H onto the
    xi_F ^ xi_G that {F, G} already built."""
    xi_f, xi_g, xi_h = (_hamilton_field(chart, form) for form in (f, g, h))
    xi_fg = wedge(xi_f, xi_g)
    fg = hook(xi_fg, chart.omega)
    gh = _poisson_of_fields(chart, xi_g, xi_h)
    hf = _poisson_of_fields(chart, xi_h, xi_f)
    cyclic = (
        _poisson_of_fields(chart, _hamilton_field(chart, fg), xi_h)
        + _poisson_of_fields(chart, _hamilton_field(chart, gh), xi_f)
        + _poisson_of_fields(chart, _hamilton_field(chart, hf), xi_g)
    )
    exact = ext_d(hook(wedge(xi_fg, xi_h), chart.omega))
    return cyclic - exact


def theta_bracket(chart: Chart, f: PolyForm, g: PolyForm) -> PolyForm:
    """{F, G}_theta = {F, G} + d(xi_F . G - xi_G . F + xi_F ^ xi_G . theta).

    Differs from {F, G} by an exact form, is antisymmetric, and satisfies
    the Jacobi identity with zero right-hand side.  With the sign
    convention dF + xi_F . Omega = 0 used throughout, this sign of the
    correction is the one that makes the Jacobi sum vanish identically
    (asserted exactly over random triples in the test-suite); flipping
    the two single-field terms breaks it.
    """
    _check_theta(chart)
    return _theta_of_fields(chart, f, _hamilton_field(chart, f), g, _hamilton_field(chart, g))


def theta_jacobi_sum(chart: Chart, f: PolyForm, g: PolyForm, h: PolyForm) -> PolyForm:
    """Cyclic sum {{F,G}_theta,H}_theta + {{G,H}_theta,F}_theta +
    {{H,F}_theta,G}_theta; identically zero.  Six Hamilton fields are
    solved, once each: those of F, G, H and of the three inner brackets."""
    _check_theta(chart)
    xi_f, xi_g, xi_h = (_hamilton_field(chart, form) for form in (f, g, h))
    fg = _theta_of_fields(chart, f, xi_f, g, xi_g)
    gh = _theta_of_fields(chart, g, xi_g, h, xi_h)
    hf = _theta_of_fields(chart, h, xi_h, f, xi_f)
    return (
        _theta_of_fields(chart, fg, _hamilton_field(chart, fg), h, xi_h)
        + _theta_of_fields(chart, gh, _hamilton_field(chart, gh), f, xi_f)
        + _theta_of_fields(chart, hf, _hamilton_field(chart, hf), g, xi_g)
    )


def external_bracket(chart: Chart, f: PolyForm, g: PolyForm) -> PolyForm:
    """Bracket of a (p-1)-form with an (n-1)-form, the side with a Hamilton
    vector field supplying the contraction:

        {F, G} = xi_F . dG   when F is an (n-1)-form with Hamilton field,
        {F, G} = -xi_G . dF  when G is; both when both are, consistently.
    """
    n = chart.n
    if f.degree == n - 1:
        xi_f = aof_solve(chart, f)
        if not isinstance(xi_f, NotAOF):
            return hook(xi_f, ext_d(g))
    if g.degree == n - 1:
        xi_g = aof_solve(chart, g)
        if not isinstance(xi_g, NotAOF):
            return -hook(xi_g, ext_d(f))
    raise ValueError("external bracket needs one (n-1)-form with a Hamilton vector field")


# ---------------------------------------------------------------------------
# form division and the complementary-degree scalar bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisionResult:
    quotient: PolyForm | None
    residual: PolyForm | None

    @property
    def divisible(self) -> bool:
        return self.quotient is not None


def form_division(phi: PolyForm, divisors: Sequence[PolyForm]) -> DivisionResult:
    """Solve  phi = c a^1 ^ ... ^ a^r  for the function c, the divisors
    being r = deg phi constant-coefficient 1-forms, so the quotient is a
    scalar.  With W the wedge of the divisors and K its first key,
    c = phi_K / W_K; phi is divisible exactly when the residual phi - c W
    vanishes, and the residual is returned when it does not."""
    frame = phi.frame
    if len(divisors) != phi.degree:
        raise ValueError("form division needs one divisor per degree of phi (a scalar quotient)")
    w = form_basis(frame)
    for a in divisors:
        if a.degree != 1:
            raise ValueError("divisors must be 1-forms")
        if not all(c.is_constant() for c in a.terms.values()):
            raise ValueError("divisors must have constant coefficients")
        w = wedge(w, a)
    if not w:
        raise ValueError("divisors are linearly dependent")
    key, w_key = next(iter(w.terms.items()))
    c = phi.terms.get(key, frame.poly_zero()) * (1 / w_key.constant_value())
    residual = phi - w.scale(c)
    if residual:
        return DivisionResult(quotient=None, residual=residual)
    return DivisionResult(quotient=PolyForm(frame, 0, {(): c}), residual=None)


_SMEARINGS = 3


def complementary_bracket(chart: Chart, f: PolyForm, g: PolyForm) -> Polynomial:
    """Scalar bracket of a (p-1)-form and a (q-1)-form with p + q = n + 1.

    Each form is smeared with one wedge of horizontal coordinate
    differentials to an (n-1)-form with a Hamilton vector field, their
    Poisson bracket is divided to a scalar by the n-1 differentials of
    both smearing wedges, and the scalar must not depend on the
    admissible choice of smearing coordinates (checked over the first
    `_SMEARINGS` admissible choices).
    """
    n = chart.n
    p = f.degree + 1
    q = g.degree + 1
    if p + q != n + 1:
        raise NotDefined(
            f"complementary bracket needs p + q = n + 1, got p={p}, q={q}, n={n}"
        )
    horizontal = chart.horizontal
    results: list[tuple[tuple[str, ...], tuple[str, ...], Polynomial]] = []
    for f_names in combinations(horizontal, n - p):
        for g_names in combinations([h for h in horizontal if h not in f_names], n - q):
            xi_f = aof_solve(chart, wedge(form_basis(chart.frame, *f_names), f))
            xi_g = aof_solve(chart, wedge(form_basis(chart.frame, *g_names), g))
            if isinstance(xi_f, NotAOF) or isinstance(xi_g, NotAOF):
                continue
            bracket = hook(wedge(xi_f, xi_g), chart.omega)
            divisors = [form_basis(chart.frame, name) for name in f_names + g_names]
            division = form_division(bracket, divisors)
            if not division.divisible:
                continue
            scalar = division.quotient.terms.get((), chart.frame.poly_zero())
            results.append((f_names, g_names, scalar))
            if len(results) >= _SMEARINGS:
                break
        if len(results) >= _SMEARINGS:
            break
    if not results:
        raise NotDefined("no admissible smearing produced a Hamilton pair")
    first = results[0][2]
    for f_names, g_names, scalar in results[1:]:
        if scalar != first:
            raise NotWellDefined(
                f"complementary bracket depends on smearing: {first.to_text()} vs "
                f"{scalar.to_text()} at {f_names}/{g_names}"
            )
    return first
