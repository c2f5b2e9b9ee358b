"""Shared generators for the test-suite.

Random inputs are always drawn through seeded RationalSampler streams so
every failure is reproducible from the printed seed.
"""

from __future__ import annotations

import itertools

from multisymp.algebra import RationalSampler
from multisymp.charts import Chart
from multisymp.exterior import (
    PolyForm,
    PolyMultivector,
    all_index_tuples,
    ext_d,
    form_basis,
    hook,
    vector_basis,
    wedge,
)
from multisymp.observables import NotAOF, aof_solve


def random_form(frame, degree: int, sampler: RationalSampler, n_terms: int = 3, coeff_degree: int = 1) -> PolyForm:
    keys = all_index_tuples(frame.dim, degree)
    terms = {}
    for _ in range(n_terms):
        key = sampler.choice(keys)
        poly = sampler.polynomial(frame.names, max_degree=coeff_degree, n_terms=2)
        terms[key] = terms.get(key, frame.poly_zero()) + poly
    return PolyForm(frame, degree, {k: p for k, p in terms.items() if p})


def random_vector(frame, sampler: RationalSampler, coeff_degree: int = 1) -> PolyMultivector:
    terms = {}
    for j in range(frame.dim):
        poly = sampler.polynomial(frame.names, max_degree=coeff_degree, n_terms=1)
        if poly:
            terms[(j,)] = poly
    return PolyMultivector(frame, 1, terms)


def random_constant_vector(frame, sampler: RationalSampler) -> PolyMultivector:
    terms = {}
    for j in range(frame.dim):
        value = sampler.rational()
        if value:
            terms[(j,)] = frame.poly_const(value)
    return PolyMultivector(frame, 1, terms)


def random_form_over(chart: Chart, degree: int, names, sampler: RationalSampler, n_terms: int = 2) -> PolyForm:
    """Random form with factors and coefficients over the given names only."""
    frame = chart.frame
    keys = list(itertools.combinations(sorted(frame.index(n) for n in names), degree))
    terms = {}
    for _ in range(n_terms):
        key = sampler.choice(keys)
        poly = sampler.polynomial(frame.names, max_degree=2, n_terms=2, restrict_to=names)
        terms[key] = terms.get(key, frame.poly_zero()) + poly
    return PolyForm(frame, degree, {k: p for k, p in terms.items() if p})


def _aof_ingredients(chart: Chart, sampler: RationalSampler) -> list[PolyForm]:
    """Forms known (or very likely) to admit Hamilton vector fields on the
    given chart; random AOFs are rational mixes of these."""
    frame = chart.frame
    n = chart.n
    base = chart.base_coordinate_names()
    out: list[PolyForm] = []
    if chart.name.startswith("lepage-dedecker"):
        # wedge primitives over all base coordinates
        out.append(random_form_over(chart, n - 1, base, sampler))
        field_names = base
    else:
        out.append(random_form_over(chart, n - 1, chart.horizontal, sampler))
        field_names = chart.horizontal
    if chart.theta is not None:
        components = {}
        for name in field_names:
            poly = sampler.polynomial(frame.names, max_degree=1, n_terms=1, restrict_to=field_names)
            if poly:
                components[name] = poly
        if components:
            xi = PolyMultivector.from_named(frame, 1, [((k,), v) for k, v in components.items()])
            out.append(hook(xi, chart.theta))
        # vertical translations (constant coefficients)
        verticals = [name for name in base if name not in chart.horizontal]
        if verticals:
            name = sampler.choice(verticals)
            out.append(hook(vector_basis(frame, name), chart.theta).scale(sampler.rational()))
    if chart.name == "maxwell":
        from multisymp.charts import maxwell_pi, maxwell_potential_form

        x = [f"x{mu}" for mu in range(4)]
        i, j = sorted(sampler.sample(range(4), 2))
        out.append(wedge(form_basis(frame, x[i], x[j]), maxwell_potential_form(frame)).scale(sampler.rational()))
        out.append(wedge(form_basis(frame, x[sampler.integer(0, 3)]), maxwell_pi(frame)).scale(sampler.rational()))
    if chart.name.startswith("scalar"):
        from multisymp.observables import charge_current_form

        weight = sampler.polynomial(frame.names, max_degree=2, n_terms=1, restrict_to=chart.horizontal)
        out.append(charge_current_form(chart, weight))
    if n >= 2:
        out.append(ext_d(random_form(frame, n - 2, sampler, n_terms=2, coeff_degree=1)))
    return [f for f in out if f]


def random_aof(chart: Chart, sampler: RationalSampler) -> PolyForm:
    """Random (n-1)-form with a Hamilton vector field (verified)."""
    for _ in range(30):
        pieces = _aof_ingredients(chart, sampler)
        form = PolyForm.zero(chart.frame, chart.n - 1)
        for piece in pieces:
            if sampler.integer(0, 1):
                form = form + piece.scale(sampler.rational())
        if not form:
            continue
        if not isinstance(aof_solve(chart, form), NotAOF):
            return form
    raise AssertionError(f"random AOF generation failed to converge on {chart.name}")


def random_aof_like_candidate(chart: Chart, sampler: RationalSampler, kind: int | None = None) -> PolyForm:
    """Candidate n-forms for the observability dichotomy: a seeded mix of
    contraction images, base-coordinate wedges, and free momentum-wedge
    monomials (the patterns that separate observable from non-observable).
    `kind` (0-3) picks the pattern instead of drawing it."""
    frame = chart.frame
    if kind is None:
        kind = sampler.integer(0, 3)
    if kind == 0:
        xi = random_constant_vector(frame, sampler)
        return hook(xi, chart.omega)
    if kind == 1:
        return random_form_over(chart, chart.n, chart.base_coordinate_names(), sampler)
    if kind == 2:
        return random_form(frame, chart.n, sampler, n_terms=2, coeff_degree=1)
    xi = random_constant_vector(frame, sampler)
    return hook(xi, chart.omega) + random_form(frame, chart.n, sampler, n_terms=1, coeff_degree=0)
