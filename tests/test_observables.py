from fractions import Fraction

import pytest

from conftest import random_aof, random_constant_vector
from multisymp.algebra import Polynomial, RationalSampler
from multisymp.charts import (
    ddw_chart,
    lepage_dedecker_chart,
    maxwell_da,
    maxwell_pi,
    scalar_field_chart,
)
from multisymp.dynamics import of_sampling_test
from multisymp.exterior import (
    PolyForm,
    PolyMultivector,
    ext_d,
    form_basis,
    hook,
    vector_basis,
    wedge,
)
from multisymp.observables import (
    NotAOF,
    aof_solve,
    aof_tensor,
    algebraic_copolarization,
    charge_current_form,
    classify_aof,
    contraction_solver,
    copolar_membership,
    gauged_charge_field,
    gauged_charge_form,
    is_of,
    lie_transport_is_aof,
    linear_test_observable,
    maxwell_copolarization,
    momentum_translation_field,
    phase_rotation_field,
    standard_copolarization,
    symplectomorphism_check,
    vertical_lift_field,
)

V_MASS = Polynomial(("s",), {(1,): Fraction(1)})


# -- Hamilton vector fields -----------------------------------------------------


def test_momentum_observable_field():
    """F = psi(x) (d/dy^j . theta) = psi p^mu_j vol_mu has the printed
    Hamilton field psi d/dy^j - p^mu_j (dpsi/dx^mu) d/de."""
    chart = ddw_chart(2, 2)
    f = chart.frame
    psi = f.poly_var("x1") ** 2 + 3 * f.poly_var("x2")
    for j in (1, 2):
        observable = hook(vector_basis(f, f"y{j}"), chart.theta).scale(psi)
        expected_form = chart.volume_contraction("x1").scale(psi * f.poly_var(f"p1_{j}")) + \
            chart.volume_contraction("x2").scale(psi * f.poly_var(f"p2_{j}"))
        assert observable == expected_form
        xi = aof_solve(chart, observable)
        expected = vector_basis(f, f"y{j}").scale(psi) - vector_basis(f, "e").scale(
            f.poly_var(f"p1_{j}") * psi.diff("x1") + f.poly_var(f"p2_{j}") * psi.diff("x2")
        )
        assert xi == expected


def test_closed_form_has_zero_field():
    chart = ddw_chart(2, 2)
    f = chart.frame
    closed = ext_d(PolyForm(f, 0, {(): f.poly_var("x1") * f.poly_var("y1")}))
    xi = aof_solve(chart, closed)
    assert not isinstance(xi, NotAOF) and not xi


def test_wrong_degree_rejected():
    chart = ddw_chart(2, 2)
    with pytest.raises(ValueError):
        aof_solve(chart, form_basis(chart.frame, "x1", "x2"))


def test_gauged_charge_field_matches_printed_formula():
    chart = scalar_field_chart(2, V_MASS, gauged=True)
    f = chart.frame
    psi = f.poly_var("x0") ** 2 + 3 * f.poly_var("x1")
    observable = gauged_charge_form(chart, psi)
    xi = aof_solve(chart, observable)
    assert xi == gauged_charge_field(chart, psi)
    assert ext_d(observable) + hook(xi, chart.omega) == PolyForm.zero(f, 2)
    # invariance of the Hamiltonian along the field
    dh = f.poly_zero()
    for (j,), coeff in xi.terms.items():
        dh = dh + coeff * chart.hamiltonian.diff(f.names[j])
    assert not dh


# -- the OF / AOF dichotomy -------------------------------------------------------


def test_contraction_solvers_are_shared_by_content_and_bounded(monkeypatch):
    """Charts built apart with the same coordinates and Omega share one
    solver; a full cache is cleared before the next insert."""
    from multisymp import observables

    monkeypatch.setattr(observables, "_SOLVER_CACHE", {})
    monkeypatch.setattr(observables, "_CACHE_LIMIT", 2)
    first = contraction_solver(lepage_dedecker_chart(2, 2))
    assert contraction_solver(lepage_dedecker_chart(2, 2)) is first
    assert contraction_solver(scalar_field_chart(2, V_MASS)) is not first
    assert contraction_solver(ddw_chart(2, 2)) is not first
    assert len(observables._SOLVER_CACHE) == 1
    assert contraction_solver(lepage_dedecker_chart(2, 2)) is not first
    assert len(observables._SOLVER_CACHE) == 2


def test_witness_is_observable_but_not_algebraic():
    chart = ddw_chart(2, 2)
    f = chart.frame
    witness = form_basis(f, "y2").scale(f.poly_var("y1"))
    assert isinstance(aof_solve(chart, witness), NotAOF)
    sampler = RationalSampler(61)
    points = [sampler.point(chart.dim) for _ in range(3)]
    assert is_of(chart, witness, points, seed=67).passed
    # its differential expands in the first-order restriction basis:
    # contraction images plus the dy-wedge monomials
    cop = standard_copolarization(chart)
    member, _ = copolar_membership(cop, ext_d(witness))
    assert member
    member0, _ = copolar_membership(algebraic_copolarization(chart), ext_d(witness))
    assert not member0


def test_contraction_of_theta_is_algebraic_and_observable():
    chart = lepage_dedecker_chart(2, 2)
    sampler = RationalSampler(71)
    xi = random_constant_vector(chart.frame, sampler)
    observable = hook(xi, chart.theta)
    assert not isinstance(aof_solve(chart, observable), NotAOF)
    points = [sampler.point(chart.dim) for _ in range(2)]
    assert is_of(chart, observable, points, seed=73).passed


def test_non_observable_form_fails_with_counterexample():
    chart = ddw_chart(2, 2)
    f = chart.frame
    bad = form_basis(f, "p1_1").scale(f.poly_var("p2_2"))
    sampler = RationalSampler(79)
    verdict = is_of(chart, bad, [sampler.point(chart.dim)], seed=83)
    assert not verdict.passed and verdict.counterexample is not None


def test_is_of_reports_the_failing_point():
    """A form whose differential vanishes at the first point but not at the
    second: the verdict must carry the point where sampling failed."""
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    bad = form_basis(f, "p24").scale(f.poly_var("q1") * f.poly_var("p13"))
    benign = [Fraction(0)] * chart.dim  # q1 = p13 = 0 kills dF entirely
    sampler = RationalSampler(149)
    generic = sampler.point(chart.dim)
    verdict = is_of(chart, bad, [tuple(benign), generic], seed=151)
    assert not verdict.passed
    assert verdict.failed_point == generic


def test_restrictions_of_full_chart_hamilton_forms_are_observable():
    """Restricting a Hamilton-field form from the full momentum chart to
    the first-order submanifold yields an observable form there, even
    though the restriction usually has no Hamilton field of its own; the
    first-order witness is exactly such a restriction."""
    from multisymp.charts import (
        ddw_restriction_momenta,
        lepage_dedecker_split_chart,
        transplant_form,
    )
    from multisymp.algebra import Polynomial

    full = lepage_dedecker_split_chart(2, 2)
    first_order = ddw_chart(2, 2)
    zeroed = set(ddw_restriction_momenta(2, 2))
    assignment = {}
    for name in full.frame.names:
        if name in zeroed:
            assignment[name] = Polynomial.zero(first_order.frame.names)
        else:
            assignment[name] = first_order.frame.poly_var(name)

    sampler = RationalSampler(157)
    points = [sampler.point(first_order.dim) for _ in range(2)]
    restricted_aof = 0
    for _ in range(8):
        upstairs = random_aof(full, sampler)
        downstairs = transplant_form(upstairs, first_order.frame, assignment)
        if not downstairs:
            continue
        assert is_of(first_order, downstairs, points, sample_count=2, seed=163).passed
        if not isinstance(aof_solve(first_order, downstairs), NotAOF):
            restricted_aof += 1
    # the witness itself: a Hamilton-field form upstairs (the full chart is
    # pataplectic), merely observable downstairs
    f_full = full.frame
    witness_up = form_basis(f_full, "y2").scale(f_full.poly_var("y1"))
    assert not isinstance(aof_solve(full, witness_up), NotAOF)
    witness_down = transplant_form(witness_up, first_order.frame, assignment)
    assert isinstance(aof_solve(first_order, witness_down), NotAOF)
    assert is_of(first_order, witness_down, points, seed=167).passed


def test_algebraic_implies_observable_sampled():
    for chart in [lepage_dedecker_chart(2, 2), ddw_chart(2, 2)]:
        sampler = RationalSampler(89)
        points = [sampler.point(chart.dim)]
        for _ in range(5):
            observable = random_aof(chart, sampler)
            assert is_of(chart, observable, points, sample_count=2, seed=97).passed


# -- copolarizations ---------------------------------------------------------------


def test_standard_copolarization_generators():
    chart = lepage_dedecker_chart(2, 1)
    cop = standard_copolarization(chart)
    assert [g.coefficient(("q1",)) for g in cop.degree(1)][0] == chart.frame.poly_const(1)
    assert len(cop.degree(1)) == 3  # dq1, dq2, dq3
    assert cop.wedge_closure_defect() is None


def test_standard_copolarization_top_degree_is_observable():
    chart = ddw_chart(2, 2)
    cop = standard_copolarization(chart)
    sampler = RationalSampler(101)
    points = [sampler.point(chart.dim) for _ in range(5)]
    for g in cop.degree(chart.n):
        for point in points:
            assert of_sampling_test(chart, g, point, sample_count=2, seed=103).passed


def test_algebraic_copolarization_closure():
    for chart in [lepage_dedecker_chart(2, 2), ddw_chart(2, 2), scalar_field_chart(2, V_MASS)]:
        cop = algebraic_copolarization(chart)
        assert cop.wedge_closure_defect() is None


def test_maxwell_copolarization_memberships():
    cop = maxwell_copolarization()
    chart = cop.chart
    frame = chart.frame
    da = maxwell_da(frame)
    dpi = ext_d(maxwell_pi(frame))
    assert copolar_membership(cop, da)[0]
    assert copolar_membership(cop, dpi)[0]
    assert copolar_membership(cop, wedge(form_basis(frame, "x1"), da))[0]
    assert copolar_membership(cop, chart.volume_form())[0]
    member, coeffs = copolar_membership(cop, chart.volume_form())
    assert member and coeffs[0] == frame.poly_const(1)
    # the potential differentials are deliberately not in degree 1
    assert not copolar_membership(cop, form_basis(frame, "a0"))[0]
    assert cop.wedge_closure_defect() is None


def test_maxwell_top_degree_generators_are_observable():
    cop = maxwell_copolarization()
    chart = cop.chart
    point = RationalSampler(5).point(chart.dim)
    for i, g in enumerate(cop.degree(4)):
        assert of_sampling_test(chart, g, point, sample_count=1, seed=2 + i).passed, i


def test_maxwell_excluded_direction_fails_sampling():
    cop = maxwell_copolarization()
    chart = cop.chart
    bad = wedge(form_basis(chart.frame, "a0"), ext_d(maxwell_pi(chart.frame)))
    point = RationalSampler(107).point(chart.dim)
    assert not of_sampling_test(chart, bad, point, seed=109).passed


@pytest.mark.parametrize("sample_count", [0, -3])
def test_sampling_without_samples_or_points_is_rejected(sample_count):
    """Zero samples or no point would be a vacuous pass."""
    chart = lepage_dedecker_chart(2, 2)
    form = PolyForm.from_named(chart.frame, 1, [(("p12",), chart.frame.poly_var("p34"))])
    point = RationalSampler(5).point(chart.dim)
    with pytest.raises(ValueError, match="sample_count"):
        of_sampling_test(chart, ext_d(form), point, sample_count=sample_count)
    with pytest.raises(ValueError, match="sample_count"):
        is_of(chart, form, [point], sample_count=sample_count)
    with pytest.raises(ValueError, match="point"):
        is_of(chart, form, [])


def test_polarization_pairing_invariance():
    """Same-contraction decomposable pairs pair equally against every
    copolarization generator, and contracting with a generator preserves
    the equivalence (the quotient-compatibility of the contraction)."""
    chart = ddw_chart(2, 2)
    cop = standard_copolarization(chart)
    sampler = RationalSampler(113)
    point = sampler.point(chart.dim)
    from multisymp.dynamics import contraction_form, observability_family
    from multisymp.exterior import _pair_terms, _hook_terms, eval_terms
    from multisymp.linalg import nullspace

    family = observability_family(chart, tuple(chart.frame.index(h) for h in chart.horizontal))
    omega_num = eval_terms(chart.omega.terms, point)
    nparams = len(family.params)
    zero = [Fraction(0)] * nparams
    base = contraction_form(family.expand(zero), omega_num)
    columns = []
    for j in range(nparams):
        probe = list(zero)
        probe[j] = Fraction(1)
        col = contraction_form(family.expand(probe), omega_num)
        entries = {}
        for key in set(col) | set(base):
            v = col.get(key, Fraction(0)) - base.get(key, Fraction(0))
            if v:
                entries[key] = v
        columns.append(entries)
    matrix = [[columns[j].get((i,), Fraction(0)) for j in range(nparams)] for i in range(chart.dim)]
    kernel = nullspace(matrix)
    assert kernel
    t0 = [sampler.rational() for _ in range(nparams)]
    x = family.expand(t0)
    t1 = [a + b for a, b in zip(t0, kernel[0])]
    y = family.expand(t1)
    assert contraction_form(x, omega_num) == contraction_form(y, omega_num)
    for p in (1, 2):
        for gen in cop.degree(p):
            gen_num = eval_terms(gen.terms, point)
            if p == chart.n:
                assert (_pair_terms(x, gen_num) or Fraction(0)) == (_pair_terms(y, gen_num) or Fraction(0))
            else:
                xa = _hook_terms(gen_num, x)
                ya = _hook_terms(gen_num, y)
                for other in cop.degree(chart.n - p):
                    other_num = eval_terms(other.terms, point)
                    assert (_pair_terms(xa, other_num) or Fraction(0)) == (
                        _pair_terms(ya, other_num) or Fraction(0)
                    )


# -- invariance generators and classification ----------------------------------------


def test_symplectomorphism_checks():
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    # translation lift passes
    assert symplectomorphism_check(chart, vertical_lift_field(chart, {"q1": f.poly_const(1)}))
    # naked dilation fails, corrected lift passes
    assert not symplectomorphism_check(chart, vector_basis(f, "q1").scale(f.poly_var("q1")))
    assert symplectomorphism_check(chart, vertical_lift_field(chart, {"q1": f.poly_var("q1")}))
    # constant momentum translations pass
    chi = momentum_translation_field(chart, {"p13": f.poly_const(2), "p24": f.poly_const(Fraction(1, 3))})
    assert symplectomorphism_check(chart, chi)


def test_lift_identity():
    """xi-bar . Omega = -d(xi . theta) for random base fields."""
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(127)
    base_names = ["q1", "q2", "q3", "q4"]
    for _ in range(5):
        components = {
            q: sampler.polynomial(f.names, max_degree=2, n_terms=2, restrict_to=base_names)
            for q in sampler.sample(base_names, 2)
        }
        components = {k: v for k, v in components.items() if v}
        if not components:
            continue
        xi_bar = vertical_lift_field(chart, components)
        assert symplectomorphism_check(chart, xi_bar)
        xi_base = PolyMultivector.from_named(f, 1, [((k,), v) for k, v in components.items()])
        assert hook(xi_bar, chart.omega) == -ext_d(hook(xi_base, chart.theta))


def test_classification_round_trip():
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(131)
    for _ in range(5):
        observable = random_aof(chart, sampler)
        cls = classify_aof(chart, observable)
        assert cls.momentum_part + cls.lift_part + cls.remainder == observable
        assert not ext_d(cls.remainder)
        assert hook(cls.momentum_field, chart.omega) == -ext_d(cls.momentum_part)
        assert hook(cls.lift_field, chart.omega) == -ext_d(cls.lift_part)
        assert symplectomorphism_check(chart, cls.momentum_field)
        assert symplectomorphism_check(chart, cls.lift_field)


def test_classification_round_trip_three_horizontal():
    """The generator decomposition also closes at n = 3 (different sign
    paths in the momentum rotations and the radial primitive)."""
    chart = lepage_dedecker_chart(3, 2)
    sampler = RationalSampler(179)
    for _ in range(3):
        observable = random_aof(chart, sampler)
        cls = classify_aof(chart, observable)
        assert cls.momentum_part + cls.lift_part + cls.remainder == observable
        assert not ext_d(cls.remainder)
        assert hook(cls.momentum_field, chart.omega) == -ext_d(cls.momentum_part)
        assert hook(cls.lift_field, chart.omega) == -ext_d(cls.lift_part)


def test_classification_examples():
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    # contraction of theta along a coordinate direction: pure lift part
    observable = hook(vector_basis(f, "q1"), chart.theta)
    cls = classify_aof(chart, observable)
    assert cls.lift_part == observable and not cls.momentum_part and not cls.remainder
    # q-wedge primitive: pure momentum part (constant translation)
    observable = form_basis(f, "q2").scale(f.poly_var("q1"))
    cls = classify_aof(chart, observable)
    assert not cls.lift_part
    assert all(c.is_constant() for c in cls.momentum_field.terms.values())
    assert cls.momentum_part + cls.remainder == observable
    # closed forms are pure remainder
    closed = ext_d(PolyForm(f, 0, {(): f.poly_var("q1") * f.poly_var("q2")}))
    cls = classify_aof(chart, closed)
    assert not cls.momentum_part and not cls.lift_part and cls.remainder == closed


def test_momentum_translations_annihilate_coordinate_differentials():
    """The smearing construction needs xi . df = 0 for 1-regular coordinate
    functions f; for the momentum-translation generators this holds
    structurally (they have no base components)."""
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(139)
    from conftest import random_form_over

    for _ in range(5):
        zeta = random_form_over(chart, 1, ["q1", "q2", "q3", "q4"], sampler)
        from multisymp.observables import solve_contraction

        chi = solve_contraction(chart, -ext_d(zeta))
        if isinstance(chi, NotAOF):
            continue
        for name in ("q1", "q2", "q3", "q4"):
            assert not hook(chi, form_basis(f, name))


def test_lift_rejects_momentum_dependent_components():
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    with pytest.raises(ValueError):
        vertical_lift_field(chart, {"q1": f.poly_var("p12")})
    with pytest.raises(ValueError):
        momentum_translation_field(chart, {"p12": f.poly_var("p13")})
    with pytest.raises(ValueError):
        momentum_translation_field(chart, {"q1": f.poly_const(1)})


def test_lie_transport_preserves_hamilton_fields():
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(137)
    generators = [
        vertical_lift_field(chart, {"q1": f.poly_var("q2"), "q3": f.poly_const(2)}),
        momentum_translation_field(chart, {"p13": f.poly_const(1)}),
        vertical_lift_field(chart, {"q2": f.poly_var("q2") * f.poly_var("q4")}),
    ]
    for gen in generators:
        assert symplectomorphism_check(chart, gen)
        for _ in range(3):
            observable = random_aof(chart, sampler)
            assert lie_transport_is_aof(chart, gen, observable)


# -- the Hamilton tensor ----------------------------------------------------------


def test_aof_tensor_for_position_functions():
    chart = ddw_chart(2, 2)
    cop = algebraic_copolarization(chart)
    f = chart.frame
    for i in (1, 2):
        y = PolyForm(f, 0, {(): f.poly_var(f"y{i}")})
        tensor = aof_tensor(chart, cop, y)
        assert not isinstance(tensor, NotAOF)
        for phi, xi in tensor.generator_vectors():
            assert wedge(phi, ext_d(y)) + hook(xi, chart.omega) == PolyForm.zero(f, 2)


def test_aof_tensor_fails_outside_span():
    chart = ddw_chart(2, 2)
    cop = algebraic_copolarization(chart)
    f = chart.frame
    bad = PolyForm(f, 0, {(): f.poly_var("p1_1")})  # d p1_1 wedged with dx is not a contraction
    tensor = aof_tensor(chart, cop, bad)
    assert isinstance(tensor, NotAOF)


def test_maxwell_tensor_of_the_momentum_two_form():
    cop = maxwell_copolarization()
    chart = cop.chart
    f = chart.frame
    pi = maxwell_pi(f)
    # the algebraic (x-wedge) copolarization drives the tensor
    acop = algebraic_copolarization(chart)
    tensor = aof_tensor(chart, acop, pi)
    assert not isinstance(tensor, NotAOF)
    for phi, xi in tensor.generator_vectors():
        assert wedge(phi, ext_d(pi)) + hook(xi, chart.omega) == PolyForm.zero(f, 4)


def test_ungauged_charge_form_is_dynamical():
    chart = scalar_field_chart(2, V_MASS)
    observable = charge_current_form(chart)
    xi = aof_solve(chart, observable)
    assert xi == phase_rotation_field(chart)
    from multisymp.brackets import pseudobracket_function

    assert pseudobracket_function(chart, observable) == chart.frame.poly_zero()


def test_massless_profile_observables():
    chart = scalar_field_chart(2, Polynomial(("s",), {}))
    f = chart.frame
    u1 = f.poly_var("x0") + 2 * f.poly_var("x1")
    u2 = 3 * f.poly_var("x0") - f.poly_var("x1")
    observable = linear_test_observable(chart, [u1, u2])
    assert not isinstance(aof_solve(chart, observable), NotAOF)
    from multisymp.brackets import pseudobracket_function

    assert pseudobracket_function(chart, observable) == f.poly_zero()
    # profiles that do not solve the field equation are not conserved
    bad = linear_test_observable(chart, [f.poly_var("x0") ** 2, f.poly_zero()])
    assert pseudobracket_function(chart, bad) != f.poly_zero()


def _radial_homotopy_loop(mu):
    """The radial homotopy operator written out monomial by monomial and
    slot by slot, as an oracle independent of the hook kernel."""
    frame = mu.frame
    k = mu.degree
    names = frame.names
    terms = {}
    for key, coeff in mu.terms.items():
        for expo, value in coeff.terms.items():
            weight = Fraction(value, sum(expo) + k)
            for slot, idx in enumerate(key):
                rest = key[:slot] + key[slot + 1 :]
                sign = 1 if slot % 2 == 0 else -1
                new_expo = list(expo)
                new_expo[idx] += 1
                poly = Polynomial(names, {tuple(new_expo): sign * weight})
                prev = terms.get(rest)
                terms[rest] = poly if prev is None else prev + poly
    return PolyForm(frame, k - 1, {k2: v for k2, v in terms.items() if v})


@pytest.mark.parametrize("label", ["lepage-dedecker:2,2", "ddw:2,2", "maxwell"])
def test_poincare_primitive_inverts_d_on_exact_forms(label):
    from conftest import random_form
    from multisymp.charts import builtin_chart
    from multisymp.observables import poincare_primitive

    chart = builtin_chart(label)
    sampler = RationalSampler(sum(map(ord, label)))
    checked = 0
    for degree in range(3):
        for _ in range(4):
            mu = ext_d(random_form(chart.frame, degree, sampler, n_terms=3, coeff_degree=3))
            if not mu:
                continue
            primitive = poincare_primitive(mu)
            assert ext_d(primitive) == mu
            assert primitive == _radial_homotopy_loop(mu)
            checked += 1
    assert checked >= 8
