import dataclasses
from fractions import Fraction

import pytest

from conftest import random_aof
from multisymp import brackets
from multisymp.algebra import Polynomial, RationalSampler
from multisymp.brackets import (
    NotDefined,
    NotWellDefined,
    bracket_field_identity_defect,
    complementary_bracket,
    external_bracket,
    form_division,
    jacobi_defect,
    poisson_bracket,
    pseudobracket,
    pseudobracket_aof,
    pseudobracket_function,
    theta_bracket,
    theta_jacobi_sum,
)
from multisymp.charts import (
    builtin_chart,
    ddw_chart,
    lepage_dedecker_chart,
    lepage_dedecker_split_chart,
    maxwell_chart,
    maxwell_pi,
    maxwell_potential_form,
    scalar_field_chart,
)
from multisymp.dynamics import frame_compatible_hamiltonian, hamiltonian_nvector_solve
from multisymp.exterior import (
    PolyForm,
    _hook_terms,
    _pair_terms,
    eval_terms,
    ext_d,
    form_basis,
    hook,
    vector_basis,
    wedge,
)
from multisymp.observables import (
    NotAOF,
    algebraic_copolarization,
    aof_solve,
    aof_tensor,
)

V_MASS = Polynomial(("s",), {(1,): Fraction(1)})


# -- pseudobracket -----------------------------------------------------------------


def test_volume_primitive_bracket_is_one():
    """{H, x^1 dx^2 ^ ... ^ dx^n} = 1 for H = e + H(x, u, p)."""
    for chart in [lepage_dedecker_split_chart(2, 1), lepage_dedecker_split_chart(3, 1)]:
        f = chart.frame
        sampler = RationalSampler(7)
        point = sampler.point(chart.dim)
        h = frame_compatible_hamiltonian(chart, sampler, point)
        sol = hamiltonian_nvector_solve(chart, h, point)
        primitive = form_basis(f, *chart.horizontal[1:]).scale(f.poly_var(chart.horizontal[0]))
        value = pseudobracket(chart, primitive, sol)
        assert value.scalar == 1


def test_closed_form_bracket_is_zero():
    chart = ddw_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(11)
    point = sampler.point(chart.dim)
    h = f.poly_var("e") + sampler.polynomial(f.names, 2, 3, restrict_to=["x1", "x2", "y1", "p1_1"])
    sol = hamiltonian_nvector_solve(chart, h, point)
    closed = ext_d(PolyForm(f, 0, {(): f.poly_var("x1") * f.poly_var("y2")}))
    assert pseudobracket(chart, closed, sol).scalar == 0


def _position_function_hook(chart, y, point, solution):
    """dF and {H, F} . vol for F = y^i at `point`, through the hook of dF
    with the solution's expanded n-vector, as numeric terms."""
    dy_num = eval_terms(ext_d(y).terms, point)
    v = _hook_terms(dy_num, solution.family.expand(solution.assignment()))
    vol_num = eval_terms(chart.volume_form().terms, point)
    sign = -1 if (chart.n - 1) % 2 else 1
    return dy_num, {k: sign * c for k, c in _hook_terms(v, vol_num).items()}


def _position_function_setup():
    chart = ddw_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(13)
    point = sampler.point(chart.dim)
    h = f.poly_var("e") + sampler.polynomial(
        f.names, max_degree=2, n_terms=4, restrict_to=[n for n in f.names if n != "e"]
    )
    return chart, sampler, point, h, hamiltonian_nvector_solve(chart, h, point)


def test_position_function_bracket_pairings():
    """{H, y^i} paired against the volume contractions reproduces the
    momentum derivatives of H: the coordinate form of the field equation."""
    chart, _, point, h, sol = _position_function_setup()
    f = chart.frame
    cop = algebraic_copolarization(chart)
    for i in (1, 2):
        y = PolyForm(f, 0, {(): f.poly_var(f"y{i}")})
        value = pseudobracket(chart, y, sol, cop)
        # {H, y} . vol = sum_mu dH/dp^mu_i dx^mu, tested via its pairings:
        # the generator list of degree n-1 is (vol_mu contractions are not
        # generators; dx wedges are), so check against the hook directly
        dy_num, hooked = _position_function_hook(chart, y, point, sol)
        for mu in (1, 2):
            idx = f.index(f"x{mu}")
            expect = h.diff(f"p{mu}_{i}").eval(point)
            assert hooked.get((idx,), Fraction(0)) == expect
        # specialization: dF(Y) = {H,F} . vol (Y) for Y = each base factor
        for factor in sol.factors():
            lhs = _pair_terms(factor, hooked) or Fraction(0)
            rhs = _pair_terms(factor, dy_num) or Fraction(0)
            assert lhs == rhs
        # and the reported pairings agree with the tensor route
        tensor = aof_tensor(chart, cop, y)
        assert not isinstance(tensor, NotAOF)
        assert pseudobracket_aof(chart, h, tensor, point) == value


def test_position_function_hook_needs_the_solution():
    """On a frame moved off the solution the factor pairings of the hook
    still match dF (they hold for any decomposable frame), but the hook no
    longer reproduces dH/dp: the momentum comparison is what carries the
    field equation."""
    chart, sampler, point, h, sol = _position_function_setup()
    f = chart.frame
    unsolved = dataclasses.replace(sol, base_assignment=tuple(sampler.rational() + 5 for _ in sol.base_assignment))
    assert not unsolved.verify()
    mismatches = 0
    for i in (1, 2):
        y = PolyForm(f, 0, {(): f.poly_var(f"y{i}")})
        dy_num, hooked = _position_function_hook(chart, y, point, unsolved)
        for factor in unsolved.factors():
            assert (_pair_terms(factor, hooked) or Fraction(0)) == (_pair_terms(factor, dy_num) or Fraction(0))
        for mu in (1, 2):
            expect = h.diff(f"p{mu}_{i}").eval(point)
            mismatches += hooked.get((f.index(f"x{mu}"),), Fraction(0)) != expect
    assert mismatches


def test_pseudobracket_not_well_defined_for_momentum_pairs():
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(17)
    point = sampler.point(chart.dim)
    h = frame_compatible_hamiltonian(chart, sampler, point)
    sol = hamiltonian_nvector_solve(chart, h, point)
    assert len(sol.kernel) > 0
    bad = form_basis(f, "p24").scale(f.poly_var("p13"))  # dF = dp13 ^ dp24
    with pytest.raises(NotWellDefined):
        pseudobracket(chart, bad, sol)


def test_pseudobracket_routes_agree_on_random_observables():
    for chart, seed in [(lepage_dedecker_chart(2, 2), 19), (ddw_chart(2, 2), 23)]:
        f = chart.frame
        sampler = RationalSampler(seed)
        cop = algebraic_copolarization(chart)
        point = sampler.point(chart.dim)
        if chart.name.startswith("lepage"):
            h = frame_compatible_hamiltonian(chart, sampler, point)
        else:
            h = f.poly_var("e") + sampler.polynomial(
                f.names, 2, 4, restrict_to=[n for n in f.names if n != "e"]
            )
        sol = hamiltonian_nvector_solve(chart, h, point)
        # (n-1)-forms give the scalar (p = n); functions of the base
        # coordinates give pairings with the copolarization (p < n)
        observables = [random_aof(chart, sampler) for _ in range(10)]
        base = [f.names[i] for i in f.base_indices()]
        observables += [PolyForm(f, 0, {(): sampler.polynomial(f.names, 2, 3, restrict_to=base)}) for _ in range(5)]
        for observable in observables:
            direct = pseudobracket(chart, observable, sol, cop)
            tensor = aof_tensor(chart, cop, observable)
            assert not isinstance(tensor, NotAOF)
            assert pseudobracket_aof(chart, h, tensor, point) == direct


@pytest.mark.parametrize(
    "label", ["lepage-dedecker:2,2", "ddw:2,2", "lepage-dedecker:3,1", "ddw:3,2", "lepage-dedecker:2,3"]
)
def test_pseudobracket_routes_carry_the_evolution_law(label):
    """The evolution law <X, dF> = -dH(xi_F) is the agreement of the two
    routes: `pseudobracket` pairs dF with the solution frame X and
    `pseudobracket_aof` computes -dH(xi_F).  It holds on every solved
    frame, and on a frame moved off the solution at least one observable
    breaks it: unequal values, or a value that changes across the
    family's representatives."""
    chart = builtin_chart(label)
    cop = algebraic_copolarization(chart)
    for seed in range(97, 107):
        sampler = RationalSampler(seed)
        point = sampler.point(chart.dim)
        h = frame_compatible_hamiltonian(chart, sampler, point)
        sol = hamiltonian_nvector_solve(chart, h, point)
        unsolved = dataclasses.replace(sol, base_assignment=tuple(sampler.rational() + 5 for _ in sol.base_assignment))
        assert sol.verify() and not unsolved.verify()
        broken = 0
        for _ in range(3):
            observable = random_aof(chart, sampler)
            tensor = aof_tensor(chart, cop, observable)
            assert not isinstance(tensor, NotAOF)
            law = pseudobracket_aof(chart, h, tensor, point)
            assert pseudobracket(chart, observable, sol, cop) == law
            try:
                broken += pseudobracket(chart, observable, unsolved, cop) != law
            except NotWellDefined:
                broken += 1
        assert broken, (label, seed)


def test_pseudobracket_function_examples():
    chart = scalar_field_chart(2, V_MASS)
    f = chart.frame
    # volume primitive: {H, x0 dx1} = dH/de = 1
    primitive = form_basis(f, "x1").scale(f.poly_var("x0"))
    assert pseudobracket_function(chart, primitive) == f.poly_const(1)


def test_pseudobracket_aof_vanishes_for_constant_hamiltonian():
    chart = ddw_chart(2, 2)
    f = chart.frame
    cop = algebraic_copolarization(chart)
    y = PolyForm(f, 0, {(): f.poly_var("y1")})
    tensor = aof_tensor(chart, cop, y)
    point = RationalSampler(3).point(chart.dim)
    value = pseudobracket_aof(chart, f.poly_const(7), tensor, point)
    assert all(v == 0 for v in value.pairings)


# -- Poisson bracket and its structure -----------------------------------------------


def test_poisson_bracket_antisymmetry_and_diagonal():
    chart = lepage_dedecker_chart(2, 1)
    sampler = RationalSampler(29)
    for _ in range(5):
        f_form = random_aof(chart, sampler)
        g_form = random_aof(chart, sampler)
        assert not poisson_bracket(chart, f_form, f_form)
        assert poisson_bracket(chart, f_form, g_form) == -poisson_bracket(chart, g_form, f_form)


def test_momentum_observable_brackets_commute_for_constant_weights():
    chart = ddw_chart(2, 2)
    f = chart.frame
    p1 = hook(vector_basis(f, "y1"), chart.theta).scale(f.poly_const(3))
    p2 = hook(vector_basis(f, "y2"), chart.theta).scale(f.poly_const(Fraction(1, 2)))
    assert not poisson_bracket(chart, p1, p2)


def test_bracket_field_identity():
    """d{F,G} + [xi_F, xi_G] . Omega = 0 on random Hamilton pairs."""
    for chart, seed in [(lepage_dedecker_chart(2, 1), 31), (ddw_chart(2, 2), 37)]:
        sampler = RationalSampler(seed)
        for _ in range(8):
            f_form = random_aof(chart, sampler)
            g_form = random_aof(chart, sampler)
            assert not bracket_field_identity_defect(chart, f_form, g_form)


def test_jacobi_defect_vanishes():
    chart = lepage_dedecker_chart(2, 1)
    sampler = RationalSampler(41)
    for _ in range(5):
        f_form = random_aof(chart, sampler)
        g_form = random_aof(chart, sampler)
        h_form = random_aof(chart, sampler)
        assert not jacobi_defect(chart, f_form, g_form, h_form)


def test_jacobi_with_closed_member():
    chart = lepage_dedecker_chart(2, 1)
    f = chart.frame
    sampler = RationalSampler(43)
    closed = ext_d(PolyForm(f, 0, {(): f.poly_var("q1") * f.poly_var("q3")}))
    a = random_aof(chart, sampler)
    b = random_aof(chart, sampler)
    assert not jacobi_defect(chart, a, b, closed)
    # constant-translation triple: both sides vanish separately
    t1 = hook(vector_basis(f, "q1"), chart.theta)
    t2 = hook(vector_basis(f, "q2"), chart.theta)
    t3 = hook(vector_basis(f, "q3"), chart.theta)
    cyclic = (
        poisson_bracket(chart, poisson_bracket(chart, t1, t2), t3)
        + poisson_bracket(chart, poisson_bracket(chart, t2, t3), t1)
        + poisson_bracket(chart, poisson_bracket(chart, t3, t1), t2)
    )
    assert not cyclic


def test_theta_bracket_properties():
    chart = lepage_dedecker_chart(2, 1)
    sampler = RationalSampler(47)
    for _ in range(4):
        f_form = random_aof(chart, sampler)
        g_form = random_aof(chart, sampler)
        h_form = random_aof(chart, sampler)
        assert not theta_bracket(chart, f_form, f_form)
        difference = theta_bracket(chart, f_form, g_form) - poisson_bracket(chart, f_form, g_form)
        assert not ext_d(difference)  # the correction is exact
        assert not theta_jacobi_sum(chart, f_form, g_form, h_form)


def reference_jacobi_defect(chart, f, g, h):
    """jacobi_defect as nested poisson_bracket calls, solving each field
    anew for every bracket and for the exact term."""
    cyclic = (
        poisson_bracket(chart, poisson_bracket(chart, f, g), h)
        + poisson_bracket(chart, poisson_bracket(chart, g, h), f)
        + poisson_bracket(chart, poisson_bracket(chart, h, f), g)
    )
    xi_f, xi_g, xi_h = (aof_solve(chart, form) for form in (f, g, h))
    return cyclic - ext_d(hook(wedge(wedge(xi_f, xi_g), xi_h), chart.omega))


def reference_theta_jacobi_sum(chart, f, g, h):
    return (
        theta_bracket(chart, theta_bracket(chart, f, g), h)
        + theta_bracket(chart, theta_bracket(chart, g, h), f)
        + theta_bracket(chart, theta_bracket(chart, h, f), g)
    )


def _count_solves(monkeypatch):
    calls = []

    def counted(chart, form):
        calls.append(form)
        return aof_solve(chart, form)

    monkeypatch.setattr(brackets, "aof_solve", counted)
    return calls


# One form without a Hamilton vector field per chart.
_NOT_AOF = {"lepage-dedecker:2,1": ("q1", "p12"), "ddw:2,2": ("y2", "y1")}


@pytest.mark.parametrize("chart", [lepage_dedecker_chart(2, 1), ddw_chart(2, 2)], ids=lambda c: c.name)
@pytest.mark.parametrize(
    "identity, reference",
    [(jacobi_defect, reference_jacobi_defect), (theta_jacobi_sum, reference_theta_jacobi_sum)],
    ids=["jacobi", "theta-jacobi"],
)
def test_jacobi_identities_solve_each_distinct_form_once(monkeypatch, chart, identity, reference):
    """Six Hamilton fields per triple (F, G, H and the three inner
    brackets), and the same form, term for term, as the nested brackets."""
    sampler = RationalSampler(211)
    for _ in range(3):
        triple = [random_aof(chart, sampler) for _ in range(3)]
        expected = reference(chart, *triple)
        calls = _count_solves(monkeypatch)
        result = identity(chart, *triple)
        monkeypatch.undo()
        assert len(calls) == 6
        assert result == expected and repr(result) == repr(expected)
        assert list(result.terms) == list(expected.terms)
    differential, coeff = _NOT_AOF[chart.name]
    frame = chart.frame
    not_aof = form_basis(frame, differential).scale(frame.poly_var(coeff))
    for position in range(3):
        triple = [random_aof(chart, sampler) for _ in range(3)]
        triple[position] = not_aof
        with pytest.raises(ValueError) as reference_error:
            reference(chart, *triple)
        with pytest.raises(ValueError) as error:
            identity(chart, *triple)
        assert str(error.value) == str(reference_error.value)


def test_theta_brackets_need_theta_before_any_solve(monkeypatch):
    chart = lepage_dedecker_chart(2, 1)
    sampler = RationalSampler(223)
    f_form, g_form, h_form = (random_aof(chart, sampler) for _ in range(3))
    bare = dataclasses.replace(chart, theta=None)
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="primitive theta"):
        theta_bracket(bare, f_form, g_form)
    with pytest.raises(ValueError, match="primitive theta"):
        theta_jacobi_sum(bare, f_form, g_form, h_form)
    assert calls == []


# -- external bracket -----------------------------------------------------------------


def test_external_bracket_momentum_position_pairs():
    """{P_{j,psi}, y^i} = delta^i_j psi."""
    chart = ddw_chart(2, 2)
    f = chart.frame
    psi = f.poly_var("x1") * f.poly_var("x2")
    for j in (1, 2):
        momentum_form = hook(vector_basis(f, f"y{j}"), chart.theta).scale(psi)
        for i in (1, 2):
            y = PolyForm(f, 0, {(): f.poly_var(f"y{i}")})
            value = external_bracket(chart, momentum_form, y)
            expected = PolyForm(f, 0, {(): psi}) if i == j else PolyForm.zero(f, 0)
            assert value == expected
            assert external_bracket(chart, y, momentum_form) == -value


def test_external_bracket_closed_is_zero():
    chart = ddw_chart(2, 2)
    f = chart.frame
    momentum_form = hook(vector_basis(f, "y1"), chart.theta)
    closed = PolyForm(f, 0, {(): f.poly_const(5)})
    assert not external_bracket(chart, closed, momentum_form)


def test_external_bracket_smearing_compatibility():
    """{df ^ F, G} = df ^ {F, G} when xi_G . df = 0."""
    chart = ddw_chart(2, 2)
    f = chart.frame
    psi = f.poly_var("x1") + 2 * f.poly_var("x2")
    g_form = hook(vector_basis(f, "y1"), chart.theta).scale(psi)
    xi_g = aof_solve(chart, g_form)
    y = PolyForm(f, 0, {(): f.poly_var("y2")})
    df = form_basis(f, "x1")
    assert not hook(xi_g, df)  # the smearing coordinate is invariant
    smeared = wedge(df, y)
    lhs = external_bracket(chart, smeared, g_form)
    rhs = wedge(df, external_bracket(chart, y, g_form))
    assert lhs == rhs


def test_external_bracket_requires_a_hamilton_side():
    chart = ddw_chart(2, 2)
    f = chart.frame
    witness = form_basis(f, "y2").scale(f.poly_var("y1"))
    with pytest.raises(ValueError):
        external_bracket(chart, witness, witness)


# -- form division and the complementary bracket -----------------------------------------


def test_form_division_examples():
    chart = lepage_dedecker_chart(3, 1)
    f = chart.frame
    dx1, dx2 = form_basis(f, "q1"), form_basis(f, "q2")
    phi = wedge(dx1, dx2)
    result = form_division(phi, [dx1, dx2])
    assert result.divisible
    assert result.quotient == PolyForm(f, 0, {(): f.poly_const(1)})
    assert form_division(phi.scale(2), [dx1, dx2]).quotient.terms[()] == f.poly_const(2)
    assert form_division(wedge(dx2, dx1), [dx1, dx2]).quotient.terms[()] == f.poly_const(-1)
    undivisible = form_division(form_basis(f, "q1", "q3"), [dx1, dx2])
    assert not undivisible.divisible and undivisible.residual
    with pytest.raises(ValueError):
        form_division(phi, [dx1, dx1])


def test_form_division_needs_a_scalar_quotient():
    """One divisor per degree of phi: dividing the Maxwell volume form by
    one differential would leave a 3-form quotient."""
    chart = maxwell_chart()
    with pytest.raises(ValueError, match="scalar"):
        form_division(chart.volume_form(), [form_basis(chart.frame, "x0")])


def test_complementary_bracket_canonical_pair():
    """{pi, a} = 1 and the graded antisymmetry on the electromagnetic chart."""
    chart = maxwell_chart()
    f = chart.frame
    pi = maxwell_pi(f)
    a = maxwell_potential_form(f)
    assert complementary_bracket(chart, pi, a) == f.poly_const(1)
    value_swapped = complementary_bracket(chart, a, pi)
    n, p, q = 4, 3, 2
    sign = -1 if ((n - p) * (n - q)) % 2 else 1
    assert value_swapped == f.poly_const(-sign * 1)


def test_smeared_bracket_is_the_smearing_wedge():
    """{df ^ pi, dg1 ^ dg2 ^ a} = df ^ dg1 ^ dg2 for coordinate smearings:
    the un-divided identity behind the canonical pair."""
    chart = maxwell_chart()
    f = chart.frame
    pi = maxwell_pi(f)
    a = maxwell_potential_form(f)
    for f_name, g_names in [("x0", ("x1", "x2")), ("x3", ("x0", "x2")), ("x1", ("x2", "x3"))]:
        df = form_basis(f, f_name)
        dg = form_basis(f, *g_names)
        smeared_pi = wedge(df, pi)
        smeared_a = wedge(dg, a)
        value = poisson_bracket(chart, smeared_pi, smeared_a)
        assert value == wedge(df, dg)


def test_complementary_bracket_rejects_wrong_degrees():
    chart = maxwell_chart()
    f = chart.frame
    a = maxwell_potential_form(f)
    with pytest.raises(NotDefined):
        complementary_bracket(chart, a, a)  # p + q = 4 != n + 1


def test_complementary_bracket_zero_pair():
    chart = maxwell_chart()
    f = chart.frame
    pi = maxwell_pi(f)
    closed = PolyForm(f, 1, {(f.index("x0"),): f.poly_const(2)})  # dF = 0
    assert complementary_bracket(chart, pi, closed) == f.poly_zero()


def test_complementary_agrees_with_external_on_first_order_chart():
    """Where both constructions apply (0-form against an (n-1)-form with a
    Hamilton field), the smearing/division route and the direct
    contraction route give the same scalar."""
    chart = ddw_chart(2, 2)
    f = chart.frame
    psi = f.poly_var("x1") * f.poly_var("x2") + 2
    for j in (1, 2):
        momentum_form = hook(vector_basis(f, f"y{j}"), chart.theta).scale(psi)
        for i in (1, 2):
            y = PolyForm(f, 0, {(): f.poly_var(f"y{i}")})
            ext = external_bracket(chart, y, momentum_form).terms.get((), f.poly_zero())
            comp = complementary_bracket(chart, y, momentum_form)
            assert comp == ext
            expected = -psi if i == j else f.poly_zero()
            assert comp == expected


def test_theta_bracket_jacobi_on_first_order_chart():
    chart = ddw_chart(2, 2)
    sampler = RationalSampler(173)
    for _ in range(3):
        f_form = random_aof(chart, sampler)
        g_form = random_aof(chart, sampler)
        h_form = random_aof(chart, sampler)
        assert not theta_jacobi_sum(chart, f_form, g_form, h_form)
