"""Acceptance suite: the exit criteria, one test per criterion.

Every numbered criterion prints a single PASS line with its scale and
tolerance; exact checks use rational arithmetic and == throughout, the
field experiments state their floating-point tolerances inline.
"""

import math
import time
from fractions import Fraction

from conftest import random_aof, random_aof_like_candidate, random_form
from multisymp.algebra import Polynomial, RationalSampler
from multisymp.brackets import (
    bracket_field_identity_defect,
    complementary_bracket,
    external_bracket,
    jacobi_defect,
    pseudobracket,
    pseudobracket_aof,
    theta_jacobi_sum,
)
from multisymp.charts import (
    ddw_chart,
    lepage_dedecker_chart,
    lepage_dedecker_split_chart,
    maxwell_chart,
    maxwell_da,
    maxwell_pi,
    maxwell_potential_form,
    scalar_field_chart,
)
from multisymp.dynamics import (
    annihilator_span,
    frame_compatible_hamiltonian,
    hamiltonian_nvector_solve,
    of_sampling_test,
    plucker_check,
    pseudofiber_directions,
    pseudofiber_integrand_check,
)
from multisymp.exterior import (
    CoordinateFrame,
    PolyForm,
    PolyMultivector,
    eval_terms,
    ext_d,
    form_basis,
    hook,
    pair,
    vector_basis,
    wedge,
)
from multisymp.exterior import _hook_terms, _pair_terms
from multisymp.fieldlab import (
    ExperimentConfig,
    Mode,
    conservation_experiment,
    lift_residual_orders,
    plane_wave_state,
    reversibility_error,
)
from multisymp.observables import (
    NotAOF,
    algebraic_copolarization,
    aof_solve,
    aof_tensor,
    classify_aof,
    copolar_membership,
    gauged_charge_field,
    gauged_charge_form,
    solve_contraction,
    standard_copolarization,
    vertical_lift_field,
)

V_MASS = Polynomial(("s",), {(1,): Fraction(1)})


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


# ---------------------------------------------------------------------------
# 1. exact reproduction of the printed anchor values (zero tolerance)
# ---------------------------------------------------------------------------


def test_criterion_1_printed_values():
    start = time.time()

    # {H, x^1 dx^2 ... dx^n} = 1
    for chart in [lepage_dedecker_split_chart(2, 1), lepage_dedecker_split_chart(3, 1)]:
        sampler = RationalSampler(211)
        point = sampler.point(chart.dim)
        h = frame_compatible_hamiltonian(chart, sampler, point)
        sol = hamiltonian_nvector_solve(chart, h, point)
        f = chart.frame
        primitive = form_basis(f, *chart.horizontal[1:]).scale(f.poly_var(chart.horizontal[0]))
        assert pseudobracket(chart, primitive, sol).scalar == 1

    # the coordinate field equation dy^i = sum dH/dp^mu_i dx^mu on the frame
    chart = ddw_chart(2, 2)
    f = chart.frame
    for seed in (223, 227):
        sampler = RationalSampler(seed)
        point = sampler.point(chart.dim)
        h = f.poly_var("e") + sampler.polynomial(
            f.names, max_degree=2, n_terms=4, restrict_to=[n for n in f.names if n != "e"]
        )
        sol = hamiltonian_nvector_solve(chart, h, point)
        vol_num = eval_terms(chart.volume_form().terms, point)
        for i in (1, 2):
            dy_num = {(f.index(f"y{i}"),): Fraction(1)}
            v = _hook_terms(dy_num, sol.family.expand(sol.assignment()))
            sign = -1 if (chart.n - 1) % 2 else 1
            lhs_form = {k: sign * c for k, c in _hook_terms(v, vol_num).items()}
            expected = {
                (f.index(f"x{mu}"),): h.diff(f"p{mu}_{i}").eval(point)
                for mu in (1, 2)
                if h.diff(f"p{mu}_{i}").eval(point)
            }
            assert lhs_form == expected
            for factor in sol.factors():
                assert (_pair_terms(factor, lhs_form) or Fraction(0)) == (
                    _pair_terms(factor, dy_num) or Fraction(0)
                )

    # the weighted momentum observable and its bracket with the positions
    psi = f.poly_var("x1") ** 2 + 3 * f.poly_var("x2")
    for j in (1, 2):
        observable = hook(vector_basis(f, f"y{j}"), chart.theta).scale(psi)
        xi = aof_solve(chart, observable)
        expected_xi = vector_basis(f, f"y{j}").scale(psi) - vector_basis(f, "e").scale(
            f.poly_var(f"p1_{j}") * psi.diff("x1") + f.poly_var(f"p2_{j}") * psi.diff("x2")
        )
        assert xi == expected_xi
        for i in (1, 2):
            y = PolyForm(f, 0, {(): f.poly_var(f"y{i}")})
            value = external_bracket(chart, observable, y)
            assert value == (PolyForm(f, 0, {(): psi}) if i == j else PolyForm.zero(f, 0))

    # the electromagnetic canonical pair and the comparison pairing
    mx = maxwell_chart()
    mf = mx.frame
    assert complementary_bracket(mx, maxwell_pi(mf), maxwell_potential_form(mf)) == mf.poly_const(1)
    xi_pair = PolyMultivector.zero(mf, 2)
    for mu in range(4):
        xi_pair = xi_pair + vector_basis(mf, f"a{mu}", f"x{mu}")
    xi_pair = xi_pair.scale(Fraction(1, 2))
    assert pair(xi_pair, maxwell_da(mf)) == mf.poly_const(2)  # n/2 at n = 4
    assert hook(xi_pair, mx.omega) == ext_d(maxwell_pi(mf))

    # the gauged charge observable: printed Hamilton field, invariance
    gauged = scalar_field_chart(2, V_MASS, gauged=True)
    gf = gauged.frame
    weight = gf.poly_var("x0") ** 2 + 3 * gf.poly_var("x1")
    observable = gauged_charge_form(gauged, weight)
    xi1 = gauged_charge_field(gauged, weight)
    assert aof_solve(gauged, observable) == xi1
    assert ext_d(observable) + hook(xi1, gauged.omega) == PolyForm.zero(gf, 2)
    dh = gf.poly_zero()
    for (jj,), coeff in xi1.terms.items():
        dh = dh + coeff * gauged.hamiltonian.diff(gf.names[jj])
    assert not dh

    # the introduction's sign anchor at n = 2
    fr = CoordinateFrame.build(
        [("x1", "position"), ("x2", "position"), ("phi", "position"),
         ("e", "energy"), ("p1", "momentum"), ("p2", "momentum")]
    )
    vol = form_basis(fr, "x1", "x2")
    omega = wedge(form_basis(fr, "e"), vol)
    for mu, name in ((1, "p1"), (2, "p2")):
        omega = omega + wedge(
            form_basis(fr, name), wedge(form_basis(fr, "phi"), hook(vector_basis(fr, f"x{mu}"), vol))
        )
    assert hook(vector_basis(fr, "phi", "x2"), omega) == form_basis(fr, "p1")

    # the generator families: chi . Omega = -dQ and lift . Omega = -dP
    ld = lepage_dedecker_chart(2, 2)
    lf = ld.frame
    sampler = RationalSampler(229)
    base = ["q1", "q2", "q3", "q4"]
    for _ in range(10):
        components = {
            q: sampler.polynomial(lf.names, 2, 2, restrict_to=base) for q in sampler.sample(base, 2)
        }
        components = {k: v for k, v in components.items() if v}
        if components:
            xi_bar = vertical_lift_field(ld, components)
            xi_base = PolyMultivector.from_named(lf, 1, [((k,), v) for k, v in components.items()])
            assert hook(xi_bar, ld.omega) == -ext_d(hook(xi_base, ld.theta))
        observable = random_aof(ld, sampler)
        cls = classify_aof(ld, observable)
        assert hook(cls.momentum_field, ld.omega) == -ext_d(cls.momentum_part)
        assert hook(cls.lift_field, ld.omega) == -ext_d(cls.lift_part)
        assert cls.momentum_part + cls.lift_part + cls.remainder == observable
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"printed anchor values reproduced exactly (rational arithmetic, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. structural identity suites, >= 100 seeded instances each, exact
# ---------------------------------------------------------------------------


def test_criterion_2_structural_identities():
    start = time.time()
    counts = {}

    # d o d = 0 on a dimension-15 frame
    mx = maxwell_chart()
    sampler = RationalSampler(307)
    for _ in range(100):
        mu = random_form(mx.frame, sampler.integer(0, 3), sampler, n_terms=3, coeff_degree=2)
        assert not ext_d(ext_d(mu))
    counts["d2"] = 100

    # both adjunctions against the evaluation map, all basis complements
    frame8 = CoordinateFrame.build([(f"z{i}", "position") for i in range(8)])
    from multisymp.exterior import all_index_tuples

    checked = 0
    sampler = RationalSampler(311)
    while checked < 100:
        k = sampler.integer(0, 3)
        l = sampler.integer(k, 4)
        x = PolyMultivector(frame8, k, random_form(frame8, k, sampler, n_terms=2).terms)
        mu = random_form(frame8, l, sampler, n_terms=3)
        hooked = hook(x, mu)
        for key in all_index_tuples(8, l - k):
            y = vector_basis(frame8, *[frame8.names[i] for i in key])
            assert pair(y, hooked) == pair(wedge(x, y), mu)
        big = PolyMultivector(frame8, l, random_form(frame8, l, sampler, n_terms=2).terms)
        nu = random_form(frame8, k, sampler, n_terms=2)
        cohooked = __import__("multisymp.exterior", fromlist=["cohook"]).cohook(big, nu)
        for key in all_index_tuples(8, l - k):
            eta = form_basis(frame8, *[frame8.names[i] for i in key])
            assert pair(cohooked, eta) == pair(big, wedge(nu, eta))
        checked += 1
    counts["adjunctions"] = checked

    # d{F,G} + [xi_F, xi_G] . Omega = 0
    pairs = 0
    for chart, seed in [(lepage_dedecker_chart(2, 1), 313), (ddw_chart(2, 2), 317)]:
        sampler = RationalSampler(seed)
        for _ in range(50):
            f_form = random_aof(chart, sampler)
            g_form = random_aof(chart, sampler)
            assert not bracket_field_identity_defect(chart, f_form, g_form)
            pairs += 1
    counts["bracket-field"] = pairs

    # Jacobi defect = the exact term, and the corrected bracket's Jacobi = 0
    chart = lepage_dedecker_chart(2, 1)
    sampler = RationalSampler(331)
    for _ in range(100):
        f_form = random_aof(chart, sampler)
        g_form = random_aof(chart, sampler)
        h_form = random_aof(chart, sampler)
        assert not jacobi_defect(chart, f_form, g_form, h_form)
    counts["jacobi"] = 100
    sampler = RationalSampler(337)
    for _ in range(100):
        f_form = random_aof(chart, sampler)
        g_form = random_aof(chart, sampler)
        h_form = random_aof(chart, sampler)
        assert not theta_jacobi_sum(chart, f_form, g_form, h_form)
    counts["theta-jacobi"] = 100

    # pseudobracket representative-independence (verified on every call),
    # and the evolution law <X, dF> = -dH(xi_F): the two routes agree
    checked = 0
    for chart, seed in [(ddw_chart(2, 2), 349), (lepage_dedecker_chart(2, 2), 353)]:
        sampler = RationalSampler(seed)
        cop = algebraic_copolarization(chart)
        point = sampler.point(chart.dim)
        if chart.name.startswith("lepage"):
            h = frame_compatible_hamiltonian(chart, sampler, point)
        else:
            h = chart.frame.poly_var("e") + sampler.polynomial(
                chart.frame.names, 2, 4, restrict_to=[n for n in chart.frame.names if n != "e"]
            )
        sol = hamiltonian_nvector_solve(chart, h, point)
        assert len(sol.kernel) > 0
        for _ in range(50):
            observable = random_aof(chart, sampler)
            value = pseudobracket(chart, observable, sol, cop)  # raises NotWellDefined on dependence
            tensor = aof_tensor(chart, cop, observable)
            assert not isinstance(tensor, NotAOF)
            assert pseudobracket_aof(chart, h, tensor, point) == value
            checked += 1
    assert checked >= 100
    counts["representative-independence"] = counts["evolution-law"] = checked

    elapsed = time.time() - start
    assert elapsed < 300.0
    report(2, f"exact structural identities over {counts} instances in {elapsed:.1f}s (budget 300s)")


# ---------------------------------------------------------------------------
# 3. the observability dichotomy at sample scale
# ---------------------------------------------------------------------------


def test_criterion_3_dichotomy():
    start = time.time()

    # full momentum chart: observable <=> contraction-solvable, no exceptions
    chart = lepage_dedecker_chart(2, 2)
    sampler = RationalSampler(401)
    point = sampler.point(chart.dim)
    disagreements = 0
    total = 0
    for trial in range(200):
        candidate = random_aof_like_candidate(chart, sampler)
        if not candidate:
            continue
        at_point = candidate.at_point(point)
        solvable = not isinstance(solve_contraction(chart, at_point), NotAOF)
        observed = of_sampling_test(chart, candidate, point, sample_count=5, seed=1000 + trial).passed
        total += 1
        if solvable != observed:
            disagreements += 1
    assert total >= 200 - 10 and disagreements == 0

    # first-order chart: the witness family is observable but not solvable,
    # and its differential lies in the restriction span
    ddw = ddw_chart(2, 2)
    f = ddw.frame
    sampler = RationalSampler(409)
    points = [sampler.point(ddw.dim) for _ in range(3)]
    witnesses = [
        form_basis(f, "y2").scale(f.poly_var("y1")),
        form_basis(f, "y1").scale(f.poly_var("y2") * f.poly_var("x1")),
        form_basis(f, "y2").scale(f.poly_var("y1") + 2 * f.poly_var("y2")),
    ]
    cop = standard_copolarization(ddw)
    acop = algebraic_copolarization(ddw)
    for witness in witnesses:
        assert isinstance(aof_solve(ddw, witness), NotAOF)
        for point in points:
            assert of_sampling_test(ddw, ext_d(witness), point, sample_count=4, seed=31).passed
        member, _ = copolar_membership(cop, ext_d(witness))
        assert member
        member0, _ = copolar_membership(acop, ext_d(witness))
        assert not member0

    # decomposability identities on 100 random decomposables
    sampler = RationalSampler(419)
    passed = 0
    while passed < 100:
        factors = []
        for _ in range(2):
            terms = {}
            for j in range(f.dim):
                v = sampler.rational()
                if v:
                    terms[(j,)] = f.poly_const(v)
            factors.append(PolyMultivector(f, 1, terms))
        for p in (1, 2):
            verdict = plucker_check(ddw, factors, p)
            if verdict.skipped_degenerate:
                break
            assert verdict.passed
        else:
            passed += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(3, f"dichotomy: 200 candidates, 0 disagreements; witness family OF-yes/AOF-no; "
              f"100 decomposability checks in {elapsed:.1f}s (budget 120s)")


# ---------------------------------------------------------------------------
# 4. pseudofiber suite
# ---------------------------------------------------------------------------


def test_criterion_4_pseudofibers():
    start = time.time()
    checked_pairs = 0
    for n, k, seed in [(2, 2, 431), (2, 3, 433)]:
        chart = lepage_dedecker_chart(n, k)
        n_positions = n + k
        sampler = RationalSampler(seed)
        point = sampler.point(chart.dim)
        h = frame_compatible_hamiltonian(chart, sampler, point, vertical_only=True)
        assert h.used_variables() <= {name for name in chart.frame.names if name.startswith("p")}
        sol = hamiltonian_nvector_solve(chart, h, point)
        directions = pseudofiber_directions(chart, sol)
        doubled = pseudofiber_directions(chart, sol, doubled=True)
        assert annihilator_span(directions) == annihilator_span(doubled)
        for vec in directions:
            assert all(vec[i] == 0 for i in range(n_positions))
        if (n, k) == (2, 2):
            assert directions  # a genuine invariance direction exists here
            while checked_pairs < 50:
                observable = random_aof(chart, sampler)
                if isinstance(aof_solve(chart, observable), NotAOF):
                    continue
                for zeta in directions:
                    assert pseudofiber_integrand_check(chart, observable, zeta, sol)
                    checked_pairs += 1
                scaled = [c * sampler.nonzero() for c in directions[0]]
                assert pseudofiber_integrand_check(chart, observable, scaled, sol)
                checked_pairs += 1
    elapsed = time.time() - start
    assert checked_pairs >= 50
    assert elapsed < 120.0
    report(4, f"verticality + doubling probe on full momentum charts; "
              f"{checked_pairs} integrand pairs vanish exactly ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. field experiments (binary64)
# ---------------------------------------------------------------------------


def test_criterion_5_field_experiments():
    start = time.time()
    length = 2.0 * math.pi

    linear = conservation_experiment(ExperimentConfig(coupling=0.0))
    nonlinear = conservation_experiment(ExperimentConfig(coupling=0.5))
    drifts_linear = {f.name: f.max_drift for f in linear.functionals}
    drifts_nonlinear = {f.name: f.max_drift for f in nonlinear.functionals}
    assert drifts_linear["charge"] <= 1e-5
    assert drifts_nonlinear["charge"] <= 1e-5
    assert drifts_linear["smeared"] <= 1e-4
    assert drifts_nonlinear["smeared"] >= 1e-2

    orders = lift_residual_orders(64, 3, [Mode(1.0, 1, 0.0)], 1.0)
    assert all(o >= 1.9 for o in orders), orders

    state = plane_wave_state(256, length, 0.45, [Mode(1.0, 1, 0.0), Mode(0.4, 2, 1.1)], 1.0, 0.5)
    reversal = reversibility_error(state, 10_000)
    assert reversal <= 1e-10

    elapsed = time.time() - start
    assert elapsed < 180.0
    report(5, "charge drift {:.1e}/{:.1e} <= 1e-5; smeared {:.1e} <= 1e-4 vs {:.2f} >= 1e-2; "
              "lift orders {} >= 1.9; reversal {:.1e} <= 1e-10 ({:.0f}s)".format(
                  drifts_linear["charge"], drifts_nonlinear["charge"],
                  drifts_linear["smeared"], drifts_nonlinear["smeared"],
                  [round(o, 2) for o in orders], reversal, elapsed))


# ---------------------------------------------------------------------------
# 6. cross-method agreement of the two pseudobracket routes
# ---------------------------------------------------------------------------


def test_criterion_6_cross_method_agreement():
    start = time.time()
    total = 0
    charts = [
        (lepage_dedecker_chart(2, 2), 601),
        (ddw_chart(2, 2), 607),
        (maxwell_chart(), 613),
    ]
    for chart, seed in charts:
        f = chart.frame
        sampler = RationalSampler(seed)
        cop = algebraic_copolarization(chart)
        point = sampler.point(chart.dim)
        if chart.hamiltonian is not None:
            h = chart.hamiltonian
        elif chart.name.startswith("lepage"):
            h = frame_compatible_hamiltonian(chart, sampler, point)
        else:
            h = f.poly_var("e") + sampler.polynomial(
                f.names, 2, 4, restrict_to=[n for n in f.names if n != "e"]
            )
        sol = hamiltonian_nvector_solve(chart, h, point)
        for _ in range(50):
            observable = random_aof(chart, sampler)
            tensor = aof_tensor(chart, cop, observable)
            assert not isinstance(tensor, NotAOF)
            direct = pseudobracket(chart, observable, sol, cop)
            assert pseudobracket_aof(chart, h, tensor, point) == direct
            total += 1
    elapsed = time.time() - start
    report(6, f"pseudobracket routes agree exactly on {total} observables across "
              f"{len(charts)} charts ({elapsed:.1f}s)")
