from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_aof_like_candidate, random_constant_vector
from multisymp import dynamics
from multisymp.algebra import Polynomial, RationalSampler
from multisymp.charts import (
    builtin_chart,
    ddw_chart,
    lepage_dedecker_chart,
    lepage_dedecker_split_chart,
    maxwell_chart,
    scalar_field_chart,
)
from multisymp.dynamics import (
    DegenerateSystem,
    NoSolutionInFamily,
    OFCounterexample,
    OFVerdict,
    OmegaContraction,
    _family_step_data,
    _linear_columns,
    annihilator_span,
    contraction_form,
    decomposable_pairing,
    frame_compatible_hamiltonian,
    hamiltonian_nvector_solve,
    observability_family,
    of_sampling_test,
    plucker_check,
    pseudofiber_directions,
    pseudofiber_integrand_check,
    recheck_of_counterexample,
    solver_family,
)
from multisymp.exterior import (
    DecomposableNVector,
    PolyForm,
    PolyMultivector,
    eval_terms,
    form_basis,
    hook,
    vector_basis,
)
from multisymp.exterior import _hook_terms, _pair_terms, _wedge_terms
from multisymp.linalg import RowBasis, nullspace

V_MASS = Polynomial(("s",), {(1,): Fraction(1)})


# -- the Hamilton solver ------------------------------------------------------


def test_point_mechanics_solution():
    """(t, q, e, p) with H = e + p^2/2: the solution is d_t + p d_q."""
    chart = lepage_dedecker_split_chart(1, 1)
    f = chart.frame
    h = f.poly_var("e") + Fraction(1, 2) * f.poly_var("p1_1") ** 2
    point = (Fraction(0), Fraction(1), Fraction(0), Fraction(3))
    sol = hamiltonian_nvector_solve(chart, h, point)
    assert sol.kernel == []
    assert sol.factors() == [{(0,): Fraction(1), (1,): Fraction(3)}]
    assert sol.verify()


def test_first_order_velocities_match_momentum_derivatives():
    chart = ddw_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(71)
    h = f.poly_var("e") + sampler.polynomial(
        f.names, max_degree=2, n_terms=5,
        restrict_to=[n for n in f.names if n not in ("e",)],
    )
    point = sampler.point(chart.dim)
    sol = hamiltonian_nvector_solve(chart, h, point)
    assert sol.verify()
    params = {(s, f.names[c]): i for i, (s, c) in enumerate(sol.family.params)}
    for mu in (1, 2):
        for i in (1, 2):
            got = sol.base_assignment[params[(mu - 1, f"y{i}")]]
            assert got == h.diff(f"p{mu}_{i}").eval(point)


def test_free_hamiltonian_has_kernel():
    chart = ddw_chart(2, 2)
    point = RationalSampler(5).point(chart.dim)
    sol = hamiltonian_nvector_solve(chart, chart.frame.poly_var("e"), point)
    assert len(sol.kernel) > 0
    assert sol.verify()
    # divergence family: the dual-momentum trace is fixed to zero
    f = chart.frame
    params = {(s, f.names[c]): i for i, (s, c) in enumerate(sol.family.params)}
    for i in (1, 2):
        trace = sum(sol.base_assignment[params[(mu - 1, f"p{mu}_{i}")]] for mu in (1, 2))
        assert trace == 0


def test_inconsistent_hamiltonian_raises():
    chart = ddw_chart(2, 2)
    point = RationalSampler(6).point(chart.dim)
    with pytest.raises(NoSolutionInFamily):
        hamiltonian_nvector_solve(chart, 2 * chart.frame.poly_var("e"), point)


def test_degenerate_horizontal_frame_rejected():
    from dataclasses import replace

    chart = ddw_chart(2, 2)
    broken = replace(chart, horizontal=("x1", "x1"))
    with pytest.raises(ValueError):
        solver_family(broken)


def test_solutions_on_all_charts_with_their_hamiltonians():
    sampler = RationalSampler(81)
    for chart in [maxwell_chart(), scalar_field_chart(2, V_MASS), scalar_field_chart(2, V_MASS, gauged=True)]:
        point = sampler.point(chart.dim)
        sol = hamiltonian_nvector_solve(chart, chart.hamiltonian, point)
        assert sol.verify(), chart.name


def test_frame_compatible_hamiltonians_solve_on_full_charts():
    chart = lepage_dedecker_chart(2, 2)
    for seed in range(4):
        sampler = RationalSampler(100 + seed)
        point = sampler.point(chart.dim)
        h = frame_compatible_hamiltonian(chart, sampler, point)
        sol = hamiltonian_nvector_solve(chart, h, point)
        assert sol.verify()


@pytest.mark.parametrize("label", ["maxwell", "scalar:3", "lepage-dedecker:2,2"])
def test_verify_by_iterated_hooks_agrees_with_the_expanded_contraction(label):
    """verify hooks the factors into Omega one at a time; on the solution,
    and with each base entry moved by one, it agrees with contracting the
    expanded n-vector.  A moved entry fails unless its unit vector is a
    kernel direction (a parameter no equation reads)."""
    from dataclasses import replace

    chart = builtin_chart(label)
    sampler = RationalSampler(91)
    point = sampler.point(chart.dim)
    h = chart.hamiltonian if chart.hamiltonian is not None else frame_compatible_hamiltonian(chart, sampler, point)
    sol = hamiltonian_nvector_solve(chart, h, point)

    def expanded_check(solution):
        return all(contraction_form(solution.expand(c), solution.omega_num) == solution.target
                   for c in solution.unit_moves())

    assert sol.verify() and expanded_check(sol)
    size = len(sol.base_assignment)
    detected = 0
    for index in range(size):
        unit = tuple(Fraction(int(i == index)) for i in range(size))
        moved = replace(sol, base_assignment=tuple(v + u for v, u in zip(sol.base_assignment, unit)))
        assert moved.verify() == expanded_check(moved)
        if unit not in sol.kernel:
            assert not moved.verify()
            detected += 1
    assert detected


# -- observability sampling -----------------------------------------------------


def test_volume_form_is_observable():
    chart = lepage_dedecker_chart(2, 2)
    point = RationalSampler(3).point(chart.dim)
    g_form = form_basis(chart.frame, "q2").scale(chart.frame.poly_var("q1"))
    from multisymp.exterior import ext_d

    verdict = of_sampling_test(chart, ext_d(g_form), point, seed=11)
    assert verdict.passed


def test_contraction_images_are_observable():
    """a = xi . Omega passes for 100 seeded random fields per chart."""
    for chart in [lepage_dedecker_chart(2, 2), ddw_chart(2, 2)]:
        sampler = RationalSampler(13)
        point = sampler.point(chart.dim)
        for trial in range(100):
            xi = random_constant_vector(chart.frame, sampler)
            verdict = of_sampling_test(chart, hook(xi, chart.omega), point, sample_count=2, seed=17 + trial)
            assert verdict.passed


def test_momentum_pair_fails_with_exact_counterexample():
    chart = lepage_dedecker_chart(2, 2)
    point = RationalSampler(19).point(chart.dim)
    bad = form_basis(chart.frame, "p13", "p24")
    verdict = of_sampling_test(chart, bad, point, seed=23)
    assert not verdict.passed
    assert verdict.counterexample is not None
    assert recheck_of_counterexample(chart, bad, point, verdict.counterexample)


def test_momentum_pair_with_horizontal_block_fails():
    """dq-block ^ dp_I ^ dp_J with no vertical dq: the free-monomial
    pattern of the non-observable directions (n = 3 here)."""
    chart = lepage_dedecker_chart(3, 1)
    f = chart.frame
    point = RationalSampler(29).point(chart.dim)
    bad = PolyMultivector  # appease linters; real value below
    bad = form_basis(f, "q1", "p134", "p234")
    verdict = of_sampling_test(chart, bad, point, seed=31)
    assert not verdict.passed


def test_omega_with_two_fiber_legs_is_not_affine():
    """A term dp ^ dp ^ dq makes the contraction quadratic in the family
    parameters, so a kernel move changes it and the sampler refuses."""
    from dataclasses import replace

    chart = lepage_dedecker_chart(2, 1)
    f = chart.frame
    bent = replace(
        chart,
        name="bent",
        omega=chart.omega + PolyForm.from_named(f, 3, [(["p12", "p13", "q3"], 1)]),
        theta=None,
    )
    point = RationalSampler(37).point(chart.dim)
    volume = form_basis(f, "q1", "q2")
    assert of_sampling_test(chart, volume, point, seed=41).passed
    with pytest.raises(DegenerateSystem, match="contraction is not affine on this family"):
        of_sampling_test(bent, volume, point, seed=41)


def _observability_families(chart):
    return [observability_family(chart, h) for h in combinations(chart.frame.base_indices(), chart.n)]


CLI_CORPUS_CHARTS = [
    "lepage-dedecker:3,3", "maxwell", "lepage-dedecker-split:3,3", "ddw:2,2",
    "lepage-dedecker:2,3", "lepage-dedecker-split:2,2", "ddw:3,2", "scalar:2",
    "lepage-dedecker:2,2", "scalar:2,gauged",
]


@pytest.mark.parametrize("label", CLI_CORPUS_CHARTS)
def test_cli_corpus_families_are_certified_affine(label):
    chart = builtin_chart(label)
    point = RationalSampler(53).point(chart.dim)
    omega = OmegaContraction(eval_terms(chart.omega.terms, point))
    assert all(omega.affine_on(family) for family in _observability_families(chart))


def _second_differences_vanish(family, omega_num, sampler, trials=3):
    """C(b+u+v) - C(b+u) - C(b+v) + C(b) == 0 at seeded b, u, v, with C
    the contraction of the expanded family member.  Identically zero
    exactly when C is affine, so a nonaffine C shows a nonzero value at
    generic points."""
    nparams = len(family.params)

    def c(*vectors):
        return contraction_form(family.expand([sum(vs) for vs in zip(*vectors)]), omega_num)

    def minus(x, y):
        return {k: x.get(k, 0) - y.get(k, 0) for k in set(x) | set(y)}

    for _ in range(trials):
        b, u, v = ([sampler.rational() for _ in range(nparams)] for _ in range(3))
        second = minus(minus(c(b, u, v), c(b, u)), minus(c(b, v), c(b)))
        if any(second.values()):
            return False
    return True


@pytest.mark.parametrize(
    "label, legs, broken_by",
    [
        ("lepage-dedecker:2,1", ["p12", "q1", "q2"], set()),  # one fiber leg
        ("lepage-dedecker:2,1", ["p12", "p13", "q1"], None),  # K - q1 = dp ^ dp
        ("lepage-dedecker:2,1", ["p12", "p13", "p23"], None),
        ("ddw:3,2", ["p1_1", "p2_1", "y1", "y2"], {"y1", "y2"}),
        ("ddw:3,2", ["p1_1", "p2_1", "e", "x1"], None),  # K - x1 has three fiber legs
    ],
)
def test_affinity_certificate_matches_second_differences(label, legs, broken_by):
    """The added term breaks every family (`broken_by` None) or exactly
    those whose horizontal set meets `broken_by`.  With n = 2, K - j has
    two legs, so a term breaks every family or none; with n = 3 a term
    with two fiber and two base legs breaks only the families that hold
    one of its base legs."""
    from dataclasses import replace

    chart = builtin_chart(label)
    f = chart.frame
    bent = replace(
        chart,
        name="bent",
        omega=chart.omega + PolyForm.from_named(f, chart.n + 1, [(legs, 1)]),
        theta=None,
    )
    sampler = RationalSampler(59)
    omega_num = eval_terms(bent.omega.terms, sampler.point(f.dim))
    omega = OmegaContraction(omega_num)
    for family in _observability_families(bent):
        affine = omega.affine_on(family)
        assert affine == _second_differences_vanish(family, omega_num, sampler)
        horizontal = {f.names[i] for i in family.horizontal}
        assert affine == (broken_by is not None and not broken_by & horizontal)


@pytest.mark.parametrize("label", ["maxwell", "ddw:3,2", "lepage-dedecker:2,3"])
def test_direct_columns_equal_probe_differences(label):
    """Column (slot, c) of the linear part equals C(e_(slot, c)) - C(0)."""
    chart = builtin_chart(label)
    point = RationalSampler(61).point(chart.dim)
    omega = OmegaContraction(eval_terms(chart.omega.terms, point))
    for family in _observability_families(chart):
        nparams = len(family.params)
        base = omega.of_factors(family.factors([Fraction(0)] * nparams))
        for j, column in enumerate(_linear_columns(family, omega)):
            probe = omega.of_factors(family.factors([Fraction(int(i == j)) for i in range(nparams)]))
            difference = {k: probe.get(k, 0) - base.get(k, 0) for k in set(probe) | set(base)}
            assert column == {k: v for k, v in difference.items() if v}


BUILTIN_LABELS = CLI_CORPUS_CHARTS + [
    "lepage-dedecker:1,1", "lepage-dedecker:2,1", "lepage-dedecker:3,1", "ddw:2,1", "scalar:3",
]


def _unit_factor_columns(family, omega):
    """The linear part as contractions of unit factors by minors: column
    (slot, c) is `of_factors` of the horizontal unit factors with the
    slot-th one replaced by e_c."""
    horizontal = [{(h,): Fraction(1)} for h in family.horizontal]
    return [
        omega.of_factors(horizontal[:slot] + [{(c,): Fraction(1)}] + horizontal[slot + 1 :])
        for slot, c in family.params
    ]


def _fresh_kernel(chart, family, omega):
    columns = _unit_factor_columns(family, omega)
    matrix = [[col.get((i,), Fraction(0)) for col in columns] for i in range(chart.dim)]
    return [tuple(v) for v in nullspace(matrix)]


@pytest.mark.parametrize("label", BUILTIN_LABELS)
def test_columns_read_off_omega_equal_the_unit_factor_contractions(label):
    """Equal values of equal types, in the same key order (the reprs)."""
    chart = builtin_chart(label)
    omega = OmegaContraction(eval_terms(chart.omega.terms, RationalSampler(67).point(chart.dim)))
    for family in _observability_families(chart):
        assert repr(_linear_columns(family, omega)) == repr(_unit_factor_columns(family, omega))


@pytest.mark.parametrize("label", ["maxwell", "ddw:3,2", "lepage-dedecker:2,3", "lepage-dedecker:1,1"])
def test_family_kernels_from_sparse_rows_equal_the_dense_nullspace(monkeypatch, label):
    """The kernel fed to the sampler from the sparse rows of each family's
    linear part is exactly the `nullspace` of its dense dim x params matrix.
    On lepage-dedecker:1,1 the rank is full before the last row."""
    monkeypatch.setattr(dynamics, "_FAMILY_CACHE", {})
    chart = builtin_chart(label)
    omega = OmegaContraction(eval_terms(chart.omega.terms, RationalSampler(71).point(chart.dim)))
    for family in _observability_families(chart):
        columns = _linear_columns(family, omega)
        matrix = [[col.get((i,), 0) for col in columns] for i in range(chart.dim)]
        kernel, _ = _family_step_data(chart, family, omega)
        assert kernel == [tuple(v) for v in nullspace(matrix)]


def test_family_kernels_are_shared_across_points_and_charts(monkeypatch):
    """Maxwell's Omega is constant: two charts built apart, at 16 points
    each, compute each of the 70 family kernels once, and a hit at a new
    point equals a fresh kernel there."""
    monkeypatch.setattr(dynamics, "_FAMILY_CACHE", {})
    sampler = RationalSampler(83)
    for chart in (builtin_chart("maxwell"), builtin_chart("maxwell")):
        families = _observability_families(chart)
        for _ in range(16):
            omega = OmegaContraction(eval_terms(chart.omega.terms, sampler.point(chart.dim)))
            for family in families:
                _family_step_data(chart, family, omega)
    assert len(families) == len(dynamics._FAMILY_CACHE) == 70
    omega = OmegaContraction(eval_terms(chart.omega.terms, sampler.point(chart.dim)))
    for family in families:
        assert _family_step_data(chart, family, omega) == (_fresh_kernel(chart, family, omega), omega.affine_on(family))
    assert len(dynamics._FAMILY_CACHE) == 70


def test_family_kernels_follow_a_non_constant_omega(monkeypatch):
    """Omega scaled by 1 + q1: points with different q1 evaluate it
    differently and get their own entries; a point with the same q1 but
    other coordinates changed hits."""
    from dataclasses import replace

    monkeypatch.setattr(dynamics, "_FAMILY_CACHE", {})
    chart = builtin_chart("lepage-dedecker:2,2")
    f = chart.frame
    scaled = replace(chart, name="scaled", omega=chart.omega.scale(f.poly_const(1) + f.poly_var("q1")), theta=None)
    families = _observability_families(scaled)
    q1 = f.index("q1")
    base = RationalSampler(89).point(f.dim)
    moved = tuple(v + 1 for v in base)
    same_q1 = tuple(base[q1] if i == q1 else v for i, v in enumerate(moved))
    sizes = []
    for point in (base, moved, same_q1):
        omega = OmegaContraction(eval_terms(scaled.omega.terms, point))
        for family in families:
            assert _family_step_data(scaled, family, omega) == (
                _fresh_kernel(scaled, family, omega), omega.affine_on(family)
            )
        sizes.append(len(dynamics._FAMILY_CACHE))
    assert sizes == [len(families), 2 * len(families), 2 * len(families)]


def test_a_full_family_cache_is_cleared_before_the_next_insert(monkeypatch):
    """Every miss grows the cache or resets it to one entry, so a miss never
    leaves its length unchanged."""
    monkeypatch.setattr(dynamics, "_FAMILY_CACHE", {})
    monkeypatch.setattr(dynamics, "_CACHE_LIMIT", 3)
    chart = builtin_chart("lepage-dedecker:2,3")
    omega = OmegaContraction(eval_terms(chart.omega.terms, RationalSampler(97).point(chart.dim)))
    families = _observability_families(chart)[:5]
    sizes = []
    for family in families:
        _family_step_data(chart, family, omega)
        sizes.append(len(dynamics._FAMILY_CACHE))
    assert sizes == [1, 2, 3, 1, 2]
    assert [key[1] for key in dynamics._FAMILY_CACHE] == [family.horizontal for family in families[3:]]


def _full_factor_sampler(chart, a, point, sample_count, seed):
    """The sampler loop as it was before pairings were restricted to the
    form's support: every sample builds the full factors and evaluates
    both pairings."""
    point = tuple(Fraction(v) for v in point)
    omega = OmegaContraction(eval_terms(chart.omega.terms, point))
    a_num = eval_terms(a.terms, point)
    sampler = RationalSampler(seed)
    names = chart.frame.names
    samples_used = 0
    for horizontal in combinations(chart.frame.base_indices(), chart.n):
        family = observability_family(chart, horizontal)
        nparams = len(family.params)
        kernel, affine = _family_step_data(chart, family, omega)
        if not kernel:
            continue
        if not affine:
            raise DegenerateSystem("contraction is not affine on this family")
        for _ in range(sample_count):
            base_params = tuple(sampler.rational() for _ in range(nparams))
            value = decomposable_pairing(family.factors(base_params), [a_num])[0]
            directions = list(kernel)
            if len(kernel) > 1:
                mix = [Fraction(0)] * nparams
                for vec in kernel:
                    c = sampler.rational()
                    mix = [m + c * v if v else m for m, v in zip(mix, vec)]
                directions.append(tuple(mix))
            for direction in directions:
                scale = sampler.nonzero()
                perturbed = tuple(b + scale * d if d else b for b, d in zip(base_params, direction))
                samples_used += 1
                value_perturbed = decomposable_pairing(family.factors(perturbed), [a_num])[0]
                if value_perturbed != value:
                    counterexample = OFCounterexample(
                        tuple(names[i] for i in horizontal), base_params, tuple(direction),
                        scale, value, value_perturbed,
                    )
                    return OFVerdict(False, samples_used, counterexample, point)
    return OFVerdict(True, samples_used)


@pytest.mark.parametrize("label", CLI_CORPUS_CHARTS)
def test_support_restricted_sampler_matches_full_factors(label):
    """Same verdict, sample count, counterexample and failed point as the
    full-factor `Fraction` loop, byte for byte (the reprs show every value's
    type), on the volume form and candidates of all four kinds; on the
    audit charts, at the audit's sample count on 20 seeded points."""
    chart = builtin_chart(label)
    audit = label.startswith("lepage-dedecker:2,")
    sample_count = 5 if audit else 2
    outcomes = set()
    trial = 0
    for offset in range(20 if audit else 1):
        sampler = RationalSampler(71 + offset)
        point = sampler.point(chart.dim)
        forms = [chart.volume_form()] + [random_aof_like_candidate(chart, sampler, kind) for kind in range(4)]
        for form in forms:
            if not form:
                continue
            verdict = of_sampling_test(chart, form, point, sample_count=sample_count, seed=trial)
            assert repr(verdict) == repr(_full_factor_sampler(chart, form, point, sample_count, trial))
            outcomes.add(verdict.passed)
            if not verdict.passed:
                assert recheck_of_counterexample(chart, form, point, verdict.counterexample)
            trial += 1
    assert outcomes == {True, False}


def test_a_counterexample_on_the_mixed_direction_carries_the_full_mix(monkeypatch):
    """No seeded candidate fails first on the mixed kernel direction, so an
    observable form is made to fail there: the sampler's pairing on that
    direction is negated.  The integer factors it pairs are those of
    base + scale * mix scaled by one denominator, and the counterexample
    carries sum_i c_i kernel_i in `Fraction`s and the values the full
    `Fraction` factors give, at the base and (negated) at the perturbation."""
    chart = builtin_chart("lepage-dedecker:2,2")
    sampler = RationalSampler(300)
    point = tuple(sampler.point(chart.dim))
    form = hook(random_constant_vector(chart.frame, sampler), chart.omega)
    a_num = eval_terms(form.terms, point)
    horizontal = next(combinations(chart.frame.base_indices(), chart.n))
    family = observability_family(chart, horizontal)
    kernel, _ = _family_step_data(chart, family, OmegaContraction(eval_terms(chart.omega.terms, point)))
    # the draws of the first sample, in the sampler's order
    draws = RationalSampler(0)
    base_params = tuple(draws.rational() for _ in family.params)
    coeffs = [draws.rational() for _ in kernel]
    scale = [draws.nonzero() for _ in range(len(kernel) + 1)][-1]
    mix = tuple(sum((c * v for c, v in zip(coeffs, column)), Fraction(0)) for column in zip(*kernel))
    value = decomposable_pairing(family.factors(base_params), [a_num])[0]
    perturbed = [b + scale * d for b, d in zip(base_params, mix)]
    # every parameter is active and every direction moves, so the sample
    # pairs the base, each kernel direction and then the mix
    assert set().union(*a_num) >= set(family.free)
    assert len(kernel) > 1 and all(any(vec) for vec in kernel) and any(mix)
    assert decomposable_pairing(family.factors(perturbed), [a_num])[0] == value != 0

    real = dynamics.decomposable_pairing
    calls = []

    def negate_the_mixed_pairing(factors, forms):
        calls.append(factors)
        result = real(factors, forms)
        return [-value for value in result] if len(calls) == len(kernel) + 2 else result

    monkeypatch.setattr(dynamics, "decomposable_pairing", negate_the_mixed_pairing)
    verdict = of_sampling_test(chart, form, point, sample_count=1, seed=0)
    assert len(calls) == len(kernel) + 2
    unscaled = [{key: Fraction(v, factor[(h,)]) for key, v in factor.items()} for h, factor in zip(horizontal, calls[-1])]
    assert unscaled == family.factors(perturbed)
    names = tuple(chart.frame.names[i] for i in horizontal)
    expected = OFVerdict(False, len(kernel) + 1, OFCounterexample(names, base_params, mix, scale, value, -value), point)
    assert repr(verdict) == repr(expected)
    assert all(type(v) is Fraction for v in verdict.counterexample.kernel_direction)


# -- decomposability identities ---------------------------------------------------


def _random_decomposable(chart, sampler):
    frame = chart.frame
    factors = []
    for _ in range(chart.n):
        terms = {}
        for j in range(frame.dim):
            v = sampler.rational()
            if v:
                terms[(j,)] = frame.poly_const(v)
        factors.append(PolyMultivector(frame, 1, terms))
    return DecomposableNVector(tuple(factors))


def test_plucker_identity_sampled():
    """100 random decomposables per first-order chart shape."""
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        chart = ddw_chart(n, k)
        sampler = RationalSampler(41 + n + k)
        checked = 0
        while checked < 100:
            x = _random_decomposable(chart, sampler)
            degenerate = False
            for p in range(1, n + 1):
                verdict = plucker_check(chart, x, p)
                if verdict.skipped_degenerate:
                    degenerate = True
                    break
                assert verdict.passed, (n, k, p)
            if not degenerate:
                checked += 1


def test_plucker_scaling_invariance():
    chart = ddw_chart(2, 2)
    sampler = RationalSampler(43)
    x = _random_decomposable(chart, sampler)
    scaled = DecomposableNVector((x.factors[0].scale(3), x.factors[1]))
    for p in (1, 2):
        assert plucker_check(chart, x, p).passed == plucker_check(chart, scaled, p).passed


def test_plucker_degenerate_skip():
    chart = ddw_chart(2, 2)
    f = chart.frame
    x = DecomposableNVector((vector_basis(f, "y1"), vector_basis(f, "y2")))
    assert plucker_check(chart, x, 2).skipped_degenerate


# -- pseudofiber directions -------------------------------------------------------


def test_pseudofiber_zero_for_point_mechanics():
    chart = lepage_dedecker_chart(1, 1)
    f = chart.frame
    h = f.poly_var("p1") + Fraction(1, 2) * f.poly_var("p2") ** 2
    sol = hamiltonian_nvector_solve(chart, h, RationalSampler(4).point(4))
    assert pseudofiber_directions(chart, sol) == []


def test_pseudofiber_verticality_and_doubling():
    chart = lepage_dedecker_chart(2, 2)
    n_positions = 4
    for seed in (1, 2, 3):
        sampler = RationalSampler(seed)
        point = sampler.point(chart.dim)
        h = frame_compatible_hamiltonian(chart, sampler, point, vertical_only=True)
        sol = hamiltonian_nvector_solve(chart, h, point)
        basis = pseudofiber_directions(chart, sol)
        doubled = pseudofiber_directions(chart, sol, doubled=True)
        assert annihilator_span(basis) == annihilator_span(doubled)
        for vec in basis:
            assert all(vec[i] == 0 for i in range(n_positions))


def reference_pseudofiber_directions(chart, solution, doubled):
    """The expand-then-pair row builder: the row of a slot deformation
    delta = e_c ^ (other factors) has entries <delta, e_j . Omega>."""
    columns = [_hook_terms({(j,): Fraction(1)}, solution.omega_num) for j in range(chart.dim)]
    basis = RowBasis(chart.dim)
    for coeffs in dynamics._representative_schedule(len(solution.kernel), doubled):
        factors = solution.factors(coeffs)
        for slot in range(chart.n):
            for c in range(chart.dim):
                delta = {(c,): Fraction(1)}
                for other in factors[:slot] + factors[slot + 1 :]:
                    delta = _wedge_terms(delta, other)
                row = [_pair_terms(delta, col) or Fraction(0) for col in columns]
                if any(row):
                    basis.add(row)
    return [tuple(v) for v in basis.nullspace()]


@pytest.mark.parametrize("label", ["lepage-dedecker:2,2", "scalar:2"])
def test_pseudofiber_directions_match_the_wedge_and_pair_rows(label):
    """Rows from minors are (-1)^n times the expanded rows, so the RREF
    nullspace is the same, exactly and in the same order."""
    chart = builtin_chart(label)
    found = 0
    for seed in (1, 2, 3, 47):
        sampler = RationalSampler(seed)
        point = sampler.point(chart.dim)
        h = frame_compatible_hamiltonian(chart, sampler, point, vertical_only=True)
        sol = hamiltonian_nvector_solve(chart, h, point)
        for doubled in (False, True):
            directions = pseudofiber_directions(chart, sol, doubled=doubled)
            assert directions == reference_pseudofiber_directions(chart, sol, doubled)
            found += len(directions)
    assert found or label == "scalar:2"


@pytest.mark.parametrize("doubled", [False, True])
@pytest.mark.parametrize("vertical_only", [True, False])
def test_pseudofiber_directions_add_each_distinct_row_once(monkeypatch, doubled, vertical_only):
    """Also the reference on a Hamiltonian that is not vertical-only:
    there a wrong sign in the rows changes the directions, which on the
    vertical-only Hamiltonians of the test above it does not."""
    chart = lepage_dedecker_chart(2, 2)
    sampler = RationalSampler(47)
    point = sampler.point(chart.dim)
    h = frame_compatible_hamiltonian(chart, sampler, point, vertical_only=vertical_only)
    sol = hamiltonian_nvector_solve(chart, h, point)
    expected = reference_pseudofiber_directions(chart, sol, doubled)
    added = []
    add = RowBasis.add

    def recording(self, row):
        added.append(tuple(row))
        return add(self, row)

    monkeypatch.setattr(RowBasis, "add", recording)
    directions = pseudofiber_directions(chart, sol, doubled=doubled)
    monkeypatch.undo()
    assert directions == expected and directions
    assert added and len(added) == len(set(added))


def test_pseudofiber_integrand_vanishes():
    chart = lepage_dedecker_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(47)
    point = sampler.point(chart.dim)
    h = frame_compatible_hamiltonian(chart, sampler, point, vertical_only=True)
    sol = hamiltonian_nvector_solve(chart, h, point)
    directions = pseudofiber_directions(chart, sol)
    assert directions  # this chart has a genuine pseudofiber direction
    observable = hook(random_constant_vector(f, sampler), chart.theta)
    for zeta in directions:
        # vertical directions annihilate theta, hence the observable
        zeta_vec = PolyMultivector(f, 1, {(i,): f.poly_const(v) for i, v in enumerate(zeta) if v})
        assert not hook(zeta_vec, chart.theta)
        assert not hook(zeta_vec, observable)
        assert pseudofiber_integrand_check(chart, observable, zeta, sol)
    # zeta = 0 trivially passes
    assert pseudofiber_integrand_check(chart, observable, [Fraction(0)] * chart.dim, sol)


def test_pseudofiber_on_scalar_chart():
    """On the first-order scalar chart the decomposable-cone tangent spaces
    already contract onto everything: the common annihilator is trivial
    and the integrand check holds trivially (and for every vector it is
    asked about)."""
    chart = scalar_field_chart(2, Polynomial(("s",), {(1,): Fraction(1)}))
    sampler = RationalSampler(97)
    point = sampler.point(chart.dim)
    sol = hamiltonian_nvector_solve(chart, chart.hamiltonian, point)
    directions = pseudofiber_directions(chart, sol)
    from multisymp.observables import charge_current_form

    observable = charge_current_form(chart)
    for zeta in directions + [[Fraction(0)] * chart.dim]:
        assert pseudofiber_integrand_check(chart, observable, zeta, sol)


def test_pseudofiber_integrand_requires_hamilton_field():
    chart = ddw_chart(2, 2)
    f = chart.frame
    sampler = RationalSampler(53)
    point = sampler.point(chart.dim)
    sol = hamiltonian_nvector_solve(chart, f.poly_var("e"), point)
    witness = form_basis(f, "y2").scale(f.poly_var("y1"))  # not algebraically observable
    with pytest.raises(ValueError):
        pseudofiber_integrand_check(chart, witness, [Fraction(0)] * chart.dim, sol)


def test_base_solution_volume_normalization():
    """omega(X) = 1 for the base solution: the scalar bracket with the
    volume primitive is 1."""
    for chart in [lepage_dedecker_split_chart(2, 1), lepage_dedecker_split_chart(2, 2)]:
        sampler = RationalSampler(59)
        point = sampler.point(chart.dim)
        h = frame_compatible_hamiltonian(chart, sampler, point)
        sol = hamiltonian_nvector_solve(chart, h, point)
        value = _pair_terms(sol.expand(), eval_terms(chart.volume_form().terms, point))
        assert value == 1
