from fractions import Fraction
from itertools import combinations, product
from math import lcm

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
        return all(contraction_form(solution.family.expand(solution.assignment(c)), solution.omega_num) == solution.target
                   for c in list(solution.representatives())[: 1 + len(solution.kernel)])

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


def test_omega_with_two_fiber_legs_is_not_affine(monkeypatch):
    """A term dp ^ dp ^ dq makes the contraction quadratic in the family
    parameters, so a kernel move changes it and the sampler refuses.  The
    volume form reads base columns only, so no family is live and the
    refusal is reached in the stretch that draws nothing: it still comes,
    in family order, with no draw before it."""
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
    liveness = _family_liveness(bent, volume, point)
    assert not any(live for _, _, live in liveness)
    assert any(kernel and not affine for kernel, affine, _ in liveness)
    draws = _count_draws(monkeypatch)
    with pytest.raises(DegenerateSystem, match="contraction is not affine on this family"):
        of_sampling_test(bent, volume, point, seed=41)
    assert draws == [0]
    with pytest.raises(DegenerateSystem, match="contraction is not affine on this family"):
        _full_factor_sampler(bent, volume, point, 4, 41)


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


BENT_TERMS = [
    ("lepage-dedecker:2,1", ["p12", "q1", "q2"], set()),  # one fiber leg
    ("lepage-dedecker:2,1", ["p12", "p13", "q1"], None),  # K - q1 = dp ^ dp
    ("lepage-dedecker:2,1", ["p12", "p13", "p23"], None),
    ("ddw:3,2", ["p1_1", "p2_1", "y1", "y2"], {"y1", "y2"}),
    ("ddw:3,2", ["p1_1", "p2_1", "e", "x1"], None),  # K - x1 has three fiber legs
]


def _bent_chart(label, legs):
    """The built-in chart with the unit (n+1)-form term on `legs` added to Omega."""
    from dataclasses import replace

    chart = builtin_chart(label)
    term = PolyForm.from_named(chart.frame, chart.n + 1, [(legs, 1)])
    return replace(chart, name="bent", omega=chart.omega + term, theta=None)


@pytest.mark.parametrize("label, legs, broken_by", BENT_TERMS)
def test_affinity_certificate_matches_second_differences(label, legs, broken_by):
    """The added term breaks every family (`broken_by` None) or exactly
    those whose horizontal set meets `broken_by`.  With n = 2, K - j has
    two legs, so a term breaks every family or none; with n = 3 a term
    with two fiber and two base legs breaks only the families that hold
    one of its base legs."""
    bent = _bent_chart(label, legs)
    f = bent.frame
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


def _plan_scan_affine(omega, family):
    """`OmegaContraction.affine_on` as a scan of the whole plan: some term
    with two or more free legs and all its other legs horizontal breaks
    affinity."""
    horizontal, free = set(family.horizontal), set(family.free)
    for entries in omega.plan.values():
        for rest in entries:
            if sum(c in free for c in rest) >= 2 and all(c in free or c in horizontal for c in rest):
                return False
    return True


@pytest.mark.parametrize(
    "chart",
    [pytest.param(label, id=label) for label in BUILTIN_LABELS]
    + [pytest.param((label, legs), id=f"bent-{label}-{'-'.join(legs)}") for label, legs, _ in BENT_TERMS],
)
def test_affinity_index_is_kept_per_free_set(chart):
    """One Omega judges families with two `free` tuples, the solver
    family's (every coordinate off its horizontal legs) first and last and
    the observability families' (the fiber) between, each as the plan scan
    does.  The plan inverted by n-subset holds every plan entry once, with
    its j in plan order."""
    chart = builtin_chart(chart) if isinstance(chart, str) else _bent_chart(*chart)
    omega = OmegaContraction(eval_terms(chart.omega.terms, RationalSampler(101).point(chart.dim)))
    families = [solver_family(chart)] + _observability_families(chart) + [solver_family(chart)]
    assert [omega.affine_on(family) for family in families] == [_plan_scan_affine(omega, f) for f in families]
    inverted = [(j, rest, v) for rest, entries in omega.by_subset.items() for (j,), v in entries.items()]
    assert sorted(inverted) == sorted((j, rest, v) for j, entries in omega.plan.items() for rest, v in entries.items())
    for rest, entries in omega.by_subset.items():
        assert [j for (j,) in entries] == [j for j, plan_entries in omega.plan.items() if rest in plan_entries]


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
    On lepage-dedecker:1,1 the rank is full before the last row.  The
    integer kernel kept with it is the same vectors as numerators over
    their least common denominator."""
    monkeypatch.setattr(dynamics, "_FAMILY_CACHE", {})
    chart = builtin_chart(label)
    omega = OmegaContraction(eval_terms(chart.omega.terms, RationalSampler(71).point(chart.dim)))
    for family in _observability_families(chart):
        columns = _linear_columns(family, omega)
        matrix = [[col.get((i,), 0) for col in columns] for i in range(chart.dim)]
        step = _family_step_data(chart, family, omega)
        kernel = step.kernel
        assert kernel == [tuple(v) for v in nullspace(matrix)]
        den, numerators = step.integer_kernel
        assert [tuple(Fraction(v, den) for v in vec) for vec in numerators] == kernel
        assert all(type(v) is int for vec in numerators for v in vec)
        assert den == lcm(*(v.denominator for vec in kernel for v in vec))


@pytest.mark.parametrize("label", BUILTIN_LABELS)
def test_observability_families_read_the_frames_fiber_split_once(label):
    """A frame's base and fiber indices are computed once, when it is built,
    and every observability family is the one the per-coordinate test
    `kind.is_fiber` gives."""
    chart = builtin_chart(label)
    frame = chart.frame
    fiber = tuple(i for i, (_, kind) in enumerate(frame.coords) if kind.is_fiber)
    base = tuple(i for i, (_, kind) in enumerate(frame.coords) if not kind.is_fiber)
    assert frame.fiber_indices() is frame.fiber_indices() and frame.fiber_indices() == fiber
    assert frame.base_indices() is frame.base_indices() and frame.base_indices() == base
    assert _observability_families(chart) == [
        dynamics.VerticalFamily(horizontal, fiber) for horizontal in combinations(base, chart.n)
    ]


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
        step = _family_step_data(chart, family, omega)
        assert (step.kernel, step.affine) == (_fresh_kernel(chart, family, omega), omega.affine_on(family))
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
            step = _family_step_data(scaled, family, omega)
            assert (step.kernel, step.affine) == (_fresh_kernel(scaled, family, omega), omega.affine_on(family))
        sizes.append(len(dynamics._FAMILY_CACHE))
    assert sizes == [len(families), 2 * len(families), 2 * len(families)]


def _record_omegas(monkeypatch, module, seen):
    """Append the `OmegaContraction` of every `_family_step_data` call made
    through `module` to `seen`."""
    real = module._family_step_data

    def recording(chart, family, omega):
        seen.append(omega)
        return real(chart, family, omega)

    monkeypatch.setattr(module, "_family_step_data", recording)


def test_a_constant_omega_is_contracted_once_per_chart(monkeypatch, tmp_path):
    """A chart with constant Omega keeps one `OmegaContraction`: the same
    object at every point, and the one that `load_observable` walks the
    families with and the sampler reads at each point of `observable`
    (y1 dy2 on ddw:2,2 has no Hamilton field and passes, so both of its
    points are sampled).  A chart built apart builds its own."""
    from multisymp import cli, observables

    chart = builtin_chart("ddw:2,2")
    sampler = RationalSampler(107)
    form = hook(random_constant_vector(chart.frame, sampler), chart.omega)
    loaded, sampled, points = [], [], []
    _record_omegas(monkeypatch, dynamics, sampled)
    for _ in range(2):
        assert of_sampling_test(chart, form, sampler.point(chart.dim), sample_count=1, seed=1).passed
    assert sampled and all(omega is chart.omega_contraction for omega in sampled)
    other = builtin_chart("ddw:2,2").omega_contraction
    assert other is not chart.omega_contraction and other.key == chart.omega_contraction.key

    sampled.clear()
    _record_omegas(monkeypatch, cli, loaded)
    real_test = observables.of_sampling_test

    def recording_points(chart, a, point, **kwargs):
        points.append(tuple(point))
        return real_test(chart, a, point, **kwargs)

    monkeypatch.setattr(observables, "of_sampling_test", recording_points)
    form = '{"degree": 1, "terms": [{"indices": ["y2"], "coeff": "y1"}]}'
    argv = ["observable", "ddw:2,2", "--form", form, "--points", "2", "--samples", "2",
            "--output", str(tmp_path / "r.json")]
    assert cli.main(argv) == 1  # the aof check fails, the of check passes
    assert len(set(points)) == 2 and loaded and sampled
    assert all(seen is loaded[0] for seen in loaded + sampled)


def test_a_non_constant_omega_is_evaluated_at_each_point(monkeypatch):
    """Omega scaled by 1 + q1 is kept by no chart: each sampler call
    evaluates it at its own point, and the verdicts stay the full-factor
    loop's."""
    from dataclasses import replace

    chart = builtin_chart("lepage-dedecker:2,2")
    f = chart.frame
    scaled = replace(chart, name="scaled", omega=chart.omega.scale(f.poly_const(1) + f.poly_var("q1")), theta=None)
    assert scaled.omega_contraction is None
    sampler = RationalSampler(109)
    seen = []
    _record_omegas(monkeypatch, dynamics, seen)
    omegas, outcomes = [], set()
    for trial in range(4):
        point = sampler.point(f.dim)
        form = random_aof_like_candidate(chart, sampler, trial)
        seen.clear()
        verdict = of_sampling_test(scaled, form, point, sample_count=2, seed=trial)
        assert all(omega is seen[0] for omega in seen)
        assert seen[0].key == frozenset(eval_terms(scaled.omega.terms, point).items())
        omegas.append(seen[0])
        outcomes.add(verdict.passed)
        assert repr(verdict) == repr(_full_factor_sampler(scaled, form, point, 2, trial))
    assert len({id(omega) for omega in omegas}) == len({omega.key for omega in omegas}) == 4
    assert outcomes == {True, False}


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
        step = _family_step_data(chart, family, omega)
        kernel, affine = step.kernel, step.affine
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


def _count_draws(monkeypatch):
    """Count every `RationalSampler.rational` and `RationalSampler.sixths`
    call (`nonzero` draws through `rational`) from now on, in a
    one-element list: the sampler draws sixths, the full-factor loop and
    the replays rationals."""
    draws = [0]

    def counting(real):
        def counted(self):
            draws[0] += 1
            return real(self)

        return counted

    monkeypatch.setattr(RationalSampler, "rational", counting(RationalSampler.rational))
    monkeypatch.setattr(RationalSampler, "sixths", counting(RationalSampler.sixths))
    return draws


def _family_liveness(chart, a, point):
    """(kernel, affine, live) per observability family in `combinations`
    order: live when a kernel vector is nonzero on a parameter (slot, c)
    with c in the support of the evaluated form."""
    point = tuple(Fraction(v) for v in point)
    omega = OmegaContraction(eval_terms(chart.omega.terms, point))
    support = set().union(*eval_terms(a.terms, point))
    out = []
    for family in _observability_families(chart):
        step = _family_step_data(chart, family, omega)
        kernel, affine = step.kernel, step.affine
        active = [pos for pos, (_, c) in enumerate(family.params) if c in support]
        out.append((kernel, affine, any(vec[pos] for vec in kernel for pos in active)))
    return out


def test_the_maxwell_volume_form_draws_nothing(monkeypatch):
    """The volume form reads base columns only and every kernel vector
    lives on fiber parameters, so no Maxwell family is live: the sampler
    draws nothing, builds no integer kernel, counts every sample it would
    have drawn, and gives the full-factor loop's verdict."""
    monkeypatch.setattr(dynamics, "_FAMILY_CACHE", {})
    chart = maxwell_chart()
    point = RationalSampler(83).point(chart.dim)
    volume = chart.volume_form()
    liveness = _family_liveness(chart, volume, point)
    assert len(liveness) == 70 and not any(live for _, _, live in liveness)
    draws = _count_draws(monkeypatch)
    verdict = of_sampling_test(chart, volume, point, sample_count=3, seed=5)
    assert draws == [0]
    assert len(dynamics._FAMILY_CACHE) == 70
    assert not any("integer_kernel" in vars(step) for step in dynamics._FAMILY_CACHE.values())
    assert verdict.passed
    assert verdict.samples_used == sum(3 * (len(kernel) + (len(kernel) > 1)) for kernel, _, _ in liveness) > 0
    assert repr(verdict) == repr(_full_factor_sampler(chart, volume, point, 3, 5))
    assert draws[0] > 0


def test_no_draws_after_the_last_live_family(monkeypatch):
    """A passing candidate on the gauged scalar chart has dead families
    before its last live one, which still draw, and a dead family with a
    kernel after it, which does not.  The draws made are exactly those of
    the schedule replayed up to the last live family."""
    chart = builtin_chart("scalar:2,gauged")
    sampler = RationalSampler(1026)
    point = sampler.point(chart.dim)
    form = random_aof_like_candidate(chart, sampler)
    liveness = _family_liveness(chart, form, point)
    last_live = max(i for i, (_, _, live) in enumerate(liveness) if live)
    assert any(kernel and not live for kernel, _, live in liveness[:last_live])
    assert any(kernel for kernel, _, _ in liveness[last_live + 1 :])

    draws = _count_draws(monkeypatch)
    verdict = of_sampling_test(chart, form, point, sample_count=3, seed=7)
    drawn = draws[0]
    assert verdict.passed

    draws[0] = 0
    replay = RationalSampler(7)
    for family, (kernel, _, _) in zip(_observability_families(chart)[: last_live + 1], liveness):
        if not kernel:
            continue
        for _ in range(3):
            for _ in family.params:
                replay.rational()
            if len(kernel) > 1:
                for _ in kernel:
                    replay.rational()
            for _ in range(len(kernel) + (len(kernel) > 1)):
                replay.nonzero()
    assert drawn == draws[0]

    draws[0] = 0
    assert repr(verdict) == repr(_full_factor_sampler(chart, form, point, 3, 7))
    assert draws[0] > drawn


@pytest.mark.parametrize("bent", [False, True], ids=["ddw:3,2", "bent"])
def test_an_early_counterexample_wins_over_later_families(bent):
    """A candidate that fails on the first family of ddw:3,2, where later
    families are live too, returns that family's counterexample; on a
    chart whose later families are not affine it is returned before the
    refusal those families would raise.  Both as the full-factor loop."""
    from dataclasses import replace

    plain = builtin_chart("ddw:3,2")
    chart = plain
    if bent:
        legs = PolyForm.from_named(plain.frame, 4, [(["p1_1", "p2_1", "y1", "y2"], 1)])
        chart = replace(plain, name="bent", omega=plain.omega + legs, theta=None)
    sampler = RationalSampler(2002)
    point = sampler.point(chart.dim)
    form = random_aof_like_candidate(plain, sampler)
    liveness = _family_liveness(chart, form, point)
    assert liveness[0][2] and any(live for _, _, live in liveness[1:])
    assert all(affine for _, affine, _ in liveness) != bent
    verdict = of_sampling_test(chart, form, point, seed=3)
    assert not verdict.passed
    assert verdict.counterexample.family_horizontal == ("x1", "x2", "x3")
    assert repr(verdict) == repr(_full_factor_sampler(chart, form, point, 4, 3))
    assert recheck_of_counterexample(chart, form, point, verdict.counterexample)


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
    observable form is made to fail there: the sampler's integer evaluation
    of the family's pairing polynomial on that direction is negated.  The point it
    evaluates at is base + scale * mix scaled by one denominator, and the
    counterexample carries sum_i c_i kernel_i in `Fraction`s and the values
    the full `Fraction` factors give, at the base and (negated) at the
    perturbation."""
    chart = builtin_chart("lepage-dedecker:2,2")
    sampler = RationalSampler(300)
    point = tuple(sampler.point(chart.dim))
    form = hook(random_constant_vector(chart.frame, sampler), chart.omega)
    a_num = eval_terms(form.terms, point)
    horizontal = next(combinations(chart.frame.base_indices(), chart.n))
    family = observability_family(chart, horizontal)
    kernel = _family_step_data(chart, family, OmegaContraction(eval_terms(chart.omega.terms, point))).kernel
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

    real = dynamics._pairing_polynomial
    calls = []

    class NegateTheMixedValue:
        def __init__(self, *args):
            self.poly = real(*args)
            self._den = self.poly._den

        def eval_numerator(self, at):
            calls.append(at)
            result = self.poly.eval_numerator(at)
            return -result if len(calls) == len(kernel) + 2 else result

    monkeypatch.setattr(dynamics, "_pairing_polynomial", NegateTheMixedValue)
    verdict = of_sampling_test(chart, form, point, sample_count=1, seed=0)
    assert len(calls) == len(kernel) + 2
    den, *nums = calls[-1]
    assert [Fraction(v, den) for v in nums] == perturbed
    names = tuple(chart.frame.names[i] for i in horizontal)
    expected = OFVerdict(False, len(kernel) + 1, OFCounterexample(names, base_params, mix, scale, value, -value), point)
    assert repr(verdict) == repr(expected)
    assert all(type(v) is Fraction for v in verdict.counterexample.kernel_direction)


def _half_chart():
    """lepage-dedecker:1,1 with Omega cut to dp1 ^ dq1.  On a nondegenerate
    n = 1 chart the linear part of every family is injective, so no family
    has a kernel; this degenerate one has the direction along p2 in both."""
    from dataclasses import replace

    chart = builtin_chart("lepage-dedecker:1,1")
    return replace(chart, name="half", omega=PolyForm.from_named(chart.frame, 2, [(["p1", "q1"], 1)]), theta=None)


def _pairing_case(name):
    """(chart, form, point, sample_count, seed, passed, live families
    visited) of one pairing-polynomial case."""
    if name == "maxwell-passes" or name == "maxwell-fails":
        chart = maxwell_chart()
        sampler = RationalSampler(501)
        point = sampler.point(chart.dim)
        passing = random_aof_like_candidate(chart, sampler, 0)
        failing = random_aof_like_candidate(chart, sampler, 3)
        if name == "maxwell-passes":
            return chart, passing, point, 2, 1, True, 70
        return chart, failing, point, 2, 1, False, 3
    if name.startswith("n1"):
        chart = _half_chart()
        f = chart.frame
        point = RationalSampler(7).point(f.dim)
        if name == "n1-fails":
            return chart, form_basis(f, "p2"), point, 3, 2, False, 1
        return chart, form_basis(f, "p1") + form_basis(f, "q2").scale(f.poly_var("p2")), point, 3, 2, True, 0
    chart = builtin_chart("lepage-dedecker:2,2")
    f = chart.frame
    point = RationalSampler(300).point(f.dim)
    if name == "base-draw-zero":  # seed 63 draws 0 for both p13 parameters of (q1, q2) first
        return chart, form_basis(f, "q1", "p13"), point, 2, 63, False, 1
    if name == "horizontal-not-held":
        return chart, form_basis(f, "p12", "p34"), point, 2, 0, False, 1
    if name == "zero-polynomial":  # (q1, q2) is live, but its factors have no q3 entry
        return chart, form_basis(f, "q3", "p34"), point, 2, 1, False, 2
    assert name == "zero-at-point"
    vanishing = f.poly_var("q1") - point[f.index("q1")]
    return chart, form_basis(f, "p12", "p34").scale(vanishing), point, 2, 0, True, 0


class _NoFractionEval(Polynomial):
    """A pairing polynomial that refuses `eval`, so a sampler that builds a
    `Fraction` per value fails."""

    def eval(self, point):
        raise AssertionError("the sampler evaluated a pairing polynomial to a Fraction")


@pytest.mark.parametrize("name", [
    "base-draw-zero", "horizontal-not-held", "zero-polynomial", "zero-at-point",
    "n1-fails", "n1-passes", "maxwell-passes", "maxwell-fails",
])
def test_one_pairing_polynomial_per_live_family_and_the_full_factor_verdict(monkeypatch, name):
    """The sampler makes one `decomposable_pairing` call per live family it
    visits, the one that builds the family's pairing polynomial P, which is
    homogeneous of degree n; every value is then an integer evaluation of
    P, never `eval` (P refuses it here), compared by cross-multiplication.
    The values are integers from the draw on: on a second call, the sampler
    draws through `RationalSampler.sixths` alone (`rational` and `nonzero`
    raise during the call), reads the integer kernels that the first call
    left in the family cache, and calls `_numerators` once, for the form.
    The verdict is the full-factor loop's, field for field, on a base draw
    of 0 at every active parameter, on families whose horizontal columns
    the form does not read, on a live family whose P is zero, on a form
    that vanishes at the point, on an n = 1 chart and on Maxwell (n = 4)."""
    chart, form, point, sample_count, seed, passed, visited = _pairing_case(name)
    monkeypatch.setattr(dynamics, "_FAMILY_CACHE", {})
    liveness = _family_liveness(chart, form, point)
    # a first call builds the integer kernels of the families it draws on
    first = of_sampling_test(chart, form, point, sample_count=sample_count, seed=seed)
    calls = [0]
    real_pairing = dynamics.decomposable_pairing

    def counted(factors, forms):
        calls[0] += 1
        return real_pairing(factors, forms)

    polynomials = []
    real_polynomial = dynamics._pairing_polynomial

    def kept(*args):
        poly = real_polynomial(*args)
        polynomials.append(_NoFractionEval._raw(poly.variables, dict(poly._num), poly._den))
        return polynomials[-1]

    numerators = [0]
    real_numerators = dynamics._numerators

    def counted_numerators(values):
        numerators[0] += 1
        return real_numerators(values)

    def refuse(self):
        raise AssertionError("the sampler drew a Fraction")

    with monkeypatch.context() as patched:
        patched.setattr(dynamics, "decomposable_pairing", counted)
        patched.setattr(dynamics, "_pairing_polynomial", kept)
        patched.setattr(dynamics, "_numerators", counted_numerators)
        patched.setattr(RationalSampler, "rational", refuse)
        patched.setattr(RationalSampler, "nonzero", refuse)
        verdict = of_sampling_test(chart, form, point, sample_count=sample_count, seed=seed)

    live = [live for _, _, live in liveness]
    if verdict.counterexample is not None:
        horizontal = tuple(chart.frame.index(h) for h in verdict.counterexample.family_horizontal)
        live = live[: list(combinations(chart.frame.base_indices(), chart.n)).index(horizontal) + 1]
    assert (verdict.passed, calls[0]) == (passed, visited) == (passed, sum(live))
    assert numerators == [1]
    assert len(polynomials) == visited
    assert all(sum(expo) == chart.n for poly in polynomials for expo in poly.terms)
    expected = _full_factor_sampler(chart, form, point, sample_count, seed)
    assert verdict == first == expected and repr(verdict) == repr(expected)
    if name == "base-draw-zero":
        support = set().union(*eval_terms(form.terms, point))
        family = observability_family(chart, (0, 1))
        assert verdict.counterexample.family_horizontal == ("q1", "q2") and verdict.counterexample.value == 0
        active = [pos for pos, (_, c) in enumerate(family.params) if c in support]
        assert [verdict.counterexample.base_params[pos] for pos in active] == [0, 0]
    if name == "zero-polynomial":
        assert not polynomials[0] and polynomials[1]
    if name.startswith("maxwell"):
        assert max(poly.total_degree() for poly in polynomials) == 4


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
    return tuple(factors)


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
    scaled = (x[0].scale(3), x[1])
    for p in (1, 2):
        assert plucker_check(chart, x, p).passed == plucker_check(chart, scaled, p).passed


def test_plucker_degenerate_skip():
    chart = ddw_chart(2, 2)
    f = chart.frame
    x = (vector_basis(f, "y1"), vector_basis(f, "y2"))
    assert plucker_check(chart, x, 2).skipped_degenerate


@pytest.mark.parametrize("count", [1, 3])
def test_plucker_check_refuses_a_wrong_factor_count(count):
    """X is the wedge of exactly n vector fields: a wedge of any other
    degree pairs to 0 with the volume form, which would read as degenerate."""
    chart = ddw_chart(2, 2)
    factors = _random_decomposable(chart, RationalSampler(47))
    wrong = (factors + (vector_basis(chart.frame, "y1"),))[:count]
    with pytest.raises(ValueError, match="vector fields"):
        plucker_check(chart, wrong, 1)
    with pytest.raises(ValueError, match="vector fields"):
        plucker_check(chart, (factors[0], vector_basis(chart.frame, "y1", "y2")), 1)


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


def expected_representatives(size, doubled):
    """The kernel coefficients of the representatives, read off their
    description instead of built the way the code builds them: the vectors
    whose nonzero entries, in order, are nothing, a single 1 or -1, or two
    1s; with `doubled` also a single 2, a 1 then a -1, or three 1s."""
    shapes = {(), (1,), (-1,), (1, 1)} | ({(2,), (1, -1), (1, 1, 1)} if doubled else set())
    return [v for v in product(range(-1, 3), repeat=size) if tuple(c for c in v if c) in shapes]


@pytest.mark.parametrize("label", ["lepage-dedecker:1,1", "lepage-dedecker:2,1", "lepage-dedecker:2,2"])
def test_representatives_are_the_stated_set_base_and_unit_moves_first(label):
    """Equal sizes as well as equal sets, so that a duplicate shows."""
    chart = builtin_chart(label)
    sampler = RationalSampler(47)
    point = sampler.point(chart.dim)
    sol = hamiltonian_nvector_solve(chart, frame_compatible_hamiltonian(chart, sampler, point), point)
    size = len(sol.kernel)
    for doubled in (False, True):
        representatives = list(sol.representatives(doubled))
        expected = expected_representatives(size, doubled)
        assert len(representatives) == len(expected) and set(representatives) == set(expected)
    units = [tuple(int(i == j) for j in range(size)) for i in range(size)]
    assert list(sol.representatives())[: 1 + size] == [(0,) * size] + units


def reference_pseudofiber_directions(chart, solution, doubled):
    """The expand-then-pair row builder: the row of a slot deformation
    delta = e_c ^ (other factors) has entries <delta, e_j . Omega>.  The
    RREF kernel does not depend on the row order."""
    columns = [_hook_terms({(j,): Fraction(1)}, solution.omega_num) for j in range(chart.dim)]
    basis = RowBasis(chart.dim)
    for coeffs in expected_representatives(len(solution.kernel), doubled):
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
        value = _pair_terms(sol.family.expand(sol.assignment()), eval_terms(chart.volume_form().terms, point))
        assert value == 1
