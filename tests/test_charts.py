import json
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from multisymp.algebra import Polynomial, RationalSampler, sort_with_sign
from multisymp.charts import (
    builtin_chart,
    chart_from_spec,
    chart_to_spec,
    contraction_matrix,
    ddw_chart,
    ddw_restriction_momenta,
    lepage_dedecker_chart,
    lepage_dedecker_split_chart,
    maxwell_chart,
    maxwell_da,
    maxwell_pi,
    nondegeneracy_check,
    restrict_chart,
    scalar_field_chart,
    transplant_chart,
    transplant_form,
    validate_chart,
)
from multisymp.exterior import (
    PolyForm,
    ext_d,
    form_basis,
    wedge,
)

V_MASS = Polynomial(("s",), {(1,): Fraction(1)})


def all_catalog_charts():
    return [
        lepage_dedecker_chart(1, 1),
        lepage_dedecker_chart(2, 1),
        lepage_dedecker_chart(2, 2),
        lepage_dedecker_split_chart(2, 1),
        lepage_dedecker_split_chart(2, 2),
        ddw_chart(2, 2),
        ddw_chart(3, 2),
        maxwell_chart(),
        scalar_field_chart(2, V_MASS),
        scalar_field_chart(2, V_MASS, gauged=True),
        scalar_field_chart(3, V_MASS),
    ]


def test_every_catalog_chart_is_healthy():
    for chart in all_catalog_charts():
        assert validate_chart(chart) == [], chart.name


def test_lepage_dedecker_dimensions():
    assert lepage_dedecker_chart(1, 1).dim == 4
    assert lepage_dedecker_chart(2, 2).dim == 4 + 6
    for total in range(2, 8):
        for n in range(1, total):
            k = total - n
            assert lepage_dedecker_chart(n, k).dim == (n + k) + comb(n + k, n)
            assert ddw_chart(n, k).dim == n + k + 1 + n * k


def test_symplectic_special_case():
    chart = lepage_dedecker_chart(1, 1)
    assert chart.frame.names == ("q1", "q2", "p1", "p2")
    expected = wedge(form_basis(chart.frame, "p1"), form_basis(chart.frame, "q1")) + wedge(
        form_basis(chart.frame, "p2"), form_basis(chart.frame, "q2")
    )
    assert chart.omega == expected
    assert nondegeneracy_check(chart).passed


def test_split_chart_matches_printed_form():
    chart = lepage_dedecker_split_chart(2, 1)
    f = chart.frame
    expected = (
        wedge(form_basis(f, "e"), form_basis(f, "x1", "x2"))
        + wedge(form_basis(f, "p1_1"), form_basis(f, "y1", "x2"))
        - wedge(form_basis(f, "p2_1"), form_basis(f, "y1", "x1"))
    )
    assert chart.omega == expected


def test_split_chart_equals_direct_formula():
    """The signed relabeling of the abstract chart agrees term by term with
    Omega = de ^ vol + sum_j dp^{mu..}_{i..} ^ (dy wedge) ^ vol_{mu..}."""
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        chart = lepage_dedecker_split_chart(n, k)
        f = chart.frame
        vol = chart.volume_form()
        omega = wedge(form_basis(f, "e"), vol)
        from itertools import combinations

        for j in range(1, n + 1):
            for mus in combinations(range(1, n + 1), j):
                for iis in combinations(range(1, k + 1), j):
                    if j == 1:
                        name = f"p{mus[0]}_{iis[0]}"
                    else:
                        name = "p" + "".join(map(str, mus)) + "_" + "".join(map(str, iis))
                    dy = form_basis(f, *[f"y{i}" for i in iis])
                    block = wedge(dy, chart.volume_contraction(*[f"x{m}" for m in mus]))
                    omega = omega + wedge(form_basis(f, name), block)
        assert chart.omega == omega, (n, k)


def test_restriction_to_first_order_chart():
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        split = lepage_dedecker_split_chart(n, k)
        restricted = restrict_chart(split, ddw_restriction_momenta(n, k), name=f"ddw:{n},{k}")
        assert restricted == ddw_chart(n, k)
    # restricting nothing is the identity
    chart = lepage_dedecker_split_chart(2, 2)
    assert restrict_chart(chart, []) == chart


def test_restrict_rejects_non_momentum():
    chart = lepage_dedecker_split_chart(2, 2)
    with pytest.raises(ValueError):
        restrict_chart(chart, ["y1"])
    with pytest.raises(ValueError):
        restrict_chart(chart, ["e"])


def test_maxwell_chart_shape():
    chart = maxwell_chart()
    assert chart.dim == 4 + 4 + 1 + 6
    assert not ext_d(chart.omega)
    assert ext_d(chart.theta) == chart.omega
    assert chart.metric == (1, -1, -1, -1)
    # H = e + (1/2)(p01^2+p02^2+p03^2) - (1/2)(p12^2+p13^2+p23^2)
    f = chart.frame
    h = f.poly_var("e")
    for name in ("p01", "p02", "p03"):
        h = h + Fraction(1, 2) * f.poly_var(name) ** 2
    for name in ("p12", "p13", "p23"):
        h = h - Fraction(1, 2) * f.poly_var(name) ** 2
    assert chart.hamiltonian == h


def test_maxwell_momentum_identity():
    """d pi ^ da = sum over ordered pairs dp^{mu nu} ^ da_mu ^ vol_nu with
    the antisymmetric extension of the momenta."""
    chart = maxwell_chart()
    f = chart.frame
    lhs = wedge(ext_d(maxwell_pi(f)), maxwell_da(f))
    rhs = PolyForm.zero(f, 5)
    for mu, nu in product(range(4), repeat=2):
        if mu == nu:
            continue
        name = f"p{mu}{nu}" if mu < nu else f"p{nu}{mu}"
        sign = 1 if mu < nu else -1
        rhs = rhs + wedge(
            form_basis(f, name), wedge(form_basis(f, f"a{mu}"), chart.volume_contraction(f"x{nu}"))
        ).scale(sign)
    assert lhs == rhs


def test_maxwell_current_term():
    f0 = maxwell_chart()
    x_vars = ("x0", "x1", "x2", "x3")
    current = [Polynomial(x_vars, {(1, 0, 0, 0): Fraction(2)}), Polynomial.zero(x_vars),
               Polynomial.const(x_vars, 1), Polynomial.zero(x_vars)]
    chart = maxwell_chart(current)
    f = chart.frame
    assert chart.hamiltonian - f0.hamiltonian.transplant(f.names, {v: f.poly_var(v) for v in f.names}) == (
        2 * f.poly_var("x0") * f.poly_var("a0") + f.poly_var("a2")
    )


def test_maxwell_from_first_order_antisymmetrization():
    """The (x, a) first-order chart with the antisymmetric identification of
    the momenta is the electromagnetic chart, term for term."""
    ddw = ddw_chart(4, 4)  # x1..x4 ~ x0..x3, y1..y4 ~ a0..a3
    target = maxwell_chart()
    frame = target.frame
    assignment = {}
    for mu in range(1, 5):
        assignment[f"x{mu}"] = frame.poly_var(f"x{mu - 1}")
    for i in range(1, 5):
        assignment[f"y{i}"] = frame.poly_var(f"a{i - 1}")
    assignment["e"] = frame.poly_var("e")
    for nu in range(1, 5):
        for i in range(1, 5):
            a, b = i - 1, nu - 1  # p^{nu}_{A_i} -> p^{A_{a} b} = sign p^{ab}
            if a == b:
                assignment[f"p{nu}_{i}"] = frame.poly_zero()
            elif a < b:
                assignment[f"p{nu}_{i}"] = frame.poly_var(f"p{a}{b}")
            else:
                assignment[f"p{nu}_{i}"] = -frame.poly_var(f"p{b}{a}")
    transported = transplant_chart(ddw, "maxwell", frame, assignment)
    assert transported.omega == target.omega
    assert transported.theta == target.theta


def test_scalar_chart_hamiltonian():
    chart = scalar_field_chart(2, V_MASS)
    f = chart.frame
    expected = (
        f.poly_var("e")
        + Fraction(1, 2) * (f.poly_var("p0_1") ** 2 + f.poly_var("p0_2") ** 2)
        - Fraction(1, 2) * (f.poly_var("p1_1") ** 2 + f.poly_var("p1_2") ** 2)
        - Fraction(1, 2) * (f.poly_var("phi1") ** 2 + f.poly_var("phi2") ** 2)
    )
    assert chart.hamiltonian == expected


def test_scalar_chart_gauged_coupling():
    plain = scalar_field_chart(2, V_MASS)
    gauged = scalar_field_chart(2, V_MASS, gauged=True)
    f = gauged.frame
    lifted_plain = plain.hamiltonian.transplant(f.names, {v: f.poly_var(v) for v in plain.frame.names})
    extra = gauged.hamiltonian - lifted_plain
    coupling = f.poly_zero()
    for mu in range(2):
        coupling = coupling + (
            f.poly_var(f"p{mu}_1") * f.poly_var("phi2") - f.poly_var(f"p{mu}_2") * f.poly_var("phi1")
        ) * f.poly_var(f"a{mu}")
    field_energy = Fraction(1, 2) * f.poly_var("p01") ** 2  # eta00*eta11 = -1 flips the sign
    assert extra == coupling + field_energy


def test_scalar_chart_rejects_bad_potential():
    with pytest.raises(ValueError):
        scalar_field_chart(2, Polynomial(("s", "t"), {(1, 0): Fraction(1)}))


def test_nondegeneracy_failure_witness():
    chart = lepage_dedecker_split_chart(2, 1)
    f = chart.frame
    broken_omega = wedge(form_basis(f, "e"), form_basis(f, "x1", "x2"))
    from multisymp.charts import Chart

    broken = Chart(name="broken", frame=f, n=2, omega=broken_omega, horizontal=chart.horizontal)
    verdict = nondegeneracy_check(broken)
    assert not verdict.passed
    witness = verdict.kernel_witness
    # the witness contracts to zero and is itself nonzero
    matrix = contraction_matrix(broken)
    assert any(witness)
    for row in matrix:
        assert sum(c * w for c, w in zip(row, witness)) == 0
    # any momentum direction lies in the kernel
    p_index = f.index("p1_1")
    kernel_vec = [Fraction(0)] * f.dim
    kernel_vec[p_index] = Fraction(1)
    for row in matrix:
        assert sum(c * w for c, w in zip(row, kernel_vec)) == 0


def _dense_nondegeneracy(chart, seed=0):
    """`nondegeneracy_check` on the dense matrix: the kernel of
    `contraction_matrix` at the same points, by `nullspace`."""
    from multisymp.charts import NondegeneracyVerdict, omega_is_constant
    from multisymp.linalg import nullspace

    exact = omega_is_constant(chart)
    sampler = RationalSampler(seed)
    points = [None] if exact else [sampler.point(chart.dim) for _ in range(3)]
    for checked, point in enumerate(points, 1):
        kernel = nullspace(contraction_matrix(chart, point))
        if kernel:
            return NondegeneracyVerdict(False, True, tuple(kernel[0]), checked)
    return NondegeneracyVerdict(True, exact, None, len(points))


def _degenerate_spec_charts():
    """e ^ dx1 ^ dx2 on the split (2, 1) frame, constant and scaled by
    1 + y1 (sampled), each read back from its spec."""
    from multisymp.charts import Chart

    healthy = lepage_dedecker_split_chart(2, 1)
    f = healthy.frame
    broken = wedge(form_basis(f, "e"), form_basis(f, "x1", "x2"))
    return [
        chart_from_spec(chart_to_spec(Chart(name=name, frame=f, n=2, omega=omega, horizontal=healthy.horizontal)))
        for name, omega in [("broken", broken), ("broken-scaled", broken.scale(f.poly_const(1) + f.poly_var("y1")))]
    ]


@pytest.mark.parametrize(
    "label",
    ["lepage-dedecker:1,1", "lepage-dedecker:2,2", "lepage-dedecker:3,3", "lepage-dedecker-split:2,1",
     "lepage-dedecker-split:3,3", "ddw:2,1", "ddw:3,2", "maxwell", "scalar:2", "scalar:3", "scalar:2,gauged",
     "degenerate", "scaled"],
)
def test_nondegeneracy_from_sparse_rows_equals_the_dense_nullspace(label):
    """The verdict, and so the `kernel_vector` witness bytes, equal those of
    the dense matrix's `nullspace`, exact or at the sampled points; the
    scaled chart is lepage-dedecker:2,2 with Omega times 1 + q1."""
    from dataclasses import replace

    if label == "degenerate":
        charts = _degenerate_spec_charts()
    elif label == "scaled":
        chart = builtin_chart("lepage-dedecker:2,2")
        f = chart.frame
        charts = [replace(chart, name="scaled", omega=chart.omega.scale(f.poly_const(1) + f.poly_var("q1")), theta=None)]
    else:
        charts = [builtin_chart(label)]
    for chart in charts:
        for seed in (0, 7):
            assert repr(nondegeneracy_check(chart, seed)) == repr(_dense_nondegeneracy(chart, seed))
    if label == "degenerate":
        assert [nondegeneracy_check(chart).exact for chart in charts] == [True, True]
        assert not any(nondegeneracy_check(chart).passed for chart in charts)


def test_a_zero_omega_is_degenerate():
    """With no rows every direction is in the kernel; the dense matrix of
    a zero Omega has no rows, and `nullspace` of it is empty."""
    from multisymp.charts import Chart

    healthy = lepage_dedecker_split_chart(2, 1)
    zero = chart_from_spec(chart_to_spec(Chart(name="zero", frame=healthy.frame, n=2,
                                               omega=PolyForm(healthy.frame, 3, {}), horizontal=healthy.horizontal)))
    verdict = nondegeneracy_check(zero)
    assert not verdict.passed and verdict.kernel_witness == (1,) + (0,) * (zero.dim - 1)
    assert "omega is degenerate" in validate_chart(zero)


def test_chart_spec_round_trip_bit_exact():
    for chart in all_catalog_charts():
        spec = chart_to_spec(chart)
        text = json.dumps(spec, sort_keys=True)
        rebuilt = chart_from_spec(json.loads(text))
        assert rebuilt == chart
        assert json.dumps(chart_to_spec(rebuilt), sort_keys=True) == text


def test_builtin_chart_labels():
    assert builtin_chart("lepage-dedecker:2,2").dim == 10
    assert builtin_chart("ddw:2,2") == ddw_chart(2, 2)
    assert builtin_chart("maxwell").name == "maxwell"
    assert builtin_chart("scalar:2").name == "scalar:2"
    assert builtin_chart("scalar:2,gauged").name == "scalar:2,gauged"
    with pytest.raises(ValueError):
        builtin_chart("unknown:1")


def test_momentum_guard():
    with pytest.raises(ValueError):
        lepage_dedecker_chart(5, 5)  # C(10,5) naming limit


def test_large_chart_scale():
    """Charts near the intended size boundary stay exact and healthy."""
    from multisymp.dynamics import frame_compatible_hamiltonian, hamiltonian_nvector_solve
    from multisymp.algebra import RationalSampler

    chart = lepage_dedecker_chart(3, 3)
    assert chart.dim == 26
    assert validate_chart(chart) == []
    sampler = RationalSampler(5)
    point = sampler.point(chart.dim)
    h = frame_compatible_hamiltonian(chart, sampler, point)
    sol = hamiltonian_nvector_solve(chart, h, point)
    assert sol.verify()
    assert len(sol.kernel) > 0


def _expanded_transplant(form, new_frame, assignment):
    """Pullback by expanding every product of differential images over
    unsorted index tuples, then sorting each with its sign: an oracle
    independent of the wedge kernel."""
    old_names = form.frame.names
    differentials = {}
    for old, image in assignment.items():
        differentials[old] = [
            (next(i for i, e in enumerate(expo) if e), coeff) for expo, coeff in image.terms.items() if any(expo)
        ]
    out = PolyForm.zero(new_frame, form.degree)
    for key, coeff in form.terms.items():
        new_coeff = coeff.transplant(new_frame.names, assignment)
        expansions = [((), Fraction(1))]
        for i in key:
            expansions = [
                (prefix + (idx,), c * w) for prefix, c in expansions for idx, w in differentials[old_names[i]]
            ]
        terms = {}
        for indices, weight in expansions:
            sorted_key, sign = sort_with_sign(indices)
            if sign:
                terms[sorted_key] = terms.get(sorted_key, new_frame.poly_zero()) + (sign * weight) * new_coeff
        out = out + PolyForm(new_frame, form.degree, {k: v for k, v in terms.items() if v})
    return out


def test_transplant_form_under_multi_term_linear_images():
    from conftest import random_form

    chart = ddw_chart(2, 2)
    f = chart.frame
    v = f.poly_var
    assignment = {name: v(name) for name in f.names}
    assignment["x1"] = v("x1") + 2 * v("y1") + Fraction(1, 3)
    assignment["y1"] = v("y1") - v("x1")
    assignment["y2"] = Fraction(1, 2) * v("y2") - v("e") + 3 * v("p1_1") - 1
    assignment["p2_2"] = v("x2") - v("p2_1")
    assignment["e"] = f.poly_zero() + 5
    sampler = RationalSampler(17)
    forms = [chart.omega, chart.theta]
    forms += [random_form(f, degree, sampler, n_terms=4, coeff_degree=2) for degree in (1, 2, 3) for _ in range(3)]
    for form in forms:
        image = transplant_form(form, f, assignment)
        assert image == _expanded_transplant(form, f, assignment)
        assert transplant_form(ext_d(form), f, assignment) == ext_d(image)
    # dx1 ^ dy1 -> (dx1 + 2 dy1) ^ (dy1 - dx1) = 3 dx1 ^ dy1
    assert transplant_form(form_basis(f, "x1", "y1"), f, assignment) == form_basis(f, "x1", "y1").scale(3)
    with pytest.raises(ValueError, match="linear coordinate images"):
        transplant_form(chart.omega, f, {**assignment, "e": v("e") ** 2})
    missing = {name: image for name, image in assignment.items() if name != "p1_1"}
    with pytest.raises(KeyError, match="p1_1"):
        transplant_form(chart.omega, f, missing)
