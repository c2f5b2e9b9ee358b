from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_form, random_vector
from multisymp.algebra import Polynomial, RationalSampler
from multisymp.charts import builtin_chart
from multisymp.exterior import (
    CoordinateFrame,
    PolyForm,
    PolyMultivector,
    all_index_tuples,
    cohook,
    dump_form,
    ext_d,
    form_basis,
    hook,
    lie_bracket,
    lie_derivative,
    pair,
    parse_form,
    vector_basis,
    wedge,
)

FRAME = CoordinateFrame.build(
    [("q1", "position"), ("q2", "position"), ("q3", "position"),
     ("e", "energy"), ("p1", "momentum"), ("p2", "momentum")]
)


def frame_of_dim(dim):
    return CoordinateFrame.build([(f"z{i}", "position") for i in range(dim)])


# -- independent oracles ------------------------------------------------------


def pair_determinant_oracle(factors, mu):
    """mu(X_1, ..., X_k) expanded as the k x k determinant of 1-form/vector
    pairings, over mu's decomposable basis terms."""
    k = len(factors)
    total = Polynomial.zero(factors[0].frame.names)
    for key, coeff in mu.terms.items():
        det = Polynomial.zero(total.variables)
        for perm in permutations(range(k)):
            inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
            sign = -1 if inversions % 2 else 1
            prod = Polynomial.const(total.variables, sign)
            for row, col in enumerate(perm):
                # dx^{key[row]} applied to factor col
                component = factors[col].terms.get((key[row],))
                if component is None:
                    prod = Polynomial.zero(total.variables)
                    break
                prod = prod * component
            det = det + prod
        total = total + coeff * det
    return total


def bilinear_wedge_oracle(a, b):
    """Wedge by full bilinear expansion into basis products."""
    frame = a.frame
    out = PolyForm.zero(frame, a.degree + b.degree) if a.is_form else PolyMultivector.zero(frame, a.degree + b.degree)
    basis = form_basis if a.is_form else vector_basis
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            names = [frame.names[i] for i in ka + kb]
            out = out + basis(frame, *names).scale(ca * cb)
    return out


# -- wedge ---------------------------------------------------------------------


def test_wedge_examples():
    assert wedge(form_basis(FRAME, "q1"), form_basis(FRAME, "q2")) == form_basis(FRAME, "q1", "q2")
    assert not wedge(form_basis(FRAME, "q1"), form_basis(FRAME, "q1"))
    a = form_basis(FRAME, "q1") + form_basis(FRAME, "q2")
    assert wedge(a, form_basis(FRAME, "q2")) == form_basis(FRAME, "q1", "q2")
    assert wedge(a, form_basis(FRAME, "q2")) == bilinear_wedge_oracle(a, form_basis(FRAME, "q2"))


def test_wedge_mixed_kind_rejected():
    with pytest.raises(ValueError):
        wedge(form_basis(FRAME, "q1"), vector_basis(FRAME, "q2"))


def test_wedge_graded_commutative_and_associative():
    sampler = RationalSampler(7)
    for trial in range(25):
        da = sampler.integer(0, 2)
        db = sampler.integer(0, 2)
        dc = sampler.integer(0, 2)
        a = random_form(FRAME, da, sampler)
        b = random_form(FRAME, db, sampler)
        c = random_form(FRAME, dc, sampler)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (da * db) % 2:
            assert lhs == -rhs
        else:
            assert lhs == rhs
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        assert wedge(a, b) == bilinear_wedge_oracle(a, b)


# -- pairing --------------------------------------------------------------------


def test_pair_examples():
    assert pair(vector_basis(FRAME, "q1"), form_basis(FRAME, "q1")) == FRAME.poly_const(1)
    # degree mismatch pairs to zero
    assert pair(vector_basis(FRAME, "q1"), form_basis(FRAME, "q1", "q2")) == FRAME.poly_zero()


def test_pair_against_determinant_oracle():
    sampler = RationalSampler(11)
    for trial in range(20):
        k = sampler.integer(1, 3)
        factors = [random_vector(FRAME, sampler) for _ in range(k)]
        x = factors[0]
        for f in factors[1:]:
            x = wedge(x, f)
        mu = random_form(FRAME, k, sampler)
        assert pair(x, mu) == pair_determinant_oracle(factors, mu)


# -- hook and cohook --------------------------------------------------------------


def adjunction_hook_oracle(x, mu):
    """The unique form with <Y, X . mu> = <X ^ Y, mu> for all basis Y."""
    frame = x.frame
    degree = mu.degree - x.degree
    terms = {}
    for key in all_index_tuples(frame.dim, degree):
        y = vector_basis(frame, *[frame.names[i] for i in key])
        value = pair(wedge(x, y), mu)
        if value:
            terms[key] = value
    return PolyForm(frame, degree, terms)


def adjunction_cohook_oracle(x, mu):
    frame = x.frame
    degree = x.degree - mu.degree
    terms = {}
    for key in all_index_tuples(frame.dim, degree):
        nu = form_basis(frame, *[frame.names[i] for i in key])
        value = pair(x, wedge(mu, nu))
        if value:
            terms[key] = value
    return PolyMultivector(frame, degree, terms)


def test_hook_examples():
    # d/dq1 . (dq1 ^ dp1) = dp1, against the adjunction oracle
    mu = form_basis(FRAME, "q1", "p1")
    x = vector_basis(FRAME, "q1")
    assert hook(x, mu) == form_basis(FRAME, "p1")
    assert hook(x, mu) == adjunction_hook_oracle(x, mu)
    assert not hook(PolyMultivector.zero(FRAME, 1), mu)
    with pytest.raises(ValueError):
        hook(vector_basis(FRAME, "q1", "q2"), form_basis(FRAME, "q1"))


def test_cohook_examples():
    x = vector_basis(FRAME, "q1", "q2")
    assert cohook(x, form_basis(FRAME, "q1")) == adjunction_cohook_oracle(x, form_basis(FRAME, "q1"))
    assert cohook(x, form_basis(FRAME, "q1")) == vector_basis(FRAME, "q2")
    assert not cohook(x, form_basis(FRAME, "q3"))
    one = PolyForm(FRAME, 0, {(): FRAME.poly_const(1)})
    assert cohook(x, one) == x
    with pytest.raises(ValueError):
        cohook(vector_basis(FRAME, "q1"), form_basis(FRAME, "q1", "q2"))


def test_adjunctions_on_random_inputs():
    """Both interior products against the brute-force adjunction oracles,
    degrees up to 4 on a frame of dimension 8."""
    frame = frame_of_dim(8)
    sampler = RationalSampler(23)
    for trial in range(15):
        k = sampler.integer(0, 4)
        l = sampler.integer(k, 4)
        x = random_form(frame, k, sampler, n_terms=2).terms
        x = PolyMultivector(frame, k, x)
        mu = random_form(frame, l, sampler, n_terms=3)
        assert hook(x, mu) == adjunction_hook_oracle(x, mu)
        y = random_form(frame, l, sampler, n_terms=2).terms
        y = PolyMultivector(frame, l, y)
        nu = random_form(frame, k, sampler, n_terms=3)
        assert cohook(y, nu) == adjunction_cohook_oracle(y, nu)


def test_hook_composition():
    """(X ^ Y) . mu = Y . (X . mu) for random decomposables."""
    frame = frame_of_dim(6)
    sampler = RationalSampler(29)
    for trial in range(15):
        x = random_vector(frame, sampler)
        y = random_vector(frame, sampler)
        mu = random_form(frame, sampler.integer(2, 4), sampler)
        assert hook(wedge(x, y), mu) == hook(y, hook(x, mu))


# -- the two convention anchors -------------------------------------------------
# Interior-product sign conventions are the classic silent failure; these two
# independent pins fix them for good.


def test_sign_anchor_momentum_extraction():
    """(d/dphi ^ d/dx2) . Omega = dp1 on the 2-dimensional scalar momentum
    chart: the contraction that extracts a momentum differential."""
    fr = CoordinateFrame.build(
        [("x1", "position"), ("x2", "position"), ("phi", "position"),
         ("e", "energy"), ("p1", "momentum"), ("p2", "momentum")]
    )
    vol = form_basis(fr, "x1", "x2")
    omega = wedge(form_basis(fr, "e"), vol)
    for mu, name in ((1, "p1"), (2, "p2")):
        omega = omega + wedge(
            form_basis(fr, name),
            wedge(form_basis(fr, "phi"), hook(vector_basis(fr, f"x{mu}"), vol)),
        )
    assert hook(vector_basis(fr, "phi", "x2"), omega) == form_basis(fr, "p1")


def test_sign_anchor_half_pairing():
    """<(1/2) sum d/da_mu ^ d/dx^mu, sum da_nu ^ dx^nu> = n/2 on the
    electromagnetic chart (= 2 at n = 4)."""
    from multisymp.charts import maxwell_chart, maxwell_da

    chart = maxwell_chart()
    f = chart.frame
    bivector = PolyMultivector.zero(f, 2)
    for mu in range(4):
        bivector = bivector + vector_basis(f, f"a{mu}", f"x{mu}")
    bivector = bivector.scale(Fraction(1, 2))
    assert pair(bivector, maxwell_da(f)) == f.poly_const(2)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_adjunctions_hypothesis(seed):
    frame = frame_of_dim(6)
    sampler = RationalSampler(seed)
    k = sampler.integer(0, 2)
    l = sampler.integer(k, 3)
    x = PolyMultivector(frame, k, random_form(frame, k, sampler, n_terms=2).terms)
    mu = random_form(frame, l, sampler, n_terms=2)
    assert hook(x, mu) == adjunction_hook_oracle(x, mu)
    y = PolyMultivector(frame, l, random_form(frame, l, sampler, n_terms=2).terms)
    nu = random_form(frame, k, sampler, n_terms=2)
    assert cohook(y, nu) == adjunction_cohook_oracle(y, nu)


# -- exterior derivative ------------------------------------------------------


def coordinate_d_oracle(mu):
    frame = mu.frame
    out = PolyForm.zero(frame, mu.degree + 1)
    for key, coeff in mu.terms.items():
        for name in frame.names:
            d = coeff.diff(name)
            if d:
                out = out + wedge(
                    form_basis(frame, name), form_basis(frame, *[frame.names[i] for i in key])
                ).scale(d)
    return out


def test_ext_d_examples():
    q_dp = form_basis(FRAME, "p1").scale(FRAME.poly_var("q1"))
    assert ext_d(q_dp) == form_basis(FRAME, "q1", "p1")
    assert ext_d(q_dp) == coordinate_d_oracle(q_dp)
    assert not ext_d(form_basis(FRAME, "q1", "q2"))


def test_d_squared_zero_random():
    sampler = RationalSampler(31)
    for trial in range(20):
        mu = random_form(FRAME, sampler.integer(0, 3), sampler, n_terms=3, coeff_degree=2)
        assert ext_d(mu) == coordinate_d_oracle(mu)
        assert not ext_d(ext_d(mu))


# -- Lie operations -------------------------------------------------------------


def test_lie_bracket_examples():
    dq = vector_basis(FRAME, "q1")
    dp = vector_basis(FRAME, "p1")
    assert not lie_bracket(dq, dp)
    q_dq = dq.scale(FRAME.poly_var("q1"))
    assert lie_bracket(q_dq, dq) == -dq
    xi = random_vector(FRAME, RationalSampler(3))
    assert not lie_bracket(xi, xi)


def test_lie_derivative_examples():
    q_dp = form_basis(FRAME, "p1").scale(FRAME.poly_var("q1"))
    assert lie_derivative(vector_basis(FRAME, "q1"), q_dp) == form_basis(FRAME, "p1")
    sampler = RationalSampler(37)
    for trial in range(10):
        xi = random_vector(FRAME, sampler)
        mu = random_form(FRAME, sampler.integer(0, 2), sampler)
        # cartan formula oracle
        expect = hook(xi, ext_d(mu))
        if mu.degree:
            expect = expect + ext_d(hook(xi, mu))
        assert lie_derivative(xi, mu) == expect
        # naturality: L_xi d mu = d L_xi mu
        assert lie_derivative(xi, ext_d(mu)) == ext_d(lie_derivative(xi, mu))


def test_lie_derivative_of_closed_is_exact_contraction():
    # for closed Omega: L_xi Omega = d(xi . Omega)
    from multisymp.charts import lepage_dedecker_chart

    chart = lepage_dedecker_chart(2, 1)
    xi = random_vector(chart.frame, RationalSampler(5))
    assert lie_derivative(xi, chart.omega) == ext_d(hook(xi, chart.omega))


# -- serialization ---------------------------------------------------------------


@pytest.mark.parametrize("spec, field", [
    ([1], "a form must be an object"),
    ({"degree": 1, "terms": {"indices": ["q1"]}}, "terms of a form must be a list"),
    ({"degree": 1, "terms": ["q1"]}, "every term of a form must be an object"),
    ({"degree": 1, "terms": [{"indices": "q1", "coeff": "1"}]}, "indices of a form term"),
    ({"degree": 1, "terms": [{"indices": [1], "coeff": "1"}]}, "indices of a form term"),
    ({"degree": 1, "terms": [{"indices": ["q1"], "coeff": None}]}, "coeff of form term"),
    ({"degree": 1, "terms": [{"indices": ["q1"], "coeff": True}]}, "coeff of form term"),
    ({"degree": 1, "terms": [{"indices": ["q1"], "coeff": ["1"]}]}, "coeff of form term"),
])
def test_parse_form_names_the_field_of_the_wrong_shape(spec, field):
    with pytest.raises(ValueError, match=field):
        parse_form(FRAME, spec)


def test_parse_form_takes_numeric_coefficients():
    spec = {"degree": 1, "terms": [{"indices": ["q1"], "coeff": 2}, {"indices": ["q2"], "coeff": 0.5}]}
    assert parse_form(FRAME, spec) == form_basis(FRAME, "q1").scale(2) + form_basis(FRAME, "q2").scale(Fraction(1, 2))


def test_form_file_round_trip_unsorted_indices():
    spec = {
        "degree": 2,
        "terms": [
            {"indices": ["p1", "q1"], "coeff": "1"},
            {"indices": ["q2", "q1"], "coeff": "2 * e"},
        ],
    }
    form = parse_form(FRAME, spec)
    assert form == -form_basis(FRAME, "q1", "p1") - form_basis(FRAME, "q1", "q2").scale(
        FRAME.poly_var("e")
    ).scale(2)
    dumped = dump_form(form)
    assert parse_form(FRAME, dumped) == form
    for term in dumped["terms"]:
        idx = [FRAME.index(n) for n in term["indices"]]
        assert idx == sorted(idx)


# -- the trusted constructor ----------------------------------------------------


def assert_survives_validation(tensor):
    """Kernel results skip validation; the validating public constructor
    must accept each one unchanged, term for term and in the same order."""
    rebuilt = type(tensor)(tensor.frame, tensor.degree, tensor.terms)
    assert rebuilt == tensor
    assert list(rebuilt.terms.items()) == list(tensor.terms.items())
    for coeff in tensor.terms.values():
        assert isinstance(coeff, Polynomial) and coeff.variables == tensor.frame.names


@pytest.mark.parametrize("label", ["maxwell", "ddw:3,2", "lepage-dedecker:2,3"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_kernel_results_pass_the_validating_constructor(label, seed):
    chart = builtin_chart(label)
    frame = chart.frame
    sampler = RationalSampler(seed)
    one = random_form(frame, 1, sampler)
    two = random_form(frame, 2, sampler, coeff_degree=2)
    top = random_form(frame, frame.dim, sampler)
    x, y, z = (random_vector(frame, sampler) for _ in range(3))
    xy = wedge(x, y)
    xyz = wedge(xy, z)
    factor = sampler.polynomial(frame.names, max_degree=1, n_terms=2)
    results = [
        wedge(one, two), wedge(one, one), wedge(top, one), wedge(two, chart.omega), xy, xyz, wedge(xy, xy),
        hook(x, two), hook(xy, chart.omega), hook(xyz, wedge(one, two)), hook(x, one),
        cohook(xyz, one), cohook(xyz, two), cohook(xy, two),
        ext_d(one), ext_d(two), ext_d(chart.omega), ext_d(top), ext_d(ext_d(one)),
        one + one, two + two.scale(-1), xy + wedge(y, x), two - two, -two, -xy,
        two.scale(0), two.scale(frame.poly_zero()), two.scale(1), two.scale(sampler.nonzero()),
        two.scale(factor), xyz.scale(factor),
    ]
    for tensor in results:
        assert_survives_validation(tensor)
