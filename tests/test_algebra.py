import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp.algebra import (
    MAX_EXPONENT,
    Polynomial,
    RationalSampler,
    gen_kronecker,
    parse_polynomial,
    sort_with_sign,
)

# -- independent oracles ----------------------------------------------------


def kronecker_det_oracle(upper, lower):
    """Literal determinant of the delta matrix, expanded over permutations."""
    p = len(upper)
    total = 0
    for perm in permutations(range(p)):
        inversions = sum(1 for i in range(p) for j in range(i + 1, p) if perm[i] > perm[j])
        sign = -1 if inversions % 2 else 1
        product = 1
        for row, col in enumerate(perm):
            product *= 1 if upper[row] == lower[col] else 0
        total += sign * product
    return total


def inversion_sign_oracle(indices):
    if len(set(indices)) != len(indices):
        return 0
    inversions = sum(
        1 for i in range(len(indices)) for j in range(i + 1, len(indices)) if indices[i] > indices[j]
    )
    return -1 if inversions % 2 else 1


def diff_oracle(poly: Polynomial, name: str) -> Polynomial:
    """Term-by-term differentiation, built independently of Polynomial.diff."""
    idx = poly.variables.index(name)
    out = {}
    for expo, coeff in poly.terms.items():
        if expo[idx] == 0:
            continue
        new = list(expo)
        new[idx] -= 1
        key = tuple(new)
        out[key] = out.get(key, Fraction(0)) + coeff * expo[idx]
    return Polynomial(poly.variables, out)


# -- gen_kronecker ----------------------------------------------------------


def test_gen_kronecker_identity():
    assert gen_kronecker((1, 2), (1, 2)) == 1


def test_gen_kronecker_swap():
    assert gen_kronecker((1, 2), (2, 1)) == -1
    # oracle: all 2x2 determinants over small tuples agree
    for upper in permutations(range(1, 4), 2):
        for lower in permutations(range(1, 4), 2):
            assert gen_kronecker(upper, lower) == kronecker_det_oracle(upper, lower)


def test_gen_kronecker_disjoint_zero():
    assert gen_kronecker((1, 3), (1, 2)) == kronecker_det_oracle((1, 3), (1, 2)) == 0


def test_gen_kronecker_repeats_zero():
    assert gen_kronecker((1, 1), (1, 2)) == 0
    assert gen_kronecker((1, 2), (2, 2)) == 0


def test_gen_kronecker_length_mismatch():
    with pytest.raises(ValueError):
        gen_kronecker((1, 2), (1,))


@given(st.lists(st.integers(0, 6), min_size=2, max_size=4), st.data())
def test_gen_kronecker_antisymmetry(upper, data):
    lower = data.draw(st.permutations(upper))
    i, j = data.draw(st.tuples(st.integers(0, len(upper) - 1), st.integers(0, len(upper) - 1)))
    if i == j:
        return
    swapped = list(upper)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert gen_kronecker(swapped, lower) == -gen_kronecker(upper, lower)
    swapped_lower = list(lower)
    swapped_lower[i], swapped_lower[j] = swapped_lower[j], swapped_lower[i]
    assert gen_kronecker(upper, swapped_lower) == -gen_kronecker(upper, lower)


# -- sort_with_sign ----------------------------------------------------------


def test_sort_with_sign_examples():
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((1, 1)) == (None, 0)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), inversion_sign_oracle((3, 1, 2)))
    assert sort_with_sign(()) == ((), 1)


@given(st.lists(st.integers(0, 9), min_size=0, max_size=6))
def test_sort_with_sign_matches_oracle(indices):
    sorted_tuple, sign = sort_with_sign(tuple(indices))
    assert sign == inversion_sign_oracle(tuple(indices))
    if sign:
        assert sorted_tuple == tuple(sorted(indices))


# -- polynomials -------------------------------------------------------------

VARS = ("q", "e", "p1", "y1", "x2")


def sampler_poly(seed):
    return RationalSampler(seed).polynomial(VARS, max_degree=3, n_terms=4)


def test_poly_diff_examples():
    q2 = Polynomial.var(VARS, "q") ** 2
    assert q2.diff("q") == 2 * Polynomial.var(VARS, "q")
    p = Polynomial.var(VARS, "e") + Polynomial.var(VARS, "p1") ** 2
    assert p.diff("e") == Polynomial.const(VARS, 1)
    # p1 * y1 * x2^2 differentiated in y1, against the independent oracle
    p = Polynomial.var(VARS, "p1") * Polynomial.var(VARS, "y1") * Polynomial.var(VARS, "x2") ** 2
    assert p.diff("y1") == diff_oracle(p, "y1")
    assert p.diff("y1") == Polynomial.var(VARS, "p1") * Polynomial.var(VARS, "x2") ** 2


def test_poly_diff_unknown_variable():
    with pytest.raises(KeyError):
        Polynomial.var(VARS, "q").diff("nope")


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_poly_diff_commutes_and_leibniz(seed):
    sampler = RationalSampler(seed)
    p = sampler.polynomial(VARS, max_degree=3, n_terms=3)
    q = sampler.polynomial(VARS, max_degree=3, n_terms=3)
    a, b = "q", "p1"
    assert p.diff(a).diff(b) == p.diff(b).diff(a)
    assert (p * q).diff(a) == p.diff(a) * q + p * q.diff(a)
    assert p.diff(a) == diff_oracle(p, a)


def test_poly_eval_examples():
    vars2 = ("x", "y")
    p = Polynomial.var(vars2, "x") + Polynomial.var(vars2, "y")
    assert p.eval((1, 2)) == 3
    assert type(p.eval((1, 2))) is Fraction
    assert Polynomial.zero(vars2).eval((5, 7)) == 0
    q = Polynomial.var(vars2, "x") * Polynomial.var(vars2, "y") - Polynomial.var(vars2, "y") ** 2
    assert q.eval((3, 2)) == 2
    with pytest.raises(ValueError):
        p.eval((1,))


def dense_eval_oracle(p, point):
    """`Polynomial.eval` as it read the dense exponent tuples: every
    exponent of every term, zeros included, against the point."""
    total, total_den = 0, 1
    for expo, c in p._num.items():
        n, d = c, 1
        for e, v in zip(expo, point):
            if e:
                n *= v.numerator**e
                d *= v.denominator**e
        if d == total_den:
            total += n
        else:
            g = gcd(d, total_den)
            total = total * (d // g) + n * (total_den // g)
            total_den *= d // g
    return Fraction(total, total_den * p._den)


@pytest.mark.parametrize("seed", range(12))
def test_poly_eval_reads_a_kept_sparse_view(seed):
    """Evaluation through the sparse view of nonzero exponents equals the
    dense loop at `int` and `Fraction` points, for seeded polynomials and
    the zero and constant ones, on a first and a repeated evaluation; an
    evaluated polynomial keeps its terms (in order), equality and hash."""
    sampler = RationalSampler(seed)
    polys = [
        sampler.polynomial(VARS, max_degree=4, n_terms=5),
        Polynomial.zero(VARS),
        Polynomial.const(VARS, sampler.nonzero()),
    ]
    for p in polys:
        twin = Polynomial(VARS, p.terms)
        points = [sampler.point(len(VARS)), tuple(sampler.integer(-9, 9) for _ in VARS)]
        for point in points + points:
            value = p.eval(point)
            assert type(value) is Fraction and value == dense_eval_oracle(p, point)
        assert list(p.terms.items()) == list(twin.terms.items())
        assert p == twin and hash(p) == hash(twin)


@pytest.mark.parametrize("seed", range(12))
def test_poly_eval_numerator_over_the_denominator_is_eval(seed):
    """At a point of `int`s the integer evaluation is an `int` N with
    `eval(point) == Fraction(N, _den)`, for a seeded polynomial whose
    denominator is not 1 and for the zero and a constant polynomial, at
    points with negative and zero entries."""
    sampler = RationalSampler(seed)
    polys = [
        sampler.polynomial(VARS, max_degree=4, n_terms=5),
        Polynomial.zero(VARS),
        Polynomial.const(VARS, sampler.nonzero()),
    ]
    assert polys[0]._den != 1
    points = [
        tuple(sampler.integer(-9, 9) for _ in VARS),
        tuple(-sampler.integer(1, 9) if i % 2 else 0 for i in range(len(VARS))),
        (0,) * len(VARS),
    ]
    for p in polys:
        for point in points + points:
            numerator = p.eval_numerator(point)
            assert type(numerator) is int and Fraction(numerator, p._den) == p.eval(point)
        with pytest.raises(ValueError):
            p.eval_numerator(points[0][1:])


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_poly_ring_round_trips(seed):
    sampler = RationalSampler(seed)
    p = sampler.polynomial(VARS, 3, 4)
    q = sampler.polynomial(VARS, 3, 4)
    point = sampler.point(len(VARS))
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)
    assert (p - p) == Polynomial.zero(VARS)


def test_parse_round_trip_and_rejection():
    p = parse_polynomial("3/2 * q^2 * p1 + -1 * e + 4", VARS)
    assert p.eval((1, 0, 2, 0, 0)) == Fraction(3, 2) * 2 + 4
    assert parse_polynomial(p.to_text(), VARS) == p
    assert parse_polynomial("0", VARS) == Polynomial.zero(VARS)
    with pytest.raises(ValueError):
        parse_polynomial("q + unknown_var", VARS)
    with pytest.raises(ValueError):
        parse_polynomial("q +", VARS)
    # a run of signs with no term after it is not the zero polynomial
    for text in ("-", "--", " - "):
        with pytest.raises(ValueError, match="dangling operator"):
            parse_polynomial(text, VARS)


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_parse_to_text_round_trip_random(seed):
    p = sampler_poly(seed)
    assert parse_polynomial(p.to_text(), VARS) == p


def test_substitution():
    p = Polynomial.var(VARS, "q") ** 2 + Polynomial.var(VARS, "e")
    sub = p.subs({"q": Polynomial.var(VARS, "p1") + 1})
    expect = (Polynomial.var(VARS, "p1") + 1) ** 2 + Polynomial.var(VARS, "e")
    assert sub == expect


@given(st.text(alphabet="qep1 +-*/^x_()#0123456789", max_size=40))
@settings(max_examples=200)
def test_parser_rejects_garbage_cleanly(text):
    """Arbitrary token soup either parses or raises ValueError; no other
    exception type escapes.  What parses carries no exponent above
    MAX_EXPONENT and comes back from its canonical text."""
    try:
        p = parse_polynomial(text, VARS)
    except ValueError:
        return
    assert all(max(expo) <= MAX_EXPONENT for expo in p.terms)
    assert parse_polynomial(p.to_text(), VARS) == p


def test_sampler_is_deterministic():
    a = RationalSampler(42)
    b = RationalSampler(42)
    assert [a.rational() for _ in range(20)] == [b.rational() for _ in range(20)]
    assert a.point(5) == b.point(5)
    for _ in range(50):
        value = a.rational()
        assert -9 <= value.numerator <= 9 or abs(value.numerator) <= 9 * 3
        assert value.denominator in (1, 2, 3)


def test_sampler_draws_are_those_of_randint_and_choice():
    """`rational`, `nonzero`, `point` and `sixths` read `getrandbits`
    directly; the values and the generator state after them are those of
    CPython's `randint(-9, 9)` and `choice((1, 2, 3))`, with the other draws
    of the same generator interleaved.  `sixths` is 6 * `rational()`, an
    `int`, draw for draw."""
    for seed in range(200):
        sampler = RationalSampler(seed)
        reference = random.Random(seed)

        def rational():
            return Fraction(reference.randint(-9, 9), reference.choice((1, 2, 3)))

        def nonzero():
            while True:
                value = rational()
                if value:
                    return value

        for _ in range(3):
            assert [sampler.rational() for _ in range(20)] == [rational() for _ in range(20)]
            assert [sampler.nonzero() for _ in range(10)] == [nonzero() for _ in range(10)]
            assert sampler.point(7) == tuple(rational() for _ in range(7))
            assert sampler.integer(0, 5) == reference.randint(0, 5)
            sixths = [sampler.sixths() for _ in range(20)]
            assert sixths == [6 * rational() for _ in range(20)]
            assert all(type(v) is int for v in sixths)
            assert sampler.choice("abc") == reference.choice("abc")
        assert sampler._rng.getstate() == reference.getstate()


# -- sympy oracle for Polynomial arithmetic -----------------------------------
#
# The strategies hit every shortcut of the ring operations: the zero
# polynomial, one-term constants (±1 among them), scalars 0 and ±1, and
# general sparse polynomials.  Every result must be clean (nonzero Fraction
# coefficients, exponent tuples of the right length), and no operation may
# mutate an operand, also when the result is an operand (`p * 1 is p`).

ORACLE_VARS = ("x", "y", "z")

_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_nonzero = _rationals.filter(bool)
_unit_or_rational = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), _nonzero)
_scalars = st.one_of(st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
                     st.integers(-5, 5), _rationals)
_polynomials = st.one_of(
    st.just({}),
    _unit_or_rational.map(lambda c: {(0, 0, 0): c}),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _nonzero, min_size=1, max_size=5),
).map(lambda terms: Polynomial(ORACLE_VARS, terms))


def _sympy_of(sympy, p: Polynomial):
    symbols = sympy.symbols(ORACLE_VARS)
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[s**e for s, e in zip(symbols, expo)])
        for expo, c in p.terms.items()
    ])


def _assert_matches(sympy, result: Polynomial, expr) -> None:
    """`result` is clean and has exactly the terms of the sympy expression."""
    assert result.variables == ORACLE_VARS
    for expo, coeff in result.terms.items():
        assert len(expo) == len(ORACLE_VARS) and all(type(e) is int and e >= 0 for e in expo)
        assert type(coeff) is Fraction and coeff != 0
    expected = sympy.Poly(sympy.expand(expr), *sympy.symbols(ORACLE_VARS)).as_dict()
    assert result.terms == {tuple(int(e) for e in expo): Fraction(int(c.p), int(c.q)) for expo, c in expected.items()}


def _snapshot(value):
    return (value.variables, tuple(value.terms.items())) if isinstance(value, Polynomial) else value


def _without_mutation(compute, *operands):
    """Run `compute()` and then further operations on its result; neither
    may change an operand or the result."""
    before = [_snapshot(op) for op in operands]
    result = compute()
    kept = _snapshot(result)
    for follow_up in (lambda r: r + r, lambda r: r - r, lambda r: r * r, lambda r: -r, lambda r: r * 1,
                      lambda r: r * -1, lambda r: r**2, lambda r: r.diff("x")):
        follow_up(result)
    assert [_snapshot(op) for op in operands] == before
    assert _snapshot(result) == kept
    return result


@given(_polynomials, _polynomials)
@settings(max_examples=120, deadline=None)
def test_ring_operations_match_sympy(p, q):
    sympy = pytest.importorskip("sympy")
    sp, sq = _sympy_of(sympy, p), _sympy_of(sympy, q)
    _assert_matches(sympy, _without_mutation(lambda: p + q, p, q), sp + sq)
    _assert_matches(sympy, _without_mutation(lambda: p - q, p, q), sp - sq)
    _assert_matches(sympy, _without_mutation(lambda: p * q, p, q), sp * sq)
    _assert_matches(sympy, _without_mutation(lambda: q * p, p, q), sq * sp)
    # the cross terms cancel inside the product
    _assert_matches(sympy, _without_mutation(lambda: (p + q) * (p - q), p, q), (sp + sq) * (sp - sq))
    _assert_matches(sympy, _without_mutation(lambda: -p, p), -sp)


@given(_polynomials, _scalars)
@settings(max_examples=120, deadline=None)
def test_scalar_operations_match_sympy(p, c):
    sympy = pytest.importorskip("sympy")
    sp, sc = _sympy_of(sympy, p), sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
    _assert_matches(sympy, _without_mutation(lambda: p * c, p, c), sp * sc)
    _assert_matches(sympy, _without_mutation(lambda: c * p, p, c), sc * sp)
    _assert_matches(sympy, _without_mutation(lambda: p + c, p, c), sp + sc)
    _assert_matches(sympy, _without_mutation(lambda: c - p, p, c), sc - sp)


@given(_polynomials, st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_powers_match_sympy(p, exponent):
    sympy = pytest.importorskip("sympy")
    _assert_matches(sympy, _without_mutation(lambda: p**exponent, p), _sympy_of(sympy, p) ** exponent)


@given(_polynomials, _polynomials, _scalars, st.tuples(*[_rationals] * 3))
@settings(max_examples=80, deadline=None)
def test_diff_eval_and_subs_match_sympy(p, q, c, point):
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols(ORACLE_VARS)
    sp = _sympy_of(sympy, p)
    for name, symbol in zip(ORACLE_VARS, (x, y, z)):
        _assert_matches(sympy, _without_mutation(lambda: p.diff(name), p), sympy.diff(sp, symbol))
    value = sp.subs({s: sympy.Rational(v.numerator, v.denominator) for s, v in zip((x, y, z), point)})
    assert p.eval(point) == Fraction(int(value.p), int(value.q))
    sc = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
    substituted = _without_mutation(lambda: p.subs({"x": q, "z": c}), p, q, c)
    _assert_matches(sympy, substituted, sp.subs({x: _sympy_of(sympy, q), z: sc}, simultaneous=True))


# -- the integer-numerator representation ----------------------------------
#
# A Fraction-dict reference of the ring operations, in the insertion order
# that the terms view must reproduce: sums keep the left operand's terms and
# append new ones, a zero sum drops its key, products accumulate in the
# nested term order and powers square and multiply from the low bit.

_ZERO_EXPONENT = (0,) * len(ORACLE_VARS)


def _ref_add(a, b, sign=1):
    out = dict(a)
    for expo, coeff in b.items():
        total = out.get(expo, 0) + sign * coeff
        if total:
            out[expo] = total
        else:
            out.pop(expo, None)
    return out


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            expo = tuple(x + y for x, y in zip(ea, eb))
            total = out.get(expo, 0) + ca * cb
            if total:
                out[expo] = total
            else:
                del out[expo]
    return out


def _ref_pow(a, exponent):
    result, base = None, a
    while exponent:
        if exponent & 1:
            result = base if result is None else _ref_mul(result, base)
        exponent >>= 1
        if exponent:
            base = _ref_mul(base, base)
    return {_ZERO_EXPONENT: Fraction(1)} if result is None else result


def _ref_scale(a, c):
    return {expo: coeff * c for expo, coeff in a.items()} if c else {}


def _ref_diff(a, idx):
    return {expo[:idx] + (expo[idx] - 1,) + expo[idx + 1:]: coeff * expo[idx] for expo, coeff in a.items() if expo[idx]}


def _ref_subs(a, images):
    out = {}
    for expo, coeff in a.items():
        term = {_ZERO_EXPONENT: coeff}
        for idx, e in enumerate(expo):
            if e:
                term = _ref_mul(term, _ref_pow(images[idx], e))
        out = _ref_add(out, term)
    return out


def _assert_canonical(p: Polynomial, reference: dict) -> None:
    """Positive denominator, no common factor with the nonzero integer
    numerators (so zero has denominator 1), and the Fraction view equal to
    the reference in value and key order."""
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    assert list(p.terms.items()) == list(reference.items())


_term_dicts = st.one_of(
    st.just({}),
    _unit_or_rational.map(lambda c: {_ZERO_EXPONENT: c}),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _nonzero, min_size=1, max_size=5),
)


@given(_term_dicts, _term_dicts, _rationals)
@settings(max_examples=150, deadline=None)
def test_storage_is_canonical_and_the_terms_view_keeps_the_reference_order(a, b, c):
    p, q = Polynomial(ORACLE_VARS, a), Polynomial(ORACLE_VARS, b)
    _assert_canonical(p, a)
    _assert_canonical(p + q, _ref_add(a, b))
    _assert_canonical(p - q, _ref_add(a, b, -1))
    _assert_canonical(p * q, _ref_mul(a, b))
    _assert_canonical(p**3, _ref_pow(a, 3))
    _assert_canonical(p * c, _ref_scale(a, c))
    if c:
        _assert_canonical(p._scale(c.numerator, c.denominator), _ref_scale(a, c))
    for idx, name in enumerate(ORACLE_VARS):
        _assert_canonical(p.diff(name), _ref_diff(a, idx))
    images = [b, {_ZERO_EXPONENT: c} if c else {}, {(0, 0, 1): Fraction(1)}]
    _assert_canonical(p.subs({"x": q, "y": c}), _ref_subs(a, images))
    # cancellation to zero leaves the canonical zero
    for zero in (p - p, p + (-p), p * 0, (p + q) - (q + p)):
        _assert_canonical(zero, {})
        assert zero._den == 1 and not zero._num


@given(_term_dicts, _term_dicts, _rationals)
@settings(max_examples=150, deadline=None)
def test_equal_polynomials_built_by_different_routes_compare_and_hash_equal(a, b, c):
    p, q = Polynomial(ORACLE_VARS, a), Polynomial(ORACLE_VARS, b)
    pairs = [
        (p * q, q * p),
        ((p + q) - q, p),
        (p * c + q * c, (p + q) * c),
        ((p + q) * (p - q), p * p - q * q),
        (p.subs({"x": q}).diff("y"), p.diff("y").subs({"x": q}) + p.diff("x").subs({"x": q}) * q.diff("y")),
    ]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)
