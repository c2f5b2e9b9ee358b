from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp.algebra import RationalSampler
from multisymp.charts import builtin_chart
from multisymp.dynamics import (
    OmegaContraction,
    contraction_form,
    decomposable_pairing,
    observability_family,
)
from multisymp.exterior import _pair_terms, eval_terms
from multisymp.linalg import nullspace, sparse_minor

COLUMNS = 7


# -- independent oracle -------------------------------------------------------


def permutation_det(rows, columns):
    """Literal determinant over all permutations; absent entries are zero."""
    size = len(columns)
    total = Fraction(0)
    for perm in permutations(range(size)):
        inversions = sum(1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j])
        product = Fraction(-1 if inversions % 2 else 1)
        for row, pos in enumerate(perm):
            product *= rows[row].get(columns[pos], Fraction(0))
        total += product
    return total


entries = st.one_of(
    st.none(),
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def sparse_rows(draw, max_size=5):
    """Up to max_size sparse rows over COLUMNS columns, with absent and
    explicitly zero entries."""
    size = draw(st.integers(0, max_size))
    rows = []
    for _ in range(size):
        values = draw(st.lists(entries, min_size=COLUMNS, max_size=COLUMNS))
        rows.append({c: v for c, v in enumerate(values) if v is not None})
    return rows


@given(sparse_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_minor_matches_permutation_expansion(rows, data):
    columns = tuple(sorted(data.draw(st.sets(st.integers(0, COLUMNS - 1), min_size=len(rows), max_size=len(rows)))))
    assert sparse_minor(rows, columns, {}) == permutation_det(rows, columns)


@given(sparse_rows(max_size=4))
@settings(max_examples=60, deadline=None)
def test_shared_memo_serves_every_minor_of_the_rows(rows):
    memo = {}
    for columns in combinations(range(COLUMNS), len(rows)):
        assert sparse_minor(rows, columns, memo) == permutation_det(rows, columns)


@given(sparse_rows(), st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_minor_matches_sympy(rows, data):
    sympy = pytest.importorskip("sympy")
    columns = tuple(sorted(data.draw(st.sets(st.integers(0, COLUMNS - 1), min_size=len(rows), max_size=len(rows)))))
    dense = [
        [sympy.Rational(v.numerator, v.denominator) for v in (row.get(c, Fraction(0)) for c in columns)]
        for row in rows
    ]
    det = sympy.Matrix(len(rows), len(rows), [v for row in dense for v in row]).det()
    assert sparse_minor(rows, columns, {}) == Fraction(int(det.p), int(det.q))


@st.composite
def sparse_matrices(draw):
    """Dense Fraction matrices of 0-6 rows and 0-6 columns, mostly zero.
    A matrix without rows has no columns either: `nullspace` reads the
    column count from the first row."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6)) if rows else 0
    entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4))
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_sympy_rank(matrix):
    """The kernel has dimension cols - rank (rank from sympy), every basis
    vector solves A v == 0 exactly, and the basis is independent."""
    sympy = pytest.importorskip("sympy")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def to_sympy(vectors, width):
        flat = [sympy.Rational(v.numerator, v.denominator) for vec in vectors for v in vec]
        return sympy.Matrix(len(vectors), width, flat)

    kernel = nullspace(matrix)
    assert len(kernel) == cols - to_sympy(matrix, cols).rank()
    for vec in kernel:
        assert len(vec) == cols
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in matrix)
    assert to_sympy(kernel, cols).rank() == len(kernel)


# -- minors against the full wedge expansion ----------------------------------


@pytest.mark.parametrize("label", ["maxwell", "ddw:3,2", "lepage-dedecker:2,3"])
def test_minor_contraction_and_pairing_match_the_wedge_expansion(label):
    chart = builtin_chart(label)
    sampler = RationalSampler(11)
    point = sampler.point(chart.dim)
    omega_num = eval_terms(chart.omega.terms, point)
    omega = OmegaContraction(omega_num)
    keys = list(combinations(range(chart.dim), chart.n))
    families = list(combinations(chart.frame.base_indices(), chart.n))
    for horizontal in sampler.sample(families, min(3, len(families))):
        family = observability_family(chart, horizontal)
        for _ in range(2):
            params = [sampler.rational() for _ in family.params]
            factors = family.factors(params)
            expanded = family.expand(params)
            assert omega.of_factors(factors) == contraction_form(expanded, omega_num)
            form_num = {key: sampler.nonzero() for key in sampler.sample(keys, min(12, len(keys)))}
            assert decomposable_pairing(factors, form_num) == (_pair_terms(expanded, form_num) or Fraction(0))
