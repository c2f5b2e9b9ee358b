from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_aof_like_candidate, random_form
from multisymp.algebra import Polynomial, RationalSampler
from multisymp.brackets import DivisionResult, form_division
from multisymp.charts import builtin_chart
from multisymp.dynamics import (
    OmegaContraction,
    annihilator_span,
    contraction_form,
    decomposable_pairing,
    observability_family,
    solver_family,
)
from multisymp.exterior import (
    PolyForm,
    PolyMultivector,
    _hook_terms,
    _pair_terms,
    _wedge_terms,
    all_index_tuples,
    eval_terms,
    form_basis,
    hook,
    vector_basis,
    wedge,
)
from multisymp import linalg
from multisymp.linalg import nullspace, sparse_minor
from multisymp.observables import NotAOF, copolar_membership, maxwell_copolarization, solve_contraction

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


integer_entries = st.one_of(st.none(), st.just(0), st.integers(-30, 30))


@st.composite
def sparse_rows(draw, max_size=5, entries=entries):
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


@given(sparse_rows(entries=integer_entries), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_minor_stays_in_the_integers(rows, data):
    """Integer rows give an `int` minor, equal to the oracle and to the
    minor of the same rows as Fractions.  A nonzero minor of Fraction rows
    is a Fraction, except the empty minor, which is `int` 1 in any ring."""
    columns = tuple(sorted(data.draw(st.sets(st.integers(0, COLUMNS - 1), min_size=len(rows), max_size=len(rows)))))
    minor = sparse_minor(rows, columns, {})
    assert type(minor) is int
    assert minor == permutation_det(rows, columns)
    as_fractions = sparse_minor([{c: Fraction(v) for c, v in row.items()} for row in rows], columns, {})
    assert as_fractions == minor
    if rows and minor:
        assert type(as_fractions) is Fraction


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


def test_nullspace_of_integer_rows_is_fractions():
    """Integer input is normalised with a Fraction reciprocal: no int or
    float survives into the kernel or the basis rows."""
    for matrix in ([[1, 0]], [[2, 1, 0], [4, 3, 1]], [[0, 3, 6], [1, 1, 1], [1, 4, 7]]):
        kernel = nullspace(matrix)
        assert kernel
        assert all(type(v) is Fraction for vec in kernel for v in vec)
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in matrix for vec in kernel)
    assert all(type(v) is Fraction for row in annihilator_span([[2, 4], [1, 3]]) for v in row)


# -- the span solver against the old dense solver --------------------------------
#
# `rref`, `LinearSolver` and `column_space_rref` below are the old dense
# solver, kept verbatim as the reference; `linalg.LinearSolver`, `linalg.rref`
# and `linalg.column_space_rref` are the span solver built on `RowBasis` that
# replaced it.

Matrix = list[list[Fraction]]


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, Matrix, list[int]]:
    """Reduced row echelon form.

    Returns (R, E, pivots) with E @ A = R, E square and invertible, and
    `pivots` the pivot column of each leading row.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    r = [[Fraction(x) for x in row] for row in matrix]
    e = [[Fraction(1 if i == j else 0) for j in range(rows)] for i in range(rows)]
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        pivot_row = next((i for i in range(lead, rows) if r[i][col] != 0), None)
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        e[lead], e[pivot_row] = e[pivot_row], e[lead]
        inv = 1 / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        e[lead] = [x * inv for x in e[lead]]
        for i in range(rows):
            if i != lead and r[i][col] != 0:
                factor = r[i][col]
                r[i] = [a - factor * b for a, b in zip(r[i], r[lead])]
                e[i] = [a - factor * b for a, b in zip(e[i], e[lead])]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, e, pivots


def column_space_rref(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis (RREF rows) of the span of the given vectors.

    Useful for comparing subspaces exactly: two spans are equal iff their
    canonical bases are equal.
    """
    if not vectors:
        return []
    r, _, pivots = rref(vectors)
    return [row for row in r[: len(pivots)]]


class LinearSolver:
    """Solve A x = b exactly for a fixed rational A and varied b.

    The right-hand side entries may be any ring elements that support
    addition and multiplication by Fraction (Fraction or Polynomial);
    solutions come back in the same ring.  Free variables are set to zero
    in the particular solution.
    """

    def __init__(self, matrix: Sequence[Sequence[Fraction]]):
        self.rows = len(matrix)
        self.cols = len(matrix[0]) if self.rows else 0
        _, self.e, self.pivots = rref(matrix)
        self.rank = len(self.pivots)

    def solve(self, rhs: Sequence) -> list | None:
        """Particular solution of A x = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError(f"rhs has length {len(rhs)}, expected {self.rows}")
        zero = 0 * rhs[0] if self.rows else Fraction(0)
        transformed = []
        for i in range(self.rows):
            acc = zero
            for j, coeff in enumerate(self.e[i]):
                if coeff:
                    acc = acc + coeff * rhs[j]
            transformed.append(acc)
        for i in range(self.rank, self.rows):
            if transformed[i]:
                return None
        solution = [zero for _ in range(self.cols)]
        for row_idx, p in enumerate(self.pivots):
            solution[p] = transformed[row_idx]
        return solution


def reference_rows(columns) -> list:
    """Keys in first-seen order whose row raises the rank under `rref`."""
    picked: list = []
    rows: list[list[Fraction]] = []
    for key in dict.fromkeys(key for column in columns for key in column):
        row = [column.get(key, Fraction(0)) for column in columns]
        if len(rref(rows + [row])[2]) > len(rows):
            picked.append(key)
            rows.append(row)
        if len(rows) == len(columns):
            break
    return picked


def reference_solution(columns, picked, target, zero) -> list:
    """`LinearSolver`'s particular solution on the picked rows.  It reads
    its width from the first row, so a system without rows is all zero."""
    if not picked:
        return [zero] * len(columns)
    matrix = [[column.get(key, Fraction(0)) for column in columns] for key in picked]
    solution = LinearSolver(matrix).solve([target.get(key, zero) for key in picked])
    assert solution is not None  # the picked rows are independent
    return solution


VARIABLES = ("a", "b")
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polynomials = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), fractions, max_size=3
).map(lambda terms: Polynomial(VARIABLES, terms))


@st.composite
def span_problems(draw):
    """0-6 sparse Fraction columns over 0-8 keys met in shuffled order, some
    columns combinations of earlier ones; a target in the span, or an
    arbitrary one that may also use a key outside every column, with
    Fraction or Polynomial entries.  Returns (columns, target, zero, in_span)."""
    keys = draw(st.permutations(range(draw(st.integers(0, 8)))))
    columns: list[dict[int, Fraction]] = []
    for _ in range(draw(st.integers(0, 6))):
        if columns and draw(st.integers(0, 2)) == 0:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            s, t = draw(fractions), draw(fractions)
            column = {key: s * a.get(key, 0) + t * b.get(key, 0) for key in keys if key in a or key in b}
        else:
            values = draw(st.lists(entries, min_size=len(keys), max_size=len(keys)))
            column = {key: v for key, v in zip(keys, values) if v is not None}
        columns.append(column)
    kind = draw(st.sampled_from(["fraction span", "polynomial span", "fraction", "polynomial"]))
    ring = polynomials if kind.startswith("polynomial") else fractions
    zero = Polynomial(VARIABLES) if ring is polynomials else Fraction(0)
    target: dict = {}
    if not kind.endswith("span"):
        for key in draw(st.lists(st.sampled_from(list(keys) + [len(keys)]), max_size=5)):
            target[key] = draw(ring)
        return columns, target, zero, False
    for column in columns:
        x = draw(ring)
        for key, value in column.items():
            target[key] = target.get(key, zero) + x * value
    return columns, target, zero, True


@given(span_problems())
@settings(max_examples=200, deadline=None)
def test_span_solve_matches_the_dense_reference(problem):
    """Same picked rows and coefficients as the dense solver; the residual
    is exactly what the reference's reconstruction leaves over."""
    columns, target, zero, in_span = problem
    span = linalg.LinearSolver(columns)
    coefficients, residual = span.solve(target, zero)
    picked = reference_rows(columns)
    assert span.keys == picked
    reference = reference_solution(columns, picked, target, zero)
    assert coefficients == reference
    recon: dict = {}
    for x, column in zip(reference, columns):
        for key, value in column.items():
            recon[key] = recon.get(key, zero) + x * value
    keys = dict.fromkeys([*target, *recon])
    assert (residual == {}) == all(target.get(key, zero) == recon.get(key, zero) for key in keys)
    difference = {key: target.get(key, zero) - recon.get(key, zero) for key in keys}
    assert residual == {key: r for key, r in difference.items() if r}
    if in_span:
        assert residual == {}


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_row_basis_rows_are_the_canonical_rref(matrix):
    assert annihilator_span(matrix) == linalg.column_space_rref(matrix) == column_space_rref(matrix)


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_the_dense_reference(matrix):
    """Same RREF rows and pivots as the dense reference, E @ A == R, and
    the same E as the reference when the rows are independent (E is then
    unique)."""
    r, e, pivots = linalg.rref(matrix)
    ref_r, ref_e, ref_pivots = rref(matrix)
    assert pivots == ref_pivots
    assert r == ref_r[: len(ref_pivots)]
    cols = len(matrix[0]) if matrix else 0
    assert [[sum(x * row[j] for x, row in zip(e_row, matrix)) for j in range(cols)] for e_row in e] == r
    if len(pivots) == len(matrix):
        assert e == ref_e


# -- the callers against the dense reference on the built-in charts ---------------


def reference_solve_contraction(chart, target):
    frame = chart.frame
    omega = chart.omega
    columns = [
        {key: c.constant_value() for key, c in hook(vector_basis(frame, name), omega).terms.items()}
        for name in frame.names
    ]
    solution = reference_solution(columns, reference_rows(columns), target.terms, frame.poly_zero())
    xi = PolyMultivector(frame, 1, {(j,): x for j, x in enumerate(solution) if x})
    residual = target - hook(xi, omega)
    return NotAOF(residual=residual) if residual else xi


def reference_copolar_membership(copol, mu):
    p = mu.degree
    if not 1 <= p <= copol.chart.n:
        return False, None
    gens = copol.degree(p)
    frame = copol.chart.frame
    columns = [{key: c.constant_value() for key, c in g.terms.items()} for g in gens]
    solution = reference_solution(columns, reference_rows(columns), mu.terms, frame.poly_zero())
    recon = PolyForm.zero(frame, p)
    for coeff, g in zip(solution, gens):
        if coeff:
            recon = recon + g.scale(coeff)
    return (True, solution) if recon == mu else (False, None)


def reference_form_division(phi, divisors):
    frame = phi.frame
    w = divisors[0]
    for a in divisors[1:]:
        w = wedge(w, a)
    chi_keys = all_index_tuples(frame.dim, phi.degree - len(divisors))
    w_num = {k: c.constant_value() for k, c in w.terms.items()}
    columns = [_wedge_terms(w_num, {key: Fraction(1)}) for key in chi_keys]
    solution = reference_solution(columns, reference_rows(columns), phi.terms, frame.poly_zero())
    chi = PolyForm(frame, phi.degree - len(divisors), {key: x for key, x in zip(chi_keys, solution) if x})
    residual = phi - wedge(w, chi)
    if residual:
        return DivisionResult(quotient=None, residual=residual)
    return DivisionResult(quotient=chi, residual=None)


BUILTIN_CHARTS = [
    "lepage-dedecker:2,2", "lepage-dedecker:2,3", "lepage-dedecker-split:2,2", "ddw:2,2", "ddw:3,2",
    "maxwell", "scalar:2", "scalar:2,gauged",
]


@pytest.mark.parametrize("label", BUILTIN_CHARTS)
def test_span_callers_match_the_dense_reference(label):
    """`solve_contraction` and `form_division` on seeded candidate n-forms
    of all four kinds, each reaching both outcomes."""
    chart = builtin_chart(label)
    frame = chart.frame
    sampler = RationalSampler(29)
    forms = [chart.volume_form()] + [random_aof_like_candidate(chart, sampler, kind) for kind in list(range(4)) * 2]
    solved, divided = set(), set()
    for form in forms:
        result = solve_contraction(chart, form)
        assert result == reference_solve_contraction(chart, form)
        solved.add(not isinstance(result, NotAOF))
        divisors = [form_basis(frame, name) for name in chart.horizontal]
        division = form_division(form, divisors)
        assert division == reference_form_division(form, divisors)
        divided.add(division.divisible)
    assert solved == {True, False}
    assert divided == {True, False}


def test_form_division_by_combined_differentials_matches_the_dense_reference():
    """Divisors that are not coordinate differentials, so that their
    wedge W has several terms: a multiple of W divides, while a form that
    agrees with it on W's first key and differs elsewhere does not."""
    chart = builtin_chart("lepage-dedecker:3,1")
    frame = chart.frame
    dq1, dq2, dq3 = (form_basis(frame, name) for name in ("q1", "q2", "q3"))
    divisors = [dq1 + dq2.scale(2), dq2 - dq3]
    w = wedge(*divisors)
    assert len(w.terms) == 3
    c = frame.parse_poly("3/2 + q1*p123 - q4^2")
    phi = w.scale(c)
    division = form_division(phi, divisors)
    assert division == reference_form_division(phi, divisors)
    assert division.quotient == PolyForm(frame, 0, {(): c})
    zero = form_division(PolyForm.zero(frame, 2), divisors)
    assert zero == reference_form_division(PolyForm.zero(frame, 2), divisors)
    assert zero.quotient == PolyForm.zero(frame, 0)
    off = form_basis(frame, "q2", "q3").scale(frame.poly_var("p124"))
    outside = form_basis(frame, "q1", "q4").scale(c)
    for phi, residual in ((w.scale(c) + off, off), (outside, outside)):
        division = form_division(phi, divisors)
        assert division == reference_form_division(phi, divisors)
        assert not division.divisible and division.residual == residual


def test_copolar_membership_matches_the_dense_reference():
    """Every Maxwell copolarization degree: the generators, polynomial
    combinations of them, and random forms; both outcomes."""
    cop = maxwell_copolarization()
    chart = cop.chart
    frame = chart.frame
    sampler = RationalSampler(31)
    outcomes = set()
    for p in range(1, chart.n + 1):
        gens = cop.degree(p)
        forms = list(gens) + [random_form(frame, p, sampler) for _ in range(3)]
        for _ in range(3):
            combination = PolyForm.zero(frame, p)
            for g in sampler.sample(gens, min(3, len(gens))):
                combination = combination + g.scale(sampler.polynomial(frame.names, max_degree=1, n_terms=2))
            forms.append(combination)
        if p == chart.n:
            forms += [random_aof_like_candidate(chart, sampler, kind) for kind in range(4)]
        for mu in forms:
            result = copolar_membership(cop, mu)
            assert result == reference_copolar_membership(cop, mu)
            outcomes.add(result[0])
    assert outcomes == {True, False}


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
            assert decomposable_pairing(factors, [form_num])[0] == (_pair_terms(expanded, form_num) or Fraction(0))
    # the Hamilton solver's factors: one Polynomial variable per parameter
    family = solver_family(chart)
    pvars = tuple(f"t{slot}_{c}" for slot, c in family.params)
    factors = []
    pos = 0
    for h in family.horizontal:
        factor = {(h,): Polynomial.const(pvars, 1)}
        for c in family.free:
            factor[(c,)] = Polynomial.var(pvars, pvars[pos])
            pos += 1
        factors.append(factor)
    expanded = factors[0]
    for f in factors[1:]:
        expanded = _wedge_terms(expanded, f)
    contraction = omega.of_factors(factors)
    assert contraction and contraction == _hook_terms(expanded, omega_num)


def test_fraction_factors_give_fraction_pairings_and_contractions():
    """The minor routine is ring-generic, but its `Fraction` callers still
    answer in `Fraction`, also for a form whose keys all miss the factors
    (there no minor is taken at all)."""
    chart = builtin_chart("lepage-dedecker:2,2")
    sampler = RationalSampler(13)
    point = sampler.point(chart.dim)
    omega = OmegaContraction(eval_terms(chart.omega.terms, point))
    base = chart.frame.base_indices()
    family = observability_family(chart, base[-chart.n :])
    params = [sampler.rational() for _ in family.params]
    factors = family.factors(params)
    expanded = family.expand(params)
    contraction = omega.of_factors(factors)
    assert contraction and all(type(v) is Fraction for v in contraction.values())
    missed = tuple(base[: chart.n])
    met = {key: sampler.nonzero() for key in combinations(family.horizontal + family.free[:2], chart.n)}
    for form_num in ({}, {missed: Fraction(3)}, met, {**met, missed: Fraction(-1)}):
        value = decomposable_pairing(factors, [form_num])[0]
        assert type(value) is Fraction
        assert value == (_pair_terms(expanded, form_num) or Fraction(0))
    assert decomposable_pairing(factors, [{missed: Fraction(3)}])[0] == 0 != decomposable_pairing(factors, [met])[0]


def test_one_sweep_pairs_every_form_as_the_wedge_expansion_does():
    """`decomposable_pairing` over several forms at once gives, form by
    form, the pairing with the expanded wedge and the value and type of a
    one-form call, for `Fraction`, `int` and `Polynomial` factors; the
    empty form and a form whose keys all miss the factors read
    `Fraction(0)`."""
    chart = builtin_chart("lepage-dedecker:2,2")
    sampler = RationalSampler(17)
    base = chart.frame.base_indices()
    family = observability_family(chart, base[-chart.n :])
    pvars = tuple(f"t{slot}_{c}" for slot, c in family.params)
    int_factors = [{key: int(v) for key, v in f.items()} for f in family.factors([sampler.integer(-4, 4) for _ in pvars])]
    rings = {
        Fraction: (family.factors([sampler.rational() for _ in pvars]), sampler.nonzero),
        int: (int_factors, lambda: sampler.integer(1, 9)),
        Polynomial: (family.factors([Polynomial.var(pvars, v) for v in pvars]), sampler.nonzero),
    }
    met_keys = list(combinations(family.horizontal + family.free, chart.n))
    missed = tuple(base[: chart.n])
    for ring, (factors, coefficient) in rings.items():
        expanded = factors[0]
        for f in factors[1:]:
            expanded = _wedge_terms(expanded, f)
        forms = [{key: coefficient() for key in sampler.sample(met_keys, 6)} for _ in range(3)]
        forms += [{}, {missed: coefficient()}, {**forms[0], missed: coefficient()}]
        values = decomposable_pairing(factors, forms)
        assert len(values) == len(forms)
        for form, value in zip(forms, values):
            assert value == (_pair_terms(expanded, form) or Fraction(0))
            single = decomposable_pairing(factors, [form])[0]
            assert value == single and type(value) is type(single)
        assert [type(v) for v in values] == [ring] * 3 + [Fraction, Fraction, ring]
