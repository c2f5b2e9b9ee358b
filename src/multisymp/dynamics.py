"""Pointwise Hamiltonian dynamics on a chart.

Everything here happens at a fixed rational point m of a chart, where the
multisymplectic form and the differential of the Hamiltonian become
rational data and all linear algebra is exact.

Decomposable n-vectors are explored through *vertical-lift families*: a
family is indexed by an increasing n-tuple of base coordinates, and its
members are X = X_1 ^ ... ^ X_n with

    X_slot = d/dq^{a_slot}  +  sum over free coordinates  t * d/dv.

For observability sampling the free coordinates are the fiber
(momentum/energy) directions.  Whether X -> X . Omega is then affine in
the parameters is decided exactly from Omega, once per family
(`OmegaContraction.affine_on`, by subset tests); on an affine family the
kernel of the linear part generates exact pairs with equal contraction,
which is what the observability property quantifies over, so the sampler
never recomputes a contraction.  Its pairings are computed on the form's
support: only the parameters of columns the form reads enter the factors,
and a direction that is zero on all of them is counted as a sample
without being evaluated, since it cannot change the value; after the last
family whose kernel reaches that support, samples are counted and not
drawn.  Each family whose kernel reaches the support is paired once, over
symbolic factors: the pairing is one polynomial in a scale variable and
the active parameters, summed from the minors of the form's keys that the
family keeps in a table in the family cache, and every sample value is
its integer evaluation at the integer numerators the sampler holds: the
form over one denominator per call, each family's kernel as it is kept
in the family cache (the nonzero entries of each vector, over one
denominator per family), and the draws as integers over 6
(`RationalSampler.sixths`).  The polynomial is homogeneous, so two values
are compared as integers by cross-multiplication, and a `Fraction` is
built only for a counterexample.

For solving the Hamilton equation the free coordinates are all
non-selected directions and the polynomial system is reduced by
substituting one affine equation at a time.  The affine family of
solutions is read through one schedule of representatives: its base and
unit moves serve `verify` and the pseudobracket, all of it the pseudofibers.

Every computing path that contracts or pairs a decomposable n-vector
given by its factors (entries `Fraction`, `int` or `Polynomial`) goes
through one minor sweep, `decomposable_pairing`, which pairs them with a
list of forms by `linalg.sparse_minor` under one shared memo: the
contraction `OmegaContraction.of_factors` (the n-forms of its plan), the
pseudofiber rows (the plan hooked by a unit factor), the minors of the
sampler's family tables, the pseudobracket and the pseudofiber integrand
check.  A constant Omega's `OmegaContraction` is built once per chart
(`Chart.omega_contraction`) and read by the sampler, the Hamilton solver,
`frame_compatible_hamiltonian` and `pseudofiber_directions`; a solution
keeps its evaluated Omega, which `verify` hooks.  Only a family's
linear part (all factors unit) is read off the plan inverted once per
Omega, by one lookup per parameter.  The checks that must be independent
of that route do not use minors:
`HamiltonianSolution.verify` hooks the factors into Omega one at a time,
and `recheck_of_counterexample` and `plucker_check` expand the wedge in
full.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from fractions import Fraction
from itertools import chain, combinations, islice
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .algebra import Polynomial, RationalSampler, sort_with_sign
from .charts import Chart
from .exterior import (
    PolyForm,
    PolyMultivector,
    Terms,
    _hook_terms,
    _pair_terms,
    _wedge_terms,
    eval_terms,
)
from .linalg import RowBasis, column_space_rref, sparse_minor


class NoSolutionInFamily(Exception):
    """The Hamilton contraction system is inconsistent in this family."""


class DegenerateSystem(Exception):
    """The contraction system could not be reduced by affine elimination."""


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerticalFamily:
    """X_slot = e_{horizontal[slot]} + sum_c t[slot, c] e_c over free coords."""

    horizontal: tuple[int, ...]  # coordinate indices, one per slot
    free: tuple[int, ...]  # coordinate indices shared by every slot

    @property
    def params(self) -> list[tuple[int, int]]:
        return [(slot, c) for slot in range(len(self.horizontal)) for c in self.free]

    def factors(self, assignment: Sequence[Fraction]) -> list[Terms]:
        values = list(assignment)
        if len(values) != len(self.horizontal) * len(self.free):
            raise ValueError("parameter vector has the wrong length")
        out = []
        pos = 0
        for h in self.horizontal:
            factor: Terms = {(h,): Fraction(1)}
            for c in self.free:
                v = values[pos]
                pos += 1
                if v:
                    factor[(c,)] = v
            out.append(factor)
        return out

    def expand(self, assignment: Sequence[Fraction]) -> Terms:
        factors = self.factors(assignment)
        acc = factors[0]
        for f in factors[1:]:
            acc = _wedge_terms(acc, f)
        return acc


def observability_family(chart: Chart, horizontal: Sequence[int]) -> VerticalFamily:
    return VerticalFamily(tuple(horizontal), chart.frame.fiber_indices())


def solver_family(chart: Chart) -> VerticalFamily:
    horizontal = tuple(chart.frame.index(h) for h in chart.horizontal)
    if len(set(horizontal)) != chart.n:
        raise ValueError("degenerate horizontal frame")
    free = tuple(i for i in range(chart.dim) if i not in horizontal)
    return VerticalFamily(horizontal, free)


def contraction_form(x_terms: Terms, omega_num: Terms) -> Terms:
    """X . Omega as a numeric 1-form term dict."""
    return _hook_terms(x_terms, omega_num)


class OmegaContraction:
    """Contraction of decomposable n-vectors into a fixed numeric Omega,
    computed from the factors by minors (no full wedge expansion): the
    component along the j-th coordinate differential is

        <X ^ e_j, Omega> = (-1)^n <X, e_j . Omega>,

    the sum of (-1)^n * c * det(X on L) over the terms c dx^L of
    e_j . Omega.  The plan holds those terms per j, as L -> (-1)^n c,
    taken from the hook kernel once per Omega, with j in order of first
    appearance in Omega's keys.  `key` is the evaluated Omega as a
    hashable value, which names every kernel built from the plan.

    `of_factors` pairs the factors with the plan's n-forms in one
    `decomposable_pairing` sweep, so the n x n minors of the different
    components share their smaller sub-minors, and drops the zero ones.
    The factor entries may be `Fraction`, `int` or `Polynomial`: the
    components come back in that ring, which is how the Hamilton solver
    contracts its symbolic factors.  Whole unit n-vectors are contracted
    by a lookup in `by_subset`, the plan inverted on first use, instead.
    """

    def __init__(self, omega_num: Terms):
        self.key = frozenset(omega_num.items())
        self.plan: dict[int, dict[tuple[int, ...], Fraction]] = {
            j: {rest: -c if len(rest) % 2 else c for rest, c in _hook_terms({(j,): 1}, omega_num).items()}
            for j in dict.fromkeys(j for key in omega_num for j in key)
        }
        self._obstructions: dict[tuple[int, ...], set[frozenset[int]]] = {}

    @cached_property
    def by_subset(self) -> dict[tuple[int, ...], Terms]:
        """The plan inverted: L -> {(j,): value}, with j in plan order."""
        index: dict[tuple[int, ...], Terms] = {}
        for j, entries in self.plan.items():
            for rest, value in entries.items():
                index.setdefault(rest, {})[(j,)] = value
        return index

    def of_factors(self, factors: Sequence[Terms]) -> Terms:
        values = decomposable_pairing(factors, self.plan.values())
        return {(j,): v for j, v in zip(self.plan, values) if v}

    def affine_on(self, family: VerticalFamily) -> bool:
        """Whether X -> X . Omega is affine in the parameters of `family`.

        The minor on K - j vanishes identically when K - j has a leg that
        is neither horizontal nor free.  Otherwise each horizontal leg
        fixes its own slot, and what remains is, up to sign, the
        determinant of the parameters t[slot, c] over the other slots and
        the free legs c of K - j: a polynomial of degree |free legs|.  Its
        monomials determine K - j, and K - j with j determines K, so
        distinct terms of one component never cancel.  The map is
        therefore affine exactly when no term has a leg j whose K - j has
        two or more free legs and all its other legs horizontal: the
        non-free legs of such a term, kept per `free` tuple, are horizontal.
        """
        free = family.free
        if free not in self._obstructions:
            self._obstructions[free] = {frozenset(rest).difference(free) for entries in self.plan.values()
                                        for rest in entries if sum(c in free for c in rest) >= 2}
        horizontal = set(family.horizontal)
        return not any(legs <= horizontal for legs in self._obstructions[free])


def decomposable_pairing(factors: Sequence[Terms], forms: Iterable[Terms]) -> list:
    """<X_1 ^ ... ^ X_n, a> for each form a, from the factors by minors:
    the factors become sparse rows once, a key with a column absent from
    every factor is skipped, and all forms share one `sparse_minor` memo.
    Each value is in the ring of the entries (an `int` for integer
    factors and forms), and `Fraction(0)` for a form none of whose keys
    has a nonzero minor."""
    rows = [{key[0]: v for key, v in f.items() if v} for f in factors]
    present = set().union(*rows)
    memo: dict = {}
    values = []
    for form in forms:
        acc = 0
        for key, coeff in form.items():
            if present.issuperset(key):
                minor = sparse_minor(rows, key, memo)
                if minor:
                    acc += coeff * minor
        values.append(acc or Fraction(0))
    return values


def _linear_columns(family: VerticalFamily, omega: OmegaContraction) -> list[Terms]:
    """The linear part of the family's contraction map, one column per
    parameter (slot, c).  The wedge is linear in each factor, so moving
    t[slot, c] from 0 to 1 adds exactly the contraction of the unit
    n-vector e_K, K the horizontal legs with the slot-th one replaced by
    c.  Its minor on L is the sign of the permutation sorting K when L is
    sorted(K), and zero otherwise, so the column is the plan's entries on
    sorted(K) times that sign: one lookup in `OmegaContraction.by_subset`,
    not a minor.  That sign is (-1)^(slot + p) times the sign sorting the
    other (distinct) legs, p the place of c among them."""
    columns = []
    for slot in range(len(family.horizontal)):
        others, sign = sort_with_sign(family.horizontal[:slot] + family.horizontal[slot + 1 :])
        for c in family.free:
            p = bisect_left(others, c)
            entries = omega.by_subset.get(others[:p] + (c,) + others[p:], {})
            columns.append(dict(entries) if sign == (-1) ** (slot + p) else {j: -v for j, v in entries.items()})
    return columns


@dataclass(frozen=True)
class FamilyStep:
    """What the observability walk reads of one family at an evaluated
    Omega: the kernel of its linear part, each vector's nonzero entries
    {parameter: numerator} over one `den`, the certificate that the map is
    affine (`affine_on`), and, filled as the sampler draws, its minor table."""

    kernel: list[dict[int, int]]
    den: int
    affine: bool

    @cached_property
    def minors(self) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
        """The family's minor table: key K -> the integer numerators of the
        minor on K of its symbolic factors, in the ring (u, t_0, ...) with
        u at every horizontal entry and t_p at the p-th parameter.  Filled
        by `_pairing_polynomial` with the keys that candidate forms read,
        and never emptied.  It depends on the family's columns only, which the cache
        key holds; a key with a column outside them has a zero minor and
        is never stored, so the table holds at most C(n + |free|, n)
        keys."""
        return {}


# Bounded without eviction order: a full cache is cleared before the next
# insert, so every miss still grows or resets its length.
_CACHE_LIMIT = 4096
_FAMILY_CACHE: dict[tuple, FamilyStep] = {}


def _family_step_data(chart: Chart, family: VerticalFamily, omega: OmegaContraction) -> FamilyStep:
    """The family's `FamilyStep`.  It depends on the family and the
    evaluated Omega only (the minor table on the family alone), so it is
    cached under those across candidate forms, points and charts: a
    constant Omega computes each family once.  A miss reads the kernel and
    the certificate from indexes built once per Omega (`affine_on`,
    `by_subset`).

    The map's columns (`_linear_columns`) hold a few nonzeros each, so its
    rows are gathered sparsely, coordinate i -> {parameter: value}, and fed
    to one `RowBasis` in increasing i until the rank is full.  The kernel
    is read off the RREF, which the span fixes, so it is the one the dense
    matrix gives.  Its entries, 1 and the negated entries of the rows, are
    brought over the rows' least common denominator in one step each."""
    key = (chart.dim, family.horizontal, family.free, omega.key)
    hit = _FAMILY_CACHE.get(key)
    if hit is not None:
        return hit
    columns = _linear_columns(family, omega)
    rows: dict[int, dict[int, Fraction]] = {}
    for param, column in enumerate(columns):
        for (i,), value in column.items():
            rows.setdefault(i, {})[param] = value
    basis = RowBasis(len(columns))
    for i in sorted(rows):
        if basis.rank == len(columns):
            break
        basis.add(rows[i])
    den = lcm(*(x.denominator for row in basis.sparse_rows for x in row.values()))
    kernel = basis.nullspace()
    for vec in kernel:
        for p, x in vec.items():
            vec[p] = x.numerator * (den // x.denominator)
    step = FamilyStep(kernel, den, omega.affine_on(family))
    if len(_FAMILY_CACHE) >= _CACHE_LIMIT:
        _FAMILY_CACHE.clear()
    _FAMILY_CACHE[key] = step
    return step


# ---------------------------------------------------------------------------
# Hamiltonian n-vector solving
# ---------------------------------------------------------------------------


@dataclass
class HamiltonianSolution:
    """Base decomposable solution of X . Omega = (-1)^n dH at a point,
    plus the kernel directions spanning the affine family of solutions
    inside the solver's vertical-lift parametrization."""

    chart: Chart
    point: tuple[Fraction, ...]
    family: VerticalFamily
    base_assignment: tuple[Fraction, ...]
    kernel: list[tuple[Fraction, ...]]
    omega_num: Terms = field(repr=False)
    target: Terms = field(repr=False)  # (-1)^n dH at the point

    def assignment(self, kernel_coeffs: Sequence[Fraction] = ()) -> tuple[Fraction, ...]:
        values = list(self.base_assignment)
        for c, direction in zip(kernel_coeffs, self.kernel):
            if c:
                values = [v + c * d if d else v for v, d in zip(values, direction)]
        return tuple(values)

    def factors(self, kernel_coeffs: Sequence[Fraction] = ()) -> list[Terms]:
        return self.family.factors(self.assignment(kernel_coeffs))

    def representatives(self, doubled: bool = False) -> Iterator[tuple[Fraction, ...]]:
        """Kernel coefficients of the representatives that probe the family,
        yielded in this order (e_i the i-th kernel direction): the base,
        base + e_i (the unit moves), base - e_i and base + e_i + e_j; with
        `doubled` also base + 2 e_i, base + e_i - e_j and base + e_i + e_j + e_l."""
        size = len(self.kernel)
        moves = [[{}], ({i: 1} for i in range(size)), ({i: -1} for i in range(size)),
                 ({i: 1, j: 1} for i, j in combinations(range(size), 2))]
        if doubled:
            moves += [({i: 2} for i in range(size)), ({i: 1, j: -1} for i, j in combinations(range(size), 2)),
                      (dict.fromkeys(triple, 1) for triple in combinations(range(size), 3))]
        coeffs = {c: Fraction(c) for c in range(-1, 3)}
        for move in chain.from_iterable(moves):
            yield tuple(coeffs[move.get(i, 0)] for i in range(size))

    @cached_property
    def unit_move_factors(self) -> list[list[Terms]]:
        """The factors of the base and of every unit move, the first
        1 + len(kernel) representatives, built once per solution (a
        `dataclasses.replace` copy builds its own)."""
        return [self.factors(coeffs) for coeffs in islice(self.representatives(), 1 + len(self.kernel))]

    def verify(self) -> bool:
        """Exactness of the base solution and of base + each kernel move.

        Each contraction is taken one factor at a time,
        (X_1 ^ ... ^ X_n) . Omega = X_n . (... (X_1 . Omega)), through the
        hook kernel: no wedge expansion and no minor, so the check does not
        share the solver's minor route."""
        for factors in self.unit_move_factors:
            form = self.omega_num
            for factor in factors:
                form = _hook_terms(factor, form)
            if form != self.target:
                return False
        return True


def differential_at(h: Polynomial, chart: Chart, point: Sequence[Fraction]) -> Terms:
    out: Terms = {}
    for idx, name in enumerate(chart.frame.names):
        v = h.diff(name).eval(point)
        if v:
            out[(idx,)] = v
    return out


def hamiltonian_nvector_solve(chart: Chart, hamiltonian: Polynomial, point: Sequence[Fraction]) -> HamiltonianSolution:
    """Solve X . Omega = (-1)^n dH over the solver family at a point.

    The contraction components are polynomials in the family parameters;
    the system is reduced by repeatedly substituting an equation that is
    affine (with a constant invertible pivot) in one parameter.  The
    surviving free parameters span the affine solution family.
    """
    point = tuple(Fraction(v) for v in point)
    family = solver_family(chart)
    params = family.params
    names = chart.frame.names
    pvars = tuple(f"t{slot}_{names[c]}" for slot, c in params)

    # symbolic factors over the parameter polynomial ring
    factors = family.factors([Polynomial.var(pvars, v) for v in pvars])
    omega_num = eval_terms(chart.omega.terms, point)
    contraction = (chart.omega_contraction or OmegaContraction(omega_num)).of_factors(factors)
    sign = -1 if chart.n % 2 else 1
    target = differential_at(hamiltonian, chart, point)

    # the zero polynomial lifts a Fraction component into the parameter ring
    zero = Polynomial.zero(pvars)
    equations = [zero + contraction.get((j,), 0) - sign * target.get((j,), 0) for j in range(chart.dim)]

    solved: dict[str, Polynomial] = {}
    pending = [eq for eq in equations if eq]
    while pending:
        # the first equation with a parameter of degree 1 and a constant
        # coefficient (nonzero, as the degree is 1), and its first such one
        for eq in pending:
            if eq.is_constant():
                raise NoSolutionInFamily(f"inconsistent contraction system: residual {eq.to_text()}")
            v = next((name for name in sorted(eq.used_variables())
                      if eq.degree_in(name) == 1 and eq.coefficient_of(name).is_constant()), None)
            if v is not None:
                break
        else:
            raise DegenerateSystem("no affine pivot available; solution family is not affine in this parametrization")
        c = eq.coefficient_of(v).constant_value()
        expr = (eq - c * Polynomial.var(pvars, v)) * (Fraction(-1) / c)
        substitution = {v: expr}
        solved = {w: (p.subs(substitution) if v in p.used_variables() else p) for w, p in solved.items()}
        solved[v] = expr
        # an earlier equation equal to eq would have been the pivot, so this
        # removes eq itself
        pending.remove(eq)
        pending = [r for r in (p.subs(substitution) if v in p.used_variables() else p for p in pending) if r]

    for v, expr in solved.items():
        if expr.total_degree() > 1:
            raise DegenerateSystem(f"solved parameter {v} is not affine in the free parameters")

    zero_point = [Fraction(0)] * len(pvars)
    base_assignment = tuple(solved[v].eval(zero_point) if v in solved else Fraction(0) for v in pvars)
    kernel = [
        tuple(solved[v].coefficient_of(f).constant_value() if v in solved else Fraction(int(v == f)) for v in pvars)
        for f in pvars
        if f not in solved
    ]

    solution = HamiltonianSolution(
        chart=chart,
        point=point,
        family=family,
        base_assignment=base_assignment,
        kernel=kernel,
        omega_num=omega_num,
        target={k: sign * v for k, v in target.items()},
    )
    if not solution.verify():
        raise DegenerateSystem("eliminated system failed exact re-substitution")
    return solution


def frame_compatible_hamiltonian(
    chart: Chart,
    sampler: RationalSampler,
    point: Sequence[Fraction],
    vertical_only: bool = False,
) -> Polynomial:
    """A Hamiltonian that is guaranteed to admit a decomposable solution at
    the given point.

    On a full momentum chart the momentum derivatives of H must realize the
    minors of some n-frame (a quadric condition for n, k >= 2), so random
    momentum polynomials are generically unsolvable.  Here H is built from
    the contraction of a random family member, plus two quadratic
    corrections that vanish to second order at the point; with
    `vertical_only` the random member carries momentum-direction
    components only, so H is the top momentum plus a polynomial in the
    momenta.
    """
    point = tuple(Fraction(v) for v in point)
    family = solver_family(chart)
    names = chart.frame.names
    values = []
    for slot, c in family.params:
        if vertical_only and not chart.frame.coords[c][1].is_fiber:
            values.append(Fraction(0))
        else:
            values.append(sampler.rational())
    omega = chart.omega_contraction or OmegaContraction(eval_terms(chart.omega.terms, point))
    contraction = omega.of_factors(family.factors(values))
    sign = -1 if chart.n % 2 else 1
    h = Polynomial.zero(names)
    for (j,), coeff in contraction.items():
        if vertical_only and not chart.frame.coords[j][1].is_fiber:
            # the base-differential components of the contraction are matched
            # by parameters that occur nowhere else, so they may be dropped
            continue
        h = h + (sign * coeff) * Polynomial.var(names, names[j])
    for _ in range(2):
        i = sampler.integer(0, len(names) - 1)
        j = sampler.integer(0, len(names) - 1)
        if vertical_only and not (
            chart.frame.coords[i][1].is_fiber and chart.frame.coords[j][1].is_fiber
        ):
            continue
        shift_i = Polynomial.var(names, names[i]) - point[i]
        shift_j = Polynomial.var(names, names[j]) - point[j]
        h = h + sampler.rational() * shift_i * shift_j
    return h


# ---------------------------------------------------------------------------
# observability sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OFCounterexample:
    """An exact pair X, X~ with equal contraction but different values."""

    family_horizontal: tuple[str, ...]
    base_params: tuple[Fraction, ...]
    kernel_direction: tuple[Fraction, ...]
    scale: Fraction
    value: Fraction
    value_perturbed: Fraction

    def params_perturbed(self) -> tuple[Fraction, ...]:
        return tuple(b + self.scale * d for b, d in zip(self.base_params, self.kernel_direction))


@dataclass(frozen=True)
class OFVerdict:
    passed: bool
    samples_used: int
    counterexample: OFCounterexample | None = None
    failed_point: tuple[Fraction, ...] | None = None


def schedule_length(sample_count: int, kernel_size: int) -> int:
    """The samples that `of_sampling_test` counts on one family whose
    linear part has a kernel of `kernel_size` directions: each of its
    `sample_count` base points is moved along every kernel direction, and
    along one seeded mix of them when there are two or more."""
    return sample_count * (kernel_size + (kernel_size > 1))


def of_sampling_test(
    chart: Chart,
    a: PolyForm,
    point: Sequence[Fraction],
    sample_count: int = 4,
    seed: int = 0,
) -> OFVerdict:
    """Sampled observability of an n-form at a point.

    Affinity of the contraction X -> X . Omega in the parameters is
    certified exactly once per family (`OmegaContraction.affine_on`, cached
    with the kernel in the family's `FamilyStep`); the families are visited
    in `combinations` order, and the first family with a nonempty kernel
    that is not affine raises `DegenerateSystem` before any of its own samples
    is drawn (earlier families have been sampled by then, and a
    counterexample among them is returned first).  On an affine family,
    pairs X, X~ differing by a kernel direction of its linear part have
    exactly equal contraction, so a(X) = a(X~) is the property under test
    and no contraction is recomputed per sample.  A reported
    counterexample is exact and final; a pass is probabilistic over the
    seeded sample schedule (affine data on an open set extends to the
    whole family, which is why sampling near arbitrary base points
    suffices).

    Pairings are computed on the form's support only: a(X) reads the
    columns that occur in the keys of a, so it depends only on the
    parameters t[slot, c] with c in that support (the active ones), and
    the factors are built from those alone.  A direction that is zero on
    every active parameter leaves a(X) exactly unchanged; it still draws
    its scale and counts as a sample, but no pairing is evaluated for it.

    A family is live when some kernel vector is nonzero at an active
    parameter; the mixed direction combines kernel vectors, so every
    direction of a family that is not live is zero on the active ones.
    The sampler is local to the call, so after the last live family no
    draw can reach a pairing, a counterexample or the count: those later
    families draw nothing, and each adds the samples it would have drawn,
    `schedule_length(sample_count, len(kernel))`, to the count.
    Families up to the last live one draw as before, dead ones included,
    so every counterexample and count is the one drawing them all gives.

    The arithmetic is over the integers from the draw on.  The evaluated
    form is cleared of denominators once per call (a = a_int / a_den);
    each family's kernel is kept in its cached `FamilyStep` as the nonzero
    integer numerators of each vector over one denominator k, of which a
    visit reads the active positions (0 where absent);
    and the sampler draws `RationalSampler.sixths`, so every base
    parameter, mixing coefficient and scale is an integer over 6.  A base
    point is then integer numerators over D = 6, and its move along a
    direction over d (k for a kernel vector, 6 * k for the mix) is integer
    numerators over D = 6 * d.  Scaled by D, the factors of X are integer
    rows with horizontal entries D.
    Each live family pairs a_int once over symbolic factors
    (`_pairing_polynomial`): a ring variable u at each horizontal entry
    and t_i at the i-th active parameter.  P is linear in a_int, so it is
    summed on integers from the minors of a_int's keys, which the family
    keeps in its cached `FamilyStep.minors` table: a visit computes, by one
    `decomposable_pairing`, only the minors of keys no earlier form read,
    and none once the table holds them.  The table stores only keys
    inside the family's columns, at most C(n + |free|, n) of them, and is
    dropped with its step when the family cache is cleared.
    The result P is homogeneous of degree n, with integer coefficients,
    and P(D, nums) is the integer pairing a_den * D**n * a(X), so a value
    is held as the integer N = `P.eval_numerator([D, *nums])`.  The
    perturbed point is the base scaled by d plus scale times the
    direction, over 6 * d, so its value equals the base's exactly when
    N_perturbed == N_base * d**n.  No `Fraction` is built unless the two
    differ; then the counterexample's values are N / (a_den * D**n) for
    each, and its parameters, direction and scale are built from the
    integers (v / 6 for a draw, the direction densified over d).  A live
    family needs a value in its first sample, so P is built when the
    family is reached; a dead family builds none.  Every draw, sample
    count, verdict and counterexample (with `Fraction` values) is the one
    the full `Fraction` factors give.
    """
    if a.degree != chart.n:
        raise ValueError(f"candidate form must have degree n = {chart.n}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    point = tuple(Fraction(v) for v in point)
    # a constant Omega's contraction is the chart's, so family cache hits
    # compare one key object by identity
    omega = chart.omega_contraction or OmegaContraction(eval_terms(chart.omega.terms, point))
    a_num = eval_terms(a.terms, point)
    support = set().union(*a_num)
    a_den, a_nums = _numerators(a_num.values())
    a_int = dict(zip(a_num, a_nums))
    n = chart.n
    draw = RationalSampler(seed).sixths
    names = chart.frame.names
    samples_used = 0

    families = []
    last_live = -1
    for horizontal in combinations(chart.frame.base_indices(), chart.n):
        family = observability_family(chart, horizontal)
        step = _family_step_data(chart, family, omega)
        active = [pos for pos, (_, c) in enumerate(family.params) if c in support]
        live = any(pos in vec for vec in step.kernel for pos in active)
        if live:
            last_live = len(families)
        families.append((horizontal, family, step, active, live))

    for position, (horizontal, family, step, active, live) in enumerate(families):
        kernel = step.kernel
        if not kernel:
            continue
        if not step.affine:
            raise DegenerateSystem("contraction is not affine on this family")
        if position > last_live:
            samples_used += schedule_length(sample_count, len(kernel))
            continue
        nparams = len(family.params)
        kernel_nums = [[vec.get(pos, 0) for pos in active] for vec in kernel]
        # a live family evaluates in its first sample, a dead one never
        poly = _pairing_polynomial(family, step, active, a_int) if live else None

        for _ in range(sample_count):
            # draws in sixths: every parameter is over the denominator 6
            base_ints = [draw() for _ in range(nparams)]
            base_nums = [base_ints[pos] for pos in active]
            value = None
            directions = [(step.den, nums) for nums in kernel_nums]
            if len(kernel) > 1:
                coeffs = [draw() for _ in kernel]
                mix = [sum(map(mul, coeffs, column)) for column in zip(*kernel_nums)]
                directions.append((6 * step.den, mix))
            for index, (den, direction) in enumerate(directions):
                scale = draw()
                while not scale:
                    scale = draw()
                samples_used += 1
                if not any(direction):
                    continue
                if value is None:
                    value = poly.eval_numerator([6, *base_nums])
                # base + scale * direction is
                # (base_nums * den + scale * direction) / (6 * den)
                perturbed = [b * den + d * scale for b, d in zip(base_nums, direction)]
                value_perturbed = poly.eval_numerator([6 * den, *perturbed])
                # P is homogeneous of degree n, so equal values are equal
                # numerators once the base is scaled by den
                if value_perturbed != value * den**n:
                    # the direction on every parameter over den: a kernel vector or the mix
                    nums: dict[int, int] = {}
                    for w, vec in zip(coeffs, kernel) if index == len(kernel) else [(1, kernel[index])]:
                        for p, x in vec.items():
                            nums[p] = nums.get(p, 0) + w * x
                    zero = Fraction(0)
                    full = tuple(Fraction(nums[p], den) if p in nums else zero for p in range(nparams))
                    return OFVerdict(
                        passed=False,
                        samples_used=samples_used,
                        counterexample=OFCounterexample(
                            family_horizontal=tuple(names[i] for i in horizontal),
                            base_params=tuple(Fraction(v, 6) for v in base_ints),
                            kernel_direction=full,
                            scale=Fraction(scale, 6),
                            value=Fraction(value, a_den * 6**n),
                            value_perturbed=Fraction(value_perturbed, a_den * (6 * den) ** n),
                        ),
                        failed_point=point,
                    )
    return OFVerdict(passed=True, samples_used=samples_used)


def _pairing_polynomial(family: VerticalFamily, step: FamilyStep, active: Sequence[int], a_int: Terms) -> Polynomial:
    """<X, a> for the integer form a on the family's factors scaled by a
    common denominator, as one polynomial in the ring (u, t_0, ..., t_m):
    every horizontal entry is u and the i-th active parameter is t_i, so
    every factor is linear and P is homogeneous of degree n.

    P is linear in a: it is the sum of a[K] times the minor on K, read off
    the family's minor table (`FamilyStep.minors`), summed on integer
    numerators and re-indexed once from the table's ring onto this one.
    Every key of a lies in its support, so its minor reads active
    parameters only.  The keys the table lacks are filled first, by one
    `decomposable_pairing` of their unit forms over the family's symbolic
    factors; a key with a column outside the family's is zero and skipped,
    and when the table holds every other key no minor is computed."""
    minors = step.minors
    columns = set(family.horizontal).union(family.free)
    missing = [key for key in a_int if key not in minors and columns.issuperset(key)]
    if missing:
        ring = ("u",) + tuple(f"t{p}" for p in range(len(family.params)))
        u = Polynomial.var(ring, "u")
        factors = [{(h,): u} for h in family.horizontal]
        for p, (slot, c) in enumerate(family.params):
            factors[slot][(c,)] = Polynomial.var(ring, ring[p + 1])
        for key, minor in zip(missing, decomposable_pairing(factors, [{key: 1} for key in missing])):
            minors[key] = minor._num if minor else {}
    total: dict[tuple[int, ...], int] = {}
    for key, coeff in a_int.items():
        for expo, c in minors.get(key, {}).items():
            total[expo] = total.get(expo, 0) + coeff * c
    # the table's ring has u at 0 and the p-th parameter at p + 1
    places = (0, *(p + 1 for p in active))
    num = {tuple(expo[i] for i in places): c for expo, c in total.items() if c}
    return Polynomial._raw(("u",) + tuple(f"t{i}" for i in range(len(active))), num, 1)


def _numerators(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator of rationals and their numerators over it."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def recheck_of_counterexample(chart: Chart, a: PolyForm, point: Sequence[Fraction], ce: OFCounterexample) -> bool:
    """Replay a counterexample: equal contraction, different value."""
    point = tuple(Fraction(v) for v in point)
    omega_num = eval_terms(chart.omega.terms, point)
    a_num = eval_terms(a.terms, point)
    horizontal = tuple(chart.frame.index(n) for n in ce.family_horizontal)
    family = observability_family(chart, horizontal)
    x = family.expand(ce.base_params)
    y = family.expand(ce.params_perturbed())
    same_contraction = contraction_form(x, omega_num) == contraction_form(y, omega_num)
    vx = _pair_terms(x, a_num) or Fraction(0)
    vy = _pair_terms(y, a_num) or Fraction(0)
    return same_contraction and vx == ce.value and vy == ce.value_perturbed and vx != vy


# ---------------------------------------------------------------------------
# decomposability identities on first-order charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PluckerVerdict:
    passed: bool
    skipped_degenerate: bool
    failures: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()


def plucker_check(chart: Chart, factors: Sequence[PolyMultivector], p: int) -> PluckerVerdict:
    """On a first-order (x, y, e, p) chart, check the decomposability
    identity  vol(X)^{p-1} * w^{i1..ip}_{m1..mp}(X) = det(w^{ib}_{ma}(X))
    for all index selections at the given p, where X is the wedge of the
    n vector fields `factors` and
    w^{i..}_{m..} = dy^{i1} ^ ... ^ dy^{ip} ^ vol_{m1..mp}."""
    from .exterior import hook, pair, vector_basis, wedge

    n = chart.n
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    if len(factors) != n or any(f.degree != 1 for f in factors):
        raise ValueError(f"X needs n = {n} vector fields as factors")
    frame = chart.frame
    x_expanded = reduce(wedge, factors)
    vol = chart.volume_form()
    vol_value = pair(x_expanded, vol).constant_value()
    if vol_value == 0:
        return PluckerVerdict(passed=True, skipped_degenerate=True)

    y_names = [name for name, _ in frame.coords if name.startswith("y")]
    k = len(y_names)

    def w_value(i_tuple: Sequence[int], mu_tuple: Sequence[int]) -> Fraction:
        form = wedge(
            PolyForm.from_named(frame, len(i_tuple), [([f"y{i}" for i in i_tuple], 1)]),
            hook(vector_basis(frame, *[chart.horizontal[m - 1] for m in mu_tuple]), vol),
        )
        return pair(x_expanded, form).constant_value()

    failures = []
    for i_tuple in combinations(range(1, k + 1), p):
        for mu_tuple in combinations(range(1, n + 1), p):
            lhs = vol_value ** (p - 1) * w_value(i_tuple, mu_tuple)
            rows = [{b: w_value((i_b,), (mu_a,)) for b, i_b in enumerate(i_tuple)} for mu_a in mu_tuple]
            if lhs != sparse_minor(rows, tuple(range(p)), {}):
                failures.append((i_tuple, mu_tuple))
    return PluckerVerdict(passed=not failures, skipped_degenerate=False, failures=tuple(failures))


# ---------------------------------------------------------------------------
# generalized pseudofiber directions
# ---------------------------------------------------------------------------


def pseudofiber_directions(
    chart: Chart,
    solution: HamiltonianSolution,
    doubled: bool = False,
) -> list[tuple[Fraction, ...]]:
    """Common annihilator of the tangent spaces to the decomposable cone
    along representatives of the solution family: vectors xi whose
    contraction with Omega kills every slot-deformation of every
    representative.  Adding representatives can only shrink the result.

    The row of the deformation e_c ^ (other factors) is its contraction
    into Omega: component j is the pairing of the other factors with the
    (n-1)-form e_c . (e_j . Omega), the hook of e_c into the j-th entry of
    the `OmegaContraction` plan.  Those forms are built once per call, and
    one `decomposable_pairing` per slot pairs all of them.  The rows depend
    on the other factors only, so a sweep over other factors already swept
    is skipped, and so is a row that was already added: neither can change
    the basis."""
    dim = chart.dim
    plan = (chart.omega_contraction or OmegaContraction(solution.omega_num)).plan
    hooked = {(c, j): _hook_terms({(c,): 1}, entries) for j, entries in plan.items() for c in set().union(*entries)}
    basis = RowBasis(dim)
    added: set[tuple] = set()
    swept: set[tuple] = set()
    for coeffs in solution.representatives(doubled):
        factors = solution.factors(coeffs)
        for slot in range(chart.n):
            others = factors[:slot] + factors[slot + 1 :]
            key = tuple(frozenset(f.items()) for f in others)
            if key in swept:
                continue
            swept.add(key)
            images = [[0] * dim for _ in range(dim)]
            for (c, j), value in zip(hooked, decomposable_pairing(others, hooked.values())):
                if value:  # int zeros keep the rows cheap to hash
                    images[c][j] = value
            for row in map(tuple, images):
                if any(row) and row not in added:
                    added.add(row)
                    basis.add(row)
                    if basis.rank == dim:
                        return []
    zero = Fraction(0)
    return [tuple(vec.get(j, zero) for j in range(dim)) for vec in basis.nullspace()]


def annihilator_span(directions: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis of the span, for comparing two direction sets."""
    return column_space_rref(directions)


def pseudofiber_integrand_check(
    chart: Chart,
    observable: PolyForm,
    zeta: Sequence[Fraction],
    solution: HamiltonianSolution,
) -> bool:
    """dF(zeta, X_2, ..., X_n) = 0 exactly for the base frame, for every
    choice of the omitted slot.  Requires F to admit a Hamilton vector
    field (checked); the vanishing is then forced when zeta is a
    pseudofiber direction."""
    from .exterior import ext_d
    from .observables import NotAOF, aof_solve

    result = aof_solve(chart, observable)
    if isinstance(result, NotAOF):
        raise ValueError("observable form does not admit a Hamilton vector field")
    df_num = eval_terms(ext_d(observable).terms, solution.point)
    zeta_terms: Terms = {(i,): Fraction(v) for i, v in enumerate(zeta) if v}
    factors = solution.factors()
    return not any(
        decomposable_pairing([zeta_terms] + factors[:slot] + factors[slot + 1 :], [df_num])[0]
        for slot in range(chart.n)
    )
