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
(`OmegaContraction.affine_on`); on an affine family the kernel of the
linear part generates exact pairs with equal contraction, which is what
the observability property quantifies over, so the sampler never
recomputes a contraction.  Its pairings are computed on the form's
support: only the parameters of columns the form reads enter the factors,
and a direction that is zero on all of them is counted as a sample
without being evaluated, since it cannot change the value.  They run over
Python integers: the form, the kernel directions and each sample are held
as integer numerators over one common denominator, every factor of X is
scaled by the denominator of its parameter values, and a pairing builds
one `Fraction` from its integer minor sum.

For solving the Hamilton equation the free coordinates are all
non-selected directions and the polynomial system is reduced by
substituting one affine equation at a time.

Every computing path that contracts or pairs a decomposable n-vector
given by its factors (entries `Fraction`, `int` or `Polynomial`) goes
through one minor sweep, `decomposable_pairing`, which pairs them with a
list of forms by `linalg.sparse_minor` under one shared memo: the
contraction `OmegaContraction.of_factors` (the n-forms of its plan), the
pseudofiber rows (the plan hooked by a unit factor), the sampler, the
pseudobracket and the pseudofiber integrand check.  Only a family's
linear part (all factors unit) is read off the plan, by a lookup.  The
checks that must be independent of that route do not use minors:
`HamiltonianSolution.verify` hooks the factors into Omega one at a time,
and `recheck_of_counterexample` expands the wedge in full, as do
`plucker_check` and `brackets.dynamics_relation_check`, which takes
interior products of the expanded n-vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .algebra import Polynomial, RationalSampler, sort_with_sign
from .charts import Chart
from .exterior import (
    DecomposableNVector,
    PolyForm,
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
    by a lookup in the plan instead (`_linear_columns`).
    """

    def __init__(self, omega_num: Terms):
        self.key = frozenset(omega_num.items())
        self.plan: dict[int, dict[tuple[int, ...], Fraction]] = {
            j: {rest: -c if len(rest) % 2 else c for rest, c in _hook_terms({(j,): 1}, omega_num).items()}
            for j in dict.fromkeys(j for key in omega_num for j in key)
        }

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
        two or more free legs and all its other legs horizontal.
        """
        horizontal = set(family.horizontal)
        free = set(family.free)
        for entries in self.plan.values():
            for rest in entries:
                free_legs = sum(c in free for c in rest)
                if free_legs >= 2 and all(c in free or c in horizontal for c in rest):
                    return False
        return True


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
    sorted(K), and zero otherwise, so component j is the plan entry of j
    on sorted(K) times that sign: a lookup, not a minor."""
    columns = []
    for slot, c in family.params:
        rest, sign = sort_with_sign(family.horizontal[:slot] + (c,) + family.horizontal[slot + 1 :])
        columns.append({(j,): sign * entries[rest] for j, entries in omega.plan.items() if rest in entries})
    return columns


# Bounded without eviction order: a full cache is cleared before the next
# insert, so every miss still grows or resets its length.
_CACHE_LIMIT = 4096
_FAMILY_CACHE: dict[tuple, tuple[list[tuple[Fraction, ...]], bool]] = {}


def _family_step_data(
    chart: Chart,
    family: VerticalFamily,
    omega: OmegaContraction,
) -> tuple[list[tuple[Fraction, ...]], bool]:
    """Kernel directions of the linear part of the family's contraction
    map, and the exact certificate that the map is affine
    (`OmegaContraction.affine_on`).  Both depend on the family and the
    evaluated Omega only, so they are cached under those across candidate
    forms, points and charts: a constant Omega computes each family once.

    The map's columns (`_linear_columns`) hold a few nonzeros each, so its
    rows are gathered sparsely, coordinate i -> {parameter: value}, and fed
    to one `RowBasis` in increasing i until the rank is full.  The kernel
    is read off the RREF, which the span fixes, so it is the one the dense
    matrix gives."""
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
    data = [tuple(v) for v in basis.nullspace()], omega.affine_on(family)
    if len(_FAMILY_CACHE) >= _CACHE_LIMIT:
        _FAMILY_CACHE.clear()
    _FAMILY_CACHE[key] = data
    return data


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
    hamiltonian: Polynomial
    family: VerticalFamily
    base_assignment: tuple[Fraction, ...]
    kernel: list[tuple[Fraction, ...]]
    omega_num: Terms = field(repr=False)
    target: Terms = field(repr=False)  # (-1)^n dH at the point

    @property
    def n(self) -> int:
        return self.chart.n

    def assignment(self, kernel_coeffs: Sequence[Fraction] = ()) -> tuple[Fraction, ...]:
        values = list(self.base_assignment)
        for c, direction in zip(kernel_coeffs, self.kernel):
            if c:
                values = [v + c * d if d else v for v, d in zip(values, direction)]
        return tuple(values)

    def factors(self, kernel_coeffs: Sequence[Fraction] = ()) -> list[Terms]:
        return self.family.factors(self.assignment(kernel_coeffs))

    def expand(self, kernel_coeffs: Sequence[Fraction] = ()) -> Terms:
        return self.family.expand(self.assignment(kernel_coeffs))

    def unit_moves(self) -> list[tuple[Fraction, ...]]:
        """Kernel coefficients of the base solution and of base + each
        kernel direction."""
        size = len(self.kernel)
        one, zero = Fraction(1), Fraction(0)
        return [()] + [tuple(one if i == j else zero for j in range(size)) for i in range(size)]

    @cached_property
    def unit_move_factors(self) -> list[list[Terms]]:
        """The factors of every `unit_moves` representative, built once per
        solution (a `dataclasses.replace` copy builds its own)."""
        return [self.factors(coeffs) for coeffs in self.unit_moves()]

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
    contraction = OmegaContraction(omega_num).of_factors(factors)
    sign = -1 if chart.n % 2 else 1
    target = differential_at(hamiltonian, chart, point)

    # the zero polynomial lifts a Fraction component into the parameter ring
    zero = Polynomial.zero(pvars)
    equations = [zero + contraction.get((j,), 0) - sign * target.get((j,), 0) for j in range(chart.dim)]

    solved: dict[str, Polynomial] = {}
    pending = [eq for eq in equations if eq]
    while pending:
        progress = False
        for eq_index, eq in enumerate(pending):
            if eq.is_constant():
                raise NoSolutionInFamily(
                    f"inconsistent contraction system: residual {eq.to_text()}"
                )
            pick = None
            for v in sorted(eq.used_variables()):
                if eq.degree_in(v) != 1:
                    continue
                coeff = eq.coefficient_of(v)
                if coeff.is_constant() and coeff:
                    pick = (v, coeff.constant_value())
                    break
            if pick is None:
                continue
            v, c = pick
            expr = (eq - c * Polynomial.var(pvars, v)) * (Fraction(-1) / c)
            substitution = {v: expr}
            solved = {w: (p.subs(substitution) if v in p.used_variables() else p) for w, p in solved.items()}
            solved[v] = expr
            new_pending = []
            for other in pending[:eq_index] + pending[eq_index + 1 :]:
                reduced = other.subs(substitution) if v in other.used_variables() else other
                if reduced:
                    new_pending.append(reduced)
            pending = new_pending
            progress = True
            break
        if not progress:
            raise DegenerateSystem(
                "no affine pivot available; solution family is not affine in this parametrization"
            )

    free_vars = [v for v in pvars if v not in solved]
    for v, expr in solved.items():
        if expr.total_degree() > 1:
            raise DegenerateSystem(f"solved parameter {v} is not affine in the free parameters")

    zero_point = [Fraction(0)] * len(pvars)
    base_assignment = []
    for name in pvars:
        if name in solved:
            base_assignment.append(solved[name].eval(zero_point))
        else:
            base_assignment.append(Fraction(0))
    kernel: list[tuple[Fraction, ...]] = []
    for f in free_vars:
        direction = []
        for name in pvars:
            if name == f:
                direction.append(Fraction(1))
            elif name in solved:
                direction.append(solved[name].coefficient_of(f).constant_value())
            else:
                direction.append(Fraction(0))
        kernel.append(tuple(direction))

    solution = HamiltonianSolution(
        chart=chart,
        point=point,
        hamiltonian=hamiltonian,
        family=family,
        base_assignment=tuple(base_assignment),
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
    contraction = OmegaContraction(eval_terms(chart.omega.terms, point)).of_factors(family.factors(values))
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
    with the kernel by `_family_step_data`); a family with a nonempty
    kernel that is not affine raises `DegenerateSystem` before any sample
    is drawn.  On an affine family, pairs X, X~ differing by a kernel
    direction of its linear part have exactly equal contraction, so
    a(X) = a(X~) is the property under test and no contraction is
    recomputed per sample.  A reported counterexample is exact and final;
    a pass is probabilistic over the seeded sample schedule (affine data
    on an open set extends to the whole family, which is why sampling
    near arbitrary base points suffices).

    Pairings are computed on the form's support only: a(X) reads the
    columns that occur in the keys of a, so it depends only on the
    parameters t[slot, c] with c in that support (the active ones), and
    the factors are built from those alone.  A direction that is zero on
    every active parameter leaves a(X) exactly unchanged; it still draws
    its scale and counts as a sample, but no pairing is evaluated for it.

    The arithmetic is over the integers.  The evaluated form is cleared of
    denominators once per call (a = a_int / a_den), the active kernel
    directions once per family, and each sample's base and perturbed
    values are held as integer numerators over one denominator D.  The
    factors of X are then integer rows with horizontal entries D, so
    `decomposable_pairing` on them returns a_den * D**n * a(X), and the
    value is `Fraction(result, a_den * D**n)`: one `Fraction` per pairing.
    Every draw, sample count, verdict and counterexample (with `Fraction`
    values) is the one the full `Fraction` factors give.
    """
    if a.degree != chart.n:
        raise ValueError(f"candidate form must have degree n = {chart.n}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    point = tuple(Fraction(v) for v in point)
    omega = OmegaContraction(eval_terms(chart.omega.terms, point))
    a_num = eval_terms(a.terms, point)
    support = set().union(*a_num)
    a_den, a_nums = _numerators(a_num.values())
    a_int = dict(zip(a_num, a_nums))
    n = chart.n
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
        active = [pos for pos, (_, c) in enumerate(family.params) if c in support]
        active_keys = [(slot, (c,)) for slot, c in (family.params[pos] for pos in active)]
        held = [h in support for h in horizontal]
        kernel_den, flat = _numerators([vec[pos] for vec in kernel for pos in active])
        width = len(active)
        kernel_nums = [flat[i * width : (i + 1) * width] for i in range(len(kernel))]

        def pairing(nums: Sequence[int], den: int) -> Fraction:
            """a(X) at the active parameter values nums / den: every
            factor is scaled by den, so the integer pairing is
            a_den * den**n times the value."""
            factors = [{(h,): den} if keep else {} for h, keep in zip(horizontal, held)]
            for (slot, key), v in zip(active_keys, nums):
                if v:
                    factors[slot][key] = v
            return Fraction(decomposable_pairing(factors, [a_int])[0], a_den * den**n)

        for _ in range(sample_count):
            base_params = tuple(sampler.rational() for _ in range(nparams))
            base_den, base_nums = _numerators([base_params[pos] for pos in active])
            value = None
            directions = [(kernel_den, nums) for nums in kernel_nums]
            if len(kernel) > 1:
                coeffs = [sampler.rational() for _ in kernel]
                coeff_den, coeff_nums = _numerators(coeffs)
                mix = [sum(map(mul, coeff_nums, column)) for column in zip(*kernel_nums)]
                directions.append((coeff_den * kernel_den, mix))
            for index, (den, direction) in enumerate(directions):
                scale = sampler.nonzero()
                samples_used += 1
                if not any(direction):
                    continue
                if value is None:
                    value = pairing(base_nums, base_den)
                # base + scale * direction over base_den * scale.denominator * den
                b_factor = scale.denominator * den
                d_factor = scale.numerator * base_den
                perturbed = [b * b_factor + d * d_factor for b, d in zip(base_nums, direction)]
                value_perturbed = pairing(perturbed, base_den * b_factor)
                if value_perturbed != value:
                    if index < len(kernel):
                        full = kernel[index]
                    else:
                        full = tuple(sum(map(mul, coeffs, column), Fraction(0)) for column in zip(*kernel))
                    return OFVerdict(
                        passed=False,
                        samples_used=samples_used,
                        counterexample=OFCounterexample(
                            family_horizontal=tuple(names[i] for i in horizontal),
                            base_params=base_params,
                            kernel_direction=full,
                            scale=scale,
                            value=value,
                            value_perturbed=value_perturbed,
                        ),
                        failed_point=point,
                    )
    return OFVerdict(passed=True, samples_used=samples_used)


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


def plucker_check(chart: Chart, x: DecomposableNVector, p: int) -> PluckerVerdict:
    """On a first-order (x, y, e, p) chart, check the decomposability
    identity  vol(X)^{p-1} * w^{i1..ip}_{m1..mp}(X) = det(w^{ib}_{ma}(X))
    for all index selections at the given p, where
    w^{i..}_{m..} = dy^{i1} ^ ... ^ dy^{ip} ^ vol_{m1..mp}."""
    from .exterior import hook, pair, vector_basis, wedge

    n = chart.n
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    frame = chart.frame
    x_expanded = x.expand()
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


def _representative_schedule(kernel_size: int, doubled: bool) -> list[tuple[Fraction, ...]]:
    reps: list[tuple[Fraction, ...]] = [tuple(Fraction(0) for _ in range(kernel_size))]

    def unit(i: int, c: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(c) if j == i else Fraction(0) for j in range(kernel_size))

    for i in range(kernel_size):
        reps.append(unit(i, 1))
        reps.append(unit(i, -1))
    for i, j in combinations(range(kernel_size), 2):
        reps.append(tuple(a + b for a, b in zip(unit(i, 1), unit(j, 1))))
    if doubled:
        for i in range(kernel_size):
            reps.append(unit(i, 2))
        for i, j in combinations(range(kernel_size), 2):
            reps.append(tuple(a - b for a, b in zip(unit(i, 1), unit(j, 1))))
        for i, j, l in combinations(range(kernel_size), 3):
            reps.append(
                tuple(a + b + c for a, b, c in zip(unit(i, 1), unit(j, 1), unit(l, 1)))
            )
    return reps


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
    plan = OmegaContraction(solution.omega_num).plan
    hooked = {(c, j): _hook_terms({(c,): 1}, entries) for j, entries in plan.items() for c in set().union(*entries)}
    basis = RowBasis(dim)
    added: set[tuple] = set()
    swept: set[tuple] = set()
    for coeffs in _representative_schedule(len(solution.kernel), doubled):
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
    return [tuple(v) for v in basis.nullspace()]


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
