"""Catalog of multisymplectic coordinate charts.

A Chart bundles a coordinate frame, the horizontal degree n, the
multisymplectic (n+1)-form Omega, and optionally a primitive theta with
d theta = Omega, a Hamiltonian polynomial, and a constant diagonal
metric signature.  All built-in charts are flat single charts with
constant-coefficient Omega.

Naming conventions of the builders:

* abstract momentum chart over R^{n+k}:   q1..q{n+k}, p{a1}{a2}.. (one
  digit per index, so n+k <= 9);
* split chart over X x Y:                 x1..xn, y1..yk, e, p{mu}_{i},
  p{mu1 mu2}_{i1 i2}, ...  The split momenta are signed relabelings of
  the abstract ones (replace slot mu of (1..n) by the y-index and sort).
* electromagnetic chart (n = 4):          x0..x3, a0..a3, e, p01..p23
  with antisymmetric p^{mu nu};
* complex scalar field chart:             x0..x{n-1}, phi1, phi2, e,
  p{mu}_a, optionally gauged with a{mu} and p{mu nu}.

The volume form is the wedge of the horizontal differentials in order;
physics charts index space-time from 0, abstract charts from 1.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from hashlib import sha256
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .algebra import Polynomial, RationalSampler, read_integer, sort_with_sign
from .exterior import (
    CoordKind,
    CoordinateFrame,
    PolyForm,
    _wedge_terms,
    dump_form,
    eval_terms,
    ext_d,
    form_basis,
    hook,
    parse_form,
    vector_basis,
    wedge,
)
from .linalg import RowBasis

MAX_MOMENTUM_COORDS = 10_000


@dataclass(frozen=True)
class Chart:
    """A coordinate model of a multisymplectic manifold."""

    name: str
    frame: CoordinateFrame
    n: int
    omega: PolyForm
    theta: PolyForm | None = None
    hamiltonian: Polynomial | None = None
    metric: tuple[int, ...] | None = None
    horizontal: tuple[str, ...] = ()

    def __post_init__(self):
        if self.omega.degree != self.n + 1:
            raise ValueError(f"omega must have degree n+1 = {self.n + 1}")
        if len(self.horizontal) != self.n:
            raise ValueError("need exactly n horizontal coordinate names")
        for h in self.horizontal:
            self.frame.index(h)

    @property
    def dim(self) -> int:
        return self.frame.dim

    @cached_property
    def omega_contraction(self):
        """The `dynamics.OmegaContraction` of a constant Omega, built on
        first read and kept, since it is the same at every point; None when
        a coefficient of Omega varies over the chart.  A chart made by
        `dataclasses.replace` builds its own."""
        from .dynamics import OmegaContraction  # dynamics imports this module

        if not omega_is_constant(self):
            return None
        return OmegaContraction(eval_terms(self.omega.terms, (0,) * self.dim))

    def volume_form(self) -> PolyForm:
        return form_basis(self.frame, *self.horizontal)

    def volume_contraction(self, *names: str) -> PolyForm:
        """omega_{mu...} = d/dx^{mu} ^ ... hooked into the volume form."""
        return hook(vector_basis(self.frame, *names), self.volume_form())

    def base_coordinate_names(self) -> tuple[str, ...]:
        return tuple(self.frame.names[i] for i in self.frame.base_indices())

    def fiber_coordinate_names(self) -> tuple[str, ...]:
        return tuple(self.frame.names[i] for i in self.frame.fiber_indices())

    def spec_hash(self) -> str:
        return sha256(json.dumps(chart_to_spec(self), sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# abstract momentum chart over R^{n+k} and its split relabeling
# ---------------------------------------------------------------------------


def _digit_name(prefix: str, indices: Sequence[int]) -> str:
    if any(i > 9 for i in indices):
        raise ValueError("single-digit coordinate naming needs indices <= 9")
    return prefix + "".join(str(i) for i in indices)


def lepage_dedecker_chart(n: int, k: int) -> Chart:
    """Full momentum chart: positions q^a (a <= n+k) and one momentum
    coordinate per increasing n-tuple of positions, with

        Omega = sum dp_{a1..an} ^ dq^{a1} ^ ... ^ dq^{an}
        theta = sum p_{a1..an} dq^{a1} ^ ... ^ dq^{an}.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    n_momenta = comb(n + k, n)
    if n_momenta > MAX_MOMENTUM_COORDS:
        raise ValueError(f"momentum coordinate count {n_momenta} exceeds guard {MAX_MOMENTUM_COORDS}")
    if n + k > 9:
        raise ValueError("coordinate naming requires n + k <= 9")
    positions = [(f"q{a}", CoordKind.POSITION) for a in range(1, n + k + 1)]
    tuples = list(combinations(range(1, n + k + 1), n))
    momenta = [(_digit_name("p", t), CoordKind.MOMENTUM) for t in tuples]
    frame = CoordinateFrame.build(positions + momenta)

    omega_entries = []
    theta_entries = []
    for t in tuples:
        p_name = _digit_name("p", t)
        q_names = [f"q{a}" for a in t]
        omega_entries.append(([p_name] + q_names, 1))
        theta_entries.append((q_names, frame.poly_var(p_name)))
    omega = PolyForm.from_named(frame, n + 1, omega_entries)
    theta = PolyForm.from_named(frame, n, theta_entries)
    return Chart(
        name=f"lepage-dedecker:{n},{k}",
        frame=frame,
        n=n,
        omega=omega,
        theta=theta,
        horizontal=tuple(f"q{a}" for a in range(1, n + 1)),
    )


def split_momentum_name(mu_tuple: Sequence[int], i_tuple: Sequence[int]) -> str:
    j = len(mu_tuple)
    if j == 0:
        return "e"
    if j == 1:
        return f"p{mu_tuple[0]}_{i_tuple[0]}"
    return "p" + "".join(map(str, mu_tuple)) + "_" + "".join(map(str, i_tuple))


def split_momentum_of(n: int, abstract_tuple: Sequence[int]) -> tuple[str, int]:
    """Map an increasing position n-tuple to its split name and sign.

    The split momentum replaces slot mu of (1..n) by a y-index; sorting
    the replaced tuple back to increasing order contributes the sign.
    """
    x_part = [a for a in abstract_tuple if a <= n]
    y_part = [a for a in abstract_tuple if a > n]
    mu_tuple = [mu for mu in range(1, n + 1) if mu not in x_part]
    if len(mu_tuple) != len(y_part):
        raise ValueError("tuple does not define a split momentum")
    unsorted = list(range(1, n + 1))
    for mu, y in zip(mu_tuple, y_part):
        unsorted[mu - 1] = y
    _, sign = sort_with_sign(tuple(unsorted))
    i_tuple = [y - n for y in y_part]
    return split_momentum_name(mu_tuple, i_tuple), sign


def lepage_dedecker_split_chart(n: int, k: int) -> Chart:
    """The same chart in split naming x^{mu}, y^i, e, p^{mu..}_{i..}."""
    abstract = lepage_dedecker_chart(n, k)
    renaming: dict[str, tuple[str, int]] = {}
    coords: list[tuple[str, CoordKind]] = []
    for a in range(1, n + 1):
        renaming[f"q{a}"] = (f"x{a}", 1)
        coords.append((f"x{a}", CoordKind.POSITION))
    for i in range(1, k + 1):
        renaming[f"q{n + i}"] = (f"y{i}", 1)
        coords.append((f"y{i}", CoordKind.POSITION))
    momentum_order: list[tuple[tuple[int], str]] = []
    for t in combinations(range(1, n + k + 1), n):
        new_name, sign = split_momentum_of(n, t)
        renaming[_digit_name("p", t)] = (new_name, sign)
        if new_name != "e":
            order = len([a for a in t if a > n])
            momentum_order.append(((order,), new_name))
    coords.append(("e", CoordKind.ENERGY))
    # momenta grouped by order j, so dropping all j >= 2 leaves the
    # first-order chart's coordinate layout verbatim
    for _, name in sorted(momentum_order):
        coords.append((name, CoordKind.MOMENTUM))
    frame = CoordinateFrame.build(coords)
    assignment = {
        old: (sign * frame.poly_var(new)) for old, (new, sign) in renaming.items()
    }
    chart = transplant_chart(abstract, f"lepage-dedecker-split:{n},{k}", frame, assignment)
    return replace(chart, horizontal=tuple(f"x{mu}" for mu in range(1, n + 1)))


def ddw_chart(n: int, k: int) -> Chart:
    """First-order momentum chart: x^{mu}, y^i, e, p{mu}_{i} with

        Omega = de ^ vol + sum dp^{mu}_i ^ dy^i ^ vol_{mu}
        theta = e vol + sum p^{mu}_i dy^i ^ vol_{mu}.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    coords = [(f"x{mu}", CoordKind.POSITION) for mu in range(1, n + 1)]
    coords += [(f"y{i}", CoordKind.POSITION) for i in range(1, k + 1)]
    coords.append(("e", CoordKind.ENERGY))
    coords += [(f"p{mu}_{i}", CoordKind.MOMENTUM) for mu in range(1, n + 1) for i in range(1, k + 1)]
    frame = CoordinateFrame.build(coords)
    horizontal = tuple(f"x{mu}" for mu in range(1, n + 1))
    vol = form_basis(frame, *horizontal)

    omega = wedge(form_basis(frame, "e"), vol)
    theta = vol.scale(frame.poly_var("e"))
    for mu in range(1, n + 1):
        vol_mu = hook(vector_basis(frame, f"x{mu}"), vol)
        for i in range(1, k + 1):
            block = wedge(form_basis(frame, f"y{i}"), vol_mu)
            omega = omega + wedge(form_basis(frame, f"p{mu}_{i}"), block)
            theta = theta + block.scale(frame.poly_var(f"p{mu}_{i}"))
    return Chart(
        name=f"ddw:{n},{k}",
        frame=frame,
        n=n,
        omega=omega,
        theta=theta,
        horizontal=horizontal,
    )


# ---------------------------------------------------------------------------
# electromagnetic chart
# ---------------------------------------------------------------------------


def maxwell_chart(current: Sequence[Polynomial] | None = None) -> Chart:
    """n = 4 chart for the gauge potential: x0..x3, a0..a3, e, and the six
    antisymmetric momenta p^{mu nu} (mu < nu), with

        Omega = de ^ vol + sum_{mu<nu} dp^{mu nu} ^ (da_mu ^ vol_nu - da_nu ^ vol_mu)
        theta = e vol + pi ^ da,  pi = -(1/2) p^{mu nu} vol_{mu nu}

    and Minkowski signature (+,-,-,-).  The external current enters the
    Hamiltonian as j^{mu}(x) a_{mu} and defaults to zero.
    """
    n = 4
    coords = [(f"x{mu}", CoordKind.POSITION) for mu in range(n)]
    coords += [(f"a{mu}", CoordKind.GAUGE) for mu in range(n)]
    coords.append(("e", CoordKind.ENERGY))
    pairs = list(combinations(range(n), 2))
    coords += [(f"p{mu}{nu}", CoordKind.MOMENTUM) for mu, nu in pairs]
    frame = CoordinateFrame.build(coords)
    horizontal = tuple(f"x{mu}" for mu in range(n))
    vol = form_basis(frame, *horizontal)

    omega = wedge(form_basis(frame, "e"), vol)
    for mu, nu in pairs:
        dp = form_basis(frame, f"p{mu}{nu}")
        vol_nu = hook(vector_basis(frame, f"x{nu}"), vol)
        vol_mu = hook(vector_basis(frame, f"x{mu}"), vol)
        block = wedge(form_basis(frame, f"a{mu}"), vol_nu) - wedge(form_basis(frame, f"a{nu}"), vol_mu)
        omega = omega + wedge(dp, block)

    pi = maxwell_pi(frame)
    da = maxwell_da(frame)
    theta = vol.scale(frame.poly_var("e")) + wedge(pi, da)

    metric = (1, -1, -1, -1)
    hamiltonian = frame.poly_var("e")
    for idx, (mu, nu) in enumerate(pairs):
        sign = metric[mu] * metric[nu]
        hamiltonian = hamiltonian - Fraction(1, 2) * sign * frame.poly_var(f"p{mu}{nu}") ** 2
    if current is not None:
        if len(current) != n:
            raise ValueError("current needs one component per space-time direction")
        for mu in range(n):
            j = current[mu]
            if not isinstance(j, Polynomial):
                raise TypeError("current components must be polynomials")
            if j.variables != frame.names:
                j = j.transplant(frame.names, {v: frame.poly_var(v) for v in j.used_variables()})
            if not j.used_variables() <= {f"x{m}" for m in range(n)}:
                raise ValueError("current may depend on the space-time coordinates only")
            hamiltonian = hamiltonian + j * frame.poly_var(f"a{mu}")
    return Chart(
        name="maxwell",
        frame=frame,
        n=n,
        omega=omega,
        theta=theta,
        hamiltonian=hamiltonian,
        metric=metric,
        horizontal=horizontal,
    )


def maxwell_pi(frame: CoordinateFrame) -> PolyForm:
    """pi = -(1/2) sum_{mu,nu} p^{mu nu} vol_{mu nu} on the electromagnetic frame."""
    vol = form_basis(frame, "x0", "x1", "x2", "x3")
    pi = PolyForm.zero(frame, 2)
    for mu, nu in combinations(range(4), 2):
        vol_munu = hook(vector_basis(frame, f"x{mu}", f"x{nu}"), vol)
        pi = pi - vol_munu.scale(frame.poly_var(f"p{mu}{nu}"))
    return pi


def _gauge_legs(frame: CoordinateFrame) -> list[tuple[str, str]]:
    """(a_mu, x_mu) name pairs, one per gauge coordinate of the frame."""
    return [(name, "x" + name[1:]) for name, kind in frame.coords if kind == CoordKind.GAUGE]


def maxwell_da(frame: CoordinateFrame) -> PolyForm:
    """da = sum_mu da_mu ^ dx^mu over the frame's gauge coordinates, the
    differential of the potential 1-form."""
    da = PolyForm.zero(frame, 2)
    for a_mu, x_mu in _gauge_legs(frame):
        da = da + wedge(form_basis(frame, a_mu), form_basis(frame, x_mu))
    return da


def maxwell_potential_form(frame: CoordinateFrame) -> PolyForm:
    """a = sum_mu a_mu dx^mu over the frame's gauge coordinates."""
    a = PolyForm.zero(frame, 1)
    for a_mu, x_mu in _gauge_legs(frame):
        a = a + form_basis(frame, x_mu).scale(frame.poly_var(a_mu))
    return a


# ---------------------------------------------------------------------------
# complex scalar field chart
# ---------------------------------------------------------------------------


def scalar_field_chart(n: int, potential: Polynomial, gauged: bool = False) -> Chart:
    """Chart for a complex scalar field on n-dimensional space-time.

    `potential` is a polynomial in the single variable s = |phi|^2 / 2.
    Ungauged:

        Omega = de ^ vol + dp^{mu}_a ^ dphi^a ^ vol_mu
        H     = e + (1/2) eta_{mu nu} (p^mu_1 p^nu_1 + p^mu_2 p^nu_2) - V(s)

    Gauged adds a_mu, antisymmetric p^{mu nu}, the coupling
    (p^mu_1 phi^2 - p^mu_2 phi^1) a_mu and the field-strength energy.
    Signature is (+,-,...,-); space-time indices run from 0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if tuple(potential.variables) != ("s",):
        raise ValueError("potential must be a polynomial in the single variable 's'")
    coords = [(f"x{mu}", CoordKind.POSITION) for mu in range(n)]
    coords += [("phi1", CoordKind.POSITION), ("phi2", CoordKind.POSITION)]
    if gauged:
        coords += [(f"a{mu}", CoordKind.GAUGE) for mu in range(n)]
    coords.append(("e", CoordKind.ENERGY))
    coords += [(f"p{mu}_{a}", CoordKind.MOMENTUM) for mu in range(n) for a in (1, 2)]
    pairs = list(combinations(range(n), 2)) if gauged else []
    coords += [(f"p{mu}{nu}", CoordKind.MOMENTUM) for mu, nu in pairs]
    frame = CoordinateFrame.build(coords)
    horizontal = tuple(f"x{mu}" for mu in range(n))
    vol = form_basis(frame, *horizontal)
    metric = (1,) + (-1,) * (n - 1)

    omega = wedge(form_basis(frame, "e"), vol)
    theta = vol.scale(frame.poly_var("e"))
    for mu in range(n):
        vol_mu = hook(vector_basis(frame, f"x{mu}"), vol)
        for a in (1, 2):
            block = wedge(form_basis(frame, f"phi{a}"), vol_mu)
            omega = omega + wedge(form_basis(frame, f"p{mu}_{a}"), block)
            theta = theta + block.scale(frame.poly_var(f"p{mu}_{a}"))
    if gauged:
        half_dp_vol = PolyForm.zero(frame, n - 1)
        for mu, nu in pairs:
            vol_munu = hook(vector_basis(frame, f"x{mu}", f"x{nu}"), vol)
            half_dp_vol = half_dp_vol + wedge(form_basis(frame, f"p{mu}{nu}"), vol_munu)
        omega = omega - wedge(maxwell_da(frame), half_dp_vol)
        theta = theta - wedge(maxwell_potential_form(frame), half_dp_vol)

    s = Fraction(1, 2) * (frame.poly_var("phi1") ** 2 + frame.poly_var("phi2") ** 2)
    v_of_s = potential.transplant(frame.names, {"s": s})
    hamiltonian = frame.poly_var("e") - v_of_s
    for mu in range(n):
        for a in (1, 2):
            hamiltonian = hamiltonian + Fraction(metric[mu], 2) * frame.poly_var(f"p{mu}_{a}") ** 2
    if gauged:
        for mu in range(n):
            coupling = frame.poly_var(f"p{mu}_1") * frame.poly_var("phi2") - frame.poly_var(f"p{mu}_2") * frame.poly_var("phi1")
            hamiltonian = hamiltonian + coupling * frame.poly_var(f"a{mu}")
        for mu, nu in pairs:
            sign = metric[mu] * metric[nu]
            hamiltonian = hamiltonian - Fraction(1, 2) * sign * frame.poly_var(f"p{mu}{nu}") ** 2
    return Chart(
        name=f"scalar:{n}" + (",gauged" if gauged else ""),
        frame=frame,
        n=n,
        omega=omega,
        theta=theta,
        hamiltonian=hamiltonian,
        metric=metric,
        horizontal=horizontal,
    )


# ---------------------------------------------------------------------------
# chart surgery: linear substitutions, restriction
# ---------------------------------------------------------------------------


def transplant_form(form: PolyForm, new_frame: CoordinateFrame, assignment: Mapping[str, Polynomial]) -> PolyForm:
    """Pull a form through a linear-in-coordinates substitution old -> new.

    Each old coordinate maps to a polynomial of degree <= 1 over the new
    frame; its differential maps linearly accordingly.
    """
    old_names = form.frame.names
    differentials: dict[str, dict[tuple[int, ...], Fraction]] = {}
    for old, image in assignment.items():
        if image.total_degree() > 1:
            raise ValueError("transplant_form needs linear coordinate images")
        differentials[old] = {
            (expo.index(1),): coeff for expo, coeff in image.terms.items() if any(expo)
        }
    out = PolyForm.zero(new_frame, form.degree)
    for key, coeff in form.terms.items():
        new_coeff = coeff.transplant(new_frame.names, assignment)
        if not new_coeff:
            continue
        image: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
        for i in key:
            old = old_names[i]
            if old not in differentials:
                raise KeyError(f"coordinate {old!r} has no image")
            image = _wedge_terms(image, differentials[old])
        out = out + PolyForm(new_frame, form.degree, {k: w * new_coeff for k, w in image.items()})
    return out


def transplant_chart(chart: Chart, name: str, new_frame: CoordinateFrame, assignment: Mapping[str, Polynomial]) -> Chart:
    omega = transplant_form(chart.omega, new_frame, assignment)
    theta = transplant_form(chart.theta, new_frame, assignment) if chart.theta is not None else None
    hamiltonian = (
        chart.hamiltonian.transplant(new_frame.names, assignment) if chart.hamiltonian is not None else None
    )
    horizontal = []
    for h in chart.horizontal:
        image = assignment[h]
        used = image.used_variables()
        if len(used) != 1 or image.total_degree() != 1:
            raise ValueError("horizontal coordinates must map to single coordinates")
        horizontal.append(next(iter(used)))
    return Chart(
        name=name,
        frame=new_frame,
        n=chart.n,
        omega=omega,
        theta=theta,
        hamiltonian=hamiltonian,
        metric=chart.metric,
        horizontal=tuple(horizontal),
    )


def restrict_chart(chart: Chart, zeroed: Sequence[str], name: str | None = None) -> Chart:
    """Restrict to the submanifold where the given momentum coordinates
    vanish: the coordinates are dropped, every Omega/theta term carrying
    one of their differentials is dropped, and they are substituted by 0
    in all coefficients."""
    if not zeroed:
        return chart
    for z in zeroed:
        if chart.frame.kind(z) != CoordKind.MOMENTUM:
            raise ValueError(f"cannot zero non-momentum coordinate {z!r}")
    kept = [(n_, k_) for n_, k_ in chart.frame.coords if n_ not in set(zeroed)]
    new_frame = CoordinateFrame(tuple(kept))
    assignment: dict[str, Polynomial] = {}
    for n_, _ in chart.frame.coords:
        if n_ in set(zeroed):
            assignment[n_] = Polynomial.zero(new_frame.names)
        else:
            assignment[n_] = new_frame.poly_var(n_)
    # terms containing a zeroed differential disappear automatically since
    # the image of that differential is 0.
    return transplant_chart(chart, name or (chart.name + ":restricted"), new_frame, assignment)


def ddw_restriction_momenta(n: int, k: int) -> list[str]:
    """Split-chart momentum names of order >= 2 (those zeroed by the
    first-order restriction)."""
    out = []
    for t in combinations(range(1, n + k + 1), n):
        if len([a for a in t if a > n]) >= 2:
            out.append(split_momentum_of(n, t)[0])
    return out


# ---------------------------------------------------------------------------
# nondegeneracy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Slice:
    """A constant-coordinate level set with a coorientation sign; the
    transversality that makes integrals over slice intersections well
    defined is checked dynamically by the laboratory, not assumed here."""

    chart: Chart
    coordinate: str
    level: Fraction
    coorientation: int = 1

    def __post_init__(self):
        if self.coordinate not in self.chart.frame.names:
            raise ValueError(f"{self.coordinate!r} is not a coordinate of {self.chart.name}")
        if self.coorientation not in (1, -1):
            raise ValueError("coorientation must be +1 or -1")


@dataclass(frozen=True)
class NondegeneracyVerdict:
    passed: bool
    exact: bool
    kernel_witness: tuple[Fraction, ...] | None
    points_checked: int


def contraction_columns(
    chart: Chart, point: Sequence[Fraction] | None = None
) -> list[dict[tuple[int, ...], Fraction]]:
    """The contractions e_j . Omega of the coordinate directions as sparse
    n-form columns (nonzero entries only), with polynomial coefficients
    evaluated at `point` (required when Omega is not constant)."""
    frame = chart.frame
    columns = []
    for j in range(frame.dim):
        contraction = hook(vector_basis(frame, frame.names[j]), chart.omega)
        col: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in contraction.terms.items():
            value = coeff.constant_value() if point is None else coeff.eval(point)
            if value:
                col[key] = value
        columns.append(col)
    return columns


def contraction_matrix(chart: Chart, point: Sequence[Fraction] | None = None) -> list[list[Fraction]]:
    """Matrix of xi -> xi . Omega over the n-form basis (rows, in first-seen
    order) and the coordinate directions (columns); see
    `contraction_columns`."""
    columns = contraction_columns(chart, point)
    rows = dict.fromkeys(key for col in columns for key in col)
    return [[col.get(key, Fraction(0)) for col in columns] for key in rows]


def omega_is_constant(chart: Chart) -> bool:
    return all(c.is_constant() for c in chart.omega.terms.values())


_NONDEGENERACY_POINTS = 3


def nondegeneracy_check(chart: Chart, seed: int = 0) -> NondegeneracyVerdict:
    """Kernel check of xi -> xi . Omega.

    For constant-coefficient Omega one evaluation decides exactly; otherwise
    the kernel is required to vanish at `_NONDEGENERACY_POINTS` seeded
    random rational points.  The rows of `contraction_matrix`, in order,
    are fed sparsely to one `RowBasis` until the rank is full; a zero
    Omega has none, and every direction is in its kernel.
    """
    exact = omega_is_constant(chart)
    sampler = RationalSampler(seed)
    points = [None] if exact else [sampler.point(chart.dim) for _ in range(_NONDEGENERACY_POINTS)]
    for checked, point in enumerate(points, 1):
        columns = contraction_columns(chart, point)
        basis = RowBasis(chart.dim)
        for key in dict.fromkeys(key for column in columns for key in column):
            basis.add({j: column[key] for j, column in enumerate(columns) if key in column})
            if basis.rank == chart.dim:
                break
        else:
            return NondegeneracyVerdict(False, True, tuple(basis.nullspace()[0]), checked)
    return NondegeneracyVerdict(True, exact, None, len(points))


def validate_chart(chart: Chart) -> list[str]:
    """Return the list of violated chart invariants (empty when healthy)."""
    problems = []
    if ext_d(chart.omega):
        problems.append("d(omega) != 0")
    if chart.theta is not None and ext_d(chart.theta) != chart.omega:
        problems.append("d(theta) != omega")
    if not nondegeneracy_check(chart).passed:
        problems.append("omega is degenerate")
    return problems


# ---------------------------------------------------------------------------
# textual chart specs
# ---------------------------------------------------------------------------


def chart_to_spec(chart: Chart) -> dict:
    spec = {
        "name": chart.name,
        "n": chart.n,
        "coordinates": [{"name": n_, "kind": k_.value} for n_, k_ in chart.frame.coords],
        "horizontal": list(chart.horizontal),
        "omega": dump_form(chart.omega),
    }
    if chart.theta is not None:
        spec["theta"] = dump_form(chart.theta)
    if chart.hamiltonian is not None:
        spec["hamiltonian"] = chart.hamiltonian.to_text()
    if chart.metric is not None:
        spec["metric"] = list(chart.metric)
    return spec


def chart_from_spec(spec: Mapping) -> Chart:
    """Build a chart from its file representation (`chart_to_spec`); a
    value of the wrong JSON shape is a ValueError naming its field."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"a chart spec must be an object, got {type(spec).__name__}")
    coordinates = spec["coordinates"]
    if not (isinstance(coordinates, list) and all(isinstance(c, Mapping) for c in coordinates)):
        raise ValueError("the coordinates of a chart spec must be a list of objects with a name and a kind")
    frame = CoordinateFrame.build([(c["name"], c["kind"]) for c in coordinates])
    if not isinstance(spec["name"], str):
        raise ValueError(f"the name of a chart spec must be a string, got {spec['name']!r}")
    omega = parse_form(frame, spec["omega"], kind="form")
    theta = parse_form(frame, spec["theta"], kind="form") if "theta" in spec else None
    hamiltonian = frame.parse_poly(spec["hamiltonian"]) if "hamiltonian" in spec else None
    metric = tuple(read_integer("a metric entry", x) for x in spec["metric"]) if "metric" in spec else None
    return Chart(
        name=spec["name"],
        frame=frame,
        n=read_integer("the n of a chart spec", spec["n"]),
        omega=omega,  # type: ignore[arg-type]
        theta=theta,  # type: ignore[arg-type]
        hamiltonian=hamiltonian,
        metric=metric,
        horizontal=tuple(spec["horizontal"]),
    )


_BUILTIN_LABELS = "lepage-dedecker:n,k, lepage-dedecker-split:n,k, ddw:n,k, maxwell, scalar:n, scalar:n,gauged"
_LABEL = re.compile(r"(lepage-dedecker|lepage-dedecker-split|ddw):([0-9]+),([0-9]+)|maxwell|scalar:([0-9]+)(,gauged)?")


def builtin_chart(label: str) -> Chart:
    """Resolve the labels used by the command line, n and k decimal:

    lepage-dedecker:n,k  lepage-dedecker-split:n,k  ddw:n,k
    maxwell  scalar:n  scalar:n,gauged  (scalar uses V(s) = s, unit mass).

    Any other label raises ValueError naming these forms.
    """
    match = _LABEL.fullmatch(label)
    if match is None:
        raise ValueError(f"unknown chart label {label!r}; the built-in charts are {_BUILTIN_LABELS}")
    family, n, k, scalar_n, gauged = match.groups()
    if family is not None:
        build = {"lepage-dedecker": lepage_dedecker_chart, "lepage-dedecker-split": lepage_dedecker_split_chart,
                 "ddw": ddw_chart}[family]
        return build(int(n), int(k))
    if scalar_n is None:
        return maxwell_chart()
    return scalar_field_chart(int(scalar_n), Polynomial(("s",), {(1,): Fraction(1)}), gauged=gauged is not None)
