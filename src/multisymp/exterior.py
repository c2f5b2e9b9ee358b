"""Forms and multivectors with polynomial coefficients over a coordinate frame.

Conventions (pinned by regression tests, see tests/test_exterior.py):

* duality pairing  <X, mu> = mu(X_1, ..., X_k)  for decomposable X of the
  same degree as mu, and 0 when the degrees differ;
* hook    X . mu, the (l-k)-form with  <Y, X . mu> = <X ^ Y, mu>  for all
  (l-k)-vectors Y  (requires deg X <= deg mu);
* cohook  X L mu, the (k-l)-vector with <X L mu, nu> = <X, mu ^ nu>  for
  all (k-l)-forms nu  (requires deg X >= deg mu).

Hook and cohook are distinct adjunctions (they differ by more than a
sign) and stay two public operations, but they share one kernel: X L mu
hooks the indices of mu into those of X, so `cohook` is `_hook_terms`
with the arguments swapped.  Forms and multivectors share one sparse
representation -- a map from strictly increasing index tuples
to Polynomial coefficients -- distinguished by the class tag.  Degree-0
objects are polynomials wrapped with the empty index tuple.

The private `_*_terms` kernels work on plain dicts whose values may be
Fraction instead of Polynomial; the point-evaluated fast paths in the
dynamics modules reuse them directly.

The public constructor validates every index tuple.  Results that the
kernels have already cleaned (strictly increasing in-range tuples of the
right length, no zero coefficient) skip that through the trusted
constructor `_AltTensor._raw`: `wedge`, `hook`, `cohook`, `ext_d`, `+`,
unary `-`, and `scale` by a nonzero factor.  User input (`from_named`,
`parse_form`, direct construction) is always validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .algebra import Polynomial, parse_polynomial, read_integer, sort_with_sign


class CoordKind(str, Enum):
    POSITION = "position"
    MOMENTUM = "momentum"
    ENERGY = "energy"
    GAUGE = "gauge"
    OTHER = "other"

    @property
    def is_fiber(self) -> bool:
        # Momentum-like directions: the fiber of the bundle over the base
        # manifold of positions/gauge potentials.
        return self in (CoordKind.MOMENTUM, CoordKind.ENERGY)


@dataclass(frozen=True)
class CoordinateFrame:
    """Ordered coordinate system of a chart: (name, kind) pairs."""

    coords: tuple[tuple[str, CoordKind], ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(name for name, _ in self.coords)
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})
        # the frame is immutable, so its base/fiber split is computed once
        fiber = tuple(i for i, (_, kind) in enumerate(self.coords) if kind.is_fiber)
        object.__setattr__(self, "_fiber", fiber)
        object.__setattr__(self, "_base", tuple(i for i in range(len(names)) if i not in fiber))

    @classmethod
    def build(cls, coords: Iterable[tuple[str, str | CoordKind]]) -> CoordinateFrame:
        return cls(tuple((name, CoordKind(kind)) for name, kind in coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"unknown coordinate {name!r}") from None

    def kind(self, name: str) -> CoordKind:
        return self.coords[self.index(name)][1]

    def base_indices(self) -> tuple[int, ...]:
        return self._base  # type: ignore[attr-defined]

    def fiber_indices(self) -> tuple[int, ...]:
        return self._fiber  # type: ignore[attr-defined]

    # polynomial helpers over this frame's variables
    def poly_zero(self) -> Polynomial:
        return Polynomial.zero(self.names)

    def poly_const(self, value) -> Polynomial:
        return Polynomial.const(self.names, value)

    def poly_var(self, name: str) -> Polynomial:
        return Polynomial.var(self.names, name)

    def parse_poly(self, text: str) -> Polynomial:
        return parse_polynomial(text, self.names)


# ---------------------------------------------------------------------------
# coefficient-agnostic kernels on sparse antisymmetric term dicts
# ---------------------------------------------------------------------------

Terms = dict  # Mapping[tuple[int, ...], coefficient]


@lru_cache(maxsize=1024)
def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
    """Sign of sorting the concatenation of two increasing index tuples
    (pure, so memoized: the kernels meet the same pairs over and over)."""
    if not left:
        return right, 1
    if not right:
        return left, 1
    return sort_with_sign(left + right)


def _add_terms(target: Terms, key: tuple[int, ...], value, sign: int = 1) -> None:
    """target[key] += sign * value for sign +-1, subtracting instead of
    negating `value` when the key is already there; a zero sum drops the key."""
    acc = target.get(key)
    if acc is None:
        acc = value if sign == 1 else -value
    else:
        acc = acc + value if sign == 1 else acc - value
    if acc:
        target[key] = acc
    else:
        target.pop(key, None)


def _wedge_terms(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            key, sign = _merge_sign(ia, ib)
            if sign:
                _add_terms(out, key, ca * cb, sign)
    return out


def _pair_terms(x: Terms, mu: Terms):
    """Sum over shared increasing index tuples; None when empty (caller
    substitutes its zero)."""
    acc = None
    small, large = (x, mu) if len(x) <= len(mu) else (mu, x)
    for key, c in small.items():
        d = large.get(key)
        if d is not None:
            term = c * d
            acc = term if acc is None else acc + term
    return acc


def _hook_terms(x: Terms, mu: Terms) -> Terms:
    """Interior product of a k-vector into an l-form, k <= l; with the
    arguments swapped, of an l-form into a k-vector (the cohook)."""
    out: Terms = {}
    for ix, cx in x.items():
        sx = set(ix)
        for im, cm in mu.items():
            if not sx.issubset(im):
                continue
            rest = tuple(i for i in im if i not in sx)
            _, sign = _merge_sign(ix, rest)
            if sign:
                _add_terms(out, rest, cx * cm, sign)
    return out


def eval_terms(terms: Mapping[tuple[int, ...], Polynomial], point: Sequence[Fraction]) -> Terms:
    """Evaluate polynomial coefficients at a rational point -> Fraction dict."""
    out: Terms = {}
    for key, poly in terms.items():
        value = poly.eval(point)
        if value:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# public classes
# ---------------------------------------------------------------------------


class _AltTensor:
    """Shared sparse antisymmetric tensor with Polynomial coefficients."""

    __slots__ = ("frame", "degree", "terms")
    is_form: bool = False

    def __init__(self, frame: CoordinateFrame, degree: int, terms: Mapping[tuple[int, ...], Polynomial] | None = None):
        if not 0 <= degree <= frame.dim:
            raise ValueError(f"degree {degree} out of range for dimension {frame.dim}")
        self.frame = frame
        self.degree = degree
        clean: dict[tuple[int, ...], Polynomial] = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple(key)
                if len(key) != degree:
                    raise ValueError(f"index tuple {key} has length {len(key)}, expected {degree}")
                if any(not 0 <= i < frame.dim for i in key):
                    raise ValueError(f"index tuple {key} out of range")
                if list(key) != sorted(set(key)):
                    raise ValueError(f"index tuple {key} must be strictly increasing")
                if coeff:
                    clean[key] = coeff
        self.terms = clean

    # construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, frame: CoordinateFrame, degree: int, terms: dict[tuple[int, ...], Polynomial]):
        """Trusted constructor for kernel results that are already clean
        (see the module docstring); takes ownership of `terms`."""
        result = cls.__new__(cls)
        result.frame = frame
        result.degree = degree
        result.terms = terms
        return result

    @classmethod
    def zero(cls, frame: CoordinateFrame, degree: int):
        return cls(frame, degree)

    @classmethod
    def from_named(cls, frame: CoordinateFrame, degree: int, entries: Iterable[tuple[Sequence[str], Polynomial | Fraction | int]]):
        """Build from (coordinate-name tuple, coefficient) entries; unsorted
        name tuples are canonicalized with the permutation sign."""
        terms: dict[tuple[int, ...], Polynomial] = {}
        for names, coeff in entries:
            idx = tuple(frame.index(n) for n in names)
            key, sign = sort_with_sign(idx)
            if sign == 0:
                continue
            if not isinstance(coeff, Polynomial):
                coeff = frame.poly_const(coeff)
            _add_terms(terms, key, coeff, sign)
        return cls(frame, degree, terms)

    def assert_compatible(self, other: "_AltTensor") -> None:
        if self.frame != other.frame:
            raise ValueError("coordinate frame mismatch")
        if self.is_form != other.is_form:
            raise ValueError("cannot mix forms and multivectors")

    # ring structure ---------------------------------------------------------

    def _combine(self, other, sign: int):
        self.assert_compatible(other)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_terms(terms, key, coeff, sign)
        return self._raw(self.frame, self.degree, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return self._raw(self.frame, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, factor: Polynomial | Fraction | int):
        if not isinstance(factor, Polynomial):
            factor = self.frame.poly_const(factor)
        if not factor:
            return self._raw(self.frame, self.degree, {})
        # a product of nonzero polynomials is nonzero
        return self._raw(self.frame, self.degree, {k: factor * c for k, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _AltTensor):
            return NotImplemented
        return (
            self.is_form == other.is_form
            and self.frame == other.frame
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.is_form, self.degree, frozenset((k, c) for k, c in self.terms.items())))

    def coefficient(self, names: Sequence[str]) -> Polynomial:
        idx = tuple(self.frame.index(n) for n in names)
        key, sign = sort_with_sign(idx)
        if sign == 0:
            return self.frame.poly_zero()
        coeff = self.terms.get(key)
        if coeff is None:
            return self.frame.poly_zero()
        return coeff if sign == 1 else -coeff

    def at_point(self, point: Sequence[Fraction]):
        """Same tensor with coefficients evaluated (still Polynomial-typed,
        but constant)."""
        frame = self.frame
        return type(self)(
            frame,
            self.degree,
            {k: frame.poly_const(v) for k, v in eval_terms(self.terms, point).items()},
        )

    def __repr__(self):
        tag = "Form" if self.is_form else "Multivector"
        names = self.frame.names
        entries = ", ".join(
            f"({','.join(names[i] for i in key)}): {coeff.to_text()}" for key, coeff in sorted(self.terms.items())
        )
        return f"<{tag} deg {self.degree} {{{entries}}}>"


class PolyForm(_AltTensor):
    is_form = True


class PolyMultivector(_AltTensor):
    is_form = False


def form_basis(frame: CoordinateFrame, *names: str) -> PolyForm:
    """dx^{a} ^ dx^{b} ^ ... for the given coordinate names."""
    return PolyForm.from_named(frame, len(names), [(names, 1)])


def vector_basis(frame: CoordinateFrame, *names: str) -> PolyMultivector:
    return PolyMultivector.from_named(frame, len(names), [(names, 1)])


# ---------------------------------------------------------------------------
# the operations
# ---------------------------------------------------------------------------


def wedge(a: _AltTensor, b: _AltTensor) -> _AltTensor:
    """Exterior product; graded-commutative: a^b = (-1)^{deg a deg b} b^a."""
    a.assert_compatible(b)
    degree = a.degree + b.degree
    if degree > a.frame.dim:
        return a._raw(a.frame, a.frame.dim, {})  # identically zero at top degree overflow
    return a._raw(a.frame, degree, _wedge_terms(a.terms, b.terms))


def pair(x: PolyMultivector, mu: PolyForm) -> Polynomial:
    """Duality pairing <X, mu>; zero when the degrees differ."""
    if x.frame != mu.frame:
        raise ValueError("coordinate frame mismatch")
    if x.degree != mu.degree:
        return x.frame.poly_zero()
    acc = _pair_terms(x.terms, mu.terms)
    return x.frame.poly_zero() if acc is None else acc


def hook(x: PolyMultivector, mu: PolyForm) -> PolyForm:
    """X . mu: <Y, X . mu> = <X ^ Y, mu> for every (deg mu - deg X)-vector Y."""
    if x.frame != mu.frame:
        raise ValueError("coordinate frame mismatch")
    if x.degree > mu.degree:
        raise ValueError(f"hook needs deg X <= deg mu, got {x.degree} > {mu.degree} (use cohook)")
    return PolyForm._raw(mu.frame, mu.degree - x.degree, _hook_terms(x.terms, mu.terms))


def cohook(x: PolyMultivector, mu: PolyForm) -> PolyMultivector:
    """X L mu: <X L mu, nu> = <X, mu ^ nu> for every (deg X - deg mu)-form nu."""
    if x.frame != mu.frame:
        raise ValueError("coordinate frame mismatch")
    if x.degree < mu.degree:
        raise ValueError(f"cohook needs deg X >= deg mu, got {x.degree} < {mu.degree} (use hook)")
    return PolyMultivector._raw(x.frame, x.degree - mu.degree, _hook_terms(mu.terms, x.terms))


def ext_d(mu: PolyForm) -> PolyForm:
    """Exterior derivative; d(f dx^J) = sum_a (df/da) dx^a ^ dx^J."""
    frame = mu.frame
    if mu.degree == frame.dim:
        return PolyForm._raw(frame, frame.dim, {})  # nothing above top degree on the chart
    out: dict[tuple[int, ...], Polynomial] = {}
    names = frame.names
    for key, coeff in mu.terms.items():
        # d/da of coeff is nonzero exactly when coordinate a occurs in it;
        # the exponent keys are read from the storage, not the Fraction view
        used = {a for expo in coeff._num for a, e in enumerate(expo) if e}
        for a in sorted(used.difference(key)):
            new_key, sign = _merge_sign((a,), key)
            _add_terms(out, new_key, coeff.diff(names[a]), sign)
    return PolyForm._raw(frame, mu.degree + 1, out)


def lie_bracket(xi: PolyMultivector, eta: PolyMultivector) -> PolyMultivector:
    """[xi, eta]^c = xi^a d_a eta^c - eta^a d_a xi^c (vector fields only)."""
    if xi.degree != 1 or eta.degree != 1:
        raise ValueError("lie_bracket is defined for degree-1 multivectors")
    if xi.frame != eta.frame:
        raise ValueError("coordinate frame mismatch")
    frame = xi.frame
    names = frame.names
    out: dict[tuple[int, ...], Polynomial] = {}
    for (a,), xa in xi.terms.items():
        for key, ec in eta.terms.items():
            d = ec.diff(names[a])
            if d:
                _add_terms(out, key, xa * d)
    for (a,), ea in eta.terms.items():
        for key, xc in xi.terms.items():
            d = xc.diff(names[a])
            if d:
                _add_terms(out, key, ea * d, -1)
    return PolyMultivector(frame, 1, out)


def lie_derivative(xi: PolyMultivector, mu: PolyForm) -> PolyForm:
    """Cartan formula L_xi mu = xi . d mu + d(xi . mu)."""
    if xi.degree != 1:
        raise ValueError("lie_derivative is defined along vector fields")
    first = hook(xi, ext_d(mu))
    if mu.degree == 0:
        return first
    return first + ext_d(hook(xi, mu))


def all_index_tuples(dim: int, degree: int) -> list[tuple[int, ...]]:
    return list(combinations(range(dim), degree))


def parse_form(frame: CoordinateFrame, spec: Mapping, kind: str = "form") -> _AltTensor:
    """Load a form/multivector from its file representation:

        {"degree": k, "terms": [{"indices": ["q1", "p12"], "coeff": "<poly>"}]}

    Index order in the file may be unsorted; it is canonicalized with the
    permutation sign.  A value of the wrong JSON shape is a ValueError
    naming its field.
    """
    cls = PolyForm if kind == "form" else PolyMultivector
    if not isinstance(spec, Mapping):
        raise ValueError(f"a {kind} must be an object with a degree and terms, got {type(spec).__name__}")
    degree = read_integer(f"the degree of a {kind}", spec["degree"])
    terms = spec.get("terms", [])
    if not isinstance(terms, list):
        raise ValueError(f"the terms of a {kind} must be a list, got {terms!r}")
    entries = []
    for item in terms:
        if not isinstance(item, Mapping):
            raise ValueError(f"every term of a {kind} must be an object with indices and coeff, "
                             f"got {type(item).__name__}")
        names, coeff = item["indices"], item["coeff"]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise ValueError(f"the indices of a {kind} term must be a list of coordinate names, got {names!r}")
        if len(names) != degree:
            raise ValueError(f"term {names} does not match degree {degree}")
        if isinstance(coeff, str):
            coeff = frame.parse_poly(coeff)
        elif isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise ValueError(f"the coeff of {kind} term {names} must be a string or a number, got {coeff!r}")
        entries.append((names, coeff))
    return cls.from_named(frame, degree, entries)


def dump_form(tensor: _AltTensor) -> dict:
    """Canonical file representation (sorted index tuples, reduced rationals)."""
    names = tensor.frame.names
    return {
        "degree": tensor.degree,
        "terms": [
            {"indices": [names[i] for i in key], "coeff": tensor.terms[key].to_text()}
            for key in sorted(tensor.terms)
        ],
    }
