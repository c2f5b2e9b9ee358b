"""Exact rational algebra: multi-index combinatorics and sparse polynomials.

Everything in this module is exact.  Scalars are `fractions.Fraction`
(arbitrary-precision, always reduced, positive denominator), so every
algebraic identity downstream can be asserted with `==` instead of a
tolerance.  A polynomial is a sparse map

    exponent tuple (one int per variable)  ->  integer numerator

over one positive common denominator, with no stored zero numerator and
no factor common to the denominator and all numerators, so the stored
form is canonical.  Arithmetic runs on Python integers, as in standard
sparse-polynomial practice (Johnson, SIGSAM Bull. 8(3), 1974; Monagan and
Pearce, ISSAC 2009); `Polynomial.terms` is the `Fraction` view.  The
variable list is carried by the polynomial itself; all polynomials living
on one coordinate chart share the same variable tuple, which keeps the
dense exponent tuples small (chart dimensions here never exceed a few
tens).  Input is read here too: polynomial text by `parse_polynomial`
(exponents up to MAX_EXPONENT), JSON numbers by `read_integer`/`read_number`.
"""

from __future__ import annotations

import operator
import random
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

__all__ = [
    "gen_kronecker",
    "sort_with_sign",
    "Polynomial",
    "parse_polynomial",
    "MAX_EXPONENT",
    "read_integer",
    "read_number",
    "RationalSampler",
]


def sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...] | None, int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    The sign is 0 (and the tuple None) when an index repeats, which is
    exactly when the corresponding antisymmetric term vanishes.
    """
    n = len(indices)
    if len(set(indices)) != n:
        return None, 0
    inversions = 0
    for i in range(n):
        for j in range(i + 1, n):
            if indices[i] > indices[j]:
                inversions += 1
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


def gen_kronecker(upper: Sequence[int], lower: Sequence[int]) -> int:
    """Generalized Kronecker delta: det of the matrix of pairwise deltas.

    Computed by permutation sign, never by literal determinant expansion:
    the value is 0 unless both tuples are permutations of the same set of
    distinct indices, in which case it is the product of the two sorting
    signs.
    """
    if len(upper) != len(lower):
        raise ValueError(f"index tuples must have equal length, got {len(upper)} and {len(lower)}")
    sorted_up, sign_up = sort_with_sign(upper)
    sorted_lo, sign_lo = sort_with_sign(lower)
    if sign_up == 0 or sign_lo == 0 or sorted_up != sorted_lo:
        return 0
    return sign_up * sign_lo


class Polynomial:
    """Sparse multivariate polynomial over the rationals.

    Stored as integer numerators over one denominator: `_num` maps each
    exponent tuple to a nonzero `int` and `_den` is a positive `int`
    coprime to every numerator, so equal polynomials have equal storage
    (the zero polynomial has `_den == 1`).  Every operation works on the
    integers and divides out one gcd per result.  `terms`, the map from
    exponent tuples to `Fraction` coefficients, is a view built on first
    read and kept.  Its keys come in storage order: a sum keeps the terms
    of its left operand and appends the new ones of the right, a sum that
    cancels drops its key, and a product accumulates in nested term order.

    Immutable, and callers rely on it: an operation may return one of its
    operands (`p * 1` is `p`), so no code may mutate the storage, `terms`
    or `variables` after construction.  That is also why the hash is
    computed once, on first use, and kept, and so is the sparse view that
    `eval` and `eval_numerator` read: each term's numerator with the
    (variable index, exponent) pairs of its nonzero exponents, since
    exponent tuples are dense over every variable.
    """

    __slots__ = ("variables", "_num", "_den", "_terms", "_hash", "_sparse")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.variables: tuple[str, ...] = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            nvars = len(self.variables)
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise ValueError(f"exponent tuple {expo} has wrong length for {nvars} variables")
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(expo)] = c
        # over the least common denominator the numerators share no factor with it
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {expo: c.numerator * (den // c.denominator) for expo, c in clean.items()}
        self._den = den
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, variables: tuple[str, ...], num: dict[tuple[int, ...], int], den: int) -> Polynomial:
        """Trusted constructor for a variable tuple, exponent tuples of its
        length, nonzero numerators and a positive denominator; it divides
        out the gcd of the denominator and the numerators (one `gcd` call,
        none when the denominator is 1).  Takes ownership of `num`."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {expo: c // g for expo, c in num.items()}
                den //= g
        result = cls.__new__(cls)
        result.variables = variables
        result._num = num
        result._den = den
        return result

    @classmethod
    def zero(cls, variables: Sequence[str]) -> Polynomial:
        return cls._raw(tuple(variables), {}, 1)

    @classmethod
    def const(cls, variables: Sequence[str], value: Fraction | int) -> Polynomial:
        variables = tuple(variables)
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        if value == 0:
            return cls._raw(variables, {}, 1)
        return cls._raw(variables, {(0,) * len(variables): value.numerator}, value.denominator)

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> Polynomial:
        variables = tuple(variables)
        try:
            idx = variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None
        expo = [0] * len(variables)
        expo[idx] = 1
        return cls._raw(variables, {tuple(expo): 1}, 1)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as `Fraction`s, in storage order (read-only)."""
        try:
            return self._terms
        except AttributeError:
            den = self._den
            self._terms = {expo: Fraction(c, den) for expo, c in self._num.items()}
            return self._terms

    # -- ring operations ----------------------------------------------

    def _check_same_vars(self, other: Polynomial) -> None:
        if self.variables is not other.variables and self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def _combine(self, other: Polynomial, sign: int) -> Polynomial:
        """self + sign * other over the common denominator, with the terms
        of self first and the new terms of other after them in their order."""
        self._check_same_vars(other)
        da, db = self._den, other._den
        if da == db:
            out = dict(self._num)
            factor = sign
        else:
            g = gcd(da, db)
            scale = db // g
            out = {expo: c * scale for expo, c in self._num.items()}
            factor = sign * (da // g)
            da *= scale
        for expo, c in other._num.items():
            prev = out.get(expo)
            if prev is None:
                out[expo] = c * factor
            else:
                s = prev + c * factor
                if s:
                    out[expo] = s
                else:
                    del out[expo]
        return Polynomial._raw(self.variables, out, da)

    def __add__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.variables, other)
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.variables, {expo: -c for expo, c in self._num.items()}, self._den)

    def __sub__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.variables, other)
        return self._combine(other, -1)

    def __rsub__(self, other: Fraction | int) -> Polynomial:
        return (-self) + other

    def _scale(self, n: int, d: int) -> Polynomial:
        """self * (n / d) for a nonzero integer n and a positive integer d:
        no exponent work, term order kept."""
        if n == 1 and d == 1:
            return self
        return Polynomial._raw(self.variables, {expo: c * n for expo, c in self._num.items()}, self._den * d)

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        variables = self.variables
        if not isinstance(other, Polynomial):
            c = other if isinstance(other, (int, Fraction)) else Fraction(other)
            return self._scale(c.numerator, c.denominator) if c else Polynomial._raw(variables, {}, 1)
        self._check_same_vars(other)
        a, b = self._num, other._num
        if not a or not b:
            return Polynomial._raw(variables, {}, 1)
        # a one-term constant operand scales the other one
        if len(b) == 1:
            (eb, cb), = b.items()
            if not any(eb):
                return self._scale(cb, other._den)
        if len(a) == 1:
            (ea, ca), = a.items()
            if not any(ea):
                return other._scale(ca, self._den)
        add = operator.add
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                expo = tuple(map(add, ea, eb))
                prev = out.get(expo)
                if prev is None:
                    out[expo] = ca * cb
                else:
                    s = prev + ca * cb
                    if s:
                        out[expo] = s
                    else:
                        del out[expo]
        return Polynomial._raw(variables, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Polynomial.const(self.variables, 1) if result is None else result

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
            return self._hash

    # -- calculus and evaluation ---------------------------------------

    def diff(self, name: str) -> Polynomial:
        """Exact partial derivative with respect to a named variable."""
        try:
            idx = self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None
        # distinct terms have distinct derivatives, so nothing accumulates
        return Polynomial._raw(self.variables, {
            expo[:idx] + (expo[idx] - 1,) + expo[idx + 1:]: c * expo[idx]
            for expo, c in self._num.items()
            if expo[idx]
        }, self._den)

    def eval(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact evaluation at a rational point (one value per variable).

        Each term is an integer fraction n/d read off the point's
        numerators and denominators at the term's nonzero exponents (the
        sparse view, built on first evaluation and kept); the sum is kept
        over the least common multiple of the d seen so far, and one
        `Fraction` is built at the end."""
        total, total_den = 0, 1
        for c, powers in self._sparse_view(point):
            n, d = c, 1
            for i, e in powers:
                v = point[i]
                n *= v.numerator**e
                d *= v.denominator**e
            if d == total_den:
                total += n
            else:
                g = gcd(d, total_den)
                total = total * (d // g) + n * (total_den // g)
                total_den *= d // g
        return Fraction(total, total_den * self._den)

    def eval_numerator(self, point: Sequence[int]) -> int:
        """The integer N with `self.eval(point) == Fraction(N, self._den)`,
        for a point of `int`s: the numerators summed over the sparse view,
        with no `Fraction` built and no denominator multiplied in."""
        total = 0
        for c, powers in self._sparse_view(point):
            for i, e in powers:
                c *= point[i] ** e
            total += c
        return total

    def _sparse_view(self, point: Sequence) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """Each term's numerator with the (variable index, exponent) pairs
        of its nonzero exponents, built on first evaluation and kept; the
        point's length is checked against the variables first."""
        if len(point) != len(self.variables):
            raise ValueError(f"point has length {len(point)}, expected {len(self.variables)}")
        try:
            return self._sparse
        except AttributeError:
            self._sparse = [(c, tuple((i, e) for i, e in enumerate(expo) if e)) for expo, c in self._num.items()]
            return self._sparse

    def subs(self, assignment: Mapping[str, "Polynomial | Fraction | int"]) -> Polynomial:
        """Substitute polynomials (over the same variable tuple) for variables."""
        images = {name: Polynomial.var(self.variables, name) for name in self.used_variables()}
        for name, value in assignment.items():
            if name not in self.variables:
                raise KeyError(f"unknown variable {name!r}")
            images[name] = value if isinstance(value, Polynomial) else Polynomial.const(self.variables, value)
        return self.transplant(self.variables, images)

    def transplant(self, variables: Sequence[str], assignment: Mapping[str, "Polynomial"]) -> Polynomial:
        """Rewrite onto a new variable tuple, sending each old variable to a
        polynomial over the new variables.  Old variables missing from the
        assignment must not occur in any term.  The numerators are summed
        and `_den` divides once at the end."""
        variables = tuple(variables)
        out = Polynomial.zero(variables)
        constant = (0,) * len(variables)
        for expo, c in self._num.items():
            term = Polynomial._raw(variables, {constant: c}, 1)
            for idx, e in enumerate(expo):
                if not e:
                    continue
                name = self.variables[idx]
                if name not in assignment:
                    raise KeyError(f"variable {name!r} has no image in the new frame")
                term = term * assignment[name] ** e
            out = out + term
        return out._scale(1, self._den)

    # -- inspection ----------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(expo) for expo in self._num)

    def constant_value(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return Fraction(next(iter(self._num.values())), self._den)

    def total_degree(self) -> int:
        return max((sum(expo) for expo in self._num), default=0)

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        return max((expo[idx] for expo in self._num), default=0)

    def used_variables(self) -> set[str]:
        used: set[str] = set()
        for expo in self._num:
            for idx, e in enumerate(expo):
                if e:
                    used.add(self.variables[idx])
        return used

    def coefficient_of(self, name: str) -> Polynomial:
        """Coefficient polynomial of the first power of `name` (collecting in
        one variable)."""
        idx = self.variables.index(name)
        out: dict[tuple[int, ...], int] = {}
        for expo, c in self._num.items():
            if expo[idx] == 1:
                new = list(expo)
                new[idx] = 0
                out[tuple(new)] = c
        return Polynomial._raw(self.variables, out, self._den)

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted by exponent tuple, explicit
        rational coefficient first, `var^e` factors in variable order."""
        if not self.terms:
            return "0"
        pieces = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            factors = [str(coeff)]
            for idx, e in enumerate(expo):
                if e == 1:
                    factors.append(self.variables[idx])
                elif e > 1:
                    factors.append(f"{self.variables[idx]}^{e}")
            pieces.append(" * ".join(factors))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^])|(?P<bad>\S))")

# Exact evaluation of x^e at a rational point costs time and memory that
# grow with e (`q1^30000000` runs for minutes), and no form on the charts
# here needs a high degree, so parsed polynomials are capped well below that.
MAX_EXPONENT = 64


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse the text polynomial syntax: a sum of terms, each a run of `-`
    signs and a `*`-separated product of rational constants `a/b` and factors
    `var^e`, added in text order.  Unknown variable names are rejected, and
    so is a sum with a term raising a variable above the power MAX_EXPONENT."""
    variables = tuple(variables)
    tokens = [(m.lastgroup, m.group(m.lastgroup)) for m in _TOKEN.finditer(text)]
    for kind, value in tokens:
        if kind == "bad":
            raise ValueError(f"unexpected character {value!r} in polynomial")
    if not tokens:
        raise ValueError("empty polynomial text")
    tokens.append(("end", ""))
    terms: dict[tuple[int, ...], Fraction] = {}
    i = 0
    while True:  # one term, then the separator after it
        coeff, expo = Fraction(1), [0] * len(variables)
        while tokens[i] == ("op", "-"):
            coeff, i = -coeff, i + 1
        while True:  # one factor, then the token after it
            kind, value = tokens[i]
            i += 1
            if kind == "num":
                coeff *= int(value)
                if tokens[i] == ("op", "/") and tokens[i + 1][0] == "num":
                    denom = int(tokens[i + 1][1])
                    if denom == 0:
                        raise ValueError("zero denominator")
                    coeff, i = coeff / denom, i + 2
            elif kind == "name":
                if value not in variables:
                    raise ValueError(f"unknown variable {value!r}")
                exponent = 1
                if tokens[i] == ("op", "^") and tokens[i + 1][0] == "num":
                    exponent, i = int(tokens[i + 1][1]), i + 2
                expo[variables.index(value)] += exponent
            elif kind == "end" or value in "+-":
                raise ValueError("dangling operator in polynomial text")
            else:
                raise ValueError(f"unexpected {value!r} in term")
            kind, value = tokens[i]
            if value != "*":
                break
            i += 1
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + coeff
        if not terms[key]:
            del terms[key]
        if kind == "end":
            break
        if value not in ("+", "-"):
            raise ValueError(f"expected '*' or end of term, found {value!r}")
        i += value == "+"  # a '-' opens the next term's sign run
    for key in terms:
        if max(key, default=0) > MAX_EXPONENT:
            raise ValueError(f"exponent {max(key)} exceeds the limit of {MAX_EXPONENT} per factor")
    return Polynomial(variables, terms)


def read_integer(name: str, value) -> int:
    """A JSON integer or integral float as an int; anything else, a boolean
    or a string too, is a ValueError naming `name`."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def read_number(name: str, value) -> int | float:
    """A JSON number (an int or a float) as it is; anything else, a boolean
    or a string too, is a ValueError naming `name`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be a number, got {value!r}")


class RationalSampler:
    """Seeded deterministic source of small rationals.

    Numerators range over [-9, 9] and denominators over {1, 2, 3}: small
    enough that exact arithmetic stays cheap, rich enough to break any
    accidental alignment.  Identical seeds reproduce identical streams.
    Each draw is a numerator index in [0, 19) and a denominator index in
    [0, 3), read straight from `getrandbits` by redrawing out-of-range
    values, into a table of the 57 pairs, so no `Fraction` is built per
    draw.  This is how CPython's `randint(-9, 9)` and `choice((1, 2, 3))`
    draw, so the values and the generator state after every draw are
    theirs (a test pins this).

    Every draw is a multiple of 1/6, so `sixths` reads the same loops
    into a second table of the 57 integers 6 * n / d: it returns
    6 * `rational()`, draw for draw, for a caller that keeps its values as
    integers over the denominator 6.
    """

    _RATIONALS = tuple(tuple(Fraction(n, d) for d in (1, 2, 3)) for n in range(-9, 10))
    _SIXTHS = tuple(tuple(6 * n // d for d in (1, 2, 3)) for n in range(-9, 10))

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._bits = self._rng.getrandbits

    def _draw(self, table: tuple) -> Fraction | int:
        bits = self._bits
        n = bits(5)
        while n >= 19:
            n = bits(5)
        d = bits(2)
        while d == 3:
            d = bits(2)
        return table[n][d]

    def rational(self) -> Fraction:
        return self._draw(self._RATIONALS)

    def sixths(self) -> int:
        return self._draw(self._SIXTHS)

    def nonzero(self) -> Fraction:
        while True:
            value = self.rational()
            if value:
                return value

    def point(self, dim: int) -> tuple[Fraction, ...]:
        return tuple(self.rational() for _ in range(dim))

    def integer(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, items: Sequence):
        return self._rng.choice(items)

    def sample(self, items: Sequence, k: int):
        return self._rng.sample(list(items), k)

    def polynomial(
        self,
        variables: Sequence[str],
        max_degree: int = 2,
        n_terms: int = 3,
        restrict_to: Iterable[str] | None = None,
    ) -> Polynomial:
        """Random sparse polynomial; exponents only on `restrict_to` if given."""
        variables = tuple(variables)
        allowed = [variables.index(v) for v in (restrict_to if restrict_to is not None else variables)]
        terms: dict[tuple[int, ...], Fraction] = {}
        for _ in range(n_terms):
            expo = [0] * len(variables)
            for _ in range(self._rng.randint(0, max_degree)):
                expo[self._rng.choice(allowed)] += 1
            key = tuple(expo)
            terms[key] = terms.get(key, Fraction(0)) + self.rational()
        return Polynomial(variables, {e: c for e, c in terms.items() if c})
