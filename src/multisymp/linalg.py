"""Exact linear algebra over the rationals.

`RowBasis` is the one elimination routine: Gaussian elimination with
Fraction entries into an incrementally maintained reduced row echelon
basis (no pivot-size heuristics are needed since arithmetic is exact).
It keeps each basis row sparse, as its nonzero entries, takes rows dense
or as column -> value mappings, and eliminates over the stored nonzeros
only; its `rows` are a dense view.  `nullspace`, `rref` and
`column_space_rref` read kernels, the transform E with E A = RREF(A), and
canonical span bases off it.  `LinearSolver` solves in the span of fixed
sparse rational columns for many targets whose entries may be Fractions
*or* Polynomials (anything a Fraction can multiply), which is how the
constant-coefficient contraction, copolarization and division systems
are solved with symbolic targets; every solution is checked against the
full system by exact reconstruction.  `sparse_minor` is the one
determinant routine: exact cofactor expansion over sparse rows with
memoized sub-minors, over any ring whose elements mix with `int` 0 and 1
under `+`, `-` and `*` (int, Fraction, Polynomial), so integer rows stay
in Python integers.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Hashable, Mapping, Sequence, TypeVar

Ring = TypeVar("Ring")


class RowBasis:
    """Incrementally maintained reduced row echelon basis of a row span.

    Designed for very tall, sparse matrices whose rank is bounded by the
    (small) column count: rows are fed one at a time, dependent rows are
    dropped immediately, and the kernel can be read off at any point.
    Each basis row is stored as its nonzero entries (column -> Fraction),
    and elimination touches those only.  `rows` is a dense copy of the
    basis, in pivot order.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots: list[int] = []
        self.sparse_rows: list[dict[int, Fraction]] = []

    @property
    def rank(self) -> int:
        return len(self.sparse_rows)

    @property
    def rows(self) -> list[list[Fraction]]:
        zero = Fraction(0)
        return [[row.get(j, zero) for j in range(self.cols)] for row in self.sparse_rows]

    def add(self, row: Sequence[Fraction] | Mapping[int, Fraction]) -> bool:
        """Insert a row, dense or as a column -> value mapping; returns
        True when it enlarged the span."""
        r = {j: x for j, x in (row.items() if isinstance(row, Mapping) else enumerate(row)) if x}
        for pivot, brow in zip(self.pivots, self.sparse_rows):
            factor = r.get(pivot)
            if factor:
                for j, b in brow.items():
                    x = r.get(j, 0) - factor * b
                    if x:
                        r[j] = x
                    else:
                        del r[j]
        if not r:
            return False
        pivot = min(r)
        inv = Fraction(1) / r[pivot]
        r = {j: x * inv for j, x in r.items()}
        for brow in self.sparse_rows:
            factor = brow.get(pivot)
            if factor:
                for j, x in r.items():
                    y = brow.get(j, 0) - factor * x
                    if y:
                        brow[j] = y
                    else:
                        del brow[j]
        position = bisect_left(self.pivots, pivot)
        self.pivots.insert(position, pivot)
        self.sparse_rows.insert(position, r)
        return True

    def nullspace(self) -> list[list[Fraction]]:
        """One kernel vector per free column, in column order."""
        pivots = set(self.pivots)
        kernel = {}
        for f in range(self.cols):
            if f not in pivots:
                vec = [Fraction(0)] * self.cols
                vec[f] = Fraction(1)
                kernel[f] = vec
        for p, row in zip(self.pivots, self.sparse_rows):
            for f, x in row.items():
                if f != p:
                    kernel[f][p] = -x
        return list(kernel.values())


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the kernel of A (list of column vectors)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    basis = RowBasis(cols)
    for row in matrix:
        basis.add(row)
        if basis.rank == cols:
            return []
    return basis.nullspace()


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[list, list, list[int]]:
    """Reduced row echelon form, from one `RowBasis` fed the rows with
    unit vectors appended.

    Returns (R, E, pivots): the nonzero rows R of RREF(A), E with
    E @ A = R, and the pivot column of each row of R.  E is unique when
    the rows of A are independent.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    basis = RowBasis(cols + rows)
    for i, row in enumerate(matrix):
        basis.add({**dict(enumerate(row)), cols + i: Fraction(1)})
    rank = sum(p < cols for p in basis.pivots)
    kept = basis.rows[:rank]
    return [r[:cols] for r in kept], [r[cols:] for r in kept], basis.pivots[:rank]


def column_space_rref(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis (RREF rows) of the span of the given vectors.

    Useful for comparing subspaces exactly: two spans are equal iff their
    canonical bases are equal.
    """
    basis = RowBasis(len(vectors[0]) if vectors else 0)
    for vector in vectors:
        basis.add(vector)
    return basis.rows


class LinearSolver:
    """The span of fixed sparse rational columns (key -> Fraction dicts),
    factored once to solve `sum_j x_j columns[j] = target` for many
    targets.

    Target entries may be Fractions or Polynomials; the coefficients come
    back in the same ring, with free variables set to zero.  Rows are
    picked in first-seen key order by one `RowBasis` and factored by
    `rref`: they are independent, so every pivot falls on a column and E
    is unique.  Each row of E is kept as its nonzero (index, value) pairs.
    Only the picked rows are solved, so `solve` checks the answer on every
    key by exact reconstruction.
    """

    def __init__(self, columns: Sequence[Mapping[Hashable, Fraction]]):
        self.columns = columns
        width = len(columns)
        basis = RowBasis(width)
        self.keys: list = []
        picked = []
        for key in dict.fromkeys(key for column in columns for key in column):
            row = {j: column[key] for j, column in enumerate(columns) if key in column}
            if basis.add(row):
                self.keys.append(key)
                picked.append([row.get(j, Fraction(0)) for j in range(width)])
            if basis.rank == width:
                break
        self.rank = basis.rank
        _, inverse, self.pivots = rref(picked)
        self.inverse = [[(i, e) for i, e in enumerate(row) if e] for row in inverse]

    def solve(self, target: Mapping, zero) -> tuple[list, dict]:
        """Coefficients x of the target, and the nonzero entries of the
        residual `target - sum_j x_j columns[j]` over every key; the
        residual is empty exactly when the target lies in the span.
        `zero` is the zero of the target's ring."""
        rhs = [target.get(key, zero) for key in self.keys]
        coefficients = [zero] * len(self.columns)
        for pivot, e_row in zip(self.pivots, self.inverse):
            acc = zero
            for i, e in e_row:
                acc = acc + rhs[i] * e
            coefficients[pivot] = acc
        residual = dict(target)
        for x, column in zip(coefficients, self.columns):
            if x:
                for key, value in column.items():
                    residual[key] = residual.get(key, zero) - x * value
        return coefficients, {key: r for key, r in residual.items() if r}


def sparse_minor(
    rows: Sequence[Mapping[int, Ring]],
    columns: tuple[int, ...],
    memo: dict[tuple[int, ...], Ring],
) -> Ring:
    """Determinant of the square submatrix on the first len(columns) rows
    and the given columns, with rows stored sparsely as column -> value.

    Laplace expansion along the last used row, skipping absent and zero
    entries.  Sub-minors are memoized by their column tuple, which together
    with its length names the submatrix, so one memo may be shared by all
    minors of the same rows.

    Generic in the ring of the entries: the empty minor is `int` 1 and a
    sum without terms is `int` 0, so integer rows give `int` minors, and
    a minor with at least one nonzero term is in the ring of the entries.
    """
    size = len(columns)
    if not size:
        return 1
    hit = memo.get(columns)
    if hit is not None:
        return hit
    row = rows[size - 1]
    total = 0
    for pos, col in enumerate(columns):
        entry = row.get(col)
        if not entry:
            continue
        sub = sparse_minor(rows, columns[:pos] + columns[pos + 1 :], memo)
        if sub:
            if (size - 1 + pos) % 2:
                total -= entry * sub
            else:
                total += entry * sub
    memo[columns] = total
    return total
