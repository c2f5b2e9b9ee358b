"""Exact linear algebra over the rationals.

Gaussian elimination with Fraction entries; no pivot-size heuristics are
needed since arithmetic is exact.  `LinearSolver` factors a rational
matrix once and then solves `A x = b` for many right-hand sides whose
entries may be Fractions *or* Polynomials (anything a Fraction can
multiply), which is how the constant-coefficient contraction systems of
the charts are solved with symbolic right-hand sides.  `sparse_minor`
is the one determinant routine: exact cofactor expansion over sparse rows
with memoized sub-minors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

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


class RowBasis:
    """Incrementally maintained reduced row echelon basis of a row span.

    Designed for very tall matrices whose rank is bounded by the (small)
    column count: rows are fed one at a time, dependent rows are dropped
    immediately, and the kernel can be read off at any point.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots: list[int] = []
        self.rows: list[list[Fraction]] = []
        self.tags: list = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Sequence[Fraction]) -> list[Fraction]:
        r = [Fraction(x) for x in row]
        for pivot, brow in zip(self.pivots, self.rows):
            factor = r[pivot]
            if factor:
                for j in range(self.cols):
                    if brow[j]:
                        r[j] -= factor * brow[j]
        return r

    def add(self, row: Sequence[Fraction], tag=None) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        r = self.reduce(row)
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        inv = 1 / r[pivot]
        r = [x * inv for x in r]
        for brow in self.rows:
            factor = brow[pivot]
            if factor:
                for j in range(self.cols):
                    if r[j]:
                        brow[j] -= factor * r[j]
        position = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.pivots.insert(position, pivot)
        self.rows.insert(position, r)
        self.tags.insert(position, tag)
        return True

    def nullspace(self) -> list[list[Fraction]]:
        free = [c for c in range(self.cols) if c not in self.pivots]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.cols
            vec[f] = Fraction(1)
            for row_idx, p in enumerate(self.pivots):
                vec[p] = -self.rows[row_idx][f]
            basis.append(vec)
        return basis


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


def column_space_rref(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis (RREF rows) of the span of the given vectors.

    Useful for comparing subspaces exactly: two spans are equal iff their
    canonical bases are equal.
    """
    if not vectors:
        return []
    r, _, pivots = rref(vectors)
    return [row for row in r[: len(pivots)]]


def sparse_minor(
    rows: Sequence[Mapping[int, Fraction]],
    columns: tuple[int, ...],
    memo: dict[tuple[int, ...], Fraction],
) -> Fraction:
    """Determinant of the square submatrix on the first len(columns) rows
    and the given columns, with rows stored sparsely as column -> value.

    Laplace expansion along the last used row, skipping absent and zero
    entries.  Sub-minors are memoized by their column tuple, which together
    with its length names the submatrix, so one memo may be shared by all
    minors of the same rows.
    """
    size = len(columns)
    if not size:
        return Fraction(1)
    hit = memo.get(columns)
    if hit is not None:
        return hit
    row = rows[size - 1]
    total = Fraction(0)
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
