"""Exact dense linear algebra over the rationals (or any exact field scalar).

Matrices are tuples of row tuples, vectors plain tuples.  Entries are
Fractions in normal use; anything supporting field arithmetic and truthiness
(e.g. QuadExt) works as well.  Row reduction is plain Gauss-Jordan with
leading-one pivots, which makes reduced forms canonical and subspace
equality a tuple comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .base import InputError
from .scalars import QuadExt, frac

Vector = tuple
Matrix = tuple


def _coerce(x):
    return x if isinstance(x, QuadExt) else frac(x)


def vec(entries) -> Vector:
    return tuple(_coerce(x) for x in entries)


def mat(rows) -> Matrix:
    out = tuple(tuple(_coerce(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise InputError("ragged matrix")
    return out


def identity_matrix(n) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def basis_vector(n, i) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def mat_vec(A, x) -> Vector:
    return tuple(sum((a * b for a, b in zip(row, x)), start=row[0] * 0) for row in A)


def mat_mul(A, B) -> Matrix:
    bt = tuple(zip(*B))
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), start=row[0] * 0)
                       for col in bt) for row in A)


def transpose(A) -> Matrix:
    return tuple(zip(*A))


def is_zero_vector(x) -> bool:
    return all(not a for a in x)


def contract(T, vectors) -> Vector:
    """Evaluate a tensor at p coefficient vectors x_1..x_p:

        sum over i_1..i_p of x_1[i_1] .. x_p[i_p] T[i_1]..[i_p],

    where T is stored as nested tuples whose leaves T[i_1]..[i_p] are
    coefficient vectors.  Zero coefficients are skipped at every level, so
    sparse arguments (basis vectors above all) cost little; all-zero input
    gives the zero vector of the leaf length.
    """
    leaf = T
    for _ in vectors:
        leaf = leaf[0]
    acc = [Fraction(0)] * len(leaf)
    terms = [(T, 1)]
    for x in vectors:
        terms = [(sub, w * xi) for part, w in terms
                 for xi, sub in zip(x, part) if xi]
    for leaf, w in terms:
        for k, c in enumerate(leaf):
            if c:
                acc[k] += w * c
    return tuple(acc)


def rref(A: Sequence[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns."""
    rows = [list(r) for r in A]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def row_space(A) -> Matrix:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    R, pivots = rref(A)
    return tuple(R[i] for i in range(len(pivots)))


def rank(A) -> int:
    return len(rref(A)[1])


def nullspace(A, ncols: int | None = None) -> list[Vector]:
    """Canonical basis of {x : A x = 0}; pass ncols when A may be empty."""
    if not A:
        if ncols is None:
            raise InputError("nullspace of empty matrix needs ncols")
        return [basis_vector(ncols, i) for i in range(ncols)]
    n = len(A[0])
    R, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(tuple(v))
    return basis


def solve(A, b) -> Vector | None:
    """One solution of A x = b with free variables set to zero, or None."""
    sol, _ = solve_with_certificate(A, b)
    return sol


def solve_with_certificate(A, b):
    """Solve A x = b exactly.

    Returns ``(solution, None)`` or, when inconsistent, ``(None, row)``
    where ``row`` is the reduced row exhibiting 0 = nonzero.
    """
    if not A:
        return ((), None) if is_zero_vector(tuple(b)) or not b else (None, tuple(b))
    n = len(A[0])
    aug = [list(row) + [rhs] for row, rhs in zip(A, b)]
    R, pivots = rref(aug)
    if n in pivots:
        bad = next(row for row in R if not any(row[:n]) and row[n])
        return None, tuple(bad)
    x = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        x[p] = R[r][n]
    return tuple(x), None


def invert(A) -> Matrix:
    n = len(A)
    if any(len(r) != n for r in A):
        raise InputError("inverse of a non-square matrix")
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(A)]
    R, pivots = rref(aug)
    if tuple(pivots)[:n] != tuple(range(n)):
        raise InputError("singular matrix")
    return tuple(tuple(row[n:]) for row in R[:n])


def determinant(A):
    n = len(A)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in A):
        raise InputError("determinant of a non-square matrix")
    rows = [list(r) for r in A]
    det = rows[0][0] * 0 + 1
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return rows[0][0] * 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        det = det * rows[c][c]
        inv = rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det * sign


def reduce_against(v, rows) -> Vector:
    """Residual of v after elimination by RREF rows (zero iff v in row space)."""
    v = list(v)
    for row in rows:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is not None and v[p]:
            f = v[p] / row[p]
            v = [x - f * y for x, y in zip(v, row)]
    return tuple(v)
