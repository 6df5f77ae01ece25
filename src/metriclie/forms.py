"""Symmetric bilinear forms on Lie algebras.

Degenerate forms are first-class values here: most of the structure theory
in low dimensions runs on degeneracy arguments, so nothing silently assumes
an invertible matrix.  Nondegeneracy claims are certified exactly, either by
an explicit witness or by determinant-polynomial identity testing on an
integer grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (LieAlgebra, Subspace, is_ideal, lower_central,
                      restricted_algebra, upper_central)
from .base import CheckResult, DegenerateMetricError, InputError
from .linalg import basis_vector, determinant, mat, mat_vec, nullspace, solve, vec
from .scalars import sign_of


def _eval(m, x, y):
    total = Fraction(0)
    for xi, row in zip(x, m):
        if xi:
            total += xi * sum((a * b for a, b in zip(row, y)), start=Fraction(0))
    return total


@dataclass(frozen=True)
class SymBilinearForm:
    """Symmetric matrix of entries <e_i, e_j>; degeneracy allowed."""

    dim: int
    matrix: tuple

    def __post_init__(self):
        m = mat(self.matrix)
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise InputError("form matrix has wrong size")
        for i in range(self.dim):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise InputError(f"form matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def from_entries(dim: int, entries: Sequence[tuple]) -> "SymBilinearForm":
        """Sparse (i, j, value) entries, symmetrized automatically."""
        m = [[Fraction(0)] * dim for _ in range(dim)]
        seen = {}
        for (i, j, value) in entries:
            for (a, b) in ((i, j), (j, i)):
                if not (0 <= a < dim and 0 <= b < dim):
                    raise InputError(f"metric index out of range: ({i},{j})")
                if (a, b) in seen and seen[(a, b)] != value:
                    raise InputError(f"conflicting metric entries at ({a},{b})")
                seen[(a, b)] = value
                m[a][b] = value
        return SymBilinearForm(dim, mat(m))

    def evaluate(self, x: Sequence, y: Sequence):
        return _eval(self.matrix, vec(x), vec(y))

    def radical(self) -> Subspace:
        return Subspace.span(nullspace(self.matrix, ncols=self.dim), self.dim)

    def is_nondegenerate(self) -> bool:
        return bool(determinant(self.matrix))


@dataclass(frozen=True)
class Signature:
    """Sylvester inertia: positive squares, negative squares, radical dim."""

    plus: int
    minus: int
    null: int

    def as_tuple(self):
        return (self.plus, self.minus, self.null)

    def is_lorentzian(self) -> bool:
        # both overall sign conventions accepted
        n = self.plus + self.minus
        return self.null == 0 and n >= 2 and (self.minus == 1 or self.plus == 1)

    def __str__(self):
        return f"({self.plus},{self.minus},{self.null})"


def is_ad_invariant(g: LieAlgebra, B: SymBilinearForm) -> CheckResult:
    """<[x,y],z> + <y,[x,z]> = 0 on all basis triples."""
    if B.dim != g.dim:
        raise InputError("form and algebra dimensions differ")
    n = g.dim
    for i in range(n):
        for j in range(n):
            cij = g.bracket_basis(i, j)
            for k in range(n):
                val = _eval(B.matrix, cij, basis_vector(n, k)) + \
                    _eval(B.matrix, basis_vector(n, j), g.bracket_basis(i, k))
                if val:
                    return CheckResult(False, "ad-invariance fails", (i, j, k))
    return CheckResult(True)


def orthogonal_complement(B: SymBilinearForm, m: Subspace) -> Subspace:
    """{x : <x, v> = 0 for all v in m}.  Need not be a complement of m."""
    if m.ambient_dim != B.dim:
        raise InputError("subspace ambient dimension does not match form")
    rows = [mat_vec(B.matrix, b) for b in m.basis]
    return Subspace.span(nullspace(rows, ncols=B.dim), B.dim)


def signature(B: SymBilinearForm) -> Signature:
    """Exact inertia by symmetric congruence elimination.

    Diagonal pivots are used while available; when every remaining diagonal
    entry vanishes, a nonzero off-diagonal pair spans a hyperbolic plane and
    contributes one square of each sign.  The result is pivot-order
    independent by Sylvester's law.
    """
    n = B.dim
    a = [list(row) for row in B.matrix]
    alive = list(range(n))
    plus = minus = 0
    while alive:
        piv = next((i for i in alive if a[i][i]), None)
        if piv is not None:
            if sign_of(a[piv][piv]) > 0:
                plus += 1
            else:
                minus += 1
            d = a[piv][piv]
            alive.remove(piv)
            factors = {i: a[i][piv] / d for i in alive}
            for i in alive:
                if factors[i]:
                    for j in alive:
                        a[i][j] -= factors[i] * a[piv][j]
            continue
        pair = next(((i, j) for i in alive for j in alive if i < j and a[i][j]),
                    None)
        if pair is None:
            break
        i0, j0 = pair
        plus += 1
        minus += 1
        h = a[i0][j0]
        alive.remove(i0)
        alive.remove(j0)
        ci = {k: a[k][i0] for k in alive}
        cj = {k: a[k][j0] for k in alive}
        for k in alive:
            for l in alive:
                a[k][l] -= (ci[k] * cj[l] + cj[k] * ci[l]) / h
    null = n - plus - minus
    return Signature(plus, minus, null)


def _pair_index(n: int):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _form_from_coeffs(n: int, coeffs) -> SymBilinearForm:
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in zip(_pair_index(n), coeffs):
        m[i][j] = c
        m[j][i] = c
    return SymBilinearForm(n, mat(m))


def _skew_form_rows(n: int, maps) -> set:
    """Nonzero rows of Q(Ax, y) + Q(x, Ay) = 0 for every map A in ``maps``,
    in the unknowns of ``_pair_index(n)``; each A is given by its images
    A[x] of the basis vectors.  Only pairs x <= y are visited: the (y, x)
    row is the same row."""
    index = {p: c for c, p in enumerate(_pair_index(n))}
    rows = set()
    for A in maps:
        for x in range(n):
            for y in range(x, n):
                row = [Fraction(0)] * len(index)
                for l in range(n):
                    if A[x][l]:
                        row[index[min(l, y), max(l, y)]] += A[x][l]
                    if A[y][l]:
                        row[index[min(x, l), max(x, l)]] += A[y][l]
                if any(row):
                    rows.add(tuple(row))
    return rows


def invariant_form_space(g: LieAlgebra) -> list[SymBilinearForm]:
    """Canonical basis of the space of ad-invariant symmetric bilinear forms.

    The invariance identity <[e_i, x], y> + <x, [e_i, y]> = 0 is one
    homogeneous linear system in the n(n+1)/2 unknowns b_ij; this returns
    its exact nullspace.  Every returned form passes ``is_ad_invariant`` and
    every ad-invariant form is a combination of the returned ones.
    """
    n = g.dim
    basis = nullspace(sorted(_skew_form_rows(n, g.structure)),
                      ncols=n * (n + 1) // 2)
    return [_form_from_coeffs(n, b) for b in basis]


@dataclass(frozen=True)
class FormSearch:
    """Outcome of the nondegenerate-invariant-form search.

    ``witness`` is a nondegenerate ad-invariant form when ``found`` is True.
    Otherwise the determinant polynomial vanished on the whole certification
    grid, which proves it vanishes identically: the determinant has degree at
    most n in each coefficient and the grid has n+1 points per variable.
    """

    found: bool
    witness: SymBilinearForm | None
    space_dim: int
    grid_points_checked: int = 0


def _combination(space, coeffs) -> SymBilinearForm:
    n = space[0].dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for c, B in zip(coeffs, space):
        if c:
            for i in range(n):
                for j in range(n):
                    m[i][j] += c * B.matrix[i][j]
    return SymBilinearForm(n, mat(m))


def has_nondegenerate_invariant_form(g: LieAlgebra) -> FormSearch:
    """Search the invariant-form space for a nondegenerate element.

    Cheap candidates (identity-in-span, basis elements, a weighted sum) are
    tried first so 'yes' answers never enumerate the certification grid.
    """
    space = invariant_form_space(g)
    k = len(space)
    n = g.dim
    if k == 0:
        return FormSearch(False, None, 0)

    target = [Fraction(1 if i == j else 0) for (i, j) in _pair_index(n)]
    cols = [[B.matrix[i][j] for B in space] for (i, j) in _pair_index(n)]
    combo = solve(cols, target)
    candidates = []
    if combo is not None:
        candidates.append(combo)
    candidates += [basis_vector(k, t) for t in range(k)]
    candidates.append(tuple(Fraction(t + 1) for t in range(k)))
    for coeffs in candidates:
        B = _combination(space, coeffs)
        if B.is_nondegenerate():
            return FormSearch(True, B, k)
    checked = 0
    for coeffs in itertools.product(range(n + 1), repeat=k):
        checked += 1
        B = _combination(space, [Fraction(c) for c in coeffs])
        if B.is_nondegenerate():
            return FormSearch(True, B, k, checked)
    return FormSearch(False, None, k, checked)


def killing_form(g: LieAlgebra) -> SymBilinearForm:
    """K(x, y) = trace(ad x . ad y); always ad-invariant."""
    n = g.dim
    ads = [g.ad(basis_vector(n, i)) for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tr = sum((ads[i][r][s] * ads[j][s][r]
                      for r in range(n) for s in range(n)), start=Fraction(0))
            m[i][j] = tr
            m[j][i] = tr
    return SymBilinearForm(n, mat(m))


def series_duality_check(g: LieAlgebra, B: SymBilinearForm) -> CheckResult:
    """C^r = (C_r)-perp and dim C^r + dim C_r = dim g for all r <= dim g.

    B must be nondegenerate and ad-invariant; both preconditions are
    verified before the series are compared.
    """
    if not B.is_nondegenerate():
        raise DegenerateMetricError("series duality needs a nondegenerate form",
                                    radical=B.radical())
    inv = is_ad_invariant(g, B)
    if not inv:
        raise InputError(f"series duality needs an ad-invariant form ({inv})")
    for r in range(g.dim + 1):
        lower = lower_central(g, r)
        upper = upper_central(g, r)
        if orthogonal_complement(B, upper) != lower:
            return CheckResult(False, "C^r != (C_r)-perp", r)
        if lower.dim + upper.dim != g.dim:
            return CheckResult(False, "dim C^r + dim C_r != dim g", r)
    return CheckResult(True)


def restrict_form(B: SymBilinearForm, m: Subspace) -> SymBilinearForm:
    """Matrix of B on the canonical basis of the subspace."""
    if m.ambient_dim != B.dim:
        raise InputError("subspace ambient dimension does not match form")
    k = m.dim
    rows = [[_eval(B.matrix, m.basis[a], m.basis[b]) for b in range(k)]
            for a in range(k)]
    return SymBilinearForm(k, mat(rows))


def transform_form(B: SymBilinearForm, P: Sequence[Sequence]) -> SymBilinearForm:
    """Form in the basis f_i = P e_i, i.e. P^T B P."""
    P = mat(P)
    n = B.dim
    BP = [[sum((B.matrix[r][s] * P[s][j] for s in range(n)), start=Fraction(0))
           for j in range(n)] for r in range(n)]
    m = [[sum((P[r][i] * BP[r][j] for r in range(n)), start=Fraction(0))
          for j in range(n)] for i in range(n)]
    return SymBilinearForm(n, mat(m))


@dataclass(frozen=True)
class SplitResult:
    """Decomposition attempt g = j (+) j-perp for an ideal j.

    On a successful split the restricted forms on both summands are included
    and certified ad-invariant for the induced subalgebra structures.
    """

    split: bool
    ideal: Subspace
    complement: Subspace | None = None
    radical: Subspace | None = None
    ideal_form: SymBilinearForm | None = None
    complement_form: SymBilinearForm | None = None


def split_nondegenerate_ideal(g: LieAlgebra, B: SymBilinearForm,
                              j: Subspace) -> SplitResult:
    """Split g = j (+) j-perp when B restricted to the ideal j is nondegenerate.

    On success both summands are ideals carrying ad-invariant restricted
    forms; on failure the radical of the restriction is reported (as a
    subspace of the ambient algebra).
    """
    if not is_ideal(g, j):
        raise InputError("the given subspace is not an ideal")
    restricted = restrict_form(B, j)
    if j.dim and not restricted.is_nondegenerate():
        rad = restricted.radical()
        amb = Subspace.span([_lift(j.basis, coeffs) for coeffs in rad.basis],
                            g.dim)
        return SplitResult(False, j, radical=amb)
    perp = orthogonal_complement(B, j)
    if not is_ideal(g, perp):
        # cannot happen for ad-invariant B; defensive for general input
        raise InputError("orthogonal complement is not an ideal; B not ad-invariant?")
    forms = []
    for part, form in ((j, restricted), (perp, restrict_form(B, perp))):
        if part.dim:
            sub = restricted_algebra(g, part)
            inv = is_ad_invariant(sub, form)
            if not inv:
                raise InputError(f"restricted form not ad-invariant: {inv}")
        forms.append(form if part.dim else None)
    return SplitResult(True, j, complement=perp,
                       ideal_form=forms[0], complement_form=forms[1])


def _lift(basis, coeffs):
    n = len(basis[0])
    out = [Fraction(0)] * n
    for c, b in zip(coeffs, basis):
        for i in range(n):
            out[i] += c * b[i]
    return tuple(out)
