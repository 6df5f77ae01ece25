"""Symmetric bilinear forms on Lie algebras.

Degenerate forms are first-class values here: most of the structure theory
in low dimensions runs on degeneracy arguments, so nothing silently assumes
an invertible matrix.  Nondegeneracy claims are certified exactly: "yes" by
an explicit witness, "no" by the determinant of the generic invariant form
vanishing on the simplex lattice.

The lattice certificate.  For a basis B_1..B_k of the invariant forms of an
n-dimensional algebra, p(t) = det(sum t_i B_i) is homogeneous of degree n.
It is the zero polynomial as soon as it vanishes at the C(n+k-1, k-1)
integer points t >= 0 with sum t = n.  Proof: on the hyperplane sum t = n,
p has degree <= n in k-1 free coordinates, and the principal lattice is
unisolvent for that degree (Chung and Yao, SIAM J. Numer. Anal. 14, 1977),
so p vanishes on the hyperplane; by homogeneity it then vanishes on every
hyperplane sum t = c != 0, a dense set.  The argument holds over any field
of characteristic 0, so Q(sqrt d) entries need nothing extra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .algebra import (LieAlgebra, Subspace, is_ideal, lower_central,
                      restricted_algebra, upper_central)
from .base import CheckResult, DegenerateMetricError, InputError, once
from .linalg import (basis_vector, contract, determinant, mat, mat_mul,
                     mat_vec, nullspace, solve, transpose, vec)
from .scalars import sign_of

# determinants one "no" certificate may take: C(n+k-1, k-1) lattice points
MAX_LATTICE_POINTS = 10**5


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
        return SymBilinearForm(dim, m)

    def evaluate(self, x: Sequence, y: Sequence):
        return sum((a * b for a, b in zip(vec(x), mat_vec(self.matrix, vec(y)))),
                   start=Fraction(0))

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
    return CheckResult.from_witness(_skew_witness(B, g.structure),
                                    "ad-invariance fails")


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
    return SymBilinearForm(n, m)


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


def _skew_witness(B: SymBilinearForm, maps):
    """First (i, j, k), in lexicographic order, with

        B(A_i e_j, e_k) + B(e_j, A_i e_k) = (B A_i e_j)_k + (B A_i e_k)_j != 0,

    that is, the first place where a map A_i of ``maps`` (given as in
    ``_skew_form_rows``) is not skew for B; None when every map is skew."""
    for i, A in enumerate(maps):
        BA = [mat_vec(B.matrix, image) for image in A]
        for j, k in itertools.product(range(len(BA)), repeat=2):
            if BA[j][k] + BA[k][j]:
                return (i, j, k)
    return None


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
    Otherwise det(sum t_i B_i) vanished at every point of the simplex
    lattice {t in Z^k : t >= 0, sum t = n}, which proves it vanishes
    identically (see the module docstring): unisolvence of the principal
    lattice (Chung and Yao 1977) makes it zero on sum t = n, and homogeneity
    of degree n on every other sum t = c != 0.  ``grid_points_checked`` counts the determinants
    taken after the cheap candidates: on "no" the C(n+k-1, k-1) lattice
    points, on "yes" the points of the (n+1)^k grid walked up to the witness
    (0 when a cheap candidate was nondegenerate).
    """

    found: bool
    witness: SymBilinearForm | None
    space_dim: int
    grid_points_checked: int = 0


def _combination(space, coeffs) -> SymBilinearForm:
    n = space[0].dim
    return SymBilinearForm(n, [
        contract(tuple(B.matrix[i] for B in space), (coeffs,))
        for i in range(n)])


def has_nondegenerate_invariant_form(g: LieAlgebra) -> FormSearch:
    """Search the invariant-form space for a nondegenerate element.

    Cheap candidates (identity-in-span, basis elements, a weighted sum) are
    tried first.  Then the simplex lattice decides: if every determinant
    there vanishes the answer is a certified "no"; otherwise the witness is
    the first nondegenerate point of the (n+1)^k grid in lexicographic order.
    A lattice of more than MAX_LATTICE_POINTS points raises InputError
    before its first determinant.  The search runs once per algebra.
    """
    return once(g, "_form_search",
                lambda: _search_span(invariant_form_space(g)))


def _search_span(space: list[SymBilinearForm]) -> FormSearch:
    """The search of ``has_nondegenerate_invariant_form`` on the span of the
    given n x n forms."""
    k = len(space)
    if k == 0:
        return FormSearch(False, None, 0)
    n = space[0].dim

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
    points = math.comb(n + k - 1, k - 1)
    if points > MAX_LATTICE_POINTS:
        raise InputError(
            f"deciding the {k}-dim invariant-form space takes {points} lattice "
            f"determinants, more than {MAX_LATTICE_POINTS}")
    # det(sum t_i B_i) from the rows of the B_i, without building each form
    rows = [tuple(B.matrix[i] for B in space) for i in range(n)]
    if not any(determinant([contract(r, (t,)) for r in rows])
               for t in _simplex_lattice(n, k)):
        return FormSearch(False, None, k, points)
    for checked, coeffs in enumerate(
            itertools.product(range(n + 1), repeat=k), start=1):
        B = _combination(space, [Fraction(c) for c in coeffs])
        if B.is_nondegenerate():
            return FormSearch(True, B, k, checked)
    raise AssertionError("a nonzero determinant polynomial vanished on the grid")


def _simplex_lattice(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The C(n+k-1, k-1) points t in Z^k with t >= 0 and sum t = n, one per
    placement of k-1 bars among n+k-1 slots (stars and bars), yielded one
    at a time as int tuples."""
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        ends = (-1,) + bars + (n + k - 1,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


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
    return SymBilinearForm(n, m)


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
    return transform_form(B, transpose(m.basis) or ((),) * B.dim)


def transform_form(B: SymBilinearForm, P: Sequence[Sequence]) -> SymBilinearForm:
    """Form on the vectors f_a = P e_a, the k columns of the n x k matrix P,
    i.e. the k x k matrix P^T B P."""
    P = mat(P)
    if len(P) != B.dim:
        raise InputError("basis change must have one row per form dimension")
    return SymBilinearForm(len(P[0]) if P else 0,
                           mat_mul(mat_mul(transpose(P), B.matrix), P))


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
        amb = Subspace.span([contract(j.basis, (coeffs,))
                             for coeffs in rad.basis], g.dim)
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
