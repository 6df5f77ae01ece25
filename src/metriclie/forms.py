"""Symmetric bilinear forms on Lie algebras.

Degenerate forms are first-class values here: most of the structure theory
in low dimensions runs on degeneracy arguments, so nothing silently assumes
an invertible matrix.  Nondegeneracy claims are certified exactly: "yes" by
an explicit witness (a cheap candidate or the first simplex-lattice point
with a nonzero determinant), "no" by the determinant of the generic
invariant form vanishing on the whole simplex lattice, or, before any
determinant, by the dimensions of the central series.

The series certificate.  A nondegenerate ad-invariant form B gives
C_r = (C^r)-perp for every r, so dim C^r + dim C_r = n; the first r where
the sum differs from n proves that no such form exists.  Proof, by
induction from C^0 = g and C_0 = 0 (B nondegenerate): C^r is spanned by
the [y, c] with c in C^(r-1), and B([y, c], x) = B(c, [x, y]) by
invariance and antisymmetry alone, so x is orthogonal to C^r iff
[x, y] lies in (C^(r-1))-perp = C_(r-1) for every y, that is iff x lies in
C_r.  The Jacobi identity is never used, so the certificate also holds for
the invariance solutions of a table that is not a Lie algebra.

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
from numbers import Integral
from typing import Iterator, Sequence

from .algebra import (LieAlgebra, Subspace, is_ideal, lower_central,
                      restricted_algebra, upper_central)
from .base import CheckResult, DegenerateMetricError, InputError, once
from .linalg import (_coerce, _kernel, _scaled, basis_vector, contract,
                     determinant, invert, mat, mat_mul, mat_vec, nullspace,
                     solve, transpose, vec)
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
        """Sparse (i, j, value) entries, symmetrized automatically; equal
        values spelled differently ("1/2", "2/4") do not conflict."""
        m = [[Fraction(0)] * dim for _ in range(dim)]
        seen = {}
        for (i, j, value) in entries:
            # the int test first: the Integral check is an ABC lookup
            if not ((type(i) is int or isinstance(i, Integral))
                    and (type(j) is int or isinstance(j, Integral))
                    and 0 <= i < dim and 0 <= j < dim):
                raise InputError(f"metric index out of range: ({i!r},{j!r})")
            value = _coerce(value)
            for (a, b) in ((i, j), (j, i)):
                if (a, b) in seen and seen[(a, b)] != value:
                    raise InputError(f"conflicting metric entries at ({a},{b})")
                seen[(a, b)] = value
                m[a][b] = value
        return SymBilinearForm(dim, m)

    def evaluate(self, x: Sequence, y: Sequence):
        return sum((a * b for a, b in zip(vec(x), mat_vec(self.matrix, vec(y)))),
                   start=Fraction(0))

    def radical(self) -> Subspace:
        """{x : B(x, .) = 0}, one elimination per form (over Z if rational)."""
        return once(self, "_radical", lambda: Subspace.span(
            _kernel(self.matrix, self.dim), self.dim))

    def is_nondegenerate(self) -> bool:
        return not self.radical().dim


def _require_nondegenerate(B: SymBilinearForm, what: str) -> None:
    """Raise DegenerateMetricError naming the radical unless B is nondegenerate."""
    if not B.is_nondegenerate():
        rad = B.radical()
        raise DegenerateMetricError(f"{what}; radical: {rad}", radical=rad)


def _inverse(B: SymBilinearForm) -> tuple:
    """The matrix of a nondegenerate B inverted, once per form."""
    return once(B, "_inverse", lambda: invert(B.matrix))


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
    """<[x,y],z> + <y,[x,z]> = 0 on all basis triples; checked once per
    algebra and form, so the check a caller runs serves the functions that
    take the form's invariance as a precondition."""
    if B.dim != g.dim:
        raise InputError("form and algebra dimensions differ")
    checked = once(g, "_ad_invariant", dict)
    if B not in checked:
        checked[B] = CheckResult.from_witness(
            _skew_witness(B, g.dense), "ad-invariance fails")
    return checked[B]


def orthogonal_complement(B: SymBilinearForm, m: Subspace) -> Subspace:
    """{x : <x, v> = 0 for all v in m}.  Need not be a complement of m."""
    if m.ambient_dim != B.dim:
        raise InputError("subspace ambient dimension does not match form")
    rows = [mat_vec(B.matrix, b) for b in m.rows]
    return Subspace.span(_kernel(rows, B.dim), B.dim)


def signature(B: SymBilinearForm) -> Signature:
    """Exact inertia by symmetric congruence elimination.

    Each step takes a diagonal pivot.  When every remaining diagonal entry
    vanishes but some a[i][j] does not, the congruence e_i -> e_i + e_j
    (row j added to row i, column j to column i) makes a[i][i] = 2 a[i][j]
    nonzero first.  The result is pivot-order independent by Sylvester's
    law.
    """
    n = B.dim
    a = [list(row) for row in B.matrix]
    alive = list(range(n))
    plus = minus = 0
    while alive:
        piv = next((i for i in alive if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in alive for j in alive if a[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            for k in alive:
                a[piv][k] += a[j][k]
            for k in alive:
                a[k][piv] += a[k][j]
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
    return Signature(plus, minus, n - plus - minus)


def _pair_index(n: int):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _form_from_coeffs(n: int, coeffs) -> SymBilinearForm:
    return SymBilinearForm.from_entries(
        n, [(i, j, c) for (i, j), c in zip(_pair_index(n), coeffs) if c])


def _skew_rows(n: int, maps) -> Iterator[tuple[tuple, list]]:
    """Yield ((i, x, y), row), in lexicographic order, for each map A_i in
    ``maps`` (given by its images A[x] of the basis vectors) and basis pair
    x <= y: row dotted with Q's entries in the unknowns of ``_pair_index(n)``
    is Q(A_i x, y) + Q(x, A_i y), and each row starts at int 0.  The one
    builder of this identity, for the two form solvers and three checks."""
    index = {p: c for c, p in enumerate(_pair_index(n))}
    at = [[index[min(a, b), max(a, b)] for b in range(n)] for a in range(n)]
    for i, A in enumerate(maps):
        images = [[(l, c) for l, c in enumerate(image) if c] for image in A]
        for x in range(n):
            for y in range(x, n):
                row = [0] * len(index)
                for l, c in images[x]:
                    row[at[l][y]] += c
                for l, c in images[y]:
                    row[at[x][l]] += c
                yield (i, x, y), row


def _skew_form_rows(n: int, maps) -> set:
    """The nonzero rows of ``_skew_rows``, collected into a set."""
    return {tuple(row) for _, row in _skew_rows(n, maps) if any(row)}


def _skew_witness(B: SymBilinearForm, maps):
    """First (i, j, k), in lexicographic order, where the map A_i of ``maps``
    (given as in ``_skew_rows``) is not skew for B, B(A_i e_j, e_k) +
    B(e_j, A_i e_k) != 0; None when every map is skew.  That sum is
    symmetric in j, k, so the first failure has j <= k: the first row whose
    dot with B's entries, scaled once, is nonzero."""
    b, _ = _scaled([B.matrix[i][j] for i, j in _pair_index(B.dim)])
    return next((key for key, row in _skew_rows(B.dim, maps)
                 if sum(r * x for r, x in zip(row, b) if r)), None)


def invariant_form_space(g: LieAlgebra) -> list[SymBilinearForm]:
    """Canonical basis of the space of ad-invariant symmetric bilinear forms.

    The invariance identity <[e_i, x], y> + <x, [e_i, y]> = 0 is one
    homogeneous linear system in the n(n+1)/2 unknowns b_ij; this returns
    its exact nullspace.  Every returned form passes ``is_ad_invariant`` and
    every ad-invariant form is a combination of the returned ones.  The
    rows are built over Z from the integer structure table.
    """
    return _form_space(g.dim, g.dense)


def _form_space(n: int, maps) -> list[SymBilinearForm]:
    """Canonical basis of the symmetric forms Q on R^n for which every map
    of ``maps`` (given as in ``_skew_rows``) is skew: one form per vector of
    the nullspace of ``_skew_form_rows``."""
    basis = nullspace(list(_skew_form_rows(n, maps)), ncols=n * (n + 1) // 2)
    return [_form_from_coeffs(n, b) for b in basis]


@dataclass(frozen=True)
class FormSearch:
    """Outcome of the nondegenerate-invariant-form search.

    ``witness`` is a nondegenerate ad-invariant form when ``found`` is True.
    Otherwise det(sum t_i B_i) vanished at every point of the simplex
    lattice {t in Z^k : t >= 0, sum t = n}, which proves it vanishes
    identically (see the module docstring): unisolvence of the principal
    lattice (Chung and Yao 1977) makes it zero on sum t = n, and homogeneity
    of degree n on every other sum t = c != 0.  ``grid_points_checked``
    counts the lattice points walked after the cheap candidates: on "no"
    all C(n+k-1, k-1) of them, on "yes" the 1-based index of the witness
    (0 when a cheap candidate was nondegenerate).

    ``series_r`` is set on a "no" the central series decided: the first r
    with dim C^r + dim C_r != n, which no nondegenerate invariant form
    allows.  Such a "no" walks no lattice, so ``grid_points_checked`` is 0.
    It is None when the lattice decided.
    """

    found: bool
    witness: SymBilinearForm | None
    space_dim: int
    grid_points_checked: int = 0
    series_r: int | None = None


def has_nondegenerate_invariant_form(g: LieAlgebra) -> FormSearch:
    """Search the invariant-form space for a nondegenerate element.

    The central series come first: at the first r with dim C^r + dim C_r
    != n the answer is a certified "no" with ``series_r`` = r, and no
    determinant is taken (see the module docstring).  Otherwise cheap
    candidates (identity-in-span, basis elements, a weighted sum) are
    tried.  Then the simplex lattice decides in one walk: the first
    point t with det(sum t_i B_i) != 0 is the witness, and if every
    determinant there vanishes the answer is a certified "no".
    A lattice of more than MAX_LATTICE_POINTS points raises InputError
    before its first determinant.  The search runs once per algebra.
    """
    def search():
        n = g.dim
        r = next((r for r in range(n + 1)
                  if lower_central(g, r).dim + upper_central(g, r).dim != n),
                 None)
        if r is None:
            return _search_span(invariant_form_space(g))
        rows = list(_skew_form_rows(n, g.dense))
        return FormSearch(False, None, len(_kernel(rows, n * (n + 1) // 2)),
                          series_r=r)

    return once(g, "_form_search", search)


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
    points = math.comb(n + k - 1, k - 1)

    def walk():
        yield from ((0, coeffs) for coeffs in candidates)
        if points > MAX_LATTICE_POINTS:
            raise InputError(
                f"deciding the {k}-dim invariant-form space takes {points} "
                f"lattice determinants, more than {MAX_LATTICE_POINTS}")
        yield from enumerate(_simplex_lattice(n, k), start=1)

    # det(sum t_i B_i) from the rows of the B_i; only a witness becomes a form
    rows = [tuple(B.matrix[i] for B in space) for i in range(n)]
    for checked, t in walk():
        M = [contract(r, (t,)) for r in rows]
        if determinant(M):
            return FormSearch(True, SymBilinearForm(n, M), k, checked)
    return FormSearch(False, None, k, points)


def _simplex_lattice(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The C(n+k-1, k-1) points t in Z^k with t >= 0 and sum t = n, one per
    placement of k-1 bars among n+k-1 slots (stars and bars), yielded one
    at a time as int tuples."""
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        ends = (-1,) + bars + (n + k - 1,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def killing_form(g: LieAlgebra) -> SymBilinearForm:
    """K(x, y) = trace(ad x . ad y); always ad-invariant.  ad(e_i) has
    entries c[i][s][r], so each trace is summed over the integer structure
    table, then scaled by 1/D^2."""
    n = g.dim
    ads = [transpose(plane) for plane in g.dense]
    scale = Fraction(1, g.D ** 2)
    return SymBilinearForm.from_entries(n, [
        (i, j, scale * sum(ads[i][r][s] * ads[j][s][r]
                           for r in range(n) for s in range(n)))
        for i in range(n) for j in range(i, n)])


def series_duality_check(g: LieAlgebra, B: SymBilinearForm) -> CheckResult:
    """C^r = (C_r)-perp for all r <= dim g.

    B must be nondegenerate and ad-invariant; both preconditions are
    verified before the series are compared.  For a nondegenerate B,
    dim (C_r)-perp = dim g - dim C_r, so the equality also gives
    dim C^r + dim C_r = dim g.
    """
    _require_nondegenerate(B, "series duality needs a nondegenerate form")
    inv = is_ad_invariant(g, B)
    if not inv:
        raise InputError(f"series duality needs an ad-invariant form ({inv})")
    # both series stay put from their first repeat on, so once the pair
    # repeats every later r asks the same question again
    checked = None
    for r in range(g.dim + 1):
        pair = (lower_central(g, r), upper_central(g, r))
        if pair == checked:
            break
        checked = pair
        if orthogonal_complement(B, pair[1]) != pair[0]:
            return CheckResult(False, "C^r != (C_r)-perp", r)
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
