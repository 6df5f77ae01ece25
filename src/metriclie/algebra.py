"""Exact Lie algebra engine: brackets, series, ideals, basis changes.

A Lie algebra is its dimension plus the rank-3 array of structure constants
c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k, all entries exact
rationals.  Antisymmetry is enforced at construction; the Jacobi identity
is checked on demand (``jacobi_check``) so that deliberately broken inputs
can still be built and diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .base import CheckResult, InputError, once
from .linalg import (basis_vector, invert, is_zero_vector, mat, mat_vec,
                     nullspace, reduce_against, row_space, solve, tensor,
                     transpose, vec)
from .scalars import frac


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held in canonical row-reduced form.

    Equality of subspaces is equality of the stored bases.
    """

    ambient_dim: int
    basis: tuple = ()

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise InputError("vector length does not match ambient dimension")
        return Subspace(ambient_dim, row_space(rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span([basis_vector(ambient_dim, i) for i in range(ambient_dim)],
                             ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vector(reduce_against(vec(v), self.basis))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def __str__(self):
        if not self.basis:
            return "{0}"
        return "span{" + "; ".join(str(list(map(str, b))) for b in self.basis) + "}"


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c[i][j][k] of [e_i, e_j] = sum_k c[i][j][k] e_k."""

    dim: int
    structure: tuple
    name: str = ""

    def __post_init__(self):
        n = self.dim
        if n <= 0:
            raise InputError("dimension must be positive")
        s = self.structure
        if len(s) != n or any(len(s[i]) != n or any(len(s[i][j]) != n
                                                    for j in range(n))
                              for i in range(n)):
            raise InputError("structure array must be dim x dim x dim")
        c = tuple(tuple(vec(s[i][j]) for j in range(n)) for i in range(n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if c[i][j][k] != -c[j][i][k]:
                        raise InputError(
                            f"structure constants not antisymmetric at ({i},{j},{k})")
        object.__setattr__(self, "structure", c)
        # nonzero (i, j, c[i][j]) with i < j, read by bracket; not a field, so
        # equality and hashing stay those of (dim, structure, name)
        object.__setattr__(self, "_nonzero", tuple(
            (i, j, c[i][j]) for i in range(n) for j in range(i + 1, n)
            if not is_zero_vector(c[i][j])))

    @staticmethod
    def from_brackets(dim: int, brackets: Iterable[tuple], name: str = "") -> "LieAlgebra":
        """Build from sparse entries (i, j, k, value) meaning [e_i,e_j] has value*e_k.

        The antisymmetric partner (j, i, k, -value) is filled in automatically;
        conflicting duplicates are an error.
        """
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        seen = {}
        for (i, j, k, value) in brackets:
            v = frac(value)
            for (a, b, w) in ((i, j, v), (j, i, -v)):
                if not (0 <= a < dim and 0 <= b < dim and 0 <= k < dim):
                    raise InputError(f"bracket index out of range: ({i},{j},{k})")
                if a == b and w != 0:
                    raise InputError(f"[e_{a}, e_{a}] must vanish")
                key = (a, b, k)
                if key in seen and seen[key] != w:
                    raise InputError(f"conflicting bracket entries at {key}")
                seen[key] = w
                c[a][b][k] = w
        return LieAlgebra(dim, tuple(tuple(tuple(row) for row in plane) for plane in c),
                          name=name)

    def bracket_basis(self, i: int, j: int) -> tuple:
        return self.structure[i][j]

    def ad(self, x: Sequence) -> tuple:
        """Matrix of ad_x = [x, .] in the basis (columns are images of e_j)."""
        x = vec(x)
        n = self.dim
        cols = [bracket(self, x, basis_vector(n, j)) for j in range(n)]
        return tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))


def bracket(g: LieAlgebra, x: Sequence, y: Sequence) -> tuple:
    """[x, y] in coordinates; exact and bilinear."""
    x, y = vec(x), vec(y)
    if len(x) != g.dim or len(y) != g.dim:
        raise InputError("vector length does not match algebra dimension")
    acc = [Fraction(0)] * g.dim
    for i, j, cij in g._nonzero:
        w = x[i] * y[j] - x[j] * y[i]
        if w:
            for k, ck in enumerate(cij):
                if ck:
                    acc[k] += w * ck
    return tuple(acc)


def jacobi_check(g: LieAlgebra) -> CheckResult:
    """Jacobi identity over all basis triples i < j < k."""
    n = g.dim
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(i + 1, n):
            ej = basis_vector(n, j)
            for k in range(j + 1, n):
                ek = basis_vector(n, k)
                s = add3(bracket(g, g.bracket_basis(i, j), ek),
                         bracket(g, g.bracket_basis(j, k), ei),
                         bracket(g, g.bracket_basis(k, i), ej))
                if not is_zero_vector(s):
                    return CheckResult(False, "Jacobi identity fails", (i, j, k))
    return CheckResult(True)


def add3(a, b, c):
    return tuple(x + y + z for x, y, z in zip(a, b, c))


def _chain(first, step, n: int) -> tuple:
    """first, step(first), ... up to the first repeat, padded with it to n + 1
    terms (a monotone chain of subspaces of Q^n repeats within n steps)."""
    chain = [first]
    while len(chain) <= n:
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return tuple(chain) + (chain[-1],) * (n + 1 - len(chain))


def lower_central(g: LieAlgebra, r: int) -> Subspace:
    """C^r: C^0 = g, C^r = [g, C^(r-1)]; stable by r = dim g, built once."""
    if r < 0:
        raise InputError("r must be nonnegative")
    n = g.dim

    def step(c):
        return Subspace.span([bracket(g, basis_vector(n, i), b)
                              for i in range(n) for b in c.basis], n)

    return once(g, "_lower_central",
                lambda: _chain(Subspace.full(n), step, n))[min(r, n)]


def upper_central(g: LieAlgebra, r: int) -> Subspace:
    """C_r: C_0 = 0, C_r = {x : [x, g] in C_(r-1)}; built once per algebra."""
    if r < 0:
        raise InputError("r must be nonnegative")
    n = g.dim

    def step(c):
        ann = nullspace(c.basis, ncols=n)
        # x -> [x, e_j] has matrix M with M[k][i] = c[i][j][k]
        rows = [tuple(sum((a[k] * g.structure[i][j][k] for k in range(n)),
                          start=Fraction(0)) for i in range(n))
                for j in range(n) for a in ann]
        return Subspace.span(nullspace(rows, ncols=n), n)

    return once(g, "_upper_central",
                lambda: _chain(Subspace.zero(n), step, n))[min(r, n)]


def center(g: LieAlgebra) -> Subspace:
    return upper_central(g, 1)


def commutator(g: LieAlgebra) -> Subspace:
    return lower_central(g, 1)


def is_ideal(g: LieAlgebra, s: Subspace) -> bool:
    """[g, s] contained in s, checked on bases."""
    if s.ambient_dim != g.dim:
        raise InputError("subspace ambient dimension does not match algebra")
    n = g.dim
    return all(s.contains(bracket(g, basis_vector(n, i), b))
               for i in range(n) for b in s.basis)


def is_abelian(g: LieAlgebra) -> bool:
    return not g._nonzero


def is_solvable(g: LieAlgebra) -> bool:
    """Derived series g, [g,g], [[g,g],[g,g]], ... reaches zero."""
    derived = _chain(Subspace.full(g.dim), lambda c: Subspace.span(
        [bracket(g, a, b) for a in c.basis for b in c.basis], g.dim), g.dim)
    return derived[-1].dim == 0


def is_nilpotent(g: LieAlgebra) -> bool:
    return lower_central(g, g.dim).dim == 0


def change_of_basis(g: LieAlgebra, P: Sequence[Sequence]) -> LieAlgebra:
    """Structure constants in the basis f_i = P e_i.

    The new bracket of coordinate vectors is P^-1 [P u, P v]; composing with
    the inverse change restores the original constants exactly.
    """
    P = mat(P)
    if len(P) != g.dim or any(len(r) != g.dim for r in P):
        raise InputError("basis-change matrix has wrong size")
    try:
        Pinv = invert(P)
    except InputError:
        raise InputError("basis-change matrix is singular") from None
    cols = transpose(P)
    return LieAlgebra(g.dim, tensor(g.dim, 2, lambda i, j: mat_vec(
        Pinv, bracket(g, cols[i], cols[j]))), name=g.name and g.name + "'")


def restricted_algebra(g: LieAlgebra, s: Subspace) -> LieAlgebra:
    """Structure constants of a subalgebra in its canonical basis.

    Raises InputError when s is not closed under the bracket.
    """
    if s.ambient_dim != g.dim:
        raise InputError("subspace ambient dimension does not match algebra")
    k = s.dim
    if k == 0:
        raise InputError("the zero subspace is not an algebra basis")
    cols = transpose(s.basis)

    def coeffs(a, b):
        w = solve(cols, bracket(g, s.basis[a], s.basis[b]))
        if w is None:
            raise InputError("subspace is not closed under the bracket")
        return w

    return LieAlgebra(k, tensor(k, 2, coeffs), name=g.name and g.name + "|sub")


def check_h3_subalgebra(g: LieAlgebra, v1: Sequence, v2: Sequence,
                        v3: Sequence) -> str:
    """Classify a candidate Heisenberg copy inside a 4-dim algebra.

    Returns 'not_h3' unless v1, v2, v3 are independent with [v1,v2] = v3 and
    [v1,v3] = [v2,v3] = 0 exactly; otherwise 'standard' when the span is
    span{e1,e2,e3} and 'nonstandard' when it is some other copy.
    """
    if g.dim < 4:
        raise InputError("the rigidity test lives in a 4-dimensional algebra")
    v1, v2, v3 = vec(v1), vec(v2), vec(v3)
    span = Subspace.span([v1, v2, v3], g.dim)
    if span.dim != 3:
        return "not_h3"
    if bracket(g, v1, v2) != v3:
        return "not_h3"
    if not is_zero_vector(bracket(g, v1, v3)) or not is_zero_vector(bracket(g, v2, v3)):
        return "not_h3"
    n = g.dim
    standard = Subspace.span([basis_vector(n, i) for i in range(1, 4)], n)
    return "standard" if span == standard else "nonstandard"
