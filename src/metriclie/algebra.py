"""Exact Lie algebra engine: brackets, series, ideals, basis changes.

A Lie algebra is its dimension plus the rank-3 array of structure constants
c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k, all entries exact
rationals, held as one integer table D c scaled once at construction;
the brackets, both central series and the double bracket read it, and the
Fraction ``structure`` is built on first read.  Antisymmetry is enforced
at construction; the Jacobi identity is checked on demand
(``jacobi_check``) so that deliberately broken inputs can still be built
and diagnosed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Integral
from operator import mul
from typing import Iterable, Sequence

from .base import CheckResult, InputError, once, set_fields
from .linalg import (_coerce, _kernel, _rref_rows, _scaled, _unscaled,
                     basis_vector, identity_matrix, invert, is_zero_vector,
                     mat, mat_vec, solve, tensor, transpose, vec)
from .scalars import frac


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n in canonical form: ``rows`` are the nonzero rows of
    its RREF as ``linalg._rref_rows`` holds them, primitive ints with
    positive pivots (each row of a subspace spanned over Q(sqrt d) and not
    over Q that is not rational has a leading one instead).  Any spanning
    vectors given are reduced, so equality of subspaces is equality of
    rows.  ``basis``, the RREF with leading ones, is built on first read."""

    ambient_dim: int
    rows: tuple = ()

    def __post_init__(self):
        rows = [tuple(v) for v in self.rows]
        if any(len(r) != self.ambient_dim for r in rows):
            raise InputError("vector length does not match ambient dimension")
        object.__setattr__(self, "rows", _rref_rows(rows)[0])

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, vectors)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, identity_matrix(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple:
        return once(self, "_basis", lambda: tuple(
            _unscaled(row, next(x for x in row if x)) for row in self.rows))

    def contains(self, v: Sequence) -> bool:
        # the rows are canonical, so v adds nothing iff they are reproduced
        return Subspace.span(self.rows + (tuple(v),), self.ambient_dim) == self

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise InputError("subspace ambient dimensions differ")
        return all(self.contains(b) for b in other.rows)

    def __str__(self):
        if not self.basis:
            return "{0}"
        return "span{" + "; ".join(str(list(map(str, b))) for b in self.basis) + "}"


@dataclass(frozen=True, init=False)
class LieAlgebra:
    """Structure constants c[i][j][k] of [e_i, e_j] = sum_k c[i][j][k] e_k,
    held over Z: dense[i][j][k] = D c[i][j][k], D the lcm of their
    denominators, zeros as int 0 (D = 1 and the constants as they are when
    one is a QuadExt).  dim, D, dense and name are the value, so ``==``,
    ``hash`` and ``repr`` mean same dim, constants and name; ``structure``
    (the constants as Fractions) and ``pairs`` are built on first read."""

    dim: int
    D: int
    dense: tuple
    name: str

    def __init__(self, dim: int, structure: Sequence, name: str = ""):
        n, s = dim, structure
        if n <= 0:
            raise InputError("dimension must be positive")
        if len(s) != n or any(len(p) != n or any(len(r) != n for r in p) for p in s):
            raise InputError("structure array must be dim x dim x dim")
        ints, D = _scaled([_coerce(c) or 0 for plane in s for cij in plane
                           for c in cij])
        C = _table(n, ints)
        # (i, j, k) fails iff (j, i, k) does, so j >= i finds the first failure
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    if C[i][j][k] != -C[j][i][k]:
                        raise InputError(
                            f"structure constants not antisymmetric at ({i},{j},{k})")
        set_fields(self, dim=n, D=D, dense=C, name=name)

    @property
    def structure(self) -> tuple:
        return once(self, "_structure", lambda: tuple(
            tuple(_unscaled(cij, self.D) for cij in plane) for plane in self.dense))

    @property
    def pairs(self) -> tuple:
        """(i, j, ((k, D c[i][j][k]) for c[i][j][k] != 0)) for each i < j
        with c[i][j] != 0, as ``bracket`` reads them."""
        return once(self, "_pairs", lambda: tuple(
            (i, j, tuple((k, c) for k, c in enumerate(self.dense[i][j]) if c))
            for i, j in itertools.combinations(range(self.dim), 2)
            if any(self.dense[i][j])))

    @staticmethod
    def from_brackets(dim: int, brackets: Iterable[tuple], name: str = "") -> "LieAlgebra":
        """Build from sparse entries (i, j, k, value) meaning [e_i,e_j] has value*e_k.

        The antisymmetric partner (j, i, k, -value) is filled in automatically;
        conflicting duplicates are an error.  The entries given are scaled
        to the integer table once, with no dense Fraction table between.
        """
        seen = {}
        for (i, j, k, value) in brackets:
            if not all(isinstance(x, Integral) and 0 <= x < dim for x in (i, j, k)):
                raise InputError(f"bracket index out of range: ({i!r},{j!r},{k!r})")
            v = frac(value)
            for (a, b, w) in ((i, j, v), (j, i, -v)):
                if a == b and w != 0:
                    raise InputError(f"[e_{a}, e_{a}] must vanish")
                key = (a, b, k)
                if key in seen and seen[key] != w:
                    raise InputError(f"conflicting bracket entries at {key}")
                seen[key] = w
        if dim <= 0:
            raise InputError("dimension must be positive")
        ints, D = _scaled(list(seen.values()))
        flat = [0] * dim ** 3
        for (a, b, k), x in zip(seen, ints):
            flat[(a * dim + b) * dim + k] = x
        return set_fields(object.__new__(LieAlgebra), dim=dim, D=D,
                          dense=_table(dim, flat), name=name)

    def bracket_basis(self, i: int, j: int) -> tuple:
        return self.structure[i][j]

    def ad(self, x: Sequence) -> tuple:
        """Matrix of ad_x = [x, .] in the basis (columns are images of e_j)."""
        x = vec(x)
        n = self.dim
        cols = [bracket(self, x, basis_vector(n, j)) for j in range(n)]
        return tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))


def _table(n: int, ints: list) -> tuple:
    """The n^3 entries ints, in the order of (i, j, k), as the nested tuples
    of ``LieAlgebra.dense``."""
    return tensor(n, 2, lambda i, j: tuple(ints[(i * n + j) * n:
                                                (i * n + j + 1) * n]))


def bracket(g: LieAlgebra, x: Sequence, y: Sequence) -> tuple:
    """[x, y] in coordinates; exact and bilinear.  Summed over Z from the
    integer structure table, with x and y each scaled once (``_scaled``)."""
    x, y = vec(x), vec(y)
    if len(x) != g.dim or len(y) != g.dim:
        raise InputError("vector length does not match algebra dimension")
    xs, dx = _scaled(x)
    ys, dy = _scaled(y)
    return _unscaled(_bracket_over_z(g.pairs, xs, ys), g.D * dx * dy)


def _bracket_over_z(pairs, xs, ys) -> list:
    """D [x, y] for x and y over Z and ``pairs`` of an integer table of
    scale D: sum over i < j of (x_i y_j - x_j y_i) D c[i][j], its entries
    left as they are (a QuadExt table or vector at scale 1 included)."""
    acc = [0] * len(xs)
    for i, j, row in pairs:
        w = xs[i] * ys[j] - xs[j] * ys[i]
        if w:
            for k, c in row:
                acc[k] += w * c
    return acc


def jacobi_check(g: LieAlgebra) -> CheckResult:
    """Jacobi identity over all basis triples i < j < k; checked once per
    algebra, so the check run when an algebra is loaded serves later callers."""
    return once(g, "_jacobi", lambda: CheckResult.from_witness(
        _jacobi_witness(g), "Jacobi identity fails"))


def _jacobi_witness(g: LieAlgebra):
    """The first basis triple i < j < k where Jacobi fails, else None.  The
    double bracket is scaled by D^2 > 0, which keeps zeros zero."""
    T = _double_bracket(g)
    return next(((i, j, k) for i, j, k in itertools.combinations(range(g.dim), 3)
                 if not is_zero_vector(add3(T[i][j][k], T[j][k][i], T[k][i][j]))),
                None)


def _double_bracket(g: LieAlgebra) -> tuple:
    """T[i][j][k] = D^2 [[e_i, e_j], e_k] over Z, D the scale of the integer
    structure table (D = 1 and the constants as they are for a QuadExt
    table), built once per algebra: sum_l Dc[i][j][l] Dc[l][k] for each
    nonzero pair i < j, over its nonzero terms only, its (j, i) leaves
    negated and one zero plane shared by the rest."""
    def build():
        n, C = g.dim, g.dense
        zero = ((0,) * n,) * n
        T = [[zero] * n for _ in range(n)]
        for i, j, row in g.pairs:
            T[i][j] = tuple(tuple(sum(c * C[l][k][m] for l, c in row
                                      if C[l][k][m])
                                  for m in range(n)) for k in range(n))
            T[j][i] = tuple(tuple(-x for x in leaf) for leaf in T[i][j])
        return tuple(map(tuple, T))
    return once(g, "_double_bracket", build)


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
    """C^r: C^0 = g, C^r = [g, C^(r-1)]; stable by r = dim g, built once
    per algebra, over Z from the integer structure table."""
    if r < 0:
        raise InputError("r must be nonnegative")
    n = g.dim

    def build():
        # D [e_i, b] has the entries of b dotted with the columns of D c[i]
        cols = [tuple(zip(*plane)) for plane in g.dense]
        return _chain(Subspace.full(n), lambda c: Subspace.span(
            [tuple(sum(map(mul, b, col)) for col in cols[i])
             for i in range(n) for b in c.rows], n), n)

    return once(g, "_lower_central", build)[min(r, n)]


def upper_central(g: LieAlgebra, r: int) -> Subspace:
    """C_r: C_0 = 0, C_r = {x : [x, g] in C_(r-1)}; built once per algebra,
    over Z from the integer structure table."""
    if r < 0:
        raise InputError("r must be nonnegative")
    n = g.dim
    C = g.dense

    def step(c):
        # x -> [x, e_j] has matrix M with M[k][i] = c[i][j][k]; x lies in
        # the next term iff a M x = 0 for each kernel vector a of c's rows
        ann = _kernel(c.rows, n)
        rows = [tuple(sum(map(mul, a, C[i][j])) for i in range(n))
                for j in range(n) for a in ann]
        return Subspace.span(_kernel(rows, n), n)

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
               for i in range(n) for b in s.rows)


def is_abelian(g: LieAlgebra) -> bool:
    return not g.pairs


def is_solvable(g: LieAlgebra) -> bool:
    """Derived series g, [g,g], [[g,g],[g,g]], ... reaches zero."""
    # [a, a] = 0 and [b, a] = -[a, b] add nothing to the span
    derived = _chain(Subspace.full(g.dim), lambda c: Subspace.span(
        [bracket(g, a, b) for a, b in itertools.combinations(c.rows, 2)],
        g.dim), g.dim)
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
