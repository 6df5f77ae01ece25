"""Left-invariant pseudo-Riemannian geometry at the Lie algebra level.

All tensors here live on the algebra: the Levi-Civita connection of a
left-invariant metric is determined by the Koszul formula on the frame,
curvature and Ricci follow by pure algebra, and isometry conditions reduce
to exact matrix identities.

Sign conventions (both appear in the literature, so they are explicit):

* curvature, convention "default":   R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]
* curvature, convention "oneill":    the negative of the above
* Ricci: Ric(x, y) = trace(z -> R(z, x) y), raised to an operator by the
  metric.

"default" is calibrated so that an ad-invariant metric satisfies
R(X,Y) = -1/4 ad([X,Y]) exactly.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from . import catalog
from .algebra import LieAlgebra, Subspace, bracket
from .base import (CheckResult, DegenerateMetricError, InputError)
from .forms import (SymBilinearForm, _form_from_coeffs, _skew_form_rows,
                    is_ad_invariant)
from .linalg import (basis_vector, identity_matrix, invert, is_zero_vector,
                     mat, mat_mul, mat_vec, nullspace, rank,
                     solve_with_certificate, transpose, vec)

CONVENTIONS = ("default", "oneill")


@dataclass(frozen=True)
class Connection:
    """gamma[i][j] = coefficient vector of nabla_{e_i} e_j."""

    algebra: LieAlgebra
    metric: SymBilinearForm
    gamma: tuple

    def nabla(self, i: int, j: int) -> tuple:
        return self.gamma[i][j]

    def nabla_vector(self, i: int, v: Sequence) -> tuple:
        """nabla_{e_i} of a constant-coefficient field v."""
        n = self.algebra.dim
        acc = [Fraction(0)] * n
        for l, vl in enumerate(v):
            if vl:
                for k in range(n):
                    acc[k] += vl * self.gamma[i][l][k]
        return tuple(acc)


def levi_civita(g: LieAlgebra, B: SymBilinearForm) -> Connection:
    """Unique metric-compatible torsion-free connection, by the Koszul
    formula on left-invariant fields:

        2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>.

    For an ad-invariant metric this collapses to nabla_X Y = [X,Y]/2.
    """
    if B.dim != g.dim:
        raise InputError("metric and algebra dimensions differ")
    if not B.is_nondegenerate():
        raise DegenerateMetricError(
            "Levi-Civita connection needs a nondegenerate metric",
            radical=B.radical())
    n = g.dim
    Binv = invert(B.matrix)
    gamma = []
    for i in range(n):
        row = []
        for j in range(n):
            w = []
            for k in range(n):
                ek = basis_vector(n, k)
                val = (B.evaluate(g.bracket_basis(i, j), ek)
                       - B.evaluate(g.bracket_basis(j, k), basis_vector(n, i))
                       + B.evaluate(g.bracket_basis(k, i), basis_vector(n, j)))
                w.append(val / 2)
            row.append(mat_vec(Binv, tuple(w)))
        gamma.append(tuple(row))
    return Connection(g, B, tuple(gamma))


def metric_compatibility_check(conn: Connection) -> CheckResult:
    """<nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0 on basis triples."""
    n = conn.algebra.dim
    B = conn.metric
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = B.evaluate(conn.gamma[i][j], basis_vector(n, k)) + \
                    B.evaluate(basis_vector(n, j), conn.gamma[i][k])
                if v:
                    return CheckResult(False, "metric compatibility fails", (i, j, k))
    return CheckResult(True)


def torsion_check(conn: Connection) -> CheckResult:
    """nabla_i e_j - nabla_j e_i = [e_i, e_j]."""
    g = conn.algebra
    for i in range(g.dim):
        for j in range(g.dim):
            diff = tuple(a - b - c for a, b, c in
                         zip(conn.gamma[i][j], conn.gamma[j][i],
                             g.bracket_basis(i, j)))
            if not is_zero_vector(diff):
                return CheckResult(False, "torsion does not vanish", (i, j))
    return CheckResult(True)


@dataclass(frozen=True)
class CurvatureTensor:
    """components[i][j][k] = coefficient vector of R(e_i, e_j) e_k."""

    algebra: LieAlgebra
    components: tuple
    convention: str

    def apply(self, x: Sequence, y: Sequence, z: Sequence) -> tuple:
        n = self.algebra.dim
        x, y, z = vec(x), vec(y), vec(z)
        acc = [Fraction(0)] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                w = x[i] * y[j]
                if not w:
                    continue
                for k in range(n):
                    wz = w * z[k]
                    if wz:
                        comp = self.components[i][j][k]
                        for l in range(n):
                            if comp[l]:
                                acc[l] += wz * comp[l]
        return tuple(acc)

    def is_zero(self) -> bool:
        return all(is_zero_vector(self.components[i][j][k])
                   for i in range(self.algebra.dim)
                   for j in range(self.algebra.dim)
                   for k in range(self.algebra.dim))


def curvature(conn: Connection, convention: str = "default") -> CurvatureTensor:
    """Curvature tensor of the connection in the requested convention."""
    if convention not in CONVENTIONS:
        raise InputError(f"convention must be one of {CONVENTIONS}")
    g = conn.algebra
    n = g.dim
    comps = []
    for i in range(n):
        plane = []
        for j in range(n):
            cij = g.bracket_basis(i, j)
            col = []
            for k in range(n):
                ek = basis_vector(n, k)
                term = tuple(
                    a - b - c for a, b, c in zip(
                        conn.nabla_vector(i, conn.gamma[j][k]),
                        conn.nabla_vector(j, conn.gamma[i][k]),
                        _nabla_along(conn, cij, ek)))
                if convention == "oneill":
                    term = tuple(-t for t in term)
                col.append(term)
            plane.append(tuple(col))
        comps.append(tuple(plane))
    return CurvatureTensor(g, tuple(comps), convention)


def _nabla_along(conn: Connection, x: Sequence, v: Sequence) -> tuple:
    """nabla_x v for constant-coefficient x (the connection is tensorial in
    its first slot on left-invariant fields)."""
    n = conn.algebra.dim
    acc = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if xi:
            piece = conn.nabla_vector(i, v)
            for k in range(n):
                acc[k] += xi * piece[k]
    return tuple(acc)


def bianchi_check(R: CurvatureTensor) -> CheckResult:
    """First Bianchi identity R(x,y)z + R(y,z)x + R(z,x)y = 0."""
    n = R.algebra.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = tuple(a + b + c for a, b, c in zip(
                    R.components[i][j][k], R.components[j][k][i],
                    R.components[k][i][j]))
                if not is_zero_vector(s):
                    return CheckResult(False, "first Bianchi fails", (i, j, k))
    return CheckResult(True)


def biinvariant_curvature_check(conn: Connection,
                                R: CurvatureTensor) -> CheckResult:
    """R(e_i, e_j) = -1/4 ad([e_i, e_j]) as operators (ad-invariant metrics,
    convention 'default')."""
    g = conn.algebra
    n = g.dim
    quarter = Fraction(-1, 4)
    for i in range(n):
        for j in range(n):
            cij = g.bracket_basis(i, j)
            for k in range(n):
                expect = tuple(quarter * t for t in
                               bracket(g, cij, basis_vector(n, k)))
                if R.components[i][j][k] != expect:
                    return CheckResult(False, "R != -1/4 ad([X,Y])", (i, j, k))
    return CheckResult(True)


def ricci_form(conn: Connection, convention: str = "default") -> SymBilinearForm:
    """Ric(x, y) = trace(z -> R(z, x) y) as a bilinear form on the algebra."""
    R = curvature(conn, convention)
    n = conn.algebra.dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            m[a][b] = sum((R.components[k][a][b][k] for k in range(n)),
                          start=Fraction(0))
    return SymBilinearForm(n, tuple(tuple(r) for r in m))


def ricci_operator(conn: Connection, convention: str = "default") -> tuple:
    """Metric-raised Ricci: the operator Rc with <Rc x, y> = Ric(x, y)."""
    S = ricci_form(conn, convention)
    return mat_mul(invert(conn.metric.matrix), S.matrix)


def is_flat(conn: Connection) -> bool:
    return curvature(conn).is_zero()


def nabla_R(conn: Connection, convention: str = "default") -> tuple:
    """Covariant derivative of curvature on the frame; vanishes exactly for
    ad-invariant metrics (symmetric-space identity)."""
    g = conn.algebra
    n = g.dim
    R = curvature(conn, convention)
    out = []
    for h in range(n):
        block = []
        for i in range(n):
            plane = []
            for j in range(n):
                col = []
                for k in range(n):
                    first = conn.nabla_vector(h, R.components[i][j][k])
                    t1 = _R_mixed(R, conn.gamma[h][i], j, k)
                    t2 = _R_mixed(R, conn.gamma[h][j], i, k)
                    t3 = R.apply(basis_vector(n, i), basis_vector(n, j),
                                 conn.gamma[h][k])
                    col.append(tuple(a - b + c - d for a, b, c, d in
                                     zip(first, t1, t2, t3)))
                plane.append(tuple(col))
            block.append(tuple(plane))
        out.append(tuple(block))
    return tuple(out)


def _R_mixed(R: CurvatureTensor, x: Sequence, j: int, k: int) -> tuple:
    """R(x, e_j) e_k for a coefficient vector x."""
    n = R.algebra.dim
    acc = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if xi:
            comp = R.components[i][j][k]
            for l in range(n):
                acc[l] += xi * comp[l]
    return tuple(acc)


def is_locally_symmetric(conn: Connection) -> bool:
    nr = nabla_R(conn)
    n = conn.algebra.dim
    return all(is_zero_vector(nr[h][i][j][k])
               for h in range(n) for i in range(n)
               for j in range(n) for k in range(n))


@dataclass(frozen=True)
class SolitonResult:
    """Certificate for Ric = c Id + D with D a derivation, or its failure.

    ``residual`` is Ric - c Id - D and must be the zero matrix on success;
    on failure ``inconsistent_row`` is a reduced row of the joint linear
    system exhibiting 0 = nonzero.
    """

    feasible: bool
    c: Fraction | None = None
    derivation: tuple | None = None
    residual: tuple | None = None
    inconsistent_row: tuple | None = None
    convention: str = "default"


def soliton_solve(g: LieAlgebra, B: SymBilinearForm,
                  convention: str = "default") -> SolitonResult:
    """Decide feasibility of the algebraic soliton equation Ric = c Id + D.

    c and the matrix D are solved jointly as one exact linear system: the
    identification rows pin D = Ric - c Id entrywise and the derivation
    identity D[x,y] = [Dx,y] + [x,Dy] adds the structural rows.  The system
    is genuinely linear, so infeasibility comes with the inconsistent row.
    """
    conn = levi_civita(g, B)
    ric = ricci_operator(conn, convention)
    n = g.dim
    zero, one = Fraction(0), Fraction(1)
    # unknowns: c, then D row-major at 1 + a*n + b
    rows = [(one if a == b else zero,) + basis_vector(n * n, a * n + b)
            for a in range(n) for b in range(n)]
    rhs = [ric[a][b] for a in range(n) for b in range(n)]
    for row in sorted(_derivation_rows(g.structure, 2)):
        rows.append((zero,) + row)
        rhs.append(zero)
    sol, bad = solve_with_certificate(rows, rhs)
    if sol is None:
        return SolitonResult(False, inconsistent_row=bad, convention=convention)
    c = sol[0]
    D = tuple(tuple(sol[1 + a * n + b] for b in range(n)) for a in range(n))
    residual = tuple(tuple(ric[a][b] - D[a][b] - (c if a == b else zero)
                           for b in range(n)) for a in range(n))
    return SolitonResult(True, c=c, derivation=D, residual=residual,
                         convention=convention)


def is_derivation(g: LieAlgebra, D: Sequence[Sequence]) -> CheckResult:
    """D[x, y] = [Dx, y] + [x, Dy] on basis pairs."""
    D = mat(D)
    n = g.dim
    cols = [tuple(D[r][i] for r in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat_vec(D, g.bracket_basis(i, j))
            rhs = tuple(a + b for a, b in zip(
                bracket(g, cols[i], basis_vector(n, j)),
                bracket(g, basis_vector(n, i), cols[j])))
            if lhs != rhs:
                return CheckResult(False, "derivation identity fails", (i, j))
    return CheckResult(True)


def naturally_reductive_check(g: LieAlgebra, h: Subspace, m: Subspace,
                              B_m: SymBilinearForm) -> CheckResult:
    """Verify a reductive pair: g = h (+) m, [h, m] in m, and

        <[x,y]_m, z> + <y, [x,z]_m> = 0   for x, y, z in m,

    where [.,.]_m is the bracket projected onto m along h.  Failures carry
    the violating pair or triple (as vectors of the supplied bases).
    """
    n = g.dim
    if h.ambient_dim != n or m.ambient_dim != n:
        raise InputError("subspace ambient dimensions do not match algebra")
    if h.dim + m.dim != n or rank(list(h.basis) + list(m.basis)) != n:
        raise InputError("h and m do not form a direct-sum decomposition")
    if B_m.dim != m.dim:
        raise InputError("B_m size does not match dim m")
    if not B_m.is_nondegenerate():
        raise DegenerateMetricError("B_m must be nondegenerate on m",
                                    radical=B_m.radical())
    cols = list(h.basis) + list(m.basis)
    T = tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))
    Tinv = invert(T)

    def m_part(v):
        coords = mat_vec(Tinv, v)
        return coords[h.dim:]

    for x in h.basis:
        for y in h.basis:
            if not h.contains(bracket(g, x, y)):
                return CheckResult(False, "h is not a subalgebra", (x, y))
    for x in h.basis:
        for y in m.basis:
            if not m.contains(bracket(g, x, y)):
                return CheckResult(False, "[h, m] not contained in m", (x, y))
    for a in range(m.dim):
        ea = basis_vector(m.dim, a)
        for b in range(m.dim):
            ab_m = m_part(bracket(g, m.basis[a], m.basis[b]))
            eb = basis_vector(m.dim, b)
            for c in range(m.dim):
                ac_m = m_part(bracket(g, m.basis[a], m.basis[c]))
                val = B_m.evaluate(ab_m, basis_vector(m.dim, c)) + \
                    B_m.evaluate(eb, ac_m)
                if val:
                    return CheckResult(
                        False, "naturally reductive identity fails",
                        (m.basis[a], m.basis[b], m.basis[c]))
    return CheckResult(True)


def ahc_isometry_check(g: LieAlgebra, B: SymBilinearForm,
                       A: Sequence[Sequence]) -> CheckResult:
    """Exactly verify the two linear-isometry conditions at the identity:

    (i)  <Ax, Ay> = <x, y>,
    (ii) A[[x,y],z] = [[Ax,Ay],Az]   on all basis triples.
    """
    A = mat(A)
    n = g.dim
    if len(A) != n or any(len(r) != n for r in A):
        raise InputError("matrix size does not match algebra dimension")
    kept = _metric_preserved(B, A)
    if not kept:
        return kept
    cols = [tuple(A[r][i] for r in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j)
            lhs_op = mat_mul(A, g.ad(cij))
            rhs_op = mat_mul(g.ad(bracket(g, cols[i], cols[j])), A)
            if lhs_op != rhs_op:
                k = next(k for k in range(n)
                         if any(lhs_op[r][k] != rhs_op[r][k] for r in range(n)))
                return CheckResult(False, "double-bracket equivariance fails",
                                   (i, j, k))
    return CheckResult(True)


def _metric_preserved(B: SymBilinearForm, A) -> CheckResult:
    """A^T B A = B; the witness is the first entry (i, j) that differs."""
    lhs = mat_mul(mat_mul(transpose(A), B.matrix), A)
    bad = next(((i, j) for i in range(B.dim) for j in range(B.dim)
                if lhs[i][j] != B.matrix[i][j]), None)
    if bad is None:
        return CheckResult(True)
    return CheckResult(False, "metric not preserved", bad)


_JT = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def isometry_family(which: str, sign: int, w: Sequence,
                    Atilde: Sequence[Sequence]) -> tuple:
    """Assemble the block lower-triangular isometry fixing the identity:

        [ s        0        0 ]
        [ w        Atilde   0 ]
        [ -s|w|^2/2  -s w^T (Jt) Atilde  s ]

    with s = +-1.  For the rotation model ("g0") Atilde must be orthogonal
    and |w|^2 = w1^2 + w2^2; for the boost model ("g1") Atilde must satisfy
    A^T Jt A = Jt with Jt the off-diagonal unit matrix, and |w|^2 = 2 w1 w2.
    """
    if which not in ("g0", "g1"):
        raise InputError("family is defined for 'g0' or 'g1'")
    if sign not in (1, -1):
        raise InputError("sign must be +1 or -1")
    w = vec(w)
    if len(w) != 2:
        raise InputError("w must be a 2-vector")
    At = mat(Atilde)
    if len(At) != 2 or any(len(r) != 2 for r in At):
        raise InputError("Atilde must be 2x2")
    s = Fraction(sign)
    if which == "g0":
        if mat_mul(transpose(At), At) != identity_matrix(2):
            raise InputError("Atilde is not orthogonal")
        norm2 = w[0] * w[0] + w[1] * w[1]
        bottom = mat_vec(transpose(At), w)
    else:
        if mat_mul(mat_mul(transpose(At), _JT), At) != _JT:
            raise InputError("Atilde is not in O(1,1)")
        norm2 = 2 * w[0] * w[1]
        bottom = mat_vec(transpose(At), mat_vec(_JT, w))
    zero = Fraction(0)
    return (
        (s, zero, zero, zero),
        (w[0], At[0][0], At[0][1], zero),
        (w[1], At[1][0], At[1][1], zero),
        (-s * norm2 / 2, -s * bottom[0], -s * bottom[1], s),
    )


def extract_family_parameters(which: str, A: Sequence[Sequence]):
    """Recover (sign, w, Atilde) when A is exactly a family matrix, else None."""
    A = mat(A)
    if len(A) != 4 or any(len(r) != 4 for r in A):
        return None
    if A[0][0] not in (1, -1):
        return None
    sign = int(A[0][0])
    w = (A[1][0], A[2][0])
    At = ((A[1][1], A[1][2]), (A[2][1], A[2][2]))
    try:
        rebuilt = isometry_family(which, sign, w, At)
    except InputError:
        return None
    return (sign, w, At) if rebuilt == A else None


def linearized_isotropy_dim(g: LieAlgebra, B: SymBilinearForm) -> int:
    """Dimension of the solution space of the linearized isometry conditions:

        <Sx, y> + <x, Sy> = 0,
        S[[x,y],z] = [[Sx,y],z] + [[x,Sy],z] + [[x,y],Sz].
    """
    inv = is_ad_invariant(g, B)
    if not inv:
        raise InputError(f"metric must be ad-invariant ({inv})")
    if not B.is_nondegenerate():
        raise DegenerateMetricError("metric must be nondegenerate",
                                    radical=B.radical())
    n = g.dim
    dbl = [[[bracket(g, g.bracket_basis(i, j), basis_vector(n, k))
             for k in range(n)] for j in range(n)] for i in range(n)]
    rows = _skew_rows(B) | _derivation_rows(dbl, 3)
    return len(nullspace(sorted(rows), ncols=n * n))


def _skew_rows(B: SymBilinearForm) -> set:
    """Nonzero rows of <Sx, y> + <x, Sy> = 0 on basis pairs x <= y, for an
    unknown matrix S stored row-major at a*n + b."""
    n = B.dim
    rows = set()
    for i in range(n):
        for j in range(i, n):
            row = [Fraction(0)] * (n * n)
            for l in range(n):
                row[l * n + i] += B.matrix[l][j]
                row[l * n + j] += B.matrix[i][l]
            if any(row):
                rows.add(tuple(row))
    return rows


def _derivation_rows(T, p: int) -> set:
    """Nonzero rows of S T(x_1, .., x_p) = sum_s T(.., S x_s, ..) on basis
    tuples, for a (1,p) tensor T (T[i_1]..[i_p] is a coefficient vector) and
    an unknown matrix S stored row-major at a*n + b.

    T must be antisymmetric in its first two slots.  Only i_1 < i_2 is
    visited: the rows with i_1 = i_2 vanish and each (i_2, i_1, ..) row is
    the negative of an (i_1, i_2, ..) row, so the row space is unchanged.
    """
    n = len(T)

    def at(key):
        return reduce(operator.getitem, key, T)

    rows = set()
    for head in itertools.combinations(range(n), 2):
        for rest in itertools.product(range(n), repeat=p - 2):
            idx = head + rest
            image = at(idx)
            terms = [(l * n + i_s, at(idx[:s] + (l,) + idx[s + 1:]))
                     for s, i_s in enumerate(idx) for l in range(n)]
            for comp in range(n):
                row = [Fraction(0)] * (n * n)
                for l, v in enumerate(image):
                    if v:
                        row[comp * n + l] += v
                for col, v in terms:
                    if v[comp]:
                        row[col] -= v[comp]
                if any(row):
                    rows.add(tuple(row))
    return rows


def skew_adjoint_form_space(which: str, alpha, beta, gamma=0) -> list[SymBilinearForm]:
    """Symmetric forms Q on the Heisenberg algebra for which the generator
    v = e0 + alpha e1 + beta e2 + gamma e3 acts skew-adjointly:

        Q(ad(v) x, y) = -Q(x, ad(v) y).

    Returns the canonical nullspace basis.  gamma never enters (the center
    acts trivially) but is accepted to match the generator parametrization.
    """
    if which not in ("g0", "g1"):
        raise InputError("skew-adjoint systems are defined for 'g0' or 'g1'")
    a, b = Fraction(alpha), Fraction(beta)
    zero, one = Fraction(0), Fraction(1)
    if which == "g0":
        cols = ((zero, one, -b), (-one, zero, a), (zero, zero, zero))
    else:
        cols = ((one, zero, -b), (zero, -one, a), (zero, zero, zero))
    basis = nullspace(sorted(_skew_form_rows(3, [cols])), ncols=6)
    return [_form_from_coeffs(3, coeffs) for coeffs in basis]


def is_isometric_automorphism(g: LieAlgebra, B: SymBilinearForm,
                              A: Sequence[Sequence]) -> CheckResult:
    """A[x,y] = [Ax, Ay] on basis pairs and A^T B A = B."""
    A = mat(A)
    n = g.dim
    kept = _metric_preserved(B, A)
    if not kept:
        return kept
    cols = [tuple(A[r][i] for r in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if mat_vec(A, g.bracket_basis(i, j)) != bracket(g, cols[i], cols[j]):
                return CheckResult(False, "not an automorphism", (i, j))
    return CheckResult(True)


@dataclass(frozen=True)
class IsotropyReport:
    """Linearized isotropy algebra of a Heisenberg metric at the identity."""

    dim: int
    kind: str
    generators: tuple


def h3_isotropy(metric: SymBilinearForm) -> IsotropyReport:
    """Isotropy algebra of (H3, metric), linearized at the identity.

    Solves for matrices S that are skew for the metric and equivariant for
    the curvature tensor in the derivation sense:

        S R(x,y)z = R(Sx,y)z + R(x,Sy)z + R(x,y) Sz.

    For the flat metric the curvature rows are vacuous and the space is the
    full pseudo-orthogonal algebra; for the non-flat metrics it cuts down to
    the skew derivations (rotation type for a definite plane, boost type for
    a split plane).
    """
    n = 3
    R = curvature(levi_civita(catalog.get("h3").algebra, metric))
    rows = _skew_rows(metric) | _derivation_rows(R.components, 3)
    basis = nullspace(sorted(rows), ncols=n * n)
    gens = tuple(tuple(tuple(v[a * n + bb] for bb in range(n)) for a in range(n))
                 for v in basis)
    if len(basis) >= 3:
        kind = "O(2,1) type"
    elif len(basis) == 1:
        S = gens[0]
        tr2 = sum((S[a][bb] * S[bb][a] for a in range(n) for bb in range(n)),
                  start=Fraction(0))
        kind = "O(2) type" if tr2 < 0 else "O(1,1) type"
    else:
        kind = "trivial"
    return IsotropyReport(len(basis), kind, gens)
