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
from .algebra import LieAlgebra, Subspace, add3, bracket
from .base import CheckResult, DegenerateMetricError, InputError, once
from .forms import (SymBilinearForm, _form_from_coeffs, _skew_form_rows,
                    _skew_witness, is_ad_invariant, transform_form)
from .linalg import (basis_vector, contract, first_nonzero, identity_matrix,
                     invert, mat, mat_mul, mat_vec, nullspace, rank,
                     solve_with_certificate, tensor, transpose, vec)

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
        return contract(self.gamma[i], (v,))


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
    # Bc[i][j] = B c_ij, so <[e_i, e_j], e_k> = Bc[i][j][k]
    Bc = tensor(n, 2, lambda i, j: mat_vec(B.matrix, g.bracket_basis(i, j)))
    gamma = tensor(n, 2, lambda i, j: mat_vec(Binv, tuple(
        (Bc[i][j][k] - Bc[j][k][i] + Bc[k][i][j]) / 2 for k in range(n))))
    return Connection(g, B, gamma)


def metric_compatibility_check(conn: Connection) -> CheckResult:
    """<nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0 on basis triples."""
    return CheckResult.from_witness(_skew_witness(conn.metric, conn.gamma),
                                    "metric compatibility fails")


def torsion_check(conn: Connection) -> CheckResult:
    """nabla_i e_j - nabla_j e_i = [e_i, e_j]."""
    g, gam = conn.algebra, conn.gamma
    residual = tensor(g.dim, 2, lambda i, j: tuple(
        a - b - c for a, b, c in zip(gam[i][j], gam[j][i], g.bracket_basis(i, j))))
    return CheckResult.from_witness(first_nonzero(residual, 2),
                                    "torsion does not vanish")


@dataclass(frozen=True)
class CurvatureTensor:
    """components[i][j][k] = coefficient vector of R(e_i, e_j) e_k."""

    algebra: LieAlgebra
    components: tuple
    convention: str

    def apply(self, x: Sequence, y: Sequence, z: Sequence) -> tuple:
        return contract(self.components, (vec(x), vec(y), vec(z)))

    def is_zero(self) -> bool:
        return first_nonzero(self.components, 3) is None


def curvature(conn: Connection, convention: str = "default") -> CurvatureTensor:
    """Curvature tensor of the connection in the requested convention,
    built once per connection and convention."""
    if convention not in CONVENTIONS:
        raise InputError(f"convention must be one of {CONVENTIONS}")
    return once(conn, "_curvature_" + convention,
                lambda: _build_curvature(conn, convention))


def _build_curvature(conn: Connection, convention: str) -> CurvatureTensor:
    g = conn.algebra
    n = g.dim
    gam = conn.gamma
    E = [basis_vector(n, k) for k in range(n)]
    sign = -1 if convention == "oneill" else 1
    comps = tensor(n, 3, lambda i, j, k: tuple(
        sign * (a - b - c) for a, b, c in zip(
            contract(gam[i], (gam[j][k],)),
            contract(gam[j], (gam[i][k],)),
            # nabla_{c_ij} e_k: tensorial in the first slot
            contract(gam, (g.bracket_basis(i, j), E[k])))))
    return CurvatureTensor(g, comps, convention)


def bianchi_check(R: CurvatureTensor) -> CheckResult:
    """First Bianchi identity R(x,y)z + R(y,z)x + R(z,x)y = 0."""
    C = R.components
    residual = tensor(R.algebra.dim, 3,
                      lambda i, j, k: add3(C[i][j][k], C[j][k][i], C[k][i][j]))
    return CheckResult.from_witness(first_nonzero(residual, 3),
                                    "first Bianchi fails")


def biinvariant_curvature_check(conn: Connection,
                                R: CurvatureTensor) -> CheckResult:
    """R(e_i, e_j) = -1/4 ad([e_i, e_j]) as operators (ad-invariant metrics,
    convention 'default')."""
    g = conn.algebra
    n = g.dim
    E = [basis_vector(n, k) for k in range(n)]
    quarter = Fraction(1, 4)
    # R + 1/4 [c_ij, e_k] is nonzero exactly where R differs from the claim
    residual = tensor(n, 3, lambda i, j, k: tuple(
        r + quarter * t for r, t in zip(
            R.components[i][j][k], bracket(g, g.bracket_basis(i, j), E[k]))))
    return CheckResult.from_witness(first_nonzero(residual, 3),
                                    "R != -1/4 ad([X,Y])")


def ricci_form(conn: Connection, convention: str = "default") -> SymBilinearForm:
    """Ric(x, y) = trace(z -> R(z, x) y) as a bilinear form on the algebra."""
    R = curvature(conn, convention).components
    n = conn.algebra.dim
    return SymBilinearForm(n, tensor(n, 2, lambda a, b: sum(
        (R[k][a][b][k] for k in range(n)), start=Fraction(0))))


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
    Rc = curvature(conn, convention).components
    gam = conn.gamma
    E = [basis_vector(n, i) for i in range(n)]
    return tensor(n, 4, lambda h, i, j, k: tuple(
        a - b + c - d for a, b, c, d in zip(
            contract(gam[h], (Rc[i][j][k],)),
            contract(Rc, (gam[h][i], E[j], E[k])),
            contract(Rc, (gam[h][j], E[i], E[k])),
            contract(Rc, (E[i], E[j], gam[h][k])))))


def is_locally_symmetric(conn: Connection) -> bool:
    return first_nonzero(nabla_R(conn), 4) is None


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


def soliton_solve(conn: Connection, convention: str = "default") -> SolitonResult:
    """Decide feasibility of the algebraic soliton equation Ric = c Id + D.

    c and the matrix D are solved jointly as one exact linear system: the
    identification rows pin D = Ric - c Id entrywise and the derivation
    identity D[x,y] = [Dx,y] + [x,Dy] adds the structural rows.  The system
    is genuinely linear, so infeasibility comes with the inconsistent row.
    The Ricci operator comes from the curvature memoised on conn.
    """
    g = conn.algebra
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
    cols = transpose(D)
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
    Tinv = invert(transpose(h.basis + m.basis))

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
    bad = _skew_witness(B_m, [[m_part(bracket(g, x, y)) for y in m.basis]
                              for x in m.basis])
    return CheckResult.from_witness(bad and tuple(m.basis[a] for a in bad),
                                    "naturally reductive identity fails")


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
    cols = transpose(A)
    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j)
            w = bracket(g, cols[i], cols[j])
            for k in range(n):
                if mat_vec(A, bracket(g, cij, basis_vector(n, k))) != \
                        bracket(g, w, cols[k]):
                    return CheckResult(False, "double-bracket equivariance fails",
                                       (i, j, k))
    return CheckResult(True)


def _metric_preserved(B: SymBilinearForm, A) -> CheckResult:
    """A^T B A = B; the witness is the first entry (i, j) that differs."""
    lhs = transform_form(B, A).matrix
    if len(lhs) != B.dim:
        raise InputError("matrix size does not match the form")
    return CheckResult.from_witness(
        next(((i, j) for i in range(B.dim) for j in range(B.dim)
              if lhs[i][j] != B.matrix[i][j]), None), "metric not preserved")


_PAIRINGS = {"g0": ("orthogonal", SymBilinearForm(2, identity_matrix(2))),
             "g1": ("in O(1,1)", SymBilinearForm(2, ((0, 1), (1, 0))))}


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
    kind, J = _PAIRINGS[which]
    if transform_form(J, At) != J:
        raise InputError(f"Atilde is not {kind}")
    norm2 = J.evaluate(w, w)
    bottom = mat_vec(transpose(At), mat_vec(J.matrix, w))
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
    dbl = tensor(n, 3, lambda i, j, k: bracket(g, g.bracket_basis(i, j),
                                               basis_vector(n, k)))
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
    """Symmetric forms Q on the Heisenberg algebra span{e1, e2, e3} of g0 or
    g1 for which v = e0 + alpha e1 + beta e2 + gamma e3 acts skew-adjointly:

        Q(ad(v) x, y) = -Q(x, ad(v) y).

    Returns the canonical nullspace basis.  ad(v) comes from the catalog
    algebra; gamma drops out because e3 is central."""
    if which not in ("g0", "g1"):
        raise InputError("skew-adjoint systems are defined for 'g0' or 'g1'")
    v = (1, Fraction(alpha), Fraction(beta), Fraction(gamma))
    images = [col[1:] for col in transpose(catalog.get(which).algebra.ad(v))[1:]]
    basis = nullspace(sorted(_skew_form_rows(3, [images])), ncols=6)
    return [_form_from_coeffs(3, coeffs) for coeffs in basis]


def is_isometric_automorphism(g: LieAlgebra, B: SymBilinearForm,
                              A: Sequence[Sequence]) -> CheckResult:
    """A[x,y] = [Ax, Ay] on basis pairs and A^T B A = B."""
    A = mat(A)
    n = g.dim
    kept = _metric_preserved(B, A)
    if not kept:
        return kept
    cols = transpose(A)
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
