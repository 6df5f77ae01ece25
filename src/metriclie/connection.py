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
from .algebra import (LieAlgebra, Subspace, _bracket_over_z, _double_bracket,
                      add3, bracket, jacobi_check)
from .base import CheckResult, InputError, JacobiError, once, set_fields
from .forms import (SymBilinearForm, _form_space, _inverse,
                    _require_nondegenerate, _skew_witness, is_ad_invariant)
from .linalg import (_canonical_tensor, _mat_vec_over_z, _rref_rows,
                     _scaled, _unscaled, _unscaled_tensor, basis_vector,
                     contract, first_nonzero, identity_matrix, invert, mat,
                     mat_mul, mat_vec, nullspace, rank, tensor, transpose, vec)

CONVENTIONS = ("default", "oneill")


@dataclass(frozen=True, init=False)
class Connection:
    """gamma[i][j] = coefficient vector of nabla_{e_i} e_j, held over Z:
    dense[i][j] = d gamma[i][j] with d > 0 the least such scale
    (``linalg._canonical_tensor``; d = 1 and the values when one is a
    QuadExt).  algebra, metric, d and dense are the value, so ``==``,
    ``hash`` and ``repr`` mean same algebra, metric and symbols; ``gamma``
    is built on first read."""

    algebra: LieAlgebra
    metric: SymBilinearForm
    d: int
    dense: tuple

    def __init__(self, algebra: LieAlgebra, metric: SymBilinearForm,
                 gamma: Sequence):
        _hold(self, gamma, 2, 1, algebra=algebra, metric=metric)

    @property
    def gamma(self) -> tuple:
        return once(self, "_gamma", lambda: _unscaled_tensor(self.dense, 2, self.d))

    def nabla(self, i: int, j: int) -> tuple:
        return self.gamma[i][j]

    def nabla_vector(self, i: int, v: Sequence) -> tuple:
        """nabla_{e_i} of a constant-coefficient field v."""
        return contract(self.gamma[i], (v,))


def _hold(obj, T, p: int, d: int, **fields):
    """obj, a Connection or a CurvatureTensor, holding the rank-p tensor
    T / d (T of ints and Fractions, d > 0) as dense / d, canonical
    (``_canonical_tensor``), and the other fields given."""
    dense, d = _canonical_tensor(T, p, d)
    return set_fields(obj, d=d, dense=dense, **fields)


def levi_civita(g: LieAlgebra, B: SymBilinearForm) -> Connection:
    """Unique metric-compatible torsion-free connection, by the Koszul
    formula on left-invariant fields:

        2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>.

    For an ad-invariant metric this collapses to nabla_X Y = [X,Y]/2.
    """
    if B.dim != g.dim:
        raise InputError("metric and algebra dimensions differ")
    _require_nondegenerate(B, "Levi-Civita connection needs a nondegenerate metric")
    n = g.dim
    # over Z with B = M / b, B^-1 = V / v and c = C / D, each scaled once:
    # MC[i][j] = b D B c_ij, so <[e_i, e_j], e_k> = MC[i][j][k] / (b D)
    M, b = _canonical_tensor(B.matrix, 1)
    V, v = _canonical_tensor(_inverse(B), 1)
    D, C = g.D, g.dense
    MC = tensor(n, 2, lambda i, j: _mat_vec_over_z(M, C[i][j]))

    def leaf(i, j):
        koszul = [MC[i][j][k] - MC[j][k][i] + MC[k][i][j] for k in range(n)]
        return _mat_vec_over_z(V, koszul)

    return _hold(object.__new__(Connection), tensor(n, 2, leaf), 2,
                 2 * b * D * v, algebra=g, metric=B)


def metric_compatibility_check(conn: Connection) -> CheckResult:
    """<nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0 on basis triples."""
    # the rows are linear in the maps, so dense = d gamma, d > 0, fails first
    # where gamma does
    return CheckResult.from_witness(_skew_witness(conn.metric, conn.dense),
                                    "metric compatibility fails")


def torsion_check(conn: Connection) -> CheckResult:
    """nabla_i e_j - nabla_j e_i = [e_i, e_j], over Z: with Gamma = G / d and
    c = C / D, D (G_ij - G_ji) - d C_ij vanishes exactly where it holds."""
    g, G, d = conn.algebra, conn.dense, conn.d
    D, C = g.D, g.dense
    residual = tensor(g.dim, 2, lambda i, j: tuple(
        D * (a - b) - d * c for a, b, c in zip(G[i][j], G[j][i], C[i][j])))
    return CheckResult.from_witness(first_nonzero(residual, 2),
                                    "torsion does not vanish")


@dataclass(frozen=True, init=False)
class CurvatureTensor:
    """components[i][j][k] = coefficient vector of R(e_i, e_j) e_k, held over
    Z as ``Connection`` holds gamma: dense = d components, d > 0 least.
    algebra, d, dense and convention are the value; ``components`` is built
    on first read."""

    algebra: LieAlgebra
    d: int
    dense: tuple
    convention: str

    def __init__(self, algebra: LieAlgebra, components: Sequence,
                 convention: str):
        _hold(self, components, 3, 1, algebra=algebra, convention=convention)

    @property
    def components(self) -> tuple:
        return once(self, "_components",
                    lambda: _unscaled_tensor(self.dense, 3, self.d))

    def apply(self, x: Sequence, y: Sequence, z: Sequence) -> tuple:
        return contract(self.components, (vec(x), vec(y), vec(z)))

    def is_zero(self) -> bool:
        return first_nonzero(self.dense, 3) is None


def curvature(conn: Connection, convention: str = "default") -> CurvatureTensor:
    """Curvature tensor of the connection in the requested convention,
    built once per connection and convention."""
    if convention not in CONVENTIONS:
        raise InputError(f"convention must be one of {CONVENTIONS}")
    return once(conn, "_curvature_" + convention,
                lambda: _build_curvature(conn, convention))


def _build_curvature(conn: Connection, convention: str) -> CurvatureTensor:
    """R(e_i, e_j) e_k = nabla_i (Gamma_jk) - nabla_j (Gamma_ik) - nabla_{c_ij} e_k
    over Z: with Gamma = G / d and c = C / D, each scaled once,

        d^2 D R_ijk = D (sum_l G_jk[l] G_il - G_ik[l] G_jl) - d sum_l C_ij[l] G_lk,

    summed for i < j only and held at the scale d^2 D (negated for
    "oneill"): the right side is antisymmetric in i, j for any Gamma, so
    R_jik = -R_ijk."""
    g = conn.algebra
    n = g.dim
    G, d = conn.dense, conn.d
    D, C = g.D, g.dense
    sign = -1 if convention == "oneill" else 1

    def leaf(i, j, k):
        acc = [0] * n
        for s, a, b in ((sign * D, i, j), (-sign * D, j, i)):
            for l, x in enumerate(G[b][k]):
                if x:
                    x *= s
                    for m, y in enumerate(G[a][l]):
                        if y:
                            acc[m] += x * y
        for l, c in enumerate(C[i][j]):
            if c:
                c *= sign * d
                for m, y in enumerate(G[l][k]):
                    if y:
                        acc[m] -= c * y
        return tuple(acc)

    planes = {}
    for i, j in itertools.combinations(range(n), 2):
        planes[i, j] = tuple(leaf(i, j, k) for k in range(n))
        planes[j, i] = tuple(tuple(-x for x in v) for v in planes[i, j])
    zero = ((0,) * n,) * n
    return _hold(object.__new__(CurvatureTensor),
                 tensor(n, 2, lambda i, j: planes.get((i, j), zero)), 3,
                 d * d * D, algebra=g, convention=convention)


def bianchi_check(R: CurvatureTensor) -> CheckResult:
    """First Bianchi identity R(x,y)z + R(y,z)x + R(z,x)y = 0, compared over
    Z on the integer components."""
    C = R.dense
    residual = tensor(R.algebra.dim, 3,
                      lambda i, j, k: add3(C[i][j][k], C[j][k][i], C[k][i][j]))
    return CheckResult.from_witness(first_nonzero(residual, 3),
                                    "first Bianchi fails")


def biinvariant_curvature_check(conn: Connection,
                                R: CurvatureTensor) -> CheckResult:
    """R(e_i, e_j) = -1/4 ad([e_i, e_j]) as operators (ad-invariant metrics,
    convention 'default')."""
    g = conn.algebra
    T = _double_bracket(g)
    # T is D^2 [[e_i, e_j], e_k] and R = Ri / r, so 4 D^2 Ri + r T is
    # nonzero exactly where R differs from the claim
    Ri, r = R.dense, R.d
    q = 4 * g.D ** 2
    residual = tensor(g.dim, 3, lambda i, j, k: tuple(
        q * x + r * t for x, t in zip(Ri[i][j][k], T[i][j][k])))
    return CheckResult.from_witness(first_nonzero(residual, 3),
                                    "R != -1/4 ad([X,Y])")


def ricci_form(conn: Connection, convention: str = "default") -> SymBilinearForm:
    """Ric(x, y) = trace(z -> R(z, x) y) as a bilinear form on the algebra.

    Without Jacobi the form need not be symmetric; that case raises
    JacobiError with the failing basis triple.  Each trace is summed over
    Z and becomes one Fraction."""
    R = curvature(conn, convention)
    n = conn.algebra.dim
    traces = _unscaled([sum(R.dense[k][a][b][k] for k in range(n))
                        for a in range(n) for b in range(n)], R.d)
    ric = tuple(traces[a * n:(a + 1) * n] for a in range(n))
    try:
        return SymBilinearForm(n, ric)
    except InputError as exc:
        jac = jacobi_check(conn.algebra)
        if jac:
            raise
        raise JacobiError(f"Ricci {exc} because the Jacobi identity fails at "
                          f"basis triple {jac.witness}", triple=jac.witness) from None


def ricci_operator(conn: Connection, convention: str = "default") -> tuple:
    """Metric-raised Ricci Rc, <Rc x, y> = Ric(x, y), once per convention."""
    return once(conn, "_ricci_" + convention, lambda: mat_mul(
        _inverse(conn.metric), ricci_form(conn, convention).matrix))


def is_flat(conn: Connection) -> bool:
    return curvature(conn).is_zero()


def nabla_R(conn: Connection, convention: str = "default") -> tuple:
    """Covariant derivative of curvature on the frame, the full tensor
    (nabla_{e_h} R)(e_i, e_j) e_k; vanishes exactly for ad-invariant metrics
    (symmetric-space identity).  is_locally_symmetric certifies that case
    without it and scans it only for other connections."""
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
    """nabla R = 0.  True without building nabla_R when Gamma = 1/2 ad on the
    frame and the algebra satisfies Jacobi; otherwise nabla_R is scanned.
    With Gamma = G / d and c = C / D, Gamma = 1/2 ad reads 2 D G = d C over Z.

    Proof of the shortcut: with nabla_X = 1/2 ad_X, Jacobi gives R(Y, Z) =
    -1/4 ad([Y, Z]) and makes ad_X a derivation, so nabla_X commutes with R."""
    g = conn.algebra
    G, d, D, C = conn.dense, conn.d, g.D, g.dense
    if all(2 * D * x == d * c for h, i in itertools.product(range(g.dim), repeat=2)
           for x, c in zip(G[h][i], C[h][i])) and jacobi_check(g):
        return True
    return first_nonzero(nabla_R(conn), 4) is None


@dataclass(frozen=True)
class SolitonResult:
    """Certificate for Ric = c Id + D with D a derivation, or its failure.

    ``residual`` is Ric - c Id - D and must be the zero matrix on success.
    On failure ``witness`` is ((i0, j0, k0), (i, j, k)): entry k0 of the
    derivation identity on (e_i0, e_j0) forces the value ``c``, and
    Ric - c Id fails the identity at entry k of (e_i, e_j).
    """

    feasible: bool
    c: Fraction | None = None
    derivation: tuple | None = None
    residual: tuple | None = None
    witness: tuple | None = None
    convention: str = "default"


def soliton_solve(conn: Connection, convention: str = "default") -> SolitonResult:
    """Decide feasibility of the algebraic soliton equation Ric = c Id + D.

    D = Ric - c Id, and the derivation defect is linear in D with
    E_Id(i, j) = -[e_i, e_j], so Ric - c Id is a derivation iff
    E_Ric(i, j) + c [e_i, e_j] = 0 for every i < j.  The first nonzero
    structure constant fixes c (Id is a derivation only of an abelian
    algebra, where Ric = 0 and c = 0); every other entry is then checked.
    The Ricci operator is memoised on conn.  Over Z, with Ric = Ri / r and
    the rows of the integer table (scale D), entry (i, j, k) reads e = r D
    E_Ric(i, j)_k and s = D [e_i, e_j]_k: c = -e0 / (r s0) at the forcing
    entry, and an entry fails exactly when e s0 - e0 s != 0.
    """
    n = conn.algebra.dim
    ric = ricci_operator(conn, convention)
    flat, r = _scaled([x for row in ric for x in row])
    C = conn.algebra.dense
    entries = [((i, j, k), _dot(row, flat), C[i][j][k])
               for ((i, j), k), row in _derivation_rows(C, 2)]
    forcing, e0, s0 = next(((key, e, s) for key, e, s in entries if s),
                           (None, 0, 1))
    c = -_unscaled((e0,), 1)[0] / (r * s0)
    bad = next((key for key, e, s in entries if e * s0 - e0 * s), None)
    if bad is not None:
        return SolitonResult(False, c=c, witness=(forcing, bad),
                             convention=convention)
    Id = identity_matrix(n)
    D = tuple(tuple(x - c * e for x, e in zip(*rows)) for rows in zip(ric, Id))
    residual = tuple(tuple(x - d - c * e for x, d, e in zip(*rows))
                     for rows in zip(ric, D, Id))
    return SolitonResult(True, c=c, derivation=D, residual=residual,
                         convention=convention)


def _dot(row, x):
    return sum(a * x[col] for col, a in row)


def is_derivation(g: LieAlgebra, D: Sequence[Sequence]) -> CheckResult:
    """D[x, y] = [Dx, y] + [x, Dy] on basis pairs, over Z."""
    D = mat(D)
    if len(D) != g.dim or any(len(r) != g.dim for r in D):
        raise InputError("matrix size does not match algebra dimension")
    flat = _scaled([x for row in D for x in row])[0]
    return CheckResult.from_witness(
        next((ij for (ij, _), row in _derivation_rows(g.dense, 2)
              if _dot(row, flat)), None), "derivation identity fails")


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
    _require_nondegenerate(B_m, "B_m must be nondegenerate on m")
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

    (ii) is first tried as A[e_i, e_j] = eps [Ae_i, Ae_j] on the basis
    pairs, for eps = 1 or eps = -1: that gives A[[x,y],z] = eps [A[x,y], Az]
    = eps^2 [[Ax,Ay],Az].  Otherwise the triples are scanned, and the first
    one that fails is the witness.
    """
    A = mat(A)
    n = g.dim
    if len(A) != n or any(len(r) != n for r in A):
        raise InputError("matrix size does not match algebra dimension")
    # A = Ai / a, scaled once for both conditions
    Ai, a = _canonical_tensor(A, 1)
    kept = _metric_preserved(B, Ai, a)
    if not kept:
        return kept
    sides = _pair_sides(g, Ai, a)
    if all(lhs == w for lhs, w in sides.values()) or \
            all(w == [-x for x in lhs] for lhs, w in sides.values()):
        return CheckResult(True)
    # with T = D^2 [[e_i, e_j], e_k] and w = D [Ai e_i, Ai e_j], (ii) reads
    # a^2 Ai T = D [w, Ai e_k] over Z
    cols = transpose(Ai)
    T = _double_bracket(g)
    aa = a * a
    for (i, j), (_, w) in sides.items():
        for k in range(n):
            lhs = [aa * x for x in _mat_vec_over_z(Ai, T[i][j][k])]
            if lhs != _bracket_over_z(g.pairs, w, cols[k]):
                return CheckResult(False, "double-bracket equivariance fails",
                                   (i, j, k))
    return CheckResult(True)


def _pair_sides(g: LieAlgebra, Ai, a: int) -> dict:
    """{(i, j): (lhs, w)} for the basis pairs i < j in order, with A = Ai / a
    and the table's pairs D c: lhs = a Ai (D c_ij) and w = D [Ai e_i, Ai e_j]
    over Z, a^2 D times the two sides of A[e_i, e_j] = [Ae_i, Ae_j]."""
    cols = transpose(Ai)
    return {(i, j): ([a * x for x in _mat_vec_over_z(Ai, g.dense[i][j])],
                     _bracket_over_z(g.pairs, cols[i], cols[j]))
            for i, j in itertools.combinations(range(g.dim), 2)}


def _metric_preserved(B: SymBilinearForm, Ai, a: int) -> CheckResult:
    """A^T B A = B for A = Ai / a, compared over Z as Ai^T M Ai = a^2 M with
    B = M / b; the witness is the first entry (i, j) that differs."""
    n = B.dim
    if len(Ai) != n:
        raise InputError("matrix size does not match the form")
    M, _ = _canonical_tensor(B.matrix, 1)
    cols = transpose(Ai)
    # lhs[j] is column j of Ai^T M Ai
    lhs = [_mat_vec_over_z(cols, _mat_vec_over_z(M, col)) for col in cols]
    aa = a * a
    return CheckResult.from_witness(
        next(((i, j) for i in range(n) for j in range(n)
              if lhs[j][i] != aa * M[i][j]), None), "metric not preserved")


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
    if not _metric_preserved(J, *_canonical_tensor(At, 1)):
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

    The space is the kernel of the rows of ``_isotropy_rows``, N = n(n-1)/2
    unknowns.  When the double bracket is zero (abelian and 2-step
    nilpotent algebras) every such row is zero and the answer is N, with no
    row drawn.  Otherwise the rows are drawn one at a time into the one
    elimination (``linalg._rref_rows``), which stops once the rank reaches
    N - k, k the rank of the n planes of ad, i.e. dim ad(g) = n - dim of
    the centre.

    Why the rank is at most N - k when g satisfies Jacobi: every ad(x) is
    a solution.  It is B-skew, as B is ad-invariant, and it is a derivation
    of the bracket, by Jacobi, so of the double bracket too.  B is
    nondegenerate, so B ad(x), antisymmetric, is zero exactly when x is
    central: x -> skew coordinates of B ad(x) is injective modulo the
    centre, and the nullity is at least k.  Without Jacobi ad(x) need not
    be a derivation and the bound need not hold (a table with [e0,e1]=e2,
    [e1,e2]=e0, [e2,e0]=e1, [e2,e3]=e4, [e3,e4]=e2, [e4,e2]=e3 and B = I
    is ad-invariant, with k = 5 and nullity 4), so every row is then
    eliminated.  ``jacobi_check`` is memoised per algebra.
    """
    inv = is_ad_invariant(g, B)
    if not inv:
        raise InputError(f"metric must be ad-invariant ({inv})")
    _require_nondegenerate(B, "metric must be nondegenerate")
    n = B.dim
    N = bound = n * (n - 1) // 2
    T = _double_bracket(g)
    if first_nonzero(T, 3) is None:
        return N
    if jacobi_check(g):
        bound -= rank([[x for leaf in plane for x in leaf]
                       for plane in g.dense])
    return N - len(_rref_rows(_isotropy_rows(B, T)[0], bound)[1])


def _isotropy_rows(B: SymBilinearForm, T) -> tuple:
    """(rows, table, v): the derivation rows of the (1,3) tensor T for the S
    skew for B, in the n(n-1)/2 skew coordinates.  S is skew for B exactly
    when BS = K is antisymmetric; with K[c][y] = k_q = -K[y][c] for the
    q-th pair c < y and B^-1 = V / v scaled once, v S[a][x] is the sum of
    w k_q over (q, w) in table[a*n + x], n - 1 terms at most.  The rows are
    homogeneous, so v drops out; rows is a generator of the nonzero ones,
    each built when drawn, as lists, repeats included."""
    n = B.dim
    V, v = _canonical_tensor(_inverse(B), 1)
    pairs = list(enumerate(itertools.combinations(range(n), 2)))
    table = [[(q, V[a][c] if y == x else -V[a][y]) for q, (c, y) in pairs
              if x in (c, y) and V[a][c + y - x]]
             for a in range(n) for x in range(n)]

    def rows():
        for _, row in _derivation_rows(T, 3):
            k = [0] * len(pairs)
            for col, z in row:
                for q, w in table[col]:
                    k[q] += z * w
            if any(k):
                yield k
    return rows(), table, v


def _isotropy_basis(B: SymBilinearForm, T) -> list:
    """A basis of the S skew for B that are derivations of the (1,3) tensor
    T, as matrices: the nullspace in skew coordinates, mapped back."""
    n = B.dim
    rows, table, v = _isotropy_rows(B, T)
    flats = [_unscaled([sum(w * k[q] for q, w in cell) for cell in table], v)
             for k in nullspace(list(set(map(tuple, rows))),
                                ncols=n * (n - 1) // 2)]
    return [tuple(f[a * n:(a + 1) * n] for a in range(n)) for f in flats]


def _derivation_rows(T, p: int):
    """Yield ((idx, comp), row) for entry comp of the derivation identity
    S T(x_1, .., x_p) = sum_s T(.., S x_s, ..) on the basis tuple idx, for a
    (1,p) tensor T (T[i_1]..[i_p] is a coefficient vector) and an unknown
    matrix S stored row-major at a*n + b: the left side minus the right is
    the sum of x * S[col] over the (col, x) pairs of row, a column possibly
    repeated.  The one builder of this identity (isotropy, the soliton and
    is_derivation).  T must be antisymmetric in its first two slots; only
    i_1 < i_2 is visited, in lexicographic order, as i_1 = i_2 gives zero
    rows and (i_2, i_1, ..) the negatives of the (i_1, i_2, ..) rows."""
    n = len(T)
    at = {idx: reduce(operator.getitem, idx, T)
          for idx in itertools.product(range(n), repeat=p)}
    for head in itertools.combinations(range(n), 2):
        for rest in itertools.product(range(n), repeat=p - 2):
            idx = head + rest
            image = [(l, v) for l, v in enumerate(at[idx]) if v]
            terms = [(l * n + i_s, at[idx[:s] + (l,) + idx[s + 1:]])
                     for s, i_s in enumerate(idx) for l in range(n)]
            for comp in range(n):
                yield (idx, comp), [(comp * n + l, v) for l, v in image] + \
                    [(col, -v[comp]) for col, v in terms if v[comp]]


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
    return _form_space(3, [images])


def is_isometric_automorphism(g: LieAlgebra, B: SymBilinearForm,
                              A: Sequence[Sequence]) -> CheckResult:
    """A[x,y] = [Ax, Ay] on basis pairs and A^T B A = B, over Z."""
    A = mat(A)
    n = g.dim
    if len(A) != n or any(len(r) != n for r in A):
        raise InputError("matrix size does not match algebra dimension")
    Ai, a = _canonical_tensor(A, 1)
    kept = _metric_preserved(B, Ai, a)
    if not kept:
        return kept
    return CheckResult.from_witness(
        next((ij for ij, (lhs, w) in _pair_sides(g, Ai, a).items() if lhs != w),
             None), "not an automorphism")


@dataclass(frozen=True)
class IsotropyReport:
    """Linearized isotropy algebra of a Heisenberg metric at the identity;
    ``generators`` is a basis of it, canonical in the skew coordinates of
    S = metric^-1 K (``_isotropy_rows``), not in the entries of S."""

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
    R = curvature(levi_civita(catalog.get("h3").algebra, metric))
    gens = tuple(_isotropy_basis(metric, R.dense))
    if len(gens) >= 3:
        kind = "O(2,1) type"
    elif len(gens) == 1:
        S = gens[0]
        tr2 = sum((S[a][b] * S[b][a] for a in range(3) for b in range(3)),
                  start=Fraction(0))
        kind = "O(2) type" if tr2 < 0 else "O(1,1) type"
    else:
        kind = "trivial"
    return IsotropyReport(len(gens), kind, gens)
