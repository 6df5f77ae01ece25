"""Exact dense linear algebra over the rationals (or any exact field scalar).

Matrices are tuples of row tuples, vectors plain tuples.  Entries are
Fractions in normal use; anything supporting field arithmetic and truthiness
(e.g. QuadExt) works as well.  Every rank and kernel comes from one
elimination, ``_rref_rows``: a streaming fraction-free Gauss-Jordan (Bareiss,
Math. Comp. 22, 1968) that draws rows one at a time, scales each to ints
once (``_scaled``), reduces it against the rows kept so far, normalises it
and clears the kept rows at its pivot, and can stop at a rank bound before
the rows run out.  A rational row comes out as the primitive int row of
its direction with a positive pivot, one that met a QuadExt with a leading
one, so the result is the canonical RREF whatever the order of the rows.
``algebra.Subspace`` keeps those rows, ``_kernel`` reads kernels off them,
``rank`` runs it on the shorter side, and only ``rref``, ``nullspace`` and
``Subspace.basis`` divide, once per entry.  ``determinant`` keeps its own
loop over the field.

The kernels under the tensor layer work the same way.  ``_scaled`` turns a
sequence of ints and Fractions into integers over their lcm denominator,
once; a sequence with a QuadExt entry is used as it is, at scale 1.
``_unscaled`` builds one Fraction per nonzero output entry, and an entry
that met a QuadExt keeps its type.  So ``contract`` (one denominator for
the weights, one for the leaves it visits) and ``algebra.bracket`` (the
integer table a ``LieAlgebra`` holds) have one loop for Q and
Q(sqrt d) alike, and Fractions come out canonical.  ``mat_vec`` takes the
integer kernel only when every matrix entry is exactly a Fraction and every
vector entry an int or a Fraction (one denominator for the matrix, one for
the vector; ``mat_mul`` is its columns), so int-only input keeps its type
there.

The geometry is summed over Z from one scaling per operand as well:
``_canonical_tensor`` holds a whole tensor (the metric, its inverse, a
map) as ints at its least positive scale, from one scaling of its entries
and one gcd.  The Levi-Civita connection and the curvature are held in
that form (``connection.Connection`` and ``CurvatureTensor``): the
Koszul and curvature loops hand their integer leaves in, torsion, metric
compatibility, Bianchi, the 1/4-ad check, Ricci (one Fraction per trace),
the locally-symmetric shortcut, the H3 isotropy rows and both isometry
conditions read the ints, and ``gamma`` and ``components`` are divided
(``_unscaled_tensor``) only when read.  ``_mat_vec_over_z`` is the one
integer matrix-vector loop, and ``algebra._bracket_over_z`` the one
bracket loop, shared by ``bracket`` and the isometry checks.

The homogeneous systems ``_kernel`` solves are built over Z too (scaling a
row leaves its RREF as it is).  A ``LieAlgebra`` is the dense constants
D c[i][j][k], scaled once at construction (D = 1 and the constants as they
are when one is a QuadExt); both central series, the invariant-form system,
the Killing form and the one double bracket per algebra, D^2 [[e_i, e_j],
e_k] (read by Jacobi, the 1/4-ad check, the isometry check and the
isotropy rows), read it.  A form's radical is one ``_kernel``, kept with
the form; it decides nondegeneracy, and the form is inverted once.  One
derivation-row builder serves isotropy, the soliton and ``is_derivation``;
isotropy is solved in the n(n-1)/2 skew coordinates of S = B^-1 K, K
antisymmetric.  Its dimension is not the nullity of all the rows: with a
zero double bracket it is n(n-1)/2 with no row drawn, and otherwise the
rows are drawn into ``_rref_rows`` as they are built, which stops at a
rank already known to be the largest possible, n(n-1)/2 - dim ad(g) for an
algebra that satisfies Jacobi (``connection.linearized_isotropy_dim``).
One skew-row builder, ``forms._skew_rows``, serves the invariant-form and
skew-adjoint-form solvers and the three metric-skew checks (ad-invariance,
metric compatibility, the naturally reductive identity).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Sequence

from .base import InputError
from .scalars import QuadExt, frac

Vector = tuple
Matrix = tuple


def _coerce(x):
    if isinstance(x, QuadExt):
        return x if x.b else x.a  # a rational value is stored as a Fraction
    return frac(x)


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


def _scaled(xs) -> tuple[list, int]:
    """(ints, d) with xs[i] == ints[i] / d and d the lcm of the denominators,
    for a sequence of ints and Fractions.  An entry with no denominator (a
    QuadExt) leaves the sequence as it is, at scale 1."""
    try:
        dens = [x.denominator for x in xs]
    except AttributeError:
        return list(xs), 1
    d = lcm(*dens)
    if d == 1:
        return [x.numerator for x in xs], 1
    return [x.numerator * (d // e) for x, e in zip(xs, dens)], d


_ZERO = Fraction(0)


def _unscaled(acc, d) -> Vector:
    """The Fractions acc[i] / d, one construction per nonzero entry; an
    entry that met a QuadExt keeps its type, zero or not."""
    return tuple(a / d if type(a) is QuadExt else Fraction(a, d) if a else _ZERO
                 for a in acc)


def _only(xs, types) -> bool:
    """The type of every entry is exactly one of ``types`` (a bool is not
    an int here)."""
    for x in xs:
        if type(x) not in types:
            return False
    return True


def mat_vec(A, x) -> Vector:
    # a Fraction matrix gives Fractions on either loop, so an int entry of x
    # may take the integer kernel as well; int x int keeps its type
    if A and _only(x, (Fraction, int)) and \
            all(len(row) == len(A[0]) and _only(row, (Fraction,)) for row in A):
        return _mat_vec_int(A, x)
    return tuple(sum((a * b for a, b in zip(row, x)), start=row[0] * 0) for row in A)


def _mat_vec_int(A, x) -> Vector:
    """mat_vec of a rectangular Fraction matrix and a vector of ints and
    Fractions over Z: one denominator for A, one for x."""
    xs, dx = _scaled(x)
    flat, da = _scaled([a for row in A for a in row])
    m = len(A[0])
    rows = [flat[r:r + m] for r in range(0, len(flat), m)]
    return _unscaled(_mat_vec_over_z(rows, xs), da * dx)


def _mat_vec_over_z(M, x) -> list:
    """M x for a matrix and a vector already scaled to ints, zero entries
    of x skipped; entries are left as they are (a QuadExt at scale 1)."""
    return [sum(a * b for a, b in zip(row, x) if b) for row in M]


def mat_mul(A, B) -> Matrix:
    cols = [mat_vec(A, col) for col in zip(*B)]
    return tuple(zip(*cols)) if cols else ((),) * len(A)


def transpose(A) -> Matrix:
    return tuple(zip(*A))


def is_zero_vector(x) -> bool:
    return all(not a for a in x)


def tensor(n, p, entry):
    """The rank-p tensor with leaf entry(i_1, .., i_p) at T[i_1]..[i_p], for
    indices in range(n), stored as the nested tuples ``contract`` reads.
    Entries are computed in lexicographic order of the indices."""
    T = [entry(*idx) for idx in itertools.product(range(n), repeat=p)]
    for _ in range(p):
        T = [tuple(T[a:a + n]) for a in range(0, len(T), n)]
    return T[0]


def _canonical_tensor(T, p, d=1) -> tuple[tuple, int]:
    """(I, s) with I / s = T / d: the rank-p tensor T of ints and Fractions,
    its leaves of length len(T), over d > 0 as the same nested tuples over
    Z at the least positive scale s, from one scaling of all its entries
    (``_scaled``) and one gcd; a form each such tensor has exactly one of.
    A tensor with a QuadExt entry is held as its values T / d (``_unscaled``)
    at scale 1."""
    n = len(T)
    for _ in range(p):
        T = [x for sub in T for x in sub]
    flat, s = _scaled(T)
    s *= d
    try:
        h = gcd(s, *flat)
    except TypeError:  # a QuadExt entry
        flat, s, h = _unscaled(flat, s), 1, 1
    if h > 1:
        flat, s = [x // h for x in flat], s // h
    for _ in range(p + 1):
        flat = [tuple(flat[a:a + n]) for a in range(0, len(flat), n)]
    return flat[0], s


def _unscaled_tensor(I, p, d) -> tuple:
    """The rank-p tensor I / d, one ``_unscaled`` per leaf."""
    if not p:
        return _unscaled(I, d)
    return tuple(_unscaled_tensor(sub, p - 1, d) for sub in I)


def first_nonzero(T, p):
    """First index tuple, in lexicographic order, whose leaf vector in the
    rank-p tensor T is nonzero; None when every leaf is zero."""
    return next((idx for idx in itertools.product(range(len(T)), repeat=p)
                 if not is_zero_vector(reduce(operator.getitem, idx, T))), None)


def contract(T, vectors) -> Vector:
    """Evaluate a tensor at p coefficient vectors x_1..x_p:

        sum over i_1..i_p of x_1[i_1] .. x_p[i_p] T[i_1]..[i_p],

    where T is stored as nested tuples whose leaves T[i_1]..[i_p] are
    coefficient vectors.  Zero coefficients are skipped at every level, so
    sparse arguments (basis vectors above all) cost little; all-zero input
    gives the zero vector of the leaf length.  Over Z: each vector shares
    one denominator, the leaves visited another (``_scaled``).
    """
    leaf = T
    for _ in vectors:
        leaf = leaf[0]
    terms = [(T, 1)]
    den = 1
    for x in vectors:
        xs, d = _scaled(x)
        den *= d
        terms = [(sub, w * xi) for part, w in terms
                 for xi, sub in zip(xs, part) if xi]
    flat, d = _scaled([c for leaf, _ in terms for c in leaf])
    acc = [0] * len(leaf)
    start = 0
    for leaf, w in terms:
        for k, c in enumerate(flat[start:start + len(leaf)]):
            if c:
                acc[k] += w * c
        start += len(leaf)
    return _unscaled(acc, den * d)


def rref(A: Sequence[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns: the rows of
    ``_rref_rows`` divided by their pivots, then the zero rows.  A rational
    entry comes back as a Fraction; a QuadExt one stays a QuadExt."""
    rows, pivots = _rref_rows(A)
    out = [_unscaled(row, row[c]) for row, c in zip(rows, pivots)]
    out += [(_ZERO,) * len(row) for row in A[len(pivots):]]
    return tuple(out), pivots


def _rref_rows(A, bound=None) -> tuple[tuple, tuple[int, ...]]:
    """(rows, pivots): the nonzero rows of the RREF of the rows A yields, in
    order of their pivots, drawing no row once ``bound`` are kept (so there
    are min(rank, bound) of them).  Each drawn row is scaled once (``_scaled``)
    and reduced fraction-free against the kept rows: with p a kept row's
    pivot entry and f the row's entry there, the row becomes p row - f kept
    (``_eliminated``).  A row left nonzero is normalised (``_normalised``),
    the kept rows are cleared at its pivot the same way, and it is kept.
    Each row comes out in the one form of its direction: primitive ints
    with a positive pivot when rational (all of them for a rational row
    space), otherwise a leading one; so the result does not depend on the
    order of the rows, and every pivot entry is an int."""
    kept = []
    for row in A if bound is None or bound > 0 else ():
        row = _scaled(row)[0]
        for c, prow in kept:
            if row[c]:
                row = _eliminated(row, prow, c)
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            continue
        row = _normalised(row, c)
        kept = [(d, _normalised(_eliminated(krow, row, c), d)
                 if krow[c] else krow) for d, krow in kept]
        kept.append((c, row))
        if len(kept) == bound:
            break
    kept.sort(key=operator.itemgetter(0))
    return tuple(tuple(row) for _, row in kept), tuple(c for c, _ in kept)


def _eliminated(row, prow, c) -> list:
    """p row - f prow, zero at c, for p = prow[c] (an int) and f = row[c],
    both divided by their gcd when f is an int too."""
    p, f = prow[c], row[c]
    if type(f) is int:
        h = gcd(p, f)
        p, f = p // h, f // h
    return [p * x - f * y for x, y in zip(row, prow)]


def _normalised(row, c) -> list:
    """A nonzero row with its first nonzero entry at c, in the form its
    direction has exactly one of: primitive ints with row[c] > 0 when it
    is rational, otherwise a leading one (an int 1 at c)."""
    try:
        h = gcd(*row)
    except TypeError:  # a QuadExt entry: over row[c], then over Z if rational
        inv = 1 / _coerce(row[c])
        row, d = _scaled(vec(x * inv for x in row))
        row[c] = d
        return row
    if row[c] < 0:
        h = -h
    return [x // h for x in row] if h != 1 else row


def _kernel(A, n: int) -> list:
    """A basis of {x : A x = 0}, A with n columns, read off ``_rref_rows``:
    for each free column f in order, m times ``nullspace``'s vector, m the
    lcm of the pivot entries of the rows nonzero at f (ints, 1 for a
    leading-one row); all ints for a rational A."""
    rows, pivots = _rref_rows(A)
    out = []
    for f in sorted(set(range(n)) - set(pivots)):
        reach = [(row, p) for row, p in zip(rows, pivots) if row[f]]
        m = lcm(*(row[p] for row, p in reach))
        v = [0] * n
        v[f] = m
        for row, p in reach:
            v[p] = -row[f] * (m // row[p])
        out.append(tuple(v))
    return out


def row_space(A) -> Matrix:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    R, pivots = rref(A)
    return tuple(R[i] for i in range(len(pivots)))


def rank(A) -> int:
    """rank A, eliminated on the shorter side (rank A = rank A^T)."""
    if not A:
        return 0
    return len(_rref_rows(A if len(A) <= len(A[0]) else transpose(A))[1])


def nullspace(A, ncols: int | None = None) -> list[Vector]:
    """Canonical basis of {x : A x = 0}; pass ncols when A may be empty."""
    if not A and ncols is None:
        raise InputError("nullspace of empty matrix needs ncols")
    # the entry at the free column is the last nonzero one of its vector
    return [_unscaled(v, next(x for x in reversed(v) if x))
            for v in _kernel(A, len(A[0]) if A else ncols)]


def solve(A, b) -> Vector | None:
    """One solution of A x = b with free variables set to zero, or None when
    the system is inconsistent."""
    if not A:
        return () if is_zero_vector(b) else None
    n = len(A[0])
    R, pivots = rref([list(row) + [rhs] for row, rhs in zip(A, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        x[p] = R[r][n]
    return tuple(x)


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
    rows = [[_coerce(x) for x in r] for r in A]  # ints divide exactly
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

