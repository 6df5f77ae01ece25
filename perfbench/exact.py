"""The benchmark's own exact arithmetic and source algebras.

Nothing here imports metriclie.  The benchmark builds its inputs with this
code (random rational basis changes of known algebras) and checks the
program's outputs against it, so a fault in metriclie cannot hide behind a
shared helper.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

# name -> (dim, brackets [(i, j, k, value)], metrics {name: [(i, j, value)]},
#          class label for dim 4 or None)
SOURCES = {
    "r4": (4, [], {}, "R4"),
    "r+sl2": (4, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)],
              {"killing+1": [(0, 0, 1), (1, 1, 8), (2, 3, 4)]}, "R+sl2"),
    "r+so3": (4, [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1)],
              {"killing+1": [(0, 0, 1), (1, 1, -2), (2, 2, -2), (3, 3, -2)]},
              "R+so3"),
    "g0": (4, [(0, 1, 2, 1), (0, 2, 1, -1), (1, 2, 3, 1)],
           {"gmatrix0": [(0, 3, 1), (1, 1, 1), (2, 2, 1)]}, "oscillator_g0"),
    "g1": (4, [(0, 1, 1, 1), (0, 2, 2, -1), (1, 2, 3, 1)],
           {"gmatrix0": [(0, 3, 1), (1, 2, 1)]}, "g1"),
    "aff+aff": (4, [(0, 1, 1, 1), (2, 3, 3, 1)], {}, "not_in_list"),
    "n4": (4, [(0, 1, 2, 1), (0, 2, 3, 1)], {}, "not_in_list"),
    "e2+R": (4, [(0, 1, 2, 1), (0, 2, 1, -1)], {}, "not_in_list"),
    "h3+R": (4, [(0, 1, 2, 1)], {}, "not_in_list"),
    "aff+R2": (4, [(0, 1, 1, 1)], {}, "not_in_list"),
    "h3": (3, [(0, 1, 2, 1)],
           {"h0": [(0, 0, 1), (1, 2, 1)],
            "h1": [(0, 0, 1), (1, 1, 1), (2, 2, -1)],
            "h2": [(0, 1, 1), (2, 2, 1)]}, None),
}
METRIC_SOURCES = ("r4", "r+sl2", "r+so3", "g0", "g1")
# invariant-form spaces of dimension 3 (a 125-point determinant grid) and 6
# (15,625 points)
GRID_SOURCES = ("aff+aff", "n4", "e2+R")
GRID6_SOURCES = ("h3+R", "aff+R2")


def identity(n):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col)), Q(0)) for col in Bt]
            for row in A]


def mat_vec(A, x):
    return [sum((a * b for a, b in zip(row, x)), Q(0)) for row in A]


def inverse(A):
    """Gauss-Jordan inverse; raises ZeroDivisionError when A is singular."""
    n = len(A)
    rows = [list(r) + e for r, e in zip(A, identity(n))]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c][c]
        rows[c] = [x / p for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


class Algebra:
    """Structure constants c[i][j][k] of [e_i, e_j] = sum_k c[i][j][k] e_k."""

    def __init__(self, dim, c):
        self.dim = dim
        self.c = c

    @staticmethod
    def from_brackets(dim, entries):
        c = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, v in entries:
            c[i][j][k] = Q(v)
            c[j][i][k] = -Q(v)
        return Algebra(dim, c)

    def bracket(self, x, y):
        n = self.dim
        out = [Q(0)] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                w = x[i] * y[j]
                if w:
                    for k, ck in enumerate(self.c[i][j]):
                        if ck:
                            out[k] += w * ck
        return out

    def changed(self, P):
        """Structure constants in the basis f_i = P e_i: P^-1 [P e_i, P e_j]."""
        n = self.dim
        Pinv = inverse(P)
        cols = transpose(P)
        c = [[mat_vec(Pinv, self.bracket(cols[i], cols[j])) for j in range(n)]
             for i in range(n)]
        return Algebra(n, c)


def sym_matrix(dim, entries):
    m = [[Q(0)] * dim for _ in range(dim)]
    for i, j, v in entries:
        m[i][j] = m[j][i] = Q(v)
    return m


def source_algebra(name):
    dim, brackets, _, _ = SOURCES[name]
    return Algebra.from_brackets(dim, brackets)


def source_metric(name, metric):
    dim, _, metrics, _ = SOURCES[name]
    return sym_matrix(dim, metrics[metric])


def random_basis_change(rng: random.Random, n):
    """An invertible matrix with small random rational entries."""
    while True:
        P = [[Q(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(n)]
             for _ in range(n)]
        try:
            inverse(P)
        except ZeroDivisionError:
            continue
        return P


def algebra_file(alg: Algebra, metrics=None):
    """JSON-ready algebra file with exact "p/q" strings."""
    n = alg.dim
    brackets = [[i, j, k, str(alg.c[i][j][k])]
                for i in range(n) for j in range(i + 1, n) for k in range(n)
                if alg.c[i][j][k]]
    out = {"dim": n, "brackets": brackets}
    if metrics:
        out["metrics"] = {name: [[i, j, str(m[i][j])] for i in range(n)
                                 for j in range(i, n) if m[i][j]]
                          for name, m in metrics.items()}
    return out


def curvature(alg: Algebra, B):
    """R[i][j][k] = R(e_i, e_j) e_k of the Levi-Civita connection of B.

    Koszul formula on the frame and R(X,Y) = [nabla_X, nabla_Y] -
    nabla_[X,Y].
    """
    n = alg.dim
    Binv = inverse(B)
    e = identity(n)

    def form(x, y):
        return sum((x[a] * B[a][b] * y[b] for a in range(n) for b in range(n)
                    if x[a] and y[b]), Q(0))

    gamma = [[mat_vec(Binv, [(form(alg.c[i][j], e[k]) - form(alg.c[j][k], e[i])
                              + form(alg.c[k][i], e[j])) / 2
                             for k in range(n)])
              for j in range(n)] for i in range(n)]

    def nabla(x, v):
        out = [Q(0)] * n
        for i in range(n):
            for l in range(n):
                w = x[i] * v[l]
                if w:
                    out = [o + w * g for o, g in zip(out, gamma[i][l])]
        return out

    return [[[[p - q - r for p, q, r in zip(nabla(e[i], nabla(e[j], e[k])),
                                            nabla(e[j], nabla(e[i], e[k])),
                                            nabla(alg.c[i][j], e[k]))]
              for k in range(n)] for j in range(n)] for i in range(n)]


def ricci_operator(alg: Algebra, B, R=None):
    """Ric(x, y) = trace(z -> R(z, x) y), raised by B."""
    n = alg.dim
    R = R or curvature(alg, B)
    ric = [[sum((R[k][a][b][k] for k in range(n)), Q(0)) for b in range(n)]
           for a in range(n)]
    return mat_mul(inverse(B), ric)


def derivation_failure(alg: Algebra, D):
    """First basis pair (i, j) where D[x,y] != [Dx,y] + [x,Dy], or None."""
    n = alg.dim
    cols = transpose(D)
    e = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat_vec(D, alg.c[i][j])
            rhs = [a + b for a, b in zip(alg.bracket(cols[i], e[j]),
                                         alg.bracket(e[i], cols[j]))]
            if lhs != rhs:
                return (i, j)
    return None
