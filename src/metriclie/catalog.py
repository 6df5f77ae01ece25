"""Built-in algebras and metrics, plus the dimension-4 metric classifier.

Catalog names are part of the CLI contract: r1..r4, aff, h3, sl2, so3,
g0, g1, r+sl2, r+so3.  Metric names: gmatrix0 (on g0/g1), h0/h1/h2 (on h3)
and killing (any algebra).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .algebra import (LieAlgebra, center, commutator, is_abelian, is_solvable,
                      jacobi_check)
from .base import InputError
from .forms import (SymBilinearForm, has_nondegenerate_invariant_form,
                    is_ad_invariant, killing_form, signature)
from .linalg import basis_vector


@dataclass(frozen=True)
class CatalogEntry:
    """An algebra with its named forms.

    ``invariant_forms`` are verified ad-invariant on load; ``left_metrics``
    are left-invariant metrics on the Heisenberg algebra (h0, h1, h2) and
    carry no invariance claim.
    """

    algebra: LieAlgebra
    invariant_forms: Mapping[str, SymBilinearForm] = field(default_factory=dict)
    left_metrics: Mapping[str, SymBilinearForm] = field(default_factory=dict)
    notes: str = ""


def _sym(dim, entries):
    return SymBilinearForm.from_entries(
        dim, [(i, j, Fraction(v)) for (i, j, v) in entries])


GMATRIX0_G0 = _sym(4, [(0, 3, 1), (1, 1, 1), (2, 2, 1)])
GMATRIX0_G1 = _sym(4, [(0, 3, 1), (1, 2, 1)])
H3_METRIC_H0 = _sym(3, [(0, 0, 1), (1, 2, 1)])
H3_METRIC_H1 = _sym(3, [(0, 0, 1), (1, 1, 1), (2, 2, -1)])
H3_METRIC_H2 = _sym(3, [(0, 1, 1), (2, 2, 1)])


def _abelian(n, name):
    return LieAlgebra.from_brackets(n, [], name=name)


@lru_cache(maxsize=None)
def _entries() -> dict[str, CatalogEntry]:
    sl2 = LieAlgebra.from_brackets(
        3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)], name="sl2")
    so3 = LieAlgebra.from_brackets(
        3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)], name="so3")
    cat = {
        "r1": CatalogEntry(_abelian(1, "r1"), notes="abelian line"),
        "r2": CatalogEntry(_abelian(2, "r2"), notes="abelian plane"),
        "r3": CatalogEntry(_abelian(3, "r3"), notes="abelian 3-space"),
        "r4": CatalogEntry(_abelian(4, "r4"), notes="abelian 4-space"),
        "aff": CatalogEntry(
            LieAlgebra.from_brackets(2, [(0, 1, 1, 1)], name="aff"),
            notes="nonabelian 2-dim algebra [X,Y] = Y; trivial center"),
        "h3": CatalogEntry(
            LieAlgebra.from_brackets(3, [(0, 1, 2, 1)], name="h3"),
            left_metrics={"h0": H3_METRIC_H0, "h1": H3_METRIC_H1,
                          "h2": H3_METRIC_H2},
            notes="Heisenberg algebra [X1,X2] = X3 with three Lorentzian"
                  " left-invariant metrics: h0 (degenerate center, flat),"
                  " h1 and h2 (nondegenerate center, non-flat)"),
        "sl2": CatalogEntry(
            sl2, invariant_forms={"killing": killing_form(sl2)},
            notes="split simple 3-dim algebra, basis (h, e, f)"),
        "so3": CatalogEntry(
            so3, invariant_forms={"killing": killing_form(so3)},
            notes="compact simple 3-dim algebra"),
        "g0": CatalogEntry(
            LieAlgebra.from_brackets(
                4, [(0, 1, 2, 1), (0, 2, 1, -1), (1, 2, 3, 1)], name="g0"),
            invariant_forms={"gmatrix0": GMATRIX0_G0},
            notes="oscillator algebra: e0 rotates span{e1,e2}, [e1,e2] = e3;"
                  " gmatrix0 is the Lorentzian ad-invariant metric with"
                  " null e0, e3"),
        "g1": CatalogEntry(
            LieAlgebra.from_brackets(
                4, [(0, 1, 1, 1), (0, 2, 2, -1), (1, 2, 3, 1)], name="g1"),
            invariant_forms={"gmatrix0": GMATRIX0_G1},
            notes="boost analogue of the oscillator algebra: e0 acts on"
                  " span{e1,e2} by a split torus; signature (2,2) metric"),
        "r+sl2": CatalogEntry(
            _direct_sum_with_line(sl2, "r+sl2"),
            invariant_forms={"killing+1": _line_plus_killing(sl2)},
            notes="line plus split simple factor; e0 central"),
        "r+so3": CatalogEntry(
            _direct_sum_with_line(so3, "r+so3"),
            invariant_forms={"killing+1": _line_plus_killing(so3)},
            notes="line plus compact simple factor; e0 central"),
    }
    for name, entry in cat.items():
        ok = jacobi_check(entry.algebra)
        if not ok:
            raise InputError(f"catalog entry {name} fails Jacobi: {ok}")
        for fname, form in entry.invariant_forms.items():
            inv = is_ad_invariant(entry.algebra, form)
            if not inv:
                raise InputError(
                    f"catalog form {name}:{fname} not ad-invariant: {inv}")
    return cat


def _direct_sum_with_line(simple: LieAlgebra, name: str) -> LieAlgebra:
    """R e0 (central) plus the given 3-dim algebra on e1..e3, read from its
    integer table."""
    return LieAlgebra.from_brackets(
        4, [(i + 1, j + 1, k + 1, Fraction(c, simple.D))
            for i, j, row in simple.pairs for k, c in row], name=name)


def _line_plus_killing(simple: LieAlgebra) -> SymBilinearForm:
    K = killing_form(simple).matrix
    return _sym(4, [(0, 0, 1)] + [(i + 1, j + 1, K[i][j])
                                  for i in range(3) for j in range(3)])


def names() -> list[str]:
    return list(_entries().keys())


def get(name: str) -> CatalogEntry:
    cat = _entries()
    if name not in cat:
        raise InputError(
            f"unknown catalog name {name!r}; valid names: {', '.join(cat)}")
    return cat[name]


def metric_names(entry: CatalogEntry) -> list[str]:
    return list(entry.invariant_forms) + list(entry.left_metrics) + ["killing"]


def get_metric(entry: CatalogEntry, metric_name: str) -> SymBilinearForm:
    """Named forms first (invariant, then left-invariant), then Killing."""
    for forms in (entry.invariant_forms, entry.left_metrics):
        if metric_name in forms:
            return forms[metric_name]
    if metric_name == "killing":
        return killing_form(entry.algebra)
    raise InputError(
        f"no metric {metric_name!r} on {entry.algebra.name or 'this algebra'};"
        f" available: {', '.join(metric_names(entry))}")


def classify_dim4_metric(g: LieAlgebra) -> str:
    """Place a 4-dim algebra admitting an ad-invariant metric in the
    five-entry list; anything outside the metric class lands in not_in_list.

    Decision tree over basis-independent invariants only, so relabelled or
    rationally transformed copies classify identically:

    - abelian -> R4;
    - no nondegenerate ad-invariant form -> not_in_list;
    - Killing form of rank 3 -> R+so3 (negative definite 3-block) or
      R+sl2 (signature (2,1) block);
    - solvable with 1-dim center and 3-dim commutator -> the sign of
      K(x, x) for any x outside the commutator separates the rotation
      case (negative, oscillator_g0) from the boost case (positive, g1).

    The Killing form is read first: a Lie algebra whose Killing form K
    has rank 3 has a nondegenerate invariant form, so the form search is
    skipped.  Proof: were g solvable, K would vanish on [g, g] x g
    (Cartan's criterion), so dim [g, g] <= 1; then ad x maps g into
    [g, g] = span{z}, K(x, y) = mu(x) mu(y) with mu(x) the z-coefficient
    of [x, z], and K has rank <= 1.  So g is not solvable, and its Levi
    decomposition is g = s (+) R with s simple of dim 3 (a 1-dim module
    of a simple s is trivial); K_s (+) 1 is a nondegenerate invariant
    form.  The proof needs Jacobi, so a table that fails it takes the
    search.  The form search and the central series are built once per
    algebra, so ``report`` pays for them once although it prints them too.
    """
    if g.dim != 4:
        raise InputError("classifier expects a 4-dimensional algebra")
    if is_abelian(g):
        return "R4"
    K = killing_form(g)
    sig = signature(K)
    if not (sig.null == 1 and jacobi_check(g)) and \
            not has_nondegenerate_invariant_form(g).found:
        return "not_in_list"
    if sig.null == 1:
        if sig.as_tuple() == (0, 3, 1):
            return "R+so3"
        if sig.as_tuple() == (2, 1, 1):
            return "R+sl2"
        return "not_in_list"
    c1 = commutator(g)
    if is_solvable(g) and center(g).dim == 1 and c1.dim == 3:
        x = next(basis_vector(4, i) for i in range(4)
                 if not c1.contains(basis_vector(4, i)))
        kxx = K.evaluate(x, x)
        if kxx < 0:
            return "oscillator_g0"
        if kxx > 0:
            return "g1"
    return "not_in_list"
