"""Support data on the surface: pencils, base roots, and the c = 1 bridge.

The support cycle of a point is the root cycle of the pencil determinant of
(A1, A2), computed as the spectrum of B at a chart carried back through the
chart angle; the fibre data are the joint (B, E) pairs there.  For c = 1
the module also walks single points between three models: the hypersurface
x1 y1^(n-1) = x2 y2^(n-1), the ADHM tuple, and the total space of O(-n)
written as pairs (y1, y2), (u1, u2) with u1 y1^n = u2 y2^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hirz as hirz_mod
from . import plane as plane_mod
from .errors import IndeterminateError, InvalidPointError, ShapeError
from .hirz import _MAX_TWIST, HirzADHM, hirz_adhm, to_chart
from .linalg import (
    DEFAULT_TOL,
    BinaryForm,
    ToleranceConfig,
    _cluster_roots,
    _memoized,
    _residual,
    as_covector,
    as_int,
    as_matrix,
    binary_form,
    eigenvalues,
    greedy_match,
)
from .sigma import angle_pair, sigma_matrix

__all__ = [
    "SupportMultiset",
    "TotPoint",
    "YTildePoint",
    "tot_point",
    "ytilde_point",
    "pencil_form",
    "base_support",
    "spectrum_vs_pencil_check",
    "chart_support",
    "um_membership",
    "ytilde_to_p1",
    "p1_to_tot",
]

# the c = 1 bridge identities are polynomial in a handful of scalars, so they
# hold essentially to machine precision
_C1_REL_TOL = 1e-12


@dataclass(frozen=True)
class SupportMultiset:
    """Base roots with multiplicity, optionally with chart fibre pairs."""

    base: tuple  # ((ProjPoint, multiplicity), ...)
    chart_pairs: tuple | None = None  # (m, ((beta, eps), ...))


@dataclass(frozen=True)
class TotPoint:
    y1: complex
    y2: complex
    u1: complex
    u2: complex


@dataclass(frozen=True)
class YTildePoint:
    y1: complex
    y2: complex
    x1: complex
    x2: complex


def _c1_point(who, n, y1, y2, a1, a2, k, relation):
    """Checks shared by the c = 1 models: n in 1..64, (y1, y2) != 0, a1 y1^k = a2 y2^k."""
    as_int(n, who, "n", 1, _MAX_TWIST)
    if y1 == 0 and y2 == 0:
        raise InvalidPointError(f"{who}: (y1, y2) must not both vanish")
    try:
        lhs, rhs = a1 * y1**k, a2 * y2**k
        err = _residual(lhs - rhs, max(abs(lhs), abs(rhs), 1e-30))
    except OverflowError:  # complex ** raises where complex * gives inf
        err = np.nan
    if np.isnan(err):
        raise IndeterminateError(f"{who}: cannot certify relation {relation}")
    if err > _C1_REL_TOL:
        raise InvalidPointError(f"{who}: relation {relation} violated (relative error {err:.3e})")


def tot_point(y1, y2, u1, u2, n: int) -> TotPoint:
    """Point of the total space model; checks u1 y1^n = u2 y2^n."""
    y1, y2, u1, u2 = complex(y1), complex(y2), complex(u1), complex(u2)
    _c1_point("tot_point", n, y1, y2, u1, u2, n, f"u1 y1^{n} = u2 y2^{n}")
    return TotPoint(y1, y2, u1, u2)


def ytilde_point(y1, y2, x1, x2, n: int) -> YTildePoint:
    """Point of the hypersurface model; checks x1 y1^(n-1) = x2 y2^(n-1)."""
    y1, y2, x1, x2 = complex(y1), complex(y2), complex(x1), complex(x2)
    _c1_point("ytilde_point", n, y1, y2, x1, x2, n - 1, f"x1 y1^{n - 1} = x2 y2^{n - 1}")
    return YTildePoint(y1, y2, x1, x2)


def pencil_form(A1, A2) -> BinaryForm:
    """Coefficients of det(nu1 A1 + nu2 A2) as a degree-c binary form.

    The determinant is evaluated at the c+1 points [1 : w^k] for w a
    primitive (c+1)-th root of unity and the coefficients recovered by the
    inverse discrete Fourier transform, an exactly determined and perfectly
    conditioned interpolation.  The zero form is allowed here.  Finite
    matrices whose determinant overflows give an IndeterminateError.
    """
    A1 = as_matrix(A1, "A1", "square")
    A2 = as_matrix(A2, "A2", A1.shape)
    c = A1.shape[0]
    w = np.exp(2j * np.pi * np.arange(c + 1) / (c + 1))
    values = np.linalg.det(A1 + w[:, None, None] * A2)
    # values[k] = sum_p coeff[p] w^{kp}, so the forward transform inverts it
    coeffs = np.fft.fft(values) / (c + 1)
    if not np.isfinite(coeffs).all():
        raise IndeterminateError("pencil_form: the pencil determinant is not finite (overflow)")
    return binary_form(coeffs)


def _regular_pencil_form(d: HirzADHM) -> BinaryForm:
    """pencil_form of det(lam1 A2 + lam2 A1) for a point whose chart set P2 has certified.

    Such a pencil is regular, so a form whose every coefficient is zero or
    subnormal has underflowed, and its roots cannot be certified:
    IndeterminateError, as for an overflowing one.
    """
    form = pencil_form(d.A2, d.A1)
    peak = float(np.abs(form.coeffs).max())
    if peak < np.finfo(float).tiny:
        raise IndeterminateError(
            f"pencil_form: the pencil determinant underflows (largest coefficient {peak:.3g})")
    return form


def _chart_base_roots(cc, tol: ToleranceConfig) -> tuple:
    """Base roots read off chart coordinates: the eigenvalues of B, carried
    back through the chart angle (the inverse of _root_to_fibre_coordinate)
    and clustered within root_cluster_tol."""
    ap = angle_pair(cc.c, cc.m)
    beta = eigenvalues(cc.B)
    points = np.stack([-(ap.sin_val + beta * ap.cos_val), ap.cos_val - beta * ap.sin_val], axis=1)
    return _cluster_roots(points, tol.root_cluster_tol)


@_memoized
def base_support(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> SupportMultiset:
    """Roots of det(lam2 A1 + lam1 A2) with multiplicity, for a valid point.

    The roots are the eigenvalues of B at the first chart of validate_hirz's
    chart set, carried back through the chart angle and clustered within
    root_cluster_tol.  Roots of the determinant's coefficients drift at
    large c; pencil_form stays the independent witness.  The support is
    memoized on the point, one per tolerance.
    """
    m = hirz_mod.validate_hirz(d, tol).require("base_support").chart_set[0]
    return SupportMultiset(base=_chart_base_roots(to_chart(d, m, tol), tol))


def _root_to_fibre_coordinate(pt, ap):
    """z with lam2 A1 + lam1 A2 proportional to A2m (B + z); root maps to -z."""
    num = ap.cos_val * pt.lam1 + ap.sin_val * pt.lam2
    den = -ap.sin_val * pt.lam1 + ap.cos_val * pt.lam2
    return -num / den


def spectrum_vs_pencil_check(d: HirzADHM, m: int, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Base roots, pushed into chart m, must reproduce the spectrum of B.

    base_support reads its roots off B at chart_set[0], so at that chart
    this compares B's spectrum with itself through the chart-angle map and
    its inverse, true by construction; only other charts compare two
    independent routes.  The independent witness that the roots are zeros
    of det(lam2 A1 + lam1 A2) is the propsuite property geom_spectrum_pencil
    and tests/test_geometry.py::test_base_roots_are_zeros_of_the_pencil_determinant.
    """
    support = base_support(d, tol)
    cc = to_chart(d, m, tol)
    ap = angle_pair(d.c, m)
    mapped = []
    for pt, mult in support.base:
        mapped.extend([_root_to_fibre_coordinate(pt, ap)] * mult)
    return greedy_match(mapped, eigenvalues(cc.B), tol)


def chart_support(d: HirzADHM, m: int, tol: ToleranceConfig = DEFAULT_TOL) -> SupportMultiset:
    """Support with fibre data: base roots plus joint (B, E) pairs at chart m.

    The base roots are base_support's, read at chart_set[0]; when m is that
    chart, roots and pairs come off one to_chart call.
    """
    first = hirz_mod.validate_hirz(d, tol).require("chart_support").chart_set[0]
    cc = to_chart(d, m, tol)
    base = _chart_base_roots(cc if m == first else to_chart(d, first, tol), tol)
    pairs = plane_mod.joint_spectrum(hirz_mod.plane_part(cc), tol)
    return SupportMultiset(base=base, chart_pairs=(m, tuple(pairs)))


def um_membership(x, m: int, c_base: int, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether homogeneous coordinates x = (x_0..x_c) lie in the m-th cover set.

    Membership means sum_p sigma^c_{m; p 0} x_p != 0; for m = 0 this is the
    usual x_0 != 0 chart of projective space.
    """
    x = as_covector(x, "x", as_int(c_base, "um_membership", "c_base", 1) + 1)
    if np.all(x == 0):
        raise ShapeError("um_membership: coordinates must not all vanish")
    column = sigma_matrix(c_base, m, c_base).entries[:, 0]
    value = complex(column @ x)
    return abs(value) > tol.eq_rel_tol * float(np.linalg.norm(column) * np.linalg.norm(x))


def ytilde_to_p1(p: YTildePoint, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> HirzADHM:
    """Embed a c = 1 hypersurface point as an ADHM tuple, branch by |y_i|.

    On |y1| >= |y2| the C-stack is C_q = (y2/y1)^(n-q) x2; otherwise
    C_q = (y1/y2)^(q-1) x1.  Ties take the first branch.
    """
    as_int(n, "ytilde_to_p1", "n", 1, _MAX_TWIST)
    p = ytilde_point(p.y1, p.y2, p.x1, p.x2, n)  # re-check relation at this n
    if abs(p.y1) >= abs(p.y2):
        ratio = p.y2 / p.y1
        cs = [ratio ** (n - q) * p.x2 for q in range(1, n + 1)]
    else:
        ratio = p.y1 / p.y2
        cs = [ratio ** (q - 1) * p.x1 for q in range(1, n + 1)]
    return hirz_adhm(
        n, 1,
        [[p.y1]], [[p.y2]],
        tuple([[z]] for z in cs),
        [1.0],
    )


def p1_to_tot(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> TotPoint:
    """Project a valid c = 1 tuple to the total space model.

    Gauge-normalizes e to 1 (so (y1, y2) = (A1, A2)/e up to the remaining
    frame scaling) and returns ((y1, y2), (C1 A2, C_n A1)); the fibre pair
    is gauge-invariant on the nose.
    """
    if d.c != 1:
        raise ShapeError(f"p1_to_tot: only c = 1 points project, got c = {d.c}")
    hirz_mod.validate_hirz(d, tol).require("p1_to_tot")
    e = complex(d.e[0])
    y1 = complex(d.A1[0, 0]) / e
    y2 = complex(d.A2[0, 0]) / e
    u1 = complex(d.C[0][0, 0]) * complex(d.A2[0, 0])
    u2 = complex(d.C[d.n - 1][0, 0]) * complex(d.A1[0, 0])
    return tot_point(y1, y2, u1, u2, d.n)
