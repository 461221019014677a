"""ADHM data for length-c subschemes of the affine plane.

A point is a triple (b1, b2, e) with b1, b2 complex c x c matrices and e a
row covector of length c, subject to two conditions:

  commutation   [b1, b2] = 0
  co-stability  no nonzero v with b1 v = -z v, b2 v = -w v and e v = 0,
                for any scalars (z, w); equivalently the largest
                (b1, b2)-invariant subspace inside ker(e) is zero.

GL(c) acts by b_i -> g b_i g^-1, e -> e g^-1, and orbits of valid triples
are in bijection with length-c subschemes; the joint spectrum of (b1, b2)
is the support with multiplicity.  This module also carries the fibrewise
chart-to-chart transition of the ambient atlas, which acts on such triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidPointError, ShapeError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_covector,
    as_int,
    as_matrix,
    _ArrayValue,
    _inverse_at_tol,
    _near,
    _operator_scale,
    freeze,
    kernel_basis,
    mats_close,
)
from .report import FAIL, INDETERMINATE, PASS, Check, ValidationReport, _residual_check
from .sigma import angle_pair

__all__ = [
    "PlaneADHM",
    "plane_adhm",
    "validate_plane",
    "act_gl",
    "from_points",
    "joint_spectrum",
    "transition_plane",
    "canonical_form",
    "orbit_equal_plane",
]

_MAX_TWIST = 64  # the largest twist n of O(-n) any function accepts


@dataclass(frozen=True, eq=False)
class PlaneADHM(_ArrayValue):
    c: int
    b1: np.ndarray
    b2: np.ndarray
    e: np.ndarray


def plane_adhm(b1, b2, e) -> PlaneADHM:
    """Build a PlaneADHM value after shape/finiteness checks (no validation)."""
    b1 = as_matrix(b1, "b1", "square")
    b2 = as_matrix(b2, "b2", b1.shape)
    e = as_covector(e, "e", b1.shape[0])
    return PlaneADHM(c=b1.shape[0], b1=b1, b2=b2, e=e)


def _commutation_check(d: PlaneADHM, tol: ToleranceConfig) -> Check:
    return _residual_check("commutation", d.b1 @ d.b2 - d.b2 @ d.b1,
                           np.linalg.norm(d.b1) * np.linalg.norm(d.b2), tol.eq_rel_tol,
                           "[b1, b2] relative to |b1||b2|")


def _stable_subspace_dim(b1, b2, e, tol: ToleranceConfig) -> int:
    """Dimension of the largest (b1, b2)-invariant subspace inside ker(e).

    Shrinks V_0 = ker(e) by V_{k+1} = {v in V_k : b1 v, b2 v in V_k} until
    the dimension stabilizes; at most c steps are needed.
    """
    scale = _operator_scale(b1, b2)
    v = kernel_basis(e.reshape(1, -1), tol)
    while v.shape[1] > 0:
        proj = v @ v.conj().T
        img1 = b1 @ v
        img2 = b2 @ v
        resid = np.vstack([img1 - proj @ img1, img2 - proj @ img2])
        keep = kernel_basis(resid, tol, scale=scale)
        if keep.shape[1] == v.shape[1]:
            break
        v = v @ keep
    return v.shape[1]


def validate_plane(d: PlaneADHM, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Check commutation and co-stability.

    Co-stability is refused (verdict ``indeterminate``) unless commutation
    passes, since the subspace iteration is only meaningful for commuting
    pairs.
    """
    t1 = _commutation_check(d, tol)
    if t1.verdict != PASS:
        t2 = Check(
            name="costability",
            verdict=INDETERMINATE,
            detail="refused: commutation fails beyond tolerance" if t1.verdict == FAIL
            else "refused: commutation is not certified",
        )
    else:
        dim = _stable_subspace_dim(d.b1, d.b2, d.e, tol)
        t2 = Check(
            name="costability",
            verdict=PASS if dim == 0 else FAIL,
            detail=f"largest invariant subspace inside ker(e) has dimension {dim}",
        )
    return ValidationReport(checks=(t1, t2))


def act_gl(d: PlaneADHM, phi, tol: ToleranceConfig = DEFAULT_TOL) -> PlaneADHM:
    """Gauge action b_i -> phi b_i phi^-1, e -> e phi^-1."""
    phi = as_matrix(phi, "phi", (d.c, d.c))
    if (phi_inv := _inverse_at_tol(phi, tol)) is None:
        raise InvalidPointError("act_gl: gauge matrix is singular at tolerance")
    return PlaneADHM(c=d.c, b1=phi @ d.b1 @ phi_inv, b2=phi @ d.b2 @ phi_inv, e=d.e @ phi_inv)


def from_points(points, tol: ToleranceConfig = DEFAULT_TOL) -> PlaneADHM:
    """Diagonal triple supported on the given pairwise-distinct plane points."""
    pts = list(points)
    if not pts:
        raise ShapeError("from_points: need at least one point")
    arr = as_matrix(pts, "points", (len(pts), 2))
    coincide = np.argwhere(np.triu(_near(arr, arr, tol)[1], 1))  # pairs i < j, row-major
    if coincide.size:
        i, j = coincide[0]
        raise InvalidPointError(f"from_points: points {i} and {j} coincide at tolerance")
    return plane_adhm(np.diag(arr[:, 0]), np.diag(arr[:, 1]), np.ones(len(pts)))


# fixed generic weight: a wrong pair (beta_i, eps_j) lands on an eigenvalue of
# b1 + t b2 only where two joint eigenvalues collide along this direction
_PAIRING_T = 0.6180339887498949 + 0.4142135623730951j


def joint_spectrum(d: PlaneADHM, tol: ToleranceConfig = DEFAULT_TOL):
    """Joint eigenvalue pairs of the commuting pair (b1, b2).

    The spectrum of b1 + t b2 is {beta + t eps} over the joint pairs, so the
    eigenvalues of b1 and b2 are paired greedily by the smallest
    |beta_i + t eps_j - mu_k| over the eigenvalues mu_k of b1 + t b2; never
    through eigenvectors, which mix where two pairs collide under t.
    Returns (beta, eps) pairs sorted by (real, imag) of each component.
    """
    ValidationReport(checks=(_commutation_check(d, tol),)).require(
        "joint_spectrum", "matrices do not commute at tolerance")
    beta = np.linalg.eigvals(d.b1)
    eps = np.linalg.eigvals(d.b2)
    mu = np.linalg.eigvals(d.b1 + _PAIRING_T * d.b2)
    dist = np.abs(beta[:, None, None] + _PAIRING_T * eps[None, :, None] - mu)
    pairs = []
    for _ in range(d.c):
        i, j, k = np.unravel_index(np.argmin(dist), dist.shape)
        pairs.append((complex(beta[i]), complex(eps[j])))
        dist[i] = dist[:, j] = dist[:, :, k] = np.inf
    pairs.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    return pairs


def transition_plane(
    d: PlaneADHM, m: int, l: int, n: int, c_base: int, tol: ToleranceConfig = DEFAULT_TOL
) -> PlaneADHM:
    """Fibrewise chart transition from chart m to chart l.

    With (c, s) the angle pair of m - l and F = c*1 - s*b1:

        b1 -> F^-1 (s*1 + c*b1),   b2 -> F^n b2,   e -> e.

    The atlas base size c_base enters only through the angle denominator;
    it is global atlas data, independent of the matrix size.
    """
    who = "transition_plane"
    as_int(n, who, "n", 1, _MAX_TWIST)
    ap = angle_pair(c_base, as_int(m, who, "m") - as_int(l, who, "l"))
    ident = np.eye(d.c)
    f = ap.cos_val * ident - ap.sin_val * d.b1
    if _inverse_at_tol(f, tol) is None:
        raise DomainError(
            f"transition_plane: overlap condition fails between charts {m} and {l}: "
            f"det(c*1 - s*b1) = {np.linalg.det(f):.6e}"
        )
    new_b1 = np.linalg.solve(f, ap.sin_val * ident + ap.cos_val * d.b1)
    new_b2 = np.linalg.matrix_power(f, n) @ d.b2
    return PlaneADHM(c=d.c, b1=new_b1, b2=new_b2, e=d.e)


def _monomial_covectors(d: PlaneADHM, max_degree: int):
    """Yield covectors e * b1^i * b2^j in graded order, b1-degree first.

    The powers b1^k and b2^k are built when the scan reaches degree k.
    """
    pow1 = [np.eye(d.c)]
    pow2 = [np.eye(d.c)]
    for degree in range(max_degree + 1):
        if degree:
            pow1.append(pow1[-1] @ d.b1)
            pow2.append(pow2[-1] @ d.b2)
        for i in range(degree, -1, -1):
            yield (d.e @ pow1[i]) @ pow2[degree - i]


def _monomial_gauge(d: PlaneADHM, tol: ToleranceConfig) -> np.ndarray:
    """Gauge whose rows are the first c independent covectors e * b1^i * b2^j.

    Scans in graded order, b1-degree taking lexicographic precedence.  The
    gauge sends the kept covectors to the standard dual basis, so it maps e
    to (1, 0, ..., 0).  The caller has validated the triple.
    """
    selected = []
    ortho = []
    for w in _monomial_covectors(d, max_degree=2 * d.c):
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            continue
        r = w.copy()
        for u in ortho:
            r = r - np.vdot(u, r) * u
        if np.linalg.norm(r) > tol.rank_rel_tol * norm_w:
            selected.append(w)
            ortho.append(r / np.linalg.norm(r))
            if len(selected) == d.c:
                break
    if len(selected) < d.c:
        raise InvalidPointError("canonical_form: covectors do not span (not co-stable)")
    return np.vstack(selected)


def canonical_form(d: PlaneADHM, tol: ToleranceConfig = DEFAULT_TOL):
    """Canonical orbit representative and the monomial gauge that reaches it.

    Returns (canonical PlaneADHM, gauge matrix).
    """
    validate_plane(d, tol).require("canonical_form", "input is not a valid plane triple")
    gauge = _monomial_gauge(d, tol)
    return act_gl(d, gauge, tol), freeze(gauge)


def orbit_equal_plane(d1: PlaneADHM, d2: PlaneADHM, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether two valid triples lie on the same gauge orbit."""
    if d1.c != d2.c:
        return False
    return mats_close(canonical_form(d1, tol)[0], canonical_form(d2, tol)[0], tol)
