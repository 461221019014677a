"""ADHM data for length-c subschemes of the total space of O(-n) over P1.

A point is a tuple (A1, A2; C_1, ..., C_n; e) of complex c x c matrices
plus a row covector e, subject to three conditions:

  intertwining  A1 C_q = A2 C_{q+1} and C_q A1 = C_{q+1} A2 for q < n
                (for n = 1 the single relation A1 C1 A2 = A2 C1 A1)
  nondegeneracy the pencil det(nu1 A1 + nu2 A2) is not identically zero
  co-stability  no nonzero v killed by e, by lam2 A1 + lam1 A2, and by
                C1 A2 + mu1 and C_n A1 + (-1)^(n-1) mu2, for any
                ([lam1 : lam2], (mu1, mu2)) with lam1^n mu1 + lam2^n mu2 = 0;
                given intertwining, a v spanning a one-dimensional pencil
                kernel meets the last two by itself (validate_p3_direct)

The atlas has c + 1 charts indexed by m with angles pi*m/(c+1).  Chart m is
available when A2m = sin_m A1 + cos_m A2 is invertible, and the chart map
sends the tuple to plane-type coordinates

    B = A2m^-1 A1m,  E = D A2m,  e,      (with A1m = cos_m A1 - sin_m A2)

where D is the binomial contraction of the C_q at angle m.  Since the
degree-c pencil determinant cannot vanish at all c+1 distinct chart angles
unless it is identically zero, every nondegenerate point owns a chart.

Every derived value of a point (its P2 report, full validation report,
chart coordinates, canonical form, and geometry.base_support) is a pure
function of the point and its arguments.  A point holds read-only copies of
its arrays however it is built, so those values are memoized on the point
by linalg._memoized, computed once per argument tuple and tolerance; P1 is
read back through validate_hirz's report.  A copy made by
dataclasses.replace or by unpickling starts with an empty memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import plane as plane_mod
from .errors import DomainError, InvalidPointError, ShapeError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_covector,
    as_int,
    as_matrix,
    _ArrayValue,
    _inverse_at_tol,
    _memoized,
    _operator_scale,
    _rank_cut,
    _residual,
    binary_form_roots,
    kernel_basis,
    mats_close,
)
from .plane import _MAX_TWIST, PlaneADHM
from .report import FAIL, INDETERMINATE, PASS, Check, ValidationReport, _residual_check, merge
from .sigma import angle_pair, sigma_matrix

__all__ = [
    "HirzADHM",
    "ChartCoords",
    "hirz_adhm",
    "chart_coords",
    "plane_part",
    "validate_p1",
    "validate_p2",
    "validate_p3",
    "validate_p3_direct",
    "validate_hirz",
    "chart_set",
    "act_gl2",
    "to_chart",
    "from_chart",
    "reconstruct_C",
    "syst_rank",
    "transition_omega",
    "canonicalize",
    "orbit_equal",
    "jacobian_nullity",
]


@dataclass(frozen=True, eq=False)
class HirzADHM(_ArrayValue):
    n: int
    c: int
    A1: np.ndarray
    A2: np.ndarray
    C: tuple
    e: np.ndarray


@dataclass(frozen=True, eq=False)
class ChartCoords(_ArrayValue):
    m: int
    n: int
    c: int
    B: np.ndarray
    E: np.ndarray
    e: np.ndarray
    A2m: np.ndarray


def hirz_adhm(n, c, A1, A2, C, e) -> HirzADHM:
    """Build a HirzADHM value after shape/finiteness checks (no validation)."""
    n = as_int(n, "hirz_adhm", "n", 1, _MAX_TWIST)
    c = as_int(c, "hirz_adhm", "c", 1)
    A1 = as_matrix(A1, "A1", (c, c))
    A2 = as_matrix(A2, "A2", (c, c))
    e = as_covector(e, "e", c)
    try:
        C = tuple(C)
    except TypeError:
        raise ShapeError(f"C: expected a sequence of {n} matrices, got {type(C).__name__}") from None
    cs = tuple(as_matrix(cq, f"C[{q}]", (c, c)) for q, cq in enumerate(C))
    if len(cs) != n:
        raise ShapeError(f"hirz_adhm: expected {n} C-matrices, got {len(cs)}")
    return HirzADHM(n=n, c=c, A1=A1, A2=A2, C=cs, e=e)


def chart_coords(m, n, c, B, E, e, A2m) -> ChartCoords:
    c = as_int(c, "chart_coords", "c", 1)
    m = as_int(m, "chart_coords", "m", 0, c)
    n = as_int(n, "chart_coords", "n", 1, _MAX_TWIST)
    B = as_matrix(B, "B", (c, c))
    E = as_matrix(E, "E", (c, c))
    A2m = as_matrix(A2m, "A2m", (c, c))
    e = as_covector(e, "e", c)
    return ChartCoords(m=m, n=n, c=c, B=B, E=E, e=e, A2m=A2m)


def plane_part(cc: ChartCoords) -> PlaneADHM:
    """The plane-type triple (B, E, e) carried by chart coordinates."""
    return PlaneADHM(c=cc.c, b1=cc.B, b2=cc.E, e=cc.e)


def _pencil_at(d: HirzADHM, m: int):
    ap = angle_pair(d.c, m)
    a1m = ap.cos_val * d.A1 - ap.sin_val * d.A2
    a2m = ap.sin_val * d.A1 + ap.cos_val * d.A2
    return a1m, a2m


def validate_p1(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Intertwining relations, one check per matrix equation.

    Residuals are scaled by the norms of the factors entering each product.
    """
    na1, na2 = np.linalg.norm(d.A1), np.linalg.norm(d.A2)
    nc = [np.linalg.norm(cq) for cq in d.C]
    relations = [("intertwine", d.A1 @ d.C[0] @ d.A2 - d.A2 @ d.C[0] @ d.A1,
                  2 * na1 * nc[0] * na2, "A1 C1 A2 = A2 C1 A1")] if d.n == 1 else []
    for q in range(d.n - 1):
        scale = na1 * nc[q] + na2 * nc[q + 1]
        relations += [(f"intertwine_left_{q + 1}", d.A1 @ d.C[q] - d.A2 @ d.C[q + 1], scale,
                       f"A1 C{q + 1} = A2 C{q + 2}"),
                      (f"intertwine_right_{q + 1}", d.C[q] @ d.A1 - d.C[q + 1] @ d.A2, scale,
                       f"C{q + 1} A1 = C{q + 2} A2")]
    return ValidationReport(checks=tuple(_residual_check(name, diff, scale, tol.eq_rel_tol, rel)
                                         for name, diff, scale, rel in relations))


@_memoized
def validate_p2(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Pencil nondegeneracy, decided exactly through the chart determinants.

    A degree-c binary form vanishing at the c+1 distinct chart angles is
    identically zero, so the pencil is nondegenerate iff some A2m is
    invertible.  The c+1 chart frames A2m are built as one (c+1, c, c) stack
    and judged by one stacked determinant and one stacked singular-value
    call: chart m is available when linalg._rank_cut counts it rank c.  An
    empty chart set fails only when every frame has an exact zero pivot
    (slogdet's sign 0); otherwise the determinants sit below the noise floor,
    or underflow to 0.0, without being certainly zero, and it is indeterminate.
    """
    aps = [angle_pair(d.c, m) for m in range(d.c + 1)]
    sin = np.array([ap.sin_val for ap in aps])[:, None, None]
    cos = np.array([ap.cos_val for ap in aps])[:, None, None]
    frames = sin * d.A1 + cos * d.A2
    dets = [complex(z) for z in np.linalg.det(frames)]
    s = np.linalg.svd(frames, compute_uv=False)
    charts = [m for m, sm in enumerate(s) if _rank_cut(sm, tol) == d.c]
    detail = "chart determinants: " + ", ".join(f"{z:.3e}" for z in dets)
    if charts:
        verdict = PASS
    elif not np.linalg.slogdet(frames)[0].any():
        # a degree-c form vanishing exactly at c+1 distinct angles is zero
        verdict = FAIL
    else:
        verdict = INDETERMINATE
        detail += " (all below noise floor but form not certainly zero)"
    check = Check(name="pencil_nondegenerate", verdict=verdict, detail=detail)
    return ValidationReport(checks=(check,), chart_set=tuple(charts))


def chart_set(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> tuple:
    return validate_p2(d, tol).chart_set


def _costability_at(d: HirzADHM, m: int, tol: ToleranceConfig) -> Check:
    """Chart-route co-stability: the plane verdict of the triple (B, E, e) at chart m."""
    t2 = plane_mod.validate_plane(plane_part(to_chart(d, m, tol)), tol).check("costability")
    return replace(t2, detail=f"chart {m}: {t2.detail}")


def _preconditions(full: ValidationReport) -> ValidationReport:
    """The P1 and P2 part of a validate_hirz report: every check but co-stability."""
    return ValidationReport(checks=full.checks[:-1], chart_set=full.chart_set)


def _p3_ready(d: HirzADHM, tol: ToleranceConfig, who: str) -> ValidationReport:
    """validate_hirz's memoized report, once its P1 and P2 part passes."""
    full = validate_hirz(d, tol)
    p1 = ValidationReport(checks=full.checks[:-2])
    _preconditions(full).require(who, "intertwining relations fail" if p1.verdict == FAIL
                                 else "empty chart set (pencil degenerate)")
    return full


def validate_p3(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Co-stability via the smallest available chart.

    Requires the intertwining and nondegeneracy conditions; returns the
    co-stability verdict of the chart triple (B, E, e) there, read off
    validate_hirz's memoized report.
    """
    full = _p3_ready(d, tol, "validate_p3")
    return ValidationReport(checks=(full.check("costability"),), chart_set=full.chart_set)


def validate_p3_direct(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Root-by-root co-stability check, independent of the chart route.

    At each root [lam1 : lam2] of det(lam2 A1 + lam1 A2) whose kernel K is
    spanned by one v, the point fails iff |e v| / ||e|| <= eq_rel_tol.  The
    ratio does not depend on the scale of e, so it is taken on e scaled exactly
    by a power of two to a largest part in [1/2, 1), where ||e|| cannot over-
    or underflow; a nan ratio (linalg._residual) or a kernel of other
    dimension is indeterminate.
    The P1 and chart-set guard reads validate_hirz's memoized report; the
    verdict reads only A1, A2 and e, never the chart-route check.

    P1 implies the other two conditions on v.  It gives A1 C1 A2 = A2 C1 A1
    and A2 C_n A1 = A1 C_n A2 (for n >= 2 from both families at q = 1 and
    q = n-1), so K is invariant under C1 A2 and C_n A1, and v is a joint
    eigenvector, C1 A2 v = a v and C_n A1 v = b v.  For lam2 != 0, A1 v =
    t A2 v with t = -lam1/lam2, so b = t^n a by the right family (for n = 1
    directly): the weight relation lam1^n a = (-1)^n lam2^n b (at lam2 = 0, a = 0).
    """
    _p3_ready(d, tol, "validate_p3_direct")
    from .geometry import _regular_pencil_form  # deferred: geometry imports this module

    roots = binary_form_roots(_regular_pencil_form(d), tol)  # det(lam1 A2 + lam2 A1)
    checks = []
    parts = d.e.view(float)
    e = np.ldexp(parts, -math.frexp(float(np.abs(parts).max()))[1]).view(complex)
    norm_e = float(np.linalg.norm(e))
    op_scale = _operator_scale(d.A1, d.A2)
    for idx, (pt, mult) in enumerate(roots):
        kern = kernel_basis(pt.lam2 * d.A1 + pt.lam1 * d.A2, tol, scale=op_scale)
        where = f"[{pt.lam1:.4g} : {pt.lam2:.4g}] (multiplicity {mult})"
        if kern.shape[1] != 1:
            verdict, ratio = INDETERMINATE, None
            detail = f"kernel dimension {kern.shape[1]} at {where}; use chart method"
        elif math.isnan(ratio := _residual(e @ kern[:, 0], norm_e)):
            verdict, ratio, detail = INDETERMINATE, None, f"|e v| / |e| is not finite at {where}"
        else:
            verdict = FAIL if ratio <= tol.eq_rel_tol else PASS
            detail = f"{'destabilizing vector' if verdict == FAIL else 'e v != 0'} at {where}"
        checks.append(Check(name=f"root_{idx}", verdict=verdict, residual=ratio, detail=detail))
    roots_report = ValidationReport(checks=tuple(checks))
    summary = Check(name="costability_direct", verdict=roots_report.verdict,
                    detail=f"{len(roots)} distinct pencil roots examined")
    return ValidationReport(checks=(summary,) + roots_report.checks)


@_memoized
def validate_hirz(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """All three conditions, each decided once per point and tolerance.

    P1 and P2 run once; when both pass, co-stability is one chart-route step
    at the smallest chart of P2's chart set.  Otherwise co-stability is
    refused.

    The report is memoized on the point, one per tolerance, and
    later calls (base_support, chart_support, canonicalize, p1_to_tot)
    return it without recomputing.
    """
    p1 = validate_p1(d, tol)
    p2 = validate_p2(d, tol)
    if p1.passed and p2.passed:
        p3 = _costability_at(d, p2.chart_set[0], tol)
    else:
        p3 = Check(
            name="costability",
            verdict=INDETERMINATE,
            detail="refused: intertwining or nondegeneracy already fails",
        )
    return merge(p1, p2, ValidationReport(checks=(p3,)))


def act_gl2(d: HirzADHM, phi1, phi2, tol: ToleranceConfig = DEFAULT_TOL) -> HirzADHM:
    """Gauge action C -> phi1 C phi2^-1, A -> phi2 A phi1^-1, e -> e phi1^-1.

    When phi2 is phi1 (one object, as canonicalize passes it), its
    invertibility gate runs once.
    """
    same = phi2 is phi1
    phi1 = as_matrix(phi1, "phi1", (d.c, d.c))
    phi2 = phi1 if same else as_matrix(phi2, "phi2", (d.c, d.c))
    inv1 = _inverse_at_tol(phi1, tol)
    inv2 = inv1 if same or inv1 is None else _inverse_at_tol(phi2, tol)
    if inv2 is None:
        raise InvalidPointError("act_gl2: gauge matrix is singular at tolerance")
    return HirzADHM(
        n=d.n, c=d.c,
        A1=phi2 @ d.A1 @ inv1,
        A2=phi2 @ d.A2 @ inv1,
        C=tuple(phi1 @ cq @ inv2 for cq in d.C),
        e=d.e @ inv1,
    )


@_memoized
def to_chart(d: HirzADHM, m: int, tol: ToleranceConfig = DEFAULT_TOL) -> ChartCoords:
    """Chart-m coordinates (B, E, e; A2m) of a point.

    Requires m in the chart set.  D is the binomial contraction of the C_q
    at the chart angle and E = D A2m.
    """
    as_int(m, "to_chart", "chart index m", 0, d.c)
    ap = angle_pair(d.c, m)
    a1m, a2m = _pencil_at(d, m)
    if _inverse_at_tol(a2m, tol) is None:
        raise DomainError(
            f"to_chart: chart {m} unavailable: det(A2m) = {np.linalg.det(a2m):.6e}"
        )
    b = np.linalg.solve(a2m, a1m)
    dmat = sum(
        math.comb(d.n - 1, q - 1) * ap.cos_val ** (d.n - q) * ap.sin_val ** (q - 1) * d.C[q - 1]
        for q in range(1, d.n + 1)
    )
    return ChartCoords(m=m, n=d.n, c=d.c, B=b, E=dmat @ a2m, e=d.e, A2m=a2m)


def reconstruct_C(B, D, m: int, n: int, c_base: int):
    """Solve the left intertwining system for the C-stack at chart m.

    C_{p+1} = sum_q sigma^{n-1}_{m; p q} B^q D.  For any D this satisfies
    A1 C_q = A2 C_{q+1}; the right family holds iff [B, D A2m] = 0.
    """
    B = as_matrix(B, "B", "square")
    D = as_matrix(D, "D", B.shape)
    as_int(n, "reconstruct_C", "n", 1, _MAX_TWIST)
    sig = sigma_matrix(n - 1, m, c_base).entries
    powers = [np.eye(B.shape[0], dtype=np.complex128)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ B)
    return tuple(
        sum(sig[p, q] * powers[q] for q in range(n)) @ D for p in range(n)
    )


def from_chart(m: int, d: PlaneADHM, A, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> HirzADHM:
    """Inverse chart map: assemble a point from plane data and a frame A.

    A1 = A (cos_m b1 + sin_m), A2 = A (-sin_m b1 + cos_m), and the C-stack
    comes from reconstruct_C with D = b2 A^-1; then to_chart at m returns
    (b1, b2, e; A).
    """
    as_int(m, "from_chart", "m", 0, d.c)
    plane_mod.validate_plane(d, tol).require("from_chart", "plane data is not valid")
    A = as_matrix(A, "A", (d.c, d.c))
    if (A_inv := _inverse_at_tol(A, tol)) is None:
        raise InvalidPointError("from_chart: frame matrix is singular at tolerance")
    return _assemble_from_chart(m, d.b1, d.b2, d.e, A, A_inv, n, d.c)


def _assemble_from_chart(m, b1, b2, e, A, A_inv, n, c_base) -> HirzADHM:
    """Chart assembly formulas from the frame A and A^-1, without validity checks."""
    ap = angle_pair(c_base, m)
    c = b1.shape[0]
    ident = np.eye(c)
    a1 = A @ (ap.cos_val * b1 + ap.sin_val * ident)
    a2 = A @ (-ap.sin_val * b1 + ap.cos_val * ident)
    dmat = b2 @ A_inv
    cs = reconstruct_C(b1, dmat, m, n, c_base)
    return HirzADHM(n=n, c=c, A1=a1, A2=a2, C=cs, e=e)


def syst_rank(A1, A2, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Rank of the left intertwining system as a block matrix on the C-stack.

    The (n-1)c^2 x n c^2 system has block row q equal to
    (0 ... 0, A1 (x) 1, -A2 (x) 1, 0 ... 0) acting on row-major vectorized
    C-matrices, so it is M_A (x) 1 with M_A the (n-1)c x nc matrix of block
    rows (0 ... 0, A1, -A2, 0 ... 0), and its rank is c rank(M_A), refused by
    linalg._rank_cut without a gap.  At nondegenerate pencils it is (n-1) c^2.
    """
    A1 = as_matrix(A1, "A1", "square")
    A2 = as_matrix(A2, "A2", A1.shape)
    as_int(n, "syst_rank", "n", 2, _MAX_TWIST)
    m_a = np.kron(np.eye(n - 1, n), A1) - np.kron(np.eye(n - 1, n, 1), A2)
    return A1.shape[0] * _rank_cut(np.linalg.svd(m_a, compute_uv=False), tol, who="syst_rank")


def transition_omega(cc: ChartCoords, l: int, tol: ToleranceConfig = DEFAULT_TOL) -> ChartCoords:
    """Full chart transition: fibrewise map on (B, E, e) plus A2m transport.

    A2l = A2m (cos_{m-l} 1 - sin_{m-l} B); requires the overlap condition
    det(cos_{m-l} 1 - sin_{m-l} B) != 0.
    """
    as_int(l, "transition_omega", "chart index l", 0, cc.c)
    moved = plane_mod.transition_plane(plane_part(cc), cc.m, l, cc.n, cc.c, tol)
    ap = angle_pair(cc.c, cc.m - l)
    f = ap.cos_val * np.eye(cc.c) - ap.sin_val * cc.B
    return ChartCoords(m=l, n=cc.n, c=cc.c, B=moved.b1, E=moved.b2, e=moved.e, A2m=cc.A2m @ f)


@_memoized
def canonicalize(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL):
    """Deterministic orbit representative: (canonical point, chart index).

    Picks the smallest chart m, gauges A2m to the identity, then applies the
    diagonal plane gauge that canonicalizes (B, E, e).  The output has
    A2m = 1 and e = (1, 0, ..., 0).  The validity verdict is validate_hirz's
    report, reused when the point was validated before at this tolerance.
    """
    m = validate_hirz(d, tol).require("canonicalize").chart_set[0]
    _, a2m = _pencil_at(d, m)
    d1 = act_gl2(d, np.eye(d.c), np.linalg.inv(a2m), tol)
    gauge = plane_mod._monomial_gauge(plane_part(to_chart(d1, m, tol)), tol)
    return act_gl2(d1, gauge, gauge, tol), m


def orbit_equal(d1: HirzADHM, d2: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether two valid points lie on the same gauge-pair orbit."""
    if d1.n != d2.n or d1.c != d2.c:
        return False
    can1, m1 = canonicalize(d1, tol)
    can2, m2 = canonicalize(d2, tol)
    return m1 == m2 and mats_close(can1, can2, tol)


def jacobian_nullity(d: HirzADHM, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Nullity of the intertwining-residual Jacobian at a valid point.

    The ambient space stacks (A1, A2, C_1..C_n, e), complex dimension
    (n+2)c^2 + c.  On the open set of chart m the intertwining locus is
    {[B, E] = 0} x GL(c) x C^c: the factors are the frame A2m and the
    covector e, and the C-stack is reconstruct_C(B, E A2m^-1).  The nullity
    is therefore 3c^2 + c - r, r being the rank of the c^2 x 2c^2 map
    (dB, dE) -> [dB, E] + [B, dE], built from vec(a X b) = (a (x) b^T) vec(X);
    it copies entries of B and E exactly, so it vanishes exactly at c = 1.
    r is linalg._rank_cut's: singular values above rank_rel_tol * s_max count,
    and a cut without a singular-value gap of at least 1e3 is indeterminate.
    """
    m = validate_hirz(d, tol).require("jacobian_nullity").chart_set[0]
    cc = to_chart(d, m, tol)
    eye = np.eye(d.c)
    jac = np.hstack([np.kron(eye, cc.E.T) - np.kron(cc.E, eye),
                     np.kron(cc.B, eye) - np.kron(eye, cc.B.T)])
    s = np.linalg.svd(jac, compute_uv=False)
    return 3 * d.c * d.c + d.c - _rank_cut(s, tol, who="jacobian_nullity")

