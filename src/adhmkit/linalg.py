"""Tolerance-aware dense complex linear algebra shared by every module.

Matrices are plain numpy ``complex128`` arrays.  This module fixes the
numerical conventions everything else relies on: SVD-based rank and kernel
decisions with a relative threshold, eigenvalue multisets compared by greedy
nearest-pair matching, and root extraction for homogeneous binary forms via
the companion matrix of a dehomogenization chosen for stability.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidPointError, ShapeError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "freeze",
    "as_matrix",
    "as_covector",
    "rank_tol",
    "kernel_basis",
    "eigenvalues",
    "greedy_match",
    "mats_close",
    "rel_err",
    "BinaryForm",
    "binary_form",
    "binary_form_roots",
    "ProjPoint",
    "proj_point",
    "proj_distance",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative thresholds used by every tolerance-aware decision.

    rank_rel_tol   -- singular values below this fraction of the largest one
                      are treated as zero (rank, kernels, invertibility).
    eq_rel_tol     -- relative threshold for residual/equality tests.
    root_cluster_tol -- projective roots closer than this are merged into a
                      single root with multiplicity.
    """

    rank_rel_tol: float = 1e-9
    eq_rel_tol: float = 1e-8
    root_cluster_tol: float = 1e-6

    def __post_init__(self):
        for name in ("rank_rel_tol", "eq_rel_tol", "root_cluster_tol"):
            value = getattr(self, name)
            if not (isinstance(value, float) and 0.0 < value < 1.0):
                raise ValueError(f"{name} must be a float in (0, 1), got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def freeze(a) -> np.ndarray:
    """Return a read-only complex128 copy of ``a``."""
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@functools.cache
def _field_names(cls):
    """The init fields of a dataclass and the array fields among them, read once per class."""
    init = [f for f in fields(cls) if f.init]
    return tuple(f.name for f in init), tuple(f.name for f in init if f.type not in ("int", int))


class _ArrayValue:
    """Base of the frozen dataclasses that hold arrays (declared with eq=False).

    Every init field not annotated int holds a matrix, a covector or a tuple
    of matrices, stored as read-only complex128 copies however the value is
    built: through its factory (which checks outside input), its constructor
    (which library code calls on values it built from checked ones),
    dataclasses.replace or unpickling, which goes through the constructor.
    == is exact equality field by field; values stay unhashable.  Each value
    starts with an empty _memo for _memoized; it is not a field, so it is
    never compared, shown or pickled.
    """

    def __post_init__(self):
        for name in _field_names(self.__class__)[1]:
            v = getattr(self, name)
            object.__setattr__(self, name, tuple(map(freeze, v)) if isinstance(v, tuple)
                               else freeze(v))
        object.__setattr__(self, "_memo", {})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, k), getattr(other, k)) for k in _field_names(self.__class__)[0])
        return all(
            len(a) == len(b) and all(map(np.array_equal, a, b)) if isinstance(a, tuple)
            else np.array_equal(a, b)
            for a, b in pairs
        )

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, k) for k in _field_names(self.__class__)[0])


def _memoized(fn):
    """Memoize fn(d, ...) in d._memo, one entry per argument tuple.

    The key holds every argument after d with its default applied and its
    exact type, so f(d, m), f(d, m, DEFAULT_TOL) and f(d, m, tol=DEFAULT_TOL)
    share one entry, while f(d, 1.0) never returns f(d, 1)'s value; the
    defaults are read once, so only calls with keywords bind fn's signature.
    Only returned values are stored, so a call that raised raises again.
    Unhashable arguments and unbindable calls go straight to fn.
    """
    sig = inspect.signature(fn)
    params = tuple(sig.parameters.values())[1:]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    defaults = tuple(p.default for p in params)
    required = sum(p.default is p.empty for p in params)

    @functools.wraps(fn)
    def memoized(d, *args, **kwargs):
        if kwargs or not required <= len(args) <= len(params):
            try:
                bound = sig.bind(d, *args, **kwargs)
            except TypeError:
                return fn(d, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        else:
            args += defaults[len(args):]
        key = (memoized, *((type(v), v) for v in args))
        try:
            return d._memo[key]
        except KeyError:
            pass
        except TypeError:  # unhashable argument
            return fn(d, *args)
        value = d._memo[key] = fn(d, *args)
        return value

    return memoized


def as_matrix(a, name="matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ShapeError(f"{name}: expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError(f"{name}: entries must be finite")
    return m


def as_covector(a, name="covector") -> np.ndarray:
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim == 2 and v.shape[0] == 1:
        v = v[0]
    if v.ndim != 1 or v.shape[0] < 1:
        raise ShapeError(f"{name}: expected a 1-d row, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ShapeError(f"{name}: entries must be finite")
    return v


def rank_tol(m, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above rank_rel_tol * largest."""
    m = as_matrix(m, "rank_tol")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))


def _inverse_at_tol(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """m^-1 when rank_tol(m, tol) counts the square matrix m full rank, else None.

    The one invertibility gate.  |m|_F |m^-1|_F bounds cond_2(m) from above,
    so a computed product of at most min(1e-3 / rank_rel_tol, 1e8) certifies
    full rank without an SVD; the margin and the cap absorb the rounding in
    the inverse and in the singular values.  Otherwise rank_tol decides, and
    a LinAlgError from inv on a matrix it counts full rank propagates.
    """
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inv = None
    if inv is not None and (np.vdot(m, m).real * np.vdot(inv, inv).real  # squared norms
                            <= min(1e-3 / tol.rank_rel_tol, 1e8) ** 2):
        return inv
    if rank_tol(m, tol) < m.shape[0]:
        return None
    return np.linalg.inv(m) if inv is None else inv


def kernel_basis(m, tol: ToleranceConfig = DEFAULT_TOL, scale=None) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as columns.

    Returns an array of shape (cols, k); k == 0 when the matrix has full
    column rank.  By default singular values are compared against the
    largest one of ``m`` itself; pass ``scale`` when ``m`` is a residual
    that may consist entirely of roundoff noise, so that the cutoff is
    rank_rel_tol * scale instead of relative to the noise floor.
    """
    m = as_matrix(m, "kernel_basis")
    _, s, vh = np.linalg.svd(m)
    if scale is not None:
        cut = tol.rank_rel_tol * scale
    elif s.size == 0 or s[0] == 0.0:
        cut = np.inf
    else:
        cut = tol.rank_rel_tol * s[0]
    r = int(np.count_nonzero(s > cut))
    return vh[r:].conj().T


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues with algebraic multiplicity, sorted by (real, imag)."""
    m = as_matrix(m, "eigenvalues")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"eigenvalues: matrix must be square, got {m.shape}")
    return np.sort_complex(np.linalg.eigvals(m))


def _as_points(xs) -> np.ndarray:
    pts = np.asarray(list(xs), dtype=np.complex128)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts.reshape(pts.shape[0], -1) if pts.size else pts.reshape(0, 1)


def greedy_match(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Compare two multisets of points in C^d by greedy nearest-pair matching.

    True when both have the same size and each greedily matched pair lies
    within eq_rel_tol times the working scale (largest coordinate magnitude,
    floored at 1).
    """
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[0] != pb.shape[0]:
        return False
    k = pa.shape[0]
    if k == 0:
        return True
    scale = max(float(np.abs(pa).max()), float(np.abs(pb).max()), 1.0)
    dist = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    used_a = np.zeros(k, dtype=bool)
    used_b = np.zeros(k, dtype=bool)
    for _ in range(k):
        masked = np.where(used_a[:, None] | used_b[None, :], np.inf, dist)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        if masked[i, j] > tol.eq_rel_tol * scale:
            return False
        used_a[i] = used_b[j] = True
    return True


def rel_err(x, y) -> float:
    """Frobenius distance between x and y over the larger norm (floor 1)."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    scale = max(np.linalg.norm(x), np.linalg.norm(y), 1.0)
    return float(np.linalg.norm(x - y) / scale)


def mats_close(x, y, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.shape != y.shape:
        return False
    return rel_err(x, y) <= tol.eq_rel_tol


@dataclass(frozen=True, eq=False)
class BinaryForm(_ArrayValue):
    """Homogeneous form sum_p coeffs[p] * nu1^(degree-p) * nu2^p."""

    degree: int
    coeffs: np.ndarray

    def __call__(self, nu1, nu2):
        p = np.arange(self.degree + 1)
        return complex(np.sum(self.coeffs * nu1 ** (self.degree - p) * nu2**p))


def binary_form(coeffs) -> BinaryForm:
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size < 1:
        raise ShapeError("binary_form: need at least one coefficient")
    if not np.isfinite(c).all():
        raise ShapeError("binary_form: coefficients must be finite")
    return BinaryForm(degree=int(c.size - 1), coeffs=c)


@dataclass(frozen=True)
class ProjPoint:
    """Point [lam1 : lam2] of the projective line, stored normalized.

    The coordinate of larger modulus is scaled to 1; on ties lam2 wins, so
    affine points come out as (z, 1).
    """

    lam1: complex
    lam2: complex


def proj_point(lam1, lam2) -> ProjPoint:
    z1, z2 = complex(lam1), complex(lam2)
    if z1 == 0 and z2 == 0:
        raise InvalidPointError("proj_point: (0, 0) is not a projective point")
    if abs(z2) >= abs(z1):
        return ProjPoint(z1 / z2, 1.0 + 0.0j)
    return ProjPoint(1.0 + 0.0j, z2 / z1)


def proj_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Chordal distance |p x q| / (|p| |q|); zero iff equal points."""
    cross = p.lam1 * q.lam2 - p.lam2 * q.lam1
    np_ = math.hypot(abs(p.lam1), abs(p.lam2))
    nq = math.hypot(abs(q.lam1), abs(q.lam2))
    return abs(cross) / (np_ * nq)


def _cluster_roots(points, radius):
    """Greedy clustering of projective points; returns (rep, mult) pairs.

    ``points`` holds one homogeneous pair [lam1, lam2] per row.  Each point,
    scaled to a unit vector, joins the first cluster whose representative
    lies within chordal distance ``radius`` (|r0 u1 - r1 u0| on unit
    vectors), phase-aligned with that representative before it is added to
    the cluster's running sum; the representative is the normalized sum.
    """
    units = np.asarray(points, dtype=np.complex128).reshape(-1, 2)
    units = units / np.linalg.norm(units, axis=1)[:, None]
    sums = np.empty_like(units)
    reps = np.empty_like(units)
    counts = []
    for u in units:
        k = len(counts)
        near = np.flatnonzero(np.abs(reps[:k, 0] * u[1] - reps[:k, 1] * u[0]) < radius)
        if near.size == 0:
            sums[k] = reps[k] = u
            counts.append(1)
            continue
        j = near[0]
        ph = np.vdot(reps[j], u)
        if ph != 0:
            u = u * (ph.conjugate() / abs(ph))
        sums[j] += u
        reps[j] = sums[j] / np.linalg.norm(sums[j])
        counts[j] += 1
    out = [(proj_point(*rep), count) for rep, count in zip(reps, counts)]
    out.sort(key=lambda t: (t[0].lam1.real, t[0].lam1.imag, t[0].lam2.real, t[0].lam2.imag))
    return tuple(out)


def binary_form_roots(f: BinaryForm, tol: ToleranceConfig = DEFAULT_TOL):
    """Projective roots of a binary form, clustered with multiplicity.

    Returns a tuple of (ProjPoint, multiplicity) pairs whose multiplicities
    sum to the degree.  The form is dehomogenized at the end with the larger
    extreme coefficient; numerically vanishing leading coefficients of the
    resulting polynomial contribute roots at the opposite pole.
    """
    coeffs = np.asarray(f.coeffs, dtype=np.complex128)
    maxabs = float(np.abs(coeffs).max())
    if maxabs == 0.0:
        raise InvalidPointError("binary_form_roots: form is identically zero")
    deg = f.degree
    if deg == 0:
        return ()
    # polynomial in y = nu1/nu2, highest power first, with lost roots at [1 : 0];
    # the other end swaps the roles of nu1 and nu2
    flip = abs(coeffs[0]) < abs(coeffs[-1])
    poly = coeffs[::-1] if flip else coeffs
    k = 0
    while k < deg and abs(poly[k]) <= tol.rank_rel_tol * maxabs:
        k += 1
    points = np.zeros((deg, 2), dtype=np.complex128)
    points[:k, 0] = 1.0
    points[k:, 0] = np.roots(poly[k:])
    points[k:, 1] = 1.0
    return _cluster_roots(points[:, ::-1] if flip else points, tol.root_cluster_tol)


def random_well_conditioned(rng, c) -> np.ndarray:
    """Random invertible c x c matrix with condition number at most 16.

    Built as U diag(s) V* with Haar-ish unitary factors and log-uniform
    singular values, so the conditioning bound holds by construction rather
    than by rejection.  Useful wherever roundoff amplification must stay
    bounded (gauge draws in randomized identity checks).
    """
    # the real and imaginary parts of U's seed matrix, then of V's: one draw
    # and one stacked QR give the same bits as four draws and two QR calls
    z = rng.normal(size=(2, 2, c, c))
    u, v = np.linalg.qr(z[:, 0] + 1j * z[:, 1])[0]
    half = np.sqrt(16.0)  # singular values in [1/4, 4]: the condition bound
    s = np.exp(rng.uniform(np.log(1.0 / half), np.log(half), size=c))
    return (u * s) @ v.conj().T
