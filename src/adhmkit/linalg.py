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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, IndeterminateError, InvalidPointError, ShapeError

# what adhmkit re-exports; as_matrix, rank_tol, kernel_basis and the other
# helpers the modules share are imported from here by name
__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "BinaryForm",
    "binary_form",
    "binary_form_roots",
    "ProjPoint",
    "proj_point",
    "proj_distance",
]


@functools.cache
def _field_names(cls):
    """The init fields of a dataclass and the array fields among them, read once per class."""
    init = [f for f in fields(cls) if f.init]
    return tuple(f.name for f in init), tuple(f.name for f in init if f.type not in ("int", int))


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative thresholds used by every tolerance-aware decision.

    rank_rel_tol   -- singular values below this fraction of the largest one
                      are treated as zero (rank, kernels, invertibility).
    eq_rel_tol     -- relative threshold for residual/equality tests.
    root_cluster_tol -- projective roots closer than this are merged into a
                      single root with multiplicity.
    Field metadata: the CLI's key (ADHMKIT_TOL, --tol.<key>) and help text.
    """

    rank_rel_tol: float = field(default=1e-9, metadata={
        "key": "rank", "help": "relative singular value cutoff for rank decisions"})
    eq_rel_tol: float = field(default=1e-8, metadata={
        "key": "eq", "help": "relative tolerance for equality of matrices and multisets"})
    root_cluster_tol: float = field(default=1e-6, metadata={
        "key": "root", "help": "clustering radius for coincident roots"})

    def __post_init__(self):
        for name in _field_names(self.__class__)[0]:
            value = getattr(self, name)
            if not (isinstance(value, float) and 0.0 < value < 1.0):
                raise ValueError(f"{name} must be a float in (0, 1), got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def freeze(a) -> np.ndarray:
    """Return a read-only complex128 copy of ``a``."""
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


class _ArrayValue:
    """Base of the frozen dataclasses that hold arrays (declared with eq=False).

    Every init field not annotated int holds a matrix, a covector or a tuple
    of matrices, stored as read-only complex128 copies however the value is
    built: through its factory (which checks outside input), its constructor
    (which library code calls on values it built from checked ones),
    dataclasses.replace or unpickling, which goes through the constructor.
    == is exact equality over the field walk (_fields_dist) that rel_err and
    mats_close take at tolerance; values stay unhashable.  Each value starts
    with an empty _memo for _memoized: not a field, never compared, shown or pickled.
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
        return _fields_dist(self, other, lambda a, b: float(not np.array_equal(a, b))) == 0

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, k) for k in _field_names(self.__class__)[0])


def _fields_dist(x, y, dist) -> float:
    """The largest dist(a, b) over the array fields of values x and y, tuple
    fields member by member; inf when y is of another class or an int field
    or a tuple's length differs."""
    if y.__class__ is not x.__class__:
        return math.inf
    worst = 0.0
    for k in _field_names(x.__class__)[0]:
        a, b = getattr(x, k), getattr(y, k)
        a, b = (a, b) if isinstance(a, tuple) else ((a,), (b,))
        if len(a) != len(b):
            return math.inf
        for u, v in zip(a, b):
            d = dist(u, v) if isinstance(u, np.ndarray) else 0.0 if u == v else math.inf
            worst = max(worst, d)
    return worst


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


def as_int(x, who, name, lo=None, hi=None) -> int:
    """x when it is a Python int (never a bool) in lo..hi; DomainError otherwise.

    The one check of integer arguments: the message names the caller ``who``,
    the argument ``name`` and the accepted range.
    """
    if type(x) is not int or lo is not None and x < lo or hi is not None and x > hi:
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise DomainError(f"{who}: {name} must be an integer{bound}, got {x!r}")
    return x


def _not_numbers(a):
    """The type of the first bool, str or bytes entry of a, an array or nested
    lists and tuples, or "" when there is none."""
    if isinstance(a, np.ndarray):
        if a.dtype.kind != "O":
            return "" if a.dtype.kind in "iufc" else a.dtype.name
        a = a.tolist()
    if isinstance(a, (list, tuple)):
        return next(filter(None, map(_not_numbers, a)), "")
    return type(a).__name__ if isinstance(a, (bool, np.bool_, str, bytes)) else ""


def _numbers(a, expected):
    """a as a complex128 array; ShapeError "<expected> of numbers (...)" otherwise.

    numpy reads bool, str and bytes entries as numbers (True as 1, '3' as 3),
    so they are refused before the conversion; an array of numbers pays only
    a check of its dtype kind.
    """
    bad = _not_numbers(a)
    try:
        if bad:
            raise TypeError(f"got {bad} entries")
        return np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{expected} of numbers ({exc})") from None


def as_matrix(a, name="matrix", shape=None) -> np.ndarray:
    """a as a finite complex128 matrix of the given shape, or square when
    shape is "square"; ShapeError naming ``name`` otherwise, also for
    non-numeric or ragged input."""
    m = _numbers(a, f"{name}: expected a {shape or '2-d'} matrix")
    want = m.shape[:1] * 2 if shape == "square" else shape
    if m.ndim != 2 or min(m.shape) < 1 or want is not None and m.shape != want:
        raise ShapeError(f"{name}: expected a {shape or '2-d'} matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError(f"{name}: entries must be finite")
    return m


def as_covector(a, name="covector", length=None) -> np.ndarray:
    """a as a finite complex128 row (a 1 x k matrix counts), of the given
    length when one is given; ShapeError naming ``name`` otherwise, also for
    non-numeric or ragged input."""
    want = "a 1-d row" if length is None else f"a row of length {length}"
    v = _numbers(a, f"{name}: expected {want}")
    if v.ndim == 2 and v.shape[0] == 1:
        v = v[0]
    if v.ndim != 1 or v.shape[0] < 1 or length is not None and v.shape[0] != length:
        raise ShapeError(f"{name}: expected {want}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ShapeError(f"{name}: entries must be finite")
    return v


_GAP_MIN = 1e3


def _rank_cut(s: np.ndarray, tol: ToleranceConfig, scale=None, who=None) -> int:
    """The one rank rule: how many descending singular values s exceed
    rank_rel_tol * s[0], or rank_rel_tol * scale when one is given; when
    ``who`` names the caller, a cut whose smallest kept over largest
    discarded nonzero value is below _GAP_MIN raises IndeterminateError."""
    rank = int(np.count_nonzero(s > tol.rank_rel_tol * (s[0] if scale is None else scale)))
    if who is not None and rank < s.size and s[rank] > 0:
        kept = s[rank - 1] if rank > 0 else np.inf
        if kept / s[rank] < _GAP_MIN:
            raise IndeterminateError(f"{who}: no clear spectral gap (kept {kept:.3e} / "
                                     f"discarded {s[rank]:.3e} < {_GAP_MIN:.0e})")
    return rank


def _operator_scale(*ops) -> float:
    """max(|op|_F, 1.0) over ops: the scale a kernel cut of residuals built
    from ops is anchored at, since they may be pure cancellation noise."""
    return float(max(*map(np.linalg.norm, ops), 1.0))


def rank_tol(m, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above rank_rel_tol * largest."""
    return _rank_cut(np.linalg.svd(as_matrix(m, "rank_tol"), compute_uv=False), tol)


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
    column rank.  Pass ``scale`` (see _operator_scale) when ``m`` is a
    residual that may be pure roundoff noise, to cut at rank_rel_tol * scale.
    """
    m = as_matrix(m, "kernel_basis")
    # a wide m needs the full vh for its kernel; a tall one has all of it thin
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh[_rank_cut(s, tol, scale):].conj().T


def eigenvalues(m) -> np.ndarray:
    """Eigenvalues with algebraic multiplicity, sorted by (real, imag)."""
    m = as_matrix(m, "eigenvalues", "square")
    return np.sort_complex(np.linalg.eigvals(m))


def _as_points(xs) -> np.ndarray:
    pts = np.asarray(list(xs), dtype=np.complex128)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts.reshape(pts.shape[0], -1) if pts.size else pts.reshape(0, 1)


def _near(pa: np.ndarray, pb: np.ndarray, tol: ToleranceConfig):
    """The distances between the rows of pa and of pb, and which of them lie
    within eq_rel_tol times the point-set scale: the largest coordinate
    magnitude, floored at 1.  A non-finite distance or scale is never near."""
    scale = max(float(np.abs(pa).max()), float(np.abs(pb).max()), 1.0)
    dist = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return dist, (dist <= tol.eq_rel_tol * scale) & (scale < math.inf)


def greedy_match(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether two multisets of points in C^d have one size and one d, and each
    pair that greedy nearest-pair matching makes is near (see _near)."""
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape != pb.shape:
        return False
    k = pa.shape[0]
    if k == 0:
        return True
    dist, near = _near(pa, pb, tol)
    used_a = np.zeros(k, dtype=bool)
    used_b = np.zeros(k, dtype=bool)
    for _ in range(k):
        masked = np.where(used_a[:, None] | used_b[None, :], np.inf, dist)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        if not near[i, j]:
            return False
        used_a[i] = used_b[j] = True
    return True


def rel_err(x, y) -> float:
    """Frobenius distance between arrays x and y over the larger norm (floor
    1), or between two values the largest over their fields (_fields_dist);
    inf for another shape or where the distance or the scale is not finite."""
    if isinstance(x, _ArrayValue):
        return _fields_dist(x, y, rel_err)
    x, y = np.asarray(x, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    if x.shape != y.shape:
        return math.inf
    dist = np.linalg.norm(x - y)
    scale = max(np.linalg.norm(x), np.linalg.norm(y), 1.0)
    return float(dist / scale) if dist + scale < math.inf else math.inf


def mats_close(x, y, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether two arrays, or two values, lie within eq_rel_tol by rel_err."""
    return rel_err(x, y) <= tol.eq_rel_tol


def _residual(diff, scale) -> float:
    """The one residual rule: |diff| (Frobenius, or abs(complex(.)) of a scalar)
    over scale; 0.0 for an exactly zero diff, else nan unless scale and the
    quotient are finite and positive (an over- or underflow certifies nothing)."""
    norm = np.linalg.norm(diff) if np.ndim(diff) else abs(complex(diff))
    if norm == 0.0 and not np.any(diff):
        return 0.0
    if not 0.0 < scale < math.inf:
        return math.nan
    r = float(norm / scale)
    return r if 0.0 < r < math.inf else math.nan


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
    # scaled by a power of two, exactly, so that the largest coefficient lies
    # in [0.5, 1) and np.roots never divides by a subnormal leading one
    scale = 2.0 ** -math.frexp(maxabs)[1]
    poly = (coeffs[::-1] if flip else coeffs) * scale
    k = 0
    while k < deg and abs(poly[k]) <= tol.rank_rel_tol * (maxabs * scale):
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
