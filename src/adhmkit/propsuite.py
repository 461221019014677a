"""Seeded generators of valid data and the randomized property suite.

Every algebraic identity the library relies on is registered here once,
under a stable name, as a check of one case ``(ctx, i, n, c, seed)`` that
yields its counterexamples.  The runner that registration stores in
PROPERTIES owns the rest: it walks the property's deterministic case
stream, counts the cases, keeps at most 10 failure records and encodes
each offending point as reproduction data.  The suite is the executable
form of the algebra: if an implementation detail (a sign, an exponent, a
dropped relation) is wrong, at least one property here must fail.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from . import geometry as geom_mod
from . import hirz as hirz_mod
from . import plane as plane_mod
from . import serialize
from .errors import DomainError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _residual,
    as_int,
    greedy_match,
    proj_distance,
    random_well_conditioned,
    rel_err,
)
from .plane import _MAX_TWIST, PlaneADHM, plane_adhm
from .sigma import angle_pair, sigma_matrix

__all__ = [
    "GenConfig",
    "gen_plane_valid",
    "gen_hirz_valid",
    "PROPERTIES",
    "run_suite",
    "PropertyResult",
    "SuiteReport",
]


@dataclass(frozen=True)
class GenConfig:
    seed: int
    n: int = 1
    c: int = 1

    def __post_init__(self):
        as_int(self.seed, "GenConfig", "seed", 0)
        as_int(self.n, "GenConfig", "n", 1, _MAX_TWIST)
        as_int(self.c, "GenConfig", "c", 1)


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _distinct_scalars(rng, c, gap=0.1):
    for _ in range(64):
        z = _complex_normal(rng, c)
        ok = all(
            abs(z[i] - z[j]) > gap for i in range(c) for j in range(i + 1, c)
        )
        if ok:
            return z
    raise RuntimeError("could not draw well-separated scalars")


def _gen_plane(rng, c):
    # b1 = p diag(z) p^-1 has distinct eigenvalues, so each subspace invariant
    # under (b1, b2) is spanned by columns of p, and e vanishes on none of them:
    # the triple is co-stable by construction, with a margin on every column
    for _ in range(16):
        z = _distinct_scalars(rng, c)
        w = _complex_normal(rng, c)
        p = random_well_conditioned(rng, c)
        p_inv = np.linalg.inv(p)
        e = _complex_normal(rng, c)
        if np.abs(e @ p).min() > 1e-6 * np.linalg.norm(e):
            return plane_adhm(p @ np.diag(z) @ p_inv, p @ np.diag(w) @ p_inv, e)
    raise RuntimeError("gen_plane_valid: rejection loop exhausted")


def gen_plane_valid(cfg: GenConfig) -> PlaneADHM:
    """Random valid plane triple: conjugated commuting diagonals, random e.

    Deterministic for a fixed config (one rng stream drives everything).
    """
    return _gen_plane(np.random.default_rng(cfg.seed), cfg.c)


def gen_hirz_valid(cfg: GenConfig):
    """Random valid point: chart assembly of plane data, then a random gauge."""
    # the frame's condition number is at most 16 by construction, so the
    # chart assembly needs no further checks
    rng = np.random.default_rng(cfg.seed)
    n, c = cfg.n, cfg.c
    d0 = _gen_plane(rng, c)
    frame = random_well_conditioned(rng, c)
    m = int(rng.integers(0, c + 2)) % (c + 1)
    d = hirz_mod._assemble_from_chart(m, d0.b1, d0.b2, d0.e, frame, np.linalg.inv(frame), n, c)
    return hirz_mod.act_gl2(d, random_well_conditioned(rng, c), random_well_conditioned(rng, c))


# ---------------------------------------------------------------------------
# property registry

PROPERTIES: dict = {}


@dataclass
class _Ctx:
    seed: int
    max_n: int
    max_c: int
    samples: int
    tol: ToleranceConfig

    def cases(self, name, min_n=1):
        """Deterministic stream of (index, n, c, seed) covering the grid."""
        base = zlib.crc32(name.encode()) & 0xFFFF
        ns = [n for n in range(min_n, self.max_n + 1)]
        cs = [c for c in range(1, self.max_c + 1)]
        if not ns or not cs or self.samples < 1:
            return []
        grid = [(n, c) for n in ns for c in cs]
        out = []
        for i in range(self.samples):
            n, c = grid[i % len(grid)]
            out.append((i, n, c, self.seed * 1_000_003 + base * 8191 + i))
        return out

    def hirz(self, n, c, seed):
        return gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))

    def plane(self, c, seed):
        return gen_plane_valid(GenConfig(seed=seed, c=c))


def _property(name, min_n=1):
    """Register ``check(ctx, i, n, c, seed)`` as the property ``name``.

    The check looks at one case and yields ``(detail, point)`` for each
    counterexample, ``point`` being the offending PlaneADHM/HirzADHM or
    None; ``(detail, point, n, c)`` files the record under another cell.
    The runner stored in PROPERTIES walks ``ctx.cases(name, min_n)`` and
    returns ``(cases, failures)``: the number of cases run and at most 10
    records, each with the point encoded as reproduction data.
    """

    def wrap(check):
        if name in PROPERTIES:
            raise RuntimeError(f"property {name!r} registered twice")

        def run(ctx):
            cases = ctx.cases(name, min_n)
            failures = []
            for i, n, c, seed in cases:
                for detail, obj, *cell in check(ctx, i, n, c, seed):
                    if len(failures) < 10:
                        rn, rc = cell or (n, c)
                        entry = {"case": i, "n": rn, "c": rc, "seed": seed, "detail": detail}
                        if obj is not None:
                            entry["data"] = serialize.encode(obj)
                        failures.append(entry)
            return len(cases), failures

        PROPERTIES[name] = run
        return check

    return wrap


@_property("sigma_defining_identity")
def _prop_sigma_defining(ctx, i, n, c, seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(0, 9))
    cb = int(rng.integers(1, 9))
    m = int(rng.integers(-cb, cb + 1))
    ap = angle_pair(cb, m)
    sg = sigma_matrix(h, m, cb).entries
    mu1, mu2 = _complex_normal(rng, 2)
    for p in range(h + 1):
        lhs = (ap.sin_val * mu1 + ap.cos_val * mu2) ** p * (
            ap.cos_val * mu1 - ap.sin_val * mu2
        ) ** (h - p)
        rhs = sum(sg[p, q] * mu2**q * mu1 ** (h - q) for q in range(h + 1))
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
            yield f"row {p}: defining identity off by {abs(lhs - rhs):.2e}", None, h, cb


@_property("sigma_group_law")
def _prop_sigma_group(ctx, i, n, c, seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(0, 9))
    cb = int(rng.integers(1, 9))
    m = int(rng.integers(-cb, cb + 1))
    l = int(rng.integers(-cb, cb + 1))
    prod = sigma_matrix(h, m, cb).entries @ sigma_matrix(h, l, cb).entries
    direct = sigma_matrix(h, m + l, cb).entries
    err = float(np.abs(prod - direct).max())
    if err > 1e-10:
        yield f"group law off by {err:.2e} at (m, l) = ({m}, {l})", None, h, cb
    ident = sigma_matrix(h, 0, cb).entries
    if not np.array_equal(ident, np.eye(h + 1)):
        yield "sigma at m = 0 is not the identity", None, h, cb


@_property("sigma_binomial_rows")
def _prop_sigma_rows(ctx, i, n, c, seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(0, 9))
    cb = int(rng.integers(1, 9))
    m = int(rng.integers(-cb, cb + 1))
    ap = angle_pair(cb, m)
    sg = sigma_matrix(h, m, cb).entries
    top = np.array([math.comb(h, q) * (-ap.sin_val) ** q * ap.cos_val ** (h - q)
                    for q in range(h + 1)])
    bot = np.array([math.comb(h, q) * ap.cos_val**q * ap.sin_val ** (h - q)
                    for q in range(h + 1)])
    if np.abs(sg[0] - top).max() > 1e-10 or np.abs(sg[h] - bot).max() > 1e-10:
        yield "extreme rows do not match binomial expansions", None, h, cb


@_property("sigma_rotation")
def _prop_sigma_rotation(ctx, i, n, c, seed):
    rng = np.random.default_rng(seed)
    cb = int(rng.integers(1, 9))
    m = int(rng.integers(-cb, cb + 1))
    ap = angle_pair(cb, m)
    sg = sigma_matrix(1, m, cb).entries
    want = np.array([[ap.cos_val, -ap.sin_val], [ap.sin_val, ap.cos_val]])
    if not np.array_equal(sg, want):
        yield "order-1 matrix is not the plane rotation", None, 1, cb


def _transition_checks(ctx, d, n, c_base, m, l, k):
    """Returns list of (label, relative error) for the cocycle identities."""
    out = []
    same = plane_mod.transition_plane(d, m, m, n, c_base, ctx.tol)
    out.append(("identity", rel_err(same, d)))
    fwd = plane_mod.transition_plane(d, m, l, n, c_base, ctx.tol)
    back = plane_mod.transition_plane(fwd, l, m, n, c_base, ctx.tol)
    out.append(("inverse", rel_err(back, d)))
    two = plane_mod.transition_plane(fwd, l, k, n, c_base, ctx.tol)
    one = plane_mod.transition_plane(d, m, k, n, c_base, ctx.tol)
    out.append(("triple", rel_err(two, one)))
    return out


@_property("plane_cocycle")
def _prop_plane_cocycle(ctx, i, n, c, seed):
    d = ctx.plane(c, seed)
    rng = np.random.default_rng(seed + 1)
    m, l, k = (int(v) for v in rng.integers(0, c + 1, size=3))
    try:
        checks = _transition_checks(ctx, d, n, c, m, l, k)
    except DomainError:
        return  # an empty overlap for this draw is legitimate
    for label, err in checks:
        if err > 1e-8:
            yield f"cocycle {label} off by {err:.2e} for (m,l,k)=({m},{l},{k})", d


@_property("plane_transition_validity")
def _prop_plane_transition_valid(ctx, i, n, c, seed):
    d = ctx.plane(c, seed)
    rng = np.random.default_rng(seed + 2)
    m, l = (int(v) for v in rng.integers(0, c + 1, size=2))
    try:
        moved = plane_mod.transition_plane(d, m, l, n, c, ctx.tol)
    except DomainError:
        return
    if not plane_mod.validate_plane(moved, ctx.tol).passed:
        yield f"transition {m}->{l} broke validity", moved


@_property("plane_spectrum_gauge_invariant")
def _prop_plane_spectrum_gauge(ctx, i, n, c, seed):
    d = ctx.plane(c, seed)
    rng = np.random.default_rng(seed + 3)
    g = random_well_conditioned(rng, c)
    moved = plane_mod.act_gl(d, g, ctx.tol)
    if not greedy_match(plane_mod.joint_spectrum(d, ctx.tol),
                        plane_mod.joint_spectrum(moved, ctx.tol), ctx.tol):
        yield "joint spectrum changed under gauge", d


@_property("plane_points_spectrum_roundtrip")
def _prop_plane_points_roundtrip(ctx, i, n, c, seed):
    d = ctx.plane(c, seed)
    spectrum = plane_mod.joint_spectrum(d, ctx.tol)
    rebuilt = plane_mod.from_points(spectrum, ctx.tol)
    if not plane_mod.orbit_equal_plane(rebuilt, d, ctx.tol):
        yield "from_points(joint_spectrum) left the orbit", d


@_property("plane_canonical_orbit")
def _prop_plane_canonical(ctx, i, n, c, seed):
    d = ctx.plane(c, seed)
    can, gauge = plane_mod.canonical_form(d, ctx.tol)
    witness = plane_mod.act_gl(d, gauge, ctx.tol)
    if rel_err(witness, can) > ctx.tol.eq_rel_tol:
        yield "gauge witness does not reproduce canonical form", d
    e0 = np.zeros(c, dtype=complex)
    e0[0] = 1.0
    if rel_err(can.e, e0) > ctx.tol.eq_rel_tol:
        yield "canonical e is not (1, 0, ..., 0)", d
    again, _ = plane_mod.canonical_form(can, ctx.tol)
    if rel_err(again, can) > ctx.tol.eq_rel_tol:
        yield "canonical form is not idempotent", d


@_property("hirz_action_invariance")
def _prop_hirz_action(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    rng = np.random.default_rng(seed + 4)
    moved = hirz_mod.act_gl2(d, random_well_conditioned(rng, c), random_well_conditioned(rng, c), ctx.tol)
    if hirz_mod.chart_set(moved, ctx.tol) != hirz_mod.chart_set(d, ctx.tol):
        yield "chart set changed under gauge pair", d
    for name, fn in (("p1", hirz_mod.validate_p1), ("p2", hirz_mod.validate_p2),
                     ("p3", hirz_mod.validate_p3)):
        if not fn(moved, ctx.tol).passed:
            yield f"{name} verdict changed under gauge pair", moved


@_property("hirz_chart_roundtrip")
def _prop_hirz_roundtrip(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    for m in hirz_mod.chart_set(d, ctx.tol):
        cc = hirz_mod.to_chart(d, m, ctx.tol)
        back = hirz_mod.from_chart(m, hirz_mod.plane_part(cc), cc.A2m, n, ctx.tol)
        err = rel_err(back, d)
        if err > 1e-9:
            yield f"chart {m} round trip off by {err:.2e}", d


@_property("hirz_chart_equivariance")
def _prop_hirz_equivariance(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    rng = np.random.default_rng(seed + 5)
    phi1 = random_well_conditioned(rng, c)
    phi2 = random_well_conditioned(rng, c)
    moved = hirz_mod.act_gl2(d, phi1, phi2, ctx.tol)
    inv1 = np.linalg.inv(phi1)
    for m in hirz_mod.chart_set(d, ctx.tol):
        cc = hirz_mod.to_chart(d, m, ctx.tol)
        ccm = hirz_mod.to_chart(moved, m, ctx.tol)
        err = max(
            rel_err(ccm.B, phi1 @ cc.B @ inv1),
            rel_err(ccm.E, phi1 @ cc.E @ inv1),
            rel_err(ccm.e, cc.e @ inv1),
            rel_err(ccm.A2m, phi2 @ cc.A2m @ inv1),
        )
        if err > 1e-9:
            yield f"chart map not equivariant at m={m}: {err:.2e}", d


@_property("hirz_chart_commutator")
def _prop_hirz_commutator(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    for m in hirz_mod.chart_set(d, ctx.tol):
        cc = hirz_mod.to_chart(d, m, ctx.tol)
        comm = cc.B @ cc.E - cc.E @ cc.B
        if not (r := _residual(comm, np.linalg.norm(cc.B) * np.linalg.norm(cc.E))) <= 1e-9:
            yield f"[B, E] = {r:.2e} relative to |B||E| at chart {m}", d


@_property("hirz_reconstruct_p1")
def _prop_hirz_reconstruct(ctx, i, n, c, seed):
    rng = np.random.default_rng(seed + 6)
    d0 = ctx.plane(c, seed)
    frame = random_well_conditioned(rng, c)
    m = int(rng.integers(0, c + 1))
    d = hirz_mod.from_chart(m, d0, frame, n, ctx.tol)
    p1 = hirz_mod.validate_p1(d, ctx.tol)
    worst = max((chk.residual or 0.0) for chk in p1.checks)
    if worst > 1e-9:
        yield f"chart assembly violates intertwining: {worst:.2e}", d
    ap = angle_pair(c, m)
    dmat = sum(math.comb(n - 1, q - 1) * ap.cos_val ** (n - q) * ap.sin_val ** (q - 1)
               * d.C[q - 1] for q in range(1, n + 1))
    want = d0.b2 @ np.linalg.inv(frame)
    if rel_err(dmat, want) > 1e-9:
        yield "binomial contraction does not recover D", d


@_property("hirz_p1_negative_detection", min_n=2)
def _prop_hirz_p1_negative(ctx, i, n, c, seed):
    if c == 1:
        return  # scalars always commute; nothing to detect
    rng = np.random.default_rng(seed + 7)
    d0 = ctx.plane(c, seed)
    frame = random_well_conditioned(rng, c)
    m = int(rng.integers(0, c + 1))
    base = hirz_mod.from_chart(m, d0, frame, n, ctx.tol)
    # a free term that does not commute with B breaks only the right family
    dmat = _complex_normal(rng, c, c)
    cs = hirz_mod.reconstruct_C(d0.b1, dmat, m, n, c)
    bad = hirz_mod.hirz_adhm(n, c, base.A1, base.A2, cs, base.e)
    rep = hirz_mod.validate_p1(bad, ctx.tol)
    if not all(chk.passed for chk in rep.checks if "left" in chk.name):
        yield "free-term solution broke the left family", bad
    if all(chk.passed for chk in rep.checks if "right" in chk.name):
        yield "validator accepted a non-commuting free term (right family undetected)", bad


@_property("hirz_p3_cross_oracle")
def _prop_hirz_p3_oracle(ctx, i, n, c, seed):
    rng = np.random.default_rng(seed + 8)
    if i % 2 == 1 and c >= 2:
        z = _distinct_scalars(rng, c)
        w = _complex_normal(rng, c)
        e = _complex_normal(rng, c)
        e[int(rng.integers(0, c))] = 0.0  # a joint eigenvector inside ker(e)
        frame = random_well_conditioned(rng, c)
        m = int(rng.integers(0, c + 1))
        d = hirz_mod._assemble_from_chart(m, np.diag(z), np.diag(w), e, frame,
                                          np.linalg.inv(frame), n, c)
        expected = "fail"
    else:
        d = ctx.hirz(n, c, seed)
        expected = "pass"
    chart_verdict = hirz_mod.validate_p3(d, ctx.tol).check("costability").verdict
    direct = hirz_mod.validate_p3_direct(d, ctx.tol).check("costability_direct").verdict
    if chart_verdict != expected:
        yield f"chart method said {chart_verdict}, expected {expected}", d
    if direct not in (expected, "indeterminate"):
        yield f"direct method said {direct}, expected {expected}", d


@_property("hirz_syst_rank", min_n=2)
def _prop_hirz_syst_rank(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    rank = hirz_mod.syst_rank(d.A1, d.A2, n, ctx.tol)
    want = (n - 1) * c * c
    if rank != want:
        yield f"system rank {rank}, expected {want}", d


@_property("hirz_glue_triangle")
def _prop_hirz_triangle(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    charts = hirz_mod.chart_set(d, ctx.tol)
    m0 = charts[0]
    cc = hirz_mod.to_chart(d, m0, ctx.tol)
    for l in charts:
        try:
            via = hirz_mod.transition_omega(cc, l, ctx.tol)
        except DomainError:
            yield f"overlap {m0}->{l} unavailable although {l} is a chart", d
            continue
        direct = hirz_mod.to_chart(d, l, ctx.tol)
        err = rel_err(via, direct)
        if err > 1e-8:
            yield f"triangle {m0}->{l} off by {err:.2e}", d


@_property("hirz_orbit_calculus")
def _prop_hirz_orbit(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    rng = np.random.default_rng(seed + 9)
    if not hirz_mod.orbit_equal(d, d, ctx.tol):
        yield "orbit_equal is not reflexive", d
    moved = hirz_mod.act_gl2(d, random_well_conditioned(rng, c), random_well_conditioned(rng, c), ctx.tol)
    if not hirz_mod.orbit_equal(d, moved, ctx.tol):
        yield "orbit_equal missed a gauge pair", d
    can, m = hirz_mod.canonicalize(d, ctx.tol)
    again, m2 = hirz_mod.canonicalize(can, ctx.tol)
    err = rel_err(can, again)
    if m != m2 or err > ctx.tol.eq_rel_tol:
        yield f"canonicalize is not idempotent ({err:.2e})", d
    other = ctx.hirz(n, c, seed + 77)
    s1 = plane_mod.joint_spectrum(hirz_mod.plane_part(hirz_mod.to_chart(d, m, ctx.tol)), ctx.tol)
    mo = hirz_mod.chart_set(other, ctx.tol)[0]
    s2 = plane_mod.joint_spectrum(hirz_mod.plane_part(hirz_mod.to_chart(other, mo, ctx.tol)), ctx.tol)
    if not greedy_match(s1, s2, ctx.tol) and hirz_mod.orbit_equal(d, other, ctx.tol):
        yield "orbit_equal conflated distinct supports", d


@_property("hirz_jacobian_dimension")
def _prop_hirz_jacobian(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    nullity = hirz_mod.jacobian_nullity(d, ctx.tol)
    want = 2 * c * c + 2 * c
    if nullity != want:
        yield f"jacobian nullity {nullity}, expected {want}", d


@_property("geom_support_gauge_invariant")
def _prop_geom_support(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    rng = np.random.default_rng(seed + 10)
    moved = hirz_mod.act_gl2(d, random_well_conditioned(rng, c), random_well_conditioned(rng, c), ctx.tol)
    s1 = [pt for pt, mult in geom_mod.base_support(d, ctx.tol).base for _ in range(mult)]
    s2 = [pt for pt, mult in geom_mod.base_support(moved, ctx.tol).base for _ in range(mult)]
    if len(s1) != len(s2) or any(
        min(proj_distance(p, q) for q in s2) > 1e-5 for p in s1
    ):
        yield "base support moved under gauge pair", d
    f1 = geom_mod.pencil_form(d.A1, d.A2).coeffs
    f2 = geom_mod.pencil_form(moved.A1, moved.A2).coeffs
    n1 = f1 / f1[np.argmax(np.abs(f1))]
    n2 = f2 / f2[np.argmax(np.abs(f2))]
    if rel_err(n1, n2) > ctx.tol.eq_rel_tol:
        yield "pencil form class moved under gauge pair", d


@_property("geom_spectrum_pencil")
def _prop_geom_spectrum(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    for m in hirz_mod.chart_set(d, ctx.tol):
        if not geom_mod.spectrum_vs_pencil_check(d, m, ctx.tol):
            yield f"pencil roots vs spectrum mismatch at chart {m}", d
    # base_support reads its roots off B at chart_set[0], so there the check
    # above compares B with itself; the determinant's coefficients do not
    f = geom_mod.pencil_form(d.A2, d.A1).coeffs
    p = np.arange(c + 1)
    for pt, _ in geom_mod.base_support(d, ctx.tol).base:
        terms = f * pt.lam1 ** (c - p) * pt.lam2**p
        if not (off := _residual(terms.sum(), np.abs(terms).sum())) <= 1e-8:
            yield f"base root misses the pencil determinant by {off:.2e} relative to its terms", d


@_property("geom_um_cover")
def _prop_geom_um(ctx, i, n, c, seed):
    rng = np.random.default_rng(seed + 11)
    if i % 5 == 0:
        x = np.zeros(c + 1, dtype=complex)
        x[int(rng.integers(0, c + 1))] = 1.0
    else:
        x = _complex_normal(rng, c + 1)
    if not any(geom_mod.um_membership(x, m, c, ctx.tol) for m in range(c + 1)):
        yield f"point escapes every cover set: {x.tolist()}", None, 0, c


@_property("geom_charts_cover")
def _prop_geom_charts(ctx, i, n, c, seed):
    d = ctx.hirz(n, c, seed)
    if not hirz_mod.chart_set(d, ctx.tol):
        yield "valid point owns no chart", d


@_property("geom_c1_pipeline")
def _prop_geom_c1(ctx, i, n, c, seed):
    rng = np.random.default_rng(seed + 12)
    y1, y2 = _complex_normal(rng, 2)
    if i % 7 == 3:
        y2 = 0.0 + 0.0j
    x2 = complex(_complex_normal(rng, 1)[0])
    if n == 1:
        x1 = x2
    else:  # y1 is a continuous draw, so it is nonzero
        x1 = x2 * y2 ** (n - 1) / y1 ** (n - 1)
    p = geom_mod.ytilde_point(y1, y2, x1, x2, n)
    d = geom_mod.ytilde_to_p1(p, n, ctx.tol)
    if not hirz_mod.validate_hirz(d, ctx.tol).passed:
        yield "hypersurface image is not a valid point", d, n, 1
        return
    t = geom_mod.p1_to_tot(d, ctx.tol)
    if abs(t.u1 - p.x1 * p.y2) > 1e-12 * max(1.0, abs(t.u1)) or \
       abs(t.u2 - p.x2 * p.y1) > 1e-12 * max(1.0, abs(t.u2)):
        yield "fibre pair disagrees with (x1 y2, x2 y1)", d, n, 1
    phi1 = np.array([[complex(_complex_normal(rng, 1)[0] + 2.0)]])
    phi2 = np.array([[complex(_complex_normal(rng, 1)[0] + 2.0)]])
    moved = hirz_mod.act_gl2(d, phi1, phi2, ctx.tol)
    tm = geom_mod.p1_to_tot(moved, ctx.tol)
    cross = abs(tm.y1 * t.y2 - tm.y2 * t.y1)
    scale = max(abs(t.y1), abs(t.y2)) * max(abs(tm.y1), abs(tm.y2))
    if abs(tm.u1 - t.u1) > 1e-10 * max(1.0, abs(t.u1)) or cross > 1e-10 * max(scale, 1e-30):
        yield "total-space image is not gauge invariant", d, n, 1
    if not hirz_mod.orbit_equal(d, moved, ctx.tol):
        yield "scalar gauge pair left the orbit", d, n, 1


# ---------------------------------------------------------------------------
# suite driver


@dataclass(frozen=True)
class PropertyResult:
    name: str
    cases: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self):
        return {"property": self.name, "cases": self.cases, "failures": list(self.failures)}


@dataclass(frozen=True)
class SuiteReport:
    results: tuple
    # the run's case grid, so that reports of different runs differ
    seed: int
    max_n: int
    max_c: int
    samples: int
    warning: str = ""

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self):
        out = {"passed": self.passed,
               "properties": [r.to_json() for r in self.results]}
        if self.warning:
            out["warning"] = self.warning
        out.update(seed=self.seed, max_n=self.max_n, max_c=self.max_c, samples=self.samples)
        return out


def _run_property(job):
    """PROPERTIES[name](ctx) for job = (name, ctx); module level, so that a worker can run it."""
    name, ctx = job
    return PROPERTIES[name](ctx)


def _map_properties(jobs):
    """list(map(_run_property, jobs)), on forked workers when several CPUs are allowed.

    One worker per allowed CPU, at most one per job; a single worker, or a
    platform without os.sched_getaffinity, maps in this process.  Workers
    are forked, so they see whatever is patched into this process, and the
    with block joins them all before this returns or raises.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs))
    if workers <= 1:
        return list(map(_run_property, jobs))
    # loaded here, so that importing this module for its generators (as
    # perfbench does) does not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_run_property, jobs))


def run_suite(seed=2026, max_n=3, max_c=6, samples=100, name_filter=None,
              tol: ToleranceConfig = DEFAULT_TOL) -> SuiteReport:
    """Run registered properties over a deterministic case grid.

    Empty ranges produce a vacuous pass with a warning.  ``name_filter``
    keeps properties whose name contains the given substring.  Properties
    run in forked workers, one per allowed CPU; the report is the same as
    from running them one after another in this process.
    """
    as_int(seed, "run_suite", "seed", 0)
    as_int(max_n, "run_suite", "max_n", 1, _MAX_TWIST)
    as_int(max_c, "run_suite", "max_c", 1)
    as_int(samples, "run_suite", "samples", 0)
    ctx = _Ctx(seed=seed, max_n=max_n, max_c=max_c, samples=samples, tol=tol)
    warning = ""
    if samples == 0:
        warning = "empty ranges: suite is vacuous"
    selected = [n for n in sorted(PROPERTIES) if not name_filter or name_filter in n]
    if not selected:
        warning = "no property matches the filter: suite is vacuous"
    outcomes = ([(0, [])] * len(selected) if warning
                else _map_properties([(name, ctx) for name in selected]))
    results = tuple(PropertyResult(name=name, cases=cases, failures=tuple(failures))
                    for name, (cases, failures) in zip(selected, outcomes))
    return SuiteReport(results=results, seed=seed, max_n=max_n, max_c=max_c,
                       samples=samples, warning=warning)
