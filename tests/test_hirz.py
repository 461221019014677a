import dataclasses
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from adhmkit import geometry, serialize
from adhmkit import hirz as hirz_mod
from adhmkit import linalg as linalg_mod
from adhmkit import plane as plane_mod
from adhmkit.errors import DomainError, IndeterminateError, InvalidPointError, ShapeError
from adhmkit.hirz import (
    act_gl2,
    canonicalize,
    chart_coords,
    chart_set,
    from_chart,
    hirz_adhm,
    jacobian_nullity,
    orbit_equal,
    plane_part,
    reconstruct_C,
    syst_rank,
    to_chart,
    transition_omega,
    validate_hirz,
    validate_p1,
    validate_p2,
    validate_p3,
    validate_p3_direct,
)
from adhmkit.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    mats_close,
    random_well_conditioned,
    rank_tol,
    rel_err,
)
from adhmkit.plane import act_gl, from_points, plane_adhm, transition_plane
from adhmkit.propsuite import GenConfig, gen_hirz_valid
from adhmkit.sigma import angle_pair


def scalar_point(n, a1, a2, cs, e):
    return hirz_adhm(n, 1,
                     np.array([[a1]], dtype=complex),
                     np.array([[a2]], dtype=complex),
                     tuple(np.array([[x]], dtype=complex) for x in cs),
                     np.array([e], dtype=complex))


def test_factory_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(DomainError):
        hirz_adhm(0, 2, eye, eye, (), np.ones(2))
    with pytest.raises(ShapeError):
        hirz_adhm(2, 2, eye, eye, (eye,), np.ones(2))  # needs n C-matrices
    with pytest.raises(ShapeError):
        hirz_adhm(1, 2, eye, np.eye(3), (eye,), np.ones(2))
    with pytest.raises(ShapeError):
        hirz_adhm(1, 2, eye, eye, (eye,), np.ones(3))


def test_to_chart_frozen_scalar():
    d = scalar_point(1, 2.0, 1.0, [3.0], 5.0)
    cc = to_chart(d, 0)
    assert abs(cc.B[0, 0] - 2.0) < 1e-14
    assert abs(cc.E[0, 0] - 3.0) < 1e-14
    assert abs(cc.e[0] - 5.0) < 1e-14
    assert abs(cc.A2m[0, 0] - 1.0) < 1e-14
    assert (cc.m, cc.n, cc.c) == (0, 1, 1)


def test_from_chart_frozen_scalar():
    p = plane_adhm(np.array([[2.0 + 0j]]), np.array([[3.0 + 0j]]),
                   np.array([5.0 + 0j]))
    d = from_chart(0, p, np.array([[1.0 + 0j]]), 2)
    assert abs(d.A1[0, 0] - 2.0) < 1e-14
    assert abs(d.A2[0, 0] - 1.0) < 1e-14
    assert abs(d.C[0][0, 0] - 3.0) < 1e-14
    assert abs(d.C[1][0, 0] - 6.0) < 1e-14  # b1 * b2 / A
    assert abs(d.e[0] - 5.0) < 1e-14
    assert validate_hirz(d).passed


def test_reconstruct_frozen_scalar():
    # quarter-turn chart: cos 0, sin 1, twist 2
    cs = reconstruct_C(np.array([[2.0 + 0j]]), np.array([[3.0 + 0j]]), 1, 2, 1)
    assert abs(cs[0][0, 0] + 6.0) < 1e-14
    assert abs(cs[1][0, 0] - 3.0) < 1e-14


def test_p1_passes_on_chart_assembly_and_fails_on_perturbation():
    d = gen_hirz_valid(GenConfig(seed=40, n=2, c=2))
    assert validate_p1(d).passed
    cs = list(np.array(x) for x in d.C)
    cs[0] = cs[0] + 0.1
    bad = hirz_adhm(d.n, d.c, d.A1, d.A2, tuple(cs), d.e)
    rep = validate_p1(bad)
    assert not rep.passed
    names = {c.name for c in rep.checks if c.verdict == "fail"}
    assert names  # at least one family member reports the break


def test_p1_n1_triple_product():
    d = gen_hirz_valid(GenConfig(seed=41, n=1, c=2))
    rep = validate_p1(d)
    assert rep.passed and rep.checks[0].name == "intertwine"


def test_p2_frozen_identity_and_zero():
    eye = np.eye(3, dtype=complex)
    zero = np.zeros((3, 3), dtype=complex)
    d = hirz_adhm(1, 3, eye, zero, (eye,), np.ones(3, dtype=complex))
    rep = validate_p2(d)
    # with the second generator zero, invertibility needs a nonzero sine
    assert rep.chart_set == (1, 2, 3)
    assert rep.passed

    d0 = hirz_adhm(1, 3, zero, zero, (eye,), np.ones(3, dtype=complex))
    rep0 = validate_p2(d0)
    assert rep0.check("pencil_nondegenerate").verdict == "fail"
    assert rep0.chart_set == ()


def test_p2_frozen_scalar():
    d = scalar_point(1, 1.0, 0.0, [1.0], 1.0)
    assert chart_set(d) == (1,)


def test_p2_indeterminate_on_proportional_tiny_pencil():
    # A2 = 2 A1 with a 1e-20 second direction: every chart determinant is
    # tiny but nonzero, and no chart matrix has full relative rank
    a1 = np.diag([1.0 + 0j, 1e-20])
    d = hirz_adhm(1, 2, a1, 2.0 * a1, (np.eye(2, dtype=complex),),
                  np.ones(2, dtype=complex))
    rep = validate_p2(d)
    assert rep.check("pencil_nondegenerate").verdict == "indeterminate"
    assert rep.chart_set == ()


def test_p2_stack_matches_per_chart_loop():
    # reference: one det and one rank_tol per chart frame, as before stacking
    eye = np.eye(3, dtype=complex)
    a1 = np.diag([1.0 + 0j, 1e-20])
    points = [hirz_adhm(1, 3, eye, 0 * eye, (eye,), np.ones(3)),
              hirz_adhm(1, 2, a1, 2.0 * a1, (np.eye(2),), np.ones(2))]
    points += [gen_hirz_valid(GenConfig(seed=s, n=n, c=c))
               for s, (n, c) in enumerate([(1, 2), (2, 6), (3, 16), (8, 32)])]
    for d in points:
        frames = [angle_pair(d.c, m).sin_val * d.A1 + angle_pair(d.c, m).cos_val * d.A2
                  for m in range(d.c + 1)]
        dets = ", ".join(f"{complex(np.linalg.det(f)):.3e}" for f in frames)
        rep = validate_p2(d)
        assert rep.chart_set == tuple(m for m, f in enumerate(frames) if rank_tol(f) == d.c)
        assert rep.checks[0].detail.startswith(f"chart determinants: {dets}")


def test_p3_frozen_scalar_failure_both_methods():
    d = scalar_point(1, 1.0, 1.0, [0.0], 0.0)
    assert validate_p3(d).check("costability").verdict == "fail"
    assert validate_p3_direct(d).check("costability_direct").verdict == "fail"


def test_p3_passes_both_methods_on_generated_point():
    d = gen_hirz_valid(GenConfig(seed=42, n=2, c=3))
    assert validate_p3(d).passed
    direct = validate_p3_direct(d)
    assert direct.check("costability_direct").verdict in ("pass", "indeterminate")


def test_p3_direct_indeterminate_on_multiple_root():
    # both points sit over the same base root, so the pencil kernel there is
    # two dimensional and the direct method refuses to decide
    d = from_chart(0, from_points(((1.0, 3.0), (1.0, 4.0))),
                   np.eye(2, dtype=complex), 1)
    rep = validate_p3_direct(d)
    assert rep.check("costability_direct").verdict == "indeterminate"
    # the chart method handles multiplicity fine
    assert validate_p3(d).passed


def test_p3_refuses_broken_preconditions():
    d = gen_hirz_valid(GenConfig(seed=43, n=2, c=2))
    cs = list(np.array(x) for x in d.C)
    cs[0] = cs[0] + 1.0
    bad = hirz_adhm(d.n, d.c, d.A1, d.A2, tuple(cs), d.e)
    with pytest.raises(InvalidPointError):
        validate_p3(bad)
    rep = validate_hirz(bad)
    assert not rep.passed
    assert rep.check("costability").verdict == "indeterminate"


def test_act_gl2_rejects_singular_and_preserves_validity():
    d = gen_hirz_valid(GenConfig(seed=44, n=2, c=2))
    rng = np.random.default_rng(0)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert validate_hirz(act_gl2(d, g1, g2)).passed
    with pytest.raises(InvalidPointError):
        act_gl2(d, np.zeros((2, 2)), g2)
    with pytest.raises(ShapeError):
        act_gl2(d, np.eye(3), g2)


def test_to_chart_domain_errors():
    d = scalar_point(1, 1.0, 0.0, [1.0], 1.0)
    with pytest.raises(DomainError):
        to_chart(d, 5)
    with pytest.raises(DomainError):
        to_chart(d, 0)  # A2 at chart zero is the zero scalar here


def test_chart_roundtrip_and_equivariance():
    d = gen_hirz_valid(GenConfig(seed=45, n=3, c=3))
    rng = np.random.default_rng(9)
    for m in chart_set(d):
        cc = to_chart(d, m)
        back = from_chart(m, plane_part(cc), cc.A2m, d.n)
        assert rel_err(back.A1, d.A1) < 1e-10
        assert rel_err(back.A2, d.A2) < 1e-10
        assert all(rel_err(x, y) < 1e-10 for x, y in zip(back.C, d.C))
    g1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    moved = act_gl2(d, g1, g2)
    m = chart_set(d)[0]
    cc, ccm = to_chart(d, m), to_chart(moved, m)
    inv1 = np.linalg.inv(g1)
    assert rel_err(ccm.B, g1 @ cc.B @ inv1) < 1e-9
    assert rel_err(ccm.E, g1 @ cc.E @ inv1) < 1e-9
    assert rel_err(ccm.e, cc.e @ inv1) < 1e-9
    assert rel_err(ccm.A2m, g2 @ cc.A2m @ inv1) < 1e-9


def test_transition_omega_frozen_scalar():
    cc = chart_coords(1, 1, 1,
                      np.array([[2.0 + 0j]]), np.array([[5.0 + 0j]]),
                      np.array([7.0 + 0j]), np.array([[3.0 + 0j]]))
    moved = transition_omega(cc, 0)
    assert abs(moved.B[0, 0] + 0.5) < 1e-14
    assert abs(moved.E[0, 0] + 10.0) < 1e-14
    assert abs(moved.e[0] - 7.0) < 1e-14
    assert abs(moved.A2m[0, 0] + 6.0) < 1e-14
    assert moved.m == 0


def test_transition_omega_outside_overlap():
    cc = chart_coords(1, 1, 1,
                      np.array([[0.0 + 0j]]), np.array([[5.0 + 0j]]),
                      np.array([7.0 + 0j]), np.array([[3.0 + 0j]]))
    with pytest.raises(DomainError):
        transition_omega(cc, 0)


def test_glue_triangle_through_every_chart():
    d = gen_hirz_valid(GenConfig(seed=46, n=2, c=3))
    charts = chart_set(d)
    cc = to_chart(d, charts[0])
    for l in charts:
        via = transition_omega(cc, l)
        direct = to_chart(d, l)
        assert rel_err(via.B, direct.B) < 1e-8
        assert rel_err(via.E, direct.E) < 1e-8
        assert rel_err(via.A2m, direct.A2m) < 1e-8


def _syst_rank_by_kronecker(A1, A2, n):
    # reference: the full (n-1)c^2 x nc^2 left system, block row q acting as
    # A1 (x) 1 on vec C_q and -A2 (x) 1 on vec C_{q+1} (row-major vec)
    eye = np.eye(A1.shape[0])
    return rank_tol(np.kron(np.eye(n - 1, n), np.kron(A1, eye))
                    - np.kron(np.eye(n - 1, n, 1), np.kron(A2, eye)))


def test_syst_rank_frozen_and_grid():
    assert syst_rank(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]), 2) == 1
    for n in (2, 3, 4, 5):
        for c in (1, 2, 3, 4, 5, 6):
            for seed in (100 * n + c, 7 + 100 * n + c):
                d = gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))
                assert syst_rank(d.A1, d.A2, n) == _syst_rank_by_kronecker(d.A1, d.A2, n) \
                    == (n - 1) * c * c
    # degenerate pencils A1 = A2 with a zero column: rank (n-1) c (c-1)
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for c in (2, 3, 4, 5):
            a = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
            a[:, 0] = 0.0
            assert syst_rank(a, a, n) == _syst_rank_by_kronecker(a, a, n) == (n - 1) * c * (c - 1)
    with pytest.raises(DomainError):
        syst_rank(np.eye(2), np.eye(2), 1)


def test_syst_rank_at_largest_supported_size(monkeypatch):
    # the full system would be 7168 x 8192; its rank is read off one SVD of
    # its 224 x 256 Kronecker factor M_A
    d = gen_hirz_valid(GenConfig(seed=1, n=8, c=32))
    shapes = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: shapes.append(a.shape) or real(a, *r, **k))
    assert syst_rank(d.A1, d.A2, d.n) == 7 * 32 * 32 == 7168
    assert shapes == [(224, 256)]


def test_syst_rank_refuses_a_cut_without_gap():
    # A1 is invertible, so the exact rank is c^2 = 9, but its singular values
    # 1e-8 and 1e-10 straddle the cut at 1e-9 with a ratio of only 100
    with pytest.raises(IndeterminateError, match=re.escape(
            "syst_rank: no clear spectral gap (kept 1.000e-08 / discarded 1.000e-10 < 1e+03)")):
        syst_rank(np.diag([1.0, 1e-8, 1e-10]), np.zeros((3, 3)), 2)


def test_canonicalize_and_orbit_equal():
    d = gen_hirz_valid(GenConfig(seed=47, n=2, c=2))
    rng = np.random.default_rng(13)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    moved = act_gl2(d, g1, g2)
    can1, m1 = canonicalize(d)
    can2, m2 = canonicalize(moved)
    assert m1 == m2
    assert rel_err(can1.A1, can2.A1) < 1e-8
    assert rel_err(can1.e, can2.e) < 1e-8
    assert orbit_equal(d, moved)
    assert orbit_equal(d, d)
    other = gen_hirz_valid(GenConfig(seed=48, n=2, c=2))
    assert not orbit_equal(d, other)


def test_orbit_equal_is_false_when_first_charts_differ():
    # b1 has the eigenvalue cot(theta_1), so A2 = A (cos_1 - sin_1 b1) is
    # singular: the point's chart set starts at 1, a generic point's at 0
    ap = angle_pair(2, 1)
    plane = from_points([(ap.cos_val / ap.sin_val, 0.5), (-0.4, 1.5)])
    d = from_chart(1, plane, np.array([[1.0, 0.3], [0.2, 1.1]]), 2)
    generic = gen_hirz_valid(GenConfig(seed=1, n=2, c=2))
    assert validate_hirz(d).passed and chart_set(d)[0] == 1
    assert canonicalize(d)[1] == 1 and canonicalize(generic)[1] == 0
    assert not orbit_equal(d, generic)
    assert not orbit_equal(generic, d)


def test_orbit_equal_shape_mismatch_is_false():
    d1 = gen_hirz_valid(GenConfig(seed=49, n=1, c=1))
    d2 = gen_hirz_valid(GenConfig(seed=49, n=2, c=1))
    d3 = gen_hirz_valid(GenConfig(seed=49, n=1, c=2))
    assert not orbit_equal(d1, d2)
    assert not orbit_equal(d1, d3)


def test_orbit_equal_requires_valid_points():
    d = gen_hirz_valid(GenConfig(seed=50, n=1, c=2))
    cs = list(np.array(x) for x in d.C)
    cs[0] = cs[0] + 1.0
    bad = hirz_adhm(d.n, d.c, d.A1, d.A2, tuple(cs), d.e)
    with pytest.raises(InvalidPointError):
        orbit_equal(d, bad)


@pytest.mark.parametrize("n,c,want", [(1, 1, 4), (2, 1, 4), (2, 2, 12), (3, 2, 12)])
def test_jacobian_nullity_frozen(n, c, want):
    d = gen_hirz_valid(GenConfig(seed=51 + n + 10 * c, n=n, c=c))
    assert jacobian_nullity(d) == want
    assert want == 2 * c * c + 2 * c


def _jacobian_by_basis_loop(d):
    # reference: the full intertwining Jacobian, one column per basis matrix of
    # each slot, rows interleaving the left and right families
    c, n = d.c, d.n
    zero = np.zeros((c, c), dtype=complex)
    cols = []
    for slot in range(n + 2):
        for idx in range(c * c):
            basis = np.zeros((c, c), dtype=complex)
            basis[idx // c, idx % c] = 1.0
            da1 = basis if slot == 0 else zero
            da2 = basis if slot == 1 else zero
            dc = [basis if slot == q + 2 else zero for q in range(n)]
            if n == 1:
                dr = [da1 @ d.C[0] @ d.A2 + d.A1 @ dc[0] @ d.A2 + d.A1 @ d.C[0] @ da2
                      - da2 @ d.C[0] @ d.A1 - d.A2 @ dc[0] @ d.A1 - d.A2 @ d.C[0] @ da1]
            else:
                dr = []
                for q in range(n - 1):
                    dr.append(da1 @ d.C[q] + d.A1 @ dc[q] - da2 @ d.C[q + 1] - d.A2 @ dc[q + 1])
                    dr.append(dc[q] @ d.A1 + d.C[q] @ da1 - dc[q + 1] @ d.A2 - d.C[q + 1] @ da2)
            cols.append(np.concatenate([r.ravel() for r in dr]))
    return np.column_stack(cols)


def _loop_nullity(d):
    # the reference cut: relative to s_max only, exact zero Jacobian -> ambient
    ambient = (d.n + 2) * d.c * d.c + d.c
    s = np.linalg.svd(_jacobian_by_basis_loop(d), compute_uv=False)
    if s[0] == 0.0:
        return ambient
    return ambient - int(np.count_nonzero(s > DEFAULT_TOL.rank_rel_tol * s[0]))


def _fat_point(k, n, m, seed):
    # curvilinear length-k point: b1 = 0.3 + N, b2 = 2 + 3N + N^2 with N the
    # nilpotent shift and e the dual of the first basis vector, conjugated by a
    # well-conditioned gauge and assembled at chart m
    rng = np.random.default_rng(seed)
    nil = np.eye(k, k=1, dtype=complex)
    t = plane_adhm(0.3 * np.eye(k) + nil, 2 * np.eye(k) + 3 * nil + nil @ nil, np.eye(k)[0])
    return from_chart(m, act_gl(t, random_well_conditioned(rng, k)), random_well_conditioned(rng, k), n)


def test_jacobian_nullity_matches_basis_loop():
    for n in (1, 2, 3):
        for c in (1, 2, 3, 4, 5):
            d = gen_hirz_valid(GenConfig(seed=70 + 10 * n + c, n=n, c=c))
            assert jacobian_nullity(d) == _loop_nullity(d) == 2 * c * c + 2 * c
            for m in (0, 1) if c > 1 else ():  # one support point of multiplicity c
                fat = _fat_point(c, n, m, seed=10 * n + c + m)
                assert jacobian_nullity(fat) == _loop_nullity(fat) == 2 * c * c + 2 * c
    # at n = c = 1 both Jacobians vanish exactly
    for seed in range(200):
        d = gen_hirz_valid(GenConfig(seed=seed, n=1, c=1))
        assert jacobian_nullity(d) == _loop_nullity(d) == 4
    # scaled points: the rank cut is relative to the largest singular value
    for n, c, seed in ((1, 3, 5), (3, 3, 4), (2, 4, 3)):
        d0 = gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))
        d = hirz_adhm(n, c, 1e6 * d0.A1, 1e6 * d0.A2, tuple(1e6 * x for x in d0.C), d0.e)
        assert jacobian_nullity(d) == _loop_nullity(d) == 2 * c * c + 2 * c


def test_jacobian_nullity_at_largest_supported_size():
    d = gen_hirz_valid(GenConfig(seed=1, n=8, c=32))
    assert jacobian_nullity(d) == 2 * 32 * 32 + 2 * 32


def test_jacobian_orbit_dimension_quotient():
    # nullity minus the gauge directions leaves twice the configuration size
    for n, c in ((1, 2), (2, 3)):
        d = gen_hirz_valid(GenConfig(seed=60 + n, n=n, c=c))
        assert jacobian_nullity(d) - 2 * c * c == 2 * c


def test_validation_report_is_reused_by_support_and_canonicalize(monkeypatch):
    d = gen_hirz_valid(GenConfig(seed=51, n=2, c=3))
    report = validate_hirz(d)
    calls = []
    for name in ("validate_p1", "validate_p2", "_costability_at"):
        real = getattr(hirz_mod, name)
        monkeypatch.setattr(hirz_mod, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    assert validate_hirz(d) is report
    geometry.chart_support(d, report.chart_set[0])
    canonicalize(d)
    assert calls == []


def test_validation_report_per_tolerance():
    d = gen_hirz_valid(GenConfig(seed=51, n=2, c=3))
    default = validate_hirz(d)
    tight = validate_hirz(d, ToleranceConfig(eq_rel_tol=1e-30))
    assert default.passed and not tight.passed
    assert not tight.check("intertwine_left_1").passed
    assert validate_hirz(d) is default and default.passed


def _values():
    """kind -> (value, writable arrays its caller passed in), one per way the library builds one.

    hirz is built by act_gl2 (the generator's last step), chart by to_chart
    and plane by plane_part; the other kinds name the operation that built
    them.  Every one goes straight to its dataclass constructor.
    """
    d = gen_hirz_valid(GenConfig(seed=52, n=2, c=3))
    cc = to_chart(d, chart_set(d)[0])
    p = plane_part(cc)
    rng = np.random.default_rng(52)
    g1, g2, frame = (random_well_conditioned(rng, 3) for _ in range(3))
    l = (cc.m + 1) % 4
    return {
        "hirz": (d, ()),
        "act_gl2": (act_gl2(d, g1, g2), (g1, g2)),
        "from_chart": (from_chart(cc.m, p, frame, d.n), (frame,)),
        "chart": (cc, ()),
        "transition_omega": (transition_omega(cc, l), ()),
        "plane": (p, ()),
        "act_gl": (act_gl(p, g1), (g1,)),
        "transition_plane": (transition_plane(p, cc.m, l, d.n, d.c), ()),
    }


KINDS = ["hirz", "act_gl2", "from_chart", "chart", "transition_omega", "plane", "act_gl",
         "transition_plane"]

# the memoized validation of each kind of value that has one, and the step
# its body runs once per computation
MEMOIZED = {hirz_mod.HirzADHM: (validate_hirz, hirz_mod, "merge")}


def _writable_fields(x):
    """x's constructor arguments by name, each array a writable copy."""
    out = {}
    for f in dataclasses.fields(x):
        if f.init:
            v = getattr(x, f.name)
            out[f.name] = (tuple(map(np.array, v)) if isinstance(v, tuple)
                           else np.array(v) if isinstance(v, np.ndarray) else v)
    return out


def _arrays(values):
    """The arrays among values, with each tuple's members in order."""
    for v in values:
        if isinstance(v, tuple):
            yield from v
        elif isinstance(v, np.ndarray):
            yield v


@pytest.mark.parametrize("kind", KINDS)
def test_value_equality_is_exact_and_values_are_unhashable(kind):
    x, _ = _values()[kind]
    twin = type(x)(**_writable_fields(x))
    assert not any(a is b for a, b in zip(_arrays(vars(x).values()), _arrays(vars(twin).values())))
    assert twin == x and not twin != x
    array_fields = [name for name, v in _writable_fields(x).items() if not isinstance(v, int)]
    for name in array_fields:
        kwargs = _writable_fields(x)
        next(_arrays([kwargs[name]])).flat[0] += 1e-12  # far inside eq_rel_tol, still unequal
        assert type(x)(**kwargs) != x
    assert x != "not a value"
    with pytest.raises(TypeError):
        hash(x)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_a_value_is_close_when_every_array_is(kind, factor):
    """Moving one array (or one member of C) by factor * eq_rel_tol * max(|a|, 1)
    at one entry: the value's verdict is the AND of the per-array verdicts and
    its rel_err the max of theirs, bit for bit."""
    x, _ = _values()[kind]
    moved = 0
    for name, v in _writable_fields(x).items():
        if isinstance(v, int):
            continue
        for k in range(len(v)) if isinstance(v, tuple) else [None]:
            kwargs = _writable_fields(x)
            moving = kwargs[name] if k is None else kwargs[name][k]
            moving.flat[0] += factor * DEFAULT_TOL.eq_rel_tol * max(np.linalg.norm(moving), 1.0)
            y = type(x)(**kwargs)
            pairs = list(zip(_arrays(vars(x).values()), _arrays(vars(y).values())))
            assert mats_close(x, y) is mats_close(y, x) is all(mats_close(a, b) for a, b in pairs)
            assert mats_close(x, y) is (factor < 1)
            assert rel_err(x, y).hex() == max(rel_err(a, b) for a, b in pairs).hex()
            moved += 1
    assert moved == len(list(_arrays(vars(x).values())))


@pytest.mark.parametrize("kind", KINDS)
def test_values_of_another_size_or_kind_are_never_close(kind):
    x, _ = _values()[kind]
    others = []
    for name, v in _writable_fields(x).items():
        if isinstance(v, int):  # n, c or m
            others.append({**_writable_fields(x), name: v + 1})
        elif isinstance(v, tuple):  # C with a member fewer or more
            others += [{**_writable_fields(x), name: v[:-1]}, {**_writable_fields(x), name: v + v[:1]}]
    assert others
    kinds = {type(y): y for y, _ in _values().values() if type(y) is not type(x)}
    for y in [type(x)(**kwargs) for kwargs in others] + list(kinds.values()):
        assert y != x
        assert rel_err(x, y) == rel_err(y, x) == math.inf
        assert not mats_close(x, y) and not mats_close(y, x)
    assert rel_err(x, x) == 0.0 and mats_close(x, x)


@pytest.mark.parametrize("kind", KINDS)
def test_value_arrays_are_read_only_copies_on_every_route(kind, monkeypatch):
    x, caller = _values()[kind]
    assert all(not a.flags.writeable and a.dtype == np.complex128 for a in _arrays(vars(x).values()))
    assert not any(np.shares_memory(a, b) for a in _arrays(vars(x).values()) for b in caller)
    kwargs = _writable_fields(x)
    reflections = _count_calls(monkeypatch, linalg_mod, "fields")
    built = type(x)(**kwargs)
    assert built._memo == {}
    if type(x) in MEMOIZED:  # read-only arrays make the memo sound: one body per tolerance
        validate, module, body = MEMOIZED[type(x)]
        bodies = _count_calls(monkeypatch, module, body)
        report = validate(built)
        assert validate(built, DEFAULT_TOL) is report is validate(built, tol=ToleranceConfig())
        tight = ToleranceConfig(rank_rel_tol=1e-12)
        other = validate(built, tight)
        assert other is not report and validate(built, tol=tight) is other
        assert len(bodies) == 2 and built._memo
    copies = (dataclasses.replace(built), pickle.loads(pickle.dumps(built)))
    for y in (built, *copies):
        assert y == x
        arrays = list(_arrays(vars(y).values()))
        assert all(not a.flags.writeable and a.dtype == np.complex128 for a in arrays)
    assert all(y._memo == {} for y in copies)  # a copy starts with an empty memo
    assert reflections == []  # field names are read once per class
    for a in _arrays(kwargs.values()):  # the caller's arrays stay the caller's to change
        a += 1.0
    assert built == x


@pytest.mark.parametrize("kind", ["hirz", "chart", "plane"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, "shape"])
def test_factories_reject_non_finite_entries_and_bad_shapes(kind, bad):
    x, _ = _values()[kind]
    factory, args = {
        "hirz": lambda: (hirz_adhm, (x.n, x.c, x.A1, x.A2, x.C, x.e)),
        "chart": lambda: (chart_coords, (x.m, x.n, x.c, x.B, x.E, x.e, x.A2m)),
        "plane": lambda: (plane_adhm, (x.b1, x.b2, x.e)),
    }[kind]()
    assert factory(*args) == x

    def spoil(a):
        if bad == "shape":
            return a[:-1]
        a = np.array(a)
        a.flat[0] = bad
        return a

    for i, a in enumerate(args):
        if isinstance(a, (np.ndarray, tuple)):
            spoilt = (spoil(a[0]), *a[1:]) if isinstance(a, tuple) else spoil(a)
            with pytest.raises(ShapeError):
                factory(*args[:i], spoilt, *args[i + 1:])


def test_factories_copy_each_caller_array():
    d = gen_hirz_valid(GenConfig(seed=52, n=2, c=3))
    a1, a2, cs, e = np.array(d.A1), np.array(d.A2), [np.array(x) for x in d.C], np.array(d.e)
    built = hirz_adhm(d.n, d.c, a1, a2, cs, e)
    plane = plane_adhm(a1, a2, e)
    for a in (a1, a2, *cs, e):
        a *= 2.0
    assert built == d
    assert plane == plane_adhm(d.A1, d.A2, d.e)


def test_validation_leaves_no_trace_in_repr_or_json():
    d = gen_hirz_valid(GenConfig(seed=53, n=3, c=2))
    twin = dataclasses.replace(d)  # equal arrays, empty memo
    before = (repr(d), serialize.dumps(d))
    assert validate_hirz(d).passed
    canonicalize(d)
    geometry.base_support(d)
    assert d._memo and not twin._memo
    assert (repr(d), serialize.dumps(d)) == before == (repr(twin), serialize.dumps(twin))
    assert d == twin


def test_point_with_a_filled_memo_pickles():
    d = gen_hirz_valid(GenConfig(seed=53, n=2, c=3))
    canonicalize(d)
    geometry.base_support(d)
    assert d._memo
    again = pickle.loads(pickle.dumps(d))
    assert serialize.dumps(again) == serialize.dumps(d)
    assert geometry.base_support(again) == geometry.base_support(d)


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_orbit_equal_with_itself_canonicalizes_once(monkeypatch):
    d = gen_hirz_valid(GenConfig(seed=54, n=2, c=3))
    gauges = _count_calls(monkeypatch, hirz_mod.plane_mod, "_monomial_gauge")
    assert orbit_equal(d, d)
    assert len(gauges) == 1
    canonicalize(d)
    assert len(gauges) == 1


def test_chart_set_after_validation_runs_no_svd(monkeypatch):
    d = gen_hirz_valid(GenConfig(seed=55, n=2, c=4))
    assert validate_hirz(d).passed
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    assert chart_set(d) == validate_hirz(d).chart_set
    assert svds == []


def test_memo_shares_positional_keyword_and_default_tol(monkeypatch):
    d = gen_hirz_valid(GenConfig(seed=56, n=2, c=3))
    m = chart_set(d)[0]
    bodies = _count_calls(monkeypatch, hirz_mod, "_pencil_at")
    binds = _count_calls(monkeypatch, inspect.Signature, "bind")
    cc = to_chart(d, m)
    assert to_chart(d, m, DEFAULT_TOL) is cc
    assert binds == []  # positional calls fill in the defaults without binding
    assert to_chart(d, m, tol=DEFAULT_TOL) is cc
    assert to_chart(d, m=m) is cc
    assert len(binds) == 2
    assert to_chart(d, m, ToleranceConfig()) is cc  # equal tolerances share an entry
    assert len(bodies) == 1
    tight = ToleranceConfig(rank_rel_tol=1e-12)
    other = to_chart(d, m, tight)
    assert other is not cc and to_chart(d, m, tol=tight) is other
    assert len(bodies) == 2
    assert validate_hirz(d, tol=DEFAULT_TOL) is validate_hirz(d)


def test_memo_keys_by_exact_type():
    d = gen_hirz_valid(GenConfig(seed=57, n=1, c=3))
    for m in (0, 1):
        to_chart(d, m)
        with pytest.raises(DomainError, match="m must be an integer"):
            to_chart(d, float(m))


def test_raising_canonicalize_raises_again():
    # a valid point whose monomial gauge is singular at rank_rel_tol
    # (tests/test_regressions.py pins the defect)
    d = gen_hirz_valid(GenConfig(seed=1, n=3, c=12))
    with pytest.raises(InvalidPointError) as first:
        canonicalize(d)
    with pytest.raises(InvalidPointError) as second:
        canonicalize(d)
    assert str(first.value) == str(second.value)
    assert all(key[0] is not canonicalize for key in d._memo)


def test_point_from_writable_arrays_is_memoized(monkeypatch):
    d = gen_hirz_valid(GenConfig(seed=58, n=2, c=3))
    raw = hirz_mod.HirzADHM(n=d.n, c=d.c, A1=np.array(d.A1), A2=np.array(d.A2),
                            C=tuple(np.array(x) for x in d.C), e=np.array(d.e))
    m = chart_set(raw)[0]
    bodies = _count_calls(monkeypatch, hirz_mod, "_pencil_at")
    assert to_chart(raw, m) is to_chart(raw, m)
    assert len(bodies) == 1
    assert canonicalize(raw)[0] is canonicalize(raw)[0]
    assert validate_hirz(raw) is validate_hirz(raw)


def test_unpickled_point_memoizes_again(monkeypatch):
    d = gen_hirz_valid(GenConfig(seed=58, n=2, c=3))
    assert validate_hirz(d).passed and d._memo
    again = pickle.loads(pickle.dumps(d))
    assert again == d and again._memo == {}
    bodies = _count_calls(monkeypatch, hirz_mod, "_pencil_at")
    assert validate_hirz(again) is validate_hirz(again)
    m = chart_set(again)[0]
    assert to_chart(again, m) is to_chart(again, m)
    assert len(bodies) == 1  # validate_hirz's chart step, read back by to_chart


def test_chart_index_must_be_a_python_int():
    d = gen_hirz_valid(GenConfig(seed=59, n=2, c=3))
    m = chart_set(d)[0]
    with pytest.raises(DomainError, match="to_chart: chart index m must be an integer"):
        to_chart(d, np.int64(1))
    cc = to_chart(d, m)
    for bad in (np.int64(1), 1.0):
        with pytest.raises(DomainError, match="transition_omega: chart index l must be an integer"):
            transition_omega(cc, bad)
