import re

import numpy as np
import pytest

from adhmkit import geometry
from adhmkit import hirz as hirz_mod
from adhmkit.errors import DomainError, IndeterminateError, InvalidPointError, ShapeError
from adhmkit.geometry import (
    base_support,
    chart_support,
    p1_to_tot,
    pencil_form,
    spectrum_vs_pencil_check,
    tot_point,
    um_membership,
    ytilde_point,
    ytilde_to_p1,
)
from adhmkit.hirz import (
    act_gl2,
    canonicalize,
    chart_set,
    from_chart,
    orbit_equal,
    validate_hirz,
    validate_p3,
    validate_p3_direct,
)
from adhmkit.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    binary_form_roots,
    proj_distance,
    proj_point,
)
from adhmkit.plane import canonical_form, from_points, joint_spectrum, orbit_equal_plane, plane_adhm
from adhmkit.propsuite import GenConfig, gen_hirz_valid, gen_plane_valid


def test_pencil_form_frozen_diagonal():
    f = pencil_form(np.diag([1.0 + 0j, 2.0]), np.eye(2, dtype=complex))
    # (nu1 + nu2)(2 nu1 + nu2) = 2 nu1^2 + 3 nu1 nu2 + nu2^2
    assert np.allclose(f.coeffs, [2.0, 3.0, 1.0], atol=1e-12)


def test_pencil_form_matches_determinant_pointwise():
    rng = np.random.default_rng(5)
    for c in (1, 2, 3, 5):
        a1 = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
        a2 = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
        f = pencil_form(a1, a2)
        for _ in range(4):
            nu1, nu2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            want = np.linalg.det(nu1 * a1 + nu2 * a2)
            assert abs(f(nu1, nu2) - want) < 1e-9 * max(abs(want), 1.0)


def test_pencil_form_zero_is_allowed_but_rootless():
    z = np.zeros((2, 2), dtype=complex)
    f = pencil_form(z, z)
    assert np.allclose(f.coeffs, 0.0)
    with pytest.raises(InvalidPointError):
        binary_form_roots(f)


def test_pencil_form_shape_mismatch():
    with pytest.raises(ShapeError):
        pencil_form(np.eye(2), np.eye(3))


def test_base_support_frozen_two_points():
    d = from_chart(0, from_points(((1.0, 3.0), (2.0, 4.0))),
                   np.eye(2, dtype=complex), 1)
    support = base_support(d)
    roots = sorted(support.base, key=lambda rm: abs(rm[0].lam1 / rm[0].lam2))
    assert all(mult == 1 for _, mult in roots)
    assert proj_distance(roots[0][0], proj_point(-1.0, 1.0)) < 1e-8
    assert proj_distance(roots[1][0], proj_point(-2.0, 1.0)) < 1e-8


def test_base_support_multiplicity():
    d = from_chart(0, from_points(((1.0, 3.0), (1.0, 4.0))),
                   np.eye(2, dtype=complex), 1)
    support = base_support(d)
    assert len(support.base) == 1
    pt, mult = support.base[0]
    assert mult == 2
    assert proj_distance(pt, proj_point(-1.0, 1.0)) < 1e-6


def _broken_point():
    d = gen_hirz_valid(GenConfig(seed=70, n=2, c=2))
    cs = list(np.array(x) for x in d.C)
    cs[0] = cs[0] + 1.0
    return hirz_mod.hirz_adhm(d.n, d.c, d.A1, d.A2, tuple(cs), d.e)


def _scaled_point(s):
    d = gen_hirz_valid(GenConfig(seed=3, n=1, c=3))
    return hirz_mod.hirz_adhm(d.n, d.c, d.A1 * s, d.A2 * s, tuple(x * s for x in d.C), d.e)


def _scaled_triple(s):
    d = gen_plane_valid(GenConfig(seed=3, c=3))
    return plane_adhm(d.b1 * s, d.b2 * s, d.e)


def _pencil_below_noise():
    # P1 passes; the chart set is empty, but the pencil is not certainly zero
    a1 = np.diag([1.0 + 0j, 1e-20])
    return hirz_mod.hirz_adhm(1, 2, a1, 2.0 * a1, (np.eye(2, dtype=complex),),
                              np.ones(2, dtype=complex))


_NON_COMMUTING = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))

# call -> (who raises, its message on a failing input, the call on one input)
_POINT_CALLS = {
    "base_support": ("base_support", "input is not a valid point", base_support),
    "chart_support": ("chart_support", "input is not a valid point", lambda d: chart_support(d, 0)),
    "canonicalize": ("canonicalize", "input is not a valid point", canonicalize),
    "orbit_equal": ("canonicalize", "input is not a valid point", lambda d: orbit_equal(d, d)),
    "validate_p3": ("validate_p3", "intertwining relations fail", validate_p3),
    "validate_p3_direct": ("validate_p3_direct", "intertwining relations fail",
                           validate_p3_direct),
    "jacobian_nullity": ("jacobian_nullity", "input is not a valid point",
                         hirz_mod.jacobian_nullity),
}
_TRIPLE_CALLS = {
    "from_chart": ("from_chart", "plane data is not valid",
                   lambda t: from_chart(0, t, np.eye(t.c), 2)),
    "canonical_form": ("canonical_form", "input is not a valid plane triple", canonical_form),
    "orbit_equal_plane": ("canonical_form", "input is not a valid plane triple",
                          lambda t: orbit_equal_plane(t, t)),
    "joint_spectrum": ("joint_spectrum", "matrices do not commute at tolerance", joint_spectrum),
}
# input -> (the uncertified check, None when a check fails; the input)
_POINTS = {
    "broken": (None, _broken_point),
    "pencil_below_noise": ("pencil_nondegenerate", _pencil_below_noise),
    "scaled_1e100": ("intertwine", lambda: _scaled_point(1e100)),
}
_TRIPLES = {
    "non_commuting": (None, lambda: plane_adhm(*_NON_COMMUTING, np.ones(2))),
    "scaled_1e100": ("commutation", lambda: _scaled_triple(1e100)),
    "scaled_1e160": ("commutation", lambda: _scaled_triple(1e160)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow itself
@pytest.mark.parametrize("call,data", [(c, k) for c in _POINT_CALLS for k in _POINTS]
                         + [(c, k) for c in _TRIPLE_CALLS for k in _TRIPLES])
def test_requires_valid_point(call, data):
    # a failing check refuses the input as invalid; an uncertified one as
    # indeterminate, naming that check and not the ones refused after it
    calls, inputs = (_POINT_CALLS, _POINTS) if call in _POINT_CALLS else (_TRIPLE_CALLS, _TRIPLES)
    who, what, fn = calls[call]
    cause, make = inputs[data]
    error, pattern = ((InvalidPointError, f"^{who}: {re.escape(what)}$") if cause is None
                      else (IndeterminateError, f"^{who}: cannot certify {cause}$"))
    with pytest.raises(error, match=pattern):
        fn(make())


def test_spectrum_vs_pencil_on_generated_points():
    for seed in range(6):
        d = gen_hirz_valid(GenConfig(seed=200 + seed, n=1 + seed % 3, c=1 + seed % 4))
        for m in chart_set(d):
            assert spectrum_vs_pencil_check(d, m)


@pytest.mark.parametrize("n,c", [(1, 1), (2, 2), (3, 3), (2, 6), (3, 9), (2, 12)])
def test_base_roots_are_zeros_of_the_pencil_determinant(n, c):
    # base_support reads the roots off the spectrum of B; the determinant's
    # coefficients, computed independently, must still vanish there
    for seed in range(3):
        d = gen_hirz_valid(GenConfig(seed=80 + seed, n=n, c=c))
        f = pencil_form(d.A2, d.A1)
        p = np.arange(c + 1)
        support = base_support(d).base
        assert sum(mult for _, mult in support) == c
        for pt, _ in support:
            terms = f.coeffs * pt.lam1 ** (c - p) * pt.lam2**p
            assert abs(terms.sum()) <= 1e-8 * np.abs(terms).sum()


def test_chart_support_pairs_match_joint_spectrum():
    d = gen_hirz_valid(GenConfig(seed=71, n=2, c=3))
    m = chart_set(d)[0]
    support = chart_support(d, m)
    assert support.chart_pairs is not None
    got_m, pairs = support.chart_pairs
    assert got_m == m
    from adhmkit.hirz import plane_part, to_chart
    want = joint_spectrum(plane_part(to_chart(d, m)))
    assert len(pairs) == len(want) == d.c
    for (b1, b2), (w1, w2) in zip(sorted(pairs, key=lambda z: (z[0].real, z[0].imag)),
                                  sorted(want, key=lambda z: (z[0].real, z[0].imag))):
        assert abs(b1 - w1) < 1e-7
        assert abs(b2 - w2) < 1e-7


def test_chart_support_charts_the_point_once(monkeypatch):
    d = gen_hirz_valid(GenConfig(seed=72, n=2, c=3))
    charts = chart_set(d)
    assert len(charts) > 1
    real = geometry.to_chart
    calls = []
    monkeypatch.setattr(geometry, "to_chart", lambda *a: calls.append(a[1]) or real(*a))
    first = chart_support(d, charts[0])
    assert calls == [charts[0]]
    # any other chart still takes its base roots from the first one
    other = chart_support(d, charts[1])
    assert calls[1:] == [charts[1], charts[0]]
    assert other.base == first.base == base_support(d).base


def test_base_support_gauge_invariant():
    d = gen_hirz_valid(GenConfig(seed=72, n=2, c=2))
    rng = np.random.default_rng(3)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    moved = act_gl2(d, g1, g2)
    s1 = base_support(d).base
    s2 = base_support(moved).base
    assert len(s1) == len(s2)
    for (p1, m1), (p2, m2) in zip(s1, s2):
        assert m1 == m2
        assert proj_distance(p1, p2) < 1e-7


def test_um_membership_basis_vectors():
    # at chart 0 the cover functional is the first coordinate itself
    c = 3
    for p in range(c + 1):
        x = np.zeros(c + 1)
        x[p] = 1.0
        assert um_membership(x, 0, c) == (p == 0)


def test_um_membership_scaling_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = int(rng.integers(1, 5))
        m = int(rng.integers(0, c + 2))
        x = rng.normal(size=c + 1) + 1j * rng.normal(size=c + 1)
        assert um_membership(x, m, c) == um_membership(1e6 * x, m, c)
        assert um_membership(x, m, c) == um_membership(1e-6 * x, m, c)


def test_um_cover_property():
    rng = np.random.default_rng(12)
    for _ in range(30):
        c = int(rng.integers(1, 6))
        x = rng.normal(size=c + 1) + 1j * rng.normal(size=c + 1)
        assert any(um_membership(x, m, c) for m in range(c + 1))


def test_um_membership_rejects_bad_input():
    with pytest.raises(ShapeError):
        um_membership([1.0, 0.0], 0, 2)
    with pytest.raises(ShapeError):
        um_membership([0.0, 0.0, 0.0], 0, 2)


def test_point_factories_check_relations():
    # both relations are homogeneous in y, so the verdict holds at every scale
    # of y: a 1e-30 floor on the scale passed tot_point(1e-10, 1e-10, 1, 2, 5),
    # and y^2 overflowed at 1e200
    for s in (1.0, 1e-10, 1e-30, 1e-200, 2.0**-1074, 1e200):
        tot_point(s, 2 * s, 4, 1, 2)  # 4 * 1 = 1 * 4
        with pytest.raises(InvalidPointError, match="relative error"):
            tot_point(s, 2 * s, 4, 2, 2)
        with pytest.raises(InvalidPointError, match="relative error 5.000e-01"):
            tot_point(s, s, 1, 2, 5)
        ytilde_point(s, 2 * s, 2, 1, 2)  # 2 * 1 = 1 * 2
        with pytest.raises(InvalidPointError, match="relative error"):
            ytilde_point(s, 2 * s, 2, 3, 2)
    # both sides are split exactly into mantissa and power of two, so products
    # that would leave the normal range keep every bit: y balanced alone left
    # 1e-300 * 2^-64 subnormal, where a 1e-6 violation rounded away
    with pytest.raises(InvalidPointError, match="relative error 1.000e-06"):
        tot_point(2**15, 2**15, 1e-300, 1.000001e-300, 64)
    with pytest.raises(InvalidPointError, match="relative error 1.000e\\+00"):
        tot_point(1, 1e-300, 0, 1, 2)  # 0 = 1e-600 underflowed to 0 = 0
    tot_point(2.0**-16, 2.0**16, 2.0**1000, 2.0**-1048, 64)  # 2^-24 = 2^-24
    z = 1.5e308 + 1.5e308j  # |z| overflows although both parts are finite
    ytilde_point(1, 1, z, z, 1)
    with pytest.raises(InvalidPointError):
        tot_point(0, 0, 1, 1, 2)
    with pytest.raises(InvalidPointError):
        ytilde_point(0, 0, 1, 1, 2)


@pytest.mark.parametrize("n", [0, -1])
def test_point_factories_reject_nonpositive_n(n):
    # with y1 = 0 a negative exponent would divide by zero before any relation check
    with pytest.raises(DomainError, match="ytilde_point: n must be an integer in 1..64"):
        ytilde_point(0, 1, 1, 0, n)
    with pytest.raises(DomainError, match="tot_point: n must be an integer in 1..64"):
        tot_point(0, 1, 1, 0, n)
    with pytest.raises(DomainError):
        ytilde_point(1, 2, 2, 1, n)


def test_ytilde_to_p1_branch_two_frozen():
    p = ytilde_point(1, 2, 2, 1, 2)  # |y2| wins
    d = ytilde_to_p1(p, 2)
    vals = (d.A1[0, 0], d.A2[0, 0], d.C[0][0, 0], d.C[1][0, 0], d.e[0])
    assert np.allclose(vals, (1, 2, 2, 1, 1), atol=1e-14)
    assert validate_hirz(d).passed


def test_ytilde_to_p1_branch_one_frozen():
    p = ytilde_point(2, 1, 1, 2, 2)  # |y1| wins
    d = ytilde_to_p1(p, 2)
    vals = (d.A1[0, 0], d.A2[0, 0], d.C[0][0, 0], d.C[1][0, 0], d.e[0])
    assert np.allclose(vals, (2, 1, 1, 2, 1), atol=1e-14)
    assert validate_hirz(d).passed


def test_ytilde_to_p1_rejects_bad_n():
    p = ytilde_point(1, 2, 2, 1, 2)
    with pytest.raises(DomainError):
        ytilde_to_p1(p, 0)


def test_p1_to_tot_frozen_values():
    d2 = ytilde_to_p1(ytilde_point(1, 2, 2, 1, 2), 2)
    t2 = p1_to_tot(d2)
    assert np.allclose((t2.y1, t2.y2, t2.u1, t2.u2), (1, 2, 4, 1), atol=1e-12)
    d1 = ytilde_to_p1(ytilde_point(2, 1, 1, 2, 2), 2)
    t1 = p1_to_tot(d1)
    assert np.allclose((t1.y1, t1.y2, t1.u1, t1.u2), (2, 1, 1, 4), atol=1e-12)


def test_p1_to_tot_rejects_larger_configurations():
    d = gen_hirz_valid(GenConfig(seed=73, n=2, c=2))
    with pytest.raises(ShapeError):
        p1_to_tot(d)


def test_c1_bridge_identities():
    # u1 = x1 y2 and u2 = x2 y1 across both branches and many draws
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        y1, y2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        x1 = rng.normal() + 1j * rng.normal()
        if abs(y1) >= abs(y2):
            x2 = x1 * y1 ** (n - 1) / y2 ** (n - 1)
        else:
            x2 = x1
            x1 = x2 * y2 ** (n - 1) / y1 ** (n - 1)
        p = ytilde_point(y1, y2, x1, x2, n)
        t = p1_to_tot(ytilde_to_p1(p, n))
        assert abs(t.u1 - p.x1 * p.y2) < 1e-10 * max(abs(t.u1), 1.0)
        assert abs(t.u2 - p.x2 * p.y1) < 1e-10 * max(abs(t.u2), 1.0)


def test_spectrum_checks_over_the_chart_set_chart_the_first_chart_once(monkeypatch):
    d = gen_hirz_valid(GenConfig(seed=21, n=2, c=4))
    charts = chart_set(d)
    assert len(charts) > 1
    real = hirz_mod._pencil_at
    firsts = []

    def counting(d, m):
        if m == charts[0]:
            firsts.append(m)
        return real(d, m)

    monkeypatch.setattr(hirz_mod, "_pencil_at", counting)
    assert all(spectrum_vs_pencil_check(d, m) for m in charts)
    assert firsts == [charts[0]]


def test_base_support_is_memoized_per_tolerance():
    d = gen_hirz_valid(GenConfig(seed=22, n=1, c=3))
    sup = base_support(d)
    assert base_support(d, DEFAULT_TOL) is sup and base_support(d, tol=DEFAULT_TOL) is sup
    wide = base_support(d, ToleranceConfig(root_cluster_tol=1e-3))
    assert wide is not sup and wide.base == sup.base
