"""Known defects, pinned by seed.

Each test asserts the correct behaviour and is marked ``xfail(strict=True)``:
it fails today for the recorded reason, and an unexpected pass (XPASS) fails
the suite, so a fix (or an accidental change of verdict) cannot go unnoticed.
When a defect is fixed, drop its marker; the test then stays as a
regression test for the fix.
"""

import json
import re

import numpy as np
import pytest

from adhmkit.errors import DomainError, InvalidPointError, ShapeError
from adhmkit.geometry import (
    spectrum_vs_pencil_check,
    tot_point,
    um_membership,
    ytilde_point,
    ytilde_to_p1,
)
from adhmkit.hirz import (
    act_gl2,
    canonicalize,
    chart_coords,
    chart_set,
    from_chart,
    hirz_adhm,
    plane_part,
    reconstruct_C,
    syst_rank,
    to_chart,
    transition_omega,
    validate_hirz,
    validate_p3_direct,
)
from adhmkit.linalg import as_covector, as_matrix
from adhmkit.plane import from_points, plane_adhm, transition_plane, validate_plane
from adhmkit.propsuite import GenConfig, gen_hirz_valid, gen_plane_valid, run_suite
from adhmkit.sigma import angle_pair, sigma_matrix


@pytest.mark.xfail(strict=True, raises=InvalidPointError,
                   reason="the monomial gauge of canonical_form is singular at rank_rel_tol")
@pytest.mark.parametrize("seed,n,c", [(1, 3, 12), (2, 5, 20)])
def test_canonicalize_accepts_valid_point(seed, n, c):
    d = gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))
    assert validate_hirz(d).passed
    can, m = canonicalize(d)
    assert m == chart_set(d)[0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="orbit_equal compares canonical forms reached through an "
                          "ill-conditioned monomial gauge and misses a gauge pair")
def test_orbit_calculus_seed_7():
    report = run_suite(seed=7, max_n=3, max_c=6, samples=100,
                       name_filter="hirz_orbit_calculus")
    assert [f["detail"] for r in report.results for f in r.failures] == []


@pytest.mark.parametrize("n,c,seed", [(2, 24, 9), (2, 24, 10), (2, 32, 3), (8, 32, 10)])
def test_support_roots_match_spectrum(n, c, seed):
    # base roots taken from the pencil determinant's coefficients drifted
    # from the spectrum of B beyond eq_rel_tol on these points; the check is
    # true by construction at chart_set(d)[0], where the roots are read, so
    # it is asserted at every chart
    d = gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))
    charts = chart_set(d)
    assert len(charts) > 1
    assert [m for m in charts if not spectrum_vs_pencil_check(d, m)] == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the chart-route co-stability subspace iteration loses the "
                          "destabilizing vector")
@pytest.mark.parametrize("seed,n,c", [(5, 8, 32), (1, 3, 12)])
def test_broken_costability_rejected(seed, n, c):
    d = gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))
    m = chart_set(d)[0]
    v = np.linalg.eig(to_chart(d, m).B)[1][:, 0]
    e = d.e - (d.e @ v) * v.conj() / np.vdot(v, v)
    bad = hirz_adhm(d.n, d.c, d.A1, d.A2, d.C, e)
    assert validate_p3_direct(bad).check("costability_direct").verdict == "fail"
    assert not validate_hirz(bad).passed


def scaled(d, s):
    return hirz_adhm(d.n, d.c, d.A1 * s, d.A2 * s, tuple(x * s for x in d.C), d.e)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow itself
@pytest.mark.parametrize("kind,n,s", [("plane", 1, 1e100), ("hirz", 1, 1e100), ("hirz", 2, 1e160)])
def test_overflowing_residual_is_indeterminate(kind, n, s):
    # a valid point scaled up until its residual overflows to inf (or, as
    # inf / inf, to nan) failed the residual's check, and a nan residual
    # made the report's JSON non-compliant
    if kind == "plane":
        d = gen_plane_valid(GenConfig(seed=3, n=n, c=3))
        assert validate_plane(d).passed
        report = validate_plane(plane_adhm(d.b1 * s, d.b2 * s, d.e))
    else:
        d = gen_hirz_valid(GenConfig(seed=3, n=n, c=3))
        assert validate_hirz(d).passed
        report = validate_hirz(scaled(d, s))
    assert report.indeterminate and all(c.verdict != "fail" for c in report.checks)
    first = report.checks[0]
    assert first.verdict == "indeterminate" and first.residual is None
    assert "not finite" in first.detail
    json.dumps(report.to_json(), allow_nan=False)


def _int_argument_calls():
    """name -> (call taking one integer argument x, all other arguments valid,
    a value out of x's range and the message it gives, or None when x is unbounded)."""
    d = gen_hirz_valid(GenConfig(seed=3, n=2, c=3))
    cc = to_chart(d, chart_set(d)[0])
    one = np.eye(1)
    return {
        "hirz_adhm_n": (lambda x: hirz_adhm(x, 1, one, one, (one,), [1.0]),
                        (65, "hirz_adhm: n must be an integer in 1..64, got 65")),
        "hirz_adhm_c": (lambda x: hirz_adhm(1, x, one, one, (one,), [1.0]),
                        (0, "hirz_adhm: c must be an integer >= 1, got 0")),
        "chart_coords_m": (lambda x: chart_coords(x, 1, 1, one, one, [1.0], one),
                           (2, "chart_coords: m must be an integer in 0..1, got 2")),
        "chart_coords_n": (lambda x: chart_coords(0, x, 1, one, one, [1.0], one),
                           (65, "chart_coords: n must be an integer in 1..64, got 65")),
        "chart_coords_c": (lambda x: chart_coords(0, 1, x, one, one, [1.0], one),
                           (0, "chart_coords: c must be an integer >= 1, got 0")),
        "to_chart": (lambda x: to_chart(d, x),
                     (4, "to_chart: chart index m must be an integer in 0..3, got 4")),
        "transition_omega": (lambda x: transition_omega(cc, x),
                             (-1, "transition_omega: chart index l must be an integer in 0..3, "
                                  "got -1")),
        "reconstruct_C": (lambda x: reconstruct_C(one, one, 0, x, 1),
                          (65, "reconstruct_C: n must be an integer in 1..64, got 65")),
        "syst_rank": (lambda x: syst_rank(one, one, x),
                      (1, "syst_rank: n must be an integer in 2..64, got 1")),
        # twists above 64 were accepted: syst_rank built kron(eye(n-1, n), A1),
        # transition_plane overflowed F^n to NaN (the CLI printed "internal"),
        # and run_suite failed inside a property at reconstruct_C
        "syst_rank_max": (lambda x: syst_rank(one, one, x),
                          (65, "syst_rank: n must be an integer in 2..64, got 65")),
        "transition_plane": (lambda x: transition_plane(plane_part(cc), cc.m, cc.m, x, d.c),
                             (0, "transition_plane: n must be an integer in 1..64, got 0")),
        "transition_plane_max": (lambda x: transition_plane(plane_part(cc), cc.m, cc.m, x, d.c),
                                 (65, "transition_plane: n must be an integer in 1..64, got 65")),
        "transition_plane_m": (lambda x: transition_plane(plane_part(cc), x, cc.m, d.n, d.c),
                               None),
        "transition_plane_l": (lambda x: transition_plane(plane_part(cc), cc.m, x, d.n, d.c),
                               None),
        "from_chart_m": (lambda x: from_chart(x, plane_part(cc), cc.A2m, d.n),
                         (4, "from_chart: m must be an integer in 0..3, got 4")),
        "ytilde_point": (lambda x: ytilde_point(1, 1, 1, 1, x),
                         (0, "ytilde_point: n must be an integer in 1..64, got 0")),
        "tot_point_n": (lambda x: tot_point(1, 1, 1, 1, x),
                        (0, "tot_point: n must be an integer in 1..64, got 0")),
        "tot_point_n_max": (lambda x: tot_point(1, 1, 1, 1, x),
                            (65, "tot_point: n must be an integer in 1..64, got 65")),
        "ytilde_to_p1": (lambda x: ytilde_to_p1(ytilde_point(1, 1, 1, 1, 1), x),
                         (0, "ytilde_to_p1: n must be an integer in 1..64, got 0")),
        # named hirz_adhm, which the lift calls, instead of ytilde_to_p1
        "ytilde_to_p1_max": (lambda x: ytilde_to_p1(ytilde_point(1, 1, 1, 1, 1), x),
                             (65, "ytilde_to_p1: n must be an integer in 1..64, got 65")),
        "um_membership_c_base": (lambda x: um_membership([1, 1], 0, x),
                                 (0, "um_membership: c_base must be an integer >= 1, got 0")),
        "angle_pair_c_base": (lambda x: angle_pair(x, 0),
                              (0, "angle_pair: c_base must be an integer >= 1, got 0")),
        "angle_pair_m": (lambda x: angle_pair(3, x), None),
        "sigma_matrix_h": (lambda x: sigma_matrix(x, 0, 3),
                           (65, "sigma_matrix: h must be an integer in 0..64, got 65")),
        "run_suite_samples": (lambda x: run_suite(seed=1, max_n=1, max_c=1, samples=x),
                              (-1, "run_suite: samples must be an integer >= 0, got -1")),
        "run_suite_max_n": (lambda x: run_suite(seed=1, max_n=x, max_c=1, samples=0),
                            (0, "run_suite: max_n must be an integer in 1..64, got 0")),
        "run_suite_max_n_max": (lambda x: run_suite(seed=1, max_n=x, max_c=1, samples=0),
                                (65, "run_suite: max_n must be an integer in 1..64, got 65")),
        "run_suite_max_c": (lambda x: run_suite(seed=1, max_n=1, max_c=x, samples=0),
                            (0, "run_suite: max_c must be an integer >= 1, got 0")),
    }


@pytest.mark.parametrize("name", sorted(_int_argument_calls()))
def test_bool_is_refused_where_an_integer_is_expected(name):
    # isinstance(True, int) holds, so True passed as 1: to_chart(d, True)
    # returned m=True, which dumps wrote as "m": true and loads refused;
    # transition_plane passed m - l on to angle_pair, so m=True was chart 1
    call, _ = _int_argument_calls()[name]
    for bad in (1.5, True):
        with pytest.raises(DomainError, match=f" must be an integer.*, got {bad!r}$") as exc:
            call(bad)
        assert type(exc.value) is DomainError


@pytest.mark.parametrize("name", sorted(k for k, v in _int_argument_calls().items() if v[1]))
def test_out_of_range_integer_is_a_domain_error(name):
    # chart_coords refused a bad m or n, and hirz_adhm an n above 64, as
    # ShapeError; from_chart built a point at a chart index beyond c
    call, (value, message) = _int_argument_calls()[name]
    with pytest.raises(DomainError) as exc:
        call(value)
    assert type(exc.value) is DomainError and str(exc.value) == message


def _spoiled_field_calls():
    """field name, or "field:case", -> call that passes that one field with a wrong shape."""
    d = gen_hirz_valid(GenConfig(seed=3, n=2, c=3))
    cc = to_chart(d, chart_set(d)[0])
    wrong = np.eye(d.c + 1)
    return {
        "A2": lambda: hirz_adhm(d.n, d.c, d.A1, wrong, d.C, d.e),
        "C[1]": lambda: hirz_adhm(d.n, d.c, d.A1, d.A2, (d.C[0], wrong), d.e),
        "A2m": lambda: chart_coords(cc.m, cc.n, cc.c, cc.B, cc.E, cc.e, wrong),
        "e": lambda: plane_adhm(cc.B, cc.E, np.ones(d.c + 1)),
        "phi2": lambda: act_gl2(d, np.eye(d.c), wrong),
        "A": lambda: from_chart(cc.m, plane_part(cc), wrong, d.n),
        "x": lambda: um_membership(np.ones(d.c), 0, d.c),
        # non-numeric, ragged or non-sequence input escaped as a bare
        # ValueError or TypeError, which the CLI labels internal
        "matrix:text": lambda: as_matrix("abc"),
        "matrix:ragged": lambda: as_matrix([[1, 2], [3]]),
        "covector": lambda: as_covector({"a": 1}),
        "C": lambda: hirz_adhm(1, 1, np.eye(1), np.eye(1), None, [1.0]),
        "points:scalars": lambda: from_points([1, 2]),
        "points:triple": lambda: from_points([(1, 2, 3)]),
        # numpy reads bools, numeric strings and bytes as numbers, so these
        # built a point; every one of them is refused now
        "A1:text": lambda: hirz_adhm(1, 1, [["3"]], [[True]], [[["1"]]], ["1"]),
        "A2:bool": lambda: hirz_adhm(1, 1, [[3.0]], [[True]], [[[1.0]]], [1.0]),
        "C[0]:text": lambda: hirz_adhm(1, 1, [[3.0]], [[2.0]], [[["1"]]], [1.0]),
        "e:text": lambda: hirz_adhm(1, 1, [[3.0]], [[2.0]], [[[1.0]]], ["1"]),
        "matrix:bytes": lambda: as_matrix([[b"2"]]),
        "matrix:mixed bool": lambda: as_matrix([[True, 2.0]]),
        "matrix:bool array": lambda: as_matrix(np.ones((2, 2), dtype=bool)),
        "matrix:text array": lambda: as_matrix(np.array([["1", "2"]])),
        "matrix:object array": lambda: as_matrix(np.array([[1.0, True]], dtype=object)),
        "matrix:numpy bool": lambda: as_matrix([(np.bool_(True), 1.0)]),
        "covector:bool": lambda: as_covector((1.0, False)),
        "covector:bytes array": lambda: as_covector(np.array([b"1"])),
        "b1:text": lambda: plane_adhm([["1"]], [[1.0]], [1.0]),
    }


@pytest.mark.parametrize("field", sorted(_spoiled_field_calls()))
def test_wrong_shape_names_the_field(field):
    with pytest.raises(ShapeError, match=f"^{re.escape(field.split(':')[0])}: expected a"):
        _spoiled_field_calls()[field]()
