"""Known defects, pinned by seed.

Each test asserts the correct behaviour and is marked ``xfail(strict=True)``:
it fails today for the recorded reason, and an unexpected pass (XPASS) fails
the suite, so a fix (or an accidental change of verdict) cannot go unnoticed.
When a defect is fixed, drop its marker; the test then stays as a
regression test for the fix.
"""

import json

import numpy as np
import pytest

from adhmkit.errors import ADHMKitError, InvalidPointError
from adhmkit.geometry import spectrum_vs_pencil_check, ytilde_point, ytilde_to_p1
from adhmkit.hirz import (
    canonicalize,
    chart_coords,
    chart_set,
    hirz_adhm,
    plane_part,
    reconstruct_C,
    syst_rank,
    to_chart,
    transition_omega,
    validate_hirz,
    validate_p3_direct,
)
from adhmkit.plane import plane_adhm, transition_plane, validate_plane
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
    # from the spectrum of B beyond eq_rel_tol on these points
    d = gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))
    assert spectrum_vs_pencil_check(d, chart_set(d)[0])


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
    """name -> call taking one integer argument x, all other arguments valid."""
    d = gen_hirz_valid(GenConfig(seed=3, n=2, c=3))
    cc = to_chart(d, chart_set(d)[0])
    one = np.eye(1)
    return {
        "hirz_adhm_n": lambda x: hirz_adhm(x, 1, one, one, (one,), [1.0]),
        "hirz_adhm_c": lambda x: hirz_adhm(1, x, one, one, (one,), [1.0]),
        "chart_coords_m": lambda x: chart_coords(x, 1, 1, one, one, [1.0], one),
        "chart_coords_n": lambda x: chart_coords(0, x, 1, one, one, [1.0], one),
        "to_chart": lambda x: to_chart(d, x),
        "transition_omega": lambda x: transition_omega(cc, x),
        "reconstruct_C": lambda x: reconstruct_C(one, one, 0, x, 1),
        "syst_rank": lambda x: syst_rank(one, one, x),
        "transition_plane": lambda x: transition_plane(plane_part(cc), cc.m, cc.m, x, d.c),
        "ytilde_point": lambda x: ytilde_point(1, 1, 1, 1, x),
        "ytilde_to_p1": lambda x: ytilde_to_p1(ytilde_point(1, 1, 1, 1, 1), x),
        "angle_pair_c_base": lambda x: angle_pair(x, 0),
        "angle_pair_m": lambda x: angle_pair(3, x),
        "sigma_matrix_h": lambda x: sigma_matrix(x, 0, 3),
        "run_suite_samples": lambda x: run_suite(seed=1, max_n=1, max_c=1, samples=x),
    }


@pytest.mark.parametrize("name", sorted(_int_argument_calls()))
def test_bool_is_refused_where_an_integer_is_expected(name):
    # isinstance(True, int) holds, so True passed as 1: to_chart(d, True)
    # returned m=True, which dumps wrote as "m": true and loads refused
    call = _int_argument_calls()[name]
    with pytest.raises(ADHMKitError) as fractional:
        call(1.5)
    with pytest.raises(ADHMKitError) as boolean:
        call(True)
    assert type(boolean.value) is type(fractional.value)
