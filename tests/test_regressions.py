"""Known defects, pinned by seed.

Each test asserts the correct behaviour and is marked ``xfail(strict=True)``:
it fails today for the recorded reason, and an unexpected pass (XPASS) fails
the suite, so a fix (or an accidental change of verdict) cannot go unnoticed.
When a defect is fixed, drop its marker; the test then stays as a
regression test for the fix.
"""

import numpy as np
import pytest

from adhmkit.errors import InvalidPointError
from adhmkit.geometry import spectrum_vs_pencil_check
from adhmkit.hirz import (
    canonicalize,
    chart_set,
    hirz_adhm,
    to_chart,
    validate_hirz,
    validate_p3_direct,
)
from adhmkit.propsuite import GenConfig, gen_hirz_valid, run_suite


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
