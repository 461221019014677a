"""Known defects, pinned by seed.

Each test asserts the correct behaviour and is marked ``xfail(strict=True)``:
it fails today for the recorded reason, and an unexpected pass (XPASS) fails
the suite, so a fix (or an accidental change of verdict) cannot go unnoticed.
When a defect is fixed, drop its marker; the test then stays as a
regression test for the fix.
"""

import json
import re
import warnings

import numpy as np
import pytest

from adhmkit import cli
from adhmkit.errors import DomainError, IndeterminateError, InvalidPointError, ShapeError
from adhmkit.geometry import (
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
from adhmkit.linalg import as_covector, as_matrix, binary_form_roots
from adhmkit.plane import from_points, plane_adhm, transition_plane, validate_plane
from adhmkit.propsuite import GenConfig, gen_hirz_valid, gen_plane_valid, run_suite
from adhmkit.serialize import dumps
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
    bad = broken_twin(gen_hirz_valid(GenConfig(seed=seed, n=n, c=c)))
    assert validate_p3_direct(bad).check("costability_direct").verdict == "fail"
    assert not validate_hirz(bad).passed


def saved(tmp_path, d):
    """The path of a file holding d, for the commands."""
    path = tmp_path / "point.json"
    path.write_text(dumps(d))
    return str(path)


def broken_twin(d):
    """d with e projected off the first eigenvector of B at its first chart."""
    v = np.linalg.eig(to_chart(d, chart_set(d)[0]).B)[1][:, 0]
    e = d.e - (d.e @ v) * v.conj() / np.vdot(v, v)
    return hirz_adhm(d.n, d.c, d.A1, d.A2, d.C, e)


@pytest.mark.parametrize("n,seed", [(1, 4), (2, 4), (3, 4), (5, 0), (5, 1), (5, 4),
                                    (8, 0), (8, 1), (8, 4)])
def test_direct_costability_rejects_broken_twin_at_c32(n, seed, tmp_path, adhmkit):
    # the direct test also checked that the kernel vector is a joint
    # eigenvector with weights lam1^n a = (-1)^n lam2^n b; P1 implies both,
    # and the weight test, raising a drifting root to the n-th power, called
    # these twins stable
    bad = broken_twin(gen_hirz_valid(GenConfig(seed=seed, n=n, c=32)))
    assert validate_p3_direct(bad).check("costability_direct").verdict == "fail"
    if n == 8 and seed < 2:  # the real command on the largest supported size
        assert adhmkit("validate", "--p3-method", "direct", saved(tmp_path, bad))[0] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_intertwining_implies_direct_costability_conditions(n):
    # the premise of validate_p3_direct: A2 C1 A1 = A1 C1 A2 and
    # A2 C_n A1 = A1 C_n A2 hold on valid points, so a one-dimensional
    # pencil kernel is invariant under C1 A2 and C_n A1
    for c in (1, 2, 3, 6, 12):
        for seed in range(3):
            d = gen_hirz_valid(GenConfig(seed=seed, n=n, c=c))
            for cq in (d.C[0], d.C[-1]):
                scale = np.linalg.norm(d.A1) * np.linalg.norm(cq) * np.linalg.norm(d.A2)
                resid = np.linalg.norm(d.A2 @ cq @ d.A1 - d.A1 @ cq @ d.A2)
                assert resid <= 1e-9 * scale, (n, c, seed)


def overflowing_pencil_point():
    """A valid point whose pencil determinant overflows while P1 and P2 still pass."""
    d = gen_hirz_valid(GenConfig(seed=1, n=3, c=6))
    s = 2.0**256
    return hirz_adhm(d.n, d.c, d.A1 * s, d.A2 * s, tuple(x / s for x in d.C), d.e)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow itself
def test_overflowing_pencil_determinant_is_indeterminate():
    # binary_form's finiteness check for outside input reported this as a
    # "shape" error
    d = overflowing_pencil_point()
    assert validate_hirz(d).passed
    with pytest.raises(IndeterminateError, match="^pencil_form: "):
        pencil_form(d.A2, d.A1)
    with pytest.raises(IndeterminateError, match="^pencil_form: "):
        validate_p3_direct(d)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [["validate", "--p3-method", "direct"],
                                  ["validate", "--p3-method", "both"], ["hilbert-chow"]])
def test_overflowing_pencil_determinant_is_indeterminate_in_cli(argv, tmp_path, capsys, adhmkit):
    argv = [*argv, saved(tmp_path, overflowing_pencil_point())]
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["error"] == "indeterminate" and payload["detail"].startswith("pencil_form: ")
    assert adhmkit(*argv) == (2, out, "")


def scaled_pencil(d, s):
    return hirz_adhm(d.n, d.c, d.A1 * s, d.A2 * s, d.C, d.e)


def underflowing_pencil_point(seed, n, c, k):
    """A valid point with A1, A2 scaled by 2^k so far that its pencil determinant
    underflows: to 0.0 at every sample for k = -60, to subnormals otherwise."""
    return scaled_pencil(gen_hirz_valid(GenConfig(seed=seed, n=n, c=c)), 2.0**k)


UNDERFLOWS = [(0, 1, 32, -60), (1, 3, 24, -44), (2, 2, 32, -32)]


@pytest.mark.parametrize("seed,n,c,k", UNDERFLOWS)
def test_underflowing_pencil_determinant_is_indeterminate(seed, n, c, k):
    # validate_p3_direct called the first point invalid ("form is identically
    # zero") and raised numpy's LinAlgError on the subnormal forms of the
    # others; a pencil that P2 has certified regular cannot have a zero form
    d = underflowing_pencil_point(seed, n, c, k)
    assert validate_hirz(d).passed
    form = pencil_form(d.A2, d.A1)
    assert np.abs(form.coeffs).max() < np.finfo(float).tiny
    if k == -60:
        assert not form.coeffs.any()
        with pytest.raises(InvalidPointError, match="^binary_form_roots: form is identically zero$"):
            binary_form_roots(form)
    with pytest.raises(IndeterminateError, match=r"^pencil_form: the pencil determinant underflows "):
        validate_p3_direct(d)


@pytest.mark.parametrize("point", UNDERFLOWS)
@pytest.mark.parametrize("argv,code,error", [
    (["validate"], 0, None),
    (["validate", "--p3-method", "direct"], 2, "indeterminate"),
    (["validate", "--p3-method", "both"], 2, "indeterminate"),
    # normalizing the form printed "internal" (nan or inf is not JSON compliant)
    # or a form of subnormal noise
    (["hilbert-chow"], 2, "indeterminate"),
])
def test_underflowing_pencil_determinant_is_indeterminate_in_cli(argv, code, error, point,
                                                                 tmp_path, capsys, adhmkit):
    argv = [*argv, saved(tmp_path, underflowing_pencil_point(*point))]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert json.loads(out).get("error") == error
    if point == UNDERFLOWS[0]:  # the real command on the form that is 0.0 at every sample
        assert adhmkit(*argv) == (code, out, "")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subnormal_leading_coefficient_is_not_internal(n, tmp_path, capsys, adhmkit):
    # the largest pencil coefficient is normal (1.5e-307) and the leading one
    # subnormal (1.3e-309): np.roots divided by it, overflowed, and raised
    # LinAlgError, which the command printed as "internal"
    d = scaled_pencil(gen_hirz_valid(GenConfig(seed=0, n=n, c=24)), 2.0**-42)
    assert validate_p3_direct(d).verdict != "fail"
    argv = ["validate", "--p3-method", "direct", saved(tmp_path, d)]
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    assert json.loads(out).get("error") != "internal"
    assert adhmkit(*argv) == (2, out, "")


def scaled(d, s, t=None):
    """d with A1, A2 scaled by s and every C_q by t (by s when t is None)."""
    t = s if t is None else t
    return hirz_adhm(d.n, d.c, d.A1 * s, d.A2 * s, tuple(x * t for x in d.C), d.e)


def _overflowing_residual_point():
    return scaled(gen_hirz_valid(GenConfig(seed=3, n=1, c=3)), 1e100)


@pytest.mark.parametrize("point,argv", [
    (overflowing_pencil_point, ["validate"]),
    (overflowing_pencil_point, ["support"]),
    (overflowing_pencil_point, ["chart-set"]),
    (overflowing_pencil_point, ["validate", "--p3-method", "both"]),
    (overflowing_pencil_point, ["hilbert-chow"]),
    (_overflowing_residual_point, ["validate"]),
    (_overflowing_residual_point, ["support"]),
    (_overflowing_residual_point, ["hilbert-chow"]),
], ids=lambda v: getattr(v, "__name__", None) or "-".join(v))
def test_cli_keeps_numpy_warnings_off_stderr(point, argv, tmp_path, capsys, adhmkit):
    # numpy's "overflow encountered in det/dot" and "invalid value encountered
    # in fft" reached stderr, though each such value already is an
    # indeterminate check or error; Python callers still see the warnings
    argv = [*argv, saved(tmp_path, point())]
    with pytest.warns(RuntimeWarning):
        validate_hirz(point())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    assert adhmkit(*argv) == (code, out, "")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow itself
@pytest.mark.parametrize("kind,n,s", [
    ("plane", 1, 1e100), ("hirz", 1, 1e100), ("hirz", 2, 1e160),
    # the second factor's norm underflows to 0 and the first's overflows, so
    # the scale was inf * 0 = nan (or the product inf): P1 read that as
    # residual 0.0, the commutator as 0.0 and then failed co-stability
    pytest.param("plane", 1, (2.0**520, 2.0**-520), id="plane-1-2^520-2^-520"),
    pytest.param("hirz", 2, (2.0**600, 2.0**-600), id="hirz-2-2^600-2^-600"),
])
def test_overflowing_residual_is_indeterminate(kind, n, s, tmp_path, adhmkit):
    # a valid point scaled up until its residual overflows to inf (or, as
    # inf / inf, to nan) failed the residual's check, and a nan residual
    # made the report's JSON non-compliant
    mixed = isinstance(s, tuple)
    s, t = s if mixed else (s, s)
    if kind == "plane":
        d = gen_plane_valid(GenConfig(seed=3, n=n, c=3))
        assert validate_plane(d).passed
        point = plane_adhm(d.b1 * s, d.b2 * t, d.e)
        report = validate_plane(point)
    else:
        d = gen_hirz_valid(GenConfig(seed=3, n=n, c=3))
        assert validate_hirz(d).passed
        point = scaled(d, s, t)
        report = validate_hirz(point)
    assert report.indeterminate and all(c.verdict != "fail" for c in report.checks)
    first = report.checks[0]
    assert first.verdict == "indeterminate" and first.residual is None
    assert "not finite" in first.detail
    json.dumps(report.to_json(), allow_nan=False)
    if mixed and kind == "plane":  # the valid triple once failed (exit 1) in the real command
        code, out, _ = adhmkit("validate-plane", saved(tmp_path, point))
        assert code == 2 and json.loads(out)["indeterminate"] is True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hirz_verdict_survives_exact_upscaling():
    # the chart-route shrink loop found a two-dimensional invariant subspace
    # in ker(e) once A and C are scaled by 2^256; now |E| at the chart (E =
    # D A2m, of order 2^512) overflows, so the chart triple's commutation and
    # with it co-stability are indeterminate (ROADMAP item 5 would certify it)
    d = gen_hirz_valid(GenConfig(seed=0, n=2, c=3))
    assert validate_hirz(d).passed
    assert validate_hirz(scaled(d, 2.0**256)).verdict != "fail"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
def test_p1_broken_mixed_scale_twin_is_not_passed(seed, tmp_path, adhmkit):
    # C_2 + x breaks the intertwining relations; with A scaled by 2^600 and C
    # by 2^-600, |C| underflows to 0 and |A| overflows, and the nan scale
    # read as residual 0.0 passed the point (exit 0 in the real command)
    d = gen_hirz_valid(GenConfig(seed=seed, n=2, c=3))
    x = np.random.default_rng(seed).normal(size=(3, 3))
    bad = hirz_adhm(2, 3, d.A1, d.A2, (d.C[0], d.C[1] + x), d.e)
    assert validate_hirz(bad).verdict == "fail"
    assert validate_hirz(scaled(bad, 2.0**600, 2.0**-600)).verdict != "pass"
    if seed == 0:
        code, out, _ = adhmkit("validate", saved(tmp_path, scaled(bad, 2.0**600, 2.0**-600)))
        assert code == 2 and json.loads(out)["indeterminate"] is True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [520, -540, 1000, -1000])
@pytest.mark.parametrize("seed", range(3))
def test_direct_costability_survives_scaled_covector(seed, k, tmp_path, adhmkit):
    # |e| overflowed to inf, so |e v| <= eq_rel_tol |e| held at every root and
    # the valid point failed; at 2^-540 |e| underflowed to 0, and every root
    # passed with residual 0.0 although e v != 0.  Then both were
    # indeterminate, although |e v| / |e| does not depend on the scale of e:
    # the valid point passes and its broken twin (e projected off an
    # eigenvector of B) fails
    d = gen_hirz_valid(GenConfig(seed=seed, n=2, c=4))
    v = np.linalg.eig(to_chart(d, chart_set(d)[0]).B)[1][:, 0]
    twin = d.e - (d.e @ v) * v.conj() / np.vdot(v, v)
    point = hirz_adhm(d.n, d.c, d.A1, d.A2, d.C, d.e * 2.0**k)
    report = validate_p3_direct(point)
    assert report.verdict == "pass"
    assert all(c.residual != 0.0 for c in report.checks)
    assert validate_p3_direct(hirz_adhm(d.n, d.c, d.A1, d.A2, d.C, twin * 2.0**k)).verdict == "fail"
    if (seed, k) == (0, 520):  # the real command passes the point under every route
        path = saved(tmp_path, point)
        for method in ("chart", "direct", "both"):
            assert adhmkit("validate", "--p3-method", method, path)[0] == 0, method


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: valid triples scaled by 2^-30 fail co-stability "
                          "(likely the 1.0 floor of linalg._operator_scale)")
@pytest.mark.parametrize("seed", range(5))
def test_plane_verdict_survives_exact_downscaling(seed):
    d = gen_plane_valid(GenConfig(seed=seed, c=3))
    assert validate_plane(d).passed
    s = 2.0**-30
    assert validate_plane(plane_adhm(d.b1 * s, d.b2 * s, d.e)).verdict != "fail"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 1 and 5: the chart-route shrink loop fails these broken "
                          "twins unscaled and passes them once A1 and A2 are scaled down")
@pytest.mark.parametrize("seed,n,c,k", [(4, 3, 32, -10), (1, 1, 12, -30)])
def test_broken_twin_verdict_survives_exact_downscaling(seed, n, c, k):
    # (b1, b2, e) -> (s b1, t b2, u e) maps the valid set onto itself, so an
    # exact power-of-two scaling of A1 and A2 cannot make a broken point valid
    bad = broken_twin(gen_hirz_valid(GenConfig(seed=seed, n=n, c=c)))
    assert validate_hirz(bad).verdict == "fail"
    assert validate_hirz(scaled_pencil(bad, 2.0**k)).verdict == "fail"


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
