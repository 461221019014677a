import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhmkit import linalg
from adhmkit.errors import DomainError, IndeterminateError, InvalidPointError, ShapeError
from adhmkit.hirz import (
    act_gl2,
    chart_set,
    from_chart,
    hirz_adhm,
    jacobian_nullity,
    syst_rank,
    to_chart,
    validate_hirz,
)
from adhmkit.linalg import (
    DEFAULT_TOL,
    BinaryForm,
    ProjPoint,
    ToleranceConfig,
    as_covector,
    binary_form,
    binary_form_roots,
    eigenvalues,
    greedy_match,
    kernel_basis,
    mats_close,
    proj_distance,
    proj_point,
    random_well_conditioned,
    rank_tol,
    rel_err,
)
from adhmkit.plane import act_gl, plane_adhm, transition_plane
from adhmkit.propsuite import GenConfig, gen_hirz_valid, gen_plane_valid
from adhmkit.sigma import angle_pair


def test_tolerance_config_defaults():
    assert DEFAULT_TOL.rank_rel_tol == 1e-9
    assert DEFAULT_TOL.eq_rel_tol == 1e-8
    assert DEFAULT_TOL.root_cluster_tol == 1e-6


@pytest.mark.parametrize("kwargs", [
    {"rank_rel_tol": 0.0},
    {"eq_rel_tol": -1e-8},
    {"root_cluster_tol": 2.0},
    {"rank_rel_tol": float("nan")},
])
def test_tolerance_config_rejects_bad_values(kwargs):
    with pytest.raises((ValueError, TypeError)):
        ToleranceConfig(**kwargs)


def test_rank_and_kernel_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows, cols, r = rng.integers(1, 6, size=3)
        r = min(r, rows, cols)
        a = (rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r)))
        b = (rng.normal(size=(r, cols)) + 1j * rng.normal(size=(r, cols)))
        m = a @ b
        assert rank_tol(m) == r
        k = kernel_basis(m)
        assert k.shape == (cols, cols - r)
        assert np.linalg.norm(m @ k) < 1e-10 * max(np.linalg.norm(m), 1.0)
        # columns orthonormal
        assert np.allclose(k.conj().T @ k, np.eye(cols - r), atol=1e-12)


def test_kernel_basis_zero_matrix():
    k = kernel_basis(np.zeros((3, 4)))
    assert k.shape == (4, 4)


def test_kernel_basis_noise_needs_external_scale():
    # A residual made of pure roundoff must count as zero when the cutoff is
    # anchored at the operator scale; relative-to-itself it looks full rank.
    rng = np.random.default_rng(3)
    noise = 1e-15 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert kernel_basis(noise).shape[1] == 0
    assert kernel_basis(noise, scale=1.0).shape[1] == 3


# spectra (s_max = 1, cut at rank_rel_tol = 1e-9) whose smallest kept or
# largest discarded value lies 1% from the cut, with a kept/discarded gap
# of 2e3 or 5e2 (or 1e9 beside 1.0), and whether the probes must refuse
_CUT = 1e-9
_SPECTRA = {
    "kept_no_cut": ((1.0, 1.0, 1.0, 1.01 * _CUT), False),
    "discarded_wide_gap": ((1.0, 1.0, 1.0, 0.99 * _CUT), False),
    "kept_gap_2e3": ((1.0, 1.0, 1.01 * _CUT, 1.01 * _CUT / 2e3), False),
    "kept_gap_5e2": ((1.0, 1.0, 1.01 * _CUT, 1.01 * _CUT / 5e2), True),
    "discarded_gap_2e3": ((1.0, 1.0, 0.99 * _CUT * 2e3, 0.99 * _CUT), False),
    "discarded_gap_5e2": ((1.0, 1.0, 0.99 * _CUT * 5e2, 0.99 * _CUT), True),
    "zero": ((0.0, 0.0, 0.0, 0.0), False),
}


def _probe_agrees(call, who, refuses, want):
    """call() refuses with who's gap message when refuses is true, else returns want."""
    if refuses:
        with pytest.raises(IndeterminateError, match=f"^{who}: no clear spectral gap \\(kept "):
            call()
    else:
        assert call() == want


@pytest.mark.parametrize("name", sorted(_SPECTRA))
def test_every_rank_cut_agrees_at_the_cut(name, monkeypatch):
    spectrum, refuses = _SPECTRA[name]
    c = len(spectrum)
    q = np.linalg.qr(np.random.default_rng(11).normal(size=(c, c)))[0]
    a = (q * spectrum) @ q.T  # singular values spectrum, up to rounding
    rank = sum(v > _CUT for v in spectrum)
    assert rank_tol(a) == rank
    assert c - kernel_basis(a).shape[1] == rank
    # with A1 = 0, chart 0's frame sin_0 A1 + cos_0 A2 is A2 itself
    d = hirz_adhm(1, c, np.zeros((c, c)), a, (np.zeros((c, c)),), np.ones(c))
    assert (0 in chart_set(d)) == (rank == c)
    # syst_rank's Kronecker factor at n = 2 is (A1, -A2), so with A2 = 0 it
    # has A1's singular values
    _probe_agrees(lambda: syst_rank(a, np.zeros((c, c)), 2), "syst_rank", refuses, c * rank)
    # jacobian_nullity at a valid c = 2 point cuts one 4 x 8 matrix: hand it
    # the same spectrum
    p = gen_hirz_valid(GenConfig(seed=5, n=2, c=2))
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, *r, **k: np.array(spectrum)
                        if m.shape == (4, 8) else real(m, *r, **k))
    _probe_agrees(lambda: jacobian_nullity(p), "jacobian_nullity", refuses, 3 * 4 + 2 - rank)


def test_eigenvalues_frozen():
    vals = eigenvalues(np.array([[0.0, 1.0], [-2.0, 3.0]]))
    assert np.allclose(sorted(vals, key=lambda z: z.real), [1.0, 2.0], atol=1e-12)
    with pytest.raises(ShapeError):
        eigenvalues(np.zeros((2, 3)))


def test_greedy_match_permutation_and_threshold():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    perm = pts[rng.permutation(5)]
    assert greedy_match(pts, perm, DEFAULT_TOL)
    off = perm.copy()
    off[0] += 1.0
    assert not greedy_match(pts, off, DEFAULT_TOL)
    assert not greedy_match(pts, pts[:4], DEFAULT_TOL)


def test_greedy_match_empty():
    assert greedy_match(np.zeros((0, 2)), np.zeros((0, 2)), DEFAULT_TOL)


def test_proj_point_normalization():
    p = proj_point(2.0, 1.0)
    assert p.lam1 == 1.0 and abs(p.lam2 - 0.5) < 1e-15
    q = proj_point(1.0, 2.0)
    assert q.lam2 == 1.0 and abs(q.lam1 - 0.5) < 1e-15
    # ties go to the second coordinate: affine representative (z, 1)
    t = proj_point(1.0 + 0j, -1.0 + 0j)
    assert t.lam2 == 1.0
    with pytest.raises(InvalidPointError):
        proj_point(0.0, 0.0)


def test_proj_distance_properties():
    a = proj_point(1.0, 0.0)
    b = proj_point(0.0, 1.0)
    assert abs(proj_distance(a, b) - 1.0) < 1e-15
    assert proj_distance(a, a) == 0.0
    c1 = proj_point(3.0 + 1j, 2.0)
    c2 = proj_point((3.0 + 1j) * 5j, 10j)
    assert proj_distance(c1, c2) < 1e-15


def test_binary_form_eval():
    f = binary_form([2.0, 3.0, 1.0])
    assert f.degree == 2
    # f(v1, v2) = 2 v1^2 + 3 v1 v2 + v2^2
    assert abs(f(1.0, 1.0) - 6.0) < 1e-14
    assert abs(f(2.0, -1.0) - 3.0) < 1e-14


def test_binary_form_equality_is_exact_and_forms_are_unhashable():
    coeffs = np.array([1.0, 2.0, 3.0])
    f = binary_form(coeffs)
    coeffs[0] = 5.0  # the form holds its own read-only copy
    assert f.coeffs.dtype == np.complex128 and not f.coeffs.flags.writeable
    for twin in (binary_form([1, 2, 3]), dataclasses.replace(f, coeffs=f.coeffs.copy()),
                 pickle.loads(pickle.dumps(f))):
        assert twin == f and not twin != f
    assert binary_form([1, 2, 3 + 1e-15]) != f
    assert binary_form([1, 2, 3, 0]) != f
    assert f != "not a form"
    with pytest.raises(TypeError):
        hash(f)


def test_binary_form_roots_frozen_cases():
    # v1 v2: one root at each pole
    roots = binary_form_roots(binary_form([0.0, 1.0, 0.0]))
    assert len(roots) == 2 and {k for _, k in roots} == {1}
    flat = [p for p, _ in roots]
    assert any(abs(p.lam1) < 1e-12 for p in flat)
    assert any(abs(p.lam2) < 1e-12 for p in flat)

    # (v1 + v2)^2: a double root at [-1 : 1]
    roots = binary_form_roots(binary_form([1.0, 2.0, 1.0]))
    assert len(roots) == 1
    p, mult = roots[0]
    assert mult == 2
    assert abs(p.lam1 + p.lam2) < 1e-7

    # v1^2 + v2^2: conjugate pair [i : 1], [-i : 1]
    roots = binary_form_roots(binary_form([1.0, 0.0, 1.0]))
    vals = sorted((p.lam1 / p.lam2).imag for p, _ in roots)
    assert len(roots) == 2 and abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12


def test_binary_form_roots_pole_multiplicity():
    # v1 * v2^2 as a cubic: [0:1] simple and [1:0] double
    roots = binary_form_roots(binary_form([0.0, 0.0, 1.0, 0.0]))
    by_mult = {k: p for p, k in roots}
    assert set(by_mult) == {1, 2}
    assert abs(by_mult[2].lam2) < 1e-12  # the pole [1 : 0]
    assert abs(by_mult[1].lam1) < 1e-12


def test_binary_form_roots_zero_and_constant():
    with pytest.raises(InvalidPointError):
        binary_form_roots(binary_form([0.0, 0.0, 0.0]))
    assert binary_form_roots(binary_form([4.0])) == ()


def test_mats_close_and_rel_err():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mats_close(a, a + 1e-12, DEFAULT_TOL)
    assert not mats_close(a, a + 1.0, DEFAULT_TOL)
    assert rel_err(a, a) == 0.0
    assert rel_err(np.zeros(2), np.zeros(2)) == 0.0


def test_as_covector_accepts_a_one_row_matrix():
    v = as_covector([[1.0, 2j, -3.0]], "e", 3)
    assert v.dtype == np.complex128 and v.shape == (3,)
    assert np.array_equal(v, [1.0, 2j, -3.0])
    with pytest.raises(ShapeError, match=r"e: expected a row of length 3, got shape \(2, 3\)"):
        as_covector(np.ones((2, 3)), "e", 3)


def test_random_well_conditioned_bound():
    rng = np.random.default_rng(5)
    for c in (1, 2, 4, 6):
        g = random_well_conditioned(rng, c)
        assert np.linalg.cond(g) <= 16.0 + 1e-9


def _two_call_haar(rng, c, spread=16.0):
    """random_well_conditioned with one draw pair and one QR call per factor."""
    u, _ = np.linalg.qr(rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)))
    v, _ = np.linalg.qr(rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)))
    half = np.sqrt(spread)
    s = np.exp(rng.uniform(np.log(1.0 / half), np.log(half), size=c))
    return (u * s) @ v.conj().T


def test_random_well_conditioned_matches_two_call_draw():
    # the generated stream, and so every pinned seed, must not move
    for c in range(1, 33):
        for seed in range(20):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(random_well_conditioned(got, c), _two_call_haar(want, c))
            assert np.array_equal(got.normal(size=2), want.normal(size=2))


finite_c = st.complex_numbers(min_magnitude=0, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(finite_c, finite_c)
def test_proj_point_unit_normalization_hypothesis(a, b):
    if abs(a) < 1e-12 and abs(b) < 1e-12:
        return
    p = proj_point(a, b)
    assert max(abs(p.lam1), abs(p.lam2)) == pytest.approx(1.0, abs=1e-9)
    # the normalized coordinate is literally one
    assert p.lam1 == 1.0 or p.lam2 == 1.0


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
def test_binary_form_roots_scale_invariant_hypothesis(scale):
    base = binary_form([1.0, -3.0, 2.0])  # roots at [-1:1] and [-2:1]
    scaled = binary_form(np.array(base.coeffs) * scale)
    r1 = binary_form_roots(base)
    r2 = binary_form_roots(scaled)
    assert len(r1) == len(r2)
    for (p1, k1) in r1:
        assert any(k1 == k2 and proj_distance(p1, p2) < 1e-8 for p2, k2 in r2)


def _cluster_roots_loop(points, radius):
    """Reference for linalg._cluster_roots: one ProjPoint pair at a time."""
    clusters = []  # [unit vector sum, count]
    for pt in points:
        u = np.array([pt.lam1, pt.lam2], dtype=np.complex128)
        u /= np.linalg.norm(u)
        for entry in clusters:
            rep = entry[0] / np.linalg.norm(entry[0])
            if proj_distance(ProjPoint(rep[0], rep[1]), pt) < radius:
                ph = np.vdot(rep, u)
                if ph != 0:
                    u = u * (ph.conjugate() / abs(ph))
                entry[0] = entry[0] + u
                entry[1] += 1
                break
        else:
            clusters.append([u, 1])
    out = [(proj_point(*(vec / np.linalg.norm(vec))), count) for vec, count in clusters]
    out.sort(key=lambda t: (t[0].lam1.real, t[0].lam1.imag, t[0].lam2.real, t[0].lam2.imag))
    return tuple(out)


def _assert_same_clusters(points, radius=DEFAULT_TOL.root_cluster_tol):
    pts = [proj_point(a, b) for a, b in points]
    got = linalg._cluster_roots([(p.lam1, p.lam2) for p in pts], radius)
    want = _cluster_roots_loop(pts, radius)
    assert [k for _, k in got] == [k for _, k in want]
    for (p, _), (q, _) in zip(got, want):
        # unit vectors are normalized in one batched norm, so the last bit may move
        assert abs(p.lam1 - q.lam1) <= 1e-15 and abs(p.lam2 - q.lam2) <= 1e-15


@pytest.mark.parametrize("n,c", [(1, 1), (2, 3), (3, 8), (1, 16), (5, 24), (2, 32)])
def test_cluster_roots_matches_loop_on_generated_supports(n, c):
    d = gen_hirz_valid(GenConfig(seed=90 + c, n=n, c=c))
    m = validate_hirz(d).chart_set[0]
    ap = angle_pair(c, m)
    beta = np.linalg.eigvals(to_chart(d, m).B)
    _assert_same_clusters(zip(-(ap.sin_val + beta * ap.cos_val), ap.cos_val - beta * ap.sin_val))


@pytest.mark.parametrize("seed", range(6))
def test_cluster_roots_matches_loop_on_tight_clusters_and_poles(seed):
    rng = np.random.default_rng(seed)
    tol = DEFAULT_TOL.root_cluster_tol
    centers = [(1.0, 0.0), (0.0, 1.0)] + list(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    points = []
    for a, b in centers:
        for _ in range(rng.integers(1, 5)):  # a k-fold root, spread well inside the radius
            jitter = tol * 1e-2 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            phase = np.exp(2j * np.pi * rng.uniform())
            points.append(((a + jitter[0]) * phase, (b + jitter[1]) * phase))
    points += [(1.0, 0.0), (0.0, 1.0)]  # the exact poles as well
    rng.shuffle(points)
    _assert_same_clusters(points)
    clusters = linalg._cluster_roots(points, tol)
    assert len(clusters) == len(centers)
    assert sum(k for _, k in clusters) == len(points)


def _haar(rng, c):
    return np.linalg.qr(rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)))[0]


def _with_condition(rng, c, cond):
    """U diag(s) V* with log-spaced singular values from 1 down to 1 / cond."""
    return (_haar(rng, c) * np.logspace(0, -np.log10(cond), c)) @ _haar(rng, c).conj().T


def _zero_column(rng, c):
    m = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
    m[:, 0] = 0.0  # inv raises LinAlgError at the first pivot
    return m


def _gate_grid():
    rng = np.random.default_rng(2026)
    mats = [random_well_conditioned(rng, c) for c in range(1, 33)]
    mats += [_with_condition(rng, c, cond) for c in (2, 3, 6, 12)
             for cond in np.logspace(2, 14, 25)]
    mats += [_zero_column(rng, c) for c in (1, 2, 5, 16)]
    return mats


@pytest.mark.parametrize("rel", [1e-4, 1e-9, 1e-13])
def test_inverse_gate_agrees_with_rank_tol(rel):
    tol = ToleranceConfig(rank_rel_tol=rel)
    decided = set()
    for m in _gate_grid():
        inv = linalg._inverse_at_tol(m, tol)
        full = rank_tol(m, tol) == m.shape[0]
        assert (inv is not None) == full
        if full:
            assert np.array_equal(inv, np.linalg.inv(m))
        decided.add(full)
    assert decided == {True, False}  # the grid straddles the cut


def test_inverse_gate_skips_the_svd_when_the_inverse_certifies(monkeypatch):
    rng = np.random.default_rng(7)
    mats = [random_well_conditioned(rng, c) for c in range(1, 33)]
    svds = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or real(*a, **k))
    assert all(linalg._inverse_at_tol(m) is not None for m in mats)
    assert svds == []
    assert linalg._inverse_at_tol(_with_condition(rng, 4, 1e12)) is None
    assert len(svds) == 1


def test_inverse_gate_lets_linalg_error_through_on_full_rank(monkeypatch):
    def failing(m):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", failing)
    with pytest.raises(np.linalg.LinAlgError):
        linalg._inverse_at_tol(np.eye(3, dtype=complex))
    assert linalg._inverse_at_tol(np.zeros((3, 3), dtype=complex)) is None


def _singular_inputs(c):
    """An exactly singular matrix (inv raises) and one of condition 1e12 (inv succeeds)."""
    rng = np.random.default_rng(c)
    return [_zero_column(rng, c), _with_condition(rng, c, 1e12)]


@pytest.mark.parametrize("which", [0, 1])
def test_inverse_gate_callers_raise_as_before_on_singular_input(which):
    d = gen_hirz_valid(GenConfig(seed=44, n=2, c=3))
    p = gen_plane_valid(GenConfig(seed=10, c=3))
    good = random_well_conditioned(np.random.default_rng(1), 3)
    bad = _singular_inputs(3)[which]
    msg = "act_gl2: gauge matrix is singular at tolerance"
    for phi1, phi2 in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(InvalidPointError, match=f"^{msg}$"):
            act_gl2(d, phi1, phi2)
    with pytest.raises(InvalidPointError, match="^act_gl: gauge matrix is singular at tolerance$"):
        act_gl(p, bad)
    with pytest.raises(InvalidPointError,
                       match="^from_chart: frame matrix is singular at tolerance$"):
        from_chart(0, p, bad, 2)
    # chart 0 has A2m = A2; the transition 1 -> 0 at c_base = 1 has F = -b1
    d0 = hirz_adhm(1, 3, np.eye(3), bad, (np.eye(3),), np.ones(3))
    with pytest.raises(DomainError) as err:
        to_chart(d0, 0)
    assert str(err.value) == f"to_chart: chart 0 unavailable: det(A2m) = {np.linalg.det(bad):.6e}"
    with pytest.raises(DomainError) as err:
        transition_plane(plane_adhm(bad, np.eye(3), np.ones(3)), 1, 0, 1, 1)
    assert str(err.value) == ("transition_plane: overlap condition fails between charts 1 and 0: "
                              f"det(c*1 - s*b1) = {np.linalg.det(-bad):.6e}")
