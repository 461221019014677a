import numpy as np
import pytest

from adhmkit.errors import DomainError, InvalidPointError, ShapeError
from adhmkit.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    greedy_match,
    kernel_basis,
    random_well_conditioned,
    rel_err,
)
from adhmkit.plane import (
    _PAIRING_T,
    act_gl,
    canonical_form,
    from_points,
    joint_spectrum,
    orbit_equal_plane,
    plane_adhm,
    transition_plane,
    validate_plane,
)
from adhmkit.propsuite import GenConfig, gen_plane_valid


def scal(b1, b2, e):
    """One-dimensional triple from plain numbers."""
    return plane_adhm(np.array([[b1]], dtype=complex),
                      np.array([[b2]], dtype=complex),
                      np.array([e], dtype=complex))


def test_factory_shape_checks():
    with pytest.raises(ShapeError):
        plane_adhm(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        plane_adhm(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ShapeError):
        plane_adhm(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))


def test_validate_commuting_costable_passes():
    d = plane_adhm(np.diag([1.0 + 0j, 2.0]), np.diag([3.0 + 0j, 4.0]),
                   np.array([1.0, 1.0], dtype=complex))
    rep = validate_plane(d)
    assert rep.passed
    assert rep.check("commutation").residual <= 1e-15


def test_validate_detects_kernel_line_of_e():
    # second basis vector is a joint eigenvector killed by e: not costable.
    # (regression: the residual-kernel cutoff must be anchored at the
    # operator scale, or this failure mode looks like noise and passes)
    d = plane_adhm(np.diag([1.0 + 0j, 2.0]), np.diag([3.0 + 0j, 4.0]),
                   np.array([1.0, 0.0], dtype=complex))
    rep = validate_plane(d)
    assert not rep.passed
    chk = rep.check("costability")
    assert chk.verdict == "fail"
    assert "dimension 1" in chk.detail


def test_validate_zero_e_fails():
    d = plane_adhm(np.diag([1.0 + 0j, 2.0]), np.eye(2, dtype=complex),
                   np.zeros(2, dtype=complex))
    assert validate_plane(d).check("costability").verdict == "fail"


def test_validate_noncommuting_refuses_costability():
    d = plane_adhm(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                   np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
                   np.array([1.0, 1.0], dtype=complex))
    rep = validate_plane(d)
    assert rep.check("commutation").verdict == "fail"
    assert rep.check("costability").verdict == "indeterminate"


def test_act_gl_preserves_validity_and_rejects_singular():
    rng = np.random.default_rng(4)
    d = gen_plane_valid(GenConfig(seed=10, c=3))
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    moved = act_gl(d, g)
    assert validate_plane(moved).passed
    with pytest.raises(InvalidPointError):
        act_gl(d, np.zeros((3, 3)))


def test_from_points_and_joint_spectrum_roundtrip():
    pts = ((1.0 + 0j, 3.0 + 0j), (2.0 + 0j, 4.0 + 0j))
    d = from_points(pts)
    assert validate_plane(d).passed
    spectrum = joint_spectrum(d)
    assert greedy_match(np.array(spectrum), np.array(pts), DEFAULT_TOL)


def test_from_points_rejects_duplicates():
    with pytest.raises(InvalidPointError):
        from_points(((1.0, 2.0), (1.0, 2.0)))


def test_joint_spectrum_nondiagonalizable_frozen():
    # a length-2 punctual pair supported at (1, 5)
    d = plane_adhm(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
                   np.array([[5.0, 2.0], [0.0, 5.0]], dtype=complex),
                   np.array([0.0, 1.0], dtype=complex))
    spectrum = joint_spectrum(d)
    assert len(spectrum) == 2
    for beta, eps in spectrum:
        assert abs(beta - 1.0) < 1e-9 and abs(eps - 5.0) < 1e-9


def _common_eigenvector(b1, b2):
    """A joint eigenvector of a commuting pair, chosen deterministically."""
    c = b1.shape[0]
    evals = np.linalg.eigvals(b1)
    lam = min(evals, key=lambda z: (z.real, z.imag))
    space = kernel_basis(b1 - lam * np.eye(c), DEFAULT_TOL)
    if space.shape[1] == 0:
        # fall back to the singular vector of the smallest singular value
        _, _, vh = np.linalg.svd(b1 - lam * np.eye(c))
        space = vh[-1:].conj().T
    if space.shape[1] == 1:
        return space[:, 0]
    restricted = space.conj().T @ b2 @ space
    mu_vals, mu_vecs = np.linalg.eig(restricted)
    idx = min(range(len(mu_vals)), key=lambda i: (mu_vals[i].real, mu_vals[i].imag))
    v = space @ mu_vecs[:, idx]
    return v / np.linalg.norm(v)


def deflation_spectrum(d):
    """Reference joint spectrum: triangularize (b1, b2) simultaneously by
    deflating one joint eigenvector at a time, and read the diagonal pairs."""
    b1 = np.array(d.b1)
    b2 = np.array(d.b2)
    pairs = []
    while b1.shape[0] > 1:
        c = b1.shape[0]
        v = _common_eigenvector(b1, b2)
        q, _ = np.linalg.qr(np.column_stack([v, np.eye(c)]))
        b1 = q.conj().T @ b1 @ q
        b2 = q.conj().T @ b2 @ q
        pairs.append((complex(b1[0, 0]), complex(b2[0, 0])))
        b1 = b1[1:, 1:]
        b2 = b2[1:, 1:]
    pairs.append((complex(b1[0, 0]), complex(b2[0, 0])))
    return pairs


def conjugated(b1, b2, e):
    g = random_well_conditioned(np.random.default_rng(0), len(e))
    return act_gl(plane_adhm(b1, b2, np.asarray(e, dtype=complex)), g)


JORDAN_AT = (0.7 - 0.4j, 2.0)


def jordan_triple(k, e):
    """Curvilinear length-k point at JORDAN_AT: b1 = lam + N, b2 = 2 + 3N + N^2."""
    nil = np.eye(k, k=1, dtype=complex)
    lam, eps = JORDAN_AT
    return conjugated(lam * np.eye(k) + nil, eps * np.eye(k) + 3 * nil + nil @ nil, e)


def collision_triple(e, z=0.3 + 0.2j):
    """Joint eigenvalues (z, 1) and (z + t, 0): both are z + t on b1 + t b2."""
    return conjugated(np.diag([z, z + _PAIRING_T]), np.diag([1.0 + 0j, 0.0]), e)


@pytest.mark.parametrize("d", [
    *(gen_plane_valid(GenConfig(seed=40 + c, c=c)) for c in (1, 2, 3, 4, 5, 6, 12, 32)),
    from_points(((1, 3), (1, 4), (2, 3))),
    collision_triple((1.0, 1.0)),
], ids=[*(f"gen_c{c}" for c in (1, 2, 3, 4, 5, 6, 12, 32)), "shared_beta", "collision"])
def test_joint_spectrum_matches_deflation(d):
    got = joint_spectrum(d)
    assert len(got) == d.c
    assert greedy_match(np.array(got), np.array(deflation_spectrum(d)),
                        ToleranceConfig(eq_rel_tol=1e-9))


@pytest.mark.parametrize("k", [2, 3])
def test_joint_spectrum_jordan_error_within_reference(k):
    # a k-fold eigenvalue is computed only to about eps^(1/k); pairing the
    # eigenvalues must not lose more than the reference's deflation does
    d = jordan_triple(k, np.eye(k)[0])

    def err(pairs):
        return max(abs(beta - JORDAN_AT[0]) + abs(eps - JORDAN_AT[1]) for beta, eps in pairs)

    assert len(joint_spectrum(d)) == k
    assert err(joint_spectrum(d)) <= 10 * err(deflation_spectrum(d))


# the generator draws only reduced, well-separated points; these pin the
# co-stability verdict on a fat point and on a pair that collides under t
@pytest.mark.parametrize("d,ok", [
    *((jordan_triple(k, np.eye(k)[0]), True) for k in (2, 3, 4)),
    *((jordan_triple(k, np.eye(k)[1]), False) for k in (2, 3, 4)),
    (collision_triple((1.0, 1.0)), True),
    (collision_triple((1.0, 0.0)), False),
], ids=["jordan2_e1", "jordan3_e1", "jordan4_e1", "jordan2_e2", "jordan3_e2", "jordan4_e2",
        "collision_e11", "collision_e10"])
def test_validate_plane_costability_off_the_generator(d, ok):
    assert validate_plane(d).check("costability").verdict == ("pass" if ok else "fail")


def test_joint_spectrum_requires_commutation():
    d = plane_adhm(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                   np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
                   np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(InvalidPointError):
        joint_spectrum(d)


def test_canonical_form_frozen_c2():
    d = plane_adhm(np.diag([1.0 + 0j, 2.0]), np.diag([5.0 + 0j, 7.0]),
                   np.array([1.0, 1.0], dtype=complex))
    can, gauge = canonical_form(d)
    assert np.allclose(can.b1, [[0.0, 1.0], [-2.0, 3.0]], atol=1e-12)
    assert np.allclose(can.b2, [[3.0, 2.0], [-4.0, 9.0]], atol=1e-12)
    assert np.allclose(can.e, [1.0, 0.0], atol=1e-12)
    # the returned gauge is a witness: applying it reproduces the form
    again = act_gl(d, gauge)
    assert rel_err(again.b1, can.b1) < 1e-12
    assert rel_err(again.b2, can.b2) < 1e-12


def test_canonical_form_frozen_c1():
    can, gauge = canonical_form(scal(2.0, 3.0, 5.0))
    assert abs(can.b1[0, 0] - 2.0) < 1e-14
    assert abs(can.b2[0, 0] - 3.0) < 1e-14
    assert abs(can.e[0] - 1.0) < 1e-14
    assert abs(gauge[0, 0] - 5.0) < 1e-14


def test_canonical_form_requires_valid_input():
    bad = plane_adhm(np.diag([1.0 + 0j, 2.0]), np.diag([3.0 + 0j, 4.0]),
                     np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(InvalidPointError):
        canonical_form(bad)


def test_orbit_equal_plane_gauge_and_separation():
    rng = np.random.default_rng(8)
    d = gen_plane_valid(GenConfig(seed=21, c=2))
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert orbit_equal_plane(d, act_gl(d, g))
    other = gen_plane_valid(GenConfig(seed=22, c=2))
    assert not orbit_equal_plane(d, other)
    # different sizes never share an orbit
    assert not orbit_equal_plane(d, gen_plane_valid(GenConfig(seed=23, c=3)))


def test_transition_frozen_scalar_values():
    d = scal(2.0, 5.0, 7.0)
    # one step in the smallest atlas sends b1 to -1/(2) and twists b2 once
    moved = transition_plane(d, 1, 0, 1, 1)
    assert abs(moved.b1[0, 0] + 0.5) < 1e-14
    assert abs(moved.b2[0, 0] + 10.0) < 1e-14
    assert abs(moved.e[0] - 7.0) < 1e-14
    # higher twist only changes the b2 power
    moved2 = transition_plane(d, 1, 0, 2, 1)
    assert abs(moved2.b1[0, 0] + 0.5) < 1e-14
    assert abs(moved2.b2[0, 0] - 20.0) < 1e-14


def test_transition_identity_when_charts_equal():
    d = gen_plane_valid(GenConfig(seed=31, c=2))
    same = transition_plane(d, 2, 2, 3, 4)
    assert rel_err(same.b1, d.b1) < 1e-14
    assert rel_err(same.b2, d.b2) < 1e-14


def test_transition_outside_overlap_raises():
    # F = cos*I - sin*b1 is singular when b1 owns the eigenvalue cos/sin
    d = scal(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        transition_plane(d, 1, 0, 1, 1)
    with pytest.raises(DomainError):
        transition_plane(d, 0, 1, 1, 1)  # same overlap from the other side


def test_transition_rejects_bad_twist():
    d = scal(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        transition_plane(d, 0, 1, 0, 1)


def test_cocycle_seeded_loop():
    rng = np.random.default_rng(77)
    for case in range(20):
        c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = gen_plane_valid(GenConfig(seed=1000 + case, c=c))
        m, l, k = (int(v) for v in rng.integers(0, c + 1, size=3))
        try:
            fwd = transition_plane(d, m, l, n, c)
            back = transition_plane(fwd, l, m, n, c)
            two = transition_plane(fwd, l, k, n, c)
            one = transition_plane(d, m, k, n, c)
        except DomainError:
            continue
        assert rel_err(back.b1, d.b1) < 1e-8
        assert rel_err(back.b2, d.b2) < 1e-8
        assert rel_err(two.b1, one.b1) < 1e-8
        assert rel_err(two.b2, one.b2) < 1e-8
