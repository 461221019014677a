import dataclasses
import math
import pickle

import numpy as np
import pytest

from adhmkit.errors import DomainError
from adhmkit.sigma import angle_pair, sigma_matrix


def test_angle_pair_basics():
    ap = angle_pair(1, 0)
    assert ap.cos_val == 1.0 and ap.sin_val == 0.0
    ap = angle_pair(1, 1)
    assert abs(ap.cos_val) < 1e-15 and abs(ap.sin_val - 1.0) < 1e-15
    # negative index mirrors the sine exactly
    pos, neg = angle_pair(4, 3), angle_pair(4, -3)
    assert pos.cos_val == neg.cos_val and pos.sin_val == -neg.sin_val


def test_angle_pair_rejects_bad_arguments():
    with pytest.raises(DomainError):
        angle_pair(0, 1)
    with pytest.raises(DomainError):
        angle_pair(-2, 0)
    with pytest.raises(DomainError):
        angle_pair(3, 1.5)


def test_sigma_frozen_quarter_turn():
    # order 2, one step in the two-chart atlas: cos = 0, sin = 1
    sg = sigma_matrix(2, 1, 1).entries
    assert np.array_equal(sg, np.array([[0.0, 0.0, 1.0],
                                        [0.0, -1.0, 0.0],
                                        [1.0, 0.0, 0.0]]))


def test_sigma_order_one_is_rotation():
    for cb in (1, 2, 5, 8):
        for m in range(-cb, cb + 1):
            ap = angle_pair(cb, m)
            want = np.array([[ap.cos_val, -ap.sin_val],
                             [ap.sin_val, ap.cos_val]])
            assert np.array_equal(sigma_matrix(1, m, cb).entries, want)


def test_sigma_identity_at_zero_exact():
    for h in range(9):
        for cb in (1, 3, 7):
            assert np.array_equal(sigma_matrix(h, 0, cb).entries, np.eye(h + 1))


def test_sigma_group_law_exhaustive():
    for h in range(9):
        for cb in (1, 2, 5, 8):
            mats = {m: sigma_matrix(h, m, cb).entries for m in range(-cb, cb + 1)}
            for m in range(-cb, cb + 1):
                for l in range(-cb, cb + 1):
                    prod = mats[m] @ mats[l]
                    direct = sigma_matrix(h, m + l, cb).entries
                    assert np.abs(prod - direct).max() < 1e-10, (h, cb, m, l)


def test_sigma_inverse_is_negative_index():
    for h in (2, 5):
        for cb in (3, 6):
            for m in range(-cb, cb + 1):
                prod = sigma_matrix(h, m, cb).entries @ sigma_matrix(h, -m, cb).entries
                assert np.abs(prod - np.eye(h + 1)).max() < 1e-12


def test_sigma_first_column_monomials():
    # column 0 holds s^p c^(h-p): the weight vector of the frame change
    for cb in (2, 4):
        for m in range(cb + 1):
            ap = angle_pair(cb, m)
            sg = sigma_matrix(cb, m, cb).entries
            want = np.array([ap.sin_val**p * ap.cos_val ** (cb - p)
                             for p in range(cb + 1)])
            assert np.abs(sg[:, 0] - want).max() < 1e-12


def test_sigma_defining_identity_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h = int(rng.integers(0, 9))
        cb = int(rng.integers(1, 9))
        m = int(rng.integers(-cb, cb + 1))
        ap = angle_pair(cb, m)
        sg = sigma_matrix(h, m, cb).entries
        mu1, mu2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        for p in range(h + 1):
            lhs = (ap.sin_val * mu1 + ap.cos_val * mu2) ** p \
                * (ap.cos_val * mu1 - ap.sin_val * mu2) ** (h - p)
            rhs = sum(sg[p, q] * mu2**q * mu1 ** (h - q) for q in range(h + 1))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_sigma_extreme_rows_are_binomial():
    for h in (3, 6):
        for cb, m in ((4, 2), (5, -3)):
            ap = angle_pair(cb, m)
            sg = sigma_matrix(h, m, cb).entries
            top = [math.comb(h, q) * (-ap.sin_val) ** q * ap.cos_val ** (h - q)
                   for q in range(h + 1)]
            bot = [math.comb(h, q) * ap.cos_val**q * ap.sin_val ** (h - q)
                   for q in range(h + 1)]
            assert np.abs(sg[0] - top).max() < 1e-12
            assert np.abs(sg[h] - bot).max() < 1e-12


def test_sigma_rejects_out_of_range_order():
    with pytest.raises(DomainError):
        sigma_matrix(-1, 0, 1)
    with pytest.raises(DomainError):
        sigma_matrix(200, 0, 1)


def test_angle_pairs_and_sigma_entries_are_cached():
    assert angle_pair(5, 2) is angle_pair(5, 2)
    first = sigma_matrix(3, 2, 5)
    again = sigma_matrix(3, 2, 5)
    assert again.entries is first.entries and not again.entries.flags.writeable
    assert (again.h, again.m, again.c_base) == (3, 2, 5)


def test_type_checks_run_before_the_caches():
    angle_pair(3, 1)
    sigma_matrix(2, 0, 3)
    with pytest.raises(DomainError, match="m must be an integer"):
        angle_pair(3, 1.0)
    with pytest.raises(DomainError, match="c_base must be an integer >= 1"):
        angle_pair([1], 0)
    with pytest.raises(DomainError, match="m must be an integer"):
        angle_pair(3, [1])
    with pytest.raises(DomainError, match="h must be an integer in 0..64"):
        sigma_matrix(2.0, 0, 3)
    with pytest.raises(DomainError, match="m must be an integer"):
        sigma_matrix(2, 0.0, 3)


def test_sigma_matrix_equality_is_exact_and_values_are_unhashable():
    s = sigma_matrix(2, 1, 3)
    for twin in (dataclasses.replace(s, entries=s.entries.copy()), pickle.loads(pickle.dumps(s))):
        assert twin == s and not twin != s
    entries = s.entries.copy()
    entries[0, 0] += 1e-15
    assert dataclasses.replace(s, entries=entries) != s
    assert dataclasses.replace(s, m=-1) != s
    assert s != sigma_matrix(2, 1, 4) and s != "not a sigma matrix"
    assert s.entries.dtype == np.float64 and not s.entries.flags.writeable
    with pytest.raises(TypeError):
        hash(s)
