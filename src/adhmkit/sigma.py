"""Chart angles and the rotation action on binary-form coefficients.

A chart atlas over the base projective line is indexed by m = 0..c, with
angles theta_m = pi*m/(c+1).  The sigma matrix of order h records how the
coefficients of a degree-h binary form transform under the rotation by
theta_m: row p holds the expansion of

    (sin_m*mu1 + cos_m*mu2)^p * (cos_m*mu1 - sin_m*mu2)^(h-p)

in the monomials mu2^q mu1^(h-q).  These matrices form a one-parameter
group in m, which is the engine behind every cross-chart identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _ArrayValue, as_int

__all__ = ["AnglePair", "angle_pair", "SigmaMatrix", "sigma_matrix"]

_MAX_ORDER = 64


@dataclass(frozen=True)
class AnglePair:
    c_base: int
    m: int
    cos_val: float
    sin_val: float


def _snap(x: float) -> float:
    """Clean up roundoff at the exact lattice values 0 and +-1.

    cos(pi*k/N) is either exactly one of these or bounded away from them by
    more than 1/N^2, so a machine-epsilon window can never misfire for the
    atlas sizes this module accepts.
    """
    for target in (0.0, 1.0, -1.0):
        if abs(x - target) < 1e-14:
            return target
    return x


def angle_pair(c_base: int, m: int) -> AnglePair:
    """cos and sin of pi*m/(c_base+1); negating m mirrors the sine exactly.

    Pairs are cached by exact argument type once the arguments pass the
    type checks.
    """
    return _angle_pair(as_int(c_base, "angle_pair", "c_base", 1), as_int(m, "angle_pair", "m"))


@functools.lru_cache(maxsize=4096, typed=True)
def _angle_pair(c_base: int, m: int) -> AnglePair:
    theta = math.pi * abs(m) / (c_base + 1)
    cos_val = _snap(math.cos(theta))
    sin_val = _snap(math.sin(theta))
    if m < 0:
        sin_val = -sin_val
    return AnglePair(c_base=c_base, m=m, cos_val=cos_val, sin_val=sin_val)


@dataclass(frozen=True, eq=False)
class SigmaMatrix:
    h: int
    m: int
    c_base: int
    entries: np.ndarray  # (h+1, h+1) real, row p / column q
    __eq__ = _ArrayValue.__eq__  # exact, entry by entry; unhashable


def sigma_matrix(h: int, m: int, c_base: int) -> SigmaMatrix:
    """Coefficient-transport matrix of order h for chart shift m.

    Built by explicit polynomial multiplication of the two binomial
    expansions, so entry (p, q) is exactly the coefficient of
    mu2^q mu1^(h-q) in (s*mu1 + c*mu2)^p (c*mu1 - s*mu2)^(h-p).  The
    read-only entries are cached by (h, angle pair) once the arguments pass
    the type checks.
    """
    as_int(h, "sigma_matrix", "h", 0, _MAX_ORDER)
    entries = _sigma_entries(h, angle_pair(c_base, m))
    return SigmaMatrix(h=h, m=m, c_base=c_base, entries=entries)


@functools.lru_cache(maxsize=1024, typed=True)
def _sigma_entries(h: int, ap: AnglePair) -> np.ndarray:
    c, s = ap.cos_val, ap.sin_val
    entries = np.zeros((h + 1, h + 1))
    for p in range(h + 1):
        first = np.array([math.comb(p, j) * c**j * s ** (p - j) for j in range(p + 1)])
        second = np.array(
            [math.comb(h - p, k) * (-s) ** k * c ** (h - p - k) for k in range(h - p + 1)]
        )
        entries[p, :] = np.convolve(first, second)
    entries.setflags(write=False)
    return entries
