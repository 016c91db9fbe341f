"""Deterministic random planes and states over any backend.

All randomness flows through a PCG64 generator seeded directly with the
user-supplied 64-bit seed; there is no global RNG state.  Elements are
standard-normal combinations of the backend's sampling basis, and planes are
orthonormalized by Gram-Schmidt in the backend inner product (two passes).
"""

from __future__ import annotations

import numpy as np

from .backend import Pair, SemidirectBackendBase
from .curvature import Plane
from .errors import SamplingExhausted

#: Plane families over a semidirect backend.  ``contains-h`` keeps the second
#: leg purely in the h factor (legs are normalized but not orthogonalized).
FAMILIES = ("full", "gg", "hh", "gh", "contains-h")


def rng_for_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _combine(basis, coeffs: np.ndarray):
    """sum_j coeffs[j] * element j of the basis, the same bit for bit, signed
    zeros included, as the running sum of ``float(c) * element`` in basis
    order: the rows of an array by a cumulative sum, a ``torus.ModeBasis`` on
    its grid."""
    if isinstance(basis, np.ndarray):
        return np.cumsum(coeffs[:, None] * basis, axis=0)[-1]
    return basis.combine(coeffs)


def _sample_basis(backend, band: int, part: str | None):
    return backend.sample_basis(band) if part is None else backend.sample_basis(band, part=part)


def random_element(backend, rng, band: int = 2, part: str | None = None, *, basis):
    """Standard-normal combination of the sampling basis (optionally one factor).

    ``basis`` is ``backend.sample_basis(band[, part])``, built once per scan.
    Dense backends give their basis as the rows of an array, torus backends as
    a ``torus.ModeBasis``, and semidirect products a Pair of such bases over
    one list of elements; one normal is drawn per element, in basis order.
    """
    if isinstance(basis, Pair):
        coeffs = rng.standard_normal(len(basis.x))
        return Pair(_combine(basis.x, coeffs), _combine(basis.y, coeffs))
    return _combine(basis, rng.standard_normal(len(basis)))


def _normalize(backend, v):
    n = backend.norm(v)
    if n <= 1e-12:
        return None
    return (1.0 / n) * v


def _orthonormal_pair(backend, x, y):
    x = _normalize(backend, x)
    if x is None:
        return None
    for _ in range(2):  # two Gram-Schmidt passes for numerical orthogonality
        y = y - backend.inner(y, x) * x
    y = _normalize(backend, y)
    if y is None:
        return None
    return x, y


def check_family(backend, family: str):
    """The factor each leg of a ``family`` plane is drawn from (None: the whole
    product); ValueError when the family is unknown or ``backend`` lacks factors."""
    if family not in FAMILIES:
        raise ValueError(f"unknown plane family {family!r} (expected one of {FAMILIES})")
    parts = {
        "full": (None, None),
        "gg": ("g", "g"),
        "hh": ("h", "h"),
        "gh": ("g", "h"),
        "contains-h": (None, "h"),
    }[family]
    if any(parts) and not isinstance(backend, SemidirectBackendBase):
        raise ValueError(f"family {family!r} needs a semidirect backend")
    return parts


def sample_planes(backend, seed: int, count: int, family: str = "full", band: int = 2):
    """Draw ``count`` non-degenerate planes, deterministically in the seed.

    For every family except ``contains-h`` the two legs are orthonormalized,
    so the plane Gram determinant is one.  ``contains-h`` planes keep their
    second leg exactly in the h factor: both legs are normalized and draws
    with nearly collinear legs are rejected.
    """
    part1, part2 = check_family(backend, family)
    bases = {part: _sample_basis(backend, band, part) for part in dict.fromkeys((part1, part2))}
    rng = rng_for_seed(seed)
    planes: list[Plane] = []
    budget = 100 * max(count, 1)
    while len(planes) < count:
        if budget <= 0:
            raise SamplingExhausted(f"no non-degenerate draw after 100x{count} retries")
        budget -= 1
        x = random_element(backend, rng, band=band, part=part1, basis=bases[part1])
        y = random_element(backend, rng, band=band, part=part2, basis=bases[part2])
        if family == "contains-h":
            x = _normalize(backend, x)
            y = _normalize(backend, y)
            if x is None or y is None:
                continue
            gram2 = 1.0 - backend.inner(x, y) ** 2
            if gram2 < 0.05:
                continue
            planes.append(Plane(x, y))
        else:
            pair = _orthonormal_pair(backend, x, y)
            if pair is None:
                continue
            planes.append(Plane(*pair))
    return planes

