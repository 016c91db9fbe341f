"""Deterministic random planes and states over any backend.

All randomness flows through a PCG64 generator seeded directly with the
user-supplied 64-bit seed; there is no global RNG state.  Elements are
standard-normal combinations of the backend's sampling basis, and planes are
orthonormalized by Gram-Schmidt in the backend inner product (two passes).
Planes are drawn and orthonormalized as stacks, with the bits of one plane at
a time.
"""

from __future__ import annotations

import numpy as np

from .backend import Pair, SemidirectBackendBase, scale
from .curvature import Plane
from .errors import SamplingExhausted

#: Plane families over a semidirect backend.  ``contains-h`` keeps the second
#: leg purely in the h factor (legs are normalized but not orthogonalized).
FAMILIES = ("full", "gg", "hh", "gh", "contains-h")


def rng_for_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _combine(basis, coeffs: np.ndarray):
    """sum_j coeffs[:, j] * element j of the basis, one element per row of
    ``coeffs``, stacked: the same bits, signed zeros included, as the running
    sum of ``float(c) * element`` in basis order.  The rows of an array are
    added one by one, a ``torus.ModeBasis`` writes onto its grid, and a Pair
    combines both parts."""
    if isinstance(basis, Pair):
        return Pair(_combine(basis.x, coeffs), _combine(basis.y, coeffs))
    if isinstance(basis, np.ndarray):
        total = coeffs[:, :1] * basis[0]
        for j in range(1, len(basis)):
            total += coeffs[:, j, None] * basis[j]
        return total
    return basis.combine(coeffs)


def _size(basis) -> int:
    return len(basis.x) if isinstance(basis, Pair) else len(basis)


def _sample_basis(backend, band: int, part: str | None):
    return backend.sample_basis(band) if part is None else backend.sample_basis(band, part=part)


def random_element(rng, basis):
    """Standard-normal combination of a sampling basis.

    ``basis`` is ``backend.sample_basis(band[, part])``, built once per scan.
    Dense backends give their basis as the rows of an array, torus backends as
    a ``torus.ModeBasis``, and semidirect products a Pair of such bases over
    one list of elements; one normal is drawn per element, in basis order.
    This is the one-row case of the draws that ``sample_planes`` makes.
    """
    return _combine(basis, rng.standard_normal((1, _size(basis))))[0]


def _select(keep, *stacks):
    """The elements of each stack where ``keep`` holds (the stacks themselves
    when it holds everywhere)."""
    return stacks if keep.all() else tuple(s[keep] for s in stacks)


def _unit_legs(backend, x, y, family: str):
    """The planes that the stacked legs x and y span and the sampler keeps, in
    order, with unit legs.  A leg of norm at most 1e-12 drops its plane.
    Except for ``contains-h``, y is first made orthogonal to x; ``contains-h``
    drops planes whose unit legs are nearly collinear instead."""
    nx = backend.norm(x)
    nx, x, y = _select(~(nx <= 1e-12), nx, x, y)
    x = scale(1.0 / nx, x)
    if family != "contains-h":
        for _ in range(2):  # two Gram-Schmidt passes for numerical orthogonality
            y = y - scale(backend.inner(y, x), x)
    ny = backend.norm(y)
    ny, x, y = _select(~(ny <= 1e-12), ny, x, y)
    y = scale(1.0 / ny, y)
    if family == "contains-h":
        ny, x, y = _select(~(1.0 - backend.inner(x, y) ** 2 < 0.05), ny, x, y)
    return [Plane(x[i], y[i]) for i in range(len(ny))]


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
    basis1, basis2 = bases[part1], bases[part2]
    size1 = _size(basis1)
    rng = rng_for_seed(seed)
    planes: list[Plane] = []
    budget = 100 * max(count, 1)
    while len(planes) < count:
        if budget <= 0:
            raise SamplingExhausted(f"no non-degenerate draw after 100x{count} retries")
        # one attempt per missing plane, drawn as the loop of single attempts would
        attempts = min(count - len(planes), budget)
        budget -= attempts
        coeffs = rng.standard_normal((attempts, size1 + _size(basis2)))
        x, y = _combine(basis1, coeffs[:, :size1]), _combine(basis2, coeffs[:, size1:])
        planes += _unit_legs(backend, x, y, family)
    return planes
