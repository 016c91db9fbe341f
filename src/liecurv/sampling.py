"""Deterministic random planes and states over any backend.

All randomness flows through a PCG64 generator seeded directly with the
user-supplied 64-bit seed; there is no global RNG state.  Elements are
standard-normal combinations of the backend's sampling basis, or over a
semidirect product of its factors' bases, and planes are orthonormalized by
Gram-Schmidt in the backend inner product (two passes).  Planes are drawn and
orthonormalized as stacks, with the bits of one plane at a time.
"""

from __future__ import annotations

import numpy as np

from .backend import Pair, SemidirectBackendBase, broadcast_to, scale
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
    sum of ``float(c) * element`` in basis order.  An array basis is the
    identity (``DenseBackend.sample_basis``), so the sum is the coefficients,
    but for an exactly zero one: it is the sum of the row's c * 0, -0 where
    every c in the row has its sign bit set and +0 elsewhere.  A
    ``torus.ModeBasis`` writes onto its grid."""
    if isinstance(basis, np.ndarray):
        return np.where(coeffs == 0.0, _zero_sum(coeffs)[:, None], coeffs)
    return basis.combine(coeffs)


def _zero_sum(coeffs: np.ndarray) -> np.ndarray:
    """The running sum of c * 0 over each row of ``coeffs``: -0 where every c in
    the row has its sign bit set, +0 elsewhere."""
    return np.where(np.signbit(coeffs).all(axis=1), -0.0, 0.0)


def random_element(rng, basis):
    """Standard-normal combination of a sampling basis.

    ``basis`` is ``backend.sample_basis(band)``, built once per scan: the rows
    of an array for a dense backend, a ``torus.ModeBasis`` for a torus backend.
    A semidirect product has no sampling basis of its own; ``sample_planes``
    draws the g part and the h part of its elements from the factors' bases.
    One normal is drawn per element, in basis order.  This is the one-row case
    of the draws that ``sample_planes`` makes.
    """
    return _combine(basis, rng.standard_normal((1, len(basis))))[0]


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


def _factors(backend, part) -> tuple:
    """The bases that a leg drawn from ``part`` combines, in order: the factors
    of a semidirect backend (None: both), or None for a plain backend's own."""
    if not isinstance(backend, SemidirectBackendBase):
        return (None,)
    return ("g", "h") if part is None else (part,)


def _draw(backend, bases, part, coeffs):
    """One element per row of ``coeffs``, combined over ``bases`` as
    ``_factors(backend, part)`` names them."""
    if not isinstance(backend, SemidirectBackendBase):
        return _combine(bases[None], coeffs)
    ng = 0 if part == "h" else len(bases["g"])

    def factor(name, c):
        if part in (None, name):
            return _combine(bases[name], c)
        # drawn one element at a time, the factor a leg leaves out is the running sum of
        # float(c) * zero over the row.  On a dense factor that is _zero_sum; a torus
        # zero times a zero c is +0 (_Grid.__mul__), so a torus factor's real parts are
        # -0 exactly where every c is negative, which max(c) * zero gives
        zero = getattr(backend, name).zero()
        s = _zero_sum(coeffs) if isinstance(zero, np.ndarray) else coeffs.max(axis=1)
        return scale(s, broadcast_to(zero, (len(coeffs),)))

    return Pair(factor("g", coeffs[:, :ng]), factor("h", coeffs[:, ng:]))


def sample_planes(backend, seed: int, count: int, family: str = "full", band: int = 2):
    """Draw ``count`` non-degenerate planes, deterministically in the seed.

    For every family except ``contains-h`` the two legs are orthonormalized,
    so the plane Gram determinant is one.  ``contains-h`` planes keep their
    second leg exactly in the h factor: both legs are normalized and draws
    with nearly collinear legs are rejected.  Each basis, the backend's own or
    a factor's, is built once.
    """
    part1, part2 = check_family(backend, family)
    legs = _factors(backend, part1), _factors(backend, part2)
    bases = {name: (backend if name is None else getattr(backend, name)).sample_basis(band)
             for name in dict.fromkeys(legs[0] + legs[1])}
    size1, size2 = (sum(len(bases[name]) for name in leg) for leg in legs)
    rng = rng_for_seed(seed)
    planes: list[Plane] = []
    budget = 100 * max(count, 1)
    while len(planes) < count:
        if budget <= 0:
            raise SamplingExhausted(f"no non-degenerate draw after 100x{count} retries")
        # one attempt per missing plane, drawn as the loop of single attempts would
        attempts = min(count - len(planes), budget)
        budget -= attempts
        coeffs = rng.standard_normal((attempts, size1 + size2))
        x = _draw(backend, bases, part1, coeffs[:, :size1])
        y = _draw(backend, bases, part2, coeffs[:, size1:])
        planes += _unit_legs(backend, x, y, family)
    return planes
