"""Euler-Arnold geodesic equations in the right logarithmic derivative.

Right-hand sides:

* plain group:            u' = -ad(u)^T u
* semidirect product:     u' = -ad(u)^T u + h_map(a, a)
                          a' = -ad(a)^T a - b(u)^T a
* magnetic extension:     u' = -ad(u)^T u + ad(v)^T v
                          v' = ad(u) v

Fixed-step RK4 and implicit midpoint integrators with an energy monitor
E(t) = <u, u> (+ <a, a> for product states).  The metric norm is conserved
by the exact flow, so E is the integration diagnostic.

On finite-dimensional backends the right-hand side is one fixed quadratic
form in the flat coordinates of the state, compiled once into a tensor
(``QuadraticRHS``), and the integrators step flat coordinate vectors.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import DenseBackend
from .backend import Pair
from .errors import MidpointDivergence, NonFiniteState, NotAdInvariant
from .semidirect import SemidirectAlgebra, check_product_dim, finite_dimensional

#: Implicit midpoint: the fixed-point iteration stops once an update is below
#: MIDPOINT_TOL (1 + |state|), and fails after MIDPOINT_MAX_ITER updates.
MIDPOINT_TOL = 1e-12
MIDPOINT_MAX_ITER = 50


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    steps: int
    scheme: str = "rk4"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.scheme not in ("rk4", "implicit_midpoint"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _identity(state):
    return state


@dataclass
class Trajectory:
    """Times, states and energies of an integration.

    ``rows`` holds the states as the integrator stepped them: flat coordinate
    vectors on a finite-dimensional backend, which ``to_state`` maps back to
    the backend's elements.  ``states`` builds those elements on first read.
    """

    to_state: Callable = _identity
    times: list[float] = field(default_factory=list)
    rows: list = field(default_factory=list)
    energy: list[float] = field(default_factory=list)

    @cached_property
    def states(self) -> list:
        return [self.to_state(row) for row in self.rows]


def rhs_generic(backend, u):
    """u' = -ad(u)^T u."""
    return -backend.ad_transpose(u, u)


def rhs_semidirect(sd, u, alpha):
    """Geodesic right-hand side on a semidirect product, componentwise."""
    du = -sd.g.ad_transpose(u, u) + sd.h_map(alpha, alpha)
    dalpha = -sd.h.ad_transpose(alpha, alpha) - sd.b_transpose(u, alpha)
    return du, dalpha


def rhs_magnetic(g_backend, u, v):
    """Geodesic right-hand side of the magnetic extension, on g-representatives."""
    du = -g_backend.ad_transpose(u, u) + g_backend.ad_transpose(v, v)
    dv = g_backend.bracket(u, v)
    return du, dv


def _flat_coordinates(backend):
    """(Gram matrix, state -> flat vector, flat vectors -> state) of a
    finite-dimensional backend, in ``SemidirectAlgebra.join`` order; None for
    any other backend.  The inverse map takes a stack of flat vectors too."""
    if isinstance(backend, SemidirectAlgebra):
        ng = backend.g.dim
        check_product_dim(ng, backend.h.dim)
        return backend.gram, backend.join, lambda v: Pair(v[..., :ng], v[..., ng:])
    if isinstance(backend, DenseBackend):
        return backend.spec.gram, backend._coerce, _identity
    return None


class QuadraticRHS:
    """Geodesic right-hand side of a finite-dimensional backend, compiled.

    The right-hand side is -ad(s)^T s for the backend's (product) ad-transpose,
    a fixed quadratic form in the flat coordinates s of the state:
    rhs(s)_k = sum_ij s_i s_j gamma[i, j, k] with gamma[i, j] = -ad(e_i)^T e_j.
    The tensor is built once, from the stacked primitives on the broadcast
    flat identity basis, so one evaluation is two small matrix products.
    Called on a flat coordinate vector it returns one; called on a state (a
    Pair on a semidirect product), a state.
    """

    def __init__(self, backend):
        gram, self._to_flat, self._to_state = _flat_coordinates(backend)
        rows = self._to_state(np.eye(len(gram)))
        gamma = self._to_flat(backend.ad_transpose(rows[:, None], rows[None]))
        self.dim = m = gamma.shape[0]
        self._gamma = np.ascontiguousarray(-gamma.reshape(m, m * m))

    def __call__(self, state):
        if isinstance(state, np.ndarray):
            # ndarray.dot takes the same BLAS products as @, with less overhead
            return state.dot(state.dot(self._gamma).reshape(self.dim, self.dim))
        return self._to_state(self(self._to_flat(state)))


def geodesic_rhs(backend):
    """State-valued right-hand side -ad(u)^T u for ``integrate`` over the given
    backend: a ``QuadraticRHS`` on a finite-dimensional backend.  On a semidirect
    torus backend the product ad-transpose gives ``rhs_semidirect`` as a Pair."""
    if finite_dimensional(backend):
        return QuadraticRHS(backend)
    return lambda u: rhs_generic(backend, u)


def _rk4_step(rhs, state, dt):
    k1 = rhs(state)
    k2 = rhs(state + (0.5 * dt) * k1)
    k3 = rhs(state + (0.5 * dt) * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_step(rhs, state, dt, norm, state_norm):
    mid = state + (0.5 * dt) * rhs(state)
    bound = MIDPOINT_TOL * (1.0 + state_norm)
    for _ in range(MIDPOINT_MAX_ITER):
        size = norm(mid)
        if not math.isfinite(size) or size > 1e50:
            raise MidpointDivergence(f"fixed-point iterate diverged (dt={dt})")
        nxt = state + (0.5 * dt) * rhs(mid)
        if norm(nxt - mid) <= bound:
            return 2.0 * nxt - state
        mid = nxt
    raise MidpointDivergence(
        f"fixed point not reached in {MIDPOINT_MAX_ITER} iterations (dt={dt})"
    )


def integrate(rhs, state0, config: IntegratorConfig, backend) -> Trajectory:
    """Integrate a state-valued ODE with the configured fixed-step scheme.

    ``backend`` supplies the inner product for the energy monitor and the
    norm used by the implicit-midpoint convergence test.  On a
    finite-dimensional backend the steps run on flat coordinate vectors
    (``SemidirectAlgebra.join`` order), which ``rhs`` takes and returns, as the
    one ``geodesic_rhs`` builds does; inner product and norm come from the Gram
    matrix, and the trajectory keeps the flat vectors as its ``rows``.
    Deterministic for identical inputs.
    """
    flat = _flat_coordinates(backend)
    if flat is None:
        inner, norm, state, traj = backend.inner, backend.norm, state0, Trajectory()
    else:
        gram, to_flat, to_state = flat
        state, traj = to_flat(state0), Trajectory(to_state)

        def inner(a, b):
            return float(a.dot(gram).dot(b))

        def norm(a):
            return math.sqrt(max(inner(a, a), 0.0))  # max keeps a nan first argument

    def record(n, state):
        energy = float(inner(state, state))
        if not math.isfinite(energy):
            raise NonFiniteState(f"energy {energy} after {n} steps (dt={config.dt})")
        traj.times.append(n * config.dt)  # not a running sum, which accumulates rounding
        traj.rows.append(state)
        traj.energy.append(energy)
        return energy

    energy = record(0, state)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported by record()
        for n in range(1, config.steps + 1):
            if config.scheme == "rk4":
                state = _rk4_step(rhs, state, config.dt)
            else:
                # the state's norm from its finite energy, as norm_from_square forms it
                state = _midpoint_step(rhs, state, config.dt, norm, math.sqrt(max(energy, 0.0)))
            energy = record(n, state)
    return traj


def exact_conjugation_solution(g_backend, u0, v0, t: float):
    """Closed-form geodesic of the conjugation product for Ad-invariant metrics.

    u(t) = u0 and v(t) = exp(t ad(u0)) v0.  With G = L L^T, ad(u0) is
    skew-adjoint for G, so S = L^T ad(u0) L^-T is a real skew matrix and
    exp(t ad(u0)) = L^-T exp(tS) L^T.  The eigendecomposition
    i S = V diag(lam) V^H of the Hermitian matrix i S gives
    exp(tS) = V diag(exp(-i lam t)) V^H.
    """
    if not g_backend.is_ad_invariant():
        raise NotAdInvariant("closed form requires a bi-invariant (Ad-invariant) metric")
    u0, v0 = g_backend._coerce(u0), g_backend._coerce(v0)
    chol = g_backend._chol
    s = np.linalg.solve(chol, (chol.T @ g_backend.ad(u0)).T).T
    lam, vecs = np.linalg.eigh(1j * s)
    w = vecs @ (np.exp(-1j * t * lam) * (vecs.conj().T @ (chol.T @ v0)))
    return u0.copy(), np.linalg.solve(chol.T, w.real)
