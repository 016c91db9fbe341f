#!/usr/bin/env python3
"""Rigid body in a fluid: integrate the magnetic extension of so(3).

Runs the geodesic flow of magnetic:so3 with an anisotropic inertia tensor
under both integrators, prints the energy drift of each, and reconstructs the
rotation matrices of the body frame from the velocity component.

Usage:
    python scripts/kirchhoff_demo.py [--dt 1e-3] [--steps 2000]
"""

import argparse
import math
import sys

import numpy as np

from liecurv import catalog
from liecurv.backend import Pair
from liecurv.cli import checked
from liecurv.errors import MidpointDivergence, NonFiniteState, ValidationFailure
from liecurv.geodesic import IntegratorConfig, geodesic_rhs, integrate


def so3_matrix(u) -> np.ndarray:
    """3x3 skew matrix of u in the standard representation of so(3)."""
    u = np.asarray(u, dtype=float)
    return np.array([
        [0.0, -u[2], u[1]],
        [u[2], 0.0, -u[0]],
        [-u[1], u[0], 0.0],
    ])


def so3_exp(u):
    """exp(so3_matrix(u)) by Rodrigues' formula.  sin(a)/a and
    (1 - cos a)/a^2 = sinc(a/2)^2 / 2 are written with np.sinc, which holds at a = 0."""
    k = so3_matrix(u)
    a = np.linalg.norm(u)
    return np.eye(3) + np.sinc(a / np.pi) * k + 0.5 * np.sinc(a / (2 * np.pi)) ** 2 * (k @ k)


def final_attitude(traj):
    """Rotation matrix of the body frame at the end of the trajectory.

    The right logarithmic derivative convention gives the second-order step
    g_{n+1} = exp(dt * u_mid) g_n from g_0 = I, with u_mid the average of the
    velocity components of consecutive states.
    """
    g = np.eye(3)
    for n in range(len(traj.times) - 1):
        dt = traj.times[n + 1] - traj.times[n]
        g = so3_exp(dt * (0.5 * (traj.states[n].x + traj.states[n + 1].x))) @ g
    return g


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dt", type=checked(float, lambda v: math.isfinite(v) and v > 0,
                                             "finite and positive"), default=1e-3)
    parser.add_argument("--steps", type=checked(int, lambda v: v >= 1, "at least 1"), default=2000)
    parser.add_argument("--inertia", type=float, nargs=3, default=[1.0, 2.0, 3.0])
    args = parser.parse_args()

    try:
        sd = catalog.magnetic(catalog.so3(gram=args.inertia))
    except ValidationFailure as exc:  # an inertia tensor that is no inner product
        print(exc.report)
        return 1
    state0 = Pair(np.array([1.0, 0.5, -0.3]), np.array([0.2, -1.0, 0.4]))
    rhs = geodesic_rhs(sd)

    print(f"inertia={args.inertia} dt={args.dt} steps={args.steps}")
    for scheme in ("rk4", "implicit_midpoint"):
        config = IntegratorConfig(dt=args.dt, steps=args.steps, scheme=scheme)
        try:
            traj = integrate(rhs, state0, config, sd)
        except (MidpointDivergence, NonFiniteState) as exc:  # a step too large for the flow
            print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        drift = max(abs(e - traj.energy[0]) for e in traj.energy) / traj.energy[0]
        u_final = traj.states[-1].x
        print(f"{scheme:<18} energy drift {drift:.3e}   u(T) = {np.array2string(u_final, precision=6)}")
        if scheme == "rk4":
            g = final_attitude(traj)
            orth = np.max(np.abs(g @ g.T - np.eye(3)))
            print(f"{'':<18} body attitude orthogonality defect {orth:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
