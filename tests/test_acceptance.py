"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here exactly as stated; the helpers draw
their randomness from fixed seeds so the suite is deterministic.
"""

import time

import numpy as np
import pytest

from helpers import (
    check_derivation_identity,
    check_h_identity,
    finite_algebras,
    random_pair,
    reference_modes,
    rel_vec_err,
    relerr,
    semidirect_builtins,
)

from liecurv import catalog, torus
from liecurv.algebra import DenseBackend
from liecurv.backend import Pair
from liecurv.cli import run
from liecurv.curvature import (
    curvature_numerator_generic,
    curvature_numerator_semidirect,
    isometric_sum,
    oracle_curvature,
)
from liecurv.geodesic import (
    IntegratorConfig,
    exact_conjugation_solution,
    geodesic_rhs,
    integrate,
    rhs_magnetic,
    rhs_semidirect,
)
from liecurv.sampling import rng_for_seed, sample_planes

E = np.eye(3)


def _report(number: int, description: str, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_semidirect_expansion_cross_check():
    def body():
        start = time.perf_counter()
        for name, sd in semidirect_builtins():
            rng = rng_for_seed(1001)
            for _ in range(200):
                p, q = random_pair(rng, sd), random_pair(rng, sd)
                expanded = curvature_numerator_semidirect(sd, p, q).numerator
                assembled = curvature_numerator_generic(
                    sd.product, sd.join(p), sd.join(q)
                ).numerator
                assert relerr(expanded, assembled) <= 1e-9, name
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s"

    _report(1, "semidirect expansion matches generic formula on the product", body)


def test_criterion_2_oracle_equivalence():
    def body():
        backends = list(finite_algebras())
        backends += [
            (f"random:{seed}", DenseBackend(catalog.random_solvable(3 + seed % 4, 5000 + seed)))
            for seed in range(50)
        ]
        for name, backend in backends:
            rng = rng_for_seed(1002)
            for _ in range(200):
                x = rng.standard_normal(backend.dim)
                y = rng.standard_normal(backend.dim)
                a = oracle_curvature(backend, x, y)
                b = curvature_numerator_generic(backend, x, y).numerator
                assert relerr(a, b) <= 1e-9, name
        unit = DenseBackend(catalog.so3())
        value = curvature_numerator_generic(unit, E[0], E[1]).numerator
        assert abs(value - 0.25) <= 1e-12
        assert abs(oracle_curvature(unit, E[0], E[1]) - 0.25) <= 1e-12

    _report(2, "connection-composition oracle equals the five-term formula", body)


def test_criterion_3_isometric_additivity():
    def body():
        isometric = [(n, sd) for n, sd in semidirect_builtins() if sd.isometric]
        assert isometric, "no isometric builtins found"
        for name, sd in isometric:
            rng = rng_for_seed(1003)
            for _ in range(200):
                p, q = random_pair(rng, sd), random_pair(rng, sd)
                total = isometric_sum(sd, p, q)
                full = curvature_numerator_semidirect(sd, p, q).numerator
                assert relerr(total, full) <= 1e-9, name
        sd = catalog.conjugation(catalog.so3())
        value = curvature_numerator_semidirect(sd, Pair(E[0], E[0]), Pair(E[1], E[1])).numerator
        assert abs(value - 0.5) <= 1e-10

    _report(3, "isometric curvature is the sum of the factor curvatures", body)


def test_criterion_4_structure_identities():
    def body():
        for name, sd in semidirect_builtins():
            rng = rng_for_seed(1004)
            for _ in range(200):
                x1 = rng.standard_normal(sd.g.dim)
                x2 = rng.standard_normal(sd.g.dim)
                y1, y2, y3 = (rng.standard_normal(sd.h.dim) for _ in range(3))
                assert check_h_identity(sd, y1, y2, x1, x2) <= 1e-10, name
                assert check_derivation_identity(sd, x1, y1, y2, y3) <= 1e-10, name

    _report(4, "homomorphism and derivation identities hold", body)


def test_criterion_5_flat_sections():
    def body():
        start = time.perf_counter()
        ps = torus.PassiveScalarBackend()
        planes = sample_planes(ps, seed=1005, count=50, family="contains-h", band=2)
        for plane in planes:
            numerator = curvature_numerator_semidirect(ps, plane.x, plane.y).numerator
            assert abs(numerator) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds 30s"

    _report(5, "sections containing a function direction are flat", body)


def test_criterion_6_torus_plane_formulas():
    def body():
        mhd = torus.MhdBackend()
        vol = torus.VolumeFieldBackend()
        zero = torus.TrigVectorField.zero()
        rng = rng_for_seed(1006)

        def draw():
            basis = reference_modes(vol, 2)
            coeffs = 0.5 * rng.standard_normal(len(basis))
            total = basis[0] * float(coeffs[0])
            for b, c in zip(basis[1:], coeffs[1:]):
                total = total + float(c) * b
            return total

        for _ in range(50):
            x, y = draw(), draw()
            direct = torus.mhd_mixed_plane(x, y)
            expanded = curvature_numerator_semidirect(mhd, Pair(x, zero), Pair(zero, y)).numerator
            assert relerr(direct, expanded) <= 1e-10
            direct = torus.mhd_pure_magnetic_plane(x, y)
            expanded = curvature_numerator_semidirect(mhd, Pair(zero, x), Pair(zero, y)).numerator
            assert relerr(direct, expanded) <= 1e-10
            direct = torus.arnold_flat_curvature(x, y)
            generic = curvature_numerator_generic(vol, x, y).numerator
            assert relerr(direct, generic) <= 1e-10

    _report(6, "magnetic and flat-torus plane formulas match the expansion", body)


def test_criterion_7_geodesic_correctness():
    def body():
        sd = catalog.conjugation(catalog.so3())
        rhs = geodesic_rhs(sd)
        traj = integrate(rhs, Pair(E[0], E[1]), IntegratorConfig(dt=1e-3, steps=1000), sd)
        _, v_exact = exact_conjugation_solution(sd.g, E[0], E[1], 1.0)
        sup_err = float(np.max(np.abs(traj.states[-1].y - v_exact)))
        assert sup_err <= 1e-8

        def sup_error(dt, steps):
            t = integrate(rhs, Pair(E[0], E[1]), IntegratorConfig(dt=dt, steps=steps), sd)
            _, v = exact_conjugation_solution(sd.g, E[0], E[1], dt * steps)
            return float(np.max(np.abs(t.states[-1].y - v)))

        factor = sup_error(0.05, 20) / sup_error(0.025, 40)
        assert 12.0 <= factor <= 20.0, f"halving-dt factor {factor:.2f}"

        top = DenseBackend(catalog.so3(gram=[1.0, 2.0, 3.0]))
        magnetic = catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0]))
        cases = [
            (lambda u: -top.ad_transpose(u, u), np.array([1.0, 1.0, 1.0]), top),
            (geodesic_rhs(magnetic), Pair(np.array([1.0, 0.5, -0.3]), np.array([0.2, -1.0, 0.4])), magnetic),
        ]
        for scheme, bound in (("rk4", 1e-8), ("implicit_midpoint", 1e-10)):
            for rhs_fn, state0, backend in cases:
                traj = integrate(
                    rhs_fn, state0, IntegratorConfig(dt=1e-3, steps=1000, scheme=scheme), backend
                )
                drift = max(abs(e - traj.energy[0]) for e in traj.energy) / traj.energy[0]
                assert drift <= bound, f"{scheme} drift {drift:.2e}"

    _report(7, "geodesic integration reproduces closed forms and conserves energy", body)


def test_criterion_8_rhs_consistency():
    def body():
        for name, sd in semidirect_builtins():
            rng = rng_for_seed(1008)
            for _ in range(200):
                state = random_pair(rng, sd)
                du, da = rhs_semidirect(sd, state.x, state.y)
                adt = sd.ad_transpose(state, state)
                assert rel_vec_err(du, -adt.x) <= 1e-10, name
                assert rel_vec_err(da, -adt.y) <= 1e-10, name
        for gram in (None, [1.0, 2.0, 3.0]):
            g = DenseBackend(catalog.so3(gram=gram))
            sd = catalog.magnetic(catalog.so3(gram=gram))
            rng = rng_for_seed(1018)
            for _ in range(200):
                u, v = rng.standard_normal(3), rng.standard_normal(3)
                du1, dv1 = rhs_magnetic(g, u, v)
                du2, dv2 = rhs_semidirect(sd, u, v)
                assert rel_vec_err(du1, du2) <= 1e-10
                assert rel_vec_err(dv1, dv2) <= 1e-10

        vol = torus.VolumeFieldBackend()
        mhd = torus.MhdBackend()
        compressible = torus.CompressibleScalarBackend()
        rng = rng_for_seed(1028)

        def draw_divfree():
            basis = reference_modes(vol, 1)
            total = basis[0] * float(0.5 * rng.standard_normal())
            for b in basis[1:]:
                total = total + float(0.5 * rng.standard_normal()) * b
            return total

        def draw_function():
            modes = {(0, 0, torus.COS): 0.5 * rng.standard_normal()}
            for k in torus.canonical_wavevectors(1):
                for parity in (torus.COS, torus.SIN):
                    modes[(k[0], k[1], parity)] = 0.5 * rng.standard_normal()
            return torus.TrigFunction(modes)

        for _ in range(20):
            u, b = draw_divfree(), draw_divfree()
            du1, db1 = rhs_magnetic(vol, u, b)
            du2, db2 = torus.mhd_rhs_direct(u, b)
            du3, db3 = rhs_semidirect(mhd, u, b)
            assert (du1 - du2).coefficient_scale() <= 1e-12
            assert (db1 - db2).coefficient_scale() <= 1e-12
            assert (du1 - du3).coefficient_scale() <= 1e-12
            assert (db1 - db3).coefficient_scale() <= 1e-12

            w = torus.TrigVectorField(draw_function(), draw_function())
            f = draw_function()
            du1, df1 = rhs_semidirect(compressible, w, f)
            du2, df2 = torus.compressible_rhs_direct(w, f)
            assert (du1 - du2).coefficient_scale() <= 1e-12
            assert (df1 - df2).coefficient_scale() <= 1e-12

    _report(8, "geodesic right-hand sides agree across their derivations", body)


def test_criterion_9_scan_determinism(tmp_path):
    def body():
        invocations = [
            ["scan", "--semidirect", "conjugation:so3", "--seed", "7", "--count", "100"],
            ["scan", "--semidirect", "magnetic:so3:1,2,3", "--seed", "21", "--count", "60",
             "--format", "jsonl"],
            ["scan", "--semidirect", "passive-scalar", "--seed", "5", "--count", "10",
             "--family", "contains-h", "--band", "2"],
            ["scan", "--algebra", "torus-vol", "--seed", "13", "--count", "10", "--band", "1"],
        ]
        for idx, base in enumerate(invocations):
            a = tmp_path / f"scan_{idx}_a.out"
            b = tmp_path / f"scan_{idx}_b.out"
            assert run(base + ["--output", str(a)]) == 0
            assert run(base + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), base

    _report(9, "seeded scans are byte-identical across reruns", body)
