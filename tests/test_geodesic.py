import tracemalloc

import numpy as np
import pytest

from helpers import (
    random_pair,
    reference_flat_rhs,
    reference_integrate,
    reference_pair_integrate,
    reference_rhs_tensor,
    reference_trajectory_csv_lines,
    rel_vec_err,
    semidirect_builtins,
)

from liecurv import catalog, cli, configio, geodesic
from liecurv.algebra import DenseBackend, MetricAlgebraSpec
from liecurv.backend import Pair
from liecurv.errors import DimensionMismatch, MidpointDivergence, NonFiniteState, NotAdInvariant
from liecurv.geodesic import (
    IntegratorConfig,
    QuadraticRHS,
    exact_conjugation_solution,
    geodesic_rhs,
    integrate,
    rhs_generic,
    rhs_magnetic,
    rhs_semidirect,
)

E = np.eye(3)
Z = np.zeros(3)


@pytest.fixture(scope="module")
def so3_unit():
    return DenseBackend(catalog.so3())


@pytest.fixture(scope="module")
def so3_diag():
    return DenseBackend(catalog.so3(gram=[1.0, 2.0, 3.0]))


@pytest.fixture(scope="module")
def so3_skewed():
    """so(3) in the basis of the columns of a fixed invertible P, with the Gram
    matrix 2.5 P^T P of the bi-invariant metric 2.5 I: Ad-invariant, not orthonormal."""
    p = np.array([[1.0, 0.3, -0.2], [0.1, 1.2, 0.4], [0.0, -0.5, 0.9]])
    c = np.einsum("ia,jb,ijk,ck->abc", p, p, catalog.so3().structure, np.linalg.inv(p))
    return DenseBackend(MetricAlgebraSpec(structure=c, gram=2.5 * p.T @ p, name="so3-skewed"))


class TestRightHandSides:
    def test_bi_invariant_is_stationary(self, so3_unit):
        np.testing.assert_allclose(rhs_generic(so3_unit, np.array([1.0, 2.0, 3.0])), Z, atol=1e-14)

    def test_euler_top(self, so3_diag):
        got = rhs_generic(so3_diag, np.ones(3))
        np.testing.assert_allclose(got, np.array([1.0, -1.0, 1.0 / 3.0]), atol=1e-13)

    def test_zero_state(self, so3_diag):
        np.testing.assert_allclose(rhs_generic(so3_diag, Z), Z)

    def test_conjugation_ad_invariant(self):
        sd = catalog.conjugation(catalog.so3())
        du, dv = rhs_semidirect(sd, E[0], E[1])
        np.testing.assert_allclose(du, Z, atol=1e-14)
        np.testing.assert_allclose(dv, E[2], atol=1e-14)  # [e1, e2]

    def test_isometric_linear_action_form(self):
        sd = catalog.linear_so3_on_r3()
        rng = np.random.default_rng(12)
        for _ in range(20):
            u, a = rng.standard_normal(3), rng.standard_normal(3)
            du, da = rhs_semidirect(sd, u, a)
            np.testing.assert_allclose(du, -sd.g.ad_transpose(u, u), atol=1e-13)
            np.testing.assert_allclose(da, sd.b(u, a), atol=1e-13)

    def test_zero_pair(self):
        sd = catalog.conjugation(catalog.so3())
        du, dv = rhs_semidirect(sd, Z, Z)
        np.testing.assert_allclose(du, Z)
        np.testing.assert_allclose(dv, Z)

    def test_magnetic_bi_invariant(self, so3_unit):
        du, dv = rhs_magnetic(so3_unit, E[0], E[1])
        np.testing.assert_allclose(du, Z, atol=1e-14)
        np.testing.assert_allclose(dv, E[2], atol=1e-14)

    def test_magnetic_zero_field(self, so3_diag):
        u = np.ones(3)
        du, dv = rhs_magnetic(so3_diag, u, Z)
        np.testing.assert_allclose(du, -so3_diag.ad_transpose(u, u), atol=1e-13)
        np.testing.assert_allclose(dv, Z)

    def test_magnetic_aligned_state(self, so3_diag):
        u = np.array([0.3, -1.2, 0.8])
        du, dv = rhs_magnetic(so3_diag, u, u)
        np.testing.assert_allclose(du, Z, atol=1e-13)
        np.testing.assert_allclose(dv, Z, atol=1e-13)

    @pytest.mark.parametrize("name,sd", semidirect_builtins())
    def test_rhs_is_negative_product_ad_transpose(self, name, sd):
        rng = np.random.default_rng(606)
        for _ in range(200):
            state = random_pair(rng, sd)
            du, da = rhs_semidirect(sd, state.x, state.y)
            adt = sd.ad_transpose(state, state)
            assert rel_vec_err(du, -adt.x) < 1e-10
            assert rel_vec_err(da, -adt.y) < 1e-10

    @pytest.mark.parametrize("gram", [None, [1.0, 2.0, 3.0]])
    def test_magnetic_rhs_matches_semidirect_builtin(self, gram):
        g_spec = catalog.so3(gram=gram)
        backend = DenseBackend(g_spec)
        sd = catalog.magnetic(g_spec)
        rng = np.random.default_rng(607)
        for _ in range(200):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            du1, dv1 = rhs_magnetic(backend, u, v)
            du2, dv2 = rhs_semidirect(sd, u, v)
            assert rel_vec_err(du1, du2) < 1e-10
            assert rel_vec_err(dv1, dv2) < 1e-10

    def test_magnetic_rhs_matches_on_random_solvable(self):
        for seed in (101, 102, 103):
            g_spec = catalog.random_solvable(4, seed)
            backend = DenseBackend(g_spec)
            sd = catalog.magnetic(g_spec)
            rng = np.random.default_rng(seed)
            for _ in range(50):
                u, v = rng.standard_normal(4), rng.standard_normal(4)
                du1, dv1 = rhs_magnetic(backend, u, v)
                du2, dv2 = rhs_semidirect(sd, u, v)
                assert rel_vec_err(du1, du2) < 1e-10
                assert rel_vec_err(dv1, dv2) < 1e-10


class TestExactConjugationSolution:
    def test_quarter_turn(self, so3_unit):
        u, v = exact_conjugation_solution(so3_unit, E[0], E[1], np.pi / 2)
        np.testing.assert_allclose(u, E[0])
        np.testing.assert_allclose(v, E[2], atol=1e-14)

    def test_time_zero_identity(self, so3_unit):
        u, v = exact_conjugation_solution(so3_unit, E[0], E[1], 0.0)
        np.testing.assert_allclose(u, E[0])
        np.testing.assert_allclose(v, E[1])

    def test_aligned_initial_data(self, so3_unit):
        u, v = exact_conjugation_solution(so3_unit, E[0], E[0], 1.7)
        np.testing.assert_allclose(v, E[0], atol=1e-14)

    def test_solves_the_ode(self, so3_unit, so3_skewed):
        # central finite differences of the flow against [u0, v], and |v(t)| = |v0|
        u0, v0 = np.array([0.3, 0.4, -1.0]), np.array([1.0, -2.0, 0.5])
        dt = 1e-6
        for g in (so3_unit, so3_skewed):
            assert g.is_ad_invariant()
            for t in (0.0, 0.4, 1.3):
                _, vp = exact_conjugation_solution(g, u0, v0, t + dt)
                _, vm = exact_conjugation_solution(g, u0, v0, t - dt)
                _, vt = exact_conjugation_solution(g, u0, v0, t)
                deriv = (vp - vm) / (2 * dt)
                np.testing.assert_allclose(deriv, g.bracket(u0, vt), atol=1e-8)
                assert g.norm(vt) == pytest.approx(g.norm(v0), rel=1e-14)

    @pytest.mark.parametrize("u0,v0", [(E[0], E[1, :2]), (E[0, :2], E[1])], ids=["v0", "u0"])
    def test_rejects_wrong_length(self, so3_unit, u0, v0):
        with pytest.raises(DimensionMismatch):
            exact_conjugation_solution(so3_unit, u0, v0, 1.0)

    def test_rejects_anisotropic_gram(self, so3_diag):
        with pytest.raises(NotAdInvariant):
            exact_conjugation_solution(so3_diag, E[0], E[1], 1.0)


class TestIntegrate:
    def test_rigid_body_bi_invariant_is_constant(self, so3_unit):
        u0 = np.array([1.0, 2.0, 3.0])
        traj = integrate(
            lambda u: rhs_generic(so3_unit, u), u0,
            IntegratorConfig(dt=0.01, steps=100), so3_unit,
        )
        np.testing.assert_allclose(traj.states[-1], u0, atol=1e-13)
        assert len(traj.times) == 101
        assert traj.energy[0] == pytest.approx(so3_unit.inner(u0, u0))

    def test_conjugation_rk4_vs_closed_form(self):
        sd = catalog.conjugation(catalog.so3())
        rhs = geodesic_rhs(sd)
        traj = integrate(rhs, Pair(E[0], E[1]), IntegratorConfig(dt=1e-3, steps=1000), sd)
        _, v_exact = exact_conjugation_solution(sd.g, E[0], E[1], 1.0)
        sup_err = np.max(np.abs(traj.states[-1].y - v_exact))
        assert sup_err <= 1e-8
        np.testing.assert_allclose(
            v_exact, np.cos(1.0) * E[1] + np.sin(1.0) * E[2], atol=1e-14
        )

    def test_rk4_fourth_order_convergence(self):
        sd = catalog.conjugation(catalog.so3())
        rhs = geodesic_rhs(sd)

        def sup_error(dt, steps):
            traj = integrate(rhs, Pair(E[0], E[1]), IntegratorConfig(dt=dt, steps=steps), sd)
            _, v_exact = exact_conjugation_solution(sd.g, E[0], E[1], dt * steps)
            return np.max(np.abs(traj.states[-1].y - v_exact))

        coarse = sup_error(0.05, 20)
        fine = sup_error(0.025, 40)
        assert 12.0 <= coarse / fine <= 20.0

    @pytest.mark.parametrize("scheme,bound", [("rk4", 1e-8), ("implicit_midpoint", 1e-10)])
    def test_energy_drift_euler_top(self, scheme, bound, so3_diag):
        u0 = np.array([1.0, 1.0, 1.0])
        traj = integrate(
            lambda u: rhs_generic(so3_diag, u), u0,
            IntegratorConfig(dt=1e-3, steps=1000, scheme=scheme), so3_diag,
        )
        drift = max(abs(e - traj.energy[0]) for e in traj.energy) / traj.energy[0]
        assert drift <= bound

    @pytest.mark.parametrize("scheme,bound", [("rk4", 1e-8), ("implicit_midpoint", 1e-10)])
    def test_energy_drift_magnetic(self, scheme, bound):
        sd = catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0]))
        state0 = Pair(np.array([1.0, 0.5, -0.3]), np.array([0.2, -1.0, 0.4]))
        traj = integrate(
            geodesic_rhs(sd), state0,
            IntegratorConfig(dt=1e-3, steps=1000, scheme=scheme), sd,
        )
        drift = max(abs(e - traj.energy[0]) for e in traj.energy) / traj.energy[0]
        assert drift <= bound

    def test_midpoint_divergence_raises(self, so3_diag, monkeypatch):
        monkeypatch.setattr(geodesic, "MIDPOINT_MAX_ITER", 5)
        cfg = IntegratorConfig(dt=50.0, steps=1, scheme="implicit_midpoint")
        with pytest.raises(MidpointDivergence):
            integrate(lambda u: rhs_generic(so3_diag, u), np.ones(3), cfg, so3_diag)

    def test_times_are_step_multiples(self, so3_diag):
        cfg = IntegratorConfig(dt=0.1, steps=10)
        traj = integrate(lambda u: rhs_generic(so3_diag, u), np.ones(3), cfg, so3_diag)
        assert traj.times[-1] == 1.0  # a running sum of 0.1 gives 0.9999999999999999
        assert traj.times == [n * 0.1 for n in range(11)]

    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    def test_non_finite_initial_state_raises(self, so3_diag, scheme):
        cfg = IntegratorConfig(dt=0.1, steps=1, scheme=scheme)
        with pytest.raises(NonFiniteState):
            integrate(lambda u: rhs_generic(so3_diag, u), np.array([1.0, np.nan, 1.0]), cfg, so3_diag)

    def test_rk4_blow_up_raises(self, so3_diag):
        cfg = IntegratorConfig(dt=10.0, steps=20)
        with pytest.raises(NonFiniteState):
            integrate(lambda u: rhs_generic(so3_diag, u), np.ones(3), cfg, so3_diag)

    def test_deterministic(self, so3_diag):
        cfg = IntegratorConfig(dt=1e-2, steps=50)
        a = integrate(lambda u: rhs_generic(so3_diag, u), np.ones(3), cfg, so3_diag)
        b = integrate(lambda u: rhs_generic(so3_diag, u), np.ones(3), cfg, so3_diag)
        assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=-1.0, steps=10)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, steps=0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, steps=1, scheme="verlet")


#: Every builtin dense and dense-semidirect selector head, with parameters.
DENSE_SELECTORS = ["so3", "so3:1,2,3", "random-solvable:5:7"]
SEMIDIRECT_SELECTORS = [
    "euclidean", "linear_so3_on_r3", "linear-so3-on-r3",
    "conjugation:so3", "conjugation:so3:1,2,3", "conjugation:random-solvable:4:3",
    "magnetic:so3", "magnetic:so3:1,2,3", "magnetic:random-solvable:6:2",
]


def _resolve(selector):
    if selector in DENSE_SELECTORS:
        return catalog.resolve_algebra(selector)
    return catalog.resolve_semidirect(selector)


def _energy_state(sd, rng, energy):
    """A seeded random state scaled to the given energy."""
    state = random_pair(rng, sd)
    return (energy / sd.inner(state, state)) ** 0.5 * state


class TestCompiledRHS:
    @pytest.mark.parametrize("selector", DENSE_SELECTORS + SEMIDIRECT_SELECTORS)
    def test_equals_the_primitive_calls(self, selector):
        backend = _resolve(selector)
        rhs = geodesic_rhs(backend)
        assert isinstance(rhs, QuadraticRHS)
        rng = np.random.default_rng(808)
        for _ in range(50):
            if isinstance(backend, DenseBackend):
                u = rng.standard_normal(backend.dim)
                assert rel_vec_err(rhs(u), rhs_generic(backend, u)) <= 1e-13
                continue
            state = random_pair(rng, backend)
            want = Pair(*rhs_semidirect(backend, state.x, state.y))
            assert rel_vec_err(rhs(backend.join(state)), backend.join(want)) <= 1e-13
            got = rhs(state)  # a Pair in, a Pair out
            assert rel_vec_err(got.x, want.x) <= 1e-13
            assert rel_vec_err(got.y, want.y) <= 1e-13

    @pytest.mark.parametrize(
        "selector", ["so3:1,2,3", "magnetic:so3:1,2,3", "conjugation:so3:1,2,3", "euclidean"]
    )
    def test_tensor_equals_the_two_branch_assembly(self, selector):
        backend = _resolve(selector)
        got, want = QuadraticRHS(backend)._gamma, reference_rhs_tensor(backend)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert list(map(float.hex, got.ravel().tolist())) == list(map(float.hex, want.ravel().tolist()))

    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize(
        "selector", ["so3:1,2,3", "magnetic:so3:1,2,3", "conjugation:random-solvable:4:3", "euclidean"]
    )
    def test_trajectory_matches_the_pair_loop(self, selector, scheme):
        backend = _resolve(selector)
        rng = np.random.default_rng(809)
        if isinstance(backend, DenseBackend):
            state0 = rng.standard_normal(backend.dim)
        else:
            state0 = random_pair(rng, backend)
        config = IntegratorConfig(dt=0.01, steps=300, scheme=scheme)
        traj = integrate(geodesic_rhs(backend), state0, config, backend)
        states, energy = reference_pair_integrate(backend, state0, config)
        assert len(traj.states) == len(states) == 301
        for got, want in zip(traj.states, states):
            if isinstance(want, Pair):
                assert isinstance(got, Pair)
                assert rel_vec_err(got.x, want.x) <= 1e-12
                assert rel_vec_err(got.y, want.y) <= 1e-12
            else:
                assert rel_vec_err(got, want) <= 1e-12
        assert rel_vec_err(traj.energy, energy) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_midpoint_takes_three_evaluations_per_step(self, seed):
        rng = np.random.default_rng(seed)
        sd = catalog.magnetic(catalog.so3(gram=rng.uniform(0.5, 3.0, size=3)))
        state0 = _energy_state(sd, rng, 0.1)
        compiled = geodesic_rhs(sd)
        calls = []

        def counted(state):
            calls.append(1)
            return compiled(state)

        config = IntegratorConfig(dt=1e-3, steps=200, scheme="implicit_midpoint")
        integrate(counted, state0, config, sd)
        assert len(calls) == 3 * config.steps

    def test_rk4_blow_up_raises(self):
        sd = catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0]))
        state0 = Pair(np.array([1.0, 0.5, -0.3]), np.array([0.2, -1.0, 0.4]))
        with pytest.raises(NonFiniteState, match=r"^energy inf after 2 steps \(dt=10\.0\)$"):
            integrate(geodesic_rhs(sd), state0, IntegratorConfig(dt=10.0, steps=20), sd)

    @pytest.mark.parametrize("max_iter,message", [
        (5, r"^fixed point not reached in 5 iterations \(dt=50\.0\)$"),
        (50, r"^fixed-point iterate diverged \(dt=50\.0\)$"),
    ])
    def test_midpoint_divergence_raises(self, max_iter, message, monkeypatch):
        monkeypatch.setattr(geodesic, "MIDPOINT_MAX_ITER", max_iter)
        sd = catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0]))
        state0 = Pair(np.array([1.0, 0.5, -0.3]), np.array([0.2, -1.0, 0.4]))
        config = IntegratorConfig(dt=50.0, steps=1, scheme="implicit_midpoint")
        with pytest.raises(MidpointDivergence, match=message):
            integrate(geodesic_rhs(sd), state0, config, sd)

    def test_non_finite_pair_state_raises(self):
        sd = catalog.magnetic(catalog.so3())
        state0 = Pair(np.array([1.0, np.nan, 0.0]), np.zeros(3))
        with pytest.raises(NonFiniteState, match=r"^energy nan after 0 steps"):
            integrate(geodesic_rhs(sd), state0, IntegratorConfig(dt=0.1, steps=1), sd)

    def test_tensor_built_only_for_a_geodesic(self, monkeypatch, tmp_path, capsys):
        built = []
        init = QuadraticRHS.__init__

        def counted_init(self, backend):
            built.append(backend)
            init(self, backend)

        monkeypatch.setattr(QuadraticRHS, "__init__", counted_init)
        for selector in DENSE_SELECTORS + SEMIDIRECT_SELECTORS:
            _resolve(selector)
        assert cli.run(["scan", "--semidirect", "magnetic:random-solvable:8:1",
                        "--seed", "1", "--count", "20"]) == 0
        assert cli.run(["scan", "--algebra", "so3:1,2,3", "--seed", "1", "--count", "5"]) == 0
        assert built == []
        state = tmp_path / "state.cfg"
        state.write_text("[state]\nu = 0.3 -0.7 0.45\nalpha = 0.2 0.5 -0.35\n")
        assert cli.run(["geodesic", "--semidirect", "magnetic:so3", "--state-file", str(state),
                        "--dt", "0.01", "--steps", "2"]) == 0
        assert len(built) == 1
        capsys.readouterr()

    def test_torus_backends_keep_the_state_loop(self):
        from liecurv import torus

        assert not isinstance(geodesic_rhs(torus.VolumeFieldBackend()), QuadraticRHS)
        assert not isinstance(geodesic_rhs(torus.MhdBackend()), QuadraticRHS)


def _counted(rhs, calls):
    def inner(state):
        calls.append(1)
        return rhs(state)
    return inner


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _flat_bits(states):
    if isinstance(states[0], Pair):
        return _bits([np.concatenate([s.x, s.y]) for s in states])
    return _bits(states)


class TestFlatLoop:
    """``integrate`` against the loop with ``@`` products, a Gram metric object,
    every norm formed from its state and eagerly built states, bit for bit."""

    @pytest.mark.parametrize("scheme", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("selector,dt,steps", [
        ("so3:1,2,3", 0.01, 200),
        ("magnetic:so3:1,2,3", 0.01, 200),
        ("euclidean", 0.01, 200),
        ("conjugation:so3:1,2,3", 0.01, 200),
        ("magnetic:random-solvable:32:1", 0.01, 40),
        ("magnetic:so3:1,2,3", 0.3, 100),  # the midpoint solver takes 9 to 14 passes a step
    ])
    def test_trajectory_and_csv_equal_the_reference_loop(self, selector, dt, steps, scheme):
        backend = _resolve(selector)
        rng = np.random.default_rng(810)
        state0 = (rng.standard_normal(backend.dim) if isinstance(backend, DenseBackend)
                  else random_pair(rng, backend))
        config = IntegratorConfig(dt=dt, steps=steps, scheme=scheme)
        got_calls, want_calls = [], []
        traj = integrate(_counted(geodesic_rhs(backend), got_calls), state0, config, backend)
        ref = reference_integrate(_counted(reference_flat_rhs(backend), want_calls), state0,
                                  config, backend)
        assert len(got_calls) == len(want_calls)
        if dt == 0.3 and scheme == "implicit_midpoint":
            assert len(got_calls) >= 10 * steps
        assert np.array_equal(_bits(traj.times), _bits(ref.times))
        assert np.array_equal(_bits(traj.energy), _bits(ref.energy))
        assert traj.states is traj.states  # built once, on first read
        assert [type(s) for s in traj.states] == [type(s) for s in ref.states]
        assert np.array_equal(_flat_bits(traj.states), _flat_bits(ref.states))
        assert configio.trajectory_csv_lines(traj) == reference_trajectory_csv_lines(ref)

    @pytest.mark.parametrize("scheme,dt,steps,max_iter,nan_state", [
        ("rk4", 10.0, 20, 50, False),  # energy inf after 2 steps
        ("implicit_midpoint", 50.0, 1, 50, False),  # the iterate diverges
        ("implicit_midpoint", 50.0, 1, 5, False),  # no fixed point in 5 passes
        ("implicit_midpoint", 0.1, 1, 50, True),  # energy nan after 0 steps
    ])
    def test_failures_equal_the_reference_loop(self, scheme, dt, steps, max_iter, nan_state,
                                               monkeypatch):
        monkeypatch.setattr(geodesic, "MIDPOINT_MAX_ITER", max_iter)
        sd = catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0]))
        state0 = Pair(np.array([1.0, np.nan if nan_state else 0.5, -0.3]), np.array([0.2, -1.0, 0.4]))
        config = IntegratorConfig(dt=dt, steps=steps, scheme=scheme)
        got_calls, want_calls = [], []
        with pytest.raises((MidpointDivergence, NonFiniteState)) as got:
            integrate(_counted(geodesic_rhs(sd), got_calls), state0, config, sd)
        with pytest.raises((MidpointDivergence, NonFiniteState)) as want:
            reference_integrate(_counted(reference_flat_rhs(sd), want_calls), state0, config, sd)
        assert (got.type, str(got.value)) == (want.type, str(want.value))
        assert len(got_calls) == len(want_calls)

    def test_memory_of_a_long_run_with_its_csv(self):
        sd = catalog.resolve_semidirect("magnetic:so3:1,2,3")
        # energy 0.16: two fixed-point passes a step, as in the benchmark's dense geodesic
        state0 = 0.25 * Pair(np.array([0.3, -0.7, 0.45]), np.array([0.2, 0.5, -0.35]))
        config = IntegratorConfig(dt=1e-3, steps=10_000, scheme="implicit_midpoint")
        rhs, ref_rhs = geodesic_rhs(sd), reference_flat_rhs(sd)

        def peak(run):
            tracemalloc.start()
            try:
                lines = run()
                return tracemalloc.get_traced_memory()[1], lines
            finally:
                tracemalloc.stop()

        got, got_lines = peak(lambda: configio.trajectory_csv_lines(integrate(rhs, state0, config, sd)))
        want, want_lines = peak(
            lambda: reference_trajectory_csv_lines(reference_integrate(ref_rhs, state0, config, sd)))
        assert got_lines == want_lines
        assert got <= 0.65 * want, (got, want)
