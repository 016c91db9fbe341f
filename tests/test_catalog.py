import numpy as np
import pytest

from helpers import SOLVABLE_SEEDS, reference_product_structure, reference_random_solvable, rel_vec_err

from liecurv import catalog
from liecurv.algebra import DenseBackend, validate
from liecurv.errors import ConfigError
from liecurv.geodesic import rhs_semidirect
from liecurv.semidirect import validate_action
from liecurv import torus

E = np.eye(3)
Z = np.zeros(3)


class TestSo3:
    def test_standard_spec_validates(self):
        assert validate(catalog.so3()).passed

    def test_diagonal_gram(self):
        spec = catalog.so3(gram=[2.0, 3.0, 4.0])
        assert validate(spec).passed
        np.testing.assert_allclose(spec.gram, np.diag([2.0, 3.0, 4.0]))

    def test_full_gram(self):
        g = np.array([[2.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert validate(catalog.so3(gram=g)).passed


class TestConjugation:
    def test_isometric_iff_ad_invariant(self):
        assert catalog.conjugation(catalog.so3()).isometric
        assert not catalog.conjugation(catalog.so3(gram=[1.0, 2.0, 3.0])).isometric

    def test_action_is_ad(self):
        sd = catalog.conjugation(catalog.so3(gram=[1.0, 2.0, 3.0]))
        for i in range(3):
            np.testing.assert_allclose(sd.action.matrices[i], sd.g.ad(E[i]))

    def test_h_map_closed_form(self):
        sd = catalog.conjugation(catalog.so3())
        np.testing.assert_allclose(sd.h_map(E[0], E[1]), E[2], atol=1e-14)
        rng = np.random.default_rng(4)
        for _ in range(50):
            y1, y2 = rng.standard_normal(3), rng.standard_normal(3)
            assert rel_vec_err(sd.h_map(y1, y2), -sd.h.ad_transpose(y1, y2)) < 1e-10


class TestLinearAction:
    def test_cross_product_action(self):
        sd = catalog.linear_so3_on_r3()
        np.testing.assert_allclose(sd.b(E[0], E[1]), E[2])  # b(e1) f2 = f3
        assert sd.isometric

    def test_h_map_skew(self):
        sd = catalog.linear_so3_on_r3()
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = rng.standard_normal(3)
            assert np.max(np.abs(sd.h_map(f, f))) < 1e-12 * (1 + f @ f)

    def test_geodesic_rhs(self):
        sd = catalog.linear_so3_on_r3()
        du, dv = rhs_semidirect(sd, E[0], E[1])
        np.testing.assert_allclose(du, Z, atol=1e-14)
        np.testing.assert_allclose(dv, E[2], atol=1e-14)

    def test_euclidean_alias(self):
        sd = catalog.euclidean()
        assert sd.name == "euclidean"
        np.testing.assert_allclose(sd.action.matrices, catalog.linear_so3_on_r3().action.matrices)


class TestMagnetic:
    @pytest.mark.parametrize("gram", [None, [1.0, 2.0, 3.0]])
    def test_action_is_minus_ad_transpose(self, gram):
        g = DenseBackend(catalog.so3(gram=gram))
        sd = catalog.magnetic(catalog.so3(gram=gram))
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert rel_vec_err(sd.b(x, y), -g.ad_transpose(x, y)) < 1e-10

    def test_abelian_dual_factor(self):
        sd = catalog.magnetic(catalog.so3())
        assert np.all(sd.h.spec.structure == 0)
        np.testing.assert_allclose(sd.h.spec.gram, sd.g.spec.gram)

    def test_unit_gram_examples(self):
        sd = catalog.magnetic(catalog.so3())
        np.testing.assert_allclose(sd.b(E[0], E[1]), E[2], atol=1e-14)  # -ad(e1)^T e2
        # closed form and the generic linear solve must agree; both give e3
        closed = sd.g.ad_transpose(E[1], E[0])
        solved = sd.h_map(E[0], E[1])
        np.testing.assert_allclose(solved, closed, atol=1e-13)
        np.testing.assert_allclose(solved, E[2], atol=1e-13)

    def _check_derived_tensors(self, g_spec):
        g = DenseBackend(g_spec)
        sd = catalog.magnetic(g_spec)
        rng = np.random.default_rng(13)
        for _ in range(50):
            x, y1, y2 = (rng.standard_normal(g.dim) for _ in range(3))
            assert rel_vec_err(sd.b_transpose(x, y1), -g.bracket(x, y1)) < 1e-10
            assert rel_vec_err(sd.h_map(y1, y2), g.ad_transpose(y2, y1)) < 1e-10

    @pytest.mark.parametrize("gram", [None, [1.0, 2.0, 3.0]])
    def test_derived_tensors_so3(self, gram):
        self._check_derived_tensors(catalog.so3(gram=gram))

    @pytest.mark.parametrize("seed", SOLVABLE_SEEDS)
    def test_derived_tensors_random_solvable(self, seed):
        self._check_derived_tensors(catalog.random_solvable(4, seed))

    @pytest.mark.parametrize("selector", ["so3", "so3:1,2,3", "random-solvable:6:1",
                                          "random-solvable:8:1", "random-solvable:32:1"])
    def test_action_equals_the_adjoints_of_ad_bit_for_bit(self, selector):
        g = catalog.resolve_algebra(selector)
        want = -g.adjoints(g.ad(np.eye(g.dim)))  # -ad(e_i)^T, solved from the ad matrices
        got = catalog.resolve_semidirect(f"magnetic:{selector}").action.matrices
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_isometric_only_for_ad_invariant_gram(self):
        assert catalog.magnetic(catalog.so3()).isometric
        assert not catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0])).isometric


class TestRandomSolvable:
    def test_jacobi_exact(self):
        for seed in SOLVABLE_SEEDS:
            spec = catalog.random_solvable(4, seed)
            report = validate(spec).at(1e-12)
            assert report.passed

    def test_seed_determinism(self):
        a = catalog.random_solvable(5, 42)
        b = catalog.random_solvable(5, 42)
        np.testing.assert_array_equal(a.structure, b.structure)

    def test_nontrivial_bracket(self):
        spec = catalog.random_solvable(4, 101)
        assert np.max(np.abs(spec.structure)) > 0.01

    def test_conjugation_over_random_solvable_builds(self):
        sd = catalog.conjugation(catalog.random_solvable(4, 104))
        assert sd.g.dim == 4

    @pytest.mark.parametrize("dim,seed", [(2, 0), (5, 42), (32, 1)])
    def test_structure_equals_the_column_loop(self, dim, seed):
        got = catalog.random_solvable(dim, seed).structure
        assert got.tobytes() == reference_random_solvable(dim, seed).tobytes()

    @pytest.mark.parametrize("selector", [
        "euclidean", "conjugation:so3:1,2,3", "magnetic:so3:1,2,3", "magnetic:random-solvable:8:1",
    ])
    def test_product_structure_equals_the_block_loop(self, selector):
        sd = catalog.resolve_semidirect(selector)
        assert sd.product_spec.structure.tobytes() == reference_product_structure(sd).tobytes()

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            catalog.random_solvable(1, 0)


class TestResolution:
    def test_algebra_selectors(self):
        assert catalog.resolve_algebra("so3").dim == 3
        backend = catalog.resolve_algebra("so3:1,2,3")
        np.testing.assert_allclose(backend.spec.gram, np.diag([1.0, 2.0, 3.0]))
        assert catalog.resolve_algebra("random-solvable:4:7").dim == 4
        assert isinstance(catalog.resolve_algebra("torus-vol"), torus.VolumeFieldBackend)
        assert isinstance(catalog.resolve_algebra("torus-full"), torus.FullFieldBackend)

    def test_semidirect_selectors(self):
        assert catalog.resolve_semidirect("conjugation:so3").g.dim == 3
        sd = catalog.resolve_semidirect("magnetic:so3:1,2,3")
        np.testing.assert_allclose(sd.g.spec.gram, np.diag([1.0, 2.0, 3.0]))
        assert catalog.resolve_semidirect("euclidean").name == "euclidean"
        assert isinstance(catalog.resolve_semidirect("mhd"), torus.MhdBackend)
        assert isinstance(catalog.resolve_semidirect("passive-scalar"), torus.PassiveScalarBackend)
        assert isinstance(catalog.resolve_semidirect("compressible"), torus.CompressibleScalarBackend)

    @pytest.mark.parametrize(
        "selector", ["so9", "so3:1,2", "torus-vol:3", "random-solvable:x:1"]
    )
    def test_bad_algebra_selectors(self, selector):
        with pytest.raises(ConfigError):
            catalog.resolve_algebra(selector)

    @pytest.mark.parametrize("selector", ["conjugation", "spin:so3", "mhd:so3"])
    def test_bad_semidirect_selectors(self, selector):
        with pytest.raises(ConfigError):
            catalog.resolve_semidirect(selector)


def test_every_builtin_validates_end_to_end():
    builtins = [
        catalog.conjugation(catalog.so3()),
        catalog.conjugation(catalog.so3(gram=[1.0, 2.0, 3.0])),
        catalog.linear_so3_on_r3(),
        catalog.euclidean(),
        catalog.magnetic(catalog.so3()),
        catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0])),
    ]
    for sd in builtins:
        assert validate(sd.g.spec).passed
        assert validate(sd.h.spec).passed
        assert validate_action(sd.g.spec, sd.h.spec, sd.action).passed
        assert validate(sd.product_spec).passed
