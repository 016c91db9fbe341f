import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_algebras, random_pair, rel_vec_err, relerr, semidirect_builtins

from liecurv import algebra, catalog, semidirect
from liecurv.algebra import DenseBackend
from liecurv.backend import Pair, stack
from liecurv.curvature import (
    Plane,
    SEMIDIRECT_TERM_LABELS,
    covariant_derivative,
    curvature_numerator_generic,
    curvature_numerator_semidirect,
    isometric_sum,
    oracle_curvature,
    sectional,
    special_plane,
)
from liecurv.errors import DegeneratePlane, NotIsometric
from liecurv.sampling import check_family, sample_planes

E = np.eye(3)
Z = np.zeros(3)


@pytest.fixture(scope="module")
def so3_unit():
    return DenseBackend(catalog.so3())


@pytest.fixture(scope="module")
def abelian3():
    return DenseBackend(catalog.abelian(3))


class TestGenericNumerator:
    def test_bi_invariant_value(self, so3_unit):
        br = curvature_numerator_generic(so3_unit, E[0], E[1])
        assert br.numerator == pytest.approx(0.25, abs=1e-12)

    def test_repeated_argument(self, so3_unit):
        br = curvature_numerator_generic(so3_unit, E[0], E[0])
        assert abs(br.numerator) < 1e-14

    def test_abelian_vanishes(self, abelian3):
        rng = np.random.default_rng(1)
        br = curvature_numerator_generic(abelian3, rng.standard_normal(3), rng.standard_normal(3))
        assert br.numerator == 0.0

    def test_terms_sum_to_numerator(self):
        for name, backend in finite_algebras():
            rng = np.random.default_rng(17)
            for _ in range(20):
                x, y = rng.standard_normal(backend.dim), rng.standard_normal(backend.dim)
                br = curvature_numerator_generic(backend, x, y)
                assert relerr(br.numerator, sum(v for _, v in br.terms)) < 1e-12

    def test_swap_symmetry(self):
        for name, backend in finite_algebras():
            rng = np.random.default_rng(23)
            for _ in range(50):
                x, y = rng.standard_normal(backend.dim), rng.standard_normal(backend.dim)
                a = curvature_numerator_generic(backend, x, y).numerator
                b = curvature_numerator_generic(backend, y, x).numerator
                assert relerr(a, b) < 1e-12

    def test_quadratic_scaling(self, so3_unit):
        rng = np.random.default_rng(29)
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lam = rng.uniform(0.5, 2.0)
            a = curvature_numerator_generic(so3_unit, lam * x, y).numerator
            b = lam**2 * curvature_numerator_generic(so3_unit, x, y).numerator
            assert relerr(a, b) < 1e-10


class TestSectional:
    def test_unit_plane(self, so3_unit):
        assert sectional(so3_unit, Plane(E[0], E[1])) == pytest.approx(0.25, abs=1e-13)

    def test_scaling_invariance(self, so3_unit):
        assert sectional(so3_unit, Plane(2.0 * E[0], E[1])) == pytest.approx(0.25, abs=1e-13)

    def test_degenerate_plane_rejected(self, so3_unit):
        with pytest.raises(DegeneratePlane):
            sectional(so3_unit, Plane(E[0], 2.0 * E[0]))

    def test_overflowing_gram_determinant_rejected(self, so3_unit):
        # |X|^2 |Y|^2 overflows; the plane is rejected instead of raising OverflowError
        with pytest.raises(DegeneratePlane):
            sectional(so3_unit, Plane(1e100 * (E[0] + E[1]), 1e100 * E[0]))

    @pytest.mark.parametrize("inertia", [(1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (0.5, 4.0, 2.5)])
    def test_milnor_closed_form(self, inertia):
        # Milnor 1976, Adv. Math. 21, sec. 4: in the orthonormal frame
        # f_i = e_i / sqrt(I_i) the bracket is [f_j, f_k] = lam_i f_i (cyclic), and
        # K(f_i, f_j) = lam_k mu_k - mu_i mu_j with mu_i = (lam_1 + lam_2 + lam_3)/2 - lam_i.
        backend = DenseBackend(catalog.so3(gram=list(inertia)))
        i1, i2, i3 = inertia
        lam = (np.sqrt(i1 / (i2 * i3)), np.sqrt(i2 / (i3 * i1)), np.sqrt(i3 / (i1 * i2)))
        mu = [sum(lam) / 2.0 - lam_i for lam_i in lam]
        f = [E[i] / np.sqrt(inertia[i]) for i in range(3)]
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            expected = lam[k] * mu[k] - mu[i] * mu[j]
            assert sectional(backend, Plane(f[i], f[j])) == pytest.approx(expected, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*(st.floats(-3, 3) for _ in range(4))))
    def test_basis_change_invariance(self, mat):
        a, b, c, d = mat
        if abs(a * d - b * c) < 0.1:
            return
        backend = DenseBackend(catalog.so3(gram=[1.0, 2.0, 3.0]))
        rng = np.random.default_rng(101)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        if abs(np.linalg.det(np.stack([x, y])[:, :2])) < 1e-3:
            x, y = E[0], E[1]
        k1 = sectional(backend, Plane(x, y))
        k2 = sectional(backend, Plane(a * x + b * y, c * x + d * y))
        assert relerr(k1, k2) < 1e-9


class TestSemidirectExpansion:
    def test_labels_in_display_order(self):
        sd = catalog.conjugation(catalog.so3())
        br = curvature_numerator_semidirect(sd, Pair(E[0], Z), Pair(E[1], Z))
        assert tuple(label for label, _ in br.terms) == SEMIDIRECT_TERM_LABELS
        assert len(br.terms) == 18

    def test_g_only_plane(self):
        sd = catalog.conjugation(catalog.so3())
        br = curvature_numerator_semidirect(sd, Pair(E[0], Z), Pair(E[1], Z))
        assert br.numerator == pytest.approx(0.25, abs=1e-12)

    def test_diagonal_plane_additivity_value(self):
        sd = catalog.conjugation(catalog.so3())
        br = curvature_numerator_semidirect(sd, Pair(E[0], E[0]), Pair(E[1], E[1]))
        assert br.numerator == pytest.approx(0.5, abs=1e-10)

    def test_mixed_plane_vanishes(self):
        sd = catalog.conjugation(catalog.so3())
        br = curvature_numerator_semidirect(sd, Pair(E[0], Z), Pair(Z, E[1]))
        assert abs(br.numerator) < 1e-12

    @pytest.mark.parametrize("name,sd", semidirect_builtins())
    def test_matches_generic_on_product_200_planes(self, name, sd):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            p, q = random_pair(rng, sd), random_pair(rng, sd)
            expanded = curvature_numerator_semidirect(sd, p, q).numerator
            assembled = curvature_numerator_generic(sd.product, sd.join(p), sd.join(q)).numerator
            assert relerr(expanded, assembled) < 1e-9

    def test_terms_sum_to_numerator(self):
        sd = catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0]))
        rng = np.random.default_rng(55)
        for _ in range(20):
            p, q = random_pair(rng, sd), random_pair(rng, sd)
            br = curvature_numerator_semidirect(sd, p, q)
            assert relerr(br.numerator, sum(v for _, v in br.terms)) < 1e-12


@pytest.mark.parametrize("selector", ["magnetic:so3:1,2,3", "magnetic:random-solvable:8:1",
                                      "passive-scalar", "compressible", "mhd"])
def test_factor_terms_are_the_factor_numerators_bit_for_bit(selector):
    # the expansion computes curv_g and curv_h from its own stacked operator
    # values; they must be the five-term numerators of the factors exactly
    sd = catalog.resolve_semidirect(selector)
    planes = sample_planes(sd, 17, 3, band=2)
    cases = [(p.x, p.y) for p in planes]
    cases.append((stack([p.x for p in planes]), stack([p.y for p in planes])))
    for p, q in cases:
        terms = dict(curvature_numerator_semidirect(sd, p, q).terms)
        for label, factor, a, b in (("curv_g", sd.g, p.x, q.x), ("curv_h", sd.h, p.y, q.y)):
            expected = curvature_numerator_generic(factor, a, b).numerator
            assert np.shape(terms[label]) == np.shape(expected)
            assert [v.hex() for v in np.ravel(terms[label]).tolist()] == \
                [v.hex() for v in np.ravel(expected).tolist()], label


@pytest.mark.parametrize("selector", ["magnetic:so3:1,2,3", "mhd"])
def test_an_unstacked_part_broadcasts_over_the_stack(selector):
    # gg planes with the h parts given once, as the factor's zero
    sd = catalog.resolve_semidirect(selector)
    planes = sample_planes(sd, 29, 3, family="gg", band=1)
    zero = sd.h.zero()
    x, y = (Pair(stack([getattr(p, leg).x for p in planes]), zero) for leg in ("x", "y"))
    stacked = curvature_numerator_semidirect(sd, x, y).numerator
    one_y = curvature_numerator_generic(sd.g, x.x, planes[0].y.x).numerator  # a stack against one
    for i, p in enumerate(planes):
        alone = curvature_numerator_semidirect(sd, Pair(p.x.x, zero), Pair(p.y.x, zero)).numerator
        assert relerr(stacked[i], alone) <= 1e-13
        alone = curvature_numerator_generic(sd.g, p.x.x, planes[0].y.x).numerator
        assert relerr(one_y[i], alone) <= 1e-13


@pytest.mark.parametrize("selector,semidirect_numerator,rows", [
    ("magnetic:random-solvable:8:1", True, 10),
    ("conjugation:random-solvable:4:104", True, 14),
    ("random-solvable:6:3", False, 4),
])
@pytest.mark.parametrize("count", [None, 7])
def test_each_left_leg_is_contracted_once(monkeypatch, selector, semidirect_numerator, rows, count):
    # the rows of the first product of every bilinear contraction of one numerator: each
    # operator's left operand holds the two distinct left legs once, and each bracket the
    # pairs (X1, X2) and (X2, X1)
    backend = (catalog.resolve_semidirect if semidirect_numerator else catalog.resolve_algebra)(selector)
    numerator = curvature_numerator_semidirect if semidirect_numerator else curvature_numerator_generic
    planes = sample_planes(backend, 5, count or 1)
    x, y = (planes[0].x, planes[0].y) if count is None else \
        (stack([p.x for p in planes]), stack([p.y for p in planes]))
    formed = []
    contract = algebra.bilinear

    def counted(t, a, b):
        formed.append(math.prod(np.shape(a)[:-1]))
        return contract(t, a, b)

    monkeypatch.setattr(algebra, "bilinear", counted)
    monkeypatch.setattr(semidirect, "bilinear", counted)
    numerator(backend, x, y)
    assert sum(formed) == rows * (count or 1)


def _stacked_cases():
    """(name, backend, numerator) for a dense algebra and semidirect products."""
    return [
        ("so3:diag123", DenseBackend(catalog.so3(gram=[1.0, 2.0, 3.0])), curvature_numerator_generic),
        ("solvable6:3", DenseBackend(catalog.random_solvable(6, 3)), curvature_numerator_generic),
        ("magnetic:so3:diag123", catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0])),
         curvature_numerator_semidirect),
        ("conjugation:solvable4", catalog.conjugation(catalog.random_solvable(4, 104)),
         curvature_numerator_semidirect),
        ("magnetic:solvable8", catalog.magnetic(catalog.random_solvable(8, 1)),
         curvature_numerator_semidirect),
    ]


class TestStackedPlanes:
    """One call on a stack of planes equals one call per plane, term by term."""

    @pytest.mark.parametrize("batch", [1, 7, 100])
    @pytest.mark.parametrize("name,backend,numerator", _stacked_cases())
    def test_matches_per_plane(self, name, backend, numerator, batch):
        rng = np.random.default_rng(batch)

        def draw():
            if isinstance(backend, DenseBackend):
                return rng.standard_normal((batch, backend.dim))
            return Pair(rng.standard_normal((batch, backend.g.dim)),
                        rng.standard_normal((batch, backend.h.dim)))

        x, y = draw(), draw()
        stacked = numerator(backend, x, y)
        assert stacked.numerator.shape == (batch,)
        for i in range(batch):
            xi, yi = (v[i] if isinstance(v, np.ndarray) else Pair(v.x[i], v.y[i]) for v in (x, y))
            single = numerator(backend, xi, yi)
            assert relerr(stacked.numerator[i], single.numerator) <= 1e-13
            assert relerr(stacked.denominator[i], single.denominator) <= 1e-13
            assert relerr(stacked.sectional[i], single.sectional) <= 1e-13
            for (label, value), (single_label, single_value) in zip(stacked.terms, single.terms):
                assert label == single_label
                assert relerr(value[i], single_value) <= 1e-13

    def test_degenerate_rows_get_nan_sectional(self):
        backend = DenseBackend(catalog.so3())
        x = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        y = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        br = curvature_numerator_generic(backend, x, y)
        assert br.sectional[0] == pytest.approx(0.25)
        assert np.isnan(br.sectional[1])


def _breakdowns(selector, semidirect, planes):
    """The breakdowns of one plane and of a stack of ``planes`` on ``selector``,
    from every numerator that takes the backend."""
    backend = (catalog.resolve_semidirect if semidirect else catalog.resolve_algebra)(selector)
    drawn = sample_planes(backend, 3, planes, band=1)
    x, y = stack([p.x for p in drawn]), stack([p.y for p in drawn])
    numerators = [curvature_numerator_generic] + [curvature_numerator_semidirect] * semidirect
    for numerator in numerators:
        yield numerator(backend, drawn[0].x, drawn[0].y), numerator(backend, x, y)


class TestBreakdownValues:
    """One plane gives Python floats, a stack arrays of the stack's shape."""

    @pytest.mark.parametrize("selector,semidirect", [
        ("so3:1,2,3", False), ("magnetic:so3:1,2,3", True), ("torus-vol", False), ("mhd", True),
    ])
    def test_float_for_one_plane_array_for_a_stack(self, selector, semidirect):
        for one, many in _breakdowns(selector, semidirect, 3):
            values = [one.numerator, one.denominator, one.sectional] + [v for _, v in one.terms]
            assert all(type(v) is float for v in values)
            values = [many.numerator, many.denominator, many.sectional] + [v for _, v in many.terms]
            assert all(isinstance(v, np.ndarray) and v.shape == (3,) for v in values)
            assert many.numerator[0] == pytest.approx(one.numerator, rel=1e-12, abs=1e-12)


class TestSampleBasis:
    @pytest.mark.parametrize("family,built", [
        ("full", ["g", "h"]), ("gg", ["g"]), ("hh", ["h"]), ("gh", ["g", "h"]),
        ("contains-h", ["g", "h"]),
    ])
    @pytest.mark.parametrize("selector", ["magnetic:so3:1,2,3", "mhd"])
    def test_each_factor_basis_is_built_at_most_once(self, selector, family, built, monkeypatch):
        backend = catalog.resolve_semidirect(selector)
        bases = []
        for name in ("g", "h"):
            factor = getattr(backend, name)
            monkeypatch.setattr(factor, "sample_basis",
                                lambda band, n=name, o=factor.sample_basis: bases.append(n) or o(band))
        assert len(sample_planes(backend, 1, 3, family=family, band=1)) == 3
        assert bases == built

    def test_unknown_family_is_rejected(self, so3_unit):
        with pytest.raises(ValueError, match="unknown plane family 'bogus'"):
            check_family(so3_unit, "bogus")


class TestSpecialPlanes:
    def test_gg_is_factor_curvature(self):
        sd = catalog.conjugation(catalog.so3())
        assert special_plane(sd, "gg", E[0], E[1]) == pytest.approx(0.25, abs=1e-12)

    def test_gh_isometric_example_vanishes(self):
        sd = catalog.conjugation(catalog.so3())
        assert abs(special_plane(sd, "gh", E[0], E[1])) < 1e-12

    def test_hh_trivial_for_zero_action(self):
        sd = catalog.linear_so3_on_r3()  # abelian h
        rng = np.random.default_rng(3)
        y1, y2 = rng.standard_normal(3), rng.standard_normal(3)
        # action nonzero but h is abelian; the HH value reduces to the h-map terms
        got = special_plane(sd, "hh", y1, y2)
        via_expansion = curvature_numerator_semidirect(sd, Pair(Z, y1), Pair(Z, y2)).numerator
        assert relerr(got, via_expansion) < 1e-10

    def test_unknown_case_rejected(self):
        sd = catalog.conjugation(catalog.so3())
        with pytest.raises(ValueError):
            special_plane(sd, "hg", E[0], E[1])

    @pytest.mark.parametrize("name,sd", semidirect_builtins())
    def test_each_case_matches_expansion(self, name, sd):
        rng = np.random.default_rng(777)
        for _ in range(50):
            x1, x2 = rng.standard_normal(sd.g.dim), rng.standard_normal(sd.g.dim)
            y1, y2 = rng.standard_normal(sd.h.dim), rng.standard_normal(sd.h.dim)
            gz, hz = sd.g.zero(), sd.h.zero()
            cases = [
                ("gg", (x1, x2), (Pair(x1, hz), Pair(x2, hz))),
                ("gh", (x1, y2), (Pair(x1, hz), Pair(gz, y2))),
                ("hh", (y1, y2), (Pair(gz, y1), Pair(gz, y2))),
            ]
            for case, args, pairs in cases:
                direct = special_plane(sd, case, *args)
                expanded = curvature_numerator_semidirect(sd, *pairs).numerator
                assert relerr(direct, expanded) < 1e-10


class TestIsometricSum:
    def test_diagonal_plane(self):
        sd = catalog.conjugation(catalog.so3())
        assert isometric_sum(sd, Pair(E[0], E[0]), Pair(E[1], E[1])) == pytest.approx(0.5, abs=1e-12)

    def test_g_only_plane(self):
        sd = catalog.conjugation(catalog.so3())
        assert isometric_sum(sd, Pair(E[0], Z), Pair(E[1], Z)) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_non_isometric(self):
        sd = catalog.conjugation(catalog.so3(gram=[1.0, 2.0, 3.0]))
        with pytest.raises(NotIsometric):
            isometric_sum(sd, Pair(E[0], Z), Pair(E[1], Z))

    @pytest.mark.parametrize(
        "name,sd", [e for e in semidirect_builtins() if e[1].isometric]
    )
    def test_additivity_200_planes(self, name, sd):
        rng = np.random.default_rng(888)
        for _ in range(200):
            p, q = random_pair(rng, sd), random_pair(rng, sd)
            assert relerr(
                isometric_sum(sd, p, q), curvature_numerator_semidirect(sd, p, q).numerator
            ) < 1e-9


class TestOracle:
    def test_bi_invariant_value(self, so3_unit):
        assert oracle_curvature(so3_unit, E[0], E[1]) == pytest.approx(0.25, abs=1e-12)

    def test_abelian_vanishes(self, abelian3):
        assert oracle_curvature(abelian3, E[0], E[1]) == 0.0

    def test_anisotropic_so3_agrees_both_paths(self):
        backend = DenseBackend(catalog.so3(gram=[1.0, 2.0, 3.0]))
        got = oracle_curvature(backend, E[0], E[1])
        want = curvature_numerator_generic(backend, E[0], E[1]).numerator
        assert relerr(got, want) < 1e-12

    def test_equivalence_on_builtins_200_planes(self):
        for name, backend in finite_algebras():
            rng = np.random.default_rng(616)
            for _ in range(200):
                x, y = rng.standard_normal(backend.dim), rng.standard_normal(backend.dim)
                a = oracle_curvature(backend, x, y)
                b = curvature_numerator_generic(backend, x, y).numerator
                assert relerr(a, b) < 1e-9

    def test_equivalence_on_seeded_random_algebras(self):
        rng = np.random.default_rng(11)
        for seed in range(50):
            backend = DenseBackend(catalog.random_solvable(3 + seed % 4, 9000 + seed))
            for _ in range(10):
                x, y = rng.standard_normal(backend.dim), rng.standard_normal(backend.dim)
                a = oracle_curvature(backend, x, y)
                b = curvature_numerator_generic(backend, x, y).numerator
                assert relerr(a, b) < 1e-9


class TestCovariantDerivative:
    def test_bi_invariant_half_bracket(self, so3_unit):
        np.testing.assert_allclose(covariant_derivative(so3_unit, E[0], E[1]), -0.5 * E[2], atol=1e-14)

    def test_diagonal_argument(self):
        backend = DenseBackend(catalog.so3(gram=[1.0, 2.0, 3.0]))
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(3)
            got = covariant_derivative(backend, x, x)
            np.testing.assert_allclose(got, backend.ad_transpose(x, x), atol=1e-12)

    def test_abelian_vanishes(self, abelian3):
        np.testing.assert_allclose(covariant_derivative(abelian3, E[0], E[1]), Z)

    def test_torsion_identity(self):
        for name, backend in finite_algebras():
            rng = np.random.default_rng(47)
            for _ in range(50):
                x, y = rng.standard_normal(backend.dim), rng.standard_normal(backend.dim)
                lhs = covariant_derivative(backend, x, y) - covariant_derivative(backend, y, x)
                assert rel_vec_err(lhs, -backend.bracket(x, y)) < 1e-12

    def test_metric_compatibility_constant_sections(self):
        for name, backend in finite_algebras():
            rng = np.random.default_rng(48)
            for _ in range(50):
                x, y, z = (rng.standard_normal(backend.dim) for _ in range(3))
                total = backend.inner(covariant_derivative(backend, x, y), z) + backend.inner(
                    y, covariant_derivative(backend, x, z)
                )
                scale = (1 + backend.norm(x)) * (1 + backend.norm(y)) * (1 + backend.norm(z))
                assert abs(total) < 1e-12 * scale
