import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    SOLVABLE_SEEDS,
    check_derivation_identity,
    check_h_identity,
    random_pair,
    reference_derivation,
    reference_homomorphism,
    reference_jacobi,
    reference_skew_adjoint,
    rel_vec_err,
    relerr,
    semidirect_builtins,
)

from liecurv import catalog
from liecurv.algebra import MetricAlgebraSpec, _jacobi_worst, validate
from liecurv.backend import Pair, per_element
from liecurv.errors import ValidationFailure
from liecurv.semidirect import ActionSpec, build_semidirect, validate_action

E = np.eye(3)
Z = np.zeros(3)


@pytest.fixture(scope="module")
def conj_unit():
    return catalog.conjugation(catalog.so3())


@pytest.fixture(scope="module")
def conj_diag():
    return catalog.conjugation(catalog.so3(gram=[1.0, 2.0, 3.0]))


class TestBuild:
    def test_conjugation_mixed_bracket(self, conj_unit):
        out = conj_unit.bracket(Pair(E[0], Z), Pair(Z, E[1]))
        np.testing.assert_allclose(out.x, Z)
        np.testing.assert_allclose(out.y, E[2])  # b(e1) e2 = [e1, e2] = e3

    def test_zero_action_degenerates_to_direct_product(self):
        sd = build_semidirect(catalog.so3(), catalog.abelian(3), np.zeros((3, 3, 3)))
        p = sd.bracket(Pair(E[0], E[1]), Pair(E[1], E[2]))
        np.testing.assert_allclose(p.x, E[2])
        np.testing.assert_allclose(p.y, Z)

    def test_euclidean_group_bracket(self):
        sd = catalog.linear_so3_on_r3()
        out = sd.bracket(Pair(E[0], Z), Pair(Z, E[1]))
        np.testing.assert_allclose(out.y, E[2])  # cross-product action
        # cross-checked against the antisymmetrized product bracket
        flipped = sd.bracket(Pair(Z, E[1]), Pair(E[0], Z))
        np.testing.assert_allclose(out.y, -flipped.y)

    def test_block_diagonal_gram(self, conj_unit):
        p, q = Pair(E[0], E[1]), Pair(E[2], E[1])
        expected = conj_unit.g.inner(p.x, q.x) + conj_unit.h.inner(p.y, q.y)
        assert conj_unit.inner(p, q) == pytest.approx(expected, abs=1e-15)

    def test_product_bracket_matches_assembled_spec(self, conj_diag):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = random_pair(rng, conj_diag), random_pair(rng, conj_diag)
            via_pairs = conj_diag.bracket(p, q)
            via_spec = conj_diag.product.bracket(conj_diag.join(p), conj_diag.join(q))
            assert rel_vec_err(conj_diag.join(via_pairs), via_spec) < 1e-12

    def test_invalid_action_rejected(self):
        bad = np.zeros((3, 3, 3))
        bad[0] = np.diag([1.0, 0.0, 0.0])  # not a derivation of so(3)
        with pytest.raises(ValidationFailure):
            build_semidirect(catalog.so3(), catalog.so3(), bad)

    @pytest.mark.parametrize("shape", [(3, 2, 3), (3, 3), (2, 3, 3, 3)])
    def test_action_of_non_square_matrices_is_rejected(self, shape):
        with pytest.raises(ValueError, match="action must be a stack of square matrices"):
            ActionSpec(np.zeros(shape))

    def test_action_shape_mismatch_reported(self):
        report = validate_action(catalog.so3(), catalog.abelian(2), ActionSpec(np.zeros((3, 3, 3))))
        assert not report.passed

    def test_checks_after_a_shape_mismatch_not_reported(self):
        # the derivation and homomorphism checks never run on a wrongly shaped action
        report = validate_action(catalog.so3(), catalog.abelian(2), ActionSpec(np.zeros((3, 3, 3))))
        assert str(report).splitlines() == [
            "validation of action: FAIL",
            "  FAIL shape at (3, 3): residual nan (expected (3, 2, 2))",
        ]

    def test_homomorphism_violation_reported(self):
        # valid derivations of abelian h are arbitrary matrices; break the
        # homomorphism by acting only through e1
        mats = np.zeros((3, 2, 2))
        mats[0] = np.array([[0.0, -1.0], [1.0, 0.0]])
        report = validate_action(catalog.so3(), catalog.abelian(2), ActionSpec(mats))
        assert any(i.invariant == "homomorphism" for i in report.issues)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("selector", ["euclidean", "conjugation:so3"])
    def test_non_finite_action_entry_fails(self, bad, selector):
        # euclidean acts on an abelian h, whose derivation check needs no arithmetic
        sd = catalog.resolve_semidirect(selector)
        mats = sd.action.matrices.copy()
        mats[1, 2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_action(sd.g.spec, sd.h.spec, ActionSpec(mats))
        for tol in (1e-10, 0.0):
            assert str(report.at(tol)).splitlines() == [
                "validation of action: FAIL",
                "  ok   shape",
                "  FAIL derivation at (1, 2, 0): residual nan (non-finite action entry)",
                "  FAIL homomorphism at (1, 2, 0): residual nan (non-finite action entry)",
            ]


def _derivation_check(report):
    return next(c for c in report.checks if c.invariant == "derivation")


@pytest.mark.parametrize("selector", ["magnetic:so3:1,2,3", "magnetic:random-solvable:8:1",
                                      "euclidean", "conjugation:so3:1,2,3"])
def test_derivation_check_matches_the_full_contraction(selector):
    # the first three act on an abelian h, where the check runs no contraction
    sd = catalog.resolve_semidirect(selector)
    check = _derivation_check(sd.report)
    assert (check.location, check.worst) == reference_derivation(sd.h.spec, sd.action)


def test_failing_derivation_check_matches_the_full_contraction():
    mats = np.zeros((3, 3, 3))
    mats[0] = np.diag([1.0, 0.0, 0.5])  # not a derivation of so(3)
    action = ActionSpec(mats)
    check = _derivation_check(validate_action(catalog.so3(), catalog.so3(), action))
    assert check.worst > 0
    assert (check.location, check.worst) == reference_derivation(catalog.so3(), action)


class TestHMap:
    def test_conjugation_unit_gram(self, conj_unit):
        np.testing.assert_allclose(conj_unit.h_map(E[0], E[1]), E[2], atol=1e-14)

    def test_matches_negative_ad_transpose(self, conj_diag):
        rng = np.random.default_rng(8)
        for _ in range(50):
            y1, y2 = rng.standard_normal(3), rng.standard_normal(3)
            expected = -conj_diag.h.ad_transpose(y1, y2)
            assert rel_vec_err(conj_diag.h_map(y1, y2), expected) < 1e-12

    def test_skew_for_isometric_action(self, conj_unit):
        rng = np.random.default_rng(9)
        for _ in range(50):
            y = rng.standard_normal(3)
            assert np.max(np.abs(conj_unit.h_map(y, y))) < 1e-12 * (1 + y @ y)

    def test_zero_action(self):
        sd = build_semidirect(catalog.so3(), catalog.abelian(3), np.zeros((3, 3, 3)))
        np.testing.assert_allclose(sd.h_map(E[0], E[1]), Z)

    def test_bilinearity(self, conj_diag):
        rng = np.random.default_rng(10)
        y1, y2, y3 = (rng.standard_normal(3) for _ in range(3))
        a, b = 2.5, -1.25
        lhs = conj_diag.h_map(a * y1 + b * y2, y3)
        rhs = a * conj_diag.h_map(y1, y3) + b * conj_diag.h_map(y2, y3)
        assert rel_vec_err(lhs, rhs) < 1e-12

    def test_defining_relation_on_basis(self, conj_diag):
        for p in range(3):
            for q in range(3):
                h = conj_diag.h_map(E[p], E[q])
                for i in range(3):
                    lhs = conj_diag.g.inner(h, E[i])
                    rhs = conj_diag.h.inner(conj_diag.b(E[i], E[p]), E[q])
                    assert abs(lhs - rhs) < 1e-10


class TestProductAdTranspose:
    def test_g_only_reduction(self, conj_unit):
        out = conj_unit.ad_transpose(Pair(E[0], Z), Pair(E[1], Z))
        np.testing.assert_allclose(out.x, -E[2], atol=1e-14)
        np.testing.assert_allclose(out.y, Z, atol=1e-14)

    def test_h_only_case(self, conj_unit):
        out = conj_unit.ad_transpose(Pair(Z, E[0]), Pair(Z, E[1]))
        np.testing.assert_allclose(out.x, -E[2], atol=1e-14)  # -h(e1, e2)
        np.testing.assert_allclose(out.y, -E[2], atol=1e-14)  # ad(e1)^T e2
        # direct product-spec solve agrees
        direct = conj_unit.product.ad_transpose(
            conj_unit.join(Pair(Z, E[0])), conj_unit.join(Pair(Z, E[1]))
        )
        assert rel_vec_err(conj_unit.join(out), direct) < 1e-12

    def test_zero_elements(self, conj_unit):
        out = conj_unit.ad_transpose(Pair(Z, Z), Pair(Z, Z))
        np.testing.assert_allclose(conj_unit.join(out), np.zeros(6))

    @pytest.mark.parametrize("name,sd", semidirect_builtins())
    def test_matches_dense_solve_200_pairs(self, name, sd):
        rng = np.random.default_rng(2025)
        for _ in range(200):
            p, q = random_pair(rng, sd), random_pair(rng, sd)
            closed = sd.join(sd.ad_transpose(p, q))
            direct = sd.product.ad_transpose(sd.join(p), sd.join(q))
            assert rel_vec_err(closed, direct) < 1e-9


class TestIsometric:
    def test_ad_invariant_conjugation(self, conj_unit):
        assert conj_unit.isometric

    def test_rotation_action_on_r3(self):
        assert catalog.linear_so3_on_r3().isometric

    def test_anisotropic_conjugation_is_not(self, conj_diag):
        assert not conj_diag.isometric
        # b(e1) + b(e1)^T is visibly nonzero
        skew_defect = conj_diag.b(E[0], E[1]) + conj_diag.b_transpose(E[0], E[1])
        assert np.max(np.abs(skew_defect)) > 0.1


    @pytest.mark.parametrize("selector,isometric", [
        ("euclidean", True),
        ("linear_so3_on_r3", True),
        ("conjugation:so3", True),
        ("conjugation:so3:1,2,3", False),
        ("magnetic:so3", True),
        ("magnetic:so3:1,2,3", False),
        ("magnetic:random-solvable:6:2", False),
    ])
    def test_flag_matches_per_matrix_loop(self, selector, isometric):
        sd = catalog.resolve_semidirect(selector)
        assert sd.isometric == reference_skew_adjoint(sd.action.matrices, sd.h.spec.gram) == isometric


class TestIdentities:
    def test_h_identity_worked_example(self, conj_unit):
        assert check_h_identity(conj_unit, E[0], E[1], E[0], E[1]) < 1e-12
        lhs = conj_unit.g.inner(conj_unit.h_map(E[0], E[1]), conj_unit.g.bracket(E[0], E[1]))
        assert lhs == pytest.approx(1.0)  # <e3, e3> pattern value

    def test_h_identity_zero_action(self):
        sd = build_semidirect(catalog.so3(), catalog.abelian(3), np.zeros((3, 3, 3)))
        assert check_h_identity(sd, E[0], E[1], E[0], E[1]) == 0.0

    def test_h_identity_equal_g_arguments(self, conj_diag):
        assert check_h_identity(conj_diag, E[0], E[1], E[2], E[2]) < 1e-12

    def test_derivation_identity_worked_example(self, conj_unit):
        assert check_derivation_identity(conj_unit, E[0], E[0], E[1], E[2]) < 1e-12

    def test_derivation_identity_abelian_h(self):
        sd = catalog.linear_so3_on_r3()
        assert check_derivation_identity(sd, E[0], E[1], E[2], E[0]) == 0.0

    def test_derivation_identity_zero_x(self, conj_diag):
        assert check_derivation_identity(conj_diag, Z, E[0], E[1], E[2]) == 0.0

    @pytest.mark.parametrize("name,sd", semidirect_builtins())
    def test_identities_200_random_inputs(self, name, sd):
        rng = np.random.default_rng(31337)
        for _ in range(200):
            x1, x2 = rng.standard_normal(sd.g.dim), rng.standard_normal(sd.g.dim)
            y1, y2, y3 = (rng.standard_normal(sd.h.dim) for _ in range(3))
            assert check_h_identity(sd, y1, y2, x1, x2) <= 1e-10
            assert check_derivation_identity(sd, x1, y1, y2, y3) <= 1e-10


def test_magnetic_seed_set_builds():
    for seed in SOLVABLE_SEEDS:
        sd = catalog.magnetic(catalog.random_solvable(4, seed))
        assert sd.g.dim == 4 and sd.h.dim == 4


class TestStacks:
    @pytest.mark.parametrize("name,sd", semidirect_builtins())
    def test_rows_match_single_calls(self, name, sd):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((7, sd.g.dim))
        y1, y2 = rng.standard_normal((7, sd.h.dim)), rng.standard_normal((7, sd.h.dim))
        b, bt, hm = sd.b(x, y1), sd.b_transpose(x, y1), sd.h_map(y1, y2)
        p, q = Pair(x, y1), Pair(-x, y2)
        inner, norm = sd.inner(p, q), sd.norm(p)
        for i in range(7):
            assert rel_vec_err(b[i], sd.b(x[i], y1[i])) < 1e-14
            assert rel_vec_err(bt[i], sd.b_transpose(x[i], y1[i])) < 1e-14
            assert rel_vec_err(hm[i], sd.h_map(y1[i], y2[i])) < 1e-14
            pi, qi = Pair(x[i], y1[i]), Pair(-x[i], y2[i])
            assert relerr(inner[i], sd.inner(pi, qi)) < 1e-14
            assert relerr(norm[i], sd.norm(pi)) < 1e-14

    def test_norm_clamps_negative_roundoff(self, conj_unit, monkeypatch):
        monkeypatch.setattr(conj_unit, "inner", lambda p, q: -1e-30)
        assert conj_unit.norm(conj_unit.zero()) == 0.0
        assert type(conj_unit.norm(conj_unit.zero())) is float
        monkeypatch.setattr(conj_unit, "inner", lambda p, q: np.array([-1e-30, 4.0]))
        np.testing.assert_array_equal(conj_unit.norm(conj_unit.zero()), [0.0, 2.0])


    def test_join_flattens_a_stack(self, conj_diag):
        rng = np.random.default_rng(13)
        p = Pair(rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 4, 3)))
        joined = conj_diag.join(p)
        assert joined.shape == (2, 4, 6)
        for i in range(2):
            for j in range(4):
                assert joined[i, j].tolist() == conj_diag.join(Pair(p.x[i, j], p.y[i, j])).tolist()

    def test_per_element(self):
        # one element gives a Python number of the array's kind, a stack its own array
        assert type(per_element(np.array(2.5))) is float and per_element(np.array(2.5)) == 2.5
        assert type(per_element(np.float64(-0.0))) is float
        assert per_element(np.array(True)) is True and per_element(np.array(False)) is False
        values = np.array([1.0, 2.0])
        assert per_element(values) is values
        flags = np.array([[True], [False]])
        assert per_element(flags) is flags


class TestSetUp:
    def test_each_spec_validated_once(self, monkeypatch):
        from liecurv import algebra

        seen = []
        original = algebra.validate
        monkeypatch.setattr(algebra, "validate", lambda spec, **kw: seen.append(spec) or original(spec, **kw))
        # conjugation acts on g itself: one spec, validated once
        for selector, calls in (("magnetic:so3:1,2,3", 2), ("conjugation:so3", 1), ("euclidean", 2)):
            seen.clear()
            sd = catalog.resolve_semidirect(selector)
            assert len(seen) == calls and {id(s) for s in seen} == {id(sd.g.spec), id(sd.h.spec)}

    def test_conjugation_shares_its_factor(self):
        sd = catalog.resolve_semidirect("conjugation:so3:1,2,3")
        assert sd.g is sd.h and sd.g.report.passed
        assert sd.name == "conjugation:so3" and sd.g.spec.name == "so3"

    def test_jacobi_sum_skipped_on_the_abelian_dual(self, monkeypatch):
        # no row of the dual's Jacobi residual can be nonzero: the check forms no product and
        # gives worst_entry one zero entry
        from liecurv import algebra

        received = []
        original = algebra.worst_entry
        monkeypatch.setattr(algebra, "worst_entry",
                            lambda blocks: original(received.append(list(blocks)) or received[-1]))
        sd = catalog.resolve_semidirect("magnetic:random-solvable:8:1")
        received.clear()
        report = validate(sd.h.spec)
        _antisymmetry, jacobi = received
        assert [(origin, block.shape) for origin, block in jacobi] == [((0, 0, 0, 0), (1, 1, 1, 1))]
        assert (report.checks[1].location, report.checks[1].worst) == ((0, 0, 0), 0.0)

    def test_indefinite_gram_fails_validation_before_factorisation(self):
        with pytest.raises(ValidationFailure) as info:
            catalog.resolve_semidirect("magnetic:so3:1,-1,3")
        assert "gram_positive_definite" in str(info.value)

    def test_product_built_on_first_use(self):
        sd = catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0]))
        assert "product" not in vars(sd) and "product_spec" not in vars(sd)
        assert sd.product is sd.product
        assert sd.product.spec is sd.product_spec
        assert sd.product_spec.name == "magnetic:so3 (product)"

    def test_blocked_validation_memory(self):
        # unblocked, the residual arrays of a 32-dim action hold 32^4 entries each (about 42 MB)
        sd = catalog.magnetic(catalog.random_solvable(32, 3))
        tracemalloc.start()
        try:
            report = validate_action(sd.g.spec, sd.h.spec, sd.action)
            _current, action_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            validate(sd.g.spec)
            _current, jacobi_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert action_peak < 4e6 and jacobi_peak < 4e6


def _antisymmetric(n, seed, kind, scale=1.0):
    """Seeded, exactly antisymmetric structure constants c - c^T of a random tensor c."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        c = rng.standard_normal((n, n, n))
    elif kind == "integer":  # exact sums, whose sizes tie
        c = rng.integers(-3, 4, (n, n, n)).astype(float)
    else:  # powers of two
        c = np.ldexp(rng.choice([-1.0, 1.0], (n, n, n)), rng.integers(-4, 5, (n, n, n)))
    c = scale * c
    return c - c.transpose(1, 0, 2)


def _tensor_subjects(c, scale=1.0):
    """The spec of c, and c acting on an abelian h by seeded random matrices."""
    n = c.shape[0]
    action = ActionSpec(scale * np.random.default_rng(n).standard_normal((n, 4, 4)))
    spec = MetricAlgebraSpec(structure=c, gram=np.eye(n))
    return [spec, (spec, catalog.abelian(4), action)]


def _semidirect_subjects(selector):
    """Both factors, the assembled product and the action of a semidirect selector."""
    sd = catalog.resolve_semidirect(selector)
    return [sd.g.spec, sd.h.spec, sd.product_spec, (sd.g.spec, sd.h.spec, sd.action)]


def _one_ulp_off():
    c = _antisymmetric(8, 0, "gaussian")
    c[1, 2, 3] = np.nextafter(c[1, 2, 3], np.inf)  # antisymmetric within tolerance only
    return _tensor_subjects(c)


def _digest_j_below_i():
    # the digest's algebra that fails the Jacobi identity first at (1, 0, 2)
    c = np.zeros((3, 3, 3))
    for i, j, k, value in ((0, 1, 1, 0.6), (0, 1, 2, 0.3), (0, 2, 2, 0.7), (1, 2, 1, -0.1)):
        c[i, j, k], c[j, i, k] = value, -value
    return _tensor_subjects(c)


HALF_SUM_CASES = {
    **{selector: (lambda s=selector: [catalog.resolve_algebra(s).spec])
       for selector in ("so3", "so3:1,2,3")},
    **{selector: (lambda s=selector: _semidirect_subjects(s)) for selector in (
        "magnetic:so3:1,2,3", "euclidean", "linear_so3_on_r3", "conjugation:so3:1,2,3",
        "magnetic:random-solvable:2:1", "magnetic:random-solvable:3:1",
        "magnetic:random-solvable:6:2", "magnetic:random-solvable:8:1",
        "magnetic:random-solvable:32:1")},  # its product has dimension 64
    **{f"{kind}:{n}:{seed}": (lambda a=(n, seed, kind): _tensor_subjects(_antisymmetric(*a)))
       for kind in ("gaussian", "integer", "power-of-two") for n, seed in ((3, 0), (5, 1), (16, 2))},
    # its first worst Jacobi entry is (7, 4, 8), where j < i
    "gaussian:16:34": lambda: _tensor_subjects(_antisymmetric(16, 34, "gaussian")),
    "overflow": lambda: _tensor_subjects(_antisymmetric(5, 0, "gaussian", 1e200), 1e200),
    "zeros": lambda: _tensor_subjects(np.zeros((4, 4, 4)), 0.0),
    "one-ulp-off": _one_ulp_off,
    "digest-j-below-i": _digest_j_below_i,
}


@pytest.mark.parametrize("case", sorted(HALF_SUM_CASES))
def test_checks_report_what_the_full_sums_report(case):
    # the Jacobi and homomorphism checks form half the products when the constants are
    # exactly antisymmetric; every field of their reports keeps the full sums' bits
    def fields(check):
        return (check.invariant, check.location, float.hex(check.worst), check.scale, check.message)

    for subject in HALF_SUM_CASES[case]():
        algebra = isinstance(subject, MetricAlgebraSpec)
        invariant = "jacobi" if algebra else "homomorphism"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is a nan residual, not a warning
            report = validate(subject) if algebra else validate_action(*subject)
        [check] = [c for c in report.checks if c.invariant == invariant]
        with np.errstate(over="ignore", invalid="ignore"):
            if algebra:
                where, worst = reference_jacobi(subject.structure)
                cmax = max(1.0, float(np.max(np.abs(subject.structure))))
                scale = (cmax, cmax)
            else:
                g_spec, _h_spec, action = subject
                where, worst = reference_homomorphism(g_spec, action)
                bmax = max(1.0, float(np.max(np.abs(action.matrices))))
                scale = (bmax, bmax, max(1.0, float(np.max(np.abs(g_spec.structure)))))
        assert fields(check) == (invariant, where, float.hex(worst), scale, "")


@pytest.mark.parametrize("n,seed", [(16, 0), (20, 10), (20, 28), (31, 41)])
def test_half_jacobi_sum_rounds_like_the_full_sum(n, seed):
    # BLAS may round a dot product differently by where it sits in a product, so on dense
    # Gaussian constants the half sum can report a worst a few ulps from the full sum's,
    # at another order of the same (i, j, k).  With OpenBLAS 0.3.31 on an AVX-512 Xeon,
    # 8 of 900 tensors of dimension 6 to 31 did so: (20, 10), (20, 28) and (31, 41)
    c = _antisymmetric(n, seed, "gaussian")
    where, worst = _jacobi_worst(c)
    full_where, full_worst = reference_jacobi(c)
    assert sorted(where) == sorted(full_where)
    assert abs(worst - full_worst) <= 4 * np.spacing(full_worst)


def _brackets(n, *brackets):
    """Exactly antisymmetric constants of dimension n with [e_i, e_j] = e_k for each (i, j, k)."""
    c = np.zeros((n, n, n))
    for i, j, k in brackets:
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    return c


def _zeroed_slabs():
    c = _antisymmetric(12, 3, "gaussian")
    for i in (1, 4, 5, 9):
        c[i] = c[:, i] = 0.0
    return _tensor_subjects(c)


def _digest_actions():
    # the digest's euclidean_sd.cfg with the action entry 2 2 2 0.5, and so(3) acting on
    # itself by ad with the entry 3 3 3 0.25
    so3 = catalog.so3(gram=[1.0, 2.0, 3.0])
    ad = catalog.conjugation(catalog.so3()).action.matrices
    subjects = []
    for h, (i, value) in ((catalog.abelian(3), (1, 0.5)), (catalog.so3(), (2, 0.25))):
        mats = ad.copy()
        mats[i, i, i] = value
        subjects.append((so3, h, ActionSpec(mats)))
    return subjects


def _action_case(ng, h_brackets, entries, g_brackets=()):
    """g of dimension ng and h of dimension 6 from brackets, and B[i][r, s] = 1 for each
    (i, r, s) given."""
    mats = np.zeros((ng, 6, 6))
    for index in entries:
        mats[index] = 1.0
    return (MetricAlgebraSpec(_brackets(ng, *g_brackets), np.eye(ng)),
            MetricAlgebraSpec(_brackets(6, *h_brackets), np.eye(6)), ActionSpec(mats))


def _gaussian_sparse(n, seed, density):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n, n)) * (rng.random((n, n)) < density)[:, :, None]
    return c - c.transpose(1, 0, 2)


SPARSE_CASES = {
    **{selector: (lambda s=selector: _semidirect_subjects(s)) for selector in (
        "conjugation:random-solvable:6:2", "conjugation:random-solvable:8:1",
        "magnetic:random-solvable:16:3")},
    "random-solvable:24:5": lambda: [catalog.random_solvable(24, 5)],
    "gaussian-zeroed-slabs": _zeroed_slabs,
    "digest-actions": _digest_actions,
    # one Jacobi violation, first found in C order at a row (0, 1, k) that only one of the
    # factors c[0, 1], c[1, k] and c[k, 0] can make nonzero
    "violation-of-c01": lambda: [MetricAlgebraSpec(_brackets(8, (0, 1, 2), (2, 3, 4)), np.eye(8))],
    "violation-of-c12": lambda: [MetricAlgebraSpec(_brackets(8, (1, 2, 3), (3, 0, 4)), np.eye(8))],
    "violation-of-c20": lambda: [MetricAlgebraSpec(_brackets(8, (2, 0, 3), (3, 1, 4)), np.eye(8))],
    # a slab whose first product gathers one row: a lone row goes to gemv, which rounds
    # otherwise than gemm in the last bit on this tensor with OpenBLAS 0.3.31
    "gaussian-lone-row": lambda: _tensor_subjects(_gaussian_sparse(6, 124, 0.25)),
    # a derivation failure first found at a row (0, 0, 1) that only one of the factors
    # ch[0, 1], column 0 of B[0] and column 1 of B[0] can make nonzero
    "derivation-of-ch01": lambda: [_action_case(1, [(0, 1, 2)], [(0, 3, 2)])],
    "derivation-of-b-column-0": lambda: [_action_case(1, [(3, 1, 2)], [(0, 3, 0)])],
    "derivation-of-b-column-1": lambda: [_action_case(1, [(0, 3, 2)], [(0, 3, 1)])],
    # a homomorphism failure first found at a row (0, 1, 0) that only one of the factors
    # cg[0, 1], row 0 of B[0] and row 0 of B[1] can make nonzero
    "homomorphism-of-cg01": lambda: [_action_case(3, [], [(2, 0, 1)], [(0, 1, 2)])],
    "homomorphism-of-b0-row-0": lambda: [_action_case(2, [], [(0, 0, 1), (1, 1, 2)])],
    "homomorphism-of-b1-row-0": lambda: [_action_case(2, [], [(0, 1, 2), (1, 0, 1)])],
}


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_sparse_checks_report_what_the_full_sums_report(case):
    # on sparse constants the checks form only the rows that can be nonzero; the location
    # and the bits of each worst entry are the full sums'
    for subject in SPARSE_CASES[case]():
        if isinstance(subject, MetricAlgebraSpec):
            expected = {"jacobi": reference_jacobi(subject.structure)}
            report = validate(subject)
        else:
            g_spec, h_spec, action = subject
            expected = {"derivation": reference_derivation(h_spec, action),
                        "homomorphism": reference_homomorphism(g_spec, action)}
            report = validate_action(*subject)
        for check in report.checks:
            if check.invariant in expected:
                where, worst = expected[check.invariant]
                assert (check.location, float.hex(check.worst)) == (where, float.hex(worst))


@pytest.mark.parametrize("case,invariant,where", [
    ("violation-of-c01", "jacobi", (0, 1, 3)), ("violation-of-c12", "jacobi", (0, 1, 2)),
    ("violation-of-c20", "jacobi", (0, 1, 2)), ("derivation-of-ch01", "derivation", (0, 0, 1, 3)),
    ("derivation-of-b-column-0", "derivation", (0, 0, 1, 2)),
    ("derivation-of-b-column-1", "derivation", (0, 0, 1, 2)),
    ("homomorphism-of-cg01", "homomorphism", (0, 1, 0, 1)),
    ("homomorphism-of-b0-row-0", "homomorphism", (0, 1, 0, 2)),
    ("homomorphism-of-b1-row-0", "homomorphism", (0, 1, 0, 2))])
def test_sparse_failure_is_found(case, invariant, where):
    # the cases above built to fail once: the worst residual is 1, at the row built for it
    [subject] = SPARSE_CASES[case]()
    algebra = isinstance(subject, MetricAlgebraSpec)
    [check] = (validate(subject) if algebra else validate_action(*subject)).issues
    assert (check.invariant, check.location, check.worst) == (invariant, where, 1.0)


def test_non_finite_h_keeps_the_full_derivation_products():
    # an inf of h times the zero columns of B[0] is nan in the full products: rows that the
    # masks would leave out report it, at (0, 0, 0, 2)
    ch = np.zeros((4, 4, 4))
    ch[0, 1, 2], ch[1, 0, 2] = np.inf, -np.inf
    mats = np.zeros((1, 4, 4))
    mats[0, :, 3] = [1.0, 2.0, 3.0, 4.0]
    h_spec, action = MetricAlgebraSpec(ch, np.eye(4)), ActionSpec(mats)
    with np.errstate(over="ignore", invalid="ignore"):
        check = _derivation_check(validate_action(catalog.abelian(1), h_spec, action))
        assert reference_derivation(h_spec, action)[0] == (0, 0, 0, 2)
    assert check.location == (0, 0, 0, 2) and np.isnan(check.worst)


def test_checks_pass_worst_entry_only_the_rows_they_form(monkeypatch):
    # the entries the checks give worst_entry count the rows they form: forming every row,
    # resolving this 32-dimensional magnetic product gave it 1,321,472 entries, and the
    # validation of a dense Gaussian tensor 748,032
    from liecurv import algebra

    sizes = []
    original = algebra.worst_entry

    def counting(blocks):
        return original((origin, sizes.append(block.size) or block) for origin, block in blocks)

    monkeypatch.setattr(algebra, "worst_entry", counting)
    catalog.resolve_semidirect("magnetic:random-solvable:32:1")
    assert sum(sizes) <= 0.15 * 1_321_472
    sizes.clear()
    validate(MetricAlgebraSpec(_antisymmetric(32, 0, "gaussian"), np.eye(32)))
    assert abs(sum(sizes) - 748_032) <= 0.01 * 748_032
