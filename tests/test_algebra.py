import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_algebras, reference_skew_adjoint, rel_vec_err, relerr

from liecurv import algebra, catalog
from liecurv.algebra import (
    Check,
    DenseBackend,
    MetricAlgebraSpec,
    ValidationReport,
    _jacobi_worst,
    bilinear,
    residual_worst,
    validate,
)
from liecurv.errors import DimensionMismatch

E = np.eye(3)


@pytest.fixture(scope="module")
def so3_unit():
    return DenseBackend(catalog.so3())


@pytest.fixture(scope="module")
def so3_diag():
    return DenseBackend(catalog.so3(gram=[1.0, 2.0, 3.0]))


class TestBracket:
    def test_defining_constants(self, so3_unit):
        np.testing.assert_allclose(so3_unit.bracket(E[0], E[1]), E[2])
        np.testing.assert_allclose(so3_unit.bracket(E[1], E[2]), E[0])
        np.testing.assert_allclose(so3_unit.bracket(E[2], E[0]), E[1])

    def test_self_bracket_vanishes(self, so3_unit):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(so3_unit.bracket(x, x), np.zeros(3))

    def test_bilinearity_with_antisymmetry(self, so3_unit):
        # [e1+e2, e1] = [e2, e1] = -e3
        np.testing.assert_allclose(so3_unit.bracket(E[0] + E[1], E[0]), -E[2])

    def test_dimension_mismatch(self, so3_unit):
        with pytest.raises(DimensionMismatch):
            so3_unit.bracket(np.ones(4), E[0])

    @pytest.mark.parametrize("structure,gram,message", [
        (np.zeros((2, 2, 2)), np.zeros((2, 3)), "gram must be square"),
        (np.zeros((3, 3, 2)), np.eye(3), r"structure shape \(3, 3, 2\) incompatible with gram \(3, 3\)"),
    ])
    def test_spec_of_wrong_shapes_is_rejected(self, structure, gram, message):
        with pytest.raises(ValueError, match=message):
            MetricAlgebraSpec(structure=structure, gram=gram)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    def test_bilinearity_random(self, coeffs):
        backend = DenseBackend(catalog.so3())
        a, b = np.array(coeffs[:3]), np.array(coeffs[3:])
        lhs = backend.bracket(2.0 * a + b, b)
        rhs = 2.0 * backend.bracket(a, b) + backend.bracket(b, b)
        assert rel_vec_err(lhs, rhs) < 1e-12


class TestInner:
    def test_orthonormal_basis(self, so3_unit):
        assert so3_unit.inner(E[0], E[1]) == 0.0

    def test_diagonal_readoff(self, so3_diag):
        assert so3_diag.inner(E[1], E[1]) == 2.0

    def test_zero_argument(self, so3_diag):
        assert so3_diag.inner(np.zeros(3), np.array([4.0, 5.0, 6.0])) == 0.0


def brute_force_ad_transpose(backend, x, y):
    """Independent oracle: assemble the adjointness equations over the basis
    and solve them with a plain linear solve."""
    n = backend.dim
    rows = np.zeros((n, n))
    rhs = np.zeros(n)
    for w in range(n):
        basis_w = np.eye(n)[w]
        rows[w] = backend.spec.gram[w]  # <e_w, r> = (G r)_w
        rhs[w] = backend.inner(backend.bracket(x, basis_w), y)
    return np.linalg.solve(rows, rhs)


class TestAdTranspose:
    def test_bi_invariant_skewness(self, so3_unit):
        np.testing.assert_allclose(so3_unit.ad_transpose(E[0], E[1]), -E[2], atol=1e-14)

    def test_euler_top_value(self, so3_diag):
        x = np.ones(3)
        expected = np.array([-1.0, 1.0, -1.0 / 3.0])
        got = so3_diag.ad_transpose(x, x)
        np.testing.assert_allclose(got, expected, atol=1e-13)
        # agrees with the brute-force adjointness solve and with I^-1((Ix) x x)
        np.testing.assert_allclose(got, brute_force_ad_transpose(so3_diag, x, x), atol=1e-13)
        inertia = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(got, np.cross(inertia * x, x) / inertia, atol=1e-13)

    def test_zero_first_argument(self, so3_diag):
        np.testing.assert_allclose(so3_diag.ad_transpose(np.zeros(3), E[1]), np.zeros(3))

    @pytest.mark.parametrize("name,backend", finite_algebras())
    def test_adjointness_200_triples(self, name, backend):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            x, y, z = (rng.standard_normal(backend.dim) for _ in range(3))
            lhs = backend.inner(backend.bracket(x, z), y)
            rhs = backend.inner(z, backend.ad_transpose(x, y))
            scale = (1.0 + backend.norm(x)) * (1.0 + backend.norm(y)) * (1.0 + backend.norm(z))
            assert abs(lhs - rhs) <= 1e-10 * scale

    @pytest.mark.parametrize("name,backend", finite_algebras())
    def test_linearity_in_each_argument(self, name, backend):
        rng = np.random.default_rng(77)
        for _ in range(200):
            x1, x2, y = (rng.standard_normal(backend.dim) for _ in range(3))
            a, b = rng.standard_normal(2)
            lhs = backend.ad_transpose(a * x1 + b * x2, y)
            rhs = a * backend.ad_transpose(x1, y) + b * backend.ad_transpose(x2, y)
            assert rel_vec_err(lhs, rhs) < 1e-10
            lhs = backend.ad_transpose(y, a * x1 + b * x2)
            rhs = a * backend.ad_transpose(y, x1) + b * backend.ad_transpose(y, x2)
            assert rel_vec_err(lhs, rhs) < 1e-10


class TestStacks:
    """Primitives over stacks of vectors: leading axes broadcast, one call per stack."""

    @pytest.fixture(scope="class")
    def skewed(self):
        # a non-diagonal Gram, so ad^T mixes coordinates through G and G^-1
        rng = np.random.default_rng(31)
        m = rng.standard_normal((5, 5))
        gram = m @ m.T + 5.0 * np.eye(5)
        return DenseBackend(MetricAlgebraSpec(catalog.random_solvable(5, 9).structure, gram))

    def test_gram_solve(self, skewed):
        rng = np.random.default_rng(8)
        gram = skewed.spec.gram
        for v in (rng.standard_normal(5), rng.standard_normal((5, 7))):
            got = skewed.gram_solve(v)
            assert got.shape == v.shape
            assert rel_vec_err(gram @ got, v) < 1e-14

    def test_gram_solve_on_identity_gram_returns_rhs(self):
        backend = DenseBackend(catalog.random_solvable(5, 9))
        rng = np.random.default_rng(8)
        for v in (rng.standard_normal(5), rng.standard_normal((5, 7))):
            got = backend.gram_solve(v)
            assert [x.hex() for x in got.ravel()] == [x.hex() for x in v.ravel()]

    def test_gram_solve_checks_the_leading_dimension(self, skewed):
        for v in (np.ones(4), np.ones((4, 5))):
            with pytest.raises(DimensionMismatch, match="expected leading dimension 5"):
                skewed.gram_solve(v)

    def test_adjointness_on_stacks(self, skewed):
        rng = np.random.default_rng(5)
        x, y, z = (rng.standard_normal((9, 5)) for _ in range(3))
        lhs = skewed.inner(skewed.bracket(x, z), y)
        rhs = skewed.inner(z, skewed.ad_transpose(x, y))
        assert lhs.shape == rhs.shape == (9,)
        scale = (1.0 + skewed.norm(x)) * (1.0 + skewed.norm(y)) * (1.0 + skewed.norm(z))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)
        # and against the brute-force adjointness solve, one row at a time
        got = skewed.ad_transpose(x, y)
        for i in range(9):
            assert rel_vec_err(got[i], brute_force_ad_transpose(skewed, x[i], y[i])) < 1e-12

    def test_rows_match_single_calls(self, skewed):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((7, 5)), rng.standard_normal((7, 5))
        for op in (skewed.bracket, skewed.ad_transpose):
            stacked = op(x, y)
            assert stacked.shape == (7, 5)
            for i in range(7):
                assert rel_vec_err(stacked[i], op(x[i], y[i])) < 1e-14
        inner, norm = skewed.inner(x, y), skewed.norm(x)
        for i in range(7):
            assert relerr(inner[i], skewed.inner(x[i], y[i])) < 1e-14
            assert relerr(norm[i], skewed.norm(x[i])) < 1e-14

    def test_inner_of_a_stack_has_the_bits_of_each_element_alone(self):
        # a Gram wide enough that a stacked a @ G and a lone one round differently
        rng = np.random.default_rng(40)
        a = rng.standard_normal((40, 40))
        backend = DenseBackend(MetricAlgebraSpec(structure=np.zeros((40, 40, 40)),
                                                 gram=a @ a.T + 40.0 * np.eye(40)))
        x, y = rng.standard_normal((50, 40)), rng.standard_normal((50, 40))
        for op, args in ((backend.inner, (x, y)), (backend.norm, (x,))):
            stacked = op(*args)
            assert stacked.shape == (50,)
            alone = [op(*(v[i] for v in args)) for i in range(50)]
            assert [v.hex() for v in stacked.tolist()] == [v.hex() for v in alone]

    def test_single_vector_broadcasts_against_stack(self, skewed):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal(5), rng.standard_normal((4, 5))
        got = skewed.ad_transpose(x, y)
        for i in range(4):
            assert rel_vec_err(got[i], skewed.ad_transpose(x, y[i])) < 1e-14

    @pytest.mark.parametrize("name,backend", finite_algebras())
    def test_ad_on_a_stack_matches_rows(self, name, backend):
        rng = np.random.default_rng(12)
        n = backend.dim
        x = rng.standard_normal((2, 3, n))
        stacked = backend.ad(x)
        assert stacked.shape == (2, 3, n, n)
        for i in np.ndindex(2, 3):
            assert rel_vec_err(stacked[i], backend.ad(x[i])) < 1e-14
            y = rng.standard_normal(n)
            assert rel_vec_err(stacked[i] @ y, backend.bracket(x[i], y)) < 1e-13
        # on the basis, ad(e_i)[k, j] = c[i, j, k] exactly
        np.testing.assert_array_equal(backend.ad(np.eye(n)), backend.spec.structure.transpose(0, 2, 1))

    def test_single_values_are_floats(self, skewed):
        v = np.arange(5.0)
        assert type(skewed.inner(v, v)) is float and type(skewed.norm(v)) is float

    def test_trailing_dimension_checked(self, skewed):
        with pytest.raises(DimensionMismatch):
            skewed.inner(np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            skewed.ad_transpose(np.zeros((5, 2)), np.zeros(5))

    @pytest.mark.parametrize("shapes", [((4,), (4,)), ((6, 4), (4,)), ((4,), (2, 3, 4)),
                                        ((2, 1, 4), (3, 4))])
    def test_abelian_algebra_skips_the_contractions_with_their_bits(self, shapes):
        # the dual factor of a magnetic product: its bracket and ad^T are zeros of the
        # contractions' shape, with the sign bits the contractions give
        m = np.random.default_rng(5).standard_normal((4, 4))
        backend = DenseBackend(catalog.abelian(4, gram=m @ m.T + 4.0 * np.eye(4)))
        zeros = np.zeros((4, 4, 4))
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(shapes[0]), rng.standard_normal(shapes[1])
        for op, tensor in ((backend.bracket, zeros), (backend.ad_transpose, backend.adjoints(zeros))):
            expected = bilinear(tensor, a, b)
            assert op(a, b).shape == expected.shape
            assert np.array_equal(op(a, b).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("selector", ["so3", "so3:1,2,3", "random-solvable:6:2"])
def test_is_ad_invariant_matches_per_matrix_loop(selector):
    backend = catalog.resolve_algebra(selector)
    mats = backend.spec.structure.transpose(0, 2, 1)  # mats[i] = ad(e_i)
    assert backend.is_ad_invariant() == reference_skew_adjoint(mats, backend.spec.gram)
    assert backend.is_ad_invariant() == (selector == "so3")


class TestStructureInvariants:
    @pytest.mark.parametrize("name,backend", finite_algebras())
    def test_antisymmetry_and_jacobi_200_triples(self, name, backend):
        rng = np.random.default_rng(99)
        for _ in range(200):
            x, y, z = (rng.standard_normal(backend.dim) for _ in range(3))
            scale = max(1.0, backend.norm(x) * backend.norm(y) * backend.norm(z))
            anti = backend.bracket(x, y) + backend.bracket(y, x)
            assert float(np.max(np.abs(anti))) <= 1e-10 * scale
            jac = (
                backend.bracket(backend.bracket(x, y), z)
                + backend.bracket(backend.bracket(y, z), x)
                + backend.bracket(backend.bracket(z, x), y)
            )
            assert float(np.max(np.abs(jac))) <= 1e-10 * scale


class TestValidate:
    def test_so3_passes(self):
        report = validate(catalog.so3())
        assert report.passed
        assert "pass" in str(report)

    def test_antisymmetry_violation_reported(self):
        # two violations: c[0,1,2] + c[1,0,2] = 0.5 and the larger c[1,2,0] + c[2,1,0] = 3,
        # which is reported at its first entry, relative to max|c| = 2
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 0.5
        c[1, 2, 0] = 2.0
        c[2, 1, 0] = 1.0  # should be -2
        report = validate(MetricAlgebraSpec(structure=c, gram=np.eye(3)))
        assert not report.passed
        found = [(i.location, i.residual) for i in report.issues if i.invariant == "antisymmetry"]
        assert found == [((1, 2, 0), 1.5)]

    def test_jacobi_violation_reported(self):
        # so(3) constants with an extra [e1,e2] -> e1 component break Jacobi
        c = catalog.so3().structure.copy()
        c[0, 1, 0] = 1.0
        c[1, 0, 0] = -1.0
        report = validate(MetricAlgebraSpec(structure=c, gram=np.eye(3)))
        assert any(i.invariant == "jacobi" for i in report.issues)

    def test_indefinite_gram_reported(self):
        report = validate(MetricAlgebraSpec(structure=np.zeros((3, 3, 3)), gram=np.diag([1.0, -1.0, 1.0])))
        assert any(i.invariant == "gram_positive_definite" for i in report.issues)

    def test_indefinite_gram_reports_smallest_eigenvalue(self):
        gram = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # eigenvalues -1, 1, 3
        report = validate(MetricAlgebraSpec(structure=catalog.so3().structure, gram=gram, name="so3"))
        [issue] = report.issues
        assert (issue.invariant, issue.location) == ("gram_positive_definite", ())
        assert abs(issue.residual + 1.0) <= 1e-14
        assert str(report).splitlines() == [
            "validation of so3: FAIL",
            "  ok   antisymmetry",
            "  ok   jacobi",
            "  ok   gram_symmetric",
            "  FAIL gram_positive_definite: residual -1.000e+00 (smallest eigenvalue)",
        ]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["structure", "gram"])
    def test_non_finite_entries_fail(self, bad, where):
        c = catalog.so3().structure.copy()
        g = np.eye(3)
        if where == "structure":
            c[0, 1, 2] = bad
            location, failed = (0, 1, 2), {"antisymmetry", "jacobi"}
        else:
            g[1, 2] = g[2, 1] = bad
            location, failed = (1, 2), {"gram_symmetric", "gram_positive_definite"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate(MetricAlgebraSpec(structure=c, gram=g))
        assert not report.passed
        assert {i.invariant for i in report.issues} == failed
        assert all(i.location == location and np.isnan(i.residual) for i in report.issues)
        assert "non-finite" in str(report)

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_nan_and_indefinite_gram_fail_at_every_tolerance(self, tol):
        c = catalog.so3().structure.copy()
        c[0, 1, 2] = np.nan
        report = validate(MetricAlgebraSpec(structure=c, gram=np.diag([1.0, -1.0, 1.0]))).at(tol)
        assert report.tol == tol
        assert {i.invariant for i in report.issues} == {"antisymmetry", "jacobi", "gram_positive_definite"}

    def test_tolerance_rejudges_the_same_checks(self):
        c = catalog.so3().structure.copy()
        c[0, 1, 0], c[1, 0, 0] = 1e-11, -1e-11
        report = validate(MetricAlgebraSpec(structure=c, gram=np.eye(3)))
        tight = report.at(1e-12)
        assert report.passed and not tight.passed and report.at(1e-11).passed
        assert tight.checks is report.checks and report.tol == 1e-10
        [issue] = tight.issues
        assert (issue.invariant, issue.location, issue.residual) == ("jacobi", (0, 1, 2), 1e-11)

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_zero_structure_records_the_jacobi_sum_of_zeros(self, n):
        # the Jacobi sum is skipped on zeros; the report is the one the sum gives
        location, worst = _jacobi_worst(np.zeros((n, n, n)))
        report = validate(catalog.abelian(n))
        assert [(c.invariant, c.location, c.worst, c.scale) for c in report.checks] == [
            ("antisymmetry", (0, 0, 0), 0.0, (1.0,)),
            ("jacobi", location, worst, (1.0, 1.0)),
            ("gram_symmetric", (), 0.0, (1.0,)),
            ("gram_positive_definite", (), 0.0, ()),
        ]
        assert all(type(i) is int for i in report.checks[1].location)

    @pytest.mark.parametrize("tol", [1e-10, 0.0, 1e300])
    def test_overflowing_scale_fails_at_every_tolerance(self, tol):
        # a scale of 1e200 * 1e200 overflows to inf: the check cannot be judged
        check = Check("homomorphism", (0, 1, 0, 1), 1e200, (1e200, 1e200, 1.0))
        report = ValidationReport("action", [check], tol)
        assert math.isnan(check.residual)
        assert report.issues == [check]
        assert str(report).splitlines()[-1] == (
            "  FAIL homomorphism at (0, 1, 0, 1): residual nan (scale overflows)")

    def test_own_message_wins_over_the_overflow_reason(self):
        # a check that carries a message prints it, whatever its scale
        checks = [Check("jacobi", (0, 1, 2), math.nan, (math.inf,), "non-finite structure constant"),
                  Check("derivation", (1, 0, 0, 2), math.nan)]
        assert str(ValidationReport("action", checks)).splitlines()[1:] == [
            "  FAIL jacobi at (0, 1, 2): residual nan (non-finite structure constant)",
            "  FAIL derivation at (1, 0, 0, 2): residual nan",
        ]

    def test_structure_constant_whose_jacobi_scale_overflows_fails(self):
        # [e1, e2] = 1e200 e3 keeps the Jacobi identity, but max|c|^2 overflows to inf
        c = catalog.so3().structure.copy()
        c[0, 1, 2], c[1, 0, 2] = 1e200, -1e200
        report = validate(MetricAlgebraSpec(structure=c, gram=np.eye(3)))
        [issue] = report.issues
        assert issue.invariant == "jacobi" and math.isnan(issue.residual)
        assert str(report).splitlines()[-1] == "  FAIL jacobi at (0, 0, 0): residual nan (scale overflows)"

    def test_worst_offender_location(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = 1.0
        report = validate(MetricAlgebraSpec(structure=c, gram=np.eye(3)))
        issue = next(i for i in report.issues if i.invariant == "antisymmetry")
        assert issue.location in ((0, 1, 2), (1, 0, 2))
        assert issue.residual > 0

    def test_locations_print_as_python_ints(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0  # no antisymmetric partner
        report = validate(MetricAlgebraSpec(structure=c, gram=np.eye(3)))
        assert "FAIL antisymmetry at (0, 1, 2): residual 1.000e+00" in str(report).splitlines()[-1]
        assert all(type(i) is int for issue in report.issues for i in issue.location)

    @pytest.mark.parametrize("case", ["so3", "solvable", "within tolerance", "overflow"])
    def test_jacobi_check_reads_the_antisymmetry_sum(self, case, monkeypatch):
        # validate forms c + c^T once, and records what the one-argument Jacobi call gives
        c = (catalog.random_solvable(16, 3) if case == "solvable" else catalog.so3()).structure.copy()
        if case == "within tolerance":
            c[0, 1, 0], c[1, 0, 0] = 1e-11, -1.5e-11
        if case == "overflow":
            c[0, 1, 2], c[1, 0, 2] = 1e200, -1e200
        with np.errstate(over="ignore", invalid="ignore"):
            jacobi = _jacobi_worst(c)
        monkeypatch.setattr(algebra, "exactly_antisymmetric", lambda c: pytest.fail("c + c^T formed again"))
        report = validate(MetricAlgebraSpec(structure=c, gram=np.eye(len(c))))
        check = report.checks[1]
        assert check.invariant == "jacobi"
        assert (check.location, check.worst.hex()) == (jacobi[0], jacobi[1].hex())


#: The axes of a term's full product p[x1, x2, y] that give its rows (i, a, b), by (slot, flip).
TERM_AXES = {(0, False): (0, 1, 2), (0, True): (0, 2, 1), (1, False): (1, 0, 2),
             (1, True): (1, 2, 0), (2, False): (2, 0, 1), (2, True): (2, 1, 0)}


def _sparse_operands(seed, n=6, m=7, l=3, u_density=0.3, v_density=0.7):
    """u (n, n, m) with all-zero rows u[x1, x2] and v (m, n, l) with all-zero columns v[:, y]."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, n, m)) * (rng.random((n, n, 1)) < u_density)
    v = rng.standard_normal((m, n, l)) * (rng.random((1, n, 1)) < v_density)
    return u, v


def _term_rows(monkeypatch, u, v, slot, flip, bounded):
    """The engine's worst entry of one term, the rows it forms as {(i, a, b): row}, the sizes of
    the products it forms, and the row counts of the blocks of rows formed alone it gives
    worst_entry, or -1 for a slab formed in full."""
    rows, sizes, stacks = {}, [], []
    worst_entry, product_rows = algebra.worst_entry, algebra.product_rows

    def record(blocks):
        blocks = [(origin, block) for origin, block in blocks]
        for origin, block in blocks:
            if block.ndim == 2:  # rows formed alone, as a stack of runs
                stacks.append(len(block))
                rows.update({tuple(int(o[r]) for o in origin[:3]): block[r].copy()
                             for r in range(len(block))})
            elif block.shape[-1] > 1:  # a full slab; the zero entry has one column
                i, a0, b0, _ = origin
                stacks.append(-1)
                rows.update({(i, a0 + a, b0 + b): block[0, a, b].copy()
                             for a in range(block.shape[1]) for b in range(block.shape[2])})
        return worst_entry(blocks)

    monkeypatch.setattr(algebra, "worst_entry", record)
    monkeypatch.setattr(algebra, "product_rows",
                        lambda left, right: sizes.append((left @ right).size) or product_rows(left, right))
    n = len(u)
    with np.errstate(invalid="ignore"):
        worst = residual_worst([(u, v, slot, flip)], lambda t: t[0], (n, n, n), bounded)
    return worst, rows, sizes, stacks


def _full_term(u, v, slot, flip):
    """The term's residual r[i, a, b, :] read off its full product u @ v."""
    with np.errstate(invalid="ignore"):
        p = (u @ v.reshape(len(v), -1)).reshape(u.shape[:2] + v.shape[1:])
    return p.transpose(TERM_AXES[slot, flip] + (3,))


def _assert_rows_of_the_full_product(rows, full, bounded):
    """Every row formed equals the full product's under float.hex (up to the sign of a zero),
    every row left out is an exact zero of it, and no row out of bounds is formed."""
    hexes = np.vectorize(lambda x: float.hex(float(x) + 0.0))
    for (i, a, b), row in rows.items():
        assert (a >= i or not bounded[0]) and (b >= i or not bounded[1])
        assert hexes(row).tolist() == hexes(full[i, a, b]).tolist(), (i, a, b)
    for i, a, b in np.ndindex(full.shape[:3]):
        if (a >= i or not bounded[0]) and (b >= i or not bounded[1]) and (i, a, b) not in rows:
            assert (full[i, a, b] == 0).all(), (i, a, b)


BOUNDS = [(False, False), (True, True), (True, False), (False, True)]


class TestResidualEngine:
    @pytest.mark.parametrize("bounded", BOUNDS)
    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_formed_are_the_full_products(self, monkeypatch, seed, slot, flip, bounded):
        u, v = _sparse_operands(seed)
        _, rows, sizes, stacks = _term_rows(monkeypatch, u, v, slot, flip, bounded)
        _assert_rows_of_the_full_product(rows, _full_term(u, v, slot, flip), bounded)
        assert max(stacks) > 0, "no row was formed alone"
        assert max(sizes) <= 6 * 6 * 3  # no product holds more entries than a full slab

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_many_slabs_formed_alone_take_several_chunks(self, monkeypatch, slot):
        u, v = _sparse_operands(3, n=12, u_density=0.4, v_density=0.6)
        _, rows, sizes, stacks = _term_rows(monkeypatch, u, v, slot, False, (False, False))
        _assert_rows_of_the_full_product(rows, _full_term(u, v, slot, False), (False, False))
        assert sum(k > 0 for k in stacks) > 1 and max(sizes) <= 12 * 12 * 3

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_lone_row_keeps_the_bits_of_the_full_product(self, monkeypatch, slot):
        # numpy hands a one-row product to gemv, which rounds otherwise than gemm: with
        # OpenBLAS 0.3.31 these operands give another last bit in gemv
        u, v = _sparse_operands(0, u_density=1.0, v_density=1.0)
        u[:] = 0.0
        u[2, 3] = np.random.default_rng(0).standard_normal(7)
        _, rows, _, stacks = _term_rows(monkeypatch, u, v, slot, False, (False, False))
        _assert_rows_of_the_full_product(rows, _full_term(u, v, slot, False), (False, False))
        assert stacks == [6]  # the row (2, 3) of u against every column of v

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_no_nonzero_row_gives_the_zero_at_the_origin(self, monkeypatch, slot):
        u, v = _sparse_operands(0)
        worst, rows, _, _ = _term_rows(monkeypatch, np.zeros_like(u), v, slot, True, (True, True))
        assert worst == ((0, 0, 0, 0), 0.0) and not rows

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_zero_column_of_v_is_left_out(self, monkeypatch, slot):
        u, v = _sparse_operands(0, u_density=0.2, v_density=1.0)
        v[:, 4] = 0.0
        _, rows, _, stacks = _term_rows(monkeypatch, u, v, slot, False, (False, False))
        _assert_rows_of_the_full_product(rows, _full_term(u, v, slot, False), (False, False))
        y = {0: 2, 1: 2, 2: 0}[slot]  # where the y of a row (i, a, b) sits
        assert -1 not in stacks and rows and not any(key[y] == 4 for key in rows)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_inf_in_v_forms_the_zero_rows_of_u_as_nan(self, monkeypatch, slot):
        u, v = _sparse_operands(2)
        v[1, 3, 0] = np.inf
        worst, rows, _, _ = _term_rows(monkeypatch, u, v, slot, True, (True, False))
        full = _full_term(u, v, slot, True)
        _assert_rows_of_the_full_product(rows, full, (True, False))
        assert np.isnan(worst[1]) and np.isnan(full).any()

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_inf_in_u_against_a_zero_column_of_v_is_nan(self, monkeypatch, slot):
        u, v = _sparse_operands(2, u_density=0.2)
        u[1, 2, 4] = -np.inf
        v[:, 5] = 0.0
        worst, rows, _, _ = _term_rows(monkeypatch, u, v, slot, False, (False, False))
        full = _full_term(u, v, slot, False)
        _assert_rows_of_the_full_product(rows, full, (False, False))
        assert np.isnan(worst[1]) and np.isnan(full[..., 0]).any()
