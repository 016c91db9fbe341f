import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_leray, reference_modes, reference_multiply, relerr

from liecurv.backend import Pair, SemidirectBackendBase, norm_from_square, stack
from liecurv.curvature import curvature_numerator_generic, curvature_numerator_semidirect, oracle_curvature
from liecurv.errors import NotDivergenceFree
from liecurv.geodesic import geodesic_rhs, rhs_magnetic, rhs_semidirect
from liecurv.sampling import FAMILIES, random_element, rng_for_seed, sample_planes
from liecurv import torus
from liecurv.torus import (
    COS,
    SIN,
    TrigFunction,
    TrigVectorField,
    ad_transpose_full,
    ad_transpose_vol,
    arnold_flat_curvature,
    directional_derivative,
    divergence_free_modes,
    field_inner,
    function_inner,
    function_modes,
    grad,
    jacobi_lie_bracket,
    jacobian_transpose_apply,
    leray_project,
    mhd_mixed_plane,
    mhd_pure_magnetic_plane,
    multiply,
    q_project,
    scalar_derivative,
    truncate_state,
)

GRID = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
X1, X2 = np.meshgrid(GRID, GRID, indexing="ij")
MAX = torus.MAX_WAVENUMBER


def grid_close(f: TrigFunction, values, tol=1e-12):
    return float(np.max(np.abs(f.sample(X1, X2) - values))) <= tol


def random_function(rng, band=2, scale=1.0) -> TrigFunction:
    modes = {}
    for k in torus.canonical_wavevectors(band):
        for parity in (COS, SIN):
            modes[(k[0], k[1], parity)] = scale * rng.standard_normal()
    modes[(0, 0, COS)] = scale * rng.standard_normal()
    return TrigFunction(modes)


def random_divfree_field(rng, band=2, scale=1.0) -> TrigVectorField:
    basis = reference_modes(torus.VolumeFieldBackend(), band)
    coeffs = scale * rng.standard_normal(len(basis))
    total = basis[0] * float(coeffs[0])
    for b, c in zip(basis[1:], coeffs[1:]):
        total = total + float(c) * b
    return total


def random_full_field(rng, band=2, scale=1.0) -> TrigVectorField:
    return TrigVectorField(random_function(rng, band, scale), random_function(rng, band, scale))


SHEAR = TrigVectorField(TrigFunction.mode(SIN, (0, 1)), TrigFunction.zero())  # (sin x2, 0)


class TestCanonicalForm:
    def test_sin_zero_mode_forbidden(self):
        assert TrigFunction({(0, 0, SIN): 3.0}).modes == {}

    def test_negative_wavevector_folds(self):
        f = TrigFunction({(-1, 2, COS): 1.0})
        assert f.modes == {(1, -2, COS): 1.0}
        g = TrigFunction({(-1, 2, SIN): 1.0})
        assert g.modes == {(1, -2, SIN): -1.0}

    def test_zero_coefficients_dropped(self):
        f = TrigFunction({(1, 0, COS): 1.0}) - TrigFunction({(1, 0, COS): 1.0})
        assert f.modes == {}

    def test_fold_accumulates(self):
        f = TrigFunction({(0, 1, COS): 1.0, (0, -1, COS): 1.0})
        assert f.modes == {(0, 1, COS): 2.0}


class TestMultiply:
    def test_cos_squared(self):
        c = TrigFunction.mode(COS, (1, 0))
        assert multiply(c, c).modes == {(0, 0, COS): 0.5, (2, 0, COS): 0.5}

    def test_identity_element(self):
        c = TrigFunction.mode(COS, (1, 0))
        assert multiply(c, TrigFunction.constant(1.0)).modes == c.modes

    def test_cos_times_sin_canonical_expansion(self):
        c = TrigFunction.mode(COS, (1, 0))
        s = TrigFunction.mode(SIN, (0, 1))
        prod = multiply(c, s)
        assert prod.modes == {(1, 1, SIN): 0.5, (1, -1, SIN): -0.5}
        assert grid_close(prod, np.cos(X1) * np.sin(X2))

    def test_commutative(self):
        rng = rng_for_seed(1)
        f, g = random_function(rng), random_function(rng)
        diff = multiply(f, g) - multiply(g, f)
        assert diff.coefficient_scale() < 1e-14  # accumulation order only

    def test_support_in_minkowski_sum(self):
        rng = rng_for_seed(2)
        f, g = random_function(rng, band=2), random_function(rng, band=3)
        assert multiply(f, g).max_wavenumber() <= 5

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_grid_validation_random_products(self, seed):
        rng = rng_for_seed(seed)
        f, g = random_function(rng), random_function(rng)
        prod = multiply(f, g)
        assert grid_close(prod, f.sample(X1, X2) * g.sample(X1, X2), tol=1e-11)

    def test_product_rule(self):
        rng = rng_for_seed(3)
        f, g = random_function(rng), random_function(rng)
        lhs = multiply(f, g).partial(0)
        rhs = multiply(f.partial(0), g) + multiply(f, g.partial(0))
        diff = lhs - rhs
        assert diff.coefficient_scale() < 1e-13


def _full_band(rng, band, values=None) -> TrigFunction:
    """Every cos and sin mode with 0 < |k|_inf <= band (no constant)."""
    modes = {}
    for k in torus.canonical_wavevectors(band):
        for parity in (COS, SIN):
            coeff = rng.standard_normal() if values is None else rng.choice(values)
            modes[(k[0], k[1], parity)] = float(coeff)
    return TrigFunction(modes)


def _partial_band(rng, band, count, values=None, scale=1) -> TrigFunction:
    """count modes of the band (constant included), shuffled, wavevectors scaled."""
    full = list(_full_band(rng, band, values).modes.items()) + [((0, 0, COS), 0.75)]
    picks = [full[i] for i in rng.permutation(len(full))[:count]]
    return TrigFunction({(k1 * scale, k2 * scale, parity): v for (k1, k2, parity), v in picks})


def _oracle_cases():
    """(name, f, g, kind).  "exact" products have the loop's coefficients bit for
    bit; "rounded" ones sum standard-normal terms in another order; "overflow"
    ones have the loop's non-finite coefficients."""
    rng = np.random.default_rng(20240611)
    one = TrigFunction.mode
    exact = [
        ("empty*empty", TrigFunction(), TrigFunction()),
        ("empty*band2", TrigFunction(), _full_band(rng, 2)),
        ("band2*empty", _full_band(rng, 2), TrigFunction()),
        ("const*const", TrigFunction.constant(-1.5), TrigFunction.constant(3.0)),
        ("const*band2", TrigFunction.constant(0.3), _full_band(rng, 2)),
        ("cos*cos", one(COS, (1, 2), 0.7), one(COS, (3, -1), -1.3)),
        ("sin*sin", one(SIN, (1, 2), 0.7), one(SIN, (3, -1), -1.3)),
        ("sin*cos", one(SIN, (1, 2), 0.7), one(COS, (3, -1), -1.3)),
        ("cos*sin", one(COS, (1, 2), 0.7), one(SIN, (3, -1), -1.3)),
        ("sin*cos->sin(0,0)", one(SIN, (1, 2), 0.7), one(COS, (1, 2), 1.1)),
        ("cos*sin->sin(0,0)", one(COS, (1, 2), 0.7), one(SIN, (1, 2), 1.1)),
        ("cos*cos->negative k", one(COS, (1, -2), 0.7), one(COS, (2, 1), 1.1)),
        ("sin*cos->negative k", one(SIN, (0, 1), 0.7), one(COS, (1, 0), 1.1)),
        ("cos*sin->negative k", one(COS, (0, 1), 0.7), one(SIN, (1, 0), 1.1)),
        ("sin*sin->negative k", one(SIN, (1, 0), 0.7), one(SIN, (2, 0), 1.1)),
        (
            "exact cancellation",
            one(COS, (1, 1)) + one(SIN, (1, 1)),
            one(COS, (0, 2)) - one(SIN, (0, 2)),
        ),
    ]
    cases = [(*case, "exact") for case in exact]
    cases += [
        ("full band 6, 168 modes each: several blocks", _full_band(rng, 6), _full_band(rng, 6),
         "rounded"),
        (
            "overflow to inf and nan",
            one(COS, (1, 0), 1e300) + one(SIN, (0, 1), float("inf")),
            _full_band(rng, 1),
            "overflow",
        ),
    ]
    for i in range(24):
        band_f, band_g = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        values = None if i % 2 else (-1.0, -0.5, 0.5, 1.0)  # small values cancel exactly
        f = _partial_band(rng, band_f, int(rng.integers(1, 60)), values)
        g = _partial_band(rng, band_g, int(rng.integers(1, 60)), values)
        cases.append((f"bands {band_f}x{band_g} #{i}", f, g, "rounded" if i % 2 else "exact"))
    # far-apart wavevectors whose products reach the bound: sparse operands on
    # the largest grids the oracle can hold
    for band, scale in ((4, MAX // 8), (2, MAX // 4), (1, MAX // 2)):
        for values, kind in (((-1.0, -0.5, 0.5, 1.0), "exact"), (None, "rounded")):
            f = _partial_band(rng, band, 20, values, scale)
            g = _partial_band(rng, band, 20, values, scale)
            cases.append((f"band {band} scaled by {scale}, {kind}", f, g, kind))
    # operands with few nonzero rows or columns, which the product trims away
    cases.append(("single modes at (MAX, 0) and (0, MAX)", one(COS, (MAX, 0), 0.75),
                  one(SIN, (0, MAX), -1.25), "exact"))
    centre_row = TrigFunction({(0, k2, parity): float(rng.standard_normal())
                               for k2 in range(7) for parity in (COS, SIN)})
    cases.append(("full band 6 x one nonzero row", _full_band(rng, 6), centre_row, "rounded"))
    return cases


ORACLE_CASES = _oracle_cases()


def assert_same_product(f, g, kind):
    """multiply(f, g) has the pairwise loop's modes, with Python types: bit for bit
    when the sums are exact, within 1e-15 of the coefficient scale when only their
    order differs, and with the same non-finite coefficients after an overflow."""
    got, want = multiply(f, g).modes, reference_multiply(f, g).modes
    for (k1, k2, parity), val in got.items():
        assert (type(k1), type(k2), type(parity), type(val)) == (int, int, str, float)
    assert got.keys() == want.keys()
    if kind == "rounded":
        scale = reference_multiply(f, g).coefficient_scale()
        assert max((abs(got[k] - want[k]) for k in got), default=0.0) <= 1e-15 * scale
        return
    if kind == "overflow":
        # the loop forms no term from an absent mode; the convolution multiplies
        # an infinite coefficient by the zero cell of one, which gives nan
        want = {k: v for k, v in want.items() if not math.isfinite(v)}
        extra = {k: v for k, v in got.items() if not math.isfinite(v) and k not in want}
        assert want and all(math.isnan(v) for v in extra.values())
        got = {k: got[k] for k in want}
    # hex() also tells -0.0 from 0.0 and compares nan
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


class TestMultiplyKernel:
    @pytest.mark.parametrize("name, f, g, kind", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_pairwise_loop(self, name, f, g, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_product(f, g, kind)

    @pytest.mark.parametrize("name, f, g, kind", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_pairwise_loop_with_operands_swapped(self, name, f, g, kind):
        # multiply walks the operand with fewer nonzero cells, so the swapped
        # order takes the other side of that choice whenever the counts differ
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_product(g, f, kind)

    def test_peak_memory_is_bounded_by_blocks(self):
        rng = np.random.default_rng(7)
        f, g = _full_band(rng, 6), _full_band(rng, 6)
        multiply(f, g)
        tracemalloc.start()
        try:
            multiply(f, g)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    @pytest.mark.parametrize("k", [(MAX + 1, 0), (0, -MAX - 1), (-MAX - 1, 5), (3, MAX + 1)])
    def test_wavevector_above_the_bound_is_rejected(self, k):
        for parity in (COS, SIN):
            with pytest.raises(ValueError, match=f"limit .*{MAX}"):
                TrigFunction({(0, 1, COS): 1.0, (k[0], k[1], parity): 0.5})

    def test_unknown_parity_is_rejected(self):
        with pytest.raises(ValueError, match="parity must be 'cos' or 'sin', got 'tan'"):
            TrigFunction({(1, 0, "tan"): 1.0})

    def test_wavevector_at_the_bound_is_accepted(self):
        f = TrigFunction({(MAX, -MAX, SIN): 0.5, (0, -MAX, COS): -1.0, (1, 0, COS): 0.25})
        g = TrigFunction({(-MAX, 3, COS): 0.75, (2, MAX, SIN): 1.5})
        assert f.modes == {(0, MAX, COS): -1.0, (1, 0, COS): 0.25, (MAX, -MAX, SIN): 0.5}
        assert (f.max_wavenumber(), g.max_wavenumber()) == (MAX, MAX)
        prod = multiply(f, g)
        assert prod.max_wavenumber() == 2 * MAX
        # 4 MAX + 1 points per axis resolve every mode of the product
        x = np.linspace(0.0, 2.0 * np.pi, 4 * MAX + 1, endpoint=False)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        assert np.max(np.abs(prod.sample(x1, x2) - f.sample(x1, x2) * g.sample(x1, x2))) < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_modes_round_trip(self, seed):
        rng = rng_for_seed(seed)
        for f in (random_function(rng, band=seed), multiply(random_function(rng), random_function(rng))):
            again = TrigFunction(f.modes).modes
            assert {k: v.hex() for k, v in again.items()} == {k: v.hex() for k, v in f.modes.items()}
            assert list(again) == list(f.modes) == sorted(f.modes)


def _supported(rng, n, rows, cols, stack=(), dyadic=False):
    """Complex n x n grids, nonzero exactly on the cells of the given rows and columns."""
    shape = stack + (n, n)
    if dyadic:
        parts = [rng.choice((-1.0, -0.5, 0.5, 1.0), shape) for _ in range(2)]
    else:
        parts = [rng.standard_normal(shape) for _ in range(2)]
    mask = np.zeros((n, n), bool)
    mask[np.ix_(rows, cols)] = True
    return np.where(mask, parts[0] + 1j * parts[1], 0.0)


#: (na, R of a, nb, C of b): |R| |C| terms per output cell, from none to one past the
#: 2 * MAX_WAVENUMBER + 1 = 65 that one flattened matrix product sums
FLAT_CASES = {
    "all-zero a": (5, [], 5, range(5)),
    "all-zero b": (5, range(5), 5, []),
    "1x1 constants": (1, [0], 1, [0]),
    "band 2 by band 2": (5, range(5), 5, range(5)),
    "sparse rows of a wide grid": (9, [0, 8], 3, [1]),
    "65 terms": (5, range(5), 13, range(13)),
    "66 terms": (7, [0, 1, 2, 4, 5, 6], 11, range(11)),
}


class TestFlatKernel:
    """``_contract`` forms one matrix product per element over the flattened (R, C)
    sum when |R| |C| <= 65, and one per nonzero row of a otherwise."""

    @pytest.fixture()
    def plans(self, monkeypatch):
        calls = []
        plan = torus._flat_plan
        monkeypatch.setattr(torus, "_flat_plan", lambda *args: calls.append(args) or plan(*args))
        return calls

    @pytest.mark.parametrize("dyadic", [False, True], ids=["normal", "dyadic"])
    @pytest.mark.parametrize("case", FLAT_CASES)
    def test_matches_shifted_copies(self, case, dyadic, plans):
        na, rows, nb, cols = FLAT_CASES[case]
        rng = np.random.default_rng(len(case))
        a, b = _supported(rng, na, rows, range(na), dyadic=dyadic), \
            _supported(rng, nb, range(nb), cols, dyadic=dyadic)
        centre = (na + nb - 1) // 2
        got = torus._contract(a[None], b[None])[0, centre:]
        want = torus._shifted_sum(a, b)[centre:]
        assert bool(plans) == (len(rows) * len(cols) <= 65)
        assert got.shape == (na + nb - 1 - centre, na + nb - 1)
        if dyadic:  # every partial sum is exact, in any order
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(initial=0.0)

    @pytest.mark.parametrize("bands", [(2, 2), (2, 6), (3, 5)], ids=["25 terms", "65", "77"])
    @pytest.mark.parametrize("budget", [torus.STACK_BYTES, 1], ids=["one chunk", "one per chunk"])
    def test_equal_supports_give_each_element_its_lone_bits(self, bands, budget, monkeypatch):
        rng = rng_for_seed(47)
        fs = [random_function(rng, bands[0]) for _ in range(6)]
        gs = [random_function(rng, bands[1]) for _ in range(6)]
        alone = [_hex(multiply(f, g).c) for f, g in zip(fs, gs)]
        monkeypatch.setattr(torus, "STACK_BYTES", budget)
        stacked = multiply(stack(fs), stack(gs)).c
        assert [_hex(grid) for grid in stacked] == alone

    def test_plans_are_cached_by_sizes_and_support(self):
        a = _supported(np.random.default_rng(3), 5, range(5), range(5), stack=(2,))
        torus._contract(a, a)
        before = torus._flat_plan.cache_info()
        torus._contract(2.0 * a, a[::-1])
        after = torus._flat_plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_65_terms_are_independent_of_blas_threads(self):
        script = (
            "import numpy as np\n"
            "from liecurv import torus\n"
            "rng = np.random.default_rng(5)\n"
            "a = rng.standard_normal((8, 5, 5)) + 1j * rng.standard_normal((8, 5, 5))\n"
            "b = rng.standard_normal((8, 13, 13)) + 1j * rng.standard_normal((8, 13, 13))\n"
            "print([v.hex() for v in torus._contract(a, b)[:, 8:].view(float).ravel().tolist()])\n"
        )
        one, two = _stdout_with_one_and_two_blas_threads(script)
        assert one == two


def _stdout_with_one_and_two_blas_threads(script: str) -> list:
    """The stdout of a Python script run with one and with two OpenBLAS threads."""
    src = str(Path(torus.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              check=True)
        outputs.append(proc.stdout)
    return outputs


def _half_width(f, g) -> int:
    """Half-width of the grid of the uncapped product of f and g."""
    return f.c.shape[-1] // 2 + g.c.shape[-1] // 2


def assert_capped_product(f, g, cap):
    """The product of f and g under the cap is ``multiply(f, g).truncated(cap)``
    on the same grid: within 1e-15 of the product's coefficient scale where
    that is finite, since matrix products that form fewer columns can add in
    another order, and with the same bits where a coefficient is not finite."""
    full = multiply(f, g)
    got, want = torus._product(f, g, cap), full.truncated(cap)
    assert got.c.shape == want.c.shape
    finite = np.isfinite(want.c)
    assert _hex(got.c[~finite]) == _hex(want.c[~finite])
    with np.errstate(invalid="ignore"):
        scale = full.coefficient_scale()
    if math.isfinite(scale):
        assert np.abs(got.c - want.c).max() <= 1e-15 * scale


class TestCappedKernel:
    """Products under a cap form only the modes with |k|_inf <= cap."""

    @pytest.mark.parametrize("below", [None, 0, 1, 4],
                             ids=["cap 0", "half-width", "one below", "four below"])
    @pytest.mark.parametrize("name, f, g, kind", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_the_truncated_product(self, name, f, g, kind, below):
        cap = 0 if below is None else max(0, _half_width(f, g) - below)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_capped_product(f, g, cap)
            assert_capped_product(g, f, cap)

    @pytest.mark.parametrize("cap", [5, 6, 7, MAX],
                             ids=["between", "at half-width", "above", "MAX"])
    def test_operands_narrower_than_the_cap(self, cap):
        rng = rng_for_seed(53)
        f, g = random_function(rng, 2), random_function(rng, 4)
        assert_capped_product(f, g, cap)
        if cap >= _half_width(f, g):  # no mode to drop: the product itself
            assert _hex(torus._product(f, g, cap).c) == _hex(multiply(f, g).c)

    def test_cap_zero_keeps_the_mean(self):
        rng = rng_for_seed(59)
        f, g = random_function(rng, 3), random_function(rng, 2)
        mean = torus._product(f, g, 0)
        assert mean.c.shape == (1, 1)
        assert relerr(mean.c[0, 0].real, function_inner(f, g) / (4 * math.pi**2)) <= 1e-14
        assert mean.c[0, 0].imag == 0.0

    @pytest.mark.parametrize("case", ["band 2 by band 2", "65 terms", "66 terms"])
    @pytest.mark.parametrize("cap", [0, 2, 5])
    def test_both_kernels_match_the_full_contraction(self, case, cap):
        na, rows, nb, cols = FLAT_CASES[case]
        rng = np.random.default_rng(len(case) + cap)
        a, b = _supported(rng, na, rows, range(na), stack=(3,)), \
            _supported(rng, nb, range(nb), cols, stack=(3,))
        centre = (na + nb - 1) // 2
        half = min(cap, centre)
        got = torus._contract(a, b, cap)[:, half:]
        want = torus._contract(a, b)[:, centre:centre + half + 1, centre - half:centre + half + 1]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("bands", [(2, 2), (2, 6), (3, 5)], ids=["25 terms", "65", "77"])
    @pytest.mark.parametrize("budget", [torus.STACK_BYTES, 1], ids=["one chunk", "one per chunk"])
    def test_stacks_give_each_element_its_lone_bits(self, bands, budget, monkeypatch):
        rng = rng_for_seed(61)
        fs = [random_function(rng, bands[0]) for _ in range(5)]
        gs = [random_function(rng, bands[1]) for _ in range(5)]
        cap = sum(bands) - 2
        alone = [_hex(torus._product(f, g, cap).c) for f, g in zip(fs, gs)]
        monkeypatch.setattr(torus, "STACK_BYTES", budget)
        stacked = torus._product(stack(fs), stack(gs), cap).c
        assert stacked.shape == (5, 2 * cap + 1, 2 * cap + 1)
        assert [_hex(grid) for grid in stacked] == alone

    def test_non_finite_grids_are_truncated_after_the_shifted_copies(self):
        rng = rng_for_seed(67)
        fs = [random_function(rng, 2), TrigFunction({(1, 2, COS): math.inf, (2, 0, SIN): 2.0}),
              random_function(rng, 2)]
        gs = [random_function(rng, 3) for _ in range(3)]
        stacked = torus._product(stack(fs), stack(gs), 3).c
        assert stacked.shape == (3, 7, 7)
        for grid, f, g in zip(stacked, fs, gs):
            assert _hex(grid) == _hex(torus._product(f, g, 3).c)
            assert_capped_product(f, g, 3)
        assert not np.isfinite(stacked[1]).all()

    def test_capped_product_is_independent_of_blas_threads(self):
        script = (
            "import numpy as np\n"
            "from liecurv import torus\n"
            "rng = np.random.default_rng(7)\n"
            "for na, nb in ((5, 13), (9, 13)):\n"
            "    a = rng.standard_normal((4, na, na)) + 1j * rng.standard_normal((4, na, na))\n"
            "    b = rng.standard_normal((4, nb, nb)) + 1j * rng.standard_normal((4, nb, nb))\n"
            "    out = torus._convolve(a, b, 6)\n"
            "    print([v.hex() for v in out.view(float).ravel().tolist()])\n"
        )
        one, two = _stdout_with_one_and_two_blas_threads(script)
        assert one == two


class TestDerivatives:
    def test_partial_of_cos(self):
        f = TrigFunction.mode(COS, (2, 0), 3.0)
        assert f.partial(0).modes == {(2, 0, SIN): -6.0}
        assert f.partial(1).modes == {}

    def test_gradient_field(self):
        f = TrigFunction.mode(SIN, (1, 2))
        g = grad(f)
        assert g.comp1.modes == {(1, 2, COS): 1.0}
        assert g.comp2.modes == {(1, 2, COS): 2.0}

    def test_shear_self_transport_vanishes(self):
        assert directional_derivative(SHEAR, SHEAR).coefficient_scale() == 0.0

    def test_constant_field_translates(self):
        unit = TrigVectorField(TrigFunction.constant(1.0), TrigFunction.zero())
        rng = rng_for_seed(4)
        y = random_full_field(rng)
        out = directional_derivative(unit, y)
        assert (out.comp1 - y.comp1.partial(0)).coefficient_scale() < 1e-15
        assert (out.comp2 - y.comp2.partial(0)).coefficient_scale() < 1e-15

    def test_worked_cross_shear(self):
        x = SHEAR
        y = TrigVectorField(TrigFunction.zero(), TrigFunction.mode(SIN, (1, 0)))
        out = directional_derivative(x, y)
        # (0, sin x2 * cos x1), expanded to canonical modes
        assert out.comp1.modes == {}
        assert grid_close(out.comp2, np.sin(X2) * np.cos(X1))
        assert out.comp2.modes == {(1, 1, SIN): 0.5, (1, -1, SIN): -0.5}


class TestLeray:
    def test_gradients_project_to_zero(self):
        f = TrigFunction.mode(COS, (1, 2))
        assert leray_project(grad(f)).coefficient_scale() < 1e-16

    def test_divergence_free_unchanged(self):
        rng = rng_for_seed(5)
        x = random_divfree_field(rng)
        assert (leray_project(x) - x).coefficient_scale() < 1e-13

    def test_parallel_mode_killed(self):
        x = TrigVectorField(TrigFunction.mode(COS, (1, 0)), TrigFunction.zero())
        assert leray_project(x).coefficient_scale() < 1e-16

    def test_idempotent(self):
        rng = rng_for_seed(6)
        x = random_full_field(rng)
        p1 = leray_project(x)
        p2 = leray_project(p1)
        assert (p2 - p1).coefficient_scale() < 1e-14

    def test_result_divergence_free_and_orthogonal_to_gradients(self):
        rng = rng_for_seed(7)
        x = random_full_field(rng)
        p = leray_project(x)
        assert p.is_divergence_free(tol=1e-12)
        for _ in range(5):
            f = random_function(rng)
            assert abs(field_inner(p, grad(f))) < 1e-11

    def test_constant_mode_kept(self):
        x = TrigVectorField(TrigFunction.constant(2.0), TrigFunction.constant(-1.0))
        p = leray_project(x)
        assert (p - x).coefficient_scale() == 0.0

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_matches_per_mode_loop_bit_for_bit(self, seed):
        x = random_full_field(rng_for_seed(seed), band=3)
        assert _hex_modes(leray_project(x)) == _hex_modes(reference_leray(x))

    def test_q_complements_p(self):
        rng = rng_for_seed(8)
        x = random_full_field(rng)
        total = leray_project(x) + q_project(x)
        assert (total - x).coefficient_scale() < 1e-14


class TestMetric:
    def test_mode_norms(self):
        one = TrigFunction.constant(1.0)
        assert function_inner(one, one) == pytest.approx(4.0 * np.pi**2)
        c = TrigFunction.mode(COS, (1, 1))
        s = TrigFunction.mode(SIN, (1, 1))
        assert function_inner(c, c) == pytest.approx(2.0 * np.pi**2)
        assert function_inner(s, s) == pytest.approx(2.0 * np.pi**2)

    def test_distinct_canonical_modes_orthogonal(self):
        a = TrigFunction.mode(COS, (1, 1))
        for other in (TrigFunction.mode(SIN, (1, 1)), TrigFunction.mode(COS, (1, 2)),
                      TrigFunction.constant(1.0)):
            assert function_inner(a, other) == 0.0

    def test_inner_matches_grid_quadrature(self):
        rng = rng_for_seed(9)
        f, g = random_function(rng), random_function(rng)
        # 32x32 rectangle rule is exact for band-4 trigonometric polynomials
        quad = np.sum(f.sample(X1, X2) * g.sample(X1, X2)) * (2 * np.pi / 32) ** 2
        assert relerr(function_inner(f, g), float(quad)) < 1e-12

    def test_zero_padding_and_stacking_leave_the_bits_alone(self):
        rng = rng_for_seed(47)
        for _ in range(300):
            f, g = (random_function(rng, int(band)) for band in rng.integers(0, 6, size=2))
            alone = function_inner(f, g)
            wider = [random_function(rng, 6)]  # a stack's wider element widens f and g
            values = [function_inner(TrigFunction._of(torus._embed(f.c, f.c.shape[-1] // 2 + pad)), g)
                      for pad in (1, 3)]
            values.append(function_inner(stack([f] + wider), stack([g] + wider))[0])
            assert [v.hex() for v in values] == [alone.hex()] * 3

    def test_overflow_gives_inf_without_warnings(self):
        big = TrigFunction.mode(COS, (1, 1), 1e200)
        field = TrigVectorField(big, -1.0 * big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert function_inner(big, big) == math.inf
            assert field_inner(field, field) == math.inf
            assert np.isnan(field_inner(field, TrigVectorField(big, big)))
            pair = stack([field, field])
            assert field_inner(pair, pair).tolist() == [math.inf] * 2
            assert np.isnan(field_inner(pair, stack([TrigVectorField(big, big)] * 2))).all()


class TestAdTransposeVol:
    def test_shear_self_ad_transpose_vanishes(self):
        out = ad_transpose_vol(SHEAR, SHEAR)
        assert out.coefficient_scale() < 1e-16

    def test_zero_field(self):
        assert ad_transpose_vol(TrigVectorField.zero(), SHEAR).coefficient_scale() == 0.0

    def test_rejects_compressible_input(self):
        bad = TrigVectorField(TrigFunction.mode(COS, (1, 0)), TrigFunction.zero())
        with pytest.raises(NotDivergenceFree):
            ad_transpose_vol(bad, SHEAR)

    def test_a_field_passed_twice_is_checked_once(self, monkeypatch):
        calls = []
        original = TrigVectorField.is_divergence_free
        monkeypatch.setattr(TrigVectorField, "is_divergence_free",
                            lambda self, *a: calls.append(self) or original(self, *a))
        ad_transpose_vol(SHEAR, SHEAR)
        assert calls == [SHEAR]
        calls.clear()
        ad_transpose_vol(SHEAR, 2.0 * SHEAR)
        assert len(calls) == 2

    def test_divergent_second_field_is_named(self):
        bad = SHEAR + TrigVectorField(TrigFunction.mode(COS, (1, 0), 0.5), TrigFunction.zero())
        scale = bad.divergence().coefficient_scale()
        with pytest.raises(NotDivergenceFree, match=rf"^field with divergence scale {scale:.3e} rejected$"):
            ad_transpose_vol(SHEAR, bad)

    def test_adjointness_on_band1_family(self):
        backend = torus.VolumeFieldBackend()
        modes = reference_modes(backend, 1)
        for x in modes:
            for z in modes:
                for y in modes:
                    lhs = field_inner(backend.bracket(x, z), y)
                    rhs = field_inner(z, ad_transpose_vol(x, y))
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs)) + 1e-10


class TestAdTransposeFull:
    def test_divergence_free_reduction(self):
        rng = rng_for_seed(10)
        x = random_divfree_field(rng, band=1)
        y = random_full_field(rng, band=1)
        full = ad_transpose_full(x, y)
        unprojected = directional_derivative(x, y) + jacobian_transpose_apply(x, y)
        assert (full - unprojected).coefficient_scale() < 1e-12

    def test_worked_compressible_example(self):
        x = TrigVectorField(TrigFunction.mode(COS, (1, 0)), TrigFunction.zero())
        y = TrigVectorField(TrigFunction.constant(1.0), TrigFunction.zero())
        out = ad_transpose_full(x, y)
        # (div X) Y + (grad X)^T Y = -2 sin(x1) in the first component
        assert out.comp1.modes == {(1, 0, SIN): -2.0}
        assert out.comp2.modes == {}
        vals = out.sample(X1, X2)
        assert np.max(np.abs(vals[0] + 2.0 * np.sin(X1))) < 1e-12

    def test_adjointness_on_band1_family(self):
        backend = torus.FullFieldBackend()
        modes = reference_modes(backend, 1)[:12]
        for x in modes:
            for z in modes:
                for y in modes:
                    lhs = field_inner(backend.bracket(x, z), y)
                    rhs = field_inner(z, ad_transpose_full(x, y))
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs)) + 1e-10


class TestPassiveScalarBackend:
    def setup_method(self):
        self.backend = torus.PassiveScalarBackend()

    def test_h_defining_relation_band1(self):
        gmodes = reference_modes(torus.VolumeFieldBackend(), 1)
        hmodes = reference_modes(torus.FunctionSpaceBackend(), 1)
        for x in gmodes:
            for f1 in hmodes:
                for f2 in hmodes:
                    lhs = function_inner(self.backend.b(x, f1), f2)
                    rhs = field_inner(self.backend.h_map(f1, f2), x)
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)) + 1e-10

    def test_isometric(self):
        assert self.backend.isometric
        rng = rng_for_seed(11)
        x = random_divfree_field(rng, band=1)
        f = random_function(rng, band=1)
        skew = self.backend.b(x, f) + self.backend.b_transpose(x, f)
        assert skew.coefficient_scale() == 0.0

    def test_h_diagonal_projects_to_zero(self):
        rng = rng_for_seed(12)
        for _ in range(10):
            f = random_function(rng)
            assert self.backend.h_map(f, f).coefficient_scale() < 1e-14

    def test_geodesic_rhs_matches_displayed_system(self):
        rng = rng_for_seed(13)
        for _ in range(10):
            u = random_divfree_field(rng, band=2, scale=0.5)
            f = random_function(rng, band=2, scale=0.5)
            du, df = rhs_semidirect(self.backend, u, f)
            du_direct, df_direct = torus.passive_scalar_rhs_direct(u, f)
            assert (du - du_direct).coefficient_scale() < 1e-12
            assert (df - df_direct).coefficient_scale() < 1e-12

    def test_transport_example(self):
        f = TrigFunction.mode(COS, (1, 0))
        _, df = torus.passive_scalar_rhs_direct(SHEAR, f)
        assert grid_close(df, np.sin(X2) * np.sin(X1))


class TestCompressibleBackend:
    def setup_method(self):
        self.backend = torus.CompressibleScalarBackend()

    def test_assembled_rhs_matches_displayed_system(self):
        rng = rng_for_seed(14)
        for _ in range(20):
            u = random_full_field(rng, band=1, scale=0.5)
            f = random_function(rng, band=1, scale=0.5)
            du, df = rhs_semidirect(self.backend, u, f)
            du_direct, df_direct = torus.compressible_rhs_direct(u, f)
            assert (du - du_direct).coefficient_scale() < 1e-12
            assert (df - df_direct).coefficient_scale() < 1e-12

    def test_divergence_free_velocity_no_scalar(self):
        rng = rng_for_seed(15)
        u = random_divfree_field(rng, band=1)
        du, _ = torus.compressible_rhs_direct(u, TrigFunction.zero())
        speed_sq = multiply(u.comp1, u.comp1) + multiply(u.comp2, u.comp2)
        expected = -directional_derivative(u, u) - 0.5 * grad(speed_sq)
        assert (du - expected).coefficient_scale() < 1e-13

    def test_rest_velocity(self):
        f = TrigFunction.mode(COS, (0, 1))
        du, df = torus.compressible_rhs_direct(TrigVectorField.zero(), f)
        expected = -torus.scale_field(f, grad(f))
        assert (du - expected).coefficient_scale() < 1e-15
        assert df.coefficient_scale() == 0.0

    def test_b_transpose_adjointness_band1(self):
        modes_g = reference_modes(torus.FullFieldBackend(), 1)[:8]
        modes_h = reference_modes(torus.FunctionSpaceBackend(), 1)
        for x in modes_g:
            for f1 in modes_h:
                for f2 in modes_h:
                    lhs = function_inner(self.backend.b(x, f1), f2)
                    rhs = function_inner(f1, self.backend.b_transpose(x, f2))
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)) + 1e-10


class TestMhdBackend:
    def setup_method(self):
        self.backend = torus.MhdBackend()
        self.vol = torus.VolumeFieldBackend()

    def test_no_field_reduces_to_euler(self):
        rng = rng_for_seed(16)
        u = random_divfree_field(rng, band=2, scale=0.5)
        du, db = rhs_magnetic(self.vol, u, TrigVectorField.zero())
        assert (du - torus.euler_rhs_direct(u)).coefficient_scale() < 1e-13
        assert db.coefficient_scale() == 0.0

    def test_aligned_state_is_stationary(self):
        rng = rng_for_seed(17)
        u = random_divfree_field(rng, band=2)
        du, db = rhs_magnetic(self.vol, u, u)
        assert du.coefficient_scale() < 1e-13
        assert db.coefficient_scale() < 1e-13

    def test_prop_assembly_matches_displayed_mhd(self):
        rng = rng_for_seed(18)
        for _ in range(20):
            u = random_divfree_field(rng, band=1, scale=0.5)
            b = random_divfree_field(rng, band=1, scale=0.5)
            du1, db1 = rhs_magnetic(self.vol, u, b)
            du2, db2 = torus.mhd_rhs_direct(u, b)
            assert (du1 - du2).coefficient_scale() < 1e-12
            assert (db1 - db2).coefficient_scale() < 1e-12
            # the semidirect assembly agrees as well
            du3, db3 = rhs_semidirect(self.backend, u, b)
            assert (du1 - du3).coefficient_scale() < 1e-12
            assert (db1 - db3).coefficient_scale() < 1e-12

    def test_induction_uses_geometric_bracket(self):
        rng = rng_for_seed(19)
        u = random_divfree_field(rng, band=1)
        b = random_divfree_field(rng, band=1)
        _, db = torus.mhd_rhs_direct(u, b)
        assert (db + jacobi_lie_bracket(u, b)).coefficient_scale() < 1e-15

    def test_h_defining_relation_band1(self):
        modes = reference_modes(self.vol, 1)
        for x in modes[:6]:
            for y1 in modes[:6]:
                for y2 in modes[:6]:
                    lhs = field_inner(self.backend.b(x, y1), y2)
                    rhs = field_inner(self.backend.h_map(y1, y2), x)
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)) + 1e-10


class TestPlaneFormulas:
    def test_mixed_plane_matches_expansion(self):
        mhd = torus.MhdBackend()
        rng = rng_for_seed(20)
        for _ in range(25):
            x = random_divfree_field(rng, band=1, scale=0.7)
            y = random_divfree_field(rng, band=1, scale=0.7)
            direct = mhd_mixed_plane(x, y)
            expanded = curvature_numerator_semidirect(
                mhd, Pair(x, TrigVectorField.zero()), Pair(TrigVectorField.zero(), y)
            ).numerator
            assert relerr(direct, expanded) < 1e-10

    def test_mixed_plane_zero_field(self):
        assert mhd_mixed_plane(TrigVectorField.zero(), SHEAR) == 0.0

    def test_pure_magnetic_matches_expansion(self):
        mhd = torus.MhdBackend()
        rng = rng_for_seed(21)
        for _ in range(25):
            y1 = random_divfree_field(rng, band=1, scale=0.7)
            y2 = random_divfree_field(rng, band=1, scale=0.7)
            direct = mhd_pure_magnetic_plane(y1, y2)
            expanded = curvature_numerator_semidirect(
                mhd, Pair(TrigVectorField.zero(), y1), Pair(TrigVectorField.zero(), y2)
            ).numerator
            assert relerr(direct, expanded) < 1e-10

    def test_pure_magnetic_equal_legs_cancel(self):
        rng = rng_for_seed(22)
        y = random_divfree_field(rng, band=2)
        assert abs(mhd_pure_magnetic_plane(y, y)) < 1e-12 * max(1.0, field_inner(y, y) ** 2)

    def test_pure_magnetic_shear_nonnegative(self):
        rng = rng_for_seed(23)
        for _ in range(10):
            y2 = random_divfree_field(rng, band=2)
            value = mhd_pure_magnetic_plane(SHEAR, y2)
            assert value >= -1e-12

    def test_pure_magnetic_zero_leg(self):
        assert mhd_pure_magnetic_plane(SHEAR, TrigVectorField.zero()) == 0.0

    def test_arnold_flat_matches_generic(self):
        vol = torus.VolumeFieldBackend()
        rng = rng_for_seed(24)
        for _ in range(25):
            x = random_divfree_field(rng, band=1, scale=0.7)
            y = random_divfree_field(rng, band=1, scale=0.7)
            direct = arnold_flat_curvature(x, y)
            generic = curvature_numerator_generic(vol, x, y).numerator
            assert relerr(direct, generic) < 1e-10

    def test_arnold_flat_self_plane(self):
        rng = rng_for_seed(25)
        x = random_divfree_field(rng, band=2)
        assert abs(arnold_flat_curvature(x, x)) < 1e-12 * max(1.0, field_inner(x, x) ** 2)

    def test_commuting_shears_flat(self):
        # same-direction single modes commute and stay flat
        y = TrigVectorField(TrigFunction.mode(SIN, (0, 2)), TrigFunction.zero())
        assert abs(arnold_flat_curvature(SHEAR, y)) < 1e-14

    def test_rejects_compressible_inputs(self):
        bad = TrigVectorField(TrigFunction.mode(COS, (1, 0)), TrigFunction.zero())
        with pytest.raises(NotDivergenceFree):
            arnold_flat_curvature(bad, SHEAR)
        with pytest.raises(NotDivergenceFree):
            mhd_mixed_plane(bad, SHEAR)
        with pytest.raises(NotDivergenceFree):
            mhd_pure_magnetic_plane(bad, SHEAR)


class TestFlatness:
    def test_sections_containing_function_direction(self):
        ps = torus.PassiveScalarBackend()
        planes = sample_planes(ps, seed=2026, count=20, family="contains-h", band=2)
        for plane in planes:
            br = curvature_numerator_semidirect(ps, plane.x, plane.y)
            assert abs(br.numerator) <= 1e-12

    def test_curvature_carried_by_velocity_part_only(self):
        ps = torus.PassiveScalarBackend()
        vol = torus.VolumeFieldBackend()
        rng = rng_for_seed(27)
        for _ in range(20):
            x1 = random_divfree_field(rng, band=1, scale=0.6)
            x2 = random_divfree_field(rng, band=1, scale=0.6)
            f1 = random_function(rng, band=1, scale=0.6)
            f2 = random_function(rng, band=1, scale=0.6)
            full = curvature_numerator_semidirect(ps, Pair(x1, f1), Pair(x2, f2)).numerator
            gonly = curvature_numerator_generic(vol, x1, x2).numerator
            assert relerr(full, gonly) < 1e-10


class TestEulerReduction:
    def test_transpose_term_is_pure_gradient(self):
        vol = torus.VolumeFieldBackend()
        rng = rng_for_seed(28)
        for _ in range(10):
            u = random_divfree_field(rng, band=2, scale=0.5)
            rhs = geodesic_rhs(vol)(u)
            assert (rhs - torus.euler_rhs_direct(u)).coefficient_scale() < 1e-12


def _hex_modes(element):
    """(mode, coefficient as float.hex) in dict order, per component of a field."""
    if isinstance(element, TrigVectorField):
        return _hex_modes(element.comp1), _hex_modes(element.comp2)
    return [(key, value.hex()) for key, value in element.modes.items()]


@pytest.mark.parametrize("backend,velocity,alpha", [
    (torus.PassiveScalarBackend(), random_divfree_field, random_function),
    (torus.CompressibleScalarBackend(), random_full_field, random_function),
    (torus.MhdBackend(), random_divfree_field, random_divfree_field),
], ids=["passive-scalar", "compressible", "mhd"])
def test_product_geodesic_rhs_is_rhs_semidirect_bit_for_bit(backend, velocity, alpha):
    """-ad(u)^T u of the product backend makes the primitive calls of the
    componentwise right-hand side in the same order, so the two agree exactly."""
    rng = rng_for_seed(30)
    rhs = geodesic_rhs(backend)
    for _ in range(4):
        u, a = velocity(rng, band=2, scale=0.5), alpha(rng, band=2, scale=0.5)
        got = rhs(Pair(u, a))
        du, da = rhs_semidirect(backend, u, a)
        assert _hex_modes(got.x) == _hex_modes(du)
        assert _hex_modes(got.y) == _hex_modes(da)


class TestTruncation:
    def test_truncate_function(self):
        f = TrigFunction({(1, 0, COS): 1.0, (3, 0, COS): 2.0})
        assert f.truncated(2).modes == {(1, 0, COS): 1.0}

    def test_truncate_pair_state(self):
        state = Pair(SHEAR, TrigFunction.mode(COS, (5, 5)))
        out = truncate_state(state, 2)
        assert out.y.modes == {}
        assert out.x.comp1.modes == SHEAR.comp1.modes

    def test_capped_rhs_stays_in_band(self):
        ps = torus.PassiveScalarBackend()
        rng = rng_for_seed(29)
        state = Pair(random_divfree_field(rng, band=2), random_function(rng, band=2))
        rhs = torus.capped_rhs(geodesic_rhs(ps), 3)
        out = rhs(state)
        assert out.x.max_wavenumber() <= 3
        assert out.y.max_wavenumber() <= 3

    def test_operations_do_not_mutate_inputs(self):
        f = TrigFunction.mode(COS, (1, 0))
        before = dict(f.modes)
        multiply(f, f)
        f.partial(0)
        _ = f + f
        assert f.modes == before


# fields whose components have unequal widths, one of them possibly empty
FIELD_GRID_CASES = {
    "wide-first": ({(0, 1, SIN): -1.0, (3, -1, SIN): 0.25}, {(1, 0, COS): 0.7}),
    "wide-second": ({(0, 0, COS): 0.2, (1, 0, COS): 0.7}, {(1, -1, SIN): 0.3, (2, 3, COS): 0.5}),
    "empty-first": ({}, {(0, 0, COS): -0.5, (2, 1, SIN): 1.5}),
    "empty-second": ({(1, -3, COS): 2.0}, {}),
}


class TestFieldGrid:
    @pytest.mark.parametrize("modes1, modes2", FIELD_GRID_CASES.values(), ids=FIELD_GRID_CASES)
    def test_components_on_the_wider_grid(self, modes1, modes2):
        f1, f2 = TrigFunction(modes1), TrigFunction(modes2)
        x = TrigVectorField(f1, f2)
        w1, w2 = f1.max_wavenumber(), f2.max_wavenumber()
        wide = max(w1, w2)
        assert x.c.shape == (2, 2 * wide + 1, 2 * wide + 1)
        assert x.comp1.modes == modes1
        assert x.comp2.modes == modes2
        assert np.shares_memory(x.comp1.c, x.c[0]) and np.shares_memory(x.comp2.c, x.c[1])
        assert x.max_wavenumber() == wide
        for cap in range(wide + 1):  # below both widths, between them and at the wider
            out = x.truncated(cap)
            assert out.c.shape == (2, 2 * cap + 1, 2 * cap + 1)
            for got, modes in ((out.comp1, modes1), (out.comp2, modes2)):
                assert got.modes == {k: v for k, v in modes.items() if max(map(abs, k[:2])) <= cap}
        zero = 0.0 * x
        assert zero.c.shape == (2, 1, 1) and not zero.c.any()
        for y in (x + zero, zero + x, TrigVectorField.zero() + x, x - TrigVectorField.zero(),
                  -(-x), 0.5 * (x * 2.0)):
            assert (y.comp1.modes, y.comp2.modes) == (modes1, modes2)
        assert (x - x).coefficient_scale() == 0.0
        assert (TrigVectorField.zero() - x).comp2.modes == {k: -v for k, v in modes2.items()}

    @pytest.mark.parametrize("modes1, modes2", FIELD_GRID_CASES.values(), ids=FIELD_GRID_CASES)
    def test_operations_do_not_change_input_grids(self, modes1, modes2):
        f1, f2 = TrigFunction(modes1), TrigFunction(modes2)
        x = TrigVectorField(f1, f2)
        y = jacobi_lie_bracket(x, SHEAR)
        inputs = (f1, f2, x, y, SHEAR)
        before = [e.c.copy() for e in inputs]
        for z in (x, y):
            _ = [
                z + x, z - x, -z, 2.0 * z, z * 0.0, z.truncated(0), z.truncated(1),
                z.max_wavenumber(), z.coefficient_scale(), z.divergence(), z.is_divergence_free(),
                leray_project(z), q_project(z), field_inner(z, x), grad(z.comp1), z.sample(X1, X2),
                directional_derivative(z, x), jacobian_transpose_apply(x, z), jacobi_lie_bracket(z, x),
                torus.scale_field(z.comp2, x), scalar_derivative(z, f1), ad_transpose_full(z, x),
                multiply(z.comp1, z.comp2), function_inner(z.comp1, f2), z.comp2.partial(0),
                truncate_state(Pair(z, f1), 1), torus.compressible_rhs_direct(z, f2),
            ]
        for e, c in zip(inputs, before):
            assert np.array_equal(e.c, c)

    @pytest.mark.parametrize("component", [0, 1])
    def test_coefficient_scale_propagates_nan(self, component):
        comps = [TrigFunction.mode(COS, (1, 0)), TrigFunction.mode(SIN, (0, 2))]
        comps[component] = comps[component] + TrigFunction.constant(math.nan)
        assert math.isnan(TrigVectorField(*comps).coefficient_scale())


def _hex(grid) -> list:
    return [v.hex() for v in grid.view(float).ravel().tolist()]


class TestStackedEvaluation:
    """A stack of planes evaluated in one call against each plane alone."""

    BACKENDS = {
        "passive-scalar": torus.PassiveScalarBackend,
        "compressible": torus.CompressibleScalarBackend,
        "mhd": torus.MhdBackend,
        "torus-vol": torus.VolumeFieldBackend,
        "torus-full": torus.FullFieldBackend,
    }

    @pytest.mark.parametrize("selector,family", [
        *((name, family) for name in ("passive-scalar", "compressible", "mhd") for family in FAMILIES),
        ("torus-vol", "full"),
        ("torus-full", "full"),
    ])
    def test_matches_per_plane_evaluation(self, selector, family):
        backend = self.BACKENDS[selector]()
        semidirect = isinstance(backend, SemidirectBackendBase)
        numerator = curvature_numerator_semidirect if semidirect else curvature_numerator_generic
        # planes of two bands in one stack, so that stacked grids are widened
        planes = [p for band in (1, 2) for p in sample_planes(backend, 31, 2, family=family, band=band)]
        br = numerator(backend, stack([p.x for p in planes]), stack([p.y for p in planes]))
        assert br.numerator.shape == br.denominator.shape == br.sectional.shape == (4,)
        if semidirect:  # the abelian factor's numerator is 0.0, still one value per plane
            h = curvature_numerator_generic(backend.h, stack([p.x.y for p in planes]),
                                            stack([p.y.y for p in planes]))
            assert h.numerator.tolist() == [0.0] * 4
        for i, plane in enumerate(planes):
            alone = numerator(backend, plane.x, plane.y)
            for stacked, single in ((br.numerator[i], alone.numerator),
                                    (br.denominator[i], alone.denominator),
                                    (br.sectional[i], alone.sectional)):
                assert relerr(stacked, single) <= 1e-13

    def test_products_of_equal_grids_match_single_products_bit_for_bit(self, monkeypatch):
        # grids of one width, as a scan's planes are; the zero rows and columns
        # that a wider element brings can move the last bits of BLAS sums
        rng = rng_for_seed(43)
        finite = [random_function(rng, 2) for _ in range(3)]
        with_inf = [finite[0], TrigFunction({(1, 2, COS): math.inf, (2, 0, SIN): 2.0}), finite[2]]
        gs = [random_function(rng, 3, scale=0.5) for _ in range(3)]
        cases = [(fs, multiply(stack(fs), stack(gs)).c) for fs in (finite, with_inf)]
        monkeypatch.setattr(torus, "STACK_BYTES", 1)  # one element per matrix product
        cases.append((finite, multiply(stack(finite), stack(gs)).c))
        for fs, stacked in cases:
            for i, (f, g) in enumerate(zip(fs, gs)):
                assert _hex(stacked[i]) == _hex(multiply(f, g).c)

    def test_one_divergent_field_rejects_the_stack(self):
        good = random_divfree_field(rng_for_seed(41), band=2)
        bad = good + TrigVectorField(TrigFunction.mode(COS, (1, 0), 0.5), TrigFunction.zero())
        x, y = stack([good, bad]), stack([good, good])
        with pytest.raises(NotDivergenceFree):
            curvature_numerator_generic(torus.VolumeFieldBackend(), x, y)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_each_field_is_judged_at_its_own_scale(self, order):
        # the same divergence of 1e-5 is roundoff beside a 1e6 field and an error beside a unit one
        slip = TrigVectorField(TrigFunction.mode(COS, (1, 0), 1e-5), TrigFunction.zero())
        unit = TrigVectorField(TrigFunction.mode(SIN, (0, 1)), TrigFunction.zero())
        fields = [1e6 * unit + slip, unit + slip]
        fields = [fields[i] for i in order]
        stacked = stack(fields)
        alone = [f.is_divergence_free() for f in fields]
        assert sorted(alone) == [False, True]
        assert stacked.is_divergence_free().tolist() == alone
        assert stacked.coefficient_scale().tolist() == [f.coefficient_scale() for f in fields]
        assert stacked.max_wavenumber().tolist() == [f.max_wavenumber() for f in fields]
        with pytest.raises(NotDivergenceFree) as raised:
            torus._require_divergence_free(stacked)
        with pytest.raises(NotDivergenceFree) as single:
            torus._require_divergence_free(fields[alone.index(False)])
        assert str(raised.value) == str(single.value)

    def test_stack_modes_list_each_elements_coefficient(self):
        f, g = TrigFunction({(1, 0, COS): 2.0}), TrigFunction({(0, 1, SIN): -1.5, (0, 0, COS): 0.25})
        assert stack([f, g]).modes == {(0, 0, COS): [0.0, 0.25], (0, 1, SIN): [0.0, -1.5],
                                       (1, 0, COS): [2.0, 0.0]}


@pytest.mark.parametrize("selector,products", [("mhd", 10), ("passive-scalar", 7), ("compressible", 9)])
def test_band2_numerator_makes_one_product_per_torus_operator(monkeypatch, selector, products):
    backend = TestStackedEvaluation.BACKENDS[selector]()
    planes = sample_planes(backend, 3, 3, band=2)
    calls = []
    original = torus.multiply

    def counted(f, g):
        calls.append(1)
        return original(f, g)

    monkeypatch.setattr(torus, "multiply", counted)
    for x, y in ((planes[0].x, planes[0].y), (stack([p.x for p in planes]), stack([p.y for p in planes]))):
        calls.clear()
        curvature_numerator_semidirect(backend, x, y)
        assert len(calls) == products


@pytest.mark.parametrize("selector", list(TestStackedEvaluation.BACKENDS))
def test_connection_oracle_matches_both_numerators(selector):
    backend = TestStackedEvaluation.BACKENDS[selector]()
    for band in (1, 2):
        planes = sample_planes(backend, 23, 3, band=band)
        x, y = stack([p.x for p in planes]), stack([p.y for p in planes])
        routes = [curvature_numerator_generic(backend, x, y).numerator]
        if isinstance(backend, SemidirectBackendBase):
            routes.append(curvature_numerator_semidirect(backend, x, y).numerator)
        stacked = oracle_curvature(backend, x, y)
        assert stacked.shape == (3,)
        for i, plane in enumerate(planes):
            alone = oracle_curvature(backend, plane.x, plane.y)
            assert type(alone) is float
            for value in (alone, stacked[i]):
                for route in routes:
                    assert relerr(value, route[i]) <= 1e-13, (band, i)


@pytest.mark.parametrize("backend", [torus.VolumeFieldBackend(), torus.FullFieldBackend(),
                                     torus.FunctionSpaceBackend(), torus.FieldRepSpaceBackend()],
                         ids=lambda b: b.name)
def test_norm_of_one_element_and_of_a_stack(backend):
    rng = rng_for_seed(19)
    elements = [random_element(rng, backend.sample_basis(band)) for band in (1, 2, 2)]
    # and a multiple of the first whose squared norm is one of the rare doubles
    # (about 1 in 1200) whose x ** 0.5 is an ulp off its correctly rounded sqrt
    multiples = (elements[0] * (1.0 + i * 2.0 ** -40) for i in range(1, 100_000))
    squares = ((e, backend.inner(e, e)) for e in multiples)
    elements.append(next(e for e, sq in squares if sq ** 0.5 != math.sqrt(sq)))
    alone = [backend.norm(e) for e in elements]
    assert all(type(v) is float and v > 0.0 for v in alone)
    stacked = backend.norm(stack(elements))
    assert stacked.shape == (4,)
    assert [v.hex() for v in stacked.tolist()] == [v.hex() for v in alone]
    assert backend.norm(backend.zero()) == 0.0


def test_norm_from_square_rounds_one_value_as_a_stack():
    # float ** 0.5 rounds this square's root down by one ulp; sqrt rounds it correctly
    sq = 0.37623850142809423
    assert norm_from_square(sq) == 0.6133828343115695
    assert norm_from_square(np.array([sq])).tolist() == [0.6133828343115695]


def test_one_element_is_not_a_stack():
    f = TrigFunction.mode(COS, (1, 1))
    for element in (f, grad(f), Pair(f, grad(f))):
        with pytest.raises(TypeError):
            list(element)
    assert [e.c.tolist() for e in stack([f, f])] == [f.c.tolist()] * 2


@pytest.mark.parametrize("modes", ["function_modes", "divergence_free_modes", "full_field_modes"])
@pytest.mark.parametrize("band", [0, 1, 3])
def test_mode_basis_elements_match_mode_by_mode_construction(modes, band):
    backend = {"function_modes": torus.FunctionSpaceBackend,
               "divergence_free_modes": torus.VolumeFieldBackend,
               "full_field_modes": torus.FullFieldBackend}[modes]()
    basis, expected = getattr(torus, modes)(band), reference_modes(backend, band)
    assert len(basis) == len(expected)
    built, reference = basis.combine(np.eye(len(basis))), stack(expected)
    assert type(built) is type(reference) and built.c.shape == reference.c.shape
    assert [v.hex() for v in built.c.view(float).ravel().tolist()] == \
        [v.hex() for v in reference.c.view(float).ravel().tolist()]


@pytest.mark.parametrize("selector,legs", [("mhd", 4), ("passive-scalar", 2)])
def test_numerator_checks_each_divergence_free_leg_once(monkeypatch, selector, legs):
    backend = TestStackedEvaluation.BACKENDS[selector]()
    planes = sample_planes(backend, 3, 3, band=2)
    checked = []
    original = TrigVectorField.is_divergence_free
    monkeypatch.setattr(TrigVectorField, "is_divergence_free",
                        lambda self, *a: checked.append(self) or original(self, *a))
    for count, x, y in ((1, planes[0].x, planes[0].y),
                        (3, stack([p.x for p in planes]), stack([p.y for p in planes]))):
        checked.clear()
        curvature_numerator_semidirect(backend, x, y)
        assert len(checked) == len(set(map(id, checked))) == legs
        assert sum(math.prod(f.c.shape[:-3]) for f in checked) == legs * count  # fields checked


def test_numerator_names_the_divergent_leg():
    backend = torus.MhdBackend()
    good = random_divfree_field(rng_for_seed(43), band=2)
    bad = good + TrigVectorField(TrigFunction.mode(COS, (1, 0), 0.5), TrigFunction.zero())
    with pytest.raises(NotDivergenceFree) as alone:
        torus._require_divergence_free(bad)
    for p1, p2 in ((Pair(bad, good), Pair(good, good)), (Pair(good, good), Pair(good, bad))):
        with pytest.raises(NotDivergenceFree) as raised:
            curvature_numerator_semidirect(backend, p1, p2)
        assert str(raised.value) == str(alone.value)


@pytest.mark.parametrize("kind", [TrigFunction, TrigVectorField])
def test_scaling_a_stack_has_the_bits_of_each_element_alone(kind):
    rng = rng_for_seed(47)
    basis = (function_modes if kind is TrigFunction else divergence_free_modes)(2)
    elements = basis.combine(rng.standard_normal((4, len(basis))))
    elements = stack([elements[0], -elements[1], elements[2], 0.0 * elements[3]])
    for s in ([0.5, -3.0, 1e-300, 2.0], [0.0, -1.5, -0.0, 7.0], [0.0, -0.0, 0.0, 0.0]):
        scaled = elements.scaled(np.array(s))
        for i, si in enumerate(s):
            alone = float(si) * elements[i]
            # a zero element alone is on the one-cell grid, in a stack +0 cells that embed it
            assert _hex(torus._embed(alone.c, scaled.c.shape[-1] // 2)) == _hex(scaled[i].c)
        assert (scaled.c.shape[-1] == 1) == all(si == 0.0 for si in s)
