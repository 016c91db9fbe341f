"""Per-coefficient error certificates of the torus calculus against exact rationals.

Each cell of a product grid is a sum of T complex products of input
coefficients.  Formed in floating point, in any order, it lies within
sqrt(2) gamma_{T+2} (|a| * |b|) of the exact sum (``helpers.product_certificate``).
The Leray projection and ``ad_transpose_vol`` carry such bounds through a few
more rounded operations per cell (``helpers.leray_certificate`` and
``helpers.ad_transpose_vol_ratios``).  The exact values come from
``fractions.Fraction`` arithmetic, so these tests bound how far every
coefficient of an output may be from the exact one, also on grids whose
products cancel, where a tolerance relative to the coefficient scale says
little.
"""

import pytest

from helpers import (
    ad_transpose_vol_ratios,
    certificate_ratios,
    exact_convolution,
    leray_ratios,
    modulus_convolution,
    random_function,
)

from liecurv import torus
from liecurv.backend import stack
from liecurv.sampling import rng_for_seed
from liecurv.torus import COS, SIN, TrigFunction, TrigVectorField, ad_transpose_vol, leray_project, multiply


def assert_certified(got: TrigFunction, f: TrigFunction, g: TrigFunction):
    ratios = certificate_ratios(got.c, f.c, g.c)
    assert ratios.max() <= 1.0


#: (band of f, band of g, cap): 25 terms a cell, 65 in one matrix product, 81 in
#: two and, capped at 6, 169 in three
RANDOM_CASES = {"band 2": (2, 2, None), "band 2 by band 6": (2, 6, None),
                "band 4": (4, 4, None), "cap 6": (6, 6, 6)}


class TestProductCertificate:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("case", RANDOM_CASES)
    def test_random_grids(self, case, seed):
        band_f, band_g, cap = RANDOM_CASES[case]
        rng = rng_for_seed(seed)
        f, g = random_function(rng, band_f), random_function(rng, band_g)
        assert_certified(torus._product(f, g, cap), f, g)

    @pytest.mark.parametrize("cap", [None, 3], ids=["uncapped", "cap 3"])
    def test_stacks(self, cap):
        # the third element leaves out rows and columns that the others hold
        rng = rng_for_seed(3)
        fs = stack([random_function(rng, 2), random_function(rng, 2), random_function(rng, 1)])
        gs = stack([random_function(rng, 4), random_function(rng, 4), random_function(rng, 2)])
        products = torus._product(fs, gs, cap)
        for i in range(3):
            assert_certified(products[i], fs[i], gs[i])

    def test_cancellation(self):
        # with F = sum_k alpha_k exp(i k.x) over 1 <= k1 <= 4, |k2| <= 4, the product
        # Im F Re F = Im(F^2) / 2 has no mode with |k1| <= 1: there the 72-term
        # sums of f g cancel to exact zeros
        rng = rng_for_seed(5)
        ks = [(k1, k2) for k1 in range(1, 5) for k2 in range(-4, 5)]
        alpha = rng.standard_normal(len(ks)).tolist()
        f = TrigFunction({(k1, k2, SIN): a for (k1, k2), a in zip(ks, alpha)})
        g = TrigFunction({(k1, k2, COS): a for (k1, k2), a in zip(ks, alpha)})
        exact_re, exact_im = exact_convolution(f.c, g.c)
        cancelled = (exact_re == 0) & (exact_im == 0) & (modulus_convolution(f.c, g.c) > 0)
        assert cancelled[7:10].all() and cancelled.sum() == 3 * 17
        assert_certified(multiply(f, g), f, g)
        assert_certified(multiply(g, f), g, f)


def divergence_free_field(rng, band: int) -> TrigVectorField:
    """A standard normal combination of the divergence-free modes of the band."""
    basis = torus.divergence_free_modes(band)
    return basis.combine(rng.standard_normal(len(basis)))


class TestFieldCertificates:
    @pytest.mark.parametrize("band", [2, 3])
    def test_leray_projection(self, band):
        rng = rng_for_seed(band)
        fields = [TrigVectorField(random_function(rng, band), random_function(rng, band)) for _ in range(2)]
        grids = leray_project(stack(fields)).c
        for got, x in zip(grids, fields):  # a stack, element by element
            assert leray_ratios(got, x.c).max() <= 1.0

    @pytest.mark.parametrize("cap", [None, 3], ids=["uncapped", "cap 3"])
    @pytest.mark.parametrize("band", [2, 3])
    def test_ad_transpose_vol_on_both_paths(self, band, cap):
        x = divergence_free_field(rng_for_seed(10 + band), band)
        copy = TrigVectorField._of(x.c.copy())
        for y, diagonal in ((x, True), (copy, False)):
            assert ad_transpose_vol_ratios(ad_transpose_vol(x, y, cap).c, x.c, diagonal).max() <= 1.0

    @pytest.mark.parametrize("cap", [None, 3], ids=["uncapped", "cap 3"])
    def test_ad_transpose_vol_on_a_stack(self, cap):
        rng = rng_for_seed(17)
        x = stack([divergence_free_field(rng, band) for band in (2, 2, 1)])
        copy = TrigVectorField._of(x.c.copy())
        for y, diagonal in ((x, True), (copy, False)):
            grids = ad_transpose_vol(x, y, cap).c
            for i in range(3):
                assert ad_transpose_vol_ratios(grids[i], x.c[i], diagonal).max() <= 1.0
