"""Curvature evaluators for right-invariant metrics.

Three routes to the curvature numerator <R(X,Y)Y,X> are implemented and
cross-checked against each other.  Each takes single planes or stacks of
planes (one call for all of them), on every backend:

* the generic five-term expression in the right trivialization, valid on any
  metric-algebra backend;
* the expanded semidirect-product form, evaluated term by term with one
  labeled entry per displayed summand;
* a brute-force oracle that composes the constant-section covariant
  derivative Gamma(x, y) = (ad(x)^T y + ad(y)^T x - ad(x) y) / 2 as

      R(x, y) z = Gamma(x, Gamma(y, z)) - Gamma(y, Gamma(x, z))
                  - Gamma(B(x, y), z),      B(x, y) = -[x, y],

  where the sign of B (the bracket of right-invariant fields relative to the
  algebra bracket) is fixed globally by requiring agreement with the
  five-term formula; see ``ORACLE_BRACKET_SIGN``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import broadcast_to, per_element, stack
from .errors import DegeneratePlane, NotIsometric
from .semidirect import finite_dimensional

#: Sign of the field bracket relative to the algebra bracket inside the
#: oracle's composition.  -1 reproduces the five-term formula (checked in the
#: test suite on so(3) and on seeded random algebras).
ORACLE_BRACKET_SIGN = -1.0

#: Relative tolerance below which a plane is considered degenerate.
PLANE_DEGENERACY_TOL = 1e-12

GENERIC_TERM_LABELS = (
    "adt_sym_sq",
    "bracket_sq",
    "adt_diag",
    "adt_xy_bracket",
    "adt_yx_bracket",
)

SEMIDIRECT_TERM_LABELS = (
    "curv_g",
    "curv_h",
    "h_sym_sq",
    "h_diag",
    "h_sym_ad_g",
    "h11_ad_g22",
    "h22_ad_g11",
    "bt_sym_sq",
    "b_skew_sq",
    "bt_diag",
    "bt_b_diag",
    "bt_b_cross",
    "bt_b_same",
    "adt_h11_bt22",
    "adt_h22_bt11",
    "adt_h12_mix",
    "adt_h21_mix",
    "ad_h12_mix",
)


@dataclass(frozen=True)
class Plane:
    """Two elements spanning a candidate two-dimensional plane."""

    x: object
    y: object


@dataclass
class CurvatureBreakdown:
    """Curvature numerator with its per-term decomposition.

    ``numerator`` is <R(X,Y)Y,X>, ``denominator`` the plane Gram determinant
    |X|^2 |Y|^2 - <X,Y>^2, and ``sectional`` their quotient (nan when the
    plane is degenerate).  ``terms`` lists the labeled summands in display
    order; they add up to the numerator.  For a stack of planes every value
    is an array over the stack.
    """

    numerator: float
    denominator: float
    sectional: float
    terms: list[tuple[str, float]]


def _plane_gram(backend, x, y):
    """Plane Gram determinant |X|^2 |Y|^2 - <X,Y>^2, and whether it is above
    ``PLANE_DEGENERACY_TOL`` relative to |X|^2 |Y|^2 (False means the plane is
    degenerate)."""
    xx, yy, xy = backend.inner(x, x), backend.inner(y, y), backend.inner(x, y)
    denom = xx * yy - xy * xy  # overflows to inf or nan, where xy ** 2 would raise
    return denom, denom > PLANE_DEGENERACY_TOL * np.maximum(xx * yy, 0.0)


def plane_denominator(backend, x, y) -> float:
    """Plane Gram determinant; raises DegeneratePlane when the plane is degenerate."""
    denom, spans = _plane_gram(backend, x, y)
    if not spans:
        raise DegeneratePlane(f"plane Gram determinant {denom:.3e} below tolerance")
    return denom


def _plane_stack(backend, x, y):
    """The legs broadcast to the planes' stack shape (the parts of a leg may be
    stacks of different shapes, or one element), the plane Gram and that shape."""
    gram = _plane_gram(backend, x, y)
    shape = np.shape(gram[0])
    return broadcast_to(x, shape), broadcast_to(y, shape), gram, shape


def _finish(gram, terms) -> CurvatureBreakdown:
    numerator = sum(v for _, v in terms)
    denominator, spans = gram
    with np.errstate(divide="ignore", invalid="ignore"):
        sec = np.where(spans, np.divide(numerator, denominator), np.nan)

    def out(v):  # on a stack, an abelian factor's terms are the scalar 0.0
        return per_element(np.broadcast_to(v, sec.shape))

    return CurvatureBreakdown(out(numerator), out(denominator), out(sec),
                              [(label, out(v)) for label, v in terms])


def _five_terms(inner, atxy, atyx, adxy, adyx, atxx, atyy) -> list:
    """The five summands of the generic numerator from ad(X)^T Y, ad(Y)^T X,
    ad(X) Y, ad(Y) X, ad(X)^T X and ad(Y)^T Y, in display order."""
    sym = atxy + atyx
    return [
        0.25 * inner(sym, sym),
        -0.75 * inner(adxy, adxy),
        -inner(atxx, atyy),
        -0.5 * inner(atxy, adxy),
        -0.5 * inner(atyx, adyx),
    ]


def _pair_stacks(dense: bool, a, b):
    """Operands for the leg pairs (a, b), (b, a), (a, a), (b, b): the left and right
    operands of one call, the leading shape of its result, which holds the four in that
    order (``_split``), and the operands of the first two pairs alone.

    Dense legs stack as [a, b] against [[b, a], [a, b]]: broadcasting pairs each left leg
    with both its right legs, so the first product of ``algebra.bilinear`` forms each
    distinct left leg once.  Torus products are formed per operand pair whatever the
    layout, so torus legs keep the flat stacks [a, b, a, b] and [b, a, a, b]."""
    if dense:
        ab, ba = stack([a, b]), stack([b, a])
        return ab, stack([ba, ab]), (2, 2), (ab, ba)
    left, right = stack([a, b, a, b]), stack([b, a, a, b])
    return left, right, (4,), (left[:2], right[:2])


def _split(out, lead: tuple, shape: tuple) -> list:
    """The results along the leading axes ``lead`` of a result over stacked operands, in
    C order, each over the planes' stack shape ``shape``.  An unstacked result (an abelian
    factor's zero) is broadcast to that stack first."""
    out = broadcast_to(out, lead + shape)
    return [out[i] for i in np.ndindex(lead)]


def curvature_numerator_generic(backend, x, y) -> CurvatureBreakdown:
    """Five-term curvature numerator in the right trivialization.

    <R(X,Y)Y,X> = 1/4 |ad(X)^T Y + ad(Y)^T X|^2 - 3/4 |ad(X) Y|^2
                  - <ad(X)^T X, ad(Y)^T Y>
                  - 1/2 <ad(X)^T Y, ad(X) Y> - 1/2 <ad(Y)^T X, ad(Y) X>.
    """
    x, y, gram, shape = _plane_stack(backend, x, y)
    xs, xr, lead, pairs = _pair_stacks(finite_dimensional(backend), x, y)
    atxy, atyx, atxx, atyy = _split(backend.ad_transpose(xs, xr), lead, shape)
    adxy, adyx = _split(backend.bracket(*pairs), (2,), shape)
    values = _five_terms(backend.inner, atxy, atyx, adxy, adyx, atxx, atyy)
    return _finish(gram, list(zip(GENERIC_TERM_LABELS, values)))


def sectional(backend, plane: Plane) -> float:
    """Sectional curvature K = numerator / (|X|^2 |Y|^2 - <X,Y>^2)."""
    denom = plane_denominator(backend, plane.x, plane.y)
    return curvature_numerator_generic(backend, plane.x, plane.y).numerator / denom


def curvature_numerator_semidirect(sd, p1, p2) -> CurvatureBreakdown:
    """Expanded curvature numerator on a semidirect product backend.

    Evaluates the closed-form expansion summand by summand (labels in
    display order); the total equals the generic formula applied to the
    assembled product algebra.
    """
    p1, p2, gram, shape = _plane_stack(sd, p1, p2)
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    g, h = sd.g, sd.h
    gi, hi = g.inner, h.inner

    # one call per operator on stacked operands, the stacks that the factors'
    # five-term numerators take, so curv_g and curv_h get their bits.  h_map
    # comes first: on MHD it checks the y legs for divergence before
    # g.ad_transpose checks the x legs, which fixes the field an error names.
    # g.bracket comes before h.bracket and h.ad_transpose: on an abelian h those
    # allocate zeros, which between two contractions moved the next one's
    # intermediate to cold memory (a dense magnetic numerator over 100 planes
    # took 3.8 ms, not 2.6).
    dense = finite_dimensional(sd)
    xs, xr, lead, xpairs = _pair_stacks(dense, x1, x2)
    ys, yr, _, ypairs = _pair_stacks(dense, y1, y2)
    h12, h21, h11, h22 = _split(sd.h_map(ys, yr), lead, shape)
    at12, at21, at11, at22 = _split(g.ad_transpose(xs, xr), lead, shape)
    b1y2, b2y1, b1y1, b2y2 = _split(sd.b(xs, yr), lead, shape)
    b1t2, b2t1, b1t1, b2t2 = _split(sd.b_transpose(xs, yr), lead, shape)
    gbr12, gbr21 = _split(g.bracket(*xpairs), (2,), shape)
    hbr12, hbr21 = _split(h.bracket(*ypairs), (2,), shape)
    hat12, hat21, hat11, hat22 = _split(h.ad_transpose(ys, yr), lead, shape)

    hsym = h12 + h21
    btsym = b1t2 + b2t1
    bskew = b1y2 - b2y1

    values = (
        sum(_five_terms(gi, at12, at21, gbr12, gbr21, at11, at22)),
        sum(_five_terms(hi, hat12, hat21, hbr12, hbr21, hat11, hat22)),
        0.25 * gi(hsym, hsym),
        -gi(h11, h22),
        -0.5 * gi(hsym, at12 + at21),
        gi(h11, at22),
        gi(h22, at11),
        0.25 * hi(btsym, btsym),
        -0.75 * hi(bskew, bskew),
        -hi(b1t1, b2t2),
        -0.5 * hi(b1t1, b2y2) - 0.5 * hi(b2t2, b1y1),
        hi(b1t2, b2y1) + hi(b2t1, b1y2),
        -0.5 * hi(b1t2, b1y2) - 0.5 * hi(b2t1, b2y1),
        -hi(hat11, b2t2),
        -hi(hat22, b1t1),
        0.5 * hi(hat12, btsym - b1y2 + b2y1),
        0.5 * hi(hat21, btsym - b2y1 + b1y2),
        -0.5 * hi(hbr12, b1t2 - b2t1 + 3.0 * b1y2 - 3.0 * b2y1),
    )
    return _finish(gram, list(zip(SEMIDIRECT_TERM_LABELS, values)))


def special_plane(sd, case: str, first, second) -> float:
    """Closed-form curvature numerator for the three special plane families.

    ``gg``: plane spanned by (X1, 0), (X2, 0) -> curvature of g alone.
    ``gh``: plane spanned by (X, 0), (0, Y) ->
        <h(Y,Y), ad(X)^T X> - 1/4 |(b(X) + b(X)^T) Y|^2
        + 1/2 |b(X)^T Y|^2 - 1/2 |b(X) Y|^2.
    ``hh``: plane spanned by (0, Y1), (0, Y2) -> curvature of h plus
        1/4 |h(Y1,Y2) + h(Y2,Y1)|^2 - <h(Y1,Y1), h(Y2,Y2)>.
    """
    case = case.lower()
    if case == "gg":
        return curvature_numerator_generic(sd.g, first, second).numerator
    if case == "gh":
        x, y = first, second
        bxy = sd.b(x, y)
        btxy = sd.b_transpose(x, y)
        mix = bxy + btxy
        return float(
            sd.g.inner(sd.h_map(y, y), sd.g.ad_transpose(x, x))
            - 0.25 * sd.h.inner(mix, mix)
            + 0.5 * sd.h.inner(btxy, btxy)
            - 0.5 * sd.h.inner(bxy, bxy)
        )
    if case == "hh":
        y1, y2 = first, second
        hsym = sd.h_map(y1, y2) + sd.h_map(y2, y1)
        return float(
            curvature_numerator_generic(sd.h, y1, y2).numerator
            + 0.25 * sd.g.inner(hsym, hsym)
            - sd.g.inner(sd.h_map(y1, y1), sd.h_map(y2, y2))
        )
    raise ValueError(f"unknown special plane case {case!r} (expected gg, gh or hh)")


def isometric_sum(sd, p1, p2) -> float:
    """Curvature numerator as the sum of the factor curvatures (isometric case)."""
    if not sd.isometric:
        raise NotIsometric(f"{getattr(sd, 'name', 'backend')} action is not skew-adjoint")
    return (
        curvature_numerator_generic(sd.g, p1.x, p2.x).numerator
        + curvature_numerator_generic(sd.h, p1.y, p2.y).numerator
    )


def covariant_derivative(backend, x, y):
    """Constant-section covariant derivative Gamma(x, y)."""
    return 0.5 * (backend.ad_transpose(x, y) + backend.ad_transpose(y, x) - backend.bracket(x, y))


def oracle_curvature(backend, x, y):
    """Brute-force curvature numerator by composing the connection.

    Independent of the five-term formula: only ``covariant_derivative`` and
    the bracket enter.  Any backend; one value per element of a stack of
    planes (a Python float for one plane).
    """
    def gamma(a, b):
        return covariant_derivative(backend, a, b)

    field_bracket = ORACLE_BRACKET_SIGN * backend.bracket(x, y)
    r_xyy = gamma(x, gamma(y, y)) - gamma(y, gamma(x, y)) - gamma(field_bracket, y)
    return backend.inner(r_xyy, x)
