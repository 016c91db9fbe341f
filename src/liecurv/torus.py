"""Exact calculus on finitely supported trigonometric fields on the flat 2-torus.

Functions are finite sums of cos(k.x) and sin(k.x) over integer wavevectors
k, stored in canonical form: k lexicographically positive (first nonzero
component > 0), sin(0,0) forbidden.  Products use product-to-sum identities,
derivatives act mode by mode, and the L^2 metric on [0, 2pi)^2 is diagonal on
canonical modes (|1|^2 = 4 pi^2, |cos k|^2 = |sin k|^2 = 2 pi^2).

Three semidirect backends are provided on top of this calculus:

* volume-preserving fields acting on functions (passive scalar transport),
* all vector fields acting on functions (compressible form),
* the magnetic extension of the volume-preserving fields (ideal MHD).

The algebra bracket on field backends is minus the Jacobi-Lie bracket of
vector fields (the right-invariant convention); with that orientation the
adjoint of ad(X) on divergence-free fields is P(nabla_X Y + (grad X)^T Y),
which the test suite verifies directly against the L^2 pairing.
"""

from __future__ import annotations

import math

import numpy as np

from .backend import Pair, SemidirectBackendBase
from .errors import NonFiniteState, NotDivergenceFree

COS, SIN = "cos", "sin"

_TWO_PI_SQ = 2.0 * math.pi**2
_FOUR_PI_SQ = 4.0 * math.pi**2


def _canonical(k1: int, k2: int, parity: str, coeff: float):
    """Fold a raw mode onto its canonical representative (or None if it vanishes)."""
    if k1 == 0 and k2 == 0:
        return ((0, 0, COS), coeff) if parity == COS else None
    if k1 > 0 or (k1 == 0 and k2 > 0):
        return ((k1, k2, parity), coeff)
    return ((-k1, -k2, parity), coeff if parity == COS else -coeff)


class TrigFunction:
    """Finitely supported trigonometric polynomial; immutable."""

    __slots__ = ("modes",)

    def __init__(self, modes=None):
        folded: dict = {}
        if modes:
            for (k1, k2, parity), coeff in modes.items():
                if parity not in (COS, SIN):
                    raise ValueError(f"parity must be {COS!r} or {SIN!r}, got {parity!r}")
                entry = _canonical(int(k1), int(k2), parity, float(coeff))
                if entry is not None:
                    key, val = entry
                    folded[key] = folded.get(key, 0.0) + val
        self.modes = {key: val for key, val in folded.items() if val != 0.0}

    @classmethod
    def _of(cls, modes: dict) -> "TrigFunction":
        """Wrap a dict of canonical modes as it is, without folding or copying it."""
        result = cls.__new__(cls)
        result.modes = modes
        return result

    @classmethod
    def zero(cls) -> "TrigFunction":
        return cls()

    @classmethod
    def constant(cls, value: float) -> "TrigFunction":
        return cls({(0, 0, COS): value})

    @classmethod
    def mode(cls, parity: str, k, coeff: float = 1.0) -> "TrigFunction":
        return cls({(k[0], k[1], parity): coeff})

    def __add__(self, other):
        out = dict(self.modes)
        for key, val in other.modes.items():
            out[key] = out.get(key, 0.0) + val
        return TrigFunction._of({k: v for k, v in out.items() if v != 0.0})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TrigFunction._of({k: -v for k, v in self.modes.items()})

    def __mul__(self, scalar):
        scalar = float(scalar)
        if scalar == 0.0:
            return TrigFunction()
        return TrigFunction._of({k: scalar * v for k, v in self.modes.items()})

    __rmul__ = __mul__

    def partial(self, axis: int) -> "TrigFunction":
        """Exact partial derivative along coordinate axis 0 or 1."""
        out: dict = {}
        for (k1, k2, parity), coeff in self.modes.items():
            ki = (k1, k2)[axis]
            if ki == 0:
                continue
            if parity == COS:
                key, val = (k1, k2, SIN), -ki * coeff
            else:
                key, val = (k1, k2, COS), ki * coeff
            out[key] = out.get(key, 0.0) + val
        return TrigFunction._of({k: v for k, v in out.items() if v != 0.0})

    def max_wavenumber(self) -> int:
        return max((max(abs(k1), abs(k2)) for (k1, k2, _p) in self.modes), default=0)

    def truncated(self, cap: int) -> "TrigFunction":
        return TrigFunction._of({
            (k1, k2, p): v for (k1, k2, p), v in self.modes.items()
            if max(abs(k1), abs(k2)) <= cap
        })

    def coefficient_scale(self) -> float:
        return max((abs(v) for v in self.modes.values()), default=0.0)

    def sample(self, x1, x2):
        """Pointwise values at numpy coordinate arrays (exact summation)."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        total = np.zeros(np.broadcast(x1, x2).shape)
        for (k1, k2, parity), coeff in self.modes.items():
            phase = k1 * x1 + k2 * x2
            total = total + coeff * (np.cos(phase) if parity == COS else np.sin(phase))
        return total

    def __repr__(self):
        if not self.modes:
            return "TrigFunction(0)"
        bits = [f"{v:+g}*{p}({k1},{k2})" for (k1, k2, p), v in sorted(self.modes.items())]
        return "TrigFunction(" + " ".join(bits) + ")"


#: Mode pairs per block of the product kernel.  Blocks bound its temporaries
#: (a few hundred kB) whatever the operand sizes.
_PAIR_BLOCK = 4096
#: Largest accumulator indexed directly by cell code.  Sparse operands whose
#: products spread over a larger grid index a sorted table of the cells hit.
_GRID_CELLS = 1 << 16


def _mode_arrays(f: TrigFunction):
    """Modes of f in dict order: (k1s, k2s), (max |k1|, max |k2|), is_sin, coeff."""
    k1, k2, parity = zip(*f.modes)
    coeff = np.fromiter(f.modes.values(), float, len(f.modes))
    return (k1, k2), (max(map(abs, k1)), max(map(abs, k2))), np.array(parity) == SIN, coeff


def multiply(f: TrigFunction, g: TrigFunction) -> TrigFunction:
    """Exact product via product-to-sum identities; support adds.

    Bit-identical to looping over f's modes, then g's, putting both identity
    terms of each pair into a dict after folding them to canonical form: each
    output coefficient adds its terms in that order starting from 0.0, and
    the modes come out in the order the loop first touches them.  Cell
    (k1, k2, parity) has code 2 |k1 w + k2| + is_sin, w = 2 max|k2| + 1; the
    sign of k1 w + k2 is the lexicographic sign of k, so the fold is abs().
    """
    if not f.modes or not g.modes:
        return TrigFunction()
    ka, reach_a, a_sin, ca = _mode_arrays(f)
    kb, reach_b, b_sin, cb = _mode_arrays(g)
    reach2 = reach_a[1] + reach_b[1]
    width = 2 * reach2 + 1
    n_grid = 2 * ((reach_a[0] + reach_b[0]) * width + reach2 + 1)
    # Python ints (object arrays) only where int64 cell codes could overflow
    dtype = np.int64 if n_grid < 2**62 else object
    la = np.array(ka[0], dtype) * width + np.array(ka[1], dtype)
    lb = np.array(kb[0], dtype) * width + np.array(kb[1], dtype)
    half_ca = 0.5 * ca
    ng = len(lb)
    rows = max(1, _PAIR_BLOCK // ng)
    blocks = [(lo, min(lo + rows, len(la))) for lo in range(0, len(la), rows)]

    def terms(lo, hi):
        """Cell codes and values of both terms of each pair in f rows lo:hi."""
        # cos.cos, sin.sin -> cos(a - b), cos(a + b); sin.cos, cos.sin -> sin(a + b), sin(a - b)
        mixed = a_sin[lo:hi, None] ^ b_sin
        sb = np.where(mixed, -lb, lb)
        lin = np.empty((hi - lo, ng, 2), dtype)
        np.subtract(la[lo:hi, None], sb, out=lin[..., 0])
        np.add(la[lo:hi, None], sb, out=lin[..., 1])
        c = half_ca[lo:hi, None] * cb
        val = np.empty((hi - lo, ng, 2))
        val[..., 0] = c
        val[..., 1] = np.where(b_sin, -c, c)
        mixed = mixed[..., None]
        np.negative(val, out=val, where=(lin < 0) & mixed)
        cell = np.abs(lin, out=lin)
        cell *= 2
        cell += mixed
        return cell.ravel(), val.ravel()

    # Python float arithmetic never warns; inf and nan propagate silently here too
    with np.errstate(over="ignore", invalid="ignore"):
        if n_grid <= _GRID_CELLS:
            table = None
            cells = np.arange(n_grid)
        else:
            hit = [np.unique(terms(lo, hi)[0]) for lo, hi in blocks]
            table = cells = np.unique(np.concatenate(hit))
        acc = np.zeros(len(cells))
        first = np.full(len(cells), 2 * len(la) * ng)
        # ufunc.at is unbuffered and applies its indices in order, like the loop
        for lo, hi in blocks:
            cell, val = terms(lo, hi)
            slot = cell if table is None else np.searchsorted(table, cell)
            np.add.at(acc, slot, val)
            np.minimum.at(first, slot, np.arange(2 * ng * lo, 2 * ng * hi))
    # cell 1 is sin(0,0), which vanishes
    keep = np.flatnonzero((acc != 0.0) & (cells != 1))
    keep = keep[np.argsort(first[keep])]
    lin = cells[keep] >> 1
    k1 = (lin + reach2) // width
    k2 = lin - k1 * width
    parity = [(COS, SIN)[s] for s in (cells[keep] & 1).tolist()]
    # tolist(): Python ints and floats, as TrigFunction stores everywhere else
    return TrigFunction._of(dict(zip(zip(k1.tolist(), k2.tolist(), parity), acc[keep].tolist())))


def function_inner(f: TrigFunction, g: TrigFunction) -> float:
    """L^2 inner product over [0, 2pi)^2 with the bare volume form."""
    total = 0.0
    small, large = (f.modes, g.modes) if len(f.modes) <= len(g.modes) else (g.modes, f.modes)
    for key, val in small.items():
        other = large.get(key)
        if other is not None:
            weight = _FOUR_PI_SQ if key == (0, 0, COS) else _TWO_PI_SQ
            total += weight * val * other
    return total


class TrigVectorField:
    """Vector field on the flat torus with trigonometric components."""

    __slots__ = ("comp1", "comp2")

    def __init__(self, comp1: TrigFunction, comp2: TrigFunction):
        self.comp1 = comp1
        self.comp2 = comp2

    @classmethod
    def zero(cls) -> "TrigVectorField":
        return cls(TrigFunction.zero(), TrigFunction.zero())

    def __add__(self, other):
        return TrigVectorField(self.comp1 + other.comp1, self.comp2 + other.comp2)

    def __sub__(self, other):
        return TrigVectorField(self.comp1 - other.comp1, self.comp2 - other.comp2)

    def __neg__(self):
        return TrigVectorField(-self.comp1, -self.comp2)

    def __mul__(self, scalar):
        return TrigVectorField(self.comp1 * scalar, self.comp2 * scalar)

    __rmul__ = __mul__

    def divergence(self) -> TrigFunction:
        return self.comp1.partial(0) + self.comp2.partial(1)

    def coefficient_scale(self) -> float:
        return max(self.comp1.coefficient_scale(), self.comp2.coefficient_scale())

    def is_divergence_free(self, tol: float = 1e-10) -> bool:
        scale = max(1.0, self.coefficient_scale() * (1.0 + self.max_wavenumber()))
        return self.divergence().coefficient_scale() <= tol * scale

    def max_wavenumber(self) -> int:
        return max(self.comp1.max_wavenumber(), self.comp2.max_wavenumber())

    def truncated(self, cap: int) -> "TrigVectorField":
        return TrigVectorField(self.comp1.truncated(cap), self.comp2.truncated(cap))

    def sample(self, x1, x2):
        return self.comp1.sample(x1, x2), self.comp2.sample(x1, x2)

    def __repr__(self):
        return f"TrigVectorField({self.comp1!r}, {self.comp2!r})"


def field_inner(x: TrigVectorField, y: TrigVectorField) -> float:
    return function_inner(x.comp1, y.comp1) + function_inner(x.comp2, y.comp2)


def grad(f: TrigFunction) -> TrigVectorField:
    return TrigVectorField(f.partial(0), f.partial(1))


def scalar_derivative(x: TrigVectorField, f: TrigFunction) -> TrigFunction:
    """Derivative X(f) of a function along a vector field."""
    return multiply(x.comp1, f.partial(0)) + multiply(x.comp2, f.partial(1))


def directional_derivative(x: TrigVectorField, y: TrigVectorField) -> TrigVectorField:
    """Flat covariant derivative nabla_X Y, componentwise X . grad."""
    return TrigVectorField(scalar_derivative(x, y.comp1), scalar_derivative(x, y.comp2))


def jacobian_transpose_apply(x: TrigVectorField, y: TrigVectorField) -> TrigVectorField:
    """(grad X)^T Y: component i is sum_j (d_i X_j) Y_j."""
    return TrigVectorField(
        multiply(x.comp1.partial(0), y.comp1) + multiply(x.comp2.partial(0), y.comp2),
        multiply(x.comp1.partial(1), y.comp1) + multiply(x.comp2.partial(1), y.comp2),
    )


def scale_field(f: TrigFunction, x: TrigVectorField) -> TrigVectorField:
    """Pointwise product f X."""
    return TrigVectorField(multiply(f, x.comp1), multiply(f, x.comp2))


def jacobi_lie_bracket(x: TrigVectorField, y: TrigVectorField) -> TrigVectorField:
    """Geometric vector-field bracket nabla_X Y - nabla_Y X on the flat torus."""
    return directional_derivative(x, y) - directional_derivative(y, x)


def leray_project(x: TrigVectorField) -> TrigVectorField:
    """Remove the gradient part mode by mode; the constant mode is kept whole."""
    out1: dict = {}
    out2: dict = {}
    # a dict, not a set: its key order, and with it the summation order, is
    # independent of the string hash seed
    for key in {**x.comp1.modes, **x.comp2.modes}:
        k1, k2, _parity = key
        v1 = x.comp1.modes.get(key, 0.0)
        v2 = x.comp2.modes.get(key, 0.0)
        if (k1, k2) != (0, 0):
            coeff = (v1 * k1 + v2 * k2) / float(k1 * k1 + k2 * k2)
            v1 -= coeff * k1
            v2 -= coeff * k2
        if v1 != 0.0:
            out1[key] = v1
        if v2 != 0.0:
            out2[key] = v2
    return TrigVectorField(TrigFunction._of(out1), TrigFunction._of(out2))


def q_project(x: TrigVectorField) -> TrigVectorField:
    """Orthogonal projection onto gradients: identity minus the Leray projection."""
    return x - leray_project(x)


def _require_divergence_free(*fields: TrigVectorField):
    for f in fields:
        if not f.is_divergence_free():
            if not math.isfinite(field_inner(f, f)):
                raise NonFiniteState("field with non-finite L2 norm")
            raise NotDivergenceFree(
                f"field with divergence scale {f.divergence().coefficient_scale():.3e} rejected"
            )


def ad_transpose_vol(x: TrigVectorField, y: TrigVectorField) -> TrigVectorField:
    """Adjoint of ad(X) on divergence-free fields: P(nabla_X Y + (grad X)^T Y)."""
    _require_divergence_free(x, y)
    return leray_project(directional_derivative(x, y) + jacobian_transpose_apply(x, y))


def ad_transpose_full(x: TrigVectorField, y: TrigVectorField) -> TrigVectorField:
    """Adjoint of ad(X) on all fields: nabla_X Y + (div X) Y + (grad X)^T Y."""
    return (
        directional_derivative(x, y)
        + scale_field(x.divergence(), y)
        + jacobian_transpose_apply(x, y)
    )


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


class _FieldBackend:
    """Shared interface bits for vector-field backends."""

    name = "torus fields"

    def zero(self) -> TrigVectorField:
        return TrigVectorField.zero()

    def inner(self, x, y) -> float:
        return field_inner(x, y)

    def norm(self, x) -> float:
        return max(field_inner(x, x), 0.0) ** 0.5

    def bracket(self, x, y) -> TrigVectorField:
        # algebra bracket = minus the Jacobi-Lie bracket (right-invariant convention)
        return -jacobi_lie_bracket(x, y)


class VolumeFieldBackend(_FieldBackend):
    """Divergence-free trigonometric fields with the L^2 metric."""

    name = "torus-vol"

    def ad_transpose(self, x, y) -> TrigVectorField:
        return ad_transpose_vol(x, y)

    def sample_basis(self, band: int = 2):
        return divergence_free_modes(band)


class FullFieldBackend(_FieldBackend):
    """All trigonometric fields with the L^2 metric."""

    name = "torus-full"

    def ad_transpose(self, x, y) -> TrigVectorField:
        return ad_transpose_full(x, y)

    def sample_basis(self, band: int = 2):
        return full_field_modes(band)


class FunctionSpaceBackend:
    """Abelian algebra of trigonometric functions with the L^2 metric."""

    name = "torus functions"

    def zero(self) -> TrigFunction:
        return TrigFunction.zero()

    def inner(self, f, g) -> float:
        return function_inner(f, g)

    def norm(self, f) -> float:
        return max(function_inner(f, f), 0.0) ** 0.5

    def bracket(self, f, g) -> TrigFunction:
        return TrigFunction.zero()

    def ad_transpose(self, f, g) -> TrigFunction:
        return TrigFunction.zero()

    def sample_basis(self, band: int = 2):
        return function_modes(band)


class FieldRepSpaceBackend:
    """Abelian space of divergence-free representatives (magnetic dual factor)."""

    name = "torus field representatives"

    def zero(self) -> TrigVectorField:
        return TrigVectorField.zero()

    def inner(self, x, y) -> float:
        return field_inner(x, y)

    def norm(self, x) -> float:
        return max(field_inner(x, x), 0.0) ** 0.5

    def bracket(self, x, y) -> TrigVectorField:
        return TrigVectorField.zero()

    def ad_transpose(self, x, y) -> TrigVectorField:
        return TrigVectorField.zero()

    def sample_basis(self, band: int = 2):
        return divergence_free_modes(band)


class PassiveScalarBackend(SemidirectBackendBase):
    """Volume-preserving fields acting on functions: b(X) f = -X(f).

    The action is isometric (b^T = -b), so h_map is skew-symmetric and
    h_map(f, f) projects to zero.
    """

    name = "passive-scalar"
    isometric = True

    def __init__(self):
        self.g = VolumeFieldBackend()
        self.h = FunctionSpaceBackend()

    def b(self, x, f) -> TrigFunction:
        return -scalar_derivative(x, f)

    def b_transpose(self, x, f) -> TrigFunction:
        return scalar_derivative(x, f)

    def h_map(self, f1, f2) -> TrigVectorField:
        return -leray_project(scale_field(f2, grad(f1)))


class CompressibleScalarBackend(SemidirectBackendBase):
    """All vector fields acting on functions; unprojected transposes."""

    name = "compressible"
    isometric = False

    def __init__(self):
        self.g = FullFieldBackend()
        self.h = FunctionSpaceBackend()

    def b(self, x, f) -> TrigFunction:
        return -scalar_derivative(x, f)

    def b_transpose(self, x, f) -> TrigFunction:
        return scalar_derivative(x, f) + multiply(f, x.divergence())

    def h_map(self, f1, f2) -> TrigVectorField:
        return -scale_field(f2, grad(f1))


class MhdBackend(SemidirectBackendBase):
    """Magnetic extension of the volume-preserving fields (ideal MHD carrier).

    Dual elements are represented by their divergence-free preimages under
    the inertia operator, so the coadjoint action reads b(X) Y = -ad(X)^T Y
    with derived b(X)^T Y = -ad(X) Y and h_map(Y1, Y2) = ad(Y2)^T Y1.
    """

    name = "mhd"
    isometric = False

    def __init__(self):
        self.g = VolumeFieldBackend()
        self.h = FieldRepSpaceBackend()

    def b(self, x, y) -> TrigVectorField:
        return -ad_transpose_vol(x, y)

    def b_transpose(self, x, y) -> TrigVectorField:
        return -self.g.bracket(x, y)

    def h_map(self, y1, y2) -> TrigVectorField:
        return ad_transpose_vol(y2, y1)


# ---------------------------------------------------------------------------
# displayed geodesic systems, coded directly from the calculus primitives
# ---------------------------------------------------------------------------


def euler_rhs_direct(u: TrigVectorField) -> TrigVectorField:
    """Incompressible Euler: u_t = -nabla_u u - grad p, pressure via P."""
    _require_divergence_free(u)
    return -leray_project(directional_derivative(u, u))


def passive_scalar_rhs_direct(u: TrigVectorField, f: TrigFunction):
    """Passive transport: u_t = -P(nabla_u u), f_t = -u(f)."""
    return euler_rhs_direct(u), -scalar_derivative(u, f)


def compressible_rhs_direct(u: TrigVectorField, f: TrigFunction):
    """u_t = -nabla_u u - (div u) u - grad g(u,u)/2 - f grad f, f_t = -u(f) - f div u."""
    speed_sq = multiply(u.comp1, u.comp1) + multiply(u.comp2, u.comp2)
    du = (
        -directional_derivative(u, u)
        - scale_field(u.divergence(), u)
        - 0.5 * grad(speed_sq)
        - scale_field(f, grad(f))
    )
    df = -scalar_derivative(u, f) - multiply(f, u.divergence())
    return du, df


def mhd_rhs_direct(u: TrigVectorField, b: TrigVectorField):
    """Ideal MHD: u_t = -nabla_u u + nabla_B B - grad p, B_t = -[u, B].

    The induction bracket is the geometric (Jacobi-Lie) bracket of vector
    fields, spelled out explicitly; the algebra-bracket orientation note in
    the module docstring applies.
    """
    _require_divergence_free(u, b)
    du = leray_project(directional_derivative(b, b) - directional_derivative(u, u))
    db = -jacobi_lie_bracket(u, b)
    return du, db


# ---------------------------------------------------------------------------
# closed-form plane curvature expressions
# ---------------------------------------------------------------------------


def arnold_flat_curvature(x: TrigVectorField, y: TrigVectorField) -> float:
    """Curvature numerator of the volume-preserving group over the flat torus:

    <Q nabla_X X, Q nabla_Y Y> - |Q nabla_X Y|^2  (ambient curvature is zero).
    """
    _require_divergence_free(x, y)
    qxx = q_project(directional_derivative(x, x))
    qyy = q_project(directional_derivative(y, y))
    qxy = q_project(directional_derivative(x, y))
    return field_inner(qxx, qyy) - field_inner(qxy, qxy)


def mhd_mixed_plane(x: TrigVectorField, y: TrigVectorField) -> float:
    """Curvature numerator of the plane spanned by (X, 0) and (0, A(Y)):

    <P nabla_X X, P nabla_Y Y> - |P(nabla_Y X + (grad X)^T Y)|^2 / 4
    + |[X, Y]|^2 / 2 - |P(nabla_X Y + (grad X)^T Y)|^2 / 2.
    """
    _require_divergence_free(x, y)
    pxx = leray_project(directional_derivative(x, x))
    pyy = leray_project(directional_derivative(y, y))
    jt = jacobian_transpose_apply(x, y)
    mixed = leray_project(directional_derivative(y, x) + jt)
    forward = leray_project(directional_derivative(x, y) + jt)
    br = jacobi_lie_bracket(x, y)
    return (
        field_inner(pxx, pyy)
        - 0.25 * field_inner(mixed, mixed)
        + 0.5 * field_inner(br, br)
        - 0.5 * field_inner(forward, forward)
    )


def mhd_pure_magnetic_plane(y1: TrigVectorField, y2: TrigVectorField) -> float:
    """Curvature numerator of the plane spanned by (0, A(Y1)) and (0, A(Y2)):

    |P(nabla_Y1 Y2 + nabla_Y2 Y1)|^2 / 4 - <P nabla_Y1 Y1, P nabla_Y2 Y2>.
    """
    _require_divergence_free(y1, y2)
    sym = leray_project(directional_derivative(y1, y2) + directional_derivative(y2, y1))
    p11 = leray_project(directional_derivative(y1, y1))
    p22 = leray_project(directional_derivative(y2, y2))
    return 0.25 * field_inner(sym, sym) - field_inner(p11, p22)


# ---------------------------------------------------------------------------
# mode bases for sampling and configuration
# ---------------------------------------------------------------------------


def canonical_wavevectors(band: int):
    """Lexicographically positive integer wavevectors with |k|_inf <= band."""
    out = []
    for k1 in range(0, band + 1):
        for k2 in range(-band, band + 1):
            if k1 == 0 and k2 <= 0:
                continue
            if max(abs(k1), abs(k2)) <= band:
                out.append((k1, k2))
    return sorted(out)


def function_modes(band: int):
    """Orthogonal basis of functions supported in the band."""
    basis = [TrigFunction.constant(1.0)]
    for k in canonical_wavevectors(band):
        basis.append(TrigFunction.mode(COS, k))
        basis.append(TrigFunction.mode(SIN, k))
    return basis


def divergence_free_modes(band: int):
    """Basis of divergence-free fields: constants plus k-perp modes."""
    basis = [
        TrigVectorField(TrigFunction.constant(1.0), TrigFunction.zero()),
        TrigVectorField(TrigFunction.zero(), TrigFunction.constant(1.0)),
    ]
    for k in canonical_wavevectors(band):
        perp = (-k[1], k[0])
        for parity in (COS, SIN):
            basis.append(
                TrigVectorField(
                    TrigFunction.mode(parity, k, float(perp[0])),
                    TrigFunction.mode(parity, k, float(perp[1])),
                )
            )
    return basis


def full_field_modes(band: int):
    """Basis of unconstrained fields: every function mode in each component."""
    basis = []
    for f in function_modes(band):
        basis.append(TrigVectorField(f, TrigFunction.zero()))
    for f in function_modes(band):
        basis.append(TrigVectorField(TrigFunction.zero(), f))
    return basis


def truncate_state(state, cap: int):
    """Drop modes with |k|_inf above the cap from a field, function or pair."""
    if isinstance(state, Pair):
        return Pair(truncate_state(state.x, cap), truncate_state(state.y, cap))
    return state.truncated(cap)


def capped_rhs(rhs, cap: int):
    """Wrap a right-hand side so inputs and outputs stay inside the support cap.

    Truncated integration is not claimed to follow the exact geodesic flow;
    outputs produced under a cap are labeled experimental.
    """

    def wrapped(state):
        return truncate_state(rhs(truncate_state(state, cap)), cap)

    return wrapped
