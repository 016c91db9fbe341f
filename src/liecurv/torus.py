"""Exact calculus on finitely supported trigonometric fields on the flat 2-torus.

A function is a finite sum of cos(k.x) and sin(k.x) over integer wavevectors
k.  It is stored as the complex coefficients c_k of exp(i k.x) on a centred
square grid, ``c[r + k1, r + k2]`` with half-width r >= |k|_inf, and since the
function is real, c_{-k} = conj(c_k).  In canonical form (k lexicographically
positive, first nonzero component > 0; sin(0,0) forbidden) the coefficient
of cos(k.x) is 2 Re c_k, that of sin(k.x) is -2 Im c_k and the constant is
c_0.  Products are exact direct convolutions of the grids, formed as BLAS
matrix products over the grids' nonzero rows and columns (no transform, so no
transform roundoff), each over at most 65 of their (row, column) pairs.
Under a support cap (the ``cap`` of a backend or an operator), a product
forms only the modes with |k|_inf <= cap.  Derivatives multiply by i k, and
the L^2 metric on [0, 2pi)^2 is 4 pi^2 Re <c_f, c_g>, diagonal on canonical
modes (|1|^2 = 4 pi^2, |cos k|^2 = |sin k|^2 = 2 pi^2).  A vector field
stacks the grids of its two components as one (2, n, n) array on a common grid.
Wavevectors given from outside are bounded by ``MAX_WAVENUMBER``.

Elements stack along leading axes: the grids of a stack of functions are
one (..., n, n) array, those of a stack of fields one (..., 2, n, n) array.
Every operation acts element by element on the last axes, and inner
products and scales return one value per element, so a stack of curvature
planes is evaluated in one pass.

Three semidirect backends are provided on top of this calculus:

* volume-preserving fields acting on functions (passive scalar transport),
* all vector fields acting on functions (compressible form),
* the magnetic extension of the volume-preserving fields (ideal MHD).

The algebra bracket on field backends is minus the Jacobi-Lie bracket of
vector fields (the right-invariant convention); with that orientation the
adjoint of ad(X) on divergence-free fields is P(nabla_X Y + (grad X)^T Y),
which the test suite verifies directly against the L^2 pairing.  On the
diagonal Y = X, the one a geodesic right-hand side -ad(u)^T u needs,
(grad X)^T X = grad(|X|^2 / 2) is a gradient, which P removes (also under a
cap, since a truncated gradient is a gradient), so only P(nabla_X X) is
formed.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .backend import Pair, SemidirectBackendBase, norm_from_square, per_element
from .errors import NonFiniteState, NotDivergenceFree

COS, SIN = "cos", "sin"

#: Largest |k|_inf of a mode given to ``TrigFunction``, so that products of
#: two products of such functions stay on grids of at most (4 * 32 + 1)^2 cells.
MAX_WAVENUMBER = 32

_FOUR_PI_SQ = 4.0 * math.pi**2

#: Bytes of gathered operands that one stacked product forms at a time; a
#: longer stack is split.  On a 2-core Xeon with 2 MB of L2 per core, stacks
#: of 30 full-band products ran fastest per element within about this budget
#: (46 elements at band 2, 4 at band 4, 2 at band 6, one from band 8 on): at
#: twice the budget band 2 ran 3% faster, but bands 6 and 8 17-22% slower.
STACK_BYTES = 1 << 18


def _embed(c: np.ndarray, r: int) -> np.ndarray:
    """The grids on the last two axes of c, widened with zeros to half-width r
    (c itself when already that wide)."""
    s = c.shape[-1] // 2
    if s == r:
        return c
    out = np.zeros(c.shape[:-2] + (2 * r + 1, 2 * r + 1), complex)
    out[..., r - s:r + s + 1, r - s:r + s + 1] = c
    return out


def _broadcast(a: np.ndarray, b: np.ndarray):
    """Grids a and b with their stack axes broadcast against each other."""
    if a.shape[:-2] == b.shape[:-2]:
        return a, b
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return np.broadcast_to(a, stack + a.shape[-2:]), np.broadcast_to(b, stack + b.shape[-2:])


class _Grid:
    """Hermitian coefficient grids on the last two axes of ``c``; immutable.

    The arithmetic shared by functions (one grid) and fields (a stack of two).
    """

    __slots__ = ("c",)

    #: trailing axes of ``c`` that hold one element; any axes before them stack elements
    _axes = 2

    @classmethod
    def _of(cls, c: np.ndarray):
        """Wrap coefficient grids as they are, without copying them."""
        result = cls.__new__(cls)
        result.c = c
        return result

    @classmethod
    def stack(cls, elements):
        """The elements, widened to their widest grid, along a new leading axis."""
        r = max(e.c.shape[-1] for e in elements) // 2
        return cls._of(np.stack([_embed(e.c, r) for e in elements]))

    @property
    def _stack(self) -> tuple:
        """Shape of the stack axes of ``c``: () for one element."""
        return self.c.shape[:self.c.ndim - self._axes]

    def broadcast_to(self, shape: tuple):
        """This element or stack broadcast to the stack shape ``shape`` (a view)."""
        return self._of(np.broadcast_to(self.c, shape + self.c.shape[self.c.ndim - self._axes:]))

    def __getitem__(self, i):
        """Element (or slice) i along the leading stack axis."""
        if not self._stack:
            raise TypeError(f"one {type(self).__name__} is not a stack")
        return self._of(self.c[i])

    def __add__(self, other):
        r = max(self.c.shape[-1], other.c.shape[-1]) // 2
        return self._of(_embed(self.c, r) + _embed(other.c, r))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(-self.c)

    def __mul__(self, scalar):
        scalar = float(scalar)
        if scalar == 0.0:
            return self._of(np.zeros(self.c.shape[:-2] + (1, 1), complex))
        return self._of(scalar * self.c)

    __rmul__ = __mul__

    def scaled(self, s):
        """Element i of this stack times s[i] (``s`` has the stack's shape), with
        the bits of ``float(s[i]) * self[i]``: where s[i] is zero the element's
        cells are +0, which embed the one-cell grid of a zero scalar, and where
        every s[i] is zero the stack is on that grid."""
        zero = s == 0.0
        if zero.all():
            return 0.0 * self
        c = s.reshape(s.shape + (1,) * self._axes) * self.c
        c[zero] = 0.0
        return self._of(c)

    def max_wavenumber(self):
        """Largest |k|_inf of a nonzero coefficient (0 when there is none)."""
        n = self.c.shape[-1]
        k = np.abs(np.arange(n) - n // 2)
        nonzero = (self.c != 0).reshape(self._stack + (-1, n, n)).any(axis=-3)
        reach = np.where(nonzero, np.maximum(k[:, None], k[None, :]), 0)
        return per_element(reach.max(axis=(-2, -1)))

    def truncated(self, cap: int):
        r = self.c.shape[-1] // 2
        if cap >= r:
            return self
        return self._of(self.c[..., r - cap:r + cap + 1, r - cap:r + cap + 1].copy())

    def coefficient_scale(self):
        """Largest |coefficient| of a canonical mode (nan if any is nan)."""
        n2 = self.c.shape[-1] ** 2
        flat = self.c.reshape(self._stack + (-1, n2))
        mid = n2 // 2
        with np.errstate(over="ignore"):
            rest = 2.0 * np.abs(flat[..., mid + 1:].view(float)).max(axis=(-2, -1), initial=0.0)
        return per_element(np.maximum(np.abs(flat[..., mid].real).max(axis=-1), rest))


class TrigFunction(_Grid):
    """Finitely supported trigonometric polynomial on its coefficient grid; immutable."""

    __slots__ = ()

    def __init__(self, modes=None):
        terms, r = [], 0
        for (k1, k2, parity), coeff in (modes or {}).items():
            if parity not in (COS, SIN):
                raise ValueError(f"parity must be {COS!r} or {SIN!r}, got {parity!r}")
            k1, k2, half = int(k1), int(k2), 0.5 * float(coeff)
            r = max(r, abs(k1), abs(k2))
            if r > MAX_WAVENUMBER:
                raise ValueError(f"wavevector ({k1}, {k2}) exceeds the limit "
                                 f"|k|_inf <= {MAX_WAVENUMBER}")
            if (k1, k2, parity) != (0, 0, SIN):  # sin(0,0) vanishes
                terms.append((k1, k2, complex(half, 0.0) if parity == COS else complex(0.0, -half)))
        self.c = np.zeros((2 * r + 1, 2 * r + 1), complex)
        for k1, k2, half in terms:  # at k = 0 the two halves make the constant
            self.c[r + k1, r + k2] += half
            self.c[r - k1, r - k2] += half.conjugate()

    @classmethod
    def zero(cls) -> "TrigFunction":
        return cls()

    @classmethod
    def constant(cls, value: float) -> "TrigFunction":
        return cls({(0, 0, COS): value})

    @classmethod
    def mode(cls, parity: str, k, coeff: float = 1.0) -> "TrigFunction":
        return cls({(k[0], k[1], parity): coeff})

    @property
    def modes(self) -> dict:
        """Nonzero canonical modes {(k1, k2, parity): coeff}, in (k1, k2) order with
        cos first, as Python ints, strs and floats.  On a stack: the modes nonzero
        in any element, each with the list of the elements' coefficients."""
        n = self.c.shape[-1]
        r, mid = n // 2, n * n // 2
        # the canonical half of each grid in row-major order: k = 0, then every
        # lexicographically positive k in (k1, k2) order
        half = self.c.reshape(-1, n * n)[:, mid:]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.stack([2.0 * half.real, -2.0 * half.imag], axis=-1)
        vals[:, 0, 0], vals[:, 0, 1] = half[:, 0].real, 0.0
        vals = vals.reshape(len(half), -1)
        keep = np.flatnonzero(vals.any(axis=0))
        k1, k2 = np.divmod(keep // 2 + mid, n)
        keys = zip((k1 - r).tolist(), (k2 - r).tolist(), np.array([COS, SIN])[keep % 2].tolist())
        coeffs = vals[0, keep] if self.c.ndim == 2 else vals[:, keep].T
        return dict(zip(keys, coeffs.tolist()))

    def partial(self, axis: int) -> "TrigFunction":
        """Exact partial derivative along coordinate axis 0 or 1: c_k times i k_axis."""
        r = self.c.shape[-1] // 2
        ik = 1j * np.arange(-r, r + 1)
        return TrigFunction._of(self.c * (ik[:, None] if axis == 0 else ik[None, :]))

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
        if self._stack:
            return f"TrigFunction(stack of {self._stack})"
        if not self.modes:
            return "TrigFunction(0)"
        bits = [f"{v:+g}*{p}({k1},{k2})" for (k1, k2, p), v in self.modes.items()]
        return "TrigFunction(" + " ".join(bits) + ")"


#: Most terms of one matrix product in ``_contract``: the longest row sum of a
#: product of grids within the wavenumber bound.
_FLAT_TERMS = 2 * MAX_WAVENUMBER + 1

#: Largest plan that ``_flat_plan`` keeps, in bytes of indices (0.44 MB for a capped
#: cap-16 product of full 33 x 33 grids, 6.6 MB uncapped at band 32).
_PLAN_BYTES = 1 << 20


@functools.lru_cache(maxsize=32)
def _flat_plan(na: int, nb: int, rows: bytes, cols: bytes, half: int):
    """Gather indices of the flattened operands of ``_contract`` for grids of
    sizes na and nb with nonzero rows R (of a) and columns C (of b), given as
    the bytes of their intp arrays, and an output of half-width ``half``.

    With n = na + nb - 1, term t = i |C| + j of the flattened sum, for cell
    (R_i, C_j), is row t of A (columns q = centre - half .. centre + half,
    A[q] = a[R_i, q - C_j]) and column t of B (rows p = centre .. centre +
    half, B[p] = b[p - R_i, C_j]).  The indices point into the flat grids of a
    and b, or past their last cell, at the zero that ``_contract`` appends,
    where a window leaves the grid.  The terms are split into groups of
    ``_FLAT_TERMS``, the last one filled up with such zeros (or one group of
    all |R| |C| <= 65): A is indexed (groups, size, 2 half + 1) and B
    (groups, half + 1, size).  An index takes 8 bytes, and ``_contract``
    builds plans above ``_PLAN_BYTES`` past the cache, which so holds at
    most 32 MiB.
    """
    rows, cols = np.frombuffer(rows, np.intp), np.frombuffer(cols, np.intp)
    centre = na // 2 + nb // 2
    q = np.arange(centre - half, centre + half + 1) - cols[:, None]  # q - C_j
    a_cells = np.where((q >= 0) & (q < na), rows[:, None, None] * na + q, na * na)
    t = np.arange(centre, centre + half + 1)[:, None] - rows  # p - R_i
    b_cells = np.where(((t >= 0) & (t < nb))[..., None], t[..., None] * nb + cols, nb * nb)
    terms = rows.size * cols.size
    groups, size = -(-terms // _FLAT_TERMS), min(terms, _FLAT_TERMS)
    fill = groups * size - terms
    a_cells = np.pad(a_cells.reshape(terms, 2 * half + 1), ((0, fill), (0, 0)), constant_values=na * na)
    b_cells = np.pad(b_cells.reshape(half + 1, terms), ((0, 0), (0, fill)), constant_values=nb * nb)
    return (a_cells.reshape(groups, size, 2 * half + 1),
            np.ascontiguousarray(b_cells.reshape(half + 1, groups, size).transpose(1, 0, 2)))


def _contract(a: np.ndarray, b: np.ndarray, cap=None) -> np.ndarray:
    """Convolutions of the stacked grids a[s] and b[s] as stacks of complex
    matrix products, formed only on the modes with |k|_inf at most ``cap``
    (every mode when it is None).

    Only the rows R of a and the columns C of b that hold a nonzero cell in
    some element take part.  The rows and columns that one element lacks add
    exact zeros to its sums, but in a matrix product they can move the last
    bits of a rounded sum: elements that share their nonzero rows and columns,
    as a scan's sampled planes do, get their products bit for bit as alone.
    With n = na + nb - 1, out[s, p1, q] is the sum over i1 in R and j2 in C
    of b[s, p1 - i1, j2] a[s, i1, q - j2]: a flattened sum of |R| |C| terms,
    whose operands are gathered from the flat grids by the indices of
    ``_flat_plan``.  OpenBLAS adds a sum of at most 2 * MAX_WAVENUMBER + 1
    (= 65) terms in one block, where it splits a longer one at bounds that
    move with its thread count.  So each matrix product sums one consecutive
    group of at most 65 terms (the last one filled up with exact zeros), and
    numpy sums the groups' products element by element: in group order, or
    pairwise on an output of one cell (cap 0), alike alone and in a stack.

    Only the rows p1 and columns q within half = min(cap, centre) of the
    centre are formed: out[s] is the (2 half + 1)^2 grid of the product's
    modes with |k|_inf <= half.  The operands are gathered for as many
    elements at a time as ``STACK_BYTES`` holds.  Rows below the centre of
    out are left unset: the caller mirrors them from the canonical half.
    """
    stack, na, nb = a.shape[0], a.shape[-1], b.shape[-1]
    centre = na // 2 + nb // 2
    half = centre if cap is None else min(cap, centre)
    rows, cols = a.any(axis=(0, 2)).nonzero()[0], b.any(axis=(0, 1)).nonzero()[0]
    terms = rows.size * cols.size
    indices = -(-terms // _FLAT_TERMS) * min(terms, _FLAT_TERMS) * (3 * half + 2)  # in the plan, filled
    plan = _flat_plan if 8 * indices <= _PLAN_BYTES else _flat_plan.__wrapped__
    a_cells, b_cells = plan(na, nb, rows.tobytes(), cols.tobytes(), half)
    a_flat, b_flat = np.zeros((stack, na * na + 1), complex), np.zeros((stack, nb * nb + 1), complex)
    a_flat[:, :-1], b_flat[:, :-1] = a.reshape(stack, -1), b.reshape(stack, -1)  # one zero cell appended
    out = np.empty((stack, 2 * half + 1, 2 * half + 1), complex)
    step = max(1, STACK_BYTES // max(1, 16 * indices))  # 16 bytes a gathered operand
    for s in range(0, stack, step):
        products = np.matmul(b_flat[s:s + step].take(b_cells, axis=1),
                             a_flat[s:s + step].take(a_cells, axis=1))
        # the sum over the groups; one group is copied as it is, as summing it costs more
        out[s:s + step, half:] = products[:, 0] if len(b_cells) == 1 else products.sum(axis=1)
    return out


def multiply(f: TrigFunction, g: TrigFunction) -> TrigFunction:
    """Exact product: the direct convolution of the coefficient grids; support adds.

    Every output coefficient is a plain sum of products of input coefficients,
    with no transform roundoff.  Finite grids are convolved by complex matrix
    products over the nonzero rows R of f and the nonzero columns C of g, each
    over a consecutive group of at most 65 of the |R| |C| pairs, and the
    groups' products are added.  Terms that are structurally zero add an
    exact 0 and sums of dyadic values are exact, while rounded sums are added
    in BLAS order, which does not depend on the BLAS thread count while g
    stays within the wavenumber bound (see ``_contract``).  On stacks (which
    broadcast) the product is taken element by element.  The canonical half
    is then mirrored, so c_{-k} = conj(c_k) holds exactly.

    Raises ``NonFiniteState`` when a cell of either grid is inf or nan (on a
    stack, when any element's is), before any matrix product, in which an inf
    would meet the zero cells of the other grid, and inf * 0 is nan.
    Products of finite grids can still overflow, to inf or nan, without a
    warning.
    """
    return TrigFunction._of(_convolve(f.c, g.c))


def _convolve(a: np.ndarray, b: np.ndarray, cap=None) -> np.ndarray:
    """The grids of ``multiply``, with its modes of |k|_inf above ``cap`` (when
    given) never formed by the matrix products."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteState("torus product of a grid with a non-finite coefficient")
    a, b = _broadcast(a, b)
    stack = a.shape[:-2]
    a, b = a.reshape((-1,) + a.shape[-2:]), b.reshape((-1,) + b.shape[-2:])
    # sums that overflow give inf and nan without warnings, as in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        out = _contract(a, b, cap)
        flat, mid = out.reshape(len(out), -1), out[0].size // 2
        flat[:, :mid] = np.conj(flat[:, :mid:-1])
    flat[:, mid] = flat[:, mid].real
    return out.reshape(stack + out.shape[-2:])


def _product(f: TrigFunction, g: TrigFunction, cap=None) -> TrigFunction:
    """``multiply(f, g)``, or under a cap the product's modes with |k|_inf <= cap,
    formed without the others."""
    if cap is None:
        return multiply(f, g)
    return TrigFunction._of(_convolve(f.c, g.c, cap))


def _grid_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The L^2 inner products of the grids on the last two axes of a and b, one
    per grid (stack axes broadcast); call under ``np.errstate``."""
    a, b = sorted((a, b), key=lambda c: c.shape[-1])
    r, s = a.shape[-1] // 2, b.shape[-1] // 2
    a, b = _broadcast(a, b[..., s - r:s + r + 1, s - r:s + r + 1])
    terms = (a.real * b.real + a.imag * b.imag).reshape(a.shape[:-2] + (-1,))
    return _FOUR_PI_SQ * np.add.accumulate(terms, axis=-1)[..., -1]


def function_inner(f: TrigFunction, g: TrigFunction):
    """L^2 inner product over [0, 2pi)^2 with the bare volume form; one value per
    element of a stack (stacks broadcast).

    Each element adds re * re + im * im of its cells one at a time, in
    row-major order over the narrower grid, so the cells that zero padding
    adds contribute exact zeros: an element gets the same bits alone, on a
    wider grid and in a stack.  (``np.add.reduce`` would sum a lone
    element's cells pairwise instead.)  inf and nan propagate without
    warnings, as in Python float arithmetic.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return per_element(_grid_inner(f.c, g.c))


class TrigVectorField(_Grid):
    """Vector field on the flat torus: the grids of its two trigonometric
    components, ``c[..., 0, :, :]`` and ``c[..., 1, :, :]``, on a common grid;
    immutable."""

    #: on a stack made by ``stack``: its elements that the divergence check has
    #: not passed yet, judged one by one
    __slots__ = ("_unchecked",)
    _axes = 3

    def __init__(self, comp1: TrigFunction, comp2: TrigFunction):
        r = max(comp1.c.shape[-1], comp2.c.shape[-1]) // 2
        self.c = np.stack(_broadcast(_embed(comp1.c, r), _embed(comp2.c, r)), axis=-3)

    @classmethod
    def zero(cls) -> "TrigVectorField":
        return cls._of(np.zeros((2, 1, 1), complex))

    @classmethod
    def stack(cls, elements):
        out = super().stack(elements)
        out._unchecked = tuple(elements)
        return out

    @property
    def comp1(self) -> TrigFunction:
        return TrigFunction._of(self.c[..., 0, :, :])

    @property
    def comp2(self) -> TrigFunction:
        return TrigFunction._of(self.c[..., 1, :, :])

    def divergence(self) -> TrigFunction:
        return self.comp1.partial(0) + self.comp2.partial(1)

    def is_divergence_free(self, tol: float = 1e-10):
        """Whether the divergence is within ``tol`` of the field's own scale; one
        answer per element of a stack."""
        scale = np.fmax(1.0, self.coefficient_scale() * (1.0 + self.max_wavenumber()))
        return per_element(np.asarray(self.divergence().coefficient_scale() <= tol * scale))

    def sample(self, x1, x2):
        return self.comp1.sample(x1, x2), self.comp2.sample(x1, x2)

    def __repr__(self):
        return f"TrigVectorField({self.comp1!r}, {self.comp2!r})"


def field_inner(x: TrigVectorField, y: TrigVectorField):
    """Sum of the components' ``function_inner``s, both taken in one call."""
    with np.errstate(over="ignore", invalid="ignore"):
        both = _grid_inner(x.c, y.c)
        return per_element(both[..., 0] + both[..., 1])


def grad(f: TrigFunction) -> TrigVectorField:
    return TrigVectorField(f.partial(0), f.partial(1))


def _summed_products(a: np.ndarray, b: np.ndarray, cap=None) -> np.ndarray:
    """Grids of a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1], the pairs stacked
    on axis -3 (which broadcasts): one ``_product`` for every product."""
    p = _product(TrigFunction._of(a), TrigFunction._of(b), cap).c
    return p[..., 0, :, :] + p[..., 1, :, :]


def _partials(f: _Grid) -> np.ndarray:
    """Grids of the partial derivatives of f's grids, d_j on a new axis -3."""
    grids = TrigFunction._of(f.c)
    return np.stack([grids.partial(0).c, grids.partial(1).c], axis=-3)


# The operators below that form products take an optional ``cap``: when it is
# given, their products form only the modes with |k|_inf <= cap (``_product``).


def scalar_derivative(x: TrigVectorField, f: TrigFunction, cap=None) -> TrigFunction:
    """Derivative X(f) = sum_j X_j d_j f of a function along a vector field."""
    return TrigFunction._of(_summed_products(x.c, _partials(f), cap))


def directional_derivative(x: TrigVectorField, y: TrigVectorField, cap=None) -> TrigVectorField:
    """Flat covariant derivative nabla_X Y: component i is sum_j X_j d_j Y_i."""
    return TrigVectorField._of(_summed_products(x.c[..., None, :, :, :], _partials(y), cap))


def jacobian_transpose_apply(x: TrigVectorField, y: TrigVectorField, cap=None) -> TrigVectorField:
    """(grad X)^T Y: component i is sum_j (d_i X_j) Y_j."""
    return TrigVectorField._of(_summed_products(np.swapaxes(_partials(x), -3, -4),
                                                y.c[..., None, :, :, :], cap))


def scale_field(f: TrigFunction, x: TrigVectorField, cap=None) -> TrigVectorField:
    """Pointwise product f X, both components in one ``_product``."""
    product = _product(TrigFunction._of(f.c[..., None, :, :]), TrigFunction._of(x.c), cap)
    return TrigVectorField._of(product.c)


def jacobi_lie_bracket(x: TrigVectorField, y: TrigVectorField, cap=None) -> TrigVectorField:
    """Geometric vector-field bracket nabla_X Y - nabla_Y X on the flat torus."""
    return directional_derivative(x, y, cap) - directional_derivative(y, x, cap)


def leray_project(x: TrigVectorField) -> TrigVectorField:
    """Remove the gradient part mode by mode; the constant mode is kept whole."""
    r = x.c.shape[-1] // 2
    kk = np.indices(x.c.shape[-2:], dtype=float) - r  # kk[0] = k1, kk[1] = k2
    ksq = kk[0] * kk[0] + kk[1] * kk[1]
    ksq[r, r] = 1.0  # k = 0: the coefficient below is 0, so the constant stays
    coeff = x.c[..., 0, :, :] * kk[0] + x.c[..., 1, :, :] * kk[1]
    # real and imaginary parts divided apart: complex division rounds differently
    coeff.real /= ksq
    coeff.imag /= ksq
    return TrigVectorField._of(x.c - coeff[..., None, :, :] * kk)


def q_project(x: TrigVectorField) -> TrigVectorField:
    """Orthogonal projection onto gradients: identity minus the Leray projection."""
    return x - leray_project(x)


def _require_divergence_free(*fields: TrigVectorField):
    """Raise on the first distinct field, and on a stack its first element, that fails the check.

    A stack made by ``TrigVectorField.stack`` is checked through its distinct
    elements, and not again once it has passed: the stacks of a curvature
    numerator, which repeat each leg, check each leg once.
    """
    for f in dict.fromkeys(e for f in fields for e in getattr(f, "_unchecked", (f,))):
        failed = ~np.ravel(f.is_divergence_free())
        if failed.any():
            if not math.isfinite(np.ravel(field_inner(f, f))[failed][0]):
                raise NonFiniteState("field with non-finite L2 norm")
            scale = np.ravel(f.divergence().coefficient_scale())[failed][0]
            raise NotDivergenceFree(f"field with divergence scale {scale:.3e} rejected")
    for f in fields:
        if hasattr(f, "_unchecked"):
            f._unchecked = ()


def ad_transpose_vol(x: TrigVectorField, y: TrigVectorField, cap=None) -> TrigVectorField:
    """Adjoint of ad(X) on divergence-free fields: P(nabla_X Y + (grad X)^T Y).

    On the diagonal (``y is x``) only P(nabla_X X) is formed: the dropped term
    is a gradient, which P removes, so the two agree up to roundoff.
    """
    _require_divergence_free(x, y)
    if y is x:  # (grad X)^T X = grad(|X|^2 / 2), and a gradient truncated at a cap is one too
        return leray_project(directional_derivative(x, x, cap))
    return leray_project(directional_derivative(x, y, cap) + jacobian_transpose_apply(x, y, cap))


def ad_transpose_full(x: TrigVectorField, y: TrigVectorField, cap=None) -> TrigVectorField:
    """Adjoint of ad(X) on all fields: nabla_X Y + (div X) Y + (grad X)^T Y."""
    return (
        directional_derivative(x, y, cap)
        + scale_field(x.divergence(), y, cap)
        + jacobian_transpose_apply(x, y, cap)
    )


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


class _FieldBackend:
    """Shared interface bits for vector-field backends.

    Built with a ``cap``, a backend's products form only the modes with
    |k|_inf <= cap, as a geodesic truncated at that cap keeps; by default
    they form every mode.
    """

    def __init__(self, cap=None):
        self.cap = cap

    def zero(self) -> TrigVectorField:
        return TrigVectorField.zero()

    def inner(self, x, y) -> float:
        return field_inner(x, y)

    def norm(self, x):
        return norm_from_square(field_inner(x, x))

    def bracket(self, x, y) -> TrigVectorField:
        # algebra bracket = minus the Jacobi-Lie bracket (right-invariant convention)
        return -jacobi_lie_bracket(x, y, self.cap)


class VolumeFieldBackend(_FieldBackend):
    """Divergence-free trigonometric fields with the L^2 metric."""

    name = "torus-vol"

    def ad_transpose(self, x, y) -> TrigVectorField:
        return ad_transpose_vol(x, y, self.cap)

    def sample_basis(self, band: int = 2):
        return divergence_free_modes(band)


class FullFieldBackend(_FieldBackend):
    """All trigonometric fields with the L^2 metric."""

    name = "torus-full"

    def ad_transpose(self, x, y) -> TrigVectorField:
        return ad_transpose_full(x, y, self.cap)

    def sample_basis(self, band: int = 2):
        return full_field_modes(band)


class FunctionSpaceBackend:
    """Abelian algebra of trigonometric functions with the L^2 metric."""

    name = "torus functions"

    def zero(self) -> TrigFunction:
        return TrigFunction.zero()

    def inner(self, f, g) -> float:
        return function_inner(f, g)

    def norm(self, f):
        return norm_from_square(function_inner(f, f))

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

    def norm(self, x):
        return norm_from_square(field_inner(x, x))

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

    def __init__(self, cap=None):
        self.cap = cap
        self.g = VolumeFieldBackend(cap)
        self.h = FunctionSpaceBackend()

    def b(self, x, f) -> TrigFunction:
        return -scalar_derivative(x, f, self.cap)

    def b_transpose(self, x, f) -> TrigFunction:
        return scalar_derivative(x, f, self.cap)

    def h_map(self, f1, f2) -> TrigVectorField:
        return -leray_project(scale_field(f2, grad(f1), self.cap))


class CompressibleScalarBackend(SemidirectBackendBase):
    """All vector fields acting on functions; unprojected transposes."""

    name = "compressible"
    isometric = False

    def __init__(self, cap=None):
        self.cap = cap
        self.g = FullFieldBackend(cap)
        self.h = FunctionSpaceBackend()

    def b(self, x, f) -> TrigFunction:
        return -scalar_derivative(x, f, self.cap)

    def b_transpose(self, x, f) -> TrigFunction:
        return scalar_derivative(x, f, self.cap) + _product(f, x.divergence(), self.cap)

    def h_map(self, f1, f2) -> TrigVectorField:
        return -scale_field(f2, grad(f1), self.cap)


class MhdBackend(SemidirectBackendBase):
    """Magnetic extension of the volume-preserving fields (ideal MHD carrier).

    Dual elements are represented by their divergence-free preimages under
    the inertia operator, so the coadjoint action reads b(X) Y = -ad(X)^T Y
    with derived b(X)^T Y = -ad(X) Y and h_map(Y1, Y2) = ad(Y2)^T Y1.
    """

    name = "mhd"
    isometric = False

    def __init__(self, cap=None):
        self.cap = cap
        self.g = VolumeFieldBackend(cap)
        self.h = FieldRepSpaceBackend()

    def b(self, x, y) -> TrigVectorField:
        return -ad_transpose_vol(x, y, self.cap)

    def b_transpose(self, x, y) -> TrigVectorField:
        return -self.g.bracket(x, y)

    def h_map(self, y1, y2) -> TrigVectorField:
        return ad_transpose_vol(y2, y1, self.cap)


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
    return [(k1, k2) for k1 in range(band + 1) for k2 in range(-band, band + 1) if k1 > 0 or k2 > 0]


class ModeBasis:
    """Sampling basis of trigonometric modes, held as the grid cells that its
    elements touch rather than as a list of elements.

    Element j is the function (``kind`` TrigFunction) or field
    (TrigVectorField) whose component ``comp[e]`` holds ``value[e]`` at
    wavevector ``k[e]`` for each entry e with ``owner[e] == j``, and zero
    elsewhere on a grid reaching the largest of those wavevectors.  Entries
    run in basis order, and each element lists the centre of every component,
    which every element's grid covers.  Elements come only from ``combine``,
    which writes a combination straight onto one grid.
    """

    def __init__(self, kind, size: int, owner, comp, k, value):
        self.kind, self.size = kind, size
        self.owner, self.comp, self.k, self.value = owner, comp, k, value

    @classmethod
    def of_modes(cls, kind, ks, sin, amp) -> "ModeBasis":
        """Element j is amp[j, m] cos(k_j . x) in component m, or sin where sin[j].
        Its cells at +k, -k and the centre hold what ``TrigFunction`` adds there
        (a constant adds its two halves at the centre), with +0 for zero parts."""
        count, ncomp = amp.shape
        half = 0.5 * amp
        value = np.zeros((count, ncomp, 3), complex)
        value.real[..., 0] = value.real[..., 1] = np.where(sin[:, None], 0.0, half)
        value.imag[..., 0] = np.where(sin[:, None], 0.0 - half, 0.0)
        value.imag[..., 1] = np.where(sin[:, None], half, 0.0)
        k = np.broadcast_to(np.stack([ks, -ks, 0 * ks], axis=1)[:, None], (count, ncomp, 3, 2))
        return cls(kind, count, np.repeat(np.arange(count), 3 * ncomp),
                   np.tile(np.repeat(np.arange(ncomp), 3), count), k.reshape(-1, 2), value.ravel())

    @property
    def ncomp(self) -> int:
        return 1 if self.kind is TrigFunction else 2

    def __len__(self) -> int:
        return self.size

    def combine(self, coeffs: np.ndarray):
        """sum_j coeffs[..., j] * element j on the grid of the widest element: one
        element, or a stack of them over the leading axes of ``coeffs``.

        Bit for bit the running sum of ``float(c) * element`` over the
        elements in order: the same products are added to each entry's cell in
        the same order.  The terms that the entries leave out are signed zeros
        on cells away from the centre, where the running sum starts at +0 (the
        padding of a narrower grid) and so stays +0 or at its one nonzero term.
        At the centre the running sum starts at the first element, whose grid
        is the centre alone; starting there at -0, which x + -0 leaves as x,
        gives the same sum.
        """
        r = int(np.abs(self.k).max(initial=0))
        n = 2 * r + 1
        stack = coeffs.shape[:-1]
        grid = np.zeros(stack + (self.ncomp, n, n), complex)
        grid[..., r, r] = complex(-0.0, -0.0)
        cells = (self.comp * n + self.k[:, 0] + r) * n + self.k[:, 1] + r
        rows = coeffs.reshape(-1, coeffs.shape[-1])
        # one element at a time, so the products formed at once are one element's
        for row, out in zip(rows, grid.reshape(len(rows), -1)):
            np.add.at(out, cells, row[self.owner] * self.value)
        return self.kind._of(grid[..., 0, :, :] if self.kind is TrigFunction else grid)


def _function_mode_list(band: int):
    """Wavevectors and sine flags of the function basis: the constant, then
    cos and sin of each canonical wavevector."""
    ks = np.array([(0, 0)] + [k for k in canonical_wavevectors(band) for _ in (COS, SIN)])
    index = np.arange(len(ks))
    return ks, (index % 2 == 0) & (index > 0)


def function_modes(band: int) -> ModeBasis:
    """Orthogonal basis of functions supported in the band."""
    ks, sin = _function_mode_list(band)
    return ModeBasis.of_modes(TrigFunction, ks, sin, np.ones((len(ks), 1)))


def divergence_free_modes(band: int) -> ModeBasis:
    """Basis of divergence-free fields: constants plus k-perp modes."""
    ks, sin = _function_mode_list(band)
    perp = np.stack([-ks[1:, 1], ks[1:, 0]], axis=1)
    return ModeBasis.of_modes(TrigVectorField, np.concatenate([ks[:1], ks]),
                              np.concatenate([sin[:1], sin]), np.concatenate([np.eye(2), perp]))


def full_field_modes(band: int) -> ModeBasis:
    """Basis of unconstrained fields: every function mode in each component."""
    ks, sin = _function_mode_list(band)
    return ModeBasis.of_modes(TrigVectorField, np.concatenate([ks, ks]), np.concatenate([sin, sin]),
                              np.repeat(np.eye(2), len(ks), axis=0))


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
