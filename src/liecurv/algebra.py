"""Finite-dimensional metric Lie algebras.

An algebra is given by its structure constants c[i, j, k] (meaning
[e_i, e_j] = sum_k c[i, j, k] e_k) together with a symmetric positive
definite Gram matrix G defining the inner product <a, b> = a^T G b.
Elements are plain coordinate vectors (numpy arrays) in the declared basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .backend import norm_from_square, per_element
from .errors import DimensionMismatch, ValidationFailure

#: Relative tolerance at which a validation report judges its checks.
JACOBI_TOL = 1e-10

#: Default relative tolerance for adjointness residuals.
ADJOINT_TOL = 1e-10

#: Largest algebra dimension accepted from a selector or a file: the structure
#: constants take dim^3 floats (128 MiB at 256).
MAX_DIM = 256


@dataclass(eq=False)
class MetricAlgebraSpec:
    """Structure constants plus Gram matrix; immutable after construction."""

    structure: np.ndarray
    gram: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.structure = np.asarray(self.structure, dtype=float)
        self.gram = np.asarray(self.gram, dtype=float)
        n = self.gram.shape[0]
        if self.gram.shape != (n, n):
            raise ValueError("gram must be square")
        if self.structure.shape != (n, n, n):
            raise ValueError(
                f"structure shape {self.structure.shape} incompatible with gram {self.gram.shape}"
            )

    @property
    def dim(self) -> int:
        return self.gram.shape[0]


@dataclass(eq=False)
class Check:
    """One check's worst entry: its location, its size ``worst`` and the factors of the
    scale it is measured against.  ``outright`` marks a failure at every tolerance."""

    invariant: str
    location: tuple
    worst: float
    scale: tuple = ()
    message: str = ""
    outright: bool = False

    @property
    def residual(self) -> float:
        """``worst`` relative to the scale; nan when the scale overflowed to inf,
        which no tolerance can judge."""
        scale = math.prod(self.scale)
        return self.worst / scale if scale < math.inf else math.nan


@dataclass
class ValidationReport:
    """The checks run on a spec, judged at the tolerance ``tol``; failures are
    entries, never exceptions.  ``at`` judges the same checks at another tolerance."""

    subject: str
    checks: list[Check] = field(default_factory=list)
    tol: float = JACOBI_TOL

    def record(self, invariant: str, location: tuple = (), worst: float = 0.0,
               scale: tuple = (), message: str = "", outright: bool = False) -> Check:
        location = tuple(int(i) for i in location)  # numpy 2 would print np.int64(i)
        self.checks.append(Check(invariant, location, worst, scale, message, outright))
        return self.checks[-1]

    def at(self, tol: float) -> ValidationReport:
        return replace(self, tol=tol)

    def fails(self, check: Check) -> bool:
        """worst > tol * scale (tol times each factor in turn); a nan residual and
        outright always fail."""
        return (check.outright or math.isnan(check.residual)
                or check.worst > math.prod(check.scale, start=self.tol))

    @property
    def issues(self) -> list[Check]:
        return [c for c in self.checks if self.fails(c)]

    @property
    def passed(self) -> bool:
        return not self.issues

    def __str__(self):
        issues = self.issues
        lines = [f"validation of {self.subject}: " + ("FAIL" if issues else "pass")]
        lines.extend(f"  ok   {c.invariant}" for c in self.checks if c not in issues)
        for c in issues:
            loc = f" at {c.location}" if c.location else ""
            why = c.message or ("scale overflows" if math.isinf(math.prod(c.scale)) else "")
            msg = f" ({why})" if why else ""
            lines.append(f"  FAIL {c.invariant}{loc}: residual {c.residual:.3e}{msg}")
        return "\n".join(lines)


def worst_entry(blocks):
    """Location and size of the largest |entry| of an array given as blocks
    ``(origin, block)``: the entry ``np.argmax`` finds on the whole array, the first largest one
    in C order, or the first nan.  A block is the sub-array of the same rank that starts at
    the index ``origin``, or a 2-D stack of runs along the last axis: its row r starts at
    ``origin`` with each integer array in it read at r, and its rows come in C order.  The
    blocks may come in any order, and may leave out an entry whose size repeats, bit for bit,
    that of an entry before it.  A zero entry at the origin may stand for entries left out
    that are exact zeros: it decides the result only when every entry is zero, and the
    result is then the origin.  Each block is a temporary, overwritten with its sizes."""
    found = []
    for origin, block in blocks:
        size = np.abs(block, out=block)
        j = np.unravel_index(np.argmax(size), size.shape)
        worst = float(size[j])
        if block.ndim < len(origin):  # a stack of runs: row j[0] starts at origin read at j[0]
            origin = [o[j[0]] if isinstance(o, np.ndarray) else o for o in origin]
            j = (0,) * (len(origin) - 1) + j[1:]
        found.append((tuple(int(o + k) for o, k in zip(origin, j)), worst))
    nan = [entry for entry in found if entry[1] != entry[1]]
    if nan:
        return min(nan)
    worst = max(size for _, size in found)
    return min(entry for entry in found if entry[1] == worst)


def spread_rows(where, values):
    """One product of a check on the rows a residual slab forms: ``values`` holds its rows
    where the boolean ``where`` is set, in order, and its other rows are exact zeros, the
    products of an all-zero row of one operand and a finite other operand."""
    if len(values) == len(where):
        return values
    out = np.zeros((len(where), values.shape[-1]))
    out[where] = values
    return out


def product_rows(left, right) -> np.ndarray:
    """``left @ right`` for rows gathered from the left operand of a larger product, with the
    bits those rows have in that product: numpy hands a one-row product to gemv, which rounds
    otherwise than gemm, so a lone row is multiplied as two."""
    if len(left) == 1:
        return (left[[0, 0]] @ right)[:1]
    return left @ right


def plan_slabs(count, size):
    """How a check that forms its residual one slab i at a time treats each slab, from the
    number ``count[i]`` of rows of slab i that can be nonzero, of the ``size[i]`` it forms.

    A slab forms its full products unless at most half its rows can be nonzero: a row formed
    on gathered operands costs about twice as much.  Returns the flags of the slabs formed in
    full, the slabs that form any row, in order, and the blocks that stand for the rows left
    out in ``worst_entry``: one zero entry at the origin, as those rows are exact zeros."""
    full = [2 * k > n for k, n in zip(count, size)]
    zero = [] if all(full) else [((0, 0, 0, 0), np.zeros((1, 1, 1, 1)))]
    return full, [i for i, k in enumerate(count) if k], zero


def _jacobi_worst(c: np.ndarray):
    """Location (i, j, k) and size of the worst Jacobi residual of finite constants c.

    The cyclic sum of [[e_i,e_j],e_k] in coordinates, d[i,j,k,l] = sum_m c[i,j,m] c[m,k,l]:
    resid[i,j,k,l] = d[i,j,k,l] + d[j,k,i,l] + d[k,i,j,l], built one slab i at a time so
    that no temporary holds more than n^3 entries.

    Exactly antisymmetric constants make each d antisymmetric in its first two indices, bit
    for bit.  Then only j, k >= i are formed: with a, b, c' the three terms at (i, j, k),
    resid[i,j,k] = (a + b) + c' and resid[j,i,k] = -((a + c') + b), and every other entry
    repeats the size of one of these at a later position in C order.

    The terms of row (i, j, k, :) have the factors c[i, j], c[j, k] and c[k, i], and a term
    whose factor is all zero is exactly zero.  In a half sum, a slab in which at most half
    the rows have a nonzero factor forms each term on the rows of its nonzero factor only
    (``plan_slabs``): every row formed keeps the dot products and the order of sums of the
    full products, and the rows left out enter as one zero entry.  Other slabs, and the
    full sums, form the full products.
    """
    n = c.shape[0]
    half = not (c + c.transpose(1, 0, 2)).any()
    if half:  # slab i forms the rows j, k >= i
        a = c.any(axis=2)  # a[i, j]: c[i, j, :] has a nonzero entry
        live = a[:, :, None] | a[None]  # live[i, j, k]: row (i, j, k) can be nonzero
        live |= a.T[:, None]
        count = [np.count_nonzero(live[i, i:, i:]) for i in range(n)]
        dense, busy, zero = plan_slabs(count, [(n - i) ** 2 for i in range(n)])
    else:  # constants antisymmetric only within tolerance keep the full sums
        dense, busy, zero = [True] * n, range(n), []

    def blocks(i):
        s = i if half else 0
        rows = c[:, s:].reshape(n, -1)  # rows[m, (k, l)] = c[m, k, l] for k >= s
        if dense[i]:
            shape = (n - s, n - s, n)
            d_ijk = (c[i, s:] @ rows).reshape(shape)
            d_jki = (np.ascontiguousarray(c[s:, s:]).reshape(-1, n) @ c[:, i]).reshape(shape)
            if not half:
                d_kij = (c[:, i] @ rows).reshape(shape).transpose(1, 0, 2)
                yield (i, 0, 0, 0), (d_ijk + d_jki + d_kij)[None]
                return
            d_ikj = d_ijk.transpose(1, 0, 2)  # d[k, i, j] = -d[i, k, j], as c[k, i] = -c[i, k]
            resid = d_ijk + d_jki
            resid -= d_ikj
            yield (i, i, i, 0), resid[None]
            if i + 1 < n:
                resid = d_ijk[1:] - d_ikj[1:]  # -resid[j, i, k] for j > i
                resid += d_jki[1:]
                yield (i + 1, i, i, 0), resid[:, None]
            return
        m = n - s
        formed = np.flatnonzero(live[i, s:, s:])
        j, k = np.divmod(formed, m)
        a_i, a_s = a[i, s:], a[s:, s:]
        on_j = np.flatnonzero(a_i)
        d = product_rows(c[i, s + on_j], rows).reshape(len(on_j), m, n)  # d[i, j, k], j in on_j
        d_ijk = spread_rows(a_i[j], d.reshape(-1, n))
        pj, pk = np.nonzero(a_s)
        d_jki = spread_rows(a_s[j, k], product_rows(c[s + pj, s + pk], c[:, i]))
        d_ikj = spread_rows(a_i[k], d.transpose(1, 0, 2).reshape(-1, n))
        resid = d_ijk + d_jki
        resid -= d_ikj
        yield (i, s + j, s + k, 0), resid
        q = int(np.searchsorted(j, 1))  # the rows with j > i
        if q < len(formed):
            resid = d_ijk[q:] - d_ikj[q:]
            resid += d_jki[q:]
            yield (s + j[q:], i, s + k[q:], 0), resid

    slabs = (block for i in busy for block in blocks(i))
    idx, worst = worst_entry(itertools.chain(zero, slabs))
    return idx[:3], worst


def first_non_finite(a: np.ndarray):
    """Index of the first nan or infinite entry of a, or None."""
    finite = np.isfinite(a)
    return None if finite.all() else tuple(int(i) for i in np.argwhere(~finite)[0])


def validate(spec: MetricAlgebraSpec) -> ValidationReport:
    """Check antisymmetry, the Jacobi identity and positive definiteness.

    Residuals are relative to the size of the structure constants (with a
    unit floor), so an exactly-given algebra passes regardless of scale.
    The report judges them at ``JACOBI_TOL``; ``report.at(tol)`` at ``tol``.
    A nan or infinite entry fails every invariant computed from its array,
    with a nan residual: no tolerance comparison can pass or fail on it.
    """
    report = ValidationReport(subject=spec.name or "algebra")
    c = spec.structure
    g = spec.gram
    bad = first_non_finite(c)
    if bad is not None:
        for invariant in ("antisymmetry", "jacobi"):
            report.record(invariant, bad, float("nan"), message="non-finite structure constant")
    else:
        cmax = max(1.0, float(np.max(np.abs(c))) if c.size else 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails with a nan
            report.record("antisymmetry", *worst_entry([((0, 0, 0), c + c.transpose(1, 0, 2))]),
                          (cmax,))
            report.record("jacobi", *_jacobi_worst(c), (cmax, cmax))

    bad = first_non_finite(g)
    if bad is not None:
        for invariant in ("gram_symmetric", "gram_positive_definite"):
            report.record(invariant, bad, float("nan"), message="non-finite Gram entry")
        return report
    gmax = max(1.0, float(np.max(np.abs(g))))
    asym = float(np.max(np.abs(g - g.T)))
    if report.fails(report.record("gram_symmetric", (), asym, (gmax,))):
        return report  # the factorisation reads one triangle only
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        lam = float(np.linalg.eigvalsh(g)[0])
        report.record("gram_positive_definite", (), lam, message="smallest eigenvalue", outright=True)
    else:
        report.record("gram_positive_definite")
    return report


def bilinear(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i x_i t[i] y for a C-contiguous tensor t of shape (n, a, b), over
    stacks: x of shape (..., n) and y of shape (..., b) give shape (..., a)."""
    m = (x @ t.reshape(t.shape[0], -1)).reshape(x.shape[:-1] + t.shape[1:])
    return (m @ y[..., None])[..., 0]


def skew_adjoint(mats: np.ndarray, gram: np.ndarray) -> bool:
    """True when every matrix of the stack ``mats`` is skew-adjoint for ``gram``,
    G M + M^T G = 0, within ``ADJOINT_TOL`` relative to max|M| max|G| (unit floor)."""
    resid = gram @ mats + np.swapaxes(mats, 1, 2) @ gram
    scale = max(1.0, float(np.max(np.abs(mats))) * float(np.max(np.abs(gram))))
    return bool(np.max(np.abs(resid)) <= ADJOINT_TOL * scale)


class DenseBackend:
    """Metric-algebra operations over a validated finite-dimensional spec.

    Exposes the backend operation set (bracket, inner, ad_transpose) that
    the curvature and geodesic engines consume.  Every operation takes
    single coordinate vectors or stacks of them (arrays of shape (..., dim)),
    and returns a float or a vector for single inputs, arrays over the stack
    otherwise.  The Gram factorization and the tensors of ad and ad^T are
    computed once and cached; all operations are pure.
    """

    def __init__(self, spec: MetricAlgebraSpec, check: bool = True):
        self.report = validate(spec) if check else None  # kept for ``liecurv validate``
        if check and not self.report.passed:
            raise ValidationFailure(self.report)
        self.spec = spec
        self.dim = spec.dim
        self._chol = np.linalg.cholesky(spec.gram)  # G = L L^T
        self._chol_inv = np.linalg.inv(self._chol)
        c = spec.structure
        # an abelian algebra (the dual factor of a magnetic product) brackets to zeros, and
        # so does ad^T: ``bracket`` and ``ad_transpose`` skip their contractions
        self._abelian = not c.any()
        # _ad[i] = ad(e_i): [e_i, e_j] = sum_k c[i, j, k] e_k
        self._ad = np.ascontiguousarray(c.transpose(0, 2, 1))
        # _adt[i] = ad(e_i)^T, the metric adjoint, so that ad(x)^T y = sum_i x_i _adt[i] y;
        # zero, and never read, when the algebra is abelian
        self._adt = self._ad if self._abelian else self.adjoints(self._ad)

    def _coerce(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"expected vectors of length {self.dim}, got shape {a.shape}")
        return a

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim)

    def bracket(self, a, b) -> np.ndarray:
        a, b = self._coerce(a), self._coerce(b)
        if self._abelian:
            return np.zeros(np.broadcast_shapes(a.shape, b.shape))
        return bilinear(self._ad, a, b)

    def inner(self, a, b):
        a, b = self._coerce(a), self._coerce(b)
        # a row times G times a column, so that every element of a stack takes the
        # matrix-vector path of an element alone and gets its bits
        return per_element(((a[..., None, :] @ self.spec.gram) @ b[..., :, None])[..., 0, 0])

    def norm(self, a):
        return norm_from_square(self.inner(a, a))

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x) = [x, .] in the declared basis, of shape (..., dim, dim)."""
        x = self._coerce(x)
        n = self.dim
        return (x @ self._ad.reshape(n, n * n)).reshape(x.shape[:-1] + (n, n))

    def ad_transpose(self, x, y) -> np.ndarray:
        """Adjoint of ad(x) for the Gram inner product, applied to y."""
        x, y = self._coerce(x), self._coerce(y)
        if self._abelian:
            return np.zeros(np.broadcast_shapes(x.shape, y.shape))
        return bilinear(self._adt, x, y)

    def adjoints(self, mats) -> np.ndarray:
        """Metric adjoints G^-1 M_i^T G of a stack of operators M_i on this algebra."""
        k, n = len(mats), self.dim
        rhs = (np.swapaxes(mats, 1, 2) @ self.spec.gram).transpose(1, 0, 2).reshape(n, k * n)
        solved = self._solve(rhs).reshape(n, k, n)
        return np.ascontiguousarray(solved.transpose(1, 0, 2))

    def gram_solve(self, v) -> np.ndarray:
        """Solve G r = v for a vector or a stack of columns."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise DimensionMismatch(f"expected leading dimension {self.dim}, got {v.shape}")
        return self._solve(v)

    def _solve(self, rhs) -> np.ndarray:
        """G^-1 rhs = L^-T (L^-1 rhs) through the inverse Cholesky factor, for a vector
        or a matrix of columns.  Non-finite values pass through, so the integrator
        reports a blow-up itself; an inf in rhs may come out as nan in other
        coordinates (0 * inf), which is still non-finite."""
        return self._chol_inv.T @ (self._chol_inv @ rhs)

    def sample_basis(self, band: int = 0):
        """Basis elements for random sampling, as the rows of an array (band is a
        torus-only notion)."""
        return np.eye(self.dim)

    def is_ad_invariant(self) -> bool:
        """True when every ad(e_i) is skew-adjoint for the Gram inner product."""
        return skew_adjoint(self._ad, self.spec.gram)
