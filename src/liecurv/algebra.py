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
from operator import add, iadd, isub

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
        flat = int(size.argmax())
        worst, j = float(size.flat[flat]), []
        for n in reversed(size.shape):
            flat, k = divmod(flat, n)
            j.insert(0, k)
        if block.ndim < len(origin):  # a stack of runs: row j[0] starts at origin read at j[0]
            origin = [o[j[0]] if isinstance(o, np.ndarray) else o for o in origin]
            j = [0] * (len(origin) - 1) + j[1:]
        found.append((tuple(map(int, map(add, origin, j))), worst))
    nan = [entry for entry in found if entry[1] != entry[1]]
    if nan:
        return min(nan)
    worst = max(size for _, size in found)
    return min(entry for entry in found if entry[1] == worst)


def product_rows(left, right) -> np.ndarray:
    """``left @ right`` for rows gathered from the left operand of a larger product, with the
    bits those rows have in that product: numpy hands a one-row product to gemv, which rounds
    otherwise than gemm, so a lone row is multiplied as two."""
    if len(left) == 1:
        return (left[[0, 0]] @ right)[..., :1, :]
    return left @ right


def exactly_antisymmetric(c: np.ndarray) -> bool:
    """True when c[i, j] = -c[j, i] bit for bit."""
    return not (c + c.transpose(1, 0, 2)).any()


def residual_worst(terms, combine, shape, bounded=(False, False), mirror=None):
    """Location (i, a, b, l) and size of the worst entry of a check's residual r[i, a, b, :] of
    the given ``shape``, from ``worst_entry``: ``combine`` adds the arrays of ``terms`` up in
    the check's order, ``mirror`` (if given) for the entry (a, i, b) of each row with a > i.
    ``bounded`` flags the checks that form only the rows a >= i, b >= i.

    A term ``(u, v, slot, flip)`` reads p[x1, x2, y] = u[x1, x2] @ v[:, y] for u (X1, X2, M) and
    v (M, Y, L): i fills slot ``slot`` (x1, x2, y), and a, b the other two, swapped by ``flip``.
    A row is an exact zero where u[x1, x2] or v[:, y] is all zero and the other operand is
    finite (0 * inf is nan).  A slab where more than half the rows can be nonzero forms its full
    products, as does each slab of a residual of at most 81 entries, whose masks would cost more
    than the rows they leave out; the others form those rows alone, in chunks within the entries
    of a full slab, in one gathered product per chunk for i in u and per slab for i in v, each
    row with the dot products of the full product as far as BLAS rounds one alike wherever it
    sits (``product_rows``).  The rows left out enter ``worst_entry`` as a zero at the origin.
    """
    (ni, na, nb), L, seen = shape, terms[0][1].shape[-1], {}

    def once(key, f):  # f(), for each key once
        if key not in seen:
            seen[key] = f()
        return seen[key]

    def whole(x):  # x is finite, x is not all zero: read off the array x views, if all of it
        a = x if x.base is None or x.base.size != x.size else x.base
        return once((id(a), None), lambda: (np.isfinite(a).all(), a.any()))

    def rows_on(x):  # x[p, q] is not all zero
        return once((id(x), 2), lambda: x.any(axis=2))

    steps, masks, some, first = [], [], False, {}
    for u, v, slot, flip in terms:  # with the right operand of a full slab's product, which
        u = u.transpose(1, 0, 2) if slot == 1 else u  # forms it in the layout (a, b) if flip
        right = v if slot == 2 else v.transpose(1, 0, 2) if flip else v.reshape(len(v), -1)
        key = (id(u), id(v), slot == 2)
        j = first.setdefault(key, len(steps))  # an earlier term's product, on the same rows
        share = j if j < len(steps) and (steps[j][4] == flip or bounded[0] == bounded[1]) else None
        steps.append((key, u, v, slot == 2, flip, right, share))
        if not some:
            (u_finite, u_any), (v_finite, v_any) = whole(u), whole(v)
            some = (u_any or not v_finite) and (v_any or not u_finite)
    for _, u, v, *_ in steps if some and ni * na * nb * L > 81 else ():
        u_on = rows_on(u) if whole(v)[0] else np.ones(u.shape[:2], bool)
        v_on = rows_on(v).any(axis=0) if whole(u)[0] else np.ones(v.shape[1], bool)
        if u_on.all() and v_on.all():  # this term makes every row nonzero
            masks = []
            break
        masks.append((u_on, v_on))
    full, fi, starts, need = np.full(ni, some), (), [ni], {}
    if masks:
        live = np.zeros(shape, bool)
        for (u_on, v_on), (_, _, _, in_v, flip, *_) in zip(masks, steps):
            if in_v:
                live[v_on] |= u_on.T if flip else u_on
            else:
                live |= u_on[:, None, :] & v_on[:, None] if flip else u_on[:, :, None] & v_on
        i = np.arange(ni)[:, None, None]
        if bounded[0]:
            live &= np.arange(na)[:, None] >= i
        if bounded[1]:
            live &= np.arange(nb) >= i
        i = i.ravel()
        full = 2 * live.sum(axis=(1, 2)) > (na - bounded[0] * i) * (nb - bounded[1] * i)
        live[full] = False
        fi, fa = np.divmod(np.flatnonzero(live), na * nb)  # the rows formed alone, in C order
        fa, fb = np.divmod(fa, nb)
    if len(fi):  # chunks of the slabs formed alone; of each product with i in u, the rows
        cost = np.bincount(fi, minlength=ni)  # (i, o) its terms read, and if all read y >= i
        for (key, u, v, in_v, flip, *_), (u_on, _) in zip(steps, masks):
            if not in_v:
                o_bounded, y_bounded = bounded[::-1] if flip else bounded
                read = (np.triu(u_on) if o_bounded else u_on) & (cost > 0)[:, None]
                old = need.get(key, (False, True))
                need[key] = read | old[0], y_bounded and old[1]
                cost = np.maximum(cost, need[key][0].sum(axis=1) * v.shape[1])
        starts, total = [], na * nb
        for s in np.flatnonzero(cost).tolist():
            total += cost[s]
            if total > na * nb:
                starts.append(s)
                total = cost[s]
        starts.append(ni)

    def blocks():
        for i in np.flatnonzero(full).tolist():  # full slabs, their products on views
            lo, t = (i * bounded[0], i * bounded[1]), []
            for key, u, v, in_v, flip, right, share, *_ in steps:
                if share is not None:  # read the other way round if the flips differ
                    t.append(t[share] if steps[share][4] == flip else t[share].transpose(1, 0, 2))
                    continue
                lo1, lo2 = (lo[1], lo[0]) if flip else lo  # bounds on (x1, x2), or on (o, y)
                left = u[lo1:, lo2:].reshape(-1, u.shape[2]) if in_v else u[i, lo1:]
                p = product_rows(left, right[:, i] if in_v else right[lo2:] if flip
                                 else right[:, lo2 * L:])
                p = p.reshape(len(u) - lo1 if in_v else len(p), -1, L)
                t.append(p.transpose(1, 0, 2) if flip and in_v else p)
            yield (i, *lo, 0), combine(t)[None]
            if mirror is not None and i + 1 < na:
                yield (i + 1, i, lo[1], 0), mirror([x[i + 1 - lo[0]:] for x in t])[:, None]
        for s0, s1 in zip(starts, starts[1:]):  # chunks, their products on gathered rows
            f = slice(*np.searchsorted(fi, (s0, s1)))
            i, a, b, products, t = fi[f], fa[f], fb[f], {}, []
            for (key, u, v, in_v, flip, *_), (u_on, v_on) in zip(steps, masks):
                x, y = (b, a) if flip else (a, b)  # (x1, x2) for i in v, (o, y) for i in u
                on = np.flatnonzero(u_on[x, y] & v_on[i] if in_v else u_on[i, x] & v_on[y])
                t.append(np.zeros((len(i), L)))
                if len(on) and in_v:
                    left, cuts = u[x[on], y[on]], np.searchsorted(i[on], range(s0, s1 + 1))
                    t[-1][on] = np.concatenate([product_rows(left[c0:c1], v[:, s]) for s, c0, c1
                                                in zip(range(s0, s1), cuts, cuts[1:]) if c1 > c0])
                elif len(on):
                    if key not in products:  # y >= s0 alone when every term reads y >= i
                        read, y_bounded = need[key]
                        pi, po = np.nonzero(read[s0:s1])
                        lo = s0 if y_bounded else 0
                        flat = once((id(v), 0), lambda: v.reshape(len(v), -1))
                        p = product_rows(u[pi + s0, po], flat[:, lo * L:])
                        where = read[s0:s1].cumsum().reshape(s1 - s0, -1) - 1  # gathered rows
                        products[key] = lo, where, p.reshape(len(pi), -1, L)
                    lo, where, p = products[key]
                    t[-1][on] = p[where[i[on] - s0, x[on]], y[on] - lo]
            yield (i, a, b, 0), combine(t)
            if mirror is not None:
                swap = np.flatnonzero(a > i)
                swap = swap[np.lexsort((b[swap], i[swap], a[swap]))]
                yield (a[swap], i[swap], b[swap], 0), mirror([x[swap] for x in t])

    zero = [] if full.all() else [((0, 0, 0, 0), np.zeros((1, 1, 1, 1)))]
    return worst_entry(itertools.chain(zero, blocks()))


def _jacobi_worst(c: np.ndarray, antisymmetric: bool | None = None):
    """Location (i, j, k) and size of the worst Jacobi residual of finite constants c: the
    cyclic sum resid[i,j,k,l] = d[i,j,k,l] + d[j,k,i,l] + d[k,i,j,l] of the coordinates
    d[i,j,k,l] = sum_m c[i,j,m] c[m,k,l] of [[e_i,e_j],e_k], from ``residual_worst``.

    Exactly antisymmetric constants make each d antisymmetric in its first two indices, bit
    for bit.  Then only j, k >= i are formed: with a, b, c' the three terms at (i, j, k),
    resid[i,j,k] = (a + b) + c' and resid[j,i,k] = -((a + c') + b), and every other entry
    repeats the size of one of these later in C order.  Other constants keep the full sum.
    ``antisymmetric`` is ``exactly_antisymmetric(c)``, when the caller has it.
    """
    if antisymmetric is None:
        antisymmetric = exactly_antisymmetric(c)
    if antisymmetric:  # d[i, k, j] = -d[k, i, j], as c[k, i] = -c[i, k]
        terms = [(c, c, 0, False), (c, c, 2, False), (c, c, 0, True)]
        idx, worst = residual_worst(terms, lambda t: isub(t[0] + t[1], t[2]), c.shape,
                                    (True, True), mirror=lambda t: iadd(t[0] - t[2], t[1]))
    else:
        terms = [(c, c, 0, False), (c, c, 2, False), (c, c, 1, True)]
        idx, worst = residual_worst(terms, lambda t: iadd(t[0] + t[1], t[2]), c.shape)
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
            residual = c + c.transpose(1, 0, 2)
            antisymmetric = not residual.any()
            report.record("antisymmetry", *worst_entry([((0, 0, 0), residual)]), (cmax,))
            report.record("jacobi", *_jacobi_worst(c, antisymmetric), (cmax, cmax))

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
