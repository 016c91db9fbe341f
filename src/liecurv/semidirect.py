"""Semidirect product metric algebras g x| h built from an action by derivations.

The action is given per g-basis vector as a matrix on h.  Building the product
derives the transposed action matrices, the bilinear map h_map (via Gram
solves against its defining relation) and the isometric flag; the assembled
product spec with block diagonal Gram is built when first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    MAX_DIM,
    DenseBackend,
    MetricAlgebraSpec,
    ValidationReport,
    bilinear,
    first_non_finite,
    plan_slabs,
    product_rows,
    skew_adjoint,
    spread_rows,
    worst_entry,
)
from .backend import SemidirectBackendBase
from .errors import ConfigError, ValidationFailure


@dataclass(eq=False)
class ActionSpec:
    """Per-basis action matrices: matrices[i] represents b(e_i) on h."""

    matrices: np.ndarray

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=float)
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError("action must be a stack of square matrices")

    @property
    def dim_g(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim_h(self) -> int:
        return self.matrices.shape[1]


def validate_action(g: MetricAlgebraSpec, h: MetricAlgebraSpec, action: ActionSpec) -> ValidationReport:
    """Check shapes, the derivation property and the homomorphism property.

    A nan or infinite action entry fails both properties with a nan residual,
    as ``algebra.validate`` fails a non-finite structure constant.  Each check forms
    its residual one slab i at a time.  In a slab where at most half the rows can be
    nonzero, as the any-masks of their factors show, it forms those rows only, with the
    dot products of the full products, so the report keeps their bits.  Constants of h
    that are not finite keep every derivation row, as a zero factor times an inf is nan.
    """
    report = ValidationReport(subject="action")
    if action.dim_g != g.dim or action.dim_h != h.dim:
        report.record("shape", (action.dim_g, action.dim_h), float("nan"),
                      message=f"expected ({g.dim}, {h.dim}, {h.dim})")
        return report
    report.record("shape")

    B = action.matrices
    bad = first_non_finite(B)
    if bad is not None:
        for invariant in ("derivation", "homomorphism"):
            report.record(invariant, bad, float("nan"), message="non-finite action entry")
        return report

    ch = h.structure
    ng, nh = g.dim, h.dim
    bmax = max(1.0, float(np.max(np.abs(B))))
    scale = bmax * max(1.0, float(np.max(np.abs(ch))))

    # derivation: b(e_i)[f_p, f_q] = [b(e_i) f_p, f_q] + [f_p, b(e_i) f_q], residuals
    # [i, p, q, r] built one i at a time so that no temporary holds more than nh^3 entries.
    # The terms of row (i, p, q) have the factors ch[p, q], column p of B[i] and column q of
    # B[i], and are formed as the Jacobi sum's are (``algebra.plan_slabs``).  A zero factor
    # times an inf is nan, not zero, so constants of h that are not finite keep every row.
    on_h = ch.any(axis=2)  # on_h[p, q]: ch[p, q, :] has a nonzero entry
    on_q, on_p = on_h.any(axis=0), on_h.any(axis=1)  # some ch[:, q], some ch[p] is nonzero
    col_b = B.any(axis=1)  # col_b[i, p]: column p of B[i] has a nonzero entry
    live_d = col_b[:, :, None] & on_q
    live_d |= on_p[:, None] & col_b[:, None]
    live_d |= on_h
    if not np.isfinite(ch).all():
        live_d[:] = True
    count = live_d.reshape(ng, -1).sum(axis=1).tolist()
    dense_d, busy_d, zero_d = plan_slabs(count, [nh * nh] * ng)
    if not all(dense_d[i] for i in busy_d):
        ch_pq = ch[on_h]  # the nonzero rows ch[p, q], in C order
        ch_q = ch[:, on_q].reshape(nh, -1)  # ch_q[s, (q, r)] = ch[s, q, r]
        ch_p = np.ascontiguousarray(ch[on_p].transpose(1, 0, 2))  # ch_p[s, p, r] = ch[p, s, r]

    def derivation(i):
        if dense_d[i]:
            lhs = (ch.reshape(nh * nh, nh) @ B[i].T).reshape(nh, nh, nh)
            rhs = (B[i].T @ ch.reshape(nh, nh * nh)).reshape(nh, nh, nh) + B[i].T @ ch
            return (i, 0, 0, 0), (lhs - rhs)[None]
        p, q = np.divmod(np.flatnonzero(live_d[i]), nh)
        bt = B[i].T[col_b[i]]  # the nonzero columns of B[i], as rows
        lhs = spread_rows(on_h[p, q], product_rows(ch_pq, B[i].T))
        rhs = spread_rows(col_b[i, p] & on_q[q], product_rows(bt, ch_q).reshape(-1, nh))
        rhs_q = product_rows(bt, ch_p.reshape(nh, -1)).reshape((len(bt),) + ch_p.shape[1:])
        rhs_q = rhs_q.transpose(1, 0, 2)
        rhs += spread_rows(on_p[p] & col_b[i, q], rhs_q.reshape(-1, nh))
        return (i, p, q, 0), lhs - rhs

    # homomorphism: b([e_i, e_j]) = b(e_i) b(e_j) - b(e_j) b(e_i), residuals [i, j, r, s].
    # With exactly antisymmetric constants of g both sides negate bit for bit when i and j
    # swap, so only j >= i is formed.  The terms of row (i, j, r) have the factors cg[i, j],
    # row r of B[i] and row r of B[j], and are formed as the derivation's are
    cg = g.structure
    scale2 = (bmax, bmax, max(1.0, float(np.max(np.abs(cg)))))
    flat = B.reshape(ng, nh * nh)
    half = not (cg + cg.transpose(1, 0, 2)).any()
    row_b = B.any(axis=2)  # row_b[i, r]: row r of B[i] has a nonzero entry
    if row_b.all():  # no B[i] has a zero row, so every row of every slab can be nonzero
        dense_h, busy_h, zero_h = [True] * ng, range(ng), []
    else:
        on_g = cg.any(axis=2)  # on_g[i, j]: cg[i, j, :] has a nonzero entry
        pairs = row_b & row_b.any(axis=1)[:, None, None]  # row r of B[j] B[i] can be nonzero
        live_h = on_g[:, :, None] | row_b[:, None]
        live_h |= pairs
        start = [i if half else 0 for i in range(ng)]  # slab i forms the rows j >= start[i]
        count = [np.count_nonzero(live_h[i, s:]) for i, s in enumerate(start)]
        dense_h, busy_h, zero_h = plan_slabs(count, [(ng - s) * nh for s in start])
        cols = B.transpose(1, 0, 2).reshape(nh, ng * nh)  # cols[q, (j, s)] = B[j][q, s]

    def homomorphism(i):
        s = i if half else 0
        if dense_h[i]:
            resid = (cg[i, s:] @ flat).reshape(ng - s, nh, nh)
            commutator = B[i] @ B[s:]
            commutator -= B[s:] @ B[i]
            resid -= commutator
            return (i, s, 0, 0), resid[None]
        j, r = np.divmod(np.flatnonzero(live_h[i, s:]), nh)
        on_j = np.flatnonzero(on_g[i, s:])
        resid = spread_rows(on_g[i, s + j], product_rows(cg[i, s + on_j], flat).reshape(-1, nh))
        left = product_rows(B[i][row_b[i]], cols[:, s * nh:])  # rows r of B[i] B[j], all j
        left = left.reshape(len(left), ng - s, nh).transpose(1, 0, 2).reshape(-1, nh)
        pj, pr = np.nonzero(pairs[i, s:])
        commutator = spread_rows(row_b[i, r], left)
        commutator -= spread_rows(pairs[i, s + j, r], product_rows(B[s + pj, pr], B[i]))
        resid -= commutator
        return (i, s + j, r, 0), resid

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails with a nan
        report.record("derivation", *worst_entry(
            itertools.chain(zero_d, (derivation(i) for i in busy_d))), (scale,))
        report.record("homomorphism", *worst_entry(
            itertools.chain(zero_h, (homomorphism(i) for i in busy_h))), scale2)
    return report


def check_product_dim(ng: int, nh: int) -> int:
    """Dimension of a product of factors of dimensions ng and nh, refused above
    ``MAX_DIM``: the assembled structure constants and the geodesic tensor each
    take its cube in floats."""
    n = ng + nh
    if n > MAX_DIM:
        raise ConfigError(f"product dimension {n} ({ng} + {nh}) exceeds the limit of {MAX_DIM}")
    return n


def _assemble_product_spec(g: MetricAlgebraSpec, h: MetricAlgebraSpec, B: np.ndarray,
                           gram: np.ndarray, name: str):
    ng, nh = g.dim, h.dim
    n = check_product_dim(ng, nh)
    c = np.zeros((n, n, n))
    c[:ng, :ng, :ng] = g.structure
    c[ng:, ng:, ng:] = h.structure
    # [(e_i, 0), (0, f_q)] = (0, b(e_i) f_q)
    c[:ng, ng:, ng:] = B.transpose(0, 2, 1)
    c[ng:, :ng, ng:] = -B.transpose(2, 0, 1)
    return MetricAlgebraSpec(structure=c, gram=gram, name=name)


class SemidirectAlgebra(SemidirectBackendBase):
    """Finite-dimensional semidirect product with cached derived tensors.

    Built from validated factor backends ``g`` and ``h`` and an action, which
    it validates and whose ``report`` it keeps.  The action matrices, their metric
    adjoints and the h_map tensor are cached in the layout of
    ``algebra.bilinear``, so b, b^T and h_map take single vectors or stacks.
    The fully assembled product spec (and its DenseBackend) provides the
    independent route to all product-algebra quantities; it is built on
    first use.
    """

    def __init__(self, g: DenseBackend, h: DenseBackend, action: ActionSpec, name: str = ""):
        self.report = validate_action(g.spec, h.spec, action)
        if not self.report.passed:
            raise ValidationFailure(self.report)
        self.g, self.h = g, h
        self.action = action
        self.name = name or f"{g.spec.name or 'g'}|x{h.spec.name or 'h'}"

        B = np.ascontiguousarray(action.matrices)
        gram_h = h.spec.gram
        self._b = B
        self._bt = h.adjoints(B)  # b(e_i)^T = G_h^-1 B_i^T G_h
        # h_map via <h(f_p, f_q), e_i> = <b(e_i) f_p, f_q>; _h_tensor[p, k, q] = h(f_p, f_q)_k
        v = np.swapaxes(B, 1, 2) @ gram_h  # v[i] = B_i^T G_h
        flat = g.gram_solve(v.reshape(g.dim, -1)).reshape(g.dim, h.dim, h.dim)
        self._h_tensor = np.ascontiguousarray(flat.transpose(1, 0, 2))
        self.isometric = skew_adjoint(B, gram_h)

    @cached_property
    def gram(self) -> np.ndarray:
        """Block-diagonal Gram matrix of the product in ``join`` coordinates."""
        ng, nh = self.g.dim, self.h.dim
        gram = np.zeros((ng + nh, ng + nh))
        gram[:ng, :ng] = self.g.spec.gram
        gram[ng:, ng:] = self.h.spec.gram
        return gram

    @cached_property
    def product_spec(self) -> MetricAlgebraSpec:
        return _assemble_product_spec(self.g.spec, self.h.spec, self._b, self.gram,
                                      f"{self.name} (product)")

    @cached_property
    def product(self) -> DenseBackend:
        return DenseBackend(self.product_spec, check=False)

    # -- semidirect operation set --

    def b(self, x, y):
        return bilinear(self._b, self.g._coerce(x), self.h._coerce(y))

    def b_transpose(self, x, y):
        return bilinear(self._bt, self.g._coerce(x), self.h._coerce(y))

    def h_map(self, y1, y2):
        return bilinear(self._h_tensor, self.h._coerce(y1), self.h._coerce(y2))

    # -- conversion to assembled product coordinates --

    def join(self, p) -> np.ndarray:
        return np.concatenate([self.g._coerce(p.x), self.h._coerce(p.y)], axis=-1)


def finite_dimensional(backend) -> bool:
    """Dense algebras and their semidirect products; everything else is a torus backend."""
    return isinstance(backend, (DenseBackend, SemidirectAlgebra))


def build_semidirect(g, h, action, name: str = "") -> SemidirectAlgebra:
    """Validate the factors and the action, then assemble the product.

    A factor is a spec, validated here, or a DenseBackend, validated when it
    was built.  Each spec is validated before its Gram matrix is factorised.
    """
    g, h = (part if isinstance(part, DenseBackend) else DenseBackend(part) for part in (g, h))
    if not isinstance(action, ActionSpec):
        action = ActionSpec(np.asarray(action, dtype=float))
    return SemidirectAlgebra(g, h, action, name=name)
