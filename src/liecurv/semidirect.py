"""Semidirect product metric algebras g x| h built from an action by derivations.

The action is given per g-basis vector as a matrix on h.  Building the product
derives the transposed action matrices, the bilinear map h_map (via Gram
solves against its defining relation) and the isometric flag; the assembled
product spec with block diagonal Gram is built when first read.
"""

from __future__ import annotations

import math
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
    skew_adjoint,
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
    as ``algebra.validate`` fails a non-finite structure constant.
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
    # [i, p, q, r] built one i at a time so that no temporary holds more than nh^3 entries
    def derivation(i):
        lhs = (ch.reshape(nh * nh, nh) @ B[i].T).reshape(nh, nh, nh)
        rhs = (B[i].T @ ch.reshape(nh, nh * nh)).reshape(nh, nh, nh) + B[i].T @ ch
        return lhs - rhs

    # homomorphism: b([e_i, e_j]) = b(e_i) b(e_j) - b(e_j) b(e_i), residuals [i, j, r, s].
    # With exactly antisymmetric constants of g both sides negate bit for bit when i and j
    # swap, so only j >= i is formed
    cg = g.structure
    scale2 = (bmax, bmax, max(1.0, float(np.max(np.abs(cg)))))
    flat = B.reshape(ng, nh * nh)
    half = not (cg + cg.transpose(1, 0, 2)).any()

    def homomorphism(i):
        s = i if half else 0
        resid = (cg[i, s:] @ flat).reshape(ng - s, nh, nh)
        commutator = B[i] @ B[s:]
        commutator -= B[s:] @ B[i]
        resid -= commutator
        return (i, s, 0, 0), resid[None]

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails with a nan
        # every term has a structure constant of h as a factor, so an abelian h (the dual
        # of a magnetic extension) gives zeros: record the entry np.argmax finds on them
        worst = (worst_entry(((i, 0, 0, 0), derivation(i)[None]) for i in range(ng))
                 if ch.any() else ((0, 0, 0, 0), 0.0))
        report.record("derivation", *worst, (scale,))
        report.record("homomorphism", *worst_entry(homomorphism(i) for i in range(ng)), scale2)
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


def check_h_identity(sd: SemidirectAlgebra, y1, y2, x1, x2) -> float:
    """Relative residual of <h(Y1,Y2), [X1,X2]> = <b(X1)^T Y2, b(X2) Y1> - <b(X2)^T Y2, b(X1) Y1>."""
    lhs = sd.g.inner(sd.h_map(y1, y2), sd.g.bracket(x1, x2))
    rhs = sd.h.inner(sd.b_transpose(x1, y2), sd.b(x2, y1)) - sd.h.inner(
        sd.b_transpose(x2, y2), sd.b(x1, y1)
    )
    norms = (sd.h.norm(y1), sd.h.norm(y2), sd.g.norm(x1), sd.g.norm(x2))
    return abs(lhs - rhs) / math.prod(1.0 + n for n in norms)


def check_derivation_identity(sd: SemidirectAlgebra, x, y1, y2, y3) -> float:
    """Relative residual of <[Y1,Y2], b(X)^T Y3> = <b(X) Y2, ad(Y1)^T Y3> - <b(X) Y1, ad(Y2)^T Y3>."""
    lhs = sd.h.inner(sd.h.bracket(y1, y2), sd.b_transpose(x, y3))
    rhs = sd.h.inner(sd.b(x, y2), sd.h.ad_transpose(y1, y3)) - sd.h.inner(
        sd.b(x, y1), sd.h.ad_transpose(y2, y3)
    )
    norms = (sd.g.norm(x), sd.h.norm(y1), sd.h.norm(y2), sd.h.norm(y3))
    return abs(lhs - rhs) / math.prod(1.0 + n for n in norms)
