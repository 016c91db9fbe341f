"""Semidirect product metric algebras g x| h built from an action by derivations.

The action is given per g-basis vector as a matrix on h.  Building the product
derives the transposed action matrices, the bilinear map h_map (via Gram
solves against its defining relation) and the isometric flag; the assembled
product spec with block diagonal Gram is built when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import iadd, isub

import numpy as np

from .algebra import (
    MAX_DIM,
    DenseBackend,
    MetricAlgebraSpec,
    ValidationReport,
    bilinear,
    exactly_antisymmetric,
    first_non_finite,
    residual_worst,
    skew_adjoint,
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

    A nan or infinite action entry fails both properties with a nan residual, as
    ``algebra.validate`` fails a non-finite structure constant.  Both residuals come from
    ``algebra.residual_worst``, which keeps the bits of their full products.
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

    ch, cg = h.structure, g.structure
    bmax = max(1.0, float(np.max(np.abs(B))))
    scale = bmax * max(1.0, float(np.max(np.abs(ch))))
    scale2 = (bmax, bmax, max(1.0, float(np.max(np.abs(cg)))))
    bt, cols = B.transpose(0, 2, 1), B.transpose(1, 0, 2)  # bt[i] = B[i]^T, cols[t, j] = B[j][t]
    # derivation: b(e_i)[f_p, f_q] - ([b(e_i) f_p, f_q] + [f_p, b(e_i) f_q]) at [i, p, q, r],
    # from ch B[i]^T, B[i]^T ch and B[i]^T ch[p]
    derivation = [(ch, B.transpose(2, 0, 1), 2, False), (bt, ch, 0, False),
                  (bt, ch.transpose(1, 0, 2), 0, True)]
    # homomorphism: b([e_i, e_j]) - (b(e_i) b(e_j) - b(e_j) b(e_i)) at [i, j, r, s], from
    # B[i] B[j], B[j] B[i] and cg B; for j >= i alone when g's constants are exactly
    # antisymmetric, as both sides then negate bit for bit when i and j swap
    homomorphism = [(B, cols, 0, True), (B, cols, 2, False), (cg, B, 0, False)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails with a nan
        report.record("derivation", *residual_worst(derivation, lambda t: np.subtract(
            t[0], iadd(t[1], t[2]), out=t[0]), (g.dim, h.dim, h.dim)), (scale,))
        report.record("homomorphism", *residual_worst(
            homomorphism, lambda t: isub(t[2], isub(t[0], t[1])), (g.dim, g.dim, h.dim),
            (exactly_antisymmetric(cg), False)), scale2)
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
