"""Semidirect product metric algebras g x| h built from an action by derivations.

The action is given per g-basis vector as a matrix on h.  Building the product
derives the transposed action matrices, the bilinear map h_map (via Gram
solves against its defining relation), the assembled product spec with block
diagonal Gram, and the isometric flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .algebra import ADJOINT_TOL, JACOBI_TOL, DenseBackend, MetricAlgebraSpec, ValidationReport, validate
from .backend import Pair, SemidirectBackendBase, as_pair
from .errors import DimensionMismatch, ValidationFailure


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


def validate_action(
    g: MetricAlgebraSpec,
    h: MetricAlgebraSpec,
    action: ActionSpec,
    tol: float = JACOBI_TOL,
) -> ValidationReport:
    """Check shapes, the derivation property and the homomorphism property."""
    report = ValidationReport(subject="action")
    report.checked = ["shape", "derivation", "homomorphism"]
    if action.dim_g != g.dim or action.dim_h != h.dim:
        report.add("shape", (action.dim_g, action.dim_h), float("nan"),
                   f"expected ({g.dim}, {h.dim}, {h.dim})")
        return report

    B = action.matrices
    ch = h.structure
    scale = max(1.0, float(np.max(np.abs(B)))) * max(1.0, float(np.max(np.abs(ch))))

    # derivation: b(e_i)[f_p, f_q] = [b(e_i) f_p, f_q] + [f_p, b(e_i) f_q]
    lhs = np.einsum("irs,pqs->ipqr", B, ch)
    rhs = np.einsum("isp,sqr->ipqr", B, ch) + np.einsum("isq,psr->ipqr", B, ch)
    resid = lhs - rhs
    idx = np.unravel_index(np.argmax(np.abs(resid)), resid.shape)
    if abs(resid[idx]) > tol * scale:
        report.add("derivation", idx, float(abs(resid[idx])) / scale)

    # homomorphism: b([e_i, e_j]) = b(e_i) b(e_j) - b(e_j) b(e_i)
    cg = g.structure
    lhs = np.einsum("ijk,krs->ijrs", cg, B)
    rhs = np.einsum("irt,jts->ijrs", B, B) - np.einsum("jrt,its->ijrs", B, B)
    scale2 = max(1.0, float(np.max(np.abs(B)))) ** 2 * max(1.0, float(np.max(np.abs(cg))))
    resid = lhs - rhs
    idx = np.unravel_index(np.argmax(np.abs(resid)), resid.shape)
    if abs(resid[idx]) > tol * scale2:
        report.add("homomorphism", idx, float(abs(resid[idx])) / scale2)
    return report


def _assemble_product_spec(g: MetricAlgebraSpec, h: MetricAlgebraSpec, B: np.ndarray, name: str):
    ng, nh = g.dim, h.dim
    n = ng + nh
    c = np.zeros((n, n, n))
    c[:ng, :ng, :ng] = g.structure
    c[ng:, ng:, ng:] = h.structure
    for i in range(ng):
        # [(e_i, 0), (0, f_q)] = (0, b(e_i) f_q)
        c[i, ng:, ng:] = B[i].T
        c[ng:, i, ng:] = -B[i].T
    gram = np.zeros((n, n))
    gram[:ng, :ng] = g.gram
    gram[ng:, ng:] = h.gram
    return MetricAlgebraSpec(structure=c, gram=gram, name=name)


class SemidirectAlgebra(SemidirectBackendBase):
    """Finite-dimensional semidirect product with cached derived tensors.

    ``h_tensor[p, q]`` holds the g-coordinates of h_map(f_p, f_q); the
    transposed action matrices are cached per g-basis vector.  The fully
    assembled product spec (and its DenseBackend) provides the independent
    route to all product-algebra quantities.
    """

    def __init__(self, g_spec, h_spec, action: ActionSpec, name: str = "",
                 tol: float = JACOBI_TOL, check: bool = True):
        if check:
            for spec in (g_spec, h_spec):
                report = validate(spec, jacobi_tol=tol)
                if not report.passed:
                    raise ValidationFailure(report)
            report = validate_action(g_spec, h_spec, action, tol=tol)
            if not report.passed:
                raise ValidationFailure(report)
        self.g_spec = g_spec
        self.h_spec = h_spec
        self.action = action
        self.name = name or f"{g_spec.name or 'g'}|x{h_spec.name or 'h'}"
        self.g = DenseBackend(g_spec, check=False)
        self.h = DenseBackend(h_spec, check=False)

        B = action.matrices
        gram_h = h_spec.gram
        # b(e_i)^T = G_h^{-1} B_i^T G_h
        self._bt = np.stack([cho_solve(self.h._cho, B[i].T @ gram_h) for i in range(g_spec.dim)])
        # h_tensor via <h(f_p, f_q), e_i> = <b(e_i) f_p, f_q>
        v = np.einsum("irp,rq->ipq", B, gram_h)
        flat = cho_solve(self.g._cho, v.reshape(g_spec.dim, -1))
        self._h_tensor = flat.reshape(g_spec.dim, h_spec.dim, h_spec.dim).transpose(1, 2, 0)

        skew = [np.max(np.abs(gram_h @ B[i] + B[i].T @ gram_h)) for i in range(g_spec.dim)]
        scale = max(1.0, float(np.max(np.abs(B))) * float(np.max(np.abs(gram_h))))
        self._isometric = bool(max(skew, default=0.0) <= ADJOINT_TOL * scale)

        self.product_spec = _assemble_product_spec(g_spec, h_spec, B, f"{self.name} (product)")
        self.product = DenseBackend(self.product_spec, check=False)

    # -- semidirect operation set --

    def b(self, x, y):
        return np.einsum("i,ipq,q->p", self.g._coerce(x), self.action.matrices, self.h._coerce(y))

    def b_transpose(self, x, y):
        return np.einsum("i,ipq,q->p", self.g._coerce(x), self._bt, self.h._coerce(y))

    def h_map(self, y1, y2):
        return np.einsum("p,q,pqk->k", self.h._coerce(y1), self.h._coerce(y2), self._h_tensor)

    @property
    def isometric(self) -> bool:
        return self._isometric

    # -- conversions between pairs and assembled product coordinates --

    def join(self, p) -> np.ndarray:
        p = as_pair(p)
        return np.concatenate([self.g._coerce(p.x), self.h._coerce(p.y)])

    def split(self, v) -> Pair:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.g.dim + self.h.dim,):
            raise DimensionMismatch(f"expected vector of length {self.g.dim + self.h.dim}")
        return Pair(v[: self.g.dim], v[self.g.dim:])


def build_semidirect(g_spec, h_spec, action, name: str = "", tol: float = JACOBI_TOL) -> SemidirectAlgebra:
    """Validate the factors and the action, then assemble the product."""
    if not isinstance(action, ActionSpec):
        action = ActionSpec(np.asarray(action, dtype=float))
    return SemidirectAlgebra(g_spec, h_spec, action, name=name, tol=tol, check=True)


def _scale(*norms: float) -> float:
    s = 1.0
    for n in norms:
        s *= 1.0 + n
    return s


def check_h_identity(sd: SemidirectAlgebra, y1, y2, x1, x2) -> float:
    """Relative residual of <h(Y1,Y2), [X1,X2]> = <b(X1)^T Y2, b(X2) Y1> - <b(X2)^T Y2, b(X1) Y1>."""
    lhs = sd.g.inner(sd.h_map(y1, y2), sd.g.bracket(x1, x2))
    rhs = sd.h.inner(sd.b_transpose(x1, y2), sd.b(x2, y1)) - sd.h.inner(
        sd.b_transpose(x2, y2), sd.b(x1, y1)
    )
    return abs(lhs - rhs) / _scale(sd.h.norm(y1), sd.h.norm(y2), sd.g.norm(x1), sd.g.norm(x2))


def check_derivation_identity(sd: SemidirectAlgebra, x, y1, y2, y3) -> float:
    """Relative residual of <[Y1,Y2], b(X)^T Y3> = <b(X) Y2, ad(Y1)^T Y3> - <b(X) Y1, ad(Y2)^T Y3>."""
    lhs = sd.h.inner(sd.h.bracket(y1, y2), sd.b_transpose(x, y3))
    rhs = sd.h.inner(sd.b(x, y2), sd.h.ad_transpose(y1, y3)) - sd.h.inner(
        sd.b(x, y1), sd.h.ad_transpose(y2, y3)
    )
    return abs(lhs - rhs) / _scale(sd.g.norm(x), sd.h.norm(y1), sd.h.norm(y2), sd.h.norm(y3))
