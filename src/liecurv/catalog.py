"""Constructors for the built-in algebras and semidirect products.

Every constructor returns fully validated objects ready for the curvature
and geodesic engines.  ``resolve_algebra`` / ``resolve_semidirect`` implement
the command-line name grammar, e.g. ``so3:1,2,3``, ``conjugation:so3``,
``magnetic:so3:1,2,3``, ``euclidean``, ``mhd``.
"""

from __future__ import annotations

import math

import numpy as np

from . import torus
from .algebra import MAX_DIM, DenseBackend, MetricAlgebraSpec
from .errors import ConfigError
from .semidirect import ActionSpec, SemidirectAlgebra, build_semidirect


def _gram_from(gram, dim: int) -> np.ndarray:
    if gram is None:
        return np.eye(dim)
    gram = np.asarray(gram, dtype=float)
    if gram.ndim == 1:
        if gram.shape != (dim,):
            raise ValueError(f"diagonal Gram needs {dim} entries")
        return np.diag(gram)
    return gram


def so3(gram=None) -> MetricAlgebraSpec:
    """so(3) with [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return MetricAlgebraSpec(structure=c, gram=_gram_from(gram, 3), name="so3")


def abelian(dim: int, gram=None, name: str = "abelian") -> MetricAlgebraSpec:
    return MetricAlgebraSpec(
        structure=np.zeros((dim, dim, dim)), gram=_gram_from(gram, dim), name=name
    )


def conjugation(g_spec: MetricAlgebraSpec) -> SemidirectAlgebra:
    """G acting on itself by conjugation: action b(X) = ad(X), h = g."""
    g = DenseBackend(g_spec)  # validated once, as both factors
    return build_semidirect(g, g, ActionSpec(g.ad(np.eye(g.dim))),
                            name=f"conjugation:{g_spec.name or 'g'}")


def linear_so3_on_r3() -> SemidirectAlgebra:
    """so(3) acting on abelian R^3 by the cross product, Euclidean Grams."""
    g = DenseBackend(so3())
    mats = g.ad(np.eye(3))
    h_spec = abelian(3, name="r3")
    return build_semidirect(g, h_spec, ActionSpec(mats), name="linear_so3_on_r3")


def euclidean() -> SemidirectAlgebra:
    """Algebra of the Euclidean group: alias for the linear so(3) action on R^3."""
    sd = linear_so3_on_r3()
    sd.name = "euclidean"
    return sd


def magnetic(g_spec: MetricAlgebraSpec) -> SemidirectAlgebra:
    """Magnetic extension of G, on inertia-operator representatives.

    The dual factor is the abelian copy of g carrying the same Gram; the
    coadjoint action reads b(X) Y = -ad(X)^T Y on representatives, with the
    derived identities b(X)^T Y = -ad(X) Y and h_map(Y1, Y2) = ad(Y2)^T Y1.
    """
    g = DenseBackend(g_spec)
    mats = -g._adt  # the stack of ad(e_i)^T, which the backend has formed already
    h_spec = abelian(g.dim, gram=g_spec.gram.copy(), name=f"{g_spec.name or 'g'}*_reg")
    return build_semidirect(g, h_spec, ActionSpec(mats), name=f"magnetic:{g_spec.name or 'g'}")


def random_solvable(dim: int, seed: int) -> MetricAlgebraSpec:
    """Seeded random solvable algebra with the Jacobi identity exact by construction.

    One generator acts on an abelian ideal spanned by the remaining basis
    vectors through an upper-triangular derivation matrix, so every double
    bracket lands in the abelian ideal and the Jacobi cyclic sum vanishes
    identically for any coefficient draw.
    """
    if dim < 2:
        raise ValueError("need dim >= 2")
    rng = np.random.default_rng(np.random.PCG64(seed))
    d = np.triu(rng.uniform(-1.0, 1.0, size=(dim - 1, dim - 1)))
    c = np.zeros((dim, dim, dim))
    c[0, 1:, 1:] = d.T
    c[1:, 0, 1:] = -d.T
    return MetricAlgebraSpec(structure=c, gram=np.eye(dim), name=f"solvable{dim}(seed={seed})")


def _parse_gram_args(arg: str, what: str):
    try:
        values = [float(tok) for tok in arg.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse Gram diagonal {arg!r} for {what}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"non-finite Gram diagonal {arg!r} for {what}")
    return values


def _algebra_spec_from_tokens(tokens: list[str]) -> MetricAlgebraSpec:
    head, rest = tokens[0], tokens[1:]
    if head == "so3":
        if not rest:
            return so3()
        if len(rest) == 1:
            try:
                return so3(gram=_parse_gram_args(rest[0], "so3"))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    if head == "random-solvable":
        if len(rest) == 2:
            try:
                dim, seed = int(rest[0]), int(rest[1])
            except ValueError:
                raise ConfigError(f"random-solvable needs integer dim and seed, got {rest}") from None
            if dim > MAX_DIM:
                raise ConfigError(f"random-solvable dimension {dim} exceeds the limit of {MAX_DIM}")
            if dim < 2:
                raise ConfigError(f"random-solvable dimension {dim} is below 2")
            if seed < 0:
                raise ConfigError(f"random-solvable seed {seed} is negative")
            return random_solvable(dim, seed)
    raise ConfigError(f"unknown algebra selector {':'.join(tokens)!r}")


def resolve_algebra(selector: str):
    """Builtin name -> backend.  Torus names return trigonometric backends."""
    tokens = selector.split(":")
    if tokens[0] in ("torus-vol", "torus-full"):
        if len(tokens) != 1:
            raise ConfigError(f"{tokens[0]} takes no parameters")
        return torus.VolumeFieldBackend() if tokens[0] == "torus-vol" else torus.FullFieldBackend()
    return DenseBackend(_algebra_spec_from_tokens(tokens))


def resolve_semidirect(selector: str):
    """Builtin semidirect name -> semidirect backend."""
    tokens = selector.split(":")
    head = tokens[0]
    if head in ("passive-scalar", "compressible", "mhd"):
        if len(tokens) != 1:
            raise ConfigError(f"{head} takes no parameters")
        return {
            "passive-scalar": torus.PassiveScalarBackend,
            "compressible": torus.CompressibleScalarBackend,
            "mhd": torus.MhdBackend,
        }[head]()
    if head in ("euclidean", "linear_so3_on_r3", "linear-so3-on-r3"):
        if len(tokens) != 1:
            raise ConfigError(f"{head} takes no parameters")
        return euclidean() if head == "euclidean" else linear_so3_on_r3()
    if head in ("conjugation", "magnetic"):
        if len(tokens) < 2:
            raise ConfigError(f"{head} needs an inner algebra, e.g. {head}:so3")
        inner = _algebra_spec_from_tokens(tokens[1:])
        return conjugation(inner) if head == "conjugation" else magnetic(inner)
    raise ConfigError(f"unknown semidirect selector {selector!r}")
