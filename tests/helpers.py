"""Shared fixtures-in-spirit: canonical builtin sets and numeric helpers."""

import math
from types import SimpleNamespace

import numpy as np

from liecurv import catalog, geodesic
from liecurv.algebra import DenseBackend
from liecurv.backend import Pair, SemidirectBackendBase
from liecurv.curvature import Plane
from liecurv.errors import MidpointDivergence, NonFiniteState, SamplingExhausted
from liecurv.geodesic import MIDPOINT_MAX_ITER, MIDPOINT_TOL, rhs_generic, rhs_semidirect
from liecurv.sampling import check_family, rng_for_seed
from liecurv.semidirect import SemidirectAlgebra
from liecurv.torus import (
    COS,
    SIN,
    FullFieldBackend,
    FunctionSpaceBackend,
    TrigFunction,
    TrigVectorField,
    canonical_wavevectors,
)

#: Seeds of the five random 4-dimensional solvable algebras used throughout.
SOLVABLE_SEEDS = (101, 102, 103, 104, 105)


def relerr(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def rel_vec_err(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def invariant_rate(gradient, rhs) -> float:
    """|C'(s) . RHS(s)| / (|C'(s)| |RHS(s)|) for the gradient of a function C of
    the state and the right-hand side at one state s, both in flat coordinates:
    zero, up to rounding, when C is an invariant of the flow."""
    return abs(gradient @ rhs) / (np.linalg.norm(gradient) * np.linalg.norm(rhs))


def finite_algebras():
    """Named finite-dimensional backends exercised by the property tests."""
    entries = [
        ("so3:I", DenseBackend(catalog.so3())),
        ("so3:diag123", DenseBackend(catalog.so3(gram=[1.0, 2.0, 3.0]))),
    ]
    for seed in SOLVABLE_SEEDS[:3]:
        entries.append((f"solvable4:{seed}", DenseBackend(catalog.random_solvable(4, seed))))
    return entries


def semidirect_builtins():
    """The canonical semidirect test set: five named plus five seeded random."""
    entries = [
        ("conjugation:so3:I", catalog.conjugation(catalog.so3())),
        ("conjugation:so3:diag123", catalog.conjugation(catalog.so3(gram=[1.0, 2.0, 3.0]))),
        ("linear_so3_on_r3", catalog.linear_so3_on_r3()),
        ("magnetic:so3:I", catalog.magnetic(catalog.so3())),
        ("magnetic:so3:diag123", catalog.magnetic(catalog.so3(gram=[1.0, 2.0, 3.0]))),
    ]
    for seed in SOLVABLE_SEEDS[:3]:
        entries.append((f"magnetic:solvable4:{seed}", catalog.magnetic(catalog.random_solvable(4, seed))))
    for seed in SOLVABLE_SEEDS[3:]:
        entries.append((f"conjugation:solvable4:{seed}", catalog.conjugation(catalog.random_solvable(4, seed))))
    return entries


def random_vectors(rng, dim, count):
    return [rng.standard_normal(dim) for _ in range(count)]


def random_pair(rng, sd) -> Pair:
    return Pair(rng.standard_normal(sd.g.dim), rng.standard_normal(sd.h.dim))


def reference_modes(backend, band: int):
    """The sampling basis of a torus factor backend as a list of elements, built
    mode by mode with ``TrigFunction``: the oracle for ``torus.ModeBasis``."""
    functions = [TrigFunction.constant(1.0)]
    for k in canonical_wavevectors(band):
        functions += [TrigFunction.mode(COS, k), TrigFunction.mode(SIN, k)]
    if isinstance(backend, FunctionSpaceBackend):
        return functions
    if isinstance(backend, FullFieldBackend):
        zero = TrigFunction.zero()
        return [TrigVectorField(f, zero) for f in functions] + [TrigVectorField(zero, f) for f in functions]
    fields = [TrigVectorField(TrigFunction.constant(1.0), TrigFunction.zero()),
              TrigVectorField(TrigFunction.zero(), TrigFunction.constant(1.0))]
    for k in canonical_wavevectors(band):
        for parity in (COS, SIN):
            fields.append(TrigVectorField(TrigFunction.mode(parity, k, float(-k[1])),
                                          TrigFunction.mode(parity, k, float(k[0]))))
    return fields


def reference_combine(basis, coeffs):
    """sum_j coeffs[:, j] * basis[j] for the rows of an array basis, added one by
    one in basis order: the oracle for the elements that ``sampling`` combines."""
    total = coeffs[:, :1] * basis[0]
    for j in range(1, len(basis)):
        total += coeffs[:, j, None] * basis[j]
    return total


def reference_random_element(backend, rng, band: int = 2, part: str | None = None):
    """One element or Pair per basis vector, summed in a loop: the oracle for
    the elements that ``sampling`` draws.  It builds its own list of basis
    elements."""
    if isinstance(backend, SemidirectAlgebra):
        gz, hz = np.zeros(backend.g.dim), np.zeros(backend.h.dim)
        gbasis, hbasis = np.eye(backend.g.dim), np.eye(backend.h.dim)
    elif isinstance(backend, SemidirectBackendBase):
        gz, hz = backend.g.zero(), backend.h.zero()
        gbasis, hbasis = reference_modes(backend.g, band), reference_modes(backend.h, band)
    if isinstance(backend, SemidirectBackendBase):
        basis = []
        if part in (None, "g"):
            basis.extend(Pair(e, hz) for e in gbasis)
        if part in (None, "h"):
            basis.extend(Pair(gz, e) for e in hbasis)
    elif isinstance(backend, DenseBackend):
        basis = list(np.eye(backend.dim))
    else:
        basis = reference_modes(backend, band)
    total = None
    for element, c in zip(basis, rng.standard_normal(len(basis))):
        piece = float(c) * element
        total = piece if total is None else total + piece
    return total


def _reference_normalize(backend, v):
    n = backend.norm(v)
    if n <= 1e-12:
        return None
    return (1.0 / n) * v


def reference_sample_planes(backend, seed: int, count: int, family: str = "full", band: int = 2):
    """One plane at a time, each leg by ``reference_random_element`` and then
    normalized and orthogonalized on its own: the oracle for
    ``sampling.sample_planes``, with the same rejections, budget and error."""
    part1, part2 = check_family(backend, family)
    rng = rng_for_seed(seed)
    planes = []
    budget = 100 * max(count, 1)
    while len(planes) < count:
        if budget <= 0:
            raise SamplingExhausted(f"no non-degenerate draw after 100x{count} retries")
        budget -= 1
        x = reference_random_element(backend, rng, band=band, part=part1)
        y = reference_random_element(backend, rng, band=band, part=part2)
        x = _reference_normalize(backend, x)
        if x is None:
            continue
        if family == "contains-h":
            y = _reference_normalize(backend, y)
            if y is None or 1.0 - backend.inner(x, y) ** 2 < 0.05:
                continue
        else:
            for _ in range(2):  # two Gram-Schmidt passes
                y = y - backend.inner(y, x) * x
            y = _reference_normalize(backend, y)
            if y is None:
                continue
        planes.append(Plane(x, y))
    return planes


def reference_pair_integrate(backend, state0, config):
    """Pair loop with one primitive call per right-hand-side term and the
    backend's own inner product and norm: the oracle for ``integrate`` with the
    compiled right-hand side on finite-dimensional backends.  Returns the
    states and the energies."""
    if isinstance(backend, SemidirectBackendBase):
        def rhs(state):
            return Pair(*rhs_semidirect(backend, state.x, state.y))
    else:
        def rhs(u):
            return rhs_generic(backend, u)
    dt = config.dt

    def step(state):
        if config.scheme == "rk4":
            k1 = rhs(state)
            k2 = rhs(state + (0.5 * dt) * k1)
            k3 = rhs(state + (0.5 * dt) * k2)
            k4 = rhs(state + dt * k3)
            return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mid = state + (0.5 * dt) * rhs(state)
        for _ in range(MIDPOINT_MAX_ITER):
            nxt = state + (0.5 * dt) * rhs(mid)
            if backend.norm(nxt - mid) <= MIDPOINT_TOL * (1.0 + backend.norm(state)):
                return 2.0 * nxt - state
            mid = nxt
        raise MidpointDivergence("reference fixed point not reached")

    states = [state0]
    for _ in range(config.steps):
        states.append(step(states[-1]))
    return states, [backend.inner(s, s) for s in states]


class _GramMetric:
    """Inner product and norm of flat coordinate vectors under a Gram matrix."""

    def __init__(self, gram):
        self.gram = gram

    def inner(self, a, b) -> float:
        return float(a.dot(self.gram).dot(b))

    def norm(self, a) -> float:
        return math.sqrt(max(self.inner(a, a), 0.0))


def reference_flat_rhs(backend):
    """The compiled right-hand side on flat coordinates, in two ``@`` products."""
    gamma = reference_rhs_tensor(backend)
    m = gamma.shape[0]
    return lambda s: s @ (s @ gamma).reshape(m, m)


def reference_integrate(rhs, state0, config, backend):
    """The fixed-step loop over flat coordinates of a finite-dimensional backend,
    with a Gram metric object, every norm formed from its state, and every state
    converted back to a backend element as the run ends: the oracle for
    ``integrate``, bit for bit.  ``rhs`` maps flat vectors to flat vectors, as
    ``reference_flat_rhs`` does.  Returns an object with ``times``, ``states``
    and ``energy``."""
    if isinstance(backend, SemidirectAlgebra):
        ng = backend.g.dim
        metric, state = _GramMetric(backend.gram), backend.join(state0)

        def to_state(v):
            return Pair(v[:ng], v[ng:])
    else:
        metric, state = _GramMetric(backend.spec.gram), backend._coerce(state0)

        def to_state(v):
            return v
    dt = config.dt

    def step(state):
        if config.scheme == "rk4":
            k1 = rhs(state)
            k2 = rhs(state + (0.5 * dt) * k1)
            k3 = rhs(state + (0.5 * dt) * k2)
            k4 = rhs(state + dt * k3)
            return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mid = state + (0.5 * dt) * rhs(state)
        bound = MIDPOINT_TOL * (1.0 + metric.norm(state))
        for _ in range(geodesic.MIDPOINT_MAX_ITER):
            size = metric.norm(mid)
            if not math.isfinite(size) or size > 1e50:
                raise MidpointDivergence(f"fixed-point iterate diverged (dt={dt})")
            nxt = state + (0.5 * dt) * rhs(mid)
            if metric.norm(nxt - mid) <= bound:
                return 2.0 * nxt - state
            mid = nxt
        raise MidpointDivergence(
            f"fixed point not reached in {geodesic.MIDPOINT_MAX_ITER} iterations (dt={dt})"
        )

    traj = SimpleNamespace(times=[], states=[], energy=[])

    def record(n, state):
        energy = float(metric.inner(state, state))
        if not math.isfinite(energy):
            raise NonFiniteState(f"energy {energy} after {n} steps (dt={dt})")
        traj.times.append(n * dt)
        traj.states.append(state)
        traj.energy.append(energy)

    record(0, state)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, config.steps + 1):
            state = step(state)
            record(n, state)
    traj.states = [to_state(v) for v in traj.states]
    return traj


def _state_parts(state) -> dict:
    return {"u": state.x, "alpha": state.y} if isinstance(state, Pair) else {"u": state}


def reference_trajectory_csv_lines(traj):
    """CSV of a trajectory formatted from its backend elements, part by part:
    the oracle for ``configio.trajectory_csv_lines``."""
    first = _state_parts(traj.states[0])
    header = ["t"] + [f"{key}{i+1}" for key, part in first.items() for i in range(len(part))]
    lines = [",".join(header + ["energy"])]
    for t, state, energy in zip(traj.times, traj.states, traj.energy):
        coords = [c for part in _state_parts(state).values() for c in np.asarray(part, float).tolist()]
        lines.append(",".join(map(repr, [float(t), *coords, float(energy)])))
    return lines


def reference_skew_adjoint(mats, gram, tol: float = 1e-10) -> bool:
    """One matrix at a time: the oracle for ``algebra.skew_adjoint``."""
    scale = max(1.0, float(np.max(np.abs(mats))) * float(np.max(np.abs(gram))))
    for m in mats:
        if np.max(np.abs(gram @ m + m.T @ gram)) > tol * scale:
            return False
    return True


def reference_derivation(h_spec, action):
    """Location and size of the largest residual of the derivation property
    b(e_i)[f_p, f_q] - [b(e_i) f_p, f_q] - [f_p, b(e_i) f_q] over every (i, p, q, r), in the
    full products that ``semidirect.validate_action`` formed before it formed rows: its
    oracle, bit for bit.  (An einsum of the same terms sums in another order, and rounds
    otherwise: on ``conjugation:random-solvable:6:2`` it finds 1.1e-16 where they find 0.)"""
    B, ch = action.matrices, h_spec.structure
    nh = ch.shape[0]

    def resid(i):
        lhs = (ch.reshape(nh * nh, nh) @ B[i].T).reshape(nh, nh, nh)
        return lhs - ((B[i].T @ ch.reshape(nh, nh * nh)).reshape(nh, nh, nh) + B[i].T @ ch)

    return _first_worst((i, resid(i)) for i in range(len(B)))


def _first_worst(blocks):
    """The entry np.argmax finds on an array given as its slices ``(i, array[i])`` in
    order: the first largest |entry|, or the first nan."""
    where, worst = (), 0.0
    for i, block in blocks:
        size = np.abs(block)
        j = np.unravel_index(np.argmax(size), size.shape)
        if not where or size[j] > worst or (size[j] != size[j] and worst == worst):
            where, worst = (i, *(int(k) for k in j)), float(size[j])
    return where, worst


def reference_jacobi(c):
    """Location (i, j, k) and size of the worst Jacobi residual, from the sum over every
    (i, j, k) in the products that ``algebra.validate`` formed before it used the
    antisymmetry of the residual: its oracle, bit for bit."""
    n = c.shape[0]
    rows = c.reshape(n, n * n)
    pairs = c.reshape(n * n, n)

    def resid(i):
        d_ijk = (c[i] @ rows).reshape(n, n, n)
        d_jki = (pairs @ c[:, i, :]).reshape(n, n, n)
        d_kij = (c[:, i, :] @ rows).reshape(n, n, n).transpose(1, 0, 2)
        return d_ijk + d_jki + d_kij

    where, worst = _first_worst((i, resid(i)) for i in range(n))
    return where[:3], worst


def reference_homomorphism(g_spec, action):
    """Location and size of the worst residual of b([e_i, e_j]) = [b(e_i), b(e_j)] over
    every (i, j), in the products that ``semidirect.validate_action`` formed before it
    used their antisymmetry: its oracle, bit for bit."""
    B, cg = action.matrices, g_spec.structure
    ng, nh = B.shape[0], B.shape[1]

    def resid(i):
        lhs = (cg[i] @ B.reshape(ng, nh * nh)).reshape(ng, nh, nh)
        return lhs - (B[i] @ B - B @ B[i])

    return _first_worst((i, resid(i)) for i in range(ng))


def reference_rhs_tensor(backend) -> np.ndarray:
    """The compiled right-hand side's tensor -ad(e_i)^T e_j, built on identity rows
    with one branch for Pair elements and one for arrays: the oracle for
    ``QuadraticRHS``."""
    if isinstance(backend, SemidirectAlgebra):
        ng = backend.g.dim
        rows = np.eye(ng + backend.h.dim)
        gamma = backend.ad_transpose(Pair(rows[:, None, :ng], rows[:, None, ng:]),
                                     Pair(rows[None, :, :ng], rows[None, :, ng:]))
        gamma = np.concatenate([gamma.x, gamma.y], axis=-1)
    else:
        rows = np.eye(backend.dim)
        gamma = backend.ad_transpose(rows[:, None], rows[None])
    m = gamma.shape[0]
    return np.ascontiguousarray(-gamma.reshape(m, m * m))


def reference_product_structure(sd: SemidirectAlgebra) -> np.ndarray:
    """Structure constants of the assembled product, the action blocks filled one
    g-basis vector at a time: the oracle for ``SemidirectAlgebra.product_spec``."""
    ng, nh = sd.g.dim, sd.h.dim
    c = np.zeros((ng + nh,) * 3)
    c[:ng, :ng, :ng] = sd.g.spec.structure
    c[ng:, ng:, ng:] = sd.h.spec.structure
    for i in range(ng):
        c[i, ng:, ng:] = sd.action.matrices[i].T
        c[ng:, i, ng:] = -sd.action.matrices[i].T
    return c


def reference_random_solvable(dim: int, seed: int) -> np.ndarray:
    """Structure constants of ``catalog.random_solvable``, filled one column of the
    derivation at a time: its oracle."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    d = np.triu(rng.uniform(-1.0, 1.0, size=(dim - 1, dim - 1)))
    c = np.zeros((dim, dim, dim))
    for j in range(1, dim):
        c[0, j, 1:] = d[:, j - 1]
        c[j, 0, 1:] = -d[:, j - 1]
    return c


def _canonical(k1: int, k2: int, parity: str, coeff: float):
    """Fold a raw mode onto its canonical representative (or None if it vanishes)."""
    if k1 == 0 and k2 == 0:
        return ((0, 0, COS), coeff) if parity == COS else None
    if k1 > 0 or (k1 == 0 and k2 > 0):
        return ((k1, k2, parity), coeff)
    return ((-k1, -k2, parity), coeff if parity == COS else -coeff)


def reference_multiply(f: TrigFunction, g: TrigFunction) -> TrigFunction:
    """Pairwise product-to-sum loop: the oracle for ``torus.multiply``."""
    out: dict = {}

    def put(k1, k2, parity, coeff):
        entry = _canonical(k1, k2, parity, coeff)
        if entry is not None:
            key, val = entry
            out[key] = out.get(key, 0.0) + val

    for (a1, a2, p), ca in f.modes.items():
        for (b1, b2, q), cb in g.modes.items():
            c = 0.5 * ca * cb
            sm = (a1 + b1, a2 + b2)
            df = (a1 - b1, a2 - b2)
            if p == COS and q == COS:
                put(*df, COS, c)
                put(*sm, COS, c)
            elif p == SIN and q == SIN:
                put(*df, COS, c)
                put(*sm, COS, -c)
            elif p == SIN and q == COS:
                put(*sm, SIN, c)
                put(*df, SIN, c)
            else:  # cos * sin
                put(*sm, SIN, c)
                put(*df, SIN, -c)
    return TrigFunction(out)


def reference_leray(x: TrigVectorField) -> TrigVectorField:
    """Per-mode loop over the canonical modes: the oracle for ``torus.leray_project``."""
    m1, m2 = x.comp1.modes, x.comp2.modes
    out1, out2 = {}, {}
    for key in {**m1, **m2}:
        k1, k2, _parity = key
        v1, v2 = m1.get(key, 0.0), m2.get(key, 0.0)
        if (k1, k2) != (0, 0):
            coeff = (v1 * k1 + v2 * k2) / float(k1 * k1 + k2 * k2)
            v1 -= coeff * k1
            v2 -= coeff * k2
        out1[key], out2[key] = v1, v2
    return TrigVectorField(TrigFunction(out1), TrigFunction(out2))


def check_h_identity(sd, y1, y2, x1, x2) -> float:
    """Relative residual of <h(Y1,Y2), [X1,X2]> = <b(X1)^T Y2, b(X2) Y1> - <b(X2)^T Y2, b(X1) Y1>."""
    lhs = sd.g.inner(sd.h_map(y1, y2), sd.g.bracket(x1, x2))
    rhs = sd.h.inner(sd.b_transpose(x1, y2), sd.b(x2, y1)) - sd.h.inner(
        sd.b_transpose(x2, y2), sd.b(x1, y1)
    )
    norms = (sd.h.norm(y1), sd.h.norm(y2), sd.g.norm(x1), sd.g.norm(x2))
    return abs(lhs - rhs) / math.prod(1.0 + n for n in norms)


def check_derivation_identity(sd, x, y1, y2, y3) -> float:
    """Relative residual of <[Y1,Y2], b(X)^T Y3> = <b(X) Y2, ad(Y1)^T Y3> - <b(X) Y1, ad(Y2)^T Y3>."""
    lhs = sd.h.inner(sd.h.bracket(y1, y2), sd.b_transpose(x, y3))
    rhs = sd.h.inner(sd.b(x, y2), sd.h.ad_transpose(y1, y3)) - sd.h.inner(
        sd.b(x, y1), sd.h.ad_transpose(y2, y3)
    )
    norms = (sd.g.norm(x), sd.h.norm(y1), sd.h.norm(y2), sd.h.norm(y3))
    return abs(lhs - rhs) / math.prod(1.0 + n for n in norms)
