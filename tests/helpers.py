"""Shared fixtures-in-spirit: canonical builtin sets and numeric helpers."""

import math
from fractions import Fraction
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


def random_function(rng, band=2, scale=1.0) -> TrigFunction:
    """A function with a standard normal coefficient (times ``scale``) on every
    canonical mode of |k|_inf <= band."""
    modes = {}
    for k in canonical_wavevectors(band):
        for parity in (COS, SIN):
            modes[(k[0], k[1], parity)] = scale * rng.standard_normal()
    modes[(0, 0, COS)] = scale * rng.standard_normal()
    return TrigFunction(modes)


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


def shifted_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of the grids a and b: one shifted copy of the grid with more
    nonzero cells added per nonzero cell of the other."""
    nonzero_a, nonzero_b = np.flatnonzero(a), np.flatnonzero(b)
    if nonzero_a.size > nonzero_b.size:
        a, b, nonzero_a = b, a, nonzero_b
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na + nb - 1, na + nb - 1), complex)
    for cell, coeff in zip(nonzero_a.tolist(), a.ravel()[nonzero_a].tolist()):
        i1, i2 = divmod(cell, na)
        out[i1:i1 + nb, i2:i2 + nb] += coeff * b
    return out


def _as_integers(x: np.ndarray):
    """The finite floats x as exact Python ints x * 2^e, and e: every finite
    float is a dyadic rational, whose denominator divides 2^e."""
    ratios = [v.as_integer_ratio() for v in x.ravel().tolist()]
    e = max(d for _n, d in ratios).bit_length() - 1
    return np.array([n << (e - d.bit_length() + 1) for n, d in ratios], dtype=object).reshape(x.shape), e


def _exact_parts(a: np.ndarray):
    """The real and imaginary parts of the float grids a as object arrays of
    Python ints n, with a = n / 2^e, and e."""
    (re, e1), (im, e2) = _as_integers(a.real), _as_integers(a.imag)
    e = max(e1, e2)
    return re << (e - e1), im << (e - e2), e


def _integer_convolution(ar, ai, br, bi):
    """Full convolution of the square grids ar + i ai and br + i bi, given as
    object arrays of Python ints: its real and imaginary parts, with no rounding."""
    na, nb = ar.shape[0], br.shape[0]
    re = np.zeros((na + nb - 1,) * 2, dtype=object)
    im = np.zeros((na + nb - 1,) * 2, dtype=object)
    for i1, i2 in zip(*np.nonzero((ar != 0) | (ai != 0))):
        re[i1:i1 + nb, i2:i2 + nb] += ar[i1, i2] * br - ai[i1, i2] * bi
        im[i1:i1 + nb, i2:i2 + nb] += ar[i1, i2] * bi + ai[i1, i2] * br
    return re, im


def exact_convolution(a: np.ndarray, b: np.ndarray):
    """The full convolution of the square complex grids a and b in exact rationals:
    the real and the imaginary parts of its (na + nb - 1)^2 cells as object
    arrays of ``fractions.Fraction``.  The sums are formed on integer multiples
    of the coefficients, so no step rounds."""
    (ar, ai, ea), (br, bi, eb) = _exact_parts(a), _exact_parts(b)
    re, im = _integer_convolution(ar, ai, br, bi)
    unit = Fraction(1, 2**(ea + eb))
    return re * unit, im * unit


def modulus_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a| * |b|: the full convolution of the moduli of the square grids a and b,
    in floats (of booleans, the count of nonzero terms of each cell's sum)."""
    a, b = np.abs(a).astype(float), np.abs(b).astype(float)
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na + nb - 1,) * 2)
    for i1, i2 in zip(*np.nonzero(a)):
        out[i1:i1 + nb, i2:i2 + nb] += a[i1, i2] * b
    return out


def gamma(n):
    """gamma_n = n u / (1 - n u), with u = 2^-53, elementwise."""
    nu = np.asarray(n, float) * 2.0**-53
    return nu / (1.0 - nu)


def product_certificate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bound on the error of any floating-point convolution of the grids a and b,
    cell by cell: sqrt(2) gamma_{T+2} (|a| * |b|), where T counts the nonzero
    terms of the cell's sum, gamma_n = n u / (1 - n u) and u = 2^-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, sections
    3.1 and 3.6).  It holds in any summation order, with or without fused
    multiply-adds: terms that are exact zeros leave a partial sum unchanged."""
    return math.sqrt(2.0) * gamma(modulus_convolution(a != 0, b != 0) + 2.0) * modulus_convolution(a, b)


def certificate_ratios(got: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|got - a * b| over ``product_certificate(a, b)``, cell by cell, for the grid
    ``got`` of a product of a and b truncated to its central (2 h + 1)^2 cells:
    0 where both are 0, inf where only the bound is."""
    exact_re, exact_im = exact_convolution(a, b)
    bound = product_certificate(a, b)
    h, centre = got.shape[-1] // 2, bound.shape[-1] // 2
    window = slice(centre - h, centre + h + 1)
    exact_re, exact_im, bound = exact_re[window, window], exact_im[window, window], bound[window, window]
    error = np.array([math.hypot(float(Fraction(v.real) - re), float(Fraction(v.imag) - im))
                      for v, re, im in zip(got.ravel().tolist(), exact_re.ravel(), exact_im.ravel())])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(error == 0.0, 0.0, error / bound.ravel()).reshape(got.shape)


def _wavevectors(n: int) -> np.ndarray:
    """k1 and k2 of the cells of an n x n grid, as integer arrays on axis 0."""
    return np.indices((n, n)) - n // 2


def exact_leray(re: np.ndarray, im: np.ndarray):
    """P of a field grid given by the exact real and imaginary parts (2, n, n) of
    its cells: c_i - k_i (c . k) / |k|^2, in ``fractions.Fraction``, where the
    division is exact; the constant cell is kept."""
    k = _wavevectors(re.shape[-1]).astype(object)
    ksq = k[0] * k[0] + k[1] * k[1]
    inverse = np.array([Fraction(1, v or 1) for v in ksq.ravel()], dtype=object).reshape(ksq.shape)
    return tuple(part - k * ((part[0] * k[0] + part[1] * k[1]) * inverse) for part in (re, im))


def leray_certificate(modulus: np.ndarray) -> np.ndarray:
    """Bound on the error of ``torus.leray_project`` on each cell and component of
    a field grid (2, n, n) whose coefficients have at most the given moduli:
    gamma_5 (|c_i| + |k_i| (|c_1 k_1| + |c_2 k_2|) / |k|^2).

    On each real part, the term of c_j meets five rounded operations (c_j k_j,
    the sum of the two, the division by |k|^2, the product with k_i and the
    difference from c_i), and c_i one, in Higham's model fl(x op y) = (x op
    y)(1 + d), |d| <= u (Higham, section 3.1).  The moduli of the real and
    imaginary parts' bounds add up to the bound on the complex modulus.  At
    k = 0 the cell is kept as it is."""
    k = np.abs(_wavevectors(modulus.shape[-1])).astype(float)
    ksq = k[0] * k[0] + k[1] * k[1]
    ksq[ksq == 0.0] = 1.0  # k = 0: the cross term below is 0
    return gamma(5) * (modulus + k * ((modulus[0] * k[0] + modulus[1] * k[1]) / ksq))


def _pair_ratios(got: np.ndarray, exact_re: np.ndarray, exact_im: np.ndarray, bound: np.ndarray):
    """The 2-norm of each cell's pair of errors of the field grid ``got`` (2, n, n)
    against the exact parts, over the bound (n, n): 0 where both are 0, inf
    where only the bound is."""
    floats = got.real.ravel().tolist() + got.imag.ravel().tolist()
    exact = np.concatenate([exact_re.ravel(), exact_im.ravel()])
    diff = [float(Fraction(v) - e) for v, e in zip(floats, exact)]
    error = np.sqrt(np.square(np.array(diff).reshape((2,) + got.shape)).sum(axis=(0, 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(error == 0.0, 0.0, error / bound)


def leray_ratios(got: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_pair_ratios`` of the grid ``got`` of ``torus.leray_project`` of the field
    grid x (2, n, n) against P on its exact coefficients, over ``leray_certificate``."""
    re, im, e = _exact_parts(x)
    unit = Fraction(1, 2**e)
    exact_re, exact_im = exact_leray(re * unit, im * unit)
    return _pair_ratios(got, exact_re, exact_im, np.hypot(*leray_certificate(np.abs(x))))


def _field_terms(x: np.ndarray, y: np.ndarray, transpose: bool):
    """Per component i of nabla_X Y (or, when ``transpose``, of (grad X)^T Y),
    sum_j a_j b_j with a_j = X_j and b_j = d_j Y_i (or a_j = d_i X_j and b_j =
    Y_j): the exact convolution (its real and imaginary parts in Fractions,
    with d_j c = i k_j c formed on ints), the sum of |a_j| * |b_j| and the
    count of nonzero terms, each on the full (2, 2n - 1, 2n - 1) grid."""
    (xr, xi, ex), (yr, yi, ey) = _exact_parts(x), _exact_parts(y)
    k = _wavevectors(x.shape[-1])
    kint = k.astype(object)  # Python ints, which do not wrap
    re, im, modulus, count = ([0, 0] for _ in range(4))
    for i in range(2):
        for j in range(2):
            if transpose:  # (d_i X_j) Y_j
                a, b = 1j * k[i] * x[j], y[j]
                ar, ai, br, bi = -kint[i] * xi[j], kint[i] * xr[j], yr[j], yi[j]
            else:  # X_j d_j Y_i
                a, b = x[j], 1j * k[j] * y[i]
                ar, ai, br, bi = xr[j], xi[j], -kint[j] * yi[i], kint[j] * yr[i]
            r, m = _integer_convolution(ar, ai, br, bi)
            re[i], im[i] = re[i] + r, im[i] + m
            modulus[i] = modulus[i] + modulus_convolution(a, b)
            count[i] = count[i] + modulus_convolution(a != 0, b != 0)
    unit = Fraction(1, 2**(ex + ey))
    return np.stack(re) * unit, np.stack(im) * unit, np.stack(modulus), np.stack(count)


def ad_transpose_vol_ratios(got: np.ndarray, x: np.ndarray, diagonal: bool) -> np.ndarray:
    """|got - P(nabla_X X)| over its certificate, cell by cell in the 2-norm of
    each cell's pair of components, for the grid ``got`` (2, 2h + 1, 2h + 1) of
    ``ad_transpose_vol`` on the field grid x and itself, truncated to its
    central cells: on the diagonal path (``y is x``), which forms
    P(nabla_X X), or on the general one, which forms P(nabla_X Y + (grad X)^T Y)
    with Y a copy of X.  The exact reference is the one P(nabla_X X), as
    (grad X)^T X = grad(|X|^2 / 2) is a gradient, which P removes exactly.

    Each of the 2 N real products of a component's N nonzero complex terms is
    rounded once, and so is the derivative d_j c = i k_j c in it; a summation
    tree of 2 N terms adds at most 2 N - 1 roundings to each, and the general
    path one more in the sum of its two parts.  So a real part is within
    gamma_{2N+1} (or gamma_{2N+2}) of the sum of |Re a Re b| + |Im a Im b|
    (or |Re a Im b| + |Im a Re b|) over the terms, and the complex modulus
    within sqrt(2) gamma_{2N+1} sum |a| |b|.  P is an orthogonal projection of
    each cell's pair of components, so it does not enlarge that error in the
    2-norm; its own rounding adds ``leray_certificate`` of P's input, whose
    moduli are at most the sum of |a| |b| plus that error."""
    re, im, modulus, count = _field_terms(x, x, transpose=False)
    error = math.sqrt(2.0) * gamma(2 * count + 1) * modulus
    if not diagonal:
        _re, _im, jac_modulus, jac_count = _field_terms(x, x, transpose=True)
        error = math.sqrt(2.0) * (gamma(2 * count + 2) * modulus + gamma(2 * jac_count + 2) * jac_modulus)
        modulus = modulus + jac_modulus
    exact_re, exact_im = exact_leray(re, im)
    bound = np.hypot(*leray_certificate(modulus + error)) + np.hypot(*error)
    h, centre = got.shape[-1] // 2, bound.shape[-1] // 2
    window = (slice(None), slice(centre - h, centre + h + 1), slice(centre - h, centre + h + 1))
    return _pair_ratios(got, exact_re[window], exact_im[window], bound[window[1:]])


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
