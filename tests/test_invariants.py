"""Coadjoint invariants as an oracle for the geodesic right-hand sides.

The Euler-Arnold flow keeps the invariants of the coadjoint orbit.  Unlike the
energy, which any right-hand side of the form -ad(u)^T u keeps, they depend on
the bracket and the action.  An invariant C satisfies C'(s) . RHS(s) = 0 at
every state s, with no integration error.  Each C below is written from its
closed form in the Gram matrices, with its gradient worked out by hand, and
checked at three seeded states on the compiled ``QuadraticRHS`` and on the
componentwise right-hand side.  Functions that are not invariants must read
well above rounding on the same states, so the check tells them apart.

The torus right-hand sides are checked under the support cap, at the end of
this file.
"""

import numpy as np
import pytest

from helpers import invariant_rate

from liecurv import catalog, torus
from liecurv.backend import Pair
from liecurv.geodesic import QuadraticRHS, geodesic_rhs, rhs_generic, rhs_semidirect

SEEDS = (1, 2, 3)

#: (gradient in u, gradient in alpha) at the state (u, alpha) of each C, named
#: by its Euclidean dot products in flat coordinates (a is alpha, a1 its first
#: coordinate, G the Gram matrix of the factor), given the Gram matrices Gg of g
#: and Gh of h; a plain algebra reads the u part alone
GRADIENTS = {
    "Gu.Gu": lambda Gg, Gh, u, a: (2.0 * Gg @ Gg @ u, 0.0 * a),
    "u.u": lambda Gg, Gh, u, a: (2.0 * u, 0.0 * a),
    "a.a": lambda Gg, Gh, u, a: (0.0 * u, 2.0 * a),
    "Ga.Ga": lambda Gg, Gh, u, a: (0.0 * u, 2.0 * Gh @ Gh @ a),
    "a1.a1": lambda Gg, Gh, u, a: (0.0 * u, 2.0 * a[0] * np.eye(len(a))[0]),
    "u.Ga": lambda Gg, Gh, u, a: (Gg @ a, Gg.T @ u),
    "u.a": lambda Gg, Gh, u, a: (a, u),
}

#: (selector, function, whether it is an invariant of the backend's flow)
CASES = [
    ("so3:1,2,3", "Gu.Gu", True),
    ("so3:1,2,3", "u.u", False),
    ("magnetic:so3:1,2,3", "a.a", True),
    ("magnetic:so3:1,2,3", "u.Ga", True),
    ("magnetic:so3:1,2,3", "u.a", False),
    ("magnetic:so3:1,2,3", "Ga.Ga", False),
    ("conjugation:so3:1,2,3", "Ga.Ga", True),
    ("conjugation:so3:1,2,3", "a.a", False),
    *((name, c, True) for name in ("euclidean", "linear_so3_on_r3")
      for c in ("a.a", "u.a")),
    *((name, "a1.a1", False) for name in ("euclidean", "linear_so3_on_r3")),
]


def _rates(selector, function):
    """The rate of each right-hand side at each seeded state."""
    plain = selector.startswith("so3")
    backend = catalog.resolve_algebra(selector) if plain else catalog.resolve_semidirect(selector)
    compiled = geodesic_rhs(backend)
    assert isinstance(compiled, QuadraticRHS)
    if plain:
        Gg = Gh = backend.spec.gram
    else:
        Gg, Gh = backend.g.spec.gram, backend.h.spec.gram
    rates = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(len(Gg))
        if plain:
            routes = [compiled(u), rhs_generic(backend, u)]
            gradient = GRADIENTS[function](Gg, Gh, u, np.zeros(0))[0]
        else:
            a = rng.standard_normal(len(Gh))
            routes = [compiled(backend.join(Pair(u, a))),
                      np.concatenate(rhs_semidirect(backend, u, a))]
            gradient = np.concatenate(GRADIENTS[function](Gg, Gh, u, a))
        rates += [invariant_rate(gradient, rhs) for rhs in routes]
    return rates


@pytest.mark.parametrize("selector,function,invariant", CASES,
                         ids=[f"{s}-{c}" for s, c, _ in CASES])
def test_coadjoint_invariants_separate_from_other_functions(selector, function, invariant):
    rates = _rates(selector, function)
    assert len(rates) == 2 * len(SEEDS)
    if invariant:
        assert max(rates) <= 1e-15, rates
    else:
        assert min(rates) > 1e-3, rates


# ---------------------------------------------------------------------------
# torus right-hand sides under the support cap
# ---------------------------------------------------------------------------
#
# A product under a cap forms only the modes that the cap keeps.  For a state
# s inside the cap the cap is an orthogonal projection P that fixes s, so
# <s, P X> = <s, X>: the energy rate <s, RHS(s)> = -<[s, s], s> stays 0, and on
# torus-vol, where the vorticity of s is inside the cap too, so does the
# enstrophy rate.  The pairings below are written on the coefficient grids:
# 4 pi^2 Re sum_k a_k conj(b_k), and w_k = i k1 u2_k - i k2 u1_k for the curl.

TORUS_CAP = 4
TORUS_BAND = 3  # products of band-3 states reach |k|_inf = 6, past the cap


def _grids(element) -> list:
    """The coefficient grids of a torus element or Pair, one per component."""
    if isinstance(element, Pair):
        return _grids(element.x) + _grids(element.y)
    c = element.c
    return [c] if c.ndim == 2 else [c[0], c[1]]


def _widen(c, r: int) -> np.ndarray:
    """The grid c, padded with zeros to half-width r."""
    s = c.shape[-1] // 2
    out = np.zeros((2 * r + 1, 2 * r + 1), complex)
    out[r - s:r + s + 1, r - s:r + s + 1] = c
    return out


def _grid_dot(a, b) -> float:
    """4 pi^2 Re sum_k a_k conj(b_k) over two grids of any widths."""
    r = max(a.shape[-1], b.shape[-1]) // 2
    a, b = _widen(a, r), _widen(b, r)
    return 4.0 * np.pi**2 * float(np.sum(a.real * b.real + a.imag * b.imag))


def _pairing_rate(left: list, right: list) -> float:
    """|<left, right>| / (|left| |right|) over lists of grids."""
    dot = sum(_grid_dot(a, b) for a, b in zip(left, right))
    norms = [np.sqrt(sum(_grid_dot(c, c) for c in grids)) for grids in (left, right)]
    return abs(dot) / (norms[0] * norms[1])


def _curl(field) -> np.ndarray:
    """Grid of w = d1 u2 - d2 u1 of a field."""
    c = field.c
    r = c.shape[-1] // 2
    k = np.arange(-r, r + 1)
    return 1j * k[:, None] * c[1] - 1j * k[None, :] * c[0]


def _torus_state(rng, kind):
    basis = {"vol": torus.divergence_free_modes, "full": torus.full_field_modes,
             "fn": torus.function_modes}[kind](TORUS_BAND)
    return basis.combine(0.5 * rng.standard_normal(len(basis)))


#: (backend class, state parts, the displayed system as a state-valued function)
TORUS_SYSTEMS = {
    "torus-vol": (torus.VolumeFieldBackend, ("vol",), torus.euler_rhs_direct),
    "torus-full": (torus.FullFieldBackend, ("full",),
                   lambda u: torus.compressible_rhs_direct(u, torus.TrigFunction.zero())[0]),
    "passive-scalar": (torus.PassiveScalarBackend, ("vol", "fn"),
                       lambda s: Pair(*torus.passive_scalar_rhs_direct(s.x, s.y))),
    "compressible": (torus.CompressibleScalarBackend, ("full", "fn"),
                     lambda s: Pair(*torus.compressible_rhs_direct(s.x, s.y))),
    "mhd": (torus.MhdBackend, ("vol", "vol"), lambda s: Pair(*torus.mhd_rhs_direct(s.x, s.y))),
}


def _capped_cases(name):
    """(state, capped right-hand side at it, displayed system truncated at the cap) at
    each seed; the right-hand side is built as the CLI builds it."""
    make, parts, direct = TORUS_SYSTEMS[name]
    rhs = torus.capped_rhs(geodesic_rhs(make(cap=TORUS_CAP)), TORUS_CAP)
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        state = [_torus_state(rng, kind) for kind in parts]
        state = Pair(*state) if len(state) == 2 else state[0]
        yield state, rhs(state), torus.truncate_state(direct(state), TORUS_CAP)


@pytest.mark.parametrize("name", TORUS_SYSTEMS)
def test_capped_torus_rhs_is_the_truncated_displayed_system(name):
    for state, got, want in _capped_cases(name):
        for g, w in zip(_grids(got), _grids(want)):
            assert g.shape[-1] // 2 <= TORUS_CAP
            moved = np.abs(_widen(g, TORUS_CAP) - _widen(w, TORUS_CAP)).max()
            assert moved <= 1e-14 * np.abs(w).max()
        # the energy rate stays zero under the cap
        assert _pairing_rate(_grids(state), _grids(got)) <= 1e-15


def test_capped_euler_rhs_keeps_the_enstrophy():
    for state, got, _ in _capped_cases("torus-vol"):
        assert _pairing_rate([_curl(state)], [_curl(got)]) <= 1e-15


# ---------------------------------------------------------------------------
# Casimirs of the uncapped torus right-hand sides
# ---------------------------------------------------------------------------
#
# Under a cap the Casimirs are not kept, since w^2, f^2 and u . B reach past
# it; without one they are.  Each gradient C'(s) is written from the closed
# form of C on the coefficient grids, in the order of ``_grids(state)``, with
# curl* p = (d2 p, -d1 p), the adjoint of the curl, so that
# d/dt int F(w) = <curl* F'(w), u_t>.  Products of grids are formed here by
# shifted copies, not by the library.  For B = grad-perp psi with zero mean,
# psi = inverse-Laplacian(curl B), and d/dt int F(psi) = <curl* inverse-Laplacian(F'(psi)), B_t>.


def _grid_product(a, b) -> np.ndarray:
    """Grid of the product of two functions: the full convolution of their grids."""
    n = b.shape[-1]
    out = np.zeros((a.shape[-1] + n - 1,) * 2, complex)
    for i, j in zip(*np.nonzero(a)):
        out[i:i + n, j:j + n] += a[i, j] * b
    return out


def _curl_adjoint(p) -> list:
    r = p.shape[-1] // 2
    k = np.arange(-r, r + 1)
    return [1j * k[None, :] * p, -1j * k[:, None] * p]


def _inverse_laplacian(p) -> np.ndarray:
    """-p_k / |k|^2, and 0 at k = 0."""
    r = p.shape[-1] // 2
    k = np.arange(-r, r + 1)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    ksq[r, r] = 1
    out = -p / ksq
    out[r, r] = 0.0
    return out


def _psi_gradient(b, power: int) -> list:
    """Grids of the gradient in B of int psi^power, B = grad-perp psi with zero mean."""
    psi = _inverse_laplacian(_curl(b))
    f = psi if power == 2 else _grid_product(psi, psi)
    return _curl_adjoint(power * _inverse_laplacian(f))


_NONE = [np.zeros((1, 1), complex)] * 2  # the zero gradient in a field factor
_ZERO, _ONE = np.zeros((1, 1), complex), np.ones((1, 1), complex)

#: (system, function, state -> the grids of C'(state), whether C is an invariant)
CASIMIRS = [
    ("torus-vol", "w^2", lambda u: _curl_adjoint(2.0 * _curl(u)), True),
    ("torus-vol", "w^3", lambda u: _curl_adjoint(3.0 * _grid_product(_curl(u), _curl(u))), True),
    ("passive-scalar", "f^2", lambda s: _NONE + [2.0 * s.y.c], True),
    ("passive-scalar", "f^3", lambda s: _NONE + [3.0 * _grid_product(s.y.c, s.y.c)], True),
    ("passive-scalar", "w^2", lambda s: _curl_adjoint(2.0 * _curl(s.x)) + [_ZERO], True),
    ("compressible", "f", lambda s: _NONE + [_ONE], True),
    ("compressible", "f^2", lambda s: _NONE + [2.0 * s.y.c], False),
    ("mhd", "u.B", lambda s: _grids(s.y) + _grids(s.x), True),
    ("mhd", "psi^2", lambda s: _NONE + _psi_gradient(s.y, 2), True),
    ("mhd", "psi^3", lambda s: _NONE + _psi_gradient(s.y, 3), True),
]


def _uncapped_states(name, zero_mean_b=True):
    """(state, [geodesic_rhs at it, the displayed system at it]) at each seed."""
    make, parts, direct = TORUS_SYSTEMS[name]
    rhs = geodesic_rhs(make())
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        state = [_torus_state(rng, kind) for kind in parts]
        if name == "mhd" and zero_mean_b:
            b = state[1].c.copy()
            b[:, TORUS_BAND, TORUS_BAND] = 0.0
            state[1] = torus.TrigVectorField._of(b)
        state = Pair(*state) if len(state) == 2 else state[0]
        yield state, [rhs(state), direct(state)]


@pytest.mark.parametrize("name,function,gradient,invariant", CASIMIRS,
                         ids=[f"{c[0]}-{c[1]}" for c in CASIMIRS])
def test_uncapped_torus_rhs_keeps_its_casimirs(name, function, gradient, invariant):
    rates = [_pairing_rate(gradient(state), _grids(rhs))
             for state, routes in _uncapped_states(name) for rhs in routes]
    assert len(rates) == 2 * len(SEEDS)
    if invariant:
        assert max(rates) <= 1e-15, rates
    else:
        assert min(rates) > 1e-3, rates


def test_psi_squared_is_no_invariant_while_b_has_a_mean():
    # psi is not periodic then, so int psi^2 of the periodic part is not kept
    gradient = dict(((c[0], c[1]), c[2]) for c in CASIMIRS)["mhd", "psi^2"]
    rates = [_pairing_rate(gradient(state), _grids(rhs))
             for state, routes in _uncapped_states("mhd", zero_mean_b=False) for rhs in routes]
    assert min(rates) > 1e-3, rates
