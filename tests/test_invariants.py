"""Coadjoint invariants as an oracle for the dense geodesic right-hand sides.

The Euler-Arnold flow keeps the invariants of the coadjoint orbit.  Unlike the
energy, which any right-hand side of the form -ad(u)^T u keeps, they depend on
the bracket and the action.  An invariant C satisfies C'(s) . RHS(s) = 0 at
every state s, with no integration error.  Each C below is written from its
closed form in the Gram matrices, with its gradient worked out by hand, and
checked at three seeded states on the compiled ``QuadraticRHS`` and on the
componentwise right-hand side.  Functions that are not invariants must read
well above rounding on the same states, so the check tells them apart.
"""

import numpy as np
import pytest

from helpers import invariant_rate

from liecurv import catalog
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
