"""Element pairs and the shared semidirect backend interface.

A semidirect backend couples a ``g`` backend and an ``h`` backend through an
action ``b`` (with adjoint ``b_transpose``) and the derived bilinear map
``h_map: h x h -> g`` satisfying <b(X)Y1, Y2> = <h_map(Y1, Y2), X>.  The base
class assembles from these the product bracket, product inner product and the
closed-form product ad-transpose

    ad(X1, Y1)^T (X2, Y2) = (ad(X1)^T X2 - h_map(Y1, Y2),
                             ad(Y1)^T Y2 + b(X1)^T Y2),

so any semidirect backend is itself a plain metric-algebra backend over
``Pair`` elements, except that it has no sampling basis: ``sampling`` draws
the g part and the h part of an element from the factors' own bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class Pair:
    """Element of a product algebra: g-part ``x`` and h-part ``y``."""

    x: Any
    y: Any

    def __add__(self, other):
        return Pair(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Pair(self.x - other.x, self.y - other.y)

    def __neg__(self):
        return Pair(-self.x, -self.y)

    def __mul__(self, scalar):
        return Pair(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __getitem__(self, i):
        """Element (or slice) i of a stack of Pairs, along the leading axis."""
        return Pair(self.x[i], self.y[i])


def stack(elements):
    """Elements, or Pairs of them, stacked along a new leading axis: coordinate
    vectors as one array, torus elements on their widest grid.  Elements that
    are themselves stacks share their stack shape.  Indexing the stack, or a
    result computed from it, gives the elements back."""
    first = elements[0]
    if isinstance(first, Pair):
        return Pair(stack([e.x for e in elements]), stack([e.y for e in elements]))
    if isinstance(first, np.ndarray):
        return np.stack(elements)
    return type(first).stack(elements)


def broadcast_to(element, shape: tuple):
    """An element, a stack of them or a Pair of either, broadcast to the stack
    shape ``shape`` (a view)."""
    if isinstance(element, Pair):
        return Pair(broadcast_to(element.x, shape), broadcast_to(element.y, shape))
    if isinstance(element, np.ndarray):
        return np.broadcast_to(element, shape + element.shape[-1:])
    return element.broadcast_to(shape)


def scale(s, element):
    """Element i of a stack (or of a Pair of stacks) times s[i], with the bits of
    ``float(s[i]) * element[i]``; ``s`` has the stack's shape."""
    if isinstance(element, Pair):
        return Pair(scale(s, element.x), scale(s, element.y))
    if isinstance(element, np.ndarray):
        return s[..., None] * element
    return element.scaled(s)


def per_element(values):
    """A Python number for one element, the array itself for a stack."""
    return values.item() if np.ndim(values) == 0 else values


def norm_from_square(sq):
    """The norm from a squared norm, clipped at zero: a Python float for one
    element, an array over a stack; both correctly rounded, so an element's
    norm alone and in a stack agree to the bit."""
    sq = np.maximum(sq, 0.0)
    return np.sqrt(sq) if np.ndim(sq) else math.sqrt(sq)


class SemidirectBackendBase:
    """Product-algebra operations assembled from g, h, b, b^T and h_map.

    Subclasses set ``self.g`` and ``self.h`` (plain backends) and ``isometric``
    (whether b^T = -b), and implement ``b``, ``b_transpose`` and ``h_map``.
    There is no product sampling basis; random elements combine the bases of
    ``g`` and ``h``.
    """

    g: Any
    h: Any
    isometric: bool

    # -- plain backend interface over Pair elements --

    def zero(self) -> Pair:
        return Pair(self.g.zero(), self.h.zero())

    def bracket(self, p, q) -> Pair:
        return Pair(
            self.g.bracket(p.x, q.x),
            self.h.bracket(p.y, q.y) + self.b(p.x, q.y) - self.b(q.x, p.y),
        )

    def inner(self, p, q) -> float:
        return self.g.inner(p.x, q.x) + self.h.inner(p.y, q.y)

    def norm(self, p):
        return norm_from_square(self.inner(p, p))

    def ad_transpose(self, p, q) -> Pair:
        return Pair(
            self.g.ad_transpose(p.x, q.x) - self.h_map(p.y, q.y),
            self.h.ad_transpose(p.y, q.y) + self.b_transpose(p.x, q.y),
        )
