"""Closed forms that only the tests read: a degenerate weight profile and
the spatial gradient of :class:`waveguide_carleman.synth.SpaceTimeBump`."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConstantAxisProfile:
    """Degenerate constant profile, substituted for a constructed one to
    force broken weights."""

    c: float

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def second_derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def bump_gradient(bump) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx1, d/dx2) of the bump amp * (16/T^4) t^2 (T-t)^2 (1-(x1/L)^2)^2
    sin(pi x2/h), each factor evaluated as the bump evaluates its own."""
    g = bump.grid
    T, L, h = g.domain.T, g.domain.L, g.domain.h
    t, x1, x2 = g.t, g.x1, g.x2
    rho = t**2 * (T - t) ** 2 * (16.0 / T**4)
    sq = (x1 / L) ** 2
    X, X1 = (1.0 - sq) ** 2, -4.0 * x1 * (1.0 - sq) / L**2
    Y, Y2 = np.sin(np.pi * x2 / h), (np.pi / h) * np.cos(np.pi * x2 / h)

    def outer(a, b, c):
        return bump.amplitude * a[:, None, None] * b[None, :, None] * c[None, None, :]

    return outer(rho, X1, Y), outer(rho, X, Y2)
