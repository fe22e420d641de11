"""Synthetic fields: scenario presets and smooth test functions.

The potential presets vanish quadratically at t = 0 so the constant-one
data preset is exactly compatible; the perturbation presets additionally
vanish at t = T so both systems of a pair stay compatible with shared
data.  The smooth random fields are truncated sine series with seeded
coefficients, which keeps every report byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, SpaceTimeGrid


def time_bump(grid: SpaceTimeGrid) -> np.ndarray:
    """(4 t (T-t) / T^2)^2: unit-peak polynomial bump vanishing
    quadratically at both time endpoints."""
    t = grid.t
    T = grid.domain.T
    return (4.0 * t * (T - t) / T**2) ** 2


def q_preset(grid: SpaceTimeGrid, amplitude: float = 0.4) -> np.ndarray:
    """Nonnegative potential profile q(t, x2), zero at t = 0 and t = T."""
    rho = time_bump(grid)
    shape = 1.0 + 0.5 * np.cos(np.pi * grid.x2 / grid.domain.h)
    return amplitude * rho[:, None] * shape[None, :]


def dq_preset(grid: SpaceTimeGrid) -> np.ndarray:
    """Perturbation direction with genuine cross-section dependence,
    vanishing near both time endpoints."""
    rho = time_bump(grid)
    shape = 0.6 + 0.4 * np.cos(np.pi * grid.x2 / grid.domain.h)
    return rho[:, None] * shape[None, :]


def axial_factor(grid: SpaceTimeGrid, bump: float = 0.5) -> np.ndarray:
    """Positive axial factor f(x1) = 1 + bump*cos(pi x1 / L); its slope
    vanishes at both caps so the derivative field of f u~ keeps the cap
    traces of z at stencil-error size."""
    if not (0.0 <= bump < 1.0):
        raise ValueError("bump must lie in [0, 1)")
    return 1.0 + bump * np.cos(np.pi * grid.x1 / grid.domain.L)


@dataclass
class SpaceTimeBump:
    """Closed-form bump vanishing on the whole space boundary and at the
    initial time, with analytic derivatives for oracle comparisons:

        B(t, x1, x2) = amp * (16/T^4) t^2 (T-t)^2 (1-(x1/L)^2)^2 sin(pi x2/h)
    """

    grid: SpaceTimeGrid
    amplitude: float = 1.0

    def _parts(self):
        g = self.grid
        T, L, h = g.domain.T, g.domain.L, g.domain.h
        t, x1, x2 = g.t, g.x1, g.x2
        rho = t**2 * (T - t) ** 2 * (16.0 / T**4)
        rho_t = (2.0 * t * (T - t) ** 2 - 2.0 * t**2 * (T - t)) * (16.0 / T**4)
        sq = (x1 / L) ** 2
        X = (1.0 - sq) ** 2
        X11 = -4.0 * (1.0 - sq) / L**2 + 8.0 * x1**2 / L**4
        Y = np.sin(np.pi * x2 / h)
        Y22 = -((np.pi / h) ** 2) * Y
        return rho, rho_t, X, X11, Y, Y22

    def _outer(self, a, b, c):
        return self.amplitude * a[:, None, None] * b[None, :, None] * c[None, None, :]

    def field(self) -> ScalarField:
        rho, _, X, _, Y, _ = self._parts()
        return ScalarField(self.grid, self._outer(rho, X, Y))

    def heat_residual(self) -> ScalarField:
        """(d/dt - Lap) of the bump, in closed form."""
        rho, rho_t, X, X11, Y, Y22 = self._parts()
        lap = self._outer(rho, X11, Y) + self._outer(rho, X, Y22)
        return ScalarField(self.grid, self._outer(rho_t, X, Y) - lap)


def random_smooth_field(grid: SpaceTimeGrid, rng: np.random.Generator,
                        anchored_right: bool = False) -> ScalarField:
    """Truncated sine series with seeded, mode-damped coefficients: three
    modes along each of t, x1 and x2.

    With ``anchored_right`` the axial factor uses sine modes on the
    sub-interval from the anchor column to the right cap and vanishes to
    the left of the anchor; this is the support the open-regime prefix
    inequality controls.
    """
    g = grid
    T, L, h = g.domain.T, g.domain.L, g.domain.h
    t, x1, x2 = g.t, g.x1, g.x2
    k = np.arange(1, 4)  # three modes per axis, indexed k, m, n alike

    if anchored_right:
        a = g.alpha_snapped
        xi = np.clip((x1 - a) / (L - a), 0.0, 1.0)
        ax_modes = np.where(x1 >= a, np.sin(k[:, None] * np.pi * xi), 0.0)
    else:
        ax_modes = np.sin(k[:, None] * np.pi * (x1 + L) / (2.0 * L))
    t_modes = np.sin(k[:, None] * np.pi * t / T)
    x2_modes = np.sin(k[:, None] * np.pi * x2 / h)

    # the draw order (k, m, n) fixes which seed gives which series
    coef = rng.standard_normal((3, 3, 3)) / (k[:, None, None] * k[None, :, None] * k)
    spatial = np.einsum("kmn,mi,nj->kij", coef, ax_modes, x2_modes)
    out = (t_modes.T @ spatial.reshape(3, -1)).reshape(g.shape)
    return ScalarField(g, out)
