"""Reduction chain from a pair of forward solutions to the axial
derivative field.

Given two solutions u (potential q f) and u~ (potential q~ f) sharing one
data set, the chain forms

    v = u - u~,   w = v / (f u~),   z = d/dx1 w,

together with the coefficient fields of the equation w satisfies,

    w_t - Lap(w) + A . grad(w) + a w = q~ - q,
    A = -2 grad(f u~) / (f u~),
    a = (d/dt(f u~) - Lap(f u~)) / (f u~) + q f,

and of the equation obtained by differentiating it axially,

    z_t - Lap(z) + A . grad(z) + a z + B1 z = B2 w_x2 + b w,
    B1 = -2 d/dx1( (f u~)_x1 / (f u~) ),
    B2 = +2 d/dx1( (f u~)_x2 / (f u~) ),
    b  = -d/dx1 a.

All coefficients are built from the discrete u~ with the grid stencils,
so the pipeline accepts arbitrary solver output; closed-form oracles are
test-side only.  z is obtained by differentiating w rather than by
solving its equation, which leaves that equation available as an
independent consistency check (`z_residual`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import PotentialSpec
from .grid import (
    ScalarField,
    SpaceTimeGrid,
    derivative,
    gradient,
    integrate_values,
    laplacian,
    prefix_integral_x1,
    time_derivative,
)


@dataclass
class TransformBundle:
    """Stores w, z, B2 and b; fu, A1, A2, a_coef and B1 are formed on access."""

    grid: SpaceTimeGrid
    w: ScalarField
    z: ScalarField
    B2: ScalarField
    b_coef: ScalarField
    c1_floor: float        # min of f * u~ over the space-time grid
    u_tilde: ScalarField
    pot: PotentialSpec

    @property
    def fu(self) -> ScalarField:  # the positive denominator f * u~
        return ScalarField(self.grid, self.pot.f[None, :, None] * self.u_tilde.values)

    def _drift(self, d: float, axis: int) -> ScalarField:
        m = self.fu.values
        return ScalarField(self.grid, -2.0 * derivative(m, d, axis) / m)

    A1 = property(lambda self: self._drift(self.grid.dx1, 1))
    A2 = property(lambda self: self._drift(self.grid.dx2, 2))
    B1 = property(lambda self: ScalarField(self.grid, derivative(self.A1.values, self.grid.dx1, 1)))

    @property
    def a_coef(self) -> ScalarField:
        return ScalarField(self.grid, _a_values(self.fu.values, self.pot))


def _a_values(m: np.ndarray, pot: PotentialSpec) -> np.ndarray:
    """a = (m_t - Lap(m)) / m + q f for the denominator m = f u~."""
    return (derivative(m, pot.grid.dt, 0) - laplacian(m, pot.grid)) / m + pot.potential_values()


def build_bundle(u: ScalarField, u_tilde: ScalarField, pot: PotentialSpec) -> TransformBundle:
    """Assemble w, z, B2 and b for one solution pair.

    ``pot`` must be the potential of the *q*-system (the one multiplying v
    in its equation).  Raises if the denominator f u~ is not strictly
    positive, naming the first offending node.
    """
    grid = u.grid
    if u_tilde.grid is not grid or pot.grid is not grid:
        raise ValueError("both fields and the potential must share one grid")

    m = pot.f[None, :, None] * u_tilde.values
    c1_floor = float(np.min(m))
    if c1_floor <= 0.0:
        idx = tuple(map(int, np.unravel_index(int(np.argmin(m)), m.shape)))
        raise ValueError(
            f"f*u~ is not positive: min {c1_floor} at (time,x1,x2) index {idx}"
        )
    w = ScalarField(grid, (u.values - u_tilde.values) / m)
    z = ScalarField(grid, derivative(w.values, grid.dx1, 1))
    B2 = ScalarField(grid, 2.0 * derivative(derivative(m, grid.dx2, 2) / m, grid.dx1, 1))
    b_coef = ScalarField(grid, -derivative(_a_values(m, pot), grid.dx1, 1))
    return TransformBundle(grid=grid, w=w, z=z, B2=B2, b_coef=b_coef, c1_floor=c1_floor,
                           u_tilde=u_tilde, pot=pot)


#: Width of the boundary collar excluded from check norms, as a fraction
#: of each domain extent.
CORE_MARGIN = 0.1


def core_mask(grid: SpaceTimeGrid) -> np.ndarray:
    """Boolean mask of the evaluation core for residual norms.

    Stencil errors are second order pointwise, but where one-sided edge
    stencils feed into a second differencing pass (coefficients of the
    differentiated equation near the caps) the local order drops by one.
    The check norms therefore integrate over a core that keeps a collar
    of fixed *physical* width (a fraction of each extent) away from the
    space-time boundary; being resolution-independent, the core is a
    fixed-domain norm and converges at the full interior order.
    """
    d, margin = grid.domain, CORE_MARGIN
    mask = np.zeros(grid.shape, dtype=bool)
    tm = (grid.t >= margin * d.T) & (grid.t <= (1.0 - margin) * d.T)
    m1 = np.abs(grid.x1) <= d.L * (1.0 - 2.0 * margin)
    m2 = (grid.x2 >= margin * d.h) & (grid.x2 <= (1.0 - margin) * d.h)
    mask[np.ix_(tm, m1, m2)] = True
    return mask


def _core_norms(grid: SpaceTimeGrid, diff: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    masked = np.where(mask, diff, 0.0)
    sup = float(np.max(np.abs(masked)))
    l2 = float(np.sqrt(integrate_values(grid, masked**2, "Q")))
    return sup, l2


def _w_operator(bundle: TransformBundle, f: ScalarField) -> np.ndarray:
    """f_t - Lap(f) + A . grad(f) + a f with the bundle's coefficients."""
    d1, d2 = gradient(f)
    return (
        time_derivative(f).values
        - laplacian(f.values, f.grid)
        + bundle.A1.values * d1.values
        + bundle.A2.values * d2.values
        + bundle.a_coef.values * f.values
    )


def z_source(bundle: TransformBundle) -> ScalarField:
    """Source term B2 w_x2 + b w of the differentiated equation."""
    g, w = bundle.grid, bundle.w.values
    out = derivative(w, g.dx2, 2)
    np.multiply(bundle.B2.values, out, out=out)
    return ScalarField(g, np.add(out, bundle.b_coef.values * w, out=out))


def z_residual(bundle: TransformBundle) -> tuple[ScalarField, float]:
    """Residual of the differentiated equation and its L2 norm.

    The residual field is evaluated with the grid stencils at every node;
    the reported norm integrates over the :func:`core_mask` region.
    """
    g = bundle.grid
    z = bundle.z
    res = _w_operator(bundle, z) + bundle.B1.values * z.values - z_source(bundle).values
    _, norm = _core_norms(g, res, core_mask(g))
    return ScalarField(g, res), norm


def ftc_representation_check(bundle: TransformBundle) -> dict[str, float]:
    """Rebuild w from z, and its cross-section derivative from that of z, by
    anchored prefix integration; report max and L2 reconstruction errors
    over the evaluation core."""
    g = bundle.grid
    ia = g.alpha_index
    mask = core_mask(g)
    w, dz2 = bundle.w.values, ScalarField(g, derivative(bundle.z.values, g.dx2, 2))
    errors = {}
    for key, f, fx1 in (("w", w, bundle.z), ("dx2w", derivative(w, g.dx2, 2), dz2)):
        rec = prefix_integral_x1(fx1).values + f[:, ia : ia + 1, :]
        errors[f"{key}_error"], errors[f"{key}_error_l2"] = _core_norms(g, rec - f, mask)
    return errors


def rhs_identity_check(bundle: TransformBundle, pot: PotentialSpec,
                       pot_tilde: PotentialSpec) -> dict[str, float]:
    """Apply the w-operator and compare with the potential mismatch.

    P w := w_t - Lap(w) + A . grad(w) + a w should be independent of x1
    and equal q~ - q.  Returns the axial variation of P w and its
    deviation from the known mismatch (max and L2 over the core).
    """
    g = bundle.grid
    Pw = _w_operator(bundle, bundle.w)
    target = (pot_tilde.q - pot.q)[:, None, :]
    mask = core_mask(g)

    mismatch, mismatch_l2 = _core_norms(g, Pw - target, mask)

    counts = np.maximum(mask.sum(axis=1, keepdims=True), 1)
    mean_over_x1 = np.where(mask, Pw, 0.0).sum(axis=1, keepdims=True) / counts
    x1_var, x1_var_l2 = _core_norms(g, Pw - mean_over_x1, mask)

    return {
        "x1_variation": x1_var,
        "x1_variation_l2": x1_var_l2,
        "mismatch_vs_target": mismatch,
        "mismatch_vs_target_l2": mismatch_l2,
    }
