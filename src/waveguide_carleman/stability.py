"""Both sides of the stability estimate, assembled from pipeline output.

The left side is the squared L2 mass of the potential mismatch q - q~
over a time window (eps, T - eps) x cross-section; the right side
combines the squared mismatch of the observed wall measurement
d/dnu d/dx1 (u~ - u) with the squared mixed Sobolev norm (H1 in time,
H2 in the cross-section) of the solution mismatch traced on the anchor
column x1 = alpha.  Both traces are plain ``(time, n)`` arrays.  The
reported empirical constant is their ratio: ``inf`` for a mismatch the
right side does not see, and 0 when both sides vanish.

Time windows are node-aligned, so shrinking eps never drops below a
larger window's value on a nonnegative integrand: window monotonicity
holds exactly, not just up to quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import PotentialSpec, measurement, positive_preset_data, solve_heat
from .grid import (
    ScalarField,
    SpaceTimeGrid,
    derivative,
    integrate_values,
    report_text,
    trapezoid,
)


@dataclass
class StabilityReport:
    eps: float
    theta: float
    lhs: float
    rhs_boundary: float
    rhs_trace: float
    empirical_C_eps: float
    r_bound: float

    def to_text(self) -> str:
        entries = {
            "report": "stability", "eps": self.eps, "theta": self.theta, "lhs": self.lhs,
            "rhs.boundary": self.rhs_boundary, "rhs.trace": self.rhs_trace,
            "empirical_C_eps": self.empirical_C_eps, "r_bound": self.r_bound,
        }
        if not np.isfinite(self.empirical_C_eps):
            entries["note"] = "non-finite empirical constant"
        return report_text(entries)


def mixed_sobolev_norm(g: SpaceTimeGrid, v: np.ndarray) -> float:
    """Squared H1-in-time / H2-in-cross-section norm of a ``(nt+1, n2+2)``
    trace ``v`` on ``g``: the time integral of ||v||^2 + ||v_x2||^2 +
    ||v_x2x2||^2 for the trace and its time derivative.  Raises
    ``ValueError`` for any other shape."""
    if np.shape(v) != (g.nt + 1, g.n2 + 2):
        raise ValueError(f"mixed Sobolev norm expects a (t, x2) trace of shape "
                         f"{(g.nt + 1, g.n2 + 2)}, got {np.shape(v)}")
    vt = derivative(v, g.dt, 0)

    def h2_density(a: np.ndarray) -> np.ndarray:
        a2 = derivative(a, g.dx2, 1)
        a22 = derivative(a, g.dx2, 1, order=2)
        return a**2 + a2**2 + a22**2

    density = h2_density(v) + h2_density(vt)
    return integrate_values(g, density, "section_time")


def _window_indices(grid: SpaceTimeGrid, eps: float) -> tuple[int, int]:
    T = grid.domain.T
    if not (0.0 < eps < T / 2.0):
        raise ValueError(f"eps={eps} must lie in (0, T/2)")
    ia = int(round(eps / grid.dt))
    ib = grid.nt - ia
    if ib - ia < 1:
        raise ValueError(f"eps={eps} leaves no interior time window on this grid")
    return ia, ib


def assemble_stability(u: ScalarField, u_tilde: ScalarField, q: np.ndarray,
                       q_tilde: np.ndarray, grid: SpaceTimeGrid, eps: float,
                       theta: float = float("nan")) -> StabilityReport:
    """All three norms of the stability estimate for one solution pair;
    ``u`` and ``u_tilde`` must live on ``grid``."""
    if u.grid is not grid or u_tilde.grid is not grid:
        raise ValueError("u and u_tilde must share the stability grid")
    ia, ib = _window_indices(grid, eps)
    dq = np.asarray(q_tilde, dtype=float) - np.asarray(q, dtype=float)
    # Trapezoid rule over the node-aligned window (eps, T - eps) x section.
    lhs = float(trapezoid(ib - ia + 1, grid.dt) @ dq[ia : ib + 1] ** 2 @ grid.w2)

    meas_diff = measurement(u_tilde) - measurement(u)
    rhs_boundary = integrate_values(grid, meas_diff**2, "boundary", grid.domain.obs_segment)
    iav = grid.alpha_index
    rhs_trace = mixed_sobolev_norm(grid, u_tilde.values[:, iav, :] - u.values[:, iav, :])
    rhs = rhs_boundary + rhs_trace
    # An unobserved mismatch (rhs = 0 < lhs) has no finite constant.
    empirical = lhs / rhs if rhs != 0.0 else (np.inf if lhs > 0.0 else 0.0)
    r_bound = max(float(np.sqrt(integrate_values(grid, np.asarray(p, dtype=float) ** 2,
                                                 "section_time"))) for p in (q, q_tilde))
    return StabilityReport(eps=eps, theta=theta, lhs=lhs, rhs_boundary=rhs_boundary,
                           rhs_trace=rhs_trace, empirical_C_eps=empirical, r_bound=r_bound)


def check_sweep(grid: SpaceTimeGrid, theta_list, eps_list) -> None:
    """Raise ValueError unless every theta is positive and every eps
    leaves a time window on the grid."""
    if any(t <= 0 for t in theta_list):
        raise ValueError(f"theta values must be positive, got {list(theta_list)}")
    for e in eps_list:
        _window_indices(grid, e)


def perturbation_sweep(grid: SpaceTimeGrid, q: np.ndarray, dq: np.ndarray,
                       f: np.ndarray, theta_list, eps_list) -> list[StabilityReport]:
    """Stability reports over a grid of perturbation sizes and window
    margins.  The base potential and one perturbed potential per theta
    march as one stacked solve."""
    thetas = [float(t) for t in theta_list]
    epss = [float(e) for e in eps_list]
    check_sweep(grid, thetas, epss)
    pot = PotentialSpec(grid, q, f)
    q_tildes = [np.asarray(q, dtype=float) + theta * np.asarray(dq, dtype=float)
                for theta in thetas]
    u, *u_tildes = solve_heat(grid, [pot] + [PotentialSpec(grid, qt, f) for qt in q_tildes],
                              positive_preset_data(grid, pot))
    return [assemble_stability(u, u_tilde, q, q_tilde, grid, eps, theta=theta)
            for theta, q_tilde, u_tilde in zip(thetas, q_tildes, u_tildes) for eps in epss]


def sweep_table(reports: list[StabilityReport]) -> str:
    """Comma-separated summary of a perturbation sweep."""
    return report_text({}, [
        {"theta": r.theta, "eps": r.eps, "lhs": r.lhs, "rhs_boundary": r.rhs_boundary,
         "rhs_trace": r.rhs_trace, "empirical_C_eps": r.empirical_C_eps} for r in reports
    ])
