"""Both sides of the stability estimate, assembled from pipeline output.

The left side is the squared L2 mass of the potential mismatch q - q~
over a time window (eps, T - eps) x cross-section; the right side
combines the squared mismatch of the observed wall measurement
d/dnu d/dx1 (u~ - u) with the squared mixed Sobolev norm (H1 in time,
H2 in the cross-section) of the solution mismatch traced on the anchor
column x1 = alpha.  The wall trace is a plain ``(time, n)`` array; the
anchor trace is sliced from each field inside :func:`mixed_sobolev_norm`.
The reported empirical constant is their ratio: ``inf`` for a mismatch
the right side does not see, and 0 when both sides vanish.

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


def mixed_sobolev_norm(u: ScalarField, u_tilde: ScalarField) -> float:
    """Squared H1-in-time / H2-in-cross-section norm of the mismatch
    u~ - u traced on the anchor column x1 = alpha: the time integral of
    ||v||^2 + ||v_x2||^2 + ||v_x2x2||^2 for the trace v and its time
    derivative.  Each field's anchor column is sliced before differencing,
    so no trace on another axis can enter.  Raises ``ValueError`` unless
    both are full fields on one grid."""
    if not (isinstance(u, ScalarField) and isinstance(u_tilde, ScalarField)):
        raise ValueError("mixed Sobolev norm expects two full fields, not traces")
    g = u.grid
    if u_tilde.grid is not g:
        raise ValueError("u and u_tilde must share one grid")
    v = u_tilde.values[:, g.alpha_index, :] - u.values[:, g.alpha_index, :]
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
    if ia == 0:
        raise ValueError(f"eps={eps} rounds to time level 0 on this grid (dt={grid.dt}), "
                         f"so the window would start at t=0")
    ib = grid.nt - ia
    if ib - ia < 1:
        raise ValueError(f"eps={eps} leaves no interior time window on this grid")
    return ia, ib


def assemble_stability(u: ScalarField, u_tilde: ScalarField, q: np.ndarray,
                       q_tilde: np.ndarray, eps: float,
                       theta: float = float("nan")) -> StabilityReport:
    """All three norms of the stability estimate for one solution pair, on
    ``u``'s grid; ``u_tilde`` must share it."""
    if u_tilde.grid is not u.grid:
        raise ValueError("u and u_tilde must share one grid")
    return _reports(u, measurement(u), u_tilde, q, q_tilde, [eps], theta)[0]


def _reports(u: ScalarField, meas_u: np.ndarray, u_tilde: ScalarField, q: np.ndarray,
             q_tilde: np.ndarray, epss, theta: float) -> list[StabilityReport]:
    """One report per eps; the right side, which no window enters, is formed once."""
    grid = u.grid
    meas_diff = measurement(u_tilde) - meas_u
    rhs_boundary = integrate_values(grid, meas_diff**2, "wall")
    rhs_trace = mixed_sobolev_norm(u, u_tilde)
    rhs = rhs_boundary + rhs_trace
    r_bound = max(float(np.sqrt(integrate_values(grid, np.asarray(p, dtype=float) ** 2,
                                                 "section_time"))) for p in (q, q_tilde))
    dq = np.asarray(q_tilde, dtype=float) - np.asarray(q, dtype=float)

    def report(eps: float) -> StabilityReport:
        ia, ib = _window_indices(grid, eps)
        # Trapezoid rule over the node-aligned window (eps, T - eps) x section.
        lhs = float(trapezoid(ib - ia + 1, grid.dt) @ dq[ia : ib + 1] ** 2 @ grid.w2)
        # An unobserved mismatch (rhs = 0 < lhs) has no finite constant.
        empirical = lhs / rhs if rhs != 0.0 else (np.inf if lhs > 0.0 else 0.0)
        return StabilityReport(eps, theta, lhs, rhs_boundary, rhs_trace, empirical, r_bound)
    return [report(eps) for eps in epss]


def check_sweep(grid: SpaceTimeGrid, theta_list, eps_list) -> None:
    """Raise ValueError unless every theta is positive and every eps
    leaves a time window on the grid that starts after t=0."""
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
                              positive_preset_data(pot))
    meas_u = measurement(u)
    return [report for theta, q_tilde, u_tilde in zip(thetas, q_tildes, u_tildes)
            for report in _reports(u, meas_u, u_tilde, q, q_tilde, epss, theta)]


def sweep_table(reports: list[StabilityReport]) -> str:
    """Comma-separated summary of a perturbation sweep."""
    return report_text({}, [
        {"theta": r.theta, "eps": r.eps, "lhs": r.lhs, "rhs_boundary": r.rhs_boundary,
         "rhs_trace": r.rhs_trace, "empirical_C_eps": r.empirical_C_eps} for r in reports
    ])
