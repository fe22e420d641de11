"""Weighted-inequality checkers.

Everything here evaluates both sides of one of the weighted estimates on
a concrete grid and reports the measured ratio:

* the anchored prefix-integral inequality with the bounded-regime weight
  (constant expected to stay bounded across the s sweep);
* its open-regime counterpart (ratio expected to decay like 1/s^2);
* the conjugated heat operator exp(-s*phi) H exp(s*phi) and its split
  into the stationary part M1 and the transport part M2, including the
  decomposition gap M - M1 - M2, which is a genuine first-order field and
  is reported rather than hidden;
* the two full Carleman estimates (bounded and open regime), each
  returning per-s empirical constants and an operational threshold s0.

Every weighted mass is one kernel, ``_masses``: each checker writes its
s-independent integrands once into one stack, and each s-row contracts
the whole stack against that row's decayed weight in one call.  Masses
against a decayed weight sum the interior time levels only: by the
convention of :mod:`waveguide_carleman.weights` the decay is exactly
zero at the two endpoint levels, and a negative power of s*g = 0 there
would give 0 * inf = nan.  The split parts M1 and M2 are summed over
every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    FULL,
    ScalarField,
    SpaceTimeGrid,
    derivative,
    gradient,
    integrate_values,
    laplacian,
    normal_derivative,
    prefix_integral_x1,
    report_text,
    time_derivative,
)
from .weights import WeightSystem

#: Guard threshold for exp(s*phi); beyond this the literal conjugation
#: overflows double precision.
OVERFLOW_GUARD = 700.0


class WeightOverflowError(RuntimeError):
    """s * weight exceeded the overflow guard at some node."""


@dataclass
class InequalityReport:
    """Measured sides of one inequality plus its sweep table.

    ``empirical_C`` is lhs / sum(rhs_terms) at the headline parameter
    values; ``sweep`` holds one row per swept s with the same quantities.
    ``verdict`` carries named booleans/thresholds decided by the checker.
    """

    name: str
    lam: float
    s: float
    lhs: float
    rhs_terms: dict[str, float]
    empirical_C: float
    sweep: list[dict] = field(default_factory=list)
    verdict: dict = field(default_factory=dict)

    def to_text(self) -> str:
        entries = {"report": self.name, "lambda": self.lam, "s": self.s, "lhs": self.lhs}
        entries.update((f"rhs.{key}", self.rhs_terms[key]) for key in sorted(self.rhs_terms))
        entries["empirical_C"] = self.empirical_C
        entries.update((f"verdict.{key}", self.verdict[key]) for key in sorted(self.verdict))
        text = report_text(entries)
        return text + "sweep:\n" + report_text({}, self.sweep) if self.sweep else text

    @property
    def passed(self) -> bool:
        """Every boolean verdict holds, and ``s0``, where reported, is not None."""
        v = self.verdict
        return (all(x for x in v.values() if isinstance(x, bool))
                and ("s0" not in v or v["s0"] is not None))


def _require_regime(ws: WeightSystem, regime: str, grid: SpaceTimeGrid,
                    *fields: ScalarField) -> None:
    """Raise ValueError unless ``ws`` has the regime and shares ``grid`` with every field."""
    if ws.params.regime != regime:
        raise ValueError(f"{regime}-regime weight required, got {ws.params.regime!r}")
    if ws.grid is not grid or any(f.grid is not grid for f in fields):
        raise ValueError("every field and the weight system must share the checker's grid")


def _sweep_report(name: str, ws: WeightSystem, sweep: list[dict], ratio_key: str,
                  rhs_keys: dict[str, str], verdict: dict) -> InequalityReport:
    """The report of one s sweep, headed by the row at ``ws.params.s`` (the
    first row when that s was not swept); ``rhs_keys`` maps each rhs term
    to its sweep column."""
    head = next((row for row in sweep if row["s"] == ws.params.s), sweep[0])
    return InequalityReport(
        name=name,
        lam=ws.params.lam,
        s=head["s"],
        lhs=head["lhs"],
        rhs_terms={term: head[col] for term, col in rhs_keys.items()},
        empirical_C=head[ratio_key],
        sweep=sweep,
        verdict=verdict,
    )


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        if lhs > 1e-14 * max(1.0, abs(lhs)):
            raise ValueError(
                f"weighted quadrature returned rhs=0 with lhs={lhs}; the weight "
                "cannot vanish on one side only"
            )
        return 0.0
    return lhs / rhs


def _masses(grid: SpaceTimeGrid, decay: np.ndarray, stack: np.ndarray, wt) -> list[float]:
    """Trapezoid integral of decay * stack[k] over the time levels that
    ``wt[k]`` weights, for every member k; ``decay`` is shared by the
    members or stacked like them.  Products and x2 sums are one contraction
    (no full-size product), and each member has the bytes of its own call."""
    rows = np.einsum("...tij,...tij,j->...ti", decay, stack, grid.w2)
    return [float(w @ (r @ grid.w1)) for w, r in zip(wt, rows)]


def _interior_masses(grid: SpaceTimeGrid, decay: np.ndarray, stack: np.ndarray,
                     sg: np.ndarray | None = None, powers=None) -> list[float]:
    """:func:`_masses` over the interior time levels, member k times
    (s*g)^powers[k] (0 when ``powers`` is None) folded into the time weights."""
    wt = grid.wt[1:-1]
    wts = [wt if p == 0 else wt * sg[1:-1] ** p for p in powers or [0] * len(stack)]
    return _masses(grid, decay[1:-1], stack[:, 1:-1], wts)


#: Power of s*g multiplying each summand of :func:`weighted_norm_I1`.
_I1_POWERS = {"laplacian": -1, "time": -1, "gradient": 1, "zero_order": 3}


def _square_I1_densities(z: ScalarField, stack: np.ndarray) -> None:
    """Write the s-independent integrands of :func:`weighted_norm_I1` into
    ``stack[:4]`` one at a time, so at most two derivatives are live beside it."""
    g, v = z.grid, z.values
    np.square(laplacian(z).values, out=stack[0])
    np.square(derivative(v, g.dt, 0), out=stack[1])
    _square_gradient(g, v, stack[2])
    np.square(v, out=stack[3])


def _square_gradient(grid: SpaceTimeGrid, v: np.ndarray, out: np.ndarray) -> None:
    """Write |grad v|^2 into ``out``, one derivative at a time."""
    np.square(derivative(v, grid.dx1, 1), out=out)
    d2 = derivative(v, grid.dx2, 2)
    out += np.square(d2, out=d2)


def weighted_norm_I1(z: ScalarField, ws: WeightSystem, s: float | None = None) -> dict[str, float]:
    """The four weighted summands controlled by the bounded-regime
    estimate: (sg)^-1 (Lap z)^2, (sg)^-1 (z_t)^2, sg |grad z|^2 and
    (sg)^3 z^2, each integrated against exp(-2 s eta)."""
    _require_regime(ws, "bounded", z.grid)
    s_val = ws.params.s if s is None else s
    stack = np.empty((4,) + z.grid.shape)
    _square_I1_densities(z, stack)
    terms = dict(zip(_I1_POWERS, _interior_masses(z.grid, ws.decay(s_val), stack,
                                                  s_val * ws.g, _I1_POWERS.values())))
    terms["total"] = sum(terms.values())
    return terms


# ---------------------------------------------------------------------------
# Anchored prefix-integral inequalities
# ---------------------------------------------------------------------------


def _prefix_sweep(F: ScalarField, ws: WeightSystem, grid: SpaceTimeGrid,
                  s_list: list) -> list[dict]:
    """One row per s: the weighted mass of the squared anchored prefix
    integral of F (``lhs``) and of F^2 itself (``rhs``)."""
    pair = np.empty((2,) + grid.shape)
    np.square(prefix_integral_x1(F).values, out=pair[0])
    np.square(F.values, out=pair[1])
    sweep = []
    for s in s_list:
        lhs, rhs = _interior_masses(grid, ws.decay(s), pair)
        sweep.append({"s": s, "lambda": ws.params.lam, "lhs": lhs, "rhs": rhs})
    return sweep


def lemma_bounded_check(F: ScalarField, ws: WeightSystem, grid: SpaceTimeGrid,
                        s_values) -> InequalityReport:
    """Compare the weighted mass of the anchored prefix integral of F with
    the weighted mass of F itself, sweeping s.  The constant is expected
    to stay bounded across the sweep (s-uniform)."""
    _require_regime(ws, "bounded", grid, F)
    sweep = _prefix_sweep(F, ws, grid, s_values)
    for row in sweep:
        row["empirical_C"] = _ratio(row["lhs"], row["rhs"])

    ratios = [row["empirical_C"] for row in sweep]
    s_uniform = all(r <= 2.0 * ratios[0] + 1e-15 for r in ratios)
    return _sweep_report("prefix_integral_bounded", ws, sweep, "empirical_C",
                         {"quadrature": "rhs"},
                         {"s_uniform": s_uniform, "max_over_sweep": max(ratios)})


def lemma_open_check(F: ScalarField, ws: WeightSystem, grid: SpaceTimeGrid,
                     s_values) -> InequalityReport:
    """Open-regime counterpart: the ratio is expected to decay like 1/s^2,
    measured as the slope of log(ratio) against log(s)."""
    _require_regime(ws, "open", grid, F)
    sweep = _prefix_sweep(F, ws, grid, s_values)
    for row in sweep:
        row["ratio"] = _ratio(row["lhs"], row["rhs"])
        row["ratio_times_s2"] = row["ratio"] * row["s"] * row["s"]

    positive = [(row["s"], row["ratio"]) for row in sweep if row["ratio"] > 0.0]
    if len(positive) >= 2:
        ss, rr = zip(*positive)
        slope = float(np.polyfit(np.log(ss), np.log(rr), 1)[0])
    else:
        slope = float("nan")
    return _sweep_report("prefix_integral_open", ws, sweep, "ratio", {"quadrature": "rhs"}, {
        "fitted_slope": slope,
        "slope_in_band": bool(-2.5 <= slope <= -1.5),
        "kappa": float(np.min(ws.dpsi_dx1)),
    })


def r_monotonicity_audit(ws: WeightSystem, grid: SpaceTimeGrid) -> float:
    """Maximum of the comparison kernel r(x1, xi) = exp(-2s (eta(x1) -
    eta(xi))) over the two triangular regions where xi lies between the
    anchor and x1.  The constructed weights keep this at most 1; the value
    is scale-invariant in t, and the middle time level is scanned."""
    s = ws.params.s
    ia = grid.alpha_index
    eta = ws.weight.values[grid.nt // 2]  # (n1+2, n2+2)

    idx = np.arange(eta.shape[0])
    right = (idx[:, None] >= ia) & (idx[None, :] >= ia) & (idx[None, :] <= idx[:, None])
    left = (idx[:, None] <= ia) & (idx[None, :] <= ia) & (idx[None, :] >= idx[:, None])
    mask = right | left
    diff = eta[:, None, :] - eta[None, :, :]  # eta(x1) - eta(xi), per x2 column
    return float(np.exp(-2.0 * s * diff[mask]).max())


# ---------------------------------------------------------------------------
# Conjugated operator
# ---------------------------------------------------------------------------


@dataclass
class ConjugatedDecomposition:
    """M w computed literally and by product-rule expansion, the split
    parts M1/M2, and the decomposition gap M_literal - (M1 + M2)."""

    M_literal: ScalarField
    M_expanded: ScalarField
    M1: ScalarField
    M2: ScalarField
    residual: ScalarField


def conjugated_operator(w: ScalarField, ws: WeightSystem,
                        s: float | None = None) -> ConjugatedDecomposition:
    """Evaluate M w = exp(-s phi) (d/dt - Lap)(exp(s phi) w) two ways and
    split it into the stationary and transport parts.

    The literal route exponentiates s*phi on the grid, so it is guarded
    against double-precision overflow.  Endpoint time levels use the
    stored placeholder weight (zero); their rows are convention-dominated
    and comparisons should restrict to interior times.
    """
    grid = w.grid
    _require_regime(ws, "open", grid)
    s_val = ws.params.s if s is None else s
    phi = ws.weight.values

    peak = s_val * float(np.max(phi))
    if peak > OVERFLOW_GUARD:
        idx = np.unravel_index(int(np.argmax(phi)), phi.shape)
        raise WeightOverflowError(
            f"s*phi = {peak:.1f} exceeds {OVERFLOW_GUARD} at (time,x1,x2) index {idx}"
        )

    E = np.exp(s_val * phi)
    Einv = np.exp(-s_val * phi)
    Ew = ScalarField(grid, E * w.values, FULL)
    M_lit = (time_derivative(Ew).values - laplacian(Ew).values) * Einv

    coeffs = _weight_coefficients(ws)
    phi_t, phi_x1, phi_x2, phi_lap, grad_phi_sq = coeffs

    wt = time_derivative(w).values
    wlap = laplacian(w).values
    w1, w2 = gradient(w)
    grad_dot = phi_x1 * w1.values + phi_x2 * w2.values

    M_exp = (
        wt
        + s_val * phi_t * w.values
        - wlap
        - 2.0 * s_val * grad_dot
        - (s_val**2 * grad_phi_sq + s_val * phi_lap) * w.values
    )

    M1, M2 = _split_parts(grid, w.values, coeffs, s_val)

    residual = M_lit - (M1 + M2)

    return ConjugatedDecomposition(
        M_literal=ScalarField(grid, M_lit, FULL),
        M_expanded=ScalarField(grid, M_exp, FULL),
        M1=ScalarField(grid, M1, FULL),
        M2=ScalarField(grid, M2, FULL),
        residual=ScalarField(grid, residual, FULL),
    )


# ---------------------------------------------------------------------------
# Full Carleman estimates
# ---------------------------------------------------------------------------


def _boundary_trace_max(f: ScalarField, name: str) -> float:
    """Largest |f| on the space boundary.  Raises ValueError above
    10 * max(dx1, dx2)^2: both Carleman estimates need a field that
    vanishes there."""
    g = f.grid
    tol = 10.0 * max(g.dx1, g.dx2) ** 2
    v = f.values
    trace_max = max(float(np.max(np.abs(face)))
                    for face in (v[:, 0, :], v[:, -1, :], v[:, :, 0], v[:, :, -1]))
    if trace_max > tol:
        raise ValueError(
            f"{name} does not vanish on the space boundary: max trace {trace_max} > tol {tol}"
        )
    return trace_max


def _find_s0(sweep: list[dict], key: str) -> float | None:
    """Smallest swept s beyond which the constant is non-increasing within
    10% at every subsequent step; None when no such point exists."""
    cs = [row[key] for row in sweep]
    ss = [row["s"] for row in sweep]
    for k0 in range(len(cs)):
        tail = cs[k0:]
        if all(tail[i + 1] <= 1.1 * tail[i] for i in range(len(tail) - 1)):
            return ss[k0]
    return None


#: Sweep columns of the two right-hand-side terms of both Carleman estimates.
_CARLEMAN_RHS = {"source": "rhs_source", "boundary": "rhs_boundary"}


def _carleman_verdict(sweep: list[dict], trace_max: float) -> dict:
    return {
        "s0": _find_s0(sweep, "empirical_C"),
        "all_finite": bool(np.all(np.isfinite([row["empirical_C"] for row in sweep]))),
        "boundary_trace_max": trace_max,
    }


def carleman_check_bounded(z: ScalarField, Pz: ScalarField, ws: WeightSystem,
                           grid: SpaceTimeGrid, s_values) -> InequalityReport:
    """Empirical constant of the bounded-regime estimate for a field z
    vanishing on the whole space boundary.

    ``Pz`` is supplied by the caller (closed form for manufactured test
    fields, the differentiated-equation right-hand side for pipeline
    fields).  The right-hand side combines the weighted mass of Pz with
    the observation-wall flux term.
    """
    _require_regime(ws, "bounded", grid, z, Pz)
    trace_max = _boundary_trace_max(z, "z")

    obs = grid.domain.obs_segment
    dnu_z_sq = normal_derivative(z, obs).values ** 2
    wall_j = -1 if obs == "x2_max" else 0
    # The s-independent integrands: the four of weighted_norm_I1, then Pz^2.
    stack = np.empty((5,) + grid.shape)
    _square_I1_densities(z, stack)
    np.square(Pz.values, out=stack[4])

    sweep = []
    for s in s_values:
        decay = ws.decay(s)
        sg = s * ws.g
        *terms, rhs_q = _interior_masses(grid, decay, stack, sg, [*_I1_POWERS.values(), 0])
        lhs = sum(terms)

        flux = decay[:, :, wall_j] * sg[:, None] * dnu_z_sq
        rhs_b = integrate_values(grid, flux, "boundary", segment=obs)

        sweep.append(
            {"s": s, "lambda": ws.params.lam, "lhs": lhs, "rhs_source": rhs_q,
             "rhs_boundary": rhs_b, "empirical_C": _ratio(lhs, rhs_q + rhs_b)}
        )
    return _sweep_report("carleman_bounded", ws, sweep, "empirical_C", _CARLEMAN_RHS,
                         _carleman_verdict(sweep, trace_max))


def carleman_check_open(u: ScalarField, Hu: ScalarField, ws: WeightSystem,
                        grid: SpaceTimeGrid, s_values) -> InequalityReport:
    """Empirical constant of the open-regime estimate on the truncated
    domain, for u vanishing on the whole truncated boundary.

    The left side combines the weighted zero-order and gradient masses
    with the squared norms of the split conjugated parts; the right side
    is the observation-wall flux term weighted by the outward normal
    slope of psi, plus the weighted mass of Hu.
    """
    _require_regime(ws, "open", grid, u, Hu)
    trace_max = _boundary_trace_max(u, "u")

    lam = ws.params.lam
    obs = grid.domain.obs_segment
    wall_j = -1 if obs == "x2_max" else 0
    dnu_psi = ws.obs_normal_psi()
    if np.min(dnu_psi) < 0.0:
        raise ValueError(
            "outward normal slope of psi is negative on the observation wall; "
            "the weight construction guarantees the opposite sign"
        )
    # The s-independent integrands phi^3 u^2, phi |grad u|^2 and Hu^2,
    # written once, one member at a time.
    phi, v = ws.weight.values, u.values
    stack = np.empty((3,) + grid.shape)
    np.square(v, out=stack[0])
    stack[0] *= phi**3
    _square_gradient(grid, v, stack[1])
    stack[1] *= phi
    np.square(Hu.values, out=stack[2])
    flux_density = phi[:, :, wall_j] * normal_derivative(u, obs).values ** 2 * dnu_psi[None, :]
    coeffs = _weight_coefficients(ws)

    sweep = []
    for s in s_values:
        decay = ws.decay(s)
        zero, grad, rhs_q = _interior_masses(grid, decay, stack)
        lhs_zero = s**3 * lam**4 * zero
        lhs_grad = s * lam * grad

        wbar = ws.decay(s / 2)
        wbar *= v
        m1, m2 = _split_parts(grid, wbar, coeffs, s)
        lhs_m1, lhs_m2 = (_masses(grid, m, m[None], [grid.wt])[0] for m in (m1, m2))
        lhs = lhs_zero + lhs_grad + lhs_m1 + lhs_m2

        flux = decay[:, :, wall_j] * flux_density
        rhs_b = s * lam * integrate_values(grid, flux, "boundary", segment=obs)

        sweep.append(
            {
                "s": s, "lambda": lam, "lhs_zero_order": lhs_zero,
                "lhs_gradient": lhs_grad, "lhs_M1": lhs_m1, "lhs_M2": lhs_m2,
                "lhs": lhs, "rhs_boundary": rhs_b, "rhs_source": rhs_q,
                "empirical_C": _ratio(lhs, rhs_b + rhs_q),
            }
        )

    return _sweep_report("carleman_open", ws, sweep, "empirical_C", _CARLEMAN_RHS,
                         _carleman_verdict(sweep, trace_max))


def _weight_coefficients(ws: WeightSystem) -> tuple[np.ndarray, ...]:
    """(phi_t, phi_x1, phi_x2, Lap phi, |grad phi|^2) from the closed
    forms.  None of them depends on s."""
    phi_t = ws.weight_time_derivative()
    phi_x1, phi_x2 = ws.weight_gradient()
    phi_lap = ws.weight_laplacian()
    return phi_t, phi_x1, phi_x2, phi_lap, phi_x1**2 + phi_x2**2


def _split_parts(grid: SpaceTimeGrid, w: np.ndarray, coeffs: tuple[np.ndarray, ...],
                 s: float) -> tuple[np.ndarray, np.ndarray]:
    """The stationary part M1 = -Lap w - (s^2 |grad phi|^2 + s phi_t) w and
    the transport part M2 = w_t + 2s grad phi . grad w + s Lap(phi) w of
    the conjugated operator applied to the values ``w``, with the weight
    coefficients from :func:`_weight_coefficients`.  Each part is summed
    in place, term by term in that order."""
    phi_t, phi_x1, phi_x2, phi_lap, grad_phi_sq = coeffs
    scratch = np.empty_like(w)

    m1 = derivative(w, grid.dx1, 1, order=2)
    m1 += derivative(w, grid.dx2, 2, order=2)
    np.negative(m1, out=m1)
    for coef, scale in ((grad_phi_sq, s**2), (phi_t, s)):
        np.multiply(coef, scale, out=scratch)
        scratch *= w
        m1 -= scratch

    transport = derivative(w, grid.dx1, 1)
    transport *= phi_x1
    np.multiply(derivative(w, grid.dx2, 2), phi_x2, out=scratch)
    transport += scratch
    transport *= 2.0 * s
    m2 = derivative(w, grid.dt, 0)
    m2 += transport
    np.multiply(phi_lap, s, out=scratch)
    scratch *= w
    m2 += scratch
    return m1, m2
