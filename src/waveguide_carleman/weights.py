"""Singular-in-time Carleman weight systems on the waveguide.

Two regimes are supported:

* ``bounded``: spatial profile ``psi = psi1(x1) * psi2(x2)`` and weight
  ``eta = g(t) * (exp(2*lam*sup|psi|) - exp(lam*psi))``;
* ``open`` (truncated axial line): ``psi = exp(x1) * psi2(x2)`` and weight
  ``phi = g(t) * exp(lam*psi)``,

with the singular time profile ``g(t) = 1/(t*(T-t))`` in both regimes.
The profiles are explicit closed forms, so every assumption margin (lower
bound of psi, of |grad psi|, boundary signs of the normal derivative) is
computed from exact derivatives rather than difference quotients.

Orientation of the axial profile: ``psi1`` attains its *maximum* at the
anchor ``alpha`` and decreases toward both end caps, with vanishing slope
at the caps.  This makes the comparison kernel
``r(x1, xi) = exp(-2s*(eta(x1) - eta(xi)))`` satisfy ``r <= 1`` whenever
``xi`` lies between ``alpha`` and ``x1``, which is exactly the
monotonicity that the anchored prefix-integral inequality needs, and it
keeps that inequality's constant bounded uniformly in ``s``.

Time endpoints: ``g`` blows up at t=0 and t=T, so the stored ``g`` array
and every stored weight field carry the value 0 at the two endpoint time
levels as a placeholder.  The decayed weights ``exp(-2s*weight)`` vanish
at the endpoints faster than any polynomial, so all weighted quadratures
in this package assign the endpoint levels weight zero analytically; the
placeholders are never used as actual weight values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import FULL, SPATIAL_SLICE, ScalarField, SpaceTimeGrid, report_text

#: Decayed weight values below this threshold are clamped to exactly zero,
#: giving deterministic underflow behaviour in quadratures.
UNDERFLOW_CLAMP = 1e-300
#: Floor of every decay exponent.  Its exp (about 3.7e-301) is below the
#: clamp, so a floored node is zeroed as it would be without the floor,
#: and no ``exp`` takes numpy's slow underflow path.
EXPONENT_FLOOR = math.log(UNDERFLOW_CLAMP) - 1.0


@dataclass(frozen=True)
class WeightParams:
    """Parameters of a weight system.

    ``lam`` is the sharpness of the exponential spatial factor, ``s`` the
    large parameter multiplying the weight in the decay ``exp(-2*s*...)``,
    ``delta`` the positivity offset of the cross-section profile and
    ``c1`` the positivity floor of the axial profile.
    """

    lam: float = 1.0
    s: float = 4.0
    regime: str = "bounded"
    delta: float = 0.5
    c1: float = 0.5

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.s <= 0 or self.delta <= 0 or self.c1 <= 0:
            raise ValueError(f"lam, s, delta and c1 must all be positive, got lam={self.lam}, "
                             f"s={self.s}, delta={self.delta}, c1={self.c1}")
        if self.regime not in ("bounded", "open"):
            raise ValueError(f"regime must be 'bounded' or 'open', got {self.regime!r}")


@dataclass(frozen=True)
class AxialWeightProfile:
    """Quartic axial profile with slope (alpha - x1)(L - x1)(L + x1).

    The slope vanishes at both caps and changes sign exactly at ``alpha``
    (positive left of it, negative right of it), so the profile has its
    maximum at the anchor.  ``offset`` shifts the primitive so that the
    minimum over [-L, L] equals ``c1 > 0``.
    """

    L: float
    alpha: float
    c1: float
    offset: float = field(init=False)

    def __post_init__(self) -> None:
        p_ends = min(self._primitive(-self.L), self._primitive(self.L))
        object.__setattr__(self, "offset", self.c1 - p_ends)

    def _primitive(self, x):
        L2 = self.L**2
        return self.alpha * L2 * x - self.alpha * x**3 / 3.0 - L2 * x**2 / 2.0 + x**4 / 4.0

    def value(self, x):
        return self._primitive(np.asarray(x, dtype=float)) + self.offset

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return (self.alpha - x) * (self.L - x) * (self.L + x)

    def second_derivative(self, x):
        x = np.asarray(x, dtype=float)
        return 3.0 * x**2 - 2.0 * self.alpha * x - self.L**2


@dataclass(frozen=True)
class SectionWeightProfile:
    """Affine cross-section profile, increasing toward the observed wall.

    With the top wall observed this is ``x2 + delta``; with the bottom
    wall observed it is ``(h - x2) + delta``.  Either way the slope has
    unit modulus, the profile is positive, and the outward normal
    derivative on the unobserved wall equals -1.
    """

    h: float
    delta: float
    obs_side: str = "top"

    @property
    def slope(self) -> float:
        return 1.0 if self.obs_side == "top" else -1.0

    def value(self, x2):
        x2 = np.asarray(x2, dtype=float)
        if self.obs_side == "top":
            return x2 + self.delta
        return (self.h - x2) + self.delta

    def derivative(self, x2):
        return np.full_like(np.asarray(x2, dtype=float), self.slope)

    def second_derivative(self, x2):
        return np.zeros_like(np.asarray(x2, dtype=float))


@dataclass(frozen=True)
class ConstantAxisProfile:
    """Degenerate constant profile (test hook for forcing broken weights)."""

    c: float

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def second_derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def make_psi1(domain, c1: float, alpha: float | None = None) -> AxialWeightProfile:
    """Axial weight profile anchored at ``alpha`` (defaults to the domain's)."""
    a = domain.alpha if alpha is None else alpha
    if not (-domain.L < a < domain.L):
        raise ValueError(f"alpha={a} must lie strictly inside (-L, L)")
    return AxialWeightProfile(L=domain.L, alpha=a, c1=c1)


def make_psi2(domain, delta: float) -> SectionWeightProfile:
    """Cross-section weight profile increasing toward the observed wall."""
    return SectionWeightProfile(h=domain.h, delta=delta, obs_side=domain.obs_side)


def singular_time_profile(grid: SpaceTimeGrid) -> np.ndarray:
    """Samples of 1/(t*(T-t)) with endpoint placeholders equal to 0.

    The levels up to the middle are evaluated and the rest mirrored, so
    ``g[k] == g[nt - k]`` holds exactly, as it does for the function;
    :meth:`WeightSystem.decay` relies on this symmetry.
    """
    t = grid.t[1 : grid.nt // 2 + 1]
    g = np.zeros_like(grid.t)
    g[1 : grid.nt // 2 + 1] = 1.0 / (t * (grid.domain.T - t))
    return _mirror_in_time(g)


def _mirror_in_time(a: np.ndarray) -> np.ndarray:
    """Copy levels 1..(nt-1)//2 of ``a`` (nt + 1 time levels on its first
    axis) onto levels nt-1..nt-(nt-1)//2; returns ``a``."""
    nt = a.shape[0] - 1
    m = (nt - 1) // 2
    a[nt - m : nt] = a[1 : m + 1][::-1]
    return a


def singular_time_profile_derivative(grid: SpaceTimeGrid) -> np.ndarray:
    """d/dt of the singular time profile, endpoint placeholders 0."""
    t = grid.t
    T = grid.domain.T
    out = np.zeros_like(t)
    out[1:-1] = -(T - 2.0 * t[1:-1]) / (t[1:-1] * (T - t[1:-1])) ** 2
    return out


class WeightSystem:
    """Assembled weight system: spatial profiles, the time profile and the
    full space-time weight (eta in the bounded regime, phi in the open
    one), plus exact spatial derivatives used by the assumption checkers
    and by the conjugated-operator formulas."""

    def __init__(self, params: WeightParams, grid: SpaceTimeGrid,
                 psi1_profile=None, psi2_profile=None):
        if params.regime == "open" and not grid.domain.truncated:
            raise ValueError("open-regime weights require a truncated grid")
        self.params = params
        self.grid = grid
        domain = grid.domain

        self.psi2_profile = psi2_profile if psi2_profile is not None else make_psi2(
            domain, params.delta
        )
        self.psi1_profile = psi1_profile if psi1_profile is not None else make_psi1(
            domain, params.c1, alpha=grid.alpha_snapped
        )

        p1 = self.psi1_profile.value(grid.x1)
        p2 = self.psi2_profile.value(grid.x2)
        dp2 = self.psi2_profile.derivative(grid.x2)

        if params.regime == "bounded":
            dp1 = self.psi1_profile.derivative(grid.x1)
            d2p1 = self.psi1_profile.second_derivative(grid.x1)
            psi = np.outer(p1, p2)
            dpsi_dx1 = np.outer(dp1, p2)
            dpsi_dx2 = np.outer(p1, dp2)
            lap_psi = np.outer(d2p1, p2)  # the affine psi2 has zero curvature
        else:
            ex = np.exp(grid.x1)
            psi = np.outer(ex, p2)
            dpsi_dx1 = psi
            dpsi_dx2 = np.outer(ex, dp2)
            lap_psi = psi  # exp(x1)*psi2 is its own axial second derivative

        self.psi_values = psi
        self.dpsi_dx1 = dpsi_dx1
        self.dpsi_dx2 = dpsi_dx2
        self.lap_psi = lap_psi
        self.psi1 = ScalarField(grid, np.outer(p1, np.ones_like(p2)), SPATIAL_SLICE)
        self.psi2 = ScalarField(grid, np.outer(np.ones_like(p1), p2), SPATIAL_SLICE)
        self.psi = ScalarField(grid, psi, SPATIAL_SLICE)
        self.psi_sup = float(np.max(np.abs(psi)))
        self.C0_margin = float(np.min(np.hypot(dpsi_dx1, dpsi_dx2)))

        self.g = singular_time_profile(grid)
        self.exp_lam_psi = np.exp(params.lam * psi)
        if params.regime == "bounded":
            weight_cap = float(np.exp(2.0 * params.lam * self.psi_sup))
            self.spatial_weight = weight_cap - self.exp_lam_psi
        else:
            self.spatial_weight = self.exp_lam_psi
        values = self.g[:, None, None] * self.spatial_weight[None, :, :]
        self.weight = ScalarField(grid, values, FULL)

    # -- decayed weights ----------------------------------------------------

    def decay(self, s: float | None = None) -> np.ndarray:
        """exp(-2*s*weight) with endpoint time rows exactly 0 and values
        below the underflow clamp set to 0; the exponent is floored at
        :data:`EXPONENT_FLOOR` first, which changes no output.

        The weight is symmetric in time (see :func:`singular_time_profile`),
        so levels 1..nt//2 are evaluated and copied to their mirror levels.
        """
        factor = 2.0 * (self.params.s if s is None else s)
        levels = slice(1, self.grid.nt // 2 + 1)
        out = np.empty(self.grid.shape)
        out[0] = out[-1] = 0.0
        half = out[levels]
        np.multiply(self.weight.values[levels], -factor, out=half)
        np.maximum(half, EXPONENT_FLOOR, out=half)
        np.exp(half, out=half)
        half *= half >= UNDERFLOW_CLAMP
        return _mirror_in_time(out)

    # -- closed-form derivatives of the weight -------------------------------

    def weight_time_derivative(self) -> np.ndarray:
        """d(weight)/dt from the closed form, endpoint rows 0."""
        gp = singular_time_profile_derivative(self.grid)
        return gp[:, None, None] * self.spatial_weight[None, :, :]

    def weight_gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """Spatial gradient of the weight from the closed form."""
        lam = self.params.lam
        core = self.g[:, None, None] * (lam * self.exp_lam_psi)[None, :, :]
        sign = -1.0 if self.params.regime == "bounded" else 1.0
        return sign * core * self.dpsi_dx1[None, :, :], sign * core * self.dpsi_dx2[None, :, :]

    def weight_laplacian(self) -> np.ndarray:
        """Spatial Laplacian of the weight from the closed form."""
        lam = self.params.lam
        grad_sq = self.dpsi_dx1**2 + self.dpsi_dx2**2
        spatial = lam * self.exp_lam_psi * (self.lap_psi + lam * grad_sq)
        sign = -1.0 if self.params.regime == "bounded" else 1.0
        return sign * self.g[:, None, None] * spatial[None, :, :]

    def obs_normal_psi(self) -> np.ndarray:
        """Outward normal derivative of psi on the observed wall, per x1."""
        if self.grid.domain.obs_side == "top":
            return self.dpsi_dx2[:, -1].copy()
        return -self.dpsi_dx2[:, 0].copy()

    def hidden_normal_psi(self) -> np.ndarray:
        """Outward normal derivative of psi on the unobserved wall, per x1."""
        if self.grid.domain.obs_side == "top":
            return -self.dpsi_dx2[:, 0]
        return self.dpsi_dx2[:, -1]


def assemble_weight(params: WeightParams, grid: SpaceTimeGrid,
                    psi1_profile=None, psi2_profile=None) -> WeightSystem:
    """Build a :class:`WeightSystem`; the profile arguments are test hooks
    that substitute degenerate profiles for the constructed ones."""
    return WeightSystem(params, grid, psi1_profile=psi1_profile, psi2_profile=psi2_profile)


# ---------------------------------------------------------------------------
# Assumption checkers
# ---------------------------------------------------------------------------


@dataclass
class AssumptionBullet:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class AssumptionReport:
    regime: str
    bullets: list[AssumptionBullet]
    extras: dict

    @property
    def all_passed(self) -> bool:
        return all(b.passed for b in self.bullets)

    def to_text(self) -> str:
        entries = {"regime": self.regime, "all_passed": str(self.all_passed).lower()}
        for b in self.bullets:
            entries[f"bullet.{b.name}"] = (f"{'pass' if b.passed else 'FAIL'} "
                                           f"margin={b.margin!r}{' ' + b.detail if b.detail else ''}")
        entries.update((key, repr(self.extras[key])) for key in sorted(self.extras))
        return report_text(entries)


def check_assumption_bounded(ws: WeightSystem) -> AssumptionReport:
    """Evaluate the five structural conditions on the bounded-regime psi.

    Margins come from the exact closed-form derivatives.  Failures are
    reported, never raised, so degenerate test profiles can be probed.
    """
    if ws.params.regime != "bounded":
        raise ValueError("bounded-regime checker called on an open-regime system")
    grid = ws.grid
    ia = grid.alpha_index

    min_psi = float(np.min(ws.psi_values))
    b1 = AssumptionBullet("psi_positive", min_psi > 0.0, min_psi)

    b2 = AssumptionBullet("gradient_lower_bound", ws.C0_margin > 0.0, ws.C0_margin)

    # Outward normal derivative of psi away from the observed wall: the two
    # caps and the unobserved lateral wall.
    cap_lo = -ws.dpsi_dx1[0, :]
    cap_hi = ws.dpsi_dx1[-1, :]
    worst = float(max(cap_lo.max(), cap_hi.max(), ws.hidden_normal_psi().max()))
    b3 = AssumptionBullet("normal_nonpositive_off_obs", worst <= 0.0, worst)

    # Axial slope: positive strictly left of the anchor, negative strictly
    # right of it (maximum of psi1 at alpha).  The caps are excluded: the
    # slope vanishes there by construction and the condition is interior.
    left = ws.dpsi_dx1[1:ia, :]
    right = ws.dpsi_dx1[ia + 1 : -1, :]
    left_margin = float(left.min()) if left.size else float("inf")
    right_margin = float(right.max()) if right.size else float("-inf")
    b4 = AssumptionBullet("axial_slope_positive_left", left_margin > 0.0, left_margin)
    b5 = AssumptionBullet("axial_slope_negative_right", right_margin < 0.0, right_margin)

    extras = {
        "psi_sup": ws.psi_sup,
        "alpha": grid.alpha_snapped,
        "min_psi1": float(np.min(ws.psi1.values)),
        "min_psi2": float(np.min(ws.psi2.values)),
    }
    return AssumptionReport("bounded", [b1, b2, b3, b4, b5], extras)


def check_assumption_open(ws: WeightSystem) -> AssumptionReport:
    """Evaluate the open-regime conditions on psi = exp(x1)*psi2(x2),
    restricted to the truncated axial interval [-R, R].

    The axial-slope lower bound and the super-linear growth condition
    cannot hold uniformly on the unbounded line for this profile (both
    margins decay like exp(-R) on the left), so those two bullets carry a
    truncation flag and report their truncation-dependent margins.
    """
    if ws.params.regime != "open":
        raise ValueError("open-regime checker called on a bounded-regime system")
    grid = ws.grid
    R = grid.domain.L

    min_psi = float(np.min(ws.psi_values))
    b1 = AssumptionBullet("psi_positive", min_psi > 0.0, min_psi)

    b2 = AssumptionBullet("gradient_lower_bound", ws.C0_margin > 0.0, ws.C0_margin)

    worst = float(ws.hidden_normal_psi().max())
    b3 = AssumptionBullet("normal_nonpositive_off_obs", worst <= 0.0, worst)

    kappa = float(np.min(ws.dpsi_dx1))
    b4 = AssumptionBullet(
        "axial_slope_lower_bound",
        kappa > 0.0,
        kappa,
        detail="(truncation-dependent; decays to 0 as R grows)",
    )

    p2 = ws.psi2_profile.value(grid.x2)
    ratio_left = float(np.min(np.exp(-R) * p2 / R))
    b5 = AssumptionBullet(
        "superlinear_growth",
        ratio_left > 0.0,
        ratio_left,
        detail="(|psi/x1| at x1=-R; tends to 0 as R grows, growth fails on the left)",
    )

    extras = {
        "kappa": kappa,
        "truncation_radius": R,
        "unbounded_strip_flags": "axial_slope_lower_bound,superlinear_growth",
    }
    return AssumptionReport("open", [b1, b2, b3, b4, b5], extras)
