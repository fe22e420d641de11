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

The weight is held as a time profile times an (x1, x2) plane, ``g (x)
spatial_weight``; no field of the grid's full shape is stored.  Time
endpoints: ``g`` blows up at t=0 and t=T, so ``g`` and every time profile
carry the value 0 at the two endpoint time levels as a placeholder.  The
decayed weights ``exp(-2s*weight)`` vanish at the endpoints faster than
any polynomial, so all weighted quadratures in this package assign the
endpoint levels weight zero analytically; the placeholders are never used
as actual weight values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import SpaceTimeGrid, report_text

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
        if not all(0.0 < x < math.inf for x in (self.lam, self.s, self.delta, self.c1)):
            raise ValueError(f"lam, s, delta and c1 must all be positive and finite, got "
                             f"lam={self.lam}, s={self.s}, delta={self.delta}, c1={self.c1}")
        if self.regime not in ("bounded", "open"):
            raise ValueError(f"regime must be 'bounded' or 'open', got {self.regime!r}")


@dataclass(frozen=True)
class AxialWeightProfile:
    """Quartic axial profile with slope (alpha - x1)(L - x1)(L + x1).

    The slope vanishes at both caps and changes sign exactly at ``alpha``
    (positive left of it, negative right of it), so the profile has its
    maximum at the anchor, which must lie strictly inside (-L, L).
    ``offset`` shifts the primitive so that the minimum over [-L, L]
    equals ``c1 > 0``.
    """

    L: float
    alpha: float
    c1: float
    offset: float = field(init=False)

    def __post_init__(self) -> None:
        if not (-self.L < self.alpha < self.L):
            raise ValueError(f"alpha={self.alpha} must lie strictly inside (-L, L)")
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

    def value(self, x2):
        x2 = np.asarray(x2, dtype=float)
        if self.obs_side == "top":
            return x2 + self.delta
        return (self.h - x2) + self.delta

    def derivative(self, x2):
        return np.full_like(np.asarray(x2, dtype=float), 1.0 if self.obs_side == "top" else -1.0)


def singular_time_profile(grid: SpaceTimeGrid) -> np.ndarray:
    """Samples of 1/(t*(T-t)) with endpoint placeholders equal to 0.

    The levels up to the middle are evaluated and the rest mirrored, so
    ``g[k] == g[nt - k]`` holds exactly, as it does for the function;
    :meth:`WeightSystem.decay` relies on this symmetry.
    """
    nt, m = grid.nt, (grid.nt - 1) // 2
    t = grid.t[1 : nt // 2 + 1]
    g = np.zeros_like(grid.t)
    g[1 : nt // 2 + 1] = 1.0 / (t * (grid.domain.T - t))
    g[nt - m : nt] = g[1 : m + 1][::-1]  # levels nt-1..nt-m mirror levels 1..m
    return g


class WeightSystem:
    """Assembled weight system: spatial profiles, the time profile ``g``, its
    derivative ``g_t`` and the plane ``spatial_weight``; the weight (eta in
    the bounded regime, phi in the open one) is ``g (x) spatial_weight``,
    never stored at full size.  Each closed-form derivative is a time
    profile times a signed spatial factor: d/dt ``g_t (x) spatial_weight``,
    the gradient ``g (x) gradient_factors`` (S1, S2; the plane
    ``gradient_sq`` is S1^2 + S2^2), the Laplacian ``g (x)
    laplacian_factor``.  Raises ``ValueError`` when the plane or a factor
    is not finite, as when ``exp(lam * psi)`` overflows."""

    def __init__(self, params: WeightParams, grid: SpaceTimeGrid,
                 psi1_profile=None, psi2_profile=None):
        if params.regime == "open" and not grid.domain.truncated:
            raise ValueError("open-regime weights require a truncated grid")
        self.params = params
        self.grid = grid
        domain = grid.domain

        self.psi2_profile = psi2_profile if psi2_profile is not None else SectionWeightProfile(
            domain.h, params.delta, domain.obs_side)
        # psi = a(x1) psi2(x2) with (a, a', a''): psi1 and its derivatives in
        # the bounded regime, exp(x1) thrice in the open one
        self.psi1_profile = None
        if params.regime == "bounded":
            p1 = self.psi1_profile = psi1_profile if psi1_profile is not None else (
                AxialWeightProfile(domain.L, grid.alpha_snapped, params.c1))
            a, da, d2a = p1.value(grid.x1), p1.derivative(grid.x1), p1.second_derivative(grid.x1)
        else:
            a = da = d2a = np.exp(grid.x1)
        p2 = self.psi2_profile.value(grid.x2)
        psi = self.psi_values = np.outer(a, p2)
        dpsi_dx1 = self.dpsi_dx1 = np.outer(da, p2)
        dpsi_dx2 = self.dpsi_dx2 = np.outer(a, self.psi2_profile.derivative(grid.x2))
        lap_psi = np.outer(d2a, p2)  # the affine psi2 has zero curvature
        self.psi_sup = float(np.max(np.abs(psi)))
        self.C0_margin = float(np.min(np.hypot(dpsi_dx1, dpsi_dx2)))

        self.g = singular_time_profile(grid)
        t, T = grid.t[1:-1], domain.T  # g_t = d/dt g, endpoint placeholders 0
        self.g_t = np.zeros_like(grid.t)
        self.g_t[1:-1] = -(T - 2.0 * t) / (t * (T - t)) ** 2
        lam = params.lam
        with np.errstate(over="ignore", invalid="ignore"):
            exp_lam_psi = np.exp(lam * psi)
            if params.regime == "bounded":
                weight_cap = float(np.exp(2.0 * lam * self.psi_sup))
                self.spatial_weight = weight_cap - exp_lam_psi
                core = -lam * exp_lam_psi
            else:
                self.spatial_weight = exp_lam_psi
                core = lam * exp_lam_psi
            # grad(spatial weight) = core grad(psi), Lap = core (Lap psi + lam |grad psi|^2)
            s1, s2 = self.gradient_factors = (core * dpsi_dx1, core * dpsi_dx2)
            self.gradient_sq = s1**2 + s2**2
            self.laplacian_factor = core * (lap_psi + lam * (dpsi_dx1**2 + dpsi_dx2**2))
        if not all(np.all(np.isfinite(f)) for f in (self.spatial_weight, *self.gradient_factors,
                                                     self.laplacian_factor)):
            raise ValueError(f"the weight overflows: lambda={lam} with sup psi={self.psi_sup}")

    # -- decayed weights ----------------------------------------------------

    def decay(self, s: float, box: tuple = (slice(None),)) -> np.ndarray:
        """exp(-2*s*weight) at the caller's ``s`` (``params.s`` is only the
        headline s of the reports), with endpoint time rows exactly 0 and
        values below the underflow clamp set to 0; the exponent is floored
        at :data:`EXPONENT_FLOOR` first, which changes no output.

        ``box`` is a time slice of step 1 followed by indices ``P`` of the
        spatial axes; only the box is evaluated, with the bytes of
        ``decay(s)[box]``, level k from ``g[k] * spatial_weight[P] * -2s``.
        The weight is symmetric in time (see :func:`singular_time_profile`),
        so a level of the box above nt/2 whose mirror level is in the box
        is copied from it.
        """
        nt = self.grid.nt
        a, b, step = box[0].indices(nt + 1)
        if step != 1:
            raise ValueError(f"the time slice of a decay box needs step 1, got {step}")
        plane = self.spatial_weight[tuple(box[1:])]
        out = np.empty((max(b - a, 0),) + plane.shape)
        # levels [c, d) mirror the evaluated levels [a, c); [d, b) is evaluated too
        c = max(a, min(b, nt // 2 + 1))
        d = min(b, max(c, nt + 1 - a))
        for lo, hi in ((a, c), (d, b)):
            part = out[lo - a : hi - a]
            np.multiply.outer(self.g[lo:hi], plane, out=part)
            part *= -2.0 * s
            np.maximum(part, EXPONENT_FLOOR, out=part)
            np.exp(part, out=part)
            part *= part >= UNDERFLOW_CLAMP
        if d > c:
            out[c - a : d - a] = out[nt + 1 - d - a : nt + 1 - c - a][::-1]
        if a == 0 < b:
            out[0] = 0.0
        if a < b == nt + 1:
            out[-1] = 0.0
        return out

    # -- closed-form derivatives of the weight -------------------------------

    def weight_time_derivative(self) -> np.ndarray:
        """d(weight)/dt from the closed form, endpoint rows 0."""
        return np.multiply.outer(self.g_t, self.spatial_weight)

    def weight_gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """Spatial gradient of the weight from the closed form."""
        return tuple(np.multiply.outer(self.g, f) for f in self.gradient_factors)

    def weight_laplacian(self) -> np.ndarray:
        """Spatial Laplacian of the weight from the closed form."""
        return np.multiply.outer(self.g, self.laplacian_factor)

    def obs_normal_psi(self) -> np.ndarray:
        """Outward normal derivative of psi on the observed wall, per x1
        (outward along x2 is from the wall's inward neighbour to it)."""
        wall, inner, _ = self.grid.domain.obs_columns
        return (wall - inner) * self.dpsi_dx2[:, wall]

    def hidden_normal_psi(self) -> np.ndarray:
        """Outward normal derivative of psi on the unobserved wall, per x1."""
        wall, inner, _ = self.grid.domain.obs_columns
        return (inner - wall) * self.dpsi_dx2[:, -1 - wall]


def assemble_weight(params: WeightParams, grid: SpaceTimeGrid,
                    psi1_profile=None, psi2_profile=None) -> WeightSystem:
    """Build a :class:`WeightSystem`; the profile arguments are test hooks
    that substitute degenerate profiles for the constructed ones (the open
    regime reads no ``psi1_profile``: its axial factor is exp(x1))."""
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
    obs_side: str
    bullets: list[AssumptionBullet]
    extras: dict

    @property
    def all_passed(self) -> bool:
        return all(b.passed for b in self.bullets)

    def to_text(self) -> str:
        entries = {"regime": self.regime, "obs_side": self.obs_side,
                   "all_passed": str(self.all_passed).lower()}
        for b in self.bullets:
            entries[f"bullet.{b.name}"] = (f"{'pass' if b.passed else 'FAIL'} "
                                           f"margin={b.margin!r}{' ' + b.detail if b.detail else ''}")
        entries.update((key, repr(self.extras[key])) for key in sorted(self.extras))
        return report_text(entries)


def _shared_bullets(ws: WeightSystem, regime: str, caps=()) -> list[AssumptionBullet]:
    """Raise ``ValueError`` unless ``ws`` is a ``regime`` system; else the
    three bullets both checkers open with: psi > 0, |grad psi| > 0, and an
    outward normal slope of psi <= 0 off the observed wall, that is on the
    unobserved wall and on the outward cap slopes ``caps``."""
    if ws.params.regime != regime:
        raise ValueError(f"{regime}-regime checker called on "
                         f"{'an open' if regime == 'bounded' else 'a bounded'}-regime system")
    min_psi = float(np.min(ws.psi_values))
    worst = float(max(a.max() for a in (*caps, ws.hidden_normal_psi())))
    return [AssumptionBullet("psi_positive", min_psi > 0.0, min_psi),
            AssumptionBullet("gradient_lower_bound", ws.C0_margin > 0.0, ws.C0_margin),
            AssumptionBullet("normal_nonpositive_off_obs", worst <= 0.0, worst)]


def check_assumption_bounded(ws: WeightSystem) -> AssumptionReport:
    """Evaluate the five structural conditions on the bounded-regime psi.

    Margins come from the exact closed-form derivatives.  Failures are
    reported, never raised, so degenerate test profiles can be probed.
    """
    shared = _shared_bullets(ws, "bounded", caps=(-ws.dpsi_dx1[0, :], ws.dpsi_dx1[-1, :]))
    grid = ws.grid
    ia = grid.alpha_index

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
        "min_psi1": float(np.min(ws.psi1_profile.value(grid.x1))),
        "min_psi2": float(np.min(ws.psi2_profile.value(grid.x2))),
    }
    return AssumptionReport("bounded", grid.domain.obs_side, [*shared, b4, b5], extras)


def check_assumption_open(ws: WeightSystem) -> AssumptionReport:
    """Evaluate the open-regime conditions on psi = exp(x1)*psi2(x2),
    restricted to the truncated axial interval [-R, R].

    The axial-slope lower bound and the super-linear growth condition
    cannot hold uniformly on the unbounded line for this profile (both
    margins decay like exp(-R) on the left), so those two bullets carry a
    truncation flag and report their truncation-dependent margins.
    """
    shared = _shared_bullets(ws, "open")
    grid = ws.grid
    R = grid.domain.L

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
    return AssumptionReport("open", grid.domain.obs_side, [*shared, b4, b5], extras)
