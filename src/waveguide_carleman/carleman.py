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
s-independent integrands once into one stack.  Masses against a decayed
weight sum the interior time levels only: by the convention of
:mod:`waveguide_carleman.weights` the decay is exactly zero at the two
endpoint levels, and a negative power of s*g = 0 there would give
0 * inf = nan.  The split parts M1 and M2 are summed over every level.

Each s-row is windowed on one (t, x1) box under a checked bound on the
mass it drops: :class:`_WindowedRows` states how.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    ScalarField,
    SpaceTimeGrid,
    derivative,
    integrate_values,
    laplacian,
    normal_derivative,
    prefix_integral_x1,
    report_text,
    time_derivative,
)
from .weights import EXPONENT_FLOOR, WeightSystem

#: Guard threshold for exp(s*phi); beyond this the literal conjugation
#: overflows double precision.
OVERFLOW_GUARD = 700.0
#: Band of fitted log-log slopes within which the open prefix lemma passes.
SLOPE_BAND = (-2.5, -1.5)
#: Largest factor by which a bounded prefix constant may exceed the
#: sweep's first one and still count as s-uniform.
S_UNIFORM_FACTOR = 2.0
#: Largest step-to-step growth of the Carleman constant in the tail that
#: fixes ``s0``.
S0_GROWTH = 1.1
#: Largest bound on the mass a windowed s-row drops outside its box,
#: relative to each member's mass inside it.
WINDOW_TOLERANCE = 1e-17
_LOG_TOLERANCE = math.log(WINDOW_TOLERANCE)
#: About this many nodes per slab of time levels in which the split parts
#: of a box are evaluated, so that a slab's arrays stay in cache.
_SLAB_NODES = 2**16
#: Fields with fewer nodes run every s-row on the whole (t, x1) plane: on
#: them the bound costs about as much as the contraction it could save.
_WINDOW_MIN_NODES = 2**18


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
    obs_side: str  # the wall the weight system observes
    sweep: list[dict] = field(default_factory=list)
    verdict: dict = field(default_factory=dict)

    def to_text(self) -> str:
        entries = {"report": self.name, "obs_side": self.obs_side, "lambda": self.lam,
                   "s": self.s, "lhs": self.lhs}
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


def _require_s(s_values) -> list:
    """``s_values`` as a list; ValueError, naming them, unless there is at
    least one s, every s is positive and finite, and they strictly
    increase (the sweep verdicts read the rows in order)."""
    s_values = list(s_values)
    if (not s_values or not all(0.0 < s < math.inf for s in s_values)
            or any(a >= b for a, b in zip(s_values, s_values[1:]))):
        raise ValueError("s values must be nonempty, positive, finite and strictly "
                         f"increasing, got {s_values!r}")
    return s_values


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
        obs_side=ws.grid.domain.obs_side,
        sweep=sweep,
        verdict=verdict,
    )


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs; nan when both are 0, so no verdict passes on such a row."""
    if rhs == 0.0:
        if lhs > 0.0:
            raise ValueError(
                f"weighted quadrature returned rhs=0 with lhs={lhs}; the weight "
                "cannot vanish on one side only"
            )
        return math.nan
    return lhs / rhs


def _x2_sums(grid: SpaceTimeGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trapezoid x2 sums of a * b[k] per (t, x1), for every member k of
    ``b``; ``a`` is shared by the members or stacked like them.  Products
    and sums are one contraction (no full-size product), and each member
    has the bytes of its own call."""
    return np.einsum("...tij,...tij,j->...ti", a, b, grid.w2)


def _masses(grid: SpaceTimeGrid, decay: np.ndarray, stack: np.ndarray, wt,
            box: tuple[int, int, int, int]) -> list[float]:
    """Trapezoid integral of decay * stack[k] over the time levels that
    ``wt[k]`` weights, for every member k, from their :func:`_x2_sums`.

    ``decay`` and ``stack`` cover only the levels (of ``wt``'s) and x1
    nodes of ``box = (t0, t1, i0, i1)``; their x2 sums are padded with
    zeros to the whole (t, x1) plane, so the x1 and time sums run in the
    same order on every box."""
    t0, t1, i0, i1 = box
    rows = np.zeros(stack.shape[:-3] + (len(wt[0]), grid.n1 + 2))
    rows[..., t0:t1, i0:i1] = _x2_sums(grid, decay, stack)
    return [float(w @ (r @ grid.w1)) for w, r in zip(wt, rows)]


# ---------------------------------------------------------------------------
# Windowed s-rows
# ---------------------------------------------------------------------------


#: Smallest normal double.  A bound cell that underflows loses at most
#: this much (in the units of its member's scale), and the dropped-mass
#: bound adds that much for every cell it covers.
_TINY = np.finfo(float).tiny


def _trim(pt: np.ndarray, pi: np.ndarray, budget: np.ndarray) -> tuple[int, int, int, int]:
    """The (t0, t1, i0, i1) box that covers, for every member k, what is
    left after dropping from each end of both axes the rows whose summed
    bound (marginals ``pt[k]`` over t and ``pi[k]`` over x1) stays within
    an eighth of ``budget[k]``; the whole plane when some member has
    nothing left."""
    cut = budget[:, None] / 8.0
    box = []
    for p in (pt, pi):
        lo = np.sum(np.cumsum(p, axis=1) <= cut, axis=1)
        hi = p.shape[1] - np.sum(np.cumsum(p[:, ::-1], axis=1) <= cut, axis=1)
        if np.any(lo >= hi):
            return 0, pt.shape[1], 0, pi.shape[1]
        box += [int(lo.min()), int(hi.max())]
    return tuple(box)


def _dropped(pt: np.ndarray, pi: np.ndarray, box) -> float:
    """A bound on the mass outside ``box``, in the units of the marginals:
    every cell outside it lies in a dropped t row or a dropped x1 column,
    and each of them may have lost :data:`_TINY` to underflow."""
    t0, t1, i0, i1 = box
    cells = (len(pt) - t1 + t0) * len(pi) + (len(pi) - i1 + i0) * len(pt)
    return pt[:t0].sum() + pt[t1:].sum() + pi[:i0].sum() + pi[i1:].sum() + cells * _TINY


class _WindowedRows:
    """The s-rows of one checker, each contracted on one (t, x1) box,
    shared by all its members, under a checked dropped-mass bound.

    A subclass gives three hooks: ``_envelope()``, which writes the
    s-independent arrays of the bound once per call; per row,
    ``_marginals(s)``: the sums over x1 (K, T) and over t (K, X) of a bound
    on each member's mass in each (t, x1) cell, in units of exp(top) with
    log scales ``top`` (K,); and ``_contract(s, box)``: every member's mass
    on ``box``, evaluated only there, the whole (t, x1) plane giving the
    unwindowed row.  :meth:`masses` sizes the box with :func:`_trim` from
    each member's mass on its own peak-bound level (a lower bound of its
    row mass), contracts all members once on it, and checks that each
    member's bound outside the box is at most :data:`WINDOW_TOLERANCE`
    times its positive in-box mass; a row that fails runs on the whole
    plane, as does every row of a field under :data:`_WINDOW_MIN_NODES`
    nodes.  ``box`` and ``dropped`` (the logs of the bounds, evaluated in
    floating point) of the last windowed row are kept for inspection.
    """

    def __init__(self, ws: WeightSystem, n_levels: int):
        self.ws = ws
        self.plane = (0, n_levels, 0, ws.grid.n1 + 2)
        self.windowed = math.prod(ws.grid.shape) >= _WINDOW_MIN_NODES
        if self.windowed:
            # g(t) m(i), m the x2 minimum of the weight plane: the bounds' decay exponent
            self.gm = ws.g[:, None] * ws.spatial_weight.min(axis=1)
            self._envelope()

    def masses(self, s: float) -> list[float]:
        if self.windowed:
            pt, pi, top = self._marginals(s)
            levels = np.argmax(pt, axis=1).tolist()
            at = {t: self._contract(s, (t, t + 1) + self.plane[2:]) for t in set(levels)}
            core = np.array([at[t][k] for k, t in enumerate(levels)])
            with np.errstate(divide="ignore", over="ignore"):
                self.box = _trim(pt, pi, np.exp(np.log(core) + _LOG_TOLERANCE - top))
                self.dropped = np.log([_dropped(p, q, self.box) for p, q in zip(pt, pi)]) + top
            masses = self._contract(s, self.box)
            if self.box == self.plane or all(m > 0.0 and d <= _LOG_TOLERANCE + math.log(m)
                                             for m, d in zip(masses, self.dropped)):
                return masses
            self.box, self.dropped = self.plane, np.full(len(pt), -np.inf)
        return self._contract(s, self.plane)


class _DecayRows(_WindowedRows):
    """Masses of the stacked nonnegative integrands ``stack`` (K members
    over every level) against exp(-2 s weight) over the interior levels,
    member k with (s g)^powers[k] folded into its time weights.

    The bound: exp(-2 s weight) <= exp(max(-2 s g(t) m(i), EXPONENT_FLOOR))
    on every x2 node, m the x2 minimum of the spatial weight, times the
    time weight and the s-independent x2 sums ``w1_i sum_j w2_j
    stack_k(t, i, j)``, written once, each member scaled by its peak."""

    def __init__(self, ws: WeightSystem, stack: np.ndarray, powers):
        self.stack = stack[:, 1:-1]
        self.powers = list(powers)
        super().__init__(ws, self.stack.shape[1])

    def _envelope(self) -> None:
        g = self.ws.grid
        sums = np.empty(self.stack.shape[:3])
        for member, out in zip(self.stack, sums):
            np.matmul(member.reshape(-1, g.n2 + 2), g.w2, out=out.reshape(-1))
        sums *= g.w1
        peak = sums.max(axis=(1, 2))
        peak[peak == 0.0] = 1.0
        self.sums, self.log_peak = sums / peak[:, None, None], np.log(peak)

    def _wts(self, s: float) -> list[np.ndarray]:
        wt, sg = self.ws.grid.wt[1:-1], s * self.ws.g[1:-1]
        return [wt * sg**p for p in self.powers]

    def _marginals(self, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        exponent = np.maximum(self.gm[1:-1] * (-2.0 * s), EXPONENT_FLOOR)
        e_top = exponent.max()
        decay = np.exp(exponent - e_top)
        wts = np.array(self._wts(s))
        w_top = wts.max(axis=1)
        wts /= w_top[:, None]
        return (np.einsum("kti,ti,kt->kt", self.sums, decay, wts),
                np.einsum("kti,ti,kt->ki", self.sums, decay, wts),
                self.log_peak + e_top + np.log(w_top))

    def _contract(self, s: float, box) -> list[float]:
        t0, t1, i0, i1 = box
        decay = self.ws.decay(s, (slice(t0 + 1, t1 + 1), slice(i0, i1)))
        return _masses(self.ws.grid, decay, self.stack[:, t0:t1, i0:i1], self._wts(s), box)


#: Power of s*g multiplying each summand of :func:`weighted_norm_I1`.
_I1_POWERS = {"laplacian": -1, "time": -1, "gradient": 1, "zero_order": 3}


def _square_I1_densities(z: ScalarField, stack: np.ndarray) -> None:
    """Write the s-independent integrands of :func:`weighted_norm_I1` into
    ``stack[:4]``, each derivative into its member, one temporary beside it."""
    g, v = z.grid, z.values
    np.square(laplacian(v, g, out=stack[0]), out=stack[0])
    np.square(derivative(v, g.dt, 0, out=stack[1]), out=stack[1])
    _square_gradient(g, v, stack[2])
    np.square(v, out=stack[3])


def _square_gradient(grid: SpaceTimeGrid, v: np.ndarray, out: np.ndarray) -> None:
    """Write |grad v|^2 into ``out``, one derivative in a temporary."""
    np.square(derivative(v, grid.dx1, 1, out=out), out=out)
    d2 = derivative(v, grid.dx2, 2)
    out += np.square(d2, out=d2)


def weighted_norm_I1(z: ScalarField, ws: WeightSystem, s: float) -> dict[str, float]:
    """The four weighted summands controlled by the bounded-regime
    estimate: (sg)^-1 (Lap z)^2, (sg)^-1 (z_t)^2, sg |grad z|^2 and
    (sg)^3 z^2, each integrated against exp(-2 s eta)."""
    _require_regime(ws, "bounded", z.grid)
    (s_val,) = _require_s([s])
    stack = np.empty((4,) + z.grid.shape)
    _square_I1_densities(z, stack)
    terms = dict(zip(_I1_POWERS, _DecayRows(ws, stack, _I1_POWERS.values()).masses(s_val)))
    terms["total"] = sum(terms.values())
    return terms


# ---------------------------------------------------------------------------
# Anchored prefix-integral inequalities
# ---------------------------------------------------------------------------


def _prefix_rows(F: ScalarField, ws: WeightSystem) -> _DecayRows:
    """The rows of the squared anchored prefix integral of F and of F^2."""
    pair = np.empty((2,) + F.grid.shape)
    np.square(prefix_integral_x1(F).values, out=pair[0])
    np.square(F.values, out=pair[1])
    return _DecayRows(ws, pair, [0, 0])


def _prefix_sweep(F: ScalarField, ws: WeightSystem, s_list: list) -> list[dict]:
    """One row per s: the weighted mass of the squared anchored prefix
    integral of F (``lhs``) and of F^2 itself (``rhs``)."""
    rows = _prefix_rows(F, ws)
    sweep = []
    for s in s_list:
        lhs, rhs = rows.masses(s)
        sweep.append({"s": s, "lambda": ws.params.lam, "lhs": lhs, "rhs": rhs})
    return sweep


def lemma_bounded_check(F: ScalarField, ws: WeightSystem, grid: SpaceTimeGrid,
                        s_values) -> InequalityReport:
    """Compare the weighted mass of the anchored prefix integral of F with
    the weighted mass of F itself, sweeping s.  The constant is expected
    to stay bounded across the sweep (s-uniform)."""
    _require_regime(ws, "bounded", grid, F)
    sweep = _prefix_sweep(F, ws, _require_s(s_values))
    for row in sweep:
        row["empirical_C"] = _ratio(row["lhs"], row["rhs"])

    ratios = [row["empirical_C"] for row in sweep]
    s_uniform = all(r <= S_UNIFORM_FACTOR * ratios[0] for r in ratios)
    return _sweep_report("prefix_integral_bounded", ws, sweep, "empirical_C",
                         {"quadrature": "rhs"},
                         {"s_uniform": s_uniform, "max_over_sweep": float(np.max(ratios))})


def lemma_open_check(F: ScalarField, ws: WeightSystem, grid: SpaceTimeGrid,
                     s_values) -> InequalityReport:
    """Open-regime counterpart: the ratio is expected to decay like 1/s^2,
    measured as the slope of log(ratio) against log(s) over every row: nan,
    out of band, unless two or more ratios are all positive and finite."""
    _require_regime(ws, "open", grid, F)
    sweep = _prefix_sweep(F, ws, _require_s(s_values))
    for row in sweep:
        row["ratio"] = _ratio(row["lhs"], row["rhs"])
        row["ratio_times_s2"] = row["ratio"] * row["s"] * row["s"]

    ss, rr = (np.array([row[key] for row in sweep]) for key in ("s", "ratio"))
    fit = len(sweep) >= 2 and bool(np.all((rr > 0.0) & (rr < math.inf)))
    slope = float(np.polyfit(np.log(ss), np.log(rr), 1)[0]) if fit else math.nan
    return _sweep_report("prefix_integral_open", ws, sweep, "ratio", {"quadrature": "rhs"}, {
        "fitted_slope": slope,
        "slope_in_band": bool(SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]),
        "kappa": float(np.min(ws.dpsi_dx1)),
    })


def r_monotonicity_audit(ws: WeightSystem) -> float:
    """Maximum of the comparison kernel r(x1, xi) = exp(-2s (eta(x1) -
    eta(xi))) over the two triangular regions where xi lies between the
    anchor and x1, on ``ws``'s grid.  The constructed weights keep this at
    most 1; the value is scale-invariant in t, and the middle time level is
    scanned."""
    grid, s = ws.grid, ws.params.s
    ia = grid.alpha_index
    eta = ws.g[grid.nt // 2] * ws.spatial_weight  # (n1+2, n2+2)

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
    """M w computed literally, the split parts M1/M2, and the
    decomposition gap M_literal - (M1 + M2)."""

    M_literal: ScalarField
    M1: ScalarField
    M2: ScalarField
    residual: ScalarField


def conjugated_operator(w: ScalarField, ws: WeightSystem, s: float) -> ConjugatedDecomposition:
    """Evaluate M w = exp(-s phi) (d/dt - Lap)(exp(s phi) w) literally and
    split it into the stationary and transport parts.

    The literal route exponentiates s*phi on the grid, so it is guarded
    against double-precision overflow; only it forms ``g (x) spatial_weight``
    at full size.  Endpoint time levels use the placeholder g = 0; their
    rows are convention-dominated, so compare interior times only.
    """
    grid = w.grid
    _require_regime(ws, "open", grid)
    phi = np.multiply.outer(ws.g, ws.spatial_weight)

    peak = s * float(np.max(phi))
    if peak > OVERFLOW_GUARD:
        idx = tuple(map(int, np.unravel_index(int(np.argmax(phi)), phi.shape)))
        raise WeightOverflowError(
            f"s*phi = {peak:.1f} exceeds {OVERFLOW_GUARD} at (time,x1,x2) index {idx}"
        )

    E = np.exp(s * phi)
    Einv = np.exp(-s * phi)
    Ew = ScalarField(grid, E * w.values)
    M_lit = (time_derivative(Ew).values - laplacian(Ew.values, grid)) * Einv
    M1, M2 = _split_parts(ws, w.values, derivative(w.values, grid.dt, 0), s,
                          (slice(None), slice(None)))
    return ConjugatedDecomposition(
        M_literal=ScalarField(grid, M_lit),
        M1=ScalarField(grid, M1),
        M2=ScalarField(grid, M2),
        residual=ScalarField(grid, M_lit - (M1 + M2)),
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
    """Smallest swept s from which every constant is finite and grows by
    at most a factor :data:`S0_GROWTH` at each subsequent step; None when
    no such point exists, as for a sweep whose last constant is nan."""
    cs = [row[key] for row in sweep]
    for k0, row in enumerate(sweep):
        tail = cs[k0:]
        if all(math.isfinite(c) for c in tail) and all(
                b <= S0_GROWTH * a for a, b in zip(tail, tail[1:])):
            return row["s"]
    return None


def _carleman_sweep(name: str, ws: WeightSystem, f: ScalarField, f_name: str, s_values,
                    integrands, wall_factor, row) -> InequalityReport:
    """The s sweep of both Carleman estimates, for ``f`` vanishing on the
    space boundary.  Once s and that trace are checked, ``integrands()``
    returns the s-independent stack and its powers of s g (see
    :class:`_DecayRows`); per s, ``row(s, masses, flux)`` returns the
    row's columns, ``lhs``, ``rhs_source`` and ``rhs_boundary`` among them,
    from the stack's masses and the integral over the observed wall of
    decay * s g * ``wall_factor`` * (normal derivative of f)^2."""
    s_values = _require_s(s_values)
    trace_max = _boundary_trace_max(f, f_name)
    grid = f.grid
    wall = (slice(None), slice(None), grid.domain.obs_columns[0])
    density = wall_factor * normal_derivative(f) ** 2
    rows = _DecayRows(ws, *integrands())
    sweep = []
    for s in s_values:
        flux = ws.decay(s, wall) * (s * ws.g)[:, None] * density
        entry = row(s, rows.masses(s), integrate_values(grid, flux, "wall"))
        entry["empirical_C"] = _ratio(entry["lhs"], entry["rhs_source"] + entry["rhs_boundary"])
        sweep.append(entry)
    return _sweep_report(name, ws, sweep, "empirical_C",
                         {"source": "rhs_source", "boundary": "rhs_boundary"}, {
        "s0": _find_s0(sweep, "empirical_C"),
        "all_finite": bool(np.all(np.isfinite([e["empirical_C"] for e in sweep]))),
        "boundary_trace_max": trace_max,
    })


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

    def integrands():
        # the four of weighted_norm_I1, then Pz^2
        stack = np.empty((5,) + grid.shape)
        _square_I1_densities(z, stack)
        np.square(Pz.values, out=stack[4])
        return stack, [*_I1_POWERS.values(), 0]

    def row(s, masses, flux):
        *terms, rhs_q = masses
        return {"s": s, "lambda": ws.params.lam, "lhs": sum(terms), "rhs_source": rhs_q,
                "rhs_boundary": flux}

    return _carleman_sweep("carleman_bounded", ws, z, "z", s_values, integrands, 1.0, row)


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
    lam = ws.params.lam
    dnu_psi = ws.obs_normal_psi()
    if np.min(dnu_psi) < 0.0:
        raise ValueError(
            "outward normal slope of psi is negative on the observation wall; "
            "the weight construction guarantees the opposite sign"
        )
    S, v = ws.spatial_weight, u.values
    split = _SplitRows(ws, v)

    def integrands():
        # S^3 u^2, S |grad u|^2 and Hu^2 (phi = g (x) S, S the spatial
        # weight plane), one member at a time; (s g)^3 and s g enter as the
        # rows' time weights, as in the bounded checker
        stack = np.empty((3,) + grid.shape)
        np.square(v, out=stack[0])
        stack[0] *= S * S * S
        _square_gradient(grid, v, stack[1])
        stack[1] *= S
        np.square(Hu.values, out=stack[2])
        return stack, [3, 1, 0]

    def row(s, masses, flux):
        zero, grad, rhs_q = masses
        lhs_zero, lhs_grad = lam**4 * zero, lam * grad
        lhs_m1, lhs_m2 = split.masses(s)
        return {"s": s, "lambda": lam, "lhs_zero_order": lhs_zero, "lhs_gradient": lhs_grad,
                "lhs_M1": lhs_m1, "lhs_M2": lhs_m2, "lhs": lhs_zero + lhs_grad + lhs_m1 + lhs_m2,
                "rhs_boundary": lam * flux, "rhs_source": rhs_q}

    return _carleman_sweep("carleman_open", ws, u, "u", s_values, integrands,
                           S[:, grid.domain.obs_columns[0]] * dnu_psi, row)


def _split_parts(ws: WeightSystem, w: np.ndarray, w_t: np.ndarray, s: float,
                 box: tuple[slice, slice]) -> tuple[np.ndarray, np.ndarray]:
    """The stationary part M1 = -Lap w - (s^2 |grad phi|^2 + s phi_t) w and
    the transport part M2 = w_t + 2s grad phi . grad w + s Lap(phi) w of
    the conjugated operator applied to ``w``, on the time levels and x1
    nodes of ``box``.  The coefficients are ``ws``' time profiles times its
    spatial factors: M1 = -Lap w - ((s g)^2 gradient_sq + s g_t
    spatial_weight) w and M2 = (2 (S1 w_x1 + S2 w_x2) + laplacian_factor w)
    s g + w_t, each summed in place in that order.  ``w_t`` is the time
    derivative of ``w``, which a windowed caller takes on more levels."""
    grid, (levels, nodes) = ws.grid, box
    s1, s2 = (f[nodes] for f in ws.gradient_factors)
    sg, sg_t = ((s * p[levels])[:, None, None] for p in (ws.g, ws.g_t))
    m1 = laplacian(w, grid)
    np.negative(m1, out=m1)
    m1 -= (ws.gradient_sq[nodes] * sg**2 + ws.spatial_weight[nodes] * sg_t) * w
    m2 = derivative(w, grid.dx1, 1)
    m2 *= s1
    m2 += derivative(w, grid.dx2, 2) * s2
    m2 *= 2.0
    m2 += ws.laplacian_factor[nodes] * w
    m2 *= sg
    m2 += w_t
    return m1, m2


def _stencil_bound(la: np.ndarray, axis: int, d: float, order: int) -> np.ndarray:
    """Log of a bound on |derivative(a, d, axis, order)| at every node of
    a (t, x1) plane, from log bounds ``la`` of |a| there: each stencil's
    absolute coefficient sum (1/d or 4/d^2 inside, 4/d or 12/d^2 on the
    faces) times the largest bound among the nodes it reads."""
    a = np.moveaxis(la, axis, 0)
    out = np.empty_like(a)
    np.maximum(a[:-2], a[2:], out=out[1:-1])
    if order == 2:
        np.maximum(out[1:-1], a[1:-1], out=out[1:-1])
    out[1:-1] += math.log(1.0 / d if order == 1 else 4.0 / d**2)
    face = math.log(4.0 / d if order == 1 else 12.0 / d**2)
    out[0] = a[: order + 2].max(axis=0) + face
    out[-1] = a[-order - 2 :].max(axis=0) + face
    return np.moveaxis(out, 0, axis)


def _halo(lo: int, hi: int, n: int, size: int) -> slice:
    """[lo, hi) widened by one node each way, and to at least ``size``
    nodes, within [0, n)."""
    start = max(lo - 1, 0)
    stop = min(max(hi + 1, start + size), n)
    return slice(max(min(start, stop - size), 0), stop)


class _SplitRows(_WindowedRows):
    """The masses of M1^2 and M2^2 over every level, for the split parts
    of the conjugated operator applied to w = exp(-s weight) u.

    The split parts of a box run on it plus a one-node halo, whose
    one-sided face values are discarded, so every kept node has the bytes
    of the unwindowed call.  The bound, per (t, x1): |w| <= A = max_x2 |u|
    exp(max(-s g(t) m(i), EXPONENT_FLOOR)) on every x2 node, and 0 on the
    endpoint levels.  A part has four terms, so its squared x2 sum is at
    most four times the terms' squared x2 sums, each at most four times the
    largest: a stencil term's is h times its absolute coefficient sum times
    the largest A its stencil reads, squared; a weight-coefficient term's
    is the coefficient's squared x2 sum times that bound on the rest,
    squared; it is a time profile squared times one spatial factor's."""

    def __init__(self, ws: WeightSystem, u: np.ndarray):
        self.u = u
        super().__init__(ws, len(u))

    def _envelope(self) -> None:
        ws, g = self.ws, self.ws.grid
        factors = (ws.spatial_weight, *ws.gradient_factors, ws.laplacian_factor, ws.gradient_sq)
        with np.errstate(divide="ignore"):
            self.log_u = np.log(np.abs(self.u).max(axis=2))
            log_g2, log_gt2 = 2.0 * np.log(ws.g), 2.0 * np.log(np.abs(ws.g_t))
            self.log_q = [p[:, None] + np.log(np.square(f) @ g.w2) for p, f in
                          zip((log_gt2, log_g2, log_g2, log_g2, 2.0 * log_g2), factors)]
            self.log_cell = np.log(g.wt)[:, None] + np.log(g.w1) + math.log(16.0)
        self.log_h = math.log(g.w2.sum())

    def _marginals(self, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = self.ws.grid
        qt, q1, q2, ql, qg = self.log_q
        ls, lh = math.log(s), self.log_h
        a = self.log_u + np.maximum(self.gm * -s, EXPONENT_FLOOR)
        a[[0, -1]] = -np.inf  # the decay is exactly 0 on the endpoint levels
        # M1 = -w_x1x1 - w_x2x2 - s^2 |grad phi|^2 w - s phi_t w
        m1 = np.maximum(lh + 2.0 * _stencil_bound(a, 1, g.dx1, 2), 2.0 * a + np.maximum(
            np.maximum(qg + 4.0 * ls, qt + 2.0 * ls), lh + 2.0 * math.log(12.0 / g.dx2**2)))
        # M2 = w_t + 2s phi_x1 w_x1 + 2s phi_x2 w_x2 + s Lap(phi) w
        m2 = np.maximum(lh + 2.0 * _stencil_bound(a, 0, g.dt, 1),
                        q1 + 2.0 * (math.log(2.0 * s) + _stencil_bound(a, 1, g.dx1, 1)))
        np.maximum(m2, 2.0 * a + np.maximum(q2 + 2.0 * math.log(8.0 * s / g.dx2), ql + 2.0 * ls),
                   out=m2)
        lb = self.log_cell + np.stack([m1, m2])
        top = lb.max(axis=(1, 2))
        top[~np.isfinite(top)] = 0.0
        cells = np.exp(lb - top[:, None, None])
        return cells.sum(axis=2), cells.sum(axis=1), top

    def _contract(self, s: float, box) -> list[float]:
        g = self.ws.grid
        t0, t1, i0, i1 = box
        halo = (_halo(t0, t1, g.nt + 1, 3), _halo(i0, i1, g.n1 + 2, 4))
        w = self.ws.decay(s / 2, halo)
        w *= self.u[halo]
        w_t = derivative(w, g.dt, 0)
        h0, kept = halo[0].start, slice(i0 - halo[1].start, i1 - halo[1].start)
        step = max(1, _SLAB_NODES // w[0].size)
        # the x2 sums of M1^2 and M2^2 on the box, padded with zeros as in _masses
        planes = np.zeros((2, g.nt + 1, g.n1 + 2))
        for a in range(t0, t1, step):
            b = min(a + step, t1)
            rel, slab = slice(a - h0, b - h0), (slice(a, b), halo[1])
            parts = _split_parts(self.ws, w[rel], w_t[rel], s, slab)
            for m, plane in zip(parts, planes):
                plane[a:b, i0:i1] = _x2_sums(g, m[:, kept], m[None, :, kept])[0]
        return [float(g.wt @ (plane @ g.w1)) for plane in planes]
