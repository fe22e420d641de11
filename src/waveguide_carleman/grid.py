"""Space-time discretization of a planar waveguide.

The computational domain is the box (0, T) x (-L, L) x (0, h): a finite
axial interval crossed with a one-dimensional cross-section.  Everything
else in the package (heat solves, weight systems, inequality checks) is
built on the uniform vertex-centered tensor grid defined here, together
with second-order finite-difference calculus and trapezoidal quadrature.

Conventions:

* Nodes sit on the boundary (vertex-centered), so boundary traces and
  outward normal derivatives are read off directly without interpolation.
* ``n1``/``n2`` count *interior* nodes, so the axial spacing is
  ``2L / (n1 + 1)`` and a full axial line has ``n1 + 2`` nodes.
* The anchor abscissa ``alpha`` is snapped to the nearest axial node so
  that prefix integrals anchored there are exact node-column sums; that
  node must be interior, not a cap.
* Field arrays are indexed ``(time, x1, x2)``.  A :class:`ScalarField`
  is always a full field; boundary and cross-section traces are plain
  ``(time, n)`` arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The one field kind: every ScalarField holds the full (t, x1, x2) grid.
FULL = "full-field"


@dataclass(frozen=True)
class WaveguideDomain:
    """Geometry of the waveguide and its observation set-up.

    ``L`` is the axial half-length (the truncation radius when
    ``truncated`` is set), ``h`` the cross-section height, ``T`` the final
    time and ``alpha`` the interior anchor abscissa used by the
    prefix-integral identities.  Exactly one lateral wall, selected by
    ``obs_side``, carries the observation boundary.
    """

    L: float
    h: float
    T: float
    alpha: float = 0.0
    obs_side: str = "top"
    truncated: bool = False

    def __post_init__(self) -> None:
        if not all(0.0 < x < math.inf for x in (self.L, self.h, self.T)):
            raise ValueError(f"domain dimensions must be positive and finite, got L={self.L}, "
                             f"h={self.h}, T={self.T}")
        if not (-self.L < self.alpha < self.L):
            raise ValueError(f"alpha={self.alpha} must lie strictly inside (-L, L)")
        if self.obs_side not in ("top", "bottom"):
            raise ValueError(f"obs_side must be 'top' or 'bottom', got {self.obs_side!r}")

    @property
    def obs_columns(self) -> tuple[int, int, int]:
        """x2 indices of the observed wall and of its two inward
        neighbours, wall first."""
        return (-1, -2, -3) if self.obs_side == "top" else (0, 1, 2)


def trapezoid(n: int, d: float) -> np.ndarray:
    """Trapezoid weights of ``n`` equispaced nodes ``d`` apart."""
    w = np.full(n, d)
    w[0] = w[-1] = 0.5 * d
    return w


class SpaceTimeGrid:
    """Uniform tensor-product grid on (0, T) x (-L, L) x (0, h).

    The constructor rejects counts below 4, spacings d whose 1/d^2
    overflows and an anchor that snaps onto a cap node, in that order.
    Immutable after construction; all derivative and quadrature routines
    below are pure functions of their inputs, so grids and fields may be
    shared freely across threads.
    """

    def __init__(self, domain: WaveguideDomain, n1: int, n2: int, nt: int):
        for name, value in (("n1", n1), ("n2", n2), ("nt", nt)):
            if int(value) != value or value < 4:
                raise ValueError(f"{name} must be an integer >= 4, got {value}")
        self.domain = domain
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.nt = int(nt)

        self.x1 = np.linspace(-domain.L, domain.L, self.n1 + 2)
        # each node right of the centre the exact negative of its mirror, an odd centre 0.0
        half = (self.n1 + 2) // 2
        self.x1[-half:] = -self.x1[half - 1::-1]
        self.x1[half:-half] = 0.0
        self.x2 = np.linspace(0.0, domain.h, self.n2 + 2)
        self.t = np.linspace(0.0, domain.T, self.nt + 1)
        self.dx1 = 2.0 * domain.L / (self.n1 + 1)
        self.dx2 = domain.h / (self.n2 + 1)
        self.dt = domain.T / self.nt
        # Trapezoid weights along t, x1 and x2, shared by every quadrature.
        self.wt = trapezoid(self.nt + 1, self.dt)
        self.w1 = trapezoid(self.n1 + 2, self.dx1)
        self.w2 = trapezoid(self.n2 + 2, self.dx2)
        spacings = {"dx1": self.dx1, "dx2": self.dx2, "dt": self.dt}
        with np.errstate(over="ignore", divide="ignore"):
            inverse_squares = 1.0 / np.array(list(spacings.values())) ** 2
        if not np.all(np.isfinite(inverse_squares)):
            raise ValueError(f"grid spacings {spacings} are too small: 1/d^2 overflows")

        # Snap the anchor to the nearest axial node, which must be interior.
        self.alpha_index = int(np.argmin(np.abs(self.x1 - domain.alpha)))
        self.alpha_snapped = float(self.x1[self.alpha_index])
        if self.alpha_index in (0, self.n1 + 1):
            raise ValueError(f"alpha={domain.alpha} snaps to the cap x1={self.alpha_snapped}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nt + 1, self.n1 + 2, self.n2 + 2)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (t, x1, x2) coordinate arrays for a full field."""
        return (
            self.t[:, None, None],
            self.x1[None, :, None],
            self.x2[None, None, :],
        )

    def sample(self, fn) -> "ScalarField":
        """Sample ``fn(t, x1, x2)`` on the full space-time grid."""
        tt, xx1, xx2 = self.mesh()
        values = np.broadcast_to(fn(tt, xx1, xx2), self.shape).astype(float).copy()
        return ScalarField(self, values)

    def __repr__(self) -> str:  # pragma: no cover
        d = self.domain
        return (
            f"SpaceTimeGrid(L={d.L}, h={d.h}, T={d.T}, n1={self.n1}, n2={self.n2}, "
            f"nt={self.nt}, alpha={self.alpha_snapped}, truncated={d.truncated})"
        )


# The name callers build grids by.
build_grid = SpaceTimeGrid


class ScalarField:
    """A sampled real-valued function on the full space-time grid.

    ``kind``, if given, must be :data:`FULL`.  Every constructed field is
    checked to have the grid's shape and to be finite.
    """

    def __init__(self, grid: SpaceTimeGrid, values: np.ndarray, kind: str = FULL):
        if kind != FULL:
            raise ValueError(f"unknown field kind {kind!r}")
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"value shape {values.shape} does not match grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"non-finite entry in field at index {tuple(bad.tolist())}")
        self.grid = grid
        self.values = values

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScalarField(shape={self.values.shape})"


# ---------------------------------------------------------------------------
# Finite-difference calculus (second order, one-sided at boundaries)
# ---------------------------------------------------------------------------


def derivative(values: np.ndarray, d: float, axis: int, order: int = 1,
               out: np.ndarray | None = None) -> np.ndarray:
    """First (``order=1``) or second (``order=2``) derivative of node
    values ``d`` apart along ``axis``, second order at every node, into ``out`` if given.

    Inside, the centred 3-point stencil runs as one shift of the flattened
    C-ordered array by the axis's element stride; the nodes that shift
    also writes on the two end faces are then overwritten by the one-sided
    stencils: the 3-point one for ``order=1`` and the 4-point one for
    ``order=2``.  The first derivative has the bytes of
    ``np.gradient(values, d, axis=axis, edge_order=2)``.  Raises
    ``ValueError`` when the axis has fewer nodes than the end stencil reads
    (3 or 4), where the shift would wrap into the neighbouring line, or for
    an ``out`` (written through a flat reshape) that overlaps ``values`` or
    is not a C-contiguous float64 array of its shape."""
    v = np.ascontiguousarray(values, dtype=float)
    axis = range(v.ndim)[axis]
    n = v.shape[axis]
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if n < order + 2:
        raise ValueError(f"axis {axis} has {n} nodes; an order-{order} derivative "
                         f"needs at least {order + 2}")
    if out is None:
        out = np.empty_like(v)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == v.shape
              and out.flags.c_contiguous) or np.may_share_memory(out, values):
        raise ValueError("out must be C-contiguous float64, of the input's shape, apart from it")
    step = math.prod(v.shape[axis + 1:])
    flat, inner = v.reshape(-1), out.reshape(-1)[step:-step]
    if order == 1:  # (v[2:] - v[:-2]) / (2 d)
        np.subtract(flat[2 * step:], flat[:-2 * step], out=inner)
        np.divide(inner, 2.0 * d, out=inner)
    else:  # (v[:-2] - 2 v[1:-1] + v[2:]) / d^2
        np.multiply(flat[step:-step], 2.0, out=inner)
        np.subtract(flat[:-2 * step], inner, out=inner)
        np.add(inner, flat[2 * step:], out=inner)
        np.divide(inner, d**2, out=inner)
    v, faces = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    if order == 1:
        faces[0] = (-1.5 / d) * v[0] + (2.0 / d) * v[1] - (0.5 / d) * v[2]
        faces[-1] = (0.5 / d) * v[-3] - (2.0 / d) * v[-2] + (1.5 / d) * v[-1]
    else:
        faces[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / d**2
        faces[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / d**2
    return out


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Spatial gradient (d/dx1, d/dx2) of a full field."""
    g = f.grid
    return (ScalarField(g, derivative(f.values, g.dx1, 1)),
            ScalarField(g, derivative(f.values, g.dx2, 2)))


def laplacian(values: np.ndarray, grid: SpaceTimeGrid,
              out: np.ndarray | None = None) -> np.ndarray:
    """Five-point Laplacian of node values along their last two axes (x1,
    x2) of ``grid``, the x1 term plus the x2 term, into ``out`` under the
    rules of :func:`derivative`."""
    out = derivative(values, grid.dx1, -2, order=2, out=out)
    out += derivative(values, grid.dx2, -1, order=2)
    return out


def time_derivative(f: ScalarField) -> ScalarField:
    """d/dt of a full field (centered inside, one-sided at t=0 and t=T)."""
    g = f.grid
    return ScalarField(g, derivative(f.values, g.dt, 0))


def normal_derivative(f: ScalarField) -> np.ndarray:
    """Outward normal derivative on the observed lateral wall, as a
    ``(nt+1, n1+2)`` array over time and x1: the one-sided second-order
    stencil on the wall's :attr:`WaveguideDomain.obs_columns`."""
    g = f.grid
    return one_sided_derivative(np.moveaxis(f.values, 2, 0)[list(g.domain.obs_columns)], g.dx2)


def one_sided_derivative(v: np.ndarray, d: float) -> np.ndarray:
    """Second-order one-sided derivative at ``v[0]`` along the first axis,
    taken in the direction pointing away from ``v[1]`` and ``v[2]``."""
    return (3.0 * v[0] - 4.0 * v[1] + v[2]) / (2.0 * d)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def integrate_values(grid: SpaceTimeGrid, values: np.ndarray, region: str) -> float:
    """Trapezoidal integral of raw values over a named region.

    Regions: ``Q`` (full space-time box), ``wall`` ((0,T) x the observed
    wall, values over (t, x1)) and ``section_time`` ((0,T) x
    cross-section).  Each contracts one axis at a time with the grid's
    trapezoid weights, so no full-size temporary is formed.
    """
    if region == "Q":
        return float(grid.wt @ (values @ grid.w2 @ grid.w1))
    if region not in ("wall", "section_time"):
        raise ValueError(f"unknown region {region!r}")
    return float(grid.wt @ values @ (grid.w1 if region == "wall" else grid.w2))


def prefix_integral_x1(f: ScalarField) -> ScalarField:
    """Signed trapezoidal prefix integral along x1, anchored at the
    alpha-column: out(t, x1, x2) = integral from alpha to x1 of f."""
    g = f.grid
    v = f.values
    out = np.empty(v.shape)
    out[:, 0, :] = 0.0
    inc = out[:, 1:, :]  # cumulative trapezoid increments, written in place
    np.add(v[:, :-1, :], v[:, 1:, :], out=inc)
    np.multiply(inc, 0.5 * g.dx1, out=inc)
    np.cumsum(inc, axis=1, out=inc)
    out -= out[:, g.alpha_index : g.alpha_index + 1, :].copy()
    return ScalarField(g, out)


def fit_convergence_order(spacings, errors) -> float:
    """Least-squares slope of log(error) versus log(spacing); the spacings
    must be distinct and the errors positive."""
    spacings = np.asarray(spacings, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.unique(spacings).size != spacings.size:
        raise ValueError(f"spacings must be distinct for an order fit, got {spacings.tolist()}")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive for an order fit")
    return float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# Text reports; field persistence as one report + one raw little-endian file
# ---------------------------------------------------------------------------

def report_text(entries: dict, rows=()) -> str:
    """The one text format of every report and field metadata file: a
    ``key: value`` line per entry (a ``str`` as it is, any other value by
    ``repr``), then the columns and the rows of the dicts in ``rows``,
    comma-separated, each cell by ``repr``."""
    lines = [f"{key}: {value if isinstance(value, str) else repr(value)}"
             for key, value in entries.items()]
    if rows:
        cols = list(rows[0])
        lines.append(",".join(cols))
        lines += [",".join(repr(row[c]) for c in cols) for row in rows]
    return "\n".join(lines) + "\n" if lines else ""


def save_field(f: ScalarField, basepath: str | Path) -> tuple[Path, Path]:
    """Write ``basepath.meta`` (a :func:`report_text` document) and
    ``basepath.f64`` (little-endian float64, row-major in (time, x1, x2)
    order)."""
    base = Path(basepath)
    d = f.grid.domain
    meta = {
        "format": "waveguide-field-v1",
        "creator": "waveguide-carleman",
        "L": d.L,
        "h": d.h,
        "T": d.T,
        "alpha": d.alpha,
        "obs_side": d.obs_side,
        "truncated": int(d.truncated),
        "n1": f.grid.n1,
        "n2": f.grid.n2,
        "nt": f.grid.nt,
        "shape": ",".join(str(s) for s in f.values.shape),
    }
    meta_path = base.with_suffix(base.suffix + ".meta")
    data_path = base.with_suffix(base.suffix + ".f64")
    meta_path.write_text(report_text(meta))
    data_path.write_bytes(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    return meta_path, data_path
