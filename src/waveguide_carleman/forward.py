"""Forward heat solves on the bounded waveguide.

Solves  u_t - Lap(u) + q(t, x2) f(x1) u = 0  with the mixed boundary
conditions of the bounded waveguide: Dirichlet data on the two lateral
walls, Neumann data on the end caps.  Open-waveguide grids are
rejected, since no pipeline of the package solves on one; the open
regime is checked on synthetic fields only.

Scheme: Crank-Nicolson in time with the potential treated implicitly at
both levels, five-point Laplacian in space, Neumann caps imposed through
second-order ghost values, Dirichlet rows eliminated.  One five-point
operator on the unknown block serves both sides of each step; the
boundary data enter only through an edge lift of each level.  Each step's
system A = 1/dt + (-Lap_h + V^{k+1})/2 is solved by conjugate gradients,
preconditioned by the same system with V^{k+1} replaced by its mean
(Concus & Golub 1973), which the transforms that diagonalise it solve
exactly (Swarztrauber 1977): DCT-I along x1 for the ghost-value caps and
DST-I along x2 for the Dirichlet walls, as dense matrix products, not
``numpy.fft`` (faster on the square grids solved here).  Because that
solve is exact, A z = r + E z for the preconditioned residual z, with E
the potential's excess over its mean on the diagonal, so the iteration
applies no stencil; the five-point operator runs once per step.  Solves
that share a grid and a data set and differ only in the potential march
as one stack, each member with its own iteration, and a member's field
does not depend on the stack.  Non-finite samples and a step matrix that
is not positive definite are rejected before marching.  The scheme is
unconditionally stable and second order; the closed-form oracle below is
its yardstick.  The wall measurement ``measurement(u)`` is a plain
``(nt+1, n1+2)`` array, read on ``u``'s own grid.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import (
    FULL,
    ScalarField,
    SpaceTimeGrid,
    derivative,
    integrate_values,
    one_sided_derivative,
)


class SolverBreakdownError(RuntimeError):
    """A time step's iterative solve did not converge within the
    iteration cap; the message names the member and the step."""


@dataclass
class PotentialSpec:
    """Potential V(t, x) = q(t, x2) * f(x1) with a positive axial factor."""

    grid: SpaceTimeGrid
    q: np.ndarray  # (nt+1, n2+2) samples of q(t, x2)
    f: np.ndarray  # (n1+2,) samples of f(x1)

    def __post_init__(self) -> None:
        g = self.grid
        _store_samples(self, "q", (g.nt + 1, g.n2 + 2))
        _store_samples(self, "f", (g.n1 + 2,))
        if np.min(self.f) <= 0.0:
            raise ValueError(f"axial factor must be positive, min f = {np.min(self.f)}")

    def potential_values(self) -> np.ndarray:
        """Full (nt+1, n1+2, n2+2) samples of q*f."""
        return self.q[:, None, :] * self.f[None, :, None]


@dataclass
class BoundaryData:
    """Boundary traces and the initial field for one solve.

    ``b_bottom``/``b_top`` are the lateral Dirichlet traces (over t, x1);
    ``cap_minus``/``cap_plus`` are the outward Neumann traces on the caps
    x1 = -L and x1 = L (over t, x2).
    """

    grid: SpaceTimeGrid
    u0: np.ndarray
    b_bottom: np.ndarray
    b_top: np.ndarray
    cap_minus: np.ndarray
    cap_plus: np.ndarray

    def __post_init__(self) -> None:
        g = self.grid
        _store_samples(self, "u0", (g.n1 + 2, g.n2 + 2))
        for name, n in (("b_bottom", g.n1), ("b_top", g.n1), ("cap_minus", g.n2),
                        ("cap_plus", g.n2)):
            _store_samples(self, name, (g.nt + 1, n + 2))


def _store_samples(owner, name, shape):
    """Store ``owner.name`` as a float array of ``shape`` with finite entries
    (a NaN would stop CG before its first iteration); else ValueError."""
    a = np.asarray(getattr(owner, name), dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} samples must be finite")
    setattr(owner, name, a)


def compatibility_residual(data: BoundaryData, pot: PotentialSpec) -> float:
    """Residual of the t=0 consistency condition on the lateral Dirichlet walls:
    d/dt b(0, x) - Lap(u0)(x) + q(0, x2) f(x1) u0(x), maximized over the
    wall nodes.  The time derivative uses the one-sided second-order
    stencil on the first three data levels."""
    g = data.grid
    lap_u0 = derivative(data.u0, g.dx1, 0, order=2) + derivative(data.u0, g.dx2, 1, order=2)
    v0 = pot.q[0][None, :] * pot.f[:, None] * data.u0
    # the forward time derivative is the negated one-sided stencil at t = 0
    return float(max(np.max(np.abs(-one_sided_derivative(b, g.dt) - lap_u0[:, j] + v0[:, j]))
                     for b, j in ((data.b_bottom, 0), (data.b_top, -1))))


# ---------------------------------------------------------------------------
# Crank-Nicolson stepper
# ---------------------------------------------------------------------------


def solve_heat(grid: SpaceTimeGrid, pots: Sequence[PotentialSpec],
               data: BoundaryData) -> list[ScalarField]:
    """March the heat equation for each potential in ``pots`` over all time
    levels, with the one data set ``data``; return one full field per
    potential, in order.

    The grid must be bounded; an open-waveguide grid raises ValueError.
    The potentials march together as one (B, P, Q) stack on the unknown
    block.  The step matrix of level k is A_k = 1/dt + (-Lap_h + V^k)/2
    with the known values removed, and each member's step solves

        A_{k+1} u^{k+1} = 2 u^k / dt - A_k u^k + (l_k + l_{k+1}) / 2,

    where l_k lifts level k's known values onto the edges of the block:
    the Dirichlet neighbours stored in u[k] (level 0 keeps the edges of
    u0) over dx2^2 and, on the caps, the ghost-value Neumann terms
    2 cap / dx1.  The lift is shared by every member, and each level's
    diagonal is built from q[k] and f.  The five-point operator runs once
    per step, on A_k u^k; the warm start's residual takes
    A_{k+1} u^k = A_k u^k + (diag_{k+1} - diag_k) u^k.  Each member's
    field is the same, bit for bit, whatever the stack's size."""
    pots = list(pots)
    if not pots:
        raise ValueError("solve_heat needs at least one potential")
    if data.grid is not grid or any(pot.grid is not grid for pot in pots):
        raise ValueError("potential, data and solve must share one grid")
    if grid.domain.truncated:
        raise ValueError("solve_heat solves bounded grids only, not truncated ones")
    if grid.dt > grid.domain.T / 4.0 + 1e-14:
        raise ValueError(f"time step {grid.dt} exceeds T/4; refine the time grid")

    dt, dx1, dx2 = grid.dt, grid.dx1, grid.dx2
    # smallest eigenvalue of -Lap_h: the lowest mode along each axis
    lam_min = _spectrum(grid.n1 + 2, dx1, True)[0][0] + _spectrum(grid.n2, dx2, False)[0][0]
    for b, pot in enumerate(pots):
        # min of q f over the marched levels: f > 0, so the smallest q
        # meets the largest f when it is negative and the smallest otherwise
        q_min = float(np.min(pot.q[1:, 1:-1]))
        min_v = q_min * float(np.max(pot.f) if q_min < 0.0 else np.min(pot.f))
        if not 1.0 / dt + 0.5 * (lam_min + min_v) > 0.0:
            raise ValueError(f"step matrix of member {b} is not positive definite: time step "
                             f"{dt} with min V {min_v}; refine the time grid")
    q = np.stack([pot.q[:, None, 1:-1] for pot in pots])  # (B, nt+1, 1, Q)
    f = np.stack([pot.f[:, None] for pot in pots])  # (B, P, 1)
    u = np.zeros((len(pots),) + grid.shape)
    u[:, 0] = data.u0
    u[:, 1:, :, 0] = data.b_bottom[1:]
    u[:, 1:, :, -1] = data.b_top[1:]

    def level(k):
        """(diagonal of A_k for each member, edge lift l_k)."""
        diag = 1.0 / dt + 0.5 * (2.0 / dx1**2 + 2.0 / dx2**2 + q[:, k] * f)
        edges = u[0, k]
        lift = np.zeros(diag.shape[1:])
        lift[:, 0] += edges[:, 0] / dx2**2
        lift[:, -1] += edges[:, -1] / dx2**2
        lift[0] += 2.0 * data.cap_minus[k][1:-1] / dx1
        lift[-1] += 2.0 * data.cap_plus[k][1:-1] / dx1
        return diag, lift

    matvec, solve = _pcg_solver(grid)
    diag, lift = level(0)
    for k in range(grid.nt):
        x = u[:, k, :, 1:-1]
        diag_next, lift_next = level(k + 1)
        ax = matvec(diag, x)
        rhs = 2.0 * x / dt - ax + 0.5 * (lift + lift_next)
        residual = rhs - (ax + (diag_next - diag) * x)
        u[:, k + 1, :, 1:-1] = solve(diag_next, rhs, x, residual, k + 1)
        diag, lift = diag_next, lift_next
    return [ScalarField(grid, field, FULL) for field in u]


def _spectrum(n, d, neumann):
    """Eigenvalues of the 1-D second difference -d^2/dx^2 on n unknowns,
    ascending, and the length m of the extension that diagonalises it:
    ghost-value Neumann ends (``neumann``; DCT-I, m = 2(n-1)) or Dirichlet
    ends (DST-I, m = 2(n+1))."""
    m = 2 * (n - 1) if neumann else 2 * (n + 1)
    j = np.arange(n) + (0 if neumann else 1)
    return (2.0 - 2.0 * np.cos(2.0 * np.pi * j / m)) / d**2, m


def _transform_matrix(n, neumann):
    """Unnormalised DCT-I (``neumann``, end columns halved) or DST-I on n
    points as a dense (n, n) matrix M: the transform of x along axis 0 is
    M @ x.  j k is reduced modulo the extension length m of ``_spectrum``
    before scaling, so every angle lies in [0, 2 pi); M @ M = m I."""
    m = _spectrum(n, 1.0, neumann)[1]
    j = np.arange(n) + (0 if neumann else 1)
    angle = 2.0 * np.pi * (np.outer(j, j) % m) / m
    if not neumann:
        return 2.0 * np.sin(angle)
    M = 2.0 * np.cos(angle)
    M[:, [0, -1]] *= 0.5
    return M


def _separable_inverse(grid):
    """inverse(r, c) = (c + (-Lap_h) / 2)^-1 r on the unknown block, with
    -Lap_h the five-point operator of ``_pcg_solver``'s matvec: DCT-I
    along x1 on the n1 + 2 rows between the ghost-value caps, DST-I along
    x2, as dense products costing 4 P Q (P + Q) flops on P x Q unknowns,
    which beats FFTs on the square grids solved here.  r may be one (P, Q)
    block with a scalar c, or a (B, P, Q) stack with one c per member;
    numpy's matmul then makes one GEMM per member, of the same shape at
    any B."""
    P, Q = grid.n1 + 2, grid.n2
    lam1, m1 = _spectrum(P, grid.dx1, True)
    lam2, m2 = _spectrum(Q, grid.dx2, False)
    M1 = _transform_matrix(P, True)
    M2 = _transform_matrix(Q, False)
    half = 0.5 * m1 * m2 * (lam1[:, None] + lam2[None, :])

    def inverse(r, c):
        scale = m1 * m2 * np.asarray(c)[..., None, None] + half
        return M1 @ ((M1 @ r @ M2) / scale) @ M2

    return inverse


#: Relative residual, in the D-norm, at which a step's iteration stops.
CG_TOLERANCE = 1e-14
#: Iterations per step before the solve gives up.
CG_MAX_ITERATIONS = 200


def _pcg_solver(grid):
    """(matvec, solve) for the five-point step system on the unknown block,
    on (B, P, Q) stacks of members.  matvec(diag, p) applies ``diag`` plus
    the fixed couplings of -Lap_h / 2 to p (a single (P, Q) block works
    too).  solve(diag, rhs, x0, r0, step) solves each member's system by
    conjugate gradients from x0, whose residual r0 it overwrites,
    preconditioned by the same matrix with ``diag`` replaced by its mean,
    which ``_separable_inverse`` solves exactly.  With E = diag - mean(diag)
    the preconditioned residual z therefore has A z = r + E z, so the
    iteration updates q = A p as r + E z + beta q and applies no stencil.
    With the ghost-value caps the matrix is not symmetric, but D A is for
    D = diag(1/2, 1, ..., 1, 1/2) along x1, so the iteration runs in the
    D inner product.  Each member keeps its own shift, step lengths and
    stopping test, and leaves the stack once it converges.  Inner products
    are per-member sums of products, not BLAS dots, so a member's result
    depends neither on the thread count nor on the other members."""
    inverse = _separable_inverse(grid)
    c1, c2 = 0.5 / grid.dx1**2, 0.5 / grid.dx2**2
    weight = np.ones(grid.n1 + 2)
    weight[[0, -1]] = 0.5

    def matvec(diag, p):
        out = diag * p
        out[..., 1:] -= c2 * p[..., :-1]
        out[..., :-1] -= c2 * p[..., 1:]
        out[..., 1:, :] -= c1 * p[..., :-1, :]
        out[..., :-1, :] -= c1 * p[..., 1:, :]
        # cap rows couple doubly to their one axial neighbour
        out[..., 0, :] -= c1 * p[..., 1, :]
        out[..., -1, :] -= c1 * p[..., -2, :]
        return out

    def inner(a, b):
        return np.einsum("bij,bij,i->b", a, b, weight)

    def solve(diag, rhs, x0, r0, step):
        result = x0.copy()
        members = np.arange(len(result))
        rhs_norm = inner(rhs, rhs)
        mean = diag.mean(axis=(1, 2))
        shift = mean - 2.0 * (c1 + c2)
        excess = diag - mean[:, None, None]
        x, r = result, r0
        z = inverse(r, shift)
        p = z
        q = r + excess * z
        rz = inner(r, z)
        iterations = 0
        while True:
            rr = inner(r, r)
            going = rr > CG_TOLERANCE**2 * rhs_norm
            if not going.all():
                result[members[~going]] = x[~going]
                if not going.any():
                    return result
                members, x, r, p, q, excess, shift, rz, rr, rhs_norm = (
                    a[going] for a in (members, x, r, p, q, excess, shift, rz, rr, rhs_norm))
            if iterations == CG_MAX_ITERATIONS:
                raise SolverBreakdownError(
                    f"member {members[0]}, step {step}: no convergence in {CG_MAX_ITERATIONS} "
                    f"iterations, relative residual {np.sqrt(rr[0] / rhs_norm[0]):.3e}")
            iterations += 1
            alpha = (rz / inner(p, q))[:, None, None]
            x += alpha * p
            r -= alpha * q
            z = inverse(r, shift)
            rz, rz_old = inner(r, z), rz
            beta = (rz / rz_old)[:, None, None]
            p = z + beta * p
            q = r + excess * z + beta * q

    return matvec, solve


# ---------------------------------------------------------------------------
# Data presets and the manufactured pair
# ---------------------------------------------------------------------------


def positive_preset_data(grid: SpaceTimeGrid, pot: PotentialSpec) -> BoundaryData:
    """Positive data compatible with the given potential at t=0.

    The initial field is identically 1 (so its Laplacian vanishes) and the
    Dirichlet traces are exp(-t * q(0, x2) f(x1)), whose initial time
    derivative is exactly the value the t=0 consistency condition asks
    for.  When q(0, .) = 0 every trace is identically 1.  Cap data are
    zero Neumann traces."""
    g = grid
    u0 = np.ones((g.n1 + 2, g.n2 + 2))
    t = g.t[:, None]

    b_bottom = np.exp(-t * (pot.q[0, 0] * pot.f)[None, :])
    b_top = np.exp(-t * (pot.q[0, -1] * pot.f)[None, :])
    caps = [np.zeros((g.nt + 1, g.n2 + 2)) for _ in range(2)]
    return BoundaryData(g, u0, b_bottom, b_top, *caps)


@dataclass
class ManufacturedPair:
    """Two solves sharing one data set but carrying different potentials."""

    u: ScalarField
    u_tilde: ScalarField
    data: BoundaryData
    pot: PotentialSpec
    pot_tilde: PotentialSpec


def manufacture_pair(grid: SpaceTimeGrid, q: np.ndarray, q_tilde: np.ndarray,
                     f: np.ndarray) -> ManufacturedPair:
    """Solve the two systems (q, f) and (q_tilde, f) with one shared,
    compatible, positive data set."""
    pot = PotentialSpec(grid, q, f)
    pot_tilde = PotentialSpec(grid, q_tilde, f)
    data = positive_preset_data(grid, pot)
    u, u_tilde = solve_heat(grid, [pot, pot_tilde], data)
    return ManufacturedPair(
        u=u,
        u_tilde=u_tilde,
        data=data,
        pot=pot,
        pot_tilde=pot_tilde,
    )


def measurement(u: ScalarField) -> np.ndarray:
    """Observed trace, a ``(nt+1, n1+2)`` array: outward normal derivative
    of the axial derivative, taken on the observed lateral wall of
    ``u.grid``.  Only the three wall columns that the one-sided normal
    stencil reads are differentiated along x1; the values equal
    ``normal_derivative(gradient(u)[0], segment)``."""
    grid = u.grid
    cols = [-1, -2, -3] if grid.domain.obs_segment == "x2_max" else [0, 1, 2]
    d1 = derivative(u.values[:, :, cols], grid.dx1, 1)
    return one_sided_derivative(np.moveaxis(d1, 2, 0), grid.dx2)


# ---------------------------------------------------------------------------
# Separable closed-form oracle
# ---------------------------------------------------------------------------


class SeparableOracle:
    """Exact solution for f = 1 and a purely time-dependent q.

    u*(t, x) = exp(-Q(t)) exp(-mu t) cos(pi (x1+L)/(2L)) sin(pi x2 / h)
    with mu = (pi/(2L))^2 + (pi/h)^2 and Q the primitive of q.  It has
    homogeneous Dirichlet traces on the lateral walls and homogeneous
    Neumann traces on the caps, so the matching data set is exact.
    The potential is q(t) = q0 + q1 sin(pi t / T).
    """

    q0 = 0.3
    q1 = 0.2

    def __init__(self, grid: SpaceTimeGrid):
        d = grid.domain
        self.grid = grid
        self.mu = (np.pi / (2.0 * d.L)) ** 2 + (np.pi / d.h) ** 2

    def q_of_t(self, t):
        return self.q0 + self.q1 * np.sin(np.pi * t / self.grid.domain.T)

    def q_primitive(self, t):
        T = self.grid.domain.T
        return self.q0 * t + self.q1 * T / np.pi * (1.0 - np.cos(np.pi * t / T))

    def exact(self, t, x1, x2):
        d = self.grid.domain
        return (
            np.exp(-self.q_primitive(t) - self.mu * t)
            * np.cos(np.pi * (x1 + d.L) / (2.0 * d.L))
            * np.sin(np.pi * x2 / d.h)
        )

    def field(self) -> ScalarField:
        return self.grid.sample(self.exact)

    def potential(self) -> PotentialSpec:
        g = self.grid
        q = np.repeat(self.q_of_t(g.t)[:, None], g.n2 + 2, axis=1)
        return PotentialSpec(g, q, np.ones(g.n1 + 2))

    def data(self) -> BoundaryData:
        g = self.grid
        u0 = np.asarray(self.exact(0.0, g.x1[:, None], g.x2[None, :]))
        walls = [np.zeros((g.nt + 1, g.n1 + 2)) for _ in range(2)]
        caps = [np.zeros((g.nt + 1, g.n2 + 2)) for _ in range(2)]
        return BoundaryData(g, u0, *walls, *caps)

    def solve(self) -> ScalarField:
        return solve_heat(self.grid, [self.potential()], self.data())[0]

    def relative_l2_error(self, solved: ScalarField | None = None) -> float:
        """Relative L2(Q) error of ``solved`` (default: a fresh ``solve()``)."""
        exact = self.field().values
        approx = (solved if solved is not None else self.solve()).values
        err = integrate_values(self.grid, (approx - exact) ** 2, "Q")
        ref = integrate_values(self.grid, exact**2, "Q")
        return float(np.sqrt(err / ref))
