"""Forward heat solves on the bounded waveguide.

Solves  u_t - Lap(u) + q(t, x2) f(x1) u = 0  with the mixed boundary
conditions of the bounded waveguide: Dirichlet data on the two lateral
walls, Neumann data on the end caps.  Open-waveguide grids are
rejected, since no pipeline of the package solves on one; the open
regime is checked on synthetic fields only.

Scheme: Crank-Nicolson in time with the potential treated implicitly at
both levels, five-point Laplacian in space, Neumann caps imposed through
second-order ghost values, Dirichlet rows eliminated.  It is
unconditionally stable and second order; the closed-form oracle below is
its yardstick.  On the unknown block, with the known values removed, the
step matrix of level k is A_k = 1/dt + (-Lap_h + V^k)/2, and the step to
level k + 1 solves

    A_{k+1} u^{k+1} = 2 u^k / dt - A_k u^k + (l_k + l_{k+1}) / 2,

where l_k lifts level k's known values onto the edges of the block: the
Dirichlet neighbours (level 0 keeps the edges of u0) over dx2^2 and, on
the caps, the ghost-value Neumann terms 2 cap / dx1.  So one five-point
operator serves both sides of each step.

Variables: A_k is not symmetric, since a ghost-value cap row couples to
its neighbour by 2 c1 and the neighbour back by c1, but D A_k is, for
D = diag(1/2, 1, ..., 1, 1/2) along x1.  The march holds S x, S = D^(1/2),
in which both couplings are sqrt(2) c1 and the plain inner product is the
D inner product of x; the interior rows of S x (S = 1) are copied into u,
its cap rows divided.

Preconditioner: C, the step matrix with its diagonal replaced by the
diagonal's midrange (Concus & Golub 1973), is solved exactly by the
transforms that diagonalise it (Swarztrauber 1977).  The midrange makes
the excess E = A - C zero for a potential constant in space and
minimizes max |E|, which bounds the contraction.  Because the solve is
exact, z = C^-1 r leaves the residual -E z, and A z = r + E z.

Iteration: each member runs preconditioned Richardson, x += z and
r = -E z, while one application shrinks its residual at least
1 / ``RICHARDSON_RATE``-fold, and conjugate gradients from the first one
that does not, with q = A p updated as r + E z + beta q.  Neither applies
a stencil.  Each residual is tested before it is preconditioned (Saad
2003, Alg. 9.1), so a converged member takes no further transform solve.
Each member keeps its own midrange, phase and stopping test; the
iteration cap counts both phases.

March: solves that share a grid and a data set and differ only in the
potential march as one (B, P, Q) stack.  Each member's step to level
k + 1 starts from

    x0 = sum_j (-1)^j C(m, j+1) u^{k-j},  j = 0 ... m - 1,

the value at level k + 1 of the polynomial through its last
m = min(k + 1, ``EXTRAPOLATED_LEVELS``) levels (Fischer 1998), formed in
one pass over a ring of the levels.  The five-point operator runs once
per step, its x2 couplings as shifts of the flattened stack: on u^0
before the march, and on x0 for A_{k+1} x0 at every step after the
first.  Step 0 starts from x0 = u^0 and takes A_1 x0 = A_0 u^0 +
(diag_1 - diag_0) u^0.  Every step reads A_k u^k as rhs - r: the last
step's right side less the converged residual that the solve leaves,
and A_0 u^0 less zero at step 0.  One pass over each potential's
extremes gives the definiteness test and every level's diagonal
midrange; the lifts and the march's buffers are built once per solve,
the transform-domain reciprocal once per step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .grid import (
    ScalarField,
    SpaceTimeGrid,
    derivative,
    integrate_values,
    laplacian,
    one_sided_derivative,
)


class SolverBreakdownError(RuntimeError):
    """A time step's iterative solve did not converge within the iteration
    cap or met a non-finite residual; the message names the member and the step."""


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
    stencil on the first three data levels.  Raises ValueError unless
    ``data`` and ``pot`` share one grid."""
    g = data.grid
    if pot.grid is not g:
        raise ValueError("potential and data must share one grid")
    lap_u0 = laplacian(data.u0, g)
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
    potential, in order, each the same, bit for bit, at any stack size.

    Raises ValueError for no potential, for inputs on different grids, for
    a truncated grid and, naming the member, for a step matrix that is not
    positive definite on a marched level; ``SolverBreakdownError`` from
    the solve."""
    pots = list(pots)
    if not pots:
        raise ValueError("solve_heat needs at least one potential")
    if data.grid is not grid or any(pot.grid is not grid for pot in pots):
        raise ValueError("potential, data and solve must share one grid")
    if grid.domain.truncated:
        raise ValueError("solve_heat solves bounded grids only, not truncated ones")

    dt, dx1, dx2 = grid.dt, grid.dx1, grid.dx2
    # smallest eigenvalue of -Lap_h: the lowest mode along each axis
    lam_min = _spectrum(grid.n1 + 2, dx1, True)[0][0] + _spectrum(grid.n2, dx2, False)[0][0]
    half_q = 0.5 * np.stack([pot.q[:, None, 1:-1] for pot in pots])  # (B, nt+1, 1, Q)
    f = np.stack([pot.f[:, None] for pot in pots])  # (B, P, 1)
    with np.errstate(over="ignore"):  # solve names a non-finite residual
        corners = _potential_extremes(half_q, f)  # h = q / 2: 2 fl(h f) = fl(q f) if normal
        for b, min_v in enumerate((2.0 * corners[:, 1:].min(axis=(1, 2, 3))).tolist()):
            if not 1.0 / dt + 0.5 * (lam_min + min_v) > 0.0:  # over the marched levels 1..nt
                raise ValueError(f"step matrix of member {b} is not positive definite: time "
                                 f"step {dt} with min V {min_v}; refine the time grid")
    shift = 1.0 / dt + 1.0 / dx1**2 + 1.0 / dx2**2
    P, Q = grid.n1 + 2, grid.n2
    sym, ends = _cap_scaling(P), slice(0, P, P - 1)  # ends: rows 0 and P-1
    u = np.zeros((len(pots),) + grid.shape)
    u[:, 0] = data.u0
    u[:, 1:, :, 0] = data.b_bottom[1:]
    u[:, 1:, :, -1] = data.b_top[1:]
    # S l_k / 2 of all levels on the edges (0 inside), added onto zeros: cols 0, Q-1, rows 0, P-1
    cols = np.zeros((grid.nt + 1, P, 2))
    cols += u[0, :, :, ::Q + 1] / dx2**2
    rows = np.zeros((grid.nt + 1, 2, Q))
    rows[..., ::Q - 1] = cols[:, ends]
    rows += 2.0 * np.stack([data.cap_minus, data.cap_plus], axis=1)[..., 1:-1] / dx1
    cols *= 0.5 * sym
    rows *= 0.5 * sym[ends]

    matvec, solve = _pcg_solver(grid)
    slots = EXTRAPOLATED_LEVELS + 1  # level i in ring[i % slots]; each start overwrites the oldest
    ring = np.zeros((slots, len(pots), P, Q))
    ring[0] = sym * data.u0[:, 1:-1]
    steps = np.arange(grid.nt)
    weights = np.zeros((grid.nt, slots))  # row k: x0 of step k + 1 = weights[k] . ring
    for j, w in enumerate(_EXTRAPOLATION_WEIGHTS[np.minimum(steps, EXTRAPOLATED_LEVELS - 1)].T):
        weights[steps, (steps - j) % slots] = w  # level k - j; 0 past level 0
    ax, rhs, deficit, diag_next = (np.empty_like(ring[0]) for _ in range(4))
    r = np.zeros_like(ring[0])  # rhs - r is A_k x^k: A_0 u^0 - 0 at step 0
    lifts = np.zeros((P, Q))  # (l_k + l_{k+1}) S / 2, whose zeros turn a -0.0 of rhs to 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # solve names a non-finite residual
        mids = 0.5 * (np.min(corners + shift, axis=(2, 3)) + np.max(corners + shift, axis=(2, 3)))
        diag_0 = half_q[:, 0] * f + shift
        matvec(diag_0, ring[0], rhs)
        for k in range(grid.nt):
            x, start = ring[k % slots], ring[(k + 1) % slots]
            np.multiply(half_q[:, k + 1], f, out=diag_next)
            diag_next += shift
            np.subtract(rhs, r, out=ax)
            np.multiply(2.0 / dt, x, out=rhs)
            rhs -= ax
            np.add(rows[k], rows[k + 1], out=lifts[ends])
            np.add(cols[k, 1:-1], cols[k + 1, 1:-1], out=lifts[1:-1, ::Q - 1])
            rhs += lifts
            np.einsum("j,jbpq->bpq", weights[k], ring, out=start)
            if k == 0:  # x0 = x^0: A_1 x^0 needs no stencil
                ax += (diag_next - diag_0) * x
            else:
                matvec(diag_next, start, ax)
            np.subtract(rhs, ax, out=r)
            np.subtract(mids[:, k + 1, None, None], diag_next, out=deficit)
            solve(mids[:, k + 1], deficit, rhs, start, r, k + 1)
            u[:, k + 1, 1:-1, 1:-1] = start[:, 1:-1]  # S = 1 there, and x / 1 is x
            np.divide(start[:, ends], sym[ends], out=u[:, k + 1, ends, 1:-1])
    return [ScalarField(grid, field) for field in u]


def _potential_extremes(half_q, f):
    """fl(h f) at the corners of each level's extremes of h = ``half_q`` (B, nt+1, 1, Q) and
    f (B, P, 1) > 0, (B, nt+1, 2, 2): rounding is monotone, so they hold each level's
    extremes of fl(h f) (up to a zero's sign) and, bit for bit, of fl(fl(h f) + c)."""
    h = np.stack([half_q.min(axis=(2, 3)), half_q.max(axis=(2, 3))], axis=-1)[..., None]
    return h * np.concatenate([f.min(axis=1), f.max(axis=1)], axis=1)[:, None, None]


def _spectrum(n, d, neumann):
    """Eigenvalues of the 1-D second difference -d^2/dx^2 on n unknowns,
    ascending, and the length m of the extension that diagonalises it:
    ghost-value Neumann ends (``neumann``; DCT-I, m = 2(n-1)) or Dirichlet
    ends (DST-I, m = 2(n+1))."""
    m = 2 * (n - 1) if neumann else 2 * (n + 1)
    j = np.arange(n) + (0 if neumann else 1)
    return (2.0 - 2.0 * np.cos(2.0 * np.pi * j / m)) / d**2, m


def _transform_matrix(n, neumann):
    """2 cos (``neumann``) or 2 sin of 2 pi j k / m on n points as a dense (n, n)
    matrix M, m the extension length of ``_spectrum``: the DST-I of x along axis 0
    is M @ x, and M @ M = m I; the DCT-I is M with its end columns halved.  j k
    is reduced modulo m before scaling, so every angle lies in [0, 2 pi)."""
    m = _spectrum(n, 1.0, neumann)[1]
    j = np.arange(n) + (0 if neumann else 1)
    angle = 2.0 * np.pi * (np.outer(j, j) % m) / m
    return 2.0 * (np.cos(angle) if neumann else np.sin(angle))


def _cap_scaling(n):
    """S = D^(1/2) as an (n, 1) column, D = diag(1/2, 1, ..., 1, 1/2) along x1."""
    return np.sqrt(np.r_[0.5, np.ones(n - 2), 0.5])[:, None]


def _separable_inverse(grid):
    """(scale, inverse) with inverse(r, scale(c)) = S (c + (-Lap_h) / 2)^-1 S^-1 r
    on the unknown block, for S of ``_cap_scaling`` and -Lap_h the
    five-point operator: DCT-I along x1 on the n1 + 2 rows between the
    ghost-value caps, DST-I along x2, as dense products costing
    4 P Q (P + Q) flops on P x Q unknowns, which beats FFTs on the square
    grids solved here.  With S folded in, the DCT-I matrix is S C S for the
    cosine matrix C, symmetric with square m1 I.  scale(c) is the reciprocal
    transform-domain denominator; the four products share two buffers.  r
    may be one (P, Q) block with a scalar c, or a (B, P, Q) stack with one
    c per member; numpy's matmul then makes one GEMM per member, of the
    same shape at any B."""
    P, Q = grid.n1 + 2, grid.n2
    lam1, m1 = _spectrum(P, grid.dx1, True)
    lam2, m2 = _spectrum(Q, grid.dx2, False)
    sym = _cap_scaling(P)
    M1 = _transform_matrix(P, True)
    M1 *= sym * sym.T
    M2 = _transform_matrix(Q, False)
    half = 0.5 * m1 * m2 * (lam1[:, None] + lam2[None, :])

    def scale(c):
        return 1.0 / (m1 * m2 * np.asarray(c)[..., None, None] + half)

    def inverse(r, reciprocal):
        left = np.matmul(M1, r)
        right = np.matmul(left, M2)
        right *= reciprocal
        np.matmul(M1, right, out=left)
        return np.matmul(left, M2, out=right)

    return scale, inverse


#: Relative residual, in the D-norm, at which a step's iteration stops.
CG_TOLERANCE = 1e-14
#: Iterations per step, Richardson and CG together, before the solve gives up.
CG_MAX_ITERATIONS = 200
#: Residual ratio of one Richardson application above which a member hands over to CG.
RICHARDSON_RATE = 0.05
#: Marched levels through which the polynomial that starts each step runs.
EXTRAPOLATED_LEVELS = 6
#: Row m - 1, column j: the weight (-1)^j C(m, j + 1) of level k - j in the value at
#: level k + 1 of the polynomial of degree < m through levels k, ..., k - m + 1 (0 for j >= m).
_EXTRAPOLATION_WEIGHTS = np.array([[(-1) ** j * math.comb(m, j + 1)
                                    for j in range(EXTRAPOLATED_LEVELS)]
                                   for m in range(1, EXTRAPOLATED_LEVELS + 1)], dtype=float)


def _pcg_solver(grid):
    """(matvec, solve) for the step system on the unknown block, on (B, P, Q)
    stacks of members, in the variables S x of ``_cap_scaling``.
    matvec(diag, p, out) applies ``diag`` plus the fixed couplings of
    S (-Lap_h / 2) S^-1 to p (or one (P, Q) block), into ``out``,
    C-contiguous, if given.  solve(mid, deficit, rhs, x, r, step) solves
    each member's system, whose diagonal is mid - deficit, to
    ``CG_TOLERANCE`` relative to rhs, preconditioned by the system whose
    diagonal is the scalar ``mid``; it updates x in place from its
    residual r and leaves each member's final residual in r."""
    scale, inverse = _separable_inverse(grid)
    c1, c2 = 0.5 / grid.dx1**2, 0.5 / grid.dx2**2
    cap = np.sqrt(2.0)
    P = grid.n1 + 2
    ends, next_to_ends = slice(0, P, P - 1), slice(1, P - 1, P - 3)  # rows 0, P-1 and 1, P-2

    def matvec(diag, p, out=None):
        out = np.multiply(diag, p, out=out, order="C")
        c1p, c2p = c1 * p, c2 * p
        # x2 couplings as flat-stack shifts (a last-axis offset view runs row by row);
        # the column coupling a row's end to the next row's is +0.0: x - +0.0 is x
        c2p[..., -1] = 0.0
        out.reshape(-1)[1:] -= c2p.reshape(-1)[:-1]
        c2p[..., -1] = c2 * p[..., -1]
        c2p[..., 0] = 0.0
        out.reshape(-1)[:-1] -= c2p.reshape(-1)[1:]
        out[..., ends, :] -= cap * c1p[..., next_to_ends, :]
        c1p[..., ends, :] *= cap
        out[..., 1:-1, :] -= c1p[..., :-2, :]
        out[..., 1:-1, :] -= c1p[..., 2:, :]
        return out

    def solve(mid, deficit, rhs, x, r, step):
        s = full = SimpleNamespace(members=np.arange(len(x)), x=x, r=r, deficit=deficit,
                                   reciprocal=scale(mid - 2.0 * (c1 + c2)),
                                   rr=_inner(r, r).tolist(),
                                   bound=(CG_TOLERANCE**2 * _inner(rhs, rhs)).tolist(),
                                   last=[np.inf] * len(x))
        iterations = 0
        while (s := _settle(full, s, iterations, step)) is not None:
            slow = [rr > RICHARDSON_RATE**2 * last for rr, last in zip(s.rr, s.last)]
            if any(slow):
                _conjugate_gradients(inverse, full, _take(s, slow), iterations, step)
                if all(slow):
                    return
                s = _take(s, [not v for v in slow])
            iterations += 1
            z = inverse(s.r, s.reciprocal)
            s.x += z
            np.multiply(s.deficit, z, out=s.r)
            s.last, s.rr = s.rr, _inner(s.r, s.r).tolist()

    return matvec, solve


def _conjugate_gradients(inverse, full, s, iterations, step):
    """CG for the members of ``solve``'s stack ``s`` from their x and r, after
    ``iterations`` Richardson applications; each converged x and r go to
    the stack ``full``."""
    # p = q = 0 and rz = inf make the first beta 0 and the first p z
    s.p, s.q, s.rz = np.zeros_like(s.r), np.zeros_like(s.r), np.full(len(s.r), np.inf)
    while (s := _settle(full, s, iterations, step)) is not None:
        iterations += 1
        z = inverse(s.r, s.reciprocal)
        rz = _inner(s.r, z)
        beta = (rz / s.rz)[:, None, None]
        s.p *= beta
        s.p += z
        np.multiply(s.deficit, z, out=z)  # z, fresh from inverse, is the scratch from here
        np.subtract(s.r, z, out=z)
        s.q *= beta
        s.q += z
        s.rz = rz
        alpha = (rz / _inner(s.p, s.q))[:, None, None]
        np.multiply(alpha, s.p, out=z)
        s.x += z
        np.multiply(alpha, s.q, out=z)
        s.r -= z
        s.rr = _inner(s.r, s.r).tolist()


def _settle(full, s, iterations, step):
    """Test each member of the stack ``s`` before an application: write the
    x and r of each one whose residual norm rr meets its bound into the
    stack ``full`` that ``solve`` began, and return the others' stack, or
    None.  Raises SolverBreakdownError on a non-finite rr and at the cap."""
    finite = [-np.inf < rr < np.inf for rr in s.rr]
    if not all(finite):  # a NaN would pass the stopping test as converged
        raise SolverBreakdownError(f"member {s.members[finite.index(False)]}, step {step}: "
                                   "non-finite residual")
    going = [rr > bound for rr, bound in zip(s.rr, s.bound)]
    if not all(going):
        done = [not g for g in going]
        if s is not full:  # the stack not yet compacted is full, updated in place
            full.x[s.members[done]] = s.x[done]
            full.r[s.members[done]] = s.r[done]
        if not any(going):
            return None
        s = _take(s, going)
    if iterations == CG_MAX_ITERATIONS:
        raise SolverBreakdownError(
            f"member {s.members[0]}, step {step}: no convergence in {CG_MAX_ITERATIONS} iterations, "
            f"relative residual {CG_TOLERANCE * np.sqrt(np.float64(s.rr[0]) / s.bound[0]):.3e}")
    return s


def _take(s, mask):
    """The members of the stack ``s`` where the list of bools ``mask`` holds, as a new stack."""
    return SimpleNamespace(**{name: [v for v, m in zip(a, mask) if m] if isinstance(a, list)
                              else a[mask] for name, a in vars(s).items()})


def _inner(a, b):
    """Per-member sums, not BLAS dots: a member's inner product depends
    neither on the thread count nor on the other members."""
    return np.einsum("bij,bij->b", a, b)


# ---------------------------------------------------------------------------
# Data presets and the manufactured pair
# ---------------------------------------------------------------------------


def positive_preset_data(pot: PotentialSpec) -> BoundaryData:
    """Positive data on ``pot``'s grid, compatible with the potential at t=0.

    The initial field is identically 1 (so its Laplacian vanishes) and the
    Dirichlet traces are exp(-t * q(0, x2) f(x1)), whose initial time
    derivative is exactly the value the t=0 consistency condition asks
    for.  When q(0, .) = 0 every trace is identically 1.  Cap data are
    zero Neumann traces."""
    g = pot.grid
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
    data = positive_preset_data(pot)
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
    ``normal_derivative(gradient(u)[0])``."""
    grid = u.grid
    d1 = derivative(u.values[:, :, list(grid.domain.obs_columns)], grid.dx1, 1)
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
        q_of_t = self.q0 + self.q1 * np.sin(np.pi * g.t / g.domain.T)
        q = np.repeat(q_of_t[:, None], g.n2 + 2, axis=1)
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
