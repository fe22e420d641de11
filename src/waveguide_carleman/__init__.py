"""Numerical laboratory for a waveguide heat equation with a potential of
the form q(t, x2) f(x1): forward solves, singular-weight systems, the
u -> v -> w -> z reduction chain, and quadrature-based checks of the
weighted inequalities that drive the stability analysis."""

__version__ = "0.1.0"
