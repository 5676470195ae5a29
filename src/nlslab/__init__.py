"""Numerical laboratory for solitary waves of the focusing nonlinear
Schroedinger equation in the exterior of a convex obstacle."""

from . import evolve, fixedpoint, grid, ground_state, linearized, modulation, soliton

__version__ = "0.1.0"
