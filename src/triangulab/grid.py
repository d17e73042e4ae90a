"""Uniform midpoint discretization of the interval (0, omega).

Everything downstream (operator constructors, resolvent sweeps, symbol
residuals) works on samples at cell midpoints, so weakly singular kernels
are never evaluated at a node and the discrete L2 norm is the plain
midpoint quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import FrequencyRangeError

__all__ = [
    "Grid",
    "GridFunction",
    "make_grid",
    "l2_norm",
    "l2_inner",
    "sample_function",
    "sample_exponential",
    "max_frequency",
    "check_frequency",
]


@dataclass(frozen=True)
class Grid:
    """Uniform partition of (0, omega) into ``n`` cells with midpoint nodes.

    Attributes
    ----------
    omega : float
        Interval length.
    n : int
        Number of cells.
    h : float
        Cell width, ``omega / n``.
    nodes : numpy.ndarray
        Midpoints ``(k + 1/2) h`` for ``k = 0..n-1``, strictly increasing.
        Derived from ``omega`` and ``n``, so equality ignores it.
    """

    omega: float
    n: int
    h: float
    nodes: np.ndarray = field(compare=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function at the midpoints of a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {self.values.shape}"
            )
        self.values.setflags(write=False)


def make_grid(omega: float, n: int) -> Grid:
    """Build the uniform midpoint grid on (0, omega).

    Raises ``ValueError`` unless ``omega`` is positive and finite and ``n``
    is an integer ``>= 2``.
    """
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"the cell count must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need at least 2 cells, got {n}")
    h = omega / n
    nodes = (np.arange(n) + 0.5) * h
    return Grid(omega=float(omega), n=int(n), h=h, nodes=nodes)


def sample_function(grid: Grid, func) -> GridFunction:
    """Sample a callable at the grid nodes into a :class:`GridFunction`."""
    values = np.asarray([func(x) for x in grid.nodes], dtype=complex)
    return GridFunction(grid, values)


def l2_norm(f: GridFunction) -> float:
    """Discrete L2 norm, ``sqrt(h * sum |f_k|^2)``."""
    return math.sqrt(f.grid.h * float(np.sum(np.abs(f.values) ** 2)))


def l2_inner(f: GridFunction, g: GridFunction) -> complex:
    """Discrete L2 inner product ``h * sum conj(f_k) g_k``."""
    if f.grid != g.grid:
        raise ValueError("inner product requires a common grid")
    return complex(f.grid.h * np.vdot(f.values, g.values))


def sample_exponential(grid: Grid, xi: float, sign: int = 1) -> GridFunction:
    """Samples of ``exp(sign * i * x * xi)`` at the grid nodes.

    All samples are unimodular.  The caller is responsible for the aliasing
    guard (:func:`check_frequency`) when the samples feed an operation that
    interprets ``xi`` as a resolved frequency.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    values = np.exp(1j * sign * xi * grid.nodes)
    return GridFunction(grid, values)


def max_frequency(grid: Grid) -> float:
    """Largest frequency the grid resolves without aliasing, ``pi / (4 h)``."""
    return math.pi / (4.0 * grid.h)


def check_frequency(grid: Grid, xi: float) -> None:
    """Raise :class:`FrequencyRangeError` when ``|xi|`` exceeds the guard.

    Frequency-limit statements must be driven by grid refinement, not by
    aliasing artifacts, so operations that quote a frequency against grid
    content enforce ``|xi| <= pi / (4 h)``.
    """
    limit = max_frequency(grid)
    if abs(xi) > limit:
        raise FrequencyRangeError(
            f"|xi| = {abs(xi):g} exceeds the aliasing guard pi/(4h) = {limit:g}"
        )
