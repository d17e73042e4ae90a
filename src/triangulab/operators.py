"""Dense matrix realizations of the operator classes under study.

Constructors produce lower-triangular (or diagonal) matrices on a midpoint
grid with exact zero patterns: multiplication symbols become diagonals,
Volterra kernels become Nystrom triangles, fractional and log-singular
convolution kernels become product-integration Toeplitz triangles, and
difference kernels become differenced cumulative convolutions.  The module
also owns the scalar-plus-quasinilpotent splits (in the given basis and via
a deterministically ordered complex Schur form), chain projections, and the
chain-invariance residual.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .exceptions import ConstructionError, NumericalError
from .grid import Grid, GridFunction, make_grid
from .specfun import EbetaSpec, e_beta_cumulative, gamma_complex

__all__ = [
    "KERNEL_PRESETS",
    "KernelSpec",
    "OperatorMatrix",
    "SplitPair",
    "build_multiplication",
    "build_volterra",
    "build_fractional",
    "build_ebeta_operator",
    "build_difference_operator",
    "build_imaginary_fractional",
    "split_given_basis",
    "split_schur",
    "chain_projection",
    "chain_invariance_residual",
    "operator_norm",
    "apply",
    "as_entries",
    "compose",
    "wrap_matrix",
    "save_matrix",
    "load_matrix",
    "write_csv",
]


@dataclass(frozen=True)
class KernelSpec:
    """Difference kernel ``s`` on ``(0, omega)`` and, when known, its
    antiderivative ``s_antiderivative`` vanishing at 0."""

    s: Callable
    s_antiderivative: Optional[Callable] = None

    @classmethod
    def fractional_imaginary(cls, alpha: float) -> "KernelSpec":
        """``s(t) = t^(i alpha) / Gamma(1 + i alpha)`` and its exact
        antiderivative ``u^(1 + i alpha) / Gamma(2 + i alpha)``; ``alpha = 0``
        is the identity kernel ``s = 1``."""
        if np.iscomplexobj(alpha) or not math.isfinite(alpha):
            raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
        if alpha == 0.0:
            return cls(*_DIFFERENCE_PRESETS["one"])
        g1 = gamma_complex(1.0 + 1j * alpha)
        g2 = gamma_complex(2.0 + 1j * alpha)
        # |Gamma(1 + i alpha)| decays like exp(-pi |alpha| / 2)
        if not all(g != 0 and cmath.isfinite(1.0 / g) for g in (g1, g2)):
            raise NumericalError(f"1/Gamma(1 + i alpha) overflows a double at alpha = {alpha!r}")

        def s(t: float) -> complex:
            return cmath.exp(1j * alpha * math.log(t)) / g1

        def s_anti(u: float) -> complex:
            if u == 0.0:
                return 0.0 + 0.0j
            return u * cmath.exp(1j * alpha * math.log(u)) / g2

        return cls(s, s_anti)

    @classmethod
    def preset(cls, name: str, alpha: float = 1.0) -> "KernelSpec":
        """Named difference kernel: one of :data:`KERNEL_PRESETS`.

        ``imaginary_power`` is :meth:`fractional_imaginary` of order
        ``alpha``; the others ignore ``alpha``.
        """
        if name == "imaginary_power":
            return cls.fractional_imaginary(alpha)
        if name not in _DIFFERENCE_PRESETS:
            raise ValueError(f"unknown kernel preset {name!r}; known: {list(KERNEL_PRESETS)}")
        return cls(*_DIFFERENCE_PRESETS[name])


# name -> (s, antiderivative of s vanishing at 0)
_DIFFERENCE_PRESETS = {
    "one": (lambda t: 1.0 + 0.0j, lambda u: complex(u)),
    "linear": (lambda t: complex(t), lambda u: complex(0.5 * u * u)),
    "inv_sqrt": (lambda t: complex(t) ** -0.5, lambda u: complex(2.0 * math.sqrt(u))),
}
KERNEL_PRESETS = tuple(_DIFFERENCE_PRESETS) + ("imaginary_power",)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix on its grid; ``kernel`` is set by difference-kernel builds."""

    grid: Grid
    entries: np.ndarray
    kernel: Optional[KernelSpec] = None

    def __post_init__(self):
        n = self.grid.n
        if self.entries.shape != (n, n):
            raise ValueError(
                f"entries must be {n}x{n} for this grid, got {self.entries.shape}"
            )
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.grid.n


@dataclass(frozen=True)
class SplitPair:
    """Scalar-plus-quasinilpotent split ``T = Q (S + N) Q*``.

    ``triangle`` is ``R = S + N``, triangular in the split basis, and
    ``unitary`` is the change of basis ``Q`` (identity when the split
    happened in the given basis).  ``diagonal`` is ``S`` as a vector and
    ``strict`` is ``N``, strictly triangular, so its n-th power vanishes
    exactly.
    """

    triangle: np.ndarray
    unitary: np.ndarray

    def __post_init__(self):
        self.triangle.setflags(write=False)
        self.unitary.setflags(write=False)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.triangle)

    @property
    def strict(self) -> np.ndarray:
        return self.triangle - np.diag(self.diagonal)


def as_entries(t) -> np.ndarray:
    """Entries of an :class:`OperatorMatrix`, or a raw matrix as a complex array."""
    if isinstance(t, OperatorMatrix):
        return t.entries
    return np.asarray(t, dtype=complex)


def wrap_matrix(entries: np.ndarray) -> OperatorMatrix:
    """Wrap a raw square matrix with a synthetic unit-length grid of matching size."""
    entries = np.array(entries, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    return OperatorMatrix(make_grid(1.0, entries.shape[0]), entries)


def build_multiplication(grid: Grid, phi: Callable) -> OperatorMatrix:
    """Diagonal matrix with entries ``phi(x_k)``; ``phi`` must be real valued."""
    try:
        values = np.asarray([phi(x) for x in grid.nodes])
    except Exception as exc:  # symbol handle failed at some node
        raise ConstructionError(f"multiplication symbol evaluation failed: {exc}") from exc
    if np.iscomplexobj(values) and np.max(np.abs(values.imag)) > 0:
        raise ValueError("multiplication symbol must be real valued")
    entries = np.diag(values.real.astype(float)).astype(complex)
    if not np.all(np.isfinite(entries)):
        raise ConstructionError("multiplication symbol produced non-finite entries")
    return OperatorMatrix(grid, entries)


def build_volterra(grid: Grid, v: Callable, diagonal: str = "half_cell") -> OperatorMatrix:
    """Nystrom triangle of the Volterra kernel ``v(x, t)``.

    Off-diagonal entries are ``h * v(x_j, x_k)`` for ``k < j``.  The diagonal
    cell only extends from the left cell edge to the node, and the kernel may
    be singular at ``t = x``, so the diagonal is the half-cell midpoint rule
    ``(h/2) * v(x_j, x_j - h/4)`` (``diagonal="half_cell"``) or exactly zero
    (``diagonal="zero"``, the strictly triangular variant whose n-th power
    vanishes identically).
    """
    if diagonal not in ("half_cell", "zero"):
        raise ValueError(f"unknown diagonal mode {diagonal!r}")
    n, h = grid.n, grid.h
    entries = np.zeros((n, n), dtype=complex)
    try:
        for j in range(n):
            xj = grid.nodes[j]
            for k in range(j):
                entries[j, k] = h * v(xj, grid.nodes[k])
            if diagonal == "half_cell":
                entries[j, j] = 0.5 * h * v(xj, xj - 0.25 * h)
    except Exception as exc:  # kernel handle failed somewhere in the triangle
        raise ConstructionError(f"Volterra kernel evaluation failed: {exc}") from exc
    if not np.all(np.isfinite(entries)):
        raise ConstructionError("Volterra kernel produced non-finite entries")
    return OperatorMatrix(grid, entries)


def _toeplitz_lower(first_column: np.ndarray) -> np.ndarray:
    n = first_column.shape[0]
    return scipy.linalg.toeplitz(first_column, np.zeros(n, dtype=complex))


def build_fractional(grid: Grid, beta: float) -> OperatorMatrix:
    """Product-integration triangle of the fractional integral of order ``beta``.

    Entry ``(j, k)`` integrates ``(x_j - t)^(beta-1) / Gamma(beta)`` exactly
    over cell ``k`` (clipped at the node for ``k = j``), using the
    antiderivative ``-(x_j - t)^beta / beta``.  The result is lower-triangular
    Toeplitz; for ``beta = 1`` it degenerates to cumulative sums with a half
    weight on the diagonal.
    """
    if np.iscomplexobj(beta) or not math.isfinite(beta) or not beta > 0:
        raise ValueError(f"fractional order must be a positive finite real number, got {beta!r}")
    n, h = grid.n, grid.h
    d = np.arange(n, dtype=float)
    try:
        scale = h**beta / math.gamma(beta + 1.0)
    except OverflowError as exc:
        raise ConstructionError(f"fractional order {beta!r} overflows the cell weights") from exc
    col = np.empty(n, dtype=complex)
    col[0] = 0.5**beta * scale
    col[1:] = ((d[1:] + 0.5) ** beta - (d[1:] - 0.5) ** beta) * scale
    if not np.all(np.isfinite(col)):
        raise ConstructionError("fractional cell weights are not finite")
    return OperatorMatrix(grid, _toeplitz_lower(col))


def build_ebeta_operator(grid: Grid, spec: EbetaSpec) -> OperatorMatrix:
    """Convolution triangle of the log-singular kernel family.

    Entry ``(j, k)`` is ``(1/Gamma(beta))`` times the exact cell integral of
    the kernel, obtained from the cumulative integral
    :func:`triangulab.specfun.e_beta_cumulative`, which absorbs the
    ``u -> 0`` log singularity analytically.  Lower-triangular Toeplitz.
    """
    n, h = grid.n, grid.h
    cum = np.empty(n + 1)
    cum[0] = 0.0
    try:
        for d in range(1, n + 1):
            cum[d] = e_beta_cumulative((d - 0.5) * h, spec)
    except Exception as exc:
        raise ConstructionError(f"kernel cell quadrature failed: {exc}") from exc
    try:
        col = np.diff(cum) / math.gamma(spec.beta)
    except OverflowError as exc:
        raise ConstructionError(f"Gamma({spec.beta!r}) overflows a double") from exc
    if not np.all(np.isfinite(col)):
        raise ConstructionError("kernel cell integrals are not finite")
    return OperatorMatrix(grid, _toeplitz_lower(col.astype(complex)))


def _cell_integrals(s: Callable, antiderivative: Optional[Callable], h: float, n: int) -> np.ndarray:
    """Integrals of ``s`` over the cells ``[d h, (d+1) h]``, ``d = 0..n-1``."""
    if antiderivative is not None:
        pts = np.array([antiderivative(d * h) for d in range(n + 1)], dtype=complex)
        return np.diff(pts)
    from scipy.integrate import quad

    out = np.empty(n, dtype=complex)
    for d in range(n):
        a, b = d * h, (d + 1) * h
        out[d], _ = quad(s, a, b, complex_func=True, epsabs=1e-13, epsrel=1e-11, limit=200)
        if not cmath.isfinite(out[d]):
            raise ConstructionError(f"difference-kernel cell integral diverged on [{a:g}, {b:g}]")
    return out


def build_difference_operator(
    grid: Grid, s: Callable, antiderivative: Optional[Callable] = None
) -> OperatorMatrix:
    """Triangle of ``f -> d/dx integral_0^x s(x - t) f(t) dt``.

    The cumulative convolution is discretized at the right cell edges with
    exact per-cell integrals of ``s`` (from ``antiderivative`` when supplied,
    else adaptive quadrature), then differenced with a zero boundary value.
    Differencing the cumulative rather than differentiating the kernel keeps
    severely singular ``s'`` out of the picture and reproduces ``s = 1`` as
    the identity and ``s(t) = t`` as the order-one integral exactly.
    """
    n, h = grid.n, grid.h
    g = _cell_integrals(s, antiderivative, h, n)
    tau = np.empty(n, dtype=complex)
    tau[0] = g[0] / h
    tau[1:] = (g[1:] - g[:-1]) / h
    if not np.all(np.isfinite(tau)):
        raise ConstructionError("difference-kernel entries are not finite")
    return OperatorMatrix(grid, _toeplitz_lower(tau), KernelSpec(s, antiderivative))


def build_imaginary_fractional(grid: Grid, alpha: float) -> OperatorMatrix:
    """Fractional integral of purely imaginary order ``i * alpha``.

    Difference-kernel build with the handles of
    :meth:`KernelSpec.fractional_imaginary`; ``alpha = 0`` reduces to the
    identity.
    """
    kernel = KernelSpec.fractional_imaginary(alpha)
    return build_difference_operator(grid, kernel.s, kernel.s_antiderivative)


def split_given_basis(t: OperatorMatrix) -> SplitPair:
    """Split a triangular matrix into diagonal plus strict triangle in place.

    Requires an exactly lower-triangular input (the constructors guarantee
    exact zero patterns); anything else should go through
    :func:`split_schur`.
    """
    if np.any(np.triu(t.entries, 1) != 0):
        raise ValueError("matrix is not lower triangular; use split_schur")
    return SplitPair(triangle=t.entries, unitary=np.eye(t.n, dtype=complex))


def _swap_adjacent(r: np.ndarray, q: np.ndarray, k: int) -> None:
    """Unitary swap of diagonal entries k, k+1 of an upper-triangular r."""
    a = r[k, k]
    b = r[k, k + 1]
    c = r[k + 1, k + 1]
    norm = math.hypot(abs(b), abs(c - a))
    if norm == 0.0:
        return
    u = np.array([b / norm, (c - a) / norm], dtype=complex)
    g = np.array([[u[0], -np.conj(u[1])], [u[1], np.conj(u[0])]], dtype=complex)
    r[:, k : k + 2] = r[:, k : k + 2] @ g
    r[k : k + 2, :] = g.conj().T @ r[k : k + 2, :]
    q[:, k : k + 2] = q[:, k : k + 2] @ g
    r[k + 1, k] = 0.0


def _order_key(z: complex):
    return (z.real, z.imag)


def split_schur(t: OperatorMatrix) -> SplitPair:
    """Unitary triangularization split ``Q* T Q = R = S + N``.

    Computes a complex Schur form and reorders its diagonal by ascending
    real part (ties by ascending imaginary part) with exact unitary swaps,
    so the returned split is deterministic.  ``R`` is upper triangular.
    """
    entries = as_entries(t)
    try:
        r, q = scipy.linalg.schur(entries, output="complex")
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"Schur factorization failed: {exc}") from exc
    r = r.astype(complex)
    q = q.astype(complex)
    n = r.shape[0]
    # bubble sort with unitary adjacent swaps keeps the form triangular
    for _ in range(n):
        swapped = False
        for k in range(n - 1):
            if _order_key(r[k, k]) > _order_key(r[k + 1, k + 1]):
                _swap_adjacent(r, q, k)
                swapped = True
        if not swapped:
            break
    r = np.triu(r)
    scale = max(float(np.linalg.norm(entries, 2)), 1e-300)
    residual = float(np.linalg.norm(q @ r @ q.conj().T - entries, 2)) / scale
    if residual > 1e-10:
        raise NumericalError(f"Schur reconstruction residual {residual:g} exceeds 1e-10")
    return SplitPair(triangle=r, unitary=q)


def chain_projection(grid: Grid, t_param: float) -> OperatorMatrix:
    """Chain projection selecting the trailing nodes ``x_k > omega - t_param``.

    ``t_param = 0`` gives the zero matrix, ``t_param = omega`` the identity,
    and consecutive cell-width steps change the rank by exactly one.
    """
    if not 0.0 <= t_param <= grid.omega + 1e-12 * grid.omega:
        raise ValueError(f"chain parameter must lie in [0, omega], got {t_param}")
    mask = grid.nodes > grid.omega - t_param
    entries = np.diag(mask.astype(float)).astype(complex)
    return OperatorMatrix(grid, entries)


def chain_invariance_residual(t: OperatorMatrix, e: OperatorMatrix) -> float:
    """Invariance defect ``|| E T E - T E ||`` for a projection ``E``.

    Zero (to rounding) exactly when ``ran(E)`` is invariant under ``T``;
    raises ``ValueError`` if ``e`` is not an orthogonal projection.
    """
    ee = as_entries(e)
    herm = float(np.linalg.norm(ee - ee.conj().T, 2))
    idem = float(np.linalg.norm(ee @ ee - ee, 2))
    if herm > 1e-12 or idem > 1e-12:
        raise ValueError("e must be an orthogonal projection (e^2 = e = e*)")
    tt = as_entries(t)
    return float(np.linalg.norm(ee @ tt @ ee - tt @ ee, 2))


def operator_norm(t) -> float:
    """Largest singular value, from the dense singular values."""
    return float(scipy.linalg.svdvals(as_entries(t))[0])


def apply(t: OperatorMatrix, f: GridFunction) -> GridFunction:
    """Matrix-vector action on a grid function."""
    if f.grid != t.grid:
        raise ValueError("operator and function live on different grids")
    return GridFunction(t.grid, t.entries @ f.values)


def compose(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Operator product ``a @ b`` on a common grid."""
    if a.grid != b.grid:
        raise ValueError("operator product requires a common grid")
    return OperatorMatrix(a.grid, a.entries @ b.entries)


def save_matrix(t: OperatorMatrix, path) -> None:
    """Write the documented text format: header ``rows cols omega``, then
    row-major ``re im`` pairs, one matrix row per line."""
    entries = np.ascontiguousarray(t.entries, dtype=complex)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{entries.shape[0]} {entries.shape[1]} {float(t.grid.omega)!r}\n")
        # the float64 view interleaves re, im along each row; converting one
        # row at a time keeps a single row of Python floats alive
        for row in entries.view(np.float64):
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


def load_matrix(path) -> OperatorMatrix:
    """Read the text format written by :func:`save_matrix`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) < 3:
            raise ValueError("matrix file is truncated")
        rows, cols, omega = int(header[0]), int(header[1]), float(header[2])
        # parsed a line at a time: a token list of the whole file would hold
        # ~16 MiB of Python strings for one 1 MiB matrix at n=256
        data = np.fromiter((float(tok) for line in fh for tok in line.split()), dtype=float)
    if data.size != 2 * rows * cols:
        raise ValueError(
            f"expected {2 * rows * cols} numbers for a {rows}x{cols} matrix, got {data.size}"
        )
    entries = data[0::2] + 1j * data[1::2]
    return OperatorMatrix(make_grid(omega, rows), entries.reshape(rows, cols))


def write_csv(path, header: str, rows) -> None:
    """Write the CSV artifact format: the header line, then one line per row.

    Strings and integers are written as they are, every other value as the
    ``repr`` of a float, which round-trips exactly.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (str, int)) else repr(float(v)) for v in row) + "\n")
