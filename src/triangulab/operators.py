"""Dense matrix realizations of the operator classes under study.

Constructors produce lower-triangular matrices on a midpoint grid with exact
zero patterns: fractional and log-singular convolution kernels become
product-integration Toeplitz triangles, and difference kernels become
differenced cumulative convolutions.  The module also owns the
scalar-plus-quasinilpotent splits (in the given basis and via a
deterministically ordered complex Schur form).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.special

from .exceptions import ConstructionError, NumericalError
from .grid import Grid, make_grid
from .specfun import EbetaSpec, e_beta_cumulative, e_beta_cumulative_array

__all__ = [
    "KERNEL_PRESETS",
    "KernelSpec",
    "OperatorMatrix",
    "SplitPair",
    "build_fractional",
    "build_ebeta_operator",
    "build_difference_operator",
    "build_imaginary_fractional",
    "split_given_basis",
    "split_schur",
    "operator_norm",
    "matmul",
    "as_entries",
    "real_if_real",
    "save_matrix",
    "load_matrix",
]


@dataclass(frozen=True)
class KernelSpec:
    """Difference kernel ``s`` on ``(0, omega)`` and its antiderivative
    ``s_antiderivative`` vanishing at 0."""

    s: Callable
    s_antiderivative: Callable

    @classmethod
    def fractional_imaginary(cls, alpha: float) -> "KernelSpec":
        """``s(t) = t^(i alpha) / Gamma(1 + i alpha)`` and its exact
        antiderivative ``u^(1 + i alpha) / Gamma(2 + i alpha)``; ``alpha = 0``
        is the identity kernel ``s = 1``."""
        if np.iscomplexobj(alpha) or not math.isfinite(alpha):
            raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
        if alpha == 0.0:
            return cls(*_DIFFERENCE_PRESETS["one"])
        g1 = complex(scipy.special.gamma(1.0 + 1j * alpha))
        g2 = complex(scipy.special.gamma(2.0 + 1j * alpha))
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


@dataclass(frozen=True)
class SplitPair:
    """Scalar-plus-quasinilpotent split ``T = Q (S + N) Q*``.

    ``triangle`` is ``R = S + N``, triangular in the split basis, and
    ``unitary`` is the change of basis ``Q`` (identity when the split
    happened in the given basis).  ``diagonal`` is ``S`` as a vector and
    ``strict`` is ``N``, strictly triangular, so its n-th power vanishes
    exactly; ``lower`` says which triangle holds ``R``.  Anything but a
    square, exactly lower or exactly upper ``triangle`` with a ``unitary`` of
    its shape raises ``ValueError``.
    """

    triangle: np.ndarray
    unitary: np.ndarray

    def __post_init__(self):
        r, q = self.triangle, self.unitary
        square = r.ndim == 2 and r.shape[0] == r.shape[1] and q.shape == r.shape
        if not square or min(scipy.linalg.bandwidth(r)) > 0:
            raise ValueError(f"need a square exact triangle and a unitary of its shape, got {r.shape}, {q.shape}")
        self.triangle.setflags(write=False)
        self.unitary.setflags(write=False)

    @property
    def lower(self) -> bool:
        """Whether ``triangle`` is lower triangular; a diagonal one is both."""
        return scipy.linalg.bandwidth(self.triangle)[1] == 0

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


def real_if_real(entries) -> np.ndarray:
    """``entries`` as a C-contiguous float64 copy when no entry has an
    imaginary part, else as a complex array: the same array when it is a
    complex128 one.

    A real array needs no copy and comes back as it is when it is already
    C-contiguous float64.
    """
    entries = np.asarray(entries)
    if np.iscomplexobj(entries):
        if np.any(entries.imag):
            return entries.astype(complex, copy=False)
        entries = entries.real
    return np.ascontiguousarray(entries, dtype=np.float64)


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
    the kernel, the difference of two cumulative integrals, which absorb the
    ``u -> 0`` log singularity analytically.  All ``n`` cumulative integrals
    come from one call of :func:`triangulab.specfun.e_beta_cumulative_array`:
    a fixed Gauss rule, Gauss-Jacobi on ``(0, 1)`` and Gauss-Legendre on the
    tail window ``[1, 64]``, with a cell falling back to the adaptive
    quadrature when the rule's two orders disagree beyond 1e-12, its value is
    not finite and positive, or the integrand at the window's end is not
    negligible.  The last cell, whose kernel peak in ``s`` lies nearest the
    window's end, is the anchor: it is checked against the adaptive
    :func:`triangulab.specfun.e_beta_cumulative` to 1e-10 relative, and a
    mismatch raises :class:`ConstructionError`.  Lower-triangular Toeplitz.
    """
    n, h = grid.n, grid.h
    edges = (np.arange(1, n + 1) - 0.5) * h
    try:
        cum = e_beta_cumulative_array(edges, spec)
        anchor = e_beta_cumulative(edges[-1], spec)
    except Exception as exc:
        raise ConstructionError(f"kernel cell quadrature failed: {exc}") from exc
    if not abs(cum[-1] - anchor) <= 1e-10 * anchor:
        raise ConstructionError(
            f"kernel cell rule gives {float(cum[-1])!r} at a = {float(edges[-1])!r}, "
            f"the adaptive quadrature {anchor!r}"
        )
    try:
        col = np.diff(cum, prepend=0.0) / math.gamma(spec.beta)
    except OverflowError as exc:
        raise ConstructionError(f"Gamma({spec.beta!r}) overflows a double") from exc
    if not np.all(np.isfinite(col)):
        raise ConstructionError("kernel cell integrals are not finite")
    return OperatorMatrix(grid, _toeplitz_lower(col.astype(complex)))


def build_difference_operator(grid: Grid, kernel: KernelSpec) -> OperatorMatrix:
    """Triangle of ``f -> d/dx integral_0^x s(x - t) f(t) dt``, ``s = kernel.s``.

    The cumulative convolution is discretized at the right cell edges with
    exact per-cell integrals of ``s`` (differences of
    ``kernel.s_antiderivative``), then differenced with a zero boundary
    value.  Differencing the cumulative rather than differentiating the
    kernel keeps severely singular ``s'`` out of the picture and reproduces
    ``s = 1`` as the identity and ``s(t) = t`` as the order-one integral
    exactly.
    """
    n, h = grid.n, grid.h
    g = np.diff(np.array([kernel.s_antiderivative(d * h) for d in range(n + 1)], dtype=complex))
    tau = np.empty(n, dtype=complex)
    tau[0] = g[0] / h
    tau[1:] = (g[1:] - g[:-1]) / h
    if not np.all(np.isfinite(tau)):
        raise ConstructionError("difference-kernel entries are not finite")
    return OperatorMatrix(grid, _toeplitz_lower(tau), kernel)


def build_imaginary_fractional(grid: Grid, alpha: float) -> OperatorMatrix:
    """Fractional integral of purely imaginary order ``i * alpha``.

    Difference-kernel build with the handles of
    :meth:`KernelSpec.fractional_imaginary`; ``alpha = 0`` reduces to the
    identity.
    """
    return build_difference_operator(grid, KernelSpec.fractional_imaginary(alpha))


def split_given_basis(t) -> SplitPair:
    """Split a triangular operator, or its entries, into diagonal plus strict triangle.

    Requires an exactly lower-triangular input (the constructors guarantee
    exact zero patterns); anything else raises ``ValueError`` and should go
    through :func:`split_schur`.  An :class:`OperatorMatrix`'s read-only
    entries become the triangle as they are; a raw matrix is copied, so the
    caller's array stays writable.
    """
    entries = t.entries if isinstance(t, OperatorMatrix) else np.array(t, dtype=complex)
    split = SplitPair(triangle=entries, unitary=np.eye(len(entries), dtype=complex))
    if not split.lower:
        raise ValueError("matrix is not lower triangular; use split_schur")
    return split


def _order_key(z: complex):
    return (z.real, z.imag)


def split_schur(t) -> SplitPair:
    """Unitary triangularization split ``Q* T Q = R = S + N`` of an operator or its entries.

    Computes a complex Schur form and orders its diagonal by ascending
    real part, ties by ascending imaginary part, with LAPACK's ``trexc``.
    Its rotations exchange the diagonal entries exactly, so the returned
    diagonal is the sorted diagonal of the Schur form and the split is
    deterministic.  ``R`` is upper triangular.

    The split is checked by ``sqrt(n) ||Q R Q* - T||_F <= 1e-10 ||T||_F``
    (``||T||_F`` floored at 1e-300); a larger residual raises
    :class:`NumericalError`.  Since ``||E||_2 <= ||E||_F`` and
    ``||T||_F <= sqrt(n) ||T||_2``, a split that passes also has a 2-norm
    residual of at most 1e-10 relative.
    """
    entries = as_entries(t)
    try:
        r, q = scipy.linalg.schur(entries, output="complex")
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"Schur factorization failed: {exc}") from exc
    # selection sort: move the smallest remaining entry to position i
    for i in range(r.shape[0] - 1):
        rest = r.diagonal()[i:].tolist()
        j = i + rest.index(min(rest, key=_order_key))
        if j > i:
            r, q, info = scipy.linalg.lapack.ztrexc(r, q, j + 1, i + 1, overwrite_a=1, overwrite_q=1)
            if info != 0:
                raise NumericalError(f"Schur reorder failed: ztrexc info {info}")
    scale = max(float(np.linalg.norm(entries)), 1e-300)
    residual = math.sqrt(r.shape[0]) * float(np.linalg.norm(q @ r @ q.conj().T - entries)) / scale
    if residual > 1e-10:
        raise NumericalError(f"Schur reconstruction residual {residual:g} exceeds 1e-10")
    return SplitPair(triangle=r, unitary=q)


def operator_norm(t) -> float:
    """Largest singular value, from the dense singular values.

    Entries with no imaginary part, and a raw real array, go to LAPACK as a
    real array (:func:`real_if_real`).  A product whose norm is taken here
    comes from :func:`matmul` (README, "Performance").  An infinite or NaN
    entry, which scipy's own finite check rejects, raises
    :class:`NumericalError`.
    """
    entries = t.entries if isinstance(t, OperatorMatrix) else t
    try:
        return float(scipy.linalg.svdvals(real_if_real(entries))[0])
    except ValueError as exc:
        raise NumericalError(f"operator norm of a non-finite matrix: {exc}") from exc


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for two matrices, by the ``gemm`` of scipy's BLAS.

    numpy and scipy each load their own OpenBLAS, each with a thread pool
    whose workers spin for a while after a call; a loop that feeds numpy
    products to a scipy LAPACK call keeps both pools busy on the same
    cores.  The bits are numpy's: ``gemm(1, b.T, a.T).T`` is the call
    numpy's row-major product makes, C-contiguous operands pass as Fortran
    views with no copy, and the result is C-contiguous.
    """
    gemm = scipy.linalg.get_blas_funcs("gemm", (a, b))
    return gemm(1.0, b.T, a.T).T


def save_matrix(t: OperatorMatrix, path) -> None:
    """Write ``omega`` as a float64 scalar, then the entries as a complex128
    matrix, both in numpy's ``.npy`` format, one after the other in one file.

    The format holds the raw bytes, so every entry reads back bit for bit:
    the sign of zero, NaN, infinities and subnormals included.
    """
    with open(path, "wb") as fh:
        np.save(fh, np.float64(t.grid.omega), allow_pickle=False)
        np.save(fh, np.asarray(t.entries, dtype=complex), allow_pickle=False)


def load_matrix(path) -> OperatorMatrix:
    """Read a file written by :func:`save_matrix`.

    Anything else raises ``ValueError``: an empty or truncated file, a file
    that is not two ``.npy`` arrays (text, a zip archive, pickled data), and
    arrays other than a float64 scalar and a square complex128 matrix.
    """
    with open(path, "rb") as fh:
        omega = np.lib.format.read_array(fh, allow_pickle=False)
        entries = np.lib.format.read_array(fh, allow_pickle=False)
    if omega.shape != () or omega.dtype != np.float64 or entries.ndim != 2 or entries.dtype != np.complex128:
        raise ValueError(
            f"expected a float64 scalar and a complex128 matrix, "
            f"got {omega.dtype} {omega.shape} and {entries.dtype} {entries.shape}"
        )
    return OperatorMatrix(make_grid(float(omega), entries.shape[0]), entries)
