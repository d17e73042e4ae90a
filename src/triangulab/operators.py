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
from .grid import Grid, GridFunction
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
    "build_operator",
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
]


@dataclass(frozen=True)
class KernelSpec:
    """Descriptor of a closed-form kernel family.

    Exactly one kind is populated; the classmethods are the only supported
    constructors.  ``phi`` is the bounded real multiplication symbol, ``v``
    a Volterra kernel on ``0 <= t <= x <= omega``, ``s`` a difference kernel
    on ``(0, omega)`` with its antiderivative ``s_antiderivative`` (vanishing
    at 0); ``beta``, ``c`` and ``alpha`` parametrize the fractional,
    log-singular and imaginary-order families.  The imaginary-order kind
    carries its difference-kernel handles too.
    """

    kind: str
    phi: Optional[Callable] = None
    v: Optional[Callable] = None
    s: Optional[Callable] = None
    s_antiderivative: Optional[Callable] = None
    beta: Optional[float] = None
    c: Optional[float] = None
    alpha: Optional[float] = None

    @classmethod
    def multiplication(cls, phi: Callable) -> "KernelSpec":
        return cls(kind="multiplication", phi=phi)

    @classmethod
    def volterra(cls, v: Callable) -> "KernelSpec":
        return cls(kind="volterra", v=v)

    @classmethod
    def fractional(cls, beta: float) -> "KernelSpec":
        if not beta > 0:
            raise ValueError(f"fractional order must be positive, got {beta}")
        return cls(kind="fractional", beta=beta)

    @classmethod
    def ebeta(cls, beta: float, c: float = 0.0) -> "KernelSpec":
        if not beta > 0:
            raise ValueError(f"kernel order must be positive, got {beta}")
        return cls(kind="ebeta", beta=beta, c=c)

    @classmethod
    def difference(cls, s: Callable, s_antiderivative: Optional[Callable] = None) -> "KernelSpec":
        return cls(kind="difference", s=s, s_antiderivative=s_antiderivative)

    @classmethod
    def fractional_imaginary(cls, alpha: float) -> "KernelSpec":
        """``s(t) = t^(i alpha) / Gamma(1 + i alpha)`` and its exact
        antiderivative ``u^(1 + i alpha) / Gamma(2 + i alpha)``; ``alpha = 0``
        is the identity kernel ``s = 1``."""
        if alpha != float(alpha).real:
            raise ValueError("alpha must be real")
        if alpha == 0.0:
            s, s_anti = _DIFFERENCE_PRESETS["one"]
        else:
            g1 = gamma_complex(1.0 + 1j * alpha)
            g2 = gamma_complex(2.0 + 1j * alpha)

            def s(t: float) -> complex:
                return cmath.exp(1j * alpha * math.log(t)) / g1

            def s_anti(u: float) -> complex:
                if u == 0.0:
                    return 0.0 + 0.0j
                return u * cmath.exp(1j * alpha * math.log(u)) / g2

        return cls(kind="fractional_imaginary", alpha=alpha, s=s, s_antiderivative=s_anti)

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
        return cls.difference(*_DIFFERENCE_PRESETS[name])


# name -> (s, antiderivative of s vanishing at 0)
_DIFFERENCE_PRESETS = {
    "one": (lambda t: 1.0 + 0.0j, lambda u: complex(u)),
    "linear": (lambda t: complex(t), lambda u: complex(0.5 * u * u)),
    "inv_sqrt": (lambda t: complex(t) ** -0.5, lambda u: complex(2.0 * math.sqrt(u))),
}
KERNEL_PRESETS = tuple(_DIFFERENCE_PRESETS) + ("imaginary_power",)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix tagged with its grid and provenance."""

    grid: Grid
    entries: np.ndarray
    provenance: object

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

    ``s_part`` is diagonal, ``n_part`` strictly triangular in the split
    basis (so its n-th power vanishes exactly), and ``unitary`` is the
    change of basis (identity when the split happened in the given basis).
    """

    s_part: OperatorMatrix
    n_part: OperatorMatrix
    unitary: np.ndarray

    def __post_init__(self):
        self.unitary.setflags(write=False)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.s_part.entries)


def as_entries(t) -> np.ndarray:
    """Entries of an :class:`OperatorMatrix`, or a raw matrix as a complex array."""
    if isinstance(t, OperatorMatrix):
        return t.entries
    return np.asarray(t, dtype=complex)


def wrap_matrix(entries: np.ndarray, omega: float = 1.0, provenance: object = "custom") -> OperatorMatrix:
    """Wrap a raw square matrix with a synthetic grid of matching size."""
    entries = np.array(entries, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    from .grid import make_grid

    return OperatorMatrix(make_grid(omega, entries.shape[0]), entries, provenance)


def build_multiplication(grid: Grid, phi: Callable) -> OperatorMatrix:
    """Diagonal matrix with entries ``phi(x_k)``; ``phi`` must be real valued."""
    values = np.asarray([phi(x) for x in grid.nodes])
    if np.iscomplexobj(values) and np.max(np.abs(values.imag)) > 0:
        raise ValueError("multiplication symbol must be real valued")
    entries = np.diag(values.real.astype(float)).astype(complex)
    return OperatorMatrix(grid, entries, KernelSpec.multiplication(phi))


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
    return OperatorMatrix(grid, entries, KernelSpec.volterra(v))


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
    if not beta > 0:
        raise ValueError(f"fractional order must be positive, got {beta}")
    n, h = grid.n, grid.h
    d = np.arange(n, dtype=float)
    scale = h**beta / math.gamma(beta + 1.0)
    col = np.empty(n, dtype=complex)
    col[0] = 0.5**beta * scale
    col[1:] = ((d[1:] + 0.5) ** beta - (d[1:] - 0.5) ** beta) * scale
    return OperatorMatrix(grid, _toeplitz_lower(col), KernelSpec.fractional(beta))


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
    col = np.diff(cum) / math.gamma(spec.beta)
    if not np.all(np.isfinite(col)):
        raise ConstructionError("kernel cell integrals are not finite")
    return OperatorMatrix(
        grid, _toeplitz_lower(col.astype(complex)), KernelSpec.ebeta(spec.beta, spec.c)
    )


def _cell_integrals(s: Callable, antiderivative: Optional[Callable], h: float, n: int) -> np.ndarray:
    """Integrals of ``s`` over the cells ``[d h, (d+1) h]``, ``d = 0..n-1``."""
    if antiderivative is not None:
        pts = np.array([antiderivative(d * h) for d in range(n + 1)], dtype=complex)
        pts[0] = antiderivative(0.0) if h > 0 else 0.0
        return np.diff(pts)
    from scipy.integrate import quad

    out = np.empty(n, dtype=complex)
    for d in range(n):
        a, b = d * h, (d + 1) * h
        re, re_err = quad(lambda u: np.real(s(u)), a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
        im, im_err = quad(lambda u: np.imag(s(u)), a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ConstructionError(f"difference-kernel cell integral diverged on [{a:g}, {b:g}]")
        out[d] = re + 1j * im
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
    return OperatorMatrix(grid, _toeplitz_lower(tau), KernelSpec.difference(s, antiderivative))


def build_imaginary_fractional(grid: Grid, alpha: float) -> OperatorMatrix:
    """Fractional integral of purely imaginary order ``i * alpha``.

    Difference-kernel build with the handles of
    :meth:`KernelSpec.fractional_imaginary`; ``alpha = 0`` reduces to the
    identity.
    """
    return build_operator(grid, KernelSpec.fractional_imaginary(alpha))


def build_operator(grid: Grid, spec: KernelSpec) -> OperatorMatrix:
    """Dispatch a :class:`KernelSpec` to the matching constructor."""
    if spec.kind == "multiplication":
        return build_multiplication(grid, spec.phi)
    if spec.kind == "volterra":
        return build_volterra(grid, spec.v)
    if spec.kind == "fractional":
        return build_fractional(grid, spec.beta)
    if spec.kind == "ebeta":
        return build_ebeta_operator(grid, EbetaSpec(spec.beta, spec.c or 0.0))
    if spec.kind in ("difference", "fractional_imaginary"):
        op = build_difference_operator(grid, spec.s, spec.s_antiderivative)
        return OperatorMatrix(grid, op.entries, spec)
    raise ValueError(f"unknown kernel kind {spec.kind!r}")


def split_given_basis(t: OperatorMatrix) -> SplitPair:
    """Split a triangular matrix into diagonal plus strict triangle in place.

    Requires an exactly lower-triangular input (the constructors guarantee
    exact zero patterns); anything else should go through
    :func:`split_schur`.
    """
    entries = t.entries
    if np.any(np.triu(entries, 1) != 0):
        raise ValueError("matrix is not lower triangular; use split_schur")
    s_part = np.diag(np.diag(entries))
    n_part = entries - s_part
    return SplitPair(
        s_part=OperatorMatrix(t.grid, s_part, "split:diagonal"),
        n_part=OperatorMatrix(t.grid, n_part, "split:strict"),
        unitary=np.eye(t.n, dtype=complex),
    )


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
    so the returned split is deterministic.  ``s_part`` is the diagonal of
    ``R``, ``n_part`` the strictly upper part.
    """
    entries = as_entries(t)
    if not isinstance(t, OperatorMatrix):
        t = wrap_matrix(entries)
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
    s_part = np.diag(np.diag(r))
    n_part = r - s_part
    scale = max(float(np.linalg.norm(entries, 2)), 1e-300)
    residual = float(np.linalg.norm(q @ r @ q.conj().T - entries, 2)) / scale
    if residual > 1e-10:
        raise NumericalError(f"Schur reconstruction residual {residual:g} exceeds 1e-10")
    return SplitPair(
        s_part=OperatorMatrix(t.grid, s_part, "schur:diagonal"),
        n_part=OperatorMatrix(t.grid, n_part, "schur:strict"),
        unitary=q,
    )


def chain_projection(grid: Grid, t_param: float) -> OperatorMatrix:
    """Chain projection selecting the trailing nodes ``x_k > omega - t_param``.

    ``t_param = 0`` gives the zero matrix, ``t_param = omega`` the identity,
    and consecutive cell-width steps change the rank by exactly one.
    """
    if not 0.0 <= t_param <= grid.omega + 1e-12 * grid.omega:
        raise ValueError(f"chain parameter must lie in [0, omega], got {t_param}")
    mask = grid.nodes > grid.omega - t_param
    entries = np.diag(mask.astype(float)).astype(complex)
    return OperatorMatrix(grid, entries, f"chain:{t_param:g}")


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
    return OperatorMatrix(a.grid, a.entries @ b.entries, "product")


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
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError("matrix file is truncated")
    rows, cols, omega = int(tokens[0]), int(tokens[1]), float(tokens[2])
    data = np.asarray([float(tok) for tok in tokens[3:]])
    if data.size != 2 * rows * cols:
        raise ValueError(
            f"expected {2 * rows * cols} numbers for a {rows}x{cols} matrix, got {data.size}"
        )
    entries = data[0::2] + 1j * data[1::2]
    from .grid import make_grid

    return OperatorMatrix(make_grid(omega, rows), entries.reshape(rows, cols), "loaded")
