"""Eigenvalue and singular-value analytics for operator matrices.

Spectra, quasinilpotency verdicts, singular-value ideals (trace-class style
norms and the weighted ``sum s_n / (2n-1)`` norm), spectral-set distances,
a contour-quadrature functional calculus, and the spectral-mapping checks
built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .exceptions import NumericalError, QuadratureError
from .operators import OperatorMatrix, SplitPair, as_entries, split_schur, wrap_matrix

__all__ = [
    "SpectralReport",
    "SigmaEqualityReport",
    "MappingReport",
    "spectrum",
    "eigenvalues_with_machine_noise",
    "macaev_norm",
    "schatten_norm",
    "spectral_distance",
    "verify_sigma_equality",
    "riesz_calculus",
    "verify_spectral_mapping",
    "default_contour",
    "report_to_text",
]


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues, s-numbers, ideal norms, and the quasinilpotency verdict."""

    eigenvalues: np.ndarray
    spectral_radius: float
    s_numbers: np.ndarray
    schatten: dict
    macaev_omega: float
    quasinilpotent: bool
    tol_q: float

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.s_numbers.setflags(write=False)


def spectrum(
    t,
    tol_q: Optional[float] = None,
    schatten_p: Sequence[float] = (1.0, 2.0, 4.0),
) -> SpectralReport:
    """Full dense spectral report.

    ``tol_q`` is the quasinilpotency threshold on the spectral radius; it
    defaults to ``10 / n`` because spectral radii of refined triangular
    discretizations decay like a constant over ``n``, so a fixed finite
    matrix can only evidence, not prove, a concentrated spectrum.  The
    verdict is always reported together with the tolerance used.
    """
    entries = as_entries(t)
    n = entries.shape[0]
    if tol_q is None:
        tol_q = 10.0 / n
    try:
        eigs = np.linalg.eigvals(entries)
        s_nums = scipy.linalg.svdvals(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc
    radius = float(np.max(np.abs(eigs))) if n else 0.0
    schatten = {float(p): _schatten_from_s(s_nums, p) for p in schatten_p}
    macaev = _macaev_from_s(s_nums)
    return SpectralReport(
        eigenvalues=eigs,
        spectral_radius=radius,
        s_numbers=s_nums,
        schatten=schatten,
        macaev_omega=macaev,
        quasinilpotent=bool(radius <= tol_q),
        tol_q=float(tol_q),
    )


def eigenvalues_with_machine_noise(t, eps: float = 1e-12, seed: int = 2024) -> np.ndarray:
    """Eigenvalues of ``T + E`` for a seeded perturbation of relative size ``eps``.

    Exactly triangular matrices deflate to their diagonal in any dense
    eigensolver, which hides the pseudospectral set a backward-stable
    computation on a generic nearby matrix would expose.  This probe makes
    the backward error explicit, deterministic, and solver independent.
    """
    entries = as_entries(t)
    n = entries.shape[0]
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    scale = eps * float(np.max(np.abs(entries))) / float(np.max(np.abs(noise)))
    return np.linalg.eigvals(entries + scale * noise)


def _schatten_from_s(s_nums: np.ndarray, p: float) -> float:
    if p == math.inf:
        return float(s_nums[0]) if s_nums.size else 0.0
    if not p >= 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    return float(np.sum(s_nums**p) ** (1.0 / p))


def _macaev_from_s(s_nums: np.ndarray) -> float:
    return float(np.sum(s_nums / (2.0 * np.arange(1, s_nums.size + 1) - 1.0)))


def schatten_norm(t, p: float) -> float:
    """p-th singular-value norm, ``(sum s_n^p)^(1/p)``."""
    return _schatten_from_s(scipy.linalg.svdvals(as_entries(t)), p)


def macaev_norm(t) -> float:
    """Weighted singular-value norm ``sum_k s_k / (2k - 1)``."""
    return _macaev_from_s(scipy.linalg.svdvals(as_entries(t)))


def spectral_distance(a: Iterable[complex], b: Iterable[complex]) -> float:
    """Multiset distance between two equal-size spectra.

    Minimum-cost perfect matching on pairwise moduli, reported as the
    largest matched distance, so multiplicity mismatches register instead
    of hiding behind a plain set Hausdorff distance.
    """
    a = np.asarray(list(a), dtype=complex)
    b = np.asarray(list(b), dtype=complex)
    if a.shape != b.shape:
        raise ValueError("spectral_distance compares equally sized multisets")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


@dataclass(frozen=True)
class SigmaEqualityReport:
    distance: float
    tolerance: float
    passed: bool
    split: SplitPair


def verify_sigma_equality(t, tolerance: float = 1e-8) -> SigmaEqualityReport:
    """Check that the spectrum survives the scalar-plus-nilpotent split.

    Compares the eigenvalue multiset of ``t`` with the diagonal of its
    ordered Schur form; in finite dimension the two agree exactly, so the
    distance is pure floating-point noise.
    """
    split = split_schur(t)
    eigs = np.linalg.eigvals(as_entries(t))
    dist = spectral_distance(eigs, split.diagonal)
    return SigmaEqualityReport(dist, tolerance, bool(dist <= tolerance), split)


def default_contour(eigs: np.ndarray, radius_factor: float = 1.5) -> list:
    """One circle centered at the eigenvalue centroid, radius 1.5x the spread."""
    center = complex(np.mean(eigs))
    spread = float(np.max(np.abs(eigs - center))) if eigs.size else 0.0
    radius = radius_factor * spread if spread > 0 else max(1.0, 0.1 * (1 + abs(center)))
    return [(center, radius)]


def riesz_calculus(
    t,
    f: Callable[[complex], complex],
    contour: Optional[list] = None,
    rtol: float = 1e-8,
    start_nodes: int = 256,
    max_nodes: int = 1 << 14,
) -> OperatorMatrix:
    """Contour-quadrature functional calculus ``f(T)``.

    Trapezoid rule over the given circles (center, radius), doubling the
    node count from ``start_nodes`` until the result moves by less than
    ``rtol`` in operator norm; no evaluation uses more than ``max_nodes``
    nodes per circle.  The contour must stay clear of the spectrum and ``f``
    must be analytic inside and on it; closeness to an eigenvalue raises
    early instead of silently blowing up the quadrature.
    """
    if not 1 <= start_nodes <= max_nodes:
        raise ValueError(f"need 1 <= start_nodes <= max_nodes, got {start_nodes}, {max_nodes}")
    entries = as_entries(t)
    grid_holder = t if isinstance(t, OperatorMatrix) else wrap_matrix(entries)
    n = entries.shape[0]
    eigs = np.linalg.eigvals(entries)
    if contour is None:
        contour = default_contour(eigs)
    for center, radius in contour:
        gap = np.min(np.abs(np.abs(eigs - center) - radius))
        if gap < 1e-6 * radius:
            raise NumericalError(
                f"contour circle ({center}, {radius:g}) passes within {gap:g} of the spectrum"
            )
    eye = np.eye(n, dtype=complex)

    def evaluate(m: int) -> np.ndarray:
        acc = np.zeros((n, n), dtype=complex)
        for center, radius in contour:
            theta = 2.0 * math.pi * np.arange(m) / m
            for th in theta:
                lam = center + radius * np.exp(1j * th)
                resolvent = scipy.linalg.solve(lam * eye - entries, eye)
                acc += f(lam) * resolvent * radius * np.exp(1j * th)
        # (1/2 pi i) contour integral, d lambda = i r e^{i theta} d theta
        return acc * (2.0 * math.pi / m) / (2.0 * math.pi)

    current = evaluate(start_nodes)
    m = start_nodes
    while 2 * m <= max_nodes:
        m *= 2
        refined = evaluate(m)
        delta = float(np.linalg.norm(refined - current, 2))
        scale = max(float(np.linalg.norm(refined, 2)), 1.0)
        current = refined
        if delta <= rtol * scale:
            return OperatorMatrix(grid_holder.grid, current, "riesz")
    raise QuadratureError("contour quadrature did not converge within the node budget")


@dataclass(frozen=True)
class MappingReport:
    distance: float
    vf_spectral_radius: float
    tolerance: float
    passed: bool


def verify_spectral_mapping(
    t,
    f: Callable[[complex], complex],
    contour: Optional[list] = None,
    tolerance: float = 1e-6,
) -> MappingReport:
    """Compare ``sigma(f(T))`` with ``f(sigma(T))`` and probe ``f(T) - f(S)``.

    The image spectrum comes from the contour calculus; ``f(S)`` is the same
    function applied to the ordered Schur diagonal, conjugated back.  The
    difference ``V_f`` is nilpotent in exact arithmetic, so its spectral
    radius is read off its diagonal in the shared triangularizing basis:
    the basis that triangularizes ``T`` triangularizes ``f(T)``, ``f(S)``
    and their difference simultaneously.  Running a dense eigensolver on
    the computed ``V_f`` instead would amplify quadrature noise like
    ``eps^(1/n)`` and report pure pseudospectral artifacts.
    """
    entries = as_entries(t)
    ft = riesz_calculus(t, f, contour=contour)
    sigma_ft = np.linalg.eigvals(ft.entries)
    f_sigma = np.asarray([f(z) for z in np.linalg.eigvals(entries)], dtype=complex)
    dist = spectral_distance(sigma_ft, f_sigma)
    split = split_schur(t)
    q = split.unitary
    f_diag = np.asarray([f(z) for z in split.diagonal], dtype=complex)
    ft_in_chain_basis = q.conj().T @ ft.entries @ q
    rho_vf = float(np.max(np.abs(np.diag(ft_in_chain_basis) - f_diag)))
    return MappingReport(
        distance=dist,
        vf_spectral_radius=rho_vf,
        tolerance=tolerance,
        passed=bool(dist <= tolerance),
    )


def report_to_text(report: SpectralReport) -> str:
    """Flat key/value serialization of a spectral report.

    One ``key value`` pair per line: scalar fields first, then ``schatten_p<p>``
    entries, then indexed ``s_number_<k>`` and ``eigenvalue_<k>_re/im`` lines.
    """
    lines = [
        f"spectral_radius {float(report.spectral_radius)!r}",
        f"macaev_omega {float(report.macaev_omega)!r}",
        f"quasinilpotent {int(report.quasinilpotent)}",
        f"tol_q {float(report.tol_q)!r}",
    ]
    for p in sorted(report.schatten):
        lines.append(f"schatten_p{p:g} {float(report.schatten[p])!r}")
    for k, s in enumerate(report.s_numbers):
        lines.append(f"s_number_{k} {float(s)!r}")
    for k, z in enumerate(report.eigenvalues):
        lines.append(f"eigenvalue_{k}_re {float(z.real)!r}")
        lines.append(f"eigenvalue_{k}_im {float(z.imag)!r}")
    return "\n".join(lines) + "\n"
