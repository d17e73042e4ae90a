"""Eigenvalue and singular-value analytics for operator matrices.

A seeded machine-noise eigenvalue probe, singular-value ideals
(trace-class style norms and the weighted ``sum s_n / (2n-1)`` norm),
spectral-set distances, a contour-quadrature functional calculus, and the
sigma-equality and spectral-mapping measurements that the experiments
compare with tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .exceptions import QuadratureError
from .operators import as_entries, split_schur

__all__ = [
    "MappingReport",
    "NOISE_EPS",
    "eigenvalues_with_machine_noise",
    "macaev_norm",
    "schatten_norm",
    "spectral_distance",
    "verify_sigma_equality",
    "riesz_calculus",
    "verify_spectral_mapping",
    "default_contour",
]


NOISE_EPS = 1e-12  # size of the probe's perturbation relative to the largest entry


def eigenvalues_with_machine_noise(t, seed: int) -> np.ndarray:
    """Eigenvalues of ``T + E`` for a seeded perturbation of relative size :data:`NOISE_EPS`.

    Exactly triangular matrices deflate to their diagonal in any dense
    eigensolver, which hides the pseudospectral set a backward-stable
    computation on a generic nearby matrix would expose.  This probe makes
    the backward error explicit, deterministic, and solver independent.
    """
    entries = as_entries(t)
    n = entries.shape[0]
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    scale = NOISE_EPS * float(np.max(np.abs(entries))) / float(np.max(np.abs(noise)))
    return np.linalg.eigvals(entries + scale * noise)


def schatten_norm(t, p: float) -> float:
    """p-th singular-value norm, ``(sum s_n^p)^(1/p)``; ``p = inf`` is the largest."""
    if not p >= 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    s_nums = scipy.linalg.svdvals(as_entries(t))
    if p == math.inf:
        return float(s_nums[0]) if s_nums.size else 0.0
    return float(np.sum(s_nums**p) ** (1.0 / p))


def macaev_norm(t) -> float:
    """Weighted singular-value norm ``sum_k s_k / (2k - 1)``."""
    s_nums = scipy.linalg.svdvals(as_entries(t))
    return float(np.sum(s_nums / (2.0 * np.arange(1, s_nums.size + 1) - 1.0)))


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


def verify_sigma_equality(t) -> float:
    """Measure how far the spectrum moves under the scalar-plus-nilpotent split.

    Compares the eigenvalue multiset of ``t`` with the diagonal of its
    ordered Schur form; in finite dimension the two agree exactly, so the
    distance is pure floating-point noise.
    """
    eigs = np.linalg.eigvals(as_entries(t))
    return spectral_distance(eigs, split_schur(t).diagonal)


def default_contour(eigs: np.ndarray) -> tuple:
    """``(center, radius)`` of the circle centered at the eigenvalue
    centroid, radius 1.5x the spread."""
    center = complex(np.mean(eigs))
    spread = float(np.max(np.abs(eigs - center))) if eigs.size else 0.0
    radius = 1.5 * spread if spread > 0 else max(1.0, 0.1 * (1 + abs(center)))
    return center, radius


_START_NODES = 256  # trapezoid nodes of the first contour evaluation
_MAX_NODES = 1 << 14  # most nodes of any evaluation


def riesz_calculus(t, f: Callable[[complex], complex]) -> np.ndarray:
    """Contour-quadrature functional calculus: the entries of ``f(T)``.

    Trapezoid rule over the circle of :func:`default_contour`, doubling the
    node count from 256 until the result moves by at most 1e-8 relative in
    operator norm; no evaluation uses more than ``2^14`` nodes, and a
    result still moving then raises :class:`QuadratureError`.  Every
    eigenvalue lies at least a third of the radius inside that circle, so
    the contour never meets the spectrum; ``f`` must be analytic on the
    closed disk it bounds.
    """
    entries = as_entries(t)
    n = entries.shape[0]
    center, radius = default_contour(np.linalg.eigvals(entries))
    eye = np.eye(n, dtype=complex)

    def evaluate(m: int) -> np.ndarray:
        acc = np.zeros((n, n), dtype=complex)
        theta = 2.0 * math.pi * np.arange(m) / m
        for th in theta:
            lam = center + radius * np.exp(1j * th)
            resolvent = scipy.linalg.solve(lam * eye - entries, eye)
            acc += f(lam) * resolvent * radius * np.exp(1j * th)
        # (1/2 pi i) contour integral, d lambda = i r e^{i theta} d theta
        return acc * (2.0 * math.pi / m) / (2.0 * math.pi)

    current = evaluate(_START_NODES)
    m = _START_NODES
    while 2 * m <= _MAX_NODES:
        m *= 2
        refined = evaluate(m)
        delta = float(np.linalg.norm(refined - current, 2))
        scale = max(float(np.linalg.norm(refined, 2)), 1.0)
        current = refined
        if delta <= 1e-8 * scale:
            return current
    raise QuadratureError("contour quadrature did not converge within the node budget")


@dataclass(frozen=True)
class MappingReport:
    distance: float
    vf_spectral_radius: float


def verify_spectral_mapping(t, f: Callable[[complex], complex]) -> MappingReport:
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
    ft = riesz_calculus(t, f)
    sigma_ft = np.linalg.eigvals(ft)
    f_sigma = np.asarray([f(z) for z in np.linalg.eigvals(entries)], dtype=complex)
    dist = spectral_distance(sigma_ft, f_sigma)
    split = split_schur(t)
    q = split.unitary
    f_diag = np.asarray([f(z) for z in split.diagonal], dtype=complex)
    ft_in_chain_basis = q.conj().T @ ft @ q
    rho_vf = float(np.max(np.abs(np.diag(ft_in_chain_basis) - f_diag)))
    return MappingReport(dist, rho_vf)
