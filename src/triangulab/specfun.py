"""Special functions behind the singular convolution kernels.

Provides the log-singular kernel family

    e_beta(x) = integral_0^inf exp(-C s) s^(beta-1) x^(s-1) / Gamma(s) ds,

its cumulative integrals, and the moment m(beta) = (1/Gamma(beta)) * integral
of e_beta over (0, omega).  The kernel blows up like
Gamma(beta+1) / (x |ln x|^(beta+1)) as x -> 0, which is what makes the
associated convolution operators bounded but heavily non-normal.

Both kernel functions reduce to one integral over ``s``, ``K(b, drift)``
(:func:`_kernel_integral`).  The pointwise ``e_beta``, ``e_beta_cumulative``
and ``m_moment`` integrate it adaptively, one ``quad`` pair per value.
:func:`e_beta_cumulative_array` evaluates many upper limits at once with one
fixed Gauss rule (Golub & Welsch, Math. Comp. 23, 1969): Gauss-Jacobi with
weight ``s^(beta-1)`` on the head ``(0, 1)``, Gauss-Legendre on the
geometric panels ``[2^k, 2^(k+1)]`` that tile the tail window ``[1, 64]``.
A value goes to the adaptive path when it is not finite and positive, when
two orders of the rule disagree beyond 1e-12 relative, or when the
integrand at the end of the window exceeds 1e-16 of the value (a peak in
``s`` near or past 64, as for a large ``a`` with a negative damping ``c``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, linalg, special

from .exceptions import NumericalError, QuadratureError

__all__ = [
    "EbetaSpec",
    "e_beta",
    "e_beta_cumulative",
    "e_beta_cumulative_array",
    "m_moment",
]


@dataclass(frozen=True)
class EbetaSpec:
    """Parameters of the log-singular kernel family: order ``beta``, damping ``c``."""

    beta: float
    c: float = 0.0

    def __post_init__(self):
        if np.iscomplexobj(self.beta) or not math.isfinite(self.beta) or not self.beta > 0:
            raise ValueError(f"beta must be a positive finite real number, got {self.beta!r}")
        if np.iscomplexobj(self.c) or not math.isfinite(self.c):
            raise ValueError(f"damping constant c must be a finite real number, got {self.c!r}")


def _tail_cutoff(log_f, start: float) -> float:
    """Smallest power-of-two point beyond which the integrand is negligible."""
    peak = log_f(start)
    s = max(2.0 * start, 2.0)
    for _ in range(60):
        if log_f(s) < peak - 40.0:
            return s
        s *= 2.0
    raise QuadratureError("integrand tail did not decay; cannot truncate")


def _kernel_integral(b: float, drift: float) -> float:
    """``K(b, drift) = integral_0^inf s^b exp(-drift s) / Gamma(s) ds``.

    The one integral behind both kernel functions:
    ``e_beta(x) = K(beta - 1, c - ln x) / x`` and
    ``e_beta_cumulative(a) = K(beta - 2, c - ln a)``.  Factoring out the
    integrand's value at its coarse peak keeps the quadrature in range when
    the raw integrand overflows or underflows a double.  The integrand
    behaves like ``s^(b+1)`` as ``s -> 0``; the head (0, 1) is integrated
    in ``q`` with ``s = q**2``, which flattens that end for ``b < 0``.
    The fallback of :func:`e_beta_cumulative_array`, and its oracle.
    """

    def log_f(s):
        return b * math.log(s) - drift * s - math.lgamma(s)

    s_peak = _peak_location(b, drift)
    s_max = _tail_cutoff(log_f, max(s_peak, 1.0))
    shift = log_f(max(s_peak, 1e-12))

    def f_tail(s):
        return math.exp(log_f(s) - shift)

    def f_head(q):
        # s = q^2 on (0, 1); integrand picks up the Jacobian 2q.
        s = q * q
        return 2.0 * q * math.exp(log_f(s) - shift)

    try:
        head, head_err = integrate.quad(f_head, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200)
        tail, tail_err = integrate.quad(f_tail, 1.0, s_max, epsabs=0.0, epsrel=1e-11, limit=200)
        total = head + tail
        if total <= 0.0 or not math.isfinite(total):
            raise QuadratureError("kernel quadrature returned a non-positive value")
        if head_err + tail_err > 1e-8 * total:
            raise QuadratureError("kernel quadrature did not reach the accuracy contract")
        value = math.exp(shift) * total
    except OverflowError as exc:
        raise QuadratureError("kernel quadrature overflows a double") from exc
    if not math.isfinite(value):
        raise QuadratureError("kernel quadrature overflows a double")
    return value


# Coarse scan grid of _peak_location, with its parameter-free terms.
_PEAK_GRID = np.geomspace(1e-6, 1e6, 481)
_PEAK_LN_GRID = np.log(_PEAK_GRID)
_PEAK_LGAMMA_GRID = special.gammaln(_PEAK_GRID)


def _peak_location(b: float, drift: float) -> float:
    """Coarse stationary point of b*ln(s) - s*drift - lgamma(s)."""
    with np.errstate(over="ignore"):
        vals = b * _PEAK_LN_GRID - drift * _PEAK_GRID - _PEAK_LGAMMA_GRID
    return float(_PEAK_GRID[int(np.argmax(vals))])


def e_beta(x: float, spec: EbetaSpec) -> float:
    """Evaluate the log-singular kernel at ``x > 0``.

    Integrates ``exp(-c s) s^(beta-1) x^(s-1) / Gamma(s)`` over ``s`` in
    (0, inf) with the peak factored out; relative error <= 1e-8.  The result
    is strictly positive and behaves like
    ``Gamma(beta+1) / (x |ln x|^(beta+1))`` for small ``x``.
    """
    if not x > 0:
        raise ValueError(f"kernel argument must be positive, got {x}")
    value = _kernel_integral(spec.beta - 1.0, spec.c - math.log(x)) / x
    if not math.isfinite(value):
        raise QuadratureError("kernel quadrature overflows a double")
    return value


def e_beta_cumulative(a: float, spec: EbetaSpec) -> float:
    """Cumulative integral of the kernel, ``integral_0^a e_beta(u) du``.

    Uses the exact interchange of the ``u`` and ``s`` integrations, which
    removes the ``u -> 0`` singularity entirely:

        integral_0^a e_beta = integral_0^inf exp(-c s) s^(beta-2) a^s / Gamma(s) ds.

    The s -> 0 end behaves like ``s^(beta-1)``, which the ``s = q**2`` head
    of the quadrature flattens for ``beta < 1``.
    """
    if not a > 0:
        raise ValueError(f"upper limit must be positive, got {a}")
    return _kernel_integral(spec.beta - 2.0, spec.c - math.log(a))


# Tail window of the fixed rule, tiled by the panels [2^k, 2^(k+1)].
_RULE_TAIL_END = 64.0
# (head nodes, nodes per tail panel): the error estimate, then the value.
_RULE_ORDERS = ((16, 12), (24, 16))
# An integrand below this fraction of the value at the window's end is negligible.
_RULE_EDGE = 1e-16


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


# Cached: every e_beta operator build takes both orders of both rules.
@functools.lru_cache(maxsize=64)
def _gauss_jacobi_head(beta: float, n: int):
    """Nodes and weights of ``integral_0^1 s^(beta-1) f(s) ds``, by Golub-Welsch.

    The symmetric Jacobi matrix of the shifted Jacobi polynomials has the
    nodes as eigenvalues; each weight is ``1/beta`` times the squared first
    component of its eigenvector.  Cached; the arrays are read-only.
    """
    k = np.arange(1, n, dtype=float)
    # written in beta, not beta - 1, so a tiny beta loses no digits
    diag = np.empty(n)
    diag[0] = beta / (beta + 1.0)
    diag[1:] = 0.5 + 0.5 * (beta - 1.0) ** 2 / ((2.0 * k + beta - 1.0) * (2.0 * k + beta + 1.0))
    m = k - 1.0
    off = k * (m + beta) / ((2.0 * k + beta - 1.0) * np.sqrt((2.0 * k + beta) * (2.0 * m + beta)))
    nodes, vectors = linalg.eigh_tridiagonal(diag, off)
    return _read_only(nodes, vectors[0] ** 2 / beta)


@functools.lru_cache(maxsize=16)
def _gauss_legendre_tail(n: int, end: float):
    """Nodes and weights of ``n``-point Gauss-Legendre on each panel
    ``[2^k, 2^(k+1)]`` of the window ``[1, end]``.  Cached; the arrays are
    read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    edges = np.geomspace(1.0, end, round(math.log2(end)) + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    return _read_only((0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel(), (0.5 * (hi - lo) * w).ravel())


def _rule_integral(beta: float, drift: np.ndarray, head_n: int, tail_n: int) -> np.ndarray:
    """``K(beta - 2, drift)`` for each drift by the fixed rule of the given orders.

    On the head the weight ``s^(beta-1)`` is in the Gauss-Jacobi weights and
    the smooth factor is ``exp(-drift s) / Gamma(s + 1)``; on the tail the
    integrand is ``s^(beta-2) exp(-drift s) / Gamma(s)``.  Each value is
    summed in log space, shifted by its largest term.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value falls back
        s_head, w_head = _gauss_jacobi_head(beta, head_n)
        s_tail, w_tail = _gauss_legendre_tail(tail_n, _RULE_TAIL_END)
        nodes = np.concatenate([s_head, s_tail])
        weights = np.concatenate([w_head, w_tail])
        base = np.concatenate(
            [-special.gammaln(s_head + 1.0), (beta - 2.0) * np.log(s_tail) - special.gammaln(s_tail)]
        )
        logs = base - drift[:, None] * nodes
        shift = logs.max(axis=1)
        return np.exp(shift) * (np.exp(logs - shift[:, None]) * weights).sum(axis=1)


def e_beta_cumulative_array(a, spec: EbetaSpec) -> np.ndarray:
    """:func:`e_beta_cumulative` at every upper limit in the 1-D array ``a``.

    One fixed Gauss rule evaluates all limits as one array expression; the
    module docstring states the rule and when a value falls back to the
    adaptive quadrature.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(a > 0):
        raise ValueError("upper limits must be positive")
    b = spec.beta - 2.0
    drift = spec.c - np.log(a)
    coarse, value = (_rule_integral(spec.beta, drift, *orders) for orders in _RULE_ORDERS)
    end = _RULE_TAIL_END
    log_edge = b * math.log(end) - drift * end - math.lgamma(end)
    with np.errstate(divide="ignore", invalid="ignore"):
        accepted = (
            np.isfinite(value)
            & (value > 0.0)
            & (np.abs(value - coarse) <= 1e-12 * value)
            & (log_edge <= np.log(value) + math.log(_RULE_EDGE))
        )
    for i in np.flatnonzero(~accepted):
        value[i] = _kernel_integral(b, float(drift[i]))
    return value


def m_moment(spec: EbetaSpec, omega: float) -> float:
    """Moment ``(1/Gamma(beta)) * integral_0^omega e_beta`` of the kernel ``spec``.

    The integral is computed in log space; a result that overflows a double
    raises :class:`QuadratureError`, and an order whose ``Gamma(beta)``
    overflows raises :class:`NumericalError`.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    try:
        gamma_beta = math.gamma(spec.beta)
    except OverflowError as exc:
        raise NumericalError(f"Gamma({spec.beta!r}) overflows a double") from exc
    return e_beta_cumulative(omega, spec) / gamma_beta
