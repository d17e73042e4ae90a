"""Special functions behind the singular convolution kernels.

Provides the complex gamma function, the log-singular kernel family

    e_beta(x) = integral_0^inf exp(-C s) s^(beta-1) x^(s-1) / Gamma(s) ds,

its cumulative integrals, the moment m(beta) = (1/Gamma(beta)) * integral of
e_beta over (0, omega), and a Stirling-ratio diagnostic.  The kernel blows up
like Gamma(beta+1) / (x |ln x|^(beta+1)) as x -> 0, which is what makes the
associated convolution operators bounded but heavily non-normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .exceptions import NumericalError, QuadratureError

__all__ = [
    "EbetaSpec",
    "gamma_complex",
    "e_beta",
    "e_beta_cumulative",
    "m_moment",
    "stirling_gamma_check",
]


def _is_nonpositive_integer(z: complex) -> bool:
    if z.imag != 0.0:
        return False
    r = z.real
    return r <= 0.0 and r == math.floor(r)


def gamma_complex(z: complex) -> complex:
    """Euler gamma function on the complex plane (``scipy.special.gamma``).

    Parameters
    ----------
    z : complex
        Argument; must not be a non-positive integer.

    Returns
    -------
    complex
        ``Gamma(z)`` with relative error below 1e-12 for ``|z| <= 50``,
        including points a tiny imaginary distance from a pole.

    Raises
    ------
    ValueError
        At the poles ``z = 0, -1, -2, ...``.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise ValueError(f"gamma pole at z = {z}")
    return complex(special.gamma(z))


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


def stirling_gamma_check(nbeta: float) -> float:
    """Ratio of ``Gamma(nbeta + 1)`` to its Stirling approximation.

    Evaluated in log space to survive the overflow region; tends to 1 as
    ``nbeta`` grows, like ``1 + 1/(12 nbeta)``.
    """
    if not nbeta >= 1:
        raise ValueError(f"nbeta must be >= 1, got {nbeta}")
    log_stirling = 0.5 * math.log(2.0 * math.pi * nbeta) + nbeta * (math.log(nbeta) - 1.0)
    return math.exp(math.lgamma(nbeta + 1.0) - log_stirling)
