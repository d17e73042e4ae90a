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

from .exceptions import QuadratureError

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
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if isinstance(self.c, complex):
            raise ValueError("damping constant c must be real")


def _log_integrand(s: float, beta: float, c: float, ln_x: float) -> float:
    """log of exp(-c s) s^(beta-1) x^(s-1) / Gamma(s) at s > 0."""
    return -c * s + (beta - 1.0) * math.log(s) + (s - 1.0) * ln_x - math.lgamma(s)


def _tail_cutoff(log_f, start: float) -> float:
    """Smallest power-of-two point beyond which the integrand is negligible."""
    peak = log_f(start)
    s = max(2.0 * start, 2.0)
    for _ in range(60):
        if log_f(s) < peak - 40.0:
            return s
        s *= 2.0
    raise QuadratureError("integrand tail did not decay; cannot truncate")


def _integrate_log_space(log_f, s_peak: float) -> float:
    """Integrate exp(log_f) over (0, inf), factoring out the peak value.

    The peak factorization keeps the quadrature in the representable range
    even when the raw integrand overflows or underflows double precision.
    The head (0, 1) is integrated in ``q`` with ``s = q**2``, which flattens
    an ``s^(b-1)`` end for ``b < 1``.
    """
    s_max = _tail_cutoff(log_f, max(s_peak, 1.0))
    shift = log_f(max(s_peak, 1e-12))

    def f_tail(s):
        return math.exp(log_f(s) - shift)

    def f_head(q):
        # s = q^2 on (0, 1); integrand picks up the Jacobian 2q.
        s = q * q
        return 2.0 * q * math.exp(log_f(s) - shift)

    head, head_err = integrate.quad(f_head, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200)
    tail, tail_err = integrate.quad(f_tail, 1.0, s_max, epsabs=0.0, epsrel=1e-11, limit=200)
    total = head + tail
    if total <= 0.0 or not math.isfinite(total):
        raise QuadratureError("kernel quadrature returned a non-positive value")
    if head_err + tail_err > 1e-8 * total:
        raise QuadratureError("kernel quadrature did not reach the accuracy contract")
    return math.exp(shift) * total


# Coarse scan grid of _peak_location, with its parameter-free terms.
_PEAK_GRID = np.geomspace(1e-6, 1e6, 481)
_PEAK_LN_GRID = np.log(_PEAK_GRID)
_PEAK_LGAMMA_GRID = special.gammaln(_PEAK_GRID)


def _peak_location(beta_eff: float, drift: float) -> float:
    """Coarse stationary point of beta_eff*ln(s) - s*drift - lgamma(s)."""
    with np.errstate(over="ignore"):
        vals = beta_eff * _PEAK_LN_GRID - drift * _PEAK_GRID - _PEAK_LGAMMA_GRID
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
    ln_x = math.log(x)

    def log_f(s):
        return _log_integrand(s, spec.beta, spec.c, ln_x)

    s_peak = _peak_location(spec.beta - 1.0, spec.c - ln_x + 1.0)
    return _integrate_log_space(log_f, s_peak)


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
    ln_a = math.log(a)
    beta = spec.beta
    c = spec.c

    def log_f(s):
        # exponent is a^s (not a^(s-1)): the u-integration contributes a^s / s
        return _log_integrand(s, beta - 1.0, c, ln_a) + ln_a

    return _integrate_log_space(log_f, _peak_location(beta - 2.0, c - ln_a + 1.0))


def m_moment(beta: float, spec: EbetaSpec, omega: float) -> float:
    """Moment ``(1/Gamma(beta)) * integral_0^omega e_beta``.

    ``beta`` is the kernel order (so powers ``m(n*beta)`` reuse one spec's
    damping constant); ``spec.c`` supplies the damping.  Always finite for
    ``beta > 0``; computed in log space so large orders neither overflow nor
    underflow.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    eff = EbetaSpec(beta=beta, c=spec.c)
    return e_beta_cumulative(omega, eff) / math.gamma(beta)


def stirling_gamma_check(nbeta: float) -> float:
    """Ratio of ``Gamma(nbeta + 1)`` to its Stirling approximation.

    Evaluated in log space to survive the overflow region; tends to 1 as
    ``nbeta`` grows, like ``1 + 1/(12 nbeta)``.
    """
    if not nbeta >= 1:
        raise ValueError(f"nbeta must be >= 1, got {nbeta}")
    log_stirling = 0.5 * math.log(2.0 * math.pi * nbeta) + nbeta * (math.log(nbeta) - 1.0)
    return math.exp(math.lgamma(nbeta + 1.0) - log_stirling)
