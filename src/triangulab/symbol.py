"""Oscillatory transforms and limit-set analysis of difference kernels.

For a kernel ``s`` on (0, omega) the two finite Fourier-type transforms

    s_tilde1(xi) = integral_0^omega exp(i t xi) s(t) (1 - t/omega) dt
    s_tilde(xi)  = integral_0^omega exp(i t xi) s(t) dt

drive everything here: the symbol ``g(xi) = -i xi s_tilde1(xi)``, whose
high-frequency limit sets sit inside the spectrum of the associated
difference-kernel operator; the plane-wave residual that certifies ``g`` as
an approximate eigenvalue; a boundedness indicator based on ``xi s_tilde``;
and the two-point witness that rules out a scalar-plus-compact triangular
structure along the natural chain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .exceptions import QuadratureError
from .grid import check_frequency
from .operators import OperatorMatrix

__all__ = [
    "SymbolTrace",
    "WindowSummary",
    "BoundednessReport",
    "WitnessVerdict",
    "transform",
    "weighted_transform",
    "trace_symbol",
    "XI_LADDER",
    "MIN_WINDOW",
    "GROWTH_SLOPE",
    "prop54_residual",
    "boundedness_indicator",
    "non_triangular_witness",
]

# accuracy contract of every transform quadrature
_QUAD_OPTS = {"epsabs": 1e-13, "epsrel": 1e-10, "limit": 400}

# trailing samples per side the limit-set classification needs
MIN_WINDOW = 16

GROWTH_SLOPE = 0.1  # log-log slope of |xi s_tilde| above which a kernel is "growing"


def _complex_quad(func, a: float, b: float, **kwargs) -> complex:
    value, _ = quad(func, a, b, complex_func=True, **_QUAD_OPTS, **kwargs)
    if not cmath.isfinite(value):
        raise QuadratureError(f"transform quadrature diverged on [{a:g}, {b:g}]")
    return value


def _oscillatory_integral(w: Callable, omega: float, xi: float) -> complex:
    """integral_0^omega w(t) exp(i t xi) dt with oscillation-aware quadrature.

    Low frequencies go to plain adaptive quadrature.  High frequencies are
    split: a short head cell (below a quarter period, so the phase is slow)
    absorbs any endpoint singularity of ``w``; the remainder uses the
    Clenshaw-Curtis oscillatory weights, whose cost stays near-constant in
    ``xi``.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")

    def w_wave(t):
        return complex(w(t)) * np.exp(1j * t * xi)

    if xi == 0.0 or abs(xi) * omega <= 8.0:
        return _complex_quad(w_wave, 0.0, omega)
    head = min(0.5 * omega, 1.0 / (4.0 * abs(xi)))
    cos_term = _complex_quad(w, head, omega, weight="cos", wvar=xi)
    sin_term = _complex_quad(w, head, omega, weight="sin", wvar=xi)
    return _complex_quad(w_wave, 0.0, head) + (cos_term + 1j * sin_term)


def weighted_transform(s: Callable, omega: float, xi: float) -> complex:
    """``s_tilde1(xi)``, the transform of ``s`` weighted by ``(1 - t/omega)``.

    The symbol is ``g(xi) = -i xi s_tilde1(xi)``.  ``s`` may be complex
    valued with an integrable endpoint singularity at ``t = 0``.
    """
    return _oscillatory_integral(lambda t: s(t) * (1.0 - t / omega), omega, xi)


def transform(s: Callable, omega: float, xi: float) -> tuple[complex, complex]:
    """Both transforms of ``s`` at frequency ``xi``.

    Returns ``(s_tilde1, s_tilde)``: first :func:`weighted_transform`, then
    the plain one.
    """
    return weighted_transform(s, omega, xi), _oscillatory_integral(s, omega, xi)


@dataclass(frozen=True)
class WindowSummary:
    """Trailing-window statistics of the symbol on one side of the ladder."""

    side: int  # +1 or -1
    mean_value: complex
    mean_modulus: float
    modulus_spread: float
    complex_spread: float
    arg_span: float

    def kind(self, tol: float) -> str:
        """CONVERGENT when the window clusters to one complex point within
        ``tol``, else LIMIT_SET.

        A LIMIT_SET side may have a settled modulus while its argument keeps
        drifting: a circle-like limit set, which no pointwise limit reveals.
        """
        if not tol > 0:
            raise ValueError("tol must be positive")
        return "CONVERGENT" if self.complex_spread < tol else "LIMIT_SET"


@dataclass(frozen=True)
class SymbolTrace:
    """Sampled transforms along :data:`XI_LADDER`, one entry per frequency."""

    s_tilde: np.ndarray
    s_tilde1: np.ndarray
    g: np.ndarray
    window_plus: WindowSummary
    window_minus: WindowSummary

    def __post_init__(self):
        for arr in (self.s_tilde, self.s_tilde1, self.g):
            arr.setflags(write=False)


# The frequency ladder of every symbol experiment: ``+-2^k`` for the integer
# exponents 0..9, then four points per octave from 2^10 to 2^14, mirrored to
# negative frequencies; 27 per side.  The refinement near the top supplies the
# trailing windows the limit-set estimator needs.
_XI_POSITIVE = 2.0 ** np.concatenate([np.arange(10.0), np.arange(40.0, 57.0) / 4.0])
XI_LADDER = np.concatenate([-_XI_POSITIVE[::-1], _XI_POSITIVE])
XI_LADDER.setflags(write=False)


def _window_summary(xi: np.ndarray, g: np.ndarray, side: int) -> WindowSummary:
    order = np.argsort(np.abs(xi))
    g_tail = g[order][-MIN_WINDOW:]
    moduli = np.abs(g_tail)
    mean = complex(np.mean(g_tail))
    args = np.unwrap(np.angle(g_tail))
    return WindowSummary(
        side=side,
        mean_value=mean,
        mean_modulus=float(np.mean(moduli)),
        modulus_spread=float(np.max(moduli) - np.min(moduli)),
        complex_spread=float(np.max(np.abs(g_tail - mean))),
        arg_span=float(np.max(args) - np.min(args)),
    )


def trace_symbol(s: Callable, omega: float) -> SymbolTrace:
    """Evaluate both transforms along :data:`XI_LADDER` and summarize the tails.

    Each side is summarized over its :data:`MIN_WINDOW` highest frequencies.
    """
    xi = XI_LADDER
    s1 = np.empty(xi.shape, dtype=complex)
    s0 = np.empty(xi.shape, dtype=complex)
    for i, x in enumerate(xi):
        s1[i], s0[i] = transform(s, omega, x)
    g = -1j * xi * s1
    plus = _window_summary(xi[xi > 0], g[xi > 0], +1)
    minus = _window_summary(xi[xi < 0], g[xi < 0], -1)
    return SymbolTrace(
        s_tilde=s0,
        s_tilde1=s1,
        g=g,
        window_plus=plus,
        window_minus=minus,
    )


def prop54_residual(t: OperatorMatrix, xi: float) -> float:
    """Plane-wave residual ``|| T e(-i x xi) - g(xi) e(-i x xi) ||``.

    ``t`` must come from a difference-kernel construction, which records the
    kernel handle ``s`` on ``t.kernel``.  The frequency
    must respect the grid's aliasing guard.  For admissible frequencies this
    measures how far the symbol value ``g(xi) = -i xi s_tilde1(xi)`` is from
    acting as an eigenvalue on the sampled wave.
    """
    if t.kernel is None:
        raise ValueError("prop54_residual needs an operator built from a difference kernel")
    check_frequency(t.grid, xi)
    s_tilde1 = weighted_transform(t.kernel.s, t.grid.omega, xi)
    wave = np.exp(1j * -xi * t.grid.nodes)
    lhs = t.entries @ wave
    rhs = (-1j * xi) * s_tilde1 * wave
    # discrete L2 norm: midpoint rule for the integral of |r|^2
    return math.sqrt(t.grid.h * float(np.sum(np.abs(lhs - rhs) ** 2)))


@dataclass(frozen=True)
class BoundednessReport:
    sup_value: float
    trend_slope: float
    classification: str  # "bounded" or "growing"


def boundedness_indicator(s: Callable, omega: float) -> BoundednessReport:
    """Evidence for boundedness of the operator via ``sup |xi s_tilde(xi)|``.

    Fits the log-log slope of ``|xi s_tilde(xi)|`` over the outer half of
    :data:`XI_LADDER`, taken in order of ``|xi|``; a slope above
    :data:`GROWTH_SLOPE` classifies as "growing".
    """
    xi = np.asarray(sorted(XI_LADDER, key=abs), dtype=float)
    vals = np.empty(xi.shape, dtype=float)
    for i, x in enumerate(xi):
        vals[i] = abs(x * _oscillatory_integral(s, omega, x))
    half = len(xi) // 2
    logs = np.log(np.abs(xi[half:]))
    slope = float(np.polyfit(logs, np.log(np.maximum(vals[half:], 1e-300)), 1)[0])
    label = "growing" if slope > GROWTH_SLOPE else "bounded"
    return BoundednessReport(
        sup_value=float(np.max(vals)),
        trend_slope=slope,
        classification=label,
    )


@dataclass(frozen=True)
class WitnessVerdict:
    verdict: str  # "NOT_SV_TRIANGULAR" or "INCONCLUSIVE"
    separation: float
    tol: float
    detail: str


def non_triangular_witness(trace: SymbolTrace) -> WitnessVerdict:
    """Two-point witness against scalar-plus-compact triangular structure.

    Fires NOT_SV_TRIANGULAR when the two sides of the trace are separated by
    more than ``tol`` in the complex plane, or when a single side is a
    limit set whose chord (modulus times argument span) exceeds ``tol``,
    since either case exhibits two distinct limit points.  Never asserts
    the opposite; everything else is INCONCLUSIVE.  ``tol`` is 5% of the
    larger side modulus.
    """
    plus, minus = trace.window_plus, trace.window_minus
    tol = 0.05 * max(plus.mean_modulus, minus.mean_modulus)
    kinds = (plus.kind(tol), minus.kind(tol))

    if kinds == ("CONVERGENT", "CONVERGENT"):
        separation = abs(plus.mean_value - minus.mean_value)
        if separation > tol:
            return WitnessVerdict(
                "NOT_SV_TRIANGULAR", separation, tol, "two distinct point limits"
            )
        return WitnessVerdict("INCONCLUSIVE", separation, tol, "single point limit")

    # A modulus gap between the sides separates the limit sets outright.
    separation = abs(plus.mean_modulus - minus.mean_modulus)
    if separation > tol + plus.modulus_spread + minus.modulus_spread:
        return WitnessVerdict(
            "NOT_SV_TRIANGULAR", separation, tol, "side moduli differ"
        )
    for side, kind in zip((plus, minus), kinds):
        if kind == "LIMIT_SET" and side.modulus_spread < tol:
            chord = 2.0 * side.mean_modulus * math.sin(min(side.arg_span, math.pi) / 2.0)
            if chord > tol:
                return WitnessVerdict(
                    "NOT_SV_TRIANGULAR",
                    chord,
                    tol,
                    f"side {side.side:+d} is a circle-like continuum",
                )
    return WitnessVerdict("INCONCLUSIVE", separation, tol, "no separation found")
