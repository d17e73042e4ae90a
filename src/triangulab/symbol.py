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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .exceptions import InsufficientDataError, QuadratureError
from .grid import GridFunction, check_frequency, l2_norm, sample_exponential
from .operators import OperatorMatrix, KernelSpec

__all__ = [
    "SymbolTrace",
    "WindowSummary",
    "DeltaReport",
    "BoundednessReport",
    "WitnessVerdict",
    "transform",
    "trace_symbol",
    "default_xi_ladder",
    "delta_estimate",
    "prop54_residual",
    "boundedness_indicator",
    "non_triangular_witness",
    "trace_to_csv",
]

# accuracy contract of every transform quadrature
_QUAD_OPTS = {"epsabs": 1e-13, "epsrel": 1e-10, "limit": 400}


def _complex_quad(func, a: float, b: float, **kwargs) -> complex:
    re, re_err = quad(lambda t: func(t).real, a, b, **kwargs)
    im, im_err = quad(lambda t: func(t).imag, a, b, **kwargs)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise QuadratureError(f"transform quadrature diverged on [{a:g}, {b:g}]")
    return re + 1j * im


def _oscillatory_integral(w: Callable, omega: float, xi: float) -> complex:
    """integral_0^omega w(t) exp(i t xi) dt with oscillation-aware quadrature.

    Low frequencies go to plain adaptive quadrature.  High frequencies are
    split: a short head cell (below a quarter period, so the phase is slow)
    absorbs any endpoint singularity of ``w``; the remainder uses the
    Clenshaw-Curtis oscillatory weights, whose cost stays near-constant in
    ``xi``.
    """
    def w_wave(t):
        return complex(w(t)) * np.exp(1j * t * xi)

    if xi == 0.0 or abs(xi) * omega <= 8.0:
        return _complex_quad(w_wave, 0.0, omega, **_QUAD_OPTS)
    head = min(0.5 * omega, 1.0 / (4.0 * abs(xi)))
    total = _complex_quad(w_wave, 0.0, head, **_QUAD_OPTS)
    parts = []
    for weight, factor in (("cos", 1.0), ("sin", 1j)):
        for comp, comp_factor in ((np.real, 1.0), (np.imag, 1j)):
            val, err = quad(
                lambda t: float(comp(complex(w(t)))), head, omega, weight=weight, wvar=xi, **_QUAD_OPTS
            )
            if not math.isfinite(val):
                raise QuadratureError("oscillatory quadrature diverged")
            parts.append(factor * comp_factor * val)
    return total + sum(parts)


def transform(s: Callable, omega: float, xi: float) -> tuple[complex, complex]:
    """Both transforms of ``s`` at frequency ``xi``.

    Returns ``(s_tilde1, s_tilde)``: first the transform weighted by
    ``(1 - t/omega)``, then the plain one.  ``s`` may be complex valued with
    an integrable endpoint singularity at ``t = 0``.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    s_tilde1 = _oscillatory_integral(lambda t: s(t) * (1.0 - t / omega), omega, xi)
    s_tilde = _oscillatory_integral(s, omega, xi)
    return s_tilde1, s_tilde


@dataclass(frozen=True)
class WindowSummary:
    """Trailing-window statistics of the symbol on one side of the ladder."""

    side: int  # +1 or -1
    mean_value: complex
    mean_modulus: float
    modulus_spread: float
    complex_spread: float
    arg_span: float
    arg_drift_per_step: float
    samples: int


@dataclass(frozen=True)
class SymbolTrace:
    """Sampled transforms along a signed geometric frequency ladder."""

    omega: float
    xi_samples: np.ndarray
    s_tilde: np.ndarray
    s_tilde1: np.ndarray
    g: np.ndarray
    window_plus: WindowSummary
    window_minus: WindowSummary

    def __post_init__(self):
        for arr in (self.xi_samples, self.s_tilde, self.s_tilde1, self.g):
            arr.setflags(write=False)


def default_xi_ladder(k_max: int = 14, refine_from: int = 10, per_octave: int = 4) -> np.ndarray:
    """Signed geometric ladder ``+-2^k`` refined near the top.

    Integer exponents up to ``refine_from``, then ``per_octave`` points per
    octave up to ``k_max``; mirrored to negative frequencies.  The refinement
    supplies the trailing windows the limit-set estimator needs.
    """
    coarse = np.arange(0, refine_from, dtype=float)
    fine = np.arange(refine_from * per_octave, k_max * per_octave + 1, dtype=float) / per_octave
    exponents = np.concatenate([coarse, fine])
    positive = 2.0**exponents
    return np.concatenate([-positive[::-1], positive])


def _window_summary(xi: np.ndarray, g: np.ndarray, side: int, window: int) -> WindowSummary:
    order = np.argsort(np.abs(xi))
    xi_side = xi[order]
    g_side = g[order]
    take = np.abs(xi_side) > 0
    g_tail = g_side[take][-window:]
    if g_tail.shape[0] < window:
        raise InsufficientDataError(
            f"need {window} trailing samples on side {side:+d}, got {g_tail.shape[0]}"
        )
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
        arg_drift_per_step=float((args[-1] - args[0]) / max(len(args) - 1, 1)),
        samples=int(g_tail.shape[0]),
    )


def trace_symbol(
    s: Callable,
    omega: float,
    xi_samples: Optional[Sequence[float]] = None,
    window: int = 16,
) -> SymbolTrace:
    """Evaluate both transforms along a signed ladder and summarize the tails."""
    if xi_samples is None:
        xi_samples = default_xi_ladder()
    xi = np.asarray(sorted(xi_samples), dtype=float)
    s1 = np.empty(xi.shape, dtype=complex)
    s0 = np.empty(xi.shape, dtype=complex)
    for i, x in enumerate(xi):
        s1[i], s0[i] = transform(s, omega, x)
    g = -1j * xi * s1
    plus = _window_summary(xi[xi > 0], g[xi > 0], +1, window)
    minus = _window_summary(xi[xi < 0], g[xi < 0], -1, window)
    return SymbolTrace(
        omega=float(omega),
        xi_samples=xi,
        s_tilde=s0,
        s_tilde1=s1,
        g=g,
        window_plus=plus,
        window_minus=minus,
    )


@dataclass(frozen=True)
class SideEstimate:
    """Classification of one side of the ladder: a point limit or a limit set."""

    side: int
    kind: str  # "CONVERGENT" or "LIMIT_SET"
    value: complex  # limit point (CONVERGENT) or mean of the window
    modulus: float
    modulus_spread: float
    arg_span: float


@dataclass(frozen=True)
class DeltaReport:
    plus: SideEstimate
    minus: SideEstimate
    tol: float


def _classify(summary: WindowSummary, tol: float) -> SideEstimate:
    if summary.complex_spread < tol:
        kind = "CONVERGENT"
    else:
        # The modulus may settle while the argument keeps drifting; that is a
        # circle-like limit set, which no pointwise limit would reveal.
        kind = "LIMIT_SET"
    return SideEstimate(
        side=summary.side,
        kind=kind,
        value=summary.mean_value,
        modulus=summary.mean_modulus,
        modulus_spread=summary.modulus_spread,
        arg_span=summary.arg_span,
    )


def delta_estimate(trace: SymbolTrace, tol: float) -> DeltaReport:
    """Classify the two high-frequency limit sets of the symbol.

    Each side becomes CONVERGENT (trailing window clusters to one complex
    point within ``tol``) or LIMIT_SET (a modulus band with drifting
    argument).  Requires at least 16 trailing samples per side.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if trace.window_plus.samples < 16 or trace.window_minus.samples < 16:
        raise InsufficientDataError("need at least 16 trailing samples per side")
    return DeltaReport(
        plus=_classify(trace.window_plus, tol),
        minus=_classify(trace.window_minus, tol),
        tol=tol,
    )


def prop54_residual(t: OperatorMatrix, xi: float) -> float:
    """Plane-wave residual ``|| T e(-i x xi) - g(xi) e(-i x xi) ||``.

    ``t`` must come from a difference-kernel construction: its provenance is
    a :class:`KernelSpec` carrying the kernel handle ``s``.  The frequency
    must respect the grid's aliasing guard.  For admissible frequencies this
    measures how far the symbol value ``g(xi) = -i xi s_tilde1(xi)`` is from
    acting as an eigenvalue on the sampled wave.
    """
    spec = t.provenance
    if not isinstance(spec, KernelSpec) or spec.s is None:
        raise ValueError("prop54_residual needs an operator built from a difference kernel")
    check_frequency(t.grid, xi)
    s_tilde1, _ = transform(spec.s, t.grid.omega, xi)
    wave = sample_exponential(t.grid, xi, sign=-1)
    lhs = t.entries @ wave.values
    rhs = (-1j * xi) * s_tilde1 * wave.values
    return l2_norm(GridFunction(t.grid, lhs - rhs))


@dataclass(frozen=True)
class BoundednessReport:
    sup_value: float
    trend_slope: float
    classification: str  # "bounded" or "growing"
    xi_samples: np.ndarray
    indicator: np.ndarray

    def __post_init__(self):
        self.xi_samples.setflags(write=False)
        self.indicator.setflags(write=False)


def boundedness_indicator(
    s: Callable,
    omega: float,
    xi_ladder: Optional[Sequence[float]] = None,
    growth_threshold: float = 0.1,
) -> BoundednessReport:
    """Evidence for boundedness of the operator via ``sup |xi s_tilde(xi)|``.

    Fits the log-log slope of ``|xi s_tilde(xi)|`` over the outer half of the
    ladder; a slope above ``growth_threshold`` classifies as "growing".
    """
    if xi_ladder is None:
        xi_ladder = default_xi_ladder()
    xi = np.asarray(sorted(xi_ladder, key=abs), dtype=float)
    xi = xi[xi != 0]
    vals = np.empty(xi.shape, dtype=float)
    for i, x in enumerate(xi):
        _, s0 = transform(s, omega, x)
        vals[i] = abs(x * s0)
    half = len(xi) // 2
    logs = np.log(np.abs(xi[half:]))
    slope = float(np.polyfit(logs, np.log(np.maximum(vals[half:], 1e-300)), 1)[0])
    label = "growing" if slope > growth_threshold else "bounded"
    return BoundednessReport(
        sup_value=float(np.max(vals)),
        trend_slope=slope,
        classification=label,
        xi_samples=xi,
        indicator=vals,
    )


@dataclass(frozen=True)
class WitnessVerdict:
    verdict: str  # "NOT_SV_TRIANGULAR" or "INCONCLUSIVE"
    separation: float
    tol: float
    detail: str


def non_triangular_witness(report_or_trace, tol: Optional[float] = None) -> WitnessVerdict:
    """Two-point witness against scalar-plus-compact triangular structure.

    Fires NOT_SV_TRIANGULAR when the two side estimates are separated by
    more than ``tol`` in the complex plane, or when a single side is a
    limit set whose chord (modulus times argument span) exceeds ``tol``,
    since either case exhibits two distinct limit points.  Never asserts
    the opposite; everything else is INCONCLUSIVE.
    """
    if isinstance(report_or_trace, SymbolTrace):
        trace = report_or_trace
        base = max(trace.window_plus.mean_modulus, trace.window_minus.mean_modulus)
        if tol is None:
            tol = 0.05 * base
        report = delta_estimate(trace, tol)
    else:
        report = report_or_trace
        if tol is None:
            tol = report.tol
    plus, minus = report.plus, report.minus

    if plus.kind == "CONVERGENT" and minus.kind == "CONVERGENT":
        separation = abs(plus.value - minus.value)
        if separation > tol:
            return WitnessVerdict(
                "NOT_SV_TRIANGULAR", separation, tol, "two distinct point limits"
            )
        return WitnessVerdict("INCONCLUSIVE", separation, tol, "single point limit")

    # A modulus gap between the sides separates the limit sets outright.
    separation = abs(plus.modulus - minus.modulus)
    if separation > tol + plus.modulus_spread + minus.modulus_spread:
        return WitnessVerdict(
            "NOT_SV_TRIANGULAR", separation, tol, "side moduli differ"
        )
    for est in (plus, minus):
        if est.kind == "LIMIT_SET" and est.modulus_spread < tol:
            chord = 2.0 * est.modulus * math.sin(min(est.arg_span, math.pi) / 2.0)
            if chord > tol:
                return WitnessVerdict(
                    "NOT_SV_TRIANGULAR",
                    chord,
                    tol,
                    f"side {est.side:+d} is a circle-like continuum",
                )
    return WitnessVerdict("INCONCLUSIVE", separation, tol, "no separation found")


def trace_to_csv(trace: SymbolTrace, path) -> None:
    """CSV columns: xi, Re/Im of both transforms, Re/Im/|.| of the symbol."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("xi,re_s_tilde,im_s_tilde,re_s_tilde1,im_s_tilde1,re_g,im_g,abs_g\n")
        for i, x in enumerate(trace.xi_samples):
            st, s1, g = trace.s_tilde[i], trace.s_tilde1[i], trace.g[i]
            fh.write(
                f"{float(x)!r},{float(st.real)!r},{float(st.imag)!r},{float(s1.real)!r},{float(s1.imag)!r},"
                f"{float(g.real)!r},{float(g.imag)!r},{float(abs(g))!r}\n"
            )
