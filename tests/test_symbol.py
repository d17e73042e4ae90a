import cmath
import math

import numpy as np
import pytest

from triangulab import gamma_complex, make_grid
from triangulab.exceptions import FrequencyRangeError, InsufficientDataError
from triangulab.grid import l2_norm, sample_exponential
from triangulab.operators import (
    KernelSpec,
    apply,
    build_difference_operator,
    build_fractional,
    build_imaginary_fractional,
)
from triangulab.symbol import (
    boundedness_indicator,
    default_xi_ladder,
    non_triangular_witness,
    prop54_residual,
    trace_symbol,
    trace_to_csv,
    transform,
    weighted_transform,
    xi_ladder_side_count,
)

OMEGA = 1.0


def closed_form_one(xi):
    """Transforms of s = 1: plain and with the (1 - t/omega) weight."""
    if xi == 0.0:
        return OMEGA / 2.0, OMEGA
    e = cmath.exp(1j * OMEGA * xi)
    s_tilde = (e - 1.0) / (1j * xi)
    moment = OMEGA * e / (1j * xi) - (e - 1.0) / (1j * xi) ** 2
    return s_tilde - moment / OMEGA, s_tilde


def imaginary_power_kernel(alpha):
    norm = gamma_complex(1.0 + 1j * alpha)
    return lambda t: cmath.exp(1j * alpha * math.log(t)) / norm


# ---------------------------------------------------------------- transform


def test_transform_constant_at_zero_frequency():
    s1, s0 = transform(lambda t: 1.0, OMEGA, 0.0)
    assert s0 == pytest.approx(OMEGA, abs=1e-12)
    assert s1 == pytest.approx(OMEGA / 2.0, abs=1e-12)


@pytest.mark.parametrize("xi", [-3000.0, -41.5, -2.0, 1.3, 7.9, 64.0, 1e4])
def test_transform_matches_closed_form(xi):
    s1, s0 = transform(lambda t: 1.0, OMEGA, xi)
    exact1, exact0 = closed_form_one(xi)
    assert abs(s0 - exact0) <= 1e-8 * max(abs(exact0), 1e-3)
    assert abs(s1 - exact1) <= 1e-8 * max(abs(exact1), 1e-3)
    assert weighted_transform(lambda t: 1.0, OMEGA, xi) == s1


def test_transform_is_linear():
    s_a = lambda t: 1.0
    s_b = lambda t: t * t
    xi = 17.0
    a1, a0 = transform(s_a, OMEGA, xi)
    b1, b0 = transform(s_b, OMEGA, xi)
    c1, c0 = transform(lambda t: 2.0 * s_a(t) - 3.0 * s_b(t), OMEGA, xi)
    assert c0 == pytest.approx(2.0 * a0 - 3.0 * b0, rel=1e-8, abs=1e-10)
    assert c1 == pytest.approx(2.0 * a1 - 3.0 * b1, rel=1e-8, abs=1e-10)


def test_transform_hermitian_symmetry_for_real_kernels():
    for s in (lambda t: 1.0, lambda t: t, lambda t: t**-0.5):
        for xi in (3.0, 57.0, 513.0):
            plus = transform(s, OMEGA, xi)
            minus = transform(s, OMEGA, -xi)
            assert abs(plus[0] - np.conj(minus[0])) <= 1e-8
            assert abs(plus[1] - np.conj(minus[1])) <= 1e-8


def test_transform_rejects_bad_omega():
    with pytest.raises(ValueError):
        transform(lambda t: 1.0, 0.0, 1.0)


def test_imaginary_power_symbol_limits():
    s = imaginary_power_kernel(1.0)
    for xi, target in ((1e4, math.exp(-math.pi / 2.0)), (-1e4, math.exp(math.pi / 2.0))):
        s1, _ = transform(s, OMEGA, xi)
        modulus = abs(-1j * xi * s1)
        assert modulus == pytest.approx(target, rel=0.02)


def test_imaginary_power_argument_drift_is_logarithmic():
    s = imaginary_power_kernel(1.0)
    # arg g(xi) ~ -alpha ln(xi) + const along xi -> +inf
    xis = (2000.0, 4000.0, 8000.0)
    args = []
    for xi in xis:
        s1, _ = transform(s, OMEGA, xi)
        args.append(cmath.phase(-1j * xi * s1))
    drift1 = (args[1] - args[0]) % (2 * math.pi)
    drift2 = (args[2] - args[1]) % (2 * math.pi)
    expected = (-math.log(2.0)) % (2 * math.pi)
    assert drift1 == pytest.approx(expected, abs=0.05)
    assert drift2 == pytest.approx(expected, abs=0.05)


# ---------------------------------------------------------------- traces and limit sets


def test_default_ladder_covers_both_sides():
    ladder = default_xi_ladder()
    assert np.sum(ladder > 0) >= 16
    assert np.sum(ladder < 0) >= 16
    assert ladder.max() == pytest.approx(2.0**14)


@pytest.mark.parametrize("k_max, per_octave", [(14, 4), (5, 4), (10, 7), (12, 1), (40, 3)])
def test_ladder_side_count_matches_the_ladder(k_max, per_octave):
    ladder = default_xi_ladder(k_max, per_octave=per_octave)
    count = xi_ladder_side_count(k_max, per_octave=per_octave)
    assert count == np.sum(ladder > 0) == np.sum(ladder < 0)


def test_trace_identity_kernel_converges_to_one():
    trace = trace_symbol(lambda t: 1.0, OMEGA)
    plus, minus = trace.window_plus, trace.window_minus
    assert plus.kind(0.05) == "CONVERGENT"
    assert minus.kind(0.05) == "CONVERGENT"
    assert abs(plus.mean_value - 1.0) <= 0.05
    assert abs(minus.mean_value - 1.0) <= 0.05


def test_trace_identity_kernel_estimate_stable_under_window_doubling():
    ladder = default_xi_ladder(k_max=14, refine_from=8)
    trace = trace_symbol(lambda t: 1.0, OMEGA, ladder, window=16)
    wide = trace_symbol(lambda t: 1.0, OMEGA, ladder, window=25)
    tol = 0.05
    assert abs(trace.window_plus.mean_value - wide.window_plus.mean_value) < tol / 2.0


def test_trace_imaginary_power_limit_sets():
    trace = trace_symbol(imaginary_power_kernel(1.0), OMEGA)
    plus, minus = trace.window_plus, trace.window_minus
    assert plus.kind(0.05) == "LIMIT_SET"
    assert minus.kind(0.05) == "LIMIT_SET"
    assert plus.mean_modulus == pytest.approx(math.exp(-math.pi / 2.0), rel=0.02)
    assert minus.mean_modulus == pytest.approx(math.exp(math.pi / 2.0), rel=0.02)
    assert plus.arg_span > math.pi / 2.0


def test_trace_symbol_requires_enough_samples():
    short = np.array([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0])
    with pytest.raises(InsufficientDataError):
        trace_symbol(lambda t: 1.0, OMEGA, short, window=3)
    with pytest.raises(InsufficientDataError):
        trace_symbol(lambda t: 1.0, OMEGA, short)


def test_side_kind_requires_positive_tol():
    side = trace_symbol(lambda t: 1.0, OMEGA).window_plus
    for tol in (0.0, -0.05, float("nan")):
        with pytest.raises(ValueError):
            side.kind(tol)


def test_trace_csv_header(tmp_path):
    trace = trace_symbol(lambda t: 1.0, OMEGA)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "xi,re_s_tilde,im_s_tilde,re_s_tilde1,im_s_tilde1,re_g,im_g,abs_g"
    assert len(lines) == len(trace.xi_samples) + 1
    # every field parses back to the float it was written from
    for i, line in enumerate(lines[1:]):
        st, s1, g = trace.s_tilde[i], trace.s_tilde1[i], trace.g[i]
        expected = [trace.xi_samples[i], st.real, st.imag, s1.real, s1.imag, g.real, g.imag, abs(g)]
        assert [float(field) for field in line.split(",")] == expected


# ---------------------------------------------------------------- plane-wave residual


def test_prop54_identity_kernel_at_full_periods():
    g = make_grid(OMEGA, 512)
    ident = build_difference_operator(g, lambda t: 1.0, antiderivative=lambda u: u)
    xi = 2.0 * math.pi * 16 / OMEGA
    assert prop54_residual(ident, xi) <= 1e-8


def test_prop54_residual_decreases_for_imaginary_power():
    g = make_grid(OMEGA, 1024)
    op = build_imaginary_fractional(g, 1.0)
    residuals = [prop54_residual(op, xi) for xi in (16.0, 32.0, 64.0)]
    assert residuals[0] > residuals[1] > residuals[2]
    kernel = KernelSpec.fractional_imaginary(1.0)
    via_spec = build_difference_operator(g, kernel.s, kernel.s_antiderivative)
    assert [prop54_residual(via_spec, xi) for xi in (16.0, 32.0, 64.0)] == residuals


def test_prop54_zero_frequency_documents_operator_action():
    g = make_grid(OMEGA, 64)
    ident = build_difference_operator(g, lambda t: 1.0, antiderivative=lambda u: u)
    wave = sample_exponential(g, 0.0, sign=-1)
    expected = l2_norm(apply(ident, wave))
    assert prop54_residual(ident, 0.0) == pytest.approx(expected, rel=1e-12)


def test_prop54_enforces_aliasing_guard():
    g = make_grid(OMEGA, 64)
    ident = build_difference_operator(g, lambda t: 1.0, antiderivative=lambda u: u)
    with pytest.raises(FrequencyRangeError):
        prop54_residual(ident, 1000.0)


def test_prop54_rejects_foreign_operators():
    g = make_grid(OMEGA, 64)
    with pytest.raises(ValueError):
        prop54_residual(build_fractional(g, 0.5), 3.0)


def test_prop54_consistent_with_trace_triangle_inequality():
    g = make_grid(OMEGA, 1024)
    op = build_imaginary_fractional(g, 1.0)
    xi = 48.0
    s1, _ = transform(imaginary_power_kernel(1.0), OMEGA, xi)
    wave = sample_exponential(g, xi, sign=-1)
    lhs_norm = l2_norm(apply(op, wave))
    lower = abs(lhs_norm - abs(xi * s1) * math.sqrt(OMEGA))
    assert prop54_residual(op, xi) >= lower - 1e-8


# ---------------------------------------------------------------- boundedness


def test_boundedness_imaginary_power_is_bounded():
    report = boundedness_indicator(imaginary_power_kernel(1.0), OMEGA)
    assert report.classification == "bounded"


def test_boundedness_linear_kernel_bounded_with_closed_form():
    report = boundedness_indicator(lambda t: t, OMEGA)
    assert report.classification == "bounded"
    # |xi s_tilde| has the closed form |omega e^{i omega xi} - s_tilde(1)| style bound of order 1
    assert report.sup_value <= 2.0 * OMEGA + 1.0


def test_boundedness_inverse_sqrt_grows():
    report = boundedness_indicator(lambda t: t**-0.5, OMEGA)
    assert report.classification == "growing"
    assert report.trend_slope == pytest.approx(0.5, abs=0.1)


# ---------------------------------------------------------------- witness


def test_witness_fires_for_imaginary_power():
    trace = trace_symbol(imaginary_power_kernel(1.0), OMEGA)
    verdict = non_triangular_witness(trace)
    assert verdict.verdict == "NOT_SV_TRIANGULAR"
    expected_gap = math.exp(math.pi / 2.0) - math.exp(-math.pi / 2.0)
    assert verdict.separation == pytest.approx(expected_gap, rel=0.05)


def test_witness_silent_for_identity_kernel():
    trace = trace_symbol(lambda t: 1.0, OMEGA)
    assert non_triangular_witness(trace).verdict == "INCONCLUSIVE"


def test_witness_silent_for_zero_order():
    trace = trace_symbol(imaginary_power_kernel(0.0), OMEGA)
    assert non_triangular_witness(trace).verdict == "INCONCLUSIVE"


def test_witness_accepts_explicit_tol():
    trace = trace_symbol(imaginary_power_kernel(1.0), OMEGA)
    verdict = non_triangular_witness(trace, tol=0.2)
    assert verdict.verdict == "NOT_SV_TRIANGULAR"
