import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from triangulab import make_grid, symbol
from triangulab.exceptions import FrequencyRangeError
from triangulab.experiments import ExperimentConfig, run_experiment
from triangulab.operators import (
    KERNEL_PRESETS,
    KernelSpec,
    build_difference_operator,
    build_fractional,
    build_imaginary_fractional,
)
from triangulab.symbol import (
    XI_LADDER,
    boundedness_indicator,
    non_triangular_witness,
    prop54_residual,
    trace_symbol,
    transform,
    weighted_transform,
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
    norm = complex(scipy.special.gamma(1.0 + 1j * alpha))
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


# ---------------------------------------------------------------- closed forms on the ladder


def closed_form_linear(xi):
    """Transforms of ``s(t) = t``: with ``e = e^(i omega xi)`` and
    ``m1 = integral_0^omega t e^(i xi t) dt``, the weighted one is
    ``m1 - m2 / omega`` with ``m2`` the second moment, written without the
    cancellation of its two leading terms."""
    z = 1j * xi
    e = cmath.exp(z * OMEGA)
    m1 = OMEGA * e / z - (e - 1.0) / z**2
    return (e + 1.0) / z**2 - 2.0 * (e - 1.0) / (OMEGA * z**3), m1


def closed_form_inv_sqrt(xi):
    """Transforms of ``s(t) = t^(-1/2)`` by Fresnel integrals: ``t = u^2``
    turns ``integral_0^omega t^(-1/2) e^(i xi t) dt`` into
    ``sqrt(2 pi / |xi|) (C(z) + i S(z))``, ``z = sqrt(2 |xi| omega / pi)``,
    conjugated for ``xi < 0``; the ``t^(1/2)`` moment follows by parts."""
    sin_z, cos_z = scipy.special.fresnel(math.sqrt(2.0 * abs(xi) * OMEGA / math.pi))
    plain = math.sqrt(2.0 * math.pi / abs(xi)) * complex(cos_z, sin_z)
    plain = plain if xi > 0 else plain.conjugate()
    z = 1j * xi
    half_moment = math.sqrt(OMEGA) * cmath.exp(z * OMEGA) / z - plain / (2.0 * z)
    return plain - half_moment / OMEGA, plain


def _power_integral(a, xi):
    """``integral_0^omega t^(a-1) e^(i xi t) dt = omega^a 1F1(a; a+1; i omega xi) / a``
    (DLMF 13.4.1 with 13.2.2), by mpmath; ``a`` an mpmath number."""
    return mp.power(OMEGA, a) * mp.hyp1f1(a, a + 1, 1j * OMEGA * xi) / a


def closed_form_imaginary_power(xi, alpha=1.0):
    """Transforms of ``s(t) = t^(i alpha) / Gamma(1 + i alpha)`` by Kummer's
    function at 30 digits: ``a = 1 + i alpha``, and the ``(1 - t/omega)``
    weight adds the same integral at ``a + 1``."""
    with mp.workdps(30):
        a = mp.mpc(1.0, alpha)
        plain = _power_integral(a, xi) / mp.gamma(a)
        weighted = plain - _power_integral(a + 1, xi) / (OMEGA * mp.gamma(a))
        return complex(weighted), complex(plain)


CLOSED_FORMS = {
    "one": closed_form_one,
    "linear": closed_form_linear,
    "inv_sqrt": closed_form_inv_sqrt,
    "imaginary_power": closed_form_imaginary_power,
}


def _assert_trace_matches_closed_form(preset):
    # both transforms at every XI_LADDER frequency, to 1e-9 relative: ten
    # times the quadrature's epsrel contract of 1e-10
    trace = trace_symbol(KernelSpec.preset(preset, 1.0).s, OMEGA)
    exact = np.array([CLOSED_FORMS[preset](xi) for xi in XI_LADDER])
    np.testing.assert_allclose(trace.s_tilde1, exact[:, 0], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(trace.s_tilde, exact[:, 1], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("preset", sorted(CLOSED_FORMS))
def test_trace_matches_the_closed_form_on_the_whole_ladder(preset):
    assert set(CLOSED_FORMS) == set(KERNEL_PRESETS)
    _assert_trace_matches_closed_form(preset)


def test_prop54_symbol_matches_kummer_at_its_frequencies():
    # g(xi) as prop54_residual takes it, for the operator prop54 builds
    op = build_imaginary_fractional(make_grid(OMEGA, 256), 1.0)
    for xi in (32.0, 64.0, 128.0):
        g = -1j * xi * weighted_transform(op.kernel.s, op.grid.omega, xi)
        exact = -1j * xi * closed_form_imaginary_power(xi)[0]
        assert abs(g - exact) <= 1e-9 * abs(exact)


def test_hermitian_check_misses_a_symmetric_error_that_the_pin_catches(monkeypatch, tmp_path):
    # for a real kernel the quadratures at -xi mirror those at +xi exactly,
    # so an error symmetric in xi leaves the hermitian check at 0.0
    exact = symbol._oscillatory_integral
    monkeypatch.setattr(symbol, "_oscillatory_integral", lambda w, omega, xi: exact(w, omega, xi) * (1.0 + 1e-6))
    config = {"experiment": "symbol-trace", "kernel": {"s": "linear"}, "output_dir": str(tmp_path)}
    (check,) = run_experiment(ExperimentConfig.from_dict(config)).checks
    assert check.name == "hermitian-symmetry-real-kernel" and check.value == 0.0 and check.passed
    with pytest.raises(AssertionError):
        _assert_trace_matches_closed_form("linear")


# ---------------------------------------------------------------- traces and limit sets


def test_default_ladder_covers_both_sides():
    assert np.sum(XI_LADDER > 0) == np.sum(XI_LADDER < 0) == 27
    np.testing.assert_array_equal(XI_LADDER, -XI_LADDER[::-1])
    assert XI_LADDER.max() == 2.0**14
    with pytest.raises(ValueError):
        XI_LADDER[0] = 0.0


@pytest.mark.parametrize("k_max, per_octave", [(14, 4)])
def test_ladder_side_count_matches_the_ladder(k_max, per_octave):
    # integer exponents below 10, then per_octave points per octave up to k_max
    exponents = np.concatenate([np.arange(0.0, 10.0), np.arange(10 * per_octave, k_max * per_octave + 1) / per_octave])
    count = 10 + (k_max - 10) * per_octave + 1
    assert count == np.sum(XI_LADDER > 0) == np.sum(XI_LADDER < 0)
    np.testing.assert_array_equal(XI_LADDER[count:], 2.0**exponents)


def test_trace_identity_kernel_converges_to_one():
    trace = trace_symbol(lambda t: 1.0, OMEGA)
    plus, minus = trace.window_plus, trace.window_minus
    assert plus.kind(0.05) == "CONVERGENT"
    assert minus.kind(0.05) == "CONVERGENT"
    assert abs(plus.mean_value - 1.0) <= 0.05
    assert abs(minus.mean_value - 1.0) <= 0.05


def test_trace_imaginary_power_limit_sets():
    trace = trace_symbol(imaginary_power_kernel(1.0), OMEGA)
    plus, minus = trace.window_plus, trace.window_minus
    assert plus.kind(0.05) == "LIMIT_SET"
    assert minus.kind(0.05) == "LIMIT_SET"
    assert plus.mean_modulus == pytest.approx(math.exp(-math.pi / 2.0), rel=0.02)
    assert minus.mean_modulus == pytest.approx(math.exp(math.pi / 2.0), rel=0.02)
    assert plus.arg_span > math.pi / 2.0


def test_side_kind_requires_positive_tol():
    side = trace_symbol(lambda t: 1.0, OMEGA).window_plus
    for tol in (0.0, -0.05, float("nan")):
        with pytest.raises(ValueError):
            side.kind(tol)


# ---------------------------------------------------------------- plane-wave residual


def test_prop54_identity_kernel_at_full_periods():
    g = make_grid(OMEGA, 512)
    ident = build_difference_operator(g, KernelSpec(lambda t: 1.0, lambda u: u))
    xi = 2.0 * math.pi * 16 / OMEGA
    assert prop54_residual(ident, xi) <= 1e-8


def test_prop54_residual_decreases_for_imaginary_power():
    g = make_grid(OMEGA, 1024)
    op = build_imaginary_fractional(g, 1.0)
    residuals = [prop54_residual(op, xi) for xi in (16.0, 32.0, 64.0)]
    assert residuals[0] > residuals[1] > residuals[2]
    kernel = KernelSpec.fractional_imaginary(1.0)
    via_spec = build_difference_operator(g, kernel)
    assert [prop54_residual(via_spec, xi) for xi in (16.0, 32.0, 64.0)] == residuals


def _midpoint_norm(g, values):
    # midpoint rule for the integral of |f|^2 over (0, omega)
    return math.sqrt(g.h * float(np.sum(np.abs(values) ** 2)))


def test_prop54_zero_frequency_documents_operator_action():
    g = make_grid(OMEGA, 64)
    ident = build_difference_operator(g, KernelSpec(lambda t: 1.0, lambda u: u))
    expected = _midpoint_norm(g, ident.entries @ np.ones(64))
    assert prop54_residual(ident, 0.0) == pytest.approx(expected, rel=1e-12)


def test_prop54_enforces_aliasing_guard():
    g = make_grid(OMEGA, 64)
    ident = build_difference_operator(g, KernelSpec(lambda t: 1.0, lambda u: u))
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
    lhs_norm = _midpoint_norm(g, op.entries @ np.exp(-1j * xi * g.nodes))
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
