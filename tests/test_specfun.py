import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triangulab import (
    EbetaSpec,
    e_beta,
    e_beta_cumulative,
    gamma_complex,
    m_moment,
    stirling_gamma_check,
)
from triangulab.exceptions import NumericalError, QuadratureError

mp.mp.dps = 40


def test_gamma_factorials():
    assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_complex(5.0).real == pytest.approx(24.0, rel=1e-13)


def test_gamma_half():
    assert gamma_complex(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_one_plus_i_reflection_oracle():
    # |Gamma(1+i)|^2 = pi / sinh(pi), independent of the series implementation
    expected = math.sqrt(math.pi / math.sinh(math.pi))
    assert abs(gamma_complex(1 + 1j)) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
def test_gamma_poles_raise(z):
    with pytest.raises(ValueError):
        gamma_complex(z)


def test_gamma_against_high_precision_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(z) > 50 or (z.imag == 0 and z.real <= 0):
            continue
        exact = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        worst = max(worst, abs(gamma_complex(z) - exact) / abs(exact))
    assert worst <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)
def test_gamma_recurrence(re, im):
    z = complex(re, im)
    if abs(z) < 1e-3 or (im == 0 and re <= 0 and abs(re - round(re)) < 1e-2):
        return
    lhs = gamma_complex(z + 1.0)
    rhs = z * gamma_complex(z)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_ebeta_spec_validation():
    with pytest.raises(ValueError):
        EbetaSpec(beta=0.0)
    with pytest.raises(ValueError):
        EbetaSpec(beta=-1.0)
    for beta in (1 + 1j, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="beta must be a positive finite real number"):
            EbetaSpec(beta)
    for c in (1 + 1j, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="damping constant c must be a finite real number"):
            EbetaSpec(1.0, c)


def test_e_beta_positive_and_continuous():
    kernel = EbetaSpec(1.0, 0.0)
    xs = np.linspace(0.05, 1.0, 40)
    vals = np.array([e_beta(x, kernel) for x in xs])
    assert np.all(vals > 0)
    # no jumps: neighbouring samples stay within a modest factor
    assert np.max(np.abs(np.diff(np.log(vals)))) < 0.5


def test_e_beta_domain_error():
    with pytest.raises(ValueError):
        e_beta(0.0, EbetaSpec(1.0))
    with pytest.raises(ValueError):
        e_beta(-0.5, EbetaSpec(1.0))


def test_e_beta_against_mpmath_oracle():
    # direct high-precision quadrature of the defining integral, C != 0
    kernel = EbetaSpec(1.5, 0.7)
    x = 0.3
    exact = float(
        mp.quad(
            lambda s: mp.e ** (-0.7 * s) * s ** (1.5 - 1.0) * x ** (s - 1.0) / mp.gamma(s),
            [0, 1, 8, 60],
        )
    )
    assert e_beta(x, kernel) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_e_beta_asymptotic_ratio_approaches_one(beta):
    kernel = EbetaSpec(beta, 0.0)
    ratios = []
    for x in (1e-4, 1e-6, 1e-8):
        ratios.append(
            e_beta(x, kernel) * x * abs(math.log(x)) ** (beta + 1.0) / math.gamma(beta + 1.0)
        )
    # monotone approach to 1 within the 1/ln(x) correction band
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[0] - 1.0 < 5.0 / abs(math.log(1e-4))


def test_e_beta_lower_bound_constant():
    for beta in (1.0, 2.0):
        kernel = EbetaSpec(beta, 0.0)
        m_fit = min(
            e_beta(x, kernel) * x * abs(math.log(x)) ** (beta + 1.0)
            for x in np.geomspace(1e-8, 0.5, 20)
        )
        assert m_fit > 0.0


def test_e_beta_monotone_near_zero():
    kernel = EbetaSpec(1.0, 0.0)
    xs = np.geomspace(1e-5, 1e-3, 9)
    vals = [e_beta(x, kernel) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_moment_matches_fransen_robinson_constant():
    # m(2) * Gamma(2) is the integral of 1/Gamma(s) over (0, inf)
    value = m_moment(EbetaSpec(2.0, 0.0), 1.0) * math.gamma(2.0)
    assert value == pytest.approx(2.8077702420285193, rel=1e-7)


def test_moment_matches_x_space_oracle():
    # brute-force x-space quadrature with an asymptotic head; the head keeps
    # an O(1/ln delta) error, so the agreement tolerance is a few 1e-3
    from scipy.integrate import quad

    beta = 1.0
    kernel = EbetaSpec(beta, 0.0)
    delta = 1e-12
    tail, _ = quad(lambda x: e_beta(x, kernel), delta, 1.0, epsabs=0.0, epsrel=1e-9, limit=400)
    head = math.gamma(beta + 1.0) / (beta * abs(math.log(delta)) ** beta)
    oracle = (tail + head) / math.gamma(beta)
    assert m_moment(kernel, 1.0) == pytest.approx(oracle, rel=5e-3)


def test_moment_finite_across_orders():
    for beta in (0.25, 0.5, 1.0, 4.0, 16.0):
        value = m_moment(EbetaSpec(beta, 0.0), 1.0)
        assert math.isfinite(value) and value > 0


def test_moment_overflow_raises_package_errors():
    # Gamma(172) and the moment on (0, 1e6) both exceed a double
    with pytest.raises(NumericalError, match="Gamma"):
        m_moment(EbetaSpec(172.0, 0.0), 1.0)
    with pytest.raises(QuadratureError, match="overflows"):
        m_moment(EbetaSpec(4.0, 0.0), 1e6)


def test_moment_omega_dependence():
    kernel = EbetaSpec(1.0, 0.0)
    assert m_moment(kernel, 2.0) > m_moment(kernel, 1.0)


def test_moment_log_bound_fitted_constant():
    moments = {n: m_moment(EbetaSpec(float(n), 0.0), 1.0) for n in (4, 8, 16)}
    fitted = max(math.log(n) * moments[n] ** (1.0 / n) for n in moments)
    assert fitted < 5.0
    for n, m_val in moments.items():
        assert m_val <= (fitted / math.log(n)) ** n * (1.0 + 1e-12)
    assert moments[4] > moments[8] > moments[16]


def test_cumulative_consistency_with_pointwise():
    # d/da of the cumulative matches the kernel (central difference check)
    kernel = EbetaSpec(1.5, 0.0)
    a, da = 0.4, 1e-5
    derivative = (e_beta_cumulative(a + da, kernel) - e_beta_cumulative(a - da, kernel)) / (2 * da)
    assert derivative == pytest.approx(e_beta(a, kernel), rel=1e-5)


def test_stirling_ratio_values():
    # 1/(sqrt(2 pi) e^{-1}) at the bottom of the admissible range
    assert stirling_gamma_check(1.0) == pytest.approx(math.e / math.sqrt(2 * math.pi), rel=1e-12)
    assert stirling_gamma_check(10.0) == pytest.approx(1.0, abs=1e-2)
    assert stirling_gamma_check(100.0) == pytest.approx(1.0, abs=1e-3)


def test_stirling_log_space_survives_huge_orders():
    assert stirling_gamma_check(1e4) == pytest.approx(1.0, abs=1e-4)


def test_stirling_rejects_small_orders():
    with pytest.raises(ValueError):
        stirling_gamma_check(0.5)
