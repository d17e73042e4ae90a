import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triangulab import (
    FrequencyRangeError,
    GridFunction,
    check_frequency,
    l2_inner,
    l2_norm,
    make_grid,
    max_frequency,
    sample_exponential,
    sample_function,
)


def test_make_grid_midpoints():
    g = make_grid(1.0, 4)
    assert g.h == 0.25
    np.testing.assert_allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])


def test_make_grid_omega_two():
    g = make_grid(2.0, 2)
    assert g.h == 1.0
    np.testing.assert_allclose(g.nodes, [0.5, 1.5])


@pytest.mark.parametrize(
    "omega,n",
    [(1.0, 0), (1.0, 1), (0.0, 4), (-2.0, 4), (1.0, 2.5), (math.inf, 4), (math.nan, 4)],
)
def test_make_grid_rejects_bad_arguments(omega, n):
    with pytest.raises(ValueError):
        make_grid(omega, n)


def test_make_grid_accepts_numpy_integers():
    g = make_grid(1.0, np.int64(4))
    assert g == make_grid(1.0, 4)
    assert g.nodes.shape == (4,)


def test_grid_invariants():
    g = make_grid(3.7, 129)
    assert abs(g.h * g.n - g.omega) <= 1e-15 * g.omega
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < g.omega


def test_l2_norm_constant_is_exact():
    g = make_grid(1.0, 16)
    f = GridFunction(g, np.ones(16, dtype=complex))
    assert l2_norm(f) == pytest.approx(1.0, abs=1e-15)


def test_l2_norm_zero():
    g = make_grid(1.0, 8)
    assert l2_norm(GridFunction(g, np.zeros(8, dtype=complex))) == 0.0


def test_l2_norm_linear_function():
    # independent oracle: integral of x^2 over (0,1) is exactly 1/3
    g = make_grid(1.0, 1024)
    f = sample_function(g, lambda x: x)
    assert l2_norm(f) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
)
def test_l2_norm_scales_homogeneously(alpha):
    g = make_grid(1.0, 32)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    f = GridFunction(g, values)
    scaled = GridFunction(g, alpha * values)
    assert l2_norm(scaled) == pytest.approx(abs(alpha) * l2_norm(f), rel=1e-12, abs=1e-12)


def test_inner_product_matches_norm():
    g = make_grid(2.0, 64)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert l2_inner(f, f).real == pytest.approx(l2_norm(f) ** 2, rel=1e-12)
    assert abs(l2_inner(f, f).imag) < 1e-12


def test_exponential_zero_frequency_is_constant():
    g = make_grid(1.0, 8)
    f = sample_exponential(g, 0.0)
    np.testing.assert_allclose(f.values, np.ones(8))


def test_exponential_samples_unimodular():
    g = make_grid(1.5, 33)
    f = sample_exponential(g, 17.3, sign=-1)
    np.testing.assert_allclose(np.abs(f.values), 1.0, atol=1e-14)


def test_exponential_norm_is_sqrt_omega():
    for omega in (0.5, 1.0, 2.0):
        g = make_grid(omega, 64)
        f = sample_exponential(g, 5.0)
        assert l2_norm(f) == pytest.approx(math.sqrt(omega), rel=1e-12)


def test_exponential_at_nyquist_alternates_phase():
    # At xi = pi/h the midpoint samples are i * (-1)^k; the caller owns the guard.
    g = make_grid(1.0, 8)
    f = sample_exponential(g, math.pi / g.h)
    expected = 1j * (-1.0) ** np.arange(8)
    np.testing.assert_allclose(f.values, expected, atol=1e-12)


def test_frequency_guard():
    g = make_grid(1.0, 8)
    limit = max_frequency(g)
    assert limit == pytest.approx(math.pi / (4 * g.h))
    check_frequency(g, limit * 0.999)
    with pytest.raises(FrequencyRangeError):
        check_frequency(g, limit * 1.001)


def test_refinement_consistency_second_order():
    # midpoint-rule norms of a smooth function converge at order >= 2
    diffs = []
    for n in (64, 128, 256):
        f_n = sample_function(make_grid(1.0, n), lambda x: math.sin(3.0 * x))
        f_2n = sample_function(make_grid(1.0, 2 * n), lambda x: math.sin(3.0 * x))
        diffs.append(abs(l2_norm(f_n) - l2_norm(f_2n)))
    assert diffs[0] / diffs[1] > 3.5
    assert diffs[1] / diffs[2] > 3.5


def test_grid_function_shape_check():
    g = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(7, dtype=complex))
