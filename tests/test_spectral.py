import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triangulab import make_grid, spectral
from triangulab.exceptions import QuadratureError
from triangulab.experiments import _phi_plus
from triangulab.operators import build_fractional, operator_norm
from triangulab.spectral import (
    default_contour,
    eigenvalues_with_machine_noise,
    macaev_norm,
    riesz_calculus,
    schatten_norm,
    spectral_distance,
    verify_sigma_equality,
    verify_spectral_mapping,
)


def test_nilpotent_norm_roots_decrease_to_zero():
    rng = np.random.default_rng(14)
    n = 10
    nil = np.tril(rng.standard_normal((n, n)), -1).astype(complex)
    roots = []
    power = nil.copy()
    for k in range(1, n + 1):
        nrm = operator_norm(power)
        roots.append(nrm ** (1.0 / k))
        power = power @ nil
    assert roots[-1] == 0.0
    assert all(a >= b - 1e-12 for a, b in zip(roots[1:], roots[2:]))


# ---------------------------------------------------------------- ideal norms


def test_macaev_rank_one_projection():
    p = np.zeros((5, 5), dtype=complex)
    p[0, 0] = 1.0
    assert macaev_norm(p) == pytest.approx(1.0, abs=1e-14)


def test_macaev_closed_form():
    value = macaev_norm(np.diag([3.0, 2.0, 1.0]).astype(complex))
    assert value == pytest.approx(3.0 + 2.0 / 3.0 + 1.0 / 5.0, abs=1e-13)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_macaev_between_cauchy_schwarz_and_trace(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    omega_norm = macaev_norm(a)
    assert omega_norm <= schatten_norm(a, 1.0) + 1e-10
    cs = math.sqrt(sum(1.0 / (2 * k - 1) ** 2 for k in range(1, 9)))
    assert omega_norm <= schatten_norm(a, 2.0) * cs + 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_schatten_monotone_in_p(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    values = [schatten_norm(a, p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    assert all(x >= y - 1e-10 for x, y in zip(values, values[1:]))


def test_schatten_rejects_bad_exponent():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(3, dtype=complex), 0.5)


# ---------------------------------------------------------------- distances


def test_spectral_distance_identical_sets():
    vals = np.array([1 + 1j, 2.0, -3j])
    assert spectral_distance(vals, vals) == 0.0


def test_spectral_distance_registers_multiplicity():
    a = np.array([1.0, 1.0, 2.0], dtype=complex)
    b = np.array([1.0, 2.0, 2.0], dtype=complex)
    assert spectral_distance(a, b) == pytest.approx(1.0)


def test_spectral_distance_needs_equal_sizes():
    with pytest.raises(ValueError):
        spectral_distance(np.ones(3), np.ones(4))


def test_sigma_equality_triangular():
    entries = np.tril(np.arange(1.0, 17.0).reshape(4, 4)).astype(complex)
    assert verify_sigma_equality(entries) <= 1e-10


def test_sigma_equality_identity():
    assert verify_sigma_equality(np.eye(6, dtype=complex)) == 0.0


def test_sigma_equality_multiplication_plus_volterra():
    g = make_grid(1.0, 64)
    x, h = g.nodes, g.h
    # Nystrom triangle of the kernel 1 + x t/2: h v(x_j, x_k) below the
    # diagonal, the half-cell rule (h/2) v(x_j, x_j - h/4) on it
    volterra = np.tril(h * (1.0 + 0.5 * np.outer(x, x)), -1) + np.diag(
        0.5 * h * (1.0 + 0.5 * x * (x - 0.25 * h))
    )
    t = _phi_plus(g, volterra)
    assert verify_sigma_equality(t) <= 1e-8


# ---------------------------------------------------------------- functional calculus


def test_riesz_identity_function_returns_operator():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    out = riesz_calculus(a, lambda z: z)
    assert np.linalg.norm(out - a, 2) <= 1e-8 * np.linalg.norm(a, 2)


def test_riesz_square_matches_direct_power():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = riesz_calculus(a, lambda z: z * z)
    assert np.linalg.norm(out - a @ a, 2) <= 1e-8 * np.linalg.norm(a @ a, 2)


def test_riesz_is_linear_in_f():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    f = lambda z: z * z
    g = lambda z: 1.0 + 2.0 * z
    combined = riesz_calculus(a, lambda z: 3.0 * f(z) - 0.5 * g(z))
    separate = 3.0 * riesz_calculus(a, f) - 0.5 * riesz_calculus(a, g)
    assert np.linalg.norm(combined - separate, 2) <= 1e-7 * np.linalg.norm(separate, 2)


def test_riesz_never_exceeds_node_budget(monkeypatch):
    a = np.diag([0.5, -0.5]).astype(complex)
    calls = []

    def f(z):
        calls.append(z)
        return np.exp(3.0 * z)

    monkeypatch.setattr(spectral, "_START_NODES", 4)
    monkeypatch.setattr(spectral, "_MAX_NODES", 8)
    with pytest.raises(QuadratureError):
        riesz_calculus(a, f)
    assert len(calls) == 4 + 8


def test_default_contour_encloses_spectrum():
    eigs = np.array([0.0, 1.0, 0.5 + 0.5j])
    center, radius = default_contour(eigs)
    assert np.all(np.abs(eigs - center) < radius)


# ---------------------------------------------------------------- spectral mapping


def _phi_plus_sqrt(n=32):
    g = make_grid(1.0, n)
    return _phi_plus(g, build_fractional(g, 0.5).entries)


def test_mapping_identity_function():
    t = _phi_plus_sqrt()
    report = verify_spectral_mapping(t, lambda z: z)
    assert report.distance <= 1e-8
    assert report.vf_spectral_radius <= 1e-8


def test_mapping_polynomial():
    t = _phi_plus_sqrt()
    report = verify_spectral_mapping(t, lambda z: z * z + 1.0)
    assert report.distance <= 1e-6
    assert report.vf_spectral_radius <= 1e-6


def test_mapping_rational_with_outside_pole():
    t = _phi_plus_sqrt()
    report = verify_spectral_mapping(t, lambda z: z / (z - 5.0))
    assert report.distance <= 1e-6
    assert report.vf_spectral_radius <= 1e-6


# ---------------------------------------------------------------- misc


def test_machine_noise_probe_is_deterministic():
    g = make_grid(1.0, 64)
    # Nystrom triangle of the kernel 1: h below the diagonal, h/2 on it
    v = np.tril(np.full((64, 64), g.h)) - 0.5 * g.h * np.eye(64)
    e1 = eigenvalues_with_machine_noise(v, seed=5)
    e2 = eigenvalues_with_machine_noise(v, seed=5)
    np.testing.assert_array_equal(e1, e2)
