import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triangulab import make_grid
from triangulab.exceptions import NumericalError, QuadratureError
from triangulab.operators import (
    build_fractional,
    build_multiplication,
    build_volterra,
    operator_norm,
    split_schur,
    wrap_matrix,
)
from triangulab.spectral import (
    default_contour,
    eigenvalues_with_machine_noise,
    macaev_norm,
    report_to_text,
    riesz_calculus,
    schatten_norm,
    spectral_distance,
    spectrum,
    verify_sigma_equality,
    verify_spectral_mapping,
)
from .test_operators import cubic_roots


def test_spectrum_strictly_triangular_is_quasinilpotent():
    entries = np.tril(np.ones((6, 6)), -1).astype(complex)
    report = spectrum(entries)
    assert np.max(np.abs(report.eigenvalues)) == 0.0
    assert report.quasinilpotent
    assert report.spectral_radius == 0.0


def test_spectrum_diagonal_values():
    report = spectrum(np.diag([1.0, 2.0, 3.0]).astype(complex))
    np.testing.assert_allclose(sorted(report.eigenvalues.real), [1, 2, 3], atol=1e-14)
    np.testing.assert_allclose(report.s_numbers, [3, 2, 1], atol=1e-14)
    assert report.spectral_radius == pytest.approx(3.0)


def test_spectrum_matches_characteristic_polynomial_oracle():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    report = spectrum(a)
    assert spectral_distance(report.eigenvalues, cubic_roots(a)) <= 1e-8


def test_spectral_radius_below_operator_norm():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        report = spectrum(a)
        assert report.spectral_radius <= operator_norm(a) + 1e-12


def test_quasinilpotency_verdict_reports_tolerance():
    g = make_grid(1.0, 64)
    v = build_volterra(g, lambda x, t: 1.0)
    report = spectrum(v)
    assert report.tol_q == pytest.approx(10.0 / 64)
    assert report.quasinilpotent


def test_quasinilpotency_is_basis_independent():
    g = make_grid(1.0, 32)
    v = build_volterra(g, lambda x, t: 1.0 + x * t)
    pair = split_schur(v)
    conjugated = pair.unitary.conj().T @ v.entries @ pair.unitary
    assert spectrum(v).quasinilpotent == spectrum(conjugated).quasinilpotent


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


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_macaev_between_cauchy_schwarz_and_trace(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    omega_norm = macaev_norm(a)
    assert omega_norm <= schatten_norm(a, 1.0) + 1e-10
    cs = math.sqrt(sum(1.0 / (2 * k - 1) ** 2 for k in range(1, 9)))
    assert omega_norm <= schatten_norm(a, 2.0) * cs + 1e-10


@settings(max_examples=25, deadline=None)
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
    report = verify_sigma_equality(entries)
    assert report.distance <= 1e-10
    assert report.passed


def test_sigma_equality_identity():
    report = verify_sigma_equality(np.eye(6, dtype=complex))
    assert report.distance == 0.0


def test_sigma_equality_multiplication_plus_volterra():
    g = make_grid(1.0, 64)
    t = wrap_matrix(
        build_multiplication(g, lambda x: x).entries
        + build_volterra(g, lambda x, t_: 1.0 + 0.5 * x * t_).entries
    )
    report = verify_sigma_equality(t)
    assert report.distance <= 1e-8


# ---------------------------------------------------------------- functional calculus


def test_riesz_identity_function_returns_operator():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    out = riesz_calculus(a, lambda z: z)
    assert np.linalg.norm(out.entries - a, 2) <= 1e-8 * np.linalg.norm(a, 2)


def test_riesz_square_matches_direct_power():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = riesz_calculus(a, lambda z: z * z)
    assert np.linalg.norm(out.entries - a @ a, 2) <= 1e-8 * np.linalg.norm(a @ a, 2)


def test_riesz_reciprocal_matches_inverse():
    a = np.diag([1.0, 2.0, 4.0]).astype(complex) + np.tril(0.2 * np.ones((3, 3)), -1)
    contour = [(2.0 + 0.0j, 1.8)]  # encloses {1, 2, 4}? no: radius must cover all
    contour = [(2.3 + 0.0j, 2.0)]
    out = riesz_calculus(a, lambda z: 1.0 / z, contour=contour)
    inv = np.linalg.inv(a)
    assert np.linalg.norm(out.entries - inv, 2) <= 1e-6 * np.linalg.norm(inv, 2)


def test_riesz_is_linear_in_f():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    f = lambda z: z * z
    g = lambda z: 1.0 + 2.0 * z
    combined = riesz_calculus(a, lambda z: 3.0 * f(z) - 0.5 * g(z))
    separate = 3.0 * riesz_calculus(a, f).entries - 0.5 * riesz_calculus(a, g).entries
    assert np.linalg.norm(combined.entries - separate, 2) <= 1e-7 * np.linalg.norm(separate, 2)


def test_riesz_never_exceeds_node_budget():
    a = np.diag([0.5, -0.5]).astype(complex)
    calls = []

    def f(z):
        calls.append(z)
        return np.exp(3.0 * z)

    with pytest.raises(QuadratureError):
        riesz_calculus(a, f, start_nodes=4, max_nodes=8)
    assert len(calls) == 4 + 8
    with pytest.raises(ValueError):
        riesz_calculus(a, f, start_nodes=16, max_nodes=8)


def test_riesz_rejects_contour_through_spectrum():
    a = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(NumericalError):
        riesz_calculus(a, lambda z: z, contour=[(0.0 + 0j, 1.0)])


def test_default_contour_encloses_spectrum():
    eigs = np.array([0.0, 1.0, 0.5 + 0.5j])
    ((center, radius),) = default_contour(eigs)
    assert np.all(np.abs(eigs - center) < radius)


# ---------------------------------------------------------------- spectral mapping


def _phi_plus_sqrt(n=32):
    g = make_grid(1.0, n)
    return wrap_matrix(
        build_multiplication(g, lambda x: x).entries + build_fractional(g, 0.5).entries
    )


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
    v = build_volterra(g, lambda x, t: 1.0)
    e1 = eigenvalues_with_machine_noise(v, eps=1e-12, seed=5)
    e2 = eigenvalues_with_machine_noise(v, eps=1e-12, seed=5)
    np.testing.assert_array_equal(e1, e2)


def test_report_serialization_round_trips_fields():
    report = spectrum(np.diag([2.0, 1.0]).astype(complex), tol_q=0.5, schatten_p=(1.0, 2.0))
    text = report_to_text(report)
    lines = dict(line.split(" ", 1) for line in text.strip().splitlines())
    assert float(lines["spectral_radius"]) == pytest.approx(2.0)
    assert float(lines["macaev_omega"]) == pytest.approx(2.0 + 1.0 / 3.0)
    assert lines["quasinilpotent"] == "0"
    assert float(lines["schatten_p1"]) == pytest.approx(3.0)
    assert float(lines["s_number_0"]) == pytest.approx(2.0)
    assert "eigenvalue_1_im" in lines
