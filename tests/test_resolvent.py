import math

import numpy as np
import pytest

from triangulab import make_grid
from triangulab.exceptions import InsufficientDataError, NearSingularError, NumericalError
from triangulab.operators import (
    build_fractional,
    build_multiplication,
    split_given_basis,
    wrap_matrix,
)
from triangulab.resolvent import (
    ResolventProfile,
    _ChainNorms,
    c_norm,
    cn_bound_to_N_bound,
    levinson_classify,
    neumann_residual,
    profile,
    profile_to_csv,
    r_table_to_csv,
    resolvent_norm,
)


def _phi_plus_fractional(n=64, beta=1.0, omega=1.0):
    g = make_grid(omega, n)
    t = wrap_matrix(
        build_multiplication(g, lambda x: x).entries + build_fractional(g, beta).entries,
        omega=omega,
    )
    return t, split_given_basis(t)


# ---------------------------------------------------------------- resolvent norm


def test_resolvent_norm_diagonal_is_reciprocal_distance():
    diag = np.diag([0.0, 1.0, 3.0]).astype(complex)
    lam = 2.0 + 0.5j
    expected = 1.0 / min(abs(lam - d) for d in (0.0, 1.0, 3.0))
    assert resolvent_norm(diag, lam) == pytest.approx(expected, rel=1e-12)


def test_resolvent_norm_zero_operator():
    assert resolvent_norm(np.zeros((4, 4), dtype=complex), 1j) == pytest.approx(1.0, rel=1e-12)


def test_resolvent_norm_matches_dense_inverse():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    lam = 0.7 + 1.9j
    expected = np.linalg.norm(np.linalg.inv(lam * np.eye(8) - a), 2)
    assert resolvent_norm(a, lam) == pytest.approx(expected, rel=1e-8)


def test_resolvent_norm_raises_inside_spectrum():
    diag = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(NearSingularError):
        resolvent_norm(diag, 1.0 + 0.0j)


# ---------------------------------------------------------------- chain norms


def test_c_norm_zero_nilpotent_part():
    t = wrap_matrix(np.diag([0.1, 0.4, 0.9]).astype(complex))
    pair = split_given_basis(t)
    assert c_norm(pair, 0.5 + 1.0j, 1) == 0.0


def test_c_norm_bounded_by_nilpotent_norm_power():
    # each chain factor has norm at most ||V|| since dist(lambda, sigma(S)) >= |Im lambda|
    t, pair = _phi_plus_fractional(48, 1.0)
    v_norm = np.linalg.norm(pair.n_part.entries, 2)
    for n in (1, 2, 5, 9):
        assert c_norm(pair, 0.3 + 0.25j, n) <= v_norm**n * (1 + 1e-12)


def test_c_norm_roots_fall_below_any_epsilon():
    t, pair = _phi_plus_fractional(32, 0.5)
    lam = 0.4 + 0.3j
    roots = [c_norm(pair, lam, n) ** (1.0 / n) for n in (5, 10, 20, 30)]
    assert roots[0] > roots[1] > roots[2] > roots[3]
    assert c_norm(pair, lam, 32) == 0.0  # strict triangle dies exactly at the dimension


def test_c_norm_validates_arguments():
    t, pair = _phi_plus_fractional(16, 1.0)
    with pytest.raises(ValueError):
        c_norm(pair, 0.5 + 0.0j, 3)
    with pytest.raises(ValueError):
        c_norm(pair, 0.5 + 0.5j, 0)
    complex_diag = wrap_matrix(np.diag([1j, 2.0]).astype(complex) + np.tril(np.ones((2, 2)), -1))
    with pytest.raises(ValueError):
        c_norm(split_given_basis(complex_diag), 0.5j, 1)


def test_profile_estimator_matches_exact_chain_norms():
    # the sweep's warm power iteration against the dense-SVD route of c_norm
    t, pair = _phi_plus_fractional(48, 1.0)
    y = 0.25
    prof = profile(t, pair, [y], x_samples=5, power_x_samples=5, n_max=20)
    xs = prof.power_x_grid
    for k in (1, 3, 8, 15):
        exact = max(c_norm(pair, x + 1j * y, k) ** (1.0 / k) for x in xs)
        assert prof.r[k - 1, 0] == pytest.approx(exact, rel=1e-5)


# ---------------------------------------------------------------- profiles


def test_profile_zero_nilpotent_part():
    g = make_grid(1.0, 16)
    t = build_multiplication(g, lambda x: x)
    pair = split_given_basis(t)
    ys = [0.5, 0.25, 0.125]
    prof = profile(t, pair, ys, x_samples=65)
    assert np.all(prof.count_n == 0)
    for j, y in enumerate(ys):
        assert prof.envelope_m[j] == pytest.approx(1.0 / y, rel=1e-3)


def test_profile_counts_are_bounded_integers():
    t, pair = _phi_plus_fractional(48, 1.0)
    prof = profile(t, pair, [0.5, 0.25], x_samples=9, power_x_samples=9)
    assert prof.count_n.dtype.kind == "i"
    assert np.all(prof.count_n <= prof.n_max)


def test_profile_counts_vanish_above_chain_ceiling():
    # once |y|/2 exceeds every r_n the count is zero
    t, pair = _phi_plus_fractional(32, 1.0)
    prof = profile(t, pair, [8.0], x_samples=9, power_x_samples=9)
    assert prof.count_n[0] == 0


def test_profile_rejects_zero_ladder_point():
    t, pair = _phi_plus_fractional(16, 1.0)
    with pytest.raises(ValueError):
        profile(t, pair, [0.5, 0.0])


def test_fitted_p_reproducible_on_disjoint_half_ladders():
    t, pair = _phi_plus_fractional(128, 1.0)
    full = [2.0 ** (-e / 3.0) for e in range(9)]
    prof_a = profile(t, pair, full[0::2], x_samples=33, power_x_samples=17)
    prof_b = profile(t, pair, full[1::2], x_samples=33, power_x_samples=17)
    assert abs(prof_a.fitted_p - prof_b.fitted_p) <= 0.3


def test_profile_csv_headers(tmp_path):
    t, pair = _phi_plus_fractional(24, 1.0)
    prof = profile(t, pair, [0.5, 0.25], x_samples=5, power_x_samples=5)
    p1 = tmp_path / "profile.csv"
    p2 = tmp_path / "r.csv"
    profile_to_csv(prof, p1)
    r_table_to_csv(prof, p2)
    assert p1.read_text().splitlines()[0] == "y,count_n,envelope_m,ln_envelope_m"
    assert p2.read_text().splitlines()[0] == "n,y,r_n"


# ---------------------------------------------------------------- classification


def _synthetic_profile(ys, counts, envelopes, n_max=256):
    ys = np.asarray(ys, dtype=float)
    counts = np.asarray(counts, dtype=int)
    envelopes = np.asarray(envelopes, dtype=float)
    return ResolventProfile(
        y_grid=ys,
        x_grid=np.linspace(-1, 2, 5),
        power_x_grid=np.linspace(-1, 2, 5),
        n_max=n_max,
        r=np.zeros((min(n_max, 16), ys.size)),
        count_n=counts,
        envelope_m=envelopes,
        fitted_p=float("nan"),
        fitted_q=float("nan"),
        envelope_c=1.0,
        envelope_m_const=1.0,
        envelope_violation=1.0,
        saturated=counts >= n_max,
    )


def test_levinson_integrable_on_subcritical_law():
    ys = np.geomspace(1.0, 0.01, 8)
    counts = np.rint(np.exp(2.0 * ys ** (-0.5))).astype(int)
    prof = _synthetic_profile(ys, counts, np.exp(np.minimum(counts, 500) / 10.0), n_max=10**9)
    verdict = levinson_classify(prof)
    assert verdict.verdict == "INTEGRABLE"
    assert verdict.p == pytest.approx(0.5, abs=0.1)
    assert verdict.strongly_decomposable_evidence


def test_levinson_divergent_on_supercritical_law():
    ys = np.geomspace(2.0, 0.5, 8)
    counts = np.rint(np.exp(1.0 * ys ** (-2.0))).astype(int)
    prof = _synthetic_profile(ys, counts, np.exp(counts / 10.0), n_max=10**9)
    verdict = levinson_classify(prof)
    assert verdict.verdict == "DIVERGENT"
    assert verdict.p == pytest.approx(2.0, abs=0.2)
    assert not verdict.strongly_decomposable_evidence


def test_levinson_inconclusive_near_critical():
    ys = np.geomspace(1.0, 0.1, 8)
    counts = np.rint(np.exp(3.0 * ys ** (-1.0))).astype(np.int64)
    prof = _synthetic_profile(ys, counts, np.exp(np.minimum(counts, 500) / 10.0), n_max=10**18)
    verdict = levinson_classify(prof)
    assert verdict.verdict == "INCONCLUSIVE"


def test_levinson_requires_enough_points():
    ys = np.geomspace(1.0, 0.1, 5)
    counts = np.array([1, 1, 0, 3, 4])  # only two usable points
    prof = _synthetic_profile(ys, counts, np.full(5, 2.0))
    with pytest.raises(InsufficientDataError):
        levinson_classify(prof)


def test_levinson_excludes_saturated_points():
    ys = np.geomspace(1.0, 0.1, 8)
    counts = np.rint(np.exp(2.0 * ys ** (-0.5))).astype(int)
    counts[-2:] = 300  # saturate the deepest rungs at n_max
    prof = _synthetic_profile(ys, counts, np.exp(np.minimum(counts, 500) / 10.0), n_max=300)
    verdict = levinson_classify(prof)
    assert verdict.points_used == 6


# ---------------------------------------------------------------- closed-form bound


def test_count_bound_formula():
    assert cn_bound_to_N_bound(1.0, 1.0, 2.0) == pytest.approx(1.0)


def test_count_bound_monotone_in_y():
    values = [cn_bound_to_N_bound(0.5, 2.0, y) for y in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_count_bound_validates():
    with pytest.raises(ValueError):
        cn_bound_to_N_bound(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cn_bound_to_N_bound(1.0, 1.0, 0.0)


# ---------------------------------------------------------------- chain series


def test_neumann_series_exact_for_nilpotent_part():
    rng = np.random.default_rng(33)
    g = make_grid(1.0, 32)
    t = wrap_matrix(
        build_multiplication(g, lambda x: x).entries
        + np.tril(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)), -1) * 0.3
    )
    pair = split_given_basis(t)
    for lam in (0.5 + 0.3j, -1.0 + 0.1j, 2.0 - 0.8j):
        assert neumann_residual(t, pair, lam) <= 1e-8


def test_neumann_truncation_error_shrinks_with_order():
    t, pair = _phi_plus_fractional(24, 1.0)
    lam = 0.5 + 0.6j
    res_short = neumann_residual(t, pair, lam, n_max=2)
    res_long = neumann_residual(t, pair, lam, n_max=24)
    assert res_long < res_short


def test_neumann_needs_off_axis_lambda():
    t, pair = _phi_plus_fractional(8, 1.0)
    with pytest.raises(ValueError):
        neumann_residual(t, pair, 0.5 + 0.0j)


def test_chain_power_iteration_raises_when_unconverged():
    # eigenvalues 1 and 0.99 with the start vector almost on the smaller one:
    # after the 60-step cap the estimate still reads about 0.99001, not 1
    chain = _ChainNorms(np.diag([1.0, 0.99]).astype(complex))
    start = np.array([0.01, 1.0], dtype=complex)
    chain.v = start / np.linalg.norm(start)
    with pytest.raises(NumericalError):
        chain.step_norm()
