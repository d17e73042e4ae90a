import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from triangulab import make_grid, resolvent
from triangulab.exceptions import InsufficientDataError, NearSingularError
from triangulab.experiments import _default_ladder, _phi_plus
from triangulab.operators import (
    as_entries,
    build_ebeta_operator,
    build_fractional,
    build_multiplication,
    split_given_basis,
    split_schur,
    wrap_matrix,
)
from triangulab.resolvent import (
    ResolventProfile,
    _chain_roots,
    _dense_log_norm,
    _dense_resolvent_norm,
    _envelope,
    _gemm,
    _triangle_evaluator,
    c_norm,
    count_bound_constant,
    levinson_classify,
    neumann_residual,
    profile,
    resolvent_norm,
)
from triangulab.specfun import EbetaSpec

from .strategies import triangular_operators


EPS = np.finfo(float).eps


def _phi_plus_fractional(n=64, beta=1.0, omega=1.0):
    g = make_grid(omega, n)
    t = _phi_plus(g, build_fractional(g, beta).entries)
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
    assert resolvent_norm(a, lam) == _dense_resolvent_norm(a, lam)  # not a triangle


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
    v_norm = np.linalg.norm(pair.strict, 2)
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


def _assert_sweep_matches_c_norm(pair, powers):
    # the sweep's warm power iteration against the dense-SVD route of c_norm
    y = 0.25
    prof = profile(pair, [y], x_samples=5, power_x_samples=5, n_max=20)
    xs = prof.power_x_grid
    for k in powers:
        exact = max(c_norm(pair, x + 1j * y, k) ** (1.0 / k) for x in xs)
        assert prof.r[k - 1, 0] == pytest.approx(exact, rel=1e-5)


def test_profile_estimator_matches_exact_chain_norms():
    # a real V: the sweep applies it by real GEMM
    t, pair = _phi_plus_fractional(48, 1.0)
    assert not np.any(pair.strict.imag)
    _assert_sweep_matches_c_norm(pair, (1, 3, 8, 15))


def test_profile_estimator_matches_exact_chain_norms_on_a_schur_split():
    # phi + J^1 has real Schur vectors; a diagonal unitary similarity makes
    # them complex, so V is complex and the sweep keeps the complex GEMM
    t, _ = _phi_plus_fractional(48, 1.0)
    phase = np.exp(1j * np.linspace(0.0, 3.0, 48))
    schur = split_schur(wrap_matrix(phase[:, None] * t.entries * phase.conj()[None, :]))
    assert np.any(schur.strict.imag)
    # its chains stop one power earlier (r_15 reads 0.0): compare up to r_14
    _assert_sweep_matches_c_norm(schur, (1, 3, 8, 14))


# ---------------------------------------------------------------- profiles


def test_profile_zero_nilpotent_part():
    g = make_grid(1.0, 16)
    t = build_multiplication(g, lambda x: x)
    pair = split_given_basis(t)
    ys = [0.5, 0.25, 0.125]
    prof = profile(pair, ys, x_samples=65)
    assert np.all(prof.count_n == 0)
    for j, y in enumerate(ys):
        assert prof.envelope_m[j] == pytest.approx(1.0 / y, rel=1e-3)
    _assert_envelope_is_dense_max(t, prof)


def _evaluator_sweep(triangle, x_grid, y):
    # the envelope's evaluator at every x sample of one line
    evaluate = _triangle_evaluator(triangle)
    return [evaluate(x + 1j * y)[0] for x in x_grid]


def _close_to_dense(norm, dense, tnorm, lam):
    # 1e-12 relative, plus the dense oracle's own rounding: svdvals has
    # sigma_min(lambda I - T) only to a few eps ||lambda I - T|| absolute, more
    # than 1e-12 relative past resolvent norms of about 1e3 (against mpmath,
    # 5e-13 at 1e4 and 9e-7 at 2e10, where the evaluator stays within 1e-15)
    return abs(1.0 / norm - 1.0 / dense) <= 1e-12 / dense + 16 * EPS * (tnorm + abs(lam))


def _assert_matches_dense(norms, t, lams):
    entries = as_entries(t)
    tnorm = float(scipy.linalg.svdvals(entries)[0])
    for norm, lam in zip(norms, lams):
        assert _close_to_dense(norm, _dense_resolvent_norm(entries, lam), tnorm, lam)


def _assert_envelope_is_dense_max(t, prof):
    # exact pruning: the envelope is the maximum of the full sweep of its own
    # evaluator, first attained at the same x; oracle: that evaluator agrees
    # with the dense SVD at every sample
    for j, y in enumerate(prof.y_grid):
        swept = _evaluator_sweep(as_entries(t), prof.x_grid, y)
        assert prof.envelope_m[j] == max(swept)
        assert prof.envelope_x[j] == prof.x_grid[int(np.argmax(swept))]
        _assert_matches_dense(swept, t, prof.x_grid + 1j * y)


@pytest.mark.parametrize(
    "kind, beta",
    [("fractional", 0.5), ("fractional", 1.0), ("ebeta", 2.0)],
    ids=["frac-0.5", "frac-1", "ebeta-2"],
)
def test_envelope_equals_dense_sweep(kind, beta):
    g = make_grid(1.0, 64)
    v = build_fractional(g, beta) if kind == "fractional" else build_ebeta_operator(g, EbetaSpec(beta))
    t = _phi_plus(g, v.entries)
    # the envelope does not read the chain sweep, so keep that short
    prof = profile(split_given_basis(t), _default_ladder(kind, beta), n_max=4, power_x_samples=5)
    _assert_envelope_is_dense_max(t, prof)


def test_envelope_equals_dense_sweep_on_random_nonnormal_matrix():
    # the Lipschitz bound holds for any matrix; the triangle makes this one
    # far from normal (resolvent norms ~100 at distance >= 0.1 from the spectrum);
    # the envelope runs on its complex Schur triangle, the oracle on a itself
    rng = np.random.default_rng(17)
    a = (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))) / np.sqrt(40.0)
    a += 2.0 * np.triu(rng.standard_normal((40, 40)), 1) / np.sqrt(40.0)
    r = scipy.linalg.schur(a, output="complex")[0]
    evaluate, t_inf = _triangle_evaluator(r), float(np.linalg.norm(r, np.inf))
    x_grid = np.linspace(-3.0, 3.0, 64)
    samples = []  # shared across the three lines, as profile shares it across its ladder
    for y in (1.0, 0.3, -0.1):
        swept = _evaluator_sweep(r, x_grid, y)
        top, x_top, evals, dense_evals = _envelope(evaluate, t_inf, x_grid, y, samples)
        assert top == max(swept)
        assert x_top == x_grid[int(np.argmax(swept))]
        assert 1 <= evals < x_grid.size
        assert dense_evals == 0
        _assert_matches_dense(swept, a, x_grid + 1j * y)


def test_envelope_skips_samples_on_the_default_fractional_ladder():
    t, pair = _phi_plus_fractional(64, 1.0)
    prof = profile(pair, _default_ladder("fractional", 1.0), n_max=4, power_x_samples=5)
    assert prof.envelope_evals.dtype.kind == "i"
    assert np.all(prof.envelope_evals >= 1)
    assert np.all(prof.envelope_evals < prof.x_grid.size)
    for arr in (prof.envelope_x, prof.envelope_evals):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_envelope_carries_bounds_across_the_ladder():
    # samples from earlier ladder points rule out samples at later ones, so
    # the ladder takes fewer evaluations than a fresh sample list per point
    t, pair = _phi_plus_fractional(64, 1.0)
    ladder = _default_ladder("fractional", 1.0)
    prof = profile(pair, ladder, n_max=4, power_x_samples=5)
    evaluate, t_inf = _triangle_evaluator(t.entries), float(np.linalg.norm(t.entries, np.inf))
    per_line = sum(_envelope(evaluate, t_inf, prof.x_grid, y, [])[2] for y in ladder)
    assert prof.envelope_evals.sum() < per_line
    _assert_envelope_is_dense_max(t, prof)


def test_envelope_raises_on_a_sample_inside_the_spectrum():
    # x_samples=5 puts the grid at -1, 0, 1, 2, 3: two samples sit on eigenvalues
    t = wrap_matrix(np.diag([0.0, 2.0]).astype(complex))
    with pytest.raises(NearSingularError):
        profile(split_given_basis(t), [1e-300], x_samples=5)


def _steep_triangle():
    # strongly non-normal: resolvent norms 2e6 at 0.5 + 0.5j and 1.9e10 at 0.5 + 0.1j
    return (np.diag(np.linspace(0.0, 1.0, 12)) + 2.0 * np.tril(np.ones((12, 12)), -1)).astype(complex)


def _mp_resolvent_norm(a, lam):
    # ||(lambda I - a)^{-1}|| from 40-digit singular values
    n = a.shape[0]
    shifted = lam * np.eye(n) - a
    with mp.workdps(40):
        m = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in shifted])
        s = mp.svd_c(m, compute_uv=False)
        return float(1 / min(s[i] for i in range(n)))


def test_triangle_resolvent_norm_on_a_double_sigma_min():
    # sigma_min(lambda I - diag(0, 2, 5)) = |1 + 0.5j| twice at lambda = 1 + 0.5j
    a = np.diag([0.0, 2.0, 5.0]).astype(complex)
    norm, dense = _triangle_evaluator(a)(1.0 + 0.5j)
    assert not dense
    assert norm == pytest.approx(1.0 / abs(1.0 + 0.5j), rel=1e-15)
    assert norm == pytest.approx(_dense_resolvent_norm(a, 1.0 + 0.5j), rel=1e-15)


def test_triangle_resolvent_norm_is_dense_below_three_dimensions():
    # ARPACK's complex driver needs a basis of 3 vectors
    for a in (np.diag([0.0, 2.0]).astype(complex), np.array([[1.0 + 0.0j]])):
        norm, dense = _triangle_evaluator(a)(1.0 + 0.5j)
        assert dense
        assert norm == _dense_resolvent_norm(a, 1.0 + 0.5j)


def test_triangle_resolvent_norm_on_a_strongly_nonnormal_triangle():
    # a resolvent norm of 2e6 at distance 0.5 from the spectrum: against
    # mpmath the dense SVD is off by 1.2e-10 relative here, the evaluator by 1.1e-16
    a = _steep_triangle()
    for tri in (a, a.T.copy()):
        norm, dense = _triangle_evaluator(tri)(0.5 + 0.5j)
        assert not dense
        assert norm > 1e6
        assert norm == pytest.approx(_mp_resolvent_norm(a, 0.5 + 0.5j), rel=1e-14)
        _assert_matches_dense([norm], tri, [0.5 + 0.5j])


@pytest.mark.parametrize("lam", [0.5 + 0.5j, 0.5 + 0.1j])
def test_triangle_resolvent_norm_matches_mpmath_where_the_dense_svd_drifts(lam):
    # resolvent norms 2e6 and 1.9e10: the dense SVD is off by 1.2e-10 and
    # 9.0e-7 relative here (its error is absolute on sigma_min); the public
    # resolvent_norm answers an exact triangle by the evaluator
    a = _steep_triangle()
    exact = _mp_resolvent_norm(a, lam)
    for tri in (a, a.T.copy()):
        norm, dense = _triangle_evaluator(tri)(lam)
        assert not dense
        assert norm == pytest.approx(exact, rel=1e-14)
        assert resolvent_norm(tri, lam) == resolvent_norm(wrap_matrix(tri), lam) == norm


def test_resolvent_norm_of_an_almost_triangular_matrix_is_the_dense_value():
    a = _steep_triangle()
    a[2, 5] = 1e-300  # one entry above the diagonal of a lower triangle
    assert _triangle_evaluator(a)(0.5 + 0.5j)[1]
    assert resolvent_norm(a, 0.5 + 0.5j) == _dense_resolvent_norm(a, 0.5 + 0.5j)


@pytest.mark.parametrize("y", [0.0, 1e-300, 1e-20], ids=["eigenvalue", "overflow", "inside-the-band"])
def test_triangle_resolvent_norm_raises_on_the_spectrum(y):
    # at 0 a solve meets a zero pivot; at 1e-300 the solves overflow; at 1e-20
    # they stay finite but the estimate sits inside the 1e-12 band: each time
    # the dense path raises, through the evaluator and the public function
    a = np.diag([0.0, 2.0, 5.0]).astype(complex)
    with pytest.raises(NearSingularError):
        _triangle_evaluator(a)(1j * y)
    with pytest.raises(NearSingularError):
        resolvent_norm(a, 1j * y)


def _counting_trtrs(monkeypatch):
    # counts the triangular solves of an evaluator of _triangle_evaluator, two per step
    calls = []
    get = scipy.linalg.get_lapack_funcs

    def counting(names, arrays):
        (trtrs,) = get(names, arrays)
        return (lambda *args, **kwargs: calls.append(1) or trtrs(*args, **kwargs),)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    return calls


def test_triangle_resolvent_norm_falls_back_when_unsettled(monkeypatch):
    # the cap counts applications of (A* A)^{-1}: a sample that converges in
    # k of them settles under a cap of k and takes the dense path under k - 1
    t, _ = _phi_plus_fractional(32, 1.0)
    lam = 0.5 + 0.25j
    calls = _counting_trtrs(monkeypatch)
    norm, dense = _triangle_evaluator(t.entries)(lam)
    steps = len(calls) // 2
    assert not dense and 12 <= steps < resolvent._LANCZOS_STEPS
    monkeypatch.setattr(resolvent, "_LANCZOS_STEPS", steps)
    assert _triangle_evaluator(t.entries)(lam) == (norm, False)
    monkeypatch.setattr(resolvent, "_LANCZOS_STEPS", steps - 1)
    norm, dense = _triangle_evaluator(t.entries)(lam)
    assert dense
    assert norm == _dense_resolvent_norm(t.entries, lam)


def test_triangle_resolvent_norm_depends_on_the_triangle_and_lambda_alone():
    # the start vector and ARPACK's restart generator are fixed, and each
    # lambda rewrites the whole diagonal of the evaluator's copy of -R, so the
    # same bits come back after unrelated calls and from an evaluator reused
    # at another lambda; on diag(0, 0, 5) the Krylov space of the start vector
    # is exhausted after two steps
    t, _ = _phi_plus_fractional(32, 1.0)
    cases = [
        (np.diag([0.0, 0.0, 5.0]).astype(complex), 1.0 + 0.5j),
        (t.entries.T.copy(), 0.5 + 0.25j),
        (t.entries, -0.25 + 0.125j),
    ]
    first = [_triangle_evaluator(tri)(lam) for tri, lam in cases]
    assert first[0] == (pytest.approx(1.0 / abs(1.0 + 0.5j), rel=1e-15), False)
    rng = np.random.default_rng(5)
    b = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    scipy.sparse.linalg.eigsh(b @ b.conj().T, k=2)  # an unrelated ARPACK run from an unseeded start
    evaluators = [_triangle_evaluator(tri) for tri, _ in cases]
    for evaluate, (_, lam) in zip(evaluators, cases):
        evaluate(lam + 0.1)
    assert [evaluate(lam) for evaluate, (_, lam) in zip(evaluators, cases)] == first
    assert [_triangle_evaluator(tri)(lam) for tri, lam in cases] == first


@pytest.mark.parametrize(
    "kind, beta",
    [("fractional", 1.0), ("fractional", 0.5), ("ebeta", 2.0), ("ebeta", 0.5)],
    ids=["frac-1", "frac-0.5", "ebeta-2", "ebeta-0.5"],
)
def test_envelope_fallbacks_vanish_on_the_default_profiles(kind, beta):
    # the criterion-6 profiles at n=256; the envelope does not read the chain sweep
    g = make_grid(1.0, 256)
    v = build_fractional(g, beta) if kind == "fractional" else build_ebeta_operator(g, EbetaSpec(beta))
    pair = split_given_basis(_phi_plus(g, v.entries))
    prof = profile(pair, _default_ladder(kind, beta), n_max=2, power_x_samples=3)
    assert prof.envelope_fallbacks.dtype.kind == "i"
    np.testing.assert_array_equal(prof.envelope_fallbacks, np.zeros(prof.y_grid.size))
    with pytest.raises(ValueError):
        prof.envelope_fallbacks[0] = 1


@pytest.mark.parametrize("name", ["n_max", "x_samples", "power_x_samples"])
def test_profile_rejects_empty_sample_counts(name):
    t, pair = _phi_plus_fractional(16, 1.0)
    with pytest.raises(ValueError, match=name):
        profile(pair, [0.5, 0.25], **{name: 0})


def test_profile_counts_are_bounded_integers():
    t, pair = _phi_plus_fractional(48, 1.0)
    prof = profile(pair, [0.5, 0.25], x_samples=9, power_x_samples=9)
    assert prof.count_n.dtype.kind == "i"
    assert np.all(prof.count_n <= prof.n_max)


def test_profile_counts_vanish_above_chain_ceiling():
    # once |y|/2 exceeds every r_n the count is zero
    t, pair = _phi_plus_fractional(32, 1.0)
    prof = profile(pair, [8.0], x_samples=9, power_x_samples=9)
    assert prof.count_n[0] == 0


def test_profile_envelope_is_the_same_for_any_split():
    # M(y) is a property of T = Q (S + N) Q*; r_n(y) belongs to the split,
    # so only the envelope is compared across splits
    t, pair = _phi_plus_fractional(64, 1.0)
    ys = [0.5, 0.25, 0.125]
    given = profile(pair, ys, n_max=4, power_x_samples=5)
    schur = profile(split_schur(t), ys, n_max=4, power_x_samples=5)
    np.testing.assert_allclose(schur.envelope_m, given.envelope_m, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(
        np.searchsorted(schur.x_grid, schur.envelope_x),
        np.searchsorted(given.x_grid, given.envelope_x),
    )


def test_profile_envelope_fit_does_not_overflow():
    # the envelope fit gives ln C ~ 788 here, past the double range of exp;
    # the violation factor is taken in log space and stays finite
    rng = np.random.default_rng(12)
    n = 32
    t = wrap_matrix(
        np.diag(np.linspace(0.0, 1.0, n))
        + 0.25 * np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)
    )
    prof = profile(split_given_basis(t), [0.5, 0.25, 0.125], x_samples=9, power_x_samples=9)
    np.testing.assert_array_equal(prof.count_n, [30, 31, 31])
    assert math.isfinite(prof.envelope_violation)


def test_profile_of_a_real_operator_is_symmetric_in_y():
    # ||R_{conj(lambda)}(T)|| = ||R_lambda(T)|| for a real T, so a negated
    # ladder gives the same tables and fits in |y|
    t, pair = _phi_plus_fractional(32, 1.0)
    ys = [0.5, 0.25, 0.125, 0.0625]
    up = profile(pair, ys, x_samples=9, power_x_samples=9)
    down = profile(pair, [-y for y in ys], x_samples=9, power_x_samples=9)
    np.testing.assert_array_equal(down.count_n, up.count_n)
    np.testing.assert_allclose(down.envelope_m, up.envelope_m, rtol=1e-12)
    assert down.fitted_p == pytest.approx(up.fitted_p, rel=1e-9)
    assert down.fitted_q == pytest.approx(up.fitted_q, rel=1e-9)


def test_profile_rejects_zero_ladder_point():
    t, pair = _phi_plus_fractional(16, 1.0)
    with pytest.raises(ValueError):
        profile(pair, [0.5, 0.0])
    with pytest.raises(ValueError, match="non-empty"):
        profile(pair, [])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            profile(pair, [0.5, bad])


def test_fitted_p_reproducible_on_disjoint_half_ladders():
    t, pair = _phi_plus_fractional(128, 1.0)
    full = [2.0 ** (-e / 3.0) for e in range(9)]
    prof_a = profile(pair, full[0::2], x_samples=33, power_x_samples=17)
    prof_b = profile(pair, full[1::2], x_samples=33, power_x_samples=17)
    assert abs(prof_a.fitted_p - prof_b.fitted_p) <= 0.3


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
        envelope_x=np.zeros(ys.size),
        envelope_evals=np.ones(ys.size, dtype=int),
        envelope_fallbacks=np.zeros(ys.size, dtype=int),
        chain_fallbacks=np.zeros(ys.size, dtype=int),
        fitted_p=float("nan"),
        fitted_q=float("nan"),
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


def test_levinson_divergent_on_supercritical_law():
    ys = np.geomspace(2.0, 0.5, 8)
    counts = np.rint(np.exp(1.0 * ys ** (-2.0))).astype(int)
    prof = _synthetic_profile(ys, counts, np.exp(counts / 10.0), n_max=10**9)
    verdict = levinson_classify(prof)
    assert verdict.verdict == "DIVERGENT"
    assert verdict.p == pytest.approx(2.0, abs=0.2)


def test_levinson_inconclusive_near_critical():
    ys = np.geomspace(1.0, 0.1, 8)
    counts = np.rint(np.exp(3.0 * ys ** (-1.0))).astype(np.int64)
    prof = _synthetic_profile(ys, counts, np.exp(np.minimum(counts, 500) / 10.0), n_max=10**18)
    verdict = levinson_classify(prof)
    assert verdict.verdict == "INCONCLUSIVE"


def test_levinson_rejects_a_negative_margin():
    # a margin of -0.5 would read this near-critical law (p close to 1) as INTEGRABLE
    ys = np.geomspace(1.0, 0.1, 8)
    counts = np.rint(np.exp(3.0 * ys ** (-1.0))).astype(np.int64)
    prof = _synthetic_profile(ys, counts, np.exp(np.minimum(counts, 500) / 10.0), n_max=10**18)
    for margin in (-0.5, math.nan):
        with pytest.raises(ValueError, match="non-negative"):
            levinson_classify(prof, margin=margin)
    levinson_classify(prof, margin=0.0)  # a zero-width band is allowed


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
    assert count_bound_constant(1.0, 1.0, 2.0) == pytest.approx(1.0)
    # round trip through the forward bound ln N <= (2M / |y|)^(1/alpha)
    m = count_bound_constant(0.5, 3.0, -1.5)
    assert (2.0 * m / 1.5) ** (1.0 / 0.5) == pytest.approx(3.0)


def test_count_bound_monotone_in_y():
    values = [count_bound_constant(0.5, 2.0, y) for y in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_count_bound_validates():
    with pytest.raises(ValueError):
        count_bound_constant(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        count_bound_constant(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        count_bound_constant(1.0, -1.0, 1.0)


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
        assert neumann_residual(pair, lam) <= 1e-8


def test_neumann_series_exact_in_the_schur_basis():
    # the series and the dense inverse both use T, the split's triangle
    t, _ = _phi_plus_fractional(64, 1.0)
    pair = split_schur(t)
    for x in (-0.5, 0.3, 1.2):
        for y in (0.5, -0.2):
            assert neumann_residual(pair, complex(x, y)) <= 1e-8


def test_neumann_truncation_error_shrinks_with_order():
    t, pair = _phi_plus_fractional(24, 1.0)
    lam = 0.5 + 0.6j
    res_short = neumann_residual(pair, lam, n_max=2)
    res_long = neumann_residual(pair, lam, n_max=24)
    assert res_long < res_short


def test_neumann_needs_off_axis_lambda():
    t, pair = _phi_plus_fractional(8, 1.0)
    with pytest.raises(ValueError):
        neumann_residual(pair, 0.5 + 0.0j)


def test_unsettled_chain_gets_the_dense_norm():
    # singular values 1 and 0.99: the seeded start vector has not settled to
    # 1e-8 relative by the 60-step cap, so the dense norm is taken instead
    v = np.eye(2, dtype=complex)
    d = np.array([[1.0], [0.99]], dtype=complex)
    roots, fallbacks = _chain_roots(v, d, 0.5, 1)
    np.testing.assert_array_equal(roots, [1.0])
    assert fallbacks == 1


@pytest.mark.parametrize("n, seed", [(8, 1), (8, 8), (16, 4), (16, 17)])
def test_profile_finishes_where_power_iteration_stalls(n, seed):
    # random inputs on which some chain stays unsettled at the 60-step cap
    # (at powers 1, 3, 2 and 3 respectively)
    rng = np.random.default_rng(seed)
    v = 0.25 * np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)
    pair = split_given_basis(wrap_matrix(np.diag(np.linspace(0.0, 1.0, n)) + v))
    ladder = [0.5, 0.25, 0.125]
    prof = profile(pair, ladder, x_samples=9)
    for j, y in enumerate(ladder):
        for k in range(1, n + 1):
            if prof.r[k - 1, j] == 0.0:
                continue
            dense = max(c_norm(pair, complex(x, y), k) ** (1.0 / k) for x in prof.power_x_grid)
            assert prof.r[k - 1, j] == pytest.approx(dense, rel=1e-6)
    assert prof.chain_fallbacks.sum() > 0


def test_chain_fallbacks_vanish_on_the_default_fractional_ladder():
    t, pair = _phi_plus_fractional(64, 1.0)
    prof = profile(pair, _default_ladder("fractional", 1.0), power_x_samples=33)
    assert prof.chain_fallbacks.dtype.kind == "i"
    np.testing.assert_array_equal(prof.chain_fallbacks, np.zeros(prof.y_grid.size))
    with pytest.raises(ValueError):
        prof.chain_fallbacks[0] = 1


def test_lockstep_chains_match_single_chain_runs():
    # batching the x samples couples no columns: the block result is the
    # maximum of one-column runs, including where chains stop or die
    t, pair = _phi_plus_fractional(48, 1.0)
    v = pair.strict
    xs = np.linspace(-1.0, 2.0, 9)
    for y in (0.5, 0.125):
        d = -y / (pair.diagonal.real[:, None] - (xs + 1j * y)[None, :])
        block = _chain_roots(v, d, y, 48)[0]
        singles = np.max([_chain_roots(v, d[:, [c]], y, 48)[0] for c in range(d.shape[1])], axis=0)
        np.testing.assert_array_equal(block == 0.0, singles == 0.0)
        np.testing.assert_allclose(block, singles, rtol=1e-13, atol=0.0)
        assert 0.0 < np.count_nonzero(block) < 48


def test_dead_chain_stops_without_raising():
    # V^4 = 0 exactly for the strict 4x4 triangle, and a zero scale column
    # kills its chain at the first product; neither may raise
    v = np.tril(np.ones((4, 4)), -1).astype(complex)
    d = np.column_stack([np.ones(4), np.zeros(4)]).astype(complex)
    roots = _chain_roots(v, d, 1e-3, 6)[0]
    assert np.all(roots[3:] == 0.0)
    exact = [np.linalg.norm(np.linalg.matrix_power(v, k), 2) ** (1.0 / k) for k in (1, 2, 3)]
    np.testing.assert_allclose(roots[:3], exact, rtol=1e-8)
    np.testing.assert_array_equal(roots, _chain_roots(v, d[:, [0]], 1e-3, 6)[0])
    np.testing.assert_array_equal(_chain_roots(v, d[:, [1]], 1e-3, 6)[0], np.zeros(6))


@pytest.mark.parametrize("scale", [1e-40, 1e-75, 1e-90, 1e-170])
def test_chain_that_underflows_within_a_group_is_not_dead(scale):
    # B = scale * shift: four products scale a column norm by 1e-160 (its
    # square subnormal), 1e-300 (its square 0), 1e-360 (0 itself) or 1e-680,
    # so the sweep must redo those groups one product at a time; at 1e-170
    # even one product's square underflows, so that path needs a scaled norm
    n = 8
    v = np.diag(np.ones(n - 1), -1)
    pair = split_given_basis(wrap_matrix(v.astype(complex)))
    lam = complex(-1.0, scale)
    d = np.full((n, 1), -scale / (0.0 - lam))
    roots = _chain_roots(v, d, scale, n)[0]
    # ||B^k|| = |d|^k for k < n and V^n = 0: only the last power is dead
    assert np.all(roots[: n - 1] > 0.0) and roots[n - 1] == 0.0
    for k in range(1, n):
        dense = math.exp(_dense_log_norm(d * v, k) / k)  # c_norm's dense route, in logs
        assert roots[k - 1] == pytest.approx(dense, rel=1e-12, abs=0.0)
        assert roots[k - 1] == pytest.approx(abs(d[0, 0]), rel=1e-12, abs=0.0)
        if c_norm(pair, lam, k) > 0.0:  # c_norm itself underflows once |d|^k does
            assert roots[k - 1] == pytest.approx(c_norm(pair, lam, k) ** (1.0 / k), rel=1e-12, abs=0.0)


def test_dense_log_norm_survives_a_subnormal_power_norm():
    # ||b|| = 1e-310 is subnormal: numpy's complex division by it takes
    # 1 / 1e-310, which overflows, and the next svdvals met infinities
    for shift in (np.eye(8, k=-1), np.eye(8, k=-1).astype(complex)):
        for k in (2, 7):
            assert _dense_log_norm(1e-310 * shift, k) == pytest.approx(k * math.log(1e-310), rel=1e-14)
        assert _dense_log_norm(1e-310 * shift, 8) == -math.inf


def _count_power_steps(monkeypatch):
    """Spy on the chain sweep: a list of ``(k, block width of each product)``, one per call."""
    calls = []
    power, gemm = resolvent._log_power_norms, resolvent._gemm

    def spy_power(v, d, vecs, k):
        calls.append((k, []))
        return power(v, d, vecs, k)

    def spy_gemm(a, w):
        calls[-1][1].append(w.shape[1])
        return gemm(a, w)

    monkeypatch.setattr(resolvent, "_log_power_norms", spy_power)
    monkeypatch.setattr(resolvent, "_gemm", spy_gemm)
    return calls


def test_certificate_settles_a_column_after_one_power_step(monkeypatch):
    # the start vector is the top singular vector of B^3 = diag(1, 0.125):
    # one step certifies it, where two successive estimates need two steps
    calls = _count_power_steps(monkeypatch)
    vecs = np.array([[1.0], [0.0]], dtype=complex)
    log_s, dense = resolvent._log_power_norms(np.diag([1.0, 0.5]), np.ones((2, 1), complex), vecs, 3)
    assert calls == [(3, [1] * 6)]
    assert log_s[0] == 0.0 and dense == 0


def test_certificate_settles_columns_early_on_the_default_fractional_ladder(monkeypatch):
    # the step after which each (k, column) leaves the block, read off the
    # block widths; with the certificate most leave after 3 steps (1,654
    # against 507 after 4), without it most need a 4th (652 against 1,404)
    calls = _count_power_steps(monkeypatch)
    t, pair = _phi_plus_fractional(64, 1.0)
    profile(pair, _default_ladder("fractional", 1.0), power_x_samples=33)
    exits = np.zeros(61, dtype=int)
    for k, widths in calls:
        # no group was redone: every step is 2k products on one block
        steps = widths[:: 2 * k]
        assert len(widths) == 2 * k * len(steps)
        assert widths == [w for w in steps for _ in range(2 * k)]
        for j, (before, after) in enumerate(zip(steps, steps[1:] + [0]), start=1):
            exits[j] += before - after
    assert np.argmax(exits) == 3


# ---------------------------------------------------------------- randomized oracles


@settings(max_examples=40, deadline=None, derandomize=True)
@given(triangular_operators())
def test_profile_envelope_is_the_dense_maximum_on_random_operators(case):
    a, ladder = case
    t = wrap_matrix(a)
    # the envelope does not read the chain sweep, so keep that short
    prof = profile(split_given_basis(t), ladder, n_max=1, power_x_samples=2)
    _assert_envelope_is_dense_max(t, prof)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(triangular_operators())
def test_triangle_resolvent_norm_matches_the_dense_oracle_on_random_triangles(case):
    # lower and upper triangles, with complex and with real strict parts
    a, ladder = case
    lams = (np.linspace(-2.0, 2.0, 5)[:, None] + 1j * ladder[None, :]).ravel()
    for tri in (a, a.real.astype(complex)):
        tnorm = float(scipy.linalg.svdvals(tri)[0])
        for r in (tri, tri.T.copy()):
            evaluate = _triangle_evaluator(r)
            for lam in lams:
                try:
                    dense = _dense_resolvent_norm(r, lam)
                except NearSingularError:
                    with pytest.raises(NearSingularError):
                        evaluate(lam)
                    continue
                assert _close_to_dense(evaluate(lam)[0], dense, tnorm, lam)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(triangular_operators())
def test_real_chain_product_matches_the_complex_one_on_random_operators(case):
    a, ladder = case
    t = a.real
    n = t.shape[0]
    v = np.tril(t, -1)
    vc = v.astype(complex)
    rng = np.random.default_rng(n)
    w = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
    for op, oracle in ((v, vc), (v.T, vc.conj().T)):
        # relative to the scale |V||W| of GEMM rounding, entry by entry
        scale = np.abs(oracle) @ np.abs(w)
        assert np.all(np.abs(_gemm(op, w) - oracle @ w) <= 1e-14 * scale)
    pair = split_given_basis(wrap_matrix(t.astype(complex)))
    y = ladder[-1]
    xs = np.linspace(-2.0, 2.0, 3)
    d = -y / (t.diagonal()[:, None] - (xs + 1j * y)[None, :])
    roots, _ = _chain_roots(v, d, y, n)
    assert (roots[0] > 0.0) == np.any(v)
    for k in np.flatnonzero(roots) + 1:
        dense = max(c_norm(pair, complex(x, y), k) ** (1.0 / k) for x in xs)
        assert roots[k - 1] == pytest.approx(dense, rel=1e-7)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(triangular_operators(), st.floats(min_value=0.0, max_value=1.0))
def test_chain_series_matches_the_dense_inverse_on_random_operators(case, u):
    a, ladder = case
    t = wrap_matrix(a)
    # x from the profile's search window around the diagonal
    diag = a.diagonal().real
    x = diag.min() - 1.0 + u * (diag.max() - diag.min() + 2.0)
    for pair in (split_given_basis(t), split_schur(t)):
        for y in ladder:
            assert neumann_residual(pair, complex(x, y)) <= 1e-8
