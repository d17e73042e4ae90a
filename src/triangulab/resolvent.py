"""Resolvent growth machinery for scalar-plus-quasinilpotent splits.

Off the real axis the resolvent of ``T = S + V`` (``S`` real diagonal, ``V``
triangular) factors through the weighted chains

    c_n(lambda) = ( -Im(lambda) * (S - lambda I)^{-1} V )^n,

whose normalized norms ``r_n(y) = sup_x ||c_n(x + i y)||^{1/n}`` control how
fast ``||R_lambda(T)||`` can blow up as ``y -> 0``.  This module computes the
chain tables, the crossing counts ``N(y)``, the resolvent envelopes ``M(y)``,
fits the growth exponents, and classifies the integrability of ``ln N``
(the sufficient condition for strong decomposability evidence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .exceptions import InsufficientDataError, NearSingularError
from .operators import SplitPair, as_entries, write_csv

__all__ = [
    "ResolventProfile",
    "LevinsonVerdict",
    "resolvent_norm",
    "c_norm",
    "profile",
    "levinson_classify",
    "count_bound_constant",
    "neumann_residual",
    "profile_to_csv",
    "r_table_to_csv",
]


def resolvent_norm(t, lam: complex) -> float:
    """``|| (lambda I - T)^{-1} ||`` as the reciprocal smallest singular value.

    A dense SVD fixes ``sigma_min(lambda I - T)`` to an absolute error of
    about ``eps ||lambda I - T||``, so the relative error of the norm grows
    with the norm itself: on ``diag(linspace(0, 1, 12)) + 2 tril(ones, -1)``
    it is 1.2e-10 at ``lambda = 0.5 + 0.5j`` (norm 2e6) and 9.0e-7 at
    ``0.5 + 0.1j`` (norm 1.9e10), against 40-digit mpmath, where inverse
    Lanczos on the triangle (:func:`_triangle_resolvent_norm`) stays within
    4.5e-16.  Raises :class:`NearSingularError` when ``sigma_min`` is below
    ``1e-14 max(||T||_2 + |lambda|, 1)``.
    """
    entries = as_entries(t)
    n = entries.shape[0]
    s = scipy.linalg.svdvals(lam * np.eye(n) - entries)
    smin = float(s[-1])
    tnorm = float(s[0]) + abs(lam)
    if smin < 1e-14 * max(tnorm, 1.0):
        raise NearSingularError(
            f"lambda = {lam} is numerically inside the spectrum (sigma_min = {smin:g})"
        )
    return 1.0 / smin


def _real_split(split: SplitPair) -> tuple:
    """The split's ``(real diagonal S, strict part N)``; chain norms need a real ``S``."""
    diag = split.diagonal
    if np.max(np.abs(diag.imag)) > 1e-12 * max(1.0, float(np.max(np.abs(diag)))):
        raise ValueError("scalar part must be self-adjoint (real diagonal) for chain norms")
    return diag.real, split.strict


def _dense_log_norm(b: np.ndarray, k: int) -> float:
    """``log ||b^k||`` by renormalized powers with a dense SVD at every step.

    ``-inf`` when some power of ``b`` up to ``k`` is exactly zero.
    """
    m = b
    log_acc = 0.0
    for i in range(k):
        nrm = float(scipy.linalg.svdvals(m)[0])
        if nrm == 0.0:
            return -math.inf
        log_acc += math.log(nrm)
        if i < k - 1:
            m = (m / nrm) @ b
    return log_acc


def _gemm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for a C-contiguous complex block ``w``.

    A real ``a`` acts on the real and imaginary parts of ``w`` alike, so it
    is applied to ``w``'s float64 view: one real GEMM on ``2m`` interleaved
    columns, with no copy, in place of a complex GEMM.
    """
    if a.dtype.kind == "f":
        return (a @ w.view(np.float64)).view(np.complex128)
    return a @ w


_GROUP = 4  # block products between two renormalizations of the chain sweep
# A group whose column norm falls below this is redone product by product.
# The block's column norms are unscaled sums of squares: they lose precision
# once the square is subnormal (a norm below 1.5e-154) and read 0 below
# about 1e-162.  Above 1e-150 the square is a normal double.
_GROUP_FLOOR = 1e-150


def _chain_products(v: np.ndarray, v_adj: np.ndarray, dk: np.ndarray, dk_conj: np.ndarray,
                    w: np.ndarray, lo: int, hi: int, k: int) -> np.ndarray:
    """Products ``lo..hi-1`` of one power step on ``B^k``, applied to the block ``w``.

    Product ``i`` applies ``B = diag(dk) V`` for ``i < k`` and ``B*`` from
    ``k`` on; ``dk_conj`` is ``dk.conj()``.  Nothing is renormalized.
    """
    for i in range(lo, hi):
        w = dk * _gemm(v, w) if i < k else _gemm(v_adj, dk_conj * w)
    return w


def _log_power_norms(v: np.ndarray, d: np.ndarray, vecs: np.ndarray, k: int) -> tuple:
    """``log ||B_c^k||`` for each chain ``B_c = diag(d[:, c]) V``, all columns at once.

    A warm-started power iteration on ``A = (B^k)* B^k``, which applies
    ``B`` and its adjoint ``k`` times each to the block of start vectors
    ``vecs`` (updated in place).  A real ``V`` (float64) is applied by real
    GEMM (see :func:`_gemm`); a complex one by complex GEMM.  The products
    run in groups of 4, with group boundaries at ``k`` and ``2k``; each
    group ends with one column norm, one ``log`` and one division, so the
    log norm never underflows.  A column whose group norm is zero,
    non-finite or below ``_GROUP_FLOOR = 1e-150`` redoes that group one
    product at a time, renormalizing after each by a scaled norm; a column
    whose vector becomes exactly zero on that path is a dead chain and
    reads ``-inf``.  One step from the unit vector ``x`` estimates
    ``0.5 log ||A x||``.  A column leaves the block once two successive
    estimates agree to ``1e-8`` relative, or once one step certifies itself:
    the Rayleigh quotient ``rho = ||B^k x||^2`` (kept at the ``k`` boundary)
    satisfies ``rho <= ||A x|| <= sigma_1^2``, and
    ``log ||A x|| - log rho <= 1e-10`` settles the column.  A column still
    unsettled after 60 steps, as when the top singular values of ``B^k``
    nearly coincide, gets the dense value :func:`_dense_log_norm` instead.
    Returns the log norms and the number of columns that took that dense
    value.
    """
    v_adj = v.conj().T
    log_s = np.full(d.shape[1], -np.inf)
    todo = np.arange(d.shape[1])
    edges = [*range(0, k, _GROUP), *range(k, 2 * k, _GROUP), 2 * k]
    groups = list(zip(edges[:-1], edges[1:]))
    for _ in range(60):
        w = np.take(vecs, todo, axis=1)  # C-contiguous, as _gemm needs
        dk = d[:, todo]
        dk_conj = dk.conj()
        log_nu = np.zeros(todo.size)
        for lo, hi in groups:
            start = w
            w = _chain_products(v, v_adj, dk, dk_conj, start, lo, hi, k)
            nrm = np.linalg.norm(w, axis=0)
            ok = np.isfinite(nrm) & (nrm >= _GROUP_FLOOR)
            scale = np.where(ok, nrm, 1.0)
            log_nu += np.log(scale)
            w /= scale
            # the other columns redo the group one product at a time; a dead
            # column (-inf, a zero vector) stays zero and needs no redo
            for c in np.flatnonzero(~ok & (log_nu > -np.inf)):
                x = start[:, [c]]
                for i in range(lo, hi):
                    x = _chain_products(v, v_adj, dk[:, [c]], dk_conj[:, [c]], x, i, i + 1, k)
                    nrm_c = float(scipy.linalg.norm(x[:, 0], check_finite=False))  # scaled BLAS nrm2
                    if nrm_c == 0.0:
                        log_nu[c] = -np.inf
                        break
                    log_nu[c] += math.log(nrm_c)
                    # a real division: numpy's complex one takes 1 / nrm_c,
                    # which overflows for a subnormal norm
                    x = (x.view(np.float64) / nrm_c).view(np.complex128)
                w[:, c] = x[:, 0]
            if hi == k:
                log_bk = log_nu.copy()  # log ||B^k x||
        vecs[:, todo] = w
        s_est = 0.5 * log_nu
        with np.errstate(invalid="ignore"):
            settled = (
                (s_est == -np.inf)
                | (np.abs(np.expm1(log_s[todo] - s_est)) <= 1e-8)
                | (log_nu - 2.0 * log_bk <= 1e-10)
            )
        log_s[todo] = s_est
        todo = todo[~settled]
        if todo.size == 0:
            return log_s, 0
    for c in todo:
        log_s[c] = _dense_log_norm(d[:, c, None] * v, k)
    return log_s, todo.size


def _chain_roots(v: np.ndarray, d: np.ndarray, y: float, n_max: int) -> tuple:
    """``max_c ||B_c^k||^{1/k}`` for ``k = 1..n_max``, the chains run in lockstep.

    Column ``c`` of ``d`` holds the diagonal of one chain matrix
    ``B_c = diag(d[:, c]) V``.  Every chain starts from one fixed vector,
    drawn from ``default_rng(3)`` so that the roots depend on the chains
    alone, and carries its power-iteration vector from ``k`` to ``k + 1``.
    A chain stops when it dies or after 4 consecutive steps with
    ``||B_c^k||^{1/k} < 0.4 |y|``, which cannot create false crossing counts
    at ``|y|/2`` because the roots decay past that regime.  Entry ``k - 1``
    is 0.0 once every chain has stopped.  Returns the roots and how many
    ``(c, k)`` norms came from the dense fallback of :func:`_log_power_norms`.
    """
    n, m = d.shape
    rng = np.random.default_rng(3)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vecs = np.tile((start / np.linalg.norm(start))[:, None], (1, m))
    below_streak = np.zeros(m, dtype=int)
    roots = np.zeros(n_max)
    fallbacks = 0
    for k in range(1, n_max + 1):
        log_norms, dense = _log_power_norms(v, d, vecs, k)
        fallbacks += dense
        rk = np.exp(log_norms / k)
        roots[k - 1] = rk.max()
        below_streak = np.where(rk < 0.4 * abs(y), below_streak + 1, 0)
        go = (log_norms > -np.inf) & (below_streak < 4)
        if not go.any():
            break
        d, vecs, below_streak = d[:, go], vecs[:, go], below_streak[go]
    return roots, fallbacks


def c_norm(split: SplitPair, lam: complex, n: int) -> float:
    """``|| ( -Im(lambda) (S - lambda)^{-1} V )^n ||`` by renormalized powers.

    Exact dense singular values at every step; intended for single queries
    and as the oracle for the faster profile sweep.
    """
    if lam.imag == 0.0:
        raise ValueError("chain norms require Im(lambda) != 0")
    if n < 1:
        raise ValueError("power must be a positive integer")
    diag, v = _real_split(split)
    b = (-lam.imag / (diag - lam))[:, None] * v
    return math.exp(_dense_log_norm(b, n))


_LANCZOS_STEPS = 128  # inverse Lanczos step cap, min(n, _LANCZOS_STEPS)


def _triangle_resolvent_norm(triangle: np.ndarray, lower: bool, tnorm: float, lam: complex) -> tuple:
    """``||(lambda I - R)^{-1}||`` for a triangular ``R`` by inverse Lanczos: ``(norm, dense)``.

    Lanczos on ``B = (A* A)^{-1}``, ``A = lambda I - R``, whose top eigenvalue
    is ``1 / sigma_min(A)^2``: each step applies ``B`` by two triangular
    solves (LAPACK ``trtrs``, lower or upper as ``lower`` says) and
    reorthogonalizes against every earlier Lanczos vector twice.  The start
    vector is fixed, drawn from ``default_rng(3)``, so the value depends on
    ``(R, lambda)`` alone.  The top Ritz value ``theta`` settles once its
    residual ``beta_j |s_j|`` is at most ``1e-10 theta``, and the norm is
    ``sqrt(theta)``.  A Ritz value never exceeds the eigenvalue it
    approximates, so ``1 / sqrt(theta)`` never lies below ``sigma_min``.
    The sample goes through :func:`resolvent_norm` instead (``dense`` is
    True) when it has not settled in ``min(n, 128)`` steps, when a solve
    meets an exactly singular ``A`` or any value is non-finite (the solves
    overflow on the spectrum, and ``theta`` underflows to 0 far from it),
    or when ``1 / sqrt(theta)`` is at most ``1e-12 max(tnorm + 2|lambda|, 1)``
    with ``tnorm = ||R||_2``.  That band
    lies above :func:`resolvent_norm`'s guard ``1e-14 max(||A||_2 + |lambda|, 1)``,
    so each :class:`NearSingularError` is raised by the dense path.
    """
    n = triangle.shape[0]
    a = np.empty((n, n), dtype=complex, order="F")
    np.negative(triangle, out=a)
    a[np.arange(n), np.arange(n)] += lam
    (trtrs,) = scipy.linalg.get_lapack_funcs(("trtrs",), (a,))
    rng = np.random.default_rng(3)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q /= np.linalg.norm(q)
    cap = min(n, _LANCZOS_STEPS)
    basis = np.empty((cap, n), dtype=complex)  # Lanczos vectors as rows
    alphas = np.zeros(cap)  # the Lanczos tridiagonal: diagonal
    betas = np.zeros(cap)  # and off-diagonal
    for j in range(cap):
        basis[j] = q
        z, info = trtrs(a, q, lower=lower, trans=2)
        if info != 0:  # an exactly zero diagonal entry: lambda is an eigenvalue of R
            break
        w, _ = trtrs(a, z, lower=lower)
        done = basis[: j + 1]
        for _ in range(2):
            h = done.conj() @ w
            w -= h @ done
            alphas[j] += h[j].real
        beta = float(np.linalg.norm(w))
        if not (math.isfinite(beta) and math.isfinite(alphas[j])):
            break
        ritz, vecs = scipy.linalg.eigh_tridiagonal(
            alphas[: j + 1], betas[:j], select="i", select_range=(j, j), check_finite=False
        )
        theta = float(ritz[0])
        if beta * abs(vecs[-1, 0]) <= 1e-10 * theta:
            if not theta > 0.0 or 1.0 / math.sqrt(theta) <= 1e-12 * max(tnorm + 2.0 * abs(lam), 1.0):
                break
            return math.sqrt(theta), False
        betas[j] = beta
        q = w / beta
    return resolvent_norm(triangle, lam), True


def _envelope(triangle: np.ndarray, tnorm: float, x_grid: np.ndarray, y: float, samples: list) -> tuple:
    """``max_x ||R_{x+iy}(T)||`` over ``x_grid``: ``(maximum, its x, samples evaluated, dense)``.

    ``triangle`` is ``R``, lower or upper triangular, and ``tnorm`` its
    2-norm.  Best-first branch and bound on ``sigma_min(lambda I - R)``,
    which is 1-Lipschitz in ``lambda`` over the whole complex plane (Weyl):
    a sample ``(x', y', sigma')`` bounds
    ``sigma_min >= sigma' - |(x - x') + i(y - y')|`` at every ``x + iy``.
    ``samples`` lists the ``(x, y, sigma_min)`` of every sample evaluated so
    far, on this line or on earlier ones, and each sample evaluated here is
    appended to it.  The bounds start from those samples (0 when there are
    none); the sample with the smallest bound (the lowest index on ties)
    goes through :func:`_triangle_resolvent_norm` next, until every
    remaining bound exceeds the smallest ``sigma_min`` found on this line by
    ``1e-12 (||R||_inf + max|x| + |y|)``.  That margin sits far above the
    error of an evaluated ``sigma_min`` (inverse Lanczos agrees with dense
    singular values to ``1.5e-15`` relative on the default profiles), so
    the skipped samples are strictly below the maximum: it is the same
    float a full sweep of the evaluator gives, first attained at the same
    ``x``.  ``dense`` counts
    the samples that took the evaluator's dense fallback.
    """
    lower = not np.any(np.triu(triangle, 1))
    t_inf = float(np.abs(triangle).sum(axis=1).max())
    margin = 1e-12 * (t_inf + float(np.abs(x_grid).max()) + abs(y))
    norms = np.zeros(x_grid.size)  # 0.0 marks a sample not evaluated
    bound = np.zeros(x_grid.size)  # lower bounds on sigma_min; inf once evaluated
    if samples:
        xs, ys, smins = np.array(samples).T
        dist = np.abs((x_grid[:, None] - xs) + 1j * (y - ys))
        bound = np.maximum(bound, (smins - dist).max(axis=1))
    floor = math.inf  # smallest sigma_min found on this line
    dense = 0
    while True:
        i = int(np.argmin(bound))
        if bound[i] > floor + margin:
            break
        norms[i], fell_back = _triangle_resolvent_norm(triangle, lower, tnorm, x_grid[i] + 1j * y)
        dense += fell_back
        smin = 1.0 / norms[i]
        samples.append((x_grid[i], y, smin))
        floor = min(floor, smin)
        bound = np.maximum(bound, smin - np.abs(x_grid - x_grid[i]))
        bound[i] = np.inf
    top = int(np.argmax(norms))
    return float(norms[top]), float(x_grid[top]), int(np.count_nonzero(norms)), dense


@dataclass(frozen=True)
class ResolventProfile:
    """All tables produced by :func:`profile`, plus the fitted exponents.

    ``r[k, j]`` holds ``r_{k+1}(y_j)``; ``count_n[j]`` the number of chain
    indices whose ``r_n`` exceeds ``|y_j| / 2``; ``envelope_m[j]`` the largest
    resolvent norm found along ``Im lambda = y_j``, ``envelope_x[j]`` the
    first ``x_grid`` sample attaining it and ``envelope_evals[j]`` how many
    ``x_grid`` samples the envelope evaluated.  ``envelope_fallbacks[j]``
    counts the envelope samples at ``y_j`` that inverse Lanczos handed to the
    dense SVD (see :func:`_triangle_resolvent_norm`).  ``chain_fallbacks[j]``
    counts the chain norms at ``y_j`` that the power iteration left unsettled and
    dense singular values finished (see :func:`_log_power_norms`).
    ``fitted_p`` is the exponent in ``N(y) ~ |y|^{-p}``; ``fitted_q`` the
    exponent in ``ln M(y) ~ |y|^{-q}``.  ``envelope_violation`` is the largest factor by
    which the data exceeds the bound ``||R|| <= (C/|y|) (M/|y|)^{N(y)}``
    with ``C`` and ``M`` fitted by least squares in log space.
    """

    y_grid: np.ndarray
    x_grid: np.ndarray
    power_x_grid: np.ndarray
    n_max: int
    r: np.ndarray
    count_n: np.ndarray
    envelope_m: np.ndarray
    envelope_x: np.ndarray
    envelope_evals: np.ndarray
    envelope_fallbacks: np.ndarray
    chain_fallbacks: np.ndarray
    fitted_p: float
    fitted_q: float
    envelope_violation: float
    saturated: np.ndarray

    def __post_init__(self):
        for arr in (self.y_grid, self.x_grid, self.power_x_grid, self.r,
                    self.count_n, self.envelope_m, self.envelope_x, self.envelope_evals,
                    self.envelope_fallbacks, self.chain_fallbacks, self.saturated):
            arr.setflags(write=False)

    @property
    def fit_mask(self) -> np.ndarray:
        """Ladder points the exponent fits use: unsaturated, with ``N >= 2``."""
        return _fit_mask(self.count_n, self.saturated)


def _fit_mask(count_n: np.ndarray, saturated: np.ndarray) -> np.ndarray:
    return (count_n >= 2) & ~saturated


def _fit_power(y: np.ndarray, values: np.ndarray, mask: np.ndarray) -> float:
    """Slope of log(values) against log(1/|y|) on the masked ladder points."""
    if mask.sum() < 2:
        return float("nan")
    coeffs = np.polyfit(np.log(np.abs(y[mask])), np.log(values[mask]), 1)
    return float(-coeffs[0])


def profile(
    split: SplitPair,
    y_ladder: Sequence[float],
    n_max: Optional[int] = None,
    x_samples: int = 64,
    power_x_samples: Optional[int] = None,
) -> ResolventProfile:
    """Sweep the half-plane ladder and fill every resolvent-growth table.

    For each ``y`` in the ladder: chain norms ``r_n`` are maximized over the
    real search window ``[min sigma(S) - 1, max sigma(S) + 1]`` with
    ``x_samples`` points (``power_x_samples`` trims the expensive chain sweep
    independently of the resolvent envelope sweep), the crossing count is
    ``N(y) = #{n <= n_max : r_n(y) > |y|/2}``, and the envelope is
    ``M(y) = max_x ||R_{x+iy}(T)||`` with ``T`` the split's triangle,
    the same for every split of one operator (unlike ``r_n`` and ``N``).
    Chains stop early once ``r_n`` sits well below the counting threshold
    for several consecutive steps, which cannot create false counts because
    ``r_n`` decays past that regime.
    The envelope evaluates only the ``x`` samples that can attain ``M(y)``
    (see :func:`_envelope`), using the ``sigma_min`` of every sample
    evaluated at this and earlier ladder points to rule samples out.  Each
    evaluated sample gets ``sigma_min(lambda I - R)`` by inverse Lanczos on
    the triangle ``R`` (two triangular solves per step; see
    :func:`_triangle_resolvent_norm`).  A sample that has not settled at the
    step cap, meets a non-finite value or has an estimated ``sigma_min`` at
    most ``1e-12 max(||R||_2 + 2|lambda|, 1)`` goes through
    :func:`resolvent_norm` instead, so an evaluated sample numerically inside the spectrum raises
    :class:`NearSingularError` from the dense path, and
    ``envelope_fallbacks`` counts those samples.  ``||R||_2`` comes from the
    one dense ``svdvals`` of the profile.  A sample is skipped only when its
    ``sigma_min`` provably exceeds the smallest one found by a margin far
    above the ``1e-14 ||lambda I - T||`` guard, so a sample that would trip
    the guard is always evaluated and the error is raised as before.
    ``n_max``, ``x_samples`` and ``power_x_samples`` below 1 raise
    ``ValueError``.
    The chain sweep renormalizes once per group of four block products and
    redoes a group one product at a time where a column norm falls below
    ``1e-150``, so only an exactly zero product kills a chain.  A chain
    settles when two successive power-iteration estimates agree to ``1e-8``
    relative, or when one step certifies itself: its Rayleigh quotient
    ``||B^k x||^2`` and ``||A x||``, ``A = (B^k)* B^k``, agree to ``1e-10``
    in logs (see :func:`_log_power_norms`).
    A chain whose power iteration has not settled in 60 steps, as when the
    top singular values of some ``B^k`` nearly coincide, gets its norm from
    dense singular values instead, and ``chain_fallbacks`` counts those.
    When ``V`` has no imaginary part, as for every real kernel, the chain
    sweep applies ``V`` by real GEMM.
    """
    entries = split.triangle
    diag, v = _real_split(split)
    if not np.any(v.imag):
        v = np.ascontiguousarray(v.real)  # real GEMMs in the chain sweep
    dim = entries.shape[0]
    if n_max is None:
        n_max = dim
    y_grid = np.asarray(list(y_ladder), dtype=float)
    if y_grid.size == 0 or np.any(y_grid == 0.0) or not np.all(np.isfinite(y_grid)):
        raise ValueError("the ladder must be non-empty, finite and avoid y = 0")
    for name, count in (("n_max", n_max), ("x_samples", x_samples), ("power_x_samples", power_x_samples)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be at least 1, got {count!r}")
    tnorm = float(scipy.linalg.svdvals(entries)[0])
    x_window = (float(diag.min()) - 1.0, float(diag.max()) + 1.0)
    x_grid = np.linspace(x_window[0], x_window[1], x_samples)
    power_x_grid = (
        x_grid
        if power_x_samples is None
        else np.linspace(x_window[0], x_window[1], power_x_samples)
    )

    n_y = y_grid.size
    r = np.zeros((n_max, n_y))
    counts = np.zeros(n_y, dtype=int)
    envelope = np.zeros(n_y)
    envelope_x = np.zeros(n_y)
    envelope_evals = np.zeros(n_y, dtype=int)
    envelope_fallbacks = np.zeros(n_y, dtype=int)
    envelope_samples = []  # (x, y, sigma_min) of every envelope sample evaluated
    chain_fallbacks = np.zeros(n_y, dtype=int)
    saturated = np.zeros(n_y, dtype=bool)

    for j, y in enumerate(y_grid):
        threshold = abs(y) / 2.0
        d = -y / (diag[:, None] - (power_x_grid + 1j * y)[None, :])
        r[:, j], chain_fallbacks[j] = _chain_roots(v, d, y, n_max)
        counts[j] = int(np.sum(r[:, j] > threshold))
        saturated[j] = counts[j] >= n_max
        envelope[j], envelope_x[j], envelope_evals[j], envelope_fallbacks[j] = _envelope(
            entries, tnorm, x_grid, y, envelope_samples
        )

    fitted_p = _fit_power(y_grid, np.maximum(counts, 1), _fit_mask(counts, saturated))
    log_m = np.log(np.maximum(envelope, 1.0 + 1e-15))
    fitted_q = _fit_power(y_grid, log_m, log_m > 0)

    # least-squares constants for ln M <= ln C - ln|y| + N (ln Mc - ln|y|)
    a = np.column_stack([np.ones(n_y), counts.astype(float)])
    b = np.log(envelope) + np.log(np.abs(y_grid)) + counts * np.log(np.abs(y_grid))
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    ln_c, ln_mc = sol
    predicted = ln_c - np.log(np.abs(y_grid)) + counts * (ln_mc - np.log(np.abs(y_grid)))
    violation = float(np.max(np.exp(np.log(envelope) - predicted)))

    return ResolventProfile(
        y_grid=y_grid,
        x_grid=x_grid,
        power_x_grid=power_x_grid,
        n_max=n_max,
        r=r,
        count_n=counts,
        envelope_m=envelope,
        envelope_x=envelope_x,
        envelope_evals=envelope_evals,
        envelope_fallbacks=envelope_fallbacks,
        chain_fallbacks=chain_fallbacks,
        fitted_p=fitted_p,
        fitted_q=fitted_q,
        envelope_violation=violation,
        saturated=saturated,
    )


@dataclass(frozen=True)
class LevinsonVerdict:
    verdict: str  # "INTEGRABLE", "DIVERGENT", or "INCONCLUSIVE"
    p: float
    q: float
    points_used: int


LEVINSON_MARGIN = 0.15  # half-width of the INCONCLUSIVE band around p = 1


def levinson_classify(prof: ResolventProfile, margin: float = LEVINSON_MARGIN) -> LevinsonVerdict:
    """Integrability classification of ``ln N(y)`` near ``y = 0``.

    Fits ``ln N(y) ~ c y^{-p}`` and ``ln ln M(y) ~ c' y^{-q}`` on the
    unsaturated ladder points with ``N >= 2``.  ``p < 1 - margin`` makes the
    integral of ``ln N`` finite (INTEGRABLE, which is the evidence for
    strong decomposability); ``p > 1 + margin`` is DIVERGENT, meaning only
    that this sufficient condition failed; anything in between is
    INCONCLUSIVE.  The margin absorbs the fit noise observed on geometric
    ladders so the verdict does not flip on rounding; a negative margin
    raises ``ValueError``.
    """
    if not margin >= 0:
        raise ValueError(f"margin must be non-negative, got {margin!r}")
    mask = prof.fit_mask
    if mask.sum() < 4:
        raise InsufficientDataError(
            f"need at least 4 unsaturated ladder points with N >= 2, have {int(mask.sum())}"
        )
    p = _fit_power(prof.y_grid, np.log(np.maximum(prof.count_n, 1)), mask)
    ln_m = np.log(np.maximum(prof.envelope_m, 1.0 + 1e-15))
    m_mask = mask & (ln_m > 1.0)
    q = _fit_power(prof.y_grid, ln_m, m_mask) if m_mask.sum() >= 4 else float("nan")
    if p < 1.0 - margin:
        verdict = "INTEGRABLE"
    elif p > 1.0 + margin:
        verdict = "DIVERGENT"
    else:
        verdict = "INCONCLUSIVE"
    return LevinsonVerdict(
        verdict=verdict,
        p=p,
        q=q,
        points_used=int(mask.sum()),
    )


def count_bound_constant(alpha: float, ln_n: float, y: float) -> float:
    """Smallest ``M`` with ``ln N(y) <= (2 M / |y|)^(1/alpha)``: ``0.5 |y| ln_n^alpha``.

    The crossing-count bound holds under the premise
    ``||c_n|| <= (M / ln(n+1)^alpha)^n``; this solves it for ``M`` given a
    count ``N(y)`` with ``ln N(y) = ln_n``.  Pure arithmetic.
    """
    if not alpha > 0 or not ln_n >= 0:
        raise ValueError("alpha must be positive and ln N non-negative")
    if y == 0:
        raise ValueError("y must be nonzero")
    return 0.5 * abs(y) * ln_n ** alpha


def neumann_residual(split: SplitPair, lam: complex, n_max: Optional[int] = None) -> float:
    """Relative gap between the direct resolvent and the truncated chain series.

    Evaluates ``(I + sum_{n<=n_max} c_n / (Im lambda)^n)(S - lambda)^{-1}``
    against a dense solve of ``(T - lambda)^{-1}``, ``T`` the split's
    triangle; exact (to rounding) at ``n_max = dim``.
    """
    if lam.imag == 0.0:
        raise ValueError("the expansion needs Im(lambda) != 0")
    entries = split.triangle
    diag, v = _real_split(split)
    dim = entries.shape[0]
    if n_max is None:
        n_max = dim
    s_inv = 1.0 / (diag - lam)
    v1 = s_inv[:, None] * v  # (S - lambda)^{-1} V
    series = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for _ in range(n_max):
        term = term @ (-v1)
        series = series + term
        if not np.any(term):
            break
    approx = series * s_inv[None, :]  # right-multiply by diagonal resolvent
    direct = scipy.linalg.solve(entries - lam * np.eye(dim), np.eye(dim, dtype=complex))
    scale = max(float(np.linalg.norm(direct, 2)), 1e-300)
    return float(np.linalg.norm(approx - direct, 2)) / scale


def profile_to_csv(prof: ResolventProfile, path) -> None:
    """CSV columns: y, N(y), M(y), ln M(y)."""
    rows = (
        (y, int(n), m, math.log(m))
        for y, n, m in zip(prof.y_grid, prof.count_n, prof.envelope_m)
    )
    write_csv(path, "y,count_n,envelope_m,ln_envelope_m", rows)


def r_table_to_csv(prof: ResolventProfile, path) -> None:
    """CSV columns: n, y, r_n(y); zero rows are skipped."""
    rows = (
        (k + 1, y, prof.r[k, j])
        for j, y in enumerate(prof.y_grid)
        for k in range(prof.n_max)
        if prof.r[k, j] > 0.0
    )
    write_csv(path, "n,y,r_n", rows)
