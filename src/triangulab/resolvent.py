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
import scipy.sparse.linalg

from .exceptions import InsufficientDataError, NearSingularError
from .operators import SplitPair, as_entries, matmul, real_if_real

__all__ = [
    "ResolventProfile",
    "LevinsonVerdict",
    "resolvent_norm",
    "c_norm",
    "profile",
    "levinson_classify",
    "count_bound_constant",
    "neumann_residual",
]


def resolvent_norm(t, lam: complex) -> float:
    """``|| (lambda I - T)^{-1} || = 1 / sigma_min(lambda I - T)``.

    An exact triangle ``T`` (lower or upper, ``n >= 3``) goes through
    ARPACK's Lanczos (``scipy.sparse.linalg.eigsh``) on ``(A* A)^{-1}``,
    ``A = lambda I - T``, applied by two triangular solves (LAPACK
    ``trtrs``): its top eigenvalue ``theta = sigma_min(A)^-2``, to a
    residual of ``1e-10 theta``, from a start vector and a restart generator
    seeded by ``default_rng(3)``, so the value depends on ``(T, lambda)``
    alone.  A triangular solve is componentwise accurate: on
    ``diag(linspace(0, 1, 12)) + 2 tril(ones, -1)`` at ``lambda = 0.5 + 0.5j``
    (norm 2e6) and ``0.5 + 0.1j`` (norm 1.9e10) this is within 2.3e-16 of
    40-digit mpmath, where a dense SVD, whose error is absolute on
    ``sigma_min`` (about ``eps ||A||``), is off by 1.2e-10 and 9.0e-7.  On
    the default operators at n=256 the two agree to 2.3e-15.

    The dense SVD of ``A`` takes over for any other matrix, for ``n < 3``
    (ARPACK's complex driver needs 3 basis vectors), and when ARPACK needs
    more than 128 applications, a solve meets a zero pivot or a non-finite
    value (the solves overflow on the spectrum), ``theta`` underflows to 0,
    or ``1 / sqrt(theta) <= 1e-12 max(||T||_2 + 2|lambda|, 1)``.  That band
    lies above the dense guard, so every :class:`NearSingularError` comes
    from the SVD, raised when ``sigma_min < 1e-14 max(||A||_2 + |lambda|, 1)``.

    No module calls it: :func:`profile` sets up :func:`_triangle_evaluator`
    once per operator.  It stays as the single-query entry point, and this
    docstring is the evaluator's contract.
    """
    return _triangle_evaluator(as_entries(t))(lam)[0]


def _dense_resolvent_norm(entries: np.ndarray, lam: complex) -> float:
    """:func:`resolvent_norm` by a dense SVD: its fallback, and the tests' oracle."""
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
    """``log ||b^k||`` by powers renormalized by their largest entry modulus,
    and one dense SVD of the last.

    ``-inf`` when some power of ``b`` up to ``k`` is exactly zero.
    """
    m = b
    log_acc = 0.0
    for i in range(k):
        if i:
            m = matmul(m, b)
        scale = float(np.max(np.abs(m)))
        if scale == 0.0:
            return -math.inf
        log_acc += math.log(scale)
        # a real division: numpy's complex one takes 1 / scale, which
        # overflows for a subnormal scale
        m = (m.view(np.float64) / scale).view(m.dtype)
    return log_acc + math.log(float(scipy.linalg.svdvals(m)[0]))


def _gemm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for a C-contiguous complex block ``w``.

    A real ``a`` acts on the real and imaginary parts of ``w`` alike, so it
    is applied to ``w``'s float64 view: one real GEMM on ``2m`` interleaved
    columns, with no copy, in place of a complex GEMM.
    """
    if a.dtype.kind == "f":
        return (a @ w.view(np.float64)).view(np.complex128)
    return a @ w


_FLOOR = 1e-150  # smallest column norm of the chain sweep; its square is a normal double
_LOG_CEIL = math.log(1e140)  # largest log norm a product of the chain sweep may reach


def _log_power_norms(v: np.ndarray, d: np.ndarray, log_root: np.ndarray, log_reach: np.ndarray,
                     vecs: np.ndarray, k: int) -> tuple:
    """``log ||B_c^k||`` for each chain ``B_c = diag(d[:, c]) V``, all columns at once.

    Column ``c`` is swept as ``B'_c = diag(d[:, c] e^(-l_c)) V``,
    ``l_c = log_root[c]``, and ``k l_c`` is added back; scaling changes no
    singular vector.  ``log_reach[c]`` bounds ``log ||B'_c^j||`` for every
    ``j <= k`` (see :func:`_chain_roots`).  A warm-started power iteration
    on ``A = (B'^k)* B'^k``: from the unit vectors of the block ``vecs``
    (updated in place), one step applies ``B'`` ``k`` times, takes the column
    norm ``n_k = ||B'^k x||`` and divides by it, then applies ``B'*`` ``k``
    times and takes the norm ``n_2k``, so ``n_k n_2k = ||A x||``.  A real
    ``V`` (float64) is applied by real GEMM (see :func:`_gemm`); a complex
    one by complex GEMM.  A column leaves the block once two successive
    estimates ``0.5 log ||A x||`` agree to ``1e-8`` relative, or once one
    step certifies itself: the Rayleigh quotient ``rho = n_k^2`` satisfies
    ``rho <= ||A x|| <= sigma_1^2``, and ``log ||A x|| - log rho <= 1e-10``.

    A column instead gets the dense value :func:`_dense_log_norm` of its
    unscaled chain when its scaled diagonal is not finite, when
    ``log_reach[c] > log(1e140)``, when ``n_k`` or ``n_2k`` is not finite or
    is below ``1e-150``, or when it is unsettled after 60 steps, as when the
    top singular values of ``B^k`` nearly coincide.  So, by
    submultiplicativity, every product ``B'^j x`` and ``B'*^j u``
    (``u = B'^k x / n_k``, ``j <= k``) of a swept column has a norm in
    ``[1e-290, 1e140]`` (at most ``||B'^j||``, at least
    ``n_k / ||B'^(k-j)||``): none loses digits to underflow or overflows,
    and both column norms sum squares that are normal doubles.
    A dense value is ``-inf`` only when a power of the chain up to ``k`` is
    exactly zero.  Returns the log norms and the number of columns that took
    the dense value.
    """
    v_adj = v.conj().T
    log_s = np.full(d.shape[1], -np.inf)
    # a column outside the norm range may turn infinite or NaN: that stays in
    # its own column of the GEMMs, and the column goes dense
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ds = d * np.exp(-log_root)
        fits = np.isfinite(ds).all(axis=0) & (log_reach <= _LOG_CEIL)
        todo = np.flatnonzero(fits)
        dense = [np.flatnonzero(~fits)]
        for _ in range(60):
            if todo.size == 0:
                break
            w = np.take(vecs, todo, axis=1)  # C-contiguous, as _gemm needs
            dk = ds[:, todo]
            for _ in range(k):
                w = dk * _gemm(v, w)
            n_k = np.linalg.norm(w, axis=0)
            w /= n_k
            dk = dk.conj()
            for _ in range(k):
                w = _gemm(v_adj, dk * w)
            n_2k = np.linalg.norm(w, axis=0)
            w /= n_2k
            ok = (n_k >= _FLOOR) & (n_2k >= _FLOOR) & np.isfinite(n_k) & np.isfinite(n_2k)
            log_k, log_2k = np.log(n_k), np.log(n_2k)
            s_est = 0.5 * (log_k + log_2k)
            settled = ok & ((np.abs(np.expm1(log_s[todo] - s_est)) <= 1e-8) | (log_2k - log_k <= 1e-10))
            log_s[todo] = s_est
            vecs[:, todo[ok]] = w[:, ok]
            dense.append(todo[~ok])
            todo = todo[ok & ~settled]
    dense = np.concatenate([*dense, todo])
    log_s += k * log_root
    for c in dense:
        log_s[c] = _dense_log_norm(d[:, c, None] * v, k)
    return log_s, dense.size


_CERT_SLACK = 1e-8  # per-power slack of the stop certificate, in log norm


def _certified_below(gaps: np.ndarray, n: int) -> np.ndarray:
    """Which rows of ``gaps`` prove that no power after the last one crosses.

    Row ``c`` holds ``G_j = log ||B_c^j|| - j t`` for ``j = 1..K``, with
    ``t`` the log threshold, and ``B_c^n = 0``.  Submultiplicativity
    (``||B^(a+b)|| <= ||B^a|| ||B^b||``) makes the min-plus closure
    ``U_m = min_{a+b=m} (U_a + U_b)``, from ``U_j = G_j`` for ``j <= K``, an
    upper bound on ``G_m`` for every ``m > K``.  A row is certified when
    ``U_m < 0`` for every ``m`` in ``(K, min(2K+1, n-1)]``: from there
    ``U_m <= U_(K+1) + U_(m-K-1) < 0`` by induction for every larger ``m``,
    up to ``B^n = 0``.  The caller passes only rows with ``G_K < 0``.
    """
    rows, k = gaps.shape
    top = min(2 * k + 1, n - 1)
    closure = np.empty((rows, max(top, k) + 1))
    closure[:, 1 : k + 1] = gaps
    ok = np.ones(rows, dtype=bool)
    for m in range(k + 1, top + 1):
        a = np.arange(1, m // 2 + 1)
        closure[:, m] = (closure[:, a] + closure[:, m - a]).min(axis=1)
        ok &= closure[:, m] < 0.0
        if not ok.any():
            break
    return ok


def _chain_roots(v: np.ndarray, d: np.ndarray, y: float, n_max: int) -> tuple:
    """``max_c ||B_c^k||^{1/k}`` for ``k = 1..n_max``, the chains run in lockstep.

    Column ``c`` of ``d`` holds the diagonal of one chain matrix
    ``B_c = diag(d[:, c]) V``.  Every chain starts from one fixed vector,
    drawn from ``default_rng(3)`` so that the roots depend on the chains
    alone, and carries its power-iteration vector from ``k`` to ``k + 1``.
    It also carries its log root ``l = log ||B^(k-1)|| / (k-1)`` (0 at
    ``k = 1``), by which :func:`_log_power_norms` scales it to
    ``B' = e^(-l) B``, and a reach that bounds the scaled powers by the
    chain's own log norms ``L_j``: ``log ||B'^j|| = L_j - j l`` for
    ``j < k``, and ``||B'^k|| <= ||B'|| <= max|d e^(-l)| sqrt(||V||_1 ||V||_inf)``.
    (``||B'||^j`` alone grows with ``j`` wherever the roots fall, and would
    send long chains dense.)
    A chain stops when it dies, or at the first power ``K`` below ``|y|/2``
    from which submultiplicativity proves that no later power crosses
    ``|y|/2`` (see :func:`_certified_below`; ``B^n = 0`` for the ``n x n``
    strict triangle ``V``).  The certificate takes the computed log norms
    ``L_j`` as exact.  They are power-iteration values, settled to ``1e-8``
    relative or by the ``1e-10`` one-step certificate of
    :func:`_log_power_norms`, and a slack of ``1e-8`` per power, taken off
    the log threshold (``G_j = L_j - j (log(|y|/2) - 1e-8)``), absorbs that
    settling error.  Entry ``k - 1`` is the largest root of the chains still
    running at ``k``, and 0.0 once every chain has stopped: then every root
    at ``k`` is 0 or certified below ``|y|/2``, so the entries above
    ``|y|/2`` are exactly the crossings.  Powers from ``n`` on stay 0
    unswept: ``B^n = 0``, and a sweep would send each running chain dense.
    Returns the roots, how many ``(c, k)`` norms :func:`_log_power_norms`
    sent to the dense value and how many chains the certificate stopped.
    """
    n, m = d.shape
    rng = np.random.default_rng(3)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vecs = np.tile((start / np.linalg.norm(start))[:, None], (1, m))
    v_bound = math.sqrt(np.linalg.norm(v, 1)) * math.sqrt(np.linalg.norm(v, np.inf))  # >= ||V||_2
    log_root = np.zeros(m)  # l_c = log ||B_c^(k-1)|| / (k-1) of each running chain
    log_t = math.log(abs(y) / 2.0) - _CERT_SLACK
    gaps = np.empty((m, n_max))  # G_j of each running chain, in column j - 1
    roots = np.zeros(n_max)
    fallbacks = certified = 0
    for k in range(1, min(n_max, n - 1) + 1):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_step = np.log(np.abs(d).max(axis=0) * v_bound) - log_root  # >= log ||B'||
        # log ||B'^j|| = L_j - j l = G_j + j (log_t - l) for j < k
        log_known = gaps[:, : k - 1] + np.arange(1, k) * (log_t - log_root)[:, None]
        log_reach = np.maximum(log_known.max(axis=1, initial=0.0), log_step)
        log_norms, dense = _log_power_norms(v, d, log_root, log_reach, vecs, k)
        fallbacks += dense
        roots[k - 1] = np.exp(log_norms / k).max()
        if k == n_max:
            break
        gaps[:, k - 1] = log_norms - k * log_t
        go = log_norms > -np.inf
        below = np.flatnonzero(go & (gaps[:, k - 1] < 0.0))
        if below.size:
            stop = below[_certified_below(gaps[below, :k], n)]
            go[stop] = False
            certified += stop.size
        if not go.any():
            break
        d, vecs, gaps, log_root = d[:, go], vecs[:, go], gaps[go], log_norms[go] / k
    return roots, fallbacks, certified


def c_norm(split: SplitPair, lam: complex, n: int) -> float:
    """``|| ( -Im(lambda) (S - lambda)^{-1} V )^n ||`` by renormalized powers.

    Dense powers renormalized by their largest entry, and exact dense
    singular values of the last (:func:`_dense_log_norm`).  No module calls
    it; the tests take it as the oracle of the chain sweep in :func:`profile`.

    The value is ``exp(_dense_log_norm(b, n))``.  Below
    ``np.finfo(float).tiny`` it is subnormal and keeps few digits (at
    1e-320, about three), so a caller that needs the ``n``-th root should
    take it from the log, ``exp(_dense_log_norm(b, n) / n)``.
    """
    if lam.imag == 0.0:
        raise ValueError("chain norms require Im(lambda) != 0")
    if n < 1:
        raise ValueError("power must be a positive integer")
    diag, v = _real_split(split)
    b = (-lam.imag / (diag - lam))[:, None] * v
    return math.exp(_dense_log_norm(b, n))


_LANCZOS_STEPS = 128  # applications of (A* A)^{-1} per envelope sample before the dense fallback


class _Unsettled(Exception):
    """A triangular solve failed or overflowed, or the step cap was met."""


def _triangle_evaluator(triangle: np.ndarray):
    """``lam -> (resolvent_norm(triangle, lam), dense)``, set up once per matrix.

    :func:`resolvent_norm` states the method, its accuracy and when the
    dense SVD takes over; ``dense`` says whether it did.  For an exact
    triangle, ``||R||_2`` (one ``svdvals``) and the Fortran-ordered copy of
    ``-R`` are made here, once, and each ``lambda`` only rewrites the
    diagonal of that copy to ``(-R_ii) + lambda``.
    """
    n = triangle.shape[0]
    below, above = scipy.linalg.bandwidth(triangle)
    if n < 3 or min(below, above) > 0:
        return lambda lam: (_dense_resolvent_norm(triangle, lam), True)
    lower = above == 0
    tnorm = float(scipy.linalg.svdvals(triangle)[0])
    a = np.empty((n, n), dtype=complex, order="F")
    np.negative(triangle, out=a)
    neg_diag = np.diag(a).copy()
    (trtrs,) = scipy.linalg.get_lapack_funcs(("trtrs",), (a,))

    def evaluate(lam: complex) -> tuple:
        np.fill_diagonal(a, neg_diag + lam)
        applied = 0

        def apply(q):
            nonlocal applied
            applied += 1
            z, _ = trtrs(a, q, lower=lower, trans=2)  # both solves check the one diagonal of a:
            z, info = trtrs(a, z, lower=lower)  # info > 0 when lambda is a diagonal entry of R
            if applied > _LANCZOS_STEPS or info != 0 or not np.all(np.isfinite(z)):
                raise _Unsettled
            return z

        rng = np.random.default_rng(3)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        theta = 0.0
        try:
            # a basis of 12: ARPACK's default of 20 makes every sample take 20
            # applications, where the median sample of the default profiles
            # needs 13; with 12 they need at most 91 of the 128, with 8 up to 121
            (theta,) = scipy.sparse.linalg.eigsh(
                scipy.sparse.linalg.LinearOperator((n, n), matvec=apply, dtype=complex),
                k=1, which="LA", v0=v0, ncv=min(n, 12), tol=1e-10, return_eigenvectors=False, rng=rng,
            )
        except (_Unsettled, scipy.sparse.linalg.ArpackError):
            pass
        if theta > 0.0 and 1.0 / math.sqrt(theta) > 1e-12 * max(tnorm + 2.0 * abs(lam), 1.0):
            return math.sqrt(theta), False
        return _dense_resolvent_norm(triangle, lam), True

    return evaluate


def _envelope(evaluate, t_inf: float, x_grid: np.ndarray, y: float, samples: list) -> tuple:
    """``max_x ||R_{x+iy}(T)||`` over ``x_grid``: ``(maximum, its x, samples evaluated, dense)``.

    ``evaluate`` is the :func:`_triangle_evaluator` of the triangle ``R``
    and ``t_inf`` is ``||R||_inf``.  Best-first branch and bound on
    ``sigma_min(lambda I - R)``, which is 1-Lipschitz in ``lambda`` over the
    whole complex plane (Weyl): a sample ``(x', y', sigma')`` bounds
    ``sigma_min >= sigma' - |(x - x') + i(y - y')|`` at every ``x + iy``.
    ``samples`` lists the ``(x, y, sigma_min)`` of every sample evaluated so
    far, on this line or on earlier ones, and each sample evaluated here is
    appended to it.  The bounds start from those samples (0 when there are
    none); the sample with the smallest bound (the lowest index on ties)
    goes through ``evaluate`` next, until every remaining bound exceeds the
    smallest ``sigma_min`` found on this line by
    ``1e-12 (||R||_inf + max|x| + |y|)``.  That margin sits far above the
    error of an evaluated ``sigma_min`` (see :func:`resolvent_norm`), so the
    skipped samples are strictly below the maximum: it is the same float a
    full sweep of the evaluator gives, first attained at the same ``x``.
    ``dense`` counts the samples that took the dense fallback.
    """
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
        norms[i], fell_back = evaluate(x_grid[i] + 1j * y)
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

    ``r[k, j]`` holds ``r_{k+1}(y_j)``, the largest root among the chains
    still running at that power; 0.0 means that every chain at that power is
    dead or certified below ``|y_j| / 2`` (see :func:`_chain_roots`), so an
    entry above ``|y_j| / 2`` is the maximum over every chain.
    ``count_n[j]`` is the number of chain indices whose ``r_n`` exceeds
    ``|y_j| / 2``; ``envelope_m[j]`` the largest
    resolvent norm found along ``Im lambda = y_j``, ``envelope_x[j]`` the
    first ``x_grid`` sample attaining it and ``envelope_evals[j]`` how many
    ``x_grid`` samples the envelope evaluated.  ``envelope_fallbacks[j]``
    counts the envelope samples at ``y_j`` that went to the dense SVD (see
    :func:`resolvent_norm`).  ``chain_fallbacks[j]`` counts the chain norms
    ``(x sample, power)`` at ``y_j`` that took dense singular values in place
    of the scaled power iteration: out of its norm range, or unsettled
    after 60 steps (see :func:`_log_power_norms`), and
    ``chains_certified[j]`` the chains at ``y_j`` that the submultiplicative
    certificate stopped before ``n_max``.
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
    chains_certified: np.ndarray
    fitted_p: float
    fitted_q: float
    envelope_violation: float
    saturated: np.ndarray

    def __post_init__(self):
        for arr in (self.y_grid, self.x_grid, self.power_x_grid, self.r,
                    self.count_n, self.envelope_m, self.envelope_x, self.envelope_evals,
                    self.envelope_fallbacks, self.chain_fallbacks, self.chains_certified,
                    self.saturated):
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
    A chain stops at the first power below the counting threshold from
    which submultiplicativity, ``||B^(a+b)|| <= ||B^a|| ||B^b||``, proves
    that no later power crosses it; ``chains_certified`` counts those stops.
    The proof needs the window ``(K, 2K+1]`` of powers after the stop ``K``
    only, and takes the computed log norms as exact, with a slack of
    ``1e-8`` per power for their settling error (see :func:`_chain_roots`).
    The envelope evaluates only the ``x`` samples that can attain ``M(y)``,
    ruling samples out by the ``sigma_min`` of every sample evaluated at this
    and earlier ladder points (see :func:`_envelope`); a sample numerically
    inside the spectrum is always evaluated and raises
    :class:`NearSingularError`.  One :func:`_triangle_evaluator` of ``R``,
    built once per profile, evaluates every sample; :func:`resolvent_norm`
    states its accuracy and its dense fallback, which
    ``envelope_fallbacks`` counts.
    ``n_max``, ``x_samples`` and ``power_x_samples`` below 1 raise
    ``ValueError``, and so does an ``n_max`` above the dimension, whose
    rows past the dimension would all be 0 (``B^n = 0``).
    Each chain is swept scaled by its last root; :func:`_log_power_norms`
    states when a chain norm settles, the norm range that scaling keeps
    every product in, and the one rule that sends a norm to dense singular
    values instead, which ``chain_fallbacks`` counts.  When ``V`` has no
    imaginary part, as for every real kernel, the chain sweep applies ``V``
    by real GEMM.
    """
    entries = split.triangle
    diag, v = _real_split(split)
    v = real_if_real(v)  # real GEMMs in the chain sweep when V is real
    dim = entries.shape[0]
    if n_max is None:
        n_max = dim
    y_grid = np.asarray(list(y_ladder), dtype=float)
    if y_grid.size == 0 or np.any(y_grid == 0.0) or not np.all(np.isfinite(y_grid)):
        raise ValueError("the ladder must be non-empty, finite and avoid y = 0")
    for name, count in (("n_max", n_max), ("x_samples", x_samples), ("power_x_samples", power_x_samples)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be at least 1, got {count!r}")
    if n_max > dim:  # B^n = 0 for the n x n strict triangle: later rows are all 0
        raise ValueError(f"n_max must be at most the dimension {dim}, got {n_max!r}")
    evaluate = _triangle_evaluator(entries)
    t_inf = float(np.linalg.norm(entries, np.inf))
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
    chains_certified = np.zeros(n_y, dtype=int)
    saturated = np.zeros(n_y, dtype=bool)

    for j, y in enumerate(y_grid):
        threshold = abs(y) / 2.0
        d = -y / (diag[:, None] - (power_x_grid + 1j * y)[None, :])
        r[:, j], chain_fallbacks[j], chains_certified[j] = _chain_roots(v, d, y, n_max)
        counts[j] = int(np.sum(r[:, j] > threshold))
        saturated[j] = counts[j] >= n_max
        envelope[j], envelope_x[j], envelope_evals[j], envelope_fallbacks[j] = _envelope(
            evaluate, t_inf, x_grid, y, envelope_samples
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
        chains_certified=chains_certified,
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

    Fits ``ln N(y) ~ c |y|^{-p}`` on the unsaturated ladder points with
    ``N >= 2``, and ``ln M(y) ~ c' |y|^{-q}`` on those of them with
    ``ln M(y) > 1`` (``q`` is NaN with fewer than 4 such points); both are
    least-squares lines in log-log space.  ``p < 1 - margin`` makes the
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
