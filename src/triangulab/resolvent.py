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

from .exceptions import InsufficientDataError, NearSingularError, NumericalError
from .operators import SplitPair, as_entries

__all__ = [
    "ResolventProfile",
    "LevinsonVerdict",
    "resolvent_norm",
    "c_norm",
    "profile",
    "levinson_classify",
    "cn_bound_to_N_bound",
    "neumann_residual",
    "profile_to_csv",
    "r_table_to_csv",
]


def resolvent_norm(t, lam: complex) -> float:
    """``|| (lambda I - T)^{-1} ||`` as the reciprocal smallest singular value."""
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


def _require_real_diagonal(split: SplitPair) -> np.ndarray:
    diag = split.diagonal
    if np.max(np.abs(diag.imag)) > 1e-12 * max(1.0, float(np.max(np.abs(diag)))):
        raise ValueError("scalar part must be self-adjoint (real diagonal) for chain norms")
    return diag.real


class _ChainNorms:
    """Renormalized powers of one weighted chain matrix.

    Keeps the running product ``B^k`` scaled to unit norm and accumulates the
    log of the true norm, so ``||B^k||`` is available in log form far past
    the underflow range.  Operator norms come from a warm-started power
    iteration on ``M* M``; the warm start makes it exact to rounding in
    practice (validated against dense SVD in the tests).
    """

    def __init__(self, b: np.ndarray, seed: int = 3):
        self.b = b
        self.m = b.copy()
        self.log_acc = 0.0
        rng = np.random.default_rng(seed)
        n = b.shape[0]
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self.v = v / np.linalg.norm(v)
        self.dead = False

    def step_norm(self) -> float:
        """Operator norm of the current power; 0.0 once the chain dies.

        Raises :class:`NumericalError` if the iteration has not settled to
        ``1e-8`` relative after 60 steps.
        """
        if self.dead:
            return 0.0
        s_prev = 0.0
        for _ in range(60):
            w = self.m @ self.v
            u = self.m.conj().T @ w
            nu = float(np.linalg.norm(u))
            if nu == 0.0:
                self.dead = True
                return 0.0
            s_est = math.sqrt(nu)
            self.v = u / nu
            if abs(s_est - s_prev) <= 1e-8 * max(s_est, 1e-300):
                return s_est
            s_prev = s_est
        raise NumericalError(
            f"chain power iteration did not converge in 60 steps (last estimate {s_est:g})"
        )

    def advance(self, nrm: float) -> None:
        self.log_acc += math.log(nrm)
        self.m = (self.m / nrm) @ self.b

    def log_norm(self, nrm: float) -> float:
        return self.log_acc + math.log(nrm)


def c_norm(split: SplitPair, lam: complex, n: int) -> float:
    """``|| ( -Im(lambda) (S - lambda)^{-1} V )^n ||`` by renormalized powers.

    Exact dense singular values at every step; intended for single queries
    and as the oracle for the faster profile sweep.
    """
    if lam.imag == 0.0:
        raise ValueError("chain norms require Im(lambda) != 0")
    if n < 1:
        raise ValueError("power must be a positive integer")
    diag = _require_real_diagonal(split)
    v = split.n_part.entries
    b = (-lam.imag / (diag - lam))[:, None] * v
    m = b.copy()
    log_acc = 0.0
    for _ in range(n - 1):
        nrm = float(scipy.linalg.svdvals(m)[0])
        if nrm == 0.0:
            return 0.0
        log_acc += math.log(nrm)
        m = (m / nrm) @ b
    nrm = float(scipy.linalg.svdvals(m)[0])
    if nrm == 0.0:
        return 0.0
    return math.exp(log_acc + math.log(nrm))


@dataclass(frozen=True)
class ResolventProfile:
    """All tables produced by :func:`profile`, plus the fitted exponents.

    ``r[k, j]`` holds ``r_{k+1}(y_j)``; ``count_n[j]`` the number of chain
    indices whose ``r_n`` exceeds ``|y_j| / 2``; ``envelope_m[j]`` the largest
    resolvent norm found along ``Im lambda = y_j``.  ``fitted_p`` is the
    exponent in ``N(y) ~ y^{-p}``; ``fitted_q`` the exponent in
    ``ln M(y) ~ y^{-q}``.  ``envelope_c`` and ``envelope_m_const`` are the
    least-squares constants of the bound
    ``||R|| <= (C/|y|) (M/|y|)^{N(y)}`` and ``envelope_violation`` the largest
    factor by which the data exceeds that fitted bound.
    """

    y_grid: np.ndarray
    x_grid: np.ndarray
    power_x_grid: np.ndarray
    n_max: int
    r: np.ndarray
    count_n: np.ndarray
    envelope_m: np.ndarray
    fitted_p: float
    fitted_q: float
    envelope_c: float
    envelope_m_const: float
    envelope_violation: float
    saturated: np.ndarray

    def __post_init__(self):
        for arr in (self.y_grid, self.x_grid, self.power_x_grid, self.r,
                    self.count_n, self.envelope_m, self.saturated):
            arr.setflags(write=False)


def _fit_power(y: np.ndarray, values: np.ndarray, mask: np.ndarray) -> float:
    """Slope of log(values) against log(1/y) on the masked ladder points."""
    if mask.sum() < 2:
        return float("nan")
    coeffs = np.polyfit(np.log(y[mask]), np.log(values[mask]), 1)
    return float(-coeffs[0])


def profile(
    t,
    split: SplitPair,
    y_ladder: Sequence[float],
    x_window: Optional[tuple] = None,
    n_max: Optional[int] = None,
    x_samples: int = 64,
    power_x_samples: Optional[int] = None,
    seed: int = 3,
) -> ResolventProfile:
    """Sweep the half-plane ladder and fill every resolvent-growth table.

    For each ``y`` in the ladder: chain norms ``r_n`` are maximized over a
    real search window (default ``[min sigma(S) - 1, max sigma(S) + 1]`` with
    ``x_samples`` points; ``power_x_samples`` trims the expensive chain sweep
    independently of the resolvent envelope sweep), the crossing count is
    ``N(y) = #{n <= n_max : r_n(y) > |y|/2}``, and the envelope is
    ``M(y) = max_x ||R_{x+iy}(T)||``.  Chains stop early once ``r_n`` sits
    well below the counting threshold for several consecutive steps, which
    cannot create false counts because ``r_n`` decays past that regime.
    Envelope samples go through :func:`resolvent_norm`, so a sample point
    numerically inside the spectrum raises :class:`NearSingularError`.
    """
    entries = as_entries(t)
    diag = _require_real_diagonal(split)
    v = split.n_part.entries
    dim = entries.shape[0]
    if n_max is None:
        n_max = dim
    y_grid = np.asarray(list(y_ladder), dtype=float)
    if np.any(y_grid == 0.0):
        raise ValueError("the ladder must avoid y = 0")
    if x_window is None:
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
    saturated = np.zeros(n_y, dtype=bool)

    for j, y in enumerate(y_grid):
        threshold = abs(y) / 2.0
        for x in power_x_grid:
            lam = x + 1j * y
            chain = _ChainNorms((-y / (diag - lam))[:, None] * v, seed=seed)
            below_streak = 0
            for k in range(1, n_max + 1):
                nrm = chain.step_norm()
                if nrm == 0.0:
                    break
                rk = math.exp(chain.log_norm(nrm) / k)
                if rk > r[k - 1, j]:
                    r[k - 1, j] = rk
                below_streak = below_streak + 1 if rk < 0.4 * abs(y) else 0
                if below_streak >= 4:
                    break
                if k < n_max:
                    chain.advance(nrm)
        counts[j] = int(np.sum(r[:, j] > threshold))
        saturated[j] = counts[j] >= n_max
        envelope[j] = max(resolvent_norm(entries, x + 1j * y) for x in x_grid)

    count_mask = (counts >= 2) & ~saturated
    fitted_p = _fit_power(y_grid, np.maximum(counts, 1), count_mask)
    log_m = np.log(np.maximum(envelope, 1.0 + 1e-15))
    fitted_q = _fit_power(y_grid, log_m, log_m > 0)

    # least-squares constants for ln M <= ln C - ln|y| + N (ln Mc - ln|y|)
    a = np.column_stack([np.ones(n_y), counts.astype(float)])
    b = np.log(envelope) + np.log(np.abs(y_grid)) + counts * np.log(np.abs(y_grid))
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    ln_c, ln_mc = float(sol[0]), float(sol[1])
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
        fitted_p=fitted_p,
        fitted_q=fitted_q,
        envelope_c=math.exp(ln_c),
        envelope_m_const=math.exp(ln_mc),
        envelope_violation=violation,
        saturated=saturated,
    )


@dataclass(frozen=True)
class LevinsonVerdict:
    verdict: str  # "INTEGRABLE", "DIVERGENT", or "INCONCLUSIVE"
    p: float
    q: float
    margin: float
    strongly_decomposable_evidence: bool
    points_used: int


def levinson_classify(prof: ResolventProfile, margin: float = 0.15) -> LevinsonVerdict:
    """Integrability classification of ``ln N(y)`` near ``y = 0``.

    Fits ``ln N(y) ~ c y^{-p}`` and ``ln ln M(y) ~ c' y^{-q}`` on the
    unsaturated ladder points with ``N >= 2``.  ``p < 1 - margin`` makes the
    integral of ``ln N`` finite (INTEGRABLE, which is the evidence for
    strong decomposability); ``p > 1 + margin`` is DIVERGENT, meaning only
    that this sufficient condition failed; anything in between is
    INCONCLUSIVE.  The margin absorbs the fit noise observed on geometric
    ladders so the verdict does not flip on rounding.
    """
    mask = (prof.count_n >= 2) & ~prof.saturated
    if mask.sum() < 4:
        raise InsufficientDataError(
            f"need at least 4 unsaturated ladder points with N >= 2, have {int(mask.sum())}"
        )
    y = prof.y_grid[mask]
    ln_n = np.log(prof.count_n[mask].astype(float))
    p = float(-np.polyfit(np.log(y), np.log(ln_n), 1)[0])
    m_mask = mask & (np.log(np.maximum(prof.envelope_m, 1.0 + 1e-15)) > 1.0)
    if m_mask.sum() >= 4:
        lnln_m = np.log(np.log(prof.envelope_m[m_mask]))
        q = float(-np.polyfit(np.log(prof.y_grid[m_mask]), lnln_m, 1)[0])
    else:
        q = float("nan")
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
        margin=margin,
        strongly_decomposable_evidence=(verdict == "INTEGRABLE"),
        points_used=int(mask.sum()),
    )


def cn_bound_to_N_bound(alpha: float, m_const: float, y: float) -> float:
    """Closed-form crossing-count bound ``(2 M / |y|)^(1/alpha)`` on ``ln N(y)``.

    Valid under the premise ``||c_n|| <= (M / ln(n+1)^alpha)^n``; pure
    arithmetic, monotone decreasing in ``|y|``.
    """
    if not alpha > 0 or not m_const > 0:
        raise ValueError("alpha and M must be positive")
    if y == 0:
        raise ValueError("y must be nonzero")
    return (2.0 * m_const / abs(y)) ** (1.0 / alpha)


def neumann_residual(t, split: SplitPair, lam: complex, n_max: Optional[int] = None) -> float:
    """Relative gap between the direct resolvent and the truncated chain series.

    Evaluates ``(I + sum_{n<=n_max} c_n / (Im lambda)^n)(S - lambda)^{-1}``
    against a dense solve of ``(T - lambda)^{-1}``; exact (to rounding) at
    ``n_max = dim`` when the quasinilpotent part is strictly triangular.
    """
    if lam.imag == 0.0:
        raise ValueError("the expansion needs Im(lambda) != 0")
    entries = as_entries(t)
    diag = _require_real_diagonal(split)
    v = split.n_part.entries
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
    with open(path, "w", encoding="ascii") as fh:
        fh.write("y,count_n,envelope_m,ln_envelope_m\n")
        for j, y in enumerate(prof.y_grid):
            m = prof.envelope_m[j]
            fh.write(f"{float(y)!r},{int(prof.count_n[j])},{float(m)!r},{math.log(m)!r}\n")


def r_table_to_csv(prof: ResolventProfile, path) -> None:
    """CSV columns: n, y, r_n(y); zero rows are skipped."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("n,y,r_n\n")
        for j, y in enumerate(prof.y_grid):
            for k in range(prof.n_max):
                val = prof.r[k, j]
                if val > 0.0:
                    fh.write(f"{k + 1},{float(y)!r},{float(val)!r}\n")
