"""Config-driven experiment registry.

Every numerically checkable claim the package implements is exposed as a
named experiment that builds its operators, runs the relevant diagnostics,
writes CSV artifacts plus a ``summary.json``, and reports each check as
pass/fail.  The CLI wraps this registry; tests call it directly.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import resolvent as res
from . import spectral as spec
from . import symbol as sym
from .grid import Grid, make_grid
from .operators import (
    OperatorMatrix,
    build_ebeta_operator,
    build_fractional,
    build_imaginary_fractional,
    build_multiplication,
    load_matrix,
    operator_norm,
    save_matrix,
    split_given_basis,
    wrap_matrix,
)
from .specfun import EbetaSpec, e_beta, gamma_complex, m_moment

__all__ = ["ExperimentConfig", "ConfigError", "Check", "Summary", "REGISTRY", "run_experiment"]


class ConfigError(ValueError):
    """Raised on malformed or unknown configuration content."""


_GRID_KEYS = {"omega", "n"}
_KERNEL_KEYS = {"beta", "c", "alpha", "s"}
_LADDER_KEYS = {"y", "xi_k_max", "xi_per_octave"}
_TOLERANCE_KEYS = {
    "sigma_distance",
    "mapping_distance",
    "vf_radius",
    "semigroup_rel",
    "witness_tol",
    "noise_eps",
    "levinson_margin",
}
_TOP_KEYS = {"experiment", "grid", "kernel", "ladder", "tolerances", "seed", "output_dir", "cache_dir"}

_KERNEL_PRESETS = {
    "one": (lambda t: 1.0 + 0.0j, lambda u: complex(u)),
    "linear": (lambda t: complex(t), lambda u: complex(0.5 * u * u)),
    "inv_sqrt": (lambda t: complex(t) ** -0.5, lambda u: complex(2.0 * math.sqrt(u))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration of one experiment run."""

    experiment: str
    omega: float = 1.0
    n: Optional[int] = None
    beta: Optional[float] = None
    c: float = 0.0
    alpha: float = 1.0
    s_preset: Optional[str] = None
    y_ladder: Optional[tuple] = None
    xi_k_max: int = 14
    xi_per_octave: int = 4
    tolerances: dict = field(default_factory=dict)
    seed: int = 2024
    output_dir: str = "triangulab-out"
    cache_dir: Optional[str] = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("config is missing the 'experiment' key")
        name = raw["experiment"]
        if name not in REGISTRY:
            raise ConfigError(
                f"unknown experiment {name!r}; known: {sorted(REGISTRY)}"
            )
        kwargs: dict = {"experiment": name}
        grid_cfg = raw.get("grid", {})
        if set(grid_cfg) - _GRID_KEYS:
            raise ConfigError(f"unknown grid keys: {sorted(set(grid_cfg) - _GRID_KEYS)}")
        if "omega" in grid_cfg:
            kwargs["omega"] = float(grid_cfg["omega"])
        if "n" in grid_cfg:
            kwargs["n"] = int(grid_cfg["n"])
        kernel_cfg = raw.get("kernel", {})
        if set(kernel_cfg) - _KERNEL_KEYS:
            raise ConfigError(f"unknown kernel keys: {sorted(set(kernel_cfg) - _KERNEL_KEYS)}")
        if "beta" in kernel_cfg:
            kwargs["beta"] = float(kernel_cfg["beta"])
        if "c" in kernel_cfg:
            kwargs["c"] = float(kernel_cfg["c"])
        if "alpha" in kernel_cfg:
            kwargs["alpha"] = float(kernel_cfg["alpha"])
        if "s" in kernel_cfg:
            preset = kernel_cfg["s"]
            if preset not in _KERNEL_PRESETS and preset != "imaginary_power":
                raise ConfigError(
                    f"unknown kernel preset {preset!r}; known: "
                    f"{sorted(_KERNEL_PRESETS) + ['imaginary_power']}"
                )
            kwargs["s_preset"] = preset
        ladder_cfg = raw.get("ladder", {})
        if set(ladder_cfg) - _LADDER_KEYS:
            raise ConfigError(f"unknown ladder keys: {sorted(set(ladder_cfg) - _LADDER_KEYS)}")
        if "y" in ladder_cfg:
            kwargs["y_ladder"] = tuple(float(v) for v in ladder_cfg["y"])
        if "xi_k_max" in ladder_cfg:
            kwargs["xi_k_max"] = int(ladder_cfg["xi_k_max"])
        if "xi_per_octave" in ladder_cfg:
            kwargs["xi_per_octave"] = int(ladder_cfg["xi_per_octave"])
        tol_cfg = raw.get("tolerances", {})
        if set(tol_cfg) - _TOLERANCE_KEYS:
            raise ConfigError(
                f"unknown tolerance keys: {sorted(set(tol_cfg) - _TOLERANCE_KEYS)}"
            )
        kwargs["tolerances"] = {k: float(v) for k, v in tol_cfg.items()}
        if "seed" in raw:
            kwargs["seed"] = int(raw["seed"])
        if "output_dir" in raw:
            kwargs["output_dir"] = str(raw["output_dir"])
        if "cache_dir" in raw:
            kwargs["cache_dir"] = str(raw["cache_dir"])
        return cls(**kwargs)

    def tol(self, key: str, default: float) -> float:
        return self.tolerances.get(key, default)


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    value: float
    threshold: float
    passed: bool


@dataclass
class Summary:
    experiment: str
    config_echo: dict
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "config_echo": self.config_echo,
            "checks": [
                {
                    "name": c.name,
                    "anchor": c.anchor,
                    "value": float(c.value),
                    "threshold": float(c.threshold),
                    "pass": bool(c.passed),
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _echo(config: ExperimentConfig, **resolved) -> dict:
    raw = dataclasses.asdict(config)
    # paths are not part of the scientific configuration; dropping them keeps
    # summary.json byte-identical across runs of the same config and seed
    raw.pop("output_dir", None)
    raw.pop("cache_dir", None)
    raw["resolved"] = resolved
    return json.loads(json.dumps(raw, default=str, sort_keys=True))


def _phi_identity(x: float) -> float:
    return x


def _cached_ebeta(config: ExperimentConfig, grid: Grid, beta: float) -> OperatorMatrix:
    """Build (or reload) a log-singular convolution matrix.

    The per-cell quadratures make these the most expensive constructions, so
    the CLI can cache them in the documented text format.
    """
    if config.cache_dir:
        # repr is exact, so parameters that differ in any digit never share a file
        tag = f"ebeta_b{float(beta)!r}_c{float(config.c)!r}_om{float(grid.omega)!r}_n{grid.n}.txt"
        path = os.path.join(config.cache_dir, tag)
        if os.path.exists(path):
            cached = load_matrix(path)
            if cached.grid.n == grid.n and abs(cached.grid.omega - grid.omega) < 1e-12:
                return OperatorMatrix(grid, cached.entries.copy(), "cached")
        op = build_ebeta_operator(grid, EbetaSpec(beta, config.c))
        os.makedirs(config.cache_dir, exist_ok=True)
        # write under a name no reader looks for, then rename it into place
        # atomically, so a concurrent run never loads a half-written matrix
        tmp = os.path.join(config.cache_dir, f".{tag}.{os.getpid()}.tmp")
        try:
            save_matrix(op, tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return op
    return build_ebeta_operator(grid, EbetaSpec(beta, config.c))


def _kernel_handles(config: ExperimentConfig, preset: str):
    if preset == "imaginary_power":
        alpha = config.alpha
        if alpha == 0.0:
            return _KERNEL_PRESETS["one"]
        norm = gamma_complex(1.0 + 1j * alpha)
        g2 = gamma_complex(2.0 + 1j * alpha)
        return (
            lambda t: cmath.exp(1j * alpha * math.log(t)) / norm,
            lambda u: (u * cmath.exp(1j * alpha * math.log(u)) / g2) if u > 0 else 0.0 + 0.0j,
        )
    return _KERNEL_PRESETS[preset]


# ---------------------------------------------------------------------------
# experiment implementations


def _exp_sigma_equality(config: ExperimentConfig, outdir: str) -> Summary:
    rng = np.random.default_rng(config.seed)
    count = 100
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        report = spec.verify_sigma_equality(a)
        worst = max(worst, report.distance)
    tol = config.tol("sigma_distance", 1e-8)
    checks = [
        Check("max-sigma-distance-over-100-random", "spectrum-equals-scalar-part", worst, tol, worst <= tol)
    ]
    return Summary("sigma-equality", _echo(config, matrices=count, max_dim=64), checks)


def _exp_spectral_mapping(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 32
    grid = make_grid(config.omega, n)
    t = wrap_matrix(
        build_multiplication(grid, _phi_identity).entries
        + build_fractional(grid, config.beta or 0.5).entries,
        omega=config.omega,
    )
    tol_d = config.tol("mapping_distance", 1e-6)
    tol_v = config.tol("vf_radius", 1e-6)
    functions = [
        ("identity", lambda z: z),
        ("square-plus-one", lambda z: z * z + 1.0),
        ("cayley-pole-5", lambda z: z / (z - 5.0)),
    ]
    checks = []
    for label, f in functions:
        report = spec.verify_spectral_mapping(t, f, tolerance=tol_d)
        checks.append(
            Check(f"distance-{label}", "analytic-spectral-mapping", report.distance, tol_d, report.distance <= tol_d)
        )
        checks.append(
            Check(f"vf-radius-{label}", "analytic-spectral-mapping", report.vf_spectral_radius, tol_v, report.vf_spectral_radius <= tol_v)
        )
    return Summary("spectral-mapping", _echo(config, n=n, functions=[f[0] for f in functions]), checks)


def _exp_macaev_norms(config: ExperimentConfig, outdir: str) -> Summary:
    rng = np.random.default_rng(config.seed)
    slack = 1e-10
    p_grid = (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)
    worst_ideal = -math.inf
    worst_monotone = -math.inf
    cs_factor = math.sqrt(sum(1.0 / (2 * k - 1) ** 2 for k in range(1, 17)))
    worst_cs = -math.inf
    for _ in range(50):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        omega_norm = spec.macaev_norm(a)
        trace_norm = spec.schatten_norm(a, 1.0)
        worst_ideal = max(worst_ideal, omega_norm - trace_norm)
        hs = spec.schatten_norm(a, 2.0)
        worst_cs = max(worst_cs, omega_norm - hs * cs_factor)
        values = [spec.schatten_norm(a, p) for p in p_grid]
        worst_monotone = max(
            worst_monotone, max(values[i + 1] - values[i] for i in range(len(values) - 1))
        )
    fixed = spec.macaev_norm(np.diag([3.0, 2.0, 1.0]).astype(complex))
    fixed_err = abs(fixed - (3.0 + 2.0 / 3.0 + 1.0 / 5.0))
    checks = [
        Check("weighted-norm-below-trace-norm", "singular-value-ideal-norms", worst_ideal, slack, worst_ideal <= slack),
        Check("schatten-monotone-in-p", "singular-value-ideal-norms", worst_monotone, slack, worst_monotone <= slack),
        Check("weighted-norm-cauchy-schwarz", "singular-value-ideal-norms", worst_cs, slack, worst_cs <= slack),
        Check("diag-321-closed-form", "singular-value-ideal-norms", fixed_err, 1e-12, fixed_err <= 1e-12),
    ]
    return Summary("macaev-norms", _echo(config, matrices=50, dim=16, p_grid=[str(p) for p in p_grid]), checks)


def _default_profile_ladder(beta: float) -> tuple:
    if beta <= 0.75:
        return tuple(2.0 ** (0.5 - e / 4.0) for e in range(9))
    return tuple(2.0 ** (-e / 3.0) for e in range(9))


def _build_phi_plus(
    config: ExperimentConfig, grid: Grid, kind: str, beta: float
) -> OperatorMatrix:
    if kind == "fractional":
        v_op = build_fractional(grid, beta)
    else:
        v_op = _cached_ebeta(config, grid, beta)
    return wrap_matrix(
        build_multiplication(grid, _phi_identity).entries + v_op.entries, omega=grid.omega
    )


def _exp_resolvent_profile(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 256
    beta = config.beta if config.beta is not None else 1.0
    grid = make_grid(config.omega, n)
    t = _build_phi_plus(config, grid, "fractional", beta)
    split = split_given_basis(t)
    ladder = config.y_ladder or _default_profile_ladder(beta)
    prof = res.profile(t, split, ladder, x_samples=64, power_x_samples=33, seed=config.seed)
    res.profile_to_csv(prof, os.path.join(outdir, "profile.csv"))
    res.r_table_to_csv(prof, os.path.join(outdir, "r_table.csv"))

    # chain-series identity against the dense inverse on a small companion build
    small = make_grid(config.omega, 32)
    rng = np.random.default_rng(config.seed)
    t32 = wrap_matrix(
        build_multiplication(small, _phi_identity).entries
        + np.tril(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)), -1) * 0.25,
        omega=config.omega,
    )
    split32 = split_given_basis(t32)
    worst_neumann = 0.0
    drawn = 0
    while drawn < 20:
        lam = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if abs(lam.imag) < 0.1:
            continue
        drawn += 1
        worst_neumann = max(worst_neumann, res.neumann_residual(t32, split32, lam))
    target_p = 1.0 / beta
    checks = [
        Check("chain-series-vs-dense-inverse", "resolvent-chain-expansion", worst_neumann, 1e-8, worst_neumann <= 1e-8),
        Check("count-exponent-lower", "resolvent-chain-expansion", prof.fitted_p, target_p - 0.4, prof.fitted_p >= target_p - 0.4),
        Check("count-exponent-upper", "resolvent-chain-expansion", prof.fitted_p, target_p + 0.4, prof.fitted_p <= target_p + 0.4),
        Check("envelope-uplift-factor", "resolvent-chain-expansion", prof.envelope_violation, 100.0, prof.envelope_violation <= 100.0),
    ]
    return Summary(
        "resolvent-profile",
        _echo(config, n=n, beta=beta, ladder=list(ladder), fitted_q=prof.fitted_q),
        checks,
    )


def _exp_levinson(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 256
    beta = config.beta if config.beta is not None else 2.0
    grid = make_grid(config.omega, n)
    t = _build_phi_plus(config, grid, "ebeta", beta)
    split = split_given_basis(t)
    if config.y_ladder:
        ladder = config.y_ladder
    elif beta >= 1.0:
        ladder = tuple(3.5 * 2.0 ** (-e / 2.0) for e in range(9))
    else:
        ladder = tuple(1.7 * 2.0 ** (-e / 8.0) for e in range(9))
    prof = res.profile(t, split, ladder, x_samples=64, power_x_samples=33, seed=config.seed)
    res.profile_to_csv(prof, os.path.join(outdir, "profile.csv"))
    res.r_table_to_csv(prof, os.path.join(outdir, "r_table.csv"))
    verdict = res.levinson_classify(prof, margin=config.tol("levinson_margin", 0.15))
    expected = "INTEGRABLE" if 1.0 / beta < 1.0 else "DIVERGENT"
    checks = [
        Check(
            f"verdict-is-{expected.lower()}",
            "log-count-integrability",
            verdict.p,
            1.0,
            verdict.verdict == expected,
        )
    ]
    return Summary(
        "levinson",
        _echo(config, n=n, beta=beta, ladder=list(ladder), verdict=verdict.verdict,
              p=verdict.p, q=verdict.q),
        checks,
    )


def _exp_fractional_powers(config: ExperimentConfig, outdir: str) -> Summary:
    omega = config.omega
    errs = {}
    for size in (64, 128, 256, 512):
        grid = make_grid(omega, size)
        jh = build_fractional(grid, 0.5)
        j1 = build_fractional(grid, 1.0)
        errs[size] = operator_norm(jh.entries @ jh.entries - j1.entries)
    worst_ratio = min(errs[a] / errs[2 * a] for a in (64, 128, 256))
    checks = [
        Check("square-root-law-halving-ratio", "fractional-power-law", worst_ratio, 1.5, worst_ratio >= 1.5)
    ]
    with open(os.path.join(outdir, "power_law.csv"), "w", encoding="ascii") as fh:
        fh.write("n,defect\n")
        for size, err in errs.items():
            fh.write(f"{size},{float(err)!r}\n")
    for beta, m in ((0.5, 2), (1.0, 3)):
        grid = make_grid(omega, 256)
        jb = build_fractional(grid, beta)
        norm = operator_norm(np.linalg.matrix_power(jb.entries, m))
        bound = 1.05 * omega ** (m * beta) / math.gamma(m * beta + 1.0)
        checks.append(
            Check(f"power-norm-bound-beta{beta:g}-m{m}", "fractional-power-law", norm, bound, norm <= bound)
        )
    return Summary("fractional-powers", _echo(config, sizes=[64, 128, 256, 512]), checks)


def _exp_ebeta_asymptotics(config: ExperimentConfig, outdir: str) -> Summary:
    checks = []
    rows = []
    for beta in (1.0, 2.0):
        kernel = EbetaSpec(beta, config.c)
        for x, lo, hi in ((1e-6, 0.8, 1.2), (1e-8, 0.9, 1.1)):
            ratio = e_beta(x, kernel) * x * abs(math.log(x)) ** (beta + 1.0) / math.gamma(beta + 1.0)
            rows.append((beta, x, ratio))
            checks.append(
                Check(
                    f"asymptotic-ratio-beta{beta:g}-x{x:g}-low",
                    "log-singular-kernel-asymptotics", ratio, lo, ratio >= lo,
                )
            )
            checks.append(
                Check(
                    f"asymptotic-ratio-beta{beta:g}-x{x:g}-high",
                    "log-singular-kernel-asymptotics", ratio, hi, ratio <= hi,
                )
            )
        # sampled lower-bound constant on (0, 0.5]
        m_fit = min(
            e_beta(x, kernel) * x * abs(math.log(x)) ** (beta + 1.0)
            for x in np.geomspace(1e-8, 0.5, 25)
        )
        checks.append(
            Check(f"kernel-lower-bound-beta{beta:g}", "log-singular-kernel-asymptotics", m_fit, 0.0, m_fit > 0.0)
        )
    # moment finiteness and the fitted-constant bound at orders 4, 8, 16
    kernel = EbetaSpec(1.0, config.c)
    moments = {k: m_moment(float(k), kernel, config.omega) for k in (4, 8, 16)}
    fitted_m = max(math.log(k) * moments[k] ** (1.0 / k) for k in moments)
    bound_ok = all(
        moments[k] <= (fitted_m / math.log(k)) ** k * (1 + 1e-12) for k in moments
    )
    checks.append(
        Check("moment-log-bound-single-constant", "log-singular-kernel-asymptotics", fitted_m, 10.0, bound_ok and fitted_m <= 10.0)
    )
    decreasing = moments[4] > moments[8] > moments[16]
    checks.append(
        Check("moments-decreasing", "log-singular-kernel-asymptotics", moments[16], moments[8], decreasing)
    )
    with open(os.path.join(outdir, "asymptotics.csv"), "w", encoding="ascii") as fh:
        fh.write("beta,x,ratio\n")
        for beta, x, ratio in rows:
            fh.write(f"{float(beta)!r},{float(x)!r},{float(ratio)!r}\n")
    return Summary("ebeta-asymptotics", _echo(config, moments={str(k): v for k, v in moments.items()}), checks)


def _exp_semigroup_ebeta(config: ExperimentConfig, outdir: str) -> Summary:
    omega = config.omega
    orders = (0.5, 1.0, 1.5)
    pairs = list(itertools.product(orders, repeat=2))
    needed = sorted(set(orders) | {a + b for a, b in pairs})
    sizes = (64, 128, 256)
    worst = {}
    for size in sizes:
        grid = make_grid(omega, size)
        ops = {b: _cached_ebeta(config, grid, b) for b in needed}
        worst[size] = max(
            operator_norm(ops[a].entries @ ops[b].entries - ops[a + b].entries)
            / operator_norm(ops[a + b])
            for a, b in pairs
        )
    tol = config.tol("semigroup_rel", 5e-2)
    checks = [
        Check("semigroup-defect-at-256", "convolution-semigroup-law", worst[256], tol, worst[256] <= tol),
        Check(
            "semigroup-defect-decreasing",
            "convolution-semigroup-law",
            worst[256],
            worst[64],
            worst[64] > worst[128] > worst[256],
        ),
    ]
    with open(os.path.join(outdir, "semigroup.csv"), "w", encoding="ascii") as fh:
        fh.write("n,worst_rel_defect\n")
        for size in sizes:
            fh.write(f"{size},{float(worst[size])!r}\n")
    return Summary("semigroup-ebeta", _echo(config, sizes=list(sizes), pairs=len(pairs)), checks)


def _exp_growth_frac(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 256
    checks = []
    fitted = {}
    for beta in (0.5, 1.0):
        grid = make_grid(config.omega, n)
        t = _build_phi_plus(config, grid, "fractional", beta)
        split = split_given_basis(t)
        ladder = _default_profile_ladder(beta)
        prof = res.profile(t, split, ladder, x_samples=64, power_x_samples=33, seed=config.seed)
        res.profile_to_csv(prof, os.path.join(outdir, f"profile_beta{beta:g}.csv"))
        fitted[beta] = prof.fitted_p
        target = 1.0 / beta
        checks.append(
            Check(f"exponent-beta{beta:g}-lower", "fractional-growth-exponent", prof.fitted_p, target - 0.4, prof.fitted_p >= target - 0.4)
        )
        checks.append(
            Check(f"exponent-beta{beta:g}-upper", "fractional-growth-exponent", prof.fitted_p, target + 0.4, prof.fitted_p <= target + 0.4)
        )
    return Summary("growth-frac", _echo(config, n=n, fitted={str(k): v for k, v in fitted.items()}), checks)


def _exp_growth_ebeta(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 256
    checks = []
    verdicts = {}
    for beta, expected in ((2.0, "INTEGRABLE"), (0.5, "DIVERGENT")):
        sub = dataclasses.replace(config, beta=beta, y_ladder=None)
        grid = make_grid(config.omega, n)
        t = _build_phi_plus(sub, grid, "ebeta", beta)
        split = split_given_basis(t)
        if beta >= 1.0:
            ladder = tuple(3.5 * 2.0 ** (-e / 2.0) for e in range(9))
        else:
            ladder = tuple(1.7 * 2.0 ** (-e / 8.0) for e in range(9))
        prof = res.profile(t, split, ladder, x_samples=64, power_x_samples=33, seed=config.seed)
        res.profile_to_csv(prof, os.path.join(outdir, f"profile_beta{beta:g}.csv"))
        verdict = res.levinson_classify(prof, margin=config.tol("levinson_margin", 0.15))
        verdicts[beta] = verdict
        checks.append(
            Check(
                f"verdict-beta{beta:g}-{expected.lower()}",
                "log-singular-growth-exponent",
                verdict.p,
                1.0,
                verdict.verdict == expected,
            )
        )
        # consistency with the closed-form crossing bound, one fitted constant
        mask = (prof.count_n >= 2) & ~prof.saturated
        if mask.sum():
            y = prof.y_grid[mask]
            ln_n = np.log(prof.count_n[mask].astype(float))
            m_fit = max(
                0.5 * float(yv) * float(lv) ** beta for yv, lv in zip(y, ln_n)
            )
            bound_ok = all(
                lv <= res.cn_bound_to_N_bound(beta, m_fit, float(yv)) * (1 + 1e-9)
                for yv, lv in zip(y, ln_n)
            )
            checks.append(
                Check(f"count-bound-beta{beta:g}", "log-singular-growth-exponent", m_fit, 10.0, bound_ok and m_fit <= 10.0)
            )
    # kernel-bound variant: e_beta dominates the simpler log-singular envelope
    kernel = EbetaSpec(1.0, config.c)
    ratio_floor = min(
        e_beta(u, kernel) * u * (abs(math.log(u)) ** 2 + 1.0)
        for u in np.geomspace(1e-6, 0.9, 30)
    )
    checks.append(
        Check("kernel-dominates-log-envelope", "log-singular-growth-exponent", ratio_floor, 0.0, ratio_floor > 0.0)
    )
    return Summary(
        "growth-ebeta",
        _echo(
            config,
            n=n,
            p_beta2=verdicts[2.0].p,
            p_beta_half=verdicts[0.5].p,
        ),
        checks,
    )


def _exp_symbol_trace(config: ExperimentConfig, outdir: str) -> Summary:
    preset = config.s_preset or "imaginary_power"
    s, _ = _kernel_handles(config, preset)
    ladder = sym.default_xi_ladder(config.xi_k_max, per_octave=config.xi_per_octave)
    trace = sym.trace_symbol(s, config.omega, ladder)
    sym.trace_to_csv(trace, os.path.join(outdir, "trace.csv"))
    checks = []
    if preset in ("one", "linear", "inv_sqrt"):
        sym_err = max(
            abs(trace.s_tilde[i] - np.conj(trace.s_tilde[list(trace.xi_samples).index(-x)]))
            for i, x in enumerate(trace.xi_samples)
            if x > 0
        )
        checks.append(
            Check("hermitian-symmetry-real-kernel", "difference-kernel-symbol", sym_err, 1e-8, sym_err <= 1e-8)
        )
    if preset == "one":
        report = sym.delta_estimate(trace, tol=0.05)
        err = max(abs(report.plus.value - 1.0), abs(report.minus.value - 1.0))
        ok = report.plus.kind == "CONVERGENT" and report.minus.kind == "CONVERGENT"
        checks.append(
            Check("identity-kernel-limits-to-one", "difference-kernel-symbol", err, 0.05, ok and err <= 0.05)
        )
    if preset == "imaginary_power" and config.alpha != 0.0:
        a = abs(config.alpha)
        lo = math.exp(-a * math.pi / 2.0)
        hi = math.exp(a * math.pi / 2.0)
        err = max(
            abs(trace.window_plus.mean_modulus - (lo if config.alpha > 0 else hi)),
            abs(trace.window_minus.mean_modulus - (hi if config.alpha > 0 else lo)),
        )
        checks.append(
            Check("side-moduli-match-ring-radii", "difference-kernel-symbol", err, 0.02 * hi, err <= 0.02 * hi)
        )
    if not checks:
        checks.append(Check("trace-completed", "difference-kernel-symbol", 0.0, 1.0, True))
    return Summary("symbol-trace", _echo(config, preset=preset, samples=len(trace.xi_samples)), checks)


def _exp_prop54(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 2048
    grid = make_grid(config.omega, n)
    op = build_imaginary_fractional(grid, config.alpha)
    frequencies = (32.0, 64.0, 128.0)
    residuals = [sym.prop54_residual(op, xi) for xi in frequencies]
    decreasing = residuals[0] > residuals[1] > residuals[2]
    checks = [
        Check("residual-strictly-decreasing", "plane-wave-symbol-residual", residuals[-1], residuals[0], decreasing)
    ]
    # the identity-kernel case collapses to quadrature noise at full periods
    from .operators import build_difference_operator

    ident = build_difference_operator(grid, *(_KERNEL_PRESETS["one"]))
    xi0 = 2.0 * math.pi * round(64.0 * config.omega / (2.0 * math.pi)) / config.omega
    r_ident = sym.prop54_residual(ident, xi0)
    checks.append(
        Check("identity-kernel-residual", "plane-wave-symbol-residual", r_ident, 1e-8, r_ident <= 1e-8)
    )
    with open(os.path.join(outdir, "residuals.csv"), "w", encoding="ascii") as fh:
        fh.write("xi,residual\n")
        for xi, r in zip(frequencies, residuals):
            fh.write(f"{float(xi)!r},{float(r)!r}\n")
    return Summary("prop54", _echo(config, n=n, alpha=config.alpha, residuals=residuals), checks)


def _exp_boundedness(config: ExperimentConfig, outdir: str) -> Summary:
    ladder = sym.default_xi_ladder(config.xi_k_max, per_octave=config.xi_per_octave)
    cases = [
        ("imaginary_power", "bounded"),
        ("linear", "bounded"),
        ("inv_sqrt", "growing"),
    ]
    checks = []
    rows = []
    for preset, expected in cases:
        s, _ = _kernel_handles(config, preset)
        report = sym.boundedness_indicator(s, config.omega, ladder)
        rows.append((preset, report.sup_value, report.trend_slope, report.classification))
        checks.append(
            Check(
                f"{preset}-classified-{expected}",
                "symbol-boundedness-test",
                report.trend_slope,
                0.1,
                report.classification == expected,
            )
        )
    with open(os.path.join(outdir, "boundedness.csv"), "w", encoding="ascii") as fh:
        fh.write("preset,sup_indicator,trend_slope,classification\n")
        for preset, supv, slope, label in rows:
            fh.write(f"{preset},{float(supv)!r},{float(slope)!r},{label}\n")
    return Summary("boundedness", _echo(config, cases=[c[0] for c in cases]), checks)


def _exp_annulus(config: ExperimentConfig, outdir: str) -> Summary:
    alpha = config.alpha
    n = config.n or 2048
    outer = math.exp(abs(alpha) * math.pi / 2.0)
    eps = config.tol("noise_eps", 1e-12)
    moduli_by_size = {}
    for size in (512, 1024, n):
        grid = make_grid(config.omega, size)
        op = build_imaginary_fractional(grid, alpha)
        eigs = spec.eigenvalues_with_machine_noise(op, eps=eps, seed=config.seed)
        moduli_by_size[size] = np.abs(eigs)
    main = moduli_by_size[n]
    checks = [
        Check("all-moduli-within-outer-ring", "imaginary-order-annulus", float(main.max()), 1.05 * outer, bool(main.max() <= 1.05 * outer)),
        Check("max-modulus-reaches-ring", "imaginary-order-annulus", float(main.max()), 0.85 * outer, bool(main.max() >= 0.85 * outer)),
    ]
    sizes = sorted(moduli_by_size)
    trend = all(
        moduli_by_size[a].max() < moduli_by_size[b].max()
        for a, b in zip(sizes, sizes[1:])
    ) and all(moduli_by_size[s].max() <= outer for s in sizes)
    checks.append(
        Check("filling-approaches-ring-from-below", "imaginary-order-annulus", float(moduli_by_size[sizes[0]].max()), outer, trend)
    )
    s, _ = _kernel_handles(config, "imaginary_power")
    lo = math.exp(-alpha * math.pi / 2.0)
    hi = math.exp(alpha * math.pi / 2.0)
    for xi, target in ((1e4, lo), (-1e4, hi)):
        s1, _ = sym.transform(s, config.omega, xi)
        gval = abs(-1j * xi * s1)
        rel = abs(gval - target) / target
        checks.append(
            Check(f"symbol-modulus-at-xi-{xi:+.0f}", "imaginary-order-annulus", rel, 0.02, rel <= 0.02)
        )
    with open(os.path.join(outdir, "eigen_moduli.csv"), "w", encoding="ascii") as fh:
        fh.write("n,max_modulus,min_modulus\n")
        for size in sizes:
            m = moduli_by_size[size]
            fh.write(f"{size},{float(m.max())!r},{float(m.min())!r}\n")
    return Summary("annulus-jialpha", _echo(config, n=n, alpha=alpha, eps=eps), checks)


def _exp_witness(config: ExperimentConfig, outdir: str) -> Summary:
    ladder = sym.default_xi_ladder(config.xi_k_max, per_octave=config.xi_per_octave)
    alpha_cfg = dataclasses.replace(config, s_preset="imaginary_power")
    s_alpha, _ = _kernel_handles(alpha_cfg, "imaginary_power")
    trace_alpha = sym.trace_symbol(s_alpha, config.omega, ladder)
    verdict_alpha = sym.non_triangular_witness(trace_alpha, tol=config.tolerances.get("witness_tol"))
    s_one, _ = _kernel_handles(config, "one")
    trace_one = sym.trace_symbol(s_one, config.omega, ladder)
    verdict_one = sym.non_triangular_witness(trace_one, tol=config.tolerances.get("witness_tol"))
    zero_cfg = dataclasses.replace(config, alpha=0.0)
    s_zero, _ = _kernel_handles(zero_cfg, "imaginary_power")
    trace_zero = sym.trace_symbol(s_zero, config.omega, ladder)
    verdict_zero = sym.non_triangular_witness(trace_zero, tol=config.tolerances.get("witness_tol"))
    checks = [
        Check(
            "imaginary-order-witness-fires",
            "two-point-non-triangularity",
            verdict_alpha.separation,
            verdict_alpha.tol,
            verdict_alpha.verdict == "NOT_SV_TRIANGULAR",
        ),
        Check(
            "identity-kernel-witness-silent",
            "two-point-non-triangularity",
            verdict_one.separation,
            verdict_one.tol,
            verdict_one.verdict == "INCONCLUSIVE",
        ),
        Check(
            "zero-order-witness-silent",
            "two-point-non-triangularity",
            verdict_zero.separation,
            verdict_zero.tol,
            verdict_zero.verdict == "INCONCLUSIVE",
        ),
    ]
    return Summary(
        "witness",
        _echo(config, alpha=config.alpha, verdicts={
            "imaginary_power": verdict_alpha.verdict,
            "one": verdict_one.verdict,
            "alpha_zero": verdict_zero.verdict,
        }),
        checks,
    )


REGISTRY: dict[str, Callable[[ExperimentConfig, str], Summary]] = {
    "sigma-equality": _exp_sigma_equality,
    "spectral-mapping": _exp_spectral_mapping,
    "macaev-norms": _exp_macaev_norms,
    "resolvent-profile": _exp_resolvent_profile,
    "levinson": _exp_levinson,
    "fractional-powers": _exp_fractional_powers,
    "ebeta-asymptotics": _exp_ebeta_asymptotics,
    "semigroup-ebeta": _exp_semigroup_ebeta,
    "growth-frac": _exp_growth_frac,
    "growth-ebeta": _exp_growth_ebeta,
    "symbol-trace": _exp_symbol_trace,
    "prop54": _exp_prop54,
    "boundedness": _exp_boundedness,
    "annulus-jialpha": _exp_annulus,
    "witness": _exp_witness,
}


def run_experiment(config: ExperimentConfig) -> Summary:
    """Execute one registered experiment, writing artifacts to its output dir."""
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    summary = REGISTRY[config.experiment](config, outdir)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="ascii") as fh:
        fh.write(summary.to_json())
        fh.write("\n")
    return summary
