"""Config-driven experiment registry.

Every numerically checkable claim the package implements is exposed as a
named experiment that builds its operators, runs the relevant diagnostics,
writes CSV artifacts plus a ``summary.json``, and reports each check as
pass/fail.  The CLI wraps this registry; tests call it directly.
"""

from __future__ import annotations

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
    KERNEL_PRESETS,
    KernelSpec,
    OperatorMatrix,
    build_ebeta_operator,
    build_fractional,
    build_imaginary_fractional,
    build_multiplication,
    build_operator,
    load_matrix,
    operator_norm,
    save_matrix,
    split_given_basis,
    wrap_matrix,
)
from .specfun import EbetaSpec, e_beta, m_moment

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


def _section(raw: dict, name: str, allowed: set) -> dict:
    """The ``name`` object of the config, checked for unknown keys."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    if set(section) - allowed:
        raise ConfigError(f"unknown {name} keys: {sorted(set(section) - allowed)}")
    return section


def _number(where: str, value) -> float:
    """A finite JSON number; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(where: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


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
        grid_cfg = _section(raw, "grid", _GRID_KEYS)
        if "omega" in grid_cfg:
            kwargs["omega"] = _number("grid.omega", grid_cfg["omega"])
            if not kwargs["omega"] > 0:
                raise ConfigError(f"grid.omega must be positive, got {kwargs['omega']!r}")
        if "n" in grid_cfg:
            kwargs["n"] = _integer("grid.n", grid_cfg["n"])
            if kwargs["n"] < 2:
                raise ConfigError(f"grid.n must be at least 2, got {kwargs['n']}")
        kernel_cfg = _section(raw, "kernel", _KERNEL_KEYS)
        for key in ("beta", "c", "alpha"):
            if key in kernel_cfg:
                kwargs[key] = _number(f"kernel.{key}", kernel_cfg[key])
        if not kwargs.get("beta", 1.0) > 0:
            raise ConfigError(f"kernel.beta must be positive, got {kwargs['beta']!r}")
        if "s" in kernel_cfg:
            if kernel_cfg["s"] not in KERNEL_PRESETS:
                raise ConfigError(
                    f"unknown kernel preset {kernel_cfg['s']!r}; known: {list(KERNEL_PRESETS)}"
                )
            kwargs["s_preset"] = kernel_cfg["s"]
        ladder_cfg = _section(raw, "ladder", _LADDER_KEYS)
        if "y" in ladder_cfg:
            if not isinstance(ladder_cfg["y"], list):
                raise ConfigError(f"ladder.y must be a list, got {ladder_cfg['y']!r}")
            kwargs["y_ladder"] = tuple(_number("ladder.y", v) for v in ladder_cfg["y"])
            if 0.0 in kwargs["y_ladder"]:
                raise ConfigError("ladder.y must avoid y = 0")
        for key in ("xi_k_max", "xi_per_octave"):
            if key in ladder_cfg:
                kwargs[key] = _integer(f"ladder.{key}", ladder_cfg[key])
        tol_cfg = _section(raw, "tolerances", _TOLERANCE_KEYS)
        kwargs["tolerances"] = {k: _number(f"tolerances.{k}", v) for k, v in tol_cfg.items()}
        if "seed" in raw:
            kwargs["seed"] = _integer("seed", raw["seed"])
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


def _write_csv(outdir: str, name: str, header: str, rows) -> None:
    """Write ``outdir/name``: the header line, then one line per row.

    Strings and integers are written as they are, every other value as the
    ``repr`` of a float, which round-trips exactly.
    """
    with open(os.path.join(outdir, name), "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (str, int)) else repr(float(v)) for v in row) + "\n")


def _phi_identity(x: float) -> float:
    return x


def _phi_plus(grid: Grid, v: np.ndarray) -> OperatorMatrix:
    """``phi + V`` with ``phi(x) = x`` on ``grid`` and ``V`` given by its entries."""
    return wrap_matrix(build_multiplication(grid, _phi_identity).entries + v, omega=grid.omega)


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
    t = _phi_plus(grid, build_fractional(grid, config.beta or 0.5).entries)
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


def _default_ladder(kind: str, beta: float) -> tuple:
    """Nine-point geometric ``y`` ladder for a ``phi + V`` profile.

    ``kind`` is ``"fractional"`` (``V = J^beta``) or ``"ebeta"`` (the
    log-singular family); the default of every ``phi + V`` profile
    experiment.
    """
    if kind == "fractional":
        if beta <= 0.75:
            return tuple(2.0 ** (0.5 - e / 4.0) for e in range(9))
        return tuple(2.0 ** (-e / 3.0) for e in range(9))
    if beta >= 1.0:
        return tuple(3.5 * 2.0 ** (-e / 2.0) for e in range(9))
    return tuple(1.7 * 2.0 ** (-e / 8.0) for e in range(9))


def _phi_plus_profile(
    config: ExperimentConfig, n: int, kind: str, beta: float, ladder: tuple
) -> res.ResolventProfile:
    """Resolvent profile of ``phi + V`` split in the given basis.

    ``V`` is ``J^beta`` (``kind="fractional"``) or the log-singular build
    (``kind="ebeta"``, cached through ``config.cache_dir``).  The envelope
    uses 64 ``x`` samples, the chain sweep 33.
    """
    grid = make_grid(config.omega, n)
    if kind == "fractional":
        v_op = build_fractional(grid, beta)
    else:
        v_op = _cached_ebeta(config, grid, beta)
    t = _phi_plus(grid, v_op.entries)
    return res.profile(
        t, split_given_basis(t), ladder, x_samples=64, power_x_samples=33, seed=config.seed
    )


def _exponent_checks(name: str, anchor: str, fitted_p: float, target: float) -> list:
    """``<name>-lower`` and ``<name>-upper``: ``fitted_p`` within ``target +- 0.4``."""
    return [
        Check(f"{name}-lower", anchor, fitted_p, target - 0.4, fitted_p >= target - 0.4),
        Check(f"{name}-upper", anchor, fitted_p, target + 0.4, fitted_p <= target + 0.4),
    ]


def _verdict_check(config: ExperimentConfig, prof, name: str, anchor: str, expected: str):
    """Levinson verdict of ``prof`` and the check that it is ``expected``."""
    verdict = res.levinson_classify(prof, margin=config.tol("levinson_margin", 0.15))
    return verdict, Check(name, anchor, verdict.p, 1.0, verdict.verdict == expected)


def _exp_resolvent_profile(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 256
    beta = config.beta if config.beta is not None else 1.0
    ladder = config.y_ladder or _default_ladder("fractional", beta)
    prof = _phi_plus_profile(config, n, "fractional", beta, ladder)
    res.profile_to_csv(prof, os.path.join(outdir, "profile.csv"))
    res.r_table_to_csv(prof, os.path.join(outdir, "r_table.csv"))

    # chain-series identity against the dense inverse on a small companion build
    small = make_grid(config.omega, 32)
    rng = np.random.default_rng(config.seed)
    t32 = _phi_plus(
        small, np.tril(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)), -1) * 0.25
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
    checks = [
        Check("chain-series-vs-dense-inverse", "resolvent-chain-expansion", worst_neumann, 1e-8, worst_neumann <= 1e-8),
        *_exponent_checks("count-exponent", "resolvent-chain-expansion", prof.fitted_p, 1.0 / beta),
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
    ladder = config.y_ladder or _default_ladder("ebeta", beta)
    prof = _phi_plus_profile(config, n, "ebeta", beta, ladder)
    res.profile_to_csv(prof, os.path.join(outdir, "profile.csv"))
    res.r_table_to_csv(prof, os.path.join(outdir, "r_table.csv"))
    expected = "INTEGRABLE" if 1.0 / beta < 1.0 else "DIVERGENT"
    verdict, check = _verdict_check(
        config, prof, f"verdict-is-{expected.lower()}", "log-count-integrability", expected
    )
    return Summary(
        "levinson",
        _echo(config, n=n, beta=beta, ladder=list(ladder), verdict=verdict.verdict,
              p=verdict.p, q=verdict.q),
        [check],
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
    _write_csv(outdir, "power_law.csv", "n,defect", errs.items())
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
    _write_csv(outdir, "asymptotics.csv", "beta,x,ratio", rows)
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
    _write_csv(outdir, "semigroup.csv", "n,worst_rel_defect", worst.items())
    return Summary("semigroup-ebeta", _echo(config, sizes=list(sizes), pairs=len(pairs)), checks)


def _exp_growth_frac(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 256
    checks = []
    fitted = {}
    for beta in (0.5, 1.0):
        prof = _phi_plus_profile(config, n, "fractional", beta, _default_ladder("fractional", beta))
        res.profile_to_csv(prof, os.path.join(outdir, f"profile_beta{beta:g}.csv"))
        fitted[beta] = prof.fitted_p
        checks += _exponent_checks(
            f"exponent-beta{beta:g}", "fractional-growth-exponent", prof.fitted_p, 1.0 / beta
        )
    return Summary("growth-frac", _echo(config, n=n, fitted={str(k): v for k, v in fitted.items()}), checks)


def _exp_growth_ebeta(config: ExperimentConfig, outdir: str) -> Summary:
    n = config.n or 256
    checks = []
    verdicts = {}
    for beta, expected in ((2.0, "INTEGRABLE"), (0.5, "DIVERGENT")):
        prof = _phi_plus_profile(config, n, "ebeta", beta, _default_ladder("ebeta", beta))
        res.profile_to_csv(prof, os.path.join(outdir, f"profile_beta{beta:g}.csv"))
        verdicts[beta], check = _verdict_check(
            config, prof, f"verdict-beta{beta:g}-{expected.lower()}", "log-singular-growth-exponent", expected
        )
        checks.append(check)
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
    s = KernelSpec.preset(preset, config.alpha).s
    ladder = sym.default_xi_ladder(config.xi_k_max, per_octave=config.xi_per_octave)
    trace = sym.trace_symbol(s, config.omega, ladder)
    sym.trace_to_csv(trace, os.path.join(outdir, "trace.csv"))
    checks = []
    if preset != "imaginary_power":
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
    ident = build_operator(grid, KernelSpec.preset("one"))
    xi0 = 2.0 * math.pi * round(64.0 * config.omega / (2.0 * math.pi)) / config.omega
    r_ident = sym.prop54_residual(ident, xi0)
    checks.append(
        Check("identity-kernel-residual", "plane-wave-symbol-residual", r_ident, 1e-8, r_ident <= 1e-8)
    )
    _write_csv(outdir, "residuals.csv", "xi,residual", zip(frequencies, residuals))
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
        report = sym.boundedness_indicator(KernelSpec.preset(preset, config.alpha).s, config.omega, ladder)
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
    _write_csv(outdir, "boundedness.csv", "preset,sup_indicator,trend_slope,classification", rows)
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
    s = KernelSpec.fractional_imaginary(alpha).s
    lo = math.exp(-alpha * math.pi / 2.0)
    hi = math.exp(alpha * math.pi / 2.0)
    for xi, target in ((1e4, lo), (-1e4, hi)):
        s1, _ = sym.transform(s, config.omega, xi)
        gval = abs(-1j * xi * s1)
        rel = abs(gval - target) / target
        checks.append(
            Check(f"symbol-modulus-at-xi-{xi:+.0f}", "imaginary-order-annulus", rel, 0.02, rel <= 0.02)
        )
    rows = [(size, moduli_by_size[size].max(), moduli_by_size[size].min()) for size in sizes]
    _write_csv(outdir, "eigen_moduli.csv", "n,max_modulus,min_modulus", rows)
    return Summary("annulus-jialpha", _echo(config, n=n, alpha=alpha, eps=eps), checks)


def _exp_witness(config: ExperimentConfig, outdir: str) -> Summary:
    ladder = sym.default_xi_ladder(config.xi_k_max, per_octave=config.xi_per_octave)
    cases = (
        # check name, echo key, kernel, expected verdict
        ("imaginary-order-witness-fires", "imaginary_power",
         KernelSpec.fractional_imaginary(config.alpha), "NOT_SV_TRIANGULAR"),
        ("identity-kernel-witness-silent", "one", KernelSpec.preset("one"), "INCONCLUSIVE"),
        ("zero-order-witness-silent", "alpha_zero", KernelSpec.fractional_imaginary(0.0), "INCONCLUSIVE"),
    )
    checks = []
    verdicts = {}
    for name, key, kernel, expected in cases:
        trace = sym.trace_symbol(kernel.s, config.omega, ladder)
        verdict = sym.non_triangular_witness(trace, tol=config.tolerances.get("witness_tol"))
        verdicts[key] = verdict.verdict
        checks.append(
            Check(name, "two-point-non-triangularity", verdict.separation, verdict.tol, verdict.verdict == expected)
        )
    return Summary("witness", _echo(config, alpha=config.alpha, verdicts=verdicts), checks)


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
