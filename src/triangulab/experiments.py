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
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import resolvent as res
from . import spectral as spec
from . import symbol as sym
from .exceptions import NumericalError
from .grid import Grid, make_grid
from .operators import (
    KERNEL_PRESETS,
    KernelSpec,
    OperatorMatrix,
    build_difference_operator,
    build_ebeta_operator,
    build_fractional,
    build_imaginary_fractional,
    load_matrix,
    operator_norm,
    save_matrix,
    split_given_basis,
    write_csv,
)
from .specfun import EbetaSpec, e_beta, e_beta_cumulative, m_moment

__all__ = ["ExperimentConfig", "ConfigError", "Check", "Summary", "REGISTRY", "run_experiment"]


class ConfigError(ValueError):
    """Raised on malformed or unknown configuration content."""


def _number(where: str, value) -> float:
    """A finite JSON number; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _positive(where: str, value) -> float:
    value = _number(where, value)
    if not value > 0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    return value


def _non_negative(where: str, value) -> float:
    value = _number(where, value)
    if value < 0:
        raise ConfigError(f"{where} must be non-negative, got {value!r}")
    return value


def _integer(where: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _integer_in(low: float = -math.inf, high: float = math.inf) -> Callable:
    def check(where: str, value) -> int:
        if _integer(where, value) < low:
            raise ConfigError(f"{where} must be at least {low}, got {value}")
        if value > high:
            raise ConfigError(f"{where} must be at most {high}, got {value}")
        return value
    return check


def _preset(where: str, value) -> str:
    if value not in KERNEL_PRESETS:
        raise ConfigError(f"unknown kernel preset {value!r}; known: {list(KERNEL_PRESETS)}")
    return value


def _y_ladder(where: str, value) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    ladder = tuple(_number(where, v) for v in value)
    if not ladder or 0.0 in ladder:
        raise ConfigError(f"{where} must be non-empty and avoid y = 0")
    return ladder


def _path(where: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string, got {value!r}")
    return value


# tolerance key -> default; witness_tol None is 5% of the larger side
# modulus of the symbol (symbol.non_triangular_witness)
_TOLERANCE_DEFAULTS = {
    "sigma_distance": 1e-8,
    "mapping_distance": 1e-6,
    "vf_radius": 1e-6,
    "semigroup_rel": 5e-2,
    "witness_tol": None,
    "noise_eps": 1e-12,
    "levinson_margin": res.LEVINSON_MARGIN,
}

# config key path -> (ExperimentConfig field, validator); a two-part path
# is a key inside a section object, and tolerances collect into one dict
_SCHEMA = {
    ("grid", "omega"): ("omega", _positive),
    ("grid", "n"): ("n", _integer_in(2)),
    ("kernel", "beta"): ("beta", _positive),
    ("kernel", "c"): ("c", _number),
    ("kernel", "alpha"): ("alpha", _number),
    ("kernel", "s"): ("s_preset", _preset),
    ("ladder", "y"): ("y_ladder", _y_ladder),
    # the top frequency 2**xi_k_max must be a finite double
    ("ladder", "xi_k_max"): ("xi_k_max", _integer_in(high=sys.float_info.max_exp - 1)),
    ("ladder", "xi_per_octave"): ("xi_per_octave", _integer_in(1)),
    **{("tolerances", key): ("tolerances", _number) for key in _TOLERANCE_DEFAULTS},
    # replaces the entry above: the witness compares separations against
    # witness_tol, so it must be positive
    ("tolerances", "witness_tol"): ("tolerances", _positive),
    # a negative margin turns the INCONCLUSIVE band inside out
    ("tolerances", "levinson_margin"): ("tolerances", _non_negative),
    ("seed",): ("seed", _integer),
    ("output_dir",): ("output_dir", _path),
    ("cache_dir",): ("cache_dir", _path),
}
_SECTIONS = {path[0] for path in _SCHEMA if len(path) == 2}
# bounds the symbol ladder's size; the default xi_per_octave reaches 4,063
# frequencies per side at the largest xi_k_max (1023)
_MAX_XI_PER_SIDE = 4096


def _config_items(raw: dict):
    """``(key path, value)`` for every config entry but ``experiment``."""
    for key, value in raw.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be a JSON object, got {value!r}")
            yield from (((key, sub), v) for sub, v in value.items())
        elif key != "experiment":
            yield (key,), value


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
        name = raw.get("experiment")
        if not isinstance(name, str) or name not in REGISTRY:
            raise ConfigError(f"experiment must be one of {sorted(REGISTRY)}, got {name!r}")
        kwargs: dict = {"experiment": name, "tolerances": {}}
        for path, value in _config_items(raw):
            if path not in _SCHEMA:
                raise ConfigError(f"unknown config key {'.'.join(path)!r}")
            attr, validate = _SCHEMA[path]
            value = validate(".".join(path), value)
            if attr == "tolerances":
                kwargs["tolerances"][path[1]] = value
            else:
                kwargs[attr] = value
        config = cls(**kwargs)
        per_side = sym.xi_ladder_side_count(config.xi_k_max, per_octave=config.xi_per_octave)
        if not sym.MIN_WINDOW <= per_side <= _MAX_XI_PER_SIDE:
            raise ConfigError(
                f"ladder.xi_k_max {config.xi_k_max} at xi_per_octave {config.xi_per_octave} gives"
                f" {per_side} frequencies per side; the limit-set window needs {sym.MIN_WINDOW}"
                f" and at most {_MAX_XI_PER_SIDE} are allowed"
            )
        return config

    def tol(self, key: str) -> Optional[float]:
        return self.tolerances.get(key, _TOLERANCE_DEFAULTS[key])


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    value: float
    threshold: float
    passed: bool


def at_most(name: str, value: float, limit: float) -> tuple:
    """Check ``name`` of an experiment body: passes when ``value <= limit``."""
    return name, value, limit, value <= limit


def at_least(name: str, value: float, limit: float) -> tuple:
    """Check ``name`` of an experiment body: passes when ``value >= limit``."""
    return name, value, limit, value >= limit


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


def _phi_plus(grid: Grid, v: np.ndarray) -> OperatorMatrix:
    """``phi + V`` with ``phi(x) = x`` on ``grid`` and ``V`` given by its entries."""
    return OperatorMatrix(grid, np.diag(grid.nodes) + v)


def _cached_ebeta(config: ExperimentConfig, grid: Grid, beta: float) -> OperatorMatrix:
    """Build (or reload) a log-singular convolution matrix.

    The per-cell quadratures make these the most expensive constructions, so
    the CLI can cache them in the documented text format.  A cached file is
    trusted only if its first cell matches the kernel's; otherwise the
    matrix is rebuilt and the file overwritten.
    """
    kernel = EbetaSpec(beta, config.c)
    if not config.cache_dir:
        return build_ebeta_operator(grid, kernel)
    # repr is exact, so parameters that differ in any digit never share a file
    tag = f"ebeta_b{float(beta)!r}_c{float(config.c)!r}_om{float(grid.omega)!r}_n{grid.n}.txt"
    path = os.path.join(config.cache_dir, tag)
    if os.path.exists(path):
        cached = load_matrix(path)
        first = e_beta_cumulative(0.5 * grid.h, kernel) / math.gamma(beta)
        if (
            cached.grid.n == grid.n
            and abs(cached.grid.omega - grid.omega) < 1e-12
            and abs(cached.entries[0, 0] - first) <= 1e-12 * abs(first)
        ):
            return OperatorMatrix(grid, cached.entries)
    op = build_ebeta_operator(grid, kernel)
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


# ---------------------------------------------------------------------------
# experiment implementations


def _exp_sigma_equality(config: ExperimentConfig, outdir: str):
    rng = np.random.default_rng(config.seed)
    count = 100
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        report = spec.verify_sigma_equality(a)
        worst = max(worst, report.distance)
    checks = [at_most("max-sigma-distance-over-100-random", worst, config.tol("sigma_distance"))]
    return checks, dict(matrices=count, max_dim=64)


def _exp_spectral_mapping(config: ExperimentConfig, outdir: str):
    n = config.n or 32
    grid = make_grid(config.omega, n)
    t = _phi_plus(grid, build_fractional(grid, config.beta or 0.5).entries)
    tol_d = config.tol("mapping_distance")
    functions = [
        ("identity", lambda z: z),
        ("square-plus-one", lambda z: z * z + 1.0),
        ("cayley-pole-5", lambda z: z / (z - 5.0)),
    ]
    checks = []
    for label, f in functions:
        report = spec.verify_spectral_mapping(t, f)
        checks.append(at_most(f"distance-{label}", report.distance, tol_d))
        checks.append(at_most(f"vf-radius-{label}", report.vf_spectral_radius, config.tol("vf_radius")))
    return checks, dict(n=n, functions=[f[0] for f in functions])


def _exp_macaev_norms(config: ExperimentConfig, outdir: str):
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
        at_most("weighted-norm-below-trace-norm", worst_ideal, slack),
        at_most("schatten-monotone-in-p", worst_monotone, slack),
        at_most("weighted-norm-cauchy-schwarz", worst_cs, slack),
        at_most("diag-321-closed-form", fixed_err, 1e-12),
    ]
    return checks, dict(matrices=50, dim=16, p_grid=[str(p) for p in p_grid])


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
    split = split_given_basis(_phi_plus(grid, v_op.entries))
    return res.profile(split, ladder, x_samples=64, power_x_samples=33)


def _exponent_checks(name: str, fitted_p: float, target: float) -> list:
    """``<name>-lower`` and ``<name>-upper``: ``fitted_p`` within ``target +- 0.4``."""
    return [
        at_least(f"{name}-lower", fitted_p, target - 0.4),
        at_most(f"{name}-upper", fitted_p, target + 0.4),
    ]


def _verdict_check(config: ExperimentConfig, prof, name: str, expected: str):
    """Levinson verdict of ``prof`` and the check that it is ``expected``."""
    verdict = res.levinson_classify(prof, margin=config.tol("levinson_margin"))
    return verdict, (name, verdict.p, 1.0, verdict.verdict == expected)


def _exp_resolvent_profile(config: ExperimentConfig, outdir: str):
    n = config.n or 256
    beta = config.beta if config.beta is not None else 1.0
    ladder = config.y_ladder or _default_ladder("fractional", beta)
    prof = _phi_plus_profile(config, n, "fractional", beta, ladder)
    res.profile_to_csv(prof, os.path.join(outdir, "profile.csv"))
    res.r_table_to_csv(prof, os.path.join(outdir, "r_table.csv"))

    # chain-series identity against the dense inverse on a small companion build
    small = make_grid(config.omega, 32)
    rng = np.random.default_rng(config.seed)
    v32 = np.tril(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)), -1) * 0.25
    split32 = split_given_basis(_phi_plus(small, v32))
    worst_neumann = 0.0
    drawn = 0
    while drawn < 20:
        lam = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if abs(lam.imag) < 0.1:
            continue
        drawn += 1
        worst_neumann = max(worst_neumann, res.neumann_residual(split32, lam))
    checks = [
        at_most("chain-series-vs-dense-inverse", worst_neumann, 1e-8),
        *_exponent_checks("count-exponent", prof.fitted_p, 1.0 / beta),
        at_most("envelope-uplift-factor", prof.envelope_violation, 100.0),
    ]
    return checks, dict(n=n, beta=beta, ladder=list(ladder), fitted_q=prof.fitted_q)


def _exp_levinson(config: ExperimentConfig, outdir: str):
    n = config.n or 256
    beta = config.beta if config.beta is not None else 2.0
    ladder = config.y_ladder or _default_ladder("ebeta", beta)
    prof = _phi_plus_profile(config, n, "ebeta", beta, ladder)
    res.profile_to_csv(prof, os.path.join(outdir, "profile.csv"))
    res.r_table_to_csv(prof, os.path.join(outdir, "r_table.csv"))
    expected = "INTEGRABLE" if 1.0 / beta < 1.0 else "DIVERGENT"
    verdict, check = _verdict_check(config, prof, f"verdict-is-{expected.lower()}", expected)
    echo = dict(n=n, beta=beta, ladder=list(ladder), verdict=verdict.verdict, p=verdict.p, q=verdict.q)
    return [check], echo


def _exp_fractional_powers(config: ExperimentConfig, outdir: str):
    omega = config.omega
    errs = {}
    for size in (64, 128, 256, 512):
        grid = make_grid(omega, size)
        jh = build_fractional(grid, 0.5)
        j1 = build_fractional(grid, 1.0)
        errs[size] = operator_norm(jh.entries @ jh.entries - j1.entries)
    worst_ratio = min(errs[a] / errs[2 * a] for a in (64, 128, 256))
    checks = [at_least("square-root-law-halving-ratio", worst_ratio, 1.5)]
    write_csv(os.path.join(outdir, "power_law.csv"), "n,defect", errs.items())
    for beta, m in ((0.5, 2), (1.0, 3)):
        grid = make_grid(omega, 256)
        jb = build_fractional(grid, beta)
        norm = operator_norm(np.linalg.matrix_power(jb.entries, m))
        bound = 1.05 * omega ** (m * beta) / math.gamma(m * beta + 1.0)
        checks.append(at_most(f"power-norm-bound-beta{beta:g}-m{m}", norm, bound))
    return checks, dict(sizes=[64, 128, 256, 512])


def _exp_ebeta_asymptotics(config: ExperimentConfig, outdir: str):
    checks = []
    rows = []
    for beta in (1.0, 2.0):
        kernel = EbetaSpec(beta, config.c)
        for x, lo, hi in ((1e-6, 0.8, 1.2), (1e-8, 0.9, 1.1)):
            ratio = e_beta(x, kernel) * x * abs(math.log(x)) ** (beta + 1.0) / math.gamma(beta + 1.0)
            rows.append((beta, x, ratio))
            checks.append(at_least(f"asymptotic-ratio-beta{beta:g}-x{x:g}-low", ratio, lo))
            checks.append(at_most(f"asymptotic-ratio-beta{beta:g}-x{x:g}-high", ratio, hi))
        # sampled lower-bound constant on (0, 0.5]
        m_fit = min(
            e_beta(x, kernel) * x * abs(math.log(x)) ** (beta + 1.0)
            for x in np.geomspace(1e-8, 0.5, 25)
        )
        # strictly positive: a zero constant bounds nothing
        checks.append((f"kernel-lower-bound-beta{beta:g}", m_fit, 0.0, m_fit > 0.0))
    # moment finiteness and the fitted-constant bound at orders 4, 8, 16
    moments = {k: m_moment(EbetaSpec(float(k), config.c), config.omega) for k in (4, 8, 16)}
    # the smallest M with m_k <= (M / ln k)^k at every order k
    fitted_m = max(math.log(k) * moments[k] ** (1.0 / k) for k in moments)
    checks.append(at_most("moment-log-bound-single-constant", fitted_m, 10.0))
    decreasing = moments[4] > moments[8] > moments[16]
    checks.append(("moments-decreasing", moments[16], moments[8], decreasing))
    write_csv(os.path.join(outdir, "asymptotics.csv"), "beta,x,ratio", rows)
    return checks, dict(moments={str(k): v for k, v in moments.items()})


def _exp_semigroup_ebeta(config: ExperimentConfig, outdir: str):
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
    checks = [
        at_most("semigroup-defect-at-256", worst[256], config.tol("semigroup_rel")),
        ("semigroup-defect-decreasing", worst[256], worst[64], worst[64] > worst[128] > worst[256]),
    ]
    write_csv(os.path.join(outdir, "semigroup.csv"), "n,worst_rel_defect", worst.items())
    return checks, dict(sizes=list(sizes), pairs=len(pairs))


def _exp_growth_frac(config: ExperimentConfig, outdir: str):
    n = config.n or 256
    checks = []
    fitted = {}
    for beta in (0.5, 1.0):
        prof = _phi_plus_profile(config, n, "fractional", beta, _default_ladder("fractional", beta))
        res.profile_to_csv(prof, os.path.join(outdir, f"profile_beta{beta:g}.csv"))
        fitted[beta] = prof.fitted_p
        checks += _exponent_checks(f"exponent-beta{beta:g}", prof.fitted_p, 1.0 / beta)
    return checks, dict(n=n, fitted={str(k): v for k, v in fitted.items()})


def _exp_growth_ebeta(config: ExperimentConfig, outdir: str):
    n = config.n or 256
    checks = []
    verdicts = {}
    for beta, expected in ((2.0, "INTEGRABLE"), (0.5, "DIVERGENT")):
        prof = _phi_plus_profile(config, n, "ebeta", beta, _default_ladder("ebeta", beta))
        res.profile_to_csv(prof, os.path.join(outdir, f"profile_beta{beta:g}.csv"))
        verdicts[beta], check = _verdict_check(
            config, prof, f"verdict-beta{beta:g}-{expected.lower()}", expected
        )
        checks.append(check)
        # the smallest M that bounds the crossing count at every fitted point
        mask = prof.fit_mask
        if mask.sum():
            y = prof.y_grid[mask]
            ln_n = np.log(prof.count_n[mask].astype(float))
            m_fit = max(
                res.count_bound_constant(beta, float(lv), float(yv)) for yv, lv in zip(y, ln_n)
            )
            checks.append(at_most(f"count-bound-beta{beta:g}", m_fit, 10.0))
    # kernel-bound variant: e_beta dominates the simpler log-singular envelope
    kernel = EbetaSpec(1.0, config.c)
    ratio_floor = min(
        e_beta(u, kernel) * u * (abs(math.log(u)) ** 2 + 1.0)
        for u in np.geomspace(1e-6, 0.9, 30)
    )
    # strictly positive: a zero floor is no domination
    checks.append(("kernel-dominates-log-envelope", ratio_floor, 0.0, ratio_floor > 0.0))
    return checks, dict(n=n, p_beta2=verdicts[2.0].p, p_beta_half=verdicts[0.5].p)


def _ring_radii(alpha: float) -> tuple:
    """``(exp(-alpha pi/2), exp(alpha pi/2))``: the modulus of the symbol of
    ``J^{i alpha}`` as ``xi -> +inf`` and as ``xi -> -inf``."""
    try:
        return math.exp(-alpha * math.pi / 2.0), math.exp(alpha * math.pi / 2.0)
    except OverflowError as exc:
        raise NumericalError(f"ring radius exp(|alpha| pi/2) overflows at alpha = {alpha!r}") from exc


def _exp_symbol_trace(config: ExperimentConfig, outdir: str):
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
        checks.append(at_most("hermitian-symmetry-real-kernel", sym_err, 1e-8))
    if preset == "one":
        plus, minus = trace.window_plus, trace.window_minus
        err = max(abs(plus.mean_value - 1.0), abs(minus.mean_value - 1.0))
        ok = plus.kind(0.05) == minus.kind(0.05) == "CONVERGENT"
        checks.append(("identity-kernel-limits-to-one", err, 0.05, ok and err <= 0.05))
    if preset == "imaginary_power" and config.alpha != 0.0:
        plus, minus = _ring_radii(config.alpha)
        err = max(
            abs(trace.window_plus.mean_modulus - plus),
            abs(trace.window_minus.mean_modulus - minus),
        )
        checks.append(at_most("side-moduli-match-ring-radii", err, 0.02 * max(plus, minus)))
    if not checks:
        checks.append(("trace-completed", 0.0, 1.0, True))
    return checks, dict(preset=preset, samples=len(trace.xi_samples))


def _exp_prop54(config: ExperimentConfig, outdir: str):
    n = config.n or 2048
    grid = make_grid(config.omega, n)
    op = build_imaginary_fractional(grid, config.alpha)
    frequencies = (32.0, 64.0, 128.0)
    residuals = [sym.prop54_residual(op, xi) for xi in frequencies]
    decreasing = residuals[0] > residuals[1] > residuals[2]
    checks = [("residual-strictly-decreasing", residuals[-1], residuals[0], decreasing)]
    # the identity-kernel case collapses to quadrature noise at full periods
    one = KernelSpec.preset("one")
    ident = build_difference_operator(grid, one.s, one.s_antiderivative)
    xi0 = 2.0 * math.pi * round(64.0 * config.omega / (2.0 * math.pi)) / config.omega
    r_ident = sym.prop54_residual(ident, xi0)
    checks.append(at_most("identity-kernel-residual", r_ident, 1e-8))
    write_csv(os.path.join(outdir, "residuals.csv"), "xi,residual", zip(frequencies, residuals))
    return checks, dict(n=n, alpha=config.alpha, residuals=residuals)


def _exp_boundedness(config: ExperimentConfig, outdir: str):
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
        passed = report.classification == expected
        checks.append((f"{preset}-classified-{expected}", report.trend_slope, sym.GROWTH_SLOPE, passed))
    write_csv(os.path.join(outdir, "boundedness.csv"), "preset,sup_indicator,trend_slope,classification", rows)
    return checks, dict(cases=[c[0] for c in cases])


def _exp_annulus(config: ExperimentConfig, outdir: str):
    alpha = config.alpha
    n = config.n or 2048
    plus, minus = _ring_radii(alpha)
    outer = max(plus, minus)
    eps = config.tol("noise_eps")
    moduli_by_size = {}
    for size in (512, 1024, n):
        grid = make_grid(config.omega, size)
        op = build_imaginary_fractional(grid, alpha)
        eigs = spec.eigenvalues_with_machine_noise(op, eps=eps, seed=config.seed)
        moduli_by_size[size] = np.abs(eigs)
    main = float(moduli_by_size[n].max())
    checks = [
        at_most("all-moduli-within-outer-ring", main, 1.05 * outer),
        at_least("max-modulus-reaches-ring", main, 0.85 * outer),
    ]
    sizes = sorted(moduli_by_size)
    trend = all(
        moduli_by_size[a].max() < moduli_by_size[b].max()
        for a, b in zip(sizes, sizes[1:])
    ) and all(moduli_by_size[s].max() <= outer for s in sizes)
    checks.append(("filling-approaches-ring-from-below", float(moduli_by_size[sizes[0]].max()), outer, trend))
    s = KernelSpec.fractional_imaginary(alpha).s
    for xi, target in ((1e4, plus), (-1e4, minus)):
        s1 = sym.weighted_transform(s, config.omega, xi)
        gval = abs(-1j * xi * s1)
        rel = abs(gval - target) / target
        checks.append(at_most(f"symbol-modulus-at-xi-{xi:+.0f}", rel, 0.02))
    rows = [(size, moduli_by_size[size].max(), moduli_by_size[size].min()) for size in sizes]
    write_csv(os.path.join(outdir, "eigen_moduli.csv"), "n,max_modulus,min_modulus", rows)
    return checks, dict(n=n, alpha=alpha, eps=eps)


def _exp_witness(config: ExperimentConfig, outdir: str):
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
        verdict = sym.non_triangular_witness(trace, tol=config.tol("witness_tol"))
        verdicts[key] = verdict.verdict
        checks.append((name, verdict.separation, verdict.tol, verdict.verdict == expected))
    return checks, dict(alpha=config.alpha, verdicts=verdicts)


# experiment name -> (body, anchor carried by every check of the experiment);
# a body returns its checks as (name, value, threshold, passed) tuples and
# the resolved values echoed in summary.json
REGISTRY: dict[str, tuple[Callable, str]] = {
    "sigma-equality": (_exp_sigma_equality, "spectrum-equals-scalar-part"),
    "spectral-mapping": (_exp_spectral_mapping, "analytic-spectral-mapping"),
    "macaev-norms": (_exp_macaev_norms, "singular-value-ideal-norms"),
    "resolvent-profile": (_exp_resolvent_profile, "resolvent-chain-expansion"),
    "levinson": (_exp_levinson, "log-count-integrability"),
    "fractional-powers": (_exp_fractional_powers, "fractional-power-law"),
    "ebeta-asymptotics": (_exp_ebeta_asymptotics, "log-singular-kernel-asymptotics"),
    "semigroup-ebeta": (_exp_semigroup_ebeta, "convolution-semigroup-law"),
    "growth-frac": (_exp_growth_frac, "fractional-growth-exponent"),
    "growth-ebeta": (_exp_growth_ebeta, "log-singular-growth-exponent"),
    "symbol-trace": (_exp_symbol_trace, "difference-kernel-symbol"),
    "prop54": (_exp_prop54, "plane-wave-symbol-residual"),
    "boundedness": (_exp_boundedness, "symbol-boundedness-test"),
    "annulus-jialpha": (_exp_annulus, "imaginary-order-annulus"),
    "witness": (_exp_witness, "two-point-non-triangularity"),
}


def run_experiment(config: ExperimentConfig) -> Summary:
    """Execute one registered experiment, writing artifacts to its output dir."""
    body, anchor = REGISTRY[config.experiment]
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    checks, resolved = body(config, outdir)
    # paths are not part of the scientific configuration; dropping them keeps
    # summary.json byte-identical across runs of the same config and seed
    echo = {**dataclasses.asdict(config), "resolved": resolved}
    del echo["output_dir"], echo["cache_dir"]
    summary = Summary(
        config.experiment,
        json.loads(json.dumps(echo, default=str, sort_keys=True)),
        [Check(name, anchor, value, threshold, passed) for name, value, threshold, passed in checks],
    )
    with open(os.path.join(outdir, "summary.json"), "w", encoding="ascii") as fh:
        fh.write(summary.to_json())
        fh.write("\n")
    return summary
