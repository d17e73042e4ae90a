"""Acceptance criteria, one test per criterion.

Each test pins the published tolerance and runtime budget and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them).  Every
criterion runs its experiments through the same registry the CLI uses, at
default config, and compares their check values with its own limits, so a
green suite here certifies the shipped defaults, not specially tuned paths.
"""

import math
import time

import pytest

from triangulab.experiments import ExperimentConfig, run_experiment


class Criterion:
    def __init__(self, index, label, budget_s):
        self.index = index
        self.label = label
        self.budget = budget_s
        self.start = time.perf_counter()

    def finish(self, passed: bool):
        elapsed = time.perf_counter() - self.start
        state = "PASS" if passed and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.index:2d} [{state}] {self.label} ({elapsed:.1f}s / {self.budget:.0f}s)")
        assert passed, f"criterion {self.index} failed: {self.label}"
        assert elapsed < self.budget, (
            f"criterion {self.index} exceeded its runtime budget: {elapsed:.1f}s >= {self.budget}s"
        )


@pytest.fixture(scope="session")
def run(tmp_path_factory):
    """``run(name)``: the registered experiment at default config, its
    artifacts written under this session's temporary directory."""
    root = tmp_path_factory.mktemp("acceptance")

    def run_named(name):
        config = {"experiment": name, "output_dir": str(root / name)}
        return run_experiment(ExperimentConfig.from_dict(config))

    return run_named


def check_values(summary):
    return {c.name: c.value for c in summary.checks}


def test_criterion_01_sigma_equality_on_random_matrices(run):
    crit = Criterion(1, "Schur-split spectrum identity on 100 random matrices (<= 1e-8)", 10.0)
    worst = check_values(run("sigma-equality"))["max-sigma-distance-over-100-random"]
    crit.finish(worst <= 1e-8)


def test_criterion_02_spectral_mapping(run):
    crit = Criterion(2, "spectral mapping for z, z^2+1, z/(z-5) at n=32 (<= 1e-6)", 30.0)
    checks = check_values(run("spectral-mapping"))
    ok = all(
        checks[f"{kind}-{label}"] <= 1e-6
        for kind in ("distance", "vf-radius")
        for label in ("identity", "square-plus-one", "cayley-pole-5")
    )
    crit.finish(ok)


def test_criterion_03_fractional_power_law_and_bounds(run):
    crit = Criterion(3, "square-root power law halves per refinement; norm bounds x1.05", 60.0)
    checks = check_values(run("fractional-powers"))
    halving = checks["square-root-law-halving-ratio"] >= 1.5
    bounds = (
        checks["power-norm-bound-beta0.5-m2"] <= 1.05 / math.gamma(2.0)
        and checks["power-norm-bound-beta1-m3"] <= 1.05 / math.gamma(4.0)
    )
    crit.finish(halving and bounds)


def test_criterion_04_kernel_asymptotic_ratio_bands(run):
    crit = Criterion(4, "log-singular kernel ratio within [0.8,1.2]@1e-6, [0.9,1.1]@1e-8", 10.0)
    checks = check_values(run("ebeta-asymptotics"))
    ok = all(
        lo <= checks[f"asymptotic-ratio-beta{beta}-x{x}-low"] <= hi
        for beta in ("1", "2")
        for x, lo, hi in (("1e-06", 0.8, 1.2), ("1e-08", 0.9, 1.1))
    )
    crit.finish(ok)


def test_criterion_05_convolution_semigroup(run):
    crit = Criterion(5, "semigroup defect <= 5e-2 at n=256, decreasing over 64/128/256", 120.0)
    summary = run("semigroup-ebeta")
    crit.finish(summary.passed)


def test_criterion_06_growth_exponents_and_levinson(run):
    crit = Criterion(6, "growth exponents in 1/beta +- 0.4; INTEGRABLE/DIVERGENT verdicts", 300.0)
    frac = run("growth-frac")
    ebeta = run("growth-ebeta")
    exps = {c.name: c for c in frac.checks}
    in_band = all(
        exps[f"exponent-beta{b:g}-{side}"].passed
        for b in (0.5, 1.0)
        for side in ("lower", "upper")
    )
    verdicts = {c.name: c.passed for c in ebeta.checks}
    crit.finish(
        in_band and verdicts["verdict-beta2-integrable"] and verdicts["verdict-beta0.5-divergent"]
    )


def test_criterion_07_chain_series_identity(run):
    crit = Criterion(7, "chain series equals dense inverse at 20 off-axis points (<= 1e-8)", 10.0)
    worst = check_values(run("resolvent-profile"))["chain-series-vs-dense-inverse"]
    crit.finish(worst <= 1e-8)


def test_criterion_08_imaginary_order_annulus(run):
    crit = Criterion(8, "noise-probe eigenvalues fill the ring at n=2048; symbol radii to 2%", 300.0)
    summary = run("annulus-jialpha")
    values = {c.name: c for c in summary.checks}
    containment = values["all-moduli-within-outer-ring"]
    reach = values["max-modulus-reaches-ring"]
    outer = math.exp(math.pi / 2.0)
    ok = (
        containment.passed
        and containment.value <= 1.05 * outer
        and reach.value >= 0.85 * outer
        and values["symbol-modulus-at-xi-+10000"].value <= 0.02
        and values["symbol-modulus-at-xi--10000"].value <= 0.02
    )
    crit.finish(ok)


def test_criterion_09_plane_wave_residual_decreases(run):
    crit = Criterion(9, "plane-wave residual strictly decreasing at xi = 32, 64, 128 (n=2048)", 60.0)
    r = run("prop54").config_echo["resolved"]["residuals"]
    crit.finish(r[0] > r[1] > r[2])


def test_criterion_10_non_triangularity_witness(run):
    crit = Criterion(10, "witness fires for imaginary order, silent for the identity kernel", 60.0)
    summary = run("witness")
    states = {c.name: c.passed for c in summary.checks}
    crit.finish(
        states["imaginary-order-witness-fires"] and states["identity-kernel-witness-silent"]
    )


def test_criterion_11_singular_value_ideal_norms(run):
    crit = Criterion(11, "weighted norm <= trace norm; p-norms monotone (50 random, 1e-10)", 5.0)
    summary = run("macaev-norms")
    states = {c.name: c.passed for c in summary.checks}
    crit.finish(
        states["weighted-norm-below-trace-norm"] and states["schatten-monotone-in-p"]
    )
