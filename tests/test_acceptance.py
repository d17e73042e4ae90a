"""Acceptance criteria, one test per criterion.

Each test pins the published tolerance and runtime budget and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them).  The heavy
builds run through the same experiment registry the CLI uses, so a green
suite here certifies the shipped defaults, not specially tuned paths.
"""

import math
import time

import numpy as np
import pytest

from triangulab import EbetaSpec, e_beta, make_grid
from triangulab.experiments import ExperimentConfig, run_experiment
from triangulab.operators import (
    build_fractional,
    build_imaginary_fractional,
    build_multiplication,
    operator_norm,
    split_given_basis,
    wrap_matrix,
)
from triangulab.resolvent import neumann_residual
from triangulab.spectral import verify_sigma_equality, verify_spectral_mapping
from triangulab.symbol import prop54_residual


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


def run(name, **overrides):
    payload = {"experiment": name, "output_dir": f"/tmp/triangulab-acceptance/{name}"}
    payload.update(overrides)
    return run_experiment(ExperimentConfig.from_dict(payload))


def test_criterion_01_sigma_equality_on_random_matrices():
    crit = Criterion(1, "Schur-split spectrum identity on 100 random matrices (<= 1e-8)", 10.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, verify_sigma_equality(a).distance)
    crit.finish(worst <= 1e-8)


def test_criterion_02_spectral_mapping():
    crit = Criterion(2, "spectral mapping for z, z^2+1, z/(z-5) at n=32 (<= 1e-6)", 30.0)
    g = make_grid(1.0, 32)
    t = wrap_matrix(
        build_multiplication(g, lambda x: x).entries + build_fractional(g, 0.5).entries
    )
    ok = True
    for f in (lambda z: z, lambda z: z * z + 1.0, lambda z: z / (z - 5.0)):
        report = verify_spectral_mapping(t, f)
        ok = ok and report.distance <= 1e-6 and report.vf_spectral_radius <= 1e-6
    crit.finish(ok)


def test_criterion_03_fractional_power_law_and_bounds():
    crit = Criterion(3, "square-root power law halves per refinement; norm bounds x1.05", 60.0)
    errs = {}
    for n in (64, 128, 256, 512):
        g = make_grid(1.0, n)
        jh = build_fractional(g, 0.5)
        j1 = build_fractional(g, 1.0)
        errs[n] = operator_norm(jh.entries @ jh.entries - j1.entries)
    halving = all(errs[n] / errs[2 * n] >= 1.5 for n in (64, 128, 256))
    bounds = True
    for beta, m in ((0.5, 2), (1.0, 3)):
        g = make_grid(1.0, 256)
        power = np.linalg.matrix_power(build_fractional(g, beta).entries, m)
        bounds = bounds and operator_norm(power) <= 1.05 / math.gamma(m * beta + 1.0)
    crit.finish(halving and bounds)


def test_criterion_04_kernel_asymptotic_ratio_bands():
    crit = Criterion(4, "log-singular kernel ratio within [0.8,1.2]@1e-6, [0.9,1.1]@1e-8", 10.0)
    ok = True
    for beta in (1.0, 2.0):
        kernel = EbetaSpec(beta, 0.0)
        for x, lo, hi in ((1e-6, 0.8, 1.2), (1e-8, 0.9, 1.1)):
            ratio = e_beta(x, kernel) * x * abs(math.log(x)) ** (beta + 1.0) / math.gamma(beta + 1.0)
            ok = ok and lo <= ratio <= hi
    crit.finish(ok)


def test_criterion_05_convolution_semigroup():
    crit = Criterion(5, "semigroup defect <= 5e-2 at n=256, decreasing over 64/128/256", 120.0)
    summary = run("semigroup-ebeta")
    crit.finish(summary.passed)


def test_criterion_06_growth_exponents_and_levinson():
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


def test_criterion_07_chain_series_identity():
    crit = Criterion(7, "chain series equals dense inverse at 20 off-axis points (<= 1e-8)", 10.0)
    rng = np.random.default_rng(2024)
    g = make_grid(1.0, 32)
    t = wrap_matrix(
        build_multiplication(g, lambda x: x).entries
        + np.tril(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)), -1) * 0.25
    )
    split = split_given_basis(t)
    worst = 0.0
    drawn = 0
    while drawn < 20:
        lam = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if abs(lam.imag) < 0.1:
            continue
        drawn += 1
        worst = max(worst, neumann_residual(split, lam))
    crit.finish(worst <= 1e-8)


def test_criterion_08_imaginary_order_annulus():
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


def test_criterion_09_plane_wave_residual_decreases():
    crit = Criterion(9, "plane-wave residual strictly decreasing at xi = 32, 64, 128 (n=2048)", 60.0)
    g = make_grid(1.0, 2048)
    op = build_imaginary_fractional(g, 1.0)
    r = [prop54_residual(op, xi) for xi in (32.0, 64.0, 128.0)]
    crit.finish(r[0] > r[1] > r[2])


def test_criterion_10_non_triangularity_witness():
    crit = Criterion(10, "witness fires for imaginary order, silent for the identity kernel", 60.0)
    summary = run("witness")
    states = {c.name: c.passed for c in summary.checks}
    crit.finish(
        states["imaginary-order-witness-fires"] and states["identity-kernel-witness-silent"]
    )


def test_criterion_11_singular_value_ideal_norms():
    crit = Criterion(11, "weighted norm <= trace norm; p-norms monotone (50 random, 1e-10)", 5.0)
    summary = run("macaev-norms")
    states = {c.name: c.passed for c in summary.checks}
    crit.finish(
        states["weighted-norm-below-trace-norm"] and states["schatten-monotone-in-p"]
    )
