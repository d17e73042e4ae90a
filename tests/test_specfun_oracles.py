"""High-precision oracles for the scalar special-function paths."""

import math

import mpmath as mp
import pytest
from scipy.special import gamma

from triangulab import EbetaSpec, e_beta_cumulative


@pytest.mark.parametrize("z", [-1 + 7e-234j, -3 + 1e-20j, -10 + 1e-300j, -3 - 1e-20j])
def test_gamma_next_to_poles_matches_mpmath(z):
    # the imaginary part is below the resolution of sin(pi z) at the real part,
    # so a reflection-formula evaluation loses it and misses by a factor ~1
    with mp.workdps(40):
        exact = complex(mp.gamma(mp.mpc(z.real, z.imag)))
    assert abs(gamma(z) - exact) <= 1e-12 * abs(exact)


def _cumulative_oracle(a: float, beta: float) -> float:
    """integral_0^inf s^(beta-2) a^s / Gamma(s) ds at 30 digits (c = 0)."""
    with mp.workdps(30):
        a_mp = mp.mpf(a)
        # 1/Gamma(s) < 1e-200 beyond s = 128, whatever a <= 1
        breaks = [0, 0.25, 1, 2, 4, 8, 16, 32, 64, 128]
        return float(mp.quad(lambda s: s ** (beta - 2) * a_mp**s * mp.rgamma(s), breaks))


@pytest.mark.parametrize("beta", [0.5, 2.0])
@pytest.mark.parametrize("cell", [1, 64])
def test_cumulative_matches_mpmath_on_end_cells(beta, cell):
    # beta = 0.5 leaves an s^(-1/2) singularity at s = 0; the last cell has
    # ln a -> 0, where the decay comes from 1/Gamma(s) alone
    n = 64
    a = (cell - 0.5) / n
    exact = _cumulative_oracle(a, beta)
    assert math.isfinite(exact) and exact > 0
    assert e_beta_cumulative(a, EbetaSpec(beta, 0.0)) == pytest.approx(exact, rel=1e-9)
