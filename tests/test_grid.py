import math

import numpy as np
import pytest

from triangulab import FrequencyRangeError, check_frequency, make_grid, max_frequency


def test_make_grid_midpoints():
    g = make_grid(1.0, 4)
    assert g.h == 0.25
    np.testing.assert_allclose(g.nodes, [0.125, 0.375, 0.625, 0.875])


def test_make_grid_omega_two():
    g = make_grid(2.0, 2)
    assert g.h == 1.0
    np.testing.assert_allclose(g.nodes, [0.5, 1.5])


@pytest.mark.parametrize(
    "omega,n",
    [(1.0, 0), (1.0, 1), (0.0, 4), (-2.0, 4), (1.0, 2.5), (math.inf, 4), (math.nan, 4)],
)
def test_make_grid_rejects_bad_arguments(omega, n):
    with pytest.raises(ValueError):
        make_grid(omega, n)


def test_make_grid_accepts_numpy_integers():
    g = make_grid(1.0, np.int64(4))
    assert g == make_grid(1.0, 4)
    assert g.nodes.shape == (4,)


def test_grid_invariants():
    g = make_grid(3.7, 129)
    assert abs(g.h * g.n - g.omega) <= 1e-15 * g.omega
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < g.omega


def test_frequency_guard():
    g = make_grid(1.0, 8)
    limit = max_frequency(g)
    assert limit == pytest.approx(math.pi / (4 * g.h))
    check_frequency(g, limit * 0.999)
    with pytest.raises(FrequencyRangeError):
        check_frequency(g, limit * 1.001)
