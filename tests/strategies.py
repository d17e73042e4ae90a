"""Hypothesis strategies shared by the randomized oracle tests."""

import numpy as np
from hypothesis import strategies as st


@st.composite
def triangular_operators(draw, max_n=40):
    """``(a, ladder)``: a lower-triangular complex matrix with a real diagonal, and a ``y`` ladder.

    ``a`` is n x n with n from 2 to ``max_n`` (40 by default).  Its diagonal
    lies in [-1, 1], and the real and imaginary parts of each entry below it lie in
    ``[-scale, scale]`` with ``scale <= 1``; the entries come from a drawn
    numpy seed, so hypothesis searches the size, scale and ladder shape
    rather than hundreds of single floats.  ``ladder`` is geometric: one to
    four points ``y0 * ratio**j`` with ``|y0|`` in [0.1, 2], ratio in
    [0.3, 0.8] and either sign.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    scale = draw(st.floats(min_value=0.0, max_value=1.0))
    y0 = draw(st.floats(min_value=0.1, max_value=2.0)) * draw(st.sampled_from([1.0, -1.0]))
    ratio = draw(st.floats(min_value=0.3, max_value=0.8))
    points = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    below = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    a = np.diag(rng.uniform(-1.0, 1.0, n)) + scale * np.tril(below, -1)
    return a, y0 * ratio ** np.arange(points)
