import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triangulab import EbetaSpec, make_grid, m_moment
from triangulab.exceptions import ConstructionError
from triangulab.operators import (
    KERNEL_PRESETS,
    KernelSpec,
    OperatorMatrix,
    build_difference_operator,
    build_ebeta_operator,
    build_fractional,
    build_imaginary_fractional,
    build_multiplication,
    build_volterra,
    chain_invariance_residual,
    chain_projection,
    compose,
    load_matrix,
    operator_norm,
    save_matrix,
    split_given_basis,
    split_schur,
    wrap_matrix,
)
from triangulab.spectral import eigenvalues_with_machine_noise

from .strategies import triangular_operators


def cubic_roots(matrix: np.ndarray) -> list:
    """Cardano roots of the characteristic polynomial of a 3x3 matrix.

    Brute-force oracle independent of any eigensolver: the coefficients come
    from explicit trace/minor expansion and the roots from radicals.
    """
    a = np.asarray(matrix, dtype=complex)
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    # z^3 - tr z^2 + minors z - det = 0; depressed via z = w + tr/3
    p = minors - tr * tr / 3.0
    q = -det + tr * minors / 3.0 - 2.0 * tr**3 / 27.0
    disc = cmath.sqrt(q * q / 4.0 + p**3 / 27.0)
    u3 = -q / 2.0 + disc
    if abs(u3) < 1e-30:
        u3 = -q / 2.0 - disc
    u = u3 ** (1.0 / 3.0)
    roots = []
    for k in range(3):
        uk = u * cmath.exp(2j * math.pi * k / 3.0)
        w = uk - p / (3.0 * uk) if abs(uk) > 1e-30 else 0.0
        roots.append(w + tr / 3.0)
    return roots


def match_distance(a, b) -> float:
    from triangulab.spectral import spectral_distance

    return spectral_distance(a, b)


# ---------------------------------------------------------------- multiplication


def test_multiplication_zero_symbol():
    g = make_grid(1.0, 4)
    op = build_multiplication(g, lambda x: 0.0)
    assert np.all(op.entries == 0)


def test_multiplication_identity_symbol():
    g = make_grid(1.0, 4)
    op = build_multiplication(g, lambda x: x)
    np.testing.assert_allclose(np.diag(op.entries).real, [0.125, 0.375, 0.625, 0.875])
    assert np.all(op.entries == np.diag(np.diag(op.entries)))


def test_multiplication_spectrum_is_diagonal():
    g = make_grid(1.0, 8)
    op = build_multiplication(g, lambda x: math.cos(x))
    eigs = np.sort(np.linalg.eigvals(op.entries).real)
    np.testing.assert_allclose(eigs, np.sort(np.cos(g.nodes)), atol=1e-14)


def test_multiplication_rejects_complex_symbol():
    g = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        build_multiplication(g, lambda x: 1j * x)


# ---------------------------------------------------------------- volterra


def test_volterra_constant_kernel_matches_order_one_integral():
    g = make_grid(1.0, 8)
    v = build_volterra(g, lambda x, t: 1.0)
    j1 = build_fractional(g, 1.0)
    np.testing.assert_allclose(v.entries, j1.entries, atol=1e-15)


def test_volterra_zero_kernel():
    g = make_grid(1.0, 8)
    assert np.all(build_volterra(g, lambda x, t: 0.0).entries == 0)


def test_volterra_strict_variant_is_nilpotent():
    g = make_grid(1.0, 8)
    v = build_volterra(g, lambda x, t: 1.0 + x * t, diagonal="zero")
    assert np.all(np.linalg.matrix_power(v.entries, 8) == 0)


def test_volterra_classical_norm():
    # the integration operator on L^2(0,1) has norm 2/pi
    g = make_grid(1.0, 512)
    v = build_volterra(g, lambda x, t: 1.0)
    assert operator_norm(v) == pytest.approx(2.0 / math.pi, abs=2e-3)


def test_volterra_propagates_kernel_failure():
    g = make_grid(1.0, 4)

    def bad(x, t):
        raise RuntimeError("boom")

    with pytest.raises(ConstructionError):
        build_volterra(g, bad)


def test_multiplication_propagates_symbol_failure():
    g = make_grid(1.0, 4)

    def bad(x):
        raise RuntimeError("boom")

    with pytest.raises(ConstructionError):
        build_multiplication(g, bad)


def test_multiplication_rejects_non_finite_symbol():
    with pytest.raises(ConstructionError):
        build_multiplication(make_grid(1.0, 4), lambda x: float("nan"))


# ---------------------------------------------------------------- fractional


def test_fractional_order_one_rows():
    g = make_grid(1.0, 4)
    j1 = build_fractional(g, 1.0)
    h = g.h
    np.testing.assert_allclose(j1.entries[2].real, [h, h, h / 2, 0.0], atol=1e-16)


def test_fractional_rejects_nonpositive_order():
    g = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        build_fractional(g, 0.0)


def test_fractional_norm_bound():
    g = make_grid(1.0, 256)
    jh = build_fractional(g, 0.5)
    assert operator_norm(jh) <= 1.0 / math.gamma(1.5)


def test_fractional_square_root_power_law():
    errs = {}
    for n in (256, 512):
        g = make_grid(1.0, n)
        jh = build_fractional(g, 0.5)
        ones = np.ones(n, dtype=complex)
        lhs = jh.entries @ (jh.entries @ ones)
        errs[n] = math.sqrt(g.h * np.sum(np.abs(lhs - g.nodes) ** 2))
    assert errs[512] <= 1e-2
    assert errs[512] < errs[256]


def test_fractional_cube_power_law_refines():
    defects = {}
    for n in (64, 128):
        g = make_grid(1.0, n)
        j1 = build_fractional(g, 1.0)
        j3 = build_fractional(g, 3.0)
        defects[n] = operator_norm(np.linalg.matrix_power(j1.entries, 3) - j3.entries)
    assert defects[128] < defects[64]


def test_fractional_exact_zero_pattern():
    g = make_grid(1.0, 16)
    jb = build_fractional(g, 0.75)
    assert np.all(np.triu(jb.entries, 1) == 0)


# ---------------------------------------------------------------- ebeta


def test_ebeta_operator_norm_below_moment():
    g = make_grid(1.0, 256)
    kernel = EbetaSpec(1.0, 0.0)
    op = build_ebeta_operator(g, kernel)
    assert operator_norm(op) <= m_moment(kernel, 1.0)


def test_ebeta_zero_above_diagonal():
    g = make_grid(1.0, 32)
    op = build_ebeta_operator(g, EbetaSpec(0.5, 0.0))
    assert np.all(np.triu(op.entries, 1) == 0)


def test_ebeta_semigroup_single_pair():
    g = make_grid(1.0, 256)
    v1 = build_ebeta_operator(g, EbetaSpec(1.0, 0.0))
    v2 = build_ebeta_operator(g, EbetaSpec(2.0, 0.0))
    defect = operator_norm(v1.entries @ v1.entries - v2.entries)
    assert defect <= 5e-2 * operator_norm(v2)


def test_ebeta_semigroup_defect_keeps_shrinking_at_512():
    defects = {}
    for n in (256, 512):
        g = make_grid(1.0, n)
        v1 = build_ebeta_operator(g, EbetaSpec(1.0, 0.0))
        v2 = build_ebeta_operator(g, EbetaSpec(2.0, 0.0))
        defects[n] = operator_norm(v1.entries @ v1.entries - v2.entries)
    assert defects[512] < defects[256]


# ---------------------------------------------------------------- difference kernels


def test_difference_constant_kernel_is_identity():
    g = make_grid(1.0, 64)
    op = build_difference_operator(g, lambda t: 1.0, antiderivative=lambda u: u)
    assert np.max(np.abs(op.entries - np.eye(64))) <= 1e-10


def test_difference_linear_kernel_matches_fractional():
    g = make_grid(1.0, 64)
    op = build_difference_operator(g, lambda t: t, antiderivative=lambda u: 0.5 * u * u)
    j1 = build_fractional(g, 1.0)
    assert np.max(np.abs(op.entries - j1.entries)) <= 1e-10


def test_difference_quadrature_matches_antiderivative():
    g = make_grid(1.0, 16)
    with_anti = build_difference_operator(g, lambda t: t * t, antiderivative=lambda u: u**3 / 3.0)
    without = build_difference_operator(g, lambda t: t * t)
    assert np.max(np.abs(with_anti.entries - without.entries)) <= 1e-9


def test_imaginary_fractional_zero_order_is_identity():
    g = make_grid(1.0, 16)
    op = build_imaginary_fractional(g, 0.0)
    assert np.max(np.abs(op.entries - np.eye(16))) == 0.0


def test_imaginary_fractional_upper_triangle_exact_zero():
    g = make_grid(1.0, 128)
    op = build_imaginary_fractional(g, 1.0)
    assert np.all(np.triu(op.entries, 1) == 0)


def test_imaginary_fractional_noise_probe_stays_in_ring():
    g = make_grid(1.0, 512)
    op = build_imaginary_fractional(g, 1.0)
    moduli = np.abs(eigenvalues_with_machine_noise(op, eps=1e-12, seed=7))
    assert moduli.max() <= math.exp(math.pi / 2.0) + 0.15


@pytest.mark.xfail(
    reason="floating-point filling at n=512 reaches only ~4.2 of the 4.31 target; "
    "the documented n=2048 acceptance bound does hold",
    strict=False,
)
def test_imaginary_fractional_radius_lower_bound_at_512():
    g = make_grid(1.0, 512)
    op = build_imaginary_fractional(g, 1.0)
    moduli = np.abs(eigenvalues_with_machine_noise(op, eps=1e-12, seed=7))
    assert moduli.max() >= math.exp(math.pi / 2.0) - 0.5


# ---------------------------------------------------------------- splits


def test_split_given_basis_two_by_two():
    t = wrap_matrix(np.array([[1.0, 0.0], [1.0, 2.0]], dtype=complex))
    pair = split_given_basis(t)
    np.testing.assert_allclose(pair.diagonal, [1.0, 2.0])
    np.testing.assert_allclose(pair.strict, [[0.0, 0.0], [1.0, 0.0]])
    assert np.all(np.linalg.matrix_power(pair.strict, 2) == 0)
    eigs = sorted(np.linalg.eigvals(t.entries).real)
    np.testing.assert_allclose(eigs, [1.0, 2.0], atol=1e-14)


def test_split_given_basis_rejects_non_triangular():
    t = wrap_matrix(np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)).entries.T
    with pytest.raises(ValueError):
        split_given_basis(wrap_matrix(t.T))


def test_split_given_basis_roundtrip_exact():
    rng = np.random.default_rng(0)
    entries = np.tril(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    t = wrap_matrix(entries)
    pair = split_given_basis(t)
    assert pair.triangle.tobytes() == entries.tobytes()
    assert np.all(np.diag(pair.diagonal) + pair.strict == entries)
    assert np.all(pair.unitary == np.eye(8))


def test_split_schur_diagonal_input_has_zero_nilpotent_part():
    t = wrap_matrix(np.diag([3.0, 1.0, 2.0]).astype(complex))
    pair = split_schur(t)
    assert np.max(np.abs(pair.strict)) <= 1e-12


def test_split_schur_eigenvalues_match_cardano_oracle():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pair = split_schur(wrap_matrix(a))
    assert match_distance(pair.diagonal, cubic_roots(a)) <= 1e-8


def test_split_schur_random_matrix_preserves_spectrum():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    pair = split_schur(wrap_matrix(a))
    assert match_distance(np.linalg.eigvals(a), pair.diagonal) <= 1e-8


def test_split_schur_nilpotent_input():
    pair = split_schur(wrap_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)))
    assert np.max(np.abs(pair.diagonal)) <= 1e-14


def test_split_schur_unitary_and_reconstruction():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    pair = split_schur(wrap_matrix(a))
    q = pair.unitary
    assert np.linalg.norm(q.conj().T @ q - np.eye(12), 2) <= 1e-12
    recon = q @ pair.triangle @ q.conj().T
    assert np.linalg.norm(recon - a, 2) <= 1e-10 * np.linalg.norm(a, 2)


def test_split_schur_orders_diagonal():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    diag = split_schur(wrap_matrix(a)).diagonal
    keys = [(z.real, z.imag) for z in diag]
    assert keys == sorted(keys)


@pytest.mark.xfail(strict=True, reason="Givens swaps; mended by the ztrexc reorder")
def test_split_schur_breaks_real_part_ties_by_imaginary_part():
    # LAPACK returns this triangle unchanged; three diagonal entries share
    # the real part 1, so the order among them is the imaginary part's
    rng = np.random.default_rng(0)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = np.diag([1 + 2j, 1 - 1j, 0, 1 + 0.5j]) + np.triu(b, 1)
    diag = split_schur(wrap_matrix(a)).diagonal
    np.testing.assert_allclose(diag, [0, 1 - 1j, 1 + 0.5j, 1 + 2j], atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(triangular_operators(), st.integers(min_value=0, max_value=2**32 - 1))
def test_split_schur_reconstructs_and_orders_random_operators(case, seed):
    a, _ = case
    n = a.shape[0]
    # the triangular draw, and the same operator made dense by a random unitary
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    for m in (a, q @ a @ q.conj().T):
        pair = split_schur(wrap_matrix(m))
        u = pair.unitary
        recon = u @ pair.triangle @ u.conj().T
        assert np.linalg.norm(recon - m, 2) <= 1e-10 * np.linalg.norm(m, 2)
        keys = [(z.real, z.imag) for z in pair.diagonal]
        assert keys == sorted(keys)


def test_split_schur_strict_part_is_strictly_triangular():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pair = split_schur(wrap_matrix(a))
    strict = pair.strict
    assert np.all(np.tril(strict) == 0)
    assert np.all(np.linalg.matrix_power(strict, 6) == 0)
    assert np.all(np.diag(pair.diagonal) + strict == pair.triangle)


# ---------------------------------------------------------------- chains


def test_chain_projection_endpoints():
    g = make_grid(1.0, 8)
    assert np.all(chain_projection(g, 0.0).entries == 0)
    np.testing.assert_allclose(chain_projection(g, 1.0).entries, np.eye(8))


def test_chain_projection_rank_steps():
    g = make_grid(1.0, 8)
    ranks = [
        int(np.trace(chain_projection(g, k * g.h).entries).real) for k in range(9)
    ]
    assert ranks == list(range(9))


def test_chain_projection_range_check():
    g = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        chain_projection(g, -0.1)
    with pytest.raises(ValueError):
        chain_projection(g, 1.5)


def test_chain_invariance_of_lower_triangular():
    g = make_grid(1.0, 12)
    rng = np.random.default_rng(5)
    t = wrap_matrix(np.tril(rng.standard_normal((12, 12))).astype(complex))
    for k in (1, 5, 11):
        e = chain_projection(g, k * g.h)
        assert chain_invariance_residual(t, e) <= 1e-12


def test_chain_invariance_diagonal_commutes():
    g = make_grid(1.0, 8)
    t = build_multiplication(g, lambda x: x * x)
    e = chain_projection(g, 3 * g.h)
    assert chain_invariance_residual(t, e) == pytest.approx(0.0, abs=1e-14)


def test_chain_invariance_detects_upper_entry():
    g = make_grid(1.0, 8)
    entries = np.tril(np.ones((8, 8))).astype(complex)
    entries[0, 7] = 1.0
    t = wrap_matrix(entries)
    e = chain_projection(g, 4 * g.h)
    assert chain_invariance_residual(t, e) > 0.1


def test_chain_invariance_rejects_non_projection():
    g = make_grid(1.0, 8)
    t = build_multiplication(g, lambda x: x)
    with pytest.raises(ValueError):
        chain_invariance_residual(t, t)


# ---------------------------------------------------------------- norms, io, dispatch


@pytest.mark.parametrize(
    "seed,draw",
    [
        (6, lambda rng: rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))),
        (7, lambda rng: rng.standard_normal((1024, 1024))),
    ],
    ids=["complex-40", "real-1024"],
)
def test_operator_norm_matches_dense_svd(seed, draw):
    import scipy.linalg

    a = draw(np.random.default_rng(seed))
    assert operator_norm(a) == pytest.approx(scipy.linalg.svdvals(a)[0], rel=1e-12)


def test_save_load_roundtrip():
    g = make_grid(1.5, 8)
    op = build_fractional(g, 0.5)
    path = "/tmp/triangulab_matrix_roundtrip.txt"
    save_matrix(op, path)
    loaded = load_matrix(path)
    assert loaded.grid.n == 8
    assert loaded.grid.omega == pytest.approx(1.5)
    np.testing.assert_array_equal(loaded.entries, op.entries)


def test_save_matrix_matches_per_entry_repr_format(tmp_path):
    rng = np.random.default_rng(11)
    entries = rng.standard_normal((5, 5)) * 10.0 ** rng.integers(-300, 300, (5, 5))
    entries = entries + 1j * rng.standard_normal((5, 5))
    entries[0, 0] = complex(-0.0, 0.0)
    entries[1, 2] = complex(1e-310, -5e-324)
    op = OperatorMatrix(make_grid(0.75, 5), entries)
    path = tmp_path / "m.txt"
    save_matrix(op, path)
    expected = "5 5 0.75\n" + "".join(
        " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n" for row in entries
    )
    assert path.read_text() == expected
    np.testing.assert_array_equal(load_matrix(path).entries, entries)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 4 1.0\n0.0 0.0\n")
    with pytest.raises(ValueError):
        load_matrix(path)


def test_apply_and_compose():
    g = make_grid(1.0, 16)
    j1 = build_fractional(g, 1.0)
    jh = build_fractional(g, 0.5)
    prod = compose(jh, jh)
    assert np.max(np.abs(prod.entries - jh.entries @ jh.entries)) == 0.0
    from triangulab import sample_function
    from triangulab.operators import apply

    f = sample_function(g, lambda x: 1.0)
    out = apply(j1, f)
    np.testing.assert_allclose(out.values.real, g.nodes, atol=1e-12)


def test_equal_grids_built_apart_combine(tmp_path):
    from triangulab import l2_inner, sample_function
    from triangulab.operators import apply

    a, b = make_grid(1.0, 8), make_grid(1.0, 8)
    assert a == b and a is not b
    assert a != make_grid(1.0, 16) and a != make_grid(2.0, 8)
    op = build_fractional(a, 0.5)
    f = sample_function(b, lambda x: x)
    np.testing.assert_array_equal(apply(op, f).values, op.entries @ f.values)
    other = build_fractional(b, 1.0)
    np.testing.assert_array_equal(compose(op, other).entries, op.entries @ other.entries)
    assert l2_inner(sample_function(a, lambda x: 1.0), f) == pytest.approx(0.5)
    path = tmp_path / "op.txt"
    save_matrix(op, path)
    loaded = load_matrix(path)
    assert loaded.grid == a
    np.testing.assert_array_equal(apply(loaded, f).values, op.entries @ f.values)
    np.testing.assert_array_equal(compose(loaded, op).entries, op.entries @ op.entries)
    with pytest.raises(ValueError):
        apply(op, sample_function(make_grid(1.0, 16), lambda x: x))


@pytest.mark.parametrize("alpha", [1 + 1j, np.complex64(1.0), float("nan"), float("inf")])
def test_fractional_imaginary_rejects_non_real_alpha(alpha):
    with pytest.raises(ValueError, match="finite real number"):
        KernelSpec.fractional_imaginary(alpha)


def test_kernel_parameters_are_checked_by_their_spec():
    g = make_grid(1.0, 4)
    for beta in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="fractional order must be a positive finite real number"):
            build_fractional(g, beta)
        with pytest.raises(ValueError, match="beta must be a positive finite real number"):
            EbetaSpec(beta)
    with pytest.raises(ValueError, match="damping constant c must be a finite real number"):
        EbetaSpec(1.0, 0.5j)


@pytest.mark.parametrize("beta", [1 + 1j, np.complex64(1.0), float("inf"), float("-inf")])
def test_fractional_order_must_be_a_finite_real_number(beta):
    with pytest.raises(ValueError, match="fractional order must be a positive finite real number"):
        build_fractional(make_grid(1.0, 4), beta)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_fractional(make_grid(1.0, 8), 200.0),  # Gamma(201) overflows
        lambda: build_fractional(make_grid(100.0, 2), 200.0),  # h**beta overflows
        lambda: build_fractional(make_grid(1.0, 2048), 170.0),  # inf * 0 weights
        lambda: build_ebeta_operator(make_grid(1.0, 8), EbetaSpec(200.0)),  # Gamma(200) overflows
    ],
    ids=["fractional-gamma", "fractional-h-power", "fractional-nan", "ebeta-gamma"],
)
def test_large_orders_raise_construction_error(build):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConstructionError):
            build()


@pytest.mark.parametrize(
    "name,alpha",
    [(name, 1.0) for name in KERNEL_PRESETS] + [("imaginary_power", 0.0)],
)
def test_preset_antiderivative_matches_quadrature(name, alpha):
    from scipy.integrate import quad

    with pytest.raises(ValueError):
        KernelSpec.preset("nope")
    spec = KernelSpec.preset(name, alpha)
    assert spec.s_antiderivative(0.0) == 0.0
    for u in (0.05, 0.4, 1.0):
        re, _ = quad(lambda t: spec.s(t).real, 0.0, u, epsabs=1e-13, epsrel=1e-12, limit=400)
        im, _ = quad(lambda t: spec.s(t).imag, 0.0, u, epsabs=1e-13, epsrel=1e-12, limit=400)
        assert abs(spec.s_antiderivative(u) - (re + 1j * im)) <= 1e-10


def test_wrap_matrix_validates_shape():
    with pytest.raises(ValueError):
        wrap_matrix(np.ones((3, 4)))
