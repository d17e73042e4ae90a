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
    SplitPair,
    build_difference_operator,
    build_ebeta_operator,
    build_fractional,
    build_imaginary_fractional,
    build_multiplication,
    load_matrix,
    matmul,
    operator_norm,
    real_if_real,
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


def test_ebeta_columns_are_the_adaptive_cell_integrals():
    from triangulab.specfun import e_beta_cumulative

    g = make_grid(1.0, 64)
    kernel = EbetaSpec(0.5, 0.0)
    cum = [e_beta_cumulative((d - 0.5) * g.h, kernel) for d in range(1, 65)]
    cells = np.diff(cum, prepend=0.0) / math.gamma(0.5)
    col = build_ebeta_operator(g, kernel).entries[:, 0]
    assert np.max(np.abs(col - cells) / cells) <= 1e-11


def test_ebeta_anchor_cell_catches_a_rule_forced_wrong(monkeypatch):
    from triangulab import specfun

    # without the edge test the rule truncates the last cell's integral at
    # omega = 20, c = -1, where both of its orders agree
    monkeypatch.setattr(specfun, "_RULE_EDGE", math.inf)
    with pytest.raises(ConstructionError, match="adaptive quadrature"):
        build_ebeta_operator(make_grid(20.0, 256), EbetaSpec(1.0, -1.0))
    # a window cut at s = 4 truncates every cell of a default build
    monkeypatch.setattr(specfun, "_RULE_TAIL_END", 4.0)
    with pytest.raises(ConstructionError, match="adaptive quadrature"):
        build_ebeta_operator(make_grid(1.0, 64), EbetaSpec(1.0, 0.0))


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


def test_split_pair_takes_only_an_exact_triangle_and_a_unitary_of_its_shape():
    # the envelope's triangular solves read one triangle, so a full matrix
    # would give the envelope of another operator
    full = np.random.default_rng(0).standard_normal((12, 12)).astype(complex)
    eye = np.eye(12, dtype=complex)
    lower = np.tril(full)
    for triangle, unitary in (
        (full, eye),
        (lower, eye[:11, :11]),
        (lower[:, :11], eye[:, :11]),
        (np.diag(lower), np.diag(eye)),
    ):
        with pytest.raises(ValueError):
            SplitPair(triangle, unitary)
    for triangle in (lower, np.triu(full), np.diag(np.diag(full)), full[:1, :1]):
        assert SplitPair(triangle, np.eye(len(triangle), dtype=complex)).triangle is triangle


def test_split_pair_lower_reads_which_triangle_holds_the_entries():
    full = np.random.default_rng(1).standard_normal((6, 6)).astype(complex)
    eye = np.eye(6, dtype=complex)
    assert SplitPair(np.tril(full), eye).lower
    assert not SplitPair(np.triu(full), eye).lower
    assert SplitPair(np.diag(np.diag(full)), eye).lower  # diagonal: both triangles
    assert split_given_basis(wrap_matrix(np.tril(full))).lower
    assert not split_schur(wrap_matrix(full)).lower


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


def _svdvals_inputs(monkeypatch) -> list:
    """Record the arrays that ``scipy.linalg.svdvals`` receives."""
    import scipy.linalg

    seen = []
    svdvals = scipy.linalg.svdvals
    monkeypatch.setattr(scipy.linalg, "svdvals", lambda a, *args, **kw: seen.append(a) or svdvals(a, *args, **kw))
    return seen


def test_operator_norm_of_a_real_valued_complex_matrix_takes_a_real_svd(monkeypatch):
    import scipy.linalg

    a = np.random.default_rng(8).standard_normal((60, 60)).astype(complex)
    expected = scipy.linalg.svdvals(a)[0]
    seen = _svdvals_inputs(monkeypatch)
    assert operator_norm(a) == pytest.approx(expected, rel=1e-14)
    assert [x.dtype for x in seen] == [np.float64]


def test_operator_norm_keeps_a_tiny_imaginary_part_complex(monkeypatch):
    a = np.random.default_rng(9).standard_normal((8, 8)).astype(complex)
    a[3, 5] += 1e-300j
    seen = _svdvals_inputs(monkeypatch)
    operator_norm(a)
    assert [x.dtype for x in seen] == [np.complex128]


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


def _per_entry_repr_text(op: OperatorMatrix) -> str:
    """The file ``save_matrix`` writes, one ``repr`` per float as in
    ``test_save_matrix_matches_per_entry_repr_format``."""
    rows, cols = op.entries.shape
    return f"{rows} {cols} {float(op.grid.omega)!r}\n" + "".join(
        " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n" for row in op.entries
    )


def _special_values_matrix() -> OperatorMatrix:
    # few distinct values, so each is formatted once and looked up
    special = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e-310, -1e-310, 1.5, 1.0 / 3.0]
    idx = np.random.default_rng(12).integers(0, len(special), (2, 12, 12))
    entries = np.empty((12, 12), dtype=complex)
    entries.real, entries.imag = np.array(special)[idx]
    return OperatorMatrix(make_grid(2.5, 12), entries)


@pytest.mark.parametrize(
    "make",
    [_special_values_matrix, lambda: build_ebeta_operator(make_grid(1.0, 64), EbetaSpec(1.5, 0.0))],
    ids=["special-values", "ebeta-64"],
)
def test_save_matrix_writes_each_entry_by_repr_and_reads_back_bitwise(tmp_path, make):
    op = make()
    path = tmp_path / "m.txt"
    save_matrix(op, path)
    assert path.read_text() == _per_entry_repr_text(op)
    loaded = load_matrix(path).entries
    assert loaded.shape == op.entries.shape
    # bit patterns, so -0.0 against 0.0 and nan count
    np.testing.assert_array_equal(loaded.view(np.int64), op.entries.view(np.int64))


def test_real_if_real_copies_real_entries_and_keeps_complex_ones():
    ebeta = build_ebeta_operator(make_grid(1.0, 64), EbetaSpec(0.5, 0.0)).entries
    assert not np.any(ebeta.imag)  # e_beta entries are real
    real = real_if_real(ebeta)
    assert real.dtype == np.float64 and real.flags.c_contiguous and not np.shares_memory(real, ebeta)
    np.testing.assert_array_equal(real, ebeta.real)
    complex_a = np.random.default_rng(13).standard_normal((9, 9)) + 1j * np.eye(9)
    assert real_if_real(complex_a) is complex_a


def test_operator_norm_of_a_raw_real_array_is_svdvals_bit_for_bit(monkeypatch):
    import scipy.linalg

    a = np.random.default_rng(14).standard_normal((50, 50))
    expected = float(scipy.linalg.svdvals(a)[0])
    seen = _svdvals_inputs(monkeypatch)
    assert operator_norm(a) == expected
    assert seen[0] is a  # no complex round trip
    assert operator_norm(a.astype(complex)) == expected
    assert [x.dtype for x in seen] == [np.float64, np.float64]


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matmul_is_numpys_product_bit_for_bit(n, dtype):
    rng = np.random.default_rng(n)

    def triangle():
        t = np.tril(rng.standard_normal((n, n)))
        return t + 1j * np.tril(rng.standard_normal((n, n))) if dtype is np.complex128 else t

    a, b = triangle(), triangle()
    for order_a, order_b in ("CC", "CF", "FC", "FF"):
        x, y = np.asarray(a, order=order_a), np.asarray(b, order=order_b)
        out = matmul(x, y)
        assert out.dtype == dtype and out.flags.c_contiguous
        np.testing.assert_array_equal(out.view(np.int64), (x @ y).view(np.int64))


def test_semigroup_ebeta_takes_every_product_from_matmul(monkeypatch, tmp_path):
    from triangulab import experiments

    calls = []
    monkeypatch.setattr(experiments, "matmul", lambda a, b: calls.append(1) or matmul(a, b))
    config = experiments.ExperimentConfig.from_dict(
        {"experiment": "semigroup-ebeta", "output_dir": str(tmp_path), "cache_dir": str(tmp_path / "cache")}
    )
    assert experiments.run_experiment(config).passed
    assert len(calls) == 27  # 9 order pairs at each of 3 sizes


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 4 1.0\n0.0 0.0\n")
    with pytest.raises(ValueError):
        load_matrix(path)


def test_equal_grids_built_apart_combine(tmp_path):
    a, b = make_grid(1.0, 8), make_grid(1.0, 8)
    assert a == b and a is not b
    assert a != make_grid(1.0, 16) and a != make_grid(2.0, 8)
    op = build_fractional(a, 0.5)
    path = tmp_path / "op.txt"
    save_matrix(op, path)
    loaded = load_matrix(path)
    assert loaded.grid == a and loaded.grid == b
    np.testing.assert_array_equal(loaded.entries, op.entries)


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
