"""Fast coverage of the experiment wrappers the acceptance suite does not
exercise at reduced size (the heavy defaults run there)."""

import io
import json
import math
import os
import shutil

import numpy as np
import pytest

from triangulab.experiments import ExperimentConfig, run_experiment


def run(tmp_path, name, **overrides):
    payload = {"experiment": name, "output_dir": str(tmp_path / name)}
    payload.update(overrides)
    return run_experiment(ExperimentConfig.from_dict(payload))


def test_ebeta_asymptotics_experiment(tmp_path):
    summary = run(tmp_path, "ebeta-asymptotics")
    assert summary.passed
    assert (tmp_path / "ebeta-asymptotics" / "asymptotics.csv").exists()


def test_boundedness_experiment(tmp_path):
    summary = run(tmp_path, "boundedness")
    assert summary.passed
    text = (tmp_path / "boundedness" / "boundedness.csv").read_text()
    assert text.splitlines()[0] == "preset,sup_indicator,trend_slope,classification"
    assert "growing" in text and "bounded" in text


def test_symbol_trace_identity_preset(tmp_path):
    summary = run(tmp_path, "symbol-trace", kernel={"s": "one"})
    assert summary.passed
    names = {c.name for c in summary.checks}
    assert "hermitian-symmetry-real-kernel" in names
    assert "identity-kernel-limits-to-one" in names


def test_symbol_trace_imaginary_preset(tmp_path):
    summary = run(tmp_path, "symbol-trace", kernel={"s": "imaginary_power", "alpha": 1.0})
    assert summary.passed
    assert (tmp_path / "symbol-trace" / "trace.csv").exists()


def test_prop54_experiment_smaller_grid(tmp_path):
    summary = run(tmp_path, "prop54", grid={"n": 1024})
    assert summary.passed
    lines = (tmp_path / "prop54" / "residuals.csv").read_text().splitlines()
    assert lines[0] == "xi,residual"
    assert len(lines) == 4


def test_spectral_mapping_experiment(tmp_path):
    summary = run(tmp_path, "spectral-mapping")
    assert summary.passed
    payload = json.loads((tmp_path / "spectral-mapping" / "summary.json").read_text())
    assert len(payload["checks"]) == 6


def test_resolvent_profile_experiment_small(tmp_path):
    summary = run(
        tmp_path,
        "resolvent-profile",
        grid={"n": 96},
        ladder={"y": [2.0 ** (-e / 3.0) for e in range(9)]},
    )
    names = {c.name: c.passed for c in summary.checks}
    assert names["chain-series-vs-dense-inverse"]
    assert (tmp_path / "resolvent-profile" / "r_table.csv").exists()
    assert (tmp_path / "resolvent-profile" / "profile.csv").exists()


def test_levinson_experiment_reports_verdict(tmp_path):
    summary = run(
        tmp_path,
        "levinson",
        grid={"n": 128},
        kernel={"beta": 2.0},
    )
    assert summary.config_echo["resolved"]["verdict"] in (
        "INTEGRABLE",
        "DIVERGENT",
        "INCONCLUSIVE",
    )


def test_ebeta_cache_keeps_betas_that_format_alike_apart(tmp_path):
    from triangulab.experiments import _cached_ebeta
    from triangulab.grid import make_grid

    assert f"{1.0000001:g}" == f"{1.0:g}"
    cache = tmp_path / "cache"
    config = ExperimentConfig.from_dict({"experiment": "levinson", "cache_dir": str(cache)})
    grid = make_grid(config.omega, 8)
    first = _cached_ebeta(config, grid, 1.0)
    second = _cached_ebeta(config, grid, 1.0000001)
    assert len(list(cache.glob("ebeta_*.npy"))) == 2
    assert sorted(os.listdir(cache)) == sorted(p.name for p in cache.glob("ebeta_*.npy"))
    assert (first.entries != second.entries).any()


def test_ebeta_cache_rebuilds_a_file_saved_under_another_beta(tmp_path):
    from triangulab.experiments import _cached_ebeta
    from triangulab.grid import make_grid
    from triangulab.operators import build_ebeta_operator, load_matrix
    from triangulab.specfun import EbetaSpec

    cache = tmp_path / "cache"
    config = ExperimentConfig.from_dict({"experiment": "levinson", "cache_dir": str(cache)})
    grid = make_grid(config.omega, 16)
    _cached_ebeta(config, grid, 2.0)
    wrong = cache / "ebeta_b0.5_c0.0_om1.0_n16.npy"
    shutil.copy(cache / "ebeta_b2.0_c0.0_om1.0_n16.npy", wrong)
    expected = build_ebeta_operator(grid, EbetaSpec(0.5)).entries
    rebuilt = _cached_ebeta(config, grid, 0.5)
    assert (rebuilt.entries == expected).all()
    assert (load_matrix(wrong).entries == expected).all()  # the bad file was overwritten
    loaded = _cached_ebeta(config, grid, 0.5)
    assert (loaded.entries == expected).all()


def test_ebeta_cache_accepts_what_the_build_wrote(tmp_path, monkeypatch):
    from triangulab import experiments
    from triangulab.grid import make_grid

    config = ExperimentConfig.from_dict({"experiment": "levinson", "cache_dir": str(tmp_path / "cache")})
    grids = [make_grid(config.omega, n) for n in (64, 128, 256)]
    betas = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    built = {(g.n, b): experiments._cached_ebeta(config, g, b).entries for g in grids for b in betas}

    def no_rebuild(*args):
        raise AssertionError("a cache file the build wrote was rejected")

    monkeypatch.setattr(experiments, "build_ebeta_operator", no_rebuild)
    for g in grids:
        for b in betas:
            assert (experiments._cached_ebeta(config, g, b).entries == built[g.n, b]).all()


def test_ebeta_cache_rebuilds_an_unreadable_file(tmp_path):
    from triangulab.experiments import _cached_ebeta
    from triangulab.grid import make_grid
    from triangulab.operators import build_ebeta_operator, load_matrix
    from triangulab.specfun import EbetaSpec

    cache = tmp_path / "cache"
    cache.mkdir()
    config = ExperimentConfig.from_dict({"experiment": "levinson", "cache_dir": str(cache)})
    grid = make_grid(config.omega, 16)
    path = cache / "ebeta_b2.0_c0.0_om1.0_n16.npy"
    expected = build_ebeta_operator(grid, EbetaSpec(2.0)).entries
    _cached_ebeta(config, grid, 2.0)
    written = path.read_bytes()

    def npy(*arrays):
        buffer = io.BytesIO()
        for a in arrays:
            np.save(buffer, a)
        return buffer.getvalue()

    planted = {
        "empty": b"",
        "truncated": written[:-8],
        "text": b"16 16 1.0\n" + b"0.0 0.0 " * 256 + b"\n",
        "wrong shape": npy(np.float64(1.0), expected[:, :8]),
        "wrong dtype": npy(np.float64(1.0), expected.real),
    }
    for content in planted.values():
        path.write_bytes(content)
        rebuilt = _cached_ebeta(config, grid, 2.0)
        assert (rebuilt.entries == expected).all()
        assert path.read_bytes() == written  # overwritten with the fresh build
        assert (load_matrix(path).entries == expected).all()
        assert os.listdir(cache) == [path.name]  # no temporary file left behind


def test_levinson_run_rebuilds_an_unreadable_cache_file(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "ebeta_b2.0_c0.0_om1.0_n32.npy").write_text("1.0 2.0\n")
    from triangulab.operators import load_matrix

    planted = cache / "ebeta_b2.0_c0.0_om1.0_n32.npy"
    run(tmp_path, "levinson", grid={"n": 32}, cache_dir=str(cache))
    assert (tmp_path / "levinson" / "profile.csv").exists()
    assert load_matrix(planted).entries.shape == (32, 32)


# ---------------------------------------------------------------- CSV artifact format


def test_csv_writes_strings_and_integers_as_given_and_floats_as_repr(tmp_path):
    from triangulab.experiments import _write_csv

    path = tmp_path / "table.csv"
    _write_csv(path, "name,count,value", [("a", 3, 0.1), ("b", -7, np.float64(1e-300)), ("c", 0, np.int64(2))])
    header, *rows = path.read_text(encoding="ascii").splitlines()
    assert header == "name,count,value"
    assert rows == ["a,3,0.1", "b,-7,1e-300", "c,0,2.0"]
    assert [float(row.split(",")[2]) for row in rows] == [0.1, 1e-300, 2.0]


def test_profile_csv_headers(tmp_path):
    from triangulab.experiments import _phi_plus, _write_profile, _write_r_table
    from triangulab.grid import make_grid
    from triangulab.operators import build_fractional, split_given_basis
    from triangulab.resolvent import profile

    grid = make_grid(1.0, 24)
    pair = split_given_basis(_phi_plus(grid, build_fractional(grid, 1.0).entries))
    prof = profile(pair, [0.5, 0.25])
    p1 = tmp_path / "profile.csv"
    p2 = tmp_path / "r.csv"
    _write_profile(prof, p1)
    _write_r_table(prof, p2)
    header, *rows = p1.read_text().splitlines()
    assert header == "y,count_n,envelope_m,ln_envelope_m"
    # every float field parses back to its value; counts are written as integers
    assert len(rows) == prof.y_grid.size
    for j, row in enumerate(rows):
        y, count, m, ln_m = row.split(",")
        assert float(y) == prof.y_grid[j]
        assert count == str(int(prof.count_n[j]))
        assert float(m) == prof.envelope_m[j]
        assert float(ln_m) == math.log(prof.envelope_m[j])
    header, *rows = p2.read_text().splitlines()
    assert header == "n,y,r_n"
    assert len(rows) == np.count_nonzero(prof.r)
    for row in rows:
        k, y, r = row.split(",")
        assert k == str(int(k))
        j = int(np.flatnonzero(prof.y_grid == float(y))[0])
        assert float(r) == prof.r[int(k) - 1, j]


def test_trace_csv_header(tmp_path):
    from triangulab.experiments import _write_trace
    from triangulab.symbol import XI_LADDER, trace_symbol

    trace = trace_symbol(lambda t: 1.0, 1.0)
    path = tmp_path / "trace.csv"
    _write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "xi,re_s_tilde,im_s_tilde,re_s_tilde1,im_s_tilde1,re_g,im_g,abs_g"
    assert len(lines) == len(XI_LADDER) + 1
    # every field parses back to the float it was written from
    for i, line in enumerate(lines[1:]):
        st, s1, g = trace.s_tilde[i], trace.s_tilde1[i], trace.g[i]
        expected = [XI_LADDER[i], st.real, st.imag, s1.real, s1.imag, g.real, g.imag, abs(g)]
        assert [float(field) for field in line.split(",")] == expected
