"""Fast coverage of the experiment wrappers the acceptance suite does not
exercise at reduced size (the heavy defaults run there)."""

import json
import os
import shutil

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
    assert len(list(cache.glob("ebeta_*.txt"))) == 2
    assert sorted(os.listdir(cache)) == sorted(p.name for p in cache.glob("ebeta_*.txt"))
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
    wrong = cache / "ebeta_b0.5_c0.0_om1.0_n16.txt"
    shutil.copy(cache / "ebeta_b2.0_c0.0_om1.0_n16.txt", wrong)
    expected = build_ebeta_operator(grid, EbetaSpec(0.5)).entries
    rebuilt = _cached_ebeta(config, grid, 0.5)
    assert (rebuilt.entries == expected).all()
    assert (load_matrix(wrong).entries == expected).all()  # the bad file was overwritten
    loaded = _cached_ebeta(config, grid, 0.5)
    assert (loaded.entries == expected).all()
