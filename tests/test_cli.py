import json
import os

import numpy as np
import pytest

from triangulab import experiments
from triangulab.cli import main
from triangulab.experiments import REGISTRY, ConfigError, ExperimentConfig, run_experiment


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sorted(out) == sorted(REGISTRY)
    assert len(out) == 15


def test_run_happy_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "macaev-norms", "output_dir": str(tmp_path / "out")},
    )
    assert main(["run", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["experiment"] == "macaev-norms"
    assert {"name", "anchor", "value", "threshold", "pass"} <= set(summary["checks"][0])
    assert all(c["pass"] for c in summary["checks"])


def test_unknown_experiment_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "unknown"})
    assert main(["run", "--config", cfg]) == 2


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "macaev-norms", "bogus": 1})
    assert main(["run", "--config", cfg]) == 2
    cfg = write_config(tmp_path, {"experiment": "macaev-norms", "grid": {"m": 4}})
    assert main(["run", "--config", cfg]) == 2
    cfg = write_config(tmp_path, {"experiment": "macaev-norms", "tolerances": {"nope": 1.0}})
    assert main(["run", "--config", cfg]) == 2
    cfg = write_config(tmp_path, {"experiment": "macaev-norms", "grid.n": 4})
    assert main(["run", "--config", cfg]) == 2


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2


def test_missing_file_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "experiment,tolerance,failing",
    [
        ("sigma-equality", "sigma_distance", "max-sigma-distance-"),
        # the config tolerances are the only gate on the mapping checks
        ("spectral-mapping", "vf_radius", "vf-radius-"),
        ("spectral-mapping", "mapping_distance", "distance-"),
    ],
    ids=["sigma-distance", "vf-radius", "mapping-distance"],
)
def test_failed_check_exits_one(tmp_path, experiment, tolerance, failing):
    cfg = write_config(
        tmp_path,
        {
            "experiment": experiment,
            "tolerances": {tolerance: 1e-30},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["run", "--config", cfg]) == 1
    checks = json.loads((tmp_path / "out" / "summary.json").read_text())["checks"]
    failed = [c["name"] for c in checks if not c["pass"]]
    assert failed and all(name.startswith(failing) for name in failed)


@pytest.mark.parametrize(
    "overrides",
    [
        # a 4-cell grid cannot resolve the fixed probe frequencies: aliasing guard
        {"experiment": "prop54", "grid": {"n": 4}},
        # Gamma(beta + 1) of the fractional build overflows a double
        {"experiment": "resolvent-profile", "grid": {"n": 8}, "kernel": {"beta": 200.0}},
        {"experiment": "spectral-mapping", "kernel": {"beta": 171.5}},
        # Gamma(beta) of the log-singular build overflows a double
        {"experiment": "levinson", "grid": {"n": 8}, "kernel": {"beta": 200.0}},
        # the kernel moments on (0, 1e6) overflow a double
        {"experiment": "ebeta-asymptotics", "grid": {"omega": 1e6}},
        # the ring radius exp(|alpha| pi/2) overflows a double
        {"experiment": "annulus-jialpha", "kernel": {"alpha": 460.0}},
        # 1/Gamma(1 + i alpha) overflows a double
        {"experiment": "symbol-trace", "kernel": {"alpha": 1000.0}},
        {"experiment": "symbol-trace", "kernel": {"alpha": -1000.0}},
        # the entries of the J^1 cube overflow a double
        {"experiment": "fractional-powers", "grid": {"omega": 1e300}},
        # the cube is finite, but its norm bound omega^3 overflows a double
        {"experiment": "fractional-powers", "grid": {"omega": 1e103}},
    ],
    ids=["prop54-aliasing", "profile-beta-200", "mapping-beta-171.5", "levinson-beta-200",
         "asymptotics-omega-1e6", "annulus-alpha-460", "trace-alpha-1000", "trace-alpha-minus-1000",
         "powers-omega-1e300", "powers-omega-1e103"],
)
def test_numerical_error_exits_three(tmp_path, overrides):
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 3


def test_summary_is_strict_json(tmp_path):
    # a two-point ladder leaves the count exponents undefined (NaN): the
    # summary writes them as null, since strict JSON has no NaN or Infinity
    cfg = write_config(tmp_path, {"experiment": "resolvent-profile", "grid": {"n": 64},
                                  "ladder": {"y": [100.0, 200.0]}, "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "out" / "summary.json").read_text(encoding="ascii")
    checks = json.loads(text, parse_constant=reject)["checks"]
    assert [c["value"] for c in checks if c["name"].startswith("count-exponent-")] == [None, None]


def test_out_of_memory_exits_three(tmp_path, capsys, monkeypatch):
    # exit 1 means a failed check, so an allocation failure (as for
    # resolvent-profile at grid.n 1000000) must not end in a traceback
    def exhausted(config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("triangulab.cli.run_experiment", exhausted)
    cfg = write_config(tmp_path, {"experiment": "resolvent-profile", "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:")


@pytest.mark.parametrize(
    "overrides",
    [
        {"experiment": "spectral-mapping", "grid": {"n": 1}},
        {"experiment": "spectral-mapping", "grid": {"n": 2.9}},
        {"experiment": "spectral-mapping", "grid": {"n": True}},
        {"experiment": "spectral-mapping", "grid": {"omega": 0.0}},
        {"experiment": "spectral-mapping", "grid": {"omega": -1.0}},
        {"experiment": "spectral-mapping", "grid": {"omega": float("inf")}},
        {"experiment": "resolvent-profile", "grid": {"n": 16}, "ladder": {"y": [0.5, 0.0]}},
        {"experiment": "resolvent-profile", "grid": {"n": 16}, "ladder": {"y": [0.5, float("nan")]}},
        {"experiment": "resolvent-profile", "grid": {"n": 16}, "ladder": {"y": []}},
        {"experiment": "resolvent-profile", "grid": {"n": 16}, "kernel": {"beta": -1.0}},
        {"experiment": "macaev-norms", "seed": True},
        {"experiment": "macaev-norms", "seed": 1.5},
        # numpy's default_rng rejects a negative seed
        {"experiment": "macaev-norms", "seed": -1},
        {"experiment": ["macaev-norms"]},
        {"experiment": "levinson", "tolerances": {"levinson_margin": -0.5}},
        # values of the removed keys: they exit 2 as removed keys, whatever the value
        {"experiment": "symbol-trace", "ladder": {"xi_per_octave": 0}},
        {"experiment": "symbol-trace", "ladder": {"xi_per_octave": -1}},
        {"experiment": "symbol-trace", "ladder": {"xi_k_max": 5}},
        {"experiment": "witness", "tolerances": {"witness_tol": -1.0}},
        {"experiment": "witness", "tolerances": {"witness_tol": 0.0}},
        {"experiment": "macaev-norms", "ladder": {"xi_k_max": 1024}},
        {"experiment": "macaev-norms", "ladder": {"xi_k_max": 10**6}},
        {"experiment": "macaev-norms", "ladder": {"xi_per_octave": 10**6}},
        {"experiment": "macaev-norms", "ladder": {"xi_per_octave": 2000}},
    ],
    ids=["n-1", "n-2.9", "n-true", "omega-0", "omega-neg", "omega-inf", "y-0", "y-nan", "y-empty",
         "beta-neg", "seed-true", "seed-1.5", "seed-neg", "experiment-list",
         "levinson-margin-negative", "xi-per-octave-0", "xi-per-octave-neg", "xi-k-max-5",
         "witness-tol-neg", "witness-tol-0", "xi-k-max-1024", "xi-k-max-1000000",
         "xi-per-octave-1000000", "xi-per-octave-2000"],
)
def test_bad_config_values_exit_two(tmp_path, overrides):
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 2
    assert not (tmp_path / "out").exists()


# each removed key, at a value it used to accept
REMOVED_KEYS = {
    "ladder.xi_k_max": 14,
    "ladder.xi_per_octave": 4,
    "tolerances.noise_eps": 1e-12,
    "tolerances.semigroup_rel": 5e-2,
    "tolerances.witness_tol": 0.1,
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_config_key_exits_two_with_its_reason(tmp_path, capsys, key):
    section, sub = key.split(".")
    payload = {"experiment": "witness", section: {sub: REMOVED_KEYS[key]}, "output_dir": str(tmp_path / "out")}
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and f"{key!r} was removed:" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["output_dir", "cache_dir"])
@pytest.mark.parametrize("value", [None, False, "", 3], ids=["null", "false", "empty", "number"])
def test_path_keys_must_be_nonempty_strings(tmp_path, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"experiment": "macaev-norms", "output_dir": "out", key: value})
    assert main(["run", "--config", cfg]) == 2
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "key,experiment", [("output_dir", "macaev-norms"), ("cache_dir", "semigroup-ebeta")]
)
def test_path_key_naming_a_regular_file_exits_two(tmp_path, capsys, monkeypatch, key, experiment):
    # the error comes before any e_beta build, not after the first one
    builds = []
    build = experiments.build_ebeta_operator
    monkeypatch.setattr(experiments, "build_ebeta_operator", lambda *args: builds.append(1) or build(*args))
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n")
    payload = {"experiment": experiment, "output_dir": str(tmp_path / "out"), key: str(blocker)}
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and str(blocker) in err[0]
    assert blocker.read_text() == "not a directory\n"
    assert builds == []


def test_config_strictness_at_dataclass_level():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "macaev-norms", "kernel": {"zeta": 1}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "macaev-norms", "kernel": {"s": "nope"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2, 3])
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({})


def test_identical_config_gives_byte_identical_artifacts(tmp_path):
    outs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "fractional-powers",
                "seed": 7,
                "output_dir": str(outdir),
            }
        )
        run_experiment(cfg)
        outs.append(outdir)
    for name in ("summary.json", "power_law.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_summary_checks_carry_anchors(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {"experiment": "fractional-powers", "output_dir": str(tmp_path / "out")}
    )
    summary = run_experiment(cfg)
    assert all(c.anchor for c in summary.checks)
    payload = json.loads(summary.to_json())
    assert all(c["anchor"] for c in payload["checks"])


def test_cache_roundtrip_reuses_expensive_build(tmp_path):
    cache = tmp_path / "cache"
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "levinson",
            "grid": {"n": 48},
            "kernel": {"beta": 2.0},
            "ladder": {"y": [3.5, 2.5, 1.8, 1.2, 0.9, 0.6]},
            "output_dir": str(tmp_path / "out1"),
            "cache_dir": str(cache),
        }
    )
    try:
        run_experiment(cfg)
    except Exception:
        pass  # verdict quality at this tiny grid is not the point here
    files = list(cache.glob("ebeta_*.npy"))
    assert len(files) == 1
    # a second run must reuse the cached matrix byte for byte
    before = files[0].read_bytes()
    cfg2 = ExperimentConfig.from_dict(
        {
            "experiment": "levinson",
            "grid": {"n": 48},
            "kernel": {"beta": 2.0},
            "ladder": {"y": [3.5, 2.5, 1.8, 1.2, 0.9, 0.6]},
            "output_dir": str(tmp_path / "out2"),
            "cache_dir": str(cache),
        }
    )
    try:
        run_experiment(cfg2)
    except Exception:
        pass
    assert files[0].read_bytes() == before
