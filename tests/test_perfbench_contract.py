"""The benchmark harness under ``perfbench/`` binds its span wrappers by
name and requires spans and counts of each traced workload; these checks
catch a rename or a lost span here before a traced benchmark run does.
The tracer is run from its path (``runpy``), which writes nothing next to it."""

import importlib
import inspect
import runpy
import tempfile
from pathlib import Path

import pytest
import scipy.linalg

from triangulab import experiments

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
RUN = TRACER.with_name("run.py")


def test_every_traced_span_names_a_package_function():
    spans = runpy.run_path(str(TRACER))["PACKAGE_SPANS"]
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"triangulab.{layer}"), name, None))
    ]
    assert missing == []


def test_cached_ebeta_keeps_the_signature_the_benchmark_calls():
    params = list(inspect.signature(experiments._cached_ebeta).parameters)
    assert params == ["config", "grid", "beta"]


@pytest.mark.parametrize("experiment", ["resolvent-profile", "levinson"])
def test_a_default_resolvent_profile_takes_one_svdvals(monkeypatch, tmp_path, experiment):
    # the benchmark expects a lapack.svdvals span on its two profile
    # workloads, and the ||R||_2 that the profile's one triangle evaluator
    # takes is the only call left to enter it
    calls = []
    svdvals = scipy.linalg.svdvals
    monkeypatch.setattr(scipy.linalg, "svdvals", lambda *args, **kwargs: calls.append(1) or svdvals(*args, **kwargs))
    config = experiments.ExperimentConfig.from_dict({"experiment": experiment, "output_dir": str(tmp_path)})
    assert experiments.run_experiment(config).passed
    assert len(calls) == 1


# spectra-symbol is left out: its ten experiments take about 13 s
@pytest.mark.parametrize("workload", ["profile-frac", "ebeta-cold", "levinson-warm"])
def test_a_traced_workload_meets_the_benchmark_span_contract(tmp_path, workload):
    # the traced benchmark run exits 1 when a span it expects is never
    # entered or a count it pins differs; the same run here, in-process
    bench = runpy.run_path(str(RUN))
    tracer = runpy.run_path(str(TRACER))
    names, cache_mode = bench["WORKLOADS"][workload]

    def iteration():
        for name in names:
            out = Path(tempfile.mkdtemp(dir=tmp_path))
            config = {"experiment": name, "output_dir": str(out)}
            if cache_mode is not None:
                config["cache_dir"] = str(tmp_path / "cache" if cache_mode == "warm" else out / "cache")
            assert experiments.run_experiment(experiments.ExperimentConfig.from_dict(config)).passed

    if cache_mode == "warm":
        iteration()  # fills the cache the traced run reads
    spans = tracer["Tracer"]()
    with tracer["installed"](spans):
        iteration()
    layer = spans.metrics()
    assert spans.consistency_errors() == []
    assert [name for name in bench["EXPECTED_SPANS"][workload] if layer[f"{name}.calls"] == 0] == []
    counts = bench["EXPECTED_COUNTS"].get(workload, {})
    assert {key: layer[key] for key in counts} == counts
