"""The benchmark harness under ``perfbench/`` binds its span wrappers by
name; these checks catch a rename here before a traced benchmark run does.
The tracer is run from its path (``runpy``), which writes nothing next to it."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest
import scipy.linalg

from triangulab import experiments

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
