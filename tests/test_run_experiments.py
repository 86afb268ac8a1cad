"""The experiment runner (``benchmarks/run_experiments.py``) calls its
benchmarks through their real signatures.

The sections run full benchmarks, so the tests stub what a section
calls and check only the calls: a section that drifts from its
benchmark's ``measure()`` signature stops a full run of the runner.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def run_experiments(monkeypatch):
    """The runner, loaded from its file.  It puts the benchmarks
    directory on ``sys.path`` for its sibling imports; the copy of
    ``sys.path`` it edits is dropped after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "run_experiments", BENCHMARKS / "run_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exp_service_calls_measure_with_its_signature(
    run_experiments, monkeypatch, tmp_path
):
    import bench_concurrent_service as bench

    signature = inspect.signature(bench.measure)
    report = {"stub": True}
    bound = []
    checked = []

    def measure(*args, **kwargs):
        bound.append(signature.bind(*args, **kwargs))
        return report

    artifact = tmp_path / "BENCH_concurrent_service.json"
    monkeypatch.setattr(bench, "measure", measure)
    monkeypatch.setattr(bench, "print_report", lambda r: None)
    monkeypatch.setattr(bench, "check_acceptance", checked.append)
    monkeypatch.setattr(bench, "ARTIFACT", artifact)

    run_experiments.exp_service()

    assert len(bound) == 1
    assert checked == [report]
    assert json.loads(artifact.read_text()) == report
