"""The benchmark under perfbench/ names functions of the package by string:
the tracer wraps each (module, function) in SPANS, and each workload requires
calls on its home spans.  These checks load both scripts as they are and fail
when the package no longer has what they name."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


@pytest.fixture(scope="module")
def run():
    return load("run")


def test_every_traced_span_resolves(tracer):
    for module, func in tracer.SPANS:
        assert callable(getattr(importlib.import_module(f"rturan.{module}"), func, None)), \
            f"rturan.{module}.{func}"


def test_every_home_span_is_traced(tracer, run):
    spans = {"cli.main"} | {f"{m.lstrip('_')}.{f}" for m, f in tracer.SPANS}
    for workload in run.WORKLOADS.values():
        assert set(workload.home_spans) <= spans, workload.name


def test_backend_agreement(run):
    assert run.backend_agreement(7) is None
