"""One pass of each benchmark workload, with every operation's own check.

`perfbench/workloads.py` is loaded by path, as `perfbench/run.py` loads it.
Each workload is built at one fixed seed, warmed up, and run once: every
operation is called and its output checked, untimed.  A change that breaks a
workload's check then fails here before a timed run sees it.  About 2.5 s in
all on a 2-vCPU host, most of it the butterfly's rasters.  The benchmark's
tracer is checked too: it must wrap every name its self-test expects.
"""

import contextlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@contextlib.contextmanager
def _load(name):
    """perfbench/<name>.py loaded by path, registered while it is in use."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    with _load("workloads") as module:
        yield module


def test_tracer_wraps_every_from_import_site():
    # a traced run sees calls only through the names it wraps; a refactor that
    # drops a `from ... import` binding the self-test expects would otherwise
    # show only in a traced benchmark run
    import sglap.cli  # noqa: F401
    import sglap.crsf  # noqa: F401
    import sglap.enumerator  # noqa: F401

    with _load("spans") as spans, _load("selftest") as selftest:
        wanted = set(selftest.FROM_IMPORT_SITES)
        wanted |= {"sglap.enumerator.apply_U", "sglap.butterfly.apply_U", "sglap.enumerator.classify"}
        tracer = spans.Tracer()
        tracer.install()
        try:
            missing = wanted - set(tracer.rebound_names)
        finally:
            assert tracer.uninstall() == []
        assert not missing


def test_every_declared_workload_is_defined(workloads):
    assert sorted(workloads.workloads(ROOT)) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_one_pass_passes_its_checks(workloads, name, tmp_path):
    workload = workloads.workloads(ROOT)[name]
    ops = workload.build(random.Random(f"{name}:{SEED}"), tmp_path)
    assert ops
    workload.warmup()
    rec = workloads.PassRecord()
    for op in ops:
        op.check(op.call(), rec)  # raises CheckFailed on a wrong output
