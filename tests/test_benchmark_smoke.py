"""One pass of each benchmark workload, with every operation's own check.

`perfbench/workloads.py` is loaded by path, as `perfbench/run.py` loads it.
Each workload is built at one fixed seed, warmed up, and run once: every
operation is called and its output checked, untimed.  A change that breaks a
workload's check then fails here before a timed run sees it.  About 2.5 s in
all on a 2-vCPU host, most of it the butterfly's rasters.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
