#!/usr/bin/env python3
"""Self-test of the benchmark: repeatability and the traced run.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it makes two traced runs and one untraced run with the
same seed (one pass each way) and checks that:

* both traced runs give identical work counts (butterfly.orbit_steps,
  operator.eigenvalues.gflop_computed, enumerator.verify.entries.<kind>,
  crsf.cycles_per_sample and the rest of the per-pass work counts);
* all three runs give identical output digests (raster bytes, spectra
  rounded to 1e-9, CRSF successor maps), so tracing does not change outputs;
* every pass of a run did the same work;
* every name the tracer wrapped was restored, and the names bound by
  ``from ... import`` in sglap modules were among those wrapped;
* on small-levels, operator.eigenvalues spans nest under
  enumerator.decimation_verify through operator.spectrum.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REPEATED_COUNTS = (
    "butterfly.orbit_steps",
    "operator.eigenvalues.gflop_computed",
    "crsf.cycles_per_sample",
) + tuple(
    f"enumerator.verify.entries.{k}"
    for k in ("regular", "s3", "d-root", "psi-zero", "absent-check", "informational")
)
FROM_IMPORT_SITES = [
    f"sglap.{site}"
    for site in (
        "enumerator.spectrum", "enumerator.assemble", "enumerator.build_connection",
        "enumerator.build_gasket", "enumerator.apply_U", "enumerator.classify",
        "operator.build_gasket", "operator.eigenvalues",
        "crsf.assemble", "crsf.build_connection",
        "butterfly.apply_U",
    )
]


def run(workload: str, seed: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    stem = HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
    result = json.loads(Path(f"{stem}.json").read_text())
    if trace:
        with open(f"{stem}-spans.jsonl") as fh:
            result["spans"] = [json.loads(line) for line in fh]
    return result


def verify_nests_eigenvalues(spans: list) -> bool:
    """Some eigenvalues span has spectrum as parent and verify as ancestor."""
    for name, _, _, parent, _ in spans:
        if name != "operator.eigenvalues" or parent is None or spans[parent][0] != "operator.spectrum":
            continue
        k = spans[parent][3]
        while k is not None:
            if spans[k][0] == "enumerator.decimation_verify":
                return True
            k = spans[k][3]
    return False


def check_workload(workload: str, seed: int) -> list[str]:
    t1, t2, plain = run(workload, seed, 1), run(workload, seed, 1), run(workload, seed, 0)
    problems = []
    for name in REPEATED_COUNTS:
        if t1["per_layer"][name] != t2["per_layer"][name]:
            problems.append(f"{name} differs: {t1['per_layer'][name]} vs {t2['per_layer'][name]}")
    if t1["work_per_pass"] != t2["work_per_pass"]:
        problems.append("per-pass work counts differ between two runs of one seed")
    if not t1["digests"] or not t1["digests"] == t2["digests"] == plain["digests"]:
        problems.append(f"output digests differ: {t1['digests']} / {t2['digests']} / {plain['digests']}")
    for r in (t1, t2, plain):
        if not r["work_repeats_across_passes"]:
            problems.append("passes of one run did different work")
    for r in (t1, t2):
        if r["not_restored"]:
            problems.append(f"wrapped names not restored: {r['not_restored']}")
        missing = [s for s in FROM_IMPORT_SITES if s not in r["rebound"]]
        if missing:
            problems.append(f"from-import sites not wrapped: {missing}")
    if workload == "small-levels" and not verify_nests_eigenvalues(t1["spans"]):
        problems.append("no operator.eigenvalues span nests under enumerator.decimation_verify")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    failed = False
    for workload in args.workload or names:
        problems = check_workload(workload, args.seed)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {workload}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
