#!/usr/bin/env python3
"""Benchmark of the sglap package: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports sglap from ``src/`` there
and exits with code 2 if the sources are missing.  The workloads are listed,
with the reason for each, in BENCHMARK.json.

The runner is a closed loop: one caller runs the workload's operations one
after another, each after the previous one returns, and repeats the whole
list (a "pass") while the next pass still fits in ``--seconds``; a run makes
at least one pass.  At most two threads compute at a time: numpy's BLAS uses
its default thread count (2 on a 2-core machine) and the butterfly renders
at threads=1 and threads=2.  Every output is checked; checks are not timed.

With ``--trace 0`` the run reports every end-to-end metric of BENCHMARK.json:

    setup_s      median over fresh processes of importing sglap, sglap.cli,
                 sglap.crsf and sglap.enumerator plus one level-1 spectrum;
                 the probes are spread evenly over the run, between passes
    wall_s       median over passes of the summed operation times of a pass
    peak_rss_mb  peak resident memory of this process

and prints, by name, the workload-specific figures (spectrum_l6_s,
spectrum_l7_s, logdet_l6_s, verify_l5_s, cli_s, raster_cells_per_s,
raster_cells_per_s_t2, crsf_samples_per_s, failed_share, verify_red_share),
"n/a" where a workload does not run the operation.  These are also in the
result file.

With ``--trace 1`` the run alternates untraced and traced passes (at least
one of each) and reports every per-layer metric of BENCHMARK.json, as a mean
per traced pass, plus trace.overhead_s: median traced minus median untraced
pass time.  Spans are written to a JSON-lines file when the run ends.

Each run writes ``perfbench/out/<workload>-seed<n>-trace<t>.json`` with the
run's metadata, metrics, work counts, output digests and failures.  The last
line on stdout is the JSON summary {correct, attempted, failed, metrics}.
``failed`` counts operations that raised or failed their check; ``correct``
is true when none did.  The documented defects ROADMAP 3a (decimation_kit's
phi sign at dyadic flux) and 3b (red verify reports) are verdicts, not
failures: they are reported as schur_defect_share and verify_red_share.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8
SETUP_CODE = """
import sglap, sglap.cli, sglap.crsf, sglap.enumerator
from sglap import gasket, gauge, operator
g = gasket.build_gasket(1)
operator.spectrum(operator.assemble(g, gauge.build_connection(g, gauge.FluxPair(0.5, 0.5))))
"""

# Figures printed by name on every untraced run; the first three are the
# gated end-to-end metrics.  (name, unit, better)
FIGURES = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("spectrum_l6_s", "s", "lower"),
    ("spectrum_l7_s", "s", "lower"),
    ("logdet_l6_s", "s", "lower"),
    ("verify_l5_s", "s", "lower"),
    ("cli_s", "s", "lower"),
    ("raster_cells_per_s", "1/s", "higher"),
    ("raster_cells_per_s_t2", "1/s", "higher"),
    ("crsf_samples_per_s", "1/s", "higher"),
    ("failed_share", "share", "lower"),
    ("verify_red_share", "share", "lower"),
    ("schur_defect_share", "share", "lower"),
)
EVENT_METRICS = (
    "decimation.runtime_warnings",
    "butterfly.terminated_orbits",
    "crsf.clamped_acceptances",
    "crsf.window_warnings",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probe() -> float:
    """Seconds for one fresh process to run SETUP_CODE."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - t0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metadata(workload: str, seed: int, why: str) -> dict:
    from sglap import gasket

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git_commit": git_commit(),
        "SG_MAX_LEVEL": os.environ.get("SG_MAX_LEVEL", f"default ({gasket.DEFAULT_MAX_LEVEL})"),
    }


def run_pass(rec, ops, tracer, events, rebound: list[str], leftover: list[str]):
    """Run every operation once into ``rec``; trace the pass when a tracer is given."""
    before = Counter(events.counts)
    t0 = perf_counter()
    if tracer is not None:
        tracer.install()
        rebound[:] = tracer.rebound_names
    try:
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
                tracer.active = True
            start = perf_counter()
            try:
                out, error = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            events.drain()
            if error is None:
                try:
                    op.check(out, rec)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            rec.ops.append((op.kind, op.sample, dt, error))
    finally:
        if tracer is not None:
            leftover.extend(tracer.uninstall())
    rec.wall = perf_counter() - t0
    rec.events = events.counts - before


def figures(recs, setup, attempted: int, failed: int, cells: int) -> dict[str, tuple[float | None, int]]:
    """(value or None when not measured, sample count) per printed figure."""
    def durations(label):
        return [dt for rec in recs for _, s, dt, _ in rec.ops if s == label]

    def median_of(label):
        d = durations(label)
        return (statistics.median(d) if d else None), len(d)

    def rate(label, per_call):
        d = durations(label)
        return (per_call / statistics.median(d) if d else None), len(d)

    work = sum((rec.work for rec in recs), Counter())
    l6 = durations("crsf_sample_l6_s")
    return {
        "setup_s": setup,
        "wall_s": (statistics.median(rec.op_seconds for rec in recs), len(recs)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "spectrum_l6_s": median_of("spectrum_l6_s"),
        "spectrum_l7_s": median_of("spectrum_l7_s"),
        "logdet_l6_s": median_of("logdet_l6_s"),
        "verify_l5_s": median_of("verify_l5_s"),
        "cli_s": median_of("cli_s"),
        "raster_cells_per_s": rate("raster_cells_per_s", cells),
        "raster_cells_per_s_t2": rate("raster_cells_per_s_t2", cells),
        "crsf_samples_per_s": ((len(l6) / sum(l6) if l6 else None), len(l6)),
        "failed_share": (failed / attempted, attempted),
        "verify_red_share": ((work["verify.red"] / work["verify.calls"]) if work["verify.calls"] else None,
                             work["verify.calls"]),
        "schur_defect_share": ((work["decimation.phi_sign_defects"] / work["schur.calls"])
                               if work["schur.calls"] else None, work["schur.calls"]),
    }


def layer_metrics(names, recs, plain, tracer) -> dict[str, float]:
    n = len(recs)
    summary = tracer.summary()
    work = sum((rec.work for rec in recs), Counter())
    events = sum((rec.events for rec in recs), Counter())
    out = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if name == "trace.overhead_s":
            value = (statistics.median(r.op_seconds for r in recs)
                     - statistics.median(r.op_seconds for r in plain))
        elif name == "operator.eigenvalues.gflop_computed":
            value = tracer.gflop / n
        elif name == "butterfly.retained_share":
            value = work["butterfly.retained"] / work["butterfly.cells"] if work["butterfly.cells"] else 0.0
        elif name == "crsf.cycles_per_sample":
            value = work["crsf.cycles"] / work["crsf.samples"] if work["crsf.samples"] else 0.0
        elif tail == "calls":
            value = summary.get(head, (0, 0.0))[0] / n
        elif tail == "self_s":
            value = summary.get(head, (0, 0.0))[1] / n
        elif name in EVENT_METRICS:
            value = events[name] / n
        elif name.startswith("enumerator.verify.") or name in ("butterfly.orbit_steps",
                                                               "decimation.phi_sign_defects"):
            value = work[name] / n
        else:
            raise KeyError(f"BENCHMARK.json names a per-layer metric the runner does not know: {name}")
        out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sglap" / "__init__.py").is_file():
        fail(f"no sglap sources at {ROOT / 'src' / 'sglap'}; run from the root of a full checkout")
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    ap = argparse.ArgumentParser(description="sglap benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(whys))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    workload = workloads.workloads(ROOT)[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    tracer = spans.Tracer()
    passes: list[tuple[bool, workloads.PassRecord]] = []
    rebound: list[str] = []
    leftover: list[str] = []
    probes: list[float] = []
    n_probes = 0 if args.trace else SETUP_PROBES
    try:
        ops = workload.build(random.Random(f"{args.workload}:{args.seed}"), tmp)
        with spans.EventCounters() as events:
            workload.warmup()
            events.drain()
            events.counts.clear()
            start = perf_counter()
            while True:
                while len(probes) < n_probes and perf_counter() - start >= len(probes) * args.seconds / n_probes:
                    probes.append(setup_probe())
                traced = bool(args.trace) and len(passes) % 2 == 1
                rec = workloads.PassRecord()
                run_pass(rec, ops, tracer if traced else None, events, rebound, leftover)
                passes.append((traced, rec))
                typical = statistics.median(rec.wall for _, rec in passes)
                if len(passes) >= 1 + args.trace and perf_counter() - start + typical > args.seconds:
                    break
            while len(probes) < n_probes:
                probes.append(setup_probe())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    recs = [rec for _, rec in passes]
    outcomes = [o for rec in recs for o in rec.ops]
    failures = Counter((kind, error) for kind, _, _, error in outcomes if error)
    attempted, failed = len(outcomes), sum(failures.values())

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "metadata": metadata(args.workload, args.seed, whys[args.workload]),
        "passes": len(recs),
        "pass_seconds": [rec.op_seconds for rec in recs],
        "attempted": attempted,
        "failed": failed,
        "failures": [{"op": k, "error": e, "count": n} for (k, e), n in sorted(failures.items())],
        "work_per_pass": dict(sorted(recs[0].work.items())),
        "work_repeats_across_passes": all(rec.work == recs[0].work for rec in recs),
        "digests": {k: h.hexdigest() for k, h in sorted(recs[0].digests.items())},
    }
    print(f"sglap benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(recs)} pass(es), {attempted} operations, {failed} failed")

    if args.trace:
        traced_recs = [rec for t, rec in passes if t]
        plain = [rec for t, rec in passes if not t]
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, traced_recs, plain, tracer)
        units = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        for name, value in values.items():
            print(f"layer  {name:42s} {value:14.6g} {units[name][0]:13s} {units[name][1]:6s} is better")
        result["per_layer"] = values
        result["rebound"] = rebound
        result["not_restored"] = leftover
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for name, s, e, parent, op_id in tracer.spans:
                fh.write(json.dumps([name, s - origin, e - origin, parent, op_id]) + "\n")
        metrics = {name: {"value": v, "unit": units[name][0]} for name, v in values.items()}
        if leftover:
            print(f"tracer left wrapped names behind: {leftover}")
    else:
        figs = figures(recs, (statistics.median(probes), len(probes)), attempted, failed, workloads.GRID**2)
        for name, unit, better in FIGURES:
            value, n = figs[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            note = "not run by this workload" if value is None else f"n={n}"
            print(f"metric {name:22s} {shown:>12s} {unit:6s} {better:6s} is better  ({note})")
        result["figures"] = {name: figs[name][0] for name, _, _ in FIGURES}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": figs[name][0], "unit": unit} for name, unit in units.items()}

    for (kind, error), n in sorted(failures.items())[:10]:
        print(f"failed {n}x {kind}: {error}")
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"result file: {stem.relative_to(ROOT)}.json")
    print(json.dumps({"correct": failed == 0 and not leftover, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
