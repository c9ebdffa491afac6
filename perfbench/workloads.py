"""The four workloads: inputs drawn from a seed, operations, output checks.

A workload is a fixed list of operations (one "pass") that the runner
repeats, one operation after another, until the run's time is used up.
Every pass runs the same inputs, so work counts per pass repeat exactly.
Each operation is a call into sglap (timed) followed by a check of its
output (not timed).  sglap functions are always reached through their
module attribute, so the tracer's wrappers see calls made from here too.

A check raises ``CheckFailed``.  Defects the project already documents
(ROADMAP 3a, 3b) are not failures: checks count them as verdicts in the
pass's work counts, and the runner reports their shares.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import random
import types
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from sglap import (
    butterfly,
    cli,
    crsf,
    decimation,
    determinants,
    enumerator,
    gasket,
    gauge,
    operator,
)
from sglap.gasket import dim_n
from sglap.gauge import FluxPair, circ_dist

DYADIC = [FluxPair(a, b) for a in (0.0, 0.5) for b in (0.0, 0.5)]
GENERIC_FLUXES = 2
VERIFY_KINDS = ("regular", "s3", "d-root", "psi-zero", "absent-check", "informational")
CASES = (
    "Regular", "PhiZero", "PsiZeroEscape", "DZeroVanishing",
    "DNotSingular", "DZeroMixed", "DDoubleZero", "Indeterminate",
)


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str  # label, e.g. "spectrum_l7"
    call: Callable[[], Any]  # timed
    check: Callable[[Any, "PassRecord"], None]  # untimed; raises CheckFailed
    sample: str | None = None  # end-to-end metric this op's duration feeds


@dataclass
class PassRecord:
    """What one pass produced: per-op outcomes, work counts, verdicts, digests."""

    ops: list[tuple[str, str | None, float, str | None]] = field(default_factory=list)
    work: Counter = field(default_factory=Counter)
    events: Counter = field(default_factory=Counter)
    digests: dict[str, Any] = field(default_factory=dict)
    wall: float = 0.0  # pass wall time including checks

    def digest(self, key: str, data: bytes) -> None:
        self.digests.setdefault(key, hashlib.sha256()).update(data)

    @property
    def op_seconds(self) -> float:
        return sum(dt for _, _, dt, _ in self.ops)


@dataclass
class Workload:
    build: Callable[[random.Random, Path], list[Op]]
    warmup: Callable[[], None]


def late(module, name: str, *args, **kwargs) -> Callable[[], Any]:
    """A call of module.name looked up when it runs, so a tracer's wrapper is seen."""
    return lambda: getattr(module, name)(*args, **kwargs)


def _generic_and_dyadic(rng: random.Random) -> list[FluxPair]:
    return [FluxPair(rng.random(), rng.random()) for _ in range(GENERIC_FLUXES)] + DYADIC


def _warm_linear_algebra() -> None:
    g = gasket.build_gasket(2)
    operator.spectrum(operator.assemble(g, gauge.build_connection(g, FluxPair(0.3, 0.1))))


def _spectrum_bytes(sp: operator.Spectrum) -> bytes:
    return json.dumps([(round(v, 9), m) for v, m in sp.pairs]).encode()


# ------------------------------------------------------------ dense-spectra

def _pipeline(level: int, flux: FluxPair, held: dict) -> operator.Spectrum:
    g = gasket.build_gasket(level)
    op = operator.assemble(g, gauge.build_connection(g, flux))
    sp = operator.spectrum(op)
    held["op"], held["spectrum"] = op, sp
    return sp


def _check_spectrum(level: int, flux: FluxPair, sp: operator.Spectrum, rec: PassRecord) -> None:
    rec.digest("spectra", _spectrum_bytes(sp))
    dim = dim_n(level)
    if sp.total_multiplicity != dim:
        raise CheckFailed(f"level {level} {flux}: total multiplicity {sp.total_multiplicity} != {dim}")
    lo, hi = sp.pairs[0][0], sp.pairs[-1][0]
    if lo < -1e-9 or hi > 2 + 1e-9:
        raise CheckFailed(f"level {level} {flux}: spectrum [{lo}, {hi}] leaves [0, 2]")
    trace = math.fsum(v * m for v, m in sp.pairs)
    if abs(trace - dim) > 1e-8 * dim:
        raise CheckFailed(f"level {level} {flux}: trace {trace} != {dim}")
    if flux.is_dyadic():
        # the closed-form match of sg spectrum --method both
        cf = enumerator.spectrum_closed_form(flux, level)
        same_count = len(cf.pairs) == len(sp.pairs)
        gap = max(abs(a - b) for (a, _), (b, _) in zip(cf.pairs, sp.pairs))
        same_mult = same_count and all(a == b for (_, a), (_, b) in zip(cf.pairs, sp.pairs))
        if not (same_count and same_mult and gap <= 1e-8):
            raise CheckFailed(
                f"level {level} {flux}: closed form differs (count equal {same_count}, "
                f"multiplicities equal {same_mult}, max gap {gap:.3g})"
            )


def _check_logdet(held: dict, result: tuple[float, int], rec: PassRecord) -> None:
    value, zeros = result
    sp = held["spectrum"]
    want_zeros = sum(m for v, m in sp.pairs if abs(v) < operator.ZERO_EIG_TOL)
    ref = math.fsum(m * math.log(v) for v, m in sp.pairs if abs(v) >= operator.ZERO_EIG_TOL)
    if not math.isfinite(value) or zeros != want_zeros:
        raise CheckFailed(f"log-det {value} with {zeros} zero modes, want {want_zeros}")
    if abs(value - ref) > 1e-9 * max(1.0, abs(ref)):
        raise CheckFailed(f"log-det {value} != sum of log eigenvalues {ref}")


def build_dense_spectra(rng: random.Random, tmp: Path) -> list[Op]:
    fluxes = _generic_and_dyadic(rng)
    top = fluxes[rng.randrange(len(fluxes))]
    logdet_fluxes = fluxes[:GENERIC_FLUXES] + [DYADIC[0]]  # (0,0) has a zero mode
    held: dict = {}
    ops = []
    for f in fluxes:
        for level, sample in ((5, None), (6, "spectrum_l6_s")):
            ops.append(Op(f"spectrum_l{level}", partial(_pipeline, level, f, held),
                          partial(_check_spectrum, level, f), sample))
        if f in logdet_fluxes:
            ops.append(Op("logdet_l6",
                          lambda: operator.log_determinant(held["op"], drop_zero=True),
                          partial(_check_logdet, held), "logdet_l6_s"))
    ops.append(Op("spectrum_l7", partial(_pipeline, 7, top, held),
                  partial(_check_spectrum, 7, top), "spectrum_l7_s"))
    return ops


# ------------------------------------------------------------- small-levels

def _check_verify(flux: FluxPair, level: int, report, rec: PassRecord) -> None:
    if report.level != level or report.flux != flux:
        raise CheckFailed(f"verify report is for {report.flux} level {report.level}")
    for e in report.entries:
        if e.kind not in VERIFY_KINDS or e.ok not in (True, False, None):
            raise CheckFailed(f"malformed verify entry {e}")
        rec.work[f"enumerator.verify.entries.{e.kind}"] += 1
        rec.work["enumerator.verify.red_entries"] += e.ok is False
    rec.work["verify.calls"] += 1
    rec.work["verify.red"] += not report.all_pass


def _off_exceptional(rng: random.Random, flux: FluxPair, margin: float = 1e-3) -> float:
    excl = decimation.exceptional_set(flux)
    while True:
        lam = rng.uniform(0.05, 1.95)
        if min(abs(lam - e) for e in excl) >= margin:
            return lam


def _schur_identity(level: int, flux: FluxPair, lam: float):
    g = gasket.build_gasket(level)
    conn = gauge.build_connection(g, flux)
    s = operator.schur_complement(operator.assemble(g, conn), lam)
    step = decimation.decimation_kit(flux, lam)
    red = gauge.restrict_connection(conn, step.theta)
    coarse = operator.assemble(red.graph, red).entries
    return s, coarse - step.R * np.eye(dim_n(level - 1)), step


def _check_schur(level: int, flux: FluxPair, lam: float, result, rec: PassRecord) -> None:
    """S(lambda) = phi (L' - R I), with phi = |Psi| / 4D, the convention R and theta use.

    decimation_kit reports phi = Re Psi / 4D at dyadic flux (ROADMAP 3a), which
    has the wrong sign where Re Psi < 0.  That documented defect is counted as
    a verdict, like a red verify report; any other disagreement fails the check.
    """
    s, shifted, step = result
    rec.work["schur.calls"] += 1
    phi = step.absPsi / (4 * step.D)
    resid = float(np.max(np.abs(s - phi * shifted)))
    # near a root of D, phi and the entries of S grow like 1/D; round-off grows with them
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(s)))):
        raise CheckFailed(f"Schur identity level {level} {flux} lambda {lam:.6g}: residual {resid:.3g}")
    if abs(step.phi - phi) > 1e-12 * abs(phi):
        if not (flux.is_dyadic() and step.Psi.real < 0):
            raise CheckFailed(f"decimation_kit phi {step.phi} != |Psi|/4D {phi} at {flux} lambda {lam:.6g}")
        rec.work["decimation.phi_sign_defects"] += 1


def _kit_sweep(flux: FluxPair, lams: list[float], depth: int) -> list[list]:
    """Iterate the one-step map from each lambda, as deep orbits do."""
    orbits = []
    for lam in lams:
        a, b, steps = flux.alpha, flux.beta, []
        for _ in range(depth):
            step = decimation.decimation_kit(FluxPair(a, b), lam)
            steps.append(step)
            if step.R is None:
                break
            a, b, lam = step.alpha_down, step.beta_down, step.R
        orbits.append(steps)
    return orbits


def _check_kit_sweep(orbits: list[list], rec: PassRecord) -> None:
    for steps in orbits:
        st = steps[0]
        if not all(math.isfinite(v) for v in (st.A, st.D, st.absPsi)):
            raise CheckFailed(f"non-finite first decimation step at lambda {st.lam}")
        # theta cancels in alpha' + beta', so the total flux quadruples
        drift = circ_dist(st.alpha_down + st.beta_down, 4 * (st.flux.alpha + st.flux.beta))
        if drift > 1e-9:
            raise CheckFailed(f"evolved flux at lambda {st.lam} breaks alpha'+beta' = 4(alpha+beta)")


def _classify_sweep(flux: FluxPair, lams: list[float]) -> list:
    return [decimation.classify(flux, lam) for lam in lams]


def _check_classify(flux: FluxPair, regular: list[float], tags: list, rec: PassRecord) -> None:
    for tag in tags:
        if tag.case not in CASES:
            raise CheckFailed(f"unknown classification {tag.case}")
    for lam, tag in zip(regular, tags[-len(regular):]):
        if tag.case != "Regular":
            raise CheckFailed(f"{flux} lambda {lam}: {tag.case} away from the exceptional set")


def _closed_form_spectra() -> list:
    return [enumerator.spectrum_closed_form(f, n) for f in DYADIC for n in range(1, 8)]


def _check_closed_form_spectra(spectra: list, rec: PassRecord) -> None:
    for k, sp in enumerate(spectra):
        n = 1 + k % 7
        vals = [v for v, _ in sp.pairs]
        if sp.total_multiplicity != dim_n(n) or vals != sorted(vals) or not 0 <= vals[0] <= vals[-1] <= 2:
            raise CheckFailed(f"closed-form spectrum {k} at level {n} malformed")
        rec.digest("spectra", _spectrum_bytes(sp))


DET_FLUX = {"half-half": FluxPair(0.5, 0.5), "half-zero": FluxPair(0.5, 0.0), "zero-half": FluxPair(0.0, 0.5)}
DET_LEVELS = range(3, 8)


def _closed_form_dets() -> list:
    return [determinants.det_closed_form(c, n) for c in DET_FLUX for n in DET_LEVELS]


def _check_dets(values: list, rec: PassRecord) -> None:
    pairs = [(c, n) for c in DET_FLUX for n in DET_LEVELS]
    for (case, n), lv in zip(pairs, values):
        sp = enumerator.spectrum_closed_form(DET_FLUX[case], n)
        ref = math.fsum(m * math.log(v) for v, m in sp.pairs)
        if abs(lv.log_magnitude - ref) > 1e-9 * max(1.0, abs(ref)):
            raise CheckFailed(f"det {case} level {n}: {lv.log_magnitude} != spectral {ref}")


def _check_complexity(values: list, rec: PassRecord) -> None:
    for case, v in zip(determinants.COMPLEXITY_CASES, values):
        # truncations are certified lower bounds, nondecreasing in the term count
        if not math.isfinite(v) or v < determinants.complexity(case, 20):
            raise CheckFailed(f"complexity {case}: {v}")


def _cli_script(rng: random.Random, tmp: Path) -> list[tuple[list[str], str | None]]:
    a, b = repr(rng.random()), repr(rng.random())
    ca, cb = repr(rng.uniform(0.1, 0.25)), repr(-rng.uniform(0.1, 0.25))
    lam = repr(rng.uniform(0.05, 1.95))
    out = lambda name: str(tmp / name)
    return [
        (["spectrum", "--alpha", "1/2", "--beta", "0", "--level", "3", "--out", out("spectrum.json")], "spectrum.json"),
        (["verify", "--alpha", a, "--beta", b, "--level", "3", "--out", out("verify.json")], "verify.json"),
        (["kit", "--alpha", a, "--beta", b, "--lambda", lam], None),
        (["butterfly", "--grid", "41", "--iters", "12", "--out", out("butterfly.pgm")], "butterfly.pgm"),
        (["det", "--case", "half-half", "--level", "5", "--out", out("det.json")], "det.json"),
        (["det", "--case", "trees", "--level", "4", "--out", out("trees.json")], "trees.json"),
        (["complexity", "--case", "half-zero", "--out", out("complexity.json")], "complexity.json"),
        (["crsf", "partition", "--level", "1", "--alpha", ca, "--beta", cb, "--out", out("partition.json")], "partition.json"),
        (["crsf", "sample", "--level", "3", "--alpha", ca, "--beta", cb, "--samples", "3",
          "--seed", str(rng.randrange(1000)), "--out", out("samples.jsonl")], "samples.jsonl"),
        (["graph-export", "--level", "3", "--alpha", a, "--beta", b, "--what", "matrix",
          "--out", out("matrix.csv")], "matrix.csv"),
    ]


def _run_cli(script) -> tuple[list[int], str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(argv) for argv, _ in script]
    return codes, stdout.getvalue()


def _check_cli(script, tmp: Path, result, rec: PassRecord) -> None:
    codes, stdout = result
    for (argv, name), code in zip(script, codes):
        want = 0
        if argv[0] == "verify":
            flux = FluxPair(float(argv[2]), float(argv[4]))
            want = 0 if enumerator.decimation_verify(flux, int(argv[6])).all_pass else 1
        if code != want:
            raise CheckFailed(f"sg {' '.join(argv)} exited {code}, want {want}")
        if name is None:
            continue
        data = (tmp / name).read_bytes()
        manifest = json.loads((tmp / (name + ".manifest.json")).read_text())
        if manifest["outputs"] != [str(tmp / name)]:
            raise CheckFailed(f"manifest of {name} lists {manifest['outputs']}")
        if name.endswith(".json"):
            payload = json.loads(data)
            if argv[0] == "spectrum" and not payload["match"]["ok"]:
                raise CheckFailed(f"sg spectrum: closed form and dense differ: {payload['match']}")
        elif name.endswith(".pgm") and not data.startswith(b"P5\n41 41\n255\n"):
            raise CheckFailed("sg butterfly wrote a malformed PGM")
        elif name.endswith(".jsonl") and len([json.loads(x) for x in data.splitlines()]) != 3:
            raise CheckFailed("sg crsf sample wrote the wrong number of samples")
    kit, _ = json.JSONDecoder().raw_decode(stdout, stdout.index("{"))
    if not math.isfinite(kit["A"]):
        raise CheckFailed("sg kit printed a non-finite A")


def build_small_levels(rng: random.Random, tmp: Path) -> list[Op]:
    fluxes = _generic_and_dyadic(rng)
    ops = []
    for level in (3, 4, 5):
        for k, f in enumerate(fluxes):
            sample = "verify_l5_s" if level == 5 and k < GENERIC_FLUXES else None
            ops.append(Op(f"verify_l{level}", late(enumerator, "decimation_verify", f, level),
                          partial(_check_verify, f, level), sample))
    for f in fluxes:
        for level in (2, 3, 4, 5):
            lam = _off_exceptional(rng, f)
            ops.append(Op(f"schur_l{level}", partial(_schur_identity, level, f, lam),
                          partial(_check_schur, level, f, lam)))
    jitter = rng.random()
    lams = [2 * (k + jitter) / 48 for k in range(48)]
    for f in fluxes:
        ops.append(Op("kit_sweep", partial(_kit_sweep, f, lams, 16), _check_kit_sweep))
        regular = [_off_exceptional(rng, f) for _ in range(8)]
        points = decimation.exceptional_set(f) + regular
        ops.append(Op("classify_sweep", partial(_classify_sweep, f, points),
                      partial(_check_classify, f, regular)))
    ops.append(Op("closed_form_spectra", _closed_form_spectra, _check_closed_form_spectra))
    ops.append(Op("det_closed_form", _closed_form_dets, _check_dets))
    ops.append(Op("complexity",
                  lambda: [determinants.complexity(c, 40) for c in determinants.COMPLEXITY_CASES],
                  _check_complexity))
    script = _cli_script(rng, tmp)
    ops.append(Op("cli_script", partial(_run_cli, script), partial(_check_cli, script, tmp), "cli_s"))
    return ops


# ---------------------------------------------------------------- butterfly

GRID, ITERS = 301, 20
# U at fixed beta: BETAS betas, one in each quarter of [0, 1) at a seeded
# offset, on a grid of about GRID**2 / BETAS cells each.  Render time depends
# on beta by up to 40%; the stratified draw keeps the pass's total
# nearly the same from seed to seed.
BETAS, BETA_GRID = 4, 151
REFERENCE_CELLS = 48


def load_reference(root: Path):
    """tests/_reference.py's reference_cell, plus a flag for den == 0 hits.

    The module runs unchanged; only its ``math`` is swapped for a namespace
    whose sqrt notes a zero argument, which is exactly when the reference
    divides by den == 0 (a case the package handles by design otherwise).
    """
    spec = importlib.util.spec_from_file_location("sglap_reference", root / "tests" / "_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hits = []

    def sqrt(x):
        if x == 0.0:
            hits.append(x)
        return math.sqrt(x)

    module.math = types.SimpleNamespace(**{**vars(math), "sqrt": sqrt})

    def cell(*args):
        hits.clear()
        return module.reference_cell(*args), bool(hits)

    return cell


def _orbit_steps(raster) -> int:
    esc = raster.escape_iter
    return int(np.where(esc >= 0, esc, raster.config.max_iters - 1).sum())


def _check_render(name: str, threads: int, held: dict, cells, reference, raster, rec: PassRecord) -> None:
    rec.work["butterfly.orbit_steps"] += _orbit_steps(raster)
    rec.work["butterfly.retained"] += raster.retained_count
    rec.work["butterfly.cells"] += raster.retained.size
    if threads == 1:
        held[name] = raster
    else:
        first = held[name]
        if not (np.array_equal(first.retained, raster.retained)
                and np.array_equal(first.escape_iter, raster.escape_iter)):
            raise CheckFailed(f"{name}: threads={threads} raster differs from threads=1")
        return
    if raster.config.map != "U":
        return
    cfg = raster.config
    alphas, lambdas = cfg.alphas, cfg.lambdas
    for i, j in cells:
        a = float(alphas[i])
        b = a if cfg.beta_mode == "diagonal" else float(cfg.beta_mode)
        (ret, it), zero_hit = reference(a, b, float(lambdas[j]), cfg.threshold, cfg.max_iters)
        if not zero_hit and (ret != bool(raster.retained[i, j]) or it != int(raster.escape_iter[i, j])):
            raise CheckFailed(f"{name}: cell alpha={a!r} lambda={float(lambdas[j])!r} differs from the reference")


def _check_pgm(name: str, held: dict, path: Path, _result, rec: PassRecord) -> None:
    data = path.read_bytes()
    rec.digest("raster", data)
    retained = held[name].retained
    ga, gl = retained.shape
    header = f"P5\n{ga} {gl}\n255\n".encode()
    # black = retained; rows scan lambda from the top (lambda_max) down
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(gl, ga)
    if not data.startswith(header) or not np.array_equal(pixels[::-1].T == 0, retained):
        raise CheckFailed(f"{name}: PGM does not encode the raster")


def build_butterfly(rng: random.Random, tmp: Path, root: Path) -> list[Op]:
    offset = rng.random()
    configs = {
        "U-diagonal": butterfly.RasterConfig(GRID, GRID, max_iters=ITERS),
        **{f"U-beta{k}": butterfly.RasterConfig(BETA_GRID, BETA_GRID, max_iters=ITERS,
                                                beta_mode=(k + offset) / BETAS)
           for k in range(BETAS)},
        "U2-diagonal": butterfly.RasterConfig(GRID, GRID, max_iters=ITERS, map="U2"),
    }
    reference = load_reference(root)
    held: dict = {}
    ops = []
    for name, cfg in configs.items():
        cells = [(rng.randrange(cfg.grid_alpha), rng.randrange(cfg.grid_lambda))
                 for _ in range(REFERENCE_CELLS)]
        for threads in (1, 2):
            sample = None
            if name == "U-diagonal":
                sample = "raster_cells_per_s" if threads == 1 else "raster_cells_per_s_t2"
            ops.append(Op(f"render_{name}_t{threads}", late(butterfly, "render", cfg, threads=threads),
                          partial(_check_render, name, threads, held, cells, reference), sample))
    for name in configs:
        path = tmp / f"{name}.pgm"
        ops.append(Op("write_raster", lambda name=name, path=path: butterfly.write_raster(held[name], "pgm", str(path)),
                      partial(_check_pgm, name, held, path)))
    return ops


def _warm_butterfly() -> None:
    butterfly.render(butterfly.RasterConfig(11, 11, max_iters=4), threads=2)


# --------------------------------------------------------------------- crsf

CRSF_FLUXES = 4
CRSF_SAMPLES = {4: 8, 5: 4, 6: 4}
BOUNDARY_CONDUCTANCE = 0.5


def _window_flux(rng: random.Random) -> FluxPair:
    """A flux pair inside the sampler's window: |alpha|, |beta| in [0.1, 0.25]."""
    sign = lambda: rng.choice((-1.0, 1.0))
    return FluxPair(sign() * rng.uniform(0.1, 0.25), sign() * rng.uniform(0.1, 0.25))


def _check_sample(graph, ocrsf, rec: PassRecord) -> None:
    try:
        ocrsf.validate(graph)
    except ValueError as exc:
        raise CheckFailed(f"CRSF sample on level {graph.level}: {exc}") from exc
    rec.work["crsf.samples"] += 1
    rec.work["crsf.cycles"] += len(ocrsf.cycles)
    rec.digest("crsf", json.dumps(ocrsf.successor).encode())


def _check_partition(graph, conn, z: complex, rec: PassRecord) -> None:
    det = complex(np.linalg.det(operator.assemble(graph, conn).entries))
    if abs(z - det) > 1e-9 * abs(det):
        raise CheckFailed(f"level-1 partition sum {z} != det {det}")


def _check_noloop(value: float, rec: PassRecord) -> None:
    if not math.isfinite(value) or value > 1e-9:
        raise CheckFailed(f"no-loop log probability {value} is not a finite value <= 0")


def build_crsf(rng: random.Random, tmp: Path) -> list[Op]:
    graphs = {n: gasket.build_gasket(n) for n in (1, 4, 5, 6)}
    ops = []
    for _ in range(CRSF_FLUXES):
        f = _window_flux(rng)
        conns = {n: gauge.build_connection(g, f) for n, g in graphs.items()}
        for level, count in CRSF_SAMPLES.items():
            g, c = graphs[level], conns[level]
            for _ in range(count):
                ops.append(Op(f"sample_l{level}", late(crsf, "sample_crsf", g, c, rng.randrange(2**32)),
                              partial(_check_sample, g), "crsf_sample_l6_s" if level == 6 else None))
        ops.append(Op("partition_l1", late(crsf, "brute_force_partition", graphs[1], conns[1]),
                      partial(_check_partition, graphs[1], conns[1])))
        ops.append(Op("noloop_l5", late(crsf, "noloop_log_probability", graphs[5], conns[5], BOUNDARY_CONDUCTANCE),
                      _check_noloop))
    return ops


def _warm_crsf() -> None:
    g = gasket.build_gasket(1)
    crsf.sample_crsf(g, gauge.build_connection(g, FluxPair(0.2, 0.1)), 0)


def workloads(root: Path) -> dict[str, Workload]:
    return {
        "dense-spectra": Workload(build_dense_spectra, _warm_linear_algebra),
        "small-levels": Workload(build_small_levels, _warm_linear_algebra),
        "butterfly": Workload(partial(build_butterfly, root=root), _warm_butterfly),
        "crsf": Workload(build_crsf, _warm_crsf),
    }
