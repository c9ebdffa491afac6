"""Command-line front end (installed as ``sg``).

Subcommands are thin wrappers over the library; every run that writes an
output file also writes ``<out>.manifest.json`` next to it recording the
subcommand, the resolved flag set, the library version, wall time, and the
output paths.  Two runs with identical inputs produce identical data files
and identical manifests up to the wall-time field.

Exit codes: 0 on success, 1 when ``sg verify`` finds a failed assertion,
2 on usage errors (bad flags, non-dyadic flux fed to the closed form,
levels above the SG_MAX_LEVEL guard, oversized brute-force requests).

Flux-valued flags accept plain decimals and exact fractions ("0.3", "1/2",
"-1/4"); fractions go through Fraction so dyadic inputs stay exact in
binary floating point.
"""

from __future__ import annotations

import json
import math
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import click

from . import __version__
from . import butterfly as bf
from . import crsf as crsf_lib
from . import decimation, determinants, enumerator, gasket, gauge, operator
from .gauge import FluxPair


class RationalParam(click.ParamType):
    """Float-valued option that also accepts exact fractions like 1/2."""

    name = "number"

    def convert(self, value, param, ctx):
        if isinstance(value, (int, float)):
            return float(value)
        try:
            return float(Fraction(str(value)))
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a number or a fraction p/q", param, ctx)
        except OverflowError:
            self.fail(f"{value!r} is too large for a float", param, ctx)


class BetaModeParam(RationalParam):
    """'diag' (beta follows alpha) or a fixed flux value."""

    name = "beta"

    def convert(self, value, param, ctx):
        if isinstance(value, str) and value.lower() in ("diag", "diagonal"):
            return "diagonal"
        return super().convert(value, param, ctx)


RATIONAL = RationalParam()
BETA_MODE = BetaModeParam()


def _call(fn, *args, **kwargs):
    """Map library ValueErrors (level guard, dyadic guard, size caps) to usage errors."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _manifest(outputs: list[str], t0: float) -> None:
    ctx = click.get_current_context()
    sub = ctx.command_path.split(" ", 1)
    flags = {}
    for key, val in sorted(ctx.params.items()):
        # params shadowing builtins carry a trailing underscore; record the flag name
        key = key.rstrip("_")
        if val is None or isinstance(val, (bool, int, float, str)):
            flags[key] = val
        else:
            flags[key] = str(val)
    doc = {
        "subcommand": sub[1] if len(sub) > 1 else sub[0],
        "flags": flags,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "outputs": outputs,
    }
    path = outputs[0] + ".manifest.json"
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write(text: str, out: str | None, t0: float) -> None:
    """Text to stdout, or to --out plus a manifest."""
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
        _manifest([out], t0)


def _emit(payload, out: str | None, t0: float) -> None:
    """Strict JSON (no NaN or Infinity) to stdout, or to --out plus a manifest."""
    _write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out, t0)


@click.group()
@click.version_option(__version__, prog_name="sg")
def sg() -> None:
    """Spectra of the magnetic Laplacian on Sierpinski gasket graphs."""


# ---------------------------------------------------------------- spectrum

def _match_report(cf: operator.Spectrum, dn: operator.Spectrum, tol: float = 1e-8) -> dict:
    count_equal = len(cf.pairs) == len(dn.pairs)
    gaps = [abs(a - b) for (a, _), (b, _) in zip(cf.pairs, dn.pairs)]
    mult_equal = count_equal and all(
        ma == mb for (_, ma), (_, mb) in zip(cf.pairs, dn.pairs)
    )
    max_gap = max(gaps) if gaps else 0.0
    return {
        "eigenvalue_count_equal": count_equal,
        "max_eigenvalue_gap": max_gap,
        "multiplicities_equal": mult_equal,
        "tolerance": tol,
        "ok": count_equal and mult_equal and max_gap <= tol,
    }


@sg.command()
@click.option("--alpha", type=RATIONAL, required=True, help="flux per upright cell")
@click.option("--beta", type=RATIONAL, required=True, help="flux per smallest hole")
@click.option("--level", type=click.IntRange(0), required=True)
@click.option(
    "--method",
    type=click.Choice(["closed-form", "dense", "both"]),
    default="both",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def spectrum(alpha, beta, level, method, out):
    """Eigenvalues with multiplicities, by decimation closed form and/or the operator.

    The operator path ("dense") solves densely below level 5, and from level
    5 on at Case I and Case IV fluxes by bisecting the gluing count of
    corner blocks.
    """
    t0 = time.perf_counter()
    flux = FluxPair(alpha, beta)
    payload = {"alpha": flux.alpha, "beta": flux.beta, "level": level, "method": method}
    sp_cf = sp_dn = None
    if method in ("closed-form", "both"):
        sp_cf = _call(enumerator.spectrum_closed_form, flux, level)
        payload["closed_form"] = json.loads(sp_cf.to_json())
    if method in ("dense", "both"):
        graph = _call(gasket.build_gasket, level)
        op = operator.assemble(graph, gauge.build_connection(graph, flux))
        sp_dn = _call(operator.spectrum, op)
        payload["dense"] = json.loads(sp_dn.to_json())
    if method == "both":
        payload["match"] = _match_report(sp_cf, sp_dn)
    _emit(payload, out, t0)


@sg.command()
@click.option("--alpha", type=RATIONAL, required=True)
@click.option("--beta", type=RATIONAL, required=True)
@click.option("--level", type=click.IntRange(1), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify(alpha, beta, level, out):
    """Check the level-N spectrum cluster by cluster against the eigenvalue counts one
    decimation step predicts from level N-1; exit 1 on failure.  Clusters within
    1e-7 of a D root or a real Psi zero are labelled d-root or psi-zero."""
    t0 = time.perf_counter()
    report = _call(enumerator.decimation_verify, FluxPair(alpha, beta), level)
    _emit(json.loads(report.to_json()), out, t0)
    return 0 if report.all_pass else 1


# --------------------------------------------------------------------- kit

@sg.command()
@click.option("--alpha", type=RATIONAL, required=True)
@click.option("--beta", type=RATIONAL, required=True)
@click.option("--lambda", "lam", type=RATIONAL, required=True)
def kit(alpha, beta, lam):
    """One decimation step at (alpha, beta, lambda): A, D, Psi, theta, R, evolved flux."""
    flux = FluxPair(alpha, beta)
    step = decimation.decimation_kit(flux, lam)
    tag = decimation.classify(flux, lam)
    # an escaped lambda overflows A, D and Psi to inf or NaN: JSON has null for them
    num = lambda x: x if x is not None and math.isfinite(x) else None
    payload = {
        "alpha": flux.alpha,
        "beta": flux.beta,
        "lambda": lam,
        "A": num(step.A),
        "D": num(step.D),
        "Psi": {"re": num(step.Psi.real), "im": num(step.Psi.imag)},
        "absPsi": num(step.absPsi),
        "theta": num(step.theta),
        "R": num(step.R),
        "phi": num(step.phi),
        "alpha_down": num(step.alpha_down),
        "beta_down": num(step.beta_down),
        "classification": {"case": tag.case, "root_mult": tag.root_mult},
    }
    _emit(payload, None, time.perf_counter())


# --------------------------------------------------------------- butterfly

@sg.command()
@click.option("--map", "map_", type=click.Choice(["U", "U2"]), default="U", show_default=True)
@click.option("--grid", type=click.IntRange(2), default=301, show_default=True)
@click.option("--lmin", type=RATIONAL, default=0.0, show_default=True)
@click.option("--lmax", type=RATIONAL, default=2.0, show_default=True)
@click.option("--iters", type=click.IntRange(1), default=20, show_default=True)
@click.option("--threshold", type=RATIONAL, default=10.0, show_default=True)
@click.option(
    "--beta",
    type=BETA_MODE,
    default="diag",
    show_default=True,
    help="'diag' ties beta to alpha; a number fixes it",
)
@click.option("--threads", type=click.IntRange(1), default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="raster file, .pgm or .csv")
def butterfly(map_, grid, lmin, lmax, iters, threshold, beta, threads, out):
    """Render the flux-energy butterfly (filled non-escaping set of the orbit map)."""
    t0 = time.perf_counter()
    suffix = Path(out).suffix.lower().lstrip(".")
    if suffix not in ("pgm", "csv"):
        raise click.UsageError(f"--out must end in .pgm or .csv, got {out!r}")
    cfg = bf.RasterConfig(
        grid_alpha=grid,
        grid_lambda=grid,
        lambda_min=lmin,
        lambda_max=lmax,
        threshold=threshold,
        max_iters=iters,
        map=map_,
        beta_mode=beta,
    )
    raster = _call(bf.render, cfg, threads=threads)
    bf.write_raster(raster, suffix, out)
    _manifest([out], t0)
    click.echo(
        json.dumps(
            {"out": out, "retained": int(raster.retained.sum()), "grid": grid},
            sort_keys=True,
        )
    )


# ------------------------------------------------------ det and complexity

@sg.command()
@click.option(
    "--case",
    type=click.Choice(list(determinants.DET_CASES) + ["trees"]),
    required=True,
)
@click.option("--level", type=click.IntRange(0), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def det(case, level, out):
    """Closed-form reduced determinants (or spanning-tree counts with --case trees).
    For the three flux cases level 0 is refused."""
    t0 = time.perf_counter()
    if case == "trees":
        value = _call(determinants.tree_count_closed_form, level)
        count = 1
        for base, exp in value.exact_factors:
            count *= int(base) ** int(exp)
        # Decimal, not str(): from level 8 the count passes the interpreter's
        # int-to-str digit limit, which is process-wide and not ours to raise
        payload = {"case": case, "level": level, "tree_count": str(Decimal(count)), **value.to_json()}
    else:
        value = _call(determinants.det_closed_form, case, level)
        payload = {"case": case, "level": level, **value.to_json()}
    _emit(payload, out, t0)


@sg.command()
@click.option(
    "--case",
    type=click.Choice(list(determinants.COMPLEXITY_CASES)),
    required=True,
)
@click.option("--terms", type=click.IntRange(0), default=40, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def complexity(case, terms, out):
    """Asymptotic log-complexity per site; the series truncation is a lower bound."""
    t0 = time.perf_counter()
    value = _call(determinants.complexity, case, terms)
    payload = {
        "case": case,
        "terms": terms,
        "log_complexity_per_site": value,
        "lower_bound": True,
        "loop_entropy": (
            _call(determinants.loop_entropy, case) if case != "zero-zero" else 0.0
        ),
    }
    _emit(payload, out, t0)


# -------------------------------------------------------------------- crsf

@sg.group()
def crsf() -> None:
    """Cycle-rooted spanning forests under the flux connection."""


@crsf.command()
@click.option("--level", type=click.IntRange(0), required=True)
@click.option("--alpha", type=RATIONAL, required=True)
@click.option("--beta", type=RATIONAL, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def partition(level, alpha, beta, out):
    """Brute-force the oriented-forest partition sum (small levels only)."""
    t0 = time.perf_counter()
    graph = _call(gasket.build_gasket, level)
    flux = FluxPair(alpha, beta)
    z = _call(crsf_lib.brute_force_partition, graph, gauge.build_connection(graph, flux))
    payload = {
        "level": level,
        "alpha": flux.alpha,
        "beta": flux.beta,
        "dimension": len(graph.coords),
        "partition_re": z.real,
        "partition_im": z.imag,
    }
    _emit(payload, out, t0)


@crsf.command()
@click.option("--level", type=click.IntRange(0), required=True)
@click.option("--alpha", type=RATIONAL, required=True)
@click.option("--beta", type=RATIONAL, required=True)
@click.option("--samples", type=click.IntRange(1), default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="JSONL file, one successor array per line")
def sample(level, alpha, beta, samples, seed, out):
    """Sample oriented forests by loop-accepted random walk (seed i uses seed+i)."""
    t0 = time.perf_counter()
    graph = _call(gasket.build_gasket, level)
    conn = gauge.build_connection(graph, FluxPair(alpha, beta))
    lines = []
    for i in range(samples):
        ocrsf = _call(crsf_lib.sample_crsf, graph, conn, seed + i)
        lines.append(json.dumps(list(ocrsf.successor)))
    _write("\n".join(lines) + "\n", out, t0)


# ------------------------------------------------------------ graph-export

@sg.command("graph-export")
@click.option("--level", type=click.IntRange(0), required=True)
@click.option("--alpha", type=RATIONAL, default=0.0, show_default=True)
@click.option("--beta", type=RATIONAL, default=0.0, show_default=True)
@click.option(
    "--what",
    type=click.Choice(["graph", "connection", "matrix"]),
    default="graph",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def graph_export(level, alpha, beta, what, out):
    """Dump the gasket graph (JSON), edge-phase map (JSON), or operator (CSV)."""
    t0 = time.perf_counter()
    graph = _call(gasket.build_gasket, level)
    if what == "graph":
        _emit(json.loads(graph.to_json()), out, t0)
        return
    conn = gauge.build_connection(graph, FluxPair(alpha, beta))
    if what == "connection":
        _emit(json.loads(conn.to_json()), out, t0)
        return
    _write(operator.matrix_csv(operator.assemble(graph, conn)), out, t0)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns 0 / 1 (verification failure) / 2 (usage error)."""
    try:
        rv = sg.main(args=argv, prog_name="sg", standalone_mode=False)
    except click.exceptions.Exit as exc:  # --help, --version
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
