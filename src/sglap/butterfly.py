"""Escape-time rasters of the flux-decimation maps (the gasket butterfly).

A grid point (alpha, lambda) is iterated under the three-parameter map
(alpha, beta, lambda) -> (alpha_down, beta_down, R) starting from beta = alpha
(or a fixed beta), and retained when the lambda-orbit stays below the escape
threshold for the full iteration budget.  The retained set over the diagonal
slice is the butterfly picture; the "U2" variant instead quadruples alpha and
ignores the angle correction.

One engine iterates the live cells of a block of columns through the two
halves of U's step: `decimation.u_factors`, the trig of the fluxes and its
products, which do not involve lambda, and `decimation.u_lambda`, which
finishes A, D, Psi and R at each cell's lambda.  Where the cells of a column
share their fluxes, at every U2 step (alpha steps as frac(4 alpha) per column,
beta follows it or stays fixed) and at U's first step, the factors are taken
once per column and gathered by each live cell's column; U's later steps take
them per cell.  The last step computes lambda alone, because the loop ends
before it reads the evolved fluxes.  The rasters equal the published loop
(tests/_reference.py) bit for bit.  Bit-identity is deliberate and fragile:
the step writes powers as explicit multiply chains (libm pow and numpy's
integer-power path round differently) and takes atan2 as the imaginary part
of the complex log, which glibc computes with libm's atan2, because numpy's
vectorized arctan2 is off by an ulp often enough to flip near-threshold cells
after twenty amplifying iterations.  Keep it that way; tests/test_decimation.py
checks the log against math.atan2 bit for bit.  The tests check every cell
against the published loop, extended by the exact-zero policy below and the U2
update, and pin full-size rasters by digest.

An exact |Psi| = 0 during iteration divides by zero in the raw update.  At
exactly-representable half-integer fluxes the singularity is removable and the
orbit continues through the exact quadratic route (apply_U); anywhere else the
orbit is terminated and the cell marked retained, with the event logged.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .decimation import OrbitTerminated, UStep, apply_U, frac, u_factors, u_lambda

log = logging.getLogger(__name__)

# cells per row block of `render`: bounds the working arrays of one step (the
# gathered factors, the temporaries of `u_lambda` and the complex array of its
# atan2), so that a block's step stays near a 2 MiB L2.  On a 2-vCPU host, the
# benchmark's six rasters at threads 1 and 2 peak at 38.9 MiB with 16384 and
# 42.2 MiB with 32768; alternating the two in one process, they take 567 and
# 603 ms at threads=1, 445 and 417 ms at threads=2 (medians of 12).
BLOCK_CELLS = 16384


@dataclass(frozen=True)
class RasterConfig:
    grid_alpha: int = 301
    grid_lambda: int = 301
    lambda_min: float = 0.0
    lambda_max: float = 2.0
    threshold: float = 10.0
    max_iters: int = 20
    map: str = "U"
    beta_mode: str | float = "diagonal"

    def __post_init__(self):
        if self.grid_alpha < 2 or self.grid_lambda < 2:
            raise ValueError("grid must be at least 2x2")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.map not in ("U", "U2"):
            raise ValueError(f"unknown map {self.map!r} (use U or U2)")
        if self.beta_mode != "diagonal" and not isinstance(self.beta_mode, (int, float)):
            raise ValueError("beta_mode is 'diagonal' or a number")

    @property
    def alphas(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_alpha)

    @property
    def lambdas(self) -> np.ndarray:
        return np.linspace(self.lambda_min, self.lambda_max, self.grid_lambda)


@dataclass(frozen=True)
class Raster:
    config: RasterConfig
    retained: np.ndarray  # bool, shape (grid_alpha, grid_lambda)
    escape_iter: np.ndarray  # int32, -1 where retained

    @property
    def retained_count(self) -> int:
        return int(self.retained.sum())


def _continue_exact_zero(al: float, be: float, lmd: float) -> tuple[float, float, float] | None:
    """Orbit continuation through an exact |Psi| = 0 hit; None = terminate."""
    try:
        return apply_U(al, be, lmd)
    except OrbitTerminated:
        log.info("orbit terminated at exact Psi zero: alpha=%r beta=%r lambda=%r", al, be, lmd)
        return None


def _next_cells(a, b, lmd, col, u2: bool, diagonal: bool, last: bool):
    """One orbit step of the live cells: (alpha', beta', lambda', exact Psi zero).

    The fluxes a, b are per column where col gives each live cell's column,
    else per cell; U's lambda-free factors are taken on them and gathered by
    col.  alpha' and beta' are per column for U2 and per cell for U, and None
    after the last step, since nothing reads them."""
    fac = u_factors(a, b)
    if col is not None:
        fac = [f.take(col) for f in fac]
    A, D, re, im, R = u_lambda(fac, lmd)
    zero = (re == 0.0) & (im == 0.0)
    if last:
        return None, None, R, zero
    if u2:
        a_new = frac(4 * a)
        return a_new, a_new if diagonal else b, R, zero
    if col is not None:
        a, b = a.take(col), b.take(col)
    a_new, b_new, _ = UStep(a, b, A, D, re, im, R).evolved()
    return a_new, b_new, R, zero


def _render_block(cfg: RasterConfig, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ga, gl = alphas.shape[0], cfg.grid_lambda
    n = ga * gl
    th, num_iter = cfg.threshold, cfg.max_iters
    u2, diagonal = cfg.map == "U2", cfg.beta_mode == "diagonal"
    # the fluxes start per column; U2 keeps them so, U's first step makes them
    # per cell (cell_flux)
    al = alphas
    be = alphas if diagonal else np.full(ga, float(cfg.beta_mode))
    lmd = np.tile(cfg.lambdas, ga)
    cell_flux = False

    # the live cells, compacted: escaped cells and orbits terminated at an exact
    # Psi zero (retained) leave idx, lmd and per-cell fluxes as they go
    idx = np.arange(n)
    esc = np.full(n, -1, dtype=np.int32)
    with np.errstate(all="ignore"):
        for k in range(num_iter):
            inside = np.abs(lmd) < th
            if not inside.all():
                esc[idx[~inside]] = k
                idx, lmd = idx[inside], lmd[inside]
                if cell_flux:
                    al, be = al[inside], be[inside]
            if k == num_iter - 1 or idx.size == 0:
                break
            last = k == num_iter - 2
            col = None if cell_flux else idx // gl
            al_new, be_new, lmd_new, zero = _next_cells(al, be, lmd, col, u2, diagonal, last)
            cell_flux = not (u2 or last)
            if zero.any():
                live = np.ones(idx.size, dtype=bool)
                for pos in np.flatnonzero(zero):
                    c = col[pos] if col is not None else pos
                    nxt = _continue_exact_zero(float(al[c]), float(be[c]), float(lmd[pos]))
                    if nxt is None:
                        live[pos] = False
                        continue
                    lmd_new[pos] = nxt[2]
                    if cell_flux:
                        al_new[pos], be_new[pos] = nxt[:2]
                idx, lmd_new = idx[live], lmd_new[live]
                if cell_flux:
                    al_new, be_new = al_new[live], be_new[live]
            al, be, lmd = al_new, be_new, lmd_new

    retained = esc < 0
    return retained.reshape(ga, gl), esc.reshape(ga, gl)


def render(config: RasterConfig, threads: int = 1) -> Raster:
    """Rasterize the filled-orbit set in row blocks of at most BLOCK_CELLS cells,
    serially or over a pool of `threads`; the block count is a multiple of the
    thread count.  A block's work follows its share of cells that stay live,
    so blocks of equal size need not finish together.  Cells are independent,
    so every thread count gives the same bits."""
    workers = max(threads, 1)
    rounds = -(-config.grid_alpha * config.grid_lambda // (BLOCK_CELLS * workers))
    blocks = np.array_split(config.alphas, min(rounds * workers, config.grid_alpha))
    block = partial(_render_block, config)
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        parts = list((pool.map if pool else map)(block, blocks))
    ret = np.concatenate([p[0] for p in parts], axis=0)
    esc = np.concatenate([p[1] for p in parts], axis=0)
    return Raster(config, ret, esc)


def write_raster(raster: Raster, format: str, path: str) -> None:
    """PGM (binary P5, black = retained, top row = lambda_max) or CSV export."""
    fmt = format.lower()
    try:
        if fmt == "pgm":
            ga, gl = raster.retained.shape
            # image rows scan lambda from max down to min; columns scan alpha
            img = np.where(raster.retained.T[::-1], 0, 255).astype(np.uint8)
            with open(path, "wb") as fh:
                fh.write(f"P5\n{ga} {gl}\n255\n".encode("ascii"))
                fh.write(img.tobytes())
        elif fmt == "csv":
            cfg = raster.config
            with open(path, "w") as fh:
                fh.write("alpha,lambda,retained,escape_iter\n")
                for i, a in enumerate(cfg.alphas):
                    for j, l in enumerate(cfg.lambdas):
                        it = raster.escape_iter[i, j]
                        fh.write(
                            f"{float(a)!r},{float(l)!r},{int(raster.retained[i, j])},"
                            f"{'' if it < 0 else int(it)}\n"
                        )
        else:
            raise ValueError(f"unknown raster format {format!r} (use pgm or csv)")
    except OSError as exc:
        raise OSError(f"cannot write raster to {path}: {exc}") from exc
