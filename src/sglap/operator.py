"""Probabilistic magnetic Laplacian on a gasket graph.

The operator has 1 on the diagonal and -omega_xy/deg(x) off it; it is
self-adjoint in the degree measure, so eigenvalues come from the Hermitian
symmetrization T = W^{1/2} L W^{-1/2}.  A `MagneticOperator` is its graph and
connection: its dimension and weights (the degrees) are read off the graph's
arrays, and the dense matrix `MagneticOperator.entries` is built from the edge
array and the connection's forward phases when first read; the engine never
reads it.  `eigenvalues` is the one entry point for spectra: from level
ENGINE_MIN_LEVEL (5) on, an operator whose connection carries a uniform Case I
(dyadic) or Case IV (no real Psi zero) flux pair is solved by bisecting the
gluing count (`decimation.decimation_eigenvalues`: one real closed-form step
per level on each probe, brackets split by the count at their midpoints down
to the depth where they are BISECT_WIDTH wide, several tree levels to a
gluing pass while brackets are few, and a probe at a singular junction block
recounted on either side of it); every other operator goes to
`dense_eigenvalues`, the dense eigensolver that stays the oracle the engine is
checked against, and the only path SPECTRUM_DIM_CAP binds.
`log_determinant` reads the gluing recursion at lambda = 0
(`decimation.gluing_log_det`, O(N) work) at every uniform flux pair and every
level; the dense oracle takes the rest.  Also here: multiplicity clustering
and the Schur complement onto the previous level (the midpoint vertices
eliminated from the operator's entries one side-2 triangle at a time).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decimation import (
    cell_cubic_d,
    decimation_eigenvalues,
    gluing_count,
    gluing_log_det,
    kernel_dimension,
    psi_real_zeros,
    zeros_of_D,
)
# build_gasket is not called here; perfbench/selftest.py checks that its
# tracer wraps this from-import site
from .gasket import GasketGraph, build_gasket  # noqa: F401
from .gauge import Connection

SPECTRUM_DIM_CAP = 4000
ZERO_EIG_TOL = 1e-9
# eigenvalues closer than this are one cluster
CLUSTER_TOL = 1e-6
# `schur_complement` refuses lambda within this of a midpoint-block root
D_ROOT_TOL = 1e-9
# Below this level a dense solve is faster than bisecting the gluing count.
# At level 5 the gluing count wins at every flux measured (2-vCPU host,
# medians of 15 alternating runs, two sets: dense 25-34 ms with the graph,
# connection and matrix built, gluing 9-10 ms at (0, 0) and (1/2, 0),
# 16-23 ms at (0.3, 0.3) and (0.37, 0.71)); at level 4 dense takes 2-3 ms
# and gluing 7-10 ms.
ENGINE_MIN_LEVEL = 5


@dataclass(frozen=True, eq=False)
class MagneticOperator:
    graph: GasketGraph = field(repr=False)
    conn: Connection = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.graph.coords)

    @property
    def weights(self) -> np.ndarray:
        return self.graph.degree_array  # the degrees, read-only

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense matrix, read-only, built on first read."""
        x, y = self.graph.edge_array.T
        deg, fwd = self.weights, self.conn.forward
        L = np.eye(self.dimension, dtype=complex)
        L[x, y] = -np.exp(2j * np.pi * fwd) / deg[x]
        L[y, x] = -np.exp(2j * np.pi * -fwd) / deg[y]
        L.setflags(write=False)
        return L

    def symmetrized(self) -> np.ndarray:
        w = np.sqrt(np.asarray(self.weights, dtype=float))
        return self.entries * np.outer(w, 1.0 / w)


@dataclass(frozen=True)
class Spectrum:
    pairs: list[tuple[float, int]]
    # sorted raw eigenvalues the pairs cluster, in order (None for closed forms)
    raw: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        return json.dumps(
            [{"eigenvalue": ev, "multiplicity": m} for ev, m in self.pairs], indent=1
        )

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.pairs)


def assemble(graph: GasketGraph, conn: Connection) -> MagneticOperator:
    if conn.graph is not graph:
        raise ValueError("connection was built on a different graph")
    return MagneticOperator(graph, conn)


def dense_eigenvalues(op: MagneticOperator) -> np.ndarray:
    """Raw sorted eigenvalues of the Hermitian symmetrization by a dense solve: the oracle."""
    if op.dimension > SPECTRUM_DIM_CAP:
        raise ValueError(f"dimension {op.dimension} exceeds the cap {SPECTRUM_DIM_CAP}")
    try:
        return np.linalg.eigvalsh(op.symmetrized())
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc


def eigenvalues(op: MagneticOperator) -> np.ndarray:
    """Raw sorted eigenvalues of the Hermitian symmetrization.

    The gluing count from ENGINE_MIN_LEVEL on when the connection carries a
    uniform flux pair (`Connection.flux`) in Case I or Case IV; the dense
    oracle otherwise.  Case II and III fluxes have real Psi zeros off the
    dyadic grid, where D roots and Psi zeros meet and bisection lands up to
    3.7e-9 off dense (levels 3-6), so they stay dense.
    """
    if op.graph.level >= ENGINE_MIN_LEVEL:
        flux = op.conn.flux
        if flux is not None and (flux.is_dyadic() or not psi_real_zeros(flux)):
            return decimation_eigenvalues(flux, op.graph.level)
    return dense_eigenvalues(op)


def cluster(evs: np.ndarray) -> Spectrum:
    """Sorted eigenvalues as (mean, multiplicity) pairs: a gap of CLUSTER_TOL splits."""
    starts = np.flatnonzero(np.diff(evs, prepend=-np.inf) >= CLUSTER_TOL)
    sizes = np.diff(starts, append=len(evs))
    means = evs[starts].tolist()  # a singleton is its own mean
    for k in np.flatnonzero(sizes > 1).tolist():
        means[k] = float(np.mean(evs[starts[k]:starts[k] + sizes[k]]))
    return Spectrum(list(zip(means, sizes.tolist())), evs)


def spectrum(op: MagneticOperator) -> Spectrum:
    return cluster(eigenvalues(op))


def schur_complement(op: MagneticOperator, lam: float) -> np.ndarray:
    """Eliminate the midpoint block at spectral parameter lam.

    With M = L - lam I, corners c = prev_level_ids in ascending order and
    midpoints m the other vertices, returns M_cc - M_cm M_mm^{-1} M_mc.  M_mm
    is block-diagonal over the side-2 upright triangles
    (`GasketGraph.midpoint_cells`), so the midpoints are eliminated one
    triangle at a time: each 3x3 block is solved against the entries to its
    three corners and the result is subtracted from theirs.  Each block's
    determinant is the cell cubic D(beta, lam), so lam near a root of D is
    refused.
    """
    graph = op.graph
    if graph.level == 0:
        raise ValueError("level 0 has no previous level to reduce to")
    flux = op.conn.flux
    if flux is None:
        raise ValueError("the connection carries no uniform flux pair")
    beta = flux.beta
    dval = cell_cubic_d(beta, lam)
    if abs(dval) <= D_ROOT_TOL:
        root = min((r for r, _ in zeros_of_D(beta)), key=lambda r: abs(r - lam))
        raise ValueError(
            f"lambda = {lam} is within {D_ROOT_TOL} of the midpoint-block root {root} "
            f"(D(beta={beta}, lambda) = {dval})"
        )

    L, c = op.entries, np.array(sorted(graph.prev_level_ids))
    mids, corners = graph.midpoint_cells
    S = L[np.ix_(c, c)]  # a copy: subtract lam and the eliminated cells in place
    S[np.diag_indices_from(S)] -= lam
    M_mm = L[mids[:, :, None], mids[:, None, :]] - lam * np.eye(3)
    fill = L[corners[:, :, None], mids[:, None, :]] @ np.linalg.solve(M_mm, L[mids[:, :, None], corners[:, None, :]])
    at = np.searchsorted(c, corners)
    np.subtract.at(S, (at[:, :, None], at[:, None, :]), fill)
    return S


def log_determinant(op: MagneticOperator, drop_zero: bool = False) -> tuple[float, int]:
    """(log det L, zero_count), or the pseudo-determinant over the eigenvalues
    at least ZERO_EIG_TOL under drop_zero; zero_count = #{eigenvalues <
    ZERO_EIG_TOL}.

    At a uniform flux pair, log det L = log|det'(Deg - W)| - sum log deg from
    `gluing_log_det`, with zero_count the gluing count at ZERO_EIG_TOL; when
    that count is not `kernel_dimension` (the constants of the trivial
    connection, or nothing), the operator goes to the dense oracle, as does
    every operator without a uniform flux pair.
    """
    flux, level = op.conn.flux, op.graph.level
    value = None
    if flux is not None:
        zero_count = int(gluing_count(flux.alpha, flux.beta, level, ZERO_EIG_TOL)[0][0])
        if zero_count == kernel_dimension(flux, level):
            value = gluing_log_det(flux, level) - math.fsum(map(math.log, op.weights.tolist()))
    if value is None:
        evs = dense_eigenvalues(op)
        if evs[0] < -ZERO_EIG_TOL:
            raise ValueError(f"negative eigenvalue {evs[0]}: operator should be PSD")
        zero_count = int(np.sum(np.abs(evs) < ZERO_EIG_TOL))
        value = float(np.sum(np.log(evs[np.abs(evs) >= ZERO_EIG_TOL])))
    if zero_count and not drop_zero:
        raise ValueError(
            f"{zero_count} eigenvalue(s) within {ZERO_EIG_TOL} of zero; "
            "pass drop_zero to take the pseudo-determinant"
        )
    return value, zero_count


def matrix_csv(op: MagneticOperator) -> str:
    lines = ["row,col,re,im"]
    for (r, c) in zip(*np.nonzero(op.entries)):
        v = op.entries[r, c]
        lines.append(f"{r},{c},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"
