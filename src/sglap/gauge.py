"""U(1) connections on gasket graphs with prescribed cell fluxes.

Phases are stored in turns (units of full revolutions): omega_xy = exp(2*pi*i*phase).
Flux targets per face: every upright unit cell carries alpha; a downright face of
side s carries s(s-1)/2*alpha + s(s+1)/2*beta, the ambient triangular-lattice
completion (a side-s inverted triangle covers s(s-1)/2 upright and s(s+1)/2
downright unit cells).  For s = 1 this is just beta.

Two independent constructions are kept deliberately: ``build_connection`` fixes a
BFS spanning tree and solves the face-flux system for the non-tree edges, and
``landau_connection`` writes the phases in closed form.  They differ by a gauge
transformation; tests check both give identical holonomies and spectra.  Both
record the flux pair on the `Connection`, where the spectrum dispatch reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .gasket import GasketGraph, UnitCell, build_gasket

HOLONOMY_TOL = 1e-12
DYADIC_TOL = 1e-12


class InvalidCycleError(ValueError):
    pass


def mod1(x: float) -> float:
    m = float(np.mod(x, 1.0))
    # np.mod(-eps, 1.0) rounds to 1.0 for tiny eps; fold back onto [0, 1)
    return 0.0 if m == 1.0 else m


def circ_dist(x: float, y: float) -> float:
    """Distance on the circle R/Z."""
    d = abs(mod1(x) - mod1(y))
    return min(d, 1.0 - d)


def dyadic(x: float) -> float | None:
    """The point of {0, 1/2} within DYADIC_TOL of x on the circle, or None."""
    for v in (0.0, 0.5):
        if circ_dist(x, v) <= DYADIC_TOL:
            return v
    return None


def hole_flux(side: int, alpha: float, beta: float) -> float:
    return mod1(side * (side - 1) / 2 * alpha + side * (side + 1) / 2 * beta)


@dataclass(frozen=True)
class FluxPair:
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", mod1(self.alpha))
        object.__setattr__(self, "beta", mod1(self.beta))

    def is_dyadic(self) -> bool:
        return dyadic(self.alpha) is not None and dyadic(self.beta) is not None


@dataclass
class Connection:
    """Edge phases on a graph.  `flux` is the uniform pair whose completed face
    targets the phases were built to carry; None when no such pair is known
    (a reduced connection, or phases written by hand)."""

    graph: GasketGraph
    phase: dict[tuple[int, int], float] = field(repr=False)
    flux: FluxPair | None = None

    def omega(self, x: int, y: int) -> complex:
        return np.exp(2j * np.pi * self.phase[(x, y)])

    def holonomy(self, cycle: list[int]) -> float:
        """Sum of edge phases along a closed vertex path, mod 1."""
        if cycle[0] != cycle[-1]:
            cycle = list(cycle) + [cycle[0]]
        total = 0.0
        for u, v in zip(cycle, cycle[1:]):
            if (u, v) not in self.phase:
                raise InvalidCycleError(f"vertices {u},{v} not adjacent")
            total += self.phase[(u, v)]
        return mod1(total)

    def to_json(self) -> str:
        return json.dumps(
            {f"{u},{v}": p for (u, v), p in sorted(self.phase.items())}, indent=1
        )


def _face_targets(graph: GasketGraph, flux: FluxPair) -> list[tuple[UnitCell, float]]:
    out = []
    for cell in graph.cells:
        if cell.orientation == "upright":
            out.append((cell, mod1(flux.alpha)))
        else:
            out.append((cell, hole_flux(cell.side, flux.alpha, flux.beta)))
    return out


def _antisymmetrize(phase_fwd: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    full = {}
    for (u, v), p in phase_fwd.items():
        full[(u, v)] = p
        full[(v, u)] = -p
    return full


def _solve_mod1(mat: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    """x in [0, 1) with mat @ x = rhs mod 1.

    Phases matter only mod 1, but the solved ones grow with the hole sides
    (|x| ~ 1.5e3 at level 8) and keep too few digits of their fractions, so
    they are reduced and corrected once against the residual, itself mod 1.
    """
    lu = spla.splu(mat)
    x = np.mod(lu.solve(rhs), 1.0)
    resid = rhs - mat @ x
    return np.mod(x + lu.solve(resid - np.rint(resid)), 1.0)


def build_connection(graph: GasketGraph, flux: FluxPair) -> Connection:
    """Spanning-tree gauge: tree edges phase 0, faces pin the rest.

    The face/non-tree-edge incidence system is square (cells form a cycle
    basis) and unimodular; solved in double precision with the phases reduced
    mod 1 and one correction step, then post-verified.
    """
    n = len(graph.vertices)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)

    # BFS tree from vertex 0
    tree: set[tuple[int, int]] = set()
    seen = [False] * n
    seen[0] = True
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                tree.add((min(u, v), max(u, v)))
                queue.append(v)

    nontree = [e for e in graph.edges if e not in tree]
    col = {e: k for k, e in enumerate(nontree)}
    faces = _face_targets(graph, flux)
    if len(faces) != len(nontree):
        raise RuntimeError("face count != non-tree edge count; cycle basis broken")

    rows, cols, vals = [], [], []
    rhs = np.zeros(len(faces))
    for r, (cell, target) in enumerate(faces):
        cyc = list(cell.vertices) + [cell.vertices[0]]
        for u, v in zip(cyc, cyc[1:]):
            e = (min(u, v), max(u, v))
            if e in col:
                rows.append(r)
                cols.append(col[e])
                vals.append(1.0 if (u, v) == e else -1.0)
        rhs[r] = target

    mat = sp.csc_matrix((vals, (rows, cols)), shape=(len(faces), len(nontree)))
    x = _solve_mod1(mat, rhs)
    if not np.all(np.isfinite(x)):
        raise RuntimeError("face-flux system singular")

    phase_fwd = {e: 0.0 for e in tree}
    phase_fwd.update({e: float(x[k]) for e, k in col.items()})
    conn = Connection(graph, _antisymmetrize(phase_fwd), flux)

    for cell, target in faces:
        if circ_dist(conn.holonomy(list(cell.vertices)), target) > HOLONOMY_TOL:
            raise RuntimeError(f"holonomy verification failed on cell {cell}")
    return conn


def landau_connection(graph: GasketGraph, flux: FluxPair) -> Connection:
    """Closed-form gauge: phases depend only on edge direction and row index.

    E edge (i,j)->(i+1,j) carries -(alpha+beta)*j; NE edge carries 0; NW edge
    (i+1,j)->(i,j+1) carries alpha+(alpha+beta)*j.  Every ambient unit cell
    then picks up exactly alpha (upright) or beta (downright), so every face
    gets its completed flux without solving anything.
    """
    a, b = flux.alpha, flux.beta
    coord = dict(graph.vertices)
    phase_fwd: dict[tuple[int, int], float] = {}
    for u, v in graph.edges:
        (i1, j1), (i2, j2) = coord[u], coord[v]
        d = (i2 - i1, j2 - j1)
        if d == (1, 0):
            p = -(a + b) * j1
        elif d == (0, 1):
            p = 0.0
        elif d == (1, -1):
            p = -(a + (a + b) * j2)
        else:
            raise RuntimeError(f"unexpected edge direction {d}")
        phase_fwd[(u, v)] = p
    return Connection(graph, _antisymmetrize(phase_fwd), flux)


def restrict_connection(conn: Connection, theta: float) -> Connection:
    """Twisted reduced connection on G_{N-1}.

    For a reduced edge ab traversed CCW around its (unique) upright reduced
    cell, with c the level-N midpoint: Omega_ab = phase(a,c)+phase(c,b)+theta.
    """
    graph = conn.graph
    if graph.level == 0:
        raise ValueError("level 0 has no previous level")
    reduced = build_gasket(graph.level - 1)
    rcoord = dict(reduced.vertices)

    def fine_id(rid: int) -> int:
        i, j = rcoord[rid]
        return graph.coord_to_id[(2 * i, 2 * j)]

    phase_fwd: dict[tuple[int, int], float] = {}
    for cell in reduced.upright_cells():
        p, q, r = cell.vertices
        for u, v in ((p, q), (q, r), (r, p)):
            (ui, uj), (vi, vj) = rcoord[u], rcoord[v]
            mid = graph.coord_to_id[(ui + vi, uj + vj)]
            fu, fv = fine_id(u), fine_id(v)
            ph = conn.phase[(fu, mid)] + conn.phase[(mid, fv)] + theta
            key = (min(u, v), max(u, v))
            phase_fwd[key] = ph if (u, v) == key else -ph
    return Connection(reduced, _antisymmetrize(phase_fwd))


def cell_holonomies(conn: Connection) -> list[tuple[UnitCell, float]]:
    return [(c, conn.holonomy(list(c.vertices))) for c in conn.graph.cells]
