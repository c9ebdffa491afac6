"""U(1) connections on gasket graphs with prescribed cell fluxes.

Phases are stored in turns (units of full revolutions): omega_xy = exp(2*pi*i*phase).
Flux targets per face: every upright unit cell carries alpha; a downright face of
side s carries s(s-1)/2*alpha + s(s+1)/2*beta, the ambient triangular-lattice
completion (a side-s inverted triangle covers s(s-1)/2 upright and s(s+1)/2
downright unit cells).  For s = 1 this is just beta.

The operator depends on the phases only through these face holonomies (two
connections with the same holonomies differ by a gauge transformation and give
unitarily equivalent operators), so one gauge serves every caller:
``build_connection`` writes each phase in closed form from the edge's direction
and row j, then checks every face against its target.  The row phases
(alpha+beta)*j mod 1 and the hole targets are computed exactly, from the
floats' dyadic fractions, and rounded once.  In floats they would not hold
HOLONOMY_TOL: a hole of side s repeats one row phase s times, so that phase's
rounding error is multiplied by s (the unreduced phases miss side-64 holes by
more than 1e-12 at level 7), and a side-128 target's terms reach ~1.6e4.
The connection is its forward phases and records its flux pair, where the
spectrum dispatch reads it.  Array code (the operator's entries,
`restrict_connection`, `face_holonomies`) reads `forward` and `-forward`.  The
CRSF walk, `holonomy` and `to_json` read one scalar at a time from
`neighbor_phases`, the same phases as one flat float array in neighbour
order, indexed through the graph's `neighbor_offsets`; the sampler's window
check reads `face_flux_summary`, computed once per connection.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

from .gasket import GasketGraph, build_gasket

HOLONOMY_TOL = 1e-12
DYADIC_TOL = 1e-12


class InvalidCycleError(ValueError):
    pass


def mod1(x: float) -> float:
    # float % is np.mod for one float, without numpy's per-call overhead;
    # -eps % 1.0 rounds to 1.0 for tiny eps, so fold back onto [0, 1)
    m = float(x) % 1.0
    return 0.0 if m == 1.0 else m


def circ_dist(x: float, y: float) -> float:
    """Distance on the circle R/Z."""
    d = abs(mod1(x) - mod1(y))
    return min(d, 1.0 - d)


def dyadic(x: float) -> float | None:
    """The point of {0, 1/2} within DYADIC_TOL of x on the circle, or None.
    With m = mod1(x), the circle distance is min(m, 1 - m) to 0 and |m - 1/2|
    to 1/2, since 1 - |m - 1/2| >= 1/2: `circ_dist` to each, to the bit."""
    m = mod1(x)
    if min(m, 1.0 - m) <= DYADIC_TOL:
        return 0.0
    if abs(m - 0.5) <= DYADIC_TOL:
        return 0.5
    return None


def _turns(alpha: float, beta: float) -> tuple[int, int, int]:
    """(a, b, q) with alpha = a/q and beta = b/q exactly.  Floats are dyadic
    rationals, so q is the larger of their two power-of-two denominators."""
    (na, da), (nb, db) = float(alpha).as_integer_ratio(), float(beta).as_integer_ratio()
    q = max(da, db)
    return na * (q // da), nb * (q // db), q


def _mod1_of(n: int, q: int) -> float:
    """n/q mod 1, rounded once."""
    return mod1(n % q / q)


def hole_flux(side: int, alpha: float, beta: float) -> float:
    """The target of a downright face of side s, s(s-1)/2 alpha + s(s+1)/2 beta
    mod 1, computed exactly and rounded once: at side 128 the terms reach
    ~1.6e4, where one float rounding is already up to 1.8e-12."""
    a, b, q = _turns(alpha, beta)
    return _mod1_of(side * (side - 1) // 2 * a + side * (side + 1) // 2 * b, q)


@dataclass(frozen=True)
class FluxPair:
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", mod1(self.alpha))
        object.__setattr__(self, "beta", mod1(self.beta))

    def is_dyadic(self) -> bool:
        return dyadic(self.alpha) is not None and dyadic(self.beta) is not None


class Connection:
    """Unit edge weights on a graph, one phase per edge.  `forward` is a
    read-only float array in `graph.edge_array` order: phase(u, v) for each
    edge (u, v), u < v, with phase(v, u) = -phase(u, v) by construction.
    `flux` is the uniform pair whose completed face targets the phases were
    built to carry; None when no such pair is known (a reduced connection,
    or phases written by hand)."""

    def __init__(self, graph: GasketGraph, forward: np.ndarray, flux: FluxPair | None = None):
        if not isinstance(forward, np.ndarray):
            raise TypeError(f"forward phases must be an array in edge order, not {type(forward).__name__}")
        if forward.shape != (len(graph.edge_array),):
            raise ValueError(f"{len(graph.edge_array)} forward phases expected, got shape {forward.shape}")
        self.graph, self.forward, self.flux = graph, np.array(forward, dtype=float), flux
        self.forward.setflags(write=False)

    @cached_property
    def neighbor_phases(self) -> array:
        """phase(u, v) for every directed edge, one flat float array (8 bytes
        an entry) in neighbour order: phase(u, neighbors[u][k]) is entry
        `graph.neighbor_offsets[u] + k`.  Entries are `forward` and
        `-forward` as they are, so an edge of phase 0.0 reads -0.0 from its
        high end."""
        directed = self.graph.in_neighbor_order(np.concatenate([self.forward, -self.forward]))
        return array("d", directed.tobytes())

    @cached_property
    def face_flux_summary(self) -> tuple[float, float, float]:
        """Three numbers over every face's flux, reduced mod 1 and then
        centred, so a flux of exactly 1/2 reads +1/2 (as `math.remainder` of
        the reduced holonomy gives): the largest magnitude, the side-1 face
        flux of largest magnitude (the first on a tie; uprights carry alpha,
        side-1 holes beta) and the exactly rounded sum of magnitudes."""
        h = face_holonomies(self) % 1.0
        centred = h - np.round(h)
        size = np.abs(centred)
        base = centred[self.graph.face_sides == 1]
        return float(size.max()), float(base[np.argmax(np.abs(base))]), math.fsum(size.tolist())

    def holonomy(self, cycle: list[int]) -> float:
        """Sum of edge phases along a closed vertex path, mod 1, rounded once
        (a side-128 hole sums 384 phases; added in turn they drift by ~1e-13)."""
        if cycle[0] != cycle[-1]:
            cycle = list(cycle) + [cycle[0]]
        nbrs, at, nph = self.graph.neighbors, self.graph.neighbor_offsets, self.neighbor_phases
        try:
            terms = [nph[at[u] + nbrs[u].index(v)] for u, v in pairwise(cycle)]
        except (IndexError, ValueError):
            raise InvalidCycleError(f"{list(cycle)} is not a closed path of adjacent vertices") from None
        return mod1(math.fsum(terms))

    def to_json(self) -> str:
        """{"u,v": phase(u, v)} over both directions, u ascending and then v."""
        keys = (f"{u},{v}" for u, vs in enumerate(self.graph.neighbors) for v in vs)
        return json.dumps(dict(zip(keys, self.neighbor_phases)), indent=1)


def check_graph(graph: GasketGraph, conn: Connection) -> None:
    """Refuse a connection built on another graph object than `graph`."""
    if conn.graph is not graph:
        raise ValueError("connection was built on a different graph")


def face_holonomies(conn: Connection) -> np.ndarray:
    """Every face's holonomy, not reduced mod 1: the signed sum of the forward
    phases around its CCW boundary (`GasketGraph.face_edges`)."""
    edge, sign, start = conn.graph.face_edges
    return np.add.reduceat(sign * conn.forward[edge], start)


def build_connection(graph: GasketGraph, flux: FluxPair) -> Connection:
    """The closed-form gauge: an edge's phase depends only on its direction and row.

    E edge (i,j)->(i+1,j) carries -(alpha+beta)*j, NE edge carries 0, NW edge
    (i+1,j)->(i,j+1) carries alpha+(alpha+beta)*j.  Every ambient unit cell
    then picks up exactly alpha (upright) or beta (downright), so every face
    gets its completed flux.  Each edge's kind and row are read off the
    coordinate arrays, and each face's holonomy (`face_holonomies`) is checked
    against its target at HOLONOMY_TOL.
    """
    a, b, q = _turns(flux.alpha, flux.beta)
    rows = range(2**graph.level + 1)
    east = np.array([_mod1_of(-(a + b) * j, q) for j in rows])
    # NW edges are stored low id -> high id, i.e. (i,j+1)->(i+1,j)
    north_west = np.array([_mod1_of(-a - (a + b) * j, q) for j in rows])
    (i1, j1), (i2, j2) = graph.coords[graph.edge_array].transpose(1, 2, 0)
    fwd = np.where(j1 == j2, east[j1], np.where(i1 == i2, 0.0, north_west[j2]))
    conn = Connection(graph, fwd, flux)

    holonomy = face_holonomies(conn)
    side_flux = np.zeros(graph.face_sides.max() + 1)
    for k in range(graph.level):
        side_flux[2**k] = hole_flux(2**k, flux.alpha, flux.beta)
    target = side_flux[graph.face_sides]
    target[: 3**graph.level] = flux.alpha  # the upright unit cells
    miss = np.abs(holonomy - target) % 1.0
    miss = np.minimum(miss, 1.0 - miss)
    if miss.max() > HOLONOMY_TOL:
        raise RuntimeError(f"holonomy verification failed on cell {graph.cells[int(np.argmax(miss))]}")
    return conn


def restrict_connection(conn: Connection, theta: float) -> Connection:
    """Twisted reduced connection on G_{N-1}.

    The upright unit cells of G_{N-1} are the side-2 triangles of G_N
    (`GasketGraph.midpoint_cells`), and a reduced vertex's id is the rank of
    its fine corner in `prev_level_ids`.  For a reduced edge ab traversed CCW
    around its triangle, with c the level-N midpoint between them:
    Omega_ab = phase(a,c)+phase(c,b)+theta.
    """
    graph = conn.graph
    if graph.level == 0:
        raise ValueError("level 0 has no previous level")

    def phase(x, y):
        p = conn.forward[graph.edge_index(x, y)]
        return np.where(x < y, p, -p)

    mids, corners = graph.midpoint_cells
    # the CCW sides (c0, m0, c1), (c1, m1, c2), (c2, m2, c0) of every triangle
    ends = np.roll(corners, -1, axis=1)
    ph = phase(corners, mids) + phase(mids, ends) + theta
    coarse = build_gasket(graph.level - 1)
    prev = np.array(graph.prev_level_ids)  # ascending from level 1 on
    u, v = np.searchsorted(prev, corners), np.searchsorted(prev, ends)
    phase_fwd = np.empty(len(coarse.edge_array))
    phase_fwd[coarse.edge_index(u, v)] = np.where(u < v, ph, -ph)
    return Connection(coarse, phase_fwd)
