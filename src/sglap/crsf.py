"""Cycle-rooted spanning forests on gasket graphs.

An oriented CRSF is stored as a successor map: every vertex points at one
neighbor, so the digraph splits into rho-shaped components, each with exactly
one directed cycle and trees (bushes) hanging off it.  Three things live
here:

* brute_force_partition - sum the weight of every successor map and recover
  det of the probabilistic magnetic Laplacian exactly (the matrix-CRSF
  identity).  With the walk conductances c(x,y) = 1/deg(x) the cycle factor
  is the DIRECTED conductance product along the cycle times (1 - holonomy);
  the symmetrized form (c(x,y)+c(y,x))/2 one sometimes sees is equivalent
  only when c(x,y) = c(y,x), which fails here, so it is not used.
* sample_crsf - experimental cycle-popping sampler (loop-erased walks,
  accept a closed loop with probability 1 - cos(2 pi theta)).  Exact for the
  unoriented CRSF measure when every simple cycle's flux angle lies in
  [-1/4, 1/4]; the precondition enforced is the necessary face-level window
  (each face is itself a simple cycle), and composite cycles beyond the
  window get a clamped acceptance, so treat large-level samples as
  structural, not distributional.  A call costs its walk plus one
  vectorised window check over the faces: the neighbour lists are cached on
  the graph, a loop's flux is summed only when the loop closes, from the
  neighbour table `Connection.neighbor_phases`, and the sample's cycles are
  the loops the walk accepted, not found again in the successor map.
* noloop_log_probability - log of the no-loop probability for the essential
  CRSF measure obtained by wiring the corner (0,0) to an absorbing boundary
  point through a conductance-c edge (Kenyon, Ann. Probab. 39, 2011): two
  determinants of the gluing recursion at lambda = 0
  (`decimation.gluing_log_det`), O(level) work with no dense matrix; the
  per-vertex rate reproduces the loop entropy as the level grows and c drops
  to 0.
"""

from __future__ import annotations

import cmath
import itertools
import logging
import math
import random
from dataclasses import dataclass

import numpy as np

from .decimation import gluing_log_det
from .gasket import GasketGraph
# assemble and build_connection are not called here; perfbench/selftest.py
# checks that its tracer wraps these from-import sites
from .gauge import Connection, FluxPair, build_connection, face_holonomies  # noqa: F401
from .operator import assemble  # noqa: F401

log = logging.getLogger(__name__)

ENUMERATION_CAP = 10**7
WATCHDOG_STEPS = 10**8
FLUX_WINDOW = 0.25


class EnumerationSizeError(ValueError):
    """The successor-map product space is too large to scan."""


class UnsupportedFluxError(ValueError):
    """The cycle-popping sampler cannot realize this flux."""


@dataclass(frozen=True)
class OrientedCRSF:
    """Out-degree-1 digraph: successor map plus its derived decomposition.

    cycles are vertex tuples in successor order; cycle_fluxes are their
    holonomy angles (turns, mod 1); bush_edges are the (x, successor[x])
    pairs for the off-cycle vertices.
    """

    successor: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    cycle_fluxes: tuple[float, ...]
    bush_edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_successor(
        cls, successor: tuple[int, ...], conn: Connection
    ) -> "OrientedCRSF":
        cycles = _functional_cycles(successor)
        return cls._with_cycles(successor, cycles, tuple(conn.holonomy(list(cyc)) for cyc in cycles))

    @classmethod
    def _with_cycles(
        cls, successor: tuple[int, ...], cycles: tuple[tuple[int, ...], ...], fluxes: tuple[float, ...]
    ) -> "OrientedCRSF":
        """The map with its cycles and their fluxes already known; every
        vertex off them is the tail of a bush edge."""
        on_cycle = {v for cyc in cycles for v in cyc}
        return cls(
            successor=tuple(successor),
            cycles=cycles,
            cycle_fluxes=fluxes,
            bush_edges=tuple(
                (x, successor[x]) for x in range(len(successor)) if x not in on_cycle
            ),
        )

    def validate(self, graph: GasketGraph) -> None:
        """Structural invariants: totality, adjacency, one cycle per component."""
        n = len(graph.coords)
        if len(self.successor) != n:
            raise ValueError("successor map does not cover the vertex set")
        nbrs = graph.neighbors
        for x, y in enumerate(self.successor):
            if y not in nbrs[x]:
                raise ValueError(f"successor edge {x}->{y} is not a graph edge")
        if _functional_cycles(self.successor) != self.cycles:
            raise ValueError("stored cycles do not match the successor map")
        seen: set[int] = set()
        for cyc in self.cycles:
            if seen.intersection(cyc):
                raise ValueError("cycles are not vertex-disjoint")
            seen.update(cyc)
        if len(self.bush_edges) != n - len(seen):
            raise ValueError("bush edge count inconsistent with cycles")


def _functional_cycles(successor: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Directed cycles of an out-degree-1 map, each in successor order."""
    n = len(successor)
    state = [0] * n  # 0 unseen, 1 on current walk, 2 settled
    cycles: list[tuple[int, ...]] = []
    for v0 in range(n):
        if state[v0]:
            continue
        path: list[int] = []
        v = v0
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = successor[v]
        if state[v] == 1:  # walked into our own tail: new cycle
            cycles.append(tuple(path[path.index(v):]))
        for u in path:
            state[u] = 2
    return tuple(sorted(cycles))


def crsf_weight(graph: GasketGraph, ocrsf: OrientedCRSF) -> complex:
    """The OCRSF weight under walk conductances c(x,y) = 1/deg(x).

    It is the product over bush edges of c(e) times, per cycle, the directed
    conductance product along the cycle times (1 - holonomy), the holonomy
    being the forest's own cycle flux, so no connection is needed.  Because the
    probabilistic conductances are asymmetric, the directed product (which
    is what the determinant expansion produces) differs from the symmetrized
    product of (c(x,y)+c(y,x))/2 per edge.
    """
    deg = graph.degrees
    w: complex = 1.0 + 0.0j
    for x, _ in ocrsf.bush_edges:
        w /= deg[x]
    for cyc, flux in zip(ocrsf.cycles, ocrsf.cycle_fluxes):
        for x in cyc:
            w /= deg[x]
        w *= 1.0 - cmath.exp(2j * math.pi * flux)
    return w


def _check_enumeration_size(graph: GasketGraph) -> None:
    size = 1
    for d in graph.degrees:
        size *= d
        if size > ENUMERATION_CAP:
            raise EnumerationSizeError(
                f"successor-map space exceeds {ENUMERATION_CAP:.0e} "
                f"(level {graph.level}); enumeration is for small levels only"
            )


def brute_force_partition(graph: GasketGraph, conn: Connection) -> complex:
    """Sum of OCRSF weights over every successor map; equals det(L^omega).

    Every out-degree-1 map is automatically a disjoint union of unicyclic
    components, so the scan is a plain product-space walk; 2-cycles survive
    it but carry weight 0 (their holonomy is exactly 1).
    """
    _check_enumeration_size(graph)
    total = 0.0 + 0.0j
    for choice in itertools.product(*graph.neighbors):
        total += crsf_weight(graph, OrientedCRSF.from_successor(choice, conn))
    return total


def _flux_window_check(conn: Connection) -> None:
    """Refuse zero flux and base fluxes outside [-1/4, 1/4]; warn beyond the
    regime where every simple cycle provably stays inside the window.

    Every face's holonomy (`face_holonomies`) is reduced mod 1 before it is
    centred, so that a face flux of exactly 1/2 reads +1/2, as
    `math.remainder` of the reduced holonomy gives.
    """
    h = face_holonomies(conn) % 1.0
    centred = h - np.round(h)
    reps = centred.tolist()
    if all(abs(r) <= 1e-12 for r in reps):
        raise UnsupportedFluxError(
            "zero flux: every cycle has acceptance probability 0, so the "
            "cycle-popping sampler never roots a component; use a uniform "
            "spanning tree sampler instead"
        )
    # uprights carry alpha, side-1 holes carry beta
    bad = max(centred[conn.graph.face_sides == 1].tolist(), key=abs)
    if abs(bad) > FLUX_WINDOW + 1e-12:
        raise UnsupportedFluxError(
            f"base flux angle {bad:+.6f} lies outside [-1/4, 1/4]; the "
            "cycle acceptance probability would exceed 1"
        )
    if math.fsum(abs(r) for r in reps) > FLUX_WINDOW + 1e-12:
        log.warning(
            "total face flux exceeds 1/4: some composite cycles fall outside "
            "the acceptance window and are clamped, so the sampled law is "
            "only approximate at this flux/level"
        )


def sample_crsf(graph: GasketGraph, conn: Connection, seed: int) -> OrientedCRSF:
    """One cycle-popping sample of the CRSF measure (experimental).

    Loop-erased random walk with uniform steps; a freshly closed loop gamma
    is kept (rooting its component) with probability 1 - cos(2 pi
    theta_gamma), otherwise popped.  Every face flux must sit inside
    [-1/4, 1/4] (and not all be zero); composite cycles beyond the window
    get clamped acceptance, logged at debug level, so the sampled law is
    exact only while the window holds for all simple cycles.

    A sample is a function of (graph, phases, seed) alone: every step is one
    `rng.choice` over `graph.neighbors`, so the ascending neighbour order is
    part of that contract, and a loop's flux is `Connection.holonomy`, the
    exactly rounded sum of its own edge phases.
    """
    _flux_window_check(conn)
    nbrs = graph.neighbors
    n = len(graph.coords)
    rng = random.Random(seed)
    successor: list[int | None] = [None] * n
    in_forest = [False] * n
    cycles: list[tuple[tuple[int, ...], float]] = []
    steps = 0
    for start in range(n):
        if in_forest[start]:
            continue
        path = [start]
        pos = {start: 0}
        while True:
            steps += 1
            if steps > WATCHDOG_STEPS:
                raise RuntimeError(
                    f"cycle popping exceeded {WATCHDOG_STEPS:.0e} steps"
                )
            w = rng.choice(nbrs[path[-1]])
            if in_forest[w]:
                break
            if w in pos:  # closed a loop
                i = pos[w]
                theta = conn.holonomy(path[i:] + [w])
                p = 1.0 - math.cos(2.0 * math.pi * theta)
                if p > 1.0:
                    log.debug(
                        "clamping acceptance %.6f for cycle flux %.6f", p, theta
                    )
                    p = 1.0
                if rng.random() < p:
                    cycles.append((tuple(path[i:]), theta))
                    break
                for x in path[i + 1:]:
                    del pos[x]
                del path[i + 1:]
            else:
                pos[w] = len(path)
                path.append(w)
        # the walk ends on the forest or on an accepted loop: both join it
        for a, b in zip(path, path[1:] + [w]):
            successor[a] = b
            in_forest[a] = True
    # the cycles `from_successor` would find: a walk's start is the least
    # vertex of the component it roots, so `_functional_cycles` enters each
    # loop at its closing vertex w
    cycles.sort()
    return OrientedCRSF._with_cycles(
        tuple(successor), tuple(cyc for cyc, _ in cycles), tuple(theta for _, theta in cycles)
    )


def noloop_log_probability(
    graph: GasketGraph, conn: Connection, boundary_conductance: float
) -> float:
    """log P[no loops] for the essential CRSF measure rooted through (0,0).

    A boundary vertex b is wired to the corner (0,0) by an edge of the given
    conductance and carries the Dirichlet condition, which adds the
    conductance to that corner's diagonal entry of the symmetrized operator,
    and conductance * deg = 2 * conductance to that of Deg - W.  The value is
    log det(L^Id_aug) - log det(L^omega_aug), always <= 0 up to roundoff; the
    degrees cancel, so it is the difference of the two `gluing_log_det`
    values.  The connection must carry a uniform flux pair.
    """
    if boundary_conductance <= 0:
        raise ValueError("boundary conductance must be positive")
    if conn.flux is None:
        raise ValueError("the connection carries no uniform flux pair")
    corner = 2 * boundary_conductance  # the conductance times the corner's degree
    return gluing_log_det(FluxPair(0.0, 0.0), graph.level, corner) - gluing_log_det(
        conn.flux, graph.level, corner
    )
