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
  only when c(x,y) = c(y,x), which fails here, so it is not used.  The maps'
  cycle decompositions do not depend on the connection, so they are taken
  once per graph (`_cycle_table`); a call takes one holonomy and one factor
  per distinct cycle (34 at level 1) and multiplies them out map by map.
* sample_crsf - experimental cycle-popping sampler (loop-erased walks,
  accept a closed loop with probability 1 - cos(2 pi theta)).  Exact for the
  unoriented CRSF measure when every simple cycle's flux angle lies in
  [-1/4, 1/4]; the precondition enforced is the necessary face-level window
  (each face is itself a simple cycle), and composite cycles beyond the
  window get a clamped acceptance, so treat large-level samples as
  structural, not distributional.  A call costs its walk alone: the window
  check reads three numbers cached on the connection, each step draws its
  neighbour inline (the draws `rng.choice` would make) and reads its phase
  from the flat table `Connection.neighbor_phases`, a closed loop's flux is
  the exact sum of the phases the walk kept beside its path, and the
  sample's cycles are the loops the walk accepted, not found again in the
  successor map.
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
import functools
import itertools
import logging
import math
import random
from dataclasses import dataclass

from .decimation import gluing_log_det
from .gasket import GasketGraph
# assemble and build_connection are not called here; perfbench/selftest.py
# checks that its tracer wraps these from-import sites
from .gauge import Connection, FluxPair, build_connection, check_graph, mod1  # noqa: F401
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


def _loop_factor(flux: float) -> complex:
    """1 - e(flux): a cycle's factor beside its conductances."""
    return 1.0 - cmath.exp(2j * math.pi * flux)


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
        w *= _loop_factor(flux)
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


@functools.lru_cache(maxsize=None)
def _cycle_table(
    graph: GasketGraph,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], float]:
    """(cycles, maps, scale) of the successor maps free of 2-cycles.

    cycles are the distinct directed cycles, each as `_functional_cycles`
    gives it, in the order the `itertools.product` scan first meets them.
    maps has one entry per such map, in scan order: the indices of its
    cycles into cycles, in sorted-cycle order.  scale is prod 1/deg(x) over
    every vertex.  Built once per graph (graphs hash by identity) and kept
    for the process.
    """
    index: dict[tuple[int, ...], int] = {}
    maps = []
    for choice in itertools.product(*graph.neighbors):
        cycles = _functional_cycles(choice)
        if all(len(cyc) > 2 for cyc in cycles):
            maps.append(tuple(index.setdefault(cyc, len(index)) for cyc in cycles))
    return tuple(index), tuple(maps), 1.0 / math.prod(graph.degrees)


def brute_force_partition(graph: GasketGraph, conn: Connection) -> complex:
    """Sum of OCRSF weights over every successor map; equals det(L^omega).

    Every out-degree-1 map is automatically a disjoint union of unicyclic
    components, so the scan is a plain product-space walk.  It is the sum of
    `crsf_weight` over the maps in `itertools.product` order, to the bit,
    read from the graph's `_cycle_table`:

    * a map holding a 2-cycle weighs exactly 0 (the 2-cycle's holonomy is
      phase + -phase = 0.0, so its factor is 0), and adding a zero leaves the
      sum's bits alone, so those maps are dropped;
    * each vertex is on a cycle or the tail of a bush edge, so every map
      divides by each degree once; degrees are 2 or 4, so each division is an
      exact power-of-two scaling, which commutes with every rounded product
      and sum, and the divisions factor out as one constant, applied last;
    * what is left of a weight is its cycles' factors, multiplied in
      sorted-cycle order as `crsf_weight` takes them.

    The one caveat is underflow: a product below ~2.2e-308 would round
    differently before and after the scaling, and no flux of interest
    comes near it.  The connection must be built on `graph`; the graph's
    size is checked before its table is built.
    """
    check_graph(graph, conn)
    _check_enumeration_size(graph)
    cycles, maps, scale = _cycle_table(graph)
    factors = [_loop_factor(conn.holonomy(list(cyc))) for cyc in cycles]
    total = 0.0 + 0.0j
    for first, *rest in maps:
        w = factors[first]
        for k in rest:
            w *= factors[k]
        total += w
    return total * scale


def _flux_window_check(conn: Connection) -> None:
    """Refuse zero flux and base fluxes outside [-1/4, 1/4]; warn beyond the
    regime where every simple cycle provably stays inside the window.

    The face fluxes are read from `Connection.face_flux_summary`, computed
    once per connection (each face's holonomy reduced mod 1 and centred);
    the refusal or the warning is raised or logged on every call.
    """
    largest, bad, total = conn.face_flux_summary
    if largest <= 1e-12:
        raise UnsupportedFluxError(
            "zero flux: every cycle has acceptance probability 0, so the "
            "cycle-popping sampler never roots a component; use a uniform "
            "spanning tree sampler instead"
        )
    if abs(bad) > FLUX_WINDOW + 1e-12:
        raise UnsupportedFluxError(
            f"base flux angle {bad:+.6f} lies outside [-1/4, 1/4]; the "
            "cycle acceptance probability would exceed 1"
        )
    if total > FLUX_WINDOW + 1e-12:
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

    A sample is a function of (graph, phases, seed) alone.  Each step takes
    the draws `rng.choice(graph.neighbors[u])` would make, by CPython's
    `_randbelow_with_getrandbits` rule: with d = deg(u) and k =
    d.bit_length(), r = rng.getrandbits(k) is drawn again until r < d, and
    the step goes to neighbors[u][r].  So the ascending neighbour order is
    part of the contract.  A loop's flux is the exactly rounded sum of its
    own edge phases, mod 1, as `Connection.holonomy` takes it.  The
    connection must be built on `graph`.
    """
    check_graph(graph, conn)
    _flux_window_check(conn)
    nbrs, deg, at = graph.neighbors, graph.degrees, graph.neighbor_offsets
    phase = conn.neighbor_phases
    n = len(nbrs)
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    successor: list[int | None] = [None] * n
    in_forest = [False] * n
    pos = [-1] * n  # a vertex's index on the current path, -1 off it
    cycles: list[tuple[tuple[int, ...], float]] = []
    steps = 0
    for start in range(n):
        if in_forest[start]:
            continue
        path = [start]
        turns: list[float] = []  # turns[i]: the phase of the step path[i] -> path[i + 1]
        pos[start] = 0
        u = start
        while True:
            steps += 1
            if steps > WATCHDOG_STEPS:
                raise RuntimeError(
                    f"cycle popping exceeded {WATCHDOG_STEPS:.0e} steps"
                )
            d = deg[u]
            k = d.bit_length()
            r = getrandbits(k)
            while r >= d:
                r = getrandbits(k)
            w = nbrs[u][r]
            if in_forest[w]:
                break
            turns.append(phase[at[u] + r])
            i = pos[w]
            if i >= 0:  # closed a loop
                theta = mod1(math.fsum(turns[i:]))
                p = 1.0 - math.cos(2.0 * math.pi * theta)
                if p > 1.0:
                    log.debug(
                        "clamping acceptance %.6f for cycle flux %.6f", p, theta
                    )
                    p = 1.0
                if uniform() < p:
                    cycles.append((tuple(path[i:]), theta))
                    break
                for x in path[i + 1:]:
                    pos[x] = -1
                del path[i + 1:], turns[i:]
            else:
                pos[w] = len(path)
                path.append(w)
            u = w
        # the walk ends on the forest or on an accepted loop: both join it,
        # and `pos` is read only off the forest
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
    values.  The connection must be built on `graph` and carry a uniform
    flux pair.
    """
    check_graph(graph, conn)
    if boundary_conductance <= 0:
        raise ValueError("boundary conductance must be positive")
    if conn.flux is None:
        raise ValueError("the connection carries no uniform flux pair")
    corner = 2 * boundary_conductance  # the conductance times the corner's degree
    return gluing_log_det(FluxPair(0.0, 0.0), graph.level, corner) - gluing_log_det(
        conn.flux, graph.level, corner
    )
