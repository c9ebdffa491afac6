"""Level-N Sierpinski gasket graphs on the integer triangular lattice.

A lattice coordinate (i, j) stands for the planar point i*(1,0) + j*(1/2, sqrt(3)/2)
in units of one edge length.  Level N lives in the triangle of side 2^N; the level
N-1 vertex set is the even-coordinate sublattice.  All geometry is integer-exact.

G_N is built as what it is, three copies of G_{N-1} at the origins (0, 0),
(2^(N-1), 0) and (0, 2^(N-1)), joined by the new hole of side 2^(N-1).  The
upright unit cells come in copy order, so every three consecutive uprights
form one side-2 upright triangle (the cells at o, o + (1, 0) and o + (0, 1)),
and the holes come in preorder: each hole, then the holes of its three copies.

Counts for G_N: dim_N = (3^(N+1)+3)/2 vertices, 3^(N+1) edges, 3^N upright unit
cells, and (3^N-1)/2 downright faces total (unit cells plus the hexagonal holes
of side 2^j).  The faces form a cycle basis, which is what the gauge module
relies on.

A graph stores four integer arrays, each built by whole-array arithmetic over
the three copies: the vertex coordinates (row k is vertex k), the edge ends,
every face's boundary cycle one face after another, and each face's side.
Everything else is derived from them on first read: the tuple and dict views
(`vertices`, `edges`, `cells`, `coord_to_id`, `prev_level_ids`, `degrees`,
`neighbors`, `neighbor_offsets`), the degree array and the read-only index
arrays `face_edges` and `midpoint_cells`.  The spectrum path
(`build_connection`, `assemble`, the operator's entries) reads only arrays,
so it never builds a tuple view.

A process holds one graph per level: `build_gasket` checks its argument and
SG_MAX_LEVEL on every call and then returns the graph it built for that
level the first time.  Graphs still compare by identity, so every caller
(the verifier, `restrict_connection`, `schur_complement`, the operator and
the CLI) shares one graph per level, and its derived views, once read, stay
cached on it for the life of the process.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_MAX_LEVEL = 8


class LevelLimitError(ValueError):
    """Requested level exceeds the configured maximum."""


def max_level() -> int:
    return int(os.environ.get("SG_MAX_LEVEL", DEFAULT_MAX_LEVEL))


def dim_n(level: int) -> int:
    return (3 ** (level + 1) + 3) // 2


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for x in arrays:
        x.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class UnitCell:
    """A face of G_N: side-1 upright/downright triangle, or a downright hole.

    ``vertices`` is the full CCW boundary cycle (3 ids for side 1, 3*side ids
    for holes).  Only side-1 cells have pairwise-adjacent corners.
    """

    orientation: str  # "upright" | "downright"
    vertices: tuple[int, ...]
    side: int = 1


@dataclass(frozen=True, eq=False)
class GasketGraph:
    """G_N as read-only arrays; graphs compare by identity.  `build_gasket`
    makes one per level per process, so its derived views are shared by every
    caller and stay cached for the life of the process.

    ``coords`` is (dim, 2), the lattice coordinates in id order (ids are the
    lexicographic rank of the coordinates); ``edge_array`` is (3^(N+1), 2),
    each edge as (low id, high id), rows ascending; ``face_cycles`` is every
    face's CCW boundary cycle, one face after another, the 3^N upright unit
    cells (3 ids each, in copy order) and then the holes in preorder (3*side
    ids each, from the corner (i+s, j)); ``face_sides`` is each face's side.
    """

    level: int
    coords: np.ndarray = field(repr=False)
    edge_array: np.ndarray = field(repr=False)
    boundary: tuple[int, int, int]  # the three corner ids (V_0)
    face_cycles: np.ndarray = field(repr=False)
    face_sides: np.ndarray = field(repr=False)

    @cached_property
    def vertices(self) -> tuple[tuple[int, tuple[int, int]], ...]:
        """(id, (i, j)) for every vertex, in id order."""
        return tuple(enumerate(map(tuple, self.coords.tolist())))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def coord_to_id(self) -> dict[tuple[int, int], int]:
        return {c: k for k, c in self.vertices}

    @cached_property
    def cells(self) -> tuple[UnitCell, ...]:
        ups = 3**self.level
        cycles = self.face_cycles.tolist()
        cells = [UnitCell("upright", tuple(cycles[3 * k:3 * k + 3])) for k in range(ups)]
        at = 3 * ups
        for s in self.face_sides[ups:].tolist():
            cells.append(UnitCell("downright", tuple(cycles[at:at + 3 * s]), side=s))
            at += 3 * s
        return tuple(cells)

    @cached_property
    def prev_level_ids(self) -> tuple[int, ...]:
        """The ids on the level N-1 sublattice (even coordinates), ascending;
        the boundary at level 0."""
        if self.level == 0:
            return self.boundary
        return tuple(np.flatnonzero(~(self.coords % 2).any(axis=1)).tolist())

    @cached_property
    def degree_array(self) -> np.ndarray:
        deg = np.bincount(self.edge_array.ravel(), minlength=len(self.coords))
        deg.setflags(write=False)
        return deg

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree_array.tolist())

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in ascending id order."""
        lo, hi = self.edge_array.T
        flat = self.in_neighbor_order(np.concatenate([hi, lo])).tolist()
        return tuple(tuple(flat[a:b]) for a, b in itertools.pairwise(self.neighbor_offsets))

    @cached_property
    def neighbor_offsets(self) -> tuple[int, ...]:
        """The start of each vertex's row in a flat table in neighbour order
        (`in_neighbor_order`), then the table's length: the edge u -> v for
        v = neighbors[u][k] sits at offsets[u] + k."""
        return (0, *itertools.accumulate(self.degrees))

    @cached_property
    def _neighbor_order(self) -> np.ndarray:
        # sorts the directed edges of `in_neighbor_order` by (tail, head)
        lo, hi = self.edge_array.T
        return np.lexsort((np.concatenate([hi, lo]), np.concatenate([lo, hi])))

    def in_neighbor_order(self, directed: np.ndarray) -> np.ndarray:
        """`directed` has one value per directed edge: the rows of `edge_array`
        low -> high, then high -> low.  The result holds the same values in
        neighbour order, row u (the edges u -> v for v in `neighbors[u]`, in
        that order) at `neighbor_offsets[u]`."""
        return directed[self._neighbor_order]

    @cached_property
    def face_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CCW boundaries of `cells`, one face after another, as indices
        into `edges` with signs (+1 where the boundary runs from the lower id
        to the higher), and the offset at which each face starts: a sum over
        every face's edges is one `np.add.reduceat`."""
        u, length = self.face_cycles, 3 * self.face_sides
        start = np.cumsum(length) - length
        ahead = np.arange(1, len(u) + 1)
        ahead[start + length - 1] = start  # each face's last vertex closes onto its first
        v = u[ahead]
        return _read_only(self.edge_index(u, v), np.where(u < v, 1.0, -1.0), start)

    def edge_index(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The index into `edges` of each edge {u, v}, in either direction."""
        n = len(self.coords)
        keys = self.edge_array[:, 0] * n + self.edge_array[:, 1]
        return np.searchsorted(keys, np.minimum(u, v) * n + np.maximum(u, v))

    @cached_property
    def midpoint_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The side-2 upright triangles of a level N >= 1 gasket, one row each:
        (midpoints, corners), two (3^(N-1), 3) id arrays.  Each three
        consecutive upright cells t0, t1, t2 (at o, o + (1, 0), o + (0, 1)) make
        one, with corners t0[0], t1[1], t2[2] on the level N-1 sublattice and
        midpoints t0[1], t1[2], t2[0], which are adjacent only to each other and
        to its corners: the midpoint block of an operator is 3x3 block-diagonal
        over these rows.  Rows ascend by their first midpoint."""
        up = self.face_cycles[: 3 ** (self.level + 1)].reshape(-1, 3)
        t0, t1, t2 = up[0::3], up[1::3], up[2::3]
        mids = np.stack([t0[:, 1], t1[:, 2], t2[:, 0]], axis=1)
        corners = np.stack([t0[:, 0], t1[:, 1], t2[:, 2]], axis=1)
        order = np.argsort(mids[:, 0])  # a vertex is the midpoint of one triangle only
        return _read_only(mids[order], corners[order])

    def to_json(self) -> str:
        doc = {
            "level": self.level,
            "vertices": [{"id": i, "coord": list(c)} for i, c in self.vertices],
            "edges": [list(e) for e in self.edges],
            "cells": [
                {"orientation": c.orientation, "vertices": list(c.vertices)}
                for c in self.cells
            ],
        }
        return json.dumps(doc, indent=1)


def build_gasket(level: int) -> GasketGraph:
    """G_level, with deterministic ids (lexicographic coordinate sort).

    The level and SG_MAX_LEVEL are checked on every call; the graph is built
    once per level per process and then shared, so two calls at one level
    return the same object."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > max_level():
        raise LevelLimitError(
            f"level {level} exceeds maximum {max_level()} (set SG_MAX_LEVEL to raise)"
        )
    return _gasket(level)


@lru_cache(maxsize=None)
def _gasket(level: int) -> GasketGraph:
    """Construct G_level as three copies of G_level-1."""
    origins = np.zeros((1, 2), dtype=np.int64)  # lower-left corners of the upright unit cells
    # holes of side s at (i, j): corners (i+s, j), (i+s, j+s), (i, j+s)
    sides, hole_at = np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64)
    for k in range(level):
        s = 2**k
        shifts = np.array([(0, 0), (s, 0), (0, s)])
        origins = (shifts[:, None] + origins).reshape(-1, 2)
        sides = np.concatenate([[s], sides, sides, sides])
        hole_at = np.concatenate([[(0, 0)], (shifts[:, None] + hole_at).reshape(-1, 2)])

    # a coordinate's key i*width + j orders keys as coordinates lexicographically
    width = 2**level + 1
    corner = origins[:, None] + np.array([(0, 0), (1, 0), (0, 1)])
    keys = corner[..., 0] * width + corner[..., 1]
    # sorted distinct keys; np.unique would import numpy.ma on its first call
    # in a process, ~15 ms
    flat = np.sort(keys, axis=None)
    vertex_keys = flat[np.concatenate([[True], flat[1:] != flat[:-1]])]
    n = len(vertex_keys)
    ups = np.searchsorted(vertex_keys, keys)
    # each upright's ids (a, b, c) at (i, j), (i+1, j), (i, j+1) have a < c < b,
    # and every edge lies on exactly one upright unit cell
    a, b, c = ups.T
    edge_keys = np.sort(np.concatenate([a * n + b, c * n + b, a * n + c]))

    length = 3 * sides
    at = 3 * len(origins) + np.cumsum(length) - length
    cycles = np.empty(3 * len(origins) + length.sum(), dtype=np.int64)
    cycles[: 3 * len(origins)] = ups.ravel()
    for k in range(level):
        s, t = 2**k, np.arange(2**k)
        # CCW from corner (i+s, j): s NE steps, s W steps, then s SE steps
        di = np.concatenate([np.full(s, s), s - t, t])
        dj = np.concatenate([t, np.full(s, s), s - t])
        (hole,) = np.nonzero(sides == s)
        i, j = hole_at[hole].T[:, :, None]
        ring = np.searchsorted(vertex_keys, (i + di) * width + j + dj)
        cycles[at[hole][:, None] + np.arange(3 * s)] = ring

    side = 2**level
    boundary = tuple(np.searchsorted(vertex_keys, [0, side * width, side]).tolist())
    coords = np.stack(np.divmod(vertex_keys, width), axis=1)
    edges = np.stack(np.divmod(edge_keys, n), axis=1)
    face_sides = np.concatenate([np.ones(len(origins), dtype=np.int64), sides])
    _read_only(coords, edges, cycles, face_sides)
    return GasketGraph(level, coords, edges, boundary, cycles, face_sides)
