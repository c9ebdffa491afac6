"""Level-N Sierpinski gasket graphs on the integer triangular lattice.

A lattice coordinate (i, j) stands for the planar point i*(1,0) + j*(1/2, sqrt(3)/2)
in units of one edge length.  Level N lives in the triangle of side 2^N; the level
N-1 vertex set is the even-coordinate sublattice.  All geometry is integer-exact.

Counts for G_N: dim_N = (3^(N+1)+3)/2 vertices, 3^(N+1) edges, 3^N upright unit
cells, and (3^N-1)/2 downright faces total (unit cells plus the hexagonal holes
of side 2^j).  The faces form a cycle basis, which is what the gauge module
relies on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_MAX_LEVEL = 8

# Unit steps: E = (1,0), NE = (0,1), NW = (-1,1) close a CCW upright triangle.
_E = (1, 0)
_NE = (0, 1)


class LevelLimitError(ValueError):
    """Requested level exceeds the configured maximum."""


def max_level() -> int:
    return int(os.environ.get("SG_MAX_LEVEL", DEFAULT_MAX_LEVEL))


def dim_n(level: int) -> int:
    return (3 ** (level + 1) + 3) // 2


@dataclass(frozen=True)
class UnitCell:
    """A face of G_N: side-1 upright/downright triangle, or a downright hole.

    ``vertices`` is the full CCW boundary cycle (3 ids for side 1, 3*side ids
    for holes).  Only side-1 cells have pairwise-adjacent corners.
    """

    orientation: str  # "upright" | "downright"
    vertices: tuple[int, ...]
    side: int = 1


@dataclass(frozen=True)
class GasketGraph:
    level: int
    vertices: tuple[tuple[int, tuple[int, int]], ...]  # (id, (i, j)), id = sort rank
    edges: tuple[tuple[int, int], ...]
    boundary: tuple[int, int, int]  # the three corner ids (V_0)
    cells: tuple[UnitCell, ...]
    prev_level_ids: tuple[int, ...]
    coord_to_id: dict[tuple[int, int], int] = field(repr=False)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * len(self.vertices)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in ascending id order."""
        nbrs: list[list[int]] = [[] for _ in self.vertices]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def face_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CCW boundaries of `cells`, one face after another, as indices
        into `edges` with signs (+1 where the boundary runs from the lower id
        to the higher), and the offset at which each face starts: a sum over
        every face's edges is one `np.add.reduceat`."""
        index = {e: k for k, e in enumerate(self.edges)}
        edge, sign, start = [], [], []
        for cell in self.cells:
            start.append(len(edge))
            cyc = cell.vertices
            for u, v in zip(cyc, cyc[1:] + cyc[:1]):
                edge.append(index[(u, v) if u < v else (v, u)])
                sign.append(1.0 if u < v else -1.0)
        return np.array(edge), np.array(sign), np.array(start)

    @cached_property
    def midpoint_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The side-2 upright triangles of a level N >= 1 gasket, one row each:
        (midpoints, corners), two (3^(N-1), 3) id arrays.  A triangle at origin
        o has corners o, o + (2, 0), o + (0, 2) on the level N-1 sublattice and
        the midpoints o + (1, 0), o + (1, 1), o + (0, 1), which are adjacent
        only to each other and to its corners: the midpoint block of an
        operator is 3x3 block-diagonal over these rows."""
        ids = self.coord_to_id
        origins = [(i - 1, j) for _, (i, j) in self.vertices if i % 2 and not j % 2]
        mids = [(ids[(i + 1, j)], ids[(i + 1, j + 1)], ids[(i, j + 1)]) for i, j in origins]
        corners = [(ids[(i, j)], ids[(i + 2, j)], ids[(i, j + 2)]) for i, j in origins]
        return np.array(mids), np.array(corners)

    def upright_cells(self) -> list[UnitCell]:
        return [c for c in self.cells if c.orientation == "upright"]

    def downright_cells(self) -> list[UnitCell]:
        return [c for c in self.cells if c.orientation == "downright"]

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


def _upright_origins(level: int) -> list[tuple[int, int]]:
    """Lower-left corners of the 3^level upright subtriangles of side 1."""
    origins = [(0, 0)]
    for k in range(1, level + 1):
        s = 2 ** (k - 1)
        origins = (
            origins
            + [(i + s, j) for i, j in origins]
            + [(i, j + s) for i, j in origins]
        )
    return origins


def _holes(level: int, origin: tuple[int, int] = (0, 0)) -> list[tuple[int, tuple[int, int]]]:
    """All downright holes as (side, origin) pairs; side 2^j, 3^(N-1-j) each."""
    if level == 0:
        return []
    s = 2 ** (level - 1)
    oi, oj = origin
    out = [(s, origin)]
    out += _holes(level - 1, origin)
    out += _holes(level - 1, (oi + s, oj))
    out += _holes(level - 1, (oi, oj + s))
    return out


def _hole_boundary(side: int, origin: tuple[int, int]) -> list[tuple[int, int]]:
    """CCW boundary cycle of the downright hole of side s northeast of ``origin``.

    Corners are o+(s,0), o+(s,s), o+(0,s); the cycle runs s NE steps, then s
    W steps, then s SE diagonal steps.  For s = 1 this is the inverted unit
    triangle; for s >= 2 it is a lattice hexagon of length 3s.
    """
    s = side
    oi, oj = origin
    cyc: list[tuple[int, int]] = []
    for t in range(s):
        cyc.append((oi + s, oj + t))
    for t in range(s):
        cyc.append((oi + s - t, oj + s))
    for t in range(s):
        cyc.append((oi + t, oj + s - t))
    return cyc


def build_gasket(level: int) -> GasketGraph:
    """Construct G_level with deterministic ids (lexicographic coordinate sort)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > max_level():
        raise LevelLimitError(
            f"level {level} exceeds maximum {max_level()} (set SG_MAX_LEVEL to raise)"
        )

    origins = _upright_origins(level)
    verts: set[tuple[int, int]] = set()
    edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for o in origins:
        i, j = o
        a, b, c = (i, j), (i + 1, j), (i, j + 1)
        verts.update((a, b, c))
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((min(u, v), max(u, v)))

    coords = sorted(verts)
    coord_to_id = {c: k for k, c in enumerate(coords)}
    id_edges = tuple(
        sorted(
            (min(coord_to_id[u], coord_to_id[v]), max(coord_to_id[u], coord_to_id[v]))
            for u, v in edges
        )
    )

    side = 2 ** level
    corner_coords = [(0, 0), (side, 0), (0, side)]
    boundary = tuple(coord_to_id[c] for c in corner_coords)

    cells: list[UnitCell] = []
    for o in origins:
        i, j = o
        cells.append(
            UnitCell(
                "upright",
                (coord_to_id[(i, j)], coord_to_id[(i + 1, j)], coord_to_id[(i, j + 1)]),
                side=1,
            )
        )
    for s, o in _holes(level):
        cyc = tuple(coord_to_id[c] for c in _hole_boundary(s, o))
        cells.append(UnitCell("downright", cyc, side=s))

    prev = tuple(
        coord_to_id[(i, j)] for i, j in coords if i % 2 == 0 and j % 2 == 0
    ) if level >= 1 else tuple(coord_to_id[c] for c in corner_coords)

    return GasketGraph(
        level=level,
        vertices=tuple((coord_to_id[c], c) for c in coords),
        edges=id_edges,
        boundary=boundary,  # type: ignore[arg-type]
        cells=tuple(cells),
        prev_level_ids=prev,
        coord_to_id=coord_to_id,
    )
