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
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_MAX_LEVEL = 8


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
        (midpoints, corners), two (3^(N-1), 3) id arrays.  Each three
        consecutive upright cells t0, t1, t2 (at o, o + (1, 0), o + (0, 1)) make
        one, with corners t0[0], t1[1], t2[2] on the level N-1 sublattice and
        midpoints t0[1], t1[2], t2[0], which are adjacent only to each other and
        to its corners: the midpoint block of an operator is 3x3 block-diagonal
        over these rows.  Rows ascend by their first midpoint."""
        up = [c.vertices for c in self.cells[: 3**self.level]]
        rows = sorted(
            ((t0[1], t1[2], t2[0]), (t0[0], t1[1], t2[2]))
            for t0, t1, t2 in zip(up[0::3], up[1::3], up[2::3])
        )
        mids, corners = zip(*rows)
        return np.array(mids), np.array(corners)

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
    """Construct G_level as three copies of G_level-1, with deterministic ids
    (lexicographic coordinate sort)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > max_level():
        raise LevelLimitError(
            f"level {level} exceeds maximum {max_level()} (set SG_MAX_LEVEL to raise)"
        )

    origins = [(0, 0)]  # lower-left corners of the upright unit cells
    holes: list[tuple[int, int, int]] = []  # (s, i, j): corners (i+s, j), (i+s, j+s), (i, j+s)
    for k in range(level):
        s = 2**k
        shifts = ((0, 0), (s, 0), (0, s))
        origins = [(i + di, j + dj) for di, dj in shifts for i, j in origins]
        holes = [(s, 0, 0)] + [(h, i + di, j + dj) for di, dj in shifts for h, i, j in holes]

    coords = sorted({c for i, j in origins for c in ((i, j), (i + 1, j), (i, j + 1))})
    ids = {c: k for k, c in enumerate(coords)}
    # (i, j) < (i, j + 1) < (i + 1, j), so each cell's ids are a < c < b
    uprights = [(ids[(i, j)], ids[(i + 1, j)], ids[(i, j + 1)]) for i, j in origins]
    edges = tuple(sorted({e for a, b, c in uprights for e in ((a, b), (c, b), (a, c))}))

    cells = [UnitCell("upright", t) for t in uprights]
    for s, i, j in holes:
        # CCW from corner (i+s, j): s NE steps, s W steps, then s SE steps
        cyc = (
            [ids[(i + s, j + t)] for t in range(s)]
            + [ids[(i + s - t, j + s)] for t in range(s)]
            + [ids[(i + t, j + s - t)] for t in range(s)]
        )
        cells.append(UnitCell("downright", tuple(cyc), side=s))

    side = 2**level
    boundary = (ids[(0, 0)], ids[(side, 0)], ids[(0, side)])
    if level >= 1:
        prev = tuple(ids[(i, j)] for i, j in coords if not i % 2 and not j % 2)
    else:
        prev = boundary

    return GasketGraph(
        level=level,
        vertices=tuple(enumerate(coords)),
        edges=edges,
        boundary=boundary,
        cells=tuple(cells),
        prev_level_ids=prev,
        coord_to_id=ids,
    )
