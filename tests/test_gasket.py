import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglap.gasket import LevelLimitError, build_gasket, dim_n, max_level


@pytest.mark.parametrize("level", range(5))
def test_counts(level):
    g = build_gasket(level)
    assert len(g.vertices) == dim_n(level) == (3 ** (level + 1) + 3) // 2
    assert len(g.edges) == 3 ** (level + 1)
    uprights = [c for c in g.cells if c.orientation == "upright"]
    assert len(uprights) == 3**level
    assert all(c.side == 1 for c in uprights)
    # one downright hole per scale: 3^(level-1-j) holes of side 2^j
    holes = [c for c in g.cells if c.orientation == "downright"]
    assert len(holes) == (3**level - 1) // 2
    if level >= 1:
        assert sum(1 for c in holes if c.side == 1) == 3 ** (level - 1)


@pytest.mark.parametrize("level", range(4))
def test_degrees(level):
    g = build_gasket(level)
    deg = g.degrees
    side = 2**level
    corners = {g.coord_to_id[c] for c in [(0, 0), (side, 0), (0, side)]}
    for v, _ in g.vertices:
        assert deg[v] == (2 if v in corners else 4)
    assert set(g.boundary) == corners
    # neighbours ascend, and each edge appears once from each end
    assert deg == tuple(len(ns) for ns in g.neighbors)
    assert all(list(ns) == sorted(ns) for ns in g.neighbors)
    assert {(a, b) for a, ns in enumerate(g.neighbors) for b in ns if a < b} == set(g.edges)


def test_ids_lexicographic_in_coords():
    g = build_gasket(3)
    coords = [c for _, c in g.vertices]
    assert coords == sorted(coords)
    assert all(g.coord_to_id[c] == i for i, c in g.vertices)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_prev_level_is_even_sublattice(level):
    g = build_gasket(level)
    prev = build_gasket(level - 1)
    ids = sorted(g.prev_level_ids)
    assert len(ids) == dim_n(level - 1)
    for k, v in enumerate(ids):
        i, j = prev.vertices[k][1]
        assert g.vertices[v][1] == (2 * i, 2 * j)


def test_cell_boundaries_are_closed_edge_paths():
    # uprights store 3 corners; holes store their full 3*side boundary cycle,
    # and consecutive pairs must be graph edges so holonomies are computable
    g = build_gasket(3)
    edge_set = {frozenset(e) for e in g.edges}
    for cell in g.cells:
        n = 3 if cell.orientation == "upright" else 3 * cell.side
        assert len(cell.vertices) == n
        verts = list(cell.vertices)
        for a, b in zip(verts, verts[1:] + verts[:1]):
            assert frozenset((a, b)) in edge_set


def test_hole_sides_are_powers_of_two():
    g = build_gasket(3)
    sides = sorted(c.side for c in g.cells if c.orientation == "downright")
    assert sides == [1] * 9 + [2] * 3 + [4]


def test_level_guard(monkeypatch):
    with pytest.raises(LevelLimitError, match="SG_MAX_LEVEL"):
        build_gasket(max_level() + 1)
    monkeypatch.setenv("SG_MAX_LEVEL", "2")
    assert max_level() == 2
    with pytest.raises(LevelLimitError):
        build_gasket(3)
    build_gasket(2)  # still fine at the new cap


def test_one_graph_per_level():
    assert build_gasket(3) is build_gasket(3)


def test_cached_level_still_limited(monkeypatch):
    g = build_gasket(3)  # built and held before the cap drops
    monkeypatch.setenv("SG_MAX_LEVEL", "2")
    with pytest.raises(LevelLimitError):
        build_gasket(3)
    monkeypatch.setenv("SG_MAX_LEVEL", "3")
    assert build_gasket(3) is g


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        build_gasket(-1)


def test_to_json_shape():
    g = build_gasket(1)
    doc = json.loads(g.to_json())
    assert doc["level"] == 1
    assert doc["vertices"][0] == {"id": 0, "coord": [0, 0]}
    assert sorted(doc) == ["cells", "edges", "level", "vertices"]
    assert len(doc["edges"]) == 9
    assert {c["orientation"] for c in doc["cells"]} == {"upright", "downright"}


@settings(max_examples=20, deadline=None)
@given(level=st.integers(min_value=0, max_value=4))
def test_edge_count_matches_degree_sum(level):
    g = build_gasket(level)
    assert sum(g.degrees) == 2 * len(g.edges)
    # each unit upright cell contributes three edges, and that covers all of them
    unit_edges = {
        frozenset((a, b))
        for cell in g.cells
        if cell.orientation == "upright"
        for a, b in zip(cell.vertices, cell.vertices[1:] + cell.vertices[:1])
    }
    assert unit_edges == {frozenset(e) for e in g.edges}
