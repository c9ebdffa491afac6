import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import cell_holonomies, gauge_transform

import sglap
from sglap import gauge
from sglap.gasket import build_gasket
from sglap.gauge import (
    Connection,
    FluxPair,
    InvalidCycleError,
    build_connection,
    circ_dist,
    hole_flux,
    mod1,
    restrict_connection,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


@given(finite)
def test_mod1_range_and_idempotence(x):
    m = mod1(x)
    assert 0.0 <= m < 1.0
    assert mod1(m) == m


@given(finite, finite)
def test_circ_dist_symmetric_and_bounded(x, y):
    d = circ_dist(x, y)
    assert 0.0 <= d <= 0.5
    assert d == circ_dist(y, x)
    assert circ_dist(x, x) == 0.0


@given(finite, st.integers(min_value=-3, max_value=3))
def test_circ_dist_periodic(x, k):
    assert circ_dist(x + k, x) <= 1e-9


def test_flux_pair_normalizes_and_dyadic():
    fp = FluxPair(1.25, -0.5)
    assert fp.alpha == 0.25 and fp.beta == 0.5
    assert not fp.is_dyadic()
    assert FluxPair(0.5, 1.0).is_dyadic()
    assert FluxPair(0.5 + 1e-13, -1e-13).is_dyadic()


def test_hole_flux_small_sides():
    a, b = 0.1, 0.1
    assert math.isclose(hole_flux(1, a, b), b)
    assert math.isclose(hole_flux(2, a, b), mod1(a + 3 * b))   # 0.4
    assert math.isclose(hole_flux(4, a, b), mod1(6 * a + 10 * b))  # 1.6 -> 0.6


def gauge_transformed(graph, flux):
    return gauge_transform(build_connection(graph, flux), random.Random(1))


@pytest.mark.parametrize("builder", [build_connection, gauge_transformed])
@pytest.mark.parametrize("flux", [(0.1, 0.1), (0.5, 0.5), (0.37, 0.82), (0.0, 0.25)])
def test_every_face_carries_its_flux(builder, flux):
    g = build_gasket(3)
    conn = builder(g, FluxPair(*flux))
    assert conn.flux == FluxPair(*flux)
    for cell, h in cell_holonomies(conn):
        if cell.orientation == "upright":
            want = flux[0]
        else:
            want = hole_flux(cell.side, *flux)
        assert circ_dist(h, want) <= 1e-9, (cell.orientation, cell.side)


def test_connection_antisymmetric():
    g = build_gasket(2)
    conn = build_connection(g, FluxPair(0.3, 0.7))
    nbrs, at, nph = g.neighbors, g.neighbor_offsets, conn.neighbor_phases
    assert len(nph) == at[-1] == 2 * len(g.edges)
    assert [at[u + 1] - at[u] for u in range(len(nbrs))] == [len(vs) for vs in nbrs]
    for u, vs in enumerate(nbrs):
        for k, v in enumerate(vs):
            p, rev = nph[at[u] + k], nph[at[v] + nbrs[v].index(u)]
            assert circ_dist(p + rev, 0.0) <= 1e-12
            w = np.exp(2j * np.pi * p)
            assert abs(abs(w) - 1.0) <= 1e-12
            assert abs(w * np.exp(2j * np.pi * rev) - 1.0) <= 1e-12
            # the table holds the forward phases and their negatives
            k = int(g.edge_index(np.array(u), np.array(v)))
            assert p == (conn.forward[k] if u < v else -conn.forward[k])


def test_connection_rejects_a_phase_map():
    g = build_gasket(1)
    conn = build_connection(g, FluxPair(0.2, 0.1))
    phase = {}
    for (u, v), p in zip(g.edges, conn.forward.tolist()):
        phase[(u, v)], phase[(v, u)] = p, -p
    with pytest.raises(TypeError):
        Connection(g, phase)


def test_connection_rejects_phases_of_the_wrong_length():
    g = build_gasket(1)
    fwd = build_connection(g, FluxPair(0.2, 0.1)).forward
    for bad in (fwd[:-1], np.append(fwd, 0.0), np.stack([fwd, fwd], axis=1)):
        with pytest.raises(ValueError):
            Connection(g, bad)


def test_connection_phases_are_read_only():
    g = build_gasket(1)
    fwd = np.linspace(-0.4, 0.4, len(g.edge_array))
    conn = Connection(g, fwd)
    fwd[0] = 0.3  # the connection keeps its own copy
    assert conn.forward[0] == -0.4
    with pytest.raises(ValueError):
        conn.forward[0] = 0.1


def test_holonomy_requires_adjacency():
    g = build_gasket(1)
    conn = build_connection(g, FluxPair(0.2, 0.1))
    # opposite corners are not adjacent, and ids off the graph are no vertices
    for cycle in ([0, 5, 0], [0, -1], [0, 6]):
        with pytest.raises(InvalidCycleError):
            conn.holonomy(cycle)
    # closed path form and open form agree
    cell = next(c for c in g.cells if c.orientation == "upright")
    cyc = list(cell.vertices)
    assert conn.holonomy(cyc) == conn.holonomy(cyc + [cyc[0]])


def test_restrict_connection_reduces_faces():
    # with theta = 0 the reduced upright faces pick up 3a + b from the three
    # fine cells and the enclosed hole; theta shifts each by 3*theta
    g = build_gasket(2)
    a, b = 0.07, 0.21
    conn = build_connection(g, FluxPair(a, b))
    for theta in (0.0, 0.11):
        red = restrict_connection(conn, theta)
        assert red.graph.level == 1 and red.flux is None
        ups = [h for c, h in cell_holonomies(red) if c.orientation == "upright"]
        assert len(ups) == 3
        for h in ups:
            assert circ_dist(h, 3 * a + b + 3 * theta) <= 1e-9


def test_to_json_edge_phase_map():
    g = build_gasket(1)
    conn = build_connection(g, FluxPair(0.25, 0.0))
    doc = json.loads(conn.to_json())
    assert len(doc) == 2 * len(g.edges)
    keys = [tuple(map(int, key.split(","))) for key in doc]
    assert keys == sorted(keys)
    for (u, v), p in zip(keys, doc.values()):
        k = int(g.edge_index(np.array(u), np.array(v)))
        assert tuple(sorted((u, v))) == g.edges[k]
        assert p == (conn.forward[k] if u < v else -conn.forward[k])


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0, max_value=1, exclude_max=True),
    beta=st.floats(min_value=0, max_value=1, exclude_max=True),
)
def test_tree_gauge_face_completion_property(alpha, beta):
    g = build_gasket(2)
    conn = build_connection(g, FluxPair(alpha, beta))
    for cell, h in cell_holonomies(conn):
        want = alpha if cell.orientation == "upright" else hole_flux(cell.side, alpha, beta)
        assert circ_dist(h, want) <= 1e-9


_rng = random.Random(8)


@pytest.mark.parametrize(
    "flux", [(0.37, 0.71), (0.3141, 0.2718)] + [(_rng.random(), _rng.random()) for _ in range(3)]
)
def test_tree_gauge_is_exact_mod_1_at_level_8(flux):
    # a side-128 hole sums 256 row phases, and its target s(s-1)/2 alpha +
    # s(s+1)/2 beta has terms ~1.6e4: both are reduced mod 1 exactly, so every
    # face lands within 1e-13 of its exact target (HOLONOMY_TOL is 1e-12)
    conn = build_connection(build_gasket(8), FluxPair(*flux))  # checks every face
    assert np.all(np.abs(conn.forward) < 1.0)
    a, b = Fraction(conn.flux.alpha), Fraction(conn.flux.beta)
    for cell, h in cell_holonomies(conn):
        s = cell.side
        want = a if cell.orientation == "upright" else s * (s - 1) // 2 * a + s * (s + 1) // 2 * b
        miss = (Fraction(h) - want) % 1
        assert min(miss, 1 - miss) <= 1e-13, (cell.orientation, s)


def test_holonomy_check_names_a_hole_whose_target_moved(monkeypatch):
    # level 2 has one side-2 hole, so the failing cell is named exactly
    g, flux = build_gasket(2), FluxPair(0.37, 0.71)
    exact = gauge.hole_flux
    monkeypatch.setattr(gauge, "hole_flux", lambda s, a, b: exact(s, a, b) + (1e-9 if s == 2 else 0.0))
    (hole,) = [c for c in g.cells if c.side == 2]
    with pytest.raises(RuntimeError, match=re.escape(f"holonomy verification failed on cell {hole}")):
        build_connection(g, flux)


def test_holonomy_check_names_an_upright_whose_target_moved(monkeypatch):
    # the phases and the hole targets are both built from the exact turns, so
    # shifting alpha there by 1e-9 leaves every hole on target and every
    # upright 1e-9 off its target flux.alpha
    exact = gauge._turns

    def shifted(alpha, beta):
        a, b, q = exact(alpha, beta)
        return a + round(1e-9 * q), b, q

    monkeypatch.setattr(gauge, "_turns", shifted)
    with pytest.raises(RuntimeError, match=re.escape("holonomy verification failed on cell UnitCell(orientation='upright'")):
        build_connection(build_gasket(2), FluxPair(0.37, 0.71))


def test_sglap_imports_no_scipy():
    # a fresh interpreter, so that no other test's imports count
    src = str(Path(sglap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, sglap, sglap.cli, sglap.crsf, sglap.enumerator; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
