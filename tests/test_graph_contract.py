"""The graph contract, pinned by digest.

CRSF samples, `sg graph-export` and `schur_complement` depend on the vertex
ids, the edge order, the cell order, the hole start vertices and the row
order of `midpoint_cells`; the reduced connection depends on its phases to
the bit.  The digests below were computed from the recursive construction
that preceded the three-copies build, so any change to these orders or bits
shows here.
"""

import hashlib

import pytest

from sglap.gasket import build_gasket
from sglap.gauge import FluxPair, build_connection, restrict_connection

GRAPH_DIGESTS = {
    0: "f342167c5244424a6d89b7db169ee4c06fa9cb528bfcedebb04243606d4bb3dd",
    1: "526ab33d0c090f9dadad0fa3cc4f0d8d04c32db67709d3dcb8b83723a3d50efc",
    2: "15d7c8d37282342e4bd211d5965587b85c0cf165be2473226214a41597a268e0",
    3: "6fb9053bfa1623861c297cde449bfbe41cc8f2938e2fa094321b8ca2e1514fe6",
    4: "e2bf97adb65b8cdc46e1af1a7fe8d758a3bb091bcee523fe87457943f61c2a7d",
    5: "37d718cb66abbd02a152e8cdffefe3df8e7c5a75bc2f57e9c7afb3ac02ab7221",
    6: "a10595d7397330928d788cb9cc0a7be86e94f5526d502f40c5d13d0631a9f4b9",
    7: "e5e1bbd27d6b1de912300f1431bf12aeda8dbe1fedffbee5f4bb6c4079b494a9",
}

RESTRICT_FLUXES = [(0.37, 0.71), (1 / 12, 0.25), (0.5, 0.0)]
RESTRICT_DIGESTS = {
    1: "16d5c672f7441c6728969e747bd2c54e22b375bb044eba72b2f9a4a8d09e26eb",
    2: "da3a46235a54a7f61f8e846b559131733e2135a61fe654b4aef2785a23c794e3",
    3: "0b5687498682679bec739ef443fc5582ee55b2055dd85a847366acfa9c60ca3f",
    4: "74b21cb4bb4a0100b61cd2d875a977ae4e507fd45f711c2299746f99c48ad13d",
    5: "ddca5f2e11c68483c2575c19eea6e922e7b7752e36d43b841219fc79bf9ca745",
}


def _arrays(*arrays):
    return b"".join(a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes() for a in arrays)


def graph_digest(level):
    g = build_gasket(level)
    fields = (
        g.vertices,
        g.edges,
        g.boundary,
        [(c.orientation, c.vertices, c.side) for c in g.cells],
        g.prev_level_ids,
    )
    h = hashlib.sha256(repr(fields).encode())
    h.update(_arrays(*g.face_edges))
    if level >= 1:
        h.update(_arrays(*g.midpoint_cells))
    return h.hexdigest()


def restrict_digest(level):
    g = build_gasket(level)
    h = hashlib.sha256()
    for flux in RESTRICT_FLUXES:
        conn = build_connection(g, FluxPair(*flux))
        for theta in (0.0, 0.123):
            phase = restrict_connection(conn, theta).phase
            h.update(repr(sorted((e, p.hex()) for e, p in phase.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("level", sorted(GRAPH_DIGESTS))
def test_graph_contract_is_pinned(level):
    assert graph_digest(level) == GRAPH_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(RESTRICT_DIGESTS))
def test_restricted_phases_are_pinned(level):
    assert restrict_digest(level) == RESTRICT_DIGESTS[level]
