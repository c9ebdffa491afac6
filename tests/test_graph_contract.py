"""The graph contract, pinned by digest.

CRSF samples, `sg graph-export` and `schur_complement` depend on the vertex
ids, the edge order, the cell order, the hole start vertices and the row
order of `midpoint_cells`; the reduced connection depends on its phases to
the bit.  The graph digests to level 7 were computed from the recursive
construction that preceded the three-copies build, so any change to these
orders or bits shows here.  The level-8 graph, the derived views (degrees,
neighbours, coordinate ids) and `build_connection`'s own phases were pinned
from the per-edge Python construction that preceded the array-built graph
and gauge.  The connection export of `sg graph-export` and seeded CRSF
samples with their cycle fluxes were pinned while the connection still kept
a (u, v) -> phase map beside its edge-order array.  The engine's spectra,
gluing log-determinants and gluing counts were pinned while bisection still
ran in lockstep over every index on a complex gluing state.  The spectra were
pinned again when bisection stopped at leaves BISECT_WIDTH = 1e-13 wide, not
4 eps: every value moved by at most 2.84e-14, half a leaf; the log-dets and
counts did not move.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest
from _helpers import GLUING_FLUXES

from sglap import cli, crsf
from sglap.decimation import decimation_eigenvalues, gluing_count, gluing_log_det
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
    8: "b9c20c65883ff90223c8173797d9340e6a8a3a5883ab8873fd1fecdc53bd20c7",
}

VIEW_DIGESTS = {
    0: "747431dbbec8de8d531ef661f889e96d98b0ab574f5b8b18988d6095c740334c",
    1: "87beec83ac6bffd018f722e314c0bf111d493c44fc8dc36f3316e3fccdcd6b0d",
    2: "11f0af72b121455ab4cde99a585bdc841e09bdc539159c044f52bbda1d8bf9ca",
    3: "c1d2d3c1533df2c2a797b6b3f30b30b84d5f32616698017403c34ed53dd7f044",
    4: "242d7c1e0de52d53d7df45f0a09f3a6e0032555d1b71f51d75104469207b59ed",
    5: "f847d24f82f69aa51a3d1cecb7ed997d0db111ed37ddf69ee3d3c0b723c59c14",
    6: "529576d37a457c75a9224dc51128978e4cbdaa0601288b5a493ddaa6ba0d23ff",
    7: "2ed4285eea4b769d300ed4e938562a108ac1c8ff40675af4f35f584d4b661dec",
    8: "69a5d5b949c134551bfe31828c96f9272420df3d19ee43da40c80fbed2af83d5",
}

PHASE_FLUXES = [(0.37, 0.71), (1 / 12, 0.25), (0.5, 0.0), (0.0, 0.0)]
PHASE_DIGESTS = {
    0: "377e33e74b88d6e14bb4ab5d8098fb3925da3be730560a5eedbb0f31ce88ba62",
    1: "c62d068df2e921eee6cb078b9db7b46dd4241c594649459c9cae340fe0ff13bd",
    2: "6c7af53da5fe61b0f724730b77746ab73a959bd565601f0586166ebf6d3958d9",
    3: "ca34be7089be0c9decbd314025ebb9d1a696ae7e8a5b611d7f265a62e1a3d6f5",
    4: "d255cb23881aef8af6cd058ba93c028e1307402d18cba656b6b432fea529eb95",
    5: "dfdccfe3da74c09f4f6f30139c64d9f99375922f4993c15bfe7319300cb0f089",
    6: "a3f9c9a01ef78e51cd7308b51d74945fedcc589f04b8350a53e06078211c4020",
    7: "2b2f99f8ec1b5bd11ff89b83218ea1c38d6baa3e916ed6e2fa7bacb63ec949d0",
}

RESTRICT_FLUXES = [(0.37, 0.71), (1 / 12, 0.25), (0.5, 0.0)]
RESTRICT_DIGESTS = {
    1: "16d5c672f7441c6728969e747bd2c54e22b375bb044eba72b2f9a4a8d09e26eb",
    2: "da3a46235a54a7f61f8e846b559131733e2135a61fe654b4aef2785a23c794e3",
    3: "0b5687498682679bec739ef443fc5582ee55b2055dd85a847366acfa9c60ca3f",
    4: "74b21cb4bb4a0100b61cd2d875a977ae4e507fd45f711c2299746f99c48ad13d",
    5: "ddca5f2e11c68483c2575c19eea6e922e7b7752e36d43b841219fc79bf9ca745",
}

EXPORT_FLUXES = [("0.37", "0.71"), ("1/12", "1/4"), ("1/2", "0")]
EXPORT_DIGESTS = {
    0: "d09599c8b553f65038c36fb3eebea76c50990c5f5a8b0fda192a2e2b13195d1a",
    1: "7b83a4f8208d89ddfc5fa007beffea946dd863b43b9a97e06505e2512345705d",
    2: "acd274449b5672c90b8dbb2f698f093564c85c0b94de7739fa10c4f7ac3acae2",
    3: "43c4e1ba76c29458a99408313b8c7fb80a42707d06608e5c4f2c0707dd1b7395",
    4: "237840bf2c38cb314df75cdb1eaca8b754a54a41a9139a99cfca75b7036b6810",
}

# inside the sampler's face window; the second clamps composite cycles
SAMPLE_FLUXES = [(0.05, 0.05), (0.13, -0.21)]
SAMPLE_DIGESTS = {
    2: "fb975d78bfc63d4767915bcab024eb2efb7fc649e8dab3b1fe7cdcd64e591df7",
    3: "d79a0274131835d46ff651a4c1cdfd5d8cd36907b4e0bf54d329a5232277217e",
    4: "abb25b87d1b0e54e8b4b771c3a13f8f34f472eb4f85ef89c0485967f9abe05e9",
    5: "0c026f6cb6083a4bff565650ada427b489c9b03b0b08cc8ca6ac76b4543d7ac5",
}

SPECTRUM_DIGESTS = {
    0: "fe0eb28bcad115fb9b27e5fe66ce8b037c70d3ee56f096b09735e6b64c0da7a1",
    1: "302f41a6b9acb4906cc8802cbce659d53f176f96dca1fb4e1236eafff2a79650",
    2: "cf7117dec6a8ac452925a6a9b8f2d20675ae189f905d84ce09c94db201e0d789",
    3: "b7f8b414d21d043f00767d01243e650f5c21b71cec75dc61f170f30f6ddc15a6",
    4: "01c50c2ac8ac15efd10bfdd50fd770438bd7fb28dd54f58e5944a75f43b342ec",
    5: "c9d415195b056727f603d62f42257cca2ffa50883724b4a5511f038f00159c47",
    6: "d0217b5ade4733cf476bd620f64808545a74df5c91c107269e086a3e2d3b9214",
    7: "23a7be1cd4344a260ef49cf49d9881dcb501914cbefacea364c1aae8695d8d31",
}

LOG_DET_DIGESTS = {
    0: "2199acc67e44cbe88cd472ef27923702ee0027ecbc1fbd334d47d50f19320aa7",
    1: "aacff08bc5276d091e14bdbaa6ebc30f30bbbe474d4b8defae3636bd9b0d2477",
    2: "fe1aaa663138b26738eeadd4955178f6bc764fd0f26c83a4076a54bd9d72bc31",
    3: "377ca3c5d2697f3d3aaaf4f396d442c95cb6e7b1d36b425f57846fb4e48fa2d8",
    4: "4ced2276ab1be7b61230e9619931c52c2d86e3a19fbc6688647522d5daa50d02",
    5: "005b3f971650911d8459c81d91d4d03bf0ad571ab7ff9223f2c88d684b0a4acf",
    6: "eb935af3cc98dbbc51e40f9e4003019b8fa7361e1b03715ea9339226363e53a8",
    7: "7480d9d971f65f14b49ee64a70124b996daacf368cfe0fac2069a4b81ba763bd",
    8: "f6878820adcb901cd9a2b0410353fc5d10b18381602f1eac9d06e34b29c92d4c",
    9: "3a2c0c90d06ebcd877f1ad9defb5e7f6459137c68ea6081b289d37393c7d4eb6",
    10: "2c0fdb4a4f516f3ee8b43054f11641180cb383b62300edd5ce49037ae170a732",
    11: "a672cec49234af96b5056eb28da2bcf7b25f158dda0f23b43a91a9d9c801c5fb",
    12: "8dace205272ddb27dcb7528b21a2b605ab25df1c74c9b90f3bc2786e9f4fdc42",
}

# a grid over the spectrum and beyond it, and the dyadic D roots and Psi
# zeros, where the singular-J rule fires
COUNT_PROBES = np.concatenate([np.linspace(-0.1, 2.1, 1101), [0.5, 0.75, 1.25, 1.5]])
COUNT_DIGEST = "66f752468817bad8a2eef2fe688cef1a6b35e08deb300ace96ce5f3a859d855d"


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


def view_digest(level):
    g = build_gasket(level)
    fields = (g.degrees, g.neighbors, list(g.coord_to_id.items()))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _directed_phases(conn):
    # ((u, v), phase(u, v)) and then ((v, u), phase(v, u)) for every edge, in
    # edge order: the sequence the connection's former (u, v) -> phase map held
    pairs = []
    for (u, v), p, q in zip(conn.graph.edge_array.tolist(), conn.forward.tolist(), (-conn.forward).tolist()):
        pairs += [((u, v), p.hex()), ((v, u), q.hex())]
    return pairs


def phase_digest(level):
    # every directed phase in edge order, and the arrays that
    # `MagneticOperator.entries` reads
    g = build_gasket(level)
    h = hashlib.sha256()
    for flux in PHASE_FLUXES:
        conn = build_connection(g, FluxPair(*flux))
        h.update(repr(_directed_phases(conn)).encode())
        h.update(_arrays(conn.forward, -conn.forward))
    return h.hexdigest()


def restrict_digest(level):
    g = build_gasket(level)
    h = hashlib.sha256()
    for flux in RESTRICT_FLUXES:
        conn = build_connection(g, FluxPair(*flux))
        for theta in (0.0, 0.123):
            red = restrict_connection(conn, theta)
            h.update(repr(sorted(_directed_phases(red))).encode())
    return h.hexdigest()


def export_digest(level):
    # the stdout of `sg graph-export --what connection`, byte for byte
    h = hashlib.sha256()
    for alpha, beta in EXPORT_FLUXES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["graph-export", "--level", str(level), "--alpha", alpha,
                             "--beta", beta, "--what", "connection"])
        assert code == 0
        h.update(out.getvalue().encode())
    return h.hexdigest()


def sample_digest(level):
    # seeded successor maps and their cycle fluxes to the bit
    g = build_gasket(level)
    h = hashlib.sha256()
    for flux in SAMPLE_FLUXES:
        conn = build_connection(g, FluxPair(*flux))
        for seed in range(4):
            s = crsf.sample_crsf(g, conn, seed)
            h.update(repr((s.successor, [f.hex() for f in s.cycle_fluxes])).encode())
    return h.hexdigest()


def spectrum_digest(level):
    # `decimation_eigenvalues` at every gluing flux, Cases II and III included
    h = hashlib.sha256()
    for flux in GLUING_FLUXES:
        h.update(_arrays(decimation_eigenvalues(FluxPair(*flux), level)))
    return h.hexdigest()


def log_det_digest(level):
    h = hashlib.sha256()
    for flux in GLUING_FLUXES:
        for corner in (0.0, 0.5):
            h.update(gluing_log_det(FluxPair(*flux), level, corner).hex().encode())
    return h.hexdigest()


def count_digest():
    # counts and singular flags at level 9, at each flux pair as scalars and
    # with the pairs taken in turn, one per probe
    h = hashlib.sha256()
    fluxes = [FluxPair(*f) for f in GLUING_FLUXES]
    for fp in fluxes:
        h.update(_arrays(*gluing_count(fp.alpha, fp.beta, 9, COUNT_PROBES)))
    alpha = np.resize([fp.alpha for fp in fluxes], COUNT_PROBES.size)
    beta = np.resize([fp.beta for fp in fluxes], COUNT_PROBES.size)
    h.update(_arrays(*gluing_count(alpha, beta, 9, COUNT_PROBES)))
    return h.hexdigest()


@pytest.mark.parametrize("level", sorted(GRAPH_DIGESTS))
def test_graph_contract_is_pinned(level):
    assert graph_digest(level) == GRAPH_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(RESTRICT_DIGESTS))
def test_restricted_phases_are_pinned(level):
    assert restrict_digest(level) == RESTRICT_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(VIEW_DIGESTS))
def test_derived_views_are_pinned(level):
    assert view_digest(level) == VIEW_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(PHASE_DIGESTS))
def test_connection_phases_are_pinned(level):
    assert phase_digest(level) == PHASE_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(EXPORT_DIGESTS))
def test_connection_export_is_pinned(level):
    assert export_digest(level) == EXPORT_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(SAMPLE_DIGESTS))
def test_crsf_samples_are_pinned(level):
    assert sample_digest(level) == SAMPLE_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(SPECTRUM_DIGESTS))
def test_engine_spectra_are_pinned(level):
    assert spectrum_digest(level) == SPECTRUM_DIGESTS[level]


@pytest.mark.parametrize("level", sorted(LOG_DET_DIGESTS))
def test_gluing_log_dets_are_pinned(level):
    assert log_det_digest(level) == LOG_DET_DIGESTS[level]


def test_gluing_counts_are_pinned():
    assert count_digest() == COUNT_DIGEST
